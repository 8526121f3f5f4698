import pytest

from bockstein.towers import INF, TowerProfile, Unknown, compare, length_str


def make(entries, D=50):
    prof = TowerProfile(D)
    for d, lens in entries.items():
        for x in lens:
            prof.add(d, x)
    return prof


def test_equality_and_sorting():
    a = make({3: [2, 1], 7: [INF]})
    b = make({3: [1, 2], 7: [INF]})
    assert a == b
    assert a.lengths(3) == [1, 2]
    assert Unknown(5) == Unknown(9)  # bounds are advisory


def test_compare_identical():
    a = make({3: [2], 7: [INF]})
    rep = compare(a, make({3: [2], 7: [INF]}), 50)
    assert rep.ok and not rep.unverified


def test_compare_single_mismatch():
    a = make({3: [2], 7: [INF]})
    b = make({3: [3], 7: [INF]})
    rep = compare(a, b, 50)
    assert not rep.ok
    assert len(rep.mismatches) == 1
    assert rep.mismatches[0][0] == 3


def test_compare_unknown_matches_anything_but_reports():
    eng = make({3: [Unknown(4)], 7: [Unknown(2)]})
    orc = make({3: [9], 7: [INF]})
    rep = compare(eng, orc, 50)
    assert rep.ok
    assert len(rep.unverified) == 2


def test_compare_unknown_lower_bound_blocks():
    eng = make({3: [Unknown(10)]})
    orc = make({3: [4]})
    rep = compare(eng, orc, 50)
    assert not rep.ok  # oracle length 4 is inconsistent with "alive through 9"


def test_length_str():
    assert length_str(INF) == "inf"
    assert length_str(4) == "4"
    assert length_str(Unknown(7)) == "unknown(>= 7)"


def test_possibly_absent_unknown_may_stay_unmatched():
    eng = make({3: [Unknown(possibly_absent=True)]})
    rep = compare(eng, make({}), 50)
    assert rep.ok
    assert [t for t, _ in rep.unverified] == [3]
    assert "possibly absent" in rep.lines()[0]


def test_possibly_absent_unknown_absorbs_an_oracle_entry():
    eng = make({3: [Unknown(possibly_absent=True)]})
    rep = compare(eng, make({3: [4]}), 50)
    assert rep.ok and [t for t, _ in rep.unverified] == [3]
    # it absorbs one entry, not several
    assert not compare(eng, make({3: [4, 5]}), 50).ok
    # a plain unknown takes the entry its bound allows first
    eng = make({3: [Unknown(6), Unknown(possibly_absent=True)]})
    rep = compare(eng, make({3: [2, 9]}), 50)
    assert rep.ok and len(rep.unverified) == 2


def test_plain_unknown_without_oracle_entry_is_a_mismatch():
    assert not compare(make({3: [Unknown(4)]}), make({}), 50).ok
    assert not compare(make({3: [Unknown()]}), make({}), 50).ok


def test_possibly_absent_form():
    assert Unknown(possibly_absent=True) == Unknown(5)  # the mark is advisory
    assert hash(Unknown(possibly_absent=True)) == hash(Unknown())
    assert length_str(Unknown(possibly_absent=True)) == "unknown(possibly absent)"
    with pytest.raises(ValueError):
        Unknown(4, possibly_absent=True)


def test_compare_reads_equal_lists_that_hold_unknowns():
    # equal lists are passed over only when they hold no Unknown, since an
    # Unknown is reported as unverified even against an equal one
    lens = [Unknown(4), Unknown(possibly_absent=True)]
    rep = compare(make({3: lens, 7: [2, INF]}), make({3: lens, 7: [2, INF]}), 50)
    assert rep.mismatches == []
    assert rep.unverified == [
        (3, "engine unknown(>= 4) matched to oracle unknown(>= 4) unverified"),
        (3, "engine unknown(possibly absent) matched to oracle unknown(possibly absent)"
            " unverified"),
    ]


def test_compare_reads_equal_lists_that_hold_unknowns_after_a_reported_degree():
    # a reported degree with no Unknown before them does not let equal
    # lists that hold one pass unread
    lens = [Unknown(3)]
    rep = compare(make({1: [1], 2: lens}), make({1: [2], 2: lens}), 50)
    assert rep.lines() == ["MISMATCH t=1: engine ['1'] vs oracle ['2']",
                           "unverified t=2: engine unknown(>= 3) matched to oracle"
                           " unknown(>= 3) unverified"]


def test_compare_an_empty_list_is_no_towers():
    empty = TowerProfile(50, {3: []})
    assert compare(empty, make({}), 50).lines() == ["profiles agree exactly"]
    assert compare(make({}), empty, 50).lines() == ["profiles agree exactly"]
    assert compare(empty, empty, 50).lines() == ["profiles agree exactly"]
    rep = compare(empty, make({3: [2]}), 50)
    assert rep.mismatches == [(3, [], [2])] and rep.unverified == []
    rep = compare(make({3: [Unknown(possibly_absent=True)]}), empty, 50)
    assert rep.mismatches == [] and [t for t, _ in rep.unverified] == [3]


def test_compare_reads_only_the_degrees_0_to_D():
    eng = make({-2: [1], 5: [2], 50: [3], 51: [INF], 60: [Unknown()]}, D=60)
    orc = make({-1: [1], 5: [2], 50: [4], 52: [2]}, D=55)
    rep = compare(eng, orc, 50)
    assert rep.mismatches == [(50, [3], [4])] and rep.unverified == []
    rep = compare(eng, orc, 52)
    assert [d for d, _, _ in rep.mismatches] == [50, 51, 52]
    # with no max_degree, the smaller of the two profiles' windows
    rep = compare(eng, orc)
    assert [d for d, _, _ in rep.mismatches] == [50, 51, 52]
    assert rep.unverified == []
    rep = compare(eng, orc, 60)
    assert [d for d, _, _ in rep.mismatches] == [50, 51, 52, 60]
    assert compare(eng, orc, 4).lines() == ["profiles agree exactly"]


def test_compare_reports_in_increasing_degree_whatever_the_profile_order():
    # the profiles are filled from the top degree down, so their dicts hold
    # the degrees in decreasing order; within a degree the unknowns go
    # smallest bound first, possibly-absent last
    eng, orc = TowerProfile(50), TowerProfile(50)
    for d in (40, 12, 9, 3):
        eng.add(d, Unknown(possibly_absent=True))
        eng.add(d, Unknown(d // 3))
        eng.add(d, 1)
        orc.add(d, d)
        orc.add(d, 1)
    orc.add(30, 2)
    eng.add(20, 2)
    eng.add(20, 2)
    orc.add(20, 2)
    orc.add(20, 2)
    rep = compare(eng, orc, 50)
    assert rep.unverified == [
        (d, msg) for d in (3, 9, 12, 40) for msg in (
            f"engine unknown(>= {d // 3}) matched to oracle {d} unverified",
            "engine unknown(possibly absent) matched to no oracle tower; "
            "the degree may hold none, unverified")]
    assert rep.mismatches == [(30, [], [2])]
    assert rep.lines()[0] == "MISMATCH t=30: engine [] vs oracle ['2']"
