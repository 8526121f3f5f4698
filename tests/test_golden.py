"""The engine reproduces the recorded golden results (see golden.py): the
tower profile of every acceptance case, CLI case and page-cap sweep point,
advisory fields included, the documents the CLI writes for them (for the
FIXED cases also the schema-2 document itself, UTF-8 and --ascii), and a
few documents written with --ascii.  A v0 record's first generation is
checked on the re-read of its run, and its second as the run writes it."""

from collections import Counter

import pytest

from golden import ASCII, all_cases, ascii_snapshot, case_id, case_of, load, snapshot

RECORDS = load()
ASCII_RECORDS = load(ascii_=True)

# Differences from the recorded run, each an advisory bound the recorded run
# cut at the edge of its bounded (t, s) grid: the tower at 57 of v1 p=2
# variant B survives every fired page at every filtration, and the first
# page the schedule did not emit is 8, so its length is >= 8 if finite.
RAISED_BOUNDS = {("v1-p2-D60-varB", "57"): (["unknown(>= 7)"], ["unknown(>= 8)"])}


def tightened(want, got, cap):
    """Whether the towers got differ from the recorded want only as a
    capped v0 run may now read further (golden.py): each recorded
    unknown(>= 1) reads unknown(>= cap+1) or a length in 1..cap, and every
    other entry of every degree is as recorded."""
    if want.keys() != got.keys():
        return False
    for t, lengths in want.items():
        rest = Counter(got[t])
        rest.subtract(x for x in lengths if x != "unknown(>= 1)")
        if any(k < 0 for k in rest.values()):
            return False
        read = list(rest.elements())
        if len(read) != lengths.count("unknown(>= 1)") or not all(
                x == f"unknown(>= {cap + 1})" or x.isdigit() and 1 <= int(x) <= cap
                for x in read):
            return False
    return True


def test_golden_file_covers_every_case():
    assert [case_of(rec) for rec in RECORDS] == all_cases()
    assert [case_of(rec) for rec in ASCII_RECORDS] == ASCII


def test_the_second_generation_is_recorded_on_exactly_the_v0_records():
    # 13 records and the ASCII one, so a missing key cannot pass unread
    gen2 = [rec for rec in RECORDS + ASCII_RECORDS if "gen2" in rec]
    assert gen2 == [rec for rec in RECORDS + ASCII_RECORDS if case_of(rec).kind == "v0"]
    assert len(gen2) == 14


def test_the_tightening_rule_admits_only_what_it_names():
    want = {"5": ["1", "unknown(>= 1)", "unknown(possibly absent)"]}
    assert tightened({"5": ["inf"]}, {"5": ["inf"]}, 2)
    assert not tightened(want, want, 2)  # the future page is past the cap
    for read in ("1", "2", "unknown(>= 3)"):
        assert tightened(want, {"5": sorted(["1", read, "unknown(possibly absent)"])}, 2)
    for bad in ("3", "inf", "unknown(>= 2)", "unknown(>= 4)", "unknown(possibly absent)"):
        assert not tightened(want, {"5": ["1", bad, "unknown(possibly absent)"]}, 2), bad
    assert not tightened(want, {"5": ["2", "2", "unknown(possibly absent)"]}, 2)
    assert not tightened(want, {"5": ["1", "2"]}, 2)
    assert not tightened(want, {"5": want["5"], "6": ["inf"]}, 2)


@pytest.mark.parametrize("want", RECORDS, ids=[case_id(case_of(rec)) for rec in RECORDS])
def test_golden(want):
    c = case_of(want)
    got, pages = snapshot(c, dropped=want["dropped"], towers=want["towers"])
    # every key recorded and no other: the schema-2 digests on the FIXED
    # cases, the second generation on the v0 ones
    assert sorted(got) == sorted(want)
    towers = dict(want["towers"])
    for (cid, t), (before, after) in RAISED_BOUNDS.items():
        if cid == case_id(c):
            assert towers[t] == before
            towers[t] = after
    if c.kind == "v0" and c.page_cap is not None:
        assert tightened(towers, got["towers"], c.page_cap)
    else:
        assert got["towers"] == towers
    assert got["pages"] == want["pages"]
    for key in ("json_sha256", "svg_sha256", "json2_sha256", "json2_ascii_sha256"):
        assert got.get(key) == want.get(key), key
    assert got.get("gen2") == want.get("gen2")
    # classes the recorded run could not decide: never more of them now
    for i, t, s, dim in want["dropped"]:
        assert pages[i].dim(t, s) <= dim, (i, t, s)


@pytest.mark.parametrize("want", ASCII_RECORDS,
                         ids=[case_id(case_of(rec)) for rec in ASCII_RECORDS])
def test_golden_ascii(want):
    assert ascii_snapshot(case_of(want)) == want
