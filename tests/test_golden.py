"""The engine reproduces the recorded golden results (see golden.py): the
tower profile of every acceptance case, CLI case and page-cap sweep point,
advisory fields included, the documents the CLI writes for them (for the
FIXED cases also the schema-2 document itself, UTF-8 and --ascii), and a
few documents written with --ascii."""

import pytest

from golden import ASCII, all_cases, ascii_snapshot, case_id, case_of, load, snapshot

RECORDS = load()
ASCII_RECORDS = load(ascii_=True)


def test_golden_file_covers_every_case():
    assert [case_of(rec) for rec in RECORDS] == all_cases()
    assert [case_of(rec) for rec in ASCII_RECORDS] == ASCII


@pytest.mark.parametrize("want", RECORDS, ids=[case_id(case_of(rec)) for rec in RECORDS])
def test_golden(want):
    got = snapshot(case_of(want))
    # every key recorded and no other: the schema-2 digests on the FIXED cases
    assert sorted(got) == sorted(want)
    assert got["towers"] == want["towers"]
    assert got["pages"] == want["pages"]
    for key in ("json_sha256", "svg_sha256", "json2_sha256", "json2_ascii_sha256"):
        assert got.get(key) == want.get(key), key


@pytest.mark.parametrize("want", ASCII_RECORDS,
                         ids=[case_id(case_of(rec)) for rec in ASCII_RECORDS])
def test_golden_ascii(want):
    assert ascii_snapshot(case_of(want)) == want
