"""The integrity checker over append records."""

import zlib

from records import (
    RECORD_BYTES,
    check_reads,
    check_records,
    make_record,
)

SEED = 7


def _file(keys):
    return b"".join(make_record(SEED, c, s) for c, s in keys)


KEYS = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]


def test_intact_file_passes():
    assert check_records(_file(KEYS), SEED, KEYS) == []


def test_dropped_record_is_caught():
    problems = check_records(_file(KEYS[:-1]), SEED, KEYS)
    assert any("missing" in p for p in problems)


def test_duplicated_record_is_caught():
    problems = check_records(_file(KEYS + [KEYS[1]]), SEED, KEYS)
    assert any("duplicate record (1, 0)" in p for p in problems)


def test_torn_record_is_caught():
    data = bytearray(_file(KEYS))
    data[2 * RECORD_BYTES + 100] ^= 0xFF
    problems = check_records(bytes(data), SEED, KEYS)
    assert any("torn record at offset 8192" in p for p in problems)
    assert any("missing" in p for p in problems)


def test_partial_record_is_caught():
    data = _file(KEYS)[:-10]
    problems = check_records(data, SEED, KEYS)
    assert any("not a whole number" in p for p in problems)


def test_foreign_and_wrong_seed_records_are_caught():
    assert any(
        "unknown record" in p
        for p in check_records(_file(KEYS + [(5, 5)]), SEED, KEYS)
    )
    other_seed = b"".join(make_record(SEED + 1, c, s) for c, s in KEYS)
    assert any("corrupt payload" in p for p in check_records(other_seed, SEED, KEYS))


def test_unacknowledged_records_may_appear_once():
    acked, unknown = KEYS[:-1], [KEYS[-1]]
    assert check_records(_file(KEYS), SEED, acked, unknown) == []
    assert check_records(_file(acked), SEED, acked, unknown) == []


def test_reads_are_compared_with_the_final_bytes():
    data = _file(KEYS)
    good = (100, 5000, zlib.crc32(data[100:5100]))
    assert check_reads(data, [good]) == []
    bad = (100, 5000, zlib.crc32(data[101:5101]))
    assert check_reads(data, [bad]) == ["read [100, 5100) differs"]
    past = (len(data) - 10, 20, 0)
    assert "past final size" in check_reads(data, [past])[0]
