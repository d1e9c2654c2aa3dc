"""Self-describing append records and the integrity checks over them.

Every appended record is exactly :data:`RECORD_BYTES` long: a header
naming the connection and sequence number that sent it, a CRC of the
payload, and a payload derived from the run seed. Because each record is
one append, the final file must be a concatenation of whole records, so
a checker can walk it record by record and prove that every
acknowledged append landed exactly once and intact.
"""

from __future__ import annotations

import random
import struct
import zlib
from typing import Dict, Iterable, List, Set, Tuple

#: one append = one record (the workloads' 4 KiB append size)
RECORD_BYTES = 4096
MAGIC = b"PBR1"
_HEADER = struct.Struct(">4sHHII")  # magic, conn, reserved, seq, crc32
HEADER_BYTES = _HEADER.size
PAYLOAD_BYTES = RECORD_BYTES - HEADER_BYTES

RecordKey = Tuple[int, int]  # (connection, sequence)


def payload_for(seed: int, conn: int, seq: int) -> bytes:
    """The seeded payload of record ``(conn, seq)``."""
    return random.Random(f"{seed}:{conn}:{seq}").randbytes(PAYLOAD_BYTES)


def make_record(seed: int, conn: int, seq: int) -> bytes:
    payload = payload_for(seed, conn, seq)
    header = _HEADER.pack(MAGIC, conn, 0, seq, zlib.crc32(payload))
    return header + payload


def check_records(
    data: bytes,
    seed: int,
    acked: Iterable[RecordKey],
    sent: Iterable[RecordKey] = (),
) -> List[str]:
    """Problems found in the final file *data* (empty list = intact).

    *acked* are the appends the server acknowledged: each must appear
    exactly once with its seeded payload. *sent* adds appends whose
    outcome is unknown (failed or cut off): they may appear at most
    once. Anything else — a torn or foreign record, a duplicate, a
    missing acknowledged record — is reported.
    """
    acked_set: Set[RecordKey] = set(acked)
    allowed = acked_set | set(sent)
    problems: List[str] = []
    if len(data) % RECORD_BYTES:
        problems.append(
            f"file size {len(data)} is not a whole number of "
            f"{RECORD_BYTES}-byte records"
        )
    seen: Dict[RecordKey, int] = {}
    for pos in range(0, len(data) - RECORD_BYTES + 1, RECORD_BYTES):
        magic, conn, _res, seq, crc = _HEADER.unpack_from(data, pos)
        payload = data[pos + HEADER_BYTES : pos + RECORD_BYTES]
        if magic != MAGIC or zlib.crc32(payload) != crc:
            problems.append(f"torn record at offset {pos}")
            continue
        key = (conn, seq)
        if key not in allowed:
            problems.append(f"unknown record {key} at offset {pos}")
            continue
        if payload != payload_for(seed, conn, seq):
            problems.append(f"corrupt payload of record {key} at offset {pos}")
            continue
        if key in seen:
            problems.append(
                f"duplicate record {key} at offsets {seen[key]} and {pos}"
            )
            continue
        seen[key] = pos
    missing = acked_set - seen.keys()
    if missing:
        sample = sorted(missing)[:5]
        problems.append(
            f"{len(missing)} acknowledged records missing, e.g. {sample}"
        )
    return problems


def check_reads(
    data: bytes, reads: Iterable[Tuple[int, int, int]]
) -> List[str]:
    """Problems with ranged reads ``(offset, length, crc32)`` compared
    against the final file *data* (data only ever grows by appends, so
    a correct read equals the final bytes over its range)."""
    problems: List[str] = []
    for offset, length, crc in reads:
        if offset + length > len(data):
            problems.append(
                f"read [{offset}, {offset + length}) past final size {len(data)}"
            )
        elif zlib.crc32(data[offset : offset + length]) != crc:
            problems.append(f"read [{offset}, {offset + length}) differs")
        if len(problems) >= 5:
            break
    return problems
