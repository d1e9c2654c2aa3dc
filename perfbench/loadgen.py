"""Closed-loop HTTP load generator for the live-path workload.

Runs as its own process, separate from the server under test, with two
keep-alive connections (one per core of the two-core host the workload
is sized for) opened before the first timed operation. One run is one
fixed-work round on a fresh server:

1. connect, create the shared file, and append the starting history
   (``--history`` records, on connection 0);
2. a timed scan: ``--scan-reads`` 64 KiB ranged reads at seeded random
   offsets of the starting history, over both connections;
3. the timed window: ``--appends`` appends over both connections;
4. the server's resident memory, then the final file read back in one
   request, and the integrity checks: every acknowledged record exactly
   once and intact, every ranged read whole and equal to the final
   bytes over its range.

Around the set-up, the scan and the window it reads the server's CPU
time from ``/proc/<server-pid>/stat``. Writes one JSON document to
``--out``. Usage::

    python3 perfbench/loadgen.py --port 8070 --server-pid 4242 --seed 1 \\
        --history 200 --scan-reads 1500 --appends 1000 --out result.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import sys
import time
import zlib
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from records import RECORD_BYTES, check_reads, check_records, make_record  # noqa: E402
from stats import Tally  # noqa: E402

FILE_PATH = "/bench/shared"
#: ranged-read size of both workloads (fig4/fig5-style reads)
READ_BYTES = 64 * 1024
CONNECTIONS = 2


class Conn:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    async def request(
        self, method: str, target: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        self.writer.write(
            (
                f"{method} {target} HTTP/1.1\r\nHost: perfbench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body_in = await self.reader.readexactly(length) if length else b""
        return status, body_in

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


TRANSPORT_ERRORS = (ConnectionError, asyncio.IncompleteReadError, OSError)


class Appender:
    """Record bookkeeping for the append side of every connection."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.next_seq: Dict[int, int] = {}
        self.acked: List[Tuple[int, int]] = []
        self.unknown: List[Tuple[int, int]] = []

    async def append(self, conn: Conn, cid: int, tally: Tally) -> bool:
        seq = self.next_seq.get(cid, 0)
        self.next_seq[cid] = seq + 1
        record = make_record(self.seed, cid, seq)
        try:
            status, _ = await conn.request(
                "POST", f"/fs/append{FILE_PATH}", record
            )
        except TRANSPORT_ERRORS as exc:
            tally.transport_error(exc)
            self.unknown.append((cid, seq))
            raise
        if tally.status(status):
            self.acked.append((cid, seq))
            return True
        self.unknown.append((cid, seq))
        return False


async def _append_until(
    conn: Conn,
    cid: int,
    app: Appender,
    tally: Tally,
    stop,
    lat_ms: Optional[List[float]],
) -> None:
    """Closed loop: append on *conn* until ``stop()`` is true (checked
    before each append)."""
    while not stop():
        t0 = time.perf_counter()
        try:
            ok = await app.append(conn, cid, tally)
        except TRANSPORT_ERRORS:
            return
        if ok and lat_ms is not None:
            lat_ms.append((time.perf_counter() - t0) * 1e3)


async def _ranged_read(
    conn: Conn,
    offset: int,
    length: int,
    tally: Tally,
    lat_ms: List[float],
    reads: List[Tuple[int, int, int]],
    problems: List[str],
) -> bool:
    """One timed ranged read. A whole body is kept for the final-bytes
    check; a 2xx body of the wrong length is a problem. False when the
    connection broke."""
    t0 = time.perf_counter()
    try:
        status, body = await conn.request(
            "GET", f"/fs/files{FILE_PATH}?offset={offset}&length={length}"
        )
    except TRANSPORT_ERRORS as exc:
        tally.transport_error(exc)
        return False
    dt = (time.perf_counter() - t0) * 1e3
    if not tally.status(status):
        return True
    if len(body) != length:
        problems.append(
            f"read of {length} bytes at offset {offset} answered "
            f"{status} with {len(body)} bytes"
        )
        return True
    lat_ms.append(dt)
    reads.append((offset, length, zlib.crc32(body)))
    return True


async def _scan(
    conns: List[Conn],
    server_pid: int,
    offsets: List[int],
    tally: Tally,
    out: Dict[str, object],
    reads: List[Tuple[int, int, int]],
    problems: List[str],
) -> None:
    """Timed scan: a 64 KiB ranged read at each of *offsets*, the
    connections in closed loops taking alternate offsets, so the server
    always has a request queued. A fixed list keeps both the work and
    the server state it leaves behind equal across runs of a seed.
    Records the scan's wall time and the CPU time server *server_pid*
    spent in it."""
    scan_ms: List[float] = []

    async def part(conn: Conn, first: int) -> None:
        for offset in offsets[first::CONNECTIONS]:
            if not await _ranged_read(
                conn, offset, READ_BYTES, tally, scan_ms, reads, problems
            ):
                return

    t0 = time.perf_counter()
    cpu0 = _cpu_s(server_pid)
    await asyncio.gather(*(part(c, cid) for cid, c in enumerate(conns)))
    out["scan_s"] = time.perf_counter() - t0
    out["scan_cpu_s"] = _cpu_s(server_pid) - cpu0
    out["scan_ms"] = scan_ms


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process *pid*, all threads. Time
    the hypervisor gives to other guests (steal) is not in it, so unlike
    wall time it does not grow when a shared host is oversubscribed."""
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


async def _metrics(conn: Conn) -> Dict[str, object]:
    status, body = await conn.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


async def run(args) -> Dict[str, object]:
    out: Dict[str, object] = {}
    setup, window, scan = Tally(), Tally(), Tally()
    conns: List[Conn] = []
    for _ in range(CONNECTIONS):
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", args.port
            )
        except OSError as exc:
            setup.refused(exc)
            continue
        conns.append(Conn(reader, writer))
    if len(conns) < CONNECTIONS:
        for c in conns:
            await c.close()
        out["tallies"] = {"setup": setup.to_dict()}
        out["problems"] = ["could not open every connection"]
        return out
    try:
        return await _drive(args, conns, out, setup, window, scan)
    finally:
        for c in conns:
            await c.close()


async def _drive(args, conns, out, setup, window, scan):
    app = Appender(args.seed)
    status, body = await conns[0].request("POST", f"/fs/files{FILE_PATH}")
    if not setup.status(status):
        out["problems"] = [f"create answered {status}: {body[:200]!r}"]
        out["tallies"] = {"setup": setup.to_dict()}
        return out

    # -- preload: the workload's starting history -------------------------
    # one connection, so the history's cost does not depend on how two
    # appenders happened to interleave
    await _append_until(
        conns[0], 0, app, setup, lambda: len(app.acked) >= args.history, None
    )
    if len(app.acked) < args.history:
        out["problems"] = [
            f"preload acknowledged {len(app.acked)} of {args.history} appends"
        ]
        out["tallies"] = {"setup": setup.to_dict()}
        return out
    preload_bytes = len(app.acked) * RECORD_BYTES
    out["t_first_timed"] = time.perf_counter()
    # set-up work: the server's CPU since it started plus this process's
    out["setup_cpu_s"] = _cpu_s(args.server_pid) + time.process_time()

    problems: List[str] = []
    reads: List[Tuple[int, int, int]] = []
    if args.signal_host:
        os.kill(args.server_pid, signal.SIGUSR1)  # traced host: start
        await asyncio.sleep(0.1)
        out["metrics_before"] = await _metrics(conns[0])
    rng = random.Random(f"reads:{args.seed}")
    offsets = [
        rng.randrange(0, preload_bytes - READ_BYTES + 1)
        for _ in range(args.scan_reads)
    ]
    await _scan(
        conns, args.server_pid, offsets, scan, out, reads, problems
    )

    # -- timed window: a fixed number of appends ----------------------------
    append_ms: List[float] = []
    issued = 0

    def appends_done() -> bool:
        # claims the next append of the window's budget, if any is left
        nonlocal issued
        if issued >= args.appends:
            return True
        issued += 1
        return False

    t_window = time.perf_counter()
    cpu0 = _cpu_s(args.server_pid)
    await asyncio.gather(*(
        _append_until(c, cid, app, window, appends_done, append_ms)
        for cid, c in enumerate(conns)
    ))
    out["window_s"] = time.perf_counter() - t_window
    out["window_cpu_s"] = _cpu_s(args.server_pid) - cpu0
    out["append_ms"] = append_ms
    out["rss_mib"] = _rss_mib(args.server_pid)
    if args.signal_host:
        out["metrics_after"] = await _metrics(conns[0])
        os.kill(args.server_pid, signal.SIGUSR2)  # traced host: stop
        await asyncio.sleep(0.1)

    # -- read back the final file ------------------------------------------
    status, body = await conns[0].request("GET", f"/fs/stat{FILE_PATH}")
    if not scan.status(status):
        out["problems"] = problems + [f"stat answered {status}"]
        out["tallies"] = _tallies(setup, window, scan)
        return out
    size = json.loads(body)["size"]
    final = b""
    try:
        status, final = await conns[0].request(
            "GET", f"/fs/files{FILE_PATH}?offset=0&length={size}"
        )
    except TRANSPORT_ERRORS as exc:
        scan.transport_error(exc)
    else:
        scan.status(status)

    if len(final) != size:
        problems.append(f"read-back returned {len(final)} of {size} bytes")
    problems += check_records(final, args.seed, app.acked, app.unknown)
    problems += check_reads(final, reads)
    out["problems"] = problems
    out["appends_acked"] = len(app.acked)
    out["tallies"] = _tallies(setup, window, scan)
    return out


def _tallies(setup, window, scan) -> Dict[str, object]:
    return {
        "setup": setup.to_dict(),
        "window": window.to_dict(),
        "scan": scan.to_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--server-pid",
        type=int,
        required=True,
        help="the server process, whose resident memory is read after "
        "the window",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--history", type=int, required=True)
    parser.add_argument("--scan-reads", type=int, required=True)
    parser.add_argument("--appends", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--signal-host",
        action="store_true",
        help="signal the traced host at the start and end of the timed "
        "work (scan and window)",
    )
    args = parser.parse_args(argv)
    result = asyncio.run(run(args))
    with open(args.out, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
