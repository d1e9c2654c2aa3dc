"""The percentile rule and failure accounting."""

import argparse
import asyncio
import os
import socket
from urllib.parse import parse_qs, urlsplit

import pytest

import loadgen
from stats import Tally, percentile, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentiles_are_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100


def test_tally_counts_5xx_transport_and_refused_as_failed():
    tally = Tally()
    assert tally.status(200)
    assert tally.status(201)
    assert not tally.status(503)
    assert not tally.status(500)
    assert not tally.status(404)
    tally.transport_error(ConnectionResetError("reset"))
    tally.transport_error(asyncio.IncompleteReadError(b"", 10))
    tally.refused(ConnectionRefusedError("refused"))
    assert tally.attempted == 8
    assert tally.failed == 6
    assert tally.failed_frac == pytest.approx(6 / 8)
    assert tally.reasons["status 503"] == 1
    assert tally.reasons["connect ConnectionRefusedError"] == 1


def _args(**overrides) -> argparse.Namespace:
    args = dict(
        port=0, server_pid=os.getpid(), seed=1, history=20, scan_reads=8,
        appends=6, signal_host=False,
    )
    args.update(overrides)
    return argparse.Namespace(**args)


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_load_generator_counts_refused_connections():
    args = _args(port=_closed_port())
    out = asyncio.run(loadgen.run(args))
    setup = out["tallies"]["setup"]
    assert setup["attempted"] == loadgen.CONNECTIONS
    assert setup["failed"] == loadgen.CONNECTIONS
    assert out["problems"]


class _FakeConn:
    """Answers appends from a script of statuses / exceptions."""

    def __init__(self, script):
        self.script = list(script)

    async def request(self, method, target, body=b""):
        step = self.script.pop(0)
        if isinstance(step, BaseException):
            raise step
        return step, b"{}"


def test_appender_counts_5xx_and_transport_errors():
    app = loadgen.Appender(seed=3)
    tally = Tally()
    conn = _FakeConn([200, 503, 200, ConnectionResetError("gone")])
    lat = []
    asyncio.run(
        loadgen._append_until(conn, 0, app, tally, lambda: False, lat)
    )
    assert (tally.attempted, tally.failed) == (4, 2)
    assert app.acked == [(0, 0), (0, 2)]
    assert app.unknown == [(0, 1), (0, 3)]
    assert len(lat) == 2


class _FileConn:
    """An in-memory stand-in for the server's FS routes on one shared
    file. Ranged reads listed in *short_reads* (by their 1-based count)
    answer 200 with one byte missing."""

    def __init__(self, short_reads=()):
        self.data = bytearray()
        self.short_reads = set(short_reads)
        self.reads = 0

    async def request(self, method, target, body=b""):
        await asyncio.sleep(0)  # let the other connection's loop run
        url = urlsplit(target)
        if method == "POST" and url.path.startswith("/fs/append/"):
            self.data += body
            return 200, b"{}"
        if method == "POST":
            return 201, b"{}"
        if url.path.startswith("/fs/stat/"):
            return 200, b'{"size": %d}' % len(self.data)
        query = parse_qs(url.query)
        offset, length = int(query["offset"][0]), int(query["length"][0])
        self.reads += 1
        if self.reads in self.short_reads:
            length -= 1
        return 200, bytes(self.data[offset:offset + length])


def _drive(short_reads=()):
    shared = _FileConn(short_reads)
    return asyncio.run(
        loadgen._drive(_args(), [shared, shared], {}, Tally(), Tally(), Tally())
    )


def test_load_generator_round_passes_on_an_intact_file():
    out = _drive()
    assert out["problems"] == []
    assert out["appends_acked"] == 26
    assert len(out["scan_ms"]) == 8
    assert len(out["append_ms"]) == 6
    assert out["rss_mib"] > 0


def test_short_2xx_read_makes_the_round_fail():
    out = _drive(short_reads={2})
    assert len(out["problems"]) == 1
    assert out["problems"][0].startswith("read of ")
    assert "answered 200 with" in out["problems"][0]
