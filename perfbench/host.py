"""Traced host for the live path: ``repro-serve`` plus layer probes.

Builds a :class:`~repro.server.app.BlobServer` as ``repro-serve`` does
when given only a port and seed (observability on, every other argument
left at its default) and, with ``--mode probe``, wraps the entry points
of its layers with a :class:`layers.Probe`, or, with ``--mode profile``,
profiles the event-loop thread (the two are kept apart so the
profiler's cost does not inflate the probes' busy times). The load
generator marks its timed work (the read scan and the append window)
with SIGUSR1 (start) and SIGUSR2 (stop). On SIGTERM the server stops
gracefully and the window's figures are written to ``--stats-out``;
like ``repro-serve``, the exit code is 1 when lease timers survive the
stop. Usage::

    python3 perfbench/host.py --mode probe --port 0 --seed 1 --stats-out stats.json
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import os
import pstats
import signal
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import Probe, self_shares  # noqa: E402


class Window:
    """Probe or profiler state for the load generator's timed window."""

    def __init__(self, server, probe: Optional[Probe]) -> None:
        self.server = server
        self.probe = probe
        self.profiler = None if probe is not None else cProfile.Profile()
        self.spans_before = 0
        self.result = None

    def start(self) -> None:
        self.spans_before = len(self.server.obs.tracer)
        if self.probe is not None:
            self.probe.reset()
        else:
            self.profiler.enable()

    def stop(self) -> None:
        tracer = self.server.obs.tracer
        self.result = {
            "spans_in_window": len(tracer) - self.spans_before,
            "retained_spans": len(tracer),
        }
        if self.probe is not None:
            self.result["layers"] = self.probe.live_metrics()
            return
        self.profiler.disable()
        stats = pstats.Stats(self.profiler).stats
        # server-side request time: the loop thread's time inside the
        # per-connection tasks (parse, dispatch, handlers, response)
        request_time = sum(
            ct
            for (fname, _line, name), (_cc, _nc, _tt, ct, _c) in stats.items()
            if name == "_handle_connection" and fname.endswith("app.py")
        )
        self.result["shares"] = self_shares(stats, total=request_time)
        self.result["request_time_s"] = request_time


async def serve(args) -> int:
    from repro.obs import Observability
    from repro.server.app import BlobServer

    probe = None
    if args.mode == "probe":
        probe = Probe()
        probe.install_components()
        probe.install_parse()
    server = BlobServer(
        host="127.0.0.1",
        port=args.port,
        seed=args.seed,
        obs=Observability.on(),
    )
    window = Window(server, probe)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    loop.add_signal_handler(signal.SIGUSR1, window.start)
    loop.add_signal_handler(signal.SIGUSR2, window.stop)
    host, port = await server.start()
    print(f"repro-serve listening on http://{host}:{port}", flush=True)
    await stop.wait()
    await server.stop()
    with open(args.stats_out, "w") as fp:
        json.dump(window.result, fp)
    timers = server.live_lease_timers
    if timers:
        print(f"warning: {timers} lease timers still armed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("probe", "profile"), required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stats-out", required=True)
    args = parser.parse_args(argv)
    return asyncio.run(serve(args))


if __name__ == "__main__":
    sys.exit(main())
