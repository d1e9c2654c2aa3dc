"""The repository's benchmark: live append path and DES figure runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload http_append --seed 1 --seconds 10 --trace 0

Workloads (notes in ``perfbench/notes.json``):

* ``http_append`` — two connections read 64 KiB ranges of a preloaded
  history, then append 4 KiB records to the same shared BSFS file, on a
  fresh ``repro-serve``;
* ``des_closed_loop`` — fig3–fig7 at quick scale;
* ``des_open_loop`` — fig8 at quick scale.

A run repeats fixed-work rounds (HTTP: a fresh server each) or figure
passes (DES) until ``--seconds`` of timed work have passed and reports
medians. With ``--trace 0`` the last stdout line is a JSON object with
every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric (``perfbench/notes.json`` defines each). End-to-end timings are
CPU time of the process under test; wall-clock rates and latency
percentiles are printed above the JSON line. The command exits non-zero
when a correctness check fails or the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PY = sys.executable

WORKLOADS: Dict[str, Dict[str, object]] = {
    # one round: a fresh server, *history* preloaded records, then
    # *scan_reads* timed reads and a window of *appends*
    "http_append": {
        "kind": "http", "history": 200, "scan_reads": 1500, "appends": 1000,
    },
    "des_closed_loop": {
        "kind": "des",
        "figs": ["fig3", "fig4", "fig5", "fig6", "fig7"],
    },
    "des_open_loop": {"kind": "des", "figs": ["fig8"]},
}

#: end-to-end metrics; every timing is CPU time of the processes under
#: test, which leaves out the time a shared host's hypervisor gives to
#: other guests (wall-clock figures are printed in the report lines)
END_TO_END = {
    "append_cpu_ms": "ms",
    "read_cpu_ms": "ms",
    "cpu_s": "s",
    "rss_mib": "MiB",
    "setup_s": "s",
}

#: live-path layer metrics (traced run of the HTTP workloads)
LIVE_LAYER = {
    "server.http.parse_us": "us",
    "server.app.fs_append_ms": "ms",
    "server.app.fs_read_ms": "ms",
    "engine.aio.wait_ms_per_append": "ms",
    "blobseer.version_manager.calls_per_append": "count",
    "blobseer.version_manager.busy_us_per_append": "us",
    "blobseer.pages.overlay_us_per_append": "us",
    "blobseer.pages.fragments_per_overlay": "count",
    "blobseer.metadata.node_ops_per_append": "count",
    "blobseer.metadata.node_ops_per_read": "count",
    "blobseer.metadata.busy_us_per_op": "us",
    "blobseer.backends.store_us_per_append": "us",
    "blobseer.backends.fetches_per_read": "count",
    "blobseer.backends.fetch_us_per_read": "us",
    "blobseer.backends.stored_bytes_per_user_byte": "ratio",
    "blobseer.placement.allocate_us": "us",
    "bsfs.namespace.calls_per_op": "count",
    "bsfs.namespace.busy_us_per_op": "us",
    "obs.tracer.spans_per_request": "count",
    "obs.tracer.retained_spans": "count",
}
#: DES kernel, allocator and cache metrics (traced run of the DES workloads)
DES_LAYER = {
    "sim.kernel.events": "count",
    "sim.net.reallocs": "count",
    "sim.net.realloc_scope_mean": "count",
    "sim.net.us_per_realloc": "us",
    "vm.group_commit_size_mean": "count",
    "md.cache.hit_ratio": "ratio",
    "bsfs.cache.hit_ratio": "ratio",
    "mr.locality_fraction": "ratio",
}
#: every per-layer metric, reported on every workload (0 where the
#: workload bypasses the layer)
PER_LAYER: Dict[str, str] = {
    **LIVE_LAYER,
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "named_share": "ratio",
    **DES_LAYER,
    "trace_overhead": "x",
}

#: fixed-work HTTP rounds per run, at least (more while --seconds of
#: timed work have not passed); medians over the rounds are reported
MIN_ROUNDS = 3
#: DES set-up samples per run (median reported)
MIN_SETUP_SAMPLES = 3
#: supported DES seeds: ``--seed n`` runs seed index ``n % DES_SEEDS``
DES_SEEDS = 10
EXPECTED_PATH = os.path.join(HERE, "expected_des.json")
#: relative tolerance of the DES series check
SERIES_RTOL = 1e-9


class BenchError(Exception):
    """A correctness check failed; the run reports it and exits 1."""


# -- processes ----------------------------------------------------------------


class Children:
    """Every process the run starts; :meth:`reap` stops and waits for
    each one, whatever happened."""

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []

    def spawn(self, args: List[str], **kwargs) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(args, env=env, cwd=ROOT, **kwargs)
        self.procs.append(proc)
        return proc

    def reap(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    """First stdout line of *proc* (its ready/listening notice)."""
    what = " ".join(os.path.basename(str(a)) for a in proc.args[1:3])
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise BenchError(f"{what} printed nothing in {timeout}s")
    finally:
        sel.close()
    line = proc.stdout.readline().decode()
    if not line:
        err = proc.stderr.read().decode() if proc.stderr else ""
        raise BenchError(f"{what} exited early: {err.strip()[-500:]}")
    return line.strip()


class Server:
    """One fresh server process (``repro-serve``, or the traced host)."""

    def __init__(
        self,
        kids: Children,
        seed: int,
        host_mode: Optional[str] = None,
        stats_out: Optional[str] = None,
    ):
        t0 = time.perf_counter()
        if host_mode is None:
            args = [PY, "-m", "repro.server.cli", "--port", "0"]
        else:
            args = [PY, os.path.join(HERE, "host.py"), "--mode", host_mode,
                    "--port", "0", "--stats-out", stats_out]
        args += ["--seed", str(seed)]
        self.proc = kids.spawn(
            args, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        line = _readline(self.proc, 60)
        self.boot_s = time.perf_counter() - t0
        if "listening on http://" not in line:
            raise BenchError(f"unexpected server banner {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Graceful stop; the server must exit 0 (no leaked lease
        timers, no traceback)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            _out, err = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            raise BenchError("server did not stop within 30s")
        if self.proc.returncode != 0:
            raise BenchError(
                f"server exited {self.proc.returncode}: "
                f"{err.decode().strip()[-500:]}"
            )


# -- live path ----------------------------------------------------------------


def _http_round(
    kids: Children,
    tmp: str,
    spec,
    seed: int,
    host_mode: Optional[str] = None,
) -> Tuple[dict, Optional[dict]]:
    """Boot a fresh server (``repro-serve``, or the traced host in
    *host_mode*), drive one fixed-work load-generator round, stop the
    server."""
    stats_out = os.path.join(tmp, "host.json")
    server = Server(kids, seed, host_mode, stats_out)
    out = os.path.join(tmp, "loadgen.json")
    args = [
        PY, os.path.join(HERE, "loadgen.py"),
        "--port", str(server.port),
        "--server-pid", str(server.proc.pid),
        "--seed", str(seed),
        "--history", str(spec["history"]),
        "--scan-reads", str(spec["scan_reads"]),
        "--appends", str(spec["appends"]),
        "--out", out,
    ]
    if host_mode is not None:
        args.append("--signal-host")
    t_spawn = time.perf_counter()
    gen = kids.spawn(args)
    if gen.wait(timeout=150) != 0:
        raise BenchError(f"load generator exited {gen.returncode}")
    with open(out) as fp:
        result = json.load(fp)
    # set-up: server boot, then load-generator start, connections, file
    # creation and starting history, up to the first timed operation
    result["setup_wall_s"] = server.boot_s + result["t_first_timed"] - t_spawn
    server.stop()
    host = None
    if host_mode is not None:
        with open(stats_out) as fp:
            host = json.load(fp)
    if result.get("problems"):
        raise BenchError("; ".join(result["problems"][:5]))
    return result, host


def _attempts(result: dict) -> Tuple[int, int]:
    tallies = result["tallies"].values()
    return (
        sum(t["attempted"] for t in tallies),
        sum(t["failed"] for t in tallies),
    )


def _latency(samples: List[float], name: str, report: List[str]) -> None:
    """Report the median of *samples* and the highest percentile the
    sample count supports, with the count."""
    n = len(samples)
    tail = tail_percentile(n)
    if tail is None:
        raise BenchError(f"{name}: only {n} samples")
    report.append(
        f"{name}: n={n} p50={percentile(samples, 50):.3f}ms "
        f"p{tail:g}={percentile(samples, tail):.3f}ms"
    )


def _per_append_cpu_ms(result: dict) -> float:
    return result["window_cpu_s"] / len(result["append_ms"]) * 1e3


def run_http(kids, tmp, spec, seed, seconds, report) -> dict:
    rounds: List[dict] = []
    timed = 0.0
    while len(rounds) < MIN_ROUNDS or timed < seconds:
        result, _ = _http_round(kids, tmp, spec, seed)
        rounds.append(result)
        timed += result["scan_s"] + result["window_s"]
    attempted = sum(_attempts(r)[0] for r in rounds)
    failed = sum(_attempts(r)[1] for r in rounds)
    for r in rounds:
        if not r["append_ms"] or not r["scan_ms"]:
            raise BenchError("a round completed no appends or no reads")

    per_round = {
        "append_cpu_ms": [_per_append_cpu_ms(r) for r in rounds],
        "read_cpu_ms": [r["scan_cpu_s"] / len(r["scan_ms"]) * 1e3 for r in rounds],
        "cpu_s": [r["scan_cpu_s"] + r["window_cpu_s"] for r in rounds],
        "rss_mib": [r["rss_mib"] for r in rounds],
        "setup_s": [r["setup_cpu_s"] for r in rounds],
    }
    _latency(
        [x for r in rounds for x in r["append_ms"]],
        "append latency (all rounds, wall clock)", report,
    )
    _latency(
        [x for r in rounds for x in r["scan_ms"]],
        "read latency (all rounds, wall clock)", report,
    )
    report.append(
        f"failed_frac: {failed}/{attempted} = {failed / attempted:.6f}"
    )
    report.append(
        f"rounds: {len(rounds)}, each a fresh server with {spec['history']} "
        f"records preloaded, {spec['scan_reads']} seeded random 64 KiB reads "
        f"of them, then {spec['appends']} appends"
    )
    report.append(
        "per round, wall clock: appends/s "
        + ", ".join(f"{len(r['append_ms']) / r['window_s']:.1f}" for r in rounds)
        + "; reads/s "
        + ", ".join(f"{len(r['scan_ms']) / r['scan_s']:.1f}" for r in rounds)
        + "; set-up s "
        + ", ".join(f"{r['setup_wall_s']:.3f}" for r in rounds)
    )
    report.append(
        "per round, CPU: append_cpu_ms "
        + ", ".join(f"{v:.3f}" for v in per_round["append_cpu_ms"])
        + "; read_cpu_ms "
        + ", ".join(f"{v:.3f}" for v in per_round["read_cpu_ms"])
    )
    metrics = {name: median(values) for name, values in per_round.items()}
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def _hist_window_ms(before: dict, after: dict, name: str) -> float:
    """Mean of histogram *name* over the traced scan and window, from two
    ``/metrics`` snapshots (count/mean differences)."""
    h0 = before["histograms"].get(name, {"count": 0.0, "mean": 0.0})
    h1 = after["histograms"].get(name, {"count": 0.0, "mean": 0.0})
    n = h1["count"] - h0["count"]
    if n <= 0:
        return 0.0
    return (h1["count"] * h1["mean"] - h0["count"] * h0["mean"]) / n * 1e3


def run_http_traced(kids, tmp, spec, seed, seconds, report) -> dict:
    plain, _ = _http_round(kids, tmp, spec, seed)
    probed, host = _http_round(kids, tmp, spec, seed, "probe")
    profiled, prof = _http_round(kids, tmp, spec, seed, "profile")
    rate = {
        label: len(r["append_ms"]) / r["window_s"]
        for label, r in (("plain", plain), ("probe", probed), ("profile", profiled))
    }
    before, after = probed["metrics_before"], probed["metrics_after"]
    requests = after["counters"]["http.requests"] - before["counters"]["http.requests"]
    layers = dict(host["layers"])
    layers.update(prof["shares"])
    layers["server.app.fs_append_ms"] = _hist_window_ms(before, after, "http.fs_append_s")
    layers["server.app.fs_read_ms"] = _hist_window_ms(before, after, "http.fs_read_s")
    layers["obs.tracer.spans_per_request"] = (
        host["spans_in_window"] / requests if requests else 0.0
    )
    layers["obs.tracer.retained_spans"] = float(host["retained_spans"])
    layers["trace_overhead"] = (
        _per_append_cpu_ms(probed) / _per_append_cpu_ms(plain)
    )
    report.append(
        "appends/s (wall clock): untraced {plain:.1f}, probed {probe:.1f}, "
        "profiled {profile:.1f}".format(**rate)
        + f"; profiled request time {prof['request_time_s']:.2f}s, "
        f"{prof['shares']['named_share']:.1%} of it in named layers"
    )
    attempted = sum(_attempts(r)[0] for r in (plain, probed, profiled))
    failed = sum(_attempts(r)[1] for r in (plain, probed, profiled))
    return {"metrics": layers, "attempted": attempted, "failed": failed}


# -- DES path -----------------------------------------------------------------


def _expected(spec, seed: int) -> Tuple[int, dict]:
    """The seed index a DES run uses and its expected figure series."""
    seed_index = seed % DES_SEEDS
    with open(EXPECTED_PATH) as fp:
        want = json.load(fp)[str(seed_index)]
    return seed_index, {fig: want[fig] for fig in spec["figs"]}


def check_series(got: dict, want: dict) -> List[str]:
    """Differences between two ``{fig: [[label, xs, ys], ...]}`` maps."""
    problems = []
    for fig, series in want.items():
        have = got.get(fig)
        if have is None:
            problems.append(f"{fig}: missing")
            continue
        if [s[0] for s in have] != [s[0] for s in series] or len(have) != len(series):
            problems.append(f"{fig}: series labels differ")
            continue
        for (label, xs, ys), (_l, xw, yw) in zip(have, series):
            for a, b in zip(list(xs) + list(ys), list(xw) + list(yw)):
                if abs(a - b) > SERIES_RTOL * max(abs(a), abs(b), 1e-300):
                    problems.append(f"{fig}/{label}: {a!r} != expected {b!r}")
                    break
            if len(xs) != len(xw) or len(ys) != len(yw):
                problems.append(f"{fig}/{label}: point count differs")
    return problems


def _ready(proc: subprocess.Popen) -> float:
    """Wait for a figure process's ``ready <cpu seconds>`` line; returns
    the CPU time its imports took."""
    word, _, cpu = _readline(proc, 60).partition(" ")
    if word != "ready":
        raise BenchError("figure process did not report ready")
    return float(cpu)


def _des_pass(kids, tmp, figs, seed_index, trace="off") -> Tuple[dict, float]:
    out = os.path.join(tmp, f"pass-{len(kids.procs)}.json")
    proc = kids.spawn(
        [PY, os.path.join(HERE, "des_child.py"), "--figs", ",".join(figs),
         "--seed-index", str(seed_index), "--trace", trace,
         "--out", out],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    setup = _ready(proc)
    _out, err = proc.communicate(timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"figure process failed: {err.decode().strip()[-800:]}")
    with open(out) as fp:
        return json.load(fp), setup


def _setup_probe(kids) -> float:
    proc = kids.spawn(
        [PY, os.path.join(HERE, "des_child.py")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    setup = _ready(proc)
    proc.communicate(timeout=30)
    return setup


def _des_passes(kids, tmp, figs, seed_index, seconds, want) -> Tuple[List[dict], List[float]]:
    passes, setups = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        doc, setup = _des_pass(kids, tmp, figs, seed_index)
        problems = check_series(doc["series"], want)
        if problems:
            raise BenchError("; ".join(problems[:5]))
        passes.append(doc)
        setups.append(setup)
    return passes, setups


def _cpu_per_op_ms(passes: List[dict], kinds: Optional[set]) -> Tuple[float, int]:
    """CPU milliseconds per simulated op of *kinds* (None: every kind),
    and the number of those ops in one pass. Each experiment's CPU time
    (its median over the passes) is split evenly over all the ops it
    completed; every pass runs the same experiments with the same ops."""
    cpu_ms, count = 0.0, 0
    for i, (_cpu, ops) in enumerate(passes[0]["experiments"]):
        cpu = median([doc["experiments"][i][0] for doc in passes])
        total = sum(ops.values())
        n = total if kinds is None else sum(ops.get(k, 0) for k in kinds)
        if total and n:
            cpu_ms += cpu / total * n * 1e3
            count += n
    if not count:
        raise BenchError("a pass completed no simulated ops")
    return cpu_ms / count, count


def run_des(kids, tmp, spec, seed, seconds, report) -> dict:
    seed_index, want = _expected(spec, seed)
    passes, setups = _des_passes(kids, tmp, spec["figs"], seed_index, seconds, want)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_setup_probe(kids))
    reads = any(ops.get("read") for _cpu, ops in passes[0]["experiments"])
    metrics = {
        "cpu_s": median([p["pass_cpu_s"] for p in passes]),
        "rss_mib": median([p["peak_rss_mib"] for p in passes]),
        "setup_s": median(setups),
    }
    for prefix, kinds in (("append", {"append"}), ("read", {"read"} if reads else None)):
        metrics[f"{prefix}_cpu_ms"], n = _cpu_per_op_ms(passes, kinds)
        report.append(
            f"{prefix}: {n} simulated ops per pass "
            f"({'all kinds' if kinds is None else '/'.join(sorted(kinds))})"
        )
    report.append(
        f"passes: {len(passes)}, wall per pass "
        + ", ".join(f"{p['pass_wall_s']:.3f}s" for p in passes)
        + ", CPU per pass "
        + ", ".join(f"{p['pass_cpu_s']:.3f}s" for p in passes)
        + f"; seed index {seed_index}; series match the expected values"
    )
    return {
        "metrics": metrics,
        "attempted": len(passes) * len(spec["figs"]),
        "failed": 0,
    }


def run_des_traced(kids, tmp, spec, seed, seconds, report) -> dict:
    seed_index, want = _expected(spec, seed)
    plain, _ = _des_passes(kids, tmp, spec["figs"], seed_index, seconds / 3.0, want)
    probed, _ = _des_pass(kids, tmp, spec["figs"], seed_index, "probe")
    profiled, _ = _des_pass(kids, tmp, spec["figs"], seed_index, "profile")
    for label, doc in (("probed", probed), ("profiled", profiled)):
        problems = check_series(doc["series"], want)
        if problems:
            raise BenchError(f"{label} pass: " + "; ".join(problems[:5]))
    layers = dict(probed["layers"])
    layers.update(profiled["shares"])
    base = median([p["pass_cpu_s"] for p in plain])
    layers["trace_overhead"] = probed["pass_cpu_s"] / base
    report.append(
        f"CPU per pass: untraced {base:.3f}s, probed {probed['pass_cpu_s']:.3f}s, "
        f"profiled {profiled['pass_cpu_s']:.3f}s; "
        f"{profiled['shares']['named_share']:.1%} of profiled time in named layers"
    )
    return {
        "metrics": layers,
        "attempted": (len(plain) + 2) * len(spec["figs"]),
        "failed": 0,
    }


RUNNERS = {
    ("http", False): run_http,
    ("http", True): run_http_traced,
    ("des", False): run_des,
    ("des", True): run_des_traced,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops and waits for its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = WORKLOADS[args.workload]
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    kids = Children()
    report: List[str] = [f"workload {args.workload}, seed {args.seed}"]
    try:
        runner = RUNNERS[(spec["kind"], bool(args.trace))]
        outcome = runner(kids, tmp, spec, args.seed, args.seconds, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        kids.reap()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    names = tuple(PER_LAYER) if args.trace else tuple(END_TO_END)
    metrics = {}
    for name in names:
        if name not in outcome["metrics"]:
            outcome["metrics"][name] = 0.0
        unit = END_TO_END[name] if name in END_TO_END else PER_LAYER[name]
        value = float(outcome["metrics"][name])
        metrics[name] = {"value": value, "unit": unit}
        report.append(f"{name} = {value:.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
