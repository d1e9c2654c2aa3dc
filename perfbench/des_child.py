"""One figure pass of a DES workload, in its own process.

Regenerates the named figures at quick scale through
``repro.experiments.figures`` with the seed-derived cluster seed, and
writes a JSON document with the figure series, the wall and CPU time of
the pass, the CPU time of every simulated experiment (each
``Environment`` is one experiment), the simulated operations each
experiment completed, and the process's peak RSS. Prints ``ready`` and
the CPU seconds its imports took once they are done.

``--trace probe`` installs the layer probes and hands the figure
functions a metrics-only observability bundle (kernel, allocator and
cache counters); ``--trace profile`` runs the pass under ``cProfile``
for self time per layer. The two are separate passes so the profiler's
cost does not inflate the probes' busy times. Usage::

    python3 perfbench/des_child.py --figs fig3,fig4 --seed-index 0 \\
        --trace off --out pass.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import resource  # noqa: E402

from repro.common.config import ExperimentConfig  # noqa: E402
from repro.experiments import figures  # noqa: E402
from repro.sim import core as sim_core  # noqa: E402
from repro.sim import metrics as sim_metrics  # noqa: E402

from layers import Probe, self_shares  # noqa: E402

#: cluster seed of supported seed index 0 (the repository's default)
BASE_CLUSTER_SEED = ExperimentConfig().cluster.seed


class Experiments:
    """CPU time and completed simulated ops of every experiment, split
    at each ``Environment`` construction."""

    def __init__(self) -> None:
        self.rows = []  # [cpu_s, {kind: ops}]
        self._t0 = None
        self._ops = {}

    def begin(self) -> None:
        self.close()
        self._t0 = time.process_time()
        self._ops = {}

    def op(self, kind: str) -> None:
        self._ops[kind] = self._ops.get(kind, 0) + 1

    def close(self) -> None:
        if self._t0 is not None:
            self.rows.append([time.process_time() - self._t0, self._ops])
            self._t0 = None

    def install(self) -> None:
        tracker = self
        env_init = sim_core.Environment.__init__
        record = sim_metrics.Metrics.record

        def init(self, *args, **kwargs):
            tracker.begin()
            env_init(self, *args, **kwargs)

        def rec(self, client, kind, start, end, nbytes):
            tracker.op(kind)
            return record(self, client, kind, start, end, nbytes)

        sim_core.Environment.__init__ = init
        sim_metrics.Metrics.record = rec


def config_for(seed_index: int) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.repetitions = 1
    cfg.cluster.seed = BASE_CLUSTER_SEED + seed_index
    return cfg


def registry_metrics(registry) -> dict:
    c = registry.counters()
    h = registry.histograms()

    def ratio(hits: str, misses: str) -> float:
        total = c.get(hits, 0.0) + c.get(misses, 0.0)
        return c.get(hits, 0.0) / total if total else 0.0

    def hmean(name: str) -> float:
        return h[name].mean if name in h and h[name].count else 0.0

    return {
        "sim.kernel.events": c.get("sim.kernel.events", 0.0),
        "sim.net.reallocs": c.get("sim.net.reallocs", 0.0),
        "sim.net.realloc_scope_mean": hmean("sim.net.realloc_scope"),
        "vm.group_commit_size_mean": hmean("vm.group_commit_size"),
        "md.cache.hit_ratio": ratio("md.cache.hits", "md.cache.misses"),
        "bsfs.cache.hit_ratio": ratio("bsfs.cache.hits", "bsfs.cache.misses"),
        "mr.locality_fraction": ratio("mr.maps_local", "mr.maps_remote"),
    }


def run_pass(fig_ids, seed_index: int, trace: str) -> dict:
    tracker = Experiments()
    tracker.install()
    obs = probe = profiler = None
    if trace == "probe":
        from repro.obs import MetricsRegistry, Observability, Tracer

        obs = Observability(
            tracer=Tracer(enabled=False),
            registry=MetricsRegistry(default_hist_max_samples=10_000),
        )
        probe = Probe()
        probe.install_components()
        probe.install_network()
    elif trace == "profile":
        import cProfile

        profiler = cProfile.Profile()
    series = {}
    t_pass, cpu_pass = time.perf_counter(), time.process_time()
    for fig_id in fig_ids:
        fn = figures.ALL_FIGURES[fig_id]
        if profiler is not None:
            profiler.enable()
        result = fn("quick", config=config_for(seed_index), obs=obs)
        if profiler is not None:
            profiler.disable()
        tracker.close()
        series[fig_id] = [[s.label, list(s.xs), list(s.ys)] for s in result.series]
    doc = {
        "series": series,
        "pass_wall_s": time.perf_counter() - t_pass,
        "pass_cpu_s": time.process_time() - cpu_pass,
        "experiments": tracker.rows,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if probe is not None:
        layers = probe.live_metrics()
        calls, secs = probe.calls, probe.secs
        layers["sim.net.us_per_realloc"] = (
            secs["net.realloc"] / calls["net.realloc"] * 1e6
            if calls["net.realloc"]
            else 0.0
        )
        layers.update(registry_metrics(obs.registry))
        doc["layers"] = layers
    if profiler is not None:
        import pstats

        doc["shares"] = self_shares(pstats.Stats(profiler).stats)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--figs", default="")
    parser.add_argument("--seed-index", type=int, default=0)
    parser.add_argument(
        "--trace", choices=("off", "probe", "profile"), default="off"
    )
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    print(f"ready {time.process_time():.6f}", flush=True)
    if not args.figs:
        return 0  # set-up probe only
    doc = run_pass(args.figs.split(","), args.seed_index, args.trace)
    with open(args.out, "w") as fp:
        json.dump(doc, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
