"""Per-layer measurement from outside the program.

Two instruments, both installed only in traced runs:

* :class:`Probe` wraps public entry points of each layer's components
  (class attributes and module-level functions, patched in the process
  under test) and accumulates call counts, busy time and work counters.
  The source tree is not modified; :meth:`Probe.uninstall` restores
  every patched attribute.
* :func:`attribute_profile` folds a ``cProfile`` run into self time per
  layer: each ``src/repro`` function's own time goes to its module's
  layer (:data:`LAYER_PREFIXES`, longest prefix wins), and time in
  standard-library or builtin functions goes to the layer of the
  ``src/repro`` function that called them, split by the caller shares
  the profiler recorded.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: module prefix -> layer. Every module under ``src/repro`` resolves to
#: exactly one layer through its longest matching prefix.
LAYER_PREFIXES: Dict[str, str] = {
    "repro": "common",
    "repro.common": "common",
    "repro.apps": "apps",
    "repro.workloads": "workloads",
    "repro.experiments": "experiments",
    "repro.obs": "obs",
    "repro.faults": "faults",
    "repro.hdfs": "hdfs",
    "repro.mapreduce": "mapreduce",
    "repro.bsfs": "bsfs",
    "repro.bsfs.namespace": "bsfs.namespace",
    "repro.server": "server.app",
    "repro.server.http": "server.http",
    "repro.engine": "engine.base",
    "repro.engine.des": "engine.des",
    "repro.engine.aio": "engine.aio",
    "repro.engine.replica": "engine.replica",
    "repro.sim": "sim.other",
    "repro.sim.core": "sim.core",
    "repro.sim.network": "sim.network",
    "repro.sim.disk": "sim.disk",
    "repro.sim.resources": "sim.resources",
    "repro.blobseer": "blobseer.other",
    "repro.blobseer.protocol": "blobseer.protocol",
    "repro.blobseer.sim_vm": "blobseer.sim_vm",
    "repro.blobseer.version_manager": "blobseer.version_manager",
    "repro.blobseer.metadata": "blobseer.metadata",
    "repro.blobseer.pages": "blobseer.pages",
    "repro.blobseer.backends": "blobseer.backends",
    "repro.blobseer.persistence": "blobseer.backends",
    "repro.blobseer.provider": "blobseer.backends",
    "repro.blobseer.placement": "blobseer.placement",
    "repro.blobseer.provider_manager": "blobseer.placement",
}

#: every layer, in report order
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(sorted(LAYER_PREFIXES.values())))


def layer_of(module: str) -> Optional[str]:
    """The layer of dotted *module* (None outside ``repro``)."""
    best = None
    for prefix in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best):
                best = prefix
    return LAYER_PREFIXES[best] if best is not None else None


def module_of_file(filename: str) -> Optional[str]:
    """Dotted module name of a ``src/repro`` source file, else None."""
    norm = filename.replace(os.sep, "/")
    idx = norm.rfind("/src/repro/")
    if idx < 0 or not norm.endswith(".py"):
        return None
    rel = norm[idx + len("/src/") : -3]
    if rel.endswith("/__init__"):
        rel = rel[: -len("/__init__")]
    return rel.replace("/", ".")


# -- profile attribution ----------------------------------------------------


def attribute_profile(stats: dict) -> Tuple[Dict[str, float], float]:
    """Fold ``pstats.Stats(...).stats`` into ``(layer -> self seconds,
    unattributed seconds)``.

    Time of a non-``repro`` function is handed to its callers in the
    proportions the profiler recorded per caller, recursively, until it
    reaches a ``repro`` function; what reaches a root without one stays
    unattributed.
    """
    layer_cache: Dict[tuple, Optional[str]] = {}

    def layer_for(func: tuple) -> Optional[str]:
        if func not in layer_cache:
            module = module_of_file(func[0])
            layer_cache[func] = layer_of(module) if module else None
        return layer_cache[func]

    # share of each foreign function's time owed to each layer
    owed: Dict[tuple, Dict[Optional[str], float]] = {}

    def shares(func: tuple, depth: int = 0) -> Dict[Optional[str], float]:
        if func in owed:
            return owed[func]
        owed[func] = {None: 1.0}  # cycle guard
        callers = stats[func][4] if func in stats else {}
        if not callers or depth > 50:
            return owed[func]
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values()) or 1.0
        out: Dict[Optional[str], float] = defaultdict(float)
        for caller, w in weights.items():
            frac = w / total
            layer = layer_for(caller)
            if layer is not None:
                out[layer] += frac
            else:
                for lay, f in shares(caller, depth + 1).items():
                    out[lay] += frac * f
        owed[func] = dict(out)
        return owed[func]

    by_layer: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        layer = layer_for(func)
        if layer is not None:
            by_layer[layer] += tt
            continue
        for lay, frac in shares(func).items():
            if lay is None:
                unattributed += tt * frac
            else:
                by_layer[lay] += tt * frac
    return dict(by_layer), unattributed


def self_shares(stats: dict, total: Optional[float] = None) -> Dict[str, float]:
    """``<layer>.self_share`` for every layer plus ``named_share`` (the
    part of *total* — default: all profiled time — that landed in a
    layer)."""
    by_layer, unattributed = attribute_profile(stats)
    named = sum(by_layer.values())
    if total is None:
        total = named + unattributed
    out = {
        f"{layer}.self_share": (by_layer.get(layer, 0.0) / total if total else 0.0)
        for layer in LAYERS
    }
    out["named_share"] = named / total if total else 0.0
    return out


# -- component probes -------------------------------------------------------


class Probe:
    """Counts and busy time at layer entry points (thread-safe)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.secs: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        with self._lock:
            self.calls.clear()
            self.secs.clear()
            self.work.clear()

    def add(self, key: str, calls: int = 0, secs: float = 0.0) -> None:
        with self._lock:
            self.calls[key] += calls
            self.secs[key] += secs

    def add_work(self, key: str, amount: float) -> None:
        with self._lock:
            self.work[key] += amount

    # -- patching -----------------------------------------------------------

    def patch(self, owner, name: str, make: Callable) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def timed(self, key: str, on_result: Optional[Callable] = None) -> Callable:
        """Wrapper factory: time every call into *key*."""
        probe = self

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    probe.add(key, 1, time.perf_counter() - t0)
                if on_result is not None:
                    on_result(args, result)
                return result

            return wrapper

        return make

    def counted(self, key: str, on_call: Optional[Callable] = None) -> Callable:
        """Wrapper factory: count calls (for generator functions, whose
        work happens after the call returns)."""
        probe = self

        def make(fn):
            def wrapper(*args, **kwargs):
                probe.add(key, 1)
                if on_call is not None:
                    on_call(args)
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- the metadata layer's op kind ----------------------------------------

    def _md(self, key: str) -> Callable:
        """Time a segment-tree entry point and tag the DHT node ops it
        makes with the operation kind (read vs. append path) of its
        caller."""
        probe = self
        tls = self._tls

        def make(fn):
            def wrapper(*args, **kwargs):
                caller = sys._getframe(1).f_code.co_name
                prev = getattr(tls, "kind", "other")
                tls.kind = "read" if caller == "read" else "append"
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe.add(key, 1, time.perf_counter() - t0)
                    tls.kind = prev

            return wrapper

        return make

    def _node_op(self) -> Callable:
        probe = self
        tls = self._tls

        def make(fn):
            def wrapper(*args, **kwargs):
                probe.add("md.node_ops." + getattr(tls, "kind", "other"), 1)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install_components(self) -> None:
        """Wrap the BlobSeer/BSFS components both paths share."""
        protocol = importlib.import_module("repro.blobseer.protocol")
        vm_mod = importlib.import_module("repro.blobseer.version_manager")
        sim_vm = importlib.import_module("repro.blobseer.sim_vm")
        dht = importlib.import_module("repro.blobseer.metadata.dht")
        provider = importlib.import_module("repro.blobseer.provider")
        pm = importlib.import_module("repro.blobseer.provider_manager")
        ns = importlib.import_module("repro.bsfs.namespace")

        proto_cls = protocol.BlobSeerProtocol
        self.patch(
            proto_cls,
            "append_ex",
            self.counted(
                "ops.append",
                lambda a: self.add_work("user_bytes", len(a[3])),
            ),
        )
        self.patch(proto_cls, "read", self.counted("ops.read"))

        # the live path's waits block a wait-pool thread of the asyncio
        # engine; the simulated endpoint's return an event immediately
        for cls, wait_key in (
            (vm_mod.ThreadedVersionManager, "vm.wait"),
            (sim_vm.SimVMService, "vm.sim_wait"),
        ):
            for name in (
                "create_blob", "assign_append", "assign_write", "commit",
                "commit_ready", "publish_batch", "resolve",
                "latest_published", "get_version",
            ):
                if name in cls.__dict__:
                    self.patch(cls, name, self.timed("vm"))
            for name in ("metadata_turn", "publish_wait"):
                self.patch(cls, name, self.timed(wait_key))

        self.patch(
            protocol,
            "overlay",
            self.timed(
                "pages.overlay",
                lambda a, r: self.add_work("pages.fragments", len(r)),
            ),
        )
        for name in ("query_pages", "build_version", "build_versions_batch"):
            self.patch(protocol, name, self._md("md.busy"))
        for name in ("_get_at", "_put_at"):
            self.patch(dht.MetadataDHT, name, self._node_op())

        self.patch(
            provider.Provider,
            "put_page",
            self.timed(
                "backends.store",
                lambda a, r: self.add_work("backends.stored_bytes", len(a[2])),
            ),
        )
        self.patch(provider.Provider, "get_page", self.timed("backends.fetch"))
        self.patch(pm.ProviderManager, "allocate", self.timed("placement.allocate"))
        for name in (
            "create", "get", "update_size", "mkdirs", "delete", "rename",
            "exists", "get_status", "list_dir",
        ):
            self.patch(ns.NamespaceManager, name, self.timed("namespace"))

    def install_parse(self) -> None:
        """Time ``server.http.read_request`` as the server's app module
        calls it, from the arrival of a request head to the parsed
        request (idle keep-alive time before the head is excluded)."""
        app = importlib.import_module("repro.server.app")
        probe = self

        class _HeadClock:
            __slots__ = ("inner", "t_head")

            def __init__(self, inner) -> None:
                self.inner = inner
                self.t_head = None

            async def readuntil(self, sep):
                data = await self.inner.readuntil(sep)
                self.t_head = time.perf_counter()
                return data

            async def readexactly(self, n):
                return await self.inner.readexactly(n)

        def make(fn):
            async def wrapper(reader, *args, **kwargs):
                clock = _HeadClock(reader)
                request = await fn(clock, *args, **kwargs)
                if request is not None and clock.t_head is not None:
                    probe.add("http.parse", 1, time.perf_counter() - clock.t_head)
                return request

            return wrapper

        self.patch(app, "read_request", make)

    def install_network(self) -> None:
        """Time the DES flow allocator's reallocation passes."""
        network = importlib.import_module("repro.sim.network")
        self.patch(network.Network, "_realloc", self.timed("net.realloc"))

    # -- readout --------------------------------------------------------------

    def live_metrics(self) -> Dict[str, float]:
        """The live-path per-layer metrics (0 where a layer did no work)."""
        c, s, w = self.calls, self.secs, self.work
        appends = c["ops.append"]
        reads = c["ops.read"]
        ops = appends + reads

        def per(x: float, n: float) -> float:
            return x / n if n else 0.0

        md_ops = c["md.node_ops.append"] + c["md.node_ops.read"]
        return {
            "server.http.parse_us": per(s["http.parse"], c["http.parse"]) * 1e6,
            "engine.aio.wait_ms_per_append": per(s["vm.wait"], appends) * 1e3,
            "blobseer.version_manager.calls_per_append": per(
                c["vm"] + c["vm.wait"] + c["vm.sim_wait"], appends
            ),
            "blobseer.version_manager.busy_us_per_append": per(s["vm"], appends)
            * 1e6,
            "blobseer.pages.overlay_us_per_append": per(
                s["pages.overlay"], appends
            )
            * 1e6,
            "blobseer.pages.fragments_per_overlay": per(
                w["pages.fragments"], c["pages.overlay"]
            ),
            "blobseer.metadata.node_ops_per_append": per(
                c["md.node_ops.append"], appends
            ),
            "blobseer.metadata.node_ops_per_read": per(
                c["md.node_ops.read"], reads
            ),
            "blobseer.metadata.busy_us_per_op": per(s["md.busy"], ops) * 1e6
            if md_ops
            else 0.0,
            "blobseer.backends.store_us_per_append": per(
                s["backends.store"], appends
            )
            * 1e6,
            "blobseer.backends.fetches_per_read": per(c["backends.fetch"], reads),
            "blobseer.backends.fetch_us_per_read": per(
                s["backends.fetch"], reads
            )
            * 1e6,
            "blobseer.backends.stored_bytes_per_user_byte": per(
                w["backends.stored_bytes"], w["user_bytes"]
            ),
            "blobseer.placement.allocate_us": per(
                s["placement.allocate"], c["placement.allocate"]
            )
            * 1e6,
            "bsfs.namespace.calls_per_op": per(c["namespace"], ops),
            "bsfs.namespace.busy_us_per_op": per(s["namespace"], ops) * 1e6,
        }
