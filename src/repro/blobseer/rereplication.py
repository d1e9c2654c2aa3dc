"""Adaptive re-replication — demand scaling for hot pages.

The paper treats replication as a static, per-deployment factor. This
module layers a feedback loop on top of the policy-driven placement
plane: a :class:`ReplicaDirectory` records where every page landed and
how often it is read, and a :class:`HotPageReplicator` daemon
periodically scans it and

* **scales hot pages up** — a page read at least
  ``hot_page_threshold`` times since the previous scan gains one
  replica (up to ``rereplication_max``), spreading its read load;
* **repairs crash losses** — a page whose live replica count dropped
  below the configured replication (providers crashed) is copied back
  up to strength.

Both actions are one replica copy: fetch the page from a live holder,
store it on a freshly allocated provider (the placement policy chooses,
excluding current holders), and record the new location. The copy runs
through engine ops like every other client, so the DES bills its
network/disk time and the threaded runtime moves real bytes. Counters:
``placement.rereplications`` (copies made), ``placement.hot_pages``
(pages promoted for heat). Everything here is inert unless
``BlobSeerConfig.rereplication`` is on.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import ReplicationError
from ..engine.base import Payload
from ..engine.replica import ReplicaSelector, sweep_fetch
from ..obs import NULL_OBS, Observability


class _PageInfo:
    __slots__ = ("providers", "nbytes", "reads")

    def __init__(self, providers: Tuple[str, ...], nbytes: int) -> None:
        self.providers: List[str] = list(providers)
        self.nbytes = nbytes
        #: reads since the last daemon scan
        self.reads = 0


class ReplicaDirectory:
    """Where every page lives, plus its read heat. Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pages: Dict[Any, _PageInfo] = {}

    def note_page(
        self, page_id: Any, providers: Tuple[str, ...], nbytes: int
    ) -> None:
        """Record a freshly stored page and its placement."""
        with self._lock:
            self._pages[page_id] = _PageInfo(providers, nbytes)

    def note_read(self, page_id: Any) -> None:
        """Count one read against the page's heat."""
        with self._lock:
            info = self._pages.get(page_id)
            if info is not None:
                info.reads += 1

    def add_replica(self, page_id: Any, provider: str) -> None:
        """Record a re-replicated copy."""
        with self._lock:
            info = self._pages.get(page_id)
            if info is not None and provider not in info.providers:
                info.providers.append(provider)

    def providers_for(
        self, page_id: Any, known: Tuple[str, ...]
    ) -> Tuple[str, ...]:
        """*known* (the metadata tree's placement) extended with any
        re-replicated copies the directory knows about."""
        with self._lock:
            info = self._pages.get(page_id)
            if info is None:
                return known
            extras = tuple(p for p in info.providers if p not in known)
        return known + extras if extras else known

    def replica_count(self, page_id: Any) -> int:
        with self._lock:
            info = self._pages.get(page_id)
            return len(info.providers) if info is not None else 0

    def snapshot(self) -> List[Tuple[Any, Tuple[str, ...], int, int]]:
        """``(page_id, providers, nbytes, reads_since_scan)`` per page,
        resetting the heat counters — one daemon scan's worth of input."""
        with self._lock:
            out = []
            for page_id, info in self._pages.items():
                out.append(
                    (page_id, tuple(info.providers), info.nbytes, info.reads)
                )
                info.reads = 0
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)


class HotPageReplicator:
    """The re-replication daemon body, engine-parameterized.

    One :meth:`scan` is a generator of engine ops (run it as a DES
    process or through a threaded engine's trampoline); each invocation
    scans the directory once and performs every indicated copy.
    """

    def __init__(
        self,
        protocol,
        client: str,
        obs: Optional[Observability] = None,
    ) -> None:
        """*protocol* is the deployment's
        :class:`~repro.blobseer.protocol.BlobSeerProtocol` (the daemon
        shares its engine, provider manager, directory, and config);
        *client* is the machine the daemon's transfers originate from.
        """
        if protocol.directory is None:
            raise ValueError("protocol has no replica directory "
                             "(rereplication knob is off)")
        self.protocol = protocol
        self.client = client
        obs = obs or NULL_OBS
        self._c_rereplications = obs.registry.counter(
            "placement.rereplications"
        )
        self._c_hot = obs.registry.counter("placement.hot_pages")
        self._selector = ReplicaSelector(
            protocol.engine.rng("replica", "rereplicator", client)
        )
        #: lifetime copy count (mirrors the counter, registry or not)
        self.copies = 0

    def scan(self):
        """Generator: one scan — promote hot pages, repair lost replicas."""
        proto = self.protocol
        engine = proto.engine
        config = proto.config
        directory = proto.directory
        threshold = getattr(config, "hot_page_threshold", 3)
        ceiling = getattr(config, "rereplication_max", 4)
        for page_id, providers, nbytes, reads in directory.snapshot():
            live = [p for p in providers if not engine.is_down(p)]
            if not live:
                continue  # no copy source; nothing the daemon can do
            # target live replica count: at least the configured
            # replication (crash repair), one more when the page ran
            # hot, never past the ceiling
            target = max(len(live), config.replication)
            if reads >= threshold and len(live) + 1 <= ceiling:
                target = max(target, len(live) + 1)
                self._c_hot.inc()
            target = min(target, ceiling)
            need = target - len(live)
            if need <= 0:
                continue
            try:
                targets = proto.pm.allocate(
                    [nbytes], replication=need, exclude=providers
                )[0]
            except (ReplicationError, ValueError):
                continue  # not enough spare providers right now
            data = yield from sweep_fetch(
                engine,
                self._selector,
                self.client,
                live,
                page_id,
                0,
                nbytes,
            )
            payload = (
                Payload(data) if data is not None else Payload(nbytes=nbytes)
            )
            for name in targets:
                yield engine.store(self.client, name, page_id, payload)
                directory.add_replica(page_id, name)
                self._c_rereplications.inc()
                self.copies += 1
