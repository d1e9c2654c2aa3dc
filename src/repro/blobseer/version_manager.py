"""The version manager — BlobSeer's only centralized data-path entity.

The version manager (VM) assigns version numbers, decides the offset an
append lands at, and publishes versions *in order*. Everything heavy
(page transport, metadata writes) happens elsewhere and in parallel;
the VM's critical section is a few dictionary updates, which is why the
paper's appenders scale: "Multiple clients can append their data in a
fully parallel manner …; synchronization is required only when writing
the metadata, but this overhead is low."

The write/append protocol, faithful to BlobSeer:

1. the client stripes its data into pages and ships them to providers
   (no offset needed — pages are position-independent);
2. the client asks the VM to *assign* a version: for an append the VM
   picks ``offset = size of the latest assigned version`` and returns a
   :class:`Ticket`;
3. the client writes the new segment-tree nodes to the metadata
   providers once the previous version's tree is complete (the VM
   sequences this metadata turn — the only serialization point);
4. the client *commits*; the VM publishes the version as soon as every
   earlier version is published, making it the visible "latest".

Readers only ever see published versions, so they are never blocked by
(or block) writers — old snapshots stay intact.

:class:`VersionManagerCore` is the pure state machine; the threaded and
simulated runtimes wrap it with their own concurrency-control adapters
(:class:`ThreadedVersionManager` here; the simulated wrapper lives in
:mod:`repro.blobseer.simulated`).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..common.config import BlobSeerConfig
from ..common.errors import (
    AppendAbortedError,
    BlobNotFoundError,
    VersionNotFoundError,
    VersionNotReadyError,
)
from ..obs import NULL_OBS, Observability
from ..obs.events import lease_expired
from .metadata.segment_tree import NodeKey, capacity_for


@dataclass(frozen=True, slots=True)
class Ticket:
    """The VM's answer to an assignment request: where the update lands."""

    blob_id: int
    version: int
    offset: int
    nbytes: int
    new_size: int
    page_size: int


@dataclass(slots=True)
class VersionRecord:
    """One (possibly not yet published) version of a BLOB."""

    version: int
    size: int
    kind: str  # "create" | "write" | "append"
    root: Optional[NodeKey] = None
    committed: bool = False
    #: the blob size whose page capacity matches ``root``'s tree — equal
    #: to ``size`` for normal versions, but an *aborted* version inherits
    #: the previous tree, which may be smaller than its assigned size
    tree_size: int = 0
    #: lease expired before commit; published as a zero-length hole
    aborted: bool = False


@dataclass(slots=True)
class BlobState:
    """Everything the VM tracks for one BLOB."""

    blob_id: int
    page_size: int
    #: every assigned version, 0 = the empty creation version
    versions: Dict[int, VersionRecord] = field(default_factory=dict)
    next_version: int = 1
    #: size after the most recently *assigned* (not published) version —
    #: the offset the next append will receive
    assigned_size: int = 0
    #: highest version published so far (visible to readers)
    published: int = 0


def _pages_capacity(size: int, page_size: int) -> int:
    """Tree capacity (in pages, power of two) for a blob of *size* bytes."""
    if size == 0:
        return 0
    n_pages = -(-size // page_size)
    return capacity_for(n_pages)


class VersionManagerCore:
    """Pure, lock-free VM state machine (callers provide mutual exclusion)."""

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._blobs: Dict[int, BlobState] = {}
        self._ids = itertools.count(1)
        #: callbacks waiting for a version's metadata turn / publication
        self._turn_waiters: Dict[tuple[int, int], List[Callable[[], None]]] = {}
        #: group commit: change maps handed in by ready appenders, keyed
        #: by (blob_id, version), awaiting a publish leader to drain them
        self._pending: Dict[tuple[int, int], object] = {}
        #: versions drained into an in-flight publish batch — protected
        #: from lease expiry until the leader's publish_batch lands
        self._in_flight: set[tuple[int, int]] = set()
        #: one callback per queued appender waiting for publication (or
        #: a leader promotion), keyed by (blob_id, version)
        self._publish_waiters: Dict[
            tuple[int, int], List[Callable[[tuple], None]]
        ] = {}
        obs = obs or NULL_OBS
        self._c_tickets = obs.registry.counter("vm.tickets_assigned")
        self._c_append_tickets = obs.registry.counter("vm.append_tickets")
        self._c_commits = obs.registry.counter("vm.commits")
        self._c_aborts = obs.registry.counter("vm.aborts")
        self._c_turn_waits = obs.registry.counter("vm.turn_waits")
        self._g_turn_queue = obs.registry.gauge("vm.turn_queue_depth")
        self._h_ticket_bytes = obs.registry.histogram("vm.append_ticket_bytes")
        self._c_group_commits = obs.registry.counter("vm.group_commits")
        self._h_group_size = obs.registry.histogram("vm.group_commit_size")

    # -- blob lifecycle ------------------------------------------------------

    def create_blob(self, page_size: int) -> int:
        """Register a new BLOB; version 0 is the published empty version."""
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        blob_id = next(self._ids)
        state = BlobState(blob_id=blob_id, page_size=page_size)
        state.versions[0] = VersionRecord(
            version=0, size=0, kind="create", root=None, committed=True
        )
        self._blobs[blob_id] = state
        return blob_id

    def blob(self, blob_id: int) -> BlobState:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise BlobNotFoundError(f"no blob {blob_id}") from None

    def blob_ids(self) -> List[int]:
        """Ids of all registered blobs."""
        return list(self._blobs)

    @property
    def commit_queue_length(self) -> int:
        """How many versions are currently queued for their metadata
        turn / publication — the serialization depth the telemetry
        samplers record over time."""
        return sum(len(w) for w in self._turn_waiters.values())

    # -- assignment (the critical section) ------------------------------------

    def assign_append(self, blob_id: int, nbytes: int) -> Ticket:
        """Assign a version for an append of *nbytes* bytes.

        The offset is implicitly the size of the latest assigned version —
        BlobSeer's definition of append as "a special case of the write
        operation, in which the offset is implicitly assumed to be the
        size of the latest version".
        """
        if nbytes <= 0:
            raise ValueError("append of zero bytes")
        state = self.blob(blob_id)
        offset = state.assigned_size
        self._c_append_tickets.inc()
        self._h_ticket_bytes.observe(float(nbytes))
        return self._assign(state, offset, nbytes, kind="append")

    def assign_write(self, blob_id: int, offset: int, nbytes: int) -> Ticket:
        """Assign a version for a write at an explicit *offset*."""
        if nbytes <= 0:
            raise ValueError("write of zero bytes")
        if offset < 0:
            raise ValueError("negative offset")
        state = self.blob(blob_id)
        if offset % state.page_size != 0:
            raise ValueError(
                f"write offset {offset} not aligned to page size {state.page_size}"
            )
        if offset > state.assigned_size:
            raise ValueError(
                f"write at {offset} would leave a hole "
                f"(blob size is {state.assigned_size})"
            )
        return self._assign(state, offset, nbytes, kind="write")

    def _assign(self, state: BlobState, offset: int, nbytes: int, kind: str) -> Ticket:
        self._c_tickets.inc()
        version = state.next_version
        state.next_version += 1
        new_size = max(state.assigned_size, offset + nbytes)
        state.assigned_size = new_size
        state.versions[version] = VersionRecord(
            version=version, size=new_size, kind=kind, tree_size=new_size
        )
        return Ticket(
            blob_id=state.blob_id,
            version=version,
            offset=offset,
            nbytes=nbytes,
            new_size=new_size,
            page_size=state.page_size,
        )

    # -- metadata sequencing ---------------------------------------------------

    def metadata_prereq(
        self, blob_id: int, version: int
    ) -> Optional[tuple[Optional[NodeKey], int]]:
        """Previous version's ``(root, capacity_pages)`` once available.

        Returns ``None`` while version ``version - 1`` has not committed
        its metadata yet; the caller must wait for its turn (see
        :meth:`when_turn`).
        """
        state = self.blob(blob_id)
        if version not in state.versions:
            raise VersionNotFoundError(f"blob {blob_id} has no version {version}")
        prev = state.versions.get(version - 1)
        if prev is None or not prev.committed:
            return None
        # capacity must match the tree actually rooted at prev.root: an
        # aborted predecessor carries an older (possibly smaller) tree
        return prev.root, _pages_capacity(prev.tree_size, state.page_size)

    def when_turn(
        self, blob_id: int, version: int, callback: Callable[[], None]
    ) -> None:
        """Invoke *callback* once ``version - 1`` has committed.

        Fires immediately (synchronously) when already committed.
        """
        if self.metadata_prereq(blob_id, version) is not None:
            callback()
            return
        self._turn_waiters.setdefault((blob_id, version), []).append(callback)
        self._c_turn_waits.inc()
        self._g_turn_queue.set(float(len(self._turn_waiters)))

    def commit(self, blob_id: int, version: int, root: Optional[NodeKey]) -> None:
        """Record the version's metadata root and publish what's publishable."""
        state = self.blob(blob_id)
        record = state.versions.get(version)
        if record is None:
            raise VersionNotFoundError(f"blob {blob_id} has no version {version}")
        if record.aborted:
            raise AppendAbortedError(
                f"blob {blob_id} version {version} was aborted "
                f"(append-ticket lease expired before commit)"
            )
        if record.committed:
            raise ValueError(f"version {version} committed twice")
        record.root = root
        record.committed = True
        self._c_commits.inc()
        self._finish_version(state, blob_id, version)

    def abort(self, blob_id: int, version: int) -> bool:
        """Publish an uncommitted version as a hole so the frontier moves.

        The aborted version inherits the previous version's tree (its
        own pages are simply never linked in); if it was the last
        assigned version its bytes are reclaimed entirely, otherwise the
        assigned range stays as a permanent zero-length hole.

        Returns ``False`` when the version committed in the meantime
        (the appender was slow, not dead — a lost race, not an error).
        Like :meth:`commit`, aborting requires ``version - 1`` to be
        resolved; sequence cascading aborts through :meth:`when_turn`.
        """
        state = self.blob(blob_id)
        record = state.versions.get(version)
        if record is None:
            raise VersionNotFoundError(f"blob {blob_id} has no version {version}")
        if record.committed:
            return False
        prev = state.versions.get(version - 1)
        if prev is None or not prev.committed:
            raise VersionNotReadyError(
                f"cannot abort blob {blob_id} v{version} before "
                f"v{version - 1} resolves"
            )
        record.aborted = True
        record.committed = True
        record.root = prev.root
        record.tree_size = prev.tree_size
        if version == state.next_version - 1 and state.assigned_size == record.size:
            # nothing was assigned after the dead append: reclaim the hole
            state.assigned_size = prev.size
            record.size = prev.size
        self._c_aborts.inc()
        self._finish_version(state, blob_id, version)
        return True

    # -- group commit (batched metadata publication) ---------------------------

    def is_ready(self, blob_id: int, version: int) -> bool:
        """Whether the appender already handed its change map to the VM
        (queued for a batched publish or drained into one in flight).
        A ready version's fate is the publish leader's responsibility —
        the append-ticket lease no longer applies to it."""
        key = (blob_id, version)
        return key in self._pending or key in self._in_flight

    def submit_ready(
        self, blob_id: int, version: int, changes
    ) -> Optional[tuple]:
        """Group commit step 1: the appender's pages are shipped and its
        per-page fragments (*changes*) are ready for publication.

        Returns a *lead grant* ``(prev_root, prev_capacity, batch)``
        when this version heads the commit queue — the caller must build
        and publish the drained *batch* — or ``None`` when it is queued
        behind unresolved versions (wait via :meth:`when_published`).
        """
        state = self.blob(blob_id)
        record = state.versions.get(version)
        if record is None:
            raise VersionNotFoundError(f"blob {blob_id} has no version {version}")
        if record.aborted:
            raise AppendAbortedError(
                f"blob {blob_id} version {version} was aborted "
                f"(append-ticket lease expired before commit)"
            )
        if record.committed or self.is_ready(blob_id, version):
            raise ValueError(f"version {version} submitted twice")
        self._pending[(blob_id, version)] = changes
        if self.metadata_prereq(blob_id, version) is None:
            return None
        return self._lead_grant(state, blob_id, version)

    def try_lead(self, blob_id: int, version: int) -> Optional[tuple]:
        """A lead grant for a still-pending ready version whose
        predecessor has resolved; ``None`` otherwise. Polling
        counterpart of the :meth:`when_published` promotion (used by the
        threaded runtime's condition-variable loop)."""
        if (blob_id, version) not in self._pending:
            return None
        if self.metadata_prereq(blob_id, version) is None:
            return None
        return self._lead_grant(self.blob(blob_id), blob_id, version)

    def when_published(
        self, blob_id: int, version: int, callback: Callable[[tuple], None]
    ) -> None:
        """Invoke *callback* with the queued appender's outcome:
        ``("published",)`` once a leader publishes the version, or
        ``("lead", prev_root, prev_capacity, batch)`` when the version
        is promoted to publish leader instead. Fires synchronously when
        the outcome is already decided."""
        state = self.blob(blob_id)
        record = state.versions.get(version)
        if record is None:
            raise VersionNotFoundError(f"blob {blob_id} has no version {version}")
        if record.committed:
            callback(("published",))
            return
        grant = self.try_lead(blob_id, version)
        if grant is not None:
            callback(("lead", *grant))
            return
        self._publish_waiters.setdefault((blob_id, version), []).append(callback)

    def _lead_grant(
        self, state: BlobState, blob_id: int, version: int
    ) -> tuple:
        """Drain the maximal run of consecutive ready versions starting
        at *version* into an in-flight publish batch."""
        prereq = self.metadata_prereq(blob_id, version)
        assert prereq is not None, "lead granted before predecessor resolved"
        prev_root, prev_capacity = prereq
        batch: List[tuple] = []
        v = version
        while True:
            changes = self._pending.pop((blob_id, v), None)
            if changes is None:
                break
            self._in_flight.add((blob_id, v))
            batch.append((v, changes, state.versions[v].size))
            v += 1
        return prev_root, prev_capacity, batch

    def publish_batch(
        self,
        blob_id: int,
        versions: List[int],
        root: Optional[NodeKey],
        tree_size: int,
    ) -> None:
        """Group commit step 2: the leader built ONE tree for the whole
        batch; every member version now shares *root* (readers clip at
        each member's own ``size``, see
        :func:`~repro.blobseer.metadata.segment_tree.build_versions_batch`).
        """
        if not versions:
            raise ValueError("empty publish batch")
        state = self.blob(blob_id)
        for v in versions:
            key = (blob_id, v)
            if key not in self._in_flight:
                raise ValueError(
                    f"blob {blob_id} v{v} was not drained into a publish batch"
                )
            record = state.versions[v]
            record.root = root
            record.tree_size = tree_size
            record.committed = True
            self._in_flight.discard(key)
            self._c_commits.inc()
        self._c_group_commits.inc()
        self._h_group_size.observe(float(len(versions)))
        self._finish_version(state, blob_id, versions[-1])
        for v in versions:
            for cb in self._publish_waiters.pop((blob_id, v), []):
                cb(("published",))

    def _promote_leader(self, state: BlobState, blob_id: int) -> None:
        """Hand the publish lead to the next ready run's first waiter
        (if it is both ready and already waiting — the threaded runtime
        polls :meth:`try_lead` instead of registering callbacks)."""
        candidate = state.published + 1
        key = (blob_id, candidate)
        if key not in self._pending or key not in self._publish_waiters:
            return
        waiters = self._publish_waiters.pop(key)
        grant = self._lead_grant(state, blob_id, candidate)
        waiters[0](("lead", *grant))
        # one client owns each version; extra waiters would be a bug
        assert len(waiters) == 1, f"multiple publish waiters for v{candidate}"

    def _finish_version(self, state: BlobState, blob_id: int, version: int) -> None:
        """Advance the publish frontier and wake the next metadata turn."""
        # advance the published frontier over consecutive committed versions
        while (nxt := state.versions.get(state.published + 1)) and nxt.committed:
            state.published += 1
        # wake the next writer's metadata turn
        waiters = self._turn_waiters.pop((blob_id, version + 1), [])
        self._g_turn_queue.set(float(len(self._turn_waiters)))
        for cb in waiters:
            cb()
        # and promote the next publish leader, if one is ready and waiting
        self._promote_leader(state, blob_id)

    # -- read side ---------------------------------------------------------------

    def latest_published(self, blob_id: int) -> VersionRecord:
        """The newest version readers may see."""
        state = self.blob(blob_id)
        return state.versions[state.published]

    def get_version(self, blob_id: int, version: int) -> VersionRecord:
        """A specific *published* version (old snapshots stay readable)."""
        state = self.blob(blob_id)
        record = state.versions.get(version)
        if record is None:
            raise VersionNotFoundError(f"blob {blob_id} has no version {version}")
        if version > state.published:
            raise VersionNotReadyError(
                f"blob {blob_id} version {version} not yet published "
                f"(frontier is {state.published})"
            )
        return record

    def capacity_pages_of(self, blob_id: int, size: int) -> int:
        """Tree capacity for this blob at a given byte size."""
        return _pages_capacity(size, self.blob(blob_id).page_size)


class ThreadedVersionManager:
    """Mutex-wrapped VM for the threaded (real-bytes) runtime.

    Every assignment registers a lease; its clock starts once the
    version heads the commit queue and, if it runs out before the commit
    arrives, the version is aborted — so chains of dead appenders unwind
    in order, one lease period each, without ever aborting a live
    appender that was merely queued behind them.

    All leases share one clock: a deadline heap served by a single
    lazily started daemon thread that sleeps on a condition bound to
    the VM lock until the earliest deadline. Commits just drop their
    deadline (stale heap entries are skipped when they surface, and the
    heap is compacted once they outnumber the live ones), so an append
    costs a heap push, not an OS thread. The clock thread exits after a
    whole lease period without leases and is restarted by the next one.

    The blocking waits (:meth:`metadata_turn`, :meth:`publish_wait`)
    each share their condition check with a non-blocking ``try_*``
    probe, which lets an event-loop caller skip the blocking call when
    the answer is already known.
    """

    def __init__(
        self,
        obs: Optional[Observability] = None,
        config: Optional[BlobSeerConfig] = None,
    ) -> None:
        self.obs = obs or NULL_OBS
        self.core = VersionManagerCore(self.obs)
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        self._lease_s = config.append_lease_s if config else 30.0
        self._turn_timeout_s = config.metadata_turn_timeout_s if config else 60.0
        #: live lease deadlines (monotonic seconds), keyed by version
        self._lease_deadlines: Dict[tuple[int, int], float] = {}
        #: (deadline, blob_id, version) min-heap; entries whose key no
        #: longer maps to that deadline in _lease_deadlines are stale
        self._lease_heap: List[tuple[float, int, int]] = []
        self._clock_cv = threading.Condition(self._lock)
        self._clock: Optional[threading.Thread] = None
        self._closed = False
        self._c_lease_expiries = self.obs.registry.counter("vm.lease_expiries")

    # -- lifecycle -------------------------------------------------------------

    @property
    def live_lease_timers(self) -> int:
        """How many leases are currently armed. A long-running server
        must see this return to zero after its in-flight appends
        resolve — commits/aborts drop their deadline — and the shutdown
        path asserts it after :meth:`close`."""
        with self._lock:
            return len(self._lease_deadlines)

    def close(self) -> None:
        """Drop every outstanding lease, stop the lease clock and refuse
        to arm new leases (idempotent). A server process calls this on
        graceful stop, so no lease can fire mid-teardown and race
        component teardown."""
        with self._lock:
            self._closed = True
            self._lease_deadlines.clear()
            self._lease_heap.clear()
            self._clock_cv.notify()

    def create_blob(self, page_size: int) -> int:
        with self._lock:
            return self.core.create_blob(page_size)

    def assign_append(self, blob_id: int, nbytes: int) -> Ticket:
        with self._lock:
            ticket = self.core.assign_append(blob_id, nbytes)
            self._arm_lease_locked(ticket)
            return ticket

    def assign_write(self, blob_id: int, offset: int, nbytes: int) -> Ticket:
        with self._lock:
            ticket = self.core.assign_write(blob_id, offset, nbytes)
            self._arm_lease_locked(ticket)
            return ticket

    # -- lease machinery -------------------------------------------------------

    def _arm_lease_locked(self, ticket: Ticket) -> None:
        """Register the version's lease at assignment time.

        The lease *clock* only starts once the version reaches the head
        of the commit queue (its predecessor resolved) — time spent
        queued behind slow or dead predecessors is not the appender's
        fault and must not count against it, or one expiry would cascade
        through every version stalled behind it.
        """
        if self._lease_s <= 0 or self._closed:
            return
        self.core.when_turn(
            ticket.blob_id,
            ticket.version,
            lambda: self._start_lease_timer_locked(
                ticket.blob_id, ticket.version
            ),
        )

    def _start_lease_timer_locked(self, blob_id: int, version: int) -> None:
        # fires under the lock: either synchronously inside assign (the
        # queue head was already free) or inside the predecessor's
        # commit/abort via the when_turn queue
        record = self.core.blob(blob_id).versions.get(version)
        if record is None or record.committed:
            return
        if self.core.is_ready(blob_id, version):
            # change map already delivered; publication is the group
            # leader's job, not the (possibly dead) client's
            return
        if self._closed:
            return
        deadline = time.monotonic() + self._lease_s
        entry = (deadline, blob_id, version)
        self._lease_deadlines[(blob_id, version)] = deadline
        heapq.heappush(self._lease_heap, entry)
        self._compact_leases_locked()
        if self._clock is None:
            self._clock = threading.Thread(
                target=self._run_lease_clock, name="vm-lease-clock", daemon=True
            )
            self._clock.start()
        elif len(self._lease_heap) == 1:
            # deadlines only grow (one lease length on a monotonic
            # clock), so only an idle clock needs waking
            self._clock_cv.notify()

    def _drop_lease_locked(self, blob_id: int, version: int) -> None:
        """Disarm a lease; its heap entry goes stale and is skipped."""
        if self._lease_deadlines.pop((blob_id, version), None) is not None:
            self._compact_leases_locked()

    def _compact_leases_locked(self) -> None:
        """Purge stale entries once they outnumber the live leases, so
        the heap stays within 2·live + 64 entries (amortized O(1))."""
        heap, live = self._lease_heap, self._lease_deadlines
        if len(heap) > 2 * len(live) + 64:
            heap[:] = [e for e in heap if live.get((e[1], e[2])) == e[0]]
            heapq.heapify(heap)

    def _run_lease_clock(self) -> None:
        """The lease clock thread: fire deadlines in order; exit once no
        lease has been armed for a whole lease period (or on close)."""
        heap, live = self._lease_heap, self._lease_deadlines
        with self._lock:
            try:
                while not self._closed:
                    if not heap:
                        self._clock_cv.wait(self._lease_s)
                        if not heap:
                            break
                        continue
                    deadline, blob_id, version = heap[0]
                    key = (blob_id, version)
                    if live.get(key) != deadline:
                        heapq.heappop(heap)  # committed or aborted meanwhile
                        continue
                    delay = deadline - time.monotonic()
                    if delay > 0:
                        self._clock_cv.wait(delay)
                        continue
                    heapq.heappop(heap)
                    self._drop_lease_locked(blob_id, version)
                    self._lease_expired_locked(blob_id, version)
            finally:
                self._clock = None

    def _lease_expired_locked(self, blob_id: int, version: int) -> None:
        record = self.core.blob(blob_id).versions.get(version)
        if record is None or record.committed:
            return
        self._c_lease_expiries.inc()
        lease_expired(self.obs.tracer, blob_id, version)
        self._abort_when_possible_locked(blob_id, version)
        self._turn.notify_all()

    def _abort_when_possible_locked(self, blob_id: int, version: int) -> None:
        """Abort now, or as soon as the predecessor resolves.

        The deferred callback runs synchronously inside the resolving
        ``commit``/``abort`` while the lock is already held, so it must
        call straight into the core.
        """
        if self.core.metadata_prereq(blob_id, version) is None:
            self.core.when_turn(
                blob_id, version, lambda: self._abort_in_lock(blob_id, version)
            )
        else:
            self._abort_in_lock(blob_id, version)

    def _abort_in_lock(self, blob_id: int, version: int) -> None:
        record = self.core.blob(blob_id).versions.get(version)
        if record is None or record.committed:
            return
        if self.core.is_ready(blob_id, version):
            return
        self.core.abort(blob_id, version)

    def wait_metadata_turn(
        self, blob_id: int, version: int, timeout: Optional[float] = None
    ) -> tuple[Optional[NodeKey], int]:
        """Block until it is *version*'s turn to write metadata.

        On timeout the caller's own version is routed through the abort
        path (immediately or once its turn arrives) so later versions
        are never wedged behind it, then ``VersionNotReadyError`` is
        raised.
        """
        if timeout is None:
            timeout = self._turn_timeout_s
        with self._turn:
            prereq = self._try_metadata_turn_locked(blob_id, version)
            while prereq is None:
                if not self._turn.wait(timeout=timeout):
                    self._abort_when_possible_locked(blob_id, version)
                    self._turn.notify_all()
                    raise VersionNotReadyError(
                        f"timed out waiting for metadata turn of "
                        f"blob {blob_id} v{version}"
                    )
                prereq = self._try_metadata_turn_locked(blob_id, version)
        return prereq

    def _try_metadata_turn_locked(
        self, blob_id: int, version: int
    ) -> Optional[tuple[Optional[NodeKey], int]]:
        """The metadata-turn condition: the predecessor's ``(root,
        capacity_pages)`` once it resolved, else ``None``."""
        return self.core.metadata_prereq(blob_id, version)

    def try_metadata_turn(
        self, blob_id: int, version: int
    ) -> Optional[tuple[Optional[NodeKey], int]]:
        """Non-blocking :meth:`metadata_turn`: its result when the turn
        is already granted, ``None`` when the call would block."""
        with self._lock:
            return self._try_metadata_turn_locked(blob_id, version)

    def commit(self, blob_id: int, version: int, root: Optional[NodeKey]) -> None:
        with self._turn:
            self._drop_lease_locked(blob_id, version)
            self.core.commit(blob_id, version, root)
            self._turn.notify_all()

    # -- group commit (batched metadata publication) --------------------------

    def commit_ready(self, blob_id: int, version: int, changes):
        """Group commit step 1: deliver the appender's change map; the
        lease is released (publication is now the leader's job). Returns
        ``("lead", prev_root, prev_capacity, batch)`` or ``("queued",)``."""
        with self._turn:
            self._drop_lease_locked(blob_id, version)
            grant = self.core.submit_ready(blob_id, version, changes)
            if grant is None:
                return ("queued",)
            return ("lead", *grant)

    def publish_wait(self, blob_id: int, version: int):
        """Block until a leader publishes this version — or until this
        version is itself promoted to leader (predecessor resolved with
        the batch still unpublished)."""
        with self._turn:
            while (outcome := self._try_publish_locked(blob_id, version)) is None:
                if not self._turn.wait(timeout=self._turn_timeout_s):
                    raise VersionNotReadyError(
                        f"timed out waiting for publication of "
                        f"blob {blob_id} v{version}"
                    )
            return outcome

    def _try_publish_locked(self, blob_id: int, version: int):
        """The publish-wait condition: ``("published",)``, a lead grant
        ``("lead", prev_root, prev_capacity, batch)``, or ``None`` while
        the version is still queued behind an unresolved predecessor."""
        record = self.core.blob(blob_id).versions.get(version)
        if record is not None and record.committed:
            return ("published",)
        grant = self.core.try_lead(blob_id, version)
        if grant is not None:
            return ("lead", *grant)
        return None

    def try_publish_wait(self, blob_id: int, version: int):
        """Non-blocking :meth:`publish_wait`: its outcome when already
        decided, ``None`` when the call would block."""
        with self._lock:
            return self._try_publish_locked(blob_id, version)

    def publish_batch(self, blob_id: int, versions, root, tree_size: int) -> None:
        """Group commit step 2: land the leader's batch and wake waiters."""
        with self._turn:
            self.core.publish_batch(blob_id, list(versions), root, tree_size)
            self._turn.notify_all()

    # -- control-endpoint surface (bound as "vm" by the threaded runtime) ----

    def resolve(
        self, blob_id: int, version: Optional[int] = None
    ) -> tuple[VersionRecord, int]:
        """``(record, page_size)`` of a published version (default latest)."""
        with self._lock:
            rec = (
                self.core.latest_published(blob_id)
                if version is None
                else self.core.get_version(blob_id, version)
            )
            return rec, self.core.blob(blob_id).page_size

    def metadata_turn(self, blob_id: int, version: int):
        """Engine-endpoint alias: blocks the calling thread until this
        version heads the commit queue (or the lease machinery aborts a
        stuck predecessor)."""
        return self.wait_metadata_turn(blob_id, version)

    def latest_published(self, blob_id: int) -> VersionRecord:
        with self._lock:
            return self.core.latest_published(blob_id)

    def get_version(self, blob_id: int, version: int) -> VersionRecord:
        with self._lock:
            return self.core.get_version(blob_id, version)

    def blob(self, blob_id: int) -> BlobState:
        with self._lock:
            return self.core.blob(blob_id)

    def blob_ids(self) -> List[int]:
        with self._lock:
            return self.core.blob_ids()
