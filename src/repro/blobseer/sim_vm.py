"""The version manager as a DES service: endpoint adapter plus leases.

:class:`SimVMService` is what the simulated deployment binds to the
engine's ``vm`` control endpoint. Charged methods run inside the VM's
one-slot critical section; ``metadata_turn`` is the uncharged condition
the engine waits on. The append-ticket lease machinery lives here too,
on the simulation clock — the runtime half of the lease protocol whose
threaded counterpart is inside
:class:`~repro.blobseer.version_manager.ThreadedVersionManager`.
"""

from __future__ import annotations

from typing import Optional

from ..obs.events import lease_expired
from ..obs.tracer import Span
from ..sim.core import Event
from .version_manager import Ticket, VersionManagerCore


class SimVMService:
    """DES-side version-manager service endpoint."""

    def __init__(self, core: VersionManagerCore, engine, config, obs) -> None:
        self.core = core
        self.engine = engine
        self.env = engine.env
        self.config = config
        self.obs = obs
        self._c_lease_expiries = obs.registry.counter("vm.lease_expiries")

    # -- endpoint methods (charged unless noted) -----------------------------

    def assign_append(self, blob_id: int, nbytes: int) -> Ticket:
        ticket = self.core.assign_append(blob_id, nbytes)
        self.arm_lease(ticket)
        return ticket

    def assign_write(self, blob_id: int, offset: int, nbytes: int) -> Ticket:
        ticket = self.core.assign_write(blob_id, offset, nbytes)
        self.arm_lease(ticket)
        return ticket

    def commit(self, blob_id: int, version: int, root) -> None:
        self.core.commit(blob_id, version, root)

    def commit_ready(self, blob_id: int, version: int, changes):
        """Group commit step 1 (charged at the cheap enqueue rate): hand
        the appender's change map to the VM. Replies ``("lead", ...)``
        with a drained batch when this version heads the commit queue,
        else ``("queued",)``."""
        grant = self.core.submit_ready(blob_id, version, changes)
        if grant is None:
            return ("queued",)
        return ("lead", *grant)

    def publish_wait(self, blob_id: int, version: int) -> Event:
        """Uncharged wait: resolves with ``("published",)`` once a leader
        publishes this version, or with a ``("lead", ...)`` promotion."""
        ev = Event(self.env)
        self.core.when_published(blob_id, version, ev.succeed)
        return ev

    def publish_batch(self, blob_id: int, versions, root, tree_size: int) -> None:
        """Group commit step 2 (charged): land the whole batch."""
        self.core.publish_batch(blob_id, list(versions), root, tree_size)

    def resolve(self, blob_id: int, version: Optional[int] = None):
        core = self.core
        rec = (
            core.latest_published(blob_id)
            if version is None
            else core.get_version(blob_id, version)
        )
        return rec, core.blob(blob_id).page_size

    def metadata_turn(self, blob_id: int, version: int) -> Event:
        """Uncharged wait: resolves when *version* heads the commit queue."""
        core = self.core
        ev = Event(self.env)
        core.when_turn(
            blob_id,
            version,
            lambda: ev.succeed(core.metadata_prereq(blob_id, version)),
        )
        return ev

    # -- append-ticket leases ------------------------------------------------

    def arm_lease(self, ticket: Ticket) -> None:
        """Register the ticket's lease; the clock starts when the version
        heads the commit queue (time queued behind slow or dead
        predecessors must not count, or one expiry would cascade through
        every version stalled behind it). DES events can't be
        unscheduled — the expiry callback no-ops when the commit won."""
        if self.config.append_lease_s <= 0:
            return
        self.core.when_turn(
            ticket.blob_id,
            ticket.version,
            lambda: self._start_lease(ticket.blob_id, ticket.version),
        )

    def _start_lease(self, blob_id: int, version: int) -> None:
        record = self.core.blob(blob_id).versions.get(version)
        if record is None or record.committed:
            return
        if self.core.is_ready(blob_id, version):
            # the appender already delivered its change map; publication
            # is the leader's job now, so the dead-client lease no
            # longer applies
            return
        self.env.call_at(
            self.env.now + self.config.append_lease_s,
            lambda: self._lease_expired(blob_id, version),
        )

    def _lease_expired(self, blob_id: int, version: int) -> None:
        record = self.core.blob(blob_id).versions.get(version)
        if record is None or record.committed:
            return
        if self.core.is_ready(blob_id, version):
            return
        self._c_lease_expiries.inc()
        lease_expired(self.obs.tracer, blob_id, version)
        # the lease only ran while this version headed the queue, so its
        # predecessor has resolved and the abort can go through directly
        self.core.abort(blob_id, version)

    # -- legacy raw RPC ------------------------------------------------------

    def call(
        self,
        client: str,
        fn,
        op: str = "call",
        parent: Optional[Span] = None,
        args: tuple = (),
    ) -> Event:
        """Direct round trip through the VM's service slot.

        Kept for drivers that shape raw VM traffic (e.g. minting a
        ticket they intend to abandon); the protocol core issues its
        own VM calls through the engine. Ticket-assigning ops still arm
        the append lease. The call is ``fn(*args)``, run at the end of
        the slot's service.
        """
        sp = self.obs.tracer.start(
            f"vm.{op}", cat="blobseer.vm", parent=parent, track=client
        )
        cluster_cfg = self.engine.cluster.config
        done = self.engine.control_slot("vm").round_trip(
            cluster_cfg.latency, cluster_cfg.version_assign_time, fn, args
        )

        def after(ev: Event) -> None:
            if ev._ok:
                sp.finish()
                if op in ("assign_append", "assign_write"):
                    self.arm_lease(ev._value)

        done.callbacks.append(after)
        return done
