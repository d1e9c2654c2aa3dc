"""Unit tests for the version manager (core state machine + threaded wrapper)."""

import sys
import threading
import time

import pytest

from repro.blobseer.metadata.segment_tree import NodeKey
from repro.blobseer.version_manager import (
    ThreadedVersionManager,
    VersionManagerCore,
)
from repro.common.config import BlobSeerConfig
from repro.common.errors import (
    AppendAbortedError,
    BlobNotFoundError,
    VersionNotFoundError,
    VersionNotReadyError,
)


def root_key(v):
    return NodeKey(1, v, 0, 1)


class TestCore:
    def test_create_blob_publishes_empty_v0(self):
        core = VersionManagerCore()
        blob = core.create_blob(page_size=64)
        rec = core.latest_published(blob)
        assert (rec.version, rec.size) == (0, 0)

    def test_unknown_blob(self):
        core = VersionManagerCore()
        with pytest.raises(BlobNotFoundError):
            core.blob(99)

    def test_append_offsets_chain(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        t1 = core.assign_append(blob, 100)
        t2 = core.assign_append(blob, 50)
        assert (t1.version, t1.offset, t1.new_size) == (1, 0, 100)
        assert (t2.version, t2.offset, t2.new_size) == (2, 100, 150)

    def test_write_requires_alignment_and_no_hole(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 64)
        with pytest.raises(ValueError):
            core.assign_write(blob, 10, 5)  # unaligned
        with pytest.raises(ValueError):
            core.assign_write(blob, 128, 5)  # hole
        t = core.assign_write(blob, 0, 30)
        assert t.new_size == 64  # overwrite does not shrink

    def test_zero_sized_updates_rejected(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        with pytest.raises(ValueError):
            core.assign_append(blob, 0)
        with pytest.raises(ValueError):
            core.assign_write(blob, 0, 0)

    def test_in_order_publication(self):
        """Version 2 committing before version 1 stays invisible until 1
        commits."""
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        core.commit(blob, 2, root_key(2))
        assert core.latest_published(blob).version == 0
        core.commit(blob, 1, root_key(1))
        assert core.latest_published(blob).version == 2

    def test_metadata_prereq_gating(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        assert core.metadata_prereq(blob, 1) == (None, 0)
        assert core.metadata_prereq(blob, 2) is None
        core.commit(blob, 1, root_key(1))
        prev_root, prev_cap = core.metadata_prereq(blob, 2)
        assert prev_root == root_key(1) and prev_cap == 1

    def test_when_turn_callback_order(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        fired = []
        core.when_turn(blob, 2, lambda: fired.append(2))
        core.when_turn(blob, 1, lambda: fired.append(1))  # immediate
        assert fired == [1]
        core.commit(blob, 1, root_key(1))
        assert fired == [1, 2]

    def test_double_commit_rejected(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.commit(blob, 1, root_key(1))
        with pytest.raises(ValueError):
            core.commit(blob, 1, root_key(1))

    def test_get_version_gates_unpublished(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        with pytest.raises(VersionNotReadyError):
            core.get_version(blob, 1)
        with pytest.raises(VersionNotFoundError):
            core.get_version(blob, 7)
        core.commit(blob, 1, root_key(1))
        assert core.get_version(blob, 1).size == 10

    def test_old_versions_stay_readable(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        for v in range(1, 5):
            core.assign_append(blob, 10)
            core.commit(blob, v, root_key(v))
        assert core.get_version(blob, 2).size == 20
        assert core.latest_published(blob).size == 40


class TestThreadedWrapper:
    def test_concurrent_assignments_are_disjoint(self):
        vm = ThreadedVersionManager()
        blob = vm.create_blob(64)
        tickets = []
        lock = threading.Lock()

        def worker():
            t = vm.assign_append(blob, 10)
            with lock:
                tickets.append(t)

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        versions = sorted(t.version for t in tickets)
        offsets = sorted(t.offset for t in tickets)
        assert versions == list(range(1, 33))
        assert offsets == [10 * i for i in range(32)]

    def test_wait_metadata_turn_blocks_until_commit(self):
        vm = ThreadedVersionManager()
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        result = {}

        def second_writer():
            result["prereq"] = vm.wait_metadata_turn(blob, 2, timeout=5)

        t = threading.Thread(target=second_writer)
        t.start()
        vm.commit(blob, 1, root_key(1))
        t.join(timeout=5)
        assert result["prereq"][0] == root_key(1)

    def test_wait_turn_times_out(self):
        vm = ThreadedVersionManager()
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        with pytest.raises(VersionNotReadyError):
            vm.wait_metadata_turn(blob, 2, timeout=0.05)


class TestCoreAbort:
    def _two_assigned(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.assign_append(blob, 10)
        return core, blob

    def test_abort_publishes_hole_and_advances_frontier(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)  # v1 commits
        core.assign_append(blob, 10)  # v2 dies
        core.assign_append(blob, 10)  # v3 commits
        core.commit(blob, 1, root_key(1))
        assert core.abort(blob, 2) is True
        rec = core.get_version(blob, 2)
        assert rec.aborted and rec.root == root_key(1)
        # v3 builds on the aborted version's *inherited* tree
        assert core.metadata_prereq(blob, 3) == (root_key(1), 1)
        core.commit(blob, 3, root_key(3))
        assert core.latest_published(blob).version == 3

    def test_abort_of_last_assigned_reclaims_the_hole(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.commit(blob, 1, root_key(1))
        core.assign_append(blob, 30)
        core.abort(blob, 2)
        assert core.get_version(blob, 2).size == 10
        # the next append lands where v1 ended, not after the hole
        assert core.assign_append(blob, 5).offset == 10

    def test_abort_mid_chain_leaves_a_permanent_hole(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        core.assign_append(blob, 10)
        core.commit(blob, 1, root_key(1))
        core.assign_append(blob, 30)  # v2 dies
        core.assign_append(blob, 10)  # v3 already assigned after it
        core.abort(blob, 2)
        assert core.get_version(blob, 2).size == 40  # no reclaim
        assert core.assign_append(blob, 5).offset == 50

    def test_commit_after_abort_raises(self):
        core, blob = self._two_assigned()
        core.commit(blob, 1, root_key(1))
        core.abort(blob, 2)
        with pytest.raises(AppendAbortedError):
            core.commit(blob, 2, root_key(2))

    def test_abort_of_committed_version_is_a_lost_race(self):
        core, blob = self._two_assigned()
        core.commit(blob, 1, root_key(1))
        assert core.abort(blob, 1) is False
        assert not core.get_version(blob, 1).aborted

    def test_abort_requires_resolved_predecessor(self):
        core, blob = self._two_assigned()
        with pytest.raises(VersionNotReadyError):
            core.abort(blob, 2)

    def test_cascading_aborts_unwind_in_order(self):
        core = VersionManagerCore()
        blob = core.create_blob(64)
        for _ in range(3):
            core.assign_append(blob, 10)
        # v2's abort must wait for v1 (the when_turn queue), as the
        # runtime adapters do for chains of dead appenders
        core.when_turn(blob, 2, lambda: core.abort(blob, 2))
        core.abort(blob, 1)
        assert core.latest_published(blob).version == 2
        assert core.metadata_prereq(blob, 3) == (None, 0)


class TestAppendLeases:
    def _wait_published(self, vm, blob, version, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if vm.latest_published(blob).version >= version:
                return
            time.sleep(0.005)
        raise AssertionError(f"version {version} never published")

    def test_lease_expiry_aborts_a_dead_appender(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=0.05)
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)  # never committed
        self._wait_published(vm, blob, 1)
        assert vm.latest_published(blob).aborted

    def test_commit_wins_over_the_lease(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=0.1)
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.commit(blob, 1, root_key(1))
        time.sleep(0.25)
        rec = vm.latest_published(blob)
        assert rec.version == 1 and not rec.aborted

    def test_lease_clock_starts_at_the_queue_head(self):
        # v2 is alive but spends longer than one whole lease queued
        # behind a dead v1; it must NOT expire — the clock only runs
        # while a version heads the commit queue, or one dead appender
        # would cascade aborts through everyone stalled behind it
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=0.3)
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)  # v1 dies; its lease aborts it at ~0.3
        vm.assign_append(blob, 10)  # v2 is queued for all of that
        time.sleep(0.45)  # > lease counted from v2's *assignment*
        vm.commit(blob, 2, root_key(2))  # well inside v2's head lease
        rec = vm.latest_published(blob)
        assert rec.version == 2 and not rec.aborted
        assert vm.get_version(blob, 1).aborted

    def test_chain_of_dead_appenders_unwinds(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=0.05)
        )
        blob = vm.create_blob(64)
        for _ in range(3):
            vm.assign_append(blob, 10)  # all three die
        self._wait_published(vm, blob, 3, timeout=10)
        assert all(
            vm.get_version(blob, v).aborted for v in (1, 2, 3)
        )

    def test_wait_turn_timeout_routes_through_abort(self):
        # satellite (c): the timed-out waiter aborts its own version so
        # later versions are never wedged behind it
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=0)  # isolate the timeout path
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)  # v1: slow
        vm.assign_append(blob, 10)  # v2: times out waiting for v1
        vm.assign_append(blob, 10)  # v3: must not be wedged behind v2
        with pytest.raises(VersionNotReadyError):
            vm.wait_metadata_turn(blob, 2, timeout=0.05)
        vm.commit(blob, 1, root_key(1))
        # v2 aborted itself when v1 resolved; v3's turn is immediately up
        assert vm.get_version(blob, 2).aborted
        assert vm.wait_metadata_turn(blob, 3, timeout=1)[0] == root_key(1)

    def test_turn_timeout_default_comes_from_config(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(
                append_lease_s=0, metadata_turn_timeout_s=0.05
            )
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        with pytest.raises(VersionNotReadyError):
            vm.wait_metadata_turn(blob, 2)  # no explicit timeout


class TestClose:
    """Lifecycle: ``close()`` must drain every armed lease timer — a
    long-running process (the HTTP server) leaks timer threads and hangs
    interpreter shutdown otherwise."""

    def test_close_cancels_outstanding_lease_timers(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        for _ in range(5):
            vm.assign_append(blob, 10)  # head timer armed, rest queued
        assert vm.live_lease_timers >= 1
        vm.close()
        assert vm.live_lease_timers == 0

    def test_close_is_idempotent(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.close()
        vm.close()
        assert vm.live_lease_timers == 0

    def test_no_timer_armed_after_close(self):
        # assignments racing with shutdown must not re-arm timers
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        vm.close()
        vm.assign_append(blob, 10)
        assert vm.live_lease_timers == 0

    def test_close_under_concurrent_assignments(self):
        vm = ThreadedVersionManager(
            config=BlobSeerConfig(append_lease_s=30.0)
        )
        blob = vm.create_blob(64)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                vm.assign_append(blob, 1)

        workers = [threading.Thread(target=churn) for _ in range(4)]
        for w in workers:
            w.start()
        time.sleep(0.05)
        vm.close()
        stop.set()
        for w in workers:
            w.join()
        assert vm.live_lease_timers == 0


class TestLeaseClock:
    """All leases share one clock thread over a deadline heap: appends
    must not start OS threads, stale deadlines must not pile up, and
    the clock must still abort dead appenders and exit on close."""

    def test_many_cycles_start_at_most_one_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=30.0))
        blob = vm.create_blob(64)
        for _ in range(1000):
            ticket = vm.assign_append(blob, 10)
            vm.commit(blob, ticket.version, root_key(ticket.version))
        try:
            assert len(started) <= 1, started
            assert vm.live_lease_timers == 0
        finally:
            vm.close()

    def test_heap_stays_bounded_by_live_leases(self):
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=30.0))
        blob = vm.create_blob(64)

        def check():
            live = vm.live_lease_timers
            assert len(vm._lease_heap) <= 2 * live + 64, (
                len(vm._lease_heap), live
            )

        try:
            for _ in range(1000):
                ticket = vm.assign_append(blob, 10)
                check()
                vm.commit(blob, ticket.version, root_key(ticket.version))
                check()
            # a queue of waiting versions: only the head holds a lease,
            # and committing it arms the next one
            tickets = [vm.assign_append(blob, 10) for _ in range(300)]
            check()
            for t in tickets:
                vm.commit(blob, t.version, root_key(t.version))
                check()
        finally:
            vm.close()

    def test_short_lease_aborts_dead_appender_and_unblocks_successor(self):
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0.05))
        blob = vm.create_blob(64)
        try:
            vm.assign_append(blob, 10)  # v1 never commits
            v2 = vm.assign_append(blob, 10)
            t0 = time.monotonic()
            prev_root, _cap = vm.wait_metadata_turn(blob, v2.version, timeout=5)
            assert time.monotonic() - t0 < 5
            assert prev_root is None  # v1's hole inherits the empty tree
            assert vm.get_version(blob, 1).aborted
            vm.commit(blob, v2.version, root_key(2))
            assert vm.latest_published(blob).version == 2
            assert vm.live_lease_timers == 0
        finally:
            vm.close()

    def test_close_stops_the_clock_thread(self):
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=30.0))
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        clock = vm._clock
        assert clock is not None and clock.is_alive()
        vm.close()
        clock.join(timeout=5)
        assert not clock.is_alive()
        assert vm.live_lease_timers == 0

    def test_clock_exits_once_no_lease_is_left(self):
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0.05))
        blob = vm.create_blob(64)
        ticket = vm.assign_append(blob, 10)
        clock = vm._clock
        vm.commit(blob, ticket.version, root_key(1))
        # the stale deadline surfaces after one lease period; with no
        # live lease left the clock thread ends instead of idling
        clock.join(timeout=5)
        assert not clock.is_alive()
        # and the next lease restarts it
        ticket = vm.assign_append(blob, 10)
        assert vm._clock is not None and vm._clock is not clock
        vm.close()


    def test_concurrent_appenders_and_dead_ones_all_resolve(self):
        # stress: more threads than cores race assign/commit against the
        # clock thread's expiries; every version must end committed or
        # aborted, exactly once, with no lease left behind
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0.05))
        blob = vm.create_blob(64)
        n_threads, rounds = 8, 40
        errors = []

        def appender(i):
            try:
                for k in range(rounds):
                    t = vm.assign_append(blob, 10)
                    vm.wait_metadata_turn(blob, t.version, timeout=10)
                    if (i * rounds + k) % 17 == 0:
                        continue  # dies holding the ticket
                    try:
                        vm.commit(blob, t.version, root_key(t.version))
                    except AppendAbortedError:
                        pass  # too slow at the queue head: a lost race
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=appender, args=(i,))
                for i in range(n_threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(old_interval)
        assert not errors, errors
        last = n_threads * rounds
        deadline = time.monotonic() + 10
        while vm.latest_published(blob).version < last:
            assert time.monotonic() < deadline, "dead appenders never expired"
            time.sleep(0.005)
        try:
            state = vm.blob(blob)
            assert state.next_version == last + 1
            assert all(state.versions[v].committed for v in range(1, last + 1))
            assert sum(state.versions[v].aborted for v in range(1, last + 1)) >= (
                last // 17
            )
            assert vm.live_lease_timers == 0
            assert len(vm._lease_heap) <= 64
        finally:
            vm.close()


class TestTryProbes:
    """The non-blocking probes answer exactly what the blocking waits
    would return, and ``None`` where those would block."""

    def test_try_metadata_turn(self):
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0))
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        assert vm.try_metadata_turn(blob, 1) == (None, 0)
        assert vm.try_metadata_turn(blob, 2) is None
        vm.commit(blob, 1, root_key(1))
        assert vm.try_metadata_turn(blob, 2) == vm.metadata_turn(blob, 2)

    def test_try_publish_wait(self):
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0))
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)
        vm.assign_append(blob, 10)
        assert vm.commit_ready(blob, 2, {0: ()}) == ("queued",)
        assert vm.try_publish_wait(blob, 2) is None
        lead = vm.commit_ready(blob, 1, {0: ()})
        assert lead[0] == "lead" and [v for v, *_ in lead[3]] == [1, 2]
        assert vm.try_publish_wait(blob, 2) is None  # in flight
        vm.publish_batch(blob, [1, 2], root_key(2), 20)
        assert vm.try_publish_wait(blob, 2) == ("published",)
