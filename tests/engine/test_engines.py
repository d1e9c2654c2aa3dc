"""Unit tests for the engine layer: payloads, the threaded trampoline,
the shared replica policy, and both engines' fault primitives."""

import asyncio

import pytest

from repro.blobseer import BlobSeerService
from repro.blobseer.metadata.segment_tree import NodeKey
from repro.blobseer.version_manager import ThreadedVersionManager
from repro.common.config import BlobSeerConfig, ClusterConfig
from repro.common.errors import ProviderUnavailableError, RpcTimeoutError
from repro.common.rng import substream
from repro.engine.aio import AsyncioEngine
from repro.engine.base import Payload
from repro.engine.des import DesEngine
from repro.engine.replica import ReplicaSelector
from repro.engine.threaded import ThreadedEngine
from repro.obs import Observability
from repro.sim.cluster import SimCluster


class TestPayload:
    def test_requires_data_or_size(self):
        with pytest.raises(ValueError):
            Payload()

    def test_byte_payload(self):
        p = Payload(b"hello")
        assert len(p) == 5
        assert p.slice(1, 3).data == b"el"

    def test_size_only_payload(self):
        p = Payload(nbytes=100)
        assert len(p) == 100
        assert p.data is None
        assert len(p.slice(10, 60)) == 50


class _Adder:
    def add(self, a, b):
        return a + b

    def boom(self):
        raise KeyError("boom")


class TestTrampoline:
    def test_returns_stopiteration_value(self):
        eng = ThreadedEngine()
        eng.bind("svc", _Adder())

        def gen():
            three = yield eng.call("svc", "add", 1, 2)
            yield eng.sleep(0)
            return three * 10

        assert eng.run(gen()) == 30

    def test_throws_into_generator(self):
        eng = ThreadedEngine()
        eng.bind("svc", _Adder())

        def gen():
            try:
                yield eng.call("svc", "boom")
            except KeyError:
                return "recovered"
            return "unreached"

        assert eng.run(gen()) == "recovered"

    def test_uncaught_exception_propagates(self):
        eng = ThreadedEngine()
        eng.bind("svc", _Adder())

        def gen():
            yield eng.call("svc", "boom")

        with pytest.raises(KeyError):
            eng.run(gen())

    def test_batch_fast_paths_are_des_only(self):
        eng = ThreadedEngine()
        with pytest.raises(NotImplementedError):
            eng.ship_many("c", [("p",)], [1])


class TestReplicaSelector:
    def test_rotation_is_seeded_and_deterministic(self):
        eps = ("a", "b", "c")
        s1 = ReplicaSelector(substream(3, "x"))
        s2 = ReplicaSelector(substream(3, "x"))
        orders = [s1.order(eps) for _ in range(6)]
        assert orders == [s2.order(eps) for _ in range(6)]
        # the phase steps once per order(): consecutive calls spread
        # the starting replica over the whole set
        assert {o[0] for o in orders} == {"a", "b", "c"}
        for o in orders:
            assert sorted(o) == ["a", "b", "c"]

    def test_dead_endpoints_sort_last(self):
        sel = ReplicaSelector(substream(0, "y"))
        sel.dead.add("b")
        for _ in range(4):
            order = sel.order(("a", "b", "c"))
            assert order[-1] == "b"


class TestThreadedFaults:
    def test_unavailable_maps_to_rpc_timeout_and_counts(self):
        obs = Observability.on()
        eng = ThreadedEngine(obs=obs)

        def store_fn(pid, data):
            raise ProviderUnavailableError("down")

        def load_fn(pid, off, n):
            raise ProviderUnavailableError("down")

        eng.bind_data("p", store_fn, load_fn)

        def gen():
            try:
                yield eng.store("c", "p", "pid", Payload(b"x"))
            except RpcTimeoutError:
                pass
            yield eng.fetch("c", "p", "pid", 0, 1)

        with pytest.raises(RpcTimeoutError):
            eng.run(gen())
        assert obs.registry.counters()["net.rpc_timeouts"] == 2.0


class TestDesFaults:
    def test_store_to_down_endpoint_charges_timeout(self):
        cluster = SimCluster(ClusterConfig(nodes=4, seed=1))
        obs = Observability.on()
        eng = DesEngine(cluster, obs=obs)
        names = cluster.names()
        assert not eng.faults_active
        eng.fail_endpoint(names[1])
        assert eng.faults_active
        assert eng.is_down(names[1])
        failed_at = {}

        def proc():
            try:
                yield eng.store(names[0], names[1], "page", Payload(nbytes=100))
            except RpcTimeoutError:
                failed_at["t"] = eng.now()

        env = cluster.env
        env.run(env.process(proc()))
        # the client pays the full RPC timeout in simulated time
        assert failed_at["t"] == pytest.approx(eng.retry.rpc_timeout)
        assert obs.registry.counters()["net.rpc_timeouts"] == 1.0


class _CountingPool:
    """Stands in for the asyncio engine's wait pool, counting submits."""

    def __init__(self, inner):
        self.inner = inner
        self.submits = 0

    def submit(self, fn, *args, **kwargs):
        self.submits += 1
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        self.inner.shutdown(*args, **kwargs)


class TestAsyncioWaitFastPath:
    """``AsyncioEngine.wait`` answers a wait whose condition already
    holds inline, and ships only a wait that would block to its pool."""

    def _engine(self):
        engine = AsyncioEngine(seed=0)
        pool = _CountingPool(engine._waitpool)
        engine._waitpool = pool
        return engine, pool

    def test_sequential_appends_never_touch_the_wait_pool(self):
        engine, pool = self._engine()
        svc = BlobSeerService(
            BlobSeerConfig(page_size=256), n_providers=3, seed=1, engine=engine
        )
        blob = svc.create_blob()
        records = [bytes([k]) * 100 for k in range(20)]

        async def main():
            for rec in records:
                await engine.run(svc.protocol.append("c0", blob, Payload(rec)))
            return await engine.run(
                svc.protocol.read("c0", blob, 0, 100 * len(records))
            )

        _version, data = asyncio.run(main())
        svc.close()
        engine.close()
        assert data == b"".join(records)
        assert pool.submits == 0
        assert not pool.inner._threads  # the pool never spawned a thread

    def test_ungranted_turn_parks_in_the_pool_until_predecessor_commits(self):
        engine, pool = self._engine()
        vm = ThreadedVersionManager(config=BlobSeerConfig(append_lease_s=0))
        engine.bind("vm", vm)
        blob = vm.create_blob(64)
        vm.assign_append(blob, 10)  # v1: slow appender
        vm.assign_append(blob, 10)  # v2: must wait for v1's metadata

        def wait_turn():
            return (yield engine.wait("vm", "metadata_turn", blob, 2))

        async def main():
            task = asyncio.ensure_future(engine.run(wait_turn()))
            await asyncio.sleep(0.05)
            parked = not task.done()
            vm.commit(blob, 1, NodeKey(blob, 1, 0, 1))  # inline, on the loop
            return parked, await asyncio.wait_for(task, timeout=5)

        parked, turn = asyncio.run(main())
        engine.close()
        assert parked
        assert pool.submits == 1
        assert turn == (NodeKey(blob, 1, 0, 1), 1)
