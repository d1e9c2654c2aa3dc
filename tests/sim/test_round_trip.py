"""Unit tests for the event-chained RPC fast paths.

``Resource.round_trip`` / ``batch_round_trips`` bypass the
Process/Timeout machinery; these tests pin their semantics to the
generator-based equivalent: same timing, same FIFO admission (also when
mixed with generator-based ``request()`` users), same failure point.
An order oracle pins them to the closure-based implementation they
replaced, event for event, and an allocation budget pins the objects a
queued RPC costs.
"""

import gc
import heapq
import random
from typing import Any, Callable, Optional

import pytest

from repro.sim.core import Environment, Event
from repro.sim.resources import Request, Resource, batch_round_trips


@pytest.fixture()
def env():
    return Environment()


class TestRoundTrip:
    def test_uncontended_timing(self, env):
        res = Resource(env, capacity=1)

        def proc():
            value = yield res.round_trip(0.5, 2.0, fn=lambda: "ok")
            return (env.now, value)

        # latency + service + latency
        assert env.run(env.process(proc())) == (3.0, "ok")
        assert res.in_use == 0

    def test_zero_latency(self, env):
        res = Resource(env, capacity=1)

        def proc():
            yield res.round_trip(0.0, 1.5)
            return env.now

        assert env.run(env.process(proc())) == 1.5

    def test_contended_serializes_fifo(self, env):
        res = Resource(env, capacity=1)
        ends = []

        def proc(tag):
            yield res.round_trip(0.0, 1.0)
            ends.append((tag, env.now))

        for tag in "abc":
            env.process(proc(tag))
        env.run()
        assert ends == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_mixes_fifo_with_generator_requests(self, env):
        res = Resource(env, capacity=1)
        order = []

        def generator_user():
            req = yield res.request()
            order.append("gen-granted")
            yield env.timeout(1.0)
            res.release(req)

        def rpc_user():
            yield res.round_trip(0.0, 1.0)
            order.append("rpc-done")

        def late_generator_user():
            yield env.timeout(0.5)  # arrives while the rpc waits
            req = yield res.request()
            order.append("late-gen-granted")
            res.release(req)

        env.process(generator_user())
        env.process(rpc_user())
        env.process(late_generator_user())
        env.run()
        # the rpc is admitted first (FIFO), and its release at end of
        # service grants the late requester before the reply leg lands
        assert order == ["gen-granted", "late-gen-granted", "rpc-done"]

    def test_notify_false_returns_none_but_serializes(self, env):
        res = Resource(env, capacity=1)
        assert res.round_trip(0.0, 2.0, notify=False) is None

        def proc():
            # queued behind the fire-and-forget call's service
            yield res.round_trip(0.0, 1.0)
            return env.now

        assert env.run(env.process(proc())) == 3.0
        assert res.in_use == 0

    def test_fn_failure_fails_event_and_releases(self, env):
        res = Resource(env, capacity=1)

        def bad():
            raise RuntimeError("service exploded")

        def proc():
            with pytest.raises(RuntimeError, match="service exploded"):
                yield res.round_trip(0.25, 1.0, fn=bad)
            # the unit must be free again
            yield res.round_trip(0.0, 1.0)
            return env.now

        # failure surfaces at the service point (1.25), then 1s more
        assert env.run(env.process(proc())) == 2.25


class TestBatchRoundTrips:
    def test_fires_at_last_reply(self, env):
        a = Resource(env, capacity=1)
        b = Resource(env, capacity=1)
        from repro.sim.core import Event

        done = Event(env)
        batch_round_trips([a, b], latency=0.5, service=2.0, done=done)

        def proc():
            yield done
            return env.now

        assert env.run(env.process(proc())) == 3.0  # 0.5 + 2.0 + 0.5

    def test_duplicate_resource_serializes(self, env):
        res = Resource(env, capacity=1)
        from repro.sim.core import Event

        done = Event(env)
        # both RPCs hit the same single-slot server: back-to-back service
        batch_round_trips([res, res], latency=0.5, service=1.0, done=done)

        def proc():
            yield done
            return env.now

        assert env.run(env.process(proc())) == 3.0  # 0.5 + 1 + 1 + 0.5
        assert res.in_use == 0

    def test_matches_individual_round_trips(self, env):
        """The batch is timing-equivalent to k independent round trips."""
        servers = [Resource(env, capacity=1) for _ in range(3)]

        def individual():
            evs = [s.round_trip(0.3, 1.1) for s in servers]
            yield env.all_of(evs)
            return env.now

        t_individual = env.run(env.process(individual()))

        env2 = Environment()
        servers2 = [Resource(env2, capacity=1) for _ in range(3)]
        from repro.sim.core import Event

        done = Event(env2)
        batch_round_trips(servers2, latency=0.3, service=1.1, done=done)

        def batched():
            yield done
            return env2.now

        assert env2.run(env2.process(batched())) == t_individual


class TestCallInCallAt:
    def test_call_in_fires_after_delay(self, env):
        fired = []
        env.call_in(2.5, lambda: fired.append(env.now))
        env.run()
        assert fired == [2.5]

    def test_call_at_fires_at_instant(self, env):
        fired = []

        def proc():
            yield env.timeout(1.0)
            env.call_at(4.0, lambda: fired.append(env.now))

        env.process(proc())
        env.run()
        assert fired == [4.0]

    def test_same_instant_callbacks_fifo(self, env):
        order = []
        env.call_in(1.0, lambda: order.append("first"))
        env.call_in(1.0, lambda: order.append("second"))
        env.run()
        assert order == ["first", "second"]


# -- order oracle ---------------------------------------------------------------
#
# The closure-based round trip that each RPC used to be, kept verbatim
# (docstrings aside) as the oracle for the slotted-record implementation:
# every scheduling step — each entry-id increment, each ring-or-heap
# choice, each FIFO hand-over — must happen in the same order, so whole
# simulations dispatch identically.


class OracleResource(Resource):
    """A Resource whose RPCs are the old closure bundles."""

    __slots__ = ()

    def _release_unit(self) -> None:
        if self._waiting:
            nxt = self._waiting.popleft()
            # the queue holds Request events (generator-based users) and
            # bare grant callbacks (round_trip's contended arrivals)
            if nxt.__class__ is Request:
                nxt.succeed(nxt)
            else:
                nxt()
        else:
            if self.in_use <= 0:  # pragma: no cover - defensive
                raise RuntimeError("release without matching request")
            self.in_use -= 1

    def round_trip(
        self,
        latency: float,
        service: float,
        fn: Optional[Callable[[], Any]] = None,
        notify: bool = True,
    ) -> Optional[Event]:
        env = self.env
        done = Event(env) if notify else None

        def serviced() -> None:
            try:
                value = fn() if fn is not None else None
            except Exception as exc:
                self._release_unit()
                if done is None:
                    raise
                done.fail(exc)
                return
            self._release_unit()
            if done is None:
                return
            # fire `done` with the reply exactly one latency later —
            # equivalent to a Timeout but without a second event
            done.triggered = True
            done._value = value
            env._schedule(done, delay=latency)

        heap = env._heap

        def start_service() -> None:
            # inlined call_in(service, serviced): this is the hottest
            # scheduling site in the kernel — the callable is the queue
            # entry, no wrapper allocation
            when = env.now + service
            if when > env.now:
                env._eid += 1
                heapq.heappush(heap, (when, env._eid, serviced))
            else:
                env._ring.append(serviced)

        def arrive() -> None:
            if self.in_use < self.capacity:
                # uncontended grant: take the unit inline, no Request
                self.in_use += 1
                start_service()
            else:
                # contended: queue a bare grant callback — the unit is
                # transferred at release time without a Request event
                self._waiting.append(start_service)

        if latency:
            when = env.now + latency
            if when > env.now:
                env._eid += 1
                heapq.heappush(heap, (when, env._eid, arrive))
            else:
                env._ring.append(arrive)
        else:
            # a zero-latency round trip (local service, e.g. a disk)
            # joins the queue at the call site, like the generator-based
            # equivalent whose request ran on the bootstrap step
            arrive()
        return done


def oracle_batch_round_trips(
    resources: "list[Resource]",
    latency: float,
    service: float,
    done: Event,
) -> None:
    env = resources[0].env
    remaining = len(resources)

    def make_serviced(res: Resource):
        def serviced() -> None:
            nonlocal remaining
            res._release_unit()
            remaining -= 1
            if remaining == 0:
                # last service done: the straggler's reply lands one
                # latency later — fire `done` there, no per-RPC reply leg
                done.triggered = True
                done._value = None
                env._schedule(done, delay=latency)

        return serviced

    heap = env._heap

    def arrive() -> None:
        for res in resources:
            serviced = make_serviced(res)
            if res.in_use < res.capacity:
                res.in_use += 1
                when = env.now + service
                if when > env.now:
                    env._eid += 1
                    heapq.heappush(heap, (when, env._eid, serviced))
                else:
                    env._ring.append(serviced)
            else:
                res._waiting.append(
                    lambda s=serviced: env.call_in(service, s)
                )

    if latency:
        env.call_in(latency, arrive)
    else:
        arrive()


#: clients start around t=1000, where a 1e-14 s delay no longer moves
#: the clock (now + 1e-14 == now): the sub-resolution ring branch
EPOCH = 1000.0
DELAYS = (0.0, 1e-14, 0.25, 0.5, 1.0, 1.7)


class ServiceError(Exception):
    pass


def random_plan(seed: int):
    """Resource capacities and per-client op lists for one scenario."""
    rng = random.Random(seed)
    capacities = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    n_res = len(capacities)
    clients = []
    for _ in range(rng.randint(2, 10)):
        start = EPOCH + rng.choice((0.0, 0.0, 1e-14, 0.5, 1.0, 2.5))
        ops = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("rt", "rt", "rt", "fan", "batch", "req", "sleep"))
            if kind in ("rt", "fan"):
                rpcs = [
                    (
                        rng.randrange(n_res),
                        rng.choice(DELAYS),
                        rng.choice(DELAYS),
                        rng.choice((None, "value", "value", "raise")),
                        rng.random() < 0.8,
                    )
                    for _ in range(1 if kind == "rt" else rng.randint(2, 4))
                ]
                ops.append((kind, rpcs))
            elif kind == "batch":
                targets = [rng.randrange(n_res) for _ in range(rng.randint(1, 5))]
                ops.append((kind, targets, rng.choice(DELAYS), rng.choice(DELAYS)))
            elif kind == "req":
                ops.append((kind, rng.randrange(n_res), rng.choice(DELAYS)))
            else:
                ops.append((kind, rng.choice(DELAYS[1:])))
        clients.append((start, ops))
    return capacities, clients


def run_plan(plan, oracle: bool):
    """Run *plan* on a fresh environment; returns (trace, events, eids)."""
    capacities, clients = plan
    env = Environment()
    cls = OracleResource if oracle else Resource
    batch = oracle_batch_round_trips if oracle else batch_round_trips
    resources = [cls(env, capacity=c) for c in capacities]
    trace = []

    def service_fn(tag, k, fail):
        trace.append((env.now, "svc", tag, k))
        if fail:
            raise ServiceError(tag)
        return (tag, k)

    def send(tag, k, spec):
        idx, latency, service, fn_kind, notify = spec
        res = resources[idx]
        if fn_kind is None:
            return res.round_trip(latency, service, notify=notify)
        args = (tag, k, fn_kind == "raise")
        if notify is False and fn_kind == "raise":
            # an unawaited service failure aborts the run; that case has
            # its own test below
            args = (tag, k, False)
        if oracle:
            return res.round_trip(
                latency, service, lambda: service_fn(*args), notify=notify
            )
        return res.round_trip(latency, service, service_fn, args, notify=notify)

    def settle(tag, ev):
        # record the reply when it is dispatched (a waiter must be in
        # place by then, or the kernel raises the failure), then wait
        def record(ev):
            value = ev._value
            if not ev._ok:
                value = type(value).__name__
            trace.append((env.now, tag, value))

        ev.callbacks.append(record)
        return ev

    def wait(events):
        for ev in events:
            try:
                yield ev
            except ServiceError:
                pass

    def client(c, start, ops):
        yield env.timeout(start)
        for k, op in enumerate(ops):
            tag = f"c{c}.{k}"
            kind = op[0]
            if kind in ("rt", "fan"):
                events = []
                for j, spec in enumerate(op[1]):
                    ev = send(tag, j, spec)
                    if ev is None:
                        trace.append((env.now, f"{tag}.{j}", "sent"))
                    else:
                        events.append(settle(f"{tag}.{j}", ev))
                yield from wait(events)
            elif kind == "batch":
                done = Event(env)
                batch([resources[i] for i in op[1]], op[2], op[3], done)
                yield from wait([settle(tag, done)])
            elif kind == "req":
                req = yield resources[op[1]].request()
                trace.append((env.now, tag, "granted"))
                yield env.timeout(op[2])
                resources[op[1]].release(req)
            else:
                yield env.timeout(op[1])

    for c, (start, ops) in enumerate(clients):
        env.process(client(c, start, ops))
    env.run()
    assert all(r.in_use == 0 and not r._waiting for r in resources)
    return trace, env.events_processed, env._eid


class TestOrderOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_same_dispatch_trace_as_closure_round_trips(self, seed):
        plan = random_plan(seed)
        trace, events, eids = run_plan(plan, oracle=False)
        want_trace, want_events, want_eids = run_plan(plan, oracle=True)
        assert trace == want_trace
        assert events == want_events
        assert eids == want_eids

    def test_scenarios_reach_every_branch(self):
        # the seeds above cover failures, fire-and-forget sends and
        # generator users, not just the easy path
        traces = [run_plan(random_plan(seed), oracle=False)[0] for seed in range(60)]
        flat = [row for trace in traces for row in trace]
        assert any(row[-1] == "ServiceError" for row in flat)
        assert any(row[-1] == "sent" for row in flat)
        assert any(row[-1] == "granted" for row in flat)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_sub_resolution_delays_stay_on_the_ring(self, oracle):
        # at t=EPOCH a 1e-14 s leg does not move the clock: both legs
        # and the reply run this instant, no heap entry is made
        env = Environment()
        res = (OracleResource if oracle else Resource)(env, capacity=1)
        replies = []

        def proc():
            yield env.timeout(EPOCH)
            eid = env._eid
            value = yield res.round_trip(1e-14, 1e-14, lambda: "ok")
            replies.append((env.now, value, env._eid - eid))

        env.process(proc())
        env.run()
        assert replies == [(EPOCH, "ok", 0)]

    @pytest.mark.parametrize("oracle", [False, True])
    def test_unawaited_service_failure_aborts_the_run(self, oracle):
        env = Environment()
        res = (OracleResource if oracle else Resource)(env, capacity=1)

        def bad():
            raise ServiceError("fire-and-forget")

        res.round_trip(0.5, 1.0, bad, notify=False)
        with pytest.raises(ServiceError):
            env.run()
        assert (env.now, env.events_processed, res.in_use) == (1.5, 2, 0)


# -- allocation budget ------------------------------------------------------------


class TestAllocationBudget:
    N = 2_000

    def test_queued_round_trip_is_at_most_five_tracked_objects(self):
        """A queued RPC is one slotted record plus its reply event (and
        the event's waiter list and the caller's args tuple). The cyclic
        GC walks every queued RPC on each full collection, so this is a
        deterministic guard against a return to per-RPC closures."""
        env = Environment()
        res = Resource(env, capacity=1)

        def double(k):
            return 2 * k

        latency, service = 0.5, 1.0
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            events = [
                res.round_trip(latency, service, double, (k,))
                for k in range(self.N)
            ]
            env.run(until=latency)  # every RPC has arrived; N - 1 wait
            assert res.queue_length == self.N - 1
            per_rpc = (len(gc.get_objects()) - before) / self.N
        finally:
            if was_enabled:
                gc.enable()
        assert per_rpc <= 5.0, per_rpc

        def collect(ev, k):
            value = yield ev
            return env.now, value

        procs = [env.process(collect(ev, k)) for k, ev in enumerate(events)]
        env.run()
        assert [p.value for p in procs] == [
            (2 * latency + (k + 1) * service, 2 * k) for k in range(self.N)
        ]
        assert res.in_use == 0 and res.queue_length == 0
