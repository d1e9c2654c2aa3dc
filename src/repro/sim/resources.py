"""Shared-resource primitives for the simulation kernel.

* :class:`Resource` — a counted resource with FIFO admission (e.g. RPC
  handler threads at the version manager, reducer slots).
* :class:`Lock` — a convenience one-slot resource (mutual exclusion),
  used by the locking-append ablation.
* :class:`Store` — an unbounded FIFO of items (message queues between
  simulated components).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from .core import Environment, Event


class Request(Event):
    """Admission ticket for a :class:`Resource`; fires when granted.

    Use as ``yield res.request()`` inside a process, and pass the request
    back to :meth:`Resource.release` when done (or use :meth:`Resource.held`
    as a generator-based context).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """A counted resource with FIFO queueing."""

    __slots__ = ("env", "capacity", "in_use", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        # FIFO of waiters: Request events from generator-based users,
        # RPC records (anything with a grant() method) from round_trip's
        # and batch_round_trips' contended arrivals
        self._waiting: Deque[Any] = deque()

    def request(self) -> Request:
        """Ask for one unit; the returned event fires on grant."""
        req = Request(self)
        if self.in_use < self.capacity:
            self.in_use += 1
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return the unit held by *request*; admits the next waiter."""
        if request.resource is not self:
            raise ValueError("request belongs to a different resource")
        self._release_unit()

    def _release_unit(self) -> None:
        if self._waiting:
            nxt = self._waiting.popleft()
            # the queue holds Request events (generator-based users) and
            # RPC records (round_trip / batch_round_trips contended
            # arrivals), which take the unit over without a Request
            if nxt.__class__ is Request:
                nxt.succeed(nxt)
            else:
                nxt.grant()
        else:
            if self.in_use <= 0:  # pragma: no cover - defensive
                raise RuntimeError("release without matching request")
            self.in_use -= 1

    def round_trip(
        self,
        latency: float,
        service: float,
        fn: Optional[Callable[..., Any]] = None,
        args: tuple = (),
        notify: bool = True,
    ) -> Optional[Event]:
        """One RPC round trip against this resource.

        Models the standard simulated RPC: one-way *latency* to the
        server, FIFO admission to one unit, *service* seconds holding
        it, then *latency* back. The returned event fires at the reply's
        arrival with ``fn(*args)``'s result (*fn* runs at the end of
        service, inside the critical section; if it raises, the event
        fails at the service point, as the generator-based equivalent
        would). Pass the call as ``fn, args`` rather than wrapping it in
        a lambda, whose function, cells and closure tuple would ride
        along with every queued RPC.

        With ``notify=False`` the round trip is fire-and-forget: no
        completion event and no reply leg at all (asynchronous
        persistence uses this; see :func:`batch_round_trips` for the
        batched fan-in form).

        This is event-chained rather than process-based on purpose:
        RPCs are the hottest construct in the experiment drivers, and
        skipping the Process/generator/Timeout machinery roughly halves
        the kernel work per call. The whole RPC is one slotted
        :class:`_RoundTrip` record, which is itself the queue entry of
        each of its steps and the waiter a contended arrival leaves in
        the FIFO. An overloaded server (fig8's version manager) holds
        tens of thousands of queued RPCs, and the cyclic GC re-walks
        every one of them on each full collection, so the objects per
        RPC, not just the work per step, set the cost.
        """
        env = self.env
        rpc = _RoundTrip(
            self, fn, args, Event(env) if notify else None, latency, service
        )
        if latency:
            when = env.now + latency
            if when > env.now:
                env._eid += 1
                heapq.heappush(env._heap, (when, env._eid, rpc))
            else:
                env._ring.append(rpc)
        else:
            # a zero-latency round trip (local service, e.g. a disk)
            # joins the queue at the call site, like the generator-based
            # equivalent whose request ran on the bootstrap step
            rpc()
        return rpc.done

    def cancel(self, request: Request) -> None:
        """Withdraw a not-yet-granted request from the queue."""
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for admission."""
        return len(self._waiting)

    def held(self, work: Generator[Event, Any, Any]) -> Generator[Event, Any, Any]:
        """Run *work* (a process generator) while holding one unit.

        Usage: ``result = yield env.process(res.held(body()))``. The unit
        is released even if *work* raises.
        """
        req = yield self.request()
        try:
            result = yield self.env.process(work)
        finally:
            self.release(req)
        return result


class _RoundTrip:
    """One :meth:`Resource.round_trip` RPC, as a single slotted record.

    Calling the record runs its next step: before the grant, the
    arrival at the server (take a unit or join the FIFO); after it, the
    end of service (run ``fn(*args)``, hand the unit on, schedule the
    reply). :meth:`grant` starts service once a unit is held.
    """

    __slots__ = ("res", "fn", "args", "done", "latency", "service", "granted")

    def __init__(
        self,
        res: Resource,
        fn: Optional[Callable[..., Any]],
        args: tuple,
        done: Optional[Event],
        latency: float,
        service: float,
    ) -> None:
        self.res = res
        self.fn = fn
        self.args = args
        self.done = done
        self.latency = latency
        self.service = service
        self.granted = False

    def grant(self) -> None:
        """Start service on a unit already taken for this RPC."""
        self.granted = True
        env = self.res.env
        when = env.now + self.service
        if when > env.now:
            env._eid += 1
            heapq.heappush(env._heap, (when, env._eid, self))
        else:
            env._ring.append(self)

    def __call__(self) -> None:
        res = self.res
        if not self.granted:
            # arrival: an uncontended grant takes the unit inline, a
            # contended one waits in the FIFO as this record
            if res.in_use < res.capacity:
                res.in_use += 1
                self.grant()
            else:
                res._waiting.append(self)
            return
        done = self.done
        fn = self.fn
        try:
            value = fn(*self.args) if fn is not None else None
        except Exception as exc:
            res._release_unit()
            if done is None:
                raise
            done.fail(exc)
            return
        res._release_unit()
        if done is None:
            return
        # fire `done` with the reply exactly one latency later —
        # equivalent to a Timeout but without a second event
        done.triggered = True
        done._value = value
        res.env._schedule(done, delay=self.latency)


class _Batch:
    """A :func:`batch_round_trips` fan-out: the shared countdown, and
    (when called) the arrival of every RPC in the batch."""

    __slots__ = ("env", "resources", "remaining", "done", "latency", "service")

    def __init__(
        self,
        resources: "list[Resource]",
        latency: float,
        service: float,
        done: Event,
    ) -> None:
        self.env = resources[0].env
        self.resources = resources
        self.remaining = len(resources)
        self.done = done
        self.latency = latency
        self.service = service

    def __call__(self) -> None:
        env = self.env
        heap = env._heap
        service = self.service
        for res in self.resources:
            leg = _BatchLeg(self, res)
            if res.in_use < res.capacity:
                res.in_use += 1
                when = env.now + service
                if when > env.now:
                    env._eid += 1
                    heapq.heappush(heap, (when, env._eid, leg))
                else:
                    env._ring.append(leg)
            else:
                res._waiting.append(leg)


class _BatchLeg:
    """One RPC of a :class:`_Batch`: the FIFO waiter while contended,
    the service-completion entry once granted."""

    __slots__ = ("batch", "res")

    def __init__(self, batch: _Batch, res: Resource) -> None:
        self.batch = batch
        self.res = res

    def grant(self) -> None:
        """Start service on a unit handed over at release time."""
        batch = self.batch
        batch.env.call_in(batch.service, self)

    def __call__(self) -> None:
        self.res._release_unit()
        batch = self.batch
        batch.remaining -= 1
        if batch.remaining == 0:
            # last service done: the straggler's reply lands one
            # latency later — fire `done` there, no per-RPC reply leg
            done = batch.done
            done.triggered = True
            done._value = None
            batch.env._schedule(done, delay=batch.latency)


def batch_round_trips(
    resources: "list[Resource]",
    latency: float,
    service: float,
    done: Event,
) -> None:
    """Fan one RPC out to each resource in *resources* (duplicates allowed)
    in a single arrival step; *done* fires at the last reply's arrival.

    Equivalent to issuing ``len(resources)`` independent
    :meth:`Resource.round_trip` calls at once and waiting for all of
    them — the batch departs together, so every RPC arrives at the same
    instant and in list order, and the last service to end is the last
    reply home (one shared *latency* hop). Collapsing the batch to one
    arrival entry plus a countdown turns the hottest fan-in
    (metadata-RPC charging) from ~3 queue entries per RPC into ~1, and
    each RPC is one slotted :class:`_BatchLeg` record.
    """
    batch = _Batch(resources, latency, service, done)
    if latency:
        batch.env.call_in(latency, batch)
    else:
        batch()


class Lock(Resource):
    """One-slot resource: plain mutual exclusion."""

    __slots__ = ()

    def __init__(self, env: Environment) -> None:
        super().__init__(env, capacity=1)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks (the store is unbounded); ``get`` returns an
    event that fires with the oldest item once one is available. Getters
    are served FIFO.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event firing with the next item (immediately if available)."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
