"""The asyncio engine: protocol ops as awaitables on one event loop.

The third :class:`~repro.engine.base.Engine` implementation. Like the
threaded engine it binds the *real* lock-based components (the threaded
version manager, provider stores, the namespace manager) and moves real
bytes; unlike it, many protocol generators run concurrently as asyncio
tasks on a single event loop — which is what the HTTP front-end
(:mod:`repro.server`) needs to serve hundreds of sockets from one
process.

Op mechanics mirror :mod:`repro.engine.threaded`: an op is a lazy
:class:`_AioOp` thunk, created (and recorded, for the parity suite) at
``engine.call(...)`` time and resolved only when the async trampoline in
:meth:`AsyncioEngine.run` awaits it — so op-*creation* order is
identical to the other two engines for the same scenario, which is what
``tests/engine/test_parity.py`` asserts.

The one genuinely asyncio-specific concern is *blocking* endpoint
methods. Control calls are short critical sections (dictionary updates
under a mutex) and run inline on the loop; but ``engine.wait`` ops —
the metadata-turn and publish waits — may park on a
``threading.Condition`` inside the version manager until **another**
client's commit signals them. Running a parked wait inline would wedge
the whole loop, so a wait first runs the endpoint's non-blocking probe
(``try_<method>``, when the endpoint has one) inline, and only a wait
that would really block is shipped to a dedicated thread pool — an
uncontended append never leaves the loop. Progress never *requires*
more than one pool slot: the commits that release waiters run inline on
the loop, so a saturated pool only queues waiters (latency), it cannot
deadlock them.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Generator, Optional, Sequence, Set

from ..common.errors import ProviderUnavailableError, RpcTimeoutError
from ..common.rng import substream
from ..faults.plan import RetryPolicy
from ..obs import NULL_OBS, Observability
from .base import Engine, Payload
from .threaded import THREADED_RETRY


class _AioOp:
    """A deferred engine action; resolved only by the async trampoline.

    ``fn`` either returns a value directly (inline ops) or an awaitable
    (sleeps, executor-shipped waits) that the trampoline awaits.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn


_NOOP = _AioOp(lambda: None)


class AsyncioEngine(Engine):
    """Engine over in-process components and one asyncio event loop."""

    def __init__(
        self,
        seed: int = 0,
        obs: Optional[Observability] = None,
        retry: Optional[RetryPolicy] = None,
        max_wait_threads: int = 256,
    ) -> None:
        """*max_wait_threads* bounds the pool that carries the ``wait``
        ops that would block — size it at the expected number of
        concurrently queued appenders (threads parked on a condition
        variable are cheap; an undersized pool adds queueing latency,
        never deadlock)."""
        self.retry = retry or THREADED_RETRY
        self._seed = seed
        self._control: dict[str, Any] = {}
        # endpoint -> (store_fn(page_id, data), load_fn(page_id, off, n))
        self._data: dict[str, tuple] = {}
        self._down: Set[str] = set()
        self._waitpool = ThreadPoolExecutor(
            max_workers=max_wait_threads, thread_name_prefix="aio-engine-wait"
        )
        self._closed = False
        self.use_obs(obs or NULL_OBS)

    def use_obs(self, obs: Observability) -> None:
        """(Re)wire observability — harnesses built with NULL_OBS can
        switch a live engine onto an enabled bundle."""
        self.obs = obs
        self._tracer = obs.tracer if obs.tracer.enabled else None
        self._trace_parent = None
        self._c_rpc_timeouts = obs.registry.counter("net.rpc_timeouts")

    def close(self) -> None:
        """Release the wait-op thread pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._waitpool.shutdown(wait=False, cancel_futures=True)

    def _spanned(self, op: _AioOp, name: str, cat: str, **args: Any) -> _AioOp:
        """Open one op span now (creation time, matching the other
        engines' span start order) and finish it when the trampoline
        resolves the op — failed ops record their exception type."""
        sp = self._tracer.start(
            name, cat=cat, parent=self._take_parent(), **args
        )
        fn = op.fn

        def traced() -> Any:
            try:
                result = fn()
            except BaseException as exc:
                sp.set(error=type(exc).__name__)
                sp.finish()
                raise
            if not asyncio.isfuture(result) and not asyncio.iscoroutine(result):
                sp.finish()
                return result

            async def awaited() -> Any:
                try:
                    return await result
                except BaseException as exc:
                    sp.set(error=type(exc).__name__)
                    raise
                finally:
                    sp.finish()

            return awaited()

        op.fn = traced
        return op

    # -- wiring -------------------------------------------------------------

    def bind(self, name: str, adapter: Any) -> None:
        """Register a control endpoint (short calls run on the loop;
        ``wait`` methods run on the wait pool unless the endpoint's
        ``try_<method>`` probe answers them inline)."""
        self._control[name] = adapter

    def bind_data(
        self,
        name: str,
        store_fn: Callable[[Any, bytes], Any],
        load_fn: Callable[[Any, int, int], bytes],
    ) -> None:
        """Register a data endpoint's store/load entry points."""
        self._data[name] = (store_fn, load_fn)

    # -- fault state --------------------------------------------------------

    def fail_endpoint(self, name: str) -> None:
        self._down.add(name)

    def recover_endpoint(self, name: str) -> None:
        self._down.discard(name)

    def is_down(self, endpoint: str) -> bool:
        return endpoint in self._down

    @property
    def faults_active(self) -> bool:
        # real components fail organically; the cores must always take
        # the failure-tolerant paths
        return True

    # -- clock / flow -------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, dt: float) -> _AioOp:
        op = _AioOp(lambda: asyncio.sleep(dt))
        if self._tracer is not None:
            return self._spanned(op, "engine.sleep", "engine.retry", dt=dt)
        return op

    def spawn(self, gen: Generator) -> _AioOp:
        # matches the threaded engine's semantics: the sub-generator
        # runs to completion when the op resolves (the trampoline awaits
        # the nested run), not concurrently with its parent
        return _AioOp(lambda: self.run(gen))

    async def run(self, gen: Generator) -> Any:
        """The async trampoline: drive *gen* to completion in this task."""
        try:
            op = gen.send(None)
        except StopIteration as stop:
            return stop.value
        while True:
            try:
                value = op.fn()
                if asyncio.iscoroutine(value) or asyncio.isfuture(value):
                    value = await value
            except BaseException as exc:  # noqa: BLE001 - re-thrown into gen
                try:
                    op = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
            else:
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value

    def rng(self, *names):
        return substream(self._seed, *names)

    # -- control plane ------------------------------------------------------

    def call(self, endpoint: str, method: str, *args: Any) -> _AioOp:
        # short lock-guarded critical sections: run inline on the loop
        adapter = self._control[endpoint]
        op = _AioOp(lambda: getattr(adapter, method)(*args))
        if self._tracer is not None:
            return self._spanned(
                op, f"engine.call:{endpoint}.{method}", "engine.call"
            )
        return op

    def wait(self, endpoint: str, method: str, *args: Any) -> _AioOp:
        # a wait that blocks until *another* client's call signals it
        # must leave the loop free, so it rides the wait thread pool;
        # one whose condition already holds is answered inline by the
        # endpoint's non-blocking probe (None = would block)
        adapter = self._control[endpoint]
        probe = getattr(adapter, "try_" + method, None)

        def do():
            if probe is not None:
                result = probe(*args)
                if result is not None:
                    return result
            fn = getattr(adapter, method)
            return asyncio.get_running_loop().run_in_executor(
                self._waitpool, lambda: fn(*args)
            )

        op = _AioOp(do)
        if self._tracer is not None:
            return self._spanned(
                op, f"engine.wait:{endpoint}.{method}", "engine.wait"
            )
        return op

    # -- data plane ---------------------------------------------------------

    def store(
        self, client: str, endpoint: str, page_id: Any, payload: Payload
    ) -> _AioOp:
        store_fn = self._data[endpoint][0]

        def do() -> None:
            try:
                store_fn(page_id, payload.data)
            except ProviderUnavailableError as exc:
                self._c_rpc_timeouts.inc()
                raise RpcTimeoutError(str(exc)) from exc

        op = _AioOp(do)
        if self._tracer is not None:
            return self._spanned(
                op, "engine.store", "engine.data",
                endpoint=endpoint, nbytes=len(payload),
            )
        return op

    def fetch(
        self,
        client: str,
        endpoint: str,
        page_id: Any,
        data_offset: int,
        nbytes: int,
    ) -> _AioOp:
        load_fn = self._data[endpoint][1]

        def do() -> bytes:
            try:
                return load_fn(page_id, data_offset, nbytes)
            except ProviderUnavailableError as exc:
                self._c_rpc_timeouts.inc()
                raise RpcTimeoutError(str(exc)) from exc

        op = _AioOp(do)
        if self._tracer is not None:
            return self._spanned(
                op, "engine.fetch", "engine.data",
                endpoint=endpoint, nbytes=nbytes,
            )
        return op

    def charge_md(self, owners: Sequence[int]) -> _AioOp:
        # the DHT is in-process: metadata RPCs cost nothing here, but
        # the op still gets its span so all runtimes' trees match
        if self._tracer is not None:
            return self._spanned(
                _AioOp(lambda: None),
                "engine.charge_md",
                "engine.md",
                rpcs=len(owners),
            )
        return _NOOP

    def charge_md_many(self, batches: Sequence[Sequence[int]]) -> _AioOp:
        if self._tracer is not None:
            return self._spanned(
                _AioOp(lambda: None),
                "engine.charge_md_many",
                "engine.md",
                rpcs=sum(len(b) for b in batches),
                batches=len(batches),
            )
        return _NOOP
