"""Per-layer timers installed around the program's public calls.

The benchmark measures end-to-end numbers with no timers anywhere; a
separate traced phase wraps the calls into each layer and accumulates
*self* time per layer: a call's duration minus the part of it spent in
nested timed calls.  Self times therefore add up to the wall time of the
outermost timed call, so the per-layer split accounts for the whole
serving path with nothing counted twice.

Three wrapping forms cover the program's objects:

* :meth:`Tracer.wrap` times a plain callable (bound methods, module
  functions);
* :meth:`Tracer.patch` replaces an attribute on a class or module for
  the duration of a ``with`` block (classes whose instances the program
  creates internally, such as monitors and the store);
* the delegating wrappers below (:class:`TracedPolicy`,
  :class:`TracedSignal`, :class:`TracedFactory`) stand in for objects
  the benchmark hands to the program.  Each shared object is wrapped
  once and the wrapper reused, so a policy shared by several schemes is
  not counted twice.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import inspect
import time
from collections import defaultdict

from repro.core.signals import UncertaintySignal
from repro.domains import SessionFactory


class Tracer:
    """Self time, inclusive time and call counts per layer name."""

    def __init__(self) -> None:
        self.own: dict[str, float] = defaultdict(float)
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        # Time spent in timed children of each open call, innermost last.
        self._children: list[float] = []

    def wrap(self, layer: str, fn, count_rows: bool = False):
        """*fn* with its calls timed under *layer*.

        ``count_rows`` adds the length of the last positional argument
        to the layer's row count (batched calls).  Coroutine functions
        are awaited inside the timed region.
        """
        children = self._children
        own, total, calls, rows = self.own, self.total, self.calls, self.rows
        clock = time.perf_counter

        def close(start: float) -> None:
            elapsed = clock() - start
            own[layer] += elapsed - children.pop()
            total[layer] += elapsed
            calls[layer] += 1
            if children:
                children[-1] += elapsed

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def timed_async(*args, **kwargs):
                children.append(0.0)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    close(start)

            return timed_async

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if count_rows:
                rows[layer] += len(args[-1])
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(start)

        return timed

    @contextlib.contextmanager
    def patch(self, targets):
        """Time ``(owner, attribute, layer)`` targets inside the block.

        The original attributes are restored on exit, so code outside
        the block (reference runs, the untimed phase) runs unwrapped.
        """
        saved = []
        try:
            for owner, attribute, layer in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(layer, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def snapshot(self) -> dict:
        """Plain-dict copy of the accumulators (JSON-able)."""
        return {
            "own": dict(self.own),
            "total": dict(self.total),
            "calls": dict(self.calls),
            "rows": dict(self.rows),
        }


class TracedPolicy:
    """A policy whose ``act`` calls are timed under *layer*."""

    def __init__(self, inner, tracer: Tracer, layer: str) -> None:
        self.inner = inner
        self.act = tracer.wrap(layer, inner.act)

    def reset(self) -> None:
        self.inner.reset()

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TracedSignal(UncertaintySignal):
    """An uncertainty signal whose measurements are timed.

    Deep copies (monitors fork stateful signals per session) copy the
    wrapped signal but keep the shared tracer.
    """

    def __init__(self, inner: UncertaintySignal, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.binary = inner.binary
        self.stateless = inner.stateless
        self.measure = tracer.wrap("signal.scalar", inner.measure)
        self.measure_batch = tracer.wrap(
            "signal.batch", inner.measure_batch, count_rows=True
        )

    def reset(self) -> None:
        self.inner.reset()

    def state_dict(self) -> dict:
        return self.inner.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.inner.load_state_dict(state)

    def __deepcopy__(self, memo) -> "TracedSignal":
        return TracedSignal(copy.deepcopy(self.inner, memo), self.tracer)


class TracedEnv:
    """An environment whose steps and resets are timed."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.step = tracer.wrap("env.step", inner.step)
        self.reset = tracer.wrap("env.build", inner.reset)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class TracedFactory(SessionFactory):
    """A delegating session factory that times env builds and records.

    Factories are frozen dataclasses, so the timers live on this
    wrapper rather than on the wrapped instance.
    """

    def __init__(self, inner: SessionFactory, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.domain = inner.domain
        self._new_env = tracer.wrap("env.build", inner.new_env)
        self._record = tracer.wrap("domain.record", inner.record)

    def steps_per_session(self) -> int:
        return self.inner.steps_per_session()

    def new_env(self, spec):
        return TracedEnv(self._new_env(spec), self.tracer)

    def new_result(self, spec, policy_name: str):
        return self.inner.new_result(spec, policy_name)

    def record(self, step, defaulted: bool):
        return self._record(step, defaulted)
