"""Layer tracing from outside the program: wrap public calls, keep one span stack.

The traced run replaces public functions, methods and properties of the
``repro`` layers with thin wrappers that time each call. Every wrapper
pushes a frame on a single span stack, so a layer's *self* time is its
call's duration minus the time spent in wrapped calls beneath it. A
root frame covers the whole timed region and absorbs whatever no layer
claims (the benchmark's own loop), so the self times of all spans sum
to the traced wall time by construction — :meth:`Tracer.partition_error`
reports how far float rounding leaves that sum from the wall. That
checks only the tracer's own bookkeeping: time in calls no span wraps
lands in the root frame, which is reported on its own as ``bench.loop``.

A module-level function that other modules imported by name has to be
replaced where it is called: :meth:`Tracer.patch_function` rebinds
every ``repro.*`` module attribute that is the original object.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

__all__ = ["Tracer", "ROOT"]

#: Span name of the root frame: the benchmark's own loop outside any layer.
ROOT = "bench.loop"


class Tracer:
    """Self time and call counts per span name over one timed region."""

    def __init__(self, timed: bool = True) -> None:
        #: ``False`` makes every wrapper a bare ``on_call`` hook: the
        #: untimed run uses that for its few probes.
        self.timed = timed
        # Each frame is ``[child_seconds]``; the bottom frame is a
        # catch-all so wrappers that run outside the region never
        # find the stack empty.
        self._stack: list[list[float]] = [[0.0]]
        self._stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        self._root_start = 0.0
        self.wall = 0.0

    # -- recording ----------------------------------------------------------------

    def _slot(self, name: str) -> list[float]:
        return self._stats.setdefault(name, [0.0, 0])

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_call: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """A timed stand-in for ``fn``; ``on_call(*args, **kwargs)`` counts work."""
        if not self.timed:
            if on_call is None:
                return fn

            def hooked(*args: Any, **kwargs: Any) -> Any:
                on_call(*args, **kwargs)
                return fn(*args, **kwargs)

            return hooked
        stack = self._stack
        clock = time.perf_counter
        slot = self._slot(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                slot[0] += elapsed - frame[0]
                slot[1] += 1
                stack[-1][0] += elapsed

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def start(self) -> None:
        """Open the root frame; everything recorded so far is discarded."""
        for slot in self._stats.values():
            slot[0] = 0.0
            slot[1] = 0
        self.counters.clear()
        del self._stack[1:]
        self._stack.append([0.0])
        self._root_start = time.perf_counter()

    def stop(self) -> None:
        """Close the root frame and freeze the region's numbers."""
        self.wall = time.perf_counter() - self._root_start
        frame = self._stack.pop()
        root = self._slot(ROOT)
        root[0] = self.wall - frame[0]
        root[1] = 1
        self._frozen = {name: (slot[0], int(slot[1])) for name, slot in self._stats.items()}
        self._frozen_counters = dict(self.counters)

    def self_seconds(self) -> dict[str, float]:
        return {name: value[0] for name, value in self._frozen.items()}

    def calls(self) -> dict[str, int]:
        return {name: value[1] for name, value in self._frozen.items()}

    def frozen_counters(self) -> dict[str, float]:
        return dict(self._frozen_counters)

    def partition_error(self) -> float:
        """|sum of every span's self time - traced wall| in seconds."""
        return abs(sum(value[0] for value in self._frozen.values()) - self.wall)

    # -- patching -----------------------------------------------------------------

    @staticmethod
    def _lookup(cls: type, attr: str) -> Any:
        """The raw class attribute (descriptor, not bound) along the MRO."""
        for klass in cls.__mro__:
            if attr in klass.__dict__:
                return klass.__dict__[attr]
        raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        on_call: Callable[..., None] | None = None,
    ) -> None:
        """Wrap ``cls.attr``; an inherited one is shadowed on ``cls`` only."""
        raw = self._lookup(cls, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__, on_call))
        elif isinstance(raw, property):
            wrapped = property(
                self.wrap(name, raw.fget, on_call), raw.fset, raw.fdel, raw.__doc__
            )
        else:
            wrapped = self.wrap(name, raw, on_call)
        self.replace(cls, attr, wrapped)

    def replace(self, cls: type, attr: str, value: Any) -> None:
        """Set ``cls.attr`` to ``value`` until :meth:`unpatch`."""
        self._undo.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, value)

    def patch_public(self, cls: type, name: str) -> None:
        """Wrap every public plain method of ``cls``, own and inherited."""
        for attr in sorted(dir(cls)):
            if attr.startswith("_"):
                continue
            raw = self._lookup(cls, attr)
            if callable(raw) and not isinstance(raw, type):
                self.patch_method(cls, attr, name)

    def patch_function(
        self,
        fn: Callable[..., Any],
        name: str,
        on_call: Callable[..., None] | None = None,
    ) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        wrapped = self.wrap(name, fn, on_call)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def unpatch(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
