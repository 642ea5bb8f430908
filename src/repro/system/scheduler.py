"""The system tier's discrete-event scheduler: one ``heapq`` loop.

Events are ``(when, tie, fn, arg)`` tuples on a binary heap and pop in
``(when, tie)`` order.  The tie counter is drawn per schedule, so
equal-time events fire in insertion order - including a same-timestamp
event scheduled from inside a firing callback, which joins the back of
its slot.  uqSim and CloudNativeSim both make the point that the
scheduler of a microservice-graph simulation must be cheap; with the
tens of live events the fleet and chaos tiers hold, C ``heapq`` is.

``schedule(when, fn, *args)`` fires ``fn(when, *args)``, and
``schedule1(when, fn, arg)`` is the allocation-free fast path for the
one-argument callbacks that dominate the hot loops (station batch
completions and flush timers).  Zero- and multi-argument events are
boxed in an :class:`_Args` so the common event never packs a tuple.

``max_events`` arms a bounded-progress guard: instead of spinning
forever on a pathological schedule (a retry storm, or a future
self-rescheduling callback bug), ``run`` raises a diagnosable
:class:`SimulationLimitError` naming the hottest callback owner.
Accounting is O(1) per event (a counter keyed on the callback object);
owner names are resolved only on the overflow diagnostic path.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..sanitize import check, sanitizer_enabled

__all__ = [
    "SimulationLimitError",
    "Simulator",
]


class SimulationLimitError(RuntimeError):
    """The event-count ceiling was hit: the simulation is (probably)
    stuck in a self-rescheduling loop, e.g. an unbounded retry storm."""


class _Args:
    """Boxed argument tuple for the rare zero- or multi-argument
    schedule call (so the common one-argument event never packs a
    tuple): a boxed ``args`` fires ``fn(when, *args)``."""

    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


class Simulator:
    """Deterministic ``heapq`` event loop.

    Fires ``fn(when, *args)`` per event, breaks equal-time ties by
    insertion order and honors ``max_events``.  An invalid past-time
    schedule (the sanitizer rejects it) pops next, before anything
    later.
    """

    __slots__ = ("now", "max_events", "_events", "_tie", "_san")

    def __init__(self, max_events: Optional[int] = None):
        self._events: List[Tuple[float, int, Callable, object]] = []
        self._tie = 0
        self.now = 0.0
        self.max_events = max_events
        self._san = sanitizer_enabled()

    def schedule1(self, when: float, fn: Callable, arg) -> None:
        if self._san:
            check(when >= self.now,
                  "simulator: event scheduled into the past "
                  "(%f before now=%f)", when, self.now)
        self._tie += 1
        heappush(self._events, (when, self._tie, fn, arg))

    def schedule(self, when: float, fn: Callable, *args) -> None:
        if len(args) == 1:
            self.schedule1(when, fn, args[0])
        else:
            self.schedule1(when, fn, _Args(args))

    def run(self, max_events: Optional[int] = None) -> None:
        limit = max_events if max_events is not None else self.max_events
        if limit is not None:
            self._run_bounded(limit)
            return
        events = self._events
        pop = heappop
        san = self._san
        while events:
            when, _t, fn, arg = pop(events)
            if san:
                check(when >= self.now,
                      "simulator: time ran backwards (%f after %f)",
                      when, self.now)
            self.now = when
            if arg.__class__ is _Args:
                fn(when, *arg.args)
            else:
                fn(when, arg)

    def _run_bounded(self, limit: int) -> None:
        events = self._events
        pop = heappop
        san = self._san
        fired: Counter = Counter()
        n = 0
        while events:
            when, _t, fn, arg = pop(events)
            if san:
                check(when >= self.now,
                      "simulator: time ran backwards (%f after %f)",
                      when, self.now)
            n += 1
            if n > limit:
                self.now = when
                self._raise_limit(fired, limit, when, len(events))
            fired[fn] += 1
            self.now = when
            if arg.__class__ is _Args:
                fn(when, *arg.args)
            else:
                fn(when, arg)

    # -- diagnostics -----------------------------------------------------
    @staticmethod
    def _owner_name(fn: Callable) -> str:
        fn = getattr(fn, "__wrapped__", fn)
        owner = getattr(fn, "__self__", None)
        name = getattr(owner, "name", None)
        if isinstance(name, str):
            return f"station {name!r}"
        return getattr(fn, "__qualname__", repr(fn))

    def _raise_limit(self, fired: Counter, limit: int, now: float,
                     n_queued: int) -> None:
        by_owner: Counter = Counter()
        for fn, hits in fired.items():
            by_owner[self._owner_name(fn)] += hits
        hot, hits = by_owner.most_common(1)[0]
        raise SimulationLimitError(
            f"simulation exceeded {limit} events at "
            f"t={now:.1f}us with {n_queued} still queued; "
            f"hottest callback: {hot} ({hits} of {limit} events). "
            f"Likely an unbounded retry/reschedule loop.")
