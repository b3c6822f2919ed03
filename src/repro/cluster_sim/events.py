"""Event queue for the discrete-event simulator.

A thin, fully-tested priority queue over ``heapq`` with deterministic
ordering: events sort by time, then by kind priority (departures before
arrivals at the same instant, so a slot freed at time ``t`` can serve an
arrival at time ``t``), then by insertion order.

Heap entries are *plain tuples*: :class:`Event` is a ``NamedTuple``, so
``heapq`` compares ``(time, kind, seq, payload)`` tuples through CPython's
fast C tuple comparison instead of dataclass ``__lt__`` dispatch.  The
``seq`` tiebreak is unique per queue, so comparison never reaches the
payload.  The optimized kernel keeps its own bare-tuple heap in the same
order; this queue serves the clarity-first reference loop.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, NamedTuple

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.IntEnum):
    """Event kinds; the integer value is the same-time tiebreak priority.

    At one instant: departures release bandwidth first (so a slot freed at
    ``t`` can serve an arrival at ``t``), then recoveries bring servers
    back, then failures take servers down (a stream ending exactly at the
    crash ends gracefully, and a repair completing exactly at a new crash
    of the same server yields an instantaneous up-flicker rather than a
    contradiction), and arrivals are admitted last.
    """

    DEPARTURE = 0
    #: RECOVERY sorts before FAILURE so a crash scheduled at the exact
    #: repair instant of the same server hits an *up* (and empty) server.
    RECOVERY = 1
    FAILURE = 2
    ARRIVAL = 3
    #: Failover retry of a rejected request (chaos extension); after every
    #: state-changing kind so the retry sees the instant's settled state.
    RETRY = 6
    #: Re-replication copy completion (repair-driven replica restore).
    REPLICATE = 7


class Event(NamedTuple):
    """A scheduled event — a plain tuple with named fields.

    The unique ``seq`` makes ordering total before the payload is ever
    compared, preserving the old dataclass semantics (payload excluded
    from ordering) for every entry produced through :meth:`EventQueue.push`.
    """

    time: float
    kind: EventKind
    seq: int
    payload: Any = None


class EventQueue:
    """Deterministic min-heap of :class:`Event` tuples."""

    __slots__ = ("heap", "_counter")

    def __init__(self) -> None:
        self.heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> None:
        """Schedule an event; time must be finite and >= 0."""
        if not (time >= 0.0) or time != time or time == float("inf"):
            raise ValueError(f"event time must be finite and >= 0, got {time!r}")
        heapq.heappush(self.heap, Event(time, kind, next(self._counter), payload))

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self.heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self.heap)

    def peek(self) -> Event:
        """Return (without removing) the earliest event."""
        if not self.heap:
            raise IndexError("peek on empty EventQueue")
        return self.heap[0]

    def pop_until(self, time: float) -> list[Event]:
        """Pop all events with ``event.time <= time``, in order."""
        events: list[Event] = []
        heap = self.heap
        while heap and heap[0][0] <= time:
            events.append(heapq.heappop(heap))
        return events

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)
