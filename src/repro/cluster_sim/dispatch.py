"""Request-dispatch policies.

The paper's model assumes a *static round-robin* scheduling policy among the
replicas of a video (Sec. 3.2): the dispatcher cycles through the replica
holders per video regardless of their current load, and the admission
control rejects the request if the selected server lacks bandwidth.  That
policy is what makes the per-replica communication weight ``w_i = p_i /
r_i`` the right placement currency, and it is the default in the
reproduction.

Two dynamic policies are provided for the ablation study (E7): least-loaded
(among holders) and first-fit.  Dynamic policies return multiple candidates;
the simulator admits on the first with free bandwidth.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence

from ..model.layout import ReplicaLayout
from .server import StreamingServer

__all__ = [
    "Dispatcher",
    "StaticRoundRobinDispatcher",
    "LeastLoadedDispatcher",
    "FirstFitDispatcher",
    "DISPATCHERS",
    "make_dispatcher_factory",
    "failover_order",
]


def failover_order(
    holders: Sequence[int], servers: Sequence[StreamingServer]
) -> list[int]:
    """Retry order for failover dispatch: least utilized holder first.

    A stable sort, so equal-utilization holders keep ascending-id order —
    the same tie rule as :class:`LeastLoadedDispatcher`.  Failover
    retries in both simulator loops, the optimized loop's wait-queue
    starts and the reference loop's redirection delegate all choose
    through this single helper, which keeps the loops' choices
    bit-identical by construction.
    """
    return sorted(holders, key=lambda s: servers[s].utilization)


class Dispatcher(abc.ABC):
    """Maps a request for a video to an ordered list of candidate servers.

    A dispatcher instance holds per-run state (e.g. round-robin counters)
    and must not be shared across simulation runs; use
    :func:`make_dispatcher_factory` to create one per run.
    """

    #: Short machine-friendly name used in experiment tables.
    name: str = "dispatcher"

    def __init__(self, layout: ReplicaLayout) -> None:
        # Plain-int holder tuples, built once per layout and shared by
        # every dispatcher and simulator over it.
        self._servers_of = layout.holder_lists

    def holders(self, video: int) -> tuple[int, ...]:
        """Servers holding a replica of *video* (ascending ids)."""
        return self._servers_of[video]

    @abc.abstractmethod
    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        """Ordered candidate servers for a request (may be empty)."""


class StaticRoundRobinDispatcher(Dispatcher):
    """The paper's policy: cycle replicas per video, single candidate.

    The counter advances on every request (admitted or not) — the policy is
    static, so a rejection does not re-route to another replica.
    """

    name = "static_rr"

    def __init__(self, layout: ReplicaLayout) -> None:
        super().__init__(layout)
        self._counters = [0] * layout.num_videos

    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        del servers  # static: ignores load
        holders = self._servers_of[video]
        if not holders:
            return ()
        counters = self._counters
        index = counters[video]
        counters[video] = index + 1
        return (holders[index % len(holders)],)


class LeastLoadedDispatcher(Dispatcher):
    """Dynamic policy: try holders from least to most utilized."""

    name = "least_loaded"

    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        holders = self._servers_of[video]
        if not holders:
            return ()
        # Stable sort == np.argsort(kind="stable"): equal-utilization
        # holders keep ascending-id order.
        return sorted(holders, key=lambda s: servers[s].utilization)


class FirstFitDispatcher(Dispatcher):
    """Dynamic policy: try holders in fixed (server-id) order."""

    name = "first_fit"

    def candidates(
        self, video: int, servers: Sequence[StreamingServer]
    ) -> Sequence[int]:
        del servers
        return list(self._servers_of[video])


#: Dispatchers by name, the paper's static policy first.  The facade
#: configs, the CLI choices and the verification samplers read this order.
DISPATCHERS = {
    cls.name: cls
    for cls in (
        StaticRoundRobinDispatcher,
        LeastLoadedDispatcher,
        FirstFitDispatcher,
    )
}


def make_dispatcher_factory(
    kind: str,
) -> Callable[[ReplicaLayout], Dispatcher]:
    """Factory by name: one of :data:`DISPATCHERS` (``static_rr`` default)."""
    try:
        return DISPATCHERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown dispatcher {kind!r}; choose from {sorted(DISPATCHERS)}"
        ) from None
