"""Generic Metropolis simulated-annealing engine.

The engine is problem-agnostic: anything implementing the
:class:`AnnealingProblem` protocol (initial state, cost, neighborhood
proposal) can be annealed.  Design choices mirror what the paper delegates
to the ``parsa`` library: temperature levels with a fixed number of steps
each, Metropolis acceptance, best-so-far tracking, and stall-based
termination.

Incremental (delta-cost) protocol
---------------------------------
Re-copying and re-scanning the full state on every Metropolis step makes
``cost`` the dominant term of a run.  A problem may therefore opt into the
incremental interface by providing ``make_incremental(state)`` returning an
:class:`IncrementalContext`: a mutable view of one annealing trajectory that
proposes moves in place, returns the cost delta in O(touched entries),
and either commits or rolls the move back exactly (bitwise state
restoration).  The engine uses the context automatically when present;
problems that do not opt in anneal through the original full-recompute
loop, which is also the cross-check oracle for the incremental path
(``tests/test_annealing_incremental.py``).

Contract for contexts:

* ``propose(rng)`` must consume random numbers exactly like the problem's
  ``propose`` so the two paths follow statistically identical trajectories,
  and may call only ``rng.integers(n)`` and ``rng.random()``: the
  incremental loop hands out a :class:`~repro.annealing.draws.DrawStream`
  (see below), which serves no other method;
* ``rollback()`` must restore the state bitwise;
* cached floats may drift from full recomputation by accumulation error,
  so the engine calls ``resync()`` at every level boundary and recomputes
  the final best cost with ``problem.cost``.

One context serves the whole run.  The ``T0`` calibration walk runs on
the same context as the Metropolis loop, between ``begin_walk()`` and
``end_walk()``.  The walk accepts every move, so the states it visits do
not depend on their costs; ``end_walk`` returns the exact cost of each
(bitwise ``problem.cost``, not a cached delta) and undoes the walk, so
the loop starts from a context equal bit for bit to a fresh
``make_incremental(state)``.  For the scalable-rate problem the exact
costing reads each walk state as the start plus the rows its moves
touched: counts and rate row sums come from those row versions alone
(the same contiguous-row ``sum`` as ``problem.cost``), and the loads are
folded over videos in an ``(M, K, N)`` layout, instead of ``K * M``
reductions only ``N`` long.  The full walk, one
``problem.cost`` per state, stays the oracle and gives the same ``T0``.

Random draws
------------
On a ``PCG64`` generator the incremental path draws through a
:class:`~repro.annealing.draws.DrawStream`: ``integers(n)`` and
``random()`` served from blocks of raw words, bit for bit as the
``Generator`` would serve them, without numpy's per-call dispatch.  On
return, also when the run raises, the caller's generator stands exactly
where unbuffered calls would have left it.  Any other generator is used
as given.  The full loop always calls the ``Generator`` itself, so the
full/incremental cross-checks also test the stream against numpy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .._validation import check_int_in_range, check_non_negative
from .draws import buffered_draws
from .schedule import CoolingSchedule, GeometricCooling, estimate_initial_temperature

__all__ = [
    "AnnealingProblem",
    "AnnealingResult",
    "IncrementalContext",
    "SimulatedAnnealer",
]


@runtime_checkable
class AnnealingProblem(Protocol):
    """Problem interface consumed by :class:`SimulatedAnnealer`."""

    def initial_state(self, rng: np.random.Generator) -> Any:
        """A feasible starting state."""
        ...

    def cost(self, state: Any) -> Any:
        """Cost to minimize (for Eq. 1, the negated objective)."""
        ...

    def propose(self, state: Any, rng: np.random.Generator) -> Any | None:
        """A feasible neighbor of *state*, or None if the move fell through."""
        ...


@runtime_checkable
class IncrementalContext(Protocol):
    """One trajectory's mutable state plus O(touched) move evaluation.

    Obtained from an opted-in problem's ``make_incremental(state)``; see the
    module docstring for the drift/rng contract.
    """

    def cost(self) -> float:
        """Cost of the current state (from caches; O(servers))."""
        ...

    def propose(self, rng: np.random.Generator) -> float | None:
        """Apply one pending move in place; return its cost delta.

        Returns None when the move fell through (state unchanged).  The
        move stays pending until :meth:`commit` or :meth:`rollback`.
        """
        ...

    def commit(self) -> None:
        """Keep the pending move."""
        ...

    def rollback(self) -> None:
        """Undo the pending move exactly (bitwise state restoration)."""
        ...

    def resync(self) -> None:
        """Clear float drift from the cached costs.

        Only the float caches need rebuilding from the state; exact
        bookkeeping (indices, counts) must already be exact after every
        ``commit`` and ``rollback``.
        """
        ...

    def export_state(self) -> Any:
        """An independent copy of the current state."""
        ...

    def begin_walk(self) -> None:
        """Start an accept-all walk from the current state (``T0``)."""
        ...

    def end_walk(self) -> Any:
        """End the walk: return the exact costs of its start and of every
        state it committed, in order, each bitwise equal to
        ``problem.cost`` of that state, and undo its moves, leaving the
        context bitwise as it was at :meth:`begin_walk`."""
        ...


@dataclass(frozen=True)
class AnnealingResult:
    """Outcome of one annealing run."""

    best_state: Any = field(repr=False)
    best_cost: float
    final_cost: float
    levels: int
    steps: int
    accepted: int
    cost_history: list[float] = field(repr=False, default_factory=list)
    #: Wall-clock duration of the run (calibration included).
    wall_time_sec: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposed moves accepted across the whole run."""
        return self.accepted / self.steps if self.steps else 0.0

    @property
    def steps_per_sec(self) -> float:
        """Metropolis throughput of the run (0 when too fast to measure)."""
        return self.steps / self.wall_time_sec if self.wall_time_sec > 0 else 0.0


def _starting_state(
    problem: AnnealingProblem,
    rng: np.random.Generator,
    initial_state: Any | None,
) -> Any:
    """Fresh state from the problem, or a private copy of the incumbent."""
    if initial_state is None:
        return problem.initial_state(rng)
    copy = getattr(initial_state, "copy", None)
    return copy() if callable(copy) else initial_state


class SimulatedAnnealer:
    """Metropolis annealer with level-based cooling and stall detection.

    Parameters
    ----------
    schedule:
        Cooling schedule; when None, ``T0`` is calibrated from a random
        walk at run time (the usual parsa-style automatic setup) and a
        geometric schedule is used.
    steps_per_level:
        Metropolis steps at each temperature level.
    max_levels:
        Hard cap on cooling levels.
    patience_levels:
        Stop after this many consecutive levels without improving the best
        cost (0 disables stalling-based termination).
    """

    def __init__(
        self,
        schedule: CoolingSchedule | None = None,
        *,
        steps_per_level: int = 200,
        max_levels: int = 200,
        patience_levels: int = 25,
    ) -> None:
        check_int_in_range("steps_per_level", steps_per_level, 1)
        check_int_in_range("max_levels", max_levels, 1)
        check_non_negative("patience_levels", patience_levels)
        self._schedule = schedule
        self._steps_per_level = int(steps_per_level)
        self._max_levels = int(max_levels)
        self._patience = int(patience_levels)

    # ------------------------------------------------------------------
    def _calibrate_schedule(
        self,
        problem: AnnealingProblem,
        state: Any,
        rng: np.random.Generator,
        *,
        context: IncrementalContext | None = None,
    ) -> CoolingSchedule:
        """Sample uphill deltas from a short random walk to pick ``T0``.

        The walk accepts every proposal, so the states it visits do not
        depend on their costs.  With a *context* (the run's own, from the
        problem's ``make_incremental``) its moves run through the context
        and ``end_walk`` costs the visited states and undoes the walk;
        otherwise every step is a full ``propose`` costed on its own (the
        oracle).  Either way each state gets its exact cost rather than a
        cached delta: only the *uphill* deltas count, and a move that
        leaves the cost unchanged must stay exactly zero, which a cached
        delta's float drift does not guarantee.  Both walks draw the same
        random numbers, so they give the same ``T0``.
        """
        if context is not None:
            context.begin_walk()
            for _ in range(64):
                if context.propose(rng) is not None:
                    context.commit()
            deltas = np.diff(context.end_walk()).tolist()
        else:
            cost = problem.cost(state)
            deltas = []
            current = state
            for _ in range(64):
                neighbor = problem.propose(current, rng)
                if neighbor is None:
                    continue
                new_cost = problem.cost(neighbor)
                deltas.append(new_cost - cost)
                current, cost = neighbor, new_cost
        if not deltas:
            # Every proposal fell through (e.g. a fully saturated state
            # whose repairs always fail): there is no uphill statistics to
            # calibrate from.  A unit temperature keeps early acceptance
            # permissive instead of freezing the search at the 1e-6 floor.
            return GeometricCooling(1.0)
        initial = estimate_initial_temperature(np.asarray(deltas, dtype=np.float64))
        return GeometricCooling(max(initial, 1e-6))

    # ------------------------------------------------------------------
    def run(
        self,
        problem: AnnealingProblem,
        rng: np.random.Generator,
        *,
        record_history: bool = True,
        use_incremental: bool = True,
        observer=None,
        initial_state: Any | None = None,
    ) -> AnnealingResult:
        """Anneal *problem* and return the best state found.

        When the problem provides ``make_incremental`` (see
        :class:`IncrementalContext`) and ``use_incremental`` is True, moves
        are evaluated in O(touched entries); pass ``use_incremental=False``
        to force the full-recompute loop (the cross-check reference).

        ``initial_state`` warm-starts the chain from an incumbent instead
        of ``problem.initial_state(rng)`` (the incumbent is copied, never
        mutated).  Warm-started runs carry a *never-worse* guarantee: the
        returned ``best_state`` costs no more than the incumbent — if the
        walk only went uphill, the incumbent itself is returned.

        ``observer`` (an optional, duck-typed
        :class:`repro.observe.Observer`) records one event per temperature
        level — temperature, current/best cost, per-level acceptance ratio
        — plus a run-summary event.  The annealing trajectory is
        observer-independent: hooks fire at level boundaries only and
        consume no randomness.
        """
        start_wall = time.perf_counter()
        make_incremental = getattr(problem, "make_incremental", None)
        if use_incremental and make_incremental is not None:
            state = _starting_state(problem, rng, initial_state)
            with buffered_draws(rng) as draws:
                result = self._run_incremental(
                    problem, draws, state, record_history, observer
                )
        else:
            result = self._run_full(
                problem, rng, record_history, observer, initial_state
            )
        best_state, best_cost = result.best_state, result.best_cost
        if initial_state is not None:
            # Never-worse guarantee: cached-cost drift in the incremental
            # loop could otherwise let a recomputed best exceed the
            # incumbent by float noise.
            incumbent_cost = problem.cost(initial_state)
            if incumbent_cost < best_cost:
                copy = getattr(initial_state, "copy", None)
                best_state = copy() if callable(copy) else initial_state
                best_cost = incumbent_cost
        wall = time.perf_counter() - start_wall
        result = AnnealingResult(
            best_state=best_state,
            best_cost=best_cost,
            final_cost=result.final_cost,
            levels=result.levels,
            steps=result.steps,
            accepted=result.accepted,
            cost_history=result.cost_history,
            wall_time_sec=wall,
        )
        if observer is not None:
            observer.sa_run_finished(result)
        return result

    # ------------------------------------------------------------------
    def _run_full(
        self,
        problem: AnnealingProblem,
        rng: np.random.Generator,
        record_history: bool,
        observer=None,
        initial_state: Any | None = None,
    ) -> AnnealingResult:
        """The original copy-and-rescan Metropolis loop."""
        state = _starting_state(problem, rng, initial_state)
        cost = problem.cost(state)
        best_state, best_cost = state, cost

        schedule = self._schedule or self._calibrate_schedule(problem, state, rng)

        history: list[float] = [cost] if record_history else []
        steps = 0
        accepted = 0
        stall = 0
        level = 0
        for level in range(self._max_levels):
            temperature = schedule.temperature(level)
            improved_this_level = False
            steps_before, accepted_before = steps, accepted
            for _ in range(self._steps_per_level):
                neighbor = problem.propose(state, rng)
                steps += 1
                if neighbor is None:
                    continue
                new_cost = problem.cost(neighbor)
                delta = new_cost - cost
                if delta <= 0.0 or (
                    temperature > 0.0
                    and rng.random() < np.exp(-delta / temperature)
                ):
                    state, cost = neighbor, new_cost
                    accepted += 1
                    if cost < best_cost:
                        best_state, best_cost = state, cost
                        improved_this_level = True
            if record_history:
                history.append(cost)
            if observer is not None:
                observer.sa_level(
                    level=level,
                    temperature=temperature,
                    cost=cost,
                    best_cost=best_cost,
                    steps=steps - steps_before,
                    accepted=accepted - accepted_before,
                )
            stall = 0 if improved_this_level else stall + 1
            if self._patience and stall >= self._patience:
                break
            if schedule.is_frozen(level):
                break

        return AnnealingResult(
            best_state=best_state,
            best_cost=best_cost,
            final_cost=cost,
            levels=level + 1,
            steps=steps,
            accepted=accepted,
            cost_history=history,
        )

    # ------------------------------------------------------------------
    def _run_incremental(
        self,
        problem: AnnealingProblem,
        rng,
        state: Any,
        record_history: bool,
        observer=None,
    ) -> AnnealingResult:
        """Delta-cost Metropolis loop over an :class:`IncrementalContext`,
        from *state*, drawing from *rng* (a draw stream on ``PCG64``)."""
        context: IncrementalContext = problem.make_incremental(state)
        schedule = self._schedule or self._calibrate_schedule(
            problem, state, rng, context=context
        )
        cost = context.cost()
        best_state = context.export_state()
        best_cost = cost

        history: list[float] = [cost] if record_history else []
        steps = 0
        accepted = 0
        stall = 0
        level = 0
        exp = math.exp
        random = rng.random
        for level in range(self._max_levels):
            temperature = schedule.temperature(level)
            improved_this_level = False
            steps_before, accepted_before = steps, accepted
            for _ in range(self._steps_per_level):
                delta = context.propose(rng)
                steps += 1
                if delta is None:
                    continue
                # Same rng discipline as the full loop: random() is drawn
                # only for uphill moves at positive temperature.
                if delta <= 0.0 or (
                    temperature > 0.0 and random() < exp(-delta / temperature)
                ):
                    context.commit()
                    cost += delta
                    accepted += 1
                    if cost < best_cost:
                        best_state = context.export_state()
                        best_cost = cost
                        improved_this_level = True
                else:
                    context.rollback()
            # Clear accumulated float drift before it can affect the next
            # level's accept/reject decisions.
            context.resync()
            cost = context.cost()
            if record_history:
                history.append(cost)
            if observer is not None:
                observer.sa_level(
                    level=level,
                    temperature=temperature,
                    cost=cost,
                    best_cost=best_cost,
                    steps=steps - steps_before,
                    accepted=accepted - accepted_before,
                )
            stall = 0 if improved_this_level else stall + 1
            if self._patience and stall >= self._patience:
                break
            if schedule.is_frozen(level):
                break

        # Report drift-free costs: both are full recomputations.
        best_cost = problem.cost(best_state)
        return AnnealingResult(
            best_state=best_state,
            best_cost=best_cost,
            final_cost=problem.cost(context.export_state()),
            levels=level + 1,
            steps=steps,
            accepted=accepted,
            cost_history=history,
        )
