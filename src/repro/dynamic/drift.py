"""Popularity-drift models for non-stationary workloads.

Each model maps the popularity vector of one epoch to the next.  All
models preserve the probability-vector invariant; they differ in *how*
popularity moves:

* :class:`NoDrift` — the paper's stationary assumption.
* :class:`RankSwapDrift` — gradual churn: random adjacent-rank swaps, the
  catalogue's order erodes slowly.
* :class:`ReleaseChurnDrift` — new releases: random titles jump to the
  popularity of a top title (and mass renormalizes), modelling weekly
  catalogue refreshes — the drift that hurts a stale replication plan
  most.
* :class:`LognormalDrift` — diffuse multiplicative noise on every title.
"""

from __future__ import annotations

import abc

import numpy as np

from .._validation import (
    check_in_range,
    check_int_in_range,
    check_non_negative,
    check_probability_vector,
)

__all__ = [
    "PopularityDrift",
    "NoDrift",
    "RankSwapDrift",
    "ReleaseChurnDrift",
    "LognormalDrift",
    "DriftDetector",
]


class PopularityDrift(abc.ABC):
    """One-epoch evolution of a popularity vector."""

    @abc.abstractmethod
    def evolve(
        self, probabilities: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return the next epoch's popularity vector."""

    def _validated(self, probabilities: np.ndarray) -> np.ndarray:
        return check_probability_vector("probabilities", probabilities)


class NoDrift(PopularityDrift):
    """Stationary popularity (the paper's assumption 1)."""

    def evolve(
        self, probabilities: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        del rng
        return self._validated(probabilities).copy()


class RankSwapDrift(PopularityDrift):
    """Swap the probabilities of random adjacent ranks ``swaps`` times."""

    def __init__(self, swaps: int) -> None:
        check_int_in_range("swaps", swaps, 0)
        self._swaps = int(swaps)

    def evolve(
        self, probabilities: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        probs = self._validated(probabilities).copy()
        if probs.size < 2:
            return probs
        positions = rng.integers(0, probs.size - 1, size=self._swaps)
        for pos in positions:
            probs[pos], probs[pos + 1] = probs[pos + 1], probs[pos]
        return probs


class ReleaseChurnDrift(PopularityDrift):
    """``releases`` random titles become hits each epoch.

    Each selected title's probability is replaced by that of a uniformly
    random top-decile title; the vector is renormalized.
    """

    def __init__(self, releases: int) -> None:
        check_int_in_range("releases", releases, 0)
        self._releases = int(releases)

    def evolve(
        self, probabilities: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        probs = self._validated(probabilities).copy()
        if self._releases == 0 or probs.size < 2:
            return probs
        top_decile = max(probs.size // 10, 1)
        top_values = np.sort(probs)[::-1][:top_decile]
        chosen = rng.choice(probs.size, size=min(self._releases, probs.size), replace=False)
        probs[chosen] = rng.choice(top_values, size=chosen.size)
        return probs / probs.sum()


class DriftDetector:
    """Scores how far an online estimate has moved from the popularity a
    layout was last planned for.

    The score is the total-variation distance ``0.5 * sum |p - q|`` —
    the largest probability mass any event set can disagree by, so it is
    in ``[0, 1]`` regardless of catalogue size and directly comparable
    to a threshold.  The serving control plane re-solves when the
    score strictly exceeds :attr:`threshold`.
    """

    def __init__(self, threshold: float = 0.10) -> None:
        check_in_range("threshold", threshold, 0.0, 1.0)
        self._threshold = float(threshold)

    @property
    def threshold(self) -> float:
        return self._threshold

    def score(self, planned: np.ndarray, estimate: np.ndarray) -> float:
        """Total-variation distance between two probability vectors."""
        planned = check_probability_vector("planned", planned)
        estimate = check_probability_vector("estimate", estimate)
        if planned.shape != estimate.shape:
            raise ValueError(
                f"planned and estimate disagree on M: {planned.shape} vs "
                f"{estimate.shape}"
            )
        return float(0.5 * np.abs(planned - estimate).sum())


class LognormalDrift(PopularityDrift):
    """Multiplicative log-normal noise with scale ``sigma`` per epoch."""

    def __init__(self, sigma: float) -> None:
        check_non_negative("sigma", sigma)
        self._sigma = float(sigma)

    def evolve(
        self, probabilities: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        probs = self._validated(probabilities)
        if self._sigma == 0.0:
            return probs.copy()
        noisy = probs * np.exp(self._sigma * rng.standard_normal(probs.size))
        return noisy / noisy.sum()
