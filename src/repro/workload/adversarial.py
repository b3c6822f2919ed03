"""Adversarial workload scenarios: popularity shifts mid-horizon.

Every replication strategy in this repo designs its layout against a
*stationary* popularity vector; this module generates the workloads that
break that assumption, so E17 (``experiments/cache_scale_sweep.py``) and
the differential fuzzer (``python -m repro.verify.fuzz --adversarial``)
can measure which strategies degrade gracefully.  Three shift kinds:

* ``inversion`` — at ``flip_at_frac`` of the horizon the popularity
  ranking reverses: the hottest video swaps probability with the
  coldest, second-hottest with second-coldest, and so on.  The worst
  case for skew-exploiting schemes (the head's extra replicas idle
  while the single-replica tail melts).
* ``hotset_flip`` — only the top-``hotset_size`` and the bottom-
  ``hotset_size`` videos trade probabilities; the middle is untouched.
  Models a flash crowd landing on archival content.
* ``theta_ramp`` — the Zipf skew drifts from ``theta_start`` to
  ``theta_end`` over the horizon in ``ramp_segments`` piecewise-constant
  steps (the heavy-tail sweep ``0 -> 1.2``); rank order is preserved but
  the mass concentration the layout was tuned for is wrong almost
  everywhere.

The generated :class:`~repro.workload.requests.RequestTrace` is
deterministic in ``(spec, rng)``: arrivals are sampled first (one
Poisson stream for the whole horizon), then each segment's video choices
are drawn in time order from its segment distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive, check_probability_vector
from ..popularity import sample_choice, zipf_probabilities
from .arrivals import PoissonArrivals
from .requests import RequestTrace

__all__ = [
    "SHIFT_KINDS",
    "AdversarialSpec",
    "shifted_popularity",
    "popularity_schedule",
    "generate_adversarial_trace",
]

SHIFT_KINDS = ("inversion", "hotset_flip", "theta_ramp")


@dataclass(frozen=True)
class AdversarialSpec:
    """One adversarial popularity shift (see the module docstring)."""

    kind: str = "inversion"
    flip_at_frac: float = 0.5
    hotset_size: int = 10
    theta_start: float = 0.0
    theta_end: float = 1.2
    ramp_segments: int = 8

    def __post_init__(self) -> None:
        if self.kind not in SHIFT_KINDS:
            raise ValueError(
                f"unknown shift kind {self.kind!r}; "
                f"choose from {SHIFT_KINDS}"
            )
        if not 0.0 < self.flip_at_frac < 1.0:
            raise ValueError(
                f"flip_at_frac must be in (0, 1), got {self.flip_at_frac}"
            )
        if self.hotset_size < 1:
            raise ValueError(
                f"hotset_size must be >= 1, got {self.hotset_size}"
            )
        if self.theta_start < 0 or self.theta_end < 0:
            raise ValueError("theta_start/theta_end must be >= 0")
        if self.ramp_segments < 2:
            raise ValueError(
                f"ramp_segments must be >= 2, got {self.ramp_segments}"
            )

    def to_params(self) -> dict:
        """Flat JSON-ready dict (the fuzz-case parameter encoding)."""
        return {
            "adversarial_kind": self.kind,
            "adversarial_flip_at_frac": float(self.flip_at_frac),
            "adversarial_hotset_size": int(self.hotset_size),
            "adversarial_theta_start": float(self.theta_start),
            "adversarial_theta_end": float(self.theta_end),
            "adversarial_ramp_segments": int(self.ramp_segments),
        }

    @classmethod
    def from_params(cls, params: dict) -> "AdversarialSpec | None":
        """Inverse of :meth:`to_params`; ``None`` when the keys are absent."""
        kind = params.get("adversarial_kind")
        if kind is None:
            return None
        return cls(
            kind=str(kind),
            flip_at_frac=float(params.get("adversarial_flip_at_frac", 0.5)),
            hotset_size=int(params.get("adversarial_hotset_size", 10)),
            theta_start=float(params.get("adversarial_theta_start", 0.0)),
            theta_end=float(params.get("adversarial_theta_end", 1.2)),
            ramp_segments=int(params.get("adversarial_ramp_segments", 8)),
        )


def _rank_swapped(probs: np.ndarray, swap: int) -> np.ndarray:
    """Swap the probabilities of the ``swap`` hottest and coldest ranks."""
    order = np.argsort(-probs, kind="stable")
    shifted = probs.copy()
    shifted[order[:swap]] = probs[order[-swap:][::-1]]
    shifted[order[-swap:]] = probs[order[:swap][::-1]]
    return shifted


def shifted_popularity(
    probs: np.ndarray, spec: AdversarialSpec
) -> np.ndarray:
    """The *post-shift* popularity vector (what the layout never saw).

    For ``inversion``/``hotset_flip`` this is the distribution after the
    flip; for ``theta_ramp`` it is the ramp's final distribution
    (``Zipf(theta_end)``).
    """
    probs = check_probability_vector("popularity", probs)
    if spec.kind == "inversion":
        order = np.argsort(-probs, kind="stable")
        shifted = np.empty_like(probs)
        shifted[order] = probs[order[::-1]]
        return shifted
    if spec.kind == "hotset_flip":
        swap = min(int(spec.hotset_size), probs.size // 2)
        if swap == 0:
            return probs.copy()
        return _rank_swapped(probs, swap)
    return zipf_probabilities(probs.size, spec.theta_end)


def popularity_schedule(
    probs: np.ndarray, spec: AdversarialSpec
) -> "list[tuple[float, np.ndarray]]":
    """``(start_frac, distribution)`` segments covering ``[0, 1)``.

    Flips produce two segments; the ramp one per ``ramp_segments`` with
    the theta linearly interpolated at each segment's midpoint.
    """
    probs = check_probability_vector("popularity", probs)
    if spec.kind in ("inversion", "hotset_flip"):
        return [
            (0.0, probs.copy()),
            (float(spec.flip_at_frac), shifted_popularity(probs, spec)),
        ]
    segments = []
    num = int(spec.ramp_segments)
    for j in range(num):
        mid = (j + 0.5) / num
        theta = spec.theta_start + mid * (spec.theta_end - spec.theta_start)
        segments.append((j / num, zipf_probabilities(probs.size, theta)))
    return segments


def generate_adversarial_trace(
    probs: np.ndarray,
    rate_per_min: float,
    duration_min: float,
    spec: AdversarialSpec,
    rng: np.random.Generator,
) -> RequestTrace:
    """Sample one shifted-popularity trace over ``[0, duration_min)``."""
    check_positive("duration_min", duration_min)
    probs = check_probability_vector("popularity", probs)
    times = PoissonArrivals(rate_per_min).sample(duration_min, rng)
    videos = np.zeros(times.size, dtype=np.int64)
    schedule = popularity_schedule(probs, spec)
    bounds = [start * duration_min for start, _ in schedule] + [duration_min]
    for index, (_, segment_probs) in enumerate(schedule):
        lo, hi = bounds[index], bounds[index + 1]
        mask = (times >= lo) & (times < hi)
        count = int(mask.sum())
        if count:
            # The raw segment vector, not a PopularityModel: the model's
            # renormalisation would change the draws' bits.
            videos[mask] = sample_choice(segment_probs, count, rng)
    return RequestTrace(times, videos)
