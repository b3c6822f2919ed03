"""Per-epoch workload construction for the serving control plane.

Epochs tile a repeating "day" of ``day_epochs`` epochs.  Over each day
the arrival rate follows the diurnal trapezoid of
:func:`repro.workload.arrivals.peak_profile` — base rate in the first
eighth of the day, a linear climb to the peak by 3/8, a hold through
5/8 and a fall back to base by 7/8 — and an epoch samples the slice of
that profile it covers via NHPP thinning.  Flash-crowd epochs multiply
the instantaneous rate over the epoch's middle third.

Determinism: every epoch draws from its own spawned child stream —

* workload:  ``SeedSequence(seed, spawn_key=(0x5E12, epoch))``
* drift:     ``SeedSequence(seed, spawn_key=(0xD21F, epoch))``
* chaos:     the :class:`repro.cluster_sim.FailureSpec` key
  ``(0xFA11, epoch)`` (the epoch is the spec's run index)

so epoch ``e``'s trace is independent of every other epoch, of the
epoch count, and of whatever the controller decided in between — which
is exactly what makes the control loop bit-identical to a manually
chained batch of :meth:`VoDClusterSimulator.run` calls when re-planning
and elasticity are disabled.
"""

from __future__ import annotations

import numpy as np

from ..popularity import PopularityModel
from ..workload import (
    NonHomogeneousPoissonArrivals,
    RequestTrace,
    WorkloadGenerator,
)
from .config import ServingConfig

__all__ = [
    "epoch_rng",
    "epoch_arrivals",
    "epoch_offered_rate",
    "epoch_offered_rates",
    "epoch_trace",
    "epoch_traces",
    "evolve_popularity",
    "WORKLOAD_TAG",
    "DRIFT_TAG",
]

#: Spawn-key tags; disjoint from the trial workload keys (plain run
#: indices), the chaos tag ``0xFA11`` and the shard tags.
WORKLOAD_TAG = 0x5E12
DRIFT_TAG = 0xD21F

#: Diurnal trapezoid breakpoints as fractions of the day.
_RAMP_START, _PEAK_START, _PEAK_END, _RAMP_END = 0.125, 0.375, 0.625, 0.875


def epoch_rng(
    seed: int, epoch: int, tag: int, shard: int = 0
) -> np.random.Generator:
    """The epoch's private random stream for one purpose *tag*.

    Shard 0 keeps the historical key ``(tag, epoch)`` (bit-identical to
    unsharded serving); shard ``k >= 1`` extends it to
    ``(tag, epoch, k)`` — independent per shard and independent of the
    shard count.
    """
    key = (int(tag), int(epoch))
    if shard:
        key = (*key, int(shard))
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=key)
    )


def _day_rate_fn(config: ServingConfig):
    """The trapezoidal day profile as a vectorized rate(t_abs) callable."""
    day_min = config.day_epochs * config.resolved_epoch_minutes
    xp = np.array([_RAMP_START, _PEAK_START, _PEAK_END, _RAMP_END]) * day_min
    fp = np.array(
        [
            config.base_rate_per_min,
            config.peak_rate_per_min,
            config.peak_rate_per_min,
            config.base_rate_per_min,
        ]
    )

    def rate_fn(t_abs: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(t_abs, dtype=np.float64), xp, fp)

    return rate_fn


def _epoch_rate_fn(config: ServingConfig, epoch: int):
    """Instantaneous rate over the epoch-local time axis + its envelope."""
    epoch_min = config.resolved_epoch_minutes
    offset = (int(epoch) % config.day_epochs) * epoch_min
    day_rate = _day_rate_fn(config)
    flash = int(epoch) in config.flash_epochs
    lo, hi = epoch_min / 3.0, 2.0 * epoch_min / 3.0

    def rate_fn(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        rate = day_rate(offset + t)
        if flash:
            rate = np.where(
                (t >= lo) & (t < hi), rate * config.flash_multiplier, rate
            )
        return rate

    envelope = config.peak_rate_per_min * (
        config.flash_multiplier if flash else 1.0
    )
    return rate_fn, envelope


def epoch_arrivals(
    config: ServingConfig, epoch: int
) -> NonHomogeneousPoissonArrivals:
    """The NHPP arrival process of one epoch (diurnal slice + flash)."""
    rate_fn, envelope = _epoch_rate_fn(config, epoch)
    return NonHomogeneousPoissonArrivals(rate_fn, envelope)


def epoch_offered_rate(config: ServingConfig, epoch: int) -> float:
    """Time-averaged offered arrival rate (req/min) of one epoch.

    Deterministic (trapezoid integral on a fixed grid) — used for
    reporting and as the surrogate screen's workload rate.
    """
    rate_fn, _ = _epoch_rate_fn(config, epoch)
    grid = np.linspace(0.0, config.resolved_epoch_minutes, 721)
    return float(
        np.trapezoid(rate_fn(grid), grid) / config.resolved_epoch_minutes
    )


def epoch_offered_rates(config: ServingConfig) -> list[float]:
    """:func:`epoch_offered_rate` of every epoch of *config*, in order.

    The rate depends only on the epoch's day slot and whether it is a flash
    epoch, so each distinct pair is integrated once.
    """
    rates: dict[tuple[int, bool], float] = {}
    out = []
    for epoch in range(config.epochs):
        key = (epoch % config.day_epochs, epoch in config.flash_epochs)
        if key not in rates:
            rates[key] = epoch_offered_rate(config, epoch)
        out.append(rates[key])
    return out


def epoch_trace(
    config: ServingConfig,
    epoch: int,
    probabilities: np.ndarray,
    shard: int = 0,
) -> RequestTrace:
    """Generate epoch ``epoch``'s request trace for a true popularity.

    Uses only ``(config, epoch, probabilities, shard)`` — not controller
    state — so manually chained batch epochs regenerate the identical
    trace.  ``shard`` selects the sub-stream of a sharded epoch (see
    :func:`epoch_rng`); each shard draws a full-rate trace.
    """
    generator = WorkloadGenerator(
        PopularityModel.from_probabilities(probabilities),
        epoch_arrivals(config, epoch),
    )
    return generator.generate(
        config.resolved_epoch_minutes,
        epoch_rng(config.resolved_seed, epoch, WORKLOAD_TAG, shard),
    )


def epoch_traces(
    config: ServingConfig, epoch: int, probabilities: np.ndarray
) -> list[RequestTrace]:
    """All ``config.shards`` sub-stream traces of one epoch, in shard
    order (a one-element list for unsharded configs)."""
    return [
        epoch_trace(config, epoch, probabilities, shard)
        for shard in range(config.shards)
    ]


def evolve_popularity(
    config: ServingConfig, epoch: int, probabilities: np.ndarray
) -> np.ndarray:
    """One drift step into *epoch* (epoch 0 keeps the prior unchanged)."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if epoch == 0 or config.drift is None:
        return probs.copy()
    return config.drift.evolve(
        probs, epoch_rng(config.resolved_seed, epoch, DRIFT_TAG)
    )
