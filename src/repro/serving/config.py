"""Configuration of the online serving control plane.

:class:`ServingConfig` is the serving analogue of
:class:`repro.pipeline.PipelineConfig`: one frozen value object holding
everything :class:`repro.serving.ServingControlPlane` needs — the design
point (theta, replication degree), the diurnal/flash arrival profile, the
popularity-drift process, the re-planning policy (drift detection +
migration budget), the SLO-elasticity policy and the chaos passthrough.

Determinism contract: every random stream the control plane consumes is
derived from ``SeedSequence(seed, spawn_key=...)`` with per-epoch spawn
keys (see :mod:`repro.serving.workload`), so a config replays
bit-identically — including across processes — which is what the scenario
corpus under ``tests/corpus/serving/`` pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .._validation import (
    check_in_range,
    check_int_in_range,
    check_non_negative,
)
from ..config_core import SimulationConfig, core_field_names
from ..dynamic.drift import (
    LognormalDrift,
    NoDrift,
    PopularityDrift,
    RankSwapDrift,
    ReleaseChurnDrift,
)
from ..dynamic.tracker import EwmaPopularityTracker

__all__ = ["ServingConfig", "parse_drift", "REPLAN_MODES"]

#: Re-planning policies: ``"drift"`` re-solves only when the drift score
#: crosses the threshold, ``"always"`` re-solves every warm epoch,
#: ``"never"`` freezes the bootstrap layout (the batch-equivalent mode).
REPLAN_MODES = ("drift", "always", "never")


_DRIFT_GRAMMAR = "none, rankswap:K, release:K or lognormal:SIGMA"

#: Drift kind -> (process, type of its number, number when omitted).
_DRIFT_KINDS = {
    "rankswap": (RankSwapDrift, int, 1),
    "release": (ReleaseChurnDrift, int, 1),
    "lognormal": (LognormalDrift, float, 0.1),
}


def parse_drift(text: str | None) -> PopularityDrift | None:
    """Parse a compact drift spec: ``none``, ``rankswap:K``,
    ``release:K`` or ``lognormal:SIGMA``."""
    if text is None:
        return None
    text = text.strip().lower()
    kind, _, value = text.partition(":")
    if kind in ("", "none"):
        return None
    if kind not in _DRIFT_KINDS:
        raise ValueError(f"unknown drift spec {text!r}; use {_DRIFT_GRAMMAR}")
    drift, number, default = _DRIFT_KINDS[kind]
    try:
        parsed = number(value) if value else default
    except ValueError:
        expected = "an integer" if number is int else "a number"
        raise ValueError(
            f"bad drift spec {text!r}: {value!r} is not {expected}; "
            f"use {_DRIFT_GRAMMAR}"
        ) from None
    return drift(parsed)


@dataclass(frozen=True)
class ServingConfig(SimulationConfig):
    """Everything one control-plane run needs.

    The simulation-facing knobs shared with the batch pipeline (theta,
    replication degree, dispatcher, **engine**, backbone, chaos stack,
    shards, setup) live on the common :class:`repro.config_core.
    SimulationConfig` base and are documented there.  ``shards`` splits
    every epoch's workload into that many full-rate sub-streams — shard
    0 regenerates the unsharded epoch trace, shard ``k >= 1`` draws from
    the extended spawn key ``(0x5E12, epoch, k)`` — simulated
    independently and merged (:func:`repro.cluster_sim.sharding.
    merge_results`) into one K-pod result per epoch.

    Attributes
    ----------
    epochs:
        Number of serving epochs (simulator runs on persistent state).
    epoch_minutes:
        Simulated length of one epoch; ``None`` takes the setup's peak.
    base_rate_per_min / peak_rate_per_min:
        The diurnal trapezoid's off-peak and peak arrival rates.  Epochs
        tile a "day" of ``day_epochs`` epochs; the rate ramps linearly
        from base to peak over the middle of each day (see
        :func:`repro.serving.workload.epoch_arrivals`).
    day_epochs:
        Diurnal cycle length in epochs.
    flash_epochs / flash_multiplier:
        Epoch indices hit by a flash crowd: the instantaneous rate is
        multiplied by ``flash_multiplier`` over the middle third of those
        epochs.
    drift:
        Ground-truth popularity evolution between epochs
        (:class:`repro.dynamic.PopularityDrift`); ``None`` is stationary.
    replan:
        ``"drift"`` | ``"always"`` | ``"never"`` (see :data:`REPLAN_MODES`).
    drift_threshold:
        Total-variation distance (estimate vs last-planned popularity)
        that triggers a re-solve in ``"drift"`` mode.
    tracker_alpha / tracker_smoothing:
        EWMA popularity-tracker parameters.
    move_budget:
        Max replicas copied per re-planning migration; ``None`` unlimited.
        Elasticity-driven migrations are exempt (shrinking a cluster must
        re-home replicas regardless).
    screen:
        Surrogate-screen each re-solve: keep the incumbent layout when
        the Erlang fixed point predicts the migrated layout is worse.
    anneal_polish / anneal_steps_per_level / anneal_max_levels:
        Warm-start SA polish of each re-solve: anneal from the migrated
        layout (never-worse by the engine's incumbent guarantee) and
        adopt the annealed layout when its copy count stays in budget.
    elastic:
        Enable SLO-driven server add/drain.
    slo_rejection_rate:
        The SLO target on per-epoch rejection rate.
    breach_epochs / relax_epochs / cooldown_epochs:
        Hysteresis: add after ``breach_epochs`` consecutive breaches,
        drain after ``relax_epochs`` consecutive epochs under half the
        SLO, and never act twice within ``cooldown_epochs`` epochs.
    min_servers / max_servers:
        Cluster-size bounds; ``None`` defaults to the setup's server
        count and twice it, respectively.
    seed:
        Root seed; ``None`` takes the setup's.

    The chaos spec builds per-epoch schedules with the epoch index as
    run index (spawn key ``(0xFA11, epoch)``; shard ``k >= 1`` extends
    it to ``(0xFA11, epoch, k)``).
    """

    epochs: int = 8
    epoch_minutes: float | None = None
    base_rate_per_min: float = 15.0
    peak_rate_per_min: float = 30.0
    day_epochs: int = 4
    flash_epochs: tuple[int, ...] = ()
    flash_multiplier: float = 2.0
    drift: PopularityDrift | None = None
    replan: str = "drift"
    drift_threshold: float = 0.10
    tracker_alpha: float = 0.5
    tracker_smoothing: float = 1.0
    move_budget: int | None = None
    screen: bool = False
    anneal_polish: bool = False
    anneal_steps_per_level: int = 40
    anneal_max_levels: int = 8
    elastic: bool = False
    slo_rejection_rate: float = 0.05
    breach_epochs: int = 2
    relax_epochs: int = 3
    cooldown_epochs: int = 2
    min_servers: int | None = None
    max_servers: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        check_int_in_range("epochs", self.epochs, 1)
        if self.epoch_minutes is not None:
            check_in_range(
                "epoch_minutes", self.epoch_minutes, 0.0, math.inf,
                inclusive=False,
            )
        check_non_negative("base_rate_per_min", self.base_rate_per_min)
        check_in_range(
            "peak_rate_per_min", self.peak_rate_per_min, 0.0, math.inf,
            inclusive=False,
        )
        if self.peak_rate_per_min < self.base_rate_per_min:
            raise ValueError("peak_rate_per_min must be >= base_rate_per_min")
        check_int_in_range("day_epochs", self.day_epochs, 1)
        if not 1.0 <= self.flash_multiplier < math.inf:
            raise ValueError(
                "flash_multiplier must be finite and >= 1, "
                f"got {self.flash_multiplier}"
            )
        object.__setattr__(
            self,
            "flash_epochs",
            tuple(
                check_int_in_range("flash_epochs entry", e, 0)
                for e in self.flash_epochs
            ),
        )
        if isinstance(self.drift, str):
            object.__setattr__(self, "drift", parse_drift(self.drift))
        if self.drift is not None and not isinstance(self.drift, PopularityDrift):
            raise TypeError("drift must be a PopularityDrift, spec string or None")
        if self.replan not in REPLAN_MODES:
            raise ValueError(
                f"unknown replan mode {self.replan!r}; choose from {REPLAN_MODES}"
            )
        check_in_range("drift_threshold", self.drift_threshold, 0.0, 1.0)
        EwmaPopularityTracker.check_parameters(
            self.tracker_alpha, self.tracker_smoothing
        )
        if self.move_budget is not None:
            check_int_in_range("move_budget", self.move_budget, 0)
        check_int_in_range(
            "anneal_steps_per_level", self.anneal_steps_per_level, 1
        )
        check_int_in_range("anneal_max_levels", self.anneal_max_levels, 1)
        check_in_range("slo_rejection_rate", self.slo_rejection_rate, 0.0, 1.0)
        check_int_in_range("breach_epochs", self.breach_epochs, 1)
        check_int_in_range("relax_epochs", self.relax_epochs, 1)
        check_int_in_range("cooldown_epochs", self.cooldown_epochs, 0)
        if self.seed is not None:
            check_int_in_range("seed", self.seed, 0)
        setup = self.setup
        lo = self.min_servers if self.min_servers is not None else setup.num_servers
        hi = self.max_servers if self.max_servers is not None else 2 * setup.num_servers
        check_int_in_range("min_servers", lo, 1)
        if hi < lo:
            raise ValueError(f"max_servers {hi} < min_servers {lo}")
        if not lo <= setup.num_servers <= hi:
            raise ValueError(
                f"setup.num_servers {setup.num_servers} outside "
                f"[min_servers={lo}, max_servers={hi}]"
            )
        capacity = setup.capacity_replicas(self.replication_degree)
        if lo * capacity < setup.num_videos:
            raise ValueError(
                f"min_servers {lo} cannot store one replica of each of the "
                f"{setup.num_videos} videos (capacity {capacity}/server)"
            )
        object.__setattr__(self, "min_servers", int(lo))
        object.__setattr__(self, "max_servers", int(hi))

    # ------------------------------------------------------------------
    @property
    def resolved_epoch_minutes(self) -> float:
        return (
            float(self.epoch_minutes)
            if self.epoch_minutes is not None
            else float(self.setup.peak_minutes)
        )

    @property
    def resolved_seed(self) -> int:
        return int(self.seed) if self.seed is not None else int(self.setup.seed)

    def frozen(self) -> "ServingConfig":
        """The frozen-layout baseline: same workload, no adaptation."""
        return replace(self, replan="never", elastic=False)

    # ------------------------------------------------------------------
    @classmethod
    def from_pipeline(cls, pipeline, **overrides) -> "ServingConfig":
        """Derive a serving config from a batch :class:`PipelineConfig`.

        The pipeline's arrival rate becomes the diurnal peak (with the
        base at half of it); every shared-core knob — design point,
        dispatcher, engine, backbone, chaos stack, shards, setup —
        carries over verbatim.  Keyword overrides win.
        """
        fields = {
            name: getattr(pipeline, name) for name in core_field_names()
        }
        fields.update(
            base_rate_per_min=pipeline.arrival_rate_per_min / 2.0,
            peak_rate_per_min=pipeline.arrival_rate_per_min,
        )
        fields.update(overrides)
        return cls(**fields)
