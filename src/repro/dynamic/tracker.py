"""Online popularity estimation.

The dynamic controller cannot see true popularities; it sees per-epoch
request counts.  :class:`EwmaPopularityTracker` keeps an exponentially
weighted moving average of the count *shares*, trading responsiveness to
drift (high ``alpha``) against variance (low ``alpha``), with additive
smoothing so cold titles keep non-zero probability (every video must hold
at least one replica, Eq. 7).
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    check_finite_non_negative,
    check_in_range,
    check_int_in_range,
)

__all__ = ["EwmaPopularityTracker"]


class EwmaPopularityTracker:
    """EWMA estimator over per-epoch request counts.

    Parameters
    ----------
    num_videos:
        Catalogue size ``M``.
    alpha:
        Weight of the newest epoch (``estimate = alpha * share +
        (1 - alpha) * estimate``); ``1.0`` trusts only the last epoch.
    smoothing:
        Additive count smoothing applied to each epoch's shares.
    """

    def __init__(
        self,
        num_videos: int,
        *,
        alpha: float = 0.5,
        smoothing: float = 1.0,
    ) -> None:
        check_int_in_range("num_videos", num_videos, 1)
        self.check_parameters(alpha, smoothing)
        self._alpha = float(alpha)
        self._smoothing = float(smoothing)
        self._estimate = np.full(num_videos, 1.0 / num_videos)
        self._epochs_observed = 0

    @staticmethod
    def check_parameters(alpha: float, smoothing: float) -> None:
        """Raise ``ValueError`` unless ``alpha`` is in (0, 1] and
        ``smoothing`` is finite and >= 0."""
        check_in_range("alpha", alpha, 0.0, 1.0)
        if alpha == 0.0:
            raise ValueError("alpha must be > 0 (the tracker would never learn)")
        check_finite_non_negative("smoothing", smoothing)

    # ------------------------------------------------------------------
    @property
    def num_videos(self) -> int:
        return int(self._estimate.size)

    @property
    def epochs_observed(self) -> int:
        """Number of :meth:`observe` calls so far."""
        return self._epochs_observed

    def estimate(self) -> np.ndarray:
        """Current popularity estimate (a probability vector)."""
        return self._estimate.copy()

    # ------------------------------------------------------------------
    def observe(self, counts: np.ndarray) -> np.ndarray:
        """Fold one epoch's per-video request counts into the estimate."""
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != self._estimate.shape:
            raise ValueError(
                f"counts must have shape {self._estimate.shape}, got {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be >= 0")
        smoothed = counts + self._smoothing
        total = smoothed.sum()
        if total == 0:
            raise ValueError("counts are all zero and smoothing is 0")
        share = smoothed / total
        if self._epochs_observed == 0:
            # First observation replaces the uninformative uniform prior.
            self._estimate = share
        else:
            self._estimate = self._alpha * share + (1 - self._alpha) * self._estimate
            self._estimate /= self._estimate.sum()
        self._epochs_observed += 1
        return self.estimate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EwmaPopularityTracker(M={self.num_videos}, alpha={self._alpha}, "
            f"epochs={self._epochs_observed})"
        )
