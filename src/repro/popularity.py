"""Video popularity models (system S1).

The paper assumes the relative popularity of the ``M`` videos follows a
Zipf-like distribution with skew parameter ``theta``::

    p_i = (1 / i**theta) / sum_j (1 / j**theta),    i = 1..M

with ``theta`` typically in ``[0.271, 1]`` (Sec. 3.1, assumption 1).  This
module provides that distribution plus uniform and empirical variants behind a
single :class:`PopularityModel` interface, and the maximum-likelihood fit used
by the popularity-estimation example.

All probability vectors returned here are sorted in non-increasing order
(video 1 is the most popular), matching the paper's indexing convention.

Sampling is bit-exact with numpy.  :meth:`PopularityModel.sample` and
:func:`sample_choice` return the indices ``Generator.choice(M, size, p=p)``
returns and leave the generator in the state it leaves, because they keep
its arithmetic: ``cdf = p.cumsum(); cdf /= cdf[-1]``, one
``rng.random(size)``, and for each uniform ``u`` the index
``cdf.searchsorted(u, side="right")``.  Only that last search is done
differently.  A :class:`ChoiceSampler` splits ``[0, 1)`` into ``K``
buckets, ``K`` a power of two at least ``4 M``, so ``floor(u * K)`` is
exact.  For each bucket it counts the cdf entries at or below its left edge
and those below its right edge; when they differ by at most one, every
``u`` in the bucket resolves to the first count plus ``u >= cdf[first]``,
two gathers and a comparison.  Uniforms that land in a bucket holding two
or more boundaries (zero-probability videos, a crowded tail) still go to
``searchsorted``.  :func:`sample_choice` raises ``ValueError`` wherever
``Generator.choice`` does: a *p* that does not plainly pass numpy's checks
gets numpy's own verdict from a zero-sample ``choice``, which draws
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._validation import (
    check_in_range,
    check_int_in_range,
    check_probability_vector,
)

__all__ = [
    "ChoiceSampler",
    "sample_choice",
    "PopularityModel",
    "ZipfPopularity",
    "UniformPopularity",
    "EmpiricalPopularity",
    "zipf_probabilities",
    "TYPICAL_THETA_RANGE",
]

#: The range of Zipf skew parameters the paper cites as typical ([3, 5]).
TYPICAL_THETA_RANGE = (0.271, 1.0)


def zipf_probabilities(num_items: int, theta: float) -> np.ndarray:
    """Return the Zipf-like probability vector ``p_i ~ i**-theta``.

    Parameters
    ----------
    num_items:
        Number of ranked items ``M`` (videos).
    theta:
        Skew parameter; ``0`` yields the uniform distribution, larger values
        concentrate probability on the most popular items.

    Returns
    -------
    numpy.ndarray
        Non-increasing probability vector of length ``num_items``.
    """
    check_int_in_range("num_items", num_items, 1)
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-theta
    weights /= weights.sum()
    return weights


#: Guide-table buckets per video: ``K`` is the smallest power of two at
#: least this many times ``M``, wide enough that a bucket of a moderately
#: skewed vector rarely holds two cdf boundaries.
_BUCKETS_PER_VIDEO = 4
#: Draws smaller than this go straight to ``searchsorted``: below it one
#: search costs less than the table's gathers.
_TABLE_MIN_DRAW = 128


class ChoiceSampler:
    """``Generator.choice(M, size, p=p)``'s draws, through a guide table.

    See the module docstring for the bit-exactness contract.  *p* is taken
    as given: callers validate it (:func:`sample_choice` does).  The table
    is built on the first draw of at least an eighth of its ``K`` buckets,
    so that its ``O(K)`` build is about what the draw's own ``O(size log
    M)`` searches would cost; draws that come too small for it, before or
    after, go straight to ``searchsorted``.
    """

    __slots__ = ("_cdf", "_buckets", "_table_min", "_table")

    def __init__(self, p: np.ndarray) -> None:
        cdf = np.asarray(p, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._buckets = 1 << (_BUCKETS_PER_VIDEO * cdf.size - 1).bit_length()
        self._table_min = max(self._buckets >> 3, _TABLE_MIN_DRAW)
        self._table: tuple | None = None

    def _build_table(self) -> tuple:
        """``(base, crowded)`` per bucket ``b``, ``[b/K, (b+1)/K)``.

        ``base[b]`` counts the cdf entries ``<= b/K`` (``ceil(cdf K) <= b``)
        and ``below[b]`` those ``< (b+1)/K`` (``floor(cdf K) <= b``); ``cdf
        * K`` is exact.  ``base[b] < M`` because ``cdf[-1] == 1``.  ``base``
        is stored as 32-bit when ``M`` allows, halving the table's memory
        traffic.
        """
        cdf, buckets = self._cdf, self._buckets
        scaled = cdf * buckets
        base = np.bincount(
            np.ceil(scaled).astype(np.intp), minlength=buckets + 1
        )[:buckets].cumsum()
        below = np.bincount(
            scaled.astype(np.intp), minlength=buckets + 1
        )[:buckets].cumsum()
        crowded = below - base > 1
        if cdf.size <= np.iinfo(np.int32).max:
            base = base.astype(np.int32)
        return base, crowded if crowded.any() else None

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` indices, exactly as ``rng.choice(M, size, p=p)``."""
        cdf = self._cdf
        uniforms = rng.random(size)
        if self._table is None:
            if uniforms.size < self._table_min:
                return cdf.searchsorted(uniforms, side="right")
            self._table = self._build_table()
        elif uniforms.size < _TABLE_MIN_DRAW:
            return cdf.searchsorted(uniforms, side="right")
        base, crowded = self._table
        bucket = (uniforms * self._buckets).astype(np.intp)
        index = base[bucket].astype(np.intp)
        index += uniforms >= cdf[index]
        if crowded is not None:
            hit = crowded[bucket]
            if hit.any():
                index[hit] = cdf.searchsorted(uniforms[hit], side="right")
        return index


#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|`` for a float64 *p*.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _surely_accepted(p) -> bool:
    """Whether ``Generator.choice`` certainly accepts *p*.

    A 1-D float64 array, non-negative (``min`` is NaN-safe: NaN fails it)
    and summing to 1 within half numpy's tolerance; numpy's Kahan sum and
    this pairwise sum differ by far less than the other half.
    """
    return (
        isinstance(p, np.ndarray)
        and p.dtype == np.float64
        and p.ndim == 1
        and p.size > 0
        and p.min() >= 0.0
        and abs(p.sum() - 1.0) <= 0.5 * _CHOICE_ATOL
    )


def sample_choice(
    p: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``rng.choice(len(p), size=size, p=p)`` through a :class:`ChoiceSampler`.

    Same indices, same generator state afterwards, same ``ValueError`` on
    a *p* that ``Generator.choice`` rejects.
    """
    if not _surely_accepted(p):
        # numpy's own verdict: a zero-sample choice runs its checks on p
        # and draws nothing.
        rng.choice(np.size(p), size=0, p=p)
    return ChoiceSampler(p).sample(size, rng)


@dataclass(frozen=True)
class PopularityModel:
    """A fixed popularity distribution over ``M`` videos.

    Subclasses (or direct instances built from :func:`from_probabilities`)
    expose the probability vector and sampling.  Instances are immutable so
    they can safely be shared across experiment runs.
    """

    probabilities: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        probs = check_probability_vector("probabilities", self.probabilities)
        # Re-normalize exactly and freeze the backing array.
        probs = probs / probs.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_probabilities(cls, probabilities: np.ndarray) -> "PopularityModel":
        """Build a model from an explicit probability vector."""
        return cls(probabilities=np.asarray(probabilities, dtype=np.float64))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_videos(self) -> int:
        """Number of videos ``M``."""
        return int(self.probabilities.size)

    @property
    def is_sorted(self) -> bool:
        """Whether the vector is non-increasing (paper's convention)."""
        return bool(np.all(np.diff(self.probabilities) <= 1e-15))

    def sorted(self) -> "PopularityModel":
        """Return a copy with probabilities sorted non-increasingly."""
        order = np.argsort(-self.probabilities, kind="stable")
        return PopularityModel.from_probabilities(self.probabilities[order])

    def skew_ratio(self) -> float:
        """Ratio of the highest to the lowest popularity, ``p_1 / p_M``.

        The paper uses this ratio (``= M**theta`` for a pure Zipf law) when
        discussing the spread of communication weights (Sec. 4.2).
        """
        pmin = float(self.probabilities.min())
        if pmin == 0.0:
            return float("inf")
        return float(self.probabilities.max() / pmin)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @cached_property
    def _sampler(self) -> ChoiceSampler:
        return ChoiceSampler(self.probabilities)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` video indices (0-based) i.i.d. from the model.

        Bit-exact with ``rng.choice(M, size=size, p=self.probabilities)``
        (see the module docstring).
        """
        check_int_in_range("size", size, 0)
        return self._sampler.sample(size, rng)

    def expected_requests(self, total_requests: float) -> np.ndarray:
        """Expected request count per video given a total request volume."""
        if total_requests < 0:
            raise ValueError(f"total_requests must be >= 0, got {total_requests}")
        return self.probabilities * float(total_requests)


class ZipfPopularity(PopularityModel):
    """Zipf-like popularity ``p_i ~ i**-theta`` (the paper's assumption 1)."""

    def __init__(self, num_videos: int, theta: float) -> None:
        self._theta = float(theta)
        super().__init__(probabilities=zipf_probabilities(num_videos, theta))

    @property
    def theta(self) -> float:
        """The Zipf skew parameter."""
        return self._theta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ZipfPopularity(num_videos={self.num_videos}, theta={self._theta})"


class UniformPopularity(PopularityModel):
    """Uniform popularity — every video equally likely (``theta = 0``)."""

    def __init__(self, num_videos: int) -> None:
        super().__init__(probabilities=zipf_probabilities(num_videos, 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformPopularity(num_videos={self.num_videos})"


class EmpiricalPopularity(PopularityModel):
    """Popularity estimated from observed request counts.

    Used by the popularity-estimation pipeline: counts from a trace are
    normalized (optionally with additive smoothing so unseen videos keep a
    non-zero probability, which the replication algorithms require to assign
    them at least one replica meaningfully).
    """

    def __init__(self, counts: np.ndarray, *, smoothing: float = 0.0) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        total = counts.sum() + smoothing * counts.size
        if total == 0:
            raise ValueError("counts are all zero and smoothing is 0")
        super().__init__(probabilities=(counts + smoothing) / total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EmpiricalPopularity(num_videos={self.num_videos})"


def fit_zipf_theta(
    counts: np.ndarray,
    *,
    theta_bounds: tuple[float, float] = (0.0, 3.0),
    tol: float = 1e-6,
) -> float:
    """Maximum-likelihood estimate of the Zipf skew from ranked request counts.

    ``counts[i]`` is the number of requests observed for the video of rank
    ``i + 1`` (counts need not be pre-sorted; ranks are assigned by sorting
    counts non-increasingly, which is the MLE rank assignment).

    The log-likelihood of Zipf(theta) given counts ``c_i`` at ranks ``i`` is
    ``sum_i c_i * (-theta * ln i) - C * ln H_M(theta)`` where ``H_M`` is the
    generalized harmonic number; it is concave in ``theta``, so golden-section
    search over ``theta_bounds`` finds the maximum.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 2:
        raise ValueError("counts must be a 1-D array with at least 2 entries")
    if np.any(counts < 0) or counts.sum() == 0:
        raise ValueError("counts must be non-negative with a positive sum")
    lo, hi = theta_bounds
    check_in_range("theta_bounds[0]", lo, 0.0, hi)

    counts = np.sort(counts)[::-1]
    ranks = np.arange(1, counts.size + 1, dtype=np.float64)
    log_ranks = np.log(ranks)
    total = counts.sum()

    def neg_log_likelihood(theta: float) -> float:
        log_h = float(np.log(np.sum(ranks**-theta)))
        return theta * float(counts @ log_ranks) + total * log_h

    # Golden-section search on the concave log-likelihood.
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = neg_log_likelihood(c), neg_log_likelihood(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = neg_log_likelihood(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = neg_log_likelihood(d)
    return (a + b) / 2.0


__all__.append("fit_zipf_theta")
