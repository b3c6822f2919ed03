"""Metric primitives: counters, gauges, fixed-bucket histograms, series.

The registry is the numeric half of the observability layer (the
:class:`~repro.observe.tracer.Tracer` is the structured-event half).  All
primitives are plain Python — no numpy, no locks, no background threads —
so they are safe to use from the simulator hot loop's *cold* branches and
cost nothing when the subsystem is disabled.

Naming convention: dotted lowercase paths grouped by subsystem
(``sim.requests``, ``sa.steps``, ``serving.replicas_copied``), mirroring
the canonical result-field schema in DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
]

_INF = float("inf")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are strictly increasing inclusive upper edges; one overflow
    bucket collects values above the last edge.  ``observe`` is O(log B)
    (bisect over a tuple), so per-sample cost is flat regardless of how
    many samples have been folded in.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last bucket = overflow
        self.count = 0
        self.sum = 0.0
        self.min = _INF
        self.max = -_INF

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Fold a batch of values in one call (one bisect per value).

        Equivalent to calling :meth:`observe` per value but with the
        bookkeeping hoisted; :meth:`Observer.record_simulation` folds one
        batch per sample instant, so this is the per-run fast path.
        """
        counts = self.counts
        bounds = self.bounds
        total = 0.0
        n = 0
        lo, hi = self.min, self.max
        for value in values:
            value = float(value)
            counts[bisect_left(bounds, value)] += 1
            total += value
            n += 1
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self.count += n
        self.sum += total
        self.min = lo
        self.max = hi

    def merge_bucket_counts(
        self, bucket_counts, n: int, total: float, lo: float, hi: float
    ) -> None:
        """Fold pre-bucketed observations (the vectorized fast path).

        ``bucket_counts`` must have one entry per bucket (overflow last),
        bucketed with bisect-left semantics over :attr:`bounds`;
        ``n``/``total``/``lo``/``hi`` summarize the same observations.
        :meth:`Observer.record_simulation` buckets a whole run's samples
        with numpy and folds them here in one call.
        """
        counts = self.counts
        if len(bucket_counts) != len(counts):
            raise ValueError(
                f"histogram {self.name!r} expects {len(counts)} bucket "
                f"counts, got {len(bucket_counts)}"
            )
        if n < 0:
            raise ValueError("observation count cannot be negative")
        if not n:
            return
        for index, bucket_count in enumerate(bucket_counts):
            counts[index] += bucket_count
        self.count += n
        self.sum += float(total)
        if lo < self.min:
            self.min = float(lo)
        if hi > self.max:
            self.max = float(hi)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the upper edge of the bucket that
        contains the q-th sample (``max`` for the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.4g})"


class TimeSeries:
    """Append-only table of periodic samples (one row per sample instant).

    ``columns`` name the row entries; every :meth:`append` must supply one
    value per column.  Rows are plain tuples — cheap to append at sample
    boundaries, trivially JSON-serializable.
    """

    __slots__ = ("name", "columns", "rows")

    def __init__(self, name: str, columns: tuple[str, ...]) -> None:
        if not columns:
            raise ValueError("time series needs at least one column")
        self.name = name
        self.columns = tuple(str(c) for c in columns)
        self.rows: list[tuple] = []

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"series {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        self.rows.append(values)

    def extend(self, rows) -> None:
        """Append many pre-built rows at once (the bulk fast path).

        Each row must be a tuple with one value per column; rows produced
        by ``zip()`` over column lists qualify and append at C speed.
        """
        rows = list(rows)
        width = len(self.columns)
        if any(len(row) != width for row in rows):
            raise ValueError(
                f"series {self.name!r} expects rows of {width} values"
            )
        self.rows.extend(rows)

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def to_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeSeries({self.name}, rows={len(self.rows)})"


class MetricsRegistry:
    """Named metric store: get-or-create counters/gauges/histograms/series.

    Re-requesting a name returns the existing instrument; requesting an
    existing name as a *different* kind (or a histogram/series with a
    different shape) raises, so two subsystems cannot silently fight over
    one metric.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, TimeSeries] = {}

    # ------------------------------------------------------------------
    def _check_unique(self, name: str, kind: dict) -> None:
        for store in (self.counters, self.gauges, self.histograms, self.series):
            if store is not kind and name in store:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            self._check_unique(name, self.counters)
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            self._check_unique(name, self.gauges)
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: tuple[float, ...]) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            self._check_unique(name, self.histograms)
            instrument = self.histograms[name] = Histogram(name, bounds)
        elif instrument.bounds != tuple(float(b) for b in bounds):
            raise ValueError(f"histogram {name!r} re-registered with different bounds")
        return instrument

    def timeseries(self, name: str, columns: tuple[str, ...]) -> TimeSeries:
        instrument = self.series.get(name)
        if instrument is None:
            self._check_unique(name, self.series)
            instrument = self.series[name] = TimeSeries(name, columns)
        elif instrument.columns != tuple(str(c) for c in columns):
            raise ValueError(f"series {name!r} re-registered with different columns")
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view of every instrument (JSON-serializable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self.histograms.items())
            },
            "series": {n: s.to_dict() for n, s in sorted(self.series.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)}, "
            f"series={len(self.series)})"
        )
