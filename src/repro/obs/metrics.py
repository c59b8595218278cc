"""Distribution metrics for the tracer: histograms and streaming quantiles.

Counters answer "how much in total", gauges "what is it now"; neither
answers "how is it *distributed*" -- the question that matters for job
latencies, merge-search step times and cache-lookup costs once the
service runs thousands of jobs.  Two structures fill the gap, both
dependency-free and both **mergeable** (worker processes record locally
and the parent folds the results together):

* :class:`Histogram` -- fixed upper-bound buckets in the Prometheus
  style, plus exact ``count``/``sum``/``min``/``max``;
* :class:`QuantileSummary` -- a deterministic bounded reservoir riding
  inside every histogram.  It retains every observation until
  ``max_samples``, then halves resolution (keeps every 2nd, 4th, ...
  sample), so small runs report *exact* percentiles and long runs
  degrade gracefully instead of growing without bound.

Merging is associative on the exact fields (``count``/``sum``/``min``/
``max``/bucket counts) by construction; retained-sample quantiles are
exact until any party has thinned, then approximate.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Mapping

#: Default bucket upper bounds: geometric, centred on sub-second latency
#: but wide enough for iteration counts (the summary supplies accurate
#: percentiles regardless; buckets only shape the bucketed view).
DEFAULT_BOUNDS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 250.0, 1000.0,
)

#: Default retained-sample cap of the streaming quantile summary.
DEFAULT_MAX_SAMPLES = 512


class MetricsError(ValueError):
    """Raised for malformed serialised metrics or incompatible merges."""


class QuantileSummary:
    """Bounded, deterministic sample reservoir with exact aggregates.

    Every ``stride``-th observation is retained; when the reservoir
    fills, it is thinned to every 2nd element and the stride doubles.
    No randomness, so runs are reproducible and property-testable.
    """

    __slots__ = ("max_samples", "count", "total", "minimum", "maximum",
                 "_samples", "_stride", "_tick")

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 2:
            raise MetricsError("max_samples must be at least 2")
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._samples: list[float] = []
        self._stride = 1
        self._tick = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self._tick += 1
        if self._tick % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2

    def quantile(self, q: float) -> float | None:
        """The q-th quantile (q in [0, 1]) of the retained samples.

        Exact while ``stride`` is 1 (no observation has been thinned
        away); an estimate afterwards.  ``None`` before any observation.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile {q} outside [0, 1]")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def merge(self, other: "QuantileSummary") -> "QuantileSummary":
        """Fold ``other`` in; exact fields combine associatively."""
        self.count += other.count
        self.total += other.total
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            if self.minimum is None or bound < self.minimum:
                self.minimum = bound
            if self.maximum is None or bound > self.maximum:
                self.maximum = bound
        # Thin both reservoirs to the coarser stride before combining so
        # neither side dominates, then re-thin until under the cap.
        stride = max(self._stride, other._stride)
        mine = self._samples[:: stride // self._stride]
        theirs = other._samples[:: stride // other._stride]
        samples = mine + theirs
        while len(samples) >= self.max_samples:
            samples = samples[::2]
            stride *= 2
        self._samples = samples
        self._stride = stride
        self._tick = 0
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "stride": self._stride,
            "samples": list(self._samples),
        }

    @classmethod
    def from_dict(
        cls, doc: Mapping[str, Any], max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> "QuantileSummary":
        try:
            out = cls(max_samples=max_samples)
            out.count = int(doc["count"])
            out.total = float(doc["sum"])
            out.minimum = None if doc["min"] is None else float(doc["min"])
            out.maximum = None if doc["max"] is None else float(doc["max"])
            out._stride = int(doc.get("stride", 1))
            out._samples = [float(v) for v in doc.get("samples", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise MetricsError(f"malformed quantile summary: {exc}") from exc
        if out._stride < 1:
            raise MetricsError("quantile summary stride must be >= 1")
        return out


class Histogram:
    """Fixed-bucket histogram with an embedded quantile summary.

    ``bounds`` are *upper* bucket bounds (an implicit +Inf bucket catches
    the overflow); ``bucket_counts[i]`` counts observations with
    ``value <= bounds[i]`` (non-cumulative storage).
    """

    __slots__ = ("bounds", "bucket_counts", "summary")

    def __init__(
        self,
        bounds: Iterable[float] = DEFAULT_BOUNDS,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise MetricsError("a histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise MetricsError("bucket bounds must be strictly increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.summary = QuantileSummary(max_samples=max_samples)

    # -- recording -------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.summary.observe(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Observe a sequence of values, in order.

        Bit-identical to calling :meth:`observe` once per value (same
        bucket counts, same exact aggregates, same retained samples and
        stride) -- the replay vector kernel leans on this equivalence --
        but with the per-value attribute traffic hoisted out of the
        loop, so bulk feeds cost a fraction of repeated calls.
        """
        bounds = self.bounds
        counts = self.bucket_counts
        summary = self.summary
        count = summary.count
        total = summary.total
        minimum = summary.minimum
        maximum = summary.maximum
        tick = summary._tick
        stride = summary._stride
        samples = summary._samples
        cap = summary.max_samples
        for value in values:
            value = float(value)
            counts[bisect_left(bounds, value)] += 1
            count += 1
            total += value
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
            tick += 1
            if tick % stride == 0:
                samples.append(value)
                if len(samples) >= cap:
                    samples = samples[::2]
                    stride *= 2
        summary.count = count
        summary.total = total
        summary.minimum = minimum
        summary.maximum = maximum
        summary._tick = tick
        summary._stride = stride
        summary._samples = samples

    # -- aggregates ------------------------------------------------------
    @property
    def count(self) -> int:
        return self.summary.count

    @property
    def total(self) -> float:
        return self.summary.total

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    @property
    def minimum(self) -> float | None:
        return self.summary.minimum

    @property
    def maximum(self) -> float | None:
        return self.summary.maximum

    def percentile(self, pct: float) -> float | None:
        """The pct-th percentile (0-100), summary-first.

        The retained-sample estimate is exact for runs below the sample
        cap; the bucket interpolation fallback only fires for documents
        deserialised without samples.
        """
        q = pct / 100.0
        estimate = self.summary.quantile(q)
        if estimate is not None:
            return estimate
        return self._bucket_quantile(q)

    def _bucket_quantile(self, q: float) -> float | None:
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile {q} outside [0, 1]")
        total = sum(self.bucket_counts)
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for i, bucket in enumerate(self.bucket_counts):
            cumulative += bucket
            if cumulative >= rank and bucket:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else (self.maximum or lower)
                )
                frac = (rank - (cumulative - bucket)) / bucket
                return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
        return self.maximum

    # -- merging ---------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` in; bucket layouts must match exactly."""
        if other.bounds != self.bounds:
            raise MetricsError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} buckets)"
            )
        for i, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[i] += bucket
        self.summary.merge(other.summary)
        return self

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "summary": self.summary.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Histogram":
        try:
            out = cls(bounds=doc["bounds"])
            counts = [int(c) for c in doc["bucket_counts"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise MetricsError(f"malformed histogram: {exc}") from exc
        if len(counts) != len(out.bucket_counts):
            raise MetricsError(
                f"histogram has {len(counts)} bucket counts for "
                f"{len(out.bounds)} bounds"
            )
        out.bucket_counts = counts
        out.summary = QuantileSummary.from_dict(doc.get("summary", {
            "count": sum(counts), "sum": 0.0, "min": None, "max": None,
            "samples": [],
        }))
        return out


def merge_histogram_maps(
    target: dict[str, Histogram], incoming: Mapping[str, Histogram]
) -> dict[str, Histogram]:
    """Fold a name->histogram map into ``target`` (merge or adopt-copy)."""
    for name, histogram in incoming.items():
        mine = target.get(name)
        if mine is None:
            target[name] = Histogram.from_dict(histogram.to_dict())
        else:
            mine.merge(histogram)
    return target
