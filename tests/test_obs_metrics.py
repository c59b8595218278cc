"""Histogram / QuantileSummary: exactness, merging, serialisation.

The merge properties matter operationally: worker processes record
histograms locally and the parent folds them together, so exact fields
(count/sum/min/max/bucket counts) must merge *associatively* -- any
grouping of the same observations yields the same aggregate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_BOUNDS, Histogram, MetricsError, QuantileSummary
from repro.obs.metrics import merge_histogram_maps

values = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestQuantileSummary:
    def test_exact_until_cap(self):
        s = QuantileSummary(max_samples=64)
        for v in range(10):
            s.observe(float(v))
        assert s.count == 10
        assert s.total == 45.0
        assert s.minimum == 0.0 and s.maximum == 9.0
        assert s.quantile(0.0) == 0.0
        assert s.quantile(1.0) == 9.0
        assert s.quantile(0.5) == pytest.approx(4.5)

    def test_empty_quantile_is_none(self):
        assert QuantileSummary().quantile(0.5) is None

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(MetricsError):
            QuantileSummary().quantile(1.5)

    def test_thinning_bounds_memory_but_keeps_aggregates(self):
        s = QuantileSummary(max_samples=16)
        n = 10_000
        for v in range(n):
            s.observe(float(v))
        assert s.count == n
        assert s.total == float(sum(range(n)))
        assert s.minimum == 0.0 and s.maximum == float(n - 1)
        assert len(s._samples) < 16
        # The thinned estimate stays in the data range and roughly central.
        est = s.quantile(0.5)
        assert 0.0 <= est <= n - 1

    def test_deterministic(self):
        a, b = QuantileSummary(max_samples=8), QuantileSummary(max_samples=8)
        for v in range(1000):
            a.observe(v * 0.1)
            b.observe(v * 0.1)
        assert a.to_dict() == b.to_dict()

    def test_round_trip(self):
        s = QuantileSummary(max_samples=8)
        for v in range(100):
            s.observe(float(v))
        doc = s.to_dict()
        back = QuantileSummary.from_dict(doc)
        assert back.to_dict() == doc

    def test_rejects_malformed(self):
        with pytest.raises(MetricsError):
            QuantileSummary.from_dict({"count": "many"})
        with pytest.raises(MetricsError):
            QuantileSummary.from_dict(
                {"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0, "stride": 0}
            )

    def test_min_cap(self):
        with pytest.raises(MetricsError):
            QuantileSummary(max_samples=1)


class TestHistogram:
    def test_bucket_assignment_le_semantics(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 10.0, 11.0):
            h.observe(v)
        assert h.bucket_counts == [2, 2, 1]

    def test_default_bounds(self):
        h = Histogram()
        assert h.bounds == DEFAULT_BOUNDS
        assert len(h.bucket_counts) == len(DEFAULT_BOUNDS) + 1

    def test_rejects_bad_bounds(self):
        with pytest.raises(MetricsError):
            Histogram(bounds=())
        with pytest.raises(MetricsError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(MetricsError):
            Histogram(bounds=(2.0, 1.0))

    def test_aggregates(self):
        h = Histogram(bounds=(1.0,))
        assert h.mean is None and h.percentile(50) is None
        h.observe(2.0)
        h.observe(4.0)
        assert h.count == 2 and h.total == 6.0 and h.mean == 3.0
        assert h.minimum == 2.0 and h.maximum == 4.0
        assert h.percentile(50) == pytest.approx(3.0)

    def test_bucket_quantile_fallback_without_samples(self):
        h = Histogram(bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 1.6, 1.7):
            h.observe(v)
        doc = h.to_dict()
        doc["summary"]["samples"] = []  # a thinned-away document
        back = Histogram.from_dict(doc)
        est = back.percentile(50)
        assert est is not None and 0.0 <= est <= 2.0

    def test_merge_requires_matching_bounds(self):
        with pytest.raises(MetricsError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_round_trip(self):
        h = Histogram(bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        doc = h.to_dict()
        assert Histogram.from_dict(doc).to_dict() == doc

    def test_from_dict_rejects_wrong_count_arity(self):
        with pytest.raises(MetricsError):
            Histogram.from_dict({"bounds": [1.0], "bucket_counts": [1]})


class TestMergeAssociativity:
    """Any grouping of the same observations -> the same exact fields."""

    @staticmethod
    def _exact(h: Histogram) -> tuple:
        return (h.count, pytest.approx(h.total), h.minimum, h.maximum,
                tuple(h.bucket_counts))

    @settings(max_examples=50, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(values, min_size=0, max_size=30),
            min_size=2, max_size=5,
        )
    )
    def test_histogram_merge_grouping_invariant(self, chunks):
        def hist(vals):
            h = Histogram(bounds=(0.1, 1.0, 100.0), max_samples=8)
            for v in vals:
                h.observe(v)
            return h

        # Left fold of per-chunk histograms...
        left = hist([])
        for chunk in chunks:
            left.merge(hist(chunk))
        # ... right fold ...
        right = hist([])
        for chunk in reversed(chunks):
            right.merge(hist(chunk))
        # ... and one histogram fed everything directly.
        flat = hist([v for chunk in chunks for v in chunk])

        for other in (right, flat):
            assert left.count == other.count
            assert left.total == pytest.approx(other.total)
            assert left.minimum == other.minimum
            assert left.maximum == other.maximum
            assert left.bucket_counts == other.bucket_counts

    def test_merge_histogram_maps_copies_on_adopt(self):
        src = Histogram(bounds=(1.0,))
        src.observe(0.5)
        target: dict = {}
        merge_histogram_maps(target, {"m": src})
        src.observe(0.5)  # must not leak into the adopted copy
        assert target["m"].count == 1
        merge_histogram_maps(target, {"m": src})
        assert target["m"].count == 3
