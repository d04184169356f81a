"""Property tests for the histogram bucket math and the interpolated
quantile estimator (hypothesis-driven)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import bucket_bounds, estimate_quantile, estimate_quantiles
from repro.runtime.metrics import (
    N_HISTOGRAM_BUCKETS,
    Histogram,
    bucket_index,
    histogram_delta,
)

values = st.floats(
    min_value=0.0, max_value=2.0**70, allow_nan=False, allow_infinity=False
)
quantiles = st.floats(min_value=0.0, max_value=1.0)
# Bucket 0's [0, 1), the general range, and past 2**63, where
# ``int(v).bit_length()`` exceeds the saturating bucket's index.
edge_values = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    values,
    st.floats(min_value=2.0**63, max_value=2.0**80),
)


class TestBucketIndex:
    @given(values)
    def test_value_lands_inside_its_bucket(self, value):
        index = bucket_index(value)
        assert 0 <= index < N_HISTOGRAM_BUCKETS
        lo, hi = bucket_bounds(index)
        if index == N_HISTOGRAM_BUCKETS - 1:
            assert value >= lo  # saturating top bucket
        else:
            assert lo <= value < hi

    @given(values, values)
    def test_monotone(self, a, b):
        if a <= b:
            assert bucket_index(a) <= bucket_index(b)
        else:
            assert bucket_index(a) >= bucket_index(b)

    def test_boundaries_exact(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(0.999) == 0
        assert bucket_index(1.0) == 1
        assert bucket_index(2.0) == 2
        assert bucket_index(2.0**62) == 63
        assert bucket_index(2.0**100) == 63

    @given(st.integers(min_value=0, max_value=N_HISTOGRAM_BUCKETS - 1))
    def test_bounds_partition_the_axis(self, index):
        lo, hi = bucket_bounds(index)
        assert lo < hi
        if index + 1 < N_HISTOGRAM_BUCKETS:
            assert bucket_bounds(index + 1)[0] == hi  # adjacent, no gaps

    @given(st.integers(min_value=0, max_value=N_HISTOGRAM_BUCKETS - 2))
    def test_bounds_invert_index(self, index):
        lo, hi = bucket_bounds(index)
        assert bucket_index(lo) == index
        assert bucket_index(math.nextafter(hi, 0.0)) == index


class TestHistogramDelta:
    @settings(max_examples=200)
    @given(st.lists(edge_values, min_size=1, max_size=200))
    def test_merge_equals_one_observe_per_value(self, observed):
        merged, one_by_one = Histogram(), Histogram()
        merged.merge_delta(**histogram_delta(observed))
        for value in observed:
            one_by_one.observe(value)
        got, want = merged.snapshot(), one_by_one.snapshot()
        # ``sum()`` and repeated ``+=`` may round the total differently.
        assert math.isclose(got.pop("sum"), want.pop("sum"), rel_tol=1e-12)
        got.pop("mean"), want.pop("mean")
        assert got == want


class TestEstimatorProperties:
    @settings(max_examples=200)
    @given(st.lists(values, min_size=1, max_size=300), quantiles)
    def test_estimate_within_true_rank_bucket(self, observed, q):
        """The interpolated estimate lands in the [lo, hi) range of the
        bucket that actually holds the requested rank's observation."""
        h = Histogram()
        for value in observed:
            h.observe(value)
        snap = h.snapshot()
        estimate = estimate_quantile(snap["buckets"], snap["count"], q)
        rank = max(1, math.ceil(q * len(observed)))
        true_value = sorted(observed)[rank - 1]
        lo, hi = bucket_bounds(bucket_index(true_value))
        if math.isinf(hi):
            assert estimate == lo
        else:
            assert lo <= estimate < hi

    @settings(max_examples=100)
    @given(st.lists(values, min_size=1, max_size=200))
    def test_monotone_in_q(self, observed):
        h = Histogram()
        for value in observed:
            h.observe(value)
        snap = h.snapshot()
        estimates = [
            estimate_quantile(snap["buckets"], snap["count"], q)
            for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0)
        ]
        assert estimates == sorted(estimates)

    @settings(max_examples=100)
    @given(st.lists(values, min_size=1, max_size=200))
    def test_never_above_conservative_quantile(self, observed):
        """Interpolation stays at or below the upper bound of the bucket
        holding the rank — the conservative, factor-of-two quantile."""
        h = Histogram()
        for value in observed:
            h.observe(value)
        ranked = sorted(observed)
        for label, estimate in estimate_quantiles(h.snapshot()).items():
            rank = max(1, math.ceil(int(label[1:]) / 100 * len(ranked)))
            assert estimate <= bucket_bounds(bucket_index(ranked[rank - 1]))[1]

    @settings(max_examples=100)
    @given(st.lists(values, min_size=1, max_size=200))
    def test_bounded_by_extremes_buckets(self, observed):
        """Estimates never escape the range spanned by the extreme
        observations' buckets."""
        h = Histogram()
        for value in observed:
            h.observe(value)
        snap = h.snapshot()
        lo_bound = bucket_bounds(bucket_index(min(observed)))[0]
        hi_bucket = bucket_bounds(bucket_index(max(observed)))[1]
        for q in (0.0, 0.5, 1.0):
            estimate = estimate_quantile(snap["buckets"], snap["count"], q)
            assert lo_bound <= estimate
            if not math.isinf(hi_bucket):
                assert estimate < hi_bucket
