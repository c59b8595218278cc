"""Vectorized cost kernels vs the scalar reference loops."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.allocation import (
    _VECTORIZE_MIN_CONFIGS,
    _overlay,
    _switch_counts,
    _weighted_switch_sums,
)
from repro.core.kernels import (
    NONE_ID,
    encode_activity,
    pairwise_frames_matrix,
    weighted_switch_sums_encoded,
)

from .test_allocation import count_summary


def _random_activity(rng, n, labels=("a", "b", "c", "d")):
    pool = list(labels) + [None]
    return tuple(pool[rng.integers(len(pool))] for _ in range(n))


def _scalar_weighted_sums(activity, weights):
    """(strict, lenient) weighted switch sums, one pair at a time."""
    strict = lenient = 0.0
    for i, j in itertools.combinations(range(len(activity)), 2):
        a, b = activity[i], activity[j]
        if a != b:
            strict += float(weights[i, j])
            if a is not None and b is not None:
                lenient += float(weights[i, j])
    return strict, lenient


class TestEncodeActivity:
    def test_none_maps_to_sentinel(self):
        codec: dict[str, int] = {}
        ids = encode_activity(("x", None, "y", "x"), codec)
        assert ids.tolist() == [0, NONE_ID, 1, 0]
        assert codec == {"x": 0, "y": 1}

    def test_codec_grows_and_is_stable(self):
        codec: dict[str, int] = {}
        first = encode_activity(("p", "q"), codec)
        second = encode_activity(("q", "r", "p"), codec)
        assert first.tolist() == [0, 1]
        assert second.tolist() == [1, 2, 0]

    def test_shared_codec_makes_vectors_comparable(self):
        codec: dict[str, int] = {}
        a = encode_activity(("m", None, "n"), codec)
        b = encode_activity(("m", "n", None), codec)
        assert (a == b).tolist() == [True, False, False]


class TestMergeEncoded:
    """The weighted search encodes merged groups' activity overlays."""

    def test_overlay_prefers_active_side(self):
        codec: dict[str, int] = {}
        merged = _overlay(("x", None, None, "y"), (None, "z", None, None))
        ids = encode_activity(merged, codec)
        assert ids.tolist() == [codec["x"], codec["z"], NONE_ID, codec["y"]]

    def test_symmetric_for_disjoint_vectors(self):
        a, b = ("x", None), (None, "y")
        assert _overlay(a, b) == _overlay(b, a) == ("x", "y")


class TestSwitchPairCounts:
    """Under unit pair weights the weighted kernel counts switching
    pairs, which the unweighted search takes from a group's count
    summary instead."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 20))
        activity = _random_activity(rng, n)
        ids = encode_activity(activity, {})
        counts = _switch_counts(*count_summary(activity), n)
        assert weighted_switch_sums_encoded(ids, np.ones((n, n))) == counts
        assert _scalar_weighted_sums(activity, np.ones((n, n))) == counts

    def test_exact_ints(self):
        activity = ("a", "b", None, "a", None, "c")
        strict, lenient = _switch_counts(*count_summary(activity), 6)
        assert (strict, lenient) == (13, 5)
        assert type(strict) is int and type(lenient) is int


class TestWeightedSwitchSums:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 16))
        activity = _random_activity(rng, n)
        W = rng.random((n, n))
        W = W + W.T
        codec: dict[str, int] = {}
        ids = encode_activity(activity, codec)
        vec = weighted_switch_sums_encoded(ids, W)
        ref = _scalar_weighted_sums(activity, W)
        assert vec[0] == pytest.approx(ref[0], rel=1e-12)
        assert vec[1] == pytest.approx(ref[1], rel=1e-12)
        # The search's helper takes the kernel from 12 configurations on
        # and the scalar loop below, each exactly.
        expected = vec if n >= _VECTORIZE_MIN_CONFIGS else ref
        assert _weighted_switch_sums(activity, W) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_codec_does_not_change_the_floats(self, seed):
        rng = np.random.default_rng(300 + seed)
        activity = _random_activity(rng, 16, labels="abcdefg")
        W = rng.random((16, 16))
        W = W + W.T
        first = weighted_switch_sums_encoded(encode_activity(activity, {}), W)
        codec = {label: 40 - k for k, label in enumerate("gfedcba")}
        other = weighted_switch_sums_encoded(encode_activity(activity, codec), W)
        assert first == other

    def test_empty_vector(self):
        assert weighted_switch_sums_encoded(
            np.empty(0, dtype=np.int32), np.zeros((0, 0))
        ) == (0.0, 0.0)


class TestPairwiseFramesMatrix:
    def _brute(self, table, frames, lenient):
        C = len(table)
        out = np.zeros((C, C), dtype=np.int64)
        for i, j in itertools.combinations(range(C), 2):
            cost = 0
            for r, f in enumerate(frames):
                a, b = table[i][r], table[j][r]
                if lenient:
                    pays = a is not None and b is not None and a != b
                else:
                    pays = a != b
                if pays:
                    cost += f
            out[i, j] = out[j, i] = cost
        return out

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("lenient", [True, False])
    def test_matches_brute_force(self, seed, lenient):
        rng = np.random.default_rng(200 + seed)
        C = int(rng.integers(1, 8))
        R = int(rng.integers(1, 6))
        table = [_random_activity(rng, R) for _ in range(C)]
        frames = [int(rng.integers(10, 500)) for _ in range(R)]
        codec: dict[str, int] = {}
        ids = np.stack([encode_activity(row, codec) for row in table])
        got = pairwise_frames_matrix(
            ids, np.array(frames, dtype=np.int64), lenient
        )
        assert (got == self._brute(table, frames, lenient)).all()

    def test_zero_configurations(self):
        got = pairwise_frames_matrix(
            np.empty((0, 3), dtype=np.int32),
            np.array([1, 2, 3], dtype=np.int64),
            lenient=True,
        )
        assert got.shape == (0, 0)
