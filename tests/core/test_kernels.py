"""Vectorized cost kernels vs the scalar reference loops."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.allocation import _switch_pair_counts, _weighted_switch_sums
from repro.core.kernels import (
    NONE_ID,
    encode_activity,
    merge_encoded,
    pairwise_frames_matrix,
    switch_pair_counts_encoded,
    weighted_switch_sums_encoded,
)


def _random_activity(rng, n, labels=("a", "b", "c", "d")):
    pool = list(labels) + [None]
    return tuple(pool[rng.integers(len(pool))] for _ in range(n))


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
    def test_overlay_prefers_active_side(self):
        codec: dict[str, int] = {}
        a = encode_activity(("x", None, None, "y"), codec)
        b = encode_activity((None, "z", None, None), codec)
        merged = merge_encoded(a, b)
        assert merged.tolist() == [codec["x"], codec["z"], NONE_ID, codec["y"]]

    def test_symmetric_for_disjoint_vectors(self):
        codec: dict[str, int] = {}
        a = encode_activity(("x", None), codec)
        b = encode_activity((None, "y"), codec)
        assert (merge_encoded(a, b) == merge_encoded(b, a)).all()


class TestSwitchPairCounts:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 20))
        activity = _random_activity(rng, n)
        codec: dict[str, int] = {}
        ids = encode_activity(activity, codec)
        assert switch_pair_counts_encoded(ids) == _switch_pair_counts(activity)

    def test_exact_ints(self):
        codec: dict[str, int] = {}
        ids = encode_activity(("a", "b", None, "a", None, "c"), codec)
        strict, lenient = switch_pair_counts_encoded(ids)
        assert isinstance(strict, int) and isinstance(lenient, int)


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
        ref = _weighted_switch_sums(activity, W)
        assert vec[0] == pytest.approx(ref[0], rel=1e-12)
        assert vec[1] == pytest.approx(ref[1], rel=1e-12)

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
