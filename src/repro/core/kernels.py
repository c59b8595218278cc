"""Vectorized cost kernels over integer-encoded activity vectors.

The cost model (paper Eqs. 7-11) and the merge search both reduce to one
primitive: given an *activity vector* -- "which partition label is active
in each configuration" -- count (or weight) the configuration pairs whose
entries differ.  Python-level pair loops dominate the profile once
designs grow past a dozen configurations, so this module encodes
activity vectors as small numpy int arrays (one id per label, ``-1`` for
``None``) and evaluates the pair sums as bincount / broadcast
operations.

All unweighted kernels return exact ints, bit-identical to the scalar
loops in :mod:`repro.core.allocation` and :mod:`repro.core.cost`; the
weighted kernel sums the same terms but in numpy's reduction order,
which is why callers must pick one implementation per search (see
``_switch_stats`` in :mod:`repro.core.allocation`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Sentinel id for "region unused in this configuration" (``None`` labels).
NONE_ID = -1


def encode_activity(
    activity: Sequence[str | None], codec: dict[str, int]
) -> np.ndarray:
    """Encode an activity vector as an int32 id array.

    ``codec`` maps labels to dense non-negative ids and grows on first
    sight of a label; ``None`` encodes as :data:`NONE_ID`.  One codec must
    be shared by every vector that will be compared element-wise.
    """
    ids = np.empty(len(activity), dtype=np.int32)
    for i, label in enumerate(activity):
        if label is None:
            ids[i] = NONE_ID
        else:
            code = codec.get(label)
            if code is None:
                code = len(codec)
                codec[label] = code
            ids[i] = code
    return ids


def merge_encoded(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlay of two disjoint encoded activity vectors.

    Mirrors the tuple overlay in ``_MergeCache.merge``: wherever ``a`` is
    active its id wins, otherwise ``b``'s entry is taken.  For compatible
    groups the non-``None`` positions are disjoint, so the overlay is
    symmetric.
    """
    return np.where(a >= 0, a, b)


def switch_pair_counts_encoded(ids: np.ndarray) -> tuple[int, int]:
    """(strict, lenient) pair counts of one encoded activity vector.

    Exact-int equivalent of ``_switch_pair_counts``: strict counts every
    unordered pair with differing entries (``None`` is a value), lenient
    additionally requires both entries non-``None``.
    """
    n = int(ids.size)
    if n < 2:
        return 0, 0
    counts = np.bincount(ids + 1)  # slot 0 holds the None count
    same = int((counts * (counts - 1) // 2).sum())
    none = int(counts[0])
    strict = n * (n - 1) // 2 - same
    non_none = n - none
    lenient = non_none * (non_none - 1) // 2 - (same - none * (none - 1) // 2)
    return strict, lenient


def weighted_switch_sums_encoded(
    ids: np.ndarray, weights: np.ndarray
) -> tuple[float, float]:
    """(strict, lenient) switch sums under a symmetric pair-weight matrix.

    Same terms as ``_weighted_switch_sums`` summed in numpy's reduction
    order (not guaranteed bit-identical to the python loop; callers must
    use one implementation consistently within a search).
    """
    n = int(ids.size)
    if n < 2:
        return 0.0, 0.0
    W = np.asarray(weights, dtype=float)
    diff = ids[:, None] != ids[None, :]
    upper = np.triu(diff, 1)
    strict = float(W[upper].sum())
    valid = ids >= 0
    both = valid[:, None] & valid[None, :]
    lenient = float(W[np.triu(diff & both, 1)].sum())
    return strict, lenient


def pairwise_frames_matrix(
    ids: np.ndarray, frames: np.ndarray, lenient: bool
) -> np.ndarray:
    """All-pairs transition-cost matrix (Eq. 8 for every config pair).

    ``ids`` is a (configs x regions) encoded activity table, ``frames``
    the per-region frame footprint.  Entry ``[i, j]`` is the frames
    rewritten switching configuration ``i`` -> ``j``; the matrix is
    symmetric with a zero diagonal.  Under the lenient policy a region
    only pays when both sides use it with different content.
    """
    A = np.asarray(ids)
    F = np.asarray(frames, dtype=np.int64)
    if A.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.int64)
    diff = A[:, None, :] != A[None, :, :]
    if lenient:
        valid = A >= 0
        diff &= valid[:, None, :] & valid[None, :, :]
    return diff.astype(np.int64) @ F
