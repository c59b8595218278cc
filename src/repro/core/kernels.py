"""Vectorized cost kernels over integer-encoded activity vectors.

The cost model (paper Eqs. 7-11) and the weighted merge search reduce to
one primitive: given an *activity vector* -- "which partition label is
active in each configuration" -- count (or weight) the configuration
pairs whose entries differ.  This module encodes activity vectors as
small numpy int arrays (one id per label, ``-1`` for ``None``) and
evaluates the pair sums as broadcast operations.  The kernels compare
ids only for equality and sign, so any injective codec gives the same
result.

:func:`pairwise_frames_matrix` returns exact ints.
:func:`weighted_switch_sums_encoded` sums the scalar loop's terms in
numpy's reduction order, so the search picks one implementation per
design size (``_weighted_switch_sums`` in :mod:`repro.core.allocation`).
The unweighted merge search needs no kernel: a group's pair counts
follow from two ints (``_switch_counts``).
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


def weighted_switch_sums_encoded(
    ids: np.ndarray, weights: np.ndarray
) -> tuple[float, float]:
    """(strict, lenient) switch sums under a symmetric pair-weight matrix.

    Same terms as the scalar loop of ``_weighted_switch_sums`` summed in
    numpy's reduction order (not guaranteed bit-identical to the python
    loop; callers must use one implementation consistently within a
    search).
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
