"""Reconfiguration-time cost model (paper Eqs. 7-11).

Reconfiguration time is proportional to frames rewritten (Eq. 9), so all
costs are expressed in frames.  For a transition between configurations
``i`` and ``j``, region ``r`` contributes its full frame footprint when
its content must change (decision variable ``d_ij``, Eq. 8):

* ``TransitionPolicy.STRICT`` -- ``d = 1`` whenever the active partition
  differs, *including* a region falling out of use or coming into use
  (the most literal reading of "contains different base partitions");
* ``TransitionPolicy.LENIENT`` -- a transition whose destination does not
  use the region is free (stale content is simply ignored), and a region
  coming into use only pays when its last-used content differs.  Under
  this policy a region with a single distinct active partition never
  reconfigures -- it is effectively static, which is how the paper's
  algorithm "moves modes into the static region" (default).

**Total reconfiguration time** (Eq. 7/10) sums the transition cost over
all unordered configuration pairs -- the paper's proxy when the adaptation
sequence is unknown.  **Worst-case reconfiguration time** (Eq. 11) is the
maximum single-transition cost.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .kernels import encode_activity, pairwise_frames_matrix
from .result import PartitioningScheme


class TransitionPolicy(enum.Enum):
    """How ``d_ij`` treats regions unused on one side of a transition."""

    STRICT = "strict"
    LENIENT = "lenient"

    def region_reconfigures(self, before: str | None, after: str | None) -> bool:
        """Does a region holding ``before`` need rewriting to serve ``after``?"""
        if self is TransitionPolicy.STRICT:
            return before != after
        # LENIENT: nothing to load when the destination ignores the region;
        # when it does use it, pay only if the content differs (an unused
        # "before" keeps whatever was loaded previously -- the symmetric
        # pairwise proxy treats that as the last active content, i.e. no
        # charge, matching the paper's static-region behaviour).
        if after is None:
            return False
        if before is None:
            return False
        return before != after


DEFAULT_POLICY = TransitionPolicy.LENIENT


def _cost_arrays(
    scheme: PartitioningScheme,
) -> tuple[list[str], dict[str, int], "np.ndarray", "np.ndarray"]:
    """(names, name->index, encoded activity table, region frames).

    Hoisted once per scheme into its ``_cost_cache`` so the Eq. 7/10/11
    functions below share one ``activity()`` pass instead of re-deriving
    it for every one of the C^2 configuration pairs.
    """
    arrays = scheme._cost_cache.get("arrays")
    if arrays is None:
        names = [c.name for c in scheme.design.configurations]
        index = {name: i for i, name in enumerate(names)}
        codec: dict[str, int] = {}
        ids = np.empty((len(names), len(scheme.regions)), dtype=np.int32)
        for i, name in enumerate(names):
            ids[i] = encode_activity(scheme.activity(name), codec)
        frames = np.array([r.frames for r in scheme.regions], dtype=np.int64)
        arrays = (names, index, ids, frames)
        scheme._cost_cache["arrays"] = arrays
    return arrays


def _frames_matrix(
    scheme: PartitioningScheme, policy: TransitionPolicy
) -> "np.ndarray":
    """Cached all-pairs transition-cost matrix (one per scheme x policy)."""
    key = ("matrix", policy)
    matrix = scheme._cost_cache.get(key)
    if matrix is None:
        _, _, ids, frames = _cost_arrays(scheme)
        matrix = pairwise_frames_matrix(
            ids, frames, lenient=policy is TransitionPolicy.LENIENT
        )
        scheme._cost_cache[key] = matrix
    return matrix


def transition_frames(
    scheme: PartitioningScheme,
    config_a: str,
    config_b: str,
    policy: TransitionPolicy = DEFAULT_POLICY,
) -> int:
    """Frames rewritten when switching ``config_a`` -> ``config_b`` (Eq. 8).

    Under both policies the value is symmetric in its arguments, matching
    the unordered-pair sum of Eq. 7.  Served from the scheme's cached
    transition matrix, so chains of queries (simulator traces, the
    pairwise sums below) cost one vectorized pass total.
    """
    _, index, _, _ = _cost_arrays(scheme)
    ia = index.get(config_a)
    if ia is None:
        scheme.activity(config_a)  # raises the canonical KeyError
    ib = index.get(config_b)
    if ib is None:
        scheme.activity(config_b)
    return int(_frames_matrix(scheme, policy)[ia, ib])


def total_reconfiguration_frames(
    scheme: PartitioningScheme,
    policy: TransitionPolicy = DEFAULT_POLICY,
) -> int:
    """Eq. 7/10: sum of transition costs over all unordered config pairs."""
    matrix = _frames_matrix(scheme, policy)
    return int(np.triu(matrix, 1).sum())


def worst_case_frames(
    scheme: PartitioningScheme,
    policy: TransitionPolicy = DEFAULT_POLICY,
) -> int:
    """Eq. 11: the largest single-transition cost (0 for one configuration)."""
    matrix = _frames_matrix(scheme, policy)
    return int(matrix.max(initial=0))


def transition_matrix(
    scheme: PartitioningScheme,
    policy: TransitionPolicy = DEFAULT_POLICY,
) -> dict[tuple[str, str], int]:
    """All pairwise transition costs keyed by (config_a, config_b), a < b."""
    names, _, _, _ = _cost_arrays(scheme)
    matrix = _frames_matrix(scheme, policy)
    return {
        (names[i], names[j]): int(matrix[i, j])
        for i, j in itertools.combinations(range(len(names)), 2)
    }


def weighted_total_frames(
    scheme: PartitioningScheme,
    probabilities: Mapping[tuple[str, str], float],
    policy: TransitionPolicy = DEFAULT_POLICY,
) -> float:
    """Probability-weighted total (the paper's "if some statistical
    information about the probabilities ... is known" extension).

    ``probabilities`` maps pairs to weights; missing pairs default to 0.
    Keys in both orders are summed (a chain's i->j and j->i mass both
    count towards the unordered pair), matching how the partitioner's
    weighted objective folds the same mapping into its weight matrix.
    """
    names, _, _, _ = _cost_arrays(scheme)
    matrix = _frames_matrix(scheme, policy)
    total = 0.0
    for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
        w = probabilities.get((a, b), 0.0) + probabilities.get((b, a), 0.0)
        if w < 0:
            raise ValueError(f"negative transition probability for {(a, b)}")
        if w:
            total += w * int(matrix[i, j])
    return total


@dataclass(frozen=True)
class SchemeCost:
    """Cost summary of one scheme (what Table IV reports per row)."""

    strategy: str
    total_frames: int
    worst_frames: int
    usage_clb: int
    usage_bram: int
    usage_dsp: int
    region_count: int
    feasible: bool

    @classmethod
    def of(
        cls,
        scheme: PartitioningScheme,
        capacity,
        policy: TransitionPolicy = DEFAULT_POLICY,
    ) -> "SchemeCost":
        usage = scheme.resource_usage()
        return cls(
            strategy=scheme.strategy,
            total_frames=total_reconfiguration_frames(scheme, policy),
            worst_frames=worst_case_frames(scheme, policy),
            usage_clb=usage.clb,
            usage_bram=usage.bram,
            usage_dsp=usage.dsp,
            region_count=scheme.region_count,
            feasible=scheme.fits(capacity) if capacity is not None else True,
        )


def evaluate(
    scheme: PartitioningScheme,
    capacity=None,
    policy: TransitionPolicy = DEFAULT_POLICY,
) -> SchemeCost:
    """Convenience wrapper producing a :class:`SchemeCost`."""
    return SchemeCost.of(scheme, capacity, policy)


def percentage_change(baseline: int, proposed: int) -> float:
    """Improvement of ``proposed`` over ``baseline`` in percent.

    Positive means the proposed scheme is better (smaller).  A zero
    baseline with a zero proposal is 0%; a zero baseline with a non-zero
    proposal is undefined and raises.
    """
    if baseline == 0:
        if proposed == 0:
            return 0.0
        raise ZeroDivisionError("baseline cost is zero but proposal is not")
    return 100.0 * (baseline - proposed) / baseline
