"""Golden merge-search results on designs with >= 12 configurations.

The differential gate compares the two engines with each other, so a
change that moves both at once -- say, a new way to compute a group's
switch statistics -- passes it unseen.  This file pins what the search
returns on two synthetic designs wide enough (>= 12 configurations) to
reach the size-dependent switch-statistics paths: one unweighted, one
with a random pair-weight matrix.  Every candidate set of a design runs
through one shared merge cache, as in ``partition()``.  Per set it pins
the best cost's ``repr`` (exact floats), the merged regions' member
labels in member order (every other candidate partition keeps a region
of its own), and the search's explored and feasible state counts.  The
values were taken from a run of the search as it stood when this file
was added.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.resources import ResourceVector
from repro.core.allocation import (
    AllocationOptions,
    _MergeCache,
    search_candidate_set,
)
from repro.core.clustering import enumerate_base_partitions
from repro.core.cost import TransitionPolicy
from repro.core.covering import candidate_partition_sets
from repro.core.matrix import ConnectivityMatrix
from repro.synth.generator import GeneratorConfig, generate_design
from repro.synth.profiles import CIRCUIT_CLASSES

#: Few modules with many modes, each present in half the configurations:
#: the coupon-collector sampling then needs a dozen configurations or more.
WIDE = GeneratorConfig(
    min_modules=2, max_modules=3, min_modes=4, max_modes=6,
    module_presence_probability=0.5,
)

#: case -> (generator seed, configurations, budget, weighted)
CASES = {
    "unweighted": (19, 13, ResourceVector(28084, 356, 320), False),
    "weighted": (5, 13, ResourceVector(19124, 268, 64), True),
}


def wide_design(case):
    seed, _, _, _ = CASES[case]
    rng = np.random.default_rng(seed)
    return generate_design(
        rng, CIRCUIT_CLASSES[seed % len(CIRCUIT_CLASSES)], f"wide{seed}", WIDE
    )


def golden_run(case, policy):
    """(repr(best cost), states, feasible, merged regions) per set."""
    _, _, capacity, weighted = CASES[case]
    design = wide_design(case)
    weights = None
    if weighted:
        n = len(design.configurations)
        w = np.random.default_rng(0).random((n, n))
        weights = w + w.T
    options = AllocationOptions(policy=policy, pair_weights=weights)
    cache = _MergeCache(weights)
    cm = ConnectivityMatrix.from_design(design)
    bps = enumerate_base_partitions(design, cm)
    out = []
    for cps in candidate_partition_sets(bps, cm, max_sets=4):
        res = search_candidate_set(design, cps, capacity, options, cache)
        merged = tuple(
            " ".join(p.label for p in g.members)
            for g in res.best_groups
            if len(g.members) > 1
        )
        out.append(
            (repr(res.best_cost), res.states_explored, res.feasible_states,
             merged)
        )
    return out


GOLDEN = {
    ("weighted", "STRICT"): [
        ("721233.9165345179", 749, 435, (
            "{M2.4} {M2.5} {M1.3} {M0.3} {M0.2} {M2.3} {M1.1} {M0.4} {M0.1} {M2.1}",
        )),
        ("752218.9222312057", 832, 450, (
            "{M2.4} {M2.5} {M1.3} {M0.3} {M0.2} {M2.3} {M1.1} {M0.4} {M0.1} {M2.1}",
            "{M2.0} {M0.0, M2.3}",
        )),
        ("786862.4464106635", 878, 427, (
            "{M0.2} {M2.0} {M0.0, M2.3}",
            "{M2.4} {M2.5} {M1.3} {M0.3} {M2.3} {M0.2, M2.2} {M1.1} {M0.4} {M0.1} {M2.1}",
        )),
    ],
    ("weighted", "LENIENT"): [
        ("47015.90932066858", 409, 95, (
            "{M0.5} {M1.1} {M0.4}",
            "{M0.2} {M0.1} {M2.1}",
        )),
        ("82386.49919043857", 468, 86, (
            "{M0.5} {M1.1} {M0.4}",
            "{M2.0} {M0.2} {M0.1} {M2.1}",
        )),
        ("82352.68766213291", 530, 79, (
            "{M1.0} {M1.1} {M0.2, M2.2}",
            "{M0.2} {M0.4} {M0.1} {M2.1}",
        )),
    ],
    ("unweighted", "STRICT"): [
        ("881696", 830, 479, (
            "{M2.5} {M0.2}",
            "{M0.0} {M1.2} {M2.2} {M0.3} {M0.4} {M1.1} {M1.3} {M2.1} {M1.0} {M0.1}",
        )),
        ("945782", 846, 426, (
            "{M2.5} {M0.2} {M0.1, M2.0}",
            "{M0.0} {M1.2} {M2.2} {M0.3} {M0.4} {M1.1} {M1.3} {M2.1} {M1.0} {M0.1}",
        )),
        ("963062", 855, 397, (
            "{M2.5} {M0.2} {M0.1, M2.0}",
            "{M0.0} {M2.2} {M1.2, M2.3} {M0.3} {M0.4} {M1.1} {M1.3} {M2.1} {M1.0} {M0.1}",
        )),
        ("1071742", 787, 257, (
            "{M2.5} {M0.2} {M0.1, M2.4}",
            "{M0.0} {M2.2} {M1.2, M2.3} {M0.3} {M0.4} {M1.1} {M1.3} {M2.1} {M1.0} {M0.1}",
        )),
    ],
    ("unweighted", "LENIENT"): [
        ("73310", 440, 89, (
            "{M2.4} {M2.1} {M0.2}",
            "{M0.1} {M1.0} {M1.3}",
        )),
        ("75080", 501, 81, (
            "{M2.3} {M2.4}",
            "{M2.1} {M0.2} {M0.1, M2.0}",
            "{M0.1} {M1.0} {M1.3}",
        )),
        ("77832", 536, 78, (
            "{M1.4} {M1.2, M2.3}",
            "{M2.1} {M0.2} {M0.1, M2.0}",
            "{M0.1} {M1.0} {M1.3}",
        )),
        ("85000", 595, 65, (
            "{M1.4} {M0.3}",
            "{M2.1} {M0.2} {M0.1, M2.4}",
            "{M0.1, M2.0} {M1.0} {M1.3}",
            "{M2.5} {M0.1}",
        )),
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_design_is_wide(case):
    assert len(wide_design(case).configurations) == CASES[case][1] >= 12


@pytest.mark.parametrize("policy", list(TransitionPolicy), ids=lambda p: p.name)
@pytest.mark.parametrize("case", sorted(CASES))
def test_search_matches_golden(case, policy):
    assert golden_run(case, policy) == GOLDEN[case, policy.name]
