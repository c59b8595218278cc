"""Canonical problem keys: stability, order-independence, sensitivity."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.resources import ResourceVector
from repro.core.fingerprint import canonical_problem, problem_key
from repro.core.model import PRDesign
from repro.core.partitioner import PartitionerOptions
from repro.synth.generator import GeneratorConfig, generate_design
from repro.synth.profiles import CircuitClass

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CAPACITY = ResourceVector(5000, 64, 64)


@st.composite
def synthetic_designs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    cls = draw(st.sampled_from(list(CircuitClass)))
    rng = np.random.default_rng(seed)
    cfg = GeneratorConfig(max_modules=4, max_modes=3)
    return generate_design(rng, cls, name=f"fp-{seed}", config=cfg)


def shuffled_copy(design: PRDesign, name: str | None = None) -> PRDesign:
    """The same design with every declaration order reversed."""
    return PRDesign(
        name=name or design.name,
        modules=tuple(reversed(design.modules)),
        configurations=tuple(reversed(design.configurations)),
        static_resources=design.static_resources,
    )


class TestKeyStability:
    @SETTINGS
    @given(synthetic_designs())
    def test_identical_problems_identical_keys(self, design):
        assert problem_key(design, CAPACITY) == problem_key(design, CAPACITY)

    @SETTINGS
    @given(synthetic_designs())
    def test_declaration_order_is_canonicalised(self, design):
        assert problem_key(design, CAPACITY) == problem_key(
            shuffled_copy(design), CAPACITY
        )

    @SETTINGS
    @given(synthetic_designs())
    def test_design_display_name_is_excluded(self, design):
        renamed = shuffled_copy(design, name=design.name + "-renamed")
        assert problem_key(design, CAPACITY) == problem_key(renamed, CAPACITY)

    def test_key_is_sha256_hex(self, tiny_design):
        key = problem_key(tiny_design, CAPACITY)
        assert len(key) == 64
        int(key, 16)  # hex


class TestKeySensitivity:
    @SETTINGS
    @given(synthetic_designs(), st.integers(1, 1000))
    def test_capacity_changes_key(self, design, delta):
        bumped = CAPACITY + ResourceVector(delta, 0, 0)
        assert problem_key(design, CAPACITY) != problem_key(design, bumped)

    def test_mode_footprint_changes_key(self, tiny_design):
        modules = list(tiny_design.modules)
        first = modules[0]
        bumped_mode = type(first.modes[0])(
            name=first.modes[0].name,
            module=first.modes[0].module,
            resources=first.modes[0].resources + ResourceVector(1, 0, 0),
        )
        modules[0] = type(first)(
            name=first.name, modes=(bumped_mode,) + first.modes[1:]
        )
        changed = PRDesign(
            name=tiny_design.name,
            modules=tuple(modules),
            configurations=tiny_design.configurations,
        )
        assert problem_key(tiny_design, CAPACITY) != problem_key(changed, CAPACITY)

    def test_options_change_key(self, tiny_design):
        base = problem_key(tiny_design, CAPACITY, PartitionerOptions())
        capped = problem_key(
            tiny_design, CAPACITY, PartitionerOptions(max_candidate_sets=2)
        )
        assert base != capped

    def test_pair_probabilities_symmetrised(self, tiny_design):
        a = PartitionerOptions(
            pair_probabilities={("Conf.1", "Conf.2"): 0.5}
        )
        b = PartitionerOptions(
            pair_probabilities={("Conf.2", "Conf.1"): 0.5}
        )
        assert problem_key(tiny_design, CAPACITY, a) == problem_key(
            tiny_design, CAPACITY, b
        )

    def test_extra_changes_key(self, tiny_design):
        assert problem_key(tiny_design, extra={"device": "LX30"}) != problem_key(
            tiny_design, extra={"device": "LX50"}
        )


class TestCanonicalForm:
    def test_json_serialisable_and_versioned(self, tiny_design):
        import json

        doc = canonical_problem(tiny_design, CAPACITY, PartitionerOptions())
        text = json.dumps(doc, sort_keys=True)
        assert "repro-problem" in text
        assert doc["version"] == 1

    def test_modules_sorted(self, tiny_design):
        doc = canonical_problem(shuffled_copy(tiny_design))
        names = [m["name"] for m in doc["design"]["modules"]]
        assert names == sorted(names)


class TestSearchOptionsKey:
    """Default options keep the keys of existing on-disk result caches."""

    @staticmethod
    def _key(design, **alloc):
        from repro.core.allocation import AllocationOptions

        return problem_key(
            design,
            CAPACITY,
            PartitionerOptions(allocation=AllocationOptions(**alloc)),
        )

    def test_default_options_omit_search_dict(self, tiny_design):
        """Default runs must keep their pre-existing keys (cache compat)."""
        doc = canonical_problem(
            tiny_design, CAPACITY, PartitionerOptions()
        )
        assert "search" not in doc["options"]
        # And the no-options key equals the explicit-defaults key.
        assert problem_key(tiny_design, CAPACITY, PartitionerOptions()) == (
            self._key(tiny_design)
        )

    def test_default_key_pinned(self):
        """The paper example's default key is a literal: a change to the
        canonical form would orphan every cached result."""
        from repro.eval.example_design import example_design

        key = problem_key(
            example_design(), ResourceVector(520, 16, 16), PartitionerOptions()
        )
        assert key == (
            "949d768fcf6b8724b7f10725d5f0a223d1ca984215a6d73e2fcd60a51fe4ee2b"
        )
