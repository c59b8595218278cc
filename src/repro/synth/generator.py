"""Synthetic PR design generator (paper Sec. V evaluation protocol).

Designs are generated with:

* 2-6 modules, each with 2-4 modes;
* mode CLB counts uniform in 25-4000, other resources drawn from the
  circuit-class profile (:mod:`repro.synth.profiles`);
* a static region of 90 CLBs + 8 BRAMs (the authors' ICAP controller
  plus associated logic);
* configurations generated at random "until every mode present in the
  design is utilised at least once" -- each configuration activates a
  random non-empty subset of modules with one random mode each.

The population round-robins over the four circuit classes so a batch of
4k designs contains k of each, as in the paper.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..arch.resources import ResourceVector
from ..core.model import Configuration, Mode, Module, PRDesign
from .profiles import (
    CIRCUIT_CLASSES,
    MAX_MODE_CLB,
    MIN_MODE_CLB,
    CircuitClass,
    profile_for,
)

#: Default Sec. V population size for sweeps and benches (paper: 1000).
DEFAULT_SWEEP_DESIGNS = int(os.environ.get("REPRO_SWEEP_DESIGNS", "200"))

#: Seed fixed so every sweep regenerates identical populations.
DEFAULT_SWEEP_SEED = 2013

#: Static region of every synthetic design (custom ICAP controller [15]).
STATIC_REGION = ResourceVector(clb=90, bram=8, dsp=0)

#: Structural ranges from the paper.
MIN_MODULES, MAX_MODULES = 2, 6
MIN_MODES, MAX_MODES = 2, 4

#: Safety cap: the coupon-collector loop must terminate even for wild rng.
MAX_CONFIG_ATTEMPTS = 10_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable generation parameters (defaults follow the paper)."""

    min_modules: int = MIN_MODULES
    max_modules: int = MAX_MODULES
    min_modes: int = MIN_MODES
    max_modes: int = MAX_MODES
    min_clb: int = MIN_MODE_CLB
    max_clb: int = MAX_MODE_CLB
    module_presence_probability: float = 0.75
    static_region: ResourceVector = STATIC_REGION

    def __post_init__(self) -> None:
        if not (1 <= self.min_modules <= self.max_modules):
            raise ValueError("invalid module count range")
        if not (1 <= self.min_modes <= self.max_modes):
            raise ValueError("invalid mode count range")
        if not (0 < self.module_presence_probability <= 1):
            raise ValueError("module presence probability must be in (0, 1]")
        if not (1 <= self.min_clb <= self.max_clb):
            raise ValueError("invalid CLB range")


def generate_design(
    rng: np.random.Generator,
    circuit_class: CircuitClass,
    name: str,
    config: GeneratorConfig | None = None,
) -> PRDesign:
    """Generate one synthetic design of the given circuit class."""
    cfg = config or GeneratorConfig()
    profile = profile_for(circuit_class)

    n_modules = int(rng.integers(cfg.min_modules, cfg.max_modules + 1))
    modules: list[Module] = []
    for m in range(n_modules):
        module_name = f"M{m}"
        n_modes = int(rng.integers(cfg.min_modes, cfg.max_modes + 1))
        modes = []
        for k in range(n_modes):
            clb = int(rng.integers(cfg.min_clb, cfg.max_clb + 1))
            resources = profile.sample(clb, rng)
            modes.append(Mode(name=f"{module_name}.{k}", module=module_name, resources=resources))
        modules.append(Module(name=module_name, modes=tuple(modes)))

    all_mode_names = [mode.name for module in modules for mode in module.modes]
    unused = set(all_mode_names)
    configurations: list[Configuration] = []
    seen_sets: set[frozenset[str]] = set()

    attempts = 0
    while unused:
        attempts += 1
        if attempts > MAX_CONFIG_ATTEMPTS:
            raise RuntimeError(
                f"configuration sampling did not converge for {name!r}"
            )
        present = [
            module
            for module in modules
            if rng.random() < cfg.module_presence_probability
        ]
        if not present:
            continue
        chosen: list[str] = []
        for module in present:
            # Prefer an unused mode when the module still has one: keeps
            # the configuration count realistic (the paper's designs have
            # at most a few dozen configurations).
            pool = [m.name for m in module.modes if m.name in unused]
            if pool and rng.random() < 0.75:
                mode_name = pool[int(rng.integers(len(pool)))]
            else:
                mode_name = module.modes[int(rng.integers(len(module.modes)))].name
            chosen.append(mode_name)
        mode_set = frozenset(chosen)
        if mode_set in seen_sets:
            continue
        seen_sets.add(mode_set)
        configurations.append(
            Configuration.of(f"Conf.{len(configurations) + 1}", mode_set)
        )
        unused -= mode_set

    return PRDesign(
        name=name,
        modules=tuple(modules),
        configurations=tuple(configurations),
        static_resources=cfg.static_region,
    )


def generate_population(
    count: int,
    seed: int = DEFAULT_SWEEP_SEED,
    config: GeneratorConfig | None = None,
) -> Iterator[tuple[CircuitClass, PRDesign]]:
    """Generate ``count`` designs, round-robin over circuit classes.

    Deterministic for a given (count, seed, config); designs are yielded
    lazily so sweeps can stream them.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    for i in range(count):
        circuit_class = CIRCUIT_CLASSES[i % len(CIRCUIT_CLASSES)]
        yield circuit_class, generate_design(
            rng, circuit_class, name=f"synthetic-{circuit_class.value}-{i:04d}",
            config=config,
        )


def population_summary(designs: Sequence[PRDesign]) -> dict[str, float]:
    """Aggregate statistics of a generated population (for reports/tests)."""
    import statistics

    n_modules = [len(d.modules) for d in designs]
    n_modes = [d.mode_count for d in designs]
    n_configs = [d.configuration_count for d in designs]
    return {
        "designs": float(len(designs)),
        "mean_modules": statistics.fmean(n_modules) if designs else 0.0,
        "mean_modes": statistics.fmean(n_modes) if designs else 0.0,
        "mean_configurations": statistics.fmean(n_configs) if designs else 0.0,
        "max_configurations": float(max(n_configs, default=0)),
    }
