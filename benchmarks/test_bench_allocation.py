"""Merge-search engine benches: incremental vs reference.

Measures the speedup of the heap-driven ``"incremental"`` engine over
the ``"reference"`` rescan engine on large synthetic designs while
asserting the two agree bit-for-bit (the differential gate of
``tests/core/test_engine_differential.py``, run here at bench size).

Sizes are environment-tunable so the CI smoke job can run a tiny
configuration:

* ``REPRO_BENCH_ALLOC_DESIGNS`` -- designs per bench (default 4);
* ``REPRO_BENCH_ALLOC_CONFIG``  -- ``large`` (default; the Sec. V upper
  band: 6-8 modules, 3-4 modes) or ``small``.

Results land in ``BENCH_allocation.json`` (see conftest); the committed
copy holds a full-size run quoted by docs/PERFORMANCE.md.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.arch.resources import ResourceVector
from repro.arch.tiles import quantised_footprint
from repro.core.allocation import AllocationOptions
from repro.core.partitioner import PartitionerOptions, partition
from repro.synth.generator import GeneratorConfig, generate_design
from repro.synth.profiles import CIRCUIT_CLASSES

DESIGNS = int(os.environ.get("REPRO_BENCH_ALLOC_DESIGNS", "4"))
CONFIG = os.environ.get("REPRO_BENCH_ALLOC_CONFIG", "large")

GENERATOR = (
    GeneratorConfig(min_modules=6, max_modules=8, min_modes=3, max_modes=4)
    if CONFIG == "large"
    else GeneratorConfig(max_modules=4, max_modes=3)
)


def _designs(count=None, seed0=7000):
    out = []
    for k in range(count or DESIGNS):
        rng = np.random.default_rng(seed0 + k)
        out.append(
            generate_design(
                rng,
                CIRCUIT_CLASSES[k % len(CIRCUIT_CLASSES)],
                f"bench{k}",
                GENERATOR,
            )
        )
    return out


def _capacity(design, scale=1.4):
    total = ResourceVector.sum(m.resources for m in design.all_modes)
    q = quantised_footprint(total)
    return ResourceVector(
        clb=int(q.clb * scale) + 20,
        bram=int(q.bram * scale) + 4,
        dsp=int(q.dsp * scale) + 8,
    )


def _run(design, engine):
    opts = PartitionerOptions(allocation=AllocationOptions(engine=engine))
    t0 = time.perf_counter()
    result = partition(design, _capacity(design), opts)
    elapsed = time.perf_counter() - t0
    fingerprint = (
        tuple((r.name, r.labels, r.frames) for r in result.scheme.regions),
        result.total_frames,
        result.worst_frames,
        result.objective,
    )
    return elapsed, fingerprint


def test_engine_speedup(bench_record):
    """Reference vs incremental wall time; results must be bit-identical."""
    t_ref = t_inc = 0.0
    per_design = []
    for design in _designs():
        d_ref, fp_ref = _run(design, "reference")
        d_inc, fp_inc = _run(design, "incremental")
        assert fp_ref == fp_inc, f"engines disagree on {design.name}"
        t_ref += d_ref
        t_inc += d_inc
        per_design.append(
            {
                "design": design.name,
                "reference_s": round(d_ref, 3),
                "incremental_s": round(d_inc, 3),
            }
        )
    speedup = t_ref / max(t_inc, 1e-9)
    bench_record(
        config=CONFIG,
        designs=DESIGNS,
        cpu_count=os.cpu_count(),
        reference_s=round(t_ref, 3),
        incremental_s=round(t_inc, 3),
        speedup=round(speedup, 2),
        per_design=per_design,
    )
    print(
        f"\nengine speedup ({DESIGNS} {CONFIG} designs): "
        f"reference {t_ref:.2f}s vs incremental {t_inc:.2f}s "
        f"-> {speedup:.2f}x"
    )
    # Tiny smoke designs are setup-dominated; the speedup claim is only
    # meaningful (and asserted) at the full bench size.
    if CONFIG == "large":
        assert speedup > 1.5


def test_partition_incremental(benchmark):
    """pytest-benchmark stats for the default engine on one bench design."""
    design = _designs(count=1)[0]
    capacity = _capacity(design)
    result = benchmark.pedantic(
        partition, args=(design, capacity), rounds=1, iterations=1
    )
    assert result.total_frames > 0
