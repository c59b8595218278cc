"""Replay-subsystem benches: engine throughput and the fleet sweep.

Two quantities the docs quote (docs/REPLAY.md "Measured numbers" and
docs/PERFORMANCE.md "Replay throughput"):

* engine throughput -- events/second of the pure replay loop on a
  10k-event bursty trace over the case-study scheme, per policy, plus
  the vectorized kernel vs the reference loop on the same trace;
* the fleet sweep -- ``REPRO_BENCH_REPLAY_TRACES`` synthesized traces
  (default 1000, the paper's population scale) x 3 policies through
  ``run_batch``, cold vs. fully cached, micro-batched
  ``REPRO_BENCH_REPLAY_BATCH`` traces per job.

The sweep's shape is tunable: ``REPRO_BENCH_REPLAY_TPD`` traces per
design (default 24) sets how much each resolved scheme is reused, and
``REPRO_BENCH_REPLAY_BATCH`` (default: one design's traces per job) how
many cells ride in one job.  CI smoke shrinks all of these; the
committed record uses the defaults.

The warm-sweep assertion is architectural and must always hold: a
second submission of the same suite serves every feasible cell from
the replay store in phase 1 of the batch runner, so only the designs
the device library cannot fit (the synthetic generator intentionally
overshoots sometimes) re-enter a worker.  Those infeasible designs
fail identically on both runs -- they are counted, recorded, and
excluded from the cache-hit accounting.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.partitioner import partition
from repro.eval.casestudy import CASESTUDY_BUDGET, casestudy_design
from repro.eval.report import render_table
from repro.replay import (
    TraceSpec,
    WorkloadSuite,
    iter_trace,
    replay_store_for,
    replay_trace,
    submit_replay_suite,
)
from repro.replay.trace import config_names
from repro.service import JobStore, ResultCache, run_batch

#: Fleet size knob: total synthesized traces in the sweep (CI smoke
#: sets a tiny value; the committed record uses the default).
REPLAY_TRACES = int(os.environ.get("REPRO_BENCH_REPLAY_TRACES", "1000"))
#: Traces per synthesized design: how often one resolved scheme is
#: reused across cells.  High reuse is the fleet-replay shape -- many
#: environment/seed cells against one deployed partitioning.
TRACES_PER_DESIGN = int(os.environ.get("REPRO_BENCH_REPLAY_TPD", "96"))
#: Traces per replay job.  Defaults to a whole design's worth, so one
#: job resolves the scheme once and replays every trace against it.
BATCH_SIZE = int(
    os.environ.get("REPRO_BENCH_REPLAY_BATCH", str(TRACES_PER_DESIGN))
)
DESIGNS = max((REPLAY_TRACES + TRACES_PER_DESIGN - 1) // TRACES_PER_DESIGN, 1)
POLICIES = ("no-prefetch", "prefetch-oracle", "evict-lru")
#: Events per synthesized trace; short on purpose -- the sweep bench
#: measures the service path, the throughput bench measures the engine.
SWEEP_LENGTH = 64
MAX_SETS = 3
SEED = 2013
ENGINE_EVENTS = 10_000


@pytest.fixture(scope="module")
def casestudy_scheme():
    return partition(casestudy_design(), CASESTUDY_BUDGET).scheme


def test_engine_throughput(benchmark, bench_record, casestudy_scheme):
    """Events/second of the replay loop, per policy, on one long trace."""
    names = config_names(casestudy_scheme.design)
    spec = TraceSpec(environment="bursty", length=ENGINE_EVENTS, seed=7)
    # Pre-materialise so the bench times the engine, not the rng stream.
    trace = list(iter_trace(names, spec))

    result = benchmark(replay_trace, casestudy_scheme, trace)
    assert result.events == ENGINE_EVENTS
    assert result.switches > 0

    rows = []
    rates = {}
    for policy in POLICIES:
        t0 = time.perf_counter()
        replay_trace(casestudy_scheme, trace, policy)
        wall = time.perf_counter() - t0
        rates[policy] = ENGINE_EVENTS / wall
        rows.append((policy, f"{rates[policy]:,.0f}"))
    # The vectorized kernel (what engine="auto" runs for no-prefetch)
    # vs the reference loop, same policy/trace.
    engine_rates = {}
    for label, engine in (("vector", "auto"), ("reference", "reference")):
        t0 = time.perf_counter()
        replay_trace(casestudy_scheme, trace, "no-prefetch", engine=engine)
        wall = time.perf_counter() - t0
        engine_rates[label] = ENGINE_EVENTS / wall
        rows.append((f"no-prefetch [{label}]", f"{engine_rates[label]:,.0f}"))
    print()
    print(render_table(("policy", "events/s"), rows,
                       title=f"replay engine, {ENGINE_EVENTS}-event trace"))
    bench_record(
        engine_events=ENGINE_EVENTS,
        engine_events_per_s={k: round(v) for k, v in rates.items()},
        engine_events_per_s_vector=round(engine_rates["vector"]),
        engine_events_per_s_reference=round(engine_rates["reference"]),
    )


def _submit(tmp_path, tag, suite):
    store = JobStore(tmp_path / f"queue-{tag}")
    jobs = submit_replay_suite(
        store, suite, POLICIES, max_candidate_sets=MAX_SETS, max_attempts=1,
        batch_size=BATCH_SIZE,
    )
    return store, jobs


def _cells(job):
    """Replay cells (trace x policy points) carried by one job."""
    return len(job.replay["traces"])


def test_fleet_sweep_cold_vs_cached(tmp_path, bench_record):
    """The acceptance-scale sweep: cold compute, then a 100% cached re-run."""
    suite = WorkloadSuite(
        designs=DESIGNS,
        traces_per_design=TRACES_PER_DESIGN,
        length=SWEEP_LENGTH,
        seed=SEED,
    )
    workers = os.cpu_count() or 1
    cache = ResultCache(tmp_path / "cache")

    cold_store, jobs = _submit(tmp_path, "cold", suite)
    total_cells = sum(_cells(j) for j in jobs)
    assert total_cells == suite.trace_count * len(POLICIES)
    t0 = time.perf_counter()
    cold = run_batch(cold_store, cache, workers=workers)
    cold_wall = time.perf_counter() - t0
    assert cold.done + cold.failed == len(jobs)
    assert cold.cache_hits == 0
    failed_ids = set(cold.failed_ids)
    done_cells = sum(_cells(j) for j in jobs if j.id not in failed_ids)
    assert len(replay_store_for(cache)) == done_cells

    warm_store, _ = _submit(tmp_path, "warm", suite)
    t0 = time.perf_counter()
    warm = run_batch(warm_store, cache, workers=workers)
    warm_wall = time.perf_counter() - t0
    # Every feasible cell is served from the replay store in phase 1;
    # only the infeasible designs fail again (identically).
    assert warm.cache_hits == cold.done
    assert warm.done == cold.done
    assert warm.failed == cold.failed

    rows = [
        ("cold", f"{cold_wall:.2f}", f"{done_cells / cold_wall:,.1f}"),
        ("cached", f"{warm_wall:.2f}", f"{done_cells / warm_wall:,.1f}"),
    ]
    print()
    print(render_table(
        ("run", "wall s", "cells/s"),
        rows,
        title=(
            f"replay sweep: {suite.trace_count} traces x "
            f"{len(POLICIES)} policies, {workers} workers, "
            f"batch size {BATCH_SIZE}"
        ),
    ))
    bench_record(
        sweep_traces=suite.trace_count,
        sweep_policies=len(POLICIES),
        sweep_jobs=len(jobs),
        sweep_cells=total_cells,
        sweep_done_cells=done_cells,
        sweep_batch_size=BATCH_SIZE,
        sweep_traces_per_design=TRACES_PER_DESIGN,
        sweep_infeasible=cold.failed,
        sweep_cold_s=round(cold_wall, 3),
        sweep_cached_s=round(warm_wall, 3),
        sweep_cells_per_s_cold=round(done_cells / cold_wall, 1),
        sweep_cells_per_s_cached=round(done_cells / warm_wall, 1),
        sweep_cached_hits=warm.cache_hits,
        sweep_speedup=round(cold_wall / warm_wall, 2) if warm_wall else None,
        sweep_workers=workers,
    )
    # The architectural claim: serving a fleet from the replay store is
    # never slower than recomputing it.
    assert warm_wall <= cold_wall
