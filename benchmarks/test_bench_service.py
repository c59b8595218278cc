"""Batch-service throughput: worker scaling and cold vs. warm cache.

Numbers land in EXPERIMENTS.md ("Batch service throughput").  Two
caveats the assertions encode:

* the warm-cache win is architectural and must always hold -- a second
  run of the same population serves 100% from the content-addressed
  cache and never re-enters the merge search, so its throughput is
  orders of magnitude above the cold run;
* the multi-worker win is *hardware-conditional*: process fan-out can
  only beat one worker when the host has more than one core, so the
  scaling assertion is gated on ``os.cpu_count()`` (single-core CI
  still exercises the pool path and checks result parity).
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.eval.report import render_table
from repro.service import JobStore, ResultCache, run_batch
from repro.synth.generator import generate_population

#: Population size for the throughput benches (ISSUE floor: >= 20).
N_DESIGNS = 20
SEED = 7
#: Bound the search so a 20-design cold run stays in benchmark budget.
MAX_SETS = 3


@pytest.fixture(scope="module")
def population():
    return [d for _cls, d in generate_population(N_DESIGNS, seed=SEED)]


def submit_all(store: JobStore, population) -> None:
    for design in population:
        store.submit_design(design, max_candidate_sets=MAX_SETS)


def timed_run(tmp_path, tag, population, workers, cache=None, **options):
    store = JobStore.open(tmp_path / f"queue-{tag}")
    submit_all(store, population)
    cache = cache or ResultCache(tmp_path / f"cache-{tag}")
    started = time.perf_counter()
    report = run_batch(store, cache, workers=workers, **options)
    wall = time.perf_counter() - started
    return report, wall, cache


def test_cold_vs_warm_cache(benchmark, tmp_path, population):
    """Second submission of the same population: 100% cache, no search."""
    cold, cold_wall, cache = timed_run(tmp_path, "cold", population, workers=1)
    assert cold.done == N_DESIGNS
    assert cold.cache_hits == 0

    def warm_run():
        store = JobStore.open(
            tmp_path / f"queue-warm-{warm_run.calls}"
        )
        warm_run.calls += 1
        submit_all(store, population)
        return run_batch(store, cache, workers=1)

    warm_run.calls = 0
    warm = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    assert warm.cache_hits == N_DESIGNS
    assert warm.cache_hit_rate == 1.0
    assert warm.computed == 0  # merge search never re-ran
    assert warm.busy_s == 0.0  # no worker was ever dispatched
    assert warm.jobs_per_s > 10 * cold.jobs_per_s

    print()
    print(render_table(
        ("run", "jobs", "done", "cache hits", "wall (s)", "jobs/s"),
        [
            ("cold, 1 worker", cold.total, cold.done, cold.cache_hits,
             f"{cold_wall:.2f}", f"{cold.jobs_per_s:.2f}"),
            ("warm, 1 worker", warm.total, warm.done, warm.cache_hits,
             f"{warm.duration_s:.2f}", f"{warm.jobs_per_s:.2f}"),
        ],
        title=f"Cold vs. warm cache ({N_DESIGNS} synthetic designs)",
    ))


def test_worker_scaling(benchmark, tmp_path, population):
    """1 vs. 4 workers on a cold cache: parity always, speedup per core."""
    solo, solo_wall, solo_cache = timed_run(
        tmp_path, "solo", population, workers=1
    )
    quad, quad_wall, quad_cache = timed_run(
        tmp_path, "quad", population, workers=4
    )

    # Parity: same problems, same keys, same schemes, regardless of pool.
    assert solo.done == quad.done == N_DESIGNS
    assert solo.failed == quad.failed == 0
    assert sorted(solo_cache.keys()) == sorted(quad_cache.keys())

    cores = os.cpu_count() or 1
    print()
    print(render_table(
        ("workers", "wall (s)", "jobs/s", "utilisation"),
        [
            (1, f"{solo_wall:.2f}", f"{solo.jobs_per_s:.2f}",
             f"{solo.worker_utilisation:.0%}"),
            (4, f"{quad_wall:.2f}", f"{quad.jobs_per_s:.2f}",
             f"{quad.worker_utilisation:.0%}"),
        ],
        title=f"Worker scaling, cold cache ({cores} host cores)",
    ))
    if cores >= 2:
        # On a real multi-core host the pool must beat one worker.
        assert quad_wall < solo_wall

    # Steady-state benchmark: the cheap end-to-end path (warm cache).
    def warm_status():
        store = JobStore.open(tmp_path / f"queue-bench-{warm_status.calls}")
        warm_status.calls += 1
        submit_all(store, population)
        return run_batch(store, solo_cache, workers=1)

    warm_status.calls = 0
    report = benchmark.pedantic(warm_status, rounds=3, iterations=1)
    assert report.cache_hit_rate == 1.0


#: Inline/supervised pairs timed by the supervision-overhead bench.
SUPERVISION_PAIRS = 5


def test_supervision_overhead(benchmark, tmp_path, population):
    """Supervised (heartbeats + deadlines) vs. inline execution, cold.

    Supervision runs jobs on the persistent warm pool (one worker here),
    ships each outcome back over the worker's pipe and checks heartbeat
    files every poll period -- this bench pins the number quoted in
    EXPERIMENTS.md ("Supervision (timeout-path) overhead").  The
    deadline is generous: nothing times out, so the delta is pure
    supervision machinery (dispatch + beats + poll), not kill/retry
    cost.  One untimed job first warms the process (the forked worker
    inherits that warm-up), then ``SUPERVISION_PAIRS`` inline/supervised
    pairs run back to back, each side on a fresh queue and cache, with
    the order inside a pair alternating.  The overhead is the median of
    the per-pair ratios; their spread (min to max) says whether the
    host can resolve it at all.
    """
    small = population[:6]
    supervision = dict(job_timeout_s=300.0, heartbeat_interval_s=0.5,
                       heartbeat_timeout_s=30.0)
    timed_run(tmp_path, "warm-up", population[6:7], workers=1)
    walls: dict[str, list[float]] = {"inline": [], "supervised": []}
    for k in range(SUPERVISION_PAIRS):
        order = ("inline", "supervised")
        for mode in order if k % 2 == 0 else order[::-1]:
            report, wall, cache = timed_run(
                tmp_path, f"{mode}-{k}", small, workers=1,
                **(supervision if mode == "supervised" else {}),
            )
            assert report.failed == 0
            assert report.timeouts == 0
            assert report.done == len(small)
            walls[mode].append(wall)
    inline_wall = statistics.median(walls["inline"])
    supervised_wall = statistics.median(walls["supervised"])
    ratios = [s / i - 1.0 for i, s in zip(walls["inline"],
                                          walls["supervised"])]
    overhead = statistics.median(ratios)
    spread = max(ratios) - min(ratios)
    print()
    print(render_table(
        ("mode", "median wall (s)", "jobs/s", "overhead"),
        [
            ("inline (no supervision)", f"{inline_wall:.2f}",
             f"{len(small) / inline_wall:.2f}", "--"),
            ("supervised (pool/beat/poll)", f"{supervised_wall:.2f}",
             f"{len(small) / supervised_wall:.2f}", f"{overhead:+.1%}"),
        ],
        title=f"Supervision overhead ({len(small)} cold synthetic designs, "
        f"{SUPERVISION_PAIRS} pairs)",
    ))
    print(
        "per-pair overhead: "
        + ", ".join(f"{r:+.1%}" for r in ratios)
        + f"; median {overhead:+.1%}, spread {spread:.1%} "
        + ("(resolved)" if spread < abs(overhead) else
           "(not resolved: spread >= |median|)")
    )

    # Steady-state benchmark of the supervised timeout path itself: a
    # warm rerun under supervision (all hits, nothing dispatched).
    def warm_supervised():
        s = JobStore.open(tmp_path / f"queue-sup-warm-{warm_supervised.calls}")
        warm_supervised.calls += 1
        submit_all(s, small)
        return run_batch(s, cache, workers=1, job_timeout_s=300.0)

    warm_supervised.calls = 0
    warm = benchmark.pedantic(warm_supervised, rounds=3, iterations=1)
    assert warm.cache_hit_rate == 1.0
