"""One repetition of a workload, in a fresh Python process.

``run.py`` starts this script once per repetition, so no in-process
memo of the program (the replay service's warm scheme LRU and key memo,
the warm executors of ``repro.service.pool``, the ``default_library()``
memo) survives from one repetition to the next.  It prints one JSON
object as its last line: set-up and measured times, resource use, the
operations it checked and, when traced, the per-layer split.

``--role fill`` only fills a replay cache cold.  ``run.py`` runs it once
per ``replay-cached`` run; each repetition copies the filled cache in
its set-up, so the measured process starts with cold in-process memos.

Every process of a repetition samples the host's speed
(``hostspeed.py``); the times under ``"scaled"`` are the measured times
multiplied by the speed over their own window, the rest are as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--slice", default="0/1",
                    help="sweep only: k/n runs designs k, k+n, k+2n, ...")
    ap.add_argument("--role", choices=("measure", "fill"), default="measure")
    ap.add_argument("--filled", type=Path, default=None,
                    help="replay-cached: the directory a fill run wrote")
    return ap.parse_args(argv)


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    args = parse_args(argv)
    args.tmp.mkdir(parents=True, exist_ok=True)
    import hostspeed

    sampler = hostspeed.Sampler(args.tmp / "speed")
    rec = None
    if args.trace:
        import tracing

        rec = tracing.Recorder(args.tmp / "spans")
        tracing.install(rec)
        setup_root = rec.open(None, "setup")

    import workloads as wl
    from repro.arch.library import virtex5_ladder
    from repro.service import pool as svc_pool

    if args.role == "fill":
        fill(args, wl, svc_pool)
        sampler.stop()
        samples = hostspeed.load(sampler.directory)
        now = time.perf_counter()
        print(json.dumps({"speed": hostspeed.speed(samples, args.spawned_at, now)}))
        return 0

    reference = wl.load_reference()
    executor = None
    if args.workload == "sweep":
        k, n = (int(x) for x in args.slice.split("/"))
        designs = wl.sweep_fleet(args.seed)[k::n]
        library = virtex5_ladder()
    else:
        from repro.service import ResultCache

        suite = wl.replay_suite(args.seed)
        if args.workload == "replay-cached":
            import shutil

            shutil.copytree(args.filled / "cache", args.tmp / "cache")
        cache = ResultCache(args.tmp / "cache")
        # Suite generation, as the submissions will walk it.
        sum(1 for _ in suite.iter_workloads())
        executor = start_pool(svc_pool, args.workers)
    setup_s = time.perf_counter() - args.spawned_at
    if rec is not None:
        rec.close(setup_root)
        setup_counts = rec.counts.copy()
        rec.counts.clear()

    children_before = cpu_seconds(resource.RUSAGE_CHILDREN)
    self_before = cpu_seconds(resource.RUSAGE_SELF)
    t0, t0_epoch = time.perf_counter(), time.time()
    if rec is not None:
        measure_root = rec.open(None, "measure")
    if args.workload == "sweep":
        records, latencies, windows = [], [], []
        for design in designs:
            probed_at = sampler.sample()
            started = time.perf_counter()
            records.append(wl.sweep_design(design, library))
            ended = time.perf_counter()
            latencies.append(ended - started)
            windows.append((probed_at, ended))
    else:
        from repro.replay import submit_replay_suite
        from repro.service import JobStore

        queue = JobStore(args.tmp / "queue")
        jobs = submit_replay_suite(
            queue, suite, wl.POLICIES,
            max_candidate_sets=wl.MAX_CANDIDATE_SETS, max_attempts=1,
            batch_size=wl.TRACES_PER_DESIGN,
        )
        report = svc_pool.run_batch(queue, cache, workers=args.workers)
    wall_s = time.perf_counter() - t0
    if rec is not None:
        rec.close(measure_root)
        rec.active = False
    self_cpu = cpu_seconds(resource.RUSAGE_SELF) - self_before
    stop_pool(svc_pool, executor, args.workers)
    children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - children_before
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    sampler.stop()
    samples = hostspeed.load(sampler.directory)
    setup_speed = hostspeed.speed(samples, args.spawned_at, t0)
    wall_speed = hostspeed.speed(samples, t0, t0 + wall_s)

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": self_cpu + children_cpu,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if args.workload == "sweep":
        out.update(check_sweep(wl, designs, records, args.seed, reference))
        out["latencies"] = latencies
        out["designs"] = len(designs)
        scaled_latencies = [
            latency * hostspeed.speed(samples, *window)
            for latency, window in zip(latencies, windows)]
    else:
        out.update(check_replay(wl, queue, cache, jobs, report, args.seed,
                                reference, args.workload))
        # A design is served once its last job is done or failed.
        served: dict[str, float] = {}
        for job in jobs:
            design = job.name.split("/")[0]
            at = queue.get(job.id).updated_at - t0_epoch
            served[design] = max(served.get(design, 0.0), at)
        out["latencies"] = sorted(served.values())
        out["designs"] = len(served)
        scaled_latencies = [latency * hostspeed.speed(samples, t0, t0 + latency)
                            for latency in out["latencies"]]
    out["speed"] = wall_speed
    out["speed_samples"] = len(samples)
    out["scaled"] = {
        "setup_s": setup_s * setup_speed,
        "wall_s": wall_s * wall_speed,
        "cpu_s": out["cpu_s"] * wall_speed,
        "latencies": scaled_latencies,
    }
    if rec is not None:
        log = None if args.workload == "sweep" else queue.path
        layers = layer_metrics(rec, setup_counts, (t0, t0 + wall_s),
                               wall_s, args.workers, log)
        # Layer times in reference seconds, like wall_s: they still add
        # up to the (scaled) traced wall.
        out["layers"] = {name: value * wall_speed if name.endswith((".s", "_s"))
                         else value for name, value in layers.items()}
    print(json.dumps(out))
    return 0


def start_pool(svc_pool, workers: int):
    """The warm executor ``run_batch`` will use, with its workers forked."""
    if workers < 2:
        return None
    executor = svc_pool._warm_executor(workers)
    for future in [executor.submit(os.getpid) for _ in range(workers)]:
        future.result()
    return executor


def stop_pool(svc_pool, executor, workers: int) -> None:
    """Shut the warm executor down and wait until its workers are reaped."""
    if executor is not None:
        executor.shutdown(wait=True)
        svc_pool._retire_warm_executor(workers)


def fill(args, wl, svc_pool) -> None:
    """Fill the replay cache cold (``replay-cached`` set-up)."""
    from repro.replay import submit_replay_suite
    from repro.service import JobStore, ResultCache

    executor = start_pool(svc_pool, args.workers)
    queue = JobStore(args.tmp / "fill-queue")
    submit_replay_suite(
        queue, wl.replay_suite(args.seed), wl.POLICIES,
        max_candidate_sets=wl.MAX_CANDIDATE_SETS, max_attempts=1,
        batch_size=wl.TRACES_PER_DESIGN,
    )
    svc_pool.run_batch(queue, ResultCache(args.tmp / "cache"),
                       workers=args.workers)
    stop_pool(svc_pool, executor, args.workers)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def check_sweep(wl, designs, records, seed, reference) -> dict:
    failed, infeasible, errors = 0, 0, []
    for design, record in zip(designs, records):
        error = wl.check_sweep_record(design, record, seed, reference)
        if error is not None:
            failed += 1
            errors.append(error)
        elif record.get("infeasible"):
            infeasible += 1
    return {"attempted": len(designs), "failed": failed,
            "infeasible": infeasible, "errors": errors[:5]}


def check_replay(wl, queue, cache, jobs, report, seed, reference,
                 workload) -> dict:
    """Check every replay cell against the reference (or invariants).

    A cell is one (trace, policy) pair.  A cell fails when its job failed
    for any reason the reference does not record, or when its record
    differs from the reference.  Cells of designs the reference records
    as infeasible count as ``infeasible`` when their job failed with
    ``InfeasibleError``.
    """
    from repro.replay import replay_store_for
    from repro.replay.engine import replay_record, replay_trace
    from repro.replay.policies import resolve_policy
    from repro.replay.service import replay_probe_keys
    from repro.replay.trace import (TraceSpec, config_names, generator_matrix,
                                    iter_trace, trace_key)
    from repro.service.pool import partition_problem_key

    ref_designs = reference["replay_designs"]
    ref_cells = reference["replay_cells"] if seed == wl.DEFAULT_SEED else None
    expected_infeasible = {n for n, r in ref_designs.items() if r.get("infeasible")}
    store = replay_store_for(cache)
    attempted = failed = infeasible = 0
    errors: list[str] = []
    failed_jobs = set()
    checked_designs: dict[str, str | None] = {}

    def fail(cells: int, why: str) -> None:
        nonlocal failed
        failed += cells
        errors.append(why)

    for job in jobs:
        job = queue.get(job.id)
        design = job.name.split("/")[0]
        cells = len(job.replay["traces"])
        attempted += cells
        if job.state != "done":
            failed_jobs.add(job.name)
            if design in expected_infeasible and "InfeasibleError" in (job.error or ""):
                infeasible += cells
            else:
                fail(cells, f"{job.name}: {job.state}: {(job.error or '')[-200:]}")
            continue
        if design in expected_infeasible:
            fail(cells, f"{job.name}: done, reference says infeasible")
            continue
        pkey = partition_problem_key(job)
        if design not in checked_designs:
            entry = cache.lookup(pkey)
            expected = ref_designs[design]
            got = None if entry is None else wl.partition_record(
                entry.device_name, entry.result)
            checked_designs[design] = (
                None if got == expected else f"{design}: {got} != {expected}")
        if checked_designs[design] is not None:
            fail(cells, checked_designs[design])
            continue
        _key, members = replay_probe_keys(job)
        records = [store.get_record(k) for k in members]
        if any(r is None for r in records):
            fail(cells, f"{job.name}: missing replay records")
            continue
        if ref_cells is not None:
            bad = sum(wl.digest(r) != d
                      for r, d in zip(records, ref_cells[job.name]))
            if bad:
                fail(bad, f"{job.name}: {bad} records differ from the reference")
            continue
        # Invariants, plus the first trace of the job replayed again on
        # the reference engine.
        bad = sum(not (r["events"] == wl.TRACE_LENGTH
                       and 0 <= r["switches"] <= r["events"]
                       and 0 <= r["stall_events"] <= r["switches"])
                  for r in records)
        scheme = cache.lookup(pkey).result.scheme
        names = config_names(scheme.design)
        spec = TraceSpec.from_dict(job.replay["traces"][0])
        again = replay_trace(
            scheme, iter_trace(names, spec), resolve_policy(job.replay["policy"]),
            matrix=generator_matrix(names, spec), problem_key=pkey,
            trace_key=trace_key(names, spec), engine="reference")
        if wl.digest(replay_record(again)) != wl.digest(records[0]):
            bad = max(bad, 1)
        if bad:
            fail(bad, f"{job.name}: {bad} records break the invariants")

    expected_failed = {
        name for name in reference["replay_cells"]
        if name.split("/")[0] in expected_infeasible
    }
    guards = []
    if report.cache_hits and workload == "replay-cold":
        guards.append(f"cold run served {report.cache_hits} jobs from the cache")
    feasible_jobs = sum(1 for j in jobs if j.name.split("/")[0] not in expected_infeasible)
    if workload == "replay-cached" and report.cache_hits != feasible_jobs:
        guards.append(f"cached run hit {report.cache_hits} of {feasible_jobs} jobs")
    if failed_jobs != expected_failed:
        guards.append(f"failed jobs {sorted(failed_jobs)} != reference "
                      f"{sorted(expected_failed)}")
    if guards:
        errors.extend(guards)
    return {
        "attempted": attempted,
        "failed": failed,
        "infeasible": infeasible,
        "guards_ok": not guards,
        "done_cells": attempted - failed - infeasible,
        "errors": errors[:5],
    }


# ----------------------------------------------------------------------
# traced split
# ----------------------------------------------------------------------


def layer_metrics(rec, setup_counts, window, wall_s, workers, log) -> dict:
    import tracing

    spans, counts, designs = rec.collect()
    by_layer, by_entry, uncovered = tracing.analyse(spans, rec.pid, window)
    # Sums only: run.py derives the ratios once the slices are added up.
    c = counts
    return {
        "synth.designs": c["synth.items"],
        "synth.s": by_layer["synth"],
        "synth.setup_designs": setup_counts["synth.items"],
        "partitioner.designs": len(designs),
        "partitioner.calls": c["partitioner.calls"],
        "partitioner.attempts": c["partitioner.attempts"],
        "partitioner.escalations": c["partitioner.escalations"],
        "partitioner.infeasible": c["partitioner.infeasible"],
        "partitioner.s": by_layer["partitioner"],
        "partitioner.attempt_s": c["partitioner.attempt_s"],
        "partitioner.wasted_s": c["partitioner.wasted_s"],
        "clustering.calls": c["clustering.calls"],
        "clustering.s": by_layer["clustering"],
        "covering.sets": c["covering.items"],
        "covering.s": by_layer["covering"],
        "allocation.calls": c["allocation.calls"],
        "allocation.s": by_layer["allocation"],
        "allocation.states": c["allocation.states"],
        "allocation.feasible": c["allocation.feasible"],
        "allocation.found": c["allocation.found"],
        "cost.calls": c["cost.calls"],
        "cost.s": by_layer["cost"],
        "trace.events": c["trace.items"],
        "trace.s": by_layer["trace"],
        "replay.traces": c["replay.traces"],
        "replay.events": c["replay.events"],
        "replay.s": by_layer["replay"],
        "replay.vector_traces": c["replay.vector_traces"],
        "store.put_many_calls": c["store.put_many_calls"],
        "store.records_written": c["store.records_written"],
        "store.write_s": by_entry[("store", "write")],
        "store.bytes": c["store.bytes"],
        "store.probe_calls": c["store.probe_calls"],
        "store.probe_keys": c["store.probe_keys"],
        "store.probe_hits": c["store.probe_hits"],
        "store.probe_s": by_entry[("store", "probe")],
        "store.s": by_layer["store"],
        "cache.lookups": c["cache.lookups"],
        "cache.hits": c["cache.hits"],
        "cache.puts": c["cache.puts"],
        "cache.s": by_layer["cache"],
        "jobs.submitted": c["jobs.submitted"],
        "jobs.appends": c["jobs.appends"],
        "jobs.s": by_layer["jobs"],
        "jobs.log_bytes": log.stat().st_size if log is not None else 0,
        "pool.jobs": c["pool.jobs"],
        "pool.computed": c["pool.computed"],
        "pool.cache_hits": c["pool.cache_hits"],
        "pool.failed": c["pool.failed"],
        "pool.busy_s": c["pool.busy_s"],
        "pool.capacity_s": wall_s * workers if c["pool.jobs"] else 0.0,
        "pool.failed_recompute_s": c["pool.failed_recompute_s"],
        "pool.s": by_layer["pool"],
        "tracing.uncovered_s": uncovered,
        "tracing.layer_sum_s": sum(by_layer.values()) + uncovered,
    }


if __name__ == "__main__":
    sys.exit(main())
