"""Benchmark runner: the paper's sweep, and cold and cached fleet replay.

    python3 perfbench/run.py --workload sweep|replay-cold|replay-cached \\
        [--seed 2013] [--seconds 10] [--trace 0|1]

Every repetition runs in a fresh Python process (``rep.py``) with its
own cache and queue directories under ``.perfbench_tmp/`` in the
checkout, removed when the run ends.  The run repeats whole
repetitions until ``--seconds`` have passed (a ``sweep`` repetition is
one pass over the fleet, in ``SWEEP_SLICES`` processes) and reports
medians.  The reported times are scaled to the reference host speed
(``hostspeed.py``); the text lines also give them as measured.  With
``--trace 0`` it prints every end-to-end metric; with
``--trace 1`` it alternates untraced and traced repetitions and prints
the per-layer split and the tracing overhead.  The last line of
standard output is one JSON object; the run exits 1 when any output
differs from the reference or a guard fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "replay-cold", "replay-cached")
SWEEP_SLICES = 3
#: Fewest untraced repetitions of a run (a sweep repetition is one pass).
MIN_REPS = {"sweep": 1, "replay-cold": 4, "replay-cached": 6}
MAX_REPS = 15
REP_TIMEOUT_S = 170
#: Pool workers of the replay workloads: at most one per core, at most two.
WORKERS = min(2, os.cpu_count() or 1)

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "designs_per_s": "1/s",
    "design_s_p50": "s",
    "cells_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_COUNT, _S, _FRAC = "count", "s", "fraction"
#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "synth.designs": _COUNT, "synth.s": _S, "synth.setup_designs": _COUNT,
    "partitioner.designs": _COUNT, "partitioner.calls": _COUNT,
    "partitioner.attempts": _COUNT, "partitioner.escalations": _COUNT,
    "partitioner.infeasible": _COUNT, "partitioner.s": _S,
    "partitioner.wasted_frac": _FRAC,
    "clustering.calls": _COUNT, "clustering.s": _S,
    "covering.sets": _COUNT, "covering.s": _S,
    "allocation.calls": _COUNT, "allocation.s": _S,
    "allocation.states": _COUNT, "allocation.feasible_frac": _FRAC,
    "allocation.found_frac": _FRAC,
    "cost.calls": _COUNT, "cost.s": _S,
    "trace.events": _COUNT, "trace.s": _S,
    "replay.traces": _COUNT, "replay.events": _COUNT, "replay.s": _S,
    "replay.vector_frac": _FRAC,
    "store.put_many_calls": _COUNT, "store.records_written": _COUNT,
    "store.write_s": _S, "store.bytes": "bytes",
    "store.probe_calls": _COUNT, "store.probe_keys": _COUNT,
    "store.probe_hits": _COUNT, "store.probe_s": _S, "store.s": _S,
    "cache.lookups": _COUNT, "cache.hits": _COUNT, "cache.puts": _COUNT,
    "cache.s": _S,
    "jobs.submitted": _COUNT, "jobs.appends": _COUNT, "jobs.s": _S,
    "jobs.log_bytes": "bytes",
    "pool.jobs": _COUNT, "pool.computed": _COUNT, "pool.cache_hits": _COUNT,
    "pool.failed": _COUNT, "pool.busy_s": _S, "pool.idle_s": _S,
    "pool.utilisation": _FRAC, "pool.failed_recompute_s": _S, "pool.s": _S,
    "tracing.wall_s": _S, "tracing.untraced_wall_s": _S,
    "tracing.overhead_s": _S, "tracing.uncovered_s": _S,
}

#: Work counters every traced run of a workload must repeat exactly.  On
#: replay-cold two workers can partition one design at once (the result
#: is cached only when the first finishes), so its search counters
#: depend on timing and are left out there.
EXACT = {
    "sweep": ("allocation.states", "covering.sets", "partitioner.attempts",
              "clustering.calls", "cost.calls", "replay.events",
              "store.records_written", "jobs.appends"),
    "replay-cold": ("partitioner.designs", "trace.events", "replay.events",
                    "store.records_written", "jobs.appends", "pool.jobs"),
    "replay-cached": ("allocation.states", "covering.sets",
                      "partitioner.attempts", "replay.events",
                      "store.records_written", "store.probe_keys",
                      "store.probe_hits", "jobs.appends", "pool.jobs"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=2013)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def rep_command(args, rep_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workers", str(WORKERS),
            "--tmp", str(rep_dir), *extra]


def run_process(cmd: list[str], what: str) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{what} exited {proc.returncode}")
    return proc.stdout


def fill_cache(args, tmp: Path) -> tuple[float, float]:
    """replay-cached: fill one cache cold; returns the fill's wall time,
    as measured and scaled to the reference speed."""
    started = time.perf_counter()
    stdout = run_process(rep_command(args, tmp / "filled", "--role", "fill",
                                     "--spawned-at", repr(started)), "cache fill")
    wall = time.perf_counter() - started
    return wall, wall * json.loads(stdout.strip().splitlines()[-1])["speed"]


def run_rep(args, tmp: Path, index: int, traced: bool, slice_: str = "0/1") -> dict:
    rep_dir = tmp / f"rep{index}"
    extra = ["--trace", str(int(traced)), "--slice", slice_]
    if args.workload == "replay-cached":
        extra += ["--filled", str(tmp / "filled")]
    spawned_at = time.perf_counter()
    stdout = run_process(
        rep_command(args, rep_dir, *extra, "--spawned-at", repr(spawned_at)),
        f"repetition {index}")
    shutil.rmtree(rep_dir, ignore_errors=True)
    return json.loads(stdout.strip().splitlines()[-1])


def run_unit(args, tmp: Path, index: int, traced: bool) -> dict:
    """One repetition: a replay run, or one sweep pass over the fleet."""
    if args.workload != "sweep":
        return run_rep(args, tmp, index, traced)
    parts = [run_rep(args, tmp, index * SWEEP_SLICES + k, traced,
                     f"{k}/{SWEEP_SLICES}") for k in range(SWEEP_SLICES)]
    unit = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "wall_s": sum(p["wall_s"] for p in parts),
        "cpu_s": sum(p["cpu_s"] for p in parts),
        "scaled": {
            "setup_s": statistics.median(p["scaled"]["setup_s"] for p in parts),
            "wall_s": sum(p["scaled"]["wall_s"] for p in parts),
            "cpu_s": sum(p["scaled"]["cpu_s"] for p in parts),
            "latencies": [x for p in parts for x in p["scaled"]["latencies"]],
        },
        "speed": statistics.median(p["speed"] for p in parts),
        "speed_samples": sum(p["speed_samples"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "latencies": [x for p in parts for x in p["latencies"]],
        "designs": sum(p["designs"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "infeasible": sum(p["infeasible"] for p in parts),
        "errors": [e for p in parts for e in p["errors"]],
        "guards_ok": True,
    }
    if traced:
        layers = {}
        for p in parts:
            for name, value in p["layers"].items():
                layers[name] = layers.get(name, 0) + value
        unit["layers"] = layers
    return unit


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted mean of all order statistics.  The
    sweep's per-design latencies are sparse at their middle (the eight
    designs around it span a factor of two), so the sample median jumps
    when two designs swap ranks; this estimate moves with the latencies.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    pdf = np.exp((n - 1) / 2 * (np.log(t) + np.log1p(-t)))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    edges = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1])
    return float(np.dot(np.diff(edges), x))


def end_to_end(unit: dict, fill_s: float) -> dict:
    """The metrics of one repetition; ``unit`` holds measured times."""
    wall = unit["wall_s"]
    cells = unit.get("done_cells", 3 * unit["designs"])
    return {
        "setup_s": unit["setup_s"] + fill_s,
        "wall_s": wall,
        "designs_per_s": unit["designs"] / wall,
        "design_s_p50": harrell_davis_median(unit["latencies"]),
        "cells_per_s": cells / wall,
        "cpu_s": unit["cpu_s"],
        "peak_rss_mb": unit["peak_rss_mb"],
    }


def scaled(unit: dict) -> dict:
    """``unit`` with its times scaled to the reference host speed."""
    return {**unit, **unit["scaled"]}


def finish_layers(layers: dict) -> dict:
    """Ratios and pool idle time, from the summed per-process figures."""

    def frac(num, den):
        return layers[num] / layers[den] if layers[den] else 0.0

    layers["partitioner.wasted_frac"] = frac("partitioner.wasted_s",
                                             "partitioner.attempt_s")
    layers["allocation.feasible_frac"] = frac("allocation.feasible",
                                              "allocation.states")
    layers["allocation.found_frac"] = frac("allocation.found", "allocation.calls")
    layers["replay.vector_frac"] = frac("replay.vector_traces", "replay.traces")
    layers["pool.utilisation"] = frac("pool.busy_s", "pool.capacity_s")
    layers["pool.idle_s"] = max(layers["pool.capacity_s"] - layers["pool.busy_s"], 0.0)
    return layers


def host_line(args) -> str:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return (f"host: cpu_count={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy_version} seed={args.seed} workers={WORKERS} "
            f"workload={args.workload}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def measure(args, tmp: Path) -> int:
    print(host_line(args))
    started = time.perf_counter()
    fill_s, fill_scaled_s = (fill_cache(args, tmp) if args.workload == "replay-cached"
                             else (0.0, 0.0))
    plain, traced = [], []
    index = 0
    while True:
        plain.append(run_unit(args, tmp, index, False))
        index += 1
        if args.trace:
            traced.append(run_unit(args, tmp, index, True))
            index += 1
        elapsed = time.perf_counter() - started
        enough = len(plain) >= (1 if args.trace else MIN_REPS[args.workload])
        if (enough and elapsed >= args.seconds) or len(plain) >= MAX_REPS:
            break

    units = plain + traced
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    infeasible = sum(u["infeasible"] for u in units)
    problems = [e for u in units for e in u["errors"]]
    correct = failed == 0 and all(u["guards_ok"] for u in units)

    rows = [end_to_end(scaled(u), fill_scaled_s) for u in plain]
    measured = [end_to_end(u, fill_s) for u in plain]
    print(f"repetitions: {len(plain)} untraced"
          + (f", {len(traced)} traced" if args.trace else "")
          + f" in {time.perf_counter() - started:.1f} s")
    print(f"operations: attempted={attempted} failed={failed} "
          f"infeasible={infeasible} error_rate={failed / attempted:.4f}")
    for problem in problems[:10]:
        print(f"  error: {problem}")
    for name, unit in END_TO_END.items():
        values = [r[name] for r in rows]
        n = f"{len(values)}"
        if name == "design_s_p50":
            n += f" x {plain[0]['designs']} designs"
        spread = ""
        if len(values) > 1:
            spread = f" (min {min(values):.4g}, max {max(values):.4g})"
        print(f"{name:>14} = {statistics.median(values):.6g} {unit}  n={n}{spread}"
              f"  measured {statistics.median(r[name] for r in measured):.6g}")
    speeds = [u["speed"] for u in plain]
    print(f"    host speed = {statistics.median(speeds):.4g} of the reference "
          f"(min {min(speeds):.4g}, max {max(speeds):.4g}), "
          f"{sum(u['speed_samples'] for u in plain)} samples")

    if not args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in rows),
                          "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics, counter_problems = layer_report(args, plain, traced)
        problems.extend(counter_problems)
        correct = correct and not counter_problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_report(args, plain, traced):
    layers = [finish_layers(u["layers"]) for u in traced]
    problems = []
    for name in EXACT[args.workload]:
        values = {l[name] for l in layers}
        if len(values) > 1:
            problems.append(f"{name} differs across traced runs: {sorted(values)}")
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference.get("counters", {}).get(args.workload, {})
    for name in EXACT[args.workload]:
        if layers[0][name] != expected.get(name):
            problems.append(f"{name} = {layers[0][name]}, reference {expected.get(name)}")
    for unit in traced:
        gap = unit["layers"]["tracing.layer_sum_s"] - unit["scaled"]["wall_s"]
        if abs(gap) > 1e-6 * max(unit["wall_s"], 1.0):
            problems.append(f"layer shares miss the traced wall by {gap:.3g} s")
    for problem in problems:
        print(f"  counter: {problem}")
    traced_wall = statistics.median(u["scaled"]["wall_s"] for u in traced)
    plain_wall = statistics.median(u["scaled"]["wall_s"] for u in plain)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("tracing."):
            continue
        value = statistics.median(l[name] for l in layers)
        metrics[name] = {"value": value, "unit": unit}
    metrics["tracing.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["tracing.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["tracing.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["tracing.uncovered_s"] = {
        "value": statistics.median(l["tracing.uncovered_s"] for l in layers),
        "unit": "s"}
    for name, m in metrics.items():
        print(f"{name:>28} = {m['value']:.6g} {m['unit']}")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
