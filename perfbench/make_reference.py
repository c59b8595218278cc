"""Regenerate ``reference.json`` from the paper-faithful oracles.

    python3 perfbench/make_reference.py             # oracle digests
    python3 perfbench/make_reference.py --counters  # traced work counters

The digests cover the default seed.  Partitioning runs with
``AllocationOptions(engine="reference")`` (the paper's merge loop) and
every replay cell with ``replay_trace(engine="reference")`` (the
manager-based loop), so the benchmark's outputs are checked against
code paths it does not time.  ``--counters`` instead runs one traced
repetition per workload and records the exact work counters that every
traced run must repeat.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from run import EXACT  # noqa: E402
from repro.arch.library import virtex5_ladder  # noqa: E402
from repro.core import partitioner  # noqa: E402
from repro.core.allocation import AllocationOptions  # noqa: E402
from repro.replay import submit_replay_suite  # noqa: E402
from repro.replay.engine import replay_record, replay_trace  # noqa: E402
from repro.replay.policies import resolve_policy  # noqa: E402
from repro.replay.trace import (TraceSpec, config_names, generator_matrix,  # noqa: E402
                                iter_trace, trace_key)
from repro.service import JobStore  # noqa: E402
from repro.service.pool import partition_problem_key  # noqa: E402
from repro.service.problem import resolve_problem_text  # noqa: E402


def oracle_options(max_sets=None) -> partitioner.PartitionerOptions:
    return partitioner.PartitionerOptions(
        max_candidate_sets=max_sets,
        allocation=AllocationOptions(engine="reference"),
    )


def sweep_reference() -> dict:
    library = virtex5_ladder()
    return {
        design.name: wl.published(wl.sweep_design(design, library, oracle_options()))
        for design in wl.sweep_fleet(wl.DEFAULT_SEED)
    }


def replay_reference(tmp: Path) -> tuple[dict, dict]:
    queue = JobStore(tmp / "queue")
    jobs = submit_replay_suite(
        queue, wl.replay_suite(wl.DEFAULT_SEED), wl.POLICIES,
        max_candidate_sets=wl.MAX_CANDIDATE_SETS, max_attempts=1,
        batch_size=wl.TRACES_PER_DESIGN,
    )
    designs: dict[str, dict] = {}
    schemes = {}
    cells: dict[str, list | None] = {}
    for job in jobs:
        name = job.name.split("/")[0]
        if name not in designs:
            problem = resolve_problem_text(job.design_xml, job.device)
            try:
                dres = partitioner.partition_with_device_selection(
                    problem.design, problem.library,
                    oracle_options(job.max_candidate_sets))
            except partitioner.InfeasibleError:
                designs[name] = {"infeasible": True}
            else:
                designs[name] = wl.partition_record(dres.device.name, dres.result)
                schemes[name] = dres.scheme
        if name not in schemes:
            cells[job.name] = None
            continue
        scheme = schemes[name]
        names = config_names(scheme.design)
        policy = resolve_policy(job.replay["policy"])
        pkey = partition_problem_key(job)
        digests = []
        for doc in job.replay["traces"]:
            spec = TraceSpec.from_dict(doc)
            result = replay_trace(
                scheme, iter_trace(names, spec), policy,
                matrix=generator_matrix(names, spec), problem_key=pkey,
                trace_key=trace_key(names, spec), engine="reference")
            digests.append(wl.digest(replay_record(result)))
        cells[job.name] = digests
    return designs, cells


def traced_counters(workload: str) -> dict:
    """The counters of one traced run (which fails the counter check
    against the reference it is about to replace)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--trace", "1", "--seconds", "1"]
    line = subprocess.run(cmd, capture_output=True,
                          text=True).stdout.strip().splitlines()[-1]
    metrics = json.loads(line)["metrics"]
    return {name: metrics[name]["value"] for name in EXACT[workload]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--counters", action="store_true",
                    help="record the traced work counters, keep the digests")
    args = ap.parse_args()
    if args.counters:
        doc = wl.load_reference()
        doc["counters"] = {w: traced_counters(w) for w in EXACT}
    else:
        doc = {
            "fleet": {
                "seed": wl.FLEET_SEED,
                "sweep_designs": wl.SWEEP_DESIGNS,
                "suite_designs": wl.SUITE_DESIGNS,
                "traces_per_design": wl.TRACES_PER_DESIGN,
                "trace_length": wl.TRACE_LENGTH,
                "max_candidate_sets": wl.MAX_CANDIDATE_SETS,
                "policies": list(wl.POLICIES),
            },
            "counters": (wl.load_reference().get("counters", {})
                         if wl.REFERENCE_PATH.exists() else {}),
        }
        started = time.perf_counter()
        doc["sweep"] = sweep_reference()
        tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE.parent))
        try:
            doc["replay_designs"], doc["replay_cells"] = replay_reference(tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"oracles: {time.perf_counter() - started:.1f} s", file=sys.stderr)
    wl.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
