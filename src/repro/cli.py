"""Command-line interface: ``repro-pr`` / ``python -m repro``.

Subcommands mirror the deliverables:

* ``partition <design.xml>`` -- run the full algorithm on an XML design
  description (optionally with device auto-selection) and print the
  resulting scheme, UCF and bitstream inventory;
* ``casestudy`` -- regenerate Tables III/IV/V;
* ``example`` -- regenerate the Sec. IV artefacts (matrix, Table I);
* ``sweep`` -- regenerate Figs. 7/8/9 and the Sec. V headline counts;
* ``pareto`` -- explore the area/time trade-off curve of a design;
* ``devices`` -- print the reconstructed Virtex-5 library;
* ``batch submit|run|status`` -- the batch partitioning service
  (job queue + worker pool + content-addressed result cache,
  docs/SERVICE.md);
* ``replay run|sweep|compare`` -- trace-driven workload replay:
  measured reconfiguration latency under load, per serving policy
  (docs/REPLAY.md);
* ``obs report|tail|check|bench-diff`` -- the telemetry toolchain over
  durable sink directories: the run report, a raw record dump, the
  declarative SLO gate and BENCH artifact diffs (docs/OBSERVABILITY.md);
* ``render scheme|floorplan|report|bench`` -- the deterministic
  SVG/HTML rendering layer over the same inputs, with ``--check``
  drift detection and a content-addressed artifact cache
  (docs/REPORTING.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .arch.library import virtex5_ladder
from .core.partitioner import (
    InfeasibleError,
    partition,
    partition_with_device_selection,
)
from .eval.report import render_table, render_trace_summary
from .flow.bitstream import generate_bitstreams
from .flow.constraints import emit_ucf
from .flow.floorplan import FloorplanError, floorplan
from .obs import NULL_TRACER, RecordingTracer, Tracer
from .service.problem import resolve_problem
from .synth.generator import DEFAULT_SWEEP_DESIGNS, DEFAULT_SWEEP_SEED


def _make_tracer(args: argparse.Namespace) -> Tracer:
    """A recording tracer when --trace/--trace-json was given, else no-op."""
    if getattr(args, "trace", False) or getattr(args, "trace_json", None):
        return RecordingTracer()
    return NULL_TRACER


def _emit_trace(tracer: Tracer, args: argparse.Namespace) -> None:
    """Print the stage summary and/or write the JSON trace file."""
    if not isinstance(tracer, RecordingTracer):
        return
    if args.trace:
        print()
        print(render_trace_summary(tracer, title="Pipeline trace"))
    if args.trace_json:
        if args.trace_json == "-":
            print(tracer.to_json())
        else:
            from pathlib import Path

            try:
                Path(args.trace_json).write_text(
                    tracer.to_json(), encoding="utf-8"
                )
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                raise SystemExit(1)
            print(f"wrote trace to {args.trace_json}", file=sys.stderr)


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print a per-stage timing/metric summary of the pipeline",
    )
    parser.add_argument(
        "--trace-json",
        metavar="FILE",
        help="write the machine-readable JSON trace to FILE ('-' for stdout)",
    )


def _partitioner_options(args: argparse.Namespace) -> "PartitionerOptions | None":
    """PartitionerOptions from the ``--engine`` flag (None = defaults)."""
    engine = getattr(args, "engine", None)
    if engine is None:
        return None
    from .core.allocation import AllocationOptions
    from .core.partitioner import PartitionerOptions

    return PartitionerOptions(allocation=AllocationOptions(engine=engine))


def _cmd_partition(args: argparse.Namespace) -> int:
    problem = resolve_problem(args.design, args.device)
    design = problem.design
    tracer = _make_tracer(args)
    options = _partitioner_options(args)
    print(design.summary())

    if problem.device is not None:
        device = problem.device
        try:
            result = partition(
                design, problem.capacity, options, tracer=tracer
            )
        except InfeasibleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            dres = partition_with_device_selection(
                design, problem.library, options, tracer=tracer
            )
        except InfeasibleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        device, result = dres.device, dres.result
        print(f"selected device: {device.name} (escalations: {dres.escalations})")

    scheme = result.scheme
    print(scheme.describe())
    print(
        f"total reconfiguration: {result.total_frames} frames; "
        f"worst case: {result.worst_frames} frames"
    )
    _emit_trace(tracer, args)

    if args.floorplan:
        try:
            plan = floorplan(scheme, device)
        except FloorplanError as exc:
            print(f"floorplanning failed: {exc}", file=sys.stderr)
            return 2
        from .flow.visualize import render_floorplan

        print(render_floorplan(plan))
        if args.ucf:
            print(emit_ucf(scheme, plan))
        bits = generate_bitstreams(scheme, device, plan)
        print(
            f"bitstreams: full {bits.full_bytes} B + "
            f"{len(bits.partials)} partials, total {bits.total_storage_bytes} B"
        )
        if args.out:
            from .flow.bitgen import write_scheme_bitstreams
            from .flow.netlist import build_netlists, emit_wrapper_hdl
            from pathlib import Path

            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "system.ucf").write_text(emit_ucf(scheme, plan))
            for name, netlist in build_netlists(scheme).items():
                (out / f"{name}_wrapper.v").write_text(emit_wrapper_hdl(netlist))
            written = write_scheme_bitstreams(scheme, plan, out)
            print(f"wrote UCF, wrappers and {len(written)} bitstreams to {out}/")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from .core.pareto import pareto_front, render_front

    problem = resolve_problem(args.design, args.device).with_selected_device()
    design, capacity = problem.design, problem.capacity
    print(f"{design.summary()}; budget {capacity} on {problem.device.name}")
    front = pareto_front(
        design, capacity, max_candidate_sets=args.candidate_sets
    )
    print(render_front(front))
    return 0


def _cmd_casestudy(_args: argparse.Namespace) -> int:
    from .eval import experiments as E

    r3 = E.exp_table3()
    print(E.render_table3(r3))
    print()
    print(E.render_table4(r3))
    print()
    print(E.render_table5())
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    from .eval import experiments as E

    print("Connectivity matrix (Sec. IV-C):")
    print(E.exp_connectivity_matrix().render())
    print()
    print(E.render_table1())
    tracer = _make_tracer(args)
    if isinstance(tracer, RecordingTracer):
        # Traced run of the running example under the docs/ALGORITHM.md
        # budget -- the smoke path for `python -m repro example --trace`.
        from .arch.resources import ResourceVector
        from .eval.example_design import example_design

        result = partition(
            example_design(), ResourceVector(520, 16, 16), tracer=tracer
        )
        print()
        print(result.scheme.describe())
        _emit_trace(tracer, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .eval import experiments as E

    def progress(i: int, n: int) -> None:
        if args.progress and i % 25 == 0:
            print(f"... {i}/{n}", file=sys.stderr)

    sweep = E.run_sweep(count=args.designs, seed=args.seed, progress=progress)
    print(E.render_fig7(sweep))
    print()
    print(E.render_fig8(sweep))
    print()
    print(E.render_fig9(sweep))
    print()
    print(E.render_headlines(sweep))
    if args.analysis:
        from .eval.analysis import render_analysis

        print()
        print(render_analysis(sweep))
    return 0


def _queue_stores(args: argparse.Namespace):
    """(JobStore, ResultCache) for the --queue/--cache directories."""
    from pathlib import Path

    from .service import JobStore, ResultCache

    queue = Path(args.queue)
    cache_dir = Path(args.cache) if args.cache else queue / "cache"
    return JobStore.open(queue), ResultCache(cache_dir)


def _cmd_batch_submit(args: argparse.Namespace) -> int:
    from .flow.xmlio import design_to_xml
    from .synth.generator import generate_population

    store, _ = _queue_stores(args)
    submitted = []
    for path in args.designs:
        problem = resolve_problem(path, args.device)
        submitted.append(
            store.submit(
                name=problem.design.name,
                design_xml=design_to_xml(
                    problem.design,
                    device_name=args.device or problem.doc.device_name,
                    budget=problem.doc.budget,
                ),
                device=args.device,
                max_candidate_sets=args.max_candidate_sets,
                dedupe=not args.no_dedupe,
                priority=args.priority,
                submitter=args.submitter,
            )
        )
    if args.synthetic:
        for _cls, design in generate_population(args.synthetic, seed=args.seed):
            submitted.append(
                store.submit_design(
                    design,
                    device=args.device,
                    max_candidate_sets=args.max_candidate_sets,
                    dedupe=not args.no_dedupe,
                    priority=args.priority,
                    submitter=args.submitter,
                )
            )
    if not submitted:
        print("error: nothing to submit (give design files or --synthetic N)",
              file=sys.stderr)
        return 1
    for job in submitted:
        print(f"{job.id}  {job.state:8s}  {job.name}")
    counts = store.counts()
    print(f"queue: {counts['pending']} pending / {len(store.jobs())} total")
    return 0


def _run_batch_with_telemetry(args: argparse.Namespace, store, cache,
                              tracer: Tracer, **kwargs):
    """``run_batch`` on ``args.workers`` behind the CLI's telemetry
    preamble; prints the batch report.

    ``--telemetry-dir`` upgrades ``tracer`` to a recording one (durable
    telemetry wants the full picture: a recording tracer gives the run
    record counters/gauges/histograms, not just the per-job outcome
    lines), opens the sink and, after the run, prints its record count.
    Returns the report, or ``None`` once a ``ServiceError`` is printed.
    """
    from .eval.report import render_batch_report
    from .service import ServiceError, run_batch

    sink = None
    if args.telemetry_dir:
        from .obs import TelemetrySink

        if not isinstance(tracer, RecordingTracer):
            tracer = RecordingTracer()
        sink = TelemetrySink(args.telemetry_dir)
    try:
        report = run_batch(
            store, cache, workers=args.workers, tracer=tracer, sink=sink,
            **kwargs,
        )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    print(render_batch_report(report))
    if sink is not None:
        print(
            f"telemetry: {sink.records_written} records in {sink.directory}",
            file=sys.stderr,
        )
    return report


def _cmd_batch_run(args: argparse.Namespace) -> int:
    from .service import FaultError, FaultPlan

    store, cache = _queue_stores(args)
    tracer = _make_tracer(args)
    if args.progress:
        if not isinstance(tracer, RecordingTracer):
            tracer = RecordingTracer()
        tracer.on_progress(
            lambda e: print(f"... {e.name} {dict(e.payload)}", file=sys.stderr)
        )
    faults = None
    if args.inject_fault:
        try:
            faults = FaultPlan.parse(args.inject_fault)
        except FaultError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    report = _run_batch_with_telemetry(
        args, store, cache, tracer,
        job_timeout_s=args.job_timeout,
        heartbeat_interval_s=args.heartbeat_interval,
        heartbeat_timeout_s=args.heartbeat_timeout,
        faults=faults,
    )
    if report is None:
        return 1
    if report.failed:
        print(f"failed jobs: {', '.join(report.failed_ids)}", file=sys.stderr)
    _emit_trace(tracer, args)
    return 0 if report.failed == 0 else 3


def _cmd_replay_run(args: argparse.Namespace) -> int:
    from .replay import (
        PolicyComparison,
        PolicyLatency,
        TraceSpec,
        generator_matrix,
        iter_trace,
        render_policy_comparison,
        replay_record,
        replay_trace,
        resolve_policy,
    )
    from .replay.policies import PolicyError
    from .replay.trace import TraceSpecError, config_names

    try:
        design, capacity, _device = _render_problem(args.design, args.device)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = partition(design, capacity)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = config_names(design)
    try:
        spec = TraceSpec(
            environment=args.environment,
            length=args.length,
            seed=args.seed,
            dwell=args.dwell,
        )
        policies = [resolve_policy(p) for p in args.policy or ["no-prefetch"]]
    except (TraceSpecError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    matrix = generator_matrix(names, spec)
    print(
        f"{design.name}: {len(names)} configurations, "
        f"{args.environment} trace of {args.length} events (seed {args.seed})"
    )
    aggregates = {}
    for policy in policies:
        replayed = replay_trace(
            result.scheme, iter_trace(names, spec), policy, matrix=matrix
        )
        agg = aggregates.setdefault(policy.name, PolicyLatency(policy=policy.name))
        agg.fold(replay_record(replayed))
    comparison = PolicyComparison(
        policies=tuple(aggregates[name] for name in sorted(aggregates)),
        keys=(),
    )
    print(render_policy_comparison(comparison), end="")
    return 0


def _cmd_replay_sweep(args: argparse.Namespace) -> int:
    from .replay import (
        ENVIRONMENTS,
        ReplayError,
        WorkloadSuite,
        submit_replay_suite,
    )
    from .replay.policies import PolicyError
    from .replay.trace import TraceSpecError

    store, cache = _queue_stores(args)
    try:
        suite = WorkloadSuite(
            designs=args.designs,
            traces_per_design=args.traces_per_design,
            length=args.length,
            seed=args.seed,
            environments=(
                tuple(args.environment) if args.environment else ENVIRONMENTS
            ),
        )
        policies = args.policy or [
            "no-prefetch", "prefetch-markov", "prefetch-oracle"
        ]
        jobs = submit_replay_suite(
            store,
            suite,
            policies,
            device=args.device,
            max_candidate_sets=args.max_candidate_sets,
            batch_size=args.batch_size,
        )
    except (TraceSpecError, PolicyError, ReplayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cells = suite.trace_count * len(policies)
    batched = f", batch size {args.batch_size}" if args.batch_size > 1 else ""
    print(
        f"submitted {len(jobs)} replay jobs covering {cells} cells "
        f"({suite.designs} designs x {suite.traces_per_design} traces x "
        f"{len(policies)} policies{batched})"
    )
    tracer = _make_tracer(args)
    report = _run_batch_with_telemetry(args, store, cache, tracer)
    if report is None:
        return 1
    if report.failed:
        # Group the failures by their terminal error line so a 1000-job
        # sweep reports "63 x InfeasibleError: ..." instead of 63 ids.
        reasons: dict[str, int] = {}
        for job_id in report.failed_ids:
            error = (store.get(job_id).error or "").strip()
            line = error.splitlines()[-1] if error else "unknown error"
            reasons[line] = reasons.get(line, 0) + 1
        print(
            f"failed jobs: {report.failed}/{report.total}", file=sys.stderr
        )
        for line, count in sorted(
            reasons.items(), key=lambda item: (-item[1], item[0])
        ):
            print(f"  {count} x {line}", file=sys.stderr)
    _emit_trace(tracer, args)
    if report.failed == 0:
        return 0
    # Every job failing means the sweep produced nothing at all --
    # distinct exit code so callers can tell "some infeasible designs"
    # (3) from "nothing ran" (4).
    return 4 if report.failed == report.total else 3


def _cmd_replay_compare(args: argparse.Namespace) -> int:
    from .replay import (
        ReplayError,
        collect_policy_comparison,
        comparison_key,
        render_policy_comparison,
        replay_store_for,
    )
    from .service import ResultCache

    cache = ResultCache(args.cache)
    try:
        comparison = collect_policy_comparison(replay_store_for(cache))
    except ReplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        if getattr(args, "check", False):
            print("error: --check needs --out", file=sys.stderr)
            return 1
        print(render_policy_comparison(comparison), end="")
        return 0
    from .render import artifact_key, render_replay_html

    key = artifact_key(comparison_key(comparison.keys), "replay")

    text = _cached_render(
        args.artifact_cache, key, lambda: render_replay_html(comparison)
    )
    return _finish_render(args, text)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from .obs import SinkError, aggregate_run, render_run_report

    try:
        report = aggregate_run(args.telemetry_dir)
    except SinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        # Machine mode: the document and nothing else, so
        # `repro obs report --json DIR | jq ...` needs no scraping.
        import json as _json

        print(_json.dumps(report.to_dict(), indent=1))
        return 0
    print(render_run_report(report))
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .obs import SinkError, iter_telemetry, sink_stats

    directory = Path(args.telemetry_dir)
    if not directory.is_dir():
        print(f"error: not a telemetry directory: {directory}",
              file=sys.stderr)
        return 1
    if not sink_stats(directory).segments:
        return 0
    kinds = set(args.kind or [])
    try:
        for record in iter_telemetry(directory):
            if not kinds or record["kind"] in kinds:
                # The sink's own on-disk serialisation, so tail output
                # is byte-identical to the segments it came from.
                print(_json.dumps(record, sort_keys=True))
        sys.stdout.flush()
    except SinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (``obs tail DIR | head``): stop
        # quietly.  Point stdout at /dev/null so the interpreter's
        # final flush of the unsent buffer cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import (
        SinkError,
        SloError,
        aggregate_run,
        evaluate_slo,
        load_slo,
        render_slo_result,
    )

    try:
        rules = load_slo(args.slo)
        report = aggregate_run(args.telemetry_dir)
        result = evaluate_slo(report.to_dict(), rules)
    except (SinkError, SloError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(result.to_dict(), indent=1))
    else:
        print(render_slo_result(result))
    return 0 if result.ok else 3


def _cmd_obs_bench_diff(args: argparse.Namespace) -> int:
    from .obs import BenchDiffError, bench_diff, load_bench, render_bench_diff

    try:
        diff = bench_diff(
            load_bench(args.old), load_bench(args.new), threshold=args.threshold
        )
    except BenchDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_bench_diff(diff))
    return 3 if diff.regressions else 0


#: Builtin design names `repro render scheme|floorplan` accept in place
#: of an XML path -- the paper's two worked problems, so the gallery and
#: the golden tests need no design files checked in.
RENDER_BUILTINS = ("example", "casestudy")


def _render_problem(design_arg: str, device_name: str | None):
    """(design, capacity, device | None) for a render target.

    ``design_arg`` is a builtin name (:data:`RENDER_BUILTINS`) or a
    path to a design XML file.  ``device`` stays ``None`` when nothing
    names one -- the floorplan renderer then picks the smallest ladder
    device that places the scheme (:func:`plan_on_smallest_device`),
    keeping the output deterministic without a device argument.
    """
    from .arch.library import get_device

    if design_arg == "example":
        from .arch.resources import ResourceVector
        from .eval.example_design import example_design

        # The docs/ALGORITHM.md walkthrough budget for the Sec. IV design.
        device = get_device(device_name) if device_name else None
        return example_design(), ResourceVector(520, 16, 16), device
    if design_arg == "casestudy":
        from .eval.casestudy import CASESTUDY_BUDGET, casestudy_design

        # Sec. V pins the case study to the FX70T; honour an override.
        device = get_device(device_name or "FX70T")
        return casestudy_design(), CASESTUDY_BUDGET, device
    problem = resolve_problem(design_arg, device_name).with_selected_device()
    return problem.design, problem.capacity, problem.device


def _cached_render(directory: str | None, key: str, compute) -> str:
    """``compute()`` through the artifact cache in ``directory``, if any."""
    if not directory:
        return compute()
    from .service import ArtifactStore

    store = ArtifactStore(directory)
    text = store.get(key)
    if text is None:
        text = compute()
        store.put(key, text)
        print(f"artifact cache miss: stored {key[:12]}", file=sys.stderr)
    else:
        print(f"artifact cache hit: {key[:12]}", file=sys.stderr)
    return text


def _finish_render(args: argparse.Namespace, text: str) -> int:
    """Write or check a rendered artifact against --out.

    ``--check`` never writes: it byte-compares a fresh render against
    the file and exits 3 on drift (mirroring ``obs bench-diff``), which
    is how CI keeps committed goldens and the README gallery honest.
    """
    from pathlib import Path

    if getattr(args, "check", False):
        if args.out == "-":
            print("error: --check needs a file --out, not '-'", file=sys.stderr)
            return 1
        try:
            existing = Path(args.out).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read {args.out}: {exc}", file=sys.stderr)
            return 1
        if existing != text:
            print(
                f"render drift: {args.out} ({len(existing)} bytes) differs "
                f"from a fresh render ({len(text)} bytes); re-run without "
                "--check to refresh it",
                file=sys.stderr,
            )
            return 3
        print(f"{args.out}: up to date ({len(text)} bytes)", file=sys.stderr)
        return 0
    if args.out == "-":
        print(text, end="")
        return 0
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({len(text)} bytes)", file=sys.stderr)
    return 0


def _cmd_render_scheme(args: argparse.Namespace) -> int:
    from .core import problem_key
    from .render import artifact_key, render_scheme_svg

    try:
        design, capacity, _device = _render_problem(args.design, args.device)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    key = artifact_key(problem_key(design, capacity), "scheme")

    def compute() -> str:
        return render_scheme_svg(partition(design, capacity))

    try:
        text = _cached_render(args.cache, key, compute)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _finish_render(args, text)


def _cmd_render_floorplan(args: argparse.Namespace) -> int:
    from .core import problem_key
    from .flow.floorplan import plan_on_smallest_device
    from .render import artifact_key, render_floorplan_svg

    try:
        design, capacity, device = _render_problem(args.design, args.device)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    key = artifact_key(
        problem_key(
            design,
            capacity,
            extra={"device": device.name if device else "auto"},
        ),
        "floorplan",
    )

    def compute() -> str:
        result = partition(design, capacity)
        if device is not None:
            plan = floorplan(result.scheme, device)
        else:
            plan = plan_on_smallest_device(result.scheme, virtex5_ladder())
        return render_floorplan_svg(plan)

    try:
        text = _cached_render(args.cache, key, compute)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloorplanError as exc:
        print(f"floorplanning failed: {exc}", file=sys.stderr)
        return 2
    return _finish_render(args, text)


def _cmd_render_report(args: argparse.Namespace) -> int:
    from .obs import SinkError, aggregate_run
    from .render import render_report_html

    try:
        report = aggregate_run(args.telemetry_dir)
    except SinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _finish_render(args, render_report_html(report))


def _cmd_render_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import BenchDiffError, load_bench
    from .render import render_bench_trend_html

    paths: list[Path] = []
    for raw in args.artifacts:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(p.glob("BENCH_*.json")))
        else:
            paths.append(p)
    history = []
    try:
        for p in paths:
            history.append((p.name, load_bench(p)))
    except BenchDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = render_bench_trend_html(history, threshold=args.threshold)
    return _finish_render(args, text)


def _cmd_batch_status(args: argparse.Namespace) -> int:
    store, cache = _queue_stores(args)
    rows = []
    for job in store.jobs():
        rows.append(
            (
                job.id,
                job.name,
                job.state,
                job.priority,
                job.submitter,
                job.attempts,
                "hit" if job.cache_hit else ("miss" if job.state == "done" else ""),
                (job.result_key or "")[:12],
            )
        )
    print(render_table(
        ("job", "design", "state", "prio", "submitter", "attempts", "cache",
         "result key"),
        rows,
        title=f"Queue {store.directory}",
    ))
    counts = store.counts()
    summary = ", ".join(f"{v} {k}" for k, v in counts.items())
    print(f"jobs: {summary}; cache entries: {len(cache)}")
    if args.errors:
        for job in store.jobs():
            if job.error:
                print(f"\n--- {job.id} ({job.state}) ---\n{job.error}")
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    rows = [
        (
            d.name,
            d.capacity.clb,
            d.capacity.bram,
            d.capacity.dsp,
            d.rows,
            d.column_count,
            d.total_frames(),
        )
        for d in virtex5_ladder()
    ]
    print(render_table(
        ("Device", "CLBs", "BRAMs", "DSPs", "rows", "columns", "frames"),
        rows,
        title="Reconstructed Virtex-5 ladder (Fig. 7/8 axis)",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pr",
        description=(
            "Automated partitioning for partial-reconfiguration design "
            "(reproduction of Vipin & Fahmy, IPDPSW 2013)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the hottest "
        "functions (cumulative time) to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition an XML design description")
    p.add_argument("design", help="path to the design XML file")
    p.add_argument("--device", help="target device name (else auto-select)")
    p.add_argument(
        "--floorplan", action="store_true", help="also floorplan the result"
    )
    p.add_argument("--ucf", action="store_true", help="print the generated UCF")
    p.add_argument(
        "--out", help="directory for UCF/wrappers/partial bitstreams "
        "(requires --floorplan)"
    )
    p.add_argument(
        "--engine", choices=("incremental", "reference"),
        help="merge-search engine (default: incremental, bit-identical "
        "to reference -- docs/PERFORMANCE.md)",
    )
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser(
        "pareto", help="area/time Pareto front of an XML design"
    )
    p.add_argument("design", help="path to the design XML file")
    p.add_argument("--device", help="target device name (else auto-select)")
    p.add_argument("--candidate-sets", type=int, default=6)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("casestudy", help="regenerate Tables III/IV/V")
    p.set_defaults(func=_cmd_casestudy)

    p = sub.add_parser("example", help="regenerate the Sec. IV example artefacts")
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("sweep", help="regenerate Figs. 7/8/9")
    p.add_argument("--designs", type=int, default=DEFAULT_SWEEP_DESIGNS)
    p.add_argument("--seed", type=int, default=DEFAULT_SWEEP_SEED)
    p.add_argument("--progress", action="store_true")
    p.add_argument(
        "--analysis",
        action="store_true",
        help="also print per-class / structural analysis",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("devices", help="print the device library")
    p.set_defaults(func=_cmd_devices)

    batch = sub.add_parser(
        "batch", help="batch partitioning service (docs/SERVICE.md)"
    )
    batch_sub = batch.add_subparsers(dest="batch_command", required=True)

    def _add_queue_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--queue", required=True, metavar="DIR",
            help="queue directory (holds jobs.jsonl; created if missing)",
        )
        parser.add_argument(
            "--cache", metavar="DIR",
            help="result cache directory (default: <queue>/cache)",
        )

    p = batch_sub.add_parser(
        "submit", help="enqueue design XML files or synthetic designs"
    )
    _add_queue_flags(p)
    p.add_argument("designs", nargs="*", help="design XML files to enqueue")
    p.add_argument("--device", help="target device name (else auto-select)")
    p.add_argument(
        "--synthetic", type=int, metavar="N",
        help="also enqueue N Sec. V synthetic designs",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SWEEP_SEED)
    p.add_argument(
        "--max-candidate-sets", type=int,
        help="cap the covering loop per job (part of the cache key)",
    )
    p.add_argument(
        "--no-dedupe", action="store_true",
        help="enqueue even if an identical spec is already queued",
    )
    p.add_argument(
        "--priority", type=int, default=0,
        help="scheduling priority (higher drains first; default 0)",
    )
    p.add_argument(
        "--submitter", default="",
        help="submitter label for fair round-robin scheduling",
    )
    p.set_defaults(func=_cmd_batch_submit)

    p = batch_sub.add_parser("run", help="drain pending jobs with a worker pool")
    _add_queue_flags(p)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes on the warm pool (1 runs jobs inline "
        "unless a timeout is set)",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="stream per-job progress events to stderr (needs --trace)",
    )
    p.add_argument(
        "--job-timeout", type=float, metavar="S",
        help="per-job wall deadline in seconds; kills, replaces and "
        "re-queues only the overrunning worker (supervises the pool)",
    )
    p.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="S",
        help="worker heartbeat period under supervision (default 0.5s)",
    )
    p.add_argument(
        "--heartbeat-timeout", type=float, metavar="S",
        help="kill and replace a worker whose heartbeat is older than "
        "S seconds (hung-worker detection; supervises the pool)",
    )
    p.add_argument(
        "--inject-fault", action="append", metavar="KIND[:GLOB[:SECONDS]]",
        help="(testing only) inject a deterministic fault into matching "
        "jobs: hang, crash, slow or fail-once -- see repro.service.faults",
    )
    p.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="persist the run's telemetry (events, per-job outcomes, "
        "run summary) to a durable sink directory for `repro obs`",
    )
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_batch_run)

    p = batch_sub.add_parser("status", help="show queue and cache state")
    _add_queue_flags(p)
    p.add_argument(
        "--errors", action="store_true",
        help="also print recorded failure tracebacks",
    )
    p.set_defaults(func=_cmd_batch_status)

    replay = sub.add_parser(
        "replay",
        help="trace-driven workload replay: measured latency under load "
        "(docs/REPLAY.md)",
    )
    replay_sub = replay.add_subparsers(dest="replay_command", required=True)

    p = replay_sub.add_parser(
        "run", help="replay one synthesized trace against one design"
    )
    p.add_argument(
        "design",
        help="design XML file, or a builtin problem: 'example' (Sec. IV) "
        "| 'casestudy' (Sec. V)",
    )
    p.add_argument("--device", help="target device name")
    p.add_argument(
        "--environment", choices=("uniform", "markov", "bursty"),
        default="bursty", help="traffic model (default: bursty)",
    )
    p.add_argument("--length", type=int, default=256,
                   help="trace length in events (default 256)")
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument(
        "--dwell", type=float, default=0.9,
        help="bursty dwell probability (default 0.9)",
    )
    p.add_argument(
        "--policy", action="append", metavar="NAME",
        help="serving policy preset; repeatable (default: no-prefetch; "
        "presets: no-prefetch, prefetch-markov, prefetch-oracle, "
        "evict-lru, evict-static, evict-activity)",
    )
    p.set_defaults(func=_cmd_replay_run)

    p = replay_sub.add_parser(
        "sweep",
        help="fan a workload suite x policy matrix out as batch replay jobs",
    )
    p.add_argument(
        "--queue", required=True, metavar="DIR",
        help="queue directory (holds jobs.jsonl; created if missing)",
    )
    p.add_argument(
        "--cache", metavar="DIR",
        help="result cache directory (default: <queue>/cache; replay "
        "records land in <cache>/replay)",
    )
    p.add_argument("--designs", type=int, default=4,
                   help="synthetic designs in the suite (default 4)")
    p.add_argument(
        "--traces-per-design", type=int, default=3,
        help="traces per design, round-robining environments (default 3)",
    )
    p.add_argument("--length", type=int, default=256,
                   help="events per trace (default 256)")
    p.add_argument("--seed", type=int, default=2013)
    p.add_argument(
        "--environment", action="append",
        choices=("uniform", "markov", "bursty"),
        help="restrict the suite to these environments; repeatable",
    )
    p.add_argument(
        "--policy", action="append", metavar="NAME",
        help="serving policy preset; repeatable (default: no-prefetch, "
        "prefetch-markov, prefetch-oracle)",
    )
    p.add_argument("--device", help="target device name (else auto-select)")
    p.add_argument(
        "--max-candidate-sets", type=int,
        help="cap the covering loop per job (part of the cache key)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--batch-size", type=int, default=1, metavar="N",
        help="traces per replay job (default 1: one job per trace; N>1 "
        "micro-batches each design's traces, amortising "
        "dispatch/scheme/store overhead N x while keeping per-trace "
        "records byte-identical)",
    )
    p.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="persist the run's telemetry (including per-job replay "
        "summaries) for `repro obs report`",
    )
    _add_trace_flags(p)
    p.set_defaults(func=_cmd_replay_sweep)

    p = replay_sub.add_parser(
        "compare",
        help="per-policy latency comparison over stored replay records",
    )
    p.add_argument(
        "--cache", required=True, metavar="DIR",
        help="result cache directory of the sweep (records are read "
        "from <cache>/replay)",
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="render the HTML latency dashboard to FILE ('-' for stdout) "
        "instead of the text table",
    )
    p.add_argument(
        "--check", action="store_true",
        help="don't write: re-render and byte-compare against --out; "
        "exit 3 on drift (CI mode)",
    )
    p.add_argument(
        "--artifact-cache", metavar="DIR",
        help="content-addressed artifact cache for the rendered dashboard",
    )
    p.set_defaults(func=_cmd_replay_compare)

    obs = sub.add_parser(
        "obs", help="telemetry toolchain (docs/OBSERVABILITY.md)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    p = obs_sub.add_parser(
        "report", help="aggregate a telemetry directory into a run report"
    )
    p.add_argument("telemetry_dir", metavar="DIR",
                   help="telemetry sink directory (from --telemetry-dir)")
    p.add_argument("--json", action="store_true",
                   help="print only the machine-readable report document "
                   "(RunReport.to_dict) for scripting / the SLO gate")
    p.set_defaults(func=_cmd_obs_report)

    p = obs_sub.add_parser(
        "tail", help="print every telemetry record as a JSON line"
    )
    p.add_argument("telemetry_dir", metavar="DIR",
                   help="telemetry sink directory (from --telemetry-dir)")
    p.add_argument("--kind", action="append", metavar="KIND",
                   help="only emit records of this kind; repeatable "
                   "(event, job, run, pool, resource)")
    p.set_defaults(func=_cmd_obs_tail)

    p = obs_sub.add_parser(
        "check",
        help="evaluate declarative SLO rules against a telemetry directory",
    )
    p.add_argument("telemetry_dir", metavar="DIR",
                   help="telemetry sink directory (from --telemetry-dir)")
    p.add_argument("--slo", required=True, metavar="FILE",
                   help="TOML rules file ([[slo]] tables -- see "
                   "docs/OBSERVABILITY.md and ci/slo.toml)")
    p.add_argument("--json", action="store_true",
                   help="print the verdicts as a JSON document")
    p.set_defaults(func=_cmd_obs_check)

    p = obs_sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json artifacts for perf regressions",
    )
    p.add_argument("old", help="baseline BENCH_*.json (e.g. committed)")
    p.add_argument("new", help="candidate BENCH_*.json (e.g. fresh run)")
    p.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="relative regression threshold (default 0.25 = 25%%); "
        "exit code 3 when any benchmark regresses past it",
    )
    p.set_defaults(func=_cmd_obs_bench_diff)

    render = sub.add_parser(
        "render",
        help="deterministic SVG/HTML rendering layer (docs/REPORTING.md)",
    )
    render_sub = render.add_subparsers(dest="render_command", required=True)

    def _add_render_out_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--out", required=True, metavar="FILE",
            help="output file ('-' for stdout)",
        )
        parser.add_argument(
            "--check", action="store_true",
            help="don't write: re-render and byte-compare against FILE; "
            "exit 3 on drift (CI mode for committed artifacts)",
        )

    def _add_render_cache_flag(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--cache", metavar="DIR",
            help="content-addressed artifact cache directory (keyed by "
            "problem key + renderer version)",
        )

    p = render_sub.add_parser(
        "scheme", help="partitioning-scheme diagram (SVG)"
    )
    p.add_argument(
        "design",
        help="design XML file, or a builtin problem: 'example' (Sec. IV) "
        "| 'casestudy' (Sec. V)",
    )
    p.add_argument("--device", help="target device name")
    _add_render_cache_flag(p)
    _add_render_out_flags(p)
    p.set_defaults(func=_cmd_render_scheme)

    p = render_sub.add_parser(
        "floorplan", help="placed-floorplan diagram (SVG)"
    )
    p.add_argument(
        "design",
        help="design XML file, or a builtin problem: 'example' | 'casestudy'",
    )
    p.add_argument(
        "--device",
        help="target device name (else the smallest ladder device that "
        "places the scheme)",
    )
    _add_render_cache_flag(p)
    _add_render_out_flags(p)
    p.set_defaults(func=_cmd_render_floorplan)

    p = render_sub.add_parser(
        "report", help="run dashboard (HTML) over a telemetry directory"
    )
    p.add_argument("telemetry_dir", metavar="DIR",
                   help="telemetry sink directory (from --telemetry-dir)")
    _add_render_out_flags(p)
    p.set_defaults(func=_cmd_render_report)

    p = render_sub.add_parser(
        "bench", help="benchmark trend page (HTML) over BENCH_*.json files"
    )
    p.add_argument(
        "artifacts", nargs="+", metavar="PATH",
        help="BENCH_*.json files in order, or a directory to scan "
        "(sorted by file name)",
    )
    p.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="relative change flagged as regression/improvement "
        "(default 0.25 = 25%%, matching obs bench-diff)",
    )
    _add_render_out_flags(p)
    p.set_defaults(func=_cmd_render_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        try:
            rc = profiler.runcall(args.func, args)
        finally:
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative")
            print("\n--- profile (top 25 by cumulative time) ---",
                  file=sys.stderr)
            stats.print_stats(25)
        return rc
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
