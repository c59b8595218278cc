"""Benchmark fixtures: shared sweep result so Figs. 7/8/9 reuse one run.

The synthetic sweep drives Figs. 7-9 and the Sec. V counts; it is
computed once per session at the configured population size
(``REPRO_SWEEP_DESIGNS``, default 200; the paper used 1000).

Every bench file additionally gets a machine-readable result artifact:
``BENCH_<name>.json`` (for ``test_bench_<name>.py``) collecting the
pytest-benchmark stats of its tests plus any custom records emitted via
the :func:`bench_record` fixture.  Artifacts land next to the bench
files so a committed run (see ``BENCH_allocation.json``) documents the
measured numbers the docs quote.  A run merges into the file already
there (:func:`repro.obs.report.merge_bench`), so running some of a
file's tests (``-k``) replaces only their entries and records.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest

from repro.eval import experiments as E
from repro.obs.report import merge_bench

_BENCH_DIR = Path(__file__).parent
_CUSTOM_RECORDS: dict[str, dict] = {}


def _group_of(path: str) -> str:
    """BENCH group name of a bench file: test_bench_foo.py -> foo."""
    stem = Path(path).stem
    prefix = "test_bench_"
    return stem[len(prefix):] if stem.startswith(prefix) else stem


@pytest.fixture
def bench_record(request):
    """Record custom key/value results into this file's BENCH json.

    Usage: ``bench_record(speedup=3.2, designs=8)``.  Values must be
    JSON-serialisable; repeated calls merge (later wins per key).
    """
    group = _group_of(str(request.node.fspath))

    def record(**fields):
        _CUSTOM_RECORDS.setdefault(group, {}).update(fields)

    return record


def _benchmark_docs(config) -> dict[str, list[dict]]:
    """pytest-benchmark stats grouped by bench file, defensively read."""
    session = getattr(config, "_benchmarksession", None)
    out: dict[str, list[dict]] = {}
    if session is None:
        return out
    for bench in getattr(session, "benchmarks", []):
        fullname = getattr(bench, "fullname", "") or ""
        fspath = getattr(bench, "fspath", None) or fullname.split("::")[0]
        group = _group_of(str(fspath))
        doc = {"name": getattr(bench, "name", "?")}
        stats = getattr(bench, "stats", None)
        if stats is not None:
            for key in ("min", "max", "mean", "stddev", "median", "rounds"):
                value = getattr(stats, key, None)
                if value is not None:
                    doc[key] = value
        out.setdefault(group, []).append(doc)
    return out


def pytest_sessionfinish(session, exitstatus):
    if session.config.getoption("collectonly", default=False):
        return
    groups = _benchmark_docs(session.config)
    for group, records in _CUSTOM_RECORDS.items():
        groups.setdefault(group, [])
    for group, benches in groups.items():
        doc = {
            "suite": f"test_bench_{group}.py",
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        if benches:
            doc["benchmarks"] = benches
        if group in _CUSTOM_RECORDS:
            doc["records"] = _CUSTOM_RECORDS[group]
        path = _BENCH_DIR / f"BENCH_{group}.json"
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # first run, or an unreadable file
            existing = None
        if not isinstance(existing, dict):
            existing = None
        doc = merge_bench(existing, doc)
        try:
            path.write_text(
                json.dumps(doc, indent=2, default=str) + "\n",
                encoding="utf-8",
            )
        except OSError:  # read-only checkout: benches still report to stdout
            pass


def pytest_addoption(parser):
    parser.addoption(
        "--sweep-designs",
        action="store",
        type=int,
        default=None,
        help="synthetic population size for Fig. 7/8/9 benches "
        "(default: REPRO_SWEEP_DESIGNS or 200; paper used 1000)",
    )


@pytest.fixture(scope="session")
def sweep(request):
    count = request.config.getoption("--sweep-designs") or E.DEFAULT_SWEEP_DESIGNS
    return E.run_sweep(count=count)


@pytest.fixture(scope="session")
def casestudy_original():
    return E.exp_table3()


@pytest.fixture(scope="session")
def casestudy_modified():
    return E.exp_table5()
