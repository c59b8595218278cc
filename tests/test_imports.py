"""Import budget: a process imports only what it runs.

Package ``__init__``s resolve their re-exports on first use
(:mod:`repro.util.lazy`), so importing one module must not drag in the
replay, render or experiment stacks.  Every check runs in a fresh
interpreter: the test process itself has long since imported them all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.replay import WorkloadSuite, submit_replay_suite
from repro.service import JobStore

from .conftest import make_design

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules neither the partitioner nor the CLI may load at import.
FORBIDDEN = ("networkx", "repro.replay.engine", "repro.eval.experiments")


def run_python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_by(module: str) -> list[str]:
    code = f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    return json.loads(run_python(code))


@pytest.mark.parametrize("module", ["repro.core.partitioner", "repro.cli"])
def test_import_stays_within_budget(module):
    loaded = loaded_by(module)
    assert module in loaded
    over = [
        m for m in loaded if m in FORBIDDEN or m.startswith("repro.render.")
    ]
    assert not over, f"import {module} loaded {over}"


def test_top_level_package_imports_nothing_eagerly():
    loaded = loaded_by("repro")
    assert [m for m in loaded if m.startswith("repro.")] == [
        "repro.util", "repro.util.lazy",
    ]


def test_every_module_imports_cold():
    """Each module imports first in its own process: no lazy table hides
    an import cycle that only some import order would reach."""
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
            ".__init__"
        )
        for path in (SRC / "repro").rglob("*.py")
    )
    code = """
import importlib, json, os, sys
import numpy  # not ours; import it once, before the forks
failed = {}
for name in sys.argv[1:]:
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:
            os._exit(1)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    if status:
        failed[name] = status
print(json.dumps(failed))
"""
    assert json.loads(run_python(code, *modules)) == {}


def test_every_export_resolves_cold():
    """Each package's whole ``__all__``, resolved in a fresh process."""
    code = """
import importlib, json, sys
missing = {}
for name in sys.argv[1:]:
    package = importlib.import_module(name)
    absent = [n for n in package.__all__ if not hasattr(package, n)]
    if absent or not set(package.__all__) <= set(dir(package)):
        missing[name] = absent
print(json.dumps(missing))
"""
    packages = sorted(
        ".".join(p.parent.relative_to(SRC).parts)
        for p in (SRC / "repro").rglob("__init__.py")
    )
    assert len(packages) == 12
    assert json.loads(run_python(code, *packages)) == {}


WORKER_RUN = """
import json, sys
from repro.service import JobStore, ResultCache, pool

LIST = "sorted(m for m in __import__('sys').modules if m.startswith('repro'))"
(worker,) = pool._warm_executor(1).workers
before = worker.submit(eval, LIST).result()
report = pool.run_batch(
    JobStore.open(sys.argv[1]), ResultCache(sys.argv[2]), workers=1,
    job_timeout_s=600.0,
)
after = worker.submit(eval, LIST).result()
print(json.dumps({"computed": report.computed, "failed": report.failed,
                  "new": sorted(set(after) - set(before))}))
"""


def test_pool_worker_imports_nothing_on_its_jobs(tmp_path):
    """A forked worker runs a partition and a replay-batch job on the
    modules it was forked with: it imports nothing on a job."""
    queue = JobStore.open(tmp_path / "queue")
    design = make_design(
        {"A": {"A1": (40, 0, 0), "A2": (200, 0, 0)},
         "B": {"B1": (220, 0, 0), "B2": (50, 0, 0)}},
        [("A1", "B1"), ("A2", "B2"), ("A1", "B2")],
        name="plain",
    )
    queue.submit_design(design, device="LX30")
    submit_replay_suite(
        queue, WorkloadSuite(designs=1, traces_per_design=1, length=16),
        ["no-prefetch"], max_candidate_sets=2,
    )
    assert {job.kind for job in queue.pending()} == {"partition", "replay-batch"}
    out = json.loads(
        run_python(WORKER_RUN, str(tmp_path / "queue"), str(tmp_path / "cache"))
    )
    assert (out["computed"], out["failed"]) == (2, 0)
    assert out["new"] == []
