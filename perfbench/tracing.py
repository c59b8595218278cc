"""Spans and counters for the traced benchmark run, recorded from outside.

:func:`install` patches the public entry point of every layer at the
name its caller looks up (``repro.core.partitioner.search_candidate_set``,
``repro.replay.service.partition_with_device_selection``, ...).  Each
wrapped call records one span ``(id, layer, entry, start, end, parent)``
in the memory of the process that made it; forked pool workers inherit
the wrappers and append their spans to one file per worker after every
job.  Generator entry points (covering, trace and population streams)
are timed per step and that time is carved out of the span that
consumed the step.

:func:`analyse` turns the spans of every process into per-layer wall
shares over the measured window.  Within one process a span's self time
is its duration minus the time its children cover.  When several
processes have self time at the same instant, the instant is split
equally among them; a parent blocked in ``run_batch`` while a worker
computes is waiting, not working, and takes no share.  The layer shares
plus the uncovered time therefore add up to the traced wall time.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Span record fields (lists, not objects: the recorder sits on hot paths).
SID, LAYER, ENTRY, START, END, PARENT, GEN = range(7)

#: The parent's own entry point that waits on pool workers.
WAIT_ENTRY = ("pool", "run_batch")


class Recorder:
    """Per-process span and counter buffers."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self.active = True
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.designs: set[str] = set()
        self.attempts: list[list[float]] = []
        self._next = 0

    # -- spans ---------------------------------------------------------
    def open(self, layer: str | None, entry: str) -> list:
        self._next += 1
        parent = self.stack[-1][SID] if self.stack else 0
        rec = [self._next, layer, entry, time.perf_counter(), 0.0, parent, None]
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> float:
        rec[END] = time.perf_counter()
        self.stack.pop()
        self.spans.append(rec)
        return rec[END] - rec[START]

    def credit(self, layer: str, seconds: float) -> None:
        """Generator-step time, carved out of the innermost open span."""
        if not self.stack:
            return
        top = self.stack[-1]
        if top[GEN] is None:
            top[GEN] = {}
        top[GEN][layer] = top[GEN].get(layer, 0.0) + seconds

    def stream(self, layer: str, iterator):
        """Re-yield ``iterator``, timing each step as ``layer`` work."""
        it = iter(iterator)
        perf = time.perf_counter
        while True:
            t0 = perf()
            try:
                item = next(it)
            except StopIteration:
                self.credit(layer, perf() - t0)
                return
            except BaseException:
                self.credit(layer, perf() - t0)
                raise
            self.credit(layer, perf() - t0)
            self.counts[layer + ".items"] += 1
            yield item

    # -- cross-process -------------------------------------------------
    def flush(self) -> None:
        """Append this worker's spans and counters to its own file."""
        doc = {
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
            "designs": sorted(self.designs),
        }
        with open(self.directory / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        self.spans, self.counts, self.designs = [], Counter(), set()

    def collect(self) -> tuple[dict[int, list[list]], Counter, set[str]]:
        """Every process's spans (by pid), the summed counters, the designs."""
        spans: dict[int, list[list]] = defaultdict(list)
        spans[self.pid].extend(self.spans)
        counts = Counter(self.counts)
        designs = set(self.designs)
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                doc = json.loads(line)
                spans[doc["pid"]].extend(doc["spans"])
                counts.update(doc["counts"])
                designs.update(doc["designs"])
        return spans, counts, designs


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _wrap_call(rec: Recorder, owner, name: str, layer: str, entry: str,
               after=None, before=None) -> None:
    orig = getattr(owner, name)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return orig(*args, **kwargs)
        if before is not None:
            before(rec)
        span = rec.open(layer, entry)
        try:
            result = orig(*args, **kwargs)
        except BaseException as exc:
            seconds = rec.close(span)
            if after is not None:
                after(rec, None, exc, args, kwargs, seconds)
            raise
        seconds = rec.close(span)
        if after is not None:
            after(rec, result, None, args, kwargs, seconds)
        return result

    setattr(owner, name, wrapper)


def _wrap_stream(rec: Recorder, owner, name: str, layer: str) -> None:
    orig = getattr(owner, name)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return orig(*args, **kwargs)
        return rec.stream(layer, orig(*args, **kwargs))

    setattr(owner, name, wrapper)


def _count(name: str):
    def after(rec, result, exc, args, kwargs, seconds):
        rec.counts[name] += 1
    return after


def _after_device_selection(rec, result, exc, args, kwargs, seconds):
    attempts = rec.attempts.pop()
    design = args[0] if args else kwargs["design"]
    rec.designs.add(design.name)
    rec.counts["partitioner.calls"] += 1
    rec.counts["partitioner.attempt_s"] += sum(attempts)
    if exc is not None:
        rec.counts["partitioner.infeasible"] += 1
        rec.counts["partitioner.wasted_s"] += sum(attempts)
    else:
        rec.counts["partitioner.escalations"] += result.escalations
        rec.counts["partitioner.wasted_s"] += sum(attempts[:-1])


def _after_partition(rec, result, exc, args, kwargs, seconds):
    rec.counts["partitioner.attempts"] += 1
    if rec.attempts:
        rec.attempts[-1].append(seconds)


def _after_search(rec, result, exc, args, kwargs, seconds):
    rec.counts["allocation.calls"] += 1
    if result is not None:
        rec.counts["allocation.states"] += result.states_explored
        rec.counts["allocation.feasible"] += result.feasible_states
        rec.counts["allocation.found"] += int(bool(result.found))


def _after_replay(rec, result, exc, args, kwargs, seconds):
    rec.counts["replay.traces"] += 1
    if result is not None:
        rec.counts["replay.events"] += result.events


def _after_put_many(rec, result, exc, args, kwargs, seconds):
    records = args[1] if len(args) > 1 else kwargs["records"]
    rec.counts["store.put_many_calls"] += 1
    rec.counts["store.records_written"] += len(records)
    if result is not None:
        rec.counts["store.bytes"] += Path(result).stat().st_size


def _after_probe_many(rec, result, exc, args, kwargs, seconds):
    rec.counts["store.probe_calls"] += 1
    rec.counts["store.probe_keys"] += len(args[1] if len(args) > 1 else kwargs["keys"])
    rec.counts["store.probe_hits"] += len(result or ())


def _after_cache(rec, result, exc, args, kwargs, seconds):
    rec.counts["cache.lookups"] += 1
    rec.counts["cache.hits"] += int(bool(result))


def _after_run_batch(rec, result, exc, args, kwargs, seconds):
    if result is not None:
        rec.counts["pool.computed"] += result.computed
        rec.counts["pool.cache_hits"] += result.cache_hits
        rec.counts["pool.failed"] += result.failed


def _after_job(rec, result, exc, args, kwargs, seconds):
    rec.counts["pool.jobs"] += 1
    rec.counts["pool.busy_s"] += seconds
    if result is not None and not result.get("ok"):
        rec.counts["pool.failed_recompute_s"] += seconds
    if rec.pid != rec.root_pid:
        rec.flush()


def install(rec: Recorder) -> None:
    """Patch every layer's entry points; call before the pool starts."""
    import repro.core.baselines as baselines
    import repro.core.cost as cost
    import repro.core.partitioner as partitioner
    import repro.replay.kernel as kernel
    import repro.replay.service as replay_service
    import repro.replay.store as replay_store
    import repro.replay.trace as trace
    import repro.service.cache as cache
    import repro.service.jobs as jobs
    import repro.service.pool as pool
    import repro.synth.generator as generator

    # repro.synth: the benchmark's own population, and the suite's.
    _wrap_stream(rec, generator, "generate_population", "synth")
    _wrap_stream(rec, trace, "generate_population", "synth")

    # repro.core.partitioner: the benchmark calls it through the module,
    # the replay worker through its own import.
    for owner in (partitioner, replay_service):
        _wrap_call(rec, owner, "partition_with_device_selection",
                   "partitioner", "device_selection", _after_device_selection,
                   before=lambda rec: rec.attempts.append([]))
    _wrap_call(rec, partitioner, "partition", "partitioner", "partition",
               _after_partition)

    # repro.core.clustering / covering / allocation, as partition() calls them.
    _wrap_call(rec, partitioner, "enumerate_base_partitions", "clustering",
               "enumerate", _count("clustering.calls"))
    _wrap_stream(rec, partitioner, "candidate_partition_sets", "covering")
    _wrap_call(rec, partitioner, "search_candidate_set", "allocation",
               "search", _after_search)

    # repro.core.cost: partition()'s final scoring and the benchmark's
    # baseline scoring (through the cost and baselines modules).
    for owner in (partitioner, cost):
        for name in ("total_reconfiguration_frames", "worst_case_frames"):
            _wrap_call(rec, owner, name, "cost", name, _count("cost.calls"))
    for name in ("one_module_per_region_scheme", "single_region_scheme"):
        _wrap_call(rec, baselines, name, "cost", name, _count("cost.calls"))
    _wrap_call(rec, partitioner, "smallest_device_for_scheme", "cost",
               "smallest_device_for_scheme", _count("cost.calls"))

    # repro.replay.trace / engine / kernel, as the replay worker calls them.
    _wrap_stream(rec, replay_service, "iter_trace", "trace")
    _wrap_call(rec, replay_service, "replay_trace", "replay", "replay",
               _after_replay)
    _wrap_call(rec, kernel, "run_vector", "replay", "run_vector",
               _count("replay.vector_traces"))

    # repro.replay.store: segment writes and the phase-1 bulk probe.
    store_cls = replay_store.ReplayResultStore
    _wrap_call(rec, store_cls, "put_many", "store", "write", _after_put_many)
    _wrap_call(rec, store_cls, "probe_many", "store", "probe", _after_probe_many)

    # repro.service.cache: partition-result lookups and writes.
    for name in ("lookup", "probe", "__contains__"):
        _wrap_call(rec, cache.ResultCache, name, "cache", name, _after_cache)
    _wrap_call(rec, cache.ResultCache, "put", "cache", "put", _count("cache.puts"))

    # repro.service.jobs: every method that appends to the job log.
    def after_submit(rec, result, exc, args, kwargs, seconds):
        rec.counts["jobs.submitted"] += 1
        rec.counts["jobs.appends"] += 1

    _wrap_call(rec, jobs.JobStore, "submit", "jobs", "submit", after_submit)
    for name in ("mark_running", "mark_done", "mark_failed"):
        _wrap_call(rec, jobs.JobStore, name, "jobs", name, _count("jobs.appends"))
    _wrap_call(rec, jobs.JobStore, "pending", "jobs", "pending")

    # repro.service.pool: the parent's batch and the worker's job body.
    _wrap_call(rec, pool, "run_batch", *WAIT_ENTRY, _after_run_batch)
    _wrap_call(rec, pool, "execute_job_payload", "pool", "job", _after_job)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def _own_segments(spans: list[list]) -> list[tuple[float, float, list]]:
    """Disjoint ``(start, end, span)`` pieces where ``span`` is innermost."""
    children: dict[int, list[list]] = defaultdict(list)
    ids = {s[SID] for s in spans}
    for s in spans:
        children[s[PARENT] if s[PARENT] in ids else 0].append(s)
    segments = []
    for s in spans:
        cursor = s[START]
        for child in sorted(children.get(s[SID], ()), key=lambda c: c[START]):
            if child[START] > cursor:
                segments.append((cursor, child[START], s))
            cursor = max(cursor, child[END])
        if s[END] > cursor:
            segments.append((cursor, s[END], s))
    segments.sort(key=lambda seg: seg[0])
    return segments


def analyse(spans_by_pid: dict[int, list[list]], parent_pid: int,
            window: tuple[float, float]) -> tuple[Counter, Counter, float]:
    """Wall shares over ``window``: by layer, by (layer, entry), uncovered.

    The parent's root span (layer ``None``) is the measured window
    itself; its self time is the uncovered time.
    """
    t0, t1 = window
    per_proc = {}
    for pid, spans in spans_by_pid.items():
        segs = [(max(a, t0), min(b, t1), s) for a, b, s in _own_segments(spans)
                if b > t0 and a < t1]
        own = defaultdict(float)
        for a, b, s in segs:
            own[id(s)] += b - a
        per_proc[pid] = (segs, [seg[0] for seg in segs], own)
    cuts = sorted({t0, t1} | {x for segs, _, _ in per_proc.values()
                              for a, b, _ in segs for x in (a, b)})
    by_layer: Counter = Counter()
    by_entry: Counter = Counter()
    uncovered = 0.0

    def active_span(pid, t):
        segs, starts, _own = per_proc[pid]
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and segs[i][0] <= t < segs[i][1]:
            return segs[i][2]
        return None

    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2
        members = []
        workers_busy = False
        for pid in per_proc:
            span = active_span(pid, mid)
            if span is None:
                continue
            if pid != parent_pid:
                workers_busy = True
            members.append((pid, span))
        members = [
            (pid, s) for pid, s in members
            if not (pid == parent_pid and workers_busy
                    and (s[LAYER], s[ENTRY]) == WAIT_ENTRY)
        ]
        if not members:
            uncovered += b - a
            continue
        share = (b - a) / len(members)
        for pid, s in members:
            own_total = per_proc[pid][2][id(s)]
            gen = s[GEN] or {}
            gen_total = sum(gen.values())
            rest = share
            if gen_total > 0 and own_total > 0:
                for layer, secs in gen.items():
                    part = share * min(secs / own_total, 1.0)
                    by_layer[layer] += part
                    rest -= part
            if s[LAYER] is None:
                uncovered += rest
            else:
                by_layer[s[LAYER]] += rest
                by_entry[(s[LAYER], s[ENTRY])] += rest
    return by_layer, by_entry, uncovered
