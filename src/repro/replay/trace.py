"""Deterministic, content-addressable workload traces, streamed lazily.

A :class:`TraceSpec` names one synthetic traffic trace: which
environment model generates it (uniform / markov / bursty -- the
:mod:`repro.runtime.adaptive` generators), how long it is, and the seed.
The spec is pure data, so a trace has a *content address*
(:func:`trace_key`): the SHA-256 of the ordered configuration names plus
the canonical spec document.  Replay results are keyed by it, which is
what makes fleet sweeps cache-first (docs/REPLAY.md).

:func:`iter_trace` streams the events from the generators the eager
``Environment.trace()`` methods list, so a streamed trace equals the
list the environment classes build without ever materialising it.  A
million-event trace costs O(1) memory.

:class:`WorkloadSuite` scales that to fleets: (design index, trace
index) -> (synthetic design, :class:`TraceSpec`) lazily, deterministic
per (designs, traces_per_design, seed), round-robining the environment
kinds so every design is exercised under every traffic shape.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..core.model import PRDesign
from ..runtime.adaptive import MatrixRows, check_rows
from ..runtime.adaptive import iter_bursty, iter_markov, iter_uniform
from ..synth.generator import generate_population

#: The environment kinds a spec may name, in suite round-robin order.
ENVIRONMENTS = ("uniform", "markov", "bursty")

#: Header folded into every trace key; bump on semantic changes so old
#: replay records miss instead of aliasing.
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


class TraceSpecError(ValueError):
    """Raised for malformed trace specifications."""


def _canonical_matrix(
    matrix: Mapping[str, Mapping[str, float]] | MatrixRows,
) -> MatrixRows:
    """Rows and destinations sorted by name: hashable and JSON-stable."""
    if isinstance(matrix, tuple):
        rows = matrix
    else:
        rows = tuple(
            (src, tuple(sorted((dst, float(p)) for dst, p in row.items())))
            for src, row in sorted(matrix.items())
        )
    for src, row in rows:
        total = 0.0
        for _dst, p in row:
            if p < 0:
                raise TraceSpecError(f"negative probability in row {src!r}")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise TraceSpecError(f"row {src!r} sums to {total}, expected 1.0")
    return rows


def ring_matrix(names: Sequence[str], bias: float = 0.7) -> MatrixRows:
    """A biased successor-ring transition matrix over ``names``.

    Each configuration transitions to the next one in order with
    probability ``bias`` and uniformly to every other configuration with
    the remainder -- a cheap, deterministic way to give every synthetic
    design a non-trivial Markov environment without storing per-design
    matrices.  Needs at least two configurations.
    """
    if len(names) < 2:
        raise TraceSpecError("a ring matrix needs at least two configurations")
    if not (0.0 < bias < 1.0):
        raise TraceSpecError("bias must lie in (0, 1)")
    rest = (1.0 - bias) / (len(names) - 2) if len(names) > 2 else 0.0
    rows = []
    for i, src in enumerate(names):
        successor = names[(i + 1) % len(names)]
        row = {}
        for dst in names:
            if dst == src:
                continue
            row[dst] = bias if dst == successor else rest
        if len(names) == 2:
            row[successor] = 1.0
        rows.append((src, tuple(sorted(row.items()))))
    return _canonical_matrix(tuple(rows))


@dataclass(frozen=True)
class TraceSpec:
    """One deterministic synthetic traffic trace, as pure data.

    ``matrix`` applies to the markov environment only; ``None`` derives
    the :func:`ring_matrix` over the design's configuration names at
    stream time (kept out of the spec so fleet specs stay tiny -- the
    derivation is deterministic, hence still content-addressed).
    ``dwell`` applies to the bursty environment only.
    """

    environment: str
    length: int
    seed: int = 0
    dwell: float = 0.9
    matrix: MatrixRows | None = None
    start: str | None = None

    def __post_init__(self) -> None:
        if self.environment not in ENVIRONMENTS:
            raise TraceSpecError(
                f"unknown environment {self.environment!r}; "
                f"expected one of {ENVIRONMENTS}"
            )
        if self.length < 0:
            raise TraceSpecError("trace length must be non-negative")
        if not (0.0 <= self.dwell < 1.0):
            raise TraceSpecError("dwell probability must lie in [0, 1)")
        if self.matrix is not None:
            if self.environment != "markov":
                raise TraceSpecError(
                    "a transition matrix only applies to the markov "
                    "environment"
                )
            object.__setattr__(self, "matrix", _canonical_matrix(self.matrix))
        if self.start is not None and self.environment != "markov":
            raise TraceSpecError(
                "a start configuration only applies to the markov environment"
            )

    def to_dict(self) -> dict:
        return {
            "environment": self.environment,
            "length": self.length,
            "seed": self.seed,
            "dwell": self.dwell,
            "matrix": (
                None
                if self.matrix is None
                else [[src, [[d, p] for d, p in row]] for src, row in self.matrix]
            ),
            "start": self.start,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TraceSpec":
        try:
            matrix = doc.get("matrix")
            rows: MatrixRows | None = None
            if matrix is not None:
                rows = tuple(
                    (str(src), tuple((str(d), float(p)) for d, p in row))
                    for src, row in matrix
                )
            return cls(
                environment=str(doc["environment"]),
                length=int(doc["length"]),
                seed=int(doc.get("seed", 0)),
                dwell=float(doc.get("dwell", 0.9)),
                matrix=rows,
                start=None if doc.get("start") is None else str(doc["start"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceSpecError(f"malformed trace spec: {exc}") from exc


def config_names(design: PRDesign) -> tuple[str, ...]:
    """The design's configuration names in declaration order.

    Order matters: the generators index into this list, so the trace
    key hashes the *ordered* names, not a set.
    """
    return tuple(c.name for c in design.configurations)


def trace_key(names: Sequence[str], spec: TraceSpec) -> str:
    """Content address of one trace: SHA-256 over names + canonical spec."""
    payload = json.dumps(
        {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "names": list(names),
            "spec": spec.to_dict(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def resolved_matrix(
    names: Sequence[str], spec: TraceSpec
) -> MatrixRows:
    """The transition matrix a markov spec streams with (explicit or ring)."""
    if spec.matrix is not None:
        return spec.matrix
    return ring_matrix(names)


def generator_matrix(
    names: Sequence[str], spec: TraceSpec
) -> dict[str, dict[str, float]] | None:
    """The true next-state distribution of ``spec``, as a nested mapping.

    This is what a markov *predictor* should be primed with: for markov
    specs the (explicit or derived) matrix itself; for uniform/bursty
    specs the induced jump distribution (uniform over the other
    configurations).  ``None`` when the design has a single
    configuration (no transition to predict).
    """
    names = list(names)
    if len(names) < 2:
        return None
    if spec.environment == "markov":
        return {
            src: {dst: p for dst, p in row}
            for src, row in resolved_matrix(names, spec)
        }
    p = 1.0 / (len(names) - 1)
    return {src: {dst: p for dst in names if dst != src} for src in names}


def iter_trace(names: Sequence[str], spec: TraceSpec) -> Iterator[str]:
    """Stream the events of ``spec`` over ``names`` lazily.

    The generators are the ones the eager environment classes list
    (:func:`~repro.runtime.adaptive.iter_uniform` etc.), so the stream
    equals ``env.trace(length, seed)`` element for element.
    """
    names = list(names)
    if not names:
        raise TraceSpecError("cannot trace a design with no configurations")
    if spec.environment == "uniform":
        yield from iter_uniform(names, spec.length, spec.seed)
    elif spec.environment == "markov":
        rows = resolved_matrix(names, spec)
        check_rows(names, rows, TraceSpecError)
        start = spec.start or names[0]
        if start not in names:
            raise TraceSpecError(f"unknown start configuration {start!r}")
        yield from iter_markov(rows, start, spec.length, spec.seed)
    else:
        yield from iter_bursty(names, spec.length, spec.seed, spec.dwell)


@dataclass(frozen=True)
class WorkloadSuite:
    """A deterministic fleet of (synthetic design, trace spec) pairs.

    ``designs`` synthetic designs (the Sec. V generator, same seed
    discipline as ``repro sweep``), each carrying ``traces_per_design``
    traces that round-robin over ``environments``.  Trace seeds are
    derived from (suite seed, design index, trace index), so the whole
    fleet is reproducible from four integers, and iteration is lazy --
    a 10k-trace suite costs nothing until consumed.
    """

    designs: int
    traces_per_design: int = 1
    length: int = 256
    seed: int = 2013
    dwell: float = 0.9
    environments: tuple[str, ...] = ENVIRONMENTS

    def __post_init__(self) -> None:
        if self.designs < 1:
            raise TraceSpecError("a suite needs at least one design")
        if self.traces_per_design < 1:
            raise TraceSpecError("a suite needs at least one trace per design")
        if self.length < 0:
            raise TraceSpecError("trace length must be non-negative")
        if not self.environments:
            raise TraceSpecError("a suite needs at least one environment")
        for env in self.environments:
            if env not in ENVIRONMENTS:
                raise TraceSpecError(f"unknown environment {env!r}")

    @property
    def trace_count(self) -> int:
        return self.designs * self.traces_per_design

    def spec_for(self, design_index: int, trace_index: int) -> TraceSpec:
        """The trace spec at one (design, trace) slot of the suite."""
        environment = self.environments[trace_index % len(self.environments)]
        # Distinct, deterministic seed per slot; the multipliers keep
        # slots from colliding for any realistic suite size.
        seed = self.seed * 1_000_003 + design_index * 10_007 + trace_index
        return TraceSpec(
            environment=environment,
            length=self.length,
            seed=seed,
            dwell=self.dwell,
        )

    def iter_workloads(self) -> Iterator[tuple[PRDesign, TraceSpec]]:
        """Lazily yield every (design, spec) pair of the fleet."""
        for d, (_cls, design) in enumerate(
            generate_population(self.designs, seed=self.seed)
        ):
            for t in range(self.traces_per_design):
                yield design, self.spec_for(d, t)
