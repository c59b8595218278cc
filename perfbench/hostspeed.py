"""Host-speed probe: how fast this processor runs Python right now.

The benchmark's host is a share of a machine whose speed moves while a
run measures: the same work took from 0.7 s to 1.4 s within one minute,
and CPU time moved with it, so it is the processor that slows, not the
scheduler.  Every benchmark process therefore times a fixed pure-Python
workload (:func:`probe`, about 1.5 ms) each time it has used
``INTERVAL_S`` of CPU time (``ITIMER_PROF``, so idle processes take no
samples), and appends ``(time, probe seconds)`` to a file of its own.
Forked pool workers start their own sampling at fork.

:func:`speed` turns the samples of a time window into the mean speed
relative to ``PROBE_REF_S``; a time multiplied by it is what the same
work would have taken at the reference speed.  The probe is benchmark
code, so a change to the program moves the scaled times as much as the
raw ones; only the host's speed is taken out.  The probe's own time is
inside every measured time (about 3%).
"""

from __future__ import annotations

import difflib
import fractions
import os
import pprint
import signal
import time
from pathlib import Path

#: CPU seconds between two samples of one process.
INTERVAL_S = 0.05
#: The probe's duration at the reference speed: a fixed constant, near
#: the probe's median on a busy 2-core 2.0 GHz Xeon guest.  Only that it
#: never changes matters; changing it rescales every reported time.
PROBE_REF_S = 0.0015

_TABLE = {(i % 97, i % 89, i): i * 31 % 1021 for i in range(20000)}
_KEYS = [(i % 97, i % 89, i) for i in range(0, 20000, 97)]
_LINES_A = [f"line {i % 37} {i % 11}" for i in range(220)]
_LINES_B = [f"line {(i * 7) % 37} {i % 11}" for i in range(220)]
_DOC = {f"k{i}": [(i, j, f"v{j}") for j in range(5)] for i in range(8)}


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def _workload() -> int:
    """Dict lookups, frozensets and small objects over a table larger
    than the first-level caches; a sequence diff (``difflib``); rational
    arithmetic (``fractions``); pretty-printing (``pprint``).  Each takes
    about a quarter of the time.  One small loop alone tracked only part
    of the slowdowns the program sees, because those hit large code
    footprints harder; this mix tracked the sweep's design loop within
    about 4% while its raw time moved by 1.5 times.
    """
    table = _TABLE
    acc = 0
    groups = {}
    items = []
    for key in _KEYS:
        value = table[key]
        acc += value & 15
        group = groups.get(value & 31)
        groups[value & 31] = (group or frozenset()) | {key[0]}
        items.append(_Item(key, value))
    items.sort(key=lambda item: (item.weight, item.key))
    acc += sum(len(g) for g in groups.values()) + items[0].weight
    acc += int(difflib.SequenceMatcher(None, _LINES_A, _LINES_B).ratio() * 100)
    for i in range(1, 90):
        ratio = fractions.Fraction(i, i + 3) * fractions.Fraction(i + 1, 7)
        acc += ratio.numerator & 7
    acc += len(pprint.pformat(_DOC))
    return acc


def probe() -> float:
    """Seconds one fixed pure-Python workload takes now."""
    started = time.perf_counter()
    if _workload() < 0:  # never; keeps the result in use
        raise AssertionError
    return time.perf_counter() - started


class Sampler:
    """Samples this process (and its forked children) into ``directory``."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fd = -1
        signal.signal(signal.SIGPROF, self._on_tick)
        os.register_at_fork(after_in_child=self._start)
        self._start()

    def _start(self) -> None:
        path = self.directory / f"speed-{os.getpid()}.txt"
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _on_tick(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> float:
        """Take one sample now; returns when it was taken."""
        at = time.perf_counter()
        os.write(self._fd, f"{at!r} {probe()!r}\n".encode())
        return at

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)


def load(directory: Path) -> list[tuple[float, float]]:
    """Every process's samples, sorted by time."""
    samples = []
    for path in Path(directory).glob("speed-*.txt"):
        for line in path.read_text().splitlines():
            at, seconds = line.split()
            samples.append((float(at), float(seconds)))
    samples.sort()
    return samples


def speed(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean speed over ``[start, end]`` relative to the reference speed.

    Falls back on the nearest samples when none lies in the window.
    """
    window = [s for at, s in samples if start <= at <= end]
    if not window:
        window = [s for _at, s in sorted(
            samples, key=lambda x: min(abs(x[0] - start), abs(x[0] - end)))[:4]]
    if not window:
        raise ValueError("no host-speed samples")
    return sum(PROBE_REF_S / s for s in window) / len(window)
