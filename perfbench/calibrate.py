"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on virtual CPUs shared with other tenants, whose speed
drifts by up to 2x over seconds to minutes while the guest sees neither
steal time nor a gap between CPU time and wall time.  The timed loop
therefore probes the machine between ops and scales every op's wall time
by ``reference / probe time`` measured around it, so timings are reported
at a reference machine speed: the one at which the probe takes its
reference time, the fastest seen on the machine the benchmark was defined
on.  In process the probe is a fixed pure-Python kernel -- row reduction
of a 32x32 tuple matrix plus recursive evaluation of an expression tree,
the two kinds of code the library spends its time in; measured there, the
library's ops slow down with it (by 0.7-0.85 of its slow-down, in log
terms).  CLI processes and ``setup_s`` are probed with a bare interpreter
start instead (see START_REFERENCE_S).

The probes are the benchmark's own code, so a change to the library
cannot make them faster or slower.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 2.9e-3  # fastest kernel time seen on a 2.0 GHz Xeon vCPU, python 3.11
# cli-oneshot ops are child processes dominated by start-up and imports,
# which the kernel tracks poorly; they are scaled by the time a bare
# interpreter (`python -c pass`) takes to start and exit instead
START_REFERENCE_S = 47.5e-3  # fastest such start seen on the same machine
PROBE_EVERY_S = 0.25  # at most this much loop time between two probes

_rng = random.Random(12345)
_MATRIX = [tuple(_rng.random() + (5.0 if i == j else 0.0) for j in range(32))
           for i in range(32)]


def _tree(depth):
    if depth == 0:
        return ("x",) if _rng.random() < 0.5 else ("c", _rng.random())
    return (_rng.choice("+-*"), _tree(depth - 1), _tree(depth - 1))


_TREE = _tree(7)


def _evaluate(t, x):
    op = t[0]
    if op == "x":
        return x
    if op == "c":
        return t[1]
    a, b = _evaluate(t[1], x), _evaluate(t[2], x)
    return a + b if op == "+" else a - b if op == "-" else a * b


def kernel():
    rows = list(_MATRIX)
    n = len(rows)
    for k in range(n):
        pivot = rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / pivot[k]
            rows[i] = tuple(a - f * b for a, b in zip(rows[i], pivot))
    return rows, sum(_evaluate(_TREE, j / 60.0) for j in range(60))


def probe() -> float:
    """Seconds the kernel takes now: the faster of two runs, so that an
    interrupt during one run does not count as a slow machine."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedLog:
    """Probes taken during a timed loop, each tagged with the number of ops
    done before it.  An op's factor uses the median of the `window` probes
    before it and the `window` probes after it.  `probe` returns seconds;
    `reference` is its time at reference speed."""

    def __init__(self, probe=probe, reference=REFERENCE_S, window=1):
        self.probe, self.reference, self.window = probe, reference, window
        self.marks: list[tuple[int, float]] = []  # (ops done, probe s)
        self.last = -float("inf")

    def maybe_probe(self, ops_done: int, force: bool = False) -> float:
        """Probe if PROBE_EVERY_S has passed since the last probe (or if
        forced); returns the seconds spent probing."""
        if not force and time.perf_counter() - self.last < PROBE_EVERY_S:
            return 0.0
        t0 = time.perf_counter()
        self.marks.append((ops_done, self.probe()))
        self.last = time.perf_counter()
        return self.last - t0

    def factors(self, n_ops: int) -> list[float]:
        """reference / probe time around each of ops 0..n_ops-1."""
        out, j, w = [], 0, self.window
        for i in range(n_ops):
            while j + 1 < len(self.marks) and self.marks[j + 1][0] <= i:
                j += 1
            near = [k for _, k in self.marks[max(0, j - w + 1) : j + 1 + w]]
            out.append(self.reference / statistics.median(near))
        return out
