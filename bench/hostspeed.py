"""Reference computations that gauge how fast the host runs the benchmark.

The benchmark runs on a few cores of a shared host, where the rest of the
host's load slows every Python process in turn, CPU time included, by up to
about twofold for seconds to minutes at a time, and where writing and
deleting small files costs from one to five times its quiet cost, in cycles
of the file system's own.  So between its jobs the benchmark times two
fixed references, and scales each measured time by their speed at that
moment: a time is reported as the time it would have taken while the
references took `NOMINAL_S` and `NOMINAL_WRITE_S`.

`reference` uses the interpreter the way the engine does (exact rational
arithmetic, recursion over tuples, dict and string work); `write_reference`
writes and deletes small JSON files the way `testkit.emit_suite` writes a
suite.  Neither uses the engine, so a change to the engine leaves them
alone.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import shutil
import time
from fractions import Fraction

# The references' median times in the runs that sized the benchmark, on a
# two-CPU Intel Xeon virtual machine (Python 3.11, ext4).
NOMINAL_S = 0.021
NOMINAL_WRITE_S = 0.0014
# Seconds of jobs between two samples: short enough to follow the host's
# swings, long enough that the references cost under a tenth of the run.
EVERY_S = 0.25
ROUNDS = 16
CHECKSUM = (Fraction(12062576, 823543), 15)


def _tree(depth: int, x: Fraction):
    if depth == 0:
        return (x,)
    return (_tree(depth - 1, x * Fraction(3, 7)), _tree(depth - 1, x + 1), str(depth))


def _fold(node) -> Fraction:
    if len(node) == 1:
        return node[0]
    return _fold(node[0]) - _fold(node[1]) + len(node[2])


def reference() -> tuple:
    table = {}
    acc = Fraction(0)
    for i in range(ROUNDS):
        tree = _tree(7, Fraction(i, 3))
        acc += _fold(tree)
        table[(i % 13, acc.denominator % 97)] = [acc, repr(tree[2])]
    return acc, len(table)


_DOC = {"inputs": {f"x{i}": {"kind": "int", "value": i * 7} for i in range(6)},
        "outcome": {"kind": "value", "value": {"v0": [1, 2, 3]}},
        "path_fp": "0" * 16, "soft_tier": None, "iter": 3}


def write_reference(directory) -> None:
    """Write four testcase-sized JSON files into `directory`, then delete it."""
    os.makedirs(directory)
    for i in range(4):
        with open(os.path.join(directory, f"tc{i:04d}.json"), "w", encoding="utf-8") as fh:
            json.dump(_DOC, fh, indent=2, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(directory)


class Gauge:
    """Reference timings along the run, and the scaling they give."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.at: list = []  # perf_counter when each pair of references ended
        self.took: list = []  # seconds of `reference`
        self.wrote: list = []  # seconds of `write_reference`

    def sample(self) -> None:
        # A collection inside the reference would scan the whole heap, so
        # the reference's time would grow with the benchmark's own records.
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = reference()
            t1 = time.perf_counter()
            write_reference(os.path.join(self.workdir, f"ref{len(self.at)}"))
            t2 = time.perf_counter()
        finally:
            gc.enable()
        if result != CHECKSUM:
            raise AssertionError(f"reference computed {result}, not {CHECKSUM}")
        self.at.append(t2)
        self.took.append(t1 - t0)
        self.wrote.append(t2 - t1)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float, seconds: float, write: bool = False) -> float:
        """`seconds`, measured between `start` and `end`, at nominal speed:
        scaled by the mean of the references just before and just after
        that interval, the compute reference or with `write` the write
        reference."""
        took, nominal = (self.wrote, NOMINAL_WRITE_S) if write else (self.took, NOMINAL_S)
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        near = [took[k] for k in (i, j) if 0 <= k < len(took)]
        return seconds * nominal * len(near) / sum(near)
