"""Machine-speed calibration for the benchmark's timings.

The benchmark is meant to run on small shared machines whose speed drifts by
tens of percent within a minute (measured on a 2-core cloud VM: one
probabilistic-TC call took 300 ms in one 10-second window and 485 ms twenty
seconds later, same process, same input).  Such drift swamps the differences
the benchmark exists to show.  So a fixed reference kernel, touching no
library code, runs right before and right after every timed call and every
set-up, outside the timed region, and each raw time is scaled by
``NOMINAL_S / mean(kernel before, kernel after)``: it reads as the time at
the reference speed.  A change to the library moves scaled times exactly as
it moves raw times.

The kernel mixes the kinds of work the workloads do -- tuple-keyed dict
inserts, hash-consed object graphs and their traversal, sorting, numpy
sorts -- because contention on a shared machine slows them unequally.
"""

from __future__ import annotations

import time

import numpy

__all__ = ["Calibration", "NOMINAL_S"]

#: Reference-kernel time that defines the reporting speed (about the fastest
#: the kernel runs on the 2-core VM the bounds were set on).
NOMINAL_S = 0.015


class _Node:
    __slots__ = ("kind", "children")

    def __init__(self, kind: int, children: tuple):
        self.kind = kind
        self.children = children


class Calibration:
    """Times the reference kernel; converts raw times to reference speed."""

    def __init__(self):
        self._array = numpy.random.default_rng(0).integers(0, 1 << 40, 25_000)

    def _kernel(self) -> int:
        table = {}
        for i in range(10_000):
            table[(i, str(i & 255))] = i * 3
        total = len(sorted(table.values(), reverse=True))
        # A hash-consed DAG and a depth-first walk over it.
        interned: dict = {}
        nodes: list = []
        for i in range(3_000):
            children = tuple(nodes[-1 - (j * 7 % len(nodes))] for j in range(2)) if nodes else ()
            key = (i % 3, tuple(id(child) for child in children))
            node = interned.get(key)
            if node is None:
                node = interned[key] = _Node(i % 3, children)
            nodes.append(node)
        seen = set()
        stack = [nodes[-1]]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.children)
        total += len(seen) + len(sorted(str(i) for i in range(2_500)))
        array = self._array
        return (
            total
            + int(numpy.argsort(array, kind="stable")[0])
            + int(numpy.unique(array & 0xFFFF).size)
        )

    def kernel_seconds(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def timed(self, fn):
        """Run ``fn()`` between two kernel runs.

        Returns ``(result, scale)``: multiply a raw time measured inside
        ``fn`` by ``scale`` to express it at the reference speed.
        """
        before = self.kernel_seconds()
        result = fn()
        after = self.kernel_seconds()
        return result, NOMINAL_S / ((before + after) / 2)
