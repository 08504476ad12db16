"""Kernel rows: the scalar, algebra, Jordan and stabilizer calls, per algebra.

Inputs come from ``jordanred.sampling`` with a seeded generator.  Most of
these calls take microseconds, where a span per call would cost as much as
the call, so each kernel is timed as whole passes over its inputs: one span
per pass, and the row is the median over passes of the mean time per call.
"""

from __future__ import annotations

import statistics
import time

from jordanred.algebra import ALL_TAGS
from jordanred.jordan import det, jordan_mul
from jordanred.liealg import stabilizer_dims
from jordanred.sampling import (random_element, random_jordan, random_scalar,
                                random_traceless)
from spans import Tracer

PASSES = 5
TALL_SPAN = 10 ** 4


def _nonzero_scalar(rng, span=2):
    while True:
        s = random_scalar(rng, span)
        if not s.is_zero():
            return s


def _tall_scalar(rng):
    """A quotient of two scalars of height TALL_SPAN: height 1e4 to 1e8."""
    return _nonzero_scalar(rng, TALL_SPAN) / _nonzero_scalar(rng, TALL_SPAN)


def _time_calls(tracer, rows, row, fn, pairs, scale):
    """Time PASSES passes of fn over pairs; record rows[row] = (mean, calls)."""
    per_call = []
    for _ in range(PASSES):
        start = time.perf_counter_ns()
        for x, y in pairs:
            fn(x, y)
        end = time.perf_counter_ns()
        tracer.add(row, "kernels", start, end)
        per_call.append((end - start) / len(pairs) / scale)
    rows[row] = (statistics.median(per_call), PASSES * len(pairs))


def kernel_rows(tracer: Tracer, rng):
    """{row: (mean time per call in the row's unit, calls)}."""
    rows = {}
    for height, draw in (("small", _nonzero_scalar), ("tall", _tall_scalar)):
        pairs = [(draw(rng), draw(rng)) for _ in range(500)]
        _time_calls(tracer, rows, "gaussrat.mul.ns." + height,
                    lambda x, y: x * y, pairs, 1)
        _time_calls(tracer, rows, "gaussrat.add.ns." + height,
                    lambda x, y: x + y, pairs, 1)
    for tag in ALL_TAGS:
        pairs = [(random_element(tag, rng), random_element(tag, rng))
                 for _ in range(40)]
        _time_calls(tracer, rows, "algebra.mul.us.%s" % tag,
                    lambda x, y: x * y, pairs, 1e3)
        pairs = [(random_jordan(tag, rng), random_jordan(tag, rng))
                 for _ in range(8)]
        _time_calls(tracer, rows, "jordan.jordan_mul.us.%s" % tag,
                    jordan_mul, pairs, 1e3)
        _time_calls(tracer, rows, "jordan.det.us.%s" % tag,
                    lambda x, _: det(x), pairs, 1e3)
        pairs = [(_nonzero_traceless(tag, rng), None) for _ in range(2)]
        _time_calls(tracer, rows, "liealg.stabilizer_dims.ms.%s" % tag,
                    lambda x, _: stabilizer_dims(x), pairs, 1e6)
    return rows


def _nonzero_traceless(tag, rng):
    while True:
        x = random_traceless(tag, rng)
        if not x.is_zero():
            return x
