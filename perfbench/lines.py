"""Seeded streams of octonion member lines and the per-line closed loop.

Each group of four lines shares one unipotent automorphism g: g moves the
representative of each orbit (open, codim1, codim2, codim4, in that order),
and an invertible basis change with entries in [-span, span] then respans
the plane.  Orbits therefore come in equal shares.  ``factors`` and ``span``
set the coefficient height and nothing else, so the two line workloads run
the same orbits and calls.

g is the product of two automorphisms drawn from a pool that
``liealg.random_unipotent`` fills, each of ``factors / 2`` factors.  That
gives heights like one draw of ``factors`` factors, at a fraction of the
cost, and 64 different g.

Lines reach the timed loop as wire JSON text, generated outside the clock.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from jordanred.algebra import ALG_O
from jordanred.liealg import apply_j0_linear, random_unipotent
from jordanred.reductions import (OrbitClass, ReductionLine, classify_orbit,
                                  membership, representative,
                                  severi_points_on_line, tangent_dim)
from spans import Tracer

ORBITS = ("open", "codim1", "codim2", "codim4")

# What the generator fixes for each orbit: (general, special, whole_line)
# rank-one point counts, as in the package's orbit table.
RANK_ONE_COUNTS = {"open": (3, 0, False), "codim1": (1, 1, False),
                   "codim2": (0, 1, False), "codim4": (0, 0, True)}
TANGENT_DIM = 3 * ALG_O.dim

# A line that takes longer than this is abandoned and counted as failed, so a
# stall in root finding cannot hang the run.  Lines take well under a second.
LINE_TIME_LIMIT_S = 10.0

# How many lines the input and output digests cover.  A run processes as many
# lines as fit in its time, so a digest over all of them would vary with speed.
DIGEST_LINES = 64

POOL = 8  # automorphisms in the pool; g is the product of two of them


@dataclass(frozen=True)
class StreamShape:
    factors: int  # unipotent factors per automorphism g (even)
    span: int     # basis-change entries are drawn from [-span, span]


SHAPES = {"orbit_stream": StreamShape(factors=2, span=2),
          "tall_lines": StreamShape(factors=8, span=99)}


@dataclass(frozen=True)
class WireLine:
    orbit: str
    wire: str
    height: int


def invertible_entries(rng: random.Random, span: int):
    """(a, b, c, d) with a*d - b*c != 0, all four redrawn until invertible."""
    while True:
        a, b, c, d = (rng.randint(-span, span) for _ in range(4))
        if a * d - b * c:
            return a, b, c, d


def wire_height(obj) -> int:
    """Largest |numerator| or denominator among the scalars of a wire line."""
    if isinstance(obj, str):
        q = Fraction(obj)
        return max(abs(q.numerator), q.denominator)
    if isinstance(obj, list):
        return max((wire_height(v) for v in obj), default=1)
    if isinstance(obj, dict):
        return max((wire_height(v) for k, v in obj.items() if k != "algebra"),
                   default=1)
    raise TypeError("unexpected wire value %r" % (obj,))


class LineStream:
    """The seeded stream of one workload, produced a group of four at a time."""

    def __init__(self, workload: str, seed: int):
        self.shape = SHAPES[workload]
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.pool = [random_unipotent(ALG_O, self.rng, factors=self.shape.factors // 2)
                     for _ in range(POOL)]

    def next_group(self) -> List[WireLine]:
        g1, g2 = self.rng.choice(self.pool), self.rng.choice(self.pool)
        group = []
        for orbit in ORBITS:
            rep = representative(ALG_O, OrbitClass(orbit))
            X, Y = (apply_j0_linear(ALG_O, g1, apply_j0_linear(ALG_O, g2, M))
                    for M in (rep.X, rep.Y))
            line = ReductionLine(X, Y).basis_change(
                *invertible_entries(self.rng, self.shape.span))
            obj = line.to_json()
            group.append(WireLine(orbit, json.dumps(obj, sort_keys=True),
                                  wire_height(obj)))
        return group


class LineTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise LineTimeout("line exceeded %.0f s" % LINE_TIME_LIMIT_S)


@dataclass(frozen=True)
class LineResult:
    orbit: str
    group: str    # span group of this line
    traced: bool
    seconds: float
    ok: bool
    outcome: str  # canonical text of what the package returned


def run_line(wl: WireLine, tracer: Tracer, group: str) -> LineResult:
    """from_json -> membership -> classify_orbit -> severi points -> tangent_dim."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, LINE_TIME_LIMIT_S)
    start = time.perf_counter()
    try:
        with tracer.span("line", group):
            obj = json.loads(wl.wire)
            with tracer.span("reductions.from_json", group):
                line = ReductionLine.from_json(obj)
            with tracer.span("reductions.membership", group):
                member = membership(line)
            with tracer.span("reductions.classify_orbit", group):
                orbit = classify_orbit(line).value
            with tracer.span("reductions.severi_points_on_line", group):
                pts = severi_points_on_line(line)
            with tracer.span("reductions.tangent_dim", group):
                tdim = tangent_dim(line)
        seconds = time.perf_counter() - start
    except Exception as exc:  # any error on one line fails that line only
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return LineResult(wl.orbit, group, tracer.enabled, seconds, False,
                          "error: %s" % type(exc).__name__)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    counts = (pts.count_general(), pts.count_special(), pts.whole_line)
    ok = (member and orbit == wl.orbit and counts == RANK_ONE_COUNTS[wl.orbit]
          and tdim == TANGENT_DIM)
    return LineResult(wl.orbit, group, tracer.enabled, seconds, ok,
                      json.dumps([member, orbit, list(counts), tdim]))


@dataclass
class StreamRun:
    results: List[LineResult]
    lines: List[WireLine]

    def busy_s(self) -> float:
        return sum(r.seconds for r in self.results)

    @staticmethod
    def lines_per_s(results) -> float:
        return len(results) / sum(r.seconds for r in results)

    def input_digest(self) -> str:
        """Digest of the first DIGEST_LINES wire lines, however many ran."""
        return _digest(wl.wire for wl in self.lines[:DIGEST_LINES])

    def output_digest(self) -> str:
        """Digest of what the package returned for those lines."""
        return _digest(r.outcome for r in self.results[:DIGEST_LINES])

    def heights(self):
        hs = [wl.height for wl in self.lines]
        return {"min": min(hs), "median": statistics.median(hs), "max": max(hs)}


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def run_stream(stream: LineStream, tracer: Tracer, seconds: float,
               max_groups: Optional[int] = None) -> StreamRun:
    """Closed loop over the stream until ``seconds`` of line time have passed
    or ``max_groups`` groups have run.

    Groups are generated outside the clock, one at a time, and their garbage
    is collected before the clock restarts.  When ``tracer`` is enabled only
    the odd groups are traced, so one run compares traced and untraced lines
    of the same stream.
    """
    run = StreamRun([], [])
    k = 0
    while run.busy_s() < seconds and (max_groups is None or k < max_groups):
        group = stream.next_group()
        gc.collect()
        active = tracer if k % 2 == 1 else _UNTRACED
        for i, wl in enumerate(group):
            run.lines.append(wl)
            run.results.append(run_line(wl, active, "line-%d-%d" % (k, i)))
        k += 1
    return run


_UNTRACED = Tracer(enabled=False)
