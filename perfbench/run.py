"""jordanred benchmark: one workload, one seed, one fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads are ``campaign`` (the seeded ``jordanred all --json`` run),
``orbit_stream`` (octonion member lines of small height) and ``tall_lines``
(the same lines at large height).  perfbench/README.md says why each was
chosen and which end-to-end metric each per-layer row should move.

The package is driven from outside, single-threaded, as a closed loop: one
call returns before the next starts.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` records spans around the benchmark's
calls into each module, reports the per-layer rows and the tracing overhead,
and writes the spans to perfbench/out/.  Human-readable lines come first; the
last line of standard output is the JSON result.  The metric names and units
are read from BENCHMARK.json.  Exit status 2 means the benchmark cannot run
here (for example, no src/jordanred beside it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The benchmark's own modules (campaign, lines, kernels) import jordanred, so
# they are imported inside functions, once main has put src/ on sys.path.

WORKLOADS = ("campaign", "orbit_stream", "tall_lines")
# Algebras whose cached tables the workload needs; their cold builds are set-up.
SETUP_ALGEBRAS = {"campaign": "RCHO", "orbit_stream": "O", "tall_lines": "O"}
ALL_ALGEBRAS = "RCHO"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
MIN_CAMPAIGNS = 3   # campaign runs in an untraced campaign measurement, at least
SIDE_GROUPS = 4     # line groups run on the campaign workload's traced run


def setup_probes(workload: str, traced: bool):
    """SETUP_PROBES cold set-ups, each in its own fresh interpreter."""
    setup = SETUP_ALGEBRAS[workload]
    extra = "".join(a for a in ALL_ALGEBRAS if a not in setup) if traced else ""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), setup, extra],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=False)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        probe = json.loads(done.stdout.splitlines()[-1])
        if Path(probe["package"]).resolve().parent != SRC / "jordanred":
            raise RuntimeError("set-up probe imported %s" % probe["package"])
        probes.append(probe)
    return probes


def setup_rows(probes):
    rows = {"jordanred.import.s": (statistics.median(p["import_s"] for p in probes),
                                   len(probes))}
    for build in probes[0]["builds"]:
        row = build["row"]
        ms = [b["ms"] for p in probes for b in p["builds"] if b["row"] == row]
        rows[row] = (statistics.median(ms), len(ms))
    return rows


def build_tables(algebras: str) -> None:
    from jordanred import liealg, reductions
    from jordanred.algebra import tag_by_name
    from setup_probe import BUILDERS

    modules = {"liealg": liealg, "reductions": reductions}
    for name in algebras:
        for module, fn in BUILDERS:
            getattr(modules[module], fn)(tag_by_name(name))


def run_metadata():
    """Python version, usable cores, git SHA (None outside git) and src/ LOC."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30,
                             check=False).stdout.split()
    except OSError:
        git = []
    sha = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha,
            "src_loc": loc}


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- campaign --------------------------------------------------------------------


class CampaignPhase:
    """Warm `all --json` runs until `seconds` have passed, at least `min_runs`.

    With tracing, runs alternate untraced and traced, so both medians come
    from one process and their difference is the tracing overhead.
    """

    def __init__(self, seed: int, seconds: float, min_runs: int, tracer):
        import campaign

        self.plain, self.traced = [], []
        busy = 0.0
        while busy < seconds or len(self.plain) + len(self.traced) < min_runs:
            gc.collect()
            k = len(self.plain) + len(self.traced)
            group = "campaign-%d" % k
            if tracer.enabled and k % 2 == 1:
                run = campaign.traced_campaign(seed, tracer, group)
                self.traced.append(run)
            else:
                run = campaign.run_campaign(seed, group)
                self.plain.append(run)
            busy += run.seconds
        runs = self.plain + self.traced
        self.attempted, self.failures = 0, []
        for run in runs:
            attempted, failures = campaign.gate(run)
            self.attempted += attempted
            self.failures.extend(failures)
        self.digests = sorted({run.digest for run in runs})

    def rows(self, tracer):
        import campaign

        rows = {}
        per_run = campaign.builder_rows(tracer, self.traced)
        for name in campaign.BUILDERS + ("render",):
            rows["cli.%s.s" % name] = (
                statistics.median(times[name] for times, _ in per_run),
                sum(calls.get(name, 1) for _, calls in per_run))
        reports = json.loads(self.traced[0].stdout)["reports"]
        rows["cli.checks"] = (sum(len(r["checks"]) for r in reports), len(self.traced))
        rows["trace.overhead.campaign_s"] = (
            statistics.median(r.seconds for r in self.traced)
            - statistics.median(r.seconds for r in self.plain), len(self.traced))
        return rows


# -- lines -------------------------------------------------------------------------


def line_rows(tracer, run):
    import lines

    def span_mean_ms(name, results):
        spans = tracer.named(name, {r.group for r in results})
        return statistics.fmean(s.seconds for s in spans) * 1e3, len(spans)

    traced = [r for r in run.results if r.traced]
    plain = [r for r in run.results if not r.traced]
    return {
        "reductions.from_json.ms": span_mean_ms("reductions.from_json", traced),
        **{"reductions.%s.ms.%s" % (call, orbit): span_mean_ms(
            "reductions." + call, [r for r in traced if r.orbit == orbit])
           for orbit in lines.ORBITS
           for call in ("membership", "classify_orbit", "severi_points_on_line",
                        "tangent_dim")},
        **{"lines.%s" % orbit: (sum(r.orbit == orbit for r in traced),) * 2
           for orbit in lines.ORBITS},
        # throughput lost to tracing: untraced minus traced lines per second
        "trace.overhead.lines_per_s": (
            run.lines_per_s(plain) - run.lines_per_s(traced), len(traced)),
    }


# -- measurement ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, tracer):
    """Run the workload; return (ops seconds, attempted, failures, info, rows)."""
    import kernels
    import lines

    rows, info, failures = {}, {}, []
    attempted = 0
    if tracer.enabled:
        rows.update(kernels.kernel_rows(tracer, random.Random("kernels/%d" % seed)))
    if workload == "campaign" or tracer.enabled:
        phase = CampaignPhase(seed, seconds if workload == "campaign" else 0.0,
                              2 if tracer.enabled else MIN_CAMPAIGNS, tracer)
        attempted += phase.attempted
        failures += phase.failures
        if len(phase.digests) != 1:
            failures.append("campaign reports differ between runs of one seed")
        info["campaign_digest"] = phase.digests[0]
        info["campaign_s"] = [r.seconds for r in phase.plain]
        if tracer.enabled:
            rows.update(phase.rows(tracer))
            info["chow_bott_share"] = sum(
                rows["cli.%s.s" % name][0] for name in ("build_degree", "build_betti",
                                                         "build_bott")
            ) / statistics.median(r.seconds for r in phase.traced)
        ops = [r.seconds for r in phase.plain]
    if workload != "campaign" or tracer.enabled:
        stream = lines.LineStream("orbit_stream" if workload == "campaign" else workload,
                                  seed)
        if workload == "campaign":
            run = lines.run_stream(stream, tracer, float("inf"), SIDE_GROUPS)
        else:
            run = lines.run_stream(stream, tracer, seconds)
        attempted += len(run.results)
        failures += ["line %s (%s): %s" % (r.group, r.orbit, r.outcome)
                     for r in run.results if not r.ok]
        info.update({"lines": len(run.results), "input_digest": run.input_digest(),
                     "output_digest": run.output_digest(), "height": run.heights()})
        if tracer.enabled:
            rows.update(line_rows(tracer, run))
        if workload != "campaign":
            ops = [r.seconds for r in run.results if not r.traced]
    return ops, attempted, failures, info, rows


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jordanred" / "__init__.py").is_file():
        print("error: %s does not hold the jordanred package; run from the root "
              "of a jordanred checkout" % SRC, file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    traced = args.trace == 1

    probes = setup_probes(args.workload, traced)
    sys.path.insert(0, str(SRC))
    build_tables(ALL_ALGEBRAS if traced else SETUP_ALGEBRAS[args.workload])
    from spans import Tracer

    tracer = Tracer(traced)
    ops, attempted, failures, info, rows = measure(args.workload, args.seed,
                                                    args.seconds, tracer)
    info["meta"] = run_metadata()
    for line in failures:
        print("FAILED %s" % line, file=sys.stderr)

    if traced:
        rows.update(setup_rows(probes))
        units = per_layer
        metrics = {name: rows[name][0] for name in per_layer}
        OUT.mkdir(exist_ok=True)
        out = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
        with open(out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **info,
                       "rows": {name: {"value": v[0], "unit": per_layer.get(name),
                                       "calls": v[1]} for name, v in rows.items()},
                       "spans": [s.to_json() for s in tracer.spans]}, fh)
        info["spans_file"] = str(out.relative_to(ROOT))
        for name in per_layer:
            print("%-48s %14.6g %-6s calls %d" % (name, rows[name][0], units[name],
                                                   rows[name][1]))
    else:
        units = end_to_end
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "ops_per_s": len(ops) / sum(ops),
            "op_p90_ms": p90(ops) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for name in end_to_end:
            print("%-14s %14.6g %s" % (name, metrics[name], units[name]))
        # The same figures under the names perfbench/README.md maps them to.
        # The medians are printed only: their spread on a shared host
        # exceeded the largest bound BENCHMARK.json may set.
        if args.workload == "campaign":
            print("campaign_s     %14.6g s (median of %d)" % (statistics.median(ops),
                                                             len(ops)))
        else:
            print("lines_per_s    %14.6g 1/s" % metrics["ops_per_s"])
            print("line_p50_ms    %14.6g ms" % (statistics.median(ops) * 1e3))
            print("line_p90_ms    %14.6g ms (of %d lines)" % (metrics["op_p90_ms"],
                                                            len(ops)))
    print("failed_share   %14.6g (%d of %d)" % (len(failures) / attempted,
                                                 len(failures), attempted))
    print("info %s" % json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
