"""The seeded ``jordanred all --json`` campaign, run through ``cli.main``.

The gate compares every check's pass flag with the documented expectation:
every check passes except the three reference values of the bott report that
README's "A deliberate red flag" lists.  Those three must fail, with the
printed reference as expected value and the package's value as computed one.
They are never to be "fixed" here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from typing import List

from jordanred import cli
from spans import Tracer

# (report, check name) -> (printed reference, computed value), as documented.
RED_FLAGS = {
    ("bott", "integral of c1 l^5"): (-171, 171),
    ("bott", "Euler number of the Calabi-Yau section"): (-2136, -84),
    ("bott", "third Betti number of the section"): (2140, 88),
}
EXPECTED_EXIT = 1  # some check fails: exactly the three red flags

# The builders `all` calls, each one per-layer row; build_all is their parent.
BUILDERS = ("build_verify_algebra", "build_verify_jordan", "build_lie_dims",
            "build_orbits", "build_linear_spaces", "build_properties",
            "build_degree", "build_betti", "build_bott")


@dataclass(frozen=True)
class CampaignRun:
    seconds: float
    exit_code: int
    stdout: str
    group: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def run_campaign(seed: int, group: str) -> CampaignRun:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["all", "--json", "--seed", str(seed)])
    return CampaignRun(time.perf_counter() - start, code, buf.getvalue(), group)


def gate(run: CampaignRun):
    """(attempted, failures): each check and the exit status is one operation."""
    failures: List[str] = []
    checks = [(rep["command"], c) for rep in json.loads(run.stdout)["reports"]
              for c in rep["checks"]]
    for command, c in checks:
        flag = RED_FLAGS.get((command, c["name"]))
        if flag is None:
            if c["pass"] is not True:
                failures.append("%s: %s" % (command, c["name"]))
        elif c["pass"] is not False or (c["expected"], c["computed"]) != flag:
            failures.append("%s: %s (red flag changed)" % (command, c["name"]))
    missing = set(RED_FLAGS) - {(command, c["name"]) for command, c in checks}
    failures.extend("%s: %s (red flag missing)" % k for k in sorted(missing))
    if run.exit_code != EXPECTED_EXIT:
        failures.append("exit code %d, expected %d" % (run.exit_code, EXPECTED_EXIT))
    return len(checks) + 1, failures


@contextlib.contextmanager
def traced_builders(tracer: Tracer, group: str):
    """Wrap the cli builders in spans for the duration of one campaign."""
    saved = {name: getattr(cli, name) for name in BUILDERS + ("build_all",)}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tracer.span("cli." + name, group):
                return fn(*args, **kwargs)
        return traced

    for name, fn in saved.items():
        setattr(cli, name, wrap(name, fn))
    try:
        with tracer.span("cli.main", group):
            yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def traced_campaign(seed: int, tracer: Tracer, group: str) -> CampaignRun:
    with traced_builders(tracer, group):
        return run_campaign(seed, group)


def builder_rows(tracer: Tracer, runs: List[CampaignRun]):
    """Per traced run: seconds in each builder (summed over its calls), and
    ``render``, the time from the end of build_all to the end of cli.main."""
    per_run = []
    for run in runs:
        spans = [s for s in tracer.spans if s.group == run.group]
        row = {name: sum(s.seconds for s in spans if s.name == "cli." + name)
               for name in BUILDERS}
        calls = {name: sum(s.name == "cli." + name for s in spans) for name in BUILDERS}
        main = next(s for s in spans if s.name == "cli.main")
        build_all = next(s for s in spans if s.name == "cli.build_all")
        row["render"] = (main.end_ns - build_all.end_ns) / 1e9
        per_run.append((row, calls))
    return per_run
