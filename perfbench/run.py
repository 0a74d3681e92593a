#!/usr/bin/env python3
"""Benchmark of the hochschild library, driven through its public API.

    python3 perfbench/run.py --workload hh_deep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from the root of a checkout; the library is imported from ./src.
Each workload runs in one single-threaded process:

  --trace 0  passes over the workload's requests with tracing off, as many
             as fit in --seconds (at least two), each on freshly built
             algebras; reports wall_s (median pass) and setup_s (median
             of start-ups spread over the run: interpreter, import, input
             generation), both in seconds at the reference speed of
             speed.py, and peak_rss_mib (high-water RSS before the cap
             probes run).
  --trace 1  alternates untraced and traced passes and reports the
             per-layer metrics of spans.PER_LAYER (medians over traced
             passes) and the tracing overhead.

Every answer is checked against workloads.py's closed forms, the
resolution route, or the seed's reference dims.  Human-readable lines
come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  A refusal (CapExceeded) of one
of the seed's known cap probes is counted in fail_frac on the human
lines and in cohomology.hh.refused, not as a failure; a refusal of any
timed request is a failure and makes the run incorrect.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify_paper", "hh_deep", "hh_wide")
SETUP_FIRST = 5        # start-ups timed before the first pass
SETUP_EVERY = 2.0      # then one between passes every this many seconds,
                       # and more after the last pass until --seconds
MIN_PASSES = 2
CHILD_TIMEOUT = 170
REFUSED = "refused"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the inputs, then exit "
                        "(one setup_s sample)")
    return p.parse_args(argv)


def import_library():
    """The hochschild package of this checkout, or None with a message."""
    init = os.path.join(SRC, "hochschild", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no library at {init}; run from a checkout root",
              file=sys.stderr)
        return None
    sys.path.insert(0, SRC)
    import hochschild
    if os.path.realpath(hochschild.__file__) != os.path.realpath(init):
        print(f"error: imported {hochschild.__file__}, not {init}",
              file=sys.stderr)
        return None
    return hochschild


# -- one pass ------------------------------------------------------------------


def _ask(api, fn, *args):
    try:
        return fn(*args).dim
    except api.CapExceeded:
        return REFUSED
    except Exception as exc:  # reported as a failed request, pass goes on
        return f"raised {type(exc).__name__}: {exc}"


def ladder_pass(api, members, probes, mark=None):
    """Answers of one pass: (member, "dim"|"hh"|"res", degree) -> int, or
    REFUSED, or an error string.  Algebras are built fresh, so no answer
    comes from a cache filled by an earlier pass.  mark() is called after
    each build and each request."""
    mark = mark or (lambda: None)
    answers = {}
    for m in members:
        degrees = m.probes if probes else m.degrees
        if not degrees:
            continue
        try:
            algebra = api.build_algebra(m.presentation)
            module = api.regular_bimodule(algebra)
        except Exception as exc:
            for n in degrees:
                answers[(m.name, "hh", n)] = f"raised {type(exc).__name__}"
            continue
        mark()
        answers[(m.name, "dim", 0)] = algebra.dim
        for n in degrees:
            answers[(m.name, "hh", n)] = _ask(api, api.hh, algebra, module, n)
            mark()
        if m.resolution and not probes:
            for n in range(3):
                answers[(m.name, "res", n)] = _ask(
                    api, api.hh_via_resolution, algebra, n)
                mark()
    return answers


def verify_paper_pass(cli, only=None):
    """`hochschild verify-paper [--only BLOCK]` in this process: (exit
    code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-paper"] + (["--only", only] if only else []))
    return code, out.getvalue()


# -- checks --------------------------------------------------------------------


class Tally:
    """Request outcomes: attempted, known cap probes refused, and failed
    (raised, refused although timed, or answered wrong)."""

    def __init__(self):
        self.attempted = self.refused = 0
        self.wrong = []

    @property
    def failed(self):
        return len(self.wrong)

    def fail_frac(self):
        return (self.refused + self.failed) / self.attempted

    def summary(self):
        return (f"{self.fail_frac():.4f} ratio  ({self.refused} refused, "
                f"{self.failed} failed of {self.attempted} requests)")

    def report(self, metrics):
        """The result object, the last line of stdout."""
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


class Ladder:
    """hh_deep or hh_wide: per-member hh^n requests, checked one by one."""

    def __init__(self, api, members, reference):
        self.api, self.members, self.reference = api, members, reference
        self.by_name = {m.name: m for m in members}

    def run(self, probes=False, mark=None):
        return ladder_pass(self.api, self.members, probes, mark)

    def expected(self, m, kind, n, answers):
        if m.expect is not None:
            return m.expect(n)
        if m.name in self.reference:
            return self.reference[m.name][n]
        # monomial with no closed form: the other engine is the check
        return answers.get((m.name, "res" if kind == "hh" else "hh", n))

    def score(self, result, context, tally):
        """Tally the requests in result; context holds answers from the
        same run that a check may compare against."""
        answers = {**context, **result}
        for (name, kind, n), got in result.items():
            m = self.by_name[name]
            if kind == "dim":
                if got != m.dim:
                    tally.wrong.append(f"{name}: dim A = {got}, want {m.dim}")
                continue
            tally.attempted += 1
            probe = kind == "hh" and n in m.probes
            if got == REFUSED and probe:
                tally.refused += 1
                continue
            if not isinstance(got, int):
                tally.wrong.append(f"{name} {kind}^{n}: {got}")
                continue
            want = self.expected(m, kind, n, answers)
            if not isinstance(want, int):
                tally.wrong.append(f"{name} {kind}^{n} = {got}, nothing to "
                                   f"check it against ({m.oracle})")
            elif got != want:
                tally.wrong.append(f"{name} {kind}^{n} = {got}, want {want} "
                                   f"({m.oracle})")

    def checks(self, result):
        return 0, 0


class VerifyPaper:
    """One `hochschild verify-paper` pass, its stdout captured in memory;
    each check of the report is one request."""

    def __init__(self, api, reference):
        self.cli = importlib.import_module(api.__name__ + ".cli")
        self.api, self.reference = api, reference

    def run(self, probes=False, mark=None):
        if probes:
            return None
        if mark is None:
            return verify_paper_pass(self.cli)
        with spans.Checkpoints(self.api, mark):
            return verify_paper_pass(self.cli)

    @staticmethod
    def blocks(result):
        try:
            return json.loads(result[1])["results"]["blocks"]
        except (ValueError, KeyError, TypeError):
            return None

    def score(self, result, context, tally):
        if result is None:
            return
        code, stdout = result
        blocks = self.blocks(result)
        if blocks is None:
            tally.attempted += 1
            tally.wrong.append(f"verify-paper exited {code} with no report")
            return
        for block in blocks:
            for check in block["checks"]:
                tally.attempted += 1
                if not check["pass"]:
                    tally.wrong.append(f"{block['name']}: {check['name']}")
        if code != 0:
            tally.wrong.append(f"verify-paper exited {code}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != self.reference["verify_paper_sha256"]:
            tally.wrong.append(f"verify-paper stdout sha256 {digest} is not "
                               "the seed's")

    def checks(self, result):
        checks = [c for b in self.blocks(result) or () for c in b["checks"]]
        return len(checks), sum(not c["pass"] for c in checks)


# -- measurement -----------------------------------------------------------------


def setup_sample(args):
    """One child's start, import and input generation: (seconds, seconds
    at reference speed)."""
    return speed.start_up([sys.executable, os.path.abspath(__file__),
                           "--workload", args.workload, "--seed",
                           str(args.seed), "--setup-only"])


def timed_pass(wl):
    """One untraced pass: (its speed.Pass, result)."""
    gc.collect()
    meter = speed.Pass()
    result = wl.run(mark=meter.mark)
    return meter.close(), result


def timed(fn):
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def high_percentile(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has 10 of {n} samples beyond it"
    return f"p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.4f} s"


def measure(args, wl, tally):
    """Untraced passes, then the cap probes once: the end-to-end metrics."""
    start = time.perf_counter()
    setup = [setup_sample(args) for _ in range(SETUP_FIRST)]
    last_setup = time.perf_counter()
    passes, results, lasted = [], [], []
    while True:
        begin = time.perf_counter()
        meter, result = timed_pass(wl)
        lasted.append(time.perf_counter() - begin)
        passes.append(meter)
        results.append(result)
        if time.perf_counter() - start + statistics.median(lasted) \
                > args.seconds and len(passes) >= MIN_PASSES:
            break
        if time.perf_counter() - last_setup >= SETUP_EVERY:
            setup.append(setup_sample(args))
            last_setup = time.perf_counter()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = wl.run(probes=True)
    while time.perf_counter() - start < args.seconds:
        setup.append(setup_sample(args))
    for result in results:
        wl.score(result, probes, tally)
    wl.score(probes, results[0], tally)
    one = Tally()
    wl.score(results[0], probes, one)
    wl.score(probes, results[0], one)
    if len({meter.marks for meter in passes}) != 1:
        tally.wrong.append("passes made different numbers of marks: "
                           "state carried over from one pass to the next")
    wall = statistics.median(meter.ref_s for meter in passes)
    walls = [meter.raw_s for meter in passes]
    metrics = {"wall_s": (wall, "s"),
               "setup_s": (statistics.median(s for _, s in setup), "s"),
               "peak_rss_mib": (peak, "MiB")}
    print(f"  wall_s        {wall:.4f} s  median of {len(passes)} passes at "
          f"reference speed; wall clock: median "
          f"{statistics.median(walls):.4f} s, {high_percentile(walls)}")
    print(f"  setup_s       {metrics['setup_s'][0]:.4f} s  median of "
          f"{len(setup)} start-ups at reference speed; wall clock: median "
          f"{statistics.median(s for s, _ in setup):.4f} s")
    print(f"  peak_rss_mib  {peak:.1f} MiB")
    print(f"  fail_frac     {one.summary()} in one pass")
    return metrics


def measure_traced(args, wl, tally):
    """Untraced and traced passes in turn, probes included in both: the
    per-layer metrics, medians over the traced passes."""
    def both():
        result = wl.run()
        return result, wl.run(probes=True)

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        wall, (result, probes) = timed(both)
        plain.append(wall)
        wl.score(result, probes, tally)
        wl.score(probes, result, tally)
        tracer = spans.Tracer(wl.api)
        gc.collect()
        with tracer:
            begin = time.perf_counter()
            result, probes = both()
            wall = time.perf_counter() - begin
        traced.append(wall)
        wl.score(result, probes, tally)
        wl.score(probes, result, tally)
        layer = tracer.metrics(wall)
        layer["verification.checks"], layer["verification.checks_failed"] = \
            wl.checks(result)
        layers.append(layer)
        if time.perf_counter() - start + statistics.median(plain) \
                + statistics.median(traced) > args.seconds:
            break
    metrics = {name: (statistics.median(layer[name] for layer in layers),
                      unit) for name, unit in spans.PER_LAYER}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    wall = metrics["trace.wall_s"][0]
    print(f"  traced passes {len(traced)}; trace.wall_s {wall:.4f} s, "
          f"overhead {metrics['trace.overhead_frac'][0]:+.3f}, unattributed "
          f"{metrics['trace.unattributed_s'][0] / wall:.4f} of the pass")
    shares = sorted(((v / wall, k) for k, (v, u) in metrics.items()
                     if k.endswith("self_s")), reverse=True)
    print("  self time: " + ", ".join(f"{k[:-7]} {share:.1%}"
                                      for share, k in shares if share >= 0.01))
    return metrics


def run_one(args):
    api = import_library()
    if api is None:
        return 2
    speed.pin()
    inputs = workloads.generate(api, args.workload, args.seed)
    if args.setup_only:
        return 0
    reference = workloads.load_reference()
    wl = (VerifyPaper(api, reference) if args.workload == "verify_paper"
          else Ladder(api, inputs, reference))
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    tally = Tally()
    metrics = (measure_traced if args.trace else measure)(args, wl, tally)
    for line in tally.wrong[:20]:
        print(f"  WRONG {line}")
    print(json.dumps(tally.report(metrics)))
    return 0


def run_all(args):
    """Every workload in its own process, its human lines relayed."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT + 10 * args.seconds)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
