"""Tests of the benchmark itself: tracing changes no answer and leaves no
wrapper behind, and each closed-form oracle agrees with hh on a tiny case.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hochschild as api  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def tiny_members():
    field = api.PrimeField(workloads.PRIME)
    return [
        workloads._loops(api, 2, 3),
        workloads._truncated(api, 3, 3),
        workloads.Member("nakayama3_4", workloads._cyclic(api, 3, 4, api.QQ),
                         12, (0, 1), (4,)),
        workloads._hereditary(api, field, 4, True),
        workloads._commutative_ladder(api, field, 2),
    ]


def snapshot():
    """Every attribute of every hochschild module and wrapped class."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "hochschild" or name.startswith("hochschild."):
            out[name] = dict(vars(mod))
            for value in vars(mod).values():
                if isinstance(value, type) and \
                        value.__module__.startswith("hochschild"):
                    out[f"{name}:{value.__name__}"] = dict(vars(value))
    blocks = sys.modules["hochschild.verification"].BLOCKS
    out["BLOCKS"] = dict(blocks)
    return out


def same_objects(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][n] is b[k][n] for n in a[k])
        for k in a)


def test_traced_pass_matches_untraced():
    members = tiny_members()
    plain = run.ladder_pass(api, members, False)
    plain_probes = run.ladder_pass(api, members, True)
    tracer = spans.Tracer(api)
    with tracer:
        traced = run.ladder_pass(api, members, False)
        traced_probes = run.ladder_pass(api, members, True)
    assert traced == plain and traced_probes == plain_probes
    assert plain_probes[("nakayama3_4", "hh", 4)] == run.REFUSED
    layers = tracer.metrics(1.0)
    # one build per member and per probed member, and one inside each
    # hh_via_resolution call (system_of_relations builds the algebra)
    assert layers["algebra.build.calls"] == len(members) + 1 + 3
    assert layers["cohomology.hh.refused"] == 1
    assert layers["minres.hh.calls"] == 3


def test_counts_repeat_exactly():
    def counts():
        tracer = spans.Tracer(api)
        with tracer:
            run.ladder_pass(api, tiny_members(), False)
        return {name: value for name, value in tracer.metrics(1.0).items()
                if dict(spans.PER_LAYER)[name] == "count"}

    first = counts()
    assert first["linalg.kernel.pivots"] > 0
    assert counts() == first


def test_traced_verify_block_matches_untraced():
    plain = api.run_blocks(only="ex3_8")
    tracer = spans.Tracer(api)
    with tracer:
        traced = api.run_blocks(only="ex3_8")
    assert traced == plain and plain["pass"]
    layers = tracer.metrics(1.0)
    assert layers["verification.block.ex3_8_s"] > 0
    assert layers["cohomology.hh.calls"] > 0


def test_wrappers_restored():
    cli = run.VerifyPaper(api, {}).cli   # imported before the snapshot
    before = snapshot()
    with spans.Tracer(api):
        assert not same_objects(before, snapshot())
    assert same_objects(before, snapshot())
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer(api):
            1 / 0
    assert same_objects(before, snapshot())
    meter = speed.Pass()
    with spans.Checkpoints(api, meter.mark):
        assert not same_objects(before, snapshot())
        run.verify_paper_pass(cli, only="ex3_8")
    assert same_objects(before, snapshot())
    assert meter.marks > 0


def test_rescale_to_reference_speed():
    # a stretch run while the yardstick took twice its reference time counts
    # half its seconds
    ref = speed.REF_YARDSTICK_S
    assert speed.rescale(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert speed.rescale(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert speed.rescale(3.0, 0.2, 0.2, ref=0.1) == pytest.approx(1.5)


def test_start_up_is_timed_between_yardsticks():
    seconds, ref = speed.start_up([sys.executable, "-c", "pass"])
    assert seconds > 0 and ref > 0
    with pytest.raises(subprocess.CalledProcessError):
        speed.start_up([sys.executable, "-c", "raise SystemExit(3)"])


def test_pass_cuts_at_marks_and_excludes_yardstick():
    meter = speed.Pass()
    for _ in range(3):
        time.sleep(speed.EVERY)
        meter.mark()
    meter.close()
    assert meter.marks == 3 and len(meter.stretches) == 4
    ruler = sum(after for _, _, after in meter.stretches)
    assert 3 * speed.EVERY <= meter.raw_s < 3 * speed.EVERY + ruler + 0.05
    assert meter.ref_s > 0


def test_ladder_pass_marks_every_request():
    members = tiny_members()
    meter = speed.Pass()
    answers = run.ladder_pass(api, members, False, meter.mark)
    builds = sum(1 for m in members if m.degrees)
    requests = sum(1 for key in answers if key[1] != "dim")
    assert meter.marks == builds + requests


def test_metric_names_are_unique_and_all_reported():
    assert len({attr for _, attr, _, _ in spans.TARGETS}) == len(spans.TARGETS)
    names = [name for name, _ in spans.PER_LAYER]
    assert len(set(names)) == len(names)
    with spans.Tracer(api) as tracer:
        api.run_blocks(only="kernel_forms")
    assert list(tracer.metrics(1.0)) == names


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def hh_dims(pres, degrees):
    algebra = api.build_algebra(pres)
    module = api.regular_bimodule(algebra)
    return [api.hh(algebra, module, n).dim for n in degrees]


@pytest.mark.parametrize("member, degrees", [
    (lambda: workloads._loops(api, 2, 3), range(4)),
    (lambda: workloads._loops(api, 3, 2), range(3)),
    (lambda: workloads._truncated(api, 3, 3), range(4)),
    (lambda: workloads._quantum_plane(api, Fraction(1), "q1",
                                      oracles.quantum_plane_q1, "", 3),
     range(4)),
    (lambda: workloads._quantum_plane(api, Fraction(-1), "q-1",
                                      oracles.exterior_plane, "", 3),
     range(4)),
    (lambda: workloads._quantum_plane(api, Fraction(-2, 3), "q",
                                      oracles.quantum_plane_generic, "", 3),
     range(4)),
    (lambda: workloads._hereditary(api, api.QQ, 4, False), range(3)),
    (lambda: workloads._hereditary(api, api.QQ, 4, True), range(3)),
    (lambda: workloads._commutative_ladder(api, api.QQ, 2), range(3)),
])
def test_closed_form_agrees_with_hh(member, degrees):
    m = member()
    assert hh_dims(m.presentation, degrees) == [m.expect(n) for n in degrees]
    assert api.build_algebra(m.presentation).dim == m.dim


def test_happel_counts_parallel_paths():
    arrows = [("a", "0", "1"), ("b", "1", "2"), ("s", "0", "2")]
    assert oracles.count_paths(arrows, "0", "2") == 2
    assert oracles.happel(["0", "1", "2"], arrows, 1) == 2


@pytest.mark.parametrize("seed", range(3))
def test_monomial_dimension_agrees_with_build(seed):
    vertices, arrows, rels, dim = workloads.random_monomial(
        random.Random(seed), 16, 37)
    pres = workloads._presentation(api, vertices, arrows,
                                   [workloads._word(w) for w in rels], api.QQ)
    assert api.build_algebra(pres).dim == dim


def test_ladder_tally_counts_refusals_apart_from_failures():
    members = tiny_members()
    ladder = run.Ladder(api, members, workloads.load_reference())
    result, probes = ladder.run(), ladder.run(probes=True)
    tally = run.Tally()
    ladder.score(result, probes, tally)
    ladder.score(probes, result, tally)
    assert tally.wrong == []
    assert tally.refused == 1
    assert tally.fail_frac() == 1 / tally.attempted
    assert tally.report({})["correct"] is True


def test_timed_refusal_and_unchecked_answer_fail_the_run():
    # hh^4 of nakayama3_4 is a known probe; requested in the timed pass it
    # must count as a failure, not as a refusal.  "unknown" has no closed
    # form, no reference dims and no resolution route to check it.
    members = [
        workloads.Member("nakayama3_4", workloads._cyclic(api, 3, 4, api.QQ),
                         12, (0, 4)),
        workloads.Member("unknown", workloads._cyclic(api, 2, 2, api.QQ),
                         4, (0,)),
    ]
    ladder = run.Ladder(api, members, workloads.load_reference())
    tally = run.Tally()
    ladder.score(ladder.run(), ladder.run(probes=True), tally)
    assert tally.attempted == 3 and tally.refused == 0 and tally.failed == 2
    report = tally.report({})
    assert report["correct"] is False and report["failed"] == 2


def test_verify_paper_scores_the_cli_stdout():
    # one block only: its report is not the full suite's, so its hash is
    # the one failure
    wl = run.VerifyPaper(api, workloads.load_reference())
    code, stdout = run.verify_paper_pass(wl.cli, only="ex3_8")
    assert code == 0 and stdout.endswith("\n")
    tally = run.Tally()
    wl.score((code, stdout), None, tally)
    assert tally.attempted == wl.checks((code, stdout))[0] > 0
    assert tally.failed == 1 and "sha256" in tally.wrong[0]
