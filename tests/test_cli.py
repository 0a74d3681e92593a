import hashlib
import json
import re
import subprocess
import sys

import pytest

from hochschild import algfile, cli
from hochschild.algfile import BUNDLED
from hochschild.linalg import field_from_tag

from conftest import FractionRationals

DATA_DIR = None


def data_path(name):
    from importlib import resources
    return str(resources.files("hochschild.data").joinpath(f"{name}.json"))


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hochschild.cli", *args],
        capture_output=True, text=True)
    return proc


def test_hh_dims_first_example():
    proc = run_cli("hh", data_path("ex3_5_C"), "--max-degree", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["dims"] == [1, 1]
    assert report["timing"] is None


def test_hh_dims_second_example():
    proc = run_cli("hh", data_path("ex3_8_C"), "--max-degree", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["dims"] == [1, 2]


def test_hh_with_reps():
    proc = run_cli("hh", data_path("ex3_5_C"), "--max-degree", "1", "--reps")
    report = json.loads(proc.stdout)
    reps = report["results"]["representatives"]
    assert len(reps[1]) == 1
    assert all(isinstance(x, str) for row in reps[1][0] for x in row)


def test_hh_dual_module():
    proc = run_cli("hh", data_path("ex3_5_C"), "--module", "dual",
                   "--max-degree", "0")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["module_dim"] == 4


def test_hh_ext_module():
    proc = run_cli("hh", data_path("ex5_9_C"), "--module", "ext:2",
                   "--max-degree", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["module_dim"] == 4
    assert report["results"]["dims"][1] == 0


def test_field_mismatch_rejected(tmp_path):
    f = tmp_path / "loop.json"
    f.write_text(json.dumps({
        "field": "Fp:2",
        "vertices": ["v"],
        "arrows": [{"name": "x", "from": "v", "to": "v"}],
        "relations": ["x*x"],
    }))
    proc = run_cli("hh", str(f), "--field", "Q")
    assert proc.returncode == 2
    assert "error" in proc.stderr
    # without the flag the same file is accepted
    proc = run_cli("hh", str(f), "--max-degree", "0")
    assert proc.returncode == 0


def test_phi_not_surjective_case(tmp_path):
    # the loop-ideal extension is presented directly here; the dual
    # extension of the hereditary algebra is surjective instead, so use
    # the bundled one with ext:2? phi over dual must be surjective:
    proc = run_cli("phi", data_path("ex3_8_C"), "--bimodule", "dual",
                   "--degree", "1")
    report = json.loads(proc.stdout)
    assert report["results"]["surjective"] is True


def test_phi_surjective_first_example():
    proc = run_cli("phi", data_path("ex3_5_C"), "--bimodule", "dual",
                   "--degree", "1")
    report = json.loads(proc.stdout)
    assert report["results"]["rank"] == 1
    assert report["results"]["surjective"] is True


def test_phi_degree2_zero_matrix():
    proc = run_cli("phi", data_path("ex5_9_C"), "--bimodule", "ext:2",
                   "--degree", "2")
    report = json.loads(proc.stdout)
    rows = report["results"]["matrix"]
    assert all(x == "0" for row in rows for x in row)
    assert report["results"]["rank"] == 0


def test_relext_emits_algebra_file(tmp_path):
    proc = run_cli("relext", data_path("ex5_9_C"))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    results = report["results"]
    assert results["dim_B"] == 10
    assert results["new_arrows"] == [{"name": "rel0", "from": "3", "to": "1"}]
    rels = set(results["algebra_file"]["relations"])
    assert rels == {"rel0*alpha", "alpha*beta", "beta*rel0",
                    "rel0*gamma*rel0"}
    # round-trip: the emitted file rebuilds to the same dimensions
    emitted = tmp_path / "b.json"
    emitted.write_text(json.dumps(results["algebra_file"]))
    proc2 = run_cli("hh", str(emitted), "--max-degree", "2")
    report2 = json.loads(proc2.stdout)
    assert report2["results"]["algebra_dim"] == 10
    assert report2["results"]["dims"] == [2, 2, 2]


def test_relext_rejects_non_triangular():
    proc = run_cli("relext", data_path("ex3_5_C"))
    assert proc.returncode == 2
    assert "triangular" in proc.stderr


@pytest.mark.parametrize("args", [
    ("phi", "--degree", "-1"),
    ("hh", "--max-degree", "-1"),
])
def test_negative_degree_exits_2(args):
    command, *flags = args
    proc = run_cli(command, data_path("square"), *flags)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "negative degree -1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


def test_bad_relation_exits_2(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "field": "Q", "vertices": ["1"], "arrows": [],
        "relations": ["nope*nope"],
    }))
    proc = run_cli("hh", str(f))
    assert proc.returncode == 2


def _square_with(**changes):
    with open(data_path("square")) as fh:
        return dict(json.load(fh), **changes)


def _square_renamed(name):
    # arrow a renamed; the relation naming it is dropped
    data = _square_with(relations=["b*d"])
    data["arrows"] = [dict(a, name=name) if a["name"] == "a" else a
                      for a in data["arrows"]]
    return data


def _square_vertices(relabel):
    data = _square_with()
    data["vertices"] = [relabel(v) for v in data["vertices"]]
    data["arrows"] = [dict(a, **{"from": relabel(a["from"]),
                                 "to": relabel(a["to"])})
                      for a in data["arrows"]]
    return data


@pytest.mark.parametrize("data", [
    _square_with(field=7),
    _square_with(field=None),
    _square_with(relations=["a*c", 5]),
    _square_with(relations=["a*c", None]),
    _square_with(relations=["2/0*a*c"]),
    _square_renamed(7),
    _square_renamed(None),
    _square_with(vertices=["1", "2", "3", "4", None]),
    _square_with(vertices=["1", "2", "3", "4", 1.5]),
    _square_vertices(lambda v: v if v != "4" else 4),
    {"field": "Q", "vertices": [], "arrows": []},
], ids=["field 7", "field null", "relation 5", "relation null",
        "zero denominator", "arrow name 7", "arrow name null",
        "vertex null", "vertex 1.5", "mixed vertices", "no vertices"])
def test_malformed_algebra_file_exits_2(tmp_path, capsys, data):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    assert cli.main(["hh", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hh", "phi", "relext"])
def test_integer_vertices_are_accepted(tmp_path, capsys, command):
    f = tmp_path / "int.json"
    f.write_text(json.dumps(_square_vertices(int)))
    assert cli.main([command, str(f)]) == 0
    assert capsys.readouterr().out


_ZERO = [["0", "0"], ["0", "0"]]


def _ex3_8_bimodule_with(**changes):
    # zero action matrices of the right shapes over ex3_8_C (dim 7)
    return dict({"dimension": 2, "left": [_ZERO] * 7, "right": [_ZERO] * 7},
                **changes)


def _first_left(matrix):
    return _ex3_8_bimodule_with(left=[matrix] + [_ZERO] * 6)


@pytest.mark.parametrize("data", [
    _ex3_8_bimodule_with(left=5, right=5),
    _ex3_8_bimodule_with(dimension=2.0),
    _first_left(None),
    _first_left([5, ["0", "0"]]),
    _first_left([[None, "0"], ["0", "0"]]),
    _first_left([[["1"], "0"], ["0", "0"]]),
    _first_left([["1/0", "0"], ["0", "0"]]),
], ids=["left 5", "dimension 2.0", "null matrix", "int row", "null entry",
        "list entry", "zero denominator"])
def test_malformed_bimodule_file_exits_2(tmp_path, capsys, data):
    f = tmp_path / "b.json"
    f.write_text(json.dumps(data))
    assert cli.main(["hh", data_path("ex3_8_C"), "--module",
                     f"file:{f}"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [float, bool, "1e5", "1_0", " 3 ", "2.5"],
                         ids=["float", "bool", "1e5", "1_0", "spaced 3",
                              "2.5"])
def test_bimodule_file_with_inexact_entries_exits_2(tmp_path, capsys, entry):
    # the regular bimodule of ex3_8_C, its 0/1 entries written as JSON
    # floats or booleans, or its first entry as a string outside the
    # grammar of relation coefficients, is refused; with rational strings
    # it is read
    from hochschild.algebra import build_algebra
    from hochschild.bimodule import regular_bimodule
    algebra = build_algebra(algfile.load_bundled("ex3_8_C")[1])
    reg = regular_bimodule(algebra)
    assert {x for m in reg.left + reg.right for row in m.to_dense()
            for x in row} == {0, 1}

    def hh_with(convert):
        f = tmp_path / "regular.json"
        f.write_text(json.dumps({"dimension": reg.dim, **{
            side: [[[convert(x) for x in row] for row in m.to_dense()]
                   for m in mats]
            for side, mats in (("left", reg.left), ("right", reg.right))}}))
        return cli.main(["hh", data_path("ex3_8_C"), "--module", f"file:{f}"])

    assert hh_with(algebra.field.to_str) == 0
    assert json.loads(capsys.readouterr().out)["results"]["dims"] == [1, 2, 0]
    if isinstance(entry, str):
        first = iter([entry])
        assert hh_with(lambda x: next(first, algebra.field.to_str(x))) == 2
        assert f"error: bad action matrix entry: {entry!r}" in \
            capsys.readouterr().err
    else:
        assert hh_with(entry) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [5, ["a", "b"], [None]],
                         ids=["int", "too many", "null"])
def test_bimodule_file_with_bad_labels_exits_2(tmp_path, capsys, labels):
    # the regular bimodule of the one-vertex algebra; phi reads the labels
    alg = tmp_path / "point.json"
    alg.write_text(json.dumps({
        "field": "Q", "vertices": ["v"], "arrows": [], "relations": [],
    }))
    bim = tmp_path / "bim.json"
    bim.write_text(json.dumps({
        "dimension": 1, "left": [[["1"]]], "right": [[["1"]]],
        "labels": labels,
    }))
    assert cli.main(["phi", str(alg), "--bimodule", f"file:{bim}"]) == 2
    assert "labels" in capsys.readouterr().err


def test_non_admissible_presentation_exits_2(tmp_path):
    # k[x]/(x^2 - x^3) is k[x]/(x^2) x k, not admissible: refused
    f = tmp_path / "idempotent_quotient.json"
    f.write_text(json.dumps({
        "field": "Q", "vertices": ["v"],
        "arrows": [{"name": "x", "from": "v", "to": "v"}],
        "relations": ["x*x - x*x*x"],
    }))
    proc = run_cli("hh", str(f))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "not admissible" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


def test_cap_exceeded_exits_2():
    proc = run_cli("hh", data_path("ex3_5_C"), "--max-degree", "3",
                   "--cap", "100")
    assert proc.returncode == 2


def test_relext_takes_no_cap(capsys):
    # relext builds no cohomology, so --cap is an unknown option there
    with pytest.raises(SystemExit) as refused:
        cli.main(["relext", data_path("ex3_5_C"), "--cap", "5"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def test_bimodule_file_failing_an_axiom_exits_2(tmp_path):
    # the regular bimodule of ex3_8_C with one entry of the left action of
    # an arrow changed: well formed, but A (+) M is not associative
    from hochschild.algebra import build_algebra
    from hochschild.bimodule import regular_bimodule
    algebra = build_algebra(algfile.load_bundled("ex3_8_C")[1])
    reg = regular_bimodule(algebra)
    field = algebra.field
    arrow = algebra.radical_indices[0]
    sides = {side: [[[field.to_str(x) for x in row] for row in m.to_dense()]
                    for m in mats]
             for side, mats in (("left", reg.left), ("right", reg.right))}
    assert sides["left"][arrow][0][0] == "0"
    sides["left"][arrow][0][0] = "1"
    bim = tmp_path / "broken.json"
    bim.write_text(json.dumps({"dimension": reg.dim, **sides}))
    proc = run_cli("hh", data_path("ex3_8_C"), "--module", f"file:{bim}")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bimodule axioms fail in A (+) M")
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


def test_bimodule_file_module(tmp_path):
    # the regular bimodule of the one-vertex algebra, written by hand
    alg = tmp_path / "point.json"
    alg.write_text(json.dumps({
        "field": "Q", "vertices": ["v"], "arrows": [], "relations": [],
    }))
    bim = tmp_path / "bim.json"
    bim.write_text(json.dumps({
        "dimension": 1, "left": [[["1"]]], "right": [[["1"]]],
    }))
    proc = run_cli("hh", str(alg), "--module", f"file:{bim}",
                   "--max-degree", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["dims"] == [1, 0]


def test_non_graded_bimodule_file(tmp_path, capsys):
    # hh and phi regrade a bimodule file that is not Peirce-graded: the
    # regular module's dims and rank, and representatives that are bar
    # cocycles in the file's basis
    from hochschild.algebra import build_algebra
    from hochschild.cohomology import Cochain, bar_apply
    from conftest import twisted_regular
    alg_path = data_path("ex3_8_C")
    algebra = build_algebra(algfile.load_bundled("ex3_8_C")[1])
    field = algebra.field

    def rows(m):
        return [[field.to_str(x) for x in row] for row in m.to_dense()]

    twisted = twisted_regular(algebra)
    bim = tmp_path / "twisted.json"
    bim.write_text(json.dumps({"dimension": twisted.dim,
                               "left": [rows(m) for m in twisted.left],
                               "right": [rows(m) for m in twisted.right]}))
    module = algfile.load_bimodule_file(str(bim), algebra)
    assert not module.is_graded()

    def results(*argv):
        assert cli.main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)["results"]

    got = results("hh", alg_path, "--module", f"file:{bim}", "--reps")
    assert got["dims"] == results("hh", alg_path)["dims"] == [1, 2, 0]
    for n, reps in enumerate(got["representatives"]):
        assert len(reps) == got["dims"][n]
        for matrix in reps:
            data = {}
            for m, row in enumerate(matrix):
                for t, x in enumerate(row):
                    if field.of(x):
                        data.setdefault(t, {})[m] = field.of(x)
            rep = Cochain(algebra, module, n, data)
            assert not rep.is_zero()
            assert bar_apply(algebra, module, n, rep).is_zero()
    for n, want in [(1, (5, 2, 2)), (2, (3, 0, 0))]:
        got = [results("phi", alg_path, "--bimodule", selector,
                       "--degree", str(n)) for selector in (f"file:{bim}",
                                                           "regular")]
        assert [(r["dim_source"], r["dim_target"], r["rank"])
                for r in got] == [want, want]


def test_verify_paper_single_block():
    proc = run_cli("verify-paper", "--only", "ex3.5")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert [b["name"] for b in report["results"]["blocks"]] == ["ex3_5"]


def test_verify_paper_verbose_times_every_block():
    # block and check times go to stderr; stdout is the canonical report
    from test_acceptance import VERIFY_PAPER_SHA256
    from hochschild.verification import BLOCK_NAMES
    proc = subprocess.run(
        [sys.executable, "-m", "hochschild.cli", "verify-paper", "--verbose"],
        capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_PAPER_SHA256
    assert json.loads(proc.stdout)["timing"] is None
    stderr = proc.stderr.decode()
    blocks = re.findall(r"^block (\w+): \d+\.\d{3}s$", stderr, re.M)
    assert blocks == BLOCK_NAMES
    checks = re.findall(r"^\[(?:pass|FAIL)\] (\w+): .* \(\d+\.\d{3}s\)$",
                        stderr, re.M)
    report = json.loads(proc.stdout)["results"]["blocks"]
    assert checks == [b["name"] for b in report for _ in b["checks"]]


HH_REPS_EX3_5_B_DUAL_SHA256 = (
    "e1849704044a707226623b9ecbe734f25f16f9843475628d38e9edccbc666dc8")


def test_hh_reps_stdout_is_pinned():
    # the representatives are canonical output: a change of their basis
    # must update this hash deliberately and say so in CHANGES.md
    proc = subprocess.run(
        [sys.executable, "-m", "hochschild.cli", "hh", data_path("ex3_5_B"),
         "--module", "dual", "--max-degree", "2", "--reps"],
        capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        HH_REPS_EX3_5_B_DUAL_SHA256
    assert json.loads(proc.stdout)["results"]["dims"] == [3, 4, 6]


RELEXT_SHA256 = {
    "ex5_9_C":
        "4dccbbe27e2fbdb6ebb367c423ea0c709db4ed9019b9a3e64fc626f5018a0424",
    "square":
        "40bbc732d3f278e92c5a29a0d2e70e522ff77fd33fd601b91391ed21b7766b95",
    "ex3_8_C":
        "3dadd66733d71e9c7a074bcd9fcbe035a93f765d5dd8b8b69fad2dfb6dc226c5",
}


@pytest.mark.parametrize("name", sorted(RELEXT_SHA256))
def test_relext_stdout_is_pinned(name):
    # the relations, the implied square generators and the emitted file
    # are canonical output: a change must update this hash deliberately
    # and say so in CHANGES.md
    proc = subprocess.run(
        [sys.executable, "-m", "hochschild.cli", "relext", data_path(name)],
        capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == RELEXT_SHA256[name]


def test_verify_paper_unknown_block():
    proc = run_cli("verify-paper", "--only", "nonsense")
    assert proc.returncode == 2


def _canonical(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    *[["hh", name, "--reps", "--max-degree", "2"] for name in BUNDLED],
    *[["phi", name, "--degree", "1"] for name in BUNDLED],
    ["phi", "ex3_5_C", "--degree", "2", "--bimodule", "regular"],
], ids=" ".join)
def test_canonical_json_independent_of_scalar_type(argv, capsys, monkeypatch):
    argv = [argv[0], data_path(argv[1]), *argv[2:]]
    held_as_ints = _canonical(argv, capsys)
    frac_q = FractionRationals()
    monkeypatch.setattr(algfile, "field_from_tag",
                        lambda tag: frac_q if tag == "Q" else field_from_tag(tag))
    held_as_fractions = _canonical(argv, capsys)
    assert held_as_fractions == held_as_ints


def test_verify_paper_identities_block_alone():
    # the identities block builds the extensions it shares with earlier
    # blocks itself when it runs alone
    proc = run_cli("verify-paper", "--only", "identities")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    (block,) = report["results"]["blocks"]
    assert block["name"] == "identities" and block["pass"]
