"""Odds and ends: prime-field probing, invariant identities, degenerate
preconditions."""

import pytest

from hochschild.algebra import build_algebra, center_basis
from hochschild.bimodule import (
    dual_bimodule, hom_bimodule, regular_bimodule, zero_bimodule,
)
from hochschild.cohomology import hh
from hochschild.extension import check_growth_bound, trivial_extension
from hochschild.linalg import PrimeField
from hochschild.quiver import Presentation, Quiver, parse_relation

from conftest import (
    certified_extension_algebra, check_split_conditions,
    nakayama_c_presentation, peirce_matvec_tags, twisted_regular,
)


def test_prime_field_probe_matches_rationals():
    # dimensions over F5 agree with Q here; a cheap probe before exact runs
    q = Quiver(["0", "1"], [("alpha0", "0", "1"), ("alpha1", "1", "0")])
    f5 = PrimeField(5)
    rels = [parse_relation(s, q, f5) for s in ("alpha0*alpha1", "alpha1*alpha0")]
    mod_alg = build_algebra(Presentation(q, f5, rels))
    rat_alg = build_algebra(nakayama_c_presentation())
    assert mod_alg.dim == rat_alg.dim == 4
    for n in (0, 1, 2):
        assert hh(mod_alg, regular_bimodule(mod_alg), n).dim == \
            hh(rat_alg, regular_bimodule(rat_alg), n).dim


def test_hom_from_regular_is_invariants(nakayama_c):
    # Hom_{C-C}(C, X) has the dimension of {x : cx = xc for all c}
    C = nakayama_c
    reg = regular_bimodule(C)
    for X in (reg, dual_bimodule(C)):
        homs = hom_bimodule(reg, X)
        from hochschild.linalg import Mat, kernel_basis_sparse
        field = C.field
        cols = {}
        for m in range(X.dim):
            col = {}
            vec = {m: field.one}
            for c in range(C.dim):
                diff = dict(X.left[c].matvec(vec))
                from hochschild.linalg import axpy
                axpy(field, diff, field.of(-1), X.right[c].matvec(vec))
                for r, v in diff.items():
                    col[c * X.dim + r] = v
            if col:
                cols[m] = col
        invariants = kernel_basis_sparse(
            Mat(C.dim * X.dim, X.dim, field, cols))
        assert len(homs) == len(invariants)


def test_growth_bound_requires_nonzero_bimodule(nakayama_c):
    ext = trivial_extension(nakayama_c, zero_bimodule(nakayama_c))
    with pytest.raises(ValueError):
        check_growth_bound(ext)


def test_center_is_hh0(triangle_b):
    reg = regular_bimodule(triangle_b)
    assert len(center_basis(triangle_b)) == hh(triangle_b, reg, 0).dim


def test_hh0_of_dual_counts_symmetric_functionals(nakayama_c):
    # hh^0(C, DC) = functionals vanishing on commutators = dual of C/[C,C]
    C = nakayama_c
    dc = dual_bimodule(C)
    space = hh(C, dc, 0)
    from hochschild.linalg import QQ, axpy, echelon_basis
    commutators = []
    for i in range(C.dim):
        for j in range(C.dim):
            vec = dict(C.structure.get((i, j), {}))
            axpy(QQ, vec, QQ.of(-1), C.structure.get((j, i), {}))
            if vec:
                commutators.append(vec)
    commutator_dim = len(echelon_basis(commutators, QQ))
    assert space.dim == C.dim - commutator_dim == 2
    # and every representative really is annihilated by b^1
    from hochschild.cohomology import bar_differential
    b1 = bar_differential(C, dc, 0)
    for rep in space.representatives:
        assert b1.matvec(rep.vec()) == {}


def test_non_graded_bimodule_is_regraded(nakayama_c):
    # conjugating the regular actions by a block-mixing change of basis
    # destroys the Peirce grading; hh works on the graded twin and must
    # give the regular dims, with representatives in the twisted basis
    from hochschild.bimodule import Bimodule
    from hochschild.cohomology import bar_apply
    from hochschild.linalg import Mat, QQ
    C = nakayama_c
    reg = regular_bimodule(C)
    n = C.dim
    s_entries = {(i, i): 1 for i in range(n)}
    s_entries[(0, 3)] = 1  # mix an idempotent with an arrow coordinate
    S = Mat.from_entries(n, n, QQ, s_entries)
    s_inv_entries = {(i, i): 1 for i in range(n)}
    s_inv_entries[(0, 3)] = -1
    S_inv = Mat.from_entries(n, n, QQ, s_inv_entries)
    assert S.matmul(S_inv) == Mat.identity(n, QQ)
    left = [S_inv.matmul(reg.left[i]).matmul(S) for i in range(n)]
    right = [S_inv.matmul(reg.right[i]).matmul(S) for i in range(n)]
    twisted = Bimodule(C, n, left, right)
    assert not twisted.is_graded()
    for degree in range(4):
        space = hh(C, twisted, degree)
        assert space.dim == hh(C, reg, degree).dim
        for j, rep in enumerate(space.representatives):
            assert rep.module is twisted
            assert bar_apply(C, twisted, degree, rep).is_zero()
            assert space.class_coords(rep) == tuple(
                QQ.one if k == j else QQ.zero for k in range(space.dim))


def test_corrupted_bundle_fails_with_named_checks(monkeypatch):
    # damaging a bundled relation makes the suite fail loudly, naming the
    # checks that broke
    import hochschild.verification as verification
    from hochschild.algfile import load_bundled

    def corrupted(name):
        data, pres = load_bundled(name)
        if name == "ex3_5_C":
            import copy
            data = copy.deepcopy(data)
            data["relations"] = ["alpha0*alpha1"]  # drop one relation
            from hochschild.algfile import parse_algebra_file
            pres = parse_algebra_file(data)
        return data, pres

    monkeypatch.setattr(verification, "load_bundled", corrupted)
    report = verification.run_blocks(only="ex3_5")
    assert report["pass"] is False
    failing = [c["name"] for b in report["blocks"] for c in b["checks"]
               if not c["pass"]]
    assert failing


def _fail_deep(suite):
    raise ZeroDivisionError("no pivot")


def test_raising_block_names_where_it_raised(monkeypatch):
    # the error names the innermost frame, so a crash deep in the library
    # points at the line that raised, not at the block
    import hochschild.verification as verification
    line = _fail_deep.__code__.co_firstlineno + 1
    monkeypatch.setitem(verification.BLOCKS, "ex3_5",
                        lambda suite: _fail_deep(suite))
    report = verification.run_blocks(only="ex3_5")
    assert report["pass"] is False
    (block,) = report["blocks"]
    (check,) = block["checks"]
    assert check["name"] == "block ex3_5 raised ZeroDivisionError"
    assert check["error"] == f"test_misc_properties.py:{line}: no pivot"


def test_one_run_builds_each_extension_once(instrumented_run):
    # the trivial extensions of the corpus are built once, in the
    # surjectivity block (dual, regular, E_0..E_2 where nonzero) and the
    # relext block (E_2 of ex5_9_C, which the surjectivity block reuses);
    # the two presented extensions, rebuilt as C (+) ker p, are built in
    # the ex3_5 and ex3_8 blocks; the identities block reads those same
    # objects
    run = instrumented_run
    built = run.extensions
    assert run.report["pass"]
    assert sum(len(exts) for exts in built.values()) == 26
    assert "identities" not in built
    ids = {block: {id(ext) for ext in exts} for block, exts in built.items()}
    # the identities run over the two presented extensions and 13 trivial
    # ones: the 12 dual and regular ones of the surjectivity block and the
    # E_2 one of the relext block
    used = set(run.chained)
    assert len(used) == 15
    assert len(used & ids["ex3_5"]) == 1
    assert len(used & ids["ex3_8"]) == 1
    assert len(used & ids["surjectivity"]) == 12
    assert len(used & ids["relext"]) == 1


def test_every_extension_of_a_run_holds_by_its_layout(instrumented_run):
    # SplitExtensionData checks neither B nor its maps: on every extension
    # a run builds, the dim-43 one among them, B passes the algebra
    # certificate of its own, with no size limit, and p, q and i meet the
    # conditions the layout gives them
    exts = [ext for built in instrumented_run.extensions.values()
            for ext in built]
    assert len(exts) == 26
    assert max(ext.B.dim for ext in exts) == 43
    for ext in exts:
        assert certified_extension_algebra(ext.C, ext.E).structure == \
            ext.B.structure
        check_split_conditions(ext)


def test_one_run_builds_each_resolution_once(instrumented_run):
    # the relext and oracles blocks both compare the resolution route on
    # ex5_9_C; both read the resolution kept on the algebra, so a run
    # builds one per algebra: the four monomial corpus members and the
    # relation extension B
    built = instrumented_run.resolutions
    assert instrumented_run.report["pass"]
    assert len(built) == 5
    assert len({id(alg) for alg in built}) == 5


def test_one_run_builds_each_resolution_space_once(instrumented_run):
    # the relext and oracles blocks both ask ex5_9_C for hh^0..hh^2 by
    # the resolution route; the second block reads the spaces kept on its
    # resolution, so 18 requests build 15 spaces
    built, asked = instrumented_run.spaces, instrumented_run.asked
    assert instrumented_run.report["pass"]
    assert len(asked) == 18
    assert len(built) == 15
    assert set(built) == set(asked)


def test_peirce_tags_match_the_matvec_rule(instrumented_run, triangle_b):
    # Bimodule._peirce_tags reads the columns of the idempotent actions;
    # on every bimodule of a run it must tag as applying them to the unit
    # vector does
    seen = instrumented_run.peirce
    assert instrumented_run.report["pass"]
    assert len(seen) > 50
    assert all(tags == want for tags, want in seen)
    # and on a module that is not Peirce-graded, which a run has none of
    module = twisted_regular(triangle_b)
    assert None in module.peirce
    assert module.peirce == peirce_matvec_tags(module)


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps these by name, a method through its
    # class's own __dict__; a deletion or rename must not silently drop
    # a layer from the trace
    import importlib
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t[:2] for t in spans.TARGETS] + list(spans.CHECKPOINTS)
    for module, attr in targets:
        owner = importlib.import_module(f"hochschild.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (module, attr)
        else:
            assert callable(getattr(owner, attr)), (module, attr)
    verification = importlib.import_module("hochschild.verification")
    assert set(spans.BLOCK_NAMES) <= set(verification.BLOCKS)
