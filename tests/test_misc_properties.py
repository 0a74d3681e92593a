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

from conftest import nakayama_c_presentation


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
