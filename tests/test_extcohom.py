import functools
from fractions import Fraction

import pytest

from hochschild.algebra import build_algebra
from hochschild.bimodule import (
    dual_bimodule, hom_bimodule, is_symmetric_over_center, regular_bimodule,
)
from hochschild.cohomology import (
    CapExceeded, _normalized_complex, bar_differential, hh,
)
from hochschild.extcohom import (
    DerivationAction, _ext_coefficients, ambient_dim, ambient_index,
    check_chain_map, check_projection1_surjective_for_ext, ext_dual_bimodule,
)
from hochschild.extension import (
    check_surjectivity_witness, trivial_extension, zero_pairing_morphisms,
)
from hochschild.linalg import QQ, Mat
from hochschild.quiver import Presentation, Quiver

from conftest import (
    PRESENTATIONS, differential_on_rows, nakayama_b_presentation,
)


def one_point():
    return build_algebra(Presentation(Quiver(["pt"], []), relations=[]))


def test_ext0_of_field_is_one_dimensional():
    k = one_point()
    assert ext_dual_bimodule(k, 0).dim == 1


def test_ext2_of_triangle_is_four_dimensional(triangle_c):
    e2 = ext_dual_bimodule(triangle_c, 2)
    assert e2.dim == 4
    assert e2.is_graded()


def test_ext2_of_hereditary_vanishes(kite_c):
    # global dimension one: the degree-2 group dies (rank computation)
    assert ext_dual_bimodule(kite_c, 2).dim == 0


def test_ext_bimodule_actions_are_certified(triangle_c):
    # construction already certifies the bimodule axioms; spot-check symmetry
    e2 = ext_dual_bimodule(triangle_c, 2)
    assert is_symmetric_over_center(e2)


@pytest.mark.parametrize("name", ["nakayama_c", "triangle_c", "kite_c"])
def test_ext_complex_matches_dual_complex_in_degree0(corpus, name):
    # E_0 = Hom_C(DC, C) as right modules: compare with a direct count of
    # the linear maps g with g(f.c) = g(f).c on all basis pairs
    C = corpus[name]
    e0 = ext_dual_bimodule(C, 0)
    dc = dual_bimodule(C)
    from hochschild.linalg import Mat, kernel_basis_sparse
    field = C.field
    d = C.dim
    cols = {}
    for a in range(d):          # dual-basis input
        for b in range(d):      # output coordinate of g
            col = {}
            for c in range(d):
                # sum_t (f.c)_t g(t) - g(f).c, at input f = g_a, row rho
                for s in range(d):
                    v = dc.right[c].entry(a, s)
                    if v:
                        key = (s * d + c) * d + b
                        w = field.add(col.get(key, field.zero), v)
                        if w:
                            col[key] = w
                        elif key in col:
                            del col[key]
                for rho, v in C.structure.get((b, c), {}).items():
                    key = (a * d + c) * d + rho
                    w = field.sub(col.get(key, field.zero), v)
                    if w:
                        col[key] = w
                    elif key in col:
                        del col[key]
            if col:
                cols[a * d + b] = col
    m = Mat(d * d * d, d * d, field, cols)
    assert e0.dim == len(kernel_basis_sparse(m))
    # the self-injective two-cycle algebra has DC = C as right modules
    if name == "nakayama_c":
        assert e0.dim == 4


def test_actions_commute_with_differential_on_basis(triangle_c):
    # well-definedness: each action maps cocycles to cocycles (certified in
    # construction) and commutes with the differential on the whole space.
    # N^3 = 0 for triangle_c, so degree 2 alone would compare zero maps;
    # degrees 0 and 1 are where the check bites
    from hochschild.linalg import Mat
    nc = ext_dual_bimodule(triangle_c, 2).space.complex
    C = triangle_c
    field = C.field
    d = C.dim

    def flat_key(chain, uv):
        # the bar coordinate tensor_index * dim M + m, dim M = d * d
        t = 0
        for s in chain:
            t = t * d + s
        return t * d * d + uv

    def act_matrix(basis, posmap, c, side):
        # the basis vector (chain, u*d + v) is g_u (x) chain -> b_v
        cols = {}
        for k, (chain, uv) in enumerate(basis):
            u, v = divmod(uv, d)
            col = {}
            prod = C.structure.get((c, v)) if side == "left" \
                else C.structure.get((u, c))
            if not prod:
                continue
            for w, coeff in prod.items():
                key = posmap.get(flat_key(chain, u * d + w) if side == "left"
                                 else flat_key(chain, w * d + v))
                if key is not None:
                    col[key] = coeff
            if col:
                cols[k] = col
        return Mat(len(basis), len(basis), field, cols)

    acting = 0
    for n in range(3):
        dn = differential_on_rows(nc, n)
        for c in range(C.dim):
            for side in ("left", "right"):
                an = act_matrix(*nc.basis(n), c, side)
                an1 = act_matrix(*nc.basis(n + 1), c, side)
                assert dn.matmul(an) == an1.matmul(dn)
                acting += not dn.matmul(an).is_zero()
    # the keys are found: the check is not on zero matrices alone
    assert acting


def test_dual_action_relations(nakayama_c, triangle_c):
    # c.(f o z) = (c.f) o z + z(c).f and its mirror, on all basis pairs;
    # composing with z acts on dual coordinates as the transpose of z
    for C in (nakayama_c, triangle_c):
        reg = regular_bimodule(C)
        dc = dual_bimodule(C)
        for zeta in hh(C, reg, 1).representatives:
            zt = zeta.matrix().transpose()
            for c in range(C.dim):
                zc = zeta.value((c,))
                assert dc.left[c].matmul(zt) == \
                    zt.matmul(dc.left[c]).add(dc.left_of(zc))
                assert dc.right[c].matmul(zt) == \
                    zt.matmul(dc.right[c]).add(dc.right_of(zc))


def test_derivation_action_zero_derivation(triangle_c):
    from hochschild.cohomology import Cochain
    zeta = Cochain(triangle_c, regular_bimodule(triangle_c), 1)
    act = DerivationAction(triangle_c, 2, zeta)
    assert act.induced.is_zero()


def test_derivation_action_inner(nakayama_c):
    # an inner derivation by a diagonal element is admissible input;
    # the induced map is recorded, not asserted to vanish
    from hochschild.cohomology import Cochain
    reg = regular_bimodule(nakayama_c)
    b1 = bar_differential(nakayama_c, reg, 0)
    inner = Cochain.from_vec(nakayama_c, reg, 1,
                             b1.matvec({0: QQ.one}))
    act = DerivationAction(nakayama_c, 1, inner)
    assert act.induced.rows == ext_dual_bimodule(nakayama_c, 1).dim


def brute_force_action(C, m, zeta, key):
    """al_m on the ambient unit vector at key: the key decoded into
    (slots, u, v), each term substituted and re-encoded by ambient_index."""
    field = C.field
    d = C.dim
    rest, v = divmod(key, d)
    rest, u = divmod(rest, d)
    slots = []
    for _ in range(m):
        rest, s = divmod(rest, d)
        slots.append(s)
    slots.reverse()
    z = [zeta.value((i,)) for i in range(d)]
    out = {}

    def add(at, c):
        out[at] = field.add(out.get(at, field.zero), c)

    # th(f (x) .. z(a_j) ..): b_x in slot j hits th's slot value with
    # coefficient z(x)_{slots[j]}
    for j in range(m):
        for x in range(d):
            c = z[x].get(slots[j])
            if c:
                add(ambient_index(C, u, slots[:j] + [x] + slots[j + 1:], v),
                    c)
    # - th(f o z (x) a): g_w o z = sum_x z(x)_w g_x
    for w in range(d):
        c = z[u].get(w)
        if c:
            add(ambient_index(C, w, slots, v), field.neg(c))
    # - z(th(f (x) a))
    for w, c in z[v].items():
        add(ambient_index(C, u, slots, w), field.neg(c))
    return {at: c for at, c in out.items() if c}


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("name", ["nakayama_c", "kite_c", "triangle_c",
                                  "square"])
def test_ambient_apply_matches_brute_force(corpus, name, m):
    C = corpus[name]
    reps = hh(C, regular_bimodule(C), 1).representatives
    for zeta in reps + [reps[0].scaled(Fraction(2, 3))]:
        action = DerivationAction(C, m, zeta)
        for key in range(ambient_dim(C, m)):
            assert action.ambient_apply({key: C.field.one}) == \
                brute_force_action(C, m, zeta, key)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("name", PRESENTATIONS)
def test_action_is_a_chain_map_on_the_ext_complex(corpus, name, m):
    # D_m A_m == A_{m+1} D_m on the normalized complex, exactly
    C = corpus[name]
    D = differential_on_rows(_normalized_complex(C, _ext_coefficients(C)), m)
    for zeta in hh(C, regular_bimodule(C), 1).representatives:
        A_m = DerivationAction(C, m, zeta).normalized_matrix
        A_m1 = DerivationAction(C, m + 1, zeta).normalized_matrix
        assert D.matmul(A_m) == A_m1.matmul(D)


@pytest.mark.parametrize("name,m", [
    ("nakayama_c", 0), ("triangle_c", 0), ("triangle_c", 1),
])
def test_chain_map_full_basis(corpus, name, m):
    C = corpus[name]
    reg = regular_bimodule(C)
    H1 = hh(C, reg, 1)
    for zeta in H1.representatives:
        report = check_chain_map(C, m, zeta)
        assert report["holds"]
        assert report["mode"] == "full"


def test_chain_map_random_mode(kite_b):
    reg = regular_bimodule(kite_b)
    H1 = hh(kite_b, reg, 1)
    zeta = H1.representatives[0]
    report = check_chain_map(kite_b, 2, zeta, trials=5, ambient_limit=100)
    assert report["holds"]
    assert report["mode"] == "random"


def test_chain_map_shares_the_ambient_columns(monkeypatch):
    # full mode evaluates the ambient differential on each unit vector
    # once per (C, m): every further derivation reuses those columns
    from hochschild import extcohom
    C = build_algebra(nakayama_b_presentation())
    zetas = hh(C, regular_bimodule(C), 1).representatives[:2]
    assert len(zetas) == 2
    calls = []
    real = extcohom.ambient_differential_apply
    monkeypatch.setattr(extcohom, "ambient_differential_apply",
                        lambda *args: calls.append(args) or real(*args))
    for zeta in zetas:
        report = check_chain_map(C, 1, zeta)
        assert report == {"holds": True, "mode": "full",
                          "checked": ambient_dim(C, 1)}
    assert len(calls) == ambient_dim(C, 1)
    assert all(m == 1 and len(vec) == 1 for _, m, vec in calls)


def test_chain_map_check_can_fail(monkeypatch):
    # a wrong ambient column, or a derivation action that drops a term,
    # must make the full-mode check report False
    from hochschild import extcohom
    C = build_algebra(nakayama_b_presentation())
    zeta = hh(C, regular_bimodule(C), 1).representatives[0]
    m = 0
    assert check_chain_map(C, m, zeta)["holds"]
    # column k gains e_r, where al_m(e_k) has no e_k term and al_{m+1}(e_r)
    # is nonzero: at k the right side moves and the left side does not
    al_m = DerivationAction(C, m, zeta)
    al_m1 = DerivationAction(C, m + 1, zeta)
    k = next(k for k in range(ambient_dim(C, m))
             if k not in al_m.ambient_apply({k: 1}))
    r = next(r for r in range(ambient_dim(C, m + 1))
             if al_m1.ambient_apply({r: 1}))
    good = extcohom._ambient_differential(C, m)
    cols = {j: dict(col) for j, col in good.columns_items()}
    cols.setdefault(k, {})[r] = cols.get(k, {}).get(r, 0) + 1
    C._ambient_differentials[m] = Mat(good.rows, good.cols, C.field, cols)
    assert check_chain_map(C, m, zeta) == {"holds": False, "mode": "full",
                                           "checked": k}
    C._ambient_differentials[m] = good
    assert check_chain_map(C, m, zeta)["holds"]
    # al_{m+1} losing its first term
    real = DerivationAction.ambient_apply

    def dropping(self, vec):
        out = real(self, vec)
        if self.m == m + 1 and out:
            del out[next(iter(out))]
        return out

    monkeypatch.setattr(DerivationAction, "ambient_apply", dropping)
    assert not check_chain_map(C, m, zeta)["holds"]


def test_chain_map_builds_no_ext_work(monkeypatch):
    # the check reads only ambient_apply: no E_m, and no matrix of the
    # action on the Ext complex, is built for it
    from hochschild import extcohom
    C = build_algebra(nakayama_b_presentation())
    zeta = hh(C, regular_bimodule(C), 1).representatives[0]
    calls = []
    real_ext = extcohom.ext_dual_bimodule
    real_matrix = DerivationAction.normalized_matrix.func
    matrix = functools.cached_property(
        lambda self: calls.append(self) or real_matrix(self))
    matrix.__set_name__(DerivationAction, "normalized_matrix")
    monkeypatch.setattr(extcohom, "ext_dual_bimodule",
                        lambda *args: calls.append(args) or real_ext(*args))
    monkeypatch.setattr(DerivationAction, "normalized_matrix", matrix)
    for m in (0, 1):
        assert check_chain_map(C, m, zeta)["holds"]
    assert calls == []
    assert getattr(C, "_ext_bimodules", {}) == {}
    # read on demand, the induced matrix is still there
    assert DerivationAction(C, 1, zeta).induced.rows == \
        real_ext(C, 1).dim
    assert calls


def test_witness_satisfies_conditions_triangle(triangle_c):
    C = triangle_c
    E2 = ext_dual_bimodule(C, 2)
    ext = trivial_extension(C, E2)
    for zeta in hh(C, regular_bimodule(C), 1).representatives:
        act = DerivationAction(C, 2, zeta)
        report = check_surjectivity_witness(ext, 1, zeta, act.induced)
        assert report["c1"] and report["c2"] and report["pass"]


@pytest.mark.parametrize("name,m,flags", [
    ("triangle_c", 2, (False, False, True)),
    ("square", 2, (True, False, True)),
    ("nakayama_c", 0, (False, False, True)),
])
def test_doubled_witness_fails(corpus, name, m, flags):
    # twice the induced action breaks the conditions wherever it is nonzero;
    # expected flags as the hand-written vertical differential gave them
    C = corpus[name]
    E = ext_dual_bimodule(C, m)
    ext = trivial_extension(C, E)
    zeta = hh(C, regular_bimodule(C), 1).representative(0)
    act = DerivationAction(C, m, zeta)
    assert not act.induced.is_zero()
    report = check_surjectivity_witness(ext, 1, zeta,
                                        act.induced.scaled(QQ.of(2)))
    assert (report["c1"], report["c2"], report["c3"]) == flags
    assert not report["pass"]


@pytest.mark.parametrize("name,m", [
    ("triangle_c", 2), ("kite_c", 2), ("nakayama_c", 1), ("square", 2),
])
def test_phi1_surjective_for_ext_coefficients(corpus, name, m):
    report = check_projection1_surjective_for_ext(corpus[name], m)
    assert report["pass"]
    assert report["surjective"]


def test_phi1_for_hereditary_ext2_is_trivial(kite_c):
    report = check_projection1_surjective_for_ext(kite_c, 2)
    assert report["pass"]
    assert report["dim_E"] == 0


@pytest.mark.parametrize("name,m", [("square", 2), ("kite_c", 2)])
def test_phi1_witness_takes_the_callers_extension(corpus, name, m):
    # the extension is asked for only when E_m != 0, and the report is
    # the one the check builds for itself
    C = corpus[name]
    E = ext_dual_bimodule(C, m)
    asked = []

    def extension():
        asked.append(m)
        return trivial_extension(C, E)

    report = check_projection1_surjective_for_ext(C, m, extension)
    assert asked == ([m] if E.dim else [])
    assert report == check_projection1_surjective_for_ext(C, m)


def test_suite_keeps_the_extensions_a_later_block_reads():
    from hochschild.verification import Suite
    suite = Suite()
    for kind in ("dual", "regular", "E_2"):
        assert suite.extension("ex5_9_C", kind) is \
            suite.extension("ex5_9_C", kind)
    for kind in Suite.UNKEPT:
        ext = suite.extension("ex5_9_C", kind)
        assert ext.E is ext_dual_bimodule(ext.C, int(kind[2:]))
        assert suite.extension("ex5_9_C", kind) is not ext


def test_zero_pairing_vanishes_for_triangular_e2(corpus):
    for name in ("triangle_c", "kite_c", "square"):
        C = corpus[name]
        e2 = ext_dual_bimodule(C, 2)
        if e2.dim:
            assert zero_pairing_morphisms(e2) == []


def test_end_of_triangle_e2_is_one_dimensional(triangle_c):
    e2 = ext_dual_bimodule(triangle_c, 2)
    assert len(hom_bimodule(e2, e2)) == 1


def test_hh1_of_c_with_e2_coefficients_vanishes(triangle_c):
    e2 = ext_dual_bimodule(triangle_c, 2)
    assert hh(triangle_c, e2, 1).dim == 0


def test_hh1_of_b_with_e2_coefficients(triangle_c):
    e2 = ext_dual_bimodule(triangle_c, 2)
    ext = trivial_extension(triangle_c, e2)
    assert hh(ext.B, ext.E_as_B_bimodule(), 1).dim == 1


def test_degree_cap():
    k = one_point()
    with pytest.raises(CapExceeded):
        ext_dual_bimodule(k, 5)


def full_ambient_ext_dim(C, m):
    """Brute-force E_m from the full ambient complex, rank counting only."""
    from hochschild.extcohom import ambient_differential_apply, ambient_dim
    from hochschild.linalg import Mat, rank
    field = C.field

    def matrix(deg):
        cols = {}
        for idx in range(ambient_dim(C, deg)):
            col = ambient_differential_apply(C, deg, {idx: field.one})
            if col:
                cols[idx] = col
        return Mat(ambient_dim(C, deg + 1), ambient_dim(C, deg), field, cols)

    d_m = matrix(m)
    kernel_dim = d_m.cols - rank(d_m)
    if m == 0:
        return kernel_dim
    return kernel_dim - rank(matrix(m - 1))


@pytest.mark.parametrize("name,m", [
    ("nakayama_c", 0), ("nakayama_c", 1),
    ("triangle_c", 0), ("triangle_c", 1), ("triangle_c", 2),
])
def test_reduced_ext_matches_full_ambient(corpus, name, m):
    C = corpus[name]
    assert ext_dual_bimodule(C, m).dim == full_ambient_ext_dim(C, m)


def test_new_arrow_ideal_isomorphic_to_ext2(triangle_c, triangle_b):
    # beyond dimensions: the ideal generated by the new arrow inside the
    # relation extension is isomorphic to Ext^2(DC, C) as a bimodule
    from hochschild.algebra import algebra_morphism
    from hochschild.bimodule import (bimodules_isomorphic, pullback_bimodule,
                                     regular_bimodule, sub_bimodule)
    from hochschild.linalg import kernel_basis_sparse
    C, B = triangle_c, triangle_b
    cq, bq = C.presentation.quiver, B.presentation.quiver
    p = algebra_morphism(B, C, {
        "alpha": C.element_from_path(cq.path("alpha")),
        "beta": C.element_from_path(cq.path("beta")),
        "gamma": C.element_from_path(cq.path("gamma")),
        "delta": C.element({}),
    })
    q = algebra_morphism(C, B, {
        "alpha": B.element_from_path(bq.path("alpha")),
        "beta": B.element_from_path(bq.path("beta")),
        "gamma": B.element_from_path(bq.path("gamma")),
    })
    kernel = kernel_basis_sparse(p)
    ambient = pullback_bimodule(C, q, regular_bimodule(B), check=False)
    new_arrow_ideal = sub_bimodule(ambient, kernel)
    e2 = ext_dual_bimodule(C, 2)
    verdict = bimodules_isomorphic(new_arrow_ideal, e2)
    assert verdict.verdict == "yes"
