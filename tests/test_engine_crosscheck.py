"""The normalized-subcomplex engine against the literal full bar complex.

For small algebras the full tensor-space kernel is affordable, so the
dimensions the engine reads off normalized cochains (in every degree, on
Peirce-graded data) are recomputed from the raw differential matrices by
rank counting.
"""

import random

import pytest

from hochschild.algebra import build_algebra
from hochschild.algfile import BUNDLED, load_bundled, parse_algebra_file
from hochschild.bimodule import Bimodule, dual_bimodule, regular_bimodule
import hochschild
from hochschild import cohomology, extcohom, linalg, minres
from hochschild.cohomology import (
    Cochain, CohomologySpace, NormalizedComplex, _normalized_complex,
    bar_apply, bar_differential, hh, hh1_via_derivations, random_cochain,
)
from hochschild.extcohom import (
    _ambient_differential, _ext_coefficients, ambient_differential_apply,
    ext_dual_bimodule,
)
from hochschild.extension import projection_morphism, trivial_extension
from hochschild.linalg import Mat, kernel_basis_sparse, quotient_basis, rank

from conftest import (
    PRESENTATIONS, differential_on_rows, reference_normalized_differential,
    twisted_regular,
)


def bar_reference(alg, module, n):
    """hh^n of the literal bar complex, sharing no code with the normalized
    complex: (dim from the ranks, representative vectors of kernel modulo
    image)."""
    nxt = bar_differential(alg, module, n)
    prev = bar_differential(alg, module, n - 1) if n else None
    dim = nxt.cols - rank(nxt) - (rank(prev) if n else 0)
    boundaries = [c for _, c in prev.columns_items()] if n else []
    reps, _ = quotient_basis(alg.field, kernel_basis_sparse(nxt), boundaries)
    return dim, reps


@pytest.mark.parametrize("name,degree", [
    ("nakayama_c", 2), ("nakayama_c", 3),
    ("triangle_c", 2), ("triangle_c", 3),
])
def test_normalized_matches_full_regular(corpus, name, degree):
    alg = corpus[name]
    reg = regular_bimodule(alg)
    space = hh(alg, reg, degree)
    assert space.backend == "normalized"
    assert space.dim == bar_reference(alg, reg, degree)[0]


@pytest.mark.parametrize("name", ["nakayama_c", "triangle_c"])
def test_normalized_matches_full_dual_coefficients(corpus, name):
    alg = corpus[name]
    dc = dual_bimodule(alg)
    space = hh(alg, dc, 2)
    assert space.backend == "normalized"
    assert space.dim == bar_reference(alg, dc, 2)[0]


def test_normalized_class_membership_matches_full(corpus):
    # a degree-2 cocycle is a coboundary in the normalized sense exactly
    # when it lies in the image of the full differential
    alg = corpus["nakayama_c"]
    reg = regular_bimodule(alg)
    space = hh(alg, reg, 2)
    b2 = bar_differential(alg, reg, 1)
    from hochschild.cohomology import random_normalized_vector
    from hochschild.linalg import Sweep
    sweep = Sweep(alg.field)
    for _, col in b2.columns_items():
        sweep.insert(dict(col))
    nc = space.complex
    for seed in range(5):
        g = nc.embed(1, random_normalized_vector(nc, 1, random.Random(seed)))
        shift = b2.matvec(g.vec())
        from hochschild.cohomology import Cochain
        cochain = Cochain.from_vec(alg, reg, 2, shift)
        assert space.class_is_zero(cochain)
        lead, _, _ = sweep.reduce(dict(shift), None)
        assert lead is None  # sanity: it is a full coboundary too


@pytest.fixture(scope="module")
def bundled():
    return {name: build_algebra(load_bundled(name)[1]) for name in BUNDLED}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name", BUNDLED)
def test_bar_apply_matches_matrix(bundled, name, coefficients, n):
    alg = bundled[name]
    module = coefficients(alg)
    matrix = bar_differential(alg, module, n)
    # sparse random cochains, and one with every column in its support
    cochains = [random_cochain(alg, module, n, seed=s) for s in range(3)]
    cochains.append(Cochain.from_vec(alg, module, n, {
        k: alg.field.of(k % 7 + 1) for k in range(matrix.cols)}))
    for f in cochains:
        want = Cochain.from_vec(alg, module, n + 1, matrix.matvec(f.vec()))
        assert bar_apply(alg, module, n, f) == want


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name", BUNDLED)
def test_normalized_differential_matches_bar_apply(bundled, name,
                                                   coefficients, n):
    # every column of the normalized differential is b^{n+1} of its basis
    # cochain, computed on the full bar complex
    alg = bundled[name]
    module = coefficients(alg)
    nc = _normalized_complex(alg, module)
    matrix = differential_on_rows(nc, n)
    for k in range(nc.dim(n)):
        basis_cochain = nc.embed(n, {k: alg.field.one})
        assert nc.embed(n + 1, matrix.column(k)) == \
            bar_apply(alg, module, n, basis_cochain)


@pytest.mark.parametrize("coefficients", [
    regular_bimodule, dual_bimodule,
    *(lambda alg, m=m: ext_dual_bimodule(alg, m) for m in range(3)),
], ids=["regular", "dual", "E_0", "E_1", "E_2"])
@pytest.mark.parametrize("name", BUNDLED)
def test_differential_rows_are_keys_of_the_next_degree(bundled, name,
                                                       coefficients):
    # the closure the constructor certifies, read off the matrices: every
    # row of d^n is a flat bar key of the degree-(n+1) basis
    alg = bundled[name]
    nc = _normalized_complex(alg, coefficients(alg))
    for n in range(4):
        keys = set(nc.keys(n + 1))
        matrix = nc.differential(n)
        assert matrix.rows == alg.dim ** (n + 1) * nc.graded.dim
        for _, col in matrix.columns_items():
            assert keys.issuperset(col)


def test_subcomplex_differential_refuses_terms_outside_its_basis(bundled):
    # move one entry of a radical left action to a value off its Peirce
    # block, so that d^0 hits a key outside the degree-1 basis: the
    # per-term assembly must stop there and name the decoded (chain, m) of
    # that key, and the complex must refuse the module when it is built
    alg = bundled["square"]
    reg = regular_bimodule(alg)
    c = alg.radical_indices[0]
    m, col = next((m, col) for m, col in reg.left[c].columns_items()
                  if alg.peirce[m][0] == alg.peirce[m][1])
    m2 = next(iter(col))
    off = next(k for k in range(alg.dim) if alg.peirce[k] != alg.peirce[m2])
    left = list(reg.left)
    moved = {j: dict(cj) for j, cj in reg.left[c].columns_items()}
    moved[m][off] = moved[m].pop(m2)
    left[c] = Mat(reg.dim, reg.dim, alg.field, moved)
    bad = Bimodule(alg, reg.dim, left, reg.right, check=False)
    with pytest.raises(AssertionError,
                       match=rf"left the subcomplex at \({c},\), {off}$"):
        reference_normalized_differential(alg, bad, 0)
    with pytest.raises(AssertionError,
                       match=rf"left action of basis vector {c} on {m} is "
                             "off its Peirce block"):
        NormalizedComplex(alg, bad)


def test_index_is_the_flat_bar_key(bundled):
    # row k of the normalized basis sits at the bar coordinate of its
    # basis cochain, so project and embed are mutually inverse
    alg = bundled["ex3_8_B"]
    for module in (regular_bimodule(alg), dual_bimodule(alg)):
        nc = _normalized_complex(alg, module)
        for n in range(4):
            flat, pos = nc.basis(n)
            assert sorted(pos.values()) == list(range(len(flat)))
            for key, k in pos.items():
                basis_cochain = nc.embed(n, {k: alg.field.one})
                assert basis_cochain.vec() == {key: alg.field.one}
                assert nc.project(basis_cochain) == {k: alg.field.one}


@pytest.mark.parametrize("case", ["idempotent argument",
                                  "non-composable radical pair",
                                  "value outside its Peirce block"])
def test_class_coords_refuses_cochains_outside_the_index(bundled, case):
    # ex3_5_B: e_0 = 0, a0 = 2 (0 -> 1), a1 = 3 (1 -> 0); hh^2 runs on the
    # normalized complex, whose degree-2 basis has none of these tensors
    alg = bundled["ex3_5_B"]
    reg = regular_bimodule(alg)
    space = hh(alg, reg, 2)
    assert space.backend == "normalized"
    nc = space.complex
    slots, m = {
        "idempotent argument": ((0, 2), 2),
        "non-composable radical pair": ((2, 2), 2),
        "value outside its Peirce block": ((2, 3), 2),
    }[case]
    assert (0 in slots) == (case == "idempotent argument")
    if case != "idempotent argument":
        assert all(s in nc.r for s in slots)
        composable = slots in nc.chains(2)
        assert composable == (case == "value outside its Peirce block")
    if case == "value outside its Peirce block":
        assert m not in nc.value_indices(slots)
    cochain = Cochain.from_values(alg, reg, 2, {slots: {m: alg.field.one}})
    with pytest.raises(ValueError, match="not idempotent-normalized"):
        space.class_coords(cochain)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("name", BUNDLED)
def test_ext_differential_matches_ambient_reference(bundled, name, m):
    C = bundled[name]
    ec = _normalized_complex(C, _ext_coefficients(C))
    matrix = differential_on_rows(ec, m)
    # the complex's rows are ambient flat keys, in row order
    keys, keys_up = ec.keys(m), ec.keys(m + 1)
    for k in range(ec.dim(m)):
        image = {keys_up[r]: c for r, c in matrix.column(k).items()}
        assert image == ambient_differential_apply(C, m,
                                                   {keys[k]: C.field.one})


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("source,name", [
    *[("bundled", name) for name in ("ex3_5_C", "ex3_8_C", "ex5_9_C",
                                     "square")],
    *[("corpus", name) for name in PRESENTATIONS],
])
def test_ambient_reference_is_the_bar_differential(request, source, name,
                                                   m):
    # the ambient space has the Ext complex's flat keys, so the
    # independent reference is the engine's bar differential with
    # coefficients C (x)_k C on the whole space, entry for entry
    C = request.getfixturevalue(source)[name]
    assert _ambient_differential(C, m) == \
        bar_differential(C, _ext_coefficients(C), m)


@pytest.mark.parametrize("name", BUNDLED)
def test_hh_and_derivations_build_no_bar_matrix(monkeypatch, name):
    # hh^0..hh^2 live on the normalized complex, and the derivation route
    # takes its inner derivations from bar_apply
    alg = build_algebra(load_bundled(name)[1])
    reg = regular_bimodule(alg)
    builds = []

    def counted(algebra, module, n, **kwargs):
        builds.append((id(module), n))
        return bar_differential(algebra, module, n, **kwargs)

    monkeypatch.setattr(cohomology, "bar_differential", counted)
    for n in range(3):
        hh(alg, reg, n)
    hh1_via_derivations(alg, reg)
    assert builds == []


def _over(name, tag):
    data = dict(load_bundled(name)[0], field=tag)
    return build_algebra(parse_algebra_file(data))


@pytest.mark.parametrize("name", BUNDLED)
def test_dims_agree_across_fields(name):
    # Q eliminates with primitive integer pivots, GF(p) with lead-1
    # pivots: for a large prime the dims agree, and over GF(2) they can
    # only grow
    fields = {}
    for tag in ("Q", "Fp:10007", "Fp:2"):
        alg = _over(name, tag)
        fields[tag] = [[hh(alg, module, n).dim for n in range(3)]
                       for module in (regular_bimodule(alg),
                                      dual_bimodule(alg))]
    assert fields["Fp:10007"] == fields["Q"]
    for small, large in zip(fields["Fp:2"], fields["Q"]):
        assert all(s >= q for s, q in zip(small, large))


@pytest.mark.parametrize("name", BUNDLED)
def test_routes_agree_over_gf2(name):
    # over GF(2) signs vanish and more pivots cancel; the bar, normalized
    # and derivation routes must still give the same dimensions
    alg = _over(name, "Fp:2")
    for module in (regular_bimodule(alg), dual_bimodule(alg)):
        bar = []
        for n in range(3):
            dim, reps = bar_reference(alg, module, n)
            assert len(reps) == dim
            bar.append(dim)
        normalized = [CohomologySpace(_normalized_complex(alg, module), n).dim
                      for n in range(3)]
        assert bar == normalized
        assert hh1_via_derivations(alg, module).dim == bar[1]


# -- rank-first dims against the representatives --------------------------


def _fresh(name, coefficients):
    alg = build_algebra(load_bundled(name)[1])
    return alg, coefficients(alg)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name", BUNDLED)
def test_rank_dim_matches_representatives(name, coefficients, n):
    # dim is read first, from ranks alone; the representatives built
    # afterwards must number exactly that, and must not change it
    alg, module = _fresh(name, coefficients)
    space = hh(alg, module, n)
    before = space.dim
    reps = space.representatives
    assert len(reps) == before == space.dim
    assert all(space.is_cocycle(r) for r in reps)


@pytest.mark.parametrize("n,degree_of_rank", [(0, "n"), (1, "n"),
                                              (1, "n-1"), (2, "n"),
                                              (2, "n-1")])
@pytest.mark.parametrize("data", ["regular", "twisted"])
def test_corrupted_rank_is_caught(n, degree_of_rank, data):
    # the representative count is checked against the ranks of the
    # space's own complex, on graded data and on the graded twin of data
    # that is not
    alg = build_algebra(load_bundled("ex3_5_B")[1])
    module = (regular_bimodule if data == "regular" else twisted_regular)(alg)
    space = hh(alg, module, n)
    assert (space.complex.graded is module) == (data == "regular")
    k = n if degree_of_rank == "n" else n - 1
    space.complex.rank(k)
    space.complex.ranks[k] += 1
    with pytest.raises(AssertionError,
                       match=rf"hh\^{n} on the normalized complex: .* from "
                             r"its ranks"):
        space.representatives


def test_dims_do_no_kernel_work(monkeypatch):
    # .dim reads cached ranks; the kernel sweep runs once per space, on
    # the first request for representatives
    calls = []

    def counted(m):
        calls.append(m)
        return kernel_basis_sparse(m)

    monkeypatch.setattr(cohomology, "kernel_basis_sparse", counted)
    alg, module = _fresh("ex3_8_C", regular_bimodule)
    spaces = [hh(alg, module, n) for n in range(5)]
    dims = [space.dim for space in spaces]
    assert not calls
    for space in spaces:
        before = len(calls)
        assert len(space.representatives) == space.dim
        assert len(calls) == before + 1
        space.representatives
        assert len(calls) == before + 1
    assert dims == [space.dim for space in spaces]


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("name", ["ex3_5_C", "ex3_8_C", "square"])
def test_projection_morphism_reads_no_rank(monkeypatch, name, n):
    # phi^n builds the representatives of hh^n(B) before it reads any
    # dim, so both spaces take their dims from the ranks that sweep left
    calls = []

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(cohomology, "rank", counted)
    alg, dc = _fresh(name, dual_bimodule)
    phi = projection_morphism(trivial_extension(alg, dc), n)
    assert phi.source.dim > 0
    assert not calls


# -- one complex per space: normalized in every degree ---------------------


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name", BUNDLED)
def test_low_degree_dims_build_no_bar_matrix(monkeypatch, name,
                                             coefficients, n):
    # on Peirce-graded data the space lives on the normalized complex in
    # every degree: neither its dim nor its representatives build a bar
    # matrix.  The dim is read from the ranks of the complex that answers
    # it: the Koszul resolution's on ex3_5_B and ex3_8_C with regular
    # coefficients, the normalized complex's elsewhere
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[2])
        return bar_differential(*args, **kwargs)

    monkeypatch.setattr(cohomology, "bar_differential", counted)
    alg, module = _fresh(name, coefficients)
    space = hh(alg, module, n)
    assert space.backend == "normalized"
    assert space.complex is _normalized_complex(alg, module)
    dim = space.dim
    koszul = getattr(alg, "_koszul_resolution", None)
    assert (koszul is not None) == (coefficients is regular_bimodule and
                                     name in ("ex3_5_B", "ex3_8_C"))
    assert n in (space.complex if koszul is None else koszul).ranks
    assert len(space.representatives) == dim
    assert builds == []


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name", BUNDLED)
def test_low_degree_dims_agree_across_engines(name, coefficients, n):
    # the dim read first (normalized ranks), the normalized
    # representatives, the literal bar complex and, in degree 1, the
    # derivation route
    alg, module = _fresh(name, coefficients)
    space = hh(alg, module, n)
    first = space.dim
    assert len(space.representatives) == first == space.dim
    bar_dim, bar_reps = bar_reference(alg, module, n)
    assert bar_dim == first == len(bar_reps)
    if n == 1:
        assert hh1_via_derivations(alg, module).dim == first


def _off_diagonal_cochain(alg, module):
    # a degree-0 cochain (an element of M) with a component in every
    # off-diagonal Peirce block of M, so that b^1 of it is not normalized
    field = alg.field
    vec = {m: field.of(m % 3 + 1) for m, (s, t) in enumerate(module.peirce)
           if s != t}
    assert vec
    return Cochain.from_vec(alg, module, 0, vec)


@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name", ["ex3_5_B", "ex3_8_C", "ex5_9_C", "square"])
def test_degree1_classes_ignore_non_normalized_coboundaries(name,
                                                            coefficients):
    # a representative plus b^1(x), with x off the diagonal blocks, leaves
    # the normalized complex; class_coords moves it back by a coboundary
    # and reads the representative's class
    alg, module = _fresh(name, coefficients)
    space = hh(alg, module, 1)
    assert space.backend == "normalized"
    shift = bar_apply(alg, module, 0, _off_diagonal_cochain(alg, module))
    assert space.complex.project(shift) is None
    assert space.class_is_zero(shift)
    for j, rep in enumerate(space.representatives):
        shifted = rep.add(shift)
        assert space.complex.project(shifted) is None
        assert space.is_cocycle(shifted)
        assert space.class_coords(shifted) == space.class_coords(rep)
        assert space.class_coords(rep)[j] == alg.field.one


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name", ["ex3_5_B", "square"])
def test_low_degree_non_cocycles_outside_the_complex(name, coefficients, n):
    alg, module = _fresh(name, coefficients)
    space = hh(alg, module, n)
    if n == 0:
        # an element of an off-diagonal block does not commute with the
        # idempotents
        cochains = [_off_diagonal_cochain(alg, module)]
    else:
        cochains = [random_cochain(alg, module, 1, seed=s) for s in range(4)]
    for f in cochains:
        assert space.complex.project(f) is None
        assert not bar_apply(alg, module, n, f).is_zero()
        assert not space.is_cocycle(f)
        with pytest.raises(ValueError, match="^not a cocycle$"):
            space.class_coords(f)


@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
def test_degree2_refuses_non_normalized_cocycles(coefficients):
    # from degree 2 on a cochain outside the normalized complex is
    # refused, even a coboundary
    alg, module = _fresh("ex3_5_B", coefficients)
    space = hh(alg, module, 2)
    f = bar_apply(alg, module, 1, random_cochain(alg, module, 1, seed=3))
    assert space.complex.project(f) is None
    assert bar_apply(alg, module, 2, f).is_zero()
    for method in (space.class_coords, space.is_cocycle):
        with pytest.raises(ValueError, match="not idempotent-normalized"):
            method(f)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["ex3_5_C", "square"])
def test_twisted_data_is_regraded(name, n):
    # data that is not Peirce-graded gets the dims of its graded twin, and
    # representatives that are bar cocycles in its own basis
    alg = build_algebra(load_bundled(name)[1])
    twisted = twisted_regular(alg)
    assert not twisted.is_graded()
    space = hh(alg, twisted, n)
    assert space.complex.graded.is_graded()
    assert n not in space.complex.ranks
    assert space.dim == hh(alg, regular_bimodule(alg), n).dim
    assert n in space.complex.ranks
    one, zero = alg.field.one, alg.field.zero
    for j, rep in enumerate(space.representatives):
        assert rep.module is twisted
        assert bar_apply(alg, twisted, n, rep).is_zero()
        assert space.class_coords(rep) == tuple(
            one if k == j else zero for k in range(space.dim))


@pytest.mark.parametrize("name", ["ex3_5_C", "ex3_8_C", "square"])
def test_phi_of_a_twisted_extension(name):
    # E not Peirce-graded is regraded when B is built: B is graded, and
    # phi^n has the dims and rank of the untwisted extension
    alg = build_algebra(load_bundled(name)[1])
    twisted = trivial_extension(alg, twisted_regular(alg))
    plain = trivial_extension(alg, regular_bimodule(alg))
    assert twisted.B.is_peirce_graded()
    for n in range(3):
        got = projection_morphism(twisted, n)
        want = projection_morphism(plain, n)
        assert (got.source.dim, got.target.dim, got.rank) == \
            (want.source.dim, want.target.dim, want.rank)


@pytest.mark.parametrize("case", ["not Peirce-graded", "radical products"])
def test_hand_made_algebra_outside_the_engine_is_refused(case):
    from hochschild.algebra import Algebra
    from hochschild.linalg import QQ
    if case == "not Peirce-graded":
        # k A_2 in the basis e_0, e_1, a + e_0: the last vector lies in no
        # single block e_x A e_y
        alg = Algebra(QQ, ["e0", "e1", "a+e0"], {
            (0, 0): {0: 1}, (1, 1): {1: 1}, (0, 2): {2: 1}, (2, 0): {0: 1},
            (2, 1): {2: 1, 0: -1}, (2, 2): {2: 1}},
            [("0", 0), ("1", 1)], [("0", "0"), ("1", "1"), None])
        match = "Peirce-graded algebra"
    else:
        # k[y]/(y^2 - 1) with the unit as its one idempotent: y y = 1
        alg = Algebra(QQ, ["1", "y"], {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}},
            [("v", 0)], [("v", "v"), ("v", "v")])
        match = "radical products"
    with pytest.raises(ValueError, match=match):
        hh(alg, regular_bimodule(alg), 1)


def test_degree1_normalization_builds_one_sweep(monkeypatch):
    # the (L_e - R_e) x = f(e) system is eliminated once per module; each
    # input after that is one solution against the cached sweep
    sweeps = []

    class Counted(cohomology.Sweep):
        def __init__(self, field):
            sweeps.append(field)
            super().__init__(field)

    normalize = cohomology._normalize_degree1
    normalized = []

    def counted(*args):
        normalized.append(args)
        return normalize(*args)

    monkeypatch.setattr(cohomology, "Sweep", Counted)
    monkeypatch.setattr(cohomology, "_normalize_degree1", counted)
    alg, module = _fresh("ex3_5_B", regular_bimodule)
    space = hh(alg, module, 1)
    reps = space.representatives
    for s in range(4):
        shift = bar_apply(alg, module, 0, random_cochain(alg, module, 0,
                                                         seed=s))
        assert space.complex.project(shift) is None
        for j, rep in enumerate(reps):
            assert space.class_coords(rep.add(shift)) == \
                space.class_coords(rep)
    assert len(normalized) > len(reps) and len(sweeps) == 1
    # the derivation route reuses the system's matrix, not its sweep
    hh1_via_derivations(alg, module)
    assert len(sweeps) == 1


def test_every_space_lives_on_a_normalized_complex():
    # the literal bar complex is no engine of hh: the classes are gone, and
    # graded, twisted and extension data all get a NormalizedComplex.  The
    # derivation and resolution routes are complexes that CohomologySpace
    # takes, so their own quotient classes are gone too
    gone = {
        cohomology: ("BarComplex", "_bar_complex", "_Complex",
                     "_complex_for", "DerivationCohomology"),
        minres: ("ResolutionCohomology", "hom_complex_ranks"),
        minres.PartialResolution: ("hom_differential",),
        linalg: ("QuotientData", "quotient_data", "sparse"),
        hochschild: ("quotient_data",),
        extcohom: ("embed_ambient",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), name
    alg = build_algebra(load_bundled("ex3_5_C")[1])
    twisted = twisted_regular(alg)
    ext = trivial_extension(alg, twisted)
    for a, module in [(alg, regular_bimodule(alg)), (alg, dual_bimodule(alg)),
                      (alg, twisted), (ext.B, regular_bimodule(ext.B)),
                      (ext.B, ext.E_as_B_bimodule())]:
        for n in range(3):
            space = hh(a, module, n)
            assert type(space.complex) is NormalizedComplex
            assert space.complex is _normalized_complex(a, module)
