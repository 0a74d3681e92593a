import itertools
import random
from fractions import Fraction

import pytest

import hochschild.cohomology as cohomology
from hochschild.algebra import build_algebra
from hochschild.algfile import BUNDLED, load_bundled
from hochschild.bimodule import (
    dual_bimodule, pullback_bimodule, regular_bimodule,
)
from hochschild.cohomology import (
    CapExceeded, Cochain, NormalizedComplex, _bar_column, _column_kernel,
    bar_apply, bar_differential, bracket1, cup, der0_basis,
    derivation_from_arrow_values, hh, hh1_via_derivations, is_derivation,
    random_cochain, transport,
)
from hochschild.extension import (
    extension_from_maps, inflate_cochain, project_cochain,
)
from hochschild.linalg import Mat, PrimeField, QQ, axpy, kernel_basis_sparse
from hochschild.quiver import Presentation, Quiver

from conftest import (
    cyclic_nakayama_presentation, loops_presentation,
    nakayama_b_presentation, nakayama_c_presentation,
    presented_nakayama_maps, quantum_plane_presentation,
    triangle_b_presentation, truncated_presentation, twisted_regular,
)


@pytest.fixture(scope="module")
def nak_b_derivations(nakayama_b):
    b = nakayama_b
    q = b.presentation.quiver

    def elem(*names):
        return b.element_from_path(q.path(*names))

    u0 = derivation_from_arrow_values(b, {"a0": elem("a0"), "a1": elem("a1")})
    u1 = derivation_from_arrow_values(
        b, {"abar0": elem("a1"), "abar1": elem("a0").scaled(-1)})
    v0 = derivation_from_arrow_values(
        b, {"a0": elem("abar1"), "a1": elem("abar0").scaled(-1)})
    v1 = derivation_from_arrow_values(
        b, {"abar0": elem("abar0").scaled(-1), "abar1": elem("abar1").scaled(-1)})
    return u0, u1, v0, v1


def test_b1_kills_central_element(nakayama_c):
    reg = regular_bimodule(nakayama_c)
    b1 = bar_differential(nakayama_c, reg, 0)
    unit = nakayama_c.unit().coords
    assert b1.matvec(dict(unit)) == {}


def test_complex_property_small(nakayama_c):
    reg = regular_bimodule(nakayama_c)
    b1 = bar_differential(nakayama_c, reg, 0)
    b2 = bar_differential(nakayama_c, reg, 1)
    b3 = bar_differential(nakayama_c, reg, 2)
    assert b2.matmul(b1).is_zero()
    assert b3.matmul(b2).is_zero()


def test_complex_property_corpus_degree3(corpus):
    for name in ("nakayama_c", "triangle_c", "kite_c"):
        alg = corpus[name]
        for module in (regular_bimodule(alg), dual_bimodule(alg)):
            prev = bar_differential(alg, module, 2)
            nxt = bar_differential(alg, module, 3)
            assert nxt.matmul(prev).is_zero()


TOP_FACTOR_ALGEBRAS = [(name, lambda name=name: load_bundled(name)[1])
                       for name in BUNDLED] + [
    ("qplane_2/3", lambda: quantum_plane_presentation(Fraction(2, 3)))]


@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
@pytest.mark.parametrize("name,presentation", TOP_FACTOR_ALGEBRAS,
                         ids=[name for name, _ in TOP_FACTOR_ALGEBRAS])
def test_top_factor_on_reached_keys_gives_the_same_product(
        name, presentation, coefficients):
    # b o b = 0 builds b^4 only at the rows b^3 reaches; the product with
    # b^3 must be the product with the full b^4, entry for entry
    alg = build_algebra(presentation())
    module = coefficients(alg)
    b3 = bar_differential(alg, module, 2)
    reached = sorted({r for _, col in b3.columns_items() for r in col})
    full = bar_differential(alg, module, 3)
    part = cohomology._bar_columns(alg, module, 3, reached)
    assert len(reached) < full.cols
    assert all(part.column(k) == full.column(k) for k in reached)
    assert part.matmul(b3) == full.matmul(b3)
    assert cohomology.bar_square_vanishes(alg, module, 3)


@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule,
                                          twisted_regular])
def test_bar_columns_at_every_key_match_the_product_order(triangle_b,
                                                          coefficients):
    # the assembly decodes each key into slots; the columns must be those
    # of the kernel walked over the tensors in product order
    module = coefficients(triangle_b)
    d, dm = triangle_b.dim, module.dim
    for n in range(4):
        column = _bar_column(triangle_b, module, n)
        want = {}
        for t_idx, slots in enumerate(itertools.product(range(d), repeat=n)):
            for m in range(dm):
                col = column(t_idx, slots, m)
                if col:
                    want[t_idx * dm + m] = col
        got = bar_differential(triangle_b, module, n)
        assert (got.rows, got.cols) == (d ** (n + 1) * dm, d ** n * dm)
        assert dict(got.columns_items()) == want


@pytest.mark.parametrize("top", [1, 3])
def test_bar_square_fails_on_a_corrupted_right_action(kite_c, top):
    # doubling the right action of one arrow breaks m.(xy) = (m.x).y
    # wherever that arrow is x in a nonzero product; b o b sees it, also
    # when the corrupted factor is the one built on reached keys only
    from hochschild.bimodule import Bimodule
    reg = regular_bimodule(kite_c)
    x = next(x for (x, y), prod in kite_c.structure.items()
             if prod and x in kite_c.radical_indices
             and y in kite_c.radical_indices)
    right = list(reg.right)
    right[x] = right[x].scaled(2)
    broken = Bimodule(kite_c, reg.dim, reg.left, right, check=False)
    assert cohomology.bar_square_vanishes(kite_c, reg, top)
    assert not cohomology.bar_square_vanishes(kite_c, broken, top)


def test_b1_is_inner_derivation(kite_c):
    # b^1 of the idempotent e_1 sends alpha -> -alpha, beta -> -beta, gamma -> 0
    reg = regular_bimodule(kite_c)
    b1 = bar_differential(kite_c, reg, 0)
    e1 = kite_c.idempotent("1").coords
    d = Cochain.from_vec(kite_c, reg, 1, b1.matvec(dict(e1)))
    q = kite_c.presentation.quiver
    alpha_i = kite_c.basis_paths.index(q.path("alpha"))
    beta_i = kite_c.basis_paths.index(q.path("beta"))
    gamma_i = kite_c.basis_paths.index(q.path("gamma"))
    assert d.value((alpha_i,)) == {alpha_i: -1}
    assert d.value((beta_i,)) == {beta_i: -1}
    assert d.value((gamma_i,)) == {}


def test_hh0_dims(corpus):
    reg = regular_bimodule(corpus["nakayama_c"])
    assert hh(corpus["nakayama_c"], reg, 0).dim == 1
    regb = regular_bimodule(corpus["triangle_b"])
    assert hh(corpus["triangle_b"], regb, 0).dim == 2


def test_hh1_dims_first_pair(nakayama_c, nakayama_b):
    assert hh(nakayama_c, regular_bimodule(nakayama_c), 1).dim == 1
    assert hh(nakayama_b, regular_bimodule(nakayama_b), 1).dim == 4


def test_hh1_dims_second_pair(kite_c, kite_b):
    assert hh(kite_c, regular_bimodule(kite_c), 1).dim == 2
    assert hh(kite_b, regular_bimodule(kite_b), 1).dim == 3


def test_hh_higher_triangle(triangle_c, triangle_b):
    regc = regular_bimodule(triangle_c)
    assert [hh(triangle_c, regc, n).dim for n in range(4)] == [1, 1, 1, 0]
    regb = regular_bimodule(triangle_b)
    assert [hh(triangle_b, regb, n).dim for n in range(3)] == [2, 2, 2]


def test_normalized_reps_are_bar_cocycles(triangle_b):
    reg = regular_bimodule(triangle_b)
    space = hh(triangle_b, reg, 2)
    assert space.backend == "normalized"
    b3 = bar_differential(triangle_b, reg, 2)
    for rep in space.representatives:
        assert b3.matvec(rep.vec()) == {}


def test_der0_basis_dims(kite_c, nakayama_b):
    assert len(der0_basis(kite_c, regular_bimodule(kite_c))) == 4
    # four outer generators plus one normalized inner direction
    assert len(der0_basis(nakayama_b, regular_bimodule(nakayama_b))) == 5


def test_der0_semisimple_vanishes():
    pres = Presentation(Quiver(["1", "2"], []), relations=[])
    alg = build_algebra(pres)
    assert der0_basis(alg, regular_bimodule(alg)) == []


def test_hh1_via_derivations_matches_bar(corpus):
    for alg in corpus.values():
        reg = regular_bimodule(alg)
        assert hh1_via_derivations(alg, reg).dim == hh(alg, reg, 1).dim
        dc = dual_bimodule(alg)
        assert hh1_via_derivations(alg, dc).dim == hh(alg, dc, 1).dim


def test_derivation_space_is_built_once_per_module(monkeypatch):
    # like hh, the derivation route keeps its space on the module: a
    # repeated question is the same space, with one Leibniz system
    built = []
    real = cohomology._leibniz_system
    monkeypatch.setattr(cohomology, "_leibniz_system",
                        lambda alg, mod: built.append(mod) or real(alg, mod))
    alg = build_algebra(nakayama_b_presentation())
    reg, dc = regular_bimodule(alg), dual_bimodule(alg)
    space = hh1_via_derivations(alg, reg)
    assert space.dim == hh(alg, reg, 1).dim
    assert hh1_via_derivations(alg, reg) is space
    assert built == [reg]
    assert hh1_via_derivations(alg, dc) is not space
    assert built == [reg, dc]


def _old_derivation_reps(alg, module):
    """hh^1 by derivations as computed before it was a CohomologySpace:
    the normalized derivations modulo the inner span, by quotient_basis."""
    return cohomology.quotient_basis(
        alg.field, [d.vec() for d in der0_basis(alg, module)],
        cohomology.inner_normalized_span(alg, module))[0]


@pytest.mark.parametrize("source", ["corpus", "GF(7)", "GF(2)"])
def test_derivation_space_keeps_its_representatives(corpus, source):
    if source == "corpus":
        algebras = list(corpus.values())
    else:
        field = PrimeField(int(source[3:-1]))
        algebras = [build_algebra(nakayama_b_presentation(field)),
                    build_algebra(cyclic_nakayama_presentation(3, 3, field))]
    for alg in algebras:
        for module in (regular_bimodule(alg), dual_bimodule(alg)):
            want = _old_derivation_reps(alg, module)
            space = hh1_via_derivations(alg, module)
            assert space.backend == "derivations"
            # rank-first before, the representatives' count after
            assert space.dim == len(want)
            assert space.vectors() == want
            assert space.dim == len(want)
            assert [r.vec() for r in space.representatives] == want
            for j, rep in enumerate(space.representatives):
                assert space.class_coords(rep) == tuple(
                    alg.field.one if i == j else alg.field.zero
                    for i in range(space.dim))


def test_derivation_reps_span_bar_classes(kite_b):
    reg = regular_bimodule(kite_b)
    space = hh(kite_b, reg, 1)
    der = hh1_via_derivations(kite_b, reg)
    coords = [space.class_coords(r) for r in der.representatives]
    from hochschild.linalg import Mat, QQ, rank
    m = Mat.from_rows([list(c) for c in coords], QQ)
    assert rank(m) == space.dim == der.dim


def test_outer_derivation_classes_independent(nakayama_b, nak_b_derivations):
    reg = regular_bimodule(nakayama_b)
    space = hh(nakayama_b, reg, 1)
    from hochschild.linalg import Mat, QQ, rank
    coords = [space.class_coords(d) for d in nak_b_derivations]
    m = Mat.from_rows([list(c) for c in coords], QQ)
    assert rank(m) == 4


def class_equal(f, g, space):
    """Whether the cocycles f and g have one class in space."""
    return space.class_is_zero(f.add(g, -1))


def test_cup_unit(nakayama_c):
    reg = regular_bimodule(nakayama_c)
    space1 = hh(nakayama_c, reg, 1)
    unit = Cochain.from_values(nakayama_c, reg, 0,
                               {(): dict(nakayama_c.unit().coords)})
    zeta = space1.representative(0)
    assert class_equal(cup(unit, zeta), zeta, space1)
    assert class_equal(cup(zeta, unit), zeta, space1)


def test_cup_graded_commutative(triangle_b):
    reg = regular_bimodule(triangle_b)
    h1 = hh(triangle_b, reg, 1)
    h2 = hh(triangle_b, reg, 2)
    for f in h1.representatives:
        for g in h1.representatives:
            # odd*odd: [f u g] = -[g u f]
            assert class_equal(cup(f, g), cup(g, f).scaled(-1), h2)


def test_cup_odd_squares_vanish_char0(triangle_b):
    reg = regular_bimodule(triangle_b)
    h1 = hh(triangle_b, reg, 1)
    h2 = hh(triangle_b, reg, 2)
    for f in h1.representatives:
        assert h2.class_is_zero(cup(f, f).scaled(2))


def test_bracket_self_zero(nak_b_derivations):
    u0, _, _, _ = nak_b_derivations
    assert bracket1(u0, u0).is_zero()


def test_bracket_u0_v0(nakayama_b, nak_b_derivations):
    u0, _, v0, _ = nak_b_derivations
    assert bracket1(u0, v0) == v0.scaled(-1)


def test_bracket_is_derivation(nak_b_derivations):
    u0, u1, v0, v1 = nak_b_derivations
    for a in (u0, u1, v0, v1):
        for b in (u0, u1, v0, v1):
            assert is_derivation(bracket1(a, b))


def test_class_equal_reflexive_and_shifted(nakayama_b):
    reg = regular_bimodule(nakayama_b)
    space = hh(nakayama_b, reg, 1)
    rep = space.representative(0)
    assert class_equal(rep, rep, space)
    b1 = bar_differential(nakayama_b, reg, 0)
    shift = Cochain.from_vec(nakayama_b, reg, 1, b1.matvec({3: reg.field.one}))
    assert class_equal(rep, rep.add(shift), space)


def test_classes_of_distinct_generators_differ(nakayama_b, nak_b_derivations):
    u0, _, v0, _ = nak_b_derivations
    reg = regular_bimodule(nakayama_b)
    space = hh(nakayama_b, reg, 1)
    assert space.class_coords(u0) != space.class_coords(v0)


def test_class_equal_rejects_non_cocycle(nakayama_c):
    reg = regular_bimodule(nakayama_c)
    space = hh(nakayama_c, reg, 1)
    junk = random_cochain(nakayama_c, reg, 1, seed=5)
    if not space.is_cocycle(junk):
        with pytest.raises(ValueError):
            space.class_coords(junk)


def test_cap_guard():
    pres = Presentation(Quiver(["1", "2"], [("a", "1", "2")]), relations=[])
    alg = build_algebra(pres)
    reg = regular_bimodule(alg)
    with pytest.raises(CapExceeded):
        bar_differential(alg, reg, 2, cap=10)
    # the message states the gate and nothing else: dim A = 3, so the
    # bar quantity at degree 2 is 3^3 * 3
    with pytest.raises(CapExceeded) as refused:
        hh(alg, reg, 2, cap=10)
    assert str(refused.value) == (
        "degree 2 refused: the bar complex size (dim A)^(n+1) * dim M = 81 "
        "exceeds the cap 10")
    # the cap only gates: the space is cached by degree, so a second cap
    # returns the same space, and a smaller one still refuses it
    space = hh(alg, reg, 1)
    assert hh(alg, reg, 1, cap=10**12) is space
    with pytest.raises(CapExceeded):
        hh(alg, reg, 1, cap=10)


@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
def test_negative_degree_is_refused(nakayama_c, coefficients):
    # hh^n is zero-based; n = -1 used to recurse in NormalizedComplex.chains
    with pytest.raises(ValueError, match="negative degree -1"):
        hh(nakayama_c, coefficients(nakayama_c), -1)


# -- the column kernel ------------------------------------------------------


def test_bar_column_one_kernel_per_key(monkeypatch):
    # a fresh algebra, so no kernel is cached on its module yet
    alg = build_algebra(triangle_b_presentation())
    reg = regular_bimodule(alg)
    builds = []
    real = cohomology._column_kernel
    monkeypatch.setattr(cohomology, "_column_kernel",
                        lambda *args: builds.append(args) or real(*args))
    full = _bar_column(alg, reg, 2)
    radical = _bar_column(alg, reg, 2, args=alg.radical_indices)
    assert full is not radical
    assert _bar_column(alg, reg, 2) is full
    assert _bar_column(alg, reg, 2, args=list(alg.radical_indices)) is radical
    assert len(builds) == 2
    # on radical tuples the radical kernel is the full one restricted to
    # radical arguments, and the restriction drops terms
    rad = set(alg.radical_indices)
    image = Cochain(alg, reg, 3)
    dropped = False
    for t_idx, slots in enumerate(itertools.product(range(alg.dim), repeat=2)):
        if not rad.issuperset(slots):
            continue
        for m in range(reg.dim):
            whole = full(t_idx, slots, m)
            kept = {k: v for k, v in whole.items()
                    if rad.issuperset(image.decode(k // reg.dim))}
            assert radical(t_idx, slots, m) == kept
            dropped = dropped or kept != whole
    assert dropped


def test_bar_column_empty_argument_set_is_its_own_key():
    # a semisimple algebra has no radical indices: the kernel restricted
    # to them is zero, and must not be the full kernel
    alg = build_algebra(Presentation(Quiver(["pt"], []), relations=[]))
    reg = regular_bimodule(alg)
    assert alg.radical_indices == []
    assert _bar_column(alg, reg, 1)(0, (0,), 0) == {0: 1}
    assert _bar_column(alg, reg, 1, args=[])(0, (0,), 0) == {}


def _brute_force_column(algebra, module, n, args, slots, m):
    """b^{n+1} of the cochain slots -> e_m, from the formula

        a_0 f(a_1 ..) + sum_p (-1)^{p+1} f(.. a_p a_{p+1} ..)
                      + (-1)^{n+1} f(.. a_{n-1}) a_n

    on the tensors of arguments from args where each term can be nonzero:
    every action column on e_m and every product of two arguments is
    probed.
    """
    field = algebra.field
    d, dm = algebra.dim, module.dim
    out = {}

    def add(tensor, m2, c):
        key = 0
        for s in tensor:
            key = key * d + s
        key = key * dm + m2
        w = field.add(out.get(key, field.zero), c)
        if w:
            out[key] = w
        else:
            out.pop(key, None)

    sign = field.one if n % 2 else field.neg(field.one)  # (-1)^{n+1}
    for a in args:
        for m2, c in module.left[a].column(m).items():
            add((a,) + slots, m2, c)
    for p in range(n):
        for x in args:
            for y in args:
                c = algebra.structure.get((x, y), {}).get(slots[p])
                if c:
                    add(slots[:p] + (x, y) + slots[p + 1:], m,
                        c if p % 2 else field.neg(c))
    for a in args:
        for m2, c in module.right[a].column(m).items():
            add(slots + (a,), m2, field.mul(sign, c))
    return out


FAMILIES = {
    "trunc3": lambda: truncated_presentation(3),
    "trunc4": lambda: truncated_presentation(4),
    "loops2": lambda: loops_presentation(2),
    "loops3": lambda: loops_presentation(3),
    "qplane_1": lambda: quantum_plane_presentation(1),
    "qplane_2/3": lambda: quantum_plane_presentation(Fraction(2, 3)),
    "nakayama2_3": lambda: cyclic_nakayama_presentation(2, 3),
    "nakayama3_2": lambda: cyclic_nakayama_presentation(3, 2),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF"])
@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule,
                                          twisted_regular])
@pytest.mark.parametrize("radical", [False, True], ids=["all", "radical"])
@pytest.mark.parametrize("presentation", [
    nakayama_b_presentation,
    lambda field: quantum_plane_presentation(Fraction(2, 3), field),
], ids=["nakayama_b", "qplane_2/3"])
def test_column_kernel_matches_brute_force(monkeypatch, field, coefficients,
                                           radical, presentation):
    # the kernel reads the action lists off the actions' nonzero columns
    # and stores a term at a new key as it is, adding up only at a repeated
    # key; a probe of every (argument, value) pair must give the same
    # columns.  With the idempotents among the arguments keys repeat and
    # cancel, so the adding path is exercised too
    alg = build_algebra(presentation(field))
    module = coefficients(alg)
    args = alg.radical_indices if radical else None
    scan = list(args) if radical else list(range(alg.dim))
    field = alg.field
    real_add = field.add
    added = []

    def counting_add(a, b):
        w = real_add(a, b)
        added.append(w)
        return w

    for n in range(4):
        monkeypatch.setattr(field, "add", counting_add)
        column = _column_kernel(alg, module, n, args)
        monkeypatch.undo()
        for slots in itertools.product(scan, repeat=n):
            t_idx = Cochain(alg, module, n).encode(slots)
            for m in range(module.dim):
                assert column(t_idx, slots, m) == _brute_force_column(
                    alg, module, n, scan, slots, m)
    if not radical:
        assert added, "no column met a repeated key"
        assert not all(added), "no repeated key cancelled"


@pytest.mark.parametrize("radical", [False, True], ids=["all", "radical"])
def test_column_kernel_reads_each_action_once(monkeypatch, nakayama_b,
                                              radical):
    # set-up reads the nonzero columns of the left and the right action of
    # each argument once: its cost is the actions' nnz, whatever the degree
    module = dual_bimodule(nakayama_b)
    args = nakayama_b.radical_indices if radical else None
    count = len(args) if radical else nakayama_b.dim
    reads = []
    real = Mat.columns_items
    monkeypatch.setattr(Mat, "columns_items",
                        lambda self: reads.append(self) or real(self))
    for n in range(3):
        reads.clear()
        _column_kernel(nakayama_b, module, n, args)
        assert len(reads) == 2 * count


@pytest.mark.parametrize("name", FAMILIES)
def test_normalized_rank_is_cols_minus_kernel(name):
    # the rank sweep and the kernel sweep take the columns in opposite
    # orders; they must count the same pivots
    alg = build_algebra(FAMILIES[name]())
    nc = NormalizedComplex(alg, regular_bimodule(alg))
    for n in range(6):
        d = nc.differential(n)
        assert nc.rank(n) == d.cols - len(kernel_basis_sparse(d))


def _check_assembly(alg, module, degrees):
    # d^n against a test-local assembly: the brute-force column of each
    # degree-n basis pair, its keys placed by a row index rebuilt from the
    # degree-(n+1) pair list.  The complex builds that row index with no
    # pair list, and the pair list only when it is asked for
    nc = NormalizedComplex(alg, module)
    graded = nc.graded
    for n in degrees:
        matrix = nc.differential(n)
        assert n + 1 not in nc._flat
        flat, _ = nc.basis(n)
        flat1, pos1 = nc.basis(n + 1)
        encode = Cochain(alg, graded, n + 1).encode
        rows = {encode(chain) * graded.dim + m: k
                for k, (chain, m) in enumerate(flat1)}
        assert list(pos1.items()) == list(rows.items())
        cols = {}
        for j, (chain, m) in enumerate(flat):
            col = {rows[key]: v for key, v in _brute_force_column(
                alg, graded, n, alg.radical_indices, chain, m).items()}
            if col:
                cols[j] = col
        assert matrix == Mat(len(flat1), len(flat), alg.field, cols)


@pytest.mark.parametrize("name", FAMILIES)
def test_normalized_differential_matches_brute_force(name):
    alg = build_algebra(FAMILIES[name]())
    _check_assembly(alg, regular_bimodule(alg), range(5))


@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule,
                                          twisted_regular])
@pytest.mark.parametrize("name", BUNDLED)
def test_normalized_differential_matches_brute_force_bundled(name,
                                                             coefficients):
    alg = build_algebra(load_bundled(name)[1])
    _check_assembly(alg, coefficients(alg), range(5))


@pytest.mark.parametrize("coefficients", [regular_bimodule, dual_bimodule])
def test_bar_apply_matches_the_matrix(triangle_b, coefficients):
    module = coefficients(triangle_b)
    for n in range(3):
        matrix = bar_differential(triangle_b, module, n)
        for seed in range(4):
            f = random_cochain(triangle_b, module, n, seed=seed)
            assert bar_apply(triangle_b, module, n, f).vec() == \
                matrix.matvec(f.vec())


# -- transport --------------------------------------------------------------


def _evaluated(f, new_algebra, new_module, slot_map, value_map):
    """value_map o f o slot_map^{(x)n}, evaluated on every basis tensor of
    the new algebra by expanding f multilinearly."""
    field = new_algebra.field
    values = {}
    for args in itertools.product(range(new_algebra.dim), repeat=f.degree):
        acc = {}
        for terms in itertools.product(*(slot_map.column(u).items()
                                         for u in args)):
            coeff = field.one
            for _, c in terms:
                coeff = field.mul(coeff, c)
            axpy(field, acc, coeff, f.value(tuple(s for s, _ in terms)))
        values[args] = value_map.matvec(acc)
    return Cochain.from_values(new_algebra, new_module, f.degree, values)


def _random_map(rows, cols, field, rng):
    entries = {(r, c): rng.randint(-3, 3) for r in range(rows)
               for c in range(cols) if rng.random() < 0.3}
    return Mat.from_entries(rows, cols, field, entries)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_transport_matches_evaluation(field, n):
    # the given maps of the presented ex3_5 pair: q and p come from algebra
    # maps, and p sends a basis vector to minus one
    C = build_algebra(nakayama_c_presentation(field))
    B = build_algebra(nakayama_b_presentation(field))
    p, q = presented_nakayama_maps(C, B)
    regB, regC = regular_bimodule(B), regular_bimodule(C)
    CasB = pullback_bimodule(B, p, regC)
    rng = random.Random(n)
    f = random_cochain(B, regB, n, rng=rng, density=12)
    g = random_cochain(C, regC, n, rng=rng)
    # projection: p o f o q^{(x)n}
    want = _evaluated(f, C, regC, q, p)
    assert not want.is_zero()
    assert transport(f, C, regC, q.transpose(), p) == want
    # inflation: g o p^{(x)n}
    ident = Mat.identity(C.dim, field)
    want = _evaluated(g, B, CasB, p, ident)
    assert not want.is_zero()
    assert transport(g, B, CasB, p.transpose(), ident) == want
    # a slot map and a value map that come from no algebra map
    slot = _random_map(B.dim, C.dim, field, rng)
    value = _random_map(C.dim, B.dim, field, rng)
    assert transport(f, C, regC, slot.transpose(), value) == \
        _evaluated(f, C, regC, slot, value)
    # the extension rebuilt from these maps, through its coordinate maps
    ext = extension_from_maps(C, B, p, q)
    h = random_cochain(ext.B, regular_bimodule(ext.B), n, rng=rng,
                       density=12)
    want = _evaluated(h, C, regC, ext.q, ext.p)
    assert not want.is_zero()
    assert project_cochain(ext, h) == want
    want = _evaluated(g, ext.B, ext.C_as_B_bimodule(), ext.p, ident)
    assert not want.is_zero()
    assert inflate_cochain(ext, g) == want
