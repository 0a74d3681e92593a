import re

import pytest

from hochschild.linalg import (
    Mat, PrimeField, QQ, kernel_basis_sparse, quotient_basis, rank,
)

from hochschild.algebra import build_algebra
from hochschild.algfile import (
    emit_algebra_file, load_bundled, parse_algebra_file,
)
from hochschild.bimodule import regular_bimodule
from hochschild.cohomology import Cochain, hh
from hochschild.minres import (
    NotMonomial, PartialResolution, _hom_differential,
    build_partial_resolution, chain_paths, hh_via_resolution,
)

from conftest import (
    PRESENTATIONS, cyclic_nakayama_presentation, hereditary_presentation,
    random_monomial_presentation,
)

MONOMIAL = ["nakayama_c", "kite_c", "triangle_c", "triangle_b", "square"]


@pytest.fixture(scope="module")
def resolutions(corpus):
    return {name: build_partial_resolution(corpus[name]) for name in MONOMIAL}


def test_chain_sets_triangle_b(triangle_b):
    chains = chain_paths(triangle_b)
    rels = sorted(p.arrows for p in chains.relations)
    assert rels == [
        ("alpha", "beta"), ("beta", "delta"), ("delta", "alpha"),
        ("delta", "gamma", "delta"),
    ]
    overlaps = sorted(p.arrows for p in chains.overlaps)
    assert overlaps == [
        ("alpha", "beta", "delta"),
        ("beta", "delta", "alpha"),
        ("beta", "delta", "gamma", "delta"),
        ("delta", "alpha", "beta"),
        ("delta", "gamma", "delta", "alpha"),
        ("delta", "gamma", "delta", "gamma", "delta"),
    ]


def test_chain_sets_no_relations(kite_c):
    chains = chain_paths(kite_c)
    assert chains.relations == []
    assert chains.overlaps == []


def test_rejects_non_monomial(nakayama_b):
    with pytest.raises(NotMonomial):
        chain_paths(nakayama_b)


def test_triangle_c_p2_single_summand(resolutions):
    res = resolutions["triangle_c"]
    assert res.summands[2] == [("1", "3")]
    assert res.summands[3] == []


def test_triangle_b_p2_summands(resolutions):
    res = resolutions["triangle_b"]
    assert sorted(res.summands[2]) == [("1", "3"), ("2", "1"),
                                       ("3", "1"), ("3", "2")]
    assert len(res.summands[3]) == 6


def test_differentials_compose_to_zero(resolutions):
    # build_partial_resolution certifies d o d = 0 and exactness; getting
    # the objects at all is the assertion, but recheck one composition
    res = resolutions["triangle_b"]
    d2 = _reference_differential(res, 2)
    d3 = _reference_differential(res, 3)
    assert d2.matmul(d3).is_zero()


def test_hereditary_resolution_exact(resolutions):
    res = resolutions["kite_c"]
    assert res.summands[2] == []
    d1 = _reference_differential(res, 1)
    assert rank(d1) == len(_reference_basis(res, 1))  # injective


def test_hom_rank_bookkeeping_triangle_c(resolutions):
    res = resolutions["triangle_c"]
    # displayed counts: kernel of the first Hom differential is 1 and its
    # image is 2; the next differential is zero on a 3-dimensional space
    assert res.dim(0) == 3
    assert res.dim(0) - res.rank(0) == 1
    assert res.rank(0) == 2
    assert res.dim(1) - res.rank(1) == 3
    assert res.rank(1) == 0


def test_hom_rank_bookkeeping_triangle_b(resolutions):
    res = resolutions["triangle_b"]
    assert res.rank(0) == 3          # image of the degree-1 map
    assert res.dim(0) - res.rank(0) == 2
    assert res.dim(1) - res.rank(1) == 5
    assert res.rank(1) == 0
    assert res.dim(2) - res.rank(2) == 2


def test_dims_triangle_c(corpus, resolutions):
    res = resolutions["triangle_c"]
    assert [hh_via_resolution(corpus["triangle_c"], n, res).dim
            for n in (0, 1, 2)] == [1, 1, 1]


def test_dims_triangle_b(corpus, resolutions):
    res = resolutions["triangle_b"]
    assert [hh_via_resolution(corpus["triangle_b"], n, res).dim
            for n in (0, 1, 2)] == [2, 2, 2]


def test_one_vertex_algebra_dims():
    from hochschild.algebra import build_algebra
    from hochschild.quiver import Presentation, Quiver
    alg = build_algebra(Presentation(Quiver(["pt"], []), relations=[]))
    res = build_partial_resolution(alg)
    assert [hh_via_resolution(alg, n, res).dim for n in (0, 1, 2)] == [1, 0, 0]


@pytest.mark.parametrize("name", MONOMIAL)
def test_resolution_matches_bar_complex(corpus, name):
    # against the normalized representatives, not hh's dim: on monomial
    # input that is read off the resolution itself
    alg = corpus[name]
    reg = regular_bimodule(alg)
    res = build_partial_resolution(alg)  # extended: not the fixture's
    for n in (0, 1, 2, 3):
        assert hh_via_resolution(alg, n, res).dim == \
            len(hh(alg, reg, n).vectors())


def test_degree_guard(corpus):
    # every degree is answered, the resolution extended as far as asked
    alg = corpus["triangle_c"]
    res = build_partial_resolution(alg)
    with pytest.raises(ValueError, match="negative degree -1"):
        hh_via_resolution(alg, -1, res)
    assert [hh_via_resolution(alg, n, res).dim for n in (3, 4)] == \
        [len(hh(alg, regular_bimodule(alg), n).vectors()) for n in (3, 4)]
    assert max(res.summands) == 5


@pytest.mark.parametrize("name", MONOMIAL)
def test_cached_resolution_gives_identical_hh(corpus, resolutions, name,
                                             monkeypatch):
    from hochschild import minres
    from hochschild.algebra import build_algebra
    alg = build_algebra(corpus[name].presentation)
    builds = []

    def counting_build(algebra):
        builds.append(algebra)
        return build_partial_resolution(algebra)

    monkeypatch.setattr(minres, "build_partial_resolution", counting_build)
    first = [hh_via_resolution(alg, n) for n in (0, 1, 2)]
    again = [hh_via_resolution(alg, n) for n in (0, 1, 2)]
    assert builds == [alg]
    fresh = [hh_via_resolution(corpus[name], n, resolutions[name])
             for n in (0, 1, 2)]
    for spaces in (again, fresh):
        assert [s.dim for s in spaces] == [s.dim for s in first]
        assert [s.vectors() for s in spaces] == [s.vectors() for s in first]


@pytest.mark.parametrize("name", MONOMIAL)
def test_repeated_request_returns_the_kept_space(name):
    alg = build_algebra(PRESENTATIONS[name]())
    first = [hh_via_resolution(alg, n) for n in (0, 1, 2)]
    again = [hh_via_resolution(alg, n) for n in (0, 1, 2)]
    assert all(a is b for a, b in zip(first, again))
    res = alg._partial_resolution
    assert all(hh_via_resolution(alg, n, res) is first[n] for n in (0, 1, 2))


# the last degree with a generator: kite_c has no relations, triangle_c
# and square have no overlaps
TOP = {"nakayama_c": 3, "kite_c": 1, "triangle_c": 2, "triangle_b": 3,
       "square": 2}
PERTURBED = [(name, n) for name in MONOMIAL for n in range(1, TOP[name] + 1)]


@pytest.mark.parametrize("name, n", PERTURBED)
def test_certify_catches_a_scaled_coefficient(resolutions, name, n):
    # one coefficient of d^n(e_a (x) e_b) doubled: the generator check of
    # the composite that first reads d^n must fail
    res = resolutions[name]
    assert res.terms[n] and (n < TOP[name] or not res.terms.get(n + 1))
    field = res.algebra.field
    res.certify()
    terms = {k: [list(generator) for generator in v]
             for k, v in res.terms.items()}
    y_idx, u, v, coeff = terms[n][0][0]
    terms[n][0][0] = (y_idx, u, v, field.mul(field.of(2), coeff))
    bad = PartialResolution(res.algebra, res.chains, res.summands, terms)
    message = {1: "augmentation does not kill d^1 of generator 0",
               2: "d^1 o d^2 is not zero on generator 0",
               3: "d^2 o d^3 is not zero on generator 0"}[n]
    with pytest.raises(AssertionError, match=re.escape(message)):
        bad.certify()


@pytest.mark.parametrize("name", MONOMIAL + ["ex3_5_C", "ex5_9_C"])
def test_certification_builds_only_one_sided_differentials(corpus,
                                                           monkeypatch, name):
    # the compositions are checked on generator images, so the
    # augmentation is never built as a matrix and nothing is multiplied;
    # the three ranks read d^1, d^2 and d^3 on the one-sided complex
    # P^* (x)_A A/J, whose P^n has one basis vector per (summand, b_i)
    # with t(b_i) the summand's source
    from hochschild import minres
    alg = corpus[name] if name in corpus else \
        build_algebra(load_bundled(name)[1])
    real = minres.rank
    ranked = []

    def counted(m):
        ranked.append(m)
        return real(m)

    def matmul(*args):
        raise AssertionError("the certification multiplied matrices")

    monkeypatch.setattr(minres, "rank", counted)
    monkeypatch.setattr(Mat, "matmul", matmul)
    res = build_partial_resolution(alg)

    def one_sided(n):
        return sum(t[1] == a for a, _ in res.summands[n] for t in alg.peirce)

    assert one_sided(0) == alg.dim
    assert [(m.rows, m.cols) for m in ranked] == \
        [(alg.dim, one_sided(1)), (one_sided(1), one_sided(2)),
         (one_sided(2), one_sided(3))]


def test_hom_differentials_are_built_once(monkeypatch):
    # hh^0..hh^2 need Hom(d^1), Hom(d^2) and Hom(d^3), each once; the
    # ranks of the resolution's complex reuse them
    from hochschild import minres
    from hochschild.algebra import build_algebra
    from hochschild.algfile import load_bundled
    alg = build_algebra(load_bundled("ex3_5_C")[1])
    build = minres._hom_differential
    builds = []

    def counted(resolution, n):
        builds.append(n)
        return build(resolution, n)

    monkeypatch.setattr(minres, "_hom_differential", counted)
    dims = [hh_via_resolution(alg, n).dim for n in (0, 1, 2)]
    res = minres._partial_resolution(alg)
    assert [res.rank(n) for n in (0, 1, 2)] == \
        [res.differential(n).cols - len(kernel_basis_sparse(
            res.differential(n))) for n in (0, 1, 2)]
    assert sorted(builds) == [1, 2, 3]
    assert dims == [len(hh(alg, regular_bimodule(alg), n).vectors())
                    for n in (0, 1, 2)]


@pytest.mark.parametrize("name", MONOMIAL)
def test_resolution_route_agrees_over_gf2(name):
    data = dict(emit_algebra_file(PRESENTATIONS[name]()), field="Fp:2")
    alg = build_algebra(parse_algebra_file(data))
    reg = regular_bimodule(alg)
    assert [hh_via_resolution(alg, n).dim for n in range(3)] == \
        [len(hh(alg, reg, n).vectors()) for n in range(3)]


@pytest.mark.parametrize("name", MONOMIAL)
def test_resolution_builds_no_second_algebra(monkeypatch, name):
    # the minimal relations are read off the algebra itself, so the
    # resolution route never rebuilds it from its presentation
    from hochschild import algebra as algebra_module
    alg = build_algebra(PRESENTATIONS[name]())
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_algebra(*args, **kwargs)

    monkeypatch.setattr(algebra_module, "build_algebra", counted)
    dims = [hh_via_resolution(alg, n).dim for n in (0, 1, 2)]
    assert builds == []
    assert dims == [len(hh(alg, regular_bimodule(alg), n).vectors())
                    for n in (0, 1, 2)]


# -- the builders against their per-column reference loops ------------------


def _reference_basis(res, n):
    A = res.algebra
    return [(s_idx, i, j) for s_idx, (a, b) in enumerate(res.summands[n])
            for i, t in enumerate(A.peirce) if t[1] == a
            for j, t2 in enumerate(A.peirce) if t2[0] == b]


def _reference_differential(res, n):
    """d^n: P^n -> P^{n-1}, b_i u and v b_j recomputed for every column."""
    A = res.algebra
    field = A.field
    src = _reference_basis(res, n)
    tgt = _reference_basis(res, n - 1)
    pos = {t: k for k, t in enumerate(tgt)}
    cols = {}
    for col_idx, (s_idx, i, j) in enumerate(src):
        col = {}
        for (y_idx, u, v, coeff) in res.terms[n][s_idx]:
            ui = A.multiply_coords({i: field.one}, u)
            vj = A.multiply_coords(v, {j: field.one})
            for bi, cu in ui.items():
                for bj, cv in vj.items():
                    key = pos[(y_idx, bi, bj)]
                    w = field.add(col.get(key, field.zero),
                                  field.mul(field.mul(cu, cv), coeff))
                    if w:
                        col[key] = w
                    elif key in col:
                        del col[key]
        if col:
            cols[col_idx] = col
    return Mat(len(tgt), len(src), field, cols)


def _reference_hom_differential(res, n):
    """Hom(d^n, A), every column scanning every term."""
    A = res.algebra
    field = A.field
    src = res._hom_blocks(n - 1)
    tgt = res._hom_blocks(n)
    tgt_pos = {t: k for k, t in enumerate(tgt)}
    cols = {}
    for col_idx, (y_idx, m) in enumerate(src):
        col = {}
        for x_idx, lst in enumerate(res.terms[n]):
            for (y2, u, v, coeff) in lst:
                if y2 != y_idx:
                    continue
                val = A.multiply_coords(A.multiply_coords(u, {m: field.one}),
                                        v)
                for m2, c in val.items():
                    key = tgt_pos[(x_idx, m2)]
                    w = field.add(col.get(key, field.zero),
                                  field.mul(coeff, c))
                    if w:
                        col[key] = w
                    elif key in col:
                        del col[key]
        if col:
            cols[col_idx] = col
    return Mat(len(tgt), len(src), field, cols)


GF = PrimeField(10007)
GENERATED = {
    **{f"nakayama{n}_{length}-{tag}":
       (lambda n=n, length=length, field=field:
        cyclic_nakayama_presentation(n, length, field))
       for n, length in ((2, 2), (3, 2), (2, 3), (3, 4))
       for tag, field in (("Q", QQ), ("GF", GF))},
    **{f"{'shortcut' if s else 'A'}{n}-{tag}":
       (lambda n=n, s=s, field=field: hereditary_presentation(n, s, field))
       for n, s in ((3, False), (5, False), (4, True), (6, True))
       for tag, field in (("Q", QQ), ("GF", GF))},
}


@pytest.mark.parametrize("name", MONOMIAL + list(GENERATED))
def test_builders_match_per_column_loops(corpus, name):
    # the Hom builder groups the terms of d^n by target once; each matrix
    # must equal the per-column loop entry for entry
    alg = corpus[name] if name in corpus else \
        build_algebra(GENERATED[name]())
    res = build_partial_resolution(alg)
    for n in (1, 2, 3):
        assert res.differential(n - 1) == \
            _reference_hom_differential(res, n)


@pytest.mark.parametrize("name", MONOMIAL + list(GENERATED))
def test_resolution_representatives_are_the_old_quotient(corpus, name):
    # CohomologySpace on the resolution gives the representatives the
    # route computed before it took the space: the kernel of Hom(d^{n+1})
    # modulo the columns of Hom(d^n), through quotient_basis
    alg = corpus[name] if name in corpus else \
        build_algebra(GENERATED[name]())
    res = build_partial_resolution(alg)
    for n in (0, 1, 2):
        boundaries = [] if n == 0 else [
            c for _, c in _hom_differential(res, n).columns_items()]
        want, _ = quotient_basis(
            alg.field, kernel_basis_sparse(_hom_differential(res, n + 1)),
            boundaries)
        space = hh_via_resolution(alg, n, res)
        assert space.backend == "resolution"
        assert space.vectors() == want
        assert space.representatives == want
        assert space.dim == len(want)
        # its vectors are Hom-block vectors: no cochain maps into them
        with pytest.raises(TypeError, match="takes no cochains"):
            space.class_coords(Cochain(alg, space.module, n))


# -- the one-sided certificate against the concrete one ---------------------


def _reference_verdict(res):
    """The certificate over the bimodule basis b_i (x) b_j: mu and each
    d^n as concrete matrices, the composites by matmul, and exactness at
    P^0, P^1 and P^2 from the bimodule ranks of d^1, d^2 and d^3.  The
    message
    certify() raises, without its generator, or None when it accepts."""
    A = res.algebra
    field = A.field
    mu = Mat(A.dim, len(_reference_basis(res, 0)), field, {
        k: col for k, (_, i, j) in enumerate(_reference_basis(res, 0))
        if (col := A.multiply_coords({i: field.one}, {j: field.one}))})
    d = {n: _reference_differential(res, n) for n in (1, 2, 3)}
    if not mu.matmul(d[1]).is_zero():
        return "augmentation does not kill d^1"
    for n in (2, 3):
        if not d[n - 1].matmul(d[n]).is_zero():
            return f"d^{n - 1} o d^{n} is not zero"
    rank1 = rank(d[1])
    if rank1 != d[1].rows - A.dim:
        return "resolution is not exact at P^0"
    rank2 = rank(d[2])
    if rank2 != d[2].rows - rank1:
        return "resolution is not exact at P^1"
    if rank(d[3]) != d[3].rows - rank2:
        return "resolution is not exact at P^2"
    return None


def _verdict(res):
    try:
        res.certify()
    except AssertionError as exc:
        return re.sub(r" (of|on) generator \d+$", "", str(exc))
    return None


def _dropped(res, n):
    """res without the last summand of P^n, its d^n generator and the
    terms of d^{n+1} that land in it."""
    last = len(res.summands[n]) - 1
    summands, terms = dict(res.summands), dict(res.terms)
    summands[n], terms[n] = summands[n][:-1], terms[n][:-1]
    if n + 1 in terms:
        terms[n + 1] = [[t for t in generator if t[0] != last]
                        for generator in terms[n + 1]]
    return PartialResolution(res.algebra, res.chains, summands, terms)


def _scaled(res, n):
    """res with the first coefficient of d^n(g_0) doubled."""
    field = res.algebra.field
    terms = dict(res.terms)
    (y, u, v, c), *rest = terms[n][0]
    terms[n] = [[(y, u, v, field.mul(field.of(2), c))] + rest] + terms[n][1:]
    return PartialResolution(res.algebra, res.chains, res.summands, terms)


AGREEMENT = {
    **{name: (lambda name=name: PRESENTATIONS[name]()) for name in MONOMIAL},
    **GENERATED,
    **{name: (lambda name=name: load_bundled(name)[1])
       for name in ("ex3_5_C", "ex5_9_C")},
    **{f"random{seed}": (lambda seed=seed: random_monomial_presentation(seed))
       for seed in range(10)},
}

# a dropped arrow summand is caught at d^1 o d^2 or at P^0, a dropped
# relation summand at d^2 o d^3 or at P^1, and a dropped overlap summand
# at P^2
DROPPED = {
    1: {"d^1 o d^2 is not zero", "resolution is not exact at P^0"},
    2: {"d^2 o d^3 is not zero", "resolution is not exact at P^1"},
    3: {"resolution is not exact at P^2"},
}


@pytest.mark.parametrize("name", list(AGREEMENT))
def test_one_sided_certificate_agrees_with_the_concrete_one(name):
    res = build_partial_resolution(build_algebra(AGREEMENT[name]()))
    assert _verdict(res) is _reference_verdict(res) is None
    for n, want in DROPPED.items():
        if res.summands[n]:
            bad = _dropped(res, n)
            assert _verdict(bad) == _reference_verdict(bad)
            assert _verdict(bad) in want
    for n in (1, 2, 3):
        if res.terms[n]:
            bad = _scaled(res, n)
            assert _verdict(bad) == _reference_verdict(bad) is not None
