import pytest

from hochschild.algebra import build_algebra
from hochschild.algfile import emit_algebra_file, parse_algebra_file
from hochschild.bimodule import regular_bimodule
from hochschild.cohomology import hh
from hochschild.minres import (
    NotMonomial, build_partial_resolution, chain_paths, hh_via_resolution,
    hom_complex_ranks,
)

from conftest import PRESENTATIONS

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
    d2 = res.differential_matrix(2)
    d3 = res.differential_matrix(3)
    assert d2.matmul(d3).is_zero()


def test_hereditary_resolution_exact(resolutions):
    res = resolutions["kite_c"]
    assert res.summands[2] == []
    d1 = res.differential_matrix(1)
    from hochschild.linalg import rank
    assert rank(d1) == len(res.projective_basis(1))  # injective


def test_hom_rank_bookkeeping_triangle_c(resolutions):
    ranks = hom_complex_ranks(resolutions["triangle_c"])
    # displayed counts: kernel of the first Hom differential is 1 and its
    # image is 2; the next differential is zero on a 3-dimensional space
    assert ranks[1]["cols"] == 3
    assert ranks[1]["kernel"] == 1
    assert ranks[1]["rank"] == 2
    assert ranks[2]["kernel"] == 3
    assert ranks[2]["rank"] == 0


def test_hom_rank_bookkeeping_triangle_b(resolutions):
    ranks = hom_complex_ranks(resolutions["triangle_b"])
    assert ranks[1]["rank"] == 3          # image of the degree-1 map
    assert ranks[1]["cols"] - ranks[1]["rank"] == 2
    assert ranks[2]["kernel"] == 5
    assert ranks[2]["rank"] == 0
    assert ranks[3]["kernel"] == 2


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
def test_resolution_matches_bar_complex(corpus, resolutions, name):
    alg = corpus[name]
    reg = regular_bimodule(alg)
    res = resolutions[name]
    for n in (0, 1, 2):
        assert hh_via_resolution(alg, n, res).dim == hh(alg, reg, n).dim


def test_degree_guard(corpus, resolutions):
    with pytest.raises(ValueError):
        hh_via_resolution(corpus["triangle_c"], 3, resolutions["triangle_c"])


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
    assert first == again == fresh


def test_hom_differentials_are_built_once(monkeypatch):
    # hh^0..hh^2 need Hom(d^1), Hom(d^2) and Hom(d^3), each once; the
    # bookkeeping of hom_complex_ranks reuses them
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
    hom_complex_ranks(minres._partial_resolution(alg))
    assert sorted(builds) == [1, 2, 3]
    assert dims == [hh(alg, regular_bimodule(alg), n).dim for n in (0, 1, 2)]


@pytest.mark.parametrize("name", MONOMIAL)
def test_resolution_route_agrees_over_gf2(name):
    data = dict(emit_algebra_file(PRESENTATIONS[name]()), field="Fp:2")
    alg = build_algebra(parse_algebra_file(data))
    reg = regular_bimodule(alg)
    assert [hh_via_resolution(alg, n).dim for n in range(3)] == \
        [hh(alg, reg, n).dim for n in range(3)]


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
    assert dims == [hh(alg, regular_bimodule(alg), n).dim for n in (0, 1, 2)]
