import itertools

import pytest
from hypothesis import assume, given, strategies as st

import hochschild.algebra as algebra_module
import hochschild.relext as relext
from hochschild.algebra import AdmissibilityError
from hochschild.algfile import load_bundled
from hochschild.linalg import QQ
from hochschild.quiver import Path, PathSum, Presentation, Quiver, paths_up_to
from hochschild.relext import (
    Potential, crosscheck_with_trivial_extension, cyclic_derivative,
    keller_potential, relation_extension_algebra, relation_extension_quiver,
)

from conftest import (
    _TruncatedIdeal, kite_c_presentation, square_presentation,
    triangle_c_presentation,
)


@pytest.fixture(scope="module")
def triangle_rext():
    return relation_extension_algebra(triangle_c_presentation())


def test_new_arrow_for_single_relation():
    qb, new = relation_extension_quiver(triangle_c_presentation())
    assert len(new) == 1
    name, rho = new[0]
    assert name == "rel0"
    arrow = qb.arrow_by_name[name]
    # the relation runs 1 -> 3, so the new arrow runs 3 -> 1
    assert (arrow.source, arrow.target) == ("3", "1")
    assert rho.endpoints() == ("1", "3")


def test_hereditary_keeps_quiver():
    qb, new = relation_extension_quiver(kite_c_presentation())
    assert new == []
    assert len(qb.arrows) == 3


def test_two_parallel_new_arrows_for_square():
    qb, new = relation_extension_quiver(square_presentation())
    assert len(new) == 2
    ends = {(qb.arrow_by_name[n].source, qb.arrow_by_name[n].target)
            for n, _ in new}
    assert ends == {("4", "1")}


def test_non_triangular_rejected(nakayama_c):
    with pytest.raises(ValueError):
        relation_extension_quiver(nakayama_c.presentation)


def test_keller_potential_single_cycle():
    qb, new = relation_extension_quiver(triangle_c_presentation())
    w = keller_potential(qb, new)
    assert w.cycles() == [("alpha", "beta", "rel0")]


def test_keller_potential_two_terms_square():
    qb, new = relation_extension_quiver(square_presentation())
    w = keller_potential(qb, new)
    assert len(w.cycles()) == 2


def test_keller_potential_empty():
    qb, new = relation_extension_quiver(kite_c_presentation())
    assert keller_potential(qb, new).is_zero()


def test_cyclic_derivatives_of_triangle_potential():
    qb, new = relation_extension_quiver(triangle_c_presentation())
    w = keller_potential(qb, new)
    d_delta = cyclic_derivative(w, "rel0")
    assert [p.arrows for p in d_delta.paths()] == [("alpha", "beta")]
    d_alpha = cyclic_derivative(w, "alpha")
    assert [p.arrows for p in d_alpha.paths()] == [("beta", "rel0")]
    d_beta = cyclic_derivative(w, "beta")
    assert [p.arrows for p in d_beta.paths()] == [("rel0", "alpha")]
    assert cyclic_derivative(w, "gamma").is_zero()


def test_cyclic_derivative_rotation_invariant():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"),
                                 ("c", "3", "1")])
    w1 = Potential(q)
    w1.add_cycle(("a", "b", "c"), 1)
    w2 = Potential(q)
    w2.add_cycle(("b", "c", "a"), 1)
    for arrow in ("a", "b", "c"):
        assert cyclic_derivative(w1, arrow) == cyclic_derivative(w2, arrow)


def test_cyclic_derivative_double_occurrence():
    q = Quiver(["v"], [("a", "v", "v")])
    w = Potential(q)
    w.add_cycle(("a", "a"), 1)
    d = cyclic_derivative(w, "a")
    assert d.terms == {Path("v", "v", ("a",)): 2}


def test_cyclic_derivative_missing_arrow():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"),
                                 ("c", "3", "1"), ("d", "3", "1")])
    w = Potential(q)
    w.add_cycle(("a", "b", "c"), 1)
    assert cyclic_derivative(w, "d").is_zero()


def test_triangle_relation_extension_algebra(triangle_rext):
    data, algebra_b = triangle_rext
    words = sorted(tuple(p.arrows) for r in data.relations for p in r.paths())
    assert words == [
        ("alpha", "beta"),
        ("beta", "rel0"),
        ("rel0", "alpha"),
        ("rel0", "gamma", "rel0"),
    ]
    assert algebra_b.dim == 10
    # the doubled-overlap generator through the dead composite is implied
    implied = [tuple(p.arrows) for r in data.implied_square_generators
               for p in r.paths()]
    assert implied == [("rel0", "alpha", "beta", "rel0")]


def test_triangle_b_matches_handwritten(triangle_rext, triangle_b):
    _, algebra_b = triangle_rext
    assert algebra_b.dim == triangle_b.dim
    assert sorted(algebra_b.labels) == sorted(
        l.replace("delta", "rel0") for l in triangle_b.labels)


def test_hereditary_relation_extension_is_identity():
    data, algebra_b = relation_extension_algebra(kite_c_presentation())
    assert data.relations == []
    assert algebra_b.dim == 7


def test_square_relation_extension_dims():
    data, algebra_b = relation_extension_algebra(square_presentation())
    # each new arrow generates a four-dimensional sub-bimodule:
    # rel0 spans {rel0, rel0*b, d*rel0, d*rel0*b} and rel1 its mirror
    assert algebra_b.dim == 8 + 8
    assert len(data.new_arrows) == 2


def test_crosscheck_triangle():
    report = crosscheck_with_trivial_extension(triangle_c_presentation())
    assert report["pass"]
    assert report["dim_B"] == 10
    assert report["dim_C"] == 6
    assert report["dim_E2"] == 4
    deg1 = [c for c in report["kernel_sequence"]["checks"]
            if c["name"] == "degree 1 sequence"]
    assert deg1 and deg1[0]["dims"] == [2, 1, 0, 1]
    assert report["growth_bound"]["equality_expected"]
    assert report["growth_bound"]["equality_holds"]


def test_crosscheck_hereditary():
    report = crosscheck_with_trivial_extension(kite_c_presentation())
    assert report["pass"]
    assert report["dim_B"] == report["dim_C"]


def test_crosscheck_square():
    report = crosscheck_with_trivial_extension(square_presentation())
    assert report["pass"]
    assert report["dim_B"] == report["dim_C"] + report["dim_E2"]
    assert report["dim_E2"] == 8


def test_new_arrow_counts_match_graded_pieces():
    # the number of new arrows x -> y equals the dimension of the (y, x)
    # piece of I/(JI + IJ), computed through the minimal system directly
    from hochschild.algebra import system_of_relations
    pres = square_presentation()
    rels = system_of_relations(pres)
    counts = {}
    for rho in rels:
        x, y = rho.endpoints()
        counts[(y, x)] = counts.get((y, x), 0) + 1
    qb, new = relation_extension_quiver(pres)
    got = {}
    for name, _ in new:
        a = qb.arrow_by_name[name]
        got[(a.source, a.target)] = got.get((a.source, a.target), 0) + 1
    assert got == counts


def test_crosscheck_builds_each_algebra_once(monkeypatch):
    # C is built once and handed to relext, whose minimal system of
    # relations reads it; the other build is B
    real = algebra_module.build_algebra
    built = []

    def build(pres, *args, **kwargs):
        built.append(pres)
        return real(pres, *args, **kwargs)

    monkeypatch.setattr(algebra_module, "build_algebra", build)
    monkeypatch.setattr(relext, "build_algebra", build)
    pres = load_bundled("ex5_9_C")[1]
    assert crosscheck_with_trivial_extension(pres)["pass"]
    assert len(built) == 2
    assert built[0] is pres
    assert "rel0" in built[1].quiver.arrow_by_name


def test_relext_of_the_algebra_equals_that_of_its_presentation():
    pres = load_bundled("ex5_9_C")[1]
    from_pres, b1 = relation_extension_algebra(pres)
    C = algebra_module.build_algebra(pres)
    from_alg, b2 = relation_extension_algebra(C)
    assert from_alg.relations == from_pres.relations
    assert from_alg.implied_square_generators == \
        from_pres.implied_square_generators
    assert (b1.labels, b1.structure) == (b2.labels, b2.structure)


def test_padding_path_space_is_guarded(monkeypatch):
    # the paths enumerated for J^(L+1) are refused past the guard, as the
    # truncated span refused its path space
    monkeypatch.setattr(relext, "_PATH_GUARD", 50)
    with pytest.raises(AdmissibilityError, match="exceeds 50 paths"):
        relation_extension_algebra(square_presentation())


def replay_against_the_truncated_span(data):
    """Replays relext's square-generator candidates in their order: each
    must be implied exactly when the truncated span at L = len(c) + 2 of
    the relations accepted before it contains it.  A span is rebuilt only
    when L or the accepted relations change.  Returns the number of
    candidates."""
    field = data.base.field
    verdicts = sorted(
        [(g.paths()[0], True) for g in data.square_generators] +
        [(g.paths()[0], False) for g in data.implied_square_generators],
        key=lambda v: v[0].sort_key())
    current = list(data.jacobian_relations)
    ideal = None
    for cand, kept in verdicts:
        if ideal is None or ideal.L != len(cand) + 2:
            probe = Presentation(data.quiver, field, current)
            ideal = _TruncatedIdeal(probe, len(cand) + 2)
        assert bool(ideal.normal_form(cand)) == kept, cand
        if kept:
            current.append(PathSum({cand: field.one}, field))
            ideal = None
    return len(verdicts)


@pytest.mark.parametrize("name, count",
                         [("ex5_9_C", 2), ("square", 8), ("ex3_8_C", 0)])
def test_bundled_verdicts_equal_the_truncated_span(name, count):
    data, _ = relation_extension_algebra(load_bundled(name)[1])
    assert replay_against_the_truncated_span(data) == count


@st.composite
def acyclic_presentations(draw):
    """An acyclic quiver on three to five vertices with two to six arrows,
    each from a lower vertex to a higher one, bound by one or two
    relations when it has paths of length 2 or 3: such a path, or, at
    even odds when two of them are parallel, their difference (a
    commutativity relation)."""
    size = draw(st.integers(3, 5))
    arrows = []
    for k in range(draw(st.integers(2, 6))):
        s = draw(st.integers(0, size - 2))
        arrows.append((f"a{k}", str(s),
                       str(draw(st.integers(s + 1, size - 1)))))
    quiver = Quiver([str(v) for v in range(size)], arrows)
    paths = [p for p in paths_up_to(quiver, 3) if len(p) >= 2]
    parallel = [(p, q) for p, q in itertools.combinations(paths, 2)
                if (p.source, p.target) == (q.source, q.target)]
    relations = []
    for _ in range(draw(st.integers(1, 2)) if paths else 0):
        if parallel and draw(st.booleans()):
            p, q = draw(st.sampled_from(parallel))
            relations.append(PathSum({p: 1, q: -1}, QQ))
        else:
            relations.append(PathSum({draw(st.sampled_from(paths)): 1}, QQ))
    return Presentation(quiver, QQ, relations)


@given(acyclic_presentations())
def test_generated_verdicts_equal_the_truncated_span(pres):
    # the truncated span costs about the square of its path space, so
    # draws whose longest candidate spans more than 600 paths are left out
    data, _ = relation_extension_algebra(pres)
    top = max((len(g.paths()[0]) for g in data.square_generators +
               data.implied_square_generators), default=0) + 2
    assume(len(paths_up_to(data.quiver, top)) <= 600)
    replay_against_the_truncated_span(data)
