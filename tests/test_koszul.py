"""The Koszul resolution of a quadratic algebra: its dims against the
normalized complex, its chains against Bardzell's on monomial input, its
certificate against broken copies, and the fallback where it is not
exact."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from hochschild.algebra import build_algebra
from hochschild.algfile import load_bundled
from hochschild.bimodule import regular_bimodule
from hochschild.cohomology import (
    CapExceeded, CohomologySpace, NormalizedComplex, hh,
)
from hochschild.linalg import PrimeField, QQ
from hochschild.minres import (
    KoszulResolution, build_partial_resolution,
)
from hochschild.quiver import Path, PathSum, Presentation, Quiver

from conftest import (
    PRESENTATIONS, assert_broken_copies_refused,
    commutative_ladder_presentation, family_presentation,
    hereditary_presentation, quantum_plane_presentation,
)

GF7 = PrimeField(7)
QUADRATIC = {
    **{f"qplane{q}-{tag}":
       (lambda q=q, field=field: quantum_plane_presentation(q, field))
       for q in (1, -1, Fraction(1, 3), Fraction(-9, 2))
       for tag, field in (("Q", QQ), ("GF7", GF7))},
    **{f"{'shortcut' if s else 'A'}{n}":
       (lambda n=n, s=s: hereditary_presentation(n, s))
       for n, s in ((3, False), (5, False), (4, True), (5, True))},
    **{f"ladder{m}": (lambda m=m: commutative_ladder_presentation(m))
       for m in (2, 3)},
    **{name: (lambda name=name: load_bundled(name)[1])
       for name in ("ex3_5_B", "ex3_8_C")},
}


def _koszul_dims_match(pres, top):
    """hh^0..hh^top read first (on the Koszul complex where it reaches),
    then the normalized representatives, which `vectors` checks against
    that dim; the degrees the Koszul complex answered."""
    alg = build_algebra(pres)
    reg = regular_bimodule(alg)
    answered = []
    for n in range(top + 1):
        try:
            space = hh(alg, reg, n)
        except CapExceeded:
            break
        dim = space.dim
        if isinstance(space._dims_complex, KoszulResolution):
            answered.append(n)
        assert len(space.vectors()) == dim
    return answered


@pytest.mark.parametrize("name", list(QUADRATIC))
def test_koszul_dims_equal_the_normalized_vector_count(name):
    top = 4 if name.startswith("qplane") else 3
    assert _koszul_dims_match(QUADRATIC[name](), top) == list(range(top + 1))


@st.composite
def quadratic_presentations(draw):
    """An acyclic quiver on three or four vertices and random linear
    combinations of its parallel paths of length 2 as relations."""
    size = draw(st.integers(3, 4))
    arrows = []
    for k in range(draw(st.integers(2, 6))):
        s = draw(st.integers(0, size - 2))
        arrows.append((f"a{k}", str(s), str(draw(st.integers(s + 1,
                                                             size - 1)))))
    quiver = Quiver([str(v) for v in range(size)], arrows)
    pieces = {}
    for a in quiver.arrows:
        for b in quiver.arrows_from(a.target):
            pieces.setdefault((a.source, b.target), []).append(
                Path(a.source, b.target, (a.name, b.name)))
    relations = []
    for _, paths in sorted(pieces.items()):
        for _ in range(draw(st.integers(0, len(paths)))):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(paths),
                                   max_size=len(paths)))
            rel = PathSum(list(zip(paths, coeffs)), QQ)
            if not rel.is_zero():
                relations.append(rel)
    return Presentation(quiver, QQ, relations)


@given(quadratic_presentations())
def test_koszul_dims_on_generated_quadratic_presentations(pres):
    alg = build_algebra(pres)
    assume(alg.nilpotency > 2)
    assert _koszul_dims_match(pres, 3)


def _words(res, n):
    """The K_n basis of a Koszul resolution as {arrow word: coeff}."""
    quiver = res.algebra.presentation.quiver
    names = [p.arrows[0] for p in sorted(
        (quiver.arrow_path(a.name) for a in quiver.arrows),
        key=lambda p: p.sort_key())]
    out = []
    for path in res._paths[n]:
        words = {}
        for code, c in path.items():
            word = []
            for _ in range(n):
                code, a = divmod(code, len(names))
                word.append(names[a])
            words[tuple(reversed(word))] = c
        out.append(words)
    return out


MONOMIAL_QUADRATIC = {
    "kite_c": PRESENTATIONS["kite_c"],
    "linear5": lambda: family_presentation(
        [str(i) for i in range(5)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(4)],
        ["a0*a1", "a2*a3"]),
    "nakayama3": lambda: family_presentation(
        ["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2"), ("c", "2", "0")],
        ["a*b", "b*c"]),
    "loop_and_arrow": lambda: family_presentation(
        ["0", "1"], [("x", "0", "0"), ("a", "0", "1")], ["x*x"]),
}


@pytest.mark.parametrize("name", list(MONOMIAL_QUADRATIC))
def test_monomial_koszul_chains_are_bardzells(name):
    alg = build_algebra(MONOMIAL_QUADRATIC[name]())
    assert alg.nilpotency > 2
    res = KoszulResolution(alg)
    assert res.reach(5)
    bardzell = build_partial_resolution(alg)
    assert bardzell.reach(5)
    for n in range(1, 7):
        chains = [p for p, _ in bardzell.chains[n]]
        assert sorted(res.summands[n]) == sorted(
            (p.source, p.target) for p in chains)
        assert sorted(list(w.items()) for w in _words(res, n)) == \
            sorted([(p.arrows, 1)] for p in chains)
    assert res.summands[0] == bardzell.summands[0]


@pytest.mark.parametrize("q", [Fraction(1, 3), -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_certify_rejects_a_broken_koszul_differential(q, n):
    res = KoszulResolution(build_algebra(quantum_plane_presentation(q)))
    assert res.reach(4)
    assert_broken_copies_refused(res, n, 5)


def test_non_koszul_algebra_falls_back_from_the_first_inexact_degree():
    # quadratic and dim 7, but the Koszul complex is not exact at P^2
    # (the numerical Koszul criterion fails too: H_A(t) K(-t) has t^4
    # coefficient 1), so hh^2 on is read on the normalized complex
    field = PrimeField(101)
    pres = family_presentation(
        ["0"], [("x", "0", "0"), ("y", "0", "0"), ("z", "0", "0")],
        ["x*x - 48*y*x", "x*y", "y*z - 72*z*x", "x*x - 98*y*y", "x*z",
         "x*x - 35*z*z"], field)
    alg = build_algebra(pres)
    assert (alg.dim, alg.nilpotency) == (7, 3)
    reg = regular_bimodule(alg)
    spaces = [hh(alg, reg, n) for n in range(5)]
    dims = [s.dim for s in spaces]
    res = alg._koszul_resolution
    assert (res.exact_to, res.stuck) == (1, True)
    assert [isinstance(s._dims_complex, KoszulResolution)
            for s in spaces] == [True, True, False, False, False]
    fresh = build_algebra(pres)
    freg = regular_bimodule(fresh)
    assert dims == [CohomologySpace(NormalizedComplex(fresh, freg), n).dim
                    for n in range(5)] == [4, 7, 10, 19, 43]
    assert [len(s.vectors()) for s in spaces] == dims


@pytest.mark.parametrize("q", [1, -1, Fraction(1, 3), Fraction(-9, 2)])
def test_quantum_plane_dims_build_no_normalized_differential(monkeypatch, q):
    # the dims are the Koszul complex's; the normalized differentials are
    # built only when vectors are asked for, and give the vectors that a
    # space of the normalized complex alone gives
    built = []
    real = NormalizedComplex.differential

    def counted(self, n):
        built.append(n)
        return real(self, n)

    monkeypatch.setattr(NormalizedComplex, "differential", counted)
    alg = build_algebra(quantum_plane_presentation(q))
    reg = regular_bimodule(alg)
    spaces = [hh(alg, reg, n) for n in range(6)]
    dims = [s.dim for s in spaces]
    assert built == []
    fresh = build_algebra(quantum_plane_presentation(q))
    freg = regular_bimodule(fresh)
    want = [CohomologySpace(NormalizedComplex(fresh, freg), n).vectors()
            for n in range(6)]
    assert [s.vectors() for s in spaces] == want
    assert [len(v) for v in want] == dims


def test_corrupted_koszul_rank_is_caught():
    # the normalized representatives are counted against the Koszul dim
    alg = build_algebra(quantum_plane_presentation(Fraction(1, 3)))
    space = hh(alg, regular_bimodule(alg), 2)
    assert space.dim == 1
    alg._koszul_resolution.ranks[2] += 1
    with pytest.raises(AssertionError, match=r"hh\^2 on the normalized "
                       r"complex: 1 representatives but dim 0 from the "
                       r"koszul complex"):
        space.vectors()
