"""Bardzell's resolution of a monomial algebra in every degree: its dims
against the normalized complex and closed forms, its chains against the
global-dimension hypothesis of relation extensions, its certificate
against broken copies, and the one resolution that `hh` and
`hh_via_resolution` share."""

import pytest
from hypothesis import given, strategies as st

from hochschild.algebra import build_algebra
from hochschild.algfile import load_bundled
from hochschild.bimodule import regular_bimodule
from hochschild.cohomology import NormalizedComplex, hh
from hochschild.linalg import PrimeField, QQ
from hochschild.minres import (
    BardzellResolution, build_partial_resolution, hh_via_resolution,
)
from hochschild.quiver import PathSum, Presentation, Quiver, paths_up_to
from hochschild.relext import relation_extension_algebra

from conftest import (
    PRESENTATIONS, assert_broken_copies_refused, cyclic_nakayama_presentation,
    family_presentation, truncated_presentation,
)

GF = PrimeField(10007)


def _dims_agree(pres, top):
    """hh^0..hh^top of the regular bimodule, each dim read first, then
    counted by the normalized representatives (which `vectors` checks
    against the complex that gave the dim) and by the resolution route;
    the dims, and whether Bardzell's resolution gave each.  The bar cap
    is lifted: these normalized complexes are far smaller than it."""
    alg = build_algebra(pres)
    reg = regular_bimodule(alg)
    dims, bardzell = [], []
    for n in range(top + 1):
        space = hh(alg, reg, n, cap=10 ** 12)
        dims.append(space.dim)
        bardzell.append(space._dims_complex is
                        getattr(alg, "_partial_resolution", None))
        assert len(space.vectors()) == dims[-1] == \
            hh_via_resolution(alg, n).dim
    return dims, bardzell


# the last degree whose normalized representatives are cheap to compare
TRUNCATED_TOP = {2: 8, 3: 8, 4: 5, 5: 4, 6: 3}


@pytest.mark.parametrize("length", range(2, 7))
def test_truncated_polynomial_dims(length):
    # k[x]/(x^L) over Q: L, then L - 1 in every degree
    want = [length] + [length - 1] * 8
    alg = build_algebra(truncated_presentation(length))
    assert [hh_via_resolution(alg, n).dim for n in range(9)] == want
    dims, bardzell = _dims_agree(truncated_presentation(length),
                                 TRUNCATED_TOP[length])
    assert dims == want[:len(dims)]
    # x^2 = 0 has J^2 = 0, where the normalized complex answers alone
    assert bardzell == [length > 2] * len(dims)


def linear_nakayama_presentation(n, length, field=QQ):
    """A linear n-quiver with every path of the given length killed."""
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    rels = ["*".join(f"a{i + k}" for k in range(length))
            for i in range(n - length)]
    return family_presentation([str(i) for i in range(n)], arrows, rels,
                               field)


NAKAYAMA = {
    **{f"cyclic{n}_{length}-{tag}":
       (lambda n=n, length=length, field=field:
        cyclic_nakayama_presentation(n, length, field), top)
       for n, length, top in ((2, 3, 6), (3, 4, 4), (2, 7, 3))
       for tag, field in (("Q", QQ), ("GF", GF))},
    **{f"linear{n}_{length}-{tag}":
       (lambda n=n, length=length, field=field:
        linear_nakayama_presentation(n, length, field), top)
       for n, length, top in ((5, 3, 5), (6, 4, 5), (9, 7, 4))
       for tag, field in (("Q", QQ), ("GF", GF))},
}


@pytest.mark.parametrize("name", list(NAKAYAMA))
def test_nakayama_dims_equal_the_normalized_vector_count(name):
    pres, top = NAKAYAMA[name]
    _, bardzell = _dims_agree(pres(), top)
    assert all(bardzell)


@st.composite
def monomial_presentations(draw):
    """An acyclic quiver on two to four vertices, with a loop x at its
    first vertex killed at x^k or not, and up to six of its paths of
    length 2 to 4 as relations: finite-dimensional by construction."""
    size = draw(st.integers(2, 4))
    arrows = []
    for k in range(draw(st.integers(1, 5))):
        s = draw(st.integers(0, size - 2))
        arrows.append((f"a{k}", str(s), str(draw(st.integers(s + 1,
                                                             size - 1)))))
    power = draw(st.sampled_from([0, 2, 3, 4]))
    if power:
        arrows.append(("x", "0", "0"))
    quiver = Quiver([str(v) for v in range(size)], arrows)
    paths = [p for p in paths_up_to(quiver, 4) if len(p) >= 2]
    chosen = draw(st.sets(st.sampled_from(range(len(paths))), max_size=6)) \
        if paths else set()
    words = [paths[i] for i in sorted(chosen)]
    if power:
        words.append(quiver.path(*["x"] * power))
    return Presentation(quiver, QQ, [PathSum({p: 1}, QQ) for p in words])


@given(monomial_presentations())
def test_dims_on_generated_monomial_presentations(pres):
    _dims_agree(pres, 3)


BROKEN = {
    "trunc3": lambda: truncated_presentation(3),
    "cyclic2_3": lambda: cyclic_nakayama_presentation(2, 3),
    "relext": lambda: relation_extension_algebra(
        load_bundled("ex5_9_C")[1])[1].presentation,
}


@pytest.mark.parametrize("name", list(BROKEN))
@pytest.mark.parametrize("n", [4, 5])
def test_certify_refuses_a_broken_degree(name, n):
    res = build_partial_resolution(build_algebra(BROKEN[name]()))
    assert res.reach(n) and res.summands[n]
    assert_broken_copies_refused(res, n, n + 1)


@pytest.mark.parametrize("name", ["ex5_9_C", "square", "kite_c",
                                  "triangle_c"])
def test_relation_extension_inputs_have_global_dimension_two(name):
    # a monomial algebra has global dimension at most 2 exactly when
    # AP_3 is empty, the hypothesis of relext's construction
    pres = load_bundled(name)[1] if name == "ex5_9_C" else \
        PRESENTATIONS[name]()
    assert build_partial_resolution(build_algebra(pres)).chains[3] == []


def test_relation_extension_of_ex5_9_has_overlaps():
    _, algebra_b = relation_extension_algebra(load_bundled("ex5_9_C")[1])
    assert build_partial_resolution(algebra_b).chains[3]


def test_truncated_dims_build_no_normalized_differential(monkeypatch):
    built = []
    real = NormalizedComplex.differential

    def counted(self, n):
        built.append(n)
        return real(self, n)

    monkeypatch.setattr(NormalizedComplex, "differential", counted)
    alg = build_algebra(truncated_presentation(3))
    reg = regular_bimodule(alg)
    assert [hh(alg, reg, n).dim for n in range(8)] == [3] + [2] * 7
    assert built == []


def test_hh_and_the_resolution_route_share_one_resolution(monkeypatch):
    builds = []
    real = BardzellResolution.__init__

    def counted(self, algebra):
        builds.append(id(algebra))
        real(self, algebra)

    monkeypatch.setattr(BardzellResolution, "__init__", counted)
    algebras = [build_algebra(truncated_presentation(3)),
                build_algebra(cyclic_nakayama_presentation(2, 3))]
    for alg in algebras:
        reg = regular_bimodule(alg)
        for n in range(5):
            assert hh(alg, reg, n).dim == hh_via_resolution(alg, n).dim
    assert builds == [id(alg) for alg in algebras]
