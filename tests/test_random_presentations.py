"""Seeded random presentations: the structural identities must hold on
algebras nobody hand-picked."""

import random

import pytest

from hochschild.algebra import AdmissibilityError, build_algebra, center_basis
from hochschild.bimodule import dual_bimodule, regular_bimodule
from hochschild.cohomology import bar_differential, hh, hh1_via_derivations
from hochschild.extcohom import check_projection1_surjective_for_ext
from hochschild.extension import (
    check_projection_chain_identity, projection_morphism, trivial_extension,
)
from hochschild.minres import NotMonomial, build_partial_resolution, \
    hh_via_resolution
from hochschild.quiver import Presentation, Quiver, parse_relation

from conftest import row_walk_algebra, structure_entries


def random_monomial_presentation(seed):
    """A small random admissible presentation with monomial relations.

    Either an acyclic quiver with a random subset of the length-2 words
    killed, or an arbitrary quiver with radical square zero; admissible
    by construction in both cases.
    """
    rng = random.Random(seed)
    n_vertices = rng.randint(2, 4)
    vertices = [str(v) for v in range(n_vertices)]
    acyclic = rng.random() < 0.6
    arrows = []
    for k in range(rng.randint(2, 5)):
        if acyclic:
            src = rng.randrange(n_vertices - 1)
            tgt = rng.randrange(src + 1, n_vertices)
            arrows.append((f"a{k}", str(src), str(tgt)))
        else:
            arrows.append((f"a{k}", rng.choice(vertices),
                           rng.choice(vertices)))
    quiver = Quiver(vertices, arrows)
    words = []
    for a in quiver.arrows:
        for b in quiver.arrows_from(a.target):
            words.append(f"{a.name}*{b.name}")
    if acyclic:
        rng.shuffle(words)
        keep = words[: rng.randint(0, len(words))]
    else:
        keep = words  # radical square zero
    relations = [parse_relation(w, quiver) for w in sorted(keep)]
    return Presentation(quiver, relations=relations)


def build_or_skip(pres, cap=8):
    return build_algebra(pres, cap=cap)


@pytest.mark.parametrize("seed", range(10))
def test_random_algebra_equals_the_row_walk(seed):
    pres = random_monomial_presentation(seed)
    for order in ("lex", "revlex"):
        alg = build_algebra(pres, order=order)
        nilpotency, basis, structure = row_walk_algebra(pres, order)
        assert (alg.nilpotency, alg.basis_paths) == (nilpotency, basis)
        assert structure_entries(alg.structure) == \
            structure_entries(structure)


@pytest.mark.parametrize("seed", range(10))
def test_random_algebra_consistency(seed):
    pres = random_monomial_presentation(seed)
    alg = build_or_skip(pres)
    assert build_algebra(pres, cap=8, order="revlex").dim == alg.dim
    reg = regular_bimodule(alg)
    # hh^0 is the centre
    assert hh(alg, reg, 0).dim == len(center_basis(alg))
    # complex property
    b1 = bar_differential(alg, reg, 0)
    b2 = bar_differential(alg, reg, 1)
    b3 = bar_differential(alg, reg, 2)
    assert b2.matmul(b1).is_zero()
    assert b3.matmul(b2).is_zero()


@pytest.mark.parametrize("seed", range(10))
def test_random_derivation_oracle(seed):
    pres = random_monomial_presentation(100 + seed)
    alg = build_or_skip(pres)
    for module in (regular_bimodule(alg), dual_bimodule(alg)):
        assert hh1_via_derivations(alg, module).dim == hh(alg, module, 1).dim


@pytest.mark.parametrize("seed", range(6))
def test_random_resolution_oracle(seed):
    pres = random_monomial_presentation(200 + seed)
    alg = build_or_skip(pres)
    try:
        res = build_partial_resolution(alg)
    except NotMonomial:
        pytest.skip("redundant relations combined into a non-monomial system")
    reg = regular_bimodule(alg)
    for n in (0, 1, 2):
        assert hh_via_resolution(alg, n, res).dim == \
            len(hh(alg, reg, n).vectors())


@pytest.mark.parametrize("seed", range(5))
def test_random_dual_extension_surjectivity(seed):
    pres = random_monomial_presentation(300 + seed)
    alg = build_or_skip(pres)
    if alg.dim > 9:
        pytest.skip("keep the random corpus quick")
    ext = trivial_extension(alg, dual_bimodule(alg))
    for n in (0, 1):
        assert projection_morphism(ext, n).surjective
    assert check_projection_chain_identity(ext, 1, trials=5)["holds"]


@pytest.mark.parametrize("seed", range(4))
def test_random_ext_coefficient_surjectivity(seed):
    # phi^1 for B = C |x Ext^m(DC, C) is surjective with a passing witness
    # for any C whatsoever
    from hochschild.extcohom import ext_dual_bimodule
    pres = random_monomial_presentation(400 + seed)
    alg = build_or_skip(pres)
    if alg.dim > 8:
        pytest.skip("keep the random corpus quick")
    for m in (0, 1):
        if alg.dim + ext_dual_bimodule(alg, m).dim > 24:
            continue  # loops can make Ext^1 huge; stay under the caps
        assert check_projection1_surjective_for_ext(alg, m)["pass"]
