"""Shared corpus: the six bundled algebras, built once per session; the
presented split extension of the Nakayama pair; the all-Fraction Q field;
the hypothesis profile of the suite."""

from fractions import Fraction

import pytest
from hypothesis import settings

from hochschild.algebra import algebra_morphism, build_algebra
from hochschild.extension import extension_from_maps
from hochschild.linalg import QQ, Rationals
from hochschild.quiver import Presentation, Quiver, parse_relation

# Property tests draw the same examples on every run, and a fixed number
# of them, so the suite stays deterministic and its wall time steady.
settings.register_profile("suite", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("suite")


class FractionRationals(Rationals):
    """Q with every scalar held as a Fraction, integral or not."""

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        return Fraction(x)

    def add(self, a, b):
        return Fraction(a + b)

    def sub(self, a, b):
        return Fraction(a - b)

    def mul(self, a, b):
        return Fraction(a * b)

    def inv(self, a):
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def addmul(self, a, c, b):
        return Fraction(a + c * b)


def nakayama_c_presentation(field=QQ):
    q = Quiver(["0", "1"], [("alpha0", "0", "1"), ("alpha1", "1", "0")])
    rels = [parse_relation(s, q, field)
            for s in ("alpha0*alpha1", "alpha1*alpha0")]
    return Presentation(q, field, rels)


def nakayama_b_presentation(field=QQ):
    q = Quiver(["0", "1"], [
        ("a0", "0", "1"), ("abar1", "0", "1"),
        ("a1", "1", "0"), ("abar0", "1", "0"),
    ])
    rels = [parse_relation(s, q, field) for s in (
        "a0*a1", "a1*a0", "abar0*abar1", "abar1*abar0",
        "a0*abar0 - abar1*a1", "a1*abar1 - abar0*a0",
    )]
    return Presentation(q, field, rels)


def presented_nakayama_extension(c, b):
    """The split extension of the Nakayama algebra c by ker p inside b
    (the bundled ex3_5 pair), given by explicit algebra maps p and q."""
    cq, bq = c.presentation.quiver, b.presentation.quiver
    p = algebra_morphism(b, c, {
        "a0": c.element_from_path(cq.path("alpha0")),
        "a1": c.element_from_path(cq.path("alpha1")),
        "abar0": c.element_from_path(cq.path("alpha1")),
        "abar1": c.element_from_path(cq.path("alpha0")).scaled(-1),
    })
    q = algebra_morphism(c, b, {
        "alpha0": b.element_from_path(bq.path("a0")),
        "alpha1": b.element_from_path(bq.path("a1")),
    })
    return extension_from_maps(c, b, p, q)


def kite_c_presentation():
    # hereditary: 1 -> 2, 1 -> 3 -> 2
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "1", "3"), ("gamma", "3", "2"),
    ])
    return Presentation(q, relations=[])


def kite_b_presentation():
    # the kite with a loop eps on 2, eps^2 = 0 and alpha*eps = beta*gamma*eps
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "1", "3"), ("gamma", "3", "2"),
        ("eps", "2", "2"),
    ])
    rels = [parse_relation(s, q) for s in
            ("eps*eps", "alpha*eps - beta*gamma*eps")]
    return Presentation(q, relations=rels)


def triangle_c_presentation():
    # 1 -> 2 -> 3 with shortcut 1 -> 3, bound by alpha*beta = 0
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "2", "3"), ("gamma", "1", "3"),
    ])
    return Presentation(q, relations=[parse_relation("alpha*beta", q)])


def triangle_b_presentation():
    # relation extension of the triangle, written out by hand
    q = Quiver(["1", "2", "3"], [
        ("alpha", "1", "2"), ("beta", "2", "3"), ("gamma", "1", "3"),
        ("delta", "3", "1"),
    ])
    rels = [parse_relation(s, q) for s in
            ("delta*alpha", "alpha*beta", "beta*delta", "delta*gamma*delta")]
    return Presentation(q, relations=rels)


def square_presentation():
    # commutative-square shape bound by the two zero relations
    q = Quiver(["1", "2", "3", "4"], [
        ("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4"),
    ])
    rels = [parse_relation(s, q) for s in ("a*c", "b*d")]
    return Presentation(q, relations=rels)


PRESENTATIONS = {
    "nakayama_c": nakayama_c_presentation,
    "nakayama_b": nakayama_b_presentation,
    "kite_c": kite_c_presentation,
    "kite_b": kite_b_presentation,
    "triangle_c": triangle_c_presentation,
    "triangle_b": triangle_b_presentation,
    "square": square_presentation,
}


@pytest.fixture(scope="session")
def corpus():
    return {name: build_algebra(make()) for name, make in PRESENTATIONS.items()}


@pytest.fixture(scope="session")
def nakayama_c(corpus):
    return corpus["nakayama_c"]


@pytest.fixture(scope="session")
def nakayama_b(corpus):
    return corpus["nakayama_b"]


@pytest.fixture(scope="session")
def kite_c(corpus):
    return corpus["kite_c"]


@pytest.fixture(scope="session")
def kite_b(corpus):
    return corpus["kite_b"]


@pytest.fixture(scope="session")
def triangle_c(corpus):
    return corpus["triangle_c"]


@pytest.fixture(scope="session")
def triangle_b(corpus):
    return corpus["triangle_b"]


@pytest.fixture(scope="session")
def square(corpus):
    return corpus["square"]
