"""hh(A, A) against closed forms from the literature.

The closed forms are those of `perfbench/oracles.py`, loaded by path: it
imports nothing, so an engine fault cannot make its oracle agree.  Each
member is checked twice, on separately built algebras: `dim` from the
ranks of the differentials, and the number of representatives from the
kernel-modulo-image quotient.
"""

import importlib.util
import os
from fractions import Fraction
from functools import partial

import pytest

from hochschild.algebra import build_algebra
from hochschild.bimodule import regular_bimodule
from hochschild.cohomology import hh
from hochschild.quiver import Presentation, Quiver, parse_relation

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "oracles.py")
_spec = importlib.util.spec_from_file_location("perfbench_oracles", _PATH)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _presentation(vertices, arrows, relations):
    quiver = Quiver(vertices, arrows)
    return Presentation(quiver, relations=[
        parse_relation(text, quiver) for text in relations])


def _loops(m):
    arrows = [(f"x{i}", "0", "0") for i in range(m)]
    rels = [f"x{i}*x{j}" for i in range(m) for j in range(m)]
    return _presentation(["0"], arrows, rels)


def _truncated(length):
    return _presentation(["0"], [("x", "0", "0")], ["*".join("x" * length)])


def _quantum_plane(q):
    sign = "-" if q > 0 else "+"
    return _presentation(["0"], [("x", "0", "0"), ("y", "0", "0")],
                         ["x*x", "y*y", f"x*y {sign} {abs(q)}*y*x"])


def _hereditary(n, shortcut=False):
    """Linear A_n, with an arrow from the first vertex to the last if
    shortcut; Happel's formula gives hh^1 = 2 for that one."""
    vertices = [str(i) for i in range(n)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    if shortcut:
        arrows.append(("s", "0", str(n - 1)))
    return (_presentation(vertices, arrows, []),
            partial(oracles.happel, vertices, arrows))


# (name, presentation, closed form n -> dim hh^n, degrees checked)
MEMBERS = [
    ("cibils_2_loops", _loops(2), partial(oracles.cibils_loops, 2), 4),
    ("cibils_3_loops", _loops(3), partial(oracles.cibils_loops, 3), 3),
] + [
    (f"k[x]/(x^{length})", _truncated(length),
     partial(oracles.truncated_polynomial, length), 4)
    for length in (3, 4, 5)
] + [
    ("kunneth_q=1", _quantum_plane(Fraction(1)),
     oracles.quantum_plane_q1, 4),
    ("exterior_q=-1", _quantum_plane(Fraction(-1)),
     oracles.exterior_plane, 4),
    ("bgms_q=2/3", _quantum_plane(Fraction(2, 3)),
     oracles.quantum_plane_generic, 4),
] + [
    (f"happel_{'shortcut' if s else 'A'}{n}", *_hereditary(n, s), 3)
    for n, s in ((2, False), (3, False), (4, False), (4, True))
]


@pytest.mark.parametrize("name,presentation,closed_form,top", MEMBERS,
                         ids=[m[0] for m in MEMBERS])
def test_hh_matches_closed_form(name, presentation, closed_form, top):
    want = [closed_form(n) for n in range(top + 1)]
    alg = build_algebra(presentation)
    reg = regular_bimodule(alg)
    assert [hh(alg, reg, n).dim for n in range(top + 1)] == want
    alg = build_algebra(presentation)
    reg = regular_bimodule(alg)
    assert [len(hh(alg, reg, n).representatives)
            for n in range(top + 1)] == want

