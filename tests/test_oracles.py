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

from conftest import (
    hereditary_arrows, hereditary_presentation, loops_presentation,
    quantum_plane_presentation, truncated_presentation,
)

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "oracles.py")
_spec = importlib.util.spec_from_file_location("perfbench_oracles", _PATH)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _hereditary(n, shortcut=False):
    """Linear A_n, with an arrow from the first vertex to the last if
    shortcut; Happel's formula gives hh^1 = 2 for that one."""
    return (hereditary_presentation(n, shortcut),
            partial(oracles.happel, *hereditary_arrows(n, shortcut)))


# (name, presentation, closed form n -> dim hh^n, degrees checked)
MEMBERS = [
    ("cibils_2_loops", loops_presentation(2), partial(oracles.cibils_loops, 2), 4),
    ("cibils_3_loops", loops_presentation(3), partial(oracles.cibils_loops, 3), 3),
] + [
    (f"k[x]/(x^{length})", truncated_presentation(length),
     partial(oracles.truncated_polynomial, length), 4)
    for length in (3, 4, 5)
] + [
    ("kunneth_q=1", quantum_plane_presentation(Fraction(1)),
     oracles.quantum_plane_q1, 4),
    ("exterior_q=-1", quantum_plane_presentation(Fraction(-1)),
     oracles.exterior_plane, 4),
    ("bgms_q=2/3", quantum_plane_presentation(Fraction(2, 3)),
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

