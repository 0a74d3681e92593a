"""The benchmark's workloads: inputs generated from a seed, the requests
one pass makes, and the expected answer of every request.

verify_paper  one run_blocks() pass, what `hochschild verify-paper` runs.
hh_deep       hh^0..hh^k(A, A) over Q, dim A 3-12, k up to 8: the
              idempotent-normalized engine and exact elimination.
hh_wide       hh^0..hh^2(A, A) over GF(10007), dim A 16-63, plus the
              resolution route for monomial members: the degree-1 bar
              complex, build_algebra and minres, with no Fraction work.

A ladder member also lists `probes`: degrees the seed refuses with
CapExceeded although its normalized complex is small.  They are requested
once per run outside the timed passes, so a change that answers them is
not charged for the extra work, and counted as refusals while refused.
"""

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
PRIME = 10007
MAX_DEGREE_DEEP = 8


@dataclass
class Member:
    name: str
    presentation: object
    dim: int                 # dim A, counted independently of build_algebra
    degrees: tuple           # hh^n requested in every timed pass
    probes: tuple = ()       # hh^n the seed refuses; requested untimed
    resolution: bool = False  # also hh_via_resolution(A, 0..2): monomial
    expect: object = None    # n -> dim hh^n from a closed form
    oracle: str = "reference"


def load_reference():
    """Dims recorded at the seed for members with no closed form: a
    regression reference, not an oracle."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _presentation(api, vertices, arrows, relations, field):
    quiver = api.Quiver(vertices, arrows)
    return api.Presentation(quiver, field=field, relations=[
        api.parse_relation(text, quiver, field) for text in relations])


def _word(names):
    return "*".join(names)


# -- hh_deep families (over Q) ----------------------------------------------


def _loops(api, m, top):
    arrows = [(f"x{i}", "0", "0") for i in range(m)]
    rels = [f"x{i}*x{j}" for i in range(m) for j in range(m)]
    return Member(f"loops{m}", _presentation(api, ["0"], arrows, rels, api.QQ),
                  m + 1, tuple(range(top + 1)),
                  expect=partial(oracles.cibils_loops, m),
                  oracle="Cibils 1998")


def _truncated(api, length, top):
    pres = _presentation(api, ["0"], [("x", "0", "0")],
                         [_word(["x"] * length)], api.QQ)
    return Member(f"trunc{length}", pres, length, tuple(range(top + 1)),
                  expect=partial(oracles.truncated_polynomial, length),
                  oracle="k[x]/(x^L)")


def _quantum_plane(api, q, name, expect, oracle, top):
    sign = "-" if q > 0 else "+"
    rels = ["x*x", "y*y", f"x*y {sign} {abs(q)}*y*x"]
    pres = _presentation(api, ["0"], [("x", "0", "0"), ("y", "0", "0")],
                         rels, api.QQ)
    return Member(name, pres, 4, tuple(range(top + 1)), expect=expect,
                  oracle=oracle)


def _cyclic(api, n, length, field):
    """Cyclic Nakayama algebra: an oriented n-cycle, every path of the
    given length killed; self-injective, dim n * length."""
    arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    rels = [_word(f"a{(i + k) % n}" for k in range(length)) for i in range(n)]
    return _presentation(api, [str(i) for i in range(n)], arrows, rels, field)


def draw_q(rng):
    """A rational q != 0, +-1 of height at most 9: never a root of unity."""
    while True:
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if q != 1:
            return q if rng.random() < 0.5 else -q


def hh_deep(api, seed):
    rng = random.Random(seed)
    members = [_loops(api, 2, 8), _loops(api, 3, 6), _loops(api, 4, 5)]
    members += [_truncated(api, length, top)
                for length, top in ((3, 7), (4, 4), (5, 3), (6, 2))]
    members.append(_quantum_plane(api, Fraction(1), "qplane_1",
                                  oracles.quantum_plane_q1, "Kuenneth", 5))
    members.append(_quantum_plane(api, Fraction(-1), "qplane_-1",
                                  oracles.exterior_plane, "exterior", 5))
    for i in range(2):
        q = draw_q(rng)
        members.append(_quantum_plane(
            api, q, f"qplane_seeded{i}", oracles.quantum_plane_generic,
            f"BGMS 2005, q={q}", 5))
    # (vertices, relation length, highest answered degree): the next
    # degree is a probe the seed's size cap refuses.
    for n, length, top in ((2, 3, 6), (2, 4, 4), (3, 4, 3),
                           (2, 2, 8), (3, 2, 6), (4, 2, 4), (6, 2, 3)):
        probes = (top + 1,) if top < MAX_DEGREE_DEEP else ()
        kind = "cycle" if length == 2 else "nakayama"
        members.append(Member(
            f"{kind}{n}_{length}", _cyclic(api, n, length, api.QQ),
            n * length, tuple(range(top + 1)), probes))
    return members


# -- hh_wide families (over GF(10007)) ---------------------------------------

CAP_DIM = 38   # from here on the seed refuses hh^2 (38^4 bar rows > cap)


def _wide(name, pres, dim, monomial, expect=None, oracle="resolution route"):
    top = 1 if dim >= CAP_DIM else 2
    return Member(name, pres, dim, tuple(range(top + 1)),
                  tuple(range(top + 1, 3)), resolution=monomial,
                  expect=expect, oracle=oracle)


def _hereditary(api, field, n, shortcut):
    """Linear A_n, optionally with an extra arrow from the first vertex to
    the last, which makes hh^1 = 2 (Happel)."""
    vertices = [str(i) for i in range(n)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    if shortcut:
        arrows.append(("s", "0", str(n - 1)))
    dim = oracles.monomial_dimension(vertices, arrows, ())
    name = f"{'shortcut' if shortcut else 'A'}{n}"
    return _wide(name, _presentation(api, vertices, arrows, [], field), dim,
                 True, partial(oracles.happel, vertices, arrows), "Happel 1989")


def _linear_nakayama(api, field, n, length):
    vertices = [str(i) for i in range(n)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    words = [tuple(f"a{i + k}" for k in range(length))
             for i in range(n - length)]
    dim = oracles.monomial_dimension(vertices, arrows, words)
    pres = _presentation(api, vertices, arrows, [_word(w) for w in words],
                         field)
    return _wide(f"linear{n}_{length}", pres, dim, True)


def _commutative_ladder(api, field, m):
    """Two rows of m vertices, every square commuting: the incidence
    algebra of the poset 2 x m, dim 3m(m+1)/2, least element (0, 0)."""
    vertices = [f"{i}_{j}" for i in range(2) for j in range(m)]
    arrows = [(f"h{i}_{j}", f"{i}_{j}", f"{i}_{j + 1}")
              for i in range(2) for j in range(m - 1)]
    arrows += [(f"v{j}", f"0_{j}", f"1_{j}") for j in range(m)]
    rels = [f"h0_{j}*v{j + 1} - v{j}*h1_{j}" for j in range(m - 1)]
    return _wide(f"ladder{m}", _presentation(api, vertices, arrows, rels,
                                             field),
                 3 * m * (m + 1) // 2, False, oracles.poset_with_minimum,
                 "Gerstenhaber-Schack 1983")


def random_monomial(rng, lo, hi):
    """A random acyclic quiver with random monomial relations of length 2
    and 3 and lo <= dim A <= hi: (vertices, arrows, relation words, dim)."""
    while True:
        n = rng.randint(6, 9)
        vertices = [f"v{i}" for i in range(n)]
        arrows = []
        for k in range(rng.randint(n, n + 4)):
            s = rng.randrange(n - 1)
            arrows.append((f"a{k}", f"v{s}", f"v{rng.randrange(s + 1, n)}"))
        after = {}
        for name, s, _ in arrows:
            after.setdefault(s, []).append(name)
        target = {name: t for name, _, t in arrows}
        pairs = [(a, b) for a, _, t in arrows for b in after.get(t, ())]
        rels = [p for p in pairs if rng.random() < 0.5]
        for a, b in pairs:
            if (a, b) in rels:
                continue
            for c in after.get(target[b], ()):
                if (b, c) not in rels and rng.random() < 0.3:
                    rels.append((a, b, c))
        dim = oracles.monomial_dimension(vertices, arrows, rels)
        if lo <= dim <= hi:
            return vertices, arrows, rels, dim


def hh_wide(api, seed):
    rng = random.Random(seed)
    field = api.PrimeField(PRIME)
    members = []
    for n, length in ((8, 3), (6, 4), (13, 3), (10, 4), (9, 7)):
        members.append(_wide(f"cyclic{n}_{length}",
                             _cyclic(api, n, length, field), n * length, True))
    for n, length in ((12, 3), (10, 4), (16, 3)):
        members.append(_linear_nakayama(api, field, n, length))
    for n, shortcut in ((6, False), (8, False), (10, False), (6, True),
                        (8, True)):
        members.append(_hereditary(api, field, n, shortcut))
    for m in (3, 4, 5):
        members.append(_commutative_ladder(api, field, m))
    for n in (8, 12, 20):
        members.append(_wide(f"cycle{n}", _cyclic(api, n, 2, field), 2 * n,
                             True))
    # below the cap dimension, so that every answer has the resolution
    # route to check it and the number of refusals does not depend on seed
    for i in range(4):
        vertices, arrows, rels, dim = random_monomial(rng, 16, CAP_DIM - 1)
        pres = _presentation(api, vertices, arrows,
                             [_word(w) for w in rels], field)
        members.append(_wide(f"random{i}", pres, dim, True))
    return members


def generate(api, workload, seed):
    """The workload's inputs: ladder members, or for verify_paper the
    parsed bundled algebra files (run_blocks reads them again itself)."""
    if workload == "verify_paper":
        return [api.load_bundled(name) for name in api.BUNDLED]
    return {"hh_deep": hh_deep, "hh_wide": hh_wide}[workload](api, seed)
