import itertools
import random
import re

import pytest

from hochschild.algebra import (
    DEFAULT_CAP, AdmissibilityError, AlgElement, Algebra, _GroebnerBasis,
    _contains, _word_key, _words, algebra_morphism, build_algebra,
    center_basis, is_triangular, system_of_relations,
)
from hochschild.algfile import BUNDLED, load_bundled, parse_algebra_file
from hochschild.linalg import Mat, PrimeField, QQ, rank, reduce_mod
from hochschild.quiver import Presentation, Quiver, parse_relation
from hochschild.relext import relation_extension_algebra

from conftest import (
    PRESENTATIONS, FractionRationals, _TruncatedIdeal,
    commutative_ladder_presentation, cyclic_nakayama_presentation,
    hereditary_presentation, loops_presentation, quantum_plane_presentation,
    random_monomial_presentation, row_walk_algebra, row_walk_contains,
    square_presentation, structure_entries, truncated_presentation,
)


def one_vertex_presentation():
    return Presentation(Quiver(["pt"], []), relations=[])


def loop_presentation(nilpotency):
    q = Quiver(["v"], [("x", "v", "v")])
    return Presentation(q, relations=[parse_relation("*".join(["x"] * nilpotency), q)])


def test_dimensions(corpus):
    dims = {name: alg.dim for name, alg in corpus.items()}
    assert dims == {
        "nakayama_c": 4, "nakayama_b": 8,
        "kite_c": 7, "kite_b": 10,
        "triangle_c": 6, "triangle_b": 10,
        "square": 8,
    }


def test_triangle_b_basis(triangle_b):
    assert triangle_b.labels == [
        "e_1", "e_2", "e_3", "alpha", "beta", "delta", "gamma",
        "delta*gamma", "gamma*delta", "gamma*delta*gamma",
    ]


def test_nilpotency_bounds(corpus):
    assert corpus["nakayama_c"].nilpotency == 2
    assert corpus["nakayama_b"].nilpotency == 3
    assert corpus["square"].nilpotency == 2
    assert corpus["kite_b"].nilpotency == 4
    assert corpus["triangle_b"].nilpotency == 4


def test_unit_is_identity(nakayama_b):
    u = nakayama_b.unit()
    for i in range(nakayama_b.dim):
        b = nakayama_b.basis_element(i)
        assert u * b == b
        assert b * u == b


def test_defining_relation_identifies_paths(nakayama_b):
    a0 = nakayama_b.element_from_path(nakayama_b.presentation.quiver.path("a0"))
    a1 = nakayama_b.element_from_path(nakayama_b.presentation.quiver.path("a1"))
    abar0 = nakayama_b.element_from_path(nakayama_b.presentation.quiver.path("abar0"))
    abar1 = nakayama_b.element_from_path(nakayama_b.presentation.quiver.path("abar1"))
    assert a0 * abar0 == abar1 * a1
    assert not (a0 * abar0).is_zero()
    assert (a0 * a1).is_zero()


def test_long_products_vanish(triangle_b):
    quiver = triangle_b.presentation.quiver
    delta = triangle_b.element_from_path(quiver.path("delta"))
    gamma = triangle_b.element_from_path(quiver.path("gamma"))
    assert (delta * gamma * delta).is_zero()
    assert not (gamma * delta * gamma).is_zero()


def test_center_dimensions(corpus):
    assert len(center_basis(corpus["nakayama_c"])) == 1
    assert len(center_basis(corpus["triangle_b"])) == 2
    assert len(center_basis(build_algebra(one_vertex_presentation()))) == 1


def test_center_elements_commute_with_random_elements(nakayama_b):
    rng = random.Random(7)
    for z in center_basis(nakayama_b):
        for _ in range(10):
            x = nakayama_b.element(
                {i: rng.randint(-3, 3) for i in range(nakayama_b.dim)})
            assert z * x == x * z


def test_is_triangular(corpus):
    assert is_triangular(corpus["triangle_c"])
    assert is_triangular(corpus["kite_c"])
    assert is_triangular(corpus["square"])
    assert not is_triangular(corpus["nakayama_c"])
    assert is_triangular(build_algebra(one_vertex_presentation()))


def test_system_of_relations_single(triangle_c):
    rels = system_of_relations(triangle_c.presentation)
    assert len(rels) == 1
    (path,) = rels[0].paths()
    assert path.arrows == ("alpha", "beta")
    assert (path.source, path.target) == ("1", "3")


def test_system_of_relations_hereditary(kite_c):
    assert system_of_relations(kite_c.presentation) == []


def test_system_of_relations_nakayama(nakayama_c):
    rels = system_of_relations(nakayama_c.presentation)
    words = sorted(tuple(p.arrows) for r in rels for p in r.paths())
    assert words == [("alpha0", "alpha1"), ("alpha1", "alpha0")]


def test_system_of_relations_minimality_bruteforce(nakayama_c):
    # dropping either relation grows the quotient: both are needed
    pres = nakayama_c.presentation
    full_dim = nakayama_c.dim
    for keep in range(len(pres.relations)):
        sub = Presentation(pres.quiver, pres.field, [pres.relations[keep]])
        try:
            alg = build_algebra(sub, cap=8)
            assert alg.dim > full_dim
        except AdmissibilityError:
            pass  # single relation leaves the cycle alive: also fine


def test_system_of_relations_loop():
    pres = loop_presentation(2)
    rels = system_of_relations(pres)
    assert len(rels) == 1
    assert rels[0].paths()[0].arrows == ("x", "x")


def test_system_of_relations_commutative_square():
    # a commutativity relation with no arrow into its source or out of its
    # target: J*I + I*J is zero, and the relation is its own lift
    q = Quiver(["1", "2", "3", "4"], [
        ("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4")])
    pres = Presentation(q, relations=[parse_relation("a*c - b*d", q),
                                      parse_relation("2*b*d - 2*a*c", q)])
    assert system_of_relations(pres) == pres.relations[:1]


def test_redundant_relation_dropped():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    pres = Presentation(q, relations=[
        parse_relation("a*b", q), parse_relation("2*a*b", q)])
    assert len(system_of_relations(pres)) == 1


def test_system_of_relations_of_the_algebra(corpus):
    # the built algebra gives the list its presentation gives
    algebras = list(corpus.values()) + [
        build_algebra(load_bundled(name)[1]) for name in BUNDLED]
    for alg in algebras:
        assert system_of_relations(alg) == \
            system_of_relations(alg.presentation)


def test_system_of_relations_reuses_the_certified_ideal():
    # the list is read from Gröbner normal forms (src/ has no truncated
    # span to build), and both orders and the presentation give the same
    # list
    for make in PRESENTATIONS.values():
        pres = make()
        lex, revlex = build_algebra(pres), build_algebra(pres, order="revlex")
        assert system_of_relations(revlex) == system_of_relations(lex)
        assert system_of_relations(pres) == system_of_relations(lex)


def test_system_of_relations_needs_a_presentation(nakayama_c):
    bare = Algebra(nakayama_c.field, nakayama_c.labels, nakayama_c.structure,
                   nakayama_c.idempotents, nakayama_c.peirce)
    with pytest.raises(ValueError, match="no presentation"):
        system_of_relations(bare)


def mixed_length_presentations(field):
    """Relations of mixed lengths: the length-3 lead x*x*x of the loops has
    the row x*x*x - y*y; in the second, y*y or x*x has a normal form of
    two terms, with keys out of order in revlex; the Kronecker-with-return
    quiver has coefficients that turn into fractions."""
    loops = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    kron = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"),
                               ("c", "2", "1")])
    return [
        Presentation(loops, field, [parse_relation(t, loops, field) for t in
                                    ("x*x*x - y*y", "x*y", "y*x")]),
        Presentation(loops, field, [parse_relation(t, loops, field) for t in
                                    ("y*y - x*x - 2*x*y", "y*x - 3*x*y",
                                     "x*x*x", "x*x*y")]),
        Presentation(kron, field, [parse_relation(t, kron, field) for t in
                                   ("a*c - 2*b*c", "c*a*c*b",
                                    "c*b*c*a - 3*c*a*c*a", "b*c*b")]),
    ]


def reference_presentations():
    """The corpus, the bundled files over Q and GF(7), the mixed-length
    presentations over Q, GF(7), GF(2) and the all-Fraction Q, the
    generated families over Q, GF(7) and GF(2), a commutative ladder and
    three seeded random monomial presentations."""
    cases = [(name, make()) for name, make in PRESENTATIONS.items()]
    for name in BUNDLED:
        for tag in ("Q", "Fp:7"):
            data = dict(load_bundled(name)[0], field=tag)
            cases.append((f"{name} {tag}", parse_algebra_file(data)))
    for field in (QQ, PrimeField(7), PrimeField(2), FractionRationals()):
        for k, pres in enumerate(mixed_length_presentations(field)):
            cases.append((f"mixed{k} {field!r}", pres))
    cases += [(f"{name}-{tag}", make(field))
              for name, make in FAMILIES.items()
              for tag, field in FIELDS.items()]
    cases.append(("ladder3", commutative_ladder_presentation(3)))
    cases += [(f"random{seed}", random_monomial_presentation(seed))
              for seed in (1, 2, 3)]
    return cases


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_structure_constants_equal_the_row_walk(order):
    # pivot reads give the algebra that reducing every product over every
    # row gave: same basis, bound, products in the same order, and each
    # product's coordinates in the same key order with the same scalars
    for name, pres in reference_presentations():
        alg = build_algebra(pres, order=order)
        nilpotency, basis, structure = row_walk_algebra(pres, order)
        assert alg.nilpotency == nilpotency, name
        assert alg.basis_paths == basis, name
        assert structure_entries(alg.structure) == \
            structure_entries(structure), name


def _groebner(pres, order):
    return _GroebnerBasis(pres.field, _word_key(pres.quiver, order),
                          _words(pres), DEFAULT_CAP)


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_groebner_basis_is_reduced(order):
    # tip - tail is monic with its tip leading, no tip lies inside another
    # tip, every tail is normal; the relations reduce to zero, and so does
    # every overlap of two tips (Buchberger's criterion)
    tails_seen = 0
    for name, pres in reference_presentations():
        gb = _groebner(pres, order)
        key, tails = gb.key, gb.tails
        for tip, tail in tails.items():
            assert all(key(w) < key(tip) for w in tail), (name, tip)
            assert all(gb.find(w) is None for w in tail), (name, tip)
            assert not [t for t in tails if t != tip and _contains(tip, t)]
            tails_seen += bool(tail)
        for rel in _words(pres):
            assert gb.reduce(rel) == {}, name
        for a in tails:
            for b in tails:
                for k in range(1, min(len(a), len(b))):
                    if a[len(a) - k:] != b[:k]:
                        continue
                    u, v = a[:len(a) - k], b[k:]
                    lhs = gb.reduce({x + v: c for x, c in tails[a].items()})
                    rhs = gb.reduce({u + x: c for x, c in tails[b].items()})
                    assert lhs == rhs, (name, a, b, k)
    # some basis element has a tail
    assert tails_seen


def test_monomial_basis_is_its_subword_minimal_relations(monkeypatch):
    # a monomial presentation is its own basis once relations containing
    # another are dropped, and building the algebra reduces nothing
    steps = []
    real = _GroebnerBasis.reduce
    monkeypatch.setattr(_GroebnerBasis, "reduce",
                        lambda self, poly: steps.append(poly) or
                        real(self, poly))
    dropped = 0
    for name, pres in reference_presentations():
        words = [w for poly in _words(pres) for w in poly]
        if len(words) != len(pres.relations):
            continue
        minimal = {w for w in words
                   if not any(len(x) < len(w) and _contains(w, x)
                              for x in words)}
        dropped += len(set(words) - minimal)
        for order in ("lex", "revlex"):
            assert _groebner(pres, order).tails == \
                {w: {} for w in minimal}, name
            build_algebra(pres, order=order)
            assert steps == [], name
    assert dropped


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_admissibility_verdict_equals_the_row_walk(order):
    # at every L up to the certified bound, each path's normal form is its
    # reduction over all rows, so the length-L verdict is the row walk's
    # and holds first at the bound
    long_rows = 0
    for name, pres in reference_presentations():
        top = build_algebra(pres, order=order).nilpotency
        for L in range(2, top + 1):
            ideal = _TruncatedIdeal(pres, L, order=order)
            field = ideal.field
            echelon = [ideal.rows[lead] for lead in sorted(ideal.rows)]
            for p in ideal.paths:
                want = reduce_mod({ideal.coord[p]: field.one}, echelon, field)
                got = ideal.normal_form(p)
                assert [(ideal.coord[q], type(v), v) for q, v in got.items()] \
                    == [(c, type(v), v) for c, v in want.items()], (name, p)
            top_paths = [p for p in ideal.paths if len(p) == L]
            verdict = not any(ideal.normal_form(p) for p in top_paths)
            assert verdict == all(row_walk_contains(ideal, p)
                                  for p in top_paths), (name, L)
            assert verdict == (L == top), (name, L)
            long_rows += sum(len(ideal.rows.get(ideal.coord[p], ())) > 1
                             for p in top_paths)
    # some length-L lead has a row of more than one entry
    assert long_rows


def test_truncated_ideal_keeps_one_table_of_rows():
    ideal = _TruncatedIdeal(PRESENTATIONS["kite_b"](), 3)
    for gone in ("reduce_path_sum", "contains", "all_length_paths_contained",
                 "pivot_paths", "echelon"):
        assert not hasattr(ideal, gone)
    assert ideal.rows
    for lead, row in ideal.rows.items():
        assert min(row) == lead and row[lead] == ideal.field.one
        assert not set(row) & (ideal.rows.keys() - {lead})


def test_non_admissible_presentation_is_refused():
    # kQ/I = k[x]/(x^2 - x^3) is k[x]/(x^2) x k: x*x reduces to x*x*x and
    # never to zero, so no nilpotency bound exists and the input is refused
    # (the truncated span would read k[x]/(x^2), the quotient of the
    # completed path algebra, where 1 - x is a unit)
    q = Quiver(["v"], [("x", "v", "v")])
    pres = Presentation(q, relations=[parse_relation("x*x - x*x*x", q)])
    for order in ("lex", "revlex"):
        with pytest.raises(AdmissibilityError, match="not admissible"):
            build_algebra(pres, order=order)
    with pytest.raises(AdmissibilityError):
        system_of_relations(pres)


def test_relation_extension_keeps_its_square_generators():
    got = {}
    for name, pres in (("ex5_9_C", load_bundled("ex5_9_C")[1]),
                       ("square", square_presentation())):
        data, _ = relation_extension_algebra(pres)
        got[name] = tuple(
            [p.label() for ps in gens for p in ps.paths()]
            for gens in (data.square_generators,
                         data.implied_square_generators))
    assert got == {
        "ex5_9_C": (["rel0*gamma*rel0"], ["rel0*alpha*beta*rel0"]),
        "square": ([], ["rel0*a*c*rel0", "rel0*a*c*rel1", "rel0*b*d*rel0",
                        "rel0*b*d*rel1", "rel1*a*c*rel0", "rel1*a*c*rel1",
                        "rel1*b*d*rel0", "rel1*b*d*rel1"]),
    }


def test_dimension_independent_of_order():
    for make in PRESENTATIONS.values():
        pres = make()
        assert build_algebra(pres).dim == build_algebra(pres, order="revlex").dim


def test_not_admissible_within_cap():
    q = Quiver(["v"], [("x", "v", "v")])
    with pytest.raises(AdmissibilityError):
        build_algebra(Presentation(q, relations=[]), cap=6)


FAMILIES = {
    "loops2": lambda field: loops_presentation(2, field),
    "trunc4": lambda field: truncated_presentation(4, field),
    "qplane3": lambda field: quantum_plane_presentation(3, field),
    "nakayama3_3": lambda field: cyclic_nakayama_presentation(3, 3, field),
    "A4": lambda field: hereditary_presentation(4, False, field),
    "shortcut4": lambda field: hereditary_presentation(4, True, field),
}
FIELDS = {"Q": QQ, "GF7": PrimeField(7), "GF2": PrimeField(2)}


def table_algebras():
    """(name, a function building the algebra)."""
    yield from ((name, lambda make=make: build_algebra(make()))
                for name, make in PRESENTATIONS.items())
    yield from ((name, lambda name=name: build_algebra(load_bundled(name)[1]))
                for name in BUNDLED)
    yield from ((f"{name}-{tag}",
                 lambda make=make, field=field: build_algebra(make(field)))
                for name, make in FAMILIES.items()
                for tag, field in FIELDS.items())
    yield from ((f"{name}-reversed", lambda name=name: reversed_keys(name))
                for name in BUNDLED)


def reversed_keys(name):
    """The bundled algebra with its structure constants in reverse key
    order."""
    alg = build_algebra(load_bundled(name)[1])
    return Algebra(alg.field, alg.labels,
                   dict(reversed(alg.structure.items())), alg.idempotents,
                   alg.peirce)


@pytest.mark.parametrize("name, make", list(table_algebras()))
def test_multiplication_tables_equal_the_per_index_scan(name, make):
    # left_mult/right_mult come from one pass over the nonzero structure
    # constants; they must equal the scan over every index pair, dicts,
    # key order and scalar types included
    alg = make()
    st = alg.structure

    def listed(columns):
        return [(j, [(k, c, type(c)) for k, c in col.items()])
                for j, col in columns.items()]

    for i in range(alg.dim):
        left = {j: dict(st.get((i, j), {})) for j in range(alg.dim)
                if st.get((i, j))}
        right = {j: dict(st.get((j, i), {})) for j in range(alg.dim)
                 if st.get((j, i))}
        assert listed(alg.left_mult(i)) == listed(left)
        assert listed(alg.right_mult(i)) == listed(right)
        assert alg.left_mult(i) is alg.left_mult(i)


def test_peirce_grading(corpus):
    for alg in corpus.values():
        assert alg.is_peirce_graded()
        assert alg.radical_complement_closed()


def test_projection_and_section_morphisms(nakayama_b, nakayama_c):
    # the split surjection B -> C sending abar_i to (-1)^i alpha_{i+1}
    c, b = nakayama_c, nakayama_b
    p = algebra_morphism(b, c, {
        "a0": c.element_from_path(c.presentation.quiver.path("alpha0")),
        "a1": c.element_from_path(c.presentation.quiver.path("alpha1")),
        "abar0": c.element_from_path(c.presentation.quiver.path("alpha1")),
        "abar1": c.element_from_path(c.presentation.quiver.path("alpha0")).scaled(-1),
    })
    q = algebra_morphism(c, b, {
        "alpha0": b.element_from_path(b.presentation.quiver.path("a0")),
        "alpha1": b.element_from_path(b.presentation.quiver.path("a1")),
    })
    assert p.matmul(q) == Mat.identity(c.dim, QQ)
    assert rank(p) == c.dim
    # the kernel of p is four dimensional
    assert b.dim - rank(p) == 4


def test_morphism_rejects_relation_violation(nakayama_c):
    c = nakayama_c
    q = c.presentation.quiver
    with pytest.raises(ValueError):
        # alpha1*alpha0 would map to alpha1 * e_0 = alpha1 != 0
        algebra_morphism(c, c, {
            "alpha0": c.idempotent("0"),
            "alpha1": c.element_from_path(q.path("alpha1")),
        })


def test_alg_element_arithmetic(nakayama_c):
    x = nakayama_c.basis_element(2) + nakayama_c.basis_element(3).scaled(2)
    y = x - nakayama_c.basis_element(2)
    assert y == nakayama_c.basis_element(3).scaled(2)
    assert isinstance(x, AlgElement)


# -- associativity check --------------------------------------------------


def _linear_a(n):
    q = Quiver([str(v) for v in range(1, n + 1)],
               [(f"a{v}", str(v), str(v + 1)) for v in range(1, n)])
    return build_algebra(Presentation(q, relations=[]))


def _failing_triples(alg):
    """Every basis triple whose two bracketings differ, by brute force."""
    one = alg.field.one
    out = []
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        ij = alg.structure.get((i, j))
        jk = alg.structure.get((j, k))
        left = alg.multiply_coords(ij, {k: one}) if ij else {}
        right = alg.multiply_coords({i: one}, jk) if jk else {}
        if left != right:
            out.append((i, j, k))
    return out


@pytest.mark.parametrize("n", [4, 8])
def test_associativity_failure_names_a_failing_triple(n):
    # A_4 (dim 10) and A_8 (dim 36): the check runs at every dimension.
    # One structure constant is raised by one, on the product of the first
    # two arrows (doubling it) and on random radical pairs; the check
    # raises exactly when some triple fails, and names one that does.
    alg = _linear_a(n)
    assert alg.dim == n * (n + 1) // 2
    field = alg.field
    arrow = alg._arrow_indices()
    first = (arrow["a1"], arrow["a2"])
    (path,) = alg.structure[first]
    rng = random.Random(n)
    corruptions = [(first, path)] + [
        (tuple(rng.sample(alg.radical_indices, 2)),
         rng.choice(alg.radical_indices)) for _ in range(8)]
    raised = 0
    for key, k in corruptions:
        structure = {pair: dict(prod) for pair, prod in alg.structure.items()}
        prod = structure.setdefault(key, {})
        prod[k] = field.add(prod.get(k, field.zero), field.one)
        args = (field, alg.labels, structure, alg.idempotents, alg.peirce)
        failing = _failing_triples(Algebra(*args, check=False))
        if not failing:
            Algebra(*args)
            continue
        with pytest.raises(ValueError, match="associativity fails") as info:
            Algebra(*args)
        triple = tuple(int(x) for x in re.findall(r"\d+", str(info.value)))
        assert triple in failing
        raised += 1
    assert raised >= 2


@pytest.mark.parametrize("name", ["A_8", "ex3_8_B"])
def test_light_test_catches_what_every_middle_factor_caught(name):
    # A presented algebra is checked with idempotent and arrow middle
    # factors only, once every basis path is certified to be its first
    # arrow times the rest.  Products with a factor of length >= 2 are
    # raised by one at one coordinate: on A_8 b_{a1} * b_{a2 a3} and
    # b_{a1 a2} * b_{a3} first, then random ones.  Whenever some basis
    # triple fails, the check over every middle factor raises, and so
    # does the presented check: from the certificate, or naming a failing
    # triple whose middle factor is an idempotent or an arrow.
    alg = _linear_a(8) if name == "A_8" else \
        build_algebra(load_bundled(name)[1])
    field = alg.field
    index = {p.label(): k for k, p in enumerate(alg.basis_paths)}
    generators = {k for k, p in enumerate(alg.basis_paths) if len(p) < 2}
    longer = [(i, j) for (i, j), prod in alg.structure.items()
              if prod and {i, j} <= set(alg.radical_indices)
              and not {i, j} <= generators]
    first = [(index["a1"], index["a2*a3"]), (index["a1*a2"], index["a3"])] \
        if name == "A_8" else []
    caught = set()
    rng = random.Random(alg.dim)
    for key in first + rng.sample(longer, min(10, len(longer))):
        structure = {pair: dict(prod) for pair, prod in alg.structure.items()}
        prod = structure[key]
        k = next(iter(prod))
        prod[k] = field.add(prod[k], field.one)
        if not prod[k]:
            del prod[k]
        args = (field, alg.labels, structure, alg.idempotents, alg.peirce)
        failing = _failing_triples(Algebra(*args, check=False))
        if not failing:
            continue
        with pytest.raises(ValueError, match="associativity fails"):
            Algebra(*args)
        with pytest.raises(ValueError) as info:
            Algebra(*args, presentation=alg.presentation,
                    basis_paths=alg.basis_paths, nilpotency=alg.nilpotency)
        message = str(info.value)
        if "first arrow times the rest" in message:
            caught.add("certificate")
            continue
        assert "associativity fails" in message
        triple = tuple(int(x) for x in re.findall(r"\d+", message))
        assert triple in failing and triple[1] in generators
        caught.add("middle factor")
    # ex3_8_B has no certified product with a factor of length >= 2
    assert caught == {"certificate", "middle factor"} if name == "A_8" \
        else caught == {"middle factor"}


# -- unit and Peirce checks ------------------------------------------------


def _unit_fails(alg):
    """The unit check by brute force, with full products."""
    unit = alg.unit_coords()
    for j in range(alg.dim):
        b = {j: alg.field.one}
        if alg.multiply_coords(unit, b) != b or \
           alg.multiply_coords(b, unit) != b:
            return True
    return False


@pytest.fixture(scope="module", params=["ex3_8_B", "A_8"])
def axiom_algebra(request):
    """A bundled algebra, and a generated one of dim 36."""
    if request.param == "A_8":
        return _linear_a(8)
    return build_algebra(load_bundled(request.param)[1])


def test_corrupted_unit_raises(axiom_algebra):
    # On ex3_8_B and A_8 (dim 36), on either side, a unit product e.b_j is
    # scaled, given an extra term, or dropped: the unit check raises.  It
    # is moved to another idempotent, or split over two that cancel: the
    # unit still acts as one (it is their sum), so another check raises.
    # Each case is decided by the brute-force unit check.
    alg = axiom_algebra
    field = alg.field
    one = field.one
    idem = [idx for _, idx in alg.idempotents]
    rng = random.Random(alg.dim)
    raised = 0
    for trial in range(10):
        j = rng.choice(alg.radical_indices)
        left = trial % 2 == 0

        def key(idx):
            return (idx, j) if left else (j, idx)

        (e,) = [e for e in idem if alg.structure.get(key(e))]
        other = next(f for f in idem if f != e)
        k = rng.choice([i for i in alg.radical_indices if i != j])
        structure = {pair: dict(prod) for pair, prod in alg.structure.items()}
        kind = trial // 2
        if kind == 0:
            structure[key(e)][j] = field.add(one, one)
        elif kind == 1:
            structure[key(e)][k] = one
        elif kind == 2:
            del structure[key(e)]
        elif kind == 3:
            structure[key(other)] = structure.pop(key(e))
        else:
            structure[key(e)][k] = one
            structure[key(other)] = {k: field.neg(one)}
        args = (field, alg.labels, structure, alg.idempotents, alg.peirce)
        if _unit_fails(Algebra(*args, check=False)):
            with pytest.raises(ValueError,
                               match="unit is not a two-sided identity"):
                Algebra(*args)
            raised += 1
        else:
            with pytest.raises(ValueError) as info:
                Algebra(*args)
            assert "unit" not in str(info.value)
    assert raised == 6


def test_wrong_peirce_tag_raises(axiom_algebra):
    # every other tag on the same pair of vertices, and an unknown vertex
    alg = axiom_algebra
    for i in alg.radical_indices:
        x, y = alg.peirce[i]
        for tag in ((y, x), (x, x), (y, y)):
            if tag == (x, y):
                continue
            peirce = list(alg.peirce)
            peirce[i] = tag
            with pytest.raises(ValueError,
                               match=f"bad Peirce tag for basis vector {i}$"):
                Algebra(alg.field, alg.labels, alg.structure,
                        alg.idempotents, peirce)
        peirce = list(alg.peirce)
        peirce[i] = (x, "nowhere")
        with pytest.raises(ValueError, match="no idempotent named 'nowhere'"):
            Algebra(alg.field, alg.labels, alg.structure, alg.idempotents,
                    peirce)
