import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hochschild.linalg import (
    QQ, Mat, PrimeField, SubspaceCoords, Sweep, echelon_basis, kernel_basis,
    kernel_basis_sparse, quotient_basis, rank, same_subspace, solve,
)

from conftest import FractionRationals, forward_kernel, same_vectors


def mat(rows):
    return Mat.from_rows(rows, QQ)


def test_rank_identity():
    assert rank(Mat.identity(2, QQ)) == 2


def test_rank_zero_map():
    assert rank(Mat.zero(3, 4, QQ)) == 0


def test_rank_dependent_rows():
    # hand elimination: second row is twice the first
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(3, QQ)) == []


def test_kernel_zero_map():
    ks = kernel_basis(Mat.zero(2, 3, QQ))
    assert ks == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_kernel_single_row():
    ks = kernel_basis(mat([[1, 1, 0]]))
    assert ks == [(-1, 1, 0), (0, 0, 1)]


def test_kernel_deterministic():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert kernel_basis(m) == kernel_basis(m)


def test_solve_identity():
    assert solve(Mat.identity(2, QQ), (3, 4)) == (3, 4)


def test_solve_no_solution():
    assert solve(Mat.zero(2, 2, QQ), (1, 0)) is None


def test_solve_fraction():
    x = solve(mat([[2]]), (1,))
    assert x == (Fraction(1, 2),)


def test_solve_exact():
    m = mat([[1, 2, 0], [0, 1, 1]])
    b = (3, 2)
    x = m.apply(solve(m, b))
    assert x == b


@pytest.mark.parametrize("seed", range(6))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    m = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
    assert rank(m) + len(kernel_basis(m)) == cols


@pytest.mark.parametrize("seed", range(6))
def test_solve_certificate(seed):
    # solve returns an exact solution, or the augmented rank grows
    rng = random.Random(100 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = mat([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
    b = tuple(rng.randint(-2, 2) for _ in range(rows))
    x = solve(m, b)
    if x is None:
        aug = mat([list(r) + [bv] for r, bv in zip(m.to_dense(), b)])
        assert rank(aug) == rank(m) + 1
    else:
        assert m.apply(x) == tuple(Fraction(v) for v in b)


def test_kernel_vectors_lie_in_kernel():
    m = mat([[1, 2, 3], [0, 1, 1]])
    for v in kernel_basis(m):
        assert m.apply(v) == (0, 0)


def test_prime_field_rank():
    f2 = PrimeField(2)
    m = Mat.from_rows([[1, 1], [1, 1]], f2)
    assert rank(m) == 1
    # over Q the same integer matrix also has rank 1, but [[1,1],[1,3]] differs
    m2 = Mat.from_rows([[1, 1], [1, 3]], f2)
    assert rank(m2) == 1
    assert rank(mat([[1, 1], [1, 3]])) == 2


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_mismatch_matmul():
    a = Mat.identity(2, QQ)
    b = Mat.identity(2, PrimeField(3))
    with pytest.raises(ValueError):
        a.matmul(b)


def test_matmul_transpose():
    a = mat([[1, 2], [3, 4], [5, 6]])
    b = mat([[1, 0, 2], [0, 1, 1]])
    ab = a.matmul(b)
    assert ab.to_dense() == [[1, 2, 4], [3, 4, 10], [5, 6, 16]]
    assert a.transpose().to_dense() == [[1, 3, 5], [2, 4, 6]]


def test_echelon_subspace_equality():
    a = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    b = [{0: Fraction(1)}, {0: Fraction(2), 1: Fraction(3)}]
    assert same_subspace(a, b, QQ)
    c = [{0: Fraction(1)}]
    assert not same_subspace(a, c, QQ)
    assert echelon_basis(a, QQ) == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_rationals_integral_results_are_ints():
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert type(QQ.of(Fraction(6, 3))) is int
    assert QQ.of("4/2") == 2 and type(QQ.of("4/2")) is int
    half = Fraction(1, 2)
    for got in (QQ.add(half, half), QQ.sub(Fraction(5, 2), half),
                QQ.mul(half, 4), QQ.addmul(half, half, 1), QQ.div(4, 2),
                QQ.inv(Fraction(1, 3)), QQ.div(half, half)):
        assert type(got) is int


def test_rationals_division_is_exact():
    got = QQ.div(3, 2)
    assert got == Fraction(3, 2)
    assert type(got) is Fraction
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.of("1/3")) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_rationals_int_and_fraction_agree():
    # mixed scalars must compare, hash and print alike
    for k in (-3, 0, 1, 7):
        assert k == Fraction(k) and hash(k) == hash(Fraction(k))
        assert QQ.to_str(k) == QQ.to_str(Fraction(k))
    assert {0: 2} == {0: Fraction(2)}


# Q scalars as the field holds them: ints, and Fractions only when not
# integral; halves make integral sums and products of Fractions
Q_SCALAR = st.one_of(
    st.integers(-3, 3),
    st.integers(-10**20, 10**20),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]),
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.integers(1, 60)).map(QQ.of),
)


@given(a=Q_SCALAR, b=Q_SCALAR, c=Q_SCALAR)
def test_rationals_arithmetic_matches_fraction(a, b, c):
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    for got, want in ((QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
                      (QQ.mul(a, b), fa * fb),
                      (QQ.addmul(a, c, b), fa + fc * fb)):
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


def test_quotient_basis_modulo_boundaries():
    # e0 survives; e0 + e1 is e0 modulo e1; 2e1 + 2e2 leaves e2
    cycles = [{0: 1}, {0: 1, 1: 1}, {1: 2, 2: 2}]
    reps, rref = quotient_basis(QQ, cycles, [{1: 3}])
    assert rref == [{1: 1}]
    assert reps == [{0: 1}, {2: 1}]


def test_quotient_basis_without_boundaries_keeps_independent_cycles():
    f5 = PrimeField(5)
    reps, rref = quotient_basis(f5, [{0: 2, 1: 1}, {0: 4, 1: 2}, {1: 3}], [])
    assert rref == []
    assert reps == [{0: 1, 1: 3}, {1: 1}]


def test_quotient_basis_everything_a_boundary():
    reps, rref = quotient_basis(QQ, [{0: 1, 1: -1}], [{0: 1}, {1: 1}])
    assert reps == []
    assert rref == [{0: 1}, {1: 1}]


def test_subspace_coords_modulo():
    coords = SubspaceCoords(QQ, [{0: 1, 1: 1}, {2: 2}], modulo=[{1: 1}])
    # 2(e0 + e1) + 3 e1 + 1/2 (2 e2)
    assert coords.coords({0: 2, 1: 5, 2: 1}) == {0: 2, 1: Fraction(1, 2)}
    assert coords.coords({1: 7}) == {}
    assert coords.find({3: 1}) is None
    with pytest.raises(ValueError, match="outside the subspace"):
        coords.coords({3: 1})


def test_subspace_coords_dependent_modulo_subspace():
    with pytest.raises(ValueError, match="dependent"):
        SubspaceCoords(QQ, [{0: 1, 1: 1}, {0: 2}], modulo=[{1: 1}])


# -- a dense Gauss-Jordan oracle that shares no code with linalg ------------

P = 10007
FIELDS = {"QQ": QQ, "all-Fraction Q": FractionRationals(),
          "GF(10007)": PrimeField(P)}


class _Arith:
    """Scalars of the oracle: Fractions over Q, ints mod P over GF(P)."""

    def __init__(self, name):
        self.modular = name == "GF(10007)"

    def of(self, x):
        x = Fraction(x)
        if self.modular:
            return x.numerator * pow(x.denominator, P - 2, P) % P
        return x

    def mul(self, a, b):
        return a * b % P if self.modular else a * b

    def sub(self, a, b):
        return (a - b) % P if self.modular else a - b

    def inv(self, a):
        return pow(a, P - 2, P) if self.modular else 1 / a


def _rref(ar, rows, width):
    """Gauss-Jordan on dense rows: (reduced nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = ar.inv(rows[r][c])
        rows[r] = [ar.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ar.sub(x, ar.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _sparse(row):
    return {k: v for k, v in enumerate(row) if v}


def _lead_reduce(ar, vec, pivots):
    """Kill the lowest entry against lead-1 pivots until it is fresh."""
    while True:
        lead = next((k for k, v in enumerate(vec) if v), None)
        if lead is None or lead not in pivots:
            return lead, vec
        c = vec[lead]
        vec = [ar.sub(x, ar.mul(c, y)) for x, y in zip(vec, pivots[lead])]


def _oracle_quotient(ar, cycles, boundaries, width):
    rref, _ = _rref(ar, boundaries, width)
    pivots = {next(k for k, v in enumerate(r) if v): r for r in rref}
    reps = []
    for z in cycles:
        lead, vec = _lead_reduce(ar, z, pivots)
        if lead is not None:
            inv = ar.inv(vec[lead])
            pivots[lead] = [ar.mul(inv, x) for x in vec]
            reps.append(_sparse(pivots[lead]))
    return reps, [_sparse(r) for r in rref]


def _oracle_solve(ar, columns, b):
    """x on the pivot columns with sum x_j columns[j] = b, or None."""
    n = len(columns)
    rows = [[col[i] for col in columns] + [b[i]] for i in range(len(b))]
    rref, pivots = _rref(ar, rows, n + 1)
    if n in pivots:
        return None
    return {c: r[n] for c, r in zip(pivots, rref) if r[n]}


def _check_types(field, obj):
    """QQ holds integral scalars as ints and others as Fractions; the
    all-Fraction field holds Fractions; GF(p) holds ints in [0, p)."""
    if obj is None:
        return
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            _check_types(field, x)
    elif field is QQ:
        want = int if obj == int(obj) else Fraction
        assert type(obj) is want, obj
    elif isinstance(field, PrimeField):
        assert type(obj) is int and 0 <= obj < P
    else:
        assert type(obj) is Fraction


# zeros, small integers, small fractions, and large integers and fractions
# that make the integers inside the elimination grow
ENTRY = st.one_of(
    st.just(0), st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.integers(-10**15, 10**15),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 40)),
)


@st.composite
def column_lists(draw, height=None):
    """Columns of one height, with zero and repeated (scaled) columns."""
    height = draw(st.integers(1, 6)) if height is None else height
    cols = draw(st.lists(st.lists(ENTRY, min_size=height, max_size=height),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "repeat"]))
        at = draw(st.integers(0, len(cols)))
        if kind == "zero":
            cols.insert(at, [0] * height)
        else:
            src = cols[draw(st.integers(0, len(cols) - 1))]
            k = draw(st.sampled_from([1, -1, 2, Fraction(3, 7)]))
            cols.insert(at, [k * x for x in src])
    return cols


def _vectors(field, cols):
    return [{i: field.of(x) for i, x in enumerate(c) if field.of(x)}
            for c in cols]


def _oracle_vectors(ar, cols):
    return [[ar.of(x) for x in c] for c in cols]


@pytest.mark.parametrize("name", FIELDS)
@given(cols=column_lists())
def test_kernel_echelon_rank_match_oracle(name, cols):
    field, ar = FIELDS[name], _Arith(name)
    vecs = _vectors(field, cols)
    m = Mat(len(cols[0]), len(cols), field,
            {j: v for j, v in enumerate(vecs) if v})
    dense_cols = _oracle_vectors(ar, cols)
    rows = [[c[i] for c in dense_cols] for i in range(m.rows)]
    rref, pivots = _rref(ar, rows, m.cols)
    kernel = []
    for j in (j for j in range(m.cols) if j not in pivots):
        vec = {j: ar.of(1)}
        for c, r in zip(pivots, rref):
            if r[j]:
                vec[c] = ar.sub(0, r[j])
        kernel.append(vec)
    got = kernel_basis_sparse(m)
    assert got == kernel
    _check_types(field, got)
    assert rank(m) == len(pivots)
    echelon = echelon_basis(vecs, field)
    assert echelon == [_sparse(r) for r in _rref(ar, dense_cols, m.rows)[0]]
    _check_types(field, echelon)


@pytest.mark.parametrize("name", FIELDS)
@given(cycles=column_lists(height=5), boundaries=column_lists(height=5))
def test_quotient_basis_matches_oracle(name, cycles, boundaries):
    field, ar = FIELDS[name], _Arith(name)
    got = quotient_basis(field, _vectors(field, cycles),
                         _vectors(field, boundaries))
    assert got == _oracle_quotient(ar, _oracle_vectors(ar, cycles),
                                   _oracle_vectors(ar, boundaries), 5)
    _check_types(field, got)


@pytest.mark.parametrize("name", FIELDS)
@given(vectors=column_lists(height=5), modulo=column_lists(height=5),
       queries=column_lists(height=5),
       combo=st.lists(st.integers(-3, 3), min_size=12, max_size=12))
def test_subspace_coords_match_oracle(name, vectors, modulo, queries, combo):
    field, ar = FIELDS[name], _Arith(name)
    # an independent family modulo an RREF list, as the engines build it
    modulo = echelon_basis(_vectors(field, modulo), field)
    reps, _ = quotient_basis(field, _vectors(field, vectors), modulo)
    coords = SubspaceCoords(field, reps, modulo=modulo)
    family = [[r.get(i, 0) for i in range(5)] for r in reps + modulo]
    oracle_family = _oracle_vectors(ar, family)
    # arbitrary queries, and one in the span
    queries.append([sum(Fraction(c) * v[i] for c, v in zip(combo, family))
                    for i in range(5)])
    for q in queries:
        got = coords.find(_vectors(field, [q])[0])
        want = _oracle_solve(ar, oracle_family, _oracle_vectors(ar, [q])[0])
        if want is not None:
            want = {j: c for j, c in want.items() if j < len(reps)}
        assert got == want
        _check_types(field, got)


@pytest.mark.parametrize("name", FIELDS)
@given(cols=column_lists(), rhs=st.data())
def test_solve_matches_oracle(name, cols, rhs):
    field, ar = FIELDS[name], _Arith(name)
    height = len(cols[0])
    m = Mat(height, len(cols), field,
            {j: v for j, v in enumerate(_vectors(field, cols)) if v})
    b = rhs.draw(st.one_of(
        st.lists(ENTRY, min_size=height, max_size=height),
        st.lists(st.integers(-2, 2), min_size=len(cols),
                 max_size=len(cols)).map(
            lambda x: [sum(Fraction(a) * c[i] for a, c in zip(x, cols))
                       for i in range(height)])))
    got = solve(m, [field.of(v) for v in b])
    want = _oracle_solve(ar, _oracle_vectors(ar, cols),
                         [ar.of(v) for v in b])
    if want is None:
        assert got is None
    else:
        assert got == tuple(want.get(j, 0) for j in range(len(cols)))
        _check_types(field, got)


# -- the feed order of rank ---------------------------------------------------


@pytest.mark.parametrize("name", ["QQ", "GF(10007)"])
@given(cols=column_lists(), data=st.data())
def test_rank_does_not_depend_on_column_order(name, cols, data):
    field = FIELDS[name]
    vecs = _vectors(field, cols)
    perm = data.draw(st.permutations(range(len(vecs))))

    def matrix(order):
        return Mat(len(cols[0]), len(cols), field,
                   {k: vecs[j] for k, j in enumerate(order) if vecs[j]})

    r = rank(matrix(range(len(vecs))))
    assert r == rank(matrix(perm)) == len(echelon_basis(vecs, field))


def test_rank_feeds_columns_last_to_first(monkeypatch):
    # the order is the whole of the speed-up of rank, and invisible in its
    # value: reverting it must fail here, not only in a timing
    fed = []
    insert = Sweep.insert

    def spy(self, vec, track=None):
        fed.append(dict(vec))
        return insert(self, vec, track)

    monkeypatch.setattr(Sweep, "insert", spy)
    m = mat([[1, 0, 0, 1, 0], [0, 0, 2, 0, 1], [0, 0, 1, 3, 0]])
    assert rank(m) == 3
    assert fed == [m.column(j) for j in (4, 3, 2, 0)]


# -- the row order of the kernel sweep ---------------------------------------


@st.composite
def sparse_matrices(draw, entry):
    """Sparse matrices up to 12 x 14, with empty, repeated and scaled
    columns, so that rows are met in scattered order."""
    rows = draw(st.integers(1, 12))
    cols = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "empty",
                                     "repeat"]))
        if kind == "repeat" and cols:
            src = cols[draw(st.integers(0, len(cols) - 1))]
            k = draw(st.sampled_from([1, -1, 2, Fraction(3, 5)]))
            cols.append({r: k * v for r, v in src.items()})
        elif kind == "empty":
            cols.append({})
        else:
            cols.append(draw(st.dictionaries(st.integers(0, rows - 1), entry,
                                             max_size=4)))
    return rows, cols


SPARSE_FIELDS = {"QQ": (QQ, ENTRY), "GF(7)": (PrimeField(7), st.integers(-9, 9))}


@pytest.mark.parametrize("name", SPARSE_FIELDS)
@given(data=st.data())
def test_kernel_matches_the_forward_row_sweep(name, data):
    field, entry = SPARSE_FIELDS[name]
    rows, cols = data.draw(sparse_matrices(entry))
    vecs = [{r: field.of(v) for r, v in c.items() if field.of(v)}
            for c in cols]
    m = Mat(rows, len(vecs), field, {j: v for j, v in enumerate(vecs) if v})
    got = kernel_basis_sparse(m)
    assert same_vectors(got, forward_kernel(m))
    _check_types(field, got)


def test_kernel_numbers_rows_latest_first(monkeypatch):
    # the renumbering is the whole of the gain and invisible in the
    # kernel: reverting it must fail here, not only in a timing
    fed = []
    reduce = Sweep.reduce

    def spy(self, vec, track=None):
        fed.append(dict(vec))
        return reduce(self, vec, track)

    monkeypatch.setattr(Sweep, "reduce", spy)
    m = mat([[0, 1, 1], [1, 0, 1], [0, 0, 0], [2, 3, 5]])
    assert kernel_basis_sparse(m) == [{0: -1, 1: -1, 2: 1}]
    # column 0 numbers rows 1 and 3 as 0 and -1; column 1 meets row 0,
    # new, numbered -2, so it leads there at once
    assert fed == [{0: 1, -1: 2}, {-2: 1, -1: 3}, {-2: 1, 0: 1, -1: 5}]
