import random
from fractions import Fraction

import pytest

from hochschild.linalg import (
    QQ, Mat, PrimeField, SubspaceCoords, echelon_basis, kernel_basis,
    quotient_basis, quotient_data, rank, same_subspace, solve,
)


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


def test_quotient_single_line():
    q = quotient_data([(1, 0)], 2)
    assert q.representatives() == [(0, 1)]
    assert q.coords((3, 5)) == (5,)


def test_quotient_full_subspace():
    q = quotient_data([(1, 0), (0, 1)], 2)
    assert q.representatives() == []
    assert q.coords((7, -2)) == ()


def test_quotient_zero_subspace():
    q = quotient_data([], 1)
    assert q.representatives() == [(1,)]
    assert q.coords((4,)) == (4,)


def test_quotient_dimension_mismatch():
    with pytest.raises(ValueError):
        quotient_data([(1, 0, 0)], 2)


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
