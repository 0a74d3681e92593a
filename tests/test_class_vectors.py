"""phi^n and the cup product on vectors of the normalized complexes, and
the kernel sweep that builds their representatives.

`extension.normalized_projection` (P^n: N^n(B) -> N^n(C)) and
`NormalizedComplex.cup` are held to the cochain forms the checks used
before (`transport` through `project_cochain`, and `cup`), on the 15
identity extensions of verify-paper, a split extension with E^2 != 0 and
a presented extension whose given q scales an arrow, rebuilt as
C (+) ker p like every presented extension.
`linalg.kernel_basis_sparse` is held to the forward-row sweep on every
kernel of one verification run.
"""

import random
from fractions import Fraction

import pytest

from hochschild import verification
from hochschild.algebra import algebra_morphism
from hochschild.bimodule import Bimodule, dual_bimodule, regular_bimodule
from hochschild.cohomology import (
    Cochain, NormalizedComplex, _normalized_complex, cup,
    random_normalized_vector,
)
from hochschild.extension import (
    check_surjectivity_witness, extension_from_maps, normalized_projection,
    project_cochain, projection_morphism, split_extension,
)
from hochschild.linalg import Mat, QQ

from conftest import (
    diagonal_maps, differential_on_rows, forward_kernel, same_vectors,
    twisted_regular,
)


def scaled_nakayama_extension(c, b):
    """The presented Nakayama extension with q(alpha0) = 2 a0, so that q
    and p carry coefficients other than 1 and -1."""
    cq, bq = c.presentation.quiver, b.presentation.quiver
    p = algebra_morphism(b, c, {
        "a0": c.element_from_path(cq.path("alpha0")).scaled(Fraction(1, 2)),
        "a1": c.element_from_path(cq.path("alpha1")),
        "abar0": c.element_from_path(cq.path("alpha1")),
        "abar1": c.element_from_path(cq.path("alpha0")).scaled(-1),
    })
    q = algebra_morphism(c, b, {
        "alpha0": b.element_from_path(bq.path("a0")).scaled(2),
        "alpha1": b.element_from_path(bq.path("a1")),
    })
    return extension_from_maps(c, b, p, q)


@pytest.fixture(scope="module")
def extensions(nakayama_c, nakayama_b):
    """The identity extensions of verify-paper, the split extension of the
    Nakayama algebra by its regular bimodule, and a presented extension
    whose q scales an arrow."""
    suite = verification.Suite()
    exts = [ext for _, ext in verification._identity_extensions(suite)]
    assert len(exts) == 15
    return exts + [split_extension(nakayama_c, regular_bimodule(nakayama_c)),
                   scaled_nakayama_extension(nakayama_c, nakayama_b)]


def complexes(ext):
    return (_normalized_complex(ext.B, regular_bimodule(ext.B)),
            _normalized_complex(ext.C, regular_bimodule(ext.C)))


@pytest.mark.parametrize("n", range(4))
def test_projection_matrix_is_transport_on_the_basis(extensions, n):
    nonzero = 0
    for ext in extensions:
        nc_b, nc_c = complexes(ext)
        P = normalized_projection(ext, n)
        assert (P.rows, P.cols) == (nc_c.dim(n), nc_b.dim(n))
        for j in range(nc_b.dim(n)):
            image = project_cochain(ext, nc_b.embed(n, {j: ext.B.field.one}))
            assert P.column(j) == nc_c.project(image)
        nonzero += P.nnz()
        assert normalized_projection(ext, n) is P
    assert nonzero


@pytest.mark.parametrize("n", range(3))
def test_projection_matrix_is_a_chain_map(extensions, n):
    # d_C P^n == P^{n+1} d_B, exactly, as matrices
    nonzero = 0
    for ext in extensions:
        nc_b, nc_c = complexes(ext)
        lhs = differential_on_rows(nc_c, n).matmul(
            normalized_projection(ext, n))
        rhs = normalized_projection(ext, n + 1).matmul(
            differential_on_rows(nc_b, n))
        assert lhs == rhs
        nonzero += lhs.nnz()
    assert nonzero


def test_vector_cup_is_the_cochain_cup(extensions, nakayama_c):
    # random vectors and sampled basis pairs within total degree 3, on the
    # regular bimodules of B and C, and on a dual bimodule (zero product)
    rng = random.Random(19)
    spaces = [(alg, regular_bimodule(alg))
              for ext in extensions for alg in (ext.B, ext.C)]
    spaces.append((nakayama_c, dual_bimodule(nakayama_c)))
    one = QQ.one
    nonzero = 0
    for alg, module in spaces:
        nc = _normalized_complex(alg, module)
        for s in range(4):
            for t in range(4 - s):
                pairs = [(random_normalized_vector(nc, s, rng),
                          random_normalized_vector(nc, t, rng))]
                if nc.dim(s) and nc.dim(t):
                    pairs += [({rng.randrange(nc.dim(s)): one},
                               {rng.randrange(nc.dim(t)): one})
                              for _ in range(6)]
                for f, g in pairs:
                    got = nc.cup(s, f, t, g)
                    assert got == nc.project(
                        cup(nc.embed(s, f), nc.embed(t, g)))
                    nonzero += bool(got)
    assert nonzero > 100


def test_vector_cup_needs_a_product(nakayama_b):
    nc = NormalizedComplex(nakayama_b, twisted_regular(nakayama_b))
    with pytest.raises(ValueError, match="product"):
        nc.cup(0, {0: 1}, 1, {0: 1})


def test_vector_cup_refuses_a_product_off_its_block(nakayama_b):
    # e_x times a radical vector b put back at e_x: the key lies outside
    # N^1, and the cup must say so rather than drop it
    reg = regular_bimodule(nakayama_b)
    nc = _normalized_complex(nakayama_b, reg)
    _, m = nc.basis(1)[0][0]
    e = next(i for _, i in nakayama_b.idempotents
             if nakayama_b.peirce[i][0] == nakayama_b.peirce[m][0])
    product = dict(reg.product)
    product[(e, m)] = {e: 1}
    bad = Bimodule(nakayama_b, reg.dim, reg.left, reg.right,
                   product=product, check=False)
    nc_bad = NormalizedComplex(nakayama_b, bad)
    row = nc_bad.index(0)[e]
    with pytest.raises(AssertionError, match="left the subcomplex"):
        nc_bad.cup(0, {row: 1}, 1, {0: 1})


def test_projection_matrix_with_a_non_idempotent_section():
    # q sends the idempotent of C = k to e_0 + e_1, no basis idempotent
    # of B = k x k; rebuilt as C (+) ker p, phi^n and the witness run
    C, B, p, q = diagonal_maps()
    ext = extension_from_maps(C, B, p, q)
    got = [(phi.source.dim, phi.target.dim, phi.rank)
           for phi in (projection_morphism(ext, n) for n in range(3))]
    assert got == [(2, 1, 1), (0, 0, 0), (0, 0, 0)]
    zeta = Cochain(C, regular_bimodule(C), 1)
    assert check_surjectivity_witness(ext, 1, zeta,
                                      Mat.zero(1, 1, QQ))["pass"]


def test_kernels_of_a_run_match_the_forward_row_sweep(instrumented_run):
    # every kernel of one verify-paper run, entries and scalar types: the
    # row renumbering changes the fill-in only
    seen = instrumented_run.kernels
    assert instrumented_run.report["pass"]
    assert len(seen) > 150
    assert sum(m.cols for m, _ in seen) > 10_000
    for m, got in seen:
        assert same_vectors(got, forward_kernel(m))
