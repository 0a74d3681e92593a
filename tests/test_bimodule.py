import random

import pytest

from hochschild.algebra import algebra_morphism, build_algebra
from hochschild.algfile import BUNDLED, load_bundled
from hochschild.bimodule import (
    Bimodule, bimodules_isomorphic, dual_bimodule, hom_bimodule,
    is_symmetric_over_center, pullback_bimodule, regular_bimodule,
    sub_bimodule, tensor_over, zero_bimodule,
)
from hochschild.extcohom import ext_dual_bimodule
from hochschild.linalg import Mat, QQ, kernel_basis_sparse, rank

from conftest import (
    certified_extension_algebra, reference_bimodule_check, twisted_regular,
)


@pytest.fixture(scope="module")
def nakayama_maps(nakayama_b, nakayama_c):
    """The split surjection p: B -> C with section q, and E = ker p."""
    c, b = nakayama_c, nakayama_b
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
    return p, q


@pytest.fixture(scope="module")
def kernel_bimodule(nakayama_b, nakayama_c, nakayama_maps):
    """ker p as a C-C-bimodule: actions through q inside B."""
    p, q = nakayama_maps
    kernel = kernel_basis_sparse(p)
    ambient = pullback_bimodule(nakayama_c, q, regular_bimodule(nakayama_b),
                                check=False)
    return sub_bimodule(ambient, kernel)


def test_regular_dimension(nakayama_c):
    assert regular_bimodule(nakayama_c).dim == 4


def test_regular_actions_commute(nakayama_b):
    reg = regular_bimodule(nakayama_b)
    for i in range(nakayama_b.dim):
        for j in range(nakayama_b.dim):
            assert reg.left[i].matmul(reg.right[j]) == \
                reg.right[j].matmul(reg.left[i])


def test_dual_dimension(corpus):
    for alg in corpus.values():
        assert dual_bimodule(alg).dim == alg.dim


def test_dual_idempotents_project(nakayama_c):
    dc = dual_bimodule(nakayama_c)
    # e_x . f . e_y projects onto the dual vectors of paths from y to x
    for _, xi in nakayama_c.idempotents:
        lm = dc.left[xi]
        assert lm.matmul(lm) == lm


def test_kernel_bimodule_is_dual(kernel_bimodule, nakayama_c):
    dc = dual_bimodule(nakayama_c)
    assert kernel_bimodule.dim == 4
    verdict = bimodules_isomorphic(kernel_bimodule, dc)
    assert verdict.verdict == "yes"
    assert rank(verdict.witness) == 4


def test_kernel_bimodule_squares_to_zero(kernel_bimodule):
    for i in range(kernel_bimodule.dim):
        for j in range(kernel_bimodule.dim):
            assert kernel_bimodule.multiply({i: QQ.one}, {j: QQ.one}) == {}


def test_iso_identity(nakayama_c):
    reg = regular_bimodule(nakayama_c)
    assert bimodules_isomorphic(reg, reg).verdict == "yes"


def test_iso_dimension_mismatch(nakayama_c):
    reg = regular_bimodule(nakayama_c)
    assert bimodules_isomorphic(reg, zero_bimodule(nakayama_c)).verdict == "no"


def test_regular_not_isomorphic_to_dual_here(triangle_c):
    # a triangular algebra is not self-injective; Hom(C, DC) cannot contain
    # an isomorphism, and for this algebra the verdict is decisive
    reg = regular_bimodule(triangle_c)
    dc = dual_bimodule(triangle_c)
    assert bimodules_isomorphic(reg, dc).verdict in ("no", "inconclusive")


def test_hom_regular_regular_is_center(nakayama_c, triangle_b):
    # Hom_{C-C}(C, X) = invariants; for X = C that is the centre
    assert len(hom_bimodule(regular_bimodule(nakayama_c),
                            regular_bimodule(nakayama_c))) == 1
    assert len(hom_bimodule(regular_bimodule(triangle_b),
                            regular_bimodule(triangle_b))) == 2


def test_hom_maps_are_morphisms(kernel_bimodule, nakayama_c):
    dc = dual_bimodule(nakayama_c)
    for h in hom_bimodule(kernel_bimodule, dc):
        for i in range(nakayama_c.dim):
            assert h.matmul(kernel_bimodule.left[i]) == dc.left[i].matmul(h)
            assert h.matmul(kernel_bimodule.right[i]) == dc.right[i].matmul(h)


def test_symmetric_over_center(nakayama_c, triangle_c, kernel_bimodule):
    assert is_symmetric_over_center(regular_bimodule(nakayama_c))
    assert is_symmetric_over_center(dual_bimodule(nakayama_c))
    assert is_symmetric_over_center(kernel_bimodule)
    # over a triangular algebra every bimodule is symmetric (centre is k)
    assert is_symmetric_over_center(dual_bimodule(triangle_c))


def test_tensor_unit(nakayama_c, kernel_bimodule):
    reg = regular_bimodule(nakayama_c)
    assert tensor_over(reg, kernel_bimodule).dim == kernel_bimodule.dim
    assert tensor_over(kernel_bimodule, reg).dim == kernel_bimodule.dim


def test_tensor_with_zero(nakayama_c):
    reg = regular_bimodule(nakayama_c)
    z = zero_bimodule(nakayama_c)
    assert tensor_over(reg, z).dim == 0
    assert tensor_over(z, reg).dim == 0


def test_tensor_associative_dimensions(nakayama_c, kernel_bimodule):
    e = kernel_bimodule
    left = tensor_over(tensor_over(e, e), e)
    right = tensor_over(e, tensor_over(e, e))
    assert left.dim == right.dim


def test_tensor_bruteforce_oracle(kernel_bimodule):
    # independent construction of the balanced quotient, dimensions only
    e = kernel_bimodule
    field = e.field
    n = e.dim * e.dim
    gens = []
    for c in range(e.algebra.dim):
        for i in range(e.dim):
            for j in range(e.dim):
                vec = {}
                for r, v in e.right[c].column(i).items():
                    vec[r * e.dim + j] = v
                for s, v in e.left[c].column(j).items():
                    key = i * e.dim + s
                    w = field.sub(vec.get(key, field.zero), v)
                    if w:
                        vec[key] = w
                    elif key in vec:
                        del vec[key]
                if vec:
                    gens.append(vec)
    m = Mat(n, len(gens), field,
            {k: g for k, g in enumerate(gens)})
    expected = n - rank(m)
    assert tensor_over(e, e).dim == expected


def test_sub_bimodule_rejects_non_closed(nakayama_b):
    reg = regular_bimodule(nakayama_b)
    # a single arrow does not span an action-closed subspace
    with pytest.raises(ValueError):
        sub_bimodule(reg, [{2: QQ.one}])


def test_peirce_tags(kernel_bimodule):
    assert kernel_bimodule.is_graded()


@pytest.mark.parametrize("name", ["nakayama_c", "kite_b", "square"])
def test_corrupted_product_is_refused(corpus, name):
    alg = corpus[name]
    reg = regular_bimodule(alg)
    Bimodule(alg, alg.dim, reg.left, reg.right, product=alg.structure)
    # double the constants of one product x_i x_j at a time
    for key, prod in sorted(alg.structure.items()):
        if not prod:
            continue
        product = dict(alg.structure)
        product[key] = {k: alg.field.add(c, c) for k, c in prod.items()}
        with pytest.raises(ValueError, match="associativity fails"):
            Bimodule(alg, alg.dim, reg.left, reg.right, product=product)


# -- the A (+) M certificate against the dense reference ---------------------

COEFFICIENTS = {
    "regular": regular_bimodule,
    "dual": dual_bimodule,
    "E_1": lambda alg: ext_dual_bimodule(alg, 1),
    "E_2": lambda alg: ext_dual_bimodule(alg, 2),
    "DC (x)_C DC": lambda alg: tensor_over(dual_bimodule(alg),
                                           dual_bimodule(alg)),
}
CERTIFIED_CASES = [(name, kind) for name in BUNDLED for kind in COEFFICIENTS]


@pytest.fixture(scope="module")
def bundled():
    return {name: build_algebra(load_bundled(name)[1]) for name in BUNDLED}


def mutants(module, seed, bumps=6, doubled=3):
    """(name, left, right, product): the module as it is, its two sides
    swapped, one entry of one left or right action matrix bumped by one
    (bumps per side, at seeded places), and one product constant
    doubled (up to doubled of them)."""
    rng = random.Random(seed)
    alg, dim, field = module.algebra, module.dim, module.field
    yield "as is", module.left, module.right, module.product
    yield "sides swapped", module.right, module.left, module.product
    for side in ("left", "right") if dim else ():
        for _ in range(bumps):
            c, r, k = (rng.randrange(alg.dim), rng.randrange(dim),
                       rng.randrange(dim))
            acts = list(getattr(module, side))
            acts[c] = acts[c].add(Mat.from_entries(dim, dim, field,
                                                   {(r, k): 1}))
            pair = (acts, module.right) if side == "left" else \
                (module.left, acts)
            yield f"{side}[{c}] entry {(r, k)} bumped", *pair, module.product
    keys = sorted(key for key, p in (module.product or {}).items() if p)
    for key in rng.sample(keys, min(doubled, len(keys))):
        product = dict(module.product)
        product[key] = {k: field.add(c, c) for k, c in product[key].items()}
        yield f"product {key} doubled", module.left, module.right, product


def certified_verdicts(module, seed):
    """{mutant name: (accepted by A (+) M, accepted by the reference,
    accepted as the algebra of the split extension by it)}: the third is
    the certificate of B that `SplitExtensionData` leaves to the first."""
    out = {}
    for name, left, right, product in mutants(module, seed):
        mutant = Bimodule(module.algebra, module.dim, left, right,
                          labels=list(module.labels), product=product,
                          check=False)
        verdicts = []
        for check in (Bimodule._check_axioms, reference_bimodule_check,
                      lambda m: certified_extension_algebra(m.algebra, m)):
            try:
                check(mutant)
                verdicts.append(True)
            except ValueError:
                verdicts.append(False)
        out[name] = tuple(verdicts)
    return out


@pytest.mark.parametrize("name, kind", CERTIFIED_CASES,
                         ids=[f"{n}-{k}" for n, k in CERTIFIED_CASES])
def test_extension_certificate_matches_the_reference(bundled, name, kind):
    module = COEFFICIENTS[kind](bundled[name])
    verdicts = certified_verdicts(module, f"{name} {kind}")
    assert verdicts["as is"] == (True, True, True)
    assert {m: v for m, v in verdicts.items() if len(set(v)) > 1} == {}


def test_extension_certificate_matches_the_reference_off_the_grading(
        nakayama_c):
    module = twisted_regular(nakayama_c)
    assert not module.is_graded()
    verdicts = certified_verdicts(module, "twisted")
    assert verdicts["as is"] == (True, True, True)
    assert {m: v for m, v in verdicts.items() if len(set(v)) > 1} == {}
    assert sum(v == (False, False, False) for v in verdicts.values()) >= 10


def test_extension_structure_holds_actions_and_product(bundled):
    # A (+) M, A's basis first: A's product, the actions, and M's product;
    # the trivial extension by the dual module is built from it
    from hochschild.extension import trivial_extension
    alg = bundled["ex3_8_C"]
    n = alg.dim
    dc = dual_bimodule(alg)
    assert trivial_extension(alg, dc).B.structure == dc.extension_structure()
    for module in (dc, regular_bimodule(alg)):
        structure = module.extension_structure()
        shifted = {(i, j): p for (i, j), p in structure.items()
                   if p and (i >= n or j >= n)}
        want = {}
        for a in range(n):
            for b, col in module.left[a].columns_items():
                want[(a, n + b)] = {n + k: v for k, v in col.items()}
            for b, col in module.right[a].columns_items():
                want[(n + b, a)] = {n + k: v for k, v in col.items()}
        for (a, b), p in module.product.items():
            if p:
                want[(n + a, n + b)] = {n + k: v for k, v in p.items()}
        assert shifted == want
        assert {key: p for key, p in structure.items()
                if key[0] < n and key[1] < n} == alg.structure
