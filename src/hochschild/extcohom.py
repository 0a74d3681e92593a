"""The bimodules E_m = Ext^m_C(DC, C) and the derivation action on them.

E_m is hh^m(C, Hom_k(DC, C)), and Hom_k(DC, C) = C (x)_k C with C acting
on the left factor from the left and on the right factor from the right
(`_ext_coefficients`, basis u * dim C + v, Peirce tag (s(u), t(v))).  Its
complex is therefore the engine's `NormalizedComplex` of C with those
coefficients, and E_m is that complex's `CohomologySpace` in degree m:
the basis vector (chain, u * dim C + v) is g_u (x) chain -> b_v.  Written
out, the differential is

    dth(f (x) a_0 (x) ... (x) a_m) = th(f.a_0 (x) a_1 ...)
        + sum_i (-1)^i th(f (x) ... a_{i-1} a_i ...)
        + (-1)^{m+1} th(f (x) a_0 ... a_{m-1}) . a_m

with the dual acted on by (f.c)(x) = f(cx).  The class space carries the
bimodule actions (c.th) = c th(-) and (th.c) = th(c.f (x) -).  A
derivation z of C acts on the complex by

    al_m(th)(f (x) a) = sum_j th(f (x) .. z(a_j) ..) - th(f o z (x) a)
                        - z(th(f (x) a))

which is a chain map, hence descends to E_m; for the trivial extension
B = C |x E_m the induced endomorphism witnesses the surjectivity of the
degree-1 projection morphism.

Every coordinate is the complex's flat bar key
(tensor_index * dim C + u) * dim C + v, on the ambient space
Hom_k(DC (x) C^{(x)m}, C) (`ambient_index`) as on E_m's complex, so al_m
is evaluated once, on ambient vectors (`DerivationAction.ambient_apply`),
and its matrix on the complex is that evaluation read through the index.
`ambient_differential_apply` evaluates the displayed formula on the full,
unnormalized space by its own loops.  It is kept on purpose as the
independent reference the normalized differential is checked against.
"""

import functools
import random

from .bimodule import Bimodule
from .cohomology import (
    CapExceeded, CohomologySpace, _factorizations, _normalized_complex,
    is_derivation, random_vector,
)
from .linalg import Mat, axpy

EXT_DEGREE_CAP = 3
EXT_SIZE_CAP = 2_000_000  # (dim C)^(m+2)


def _check_ext_cap(C, m):
    if m < 0:
        raise ValueError("negative degree")
    if m > EXT_DEGREE_CAP or C.dim ** (m + 2) > EXT_SIZE_CAP:
        raise CapExceeded(
            f"Ext complex at degree {m} exceeds the configured size guard")


def _ext_coefficients(C):
    """C (x)_k C as a C-bimodule, basis u * dim C + v, built once per C."""
    got = getattr(C, "_ext_coefficients", None)
    if got is None:
        d, field = C.dim, C.field
        left = [Mat(d * d, d * d, field, {
            u * d + v: {u2 * d + v: c for u2, c in col.items()}
            for u, col in C.left_mult(a).items() for v in range(d)})
            for a in range(d)]
        right = [Mat(d * d, d * d, field, {
            u * d + v: {u * d + v2: c for v2, c in col.items()}
            for v, col in C.right_mult(a).items() for u in range(d)})
            for a in range(d)]
        got = C._ext_coefficients = Bimodule(C, d * d, left, right,
                                             check=False)
    return got


def ambient_dim(C, m):
    """Dimension of the unnormalized space Hom_k(DC (x) C^{(x)m}, C)."""
    return C.dim ** (m + 2)


def ambient_index(C, u, slots, row):
    """Ambient coordinate of g_u (x) slots -> b_row: the flat bar key
    (tensor_index(slots) * d + u) * d + row of the Ext complex."""
    d = C.dim
    t = 0
    for s in slots:
        t = t * d + s
    return (t * d + u) * d + row


class ExtBimodule(Bimodule):
    """E_m as a concrete bimodule on the classes of its CohomologySpace:
    the actions (c.th) = c th(-) and (th.c) = th(c.f (x) -) on each
    representative, read back as classes."""

    def __init__(self, space):
        self.ext_degree = m = space.degree
        self.space = space
        C = space.algebra
        field = C.field
        d = C.dim
        pos = space.complex.index(m)
        keys = space.complex.keys(m)

        def act_vec(nvec, c, side):
            out = {}
            for k, coeff in nvec.items():
                key = keys[k]
                base = key - key % (d * d)  # flat key of (chain, 0)
                u, v = divmod(key - base, d)
                if side == "left":  # c.th = c th(-)
                    image = {pos[base + u * d + v2]: w
                             for v2, w in C.structure.get((c, v), {}).items()}
                else:  # th.c = th(c.f (x) -)
                    image = {pos[base + u2 * d + v]: w
                             for u2, w in C.structure.get((u, c), {}).items()}
                axpy(field, out, coeff, image)
            return out

        left, right = [], []
        for c in range(d):
            lcols, rcols = {}, {}
            for k, rep in enumerate(space.vectors()):
                img = self.class_coords(act_vec(rep, c, "left"))
                if img:
                    lcols[k] = img
                img = self.class_coords(act_vec(rep, c, "right"))
                if img:
                    rcols[k] = img
            left.append(Mat(space.dim, space.dim, field, lcols))
            right.append(Mat(space.dim, space.dim, field, rcols))
        super().__init__(C, space.dim, left, right,
                         labels=[f"ext{m}_{k}" for k in range(space.dim)],
                         product={})

    def representatives(self):
        """Normalized cocycle vectors representing the chosen basis."""
        return [dict(r) for r in self.space.vectors()]

    def class_coords(self, nvec):
        found = self.space.vector_coords(nvec)
        if found is None:
            raise ValueError("not a cocycle of the Ext complex")
        return found


def ext_dual_bimodule(C, m):
    """E_m = Ext^m_C(DC, C) with the actions on classes; cached per (C, m)."""
    cache = getattr(C, "_ext_bimodules", None)
    if cache is None:
        cache = C._ext_bimodules = {}
    got = cache.get(m)
    if got is None:
        _check_ext_cap(C, m)
        # not hh: the Ext complex is gated by _check_ext_cap, not the bar cap
        got = cache[m] = ExtBimodule(CohomologySpace(
            _normalized_complex(C, _ext_coefficients(C)), m))
    return got


# ---------------------------------------------------------------------------
# the derivation action


def _derivation_values(C, zeta):
    """zeta as a table index -> sparse value, requiring a normalized
    derivation (vanishing on idempotents, preserving the grading)."""
    if zeta.degree != 1:
        raise ValueError("the action needs a degree-1 cochain")
    if not is_derivation(zeta):
        raise ValueError("the action is defined for derivations only")
    idem = {idx for _, idx in C.idempotents}
    vals = {}
    for i in range(C.dim):
        v = zeta.value((i,))
        if i in idem and v:
            raise ValueError("derivation is not normalized on idempotents")
        if v:
            vals[i] = dict(v)
    return vals


class DerivationAction:
    """al_m built from a normalized derivation, with its induced matrix on
    E_m and its matrix on the Ext complex.

    Only the key offsets of al_m (terms) are built up front; E_m (ext),
    the matrix on its complex (normalized_matrix) and the induced matrix
    are built on first read, so that the ambient evaluator alone costs no
    Ext work.
    """

    def __init__(self, C, m, zeta):
        _check_ext_cap(C, m)
        self.C = C
        self.m = m
        self.zeta = zeta
        values = _derivation_values(C, zeta)
        d = C.dim
        # digit -> [(new digit - digit, coefficient)], new digit ascending:
        # sum_j th(.. z(a_j) ..) puts x in a chain slot holding s with
        # z(x)_s; - th(f o z (x) a) and - z(th(f (x) a)) put j in place of
        # u = i and of v = i with -z(i)_j
        by_slot, minus = {}, {}
        for x, zx in values.items():
            minus[x] = [(j - x, C.field.neg(c)) for j, c in zx.items()]
            for s, c in zx.items():
                by_slot.setdefault(s, []).append((x - s, c))
        # (place value, table) per digit of the flat key: slot p, u, v
        self.terms = [(d ** (m + 1 - p), by_slot) for p in range(m)] \
            + [(d, minus), (1, minus)]

    @functools.cached_property
    def ext(self):
        return ext_dual_bimodule(self.C, self.m)

    @functools.cached_property
    def normalized_matrix(self):
        pos = self.ext.space.complex.index(self.m)
        one = self.C.field.one
        cols = {}
        for key, idx in pos.items():
            col = {}
            for at, c in self.ambient_apply({key: one}).items():
                k = pos.get(at)
                if k is None:
                    raise AssertionError("derivation action left the Ext "
                                         f"basis at flat key {at}")
                col[k] = c
            if col:
                cols[idx] = col
        return Mat(len(pos), len(pos), self.C.field, cols)

    @functools.cached_property
    def induced(self):
        ind = {}
        for k, rep in enumerate(self.ext.representatives()):
            img = self.ext.class_coords(self.normalized_matrix.matvec(rep))
            if img:
                ind[k] = img
        return Mat(self.ext.dim, self.ext.dim, self.C.field, ind)

    def ambient_apply(self, vec):
        """al_m on a sparse vector of Hom_k(DC (x) C^{(x)m}, C), in flat
        keys: a term moves its key by (new digit - old digit) * place."""
        field = self.C.field
        add, mul = field.add, field.mul
        d = self.C.dim
        out = {}
        for key, coeff in vec.items():
            for place, table in self.terms:
                for shift, c in table.get(key // place % d, ()):
                    at = key + shift * place
                    value = mul(coeff, c)
                    if at in out:
                        w = add(out[at], value)
                        if w:
                            out[at] = w
                        else:
                            del out[at]
                    else:
                        out[at] = value
        return out


def ambient_differential_apply(C, m, vec):
    """The Ext-complex differential on an ambient sparse vector."""
    field = C.field
    d = C.dim
    fact = _factorizations(C)
    out = {}

    def add(idx, c):
        cur = out.get(idx, field.zero)
        w = field.add(cur, c)
        if w:
            out[idx] = w
        elif idx in out:
            del out[idx]

    minus_one = field.of(-1)
    for idx, coeff in vec.items():
        rest, v = divmod(idx, d)
        rest, u = divmod(rest, d)
        slots = []
        for _ in range(m):
            rest, s = divmod(rest, d)
            slots.append(s)
        slots.reverse()
        # th(f.b_0 (x) ...): [b_0 u]_{u'}
        for b0 in range(d):
            prod = C.structure.get((b0, u))
            if not prod:
                continue
            for u2, c in prod.items():
                add(ambient_index(C, u2, [b0] + slots, v),
                    field.mul(coeff, c))
        # contractions
        for p in range(m):
            sign = field.one if (p + 1) % 2 == 0 else minus_one
            for (x, y, c) in fact.get(slots[p], ()):
                add(ambient_index(C, u, slots[:p] + [x, y] + slots[p + 1:],
                                  v),
                    field.mul(field.mul(sign, c), coeff))
        # th(...).b_m
        sign = field.one if (m + 1) % 2 == 0 else minus_one
        for bm in range(d):
            prod = C.structure.get((v, bm))
            if not prod:
                continue
            for v2, c in prod.items():
                add(ambient_index(C, u, slots + [bm], v2),
                    field.mul(field.mul(sign, c), coeff))
    return out


def _ambient_differential(C, m):
    """The Ext-complex differential in degree m as a matrix on the ambient
    space, its columns from `ambient_differential_apply` on unit vectors;
    built once per (C, m) and shared by every derivation checked."""
    cache = getattr(C, "_ambient_differentials", None)
    if cache is None:
        cache = C._ambient_differentials = {}
    got = cache.get(m)
    if got is None:
        one = C.field.one
        cols = {}
        for idx in range(ambient_dim(C, m)):
            col = ambient_differential_apply(C, m, {idx: one})
            if col:
                cols[idx] = col
        got = cache[m] = Mat(ambient_dim(C, m + 1), ambient_dim(C, m),
                             C.field, cols)
    return got


def check_chain_map(C, m, zeta, trials=20, seed=23, ambient_limit=2000):
    """d(al_m th) == al_{m+1}(d th): full ambient basis when small, else on
    pseudorandom ambient cochains.  In full mode d is the cached matrix of
    `_ambient_differential`, so d(al_m th) is a combination of its columns,
    equal by linearity to `ambient_differential_apply` on al_m th."""
    _check_ext_cap(C, m + 1)
    action_m = DerivationAction(C, m, zeta)
    action_m1 = DerivationAction(C, m + 1, zeta)
    dim = ambient_dim(C, m)
    checked = 0
    if dim <= ambient_limit:
        one = C.field.one
        diff = _ambient_differential(C, m)
        for idx in range(dim):
            lhs = diff.matvec(action_m.ambient_apply({idx: one}))
            rhs = action_m1.ambient_apply(diff.column(idx))
            if lhs != rhs:
                return {"holds": False, "mode": "full", "checked": checked}
            checked += 1
        return {"holds": True, "mode": "full", "checked": checked}
    rng = random.Random(seed)
    for _ in range(trials):
        vec = random_vector(C.field, dim, 12, rng)
        lhs = ambient_differential_apply(C, m, action_m.ambient_apply(vec))
        rhs = action_m1.ambient_apply(ambient_differential_apply(C, m, vec))
        if lhs != rhs:
            return {"holds": False, "mode": "random", "checked": checked}
        checked += 1
    return {"holds": True, "mode": "random", "checked": checked}


def check_projection1_surjective_for_ext(C, m, extension=None):
    """phi^1 for B = C |x E_m is surjective, with the derivation-action
    witness passing the two degree-1 conditions for every basis class.

    extension, if given, returns C |x E_m when called with no argument
    (a caller's cache, say); it is called only when E_m != 0.  By default
    the extension is built here.
    """
    from .bimodule import regular_bimodule
    from .cohomology import hh
    from .extension import (check_surjectivity_witness, projection_morphism,
                            trivial_extension)
    E = ext_dual_bimodule(C, m)
    report = {"ext_degree": m, "dim_E": E.dim}
    if E.dim == 0:
        report.update({"surjective": True, "rank": 0, "witness_pass": True,
                       "note": "E_m = 0, so B = C and phi is the identity",
                       "pass": True})
        return report
    ext = extension() if extension is not None else trivial_extension(C, E)
    phi1 = projection_morphism(ext, 1)
    report["surjective"] = phi1.surjective
    report["rank"] = phi1.rank
    witness_ok = True
    HC = hh(C, regular_bimodule(C), 1)
    for zeta in HC.representatives:
        action = DerivationAction(C, m, zeta)
        res = check_surjectivity_witness(ext, 1, zeta, action.induced)
        witness_ok = witness_ok and res["pass"]
    report["witness_pass"] = witness_ok
    report["pass"] = phi1.surjective and witness_ok
    return report
