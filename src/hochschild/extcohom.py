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

`ambient_differential_apply` evaluates the displayed formula on the full,
unnormalized space (coordinates `ambient_index`) by its own loops.  It is
kept on purpose as the independent reference the normalized differential
is checked against.
"""

import functools
import random

from .bimodule import Bimodule
from .cohomology import (
    CapExceeded, CohomologySpace, _factorizations, _normalized_complex,
    is_derivation,
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
    """Ambient coordinate of g_u (x) slots -> b_row, u most significant."""
    d = C.dim
    idx = u
    for s in slots:
        idx = idx * d + s
    return idx * d + row


def embed_ambient(C, m, nvec):
    """A vector of the Ext complex in ambient coordinates."""
    d = C.dim
    flat, _ = _normalized_complex(C, _ext_coefficients(C)).basis(m)
    out = {}
    for k, c in nvec.items():
        chain, uv = flat[k]
        u, v = divmod(uv, d)
        out[ambient_index(C, u, chain, v)] = c
    return out


class ExtBimodule(Bimodule):
    """E_m as a concrete bimodule on the classes of its CohomologySpace."""

    def __init__(self, space, left, right, labels):
        self.ext_degree = space.degree
        self.space = space
        super().__init__(space.algebra, space.dim, left, right,
                         labels=labels, product={})

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
    if got is not None:
        return got
    _check_ext_cap(C, m)
    field = C.field
    d = C.dim
    # not hh: the Ext complex is gated by _check_ext_cap, not the bar cap
    space = CohomologySpace(_normalized_complex(C, _ext_coefficients(C)), m)
    flat, pos = space.complex.basis(m)
    keys = list(pos)  # flat bar key of each row: pos is filled in row order

    def act_vec(nvec, c, side):
        out = {}
        for k, coeff in nvec.items():
            uv = flat[k][1]
            u, v = divmod(uv, d)
            base = keys[k] - uv  # flat key of (chain, 0)
            if side == "left":  # c.th = c th(-)
                image = {pos[base + u * d + v2]: w
                         for v2, w in C.structure.get((c, v), {}).items()}
            else:  # th.c = th(c.f (x) -)
                image = {pos[base + u2 * d + v]: w
                         for u2, w in C.structure.get((u, c), {}).items()}
            axpy(field, out, coeff, image)
        return out

    def class_coords(nvec):
        found = space.vector_coords(nvec)
        if found is None:
            raise ValueError("action image is not a cocycle: "
                             "the actions do not descend")
        return found

    lcols = {c: {} for c in range(d)}
    rcols = {c: {} for c in range(d)}
    for c in range(d):
        for k, rep in enumerate(space.vectors()):
            img = class_coords(act_vec(rep, c, "left"))
            if img:
                lcols[c][k] = img
            img = class_coords(act_vec(rep, c, "right"))
            if img:
                rcols[c][k] = img
    left = [Mat(space.dim, space.dim, field, lcols[c]) for c in range(d)]
    right = [Mat(space.dim, space.dim, field, rcols[c]) for c in range(d)]
    labels = [f"ext{m}_{k}" for k in range(space.dim)]
    out = ExtBimodule(space, left, right, labels)
    cache[m] = out
    return out


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
    E_m and the ambient/normalized evaluators.

    Only values and by_slot are built up front; E_m (ext), the matrix on
    its complex (normalized_matrix) and the induced matrix are built on
    first read, so that the ambient evaluator alone costs no Ext work.
    """

    def __init__(self, C, m, zeta, ext=None):
        _check_ext_cap(C, m)
        self.C = C
        self.m = m
        self.zeta = zeta
        self.values = _derivation_values(C, zeta)
        # slot value s -> [(x, zeta(x)_s)], x ascending: the terms z(x)
        # that hit a slot holding s
        self.by_slot = {}
        for x, zx in self.values.items():
            for s, c in zx.items():
                self.by_slot.setdefault(s, []).append((x, c))
        if ext is not None:
            self.ext = ext

    @functools.cached_property
    def ext(self):
        return ext_dual_bimodule(self.C, self.m)

    @functools.cached_property
    def normalized_matrix(self):
        flat, pos = self.ext.space.complex.basis(self.m)
        cols = {}
        for key, idx in pos.items():
            col = self.normalized_column(flat[idx][0], key, pos)
            if col:
                cols[idx] = col
        return Mat(len(flat), len(flat), self.C.field, cols)

    @functools.cached_property
    def induced(self):
        ind = {}
        for k, rep in enumerate(self.ext.representatives()):
            img = self.ext.class_coords(self.normalized_matrix.matvec(rep))
            if img:
                ind[k] = img
        return Mat(self.ext.dim, self.ext.dim, self.C.field, ind)

    def normalized_column(self, chain, key, pos):
        """al_m of the basis vector (chain, uv) at flat bar key key."""
        C = self.C
        field = C.field
        d = C.dim
        base = key - key % (d * d)  # flat key of (chain, 0)
        u, v = divmod(key - base, d)
        col = {}

        def put(at, value):
            if not value:
                return
            k = pos.get(at)
            if k is None:
                raise AssertionError(
                    f"derivation action left the Ext basis at flat key {at}")
            w = field.add(col.get(k, field.zero), value)
            if w:
                col[k] = w
            elif k in col:
                del col[k]

        # sum_j th(f (x) .. z(a_j) ..): z(x) hits chain slot p, whose
        # place value in the flat key is d^(m-1-p) * d^2
        for p in range(self.m):
            target = chain[p]
            span = d ** (self.m + 1 - p)
            for x, c in self.by_slot.get(target, ()):
                put(key + (x - target) * span, c)
        # - th(f o z (x) a): (g_{u'} o z) has g_u coefficient z(u)_{u'}
        zu = self.values.get(u)
        if zu:
            for u2, c in zu.items():
                put(base + u2 * d + v, field.neg(c))
        # - z(th(f (x) a))
        zv = self.values.get(v)
        if zv:
            for v2, c in zv.items():
                put(base + u * d + v2, field.neg(c))
        return col

    # -- ambient evaluators (full complex, for cross-checks) -------------------

    def ambient_apply(self, m, vec):
        """al_m on an ambient sparse vector of Hom(DC (x) C^m, C)."""
        C = self.C
        field = C.field
        d = C.dim
        out = {}

        def add(idx, c):
            cur = out.get(idx, field.zero)
            w = field.add(cur, c)
            if w:
                out[idx] = w
            elif idx in out:
                del out[idx]

        for idx, coeff in vec.items():
            rest, v = divmod(idx, d)
            slots = []
            for _ in range(m):
                rest, s = divmod(rest, d)
                slots.append(s)
            slots.reverse()
            u = rest
            for p in range(m):
                for x, c in self.by_slot.get(slots[p], ()):
                    add(ambient_index(
                        C, u, slots[:p] + [x] + slots[p + 1:], v),
                        field.mul(coeff, c))
            zu = self.values.get(u)
            if zu:
                for u2, c in zu.items():
                    add(ambient_index(C, u2, slots, v),
                        field.neg(field.mul(coeff, c)))
            zv = self.values.get(v)
            if zv:
                for v2, c in zv.items():
                    add(ambient_index(C, u, slots, v2),
                        field.neg(field.mul(coeff, c)))
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
        slots = []
        for _ in range(m):
            rest, s = divmod(rest, d)
            slots.append(s)
        slots.reverse()
        u = rest
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


def derivation_action(C, m, zeta, ext=None):
    return DerivationAction(C, m, zeta, ext=ext)


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
            lhs = diff.matvec(action_m.ambient_apply(m, {idx: one}))
            rhs = action_m1.ambient_apply(m + 1, diff.column(idx))
            if lhs != rhs:
                return {"holds": False, "mode": "full", "checked": checked}
            checked += 1
        return {"holds": True, "mode": "full", "checked": checked}
    rng = random.Random(seed)
    field = C.field
    for _ in range(trials):
        vec = {}
        for _ in range(12):
            idx = rng.randrange(dim)
            c = rng.randint(-4, 4)
            if c:
                cur = vec.get(idx, field.zero)
                w = field.add(cur, field.of(c))
                if w:
                    vec[idx] = w
                elif idx in vec:
                    del vec[idx]
        lhs = ambient_differential_apply(C, m, action_m.ambient_apply(m, vec))
        rhs = action_m1.ambient_apply(m + 1,
                                      ambient_differential_apply(C, m, vec))
        if lhs != rhs:
            return {"holds": False, "mode": "random", "checked": checked}
        checked += 1
    return {"holds": True, "mode": "random", "checked": checked}


def check_projection1_surjective_for_ext(C, m):
    """phi^1 for B = C |x E_m is surjective, with the derivation-action
    witness passing the two degree-1 conditions for every basis class."""
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
    ext = trivial_extension(C, E)
    phi1 = projection_morphism(ext, 1)
    report["surjective"] = phi1.surjective
    report["rank"] = phi1.rank
    witness_ok = True
    HC = hh(C, regular_bimodule(C), 1)
    for zeta in HC.representatives:
        action = DerivationAction(C, m, zeta, ext=E)
        res = check_surjectivity_witness(ext, 1, zeta, action.induced)
        witness_ok = witness_ok and res["pass"]
    report["witness_pass"] = witness_ok
    report["pass"] = phi1.surjective and witness_ok
    return report
