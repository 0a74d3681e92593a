"""The bimodules E_m = Ext^m_C(DC, C) and the derivation action on them.

E_m is hh^m(C, Hom_k(DC, C)), and Hom_k(DC, C) = C (x)_k C with C acting
on the left factor from the left and on the right factor from the right
(`_ext_coefficients`).  Its complex is therefore the normalized bar
complex of C with those coefficients: the bar formula of
`cohomology._bar_column`, restricted to radical arguments, on the basis
(u, chain, v) of g_u (x) chain -> b_v.  Written out, the differential is

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
unnormalized space by its own loops.  It is kept on purpose as the
independent reference the normalized differential is checked against.
"""

import random

from .bimodule import Bimodule
from .cohomology import CapExceeded, _subcomplex_differential, is_derivation
from .linalg import (
    Mat, SubspaceCoords, axpy, kernel_basis_sparse, quotient_basis,
)

EXT_DEGREE_CAP = 3
EXT_SIZE_CAP = 2_000_000  # (dim C)^(m+2)


def _check_ext_cap(C, m):
    if m < 0:
        raise ValueError("negative degree")
    if m > EXT_DEGREE_CAP or C.dim ** (m + 2) > EXT_SIZE_CAP:
        raise CapExceeded(
            f"Ext complex at degree {m} exceeds the configured size guard")


class ExtComplex:
    """Normalized cochains of Hom_k(DC (x) C^{(x)m}, C) for one algebra.

    Basis in degree m: (u, chain, v) with u indexing the dual vector g_u
    (nonzero against e_{s(u)} on the right), chain a composable radical
    tuple starting at s(u), and v a basis vector of C e_{end}.
    """

    def __init__(self, C):
        if not C.is_peirce_graded() or not C.radical_complement_closed():
            raise ValueError("Ext complex needs a Peirce-graded algebra")
        self.C = C
        self.r = list(C.radical_indices)
        self.src = {i: C.peirce[i][0] for i in self.r}
        self.tgt = {i: C.peirce[i][1] for i in self.r}
        self.by_src = {}
        for i in self.r:
            self.by_src.setdefault(self.src[i], []).append(i)
        self.all_src = {i: C.peirce[i][0] for i in range(C.dim)}
        self.all_tgt = {i: C.peirce[i][1] for i in range(C.dim)}
        self.val_by_tgt = {}
        for i in range(C.dim):
            self.val_by_tgt.setdefault(self.all_tgt[i], []).append(i)
        self._basis = {}
        self._diff = {}

    def chains(self, m, start):
        if m == 0:
            return [()]
        out = []
        for w in self.by_src.get(start, ()):  # noqa: E501 - chains grown left to right
            if m == 1:
                out.append((w,))
            else:
                for rest in self.chains(m - 1, self.tgt[w]):
                    out.append((w,) + rest)
        return out

    def basis(self, m):
        got = self._basis.get(m)
        if got is not None:
            return got
        flat, pos = [], {}
        for u in range(self.C.dim):
            su = self.all_src[u]
            for chain in self.chains(m, su):
                end = self.tgt[chain[-1]] if chain else su
                for v in self.val_by_tgt.get(end, ()):
                    pos[(u, chain, v)] = len(flat)
                    flat.append((u, chain, v))
        self._basis[m] = (flat, pos)
        return self._basis[m]

    def dim(self, m):
        return len(self.basis(m)[0])

    def differential(self, m):
        """The bar differential with coefficients in C (x)_k C on the
        (u, chain, v) bases of degrees m and m + 1."""
        got = self._diff.get(m)
        if got is None:
            d = self.C.dim
            flat, pos = self.basis(m + 1)
            got = self._diff[m] = _subcomplex_differential(
                self.C, _ext_coefficients(self.C), m,
                [(chain, u * d + v) for u, chain, v in self.basis(m)[0]],
                lambda chain, uv: pos.get((uv // d, chain, uv % d)),
                len(flat))
        return got

    # -- ambient coordinates ---------------------------------------------------

    def ambient_dim(self, m):
        return self.C.dim ** (m + 2)

    def ambient_index(self, u, slots, row):
        d = self.C.dim
        idx = u
        for s in slots:
            idx = idx * d + s
        return idx * d + row

    def embed_ambient(self, m, nvec):
        flat, _ = self.basis(m)
        out = {}
        for k, c in nvec.items():
            u, chain, v = flat[k]
            out[self.ambient_index(u, chain, v)] = c
        return out


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


def _ext_complex(C):
    got = getattr(C, "_ext_complex", None)
    if got is None:
        got = ExtComplex(C)
        C._ext_complex = got
    return got


class ExtBimodule(Bimodule):
    """E_m as a concrete bimodule, with its quotient bookkeeping attached."""

    def __init__(self, C, m, complex_, reps, classes, left, right, labels):
        self.ext_degree = m
        self.complex = complex_
        self._reps = reps
        self._classes = classes
        super().__init__(C, len(reps), left, right, labels=labels, product={})

    def representatives(self):
        """Normalized cocycle vectors representing the chosen basis."""
        return [dict(r) for r in self._reps]

    def ambient_representatives(self):
        return [self.complex.embed_ambient(self.ext_degree, r)
                for r in self._reps]

    def class_coords(self, nvec):
        diff = self.complex.differential(self.ext_degree)
        if diff.matvec(nvec):
            raise ValueError("not a cocycle of the Ext complex")
        found = self._classes.find(nvec)
        if found is None:
            raise AssertionError("cocycle escaped the class span")
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
    nc = _ext_complex(C)
    d_m = nc.differential(m)
    boundaries = [] if m == 0 else [
        c for _, c in nc.differential(m - 1).columns_items()]
    reps, cob = quotient_basis(field, kernel_basis_sparse(d_m), boundaries)
    classes = SubspaceCoords(field, reps, modulo=cob)

    flat, pos = nc.basis(m)
    dim = len(reps)

    def act_vec(nvec, c, side):
        out = {}
        for k, coeff in nvec.items():
            u, chain, v = flat[k]
            if side == "left":  # c.th = c th(-)
                image = {pos[(u, chain, v2)]: w
                         for v2, w in C.structure.get((c, v), {}).items()}
            else:  # th.c = th(c.f (x) -)
                image = {pos[(u2, chain, v)]: w
                         for u2, w in C.structure.get((u, c), {}).items()}
            axpy(field, out, coeff, image)
        return out

    lcols = {c: {} for c in range(C.dim)}
    rcols = {c: {} for c in range(C.dim)}

    def class_coords(nvec):
        if d_m.matvec(nvec):
            raise ValueError("action image is not a cocycle: "
                             "the actions do not descend")
        found = classes.find(nvec)
        if found is None:
            raise AssertionError("cocycle escaped the class span")
        return found

    for c in range(C.dim):
        for k, rep in enumerate(reps):
            img = class_coords(act_vec(rep, c, "left"))
            if img:
                lcols[c][k] = img
            img = class_coords(act_vec(rep, c, "right"))
            if img:
                rcols[c][k] = img
    left = [Mat(dim, dim, field, {k: col for k, col in lcols[c].items() if col})
            for c in range(C.dim)]
    right = [Mat(dim, dim, field, {k: col for k, col in rcols[c].items() if col})
             for c in range(C.dim)]
    labels = [f"ext{m}_{k}" for k in range(dim)]
    out = ExtBimodule(C, m, nc, reps, classes, left, right, labels)
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
    E_m and the ambient/normalized evaluators."""

    def __init__(self, C, m, zeta, ext=None):
        _check_ext_cap(C, m)
        self.C = C
        self.m = m
        self.zeta = zeta
        self.values = _derivation_values(C, zeta)
        self.ext = ext if ext is not None else ext_dual_bimodule(C, m)
        self.complex = self.ext.complex
        field = C.field
        flat, pos = self.complex.basis(m)
        self._flat, self._pos = flat, pos
        cols = {}
        for idx in range(len(flat)):
            col = self.normalized_column(idx)
            if col:
                cols[idx] = col
        self.normalized_matrix = Mat(len(flat), len(flat), field, cols)
        ind = {}
        for k, rep in enumerate(self.ext.representatives()):
            img = self.ext.class_coords(self.normalized_matrix.matvec(rep))
            if img:
                ind[k] = img
        self.induced = Mat(self.ext.dim, self.ext.dim, field, ind)

    def normalized_column(self, idx):
        field = self.C.field
        flat, pos = self._flat, self._pos
        u, chain, v = flat[idx]
        col = {}

        def put(key, value):
            if not value:
                return
            k = pos.get(key)
            if k is None:
                raise AssertionError(
                    f"derivation action left the Ext basis at {key}")
            w = field.add(col.get(k, field.zero), value)
            if w:
                col[k] = w
            elif k in col:
                del col[k]

        # sum_j th(f (x) .. z(a_j) ..): z(x) hits chain slot p
        for p in range(self.m):
            target = chain[p]
            for x in self.complex.r:
                zx = self.values.get(x)
                if zx and target in zx:
                    put((u, chain[:p] + (x,) + chain[p + 1:], v), zx[target])
        # - th(f o z (x) a): (g_{u'} o z) has g_u coefficient z(u)_{u'}
        zu = self.values.get(u)
        if zu:
            for u2, c in zu.items():
                put((u2, chain, v), field.neg(c))
        # - z(th(f (x) a))
        zv = self.values.get(v)
        if zv:
            for v2, c in zv.items():
                put((u, chain, v2), field.neg(c))
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
                for x in range(d):
                    zx = self.values.get(x)
                    if zx and slots[p] in zx:
                        add(self.complex.ambient_index(
                            u, slots[:p] + [x] + slots[p + 1:], v),
                            field.mul(coeff, zx[slots[p]]))
            zu = self.values.get(u)
            if zu:
                for u2, c in zu.items():
                    add(self.complex.ambient_index(u2, slots, v),
                        field.neg(field.mul(coeff, c)))
            zv = self.values.get(v)
            if zv:
                for v2, c in zv.items():
                    add(self.complex.ambient_index(u, slots, v2),
                        field.neg(field.mul(coeff, c)))
        return out


def ambient_differential_apply(C, m, vec):
    """The Ext-complex differential on an ambient sparse vector."""
    field = C.field
    d = C.dim
    nc = _ext_complex(C)
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
                add(nc.ambient_index(u2, [b0] + slots, v),
                    field.mul(coeff, c))
        # contractions
        from .cohomology import _factorizations
        fact = _factorizations(C)
        for p in range(m):
            sign = field.one if (p + 1) % 2 == 0 else minus_one
            for (x, y, c) in fact.get(slots[p], ()):
                add(nc.ambient_index(u, slots[:p] + [x, y] + slots[p + 1:], v),
                    field.mul(field.mul(sign, c), coeff))
        # th(...).b_m
        sign = field.one if (m + 1) % 2 == 0 else minus_one
        for bm in range(d):
            prod = C.structure.get((v, bm))
            if not prod:
                continue
            for v2, c in prod.items():
                add(nc.ambient_index(u, slots + [bm], v2),
                    field.mul(field.mul(sign, c), coeff))
    return out


def derivation_action(C, m, zeta, ext=None):
    return DerivationAction(C, m, zeta, ext=ext)


def check_chain_map(C, m, zeta, trials=20, seed=23, ambient_limit=2000):
    """d(al_m th) == al_{m+1}(d th): full ambient basis when small, else on
    pseudorandom ambient cochains."""
    _check_ext_cap(C, m + 1)
    action_m = DerivationAction(C, m, zeta)
    action_m1 = DerivationAction(C, m + 1, zeta)
    nc = _ext_complex(C)
    dim = nc.ambient_dim(m)
    checked = 0
    if dim <= ambient_limit:
        field = C.field
        for idx in range(dim):
            vec = {idx: field.one}
            lhs = ambient_differential_apply(C, m, action_m.ambient_apply(m, vec))
            rhs = action_m1.ambient_apply(m + 1,
                                          ambient_differential_apply(C, m, vec))
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
