"""Expected answers that share no code with the hochschild engines.

Closed forms from the literature, written as plain integer arithmetic on
the quiver data the workload generator produced.  Nothing here imports
hochschild: a wrong engine cannot make its own oracle agree with it.
"""


def cibils_loops(m, n):
    """dim HH^n of k<x_1..x_m>/(all x_i x_j), the radical-square-zero
    algebra with m loops (Cibils 1998, m >= 2)."""
    if n == 0:
        return m + 1
    if n == 1:
        return m * m
    return m ** (n - 1) * (m * m - 1)


def truncated_polynomial(length, n):
    """dim HH^n of k[x]/(x^L) over Q: L in degree 0, L - 1 in every
    degree above (the periodic resolution; char 0 so L is invertible)."""
    return length if n == 0 else length - 1


def quantum_plane_q1(n):
    """k[x]/(x^2) (x) k[y]/(y^2) over Q, by Kuenneth: 4, then n + 3."""
    return 4 if n == 0 else n + 3


def exterior_plane(n):
    """The exterior algebra on two generators over Q (q = -1): 2n + 2."""
    return 2 * n + 2


def quantum_plane_generic(n):
    """k<x,y>/(x^2, y^2, xy - q yx), q not a root of unity
    (Buchweitz-Green-Madsen-Solberg 2005): 2, 2, 1, then 0."""
    return (2, 2, 1)[n] if n < 3 else 0


def count_paths(arrows, source, target):
    """Number of paths from source to target in an acyclic quiver, the
    trivial path included when source == target.  arrows: (name, s, t)."""
    out = {}
    for _, s, t in arrows:
        out.setdefault(s, []).append(t)
    memo = {}

    def paths_from(v):
        if v not in memo:
            memo[v] = (1 if v == target else 0) + sum(
                paths_from(w) for w in out.get(v, ()))
        return memo[v]

    return paths_from(source)


def happel(vertices, arrows, n):
    """dim HH^n of the path algebra of a connected acyclic quiver (Happel,
    LNM 1404, 1989): 1, then 1 - |Q_0| + sum over arrows a of
    dim e_s(a) kQ e_t(a), then 0."""
    if n == 0:
        return 1
    if n == 1:
        return 1 - len(vertices) + sum(count_paths(arrows, s, t)
                                       for _, s, t in arrows)
    return 0


def poset_with_minimum(n):
    """The incidence algebra of a finite poset with a least element: HH^n
    is the simplicial cohomology of its order complex (Gerstenhaber-Schack
    1983), a cone, so 1 in degree 0 and 0 above."""
    return 1 if n == 0 else 0


def monomial_dimension(vertices, arrows, relations):
    """dim kQ/I for an acyclic quiver and monomial I: the number of paths,
    trivial ones included, containing no relation word as a subword.
    relations: tuples of arrow names."""
    out = {}
    for name, s, t in arrows:
        out.setdefault(s, []).append((name, t))
    forbidden = set(relations)
    longest = max((len(r) for r in forbidden), default=0)
    count = 0
    stack = [((), v) for v in vertices]
    while stack:
        word, v = stack.pop()
        count += 1
        for name, t in out.get(v, ()):
            longer = word + (name,)
            if not any(longer[-k:] in forbidden
                       for k in range(2, min(longest, len(longer)) + 1)):
                stack.append((longer, t))
    return count
