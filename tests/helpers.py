"""Shared test utilities: random instance generators and independent oracles.

The oracles here deliberately avoid the library's own algorithms: cone
membership goes through independent-subset solves, facet counting through
bounded normal-vector search, Hermite forms through brute-force unimodular
search, lattice point spans through a flat numpy box enumeration, cone
conversion through an exhaustive search over row subsets, completeness
through random sampling of directions, determinants through Gaussian
elimination on Fractions, the smallest face holding a point through a
scan of the whole face lattice, and the conewise linear space through the
pairwise intersections of the maximal cones.
"""

from fractions import Fraction
from itertools import combinations, product

from conewise.linalg import (
    Sublattice,
    dot,
    is_zero_vec,
    mat_identity,
    primitive_vector,
    quotient_chart,
    right_kernel,
    span_lattice,
    vec_mat,
    vec_neg,
)


def fraction_det(rows):
    """Determinant by Gaussian elimination on Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def random_int_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_unimodular(rng, n, ops=4, qmax=2):
    m = mat_identity(n)
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.randint(-qmax, qmax)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-a for a in m[i]]
    assert abs(fraction_det(m)) == 1
    return [tuple(row) for row in m]


def solve_exact(rows, target):
    """Coordinates x with x @ rows == target over Q, or None."""
    if not rows:
        return [] if all(Fraction(t) == 0 for t in target) else None
    n = len(rows[0])
    aug = [[Fraction(rows[i][j]) for i in range(len(rows))] + [Fraction(target[j])]
           for j in range(n)]
    ncols = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


def cone_contains_oracle(generators, point):
    """Membership via independent generating subsets.

    A point of a cone is a nonnegative combination of some linearly
    independent subset of the generators, so testing all of them is an
    exhaustive exact check for small inputs.
    """
    gens = [tuple(g) for g in generators]
    n = len(point)
    if all(Fraction(x) == 0 for x in point):
        return True
    for r in range(1, n + 1):
        for subset in combinations(gens, r):
            if span_lattice(subset, n).rank != r:
                continue
            coeffs = solve_exact(list(subset), point)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def facet_count_oracle(generators, box=8):
    """Count facets of a full-dimensional pointed cone by scanning all
    primitive support normals with entries in [-box, box]."""
    n = len(generators[0])
    from math import gcd
    seen = set()
    for u in product(range(-box, box + 1), repeat=n):
        if all(x == 0 for x in u):
            continue
        g = gcd(*[abs(x) for x in u])
        u = tuple(x // g for x in u)
        if u in seen:
            continue
        pairings = [dot(u, gen) for gen in generators]
        if any(p < 0 for p in pairings):
            continue
        tight = [generators[i] for i, p in enumerate(pairings) if p == 0]
        if tight and span_lattice(tight, n).rank == n - 1:
            seen.add(u)
    return len(seen)


def is_canonical_row_hnf(h):
    """Positive pivots strictly moving right, entries above each pivot
    reduced into [0, pivot), zero rows at the bottom."""
    last_pivot = -1
    seen_zero = False
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            seen_zero = True
            continue
        if seen_zero:
            return False
        c = nz[0]
        if c <= last_pivot or row[c] <= 0:
            return False
        last_pivot = c
    # above-pivot reduction
    rows = [row for row in h if any(x != 0 for x in row)]
    for i, row in enumerate(rows):
        c = next(j for j, x in enumerate(row) if x != 0)
        for k in range(i):
            if not 0 <= rows[k][c] < row[c]:
                return False
    return True


def hnf_oracle_2x2(a, box=3):
    """All canonical forms U @ A over unimodular 2x2 U with small entries.

    For a correct implementation there is exactly one, and searching the box
    is an independent route to it.
    """
    results = set()
    for entries in product(range(-box, box + 1), repeat=4):
        u = [entries[:2], entries[2:]]
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        if abs(det) != 1:
            continue
        h = tuple(tuple(sum(u[i][k] * a[k][j] for k in range(2))
                        for j in range(2)) for i in range(2))
        if is_canonical_row_hnf(h):
            results.add(h)
    return results


def numpy_span_oracle(generators, m, lattice, box):
    """Span of the lattice points q with ``0 <= <g, q> <= <g, m>`` for every
    generator g, found by flat enumeration of the integer box of sup-norm
    ``box`` scaled by the lattice denominator; exact while all values stay
    far below 2**63.  Membership in the full-rank lattice is integrality of
    the coordinates in its basis, through an inverse found by
    :func:`solve_exact`; the span is a Hermite form of the points found."""
    import numpy as np
    from math import lcm

    n = lattice.ambient_rank
    den = lattice.den
    assert lattice.rank == n
    inverse = [solve_exact(list(lattice.basis), [int(i == j) for j in range(n)])
               for i in range(n)]
    common = lcm(*(c.denominator for row in inverse for c in row))
    inverse = np.array([[int(c * common) for c in row] for row in inverse],
                       dtype=np.int64)
    r = box * den
    axes = [np.arange(-r, r + 1, dtype=np.int64)] * n
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    mask = np.ones(len(pts), dtype=bool)
    for g in generators:
        pairing = pts @ np.array(g, dtype=np.int64)
        mask &= (pairing >= 0) & (pairing <= int(dot(g, m) * den))
    pts = pts[mask]
    pts = pts[np.all((pts @ inverse) % (den * common) == 0, axis=1)]
    found = [[Fraction(int(x), den) for x in p] for p in pts]
    span = Sublattice.zero(n)
    for i in range(0, len(found), 32):
        span = Sublattice.from_rows(n, list(span.basis) + found[i:i + 32])
    return span


def sampled_completeness_oracle(fan, count=100, seed=988829):
    """Completeness by the old empirical route: purity, two maximal cones
    per wall, a connected wall graph, and every one of ``count`` seeded
    random rational directions inside some maximal cone."""
    import random

    n = fan.ambient_rank
    if not fan.maximal_cones or any(c.dim != n for c in fan.maximal_cones):
        return False
    adjacency = {k: set() for k in range(len(fan.maximal_cones))}
    for wall in fan.cones_of_dim(n - 1):
        owners = fan.maximal_cones_containing(wall)
        if len(owners) != 2:
            return False
        a, b = owners
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [o for k in frontier for o in adjacency[k] if o not in seen]
        seen.update(frontier)
    if len(seen) != len(fan.maximal_cones):
        return False
    rng = random.Random(seed)
    directions = []
    while len(directions) < count:
        v = tuple(Fraction(rng.randint(-97, 97), rng.randint(1, 13))
                  for _ in range(n))
        if any(v):
            directions.append(v)
    return all(any(c.contains(v) for c in fan.maximal_cones) for v in directions)


def apply_unimodular(fan, u):
    """The same fan expressed in the coordinates of the unimodular basis u.

    Rays transform by the inverse matrix and stay primitive; degrees on the
    dual side transform by the transpose of u.
    """
    from conewise.fans import Fan
    from conewise.linalg import invert_unimodular, vec_mat, mat_transpose

    uinv = invert_unimodular(u)
    new_rays = [vec_mat(r, uinv) for r in fan.rays]
    new_fan = Fan(fan.ambient_rank, new_rays, fan.maximal_cone_rays,
                  labels=fan.labels)

    def degree_map(m):
        return vec_mat(tuple(Fraction(x) for x in m), mat_transpose(u))

    return new_fan, degree_map


def halfspaces_to_rays_oracle(rows, n):
    """``(lineality, rays)`` of ``{x : <a, x> >= 0 for every row a}`` by
    trying every row subset of the right corank.

    An extremal ray line is the kernel of some ``n - lin - 1`` rows, so
    testing every subset is exhaustive.  The canonical representative is
    the primitive quotient-chart vector lifted through the section, as in
    the library, so results compare as tuples.
    """
    rows = [tuple(r) for r in rows if not is_zero_vec(r)]
    lin = right_kernel(rows, n)
    lin_dim = len(lin)
    k0 = n - lin_dim - 1
    if k0 < 0:
        return lin, ()
    w, v = quotient_chart(lin, n)
    section = w[lin_dim:]
    seen = set()
    for subset in combinations(range(len(rows)), k0):
        ker = right_kernel([rows[i] for i in subset], n)
        if len(ker) != lin_dim + 1:
            continue
        imgs = [vec_mat(k, v)[lin_dim:] for k in ker]
        quot = span_lattice(imgs, n - lin_dim)
        if quot.rank != 1:
            continue
        g = primitive_vector(quot.basis_int[0])
        cand = vec_mat(g, section)
        pairings = [dot(a, cand) for a in rows]
        if all(p >= 0 for p in pairings):
            seen.add(cand)
        elif all(p <= 0 for p in pairings):
            seen.add(vec_neg(cand))
    return lin, tuple(sorted(seen))


def cone_oracle(generators, n):
    """``(rays, lineality, ineq_rays, equations)`` of the cone generated by
    ``generators``: the dual by one subset-search conversion, then the cone
    back from the dual's rays and equations by a second one."""
    gens = [primitive_vector(g) for g in generators if not is_zero_vec(g)]
    eq, ineq = halfspaces_to_rays_oracle(gens, n)
    constraints = list(ineq) + list(eq) + [vec_neg(e) for e in eq]
    lin, rays = halfspaces_to_rays_oracle(constraints, n)
    return rays, lin, ineq, eq


def faces_oracle(generators, n):
    """Oracle data of every face: breadth-first over facets, each facet
    rebuilt from the rays on it with :func:`cone_oracle`."""
    start = cone_oracle(generators, n)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for rays, lin, ineq, _ in frontier:
            for u in ineq:
                tight = [r for r in rays if dot(u, r) == 0]
                face = cone_oracle(tight + list(lin) + [vec_neg(b) for b in lin], n)
                if face not in seen:
                    seen.add(face)
                    nxt.append(face)
        frontier = nxt
    return seen


def smallest_face_oracle(cone, p):
    """The least-dimensional face of ``cone.faces()`` that contains p: the
    smallest face holding p, since faces meet in faces.  A point outside
    the cone is refused with ValueError."""
    for face in cone.faces():
        if face.contains(p):
            return face
    raise ValueError("point %s is not in the cone" % (tuple(p),))


def face_fan_facets_oracle(points):
    """Point index sets of the facets of conv(points), by supporting-plane
    search over every n-subset, or None when the origin is not strictly on
    the inner side of every facet plane."""
    n = len(points[0])
    facets = set()
    for comb in combinations(range(len(points)), n):
        base = points[comb[0]]
        diffs = [tuple(points[i][t] - base[t] for t in range(n)) for i in comb[1:]]
        ker = span_lattice(diffs, n).annihilator()
        if ker.rank != 1:
            continue
        u = ker.basis_int[0]
        c = dot(u, base)
        values = [dot(u, p) for p in points]
        if not all(v <= c for v in values):
            if not all(v >= c for v in values):
                continue
            c, values = -c, [-v for v in values]
        if c <= 0:
            return None
        facets.add(tuple(i for i, v in enumerate(values) if v == c))
    return facets


def cpl_space_oracle(fan):
    """Basis of the conewise linear space by the pairwise route: for every
    two maximal cones, the functionals u_i and u_j must agree on the span
    of ``intersect(sigma_i, sigma_j)``; the basis is the nullspace of those
    wall constraints over the n*k coefficients, read off their reduced row
    echelon form, one vector per free column in column order."""
    from conewise.cones import intersect
    from conewise.cpl import CPLFunction
    from conewise.linalg import rref

    n = fan.ambient_rank
    k = len(fan.maximal_cones)
    ncols = n * k
    rows = []
    for i, j in combinations(range(k), 2):
        meet = intersect(fan.maximal_cones[i], fan.maximal_cones[j])
        gens = list(meet.rays) + list(meet.lineality)
        if not gens:
            continue
        for w in span_lattice(gens, n).basis_int:
            row = [Fraction(0)] * ncols
            row[i * n:(i + 1) * n] = [Fraction(x) for x in w]
            row[j * n:(j + 1) * n] = [Fraction(-x) for x in w]
            rows.append(row)
    m, pivots = rref(rows, ncols)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][c]
        basis.append(CPLFunction(fan, tuple(tuple(v[t * n:(t + 1) * n])
                                            for t in range(k))))
    return tuple(basis)


def sphere_points(r2):
    """The integer points with x^2 + y^2 + z^2 = r2; their face fan is
    complete and non-simplicial for r2 = 5 and 6."""
    r = range(-r2, r2 + 1)
    return [(x, y, z) for x in r for y in r for z in r
            if x * x + y * y + z * z == r2]
