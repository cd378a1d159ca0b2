"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision ``int`` and
``fractions.Fraction``; there is deliberately no floating point and no
fixed-width arithmetic anywhere.  Vectors are tuples, matrices are tuples of
row tuples, and lattices are stored in a canonical Hermite normal form so
that equality of lattices is equality of their stored data.

Two kernels carry the reductions of the whole package: :func:`reduce_mod`,
floor reduction modulo an HNF basis, is the only lattice membership and
coset test, and :func:`rref` is the only rational row elimination (inverse,
nullspace and linear solves are read off it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import NotASublattice, NotFullRank

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def vec_neg(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def primitive_vector(u: Sequence) -> IntVec:
    """Scale a nonzero rational vector to its primitive integer form.

    The result has integer entries with gcd 1 and points in the same
    direction as the input.
    """
    fracs = [Fraction(a) for a in u]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive form")
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


# ---------------------------------------------------------------------------
# matrix helpers


def mat_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_transpose(rows: Sequence[Sequence]) -> tuple:
    if not rows:
        return ()
    return tuple(zip(*rows))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    bt = mat_transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def vec_mat(v: Sequence, a: Sequence[Sequence]) -> tuple:
    if not a:
        return ()
    n = len(a[0])
    return tuple(sum(v[i] * a[i][j] for i in range(len(a))) for j in range(n))


def rref(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, pivoting on the first ``ncols``
    columns; further columns, such as a right-hand side, are carried along.

    Returns ``(rows, pivot_columns)``.  Each pivot is the first nonzero entry
    at or below the current row.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def invert_fraction_matrix(rows: Sequence[Sequence]) -> tuple[RatVec, ...]:
    """Exact inverse of a square matrix over the rationals."""
    n = len(rows)
    m, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                      for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise NotFullRank("matrix is singular")
    return tuple(tuple(row[n:]) for row in m)


def invert_unimodular(rows: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Inverse of a unimodular integer matrix, in integers: its HNF is the
    identity, so the transform U with ``H == U @ V`` is ``V^-1``."""
    h, u = hermite_normal_form(rows)
    if h != tuple(tuple(row) for row in mat_identity(len(h))):
        raise ValueError("matrix is not unimodular")
    return u


# ---------------------------------------------------------------------------
# normal forms


def hermite_normal_form(a: Sequence[Sequence[int]]):
    """Canonical row-style Hermite normal form.

    Returns ``(H, U)`` with ``H == U @ A`` and ``U`` unimodular.  Pivot
    entries are positive, entries above each pivot are reduced into
    ``[0, pivot)``, and zero rows sink to the bottom.  Two matrices with the
    same row lattice produce the identical ``H``.
    """
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    u = mat_identity(m)
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if not nz:
                piv = None
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if rows[i0][c] < 0:
                rows[i0] = [-x for x in rows[i0]]
                u[i0] = [-x for x in u[i0]]
            done = True
            for i in nz:
                if i == i0:
                    continue
                q = rows[i][c] // rows[i0][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
                if rows[i][c] != 0:
                    done = False
            if done:
                piv = i0
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        u[r], u[piv] = u[piv], u[r]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    h = tuple(tuple(row) for row in rows)
    return h, tuple(tuple(row) for row in u)


def reduce_mod(v: Sequence[int], hnf_basis: Sequence[Sequence[int]]) -> IntVec:
    """Floor reduction of an integer vector modulo the row lattice L of an
    integer HNF basis: the canonical representative of ``v + L``, which is
    zero exactly when v lies in L."""
    res = list(v)
    for row in hnf_basis:
        c = next(j for j, x in enumerate(row) if x != 0)
        q = res[c] // row[c]
        if q:
            res = [a - q * b for a, b in zip(res, row)]
    return tuple(res)


def smith_normal_form(a: Sequence[Sequence[int]]):
    """Smith normal form ``D = U @ A @ V`` with the divisibility chain.

    ``D`` is diagonal with nonnegative entries, each dividing the next, and
    ``U``, ``V`` are unimodular.
    """
    d = [list(r) for r in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = mat_identity(m)
    v = mat_identity(n)

    def addmul_row(dst, src, q):
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for t in range(min(m, n)):
        while True:
            entries = [(abs(d[i][j]), i, j) for i in range(t, m)
                       for j in range(t, n) if d[i][j] != 0]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in d:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            for i in range(t + 1, m):
                q = d[i][t] // d[t][t]
                if q:
                    addmul_row(i, t, -q)
            for j in range(t + 1, n):
                q = d[t][j] // d[t][t]
                if q:
                    addmul_col(j, t, -q)
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            if any(d[t][j] for j in range(t + 1, n)):
                continue
            bad = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                        if d[i][j] % d[t][t] != 0), None)
            if bad is None:
                break
            addmul_row(t, bad[0], 1)
        if all(d[i][j] == 0 for i in range(t, m) for j in range(t, n)):
            break
    dd = tuple(tuple(row) for row in d)
    return dd, tuple(tuple(row) for row in u), tuple(tuple(row) for row in v)


def left_kernel(a: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Canonical basis of ``{x integer row : x @ A == 0}``.

    The kernel of an integer matrix is saturated, so the HNF basis returned
    here generates it exactly.
    """
    m = len(a)
    if m == 0:
        return ()
    h, u = hermite_normal_form(a)
    zero_rows = [u[i] for i in range(m) if is_zero_vec(h[i])]
    if not zero_rows:
        return ()
    hk, _ = hermite_normal_form(zero_rows)
    return tuple(row for row in hk if not is_zero_vec(row))


def right_kernel(a: Sequence[Sequence[int]], n: int) -> tuple[IntVec, ...]:
    """Canonical basis of ``{x in Z^n : A @ x == 0}`` for rows of length n."""
    rows = [r for r in a if not is_zero_vec(r)]
    if not rows:
        h, _ = hermite_normal_form(mat_identity(n))
        return h
    return left_kernel(mat_transpose(rows))


def integer_rank(a: Sequence[Sequence[int]]) -> int:
    h, _ = hermite_normal_form(a)
    return sum(1 for row in h if not is_zero_vec(row))


def quotient_chart(k_rows: Sequence[IntVec], n: int):
    """Unimodular coordinates adapted to a saturated sublattice.

    Given an HNF basis of a saturated rank-k sublattice K of Z^n, returns
    ``(W, V)`` where ``W`` is unimodular with its first k rows spanning K and
    ``V = W^{-1}``.  A vector ``x`` has adapted coordinates ``x @ V``; the
    first k of them are the K-part and the rest map to the quotient Z^n / K.
    """
    k = len(k_rows)
    if k == 0:
        ident = tuple(tuple(row) for row in mat_identity(n))
        return ident, ident
    d, _, vs = smith_normal_form(k_rows)
    if any(d[i][i] != 1 for i in range(k)):
        raise ValueError("sublattice is not saturated")
    w = invert_unimodular(vs)
    return w, tuple(tuple(row) for row in vs)


# ---------------------------------------------------------------------------
# sublattices


@dataclass(frozen=True)
class Sublattice:
    """A finitely generated subgroup of Q^n in canonical form.

    The lattice is ``(1/den) * rowspan_Z(basis_int)`` where ``basis_int`` is
    a canonical HNF matrix without zero rows and ``gcd(content, den) == 1``.
    This representative is unique, so lattice equality is dataclass equality.
    Rational entries let overlattices of Z^n share the type with ordinary
    integer sublattices.
    """

    ambient_rank: int
    den: int
    basis_int: tuple[IntVec, ...]

    @staticmethod
    def from_rows(ambient_rank: int, rows: Iterable[Sequence]) -> "Sublattice":
        frac_rows = [[Fraction(x) for x in row] for row in rows]
        for row in frac_rows:
            if len(row) != ambient_rank:
                raise ValueError("row length does not match ambient rank")
        dens = [f.denominator for row in frac_rows for f in row]
        den = lcm(*dens) if dens else 1
        int_rows = [[int(f * den) for f in row] for row in frac_rows]
        h, _ = hermite_normal_form(int_rows)
        nz = [row for row in h if not is_zero_vec(row)]
        if nz:
            content = gcd(*(x for row in nz for x in row))
            g = gcd(content, den)
            if g > 1:
                den //= g
                nz = [tuple(x // g for x in row) for row in nz]
        else:
            den = 1
        return Sublattice(ambient_rank, den, tuple(tuple(r) for r in nz))

    @staticmethod
    def standard(n: int) -> "Sublattice":
        return Sublattice(n, 1, tuple(tuple(row) for row in mat_identity(n)))

    @staticmethod
    def zero(n: int) -> "Sublattice":
        return Sublattice(n, 1, ())

    @property
    def rank(self) -> int:
        return len(self.basis_int)

    @property
    def basis(self) -> tuple[RatVec, ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row)
                     for row in self.basis_int)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        w = [Fraction(x) * self.den for x in v]
        return (all(x.denominator == 1 for x in w)
                and is_zero_vec(reduce_mod([int(x) for x in w], self.basis_int)))

    def __contains__(self, v: Sequence) -> bool:
        return self.contains(v)

    def contains_lattice(self, other: "Sublattice") -> bool:
        return all(self.contains(row) for row in other.basis)

    def sum(self, other: "Sublattice") -> "Sublattice":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient ranks differ")
        return Sublattice.from_rows(self.ambient_rank,
                                    list(self.basis) + list(other.basis))

    def add_generator(self, v: Sequence) -> "Sublattice":
        return Sublattice.from_rows(self.ambient_rank, list(self.basis) + [v])

    def dual(self) -> "Sublattice":
        """The lattice pairing integrally with this one; needs full rank."""
        if self.rank != self.ambient_rank:
            raise NotFullRank("dual lattice requires a full-rank lattice")
        inv = invert_fraction_matrix(mat_transpose(self.basis))
        return Sublattice.from_rows(self.ambient_rank, inv)

    def annihilator(self) -> "Sublattice":
        """``{u in Z^n : <u, v> = 0 for all v in the lattice}``."""
        if self.rank == 0:
            return Sublattice.standard(self.ambient_rank)
        ker = right_kernel(self.basis_int, self.ambient_rank)
        return Sublattice.from_rows(self.ambient_rank, ker)

    def saturation(self) -> "Sublattice":
        """``Span_Q(L)`` intersected with the standard lattice Z^n."""
        return self.annihilator().annihilator()

    def intersect_span(self, vectors: Sequence[Sequence]) -> "Sublattice":
        """Sublattice of elements lying in the rational span of ``vectors``."""
        nz = [primitive_vector(v) for v in vectors if not is_zero_vec(v)]
        if not nz:
            return Sublattice.zero(self.ambient_rank)
        ann = Sublattice.from_rows(self.ambient_rank, nz).annihilator()
        if ann.rank == 0:
            return self
        if self.rank == 0:
            return self
        cond = mat_mul(self.basis_int, mat_transpose(ann.basis_int))
        ker = left_kernel(cond)
        rows = [vec_mat(k, self.basis) for k in ker]
        return Sublattice.from_rows(self.ambient_rank, rows)

    def index_in(self, other: "Sublattice") -> int:
        """Index of self inside other; both must have the same rank.  Both
        HNF bases pivot on the same columns, those of their common rational
        span, so the index is the ratio of covolumes ``prod(pivots of self) *
        other.den**r / (prod(pivots of other) * self.den**r)``."""
        if not other.contains_lattice(self):
            raise NotASublattice("lattice is not contained in the other")
        if self.rank != other.rank:
            raise ValueError("ranks differ, index is infinite")
        r = self.rank
        return (prod(next(filter(None, row)) for row in self.basis_int) * other.den ** r
                // (prod(next(filter(None, row)) for row in other.basis_int) * self.den ** r))


def span_lattice(points: Sequence[Sequence], ambient_rank: int | None = None) -> Sublattice:
    """Smallest sublattice containing all the given points."""
    pts = list(points)
    if ambient_rank is None:
        if not pts:
            raise ValueError("ambient rank needed for an empty point set")
        ambient_rank = len(pts[0])
    for p in pts:
        if len(p) != ambient_rank:
            raise ValueError("points have inconsistent lengths")
    return Sublattice.from_rows(ambient_rank, pts)


def quotient_rank(outer: Sublattice, inner: Sublattice) -> int:
    """Rank of outer/inner over a characteristic-zero field.

    Torsion contributes nothing, so this is just the rank difference once
    the inclusion has been verified.
    """
    if outer.ambient_rank != inner.ambient_rank:
        raise ValueError("ambient ranks differ")
    if not outer.contains_lattice(inner):
        raise NotASublattice("inner lattice is not contained in outer")
    return outer.rank - inner.rank


def dual_lattice(lattice: Sublattice) -> Sublattice:
    return lattice.dual()


def membership(lattice: Sublattice, v: Sequence) -> bool:
    return lattice.contains(v)


def saturation(lattice: Sublattice) -> Sublattice:
    return lattice.saturation()
