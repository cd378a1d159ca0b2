"""Single-valued conewise linear functions on a fan.

A conewise linear function is represented by one linear functional per
maximal cone.  On a valid fan it is continuous exactly when two maximal
cones' functionals agree on every ray the two cones share, so the space is
read off the values on the rays (Billera 1989; Payne 2006) and computed
exactly over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import CertificateInvalid, HypothesisFailed, InvalidFan, NotComplete, WrongDimension
from .fans import Fan, is_complete, stats, validate
from .linalg import RatVec, dot, mat_transpose, rref, vec_mat


def _rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right nullspace via reduced row echelon."""
    m, pivots = rref(rows, ncols)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][c]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class CPLFunction:
    """Per-maximal-cone linear functionals, one tuple per cone.

    ``witness_ray`` is set on nontrivial functions returned by
    :func:`nontrivial_cpl`: a ray where the function disagrees with every
    global linear functional matching it elsewhere.
    """

    fan: Fan
    functionals: tuple[RatVec, ...]
    witness_ray: int | None = None

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for f in self.functionals for x in f)

    def to_integral(self) -> "CPLFunction":
        dens = [x.denominator for f in self.functionals for x in f]
        d = lcm(*dens) if dens else 1
        return CPLFunction(
            self.fan,
            tuple(tuple(Fraction(int(x * d)) for x in f) for f in self.functionals),
            self.witness_ray)

    def value_on_ray(self, ray_index: int) -> Fraction:
        ray = self.fan.rays[ray_index]
        for k, idx in enumerate(self.fan.maximal_cone_rays):
            if ray_index in idx:
                return dot(self.functionals[k], ray)
        raise HypothesisFailed("ray %d lies in no maximal cone" % ray_index)

    def ray_values(self) -> tuple[Fraction, ...]:
        return tuple(self.value_on_ray(i) for i in range(len(self.fan.rays)))


@dataclass(frozen=True)
class CPLSpace:
    fan: Fan
    basis: tuple[CPLFunction, ...]
    dim: int
    trivial_dim: int


def cpl_space(fan: Fan) -> CPLSpace:
    """Exact basis of the continuity solution space.

    One functional ``u_k`` per maximal cone avoids any special casing for
    non-simplicial cones; the global linear functionals embed diagonally, so
    the trivial subspace always has dimension equal to the ambient rank.

    In a valid fan the cones are pointed and two of them meet in a common
    face, whose rays are the rays the two cones share.  So the functionals
    are continuous exactly when they agree on the shared ray indices, and
    the space is spanned by two kinds of vectors.  The values x on the rays
    that are consistent inside every cone (each further ray of sigma_k
    takes the value its expression in a basis B_k of sigma_k's rays
    dictates) lift to one functional per cone, read off the inverse of B_k
    completed by unit vectors, with the unit-vector values 0; and for every
    cone the n - dim sigma_k functionals that vanish on its rays, with 0 on
    the other cones.

    The basis returned is the reduced row echelon form of that span with
    its columns read right to left, sorted by pivot.  That form is unique
    for a given subspace.  The nullspace basis read off the reduced echelon
    form of the pairwise wall constraints is this same form: its vector for
    a free column c is 1 at c, 0 at the other free columns and elsewhere
    nonzero only at pivot columns left of c.  So the basis, and every CLI
    document built from it, does not depend on how the span was found.
    """
    if not validate(fan).ok:
        raise InvalidFan("fan does not satisfy the fan axioms")
    n = fan.ambient_rank
    nrays = len(fan.rays)
    ncols = n * len(fan.maximal_cones)
    charts = []
    consistency = []
    for cone in fan.maximal_cones:
        idx = fan._ray_indices_of(cone)
        # columns: the rays of the cone, then the unit vectors; the pivots
        # are a basis of the rays completed by unit vectors, and the last n
        # columns are the transposed inverse of that basis
        m, pivots = rref([[fan.rays[i][t] for i in idx] + [int(s == t) for s in range(n)]
                          for t in range(n)], len(idx) + n)
        base = [idx[p] for p in pivots if p < len(idx)]
        for j in range(len(idx)):
            if j not in pivots:
                row = [Fraction(0)] * nrays
                row[idx[j]] = Fraction(1)
                for s, i in enumerate(base):
                    row[i] -= m[s][j]
                consistency.append(row)
        charts.append((base, [row[len(idx):] for row in m]))
    spanning = [[x for base, inv in charts
                 for x in vec_mat([values[i] for i in base], inv[:len(base)])]
                for values in _rational_nullspace(consistency, nrays)]
    for k, (base, inv) in enumerate(charts):
        for u in inv[len(base):]:
            v = [Fraction(0)] * ncols
            v[k * n:(k + 1) * n] = u
            spanning.append(v)
    m, pivots = rref([v[::-1] for v in spanning], ncols)
    basis = []
    for row in reversed(m[:len(pivots)]):
        v = row[::-1]
        basis.append(CPLFunction(fan, tuple(tuple(v[k:k + n])
                                            for k in range(0, ncols, n))))
    return CPLSpace(fan=fan, basis=tuple(basis), dim=len(basis), trivial_dim=n)


def _solve_global(rays: Sequence[Sequence], values: Sequence[Fraction]):
    """A functional u with <u, ray_i> = values_i for all i, or None."""
    if not rays:
        return ()
    n = len(rays[0])
    m, pivots = rref([list(ray) + [values[i]] for i, ray in enumerate(rays)], n + 1)
    if n in pivots:
        return None
    u = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        u[c] = m[i][n]
    return tuple(u)


def nontrivial_cpl(fan: Fan) -> CPLFunction | None:
    """An integral conewise linear function that is not globally linear.

    Returns None when every conewise linear function on the fan is the
    restriction of a single global functional.  The returned function is the
    first basis vector, in solver order, whose values on the rays cannot be
    matched by any global functional; denominators are cleared.
    """
    space = cpl_space(fan)
    if space.dim <= space.trivial_dim:
        return None
    for cand in space.basis:
        vals = cand.ray_values()
        if _solve_global(fan.rays, vals) is not None:
            continue
        best = _best_global_on_independent_rays(fan, vals)
        witness = next(i for i, v in enumerate(vals)
                       if dot(best, fan.rays[i]) != v)
        integral = cand.to_integral()
        return CPLFunction(fan, integral.functionals, witness_ray=witness)
    return None


def _best_global_on_independent_rays(fan: Fan, values: Sequence[Fraction]):
    """Solve for a global functional on the pivot columns of the ray matrix."""
    _, chosen = rref(mat_transpose(fan.rays), len(fan.rays))
    u = _solve_global([fan.rays[i] for i in chosen],
                      [values[i] for i in chosen])
    if u is None:
        raise CertificateInvalid("independent rays admit no global functional")
    return u


@dataclass(frozen=True)
class CountReport:
    """The ray-neighbour counting certificate for complete rank-3 fans.

    When every ray lies in at least four two-dimensional cones, the chain
    4*f1 <= sum(m_rho) = 2*f2 together with the Euler identity forces
    f2 > 2*f1 - 3, which makes the continuity system underdetermined beyond
    the trivial solutions.
    """

    f1: int
    f2: int
    f3: int
    min_m_rho: int
    all_m_rho_ge_4: bool
    ineq_4f1_le_2f2: bool
    ineq_f2_gt_2f1_minus_3: bool


def counting_certificate(fan: Fan) -> CountReport:
    if fan.ambient_rank != 3:
        raise WrongDimension("counting certificate needs a rank-3 fan")
    if not is_complete(fan):
        raise NotComplete("counting certificate needs a complete fan")
    st = stats(fan)
    f1, f2, f3 = st.f
    report = CountReport(
        f1=f1, f2=f2, f3=f3,
        min_m_rho=st.min_m_rho,
        all_m_rho_ge_4=st.min_m_rho >= 4,
        ineq_4f1_le_2f2=4 * f1 <= 2 * f2,
        ineq_f2_gt_2f1_minus_3=f2 > 2 * f1 - 3,
    )
    if report.all_m_rho_ge_4:
        if not (report.ineq_4f1_le_2f2 and report.ineq_f2_gt_2f1_minus_3):
            raise CertificateInvalid("counting chain failed on a fan satisfying "
                                     "the neighbour hypothesis")
    return report
