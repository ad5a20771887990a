"""Smallest generalized eigenpairs of (L, M), certified and repeatable for a fixed seed.

L is sparse Hermitian positive semidefinite, M positive diagonal.  The
pencil is whitened through M^(-1/2), solved densely up to ``DENSE_CUTOFF``
unknowns and by shift-invert Lanczos above it (ARPACK with every start and
restart vector drawn from the seed, an explicit sparse LU of B - sigma*I and
at most ``MAX_ITER`` Arnoldi iterations), so the route depends on the pencil
size alone.  The dense solve computes only the k requested pairs (LAPACK's
MRRR driver on an index range), not the whole spectrum, in place on one
Fortran-order array.  The small negative shift keeps the factorization
definite when L has a kernel, so the LU needs no pivoting and takes a
symmetric fill-reducing ordering: reverse Cuthill-McKee, then SuperLU's
minimum degree on A + A^H (minimum degree alone is slow on the icosphere's
subdivision numbering).
That makes 1.5-3x less fill than SuperLU's default unsymmetric COLAMD
ordering and keeps the row and column orders equal, so U's diagonal holds
the LDL^H pivots.  Their signs certify that the k smallest values were
found (Sylvester's law of inertia): one more factorization, just under the
largest returned value, counts the eigenvalues below it, and every missed
pair is solved for again off the span of the pairs found, at most
``MAX_RESOLVES`` times.  A Rayleigh-Ritz step on the span of the returned
pairs (k products with B and one k x k dense eigensolve) makes the sparse
path's vectors orthonormal, as the dense path's are, and both paths return
ascending values, so the route changes only the time.  ``DENSE_CUTOFF``
sits at the measured crossover: above it complex pencils solve up to 4-6x
faster sparse, below it pencils of up to about 250 unknowns stay faster
dense.  The shift, the kernel band, the inertia count's floor and the
residual certificate are fractions of ``scale``, the whitened operator's
1-norm, so none changes when the metric is scaled.  Each returned pair
(lambda, x) is certified in whitened coordinates: y = M^(1/2) x is a unit
vector and |B y - lambda y| <= ``RESIDUAL_TOL`` * scale, else the solve
raises, carrying the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, eigsh, splu

__all__ = [
    "RESIDUAL_TOL",
    "MAX_ITER",
    "DENSE_CUTOFF",
    "KERNEL_TOL",
    "CLUSTER_GAP",
    "INERTIA_GAP",
    "MAX_RESOLVES",
    "SolverConfig",
    "EigenResult",
    "EigenConvergenceError",
    "smallest_eigenpairs",
    "cluster_multiplicities",
]


RESIDUAL_TOL = 2e-10  # largest |B y - lambda y| a returned pair may carry, in units of scale
MAX_ITER = 4000      # ARPACK iteration budget of the sparse path
DENSE_CUTOFF = 300   # pencils of at most this many unknowns are solved densely
KERNEL_TOL = 1e-8    # values at most this times the operator scale are kernel values
CLUSTER_GAP = 0.02   # relative gap that separates two clusters
INERTIA_GAP = 1e-6   # relative distance below the largest returned value of the inertia count
MAX_RESOLVES = 8     # deflated re-solves of the sparse path before a missed pair raises


@dataclass(frozen=True)
class SolverConfig:
    """k smallest pairs and the seed of the sparse path's ARPACK generator."""

    k: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EigenResult:
    """Ascending eigenvalues with M-orthonormal vectors and residuals.

    ``scale`` is the 1-norm of the whitened operator B, the yardstick for
    deciding whether a small eigenvalue is a kernel value and the unit of
    ``residuals``: |B y - lambda y| / scale for y = M^(1/2) x.
    ``iterations`` counts inverse applications in the sparse path (0 for
    the dense path); ``fill`` is the number of entries SuperLU stores for the
    sparse path's L and U factors (0 for the dense path).
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    scale: float
    fill: int = 0


class EigenConvergenceError(RuntimeError):
    def __init__(self, message: str, values=None, residuals=None):
        super().__init__(message)
        self.values = values
        self.residuals = residuals


def _unpack(L, M):
    a = sp.csr_matrix(L.matrix if hasattr(L, "matrix") else L)
    m = np.asarray(M, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ValueError("operator must be square")
    if len(m) != a.shape[0]:
        raise ValueError(f"mass dimension {len(m)} != operator dimension {a.shape[0]}")
    bad = np.flatnonzero(~(np.isfinite(m) & (m > 0)))
    if len(bad):
        raise ValueError(f"mass must be positive and finite: entry {bad[0]} is {m[bad[0]]}")
    bad = np.flatnonzero(~np.isfinite(a.data))
    if len(bad):
        coo = a.tocoo()  # keeps the order of a.data
        raise ValueError(f"operator entries must be finite: entry ({coo.row[bad[0]]}, "
                         f"{coo.col[bad[0]]}) is {a.data[bad[0]]}")
    return a, m


def smallest_eigenpairs(L, M, config: SolverConfig = SolverConfig()) -> EigenResult:
    """k smallest eigenpairs of L x = lambda M x, residual-certified.

    A fixed config seed gives bitwise equal results, in one process or
    across processes, on one numpy/scipy build: the dense path is direct,
    and ARPACK draws its start vector and every restart vector from a
    generator seeded by ``config.seed`` and runs at tol=0
    (machine-precision Ritz convergence).
    """
    a, m = _unpack(L, M)
    n = a.shape[0]
    if config.k >= n:
        raise ValueError(f"k={config.k} must be below the dimension {n}")
    d_inv_sqrt = 1.0 / np.sqrt(m)
    # B = D A D entry by entry as (d_i a_ij) d_j, then twice its Hermitian part;
    # the half is taken with the unit below, as both are powers of two
    row_scale = np.repeat(d_inv_sqrt, np.diff(a.indptr))
    b = sp.csr_matrix(((row_scale * a.data) * d_inv_sqrt[a.indices], a.indices, a.indptr),
                      shape=a.shape)
    b = (b + b.getH()).tocsr()
    scale = 0.5 * float(sp.linalg.norm(b, 1))
    # the solve runs on B / 2^e, 2^e the power of two nearest scale: exact in
    # floating point, and it keeps ARPACK's absolute convergence floor at one
    # fraction of scale whatever the size of the metric
    unit = 2.0 ** round(math.log2(scale)) if 0 < scale < math.inf else 1.0
    b.data *= 0.5 / unit
    yardstick = scale / unit or 1.0  # of the residuals and the shift; 1 on a zero operator

    try:
        if n <= DENSE_CUTOFF:
            vals, vecs = eigh(b.toarray(order="F"), subset_by_index=[0, config.k - 1],
                              overwrite_a=True)
            iterations = fill = 0
        else:
            vals, vecs, iterations, fill = _shift_invert(b, config, yardstick)
    except EigenConvergenceError as exc:
        exc.values = None if exc.values is None else exc.values * unit
        raise

    # both routes return orthonormal whitened vectors y; x = M^(-1/2) y
    residuals = np.linalg.norm(b @ vecs - vecs * vals, axis=0) / yardstick
    vals = vals * unit
    if not np.all(residuals <= RESIDUAL_TOL):
        raise EigenConvergenceError(
            f"residuals {residuals} of the operator scale exceed tol {RESIDUAL_TOL}",
            values=vals, residuals=residuals)
    return EigenResult(values=vals, vectors=d_inv_sqrt[:, None] * vecs, residuals=residuals,
                       iterations=iterations, scale=scale, fill=fill)


def _shift_invert(b: sp.csr_matrix, config: SolverConfig, scale: float):
    n = b.shape[0]
    # sigma sits just below 0, the bottom of the PSD spectrum, on the scale
    # every other tolerance reads: B - sigma*I is then definite even when L
    # has a kernel, and near the smallest values
    sigma = -1e-5 * scale
    # ARPACK and the LU work on the relabelled pencil B[p][:, p]; the vectors
    # are mapped back before the caller certifies them
    p = reverse_cuthill_mckee(b, symmetric_mode=True)
    b = b[p][:, p].tocsc()
    # ARPACK draws its start vector and every restart vector from the seed
    rng = np.random.default_rng(config.seed)
    vals, vecs, solves, fill = _lanczos(b, sigma, config.k, rng, np.empty((n, 0), b.dtype))
    # single-vector Lanczos finds the second and later copies of a repeated
    # value only through roundoff; the inertia count sees a missed one
    for resolves in range(MAX_RESOLVES + 1):
        missing = _missing_below(b, vals, scale)
        if missing == 0:
            break
        if resolves == MAX_RESOLVES:
            raise EigenConvergenceError(
                f"{missing} of the {config.k} smallest eigenvalues still missing after "
                f"{MAX_RESOLVES} deflated re-solves", values=vals, residuals=None)
        # the missed pairs are the smallest ones orthogonal to every pair found
        more, more_vecs, extra, _ = _lanczos(b, sigma, missing, rng, vecs)
        solves += extra
        order = np.argsort(np.concatenate([vals, more]))[:config.k]
        vals, vecs = np.concatenate([vals, more])[order], np.hstack([vecs, more_vecs])[:, order]
    # Rayleigh-Ritz on the span found: the complex Arnoldi driver returns
    # copies of one value that are not orthogonal, unlike the dense path's.
    # The values stay ARPACK's, which the Ritz values match to roundoff.
    q = np.linalg.qr(vecs)[0]
    small = eigh(q.conj().T @ (b @ q))[1]
    vals = np.sort(vals)
    out = np.empty_like(vecs)
    out[p] = q @ small
    return vals, out, solves, fill


def _shifted(b: sp.spmatrix, shift: float) -> sp.spmatrix:
    """B - shift*I, on a copy of b whose diagonal alone changes."""
    a = b.copy()
    a.setdiag(a.diagonal() - shift)
    return a


def _factor(a: sp.spmatrix):
    """Symmetric-ordered, unpivoted LU of a Hermitian matrix: A = L D L^H."""
    return splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def _lanczos(b, sigma, k, rng, found):
    """k eigenpairs of b nearest sigma off the span of ``found``, the LU solves and fill.

    The factorization of B - sigma*I lives only during this call, so the
    inertia count that follows has room for its own.
    """
    factor = _factor(_shifted(b, sigma))
    # an orthonormal basis of the span, none on the first run: the complex
    # path's copies of one value need not be orthogonal
    basis = np.linalg.qr(found)[0] if found.shape[1] else None
    count = [0]

    def solve(rhs):
        count[0] += 1
        if basis is None:
            return factor.solve(rhs)
        x = factor.solve(rhs - basis @ (basis.conj().T @ rhs))
        return x - basis @ (basis.conj().T @ x)

    op_inv = LinearOperator(b.shape, matvec=solve, dtype=b.dtype)
    # eigsh hands complex pencils to eigs without the generator
    solver = eigs if np.iscomplexobj(b.data) else eigsh
    try:
        vals, vecs = solver(b, k=k, sigma=sigma, which="LM", maxiter=MAX_ITER, tol=0,
                            OPinv=op_inv, rng=rng)
    except ArpackNoConvergence as exc:
        raise EigenConvergenceError(
            f"ARPACK did not converge within {MAX_ITER} iterations",
            values=getattr(exc, "eigenvalues", None),
            residuals=None) from exc
    # factor.nnz reads SuperLU's own count; factor.L and .U would copy both factors
    return vals.real, vecs, count[0], factor.nnz


def _missing_below(b, vals, scale: float) -> int:
    """How many eigenvalues of b below the last returned cluster were not returned.

    The count shift sits ``INERTIA_GAP`` below the largest returned value,
    under every roundoff copy of it, so a cluster cut at k is no miss.  When
    every returned value is a kernel value there is nothing below to miss.
    """
    top = float(vals.max())
    floor = KERNEL_TOL * scale
    if top <= floor:
        return 0
    shift = max(top * (1.0 - INERTIA_GAP), floor)
    below = _count_below(_shifted(b, shift))
    returned = int(np.count_nonzero(vals < shift))
    if below < returned:
        raise EigenConvergenceError(
            f"{returned} returned values lie below {shift:.6g} but the inertia count "
            f"there is {below}", values=vals, residuals=None)
    return below - returned


def _count_below(a: sp.spmatrix) -> int:
    """Negative eigenvalues of the Hermitian a, by Sylvester's law of inertia.

    With equal row and column orders the LU is L D L^H and U's diagonal is D,
    which has as many negative entries as a has negative eigenvalues.
    Of the 33 MB RSS an ico s=5 connection solve adds, the count's factor takes
    17 MB and reading ``factor.U`` (all of U, for its diagonal) 10 MB; scipy 1.17's
    ``SuperLU`` exposes only L, U, perm_c, perm_r, nnz and solve, so there is
    no cheaper route to the pivot signs.
    """
    factor = _factor(a)
    if not np.array_equal(factor.perm_r, factor.perm_c):
        raise EigenConvergenceError(
            "the inertia count needed row pivoting, so U's diagonal does not hold "
            "the pivots")
    return int(np.count_nonzero(factor.U.diagonal().real < 0))


def cluster_multiplicities(values) -> list[tuple[float, int]]:
    """Greedy clustering of an ascending value list by relative gaps.

    Consecutive values join the current cluster while their gap is below
    ``CLUSTER_GAP`` times the larger magnitude.  Returns (cluster mean, count)
    in order.
    """
    vals = np.asarray(list(values), dtype=float)
    if len(vals) == 0:
        return []
    clusters: list[list[float]] = [[vals[0]]]
    for prev, cur in zip(vals[:-1], vals[1:]):
        denom = max(abs(prev), abs(cur), 1e-300)
        if (cur - prev) / denom < CLUSTER_GAP:
            clusters[-1].append(cur)
        else:
            clusters.append([cur])
    return [(float(np.mean(c)), len(c)) for c in clusters]
