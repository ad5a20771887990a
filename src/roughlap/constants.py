"""Explicit constants and bound evaluators for 1-form spectral gap estimates.

Everything here is a pure function of its inputs.  The chain the program
evaluates:

* Root sandwich: ``comparison_root(n, lam)`` is the unique positive root C of
  ``x * int_0^lam (cosh t + x sinh t)^(n-1) dt = w(n) = sin_power_integral(n)``,
  and ``lam*C`` lies between the floor of ``root_floor_coefficient`` and w(n);
  numpy and math only (Wallis recursion, Newton's method on Gauss-Legendre
  moments with a second rule as certificate).
* ``sobolev_cs`` turns a Ricci lower bound and a diameter bound into the
  Sobolev constant ``C_s`` of ``|f|_{2n/(n-2)} <= |f|_2 + C_s |df|_2``.
* Moser product ``prod_i (1 + t gamma^(i+1))^(1/gamma^(i+1))``, to a certified
  tail (``moser_product_converged``) and its majorant ``moser_product_bound``.
* ``epsilon_threshold`` is the pinching threshold (C_s from ``sobolev_cs``):
  below 1/2 the first eigenform is nowhere vanishing, which is impossible on
  an even-dimensional manifold with nonzero Euler characteristic; inverting
  that contradiction yields the gap bound ``oneform_gap_lower_bound``, the min
  of the two ``oneform_gap_branches``, one of them built on the constant Ct.

``li_yau_threshold`` is the function-Laplacian hypothesis of the rigidity check.

Dimensional constants that the estimates leave unspecified -- one depending
on the dimension, one on (dimension, exponent), and one more from the final
bootstrap -- are runtime inputs (:class:`AbstractConstants`), default 1.0,
so each formula is executable and the unknowns are explicit and sweepable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryBudget",
    "AbstractConstants",
    "sin_power_integral",
    "root_floor_coefficient",
    "comparison_root",
    "comparison_root_limit",
    "sobolev_cs",
    "moser_product_bound",
    "moser_product_converged",
    "MOSER_TAIL_TOL",
    "epsilon_threshold",
    "oneform_gap_lower_bound",
    "oneform_gap_branches",
    "li_yau_predicate",
    "li_yau_threshold",
]


@dataclass(frozen=True)
class GeometryBudget:
    """The estimate's hypotheses -- Ricci lower bound, diameter bound, curvature norm.

    dim          ambient dimension m (for the gap bound m = 2n must be even)
    kappa        Ricci lower-bound parameter, Ric >= -(m-1)*kappa, kappa >= 0
    diameter     diameter upper bound D > 0
    p_exponent   integrability exponent p of the curvature norms
    riem_2p      normalized L^{2p} norm of the full curvature tensor
    """

    dim: int
    kappa: float
    diameter: float
    p_exponent: float
    riem_2p: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if not 0 < self.diameter < math.inf:
            raise ValueError(f"diameter must be positive and finite, got {self.diameter}")
        if not 0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be >= 0 and finite, got {self.kappa}")
        if not 0 <= self.riem_2p < math.inf:
            raise ValueError(f"riem_2p must be nonnegative and finite, got {self.riem_2p}")
        if not 0 < self.p_exponent < math.inf:
            raise ValueError(f"p_exponent must be positive and finite, got {self.p_exponent}")


@dataclass(frozen=True)
class AbstractConstants:
    """The three dimensional constants the estimates never pin down.

    c_n    constant depending on the dimension only (sup-norm bootstrap)
    c_np   constant depending on (dimension, exponent) (gradient bound)
    c0_np  constant from the final bootstrap of the gap bound

    All default to 1.0; sweeping them shows how each bound scales.
    """

    c_n: float = 1.0
    c_np: float = 1.0
    c0_np: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c_n", "c_np", "c0_np"):
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite, got {value}")


def sin_power_integral(n: int) -> float:
    """Integral w(n) of sin^(n-1) t over [0, pi]: the Wallis recursion
    ``w(n) = (n-2)/(n-1) w(n-2)`` from w(1) = pi, w(2) = 2, as one integer ratio."""
    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    ratio = math.prod(range(n - 2, 0, -2)) / math.prod(range(n - 1, 0, -2))
    return (math.pi if n % 2 else 2.0) * ratio


def root_floor_coefficient(n: int) -> float:
    """Coefficient a(n) in the exponential floor of the comparison root.

    With w = sin_power_integral(n), the floor is
    ``lam * comparison_root(n, lam) >= a(n) * exp(-(n-1) lam)`` where
    ``a(n) = w (1 + w)^(1-n)``.  Always 0 < a(n) < w.
    """
    w = sin_power_integral(n)
    return w * (1.0 + w) ** (1 - n)


_RULE = np.polynomial.legendre.leggauss(20)
_CHECK_RULE = np.polynomial.legendre.leggauss(27)


def _integral(f, lam: np.ndarray, rate: float, rule) -> np.ndarray:
    """Composite Gauss-Legendre rules for int_0^lam[i] f(t, i) dt, on f's last axis.

    On ``ceil(rate*lam[i]/4)`` panels an integrand growing like exp(rate*t)
    grows by at most e^4 on each; nodes count down from lam[i], where it is
    largest.  Every lam's panels are laid out in one node array t, f(t, i)
    sees the index i of each node's lam, and each lam's sum is one segment
    of a single reduceat.
    """
    nodes, weights = rule
    panels = np.maximum(1, np.ceil(rate * lam / 4.0)).astype(np.int64)
    h = lam / panels
    first = np.cumsum(panels) - panels  # each lam's first panel
    owner = np.repeat(np.arange(len(lam)), panels)  # each panel's lam
    offset = np.arange(len(owner)) - first[owner]  # its place among that lam's panels
    t = (lam[owner, None] - h[owner, None] * (offset[:, None] + 0.5 * (nodes + 1.0))).ravel()
    values = f(t, np.repeat(owner, len(nodes)))
    return 0.5 * h * np.add.reduceat(values * np.tile(weights, len(owner)),
                                     first * len(nodes), axis=-1)


def comparison_root(n: int, lam):
    """Unique positive root C of ``C * int_0^lam (cosh t + C sinh t)^(n-1) dt = w(n)``.

    ``lam`` is a number, for which a float is returned, or a 1-d array, whose
    roots come from one pass.  In ``c = lam*C`` and divided by cosh(lam)^(n-1),
    the binomial expansion is a polynomial ``sum_k binom(n-1, k) m_k c^(k+1)``
    with positive coefficients, so Newton's method from the bracket's right
    end falls monotonically to the unique root; each element stops on its own
    step.  A 27-node rule on the direct definition certifies a relative
    residual below 1e-10 for each.  Raises ValueError, naming the first lam
    at fault, where lam is not a positive normal double or cosh(lam)^(n-1)
    overflows, and RuntimeError where a root misses its certificate.
    """
    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))

    def first(bad):
        return float(lams[np.flatnonzero(bad)[0]])

    bad = ~((lams >= sys.float_info.min) & (lams < math.inf))  # C ~ 1/lam overflows below
    if bad.any():
        raise ValueError(f"lam must be positive and finite (>= {sys.float_info.min!r}), "
                         f"got {first(bad)}")
    with np.errstate(over="ignore"):
        cosh_lam = np.cosh(lams)
        power = cosh_lam ** (n - 1)
    if not np.isfinite(power).all():
        raise ValueError(f"cosh(lam)^(n-1) overflows at n={n}, lam={first(~np.isfinite(power))}")
    rhs = lams * sin_power_integral(n) / power
    k = np.arange(n)[:, None]
    moments = _integral(lambda t, i: (np.cosh(t) / cosh_lam[i]) ** (n - 1 - k)
                        * (np.sinh(t) / cosh_lam[i] / lams[i]) ** k, lams, n - 1, _RULE)
    coeffs = np.array([math.comb(n - 1, j) for j in range(n)])[:, None] * moments
    c = rhs / coeffs[0]
    todo = np.arange(len(lams))  # the elements whose last step was not yet below 4 eps c
    while len(todo):
        x = c[todo]
        value = slope = np.zeros(len(todo))  # Horner for P(c) = F(c)/c and P'(c)
        for coeff in coeffs[::-1, todo]:
            slope = slope * x + value
            value = value * x + coeff
        step = (x * value - rhs[todo]) / (value + x * slope)
        c[todo] = x = x - step
        todo = todo[step > 4 * sys.float_info.epsilon * x]

    direct = _integral(lambda t, i: ((np.cosh(t) + (c / lams)[i] * np.sinh(t)) / cosh_lam[i])
                       ** (n - 1), lams, n - 1, _CHECK_RULE)
    residual = abs(c * direct - rhs)
    bad = ~(residual < 1e-10 * rhs)
    if bad.any():
        raise RuntimeError(f"root residual {residual[bad][0]:.3e} exceeds 1e-10*w "
                           f"for n={n}, lam={first(bad)}")
    roots = c / lams
    return float(roots[0]) if np.ndim(lam) == 0 else roots


def comparison_root_limit(n: int) -> float:
    """Limiting value of lam * comparison_root(n, lam) as lam -> 0+.

    Substituting x = c/lam and t = lam*u in the root equation gives
    ``((1+c)^n - 1)/n = w(n)``, i.e. ``c = (n w(n) + 1)^(1/n) - 1``
    (sqrt(5)-1 for n = 2).  Note this is strictly below w(n): the naive
    ``F(x) ~ x lam`` reading drops the x*sinh term, which contributes at
    the same order because the root scales like 1/lam.

    No bound reads it: it is the closed-form oracle that the tests check
    ``comparison_root`` against at small lam, and demo 01 prints it.
    """
    w = sin_power_integral(n)
    return (n * w + 1.0) ** (1.0 / n) - 1.0


def sobolev_cs(budget: GeometryBudget, consts: AbstractConstants = AbstractConstants()) -> float:
    """Sobolev constant C_s = c_n * D * exp((m-1) sqrt(kappa D^2)), m = dim.

    The exponent 2m/(m-2) in the underlying inequality degenerates at m = 2,
    so dimension >= 3 is required.
    """
    m = budget.dim
    if m <= 2:
        raise ValueError(f"Sobolev exponent degenerates at dim <= 2, got {m}")
    lam = math.sqrt(budget.kappa) * budget.diameter
    return consts.c_n * budget.diameter * math.exp((m - 1) * lam)


def moser_product_bound(t: float, gamma: float) -> float:
    """Closed-form majorant exp(2 sqrt(gamma)/(gamma-1)) (1+sqrt(t))^(2/(gamma-1)).

    Dominates the converged infinite product prod_i (1 + t gamma^(i+1))^(1/gamma^(i+1)).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    if not 1 < gamma < math.inf:
        raise ValueError(f"gamma must exceed 1 (product diverges) and be finite, got {gamma}")
    g = gamma - 1.0
    return math.exp(2.0 * math.sqrt(gamma) / g) * (1.0 + math.sqrt(t)) ** (2.0 / g)


def _log_product_term(t: float, gamma: float, i: int) -> float:
    """log(1 + t gamma^(i+1)) / gamma^(i+1), overflow-safe."""
    g = (i + 1) * math.log(gamma)
    if g > 300.0:  # t*gamma^(i+1) astronomically large: log1p(x) ~ log t + g
        return (math.log(t) + g) * math.exp(-g) if t > 0 else 0.0
    x = math.exp(g)
    return math.log1p(t * x) / x


def _product_tail_bound(t: float, gamma: float, n_terms: int) -> float:
    """Upper bound for the dropped log-tail sum_{i>=n_terms} log1p(t g^(i+1))/g^(i+1).

    Uses log(1 + t x) <= log1p(t) + log(x) for x >= 1, then geometric sums.
    """
    r = 1.0 / gamma
    j0 = n_terms + 1  # tail over j = i+1 >= n_terms+1
    geo = r ** j0 / (1.0 - r)
    lin = r ** j0 * (j0 * (1.0 - r) + r) / (1.0 - r) ** 2  # sum j r^j, j >= j0
    return math.log1p(t) * geo + math.log(gamma) * lin


MOSER_TAIL_TOL = 1e-12  # bound on the dropped log-tail of a converged Moser product


def moser_product_converged(t: float, gamma: float) -> tuple[float, int]:
    """Partial product prod_{i<n_terms} (1 + t gamma^(i+1))^(1/gamma^(i+1)) with enough
    terms that the log-tail is below MOSER_TAIL_TOL.

    Returns (value, n_terms).  The tail estimate is a rigorous upper bound,
    so the returned value is the infinite product to within exp(MOSER_TAIL_TOL).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    if not 1 < gamma < math.inf:
        raise ValueError(f"gamma must exceed 1 and be finite, got {gamma}")
    n_terms = 4
    while _product_tail_bound(t, gamma, n_terms) >= MOSER_TAIL_TOL:
        n_terms *= 2
        if n_terms > 2 ** 24:
            raise RuntimeError("product tail does not fall below tolerance")
    return math.exp(sum(_log_product_term(t, gamma, i) for i in range(n_terms))), n_terms


def epsilon_threshold(budget: GeometryBudget, lam: float,
                      consts: AbstractConstants = AbstractConstants()) -> float:
    """Dimensionless pinching threshold, which bounds D |grad theta|_inf for an
    eigenform theta of unit L^2 norm.

    The Moser ladder in n = dim has B = lam + |Riem|_2p, C_s = sobolev_cs(budget, consts),
    t = 4 C_s sqrt(B) sqrt(1 + B D^2), alpha = 2pn/(2p-n) and beta = 2pn/(2p-n+pn).
    With x = sqrt(lam) D the threshold is the min of the branches c_np (1+sqrt(t))^alpha x
    and c_np (1+sqrt(t))^beta x^(beta/alpha) exp(c_np sqrt(lam) C_s).  Needs n > 2
    and 2p > n, so that gamma = n(p-1)/(p(n-2)) > 1 and the Moser product converges.

    When this is below 1/2, the eigenform's pointwise norm is pinched
    (inf/sup >= 1 - 2 eps) and in particular nowhere zero.  Both branches
    vanish with sqrt(lam D^2), so eps -> 0 as lam -> 0.
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"eigenvalue must be nonnegative and finite, got {lam}")
    if lam == 0.0:
        return 0.0
    n = budget.dim
    p = budget.p_exponent
    if n <= 2:
        raise ValueError(f"iteration ladder needs dim > 2, got {n}")
    if 2 * p <= n:
        raise ValueError(f"iteration ladder needs 2p > dim, got p={p}, dim={n}")
    cs = sobolev_cs(budget, consts)
    b = lam + budget.riem_2p
    t = 4.0 * cs * math.sqrt(b) * math.hypot(1.0, math.sqrt(b) * budget.diameter)
    alpha = 2.0 * p * n / (2.0 * p - n)
    beta = 2.0 * p * n / (2.0 * p - n + p * n)
    x = math.sqrt(lam) * budget.diameter
    base = 1.0 + math.sqrt(t)
    b1 = consts.c_np * base ** alpha * x
    b2 = (consts.c_np * base ** beta
          * x ** (beta / alpha)
          * math.exp(consts.c_np * math.sqrt(lam) * cs))
    return min(b1, b2)


def oneform_gap_branches(budget: GeometryBudget,
                         consts: AbstractConstants = AbstractConstants()) -> tuple[float, float]:
    """The two branches whose min lower-bounds sqrt(lambda_1^(1)) * D.

    branch1 = (Ct/(1+sqrt(K D^2)) * exp(-(2n-1) sqrt(kappa D^2)))^delta
    branch2 = exp(-(2n-1) sqrt(kappa D^2))

    with m = 2n the ambient dimension, K the L^{2p} curvature norm,
    delta = 2pn/(p-n) and Ct = (4 c_np)^(-1/delta) exp(-c_n/delta) / c0_np, which
    decreases in every abstract constant.  Requires even dimension, p > n and a
    finite branch1.
    """
    m = budget.dim
    if m % 2 != 0 or m < 4:
        raise ValueError(f"dim must be even and >= 4 for the gap bound, got {m}")
    n = m // 2
    p = budget.p_exponent
    if p <= n:
        raise ValueError(f"p_exponent must exceed the half-dimension {n}, got {p}")
    d = budget.diameter
    a = (2 * n - 1) * math.sqrt(budget.kappa) * d
    s = math.sqrt(budget.riem_2p) * d
    delta = 2.0 * p * n / (p - n)
    ct = (4.0 * consts.c_np) ** (-1.0 / delta) / consts.c0_np * math.exp(-consts.c_n / delta)
    try:
        branch1 = (ct / (1.0 + s) * math.exp(-a)) ** delta
    except OverflowError:
        branch1 = math.inf
    if branch1 == math.inf:  # Ct itself may have overflowed
        raise ValueError(f"c0_np {consts.c0_np!r} and c_np {consts.c_np!r} give the gap constant "
                         f"Ct={ct!r}, and branch1 = (Ct/(1+s) e^-a)^(2pn/(p-n)) overflows")
    branch2 = math.exp(-a)
    return branch1, branch2


def oneform_gap_lower_bound(budget: GeometryBudget,
                            consts: AbstractConstants = AbstractConstants()) -> float:
    """Lower bound for sqrt(lambda_1^(1)) * D on even-dimensional manifolds.

    Min of the two branches of :func:`oneform_gap_branches`; dimensionless,
    monotone non-increasing in kappa and in the curvature norm, and at most 1
    whenever kappa >= 0.
    """
    b1, b2 = oneform_gap_branches(budget, consts)
    return min(b1, b2)


def li_yau_threshold(diameter: float, kappa: float, c: float) -> float:
    """The Li-Yau threshold c * exp(-c sqrt(kappa) D)."""
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 0 < diameter < math.inf:
        raise ValueError(f"diameter must be positive and finite, got {diameter}")
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be >= 0 and finite, got {kappa}")
    return c * math.exp(-c * math.sqrt(kappa) * diameter)


def li_yau_predicate(lambda1: float, diameter: float, kappa: float, c: float) -> bool:
    """Whether lambda1 * D^2 >= :func:`li_yau_threshold` (equality counts)."""
    if not 0 <= lambda1 < math.inf:
        raise ValueError(f"lambda1 must be nonnegative and finite, got {lambda1}")
    return bool(lambda1 * diameter * diameter >= li_yau_threshold(diameter, kappa, c))
