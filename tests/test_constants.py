"""Constants module: every formula against an independent oracle."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gamma

from roughlap import constants as con
from roughlap.constants import AbstractConstants, GeometryBudget
from roughlap.verify import ROOT_LAMBDAS


def budget(dim=4, kappa=0.0, diameter=1.0, p=4.0, riem=0.0):
    return GeometryBudget(dim=dim, kappa=kappa, diameter=diameter,
                          p_exponent=p, riem_2p=riem)


# -- sine integral and floor coefficient -------------------------------------

def test_sin_power_integral_closed_forms():
    assert abs(con.sin_power_integral(2) - 2.0) < 1e-12
    assert abs(con.sin_power_integral(3) - math.pi / 2) < 1e-12
    assert abs(con.sin_power_integral(4) - 4.0 / 3.0) < 1e-12


def test_sin_power_integral_gamma_oracle():
    # independent closed form: sqrt(pi) Gamma(n/2) / Gamma((n+1)/2)
    for n in range(2, 11):
        expected = math.sqrt(math.pi) * gamma(n / 2) / gamma((n + 1) / 2)
        assert abs(con.sin_power_integral(n) - expected) < 1e-12


def test_sin_power_integral_wallis_matches_gamma_form():
    for n in range(2, 31):
        expected = math.sqrt(math.pi) * math.gamma(n / 2) / math.gamma((n + 1) / 2)
        assert con.sin_power_integral(n) == pytest.approx(expected, rel=1e-15, abs=0)


def test_sin_power_integral_domain():
    with pytest.raises(ValueError):
        con.sin_power_integral(1)


def test_floor_coefficient_values():
    assert abs(con.root_floor_coefficient(2) - 2.0 / 3.0) < 1e-12
    w3 = math.pi / 2
    assert abs(con.root_floor_coefficient(3) - w3 * (1 + w3) ** -2) < 1e-12


def test_floor_coefficient_below_integral():
    for n in range(2, 11):
        a = con.root_floor_coefficient(n)
        assert 0.0 < a < con.sin_power_integral(n)


# -- comparison root ----------------------------------------------------------

def _root_n2_oracle(lam: float) -> float:
    # for n=2 the root equation is the quadratic
    # x sinh(lam) + x^2 (cosh(lam) - 1) = 2
    a = math.cosh(lam) - 1.0
    b = math.sinh(lam)
    return (-b + math.sqrt(b * b + 8.0 * a)) / (2.0 * a)


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.0, 5.0])
def test_comparison_root_quadratic_oracle(lam):
    assert con.comparison_root(2, lam) == pytest.approx(_root_n2_oracle(lam), rel=1e-12)


def test_comparison_root_small_lambda_limit():
    # lam*C(lam) -> (n w + 1)^(1/n) - 1; for n=2 that is sqrt(5)-1
    assert con.comparison_root_limit(2) == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-14)
    for n in (2, 3, 5, 8):
        got = 1e-6 * con.comparison_root(n, 1e-6)
        assert got == pytest.approx(con.comparison_root_limit(n), rel=1e-4)


def test_comparison_root_sandwich_spot():
    for n in (2, 4, 8):
        for lam in (1e-2, 0.5, 3.0, 10.0):
            lam_c = lam * con.comparison_root(n, lam)
            upper = con.sin_power_integral(n)
            lower = con.root_floor_coefficient(n) * math.exp(-(n - 1) * lam)
            assert lower <= lam_c <= upper


def test_comparison_root_satisfies_the_defining_equation():
    # independent of the moments and the binomial expansion: adaptive quadrature
    # of (cosh t + C sinh t)^(n-1) itself
    for n in range(2, 11):
        w = con.sin_power_integral(n)
        for lam in np.geomspace(1e-6, 50.0, 40):
            root = con.comparison_root(n, lam)
            direct, _ = quad(lambda t: (math.cosh(t) + root * math.sinh(t)) ** (n - 1),
                             0.0, lam, epsabs=0.0, epsrel=1e-13, limit=200)
            assert abs(root * direct - w) <= 1e-10 * w, (n, lam)


def test_comparison_root_tiny_lambda_reaches_the_limit():
    # at lam = 1e-300 the equation is ((1 + lam C)^n - 1)/n = w to double precision
    for n in range(2, 11):
        got = 1e-300 * con.comparison_root(n, 1e-300)
        assert got == pytest.approx(con.comparison_root_limit(n), rel=1e-13)


ARRAY_LAMBDAS = np.concatenate([ROOT_LAMBDAS, [1e-300, 1e-6, 20.0, 50.0]])


def test_comparison_root_array_equals_its_elements():
    # one array pass gives each element bitwise the root its own call gives
    for n in range(2, 11):
        roots = con.comparison_root(n, ARRAY_LAMBDAS)
        assert roots.shape == ARRAY_LAMBDAS.shape
        alone = [con.comparison_root(n, lam) for lam in ARRAY_LAMBDAS.tolist()]
        assert all(type(root) is float for root in alone)
        assert np.array_equal(roots, alone), n
        assert np.array_equal(roots[7:8], con.comparison_root(n, ARRAY_LAMBDAS[7:8]))


@pytest.mark.parametrize("n, bad, message", [
    (2, 0.0, r"lam must be positive and finite .*got 0\.0$"),
    (2, math.nan, r"lam must be positive and finite .*got nan$"),
    (9, 90.0, r"cosh\(lam\)\^\(n-1\) overflows at n=9, lam=90\.0$"),
], ids=["zero", "nan", "overflow"])
def test_comparison_root_array_names_the_lambda_at_fault(n, bad, message):
    lams = np.array([0.5, 3.0, bad, 2.0])
    with pytest.raises(ValueError, match=message):
        con.comparison_root(n, lams)


# for each n, a lam (rounded down) near which binom(n-1, k) m_k of the root
# polynomial without the cosh(lam)^(n-1) scaling overflow
UNSCALED_REACH = [(2, 710.07), (3, 355.55), (4, 237.26), (5, 178.03), (6, 142.51),
                 (7, 118.78), (8, 101.86), (9, 89.14), (10, 79.26)]


@pytest.mark.parametrize("n, lam", UNSCALED_REACH)
def test_comparison_root_solves_up_to_cosh_overflow(n, lam):
    lam_c = lam * con.comparison_root(n, lam)
    assert con.root_floor_coefficient(n) * math.exp(-(n - 1) * lam) <= lam_c
    assert lam_c <= con.sin_power_integral(n)
    # past the point where cosh(lam)^(n-1) overflows: a ValueError naming n and lam
    beyond = math.acosh(sys.float_info.max ** (1.0 / (n - 1))) * (1 + 1e-12)
    with pytest.raises(OverflowError):
        math.cosh(beyond) ** (n - 1)
    with pytest.raises(ValueError, match=rf"n={n}, lam={beyond!r}"):
        con.comparison_root(n, beyond)


def test_comparison_root_overflow_is_a_value_error():
    with pytest.raises(ValueError, match=r"overflows at n=9, lam=90\.0"):
        con.comparison_root(9, 90.0)


def test_comparison_root_domain_errors():
    with pytest.raises(ValueError):
        con.comparison_root(2, 0.0)
    with pytest.raises(ValueError):
        con.comparison_root(2, -1.0)
    with pytest.raises(ValueError):
        con.comparison_root(1, 1.0)
    for lam in (math.inf, math.nan, 1e-310):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            con.comparison_root(2, lam)


# -- Sobolev constant ----------------------------------------------------------

def test_sobolev_cs_values():
    assert con.sobolev_cs(budget(dim=4, kappa=0.0, diameter=1.0)) == pytest.approx(1.0)
    got = con.sobolev_cs(budget(dim=4, kappa=1.0, diameter=1.0))
    assert got == pytest.approx(math.exp(3.0), rel=1e-14)
    with pytest.raises(ValueError):
        con.sobolev_cs(budget(dim=2))


def test_sobolev_cs_monotone():
    base = con.sobolev_cs(budget(dim=4, kappa=0.5, diameter=1.0))
    assert con.sobolev_cs(budget(dim=4, kappa=1.0, diameter=1.0)) > base
    assert con.sobolev_cs(budget(dim=4, kappa=0.5, diameter=2.0)) > base


# -- Moser machinery ------------------------------------------------------------

def _epsilon_branches(lam):
    """The threshold's two branches at dim 4, p 4, D 1, riem 0 and unit constants
    (C_s = 1, alpha = 8, beta = 1.6), written out from their formulas."""
    b = lam
    base = 1.0 + math.sqrt(4.0 * math.sqrt(b) * math.sqrt(1.0 + b))
    x = math.sqrt(lam)
    return base ** 8 * x, base ** 1.6 * x ** 0.2 * math.exp(math.sqrt(lam))


def test_epsilon_branches_example():
    # lam 1: t = 4 sqrt(2), and branch 2 is the min; lam 1e-9: branch 1 is
    b = budget(dim=4, p=4.0)
    assert con.sobolev_cs(b) == 1.0
    base = 1.0 + math.sqrt(4.0 * math.sqrt(2.0))
    assert con.epsilon_threshold(b, lam=1.0) == pytest.approx(base ** 1.6 * math.e, rel=1e-14)
    assert _epsilon_branches(1.0)[1] == pytest.approx(base ** 1.6 * math.e, rel=1e-14)
    b1, b2 = _epsilon_branches(1e-9)
    assert b1 < b2
    assert con.epsilon_threshold(b, lam=1e-9) == pytest.approx(b1, rel=1e-13)


def test_epsilon_branches_domain():
    # the ladder's own errors come first, before sobolev_cs's own dim <= 2 error,
    # and the eigenvalue's before either
    with pytest.raises(ValueError, match="dim > 2"):
        con.epsilon_threshold(budget(dim=2, p=4.0), 1.0)
    with pytest.raises(ValueError, match="2p > dim"):
        con.epsilon_threshold(budget(dim=4, p=1.5), 1.0)
    with pytest.raises(ValueError, match="eigenvalue must be nonnegative"):
        con.epsilon_threshold(budget(dim=2, p=1.5), -1.0)


def test_moser_product_bound_limit():
    # t -> 0, gamma = 2: exp(2 sqrt(2)) * 1
    assert con.moser_product_bound(0.0, 2.0) == pytest.approx(
        math.exp(2.0 * math.sqrt(2.0)), rel=1e-14)
    assert con.moser_product_bound(2.0, 2.0) > con.moser_product_bound(1.0, 2.0)
    with pytest.raises(ValueError):
        con.moser_product_bound(1.0, 1.0)


def test_moser_product_converged_rejects_gamma_at_most_one():
    for gamma in (0.9, 1.0):
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            con.moser_product_converged(1.0, gamma)


@pytest.mark.parametrize("moser", [con.moser_product_converged, con.moser_product_bound])
@pytest.mark.parametrize("t", [-2.0, math.nan, math.inf])
def test_moser_product_rejects_t_before_any_term(moser, t):
    # checked first, so neither the tail bound's log1p nor a nan product is reached
    with pytest.raises(ValueError, match="t must be nonnegative and finite"):
        moser(t, 2.0)


@pytest.mark.parametrize("t, gamma", [(0.0, 2.0), (1.0, 2.0), (100.0, 1.1), (1e6, 4.0)])
def test_moser_product_converged_is_its_partial_product(t, gamma):
    value, n_terms = con.moser_product_converged(t, gamma)
    factors = [(1.0 + t * gamma ** (i + 1)) ** (1.0 / gamma ** (i + 1)) for i in range(n_terms)]
    assert value == pytest.approx(math.prod(factors), rel=1e-13)


def test_moser_product_converged_below_bound_grid():
    for t in (0.1, 1.0, 10.0, 100.0):
        for g in (1.1, 1.5, 2.0, 4.0):
            value, n_terms = con.moser_product_converged(t, g)
            assert value <= con.moser_product_bound(t, g)
            # tail bound certified below tolerance at the returned term count
            assert con._product_tail_bound(t, g, n_terms) < 1e-12
            assert value >= (1.0 + t * g) ** (1.0 / g)  # its first factor


# -- pinching threshold ---------------------------------------------------------

def test_gradient_branches_crossover_exists():
    # fixed ladder, unit constants: branch1 - branch2 changes sign in lambda,
    # and the threshold follows branch1 below the crossing, branch2 above it
    b = budget(dim=4, p=4.0)
    assert con.sobolev_cs(b) == 1.0

    def diff(lam):
        b1, b2 = _epsilon_branches(lam)
        return b1 - b2

    assert diff(1e-9) < 0          # tiny lambda: branch1 below
    assert diff(0.5) > 0           # moderate lambda: branch2 below
    crossing = brentq(diff, 1e-9, 0.5)
    assert 0 < crossing < 0.5
    b1, b2 = _epsilon_branches(crossing)
    assert b1 == pytest.approx(b2, rel=1e-9)
    for lam, branch in ((crossing * 0.9, 0), (crossing * 1.1, 1)):
        assert con.epsilon_threshold(b, lam) == pytest.approx(
            _epsilon_branches(lam)[branch], rel=1e-13)


def test_epsilon_threshold_vanishes_with_lambda():
    b = budget(dim=4, p=4.0)
    assert con.sobolev_cs(b) == 1.0
    assert con.epsilon_threshold(b, 0.0) == 0.0
    tiny = con.epsilon_threshold(b, 1e-20)
    assert 0 < tiny < 1e-9
    assert con.epsilon_threshold(b, 1e-10) > tiny


# -- gap bound -----------------------------------------------------------------

GAP_CONSTANT_UNIT = 4.0 ** (-1.0 / 8.0) * math.exp(-1.0 / 8.0)  # n=2, p=4, consts 1


def gap_constant(n, p, consts=AbstractConstants()):
    """Ct = (4 c_np)^(-1/delta) e^(-c_n/delta) / c0_np with delta = 2pn/(p-n)."""
    delta = 2.0 * p * n / (p - n)
    return (4.0 * consts.c_np) ** (-1.0 / delta) * math.exp(-consts.c_n / delta) / consts.c0_np


def test_gap_constant_value():
    # kappa = riem = 0, D = 1: branch1 = Ct^delta with delta = 8
    branch1, _ = con.oneform_gap_branches(budget(dim=4, p=4.0))
    assert branch1 == pytest.approx(GAP_CONSTANT_UNIT ** 8, rel=1e-14)


def test_gap_constant_decreasing_in_each_constant():
    base, _ = con.oneform_gap_branches(budget(dim=4, p=4.0))
    for consts in (AbstractConstants(c_n=2.0), AbstractConstants(c_np=2.0),
                   AbstractConstants(c0_np=2.0)):
        assert con.oneform_gap_branches(budget(dim=4, p=4.0), consts)[0] < base


def test_gap_constant_domain():
    with pytest.raises(ValueError, match="p_exponent must exceed the half-dimension 4"):
        con.oneform_gap_branches(budget(dim=8, p=4.0))


def test_gap_lower_bound_reference_value():
    # kappa = K = 0, constants 1, dim 4, p 4: min(Ct^8, 1) = 1/(4e)
    got = con.oneform_gap_lower_bound(budget(dim=4, p=4.0))
    assert got == pytest.approx(1.0 / (4.0 * math.e), abs=1e-12)
    b1, b2 = con.oneform_gap_branches(budget(dim=4, p=4.0))
    assert b2 == 1.0 and b1 < b2


def test_gap_lower_bound_monotone_rays():
    vals_kappa = [con.oneform_gap_lower_bound(budget(dim=4, kappa=k, p=4.0))
                  for k in np.linspace(0, 10, 10)]
    assert all(b <= a + 1e-15 for a, b in zip(vals_kappa, vals_kappa[1:]))
    vals_riem = [con.oneform_gap_lower_bound(budget(dim=4, riem=r, p=4.0))
                 for r in np.linspace(0, 10, 10)]
    assert all(b <= a + 1e-15 for a, b in zip(vals_riem, vals_riem[1:]))


def test_gap_lower_bound_at_most_one():
    for kappa in (0.0, 0.3, 2.0):
        assert con.oneform_gap_lower_bound(budget(dim=4, kappa=kappa, p=4.0)) <= 1.0


def test_gap_lower_bound_domain():
    with pytest.raises(ValueError):
        con.oneform_gap_lower_bound(budget(dim=3, p=4.0))
    with pytest.raises(ValueError):
        con.oneform_gap_lower_bound(budget(dim=4, p=1.5))


def test_gap_lower_bound_continuous_at_branch_switch():
    # with a small bootstrap constant Ct > 1 the branches cross along the
    # curvature-norm ray; min of the two stays continuous there
    consts = AbstractConstants(c0_np=0.3)
    ct = gap_constant(2, 4, consts=consts)
    assert ct > 1.0
    s_star = ct - 1.0
    riem_star = s_star ** 2  # D = 1
    lo = con.oneform_gap_lower_bound(budget(dim=4, riem=riem_star * (1 - 1e-11), p=4.0), consts)
    hi = con.oneform_gap_lower_bound(budget(dim=4, riem=riem_star * (1 + 1e-11), p=4.0), consts)
    assert abs(hi - lo) < 1e-9
    below = con.oneform_gap_branches(budget(dim=4, riem=riem_star * 0.9, p=4.0), consts)
    above = con.oneform_gap_branches(budget(dim=4, riem=riem_star * 1.1, p=4.0), consts)
    assert below[0] > below[1]   # branch2 active below the crossing
    assert above[0] < above[1]   # branch1 active above


def _decades(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# the bound's inputs: dim, p above dim/2, the scale-free kappa D^2 and
# riem_2p D^2 across decades, D, and the constants; ranges where the bound
# (exponent 2pn/(p-n) <= 40 on factors >= e^-22) is a finite double
GAP_INPUTS = st.fixed_dictionaries({
    "dim": st.sampled_from([4, 6, 8]), "p_above": st.floats(1.0, 8.0),
    "kappa_d2": st.one_of(st.just(0.0), _decades(1e-6, 10.0)),
    "riem_d2": st.one_of(st.just(0.0), _decades(1e-6, 1e4)),
    "diameter": _decades(1e-3, 1e6),
    "consts": st.builds(AbstractConstants, _decades(1e-2, 1e2), _decades(1e-2, 1e2),
                        _decades(1e-2, 1e2))})


def _scaled_budget(x, **moved):
    x = {**x, **moved}
    d = x["diameter"]
    return budget(dim=x["dim"], kappa=x["kappa_d2"] / d / d, diameter=d,
                  p=x["dim"] // 2 + x["p_above"], riem=x["riem_d2"] / d / d)


@settings(max_examples=200, deadline=None)
@given(x=GAP_INPUTS, more_kappa=_decades(1e-6, 10.0), more_riem=_decades(1e-6, 1e4))
def test_gap_lower_bound_is_non_increasing(x, more_kappa, more_riem):
    rhs = con.oneform_gap_lower_bound(_scaled_budget(x), x["consts"])
    assert 0 <= rhs < math.inf
    for larger in (_scaled_budget(x, kappa_d2=x["kappa_d2"] + more_kappa),
                   _scaled_budget(x, riem_d2=x["riem_d2"] + more_riem)):
        assert con.oneform_gap_lower_bound(larger, x["consts"]) <= rhs


@settings(max_examples=200, deadline=None)
@given(x=GAP_INPUTS, other_diameter=_decades(1e-3, 1e6))
def test_gap_lower_bound_depends_on_the_diameter_only_through_the_scale_free_inputs(
        x, other_diameter):
    rhs = con.oneform_gap_lower_bound(_scaled_budget(x), x["consts"])
    assume(rhs >= sys.float_info.min)
    moved = con.oneform_gap_lower_bound(_scaled_budget(x, diameter=other_diameter),
                                        x["consts"])
    assert moved == pytest.approx(rhs, rel=1e-12, abs=0)


@settings(max_examples=200, deadline=None)
@given(x=GAP_INPUTS, s_star=_decades(1e-3, 1e3))
def test_gap_lower_bound_is_continuous_at_a_branch_crossing(x, s_star):
    # branch1 = (Ct/(1+s) e^-a)^delta meets branch2 = e^-a at s* when
    # Ct = (1+s*) e^(a (delta-1)/delta); Ct scales as 1/c0_np
    n, p = x["dim"] // 2, x["dim"] // 2 + x["p_above"]
    delta = 2.0 * p * n / (p - n)
    a = (2 * n - 1) * math.sqrt(x["kappa_d2"])
    ct_unit = gap_constant(n, p, replace(x["consts"], c0_np=1.0))
    ct = (1 + s_star) * math.exp(a * (delta - 1) / delta)
    consts = replace(x["consts"], c0_np=ct_unit / ct)
    lo, hi = (con.oneform_gap_lower_bound(_scaled_budget(x, riem_d2=s_star ** 2 * f), consts)
              for f in (1 - 1e-11, 1 + 1e-11))
    assert lo == pytest.approx(math.exp(-a), rel=1e-9)
    assert hi == pytest.approx(lo, rel=1e-9)


# -- Li-Yau threshold and predicate -------------------------------------------

def test_li_yau_predicate_boundary_and_threshold():
    assert con.li_yau_predicate(1.0, 1.0, 0.0, 1.0) is True    # equality counts
    assert con.li_yau_predicate(0.1, 1.0, 0.0, 1.0) is False
    # lambda1 = 0.5, D = 1, c = 1: predicate iff kappa >= (ln 2)^2
    threshold = math.log(2.0) ** 2
    assert con.li_yau_predicate(0.5, 1.0, threshold * 1.01, 1.0) is True
    assert con.li_yau_predicate(0.5, 1.0, threshold * 0.99, 1.0) is False


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_li_yau_at_a_huge_diameter(kappa):
    # sqrt(kappa) * D and D * D in place of sqrt(kappa D^2) and D ** 2
    assert con.li_yau_threshold(1e200, kappa, 1.0) == (0.0 if kappa else 1.0)
    assert con.li_yau_predicate(1.0, 1e200, kappa, 1.0) is True


# -- type validation ---------------------------------------------------------------

def test_budget_validation():
    with pytest.raises(ValueError):
        budget(diameter=0.0)
    with pytest.raises(ValueError):
        budget(kappa=-1.0)
    with pytest.raises(ValueError):
        budget(riem=-0.5)


def test_abstract_constants_validation():
    with pytest.raises(ValueError):
        AbstractConstants(c_n=0.0)
    with pytest.raises(ValueError):
        AbstractConstants(c0_np=-1.0)


@pytest.mark.parametrize("field", ["diameter", "kappa", "p", "riem"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_budget_rejects_non_finite(field, value):
    name = {"p": "p_exponent", "riem": "riem_2p"}.get(field, field)
    with pytest.raises(ValueError, match=rf"^{name} must be .* and finite, got"):
        budget(**{field: value})


@pytest.mark.parametrize("field", ["c_n", "c_np", "c0_np"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_abstract_constants_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be strictly positive and finite"):
        AbstractConstants(**{field: value})


@pytest.mark.parametrize("consts", [AbstractConstants(c0_np=1e-300),
                                    AbstractConstants(c0_np=1e-320),
                                    AbstractConstants(c_np=1e-300, c0_np=1e-10)],
                         ids=["c0_np_tiny", "ct_infinite", "c_np_tiny"])
def test_gap_branch_overflow_is_a_value_error(consts):
    # branch1 = (Ct/(1+s) e^-a)^8 leaves the double range once Ct > ~1e38
    with pytest.raises(ValueError, match=rf"^c0_np {consts.c0_np!r} and c_np {consts.c_np!r} "
                                         r"give the gap constant Ct=.*overflows"):
        con.oneform_gap_branches(budget(dim=4, p=4.0), consts)
    assert con.oneform_gap_lower_bound(budget(dim=4, p=4.0), AbstractConstants(c0_np=1e-30)) > 0


# -- NaN and infinity refused by name -------------------------------------------

@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_moser_product_bound_refuses_a_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match=f"gamma must exceed 1 .*got {gamma}"):
        con.moser_product_bound(1.0, gamma)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_moser_product_converged_refuses_a_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match=f"gamma must exceed 1 .*got {gamma}"):
        con.moser_product_converged(1.0, gamma)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_epsilon_threshold_refuses_a_non_finite_eigenvalue(lam):
    with pytest.raises(ValueError, match=f"eigenvalue must be nonnegative .*got {lam}"):
        con.epsilon_threshold(budget(), lam)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_li_yau_threshold_refuses_a_non_finite_c(c):
    with pytest.raises(ValueError, match=f"c must be positive .*got {c}"):
        con.li_yau_threshold(1.0, 0.0, c)


@pytest.mark.parametrize("lambda1", [math.nan, math.inf, -1.0])
def test_li_yau_predicate_refuses_an_eigenvalue_out_of_range(lambda1):
    with pytest.raises(ValueError, match=f"lambda1 must be nonnegative and finite, got {lambda1}"):
        con.li_yau_predicate(lambda1, 1.0, 0.0, 1.0)
