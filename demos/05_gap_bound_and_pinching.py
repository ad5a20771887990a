#!/usr/bin/env python3
"""The pinching mechanism end to end on measured data.

The threshold eps is the sup-norm bound on D |grad theta| at unit L^2 norm;
below 1/2 it forces inf|theta|^2/sup|theta|^2 >= 1 - 2 eps, i.e. a nowhere
vanishing 1-form, impossible when the Euler characteristic is nonzero.  The
flat torus realizes the pinched case through its parallel form; the sphere
reports eps >> 1/2 alongside a vanishing eigenform, as consistency demands.

Run:  python3 demos/05_gap_bound_and_pinching.py
"""

import math

from roughlap.constants import AbstractConstants
from roughlap.mesh import FlatTorus, IcoSphere
from roughlap.verify import ExperimentContext, check_gap_lower_bound, check_pinching

BUDGET = {"dim": 4, "kappa": 0.0, "p_exponent": 4.0}

for manifold in (FlatTorus(2 * math.pi, 2 * math.pi, 24, 24), IcoSphere(1.0, 3)):
    ctx = ExperimentContext(manifold, 0, BUDGET, AbstractConstants())
    print(f"== {manifold} ==")
    pinch = check_pinching(ctx)
    m = pinch.measured
    print(f"  pinching: status={pinch.status}, eps={m['eps']:.4g}, "
          f"rho={m['rho']:.4g}, lambda={m['lambda']:.4g}")
    r = check_gap_lower_bound(ctx).measured
    print(f"  gap bound: sqrt(lambda1)*D = {r['sqrt_lambda1_times_D']:.4f}, "
          f"rhs = {r['rhs']:.4e} ({r['active_branch']}), "
          f"ratio = {r['ratio']:.4g}")
    print()

print("ratios >> 1 are expected: the bound holds at any admissible abstract")
print("constants, and unit constants sit far below the true spectral gap.")
