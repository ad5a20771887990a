#!/usr/bin/env python3
"""Composing 1-form spectra of Riemannian products: the 4-dimensional
testbed.  1-forms on M x N split into pullbacks, so eigenvalues are sums of
a 1-form eigenvalue from one factor and a function eigenvalue from the
other.

Run:  python3 demos/06_product_spectra.py
"""

import math

from roughlap import spectra as S

TWO_PI = 2 * math.pi

sphere_fn = S.sphere_function_spectrum(1.0, 14.0)
sphere_1f = S.sphere_oneform_rough_spectrum(1.0, 14.0)
torus_fn = S.torus_function_spectrum(TWO_PI, TWO_PI, 14.0)
torus_1f = S.torus_oneform_rough_spectrum(TWO_PI, TWO_PI, 14.0)

s2xs2 = S.product_oneform_spectrum(sphere_fn, sphere_1f, sphere_fn, sphere_1f, 9.0)
print("S^2 x S^2 (unit factors), 1-form spectrum up to 9:")
for v, m in s2xs2.entries:
    print(f"  {v:>6.3f}  x{m}")
print(f"first positive: {s2xs2.first_positive()} "
      f"(multiplicity {s2xs2.entries[0][1]}), no zero modes: "
      f"{s2xs2.zero_multiplicity()} parallel forms")

t4 = S.product_oneform_spectrum(torus_fn, torus_1f, torus_fn, torus_1f, 5.0)
print(f"\nT^2 x T^2: parallel forms add: zero multiplicity "
      f"{t4.zero_multiplicity()}")

mixed_ab = S.product_oneform_spectrum(sphere_fn, sphere_1f, torus_fn, torus_1f, 8.0)
mixed_ba = S.product_oneform_spectrum(torus_fn, torus_1f, sphere_fn, sphere_1f, 8.0)
print(f"\nS^2 x T^2 == T^2 x S^2 as multisets: {mixed_ab.entries == mixed_ba.entries}")
print("S^2 x T^2 head:", mixed_ab.entries[:4])
