"""Analytic spectra: lattice counting oracle, scaling, products."""

import math

import pytest

from roughlap import spectra as S

TWO_PI = 2 * math.pi


def brute_force_torus(lx, ly, cutoff, kmax=60):
    """Independent lattice enumeration with naive aggregation."""
    counts = {}
    for k in range(-kmax, kmax + 1):
        for m in range(-kmax, kmax + 1):
            val = (TWO_PI * k / lx) ** 2 + (TWO_PI * m / ly) ** 2
            if val <= cutoff + 1e-9:
                key = round(val, 9)
                counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def test_torus_function_against_bruteforce():
    spec = S.torus_function_spectrum(TWO_PI, TWO_PI, 25.0)
    oracle = brute_force_torus(TWO_PI, TWO_PI, 25.0)
    assert len(spec.entries) == len(oracle)
    for (v, m), (ov, om) in zip(spec.entries, oracle):
        assert v == pytest.approx(ov, abs=1e-9)
        assert m == om


def test_torus_function_irrational_sides():
    spec = S.torus_function_spectrum(TWO_PI, 3.1, 20.0)
    oracle = brute_force_torus(TWO_PI, 3.1, 20.0)
    assert [m for _, m in spec.entries] == [m for _, m in oracle]


def test_torus_function_first_entries():
    spec = S.torus_function_spectrum(TWO_PI, TWO_PI, 10.0)
    assert spec.entries[0] == (0.0, 1)
    assert spec.entries[1] == (1.0, 4)
    assert spec.entries[2] == (2.0, 4)


def test_torus_scaling():
    base = S.torus_function_spectrum(TWO_PI, TWO_PI, 10.0)
    scaled = S.torus_function_spectrum(2 * TWO_PI, 2 * TWO_PI, 2.5)
    for (v, m), (sv, sm) in zip(base.entries, scaled.entries):
        assert sv == pytest.approx(v / 4.0, abs=1e-12)
        assert sm == m


def test_torus_negative_cutoff_empty():
    assert S.torus_function_spectrum(TWO_PI, TWO_PI, -1.0).entries == ()


def test_torus_oneform_doubles():
    fn = S.torus_function_spectrum(TWO_PI, TWO_PI, 10.0)
    one = S.torus_oneform_rough_spectrum(TWO_PI, TWO_PI, 10.0)
    assert one.form_degree == 1
    assert one.zero_multiplicity() == 2
    assert one.first_positive() == 1.0
    for (v, m), (ov, om) in zip(fn.entries, one.entries):
        assert ov == v and om == 2 * m


def test_sphere_function_entries():
    spec = S.sphere_function_spectrum(1.0, 10.0)
    assert spec.entries == ((0.0, 1), (2.0, 3), (6.0, 5))
    spec2 = S.sphere_function_spectrum(2.0, 3.0)
    assert spec2.entries == ((0.0, 1), (0.5, 3), (1.5, 5), (3.0, 7))
    only_zero = S.sphere_function_spectrum(1.0, 1.0)
    assert only_zero.entries == ((0.0, 1),)


def test_sphere_oneform_entries():
    spec = S.sphere_oneform_rough_spectrum(1.0, 12.0)
    assert spec.entries == ((1.0, 6), (5.0, 10), (11.0, 14))
    assert spec.zero_multiplicity() == 0
    assert spec.first_positive() == 1.0
    # gap scales like 1/r^2; with diameter pi*r the product is pi^2
    r = 2.0
    gap = S.sphere_oneform_rough_spectrum(r, 5.0).first_positive()
    assert gap * (math.pi * r) ** 2 == pytest.approx(math.pi ** 2, rel=1e-12)


def test_sphere_domain_errors():
    with pytest.raises(ValueError):
        S.sphere_function_spectrum(0.0, 1.0)
    with pytest.raises(ValueError):
        S.sphere_oneform_rough_spectrum(-1.0, 1.0)


def test_product_s2xs2():
    fn = S.sphere_function_spectrum(1.0, 10.0)
    one = S.sphere_oneform_rough_spectrum(1.0, 10.0)
    prod = S.product_oneform_spectrum(fn, one, fn, one, 8.0)
    assert prod.first_positive() == 1.0
    assert prod.entries[0] == (1.0, 12)
    assert prod.zero_multiplicity() == 0


def test_product_t2xt2_parallel_forms():
    fn = S.torus_function_spectrum(TWO_PI, TWO_PI, 6.0)
    one = S.torus_oneform_rough_spectrum(TWO_PI, TWO_PI, 6.0)
    prod = S.product_oneform_spectrum(fn, one, fn, one, 5.0)
    assert prod.zero_multiplicity() == 4
    zero_only = S.product_oneform_spectrum(fn, one, fn, one, 0.0)
    assert zero_only.entries == ((0.0, 4),)


def test_product_commutes_as_multiset():
    sfn = S.sphere_function_spectrum(1.0, 9.0)
    sone = S.sphere_oneform_rough_spectrum(1.0, 9.0)
    tfn = S.torus_function_spectrum(TWO_PI, TWO_PI, 9.0)
    tone = S.torus_oneform_rough_spectrum(TWO_PI, TWO_PI, 9.0)
    ab = S.product_oneform_spectrum(sfn, sone, tfn, tone, 7.0)
    ba = S.product_oneform_spectrum(tfn, tone, sfn, sone, 7.0)
    assert ab.entries == ba.entries


def test_product_errors():
    fn = S.sphere_function_spectrum(1.0, 10.0)
    one = S.sphere_oneform_rough_spectrum(1.0, 10.0)
    with pytest.raises(ValueError):
        S.product_oneform_spectrum(one, one, fn, one, 5.0)  # degree mismatch
    with pytest.raises(ValueError):
        S.product_oneform_spectrum(fn, one, fn, one, 20.0)  # cutoff too deep


def test_parallel_form_count_function_spectra():
    fn = S.sphere_function_spectrum(1.0, 10.0)
    assert fn.zero_multiplicity() == 1  # constants


def test_values_expansion():
    spec = S.sphere_oneform_rough_spectrum(1.0, 6.0)
    vals = spec.values()
    assert vals[:6] == [1.0] * 6
    assert len(vals) == 16
