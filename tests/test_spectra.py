"""Analytic spectra: lattice counting oracle, scaling, products."""

import contextlib
import math
import signal

import numpy as np
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


def _per_l_sphere_oneform(r, cutoff):
    """(l(l+1) - 1)/r^2 with multiplicity 2(2l+1), l >= 1, as a per-l loop."""
    entries, l = [], 1
    while (l * (l + 1) - 1) / r ** 2 <= cutoff * (1.0 + 1e-12):
        entries.append(((l * (l + 1) - 1) / r ** 2, 2 * (2 * l + 1)))
        l += 1
    return tuple(entries)


@pytest.mark.parametrize("r", [1.0, 2.0, 0.5, 3.0, 1.7])
@pytest.mark.parametrize("cutoff", [0.5, 5.0, 12.0, 40.0])
def test_weitzenboeck_rule_matches_the_per_l_sphere_formula(r, cutoff):
    # the one rule subtracts K from l(l+1)/r^2: exact where r^2 is a power of
    # two, within one rounding of the per-l quotient otherwise
    got = S.sphere_oneform_rough_spectrum(r, cutoff).entries
    want = _per_l_sphere_oneform(r, cutoff)
    assert [m for _, m in got] == [m for _, m in want]
    if math.log2(r).is_integer():
        assert got == want
    for (v, _), (w, _) in zip(got, want):
        assert abs(v - w) <= math.ulp(w)


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, 0.5, 5.0, 40.0])
def test_weitzenboeck_rule_matches_the_doubled_torus_functions(cutoff):
    # K = 0 and b1 = 2: the function spectrum doubled, its zero kept at +0.0
    got = S.torus_oneform_rough_spectrum(TWO_PI, 3.1, cutoff).entries
    want = tuple((v, 2 * m) for v, m in S.torus_function_spectrum(TWO_PI, 3.1, cutoff).entries)
    assert got == want
    assert all(math.copysign(1.0, v) == 1.0 for v, _ in got)


@pytest.mark.parametrize("r", [1e-160, 1e-155, 1.3e-154, 2e-154, 1e-100])
def test_sphere_oneform_at_an_overflowing_curvature_is_empty(r):
    # K = 1/r^2 overflows below about 1.3e-154; the read of the function
    # spectrum stays finite, and no rough value is below the cutoff
    assert S.sphere_oneform_rough_spectrum(r, 5.0).entries == ()


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


# -- the array tables against the per-element loops they replace -------------

CUTOFFS = [-1.0, 0.0, 0.5, 5.0, 12.0, 40.0]
RADII = [1.0, 2.0, 0.5, 3.0, 1.7]
TORI = [(TWO_PI, TWO_PI), (TWO_PI, 3.1), (math.sqrt(2.0) * math.pi, math.e)]
SLACK = 1.0 + 1e-12


def _loop_aggregate(pairs):
    """Sort, then merge each value within 1e-12 of its run's first value."""
    merged = []
    for v, m in sorted(pairs):
        if merged and v - merged[-1][0] <= 1e-12 * abs(v):
            merged[-1][1] += m
        else:
            merged.append([v, m])
    return tuple((float(v), int(m)) for v, m in merged)


def _loop_torus(lx, ly, cutoff):
    if cutoff < 0:
        return ()
    kx, ky = TWO_PI / lx, TWO_PI / ly
    kmax = int(math.floor(math.sqrt(cutoff) / kx)) + 1
    mmax = int(math.floor(math.sqrt(cutoff) / ky)) + 1
    raw = []
    for k in range(-kmax, kmax + 1):
        for m in range(-mmax, mmax + 1):
            val = (kx * k) ** 2 + (ky * m) ** 2
            if val <= cutoff * SLACK:
                raw.append((val, 1))
    return _loop_aggregate(raw)


def _loop_sphere(r, cutoff):
    entries, l = [], 0
    while l * (l + 1) / r ** 2 <= cutoff * SLACK:
        entries.append((l * (l + 1) / r ** 2, 2 * l + 1))
        l += 1
    return tuple(entries)


def _loop_rough(functions, curvature, b1, cutoff):
    entries = [(0.0 - curvature, b1)] if b1 else []
    entries += [(mu - curvature, 2 * m) for mu, m in functions if mu > 0.0]
    return tuple((v, m) for v, m in entries if v <= cutoff * SLACK)


def _loop_sphere_rough(r, cutoff):
    curvature = 1.0 / r ** 2
    return _loop_rough(_loop_sphere(r, min(cutoff + curvature, 2.0 * cutoff)), curvature, 0,
                       cutoff)


def _loop_product(m0, m1, n0, n1, cutoff):
    raw = []
    for one, zero in ((m1, n0), (n1, m0)):
        for v1, mult1 in one:
            for v0, mult0 in zero:
                if v1 + v0 <= cutoff * SLACK:
                    raw.append((v1 + v0, mult1 * mult0))
    return _loop_aggregate(raw)


def _assert_table(got, want, exact):
    """Equal entries where the arithmetic is the loops' own; where the table squares
    with numpy (correctly rounded) and the loops with ``**`` (libm pow), equal
    multiplicities and values within 2 ulps (every table here agrees bitwise)."""
    if exact:
        assert got == want
    assert [m for _, m in got] == [m for _, m in want]
    for (v, _), (w, _) in zip(got, want):
        assert abs(v - w) <= 2 * math.ulp(w)


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("r", RADII)
def test_sphere_tables_equal_the_per_l_loops(r, cutoff):
    assert S.sphere_function_spectrum(r, cutoff).entries == _loop_sphere(r, cutoff)
    assert S.sphere_oneform_rough_spectrum(r, cutoff).entries == _loop_sphere_rough(r, cutoff)


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("lx, ly", TORI)
def test_torus_tables_equal_the_lattice_loops(lx, ly, cutoff):
    functions = _loop_torus(lx, ly, cutoff)
    exact = lx == ly == TWO_PI  # integer squares
    _assert_table(S.torus_function_spectrum(lx, ly, cutoff).entries, functions, exact)
    _assert_table(S.torus_oneform_rough_spectrum(lx, ly, cutoff).entries,
                  _loop_rough(functions, 0.0, 2, cutoff), exact)


def _sphere_factor(cutoff):
    return (S.sphere_function_spectrum(1.0, cutoff), S.sphere_oneform_rough_spectrum(1.0, cutoff),
            _loop_sphere(1.0, cutoff), _loop_sphere_rough(1.0, cutoff))


def _torus_factor(cutoff):
    functions = _loop_torus(TWO_PI, 3.1, cutoff)
    return (S.torus_function_spectrum(TWO_PI, 3.1, cutoff),
            S.torus_oneform_rough_spectrum(TWO_PI, 3.1, cutoff),
            functions, _loop_rough(functions, 0.0, 2, cutoff))


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("first, second", [(_sphere_factor, _sphere_factor),
                                           (_torus_factor, _torus_factor),
                                           (_sphere_factor, _torus_factor),
                                           (_torus_factor, _sphere_factor)])
def test_product_tables_equal_the_nested_loops(first, second, cutoff):
    m0, m1, loop_m0, loop_m1 = first(cutoff)
    n0, n1, loop_n0, loop_n1 = second(cutoff)
    got = S.product_oneform_spectrum(m0, m1, n0, n1, cutoff)
    _assert_table(got.entries, _loop_product(loop_m0, loop_m1, loop_n0, loop_n1, cutoff),
                  exact=first is second is _sphere_factor)


def test_spectra_compare_by_their_arrays():
    a = S.sphere_oneform_rough_spectrum(1.0, 12.0)
    assert a == S.sphere_oneform_rough_spectrum(1.0, 12.0)
    assert a != S.sphere_oneform_rough_spectrum(1.0, 5.0)  # shorter arrays
    assert a != S.AnalyticSpectrum(a.eigenvalues, a.multiplicities + 1, 1, a.manifold, 12.0)
    assert a != S.AnalyticSpectrum(a.eigenvalues, a.multiplicities, 0, a.manifold, 12.0)
    assert a != a.entries
    assert isinstance(a.eigenvalues, np.ndarray) and isinstance(a.multiplicities, np.ndarray)


def test_spectrum_refuses_descending_values_and_nonpositive_multiplicities():
    with pytest.raises(ValueError, match="ascending"):
        S.AnalyticSpectrum(np.array([1.0, 0.5]), np.array([1, 1]), 0, "x", 1.0)
    with pytest.raises(ValueError, match="multiplicities"):
        S.AnalyticSpectrum(np.array([0.5, 1.0]), np.array([1, 0]), 0, "x", 1.0)
    measured = S.AnalyticSpectrum(np.array([0.0, 0.0, 2.0]), np.full(3, 2), 1, "x", 2.0)
    assert measured.zero_multiplicity() == 4 and measured.first_positive() == 2.0


def test_merging_chains_neighbours_within_the_tolerance():
    # each neighbour is within _MERGE_REL of the next, so the run is one entry
    # kept at its first value
    v = 1.0 + np.arange(4) * 0.9e-12
    spec = S._table(v, np.ones(4, dtype=np.int64), 0, "x", 2.0)
    assert spec.entries == ((1.0, 4),)


# -- the domain contract: refused at once, naming the input --------------------

@contextlib.contextmanager
def _within(seconds):
    """Fail, rather than hang, when the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"no answer within {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


NAN, INF = math.nan, math.inf


OUT_OF_DOMAIN = [
    (S.sphere_function_spectrum, (NAN, 5.0), "radius"),
    (S.sphere_oneform_rough_spectrum, (INF, 5.0), "radius"),
    (S.sphere_function_spectrum, (1.0, INF), "cutoff"),
    (S.sphere_oneform_rough_spectrum, (1.0, NAN), "cutoff"),
    (S.sphere_function_spectrum, (1e-170, 5.0), "radius"),
    (S.sphere_oneform_rough_spectrum, (1e-170, 5.0), "radius"),
    (S.sphere_function_spectrum, (1e160, 5.0), "radius"),
    (S.sphere_oneform_rough_spectrum, (1e160, 5.0), "radius"),
    (S.sphere_function_spectrum, (1e10, 5.0), r"sphere\(r=1e\+10\) at cutoff 5 .*2\*\*20"),
    (S.torus_function_spectrum, (NAN, 1.0, 5.0), "lx"),
    (S.torus_function_spectrum, (INF, 1.0, 5.0), "lx"),
    (S.torus_function_spectrum, (1.0, -1.0, 5.0), "ly"),
    (S.torus_oneform_rough_spectrum, (1e-170, 1.0, 5.0), "lx"),
    (S.torus_oneform_rough_spectrum, (1.0, 1e160, 5.0), "ly"),
    (S.torus_function_spectrum, (1.0, 1.0, NAN), "cutoff"),
    (S.torus_function_spectrum, (1.0, 1e10, 5.0), r"torus\(1x1e\+10\) at cutoff 5 .*2\*\*20"),
    (S.torus_function_spectrum, (1.0, 1.0, 1e300), r"at cutoff 1e\+300 .*2\*\*20"),
]


@pytest.mark.parametrize("fn, args, match", OUT_OF_DOMAIN,
                         ids=[f"{fn.__name__}{args}" for fn, args, _ in OUT_OF_DOMAIN])
def test_out_of_domain_input_is_refused_at_once(fn, args, match):
    with _within(1), pytest.raises(ValueError, match=match):
        fn(*args)


def test_product_refuses_a_non_finite_cutoff():
    fn = S.sphere_function_spectrum(1.0, 10.0)
    one = S.sphere_oneform_rough_spectrum(1.0, 10.0)
    with pytest.raises(ValueError, match="cutoff"):
        S.product_oneform_spectrum(fn, one, fn, one, NAN)


@pytest.mark.parametrize("r", [1e-160, 1e-100])
def test_tiny_sphere_keeps_its_constant_mode(r):
    assert S.sphere_function_spectrum(r, 5.0).entries == ((0.0, 1),)


def test_product_refuses_a_table_too_long_to_enumerate():
    # two 57,445-entry torus tables would make 6.6e9 sums (49 GiB of values)
    fn = S.torus_function_spectrum(TWO_PI, TWO_PI, 2.5e5)
    one = S.torus_oneform_rough_spectrum(TWO_PI, TWO_PI, 2.5e5)
    with _within(1), pytest.raises(ValueError, match=r"at cutoff 250000 needs .*2\*\*20"):
        S.product_oneform_spectrum(fn, one, fn, one, 2.5e5)
