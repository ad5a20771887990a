"""Closed-form spectra of model manifolds and product composition.

These spectra are the oracles for the discrete operators and the
even-dimensional testbed for the gap bound:

* flat torus functions: (2 pi k / lx)^2 + (2 pi m / ly)^2 over the integer
  lattice;
* flat torus 1-forms (connection Laplacian): the function spectrum with
  doubled multiplicities -- the bundle is trivialized by the two parallel
  forms, whose span is the doubled zero eigenvalue;
* round sphere functions: l(l+1)/r^2 with multiplicity 2l+1;
* round sphere 1-forms: the Hodge eigenvalues l(l+1)/r^2 (l >= 1, exact and
  coexact copies) shifted down by the Gauss curvature 1/r^2 -- the same
  curvature identity the discrete Weitzenboeck check verifies -- so
  (l(l+1)-1)/r^2 with multiplicity 2(2l+1) and no zero eigenvalue;
* products: 1-forms on M x N split into pullbacks from each factor, so the
  eigenvalues are sums {1-form of M + function of N} and {function of M +
  1-form of N} with multiplied multiplicities.

Every spectrum is truncated at an explicit cutoff with the guarantee that
all eigenvalues <= cutoff are present, which keeps product compositions
complete below the requested cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "AnalyticSpectrum",
    "torus_function_spectrum",
    "torus_oneform_rough_spectrum",
    "sphere_function_spectrum",
    "sphere_oneform_rough_spectrum",
    "product_oneform_spectrum",
]

_MERGE_REL = 1e-12


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Ascending (eigenvalue, multiplicity) list, complete up to ``cutoff``."""

    entries: tuple[tuple[float, int], ...]
    form_degree: int
    manifold: str
    cutoff: float

    def __post_init__(self) -> None:
        vals = [v for v, _ in self.entries]
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues must be ascending")
        if any(m < 1 for _, m in self.entries):
            raise ValueError("multiplicities must be >= 1")

    def values(self) -> list[float]:
        """Eigenvalues expanded with multiplicity."""
        out: list[float] = []
        for v, m in self.entries:
            out.extend([v] * m)
        return out

    def first_positive(self) -> float | None:
        for v, _ in self.entries:
            if v > 0.0:
                return v
        return None

    def zero_multiplicity(self) -> int:
        for v, m in self.entries:
            if v == 0.0:
                return m
            if v > 0.0:
                break
        return 0


def _aggregate(values_mults, form_degree: int, manifold: str,
               cutoff: float) -> AnalyticSpectrum:
    pairs = sorted(values_mults)
    merged: list[list] = []
    for v, m in pairs:
        if merged and v - merged[-1][0] <= _MERGE_REL * max(1.0, abs(v)):
            merged[-1][1] += m
        else:
            merged.append([v, m])
    entries = tuple((float(v), int(m)) for v, m in merged)
    return AnalyticSpectrum(entries=entries, form_degree=form_degree,
                            manifold=manifold, cutoff=cutoff)


def torus_function_spectrum(lx: float, ly: float, cutoff: float) -> AnalyticSpectrum:
    """Flat-torus Laplacian on functions, truncated at ``cutoff``."""
    if lx <= 0 or ly <= 0:
        raise ValueError("torus side lengths must be positive")
    tag = f"torus({lx:g}x{ly:g})"
    if cutoff < 0:
        return AnalyticSpectrum((), 0, tag, cutoff)
    kx = 2.0 * math.pi / lx
    ky = 2.0 * math.pi / ly
    kmax = int(math.floor(math.sqrt(cutoff) / kx)) + 1
    mmax = int(math.floor(math.sqrt(cutoff) / ky)) + 1
    raw = []
    for k in range(-kmax, kmax + 1):
        for m in range(-mmax, mmax + 1):
            val = (kx * k) ** 2 + (ky * m) ** 2
            if val <= cutoff * (1.0 + 1e-12):
                raw.append((val, 1))
    return _aggregate(raw, 0, tag, cutoff)


def torus_oneform_rough_spectrum(lx: float, ly: float, cutoff: float) -> AnalyticSpectrum:
    """Flat-torus connection Laplacian on 1-forms: function spectrum doubled.

    The zero eigenvalue has multiplicity 2 (the parallel coordinate forms),
    matching both the first Betti number and dim ker of the connection.
    """
    base = torus_function_spectrum(lx, ly, cutoff)
    entries = tuple((v, 2 * m) for v, m in base.entries)
    return AnalyticSpectrum(entries, 1, base.manifold, cutoff)


def sphere_function_spectrum(radius: float, cutoff: float) -> AnalyticSpectrum:
    """Round-sphere Laplacian on functions: l(l+1)/r^2, multiplicity 2l+1."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    tag = f"sphere(r={radius:g})"
    entries = []
    l = 0
    while True:
        val = l * (l + 1) / radius ** 2
        if val > cutoff * (1.0 + 1e-12):
            break
        entries.append((val, 2 * l + 1))
        l += 1
    return AnalyticSpectrum(tuple(entries), 0, tag, cutoff)


def sphere_oneform_rough_spectrum(radius: float, cutoff: float) -> AnalyticSpectrum:
    """Round-sphere connection Laplacian on 1-forms.

    Curvature shift of the Hodge spectrum: (l(l+1) - 1)/r^2 for l >= 1 with
    multiplicity 2(2l+1).  No zero eigenvalue: the sphere has no parallel
    1-forms (its Euler characteristic is nonzero).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    tag = f"sphere(r={radius:g})"
    entries = []
    l = 1
    while True:
        val = (l * (l + 1) - 1) / radius ** 2
        if val > cutoff * (1.0 + 1e-12):
            break
        entries.append((val, 2 * (2 * l + 1)))
        l += 1
    return AnalyticSpectrum(tuple(entries), 1, tag, cutoff)


def product_oneform_spectrum(m0: AnalyticSpectrum, m1: AnalyticSpectrum,
                             n0: AnalyticSpectrum, n1: AnalyticSpectrum,
                             cutoff: float) -> AnalyticSpectrum:
    """1-form spectrum of a Riemannian product from its factor spectra.

    m0/n0 are the factors' function spectra, m1/n1 their 1-form spectra.
    Eigenvalues are all sums from {m1 + n0} and {m0 + n1} with multiplied
    multiplicities.  Factor cutoffs must reach ``cutoff`` so the result is
    complete below it.
    """
    for spec, want in ((m0, 0), (m1, 1), (n0, 0), (n1, 1)):
        if spec.form_degree != want:
            raise ValueError(
                f"degree mismatch: {spec.manifold} has degree {spec.form_degree}, need {want}")
    for spec in (m0, m1, n0, n1):
        if spec.cutoff < cutoff:
            raise ValueError(
                f"factor cutoff {spec.cutoff} below requested cutoff {cutoff}")
    raw = []
    for one, zero in ((m1, n0), (n1, m0)):
        for v1, mult1 in one.entries:
            for v0, mult0 in zero.entries:
                s = v1 + v0
                if s <= cutoff * (1.0 + 1e-12):
                    raw.append((s, mult1 * mult0))
    tag = f"({m0.manifold}) x ({n0.manifold})"
    return _aggregate(raw, 1, tag, cutoff)
