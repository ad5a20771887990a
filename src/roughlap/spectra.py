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
  (l(l+1)-1)/r^2 with multiplicity 2(2l+1) and no zero eigenvalue; the
  torus is the same rule (``_rough_oneform_spectrum``) at K = 0, b1 = 2;
* products: 1-forms on M x N split into pullbacks from each factor, so the
  eigenvalues are sums {1-form of M + function of N} and {function of M +
  1-form of N} with multiplied multiplicities.

A spectrum is two arrays, ascending ``eigenvalues`` and their ``multiplicities``
(``entries`` pairs them).  Each closed form is one array expression handed to
``_table``, which keeps every value <= cutoff (so products stay complete below
theirs) and merges runs of neighbours within ``_MERGE_REL``.  A non-finite cutoff,
a radius or side not positive with a finite nonzero square, or a table (a
product's too) beyond ``_MAX_TABLE`` values raises a ValueError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticSpectrum",
    "torus_function_spectrum",
    "torus_oneform_rough_spectrum",
    "sphere_function_spectrum",
    "sphere_oneform_rough_spectrum",
    "product_oneform_spectrum",
]

_MERGE_REL = 1e-12
_MAX_TABLE = 2 ** 20  # values one closed-form table may enumerate


@dataclass(frozen=True, eq=False)
class AnalyticSpectrum:
    """Ascending eigenvalues (distinct in a closed form, one per solved value when
    measured) and their multiplicities, complete up to ``cutoff``; equal when their
    arrays and labels are."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    form_degree: int
    manifold: str
    cutoff: float

    def __post_init__(self) -> None:
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")
        if np.any(self.multiplicities < 1):
            raise ValueError("multiplicities must be >= 1")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AnalyticSpectrum)
                and np.array_equal(self.eigenvalues, other.eigenvalues)
                and np.array_equal(self.multiplicities, other.multiplicities)
                and (self.form_degree, self.manifold, self.cutoff)
                == (other.form_degree, other.manifold, other.cutoff))

    @property
    def entries(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self.eigenvalues.tolist(), self.multiplicities.tolist()))

    def values(self) -> list[float]:
        """Eigenvalues expanded with multiplicity."""
        return np.repeat(self.eigenvalues, self.multiplicities).tolist()

    def first_positive(self) -> float | None:
        positive = self.eigenvalues[self.eigenvalues > 0.0]
        return float(positive[0]) if positive.size else None

    def zero_multiplicity(self) -> int:
        """Summed over every zero entry: a measured spectrum keeps one entry per value."""
        return int(self.multiplicities[self.eigenvalues == 0.0].sum())


def _table(values, multiplicities, form_degree: int, manifold: str,
           cutoff: float) -> AnalyticSpectrum:
    """The values (any shape, with multiplicities of the same) <= cutoff * (1 + 1e-12),
    ascending, each run of neighbours within ``_MERGE_REL`` merged into its first."""
    values, mults = np.ravel(values), np.ravel(multiplicities)
    kept = np.flatnonzero(values <= cutoff * (1.0 + 1e-12))
    kept = kept[np.argsort(values[kept])]
    values, mults = values[kept], mults[kept]
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > _MERGE_REL * np.abs(values))
    return AnalyticSpectrum(values[starts], np.add.reduceat(mults, starts),
                            form_degree, manifold, cutoff)


def _root(cutoff: float, **lengths: float) -> float:
    """sqrt(cutoff * (1 + 1e-12)), the reach of ``_table``'s rule (0 below zero), for
    a finite cutoff and lengths that are positive with a finite nonzero square."""
    for name, x in lengths.items():
        if not (x > 0 and 0 < x * x < math.inf):
            raise ValueError(f"{name} must be positive with a finite nonzero square, got {x}")
    if not abs(cutoff) < math.inf:
        raise ValueError(f"cutoff must be finite, got {cutoff}")
    return math.sqrt(max(cutoff * (1.0 + 1e-12), 0.0))


def _sized(what: str, size: float) -> None:
    if not size <= _MAX_TABLE:
        raise ValueError(f"{what} needs {size:.3g} table values, above the limit of 2**20")


def _indices(what: str, *reaches: float) -> list[np.ndarray]:
    """0..floor(reach) per axis, refused beyond a table of ``_MAX_TABLE`` values."""
    _sized(what, math.prod(reach + 1.0 for reach in reaches))
    return [np.arange(math.floor(reach) + 1) for reach in reaches]


def torus_function_spectrum(lx: float, ly: float, cutoff: float) -> AnalyticSpectrum:
    """Flat-torus Laplacian on functions, truncated at ``cutoff``."""
    root = _root(cutoff, lx=lx, ly=ly)
    tag = f"torus({lx:g}x{ly:g})"
    kx, ky = 2.0 * math.pi / lx, 2.0 * math.pi / ly
    k, m = _indices(f"{tag} at cutoff {cutoff:g}", root / kx, root / ky)
    signs = [np.where(i > 0, 2, 1) for i in (k, m)]  # index i > 0 stands for +-i
    return _table(np.add.outer((kx * k) ** 2, (ky * m) ** 2), np.multiply.outer(*signs),
                  0, tag, cutoff)


def _rough_oneform_spectrum(functions: AnalyticSpectrum, curvature: float, b1: int,
                            cutoff: float) -> AnalyticSpectrum:
    """Rough 1-forms of a curvature-K surface, Hodge minus K (Weitzenboeck): b1
    harmonic forms, and exact and coexact copies (2m) of each positive function
    eigenvalue mu (multiplicity m).  ``functions`` must reach ``cutoff`` + K."""
    mults = np.where(functions.eigenvalues > 0.0, 2 * functions.multiplicities, b1)
    kept = mults > 0  # the constants' entry carries the b1 harmonic forms
    return _table((functions.eigenvalues - curvature)[kept], mults[kept],  # 0.0 - 0.0 is +0.0
                  1, functions.manifold, cutoff)


def torus_oneform_rough_spectrum(lx: float, ly: float, cutoff: float) -> AnalyticSpectrum:
    """Flat-torus connection Laplacian on 1-forms: K = 0 and b1 = 2 (the parallel
    coordinate forms, dim ker of the connection), so the function spectrum doubled."""
    return _rough_oneform_spectrum(torus_function_spectrum(lx, ly, cutoff), 0.0, 2, cutoff)


def sphere_function_spectrum(radius: float, cutoff: float) -> AnalyticSpectrum:
    """Round-sphere Laplacian on functions: l(l+1)/r^2, multiplicity 2l+1, read for
    l <= sqrt(cutoff) r, as l^2 <= l(l+1)."""
    tag = f"sphere(r={radius:g})"
    (l,) = _indices(f"{tag} at cutoff {cutoff:g}", _root(cutoff, radius=radius) * radius)
    return _table(l * (l + 1) / radius ** 2, 2 * l + 1, 0, tag, cutoff)


def sphere_oneform_rough_spectrum(radius: float, cutoff: float) -> AnalyticSpectrum:
    """Round-sphere connection Laplacian on 1-forms: K = 1/r^2 and b1 = 0, so
    (l(l+1) - 1)/r^2 for l >= 1 with multiplicity 2(2l+1) and no zero eigenvalue."""
    _root(cutoff, radius=radius)  # before r^2 is formed
    curvature = 1.0 / radius ** 2
    # rough values are >= K: no read past 2 * cutoff is needed, and that ends it if K overflows
    functions = sphere_function_spectrum(radius, min(cutoff + curvature, 2.0 * cutoff))
    return _rough_oneform_spectrum(functions, curvature, 0, cutoff)


def product_oneform_spectrum(m0: AnalyticSpectrum, m1: AnalyticSpectrum,
                             n0: AnalyticSpectrum, n1: AnalyticSpectrum,
                             cutoff: float) -> AnalyticSpectrum:
    """1-form spectrum of a Riemannian product from its factor spectra.

    m0/n0 are the factors' function spectra, m1/n1 their 1-form spectra.
    Eigenvalues are all sums from {m1 + n0} and {m0 + n1} with multiplied
    multiplicities.  Factor cutoffs must reach ``cutoff`` so the result is
    complete below it.
    """
    _root(cutoff)  # refuses a non-finite cutoff
    for spec, want in ((m0, 0), (m1, 1), (n0, 0), (n1, 1)):
        if spec.form_degree != want:
            raise ValueError(
                f"degree mismatch: {spec.manifold} has degree {spec.form_degree}, need {want}")
        if spec.cutoff < cutoff:
            raise ValueError(f"factor cutoff {spec.cutoff} below requested cutoff {cutoff}")
    pairs = ((m1, n0), (n1, m0))
    tag = f"({m0.manifold}) x ({n0.manifold})"
    _sized(f"{tag} at cutoff {cutoff:g}", sum(one.eigenvalues.size * zero.eigenvalues.size
                                               for one, zero in pairs))
    values = [np.add.outer(one.eigenvalues, zero.eigenvalues) for one, zero in pairs]
    mults = [np.multiply.outer(one.multiplicities, zero.multiplicities) for one, zero in pairs]
    return _table(np.concatenate(values, axis=None), np.concatenate(mults, axis=None),
                  1, tag, cutoff)
