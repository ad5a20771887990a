"""roughlap: eigenvalue bounds for the connection Laplacian on 1-forms.

A numpy library, with scipy's sparse matrices and eigensolvers, in two halves:

* explicit constants and inequalities (``roughlap.constants``, numpy only) for the
  spectral gap of the connection Laplacian acting on 1-forms of closed
  even-dimensional manifolds with Ricci, diameter, and integral curvature
  control;
* a discrete verification stack -- triangle meshes of model surfaces
  (``roughlap.mesh``), cotan/connection/Hodge Laplacians
  (``roughlap.operators``), certified sparse eigensolves (``roughlap.eigen``),
  closed-form model spectra (``roughlap.spectra``) -- wired into named
  pass/fail checks with JSON/CSV reports (``roughlap.verify``).
"""

from roughlap import constants, eigen, mesh, operators, spectra, verify

__all__ = ["constants", "mesh", "operators", "eigen", "spectra", "verify"]
__version__ = "0.1.0"
