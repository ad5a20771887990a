"""The output checks accept true outputs and reject perturbed references."""

import dataclasses
import math

import numpy as np
import pytest

import workloads
from roughlap import eigen, mesh, operators
from roughlap.mesh import FlatTorus, IcoSphere

TWO_PI = 2 * math.pi


def perturbed(expected, factor=1.05):
    return dataclasses.replace(expected, first_positive=expected.first_positive * factor)


def test_closed_forms():
    sphere = workloads.closed_form(IcoSphere(1.0, 3))
    torus = workloads.closed_form(FlatTorus(TWO_PI, TWO_PI, 8, 8))
    assert (sphere.first_positive, sphere.multiplicity, sphere.kernel) == (1.0, 6, 0)
    assert (torus.first_positive, torus.multiplicity, torus.kernel) == (1.0, 8, 2)


@pytest.mark.parametrize("manifold", [IcoSphere(1.0, 2), FlatTorus(TWO_PI, TWO_PI, 24, 24)])
def test_cluster_check_on_computed_spectrum(manifold):
    surface = mesh.build_mesh(manifold)
    op, mass = operators.connection_laplacian_1forms(surface,
                                                     operators.build_connection(surface))
    result = eigen.smallest_eigenpairs(op, mass, eigen.SolverConfig(k=8))
    values = np.repeat(result.values, 2)
    zero_tol = workloads.KERNEL_TOL * result.scale
    expected = workloads.closed_form(manifold)

    good = workloads.check_first_cluster(values, zero_tol, expected)
    assert not good.failed and 0 < good.gap_rel_err < workloads.REL_TOL
    bad = workloads.check_first_cluster(values, zero_tol, perturbed(expected))
    assert bad.failed and bad.gap_rel_err > workloads.REL_TOL
    wrong_kernel = dataclasses.replace(expected, kernel=2 - expected.kernel)
    assert workloads.check_first_cluster(values, zero_tol, wrong_kernel).failed


def test_sphere_multiplicity_is_checked():
    expected = workloads.closed_form(IcoSphere(1.0, 3))
    ok = [1.0] * 6 + [5.0] * 4
    assert not workloads.check_first_cluster(ok, 1e-9, expected).failed
    assert workloads.check_first_cluster([1.0] * 4 + [5.0] * 6, 1e-9, expected).failed
    # a cluster cut short by k may be smaller than the closed form, never larger
    assert not workloads.check_first_cluster([1.0] * 4, 1e-9, expected).failed
    assert workloads.check_first_cluster([1.0] * 8, 1e-9, expected).failed


def test_ladder_checks_fail_on_perturbed_reference(tmp_path):
    for name in ("connection_ladder", "hodge_ladder"):
        setup, run_pass, check = workloads.WORKLOADS[name]
        inputs = setup(None, 0, tmp_path)
        inputs["rungs"] = inputs["rungs"][:1]          # the ico s=3 rung only
        outputs = run_pass(inputs)
        assert [r.failed for r in check(inputs, outputs, {})] == [False]
        manifold, expected = inputs["rungs"][0]
        inputs["rungs"] = [(manifold, perturbed(expected))]
        assert [r.failed for r in check(inputs, outputs, {})] == [True]


def test_hodge_check_enforces_weitzenboeck_tolerance():
    inputs = {"rungs": [(IcoSphere(1.0, 3), workloads.closed_form(IcoSphere(1.0, 3)))]}
    rows = [(2.0, 1.0, 1.0, 0.0)] * 6
    assert not workloads.check_hodge(inputs, [rows], {})[0].failed
    rows[-1] = (2.1, 1.0, 1.0, 0.04)
    assert workloads.check_hodge(inputs, [rows], {})[0].failed


def test_raised_operation_counts_as_failed():
    inputs = {"rungs": [(IcoSphere(1.0, 3), workloads.closed_form(IcoSphere(1.0, 3)))]}
    failure = eigen.EigenConvergenceError("no convergence")
    for check in (workloads.check_connection, workloads.check_hodge):
        (result,) = check(inputs, [failure], {})
        assert result.failed and "EigenConvergenceError" in result.message
