"""The span recorder: wrappers are transparent, spans nest, bindings restore."""

import math

import numpy as np
import pytest

import layers
import spans
from roughlap import cli, constants, eigen, mesh, operators, spectra, verify


def test_wrapper_returns_the_same_object_and_raises_the_same_error():
    recorder = spans.SpanRecorder()
    sentinel = object()
    error = KeyError("x")

    def fine(a, b=None):
        return sentinel

    def broken():
        raise error

    assert recorder.wrap(fine, "t.fine", "t")(1, b=2) is sentinel
    with pytest.raises(KeyError) as caught:
        recorder.wrap(broken, "t.broken", "t")()
    assert caught.value is error
    assert [s.name for s in recorder.spans] == ["t.fine", "t.broken"]
    assert recorder.spans[1].attrs == {"error": "KeyError"}
    assert recorder.stack == []


def test_instrumented_calls_match_unwrapped_calls():
    surface = mesh.generate_icosphere(1.0, 2)
    op, mass = operators.connection_laplacian_1forms(surface,
                                                     operators.build_connection(surface))
    config = eigen.SolverConfig(k=4)
    plain = (constants.comparison_root(3, 0.5),
             spectra.sphere_oneform_rough_spectrum(1.0, 10.0),
             eigen.smallest_eigenpairs(op, mass, config).values)
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        wrapped = (constants.comparison_root(3, 0.5),
                   spectra.sphere_oneform_rough_spectrum(1.0, 10.0),
                   eigen.smallest_eigenpairs(op, mass, config).values)
    assert wrapped[0] == plain[0]
    assert wrapped[1] == plain[1]
    np.testing.assert_array_equal(wrapped[2], plain[2])
    assert {s.name for s in recorder.spans} >= {
        "constants.comparison_root", "spectra.sphere_oneform_rough_spectrum",
        "eigen.smallest_eigenpairs"}


def test_every_binding_is_wrapped_and_restored():
    originals = {
        "eigen": eigen.smallest_eigenpairs,
        "verify": verify.smallest_eigenpairs,
        "cli": cli.smallest_eigenpairs,
        "cli.run_suite": cli.run_suite,
        "registry": dict(verify.CHECK_REGISTRY),
        "write_json": verify.Report.write_json,
    }
    with spans.instrument(spans.SpanRecorder()):
        assert eigen.smallest_eigenpairs is verify.smallest_eigenpairs
        assert eigen.smallest_eigenpairs is cli.smallest_eigenpairs
        assert eigen.smallest_eigenpairs.__wrapped__ is originals["eigen"]
        assert cli.run_suite is verify.run_suite is not originals["cli.run_suite"]
        assert cli.main.__wrapped__.__name__ == "main"
        assert all(verify.CHECK_REGISTRY[k] is not v
                   for k, v in originals["registry"].items())
    assert eigen.smallest_eigenpairs is originals["eigen"]
    assert verify.smallest_eigenpairs is originals["verify"]
    assert cli.smallest_eigenpairs is originals["cli"]
    assert cli.run_suite is originals["cli.run_suite"]
    assert verify.CHECK_REGISTRY == originals["registry"]
    assert verify.Report.write_json is originals["write_json"]


def test_spans_nest_and_self_time_excludes_children():
    recorder = spans.SpanRecorder()
    helper = recorder.wrap(lambda: sum(range(2000)), "t.helper", None)
    inner = recorder.wrap(lambda: sum(range(5000)), "t.inner", "inner")

    def outer_body():
        helper()
        return inner() + inner()

    outer = recorder.wrap(outer_body, "t.outer", "outer")
    with recorder.span("bench.pass", "bench"):
        outer()
    names = [s.name for s in recorder.spans]
    assert names == ["bench.pass", "t.outer", "t.helper", "t.inner", "t.inner"]
    assert [s.parent for s in recorder.spans] == [None, 0, 1, 1, 1]
    for s in recorder.spans[1:]:
        parent = recorder.spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end

    times = layers._attributed_times(recorder.spans, layers.pass_spans(recorder.spans, 0))
    out, _, in1, in2 = recorder.spans[1:]
    # the helper has no group: its time stays with its caller
    assert math.isclose(times["outer"], out.duration - in1.duration - in2.duration,
                        rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(times["inner"], in1.duration + in2.duration, rel_tol=1e-9)
    assert math.isclose(sum(times.values()), recorder.spans[0].duration, rel_tol=1e-9)


def test_call_time_import_inside_weitzenboeck_is_traced():
    surface = mesh.generate_flat_torus(2 * math.pi, 2 * math.pi, 8, 8)
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        operators.weitzenboeck_eigen_check(surface, 4)
    check = next(i for i, s in enumerate(recorder.spans)
                 if s.name == "operators.weitzenboeck_eigen_check")
    solves = [s for s in recorder.spans if s.name == "eigen.smallest_eigenpairs"]
    assert len(solves) == 2
    assert all(s.parent == check for s in solves)
    assert all(s.attrs["dofs"] > 0 and "pencil" in s.attrs for s in solves)
