"""One traced pass of each workload reaches every layer the metric table
names for it, and the traced outputs still pass their checks."""

import dataclasses
import json
from pathlib import Path

import pytest

import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: inputs, the recorder and the root span of each pass."""
    runs = {}
    for name, (setup, run_pass, check) in workloads.WORKLOADS.items():
        inputs = setup(ROOT, 0, tmp_path_factory.mktemp(name))
        recorder = spans.SpanRecorder()
        roots, state = [], {}
        passes = 2 if name == "verify_default" else 1
        with spans.instrument(recorder):
            for _ in range(passes):
                roots.append(len(recorder.spans))
                with recorder.span("bench.pass", "bench"):
                    outputs = run_pass(inputs)
                results = check(inputs, outputs, state)
                assert not any(r.failed for r in results), [r.message for r in results]
        runs[name] = (inputs, recorder, roots, state)
    return runs


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_every_listed_layer_is_reached(traced, workload):
    _, recorder, roots, _ = traced[workload]
    found = set()
    for i in layers.pass_spans(recorder.spans, roots[0]):
        found |= {recorder.spans[i].name, recorder.spans[i].group}
    missing = [name for name, _, _, source, _, on in layers.METRICS
               if source is not None and workload in on and source not in found]
    assert missing == []


def test_layer_metrics_cover_the_table(traced):
    _, recorder, roots, _ = traced["verify_default"]
    metrics = layers.layer_metrics(recorder.spans, roots[0])
    assert set(metrics) | {"trace.pass_s", "trace.overhead_s"} == {
        m[0] for m in layers.METRICS}


def test_counts_repeat_across_passes(traced):
    _, recorder, roots, _ = traced["verify_default"]
    first, second = (layers.layer_metrics(recorder.spans, r) for r in roots)
    for name in ("eigen.lu_solves", "eigen.calls", "eigen.repeat_solves",
                 "verify.conn_builds_per_mesh", "constants.moser_terms"):
        assert first[name] == second[name], name


def test_verify_check_fails_on_perturbed_reference(traced):
    inputs, _, _, state = traced["verify_default"]
    inputs = dict(inputs, expected={label: dataclasses.replace(
        e, first_positive=e.first_positive * 1.05) for label, e in inputs["expected"].items()})
    (result,) = workloads.check_verify(inputs, [0], state)
    assert result.failed
    (result,) = workloads.check_verify(inputs, [1], state)
    assert result.failed


def test_benchmark_json_matches_the_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in layers.METRICS]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "pass_s", "peak_rss_mb", "gap_rel_err"}
