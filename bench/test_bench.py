"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

import json
import os
import re

import pytest

import check
import run
import spans
from workloads import WORKLOADS, job_key

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]
    synthetic = [["structure.a", 0.0, 10.0, -1, 0],
                 ["linalg.b", 1.0, 4.0, 0, 0],
                 ["linalg.c", 2.0, 3.0, 1, 0],
                 ["linalg.b", 5.0, 7.0, 0, 0]]
    assert spans.self_times(synthetic) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_clips_and_merges_overlapping_children():
    synthetic = [["structure.a", 0.0, 10.0, -1, 0],
                 ["linalg.b", -1.0, 3.0, 0, 0],
                 ["linalg.c", 2.0, 4.0, 0, 0],
                 ["linalg.d", 9.0, 12.0, 0, 0]]
    assert spans.self_times(synthetic)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_trimmed_mean_drops_a_quarter_at_each_end():
    assert run.trimmed_mean([3.0, 1.0, 2.0]) == pytest.approx(2.0)
    assert run.trimmed_mean([1.0, 2.0, 3.0, 100.0]) == pytest.approx(2.5)
    assert run.trimmed_mean([9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]) \
        == pytest.approx(1.0)


def test_adjusted_time_scales_samples_by_their_power():
    ref = run.HOST_REFERENCE_S
    kernels = [0.6 * ref, 1.2 * ref, 0.7 * ref, 1.1 * ref, 0.9 * ref]
    # a job that slows as the square root of the kernel
    half = [(k, 0.2 * (k / ref) ** 0.5) for k in kernels]
    assert run.adjusted_time(half) == pytest.approx(0.2)
    # too few samples to fit a power: the measured trimmed mean
    assert run.adjusted_time(half[:3]) \
        == pytest.approx(run.trimmed_mean([m for _, m in half[:3]]))
    # a job that does not slow with the host keeps its measured time
    flat = [(k, 0.5) for k in kernels]
    assert run.adjusted_time(flat) == pytest.approx(0.5)
    # the power stays within [0, 1]
    inverse = [(k, 0.2 * (ref / k)) for k in kernels]
    assert run.adjusted_time(inverse) \
        == pytest.approx(run.trimmed_mean([m for _, m in inverse]))
    steep = [(k, 0.2 * (k / ref) ** 3) for k in kernels]
    assert run.adjusted_time(steep) == pytest.approx(run.trimmed_mean(
        [m * ref / k for k, m in steep]))


def test_median_ranks_take_close_neighbours():
    assert list(run.median_ranks([1.0, 2.0, 3.0])) == [1]
    assert list(run.median_ranks([0.1, 0.15, 0.2, 0.3, 0.5, 1.0])) == [2, 3]
    assert list(run.median_ranks([0.1, 0.18, 0.2, 0.3, 0.36, 1.0])) \
        == [1, 2, 3, 4]


def test_job_stats_totals():
    synthetic = [["structure.commutant", 0.0, 10.0, -1, 100],
                 ["linalg.nullspace", 1.0, 3.0, 0, 50],
                 ["structure.spanned_algebra", 4.0, 8.0, 0, 0],
                 ["linalg.nullspace", 5.0, 6.0, 2, 0],
                 ["structure.commutant", 8.5, 9.5, 0, 0]]
    stats = spans.job_stats(synthetic)
    assert stats["structure.self_s"] == pytest.approx(10 - 2 - 4 - 1 + 4 - 1 + 1)
    assert stats["linalg.self_s"] == pytest.approx(3.0)
    assert stats["structure.calls"] == 3
    assert stats["linalg.rss_rise_kb"] == 50
    assert stats["structure.rss_rise_kb"] == 100
    assert stats["covered_s"] == pytest.approx(10.0)
    # the nested commutant span is counted, but its time is inside the outer
    assert stats["structure.commutant.calls"] == 2
    assert stats["structure.commutant.s"] == pytest.approx(10.0)
    # only the nullspace called by commutant itself is a commutant solve
    assert stats["commutant_nullspace"] == 1
    stats["main_s"] = 12.5
    stats["rss_overhead_mb"] = 3.0
    metrics = spans.pass_metrics([stats], untraced_s=10.0)
    assert metrics["structure.nullspace_per_commutant"] == pytest.approx(0.5)
    assert metrics["trace.coverage"] == pytest.approx(0.8)
    assert metrics["trace.overhead"] == pytest.approx(1.25)
    assert metrics["trace.rss_overhead_mb"] == pytest.approx(3.0)
    assert set(metrics) == set(spans.metric_units())


SYMPOW_JOB = ["sympow", "--blocks", "2,1", "--n", "4"]


def _sympow_payload(**changes):
    payload = {"binomial_check": True, "blocks": [2, 1], "n": 4,
               "dim_symmetric_power": 70, "sum_of_squares": 70,
               "enumerated_dims": [1, 1, 1, 2, 2, 3, 3, 4, 5],
               "wedderburn_block_dims": [1, 1, 1, 2, 2, 3, 3, 4, 5]}
    payload.update(changes)
    return json.dumps(payload)


def test_checker_accepts_the_reference_payload():
    reference = check.load_reference()
    assert check.check_job(SYMPOW_JOB, 0, _sympow_payload(), reference) == []


def test_checker_fails_doctored_payloads():
    reference = check.load_reference()
    wrong_dims = _sympow_payload(
        wedderburn_block_dims=[1, 1, 1, 2, 2, 3, 3, 5, 4])
    assert check.check_job(SYMPOW_JOB, 0, wrong_dims, reference)
    assert check.check_job(SYMPOW_JOB, 4, _sympow_payload(), reference) \
        == ["exit code 4"]
    assert check.check_job(SYMPOW_JOB, 0, "Traceback", reference)
    assert check.check_job(["sympow", "--blocks", "9", "--n", "2"], 0,
                           _sympow_payload(), reference)


def test_checker_fails_residual_at_tolerance():
    reference = check.load_reference()
    job = ["verify", "crossed"]
    payload = {"passed": True, "seed": 0, "suites": [
        {"suite": "crossed", "passed": True, "assertions": [
            {"name": "x", "passed": True, "worst_residual": 1e-9}]}]}
    problems = check.check_job(job, 0, json.dumps(payload), reference)
    assert problems and "worst_residual" in problems[0]
    payload["suites"][0]["assertions"][0]["worst_residual"] = 1e-15
    assert check.check_job(job, 0, json.dumps(payload), reference) == []


def test_no_job_loosens_tolerance_or_budget():
    assert check.argument_problems(["sympow", "--tol", "1e-6"])
    assert check.argument_problems(["sympow", "--budget", "5000"])
    assert check.argument_problems(["sympow", "--tol", "1e-12"]) == []
    reference = check.load_reference()
    for jobs in WORKLOADS.values():
        for job in jobs:
            assert check.argument_problems(job) == []
            assert job_key(job) in reference


def test_metric_names_and_benchmark_spec():
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names + list(spans.metric_units()):
        assert NAME.match(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == spans.metric_units()


def test_function_missing_from_its_layer_fails_the_job(tmp_path):
    path = str(tmp_path / "spans.json")
    synthetic = [["crossed.integrated_form", 0.0, 1.0, -1, 0]]
    for installed, failed in ((list(spans.FUNCTIONS), False),
                              ([fn for fn in spans.FUNCTIONS
                                if fn != "crossed.convolve"], True)):
        with open(path, "w") as fh:
            json.dump({"main_s": 1.0, "installed": installed,
                       "spans": synthetic}, fh)
        result = {"problems": []}
        stats = run.traced_stats(result, path)
        assert stats["crossed.integrated_form.calls"] == 1
        assert bool(result["problems"]) == failed
    assert "crossed.convolve" in result["problems"][0]


def test_traced_child_records_calls_between_modules(tmp_path):
    path = str(tmp_path / "spans.json")
    job = ["sympow", "--blocks", "2", "--n", "2"]
    result = run.run_job(job, 0, {job_key(job): {
        "dim_symmetric_power": 10, "wedderburn_block_dims": [1, 3],
        "enumerated_dims": [1, 3]}}, timeout=120, spans_path=path)
    assert result["problems"] == []
    with open(path) as fh:
        dumped = json.load(fh)
    assert set(spans.FUNCTIONS) <= set(dumped["installed"])
    recorded = dumped["spans"]
    names = [s[0] for s in recorded]
    # cli.py and classify.py reach these through ``from .x import y``
    assert "classify.wedderburn_comparison" in names
    mcp = names.index("structure.minimal_central_projections")
    parents = {recorded[recorded[mcp][3]][0]}
    assert parents == {"classify.wedderburn_comparison"}
    assert spans.job_stats(recorded)["covered_s"] <= dumped["main_s"]
