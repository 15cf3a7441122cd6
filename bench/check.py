"""Correctness check of each job against recorded structural outputs.

``reference.json`` maps each job (see ``workloads.job_key``) to the
structural fields of its payload, recorded with ``record_reference.py``.
These fields do not depend on ``--seed``.  A job fails on a non-zero exit
code, output that is not JSON, structural fields that differ from the
reference, or a residual field that is not below the run's tolerance.
"""

from __future__ import annotations

import json
import os

from workloads import job_key

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# The CLI defaults.  No job may pass a larger --tol or --budget.
DEFAULT_TOL = 1e-9
DEFAULT_BUDGET = 2000

_SCALAR_FIELDS = ("dim_symmetric_power", "wedderburn_block_dims",
                  "enumerated_dims", "fixed_point_dim", "group_order",
                  "induced_dim", "commutant_dim_induced",
                  "commutant_dim_compressed")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def argument_problems(job: list[str]) -> list[str]:
    """Flags of a job that would loosen a check or a budget."""
    problems = []
    for flag, default in (("--tol", DEFAULT_TOL), ("--budget", DEFAULT_BUDGET)):
        if flag in job:
            value = float(job[job.index(flag) + 1])
            if value > default:
                problems.append(f"{flag} {value:g} exceeds the default {default:g}")
    return problems


def job_tol(job: list[str]) -> float:
    return float(job[job.index("--tol") + 1]) if "--tol" in job else DEFAULT_TOL


def structure_of(payload: dict) -> dict:
    """The seed-independent structural fields of a CLI payload."""
    out = {key: payload[key] for key in _SCALAR_FIELDS if key in payload}
    if "schur_weyl_irreps" in payload:
        out["schur_weyl_irreps"] = [
            {"block": r["block"], "partition": r["partition"], "dim": r["dim"],
             "commutant_dim": r["commutant_dim"]}
            for r in payload["schur_weyl_irreps"]]
    if "injectivity" in payload:
        out["injectivity_passed"] = payload["injectivity"]["passed"]
    if "component_norms_at_sample" in payload:
        out["homogeneous_components"] = len(payload["component_norms_at_sample"])
    if "suites" in payload:
        out["suites_passed"] = {s["suite"]: s["passed"]
                                for s in payload["suites"]}
        out["passed"] = payload["passed"]
    return out


def residuals(value, path: str = ""):
    """Every numeric field whose key names a residual, with its path."""
    if isinstance(value, dict):
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            if "residual" in key and isinstance(item, (int, float)):
                yield where, float(item)
            else:
                yield from residuals(item, where)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from residuals(item, f"{path}[{i}]")


def check_job(job: list[str], code: int, stdout: str,
              reference: dict) -> list[str]:
    """Everything wrong with one job's result; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    problems = []
    expected = reference.get(job_key(job))
    got = structure_of(payload)
    if expected is None:
        problems.append("no reference output recorded for this job")
    elif got != expected:
        problems.append(f"structural output {json.dumps(got, sort_keys=True)} "
                        f"differs from the reference "
                        f"{json.dumps(expected, sort_keys=True)}")
    tol = job_tol(job)
    for where, value in residuals(payload):
        if not value < tol:
            problems.append(f"residual {where} = {value:g} is not below {tol:g}")
    return problems
