"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The named suites encode the systems and tolerances; this module drives them,
pins the stated runtime bounds, and checks the headline numbers explicitly.
"""

import dataclasses
import json
import time

import numpy as np

from cstarpow import acceptance
from cstarpow.cli import main

SEED = 7


def run(name, **kw):
    result = acceptance.run_suite(name, seed=SEED, **kw)
    return result


def report(criterion, result, extra=""):
    status = "PASS" if result else "FAIL"
    print(f"[{status}] criterion {criterion} {extra}")
    assert result


def test_criterion_01_dimension_law():
    start = time.time()
    result = run("dimensions")
    elapsed = time.time() - start
    assert len(result["assertions"]) == 15  # five algebras, three degrees
    report("1 (dimension law)", result["passed"],
           f"15 cases in {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_02_block_structure():
    result = run("blocks")
    expected = {
        "blocks of S^2(M_2) equal tableau counts": [1, 3],
        "blocks of S^3(M_2) equal tableau counts": [2, 4],
        "blocks of S^2(M_3) equal tableau counts": [3, 6],
    }
    for a in result["assertions"]:
        assert a["spectral"] == expected[a["name"]]
    report("2 (block structure)", result["passed"])


def test_criterion_03_classification_completeness():
    result = run("classification")
    assert len(result["assertions"]) == 15
    heavy = [a for a in result["assertions"]
             if a["name"] == "classification of blocks [2, 3], degree 2"]
    assert heavy[0]["enumerated"] == [1, 3, 3, 6, 6]
    assert heavy[0]["sum_of_squares"] == 91
    report("3 (classification completeness)", result["passed"])


def test_criterion_04_corner_identities():
    result = run("crossed")
    worst = max(a["worst_residual"] for a in result["assertions"])
    assert all(a["samples"] == 50 for a in result["assertions"])
    report("4 (corner identities)", result["passed"] and worst < 1e-9,
           f"worst residual {worst:.2e}")


def test_criterion_05_induction():
    result = run("induction")
    report("5 (induced representation transfer)", result["passed"])


def test_criterion_06_generation_identity():
    start = time.time()
    result = run("generation")
    elapsed = time.time() - start
    report("6 (generation identity)", result["passed"],
           f"in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_07_ergodic_bound():
    result = run("ergodic")
    swap = result["assertions"][0]
    assert swap["report"]["algebra_dim"] == swap["report"]["group_order"] == 2
    report("7 (ergodic dimension bound)", result["passed"])


def test_criterion_08_schur_weyl():
    result = run("schur-weyl")
    witness = result["assertions"][1]
    assert witness["witness_dim"] == 6
    assert witness["commutant_dim"] == 1
    assert all(v == 0 for v in witness["intertwiner_dims"])
    report("8 (Schur-Weyl injectivity and witness)", result["passed"])


def test_criterion_09_homogeneous_decomposition():
    result = run("homog")
    a = result["assertions"][0]
    assert a["samples"] == 100
    report("9 (homogeneous decomposition)",
           result["passed"] and a["worst_residual"] < 1e-9,
           f"worst residual {a['worst_residual']:.2e}")


def test_criterion_10_commutativity_detector():
    result = run("commutativity")
    observed = {a["name"]: a["observed"] for a in result["assertions"]}
    assert observed["square map multiplicative on blocks [1, 1, 1]: True"]
    assert not observed["square map multiplicative on blocks [2]: False"]
    assert not observed["square map multiplicative on blocks [2, 1]: False"]
    report("10 (commutativity detector)", result["passed"])


def test_criterion_11_determinism(capsys):
    code1 = main(["verify", "all", "--seed", str(SEED), "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "all", "--seed", str(SEED), "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    payload = json.loads(out1)
    assert payload["passed"] is True
    report("11 (deterministic verification)", out1 == out2,
           f"{len(out1)} bytes of JSON, identical across runs")


def test_suites_compare_against_the_given_tolerance():
    # the corner identities hold to ~1e-15, which is not below 1e-20
    assert acceptance.run_suite("crossed", tol=1e-20)["passed"] is False


def test_dimension_law_fails_on_an_orbit_map_that_skips_a_row(monkeypatch):
    # the rank is read off the orbit map, so moving the monomials of the
    # last orbit sum into the first one must fail every case
    basis = acceptance.symmetric_power_basis

    def skip_last_row(algebra, n):
        sym = basis(algebra, n)
        orbit = np.where(sym.orbit == sym.size - 1, 0, sym.orbit)
        return dataclasses.replace(sym, orbit=orbit)

    monkeypatch.setattr(acceptance, "symmetric_power_basis", skip_last_row)
    result = run("dimensions")
    assert len(result["assertions"]) == 15
    assert not any(a["passed"] for a in result["assertions"])
