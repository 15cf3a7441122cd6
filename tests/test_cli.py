import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cstarpow
from cstarpow import (acceptance, algebra, classify, cli, groups, linalg,
                      structure)
from cstarpow.algebra import FdCStarAlgebra
from cstarpow.cli import main
from cstarpow.errors import DegenerateDrawError
from oracles import argparse_parser


# one small job of every subcommand; verify runs all its suites
SMALL_JOBS = [
    ["sympow", "--blocks", "2,1", "--n", "2"],
    ["classify", "--blocks", "2", "--n", "2", "--crosscheck"],
    ["crossed", "--blocks", "1,1", "--n", "2", "--samples", "2"],
    ["induce", "--blocks", "1,1", "--n", "2", "--q", "1,1"],
    ["schur-weyl", "--blocks", "2", "--n", "2"],
    ["homog", "--blocks", "2", "--degrees", "1,2"],
    ["verify", "all"],
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_sympow_m2(capsys):
    code, payload = run_json(capsys, "sympow", "--blocks", "2", "--n", "2")
    assert code == 0
    assert payload["dim_symmetric_power"] == 10
    assert payload["wedderburn_block_dims"] == [1, 3]
    assert payload["binomial_check"] is True


def test_sympow_commutative(capsys):
    code, payload = run_json(capsys, "sympow", "--blocks", "1,1,1", "--n", "2")
    assert code == 0
    assert payload["dim_symmetric_power"] == 6
    assert payload["wedderburn_block_dims"] == [1] * 6


def test_sympow_two_blocks(capsys):
    code, payload = run_json(capsys, "sympow", "--blocks", "2,3", "--n", "2")
    assert code == 0
    assert payload["dim_symmetric_power"] == 91


def test_sympow_table_contains_json_numbers(capsys):
    code, out, _ = run_cli(capsys, "sympow", "--blocks", "2", "--n", "2")
    assert code == 0
    assert "10" in out and "dim_symmetric_power" in out


def test_classify_with_crosscheck(capsys):
    code, payload = run_json(capsys, "classify", "--blocks", "2,3", "--n", "2",
                             "--crosscheck")
    assert code == 0
    dims = sorted(d["dim"] for d in payload["descriptors"])
    assert dims == [1, 3, 3, 6, 6]
    assert payload["sum_of_squares"] == 91
    assert payload["crosscheck"]["passed"] is True


def test_classify_degree_one(capsys):
    code, payload = run_json(capsys, "classify", "--blocks", "2,3", "--n", "1")
    assert code == 0
    assert sorted(d["dim"] for d in payload["descriptors"]) == [2, 3]


def test_spec_file_loading(capsys, tmp_path):
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps({"blocks": [2]}))
    code, payload = run_json(capsys, "sympow", "--spec", str(spec), "--n", "2")
    assert code == 0 and payload["dim_symmetric_power"] == 10


def test_action_spec_loading(capsys, tmp_path):
    spec = tmp_path / "action.json"
    spec.write_text(json.dumps(
        {"tensor_permutation": {"base_blocks": [2], "n": 2}}))
    code, payload = run_json(capsys, "crossed", "--action-spec", str(spec),
                             "--samples", "5")
    assert code == 0
    assert payload["fixed_point_dim"] == 10
    assert payload["corner_idempotent_residual"] < 1e-9


def test_crossed_inline(capsys):
    code, payload = run_json(capsys, "crossed", "--blocks", "1,1", "--n", "3",
                             "--samples", "10")
    assert code == 0
    assert payload["group_order"] == 6
    assert payload["fixed_point_dim"] == 4


def test_induce_trivial_and_young(capsys):
    code, payload = run_json(capsys, "induce", "--blocks", "2", "--n", "2")
    assert code == 0
    assert payload["induced_dim"] == payload["index"] * payload["base_dim"]
    assert payload["commutant_dim_induced"] == payload["commutant_dim_compressed"]

    code, payload = run_json(capsys, "induce", "--blocks", "2", "--n", "3",
                             "--q", "2,1")
    assert code == 0
    assert payload["index"] == 3 and payload["induced_dim"] == 24

    code, payload = run_json(capsys, "induce", "--blocks", "2", "--n", "4",
                             "--q", "2,2")
    assert code == 0
    assert payload == {"subgroup_order": 4, "index": 6, "base_dim": 16,
                       "induced_dim": 96, "fixed_rank_base": 9,
                       "commutant_dim_induced": 1,
                       "commutant_dim_compressed": 1}


def test_schur_weyl_command(capsys):
    code, payload = run_json(capsys, "schur-weyl", "--blocks", "2", "--n", "2")
    assert code == 0
    dims = sorted(r["dim"] for r in payload["schur_weyl_irreps"])
    assert dims == [1, 3]
    assert all(r["commutant_dim"] == 1 for r in payload["schur_weyl_irreps"])


def test_homog_command(capsys):
    code, payload = run_json(capsys, "homog", "--blocks", "2",
                             "--degrees", "1,2")
    assert code == 0
    assert payload["projection_orthogonality_residual"] < 1e-9


def test_parse_errors(capsys):
    assert run_cli(capsys, "sympow", "--n", "2")[0] == 2          # no algebra
    assert run_cli(capsys, "sympow", "--blocks", "x", "--n", "2")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2                    # bad command
    assert run_cli(capsys, "verify", "nonsense")[0] == 2          # bad suite


def test_non_finite_tol_is_bad_input(capsys):
    for tol in ("nan", "inf", "-1"):
        code, out, err = run_cli(capsys, "sympow", "--blocks", "2", "--n",
                                 "2", "--tol", tol)
        assert code == 2
        assert out == "" and "tol must be positive and finite" in err


def test_every_subcommand_has_help_and_unknown_ones_exit_2(capsys):
    for name in cli._COMMANDS:
        assert main([name, "--help"]) == 0
        assert f"usage: cstarpow {name}" in capsys.readouterr().out
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in cli._COMMANDS)
    assert main(["nosuch"]) == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
    assert main([]) == 2
    assert "required: command" in capsys.readouterr().err


def test_every_degree_below_one_is_refused_at_parse_time(capsys):
    takes_n = [name for name, (_, _, arguments) in cli._COMMANDS.items()
               if any(flag == "--n" for flag, _ in arguments)]
    assert takes_n == ["sympow", "classify", "crossed", "induce", "schur-weyl"]
    for name in takes_n:
        for n in ("0", "-1"):
            code, out, err = run_cli(capsys, name, "--blocks", "2", "--n", n)
            assert code == 2 and out == ""
            assert "must be at least 1" in err, (name, n)


def test_homog_budget_preflight(capsys):
    # degree 3 of M_2 has ambient 8, over a budget of 4
    code, _, err = run_cli(capsys, "homog", "--blocks", "2", "--degrees",
                           "1,3", "--budget", "4")
    assert code == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize("nmax", [str(10 ** 20), "99999999999"])
def test_homog_refuses_a_huge_degree_bound_before_allocating(capsys, nmax):
    # (n_max + 1)^2 DFT weights are over 70M entries: numpy refused 10^20
    # with a parse-error exit, and 99999999999 asked for 745 GiB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "homog", "--blocks", "1", "--degrees",
                             "1,2", "--nmax", nmax)
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded:") and "out of memory" not in err
    assert time.perf_counter() - start < 1.0


def test_homog_rejects_an_empty_degree_list(capsys):
    for degrees in (",", ""):
        code, _, err = run_cli(capsys, "homog", "--blocks", "2", "--degrees",
                               degrees)
        assert code == 2
        assert "--degrees needs at least one degree" in err


def test_homog_nmax_must_be_positive_and_is_honoured(capsys):
    assert run_cli(capsys, "homog", "--blocks", "2", "--nmax", "0")[0] == 2
    code, payload = run_json(capsys, "homog", "--blocks", "1", "--degrees",
                             "1,2", "--nmax", "3")
    assert code == 0
    assert payload["n_max"] == 3
    assert len(payload["component_norms_at_sample"]) == 4


def test_schur_weyl_injectivity_nmax_must_be_positive(capsys):
    assert run_cli(capsys, "schur-weyl", "--blocks", "2", "--n", "1",
                   "--injectivity-nmax", "-1")[0] == 2


def test_schur_weyl_budget_covers_the_injectivity_degrees(capsys,
                                                          monkeypatch):
    # degree 1 passes the budget, but the check realizes degree 6 of M_4,
    # ambient 4096: refused before any realization
    def refuse(*args, **kwargs):
        raise AssertionError("realized before the budget check")

    monkeypatch.setattr(cli, "schur_weyl_family", refuse)
    code, _, err = run_cli(capsys, "schur-weyl", "--blocks", "4", "--n", "1",
                           "--injectivity-nmax", "6")
    assert code == 3
    assert "budget" in err.lower()


def test_every_negative_seed_is_refused_at_parse_time(capsys):
    assert [argv[0] for argv in SMALL_JOBS] == list(cli._COMMANDS)
    for argv in SMALL_JOBS:
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == ""
        assert "must be at least 0" in err, argv


def test_crossed_samples_must_be_non_negative(capsys):
    assert run_cli(capsys, "crossed", "--blocks", "1,1", "--samples",
                   "-1")[0] == 2


def test_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "sympow", "--blocks", "2,3", "--n", "3",
                           "--budget", "50")
    assert code == 3
    assert "budget" in err.lower()


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the budget check")

    for name in ("make_algebra", "algebra_from_json", "action_from_json"):
        monkeypatch.setattr(cli, name, refuse)


def test_budget_is_checked_before_the_algebra_is_built(capsys, monkeypatch,
                                                       tmp_path):
    _refuse_to_build(monkeypatch)
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps({"blocks": [100000]}))
    for source in (["--blocks", "100000"], ["--spec", str(spec)]):
        for cmd in ("sympow", "classify", "schur-weyl"):
            code, _, err = run_cli(capsys, cmd, *source, "--n", "1")
            assert code == 3 and "budget" in err.lower(), (cmd, source)
        assert run_cli(capsys, "homog", *source, "--degrees", "1")[0] == 3
    # a block below 1 is bad input, whatever the ambient size
    monkeypatch.undo()
    assert run_cli(capsys, "sympow", "--blocks", "0,100000", "--n", "1")[0] \
        == 2


def test_action_specs_honour_the_budget(capsys, monkeypatch, tmp_path):
    # C^2 to the fourth has ambient 16, over a budget of 10, in each form;
    # a dense action is checked on the algebra it acts on
    _refuse_to_build(monkeypatch)
    power = tmp_path / "power.json"
    power.write_text(json.dumps(
        {"tensor_permutation": {"base_blocks": [1, 1], "n": 4}}))
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(
        {"group": {"symmetric": 2}, "blocks": [11], "maps": []}))
    for cmd in ("crossed", "induce"):
        for source in (["--blocks", "1,1", "--n", "4"],
                       ["--action-spec", str(power)],
                       ["--action-spec", str(dense)]):
            code, _, err = run_cli(capsys, cmd, *source, "--budget", "10")
            assert code == 3 and "budget" in err.lower(), (cmd, source)


def test_budget_of_a_huge_degree_is_refused_without_the_power(capsys):
    # 2^(10^12) is never formed: n above the budget's bit length is over it
    for n in ("100000000", "1000000000000"):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "sympow", "--blocks", "2", "--n", n)
        assert code == 3 and "budget" in err.lower()
        assert time.perf_counter() - start < 1.0


def test_orbit_sums_past_the_dense_bound_are_classified(capsys):
    # ambient 4^4 = 256 passes --budget; the 3876 orbit sums of 65536
    # monomials are over the dense bound, but no reader builds them densely
    code, payload = run_json(capsys, "sympow", "--blocks", "4", "--n", "4")
    assert code == 0
    assert payload["wedderburn_block_dims"] == payload["enumerated_dims"] \
        == [1, 15, 20, 35, 45]
    code, payload = run_json(capsys, "classify", "--blocks", "4", "--n", "4",
                             "--crosscheck")
    assert code == 0
    check = payload["crosscheck"]
    assert check["passed"] and check["spectral"] == check["enumerated"]


def test_tensor_power_budget_of_actions(capsys):
    # the third tensor power of C^3 has ambient 27, over a budget of 10
    for cmd in ("crossed", "induce"):
        code, _, err = run_cli(capsys, cmd, "--blocks", "1,1,1", "--n", "3",
                               "--budget", "10")
        assert code == 3
        assert "budget" in err.lower()


def test_verification_error_exits_4(capsys):
    # the degree-3 part aliases onto lower degrees below a bound of 3
    code, out, err = run_cli(capsys, "homog", "--blocks", "2", "--degrees",
                             "1,3", "--nmax", "2")
    assert code == 4
    assert out == ""
    assert "degree bound too small" in err


def test_degenerate_draw_exits_4_without_traceback(capsys, monkeypatch):
    # the engine's own redraw routine runs to exhaustion: every draw fails
    calls = []

    def fail(*args):
        calls.append(args)
        raise DegenerateDrawError("no separating draw")

    monkeypatch.setattr(structure, "_projections_from_spectrum", fail)
    code, out, err = run_cli(capsys, "sympow", "--blocks", "2", "--n", "2")
    assert code == 4 and out == "" and len(calls) == 5
    assert "central projection extraction failed after 5 draws" in err
    assert "no separating draw" in err and "Traceback" not in err


def test_memory_error_exits_3(capsys, monkeypatch):
    def fail(args, cfg):
        raise MemoryError("Unable to allocate 11.4 GiB")

    monkeypatch.setitem(cli._COMMANDS, "sympow",
                        (fail, *cli._COMMANDS["sympow"][1:]))
    code, out, err = run_cli(capsys, "sympow", "--blocks", "2", "--n", "4")
    assert code == 3
    assert out == ""
    assert "out of memory" in err and "Traceback" not in err


def test_verify_single_suite(capsys):
    code, payload = run_json(capsys, "verify", "commutativity", "--seed", "3")
    assert code == 0
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "commutativity"


def test_verify_suite_deterministic(capsys):
    _, out1 = run_json(capsys, "verify", "dimensions", "--seed", "11")
    _, out2 = run_json(capsys, "verify", "dimensions", "--seed", "11")
    assert out1 == out2


def _count_svds(monkeypatch):
    """Calls of op_norm, in every loaded cstarpow module that holds it."""
    calls, op_norm = [], linalg.op_norm

    def counted(m):
        calls.append(1)
        return op_norm(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("cstarpow") and \
                getattr(module, "op_norm", None) is op_norm:
            monkeypatch.setattr(module, "op_norm", counted)
    return calls


@pytest.mark.parametrize("argv, fewer", [
    (["verify", "crossed"], 10),
    (["crossed", "--blocks", "1,1", "--n", "5", "--samples", "200"], 10),
    (["crossed", "--blocks", "2", "--n", "3", "--samples", "30"], 1),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_crossed_maxima_skip_svds_without_changing(capsys, monkeypatch, argv,
                                                   fewer):
    calls = _count_svds(monkeypatch)
    screened = run_json(capsys, *argv, "--seed", "0")
    svds = len(calls)
    # a NaN margin screens nothing, since every comparison with it fails:
    # one SVD per residual, as without the screen
    monkeypatch.setattr(linalg, "SCREEN_MARGIN", float("nan"))
    assert run_json(capsys, *argv, "--seed", "0") == screened
    assert screened[0] == 0
    assert svds * fewer < len(calls) - svds


def test_power_map_jobs_never_build_an_ambient_matrix(capsys, monkeypatch):
    def refuse(self, coeffs):
        raise AssertionError("embed called")

    monkeypatch.setattr(FdCStarAlgebra, "embed", refuse)
    for argv in (["homog", "--blocks", "1,2", "--degrees", "1,2,3"],
                 ["verify", "homog"], ["verify", "commutativity"]):
        code, _ = run_json(capsys, *argv)
        assert code == 0


def _modules_loaded_by_jobs(jobs, names):
    """Which of the module names each job has loaded, running the jobs in
    order in one fresh process."""
    script = ("import json, sys\n"
              "from cstarpow.cli import main\n"
              "loaded = {}\n"
              f"for argv in {jobs!r}:\n"
              "    assert main([*argv, '--json']) == 0, argv\n"
              "    loaded[' '.join(argv)] = sorted(\n"
              f"        {set(names)!r} & set(sys.modules))\n"
              "print(json.dumps(loaded))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cstarpow.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_no_job_imports_numpy_random_or_numpy_ma():
    # numpy loads both lazily, for ~13 and ~18 ms of a fresh process; the
    # first use of argparse loads gettext and locale, for ~2 ms more
    jobs = [*SMALL_JOBS, ["--help"]]
    loaded = _modules_loaded_by_jobs(
        jobs, ["numpy.random", "numpy.ma", "argparse", "gettext", "locale"])
    assert loaded == {" ".join(argv): [] for argv in jobs}


def test_no_job_imports_fractions_or_decimal():
    # tableau counts are products of integers; fractions loads decimal
    jobs = [*SMALL_JOBS, ["classify", "--blocks", "2,3", "--n", "4"]]
    loaded = _modules_loaded_by_jobs(jobs, ["fractions", "decimal"])
    assert loaded == {" ".join(argv): [] for argv in jobs}


def test_classify_at_a_huge_degree_is_quick(capsys):
    # one tableau count at n = 100000 on a 1x1 block: the Weyl dimension
    # formula multiplies one factor per pair of rows, none for k = 1
    start = time.perf_counter()
    code, payload = run_json(capsys, "classify", "--blocks", "1", "--n",
                             "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and payload["sum_of_squares"] == 1


# command lines for the parser and its argparse reference: every subcommand,
# = forms, prefixes, repeats, bad values, missing and unknown arguments, help
PARSER_CORPUS = [
    *SMALL_JOBS,
    ["sympow", "--blocks=2,3", "--n=2", "--json"],
    ["sympow", "--spec", "a.json", "--n", "3", "--tol", "1e-8",
     "--budget", "100"],
    ["classify", "--bl", "2", "--n", "2", "--cross"],
    ["crossed", "--sam", "5", "--blocks", "1"],
    ["crossed", "--sam=5", "--blocks=1", "--n=3"],
    ["crossed", "--b", "2"],
    ["crossed", "--s", "2", "--blocks", "1"],
    ["crossed", "--action", "x.json"],
    ["crossed", "--a=x.json", "--n", "3"],
    ["induce", "--q=2,1", "--q", "1,1,1", "--blocks", "2", "--n", "3"],
    ["schur-weyl", "--blocks", "2", "--n", "2", "--inj", "3"],
    ["schur-weyl", "--blocks", "2", "--n", "2", "--inj", "0"],
    ["homog", "--blocks", "2", "--n", "3"],
    ["homog", "--blocks", "2", "--degrees", ""],
    ["homog", "--blocks", "2", "--degrees", "1,2", "--nmax", "3",
     "--nmax", "2"],
    ["verify", "--seed", "3", "all"],
    ["verify", "--json", "all", "--seed=2"],
    ["verify", "all", "--json"],
    ["verify", "-"],
    ["verify", "-1"],
    ["verify"],
    ["verify", "all", "extra"],
    ["verify", "--bogus", "all"],
    ["sympow", "--n", "2", "--n", "3", "--blocks", "2"],
    ["sympow", "--json", "--json", "--blocks", "2", "--n", "1"],
    ["sympow", "--json=1", "--blocks", "2", "--n", "1"],
    ["sympow", "--blocks", "2", "--n", "2", "--seed", "-1"],
    ["sympow", "--blocks", "2", "--n", "2", "--seed", "-0"],
    ["sympow", "--blocks", "2", "--n", "0"],
    ["sympow", "--blocks", "2", "--n", "+3"],
    ["sympow", "--blocks", "2", "--n", "2", "--budget", "x"],
    ["sympow", "--blocks", "2", "--n", "2", "--tol", "-1"],
    ["sympow", "--blocks", "2", "--n", "2", "--tol", "-1e-3"],
    ["sympow", "--blocks", "2 3", "--n", "2"],
    ["sympow", "--blocks", "-1,2", "--n", "2"],
    ["sympow", "--blocks", "2"],
    ["sympow", "--blocks", "2", "--n", "2", "--bogus"],
    ["sympow", "--blocks", "2", "--n"],
    ["sympow", "--blocks", "--n", "2"],
    ["sympow", "-", "--blocks", "2", "--n", "1"],
    ["sympow", "--help"],
    ["sympow", "-h"],
    ["sympow", "--he"],
    ["sympow", "--blocks", "2", "-h"],
    ["sympow", "--bogus", "-h"],
    ["sympow", "--n", "x", "-h"],
    ["sympow", "-h", "--n", "x"],
    ["sympow", "--b", "2", "-h"],
    ["sympow", "--help=x"],
    ["verify", "--help"],
    [],
    ["--help"],
    ["-h"],
    ["--he", "nosuch"],
    ["nosuch"],
    ["nosuch", "--help"],
    ["--json"],
    ["--json", "sympow", "--blocks", "2", "--n", "2"],
]


def _outcome(parse, argv):
    """The namespace a parser returns, as a dict, or the exit code it
    raises, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CORPUS,
                         ids=lambda argv: " ".join(argv) or "(empty)")
def test_parser_agrees_with_the_argparse_oracle(argv):
    expected = _outcome(
        argparse_parser(argv[0] if argv else None).parse_args, argv)[0]
    got, out, err = _outcome(cli._parse_args, argv)
    assert got == expected
    if got == 0:
        assert out.startswith("usage: cstarpow") and err == ""
    elif got == 2:
        assert err.startswith("usage: cstarpow") and out == ""


# block lists that are not JSON lists of integers, refused before the budget
# check or any builder reads them, then other malformed action specs
MALFORMED_BLOCKS = [
    ("sympow", {"blocks": 5}),
    ("sympow", {"blocks": None}),
    ("sympow", {"blocks": [[2]]}),
    ("sympow", {"blocks": "23"}),
    ("sympow", {"blocks": [2.5]}),
    ("sympow", {"blocks": [True, 2]}),
    ("sympow", {"size": [2]}),
    ("sympow", [2]),
    ("crossed", {"tensor_permutation": {"base_blocks": 2, "n": 2}}),
    ("crossed", {"tensor_permutation": 5}),
    ("crossed", {"maps": 1, "blocks": 2}),
    ("crossed", {"maps": [], "blocks": [2.0], "group": {"symmetric": 1}}),
    ("crossed", {"tensor_permutation": {"base_blocks": [2], "n": None}}),
    ("crossed", {"tensor_permutation": {"base_blocks": [2], "n": 2.5}}),
    ("crossed", 5),
]
MALFORMED_ACTIONS = [
    {"maps": 1, "blocks": [2], "group": {"symmetric": 2}},
    {"maps": [1], "blocks": [2], "group": {"symmetric": 2}},
    {"maps": [[[[]]]], "blocks": [1], "group": {"symmetric": 1}},
    {"maps": [], "blocks": [1], "group": {"symmetric": None}},
    # null or out-of-range entries in a group table or its inverse list
    {"maps": [], "blocks": [1], "group": {"table": [[0, None], [1, 0]]}},
    {"maps": [], "blocks": [1], "group": {"table": [[0, 1e300], [1, 0]]}},
    {"maps": [], "blocks": [1],
     "group": {"table": [[0, 1], [1, 0]], "inv": [0, None]}},
    {"maps": [], "blocks": [1], "group": {"table": [[0, 1], [1, 0]],
                                          "inv": None}},
]


def _run_spec(capsys, tmp_path, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    extra = ["--spec", str(path), "--n", "2"] if command == "sympow" \
        else ["--action-spec", str(path), "--samples", "1"]
    return run_cli(capsys, command, *extra)


@pytest.mark.parametrize("command, spec", MALFORMED_BLOCKS,
                         ids=lambda value: json.dumps(value))
def test_malformed_block_lists_exit_2_before_anything_reads_them(
        capsys, monkeypatch, tmp_path, command, spec):
    _refuse_to_build(monkeypatch)
    monkeypatch.setattr(cli, "_check_budget", lambda *args: pytest.fail(
        "budget checked on a malformed spec"))
    code, out, err = _run_spec(capsys, tmp_path, command, spec)
    assert code == 2 and out == ""
    assert "cannot read" in err and "spec" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", MALFORMED_ACTIONS, ids=json.dumps)
def test_malformed_action_specs_exit_2(capsys, tmp_path, spec):
    code, out, err = _run_spec(capsys, tmp_path, "crossed", spec)
    assert code == 2 and out == ""
    assert "cannot read action spec" in err


def test_one_row_at_degree_90_lists_one_partition(capsys):
    # 56.6 million partitions of 90, of which one has a single row
    start = time.perf_counter()
    code, payload = run_json(capsys, "classify", "--blocks", "1", "--n", "90")
    assert code == 0
    assert [d["lambdas"] for d in payload["descriptors"]] == [[[90]]]
    assert time.perf_counter() - start < 2.0


def test_degree_70_ends_in_the_package_s_own_messages(capsys):
    # ambient 1 passes the budget at every degree; neither the orbit labels
    # nor the realization holds an array of n axes (numpy caps them at 64),
    # and the realization builds no table of S_70: S^70(C) is one
    # 1-dimensional irreducible
    code, payload = run_json(capsys, "sympow", "--blocks", "1", "--n", "70")
    assert code == 0 and payload["dim_symmetric_power"] == 1
    code, payload = run_json(capsys, "schur-weyl", "--blocks", "1",
                             "--n", "70")
    assert code == 0
    assert [(r["dim"], r["commutant_dim"])
            for r in payload["schur_weyl_irreps"]] == [(1, 1)]


@pytest.mark.parametrize("n", ["2000", "100000", "10000000"])
def test_one_row_degrees_exit_0_at_once(capsys, monkeypatch, n):
    # S^n(C) is one 1-dimensional irreducible: a block of 1 x 1 factors has
    # no Jucys-Murphy step and adds n I to its image at once, so nothing
    # scales with n and no tableau is listed
    monkeypatch.setattr(groups, "standard_tableaux",
                        lambda *args: pytest.fail("listed tableaux"))
    start = time.perf_counter()
    code, payload = run_json(capsys, "schur-weyl", "--blocks", "1", "--n", n)
    assert code == 0
    assert [(r["dim"], r["commutant_dim"])
            for r in payload["schur_weyl_irreps"]] == [(1, 1)]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    # (3, 1) of M_6 has dimension 210, and its commutant solve at least 210
    # unknowns on ambient 210, over the 40^4 entries it allows
    ["--blocks", "6", "--n", "4"],
], ids=" ".join)
def test_realizations_past_the_bounds_are_refused_at_once(capsys, monkeypatch,
                                                          argv):
    monkeypatch.setattr(groups, "standard_tableaux",
                        lambda *args: pytest.fail("listed tableaux"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "schur-weyl", *argv)
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded:")
    assert time.perf_counter() - start < 1.0


def test_degree_11_of_m2_is_realized_in_seconds(capsys):
    # 2^11 = 2048 passes a budget of 100000; each of the 6 labels takes 10
    # Jucys-Murphy steps on a Gaussian block of at most 2048 x 16
    start = time.perf_counter()
    code, payload = run_json(capsys, "schur-weyl", "--blocks", "2", "--n",
                             "11", "--budget", "100000")
    assert code == 0
    assert [r["dim"] for r in payload["schur_weyl_irreps"]] == \
        [12, 10, 8, 6, 4, 2]
    assert time.perf_counter() - start < 5.0


def test_degree_400_of_c_stays_small(capsys):
    # S^400(C) is one 1-dimensional irreducible: its weight space, of 1 x 1
    # factors only, is one Gaussian block of 1 x 5, and no array is held
    # per factor or per pair of factors
    tracemalloc.start()
    try:
        code, payload = run_json(capsys, "schur-weyl", "--blocks", "1",
                                 "--n", "400")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and payload["schur_weyl_irreps"][0]["dim"] == 1
    assert peak < 100 * 2 ** 20


def test_schur_weyl_builds_no_orbit_labels_or_tensor_power(capsys,
                                                          monkeypatch):
    # the realization and its checks work on the generators dGamma(e_i) of
    # the symmetric power, so neither its orbit sums nor A^(x)n are built
    def refuse(*args, **kwargs):
        pytest.fail("built the orbit labels or the tensor power")

    for module in (algebra, classify, cli, acceptance):
        for name in ("symmetric_power_basis", "tensor_power"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert run_cli(capsys, "schur-weyl", "--blocks", "2,3", "--n", "3",
                   "--injectivity-nmax", "3")[0] == 0
    assert run_cli(capsys, "verify", "schur-weyl")[0] == 0


def test_symmetric_power_paths_build_no_tensor_power(capsys, monkeypatch):
    # the orbit sums are listed on the sorted block sequences directly, so
    # sympow, the crosscheck and the suites that read their span never
    # build A^(x)n
    def refuse(*args, **kwargs):
        pytest.fail("built the tensor power")

    for module in (algebra, classify, cli, acceptance):
        for name in ("tensor_power", "tensor_algebra"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert run_cli(capsys, "sympow", "--blocks", "2,3", "--n", "3")[0] == 0
    assert run_cli(capsys, "classify", "--blocks", "2,3", "--n", "3",
                   "--crosscheck")[0] == 0
    for suite in ("generation", "classification"):
        assert run_cli(capsys, "verify", suite)[0] == 0


def test_sympow_of_m2_m3_at_degree_4_stays_small(capsys):
    # the block form of S^4(M_2 (+) M_3) is 11605 monomials on ambient 211,
    # not 28561 on ambient 625; it peaked at 2.6 MB traced (the full
    # ambient at 14.6 MB, and its dense member stack needed ~11 GB)
    tracemalloc.start()
    try:
        code, payload = run_json(capsys, "sympow", "--blocks", "2,3",
                                 "--n", "4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert payload["wedderburn_block_dims"] == payload["enumerated_dims"]
    assert peak < 5.5 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["crossed", "--blocks", "1", "--n", "8"],
    ["induce", "--blocks", "1", "--n", "8"],
    ["crossed", "--blocks", "1,1", "--n", "2", "--samples", "3000000000"],
], ids=" ".join)
def test_sizes_past_the_tables_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("budget exceeded:")


def test_symmetric_group_past_the_tables_in_a_spec_exits_3(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"maps": [], "blocks": [1], "group": {"symmetric": 8}}))
    for command in ("crossed", "induce"):
        code, out, err = run_cli(capsys, command, "--action-spec", str(path))
        assert code == 3 and out == ""
        assert err.startswith("budget exceeded:")
