import json

from cstarpow import classify, cli
from cstarpow.cli import main
from cstarpow.errors import DegenerateDrawError


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


def test_homog_budget_preflight(capsys):
    # degree 3 of M_2 has ambient 8, over a budget of 4
    code, _, err = run_cli(capsys, "homog", "--blocks", "2", "--degrees",
                           "1,3", "--budget", "4")
    assert code == 3
    assert "budget" in err.lower()


def test_homog_nmax_must_be_positive_and_is_honoured(capsys):
    assert run_cli(capsys, "homog", "--blocks", "2", "--nmax", "0")[0] == 2
    code, payload = run_json(capsys, "homog", "--blocks", "1", "--degrees",
                             "1,2", "--nmax", "3")
    assert code == 0
    assert payload["n_max"] == 3
    assert len(payload["component_norms_at_sample"]) == 4


def test_crossed_samples_must_be_non_negative(capsys):
    assert run_cli(capsys, "crossed", "--blocks", "1,1", "--samples",
                   "-1")[0] == 2


def test_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "sympow", "--blocks", "2,3", "--n", "3",
                           "--budget", "50")
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
    def fail(*args, **kwargs):
        raise DegenerateDrawError("no separating draw")

    monkeypatch.setattr(classify, "minimal_central_projections", fail)
    code, out, err = run_cli(capsys, "sympow", "--blocks", "2", "--n", "2")
    assert code == 4
    assert out == ""
    assert "no separating draw" in err and "Traceback" not in err


def test_memory_error_exits_3(capsys, monkeypatch):
    def fail(args, cfg):
        raise MemoryError("Unable to allocate 11.4 GiB")

    monkeypatch.setitem(cli._COMMANDS, "sympow", fail)
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
