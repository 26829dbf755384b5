"""End-to-end runs of the batch driver: config validation, output files,
determinism, and exit codes."""

import csv
import json

import numpy as np
import pytest

from svlab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_TABLE_FAIL,
                       main)


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def discrete_cfg(**over):
    cfg = {
        "schema_version": 1,
        "horizon": 16,
        "kernel": {"entries": [[0, -0.5]]},
        "forcing": 1.0,
        "diffusion": 0.5,
        "ensemble": {"n_paths": 3},
    }
    cfg.update(over)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# happy paths ----------------------------------------------------------------

def test_simulate_discrete_outputs(tmp_path):
    cfg = write_config(tmp_path, "d.json", discrete_cfg())
    out = tmp_path / "out"
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "paths.csv")
    assert rows[0] == ["path_index", "n", "X_1"]
    assert len(rows) == 1 + 3 * 17
    sums = read_csv(out / "partial_sums.csv")
    assert sums[0] == ["path_index", "N", "S"]
    assert len(sums) == 1 + 3 * 3  # checkpoints default to N/4, N/2, N
    assert json.loads((out / "manifest.json").read_text())["master_seed"] == 0


@pytest.mark.parametrize("over,reason", [
    ({}, "fewer than 30 paths"),
    ({"ensemble": {"n_paths": 30, "keep_paths": False}, "checkpoints": [16]},
     "fewer than 2 checkpoints"),
])
def test_simulate_discrete_short_ensemble_reports_inconclusive(tmp_path, over,
                                                               reason):
    cfg = write_config(tmp_path, "d.json", discrete_cfg(**over))
    out = tmp_path / "out"
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "evidence.json").read_text())
    assert report["verdict"] == "inconclusive"
    assert report["diagnostics"]["reason"] == reason


def test_simulate_discrete_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "d.json", discrete_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-discrete", "--config", cfg, "--out", str(a)]) == EXIT_OK
    assert main(["simulate-discrete", "--config", cfg, "--out", str(b)]) == EXIT_OK
    for name in ("paths.csv", "partial_sums.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_paths(tmp_path):
    cfg = write_config(tmp_path, "d.json", discrete_cfg())
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["simulate-discrete", "--config", cfg, "--out", str(a)])
    main(["simulate-discrete", "--config", cfg, "--out", str(b), "--seed", "7"])
    main(["simulate-discrete", "--config", cfg, "--out", str(c), "--seed", "7"])
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()
    assert (b / "paths.csv").read_bytes() == (c / "paths.csv").read_bytes()
    assert json.loads((b / "manifest.json").read_text())["master_seed"] == 7


def test_threads_do_not_change_bytes(tmp_path):
    cfg = write_config(tmp_path, "d.json",
                       discrete_cfg(ensemble={"n_paths": 4}))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate-discrete", "--config", cfg, "--out", str(a)])
    main(["simulate-discrete", "--config", cfg, "--out", str(b),
          "--threads", "3"])
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()


def test_threads_do_not_change_bytes_multilag_d3(tmp_path):
    lag0 = [[-0.3, 0.05, 0.0], [0.02, -0.25, 0.04], [0.0, 0.03, -0.35]]
    lag2 = [[0.02, -0.01, 0.03], [0.0, 0.04, -0.02], [0.01, 0.0, 0.02]]
    lag5 = [[-0.01, 0.02, 0.0], [0.03, -0.02, 0.01], [0.0, 0.01, 0.03]]
    cfg = write_config(tmp_path, "d.json", discrete_cfg(
        dim=3, horizon=40, ensemble={"n_paths": 5},
        kernel={"entries": [[0, lag0], [2, lag2], [5, lag5]],
                "tail": {"start": 7, "coeff": lag2, "ratio": 0.5}}))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate-discrete", "--config", cfg, "--out", str(a)])
    main(["simulate-discrete", "--config", cfg, "--out", str(b),
          "--threads", "3"])
    assert len(read_csv(a / "paths.csv")) == 1 + 5 * 41
    for name in ("paths.csv", "partial_sums.csv", "evidence.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_discrete_null_p_writes_no_partial_sums(tmp_path):
    cfg = write_config(tmp_path, "d.json", discrete_cfg(p=None))
    out = tmp_path / "out"
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    assert (out / "paths.csv").exists()
    assert not (out / "partial_sums.csv").exists()
    assert not (out / "evidence.json").exists()
    default = tmp_path / "default"
    main(["simulate-discrete", "--config",
          write_config(tmp_path, "e.json", discrete_cfg()),
          "--out", str(default)])
    assert (default / "partial_sums.csv").exists()
    assert (out / "manifest.json").read_bytes() != \
        (default / "manifest.json").read_bytes()


def test_simulate_sve_keep_times_and_evidence(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "schema_version": 1,
        "grid": {"step_h": 0.01, "horizon_T": 2.0},
        "kernel": "neg-identity",
        "diffusion": "exp_decay(rate=1.0)",
        "p": 2.0,
        "ensemble": {"n_paths": 3, "keep_times": [0.5, 1.0]},
    })
    out = tmp_path / "out"
    assert main(["simulate-sve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "paths.csv")
    assert len(rows) == 1 + 3 * 2
    assert {r[1] for r in rows[1:]} == {"0.5", "1"}
    report = json.loads((out / "evidence.json").read_text())
    assert report["condition_id"] == "ensemble-lp-tail"
    assert report["verdict"] in ("summable-evidence", "divergent-evidence",
                                 "inconclusive")


def test_simulate_sfde_method_of_steps(tmp_path):
    cfg = write_config(tmp_path, "f.json", {
        "schema_version": 1,
        "grid": {"step_h": 0.01, "horizon_T": 2.0},
        "tau": 1.0,
        "kernel": {"atoms": [[-1.0, -0.5]]},
        "history": 1.0,
    })
    out = tmp_path / "out"
    assert main(["simulate-sfde", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "paths.csv")
    vals = {r[1]: float(r[2]) for r in rows[1:]}
    # deterministic halving delay: X(1) = 1 - 0.5 = 0.5 within O(h)
    assert vals["1"] == pytest.approx(0.5, abs=0.02)
    assert vals["-1"] == 1.0  # history segment replayed verbatim


def test_resolvent_discrete_halving(tmp_path):
    cfg = write_config(tmp_path, "r.json", {
        "schema_version": 1,
        "kind": "discrete",
        "kernel": {"entries": [[0, -0.5]]},
        "horizon": 8,
    })
    out = tmp_path / "out"
    assert main(["resolvent", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "resolvent.csv")
    assert rows[0] == ["n", "r_11"]
    got = [float(r[1]) for r in rows[1:]]
    np.testing.assert_allclose(got, 0.5 ** np.arange(9), rtol=1e-15)


def test_resolvent_differential_decay(tmp_path):
    cfg = write_config(tmp_path, "r.json", {
        "schema_version": 1,
        "kind": "differential",
        "kernel": "neg-identity",
        "grid": {"step_h": 0.001, "horizon_T": 1.0},
    })
    out = tmp_path / "out"
    assert main(["resolvent", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "resolvent.csv")
    assert rows[0] == ["t", "r_11"]
    assert float(rows[-1][1]) == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_check_cond_f_report(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "cond-f",
        "function": "exp_decay(rate=1.0)",
        "p": 2.0,
        "grid": {"step_h": 0.05, "horizon_T": 16.0},
        "thetas": [0.5, 1.0],
        "quad_step": 0.01,
    })
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["condition_id"] == "forcing-window-lp"
    assert report["verdict"] == "satisfied-evidence"


def test_check_irregular_windows_report(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "irregular-windows",
        "function": "const(c=1.0)",
        "p": 1.0,
        "breakpoints": [0.0, 1.0, 2.0, 3.0],
        "spacing_min": 1.0,
        "spacing_max": 1.0,
    })
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    np.testing.assert_allclose(report["partial_sums"], [0.0, 1.0, 2.0, 3.0],
                               atol=1e-9)


def test_sweep_writes_numbered_subdirs(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", {
        "schema_version": 1,
        "command": "resolvent",
        "param": "horizon",
        "values": [4, 8],
        "base": {
            "schema_version": 1,
            "kind": "discrete",
            "kernel": {"entries": [[0, -0.5]]},
            "horizon": 1,
        },
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(read_csv(out / "000" / "resolvent.csv")) == 1 + 5
    assert len(read_csv(out / "001" / "resolvent.csv")) == 1 + 9


def test_reproduce_list_and_run(tmp_path, capsys):
    assert main(["reproduce", "--list", "--out", str(tmp_path)]) == EXIT_OK
    listed = capsys.readouterr().out.split()
    assert "certificates" in listed
    assert "resolvent-exp" in listed

    assert main(["reproduce", "certificates",
                 "--out", str(tmp_path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "all rows PASS" in text
    rows = read_csv(tmp_path / "reproduce-certificates.csv")
    assert all(r[-1] == "PASS" for r in rows[1:])


def test_reproduce_unknown_experiment(tmp_path, capsys):
    assert main(["reproduce", "nope", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown experiment" in capsys.readouterr().err


def test_reproduce_requires_experiment(tmp_path, capsys):
    assert main(["reproduce", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "needs an experiment id" in capsys.readouterr().err


# config errors --------------------------------------------------------------

def test_unknown_key_reports_dotted_path(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json",
                       discrete_cfg(ensemble={"npaths": 3}))
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown key: ensemble.npaths" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = discrete_cfg()
    del cfg["horizon"]
    path = write_config(tmp_path, "d.json", cfg)
    assert main(["simulate-discrete", "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "missing key: horizon" in capsys.readouterr().err


def test_wrong_type_reports_expectation(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", discrete_cfg(horizon="16"))
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "bad type for horizon" in capsys.readouterr().err


def test_unsupported_schema_version(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", discrete_cfg(schema_version=2))
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "schema_version" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["simulate-discrete", "--config", str(tmp_path / "no.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate-discrete", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_condition_lists_known_ids(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "cond-q",
        "function": "zero",
    })
    assert main(["check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown condition id 'cond-q'" in err
    assert "cond-sigma-low" in err


def test_check_missing_function(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "fading",
    })
    assert main(["check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "missing key: function" in capsys.readouterr().err


def test_bad_corpus_name_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", discrete_cfg(forcing="wiggle()"))
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "bad forcing" in capsys.readouterr().err


def test_nonpositive_step_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "cond-f",
        "function": "zero",
        "grid": {"step_h": -0.01, "horizon_T": 8.0},
    })
    assert main(["check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: step_h must be positive" in capsys.readouterr().err


def test_two_point_probability_out_of_range_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", discrete_cfg(
        noise={"family": "two-point", "p1": 1.5}))
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: probabilities" in capsys.readouterr().err


def test_off_grid_keep_time_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        "schema_version": 1,
        "grid": {"step_h": 0.01, "horizon_T": 2.0},
        "kernel": "neg-identity",
        "ensemble": {"n_paths": 1, "keep_times": [0.505]},
    })
    assert main(["simulate-sve", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: location 0.505" in capsys.readouterr().err


def _cond_f_cfg(**over):
    cfg = {
        "schema_version": 1,
        "condition": "cond-f",
        "function": "exp_decay(rate=1.0)",
        "p": 2.0,
        "grid": {"step_h": 0.1, "horizon_T": 8.0},
    }
    cfg.update(over)
    return cfg


@pytest.mark.parametrize("over,message", [
    ({"quad_step": 0.03}, "quad_step must divide the grid step"),
    ({"thetas": [0.55]}, "location 0.55"),
    ({"checkpoint_times": [2.0, 4.0, 7.95]}, "location 7.95"),
    ({"thetas": []}, "need at least one window width"),
    ({"condition": "fading", "thetas": [0.500005]}, "location 0.500005"),
])
def test_check_argument_errors_are_config_errors(tmp_path, capsys, over,
                                                 message):
    cfg = write_config(tmp_path, "c.json", _cond_f_cfg(**over))
    assert main(["check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


# numeric failures -----------------------------------------------------------

def test_check_failure_after_evaluation_exits_numeric(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "lemma-p-lt-1",
        "function": "const(c=-1.0)",
        "p": 0.5,
        "horizon": 4,
    })
    assert main(["check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    assert "numeric error: negative forcing sample" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_exploding_path_exits_numeric(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", discrete_cfg(
        horizon=800, kernel={"entries": [[0, 4.0]]},
        ensemble={"n_paths": 1}, initial=[1.0]))
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


def test_table_fail_exit_code_is_distinct():
    assert {EXIT_OK, EXIT_TABLE_FAIL, EXIT_CONFIG, EXIT_NUMERIC} == {0, 1, 2, 3}
