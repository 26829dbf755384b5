"""End-to-end runs of the batch driver: config validation, output files,
determinism, and exit codes."""

import copy
import csv
import json

import numpy as np
import pytest

from svlab import cli, conditions, continuous, core, discrete, reproduce
from svlab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_TABLE_FAIL,
                       main)
from svlab.conditions import diffusion_window_evidence
from svlab.core import CompiledMeasure, GridSpec, MatrixKernelSeq, NoiseSpec
from svlab.corpus import resolve


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


# 30 paths and checkpoints [16, 32, 64]: the tail rule compares 32 and 64
@pytest.mark.parametrize("over, verdict", [
    ({"initial": [1.0]}, "summable-evidence"),
    ({"diffusion": 0.5}, "divergent-evidence"),
    ({"diffusion": 0.5, "noise": {"family": "uniform"}},
     "divergent-evidence"),
], ids=["halving", "gaussian-noise", "uniform-noise"])
def test_simulate_discrete_tail_verdict(tmp_path, over, verdict):
    cfg = write_config(tmp_path, "d.json", {
        "schema_version": 1, "horizon": 64,
        "kernel": {"entries": [[0, -0.5]]},
        "ensemble": {"n_paths": 30}, **over})
    out = tmp_path / "out"
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "evidence.json").read_text())
    assert report["verdict"] == verdict
    assert report["checkpoints"] == [32, 64]
    assert report["params"] == {"half_index": 32, "full_index": 64}
    assert report["diagnostics"]["n_paths"] == 30
    rows = read_csv(out / "paths.csv")[1:]
    x1 = [float(r[2]) for r in rows if r[1] == "1"]
    if "initial" in over:
        # X(n) = 2^-n on every path, so S(N) = sum 4^-n up to N
        assert report["diagnostics"]["median_s_full"] == \
            pytest.approx(4 / 3, rel=1e-15)
    elif "noise" in over:
        # X(1) = 0.5 xi(0) with xi uniform on [0, 1)
        assert all(0.0 <= x < 0.5 for x in x1)
    else:
        assert min(x1) < 0.0


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


def _sve_cfg():
    return {
        "schema_version": 1,
        "grid": {"step_h": 0.02, "horizon_T": 4.0},
        "kernel": {"atoms": [[0.0, -1.5], [0.2, 0.3]], "density": {
            "name": "exp_decay(rate=2.0)", "start": 0.0, "step": 0.02,
            "count": 40, "scale": -0.5}},
        "forcing": "osc(alpha=0.1,beta=0.5)",
        "diffusion": 0.4,
        "p": 2.0,
        "ensemble": {"n_paths": 5},
    }


def _sfde_cfg():
    return {
        "schema_version": 1,
        "grid": {"step_h": 0.02, "horizon_T": 3.0},
        "tau": 1.0,
        "kernel": {"atoms": [[-1.0, -0.5], [0.0, -0.2]], "density": {
            "name": "const(c=1.0)", "start": -1.0, "step": 0.02,
            "count": 50, "scale": 0.1}},
        "history": 1.0,
        "diffusion": 0.3,
        "ensemble": {"n_paths": 5},
    }


@pytest.mark.parametrize("command,cfg,names", [
    ("simulate-sve", _sve_cfg(),
     ("paths.csv", "partial_integrals.csv", "evidence.json")),
    ("simulate-sfde", _sfde_cfg(), ("paths.csv",)),
    # three blocks of paths, so --threads 3 gives each worker one
    ("simulate-sve", {**_sve_cfg(), "ensemble": {"n_paths": 17}},
     ("paths.csv", "partial_integrals.csv", "evidence.json")),
    ("simulate-sfde", {**_sfde_cfg(), "ensemble": {"n_paths": 17}},
     ("paths.csv",)),
])
def test_threads_do_not_change_bytes_continuous(tmp_path, command, cfg, names):
    path = write_config(tmp_path, "c.json", cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", path, "--out", str(a)]) == EXIT_OK
    assert main([command, "--config", path, "--out", str(b),
                 "--threads", "3"]) == EXIT_OK
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sve_ensemble_compiles_kernel_once(tmp_path, monkeypatch):
    built = []
    init = CompiledMeasure.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledMeasure, "__init__", counting)
    path = write_config(tmp_path, "s.json", _sve_cfg())
    assert main(["simulate-sve", "--config", path, "--threads", "2",
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(read_csv(tmp_path / "o" / "partial_integrals.csv")) == 1 + 5 * 3
    assert len(built) == 1


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


def test_simulate_sfde_history_is_a_signal_like_forcing(tmp_path):
    # a number, the same constant as a corpus expression, and null (zero)
    base = {"schema_version": 1, "grid": {"step_h": 0.05, "horizon_T": 1.0},
            "tau": 0.5, "kernel": {"atoms": [[-0.5, -0.5]]},
            "diffusion": 0.2, "ensemble": {"n_paths": 2}}
    paths = {}
    for history in (0.75, "const(c=0.75)", None, 0.0):
        out = tmp_path / f"o-{history}"
        assert main(["simulate-sfde", "--config",
                     write_config(tmp_path, "f.json",
                                  {**base, "history": history}),
                     "--out", str(out)]) == EXIT_OK
        paths[history] = (out / "paths.csv").read_bytes()
    assert paths[0.75] == paths["const(c=0.75)"]
    assert paths[None] == paths[0.0]
    assert paths[None] != paths[0.75]


@pytest.mark.parametrize("command, signal", [
    ("simulate-sfde", "history"),
    ("simulate-sve", "forcing"),
])
def test_time_profile_is_not_a_vector_when_dim_equals_the_times(
        tmp_path, command, signal):
    # dim 2 on two sample times: a scalar profile of time is s(t_k) in both
    # components of row k, not held constant as a 2-vector, so under a
    # diagonal kernel with equal entries and no diffusion the components
    # stay equal
    out = tmp_path / "o"
    cfg = {"schema_version": 1, "dim": 2,
           "grid": {"step_h": 0.5, "horizon_T": 1.0},
           "kernel": {"atoms": [[0.0, [[-0.5, 0.0], [0.0, -0.5]]]]},
           signal: "exp_decay(rate=1.0)", "ensemble": {"n_paths": 1}}
    if command == "simulate-sfde":
        cfg.update(tau=0.5, kernel={"atoms": [[-0.5, [[-0.5, 0.0],
                                                       [0.0, -0.5]]]]})
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "paths.csv")[1:]
    assert [r[2] for r in rows] == [r[3] for r in rows]
    assert any(float(r[2]) != 0.0 for r in rows)


@pytest.mark.parametrize("kernel, kernel_2", [
    ("neg-identity", "neg-identity"),
    ({"atoms": [[0.5, -0.5]]}, {"atoms": [[0.5, [[-0.5, 0.0], [0.0, -0.5]]]]}),
], ids=["neg-identity", "lagged-atom"])
def test_dim2_simulate_sve_reads_scalar_signals_in_every_component(
        tmp_path, kernel, kernel_2):
    # a number forcing is 0.1 in both components: without diffusion each
    # component is the dim-1 path, bit for bit; a number diffusion is
    # 0.3 I, independent noise per component
    base = {"schema_version": 1, "grid": {"step_h": 0.05, "horizon_T": 2.0},
            "forcing": 0.1, "ensemble": {"n_paths": 3}}
    runs = {}
    for name, over in (("d1", {"kernel": kernel}),
                       ("d2", {"kernel": kernel_2, "dim": 2}),
                       ("noisy", {"kernel": kernel_2, "dim": 2,
                                  "diffusion": 0.3})):
        out = tmp_path / name
        assert main(["simulate-sve", "--config",
                     write_config(tmp_path, f"{name}.json", {**base, **over}),
                     "--out", str(out)]) == EXIT_OK
        runs[name] = read_csv(out / "paths.csv")
    one, two, noisy = runs["d1"], runs["d2"], runs["noisy"]
    assert two[0] == ["path_index", "t", "X_1", "X_2"]
    assert [r[:3] for r in two[1:]] == one[1:]
    assert [r[3] for r in two[1:]] == [r[2] for r in one[1:]]
    assert any(r[2] != r[3] for r in noisy[1:])


def test_dim3_simulate_discrete_matches_hand_tiled_signals(tmp_path):
    # a corpus forcing and a number diffusion give the bytes of the system
    # built from hand-tiled arrays: f 1 and sigma I at the steps 0..N-1
    N, d, M = 12, 3, 3
    w0 = [[-0.5, 0.1, 0.0], [0.0, -0.4, 0.0], [0.05, 0.0, -0.3]]
    w2 = [[0.1, 0.0, 0.0], [0.0, 0.05, 0.02], [0.0, 0.0, 0.1]]
    cfg = write_config(tmp_path, "d.json", discrete_cfg(
        dim=d, horizon=N, kernel={"entries": [[0, w0], [2, w2]]},
        forcing="exp_decay(rate=0.5)", diffusion=0.4,
        ensemble={"n_paths": M}))
    out = tmp_path / "o"
    assert main(["simulate-discrete", "--config", cfg,
                 "--out", str(out)]) == EXIT_OK
    steps = np.arange(N, dtype=float)
    f_vals = np.tile(np.asarray(resolve("exp_decay(rate=0.5)")(steps),
                                float)[:, None], (1, d))
    sig_vals = np.full(N, 0.4)[:, None, None] * np.eye(d)[None]
    sys_ = discrete.DiscreteSystem(
        MatrixKernelSeq(d, {0: np.array(w0), 2: np.array(w2)}), N, f_vals,
        sig_vals, NoiseSpec.gaussian(d))
    lines = ["path_index,n,X_1,X_2,X_3"]
    for i in range(M):
        X = discrete.simulate_direct(sys_, master_seed=0, path_index=i)
        lines += ["%d,%d," % (i, n) + ",".join("%.17g" % x for x in row)
                  for n, row in enumerate(X)]
    assert (out / "paths.csv").read_bytes() == \
        ("\r\n".join(lines) + "\r\n").encode()


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


def test_check_window_rows_with_zero_half_sum_stay_finite(tmp_path):
    """A spike train has no mass before t = 2, so the half sum of this
    width is 0 and its tail ratio inf. The row carries only finite margins
    (tail_bar, tail_margin), so the strict report is written and the run
    exits 0."""
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "cond-f",
        "function": "spike(beta=0.32)",
        "thetas": [0.5],
        "grid": {"step_h": 0.01, "horizon_T": 2.0},
        "checkpoint_times": [0.5, 1.0, 2.0],
    })
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    row, = json.loads((out / "report.json").read_text(),
                      parse_constant=pytest.fail)["diagnostics"]["per_theta"]
    half, full = row["checkpoint_values"][1:]
    assert half == 0.0 < full
    assert row["tail_bar"] == 1e-8
    assert row["tail_margin"] == full - 1e-8
    assert "tail_ratio" not in row


def test_check_cond_sigma_high_report_matches_library(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "condition": "cond-sigma-high",
        "sigma": "sqrt(spike(beta=0.32))",
        "p": 4.0,
        "grid": {"step_h": 0.05, "horizon_T": 16.0},
        "quad_step": 0.01,
    })
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    want = diffusion_window_evidence(resolve("sqrt(spike(beta=0.32))"), 4.0,
                                     GridSpec(0.05, 16.0), quad_step=0.01)
    assert (out / "report.json").read_text() == want.to_json()


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


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_reproduce_rejects_run_flags(tmp_path, capsys, flag):
    # a desk fixes its own seeds and threads; argparse rejects the flags
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "certificates", flag, "5", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not (tmp_path / "reproduce-certificates.csv").exists()


def test_main_reuses_one_parser_per_process(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    good = write_config(tmp_path, "d.json", discrete_cfg())
    bad = write_config(tmp_path, "bad.json", discrete_cfg(typo=1))
    outs = [tmp_path / f"out{i}" for i in range(3)]
    codes = [main(["simulate-discrete", "--config", cfg, "--out", str(out)])
             for cfg, out in zip((good, bad, good), outs)]
    assert codes == [EXIT_OK, EXIT_CONFIG, EXIT_OK]
    assert not outs[1].exists()
    assert "config error: unknown key: typo" in capsys.readouterr().err
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[2].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["simulate-discrete", "--config", good, "--bogus", "1"])
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert "unrecognized arguments: --bogus 1" in errs[0]
    assert errs[0] == errs[1]
    assert main(["simulate-discrete", "--config", good,
                 "--out", str(tmp_path / "out3")]) == EXIT_OK
    for name in names:
        assert (tmp_path / "out3" / name).read_bytes() == \
            (outs[0] / name).read_bytes()


def _csv_writer_bytes(path, header, ints, floats):
    """csv.writer on the %.17g strings of each value, the formatter the
    table writer replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([int(v) for v in row[:len(ints)]]
                    + ["%.17g" % float(v) for v in row[len(ints):]]
                    for row in zip(*ints, *floats.T))
    return path.read_bytes()


def test_table_writer_bytes_match_csv_writer(tmp_path):
    """The chunked writer against csv.writer: extreme values, then tables
    on both sides of a chunk boundary, with and without integer columns,
    carrying the %.17g values hardest to round (the exact tie 2**-25, the
    doubles beside powers of ten) and the non-finite values a diverging
    discrete resolvent writes unchecked."""
    floats = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                       [0.1, -2.5e-300, 1.0 / 3.0],
                       [1e16, -1.7976931348623157e308, 0.0]])
    ints = [np.array([0, 7, 123456789012]), np.array([-3, 0, 2 ** 40])]
    header = ["path_index", "n", "X_1", "X_2", "X_3"]
    got = tmp_path / "got.csv"
    cli._write_table(str(got), header, ints, floats)
    assert got.read_bytes() == _csv_writer_bytes(tmp_path / "want.csv",
                                                 header, ints, floats)
    assert got.read_bytes().splitlines()[1] == \
        b"0,-3,-0,4.9406564584124654e-324,1.7976931348623157e+308"
    cli._write_table(str(got), ["t", "r_11"], [], floats[:, :2])
    assert got.read_bytes().splitlines()[1:] == [
        b"-0,4.9406564584124654e-324", b"0.10000000000000001,-2.5e-300",
        b"10000000000000000,-1.7976931348623157e+308"]

    hard = [2.0 ** -25, np.nextafter(1e16, 0), 1e17, 9.9999999999999991e-05,
            1e-5, np.inf, -np.inf, np.nan]
    chunk = cli.TABLE_CHUNK
    for rows in (0, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(
            -20, 20, (rows, 3))
        floats.ravel()[:min(rows * 3, len(hard))] = hard[:rows * 3]
        # and once more across the middle of the table
        floats[rows // 2:rows // 2 + 1] = [np.nan, np.inf, 2.0 ** -25]
        for n_ints in (0, 2):
            ints = [np.arange(rows) + k * 2 ** 40 for k in range(n_ints)]
            header = [f"i_{k}" for k in range(n_ints)] + ["X_1", "X_2", "X_3"]
            cli._write_table(str(got), header, ints, floats)
            assert got.read_bytes() == _csv_writer_bytes(
                tmp_path / "want.csv", header, ints, floats)
    text = got.read_bytes()
    assert text.count(b"nan,inf,2.9802322387695312e-08\r\n") == 1
    assert b",9999999999999998,1e+17\r\n" in text
    assert b"9.9999999999999991e-05,1.0000000000000001e-05,inf\r\n" in text


# config errors --------------------------------------------------------------

def _check_cfg(condition, **over):
    cfg = {"schema_version": 1, "condition": condition,
           "function": "const(c=1.0)", "sigma": "const(c=1.0)"}
    if condition in ("cond-f", "cond-sigma-high"):
        cfg["grid"] = {"step_h": 0.5, "horizon_T": 16.0}
    cfg.update(over)
    return cfg


@pytest.mark.parametrize("command,cfg,message", [
    ("simulate-discrete", discrete_cfg(checkpoints=[10, 20, 80]),
     "checkpoints must be integers in [0, 16], got [10, 20, 80]"),
    ("simulate-discrete", discrete_cfg(checkpoints=[-1, 10, 16]),
     "checkpoints must be integers in [0, 16]"),
    ("simulate-discrete", discrete_cfg(checkpoints=[4, 8.5, 16]),
     "checkpoints must be integers in [0, 16]"),
    ("simulate-discrete", discrete_cfg(checkpoints=[8, 4, 16]),
     "checkpoints must strictly increase, got [8, 4, 16]"),
    ("simulate-discrete", discrete_cfg(checkpoints=[4, 8, 8]),
     "checkpoints must strictly increase"),
    ("simulate-discrete", discrete_cfg(p=None, checkpoints=[4, 2]),
     "checkpoints must strictly increase"),
    ("simulate-sve", {**_sve_cfg(), "checkpoint_times": [3.0, 1.0, 2.0]},
     "checkpoint_times must strictly increase, got [3.0, 1.0, 2.0]"),
    ("simulate-sve", {**_sve_cfg(), "checkpoint_times": [1.0, 2.0, 2.0]},
     "checkpoint_times must strictly increase"),
    ("simulate-sve", {**_sve_cfg(), "checkpoint_times": [1.0]},
     "need at least two checkpoints"),
    # default checkpoints [0, 1, 2]: the tail needs full - half >= 2
    ("simulate-discrete", discrete_cfg(horizon=2, ensemble={"n_paths": 30}),
     "horizon too short for a tail comparison"),
    ("check", _check_cfg("cond-f", checkpoint_times=[16.0, 8.0, 4.0]),
     "checkpoint_times must strictly increase, got [16.0, 8.0, 4.0]"),
    ("check", _check_cfg("cond-sigma-high", checkpoint_times=[16.0, 8.0, 4.0]),
     "checkpoint_times must strictly increase, got [16.0, 8.0, 4.0]"),
    ("check", _check_cfg("cond-sigma-low", p=1.5, n_windows=64,
                         checkpoints=[64, 32, 16]),
     "checkpoints must strictly increase, got [64, 32, 16]"),
    ("check", _check_cfg("s-epsilon", n_windows=64, checkpoints=[64, 32, 16]),
     "checkpoints must strictly increase, got [64, 32, 16]"),
    ("check", _check_cfg("cond-sigma-low", p=1.5, n_windows=4,
                         checkpoints=[5]),
     "checkpoints must be integers in [0, 4], got [5]"),
    ("check", _check_cfg("cond-sigma-low", p=1.5, n_windows=64,
                         checkpoints=[1000]),
     "checkpoints must be integers in [0, 64], got [1000]"),
    ("check", _check_cfg("s-epsilon", n_windows=64, checkpoints=[1000]),
     "checkpoints must be integers in [0, 64], got [1000]"),
    # the parent truncated these with int()
    ("check", _check_cfg("cond-sigma-low", p=1.5, n_windows=64,
                         checkpoints=[16.0, 32, 64]),
     "checkpoints must be integers in [0, 64], got [16.0, 32, 64]"),
    ("simulate-discrete", discrete_cfg(checkpoints=[True, 8, 16]),
     "checkpoints must be integers in [0, 16]"),
])
def test_bad_checkpoints_are_config_errors(tmp_path, capsys, monkeypatch,
                                           command, cfg, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the config was checked")

    monkeypatch.setattr(cli, "run_paths", no_work)
    monkeypatch.setattr(continuous, "ensemble", no_work)
    monkeypatch.setattr(conditions, "window_profiles", no_work)
    monkeypatch.setattr(conditions, "unit_windows", no_work)
    path = write_config(tmp_path, "c.json", cfg)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    _check_cfg("cond-f", function="exp_decay(rate=1.0)", p=2.0,
               thetas=[0.5, 1.0, 2.0]),
    _check_cfg("cond-sigma-high", sigma="sqrt(spike(beta=0.32))", p=4.0,
               thetas=[0.5, 1.0], quad_step=0.01),
    _check_cfg("fading", function="osc(alpha=0.1,beta=0.5)",
               thetas=[0.5, 1.0], segment_times=[1.0, 2.0, 3.0],
               fading_step=0.01)], ids=lambda c: c["condition"])
def test_window_checks_build_their_profiles_in_one_call(tmp_path,
                                                        monkeypatch, cfg):
    """cond-f, cond-sigma-high and fading get every width's profile from
    one window_profiles call, so a guard that patches window_profiles sees
    all of their evaluation."""
    calls = []
    orig = conditions.window_profiles

    def counting(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(conditions, "window_profiles", counting)
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["check", "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    assert calls == [cfg["thetas"]]
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [row["theta"] for row in report["diagnostics"]["per_theta"]] == \
        cfg["thetas"]


@pytest.mark.parametrize("condition", ["cond-sigma-low", "s-epsilon"])
@pytest.mark.parametrize("cps", [[5], [0]])
def test_unit_window_checks_read_one_checkpoint_as_inconclusive(
        tmp_path, condition, cps):
    # a lone (or, after dropping 0, no) checkpoint has no tail to compare
    path = write_config(tmp_path, "c.json", _check_cfg(
        condition, p=1.5, n_windows=64, checkpoints=cps))
    assert main(["check", "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["verdict"] == "inconclusive"
    assert report["diagnostics"]["reason"] == "fewer than 3 checkpoints"


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


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]],
                         ids=["no-seed", "seed"])
@pytest.mark.parametrize("config", ["list", "dir", "latin-1", "deep"])
def test_bad_config_file_is_config_error(tmp_path, capsys, config, seed):
    path = tmp_path / config
    if config == "list":
        path.write_text("[1, 2]")
    elif config == "dir":
        path.mkdir()
    elif config == "deep":
        path.write_text("[" * 100000 + "]" * 100000)
    else:
        # bytes that are not UTF-8
        path.write_bytes(json.dumps(discrete_cfg(forcing="z\xe9ro"),
                                    ensure_ascii=False).encode("latin-1"))
    out = tmp_path / "o"
    assert main(["simulate-discrete", "--config", str(path), "--out",
                 str(out)] + seed) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert ("config must be an object" if config == "list"
            else "cannot read config") in err
    assert not out.exists()


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


@pytest.mark.parametrize("tau,atom,message", [
    (1.0, 0.5, "delay kernel must be supported in [-tau, 0]"),
    (-1.0, -1.0, "delay tau must be positive"),
    (0.004, 0.0, "tau must span at least one grid step"),
])
@pytest.mark.parametrize("command", ["resolvent", "simulate-sfde"])
def test_delay_rule_is_config_error(tmp_path, capsys, command, tau, atom,
                                    message):
    cfg = {
        "schema_version": 1,
        "grid": {"step_h": 0.01, "horizon_T": 1.0},
        "tau": tau,
        "kernel": {"atoms": [[atom, -0.5]]},
    }
    if command == "resolvent":
        cfg["kind"] = "functional"
    path = write_config(tmp_path, "r.json", cfg)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra,location", [
    ("simulate-sve", {}, 0.015),
    ("simulate-sfde", {"tau": 1.0}, -0.015),
    ("resolvent", {"kind": "differential"}, 0.015),
])
def test_off_grid_kernel_atom_is_config_error(tmp_path, capsys, command, extra,
                                              location):
    cfg = {
        "schema_version": 1,
        "grid": {"step_h": 0.01, "horizon_T": 1.0},
        "kernel": {"atoms": [[location, -0.5]]},
        **extra,
    }
    path = write_config(tmp_path, "k.json", cfg)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: location 0.015" in capsys.readouterr().err


def test_differential_resolvent_of_delay_kernel_is_config_error(tmp_path,
                                                              capsys):
    path = write_config(tmp_path, "r.json", {
        "schema_version": 1,
        "kind": "differential",
        "grid": {"step_h": 0.01, "horizon_T": 1.0},
        "kernel": {"atoms": [[-0.5, -0.5]]},
    })
    assert main(["resolvent", "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert ("config error: differential resolvent takes a kernel on "
            "[0, inf)") in capsys.readouterr().err


def _resolvent_cfg(kernel):
    return {"schema_version": 1, "kind": "discrete", "horizon": 8,
            "kernel": kernel}


def _density_cfg(**over):
    cfg = _sve_cfg()
    cfg["kernel"]["density"].update(over)
    return cfg


@pytest.mark.parametrize("command,cfg,message", [
    # the parent truncated or coerced these with int() and exited 0
    ("resolvent", _resolvent_cfg({"entries": [[0.7, -0.5]]}),
     "bad type for kernel.entries[0] lag: expected int, got float"),
    ("resolvent", _resolvent_cfg({"entries": [[0, -0.5], ["1", 0.1]]}),
     "bad type for kernel.entries[1] lag: expected int, got str"),
    ("resolvent", _resolvent_cfg({"entries": [[True, -0.5]]}),
     "bad type for kernel.entries[0] lag: expected int, got bool"),
    ("simulate-discrete", discrete_cfg(kernel={"entries": [[2.0, -0.5]]}),
     "bad type for kernel.entries[0] lag: expected int, got float"),
    ("resolvent", _resolvent_cfg({"entries": [[0, -0.5]], "tail": {
        "start": 1.9, "coeff": 0.1, "ratio": 0.5}}),
     "bad type for kernel.tail.start: expected int, got float"),
    ("simulate-sve", _density_cfg(count=2.5),
     "bad type for kernel.density.count: expected int, got float"),
    ("simulate-sfde", {**_sfde_cfg(), "kernel": {"density": {
        "name": "const(c=1.0)", "start": -1.0, "step": 0.02, "count": True}}},
     "bad type for kernel.density.count: expected int, got bool"),
    # the dotted-path messages of the tables
    ("resolvent", _resolvent_cfg({"entries": [[0, -0.5]], "tail": {
        "start": 1, "coeff": 0.1, "ratio": 0.5, "rate": 1}}),
     "unknown key: kernel.tail.rate"),
    ("resolvent", _resolvent_cfg({"entries": [[0, -0.5]], "tail": {
        "start": 1, "coeff": 0.1}}), "missing key: kernel.tail.ratio"),
    ("resolvent", _resolvent_cfg({"tail": None}),
     "missing key: kernel.entries"),
    ("simulate-sve", _density_cfg(cells=4),
     "unknown key: kernel.density.cells"),
    ("simulate-sve", _density_cfg(step=None),
     "missing key: kernel.density.step"),
])
def test_kernel_lags_and_counts_must_be_integers(tmp_path, capsys, command,
                                                 cfg, message):
    path = write_config(tmp_path, "k.json", cfg)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


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
    ({"p": 0.5}, "exponent p must be >= 1"),
    ({"condition": "cond-sigma-high", "sigma": "const(c=1.0)", "p": 1.5},
     "cond-sigma-high is for p >= 2"),
    ({"condition": "lemma-p-lt-1", "p": 1.5, "horizon": 4},
     "p must lie in (0, 1)"),
    # the parent rounded 1 / step: 0.7 ran at step 1, 3.0 gave NaN windows
    # or a ZeroDivisionError
    ({"condition": "cond-sigma-low", "sigma": "exp_decay(rate=1.0)",
      "window_step": 0.7}, "window_step must divide 1"),
    ({"condition": "cond-sigma-low", "sigma": "exp_decay(rate=1.0)",
      "window_step": 3.0}, "window_step must divide 1"),
    ({"condition": "s-epsilon", "sigma": "const(c=1.0)", "window_step": 0.7},
     "window_step must divide 1"),
    ({"condition": "lemma-p-lt-1", "p": 0.5, "horizon": 4, "step_h": 3.0},
     "step_h must divide 1"),
    ({"condition": "lemma-p-lt-1", "p": 0.5, "horizon": 4, "step_h": 0.7},
     "step_h must divide 1"),
    # every corpus argument is a finite int or float; spike(0.32), nope(x=1)
    # and spike(beta=0.32 break the grammar
    ({"function": "const(c=None)"}, "bad function 'const(c=None)': const "
     "argument c must be a finite number, got None"),
    ({"function": "const(c=True)"}, "bad function 'const(c=True)': const "
     "argument c must be a finite number, got True"),
    ({"function": "const(c=1j)"}, "bad function 'const(c=1j)': const "
     "argument c must be a finite number, got 1j"),
    ({"function": 'exp_decay(rate="x")'}, "bad function "
     "'exp_decay(rate=\"x\")': exp_decay argument rate must be a finite "
     "number, got 'x'"),
    ({"function": "exp_decay(rate=1e999)"}, "bad function "
     "'exp_decay(rate=1e999)': exp_decay argument rate must be a finite"),
    ({"function": "spike(0.32)"}, "bad function 'spike(0.32)': spike takes "
     "key=value arguments only"),
    ({"function": "nope(x=1)"}, "bad function 'nope(x=1)': unknown corpus "
     "function 'nope'"),
    ({"function": "spike(beta=0.32"}, "bad function 'spike(beta=0.32': "
     "cannot parse corpus expression"),
    # a key given twice
    ({"function": "exp_decay(rate=1.0, rate=-1000.0)"}, "bad function "
     "'exp_decay(rate=1.0, rate=-1000.0)': exp_decay argument rate is given "
     "more than once"),
])
def test_check_argument_errors_are_config_errors(tmp_path, capsys,
                                                 monkeypatch, over, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the config was checked")

    for name in ("window_profiles", "unit_windows", "exp_filter_equivalence"):
        monkeypatch.setattr(conditions, name, no_work)
    cfg = write_config(tmp_path, "c.json", _cond_f_cfg(**over))
    assert main(["check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# numeric failures -----------------------------------------------------------

@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_check_report_with_non_finite_values_exits_numeric(tmp_path, capsys):
    # valid arguments whose values overflow: e^{1000 t} is inf past t = 0.71
    cfg = write_config(tmp_path, "c.json",
                       _cond_f_cfg(function="exp_decay(rate=-1000.0)"))
    out = tmp_path / "o"
    assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    assert "numeric error: non-finite values in report" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_evidence_json_writes_an_infinite_ratio_as_a_string(tmp_path):
    # X = 0 until the spike diffusion starts at t = 2, so the half sum at
    # t = 1 is 0 and the full sum at t = 4 is not: the ratio is infinite
    cfg = write_config(tmp_path, "s.json", {
        "schema_version": 1,
        "grid": {"step_h": 0.01, "horizon_T": 4.0},
        "kernel": {"atoms": [[0.0, -1.0]]},
        "diffusion": "sqrt(spike(beta=0.32))",
        "forcing": "zero",
        "p": 2.0,
        "checkpoint_times": [0.5, 1.0, 4.0],
        "ensemble": {"n_paths": 3}})
    out = tmp_path / "o"
    assert main(["simulate-sve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("evidence.json", "manifest.json"):
        json.loads((out / name).read_text(), parse_constant=_reject_constant)
    diag = json.loads((out / "evidence.json").read_text())["diagnostics"]
    assert diag["median_s_half"] == 0.0 < diag["median_s_full"]
    assert diag["median_ratio"] == diag["ratio_margin"] == "inf"


def test_json_text_names_non_finite_floats_and_strict_refuses_them():
    tree = {"b": np.array([np.inf, -np.inf]), "a": (np.float64(np.nan),
                                                    np.int64(3), 0.5)}
    text = core.json_text(tree)
    assert text == json.dumps({"a": ["nan", 3, 0.5], "b": ["inf", "-inf"]},
                              sort_keys=True, indent=2) + "\n"
    with pytest.raises(ValueError):
        core.json_text(tree, strict=True)
    assert core.json_text({"a": [1.0]}, strict=True) == \
        core.json_text({"a": [1.0]})


def test_json_integer_beyond_float_range_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", _cond_f_cfg(p=10 ** 400))
    out = tmp_path / "o"
    assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: p must be a finite number" in capsys.readouterr().err
    assert not out.exists()


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


# config domains -------------------------------------------------------------

def _leaves(schema, where):
    for key, spec in schema.items():
        if key == "__optional__":
            continue
        if isinstance(spec, dict):
            yield from _leaves(spec, f"{where}.{key}")
        else:
            yield f"{where}.{key}", spec


def test_every_numeric_or_list_leaf_declares_a_domain():
    tables = {f"SCHEMAS[{name!r}]": schema
              for name, schema in cli.SCHEMAS.items()}
    tables.update(_KERNEL_SEQ=cli._KERNEL_SEQ, _TAIL=cli._TAIL,
                  _MEASURE=cli._MEASURE, _DENSITY=cli._DENSITY)
    unchecked = [name for where, table in tables.items()
                 for name, spec in _leaves(table, where)
                 if set(spec.kinds) & {int, float, list}
                 and spec.domain is None]
    assert unchecked == []


@pytest.mark.parametrize("command,cfg", [
    ("check", {**_check_cfg("irregular-windows"), "p": 1.0,
               "breakpoints": [0.0, 1.0, 2.0], "spacing_min": 1.0,
               "spacing_max": 1.0, "window_step": 0}),
    ("simulate-sve", {**_sve_cfg(), "kernel": {"atoms": [[True, -0.5]]}}),
    ("check", _cond_f_cfg(thetas=[None])),
    ("check", _cond_f_cfg(thetas=[-1.0])),
    ("simulate-sve", {**_sve_cfg(), "norm": "bogus"}),
    ("simulate-sve", {**_sve_cfg(), "ensemble": {"n_paths": 0}}),
    ("simulate-discrete", discrete_cfg(p=-1)),
    ("check", _cond_f_cfg(condition="lemma-p-lt-1", p=0.5, horizon=4,
                          filter_rate=0)),
])
def test_out_of_domain_leaves_are_config_errors(tmp_path, capsys, monkeypatch,
                                                command, cfg):
    # each of these once exited 3, ran with a coerced value or ended in a
    # traceback; now the schema rejects it before any work begins
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the config was checked")

    monkeypatch.setattr(cli, "run_paths", no_work)
    monkeypatch.setattr(continuous, "ensemble", no_work)
    for name in ("window_profiles", "exp_filter_equivalence",
                 "trapezoid_refined"):
        monkeypatch.setattr(conditions, name, no_work)
    path = write_config(tmp_path, "c.json", cfg)
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: " in capsys.readouterr().err


def test_manifest_digests_the_config_as_given(tmp_path):
    # the typed value 2.0 runs both configs; the digest keeps the 2 as given
    outs = []
    for horizon in (2, 2.0):
        cfg = {**_sve_cfg(), "grid": {"step_h": 0.02, "horizon_T": horizon}}
        out = tmp_path / f"o{horizon!r}"
        assert main(["simulate-sve", "--config",
                     write_config(tmp_path, "s.json", cfg),
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for name in ("paths.csv", "partial_integrals.csv", "evidence.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    digests = [json.loads((o / "manifest.json").read_text())["config_digest"]
               for o in outs]
    assert digests[0] != digests[1]


@pytest.mark.parametrize("command, cfg", [
    ("simulate-discrete", discrete_cfg()),
    ("simulate-sve", {**_sve_cfg(), "grid": {"step_h": 0.02, "horizon_T": 2}}),
])
def test_manifest_records_the_norm_of_the_run(tmp_path, command, cfg):
    norms = []
    for norm in (None, "max", "euclid"):
        run_cfg = cfg if norm is None else {**cfg, "norm": norm}
        out = tmp_path / f"o-{norm}"
        assert main([command, "--config",
                     write_config(tmp_path, "c.json", run_cfg),
                     "--out", str(out)]) == EXIT_OK
        norms.append(json.loads((out / "manifest.json").read_text())["norm"])
    assert norms == ["max", "max", "euclid"]


def test_seed_override_is_held_to_the_seed_domain(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", discrete_cfg())
    assert main(["simulate-discrete", "--config", cfg, "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "master_seed must be an integer >= 0" in capsys.readouterr().err


# a sweep builds every member, under every rule, before the first one runs:
# its second member breaks a domain, the checkpoint rule or the delay rule
@pytest.mark.parametrize("command, param, values, base, message", [
    pytest.param("resolvent", "horizon", [4, -1],
                 {"schema_version": 1, "kind": "discrete",
                  "kernel": {"entries": [[0, -0.5]]}},
                 "horizon must be an integer >= 0, got -1",
                 id="resolvent-horizon"),
    pytest.param("simulate-discrete", "checkpoints", [[2, 4, 8], [8, 4, 2]],
                 discrete_cfg(horizon=8),
                 "checkpoints must strictly increase, got [8, 4, 2]",
                 id="simulate-discrete-checkpoints"),
    pytest.param("check", "checkpoint_times",
                 [[2.0, 4.0, 8.0], [8.0, 4.0, 2.0]],
                 {"schema_version": 1, "condition": "cond-f",
                  "function": "exp_decay(rate=1.0)",
                  "grid": {"step_h": 0.5, "horizon_T": 8.0}},
                 "checkpoint_times must strictly increase, "
                 "got [8.0, 4.0, 2.0]",
                 id="check-cond-f-checkpoint_times"),
    pytest.param("resolvent", "tau", [1.0, 0.0],
                 {"schema_version": 1, "kind": "functional",
                  "kernel": {"atoms": [[-1.0, -0.5]]},
                  "grid": {"step_h": 0.1, "horizon_T": 2.0}},
                 "delay tau must be positive", id="resolvent-functional-tau"),
    pytest.param("resolvent", "grid.step_h", [0.1, 0.2],
                 {"schema_version": 1, "kind": "differential",
                  "kernel": {"atoms": [[0.0, -0.5]]}, "grid": 5},
                 "param grid.step_h: grid in base is not an object",
                 id="resolvent-param-through-a-number"),
])
def test_sweep_checks_every_member_before_the_first_run(
        tmp_path, capsys, command, param, values, base, message):
    cfg = write_config(tmp_path, "sweep.json", {
        "schema_version": 1, "command": command, "param": param,
        "values": values, "base": base})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


# a run that exits 2 writes nothing, not even --out
@pytest.mark.parametrize("argv, code", [
    (["resolvent", "--config", "{config}"], EXIT_CONFIG),
    (["reproduce", "nope"], EXIT_CONFIG),
    (["reproduce"], EXIT_CONFIG),
    (["reproduce", "--list"], EXIT_OK),
], ids=["resolvent-no-kernel", "reproduce-unknown", "reproduce-no-id",
        "reproduce-list"])
def test_runs_without_outputs_create_no_out_dir(tmp_path, capsys, argv,
                                                code):
    # the resolvent config lacks its required kernel
    cfg = write_config(tmp_path, "r.json",
                       {"schema_version": 1, "kind": "discrete", "horizon": 4})
    out = tmp_path / "out"
    argv = [a.format(config=cfg) for a in argv] + ["--out", str(out)]
    assert main(argv) == code
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate-discrete", "--config", "{config}"],
    ["sweep", "--config", "{sweep}"],
    ["reproduce", "certificates"],
], ids=["simulate-discrete", "sweep", "reproduce"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_created_is_config_error(tmp_path, capsys,
                                                    monkeypatch, argv, out):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was made")

    monkeypatch.setattr(cli, "run_paths", no_work)
    monkeypatch.setattr(reproduce, "run_experiment", no_work)
    (tmp_path / "afile").write_text("")
    config = write_config(tmp_path, "d.json", discrete_cfg())
    sweep = write_config(tmp_path, "s.json", {
        "schema_version": 1, "command": "simulate-discrete",
        "param": "horizon", "values": [8, 16], "base": discrete_cfg()})
    argv = [a.format(config=config, sweep=sweep) for a in argv]
    assert main(argv + ["--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert "config error: cannot create output directory" in \
        capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == ""


def test_sweep_member_dir_that_cannot_be_created_stops_before_any_run(
        tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a member ran before every member dir was made")

    monkeypatch.setattr(cli, "run_paths", no_work)
    sweep = write_config(tmp_path, "s.json", {
        "schema_version": 1, "command": "simulate-discrete",
        "param": "horizon", "values": [8, 16], "base": discrete_cfg()})
    out = tmp_path / "out"
    out.mkdir()
    (out / "001").write_text("")
    assert main(["sweep", "--config", sweep, "--out", str(out)]) == \
        EXIT_CONFIG
    assert "config error: cannot create output directory" in \
        capsys.readouterr().err


# the leaf-mutation table: small configs covering every command and check
# id; each leaf, list items included, is replaced in turn by each mutant
_TH = {"eps_tail": 0.01, "eps_abs": 1e-8, "ratio_div": 1.5}
_SEQ = {"entries": [[0, -0.5], [2, 0.1]],
        "tail": {"start": 3, "coeff": 0.05, "ratio": 0.5}}
_MUTATION_BASES = [
    ("simulate-discrete", {
        "schema_version": 1, "master_seed": 3, "dim": 1, "horizon": 8,
        "kernel": _SEQ, "forcing": 1.0, "diffusion": "exp_decay(rate=1.0)",
        "noise": {"family": "two-point", "x1": -1.0, "x2": 1.0, "p1": 0.5,
                  "lo": 0.0, "hi": 1.0},
        "initial": [1.0], "ensemble": {"n_paths": 2, "keep_paths": True},
        "p": 2.0, "checkpoints": [2, 4, 8], "norm": "max"}),
    ("simulate-sve", {
        "schema_version": 1, "master_seed": 3, "dim": 1,
        "grid": {"step_h": 0.1, "horizon_T": 2.0},
        "kernel": {"atoms": [[0.0, -1.0], [0.2, 0.3]], "density": {
            "name": "exp_decay(rate=2.0)", "start": 0.0, "step": 0.1,
            "count": 4, "scale": -0.5}},
        "forcing": "osc(alpha=0.1,beta=0.5)", "diffusion": 0.4,
        "initial": [0.5], "noise_dim": 1,
        "ensemble": {"n_paths": 2, "keep_paths": True,
                     "keep_times": [0.5, 1.0]},
        "p": 2.0, "checkpoint_times": [0.5, 1.0, 2.0], "norm": "max",
        "thresholds": _TH}),
    ("simulate-sfde", {
        "schema_version": 1, "master_seed": 3, "dim": 1,
        "grid": {"step_h": 0.1, "horizon_T": 2.0}, "tau": 1.0,
        "kernel": {"atoms": [[-1.0, -0.5], [0.0, -0.2]], "density": {
            "name": "const(c=1.0)", "start": -1.0, "step": 0.1, "count": 10,
            "scale": 0.1}},
        "history": 1.0, "forcing": 0.5, "diffusion": 0.3, "noise_dim": 1,
        "ensemble": {"n_paths": 2, "keep_paths": True}}),
    ("resolvent", {"schema_version": 1, "kind": "discrete", "dim": 1,
                   "kernel": _SEQ, "horizon": 8}),
    ("resolvent", {"schema_version": 1, "kind": "differential", "dim": 1,
                   "kernel": {"atoms": [[0.1, -0.5]]},
                   "grid": {"step_h": 0.1, "horizon_T": 1.0}}),
    ("resolvent", {"schema_version": 1, "kind": "functional", "dim": 1,
                   "kernel": {"atoms": [[-1.0, -0.5]]}, "tau": 1.0,
                   "grid": {"step_h": 0.1, "horizon_T": 2.0}}),
    ("check", {"schema_version": 1, "master_seed": 3, "condition": "cond-f",
               "function": "exp_decay(rate=1.0)", "p": 2.0,
               "grid": {"step_h": 0.5, "horizon_T": 8.0},
               "thetas": [0.5, 1.0], "quad_step": 0.1,
               "checkpoint_times": [2.0, 4.0, 8.0], "thresholds": _TH}),
    ("check", {"schema_version": 1, "condition": "cond-sigma-high",
               "sigma": "exp_decay(rate=1.0)", "p": 4.0,
               "grid": {"step_h": 0.5, "horizon_T": 8.0},
               "thetas": [0.5, 1.0], "quad_step": 0.1,
               "checkpoint_times": [2.0, 4.0, 8.0]}),
    ("check", {"schema_version": 1, "condition": "cond-sigma-low",
               "sigma": "exp_decay(rate=1.0)", "p": 1.5, "n_windows": 16,
               "window_step": 0.1, "checkpoints": [4, 8, 16]}),
    ("check", {"schema_version": 1, "condition": "s-epsilon",
               "sigma": "exp_decay(rate=1.0)", "n_windows": 16,
               "window_step": 0.1, "eps": [0.1, 1.0],
               "checkpoints": [4, 8, 16]}),
    ("check", {"schema_version": 1, "condition": "fading",
               "function": "exp_decay(rate=1.0)", "thetas": [0.5, 1.0],
               "segment_times": [1.0, 2.0, 3.0], "fading_step": 0.01,
               "tol": 0.01}),
    ("check", {"schema_version": 1, "condition": "lemma-p-lt-1",
               "function": "exp_decay(rate=1.0)", "p": 0.5,
               "filter_rate": 1.0, "horizon": 8, "step_h": 0.1}),
    ("check", {"schema_version": 1, "condition": "irregular-windows",
               "function": "const(c=1.0)", "p": 1.0,
               "breakpoints": [0.0, 1.0, 2.5, 3.5], "spacing_min": 0.5,
               "spacing_max": 2.0, "window_step": 0.01}),
    ("sweep", {"schema_version": 1, "command": "resolvent",
               "param": "horizon", "values": [2, 4],
               "base": {"schema_version": 1, "kind": "discrete",
                        "kernel": {"entries": [[0, -0.5]]}, "horizon": 1}}),
]
_MUTANTS = (0, -1, 0.7, 2.5, True, "1", None, [], -0.5)


def _mutation_sites(node, prefix=()):
    for key, value in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        if prefix + (key,) != ("schema_version",):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _mutation_sites(value, prefix + (key,))


def _mutated(cfg, site, value):
    out = copy.deepcopy(cfg)
    node = out
    for key in site[:-1]:
        node = node[key]
    node[site[-1]] = value
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_leaf_mutations_exit_0_or_2_and_2_only_before_evaluation(
        tmp_path, capsys, monkeypatch):
    evaluated = []

    def recording(fn):
        def run(*args, **kwargs):
            evaluated.append(fn.__name__)
            return fn(*args, **kwargs)
        return run

    for module, name in [(cli, "run_paths"), (continuous, "ensemble"),
                         (discrete, "resolvent_seq"),
                         (continuous, "differential_resolvent"),
                         (continuous, "functional_resolvent"),
                         (conditions, "window_profiles"),
                         (conditions, "unit_windows"),
                         (conditions, "exp_filter_equivalence"),
                         (conditions, "trapezoid_refined")]:
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    path, out = tmp_path / "c.json", str(tmp_path / "o")
    faults, runs = [], 0
    for command, base in _MUTATION_BASES:
        for site in _mutation_sites(base):
            for value in _MUTANTS:
                path.write_text(json.dumps(_mutated(base, site, value)))
                evaluated.clear()
                what = f"{command} {base.get('condition', base.get('kind'))} " \
                       f"{'.'.join(map(str, site))}={json.dumps(value)}"
                try:
                    code = main([command, "--config", str(path), "--out", out])
                except Exception as exc:
                    code = f"traceback {type(exc).__name__}: {exc}"
                err = capsys.readouterr().err
                runs += 1
                if code == EXIT_CONFIG and evaluated:
                    faults.append(f"{what}: exit 2 after {evaluated[0]}")
                elif code == EXIT_NUMERIC and "non-finite values" in err:
                    continue
                elif code not in (EXIT_OK, EXIT_CONFIG):
                    faults.append(f"{what}: {code} {err.strip()}")
    assert runs > 1500
    assert faults == []
