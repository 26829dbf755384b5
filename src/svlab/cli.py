"""Batch experiment driver.

Subcommands: simulate-discrete | simulate-sve | simulate-sfde | resolvent |
check | reproduce | sweep. Every run reads a JSON config (schema_version 1,
unknown keys rejected so typos surface), materializes all defaults, digests
the result into a manifest, and writes CSV/JSON outputs whose bytes depend
only on the manifest.

Exit codes: 0 success, 1 reproduce-table failure, 2 config error, 3 numeric
error. Evidence verdicts are data, never an exit code.
"""
from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import conditions, continuous, corpus, discrete
from .core import (DEFAULT_NORM, CompiledMeasure, DensitySample,
                   GeometricTail, GridSpec, MatrixKernelSeq, NoiseSpec,
                   RunManifest, SignedMeasureRepr, config_digest,
                   neg_identity_point_mass, rng_stream, run_paths)
from .evidence import (INCONCLUSIVE, EvidenceReport, TailThresholds,
                       checkpoint_indices, time_checkpoints)

EXIT_OK = 0
EXIT_TABLE_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

NUM = (int, float)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


class NumericFailure(RuntimeError):
    """Simulation or evaluation produced unusable numbers."""


# ---------------------------------------------------------------------------
# config schema: nested dicts of Leaf descriptors, validated hand-rolled so
# error messages carry the dotted path of the offending key

@dataclass(frozen=True)
class Leaf:
    kinds: tuple
    required: bool = False
    default: object = None


def leaf(*kinds, required=False, default=None) -> Leaf:
    return Leaf(kinds, required, default)


def _check_type(value, spec: Leaf, dotted: str):
    if isinstance(value, bool) and bool not in spec.kinds:
        raise ConfigError(f"bad type for {dotted}: expected "
                          f"{_kind_names(spec)}, got bool")
    if not isinstance(value, spec.kinds):
        raise ConfigError(f"bad type for {dotted}: expected "
                          f"{_kind_names(spec)}, got {type(value).__name__}")


def _kind_names(spec: Leaf) -> str:
    return "/".join(k.__name__ for k in spec.kinds if k is not type(None))


def validate_config(cfg: dict, schema: dict, path: str = "") -> dict:
    """Strict validation: unknown keys rejected, required keys enforced,
    defaults materialized. Returns the fully materialized tree."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    out = {}
    for k in cfg:
        if k not in schema or k == "__optional__":
            dotted = f"{path}.{k}" if path else k
            raise ConfigError(f"unknown key: {dotted}")
    for k, spec in schema.items():
        if k == "__optional__":
            continue
        dotted = f"{path}.{k}" if path else k
        if isinstance(spec, dict):
            sub = cfg.get(k)
            if sub is None:
                if spec.get("__optional__"):
                    out[k] = None
                    continue
                sub = {}
            out[k] = validate_config(sub, spec, dotted)
        else:
            # an explicit null stays null where the leaf admits it; a
            # missing key takes the default
            if k not in cfg or (cfg[k] is None and
                                type(None) not in spec.kinds):
                if spec.required:
                    raise ConfigError(f"missing key: {dotted}")
                out[k] = spec.default
            else:
                _check_type(cfg[k], spec, dotted)
                out[k] = cfg[k]
    return out


def _require_version(cfg: dict):
    if cfg.get("schema_version") != 1:
        raise ConfigError("unsupported schema_version "
                          f"{cfg.get('schema_version')!r}; this build reads 1")


_GRID = {"step_h": leaf(*NUM, required=True),
         "horizon_T": leaf(*NUM, required=True)}

_THRESHOLDS = {"__optional__": True,
               "eps_tail": leaf(*NUM, default=1e-2),
               "eps_abs": leaf(*NUM, default=1e-8),
               "ratio_div": leaf(*NUM, default=1.5)}

_NOISE = {"family": leaf(str, default="gaussian-iid"),
          "x1": leaf(*NUM, default=1.0),
          "x2": leaf(*NUM, default=2.0),
          "p1": leaf(*NUM, default=0.5),
          "lo": leaf(*NUM, default=0.0),
          "hi": leaf(*NUM, default=1.0)}

_SIGNAL = leaf(str, *NUM, type(None), default=None)

_KERNEL_SEQ = {"entries": leaf(list, required=True),
               "tail": leaf(dict, type(None), default=None)}

_TAIL = {"start": leaf(int, required=True),
         "coeff": leaf(*NUM, list, required=True),
         "ratio": leaf(*NUM, required=True)}

_MEASURE = {"atoms": leaf(list, default=[]),
            "density": leaf(dict, type(None), default=None)}

_DENSITY = {"name": leaf(str, *NUM, required=True),
            "start": leaf(*NUM, required=True),
            "step": leaf(*NUM, required=True),
            "count": leaf(int, required=True),
            "scale": leaf(*NUM, default=1.0)}

SCHEMAS = {
    "simulate-discrete": {
        "schema_version": leaf(int, required=True),
        "master_seed": leaf(int, default=0),
        "dim": leaf(int, default=1),
        "horizon": leaf(int, required=True),
        "kernel": _KERNEL_SEQ,
        "forcing": _SIGNAL,
        "diffusion": _SIGNAL,
        "noise": _NOISE,
        "initial": leaf(list, type(None), default=None),
        "ensemble": {"n_paths": leaf(int, default=1),
                     "keep_paths": leaf(bool, default=True)},
        "p": leaf(*NUM, type(None), default=2.0),
        "checkpoints": leaf(list, type(None), default=None),
        "norm": leaf(str, default=DEFAULT_NORM),
    },
    "simulate-sve": {
        "schema_version": leaf(int, required=True),
        "master_seed": leaf(int, default=0),
        "dim": leaf(int, default=1),
        "grid": _GRID,
        "kernel": leaf(str, dict, required=True),
        "forcing": _SIGNAL,
        "diffusion": _SIGNAL,
        "initial": leaf(list, type(None), default=None),
        "noise_dim": leaf(int, type(None), default=None),
        "ensemble": {"n_paths": leaf(int, default=1),
                     "keep_paths": leaf(bool, default=True),
                     "keep_times": leaf(list, type(None), default=None)},
        "p": leaf(*NUM, type(None), default=None),
        "checkpoint_times": leaf(list, type(None), default=None),
        "norm": leaf(str, default=DEFAULT_NORM),
        "thresholds": _THRESHOLDS,
    },
    "simulate-sfde": {
        "schema_version": leaf(int, required=True),
        "master_seed": leaf(int, default=0),
        "dim": leaf(int, default=1),
        "grid": _GRID,
        "tau": leaf(*NUM, required=True),
        "kernel": leaf(dict, required=True),
        "history": _SIGNAL,
        "forcing": _SIGNAL,
        "diffusion": _SIGNAL,
        "noise_dim": leaf(int, type(None), default=None),
        "ensemble": {"n_paths": leaf(int, default=1),
                     "keep_paths": leaf(bool, default=True)},
    },
    "resolvent": {
        "schema_version": leaf(int, required=True),
        "kind": leaf(str, required=True),
        "dim": leaf(int, default=1),
        "kernel": leaf(str, dict, required=True),
        "horizon": leaf(int, type(None), default=None),
        "grid": {"__optional__": True, **_GRID},
        "tau": leaf(*NUM, type(None), default=None),
    },
    "check": {
        "schema_version": leaf(int, required=True),
        "master_seed": leaf(int, default=0),
        "condition": leaf(str, required=True),
        "function": _SIGNAL,
        "sigma": _SIGNAL,
        "p": leaf(*NUM, default=2.0),
        "grid": {"__optional__": True, **_GRID},
        "thetas": leaf(list, type(None), default=None),
        "quad_step": leaf(*NUM, type(None), default=None),
        "checkpoint_times": leaf(list, type(None), default=None),
        "checkpoints": leaf(list, type(None), default=None),
        "n_windows": leaf(int, default=512),
        "window_step": leaf(*NUM, default=1e-3),
        "eps": leaf(list, type(None), default=None),
        "filter_rate": leaf(*NUM, default=1.0),
        "horizon": leaf(int, default=64),
        "step_h": leaf(*NUM, default=2e-4),
        "breakpoints": leaf(list, type(None), default=None),
        "spacing_min": leaf(*NUM, type(None), default=None),
        "spacing_max": leaf(*NUM, type(None), default=None),
        "segment_times": leaf(list, type(None), default=None),
        "fading_step": leaf(*NUM, default=1e-5),
        "tol": leaf(*NUM, default=1e-2),
        "thresholds": _THRESHOLDS,
    },
    "sweep": {
        "schema_version": leaf(int, required=True),
        "command": leaf(str, required=True),
        "param": leaf(str, required=True),
        "values": leaf(list, required=True),
        "base": leaf(dict, required=True),
    },
}

CHECK_IDS = ("cond-f", "cond-sigma-high", "cond-sigma-low", "s-epsilon",
             "fading", "lemma-p-lt-1", "irregular-windows")


# ---------------------------------------------------------------------------
# builders

@contextmanager
def _building():
    """Values the library rejects while a run is built from a validated
    config are config errors; once the run starts, they are numeric ones."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _signal(spec, what: str):
    """Name, constant or None -> callable on time arrays (or None)."""
    if spec is None:
        return None
    if isinstance(spec, str):
        try:
            return corpus.resolve(spec)
        except Exception as exc:
            raise ConfigError(f"bad {what} '{spec}': {exc}") from exc
    return corpus.ConstFamily(float(spec))


def _matrix(entry, d: int, what: str) -> np.ndarray:
    w = np.asarray(entry, float)
    if w.ndim == 0:
        if d != 1:
            raise ConfigError(f"{what}: scalar weight needs dim = 1")
        w = w.reshape(1, 1)
    if w.shape != (d, d):
        raise ConfigError(f"{what}: weight shape {w.shape} != ({d}, {d})")
    return w


def _discrete_kernel(spec, d: int) -> MatrixKernelSeq:
    # reached both through the validated simulate-discrete schema and the
    # resolvent command, whose kernel field is free-form; validate here too
    if not isinstance(spec, dict):
        raise ConfigError("kernel must be a table with 'entries'")
    spec = validate_config(spec, _KERNEL_SEQ, "kernel")
    entries = {}
    for i, item in enumerate(spec["entries"]):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError("kernel.entries items must be [lag, weight]")
        lag, w = item
        _check_type(lag, leaf(int), f"kernel.entries[{i}] lag")
        entries[lag] = entries.get(lag, 0.0) + _matrix(w, d, "kernel.entries")
    tail = None
    if spec["tail"] is not None:
        t = validate_config(spec["tail"], _TAIL, "kernel.tail")
        tail = GeometricTail(t["start"],
                             _matrix(t["coeff"], d, "kernel.tail.coeff"),
                             float(t["ratio"]))
    return MatrixKernelSeq(d, entries, tail)


def _measure(spec, d: int, what: str = "kernel") -> SignedMeasureRepr:
    if spec == "neg-identity":
        return neg_identity_point_mass(d)
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be 'neg-identity' or a table")
    spec = validate_config(spec, _MEASURE, what)
    atoms = []
    for item in spec["atoms"]:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(f"{what}.atoms items must be [location, weight]")
        loc, w = item
        atoms.append((float(loc), _matrix(w, d, f"{what}.atoms")))
    density = None
    if spec["density"] is not None:
        dspec = validate_config(spec["density"], _DENSITY, f"{what}.density")
        if d != 1:
            raise ConfigError(f"{what}.density supports dim = 1 only")
        fn = _signal(dspec["name"], f"{what}.density.name")
        start, step = float(dspec["start"]), float(dspec["step"])
        count = dspec["count"]
        cells = float(dspec["scale"]) * np.asarray(
            fn(start + step * np.arange(count)), float)
        density = DensitySample(start, step, cells.reshape(count, 1, 1))
    return SignedMeasureRepr(d, tuple(atoms), density)


def _noise(spec: dict, m: int) -> NoiseSpec:
    fam = spec["family"]
    if fam == "gaussian-iid":
        return NoiseSpec.gaussian(m)
    if fam == "two-point":
        return NoiseSpec.two_point(float(spec["x1"]), float(spec["x2"]),
                                   float(spec["p1"]), m)
    if fam == "uniform":
        return NoiseSpec.uniform(float(spec["lo"]), float(spec["hi"]), m)
    raise ConfigError(f"unknown noise family '{fam}'")


def _thresholds(spec) -> TailThresholds:
    if not spec:
        return TailThresholds()
    return TailThresholds(float(spec["eps_tail"]), float(spec["eps_abs"]),
                          float(spec["ratio_div"]))


# ---------------------------------------------------------------------------
# writers

def _write_table(path: str, header, int_columns, float_block):
    """Numeric CSV of the integer columns and then the columns of the
    (rows, k) float_block as %.17g, in the bytes csv.writer gives (CRLF line
    ends); each row is one %-format of a tuple from .tolist() columns."""
    block = np.asarray(float_block, float)
    cols = [np.asarray(c).tolist() for c in int_columns] + block.T.tolist()
    fmt = ",".join(["%d"] * len(int_columns)
                   + ["%.17g"] * block.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(fmt % row for row in zip(*cols))


def _write_paths(out_dir: str, d: int, times: np.ndarray, paths: list):
    """paths.csv of continuous paths: index, time and the d state values."""
    _write_table(os.path.join(out_dir, "paths.csv"),
                 ["path_index", "t"] + [f"X_{j+1}" for j in range(d)],
                 [np.repeat(np.arange(len(paths)), len(times))],
                 np.column_stack([np.tile(times, len(paths)),
                                  np.asarray(paths).reshape(-1, d)]))


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_manifest(out_dir: str, master_seed: int, cfg: dict):
    man = RunManifest(master_seed=int(master_seed),
                      config_digest=config_digest(cfg))
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(man.to_json())


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        if isinstance(obj, EvidenceReport):
            fh.write(obj.to_json())
        else:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _ensure_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
        raise NumericFailure(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# subcommand handlers (each takes the materialized config and the CLI args)

def cmd_simulate_discrete(cfg: dict, out_dir: str, threads: int) -> int:
    d = int(cfg["dim"])
    N = int(cfg["horizon"])
    seed = int(cfg["master_seed"])
    M = int(cfg["ensemble"]["n_paths"])
    p = cfg["p"]
    cps = cfg["checkpoints"]
    short = []
    with _building():
        kernel = _discrete_kernel(cfg["kernel"], d)
        f_fn = _signal(cfg["forcing"], "forcing")
        s_fn = _signal(cfg["diffusion"], "diffusion")
        steps = np.arange(N, dtype=float)
        f_vals = np.zeros((N, d)) if f_fn is None else \
            np.tile(np.asarray(f_fn(steps), float)[:, None], (1, d))
        diag = np.zeros(N) if s_fn is None else np.asarray(s_fn(steps), float)
        sig_vals = diag[:, None, None] * np.eye(d)[None]
        noise = _noise(cfg["noise"], d)
        initial = None if cfg["initial"] is None else \
            np.asarray(cfg["initial"], float)
        sys_ = discrete.DiscreteSystem(kernel, N, f_vals, sig_vals, noise,
                                       initial)
        if cps is not None:
            checkpoint_indices(cps, N, "checkpoints")
        elif p is not None:
            cps = [N // 4, N // 2, N]
        if p is not None:
            if M < 30:
                short.append("fewer than 30 paths")
            if len(cps) < 2:
                short.append("fewer than 2 checkpoints")
            if not short:
                discrete.tail_span(cps[-1], cps[-2])
    norm = cfg["norm"]

    def one(i: int):
        x0, xi = discrete.draw_noise(sys_, rng_stream(seed, i))
        X = discrete.simulate_direct(sys_, xi, x0)
        _ensure_finite(X, f"path {i}")
        S = None if p is None else discrete.lp_partial_sums(X, float(p), norm)
        return X, S

    results = run_paths(M, one, threads)

    if cfg["ensemble"]["keep_paths"]:
        _write_table(os.path.join(out_dir, "paths.csv"),
                     ["path_index", "n"] + [f"X_{j+1}" for j in range(d)],
                     [np.repeat(np.arange(M), N + 1),
                      np.tile(np.arange(N + 1), M)],
                     np.asarray([X for X, _ in results]).reshape(-1, d))
    if p is not None:
        _write_table(os.path.join(out_dir, "partial_sums.csv"),
                     ["path_index", "N", "S"],
                     [np.repeat(np.arange(M), len(cps)), np.tile(cps, M)],
                     np.asarray([S[cps] for _, S in results]).reshape(-1, 1))
        if short:
            report = EvidenceReport(
                "lp-tail", {"n_paths": M}, tuple(cps),
                {"reason": "; ".join(short)}, TailThresholds().as_dict(),
                INCONCLUSIVE)
        else:
            report = discrete.tail_decision(
                [S[:cps[-1] + 1] for _, S in results], half_index=cps[-2])
        _write_json(os.path.join(out_dir, "evidence.json"), report)
    _write_manifest(out_dir, seed, cfg)
    return EXIT_OK


def cmd_simulate_sve(cfg: dict, out_dir: str, threads: int) -> int:
    d = int(cfg["dim"])
    p = cfg["p"]
    cps = cfg["checkpoint_times"]
    keep_times = cfg["ensemble"]["keep_times"]
    with _building():
        grid = GridSpec(float(cfg["grid"]["step_h"]),
                        float(cfg["grid"]["horizon_T"]))
        nu = _measure(cfg["kernel"], d)
        sys_ = continuous.ContinuousSystem(
            nu, grid, _signal(cfg["forcing"], "forcing"),
            _signal(cfg["diffusion"], "diffusion"),
            None if cfg["initial"] is None else
            np.asarray(cfg["initial"], float),
            cfg["noise_dim"])
        if cps is None and p is not None:
            cps = [grid.horizon_T / k for k in (4, 2, 1)]
        cp_idx = None if p is None else continuous.tail_checkpoints(grid, cps)
        keep_idx = None if keep_times is None else \
            [grid.index_at(float(t)) for t in keep_times]
    seed = int(cfg["master_seed"])
    M = int(cfg["ensemble"]["n_paths"])
    norm = cfg["norm"]

    def reduce(i: int, X: np.ndarray):
        _ensure_finite(X, f"path {i}")
        kept = X if keep_idx is None else X[keep_idx]
        S = None
        if p is not None:
            cum = continuous.lp_time_integral(X, float(p), grid, norm)
            S = [float(cum[k]) for k in cp_idx]
        return kept, S

    results = continuous.ensemble(sys_, seed, M, reduce, threads)
    times = grid.times()
    kept_times = times if keep_idx is None else times[keep_idx]

    if cfg["ensemble"]["keep_paths"]:
        _write_paths(out_dir, d, kept_times, [X for X, _ in results])
    if p is not None:
        _write_table(os.path.join(out_dir, "partial_integrals.csv"),
                     ["path_index", "T", "S"],
                     [np.repeat(np.arange(M), len(cps))],
                     np.column_stack([np.tile(np.asarray(cps, float), M),
                                      np.ravel([S for _, S in results])]))
        report = continuous.ensemble_lp_tail_report(
            np.array([S for _, S in results]), float(p), cps, seed, norm,
            _thresholds(cfg["thresholds"]))
        _write_json(os.path.join(out_dir, "evidence.json"), report)
    _write_manifest(out_dir, seed, cfg)
    return EXIT_OK


def cmd_simulate_sfde(cfg: dict, out_dir: str, threads: int) -> int:
    d = int(cfg["dim"])
    psi = cfg["history"]
    with _building():
        grid = GridSpec(float(cfg["grid"]["step_h"]),
                        float(cfg["grid"]["horizon_T"]))
        mu = _measure(cfg["kernel"], d)
        psi_arg = _signal(psi, "history") if isinstance(psi, str) else \
            (0.0 if psi is None else float(psi))
        sys_ = continuous.DelaySystem(mu, float(cfg["tau"]), psi_arg, grid,
                                      _signal(cfg["forcing"], "forcing"),
                                      _signal(cfg["diffusion"], "diffusion"),
                                      cfg["noise_dim"])
    seed = int(cfg["master_seed"])
    M = int(cfg["ensemble"]["n_paths"])

    def reduce(i: int, X: np.ndarray):
        _ensure_finite(X, f"path {i}")
        return X

    results = continuous.ensemble(sys_, seed, M, reduce, threads)
    if cfg["ensemble"]["keep_paths"]:
        _write_paths(out_dir, d, sys_.times(), results)
    _write_manifest(out_dir, seed, cfg)
    return EXIT_OK


def cmd_resolvent(cfg: dict, out_dir: str) -> int:
    kind = cfg["kind"]
    d = int(cfg["dim"])
    cols = [f"r_{i+1}{j+1}" for i in range(d) for j in range(d)]
    if kind == "discrete":
        if cfg["horizon"] is None:
            raise ConfigError("missing key: horizon")
        with _building():
            kernel = _discrete_kernel(cfg["kernel"], d)
        R = discrete.resolvent_seq(kernel, int(cfg["horizon"]))
        _write_table(os.path.join(out_dir, "resolvent.csv"), ["n"] + cols,
                     [np.arange(len(R))], R.reshape(len(R), d * d))
    elif kind in ("differential", "functional"):
        if cfg["grid"] is None:
            raise ConfigError("missing key: grid.step_h")
        if kind == "functional" and cfg["tau"] is None:
            raise ConfigError("missing key: tau")
        with _building():
            grid = GridSpec(float(cfg["grid"]["step_h"]),
                            float(cfg["grid"]["horizon_T"]))
            mu = _measure(cfg["kernel"], d)
            if kind == "functional":
                continuous.delay_steps(mu, float(cfg["tau"]), grid)
            elif mu.negative_support:
                raise ConfigError("differential resolvent takes a kernel "
                                  "on [0, inf)")
            # snaps the atoms: one off the grid is a config error
            CompiledMeasure(mu, grid)
        if kind == "differential":
            r = continuous.differential_resolvent(mu, grid)
        else:
            r = continuous.functional_resolvent(mu, float(cfg["tau"]), grid)
        _write_table(os.path.join(out_dir, "resolvent.csv"), ["t"] + cols, [],
                     np.column_stack([grid.times(), r.reshape(len(r), d * d)]))
    else:
        raise ConfigError(f"unknown resolvent kind '{kind}'")
    _write_manifest(out_dir, 0, cfg)
    return EXIT_OK


def cmd_check(cfg: dict, out_dir: str) -> int:
    cond = cfg["condition"]
    if cond not in CHECK_IDS:
        raise ConfigError(f"unknown condition id '{cond}'; "
                          f"known: {', '.join(CHECK_IDS)}")
    th = _thresholds(cfg["thresholds"])
    thetas = cfg["thetas"] if cfg["thetas"] is not None else \
        list(conditions.DEFAULT_THETAS)
    p = float(cfg["p"])
    # the exponent range each id is stated for; s-epsilon and fading read no p
    if cond in ("cond-f", "cond-sigma-low", "irregular-windows") and not p >= 1:
        raise ConfigError("exponent p must be >= 1")
    if cond == "cond-sigma-high" and not p >= 2:
        raise ConfigError("cond-sigma-high is for p >= 2; use cond-sigma-low")
    if cond == "lemma-p-lt-1" and not 0 < p < 1:
        raise ConfigError("p must lie in (0, 1)")

    def need(key):
        if cfg.get(key) is None:
            raise ConfigError(f"missing key: {key}")
        return cfg[key]

    key = "sigma" if "sigma" in cond or cond == "s-epsilon" else "function"
    fn = _signal(need(key), key)
    if cond in ("cond-f", "cond-sigma-high"):
        gspec = need("grid")
        cpt = cfg["checkpoint_times"]
        with _building():
            grid = GridSpec(float(gspec["step_h"]), float(gspec["horizon_T"]))
            conditions.window_widths(thetas, grid, cfg["quad_step"])
            if cpt is not None:
                time_checkpoints(cpt, grid)
        evidence = conditions.forcing_window_evidence if cond == "cond-f" \
            else conditions.diffusion_window_evidence
        report = evidence(fn, p, grid, thetas, cfg["quad_step"], cpt, th)
    elif cond in ("cond-sigma-low", "s-epsilon"):
        n_windows = int(cfg["n_windows"])
        with _building():
            conditions.unit_window_checkpoints(n_windows, cfg["checkpoints"])
            conditions.divisions(1.0, float(cfg["window_step"]),
                                 "window_step must divide 1")
        if cond == "cond-sigma-low":
            report = conditions.unit_window_evidence(
                fn, p, n_windows, float(cfg["window_step"]),
                cfg["checkpoints"], th)
        else:
            eps = cfg["eps"] if cfg["eps"] is not None else [0.1, 1.0]
            report = conditions.gaussian_exceedance_series(
                fn, [float(e) for e in eps], n_windows,
                quad_step=float(cfg["window_step"]),
                checkpoints=cfg["checkpoints"], thresholds=th)
    elif cond == "fading":
        seg = cfg["segment_times"] if cfg["segment_times"] is not None else \
            (2.0, 6.0, 10.0, 14.0, 18.0, 20.0)
        with _building():
            grid, _ = conditions.segment_grid(seg, float(cfg["fading_step"]))
            conditions.window_widths(thetas, grid)
        report = conditions.window_fading_evidence(
            fn, thetas, seg, float(cfg["fading_step"]), float(cfg["tol"]), th)
    elif cond == "lemma-p-lt-1":
        with _building():
            conditions.divisions(1.0, float(cfg["step_h"]),
                                 "step_h must divide 1")
        pair = conditions.exp_filter_equivalence(
            fn, float(cfg["filter_rate"]), p, int(cfg["horizon"]),
            float(cfg["step_h"]), th)
        report = {"integral": pair.integral_report.to_dict(),
                  "windows": pair.window_report.to_dict(),
                  "agree": pair.agree}
    else:  # irregular-windows
        bps = need("breakpoints")
        windows, sums = conditions.irregular_window_sums(
            fn, [float(b) for b in bps], p,
            alpha=float(need("spacing_min")), beta=float(need("spacing_max")),
            quad_step=float(cfg["window_step"]))
        report = {"condition_id": "irregular-windows",
                  "windows": [float(w) for w in windows],
                  "partial_sums": [float(s) for s in sums]}

    _write_json(os.path.join(out_dir, "report.json"), report)
    _write_manifest(out_dir, int(cfg["master_seed"]), cfg)
    return EXIT_OK


def cmd_reproduce(experiment: str, out_dir: str, list_only: bool) -> int:
    from . import reproduce as rep
    if list_only:
        for name in rep.REGISTRY:
            print(name)
        return EXIT_OK
    if experiment not in rep.REGISTRY:
        print(f"config error: unknown experiment '{experiment}'; "
              f"known: {', '.join(rep.REGISTRY)}", file=sys.stderr)
        return EXIT_CONFIG
    rows = rep.run_experiment(experiment)
    widths = [max(len(str(r[i])) for r in rows + [rep.HEADER])
              for i in range(len(rep.HEADER))]
    for r in [rep.HEADER] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    _write_csv(os.path.join(out_dir, f"reproduce-{experiment}.csv"),
               rep.HEADER, rows)
    ok = all(r[-1] == "PASS" for r in rows)
    print(f"{experiment}: {'all rows PASS' if ok else 'FAILURES present'}")
    return EXIT_OK if ok else EXIT_TABLE_FAIL


def cmd_sweep(cfg: dict, out_dir: str, threads: int) -> int:
    command = cfg["command"]
    if command not in ("simulate-discrete", "simulate-sve", "simulate-sfde",
                       "resolvent", "check"):
        raise ConfigError(f"sweep cannot drive '{command}'")
    dotted = cfg["param"].split(".")
    for idx, value in enumerate(cfg["values"]):
        sub = copy.deepcopy(cfg["base"])
        node = sub
        for part in dotted[:-1]:
            node = node.setdefault(part, {})
        node[dotted[-1]] = value
        sub_dir = os.path.join(out_dir, f"{idx:03d}")
        os.makedirs(sub_dir, exist_ok=True)
        code = _dispatch_config(command, sub, sub_dir, threads, None)
        if code != EXIT_OK:
            return code
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch

def _dispatch_config(command: str, raw_cfg: dict, out_dir: str, threads: int,
                     seed_override: Optional[int]) -> int:
    _require_version(raw_cfg)
    cfg = validate_config(raw_cfg, SCHEMAS[command])
    if seed_override is not None and "master_seed" in cfg:
        cfg["master_seed"] = int(seed_override)
    if command == "simulate-discrete":
        return cmd_simulate_discrete(cfg, out_dir, threads)
    if command == "simulate-sve":
        return cmd_simulate_sve(cfg, out_dir, threads)
    if command == "simulate-sfde":
        return cmd_simulate_sfde(cfg, out_dir, threads)
    if command == "resolvent":
        return cmd_resolvent(cfg, out_dir)
    if command == "check":
        return cmd_check(cfg, out_dir)
    if command == "sweep":
        return cmd_sweep(cfg, out_dir, threads)
    raise ConfigError(f"unknown command '{command}'")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="svlab",
        description="Simulators and admissibility checks for kernel-driven "
                    "stochastic systems.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("simulate-discrete", "simulate-sve", "simulate-sfde",
                 "resolvent", "check", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override master_seed from the config")
        p.add_argument("--out", default="svlab-out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads across ensemble paths")
    p = sub.add_parser("reproduce")
    p.add_argument("experiment", nargs="?", default=None)
    p.add_argument("--list", action="store_true", dest="list_only")
    p.add_argument("--out", default="svlab-out")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "reproduce":
            if args.experiment is None and not args.list_only:
                print("config error: reproduce needs an experiment id "
                      "(or --list)", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_reproduce(args.experiment, out_dir, args.list_only)
        with open(args.config) as fh:
            raw_cfg = json.load(fh)
        return _dispatch_config(args.command, raw_cfg, out_dir, args.threads,
                                args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericFailure, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
