"""Batch experiment driver.

Subcommands: simulate-discrete | simulate-sve | simulate-sfde | resolvent |
check | reproduce | sweep. Every run reads a JSON config (schema_version 1,
unknown keys rejected so typos surface), materializes all defaults, digests
the result into a manifest, and writes CSV/JSON outputs whose bytes depend
only on the manifest.

Every config leaf declares its domain once, in SCHEMAS: an integer >= k, a
positive, nonnegative or finite number, an open interval, one of a set of
names, or a list of elements in one of these. Validation checks them all,
plus what each resolvent kind and check id needs (_VARIANTS), before any
work; the handlers read typed values (integers as int, other numbers as
float). Rules that need more than one leaf (the checkpoint rule, divisors,
grid snapping, the delay and spacing rules) are the library's and run
while a run is built. Every run is built before it evaluates or writes
anything, --out included, and a sweep builds all members first.

Exit codes: 0 success, 1 reproduce-table failure, 2 config error, 3 numeric
error. Evidence verdicts are data, never an exit code.
"""
from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import conditions, continuous, corpus, discrete
from .core import (DEFAULT_NORM, NORMS, CompiledMeasure, DensitySample,
                   GeometricTail, GridSpec, MatrixKernelSeq, NoiseSpec,
                   RunManifest, SignedMeasureRepr, config_digest,
                   neg_identity_point_mass, rng_stream, run_paths)
from .evidence import (INCONCLUSIVE, EvidenceReport, TailThresholds,
                       _jsonable, checkpoint_indices, default_checkpoint_times,
                       default_checkpoints, time_checkpoints)

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

def _bad_type(dotted: str, expected: str, value) -> ConfigError:
    return ConfigError(f"bad type for {dotted}: expected {expected}, "
                       f"got {type(value).__name__}")


def _finite(value) -> Optional[float]:
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class Number:
    """A JSON number, never a bool, that passes `test`: an int when
    `integer`, else a finite number read as float. `message` replaces the
    default complaint."""

    text: str
    test: Callable = lambda x: True
    integer: bool = False
    message: Optional[str] = None
    kinds = NUM

    def check(self, value, dotted: str):
        if isinstance(value, bool) or \
                not isinstance(value, int if self.integer else NUM):
            raise _bad_type(dotted, "int" if self.integer else "int/float",
                            value)
        x = value if self.integer else _finite(value)
        if x is None or not self.test(x):
            raise ConfigError(self.message or
                              f"{dotted} must be {self.text}, got {value!r}")
        return x


def integer(k: int) -> Number:
    return Number(f"an integer >= {k}", lambda n: n >= k, integer=True)


def at_least(lo: float, message: Optional[str] = None) -> Number:
    return Number(f"a finite number >= {lo:g}", lambda x: x >= lo,
                  message=message)


FINITE = Number("a finite number")
POSITIVE = Number("a finite number > 0", lambda x: x > 0)
NONNEGATIVE = at_least(0)


@dataclass(frozen=True)
class OneOf:
    """A string from `names`."""

    names: tuple
    message: str = "unknown {dotted} '{value}'; known: {known}"
    kinds = (str,)

    def check(self, value, dotted: str):
        if value not in self.names:
            raise ConfigError(self.message.format(
                dotted=dotted, value=value, known=", ".join(self.names)))
        return value


@dataclass(frozen=True)
class ListOf:
    """A list whose every element lies in `item`."""

    item: object
    kinds = (list,)

    def check(self, value, dotted: str):
        if not isinstance(value, list):
            raise _bad_type(dotted, "list", value)
        return [self.item.check(v, f"{dotted}[{i}]")
                for i, v in enumerate(value)]


@dataclass(frozen=True)
class Pair:
    """[first, second], e.g. [lag, weight]; `names` name the two."""

    names: tuple
    first: object
    second: object
    kinds = (list,)

    def check(self, value, dotted: str):
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(f"{dotted} must be [{', '.join(self.names)}]")
        return [dom.check(v, f"{dotted} {name}") for dom, name, v in
                zip((self.first, self.second), self.names, value)]


class Weight:
    """A finite number or a nested list of them: a kernel weight, whose
    shape the builder checks against dim."""

    kinds = NUM + (list,)

    def check(self, value, dotted: str):
        if isinstance(value, list):
            return [self.check(v, dotted) for v in value]
        return FINITE.check(value, dotted)


@dataclass(frozen=True)
class Ruled:
    """A leaf whose domain the named rule checks while the run is built,
    so the messages stay that rule's."""

    rule: str
    kinds = ()


@dataclass(frozen=True)
class Leaf:
    kinds: tuple
    required: bool = False
    default: object = None
    domain: object = None


def leaf(*kinds, required=False, default=None, domain=None) -> Leaf:
    return Leaf(kinds, required, default, domain)


def _check_type(value, spec: Leaf, dotted: str):
    if not isinstance(value, spec.kinds) or \
            (isinstance(value, bool) and bool not in spec.kinds):
        raise _bad_type(dotted, "/".join(
            k.__name__ for k in spec.kinds if k is not type(None)), value)


def validate_config(cfg: dict, schema: dict, path: str = "") -> tuple:
    """Strict validation: unknown keys rejected, required keys enforced,
    defaults materialized, every leaf checked against its domain. Returns
    the tree twice: with the values as given, which the manifest digests,
    and with the values as their domains read them."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for k in cfg:
        if k not in schema or k == "__optional__":
            dotted = f"{path}.{k}" if path else k
            raise ConfigError(f"unknown key: {dotted}")
    given, typed = {}, {}
    for k, spec in schema.items():
        if k == "__optional__":
            continue
        dotted = f"{path}.{k}" if path else k
        if isinstance(spec, dict):
            sub = cfg.get(k)
            if sub is None:
                if spec.get("__optional__"):
                    given[k] = typed[k] = None
                    continue
                sub = {}
            given[k], typed[k] = validate_config(sub, spec, dotted)
        # an explicit null stays null where the leaf admits it; a missing
        # key takes the default
        elif k not in cfg or (cfg[k] is None and
                              type(None) not in spec.kinds):
            if spec.required:
                raise ConfigError(f"missing key: {dotted}")
            given[k] = typed[k] = spec.default
        else:
            value = given[k] = typed[k] = cfg[k]
            _check_type(value, spec, dotted)
            if spec.domain is not None and \
                    isinstance(value, spec.domain.kinds):
                typed[k] = spec.domain.check(value, dotted)
    return given, typed


def _read_config(path: str):
    """The JSON in the config file at path: a file that cannot be opened,
    decoded or parsed is a config error."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    # ValueError includes the decode and JSON errors; RecursionError is JSON
    # nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _require_version(cfg: dict):
    # ahead of validate_config, so that a config of another schema version
    # is told so before its keys are checked
    if not isinstance(cfg, dict):
        raise ConfigError("config must be an object")
    if cfg.get("schema_version") != 1:
        raise ConfigError("unsupported schema_version "
                          f"{cfg.get('schema_version')!r}; this build reads 1")


CHECK_IDS = ("cond-f", "cond-sigma-high", "cond-sigma-low", "s-epsilon",
             "fading", "lemma-p-lt-1", "irregular-windows")

_P_AT_LEAST_1 = at_least(1, "exponent p must be >= 1")
# what each resolvent kind and check id needs beyond its command's schema:
# every key listed must be set, and lie in the domain given (None: no
# further domain). The domains are the range of p each check id is stated
# for, and a nonnegative forcing for the exponential-filter lemma (a named
# forcing is checked once it is sampled).
_VARIANTS = {
    "discrete": {"horizon": None},
    "differential": {"grid": None},
    "functional": {"grid": None, "tau": None},
    "cond-f": {"p": _P_AT_LEAST_1, "function": None, "grid": None},
    "cond-sigma-high": {"p": at_least(
        2, "cond-sigma-high is for p >= 2; use cond-sigma-low"),
        "sigma": None, "grid": None},
    "cond-sigma-low": {"p": _P_AT_LEAST_1, "sigma": None},
    "s-epsilon": {"sigma": None},
    "fading": {"function": None},
    "lemma-p-lt-1": {"p": Number("a number in (0, 1)", lambda x: 0 < x < 1,
                                 message="p must lie in (0, 1)"),
                     "function": NONNEGATIVE},
    "irregular-windows": {"p": _P_AT_LEAST_1, "function": None,
                          "breakpoints": None, "spacing_min": None,
                          "spacing_max": None},
}

_SEED = leaf(int, default=0, domain=integer(0))
_VERSION = leaf(int, required=True,
                domain=Ruled("_require_version: schema_version 1"))
_DIM = leaf(int, default=1, domain=integer(1))
_NOISE_DIM = leaf(int, type(None), default=None, domain=integer(1))
_NORM = leaf(str, default=DEFAULT_NORM, domain=OneOf(NORMS))
_REALS = leaf(list, type(None), default=None, domain=ListOf(FINITE))
_CHECKPOINTS = leaf(list, type(None), default=None,
                    domain=Ruled("evidence.checkpoint_indices"))
_N_PATHS = leaf(int, default=1, domain=integer(1))
_WEIGHT = Weight()

# positivity of step_h is GridSpec's rule
_GRID = {"step_h": leaf(*NUM, required=True, domain=FINITE),
         "horizon_T": leaf(*NUM, required=True, domain=POSITIVE)}

_THRESHOLDS = {"__optional__": True,
               "eps_tail": leaf(*NUM, default=1e-2, domain=NONNEGATIVE),
               "eps_abs": leaf(*NUM, default=1e-8, domain=NONNEGATIVE),
               "ratio_div": leaf(*NUM, default=1.5, domain=POSITIVE)}

# the two-point p1 range and lo < hi are NoiseSpec's rules
_NOISE = {"family": leaf(str, default="gaussian-iid", domain=OneOf(
              ("gaussian-iid", "two-point", "uniform"))),
          "x1": leaf(*NUM, default=1.0, domain=FINITE),
          "x2": leaf(*NUM, default=2.0, domain=FINITE),
          "p1": leaf(*NUM, default=0.5, domain=FINITE),
          "lo": leaf(*NUM, default=0.0, domain=FINITE),
          "hi": leaf(*NUM, default=1.0, domain=FINITE)}

# a corpus name, a constant or nothing
_SIGNAL = leaf(str, *NUM, type(None), default=None, domain=FINITE)

# 0 < |ratio| < 1 is GeometricTail's rule
_TAIL = {"start": leaf(int, required=True, domain=integer(0)),
         "coeff": leaf(*NUM, list, required=True, domain=_WEIGHT),
         "ratio": leaf(*NUM, required=True, domain=FINITE)}

_KERNEL_SEQ = {"entries": leaf(list, required=True, domain=ListOf(
                   Pair(("lag", "weight"), integer(0), _WEIGHT))),
               "tail": {"__optional__": True, **_TAIL}}

_DENSITY = {"__optional__": True,
            "name": leaf(str, *NUM, required=True, domain=FINITE),
            "start": leaf(*NUM, required=True, domain=FINITE),
            "step": leaf(*NUM, required=True, domain=POSITIVE),
            "count": leaf(int, required=True, domain=integer(1)),
            "scale": leaf(*NUM, default=1.0, domain=FINITE)}

_MEASURE = {"atoms": leaf(list, default=[], domain=ListOf(
                Pair(("location", "weight"), FINITE, _WEIGHT))),
            "density": _DENSITY}

# a kernel table, read by the builder of its kind, or the shorthand of
# the continuous kinds
_KERNEL = leaf(str, dict, required=True, domain=OneOf(("neg-identity",)))

SCHEMAS = {
    "simulate-discrete": {
        "schema_version": _VERSION,
        "master_seed": _SEED,
        "dim": _DIM,
        "horizon": leaf(int, required=True, domain=integer(1)),
        "kernel": _KERNEL_SEQ,
        "forcing": _SIGNAL,
        "diffusion": _SIGNAL,
        "noise": _NOISE,
        "initial": _REALS,
        "ensemble": {"n_paths": _N_PATHS,
                     "keep_paths": leaf(bool, default=True)},
        "p": leaf(*NUM, type(None), default=2.0, domain=POSITIVE),
        "checkpoints": _CHECKPOINTS,
        "norm": _NORM,
    },
    "simulate-sve": {
        "schema_version": _VERSION,
        "master_seed": _SEED,
        "dim": _DIM,
        "grid": _GRID,
        "kernel": _KERNEL,
        "forcing": _SIGNAL,
        "diffusion": _SIGNAL,
        "initial": _REALS,
        "noise_dim": _NOISE_DIM,
        "ensemble": {"n_paths": _N_PATHS,
                     "keep_paths": leaf(bool, default=True),
                     "keep_times": _REALS},
        "p": leaf(*NUM, type(None), default=None, domain=POSITIVE),
        "checkpoint_times": _REALS,
        "norm": _NORM,
        "thresholds": _THRESHOLDS,
    },
    # tau > 0 is delay_steps' rule
    "simulate-sfde": {
        "schema_version": _VERSION,
        "master_seed": _SEED,
        "dim": _DIM,
        "grid": _GRID,
        "tau": leaf(*NUM, required=True, domain=FINITE),
        "kernel": leaf(dict, required=True),
        "history": _SIGNAL,
        "forcing": _SIGNAL,
        "diffusion": _SIGNAL,
        "noise_dim": _NOISE_DIM,
        "ensemble": {"n_paths": _N_PATHS,
                     "keep_paths": leaf(bool, default=True)},
    },
    "resolvent": {
        "schema_version": _VERSION,
        "kind": leaf(str, required=True, domain=OneOf(
            ("discrete", "differential", "functional"))),
        "dim": _DIM,
        "kernel": _KERNEL,
        "horizon": leaf(int, type(None), default=None, domain=integer(0)),
        "grid": {"__optional__": True, **_GRID},
        "tau": leaf(*NUM, type(None), default=None, domain=FINITE),
    },
    "check": {
        "schema_version": _VERSION,
        "master_seed": _SEED,
        "condition": leaf(str, required=True, domain=OneOf(
            CHECK_IDS, "unknown condition id '{value}'; known: {known}")),
        "function": _SIGNAL,
        "sigma": _SIGNAL,
        "p": leaf(*NUM, default=2.0, domain=FINITE),
        "grid": {"__optional__": True, **_GRID},
        "thetas": leaf(list, type(None), default=None,
                       domain=ListOf(POSITIVE)),
        "quad_step": leaf(*NUM, type(None), default=None, domain=POSITIVE),
        "checkpoint_times": _REALS,
        "checkpoints": _CHECKPOINTS,
        "n_windows": leaf(int, default=512, domain=integer(1)),
        "window_step": leaf(*NUM, default=1e-3, domain=POSITIVE),
        "eps": leaf(list, type(None), default=None, domain=ListOf(POSITIVE)),
        "filter_rate": leaf(*NUM, default=1.0, domain=POSITIVE),
        "horizon": leaf(int, default=64, domain=integer(1)),
        "step_h": leaf(*NUM, default=2e-4, domain=POSITIVE),
        "breakpoints": _REALS,
        "spacing_min": leaf(*NUM, type(None), default=None, domain=POSITIVE),
        "spacing_max": leaf(*NUM, type(None), default=None, domain=POSITIVE),
        "segment_times": _REALS,
        "fading_step": leaf(*NUM, default=1e-5, domain=POSITIVE),
        "tol": leaf(*NUM, default=1e-2, domain=POSITIVE),
        "thresholds": _THRESHOLDS,
    },
    "sweep": {
        "schema_version": _VERSION,
        "command": leaf(str, required=True, domain=OneOf(
            ("simulate-discrete", "simulate-sve", "simulate-sfde",
             "resolvent", "check"))),
        "param": leaf(str, required=True),
        "values": leaf(list, required=True,
                       domain=Ruled("the schema of each run's config")),
        "base": leaf(dict, required=True),
    },
}


# ---------------------------------------------------------------------------
# builders

def _signal(spec, what: str):
    """Name, constant or None -> callable on time arrays (or None)."""
    if spec is None:
        return None
    if isinstance(spec, str):
        try:
            return corpus.resolve(spec)
        except Exception as exc:
            raise ConfigError(f"bad {what} '{spec}': {exc}") from exc
    return corpus.ConstFamily(spec)


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
    spec = validate_config(spec, _KERNEL_SEQ, "kernel")[1]
    entries = {}
    for lag, w in spec["entries"]:
        entries[lag] = entries.get(lag, 0.0) + _matrix(w, d, "kernel.entries")
    t = spec["tail"]
    tail = None if t is None else GeometricTail(
        t["start"], _matrix(t["coeff"], d, "kernel.tail.coeff"), t["ratio"])
    return MatrixKernelSeq(d, entries, tail)


def _measure(spec, d: int, what: str = "kernel") -> SignedMeasureRepr:
    if spec == "neg-identity":
        return neg_identity_point_mass(d)
    spec = validate_config(spec, _MEASURE, what)[1]
    atoms = tuple((loc, _matrix(w, d, f"{what}.atoms"))
                  for loc, w in spec["atoms"])
    density = None
    dspec = spec["density"]
    if dspec is not None:
        if d != 1:
            raise ConfigError(f"{what}.density supports dim = 1 only")
        fn = _signal(dspec["name"], f"{what}.density.name")
        start, step, count = dspec["start"], dspec["step"], dspec["count"]
        cells = dspec["scale"] * np.asarray(
            fn(start + step * np.arange(count)), float)
        density = DensitySample(start, step, cells.reshape(count, 1, 1))
    return SignedMeasureRepr(d, atoms, density)


def _noise(spec: dict, m: int) -> NoiseSpec:
    if spec["family"] == "two-point":
        return NoiseSpec.two_point(spec["x1"], spec["x2"], spec["p1"], m)
    if spec["family"] == "uniform":
        return NoiseSpec.uniform(spec["lo"], spec["hi"], m)
    return NoiseSpec.gaussian(m)


def _thresholds(spec) -> TailThresholds:
    return TailThresholds(**spec) if spec else TailThresholds()


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


def _write_json(path: str, obj):
    with open(path, "w") as fh:
        if isinstance(obj, (EvidenceReport, RunManifest)):
            fh.write(obj.to_json())
        else:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _ensure_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
        raise NumericFailure(f"non-finite values in {what}")


def _ensure_finite_json(obj, what: str):
    """A NaN or an infinity anywhere in obj, written as JSON, is a numeric
    failure."""
    tree = obj.to_dict() if isinstance(obj, EvidenceReport) else obj
    try:
        json.dumps(tree, allow_nan=False, default=_jsonable)
    except ValueError:
        raise NumericFailure(f"non-finite values in {what}") from None


def _make_dir(path: str) -> str:
    """Makes the output directory `path`: one it cannot make is a config
    error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the typed config, builds the run (where
# every config error is raised) and returns run(out_dir, threads), which
# evaluates and writes the outputs; _prepare wraps the manifest around it

def cmd_simulate_discrete(cfg: dict):
    d, N, seed = cfg["dim"], cfg["horizon"], cfg["master_seed"]
    M = cfg["ensemble"]["n_paths"]
    p = cfg["p"]
    cps = cfg["checkpoints"]
    short = []
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
        cps = default_checkpoints(N)
    if p is not None:
        if M < discrete.MIN_TAIL_PATHS:
            short.append(f"fewer than {discrete.MIN_TAIL_PATHS} paths")
        if len(cps) < 2:
            short.append("fewer than 2 checkpoints")
        if not short:
            discrete.tail_span(cps[-1], cps[-2])
    norm = cfg["norm"]

    def one(i: int):
        x0, xi = discrete.draw_noise(sys_, rng_stream(seed, i))
        X = discrete.simulate_direct(sys_, xi, x0)
        _ensure_finite(X, f"path {i}")
        S = None if p is None else discrete.lp_partial_sums(X, p, norm)
        return X, S

    def run(out_dir: str, threads: int):
        results = run_paths(M, one, threads)
        if cfg["ensemble"]["keep_paths"]:
            _write_table(os.path.join(out_dir, "paths.csv"),
                         ["path_index", "n"] + [f"X_{j+1}" for j in range(d)],
                         [np.repeat(np.arange(M), N + 1),
                          np.tile(np.arange(N + 1), M)],
                         np.asarray([X for X, _ in results]).reshape(-1, d))
        if p is None:
            return
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
    return run


def cmd_simulate_sve(cfg: dict):
    d, seed, p = cfg["dim"], cfg["master_seed"], cfg["p"]
    cps = cfg["checkpoint_times"]
    keep_times = cfg["ensemble"]["keep_times"]
    grid = GridSpec(**cfg["grid"])
    nu = _measure(cfg["kernel"], d)
    sys_ = continuous.ContinuousSystem(
        nu, grid, _signal(cfg["forcing"], "forcing"),
        _signal(cfg["diffusion"], "diffusion"),
        None if cfg["initial"] is None else np.asarray(cfg["initial"], float),
        cfg["noise_dim"])
    if cps is None and p is not None:
        cps = default_checkpoint_times(grid.horizon_T)
    cp_idx = None if p is None else continuous.tail_checkpoints(grid, cps)
    keep_idx = None if keep_times is None else \
        [grid.index_at(t) for t in keep_times]
    M = cfg["ensemble"]["n_paths"]
    norm = cfg["norm"]

    def reduce(i: int, X: np.ndarray):
        _ensure_finite(X, f"path {i}")
        kept = X if keep_idx is None else X[keep_idx]
        S = None
        if p is not None:
            cum = continuous.lp_time_integral(X, p, grid, norm)
            S = [float(cum[k]) for k in cp_idx]
        return kept, S

    def run(out_dir: str, threads: int):
        results = continuous.ensemble(sys_, seed, M, reduce, threads)
        times = grid.times()
        kept_times = times if keep_idx is None else times[keep_idx]
        if cfg["ensemble"]["keep_paths"]:
            _write_paths(out_dir, d, kept_times, [X for X, _ in results])
        if p is None:
            return
        _write_table(os.path.join(out_dir, "partial_integrals.csv"),
                     ["path_index", "T", "S"],
                     [np.repeat(np.arange(M), len(cps))],
                     np.column_stack([np.tile(np.asarray(cps, float), M),
                                      np.ravel([S for _, S in results])]))
        report = continuous.ensemble_lp_tail_report(
            np.array([S for _, S in results]), p, cps, seed, norm,
            _thresholds(cfg["thresholds"]))
        _write_json(os.path.join(out_dir, "evidence.json"), report)
    return run


def cmd_simulate_sfde(cfg: dict):
    d, psi, seed = cfg["dim"], cfg["history"], cfg["master_seed"]
    grid = GridSpec(**cfg["grid"])
    mu = _measure(cfg["kernel"], d)
    psi_arg = _signal(psi, "history") if isinstance(psi, str) else \
        (0.0 if psi is None else psi)
    sys_ = continuous.DelaySystem(mu, cfg["tau"], psi_arg, grid,
                                  _signal(cfg["forcing"], "forcing"),
                                  _signal(cfg["diffusion"], "diffusion"),
                                  cfg["noise_dim"])

    def reduce(i: int, X: np.ndarray):
        _ensure_finite(X, f"path {i}")
        return X

    def run(out_dir: str, threads: int):
        results = continuous.ensemble(sys_, seed, cfg["ensemble"]["n_paths"],
                                      reduce, threads)
        if cfg["ensemble"]["keep_paths"]:
            _write_paths(out_dir, d, sys_.times(), results)
    return run


def cmd_resolvent(cfg: dict):
    kind, d = cfg["kind"], cfg["dim"]
    cols = [f"r_{i+1}{j+1}" for i in range(d) for j in range(d)]
    if kind == "discrete":
        kernel = _discrete_kernel(cfg["kernel"], d)
    else:
        grid = GridSpec(**cfg["grid"])
        mu = _measure(cfg["kernel"], d)
        if kind == "functional":
            continuous.delay_steps(mu, cfg["tau"], grid)
        elif mu.negative_support:
            raise ConfigError("differential resolvent takes a kernel "
                              "on [0, inf)")
        # snaps the atoms: one off the grid is a config error
        CompiledMeasure(mu, grid)

    def run(out_dir: str, threads: int):
        path = os.path.join(out_dir, "resolvent.csv")
        if kind == "discrete":
            R = discrete.resolvent_seq(kernel, cfg["horizon"])
            _write_table(path, ["n"] + cols, [np.arange(len(R))],
                         R.reshape(len(R), d * d))
            return
        r = continuous.differential_resolvent(mu, grid) \
            if kind == "differential" else \
            continuous.functional_resolvent(mu, cfg["tau"], grid)
        _write_table(path, ["t"] + cols, [],
                     np.column_stack([grid.times(), r.reshape(len(r), d * d)]))
    return run


def cmd_check(cfg: dict):
    cond = cfg["condition"]
    th = _thresholds(cfg["thresholds"])
    thetas = cfg["thetas"] if cfg["thetas"] is not None else \
        list(conditions.DEFAULT_THETAS)
    p = cfg["p"]
    key = "sigma" if "sigma" in _VARIANTS[cond] else "function"
    fn = _signal(cfg[key], key)
    if cond in ("cond-f", "cond-sigma-high"):
        cpt = cfg["checkpoint_times"]
        grid = GridSpec(**cfg["grid"])
        conditions.window_widths(thetas, grid, cfg["quad_step"])
        if cpt is not None:
            time_checkpoints(cpt, grid)
        evidence = conditions.forcing_window_evidence if cond == "cond-f" \
            else conditions.diffusion_window_evidence
        report = partial(evidence, fn, p, grid, thetas, cfg["quad_step"],
                         cpt, th)
    elif cond in ("cond-sigma-low", "s-epsilon"):
        n_windows, step = cfg["n_windows"], cfg["window_step"]
        conditions.unit_window_checkpoints(n_windows, cfg["checkpoints"])
        conditions.divisions(1.0, step, "window_step must divide 1")
        if cond == "cond-sigma-low":
            report = partial(conditions.unit_window_evidence, fn, p,
                             n_windows, step, cfg["checkpoints"], th)
        else:
            report = partial(
                conditions.gaussian_exceedance_series, fn,
                cfg["eps"] if cfg["eps"] is not None else [0.1, 1.0],
                n_windows, quad_step=step, checkpoints=cfg["checkpoints"],
                thresholds=th)
    elif cond == "fading":
        seg = cfg["segment_times"] if cfg["segment_times"] is not None else \
            (2.0, 6.0, 10.0, 14.0, 18.0, 20.0)
        grid, _ = conditions.segment_grid(seg, cfg["fading_step"])
        conditions.window_widths(thetas, grid)
        report = partial(conditions.window_fading_evidence, fn, thetas, seg,
                         cfg["fading_step"], cfg["tol"], th)
    elif cond == "lemma-p-lt-1":
        conditions.divisions(1.0, cfg["step_h"], "step_h must divide 1")

        def report():
            pair = conditions.exp_filter_equivalence(
                fn, cfg["filter_rate"], p, cfg["horizon"], cfg["step_h"], th)
            return {"integral": pair.integral_report.to_dict(),
                    "windows": pair.window_report.to_dict(),
                    "agree": pair.agree}
    else:  # irregular-windows
        bps, alpha, beta = (cfg[k] for k in
                            ("breakpoints", "spacing_min", "spacing_max"))
        conditions.irregular_breakpoints(bps, alpha, beta)

        def report():
            windows, sums = conditions.irregular_window_sums(
                fn, bps, p, alpha=alpha, beta=beta,
                quad_step=cfg["window_step"])
            return {"condition_id": "irregular-windows",
                    "windows": windows.tolist(), "partial_sums": sums.tolist()}

    def run(out_dir: str, threads: int):
        result = report()
        _ensure_finite_json(result, "report")
        _write_json(os.path.join(out_dir, "report.json"), result)
    return run


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
    _make_dir(out_dir)
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


def cmd_sweep(cfg: dict):
    # every member is built under every rule, and every member directory
    # made, before the first member runs
    dotted = cfg["param"].split(".")
    members = []
    for value in cfg["values"]:
        sub = copy.deepcopy(cfg["base"])
        node = sub
        for part in dotted[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"param {cfg['param']}: {part} in base "
                                  "is not an object")
        node[dotted[-1]] = value
        members.append(_prepare(cfg["command"], sub, None))

    def run(out_dir: str, threads: int):
        sub_dirs = [_make_dir(os.path.join(out_dir, f"{idx:03d}"))
                    for idx in range(len(members))]
        for member, sub_dir in zip(members, sub_dirs):
            member(sub_dir, threads)
    return run


# ---------------------------------------------------------------------------
# dispatch

_HANDLERS = {"simulate-discrete": cmd_simulate_discrete,
             "simulate-sve": cmd_simulate_sve,
             "simulate-sfde": cmd_simulate_sfde,
             "resolvent": cmd_resolvent,
             "check": cmd_check,
             "sweep": cmd_sweep}


def _prepare(command: str, raw_cfg: dict, seed_override: Optional[int]):
    """Builds a run, raising every config error, and returns run(out_dir,
    threads): it makes out_dir, runs, and writes the manifest, the digest
    of the config as given with its defaults and any --seed (a sweep's top
    directory gets none)."""
    _require_version(raw_cfg)
    schema = SCHEMAS[command]
    if seed_override is not None and "master_seed" in schema:
        raw_cfg = {**raw_cfg, "master_seed": seed_override}
    given, cfg = validate_config(raw_cfg, schema)
    for key, domain in _VARIANTS.get(
            cfg.get("kind") or cfg.get("condition"), {}).items():
        if cfg[key] is None:
            raise ConfigError(f"missing key: {key}")
        if domain is not None and isinstance(cfg[key], domain.kinds):
            domain.check(cfg[key], key)
    try:
        # a NaN where no domain looks fails the digest
        digest = None if command == "sweep" else config_digest(given)
        handler = _HANDLERS[command](cfg)
    except ValueError as exc:  # ConfigError included, message kept
        raise ConfigError(str(exc)) from exc

    def run(out_dir: str, threads: int):
        handler(_make_dir(out_dir), threads)
        if digest is not None:
            _write_json(os.path.join(out_dir, "manifest.json"), RunManifest(
                master_seed=cfg.get("master_seed", 0), config_digest=digest))
    return run


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="svlab",
        description="Simulators and admissibility checks for kernel-driven "
                    "stochastic systems.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SCHEMAS:
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
    try:
        if args.command == "reproduce":
            if args.experiment is None and not args.list_only:
                print("config error: reproduce needs an experiment id "
                      "(or --list)", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_reproduce(args.experiment, args.out, args.list_only)
        _prepare(args.command, _read_config(args.config), args.seed)(
            args.out, args.threads)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, FloatingPointError,
            OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
