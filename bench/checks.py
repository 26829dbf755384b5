"""Correctness checks for benchmark operations.

Every check returns a list of failure messages (empty when the operation's
outputs are correct). The checks parse what the program wrote, compare
verdicts against the vocabulary and against what the corpus closed forms
allow, and recompute dual routes beside the operation.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

EVIDENCE_VOCAB = {"summable-evidence", "divergent-evidence",
                  "satisfied-evidence", "violated-evidence", "inconclusive"}
ROOT_SCAN_VOCAB = {"stable", "unstable", "no-root-in-region"}

# criterion 01: direct recursion against the resolvent formula
DUAL_ROUTE_REL_GAP = 1e-9


class CheckError(Exception):
    """An output is missing, does not parse or has the wrong shape."""


def read_json(out_dir: str, name: str):
    path = os.path.join(out_dir, name)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{name}: {exc}") from exc


def read_csv(out_dir: str, name: str, header_prefix, n_rows: int):
    """Rows of a numeric CSV as a float array, after checking the header,
    the row count and that every value is finite."""
    path = os.path.join(out_dir, name)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{name}: {exc}") from exc
    if not rows or rows[0][:len(header_prefix)] != list(header_prefix):
        raise CheckError(f"{name}: header {rows[:1]} does not start with "
                         f"{list(header_prefix)}")
    body = rows[1:]
    if len(body) != n_rows:
        raise CheckError(f"{name}: {len(body)} rows, expected {n_rows}")
    try:
        arr = np.array([[float(v) for v in r] for r in body], float)
    except ValueError as exc:
        raise CheckError(f"{name}: {exc}") from exc
    if arr.size and not np.all(np.isfinite(arr)):
        raise CheckError(f"{name}: non-finite values")
    return arr, body


def manifest(out_dir: str) -> list:
    man = read_json(out_dir, "manifest.json")
    missing = {"master_seed", "config_digest", "artifact_version"} - set(man)
    return [f"manifest.json lacks {sorted(missing)}"] if missing else []


def verdict(found, forbidden, where: str, vocab=EVIDENCE_VOCAB) -> list:
    if found not in vocab:
        return [f"{where}: verdict {found!r} outside the vocabulary"]
    if found in forbidden:
        return [f"{where}: verdict {found!r} is ruled out by the closed form"]
    return []


def guarded(fn):
    """Turn CheckError and parse failures into failure messages."""
    def run(*args) -> list:
        try:
            return fn(*args)
        except (CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
    return run


# ---------------------------------------------------------------------------
# closed forms

def gaussian_window(mean: float, std: float, lo: float, hi: float):
    """Mass and truncated mean of N(mean, std^2) on [lo, hi]."""
    za, zb = (lo - mean) / std, (hi - mean) / std
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
    pdf = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    mass = cdf(zb) - cdf(za)
    return mass, mean * mass + std * (pdf(za) - pdf(zb))


def uniform_window(a: float, b: float, lo: float, hi: float):
    lo, hi = max(lo, a), min(hi, b)
    if hi <= lo:
        return 0.0, 0.0
    return (hi - lo) / (b - a), (hi * hi - lo * lo) / (2.0 * (b - a))


def delay_rightmost_root(a: float, b: float, tau: float,
                         branch: int = 0) -> complex:
    """Rightmost root of lambda - b + a exp(-lambda tau) = 0, the
    characteristic equation of x' = b x(t) - a x(t - tau); it lies on the
    principal branch of the Lambert W function. For a, tau > 0, branch -1
    gives the next root: its conjugate, or the second real root."""
    from scipy.special import lambertw
    return complex(b + lambertw(-a * tau * math.exp(-b * tau), branch) / tau)


def window_integral_exact(name: str, params: dict, lo: float, hi: float) -> float:
    if name == "const":
        return params["c"] * (hi - lo)
    if name == "exp_decay":
        r = params["rate"]
        return (math.exp(-r * lo) - math.exp(-r * hi)) / r
    raise ValueError(f"no closed form for {name}")
