"""Three-valued evidence verdicts shared by every numeric check, the rule
for well-formed checkpoints, the default checkpoints and the aggregate of
per-width verdicts.

Partial sums (or integrals) are compared at their last two checkpoints. The
tail rules are deliberately one-sided: they report evidence, never proof.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

SUMMABLE = "summable-evidence"
DIVERGENT = "divergent-evidence"
SATISFIED = "satisfied-evidence"
VIOLATED = "violated-evidence"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailThresholds:
    eps_tail: float = 1e-2
    eps_abs: float = 1e-8
    ratio_div: float = 1.5

    def as_dict(self) -> dict:
        return asdict(self)


def tail_verdict(s_half: float, s_full: float,
                 thresholds: TailThresholds = TailThresholds()) -> str:
    """Verdict for one sequence from its half-horizon and full-horizon sums."""
    increment = s_full - s_half
    if increment < thresholds.eps_tail * s_half + thresholds.eps_abs:
        return SUMMABLE
    ratio = np.inf if s_half == 0 else s_full / s_half
    if ratio > thresholds.ratio_div:
        return DIVERGENT
    return INCONCLUSIVE


def median_tail_verdict(s_half, s_full,
                        thresholds: TailThresholds = TailThresholds()):
    """Ensemble verdict from per-path sums: medians of increment and ratio.

    The diagnostics carry the verdict's margins: tail_bar = eps_tail *
    median_s_half + eps_abs, tail_margin = median_increment - tail_bar
    (> 0: not summable) and ratio_margin = median_ratio - ratio_div."""
    s_half = np.asarray(s_half, float)
    s_full = np.asarray(s_full, float)
    med_half = float(np.median(s_half))
    med_incr = float(np.median(s_full - s_half))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(s_half > 0, s_full / s_half,
                          np.where(s_full > 0, np.inf, 1.0))
    med_ratio = float(np.median(ratios))
    tail_bar = thresholds.eps_tail * med_half + thresholds.eps_abs
    if med_incr < tail_bar:
        verdict = SUMMABLE
    elif med_ratio > thresholds.ratio_div:
        verdict = DIVERGENT
    else:
        verdict = INCONCLUSIVE
    diagnostics = {
        "median_s_half": med_half,
        "median_s_full": float(np.median(s_full)),
        "median_increment": med_incr,
        "median_ratio": med_ratio,
        "n_paths": int(s_half.size),
        # how near the verdict was to flipping: summable iff tail_margin < 0,
        # else divergent iff ratio_margin > 0
        "tail_bar": tail_bar,
        "tail_margin": med_incr - tail_bar,
        "ratio_margin": med_ratio - thresholds.ratio_div,
    }
    return verdict, diagnostics


def checkpoint_indices(indices, hi: int, what: str, given=None) -> list:
    """The checkpoint rule: checkpoints are grid indices, integers in
    [0, hi] that strictly increase; errors quote `given` (default indices)."""
    given = list(indices if given is None else given)
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool)
               and 0 <= c <= hi for c in indices):
        raise ValueError(f"{what} must be integers in [0, {hi}], got {given}")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"{what} must strictly increase, got {given}")
    return [int(c) for c in indices]


def default_checkpoints(n: int) -> list:
    """The checkpoints taken when none are given: n//4, n//2 and n."""
    return [n // 4, n // 2, n]


def default_checkpoint_times(horizon_T: float) -> list:
    """The checkpoint times taken when none are given: T/4, T/2 and T."""
    return [horizon_T / k for k in (4, 2, 1)]


def time_checkpoints(times, grid) -> list:
    """Grid indices of checkpoint_times under the checkpoint rule."""
    return checkpoint_indices([grid.index_at(float(t)) for t in times],
                              grid.n_steps, "checkpoint_times", times)


def worst_verdict(verdicts) -> str:
    """Violated (divergent) if any verdict is, else inconclusive if any is
    or there are none, else the verdict they all share."""
    seen = set(verdicts)
    for v in (VIOLATED, DIVERGENT):
        if v in seen:
            return v
    return seen.pop() if len(seen) == 1 else INCONCLUSIVE


def as_condition_verdict(v: str) -> str:
    """Map summable/divergent vocabulary onto satisfied/violated."""
    return {SUMMABLE: SATISFIED, DIVERGENT: VIOLATED}.get(v, INCONCLUSIVE)


@dataclass(frozen=True)
class EvidenceReport:
    """JSON-serializable record of one evidence computation."""

    condition_id: str
    params: dict = field(default_factory=dict)
    checkpoints: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE

    def to_dict(self) -> dict:
        d = asdict(self)
        d["checkpoints"] = list(self.checkpoints)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          default=_jsonable) + "\n"


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")
