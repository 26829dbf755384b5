"""Rolling-window admissibility checks and related series evidence.

Integrability of a forcing or diffusion term enters the asymptotic theory
through windowed functionals, t -> integral_t^{t+theta} f(s) ds, never
through f itself. This module computes those window profiles by the same
left-endpoint quadrature the simulators use and applies the shared
three-valued tail rules to their L^p / l^p partial integrals.

"For all theta > 0" is approximated on a declared finite set of widths
(default 0.5, 1, 2, 4); the aggregate verdict is the worst per-width one.
All widths of one check share one cumulative lattice, evaluated once up to
the widest window and sliced per width. Its bits do not depend on which
widths are requested: the lattice is built in chunks anchored at t = 0 and
summed in sequence, so a longer lattice has the same prefix as a shorter
one, and each profile equals the one a lattice of its own width gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.signal import lfilter

from .core import GridSpec
from .evidence import (DIVERGENT, INCONCLUSIVE, SATISFIED, SUMMABLE, VIOLATED,
                       EvidenceReport, TailThresholds, as_condition_verdict,
                       checkpoint_indices, default_checkpoint_times,
                       default_checkpoints, tail_verdict, time_checkpoints,
                       worst_verdict)
from .quad import trapezoid_refined

DEFAULT_THETAS = (0.5, 1.0, 2.0, 4.0)
# lattice points per chunk, and per evaluation of the integrand
LATTICE_CHUNK = 4_000_000
LATTICE_SLICE = 1 << 16


@dataclass(frozen=True)
class WindowProfile:
    """Window integrals of one scalar signal on the nodes of a grid.

    values[i] = integral over [t_i, t_i + theta], left-Riemann at quad_step
    (a divisor of the grid step, so window endpoints sit on sample points).
    """

    theta: float
    grid: GridSpec
    values: np.ndarray
    quad_step: float
    exponent: Optional[float] = None


def _cumulative_on_lattice(f: Callable, n_cells: int, h: float,
                           refine: int) -> np.ndarray:
    """F[j] = left-Riemann integral of f over [0, j*h] at step h/refine.

    The lattice runs in chunks of at most LATTICE_CHUNK points (the chunk
    boundaries fix the bits), so long horizons stay in memory. Inside a
    chunk, f is evaluated on slices of LATTICE_SLICE points into one buffer
    allocated once per call, which is then summed in place. f must be
    pointwise, f(t)[i] a function of t[i] alone, so that slicing does not
    change its values.
    """
    step = h / refine
    F = np.empty(n_cells + 1)
    F[0] = 0.0
    block = max(1, LATTICE_CHUNK // refine)
    buf = np.empty(min(block, n_cells) * refine)
    run = 0.0
    pos = 0
    while pos < n_cells:
        nb = min(block, n_cells - pos)
        cs = buf[:nb * refine]
        for lo in range(0, cs.size, LATTICE_SLICE):
            hi = min(lo + LATTICE_SLICE, cs.size)
            cs[lo:hi] = f((pos * refine + np.arange(lo, hi)) * step)
        np.cumsum(cs, out=cs)
        cs *= step
        F[pos + 1: pos + nb + 1] = run + cs[refine - 1::refine]
        run = F[pos + nb]
        pos += nb
    return F


def divisions(span: float, step: float, message: str) -> int:
    """span / step; raises ValueError(message), before any evaluation,
    unless step divides span."""
    k = int(round(span / step)) if step > 0 else 0
    if k < 1 or abs(span / k - step) > 1e-9 * span:
        raise ValueError(message)
    return k


def window_widths(thetas: Sequence[float], grid: GridSpec,
                  quad_step: Optional[float] = None) -> tuple[list[int], int]:
    """Grid step counts of the window widths and the lattice refinement
    h / quad_step; raises ValueError, before any evaluation, for an empty
    width list, an off-grid width or a quad_step that does not divide h."""
    h = grid.step_h
    ms = [grid.snap(theta) for theta in thetas]
    if not ms:
        raise ValueError("need at least one window width")
    refine = 1
    if quad_step is not None:
        refine = divisions(h, quad_step, "quad_step must divide the grid step")
    return ms, refine


def window_profiles(f: Callable, thetas: Sequence[float], grid: GridSpec,
                    quad_step: Optional[float] = None
                    ) -> list[WindowProfile]:
    """Window profiles integral_t^{t+theta} f at every grid node, one per
    width, all sliced from one cumulative lattice up to the widest window;
    f must be evaluable on [0, T + max(thetas)]."""
    h = grid.step_h
    ms, refine = window_widths(thetas, grid, quad_step)
    n = grid.n_steps
    F = _cumulative_on_lattice(f, n + max(ms), h, refine)
    return [WindowProfile(theta=float(theta), grid=grid,
                          values=F[m: m + n + 1] - F[: n + 1],
                          quad_step=h / refine)
            for theta, m in zip(thetas, ms)]


def window_integral(f: Callable, theta: float, grid: GridSpec,
                    quad_step: Optional[float] = None) -> WindowProfile:
    """Window profile integral_t^{t+theta} f at every grid node; f must be
    evaluable on [0, T + theta]."""
    return window_profiles(f, (theta,), grid, quad_step)[0]


def _few(checkpoints) -> dict:
    """The reason a report reads inconclusive below three checkpoints."""
    return {} if len(checkpoints) >= 3 else \
        {"reason": "fewer than 3 checkpoints"}


def profile_lp_evidence(profile: WindowProfile, p: float,
                        checkpoint_times: Optional[Sequence[float]] = None,
                        thresholds: TailThresholds = TailThresholds()
                        ) -> EvidenceReport:
    """Tail evidence for membership of the window profile in L^p.

    Cumulative integral of |profile|^p at doubling checkpoints; verdict from
    the last two by the shared tail rules, mapped onto satisfied/violated.
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    grid = profile.grid
    if checkpoint_times is None:
        checkpoint_times = default_checkpoint_times(grid.horizon_T)
    else:
        time_checkpoints(checkpoint_times, grid)
    cps = [float(t) for t in checkpoint_times]
    power = np.abs(profile.values) ** p
    cum = np.zeros(len(power))
    cum[1:] = np.cumsum(power[:-1]) * grid.step_h
    at = [float(cum[grid.index_at(t)]) for t in cps]
    params = {"theta": profile.theta, "p": p, "quad_step": profile.quad_step}
    if len(cps) < 3:
        return EvidenceReport("window-lp-integral", params, tuple(cps),
                              {"checkpoint_values": at, **_few(cps)},
                              thresholds.as_dict(), INCONCLUSIVE)
    verdict = as_condition_verdict(tail_verdict(at[-2], at[-1], thresholds))
    diagnostics = {
        "checkpoint_values": at,
        "tail_increment": at[-1] - at[-2],
        "tail_ratio": at[-1] / at[-2] if at[-2] > 0 else np.inf,
    }
    return EvidenceReport("window-lp-integral", params, tuple(cps),
                          diagnostics, thresholds.as_dict(), verdict)


def _multi_theta_report(condition_id: str, signal: Callable, exponent: float,
                        grid: GridSpec, thetas: Sequence[float],
                        quad_step: Optional[float],
                        checkpoint_times: Optional[Sequence[float]],
                        thresholds: TailThresholds,
                        extra_params: dict) -> EvidenceReport:
    per = []
    for prof in window_profiles(signal, thetas, grid, quad_step):
        rep = profile_lp_evidence(prof, exponent, checkpoint_times, thresholds)
        per.append({"theta": prof.theta, "verdict": rep.verdict,
                    "checkpoint_values": rep.diagnostics["checkpoint_values"]})
    params = {"thetas": [float(t) for t in thetas], "exponent": exponent,
              "step_h": grid.step_h, "horizon_T": grid.horizon_T}
    params.update(extra_params)
    return EvidenceReport(condition_id, params, rep.checkpoints,
                          {"per_theta": per}, thresholds.as_dict(),
                          worst_verdict(e["verdict"] for e in per))


def forcing_window_evidence(f: Callable, p: float, grid: GridSpec,
                            thetas: Sequence[float] = DEFAULT_THETAS,
                            quad_step: Optional[float] = None,
                            checkpoint_times: Optional[Sequence[float]] = None,
                            thresholds: TailThresholds = TailThresholds()
                            ) -> EvidenceReport:
    """Forcing admissibility: every window profile of f lies in L^p."""
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    return _multi_theta_report("forcing-window-lp", f, p, grid, thetas,
                               quad_step, checkpoint_times, thresholds,
                               {"p": p})


def diffusion_window_evidence(sigma: Callable, p: float, grid: GridSpec,
                              thetas: Sequence[float] = DEFAULT_THETAS,
                              quad_step: Optional[float] = None,
                              checkpoint_times: Optional[Sequence[float]] = None,
                              thresholds: TailThresholds = TailThresholds()
                              ) -> EvidenceReport:
    """Diffusion admissibility for p >= 2: window profiles of sigma^2 in
    L^{p/2}, one scalar component at a time."""
    if p < 2:
        raise ValueError("this check is for p >= 2; use unit_window_evidence")
    return _multi_theta_report("diffusion-window-lp",
                               lambda t: np.asarray(sigma(t), float) ** 2,
                               p / 2.0, grid, thetas, quad_step,
                               checkpoint_times, thresholds, {"p": p})


# ---------------------------------------------------------------------------
# unit windows of sigma^2 and the exceedance series

def unit_windows(sigma_sq: Callable, n_windows: int,
                 quad_step: float = 1e-3) -> np.ndarray:
    """I_n = integral_n^{n+1} sigma^2, n = 0..n_windows-1, left-Riemann."""
    k = divisions(1.0, quad_step, "quad_step must divide 1")
    t = np.arange(n_windows * k) / k
    vals = np.asarray(sigma_sq(t), float)
    return vals.reshape(n_windows, k).sum(axis=1) / k


def unit_window_checkpoints(n_windows: int, checkpoints=None) -> list[int]:
    """The given checkpoints under the checkpoint rule, else n/8, n/4, n/2
    and n; those below 1 are dropped."""
    if checkpoints is None:
        checkpoints = [n_windows // 2 ** k for k in (3, 2, 1, 0)]
    else:
        checkpoint_indices(checkpoints, n_windows, "checkpoints")
    return [int(c) for c in checkpoints if c >= 1]


def unit_window_evidence(sigma: Callable, p: float, n_windows: int,
                         quad_step: float = 1e-3,
                         checkpoints: Optional[Sequence[int]] = None,
                         thresholds: TailThresholds = TailThresholds()
                         ) -> EvidenceReport:
    """Low-noise-regime admissibility: the sequence I_n = integral of
    sigma^2 over [n, n+1] lies in l^{p/2}.

    Stated for 1 <= p < 2; larger p reuses the same partial-sum machinery
    (the sequence test is then stronger than the windowed-integral one).
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    cps = unit_window_checkpoints(n_windows, checkpoints)
    I = unit_windows(lambda t: np.asarray(sigma(t), float) ** 2,
                     n_windows, quad_step)
    terms = I ** (p / 2.0)
    S = np.concatenate([[0.0], np.cumsum(terms)])
    at = [float(S[c]) for c in cps]
    verdict = as_condition_verdict(tail_verdict(at[-2], at[-1], thresholds)) \
        if len(cps) >= 3 else INCONCLUSIVE
    return EvidenceReport(
        "diffusion-unit-window-lp",
        {"p": p, "n_windows": n_windows, "quad_step": quad_step},
        tuple(cps),
        {"checkpoint_values": at,
         "tail_increment": at[-1] - at[-2] if len(at) > 1 else None,
         "first_windows": [float(x) for x in I[:8]], **_few(cps)},
        thresholds.as_dict(), verdict)


def exceedance_partial_sums(windows: np.ndarray, eps: float) -> np.ndarray:
    """Partial sums of sqrt(I_n) exp(-eps / I_n); zero windows contribute 0.

    Compensated (Kahan) accumulation: partial sums are compared against
    closed forms at ~1e-12 absolute, tighter than plain cumsum drift."""
    I = np.asarray(windows, float)
    terms = np.zeros(len(I))
    pos = I > 0
    terms[pos] = np.sqrt(I[pos]) * np.exp(-eps / I[pos])
    out = np.zeros(len(I) + 1)
    total = 0.0
    carry = 0.0
    for n, t in enumerate(terms):
        y = t - carry
        s = total + y
        carry = (s - total) - y
        total = s
        out[n + 1] = total
    return out


def gaussian_exceedance_series(sigma: Optional[Callable] = None,
                               eps_list: Sequence[float] = (0.1, 1.0),
                               n_windows: int = 512,
                               windows: Optional[np.ndarray] = None,
                               quad_step: float = 1e-3,
                               checkpoints: Optional[Sequence[int]] = None,
                               thresholds: TailThresholds = TailThresholds()
                               ) -> EvidenceReport:
    """Series sum_n sqrt(I_n) exp(-eps/I_n) whose finiteness for every
    eps > 0 marks almost-sure decay of the scalar noise-driven path.

    Windows may be passed directly; otherwise they are quadratures of
    sigma^2. One verdict per eps plus their worst_verdict.
    """
    if any(e <= 0 for e in eps_list):
        raise ValueError("every eps must be positive")
    if windows is None and sigma is None:
        raise ValueError("need sigma or explicit windows")
    cps = unit_window_checkpoints(
        n_windows if windows is None else len(windows), checkpoints)
    if windows is None:
        windows = unit_windows(lambda t: np.asarray(sigma(t), float) ** 2,
                               n_windows, quad_step)
    windows = np.asarray(windows, float)
    per = []
    for eps in eps_list:
        S = exceedance_partial_sums(windows, eps)
        at = [float(S[c]) for c in cps]
        v = tail_verdict(at[-2], at[-1], thresholds) if len(cps) >= 3 \
            else INCONCLUSIVE
        per.append({"eps": float(eps), "partial_sums": at, "verdict": v})
    return EvidenceReport(
        "exceedance-series",
        {"eps_list": [float(e) for e in eps_list], "n_windows": len(windows),
         "quad_step": quad_step},
        tuple(cps), {"per_eps": per, **_few(cps)}, thresholds.as_dict(),
        worst_verdict(e["verdict"] for e in per))


# ---------------------------------------------------------------------------
# p < 1 equivalence of the exponential filter and unit-window sums

@dataclass(frozen=True)
class ExpFilterEquivalence:
    integral_report: EvidenceReport
    window_report: EvidenceReport
    agree: bool


def exp_filter_equivalence(f: Callable, beta: float, p: float, horizon: int,
                           step_h: float = 2e-4,
                           thresholds: TailThresholds = TailThresholds()
                           ) -> ExpFilterEquivalence:
    """For non-negative f and 0 < p < 1, the filtered signal
    v(t) = integral_0^t e^{-beta (t-s)} f(s) ds has finite integral of v^p
    exactly when the unit-window sums sum_n (integral_n^{n+1} f)^p converge.
    Both routes are computed at the same checkpoints; disagreement of the
    two verdicts is flagged.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if beta <= 0:
        raise ValueError("beta must be positive")
    horizon = int(horizon)
    k = divisions(1.0, step_h, "step_h must divide 1")
    h = 1.0 / k
    n = horizon * k
    t = np.arange(n) * h
    fv = np.asarray(f(t), float)
    if np.any(fv < 0):
        bad = int(np.argmax(fv < 0))
        raise ValueError(f"negative forcing sample at t = {t[bad]:g}")

    decay = np.exp(-beta * h)
    v = np.concatenate([[0.0],
                        lfilter([1.0], [1.0, -decay],
                                (1.0 - decay) / beta * fv)])
    cum = np.zeros(n + 1)
    cum[1:] = np.cumsum(v[:-1] ** p) * h

    windows = fv.reshape(horizon, k).sum(axis=1) * h
    wsums = np.concatenate([[0.0], np.cumsum(windows ** p)])

    cps = default_checkpoints(horizon)
    at_int = [float(cum[c * k]) for c in cps]
    at_win = [float(wsums[c]) for c in cps]
    v_int = tail_verdict(at_int[-2], at_int[-1], thresholds)
    v_win = tail_verdict(at_win[-2], at_win[-1], thresholds)
    params = {"beta": beta, "p": p, "horizon": horizon, "step_h": h}
    rep_int = EvidenceReport(
        "exp-filter-lp-integral", params, tuple(float(c) for c in cps),
        {"checkpoint_values": at_int}, thresholds.as_dict(), v_int)
    rep_win = EvidenceReport(
        "forcing-unit-window-lp", params, tuple(float(c) for c in cps),
        {"checkpoint_values": at_win}, thresholds.as_dict(), v_win)
    return ExpFilterEquivalence(rep_int, rep_win, v_int == v_win)


# ---------------------------------------------------------------------------
# irregular windows and fading windows

def irregular_breakpoints(breakpoints: Sequence[float], alpha: float,
                          beta: float) -> np.ndarray:
    """The breakpoints as an array; raises ValueError, before any
    evaluation, unless there are two or more, the first is 0 and every
    spacing lies inside [alpha, beta], naming the offending index."""
    a = np.asarray(breakpoints, float)
    if a.size < 2:
        raise ValueError("need at least two breakpoints")
    if a[0] != 0.0:
        raise ValueError("first breakpoint must be 0")
    gaps = np.diff(a)
    tol = 1e-12
    bad = np.where((gaps < alpha - tol) | (gaps > beta + tol))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"window spacing at index {i} is {gaps[i]:g}, "
            f"outside [{alpha:g}, {beta:g}]")
    return a


def irregular_window_sums(f: Callable, breakpoints: Sequence[float],
                          p: float = 1.0, *, alpha: float, beta: float,
                          quad_step: float = 1e-3,
                          refine_points: Sequence[float] = ()):
    """Partial sums of (integral_{a_n}^{a_{n+1}} f)^p over a breakpoint
    sequence with a_0 = 0 and spacings inside [alpha, beta].

    Returns (windows, partial_sums); partial_sums[k] covers the first k
    windows. Spacing violations name the offending index.
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    a = irregular_breakpoints(breakpoints, alpha, beta)
    windows = np.array([
        trapezoid_refined(f, a[i], a[i + 1], quad_step, refine_points)
        for i in range(len(a) - 1)])
    sums = np.concatenate([[0.0], np.cumsum(np.abs(windows) ** p)])
    return windows, sums


def segment_grid(segment_times: Sequence[float], step_h: float
                 ) -> tuple[GridSpec, list[int]]:
    """Grid of step step_h up to the last segment time, and the grid index
    of every segment time; raises ValueError unless the times are strictly
    increasing grid nodes, no two on the same node."""
    times = [float(x) for x in segment_times]
    if len(times) < 2 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("segment times must be strictly increasing")
    grid = GridSpec(step_h, times[-1])
    idx = [grid.index_at(x) for x in times]
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("segment times must fall on distinct grid nodes")
    return grid, idx


def window_fading_evidence(f: Callable, thetas: Sequence[float] = (0.5, 1.0, 2.0),
                           segment_times: Sequence[float] = (2.0, 6.0, 10.0,
                                                             14.0, 18.0, 20.0),
                           step_h: float = 1e-5, tol: float = 1e-2,
                           thresholds: TailThresholds = TailThresholds()
                           ) -> EvidenceReport:
    """Evidence that |integral_t^{t+theta} f| -> 0 for each width theta.

    Suprema of the absolute window profile over consecutive segments
    [T_k, T_{k+1}); satisfied when the final supremum drops below tol,
    violated when it stays at least tol without halving from the first
    segment, inconclusive otherwise.
    """
    grid, idx = segment_grid(segment_times, step_h)
    per = []
    for prof in window_profiles(f, thetas, grid):
        absvals = np.abs(prof.values)
        sups = [float(absvals[i0:i1].max()) for i0, i1 in zip(idx, idx[1:])]
        if sups[-1] < tol:
            v = SATISFIED
        elif sups[-1] > 0.5 * sups[0]:
            v = VIOLATED
        else:
            v = INCONCLUSIVE
        per.append({"theta": prof.theta, "segment_sups": sups, "verdict": v})
    return EvidenceReport(
        "window-fading",
        {"thetas": [float(t) for t in thetas], "step_h": step_h, "tol": tol},
        tuple(float(x) for x in segment_times), {"per_theta": per},
        thresholds.as_dict(), worst_verdict(e["verdict"] for e in per))
