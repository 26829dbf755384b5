"""Rolling-window admissibility checks and related series evidence.

Integrability of a forcing or diffusion term enters the asymptotic theory
through windowed functionals, t -> integral_t^{t+theta} f(s) ds, never
through f itself. This module computes those window profiles by the same
left-endpoint quadrature the simulators use and applies the shared
three-valued tail rules to their L^p / l^p partial integrals.

"For all theta > 0" is approximated on a declared finite set of widths
(default 0.5, 1, 2, 4); the aggregate verdict is the worst per-width one.
All widths of one check share one cumulative lattice, evaluated once up to
the widest window and read per width. Its bits do not depend on which
widths are requested: the lattice is built in chunks anchored at t = 0 and
summed in sequence, so a longer lattice has the same prefix as a shorter
one, and each profile equals the one a lattice of its own width gives. No
chunk is held whole beside the lattice: a dense chunk is sampled, summed
and written a slice of whole cells at a time through one reused buffer,
with the running sum carried into the next slice's first sample. That is
the very addition one cumsum over the chunk makes, so the lattice has the
bits of one cumsum per chunk.

Every sampler reads sample i at t = i * step: the lattice, the unit windows
and the exponential filter alike. An integrand that declares a support
(corpus.support_of) is evaluated and summed only there: each cell end reads
the running sum of the support samples at or before it, which has the bits
of summing the zeros in between. A profile is never held whole: its L^p
partial sums and segment suprema are reduced in blocks of PROFILE_BLOCK
points read off the lattice into one reused buffer.

Every series check reads its sums only at checkpoints, by one rule that is
not a cumsum (_sums_at): the L^p sums of the window profiles, the
unit-window sums of cond-sigma-low, the exceedance series of s-epsilon and
both routes of the p < 1 lemma. Each block of PROFILE_BLOCK terms, anchored
at index 0, is summed pairwise, the block sums are added in order, and a
checkpoint inside a block adds the pairwise sum of that block up to it. A
checkpoint's value depends on its own index alone. For non-negative terms
the relative error is below about (32 + n / PROFILE_BLOCK) u at n terms,
u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
4.2), against up to n u for one sequential cumsum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import corpus
from .core import GridSpec, divisions, exp_scan, positive_exponent
from .evidence import (DIVERGENT, INCONCLUSIVE, SATISFIED, SUMMABLE, VIOLATED,
                       EvidenceReport, TailThresholds, _tail_rule,
                       as_condition_verdict,
                       checkpoint_indices, default_checkpoint_times,
                       default_checkpoints, tail_ratio, tail_verdict,
                       time_checkpoints, worst_verdict)
from .quad import trapezoid_refined

DEFAULT_THETAS = (0.5, 1.0, 2.0, 4.0)
DEFAULT_EPS = (0.1, 1.0)
DEFAULT_SEGMENT_TIMES = (2.0, 6.0, 10.0, 14.0, 18.0, 20.0)
# lattice points per chunk, and per evaluation of the integrand
LATTICE_CHUNK = 4_000_000
LATTICE_SLICE = 1 << 16
# grid points per block of a streamed profile reduction
PROFILE_BLOCK = 1 << 15


@dataclass(frozen=True)
class WindowProfile:
    """Window integrals of one scalar signal on the nodes of a grid.

    values[i] = integral over [t_i, t_i + theta], left-Riemann at quad_step
    (a divisor of the grid step, so window endpoints sit on sample points).
    It is lattice[i + width] - lattice[i], on the cumulative lattice all
    widths of a check share, and is worked out on each read of values.
    """

    theta: float
    grid: GridSpec
    lattice: np.ndarray
    width: int
    quad_step: float

    @property
    def values(self) -> np.ndarray:
        n = self.grid.n_steps
        return self.lattice[self.width: self.width + n + 1] - \
            self.lattice[: n + 1]

    def abs_blocks(self, lo: int, hi: int):
        """(start, |values[start:end]|) over [lo, hi) in blocks of
        PROFILE_BLOCK points, start increasing. Every block is a view of one
        buffer per call, which the next block overwrites: a consumer is done
        with a block (and may change it in place) before it asks for the
        next."""
        F, m = self.lattice, self.width
        buf = np.empty(min(PROFILE_BLOCK, max(hi - lo, 0)))
        for a in range(lo, hi, PROFILE_BLOCK):
            b = min(a + PROFILE_BLOCK, hi)
            block = buf[:b - a]
            np.subtract(F[a + m: b + m], F[a: b], out=block)
            yield a, np.abs(block, out=block)


def _support_indices(support, first: int, n: int, step: float) -> np.ndarray:
    """The indices j in [0, n), increasing, of the samples first + j within
    two points of a support interval (lo, hi), the sample times being about
    step apart."""
    iv = np.asarray(support, float).reshape(-1, 2)
    i0 = np.clip(np.floor(iv[:, 0] / step).astype(np.int64) - 2 - first, 0, n)
    i1 = np.clip(np.ceil(iv[:, 1] / step).astype(np.int64) + 3 - first, 0, n)
    spans = []
    for a, b in sorted(zip(i0.tolist(), i1.tolist())):
        if spans and a <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], b)
        elif a < b:
            spans.append([a, b])
    return np.concatenate([np.arange(a, b) for a, b in spans]
                          + [np.empty(0, np.int64)])


def _on_support(f: Callable, first: int, n: int, step: float):
    """None when f declares no support (corpus.support_of) on the samples
    first .. first + n - 1; else (j, v), j the indices in [0, n) of the
    samples within two points of the support, increasing, and
    v = f((first + j) * step), evaluated on at most LATTICE_SLICE points a
    call. f is 0.0 at every other sample."""
    t0, t1 = np.array([first, first + n]) * step
    support = corpus.support_of(f, t0, t1)
    if support is None:
        return None
    idx = _support_indices(support, first, n, step)
    vals = np.empty(idx.size)
    for lo in range(0, idx.size, LATTICE_SLICE):
        j = idx[lo:lo + LATTICE_SLICE]
        vals[lo:lo + j.size] = f((first + j) * step)
    return idx, vals


def _sample_dense(f: Callable, out: np.ndarray, first: int,
                  step: float) -> None:
    """out[j] = f((first + j) * step), f evaluated on at most LATTICE_SLICE
    points a call."""
    for lo in range(0, out.size, LATTICE_SLICE):
        hi = min(lo + LATTICE_SLICE, out.size)
        out[lo:hi] = f(np.arange(first + lo, first + hi) * step)


def _sample(f: Callable, n: int, step: float) -> np.ndarray:
    """f at the n sample times i * step, i = 0 .. n - 1.

    f is evaluated on at most LATTICE_SLICE points a call (_sample_dense),
    so it must be pointwise, f(t)[i] a function of t[i] alone. Where f
    declares a support, f is evaluated only on it (_on_support) and the
    samples are zero elsewhere, with the same bits. Its callers
    (unit_windows, exp_filter_equivalence) need the samples whole; the
    window lattice holds no such array and samples a slice at a time.
    """
    out = np.zeros(n)
    on_support = _on_support(f, 0, n, step)
    if on_support is None:
        _sample_dense(f, out, 0, step)
    else:
        out[on_support[0]] = on_support[1]
    return out


def _cumulative_on_lattice(f: Callable, n_cells: int, h: float,
                           refine: int) -> np.ndarray:
    """F[j] = left-Riemann integral of f over [0, j*h] at step h/refine.

    The lattice runs in chunks of at most LATTICE_CHUNK points, each summed
    from 0 (the chunk boundaries fix the bits), so long horizons stay in
    memory. A dense chunk is never held whole: it is sampled, summed and
    written to F a slice of max(1, LATTICE_SLICE // refine) whole cells at a
    time, in one buffer reused by every slice. The running sum s of the
    chunk carries across slices as an addend of the slice's first sample,
    s + a_j, before its cumsum. np.cumsum adds in sequence, so that is the
    very addition s_{j-1} + a_j of one cumsum over the chunk, and F has the
    bits of one. Where f declares a support, a chunk sums only the samples
    on it (_on_support), and each cell end reads the running sum of those
    at or before it. That has the bits of summing the zeros too: adding 0.0
    changes a running sum at most in the sign of a zero, and adding the
    chunk's sums to F[pos], never -0.0, removes that sign.
    """
    step = h / refine
    F = np.empty(n_cells + 1)
    F[0] = 0.0
    block = max(1, LATTICE_CHUNK // refine)
    width = max(1, LATTICE_SLICE // refine)
    buf = None
    pos = 0
    while pos < n_cells:
        nb = min(block, n_cells - pos)
        on_support = _on_support(f, pos * refine, nb * refine, step)
        if on_support is None:
            if buf is None:
                buf = np.empty(min(width, n_cells) * refine)
            for c in range(0, nb, width):
                m = min(width, nb - c)
                cs = buf[:m * refine]
                _sample_dense(f, cs, (pos + c) * refine, step)
                if c:
                    cs[0] = carry + cs[0]
                np.cumsum(cs, out=cs)
                carry = cs[-1]
                cells = F[pos + c + 1: pos + c + m + 1]
                np.multiply(cs[refine - 1::refine], step, out=cells)
                cells += F[pos]
        else:
            idx, vals = on_support
            cs = np.empty(idx.size + 1)
            cs[0] = 0.0
            np.cumsum(vals, out=cs[1:])
            ends = np.arange(refine - 1, nb * refine, refine)
            at_ends = cs[np.searchsorted(idx, ends, side="right")]
            cells = F[pos + 1: pos + nb + 1]
            np.multiply(at_ends, step, out=cells)
            cells += F[pos]
        pos += nb
    return F


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
    width, all read off one cumulative lattice up to the widest window;
    f must be evaluable on [0, T + max(thetas)]."""
    h = grid.step_h
    ms, refine = window_widths(thetas, grid, quad_step)
    F = _cumulative_on_lattice(f, grid.n_steps + max(ms), h, refine)
    return [WindowProfile(theta=float(theta), grid=grid, lattice=F, width=m,
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


def _sums_at(blocks: Iterable[tuple[int, np.ndarray]], stops) -> np.ndarray:
    """out[k] = the sum of the first stops[k] terms of a stream that arrives
    as (start, terms) in blocks of PROFILE_BLOCK anchored at index 0, up to
    the last stop.

    Each whole block is summed pairwise (np.add.reduce) and the block sums
    are added in order; a stop inside a block reads the running total plus
    the pairwise sum of that block up to the stop. So out[k] depends on
    stops[k] alone, not on the other stops.
    """
    stops = np.asarray(stops, np.int64)
    out = np.zeros(stops.size)
    total = 0.0
    for lo, terms in blocks:
        for k in np.flatnonzero((stops > lo) & (stops <= lo + terms.size)):
            out[k] = total + np.add.reduce(terms[:stops[k] - lo])
        total += np.add.reduce(terms)
    return out


def _blocks(terms: np.ndarray):
    """A whole array as the (start, terms) blocks _sums_at reads."""
    return ((lo, terms[lo:lo + PROFILE_BLOCK])
            for lo in range(0, terms.size, PROFILE_BLOCK))


def profile_lp_evidence(profile: WindowProfile, p: float,
                        checkpoint_times: Optional[Sequence[float]] = None,
                        thresholds: TailThresholds = TailThresholds()
                        ) -> EvidenceReport:
    """Tail evidence for membership of the window profile in L^p.

    Cumulative integral of |profile|^p at doubling checkpoints; verdict from
    the last two by the shared tail rules, mapped onto satisfied/violated,
    with its bar eps_tail * s_half + eps_abs and tail_margin = increment -
    bar (< 0: satisfied). The left-Riemann sums of |profile|^p are read
    off blocks of PROFILE_BLOCK points by _sums_at, pairwise within a block:
    for n points, relative error below about (32 + n / PROFILE_BLOCK) u.
    """
    if positive_exponent(p) < 1:
        raise ValueError("exponent p must be >= 1")
    grid = profile.grid
    if checkpoint_times is None:
        checkpoint_times = default_checkpoint_times(grid.horizon_T)
    else:
        time_checkpoints(checkpoint_times, grid)
    cps = [float(t) for t in checkpoint_times]
    stops = [grid.index_at(t) for t in cps]

    def terms():
        # in place on the reused block: **= takes the scalar-power fast
        # paths of ** (np.square for p = 2), so the terms keep their bits
        for lo, block in profile.abs_blocks(0, max(stops, default=0)):
            block **= p
            yield lo, block

    at = [float(x) for x in _sums_at(terms(), stops) * grid.step_h]
    params = {"theta": profile.theta, "p": p, "quad_step": profile.quad_step}
    if len(cps) < 3:
        return EvidenceReport("window-lp-integral", params, tuple(cps),
                              {"checkpoint_values": at, **_few(cps)},
                              thresholds.as_dict(), INCONCLUSIVE)
    increment = at[-1] - at[-2]
    ratio = tail_ratio(at[-2], at[-1])
    verdict, bar = _tail_rule(at[-2], increment, ratio, thresholds)
    diagnostics = {
        "checkpoint_values": at,
        "tail_increment": increment,
        "tail_ratio": ratio,
        "tail_bar": bar,
        "tail_margin": increment - bar,
    }
    return EvidenceReport("window-lp-integral", params, tuple(cps),
                          diagnostics, thresholds.as_dict(),
                          as_condition_verdict(verdict))


def _multi_theta_report(condition_id: str, signal: Callable, exponent: float,
                        grid: GridSpec, thetas: Sequence[float],
                        quad_step: Optional[float],
                        checkpoint_times: Optional[Sequence[float]],
                        thresholds: TailThresholds,
                        extra_params: dict) -> EvidenceReport:
    # each row carries its sums and the margin to the tail bar, but no
    # ratio margin: a zero half sum makes the ratio inf, not strict JSON
    per = []
    for prof in window_profiles(signal, thetas, grid, quad_step):
        rep = profile_lp_evidence(prof, exponent, checkpoint_times, thresholds)
        per.append({"theta": prof.theta, "verdict": rep.verdict,
                    **{k: v for k, v in rep.diagnostics.items()
                       if k in ("checkpoint_values", "tail_bar",
                                "tail_margin")}})
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
    if positive_exponent(p) < 1:
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
    if positive_exponent(p) < 2:
        raise ValueError("this check is for p >= 2; use unit_window_evidence")
    return _multi_theta_report("diffusion-window-lp", corpus.Square(sigma),
                               p / 2.0, grid, thetas, quad_step,
                               checkpoint_times, thresholds, {"p": p})


# ---------------------------------------------------------------------------
# unit windows of sigma^2 and the exceedance series

def _unit_sums(samples: np.ndarray, k: int) -> np.ndarray:
    """Left-Riemann unit-window integrals of samples at t = i * (1/k)."""
    return samples.reshape(-1, k).sum(axis=1) * (1.0 / k)


def unit_windows(sigma_sq: Callable, n_windows: int,
                 quad_step: float = 1e-3) -> np.ndarray:
    """I_n = integral_n^{n+1} sigma^2, n = 0..n_windows-1, left-Riemann."""
    k = divisions(1.0, quad_step, "quad_step must divide 1")
    return _unit_sums(_sample(sigma_sq, n_windows * k, 1.0 / k), k)


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
    if positive_exponent(p) < 1:
        raise ValueError("exponent p must be >= 1")
    cps = unit_window_checkpoints(n_windows, checkpoints)
    I = unit_windows(corpus.Square(sigma), n_windows, quad_step)
    at = [float(x) for x in _sums_at(_blocks(I ** (p / 2.0)), cps)]
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


def gaussian_exceedance_series(sigma: Optional[Callable] = None,
                               eps_list: Sequence[float] = DEFAULT_EPS,
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
        windows = unit_windows(corpus.Square(sigma), n_windows, quad_step)
    windows = np.asarray(windows, float)
    pos = windows > 0    # a zero window adds 0
    per = []
    for eps in eps_list:
        terms = np.zeros(windows.size)
        terms[pos] = np.sqrt(windows[pos]) * np.exp(-eps / windows[pos])
        at = [float(x) for x in _sums_at(_blocks(terms), cps)]
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
    two verdicts is flagged. v on the grid is the step recurrence
    v_{k+1} = e^{-beta h} v_k + (1 - e^{-beta h}) / beta f(t_k), run by
    core.exp_scan in numpy alone. The left-Riemann sums of v^p are read at
    the checkpoints by _sums_at, pairwise within blocks of PROFILE_BLOCK
    points: for n points, relative error below about
    (32 + n / PROFILE_BLOCK) u.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if beta <= 0:
        raise ValueError("beta must be positive")
    horizon = int(horizon)
    k = divisions(1.0, step_h, "step_h must divide 1")
    h = 1.0 / k
    n = horizon * k
    fv = _sample(f, n, h)
    if np.any(fv < 0):
        bad = int(np.argmax(fv < 0))
        raise ValueError(f"negative forcing sample at t = {bad * h:g}")

    cps = default_checkpoints(horizon)
    decay = np.exp(-beta * h)
    v = exp_scan(0.0, (1.0 - decay) / beta * fv, decay)[:n]
    blocks = ((lo, b ** p) for lo, b in _blocks(v))
    at_int = [float(x) for x in _sums_at(blocks, [c * k for c in cps]) * h]
    at_win = [float(x) for x in _sums_at(_blocks(_unit_sums(fv, k) ** p), cps)]
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
                          quad_step: float = 1e-3):
    """Partial sums of (integral_{a_n}^{a_{n+1}} f)^p over a breakpoint
    sequence with a_0 = 0 and spacings inside [alpha, beta].

    Returns (windows, partial_sums); partial_sums[k] covers the first k
    windows. Spacing violations name the offending index.
    """
    if positive_exponent(p) < 1:
        raise ValueError("exponent p must be >= 1")
    a = irregular_breakpoints(breakpoints, alpha, beta)
    windows = np.array([
        trapezoid_refined(f, a[i], a[i + 1], quad_step)
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


def window_fading_evidence(f: Callable,
                           thetas: Sequence[float] = DEFAULT_THETAS,
                           segment_times: Sequence[float] = DEFAULT_SEGMENT_TIMES,
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
        sups = [float(np.max([b.max() for _, b in prof.abs_blocks(i0, i1)]))
                for i0, i1 in zip(idx, idx[1:])]
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
