"""Integrodifferential dynamics: resolvents, simulators, delay systems.

The drift kernel is a signed matrix measure nu on [0, inf); paths follow

    dX(t) = [f(t) + integral_{[0,t]} nu(ds) X(t-s)] dt + sigma(t) dB(t)

stepped by Euler-Maruyama with left-endpoint drift quadrature. Every kernel
recursion here (paths, delay paths, both resolvents) runs through
`CompiledMeasure.euler`, which hands the whole Euler scheme to the
discrete solvers' block solver `core.lag_solve`: per block of
core.SOLVE_BLOCK = 64 steps, anchored at the first unknown row, one stacked
product of the kernel's lag-reversed tap slab (`core.lag_slab`) with the
rows already solved and one product with the inverse of the block's unit
lower-triangular matrix. On [0, inf) atom lag l counts iff l <= k and
density lag l iff l <= k - 1, so X(0) sees atoms only; a delay kernel on
[-tau, 0] counts every tap over the stored history segment. A system
compiles its kernel once, for every path of an ensemble. The bits depend
on the block size and width (a path alone in one column and in a
PATH_BLOCK-column block can differ in the last bits);
at a fixed width and column, not on the other columns, `--threads` or the
BLAS thread count. The solvers return no drift terms; the one-step drift
with its own window code is `CompiledMeasure.convolve`.

`ensemble` steps the paths of an ensemble PATH_BLOCK = 8 at a time, on the
solver's trailing column axis: path i sits in column i % 8 of block i // 8
with its own `rng_stream(master_seed, i)` draws, and unused columns step
zero increments. `simulate_sve` and `simulate_sfde` step one path in its
column of such a block, so path i has the same bytes alone, in an ensemble
of any size and under any `--threads`.

Forcing f, diffusion sigma and the initial segment psi of a delay system
are signals, sampled by the one rule of `core.on_grid`: f and sigma at the
left endpoints t_0..t_{n-1}, psi at the grid times of [-tau, 0], with
per-time shapes (d,), (d, m) and (d,). Both systems bind their samples and
their compiled kernel in one place (`_bind`).

The kernel that is exactly the negative identity point mass at zero is
routed through the same exponential-integrator scan as `simulate_ou`, so
those two simulators are bit-identical on shared streams (same equation,
same code path). The scan is `core.exp_scan`, in numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (DEFAULT_NORM, CompiledMeasure, GridSpec,
                   SignedMeasureRepr, causal_convolution, divisions, exp_scan,
                   is_neg_identity_point_mass, on_grid, path_rows,
                   positive_exponent, rng_stream, run_paths, vector_norm)
from .evidence import (EvidenceReport, TailThresholds, median,
                       median_tail_verdict, time_checkpoints)
from .quad import bisect_root_levels

PATH_BLOCK = 8


# ---------------------------------------------------------------------------
# Brownian increments and the shared exponential-integrator scan

def brownian_increments(grid: GridSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    """Increments dB_k ~ N(0, h I_m) for k = 0..n-1."""
    dB = rng.standard_normal((grid.n_steps, m))
    dB *= np.sqrt(grid.step_h)
    return dB


def _increments(grid: GridSpec, m: int, master_seed: int, path_index: int,
                dB: Optional[np.ndarray] = None) -> np.ndarray:
    """The supplied increments, shape-checked, or the path's own draws."""
    if dB is None:
        return brownian_increments(grid, m, rng_stream(master_seed, path_index))
    dB = np.asarray(dB, float)
    if dB.shape != (grid.n_steps, m):
        raise ValueError(f"dB shape {dB.shape} != (n_steps, noise_dim) = "
                         f"({grid.n_steps}, {m})")
    return dB


def _ou_path(x0: np.ndarray, f_vals: np.ndarray, sig_vals: np.ndarray,
             dB: np.ndarray, h: float) -> np.ndarray:
    """Y_0 = x0, Y_{k+1} = e^{-h} Y_k + (1 - e^{-h}) f_k + sigma_k dB_k,
    scanned by `core.exp_scan`."""
    decay = np.exp(-h)
    drive = np.einsum("kdm,km->kd", sig_vals, dB)
    drive += (1.0 - decay) * f_vals
    return exp_scan(x0, drive, decay)


def simulate_ou(f, sigma, grid: GridSpec, *, d: int = 1, m: Optional[int] = None,
                master_seed: int = 0, path_index: int = 0,
                dB: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean-reverting unit-rate path from zero:
    Y_{k+1} = e^{-h} Y_k + (1 - e^{-h}) f(t_k) + sigma(t_k) dB_k, Y_0 = 0."""
    m = d if m is None else m
    times = grid.times()[:-1]
    return _ou_path(np.zeros(d), on_grid(f, times, (d,), "forcing"),
                    on_grid(sigma, times, (d, m), "diffusion"),
                    _increments(grid, m, master_seed, path_index, dB),
                    grid.step_h)


# ---------------------------------------------------------------------------
# systems

def _bind(sys, measure: SignedMeasureRepr, head: np.ndarray) -> None:
    """Set what the paths of `sys` step from: noise_dim (default d), the
    head rows, forcing and diffusion at the left endpoints t_0..t_{n-1}
    (shapes (n, d) and (n, d, m)) and the compiled kernel."""
    d = measure.dim
    m = d if sys.noise_dim is None else int(sys.noise_dim)
    times = sys.grid.times()[:-1]
    for name, value in (
            ("noise_dim", m), ("head", head),
            ("f_vals", on_grid(sys.forcing, times, (d,), "forcing")),
            ("sig_vals", on_grid(sys.diffusion, times, (d, m), "diffusion")),
            ("compiled", CompiledMeasure(measure, sys.grid))):
        object.__setattr__(sys, name, value)


@dataclass(frozen=True)
class ContinuousSystem:
    """Kernel measure on [0, inf), forcing, diffusion and initial vector.
    Its paths start from head = X(0), shape (1, d)."""

    nu: SignedMeasureRepr
    grid: GridSpec
    forcing: Union[Callable, np.ndarray, float, None] = None
    diffusion: Union[Callable, np.ndarray, float, None] = None
    initial: Optional[np.ndarray] = None
    noise_dim: Optional[int] = None

    def __post_init__(self):
        if self.nu.negative_support:
            raise ValueError("convolution kernel must be supported in [0, inf)")
        d = self.nu.dim
        init = (np.zeros(d) if self.initial is None
                else np.asarray(self.initial, float))
        if init.shape != (d,):
            raise ValueError(f"initial vector must have shape ({d},)")
        object.__setattr__(self, "initial", init)
        _bind(self, self.nu, init[None])

    @property
    def dim(self) -> int:
        return self.nu.dim


def simulate_sve(sys: ContinuousSystem, *, master_seed: int = 0,
                 path_index: int = 0, dB: Optional[np.ndarray] = None) -> np.ndarray:
    """Path of the kernel-driven equation on the system grid, shape (n+1, d).

    Generic kernels step X_{k+1} = X_k + [f_k + (nu * X)_k] h + sigma_k dB_k
    in column path_index % PATH_BLOCK of a block, drawn or supplied dB alike;
    the exact negative-identity point mass runs the exponential scan of
    `simulate_ou` (bit-identical there when initial = 0).
    """
    dB = _increments(sys.grid, sys.noise_dim, master_seed, path_index, dB)
    if is_neg_identity_point_mass(sys.nu):
        return _ou_path(sys.initial, sys.f_vals, sys.sig_vals, dB,
                        sys.grid.step_h)
    return _one_path(sys, path_index, dB)


def _block(sys, increments) -> np.ndarray:
    """Step one block of PATH_BLOCK paths of `sys` from its head rows on.
    `increments` yields pairs (i, dB_i): path i steps dB_i, shape (n, m),
    in column i % PATH_BLOCK, and every other column steps zero
    increments. Returns the state, shape (rows, d, PATH_BLOCK)."""
    head = sys.head
    n, d = sys.f_vals.shape
    dB = np.zeros((n, sys.noise_dim, PATH_BLOCK))
    for i, dB_i in increments:
        dB[:, :, i % PATH_BLOCK] = dB_i
    X = np.empty((len(head) + n, d, PATH_BLOCK))
    X[:len(head)] = head[:, :, None]
    drive = np.matmul(sys.sig_vals, dB)
    drive += sys.f_vals[:, :, None] * sys.grid.step_h
    sys.compiled.euler(X, len(head) - 1, drive)
    return X


def _one_path(sys, path_index: int, dB: np.ndarray) -> np.ndarray:
    """Path `path_index`, stepped in its column of a block whose other
    columns get zero increments."""
    X = _block(sys, [(path_index, dB)])
    return X[:, :, path_index % PATH_BLOCK].copy()


def ensemble(sys: Union[ContinuousSystem, DelaySystem], master_seed: int,
             n_paths: int, reduce: Callable[[int, np.ndarray], object],
             threads: int = 1) -> list:
    """[reduce(i, X_i) for i in range(n_paths)], X_i the path of `sys` on
    the stream rng_stream(master_seed, i), as `simulate_sve` or
    `simulate_sfde` give it for path_index = i.

    Generic kernels step the paths in blocks of PATH_BLOCK: path i sits in
    column i % PATH_BLOCK of block i // PATH_BLOCK, columns past n_paths get
    zero increments and draw nothing, and `threads` workers take whole
    blocks. The negative identity point mass scans each path on its own.
    Only one block of paths per worker is held at a time.
    """
    if isinstance(sys, ContinuousSystem) and is_neg_identity_point_mass(sys.nu):
        return run_paths(n_paths, lambda i: reduce(i, simulate_sve(
            sys, master_seed=master_seed, path_index=i)), threads)
    m = sys.noise_dim

    def block(b: int) -> list:
        paths = range(b * PATH_BLOCK, min((b + 1) * PATH_BLOCK, n_paths))
        X = _block(sys, ((i, _increments(sys.grid, m, master_seed, i))
                         for i in paths))
        return [reduce(i, X[:, :, i % PATH_BLOCK].copy()) for i in paths]

    blocks = run_paths(-(-n_paths // PATH_BLOCK), block, threads)
    return [out for outs in blocks for out in outs]


def _euler_resolvent(cm: CompiledMeasure, off: int) -> np.ndarray:
    """r(t_0..t_n) with r(0) = I after `off` zero history rows."""
    n, d = cm.grid.n_steps, cm.measure.dim
    r = np.zeros((off + n + 1, d, d))
    r[off] = np.eye(d)
    cm.euler(r, off, np.zeros((n, d, d)))
    return r[off:]


# ---------------------------------------------------------------------------
# resolvents and convolutions

def differential_resolvent(nu: SignedMeasureRepr, grid: GridSpec) -> np.ndarray:
    """Matrix resolvent of the kernel: r(0) = I,
    r'(t) = integral_{[0,t]} nu(ds) r(t-s), explicit Euler on the grid."""
    if nu.negative_support:
        raise ValueError("differential resolvent takes a kernel on [0, inf)")
    return _euler_resolvent(CompiledMeasure(nu, grid), 0)


def grid_convolution(kernel_vals: np.ndarray, f_vals: np.ndarray,
                     grid: GridSpec) -> np.ndarray:
    """Left-endpoint Riemann convolution on the grid:
    (k * f)(t_k) = sum_{j<k} kernel(t_k - t_j) f(t_j) h.

    Rows 1.. are one `core.causal_convolution` of kernel(t_1..) with f,
    shifted one row down, so row 0 is exactly 0; O(L log L) per kernel
    entry, L the smallest power of two >= 2n - 1 for n + 1 grid times, and
    normwise: within about (e + log2 L) u h sum_b ||kernel_ab||_2 ||f_b||_2
    in component a, e the kernel's columns and u = 2^-53.
    """
    h = grid.step_h
    kv = np.asarray(kernel_vals, float)
    fv = np.asarray(f_vals, float)
    scalar = kv.ndim == 1
    if scalar:
        kv = kv[:, None, None]
    if fv.ndim == 1:
        fv = fv[:, None]
    n1 = min(kv.shape[0], fv.shape[0])
    out = np.zeros((n1, kv.shape[1]))
    out[1:] = causal_convolution(kv[1:n1], fv[:n1 - 1]) * h
    return out[:, 0] if scalar and np.asarray(f_vals).ndim == 1 else out


def trailing_window_average(f, grid: GridSpec, d: int = 1) -> np.ndarray:
    """Average over widths u in [0, 1] of the trailing window integrals:
    value(t) = integral_0^1 integral_{max(t-u,0)}^t f(s) ds du, double
    left-endpoint quadrature on the grid; ValueError unless the grid step
    divides 1. The signal f is sampled by `core.on_grid` with per-time
    shape (d,); the result has shape (n+1,) for d = 1, else (n+1, d)."""
    n = grid.n_steps
    h = grid.step_h
    fv = on_grid(f, grid.times(), (d,), "signal")
    m = divisions(1.0, h, "the grid step must divide the unit width range")
    F = np.zeros((n + 1, d))
    F[1:] = np.cumsum(fv[:n], axis=0) * h
    G = np.cumsum(F, axis=0)
    prev = np.arange(n + 1) - m
    wsum = G - np.where((prev >= 0)[:, None], G[np.maximum(prev, 0)], 0.0)
    out = h * (m * F - wsum)
    return out[:, 0] if d == 1 else out


# ---------------------------------------------------------------------------
# delay systems

def delay_steps(mu: SignedMeasureRepr, tau: float,
                grid: Optional[GridSpec] = None) -> Optional[int]:
    """The delay-kernel rule: tau > 0 and mu supported in [-tau, 0]; on a
    grid, tau must also span at least one step. Returns the history length
    in grid steps, or None without a grid."""
    if not tau > 0:
        raise ValueError("delay tau must be positive")
    lo, hi = mu.support
    if lo < -tau - 1e-12 or hi > 1e-12:
        raise ValueError("delay kernel must be supported in [-tau, 0]")
    if grid is None:
        return None
    n_hist = grid.snap(tau)
    if n_hist < 1:
        raise ValueError("tau must span at least one grid step")
    return n_hist


@dataclass(frozen=True)
class DelaySystem:
    """Finite-delay dynamics: kernel measure mu on [-tau, 0], initial
    segment psi on [-tau, 0], forcing and diffusion on [0, T]. Its paths
    start from head = psi at the n_hist + 1 grid times of [-tau, 0], shape
    (n_hist + 1, d), which must be finite."""

    mu: SignedMeasureRepr
    tau: float
    psi: Union[Callable, np.ndarray, float, None]
    grid: GridSpec
    forcing: Union[Callable, np.ndarray, float, None] = None
    diffusion: Union[Callable, np.ndarray, float, None] = None
    noise_dim: Optional[int] = None

    def __post_init__(self):
        n_hist = delay_steps(self.mu, self.tau, self.grid)
        object.__setattr__(self, "n_hist", n_hist)
        head = on_grid(self.psi, self.times()[:n_hist + 1], (self.mu.dim,),
                       "initial segment")
        if not np.all(np.isfinite(head)):
            raise ValueError("initial segment must be finite")
        _bind(self, self.mu, head)

    @property
    def dim(self) -> int:
        return self.mu.dim

    def times(self) -> np.ndarray:
        return (np.arange(self.n_hist + self.grid.n_steps + 1) - self.n_hist) \
            * self.grid.step_h


def simulate_sfde(sys: DelaySystem, *, master_seed: int = 0, path_index: int = 0,
                  dB: Optional[np.ndarray] = None) -> np.ndarray:
    """Euler-Maruyama path on [-tau, T]; rows 0..n_hist hold the initial
    segment, the drift reads history through the delay kernel. Stepped in
    column path_index % PATH_BLOCK of a block, as `simulate_sve`."""
    dB = _increments(sys.grid, sys.noise_dim, master_seed, path_index, dB)
    return _one_path(sys, path_index, dB)


def functional_resolvent(mu: SignedMeasureRepr, tau: float,
                         grid: GridSpec) -> np.ndarray:
    """Matrix path r on [0, T] with r(0) = I, r(t) = 0 for t < 0 and
    r'(t) = integral_{[-tau,0]} mu(ds) r(t+s), explicit Euler."""
    n_hist = delay_steps(mu, tau, grid)
    return _euler_resolvent(CompiledMeasure(mu, grid), n_hist)


# ---------------------------------------------------------------------------
# characteristic analysis

def characteristic_det(mu: SignedMeasureRepr, tau: float,
                       lam: Union[complex, np.ndarray]
                       ) -> Union[complex, np.ndarray]:
    """det Delta(lambda) with Delta = lambda I - integral mu(ds) e^{lambda s};
    atoms enter exactly, density cells by exact exponential integration.

    `lam` is a scalar or an array of lambda values. A scalar gives a Python
    complex, an array a complex array of the same shape. One elementwise
    pass over all lambda: zero, plus W_j e^{lambda s_j} in atom order, plus
    the density's transform. Its cells are uniform, a_k = start + k step,
    so with u = e^{-lambda step}

        integral_{a_k}^{a_k + step} e^{lambda s} ds
            = e^{lambda a_{K-1}} u^{K-1-k} expm1(lambda step) / lambda,

    and the transform is psi(lambda) P(u), P(u) = sum_k V_k u^{K-1-k}.
    P runs by Horner's rule, P = V_0 and then P = P u + V_k; its rounding
    error is about 2K unit roundoffs times sum_k |V_k| |u|^{K-1-k}
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    5.1). psi is e^{lambda a_{K-1}} expm1(lambda step) / lambda where
    Re lambda < 0 and -e^{lambda (a_{K-1} + step)} expm1(-lambda step) /
    lambda elsewhere, step at 0: neither factor outgrows the exponentials
    of the cell edges, and nothing cancels near lambda = 0. Each form is
    computed only on the lambda that take it. A call costs about three
    complex exponentials per lambda and two array passes per cell.

    The Horner step writes each product into a second buffer and swaps
    the two: numpy multiplies a complex array in place by another loop,
    which rounds a one-element array differently. So the value at each
    lambda is bit-identical to evaluating that lambda on its own, in any
    batch.
    """
    delay_steps(mu, tau)
    lam = np.asarray(lam, complex)
    z = lam.reshape(-1)
    d = mu.dim
    hat = np.zeros((z.size, d, d), complex)
    for loc, w in mu.atoms:
        hat += w * np.exp(z * loc)[:, None, None]
    dens = mu.density
    k = 0 if dens is None else dens.values.shape[0]
    if k:
        step = dens.step
        last = dens.start + (k - 1) * step
        u = np.exp(z * -step)[:, None, None]
        p, q = np.empty_like(hat), np.empty_like(hat)
        p[:] = dens.values[0]
        for v in dens.values[1:]:
            np.multiply(p, u, out=q)
            q += v
            p, q = q, p
        psi = np.full(z.shape, step, complex)
        neg = z.real < 0
        pos = ~neg & (z != 0)
        zn, zp = z[neg], z[pos]
        psi[neg] = np.exp(zn * last) * np.expm1(zn * step) / zn
        psi[pos] = -np.exp(zp * (last + step)) * np.expm1(zp * -step) / zp
        hat += psi[:, None, None] * p
    det = np.linalg.det(z[:, None, None] * np.eye(d, dtype=complex) - hat)
    return complex(det[0]) if lam.ndim == 0 else det.reshape(lam.shape)


@dataclass(frozen=True)
class RootScanResult:
    roots: tuple
    rightmost: Optional[float]
    verdict: str
    rect: tuple


def characteristic_root_scan(mu: SignedMeasureRepr, tau: float,
                             re_range=(-3.0, 3.0), im_range=(0.0, 10.0),
                             n_re: int = 121, n_im: int = 101,
                             det_tol: float = 1e-8) -> RootScanResult:
    """Heuristic bounded-rectangle scan for roots of det Delta.

    Real roots come from sign changes on the real axis refined by bisection;
    complex candidates from grid minima of |det| polished by Newton steps
    with a numerical derivative. Conjugate pairs are represented by their
    upper-half member. A clean verdict ('stable' iff the rightmost located
    root has negative real part) only speaks for the rectangle scanned.

    det Delta is evaluated in batches, each point as it would be alone (see
    `characteristic_det`): bisection takes quad.BISECT_LEVELS levels of
    midpoints per call, each Newton iteration steps every unconverged
    minimum in one call, and one call checks |det| at all candidates.
    """
    def F(lam):
        return characteristic_det(mu, tau, lam)

    res = np.linspace(re_range[0], re_range[1], n_re)
    ims = np.linspace(im_range[0], im_range[1], n_im)
    roots = []

    # real axis: bisection on sign changes
    fre = F(res.astype(complex)).real
    for i in range(n_re):
        if fre[i] == 0.0:
            roots.append(complex(res[i], 0.0))
        elif i + 1 < n_re and fre[i] * fre[i + 1] < 0:
            x = bisect_root_levels(lambda t: F(t.astype(complex)).real,
                                   res[i], res[i + 1], fre[i], tol=1e-13)
            roots.append(complex(x, 0.0))

    # interior: |det| minima + Newton polish
    grid = np.empty((n_im, n_re), complex)
    grid.real = res
    grid.imag = ims[:, None]
    det = F(grid)
    # np.hypot is libm's hypot, as Python's abs(complex) is; np.abs on a
    # complex array may round differently
    absdet = np.hypot(det.real, det.imag)
    cell = complex(res[1] - res[0], ims[1] - ims[0]) if n_re > 1 and n_im > 1 \
        else complex(1.0, 1.0)
    minima = ()
    if n_im > 2 and n_re > 2:
        low = sliding_window_view(absdet, (3, 3)).min(axis=(2, 3))
        minima = np.argwhere(absdet[1:-1, 1:-1] == low) + 1
    lams = [complex(res[b], ims[a]) for a, b in minima]
    active = list(range(len(lams)))
    for _ in range(60):
        if not active:
            break
        dls = [1e-7 * (1.0 + abs(lams[j])) for j in active]
        vals = F(np.array([[lams[j] + dl, lams[j] - dl, lams[j]]
                           for j, dl in zip(active, dls)])).tolist()
        still = []
        for j, dl, (f_up, f_down, f_lam) in zip(active, dls, vals):
            deriv = (f_up - f_down) / (2.0 * dl)
            if deriv == 0:
                continue
            step = f_lam / deriv
            lams[j] = lams[j] - step
            if not abs(step) < 1e-13 * (1.0 + abs(lams[j])):
                still.append(j)
        active = still
    cands = [lam for lam in lams
             if re_range[0] - abs(cell.real) <= lam.real
             <= re_range[1] + abs(cell.real)
             and -abs(cell.imag) <= lam.imag <= im_range[1] + abs(cell.imag)]
    if cands:
        for lam, val in zip(cands, F(np.array(cands)).tolist()):
            if abs(val) < det_tol:
                roots.append(lam.conjugate() if lam.imag < 0 else lam)

    unique = []
    for lam in sorted(roots, key=lambda z: (z.real, z.imag)):
        if all(abs(lam - u) > 1e-6 for u in unique):
            unique.append(lam)
    rect = (re_range[0], re_range[1], im_range[0], im_range[1])
    if not unique:
        return RootScanResult((), None, "no-root-in-region", rect)
    rightmost = max(z.real for z in unique)
    verdict = "stable" if rightmost < 0 else "unstable"
    return RootScanResult(tuple(unique), rightmost, verdict, rect)


# ---------------------------------------------------------------------------
# gap diagnostics and ensembles

def pathwise_gap(path: np.ndarray, reference: np.ndarray, grid: GridSpec,
                 blocks: Sequence[tuple], norm: str = DEFAULT_NORM):
    """Gap ||X - reference|| on the grid plus suprema over [start, start+width]
    blocks."""
    gap = vector_norm(path_rows(path) - path_rows(reference), norm)
    sups = []
    for start, width in blocks:
        i0 = grid.index_at(start)
        i1 = grid.index_at(start + width)
        sups.append(float(np.max(gap[i0:i1 + 1])))
    return gap, sups


def lp_time_integral(path: np.ndarray, p: float, grid: GridSpec,
                     norm: str = DEFAULT_NORM) -> np.ndarray:
    """Left-Riemann cumulative integral of ||X||^p: value[k] covers [0, t_k],
    p finite and positive; a 1-D path is one component (core.path_rows)."""
    p = positive_exponent(p)
    vals = vector_norm(path_rows(path), norm)
    # in place: **= takes the scalar-power fast paths of ** (np.square for
    # p = 2), so the terms keep their bits
    vals **= p
    out = np.empty(len(vals))
    out[:1] = 0.0
    np.cumsum(vals[:-1], out=out[1:])
    out[1:] *= grid.step_h
    return out


def tail_checkpoints(grid: GridSpec, checkpoint_times) -> list[int]:
    """Indices of at least two checkpoint times under the checkpoint rule."""
    idx = time_checkpoints(checkpoint_times, grid)
    if len(idx) < 2:
        raise ValueError("need at least two checkpoints")
    return idx


def sve_ensemble_lp_tail(sys: ContinuousSystem, p: float,
                         checkpoint_times: Sequence[float], *,
                         master_seed: int = 0, n_paths: int = 30,
                         norm: str = DEFAULT_NORM,
                         thresholds: TailThresholds = TailThresholds(),
                         threads: int = 1) -> EvidenceReport:
    """Ensemble evidence on the integrals of ||X||^p: medians of the tail
    increment and ratio between the last two checkpoints."""
    grid = sys.grid
    idx = tail_checkpoints(grid, checkpoint_times)

    S = np.stack(ensemble(
        sys, master_seed, n_paths,
        lambda i, X: lp_time_integral(X, p, grid, norm)[idx], threads))
    return ensemble_lp_tail_report(S, p, checkpoint_times, master_seed, norm,
                                   thresholds)


def ensemble_lp_tail_report(S: np.ndarray, p: float,
                            checkpoint_times: Sequence[float],
                            master_seed: int, norm: str,
                            thresholds: TailThresholds) -> EvidenceReport:
    """The 'ensemble-lp-tail' report on S[path, checkpoint], the integrals
    of ||X||^p per path up to each checkpoint time."""
    verdict, diagnostics = median_tail_verdict(S[:, -2], S[:, -1], thresholds)
    diagnostics["median_checkpoint_values"] = [median(S[:, j])
                                               for j in range(S.shape[1])]
    return EvidenceReport(
        condition_id="ensemble-lp-tail",
        params={"p": p, "n_paths": S.shape[0], "master_seed": master_seed,
                "norm": norm},
        checkpoints=tuple(float(t) for t in checkpoint_times),
        diagnostics=diagnostics,
        thresholds=thresholds.as_dict(),
        verdict=verdict,
    )
