"""Grids, signed matrix measures, kernels, noise laws and RNG streams.

These are the shared substrate types: a uniform time grid, a finitely
represented matrix-valued signed measure (atoms plus a piecewise-constant
density), matrix kernel sequences for the summation equations, scalar noise
laws with exact or quadrature moments, and the reproducible per-path RNG
stream convention.

`lag_slab` is the one kernel layout of every recursion and `lag_solve`
the one solver: X[r+1] = X[r] + s sum_l T(l) X[r-l] + drive[r] is a unit
lower-triangular system, solved SOLVE_BLOCK = 64 steps at a time in blocks
anchored at the first unknown row, each block one stacked slab product with
the rows already solved and one triangular solve; it returns no history
terms. The discrete resolvent and direct solver call it, and so does
`CompiledMeasure`, which compiles a measure once into a slab; its `euler`
runs every continuous recursion.
Window rule at step k: a kernel on [0, inf) applies atom lag l iff l <= k
and density lag l iff l <= k - 1, so X(0) sees atoms only; a delay kernel
applies every tap over the stored history. The state's trailing column
axis holds a resolvent's d columns or a block of continuous.PATH_BLOCK = 8
paths, path i in column i % 8 of block i // 8 with its own `rng_stream`.

The bits of a solution depend on SOLVE_BLOCK and the anchor, which fix the
order of every sum. They do not depend on the other columns solved beside
a column, which go through the same operations, so a fixed block width and
column make a path's bytes independent of the ensemble size and of the
thread count that `run_paths` fans blocks out over; nor on the BLAS thread
count, whose products and triangular solve keep each column's sums whole.
"""
from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import solve_triangular

from .quad import adaptive_simpson

ARTIFACT_VERSION = "0.1.0"
DEFAULT_NORM = "max"
NORMS = ("max", "sum", "euclid")  # the kinds vector_norm takes
SOLVE_BLOCK = 64


class GridError(ValueError):
    """Raised for inconsistent grid or snapping requests."""


class MeasureError(ValueError):
    """Raised for malformed measure representations."""


class HistoryUnderflow(RuntimeError):
    """An atom or density cell reached back before the stored history."""


def vector_norm(x: np.ndarray, kind: str = DEFAULT_NORM) -> np.ndarray:
    """Norm on R^d along the last axis: 'max' (default), 'sum' or 'euclid'."""
    x = np.asarray(x, float)
    if kind == "max":
        return np.max(np.abs(x), axis=-1)
    if kind == "sum":
        return np.sum(np.abs(x), axis=-1)
    if kind == "euclid":
        return np.sqrt(np.sum(x * x, axis=-1))
    raise ValueError(f"unknown norm {kind!r}")


# ---------------------------------------------------------------------------
# grid

@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, horizon_T] with step step_h.

    n_steps is the smallest step count whose right endpoint covers the
    horizon; t_k = k * step_h for k = 0..n_steps.
    """

    step_h: float
    horizon_T: float

    def __post_init__(self):
        if not (self.step_h > 0):
            raise GridError("step_h must be positive")
        if self.horizon_T < self.step_h:
            raise GridError("horizon_T must be at least one step")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon_T / self.step_h - 1e-9))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.step_h

    def snap(self, x: float) -> int:
        """Nearest grid index of a location; rejects half-step ties."""
        k = int(math.floor(x / self.step_h + 0.5))
        if abs(x - k * self.step_h) >= (0.5 - 1e-9) * self.step_h:
            raise GridError(f"location {x} is {abs(x - k * self.step_h):.3g} "
                            f"from the grid, not under h/2")
        return k

    def index_at(self, t: float) -> int:
        k = self.snap(t)
        if k < 0 or k > self.n_steps:
            raise GridError(f"time {t} outside [0, {self.horizon_T}]")
        return k


# ---------------------------------------------------------------------------
# signed matrix measures

@dataclass(frozen=True)
class DensitySample:
    """Piecewise-constant matrix density: values[k] holds on
    [start + k*step, start + (k+1)*step)."""

    start: float
    step: float
    values: np.ndarray  # (K, d, d)

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise MeasureError("density values must have shape (K, d, d)")
        object.__setattr__(self, "values", v)
        if not (self.step > 0):
            raise MeasureError("density step must be positive")

    @property
    def end(self) -> float:
        return self.start + self.values.shape[0] * self.step

    def at(self, s: np.ndarray) -> np.ndarray:
        idx = np.floor((np.asarray(s, float) - self.start) / self.step).astype(int)
        idx = np.clip(idx, 0, self.values.shape[0] - 1)
        return self.values[idx]


@dataclass(frozen=True)
class SignedMeasureRepr:
    """Matrix-valued signed measure: finitely many atoms plus an optional
    piecewise-constant density, supported either in [0, inf) (convolution
    kernels) or in [-tau, 0] (delay kernels). Mixed-sign support is rejected.
    """

    dim: int
    atoms: tuple = ()          # ((location, weight (d,d)), ...)
    density: Optional[DensitySample] = None

    def __post_init__(self):
        norm_atoms = []
        for loc, w in self.atoms:
            w = np.asarray(w, float)
            if w.shape == ():
                w = w.reshape(1, 1)
            if w.shape != (self.dim, self.dim):
                raise MeasureError(f"atom weight shape {w.shape} != ({self.dim}, {self.dim})")
            norm_atoms.append((float(loc), w))
        object.__setattr__(self, "atoms", tuple(norm_atoms))
        locs = [loc for loc, _ in self.atoms]
        lo = min(locs, default=0.0)
        hi = max(locs, default=0.0)
        if self.density is not None:
            if self.density.values.shape[1] != self.dim:
                raise MeasureError("density dimension mismatch")
            lo = min(lo, self.density.start)
            hi = max(hi, self.density.end)
        if lo < 0 and hi > 0:
            raise MeasureError("support must lie in [0, inf) or in [-tau, 0]")
        object.__setattr__(self, "support", (lo, hi))

    @property
    def negative_support(self) -> bool:
        return self.support[0] < 0

    def total_variation(self) -> np.ndarray:
        """Componentwise total variation matrix: sum of |atom weights| plus
        the cellwise |density| mass."""
        tv = np.zeros((self.dim, self.dim))
        for _, w in self.atoms:
            tv += np.abs(w)
        if self.density is not None:
            tv += np.sum(np.abs(self.density.values), axis=0) * self.density.step
        return tv

    def digest(self) -> str:
        payload = {
            "dim": self.dim,
            "atoms": [[float(loc).hex(), [[v.hex() for v in row] for row in w.tolist()]]
                      for loc, w in self.atoms],
        }
        if self.density is not None:
            payload["density"] = {
                "start": float(self.density.start).hex(),
                "step": float(self.density.step).hex(),
                "values": hashlib.sha256(
                    np.ascontiguousarray(self.density.values).tobytes()).hexdigest(),
            }
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def point_mass(weight, location: float = 0.0) -> SignedMeasureRepr:
    """Measure with a single matrix atom (weight may be scalar for d = 1)."""
    w = np.atleast_2d(np.asarray(weight, float))
    return SignedMeasureRepr(dim=w.shape[0], atoms=((location, w),))


def neg_identity_point_mass(dim: int) -> SignedMeasureRepr:
    """The kernel -delta_0 I, whose paths coincide with the mean-reverting
    unit-rate process."""
    return point_mass(-np.eye(dim), 0.0)


def is_neg_identity_point_mass(m: SignedMeasureRepr) -> bool:
    if m.density is not None or len(m.atoms) != 1:
        return False
    loc, w = m.atoms[0]
    return loc == 0.0 and np.array_equal(w, -np.eye(m.dim))


def lag_slab(taps: np.ndarray) -> np.ndarray:
    """Taps T(0..L), shape (L+1, d, d), as the contiguous lag-reversed slab
    A (d, (L+1) d) with A[:, j d:(j+1) d] = T(L-j). A[:, A.shape[1] - m d:]
    @ H, H the history rows t-m+1..t stacked block by block, is
    sum_{l<m} T(l) H(t-l): one BLAS product in an order fixed by the layout.
    """
    d = taps.shape[1]
    return np.ascontiguousarray(taps[::-1].transpose(1, 0, 2)).reshape(
        d, taps.shape[0] * d)


def lag_solve(slab: np.ndarray, X: np.ndarray, start: int, drive: np.ndarray,
              scale: float = 1.0, first: int = 0) -> None:
    """Solve X[r+1] = X[r] + scale sum_{l<=L} T(l) X[r-l] + drive[r-start]
    for r = start..start+n-1, n = len(drive), in place, where slab =
    lag_slab(T(0..L)) and rows below `first` read as zero.

    X is C-contiguous (rows, d, c) with rows first..start known; row start
    also enters as X[r] of the first step when first > start. drive
    broadcasts to (n, d, c). The steps go SOLVE_BLOCK at a time, in blocks
    anchored at row start+1. A block is two calls: one stacked slab product
    with the windows of the rows already known, the block's own rows
    reading as zero, and one unit lower-triangular solve against the
    block's banded Toeplitz matrix, built once per call.
    """
    if not X.flags.c_contiguous:
        raise ValueError("lag_solve fills a C-contiguous state in place")
    _, d, c = X.shape
    n = len(drive)
    if n == 0:
        return
    L = slab.shape[1] // d - 1
    B = min(SOLVE_BLOCK, n)
    # Tb[(i, a), (j, b)] = T(i-1-j)[a, b]: the taps from solved row j of a
    # block into its step i; M = I - shift - scale Tb is the block's matrix
    lag = np.subtract.outer(np.arange(B), np.arange(B)) - 1
    taps = slab.reshape(d, L + 1, d)[:, ::-1].transpose(1, 0, 2)
    Tb = np.where(((lag >= 0) & (lag <= L))[:, :, None, None],
                  taps[np.clip(lag, 0, L)], 0.0)
    Tb = Tb.transpose(0, 2, 1, 3).reshape(B * d, B * d)
    M = -scale * Tb - np.kron(np.eye(B, k=-1), np.eye(d))
    # Z[z] holds X[base + z]: excluded rows, the B rows below `first` that
    # a window may reach and the rows not yet solved are zero
    base = first - B
    Z = np.zeros((start + n + 1 - base, d, c))
    Z[first - base:start + 1 - base] = X[first:start + 1]
    flat = Z.reshape(-1, c)
    row, col = flat.strides
    prev = X[start]
    for k0 in range(0, n, B):
        nb = min(B, n - k0)
        a = start + k0
        # window width: the lags from the block's last step that reach
        # row `first` or later
        w = max(0, min(L, a + nb - 1 - first)) + 1
        windows = as_strided(flat[(a + 1 - w - base) * d:],
                             (nb, w * d, c), (d * row, row, col))
        known = slab[:, (L + 1 - w) * d:] @ windows
        rhs = drive[k0:k0 + nb] + scale * known
        rhs[0] += prev
        sol = solve_triangular(M[:nb * d, :nb * d], rhs.reshape(nb * d, c),
                               lower=True, unit_diagonal=True,
                               check_finite=False)
        Z[a + 1 - base:a + 1 + nb - base] = sol.reshape(nb, d, c)
        prev = Z[a + nb - base]
    X[start + 1:start + n + 1] = Z[start + 1 - base:]


class CompiledMeasure:
    """A measure bound to a grid, compiled once into a lag-reversed tap slab:
    atom lags snapped to whole steps, density cells sampled at left
    endpoints (value * h), the taps of each lag summed into T(0..max_lag).
    Under the window rule (module docstring) rows X(1..k) see T, X(0) only
    the atom taps `origin_taps`, and a delay kernel needs max_lag history
    rows.
    """

    def __init__(self, measure: SignedMeasureRepr, grid: GridSpec):
        self.measure = measure
        self.grid = grid
        self.negative_support = measure.negative_support
        d, h = measure.dim, grid.step_h
        self.atom_lags = np.array([grid.snap(abs(loc))
                                   for loc, _ in measure.atoms], int)
        self.dens_lags = np.zeros(0, int)
        dens = measure.density
        if dens is not None:
            # left endpoints s = lag h, or s = -lag h (lag >= 1) on [-tau, 0)
            delay = self.negative_support
            ell = np.arange(1 if delay else 0,
                            int((abs(dens.start) + abs(dens.end)) / h) + 2)
            s = (-ell if delay else ell) * h
            keep = (s >= dens.start - 1e-12) & (s < dens.end - 1e-12)
            self.dens_lags = ell[keep]
        self.max_lag = int(max(self.atom_lags.max(initial=0),
                               self.dens_lags.max(initial=0)))
        taps = np.zeros((self.max_lag + 1, d, d))
        for lag, (_, w) in zip(self.atom_lags, measure.atoms):
            taps[lag] += w
        self.origin_taps = None if self.negative_support else taps.copy()
        if self.dens_lags.size:
            np.add.at(taps, self.dens_lags, dens.at(s[keep]) * h)
        self.slab = lag_slab(taps)

    def _first_rows(self, row: int, start: int) -> int:
        """First history row the full taps read at state row `row`."""
        if self.negative_support:
            if row < self.max_lag:
                raise HistoryUnderflow(f"lag {self.max_lag} reaches before "
                                       "the stored history")
            return row - self.max_lag
        return max(row - self.max_lag, start + 1)

    def _window(self, flat: np.ndarray, row: int, first: int) -> np.ndarray:
        """Full taps times rows first..row of the (rows d, c) state."""
        d = self.measure.dim
        return self.slab[:, self.slab.shape[1] - (row + 1 - first) * d:] \
            @ flat[first * d:(row + 1) * d]

    def convolve(self, path: np.ndarray, t_index: int, history_offset: int = 0) -> np.ndarray:
        """Quadrature of the past-weighted integral at step t_index, the
        one-step view of `euler` with its own window code. path[i], shape
        (d,) or (d, c), is the state at grid index i - history_offset; a
        delay kernel reaching before it raises HistoryUnderflow."""
        path = np.asarray(path, float)
        X = path.reshape(len(path), self.measure.dim, -1)
        row = t_index + history_offset
        out = self._window(X.reshape(-1, X.shape[2]), row,
                           self._first_rows(row, history_offset))
        if self.origin_taps is not None and t_index <= self.max_lag:
            out = out + self.origin_taps[t_index] @ X[history_offset]
        return out.reshape(path.shape[1:])

    def euler(self, X: np.ndarray, start: int, drive: np.ndarray) -> None:
        """Step X[start+k+1] = X[start+k] + conv_k h + drive[k] for
        k < n = len(drive) in place, through `lag_solve`; conv_k is the
        drift quadrature `convolve` gives at step k.

        X is C-contiguous (rows, d, c) with rows 0..start filled; c = 1 for
        a path, d for a resolvent. drive is the caller's (n, d, c) array of
        forcing * h + noise; the origin taps on X(start) are added into it
        in place.
        """
        h = self.grid.step_h
        if self.origin_taps is not None:
            origin = self.origin_taps[:len(drive)] @ X[start]
            drive[:len(origin)] += origin * h
        lag_solve(self.slab, X, start, drive, h, self._first_rows(start, start))


def total_variation(m: SignedMeasureRepr) -> np.ndarray:
    return m.total_variation()


# ---------------------------------------------------------------------------
# matrix kernel sequences (summation equations)

@dataclass(frozen=True)
class GeometricTail:
    """Closed-form tail K(n) = coeff * ratio^(n - start) for n >= start."""

    start: int
    coeff: np.ndarray
    ratio: float

    def __post_init__(self):
        object.__setattr__(self, "coeff", np.atleast_2d(np.asarray(self.coeff, float)))
        if not (0 < abs(self.ratio) < 1):
            raise ValueError("tail ratio must satisfy 0 < |ratio| < 1")


@dataclass(frozen=True)
class MatrixKernelSeq:
    """Kernel sequence n -> (d, d) matrix with finite explicit entries and an
    optional geometric tail; componentwise absolutely summable by
    construction."""

    dim: int
    entries: dict = field(default_factory=dict)   # n -> (d, d)
    tail: Optional[GeometricTail] = None

    def __post_init__(self):
        fixed = {}
        for n, w in self.entries.items():
            w = np.atleast_2d(np.asarray(w, float))
            if w.shape != (self.dim, self.dim):
                raise ValueError(f"entry {n} has shape {w.shape}")
            if int(n) < 0:
                raise ValueError("kernel indices start at 0")
            fixed[int(n)] = w
        object.__setattr__(self, "entries", fixed)
        if self.tail is not None and self.tail.coeff.shape != (self.dim, self.dim):
            raise ValueError("tail coefficient dimension mismatch")

    def values(self, n_max: int) -> np.ndarray:
        """Dense (n_max + 1, d, d) array of K(0..n_max)."""
        out = np.zeros((n_max + 1, self.dim, self.dim))
        if self.tail is not None:
            n = np.arange(self.tail.start, n_max + 1)
            if n.size:
                out[n] = self.tail.coeff[None, :, :] * \
                    (self.tail.ratio ** (n - self.tail.start))[:, None, None]
        for k, w in self.entries.items():
            if k <= n_max:
                out[k] = w
        return out

    def l1_matrix(self) -> np.ndarray:
        """Componentwise l1 mass, with the tail summed in closed form."""
        tot = np.zeros((self.dim, self.dim))
        for k, w in self.entries.items():
            if self.tail is not None and k >= self.tail.start:
                tot -= np.abs(self.tail.coeff) * abs(self.tail.ratio) ** (k - self.tail.start)
            tot += np.abs(w)
        if self.tail is not None:
            tot += np.abs(self.tail.coeff) / (1.0 - abs(self.tail.ratio))
        return tot


# ---------------------------------------------------------------------------
# scalar noise laws

class ScalarLaw:
    """Scalar law with sampling plus exact/quadrature set moments.

    mass_on / truncated_mean_on integrate the law and x * law over finite
    interval unions; discrete parts are summed exactly, density parts go
    through adaptive Simpson (abs tol 1e-10).
    """

    quad_tol = 1e-10

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def atom_list(self):
        return []

    def density_fn(self):
        return None

    def support_hint(self):
        """Bounded interval carrying most of the density mass, or None."""
        return None

    def mass_on(self, intervals) -> float:
        return self._integrate(intervals, lambda x: 1.0)

    def truncated_mean_on(self, intervals) -> float:
        return self._integrate(intervals, lambda x: x)

    def _integrate(self, intervals, weight_scalar) -> float:
        total = 0.0
        for x, p in self.atom_list():
            if any(lo <= x <= hi for lo, hi in intervals):
                total += weight_scalar(x) * p
        dens = self.density_fn()
        if dens is not None:
            for lo, hi in intervals:
                if hi > lo:
                    total += adaptive_simpson(lambda x: weight_scalar(x) * dens(x),
                                              lo, hi, self.quad_tol)
        return total


@dataclass(frozen=True)
class GaussianLaw(ScalarLaw):
    mean: float = 0.0
    std: float = 1.0

    def sample(self, rng, n):
        return self.mean + self.std * rng.standard_normal(n)

    def density_fn(self):
        mu, sd = self.mean, self.std
        return lambda x: math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    def support_hint(self):
        return (self.mean - 2.0 * self.std, self.mean + 2.0 * self.std)


@dataclass(frozen=True)
class UniformLaw(ScalarLaw):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("uniform law needs hi > lo")

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)

    def density_fn(self):
        lo, hi = self.lo, self.hi
        inv = 1.0 / (hi - lo)
        return lambda x: inv if lo <= x <= hi else 0.0

    def support_hint(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class FiniteDiscreteLaw(ScalarLaw):
    outcomes: tuple
    probs: tuple

    def __post_init__(self):
        out = tuple(float(x) for x in self.outcomes)
        pr = tuple(float(p) for p in self.probs)
        if len(out) != len(pr) or not out:
            raise ValueError("outcomes and probs must align and be nonempty")
        if any(p < 0 for p in pr) or abs(sum(pr) - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "outcomes", out)
        object.__setattr__(self, "probs", pr)

    def sample(self, rng, n):
        return rng.choice(np.asarray(self.outcomes), size=n, p=np.asarray(self.probs))

    def atom_list(self):
        return list(zip(self.outcomes, self.probs))


def two_point_law(x1: float, x2: float, p1: float = 0.5) -> FiniteDiscreteLaw:
    return FiniteDiscreteLaw((x1, x2), (p1, 1.0 - p1))


def constant_law(c: float) -> FiniteDiscreteLaw:
    return FiniteDiscreteLaw((c,), (1.0,))


@dataclass(frozen=True)
class SampledDensityLaw(ScalarLaw):
    """Piecewise-constant density on [start, start + len(values)*step)."""

    start: float
    step: float
    values: tuple

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        if any(x < 0 for x in v):
            raise ValueError("density values must be nonnegative")
        if abs(sum(v) * self.step - 1.0) > 1e-9:
            raise ValueError("density must integrate to 1")
        object.__setattr__(self, "values", v)

    def sample(self, rng, n):
        cdf = np.cumsum(np.asarray(self.values) * self.step)
        u = rng.random(n)
        cell = np.searchsorted(cdf, u, side="right")
        cell = np.clip(cell, 0, len(self.values) - 1)
        prev = np.concatenate([[0.0], cdf])[cell]
        dens = np.asarray(self.values)[cell]
        frac = np.where(dens > 0, (u - prev) / (dens * self.step), 0.0)
        return self.start + (cell + frac) * self.step

    def density_fn(self):
        start, step, vals = self.start, self.step, self.values

        def dens(x):
            k = int(math.floor((x - start) / step))
            return vals[k] if 0 <= k < len(vals) else 0.0
        return dens

    def support_hint(self):
        return (self.start, self.start + len(self.values) * self.step)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family for the driving sequence xi(n) / Brownian increments.

    family 'gaussian-iid' with independent components is the only family
    that may be paired with a non-diagonal diffusion.
    """

    family: str
    laws: tuple
    component_independence: bool = True
    joint_sampler: Optional[Callable] = None

    _FAMILIES = ("gaussian-iid", "two-point", "uniform", "finite-discrete",
                 "custom-sampled")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not self.laws:
            raise ValueError("noise needs one law per component, also with "
                             "a joint sampler")
        if not self.component_independence and self.joint_sampler is None:
            raise ValueError("dependent components need a joint sampler")

    @property
    def dim(self) -> int:
        return len(self.laws)

    @property
    def unrestricted_diffusion(self) -> bool:
        return self.family == "gaussian-iid" and self.component_independence

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.joint_sampler is not None:
            out = np.asarray(self.joint_sampler(rng, n), float)
            if out.shape != (n, self.dim):
                raise ValueError("joint sampler returned wrong shape")
            return out
        if self.family == "gaussian-iid" and all(
                isinstance(l, GaussianLaw) and l.mean == 0.0 and l.std == 1.0
                for l in self.laws):
            return rng.standard_normal((n, self.dim))
        cols = [law.sample(rng, n) for law in self.laws]
        return np.stack(cols, axis=1)

    @staticmethod
    def gaussian(m: int) -> "NoiseSpec":
        return NoiseSpec("gaussian-iid", tuple(GaussianLaw() for _ in range(m)))

    @staticmethod
    def two_point(x1: float, x2: float, p1: float = 0.5, m: int = 1) -> "NoiseSpec":
        return NoiseSpec("two-point", tuple(two_point_law(x1, x2, p1) for _ in range(m)))

    @staticmethod
    def uniform(lo: float, hi: float, m: int = 1) -> "NoiseSpec":
        return NoiseSpec("uniform", tuple(UniformLaw(lo, hi) for _ in range(m)))


# ---------------------------------------------------------------------------
# RNG streams and manifests

def rng_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one ensemble path.

    The same (master_seed, path_index) always gives the same draw sequence;
    distinct path indices give statistically independent streams, so results
    do not depend on scheduling order.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed),
                                                         int(path_index)]))


def run_paths(n_paths: int, one: Callable, threads: int = 1) -> list:
    """[one(0), ..., one(n_paths - 1)], fanned out over `threads` worker
    threads; results come back in path order whatever the scheduling. The
    continuous ensembles pass whole blocks of paths as the items."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(n_paths)))
    return [one(i) for i in range(n_paths)]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Identity card of a run: same manifest means bit-identical outputs."""

    master_seed: int
    config_digest: str
    artifact_version: str = ARTIFACT_VERSION
    norm: str = DEFAULT_NORM

    def to_json(self) -> str:
        return json.dumps({
            "master_seed": self.master_seed,
            "config_digest": self.config_digest,
            "artifact_version": self.artifact_version,
            "norm": self.norm,
        }, sort_keys=True, indent=2) + "\n"
