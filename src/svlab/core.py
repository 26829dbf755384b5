"""Grids, signed matrix measures, kernels, noise laws and RNG streams.

These are the shared substrate types: a uniform time grid, the one signal
sampler of every system (`on_grid`), a finitely represented matrix-valued signed measure (atoms plus a piecewise-constant
density), matrix kernel sequences for the summation equations, scalar noise
laws with exact or quadrature moments, and the reproducible per-path RNG
stream convention.

`lag_slab` is the one kernel layout of every recursion and `lag_solve`
the one solver: X[r+1] = X[r] + s sum_l T(l) X[r-l] + drive[r] is a unit
lower-triangular system, solved SOLVE_BLOCK = 64 steps at a time in blocks
anchored at the first unknown row, each block one stacked slab product with
the rows already solved and one product with the inverse of the block's
matrix; it returns no history terms. The discrete resolvent and direct
solver call it, and so does `CompiledMeasure`, which compiles a measure
once into a slab; its `euler` runs every continuous recursion except the
unit-rate mean-reverting one, which `exp_scan` runs as a first-order scan.
Importing svlab loads numpy and the standard library alone, and no svlab
run loads scipy; concurrent.futures is imported on the first `run_paths`
with threads > 1.

A block's matrix I - shift - s Tb is block lower Toeplitz, Toep(a) with
a[0] = I, a[1] = -I - s T(0) and a[k] = -s T(k-1) up to k = L+1, so its
inverse is Toep(Y) for the first block column Y (Hairer, Lubich and
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985, use the same block
structure). `_block_inverse` builds Y once per call by block forward
substitution, Y[0] = I and Y[i] = sum_k (-a[k]) Y[i-k], one product per
row, and Toep(Y) as one strided-view copy. With M = Toep(a), the residual
is componentwise |M Toep(Y) - I| <= gamma_m |M| |Toep(Y)|, m = min(L+1,
B-1) d, gamma_m = m u / (1 - m u), u = 2^-53 (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., sections 8.1 and 14.2). So
the block's solution Toep(Y) rhs is within gamma_(m + B d) |M^-1| |M|
|Toep(Y)| |rhs| of the exact one, where the triangular solve it replaced
was within gamma_(B d) |M^-1| |M| |x|: the same bound wherever the
solution x does not cancel. Faster builds of Y cost accuracy or bits:
doubling the known rows of Y with Toeplitz products misses the
near-one-ratio tail reference of the discrete solvers by more than its
1e-13 bound and changes the bits of a dim-2 diagonal system against its
dim-1 components, and np.linalg.inv makes the bits depend on the BLAS
thread count.

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
count, whose products keep each column's sums whole.

`prefix_blocks` is the one prefix rule of svlab, and every running sum
goes through it (Blelloch, Prefix sums and their applications,
CMU-CS-90-190, 1990): blocks of PREFIX_BLOCK = 32 terms anchored at index
0, a sequential running sum within each block, the block totals carried by
one sequential sum, and each block adding the carried total of the blocks
before it. `prefix_sum` lays any array out for it, each column a run of
its own. Output k depends on terms 0..k and PREFIX_BLOCK alone: a prefix
of a longer array is the shorter array's result, and a column's bits do
not depend on the other columns. Only correctly rounded adds make its
bits, with no BLAS and no libm, so they do not depend on the SIMD level
either. numpy never vectorises a cumsum, so from PREFIX_ACROSS blocks on,
counted over all runs, the in-block sums run as PREFIX_BLOCK - 1 vector
adds across the blocks, which take 0.5-0.65 of a cumsum's time on a long
column; fewer blocks run one cumsum along each block, which costs less
there. Columns are not counted: across the blocks of a run with c
columns, numpy's inner loops hold only c elements. Both orientations make
the same additions in the same order, so they give the same bits. The error
of output k is within (B + ceil(k / B) + 1) u sum_{j<=k} |x_j|, B =
PREFIX_BLOCK, u = 2^-53, against up to k u sum_{j<=k} |x_j| for one
sequential cumsum (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 4.2).

`exp_scan` is a blocked scan in blocks of SCAN_BLOCK = 256 rows anchored
at row 0: a block is one blocked prefix sum of its rows times decay^-j,
scaled back by decay^i, and the carries into the blocks are the same scan
of the block ends with decay^B. The powers are sequential cumprod
products, worked out once per decay and kept; B shrinks below SCAN_BLOCK,
in whole prefix blocks, where decay^B would leave [2^-500, 2^500], and
where decay^PREFIX_BLOCK does the scan takes doubling steps. Only
correctly rounded multiplies and adds and the sequential cumprod make its
bits, with no BLAS and no libm, so a column's bits depend on SCAN_BLOCK,
PREFIX_BLOCK and the anchor alone: not on the other columns, not on n (a
prefix of a scan is the shorter scan) and not on the SIMD level. Against
the exact recurrence the error is below about u (3 B L R_k + L M_k),
u = 2^-53, over L blocked levels, where R_k = sum_j |decay|^(k-1-j) |x_j|
+ |decay|^k |y0| and M_k weights each term of R_k by its lag; the
sequential recurrence's is u (R_k + 2 M_k).

`causal_convolution` is the one truncated convolution of matrix power
series, y[k] = sum_{j<=k} K[k-j] s[j] (Henrici, SIAM Rev. 21, 1979): one
real FFT of each input zero-padded to L, the smallest power of two >=
2n - 1, one per-frequency product summed elementwise over the inputs in a
fixed order, and one inverse FFT cut to n rows, in O(L log L d e) for
K (n, d, e) against the O(n^2 d e) of the direct sum. numpy's pocketfft
transforms each column alone, and no BLAS call touches the product, so the
bits depend on n (through L), the column's data and the SIMD level of the
complex multiply, not on the BLAS kernel or thread count. The error is
normwise, not relative per row: in the rounding model of the FFT (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., section 24.1),
with rounding errors spread over the frequencies, the transforms add about
log2 L roundings and the per-frequency sum of e products e more, so output
column a is within (e + log2 L) u sum_b ||K[:, a, b]||_2 ||s[:, b]||_2 of
the exact sum in every row, u = 2^-53 (the worst case puts an l1 norm in
place of one 2-norm). So a small y[k] beside large ones carries their
absolute error, and a longer n, whose L may be larger, need not reproduce
a shorter n's leading rows bit for bit.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import corpus
from .quad import adaptive_simpson

ARTIFACT_VERSION = "0.1.0"
DEFAULT_NORM = "max"
NORMS = ("max", "sum", "euclid")  # the kinds vector_norm takes
SOLVE_BLOCK = 64
SCAN_BLOCK = 256
PREFIX_BLOCK = 32
# a prefix sum adds its in-block sums across the blocks (one vector add per
# block position) from this many (run, block) pairs on, and runs one cumsum
# along each block below
PREFIX_ACROSS = 512
# every power decay^i a scan block multiplies by lies in [1/SCAN_RANGE, SCAN_RANGE]
SCAN_RANGE = 2.0 ** 500


class GridError(ValueError):
    """Raised for inconsistent grid or snapping requests."""


class MeasureError(ValueError):
    """Raised for malformed measure representations."""


class HistoryUnderflow(RuntimeError):
    """An atom or density cell reached back before the stored history."""


def vector_norm(x: np.ndarray, kind: str = DEFAULT_NORM) -> np.ndarray:
    """Norm on R^d along the last axis: 'max' (default), 'sum' or 'euclid'.
    Both of the first two are |x| for one component (d = 1)."""
    x = np.asarray(x, float)
    if kind in ("max", "sum") and x.shape[-1:] == (1,):
        return np.abs(x[..., 0])
    if kind == "max":
        return np.max(np.abs(x), axis=-1)
    if kind == "sum":
        return np.sum(np.abs(x), axis=-1)
    if kind == "euclid":
        return np.sqrt(np.sum(x * x, axis=-1))
    raise ValueError(f"unknown norm {kind!r}")


def path_rows(path) -> np.ndarray:
    """A path as rows (n+1, d); a 1-D path is one component, (n+1, 1)."""
    x = np.asarray(path, float)
    return x[:, None] if x.ndim == 1 else x


def positive_exponent(p: float) -> float:
    """p itself; ValueError unless p is a finite positive number (0, -1,
    nan and inf are not)."""
    if not 0 < p < math.inf:
        raise ValueError(f"exponent p must be a finite positive number, "
                         f"got {p!r}")
    return p


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


def divisions(span: float, step: float, message: str) -> int:
    """span / step; raises ValueError(message), before any evaluation,
    unless step divides span."""
    k = int(round(span / step)) if step > 0 else 0
    if k < 1 or abs(span / k - step) > 1e-9 * span:
        raise ValueError(message)
    return k


def on_grid(value, times: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """The signal `value` at `times`, shape (len(times),) + shape, by the one
    rule of every system: None is zero, a callable is evaluated on `times`.
    A number, or a non-callable array of the per-time shape, is held
    constant; a 1-D result with one value per time is a scalar profile s,
    read as s 1 for a (d,) shape and s I for a square (d, d) one. Any other
    shape than a row per time is a ValueError naming `what`."""
    n = len(times)
    full = (n,) + shape
    if value is None:
        return np.zeros(full)
    v = np.asarray(_sample_signal(value, times) if callable(value)
                   else value, float)
    # a callable's result is held constant only when it is a number: a 1-D
    # time profile must not pass for a constant vector when d == len(times)
    if v.shape != full and (v.ndim == 0
                            or (not callable(value) and v.shape == shape)):
        v = np.repeat(v[None], n, axis=0)
    if v.shape == (n,) and shape:
        if len(shape) == 1:
            v = np.repeat(v[:, None], shape[0], axis=1)
        elif len(shape) == 2 and shape[0] == shape[1]:
            v = v[:, None, None] * np.eye(shape[0])
    if v.shape != full:
        raise ValueError(f"{what} shape {v.shape} != {full}")
    return v


def _sample_signal(f: Callable, times) -> np.ndarray:
    """f(times), times increasing. Where f declares a support
    (corpus.support_of), f is evaluated in one call only at the times
    within two points of a support interval or of the first or last time
    (support_indices), the ends so that its own domain check sees the
    whole range, and the rest is 0.0: the bytes of f(times) for a pointwise f
    that is 0.0 off its support, without its full-length temporaries."""
    n = len(times)
    support = None if n == 0 else corpus.support_of(
        f, times[0], np.nextafter(times[-1], np.inf))
    if support is None:
        return f(times)
    times = np.asarray(times, float)
    iv = np.asarray(support, float).reshape(-1, 2)
    idx = support_indices(
        np.searchsorted(times, iv[:, 0]).tolist() + [0, n - 1],
        np.searchsorted(times, iv[:, 1], side="right").tolist() + [1, n], n)
    vals = np.asarray(f(times[idx]), float)
    out = np.zeros((n,) + vals.shape[1:])
    out[idx] = vals
    return out


def support_indices(lo, hi, n: int) -> np.ndarray:
    """The indices in [0, n), increasing and each once, of the samples
    within two points of the spans [lo[k], hi[k]), lo and hi sequences of
    ints: lo[k] at most the index of span k's first sample on a support
    interval, hi[k] at least one past its last. The two points guard the
    rounding of the sample times; spans that overlap or touch are merged
    and empty ones dropped."""
    spans = []
    for a, b in sorted(zip(lo, hi)):
        a, b = max(a - 2, 0), min(b + 2, n)
        if spans and a <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], b)
        elif a < b:
            spans.append([a, b])
    return np.concatenate([np.arange(a, b) for a, b in spans]
                          + [np.empty(0, np.int64)])


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
    anchored at row start+1. A block is two products: one stacked slab
    product with the windows of the rows already known, the block's own
    rows reading as zero, and one with the inverse Toep(Y) of the block's
    matrix M = I - shift - scale Tb = Toep(a). `_block_inverse` builds it
    once per call, substituting for Y one block row at a time; the module
    docstring gives the error bound and why the rows go one at a time.
    """
    if not X.flags.c_contiguous:
        raise ValueError("lag_solve fills a C-contiguous state in place")
    _, d, c = X.shape
    n = len(drive)
    if n == 0:
        return
    L = slab.shape[1] // d - 1
    B = min(SOLVE_BLOCK, n)
    Minv = _block_inverse(slab, scale, B)
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
        lo = (a + 1 - base) * d
        np.matmul(Minv[:nb * d, :nb * d], rhs.reshape(nb * d, c),
                  out=flat[lo:lo + nb * d])
        prev = Z[a + nb - base]
    X[start + 1:start + n + 1] = Z[start + 1 - base:]


def _block_inverse(slab: np.ndarray, scale: float, B: int) -> np.ndarray:
    """The (B d, B d) inverse Toep(Y) of a block's matrix Toep(a), a[0] = I,
    a[1] = -I - scale T(0), a[k] = -scale T(k-1) for 2 <= k <= L+1.

    Y[0] = I and Y[i] = sum_{k=1..min(i, L+1)} (-a[k]) Y[i-k], one product
    per row: the negated taps -a[k] are the last blocks of scale * slab,
    lag-reversed already, with I added to -a[1]."""
    d = slab.shape[0]
    K = min(slab.shape[1] // d, B - 1)
    taps = scale * slab[:, slab.shape[1] - K * d:]
    taps.ravel()[(K - 1) * d::K * d + 1] += 1.0
    # Y[i] is rows i d..(i+1) d of Y; np.dot gives np.matmul's bits here
    # at less cost a call
    Y = np.empty((B * d, d))
    Y[:d] = np.eye(d)
    for i in range(1, B):
        lo = max(0, i - K) * d
        np.dot(taps[:, K * d - (i * d - lo):], Y[lo:i * d],
               out=Y[i * d:i * d + d])
    # R[a, q, b] = Y[B-1-q][a, b], zero for q >= B, so row (i, a) of
    # Toep(Y) is R[a, B-1-i:2B-1-i] flattened: one strided view of R
    R = np.zeros((d, 2 * B - 1, d))
    R[:, :B] = Y.reshape(B, d, d)[::-1].transpose(1, 0, 2)
    row, _, col = R.strides
    return np.ascontiguousarray(as_strided(
        R[:, B - 1], (B, d, B * d), (-d * col, row, col))).reshape(B * d, B * d)


def prefix_sum(x) -> np.ndarray:
    """out[k] = x[0] + ... + x[k] along axis 0 by the blocked prefix rule
    (`prefix_blocks`), an array of x's shape: every other index of x is a
    column, laid out as a run of its own in whole blocks of PREFIX_BLOCK,
    zero-padded, so out[k] depends on x[0..k] of its column alone."""
    x = np.asarray(x, float)
    n, c = len(x), math.prod(x.shape[1:])
    L = whole_blocks(n)
    buf = np.zeros((c, L))
    buf[:, :n] = x.reshape(n, c).T
    prefix_blocks(buf.reshape(c, L // PREFIX_BLOCK, PREFIX_BLOCK, 1))
    return buf[:, :n].T.reshape(x.shape)


def whole_blocks(n: int) -> int:
    """n rounded up to whole blocks of PREFIX_BLOCK."""
    return -(-n // PREFIX_BLOCK) * PREFIX_BLOCK


def prefix_blocks(V: np.ndarray, carry: Optional[float] = None) -> None:
    """The one prefix rule of svlab, in place on V of shape (m, nb,
    PREFIX_BLOCK, c): m runs of nb blocks with c columns, each run summed
    along its blocks.

    Within a block the running sum is sequential from the block's first
    term; the block totals are carried by one sequential sum, and each
    block adds the carried total of the blocks before it. A given `carry`,
    the sum of the terms before the run, is the first carried total, and
    block 0 adds it. The in-block sums are PREFIX_BLOCK - 1 vector adds
    across the blocks (position j += position j - 1) from PREFIX_ACROSS
    (run, block) pairs on, else one sequential sum along each
    block: the same additions in the same order, so the same bits (module
    docstring)."""
    m, nb, B, c = V.shape
    if m * nb >= PREFIX_ACROSS:
        W = V.transpose(2, 0, 1, 3)
        for j in range(1, B):
            np.add(W[j], W[j - 1], out=W[j])
    else:
        np.add.accumulate(V, axis=2, out=V)
    if nb > 1 or carry is not None:
        ends = V[:, :, -1]
        if carry is not None:
            V[:, 0] += carry
        # a block's last sum plus the carry into it is the carry out of it
        # (fp addition commutes), so the carries are added to whole blocks,
        # which numpy does faster than to all but their last sums
        carried = np.add.accumulate(ends, axis=1)
        np.add(V[:, 1:], carried[:, :-1, None], out=V[:, 1:])


def exp_scan(y0, drive: np.ndarray, decay: float) -> np.ndarray:
    """out[0] = y0, out[k+1] = decay out[k] + drive[k] along axis 0, shape
    (n+1,) + drive.shape[1:]; y0 is a number or an array of drive's row
    shape. Blocked in numpy alone (module docstring)."""
    drive = np.asarray(drive, float)
    n, rows = len(drive), drive.shape[1:]
    out = _scan(y0, drive.reshape(n, math.prod(rows)), float(decay))
    return out.reshape((n + 1,) + rows)


def _scan(y0, x: np.ndarray, decay: float) -> np.ndarray:
    """The (n+1, c) scan of the (n, c) rows x from y0.

    Block b holds rows bB..bB+B-1, carry c_b = out[bB]; with q[i] = decay^i
    and S_b[i] = sum_{j<=i} x[bB+j] / q[j], out[bB+i+1] = q[i] (S_b[i] +
    decay c_b), and the carries are this scan of the block ends q[B-1]
    S_b[B-1] with decay q[B]. Every block, the partial last one too, takes
    the same operations, so a row's bits do not depend on n or c."""
    n, c = x.shape
    if n == 0:
        out = np.empty((1, c))
        out[0] = y0
        return out
    B, q, rq = _scan_powers(decay)
    if B == 0:
        # decay^PREFIX_BLOCK leaves the range: doubling steps over [y0; x]
        out = np.empty((n + 1, c))
        out[0] = y0
        out[1:] = x
        s, power = 1, decay
        while s <= n:
            out[s:] += power * out[:-s]
            s, power = 2 * s, power * power
        return out
    # rows 1.. of out, zero-padded to whole blocks, hold S_b and then out;
    # one block is padded to whole prefix blocks only, as rows past n touch
    # no row up to n
    nb = -(-n // B)
    if nb == 1:
        B = whole_blocks(n)
    out = np.empty((1 + nb * B, c))
    out[0] = y0
    out[1:n + 1] = x
    out[n + 1:] = 0.0
    S = out[1:].reshape(nb, B, c)
    S *= rq[:B]
    prefix_blocks(S.reshape(nb, B // PREFIX_BLOCK, PREFIX_BLOCK, c))
    # one block's carry is y0: the scan of no block ends
    carry = decay * out[:1] if nb == 1 else \
        decay * _scan(out[0], q[B - 1, 0] * S[:-1, -1], q[B, 0])
    S += carry[:, None]
    S *= q[:B]
    return out[:n + 1]


@functools.lru_cache(maxsize=64)
def _scan_powers(decay: float):
    """(B, q, 1/q) of a scan with this decay: q[i] = decay^i, i <= B, from
    one sequential cumprod, B the largest multiple b of PREFIX_BLOCK up to
    SCAN_BLOCK with every |q[i]|, i <= b, in [1/SCAN_RANGE, SCAN_RANGE]
    (0 if there is none), and 1/q[i] for i < B as a (B, 1) column.
    Worked out once per decay, so the many short scans of an
    ensemble and the levels of one scan pay for it once."""
    q = np.full(SCAN_BLOCK + 1, decay)
    q[0] = 1.0
    np.cumprod(q, out=q)
    inside = (np.abs(q) >= 1.0 / SCAN_RANGE) & (np.abs(q) <= SCAN_RANGE)
    B = SCAN_BLOCK if inside.all() else int(np.argmin(inside)) - 1
    B -= B % PREFIX_BLOCK
    rq = (1.0 / q[:B])[:, None]
    q = q[:, None]
    q.flags.writeable = rq.flags.writeable = False
    return B, q, rq


def causal_convolution(K: np.ndarray, s: np.ndarray) -> np.ndarray:
    """y[k] = sum_{j<=k} K[k-j] s[j] for k < n, K of shape (n, d, e) and s
    of shape (n, e); y has shape (n, d). One rfft of each input padded to
    L, the smallest power of two >= 2n - 1, the e products summed in order
    and one irfft: O(L log L d e), and every row of column a within (e +
    log2 L) u sum_b ||K[:, a, b]||_2 ||s[:, b]||_2 of the exact sum (module
    docstring). np.fft loads at the first call."""
    K = np.asarray(K, float)
    s = np.asarray(s, float)
    if K.ndim != 3 or s.shape != (len(K), K.shape[2]):
        raise ValueError(f"kernel shape {K.shape} and signal shape "
                         f"{s.shape} are not (n, d, e) and (n, e)")
    n, d, e = K.shape
    if n == 0:
        return np.zeros((0, d))
    L = 1 << (2 * n - 2).bit_length()
    Kf = np.fft.rfft(K, L, axis=0)
    sf = np.fft.rfft(s, L, axis=0)
    # an elementwise sum over the inputs, not matmul, keeps BLAS off the bits
    yf = Kf[:, :, 0] * sf[:, None, 0]
    for b in range(1, e):
        yf += Kf[:, :, b] * sf[:, None, b]
    return np.fft.irfft(yf, L, axis=0)[:n]


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

    def convolve(self, path: np.ndarray, t_index: int, history_offset: int = 0) -> np.ndarray:
        """Quadrature of the past-weighted integral at step t_index, the
        one-step view of `euler` with its own window code. No solver calls
        it: it is the independent check that `euler` takes the taps the
        window rule counts. path[i], shape (d,) or (d, c), is the state at
        grid index i - history_offset; a delay kernel reaching before it
        raises HistoryUnderflow."""
        path = np.asarray(path, float)
        d = self.measure.dim
        X = path.reshape(len(path), d, -1)
        row = t_index + history_offset
        first = self._first_rows(row, history_offset)
        # the full taps times rows first..row
        out = self.slab[:, self.slab.shape[1] - (row + 1 - first) * d:] \
            @ X[first:row + 1].reshape(-1, X.shape[2])
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
class NoiseSpec:
    """Noise family for the driving sequence xi(n) / Brownian increments:
    one scalar law per component, the components drawn independently.

    family 'gaussian-iid' is the only family that may be paired with a
    non-diagonal diffusion.
    """

    family: str
    laws: tuple

    # the law type of each family; a two-point law has two outcomes
    _FAMILIES = {"gaussian-iid": GaussianLaw, "two-point": FiniteDiscreteLaw,
                 "uniform": UniformLaw}

    def __post_init__(self):
        law_type = self._FAMILIES.get(self.family)
        if law_type is None:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not self.laws:
            raise ValueError("noise needs one law per component")
        for law in self.laws:
            if not isinstance(law, law_type):
                raise ValueError(f"noise family {self.family!r} takes "
                                 f"{law_type.__name__} laws, got "
                                 f"{type(law).__name__}")
            if self.family == "two-point" and len(law.outcomes) != 2:
                raise ValueError(f"a two-point law has two outcomes, got "
                                 f"{len(law.outcomes)}")

    @property
    def dim(self) -> int:
        return len(self.laws)

    @property
    def unrestricted_diffusion(self) -> bool:
        return self.family == "gaussian-iid"

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
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
    continuous ensembles pass whole blocks of paths as the items.
    concurrent.futures is imported on the first run with threads > 1."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(n_paths)))
    return [one(i) for i in range(n_paths)]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _jsonable(x, strict: bool):
    """x with numpy values as Python ones, tuples as lists and a NaN or an
    infinity as its repr "nan", "inf" or "-inf" (a ValueError if strict)."""
    if isinstance(x, (np.ndarray, np.generic)):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _jsonable(v, strict) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, strict) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        if strict:
            raise ValueError("non-finite value in a JSON tree")
        return repr(x)
    return x


def json_text(tree, strict: bool = False) -> str:
    """The text of every JSON file svlab writes, strict JSON: the values of
    `_jsonable`, sorted keys, indent 2 and a final newline."""
    return json.dumps(_jsonable(tree, strict), sort_keys=True,
                      indent=2) + "\n"


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
        return json_text(asdict(self))
