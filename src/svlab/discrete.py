"""Summation equations: resolvent recursion, two solvers, and path evidence.

The state recursion is
    X(n+1) = X(n) + sum_{j<=n} K(n-j) X(j) + f(n) + sigma(n) xi(n+1)
and the resolvent R satisfies the same recursion driven by the identity.
`simulate_direct` steps the recursion; `simulate_via_resolvent` rebuilds the
same path from R by variation of constants. The two must agree to round-off,
which is the cheapest deep check of both. Forcing and diffusion are
signals, sampled by the one rule of `core.on_grid`.

Both recursions go through `_solve_recursion`, which hands `core.lag_solve`
(the continuous stepper's solver) a short recurrence instead of N lags. A
kernel is explicit entries up to lag `last` plus, optionally, a geometric
tail c rho^(n-s) from lag s on, whose generating function c z^s / (1 - rho
z) is rational (Lubich, Numer. Math. 52, 1988). Subtracting rho times step
n-1 from step n multiplies the recursion by (1 - rho z): the taps become
K(l) - rho K(l-1), exactly zero past L + 1 with L = max(last, s), plus
rho I at lag 0 and -rho I at lag 1, and the drive becomes D(n) - rho
D(n-1), with D(0) - rho X(0) for the step out of row 0. Without a tail
rho = 0 and the taps are K(0..last) unchanged. The slab of `core.lag_slab`
then holds L + 2 lags (last + 1 without a tail), row a holding
T(L+1)[a, :], ..., T(0)[a, :], and a resolvent costs O(N L d^3), a path
O(N L d^2), instead of O(N^2). `core.lag_solve` solves it in blocks of
core.SOLVE_BLOCK = 64 steps, anchored at row 1, each one stacked product
of the slab with the rows already solved and one product with the inverse
of the block's unit lower-triangular matrix. The summation order is fixed
by the taps and the block layout, so the bits of R and X depend on the
kernel's recurrence form and the block size, but neither on the caller's
threads (`--threads`) nor on the BLAS thread count. They are not promised to agree with the leading rows of a
longer horizon's solution, whose block matrix is sized by the horizon.

`simulate_via_resolvent` takes R from the solver but sums the variation of
constants itself, as one `core.causal_convolution` of R(0..N-1) with the
drive rows shifted one row down: O(L log L d^2) a path, L the smallest
power of two >= 2N - 1, instead of the O(N^2 d^2) direct sum. No BLAS call
touches that sum; its bits depend on L, numpy's pocketfft and the SIMD
level of the complex multiply. Its error is normwise (the helper's
docstring), so the comparison with `simulate_direct` is scaled by the
path's largest entry, and a longer horizon need not reproduce a shorter
one's leading rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (DEFAULT_NORM, MatrixKernelSeq, NoiseSpec, ScalarLaw,
                   causal_convolution, lag_slab, lag_solve, on_grid,
                   path_rows, positive_exponent, rng_stream, vector_norm)
from .evidence import (EvidenceReport, TailThresholds, median_tail_verdict)

# the fewest paths an ensemble tail verdict reads
MIN_TAIL_PATHS = 30


def _solve_recursion(kernel: MatrixKernelSeq, X: np.ndarray,
                     drive: np.ndarray) -> None:
    """Fill X[1..n] of X(n+1) = X(n) + sum_{l<=n} K(l) X(n-l) + drive[n] in
    place, X (n+1, d, c) with X[0] known, as the (1 - rho z) recurrence of
    the module docstring: L + 2 taps with a tail of ratio rho, last + 1
    without one."""
    tail = kernel.tail
    rho = 0.0 if tail is None else tail.ratio
    top = max(kernel.entries, default=0)   # the last tap's lag
    if tail is not None:
        top = max(top, tail.start) + 1
    # no step reaches a lag past the horizon
    taps = kernel.values(min(top, len(X) - 1))
    taps[1:] -= rho * taps[:-1]
    eye = np.eye(kernel.dim)
    taps[0] += rho * eye
    taps[1:2] -= rho * eye
    drive = np.broadcast_to(drive, (len(X) - 1,) + X.shape[1:])
    # row n - 1 of the drive, and X(0) in place of row -1
    before = np.concatenate((X[:1], drive))[:-1]
    lag_solve(lag_slab(taps), X, 0, drive - rho * before)


def resolvent_seq(kernel: MatrixKernelSeq, n_max: int) -> np.ndarray:
    """Resolvent R(0..n_max): R(0) = I, R(n+1) = R(n) + sum_j K(n-j) R(j),
    solved as the short recurrence of `_solve_recursion` in O(n_max L d^3),
    L the kernel's last explicit lag or tail start."""
    if n_max < 0:
        raise ValueError("horizon must be nonnegative")
    d = kernel.dim
    R = np.empty((n_max + 1, d, d))
    R[0] = np.eye(d)
    _solve_recursion(kernel, R, np.zeros((1, 1, 1)))
    return R


@dataclass(frozen=True)
class DiscreteSystem:
    """Kernel, forcing, diffusion, noise and initial data on horizon 0..N.

    forcing and diffusion are signals, sampled by `core.on_grid` at the
    steps 0..N-1 into shapes (N, d) and (N, d, m), m the noise dimension;
    row n drives the step from n to n+1. Non-Gaussian noise requires
    diagonal diffusion at every step.
    """

    kernel: MatrixKernelSeq
    horizon: int
    forcing: Union[Callable, np.ndarray, float, None]
    diffusion: Union[Callable, np.ndarray, float, None]
    noise: NoiseSpec
    initial: Union[np.ndarray, Sequence[ScalarLaw], None] = None

    def __post_init__(self):
        d = self.kernel.dim
        N = int(self.horizon)
        if N < 1:
            raise ValueError("horizon must be at least 1")
        steps = np.arange(N, dtype=float)
        f = on_grid(self.forcing, steps, (d,), "forcing")
        s = on_grid(self.diffusion, steps, (d, self.noise.dim), "diffusion")
        if not self.noise.unrestricted_diffusion:
            if s.shape[1] != s.shape[2]:
                raise ValueError("non-Gaussian noise requires square diagonal diffusion")
            off = s - s * np.eye(d)[None, :, :]
            if np.any(off != 0.0):
                raise ValueError("non-Gaussian noise requires diagonal "
                                 "diffusion at every step")
        init = self.initial
        if init is None:
            init = np.zeros(d)
        if isinstance(init, np.ndarray) or (
                isinstance(init, (list, tuple)) and init and
                not isinstance(init[0], ScalarLaw)):
            init = np.asarray(init, float)
            if init.shape != (d,):
                raise ValueError(f"initial vector must have shape ({d},)")
        object.__setattr__(self, "forcing", f)
        object.__setattr__(self, "diffusion", s)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "horizon", N)

    @property
    def dim(self) -> int:
        return self.kernel.dim

    def draw_initial(self, rng: np.random.Generator) -> np.ndarray:
        if isinstance(self.initial, np.ndarray):
            return self.initial.copy()
        return np.array([law.sample(rng, 1)[0] for law in self.initial])


def draw_noise(sys: DiscreteSystem, rng: np.random.Generator):
    """Per-path draws in canonical order: initial first, then xi(1..N)."""
    x0 = sys.draw_initial(rng)
    xi = sys.noise.draw(rng, sys.horizon)
    return x0, xi


def simulate_direct(sys: DiscreteSystem, noise: Optional[np.ndarray] = None,
                    initial: Optional[np.ndarray] = None, *,
                    master_seed: int = 0, path_index: int = 0) -> np.ndarray:
    """Step the recursion; returns the path X(0..N) with shape (N+1, d).

    Pass `noise` (N, m) and `initial` to replay explicit draws; otherwise the
    (master_seed, path_index) stream supplies them.
    """
    N, d = sys.horizon, sys.dim
    if noise is None or initial is None:
        drawn0, drawn_xi = draw_noise(sys, rng_stream(master_seed, path_index))
        if initial is None:
            initial = drawn0
        if noise is None:
            noise = drawn_xi
    noise = np.asarray(noise, float)
    if noise.shape != (N, sys.noise.dim):
        raise ValueError(f"noise shape {noise.shape} != ({N}, {sys.noise.dim})")
    # sigma(n) xi(n+1) of every step in one stacked product
    shocks = np.matmul(sys.diffusion, noise[:, :, None])
    X = np.empty((N + 1, d, 1))
    X[0, :, 0] = initial
    _solve_recursion(sys.kernel, X, sys.forcing[:, :, None] + shocks)
    return X[:, :, 0]


def simulate_via_resolvent(R: np.ndarray, sys: DiscreteSystem,
                           noise: np.ndarray,
                           initial: Optional[np.ndarray] = None) -> np.ndarray:
    """Variation of constants:
    X(n) = R(n) xi0 + sum_{j=1..n} R(n-j) [f(j-1) + sigma(j-1) xi(j)].

    `noise` (N, m) must be the same draws a direct run consumed (same
    stream); R holds at least R(0..N), each (d, d). The sum is one
    `core.causal_convolution` of R(0..N-1) with the drive rows
    f(n-1) + sigma(n-1) xi(n), n = 1..N, shifted one row down, so X(0) is
    R(0) xi0 exactly. It costs O(L log L d^2) a path, L the smallest power
    of two >= 2N - 1, and its error is normwise: within (d + log2 L) u
    sum_b ||R[:N, a, b]||_2 ||drive_b||_2 in component a, u = 2^-53.
    """
    N, d = sys.horizon, sys.dim
    R = np.asarray(R, float)
    if R.shape[1:] != (d, d):
        raise ValueError(f"resolvent step shape {R.shape[1:]} != ({d}, {d})")
    if R.shape[0] < N + 1:
        raise ValueError("resolvent shorter than the horizon")
    if initial is None:
        if not isinstance(sys.initial, np.ndarray):
            raise ValueError("random initial data must be passed explicitly")
        initial = sys.initial
    initial = np.asarray(initial, float)
    if initial.shape != (d,):
        raise ValueError(f"initial shape {initial.shape} != ({d},)")
    noise = np.asarray(noise, float)
    if noise.shape != (N, sys.noise.dim):
        raise ValueError(f"noise shape {noise.shape} != ({N}, {sys.noise.dim})")
    drive = sys.forcing + np.einsum("ndm,nm->nd", sys.diffusion, noise)
    X = np.einsum("nab,b->na", R[:N + 1], initial)
    X[1:] += causal_convolution(R[:N], drive)
    return X


def random_summable_kernel(rng: np.random.Generator, dim: int,
                           support: int = 12, with_tail: bool = True) -> MatrixKernelSeq:
    """Random kernel from the summable test set: stabilizing diagonal at lag
    0, small off-lag entries, optional geometric tail; total l1 mass < 1."""
    from .core import GeometricTail
    entries = {0: -np.diag(0.15 + 0.35 * rng.random(dim)) +
               0.05 * (rng.random((dim, dim)) - 0.5)}
    n_extra = int(rng.integers(1, support))
    budget = 0.3
    for _ in range(n_extra):
        lag = int(rng.integers(1, support))
        w = (rng.random((dim, dim)) - 0.5) * (budget / (n_extra * dim))
        entries[lag] = entries.get(lag, 0.0) + w
    tail = None
    if with_tail and rng.random() < 0.5:
        tail = GeometricTail(start=support,
                             coeff=(rng.random((dim, dim)) - 0.5) * 0.02,
                             ratio=float(0.3 + 0.4 * rng.random()))
    return MatrixKernelSeq(dim=dim, entries=entries, tail=tail)


# ---------------------------------------------------------------------------
# path evidence

def lp_partial_sums(path: np.ndarray, p: float, norm: str = DEFAULT_NORM) -> np.ndarray:
    """S(N) = sum_{n<=N} ||X(n)||^p for N = 0..horizon, p finite and
    positive; a 1-D path is one component (core.path_rows)."""
    p = positive_exponent(p)
    vals = vector_norm(path_rows(path), norm) ** p
    return np.cumsum(vals)


def tail_span(full: int, half: Optional[int] = None) -> tuple[int, int]:
    """(half, full) of a tail comparison; needs half >= 1, full - half >= 2."""
    half = full // 2 if half is None else half
    if full - half < 2 or half < 1:
        raise ValueError("horizon too short for a tail comparison")
    return half, full


def tail_decision(partial_sums: Sequence[np.ndarray],
                  thresholds: TailThresholds = TailThresholds(),
                  half_index: Optional[int] = None) -> EvidenceReport:
    """Ensemble tail verdict from per-path partial-sum sequences.

    Summable evidence when the median tail increment S(N) - S(N/2) is below
    eps_tail * S(N/2) + eps_abs; divergent when the median ratio exceeds
    ratio_div; inconclusive otherwise.
    """
    seqs = [np.asarray(s, float) for s in partial_sums]
    if len(seqs) < MIN_TAIL_PATHS:
        raise ValueError(f"need at least {MIN_TAIL_PATHS} paths, "
                         f"got {len(seqs)}")
    length = len(seqs[0])
    if any(len(s) != length for s in seqs):
        raise ValueError("partial-sum sequences must share a horizon")
    half, hi = tail_span(length - 1, half_index)
    s_half = np.array([s[half] for s in seqs])
    s_full = np.array([s[hi] for s in seqs])
    verdict, diagnostics = median_tail_verdict(s_half, s_full, thresholds)
    return EvidenceReport(
        condition_id="lp-tail",
        params={"half_index": half, "full_index": hi},
        checkpoints=(half, hi),
        diagnostics=diagnostics,
        thresholds=thresholds.as_dict(),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# truncated-mean certificates

@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of bounded closed intervals (lo == hi is a singleton)."""

    intervals: tuple

    def __post_init__(self):
        ivs = []
        for lo, hi in self.intervals:
            lo, hi = float(lo), float(hi)
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
                raise ValueError(f"bad interval ({lo}, {hi})")
            ivs.append((lo, hi))
        if not ivs:
            raise ValueError("empty interval union")
        object.__setattr__(self, "intervals", tuple(sorted(ivs)))

    def interiors_disjoint_from(self, other: "IntervalUnion") -> bool:
        for lo1, hi1 in self.intervals:
            for lo2, hi2 in other.intervals:
                if max(lo1, lo2) < min(hi1, hi2):
                    return False
        return True

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)


def _as_union(b) -> IntervalUnion:
    if isinstance(b, IntervalUnion):
        return b
    if isinstance(b, tuple) and len(b) == 2 and np.isscalar(b[0]):
        return IntervalUnion((b,))
    return IntervalUnion(tuple(b))


@dataclass(frozen=True)
class TruncatedMeanCertificate:
    """Witness that a law separates two bounded windows: positive masses,
    nonzero truncated means, and nonvanishing cross determinant
    det = p2 e1 - p1 e2."""

    b1: IntervalUnion
    b2: IntervalUnion
    p1: float
    p2: float
    e1: float
    e2: float
    det: float
    tol_det: float


@dataclass(frozen=True)
class CertificateFailure:
    """First violated clause; says nothing about other window choices."""

    clause: str
    message: str
    values: dict = field(default_factory=dict)


def truncated_mean_certificate(law: ScalarLaw, b1, b2, tol_det: float = 1e-8):
    """Certify (p_i > 0, e_i != 0, |p2 e1 - p1 e2| > tol_det) for two
    disjoint bounded windows; returns the certificate or the first failure.
    """
    b1 = _as_union(b1)
    b2 = _as_union(b2)
    if not b1.interiors_disjoint_from(b2):
        raise ValueError("windows must be disjoint")
    for x, _ in law.atom_list():
        if b1.contains(x) and b2.contains(x):
            raise ValueError(f"atom at {x} sits in both windows")
    p1 = law.mass_on(b1.intervals)
    p2 = law.mass_on(b2.intervals)
    e1 = law.truncated_mean_on(b1.intervals)
    e2 = law.truncated_mean_on(b2.intervals)
    det = p2 * e1 - p1 * e2
    values = {"p1": p1, "p2": p2, "e1": e1, "e2": e2, "det": det}
    tiny = 1e-12
    for name, p in (("p1", p1), ("p2", p2)):
        if p <= tiny:
            return CertificateFailure(
                clause="positive-probability",
                message=f"{name} = {p:.3g} is not positive", values=values)
    for name, e in (("e1", e1), ("e2", e2)):
        if abs(e) <= tiny:
            return CertificateFailure(
                clause="nonzero-truncated-mean",
                message=f"{name} = {e:.3g} vanishes", values=values)
    if abs(det) <= tol_det:
        return CertificateFailure(
            clause="determinant",
            message=f"|p2 e1 - p1 e2| = {abs(det):.3g} <= {tol_det}",
            values=values)
    return TruncatedMeanCertificate(b1, b2, p1, p2, e1, e2, det, tol_det)


def default_separating_sets(law: ScalarLaw):
    """Heuristic window pair for a built-in law: epsilon-balls around two
    nonzero atoms if the law has them, otherwise adjacent windows inside the
    density support on one side of zero. Returns the first pair the
    certificate accepts, or None."""
    candidates = []
    atoms = [(x, p) for x, p in law.atom_list() if x != 0.0 and p > 0]
    if len(atoms) >= 2:
        atoms.sort(key=lambda xp: -xp[1])
        xs = sorted({x for x, _ in atoms[:4]})
        for i in range(len(xs) - 1):
            x1, x2 = xs[i], xs[i + 1]
            eps = min(abs(x1), abs(x2), (x2 - x1) / 2.0) / 2.0
            others = [abs(x - y) for y in xs for x in (x1, x2) if y not in (x1, x2)]
            if others:
                eps = min(eps, min(others) / 2.0)
            candidates.append(((x1 - eps, x1 + eps), (x2 - eps, x2 + eps)))
    if law.density_fn() is not None:
        hint = law.support_hint() or (-2.0, 2.0)
        a, b = hint
        w = b - a
        # halves, thirds, and an asymmetric split; at least one pair has
        # mismatched conditional means unless the law is degenerate
        cuts = (a + w / 2.0, a + w / 3.0, a + 2.0 * w / 3.0, a + w / 4.0)
        for c in cuts:
            candidates.append(((a, c), (c, b)))
        candidates.append(((a, a + w / 3.0), (a + 2.0 * w / 3.0, b)))
    for b1, b2 in candidates:
        result = truncated_mean_certificate(law, b1, b2)
        if isinstance(result, TruncatedMeanCertificate):
            return b1, b2
    return None
