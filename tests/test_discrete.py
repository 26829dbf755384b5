"""Summation-equation tests: resolvent recursion, both solvers, evidence
rules, and the truncated-mean certificates (with scipy as the independent
quadrature oracle)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from scipy import integrate, stats
from scipy.linalg import solve_triangular

import svlab
from svlab import core, discrete
from svlab.core import (
    SOLVE_BLOCK,
    GaussianLaw,
    GeometricTail,
    GridSpec,
    MatrixKernelSeq,
    NoiseSpec,
    UniformLaw,
    constant_law,
    lag_slab,
    lag_solve,
    rng_stream,
    two_point_law,
)
from svlab.continuous import lp_time_integral
from svlab.discrete import (
    CertificateFailure,
    DiscreteSystem,
    TruncatedMeanCertificate,
    default_separating_sets,
    draw_noise,
    lp_partial_sums,
    random_summable_kernel,
    resolvent_seq,
    simulate_direct,
    simulate_via_resolvent,
    tail_decision,
    truncated_mean_certificate,
)
from svlab.evidence import DIVERGENT, SUMMABLE, TailThresholds


def _zero_system(kernel, N, m=1, noise=None, **kw):
    d = kernel.dim
    return DiscreteSystem(kernel, N, np.zeros((N, d)), np.zeros((N, d, m)),
                          noise or NoiseSpec.gaussian(m), **kw)


# ---------------------------------------------------------------------------
# resolvent

def test_resolvent_zero_kernel_is_identity():
    R = resolvent_seq(MatrixKernelSeq(2), 10)
    for n in range(11):
        np.testing.assert_array_equal(R[n], np.eye(2))


def test_resolvent_halving_kernel():
    R = resolvent_seq(MatrixKernelSeq(1, {0: [[-0.5]]}), 40)
    np.testing.assert_array_equal(R[:, 0, 0], 0.5 ** np.arange(41))


def test_resolvent_annihilating_kernel():
    R = resolvent_seq(MatrixKernelSeq(1, {0: [[-1.0]]}), 10)
    assert R[0, 0, 0] == 1.0
    np.testing.assert_array_equal(R[1:, 0, 0], np.zeros(10))


def test_resolvent_recursion_residual_is_roundoff():
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = int(rng.integers(1, 5))
        K = random_summable_kernel(rng, d)
        N = 80
        R = resolvent_seq(K, N)
        Kv = K.values(N)
        for n in range(N):
            conv = np.einsum("kab,kbc->ac", Kv[n::-1], R[:n + 1])
            res = np.abs(R[n + 1] - R[n] - conv).max()
            assert res < 1e-13


def _panel_kernel(d, with_tail):
    """Several lags with dense weights, optionally a geometric tail from lag
    7 on that overlaps none of them."""
    rng = np.random.default_rng(40 + d)
    entries = {lag: 0.3 / (lag + 1) * (rng.random((d, d)) - 0.5)
               for lag in (0, 1, 3, 4)}
    entries[0] -= 0.2 * np.eye(d)
    tail = GeometricTail(7, 0.05 * (rng.random((d, d)) - 0.5), 0.6) \
        if with_tail else None
    return MatrixKernelSeq(d, entries, tail)


def _reference_resolvent(kernel, N):
    Kv = kernel.values(N)
    R = np.empty((N + 1, kernel.dim, kernel.dim))
    R[0] = np.eye(kernel.dim)
    for n in range(N):
        acc = np.zeros((kernel.dim, kernel.dim))
        for j in range(n + 1):
            acc += Kv[n - j] @ R[j]
        R[n + 1] = R[n] + acc
    return R


def _reference_direct(sys_, noise, initial):
    Kv = sys_.kernel.values(sys_.horizon)
    X = np.empty((sys_.horizon + 1, sys_.dim))
    X[0] = initial
    for n in range(sys_.horizon):
        acc = np.zeros(sys_.dim)
        for j in range(n + 1):
            acc += Kv[n - j] @ X[j]
        X[n + 1] = X[n] + acc + sys_.forcing[n] + sys_.diffusion[n] @ noise[n]
    return X


@pytest.mark.parametrize("with_tail", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_slab_solvers_match_per_lag_reference(d, with_tail):
    kernel = _panel_kernel(d, with_tail)
    N = 60
    R = resolvent_seq(kernel, N)
    ref = _reference_resolvent(kernel, N)
    assert np.abs(R - ref).max() <= 1e-13 * np.abs(ref).max()

    rng = np.random.default_rng(d)
    sys_ = DiscreteSystem(kernel, N, 0.1 * rng.standard_normal((N, d)),
                          0.2 * rng.standard_normal((N, d, d)),
                          NoiseSpec.gaussian(d),
                          initial=rng.standard_normal(d))
    x0, xi = draw_noise(sys_, rng_stream(3, 0))
    X = simulate_direct(sys_, noise=xi)
    ref = _reference_direct(sys_, xi, x0)
    assert np.abs(X - ref).max() <= 1e-13 * np.abs(ref).max()


# (entry lags, tail start, tail ratio). The tail starts past the last entry,
# at an entry, at the last entry, before entries, under a zero entry that
# cancels it at one lag, and with no entries at all; the ratios are
# negative, positive and near one.
_TAIL_CASES = {
    "tail-after-entries": ((0, 1, 3), 6, 0.6),
    "entry-at-start": ((0, 2, 5, 8), 5, 0.5),
    "last-entry-at-start": ((0, 1, 4), 4, -0.7),
    "entries-past-start": ((0, 3, 7, 9), 2, 0.7),
    "zero-entry-cancels-tail": ((0, 1, 6), 3, -0.5),
    "near-one-ratio": ((0, 2), 3, 0.95),
    "tail-only": ((), 2, -0.8),
}


def _tail_kernel(case, d):
    lags, start, ratio = _TAIL_CASES[case]
    rng = np.random.default_rng(list(_TAIL_CASES).index(case) + 10 * d)
    entries = {lag: 0.3 / (lag + 1) * (rng.random((d, d)) - 0.5)
               for lag in lags}
    if 0 in entries:
        entries[0] -= 0.2 * np.eye(d)
    if case == "zero-entry-cancels-tail":
        entries[6] = np.zeros((d, d))
    coeff = 0.1 * (1.0 - abs(ratio)) * (rng.random((d, d)) - 0.5)
    return MatrixKernelSeq(d, entries, GeometricTail(start, coeff, ratio))


def _tail_horizons():
    """N in {1, L, L + 1, L + 2, 3 SOLVE_BLOCK + 5}, L = max(last, start)."""
    out = []
    for case, (lags, start, _) in _TAIL_CASES.items():
        L = max(max(lags, default=0), start)
        out += [(case, N) for N in (1, L, L + 1, L + 2, 3 * SOLVE_BLOCK + 5)]
    return out


@pytest.mark.parametrize("case,N", _tail_horizons())
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tail_recurrence_matches_per_lag_reference(case, N, d):
    """The (1 - rho z) recurrence both solvers share, against the dense
    per-step sums of every lag: the tail taps, the rho I corrections at lags
    0 and 1, the row-0 drive and every entry at or past the tail start."""
    kernel = _tail_kernel(case, d)
    R = resolvent_seq(kernel, N)
    ref = _reference_resolvent(kernel, N)
    assert np.abs(R - ref).max() <= 1e-13 * np.abs(ref).max()

    rng = np.random.default_rng(N + d)
    sys_ = DiscreteSystem(kernel, N, 0.1 * rng.standard_normal((N, d)),
                          0.2 * rng.standard_normal((N, d, d)),
                          NoiseSpec.gaussian(d),
                          initial=rng.standard_normal(d))
    x0, xi = draw_noise(sys_, rng_stream(5, 0))
    X = simulate_direct(sys_, noise=xi)
    ref = _reference_direct(sys_, xi, x0)
    assert np.abs(X - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.fixture
def slab_widths(monkeypatch):
    """The width of every slab the discrete solvers hand `lag_solve`."""
    widths = []

    def recording(slab, *args, **kwargs):
        widths.append(slab.shape[1])
        return core.lag_solve(slab, *args, **kwargs)

    monkeypatch.setattr(discrete, "lag_solve", recording)
    return widths


@pytest.mark.parametrize("N", [100, 3000])
def test_discrete_slab_width_follows_the_kernel_not_the_horizon(
        slab_widths, N):
    """L + 2 lags with a tail (L the last entry or the tail start, whichever
    is later), last + 1 without one, at every horizon."""
    d = 2
    for kernel, lags in ((_panel_kernel(d, False), 4 + 1),
                         (_panel_kernel(d, True), 7 + 2),
                         (_tail_kernel("entries-past-start", d), 9 + 2)):
        slab_widths.clear()
        resolvent_seq(kernel, N)
        simulate_direct(_zero_system(kernel, N, initial=np.ones(d)),
                        noise=np.zeros((N, 1)))
        assert slab_widths == [lags * d] * 2


def test_discrete_slab_stops_at_the_horizon(slab_widths):
    """An entry far past the horizon is never reached, so it adds no taps."""
    d, N = 2, 10
    kernel = MatrixKernelSeq(d, {0: -0.5 * np.eye(d), 10 ** 6: np.eye(d)},
                             GeometricTail(3, 0.1 * np.ones((d, d)), 0.5))
    R = resolvent_seq(kernel, N)
    ref = _reference_resolvent(kernel, N)
    assert np.abs(R - ref).max() <= 1e-13 * np.abs(ref).max()
    simulate_direct(_zero_system(kernel, N, initial=np.ones(d)),
                    noise=np.zeros((N, 1)))
    assert slab_widths == [(N + 1) * d] * 2


def _reference_recursion(kernel, X0, drive):
    """X[n+1] = X[n] + sum_{j<=n} K(n-j) X[j] + drive[n], one step at a
    time."""
    n = len(drive)
    Kv = kernel.values(n)
    X = np.empty((n + 1,) + X0.shape)
    X[0] = X0
    for k in range(n):
        X[k + 1] = X[k] + np.einsum("kab,kbc->ac", Kv[k::-1], X[:k + 1]) \
            + drive[k]
    return X


def _dims_and_columns():
    return [(d, c) for d in (1, 2, 3, 4) for c in sorted({1, d, 8})]


@pytest.mark.parametrize("n", [SOLVE_BLOCK - 1, SOLVE_BLOCK, SOLVE_BLOCK + 1,
                               3 * SOLVE_BLOCK + 5])
@pytest.mark.parametrize("d,c", _dims_and_columns())
@pytest.mark.parametrize("with_tail", [False, True])
def test_block_solve_matches_per_step_reference(n, d, c, with_tail):
    """Horizons on both sides of one block and over several; a tail makes
    every lag up to the horizon count."""
    kernel = _panel_kernel(d, with_tail)
    rng = np.random.default_rng(n + 10 * d + c)
    X0 = rng.standard_normal((d, c))
    drive = 0.1 * rng.standard_normal((n, d, c))
    X = np.empty((n + 1, d, c))
    X[0] = X0
    assert lag_solve(lag_slab(kernel.values(n - 1)), X, 0, drive) is None
    ref = _reference_recursion(kernel, X0, drive)
    assert np.abs(X - ref).max() <= 1e-13 * np.abs(ref).max()


def _block_matrix(slab, scale, B):
    """Toep(a), the (B d, B d) matrix of one solve block built with np.kron:
    block (i, j) is a[i - j], a[0] = I, a[1] = -I - scale T(0) and
    a[k] = -scale T(k-1) for 2 <= k <= L+1."""
    d = slab.shape[0]
    L = slab.shape[1] // d - 1
    lag = np.subtract.outer(np.arange(B), np.arange(B)) - 1
    taps = slab.reshape(d, L + 1, d)[:, ::-1].transpose(1, 0, 2)
    Tb = np.where(((lag >= 0) & (lag <= L))[:, :, None, None],
                  taps[np.clip(lag, 0, L)], 0.0)
    Tb = Tb.transpose(0, 2, 1, 3).reshape(B * d, B * d)
    return np.eye(B * d) - scale * Tb - np.kron(np.eye(B, k=-1), np.eye(d))


@pytest.mark.parametrize("n", [1, SOLVE_BLOCK - 1, SOLVE_BLOCK,
                               SOLVE_BLOCK + 1, 3 * SOLVE_BLOCK + 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_inverse_is_the_inverse_of_the_block_toeplitz(monkeypatch,
                                                            n, d):
    """Each lag_solve call builds one inverse Toep(Y), of its block size
    min(SOLVE_BLOCK, n): a discrete resolvent (scale 1, a tail kernel's
    short recurrence) and an euler-like call (scale 0.01, a slab wider than
    a block). The entries above the diagonal are exact zeros, the diagonal
    blocks exact identities, and the residual bound is stated before
    measuring: Y[i] is a dot product of at most B d terms and the check's
    own product another, so componentwise |Toep(a) Toep(Y) - I| <=
    2 gamma_{B d + 1} |Toep(a)| |Toep(Y)|, gamma_m = m u / (1 - m u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.1 and 8.1)."""
    calls = []
    build = core._block_inverse

    def recording(slab, scale, B):
        inv = build(slab, scale, B)
        calls.append((slab, scale, B, inv))
        return inv

    monkeypatch.setattr(core, "_block_inverse", recording)
    resolvent_seq(_panel_kernel(d, True), n)
    rng = np.random.default_rng(n + 10 * d)
    slab = lag_slab(0.3 * rng.standard_normal((SOLVE_BLOCK + 7, d, d)))
    X = np.zeros((n + 1, d, 1))
    X[0] = 1.0
    lag_solve(slab, X, 0, np.zeros((n, d, 1)), 0.01, 1)
    assert [B for _, _, B, _ in calls] == [min(SOLVE_BLOCK, n)] * 2
    u = np.finfo(float).eps / 2
    for slab, scale, B, inv in calls:
        assert inv.shape == (B * d, B * d)
        assert not np.triu(inv, 1).any()
        for i in range(B):
            np.testing.assert_array_equal(
                inv[i * d:(i + 1) * d, i * d:(i + 1) * d], np.eye(d))
        M = _block_matrix(slab, scale, B)
        m = B * d + 1
        bound = 2 * m * u / (1 - m * u) * (np.abs(M) @ np.abs(inv))
        assert np.all(np.abs(M @ inv - np.eye(B * d)) <= bound)


def _wrapper_route_lag_solve(slab, X, start, drive, scale=1.0, first=0):
    """The scipy oracle of `lag_solve`: the same blocks, each block's
    `_block_matrix` solved by scipy.linalg.solve_triangular (LAPACK trtrs)
    instead of multiplied by its inverse."""
    _, d, c = X.shape
    n = len(drive)
    L = slab.shape[1] // d - 1
    B = min(SOLVE_BLOCK, n)
    M = _block_matrix(slab, scale, B)
    base = first - B
    Z = np.zeros((start + n + 1 - base, d, c))
    Z[first - base:start + 1 - base] = X[first:start + 1]
    flat = Z.reshape(-1, c)
    row, col = flat.strides
    prev = X[start]
    for k0 in range(0, n, B):
        nb = min(B, n - k0)
        a = start + k0
        w = max(0, min(L, a + nb - 1 - first)) + 1
        windows = as_strided(flat[(a + 1 - w - base) * d:],
                             (nb, w * d, c), (d * row, row, col))
        rhs = drive[k0:k0 + nb] + scale * (slab[:, (L + 1 - w) * d:] @ windows)
        rhs[0] += prev
        sol = solve_triangular(M[:nb * d, :nb * d], rhs.reshape(nb * d, c),
                               lower=True, unit_diagonal=True,
                               check_finite=False)
        Z[a + 1 - base:a + 1 + nb - base] = sol.reshape(nb, d, c)
        prev = Z[a + nb - base]
    X[start + 1:start + n + 1] = Z[start + 1 - base:]


@pytest.mark.parametrize("n", [1, SOLVE_BLOCK - 1, SOLVE_BLOCK,
                               SOLVE_BLOCK + 1, 200])
@pytest.mark.parametrize("d,c", _dims_and_columns())
def test_direct_trtrs_keeps_the_bits_of_the_wrapper_route(n, d, c):
    """The product with each block's Toeplitz inverse agrees with the
    triangular solve of the scipy oracle to round-off: within the 1e-13
    max-normalised bound of the per-step reference. A lag-0 slab and one
    wider than a block, each with first = 0 (the discrete solvers) and with
    first = start + 1 and scale = h (`euler` on a kernel on [0, inf)); and
    a few known rows before start (a delay kernel)."""
    rng = np.random.default_rng(1000 * n + 10 * d + c)
    start = 5
    wide = SOLVE_BLOCK + 6
    for L, first, scale in ((0, 0, 1.0), (wide, 0, 1.0), (0, start + 1, 0.01),
                            (wide, start + 1, 0.01), (3, 2, 0.25)):
        slab = lag_slab(0.3 * rng.standard_normal((L + 1, d, d)))
        X = np.zeros((start + n + 1, d, c))
        X[min(first, start):start + 1] = rng.standard_normal(
            (start + 1 - min(first, start), d, c))
        drive = 0.1 * rng.standard_normal((n, d, c))
        got, want = X.copy(), X.copy()
        lag_solve(slab, got, start, drive, scale, first)
        _wrapper_route_lag_solve(slab, want, start, drive, scale, first)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_resolvent_horizon_zero_is_identity_only():
    R = resolvent_seq(_panel_kernel(3, True), 0)
    assert R.shape == (1, 3, 3)
    np.testing.assert_array_equal(R[0], np.eye(3))


def test_direct_horizon_one_is_one_step():
    kernel = _panel_kernel(2, True)
    f = np.array([[0.3, -0.1]])
    s = np.array([[[0.5, 0.2], [0.0, 1.0]]])
    sys_ = DiscreteSystem(kernel, 1, f, s, NoiseSpec.gaussian(2),
                          initial=np.array([1.0, 2.0]))
    xi = np.array([[0.7, -1.3]])
    X = simulate_direct(sys_, noise=xi)
    K0 = kernel.values(0)[0]
    expect = sys_.initial + K0 @ sys_.initial + f[0] + s[0] @ xi[0]
    assert X.shape == (2, 2)
    np.testing.assert_array_equal(X[0], sys_.initial)
    np.testing.assert_allclose(X[1], expect, rtol=1e-15, atol=1e-15)


_BLAS_DIGEST = """
import hashlib
import numpy as np
from svlab.core import GeometricTail, MatrixKernelSeq, NoiseSpec
from svlab.discrete import (DiscreteSystem, resolvent_seq, simulate_direct,
                            simulate_via_resolvent)
d, N = 6, 1500
rng = np.random.default_rng(8)
entries = {lag: 0.1 / (lag + 1) * (rng.random((d, d)) - 0.5)
           for lag in (0, 1, 2, 5, 9)}
kernel = MatrixKernelSeq(d, entries, GeometricTail(12, 0.01 * np.ones((d, d)), 0.7))
sys_ = DiscreteSystem(kernel, N, 0.1 * rng.standard_normal((N, d)),
                      0.2 * rng.standard_normal((N, d, d)), NoiseSpec.gaussian(d),
                      initial=np.ones(d))
R = resolvent_seq(kernel, N)
h = hashlib.sha256(R.tobytes())
xi = rng.standard_normal((N, d))
h.update(simulate_direct(sys_, noise=xi).tobytes())
h.update(simulate_via_resolvent(R, sys_, xi).tobytes())
# no tail and entries out to lag 1000: a 1001-lag slab
far = MatrixKernelSeq(d, {lag: 0.1 / (lag + 1) * (rng.random((d, d)) - 0.5)
                          for lag in (0, 1, 3, 40, 300, 700, 1000)})
sys_ = DiscreteSystem(far, N, 0.1 * rng.standard_normal((N, d)),
                      0.2 * rng.standard_normal((N, d, d)), NoiseSpec.gaussian(d),
                      initial=np.ones(d))
h.update(resolvent_seq(far, N).tobytes())
h.update(simulate_direct(sys_, noise=rng.standard_normal((N, d))).tobytes())
from svlab.core import DensitySample, GridSpec, SignedMeasureRepr
from svlab.continuous import (ContinuousSystem, DelaySystem,
                              functional_resolvent, simulate_sfde,
                              simulate_sve)
g = GridSpec(0.01, 6.0)
dens = DensitySample(0.0, 0.01, 0.002 * (rng.random((400, d, d)) - 0.5))
nu = SignedMeasureRepr(d, atoms=((0.0, -np.eye(d)),), density=dens)
h.update(simulate_sve(ContinuousSystem(nu, g, diffusion=0.3 * np.eye(d)),
                      master_seed=8).tobytes())
mu = SignedMeasureRepr(d, atoms=((-4.0, -0.1 * np.eye(d)), (0.0, -np.eye(d))),
                       density=DensitySample(-4.0, 0.01, dens.values))
h.update(simulate_sfde(DelaySystem(mu, 4.0, np.ones((401, d)), g,
                                   diffusion=0.3 * np.eye(d)),
                       master_seed=8).tobytes())
h.update(functional_resolvent(mu, 4.0, g).tobytes())
from svlab.continuous import differential_resolvent, ensemble
h.update(differential_resolvent(nu, g).tobytes())
for X in ensemble(ContinuousSystem(nu, g, diffusion=0.3 * np.eye(d)), 8, 9,
                  lambda i, X: X):
    h.update(X.tobytes())
print(h.hexdigest())
"""


def test_slab_bits_do_not_depend_on_blas_threads():
    """The slab products must be large enough for OpenBLAS to split them
    across threads. A geometric tail compiles to a short recurrence (14
    lags for the d = 6 tail kernel), so the long discrete slab is the
    no-tail kernel with entries out to lag 1000, at d = 6 and N = 1500; the
    continuous ones have 400 taps. The digest covers both discrete solvers
    on both kernels, the resolvent route on the tail kernel, both
    continuous solver families, both continuous resolvents and a 9-path
    ensemble, two blocks of paths, each over 600 steps: nine solve blocks
    and a remainder."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(svlab.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _BLAS_DIGEST], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# solvers

def test_direct_frozen_dynamics():
    K = MatrixKernelSeq(1)
    sys_ = _zero_system(K, 10, initial=np.array([2.5]))
    X = simulate_direct(sys_, noise=np.zeros((10, 1)))
    np.testing.assert_array_equal(X[:, 0], np.full(11, 2.5))


def test_direct_counting_forcing():
    K = MatrixKernelSeq(1)
    N = 10
    sys_ = DiscreteSystem(K, N, np.ones((N, 1)), np.zeros((N, 1, 1)),
                          NoiseSpec.gaussian(1))
    X = simulate_direct(sys_, noise=np.zeros((N, 1)))
    np.testing.assert_array_equal(X[:, 0], np.arange(N + 1, dtype=float))


def test_direct_matches_resolvent_closed_form():
    K = MatrixKernelSeq(1, {0: [[-0.5]]})
    sys_ = _zero_system(K, 30, initial=np.array([1.0]))
    X = simulate_direct(sys_, noise=np.zeros((30, 1)))
    np.testing.assert_array_equal(X[:, 0], 0.5 ** np.arange(31))


def test_voc_zero_kernel_reduces_to_partial_sums():
    N, d = 12, 1
    rng = np.random.default_rng(3)
    f = rng.standard_normal((N, d))
    s = rng.standard_normal((N, d, 1))
    sys_ = DiscreteSystem(MatrixKernelSeq(1), N, f, s, NoiseSpec.gaussian(1),
                          initial=np.array([0.7]))
    xi = rng.standard_normal((N, 1))
    R = resolvent_seq(sys_.kernel, N)
    X = simulate_via_resolvent(R, sys_, xi)
    expect = 0.7 + np.concatenate(
        [[0.0], np.cumsum(f[:, 0] + s[:, 0, 0] * xi[:, 0])])
    np.testing.assert_allclose(X[:, 0], expect, atol=1e-12)


def test_voc_homogeneous_is_resolvent_times_initial():
    rng = np.random.default_rng(4)
    K = random_summable_kernel(rng, 3)
    sys_ = _zero_system(K, 25, initial=np.array([1.0, -2.0, 0.5]))
    R = resolvent_seq(K, 25)
    X = simulate_via_resolvent(R, sys_, np.zeros((25, 1)))
    np.testing.assert_allclose(X, np.einsum("nab,b->na", R, sys_.initial),
                               atol=1e-12)


def test_solvers_agree_on_shared_streams():
    """Direct recursion and variation of constants, same noise draws."""
    rng = np.random.default_rng(9)
    for _ in range(6):
        d = int(rng.integers(1, 5))
        K = random_summable_kernel(rng, d)
        N = 200
        f = 0.1 * rng.standard_normal((N, d))
        s = 0.2 * rng.standard_normal((N, d, d))
        sys_ = DiscreteSystem(K, N, f, s, NoiseSpec.gaussian(d),
                              initial=rng.standard_normal(d))
        x0, xi = draw_noise(sys_, rng_stream(99, 0))
        direct = simulate_direct(sys_, noise=xi)
        voc = simulate_via_resolvent(resolvent_seq(K, N), sys_, xi)
        gap = np.abs(direct - voc).max() / (np.abs(direct).max() + 1.0)
        assert gap < 1e-9


def _voc_case(d, N, seed):
    rng = np.random.default_rng(seed)
    K = random_summable_kernel(rng, d)
    sys_ = DiscreteSystem(K, N, 0.1 * rng.standard_normal((N, d)),
                          0.2 * rng.standard_normal((N, d, d)),
                          NoiseSpec.gaussian(d),
                          initial=rng.standard_normal(d))
    x0, xi = draw_noise(sys_, rng_stream(seed, 0))
    return sys_, resolvent_seq(K, N), x0, xi


def _voc_gap(sys_, R, x0, xi):
    direct = simulate_direct(sys_, noise=xi, initial=x0)
    voc = simulate_via_resolvent(R, sys_, xi, x0)
    return np.abs(direct - voc).max() / (np.abs(direct).max() + 1.0)


def test_voc_row_zero_is_resolvent_times_initial_exactly():
    """The convolution fills rows 1.. only, so X(0) is R(0) x0 = x0 to the
    bit, with a nonzero drive at every step."""
    for d in (1, 3):
        sys_, R, x0, xi = _voc_case(d, 130, 40 + d)
        X = simulate_via_resolvent(R, sys_, xi, x0)
        assert X[0].tobytes() == x0.tobytes()


def test_voc_detects_a_one_percent_change_to_one_resolvent_entry():
    """Mutation check of the dual route: the route stays within 1e-13 of
    the direct solver, and a 1 % change to one entry of R(k), k = 0, 1, 5
    or 20, moves the max-normalised gap past 1e-9."""
    sys_, R, x0, xi = _voc_case(2, 200, 7)
    assert _voc_gap(sys_, R, x0, xi) <= 1e-13
    for k, (a, b) in ((0, (0, 0)), (1, (1, 1)), (5, (0, 1)), (20, (1, 0))):
        bad = R.copy()
        bad[k, a, b] *= 1.01
        assert _voc_gap(sys_, bad, x0, xi) > 1e-9, k


def test_voc_rejects_wrong_shapes():
    """Wrong-shaped noise, initial data or resolvent steps raise instead of
    broadcasting: at d = m = 1 a (5, 2) noise would add both columns and a
    (3,) initial vector would sum its entries into X(0)."""
    K = MatrixKernelSeq(1, {0: [[-0.5]]})
    sys_ = DiscreteSystem(K, 5, 1.0, 1.0, NoiseSpec.gaussian(1),
                          initial=np.array([2.0]))
    R = resolvent_seq(K, 5)
    with pytest.raises(ValueError, match=r"noise shape \(5, 2\) != \(5, 1\)"):
        simulate_via_resolvent(R, sys_, np.ones((5, 2)))
    with pytest.raises(ValueError, match=r"noise shape \(5,\) != \(5, 1\)"):
        simulate_via_resolvent(R, sys_, np.ones(5))
    with pytest.raises(ValueError, match=r"initial shape \(3,\) != \(1,\)"):
        simulate_via_resolvent(R, sys_, np.ones((5, 1)), np.ones(3))
    with pytest.raises(ValueError, match=r"step shape \(2, 2\) != \(1, 1\)"):
        simulate_via_resolvent(np.ones((6, 2, 2)), sys_, np.ones((5, 1)))
    with pytest.raises(ValueError, match=r"step shape \(\) != \(1, 1\)"):
        simulate_via_resolvent(np.ones(6), sys_, np.ones((5, 1)))
    np.testing.assert_allclose(
        simulate_via_resolvent(R, sys_, np.ones((5, 1))),
        simulate_direct(sys_, np.ones((5, 1))), rtol=0, atol=1e-13)


def test_direct_same_seed_same_path():
    rng = np.random.default_rng(12)
    K = random_summable_kernel(rng, 2)
    sys_ = DiscreteSystem(K, 50, np.zeros((50, 2)), 0.3 * np.tile(np.eye(2), (50, 1, 1)),
                          NoiseSpec.gaussian(2))
    a = simulate_direct(sys_, master_seed=5, path_index=3)
    b = simulate_direct(sys_, master_seed=5, path_index=3)
    np.testing.assert_array_equal(a, b)
    c = simulate_direct(sys_, master_seed=5, path_index=4)
    assert np.abs(a - c).max() > 0


def test_diagonal_diffusion_enforced_for_non_gaussian_noise():
    N = 5
    sigma = np.tile([[1.0, 0.5], [0.0, 1.0]], (N, 1, 1))
    with pytest.raises(ValueError, match="diagonal"):
        DiscreteSystem(MatrixKernelSeq(2), N, np.zeros((N, 2)), sigma,
                       NoiseSpec.two_point(-1.0, 1.0, m=2))
    # the same diffusion is fine with iid Gaussian noise
    DiscreteSystem(MatrixKernelSeq(2), N, np.zeros((N, 2)), sigma,
                   NoiseSpec.gaussian(2))


@pytest.mark.parametrize("horizon, forcing, diffusion, noise, message", [
    (0, (0, 2), (0, 2, 2), NoiseSpec.gaussian(2), "horizon must be at least 1"),
    (4, (4, 1), (4, 2, 2), NoiseSpec.gaussian(2), "forcing shape (4, 1) != (4, 2)"),
    (4, (4, 2), (4, 2), NoiseSpec.gaussian(2),
     "diffusion shape (4, 2) != (4, 2, 2)"),
    (4, (4, 2), (3, 2, 2), NoiseSpec.gaussian(2),
     "diffusion shape (3, 2, 2) != (4, 2, 2)"),
    (4, (4, 2), (4, 2, 3), NoiseSpec.gaussian(2),
     "diffusion shape (4, 2, 3) != (4, 2, 2)"),
    (4, (4, 2), (4, 2, 1), NoiseSpec.two_point(-1.0, 1.0),
     "non-Gaussian noise requires square diagonal diffusion"),
])
def test_discrete_system_rejects_shapes(horizon, forcing, diffusion, noise,
                                        message):
    with pytest.raises(ValueError) as info:
        DiscreteSystem(MatrixKernelSeq(2), horizon, np.zeros(forcing),
                       np.zeros(diffusion), noise)
    assert message in str(info.value)


def test_discrete_signals_follow_the_one_signal_rule():
    # a callable profile and a number, sampled at the steps 0..N-1: s 1 for
    # the forcing and s I for the diffusion, bit for bit the hand-tiled
    # arrays
    N, d = 6, 3
    steps = np.arange(N, dtype=float)
    sys_ = DiscreteSystem(MatrixKernelSeq(d), N, lambda n: -np.cos(n), 0.3,
                          NoiseSpec.gaussian(d))
    assert sys_.forcing.tobytes() == np.tile(-np.cos(steps)[:, None],
                                             (1, d)).tobytes()
    assert sys_.diffusion.tobytes() == (
        np.full(N, 0.3)[:, None, None] * np.eye(d)[None]).tobytes()
    none = DiscreteSystem(MatrixKernelSeq(d), N, None, None,
                          NoiseSpec.gaussian(2))
    np.testing.assert_array_equal(none.forcing, np.zeros((N, d)))
    np.testing.assert_array_equal(none.diffusion, np.zeros((N, d, 2)))


def test_scalar_diffusion_needs_as_many_noise_columns_as_components():
    with pytest.raises(ValueError) as info:
        DiscreteSystem(MatrixKernelSeq(2), 4, None, 0.3, NoiseSpec.gaussian(3))
    assert "diffusion shape (4,) != (4, 2, 3)" in str(info.value)


def test_random_initial_laws_drawn_before_noise():
    K = MatrixKernelSeq(1)
    sys_ = _zero_system(K, 4, initial=(UniformLaw(1.0, 2.0),))
    x0, xi = draw_noise(sys_, rng_stream(0, 0))
    assert 1.0 <= x0[0] <= 2.0
    again, _ = draw_noise(sys_, rng_stream(0, 0))
    np.testing.assert_array_equal(x0, again)


# ---------------------------------------------------------------------------
# partial sums and tail decisions

def test_lp_partial_sums_zero_path():
    np.testing.assert_array_equal(lp_partial_sums(np.zeros((8, 2)), 2.0),
                                  np.zeros(8))


def test_lp_partial_sums_geometric():
    N = 20
    path = 0.5 ** np.arange(N + 1)
    S = lp_partial_sums(path[:, None], 1.0)
    np.testing.assert_allclose(S, 2.0 - 0.5 ** np.arange(N + 1), atol=1e-12)


def test_lp_partial_sums_counting():
    S = lp_partial_sums(np.ones((11, 1)), 4.0)
    np.testing.assert_array_equal(S, np.arange(1, 12, dtype=float))


def test_lp_partial_sums_reads_a_1d_path_as_one_component():
    """One shape rule with lp_time_integral: (11,) is (11, 1), 11 sums."""
    S = lp_partial_sums(np.ones(11), 4.0)
    np.testing.assert_array_equal(S, np.arange(1, 12, dtype=float))
    g = GridSpec(0.25, 2.5)
    np.testing.assert_array_equal(
        lp_time_integral(np.ones(11), 4.0, g),
        lp_time_integral(np.ones((11, 1)), 4.0, g))


@pytest.mark.parametrize("p", [0.0, -1.0, np.nan, np.inf])
def test_lp_partial_sums_rejects_p_not_finite_positive(p):
    with pytest.raises(ValueError, match="finite positive"):
        lp_partial_sums(np.ones((11, 1)), p)


def test_tail_decision_zero_paths_summable():
    rep = tail_decision([np.zeros(41)] * 30)
    assert rep.verdict == SUMMABLE
    assert rep.checkpoints == (20, 40)


def test_tail_decision_linear_growth_divergent():
    seqs = [np.arange(41, dtype=float) + 1.0] * 30
    rep = tail_decision(seqs)
    assert rep.verdict == DIVERGENT
    assert rep.diagnostics["median_ratio"] == pytest.approx(41.0 / 21.0)


def test_tail_decision_geometric_summable():
    n = np.arange(41)
    seqs = [2.0 - 2.0 ** -n] * 30
    assert tail_decision(seqs).verdict == SUMMABLE


def test_tail_decision_needs_enough_paths():
    with pytest.raises(ValueError, match="30"):
        tail_decision([np.zeros(41)] * 5)


def test_tail_decision_needs_room_for_a_tail():
    with pytest.raises(ValueError):
        tail_decision([np.zeros(3)] * 30)


def test_tail_decision_custom_thresholds_recorded():
    th = TailThresholds(eps_tail=0.2, eps_abs=1e-6, ratio_div=3.0)
    rep = tail_decision([np.arange(41, dtype=float) + 1.0] * 30, thresholds=th)
    assert rep.thresholds == {"eps_tail": 0.2, "eps_abs": 1e-6,
                              "ratio_div": 3.0}
    assert rep.verdict != DIVERGENT  # ratio 1.95 < 3.0


def test_forward_direction_summable_paths():
    """Geometric forcing and diffusion with summable kernels: the ensemble
    lp tails read summable."""
    master = 1234
    rng = np.random.default_rng(77)
    K = random_summable_kernel(rng, 2)
    N = 400
    decay = 0.9 ** np.arange(N)
    f = 0.2 * decay[:, None] * np.ones((N, 2))
    s = 0.5 * decay[:, None, None] * np.tile(np.eye(2), (N, 1, 1))
    sys_ = DiscreteSystem(K, N, f, s, NoiseSpec.gaussian(2))
    sums = []
    for k in range(30):
        X = simulate_direct(sys_, master_seed=master, path_index=k)
        sums.append(lp_partial_sums(X, 2.0))
    assert tail_decision(sums).verdict == SUMMABLE


def test_identity_diffusion_diverges():
    master = 1234
    rng = np.random.default_rng(78)
    K = random_summable_kernel(rng, 2)
    N = 400
    sys_ = DiscreteSystem(K, N, np.zeros((N, 2)),
                          np.tile(np.eye(2), (N, 1, 1)), NoiseSpec.gaussian(2))
    sums = []
    for k in range(30):
        X = simulate_direct(sys_, master_seed=master, path_index=k)
        sums.append(lp_partial_sums(X, 2.0))
    assert tail_decision(sums).verdict == DIVERGENT


# ---------------------------------------------------------------------------
# truncated-mean certificates

def test_normal_certificate_against_scipy():
    """Dual-route check: closed-form normal quantities vs scipy quadrature."""
    cert = truncated_mean_certificate(GaussianLaw(), (0.0, 1.0), (-1.0, 0.0))
    assert isinstance(cert, TruncatedMeanCertificate)
    p_ref = stats.norm.cdf(1.0) - stats.norm.cdf(0.0)
    e_ref, _ = integrate.quad(lambda x: x * stats.norm.pdf(x), 0.0, 1.0)
    e2_ref, _ = integrate.quad(lambda x: x * stats.norm.pdf(x), -1.0, 0.0)
    assert cert.p1 == pytest.approx(p_ref, abs=1e-9)
    assert cert.p2 == pytest.approx(p_ref, abs=1e-9)
    assert cert.e1 == pytest.approx(e_ref, abs=1e-9)
    assert cert.e2 == pytest.approx(e2_ref, abs=1e-9)
    assert cert.det == pytest.approx(p_ref * (e_ref - e2_ref), abs=1e-9)


def test_two_point_certificate_exact():
    cert = truncated_mean_certificate(two_point_law(1.0, 2.0),
                                      (1.0, 1.0), (2.0, 2.0))
    assert (cert.p1, cert.p2) == (0.5, 0.5)
    assert (cert.e1, cert.e2) == (0.5, 1.0)
    assert cert.det == -0.25


def test_constant_law_fails_positive_probability():
    res = truncated_mean_certificate(constant_law(1.0), (0.4, 0.6), (2.0, 3.0))
    assert isinstance(res, CertificateFailure)
    assert res.clause == "positive-probability"


def test_equal_conditional_means_fail_determinant():
    # uniform(0, 3): the middle third and the two outer thirds both have
    # conditional mean 3/2, so p2 e1 - p1 e2 = 0
    res = truncated_mean_certificate(UniformLaw(0.0, 3.0), (1.0, 2.0),
                                     [(0.0, 1.0), (2.0, 3.0)])
    assert isinstance(res, CertificateFailure)
    assert res.clause == "determinant"


def test_zero_straddling_window_fails_mean_clause():
    res = truncated_mean_certificate(UniformLaw(-1.0, 1.0),
                                     (-0.5, 0.5), (0.6, 0.9))
    assert isinstance(res, CertificateFailure)
    assert res.clause == "nonzero-truncated-mean"


def test_overlapping_windows_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        truncated_mean_certificate(GaussianLaw(), (0.0, 1.0), (0.5, 2.0))


def test_shared_atom_rejected():
    with pytest.raises(ValueError, match="atom"):
        truncated_mean_certificate(two_point_law(1.0, 2.0),
                                   (1.0, 1.0), (1.0, 1.0))


def test_default_sets_certify_builtin_laws():
    """Every non-constant built-in law separates with the default windows."""
    laws = [
        GaussianLaw(),
        GaussianLaw(mean=1.0, std=2.0),
        UniformLaw(0.0, 1.0),
        UniformLaw(-2.0, -1.0),
        two_point_law(1.0, 2.0),
        two_point_law(-1.0, 1.0, p1=0.3),
    ]
    for law in laws:
        pair = default_separating_sets(law)
        assert pair is not None, law
        cert = truncated_mean_certificate(law, *pair)
        assert isinstance(cert, TruncatedMeanCertificate), law


def test_default_sets_give_up_on_constant():
    assert default_separating_sets(constant_law(2.0)) is None
