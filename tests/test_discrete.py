"""Summation-equation tests: resolvent recursion, both solvers, evidence
rules, and the truncated-mean certificates (with scipy as the independent
quadrature oracle)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

import svlab
from svlab.core import (
    GaussianLaw,
    GeometricTail,
    MatrixKernelSeq,
    NoiseSpec,
    SampledDensityLaw,
    UniformLaw,
    constant_law,
    rng_stream,
    two_point_law,
)
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
from svlab.discrete import DiscreteSystem, resolvent_seq, simulate_direct
d, N = 6, 1500
rng = np.random.default_rng(8)
entries = {lag: 0.1 / (lag + 1) * (rng.random((d, d)) - 0.5)
           for lag in (0, 1, 2, 5, 9)}
kernel = MatrixKernelSeq(d, entries, GeometricTail(12, 0.01 * np.ones((d, d)), 0.7))
sys_ = DiscreteSystem(kernel, N, 0.1 * rng.standard_normal((N, d)),
                      0.2 * rng.standard_normal((N, d, d)), NoiseSpec.gaussian(d),
                      initial=np.ones(d))
h = hashlib.sha256(resolvent_seq(kernel, N).tobytes())
h.update(simulate_direct(sys_, noise=rng.standard_normal((N, d))).tobytes())
print(h.hexdigest())
"""


def test_slab_bits_do_not_depend_on_blas_threads():
    """At d = 6 and N = 1500 the per-step products are large enough for
    OpenBLAS to split them across threads."""
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
    rng = np.random.default_rng(6)
    vals = rng.uniform(0.2, 1.0, 16)
    vals /= vals.sum() * 0.25
    laws = [
        GaussianLaw(),
        GaussianLaw(mean=1.0, std=2.0),
        UniformLaw(0.0, 1.0),
        UniformLaw(-2.0, -1.0),
        two_point_law(1.0, 2.0),
        two_point_law(-1.0, 1.0, p1=0.3),
        SampledDensityLaw(1.0, 0.25, tuple(vals)),
    ]
    for law in laws:
        pair = default_separating_sets(law)
        assert pair is not None, law
        cert = truncated_mean_certificate(law, *pair)
        assert isinstance(cert, TruncatedMeanCertificate), law


def test_default_sets_give_up_on_constant():
    assert default_separating_sets(constant_law(2.0)) is None
