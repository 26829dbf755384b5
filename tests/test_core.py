"""Grid, measure, kernel, exponential-scan, causal-convolution and
randomness-contract tests."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import svlab

from svlab.core import (
    CompiledMeasure,
    DensitySample,
    GaussianLaw,
    GeometricTail,
    GridError,
    GridSpec,
    HistoryUnderflow,
    MatrixKernelSeq,
    MeasureError,
    NoiseSpec,
    SCAN_BLOCK,
    RunManifest,
    SignedMeasureRepr,
    UniformLaw,
    canonical_json,
    config_digest,
    causal_convolution,
    constant_law,
    exp_scan,
    is_neg_identity_point_mass,
    neg_identity_point_mass,
    point_mass,
    rng_stream,
    _scan_powers,
    two_point_law,
    vector_norm,
)


# ---------------------------------------------------------------------------
# grids

def test_grid_n_steps_ceil():
    assert GridSpec(0.1, 1.0).n_steps == 10
    assert GridSpec(0.3, 1.0).n_steps == 4  # ceil(1/0.3)
    assert GridSpec(1.0, 1.0).n_steps == 1


def test_grid_times_shape_and_endpoints():
    g = GridSpec(0.25, 2.0)
    t = g.times()
    assert t.shape == (g.n_steps + 1,)
    assert t[0] == 0.0
    np.testing.assert_allclose(t[1] - t[0], 0.25)


def test_grid_validation():
    with pytest.raises(GridError):
        GridSpec(0.0, 1.0)
    with pytest.raises(GridError):
        GridSpec(-0.1, 1.0)
    with pytest.raises(GridError):
        GridSpec(0.5, 0.2)


def test_grid_snap_within_half_step():
    g = GridSpec(0.1, 1.0)
    assert g.snap(0.3) == 3
    assert g.snap(0.34) == 3
    # exact midpoints are ambiguous and rejected
    with pytest.raises(GridError):
        g.snap(0.35)


def test_grid_index_at_bounds():
    g = GridSpec(0.1, 1.0)
    assert g.index_at(0.0) == 0
    assert g.index_at(1.0) == g.n_steps
    with pytest.raises(GridError):
        g.index_at(1.2)


# ---------------------------------------------------------------------------
# measures

def test_measure_rejects_mixed_support():
    with pytest.raises(MeasureError):
        SignedMeasureRepr(1, atoms=((-1.0, [[1.0]]), (1.0, [[1.0]])))


def test_measure_rejects_bad_atom_shape():
    with pytest.raises(MeasureError):
        SignedMeasureRepr(2, atoms=((0.0, [[1.0]]),))


# ---------------------------------------------------------------------------
# measure convolution

def test_convolve_point_mass_at_zero():
    g = GridSpec(0.1, 1.0)
    m = neg_identity_point_mass(2)
    path = np.tile([1.5, -2.0], (g.n_steps + 1, 1))
    out = CompiledMeasure(m, g).convolve(path, 4)
    np.testing.assert_allclose(out, [-1.5, 2.0])


def test_convolve_unit_lag_atom():
    g = GridSpec(1.0, 5.0)
    m = point_mass([[1.0]], location=1.0)
    path = g.times()[:, None]   # path(t) = t
    out = CompiledMeasure(m, g).convolve(path, 3)
    np.testing.assert_allclose(out, [2.0])


def test_convolve_constant_density():
    # density 1 on [0, 1], path constant 1: left Riemann sum of h * 1
    g = GridSpec(0.1, 2.0)
    dens = DensitySample(0.0, 0.1, np.ones((10, 1, 1)))
    m = SignedMeasureRepr(1, density=dens)
    path = np.ones((g.n_steps + 1, 1))
    out = CompiledMeasure(m, g).convolve(path, g.index_at(1.5))
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


def test_convolve_linear_in_path():
    rng = np.random.default_rng(11)
    g = GridSpec(0.1, 2.0)
    dens = DensitySample(0.0, 0.1, rng.standard_normal((8, 2, 2)))
    m = SignedMeasureRepr(2, atoms=((0.0, rng.standard_normal((2, 2))),
                                    (0.5, rng.standard_normal((2, 2)))),
                          density=dens)
    cm = CompiledMeasure(m, g)
    for _ in range(10):
        u = rng.standard_normal((g.n_steps + 1, 2))
        v = rng.standard_normal((g.n_steps + 1, 2))
        a, b = rng.standard_normal(2)
        lhs = cm.convolve(a * u + b * v, 15)
        rhs = a * cm.convolve(u, 15) + b * cm.convolve(v, 15)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_convolve_history_underflow():
    g = GridSpec(0.5, 4.0)
    m = SignedMeasureRepr(1, atoms=((-1.0, [[1.0]]),))
    path = np.ones((g.n_steps + 1, 1))
    with pytest.raises(HistoryUnderflow):
        CompiledMeasure(m, g).convolve(path, 1)
    # with enough prepended history the same lookup succeeds
    out = CompiledMeasure(m, g).convolve(path, 3, history_offset=2)
    np.testing.assert_allclose(out, [1.0])


def test_atom_snapping_rejected_off_grid():
    g = GridSpec(0.1, 1.0)
    m = point_mass([[1.0]], location=0.35)  # exact midpoint
    path = np.ones((11, 1))
    with pytest.raises(GridError):
        CompiledMeasure(m, g).convolve(path, 5)


def test_neg_identity_detection():
    assert is_neg_identity_point_mass(neg_identity_point_mass(3))
    assert not is_neg_identity_point_mass(point_mass([[-2.0]]))
    assert not is_neg_identity_point_mass(point_mass([[-1.0]], location=1.0))
    dens = DensitySample(0.0, 0.5, np.zeros((2, 1, 1)))
    with_density = SignedMeasureRepr(1, atoms=((0.0, [[-1.0]]),), density=dens)
    assert not is_neg_identity_point_mass(with_density)


# ---------------------------------------------------------------------------
# kernels

def test_kernel_values_and_tail():
    K = MatrixKernelSeq(1, {0: [[-0.5]], 3: [[0.25]]},
                        tail=GeometricTail(5, [[0.1]], 0.5))
    v = K.values(8)
    assert v.shape == (9, 1, 1)
    assert v[0, 0, 0] == -0.5
    assert v[3, 0, 0] == 0.25
    assert v[4, 0, 0] == 0.0
    np.testing.assert_allclose(v[5:, 0, 0], [0.1, 0.05, 0.025, 0.0125])


def test_kernel_rejects_negative_lag():
    with pytest.raises(ValueError):
        MatrixKernelSeq(1, {-1: [[1.0]]})


# ---------------------------------------------------------------------------
# laws and noise

def test_two_point_law_moments():
    law = two_point_law(1.0, 2.0)
    rng = np.random.default_rng(0)
    x = law.sample(rng, 20000)
    assert set(np.unique(x)) == {1.0, 2.0}
    assert abs(x.mean() - 1.5) < 0.02


def test_constant_law_is_single_atom():
    law = constant_law(3.0)
    assert law.atom_list() == [(3.0, 1.0)]
    rng = np.random.default_rng(1)
    assert np.all(law.sample(rng, 10) == 3.0)


def test_gaussian_law_mass_and_truncated_mean():
    from scipy.stats import norm
    law = GaussianLaw()
    assert abs(law.mass_on([(0.0, 1.0)]) - (norm.cdf(1) - norm.cdf(0))) < 1e-9
    # E[xi 1{0<xi<1}] = pdf(0) - pdf(1) for the standard normal
    assert abs(law.truncated_mean_on([(0.0, 1.0)])
               - (norm.pdf(0) - norm.pdf(1))) < 1e-9


def test_uniform_law_validation_and_mass():
    with pytest.raises(ValueError):
        UniformLaw(1.0, 1.0)
    law = UniformLaw(0.0, 2.0)
    assert abs(law.mass_on([(0.0, 1.0)]) - 0.5) < 1e-12
    assert abs(law.truncated_mean_on([(0.0, 1.0)]) - 0.25) < 1e-9


def test_noise_spec_families():
    g = NoiseSpec.gaussian(3)
    assert g.dim == 3 and g.unrestricted_diffusion
    tp = NoiseSpec.two_point(-1.0, 1.0, 0.5, m=2)
    assert tp.dim == 2 and not tp.unrestricted_diffusion
    with pytest.raises(ValueError):
        NoiseSpec("lognormal", (GaussianLaw(),))


def test_noise_spec_laws_must_fit_the_family():
    """Uniform laws under 'gaussian-iid' would draw uniform values and still
    allow a non-diagonal diffusion; a Gaussian law is not a two-point law,
    and neither is a one-outcome law."""
    with pytest.raises(ValueError, match="takes GaussianLaw laws, got "
                                         "UniformLaw"):
        NoiseSpec("gaussian-iid", (UniformLaw(0, 1), UniformLaw(0, 1)))
    with pytest.raises(ValueError, match="takes FiniteDiscreteLaw laws, got "
                                         "GaussianLaw"):
        NoiseSpec("two-point", (GaussianLaw(),))
    with pytest.raises(ValueError, match="two outcomes, got 1"):
        NoiseSpec("two-point", (two_point_law(1.0, 2.0), constant_law(1.0)))
    with pytest.raises(ValueError, match="takes UniformLaw laws, got "
                                         "GaussianLaw"):
        NoiseSpec("uniform", (GaussianLaw(),))
    assert NoiseSpec("two-point", (two_point_law(1.0, 2.0),)).dim == 1


def test_noise_draw_shapes():
    rng = np.random.default_rng(7)
    assert NoiseSpec.gaussian(2).draw(rng, 5).shape == (5, 2)
    assert NoiseSpec.uniform(0.0, 1.0, m=3).draw(rng, 4).shape == (4, 3)


def test_noise_joint_sampler_needs_laws():
    with pytest.raises(ValueError, match="one law per component"):
        NoiseSpec("gaussian-iid", ())


# ---------------------------------------------------------------------------
# randomness contract

def test_rng_stream_reproducible():
    a = rng_stream(42, 0).standard_normal(100)
    b = rng_stream(42, 0).standard_normal(100)
    np.testing.assert_array_equal(a, b)


def test_rng_stream_paths_uncorrelated():
    n = 10_000
    x = rng_stream(42, 0).standard_normal(n)
    y = rng_stream(42, 1).standard_normal(n)
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.05


def test_rng_stream_pooled_mean():
    draws = np.concatenate([rng_stream(42, k).standard_normal(1000)
                            for k in range(100)])
    stderr = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean()) < 3 * stderr


# ---------------------------------------------------------------------------
# manifests

def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert config_digest({"b": 1, "a": [1, 2]}) == \
        config_digest({"a": [1, 2], "b": 1})


def test_config_digest_sensitive_to_values():
    assert config_digest({"a": 1}) != config_digest({"a": 2})


def test_manifest_json_round_trip():
    import json
    man = RunManifest(master_seed=7, config_digest="ab" * 32)
    loaded = json.loads(man.to_json())
    assert loaded["master_seed"] == 7
    assert loaded["config_digest"] == "ab" * 32
    assert loaded["norm"] == "max"


# ---------------------------------------------------------------------------
# norms

def test_vector_norm_kinds():
    x = np.array([[3.0, -4.0]])
    np.testing.assert_allclose(vector_norm(x, "max"), [4.0])
    np.testing.assert_allclose(vector_norm(x, "sum"), [7.0])
    np.testing.assert_allclose(vector_norm(x, "euclid"), [5.0])
    with pytest.raises(ValueError):
        vector_norm(x, "manhattan")


# ---------------------------------------------------------------------------
# exponential scan and what importing svlab loads

U = 2.0 ** -53
SCAN_DECAYS = [1.0, math.exp(-0.01), math.exp(-400.0), 1e-300, 0.0]


def _scan_input(shape):
    """Normal rows with signed zeros at the start and a run of zeros."""
    drive = np.random.default_rng(5).standard_normal(shape)
    drive[:4] = -0.0
    drive[300:310] = 0.0
    return drive


def _dyadic(v):
    """(num, s) with v = num / 2^s exactly: a float's denominator is a power
    of two."""
    num, den = float(v).as_integer_ratio()
    return num, den.bit_length() - 1


def _exact_scan(y0, x, decay):
    """out[k+1] = decay out[k] + x[k] in exact rational arithmetic, row k as
    (num, s) = num / 2^s. Every value is dyadic, so the rows are carried over
    a power-of-two denominator: a Fraction reduces each step by gcds, and at
    decay = 1e-300 (1101-bit denominators, 670 000-bit rows) that took
    about 2 s a column on a 2-core Xeon VM."""
    dn, ds = _dyadic(decay)
    rows = [_dyadic(y0)]
    for v in x:
        num, s = rows[-1]
        xn, xs = _dyadic(v)
        t = max(s + ds, xs)
        rows.append(((num * dn << (t - s - ds)) + (xn << (t - xs)), t))
    return rows


def _excess(got, exact, bound):
    """|got - exact| / bound, each quotient exact, the last correctly
    rounded."""
    gn, gd = float(got).as_integer_ratio()
    bn, bd = float(bound).as_integer_ratio()
    num, s = exact
    return abs((gn << s) - num * gd) * bd / ((gd * bn) << s)


@pytest.mark.parametrize("decay", SCAN_DECAYS)
@pytest.mark.parametrize("y0", [0.0, -0.0, 0.7])
@pytest.mark.parametrize("d", [None, 3])
def test_exp_scan_meets_its_error_bound_against_the_exact_recurrence(
        d, y0, decay):
    """Bound, stated before measuring: |out[k] - exact[k]| <= u (8 B R_k +
    4 M_k) + 2^-1022, B = SCAN_BLOCK, u = 2^-53, where R_k = sum_j
    |decay|^(k-1-j) |x_j| + |decay|^k |y0| is the running magnitude and M_k
    the same sum with each term weighted by its lag k-1-j (k for y0). A
    blocked level rounds a term's coefficient at most about 3 B times (the
    powers q[i] and 1 / q[j], the block cumsum), these 612 rows take at most
    two blocked levels, the carried powers of decay add about one rounding
    a step of lag per level, and 2^-1022 covers powers that underflow. The
    rows cross two block ends into a partial third block."""
    n = 2 * SCAN_BLOCK + 100
    shape = (n,) if d is None else (n, d)
    drive = _scan_input(shape)
    got = exp_scan(y0 if d is None else np.full(d, y0), drive, decay)
    assert got.shape == (n + 1,) + shape[1:]
    assert got[0].tobytes() == np.full(shape[1:], y0).tobytes()
    a = abs(decay)
    for x, out in zip(drive.reshape(n, -1).T, got.reshape(n + 1, -1).T):
        R, M, worst = abs(y0), 0.0, 0.0
        for k, exact in enumerate(_exact_scan(y0, x, decay)):
            if k:
                R, M = a * R + abs(x[k - 1]), a * (M + R)
            bound = U * (8 * SCAN_BLOCK * R + 4 * M) + 2.0 ** -1022
            worst = max(worst, _excess(out[k], exact, bound))
        assert worst <= 1.0


@pytest.mark.parametrize("decay", SCAN_DECAYS + [math.exp(-1e-4)])
def test_exp_scan_bits_depend_on_no_column_count_or_length(decay):
    """A column has the bits of its one-column scan, and a prefix of a
    scan is bitwise the shorter scan, across both carry levels of B (B + 2)
    + 5 rows; n = 0 gives y0 alone."""
    B = SCAN_BLOCK
    n = B * (B + 2) + 5
    drive = _scan_input((n, 3))
    y0 = np.array([0.7, -0.0, 0.0])
    out = exp_scan(y0, drive, decay)
    for j in range(3):
        one = exp_scan(y0[j], drive[:, j], decay)
        assert one.tobytes() == out[:, j].tobytes()
    for m in (0, 1, B - 1, B, B + 1, 3 * B + 5, B * B - 1, B * B,
              B * (B + 1) + 1, n):
        assert exp_scan(y0, drive[:m], decay).tobytes() == out[:m + 1].tobytes()
    assert exp_scan(-0.0, np.zeros(0), decay).tobytes() == np.array([-0.0]).tobytes()


def test_exp_scan_works_out_its_powers_once_per_decay():
    """The short scans of an ensemble share one decay: the powers of each
    level (two here) are worked out by the first scan alone, the later
    scans have its bits, and the kept powers are read-only."""
    decay = math.exp(-1e-3)
    drive = _scan_input((2000, 1))
    _scan_powers.cache_clear()
    first = exp_scan(0.0, drive, decay)
    assert _scan_powers.cache_info().misses == 2
    for _ in range(3):
        assert exp_scan(0.0, drive, decay).tobytes() == first.tobytes()
    assert _scan_powers.cache_info().misses == 2
    B, q, rq = _scan_powers(decay)
    assert (B, q.shape, rq.shape) == (SCAN_BLOCK, (SCAN_BLOCK + 1, 1),
                                      (SCAN_BLOCK, 1))
    assert not q.flags.writeable and not rq.flags.writeable


@pytest.mark.parametrize("case", ["const-forcing", "ou-increments"])
def test_exp_scan_agrees_with_lfilter_on_a_long_scan(case):
    """scipy.signal.lfilter, the sequential recurrence in C, as a second
    reference at n = 320 000 rows: the lemma-p-lt-1 filter of a constant
    forcing (beta = 1, step 2e-4) and an OU scan of criterion 05's step
    (1e-4). Its error is at most u (R_k + 2 M_k), and these rows take at most
    three blocked levels, so the two differ by at most u (10 B R_k +
    8 M_k) (the bound of the exact test, widened by one level and lfilter's
    own error)."""
    from scipy.signal import lfilter

    n = 320_000
    if case == "const-forcing":
        decay = np.exp(-2e-4)
        drive = np.full(n, (1.0 - decay) * 0.8)
    else:
        decay = np.exp(-1e-4)
        drive = np.random.default_rng(7).standard_normal(n) * 1e-2

    def reference(x):
        out = np.zeros(n + 1)
        out[1:] = lfilter([1.0], [1.0, -decay], x)
        return out

    R = reference(np.abs(drive))
    M = reference(decay * R[:-1])
    bound = U * (10 * SCAN_BLOCK * R + 8 * M)
    assert np.all(np.abs(exp_scan(0.0, drive, decay) - reference(drive))
                  <= bound)


_NO_SIGNAL = """
import sys
import numpy as np
from svlab import (ContinuousSystem, GridSpec, exp_filter_equivalence,
                   neg_identity_point_mass, simulate_ou, simulate_sve)
grid = GridSpec(0.1, 1.0)
run = sys.argv[1]
if run == "sve":
    simulate_sve(ContinuousSystem(neg_identity_point_mass(1), grid,
                                  diffusion=1.0))
elif run == "ou":
    simulate_ou(1.0, 1.0, grid)
else:
    exp_filter_equivalence(lambda t: np.ones_like(t), 1.0, 0.5, 8, 0.125)
print(*[m for m in ("scipy.signal", "scipy.stats", "scipy.interpolate",
                    "scipy.optimize") if m in sys.modules])
"""


@pytest.mark.parametrize("run", ["sve", "ou", "exp-filter"])
def test_exponential_scans_load_no_scipy_signal(run):
    """A neg-identity simulate_sve, simulate_ou and exp_filter_equivalence
    each run the exponential scan, and none loads
    scipy.signal or the scipy.stats, interpolate and optimize it brings."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(svlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _NO_SIGNAL, run], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == []


_DEFERRED_LOADS = """
import json, os, sys
import numpy as np
import svlab, svlab.cli


def scipy_loaded():
    return any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)


print(scipy_loaded(), 'concurrent.futures' in sys.modules,
      'numpy.fft' in sys.modules)
from svlab import MatrixKernelSeq, resolvent_seq
from svlab.continuous import functional_resolvent
from svlab.core import DensitySample, GridSpec, SignedMeasureRepr, run_paths
resolvent_seq(MatrixKernelSeq(1, {0: [[-0.5]]}), 40)
config = os.path.join(sys.argv[1], 'sve.json')
with open(config, 'w') as fh:
    json.dump({'schema_version': 1,
               'grid': {'step_h': 0.02, 'horizon_T': 2.0},
               'kernel': {'atoms': [[0.0, -1.5]], 'density': {
                   'name': 'exp_decay(rate=2.0)', 'start': 0.0,
                   'step': 0.02, 'count': 40, 'scale': -0.5}},
               'diffusion': 0.4, 'ensemble': {'n_paths': 3}}, fh)
assert svlab.cli.main(['simulate-sve', '--config', config, '--out',
                       os.path.join(sys.argv[1], 'out')]) == 0
mu = SignedMeasureRepr(1, atoms=((-1.0, [[-0.5]]),),
                       density=DensitySample(-1.0, 0.05, np.full((20, 1, 1), -0.2)))
functional_resolvent(mu, 1.0, GridSpec(0.05, 2.0))
print(scipy_loaded())
assert run_paths(2, lambda i: i * i, threads=2) == [0, 1]
print('concurrent.futures' in sys.modules)
"""


def test_svlab_imports_on_numpy_alone(tmp_path):
    """`import svlab, svlab.cli` loads no scipy module, no
    concurrent.futures and no numpy.fft; a discrete resolvent, a
    `simulate-sve` CLI run on a density kernel and a functional resolvent,
    which all run the block
    solver, leave no scipy module in sys.modules; and a threaded run_paths
    loads concurrent.futures."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(svlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _DEFERRED_LOADS,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "False", "False", "False",
                                  "True"]


# ---------------------------------------------------------------------------
# causal convolution

def _causal_input(kind, d, n):
    """K (n, d, e) and s (n, e): standard normal ("flat"); a kernel decaying
    as 0.9^k ("decaying"); or both with entries scaled by 10^U(-8, 8)
    ("wide"), with e = 5 - d inputs so that e != d."""
    rng = np.random.default_rng([d, n, len(kind)])
    e = 5 - d if kind == "wide" else d
    K = rng.standard_normal((n, d, e))
    s = rng.standard_normal((n, e))
    if kind == "decaying":
        K *= 0.9 ** np.arange(n)[:, None, None]
    if kind == "wide":
        K *= 10.0 ** rng.uniform(-8.0, 8.0, K.shape)
        s *= 10.0 ** rng.uniform(-8.0, 8.0, s.shape)
    return K, s


def _causal_reference(K, s):
    """y[k] = sum_{j<=k} K[k-j] s[j] by direct sums in np.longdouble."""
    n, d, e = K.shape
    Kl, sl = K.astype(np.longdouble), s.astype(np.longdouble)
    y = np.zeros((n, d), np.longdouble)
    for a in range(d):
        for b in range(e):
            y[:, a] += np.convolve(Kl[:, a, b], sl[:, b])[:n]
    return y


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 500, 3000])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_causal_convolution_meets_its_error_bound(d, n):
    """Bound, stated in the docstring before measuring: every row of column
    a is within (e + log2 L) u sum_b ||K[:, a, b]||_2 ||s[:, b]||_2 of the
    exact sum, L the smallest power of two >= 2n - 1 and u = 2^-53. The
    long-double reference's own error, about n 2^-64 times the same norms,
    is at most a tenth of that at n = 3000. n = 63, 64 and 65 put 2n - 1
    below, at and above a power of two."""
    for kind in ("flat", "decaying", "wide"):
        K, s = _causal_input(kind, d, n)
        got = causal_convolution(K, s)
        assert got.shape == (n, d) and got.dtype == np.float64
        if n == 0:
            continue
        L = 1 << (2 * n - 2).bit_length()
        norms = np.linalg.norm(K, axis=0) @ np.linalg.norm(s, axis=0)
        bound = (K.shape[2] + math.log2(L)) * U * norms
        err = np.abs(got - _causal_reference(K, s)).max(axis=0)
        assert np.all(err.astype(float) <= bound), (kind, err / bound)


def test_causal_convolution_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="not \\(n, d, e\\)"):
        causal_convolution(np.ones((4, 2, 3)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="not \\(n, d, e\\)"):
        causal_convolution(np.ones((4, 2, 3)), np.ones((5, 3)))
    with pytest.raises(ValueError, match="not \\(n, d, e\\)"):
        causal_convolution(np.ones((4, 2)), np.ones((4, 2)))
