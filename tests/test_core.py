"""Grid, measure, kernel, exponential-scan and randomness-contract tests."""

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
    RunManifest,
    SignedMeasureRepr,
    UniformLaw,
    canonical_json,
    config_digest,
    constant_law,
    exp_scan,
    is_neg_identity_point_mass,
    neg_identity_point_mass,
    point_mass,
    rng_stream,
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
# measures and total variation

def test_total_variation_zero_measure():
    m = SignedMeasureRepr(dim=1)
    np.testing.assert_array_equal(m.total_variation(), [[0.0]])


def test_total_variation_single_atom():
    m = point_mass(-2.0)
    np.testing.assert_allclose(m.total_variation(), [[2.0]])


def test_total_variation_two_atoms():
    m = SignedMeasureRepr(1, atoms=((0.0, [[-1.0]]), (1.0, [[1.0]])))
    np.testing.assert_allclose(m.total_variation(), [[2.0]])


def test_total_variation_includes_density():
    dens = DensitySample(0.0, 0.5, np.full((2, 1, 1), -1.0))
    m = SignedMeasureRepr(1, atoms=((0.0, [[1.0]]),), density=dens)
    # |1| + integral of |-1| over [0, 1]
    np.testing.assert_allclose(m.total_variation(), [[2.0]])


def test_total_variation_subadditive_and_homogeneous():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w1 = rng.standard_normal((2, 2))
        w2 = rng.standard_normal((2, 2))
        a = SignedMeasureRepr(2, atoms=((0.0, w1),))
        b = SignedMeasureRepr(2, atoms=((0.0, w2),))
        both = SignedMeasureRepr(2, atoms=((0.0, w1 + w2),))
        assert np.all(both.total_variation()
                      <= a.total_variation() + b.total_variation() + 1e-12)
        c = float(rng.uniform(0.1, 3.0))
        scaled = SignedMeasureRepr(2, atoms=((0.0, c * w1),))
        np.testing.assert_allclose(scaled.total_variation(),
                                   c * a.total_variation(), rtol=1e-12)


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


def test_kernel_l1_matrix_closed_form_tail():
    K = MatrixKernelSeq(1, {0: [[-0.5]]}, tail=GeometricTail(2, [[0.1]], 0.5))
    # 0.5 + 0.1 / (1 - 0.5)
    np.testing.assert_allclose(K.l1_matrix(), [[0.7]])


def test_kernel_l1_matrix_swaps_the_tail_term_at_an_explicit_lag():
    # an entry at a lag >= tail.start replaces the tail there, as in values:
    # |-0.5| + 0.1 / (1 - 0.5) - 0.1 * 0.5^2 + |0.2| = 0.875
    K = MatrixKernelSeq(1, {0: [[-0.5]], 12: [[0.2]]},
                        tail=GeometricTail(10, [[0.1]], 0.5))
    assert K.l1_matrix()[0, 0] == pytest.approx(0.875, rel=1e-15)
    np.testing.assert_allclose(K.l1_matrix(),
                               np.abs(K.values(200)).sum(axis=0), rtol=1e-15)


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


def test_noise_draw_shapes():
    rng = np.random.default_rng(7)
    assert NoiseSpec.gaussian(2).draw(rng, 5).shape == (5, 2)
    assert NoiseSpec.uniform(0.0, 1.0, m=3).draw(rng, 4).shape == (4, 3)


def _shared_gaussian(rng, n):
    # two components driven by one Gaussian: dependent, not independent
    z = rng.standard_normal(n)
    return np.stack([z, -z], axis=1)


def test_noise_joint_sampler_draws_dependent_components():
    noise = NoiseSpec("custom-sampled", (GaussianLaw(), GaussianLaw()),
                      component_independence=False,
                      joint_sampler=_shared_gaussian)
    assert not noise.unrestricted_diffusion
    draw = noise.draw(np.random.default_rng(7), 5)
    assert draw.shape == (5, 2)
    np.testing.assert_array_equal(draw[:, 1], -draw[:, 0])


def test_noise_joint_sampler_wrong_shape_raises():
    noise = NoiseSpec("custom-sampled", (GaussianLaw(), GaussianLaw()),
                      joint_sampler=lambda rng, n: rng.standard_normal((n, 3)))
    with pytest.raises(ValueError, match="wrong shape"):
        noise.draw(np.random.default_rng(7), 5)


def test_noise_joint_sampler_needs_laws():
    with pytest.raises(ValueError, match="one law per component"):
        NoiseSpec("custom-sampled", (),
                  joint_sampler=lambda rng, n: rng.standard_normal((n, 3, 2)))


def test_noise_dependent_components_need_a_sampler():
    with pytest.raises(ValueError, match="need a joint sampler"):
        NoiseSpec("custom-sampled", (GaussianLaw(), GaussianLaw()),
                  component_independence=False)


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

@pytest.mark.parametrize("y0", [0.0, -0.0, 0.7])
@pytest.mark.parametrize("d", [None, 3])
def test_exp_scan_has_the_bits_of_lfilter(y0, d):
    from scipy.signal import lfilter

    rng = np.random.default_rng(5)
    shape = (257,) if d is None else (257, d)
    drive = rng.standard_normal(shape)
    drive[:4] = -0.0
    drive[100:110] = 0.0
    y = np.full(shape[1:], y0)
    decay = np.exp(-0.01)
    want = np.empty((258,) + shape[1:])
    want[0] = y
    want[1:] = lfilter([1.0], [1.0, -decay], drive, axis=0,
                       zi=decay * y[None])[0]
    got = exp_scan(y0 if d is None else y, drive, decay)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # out[k+1] = decay out[k] + drive[k]
    np.testing.assert_allclose(got[1:], decay * got[:-1] + drive, atol=1e-15)


_SIGNAL_LOADED = """
import sys
import numpy as np
import svlab, svlab.cli
print('scipy.signal' in sys.modules)
from svlab import (ContinuousSystem, GridSpec, exp_filter_equivalence,
                   neg_identity_point_mass, simulate_sve)
if sys.argv[1] == "sve":
    simulate_sve(ContinuousSystem(neg_identity_point_mass(1),
                                  GridSpec(0.1, 1.0), diffusion=1.0))
else:
    exp_filter_equivalence(lambda t: np.ones_like(t), 1.0, 0.5, 8, 0.125)
print('scipy.signal' in sys.modules)
"""


@pytest.mark.parametrize("run", ["sve", "exp-filter"])
def test_scipy_signal_loads_at_the_first_exponential_scan(run):
    """`import svlab, svlab.cli` leaves scipy.signal (and the scipy.stats,
    interpolate and optimize it brings) unloaded; a neg-identity simulate_sve
    or an exp_filter_equivalence call loads it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(svlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _SIGNAL_LOADED, run], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["False", "True"]


_DEFERRED_LOADS = """
import sys
import svlab, svlab.cli
print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules),
      'concurrent.futures' in sys.modules)
from svlab import MatrixKernelSeq, resolvent_seq
from svlab.core import run_paths
resolvent_seq(MatrixKernelSeq(1, {0: [[-0.5]]}), 40)
print('scipy.linalg' in sys.modules, 'scipy.signal' in sys.modules)
assert run_paths(2, lambda i: i * i, threads=2) == [0, 1]
print('concurrent.futures' in sys.modules)
"""


def test_svlab_imports_on_numpy_alone():
    """`import svlab, svlab.cli` loads no scipy module and no
    concurrent.futures; a discrete resolvent loads scipy.linalg (its block
    solve) but not scipy.signal, and a threaded run_paths loads
    concurrent.futures."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(svlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _DEFERRED_LOADS], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["False", "False", "True", "False", "True"]
