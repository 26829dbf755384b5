"""Kernel-measure dynamics: differential and functional resolvents, the
coupled SVE/OU integrators, delay stepping, and the characteristic-matrix
root scan."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw

from svlab.core import (
    SOLVE_BLOCK,
    CompiledMeasure,
    DensitySample,
    GridSpec,
    SignedMeasureRepr,
    neg_identity_point_mass,
    point_mass,
    rng_stream,
)
from svlab.continuous import (
    ContinuousSystem,
    DelaySystem,
    brownian_increments,
    characteristic_det,
    characteristic_root_scan,
    differential_resolvent,
    functional_resolvent,
    grid_convolution,
    lp_time_integral,
    pathwise_gap,
    simulate_ou,
    simulate_sfde,
    simulate_sve,
    sve_ensemble_lp_tail,
    trailing_window_average,
)
from svlab import continuous, core, corpus, quad


# ---------------------------------------------------------------------------
# differential resolvent

def test_resolvent_zero_measure_identity():
    g = GridSpec(0.1, 2.0)
    r = differential_resolvent(SignedMeasureRepr(2), g)
    for k in range(g.n_steps + 1):
        np.testing.assert_array_equal(r[k], np.eye(2))


def test_resolvent_unit_decay():
    h = 1e-3
    g = GridSpec(h, 10.0)
    r = differential_resolvent(neg_identity_point_mass(1), g)
    err = np.abs(r[:, 0, 0] - np.exp(-g.times())).max()
    assert err <= 0.6 * h


def test_resolvent_double_decay_first_order():
    h = 1e-3
    g = GridSpec(h, 5.0)
    r = differential_resolvent(point_mass([[-2.0]]), g)
    err = np.abs(r[:, 0, 0] - np.exp(-2.0 * g.times())).max()
    assert err <= 1.2 * h


def test_resolvent_error_halves_with_step():
    def err(h):
        g = GridSpec(h, 10.0)
        r = differential_resolvent(neg_identity_point_mass(1), g)
        return np.abs(r[:, 0, 0] - np.exp(-g.times())).max()

    ratio = err(1e-3) / err(5e-4)
    assert 1.6 < ratio < 2.4


# ---------------------------------------------------------------------------
# the slab stepper against a per-lag reference

def _reference_euler(measure, grid, head, forcing, noise):
    """The window rule tap by tap: on [0, inf) atom lag l counts iff l <= k
    and density lag l iff l <= k - 1; a delay kernel counts every tap over
    the stored history `head`. One step at a time, each step summing its
    counted taps from the measure itself, not from the compiled slab."""
    cm = CompiledMeasure(measure, grid)
    h = grid.step_h
    delay = measure.negative_support
    sign = -1.0 if delay else 1.0
    d = measure.dim
    lags = np.concatenate([cm.atom_lags, cm.dens_lags]).astype(int)
    weights = np.array([w for _, w in measure.atoms] + [
        measure.density.at(np.array([sign * lag * h]))[0] * h
        for lag in cm.dens_lags.tolist()]).reshape(-1, d, d)
    # the step from which each tap counts
    since = np.zeros(len(lags), int) if delay else \
        lags + (np.arange(len(lags)) >= len(cm.atom_lags))
    off = len(head) - 1
    X = np.zeros((off + grid.n_steps + 1,) + head.shape[1:])
    X[:off + 1] = head
    for k in range(grid.n_steps):
        on = since <= k
        acc = np.einsum("tab,tb...->a...", weights[on], X[off + k - lags[on]])
        X[off + k + 1] = X[off + k] + (forcing[k] + acc) * h + noise[k]
    return X


def _stepper_kernel(case, d):
    rng = np.random.default_rng(40 + d)

    def w(scale):
        return scale * rng.standard_normal((d, d))

    if case in ("delay", "long-delay"):
        # tau = 1 spans 20 steps of 0.05, tau = 4 more than a solve block
        tau = 1.0 if case == "delay" else 4.0
        cells = int(round(tau / 0.05))
        dens = DensitySample(-tau, 0.05,
                             w(0.3)[None] * rng.random((cells, 1, 1)) / tau)
        return SignedMeasureRepr(d, atoms=((-tau, w(0.4)), (0.0, -np.eye(d))),
                                 density=dens)
    # density on [0, 0.8) ends before the horizon 2, on [0, 5) after it;
    # its 16 lags fit in a solve block, 100 do not
    cells = 16 if case == "short-density" else 100
    dens = DensitySample(0.0, 0.05, w(0.5)[None] * rng.random((cells, 1, 1)))
    return SignedMeasureRepr(d, atoms=((0.0, -np.eye(d) + w(0.1)),
                                       (0.3, w(0.5))), density=dens)


@pytest.mark.parametrize("case", ["short-density", "long-density", "delay"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stepper_matches_per_lag_reference(case, d):
    g = GridSpec(0.05, 2.0)
    n = g.n_steps
    rng = np.random.default_rng(d)
    nu = _stepper_kernel(case, d)
    f = rng.standard_normal((n, d))
    sigma = rng.standard_normal((n, d, d))
    dB = rng.standard_normal((n, d)) * np.sqrt(g.step_h)
    noise = np.einsum("kdm,km->kd", sigma, dB)

    def close(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    if case == "delay":
        psi = 1.0 + rng.standard_normal((21, d))
        X = simulate_sfde(DelaySystem(nu, 1.0, psi, g, f, sigma), dB=dB)
        close(X, _reference_euler(nu, g, psi, f, noise))
        head = np.zeros((21, d, d))
        head[-1] = np.eye(d)
        r = functional_resolvent(nu, 1.0, g)
        close(r, _reference_euler(nu, g, head, np.zeros((n, d, 1)),
                                  np.zeros((n, d, 1)))[20:])
    else:
        x0 = 1.0 + rng.standard_normal(d)
        X = simulate_sve(ContinuousSystem(nu, g, f, sigma, x0), dB=dB)
        close(X, _reference_euler(nu, g, x0[None], f, noise))
        r = differential_resolvent(nu, g)
        close(r, _reference_euler(nu, g, np.eye(d)[None], np.zeros((n, d, 1)),
                                  np.zeros((n, d, 1))))


def _dims_and_columns():
    return [(d, c) for d in (1, 2, 3, 4) for c in sorted({1, d, 8})]


@pytest.mark.parametrize("n", [SOLVE_BLOCK - 1, SOLVE_BLOCK, SOLVE_BLOCK + 1,
                               3 * SOLVE_BLOCK + 5])
@pytest.mark.parametrize("d,c", _dims_and_columns())
@pytest.mark.parametrize("case", ["short-density", "long-density", "delay",
                                  "long-delay"])
def test_block_stepper_matches_per_lag_reference(case, d, c, n):
    """`euler` on c columns over horizons on both sides of one solve block
    and over several, against the window rule tap by tap; the long kernels
    reach back further than a block."""
    g = GridSpec(0.05, 0.05 * n)
    rng = np.random.default_rng(n + 10 * d + c)
    nu = _stepper_kernel(case, d)
    cm = CompiledMeasure(nu, g)
    delay = nu.negative_support
    n_hist = int(round(abs(nu.support[0]) / 0.05)) if delay else 0
    head = 1.0 + rng.standard_normal((n_hist + 1, d, c))
    forcing = rng.standard_normal((n, d, 1))
    noise = 0.1 * rng.standard_normal((n, d, c))
    X = np.empty((n_hist + n + 1, d, c))
    X[:n_hist + 1] = head
    assert cm.euler(X, n_hist, forcing * g.step_h + noise) is None
    ref = _reference_euler(nu, g, head, forcing, noise)
    scale = np.abs(ref).max()
    assert np.abs(X - ref).max() <= 1e-13 * scale


def test_convolve_is_one_step_of_the_stepper():
    g = GridSpec(0.05, 2.0)
    nu = _stepper_kernel("short-density", 2)
    sys_ = ContinuousSystem(nu, g, initial=np.array([1.0, -0.5]),
                            diffusion=0.3 * np.eye(2))
    dB = brownian_increments(g, 2, rng_stream(4, 0))
    X = simulate_sve(sys_, dB=dB)
    for k in range(g.n_steps):
        conv = sys_.compiled.convolve(X, k)
        step = X[k] + conv * g.step_h + sys_.sig_vals[k] @ dB[k]
        np.testing.assert_allclose(X[k + 1], step, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("shape", ["long", "wide", "column"])
@pytest.mark.parametrize("simulator", ["sve", "sve-exp", "sfde", "ou"])
def test_simulators_check_supplied_increments(simulator, shape):
    g = GridSpec(0.1, 1.0)
    n = g.n_steps
    dB = {"long": np.zeros((n + 1, 1)), "wide": np.zeros((n, 2)),
          "column": np.zeros((n, 1, 1))}[shape]
    run = {
        "sve": lambda: simulate_sve(
            ContinuousSystem(point_mass([[-2.0]]), g), dB=dB),
        "sve-exp": lambda: simulate_sve(
            ContinuousSystem(neg_identity_point_mass(1), g), dB=dB),
        "sfde": lambda: simulate_sfde(
            DelaySystem(point_mass([[-0.5]], location=-0.5), 0.5, 1.0, g),
            dB=dB),
        "ou": lambda: simulate_ou(None, 1.0, g, dB=dB),
    }[simulator]
    with pytest.raises(ValueError, match=r"dB shape .* != \(n_steps, noise_dim\)"):
        run()


# ---------------------------------------------------------------------------
# signals on the grid: core.on_grid, one rule for forcing, diffusion and
# history

_G = GridSpec(0.1, 1.0)  # 10 steps; a 0.5 delay has 6 history rows


def _delay(psi, d=1, **kw):
    return DelaySystem(point_mass(-0.5 * np.eye(d), location=-0.5), 0.5, psi,
                       _G, **kw)


@pytest.mark.parametrize("build, message", [
    # a scalar diffusion is s I, which needs a square (d, m)
    (lambda: ContinuousSystem(point_mass([[-1.0]]), _G, diffusion=0.5,
                              noise_dim=2),
     "diffusion shape (10,) != (10, 1, 2)"),
    (lambda: ContinuousSystem(point_mass(-np.eye(2)), _G, diffusion=0.5,
                              noise_dim=1),
     "diffusion shape (10,) != (10, 2, 1)"),
    (lambda: simulate_ou(None, lambda t: np.exp(-t), _G, d=2, m=3),
     "diffusion shape (10,) != (10, 2, 3)"),
    (lambda: ContinuousSystem(point_mass([[-1.0]]), _G,
                              forcing=np.ones(3)),
     "forcing shape (3,) != (10, 1)"),
    (lambda: ContinuousSystem(point_mass([[-1.0]]), _G,
                              diffusion=lambda t: np.ones((len(t), 2))),
     "diffusion shape (10, 2) != (10, 1, 1)"),
    (lambda: _delay(np.ones((6, 2))), "initial segment shape (6, 2) != (6, 1)"),
    (lambda: _delay(lambda t: np.where(t < -0.25, np.nan, 1.0)),
     "initial segment must be finite"),
    (lambda: _delay(np.inf), "initial segment must be finite"),
])
def test_signal_rule_rejects_and_names_the_signal(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert message in str(info.value)


_T = _G.times()[:-1]             # forcing and diffusion times
_HIST = _delay(0.0).times()[:6]  # the six history times of [-0.5, 0]


@pytest.mark.parametrize("sampled, expected", [
    (lambda: ContinuousSystem(point_mass(-np.eye(2)), _G, forcing=1.0).f_vals,
     np.ones((10, 2))),
    (lambda: simulate_ou(1.0, None, _G, d=2),
     simulate_ou(np.ones(2), None, _G, d=2)),
    (lambda: _delay(2.0, d=2).head, np.full((6, 2), 2.0)),
    # a time profile is s(t_k) in every component of row k, even when
    # d == len(times)
    (lambda: _delay(lambda t: np.exp(t), d=6).head,
     np.repeat(np.exp(_HIST)[:, None], 6, axis=1)),
    (lambda: ContinuousSystem(point_mass(-np.eye(10)), _G,
                              forcing=lambda t: np.exp(-t)).f_vals,
     np.repeat(np.exp(-_T)[:, None], 10, axis=1)),
    (lambda: ContinuousSystem(point_mass(-np.eye(2)), _G,
                              diffusion=0.3).sig_vals,
     np.repeat(0.3 * np.eye(2)[None], 10, axis=0)),
    # s I is the product s[:, None, None] * I: a negative s has -0.0 off
    # the diagonal
    (lambda: ContinuousSystem(point_mass(-np.eye(2)), _G,
                              diffusion=lambda t: -np.exp(-t)).sig_vals,
     -np.exp(-_T)[:, None, None] * np.eye(2)),
], ids=["forcing-number-d2", "ou-forcing-number-d2", "history-number-d2",
        "history-profile-d6", "forcing-profile-d10", "diffusion-number-d2",
        "diffusion-negative-profile-d2"])
def test_scalar_signal_is_s_times_one_or_identity(sampled, expected):
    got = sampled()
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class _Counted:
    """A signal that declares the support of f and counts the points it is
    evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.f(t)

    def support(self, t0, t1):
        return corpus.support_of(self.f, t0, t1)


@pytest.mark.parametrize("beta", [0.25, 0.4])
def test_on_grid_evaluates_a_support_declaring_signal_on_its_support(beta):
    """sqrt(spike) at the 320 001 times of h = 1e-4, T = 32, and at every
    third of them shifted off the grid, has the bytes of evaluating it at
    every time; it is evaluated at under a sixth of the times, and sampling
    it peaks below twice the result's size."""
    import tracemalloc

    f = corpus.resolve(f"sqrt(spike(beta={beta}))")
    times = GridSpec(1e-4, 32.0).times()
    for t in (times, times[::3] + 1.25e-5):
        counted = _Counted(f)
        got = core.on_grid(counted, t, (), "signal")
        assert got.tobytes() == np.asarray(f(t), float).tobytes()
        assert counted.points < t.size / 6
    tracemalloc.start()
    try:
        got = core.on_grid(f, times, (), "signal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * got.nbytes


@pytest.mark.parametrize("tau", [0.5, 2.0])
@pytest.mark.parametrize("psi", ["spike(beta=0.32)", "sqrt(spike(beta=0.32))"])
def test_spike_history_is_rejected_at_every_size(psi, tau):
    """The spike family is defined on t >= 0 only, and its support on the
    negative times of a delay history is empty: sampling it there on its
    support still raises, on 5 001 history times and on 20 001."""
    with pytest.raises(ValueError, match="defined on t >= 0"):
        DelaySystem(point_mass([[-0.5]], location=-tau), tau,
                    corpus.resolve(psi), GridSpec(1e-4, 0.01))


def test_profile_and_constant_vector_differ_when_dim_equals_the_times():
    # d == len(times) == 10: a callable's profile is tiled over the
    # components, a non-callable length-d array is held constant over time
    mu = point_mass(-np.eye(10))
    profile = ContinuousSystem(mu, _G, forcing=lambda t: np.exp(-t))
    vector = ContinuousSystem(mu, _G, forcing=np.exp(-_T))
    np.testing.assert_array_equal(profile.f_vals,
                                  np.repeat(np.exp(-_T)[:, None], 10, axis=1))
    np.testing.assert_array_equal(vector.f_vals,
                                  np.repeat(np.exp(-_T)[None], 10, axis=0))
    head = _delay(np.exp(_HIST), d=6).head
    np.testing.assert_array_equal(head, np.repeat(np.exp(_HIST)[None], 6,
                                                  axis=0))


def test_constant_forcing_vector_is_held_over_time():
    mu = point_mass([[-1.0, 0.2], [0.0, -2.0]])
    sys_ = ContinuousSystem(mu, _G, forcing=np.array([1.0, -2.0]),
                            diffusion=0.3 * np.eye(2))
    np.testing.assert_array_equal(sys_.f_vals, np.tile([1.0, -2.0], (10, 1)))
    per_time = ContinuousSystem(
        mu, _G, forcing=lambda t: np.tile([1.0, -2.0], (len(t), 1)),
        diffusion=0.3 * np.eye(2))
    assert np.array_equal(simulate_sve(sys_, master_seed=2),
                          simulate_sve(per_time, master_seed=2))


def test_constant_history_vector_is_held_over_time():
    sys_ = _delay(np.array([1.0, 2.0]), d=2, diffusion=0.2 * np.eye(2))
    np.testing.assert_array_equal(sys_.head, np.tile([1.0, 2.0], (6, 1)))
    per_time = _delay(lambda t: np.tile([1.0, 2.0], (len(t), 1)), d=2,
                      diffusion=0.2 * np.eye(2))
    assert np.array_equal(simulate_sfde(sys_, master_seed=4),
                          simulate_sfde(per_time, master_seed=4))


def test_callable_returning_a_number_is_held_over_time():
    mu = point_mass([[-1.0]])
    sys_ = ContinuousSystem(mu, _G, forcing=lambda t: 0.7,
                            diffusion=lambda t: 0.3)
    np.testing.assert_array_equal(sys_.f_vals, np.full((10, 1), 0.7))
    np.testing.assert_array_equal(sys_.sig_vals, np.full((10, 1, 1), 0.3))
    same = ContinuousSystem(mu, _G, forcing=0.7, diffusion=0.3)
    assert np.array_equal(simulate_sve(sys_, master_seed=1),
                          simulate_sve(same, master_seed=1))
    assert np.array_equal(simulate_ou(lambda t: 0.7, lambda t: 0.3, _G),
                          simulate_ou(0.7, 0.3, _G))


def test_none_history_is_zero():
    sys_ = _delay(None, diffusion=0.5)
    np.testing.assert_array_equal(sys_.head, np.zeros((6, 1)))
    assert np.array_equal(simulate_sfde(sys_, master_seed=3),
                          simulate_sfde(_delay(0.0, diffusion=0.5),
                                        master_seed=3))


def test_both_systems_store_the_rows_their_paths_start_from():
    sys_ = ContinuousSystem(point_mass([[-1.0]]), _G, initial=[2.5])
    np.testing.assert_array_equal(sys_.head, [[2.5]])
    X = simulate_sve(sys_)
    np.testing.assert_array_equal(X[:1], sys_.head)
    delay = _delay(lambda t: 1.0 + t)
    np.testing.assert_array_equal(simulate_sfde(delay)[:6], delay.head)


# ---------------------------------------------------------------------------
# SVE / OU simulation

def test_sve_deterministic_decay():
    g = GridSpec(1e-3, 5.0)
    sys_ = ContinuousSystem(neg_identity_point_mass(1), g,
                            initial=np.array([2.0]))
    x = simulate_sve(sys_, master_seed=0, path_index=0)
    err = np.abs(x[:, 0] - 2.0 * np.exp(-g.times())).max()
    assert err < 1e-3


def test_sve_generic_kernel_euler_order():
    # nu = -2 delta_0 runs the generic Euler loop, first order in h
    g = GridSpec(1e-3, 5.0)
    sys_ = ContinuousSystem(point_mass([[-2.0]]), g, initial=np.array([1.0]))
    x = simulate_sve(sys_, master_seed=0, path_index=0)
    err = np.abs(x[:, 0] - np.exp(-2.0 * g.times())).max()
    assert err < 2e-3


def test_sve_rejects_negative_support_kernel():
    g = GridSpec(0.1, 1.0)
    mu = point_mass([[1.0]], location=-0.5)
    with pytest.raises(ValueError):
        ContinuousSystem(mu, g)


def test_ou_zero_everything():
    g = GridSpec(0.01, 1.0)
    y = simulate_ou(None, None, g, master_seed=0)
    np.testing.assert_array_equal(y, np.zeros((g.n_steps + 1, 1)))


def test_ou_constant_forcing_relaxation():
    g = GridSpec(1e-3, 5.0)
    y = simulate_ou(corpus.ConstFamily(1.0), None, g)
    # the exponential step integrates constant forcing exactly
    err = np.abs(y[:, 0] - (1.0 - np.exp(-g.times()))).max()
    assert err < 1e-12


def test_embedding_is_bit_identical():
    """nu = -delta_0 I routes the SVE through the OU integrator: not close,
    equal."""
    g = GridSpec(1e-3, 4.0)
    f = corpus.resolve("osc(alpha=0.1,beta=0.5)")
    s = corpus.resolve("sqrt(spike(beta=0.32))")
    dB = brownian_increments(g, 1, rng_stream(17, 0))
    x = simulate_sve(ContinuousSystem(neg_identity_point_mass(1), g, f, s),
                     dB=dB)
    y = simulate_ou(f, s, g, dB=dB)
    assert np.array_equal(x, y)


def test_embedding_matrix_valued():
    g = GridSpec(1e-2, 2.0)
    dB = brownian_increments(g, 2, rng_stream(18, 0))
    sys_ = ContinuousSystem(neg_identity_point_mass(2), g,
                            forcing=lambda t: np.stack([np.sin(t), np.cos(t)], -1),
                            diffusion=np.array([[0.5, 0.0], [0.1, 0.2]]))
    x = simulate_sve(sys_, dB=dB)
    y = simulate_ou(lambda t: np.stack([np.sin(t), np.cos(t)], -1),
                    np.array([[0.5, 0.0], [0.1, 0.2]]), g, d=2, m=2, dB=dB)
    assert np.array_equal(x, y)


def test_solver_fault_moves_coupled_residual(monkeypatch):
    """`euler` against the per-lag reference, which sums its taps from the
    measure and not through the solver: a block solve that drops the
    farthest tap must break the reference's 1e-13 bound."""
    g = GridSpec(1e-3, 3.0)
    n = g.n_steps
    nu = SignedMeasureRepr(1, atoms=((0.0, [[-2.0]]), (0.005, [[0.5]])))
    head = np.ones((1, 1, 1))
    forcing = np.ones((n, 1, 1))
    noise = np.sqrt(g.step_h) * np.random.default_rng(3).standard_normal((n, 1, 1))
    ref = _reference_euler(nu, g, head, forcing, noise)

    def gap():
        X = np.empty((n + 1, 1, 1))
        X[0] = head
        CompiledMeasure(nu, g).euler(X, 0, forcing * g.step_h + noise)
        return np.abs(X - ref).max() / np.abs(ref).max()

    assert gap() <= 1e-13
    solve = core.lag_solve

    def short(slab, X, *args):
        return solve(slab[:, X.shape[1]:], X, *args)

    monkeypatch.setattr(core, "lag_solve", short)
    assert gap() > 1e-13


def test_simulation_reproducible_by_seed():
    g = GridSpec(1e-2, 2.0)
    sys_ = ContinuousSystem(neg_identity_point_mass(1), g, None,
                            corpus.ConstFamily(1.0))
    a = simulate_sve(sys_, master_seed=5, path_index=2)
    b = simulate_sve(sys_, master_seed=5, path_index=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, simulate_sve(sys_, master_seed=5, path_index=3))


def test_ou_variance_matches_ito_isometry():
    g = GridSpec(1e-2, 1.0)
    M = 2000
    ys = np.stack([simulate_ou(None, corpus.ConstFamily(1.0), g,
                               master_seed=2024, path_index=k)[:, 0]
                   for k in range(M)])
    t = g.times()
    target = (1.0 - np.exp(-2.0 * t)) / 2.0
    for idx in (g.index_at(0.5), g.index_at(1.0)):
        sample = ys[:, idx].var(ddof=1)
        stderr = target[idx] * np.sqrt(2.0 / (M - 1))
        assert abs(sample - target[idx]) < 4 * stderr


# ---------------------------------------------------------------------------
# convolution helpers

def test_grid_convolution_step_response():
    # r = e^{-t}, f = 1: (r * f)(t) -> 1 - e^{-t} + O(h)
    h = 1e-3
    g = GridSpec(h, 4.0)
    r = np.exp(-g.times())
    out = grid_convolution(r, np.ones(g.n_steps + 1), g)
    err = np.abs(out - (1.0 - np.exp(-g.times()))).max()
    assert err < 2 * h


def test_grid_convolution_matches_loop():
    rng = np.random.default_rng(8)
    g = GridSpec(0.5, 5.0)
    n = g.n_steps
    kv = rng.standard_normal((n + 1, 2, 2))
    fv = rng.standard_normal((n + 1, 2))
    out = grid_convolution(kv, fv, g)
    for k in range(n + 1):
        ref = sum(kv[k - j] @ fv[j] for j in range(k)) * g.step_h
        np.testing.assert_allclose(out[k], ref, atol=1e-12)


def test_grid_convolution_row_zero_is_exactly_zero():
    """The sum over j < 0 is empty: row 0 is 0.0 (not -0.0 or round-off)
    for nonzero kernel and signal values, scalar and matrix."""
    rng = np.random.default_rng(5)
    g = GridSpec(0.1, 7.0)
    n1 = g.n_steps + 1
    out = grid_convolution(rng.standard_normal(n1), rng.standard_normal(n1), g)
    assert out.shape == (n1,) and out[:1].tobytes() == np.zeros(1).tobytes()
    out = grid_convolution(rng.standard_normal((n1, 3, 2)),
                           rng.standard_normal((n1, 2)), g)
    assert out.shape == (n1, 3)
    assert out[0].tobytes() == np.zeros(3).tobytes()


def test_lp_time_integral_left_riemann():
    g = GridSpec(0.25, 2.0)
    S = lp_time_integral(np.ones((g.n_steps + 1, 1)), 4.0, g)
    np.testing.assert_allclose(S, g.times(), atol=1e-12)
    assert S[0] == 0.0


@pytest.mark.parametrize("p", [0.0, -1.0, np.nan, np.inf])
def test_lp_time_integral_rejects_p_not_finite_positive(p):
    g = GridSpec(0.25, 2.0)
    with pytest.raises(ValueError, match="finite positive"):
        lp_time_integral(np.ones((g.n_steps + 1, 1)), p, g)


def test_pathwise_gap_blocks():
    g = GridSpec(0.5, 3.0)
    path = np.array([0.0, 1.0, -2.0, 0.5, 3.0, -1.0, 0.25])[:, None]
    ref = np.zeros((7, 1))
    # blocks are (start, width) pairs; endpoints are inclusive on the grid
    gap, sups = pathwise_gap(path, ref, g, [(0.0, 1.0), (2.0, 1.0)])
    np.testing.assert_allclose(sups, [2.0, 3.0])
    assert gap.shape == (7,)
    assert gap.max() == 3.0


def test_trailing_window_average_constant():
    g = GridSpec(0.01, 4.0)
    t = g.times()
    v = trailing_window_average(2.0, g)
    mask = t >= 1.0
    assert np.abs(v[mask] - 1.0).max() < 2 * g.step_h


def test_trailing_window_average_needs_a_step_that_divides_one():
    # at h = 0.3 the widths would reach 0.9, not 1
    with pytest.raises(ValueError, match="must divide the unit width range"):
        trailing_window_average(2.0, GridSpec(0.3, 6.0))


def test_trailing_window_average_samples_by_the_signal_rule():
    g = GridSpec(0.5, 4.0)
    one = trailing_window_average(lambda s: s, g)
    assert one.shape == (g.n_steps + 1,)
    two = trailing_window_average(lambda s: s, g, d=2)
    assert two.shape == (g.n_steps + 1, 2)
    assert two[:, 0].tobytes() == two[:, 1].tobytes() == one.tobytes()
    assert trailing_window_average(2.0, g, d=2).shape == (g.n_steps + 1, 2)
    with pytest.raises(ValueError, match=r"signal shape \(9, 3\) != \(9, 1\)"):
        trailing_window_average(np.ones((g.n_steps + 1, 3)), g)


def test_trailing_window_average_linear():
    g = GridSpec(0.01, 4.0)
    t = g.times()
    v = trailing_window_average(lambda s: s, g)
    mask = t >= 1.0
    assert np.abs(v[mask] - (t[mask] / 2.0 - 1.0 / 6.0)).max() < 2 * g.step_h


# ---------------------------------------------------------------------------
# ensembles

def test_sve_ensemble_verdict_and_determinism():
    g = GridSpec(1e-2, 8.0)
    sys_ = ContinuousSystem(neg_identity_point_mass(1), g, None,
                            corpus.ExpDecayFamily(1.0))
    rep = sve_ensemble_lp_tail(sys_, 2.0, (2.0, 4.0, 8.0), master_seed=6,
                               n_paths=30)
    assert rep.verdict == "summable-evidence"
    rep2 = sve_ensemble_lp_tail(sys_, 2.0, (2.0, 4.0, 8.0), master_seed=6,
                                n_paths=30, threads=4)
    assert rep2.diagnostics == rep.diagnostics  # schedule independence


def test_sve_ensemble_divergent_for_flat_noise():
    g = GridSpec(1e-2, 8.0)
    sys_ = ContinuousSystem(neg_identity_point_mass(1), g, None,
                            corpus.ConstFamily(1.0))
    rep = sve_ensemble_lp_tail(sys_, 2.0, (2.0, 4.0, 8.0), master_seed=6,
                               n_paths=30)
    assert rep.verdict == "divergent-evidence"


# ---------------------------------------------------------------------------
# ensembles in blocks of paths

def _block_system(kind):
    """A d = 2 system with three noise components, for each route."""
    g = GridSpec(0.05, 2.0)
    sigma = 0.3 * np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.4]])
    if kind == "sfde":
        return DelaySystem(_stepper_kernel("delay", 2), 1.0,
                           np.ones((21, 2)), g, diffusion=sigma, noise_dim=3)
    nu = (neg_identity_point_mass(2) if kind == "sve-exp"
          else _stepper_kernel("short-density", 2))
    return ContinuousSystem(nu, g, lambda t: np.stack([np.sin(t), 0 * t], -1),
                            sigma, np.array([1.0, -0.5]), 3)


def _simulate(sys_, **kw):
    return (simulate_sfde if isinstance(sys_, DelaySystem)
            else simulate_sve)(sys_, **kw)


@pytest.mark.parametrize("kind", ["sve", "sfde", "sve-exp"])
def test_ensemble_bytes_do_not_depend_on_size_or_threads(kind, monkeypatch):
    sys_ = _block_system(kind)
    streams = []
    stream = continuous.rng_stream

    def counting(seed, i):
        streams.append(i)
        return stream(seed, i)

    monkeypatch.setattr(continuous, "rng_stream", counting)
    paths = {n: continuous.ensemble(sys_, 5, n, lambda i, X: X.tobytes())
             for n in (1, 8, 9)}
    assert streams == [0, *range(8), *range(9)]  # one stream per path
    assert paths[9][:1] == paths[1]
    assert paths[9][:8] == paths[8]
    assert continuous.ensemble(sys_, 5, 9, lambda i, X: X.tobytes(),
                               threads=3) == paths[9]


@pytest.mark.parametrize("kind", ["sve", "sfde", "sve-exp"])
def test_one_path_is_its_ensemble_column(kind):
    sys_ = _block_system(kind)
    paths = continuous.ensemble(sys_, 5, 14, lambda i, X: X)
    for i in (0, 7, 8, 13):
        alone = _simulate(sys_, master_seed=5, path_index=i)
        dB = brownian_increments(sys_.grid, 3, rng_stream(5, i))
        given = _simulate(sys_, dB=dB, path_index=i)
        assert alone.shape == paths[i].shape
        assert alone.tobytes() == given.tobytes() == paths[i].tobytes()


def test_continuous_imports_nothing_from_conditions():
    # the step divisor lives in core, beside GridSpec
    tree = ast.parse(Path(continuous.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "conditions"
            assert "conditions" not in [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            assert all("conditions" not in a.name for a in node.names)


# ---------------------------------------------------------------------------
# delay systems

def test_sfde_method_of_steps_closed_form():
    """mu = -0.5 delta_{-1}, psi = 1: X'(t) = -X(t-1)/2, so X(t) = 1 - t/2
    on [0, 1]."""
    h = 1e-3
    g = GridSpec(h, 2.0)
    sys_ = DelaySystem(point_mass([[-0.5]], location=-1.0), 1.0, 1.0, g)
    X = simulate_sfde(sys_, master_seed=0)
    k = sys_.n_hist + g.index_at(1.0)
    assert abs(X[k, 0] - 0.5) < 2 * h
    # history rows replay psi exactly
    np.testing.assert_array_equal(X[:sys_.n_hist + 1, 0],
                                  np.ones(sys_.n_hist + 1))


def test_sfde_callable_history():
    h = 1e-2
    g = GridSpec(h, 1.0)
    sys_ = DelaySystem(point_mass([[0.0]], location=-0.5), 0.5,
                       lambda s: 1.0 + s, g)
    X = simulate_sfde(sys_, master_seed=0)
    np.testing.assert_allclose(X[:sys_.n_hist + 1, 0],
                               1.0 + sys_.times()[:sys_.n_hist + 1],
                               atol=1e-12)


def test_delay_system_rejects_positive_support():
    g = GridSpec(0.1, 1.0)
    with pytest.raises(ValueError):
        DelaySystem(point_mass([[1.0]], location=0.5), 1.0, 1.0, g)


def test_delay_system_rejects_mass_beyond_tau():
    g = GridSpec(0.1, 1.0)
    with pytest.raises(ValueError):
        DelaySystem(point_mass([[1.0]], location=-2.0), 1.0, 1.0, g)


@pytest.mark.parametrize("mu,tau,message", [
    (point_mass([[1.0]], location=0.5), 1.0, "supported in"),
    (point_mass([[1.0]], location=-2.0), 1.0, "supported in"),
    (point_mass([[1.0]], location=-1.0), -1.0, "tau must be positive"),
])
def test_delay_rule_guards_resolvent_and_roots(mu, tau, message):
    g = GridSpec(0.1, 1.0)
    with pytest.raises(ValueError, match=message):
        functional_resolvent(mu, tau, g)
    with pytest.raises(ValueError, match=message):
        characteristic_det(mu, tau, 0.5)
    with pytest.raises(ValueError, match=message):
        characteristic_root_scan(mu, tau)


def test_functional_resolvent_closed_form():
    # r_tau(t) = 1 on [0, 1), then 1 - (t-1)/2: r_tau(1.5) = 0.75
    h = 1e-3
    g = GridSpec(h, 2.0)
    r = functional_resolvent(point_mass([[-0.5]], location=-1.0), 1.0, g)
    assert r.shape == (g.n_steps + 1, 1, 1)
    np.testing.assert_array_equal(r[0], np.eye(1))
    assert abs(r[g.index_at(1.5), 0, 0] - 0.75) < 2 * h


# ---------------------------------------------------------------------------
# characteristic matrix

def test_characteristic_det_point_mass():
    mu = point_mass([[-0.5]], location=-1.0)
    lam = 0.3 + 0.7j
    # Delta(lambda) = lambda + 0.5 e^{-lambda}
    expect = lam + 0.5 * np.exp(-lam)
    assert characteristic_det(mu, 1.0, lam) == pytest.approx(expect)


def test_characteristic_det_density_cell():
    dens = DensitySample(-1.0, 1.0, np.full((1, 1, 1), -1.0))
    mu = SignedMeasureRepr(1, density=dens)
    lam = 0.5
    # integral of e^{lambda s} over [-1, 0] = (1 - e^{-lambda}) / lambda
    expect = lam + (1.0 - np.exp(-lam)) / lam
    assert characteristic_det(mu, 1.0, lam) == pytest.approx(expect)
    # lambda = 0 takes the cell-length branch
    assert characteristic_det(mu, 1.0, 0.0) == pytest.approx(1.0)


def _det_per_point(mu, lam):
    """det Delta(lambda) one lambda at a time, atoms then cells in order."""
    d = mu.dim
    hat = np.zeros((d, d), complex)
    for loc, w in mu.atoms:
        hat += w * np.exp(lam * loc)
    dens = mu.density
    if dens is not None:
        for k in range(dens.values.shape[0]):
            a = dens.start + k * dens.step
            b = a + dens.step
            if lam == 0:
                cell = b - a
            else:
                cell = (np.exp(lam * b) - np.exp(lam * a)) / lam
            hat += dens.values[k] * cell
    return complex(np.linalg.det(lam * np.eye(d, dtype=complex) - hat))


def _atom_and_100_cells():
    tau, cells = 1.2, 100
    step = tau / cells
    start = -(cells * step)
    a = start + step * np.arange(cells)
    vals = -0.2 * np.cos(2.5 * a) * np.exp(0.4 * a)
    return SignedMeasureRepr(1, ((-tau, np.array([[0.5]])),),
                             DensitySample(start, step, vals.reshape(-1, 1, 1)))


def _det_kernels():
    rng = np.random.default_rng(3)
    d2_atoms = ((-0.875, rng.standard_normal((2, 2))),
                (0.0, rng.standard_normal((2, 2))))
    d2_density = DensitySample(-0.875, 0.125,
                               0.5 * rng.standard_normal((7, 2, 2)))
    # atoms at both ends of [-1.2, 0] and 70 cells of a non-dyadic step
    d3_cells = 70
    d3_step = 1.2 / d3_cells
    d3 = SignedMeasureRepr(3, ((-1.2, rng.standard_normal((3, 3))),
                               (0.0, rng.standard_normal((3, 3)))),
                           DensitySample(-(d3_cells * d3_step), d3_step,
                                         rng.standard_normal((d3_cells, 3, 3))))
    return {
        "d1-atom-100-cells": _atom_and_100_cells(),
        "d2-atoms-density": SignedMeasureRepr(2, d2_atoms, d2_density),
        "d2-atoms-only": SignedMeasureRepr(2, d2_atoms),
        "d3-end-atoms-70-cells": d3,
    }


def _det_horner_per_point(mu, lam):
    """det Delta(lambda) for one lambda by the Horner form, on one-element
    arrays: zero plus the atoms in order, then psi(lambda) P(u) with
    P = V_0, P = P u + V_k and psi by the sign of Re lambda."""
    z = np.array([lam], complex)
    d = mu.dim
    hat = np.zeros((1, d, d), complex)
    for loc, w in mu.atoms:
        hat += w * np.exp(z * loc)[:, None, None]
    dens = mu.density
    if dens is not None and dens.values.shape[0]:
        step = dens.step
        last = dens.start + (dens.values.shape[0] - 1) * step
        u = np.exp(z * -step)[:, None, None]
        p = dens.values[0] + np.zeros((1, d, d), complex)
        for v in dens.values[1:]:
            p = p * u
            p += v
        if lam == 0:
            psi = np.array([step], complex)
        elif lam.real < 0:
            psi = np.exp(z * last) * np.expm1(z * step) / z
        else:
            psi = -np.exp(z * (last + step)) * np.expm1(z * -step) / z
        hat += psi[:, None, None] * p
    return complex(np.linalg.det(z[:, None, None] * np.eye(d, dtype=complex)
                                 - hat)[0])


def _det_lambdas():
    """A 7 x 13 grid through 0, and a 165-point line with one zero."""
    grid = np.empty((7, 13), complex)
    grid.real = np.linspace(-3.0, 3.0, 13)
    grid.imag = np.linspace(-2.0, 4.0, 7)[:, None]
    line = np.linspace(-3.0, 3.0, 165) + 1j * np.linspace(4.0, -2.0, 165)
    line[139] = 0.0
    return grid, line


@pytest.mark.parametrize("name", ["d1-atom-100-cells", "d2-atoms-density",
                                  "d2-atoms-only", "d3-end-atoms-70-cells"])
def test_characteristic_det_array_matches_per_point_bits(name):
    """Each lambda has the bytes of the per-lambda Horner reference, in the
    whole batch, alone, and in chunks of 1 and 7 from odd offsets."""
    mu = _det_kernels()[name]
    for lams in _det_lambdas():
        assert (lams == 0).sum() == 1
        got = characteristic_det(mu, 1.2, lams)
        want = np.array([_det_horner_per_point(mu, complex(z))
                         for z in lams.ravel()])
        assert got.shape == lams.shape
        assert got.tobytes() == want.reshape(lams.shape).tobytes()
        flat = lams.ravel()
        for size, offset in [(1, 0), (7, 1), (7, 3)]:
            chunks = [characteristic_det(mu, 1.2, flat[s:s + size])
                      for s in range(offset, flat.size, size)]
            assert np.concatenate(chunks).tobytes() == want[offset:].tobytes()
    scalar = characteristic_det(mu, 1.2, 0.3 + 0.2j)
    assert type(scalar) is complex
    assert scalar == _det_horner_per_point(mu, 0.3 + 0.2j)


def _det_magnitude(mu, lam):
    """The permanent of the matrix whose entries sum the absolute values of
    the per-cell route's terms: |lambda| on the diagonal, |W_j| |e^{lambda
    s_j}| per atom and |V_k| (|e^{lambda a_k}| + |e^{lambda b_k}|) / |lambda|
    per cell, at lambda != 0."""
    d = mu.dim
    m = abs(lam) * np.eye(d)
    for loc, w in mu.atoms:
        m += np.abs(w) * abs(np.exp(lam * loc))
    dens = mu.density
    for k in range(dens.values.shape[0]):
        a = dens.start + k * dens.step
        m += np.abs(dens.values[k]) * (abs(np.exp(lam * a))
                                       + abs(np.exp(lam * (a + dens.step))))\
            / abs(lam)
    return sum(np.prod([m[i, p[i]] for i in range(d)])
               for p in itertools.permutations(range(d)))


DENSITY_KERNELS = ["d1-atom-100-cells", "d2-atoms-density",
                   "d3-end-atoms-70-cells"] + [
    f"density-{cells}" for cells in (3, 7, 16, 40, 100)]


def _density_kernel(name):
    """(mu, tau) of a density kernel of `_det_kernels` or `_scan_kernels`."""
    if name in _det_kernels():
        return _det_kernels()[name], 1.2
    return _scan_kernels()[name]


@pytest.mark.parametrize("name", DENSITY_KERNELS)
def test_characteristic_det_matches_the_per_cell_route(name):
    """Horner's rule and the per-cell exponentials (`_det_per_point`) each
    err by a few unit roundoffs per term, so they agree within
    4 d (K + 4) u M(lambda), M from `_det_magnitude` (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 4.2 and 5.1)."""
    mu, tau = _density_kernel(name)
    cells = mu.density.values.shape[0]
    lams = np.empty((31, 41), complex)
    lams.real = np.linspace(-3.0, 3.0, 41)
    lams.imag = np.linspace(-1.0, 10.0, 31)[:, None]
    lams = lams[lams != 0]
    got = characteristic_det(mu, tau, lams)
    for lam, value in zip(lams.tolist(), got.tolist()):
        bound = 4 * mu.dim * (cells + 4) * np.finfo(float).eps / 2 \
            * _det_magnitude(mu, lam)
        assert abs(value - _det_per_point(mu, lam)) <= bound


@pytest.mark.parametrize("lam", [1e-12, 1e-9 + 1e-9j, 1e-6, -1e-6, 0.0])
def test_characteristic_det_keeps_its_accuracy_near_zero(lam):
    """mu = -1 on [-1, 0] in 100 cells: det Delta = lambda - expm1(-lambda)
    / lambda (1 at 0), within Horner's 2K unit roundoffs; the per-cell
    difference of exponentials cancels there."""
    cells = 100
    mu = SignedMeasureRepr(1, density=DensitySample(
        -1.0, 1.0 / cells, np.full((cells, 1, 1), -1.0)))
    exact = 1.0 if lam == 0 else lam - complex(np.expm1(-lam)) / lam
    got = characteristic_det(mu, 1.0, lam)
    assert abs(got - exact) <= 2 * cells * np.finfo(float).eps / 2 * abs(exact)


def test_characteristic_det_of_a_density_without_cells_is_its_atoms():
    atoms = ((-1.0, [[0.5]]), (-0.25, [[-1.5]]))
    lams = _det_lambdas()[0]
    empty = SignedMeasureRepr(1, atoms, DensitySample(-1.0, 0.1,
                                                      np.zeros((0, 1, 1))))
    assert characteristic_det(empty, 1.0, lams).tobytes() == \
        characteristic_det(SignedMeasureRepr(1, atoms), 1.0, lams).tobytes()


@pytest.mark.parametrize("name", DENSITY_KERNELS)
def test_characteristic_det_is_finite_where_the_per_cell_route_is(name):
    """Far from 0 one psi form overflows where the transform does not; each
    lambda takes the form that does not, and the other form is not even
    formed there, so no overflow is raised at those of Re lambda >= 0."""
    mu, tau = _density_kernel(name)
    lams = np.array([500, -500, -700 + 3j, 600, 2000 + 5j, 1e5j, 1e300])
    with np.errstate(all="ignore"):
        got = characteristic_det(mu, tau, lams)
        want = np.array([_det_per_point(mu, complex(z)) for z in lams])
    finite = np.isfinite(want)
    assert finite.any()
    assert np.isfinite(got[finite]).all()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        characteristic_det(mu, tau, lams[finite & (lams.real >= 0)])


def test_root_scan_roots_are_pinned():
    """Atom plus a 100-cell density on a 61 x 51 grid: one real root found
    by bisection, two complex ones by Newton polish. The pins moved once,
    when the density moved from per-cell exponentials to Horner's rule;
    each root stays within 1e-12 of where it was, and the per-cell route
    reads |det Delta| below the scan's det_tol there."""
    mu = _atom_and_100_cells()
    res = characteristic_root_scan(mu, 1.2, (-3.0, 3.0), (0.0, 10.0), 61, 51)
    assert res.verdict == "unstable"
    pins = [
        ("-0x1.36844a3ca3216p+1", "0x1.1eda4058a5394p+3"),
        ("-0x1.aae0b82c3919fp+0", "0x1.cca3281bf0e40p+1"),
        ("0x1.3ed79265d766dp-2", "0x0.0p+0"),
    ]
    per_cell = [
        ("-0x1.36844a3ca3214p+1", "0x1.1eda4058a5394p+3"),
        ("-0x1.aae0b82c3919dp+0", "0x1.cca3281bf0e40p+1"),
        ("0x1.3ed79265d766dp-2", "0x0.0p+0"),
    ]
    assert [(z.real.hex(), z.imag.hex()) for z in res.roots] == pins
    for z, (re, im) in zip(res.roots, per_cell):
        was = complex(float.fromhex(re), float.fromhex(im))
        assert abs(z - was) <= 1e-12 * abs(was)
        assert abs(_det_per_point(mu, z)) < 1e-8


def test_root_scan_minima_read_libm_hypot(monkeypatch):
    """On this kernel two neighbouring grid cells have |det| within an ulp:
    np.hypot (libm, like abs(complex)) keeps one of them as a minimum and
    np.abs on the complex grid keeps both, so the Newton polish starts from
    another set of cells and the second root moves by one ulp. The kernel
    came from a seeded search that bisects b to where a grid minimum moves
    to the next cell."""
    a, b, tau = 1.2937664319530429, -0.23002966396407643, 1.4931066925650778
    mu = SignedMeasureRepr(1, ((0.0, [[b]]), (-tau, [[-a]])))
    res = np.linspace(-3.0, 3.0, 41)
    ims = np.linspace(0.0, 10.0, 31)
    starts = []

    def recording(mu, tau, lam):
        # a Newton iteration evaluates (lam + dl, lam - dl, lam) per minimum
        if np.ndim(lam) == 2 and np.shape(lam)[1] == 3:
            for z in lam[:, 2]:
                row = np.flatnonzero(ims == z.imag)
                col = np.flatnonzero(res == z.real)
                if row.size and col.size:
                    starts.append((int(row[0]), int(col[0])))
        return characteristic_det(mu, tau, lam)

    monkeypatch.setattr(continuous, "characteristic_det", recording)
    scan = continuous.characteristic_root_scan(mu, tau, n_re=41, n_im=31)
    assert sorted(set(starts)) == [(4, 20), (16, 14), (28, 11)]
    assert scan.verdict == "unstable"
    assert [(z.real.hex(), z.imag.hex()) for z in scan.roots] == [
        ("-0x1.5502f8032fd8bp+0", "0x1.2c7b3e48f6717p+3"),
        ("-0x1.de27c6d1b8b16p-1", "0x1.4ad98bb622d5ap+2"),
        ("0x1.222af63959021p-5", "0x1.32b46da6843cfp+0"),
    ]


def test_root_scan_evaluates_each_grid_in_one_call(monkeypatch):
    """Calls in order: the real axis, 31 bisection midpoints per call, the
    grid, one (k, 3) call per Newton iteration over the k minima still
    moving, and one check of |det| at the candidates; the second kernel
    has two real roots."""
    shapes = []

    def counting(mu, tau, lam):
        shapes.append(np.shape(lam))
        return characteristic_det(mu, tau, lam)

    monkeypatch.setattr(continuous, "characteristic_det", counting)
    n_re, n_im = 21, 11
    for a, tau, n_real in [(0.5, 1.0, 0), (0.1, 2.0, 2)]:
        shapes.clear()
        res = continuous.characteristic_root_scan(
            point_mass([[-a]], location=-tau), tau, n_re=n_re, n_im=n_im)
        assert res.verdict == "stable"
        assert sum(z.imag == 0 for z in res.roots) == n_real
        assert shapes[0] == (n_re,)
        grid_at = shapes.index((n_im, n_re))
        assert shapes.count((n_im, n_re)) == 1
        bisect = shapes[1:grid_at]
        assert set(bisect) <= {(2 ** quad.BISECT_LEVELS - 1,)}
        assert (len(bisect) > 0) == (n_real > 0)
        newton, check = shapes[grid_at + 1:-1], shapes[-1]
        ks = [k for k, three in newton]
        assert {three for _, three in newton} == {3}
        assert 0 < len(newton) <= 60 and ks == sorted(ks, reverse=True)
        assert len(check) == 1 and check[0] <= ks[0]


def bisect_root(fn, a: float, b: float, tol: float = 1e-12,
                max_iter: int = 200) -> float:
    """Bisection on a sign change of fn over [a, b], one fn call a step:
    the reference of quad.bisect_root_levels."""
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("no sign change on bracket")
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0 or (b - a) < tol:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


@pytest.mark.parametrize("levels", [1, 3, 5, 7])
def test_bisect_root_levels_walks_bisect_roots_midpoints(monkeypatch, levels):
    """Same root bits as bisect_root: a root it stops at by the width
    test, an exact zero at a dyadic midpoint, and tol = 0, where the walk
    runs into the 200-step cap (not a multiple of 3 or 7)."""
    from svlab.quad import bisect_root_levels

    monkeypatch.setattr(quad, "BISECT_LEVELS", levels)
    cases = [(lambda t: t ** 3 - 2.0, 0.5, 1.7, 1e-13, None),
             (lambda t: np.tanh(t - 0.3125), 0.0, 1.0, 1e-13, 4),
             (lambda t: (t > 1.0 / 3.0) - 0.5, 0.0, 1.0, 0.0, 200),
             (lambda t: 0.6 - np.exp(-t), -1.3, 2.9, 1e-9, None)]
    for fn, a, b, tol, steps in cases:
        calls, walked, evaluated = [], [], set()

        def one(t):
            walked.append(float(t).hex())
            return fn(t)

        def many(xs):
            calls.append(len(xs))
            evaluated.update(float(x).hex() for x in xs)
            return fn(xs)

        want = bisect_root(one, a, b, tol=tol)
        got = bisect_root_levels(many, a, b, fn(a), tol=tol)
        assert float(got).hex() == float(want).hex()
        # every midpoint bisect_root evaluates, with its bits, is evaluated
        assert set(walked[2:]) <= evaluated
        assert set(calls) == {2 ** levels - 1}
        if steps is not None:
            assert len(calls) == -(-steps // levels)
    assert bisect_root(cases[1][0], 0.0, 1.0, tol=1e-13) == 0.3125


def _root_scan_reference(mu, tau, re_range=(-3.0, 3.0), im_range=(0.0, 10.0),
                         n_re=121, n_im=101, det_tol=1e-8):
    """The scan one det Delta at a time: scalar bisection per sign change,
    Newton polish one minimum after the other, a scalar check each."""
    from numpy.lib.stride_tricks import sliding_window_view

    def F(lam):
        return characteristic_det(mu, tau, lam)

    res = np.linspace(re_range[0], re_range[1], n_re)
    ims = np.linspace(im_range[0], im_range[1], n_im)
    roots = []
    fre = F(res.astype(complex)).real
    for i in range(n_re):
        if fre[i] == 0.0:
            roots.append(complex(res[i], 0.0))
        elif i + 1 < n_re and fre[i] * fre[i + 1] < 0:
            x = bisect_root(lambda t: F(complex(t, 0.0)).real,
                            res[i], res[i + 1], tol=1e-13)
            roots.append(complex(x, 0.0))
    grid = np.empty((n_im, n_re), complex)
    grid.real = res
    grid.imag = ims[:, None]
    det = F(grid)
    absdet = np.hypot(det.real, det.imag)
    cell = complex(res[1] - res[0], ims[1] - ims[0])
    low = sliding_window_view(absdet, (3, 3)).min(axis=(2, 3))
    for a, b in np.argwhere(absdet[1:-1, 1:-1] == low) + 1:
        lam = complex(res[b], ims[a])
        for _ in range(60):
            dl = 1e-7 * (1.0 + abs(lam))
            f_up, f_down, f_lam = F(np.array([lam + dl, lam - dl, lam])).tolist()
            deriv = (f_up - f_down) / (2.0 * dl)
            if deriv == 0:
                break
            step = f_lam / deriv
            lam = lam - step
            if abs(step) < 1e-13 * (1.0 + abs(lam)):
                break
        inside = (re_range[0] - abs(cell.real) <= lam.real
                  <= re_range[1] + abs(cell.real)
                  and -abs(cell.imag) <= lam.imag
                  <= im_range[1] + abs(cell.imag))
        if inside and abs(F(lam)) < det_tol:
            roots.append(lam.conjugate() if lam.imag < 0 else lam)
    unique = []
    for lam in sorted(roots, key=lambda z: (z.real, z.imag)):
        if all(abs(lam - u) > 1e-6 for u in unique):
            unique.append(lam)
    return unique


def _scan_kernels():
    """Lambert-W kernels b delta_0 - a delta_{-tau}, two of them with two
    real roots each, and an atom at -tau plus a density on [-tau, 0] in 3
    to 100 cells."""
    rng = np.random.default_rng(11)
    kernels = {f"lambert-real-{k}": (point_mass([[-a]], location=-tau), tau)
               for k, (a, tau) in enumerate([(0.1, 2.0), (0.25, 1.0)])}
    for k in range(6):
        a, b, tau = rng.uniform(0.2, 2.5), rng.uniform(-1.0, 0.8), \
            rng.uniform(0.3, 1.5)
        kernels[f"lambert-{k}"] = (
            SignedMeasureRepr(1, ((0.0, [[b]]), (-tau, [[-a]]))), tau)
    for cells in (3, 7, 16, 40, 100):
        tau = rng.uniform(0.3, 1.5)
        step = tau / cells
        start = -(cells * step)
        edges = start + step * np.arange(cells)
        vals = rng.uniform(-1.5, 1.5) * np.cos(rng.uniform(0, 4) * edges)
        kernels[f"density-{cells}"] = (SignedMeasureRepr(
            1, ((-tau, [[-rng.uniform(0.2, 2.0)]]),),
            DensitySample(start, step, vals.reshape(-1, 1, 1))), tau)
    return kernels


@pytest.mark.parametrize("name", sorted(_scan_kernels()))
def test_root_scan_batches_keep_the_reference_bits(name):
    mu, tau = _scan_kernels()[name]
    got = characteristic_root_scan(mu, tau, n_re=41, n_im=31)
    want = _root_scan_reference(mu, tau, n_re=41, n_im=31)
    assert want
    assert [(z.real.hex(), z.imag.hex()) for z in got.roots] == \
        [(z.real.hex(), z.imag.hex()) for z in want]


@pytest.mark.parametrize("a,b,tau", [(2.0, 0.0, 1.0), (1.0, -0.5, 1.5),
                                     (0.8, 0.3, 2.0), (0.2, -0.3, 1.0)])
def test_root_scan_matches_lambert_w_branches(a, b, tau):
    """mu = b delta_0 - a delta_{-tau}: det Delta = lambda - b + a e^{-lambda tau}
    vanishes at b + W_k(-a tau e^{-b tau}) / tau, branch 0 rightmost."""
    mu = SignedMeasureRepr(1, atoms=((0.0, [[b]]), (-tau, [[-a]])))
    res = characteristic_root_scan(mu, tau)
    z = -a * tau * np.exp(-b * tau)
    branches = [b + complex(lambertw(z, k)) / tau for k in range(-10, 11)]
    inside = [lam for lam in branches
              if -3.0 <= lam.real <= 3.0 and 0.0 <= lam.imag <= 10.0]
    assert res.rightmost == pytest.approx(branches[10].real, abs=1e-9)
    for root in res.roots:
        assert min(abs(root - lam) for lam in inside) < 1e-9
    assert len(res.roots) == len(inside)


def test_root_scan_stores_a_lower_half_root_as_its_conjugate():
    """The rectangle reaches one cell (0.55) below the real axis, and Newton
    from the grid minimum lands on the lower member of the pair
    W_0(-0.4) and its conjugate: the scan reports the upper one."""
    res = characteristic_root_scan(point_mass([[-0.4]], location=-1.0), 1.0,
                                   im_range=(-1.0, 10.0), n_re=41, n_im=21)
    upper = complex(lambertw(-0.4, 0))
    assert upper.imag > 0
    assert len(res.roots) == 1
    assert abs(res.roots[0] - upper) < 1e-9


def test_root_scan_stable_case():
    res = characteristic_root_scan(point_mass([[-0.5]], location=-1.0), 1.0)
    assert res.verdict == "stable"
    # rightmost pair sits at lambertw(-0.5): real part ~ -0.794
    assert res.rightmost == pytest.approx(-0.7940236323446893, abs=1e-9)
    for root in res.roots:
        mu = point_mass([[-0.5]], location=-1.0)
        assert abs(characteristic_det(mu, 1.0, root)) < 1e-8


def test_root_scan_unstable_case():
    res = characteristic_root_scan(point_mass([[-2.0]], location=-1.0), 1.0)
    assert res.verdict == "unstable"
    # lambertw(-2.0) has positive real part ~ 0.1728: unstable regime
    assert res.rightmost == pytest.approx(0.17281600284, abs=1e-9)


def test_root_scan_real_root():
    # mu = -a delta_0 with a = 0.25 < 1/e: real root of lambda + 0.25 e^{-lambda}
    res = characteristic_root_scan(point_mass([[-0.25]], location=-1.0), 1.0)
    assert res.verdict == "stable"
    lam = res.rightmost
    assert abs(lam + 0.25 * np.exp(-lam)) < 1e-9


@pytest.mark.parametrize("b,verdict", [(3.0, "unstable"), (-3.0, "stable")])
def test_root_scan_reads_real_roots_on_both_edges(b, verdict):
    # det Delta(lambda) = lambda - b is exactly 0 at the first or last sample
    res = characteristic_root_scan(point_mass([[b]], 0.0), 1.0)
    assert res.roots == (complex(b, 0.0),)
    assert res.rightmost == b
    assert res.verdict == verdict


def test_root_scan_empty_region():
    res = characteristic_root_scan(point_mass([[-0.5]], location=-1.0), 1.0,
                                   re_range=(2.0, 3.0), im_range=(5.0, 6.0))
    assert res.verdict == "no-root-in-region"
    assert res.rightmost is None
