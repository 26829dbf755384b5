"""Rolling-window admissibility checks, the exceedance series, and the
exponential-filter equivalence."""

import json

import numpy as np
import pytest

from svlab import conditions, corpus
from svlab.conditions import (
    DIVERGENT, INCONCLUSIVE, SATISFIED, SUMMABLE, VIOLATED,
    diffusion_window_evidence, exceedance_partial_sums,
    exp_filter_equivalence, forcing_window_evidence,
    gaussian_exceedance_series, irregular_window_sums, profile_lp_evidence,
    unit_window_evidence, unit_windows, window_fading_evidence,
    window_integral, window_profiles)
from svlab.core import GridSpec


# window profiles ------------------------------------------------------------

def test_window_integral_zero():
    prof = window_integral(corpus.zero_f, 1.0, GridSpec(0.1, 5.0))
    np.testing.assert_array_equal(prof.values, np.zeros(51))


def test_window_integral_constant_width_two():
    prof = window_integral(lambda t: np.ones_like(t), 2.0, GridSpec(0.1, 5.0))
    np.testing.assert_allclose(prof.values, 2.0, atol=1e-12)
    assert prof.theta == 2.0


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_window_integral_spike_is_one_over_n(n):
    # each spike triangle carries area 1/n regardless of its height
    prof = window_integral(corpus.SpikeFamily(), 1.0, GridSpec(0.5, 12.0),
                           quad_step=1e-4)
    i = prof.grid.index_at(float(n))
    assert prof.values[i] == pytest.approx(1.0 / n, abs=1e-3)


def test_window_integral_rejects_nondividing_quad_step():
    with pytest.raises(ValueError, match="divide"):
        window_integral(corpus.zero_f, 1.0, GridSpec(0.1, 5.0),
                        quad_step=0.03)


def test_window_integral_additive():
    """profile(f1 + f2) = profile(f1) + profile(f2) up to round-off."""
    rng = np.random.default_rng(7)
    g = GridSpec(0.05, 8.0)
    for _ in range(5):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        f1 = lambda t, a=a: a * np.sin(t)
        f2 = lambda t, b=b: b * np.exp(-0.3 * t)
        both = window_integral(lambda t: f1(t) + f2(t), 1.5, g)
        p1 = window_integral(f1, 1.5, g)
        p2 = window_integral(f2, 1.5, g)
        np.testing.assert_allclose(both.values, p1.values + p2.values,
                                   atol=1e-10)


@pytest.mark.parametrize("h,T,quad_step", [
    (0.05, 8.0, None),
    (0.05, 8.0, 0.01),
    # 10 000 + 400 cells against a 4e6 // 500 = 8 000-cell chunk
    (0.01, 100.0, 2e-5),
])
def test_window_profiles_match_standalone_bytes(h, T, quad_step):
    """Slices of the shared lattice are bit-identical to one lattice per
    width: chunks are anchored at t = 0 and cumsum adds in sequence."""
    f = lambda t: np.sin(3.0 * t) * np.exp(-0.01 * t) + 0.1
    g = GridSpec(h, T)
    thetas = (0.5, 1.0, 2.0, 4.0)
    for prof, theta in zip(window_profiles(f, thetas, g, quad_step), thetas):
        alone = window_integral(f, theta, g, quad_step)
        assert prof.theta == alone.theta == theta
        assert prof.quad_step == alone.quad_step
        assert prof.values.tobytes() == alone.values.tobytes()


def _one_shot_lattice(f, n_cells, h, refine):
    """The lattice as one evaluation of f at every point and one cumsum per
    chunk: the reference of the sliced, support-aware lattice."""
    block = conditions.LATTICE_CHUNK // refine
    step = h / refine
    ref = np.empty(n_cells + 1)
    ref[0] = 0.0
    pos = 0
    while pos < n_cells:
        nb = min(block, n_cells - pos)
        t = (pos * refine + np.arange(nb * refine)) * step
        cs = np.cumsum(np.asarray(f(t), float)) * step
        ref[pos + 1: pos + nb + 1] = ref[pos] + cs[refine - 1::refine]
        pos += nb
    return ref


@pytest.mark.parametrize("name", ["osc(alpha=0.1,beta=0.5)",
                                  "sqrt(spike(beta=0.32))"])
def test_lattice_slices_keep_one_shot_chunk_bits(name):
    """Evaluating the integrand slice by slice into a reused buffer gives
    the bytes of one evaluation and one cumsum per chunk. The lattice spans
    two full chunks and a short third; every chunk ends in a partial
    slice."""
    f = corpus.resolve(name)
    h, refine = 0.01, 100
    n_cells = 2 * (conditions.LATTICE_CHUNK // refine) + 123
    assert conditions.LATTICE_CHUNK % conditions.LATTICE_SLICE != 0
    got = conditions._cumulative_on_lattice(f, n_cells, h, refine)
    assert got.tobytes() == _one_shot_lattice(f, n_cells, h, refine).tobytes()


@pytest.mark.parametrize("beta", [0.25, 0.4])
def test_support_lattice_keeps_dense_bits(beta):
    """sqrt(spike) evaluated only on its declared support, widened by two
    points, gives the bytes of evaluating it everywhere. Chunks of 350
    cells of 0.01 put a chunk edge at t = 3.5, the peak of spike 3, and
    slices of 2^16 points (0.057 time units) end inside every spike; the
    lattice spans two full chunks and a short third."""
    f = corpus.resolve(f"sqrt(spike(beta={beta}))")
    h, refine = 0.01, 11400
    block = conditions.LATTICE_CHUNK // refine
    n_cells = 2 * block + 123
    step = h / refine
    spikes = f.support(0.0, n_cells * h)
    chunk_edges = [block * h, 2 * block * h]
    per_chunk = block * refine // conditions.LATTICE_SLICE
    slice_edges = [(c * block * refine + k * conditions.LATTICE_SLICE) * step
                   for c in range(3) for k in range(1, per_chunk + 1)]
    assert any(lo < e < hi for e in chunk_edges for lo, hi in spikes)
    assert any(lo < e < hi for e in slice_edges for lo, hi in spikes)
    got = conditions._cumulative_on_lattice(f, n_cells, h, refine)
    assert got.tobytes() == _one_shot_lattice(f, n_cells, h, refine).tobytes()


@pytest.mark.parametrize("beta, k", [
    pytest.param(0.25, 26214, id="0.25"), pytest.param(0.4, 26214, id="0.4"),
    pytest.param(0.25, 10, id="0.25-step0.1"),
    pytest.param(0.4, 10, id="0.4-step0.1")])
def test_support_sampling_keeps_unit_window_and_filter_bits(beta, k):
    """unit_windows and exp_filter_equivalence read spike only on its
    support, with the bits of evaluating it everywhere. k = 26214 points
    per unit put the first slice edge at t = 2.50004, inside spike 2; at
    k = 10 the sample spans of spikes 2 and 3, each widened by two points,
    overlap and are merged."""
    sig = corpus.resolve(f"sqrt(spike(beta={beta}))")
    support = sig.support(0.0, 8.0)
    if k == 10:
        assert np.floor(support[1, 0] * k) - 2 <= \
            np.ceil(support[0, 1] * k) + 3
    else:
        edge = conditions.LATTICE_SLICE / k
        assert any(lo < edge < hi for lo, hi in support)
    sq = corpus.Square(sig)
    dense = np.asarray(sq(np.arange(8 * k) / k)).reshape(8, k).sum(axis=1) / k
    assert unit_windows(sq, 8, 1.0 / k).tobytes() == dense.tobytes()
    spike = corpus.SpikeFamily(beta)
    pair = exp_filter_equivalence(spike, 1.0, 0.5, 8, 1.0 / k)
    assert pair == exp_filter_equivalence(lambda t: spike(t), 1.0, 0.5, 8,
                                          1.0 / k)


def test_window_profiles_rejects_empty_widths():
    with pytest.raises(ValueError, match="at least one window width"):
        window_profiles(corpus.zero_f, (), GridSpec(0.1, 5.0))


class CountingSignal:
    """Wraps a signal and counts the time points it is evaluated at."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.f(t)


def test_multi_width_checks_evaluate_one_lattice():
    g = GridSpec(0.05, 16.0)
    sig = CountingSignal(corpus.ExpDecayFamily(1.0))
    forcing_window_evidence(sig, 2.0, g, thetas=(0.5, 1.0, 2.0, 4.0),
                            quad_step=0.01)
    n, max_m, refine = g.n_steps, g.snap(4.0), 5
    assert sig.points == (n + max_m) * refine

    sig = CountingSignal(corpus.OscFamily(0.1, 0.5))
    window_fading_evidence(sig, thetas=(0.5, 1.0, 2.0), step_h=1e-3)
    n, max_m = GridSpec(1e-3, 20.0).n_steps, 2000
    assert sig.points == n + max_m


class CountingSupportedSignal(CountingSignal):
    """A CountingSignal that declares the support of the signal it wraps."""

    def support(self, t0, t1):
        return corpus.support_of(self.f, t0, t1)


def test_sigma_high_check_evaluates_only_the_support():
    """The criterion 05 cond-sigma-high check reads sqrt(spike) on its
    support alone: under 2 % of the dense lattice."""
    sig = CountingSupportedSignal(corpus.resolve("sqrt(spike(beta=0.32))"))
    g = GridSpec(0.01, 512.0)
    rep = diffusion_window_evidence(sig, 4.0, g, quad_step=2e-5,
                                    checkpoint_times=(128.0, 256.0, 512.0))
    assert rep.verdict == SATISFIED
    dense = (g.n_steps + g.snap(4.0)) * 500
    assert sig.points == 233_228
    assert sig.points < 0.02 * dense


# L^p evidence on a profile --------------------------------------------------

def test_profile_lp_zero_satisfied():
    prof = window_integral(corpus.zero_f, 1.0, GridSpec(0.1, 32.0))
    assert profile_lp_evidence(prof, 2.0).verdict == SATISFIED


def test_profile_lp_constant_violated():
    prof = window_integral(corpus.ConstFamily(3.0), 1.0, GridSpec(0.1, 32.0))
    rep = profile_lp_evidence(prof, 2.0)
    assert rep.verdict == VIOLATED
    # the cumulative integral grows linearly, so doubling T doubles it
    assert rep.diagnostics["tail_ratio"] == pytest.approx(2.0, abs=0.05)


def test_profile_lp_needs_three_checkpoints():
    prof = window_integral(corpus.zero_f, 1.0, GridSpec(0.1, 32.0))
    rep = profile_lp_evidence(prof, 2.0, checkpoint_times=(16.0, 32.0))
    assert rep.verdict == INCONCLUSIVE
    assert rep.diagnostics["reason"] == "fewer than 3 checkpoints"


def test_profile_lp_rejects_small_exponent():
    prof = window_integral(corpus.zero_f, 1.0, GridSpec(0.1, 4.0))
    with pytest.raises(ValueError, match=">= 1"):
        profile_lp_evidence(prof, 0.5)


def test_oscillatory_windows_integrable_while_f_is_not():
    """The fast-oscillating signal with growing amplitude has divergent
    integral of f^2, yet its unit-window profile is square integrable."""
    f = corpus.OscFamily(0.1, 0.5)
    prof = window_integral(f, 1.0, GridSpec(1e-5, 16.0))
    rep = profile_lp_evidence(prof, 2.0, checkpoint_times=(4.0, 8.0, 16.0))
    assert rep.verdict == SATISFIED

    t = np.arange(0, 16.0, 1e-3)
    direct = np.cumsum(np.asarray(f(t)) ** 2) * 1e-3
    assert direct[-1] / direct[len(t) // 2 - 1] > 1.5


def test_theta_monotone_for_nonnegative_f():
    """For f >= 0, a pass at the wider window implies one at the narrower."""
    rng = np.random.default_rng(21)
    g = GridSpec(0.05, 32.0)
    for _ in range(6):
        a, b = rng.uniform(0.0, 3.0, size=2)
        f = lambda t, a=a, b=b: a * np.exp(-0.5 * t) + b * np.exp(-2.0 * t)
        wide = profile_lp_evidence(window_integral(f, 2.0, g), 2.0)
        narrow = profile_lp_evidence(window_integral(f, 0.5, g), 2.0)
        if wide.verdict == SATISFIED:
            assert narrow.verdict == SATISFIED


def test_forcing_window_evidence_aggregates_thetas():
    g = GridSpec(0.05, 16.0)
    rep = forcing_window_evidence(corpus.ExpDecayFamily(1.0), 2.0, g,
                                  thetas=(0.5, 1.0), quad_step=0.01)
    assert rep.condition_id == "forcing-window-lp"
    assert rep.verdict == SATISFIED
    per = rep.diagnostics["per_theta"]
    assert [e["theta"] for e in per] == [0.5, 1.0]
    assert all(e["verdict"] == SATISFIED for e in per)

    bad = forcing_window_evidence(corpus.ConstFamily(1.0), 2.0, g,
                                  thetas=(0.5, 1.0), quad_step=0.01)
    assert bad.verdict == VIOLATED


def test_diffusion_window_evidence_requires_p_at_least_two():
    with pytest.raises(ValueError, match="p >= 2"):
        diffusion_window_evidence(corpus.zero_f, 1.0, GridSpec(0.1, 8.0))


def test_diffusion_window_evidence_happy_path():
    rep = diffusion_window_evidence(corpus.ExpDecayFamily(1.0), 2.0,
                                    GridSpec(0.05, 16.0), thetas=(0.5, 1.0),
                                    quad_step=0.01)
    assert rep.condition_id == "diffusion-window-lp"
    assert rep.verdict == SATISFIED


# unit-window sequence evidence ----------------------------------------------

def test_unit_windows_constant():
    I = unit_windows(lambda t: np.ones_like(t), 8)
    np.testing.assert_allclose(I, 1.0, atol=1e-12)


def test_unit_window_evidence_zero_sigma():
    rep = unit_window_evidence(corpus.zero_f, 1.0, 64)
    assert rep.verdict == SATISFIED
    assert rep.diagnostics["checkpoint_values"][-1] == 0.0


def test_unit_window_evidence_constant_sigma_violated():
    rep = unit_window_evidence(corpus.ConstFamily(1.0), 1.0, 64)
    assert rep.verdict == VIOLATED
    assert rep.diagnostics["first_windows"][0] == pytest.approx(1.0)


def test_unit_window_evidence_sqrt_spike_p4():
    # sigma^2 = spike, so I_n = 1/n and the p/2 = 2 sums are Cauchy; the
    # late triangles are ~5e-4 wide and need a step below that to resolve
    sig = corpus.SqrtOf(corpus.SpikeFamily())
    rep = unit_window_evidence(sig, 4.0, 512, quad_step=1e-4)
    assert rep.verdict == SATISFIED
    assert rep.diagnostics["checkpoint_values"][-1] == pytest.approx(
        np.pi ** 2 / 6.0 - 1.0, abs=5e-3)


def test_unit_window_evidence_rejects_small_p():
    with pytest.raises(ValueError, match=">= 1"):
        unit_window_evidence(corpus.zero_f, 0.5, 16)


# exceedance series ----------------------------------------------------------

def test_exceedance_zero_sigma_all_sums_zero():
    rep = gaussian_exceedance_series(corpus.zero_f, n_windows=64)
    assert rep.verdict == SUMMABLE
    for entry in rep.diagnostics["per_eps"]:
        assert entry["partial_sums"] == [0.0, 0.0, 0.0, 0.0]


def test_exceedance_unit_windows_closed_form():
    rep = gaussian_exceedance_series(windows=np.ones(512))
    assert rep.verdict == DIVERGENT
    for entry in rep.diagnostics["per_eps"]:
        assert entry["verdict"] == DIVERGENT
        want = 512.0 * np.exp(-entry["eps"])
        assert abs(entry["partial_sums"][-1] - want) <= 1e-12


def test_exceedance_harmonic_windows_summable():
    n = np.arange(512)
    w = np.where(n >= 2, 1.0 / np.maximum(n, 1), 0.0)
    rep = gaussian_exceedance_series(windows=w)
    assert rep.verdict == SUMMABLE
    S = exceedance_partial_sums(w, 1.0)
    assert S[-1] - S[30] < 1e-6


def test_exceedance_rejects_nonpositive_eps():
    with pytest.raises(ValueError, match="positive"):
        gaussian_exceedance_series(windows=np.ones(8), eps_list=(0.1, 0.0))


def test_exceedance_sums_monotone_in_n_and_eps():
    rng = np.random.default_rng(3)
    w = rng.uniform(0.0, 2.0, size=200)
    lo = exceedance_partial_sums(w, 0.5)
    hi = exceedance_partial_sums(w, 2.0)
    assert np.all(np.diff(lo) >= 0.0)
    assert np.all(np.diff(hi) >= 0.0)
    assert np.all(lo >= hi)


def test_exceedance_zero_window_terms_vanish():
    S = exceedance_partial_sums(np.zeros(16), 0.1)
    np.testing.assert_array_equal(S, np.zeros(17))


# exponential-filter equivalence ---------------------------------------------

def test_exp_filter_zero_forcing():
    pair = exp_filter_equivalence(corpus.zero_f, 1.0, 0.5, 32)
    assert pair.integral_report.verdict == SUMMABLE
    assert pair.window_report.verdict == SUMMABLE
    assert pair.agree


def test_exp_filter_constant_forcing_diverges():
    pair = exp_filter_equivalence(corpus.ConstFamily(1.0), 1.0, 0.5, 64)
    assert pair.integral_report.verdict == DIVERGENT
    assert pair.window_report.verdict == DIVERGENT
    assert pair.agree


def test_exp_filter_geometric_windows_summable():
    pair = exp_filter_equivalence(corpus.GeometricWindowFamily(0.5), 1.0,
                                  0.5, 64)
    assert pair.integral_report.verdict == SUMMABLE
    assert pair.window_report.verdict == SUMMABLE
    assert pair.agree


def test_exp_filter_routes_agree_across_corpus():
    for name in ("zero", "const(c=1.0)", "geomwin(ratio=0.5)",
                 "spike(beta=0.32)"):
        f = corpus.resolve(name)
        for p in (0.4, 0.8):
            assert exp_filter_equivalence(f, 1.0, p, 64).agree, (name, p)


def test_exp_filter_rejects_negative_sample():
    with pytest.raises(ValueError, match="t = 2"):
        exp_filter_equivalence(lambda t: 1.0 - np.where(t >= 2.0, 2.0, 0.0),
                               1.0, 0.5, 8)


@pytest.mark.parametrize("p", [0.0, 1.0, 1.5])
def test_exp_filter_rejects_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match="0, 1"):
        exp_filter_equivalence(corpus.zero_f, 1.0, p, 8)


def test_exp_filter_rejects_nonpositive_beta():
    with pytest.raises(ValueError, match="beta"):
        exp_filter_equivalence(corpus.zero_f, 0.0, 0.5, 8)


# irregular windows ----------------------------------------------------------

def test_irregular_unit_spacing_recovers_unit_windows():
    bp = np.arange(11.0)
    wins, sums = irregular_window_sums(corpus.ConstFamily(1.0), bp,
                                       alpha=1.0, beta=1.0)
    np.testing.assert_allclose(wins, 1.0, atol=1e-12)
    np.testing.assert_allclose(sums, np.arange(11.0), atol=1e-10)


def test_irregular_zero_f():
    _, sums = irregular_window_sums(corpus.zero_f, np.arange(5.0),
                                    alpha=1.0, beta=1.0)
    np.testing.assert_array_equal(sums, np.zeros(5))


def test_irregular_first_breakpoint_must_be_zero():
    with pytest.raises(ValueError, match="first breakpoint"):
        irregular_window_sums(corpus.zero_f, [1.0, 2.0], alpha=1.0, beta=1.0)


def test_irregular_spacing_violation_names_index():
    with pytest.raises(ValueError, match="index 1"):
        irregular_window_sums(corpus.zero_f, [0.0, 0.5, 3.0],
                              alpha=0.5, beta=1.5)


def test_irregular_rejects_small_p():
    with pytest.raises(ValueError, match=">= 1"):
        irregular_window_sums(corpus.zero_f, [0.0, 1.0], 0.5,
                              alpha=1.0, beta=1.0)


def test_irregular_spike_alternating_spacings_cauchy():
    """Alternating 0.5 / 1.5 gaps over the spike: squared window sums
    settle, with each doubling of the horizon adding less than half the
    previous increment."""
    gaps = np.tile([0.5, 1.5], 20)
    bp = np.concatenate([[0.0], np.cumsum(gaps)])
    _, sums = irregular_window_sums(corpus.SpikeFamily(), bp, 2.0,
                                    alpha=0.5, beta=1.5)
    n = len(sums) - 1
    last = sums[-1] - sums[n // 2]
    prev = sums[n // 2] - sums[n // 4]
    assert last < 0.5 * prev
    assert last < 0.05


# fading windows -------------------------------------------------------------

def test_fading_zero_and_constant():
    assert window_fading_evidence(corpus.zero_f).verdict == SATISFIED
    rep = window_fading_evidence(corpus.ConstFamily(1.0))
    assert rep.verdict == VIOLATED
    # for constant f every window integral equals its width
    sups = [e["segment_sups"][-1] for e in rep.diagnostics["per_theta"]]
    np.testing.assert_allclose(sups, [0.5, 1.0, 2.0], atol=1e-6)


def test_fading_oscillatory_satisfied():
    rep = window_fading_evidence(corpus.OscFamily(0.1, 0.5))
    assert rep.verdict == SATISFIED
    assert all(e["segment_sups"][-1] < 1e-2
               for e in rep.diagnostics["per_theta"])


def test_fading_spike_inconclusive():
    # spike windows shrink like 1/n: well below the first segment but not
    # yet under the default tolerance by t = 20
    rep = window_fading_evidence(corpus.SpikeFamily())
    assert rep.verdict == INCONCLUSIVE


def test_fading_rejects_unordered_segments():
    with pytest.raises(ValueError, match="strictly increasing"):
        window_fading_evidence(corpus.zero_f, segment_times=(4.0, 4.0, 8.0))


def test_fading_rejects_segments_that_snap_to_one_node():
    # at step 2.5, times 1 and 2 both snap to node 0: the first segment
    # would be empty
    with pytest.raises(ValueError, match="distinct grid nodes"):
        conditions.segment_grid((1.0, 2.0, 3.0), 2.5)


def test_report_json_round_trip():
    rep = unit_window_evidence(corpus.ConstFamily(1.0), 1.0, 64)
    back = json.loads(rep.to_json())
    assert back["verdict"] == VIOLATED
    assert back["condition_id"] == "diffusion-unit-window-lp"
    assert back["checkpoints"] == [8, 16, 32, 64]
