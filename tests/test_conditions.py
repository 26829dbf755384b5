"""Rolling-window admissibility checks, the exceedance series, and the
exponential-filter equivalence."""

import json
import math

import numpy as np
import pytest

from svlab import conditions, corpus, evidence
from svlab.conditions import (
    DIVERGENT, INCONCLUSIVE, SATISFIED, SUMMABLE, VIOLATED,
    diffusion_window_evidence, exp_filter_equivalence, forcing_window_evidence,
    gaussian_exceedance_series, irregular_window_sums, profile_lp_evidence,
    unit_window_evidence, unit_windows, window_fading_evidence,
    window_integral, window_profiles)
from svlab.core import GridSpec, exp_scan


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


class EvenZeros:
    """-0.0 at the even sample indices of a lattice step, cos(7 t) - 0.2 at
    the odd ones; it declares no support, so the lattice samples it densely.
    Every slice and every chunk of the lattices below starts at an even
    index, so on a -0.0."""

    def __init__(self, step):
        self.step = step

    def __call__(self, t):
        t = np.asarray(t, float)
        odd = np.rint(t / self.step) % 2 == 1
        return np.where(odd, np.cos(7.0 * t) - 0.2, -0.0)


_WIDE = 3 * conditions.LATTICE_SLICE // 2


_OSC = "osc(alpha=0.1,beta=0.5)"


@pytest.mark.parametrize("name, refine, n_cells", [
    pytest.param(_OSC, 100, None, id=_OSC),
    pytest.param("sqrt(spike(beta=0.32))", 100, None,
                 id="sqrt(spike(beta=0.32))"),
    pytest.param(_OSC, 1, None, id="osc-refine1"),
    pytest.param(_OSC, 7, None, id="osc-refine7"),
    # one cell a slice, of more points than a slice: 40-cell chunks
    pytest.param(_OSC, _WIDE, 2 * (conditions.LATTICE_CHUNK // _WIDE) + 3,
                 id="osc-one-cell-slices"),
    pytest.param("even-zeros", 1, None, id="even-zeros-refine1"),
    pytest.param("even-zeros", 7, None, id="even-zeros-refine7")])
def test_lattice_slices_keep_one_shot_chunk_bits(name, refine, n_cells):
    """Sampling and summing a chunk slice by slice, the running sum carried
    into each slice's first sample, gives the bytes of one evaluation and
    one cumsum per chunk. The lattice spans two full chunks and a short
    third, at a point step of 1e-4; every chunk ends in a partial slice."""
    step = 1e-4
    h = refine * step
    f = EvenZeros(step) if name == "even-zeros" else corpus.resolve(name)
    block = conditions.LATTICE_CHUNK // refine
    if n_cells is None:
        n_cells = 2 * block + 123
    width = max(1, conditions.LATTICE_SLICE // refine)
    assert width == 1 or block % width != 0
    if name == "even-zeros":
        starts = np.array([c * block + k for c in range(3)
                           for k in range(0, block, width)]) * refine
        assert np.all(starts % 2 == 0)
        assert np.all(np.signbit(f(starts * step)))
    got = conditions._cumulative_on_lattice(f, n_cells, h, refine)
    assert got.tobytes() == _one_shot_lattice(f, n_cells, h, refine).tobytes()


def test_dense_lattice_holds_no_chunk_buffer():
    """A dense lattice of 2.1M points at refine 1 allocates F and a few
    slices; a whole-chunk buffer beside F would double that."""
    import tracemalloc

    f = corpus.OscFamily(0.1, 0.5)
    n_cells = 2_100_000
    conditions._cumulative_on_lattice(f, 1000, 1e-4, 1)
    tracemalloc.start()
    try:
        F = conditions._cumulative_on_lattice(f, n_cells, 1e-4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.nbytes == 8 * (n_cells + 1)
    assert peak - F.nbytes < 8 * 8 * conditions.LATTICE_SLICE


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
    step = 1.0 / k
    dense = np.asarray(sq(np.arange(8 * k) * step)).reshape(8, k).sum(axis=1) \
        * step
    assert unit_windows(sq, 8, 1.0 / k).tobytes() == dense.tobytes()
    spike = corpus.SpikeFamily(beta)
    pair = exp_filter_equivalence(spike, 1.0, 0.5, 8, 1.0 / k)
    assert pair == exp_filter_equivalence(lambda t: spike(t), 1.0, 0.5, 8,
                                          1.0 / k)


class SignedBumps:
    """A signed integrand that declares its support: -0.0 on [0, 0.05),
    cos(7 t) - 0.2 on the rest of [0, 0.2) and on every (n + 0.1, n + 0.9),
    n >= 1, save for runs of exact -0.0 inside them; -0.0 off the support."""

    def __call__(self, t):
        t = np.asarray(t, float)
        frac = t - np.floor(t)
        on = ((t >= 0.05) & (t < 0.2)) | \
            ((t >= 1.0) & (frac > 0.1) & (frac < 0.9))
        on &= np.floor(t * 50.0) % 7 != 3
        return np.where(on, np.cos(7.0 * t) - 0.2, -0.0)

    def support(self, t0, t1):
        n = np.arange(max(1, int(np.floor(t0))), max(1, int(np.ceil(t1))))
        iv = np.column_stack([n + 0.1, n + 0.9])
        if t0 < 0.2:
            iv = np.vstack([[0.0, 0.2], iv])
        return iv


@pytest.mark.parametrize("h, refine, n_cells", [
    (0.01, 1, 1000), (0.01, 7, 1000),
    # two full chunks of 4e6 // 7 cells and a short third; both chunk
    # edges, t = 57.14 and 114.29, fall inside a bump
    (1e-4, 7, 2 * (conditions.LATTICE_CHUNK // 7) + 123)])
def test_support_lattice_keeps_signed_bits(h, refine, n_cells):
    """Summing only the support keeps the bytes of summing every point for
    a signed integrand with -0.0 values: the chunk sums differ at most in
    the sign of a zero, and F, never -0.0, absorbs it."""
    f = SignedBumps()
    assert f(np.array([0.0]))[0] == 0.0 and np.signbit(f(np.array([0.0]))[0])
    block = conditions.LATTICE_CHUNK // refine
    edges = [c * block * h for c in range(1, n_cells // block + 1)]
    assert all(0.1 < e % 1.0 < 0.9 for e in edges)
    got = conditions._cumulative_on_lattice(f, n_cells, h, refine)
    ref = _one_shot_lattice(f, n_cells, h, refine)
    assert np.any(np.diff(ref) < 0) and np.any(np.diff(ref) > 0)
    assert got.tobytes() == ref.tobytes()


def test_support_indices_are_merged_and_clipped_to_the_chunk():
    # each interval is widened by two points below and three above, then
    # the overlapping ones are merged and all are clipped to the chunk
    support = [(1.5, 1.8), (1.9, 2.2), (4.45, 4.55), (9.0, 9.5)]
    np.testing.assert_array_equal(
        conditions._support_indices(support, 10, 50, 0.1),
        np.r_[3:15, 32:39])
    assert conditions._support_indices(np.empty((0, 2)), 0, 50, 0.1).size == 0


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

def _blocked_pairwise_sum(terms, stop):
    """The sum of terms[:stop] by the checkpoint rule: the whole
    PROFILE_BLOCK blocks anchored at 0 below stop, each np.add.reduce'd and
    added in order, plus the np.add.reduce of the stop's partial block."""
    B = conditions.PROFILE_BLOCK
    whole = stop - stop % B
    total = 0.0
    for a in range(0, whole, B):
        total += np.add.reduce(terms[a:a + B])
    return total + np.add.reduce(terms[whole:stop])


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 2.5])
def test_streamed_lp_sums_keep_whole_array_bits(p):
    """The checkpoint sums, read off PROFILE_BLOCK blocks of a profile that
    is never held whole, equal the blocked pairwise sums of the whole
    |profile|^p array bit for bit: at 0, at n, on a block edge and off the
    block edges of a lattice of more than three blocks. The sum at n does
    not depend on the other checkpoints requested."""
    B = conditions.PROFILE_BLOCK
    n, m, h = 3 * B + 1000, 250, 0.01
    g = GridSpec(h, n * h)
    assert g.n_steps == n
    F = np.cumsum(np.random.default_rng(3).standard_normal(n + m + 1))
    prof = conditions.WindowProfile(theta=m * h, grid=g, lattice=F, width=m,
                                    quad_step=h)
    cps = [0, B - 7, B, 2 * B + 1, 3 * B + 11, n]
    rep = profile_lp_evidence(prof, p, checkpoint_times=[c * h for c in cps])
    terms = np.abs(F[m:m + n + 1] - F[:n + 1]) ** p
    ref = [_blocked_pairwise_sum(terms, c) * h for c in cps]
    got = rep.diagnostics["checkpoint_values"]
    assert np.array(got).tobytes() == np.array(ref).tobytes()
    alone = profile_lp_evidence(prof, p, checkpoint_times=[n * h])
    assert np.array(alone.diagnostics["checkpoint_values"]).tobytes() == \
        np.array(ref[-1:]).tobytes()
    assert prof.values.tobytes() == (F[m:m + n + 1] - F[:n + 1]).tobytes()


@pytest.mark.parametrize("p", [0.4, 0.8])
def test_exp_filter_sums_are_blocked_pairwise_sums(p):
    """The integral route of exp_filter_equivalence reads the left-Riemann
    sums of v^p by the same blocked pairwise rule; its checkpoints 16, 32
    and 64 (80 000, 160 000 and 320 000 points) fall inside blocks."""
    f = corpus.resolve("geomwin(ratio=0.5)")
    beta, horizon, k = 1.0, 64, 5000
    h = 1.0 / k
    pair = exp_filter_equivalence(f, beta, p, horizon, h)
    decay = np.exp(-beta * h)
    fv = np.asarray(f(np.arange(horizon * k) * h), float)
    v = exp_scan(0.0, (1.0 - decay) / beta * fv, decay)
    stops = [c * k for c in (16, 32, 64)]
    assert all(s % conditions.PROFILE_BLOCK for s in stops)
    ref = [_blocked_pairwise_sum(v[:horizon * k] ** p, s) * h for s in stops]
    got = pair.integral_report.diagnostics["checkpoint_values"]
    assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_series_checkpoint_sums_are_blocked_pairwise_sums():
    """The series checks read their checkpoints by the same rule: the sums
    of unit_window_evidence, of gaussian_exceedance_series and of the
    lemma's window route equal the blocked pairwise sums of their terms bit
    for bit, past the first PROFILE_BLOCK too (40 000 windows at quad_step
    1), and a checkpoint's sum does not depend on the other checkpoints."""
    B = conditions.PROFILE_BLOCK
    n, p = 40_000, 1.5
    sigma = lambda t: 1.0 / np.sqrt(1.0 + 0.01 * t) + 0.3 * np.sin(t) ** 2
    cps = [1000, B - 5, B, B + 7, n]
    I = unit_windows(corpus.Square(sigma), n, 1.0)

    def sums(terms, stops):
        return np.array([_blocked_pairwise_sum(terms, c) for c in stops])

    rep = unit_window_evidence(sigma, p, n, 1.0, cps)
    got = np.array(rep.diagnostics["checkpoint_values"])
    assert got.tobytes() == sums(I ** (p / 2.0), cps).tobytes()
    alone = unit_window_evidence(sigma, p, n, 1.0, [n])
    assert alone.diagnostics["checkpoint_values"] == [got[-1]]

    rep = gaussian_exceedance_series(sigma, (0.1, 1.0), n, quad_step=1.0,
                                     checkpoints=cps)
    for entry in rep.diagnostics["per_eps"]:
        terms = np.sqrt(I) * np.exp(-entry["eps"] / I)
        got = np.array(entry["partial_sums"])
        assert got.tobytes() == sums(terms, cps).tobytes()
        alone = gaussian_exceedance_series(sigma, (entry["eps"],), n,
                                           quad_step=1.0, checkpoints=[n])
        assert alone.diagnostics["per_eps"][0]["partial_sums"] == [got[-1]]

    f = lambda t: 1.0 + np.cos(0.5 * t)
    pair = exp_filter_equivalence(f, 1.0, 0.6, n, 1.0)
    stops = evidence.default_checkpoints(n)
    assert stops[-1] > B
    windows = np.asarray(f(np.arange(n) * 1.0), float)
    got = pair.window_report.diagnostics["checkpoint_values"]
    assert np.array(got).tobytes() == sums(windows ** 0.6, stops).tobytes()


def test_lp_checkpoint_sums_meet_the_pairwise_error_bound():
    """Checkpoint sums of |profile|^p stay within 1e-14 relative of
    math.fsum of the same terms. The bound comes before the measurement:
    for non-negative terms the blocked pairwise sum errs by at most about
    (32 + n / PROFILE_BLOCK) u, 5e-15 at n = 400 000 and u = 2^-53,
    against up to n u for one sequential cumsum, which breaks the bound on
    at least one of these cases."""
    h, T, bound = 1e-5, 4.0, 1e-14
    g = GridSpec(h, T)
    cps = [1.0, 2.0, 4.0]
    worst_old = 0.0
    for name in ("const(c=0.7)", "osc(alpha=0.1,beta=0.5)"):
        for prof in window_profiles(corpus.resolve(name), (0.5, 1.0), g):
            a = np.abs(prof.values)
            for p in (2.0, 4.0):
                terms = a ** p
                seq = np.cumsum(terms)
                listed = terms.tolist()
                rep = profile_lp_evidence(prof, p, cps)
                for t, got in zip(cps, rep.diagnostics["checkpoint_values"]):
                    c = g.index_at(t)
                    exact = math.fsum(listed[:c]) * h
                    assert abs(got - exact) <= bound * exact, \
                        (name, prof.theta, p, t)
                    worst_old = max(worst_old,
                                    abs(seq[c - 1] * h - exact) / exact)
    assert worst_old > bound


def test_window_lp_rows_carry_tail_margins():
    """Each width row carries the tail rule's bar and margin, from the one
    rule in evidence; the sums of a profile report them too."""
    rep = forcing_window_evidence(corpus.ConstFamily(1.0), 2.0,
                                  GridSpec(0.1, 32.0), thetas=(0.5, 1.0))
    for row in rep.diagnostics["per_theta"]:
        s_half, s_full = row["checkpoint_values"][-2:]
        bar = 1e-2 * s_half + 1e-8
        assert row["tail_bar"] == bar
        assert row["tail_margin"] == (s_full - s_half) - bar > 0
        assert row["verdict"] == VIOLATED
    prof = window_integral(corpus.ConstFamily(1.0), 1.0, GridSpec(0.1, 32.0))
    d = profile_lp_evidence(prof, 2.0).diagnostics
    assert (d["tail_bar"], d["tail_margin"]) == \
        (rep.diagnostics["per_theta"][1]["tail_bar"],
         rep.diagnostics["per_theta"][1]["tail_margin"])
    few = forcing_window_evidence(corpus.ConstFamily(1.0), 2.0,
                                  GridSpec(0.1, 32.0), thetas=(0.5,),
                                  checkpoint_times=(16.0, 32.0))
    assert "tail_margin" not in few.diagnostics["per_theta"][0]


def test_streamed_fading_sups_keep_whole_array_max():
    """Segment suprema taken block by block equal a max over the whole
    profile, on segments that straddle the block edges."""
    B = conditions.PROFILE_BLOCK
    h = 1e-4
    seg = (1.0, 4.0, 7.5, 11.0)
    assert all(int(seg[0] / h) < k * B < int(seg[-1] / h) for k in (1, 2, 3))
    f = lambda t: np.sin(5.0 * t) * np.exp(-0.2 * t) + 0.01 * np.cos(37.0 * t)
    rep = window_fading_evidence(f, (0.5, 1.3), seg, step_h=h)
    grid, idx = conditions.segment_grid(seg, h)
    for row, prof in zip(rep.diagnostics["per_theta"],
                         window_profiles(f, (0.5, 1.3), grid)):
        a = np.abs(prof.values)
        assert row["segment_sups"] == [float(a[i0:i1].max())
                                       for i0, i1 in zip(idx, idx[1:])]


def test_profile_lp_zero_satisfied():
    prof = window_integral(corpus.zero_f, 1.0, GridSpec(0.1, 32.0))
    rep = profile_lp_evidence(prof, 2.0)
    assert rep.verdict == SATISFIED
    # 0/0 reads 1.0, as in the verdict's own ratio, so the report is JSON
    assert rep.diagnostics["tail_ratio"] == 1.0
    json.dumps(rep.to_dict(), allow_nan=False)


def test_tail_ratio_is_infinite_only_from_a_zero_half_sum():
    assert evidence.tail_ratio(0.0, 0.0) == 1.0
    assert evidence.tail_ratio(0.0, 2.0) == np.inf
    assert evidence.tail_ratio(2.0, 3.0) == 1.5


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


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_window_checks_reject_non_finite_exponents(p):
    """nan and inf pass a bare p < 1 (and p < 2) guard: |0.5|^inf = 0 read
    satisfied, 1^nan = 1 read violated. Each check refuses them by the one
    exponent rule of core."""
    g = GridSpec(0.1, 8.0)
    one = corpus.ConstFamily(1.0)
    calls = [
        lambda: forcing_window_evidence(one, p, g, thetas=(0.5,)),
        lambda: diffusion_window_evidence(one, p, g, thetas=(0.5,)),
        lambda: profile_lp_evidence(window_integral(one, 0.5, g), p),
        lambda: unit_window_evidence(one, p, 64),
        lambda: irregular_window_sums(one, [0.0, 1.0, 2.0], p,
                                      alpha=1.0, beta=1.0)]
    for call in calls:
        with pytest.raises(ValueError, match="finite positive"):
            call()


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
    tail = gaussian_exceedance_series(windows=w, eps_list=(1.0,),
                                      checkpoints=(30, 512))
    S = tail.diagnostics["per_eps"][0]["partial_sums"]
    assert S[1] - S[0] < 1e-6


def test_exceedance_rejects_nonpositive_eps():
    with pytest.raises(ValueError, match="positive"):
        gaussian_exceedance_series(windows=np.ones(8), eps_list=(0.1, 0.0))


def test_exceedance_sums_monotone_in_n_and_eps():
    # at checkpoints far apart against round-off; a larger eps gives a
    # sum no larger at every checkpoint
    rng = np.random.default_rng(3)
    w = rng.uniform(0.0, 2.0, size=200)
    rep = gaussian_exceedance_series(windows=w, eps_list=(0.5, 2.0),
                                     checkpoints=(1, 25, 50, 100, 200))
    lo, hi = [np.array(e["partial_sums"]) for e in rep.diagnostics["per_eps"]]
    assert np.all(np.diff(lo) >= 0.0)
    assert np.all(np.diff(hi) >= 0.0)
    assert np.all(lo >= hi)


def test_exceedance_zero_window_terms_vanish():
    rep = gaussian_exceedance_series(windows=np.zeros(16),
                                     checkpoints=(1, 2, 4, 8, 16))
    for entry in rep.diagnostics["per_eps"]:
        assert entry["partial_sums"] == [0.0] * 5


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
    np.testing.assert_allclose(sups, [0.5, 1.0, 2.0, 4.0], atol=1e-6)


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
