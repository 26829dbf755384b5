"""The built-in perturbation families and their closed-form cross-checks."""

import numpy as np
import pytest

from svlab import corpus
from svlab.corpus import (ConstFamily, ExpDecayFamily, GeometricWindowFamily,
                          OscFamily, SpikeFamily, SqrtOf, Square, resolve,
                          support_of, zero_f)
from svlab.quad import bisect_root_levels, trapezoid_refined


# declared supports -----------------------------------------------------------

def test_support_declarers_are_the_tested_ones():
    declare = {name for name, obj in vars(corpus).items()
               if isinstance(obj, type) and hasattr(obj, "support")}
    assert declare == {"SpikeFamily", "SqrtOf", "Square"}


@pytest.mark.parametrize("f", [
    SpikeFamily(0.25), SpikeFamily(0.4), resolve("sqrt(spike(beta=0.32))"),
    Square(resolve("sqrt(spike(beta=0.32))"))], ids=repr)
@pytest.mark.parametrize("t0,t1", [(0.0, 64.0), (499.5, 501.5)])
def test_declared_support_is_exactly_zero_off_it(f, t0, t1):
    """On a dense sample (step 1e-5) f is exactly 0.0 off the open
    intervals its support declares, and positive somewhere in each."""
    t = t0 + 1e-5 * np.arange(int(round((t1 - t0) / 1e-5)))
    iv = f.support(t0, t1)
    assert iv.shape[1] == 2 and len(iv) > 0
    assert np.all(iv[:, 0] < iv[:, 1]) and np.all(iv[1:, 0] > iv[:-1, 1])
    assert iv[0, 1] > t0 and iv[-1, 0] < t1
    k = np.searchsorted(iv[:, 0], t) - 1
    inside = (k >= 0) & (t < iv[np.maximum(k, 0), 1])
    vals = np.asarray(f(t))
    assert np.all(vals[~inside] == 0.0)
    assert set(k[inside & (vals > 0)].tolist()) == set(range(len(iv)))


def test_families_without_support_read_as_anywhere():
    for f in (OscFamily(), ConstFamily(0.0), GeometricWindowFamily(),
              ExpDecayFamily(), zero_f, lambda t: t,
              SqrtOf(ConstFamily(1.0)), Square(OscFamily())):
        assert support_of(f, 0.0, 8.0) is None
    assert support_of(SpikeFamily(), 0.0, 2.0).shape == (0, 2)


# spike train ----------------------------------------------------------------

def _spike_reference(g: SpikeFamily, t):
    """The spike by its closed form at every point of t at once: a_n,
    n^beta and both slopes over the whole array, then masked."""
    t = np.asarray(t, float)
    if np.any(t < 0):
        raise ValueError("spike family is defined on t >= 0")
    n = np.floor(t).astype(int)
    live = n >= 2
    nf = np.where(live, n, 2)
    frac = t - n
    a_n = g.a(nf)
    h_n = g.height(nf)
    half_w = 0.5 - a_n
    rising = live & (frac > a_n) & (frac <= 0.5)
    falling = live & (frac > 0.5) & (frac < 1.0 - a_n)
    out = np.zeros_like(t, dtype=float)
    out[rising] = (h_n * (frac - a_n) / half_w)[rising]
    out[falling] = (h_n * (1.0 - a_n - frac) / half_w)[falling]
    if out.shape == ():
        return float(out)
    return out


def _spike_times():
    rng = np.random.default_rng(20240710)
    n = np.arange(1, 400)
    ends = SpikeFamily(0.32).a(n)
    return {
        "grid": np.arange(320_001) * 1e-4,
        "unsorted": rng.uniform(0.0, 300.0, 50_000),
        "matrix": rng.uniform(0.0, 40.0, (60, 70)),
        "head-and-integers": np.r_[np.linspace(0.0, 2.0, 2001),
                                   np.arange(0.0, 400.0), 1.999999999],
        "support-ends": np.r_[n + ends, n + (1.0 - ends),
                              np.nextafter(n + ends, np.inf),
                              np.nextafter(n + (1.0 - ends), -np.inf)],
        "nan-inf": np.array([3.25, np.nan, 7.5, np.inf, 2.0, np.nan]),
        "huge": np.array([4.5, 1e9 + 0.25, 2.0 ** 52 + 0.5, 2.0 ** 62, 6.5]),
        "empty": np.empty(0),
    }


@pytest.mark.parametrize("beta", [0.32, 0.25, 0.5, 1.0, 2])
@pytest.mark.parametrize("case", list(_spike_times()))
def test_spike_has_the_bits_of_the_closed_form_everywhere(beta, case):
    """a_n once per unit interval and the slopes only where the spike is
    nonzero give the bytes of the closed form over every point; a huge t
    does not make a table of size max(t)."""
    g = SpikeFamily(beta)
    t = _spike_times()[case]
    # the reference divides by 0.5 - a_n = 0 at n = 2^62
    with np.errstate(invalid="ignore", divide="ignore"):
        got, want = g(t), _spike_reference(g, t)
    assert got.shape == want.shape == t.shape
    assert got.tobytes() == want.tobytes()


def test_spike_scalar_times_give_floats():
    g = SpikeFamily()
    for x in (0.0, 1.5, 2.0, 3.0, 4.5, 7.25, np.float64(9.9), np.array(5.6),
              float(g.breakpoints(5)[0]), np.nan, np.inf):
        with np.errstate(invalid="ignore"):
            got, want = g(x), _spike_reference(g, x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_spike_evaluation_holds_few_arrays_of_its_input():
    """Under six arrays of the input's length at once, against about
    eight when a_n, n^beta and both slopes are formed everywhere."""
    import tracemalloc

    g = SpikeFamily()
    t = np.arange(320_000) * 1e-4
    g(t[:100])
    tracemalloc.start()
    try:
        g(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * t.nbytes


def test_spike_zero_head_and_dead_zones():
    g = SpikeFamily()
    t = np.linspace(0.0, 2.0, 101)
    np.testing.assert_array_equal(g(t), np.zeros(101))
    # flat zones away from the triangle on [5, 6]
    a5 = float(g.a(5))
    flat = np.array([5.0, 5.0 + 0.5 * a5, 6.0 - 0.5 * a5, 6.0])
    np.testing.assert_array_equal(g(flat), np.zeros(4))


def test_spike_peak_hits_height():
    g = SpikeFamily()
    assert g(4.5) == pytest.approx(4.0 ** 0.32, rel=1e-14)
    assert isinstance(g(4.5), float)


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_spike_branch_boundaries_continuous(n):
    g = SpikeFamily()
    lo, mid, hi = g.breakpoints(n)
    # boundary points take the zero branch; one-sided limits agree
    assert abs(g(lo)) < 1e-9
    assert abs(g(hi)) < 1e-9
    d = 1e-9
    assert abs(g(lo + d)) < 1e-3
    assert abs(g(hi - d)) < 1e-3
    assert g(mid) == pytest.approx(float(g.height(n)), rel=1e-12)


def test_spike_nonnegative_everywhere():
    g = SpikeFamily()
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 200.0, size=5000)
    assert np.all(g(t) >= 0.0)


def test_spike_rejects_negative_time():
    with pytest.raises(ValueError, match="t >= 0"):
        SpikeFamily()(-0.5)


def test_spike_rejects_bad_beta():
    with pytest.raises(ValueError, match="positive"):
        SpikeFamily(0.0)


@pytest.mark.parametrize("n", [2, 3, 10, 50, 100])
def test_spike_window_quadrature_matches_closed_form(n):
    # trapezoid refined with the slope breaks is exact for the triangle
    g = SpikeFamily()
    assert abs(g.window_quadrature(n) - 1.0 / n) < 1e-6


def truncated_mass_exact(g: SpikeFamily, n: int) -> float:
    """Closed-form mass of the part of spike n above level 1."""
    if n < 2:
        raise ValueError("spikes start at n = 2")
    if float(g.height(n)) <= 1.0:
        raise ValueError(f"spike {n} never exceeds level 1")
    b = g.beta
    return 1.0 / n - 2.0 / n ** (b + 1.0) + 1.0 / n ** (2.0 * b + 1.0)


def truncated_mass_quadrature(g: SpikeFamily, n: int,
                              h: float = 1e-4) -> float:
    """Mass of spike n above level 1 with the crossings located by
    bisection on the evaluated function (no use of the closed-form crossing
    formula)."""
    lo, mid, hi = g.breakpoints(n)
    excess = lambda s: np.asarray(g(s), float) - 1.0
    c1 = bisect_root_levels(excess, lo, mid, excess(lo), tol=1e-14)
    c2 = bisect_root_levels(excess, mid, hi, excess(mid), tol=1e-14)
    return trapezoid_refined(excess, c1, c2, h, (mid,))


def test_spike_truncated_mass_closed_form():
    g = SpikeFamily()
    want = 0.1 - 2.0 / 10.0 ** 1.32 + 1.0 / 10.0 ** 1.64
    assert truncated_mass_exact(g, 10) == pytest.approx(want, rel=1e-15)
    assert truncated_mass_exact(g, 10) == \
        pytest.approx(0.027182658063150067)
    with pytest.raises(ValueError, match="n = 2"):
        truncated_mass_exact(g, 1)


@pytest.mark.parametrize("n", [2, 5, 10, 50])
def test_spike_truncated_mass_dual_route(n):
    """Bisection crossings + quadrature of the excess against the closed
    form, with no shared formulas between the two routes."""
    g = SpikeFamily()
    gap = abs(truncated_mass_quadrature(g, n) - truncated_mass_exact(g, n))
    assert gap < 1e-9


def test_spike_truncated_mass_sums_diverge():
    # the excess-mass series is a divergent minorant: about 1/n per term,
    # so every doubling of N adds a fixed chunk
    g = SpikeFamily()
    S = np.cumsum([truncated_mass_exact(g, n) for n in range(2, 1025)])
    sums = {N: S[N - 2] for N in (128, 256, 512, 1024)}
    assert sums[256] - sums[128] > 0.3
    assert sums[512] - sums[256] > 0.3
    assert sums[1024] - sums[512] > 0.3


def test_spike_square_integral_keeps_growing():
    g = SpikeFamily()
    vals = [g.square_integral_to(T) for T in (32, 64, 128)]
    assert vals[1] / vals[0] > 1.1
    assert vals[2] / vals[1] > 1.1


# oscillatory family ---------------------------------------------------------

def test_osc_value_at_zero():
    assert OscFamily()(0.0) == pytest.approx(np.sin(1.0), rel=1e-15)


def test_osc_vectorized():
    f = OscFamily(0.1, 0.5)
    t = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(
        f(t), np.exp(0.1 * t) * np.sin(np.exp(0.5 * t)), rtol=1e-14)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.0, 0.5), (0.6, 0.5)])
def test_osc_rejects_bad_parameters(alpha, beta):
    with pytest.raises(ValueError, match="0 < alpha < beta"):
        OscFamily(alpha, beta)


def test_osc_refuses_overflowing_phase():
    with pytest.raises(ValueError, match="overflow"):
        OscFamily(0.1, 0.5)(1500.0)


# remaining families ---------------------------------------------------------

def test_geometric_window_family():
    f = GeometricWindowFamily(0.5)
    assert f(0.0) == 1.0
    assert f(2.5) == 0.25
    np.testing.assert_allclose(f(np.array([0.5, 1.5, 3.0])),
                               [1.0, 0.5, 0.125])
    with pytest.raises(ValueError, match="t >= 0"):
        f(-1.0)


@pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5])
def test_geometric_window_rejects_bad_ratio(ratio):
    with pytest.raises(ValueError, match="ratio"):
        GeometricWindowFamily(ratio)


def test_const_and_exp_decay():
    np.testing.assert_array_equal(ConstFamily(2.0)(np.zeros(3)),
                                  np.full(3, 2.0))
    assert ExpDecayFamily(1.0)(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_zero_f_keeps_shape():
    assert zero_f(3.0) == 0.0
    np.testing.assert_array_equal(zero_f(np.ones((2, 3))), np.zeros((2, 3)))


def test_sqrt_of_squares_back():
    g = SpikeFamily()
    s = SqrtOf(g)
    t = np.linspace(2.0, 12.0, 400)
    np.testing.assert_allclose(np.asarray(s(t)) ** 2, g(t), atol=1e-12)


# name resolution ------------------------------------------------------------

def test_resolve_round_trips():
    assert resolve("zero") is zero_f
    assert resolve("spike(beta=0.5)") == SpikeFamily(0.5)
    assert resolve("osc(alpha=0.2,beta=0.6)") == OscFamily(0.2, 0.6)
    assert resolve("const(c=2.0)") == ConstFamily(2.0)
    assert resolve("geomwin(ratio=0.25)") == GeometricWindowFamily(0.25)
    assert resolve("exp_decay(rate=2.0)") == ExpDecayFamily(2.0)
    assert resolve(" sqrt(spike(beta=0.32)) ") == SqrtOf(SpikeFamily(0.32))


def test_resolve_defaults_apply():
    assert resolve("spike()") == SpikeFamily()
    assert resolve("osc()") == OscFamily()


def test_resolve_unknown_name():
    with pytest.raises(ValueError, match="unknown corpus function 'nope'"):
        resolve("nope(x=1)")
    with pytest.raises(ValueError, match="unknown corpus function"):
        resolve("garbage")


def test_resolve_requires_keyword_arguments():
    with pytest.raises(ValueError, match="key=value"):
        resolve("const(2.0)")


def test_resolve_keeps_ints_and_reads_the_grammar_not_the_spelling():
    assert type(resolve("spike(beta=1)").beta) is int
    assert type(resolve("const(c=-2)").c) is int
    assert resolve("spike (beta=0.32)") == SpikeFamily(0.32)
    assert resolve("sqrt( sqrt(zero) )") == SqrtOf(SqrtOf(zero_f))
    assert resolve("osc(beta=0.6, alpha=0.2,)") == OscFamily(0.2, 0.6)


@pytest.mark.parametrize("name, message", [
    ("const(c=None)", "const argument c must be a finite number, got None"),
    ("const(c=True)", "const argument c must be a finite number, got True"),
    ("const(c=1j)", "const argument c must be a finite number, got 1j"),
    ("const(c=[1.0])", "const argument c must be a finite number"),
    ("const(c=nan)", "const argument c must be a finite number, got nan"),
    ("const(c=2 * 3)", "const argument c must be a finite number"),
    ("const(c=1" + "0" * 400 + ")", "const argument c must be a finite"),
    ("exp_decay(rate='x')", "exp_decay argument rate must be a finite"),
    ("exp_decay(rate=1e999)", "exp_decay argument rate must be a finite"),
    ("exp_decay(rate=-1e999)", "exp_decay argument rate must be a finite"),
    ("spike(gamma=1.0)", "spike takes key=value arguments only, with keys "
                         "among beta"),
    ("spike(**{'beta': 1.0})", "spike takes key=value arguments only"),
    ("exp_decay(rate=1.0, rate=-1000.0)",
     "exp_decay argument rate is given more than once"),
    ("osc(alpha=0.2, beta=0.6, alpha=0.2)",
     "osc argument alpha is given more than once"),
    ("sqrt(zero, zero)", "sqrt takes one corpus expression"),
    ("sqrt(x=zero)", "sqrt takes one corpus expression"),
    ("sqrt(1.0)", "unknown corpus function '1.0'"),
    ("spike.x(beta=1)", "unknown corpus function 'spike.x"),
    ("zero()", "unknown corpus function 'zero'"),
    ("spike(beta=0.32", "cannot parse corpus expression"),
    ("", "cannot parse corpus expression"),
])
def test_resolve_rejects_what_is_not_the_grammar(name, message):
    with pytest.raises(ValueError) as info:
        resolve(name)
    assert message in str(info.value)
