"""The built-in perturbation families and their closed-form cross-checks."""

import numpy as np
import pytest

from svlab import corpus
from svlab.corpus import (ConstFamily, ExpDecayFamily, GeometricWindowFamily,
                          OscFamily, SpikeFamily, SqrtOf, Square, resolve,
                          support_of, zero_f)


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


def test_spike_window_exact_values():
    g = SpikeFamily()
    assert g.window_exact(2) == 0.5
    assert g.window_exact(10) == 0.1
    with pytest.raises(ValueError, match="n = 2"):
        g.window_exact(1)


@pytest.mark.parametrize("n", [2, 3, 10, 50, 100])
def test_spike_window_quadrature_matches_closed_form(n):
    # trapezoid refined with the slope breaks is exact for the triangle
    g = SpikeFamily()
    assert abs(g.window_quadrature(n) - 1.0 / n) < 1e-6


def test_spike_truncated_mass_closed_form():
    g = SpikeFamily()
    want = 0.1 - 2.0 / 10.0 ** 1.32 + 1.0 / 10.0 ** 1.64
    assert g.truncated_mass_exact(10) == pytest.approx(want, rel=1e-15)
    assert g.truncated_mass_exact(10) == pytest.approx(0.027182658063150067)
    with pytest.raises(ValueError, match="n = 2"):
        g.truncated_mass_exact(1)


@pytest.mark.parametrize("n", [2, 5, 10, 50])
def test_spike_truncated_mass_dual_route(n):
    """Bisection crossings + quadrature of the excess against the closed
    form, with no shared formulas between the two routes."""
    g = SpikeFamily()
    gap = abs(g.truncated_mass_quadrature(n) - g.truncated_mass_exact(n))
    assert gap < 1e-9


def test_spike_truncated_mass_sums_diverge():
    # the excess-mass series is a divergent minorant: about 1/n per term,
    # so every doubling of N adds a fixed chunk
    g = SpikeFamily()
    S = np.cumsum([g.truncated_mass_exact(n) for n in range(2, 1025)])
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
