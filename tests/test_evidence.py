"""The ensemble tail verdict and the margins that say how near it was to
flipping, the checkpoint rule, and the aggregate of per-width and per-eps
verdicts."""

import itertools
import json

import numpy as np
import pytest

from svlab.conditions import window_widths
from svlab.core import GridSpec
from svlab.evidence import (DIVERGENT, INCONCLUSIVE, SATISFIED, SUMMABLE,
                            VIOLATED, EvidenceReport, TailThresholds,
                            checkpoint_indices, median, median_tail_verdict,
                            tail_verdict, time_checkpoints, worst_verdict)

TH = TailThresholds()          # eps_tail 1e-2, eps_abs 1e-8, ratio_div 1.5
HALF = np.linspace(0.9, 1.1, 31)   # median 1.0
BAR = TH.eps_tail * 1.0 + TH.eps_abs


@pytest.mark.parametrize("increment,verdict,tail_sign,ratio_sign", [
    (BAR * (1 - 1e-9), SUMMABLE, -1, -1),      # just under the tail bar
    (BAR * (1 + 1e-9), INCONCLUSIVE, 1, -1),   # just over it
    (0.5 - 1e-9, INCONCLUSIVE, 1, -1),         # ratio just under 1.5
    (0.5 + 1e-9, DIVERGENT, 1, 1),             # and just over it
])
def test_margins_sign_matches_verdict(increment, verdict, tail_sign,
                                      ratio_sign):
    # the path with the median half sum also has the median increment
    s_full = HALF + increment * HALF
    got, diag = median_tail_verdict(HALF, s_full, TH)
    assert got == verdict
    assert diag["tail_bar"] == pytest.approx(BAR, rel=1e-15)
    assert diag["tail_margin"] == diag["median_increment"] - diag["tail_bar"]
    assert diag["ratio_margin"] == diag["median_ratio"] - TH.ratio_div
    assert np.sign(diag["tail_margin"]) == tail_sign
    assert np.sign(diag["ratio_margin"]) == ratio_sign


def test_margins_are_deterministic_json():
    s_half = np.arange(1.0, 31.0)
    rep = EvidenceReport("lp-tail", diagnostics=median_tail_verdict(
        s_half, 2.0 * s_half, TH)[1])
    again = EvidenceReport("lp-tail", diagnostics=median_tail_verdict(
        s_half, 2.0 * s_half, TH)[1])
    assert rep.to_json() == again.to_json()
    diag = json.loads(rep.to_json())["diagnostics"]
    assert diag["ratio_margin"] == 0.5
    assert diag["tail_margin"] == pytest.approx(15.5 - (0.155 + 1e-8))


@pytest.mark.parametrize("s_half, s_full, thresholds, verdict", [
    (1.0, 1.0 + BAR * (1 - 1e-9), TH, SUMMABLE),
    (1.0, 1.0 + BAR * (1 + 1e-9), TH, INCONCLUSIVE),
    (1.0, 2.0, TH, DIVERGENT),
    (0.0, 0.0, TH, SUMMABLE),
    (0.0, 1.0, TH, DIVERGENT),
    # a zero tail with no absolute slack is no evidence of divergence
    (0.0, 0.0, TailThresholds(eps_abs=0.0), INCONCLUSIVE),
])
def test_one_sequence_and_its_ensemble_share_the_tail_rule(
        s_half, s_full, thresholds, verdict):
    assert tail_verdict(s_half, s_full, thresholds) == verdict
    assert median_tail_verdict([s_half], [s_full], thresholds)[0] == verdict


def _median_cases():
    rng = np.random.default_rng(7)
    for n in range(1, 31):
        yield rng.lognormal(size=n)                      # distinct values
        yield rng.integers(0, 4, n) * 0.1 + 1.0          # ties
        ratios = rng.lognormal(size=n)
        ratios[rng.random(n) < 0.3] = np.inf             # infinite ratios
        yield ratios
        # two middle values whose sum rounds
        yield np.where(np.arange(n) < n // 2, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51)
    yield np.array([1e308, 1e308])                      # the sum overflows
    yield np.array([1.0, np.nan, 2.0])
    yield np.array([np.nan, 1.0, 2.0, 3.0])
    yield np.arange(12.0).reshape(3, 4)                 # flattened


def test_median_has_the_bits_of_numpy_median():
    """n = 1..30, odd and even, with ties, infinite ratios, a rounded and
    an overflowing middle sum, nan, a 2-D array and no values: the same
    float, bit for bit."""
    for values in _median_cases():
        got = median(values)
        assert type(got) is float
        with np.errstate(over="ignore"):
            want = np.median(values)
        assert np.float64(got).tobytes() == want.tobytes(), values
        assert np.float64(median(values.tolist())).tobytes() == want.tobytes()
    with pytest.warns(RuntimeWarning):
        assert np.isnan(np.median([]))
    assert np.isnan(median([]))


# the aggregate of per-width and per-eps verdicts ------------------------------

def _per_theta_rule(verdicts):
    """The per-width aggregate of the window L^p checks."""
    if VIOLATED in verdicts:
        return VIOLATED
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return verdicts[0]


def _fading_rule(verdicts):
    """The per-width aggregate of the fading check."""
    if VIOLATED in verdicts:
        return VIOLATED
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return SATISFIED


def _per_eps_rule(verdicts):
    """The per-eps aggregate of the exceedance series."""
    if verdicts and all(v == SUMMABLE for v in verdicts):
        return SUMMABLE
    if DIVERGENT in verdicts:
        return DIVERGENT
    return INCONCLUSIVE


CONDITION_VOCAB = (SATISFIED, VIOLATED, INCONCLUSIVE)
SERIES_VOCAB = (SUMMABLE, DIVERGENT, INCONCLUSIVE)


@pytest.mark.parametrize("rule,vocab,min_len", [
    # the window checks reject an empty width list before any verdict
    (_per_theta_rule, CONDITION_VOCAB, 1),
    (_fading_rule, CONDITION_VOCAB, 1),
    (_per_eps_rule, SERIES_VOCAB, 0),
])
def test_worst_verdict_matches_each_aggregate(rule, vocab, min_len):
    for n in range(min_len, 5):
        for verdicts in itertools.product(vocab, repeat=n):
            assert worst_verdict(verdicts) == rule(list(verdicts)), verdicts
            assert worst_verdict(iter(verdicts)) == rule(list(verdicts))


def test_worst_verdict_of_nothing_is_inconclusive():
    assert worst_verdict([]) == INCONCLUSIVE
    with pytest.raises(ValueError, match="at least one window width"):
        window_widths([], GridSpec(0.1, 1.0))


# the checkpoint rule ----------------------------------------------------------

@pytest.mark.parametrize("cps", [[], [0], [0, 4, 8], [np.int64(2), 8]])
def test_checkpoint_rule_accepts(cps):
    assert checkpoint_indices(cps, 8, "checkpoints") == [int(c) for c in cps]


def test_time_checkpoints_name_the_times_as_given():
    grid = GridSpec(0.5, 4.0)
    assert time_checkpoints([1.0, 2.0, 4.0], grid) == [2, 4, 8]
    with pytest.raises(ValueError, match=r"got \[2, 1.0\]"):
        time_checkpoints([2, 1.0], grid)
    with pytest.raises(ValueError, match="outside"):
        time_checkpoints([1.0, 5.0], grid)
