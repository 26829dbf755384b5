"""The ensemble tail verdict and the margins that say how near it was to
flipping."""

import json

import numpy as np
import pytest

from svlab.evidence import (DIVERGENT, INCONCLUSIVE, SUMMABLE,
                            EvidenceReport, TailThresholds,
                            median_tail_verdict)

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
