"""Built-in perturbation families and their exact window arithmetic.

The two stars are the spike train (tall thin triangles with unit-window mass
exactly 1/n) and the chirped oscillation e^{alpha t} sin(e^{beta t}). Both
come with companion quadrature routines that are independent enough of the
closed forms to act as cross-checks.

A family may declare where it can be nonzero with a method
``support(t0, t1)``: it returns an (m, 2) array of intervals (lo, hi) in
increasing order, those of its support that meet [t0, t1). The declared
support is a superset of where f may be nonzero, and f is exactly 0.0 at
every t off the open intervals. The window samplers in ``conditions``
zero-fill their buffers and evaluate f only on these intervals, each widened
by two sample points, so the samples (and every sum of them) have the same
bits as evaluating f everywhere. ``support_of`` reads the support of any
callable; one without a ``support`` method is "anywhere" (None).
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass, fields

import numpy as np

from .quad import bisect_root, simpson_segments, trapezoid_refined


@dataclass(frozen=True)
class SpikeFamily:
    """Spike train: zero on [0, 2]; on [n, n+1] (n >= 2) a triangle of height
    n^beta rising on (n + a_n, n + 1/2] and falling on (n + 1/2, n + 1 - a_n)
    with a_n = 1/2 - 1/n^(beta+1). The area of each spike is exactly 1/n.
    Boundary points take the zero branch.
    """

    beta: float = 0.32

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValueError("spike exponent beta must be positive")

    def a(self, n) -> np.ndarray:
        n = np.asarray(n, float)
        return 0.5 - n ** -(self.beta + 1.0)

    def height(self, n) -> np.ndarray:
        return np.asarray(n, float) ** self.beta

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        if np.any(t < 0):
            raise ValueError("spike family is defined on t >= 0")
        n = np.floor(t).astype(int)
        live = n >= 2
        nf = np.where(live, n, 2).astype(float)
        frac = t - n
        a_n = 0.5 - nf ** -(self.beta + 1.0)
        h_n = nf ** self.beta
        half_w = 0.5 - a_n
        rising = live & (frac > a_n) & (frac <= 0.5)
        falling = live & (frac > 0.5) & (frac < 1.0 - a_n)
        out = np.zeros_like(t, dtype=float)
        out[rising] = (h_n * (frac - a_n) / half_w)[rising]
        out[falling] = (h_n * (1.0 - a_n - frac) / half_w)[falling]
        if out.shape == ():
            return float(out)
        return out

    def support(self, t0: float, t1: float) -> np.ndarray:
        """The intervals (n + a_n, n + 1 - a_n), n >= 2, that meet [t0, t1),
        each end pushed out by one ulp so that the spike is exactly 0.0 at
        every t off them whatever the rounding of n + a_n."""
        n = np.arange(max(2, int(np.floor(t0))), max(2, int(np.ceil(t1))))
        a_n = self.a(n)
        lo = np.nextafter(n + a_n, -np.inf)
        hi = np.nextafter(n + (1.0 - a_n), np.inf)
        keep = (lo < t1) & (hi > t0)
        return np.column_stack([lo[keep], hi[keep]])

    def breakpoints(self, n: int):
        """Slope-break abscissae of the spike on [n, n+1]."""
        a_n = float(self.a(n))
        return (n + a_n, n + 0.5, n + 1.0 - a_n)

    def window_exact(self, n: int) -> float:
        """Closed-form unit-window mass: integral over [n, n+1] is 1/n."""
        if n < 2:
            raise ValueError("spikes start at n = 2")
        return 1.0 / n

    def truncated_mass_exact(self, n: int) -> float:
        """Closed-form mass of the part of the spike above level 1."""
        if n < 2:
            raise ValueError("spikes start at n = 2")
        if float(self.height(n)) <= 1.0:
            raise ValueError(f"spike {n} never exceeds level 1")
        b = self.beta
        return 1.0 / n - 2.0 / n ** (b + 1.0) + 1.0 / n ** (2.0 * b + 1.0)

    def window_quadrature(self, n: int, h: float = 1e-4) -> float:
        """Unit-window mass by trapezoid on the uniform grid refined with the
        branch breakpoints (exact for the piecewise-linear display)."""
        if n < 2:
            raise ValueError("spikes start at n = 2")
        return trapezoid_refined(self, n, n + 1.0, h, self.breakpoints(n))

    def truncated_mass_quadrature(self, n: int, h: float = 1e-4) -> float:
        """Mass above level 1 with the crossings located by bisection on the
        evaluated function (no use of the closed-form crossing formula)."""
        if n < 2:
            raise ValueError("spikes start at n = 2")
        lo, mid, hi = self.breakpoints(n)
        c1 = bisect_root(lambda s: self(s) - 1.0, lo, mid, tol=1e-14)
        c2 = bisect_root(lambda s: self(s) - 1.0, mid, hi, tol=1e-14)
        return trapezoid_refined(lambda s: np.asarray(self(s), float) - 1.0,
                                 c1, c2, h, (mid,))

    def square_integral_to(self, T: int) -> float:
        """Integral of the squared spike train over [0, T], per-segment
        Simpson (exact for the piecewise-quadratic square)."""
        total = 0.0
        sq = lambda s: np.asarray(self(s)) ** 2
        for n in range(2, int(T)):
            lo, mid, hi = self.breakpoints(n)
            total += simpson_segments(sq, (lo, mid, hi))
        return total


@dataclass(frozen=True)
class OscFamily:
    """Chirped oscillation e^{alpha t} sin(e^{beta t}) with 0 < alpha < beta.

    Its pointwise magnitude blows up while every unit window integral decays
    like e^{(alpha-beta) t}. Evaluation refuses phases beyond float range.
    """

    alpha: float = 0.1
    beta: float = 0.5

    def __post_init__(self):
        if not (0 < self.alpha < self.beta):
            raise ValueError("need 0 < alpha < beta")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, float)
        if np.any(self.beta * t > 700.0):
            raise ValueError("oscillation phase overflows float range")
        out = np.exp(self.alpha * t) * np.sin(np.exp(self.beta * t))
        if out.shape == ():
            return float(out)
        return out


def zero_f(t):
    return np.zeros_like(np.asarray(t, float))


@dataclass(frozen=True)
class ConstFamily:
    c: float = 1.0

    def __call__(self, t):
        return np.full_like(np.asarray(t, float), self.c)


@dataclass(frozen=True)
class GeometricWindowFamily:
    """Piecewise-constant f = ratio^n on [n, n+1): unit windows are exactly
    geometric."""

    ratio: float = 0.5

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")

    def __call__(self, t):
        t = np.asarray(t, float)
        if np.any(t < 0):
            raise ValueError("defined on t >= 0")
        return self.ratio ** np.floor(t)


@dataclass(frozen=True)
class ExpDecayFamily:
    rate: float = 1.0

    def __call__(self, t):
        return np.exp(-self.rate * np.asarray(t, float))


def support_of(f, t0: float, t1: float):
    """The support f declares on [t0, t1) (see the module docstring), or
    None, "anywhere", for a callable without a ``support`` method."""
    support = getattr(f, "support", None)
    return None if support is None else support(t0, t1)


@dataclass(frozen=True)
class SqrtOf:
    inner: object

    def __call__(self, t):
        return np.sqrt(np.asarray(self.inner(t), float))

    def support(self, t0: float, t1: float):
        return support_of(self.inner, t0, t1)


@dataclass(frozen=True)
class Square:
    """t -> f(t)^2, the sigma^2 of the diffusion checks; zero where f is."""

    inner: object

    def __call__(self, t):
        return np.asarray(self.inner(t), float) ** 2

    def support(self, t0: float, t1: float):
        return support_of(self.inner, t0, t1)


_FAMILIES = {"spike": SpikeFamily, "osc": OscFamily, "const": ConstFamily,
             "geomwin": GeometricWindowFamily, "exp_decay": ExpDecayFamily}


def _number(family: str, kw: ast.keyword):
    """The value of one family argument: an int or a float, finite."""
    try:
        value = ast.literal_eval(kw.value)
        ok = type(value) in (int, float) and math.isfinite(value)
    except (ValueError, TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{family} argument {kw.arg} must be a finite "
                         f"number, got {ast.unparse(kw.value)}")
    return value


def _build(node):
    if isinstance(node, ast.Name) and node.id == "zero":
        return zero_f
    call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    head = node.func.id if call else ast.unparse(node)
    if call and head == "sqrt":
        if len(node.args) != 1 or node.keywords:
            raise ValueError("sqrt takes one corpus expression")
        return SqrtOf(_build(node.args[0]))
    if not call or head not in _FAMILIES:
        raise ValueError(f"unknown corpus function {head!r}")
    keys = [field.name for field in fields(_FAMILIES[head])]
    if node.args or any(kw.arg not in keys for kw in node.keywords):
        raise ValueError(f"{head} takes key=value arguments only, with keys "
                         f"among {', '.join(keys)}")
    return _FAMILIES[head](**{kw.arg: _number(head, kw)
                              for kw in node.keywords})


def resolve(name: str):
    """Parse a corpus expression into a vectorized callable. An expression
    is ``zero``, ``sqrt(<expression>)`` or a family called with keyword
    arguments only, each a finite int or float, as in
    ``sqrt(spike(beta=0.32))``; anything else raises ValueError."""
    try:
        tree = ast.parse(name.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse corpus expression {name!r}: "
                         f"{exc.msg}") from None
    return _build(tree.body)
