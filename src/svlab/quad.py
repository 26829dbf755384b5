"""Plain quadrature and root-bracketing helpers.

Nothing in here knows about measures or paths; these are the scalar tools the
rest of the package leans on (adaptive Simpson for densities, breakpoint-aware
trapezoid for piecewise-linear integrands, bisection for level crossings).
"""
from __future__ import annotations

import numpy as np

# bisection levels per fn_many call of bisect_root_levels: 31 midpoints
BISECT_LEVELS = 5


def adaptive_simpson(fn, a: float, b: float, tol: float = 1e-10, max_depth: int = 50) -> float:
    """Adaptive Simpson quadrature of ``fn`` on [a, b] with absolute tolerance."""
    if b <= a:
        return 0.0

    def simpson(lo, mid, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = fn(lmid)
        frm = fn(rmid)
        left = simpson(lo, lmid, mid, flo, flm, fmid)
        right = simpson(mid, rmid, hi, fmid, frm, fhi)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth + 1)
                + recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth + 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(mid), fn(b)
    whole = simpson(a, mid, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def trapezoid_refined(fn, a: float, b: float, h: float, breakpoints=()) -> float:
    """Composite trapezoid on [a, b] with uniform step h plus extra nodes.

    Exact (to round-off) for integrands that are piecewise linear between the
    supplied breakpoints, which is what the spike corpus needs.
    """
    if b <= a:
        return 0.0
    n = max(1, int(np.ceil((b - a) / h - 1e-12)))
    nodes = np.linspace(a, b, n + 1)
    extra = [x for x in breakpoints if a < x < b]
    if extra:
        nodes = np.unique(np.concatenate([nodes, np.asarray(extra, float)]))
    vals = np.asarray(fn(nodes), float)
    return float(np.trapezoid(vals, nodes))


def simpson_segments(fn, edges) -> float:
    """Simpson's rule applied per segment of ``edges`` (exact for piecewise
    quadratics whose breaks are at the edges)."""
    edges = np.asarray(edges, float)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    return float(np.sum((hi - lo) / 6.0 * (fn(lo) + 4.0 * fn(mid) + fn(hi))))


def bisect_root_levels(fn_many, a: float, b: float, fa: float,
                       tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisection on a bracket [a, b] with fa = fn(a) and fn(a) fn(b) < 0
    known, where fn_many maps an array of points to their fn values. Each
    step takes mid = 0.5 (a + b) and returns it when fn(mid) == 0 or
    b - a < tol; otherwise it keeps [a, mid] when fa fn(mid) < 0, else
    [mid, b]; after max_iter steps it returns 0.5 (a + b). Each call of
    fn_many evaluates the midpoints of the next BISECT_LEVELS levels below
    the current bracket (2^BISECT_LEVELS - 1 points), and the steps walk
    through them, so the root has the bits of one fn call per step."""
    levels = BISECT_LEVELS
    for it in range(max_iter):
        if it % levels == 0:
            lo, hi = np.array([a]), np.array([b])
            mids = []
            for _ in range(levels):
                mid = 0.5 * (lo + hi)
                mids.append(mid)
                lo = np.stack([lo, mid], axis=1).ravel()
                hi = np.stack([mid, hi], axis=1).ravel()
            xs = np.concatenate(mids)
            fs = fn_many(xs)
            node = 0  # heap index among the points, children 2i+1, 2i+2
        mid, fm = xs[node], fs[node]
        if fm == 0.0 or (b - a) < tol:
            return mid
        if fa * fm < 0:
            b = mid
            node = 2 * node + 1
        else:
            a, fa = mid, fm
            node = 2 * node + 2
    return 0.5 * (a + b)
