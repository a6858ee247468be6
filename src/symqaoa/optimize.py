"""Bounded Nelder-Mead on Python floats.

nelder_mead is the method scipy.optimize.minimize (1.17.1) runs for
method="Nelder-Mead" with bounds, an initial simplex and xatol = inf, with its
fixed coefficients (reflection 1, expansion 2, contraction 1/2, shrink 1/2),
as a generator that yields each point and is sent its value; minimize drives
one run of it with an objective, and lockstep drives several together.
Given the same objective values it evaluates the same points in the same
order and returns the same x and nfev, and the same fun when no objective
value is nan (scipy's fun is then nan, this the smallest value that is not
nan); so optimized schedules stay bit for bit what scipy gave.
tests/oracles.py holds scipy's method to check it.
Every rounding step follows numpy's: the centroid sums the vertices in row
order, ((x0 + x1) + x2) + x3 for N = 4, as np.add.reduce does along axis 0;
the clip sends -0.0 to 0.0; and the vertices are ordered by np.argsort, which
need not keep tied values in place, at the places scipy sorts.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


class _BudgetSpent(Exception):
    """The next evaluation would exceed maxfev."""


def minimize(fun, simplex, upper, fatol: float, maxfev: int) -> SimpleNamespace:
    """Minimize fun over the box [0, upper] from the (N+1) x N simplex by
    driving nelder_mead. fun takes a list of N floats, which it must not
    change. Returns x (list of floats), fun and nfev."""
    run = nelder_mead(simplex, upper, fatol, maxfev)
    try:
        x = next(run)
        while True:
            x = run.send(fun(x))
    except StopIteration as stop:
        return stop.value


def lockstep(runs: list, evaluate) -> list:
    """Drive nelder_mead generators together. Each round takes the next point
    of every live run and calls evaluate(points) once, which returns their
    values in order; each value goes back to its own run. Returns each run's
    result, in the order of runs."""
    live = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while live:
        for i, value in zip(list(live), evaluate(list(live.values()))):
            try:
                live[i] = runs[i].send(value)
            except StopIteration as stop:
                results[i] = stop.value
                del live[i]
    return results


def nelder_mead(simplex, upper, fatol: float, maxfev: int):
    """The method as a generator: it yields each point to evaluate (a list of
    N floats the caller must not change), is sent that point's value, and
    returns SimpleNamespace(x, fun, nfev) in StopIteration.value.

    The run stops when every vertex value is within fatol of the best one, or
    when maxfev evaluations are spent; a shrink cut short by maxfev leaves a
    moved vertex with its old value, as scipy does.
    """
    hi = [float(h) for h in upper]
    n = len(hi)
    # vertices above the box are reflected into it, then clipped
    sim = [_clip([2.0 * h - v if v > h else v for v, h in zip(map(float, row), hi)], hi)
           for row in simplex]
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return (yield x)

    try:
        for k in range(n + 1):
            fsim[k] = yield from call(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts twice after the first evaluations
    sim, fsim = _order(sim, fsim)
    sim, fsim = _order(sim, fsim)
    # fsim is sorted, nan last, so fsim[-1] - fsim[0] is scipy's max |f0 - fk|
    while nfev < maxfev and not fsim[-1] - fsim[0] <= fatol:
        try:
            yield from _step(call, sim, fsim, hi)
        except _BudgetSpent:
            pass
        sim, fsim = _order(sim, fsim)
    return SimpleNamespace(x=sim[0], fun=fsim[0], nfev=nfev)


def _clip(x: list, hi: list) -> list:
    """np.clip(x, 0, hi): -0.0 becomes 0.0 and nan stays."""
    return [0.0 if v <= 0.0 else (h if v > h else v) for v, h in zip(x, hi)]


def _order(sim: list, fsim: list) -> tuple[list, list]:
    """The vertices and values in the order of np.argsort(fsim)."""
    ind = np.argsort(fsim).tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _step(call, sim: list, fsim: list, hi: list):
    """One iteration on the sorted simplex, in place; a generator, like call."""
    n = len(hi)
    xbar = sim[0]
    for row in sim[1:-1]:
        xbar = [a + b for a, b in zip(xbar, row)]
    xbar = [a / n for a in xbar]
    worst = sim[-1]
    xr = _clip([2.0 * c - w for c, w in zip(xbar, worst)], hi)
    fxr = yield from call(xr)
    if fxr < fsim[0]:
        xe = _clip([3.0 * c - 2.0 * w for c, w in zip(xbar, worst)], hi)
        fxe = yield from call(xe)
        sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        return
    if fxr < fsim[-2]:
        sim[-1], fsim[-1] = xr, fxr
        return
    if fxr < fsim[-1]:
        xc = _clip([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)], hi)
        fxc = yield from call(xc)
        if fxc <= fxr:
            sim[-1], fsim[-1] = xc, fxc
            return
    else:
        xcc = _clip([0.5 * c + 0.5 * w for c, w in zip(xbar, worst)], hi)
        fxcc = yield from call(xcc)
        if fxcc < fsim[-1]:
            sim[-1], fsim[-1] = xcc, fxcc
            return
    # each vertex moves before it is evaluated, so a cut leaves it moved
    x0 = sim[0]
    for j in range(1, n + 1):
        sim[j] = _clip([a + 0.5 * (b - a) for a, b in zip(x0, sim[j])], hi)
        fsim[j] = yield from call(sim[j])
