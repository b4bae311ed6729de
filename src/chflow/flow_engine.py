"""Curvature-normalized Ricci flow and its gauged (DeTurck) version.

Metrics are raw grid arrays of shape grid.shape + (2m, 2m); the background
`grid.G` is the reference both for the normalization constant and for the
gauge correction.  The two right-hand sides are

    ricci:   -2 (Rc(g) + lam g)
    deturck: -2 (Rc(g) + lam g) - P(g),
    P(g) = -2 delta*_g( u~ delta_g( G(g, g_B) ) ),

with G(g, u) = u - (1/2) (tr_g u) g, (u~ beta)_j = g_{jk} u^{kl} beta_l, and
all divergences taken with the Levi-Civita connection of the evolving g.
The background is a fixed point of both; the linearization of the deturck
right-hand side at the background is the stability operator, which is what
ties this module to `stability_analysis` (and is tested, not assumed).

Time stepping is explicit midpoint with a parabolic step limit re-evaluated
every step; a Dirichlet band of boundary cells is pinned to the background
after every stage, which also hides the one-sided difference rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart_geometry import ChartGrid
from . import stability_analysis as sa
from . import tensor_calculus as tc

__all__ = [
    "ricci_of",
    "normalized_ricci_rhs",
    "vector_transport",
    "deturck_term",
    "deturck_rhs",
    "FixedPointReport",
    "fixed_point_residual",
    "ellipticity_pencil_range",
    "principal_apply",
    "FlowTrace",
    "evolve",
]


def _inv_sym(g: np.ndarray) -> np.ndarray:
    return tc._symmetrized(np.linalg.inv(g))


def ricci_of(grid: ChartGrid, g: np.ndarray) -> np.ndarray:
    """Ricci tensor of an arbitrary grid metric, by finite differences."""
    return tc.ricci_of_metric(g, *tc.metric_jet(g, grid.spacing), grid.spacing)


def normalized_ricci_rhs(grid: ChartGrid, g: np.ndarray) -> np.ndarray:
    """-2 (Rc(g) + lam g) with the background normalization constant."""
    return -2.0 * (ricci_of(grid, g) + tc._lam(grid) * g)


def vector_transport(grid: ChartGrid, g: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """One-form transport (u~ beta)_j = g_{jk} u^{kl} beta_l, u = background.

    Raises the index with the background inverse and lowers it with the
    evolving metric; linear in beta, and the identity at g = g_B.
    """
    return np.einsum("...jk,...kl,...l->...j", g, grid.Ginv, beta)


def deturck_term(
    grid: ChartGrid,
    g: np.ndarray,
    jet: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gauge term P(g) of the deturck right-hand side (see module docs).

    jet is `tc.metric_jet(g, grid.spacing)`, built here when not supplied.
    Vanishes at g = g_B because G(g_B, g_B) is a constant multiple of the
    background metric, which is parallel.
    """
    ginv, _, gamma = tc.metric_jet(g, grid.spacing) if jet is None else jet
    tr = np.einsum("...ij,...ij->...", ginv, grid.G)
    gt = grid.G - 0.5 * tr[..., None, None] * g
    nab = tc._covariant(gt, gamma, grid.spacing)
    beta = -np.einsum("...ai,...aij->...j", ginv, nab)  # delta_g G(g, g_B)
    beta = vector_transport(grid, g, beta)
    dstar = tc._symmetrized(tc._covariant(beta, gamma, grid.spacing))
    return -2.0 * dstar


def deturck_rhs(grid: ChartGrid, g: np.ndarray) -> np.ndarray:
    """Gauged flow right-hand side -2 (Rc + lam g) - P(g)."""
    jet = tc.metric_jet(g, grid.spacing)
    rc = tc.ricci_of_metric(g, *jet, grid.spacing)
    return -2.0 * (rc + tc._lam(grid) * g) - deturck_term(grid, g, jet)


@dataclass(frozen=True)
class FixedPointReport:
    """Residual of the discrete background fixed point over a geodesic ball.

    `raw` is the plain max-norm of the right-hand side at g_B, which is pure
    truncation error and scales as spacing^2.  `relative` divides by the
    max-norm of the sum of the constituent term magnitudes
    (2|Rc| + 2 lam |g| + |P|), the same term-relative convention used for
    the integral identity residuals; this is the reported residual of the
    cancellation.
    """

    raw: float
    relative: float
    term_scale: float
    radius: float


def fixed_point_residual(
    grid: ChartGrid, radius: float | None = None, mode: str = "deturck"
) -> FixedPointReport:
    """Max-norm residual of the right-hand side at the background.

    The sup is taken inside the geodesic ball of the given radius (default:
    the largest ball within 2 cells of the boundary, where the compact
    stencils are clean).
    """
    lam = tc._lam(grid)
    jet = tc.metric_jet(grid.G, grid.spacing)
    rc = tc.ricci_of_metric(grid.G, *jet, grid.spacing)
    parts = 2.0 * np.abs(rc) + 2.0 * lam * np.abs(grid.G)
    if mode == "deturck":
        p = deturck_term(grid, grid.G, jet)
        resid = -2.0 * (rc + lam * grid.G) - p
        parts = parts + np.abs(p)
    elif mode == "ricci":
        resid = -2.0 * (rc + lam * grid.G)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if radius is None:
        reach = grid.box_half - 2 * grid.spacing
        radius = (2.0 / math.sqrt(grid.c)) * math.atanh(min(reach, 0.99))
    mask = grid.geodesic_ball_mask(radius)
    raw = float(np.max(np.abs(resid[mask])))
    scale = float(np.max(parts[mask]))
    return FixedPointReport(
        raw=raw, relative=raw / scale, term_scale=scale, radius=radius
    )


def ellipticity_pencil_range(grid: ChartGrid, g: np.ndarray) -> tuple[float, float]:
    """Range of eigenvalues of g_B g^{-1} over the grid.

    The leading symbol of the gauged flow is g^{pq} xi_p xi_q Id, so these
    numbers bound the ellipticity constants of the evolving operator
    relative to the background; both are exactly 1 at g = g_B.
    """
    pencil = np.einsum("...ij,...jk->...ik", grid.G, _inv_sym(g))
    ev = np.linalg.eigvals(pencil.reshape(-1, g.shape[-1], g.shape[-1]))
    if np.max(np.abs(ev.imag)) > 1e-9:
        raise AssertionError("ellipticity pencil has complex eigenvalues (internal)")
    return float(np.min(ev.real)), float(np.max(ev.real))


def principal_apply(grid: ChartGrid, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Frozen-coefficient principal part g^{pq} d_p d_q h_{ij}.

    Compact second differences weighted by the inverse of the supplied
    metric; this is the leading part of every operator in this package.
    The outermost cell layer wraps around and is meaningless; callers mask
    it with their Dirichlet band.
    """
    ginv = _inv_sym(g)
    n = g.shape[-1]
    out = np.zeros_like(h)
    sel = (slice(None),) * len(grid.shape)
    for p in range(n):
        for q in range(p, n):
            weight = 1.0 if p == q else 2.0
            d2 = tc._second_diff(h, p, q, grid.spacing)
            out += weight * ginv[sel + (p, q) + (None, None)] * d2
    return out


@dataclass(frozen=True)
class FlowTrace:
    """Deviation history of a nonlinear flow run."""

    times: np.ndarray
    l2_dev: np.ndarray
    sup_dev: np.ndarray
    eig_trace: np.ndarray
    rate: float
    fit_window: tuple[int, int]
    min_metric_eig: float
    dt_first: float

    @property
    def initial_l2(self) -> float:
        return float(self.l2_dev[0])


def _pin_band(g: np.ndarray, grid: ChartGrid, band: int) -> None:
    if band > 0:
        outside = ~grid.interior_mask(band)
        g[outside] = grid.G[outside]


def evolve(
    grid: ChartGrid,
    g0: np.ndarray,
    t_end: float,
    mode: str = "deturck",
    cfl: float = 0.2,
    band: int = 2,
    record_every: int = 5,
    fit_window: tuple[float, float] | None = (0.05, 0.5),
    fit_norm: str = "l2",
    tau: float = 1.0,
) -> FlowTrace:
    """Run the nonlinear flow from g0 and fit the tail decay rate.

    The step limit dt = cfl spacing^2 / sup tr(g^{-1}) is re-evaluated every
    step from the current metric.  The index coupling in the Ricci symbol
    makes the stiffest (Nyquist, conformal-direction) mode a factor
    (2n-2)/n larger than the scalar estimate sup tr(g^{-1}) suggests, so
    cfl must stay below n/(4n-4); the default 0.2 keeps a margin for every
    n.  The trace records the deviation from the background in L^2 and in
    the exponentially weighted sup norm sup e^{tau r} |g - g_B| (the grid
    restriction of the weighted norms in holder_interpolation).  The decay
    rate is fitted, in the norm named by fit_norm ("l2" or "sup"), on the
    window where that deviation lies between the given fractions of its
    initial value; the discrete steady state differs from the background
    at the level of the truncation error, so the lower fraction must sit
    well above that floor (measure the floor by evolving from the
    background itself).  The floor is much smaller relative to an order-one
    localized bump in the sup norm than in L^2, which spreads the bump mass
    over the domain volume.  fit_window=None skips the fit and reports a
    rate of nan, which is the only sensible choice when starting at or
    below the floor.
    """
    try:
        rhs = {"deturck": deturck_rhs, "ricci": normalized_ricci_rhs}[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None
    if fit_norm not in ("l2", "sup"):
        raise ValueError(f"unknown fit_norm {fit_norm!r}")
    g = g0.copy()
    _pin_band(g, grid, band)
    t = 0.0
    times, l2_dev, sup_dev, eig_trace = [0.0], [], [], []
    dt_first = math.nan
    weight = np.exp(tau * grid.r_geo)

    def dev_norms(gcur: np.ndarray) -> tuple[float, float]:
        dev = gcur - grid.G
        l2 = math.sqrt(tc.l2_norm_sq(tc.TensorField(grid, tc._symmetrized(dev), 0)))
        wsup = float(np.max(weight * np.max(np.abs(dev), axis=(-2, -1))))
        return l2, wsup

    def min_eig_of(gcur: np.ndarray) -> float:
        ev = np.linalg.eigvalsh(gcur.reshape(-1, gcur.shape[-1], gcur.shape[-1]))
        return float(np.min(ev))

    l2, sup = dev_norms(g)
    l2_dev.append(l2)
    sup_dev.append(sup)
    eig_trace.append(min_eig_of(g))
    step = 0
    while t < t_end:
        dt = cfl * grid.spacing**2 / float(np.max(np.einsum("...aa->...", _inv_sym(g))))
        dt = min(dt, t_end - t)
        k1 = rhs(grid, g)
        gm = g + 0.5 * dt * k1
        _pin_band(gm, grid, band)
        k2 = rhs(grid, gm)
        g = g + dt * k2
        _pin_band(g, grid, band)
        t += dt
        step += 1
        if step == 1:
            dt_first = dt
        if step % record_every == 0 or t >= t_end:
            l2, sup = dev_norms(g)
            times.append(t)
            l2_dev.append(l2)
            sup_dev.append(sup)
            eig_trace.append(min_eig_of(g))
            if eig_trace[-1] <= 0:
                raise RuntimeError(f"metric lost positivity at t = {t:.4f}")
    times = np.asarray(times)
    l2_dev = np.asarray(l2_dev)
    sup_dev = np.asarray(sup_dev)
    eig_trace = np.asarray(eig_trace)
    if fit_window is None:
        rate, window = math.nan, (0, 0)
    else:
        trace = l2_dev if fit_norm == "l2" else sup_dev
        rate, window = sa._fit_decay_rate(times, trace, fit_window)
    return FlowTrace(
        times=times,
        l2_dev=l2_dev,
        sup_dev=sup_dev,
        eig_trace=eig_trace,
        rate=rate,
        fit_window=window,
        min_metric_eig=float(np.min(eig_trace)),
        dt_first=dt_first,
    )
