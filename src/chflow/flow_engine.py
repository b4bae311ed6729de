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

Time stepping is the explicit midpoint integrator `sa._integrate`, shared
with the linearized flow: the parabolic step limit is re-evaluated every
step, the last step is shortened so the run ends exactly at t_end, and a
Dirichlet band of boundary cells is pinned to the background after every
stage.  The right-hand sides take that `band` and are evaluated only on
the cells inside it, box `band` of `tensor_calculus`; they are zero on the
pinned cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    "FlowTrace",
    "evolve",
]


def ricci_of(grid: ChartGrid, g: np.ndarray) -> np.ndarray:
    """Ricci tensor of an arbitrary grid metric, by finite differences."""
    return tc.ricci_of_metric(g, *tc.metric_jet(g, grid.spacing), grid.spacing)


def normalized_ricci_rhs(grid: ChartGrid, g: np.ndarray, band: int = 0) -> np.ndarray:
    """-2 (Rc(g) + lam g) with the background normalization constant, on box
    `band` and zero outside it."""
    return _flow_rhs(grid, g, band, gauged=False)


def _transport(g: np.ndarray, uinv: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # g_{jk} u^{kl} beta_l on raw arrays
    return (g @ (uinv @ beta[..., None]))[..., 0]


def vector_transport(grid: ChartGrid, g: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """One-form transport (u~ beta)_j = g_{jk} u^{kl} beta_l, u = background.

    Raises the index with the background inverse and lowers it with the
    evolving metric; linear in beta, and the identity at g = g_B.
    """
    return _transport(g, grid.Ginv, beta)


def deturck_term(
    grid: ChartGrid,
    g: np.ndarray,
    jet: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    band: int = 0,
) -> np.ndarray:
    """Gauge term P(g) of the deturck right-hand side (see module docs).

    jet is `tc.metric_jet(g, grid.spacing, band)`, built here when not
    supplied.  G(g, g_B) is formed on box max(band - 2, 0), its covariant
    derivative and the one-form beta on box max(band - 1, 0), and P on box
    `band`; it is zero outside.  Vanishes at g = g_B because G(g_B, g_B) is
    a constant multiple of the background metric, which is parallel.
    """
    base = g.ndim - 2
    k0, k1 = max(band - 2, 0), max(band - 1, 0)
    ginv, _, gamma = tc.metric_jet(g, grid.spacing, band) if jet is None else jet
    outer, mid = tc._box(k0, base), tc._box(k1, base)
    ein = tc._einstein(grid.G[outer], g[outer], ginv[outer])
    nab = tc._covariant(ein, gamma[mid], grid.spacing, k1 - k0)
    beta = _transport(g[mid], grid.Ginv[mid], tc._divergence(nab, ginv[mid]))
    dstar = tc._covariant(beta, gamma[tc._box(band, base)], grid.spacing, band - k1)
    return tc._padded(-2.0 * tc._symmetrized(dstar), band, base)


def deturck_rhs(grid: ChartGrid, g: np.ndarray, band: int = 0) -> np.ndarray:
    """Gauged flow right-hand side -2 (Rc + lam g) - P(g), on box `band` and
    zero outside it."""
    return _flow_rhs(grid, g, band, gauged=True)


def _flow_rhs(grid: ChartGrid, g: np.ndarray, band: int, gauged: bool) -> np.ndarray:
    # one metric jet shared by the Ricci and gauge terms
    jet = tc.metric_jet(g, grid.spacing, band)
    rc = tc.ricci_of_metric(g, *jet, grid.spacing, band)
    box = tc._box(band, g.ndim - 2)
    out = np.zeros_like(g)
    out[box] = -2.0 * (rc[box] + tc._lam(grid) * g[box])
    if gauged:
        out[box] -= deturck_term(grid, g, jet, band)[box]
    return out


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
    stencils are clean).  The terms are computed on the largest box, of at
    most 2 layers, that holds the ball; a ball that reaches the outermost
    cell layer raises ValueError.
    """
    if mode not in ("deturck", "ricci"):
        raise ValueError(f"unknown mode {mode!r}")
    if radius is None:
        reach = grid.box_half - 2 * grid.spacing
        radius = (2.0 / math.sqrt(grid.c)) * math.atanh(min(reach, 0.99))
    mask = grid.geodesic_ball_mask(radius)
    band = 2
    while band and np.any(mask & ~grid.interior_mask(band)):
        band -= 1
    if not band:
        raise ValueError(f"radius {radius} reaches the outermost cell layer")
    lam = tc._lam(grid)
    jet = tc.metric_jet(grid.G, grid.spacing, band)
    rc = tc.ricci_of_metric(grid.G, *jet, grid.spacing, band)
    parts = 2.0 * np.abs(rc) + 2.0 * lam * np.abs(grid.G)
    resid = -2.0 * (rc + lam * grid.G)
    if mode == "deturck":
        p = deturck_term(grid, grid.G, jet, band)
        resid = resid - p
        parts = parts + np.abs(p)
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
    pencil = grid.G @ np.linalg.inv(g)
    ev = np.linalg.eigvals(pencil.reshape(-1, g.shape[-1], g.shape[-1]))
    if np.max(np.abs(ev.imag)) > 1e-9:
        raise AssertionError("ellipticity pencil has complex eigenvalues (internal)")
    return float(np.min(ev.real)), float(np.max(ev.real))


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


def _cfl_bound(m: int) -> Fraction:
    # n/(4n-4), n = 2m: the explicit step is unstable at or above it (see evolve)
    n = 2 * m
    return Fraction(n, 4 * n - 4)


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

    Steps are taken by the shared explicit midpoint integrator
    `sa._integrate`, which stops exactly at t_end.  The step limit
    `sa.stable_timestep`, dt = cfl spacing^2 / sup tr(g^{-1}), is
    re-evaluated every step from the current metric.  The index coupling
    in the Ricci symbol makes the stiffest (Nyquist, conformal-direction)
    mode a factor (2n-2)/n larger than the scalar estimate sup tr(g^{-1})
    suggests, so cfl must stay below n/(4n-4), or ValueError is raised;
    the default 0.2 keeps a margin for every n.  The outermost `band`
    cell layers are pinned to the background after every stage, and the
    right-hand side is computed only inside them; band must be at least 1
    (ValueError), since the Ricci tensor is not computed on the outermost
    layer.  Every step is checked for non-finite values, and every record
    for a positive metric (RuntimeError).  The trace records the deviation from the background
    in L^2 and in the exponentially weighted sup norm sup e^{tau r}
    |g - g_B| (the grid restriction of the weighted norms in
    holder_interpolation).  The decay rate is fitted, in the norm named by
    fit_norm ("l2" or "sup"), on the window where that deviation lies
    between the given fractions of its initial value; the discrete steady
    state differs from the background at the level of the truncation
    error, so the lower fraction must sit well above that floor (measure
    the floor by evolving from the background itself).  The floor is much
    smaller relative to an order-one localized bump in the sup norm than
    in L^2, which spreads the bump mass over the domain volume.
    fit_window=None skips the fit and reports a rate of nan, which is the
    only sensible choice when starting at or below the floor.
    """
    try:
        rhs = {"deturck": deturck_rhs, "ricci": normalized_ricci_rhs}[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None
    if fit_norm not in ("l2", "sup"):
        raise ValueError(f"unknown fit_norm {fit_norm!r}")
    cfl_max = _cfl_bound(grid.m)
    if not cfl < cfl_max:
        raise ValueError(f"cfl must be below {cfl_max} for m = {grid.m}")
    if band < 1:
        raise ValueError("band must be at least 1")
    outside = ~grid.interior_mask(band)[..., None, None]
    weight = np.exp(tau * grid.r_geo)
    l2_dev, sup_dev, eig_trace = [], [], []

    def observe(t: float, gcur: np.ndarray) -> None:
        dev = gcur - grid.G
        sym = tc.TensorField(grid, tc._symmetrized(dev), 0)
        l2_dev.append(math.sqrt(tc.l2_norm_sq(sym)))
        sup_dev.append(float(np.max(weight * np.max(np.abs(dev), axis=(-2, -1)))))
        eig_trace.append(float(np.min(np.linalg.eigvalsh(gcur))))
        if eig_trace[-1] <= 0:
            raise RuntimeError(f"metric lost positivity at t = {t:.4f}")

    times, dt_first = sa._integrate(
        lambda gcur: rhs(grid, gcur, band), g0, t_end,
        lambda gcur: sa.stable_timestep(np.linalg.inv(gcur), grid.spacing, cfl),
        lambda gcur: np.copyto(gcur, grid.G, where=outside), record_every, observe,
    )
    l2_dev, sup_dev, eig_trace = map(np.asarray, (l2_dev, sup_dev, eig_trace))
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
