"""Integral identities, spectral bounds, and linearized evolution.

The quadratic-form identities verified here, for compactly supported
symmetric 2-tensors h on the background:

    ||nabla h||^2 = (1/2) ||T||^2 + ||delta h||^2 + lam ||h||^2 + R(h, h)
    (A h, h)      = -||nabla h||^2 + 2 R(h, h)
                  = -(1/2) ||T||^2 - ||delta h||^2 - lam ||h||^2 + R(h, h)

with T the antisymmetrized derivative three-tensor, R(h, h) the integrated
curvature pairing, lam the Einstein constant, and A = Delta_L - 2 lam the
stability operator.  The quadratic form satisfies
(A h, h) <= -((m-1)/2) c ||h||^2.

Each identity is reported with two residual normalizations: the acceptance
normalization |lhs - rhs| / max(|lhs|, 1), and a term-relative one dividing
by the sum of the absolute values of all terms, which is scale-free and is
the quantity whose convergence order is measured.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .chart_geometry import ChartGrid
from .frame_algebra import stability_bound_coefficient
from . import tensor_calculus as tc

__all__ = [
    "random_bump_tensor",
    "perturbed_metric",
    "EnergyReport",
    "energy_report",
    "ConvergenceReport",
    "bochner_convergence",
    "DecayTrace",
    "stable_timestep",
    "linearized_flow",
    "linearization_consistency",
]


def _bump_profile(pts: np.ndarray, center: np.ndarray, width: float, power: int) -> np.ndarray:
    u2 = np.sum((pts - center) ** 2, axis=-1) / width**2
    return np.clip(1.0 - u2, 0.0, None) ** power


def random_bump_tensor(
    grid: ChartGrid,
    seed: int,
    n_bumps: int = 3,
    width_range: tuple[float, float] = (0.1, 0.14),
    amplitude: float = 0.05,
    support_radius: float | None = None,
    power: int = 6,
) -> tc.TensorField:
    """Random smooth compactly supported symmetric 2-tensor field.

    A sum of `n_bumps` polynomial bumps, each multiplying an independent
    random constant symmetric matrix of Frobenius norm `amplitude`.  All
    bumps fit inside the Euclidean ball of `support_radius` (default: leaves
    a two-cell margin to the grid boundary), so the field vanishes near the
    boundary and discrete integration by parts is exact.
    """
    rng = np.random.default_rng(seed)
    n = 2 * grid.m
    if support_radius is None:
        support_radius = grid.box_half - 2 * grid.spacing
    comp = np.zeros(grid.shape + (n, n))
    for _ in range(n_bumps):
        w = rng.uniform(*width_range)
        if w >= support_radius:
            raise ValueError("bump width exceeds the support radius")
        while True:  # uniform center in the admissible Euclidean ball
            center = rng.uniform(-1.0, 1.0, size=n) * (support_radius - w)
            if np.linalg.norm(center) <= support_radius - w:
                break
        mat = rng.standard_normal((n, n))
        mat = mat + mat.T
        mat *= amplitude / np.linalg.norm(mat)
        # the profile is 0 beyond center +- w on every axis: one cell past
        # that, the box holds every cell it is nonzero on
        lo = np.maximum(np.searchsorted(grid.axes, center - w) - 1, 0)
        hi = np.searchsorted(grid.axes, center + w, side="right") + 1
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        comp[box] += _bump_profile(grid.points[box], center, w, power)[..., None, None] * mat
    # 1e-9 guards against roundoff in box_half - 2 * spacing pushing the
    # exact-integer cell count just below its value
    margin = int(math.floor((grid.box_half - support_radius) / grid.spacing + 1e-9))
    return tc.sym_tensor(grid, comp, margin=max(margin, 0))


def perturbed_metric(
    grid: ChartGrid, amp: float, seed: int, tau: float = 1.0
) -> np.ndarray:
    """Background plus a seeded bump of weighted-sup size exactly amp.

    The bump profile is fixed (three bumps, widths 0.24 to 0.26, support
    radius 0.28) and rescaled so that sup e^{tau r} |h| = amp, matching the
    weighted deviation recorded by the flow trace at t = 0.
    """
    h = random_bump_tensor(
        grid, seed, n_bumps=3, width_range=(0.24, 0.26), amplitude=1.0,
        support_radius=0.28,
    )
    w = np.exp(tau * grid.r_geo)
    sup = float(np.max(w[..., None, None] * np.abs(h.comp)))
    return grid.G + (amp / sup) * h.comp


@dataclass(frozen=True)
class EnergyReport:
    """All terms of the quadratic-form identities for one field."""

    m: int
    c: float
    norm_sq: float
    grad_sq: float
    half_t_sq: float
    div_sq: float
    lam_norm_sq: float
    curvature_term: float
    quad_form: float  # (A h, h), assembled directly from the operator
    bochner_residual: float
    bochner_residual_relative: float
    energy_residual: float
    energy_residual_relative: float
    rayleigh_quotient: float
    rayleigh_bound: float

    @property
    def rayleigh_satisfied(self) -> bool:
        return self.rayleigh_quotient <= self.rayleigh_bound + 1e-9


def _residual_pair(lhs: float, rhs: float, terms: list[float]) -> tuple[float, float]:
    gap = abs(lhs - rhs)
    return gap / max(abs(lhs), 1.0), gap / sum(abs(t) for t in terms)


def _log_slope(x, y) -> float:
    # least-squares slope of log y against log x; nan unless every y > 0
    y = np.asarray(y)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0]) if np.all(y > 0) else math.nan


def energy_report(h: tc.TensorField) -> EnergyReport:
    """Evaluate both integral identities and the Rayleigh bound for h.

    The field should be compactly supported inside the grid
    (support_margin >= 2); otherwise the discarded boundary terms pollute
    the residuals.  Every term is evaluated on the support window of h:
    the bounding box of its nonzero cells widened by the 2 cells that A
    reaches (clamped to the grid), where each pointwise value is the
    full-grid one, and integrated on the grid, so each term is the same
    float as from the public functions on the full grid.
    """
    grid = h.grid
    if h.support_margin < 2:
        raise ValueError("energy_report needs a field with support_margin >= 2")
    cells = np.nonzero(np.any(h.comp, axis=(-2, -1)))  # per-axis indices
    if not cells[0].size:
        raise ValueError("energy_report needs a nonzero field")
    lo = tuple(max(int(ix.min()) - 2, 0) for ix in cells)
    hi = tuple(min(int(ix.max()) + 3, n) for ix, n in zip(cells, grid.shape))
    win = tc._window(grid, lo, hi)
    hw = tc.TensorField(win, h.comp[win.box], 2)
    lam = tc._lam(grid)
    norm_sq = tc.l2_norm_sq(hw)
    curv = tc.l2_inner(tc.curvature_action(hw), hw)
    quad = tc.l2_inner(tc.stability_operator(hw, 2), hw)
    nab = tc.covariant_derivative(hw)  # one nabla h for |nabla h|^2, delta h and T
    grad_sq = tc.l2_norm_sq(nab)
    div_sq = tc.l2_norm_sq(tc.TensorField(win, tc._divergence(nab.comp, win.Ginv)))
    t = tc.TensorField(win, tc._three_tensor(nab.comp))
    del nab  # T's pairing is the report's peak: no second rank-3 array there
    half_t_sq = 0.5 * tc.l2_norm_sq(t)

    bochner_rhs = half_t_sq + div_sq + lam * norm_sq + curv
    b_res, b_rel = _residual_pair(
        grad_sq, bochner_rhs, [grad_sq, half_t_sq, div_sq, lam * norm_sq, curv]
    )
    energy_rhs = -half_t_sq - div_sq - lam * norm_sq + curv
    e_res, e_rel = _residual_pair(
        quad, energy_rhs, [quad, half_t_sq, div_sq, lam * norm_sq, curv]
    )
    bound = float(stability_bound_coefficient(grid.m, 1)) * grid.c
    return EnergyReport(
        m=grid.m,
        c=grid.c,
        norm_sq=norm_sq,
        grad_sq=grad_sq,
        half_t_sq=half_t_sq,
        div_sq=div_sq,
        lam_norm_sq=lam * norm_sq,
        curvature_term=curv,
        quad_form=quad,
        bochner_residual=b_res,
        bochner_residual_relative=b_rel,
        energy_residual=e_res,
        energy_residual_relative=e_rel,
        rayleigh_quotient=quad / norm_sq,
        rayleigh_bound=bound,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    spacings: tuple[float, ...]
    bochner_residuals: tuple[float, ...]
    bochner_relative: tuple[float, ...]
    energy_residuals: tuple[float, ...]
    energy_relative: tuple[float, ...]
    bochner_order: float
    energy_order: float


def bochner_convergence(
    m: int,
    c: float,
    spacings: tuple[float, ...] = (0.1, 0.05, 0.04),
    box_half: float = 0.4,
    seed: int = 1,
    **bump_kwargs,
) -> ConvergenceReport:
    """Residuals of both identities across grid refinements, with the fitted
    convergence order of the term-relative residuals.

    The same continuum field (same seed and bump parameters, evaluated on
    each grid) is used throughout, so the sequence measures pure
    discretization error.
    """
    b_res, b_rel, e_res, e_rel = [], [], [], []
    support = box_half - 2 * max(spacings)
    for s in spacings:
        grid = ChartGrid(m=m, c=c, box_half=box_half, spacing=s)
        h = random_bump_tensor(grid, seed=seed, support_radius=support, **bump_kwargs)
        rep = energy_report(h)
        b_res.append(rep.bochner_residual)
        b_rel.append(rep.bochner_residual_relative)
        e_res.append(rep.energy_residual)
        e_rel.append(rep.energy_residual_relative)
    return ConvergenceReport(
        spacings=tuple(spacings),
        bochner_residuals=tuple(b_res),
        bochner_relative=tuple(b_rel),
        energy_residuals=tuple(e_res),
        energy_relative=tuple(e_rel),
        bochner_order=_log_slope(spacings, b_rel),
        energy_order=_log_slope(spacings, e_rel),
    )


# ---------------------------------------------------------------------------
# linearized evolution

@dataclass(frozen=True)
class DecayTrace:
    """L^2 norm history of a linear evolution, its decay rate and first step."""

    times: np.ndarray
    norms: np.ndarray
    rate: float
    fit_window: tuple[int, int]
    dt: float

    @property
    def initial_norm(self) -> float:
        return float(self.norms[0])


def stable_timestep(ginv: np.ndarray, spacing: float, cfl: float = 0.4) -> float:
    """Parabolic step limit dt = cfl * spacing^2 / sup tr(g^{-1}).

    The leading symbol of all operators here is g^{ab} d_a d_b, so the
    explicit-step restriction scales with the largest trace of the inverse
    metric `ginv` (shape grid.shape + (n, n)) on the grid.
    """
    sup_tr = float(np.max(np.einsum("...aa->...", ginv)))
    return cfl * spacing**2 / sup_tr


# midpoint step's real-axis limit dt rho < 2; here rho <= sup tr(g^{-1})/spacing^2
_LINEAR_CFL_BOUND = 2


def _integrate(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_end: float,
    step_limit: Callable[[np.ndarray], float],
    pin: Callable[[np.ndarray], None],
    record_every: int,
    observe: Callable[[float, np.ndarray], None],
) -> tuple[np.ndarray, float]:
    """Explicit midpoint steps of dy/dt = rhs(y) from t = 0 to exactly t_end.

    dt = min(step_limit(y), t_end - t), with a remainder below roundoff
    absorbed into the last step.  pin(y) fixes the boundary band in place
    after every stage; every state is checked for non-finite values
    (RuntimeError) and observe(t, y) is called at t = 0, every record_every
    steps and at t_end.  Returns the observed times and the first dt.
    """
    y = y0.copy()
    pin(y)
    t, step, dt_first, times = 0.0, 0, math.nan, []
    while True:
        if not np.isfinite(y).all():
            raise RuntimeError(f"flow produced non-finite values at t = {t:.4f}")
        if step % record_every == 0 or t >= t_end:
            times.append(t)
            observe(t, y)
        if t >= t_end:
            return np.asarray(times), dt_first
        dt = step_limit(y)
        last = t_end - t - dt <= 1e-10 * t_end
        if last:
            dt = t_end - t
        mid = y + 0.5 * dt * rhs(y)
        pin(mid)
        y = y + dt * rhs(mid)
        pin(y)
        t = t_end if last else t + dt
        dt_first = dt if step == 0 else dt_first
        step += 1


def _fit_decay_rate(
    times: np.ndarray, norms: np.ndarray, window: tuple[float, float]
) -> tuple[float, tuple[int, int]]:
    n0 = norms[0]
    lo, hi = window
    sel = np.nonzero((norms <= hi * n0) & (norms >= lo * n0))[0]
    if sel.size < 3:
        raise RuntimeError(
            "not enough trace points in the fit window; run the flow longer"
        )
    i0, i1 = int(sel[0]), int(sel[-1])
    slope = np.polyfit(times[i0 : i1 + 1], np.log(norms[i0 : i1 + 1]), 1)[0]
    return float(-slope), (i0, i1)


def linearized_flow(
    h0: tc.TensorField,
    t_end: float,
    cfl: float = 0.4,
    band: int = 2,
    record_every: int = 1,
    fit_window: tuple[float, float] = (0.01, 0.3),
) -> DecayTrace:
    """Evolve dh/dt = A h to exactly t_end with the shared `_integrate`.

    The step is `stable_timestep` on the background (the last one shorter
    to land on t_end); cfl must stay below the midpoint step's limit of 2,
    or ValueError is raised.  The boundary band of `band` cells is pinned
    to zero after every stage, and A h is computed only inside it, on box
    `band` of `tensor_calculus`; the L^2 norm is recorded every
    `record_every` steps and at t_end, and the decay rate is fitted on the
    window where the norm lies between the given fractions of its initial
    value (above any floor, below the transient).
    """
    if not cfl < _LINEAR_CFL_BOUND:
        raise ValueError(f"cfl must be below {_LINEAR_CFL_BOUND}")
    grid = h0.grid
    step = stable_timestep(grid.Ginv, grid.spacing, cfl)
    outside = ~grid.interior_mask(band)[..., None, None]
    norms = []
    times, dt = _integrate(
        lambda arr: tc.stability_operator(tc.TensorField(grid, arr, 0), band).comp,
        h0.comp, t_end, lambda arr: step,
        lambda arr: np.copyto(arr, 0.0, where=outside), record_every,
        lambda t, arr: norms.append(tc.l2_norm_sq(tc.TensorField(grid, arr, 0))),
    )
    norms = np.sqrt(norms)
    rate, window = _fit_decay_rate(times, norms, fit_window)
    return DecayTrace(times=times, norms=norms, rate=rate, fit_window=window, dt=dt)


def linearization_consistency(
    h: tc.TensorField,
    s_values: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3),
) -> dict:
    """Gap between the nonlinear gauged flow map at g_B + s h and s A h.

    Computes D(s) = [Q(g_B + s h) - Q(g_B)] / s and returns the gaps
    |D(s) - A h| (interior sup, relative to the sup of A h) for each s,
    plus the fitted order in s.  The gaps decrease at first order (the
    first nonlinear correction is quadratic in s) down to a grid floor:
    D(s) tends to the discrete linearization, which differs from the
    discrete A h by truncation error that is independent of s.  The floor
    is estimated from an extra evaluation at s = 1e-5 and reported.
    """
    from . import flow_engine as fe

    grid = h.grid
    ah = tc.stability_operator(h, 2).comp
    mask = grid.interior_mask(3)  # inside box 2, the box the terms are computed on
    scale = float(np.max(np.abs(ah[mask]))) or 1.0  # h = 0 gives raw gaps
    base = fe.deturck_rhs(grid, grid.G, 2)

    def gap(s: float) -> float:
        q = fe.deturck_rhs(grid, grid.G + s * h.comp, 2)
        return float(np.max(np.abs(((q - base) / s - ah)[mask]))) / scale

    gaps = [gap(s) for s in s_values]
    floor = gap(1e-5)
    return {
        "s_values": tuple(s_values),
        "gaps": tuple(gaps),
        "order": _log_slope(s_values, gaps),
        "grid_floor": floor,
        "excess_order": _log_slope(s_values, np.asarray(gaps) - floor),
    }
