"""Exponentially weighted Holder-type norms on geodesic annuli, K-functional
upper bounds, and resolvent ray integrals.

The space is covered by overlapping geodesic annuli about the origin,

    A_1 = B_4,    A_N = B_{N+3} \\ B_{N-1}  (N >= 2),

with radii in geodesic units.  A field h is measured by weighted sums of
boundary-distance-damped derivative sups and Holder quotients per annulus,

    |h|'_{q;A_N} = sup d_x^q |d^l h(x)|   (|l| = q),
    [h]'_{k+a;A_N} = sup d_xy^{k+a} |d^l h(x) - d^l h(y)| / d(x,y)^a,

    norm = sup_N e^{N tau} ( sum_{q<=k} |h|'_q + [h]'_{k+a} ),

where d_x is the geodesic distance to the annulus boundary capped at 2 and
d_xy = min(d_x, d_y).  Coordinate (not covariant) derivatives enter the
seminorms; covariant derivatives appear only in the Sobolev quadrature.

Sampling realities, stated once and relied on throughout: one evaluator,
`_annulus_parts`, takes the sups on two point sets, the grid points with
Holder pairs from seeded anchors plus lagged grid neighbors (`weighted_norm`)
and an anchor set with all ordered anchor pairs (the K-functional), so both
are lower-bound surrogates of the true sups; annuli beyond the grid are
covered by a certified tail bound from a caller-declared decay envelope,
and K(t, h) is an upper bound (the infimum over all decompositions is not
computable; we minimize over the identity decomposition and one mollifier
pair).  The curvature scale c of the sampling grid controls how much of
the space fits inside the coordinate unit ball: the default c = 1/16 puts
the geodesic ball B_7 inside the inscribed disc of the largest admissible
square chart, so the first four annuli are fully resolved at m = 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chart_geometry import ChartGrid, distance, geodesic_from, sphere_area, _simpson
from . import tensor_calculus as tc

__all__ = [
    "sampling_grid",
    "AnnuliDecomposition",
    "WeightedNormReport",
    "weighted_norm",
    "little_modulus",
    "SobolevReport",
    "sobolev_embedding_check",
    "KFunctionalCurve",
    "k_functional",
    "theta_norm",
    "interp_inequality_check",
    "ResolventReport",
    "resolvent_bound_check",
]

PAIR_CAP = 2.0  # boundary-distance cap; also the largest pair distance used


def sampling_grid(
    m: int = 1, spacing: float = 0.005, box_half: float = 0.705, c: float = 0.0625
) -> ChartGrid:
    """Default chart for weighted-norm experiments (annuli through B_7)."""
    return ChartGrid(m=m, c=c, box_half=box_half, spacing=spacing)


class AnnuliDecomposition:
    """Overlapping geodesic annuli of a chart grid.

    Annulus N is fully resolved when its outer ball B_{N+3} lies inside the
    inscribed geodesic ball of the square chart (radius `coverage_radius`);
    `n_max` is the largest such N.  Interior boundary distances are capped
    at 2, so pair distances never exceed 2 either.
    """

    def __init__(self, grid: ChartGrid, n_max: int | None = None):
        self.grid = grid
        self.coverage_radius = (2.0 / math.sqrt(grid.c)) * math.atanh(grid.box_half)
        auto = int(math.floor(self.coverage_radius - 3.0))
        if auto < 1:
            raise ValueError("grid too small: the first annulus (B_4) is not covered")
        if n_max is None:
            n_max = auto
        elif n_max > auto:
            raise ValueError(f"annulus {n_max} reaches past the grid (max {auto})")
        self.n_max = n_max
        self._r = grid.r_geo

    def bounds(self, n: int) -> tuple[float, float]:
        if n < 1:
            raise ValueError("annulus index starts at 1")
        return (0.0, 4.0) if n == 1 else (float(n - 1), float(n + 3))

    def mask(self, n: int) -> np.ndarray:
        lo, hi = self.bounds(n)
        return (self._r > lo) & (self._r <= hi) if n > 1 else self._r <= hi

    def boundary_distance(self, n: int) -> np.ndarray:
        """d_x = d(x, boundary of A_N), capped at 2; valid where mask(n)."""
        lo, hi = self.bounds(n)
        d = hi - self._r if n == 1 else np.minimum(hi - self._r, self._r - lo)
        return np.minimum(d, PAIR_CAP)

    def weight_exponent(self, r: np.ndarray) -> np.ndarray:
        """Largest annulus index containing radius r (pointwise weight e^{N tau})."""
        r = np.asarray(r, dtype=float)
        return np.maximum(1, np.ceil(r + 1.0 - 1e-12).astype(int) - 1)


# ---------------------------------------------------------------------------
# derivative stacks and anchor machinery


def _derivative_stack(h: tc.TensorField, k: int) -> list[np.ndarray]:
    """Coordinate-derivative levels 0..k, trailing axes flattened."""
    grid, n = h.grid, 2 * h.grid.m
    levels = [h.comp.reshape(grid.shape + (-1,))]
    for _ in range(k):  # the shared first difference per axis, new axis last
        diffs = [tc._diff(levels[-1], a, n, grid.spacing, 0) for a in range(n)]
        levels.append(np.stack(diffs, axis=-1).reshape(grid.shape + (-1,)))
    return levels


def _anchor_indices(
    annuli: AnnuliDecomposition, n: int, count: int, seed: int
) -> np.ndarray:
    flat = np.flatnonzero(annuli.mask(n).ravel())
    if flat.size <= count:
        return flat
    rng = np.random.default_rng(1000003 * seed + n)
    return np.sort(rng.choice(flat, size=count, replace=False))


_NEIGHBOR_LAGS = (1, 2, 4, 8, 16, 32)


def _pair_arrays(
    annuli: AnnuliDecomposition, n: int, n_anchors: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pair index lists on annulus n: all anchor-anchor pairs plus
    lagged grid neighbors of each anchor (these resolve separations down to
    one grid step, which the anchor cloud alone cannot)."""
    idx = _anchor_indices(annuli, n, n_anchors, seed)
    ii, jj = np.triu_indices(idx.size, k=1)
    pairs_i, pairs_j = [idx[ii]], [idx[jj]]
    mask_flat = annuli.mask(n).ravel()
    shape = annuli.grid.shape
    coords = np.array(np.unravel_index(idx, shape)).T
    for lag in _NEIGHBOR_LAGS:
        for a in range(len(shape)):
            nb = coords.copy()
            nb[:, a] += lag
            ok = nb[:, a] < shape[a]
            if not np.any(ok):
                continue
            nb_flat = np.ravel_multi_index(tuple(nb[ok].T), shape)
            keep = mask_flat[nb_flat]
            pairs_i.append(idx[ok][keep])
            pairs_j.append(nb_flat[keep])
    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def _annulus_parts(
    c: float,
    points: np.ndarray,
    d_x: np.ndarray,
    levels: list[np.ndarray],
    sel: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray] | None,
    alpha: float | None,
    cap: float = PAIR_CAP,
) -> tuple[float, float]:
    """(sum_{q<=k} sup d_x^q |d^q h|, Holder quotient sup) on one annulus.

    Row p of points (P, 2m), d_x (P,) and levels[q] (P, L_q) is one sample
    point: its coordinates, capped boundary distance and order-q derivatives
    (q = 0..k, `_derivative_stack` layout).  sel indexes the annulus's points
    and pairs = (i, j) the pairs of its quotient, of which those at distance
    0 or beyond cap are skipped; the quotient is 0 when alpha is None.
    """
    k = len(levels) - 1
    s = sum(  # sups over empty sets of these nonnegative terms are 0
        float(np.max(d_x[sel] ** q * np.max(np.abs(lv[sel]), axis=-1), initial=0.0))
        for q, lv in enumerate(levels)
    )
    if alpha is None or pairs[0].size == 0:
        return s, 0.0
    i, j = pairs
    dist = distance(c, points[i], points[j])
    ok = (dist > 0) & (dist <= cap)
    i, j, dist = i[ok], j[ok], dist[ok]
    d_pair = np.minimum(d_x[i], d_x[j])
    gap = np.max(np.abs(levels[k][i] - levels[k][j]), axis=-1)
    quot = d_pair ** (k + alpha) * gap / dist**alpha
    return s, float(np.max(quot, initial=0.0))


def _grid_rows(
    h: tc.TensorField,
    annuli: AnnuliDecomposition,
    k: int,
    alpha: float | None,
    cap: float,
    n_anchors: int,
    seed: int,
    jobs: int,
) -> list[tuple[float, float]]:
    """`_annulus_parts` of annuli 1..n_max on the grid points, with the
    seeded anchor-plus-lag pairs, threaded over annuli."""
    grid = annuli.grid
    pts = grid.points.reshape(-1, 2 * grid.m)
    levels = [lv.reshape(len(pts), -1) for lv in _derivative_stack(h, k)]

    def one_annulus(n: int) -> tuple[float, float]:
        d_x = annuli.boundary_distance(n).ravel()
        sel = np.flatnonzero(annuli.mask(n))
        pairs = _pair_arrays(annuli, n, n_anchors, seed) if alpha is not None else None
        return _annulus_parts(grid.c, pts, d_x, levels, sel, pairs, alpha, cap)

    return _map_jobs(one_annulus, range(1, annuli.n_max + 1), jobs)


def _validate(annuli: AnnuliDecomposition, k: int, alpha: float | None, tau: float):
    if tau <= annuli.grid.m / 2.0:
        raise ValueError(f"tau must exceed m/2 = {annuli.grid.m / 2.0}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k not in (0, 1, 2):
        raise ValueError("derivative order k must be 0, 1, or 2")


def _tail_bound(
    envelope: tuple[float, float] | None, k: int, tau: float, n_start: int
) -> float:
    """sup_{N >= n_start} of the annulus sum certified by |d^l h| <= amp e^{-rate r}.

    Requires the envelope to hold for derivative orders up to k+1 (the
    Holder quotient is bounded through the mean value theorem).  Infinite
    when the declared decay does not beat the weight.
    """
    if envelope is None:
        return math.nan
    amp, rate = envelope
    if rate <= tau:
        return math.inf
    geom = sum(2.0**q for q in range(k + 1)) + 2.0 ** (k + 1)
    return amp * math.exp(rate) * geom * math.exp(n_start * (tau - rate))


def _map_jobs(fn, items, jobs: int) -> list:
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, items))  # order-preserving
    return [fn(x) for x in items]


@dataclass(frozen=True)
class WeightedNormReport:
    """Per-annulus weighted sums, their sup, and the certified tail."""

    total: float
    per_annulus: tuple[float, ...]
    seminorm_sums: tuple[float, ...]
    holder_parts: tuple[float, ...]
    n_max: int
    tail_bound: float
    tau: float
    k: int
    alpha: float | None

    @property
    def grid_restricted(self) -> bool:
        return math.isnan(self.tail_bound)


def weighted_norm(
    h: tc.TensorField,
    k: int,
    alpha: float | None,
    tau: float,
    annuli: AnnuliDecomposition | None = None,
    envelope: tuple[float, float] | None = None,
    n_anchors: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> WeightedNormReport:
    """Weighted Holder norm of a sampled field over the annuli.

    Derivatives are finite differences on the chart grid; per-annulus sups
    run over grid points, Holder quotients over seeded anchor pairs with
    pair distance at most 2.  `alpha=None` computes the integer-order norm
    (no Holder part).  `envelope=(amp, rate)` declares
    |d^l h| <= amp e^{-rate r} for orders l <= k+1, from which annuli
    beyond the grid get a certified tail bound; without it the total is
    grid-restricted (tail reported as nan).

    Args:
      h: symmetric-tensor (or any) field on a sampling grid.
      k: highest derivative order entering the sums (0, 1, or 2).
      alpha: Holder exponent in (0, 1), or None for the integer norm.
      tau: weight rate; must exceed m/2.
      annuli: decomposition to use (default: built from h's grid).
      envelope: optional decay certificate for the tail.
      n_anchors: anchor budget per annulus for the pair search.
      seed: anchor-selection seed (same seed => same anchors).
      jobs: worker threads for the independent per-annulus computations;
        results are assembled by annulus index, so the report is the same
        for any jobs value.

    Returns:
      WeightedNormReport with per-annulus data and the overall sup.
    """
    if annuli is None:
        annuli = AnnuliDecomposition(h.grid)
    _validate(annuli, k, alpha, tau)
    rows = _grid_rows(h, annuli, k, alpha, PAIR_CAP, n_anchors, seed, jobs)
    sums, hols = zip(*rows)
    weighted = [math.exp(n * tau) * (s + hol) for n, (s, hol) in enumerate(rows, 1)]
    tail = _tail_bound(envelope, k, tau, annuli.n_max + 1)
    total = max(weighted)
    if not math.isnan(tail):
        total = max(total, tail)
    return WeightedNormReport(
        total=total,
        per_annulus=tuple(weighted),
        seminorm_sums=tuple(sums),
        holder_parts=tuple(hols),
        n_max=annuli.n_max,
        tail_bound=tail,
        tau=tau,
        k=k,
        alpha=alpha,
    )


def little_modulus(
    h: tc.TensorField,
    k: int,
    alpha: float,
    tau: float,
    t: float,
    annuli: AnnuliDecomposition | None = None,
    n_anchors: int = 1000,
    seed: int = 0,
) -> float:
    """Holder part of the weighted norm restricted to pair distances <= t.

    Uses the same seeded anchors as weighted_norm, so the value is
    nondecreasing in t and bounded by the full norm by construction.
    Vanishing as t -> 0 (down to the sampling floor) characterizes the
    little-Holder class the flow's function spaces are built on.
    """
    if annuli is None:
        annuli = AnnuliDecomposition(h.grid)
    _validate(annuli, k, alpha, tau)
    if t <= 0:
        raise ValueError("t must be positive")
    rows = _grid_rows(h, annuli, k, alpha, min(t, PAIR_CAP), n_anchors, seed, 1)
    return max(math.exp(n * tau) * hol for n, (_, hol) in enumerate(rows, 1))


# ---------------------------------------------------------------------------
# Sobolev embedding


@dataclass(frozen=True)
class SobolevReport:
    integral: float
    integral_tail: float
    norm_total: float
    lemma_constant: float
    implementation_factor: float
    bound: float
    satisfied: bool
    margin: float
    xi: float


def sobolev_embedding_check(
    h: tc.TensorField,
    tau: float,
    annuli: AnnuliDecomposition | None = None,
    alpha: float = 0.5,
    envelope: tuple[float, float] | None = None,
    implementation_factor: float = 10.0,
) -> SobolevReport:
    """Square-integrability controlled by the weighted norm.

    Computes the quadrature of |h|^2 + |grad h|^2 over the covered geodesic
    ball (metric norms, covariant gradient) and compares against
    C(m, xi) * ||h||_{1+alpha; tau}^2 with xi = 2 tau - m and

        C(m, xi) = e^{m - xi} + e^{2m} e^{-2 xi} / (1 - e^{-2 xi}),

    times an implementation factor.  An envelope (amp, rate) declaring
    |h|_g, |grad h|_g <= amp e^{-rate r} outside the grid adds a certified
    tail to the integral side; compactly supported fields need none.
    """
    if annuli is None:
        annuli = AnnuliDecomposition(h.grid)
    grid = h.grid
    xi = 2.0 * tau - grid.m
    if xi <= 0:
        raise ValueError(f"tau must exceed m/2 = {grid.m / 2.0}")
    lemma_c = math.exp(grid.m - xi) + math.exp(2 * grid.m) * math.exp(-2 * xi) / (
        1.0 - math.exp(-2 * xi)
    )
    nab = tc.covariant_derivative(h)
    h2 = tc._pairing(h.comp, h.comp, grid.Ginv)
    nh2 = tc._pairing(nab.comp, nab.comp, grid.Ginv)
    inside = grid.r_geo <= annuli.coverage_radius
    integral = grid.integrate((h2 + nh2) * inside)
    tail = 0.0
    if envelope is not None:
        amp, rate = envelope
        r0 = annuli.coverage_radius
        rr = np.linspace(r0, r0 + 40.0 / rate, 4097)
        dens = 2.0 * amp**2 * np.exp(-2.0 * rate * rr) * sphere_area(
            grid.m, grid.c, rr
        )
        tail = _simpson(dens, rr[1] - rr[0])
    norm = weighted_norm(h, 1, alpha, tau, annuli, envelope=envelope).total
    bound = implementation_factor * lemma_c * norm**2
    lhs = integral + tail
    return SobolevReport(
        integral=integral,
        integral_tail=tail,
        norm_total=norm,
        lemma_constant=lemma_c,
        implementation_factor=implementation_factor,
        bound=bound,
        satisfied=bool(lhs <= bound),
        margin=bound / lhs if lhs > 0 else math.inf,
        xi=xi,
    )


# ---------------------------------------------------------------------------
# K-functional and interpolation


def _kernel(u: np.ndarray) -> np.ndarray:
    # smooth compactly supported bump (1 - u^2)^4 on the unit ball
    return np.clip(1.0 - u**2, 0.0, None) ** 4


def _kernel_euclid_mass(n: int) -> float:
    # integral of the kernel over flat R^n (reference for C_t -> 1 as t -> 0)
    surf = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    u = np.linspace(0.0, 1.0, 4097)
    return surf * _simpson(_kernel(u) * u ** (n - 1), u[1] - u[0])


@dataclass(frozen=True)
class KFunctionalCurve:
    """Sampled upper bounds on K(t, h) for one interpolation couple.

    norm_x and norm_y are the anchor-surrogate endpoint norms the curve is
    built from; ratios against the curve should use these, not the denser
    full-grid norms, so both sides share one sampling scheme.
    """

    ts: tuple[float, ...]
    k_upper: tuple[float, ...]
    chosen: tuple[str, ...]
    c_t_range: tuple[float, float]
    norm_x: float
    norm_y: float
    x_class: tuple[int, float | None]
    y_class: tuple[int, float | None]
    tau: float


class _AnchorSet:
    """Stratified anchors (with FD stencils) on annuli where a mollifier of
    width t_max still fits inside the covered ball; t_max = 0 keeps every
    annulus of the decomposition."""

    def __init__(
        self,
        annuli: AnnuliDecomposition,
        t_max: float,
        per_annulus: int,
        seed: int,
        need_stencil: bool,
    ):
        grid = annuli.grid
        usable = int(math.floor(annuli.coverage_radius - 3.0 - t_max))
        usable = min(usable, annuli.n_max)
        if usable < 1:
            raise ValueError(
                f"mollifier of width {t_max} does not fit next to any full annulus"
            )
        self.annuli = annuli
        self.n_usable = usable
        ns = range(1, usable + 1)
        idx = [_anchor_indices(annuli, n, per_annulus, seed) for n in ns]
        self.flat = np.concatenate(idx)
        self.annulus = np.concatenate([np.full(i.size, n) for n, i in zip(ns, idx)])
        self.points = grid.points.reshape(-1, 2 * grid.m)[self.flat]
        self.d_x = np.concatenate(
            [annuli.boundary_distance(n).ravel()[i] for n, i in zip(ns, idx)]
        )
        n_ax = 2 * grid.m
        self.stencil = 1 + 2 * n_ax if need_stencil else 1
        offs = np.zeros((self.stencil, n_ax))  # the center, then +-spacing per axis
        for a in range(self.stencil // 2):
            offs[1 + 2 * a, a] = grid.spacing
            offs[2 + 2 * a, a] = -grid.spacing
        self.eval_points = (self.points[:, None, :] + offs).reshape(-1, n_ax)

    def derivative(self, vals: np.ndarray) -> np.ndarray:
        # central differences from the stencil layout above, stacked as in
        # _derivative_stack: components, then the axis last
        grid = self.annuli.grid
        v = vals.reshape(-1, self.stencil, vals.shape[-1])
        diffs = [
            (v[:, 1 + 2 * a] - v[:, 2 + 2 * a]) / (2.0 * grid.spacing)
            for a in range(2 * grid.m)
        ]
        return np.stack(diffs, axis=-1).reshape(len(v), -1)

    def norm(
        self, levels: list[np.ndarray], kcls: int, alpha: float | None, tau: float
    ) -> float:
        """Anchor surrogate of the weighted (kcls + alpha) norm from the
        derivative levels at the anchors, over every ordered anchor pair."""
        best = 0.0
        for n in range(1, self.n_usable + 1):
            rows = np.flatnonzero(self.annulus == n)
            i, j = np.nonzero(~np.eye(rows.size, dtype=bool))
            s, hol = _annulus_parts(
                self.annuli.grid.c, self.points, self.d_x, levels[: kcls + 1],
                rows, (rows[i], rows[j]), alpha,
            )
            best = max(best, math.exp(n * tau) * (s + hol))
        return best


def _mollify(
    anchors: _AnchorSet, h: tc.TensorField, ts: list[float], chunk: int = 64
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pointwise-normalized mollification at the anchor evaluation points.

    Returns one (values, c_t) pair per scale in ts, where c_t is the kernel
    mass against the hyperbolic measure relative to its flat-space value
    (1 in flat space, slightly above 1 at these scales by volume comparison).
    Each block of anchors meets the grid through one `distance` call shared
    by every scale, and the kernel is evaluated only where d < t: elsewhere
    it is exactly 0, so the weights, their full-grid sums and products are
    the same floats as a dense evaluation.
    """
    grid = anchors.annuli.grid
    n = 2 * grid.m
    pts_all = grid.points.reshape(-1, n)
    dens = (grid.sqrt_det * grid.cell_volume).ravel()
    hv = h.comp.reshape(len(pts_all), -1)
    n_eval = len(anchors.eval_points)
    z_flat = [_kernel_euclid_mass(n) * t**n for t in ts]
    out = [(np.empty((n_eval, hv.shape[-1])), np.empty(n_eval)) for _ in ts]
    for i0 in range(0, n_eval, chunk):
        block = anchors.eval_points[i0 : i0 + chunk]
        d = distance(grid.c, block[:, None, :], pts_all[None, :, :]).ravel()
        for t, z, (vals, mass) in zip(ts, z_flat, out):
            sel = np.flatnonzero(d < t)  # the kernel's support in this block
            w = np.zeros(d.size)
            w[sel] = _kernel(d[sel] / t) * dens[sel % len(dens)]
            w = w.reshape(len(block), -1)
            den = np.sum(w, axis=1)
            vals[i0 : i0 + chunk] = (w @ hv) / den[:, None]
            mass[i0 : i0 + chunk] = den / z
    return out


def k_functional(
    h: tc.TensorField,
    t_list,
    tau: float,
    x_class: tuple[int, float | None] = (0, None),
    y_class: tuple[int, float | None] = (1, None),
    annuli: AnnuliDecomposition | None = None,
    per_annulus: int = 60,
    seed: int = 0,
) -> KFunctionalCurve:
    """Upper bounds on the interpolation K-functional along sampled scales.

    For each t the candidates are the identity decomposition (h, 0), always
    admissible and the paper route for t >= 1, and the mollifier pair
    (h - b_t, b_t) with b_t a pointwise-normalized kernel average at scale
    t.  All norms are anchor surrogates over the annuli where the kernel
    support fits the covered ball, so the identity candidate and the
    mollifier candidate are comparable (and K(t, s h) = s K(t, h) holds
    exactly for power-of-two s).  The mollifications at all scales come
    from one pass over the anchors: each anchor block's distances to the
    grid are computed once and shared by every t, and the kernel is
    evaluated only where d < t (see _mollify).

    Args:
      h: field on a sampling grid.
      t_list: nonempty scales, each in (0, coverage margin]; see _AnchorSet.
      tau: weight rate (> m/2).
      x_class, y_class: (k, alpha) endpoint classes; k in {0, 1},
        alpha in (0,1) or None.
      annuli: decomposition (default from h's grid).
      per_annulus: anchors per annulus.
      seed: anchor seed.
    """
    if annuli is None:
        annuli = AnnuliDecomposition(h.grid)
    _validate(annuli, x_class[0], x_class[1], tau)
    _validate(annuli, y_class[0], y_class[1], tau)
    if x_class[0] > 1 or y_class[0] > 1:
        raise ValueError("anchor surrogates support k <= 1 endpoint classes")
    ts = [float(t) for t in t_list]
    if not ts:
        raise ValueError("scales must be a nonempty list")
    if any(t <= 0 for t in ts):
        raise ValueError("scales must be positive")
    need_stencil = x_class[0] >= 1 or y_class[0] >= 1
    anchors = _AnchorSet(annuli, max(ts), per_annulus, seed, need_stencil)
    stack = _derivative_stack(h, int(need_stencil))
    h_lv = [lv.reshape(-1, lv.shape[-1])[anchors.flat] for lv in stack]
    norm_x_h = anchors.norm(h_lv, x_class[0], x_class[1], tau)
    norm_y_h = anchors.norm(h_lv, y_class[0], y_class[1], tau)
    k_upper, chosen = [], []
    ct_lo, ct_hi = math.inf, -math.inf
    for t, (bvals, mass) in zip(ts, _mollify(anchors, h, ts)):
        ct_lo = min(ct_lo, float(np.min(mass)))
        ct_hi = max(ct_hi, float(np.max(mass)))
        b_lv = [bvals[:: anchors.stencil]]  # the stencil centers
        if need_stencil:
            b_lv.append(anchors.derivative(bvals))
        a_lv = [hl - bl for hl, bl in zip(h_lv, b_lv)]
        na = anchors.norm(a_lv, x_class[0], x_class[1], tau)
        nb = anchors.norm(b_lv, y_class[0], y_class[1], tau)
        cand = na + t * nb
        if cand < norm_x_h:
            k_upper.append(cand)
            chosen.append("mollifier")
        else:
            k_upper.append(norm_x_h)
            chosen.append("identity")
    return KFunctionalCurve(
        ts=tuple(ts),
        k_upper=tuple(k_upper),
        chosen=tuple(chosen),
        c_t_range=(ct_lo, ct_hi),
        norm_x=norm_x_h,
        norm_y=norm_y_h,
        x_class=x_class,
        y_class=y_class,
        tau=tau,
    )


def theta_norm(
    h: tc.TensorField,
    theta: float,
    tau: float,
    t_list=None,
    **kw,
) -> float:
    """max over sampled t of t^{-theta} K(t, h) (interpolation-norm surrogate)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if t_list is None:
        t_list = np.geomspace(0.2, 2.0, 6)
    return _theta_norm(k_functional(h, t_list, tau, **kw), theta)


def _theta_norm(curve: KFunctionalCurve, theta: float) -> float:
    # max over the curve's scales of t^{-theta} K(t)
    return max(t ** (-theta) * k for t, k in zip(curve.ts, curve.k_upper))


def interp_inequality_check(
    h: tc.TensorField,
    k: int,
    alpha: float | None,
    l: int,
    beta: float | None,
    theta: float,
    tau: float,
    t_list=None,
    annuli: AnnuliDecomposition | None = None,
    **kw,
) -> dict:
    """Empirical interpolation-inequality and reiteration ratios.

    Computes the theta-norm surrogate over the ((k, alpha), (l, beta))
    couple and reports its ratio to ||h||_X^{1-theta} ||h||_Y^theta and to
    the weighted norm of the reiteration target order
    (1-theta)(k+alpha) + theta(l+beta).  Both constants are measured, not
    assumed; boundedness across a field family is the testable claim.  The
    report's t_list is the scales the K-functional was sampled on.
    """
    if annuli is None:
        annuli = AnnuliDecomposition(h.grid)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if t_list is None:
        t_list = np.geomspace(0.2, 2.0, 6)
    curve = k_functional(
        h, t_list, tau, x_class=(k, alpha), y_class=(l, beta), annuli=annuli, **kw
    )
    tn = _theta_norm(curve, theta)
    product = curve.norm_x ** (1.0 - theta) * curve.norm_y**theta
    target = (1.0 - theta) * (k + (alpha or 0.0)) + theta * (l + (beta or 0.0))
    t_int = int(math.floor(target))
    t_frac = target - t_int
    norm_target = weighted_norm(
        h, t_int, t_frac if t_frac > 1e-12 else None, tau, annuli
    ).total
    return {
        "theta_norm": tn,
        "norm_x": curve.norm_x,
        "norm_y": curve.norm_y,
        "norm_x_grid": weighted_norm(h, k, alpha, tau, annuli).total,
        "norm_y_grid": weighted_norm(h, l, beta, tau, annuli).total,
        "product": product,
        "ratio": tn / product if product > 0 else math.nan,
        "target_order": target,
        "norm_target": norm_target,
        "reiteration_ratio": tn / norm_target if norm_target > 0 else math.nan,
        "t_list": list(curve.ts),
    }


# ---------------------------------------------------------------------------
# resolvent rays


@dataclass(frozen=True)
class ResolventReport:
    lam_list: tuple[float, ...]
    ratios: tuple[float, ...]
    sup_gap_to_identity: tuple[float, ...]
    tail_bounds: tuple[float, ...]
    origin_values: tuple[float, ...]
    norm_h: float
    direction: int


def resolvent_bound_check(
    h_func,
    lam_list,
    direction: int,
    tau: float,
    envelope: tuple[float, float],
    annuli: AnnuliDecomposition,
    per_annulus: int = 12,
    seed: int = 0,
    n_quad: int = 801,
    include_origin: bool = True,
) -> ResolventReport:
    """Weighted boundedness of lam R(lam) along a coordinate-direction ray.

    R(lam) h (x) = integral_0^inf e^{-lam s} h(gamma(s)) ds with gamma the
    unit-speed geodesic from x along coordinate direction `direction`.
    h_func is a callable on point arrays (closed-form test fields; no grid
    interpolation), declared to satisfy |h| <= amp e^{-rate r}.  The ray
    integral is truncated at a horizon where the envelope certifies the
    remainder; the weighted sup-norm surrogate runs over seeded anchors
    with the pointwise weight e^{tau N(r)}, N(r) the deepest annulus
    containing r.  From the origin the ray is radial, so for radial h the
    integral has a closed form; origin_values records lam R h at the
    origin per lam for such oracle comparisons.

    Reports per lam: the ratio ||lam R h|| / ||h||, the sup distance of
    lam R h to h over anchors (shrinking in lam for continuous h), and
    the certified truncation remainder.
    """
    grid = annuli.grid
    amp, rate = envelope
    if rate <= 0:
        raise ValueError("envelope decay rate must be positive")
    lam_list = [float(x) for x in lam_list]
    if any(x <= 0 for x in lam_list):
        raise ValueError("resolvent parameters must be positive")
    if not 0 <= direction < 2 * grid.m:
        raise ValueError("direction must index a coordinate axis")
    flat = _AnchorSet(annuli, 0.0, per_annulus, seed, need_stencil=False).flat
    if include_origin:
        origin = int(np.ravel_multi_index(
            tuple(s // 2 for s in grid.shape), grid.shape
        ))
        flat = np.concatenate(([origin], flat))
    pts = grid.points.reshape(-1, 2 * grid.m)[flat]
    r_anchor = grid.r_geo.ravel()[flat]
    wts = np.exp(tau * annuli.weight_exponent(r_anchor))
    hx = np.asarray(h_func(pts), dtype=float).reshape(len(pts), -1)
    norm_h = float(np.max(wts * np.max(np.abs(hx), axis=1)))
    e_dir = np.zeros(2 * grid.m)
    e_dir[direction] = 1.0
    ratios, gaps, tails, origin_vals = [], [], [], []
    r_max = float(np.max(r_anchor))
    for lam in lam_list:
        # remainder past T is below amp e^{rate r_max} e^{-(lam+rate)T}/(lam+rate);
        # the horizon is capped so ray points stay numerically inside the ball
        T = min((rate * r_max + 30.0) / (lam + rate), 80.0)
        s = np.linspace(0.0, T, n_quad)
        best = 0.0
        gap = 0.0
        o_val = math.nan
        for a, (x, w, hval) in enumerate(zip(pts, wts, hx)):
            ray = geodesic_from(grid.m, grid.c, x, e_dir, s)
            vals = np.asarray(h_func(ray), dtype=float).reshape(len(s), -1)
            integ = np.exp(-lam * s)[:, None] * vals
            res = np.array(
                [_simpson(integ[:, j], s[1] - s[0]) for j in range(vals.shape[1])]
            )
            lr = lam * res
            best = max(best, w * float(np.max(np.abs(lr))))
            gap = max(gap, float(np.max(np.abs(lr - hval))))
            if include_origin and a == 0:
                o_val = float(lr[0])
        tail = amp * math.exp(rate * r_max) * lam * math.exp(-(lam + rate) * T) / (
            lam + rate
        )
        ratios.append(best / norm_h if norm_h > 0 else 0.0)
        gaps.append(gap)
        tails.append(tail)
        origin_vals.append(o_val)
    return ResolventReport(
        lam_list=tuple(lam_list),
        ratios=tuple(ratios),
        sup_gap_to_identity=tuple(gaps),
        tail_bounds=tuple(tails),
        origin_values=tuple(origin_vals),
        norm_h=norm_h,
        direction=direction,
    )
