"""Discrete covariant calculus on chart grids.

Tensor fields are stored with plain (coordinate) components on a `ChartGrid`;
derivative indices always come first among the component axes, so that
`covariant_derivative` of a (0,2)-tensor h has components K[..., a, i, j] =
(nabla_a h)_{ij}.  Coordinate partials are central differences, which makes
discrete summation by parts exact for fields supported away from the grid
boundary; everything else carries the usual O(spacing^2) error.

`support_margin` records how many boundary cells of the grid are guaranteed
zero.  Differentiation shrinks the margin by one; integral identities that
rely on vanishing boundary terms should keep it positive.

L^2 pairings carry a fixed overall factor of 4.  The factor is a convention
tied to the frame normalization g(0) = (4/c) Id at c = 4 and is applied
uniformly to all ranks, so Rayleigh quotients, operator identities, and
convergence orders are unaffected by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart_geometry import ChartGrid, christoffels_from_partials, j_matrix
from .frame_algebra import einstein_constants

__all__ = [
    "TensorField",
    "scalar_field",
    "one_form",
    "sym_tensor",
    "partial_derivative",
    "covariant_derivative",
    "rough_laplacian",
    "curvature_action",
    "lichnerowicz",
    "stability_operator",
    "divergence",
    "divergence_adjoint",
    "trace_field",
    "einstein_tensor_part",
    "bianchi_one_form",
    "three_tensor_T",
    "l2_inner",
    "l2_norm_sq",
    "metric_jet",
    "ricci_of_metric",
    "background_fd_ricci",
]


@dataclass(frozen=True)
class TensorField:
    """Grid tensor field: components over grid.shape, one axis per index."""

    grid: ChartGrid
    comp: np.ndarray
    support_margin: int = 0

    @property
    def rank(self) -> int:
        return self.comp.ndim - 2 * self.grid.m

    def __post_init__(self) -> None:
        gs = self.grid.shape
        if self.comp.shape[: len(gs)] != gs:
            raise ValueError("component array does not match the grid")
        n = 2 * self.grid.m
        if any(s != n for s in self.comp.shape[len(gs) :]):
            raise ValueError("component axes must have length 2m")


def scalar_field(grid: ChartGrid, values: np.ndarray, margin: int = 0) -> TensorField:
    return TensorField(grid, np.asarray(values, dtype=float), margin)


def one_form(grid: ChartGrid, comp: np.ndarray, margin: int = 0) -> TensorField:
    return TensorField(grid, np.asarray(comp, dtype=float), margin)


def sym_tensor(grid: ChartGrid, comp: np.ndarray, margin: int = 0) -> TensorField:
    comp = np.asarray(comp, dtype=float)
    if not np.array_equal(comp, np.swapaxes(comp, -1, -2)):
        raise ValueError("components are not symmetric")
    return TensorField(grid, comp, margin)


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    return 0.5 * (arr + np.swapaxes(arr, -1, -2))


def _lam(grid: ChartGrid) -> float:
    # Einstein constant of the background: Rc = -lam g
    return float(einstein_constants(grid.m, 1)[0]) * grid.c


def _partials(arr: np.ndarray, base: int, spacing: float) -> np.ndarray:
    # central differences along the `base` leading grid axes, new index
    # first: out[..., a, I] = d_a arr[..., I]
    out = np.empty(arr.shape[:base] + (base,) + arr.shape[base:])
    sel = (slice(None),) * base
    for a in range(base):
        out[sel + (a,)] = np.gradient(arr, spacing, axis=a)
    return out


def _covariant(arr: np.ndarray, gamma: np.ndarray, spacing: float) -> np.ndarray:
    # nabla of a covariant tensor of rank <= 2 with supplied Christoffels
    # gamma[..., l, a, i]; derivative index first, not symmetrized.  The
    # connection terms sum_l Gamma^l_{ai} arr_{l...} are products with
    # Gamma read as an (n, n^2) matrix per point
    base = gamma.ndim - 3
    rank = arr.ndim - base
    if rank > 2:
        raise NotImplementedError("covariant derivative only up to rank 2")
    out = _partials(arr, base, spacing)
    n = gamma.shape[-1]
    flat = gamma.reshape(gamma.shape[:-3] + (n, n * n))
    if rank == 1:
        out -= (arr[..., None, :] @ flat).reshape(out.shape)
    elif rank == 2:
        gt = np.swapaxes(flat, -1, -2)
        out -= (gt @ arr).reshape(out.shape)  # Gamma^l_{ai} arr_{lj}
        # Gamma^l_{aj} arr_{il}: the same product on arr^T, read transposed
        out -= np.swapaxes((gt @ np.swapaxes(arr, -1, -2)).reshape(out.shape), -1, -2)
    return out


def partial_derivative(field: TensorField) -> TensorField:
    """Coordinate partials, new index first: out[..., a, I] = d_a comp[..., I]."""
    grid = field.grid
    out = _partials(field.comp, len(grid.shape), grid.spacing)
    return TensorField(grid, out, max(field.support_margin - 1, 0))


def covariant_derivative(field: TensorField) -> TensorField:
    """Covariant derivative with respect to the background metric."""
    grid = field.grid
    out = _covariant(field.comp, grid.Gamma, grid.spacing)
    if field.rank == 2:
        out = _symmetrized(out)
    return TensorField(grid, out, max(field.support_margin - 1, 0))


def _ginv_gamma(grid: ChartGrid) -> np.ndarray:
    # M[..., b, l, i] = g^{ab} Gamma^l_{ai}
    if "ginv_gamma" not in grid._cache:
        grid._cache["ginv_gamma"] = np.einsum(
            "...ab,...lai->...bli", grid.Ginv, grid.Gamma
        )
    return grid._cache["ginv_gamma"]


def _traced_gamma(grid: ChartGrid) -> np.ndarray:
    # W[..., l] = g^{ab} Gamma^l_{ab}
    if "traced_gamma" not in grid._cache:
        grid._cache["traced_gamma"] = np.einsum(
            "...ab,...lab->...l", grid.Ginv, grid.Gamma
        )
    return grid._cache["traced_gamma"]


def rough_laplacian(field: TensorField) -> TensorField:
    """Connection Laplacian g^{ab} (nabla^2 h)_{ab ...} on a (0,2)-tensor.

    Assembled from the first covariant derivative K and corrected slot by
    slot, so no rank-4 intermediate is ever materialized.
    """
    if field.rank != 2:
        raise NotImplementedError("rough laplacian implemented for rank 2")
    grid = field.grid
    n = 2 * grid.m
    K = covariant_derivative(field).comp  # (..., b, i, j)
    base = len(grid.shape)
    acc = np.zeros_like(field.comp)
    sel = (slice(None),) * base
    for a in range(n):
        dK = np.gradient(K, grid.spacing, axis=a)  # d_a K_{bij}
        acc += np.einsum("...b,...bij->...ij", grid.Ginv[sel + (a,)], dK)
        del dK
    acc -= np.einsum("...l,...lij->...ij", _traced_gamma(grid), K)
    M = _ginv_gamma(grid)
    acc -= np.einsum("...bli,...blj->...ij", M, K)
    acc -= np.einsum("...blj,...bil->...ij", M, K)
    return TensorField(grid, _symmetrized(acc), max(field.support_margin - 2, 0))


def _raised(field: TensorField) -> np.ndarray:
    # all indices raised with the background inverse metric
    out = field.comp
    ginv = field.grid.Ginv
    letters = "ijk"
    for slot in range(field.rank):
        idx = letters[: field.rank]
        src = idx[:slot] + "x" + idx[slot + 1 :]
        out = np.einsum(f"...x{idx[slot]},...{src}->...{idx}", ginv, out)
    return out


def trace_field(field: TensorField) -> TensorField:
    """Metric trace g^{ij} h_{ij} of a (0,2)-tensor."""
    if field.rank != 2:
        raise ValueError("trace_field expects rank 2")
    tr = np.einsum("...ij,...ij->...", field.grid.Ginv, field.comp)
    return TensorField(field.grid, tr, field.support_margin)


def curvature_action(field: TensorField) -> TensorField:
    """C_{ij} = R_{ipqj} h^{pq}, the curvature term of the Lichnerowicz
    Laplacian (which contributes 2 C).

    Closed form on this background: C = -(c/4)[g tr_g(h) - h - 3 Om H^ Om]
    with Om the Kahler form and H^ the fully raised field.  Purely algebraic,
    no discretization error.
    """
    grid = field.grid
    if field.rank != 2:
        raise ValueError("curvature_action expects rank 2")
    if "omega" not in grid._cache:
        grid._cache["omega"] = np.einsum("ca,...cb->...ab", j_matrix(grid.m), grid.G)
    om = grid._cache["omega"]
    hup = _raised(field)
    tr = np.einsum("...ij,...ij->...", grid.Ginv, field.comp)
    core = (
        grid.G * tr[..., None, None]
        - field.comp
        - 3.0 * np.einsum("...ip,...pq,...qj->...ij", om, hup, om)
    )
    out = -(grid.c / 4.0) * core
    return TensorField(grid, _symmetrized(out), field.support_margin)


def lichnerowicz(field: TensorField, ricci_mode: str = "exact") -> TensorField:
    """Lichnerowicz Laplacian Delta_L h = Delta h + 2 R(h, .) - Rc h - h Rc.

    ricci_mode selects how the Ricci terms are evaluated: "exact" uses the
    Einstein identity Rc = -lam g of the background, "fd" recomputes the
    Ricci tensor by finite differences of the Christoffel cache.  The two
    agree to O(spacing^2); keeping both routes guards the implementation.
    """
    grid = field.grid
    out = rough_laplacian(field).comp + 2.0 * curvature_action(field).comp
    if ricci_mode == "exact":
        out += 2.0 * _lam(grid) * field.comp
    elif ricci_mode == "fd":
        rc = background_fd_ricci(grid)
        rh = np.einsum("...iq,...qp->...ip", rc, grid.Ginv)
        mixed = np.einsum("...ip,...pj->...ij", rh, field.comp)
        out -= mixed + np.swapaxes(mixed, -1, -2)
    else:
        raise ValueError(f"unknown ricci_mode {ricci_mode!r}")
    return TensorField(grid, _symmetrized(out), max(field.support_margin - 2, 0))


def stability_operator(field: TensorField) -> TensorField:
    """A h = Delta_L h - 2 lam h = Delta h + 2 R(h, .) on this background."""
    grid = field.grid
    out = rough_laplacian(field).comp + 2.0 * curvature_action(field).comp
    return TensorField(grid, out, max(field.support_margin - 2, 0))


def divergence(field: TensorField) -> TensorField:
    """One-form (delta h)_j = -g^{ai} (nabla_a h)_{ij}."""
    if field.rank != 2:
        raise ValueError("divergence expects rank 2")
    K = covariant_derivative(field)
    comp = -np.einsum("...ai,...aij->...j", field.grid.Ginv, K.comp)
    return TensorField(field.grid, comp, K.support_margin)


def divergence_adjoint(field: TensorField) -> TensorField:
    """Symmetrized covariant derivative (delta* w)_{ij}; L^2-adjoint of
    `divergence` for compactly supported fields."""
    if field.rank != 1:
        raise ValueError("divergence_adjoint expects rank 1")
    K = covariant_derivative(field)
    return TensorField(field.grid, _symmetrized(K.comp), K.support_margin)


def einstein_tensor_part(field: TensorField) -> TensorField:
    """G(h) = h - (1/2) (tr_g h) g."""
    tr = trace_field(field).comp
    comp = field.comp - 0.5 * tr[..., None, None] * field.grid.G
    return TensorField(field.grid, comp, field.support_margin)


def bianchi_one_form(field: TensorField) -> TensorField:
    """delta G(h): vanishes on divergence-free, trace-free perturbations and
    generates the gauge part of the linearized flow."""
    return divergence(einstein_tensor_part(field))


def three_tensor_T(field: TensorField) -> TensorField:
    """T_{ijk} = (nabla_k h)_{ij} - (nabla_i h)_{jk}.

    Antisymmetric in (i, k) exactly, including in floating point, because the
    two terms are the same stored array read with permuted axes.
    """
    K = covariant_derivative(field).comp  # (..., a, i, j)
    # reading K with axes (i, j, k) directly gives (nabla_i h)_{jk}
    t = np.moveaxis(K, -3, -1) - K
    return TensorField(field.grid, t, max(field.support_margin - 1, 0))


def l2_inner(a: TensorField, b: TensorField) -> float:
    """Background L^2 pairing 4 * integral of <a, b>_g (see module docs)."""
    if a.grid is not b.grid or a.rank != b.rank:
        raise ValueError("fields must share a grid and rank")
    raised = _raised(a)
    axes = tuple(range(-a.rank, 0)) if a.rank else ()
    dens = np.sum(raised * b.comp, axis=axes) if a.rank else raised * b.comp
    return 4.0 * a.grid.integrate(dens)


def l2_norm_sq(a: TensorField) -> float:
    return l2_inner(a, a)


# ---------------------------------------------------------------------------
# raw-array helpers shared with the nonlinear flow

def metric_jet(g: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g^{-1}, dg, Gamma) of an arbitrary grid metric, by central differences.

    g has shape grid.shape + (n, n); dg[..., a, i, j] = d_a g_{ij} and
    Gamma[..., l, a, i] = Gamma^l_{ai} match the layout of the analytic
    background cache.  The inverse is symmetrized.  Built once per
    right-hand side and read by `ricci_of_metric` and the gauge term.
    """
    ginv = _symmetrized(np.linalg.inv(g))
    dg = _partials(g, g.ndim - 2, spacing)
    return ginv, dg, christoffels_from_partials(ginv, dg)


def _second_diff(arr: np.ndarray, p: int, q: int, spacing: float) -> np.ndarray:
    # compact centered second difference d_p d_q along grid axes p, q; the
    # outermost cell layer along each differentiated axis wraps around and
    # is meaningless (callers keep a boundary band of >= 2 cells)
    if p == q:
        return (np.roll(arr, -1, axis=p) - 2.0 * arr + np.roll(arr, 1, axis=p)) / spacing**2
    return (
        np.roll(arr, (-1, -1), axis=(p, q))
        - np.roll(arr, (-1, 1), axis=(p, q))
        - np.roll(arr, (1, -1), axis=(p, q))
        + np.roll(arr, (1, 1), axis=(p, q))
    ) / (4.0 * spacing**2)


def ricci_of_metric(
    g: np.ndarray, ginv: np.ndarray, dg: np.ndarray, gamma: np.ndarray, spacing: float
) -> np.ndarray:
    """Ricci tensor of an arbitrary grid metric, by compact differences.

    ginv, dg, gamma are the `metric_jet` of g; the result is symmetrized.
    The second derivatives of g enter through compact centered stencils
    instead of nested first differences of the Christoffels, which shrinks
    the truncation constant by about a factor four.  The expansion used is

        Rc_ij = (1/2) g^{lk} (d_l d_i g_kj + d_l d_j g_ki
                              - d_l d_k g_ij - d_i d_j g_kl)
                + (d_l g^{lk}) g_kp Gamma^p_ij - (1/2) (d_i g^{lk}) (d_j g_kl)
                + Gamma^l_{lp} Gamma^p_{ij} - Gamma^l_{ip} Gamma^p_{lj}

    where g_kp Gamma^p_ij = (1/2) (d_i g_kj + d_j g_ki - d_k g_ij).  The
    derivative of the inverse enters only through X_i = g^{-1} d_i g, since
    d_i g^{-1} = -X_i g^{-1}: so (d_l g^{lk}) g_kp = -(X_l)^l_p is a diagonal
    of X and -(1/2) (d_i g^{lk}) (d_j g_kl) = (1/2) tr(X_i X_j).  The
    contractions are batched matmuls over the trailing component axes.  The
    outermost cell layer is wrap-contaminated; keep a band of at least two
    cells.
    """
    n = g.shape[-1]
    base = g.ndim - 2
    sel = (slice(None),) * base
    x = ginv[sel + (None,)] @ dg  # X[..., i] = g^{-1} d_i g
    gflat = gamma.reshape(gamma.shape[:-3] + (n, n * n))

    # (d_l g^{lk}) g_kp Gamma^p_ij + Gamma^l_{lp} Gamma^p_ij as one product
    coef = np.einsum("...llp->...p", gamma) - np.einsum("...llp->...p", x)
    acc = (coef[..., None, :] @ gflat).reshape(g.shape)
    # tr(X_i X_j) = sum_a X[:, a, :] @ X[:, :, a]^T, and likewise
    # Gamma^l_{ip} Gamma^p_{lj} = sum_l Gamma[l] @ Gamma[:, l]; X[:, :, a]
    # has no unit stride, so it is copied to keep the product on BLAS
    tr_xx = np.zeros_like(g)
    for a in range(n):
        tr_xx += x[sel + (slice(None), a)] @ np.swapaxes(x[..., a], -1, -2).copy()
        acc -= gamma[sel + (a,)] @ gamma[sel + (slice(None), a)]
    del x
    acc += 0.5 * tr_xx

    # second-derivative terms, one compact d_p d_q block at a time
    mixed = np.zeros_like(g)  # M_ij = g^{lk} d_l d_i g_kj
    lap = np.zeros_like(g)  # g^{lk} d_l d_k g_ij
    hess_tr = np.zeros_like(g)  # (d_i d_j g_kl) g^{lk}
    for p in range(n):
        for q in range(p, n):
            d2 = _second_diff(g, p, q, spacing)
            # one product gives rows p and q of M and the trace for hess_tr
            prod = ginv @ d2
            mixed[sel + (q,)] += prod[sel + (p,)]
            weight = 1.0 if p == q else 2.0
            lap += (weight * ginv[sel + (p, q)])[..., None, None] * d2
            tr = np.trace(prod, axis1=-2, axis2=-1)
            hess_tr[sel + (p, q)] = tr
            if p != q:
                mixed[sel + (p,)] += prod[sel + (q,)]
                hess_tr[sel + (q, p)] = tr
    acc += 0.5 * (mixed + np.swapaxes(mixed, -1, -2) - lap - hess_tr)
    return _symmetrized(acc)


def background_fd_ricci(grid: ChartGrid) -> np.ndarray:
    """Finite-difference Ricci tensor of the background metric (cached)."""
    if "fd_ricci" not in grid._cache:
        jet = metric_jet(grid.G, grid.spacing)
        grid._cache["fd_ricci"] = ricci_of_metric(grid.G, *jet, grid.spacing)
    return grid._cache["fd_ricci"]
