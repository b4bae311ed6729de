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

Box k is the set of cells at least k layers from every grid face.  The flow
right-hand sides and the stability operator take a `band` b: the caller
keeps only box b, so each stencil stage is evaluated only on the box the
next stage reads (a first difference reads one layer further out), and the
result is grid-shaped and zero outside box b.  First differences are
central on slices, with np.gradient's one-sided rows only where a box
touches a grid face, so a band of 0 or 1 gives the full-grid values there.

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


def _box(k: int, base: int) -> tuple:
    # index of box k over the `base` leading grid axes
    return (slice(k, -k or None),) * base


def _padded(core: np.ndarray, k: int, base: int) -> np.ndarray:
    # an array on box k, returned grid-shaped with zeros outside the box
    if not k:
        return core
    shape = tuple(s + 2 * k for s in core.shape[:base]) + core.shape[base:]
    out = np.zeros(shape)
    out[_box(k, base)] = core
    return out


def _diff(arr: np.ndarray, a: int, base: int, spacing: float, shrink: int) -> np.ndarray:
    # d_a of arr over its `base` leading grid axes, on the box `shrink` cells
    # inside arr's, by central differences of slices.  With shrink 0 the two
    # face rows along a are one-sided (np.gradient's values), which is only
    # right where arr reaches the grid faces
    n = arr.shape[a]
    rest = [slice(shrink, s - shrink) for s in arr.shape[:base]]

    def along(sl):  # arr at sl along axis a, on the output box elsewhere
        return arr[tuple(rest[:a] + [sl] + rest[a + 1 :])]

    if shrink:
        lo, hi = slice(shrink - 1, n - shrink - 1), slice(shrink + 1, n - shrink + 1)
        return (along(hi) - along(lo)) / (2.0 * spacing)
    out = np.empty_like(arr)
    lead = (slice(None),) * a
    out[lead + (slice(1, -1),)] = (along(slice(2, None)) - along(slice(None, -2))) / (
        2.0 * spacing
    )
    out[lead + (0,)] = (along(1) - along(0)) / spacing
    out[lead + (-1,)] = (along(-1) - along(-2)) / spacing
    return out


def _partials(arr: np.ndarray, base: int, spacing: float, shrink: int = 0) -> np.ndarray:
    # first differences along the `base` leading grid axes, new index
    # first: out[..., a, I] = d_a arr[..., I], on the box `shrink` cells
    # inside arr's (see `_diff`)
    inner = tuple(s - 2 * shrink for s in arr.shape[:base])
    out = np.empty(inner + (base,) + arr.shape[base:])
    sel = (slice(None),) * base
    for a in range(base):
        out[sel + (a,)] = _diff(arr, a, base, spacing, shrink)
    return out


def _covariant(
    arr: np.ndarray, gamma: np.ndarray, spacing: float, shrink: int = 0
) -> np.ndarray:
    # nabla of a covariant tensor of rank <= 2 with supplied Christoffels
    # gamma[..., l, a, i]; derivative index first, not symmetrized.  The
    # result, and gamma, lie on the box `shrink` cells inside arr's.  The
    # connection terms sum_l Gamma^l_{ai} arr_{l...} are products with
    # Gamma read as an (n, n^2) matrix per point
    base = gamma.ndim - 3
    rank = arr.ndim - base
    if rank > 2:
        raise NotImplementedError("covariant derivative only up to rank 2")
    out = _partials(arr, base, spacing, shrink)
    arr = arr[_box(shrink, base)]
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


def rough_laplacian(field: TensorField, band: int = 0) -> TensorField:
    """Connection Laplacian g^{ab} (nabla^2 h)_{ab ...} on a (0,2)-tensor.

    From the covariant derivative K, symmetric in (i, j), as g^{ab} d_a K_bij
    - W^l K_lij - X - X^T with W^l = g^{ab} Gamma^l_ab and X_ij = g^{ab}
    Gamma^l_ai K_blj: batched matmuls on `grid.Ginv` and `grid.Gamma`, and
    no rank-4 intermediate.  K is computed on box max(band - 1, 0) and the
    result on box `band`; it is zero outside (see module docs).
    """
    if field.rank != 2:
        raise NotImplementedError("rough laplacian implemented for rank 2")
    grid = field.grid
    n, base = 2 * grid.m, len(grid.shape)
    k1 = max(band - 1, 0)
    K = _symmetrized(_covariant(field.comp, grid.Gamma[_box(k1, base)], grid.spacing, k1))
    shrink = band - k1
    box = _box(band, base)
    ginv, gamma = grid.Ginv[box], grid.Gamma[box]
    gs = ginv.shape[:-2]
    kflat = K.reshape(K.shape[:base] + (n, n * n))
    acc = np.zeros(gs + (1, n * n))
    for a in range(n):
        acc += ginv[..., a : a + 1, :] @ _diff(kflat, a, base, grid.spacing, shrink)
    K, kflat = K[_box(shrink, base)], kflat[_box(shrink, base)]
    w = gamma.reshape(gs + (n, n * n)) @ ginv.reshape(gs + (n * n, 1))
    acc -= np.swapaxes(w, -1, -2) @ kflat
    # Y[..., l, a, j] = g^{ab} K_blj; X contracts Gamma with Y over (l, a)
    y = ginv[..., None, :, :] @ np.swapaxes(K, -3, -2)
    gflat = gamma.reshape(gs + (n * n, n))
    x = np.swapaxes(gflat, -1, -2) @ y.reshape(gflat.shape)
    acc = acc.reshape(gs + (n, n)) - (x + np.swapaxes(x, -1, -2))
    out = _padded(_symmetrized(acc), band, base)
    return TensorField(grid, out, max(field.support_margin - 2, band))


def trace_field(field: TensorField) -> TensorField:
    """Metric trace g^{ij} h_{ij} of a (0,2)-tensor."""
    if field.rank != 2:
        raise ValueError("trace_field expects rank 2")
    tr = np.einsum("...ij,...ij->...", field.grid.Ginv, field.comp)
    return TensorField(field.grid, tr, field.support_margin)


def curvature_action(field: TensorField) -> TensorField:
    """C_{ij} = R_{ipqj} h^{pq}, the curvature term of the Lichnerowicz
    Laplacian (which contributes 2 C).

    Closed form on this background: C = -(c/4)[g tr_g(h) - h - 3 J h J],
    J = `j_matrix(m)`.  The curvature carries the Kahler form J^T g twice,
    and the metric is Hermitian (J g = g J), so the raised field between
    them collapses to the constant conjugation J h J: purely algebraic, and
    exactly symmetric, since J only permutes and negates entries.
    """
    grid = field.grid
    if field.rank != 2:
        raise ValueError("curvature_action expects rank 2")
    J = j_matrix(grid.m)
    tr = trace_field(field).comp[..., None, None]
    core = grid.G * tr - field.comp - 3.0 * (J @ field.comp @ J)
    return TensorField(grid, -(grid.c / 4.0) * core, field.support_margin)


def lichnerowicz(field: TensorField, ricci_mode: str = "exact") -> TensorField:
    """Lichnerowicz Laplacian Delta_L h = Delta h + 2 R(h, .) - Rc h - h Rc.

    ricci_mode selects how the Ricci terms are evaluated: "exact" uses the
    Einstein identity Rc = -lam g of the background, "fd" recomputes the
    Ricci tensor by finite differences of the background metric.  The two
    agree to O(spacing^2); keeping both routes guards the implementation.
    """
    grid = field.grid
    out = stability_operator(field).comp
    if ricci_mode == "exact":
        out += 2.0 * _lam(grid) * field.comp
    elif ricci_mode == "fd":
        from . import flow_engine as fe

        mixed = fe.ricci_of(grid, grid.G) @ grid.Ginv @ field.comp
        out -= mixed + np.swapaxes(mixed, -1, -2)
    else:
        raise ValueError(f"unknown ricci_mode {ricci_mode!r}")
    return TensorField(grid, _symmetrized(out), max(field.support_margin - 2, 0))


def stability_operator(field: TensorField, band: int = 0) -> TensorField:
    """A h = Delta_L h - 2 lam h = Delta h + 2 R(h, .) on this background,
    on box `band` and zero outside it (see module docs)."""
    grid = field.grid
    out = rough_laplacian(field, band).comp
    box = _box(band, len(grid.shape))
    out[box] += 2.0 * curvature_action(field).comp[box]
    return TensorField(grid, out, max(field.support_margin - 2, band))


def _einstein(u: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # G(g, u) = u - (1/2) tr_g(u) g, on raw arrays
    tr = np.einsum("...ij,...ij->...", ginv, u)
    return u - 0.5 * tr[..., None, None] * g


def _divergence(nab: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # -g^{ai} nab_{aij} for nab[..., a, i, j] = (nabla_a h)_{ij}, as one
    # (1, n^2) @ (n^2, n) product per point
    n = ginv.shape[-1]
    rows = ginv.reshape(ginv.shape[:-2] + (1, n * n))
    return -(rows @ nab.reshape(ginv.shape[:-2] + (n * n, n)))[..., 0, :]


def divergence(field: TensorField) -> TensorField:
    """One-form (delta h)_j = -g^{ai} (nabla_a h)_{ij}."""
    if field.rank != 2:
        raise ValueError("divergence expects rank 2")
    K = covariant_derivative(field)
    comp = _divergence(K.comp, field.grid.Ginv)
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
    comp = _einstein(field.comp, field.grid.G, field.grid.Ginv)
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


def _pairing(a: TensorField, b: TensorField) -> np.ndarray:
    # pointwise <a, b>_g: each round raises the leading slot of a with Ginv
    # and rotates it to the back, so `rank` rounds restore the slot order
    raised = a.comp
    for _ in range(a.rank):
        raised = a.grid.Ginv @ raised.reshape(a.grid.shape + (2 * a.grid.m, -1))
        raised = np.moveaxis(raised.reshape(a.comp.shape), -a.rank, -1)
    return np.sum(raised * b.comp, axis=tuple(range(-a.rank, 0)))


def l2_inner(a: TensorField, b: TensorField) -> float:
    """Background L^2 pairing 4 * integral of <a, b>_g (see module docs);
    each slot of a is raised by one batched matmul on `grid.Ginv`."""
    if a.grid is not b.grid or a.rank != b.rank:
        raise ValueError("fields must share a grid and rank")
    return 4.0 * a.grid.integrate(_pairing(a, b))


def l2_norm_sq(a: TensorField) -> float:
    return l2_inner(a, a)


# ---------------------------------------------------------------------------
# raw-array helpers shared with the nonlinear flow

def metric_jet(
    g: np.ndarray, spacing: float, band: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g^{-1}, dg, Gamma) of an arbitrary grid metric, by central differences.

    g has shape grid.shape + (n, n); dg[..., a, i, j] = d_a g_{ij} and
    Gamma[..., l, a, i] = Gamma^l_{ai} match the layout of the analytic
    background cache.  The inverse is symmetrized.  Built once per
    right-hand side and read by `ricci_of_metric` and the gauge term, for a
    result on box `band`: the inverse on box max(band - 2, 0), dg and Gamma
    on box max(band - 1, 0), each grid-shaped and zero outside its box.
    """
    base = g.ndim - 2
    k0, k1 = max(band - 2, 0), max(band - 1, 0)
    ginv = _symmetrized(np.linalg.inv(g[_box(k0, base)]))
    dg = _partials(g, base, spacing, k1)
    gamma = _padded(christoffels_from_partials(ginv[_box(k1 - k0, base)], dg), k1, base)
    return _padded(ginv, k0, base), _padded(dg, k1, base), gamma


def _second_diff(arr: np.ndarray, p: int, q: int, spacing: float) -> np.ndarray:
    # compact centered second difference d_p d_q along grid axes p, q, on
    # the box one cell inside arr's: sums of shifted slices of arr
    base = arr.ndim - 2

    def at(dp: int, dq: int) -> np.ndarray:
        shift = [0] * base
        shift[p] += dp
        shift[q] += dq
        return arr[tuple(slice(1 + d, n - 1 + d) for d, n in zip(shift, arr.shape))]

    if p == q:
        return (at(1, 0) - 2.0 * at(0, 0) + at(-1, 0)) / spacing**2
    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * spacing**2)


def ricci_of_metric(
    g: np.ndarray,
    ginv: np.ndarray,
    dg: np.ndarray,
    gamma: np.ndarray,
    spacing: float,
    band: int = 0,
) -> np.ndarray:
    """Ricci tensor of an arbitrary grid metric, by compact differences.

    ginv, dg, gamma are the `metric_jet` of g for the same band; the result
    is symmetrized, on box max(band, 1) and zero outside it.  The second
    derivatives of g enter through compact centered stencils instead of
    nested first differences of the Christoffels, which shrinks the
    truncation constant by about a factor four.  The expansion used is

        Rc_ij = (1/2) g^{lk} (d_l d_i g_kj + d_l d_j g_ki
                              - d_l d_k g_ij - d_i d_j g_kl)
                + (d_l g^{lk}) g_kp Gamma^p_ij - (1/2) (d_i g^{lk}) (d_j g_kl)
                + Gamma^l_{lp} Gamma^p_{ij} - Gamma^l_{ip} Gamma^p_{lj}

    where g_kp Gamma^p_ij = (1/2) (d_i g_kj + d_j g_ki - d_k g_ij).  The
    derivative of the inverse enters only through X_i = g^{-1} d_i g, since
    d_i g^{-1} = -X_i g^{-1}: so (d_l g^{lk}) g_kp = -(X_l)^l_p is a diagonal
    of X and -(1/2) (d_i g^{lk}) (d_j g_kl) = (1/2) tr(X_i X_j).  The
    contractions are batched matmuls over the trailing component axes.  The
    outermost cell layer, where the compact stencils have no neighbour, is
    not computed.
    """
    n = g.shape[-1]
    base = g.ndim - 2
    sel = (slice(None),) * base
    k = max(band, 1)
    box = _box(k, base)
    ginv, dg, gamma = ginv[box], dg[box], gamma[box]
    outer = g[_box(k - 1, base)]  # what the compact stencils read
    x = ginv[sel + (None,)] @ dg  # X[..., i] = g^{-1} d_i g
    gflat = gamma.reshape(gamma.shape[:-3] + (n, n * n))

    # (d_l g^{lk}) g_kp Gamma^p_ij + Gamma^l_{lp} Gamma^p_ij as one product
    coef = np.einsum("...llp->...p", gamma) - np.einsum("...llp->...p", x)
    acc = (coef[..., None, :] @ gflat).reshape(ginv.shape)
    # tr(X_i X_j) = sum_a X[:, a, :] @ X[:, :, a]^T, and likewise
    # Gamma^l_{ip} Gamma^p_{lj} = sum_l Gamma[l] @ Gamma[:, l]; X[:, :, a]
    # has no unit stride, so it is copied to keep the product on BLAS
    tr_xx = np.zeros(ginv.shape)
    for a in range(n):
        tr_xx += x[sel + (slice(None), a)] @ np.swapaxes(x[..., a], -1, -2).copy()
        acc -= gamma[sel + (a,)] @ gamma[sel + (slice(None), a)]
    del x
    acc += 0.5 * tr_xx

    # second-derivative terms, one compact d_p d_q block at a time
    mixed = np.zeros(ginv.shape)  # M_ij = g^{lk} d_l d_i g_kj
    lap = np.zeros(ginv.shape)  # g^{lk} d_l d_k g_ij
    hess_tr = np.zeros(ginv.shape)  # (d_i d_j g_kl) g^{lk}
    for p in range(n):
        for q in range(p, n):
            d2 = _second_diff(outer, p, q, spacing)
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
    return _padded(_symmetrized(acc), k, base)
