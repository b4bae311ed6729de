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

Each concept has one private kernel, shared by the linear path and the
nonlinear flow, that takes raw arrays: the components, the metric arrays
it reads (laid out as in the `ChartGrid` cache or `metric_jet`), the
spacing and, for a stencil, a `shrink`.  Box k is the cells at least k
layers from every grid face.  A stencil's result lies on the box `shrink`
cells inside its input's, each metric array on the outermost box where it
is read; first differences are one-sided (np.gradient's values) only at
shrink 0, on the input's faces.  The public `TensorField` functions are
shells that pass grid.G, grid.Ginv and grid.Gamma and pad their result
once to grid shape.  A `band` b keeps box b: each stencil stage of the
flow right-hand sides and the stability operator runs only on the box the
next reads (`_stages`); a band of 0 or 1 gives the full-grid values.

A window (`_window`) is any box of a grid, box k among them, standing in
for the grid under a `TensorField`: its metric arrays are views of the
grid's cache, and it integrates by zero-padding into the grid, so an
integral over a field that vanishes outside the window is the same float
as on the grid.  The stability operator takes its curvature term on the
window of box b, and `energy_report` works on the window of its field's
support.

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
    "sym_tensor",
    "covariant_derivative",
    "rough_laplacian",
    "curvature_action",
    "stability_operator",
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


def _stages(band: int) -> tuple[int, int]:
    # boxes (k0, k1) of the two stencil stages before a result on box `band`
    return max(band - 2, 0), max(band - 1, 0)


@dataclass(frozen=True, eq=False)
class _Window:
    """Box of a `ChartGrid` from index `lo` with `shape` cells per axis."""

    parent: ChartGrid
    lo: tuple[int, ...]
    shape: tuple[int, ...]

    @property
    def box(self) -> tuple:
        return tuple(slice(i, i + n) for i, n in zip(self.lo, self.shape))

    m = property(lambda self: self.parent.m)
    c = property(lambda self: self.parent.c)
    spacing = property(lambda self: self.parent.spacing)
    cell_volume = property(lambda self: self.parent.cell_volume)
    G = property(lambda self: self.parent.G[self.box])
    Ginv = property(lambda self: self.parent.Ginv[self.box])
    Gamma = property(lambda self: self.parent.Gamma[self.box])
    sqrt_det = property(lambda self: self.parent.sqrt_det[self.box])

    def integrate(self, scalar: np.ndarray) -> float:
        padded = np.zeros(self.parent.shape, scalar.dtype)
        padded[self.box] = scalar
        return self.parent.integrate(padded)


def _window(grid: ChartGrid | _Window, lo: tuple[int, ...], hi: tuple[int, ...]) -> _Window:
    # the window of cells lo <= index < hi of a grid or of a window, always
    # over the underlying ChartGrid
    if isinstance(grid, _Window):
        lo, hi = (tuple(a + b for a, b in zip(grid.lo, ix)) for ix in (lo, hi))
        grid = grid.parent
    return _Window(grid, tuple(lo), tuple(b - a for a, b in zip(lo, hi)))


def _padded(core: np.ndarray, k: int, base: int) -> np.ndarray:
    # an array on box k, returned grid-shaped with zeros outside the box
    if not k:
        return core
    shape = tuple(s + 2 * k for s in core.shape[:base]) + core.shape[base:]
    out = np.zeros(shape, core.dtype)
    out[_box(k, base)] = core
    return out


def _diff(arr: np.ndarray, a: int, base: int, spacing: float, shrink: int) -> np.ndarray:
    # d_a of arr over its `base` leading grid axes, on the box `shrink` cells
    # inside arr's, by central differences of slices (see module docs)
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
    out = np.empty(inner + (base,) + arr.shape[base:], arr.dtype)
    sel = (slice(None),) * base
    for a in range(base):
        out[sel + (a,)] = _diff(arr, a, base, spacing, shrink)
    return out


def _covariant(
    arr: np.ndarray, gamma: np.ndarray, spacing: float, shrink: int = 0
) -> np.ndarray:
    # nabla of a covariant tensor of rank <= 2, derivative index first, not
    # symmetrized, with gamma[..., l, a, i] on the result box.  The
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


def _rough_laplacian(
    h: np.ndarray, ginv: np.ndarray, gamma: np.ndarray, spacing: float, shrink: int = 0
) -> np.ndarray:
    # Delta h on the box `shrink` cells inside h's (see `rough_laplacian`),
    # with ginv on that box and gamma on the box of K = nabla h
    base, n = ginv.ndim - 2, ginv.shape[-1]
    k1 = _stages(shrink)[1]
    K = _symmetrized(_covariant(h, gamma, spacing, k1))
    inner = _box(shrink - k1, base)
    gamma, gs = gamma[inner], ginv.shape[:-2]
    kflat = K.reshape(K.shape[:base] + (n, n * n))
    acc = np.zeros(gs + (1, n * n), K.dtype)
    for a in range(n):
        acc += ginv[..., a : a + 1, :] @ _diff(kflat, a, base, spacing, shrink - k1)
    K, kflat = K[inner], kflat[inner]
    w = gamma.reshape(gs + (n, n * n)) @ ginv.reshape(gs + (n * n, 1))
    acc -= np.swapaxes(w, -1, -2) @ kflat
    # Y[..., l, a, j] = g^{ab} K_blj; X contracts Gamma with Y over (l, a)
    y = ginv[..., None, :, :] @ np.swapaxes(K, -3, -2)
    gflat = gamma.reshape(gs + (n * n, n))
    x = np.swapaxes(gflat, -1, -2) @ y.reshape(gflat.shape)
    return _symmetrized(acc.reshape(gs + (n, n)) - (x + np.swapaxes(x, -1, -2)))


def _trace(u: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # tr_g u = g^{ij} u_ij
    return np.einsum("...ij,...ij->...", ginv, u)


def _einstein(u: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # G(g, u) = u - (1/2) tr_g(u) g
    return u - 0.5 * _trace(u, ginv)[..., None, None] * g


def _curvature_action(
    h: np.ndarray, g: np.ndarray, ginv: np.ndarray, c: float
) -> np.ndarray:
    # C = -(c/4)[g tr_g(h) - h - 3 J h J] (see `curvature_action`)
    J = j_matrix(h.shape[-1] // 2)
    return -(c / 4.0) * (g * _trace(h, ginv)[..., None, None] - h - 3.0 * (J @ h @ J))


def _divergence(nab: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # -g^{ai} nab_{aij} for nab[..., a, i, j] = (nabla_a h)_{ij}, as one
    # (1, n^2) @ (n^2, n) product per point
    n = ginv.shape[-1]
    rows = ginv.reshape(ginv.shape[:-2] + (1, n * n))
    return -(rows @ nab.reshape(ginv.shape[:-2] + (n * n, n)))[..., 0, :]


def _three_tensor(nab: np.ndarray) -> np.ndarray:
    # T_ijk = (nabla_k h)_ij - (nabla_i h)_jk: nab read with axes (i, j, k)
    return np.moveaxis(nab, -3, -1) - nab


def _pairing(a: np.ndarray, b: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # pointwise <a, b>_g of two arrays of one rank: each round raises the
    # leading slot of a with ginv and rotates it to the back, so `rank`
    # rounds restore the slot order
    rank = a.ndim - ginv.ndim + 2
    raised = a
    for _ in range(rank):
        raised = ginv @ raised.reshape(ginv.shape[:-1] + (-1,))
        raised = np.moveaxis(raised.reshape(a.shape), -rank, -1)
    return np.sum(raised * b, axis=tuple(range(-rank, 0)))


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
    Gamma^l_ai K_blj: batched matmuls, and no rank-4 intermediate.  The
    result is on box `band` and zero outside it (see module docs).
    """
    if field.rank != 2:
        raise NotImplementedError("rough laplacian implemented for rank 2")
    grid = field.grid
    base = len(grid.shape)
    ginv, gamma = grid.Ginv[_box(band, base)], grid.Gamma[_box(_stages(band)[1], base)]
    out = _rough_laplacian(field.comp, ginv, gamma, grid.spacing, band)
    out = _padded(out, band, base)
    return TensorField(grid, out, max(field.support_margin - 2, band))


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
    out = _curvature_action(field.comp, grid.G, grid.Ginv, grid.c)
    return TensorField(grid, out, field.support_margin)


def stability_operator(field: TensorField, band: int = 0) -> TensorField:
    """A h = Delta_L h - 2 lam h = Delta h + 2 R(h, .) on this background,
    on box `band` and zero outside it (see module docs), with the
    curvature term taken on the window of that box."""
    grid = field.grid
    out = rough_laplacian(field, band).comp
    base = len(grid.shape)
    box = _box(band, base)
    window = _window(grid, (band,) * base, tuple(s - band for s in grid.shape))
    out[box] += 2.0 * curvature_action(TensorField(window, field.comp[box])).comp
    return TensorField(grid, out, max(field.support_margin - 2, band))


def l2_inner(a: TensorField, b: TensorField) -> float:
    """Background L^2 pairing 4 * integral of <a, b>_g (see module docs);
    each slot of a is raised by one batched matmul on `grid.Ginv`."""
    if a.grid is not b.grid or a.rank != b.rank:
        raise ValueError("fields must share a grid and rank")
    return 4.0 * a.grid.integrate(_pairing(a.comp, b.comp, a.grid.Ginv))


def l2_norm_sq(a: TensorField) -> float:
    return l2_inner(a, a)


def metric_jet(
    g: np.ndarray, spacing: float, band: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g^{-1}, dg, Gamma) of an arbitrary grid metric, by central differences.

    g has shape grid.shape + (n, n); dg[..., a, i, j] = d_a g_{ij} and
    Gamma[..., l, a, i] = Gamma^l_{ai} match the layout of the analytic
    background cache.  The inverse is symmetrized.  Built once per
    right-hand side and read by `ricci_of_metric` and the gauge term, for a
    result on box `band`: with (k0, k1) = `_stages(band)`, the inverse lies
    on box k0 and dg and Gamma on box k1, unpadded.
    """
    base = g.ndim - 2
    k0, k1 = _stages(band)
    ginv = _symmetrized(np.linalg.inv(g[_box(k0, base)]))
    dg = _partials(g, base, spacing, k1)
    return ginv, dg, christoffels_from_partials(ginv[_box(k1 - k0, base)], dg)


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
    contractions are batched matmuls over the trailing component axes.
    """
    n = g.shape[-1]
    base = g.ndim - 2
    sel = (slice(None),) * base
    k = max(band, 1)
    k0, k1 = _stages(band)
    ginv = ginv[_box(k - k0, base)]
    dg, gamma = dg[_box(k - k1, base)], gamma[_box(k - k1, base)]
    outer = g[_box(k - 1, base)]  # what the compact stencils read
    x = ginv[sel + (None,)] @ dg  # X[..., i] = g^{-1} d_i g
    gflat = gamma.reshape(gamma.shape[:-3] + (n, n * n))

    # (d_l g^{lk}) g_kp Gamma^p_ij + Gamma^l_{lp} Gamma^p_ij as one product
    coef = np.einsum("...llp->...p", gamma) - np.einsum("...llp->...p", x)
    acc = (coef[..., None, :] @ gflat).reshape(ginv.shape)
    # tr(X_i X_j) = sum_a X[:, a, :] @ X[:, :, a]^T, and likewise
    # Gamma^l_{ip} Gamma^p_{lj} = sum_l Gamma[l] @ Gamma[:, l]; X[:, :, a]
    # has no unit stride, so it is copied to keep the product on BLAS
    tr_xx = np.zeros(ginv.shape, ginv.dtype)
    for a in range(n):
        tr_xx += x[sel + (slice(None), a)] @ np.swapaxes(x[..., a], -1, -2).copy()
        acc -= gamma[sel + (a,)] @ gamma[sel + (slice(None), a)]
    del x
    acc += 0.5 * tr_xx

    # second-derivative terms, one compact d_p d_q block at a time
    mixed = np.zeros(ginv.shape, ginv.dtype)  # M_ij = g^{lk} d_l d_i g_kj
    lap = np.zeros(ginv.shape, ginv.dtype)  # g^{lk} d_l d_k g_ij
    hess_tr = np.zeros(ginv.shape, ginv.dtype)  # (d_i d_j g_kl) g^{lk}
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
