"""Ball-model geometry of CH^m: metric, geodesics, distance, grid caches.

Points live in the unit ball of C^m, realified to R^{2m} with the
interleaved convention x[2k] = Re z_k, x[2k+1] = Im z_k (0-based).  The
metric is normalized so that the holomorphic sectional curvature is -c and
the frame conventions of `frame_algebra` are reproduced at the origin, where
g(0) = (4/c) Id.

All pointwise functions broadcast over leading axes; `ChartGrid` bundles the
cached fields (metric, inverse, volume density, Christoffel symbols) on a
uniform coordinate grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "to_complex",
    "to_real",
    "j_matrix",
    "bergman_metric_at",
    "metric_derivative_at",
    "christoffel_at",
    "christoffels_from_partials",
    "kahler_form_at",
    "riemann_coordinate_at",
    "ricci_fd_at",
    "CurvatureComponentReport",
    "curvature_component_check",
    "curvature_crosscheck",
    "distance",
    "mobius_involution",
    "geodesic_from",
    "coordinate_radius",
    "sphere_area",
    "ball_volume",
    "volume_growth_rate",
    "ChartGrid",
]


def to_complex(x: np.ndarray) -> np.ndarray:
    """Realified coordinates (..., 2m) -> complex point (..., m)."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def to_real(z: np.ndarray) -> np.ndarray:
    """Complex point (..., m) -> realified coordinates (..., 2m)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def j_matrix(m: int) -> np.ndarray:
    """Complex structure on R^{2m}: J e_{2k} = e_{2k+1}, J e_{2k+1} = -e_{2k}."""
    j = np.zeros((2 * m, 2 * m))
    for k in range(m):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    return j


def _hermitian_metric(c: float, z: np.ndarray) -> np.ndarray:
    # h_{i jbar} = (4/c) (rho delta_ij + zbar_i z_j) / rho^2, rho = 1 - |z|^2
    rho = 1.0 - np.sum(z.real**2 + z.imag**2, axis=-1)
    if np.any(rho <= 0):
        raise ValueError("point outside the unit ball")
    eye = np.eye(z.shape[-1])
    outer = np.conj(z)[..., :, None] * z[..., None, :]
    return (4.0 / c) * (rho[..., None, None] * eye + outer) / rho[..., None, None] ** 2


def _realify(h: np.ndarray) -> np.ndarray:
    # Hermitian (..., m, m) -> symmetric (..., 2m, 2m) in interleaved basis.
    # Hermitize first: vectorized complex products leave O(1e-16) imaginary
    # residue on diagonals, which would break bitwise symmetry of the output.
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    m = h.shape[-1]
    g = np.empty(h.shape[:-2] + (2 * m, 2 * m))
    g[..., 0::2, 0::2] = h.real
    g[..., 1::2, 1::2] = h.real
    g[..., 0::2, 1::2] = h.imag
    g[..., 1::2, 0::2] = -h.imag
    return g


def bergman_metric_at(m: int, c: float, x: np.ndarray) -> np.ndarray:
    """Metric components g_{ij}(x), shape (..., 2m, 2m)."""
    z = to_complex(x)
    if z.shape[-1] != m:
        raise ValueError(f"expected {2 * m} real coordinates")
    return _realify(_hermitian_metric(c, z))


def metric_derivative_at(m: int, c: float, x: np.ndarray) -> np.ndarray:
    """Coordinate partials dG[..., a, i, j] = d_a g_{ij}(x), analytic."""
    z = to_complex(x)
    rho = 1.0 - np.sum(z.real**2 + z.imag**2, axis=-1)
    if np.any(rho <= 0):
        raise ValueError("point outside the unit ball")
    eye = np.eye(m)
    zb = np.conj(z)
    r2 = rho[..., None, None, None] ** -2
    r3 = rho[..., None, None, None] ** -3
    # hz[..., k, i, j] = d h_ij / d z_k ; hzb = d h_ij / d zbar_k
    hz = (4.0 / c) * (
        r2 * zb[..., :, None, None] * eye[None, :, :]
        + 2.0 * r3 * zb[..., :, None, None] * zb[..., None, :, None] * z[..., None, None, :]
        + r2 * zb[..., None, :, None] * eye[:, None, :]
    )
    hzb = (4.0 / c) * (
        r2 * z[..., :, None, None] * eye[None, :, :]
        + 2.0 * r3 * z[..., :, None, None] * zb[..., None, :, None] * z[..., None, None, :]
        + r2 * z[..., None, None, :] * eye[:, :, None]
    )
    dh = np.empty(z.shape[:-1] + (2 * m, m, m), dtype=complex)
    dh[..., 0::2, :, :] = hz + hzb
    dh[..., 1::2, :, :] = 1j * (hz - hzb)
    return _realify(dh)


def christoffel_at(m: int, c: float, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[..., l, a, i] = Gamma^l_{ai}(x)."""
    g = bergman_metric_at(m, c, x)
    return christoffels_from_partials(np.linalg.inv(g), metric_derivative_at(m, c, x))


def christoffels_from_partials(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^l_{ai} = (1/2) g^{lp} (d_a g_{pi} + d_i g_{pa} - d_p g_{ai}).

    ginv has shape (..., n, n) and dg[..., a, i, j] = d_a g_{ij}; returns
    Gamma[..., l, a, i] for any metric, analytic or finite-difference.
    """
    n = dg.shape[-1]
    bracket = (
        np.einsum("...api->...pai", dg)
        + np.einsum("...ipa->...pai", dg)
        - dg
    )
    bracket *= 0.5
    flat = bracket.reshape(bracket.shape[:-3] + (n, n * n))
    return (ginv @ flat).reshape(bracket.shape)


def kahler_form_at(m: int, c: float, x: np.ndarray) -> np.ndarray:
    """Kahler form omega_{ab} = g(J d_a, d_b), shape (..., 2m, 2m)."""
    g = bergman_metric_at(m, c, x)
    return np.einsum("ca,...cb->...ab", j_matrix(m), g)


def riemann_coordinate_at(m: int, c: float, x: np.ndarray) -> np.ndarray:
    """Curvature tensor Rm[..., i, p, q, j] = R(d_i, d_p, d_q, d_j)(x).

    Uses the algebraic constant-holomorphic-curvature form, which is a
    pointwise tensor identity in any basis:
    R = -(c/4)[g(X,Z)g(Y,W) - g(X,W)g(Y,Z) + om(X,Z)om(Y,W)
               - om(X,W)om(Y,Z) - 2 om(X,Y) om(W,Z)].
    """
    g = bergman_metric_at(m, c, x)
    om = kahler_form_at(m, c, x)
    s = (
        np.einsum("...ij,...pq->...ipqj", g, g)
        - np.einsum("...iq,...pj->...ipqj", g, g)
        + np.einsum("...ij,...pq->...ipqj", om, om)
        - np.einsum("...iq,...pj->...ipqj", om, om)
        - 2.0 * np.einsum("...ip,...qj->...ipqj", om, om)
    )
    return -(c / 4.0) * s


def _fd_riemann(m: int, c: float, x: np.ndarray, step: float) -> np.ndarray:
    # R_{ipqj} = g_{jl} (d_i Gamma^l_{pq} - d_p Gamma^l_{iq}
    #            + Gamma^l_{ik} Gamma^k_{pq} - Gamma^l_{pk} Gamma^k_{iq})
    # with dgam[a, l, p, i] = d_a Gamma^l_{pi} by central differences of the
    # analytic Christoffels
    x = np.asarray(x, dtype=float)
    n = 2 * m
    dgam = np.empty((n, n, n, n))
    for a in range(n):
        xp, xm = x.copy(), x.copy()
        xp[a] += step
        xm[a] -= step
        dgam[a] = (christoffel_at(m, c, xp) - christoffel_at(m, c, xm)) / (2 * step)
    g = bergman_metric_at(m, c, x)
    gam = christoffel_at(m, c, x)
    rupper = (
        np.einsum("ilpq->ipql", dgam)
        - np.einsum("pliq->ipql", dgam)
        + np.einsum("lik,kpq->ipql", gam, gam)
        - np.einsum("lpk,kiq->ipql", gam, gam)
    )
    return np.einsum("ipql,jl->ipqj", rupper, g)


def ricci_fd_at(m: int, c: float, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Ricci tensor at a point from finite differences of Christoffels.

    Rc_{ij} = g^{kl} R_{kijl}, the contraction of the finite-difference
    curvature tensor.  Second-order accurate in step; used as an
    independent check of the algebraic curvature.
    """
    ginv = np.linalg.inv(bergman_metric_at(m, c, x))
    return np.einsum("kl,kijl->ij", ginv, _fd_riemann(m, c, x, step))


CURVATURE_COMPONENT_CLASSES: tuple[tuple[str, tuple[int, int, int, int], float], ...] = (
    # label, 0-based coordinate indices at the origin, exact value in units of c
    ("X,JX,JX,X", (0, 1, 1, 0), -1.0),
    ("X,Y,Y,X", (0, 2, 2, 0), -0.25),
    ("X,JX,JY,Y", (0, 1, 3, 2), -0.5),
    ("X,JY,JY,X", (0, 3, 3, 0), -0.25),
    ("X,Y,JX,JY", (0, 2, 1, 3), 0.25),
)


@dataclass(frozen=True)
class CurvatureComponentReport:
    """Finite-difference curvature components at the origin vs closed form.

    numeric[s][k] is class k at spacings[s], in frame units (coordinate
    values scaled by (c/4)^2 so the exact column reads in units of c);
    orders are per-class least-squares slopes of log error vs log spacing.
    """

    m: int
    c: float
    spacings: tuple[float, ...]
    labels: tuple[str, ...]
    exact: tuple[float, ...]
    numeric: tuple[tuple[float, ...], ...]
    errors: tuple[tuple[float, ...], ...]
    orders: tuple[float, ...]


def curvature_component_check(
    m: int, c: float, spacings: tuple[float, ...] = (0.1, 0.05, 0.025)
) -> CurvatureComponentReport:
    """Representative curvature components by differencing Christoffels.

    The FD step equals the grid spacing under test; all five component
    classes need two complex directions, so m must be at least 2.
    """
    if m < 2:
        raise ValueError("component classes need m >= 2")
    if len(spacings) < 2:
        raise ValueError("need at least two spacings for an order fit")
    x = np.zeros(2 * m)
    labels = tuple(lbl for lbl, _, _ in CURVATURE_COMPONENT_CLASSES)
    exact = tuple(c * u for _, _, u in CURVATURE_COMPONENT_CLASSES)
    numeric, errors = [], []
    for s in spacings:
        rm_fd = _fd_riemann(m, c, x, s) * (c / 4.0) ** 2
        row = tuple(float(rm_fd[idx]) for _, idx, _ in CURVATURE_COMPONENT_CLASSES)
        numeric.append(row)
        errors.append(tuple(abs(n - e) for n, e in zip(row, exact)))
    logs = np.log(np.asarray(spacings))
    orders = tuple(
        float(np.polyfit(logs, np.log([err[k] for err in errors]), 1)[0])
        for k in range(len(labels))
    )
    return CurvatureComponentReport(
        m=m,
        c=c,
        spacings=tuple(spacings),
        labels=labels,
        exact=exact,
        numeric=tuple(numeric),
        errors=tuple(errors),
        orders=orders,
    )


def curvature_crosscheck(m: int, c: float, x: np.ndarray, step: float = 1e-3) -> float:
    """Relative gap between finite-difference and algebraic curvature at x.

    Builds R_{ipqj} by differencing the analytic Christoffels and compares
    with `riemann_coordinate_at`.  Returns max abs difference / max abs
    component.
    """
    rm_fd = _fd_riemann(m, c, x, step)
    rm = riemann_coordinate_at(m, c, x)
    return float(np.max(np.abs(rm_fd - rm)) / np.max(np.abs(rm)))


# ---------------------------------------------------------------------------
# distance and geodesics

def distance(c: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geodesic distance between realified points, broadcasting.

    d = (2/sqrt(c)) arccosh(|1 - <z,w>| / sqrt(rho_z rho_w)) with
    <z,w> = sum z_i conj(w_i); reduces to (2/sqrt(c)) arctanh|z| from 0.
    """
    z, w = to_complex(x), to_complex(y)
    rz = 1.0 - np.sum(z.real**2 + z.imag**2, axis=-1)
    rw = 1.0 - np.sum(w.real**2 + w.imag**2, axis=-1)
    if np.any(rz <= 0) or np.any(rw <= 0):
        raise ValueError("point outside the unit ball")
    ip = np.sum(z * np.conj(w), axis=-1)
    arg = np.abs(1.0 - ip) / np.sqrt(rz * rw)
    return (2.0 / math.sqrt(c)) * np.arccosh(np.maximum(arg, 1.0))


def mobius_involution(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Holomorphic involution of the ball swapping 0 and a (complex inputs).

    phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>), with P_a the
    orthogonal projection onto C a, Q_a = Id - P_a, s_a = sqrt(1 - |a|^2).
    """
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    aa = np.sum(a.real**2 + a.imag**2)
    if aa >= 1.0:
        raise ValueError("center outside the unit ball")
    if aa == 0.0:
        return -z
    s = math.sqrt(1.0 - aa)
    za = np.sum(z * np.conj(a), axis=-1)
    pz = (za / aa)[..., None] * a
    qz = z - pz
    return (a - pz - s * qz) / (1.0 - za)[..., None]


def coordinate_radius(c: float, r_geodesic: float) -> float:
    """Euclidean radius of the geodesic ball of radius r about the origin."""
    return math.tanh(math.sqrt(c) * r_geodesic / 2.0)


def geodesic_from(
    m: int, c: float, x: np.ndarray, direction: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Unit-speed geodesic through x with initial velocity along `direction`.

    `direction` is a nonzero coordinate vector in R^{2m}; the returned points
    have shape (len(ts), 2m) and satisfy d(x, gamma(t)) = |t| exactly (up to
    the closed-form distance).  The curve is the image under the Mobius
    involution at x of a straight ray through the origin.
    """
    x = np.asarray(x, dtype=float)
    zx = to_complex(x)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    v = np.asarray(direction, dtype=float)
    if np.allclose(v, 0):
        raise ValueError("direction must be nonzero")
    # pull the coordinate direction back to the origin: u ~ D phi_x(x) v
    eps = 1e-7
    zp = to_complex(x + eps * v)
    zm = to_complex(x - eps * v)
    u = (mobius_involution(zx, zp) - mobius_involution(zx, zm)) / (2 * eps)
    u = u / math.sqrt(float(np.sum(u.real**2 + u.imag**2)))
    radii = np.tanh(math.sqrt(c) * ts / 2.0)
    pts = mobius_involution(zx, radii[:, None] * u[None, :])
    return to_real(pts)


# ---------------------------------------------------------------------------
# volume

def sphere_area(m: int, c: float, r: np.ndarray) -> np.ndarray:
    """Area of the geodesic sphere of radius r about a point."""
    r = np.asarray(r, dtype=float)
    sc = math.sqrt(c)
    s_unit = 2.0 * math.pi**m / math.factorial(m - 1)
    return s_unit * (np.sinh(sc * r) / sc) * (2.0 * np.sinh(sc * r / 2.0) / sc) ** (
        2 * m - 2
    )


def _simpson(f: np.ndarray, h: float) -> float:
    if f.shape[0] % 2 == 0:
        raise ValueError("need an odd number of samples")
    w = np.ones(f.shape[0])
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * f) * h / 3.0)


def ball_volume(m: int, c: float, radius: float, npts: int = 2049) -> float:
    """Volume of the geodesic ball of radius `radius` (radial quadrature)."""
    r = np.linspace(0.0, radius, npts)
    return _simpson(sphere_area(m, c, r), r[1] - r[0])


def volume_growth_rate(m: int, c: float, r1: float, r2: float) -> float:
    """Log-volume growth rate (log V(r2) - log V(r1)) / (r2 - r1).

    Tends to m sqrt(c) from below as the radii grow.
    """
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    return (math.log(ball_volume(m, c, r2)) - math.log(ball_volume(m, c, r1))) / (
        r2 - r1
    )


# ---------------------------------------------------------------------------
# grid cache

@dataclass
class ChartGrid:
    """Uniform coordinate grid with cached geometry of the background metric.

    The grid covers [-box_half, box_half]^{2m} with the given spacing, which
    must divide box_half.  The grid is the only writer of its cache, and
    these fields are its only keys (built lazily on first access; Gamma is
    built slab by slab along axis 0 to bound its peak memory):

        points    (..., 2m)       coordinates
        G, Ginv   (..., 2m, 2m)   metric and inverse
        sqrt_det  (...)           volume density
        Gamma     (..., 2m,2m,2m) Gamma[..., l, a, i] = Gamma^l_{ai}
        r_geo     (...)           geodesic distance to the origin
    """

    m: int
    c: float
    box_half: float
    spacing: float
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        k = self.box_half / self.spacing
        if abs(k - round(k)) > 1e-9:
            raise ValueError("spacing must divide box_half")
        self.half_cells = int(round(k))
        if self.box_half * math.sqrt(2 * self.m) >= 1.0:
            raise ValueError("grid corner must stay inside the unit ball")
        self.axes = self.spacing * np.arange(-self.half_cells, self.half_cells + 1)
        self.n_axis = self.axes.shape[0]
        self.shape = (self.n_axis,) * (2 * self.m)

    @property
    def points(self) -> np.ndarray:
        if "points" not in self._cache:
            grids = np.meshgrid(*([self.axes] * (2 * self.m)), indexing="ij")
            self._cache["points"] = np.stack(grids, axis=-1)
        return self._cache["points"]

    @property
    def G(self) -> np.ndarray:
        if "G" not in self._cache:
            self._cache["G"] = bergman_metric_at(self.m, self.c, self.points)
        return self._cache["G"]

    @property
    def Ginv(self) -> np.ndarray:
        if "Ginv" not in self._cache:
            self._cache["Ginv"] = np.linalg.inv(self.G)
        return self._cache["Ginv"]

    @property
    def sqrt_det(self) -> np.ndarray:
        if "sqrt_det" not in self._cache:
            sign, logdet = np.linalg.slogdet(self.G)
            if np.any(sign <= 0):
                raise AssertionError("metric lost positivity (internal)")
            self._cache["sqrt_det"] = np.exp(0.5 * logdet)
        return self._cache["sqrt_det"]

    @property
    def Gamma(self) -> np.ndarray:
        if "Gamma" not in self._cache:
            n = 2 * self.m
            out = np.empty(self.shape + (n, n, n))
            for i0 in range(self.n_axis):  # slab along axis 0
                out[i0] = christoffel_at(self.m, self.c, self.points[i0])
            self._cache["Gamma"] = out
        return self._cache["Gamma"]

    @property
    def r_geo(self) -> np.ndarray:
        if "r_geo" not in self._cache:
            rad = np.sqrt(np.sum(self.points**2, axis=-1))
            self._cache["r_geo"] = (2.0 / math.sqrt(self.c)) * np.arctanh(rad)
        return self._cache["r_geo"]

    @property
    def cell_volume(self) -> float:
        return self.spacing ** (2 * self.m)

    def interior_mask(self, cells: int) -> np.ndarray:
        """True away from the boundary by at least `cells` grid cells."""
        mask = np.ones(self.shape, dtype=bool)
        for ax in range(2 * self.m):
            idx = [slice(None)] * (2 * self.m)
            idx[ax] = slice(0, cells)
            mask[tuple(idx)] = False
            idx[ax] = slice(self.n_axis - cells, self.n_axis)
            mask[tuple(idx)] = False
        return mask

    def geodesic_ball_mask(self, radius: float) -> np.ndarray:
        return self.r_geo <= radius

    def integrate(self, scalar: np.ndarray) -> float:
        """Riemannian integral of a scalar grid field (uniform Riemann sum)."""
        return float(np.sum(scalar * self.sqrt_det) * self.cell_volume)
