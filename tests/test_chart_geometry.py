"""Tests for the ball-model geometry.

Finite-difference oracles: the analytic metric derivative is checked against
central differences of the metric itself, the algebraic curvature against a
finite-difference assembly from Christoffels, and the closed-form distance
against radial quadrature of the line element.
"""

import math

import numpy as np
import pytest

from chflow import chart_geometry as cg
from chflow import frame_algebra as fa


RNG = np.random.default_rng(314159)


def random_interior_point(m, scale=0.3):
    x = RNG.uniform(-scale, scale, size=2 * m)
    assert np.linalg.norm(cg.to_complex(x)) < 0.9
    return x


def fd_curvature_gap(m, c, x, step=1e-3):
    """Relative max gap of the FD curvature tensor to the closed form at x."""
    rm = cg.riemann_coordinate_at(m, c, x)
    return float(np.max(np.abs(cg._fd_riemann(m, c, x, step) - rm)) / np.max(np.abs(rm)))


def ball_volume(m, c, radius):
    """Geodesic ball volume, by Simpson quadrature of the sphere area."""
    r = np.linspace(0.0, radius, 2049)
    return cg._simpson(cg.sphere_area(m, c, r), r[1] - r[0])


def test_complex_real_roundtrip():
    x = RNG.uniform(-0.4, 0.4, size=(3, 6))
    assert np.allclose(cg.to_real(cg.to_complex(x)), x)


def test_metric_at_origin():
    for m, c in [(1, 1.0), (2, 4.0), (3, 0.5)]:
        g0 = cg.bergman_metric_at(m, c, np.zeros(2 * m))
        assert np.allclose(g0, (4.0 / c) * np.eye(2 * m), atol=1e-14)


def test_metric_symmetric_positive():
    m, c = 2, 2.0
    for _ in range(5):
        x = random_interior_point(m)
        g = cg.bergman_metric_at(m, c, x)
        assert np.allclose(g, g.T, atol=1e-13)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_metric_radial_eigenvalues():
    # at z = (s, 0, ..., 0) the eigenvalues are (4/c)/rho^2 (twice, the
    # complex-radial directions) and (4/c)/rho (the rest)
    m, c, s = 2, 3.0, 0.37
    x = np.zeros(2 * m)
    x[0] = s
    rho = 1 - s * s
    ev = np.sort(np.linalg.eigvalsh(cg.bergman_metric_at(m, c, x)))
    expect = np.sort([4 / c / rho**2] * 2 + [4 / c / rho] * (2 * m - 2))
    assert np.allclose(ev, expect, rtol=1e-12)


def test_metric_derivative_matches_fd():
    m, c = 2, 2.0
    step = 1e-5
    for _ in range(3):
        x = random_interior_point(m)
        dg = cg.metric_derivative_at(m, c, x)
        for a in range(2 * m):
            xp, xm = x.copy(), x.copy()
            xp[a] += step
            xm[a] -= step
            fd = (cg.bergman_metric_at(m, c, xp) - cg.bergman_metric_at(m, c, xm)) / (
                2 * step
            )
            assert np.max(np.abs(dg[a] - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_christoffel_symmetry_and_compatibility():
    m, c = 2, 2.0
    x = random_interior_point(m)
    gam = cg.christoffel_at(m, c, x)
    assert np.allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-12)
    # metric compatibility: d_a g_ij = Gamma^l_{ai} g_lj + Gamma^l_{aj} g_il
    g = cg.bergman_metric_at(m, c, x)
    dg = cg.metric_derivative_at(m, c, x)
    rhs = np.einsum("lai,lj->aij", gam, g) + np.einsum("laj,il->aij", gam, g)
    assert np.max(np.abs(dg - rhs)) < 1e-9 * np.max(np.abs(dg))


def test_christoffel_vanishes_at_origin():
    m, c = 2, 1.0
    gam = cg.christoffel_at(m, c, np.zeros(2 * m))
    assert np.max(np.abs(gam)) < 1e-14


def test_kahler_form_antisymmetric_and_parallel():
    m, c = 2, 2.0
    x = random_interior_point(m)
    om = cg.kahler_form_at(m, c, x)
    assert np.allclose(om, -om.T, atol=1e-12)
    # nabla J = 0: d_a om_ij = Gamma^l_{ai} om_lj + Gamma^l_{aj} om_il
    step = 1e-5
    gam = cg.christoffel_at(m, c, x)
    for a in range(2 * m):
        xp, xm = x.copy(), x.copy()
        xp[a] += step
        xm[a] -= step
        dom = (cg.kahler_form_at(m, c, xp) - cg.kahler_form_at(m, c, xm)) / (2 * step)
        rhs = np.einsum("li,lj->ij", gam[:, a, :], om) + np.einsum(
            "lj,il->ij", gam[:, a, :], om
        )
        assert np.max(np.abs(dom - rhs)) < 1e-6


def test_curvature_fd_crosscheck_at_origin_and_generic():
    for m, c in [(1, 1.0), (2, 4.0)]:
        assert fd_curvature_gap(m, c, np.zeros(2 * m)) < 5e-6
        x = random_interior_point(m, scale=0.2)
        assert fd_curvature_gap(m, c, x) < 5e-6


def test_curvature_fd_crosscheck_second_order():
    m, c = 2, 4.0
    x = random_interior_point(m, scale=0.2)
    errs = [fd_curvature_gap(m, c, x, step=s) for s in (2e-2, 1e-2, 5e-3)]
    orders = np.diff(np.log(errs)) / np.log(0.5)
    assert np.all(orders > 1.9)


def test_curvature_component_table_values_and_orders():
    rep = cg.curvature_component_check(2, 4.0, spacings=(0.1, 0.05, 0.025))
    assert rep.labels == tuple(lbl for lbl, _, _ in cg.CURVATURE_COMPONENT_CLASSES)
    assert rep.exact == (-4.0, -1.0, -2.0, -1.0, 1.0)
    # second-order stencil: every class under 5e-2 at the middle spacing
    assert max(rep.errors[1]) < 5e-2
    assert all(o > 1.8 for o in rep.orders)


def test_curvature_component_table_scales_with_c():
    # exact column is linear in c while the FD assembly runs through the
    # metric, so agreement here exercises the frame normalization
    rep = cg.curvature_component_check(2, 1.0, spacings=(0.05, 0.025))
    assert rep.exact == (-1.0, -0.25, -0.5, -0.25, 0.25)
    assert max(rep.errors[1]) < 1e-3


def test_curvature_component_table_rejects_bad_input():
    with pytest.raises(ValueError):
        cg.curvature_component_check(1, 4.0)
    with pytest.raises(ValueError):
        cg.curvature_component_check(2, 4.0, spacings=(0.05,))


def test_coordinate_curvature_at_origin_matches_frame():
    # at the origin g = (4/c) Id, so the orthonormal frame is
    # sqrt(c)/2 d_i and coordinate components pick up (4/c)^2
    m, c = 2, 3.0
    rm = cg.riemann_coordinate_at(m, c, np.zeros(2 * m))
    scale = (4.0 / c) ** 2
    for idx in [(1, 2, 2, 1), (1, 3, 3, 1), (1, 2, 4, 3), (1, 4, 3, 2)]:
        i, p, q, j = idx
        expect = float(fa.riemann_component(m, 1, i, p, q, j)) * c * scale
        assert abs(rm[i - 1, p - 1, q - 1, j - 1] - expect) < 1e-12 * scale


def test_ricci_is_einstein():
    m, c = 2, 2.0
    lam = float(fa.einstein_constants(m, 1)[0]) * c
    for x in [np.zeros(2 * m), random_interior_point(m)]:
        # Rc_ij = g^kl R_kijl of the FD curvature tensor
        g = cg.bergman_metric_at(m, c, x)
        rc = np.einsum("kl,kijl->ij", np.linalg.inv(g), cg._fd_riemann(m, c, x, 1e-4))
        assert np.max(np.abs(rc + lam * g)) < 1e-5 * np.max(np.abs(g))


def test_ricci_contracts_algebraic_curvature():
    m, c = 2, 1.5
    x = random_interior_point(m)
    rm = cg.riemann_coordinate_at(m, c, x)
    ginv = np.linalg.inv(cg.bergman_metric_at(m, c, x))
    rc = np.einsum("pq,ipqj->ij", ginv, rm)
    lam = float(fa.einstein_constants(m, 1)[0]) * c
    assert np.max(np.abs(rc + lam * cg.bergman_metric_at(m, c, x))) < 1e-10


# ---------------------------------------------------------------------------
# distance and geodesics

def test_distance_from_origin_closed_form():
    m, c = 2, 4.0
    x = np.zeros(2 * m)
    y = np.zeros(2 * m)
    y[0] = 0.5
    d = cg.distance(c, x, y)
    assert abs(d - (2 / math.sqrt(c)) * math.atanh(0.5)) < 1e-14


def test_distance_matches_radial_quadrature():
    # integrate the radial line element sqrt(g_rr) = (2/sqrt(c))/(1-r^2)
    m, c, s = 1, 2.0, 0.6
    r = np.linspace(0, s, 20001)
    integrand = (2 / math.sqrt(c)) / (1 - r**2)
    quad = np.trapezoid(integrand, r)
    y = np.zeros(2 * m)
    y[0] = s
    assert abs(cg.distance(c, np.zeros(2 * m), y) - quad) < 1e-8


def test_distance_symmetry_and_triangle():
    m, c = 2, 1.0
    pts = [random_interior_point(m) for _ in range(3)]
    dab = cg.distance(c, pts[0], pts[1])
    assert abs(dab - cg.distance(c, pts[1], pts[0])) < 1e-14
    assert dab <= cg.distance(c, pts[0], pts[2]) + cg.distance(c, pts[2], pts[1]) + 1e-12


def test_mobius_involution_swaps_and_preserves_distance():
    m, c = 2, 2.0
    a = cg.to_complex(random_interior_point(m))
    z = cg.to_complex(random_interior_point(m))
    w = cg.to_complex(random_interior_point(m))
    assert np.allclose(cg.mobius_involution(a, np.zeros(m, dtype=complex)), a)
    assert np.allclose(cg.mobius_involution(a, a), 0, atol=1e-14)
    assert np.allclose(cg.mobius_involution(a, cg.mobius_involution(a, z)), z)
    d0 = cg.distance(c, cg.to_real(z), cg.to_real(w))
    d1 = cg.distance(
        c,
        cg.to_real(cg.mobius_involution(a, z)),
        cg.to_real(cg.mobius_involution(a, w)),
    )
    assert abs(d0 - d1) < 1e-12


def test_geodesic_is_unit_speed():
    m, c = 2, 4.0
    x = random_interior_point(m, scale=0.2)
    ts = np.array([-0.5, -0.1, 0.0, 0.2, 0.4, 0.8])
    for i in range(2 * m):
        v = np.zeros(2 * m)
        v[i] = 1.0
        pts = cg.geodesic_from(m, c, x, v, ts)
        for t, p in zip(ts, pts):
            assert abs(cg.distance(c, x, p) - abs(t)) < 1e-9
        # consecutive points are collinear in the metric sense
        assert abs(cg.distance(c, pts[0], pts[-1]) - (ts[-1] - ts[0])) < 1e-9


def test_geodesic_initial_direction():
    m, c = 2, 1.0
    x = random_interior_point(m, scale=0.2)
    eps = 1e-5
    for i in range(2 * m):
        v = np.zeros(2 * m)
        v[i] = 1.0
        pts = cg.geodesic_from(m, c, x, v, np.array([-eps, eps]))
        tangent = (pts[1] - pts[0]) / (2 * eps)
        tangent = tangent / np.linalg.norm(tangent)
        assert abs(abs(tangent[i]) - 1.0) < 1e-6 and tangent[i] > 0


def test_geodesic_through_origin_is_straight():
    m, c = 1, 4.0
    ts = np.linspace(0, 1.0, 5)
    pts = cg.geodesic_from(m, c, np.zeros(2), np.array([1.0, 0.0]), ts)
    assert np.allclose(pts[:, 1], 0.0, atol=1e-12)
    assert np.allclose(pts[:, 0], np.tanh(math.sqrt(c) * ts / 2), atol=1e-12)


# ---------------------------------------------------------------------------
# volume

def test_sphere_area_small_radius_euclidean_limit():
    # A(r) ~ vol(S^{2m-1}) r^{2m-1} as r -> 0
    m, c = 2, 1.0
    r = 1e-4
    euclid = 2 * math.pi**m / math.factorial(m - 1) * r ** (2 * m - 1)
    assert abs(cg.sphere_area(m, c, r) / euclid - 1) < 1e-6


def test_ball_volume_matches_coordinate_integral():
    # independent check: integrate sqrt(det g) over the coordinate ball of
    # Euclidean radius tanh(sqrt(c) R / 2) in C^1
    m, c, R = 1, 1.0, 1.2
    s = math.tanh(math.sqrt(c) * R / 2.0)
    n = 801
    xs = np.linspace(-s, s, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    inside = X**2 + Y**2 <= s * s
    pts = np.stack([X, Y], axis=-1)
    g = cg.bergman_metric_at(m, c, pts.reshape(-1, 2)).reshape(n, n, 2, 2)
    dens = np.sqrt(np.linalg.det(g))
    coord = float(np.sum(dens * inside) * (xs[1] - xs[0]) ** 2)
    assert abs(coord / ball_volume(m, c, R) - 1) < 2e-3


def test_volume_growth_rate_approaches_limit():
    # the rate tends to m sqrt(c); the subexponential correction decays
    def rate(m, c, r1, r2):
        return (math.log(ball_volume(m, c, r2)) - math.log(ball_volume(m, c, r1))) / (r2 - r1)

    m, c = 2, 1.0
    limit = m * math.sqrt(c)
    near = rate(m, c, 4.0, 6.0)
    far = rate(m, c, 8.0, 10.0)
    assert abs(far - limit) < 1e-2
    assert abs(far - limit) < abs(near - limit)
    assert rate(3, 2.0, 8.0, 10.0) == pytest.approx(3 * math.sqrt(2.0), abs=2e-2)


# ---------------------------------------------------------------------------
# grid

def test_grid_axes_symmetric_exact():
    grid = cg.ChartGrid(m=1, c=1.0, box_half=0.4, spacing=0.1)
    assert grid.n_axis == 9
    assert np.array_equal(grid.axes, -grid.axes[::-1])
    assert grid.axes[grid.half_cells] == 0.0


def test_grid_spacing_must_divide():
    with pytest.raises(ValueError):
        cg.ChartGrid(m=1, c=1.0, box_half=0.4, spacing=0.15)


def test_grid_corner_inside_ball():
    with pytest.raises(ValueError):
        cg.ChartGrid(m=2, c=1.0, box_half=0.55, spacing=0.05)


def test_grid_fields_match_pointwise():
    grid = cg.ChartGrid(m=1, c=2.0, box_half=0.4, spacing=0.2)
    x = np.array([0.2, -0.4])
    idx = (grid.half_cells + 1, grid.half_cells - 2)
    assert np.allclose(grid.points[idx], x)
    assert np.allclose(grid.G[idx], cg.bergman_metric_at(1, 2.0, x))
    assert np.allclose(grid.Ginv[idx], np.linalg.inv(cg.bergman_metric_at(1, 2.0, x)))
    assert np.allclose(grid.Gamma[idx], cg.christoffel_at(1, 2.0, x))
    assert abs(grid.r_geo[idx] - cg.distance(2.0, np.zeros(2), x)) < 1e-14


def test_grid_masks():
    grid = cg.ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.1)
    inner = grid.interior_mask(2)
    assert inner.sum() == (grid.n_axis - 4) ** 2
    ball = grid.geodesic_ball_mask(2.0 / math.sqrt(4.0) * math.atanh(0.3) * 2)
    assert ball[grid.half_cells, grid.half_cells]
    assert not ball[0, 0]


def test_grid_integral_matches_volume():
    # integrate the indicator of a geodesic ball and compare with the
    # radial closed form; coarse grid so the tolerance is loose
    m, c = 1, 1.0
    grid = cg.ChartGrid(m=m, c=c, box_half=0.48, spacing=0.006)
    R = 0.8
    vol = grid.integrate(grid.geodesic_ball_mask(R).astype(float))
    assert abs(vol / ball_volume(m, c, R) - 1) < 5e-3
