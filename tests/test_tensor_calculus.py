"""Tests for the discrete covariant calculus.

Main oracles:
  * conformal fields h = phi g: covariant quantities reduce to scalar ones
    (nabla h = dphi (x) g, delta h = -dphi, C(h) = -lam phi g), the last one
    exactly since the curvature action is algebraic;
  * the frame-level curvature matrix from `frame_algebra`, which must be
    reproduced by the coordinate curvature action at the origin;
  * two-path checks (analytic vs finite-difference Christoffels / Ricci)
    with measured convergence order.

Convergence orders are measured over a fixed physical region (not a fixed
number of boundary cells, which would let the region grow as the grid is
refined), and the compactly supported test profile is polynomial: the usual
C-infinity cutoff has derivative ratios blowing up at the support edge,
which contaminates sup-norm convergence orders at practical resolutions.
"""

import math

import numpy as np
import pytest

from chflow import chart_geometry as cg
from chflow import frame_algebra as fa
from chflow import tensor_calculus as tc


def bump_scalar(grid, width, amplitude=1.0, center=None, power=6):
    """Compactly supported profile A (1 - |x/width|^2)_+^power."""
    pts = grid.points
    if center is not None:
        pts = pts - np.asarray(center)
    u2 = np.sum(pts**2, axis=-1) / width**2
    vals = amplitude * np.clip(1.0 - u2, 0.0, None) ** power
    margin = int(math.floor((grid.box_half - width) / grid.spacing))
    return tc.scalar_field(grid, vals, margin=max(margin, 0))


def conformal(grid, phi):
    return tc.sym_tensor(
        grid, phi.comp[..., None, None] * grid.G, margin=phi.support_margin
    )


def grid_m1(spacing, c=2.0, box_half=0.4):
    return cg.ChartGrid(m=1, c=c, box_half=box_half, spacing=spacing)


def region_sup(grid, arr, bound=0.3):
    """Sup over the fixed coordinate box |x|_inf <= bound."""
    mask = np.max(np.abs(grid.points), axis=-1) <= bound + 1e-12
    return float(np.max(np.abs(arr[mask])))


def last_pair_order(spacings, errors):
    return math.log(errors[-2] / errors[-1]) / math.log(spacings[-2] / spacings[-1])


SPACINGS = [0.04, 0.02, 0.01]


def test_field_validation():
    grid = grid_m1(0.1)
    with pytest.raises(ValueError):
        tc.TensorField(grid, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tc.TensorField(grid, np.zeros(grid.shape + (3,)))
    bad = np.zeros(grid.shape + (2, 2))
    bad[..., 0, 1] = 1.0
    with pytest.raises(ValueError):
        tc.sym_tensor(grid, bad)


def test_partial_derivative_exact_on_quadratics():
    # central differences are exact on quadratic polynomials
    grid = grid_m1(0.1)
    x, y = grid.points[..., 0], grid.points[..., 1]
    phi = tc.scalar_field(grid, 1.0 + 2.0 * x - y + 3.0 * x * y + x**2)
    dphi = tc.partial_derivative(phi).comp
    inner = grid.interior_mask(1)
    assert np.allclose(dphi[..., 0][inner], (2.0 + 3.0 * y + 2 * x)[inner], atol=1e-12)
    assert np.allclose(dphi[..., 1][inner], (-1.0 + 3.0 * x)[inner], atol=1e-12)


def test_covariant_derivative_of_metric_vanishes():
    errs = []
    for s in SPACINGS:
        grid = grid_m1(s)
        nabla_g = tc.covariant_derivative(tc.sym_tensor(grid, grid.G.copy()))
        errs.append(region_sup(grid, nabla_g.comp))
    assert errs[-1] < 5e-3
    assert last_pair_order(SPACINGS, errs) > 1.9


def test_curvature_action_conformal_exact():
    # C(phi g) = -lam phi g pointwise, no discretization error
    for m, c in [(1, 2.0), (2, 4.0)]:
        grid = cg.ChartGrid(m=m, c=c, box_half=0.32, spacing=0.08)
        rng = np.random.default_rng(7)
        phi = tc.scalar_field(grid, rng.standard_normal(grid.shape))
        Ch = tc.curvature_action(conformal(grid, phi))
        lam = float(fa.einstein_constants(m, 1)[0]) * c
        expect = -lam * phi.comp[..., None, None] * grid.G
        assert np.max(np.abs(Ch.comp - expect)) < 1e-12 * lam * np.max(np.abs(grid.G))


def test_curvature_action_matches_gamma_matrix_at_origin():
    # constant-coefficient tensors at the origin: gamma coordinates of C(h)
    # must be R_gamma applied to the gamma coordinates of h
    m, c = 2, 3.0
    grid = cg.ChartGrid(m=m, c=c, box_half=0.2, spacing=0.1)
    basis = fa.build_gamma_basis(m)
    mats = np.stack([el.tensor(m) for el in basis])
    rmat = fa.block_R_gamma(m, c).to_float()
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(len(basis))
    hmat = np.einsum("k,kij->ij", coeffs, mats)
    h = tc.sym_tensor(grid, np.broadcast_to(hmat, grid.shape + hmat.shape).copy())
    Ch = tc.curvature_action(h)
    origin = (grid.half_cells,) * (2 * m)
    got = np.einsum("kij,ij->k", mats, Ch.comp[origin])
    assert np.max(np.abs(got - rmat @ coeffs)) < 1e-12 * np.max(np.abs(coeffs))


def test_conformal_gradient_identities():
    # || nabla(phi g) ||^2 = n ||dphi||^2, ||T||^2 = (2n-2) ||dphi||^2,
    # || delta(phi g) ||^2 = ||dphi||^2, delta(phi g) = -dphi
    grid = grid_m1(0.02)
    n = 2
    phi = bump_scalar(grid, width=0.22, amplitude=0.7)
    assert phi.support_margin >= 4
    h = conformal(grid, phi)
    dphi = tc.partial_derivative(phi)
    dd = tc.l2_norm_sq(dphi)
    assert abs(tc.l2_norm_sq(tc.covariant_derivative(h)) / (n * dd) - 1) < 2e-3
    assert abs(tc.l2_norm_sq(tc.three_tensor_T(h)) / ((2 * n - 2) * dd) - 1) < 2e-3
    delta_h = tc.divergence(h)
    assert abs(tc.l2_norm_sq(delta_h) / dd - 1) < 2e-3
    assert np.max(np.abs(delta_h.comp + dphi.comp)) < 2e-3 * np.max(np.abs(dphi.comp))


def test_rough_laplacian_conformal_matches_scalar():
    errs = []
    for s in SPACINGS:
        grid = grid_m1(s)
        phi = bump_scalar(grid, width=0.22)
        lap_h = tc.rough_laplacian(conformal(grid, phi))
        # scalar laplacian through the one-form route
        ddphi = tc.covariant_derivative(tc.partial_derivative(phi))
        lap_phi = np.einsum("...ab,...ab->...", grid.Ginv, ddphi.comp)
        diff = lap_h.comp - lap_phi[..., None, None] * grid.G
        errs.append(np.max(np.abs(diff)) / np.max(np.abs(lap_phi)))
    assert errs[-1] < 2e-3
    assert last_pair_order(SPACINGS, errs) > 1.9


def test_divergence_adjoint_duality():
    errs = []
    for s in SPACINGS:
        grid = grid_m1(s)
        rng = np.random.default_rng(23)
        mat = rng.standard_normal((2, 2))
        phi = bump_scalar(grid, width=0.2)
        psi = bump_scalar(grid, width=0.24, center=[0.05, -0.03])
        h = tc.sym_tensor(
            grid, phi.comp[..., None, None] * (mat + mat.T), phi.support_margin
        )
        w = tc.one_form(
            grid, np.stack([psi.comp, -0.5 * psi.comp], axis=-1), psi.support_margin
        )
        lhs = tc.l2_inner(tc.divergence(h), w)
        rhs = tc.l2_inner(h, tc.divergence_adjoint(w))
        scale = tc.l2_norm_sq(h) ** 0.5 * tc.l2_norm_sq(w) ** 0.5
        errs.append(abs(lhs - rhs) / scale)
    assert errs[-1] < 1e-4
    assert last_pair_order(SPACINGS, errs) > 1.9


def test_three_tensor_antisymmetry_is_exact():
    grid = grid_m1(0.05)
    phi = bump_scalar(grid, width=0.25)
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((2, 2))
    h = tc.sym_tensor(
        grid, phi.comp[..., None, None] * (mat + mat.T), phi.support_margin
    )
    t = tc.three_tensor_T(h).comp
    assert np.array_equal(t, -np.swapaxes(t, -3, -1))


def test_lichnerowicz_two_path():
    spacings = [0.04, 0.02]
    errs = []
    for s in spacings:
        grid = grid_m1(s, c=1.0)
        phi = bump_scalar(grid, width=0.24)
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((2, 2))
        h = tc.sym_tensor(
            grid, phi.comp[..., None, None] * (mat + mat.T), phi.support_margin
        )
        exact = tc.lichnerowicz(h, ricci_mode="exact")
        fd = tc.lichnerowicz(h, ricci_mode="fd")
        scale = np.max(np.abs(exact.comp)) + 1.0
        errs.append(np.max(np.abs(exact.comp - fd.comp)) / scale)
    assert errs[-1] < 1e-3
    assert last_pair_order(spacings, errs) > 1.8
    with pytest.raises(ValueError):
        tc.lichnerowicz(h, ricci_mode="bogus")


def test_stability_operator_shifts_lichnerowicz():
    grid = grid_m1(0.05, c=3.0)
    phi = bump_scalar(grid, width=0.25)
    h = conformal(grid, phi)
    lam = float(fa.einstein_constants(1, 1)[0]) * 3.0
    a = tc.stability_operator(h)
    dl = tc.lichnerowicz(h, ricci_mode="exact")
    assert np.allclose(a.comp, dl.comp - 2 * lam * h.comp, atol=1e-11)


def test_background_fd_ricci_is_einstein():
    errs = []
    for s in SPACINGS:
        grid = grid_m1(s, c=2.0)
        lam = float(fa.einstein_constants(1, 1)[0]) * 2.0
        rc = tc.background_fd_ricci(grid)
        errs.append(region_sup(grid, rc + lam * grid.G) / np.max(np.abs(grid.G)))
    assert errs[-1] < 1e-3
    assert last_pair_order(SPACINGS, errs) > 1.9


def test_christoffels_of_metric_matches_analytic():
    errs = []
    for s in SPACINGS:
        grid = grid_m1(s, c=2.0)
        fd = tc.metric_jet(grid.G, grid.spacing)[2]
        errs.append(region_sup(grid, fd - grid.Gamma))
    assert errs[-1] < 1e-3
    assert last_pair_order(SPACINGS, errs) > 1.9


def test_trace_and_einstein_part():
    grid = grid_m1(0.05, c=1.5)
    gfield = tc.sym_tensor(grid, grid.G.copy())
    assert np.allclose(tc.trace_field(gfield).comp, 2.0, atol=1e-12)
    phi = bump_scalar(grid, width=0.25)
    h = conformal(grid, phi)
    gh = tc.einstein_tensor_part(h)
    # n = 2: G(phi g) = (1 - n/2) phi g = 0
    assert np.max(np.abs(gh.comp)) < 1e-13
    # and the gauge one-form of a conformal field vanishes with it
    assert region_sup(grid, tc.bianchi_one_form(h).comp) < 1e-12


def test_bianchi_one_form_conformal_m2():
    # n = 4: delta G(phi g) = (n/2 - 1) d phi = d phi
    grid = cg.ChartGrid(m=2, c=2.0, box_half=0.32, spacing=0.04)
    phi = bump_scalar(grid, width=0.2)
    got = tc.bianchi_one_form(conformal(grid, phi))
    dphi = tc.partial_derivative(phi)
    scale = np.max(np.abs(dphi.comp))
    assert np.max(np.abs(got.comp - dphi.comp)) < 2e-2 * scale


def test_l2_inner_properties():
    grid = grid_m1(0.05)
    phi = bump_scalar(grid, width=0.2)
    psi = bump_scalar(grid, width=0.3, amplitude=-0.4)
    a = conformal(grid, phi)
    b = conformal(grid, psi)
    assert tc.l2_inner(a, b) == pytest.approx(tc.l2_inner(b, a), rel=1e-12)
    assert tc.l2_norm_sq(a) > 0
    doubled = tc.sym_tensor(grid, 2.0 * a.comp, a.support_margin)
    assert tc.l2_norm_sq(doubled) == 4.0 * tc.l2_norm_sq(a)
    with pytest.raises(ValueError):
        tc.l2_inner(a, tc.partial_derivative(phi))


def test_l2_convention_factor():
    # the pairing carries a global factor 4: <g, g> = 4 n Vol
    grid = grid_m1(0.05, c=1.0)
    gfield = tc.sym_tensor(grid, grid.G.copy())
    vol = grid.integrate(np.ones(grid.shape))
    assert tc.l2_norm_sq(gfield) == pytest.approx(4 * 2 * vol, rel=1e-12)
