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
from chflow import flow_engine as fe
from chflow import frame_algebra as fa
from chflow import stability_analysis as sa
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
        rc = fe.ricci_of(grid, grid.G)
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


def test_curvature_action_is_the_riemann_contraction():
    # independent of the closed form: C_ij = R_{ipqj} h^{pq} with the full
    # coordinate curvature tensor, where g is not a multiple of the identity
    # (the origin is covered by the frame-level test above)
    m, c = 2, 4.0
    grid = cg.ChartGrid(m=m, c=c, box_half=0.2, spacing=0.1)
    rng = np.random.default_rng(17)
    raw = rng.standard_normal(grid.shape + (2 * m, 2 * m))
    h = tc.sym_tensor(grid, raw + np.swapaxes(raw, -1, -2))
    rm = cg.riemann_coordinate_at(m, c, grid.points)
    hup = grid.Ginv @ h.comp @ grid.Ginv
    ref = np.einsum("...ipqj,...pq->...ij", rm, hup)
    got = tc.curvature_action(h).comp
    away = np.sum(grid.points**2, axis=-1) > 0
    gap = np.max(np.abs(got - ref)[away], axis=(-2, -1))
    assert np.all(gap <= 1e-12 * np.max(np.abs(ref[away]), axis=(-2, -1)))


def test_chart_grid_owns_its_cache():
    # the operators read the background geometry and add no keys of their own
    grid = cg.ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.05)
    h = sa.random_bump_tensor(grid, seed=3, width_range=(0.15, 0.2))
    sa.energy_report(h)
    sa.linearized_flow(h, t_end=0.002, fit_window=(0.0, 1.0))
    tc.lichnerowicz(h, ricci_mode="fd")
    assert set(grid._cache) <= {"points", "G", "Ginv", "sqrt_det", "Gamma", "r_geo"}


def test_window_reads_views_of_the_grid_cache():
    grid = cg.ChartGrid(m=2, c=4.0, box_half=0.2, spacing=0.05)
    win = tc._window(grid, (1, 2, 0, 3), (6, 9, 4, 7))
    assert win.shape == (5, 7, 4, 4)
    for key in ("G", "Ginv", "Gamma", "sqrt_det"):
        got = getattr(win, key)
        assert np.shares_memory(got, grid._cache[key])
        assert np.array_equal(got, getattr(grid, key)[win.box])
    assert set(grid._cache) == {"points", "G", "Ginv", "Gamma", "sqrt_det"}
    assert (win.m, win.c, win.spacing, win.cell_volume) == (
        grid.m, grid.c, grid.spacing, grid.cell_volume
    )


def test_window_of_a_window_is_the_window_of_the_composed_box():
    grid = cg.ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.05)
    outer = tc._window(grid, (2, 3), (15, 12))
    inner = tc._window(outer, (1, 2), (10, 8))
    composed = tc._window(grid, (3, 5), (12, 11))
    assert inner.parent is grid
    assert inner.box == composed.box
    for key in ("G", "Ginv", "Gamma", "sqrt_det"):
        assert np.shares_memory(getattr(inner, key), grid._cache[key])
        assert np.array_equal(getattr(inner, key), getattr(composed, key))


def test_window_integrates_on_the_grid():
    # a scalar that vanishes outside the window: the same float either way
    grid = cg.ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.05)
    win = tc._window(grid, (4, 0), (13, 9))
    scalar = np.zeros(grid.shape)
    scalar[win.box] = np.random.default_rng(1).standard_normal(win.shape)
    assert win.integrate(scalar[win.box]) == grid.integrate(scalar)


def test_l2_convention_factor():
    # the pairing carries a global factor 4: <g, g> = 4 n Vol
    grid = grid_m1(0.05, c=1.0)
    gfield = tc.sym_tensor(grid, grid.G.copy())
    vol = grid.integrate(np.ones(grid.shape))
    assert tc.l2_norm_sq(gfield) == pytest.approx(4 * 2 * vol, rel=1e-12)


# ---------------------------------------------------------------------------
# einsum oracle: the index-notation forms that the batched-matmul kernels
# replaced, kept verbatim here (and only here) as an independent reference


def _einsum_christoffels(ginv, dg):
    bracket = (
        np.einsum("...api->...pai", dg)
        + np.einsum("...ipa->...pai", dg)
        - dg
    )
    return 0.5 * np.einsum("...lp,...pai->...lai", ginv, bracket)


def _einsum_covariant(arr, gamma, spacing):
    rank = arr.ndim - (gamma.ndim - 3)
    out = tc._partials(arr, gamma.ndim - 3, spacing)
    if rank == 1:
        out -= np.einsum("...lai,...l->...ai", gamma, arr)
    elif rank == 2:
        out -= np.einsum("...lai,...lj->...aij", gamma, arr)
        out -= np.einsum("...laj,...il->...aij", gamma, arr)
    return out


def _roll_second_diff(arr, p, q, spacing):
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


def _einsum_ricci(g, ginv, dg, gamma, spacing):
    n = g.shape[-1]
    base = g.ndim - 2
    sel = (slice(None),) * base
    dginv = -np.einsum("...la,...iab,...bk->...ilk", ginv, dg, ginv)

    # first-derivative terms
    div_ginv = np.einsum("...llk->...k", dginv)  # d_l g^{lk}
    lowered = np.einsum("...k,...kp->...p", div_ginv, g)  # (d_l g^{lk}) g_kp
    acc = np.einsum("...p,...pij->...ij", lowered, gamma)
    acc -= 0.5 * np.einsum("...ilk,...jkl->...ij", dginv, dg)
    # quadratic Christoffel terms
    s = np.einsum("...llp->...p", gamma)
    acc += np.einsum("...p,...pij->...ij", s, gamma)
    acc -= np.einsum("...lip,...plj->...ij", gamma, gamma)

    # second-derivative terms, one compact d_p d_q block at a time
    mixed = np.zeros_like(g)  # M_ij = g^{lk} d_l d_i g_kj
    lap = np.zeros_like(g)  # g^{lk} d_l d_k g_ij
    hess_tr = np.zeros_like(g)  # (d_i d_j g_kl) g^{lk}
    for p in range(n):
        for q in range(p, n):
            d2 = _roll_second_diff(g, p, q, spacing)
            mixed[sel + (q,)] += np.einsum("...k,...kj->...j", ginv[sel + (p,)], d2)
            if p != q:
                mixed[sel + (p,)] += np.einsum("...k,...kj->...j", ginv[sel + (q,)], d2)
            weight = 1.0 if p == q else 2.0
            lap += weight * ginv[sel + (p, q) + (None, None)] * d2
            tr = np.einsum("...lk,...kl->...", ginv, d2)
            hess_tr[sel + (p, q)] = tr
            if p != q:
                hess_tr[sel + (q, p)] = tr
    acc += 0.5 * (mixed + np.swapaxes(mixed, -1, -2) - lap - hess_tr)
    return tc._symmetrized(acc)


def _einsum_ginv_gamma(grid):
    # M[..., b, l, i] = g^{ab} Gamma^l_{ai}
    if "ginv_gamma" not in grid._cache:
        grid._cache["ginv_gamma"] = np.einsum(
            "...ab,...lai->...bli", grid.Ginv, grid.Gamma
        )
    return grid._cache["ginv_gamma"]


def _einsum_traced_gamma(grid):
    # W[..., l] = g^{ab} Gamma^l_{ab}
    if "traced_gamma" not in grid._cache:
        grid._cache["traced_gamma"] = np.einsum(
            "...ab,...lab->...l", grid.Ginv, grid.Gamma
        )
    return grid._cache["traced_gamma"]


def _einsum_rough_laplacian(field):
    grid = field.grid
    n = 2 * grid.m
    K = tc.covariant_derivative(field).comp  # (..., b, i, j)
    base = len(grid.shape)
    acc = np.zeros_like(field.comp)
    sel = (slice(None),) * base
    for a in range(n):
        dK = np.gradient(K, grid.spacing, axis=a)  # d_a K_{bij}
        acc += np.einsum("...b,...bij->...ij", grid.Ginv[sel + (a,)], dK)
        del dK
    acc -= np.einsum("...l,...lij->...ij", _einsum_traced_gamma(grid), K)
    M = _einsum_ginv_gamma(grid)
    acc -= np.einsum("...bli,...blj->...ij", M, K)
    acc -= np.einsum("...blj,...bil->...ij", M, K)
    return tc._symmetrized(acc)


def _einsum_raised(field):
    # all indices raised with the background inverse metric
    out = field.comp
    ginv = field.grid.Ginv
    letters = "ijk"
    for slot in range(field.rank):
        idx = letters[: field.rank]
        src = idx[:slot] + "x" + idx[slot + 1 :]
        out = np.einsum(f"...x{idx[slot]},...{src}->...{idx}", ginv, out)
    return out


def _omega_curvature_action(field):
    # C = -(c/4)[g tr_g(h) - h - 3 Om H^ Om], Om the Kahler form
    grid = field.grid
    om = np.einsum("ca,...cb->...ab", cg.j_matrix(grid.m), grid.G)
    hup = _einsum_raised(field)
    tr = np.einsum("...ij,...ij->...", grid.Ginv, field.comp)
    core = (
        grid.G * tr[..., None, None]
        - field.comp
        - 3.0 * np.einsum("...ip,...pq,...qj->...ij", om, hup, om)
    )
    out = -(grid.c / 4.0) * core
    return tc._symmetrized(out)


def _einsum_l2_inner(a, b):
    raised = _einsum_raised(a)
    axes = tuple(range(-a.rank, 0)) if a.rank else ()
    dens = np.sum(raised * b.comp, axis=axes) if a.rank else raised * b.comp
    return 4.0 * a.grid.integrate(dens)


def _einsum_deturck_term(grid, g, ginv, gamma):
    tr = np.einsum("...ij,...ij->...", ginv, grid.G)
    gt = grid.G - 0.5 * tr[..., None, None] * g
    nab = _einsum_covariant(gt, gamma, grid.spacing)
    beta = -np.einsum("...ai,...aij->...j", ginv, nab)
    beta = np.einsum("...jk,...kl,...l->...j", g, grid.Ginv, beta)
    dstar = tc._symmetrized(_einsum_covariant(beta, gamma, grid.spacing))
    return -2.0 * dstar


@pytest.fixture(
    scope="module",
    params=[
        dict(m=2, c=4.0, box_half=0.2, spacing=0.05),  # 9^4
        dict(m=1, c=2.0, box_half=0.4, spacing=0.05),  # 17^2
        dict(m=3, c=4.0, box_half=0.2, spacing=0.1),  # 5^6
    ],
    ids=["m2", "m1", "m3"],
)
def oracle_case(request):
    """A randomly perturbed metric, its jet, and random rank-1 and rank-2
    (non-symmetric) fields on the grid."""
    grid = cg.ChartGrid(**request.param)
    n = 2 * grid.m
    rng = np.random.default_rng(20 + grid.m)
    pert = 0.02 * rng.standard_normal(grid.shape + (n, n))
    g = grid.G + 0.5 * (pert + np.swapaxes(pert, -1, -2))
    one = rng.standard_normal(grid.shape + (n,))
    two = rng.standard_normal(grid.shape + (n, n))
    return grid, g, tc.metric_jet(g, grid.spacing), one, two


def assert_matches_oracle(grid, got, ref):
    mask = grid.interior_mask(1)
    scale = float(np.max(np.abs(ref[mask])))
    gap = float(np.max(np.abs((got - ref)[mask])))
    assert scale > 0
    assert gap <= 1e-12 * scale, f"relative gap {gap / scale:.3e}"


def test_christoffels_match_einsum_oracle(oracle_case):
    grid, g, (ginv, dg, gamma), _, _ = oracle_case
    assert_matches_oracle(grid, gamma, _einsum_christoffels(ginv, dg))


def test_ricci_matches_einsum_oracle(oracle_case):
    grid, g, jet, _, _ = oracle_case
    got = tc.ricci_of_metric(g, *jet, grid.spacing)
    assert_matches_oracle(grid, got, _einsum_ricci(g, *jet, grid.spacing))


@pytest.mark.parametrize("rank", [1, 2])
def test_covariant_matches_einsum_oracle(oracle_case, rank):
    grid, _, (_, _, gamma), one, two = oracle_case
    arr = one if rank == 1 else two
    got = tc._covariant(arr, gamma, grid.spacing)
    assert_matches_oracle(grid, got, _einsum_covariant(arr, gamma, grid.spacing))


def test_deturck_term_matches_einsum_oracle(oracle_case):
    grid, g, jet, _, _ = oracle_case
    ginv, _, gamma = jet
    got = fe.deturck_term(grid, g, jet)
    assert_matches_oracle(grid, got, _einsum_deturck_term(grid, g, ginv, gamma))


def test_rough_laplacian_matches_einsum_oracle(oracle_case):
    grid, _, _, _, two = oracle_case
    h = tc.TensorField(grid, two)
    assert_matches_oracle(grid, tc.rough_laplacian(h).comp, _einsum_rough_laplacian(h))


def test_curvature_action_matches_kahler_form_oracle(oracle_case):
    grid, _, _, _, two = oracle_case
    h = tc.sym_tensor(grid, tc._symmetrized(two))
    got = tc.curvature_action(h).comp
    assert_matches_oracle(grid, got, _omega_curvature_action(h))
    assert np.array_equal(got, np.swapaxes(got, -1, -2))


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_l2_inner_matches_einsum_oracle(oracle_case, rank):
    grid = oracle_case[0]
    rng = np.random.default_rng(40 + rank)
    shape = grid.shape + (2 * grid.m,) * rank
    a, b = (tc.TensorField(grid, rng.standard_normal(shape)) for _ in range(2))
    ref = _einsum_l2_inner(a, b)
    assert abs(tc.l2_inner(a, b) - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# bands: a right-hand side computed on box b equals the full-grid one there,
# and a kernel fed inputs sliced to box k (as a slab would be) equals the
# full-grid call bit for bit on the box its stencil leaves


def slab_reaches(grid, k, reach):
    # whether the box a stencil of this reach leaves inside box k has cells
    return grid.n_axis > 2 * (k + reach)


def on_box(arr, grid, j):
    # arr, over grid's axes or those of a box of it, on box j of those
    return arr[tc._box(j, len(grid.shape))]


def sliced_grid(grid, k):
    # the chart grid of box k, whose background caches are the sliced ones
    sub = cg.ChartGrid(grid.m, grid.c, grid.box_half - k * grid.spacing, grid.spacing)
    for key in ("G", "Ginv"):
        assert np.array_equal(getattr(sub, key), on_box(getattr(grid, key), grid, k))
    return sub


@pytest.mark.parametrize("band", [1, 2])
def test_flow_rhs_on_a_box_matches_the_full_grid(oracle_case, band):
    grid, g, jet, _, _ = oracle_case
    inside = grid.interior_mask(band)
    for rhs in (fe.deturck_rhs, fe.normalized_ricci_rhs):
        full, boxed = rhs(grid, g), rhs(grid, g, band)
        assert np.array_equal(boxed[inside], full[inside])
        assert not np.any(boxed[~inside])

    k = band
    if slab_reaches(grid, k, 1):
        gk = on_box(g, grid, k)
        jet_k = tc.metric_jet(gk, grid.spacing)
        for part, part_k in zip(jet, jet_k):
            assert np.array_equal(on_box(part_k, grid, 1), on_box(part, grid, k + 1))
        rc = tc.ricci_of_metric(g, *jet, grid.spacing)
        rc_k = tc.ricci_of_metric(gk, *jet_k, grid.spacing)
        assert np.array_equal(on_box(rc_k, grid, 1), on_box(rc, grid, k + 1))
    if slab_reaches(grid, k, 2):
        p = fe.deturck_term(grid, g, jet)
        p_k = fe.deturck_term(sliced_grid(grid, k), gk, jet_k)
        assert np.array_equal(on_box(p_k, grid, 2), on_box(p, grid, k + 2))


def test_ricci_skips_the_outermost_layer(oracle_case):
    grid, g, jet, _, _ = oracle_case
    rc = tc.ricci_of_metric(g, *jet, grid.spacing)
    assert not np.any(rc[~grid.interior_mask(1)])
    assert np.all(np.any(rc[grid.interior_mask(1)] != 0, axis=(-2, -1)))


@pytest.mark.parametrize("band", [0, 1, 2])
def test_stability_operator_on_a_box_matches_the_full_grid(oracle_case, band):
    grid, _, _, one, two = oracle_case
    h = tc.sym_tensor(grid, tc._symmetrized(two))
    full = tc.rough_laplacian(h).comp + 2.0 * tc.curvature_action(h).comp
    boxed = tc.stability_operator(h, band)
    inside = grid.interior_mask(band)
    assert np.array_equal(boxed.comp[inside], full[inside])
    assert not np.any(boxed.comp[~inside])
    assert boxed.support_margin >= band

    k, s = band, grid.spacing
    ginv, gamma = on_box(grid.Ginv, grid, k), on_box(grid.Gamma, grid, k)
    if slab_reaches(grid, k, 1):
        for arr in (one, two):
            got = tc._covariant(on_box(arr, grid, k), gamma, s)
            full = tc._covariant(arr, grid.Gamma, s)
            assert np.array_equal(on_box(got, grid, 1), on_box(full, grid, k + 1))
    if slab_reaches(grid, k, 2):
        got = tc._rough_laplacian(on_box(two, grid, k), ginv, gamma, s)
        full = tc.rough_laplacian(tc.TensorField(grid, two)).comp
        assert np.array_equal(on_box(got, grid, 2), on_box(full, grid, k + 2))
