"""Integral identities, convergence of their residuals, and linear decay.

Expected residual levels and convergence orders were measured on the
conformal oracle (h = phi g, where every term has a closed form) and on
seeded bump fields before being frozen here.  Orders are fitted with
numpy.polyfit on log residual vs log spacing.
"""

import math

import numpy as np
import pytest

from chflow.chart_geometry import ChartGrid
from chflow.frame_algebra import einstein_constants
from chflow import stability_analysis as sa
from chflow import tensor_calculus as tc


def bump_scalar(grid, width, amplitude=1.0, center=None, power=6):
    pts = grid.points
    if center is None:
        center = np.zeros(pts.shape[-1])
    u2 = np.sum((pts - center) ** 2, axis=-1) / width**2
    prof = amplitude * np.clip(1.0 - u2, 0.0, None) ** power
    margin = int(math.floor((grid.box_half - width) / grid.spacing))
    return tc.TensorField(grid, prof, max(margin, 0))


@pytest.fixture(scope="module")
def grid_m1():
    return ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.02)


class TestRandomBumpTensor:
    def test_symmetry_exact(self, grid_m1):
        h = sa.random_bump_tensor(grid_m1, seed=3)
        assert np.array_equal(h.comp, np.swapaxes(h.comp, -1, -2))

    def test_support_margin_and_containment(self, grid_m1):
        h = sa.random_bump_tensor(grid_m1, seed=3)
        assert h.support_margin == 2
        outside = ~grid_m1.interior_mask(2)
        assert np.all(h.comp[outside] == 0.0)

    def test_amplitude_scale(self, grid_m1):
        h = sa.random_bump_tensor(grid_m1, seed=3, amplitude=0.05)
        sup = np.max(np.abs(h.comp))
        assert 0.005 < sup <= 3 * 0.05

    def test_seed_determinism(self, grid_m1):
        a = sa.random_bump_tensor(grid_m1, seed=9)
        b = sa.random_bump_tensor(grid_m1, seed=9)
        assert np.array_equal(a.comp, b.comp)

    def test_width_validation(self, grid_m1):
        with pytest.raises(ValueError):
            sa.random_bump_tensor(grid_m1, seed=1, width_range=(0.5, 0.6), support_radius=0.3)


class TestEnergyReport:
    def test_margin_validation(self, grid_m1):
        h = sa.random_bump_tensor(grid_m1, seed=1, support_radius=grid_m1.box_half - 1.5 * grid_m1.spacing)
        assert h.support_margin < 2
        with pytest.raises(ValueError):
            sa.energy_report(h)

    def test_conformal_field_terms(self, grid_m1):
        # h = phi g: curvature action equals -lam h pointwise, so the
        # curvature term must equal -lam ||h||^2 to quadrature exactness;
        # for n = 2 also ||T||^2/2 = ||delta h||^2 = ||dphi||^2
        phi = bump_scalar(grid_m1, width=0.25)
        h = tc.sym_tensor(grid_m1, phi.comp[..., None, None] * grid_m1.G, phi.support_margin)
        rep = sa.energy_report(h)
        lam = float(einstein_constants(1, 1)[0]) * grid_m1.c
        assert rep.curvature_term == pytest.approx(-lam * rep.norm_sq, rel=1e-12)
        assert rep.half_t_sq == pytest.approx(rep.div_sq, rel=2e-3)
        assert rep.grad_sq == pytest.approx(2.0 * rep.div_sq, rel=2e-3)

    def test_residuals_small(self, grid_m1):
        rep = sa.energy_report(sa.random_bump_tensor(grid_m1, seed=3))
        assert rep.bochner_residual_relative < 1e-3
        assert rep.energy_residual_relative < 2e-3
        # acceptance normalization |lhs-rhs|/max(|lhs|,1) is far smaller on
        # fields of this amplitude
        assert rep.bochner_residual < 1e-3
        assert rep.energy_residual < 1e-3

    def test_quad_form_is_operator_pairing(self, grid_m1):
        h = sa.random_bump_tensor(grid_m1, seed=5)
        quad = tc.l2_inner(tc.stability_operator(h), h)
        rep = sa.energy_report(h)
        assert rep.quad_form == quad

    def test_terms_equal_the_public_functions(self, grid_m1):
        # energy_report takes |nabla h|^2, T and delta h from one covariant
        # derivative; each term is the same float as from the public pieces
        # and the kernels on the full grid
        h = sa.random_bump_tensor(grid_m1, seed=6)
        rep = sa.energy_report(h)
        lam = float(einstein_constants(1, 1)[0]) * grid_m1.c
        norm_sq = tc.l2_norm_sq(h)
        assert rep.norm_sq == norm_sq
        assert rep.grad_sq == tc.l2_norm_sq(tc.covariant_derivative(h))
        nab = tc.covariant_derivative(h).comp
        t = tc.TensorField(h.grid, tc._three_tensor(nab))
        div = tc.TensorField(h.grid, tc._divergence(nab, h.grid.Ginv))
        assert rep.half_t_sq == 0.5 * tc.l2_norm_sq(t)
        assert rep.div_sq == tc.l2_norm_sq(div)
        assert rep.lam_norm_sq == lam * norm_sq
        assert rep.curvature_term == tc.l2_inner(tc.curvature_action(h), h)
        assert rep.quad_form == tc.l2_inner(tc.stability_operator(h), h)

    def test_zero_field_fails_fast(self, grid_m1):
        zero = tc.TensorField(grid_m1, np.zeros(grid_m1.shape + (2, 2)), 2)
        with pytest.raises(ValueError, match="nonzero field"):
            sa.energy_report(zero)

    @pytest.mark.parametrize("case", ["at_a_face", "whole_grid", "m2_coarse"])
    def test_windowed_terms_equal_the_public_functions(self, case):
        # energy_report works on the support window of h; each term is the
        # same float as from the public functions and kernels on the full grid
        if case == "m2_coarse":
            grid = ChartGrid(m=2, c=4.0, box_half=0.4, spacing=0.1)
            h = sa.random_bump_tensor(grid, seed=2)
        else:
            grid = ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.05)
            s = grid.spacing
            if case == "at_a_face":  # nonzero from cell 2 along axis 0
                width, center = 0.12, np.array([-grid.box_half + 1.5 * s + 0.12, 0.05])
            else:  # nonzero from cell 2 along every axis
                width, center = grid.box_half - 1.5 * s, np.zeros(2)
            prof = bump_scalar(grid, width, center=center).comp
            mat = np.array([[1.0, 0.3], [0.3, -0.5]])
            h = tc.sym_tensor(grid, prof[..., None, None] * mat, 2)
            face = np.any(h.comp, axis=(-2, -1))
            assert not face[:2].any() and face[2].any()
            if case == "whole_grid":
                assert face[-3].any() and face[:, 2].any() and face[:, -3].any()
        lam = float(einstein_constants(grid.m, 1)[0]) * grid.c
        for key in ("G", "Ginv", "Gamma", "sqrt_det"):
            getattr(grid, key)
        keys = set(grid._cache)
        rep = sa.energy_report(h)
        assert set(grid._cache) == keys
        norm_sq = tc.l2_norm_sq(h)
        assert rep.norm_sq == norm_sq
        assert rep.grad_sq == tc.l2_norm_sq(tc.covariant_derivative(h))
        nab = tc.covariant_derivative(h).comp
        t = tc.TensorField(h.grid, tc._three_tensor(nab))
        div = tc.TensorField(h.grid, tc._divergence(nab, h.grid.Ginv))
        assert rep.half_t_sq == 0.5 * tc.l2_norm_sq(t)
        assert rep.div_sq == tc.l2_norm_sq(div)
        assert rep.lam_norm_sq == lam * norm_sq
        assert rep.curvature_term == tc.l2_inner(tc.curvature_action(h), h)
        assert rep.quad_form == tc.l2_inner(tc.stability_operator(h), h)

    def test_rayleigh_bound_m1(self, grid_m1):
        # m = 1 is the sharpness regime: bound is exactly 0
        rep = sa.energy_report(sa.random_bump_tensor(grid_m1, seed=7))
        assert rep.rayleigh_bound == 0.0
        assert rep.rayleigh_quotient < 0.0
        assert rep.rayleigh_satisfied


class TestBochnerConvergence:
    def test_orders_and_levels(self):
        rep = sa.bochner_convergence(m=1, c=4.0, spacings=(0.04, 0.02, 0.01))
        assert rep.bochner_order > 1.8
        assert rep.energy_order > 1.8
        assert rep.bochner_relative[-1] < 1e-4
        assert rep.energy_relative[-1] < 2.5e-4
        # residuals in the acceptance normalization stay far below 1e-2
        assert max(rep.bochner_residuals) < 1e-3
        assert max(rep.energy_residuals) < 1e-3

    def test_monotone_decrease(self):
        rep = sa.bochner_convergence(m=1, c=4.0, spacings=(0.04, 0.02, 0.01))
        assert list(rep.bochner_relative) == sorted(rep.bochner_relative, reverse=True)
        assert list(rep.energy_relative) == sorted(rep.energy_relative, reverse=True)


@pytest.fixture(scope="module")
def flow_setup():
    grid = ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.05)
    h0 = sa.random_bump_tensor(grid, seed=7, width_range=(0.12, 0.16), support_radius=0.28)
    return grid, h0


class TestLinearizedFlow:
    def test_timestep_formula(self, flow_setup):
        grid, _ = flow_setup
        sup_tr = float(np.max(np.einsum("...aa->...", grid.Ginv)))
        dt = sa.stable_timestep(grid.Ginv, grid.spacing)
        assert dt == pytest.approx(0.4 * grid.spacing**2 / sup_tr)
        # the inverse-metric trace peaks at the origin: 2m * (c/4)
        assert sup_tr == pytest.approx(2 * grid.m * grid.c / 4.0, rel=1e-12)

    def test_decay(self, flow_setup):
        grid, h0 = flow_setup
        trace = sa.linearized_flow(h0, t_end=0.25)
        assert trace.norms[-1] < 2e-3 * trace.initial_norm
        # measured 25.08 on this configuration; any positive rate clears
        # the m = 1 spectral bound of 0
        assert trace.rate > 20.0
        # strict decay after the first few steps
        assert np.all(np.diff(trace.norms[5:]) < 0)

    def test_rate_amplitude_invariant(self, flow_setup):
        # the evolution is linear: scaling h0 by a power of two scales every
        # recorded norm exactly, so the fitted rate matches to roundoff
        grid, h0 = flow_setup
        scaled = tc.TensorField(grid, 0.25 * h0.comp, h0.support_margin)
        r1 = sa.linearized_flow(h0, t_end=0.12).rate
        r2 = sa.linearized_flow(scaled, t_end=0.12).rate
        assert r2 == pytest.approx(r1, rel=1e-9)

    def test_ends_at_t_end_without_a_roundoff_step(self, flow_setup):
        # dt ~ 5e-4 divides 0.504 1008 times, but the summed times fall short
        # of t_end by roundoff; that remainder must not become a 1009th step
        _, h0 = flow_setup
        trace = sa.linearized_flow(h0, t_end=0.504)
        assert trace.dt == pytest.approx(5e-4, rel=1e-12)
        assert len(trace.times) == 1009
        assert trace.times[-1] == 0.504

    def test_last_step_clipped_to_t_end(self, flow_setup):
        _, h0 = flow_setup
        trace = sa.linearized_flow(h0, t_end=0.0502, record_every=10)
        assert trace.times[-1] == 0.0502
        assert trace.times[-2] == pytest.approx(0.05, rel=1e-12)

    def test_cfl_at_or_above_midpoint_limit_rejected(self, flow_setup):
        _, h0 = flow_setup
        for cfl in (2.0, 3.0):
            with pytest.raises(ValueError, match="cfl must be below 2"):
                sa.linearized_flow(h0, t_end=0.25, cfl=cfl)
        # just below the limit the step is still stable and the norm decays
        trace = sa.linearized_flow(h0, t_end=0.25, cfl=1.9)
        assert trace.norms[-1] < 1e-2 * trace.initial_norm
        assert trace.rate > 20.0

    def test_nan_in_initial_field_rejected(self, flow_setup):
        grid, h0 = flow_setup
        comp = h0.comp.copy()
        comp[tuple(s // 2 for s in grid.shape) + (0, 0)] = np.nan
        bad = tc.TensorField(grid, comp, h0.support_margin)
        with pytest.raises(RuntimeError, match="non-finite"):
            sa.linearized_flow(bad, t_end=0.05)

    def test_fit_window_failure(self):
        times = np.array([0.0, 1.0, 2.0])
        norms = np.array([1.0, 0.9, 0.85])
        with pytest.raises(RuntimeError):
            sa._fit_decay_rate(times, norms, (0.001, 0.01))


def test_module_has_no_hidden_state(grid_m1):
    rep1 = sa.energy_report(sa.random_bump_tensor(grid_m1, seed=3))
    rep2 = sa.energy_report(sa.random_bump_tensor(grid_m1, seed=3))
    assert rep1 == rep2
