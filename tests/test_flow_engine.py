"""Nonlinear flow right-hand sides, the gauge term, and time stepping.

Frozen constants (fixed-point residuals, decay rates, gauge-identity
residuals) were measured on the configurations used below and pinned with
margins; convergence orders come from pairs or triples of spacings via
numpy.polyfit.  The m=1 slice keeps these fast; the m=2 acceptance-scale
runs live in test_acceptance.py.
"""

import math

import numpy as np
import pytest

from chflow.chart_geometry import ChartGrid
from chflow.frame_algebra import einstein_constants
from chflow import flow_engine as fe
from chflow import stability_analysis as sa
from chflow import tensor_calculus as tc


@pytest.fixture(scope="module")
def grid_m1():
    return ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.05)


@pytest.fixture(scope="module")
def grid_m1_fine():
    return ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.025)


@pytest.fixture(scope="module")
def bump(grid_m1):
    return sa.random_bump_tensor(
        grid_m1,
        seed=7,
        amplitude=0.05,
        n_bumps=2,
        width_range=(0.12, 0.16),
        support_radius=0.28,
    )


class TestRicciOf:
    def test_einstein_background(self, grid_m1, grid_m1_fine):
        # Rc(g_B) -> -lam g_B at second order in the spacing
        lam = einstein_constants(1, 4.0)[0]
        rels = []
        for grid in (grid_m1, grid_m1_fine):
            rc = fe.ricci_of(grid, grid.G)
            mask = grid.geodesic_ball_mask(math.atanh(0.3))
            gap = np.max(np.abs((rc + lam * grid.G)[mask]))
            rels.append(gap / np.max(np.abs(lam * grid.G[mask])))
        assert rels[0] < 5e-3
        order = math.log2(rels[0] / rels[1])
        assert order > 1.8

    def test_scale_invariance_bitwise(self, grid_m1, bump):
        g = grid_m1.G + bump.comp
        assert np.array_equal(fe.ricci_of(grid_m1, 2.0 * g), fe.ricci_of(grid_m1, g))
        assert np.array_equal(fe.ricci_of(grid_m1, 0.5 * g), fe.ricci_of(grid_m1, g))

    def test_output_symmetric_exact(self, grid_m1, bump):
        rc = fe.ricci_of(grid_m1, grid_m1.G + bump.comp)
        assert np.array_equal(rc, np.swapaxes(rc, -1, -2))

    def test_permutation_naturality(self):
        # swapping the two complex coordinates (real axes (0,1)<->(2,3))
        # commutes with the assembly; the background itself is invariant
        grid = ChartGrid(m=2, c=4.0, box_half=0.3, spacing=0.1)
        rng = np.random.default_rng(3)
        pert = 0.02 * rng.standard_normal(grid.shape + (4, 4))
        g = grid.G + 0.5 * (pert + np.swapaxes(pert, -1, -2))
        perm = [2, 3, 0, 1]

        def permute(a):
            return np.transpose(a, axes=perm + [4, 5])[..., perm, :][..., :, perm]

        gap = np.max(np.abs(fe.ricci_of(grid, permute(g)) - permute(fe.ricci_of(grid, g))))
        assert gap < 1e-13


class TestDeturckTerm:
    def test_vanishes_at_background(self, grid_m1):
        assert np.max(np.abs(fe.deturck_term(grid_m1, grid_m1.G))) < 1e-10

    def test_vector_transport_identity_at_background(self, grid_m1):
        rng = np.random.default_rng(0)
        beta = rng.standard_normal(grid_m1.shape + (2,))
        out = fe.vector_transport(grid_m1, grid_m1.G, beta)
        assert np.max(np.abs(out - beta)) < 1e-14

    def test_vector_transport_linear(self, grid_m1, bump):
        g = grid_m1.G + bump.comp
        rng = np.random.default_rng(1)
        b1 = rng.standard_normal(grid_m1.shape + (2,))
        b2 = rng.standard_normal(grid_m1.shape + (2,))
        gap = fe.vector_transport(grid_m1, g, b1 + b2) - fe.vector_transport(
            grid_m1, g, b1
        ) - fe.vector_transport(grid_m1, g, b2)
        assert np.max(np.abs(gap)) < 1e-13
        assert np.array_equal(
            fe.vector_transport(grid_m1, g, 2.0 * b1),
            2.0 * fe.vector_transport(grid_m1, g, b1),
        )

    def test_gauge_structure_of_ungauged_linearization(self):
        # without the gauge term, the directional derivative of the flow map
        # misses the stability operator by exactly twice the divergence-
        # adjoint of the divergence of the trace-adjusted field
        grid = ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.0125)
        h = sa.random_bump_tensor(grid, seed=4, amplitude=0.05, support_radius=0.3)
        s = 1e-3
        base = fe.normalized_ricci_rhs(grid, grid.G)
        dnop = (fe.normalized_ricci_rhs(grid, grid.G + s * h.comp) - base) / s
        ah = tc.stability_operator(h).comp
        gauge = 2.0 * tc.divergence_adjoint(
            tc.divergence(tc.einstein_tensor_part(h))
        ).comp
        mask = grid.interior_mask(3)
        scale = np.max(np.abs(gauge[mask]))
        assert np.max(np.abs((dnop - ah - gauge)[mask])) / scale < 0.06
        assert np.max(np.abs((dnop - ah)[mask])) / scale > 0.9


class TestFixedPointResidual:
    def test_relative_level_and_order(self, grid_m1, grid_m1_fine):
        rep = fe.fixed_point_residual(grid_m1, radius=0.31)
        rep_fine = fe.fixed_point_residual(grid_m1_fine, radius=0.31)
        assert rep.relative < 2.5e-3
        assert rep.raw == pytest.approx(3.4397e-2, rel=1e-3)
        order = math.log2(rep.raw / rep_fine.raw)
        assert order > 1.8

    def test_default_radius(self, grid_m1):
        rep = fe.fixed_point_residual(grid_m1)
        assert rep.radius == pytest.approx(math.atanh(0.3))
        assert rep.term_scale > 10.0

    def test_gauge_term_negligible_at_background(self, grid_m1):
        raw_d = fe.fixed_point_residual(grid_m1, radius=0.31).raw
        raw_r = fe.fixed_point_residual(grid_m1, radius=0.31, mode="ricci").raw
        assert abs(raw_d - raw_r) < 1e-12

    def test_unknown_mode(self, grid_m1):
        with pytest.raises(ValueError):
            fe.fixed_point_residual(grid_m1, mode="gauged")

    def test_ball_reaching_the_outermost_layer_rejected(self, grid_m1):
        # atanh(0.4) = 0.424 is the geodesic distance to the face centres
        assert np.any(grid_m1.geodesic_ball_mask(0.45) & ~grid_m1.interior_mask(1))
        with pytest.raises(ValueError, match="reaches the outermost cell layer"):
            fe.fixed_point_residual(grid_m1, radius=0.45)


class TestSharedJet:
    """The entry points that share one metric jet agree with the standalone
    pieces, each of which builds its own."""

    @pytest.fixture(scope="class")
    def grid_m2(self):
        return ChartGrid(m=2, c=4.0, box_half=0.3, spacing=0.06)

    def test_deturck_rhs_matches_pieces(self, grid_m2):
        lam = float(einstein_constants(2, 1)[0]) * grid_m2.c
        g = grid_m2.G + sa.random_bump_tensor(grid_m2, seed=5).comp
        pieces = -2.0 * (fe.ricci_of(grid_m2, g) + lam * g) - fe.deturck_term(grid_m2, g)
        mask = grid_m2.interior_mask(2)
        gap = np.max(np.abs((fe.deturck_rhs(grid_m2, g) - pieces)[mask]))
        assert gap <= 1e-12 * np.max(np.abs(pieces[mask]))

    def test_fixed_point_residual_matches_pieces(self, grid_m2):
        # the default ball lies in box 2; radius 0.35 on 9^4 reaches layer 1
        coarse = ChartGrid(m=2, c=4.0, box_half=0.4, spacing=0.1)
        for grid, radius in ((grid_m2, None), (coarse, 0.35)):
            lam = float(einstein_constants(2, 1)[0]) * grid.c
            gb = grid.G
            rc = fe.ricci_of(grid, gb)
            p = fe.deturck_term(grid, gb)
            resid = -2.0 * (rc + lam * gb) - p
            parts = 2.0 * np.abs(rc) + 2.0 * lam * np.abs(gb) + np.abs(p)
            rep = fe.fixed_point_residual(grid, radius)
            mask = grid.geodesic_ball_mask(rep.radius)
            assert rep.raw == pytest.approx(np.max(np.abs(resid[mask])), rel=1e-12)
            assert rep.term_scale == pytest.approx(np.max(parts[mask]), rel=1e-12)


class TestEllipticityPencil:
    def test_identity_at_background(self, grid_m1):
        lo, hi = fe.ellipticity_pencil_range(grid_m1, grid_m1.G)
        assert abs(lo - 1.0) < 1e-12
        assert abs(hi - 1.0) < 1e-12

    def test_perturbed_range_straddles_one(self, grid_m1):
        h = sa.random_bump_tensor(grid_m1, seed=2, amplitude=0.05, support_radius=0.3)
        lo, hi = fe.ellipticity_pencil_range(grid_m1, grid_m1.G + h.comp)
        assert 0.95 < lo < 0.999
        assert 1.001 < hi < 1.05


class TestEvolve:
    def test_background_stays_at_truncation_floor(self, grid_m1):
        tr = fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.03, record_every=10, fit_window=None)
        assert math.isnan(tr.rate)
        # 120 steps of about 2.5e-4, the last shortened to land on t_end:
        # records at t = 0 and every tenth step
        assert len(tr.times) == 13
        assert tr.times[-1] == 0.03
        assert 1e-4 < tr.l2_dev[-1] < 1e-3
        assert tr.min_metric_eig > 0.999
        dt_expect = 0.2 * grid_m1.spacing**2 / np.max(
            np.einsum("...aa->...", grid_m1.Ginv)
        )
        assert tr.dt_first == pytest.approx(dt_expect, rel=1e-12)

    def test_bump_decays_and_rate(self, grid_m1, bump):
        tr = fe.evolve(
            grid_m1, grid_m1.G + bump.comp, t_end=0.06, record_every=5,
            fit_window=(0.3, 0.9),
        )
        assert tr.l2_dev[0] == pytest.approx(9.4259e-3, rel=1e-3)
        assert tr.rate > 50.0
        assert tr.min_metric_eig > 0.95
        # monotone decay after the first records, while above the floor
        l2 = tr.l2_dev
        d = np.diff(l2)
        above = l2[3:] >= 2.5e-3
        assert np.all(d[2:][above] <= 1e-12)
        assert len(tr.times) == len(tr.l2_dev) == len(tr.sup_dev)

    def test_weighted_sup_recorded(self, grid_m1, bump):
        tr = fe.evolve(
            grid_m1, grid_m1.G + bump.comp, t_end=0.005, record_every=5,
            fit_window=None,
        )
        plain = np.max(np.abs(bump.comp))
        # weight e^{tau r} >= 1 everywhere, with equality only at the origin
        assert tr.sup_dev[0] >= plain
        assert tr.sup_dev[0] == pytest.approx(3.8900e-2, rel=1e-3)

    def test_amplitude_doubling_insensitivity(self, grid_m1, bump):
        rates = []
        for fac in (1.0, 2.0):
            tr = fe.evolve(
                grid_m1, grid_m1.G + fac * bump.comp, t_end=0.06,
                record_every=5, fit_window=(0.3, 0.9),
            )
            rates.append(tr.rate)
        assert rates[1] / rates[0] == pytest.approx(1.0, abs=0.15)

    def test_ungauged_mode_bounded_but_drifts(self, grid_m1, bump):
        # without the gauge term the flow moves along the diffeomorphism
        # orbit, so the distance to the fixed background need not decay;
        # it must stay bounded, and the gauged run must beat it
        kw = dict(t_end=0.01, record_every=5, fit_window=None)
        tr_r = fe.evolve(grid_m1, grid_m1.G + bump.comp, mode="ricci", **kw)
        tr_d = fe.evolve(grid_m1, grid_m1.G + bump.comp, mode="deturck", **kw)
        assert tr_r.l2_dev[-1] < 1.5 * tr_r.l2_dev[0]
        assert tr_r.min_metric_eig > 0.9
        assert tr_d.l2_dev[-1] < tr_r.l2_dev[-1]

    def test_zero_horizon_edge(self, grid_m1):
        tr = fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.0, fit_window=None)
        assert math.isnan(tr.dt_first)
        assert tr.times.shape == (1,)
        with pytest.raises(RuntimeError):
            fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.0)

    def test_parameter_validation(self, grid_m1):
        with pytest.raises(ValueError):
            fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.01, mode="backward")
        with pytest.raises(ValueError):
            fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.01, fit_norm="l1")

    def test_band_zero_rejected(self, grid_m1):
        # the Ricci tensor is not computed on the outermost layer
        with pytest.raises(ValueError, match="band must be at least 1"):
            fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.01, band=0, fit_window=None)

    def test_cfl_at_or_above_symbol_bound_rejected(self, grid_m1):
        # n = 2 at m = 1: the bound n/(4n-4) is 1/2
        for cfl in (0.5, 0.7):
            with pytest.raises(ValueError, match="cfl must be below 1/2 for m = 1"):
                fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.01, cfl=cfl)
        tr = fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.0, cfl=0.49, fit_window=None)
        assert tr.times.shape == (1,)

    def test_nan_in_initial_metric_rejected(self, grid_m1):
        g0 = grid_m1.G.copy()
        mid = tuple(s // 2 for s in grid_m1.shape)
        g0[mid + (0, 0)] = np.nan
        with pytest.raises(RuntimeError, match="non-finite values at t = 0.0000"):
            fe.evolve(grid_m1, g0, t_end=0.01, fit_window=None)

    def test_nan_produced_by_a_step_rejected(self, grid_m1, monkeypatch):
        def nan_rhs(grid, g, band):
            out = np.zeros_like(g)
            out[tuple(s // 2 for s in grid.shape)] = np.nan
            return out

        monkeypatch.setattr(fe, "deturck_rhs", nan_rhs)
        dt = 0.2 * grid_m1.spacing**2 / np.max(np.einsum("...aa->...", grid_m1.Ginv))
        with pytest.raises(RuntimeError, match=f"non-finite values at t = {dt:.4f}"):
            fe.evolve(grid_m1, grid_m1.G.copy(), t_end=0.01, fit_window=None)


class TestLinearizationConsistency:
    def test_gaps_sit_on_grid_floor_with_first_order_excess(self):
        grid = ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.02)
        h = sa.random_bump_tensor(grid, seed=5, amplitude=0.05, support_radius=0.3)
        rep = sa.linearization_consistency(h)
        gaps = np.asarray(rep["gaps"])
        assert np.all(np.diff(gaps) < 0)
        assert np.all(gaps <= 1.02 * rep["grid_floor"] + 1e-15)
        assert np.all(gaps >= rep["grid_floor"])
        assert 0.7 < rep["excess_order"] < 1.3

    def test_zero_field_gives_zero_gaps(self):
        grid = ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.02)
        zero = tc.TensorField(grid, np.zeros(grid.shape + (2, 2)), 0)
        rep = sa.linearization_consistency(zero)
        assert rep["gaps"] == (0.0, 0.0, 0.0)
        assert math.isnan(rep["excess_order"])


class TestMutationPoints:
    """The functions a benchmark self-check replaces are the ones the flows
    call: replacing them must change the flows' outputs."""

    def test_dropped_gauge_term_changes_the_evolve_trace(self, grid_m1, bump, monkeypatch):
        def run():
            return fe.evolve(
                grid_m1, grid_m1.G + bump.comp, t_end=0.005, record_every=5,
                fit_window=None,
            ).l2_dev

        ref = run()
        monkeypatch.setattr(fe, "deturck_term", lambda grid, g, *a, **k: np.zeros_like(g))
        # measured 0.73 of the initial deviation
        assert np.max(np.abs(run() - ref)) > 0.1 * ref[0]

    def test_zeroed_curvature_action_changes_the_linear_rate(self, grid_m1, monkeypatch):
        h0 = sa.random_bump_tensor(grid_m1, seed=3)
        ref = sa.linearized_flow(h0, t_end=0.12).rate
        orig = tc.curvature_action

        def zeroed(field):
            return tc.TensorField(field.grid, 0.0 * orig(field).comp, field.support_margin)

        monkeypatch.setattr(tc, "curvature_action", zeroed)
        # measured 29.2 -> 34.9
        assert abs(sa.linearized_flow(h0, t_end=0.12).rate - ref) > 0.05 * ref
