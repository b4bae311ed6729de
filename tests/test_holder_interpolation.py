"""Weighted annuli norms, K-functional bounds, and resolvent ray checks."""

import math

import numpy as np
import pytest

import chflow.holder_interpolation as hi
import chflow.tensor_calculus as tc
from chflow.chart_geometry import distance


@pytest.fixture(scope="module")
def grid():
    # coarse copy of the default chart: same geometry, 95^2 points
    return hi.sampling_grid(spacing=0.015)


@pytest.fixture(scope="module")
def fine_grid():
    return hi.sampling_grid()


@pytest.fixture(scope="module")
def annuli(grid):
    return hi.AnnuliDecomposition(grid)


def bump_field(grid, scale=0.8):
    u = np.clip(grid.r_geo / scale, 0.0, 1.0)
    psi = np.clip(1.0 - u**2, 0.0, None) ** 4
    n = 2 * grid.m
    return tc.sym_tensor(grid, psi[..., None, None] * np.eye(n))


def decay_field(grid, rate=2.0):
    f = np.exp(-rate * grid.r_geo)
    return tc.sym_tensor(grid, f[..., None, None] * grid.G)


def seeded_field(grid, seed):
    rng = np.random.default_rng(seed)
    n = 2 * grid.m
    s1 = rng.normal(size=(n, n))
    s2 = rng.normal(size=(n, n))
    u1 = np.clip(grid.r_geo / 1.3, 0.0, 1.0)
    u2 = np.clip(grid.r_geo / 3.1, 0.0, 1.0)
    comp = (
        np.clip(1 - u1**2, 0, None)[..., None, None] ** 4 * (s1 + s1.T)
        + np.clip(1 - u2**2, 0, None)[..., None, None] ** 4 * (s2 + s2.T)
    )
    return tc.sym_tensor(grid, comp)


class TestAnnuli:
    def test_default_chart_covers_four_annuli(self, annuli):
        assert annuli.n_max == 4
        assert annuli.coverage_radius == pytest.approx(7.01738, abs=1e-4)

    def test_bounds(self, annuli):
        assert annuli.bounds(1) == (0.0, 4.0)
        assert annuli.bounds(3) == (2.0, 6.0)
        with pytest.raises(ValueError):
            annuli.bounds(0)

    def test_consecutive_annuli_overlap(self, annuli):
        for n in range(1, annuli.n_max):
            both = annuli.mask(n) & annuli.mask(n + 1)
            assert np.count_nonzero(both) > 100

    def test_annuli_cover_the_resolved_ball(self, grid, annuli):
        cover = np.zeros(grid.shape, dtype=bool)
        for n in range(1, annuli.n_max + 1):
            cover |= annuli.mask(n)
        inside = grid.r_geo <= annuli.n_max + 3
        assert np.all(cover[inside])

    def test_boundary_distance_positive_and_capped(self, annuli):
        for n in range(1, annuli.n_max + 1):
            d = annuli.boundary_distance(n)[annuli.mask(n)]
            assert np.all(d > 0)
            assert np.all(d <= 2.0)
        # the first annulus is a ball: everything deeper than 2 sits at the cap
        d1 = annuli.boundary_distance(1)[annuli.mask(1)]
        assert np.max(d1) == 2.0

    def test_weight_exponent_matches_deepest_annulus(self, annuli):
        r = np.array([0.0, 0.5, 4.0, 4.2, 6.9])
        assert list(annuli.weight_exponent(r)) == [1, 1, 4, 5, 7]

    def test_rejects_grid_without_first_annulus(self):
        small = hi.sampling_grid(spacing=0.015, box_half=0.3)
        with pytest.raises(ValueError):
            hi.AnnuliDecomposition(small)

    def test_rejects_annuli_past_the_grid(self, grid):
        with pytest.raises(ValueError):
            hi.AnnuliDecomposition(grid, n_max=5)
        assert hi.AnnuliDecomposition(grid, n_max=2).n_max == 2


class TestWeightedNorm:
    def test_zero_field(self, grid):
        z = tc.sym_tensor(grid, np.zeros(grid.shape + (2, 2)))
        rep = hi.weighted_norm(z, 1, 0.5, 1.0)
        assert rep.total == 0.0
        assert math.isnan(rep.tail_bound)
        assert rep.grid_restricted

    def test_doubling_is_exact(self, grid):
        h = bump_field(grid)
        h2 = tc.sym_tensor(grid, 2.0 * h.comp)
        r1 = hi.weighted_norm(h, 1, 0.5, 1.0)
        r2 = hi.weighted_norm(h2, 1, 0.5, 1.0)
        assert r2.total == 2.0 * r1.total
        assert r2.per_annulus == tuple(2.0 * v for v in r1.per_annulus)

    def test_triangle_inequality_on_seeded_pairs(self, grid):
        for seed in range(10):
            h1 = seeded_field(grid, seed)
            h2 = seeded_field(grid, 1000 + seed)
            both = tc.sym_tensor(grid, h1.comp + h2.comp)
            n1 = hi.weighted_norm(h1, 0, 0.5, 1.0).total
            n2 = hi.weighted_norm(h2, 0, 0.5, 1.0).total
            n12 = hi.weighted_norm(both, 0, 0.5, 1.0).total
            assert n12 <= n1 + n2 + 1e-9 * (n1 + n2)

    def test_support_in_first_ball_hits_only_first_annulus(self, grid):
        # support radius 0.8 keeps even the FD-derivative spill inside B_1
        rep = hi.weighted_norm(bump_field(grid, 0.8), 1, 0.5, 1.0)
        assert rep.per_annulus[1:] == (0.0, 0.0, 0.0)
        assert rep.total == rep.per_annulus[0]
        expected = math.e * (rep.seminorm_sums[0] + rep.holder_parts[0])
        assert rep.total == pytest.approx(expected, rel=1e-12)

    def test_decaying_field_per_annulus_geometric(self, grid):
        rep = hi.weighted_norm(decay_field(grid), 0, 0.5, 1.0)
        ratios = [
            rep.per_annulus[i + 1] / rep.per_annulus[i]
            for i in range(len(rep.per_annulus) - 1)
        ]
        # measured 0.205 / 0.413 / 0.425 on this chart
        assert all(0.15 < r < 0.55 for r in ratios)
        assert rep.total == rep.per_annulus[0]

    def test_double_resolution_cross_check(self, grid):
        coarse = hi.weighted_norm(decay_field(grid), 0, 0.5, 1.0).total
        dense_grid = hi.sampling_grid(spacing=0.0075)
        dense = hi.weighted_norm(decay_field(dense_grid), 0, 0.5, 1.0).total
        assert coarse / dense == pytest.approx(1.0, abs=0.03)

    def test_job_count_does_not_change_the_report(self, grid):
        h = decay_field(grid)
        assert hi.weighted_norm(h, 1, 0.5, 1.0, jobs=3) == hi.weighted_norm(
            h, 1, 0.5, 1.0, jobs=1
        )

    def test_certified_tail_formula(self, grid):
        h = decay_field(grid)
        rep = hi.weighted_norm(h, 0, 0.5, 1.0, envelope=(1.0, 1.5))
        expected = 1.0 * math.exp(1.5) * 3.0 * math.exp(5 * (1.0 - 1.5))
        assert rep.tail_bound == pytest.approx(expected, rel=1e-12)
        assert rep.total >= rep.tail_bound
        assert not rep.grid_restricted

    def test_tail_infinite_when_decay_too_slow(self, grid):
        rep = hi.weighted_norm(decay_field(grid), 0, 0.5, 1.0, envelope=(1.0, 0.8))
        assert math.isinf(rep.tail_bound)
        assert math.isinf(rep.total)

    def test_parameter_validation(self, grid):
        h = bump_field(grid)
        with pytest.raises(ValueError):
            hi.weighted_norm(h, 1, 0.5, 0.5)
        with pytest.raises(ValueError):
            hi.weighted_norm(h, 1, 1.5, 1.0)
        with pytest.raises(ValueError):
            hi.weighted_norm(h, 3, 0.5, 1.0)


def test_derivative_stack_is_np_gradient_stacked(grid):
    # the levels are the shared first-difference kernel's; the stacked layout
    # and values are those of np.gradient per axis, new axis last
    rng = np.random.default_rng(3)
    h = tc.TensorField(grid, rng.standard_normal(grid.shape + (2, 2)))
    want = [h.comp.reshape(grid.shape + (-1,))]
    for _ in range(2):
        axes = [np.gradient(want[-1], grid.spacing, axis=a) for a in range(2 * grid.m)]
        want.append(np.stack(axes, axis=-1).reshape(grid.shape + (-1,)))
    for got, ref in zip(hi._derivative_stack(h, 2), want, strict=True):
        assert np.array_equal(got, ref)


# Brute-force oracles for the one weighted-norm evaluator: every pair of an
# annulus straight from the definition, with `distance`, `boundary_distance`
# and the cap of 2, and derivative levels from np.gradient.

M2_GRID = dict(m=2, spacing=0.07, box_half=0.49, c=1 / 16)


def gradient_levels(grid, comp, k):
    levels = [comp.reshape(grid.shape + (-1,))]
    for _ in range(k):
        lv = levels[-1]
        axes = [np.gradient(lv, grid.spacing, axis=a) for a in range(2 * grid.m)]
        levels.append(np.stack(axes, axis=-1).reshape(grid.shape + (-1,)))
    return [lv.reshape(-1, lv.shape[-1]) for lv in levels]


def brute_quotient(c, pts, dx, level, k, alpha, ordered):
    # sup of d_xy^{k+alpha} |level(x) - level(y)| / d(x, y)^alpha over the row
    # pairs (x, y) with 0 < d(x, y) <= 2: every i != j if ordered, else i < j
    best = 0.0
    for i in range(len(pts)):
        j = np.arange(len(pts)) if ordered else np.arange(i + 1, len(pts))
        j = j[j != i]
        d = distance(c, pts[i], pts[j])
        ok = (d > 0) & (d <= 2.0)
        d_xy = np.minimum(dx[i], dx[j[ok]])
        gap = np.max(np.abs(level[i] - level[j[ok]]), axis=-1)
        quot = d_xy ** (k + alpha) * gap / d[ok] ** alpha
        best = max(best, float(np.max(quot, initial=0.0)))
    return best


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize(
    "cfg,scalar",
    [
        (dict(spacing=0.047), False),
        # M2_GRID's first annulus has 9409 points, 4.4e7 pairs, too many to
        # hold at once, so at m = 2 the all-pairs check runs on a 9^4 copy
        # of it (1065 points)
        (dict(M2_GRID, spacing=0.1225), True),
    ],
)
def test_holder_parts_with_every_point_an_anchor_are_all_pairs(cfg, scalar, k):
    grid = hi.sampling_grid(**cfg)
    annuli = hi.AnnuliDecomposition(grid)
    rng = np.random.default_rng(6)
    if scalar:
        wave = np.cos(grid.points @ rng.normal(size=2 * grid.m))
        h = tc.scalar_field(grid, np.exp(-grid.r_geo) * wave)
    else:
        h = seeded_field(grid, 4)
    tau = grid.m / 2.0 + 0.5
    pts = grid.points.reshape(-1, 2 * grid.m)
    rep = hi.weighted_norm(h, k, 0.5, tau, annuli, n_anchors=len(pts))
    level = gradient_levels(grid, h.comp, k)[k]
    want = []
    for n in range(1, annuli.n_max + 1):
        idx = np.flatnonzero(annuli.mask(n))
        dx = annuli.boundary_distance(n).ravel()[idx]
        want.append(brute_quotient(grid.c, pts[idx], dx, level[idx], k, 0.5, False))
    assert rep.holder_parts == tuple(want)
    assert all(v > 0 for v in want)


@pytest.mark.parametrize("cfg", [dict(spacing=0.047), M2_GRID])
def test_anchor_norm_is_every_ordered_anchor_pair(cfg):
    grid = hi.sampling_grid(**cfg)
    annuli = hi.AnnuliDecomposition(grid)
    anchors = hi._AnchorSet(annuli, 0.2, 15, 3, need_stencil=True)
    rng = np.random.default_rng(8)
    n_pts, n_ax = anchors.flat.size, 2 * grid.m
    levels = [rng.normal(size=(n_pts, 3)), rng.normal(size=(n_pts, 3 * n_ax))]
    pts = grid.points.reshape(-1, n_ax)
    tau = grid.m / 2.0 + 0.5
    for kcls in (0, 1):
        for alpha in (None, 0.5):
            want = 0.0
            for n in range(1, anchors.n_usable + 1):
                rows = np.flatnonzero(anchors.annulus == n)
                flat = anchors.flat[rows]
                assert np.array_equal(flat, hi._anchor_indices(annuli, n, 15, 3))
                dx = annuli.boundary_distance(n).ravel()[flat]
                s = sum(
                    float(np.max(dx**q * np.max(np.abs(levels[q][rows]), axis=-1)))
                    for q in range(kcls + 1)
                )
                if alpha is not None:
                    lv = levels[kcls][rows]
                    s += brute_quotient(grid.c, pts[flat], dx, lv, kcls, alpha, True)
                want = max(want, math.exp(n * tau) * s)
            assert anchors.norm(levels, kcls, alpha, tau) == want


class TestLittleModulus:
    def test_monotone_in_t(self, grid):
        h = bump_field(grid, 1.5)
        ts = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
        fs = [hi.little_modulus(h, 0, 0.5, 1.0, t) for t in ts]
        assert all(b >= a for a, b in zip(fs, fs[1:]))

    def test_bounded_by_full_norm(self, grid):
        h = bump_field(grid, 1.5)
        f2 = hi.little_modulus(h, 0, 0.5, 1.0, 2.0)
        assert f2 <= hi.weighted_norm(h, 0, 0.5, 1.0).total

    def test_smooth_field_scales_like_t_to_one_minus_alpha(self, fine_grid):
        h = bump_field(fine_grid, 0.8)
        vals = {
            t: hi.little_modulus(h, 0, 0.5, 1.0, t) / t**0.5 for t in (0.4, 0.2, 0.1)
        }
        ratios = list(vals.values())
        # measured 7.41 / 7.91 / 8.50: constant within sampling wobble
        assert max(ratios) / min(ratios) < 1.3

    def test_rejects_nonpositive_t(self, grid):
        with pytest.raises(ValueError):
            hi.little_modulus(bump_field(grid), 0, 0.5, 1.0, 0.0)


class TestSobolevEmbedding:
    def test_lemma_constant_closed_form(self, grid):
        rep = hi.sobolev_embedding_check(bump_field(grid), 1.0)
        assert rep.xi == pytest.approx(1.0)
        assert rep.lemma_constant == pytest.approx(1.0 + 1.0 / (1.0 - math.exp(-2.0)))

    def test_embedding_holds_for_bump(self, fine_grid):
        rep = hi.sobolev_embedding_check(bump_field(fine_grid, 0.8), 1.0)
        assert rep.integral > 0
        assert rep.bound == pytest.approx(
            10.0 * rep.lemma_constant * rep.norm_total**2, rel=1e-12
        )
        assert rep.satisfied
        assert rep.margin > 1.0

    def test_norm_monotone_in_tau(self, grid):
        h = bump_field(grid, 0.8)
        totals = [hi.sobolev_embedding_check(h, t).norm_total for t in (0.8, 1.0, 1.5)]
        assert totals[0] < totals[1] < totals[2]

    def test_envelope_adds_certified_tail(self, grid):
        f = np.exp(-1.9 * grid.r_geo)
        h = tc.sym_tensor(grid, f[..., None, None] * np.eye(2))
        rep = hi.sobolev_embedding_check(h, 1.0, envelope=(1.0, 1.9))
        assert rep.integral_tail > 0
        assert rep.satisfied

    def test_rejects_critical_tau(self, grid):
        with pytest.raises(ValueError):
            hi.sobolev_embedding_check(bump_field(grid), 0.5)


class TestKFunctional:
    def test_zero_field(self, grid):
        z = tc.scalar_field(grid, np.zeros(grid.shape))
        curve = hi.k_functional(z, [0.5, 1.0], 1.0)
        assert curve.k_upper == (0.0, 0.0)

    def test_constant_field_crossover(self, grid):
        one = tc.scalar_field(grid, np.ones(grid.shape))
        ts = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
        curve = hi.k_functional(one, ts, 1.0)
        # mollification reproduces constants exactly, so K(t) = t ||1||_Y
        # below the crossover and the identity decomposition wins above it
        e2 = math.exp(2.0)
        assert curve.norm_x == pytest.approx(e2, rel=1e-12)
        for t, k, tag in zip(ts, curve.k_upper, curve.chosen):
            if t < 1.0:
                assert tag == "mollifier"
                assert k == pytest.approx(t * e2, rel=1e-9)
            else:
                assert tag == "identity"
                assert k == pytest.approx(e2, rel=1e-12)

    def test_curve_shape_for_smooth_bump(self, grid):
        h = bump_field(grid, 1.5)
        ts = list(np.geomspace(0.2, 2.0, 6))
        curve = hi.k_functional(h, ts, 1.0)
        ks = curve.k_upper
        assert all(b >= a * (1 - 1e-12) for a, b in zip(ks, ks[1:]))
        assert all(k <= curve.norm_x * (1 + 1e-12) for k in ks)
        slopes = [
            (ks[i + 1] - ks[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)
        ]
        assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
        assert curve.chosen[-1] == "identity"

    def test_kernel_mass_stays_near_flat_value(self, grid):
        h = bump_field(grid, 1.5)
        curve = hi.k_functional(h, [0.25, 1.0, 2.0], 1.0)
        lo, hi_ = curve.c_t_range
        assert 0.9 < lo <= hi_ < 1.5

    def test_theta_norm_homogeneity_exact(self, grid):
        h = bump_field(grid, 1.5)
        ts = list(np.geomspace(0.2, 2.0, 6))
        h2 = tc.sym_tensor(grid, 2.0 * h.comp)
        assert hi.theta_norm(h2, 0.5, 1.0, ts) == 2.0 * hi.theta_norm(h, 0.5, 1.0, ts)

    def test_scale_must_fit_inside_covered_ball(self, grid):
        h = bump_field(grid)
        with pytest.raises(ValueError):
            hi.k_functional(h, [5.0], 1.0)

    def test_parameter_validation(self, grid):
        h = bump_field(grid)
        with pytest.raises(ValueError):
            hi.k_functional(h, [0.5], 1.0, x_class=(2, None))
        with pytest.raises(ValueError):
            hi.k_functional(h, [-0.5], 1.0)
        with pytest.raises(ValueError):
            hi.theta_norm(h, 1.5, 1.0)


    def test_empty_scales_fail_fast(self, grid):
        h = bump_field(grid)
        with pytest.raises(ValueError, match="scales must be a nonempty list"):
            hi.k_functional(h, [], 1.0)
        with pytest.raises(ValueError, match="scales must be a nonempty list"):
            hi.theta_norm(h, 0.5, 1.0, t_list=[])

    def test_one_distance_call_per_anchor_block_for_any_scale_count(
        self, grid, monkeypatch
    ):
        # the K-functional's block-by-grid distances are shared by every
        # scale; the anchor-pair calls of its norms are one per annulus and norm
        h = bump_field(grid, 1.5)
        cls = dict(x_class=(0, 0.5), y_class=(1, 0.5), per_annulus=20)
        ndims = []
        real = hi.distance

        def counting(c, x, y):
            ndims.append(np.ndim(x))
            return real(c, x, y)

        monkeypatch.setattr(hi, "distance", counting)
        for ts in ([2.0], list(np.geomspace(0.2, 2.0, 6))):
            ndims.clear()
            hi.k_functional(h, ts, 1.0, **cls)
            anchors = hi._AnchorSet(hi.AnnuliDecomposition(grid), 2.0, 20, 0, True)
            blocks = -(-len(anchors.eval_points) // 64)
            assert ndims.count(3) == blocks
            assert ndims.count(2) == (2 + 2 * len(ts)) * anchors.n_usable
            assert len(ndims) == blocks + ndims.count(2)


def dense_mollify(anchors, h, t, chunk=64):
    # the kernel on every anchor-grid pair, blocked as _mollify blocks rows
    grid = anchors.annuli.grid
    n = 2 * grid.m
    pts = grid.points.reshape(-1, n)
    dens = (grid.sqrt_det * grid.cell_volume).ravel()
    hv = h.comp.reshape(len(pts), -1)
    vals, dens_sums = [], []
    for i0 in range(0, len(anchors.eval_points), chunk):
        block = anchors.eval_points[i0 : i0 + chunk]
        w = hi._kernel(distance(grid.c, block[:, None, :], pts[None]) / t) * dens
        den = np.sum(w, axis=1)
        vals.append((w @ hv) / den[:, None])
        dens_sums.append(den)
    return np.concatenate(vals), np.concatenate(dens_sums) / (
        hi._kernel_euclid_mass(n) * t**n
    )


@pytest.mark.parametrize("m, spacing, box_half, c, per_annulus", [
    (1, 0.047, 0.705, 1 / 16, 10),  # a coarse copy of the default chart
    (2, 0.12, 0.48, 1 / 64, 6),  # a 9^4 chart
])
@pytest.mark.parametrize("need_stencil", [False, True])
def test_mollify_matches_dense_oracle(m, spacing, box_half, c, per_annulus,
                                      need_stencil):
    grid = hi.sampling_grid(m=m, spacing=spacing, box_half=box_half, c=c)
    h = seeded_field(grid, 3)
    ts = [0.9, 0.3, 1.7, 0.3, 0.6] if m == 1 else [3.2, 1.0, 2.5, 1.0, 2.0]
    anchors = hi._AnchorSet(
        hi.AnnuliDecomposition(grid), max(ts), per_annulus, 0, need_stencil
    )
    got = hi._mollify(anchors, h, ts)
    assert len(got) == len(ts)
    for t, (vals, mass) in zip(ts, got):
        want_vals, want_mass = dense_mollify(anchors, h, t)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(mass, want_mass)


class TestInterpolationInequality:
    def test_family_bounded_ratios(self, grid):
        ts = list(np.geomspace(0.2, 2.0, 6))
        ratios = []
        for scale in (0.6, 1.2, 2.4):
            res = hi.interp_inequality_check(
                bump_field(grid, scale), 0, None, 1, None, 0.5, 1.0, ts
            )
            # max_t t^{-theta} min(nx, t ny) <= nx^{1-theta} ny^theta always
            assert res["ratio"] <= 1.0 + 1e-12
            assert res["ratio"] > 0.05
            ratios.append(res["ratio"])
        assert max(ratios) / min(ratios) < 10.0

    def test_reiteration_reported(self, grid):
        res = hi.interp_inequality_check(bump_field(grid, 1.2), 0, None, 1, None, 0.5, 1.0)
        assert res["target_order"] == pytest.approx(0.5)
        for key in ("theta_norm", "norm_target", "reiteration_ratio", "norm_x_grid"):
            assert np.isfinite(res[key]) and res[key] > 0


@pytest.fixture(scope="module")
def report(grid, annuli):
    c = grid.c

    def h_exp(pts):
        pts = np.asarray(pts, dtype=float)
        rr = (2.0 / math.sqrt(c)) * np.arctanh(
            np.minimum(np.sqrt(np.sum(pts**2, axis=-1)), 1.0 - 1e-15)
        )
        return np.exp(-rr)

    return hi.resolvent_bound_check(
        h_exp, [0.1, 1.0, 10.0, 100.0], 0, 1.0, (1.0, 1.0), annuli, per_annulus=10
    )


class TestResolventBound:
    def test_origin_ray_matches_scalar_oracle(self, report):
        # from the origin the ray is radial, so lam R(lam) e^{-r} = lam/(lam+1)
        for lam, val in zip(report.lam_list, report.origin_values):
            assert val == pytest.approx(lam / (lam + 1.0), abs=1e-6)

    def test_identity_limit_in_lam(self, report):
        gaps = report.sup_gap_to_identity
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.011

    def test_family_bounded_ratios(self, report):
        # measured 7.05 / 4.33 / 1.08 / 0.99: small lam feels the weight's
        # growth bound, large lam approaches the sup norm of h
        assert all(r <= 8.0 for r in report.ratios)
        assert all(b <= a for a, b in zip(report.ratios, report.ratios[1:]))

    def test_truncation_certified(self, report):
        assert all(t < 1e-12 for t in report.tail_bounds)

    def test_norm_weight_at_origin(self, report):
        assert report.norm_h == pytest.approx(math.e, rel=1e-12)

    def test_parameter_validation(self, grid, annuli):
        h = lambda pts: np.zeros(np.asarray(pts).shape[:-1])
        with pytest.raises(ValueError):
            hi.resolvent_bound_check(h, [-1.0], 0, 1.0, (1.0, 1.0), annuli)
        with pytest.raises(ValueError):
            hi.resolvent_bound_check(h, [1.0], 5, 1.0, (1.0, 1.0), annuli)
        with pytest.raises(ValueError):
            hi.resolvent_bound_check(h, [1.0], 0, 1.0, (1.0, 0.0), annuli)
