"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion runs at its stated tolerance; run with ``-s`` to see the
gate lines (under plain ``-v`` the one-test-per-criterion names serve the
same purpose).  Configurations are fixed, seeds included, so the measured
numbers quoted in comments are reproducible exactly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import chflow.chart_geometry as cg
import chflow.flow_engine as fe
import chflow.frame_algebra as fa
import chflow.holder_interpolation as hi
import chflow.stability_analysis as sa
import chflow.tensor_calculus as tc
from chflow.chart_geometry import ChartGrid
from chflow.cli import main
from chflow.stability_analysis import perturbed_metric


def gate(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def energy_reports_m2():
    grid = ChartGrid(m=2, c=4.0, box_half=0.4, spacing=0.05)
    return [sa.energy_report(sa.random_bump_tensor(grid, seed))
            for seed in range(1, 11)]


@pytest.fixture(scope="module")
def energy_reports_m1():
    grid = ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.05)
    return [sa.energy_report(sa.random_bump_tensor(grid, seed))
            for seed in range(1, 11)]


@pytest.fixture(scope="module")
def holder_grid():
    return hi.sampling_grid(spacing=0.015)


@pytest.fixture(scope="module")
def holder_annuli(holder_grid):
    return hi.AnnuliDecomposition(holder_grid)


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


def bump_field(grid, scale=0.8):
    u = np.clip(grid.r_geo / scale, 0.0, 1.0)
    psi = np.clip(1.0 - u**2, 0.0, None) ** 4
    return tc.sym_tensor(grid, psi[..., None, None] * np.eye(2 * grid.m))


def decay_field(grid, rate=2.0):
    f = np.exp(-rate * grid.r_geo)
    return tc.sym_tensor(grid, f[..., None, None] * grid.G)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_exact_block_structure():
    c = Fraction(4)
    t0 = time.perf_counter()
    equal = all(
        np.array_equal(fa.assemble_R_gamma_bruteforce(m, c).units,
                       fa.block_R_gamma(m, c).units)
        for m in range(1, 9)
    )
    elapsed = time.perf_counter() - t0
    gate(1, "brute-force == block assembly, m=1..8, exact rationals",
         equal and elapsed < 1.0,
         f"entrywise equal for all m: {equal}, runtime {elapsed:.2f}s < 1s")


def test_criterion_02_exact_spectrum():
    c = Fraction(4)
    t0 = time.perf_counter()
    worst = 0.0
    pooled_ok = True
    for m in range(1, 9):
        spec = fa.spectrum_R_gamma(m, c)
        closed = np.concatenate(
            [np.full(mult, float(ev)) for ev, mult in spec]
        )
        vals = np.linalg.eigvalsh(fa.block_R_gamma(m, c).to_float())
        worst = max(worst,
                    float(np.max(np.abs(vals - closed))) / float(np.max(np.abs(closed))))
        mults = {ev: mult for ev, mult in spec}
        pooled_ok &= mults[c] == m * m + m  # top eigenvalue pooled count
        pooled_ok &= sum(mults.values()) == m * (2 * m + 1)
    elapsed = time.perf_counter() - t0
    gate(2, "closed-form spectrum vs eigensolver, m=1..8",
         worst <= 1e-10 and pooled_ok and elapsed < 5.0,
         f"max relative gap {worst:.2e} <= 1e-10, multiplicities "
         f"(1, m^2-1, m^2+m) sum to dim, runtime {elapsed:.2f}s < 5s")


def test_criterion_03_einstein_constants_exact():
    c = Fraction(4)
    ok = True
    for m in range(1, 9):
        lam, scal = fa.einstein_constants(m, c)
        ok &= lam == Fraction(m + 1) * c / 2
        ok &= scal == -m * (m + 1) * c
        block_a = fa.block_R_gamma(m, c).units[: 2 * m, : 2 * m]
        ok &= Fraction(int(block_a.sum())) * c / 4 == scal
    gate(3, "lambda=(m+1)c/2, R=-m(m+1)c, R == entry-sum of the A block",
         ok, "exact rational identities for m=1..8")


def test_criterion_04_curvature_component_classes():
    rep = cg.curvature_component_check(2, 4.0, spacings=(0.1, 0.05, 0.025))
    max_err = max(rep.errors[1])
    min_order = min(rep.orders)
    gate(4, "five FD curvature component classes at m=2, c=4",
         rep.exact == (-4.0, -1.0, -2.0, -1.0, 1.0)
         and max_err <= 5e-2 and min_order >= 1.8,
         f"exact values (-c, -c/4, -c/2, -c/4, +c/4); max error "
         f"{max_err:.2e} <= 5e-2 at spacing 0.05, min order "
         f"{min_order:.2f} >= 1.8")


def test_criterion_05_integral_identities(energy_reports_m2):
    # 10 seeds at spacing 0.05: max residuals 2.87e-3 / 3.46e-3;
    # refinement orders 2.94 / 2.02 over (0.1, 0.05, 0.04)
    max_b = max(r.bochner_residual_relative for r in energy_reports_m2)
    max_e = max(r.energy_residual_relative for r in energy_reports_m2)
    conv = sa.bochner_convergence(2, 4.0)
    gate(5, "gradient and energy identities on 10 seeded fields, m=2",
         max_b <= 1e-2 and max_e <= 1e-2
         and conv.bochner_order >= 1.8 and conv.energy_order >= 1.8,
         f"max relative residuals {max_b:.2e}/{max_e:.2e} <= 1e-2 at "
         f"spacing 0.05; refinement orders {conv.bochner_order:.2f}/"
         f"{conv.energy_order:.2f} >= 1.8")


def test_criterion_06_rayleigh_bound(energy_reports_m2, energy_reports_m1):
    bound = energy_reports_m2[0].rayleigh_bound  # -(m-1)c/2 = -2
    worst2 = max(r.rayleigh_quotient for r in energy_reports_m2)
    worst1 = max(r.rayleigh_quotient for r in energy_reports_m1)
    gate(6, "Rayleigh quotients below the spectral bound",
         bound == -2.0 and worst2 <= bound + 0.1 * 4.0 and worst1 <= 1e-9,
         f"m=2: max quotient {worst2:.1f} <= -1.6 (bound -2 plus 0.1c "
         f"slack); m=1: max quotient {worst1:.1f} <= 0")


def test_criterion_07_decay_rates():
    # linearized: spacing 0.08 box 0.4, measured rate 83.05
    grid = ChartGrid(m=2, c=4.0, box_half=0.4, spacing=0.08)
    lin = sa.linearized_flow(sa.random_bump_tensor(grid, 1), 0.05)
    ref = (2 - 1) * 4.0 / 2.0
    # nonlinear from amplitude 1e-2: measured rate 417, floor ~1.5e-3
    grid2 = ChartGrid(m=2, c=4.0, box_half=0.42, spacing=0.06)
    g0 = perturbed_metric(grid2, 1e-2, seed=11)
    tr = fe.evolve(grid2, g0, t_end=0.006, record_every=2,
                   fit_norm="sup", fit_window=(0.2, 0.9))
    early_monotone = bool(np.all(np.diff(tr.sup_dev[:8]) < 0))
    gate(7, "linearized and nonlinear decay rates at m=2, c=4",
         lin.rate >= 0.9 * ref and tr.rate >= 0.75 * ref
         and early_monotone and tr.min_metric_eig > 0.95,
         f"linearized rate {lin.rate:.1f} >= {0.9 * ref}; nonlinear "
         f"weighted-sup rate {tr.rate:.1f} >= {0.75 * ref} from amplitude "
         f"1e-2, early records monotone, min metric eig "
         f"{tr.min_metric_eig:.3f} > 0.95")


def test_criterion_08_linearization_consistency():
    # measured gaps 5.35717e-2 / 5.34451e-2 / 5.33819e-2, floor 5.3319e-2
    grid = ChartGrid(m=1, c=4.0, box_half=0.4, spacing=0.01)
    h = sa.random_bump_tensor(grid, seed=5, amplitude=0.05,
                              support_radius=0.3)
    res = sa.linearization_consistency(h)
    gaps = res["gaps"]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    above_floor = all(g > res["grid_floor"] for g in gaps)
    gate(8, "flow-map quotient converges to the linearization",
         decreasing and above_floor
         and 0.7 <= res["excess_order"] <= 1.3,
         f"gaps decrease over s in (1e-2, 5e-3, 2.5e-3) toward grid floor "
         f"{res['grid_floor']:.3e}; excess order "
         f"{res['excess_order']:.2f} in [0.7, 1.3]")


def test_criterion_09_fixed_point_residual():
    # measured relative residuals 2.17e-3 / 6.11e-4 / 1.73e-4, order 1.82
    spacings = (0.1, 0.05, 0.025)
    rels = []
    for s in spacings:
        grid = ChartGrid(m=2, c=4.0, box_half=0.4, spacing=s)
        rels.append(fe.fixed_point_residual(grid, radius=0.3).relative)
    order = float(np.polyfit(np.log(spacings), np.log(rels), 1)[0])
    gate(9, "background is a discrete fixed point up to truncation",
         rels[1] <= 1e-3 and order >= 1.8,
         f"max-norm relative residual {rels[1]:.2e} <= 1e-3 at spacing "
         f"0.05, refinement order {order:.2f} >= 1.8")


def test_criterion_10_weighted_space_properties(holder_grid, holder_annuli):
    # 100-pair homogeneity/triangle on a coarse copy of the chart
    grid = hi.sampling_grid(spacing=0.047)
    annuli = hi.AnnuliDecomposition(grid)
    kw = dict(annuli=annuli, n_anchors=150, seed=0)
    hom = tri = 0
    for pair in range(100):
        h1 = seeded_field(grid, 2 * pair)
        h2 = seeded_field(grid, 2 * pair + 1)
        n1 = hi.weighted_norm(h1, 1, 0.5, 1.0, **kw).total
        n2 = hi.weighted_norm(h2, 1, 0.5, 1.0, **kw).total
        doubled = tc.TensorField(grid, 2.0 * h1.comp, 0)
        hom += hi.weighted_norm(doubled, 1, 0.5, 1.0, **kw).total == 2.0 * n1
        hsum = tc.TensorField(grid, h1.comp + h2.comp, 0)
        ns = hi.weighted_norm(hsum, 1, 0.5, 1.0, **kw).total
        tri += ns <= n1 + n2 + 1e-9 * (n1 + n2)

    # modulus monotone in t
    h = decay_field(holder_grid)
    mods = [hi.little_modulus(h, 1, 0.5, 1.0, t, annuli=holder_annuli)
            for t in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)]
    mono_mod = all(a <= b + 1e-12 for a, b in zip(mods, mods[1:]))

    # embedding inequality with the closed-form constant times 10
    sob_ok = all(
        hi.sobolev_embedding_check(f, 1.0, annuli=holder_annuli).satisfied
        for f in (bump_field(holder_grid), decay_field(holder_grid),
                  seeded_field(holder_grid, 3), seeded_field(holder_grid, 4))
    )

    # K-curve monotone and concave
    ts = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    curve = hi.k_functional(bump_field(holder_grid), ts, 1.0,
                            annuli=holder_annuli)
    ks = curve.k_upper
    k_mono = all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))
    slopes = np.diff(ks) / np.diff(ts)
    k_conc = all(a + 1e-9 >= b for a, b in zip(slopes, slopes[1:]))

    # interpolation ratios: family-uniform C (structurally <= 1)
    ratios = []
    for scale in (0.6, 1.2, 2.4):
        res = hi.interp_inequality_check(
            bump_field(holder_grid, scale), 0, None, 1, None, 0.5, 1.0,
            annuli=holder_annuli,
        )
        ratios.append(res["ratio"])
    interp_ok = (all(0.05 < q <= 1 + 1e-12 for q in ratios)
                 and max(ratios) / min(ratios) < 10)

    # resolvent ratios bounded and nonincreasing over four decades
    def h_exp(pts):
        return np.exp(-cg.distance(holder_grid.c, np.zeros(2), pts))

    rep = hi.resolvent_bound_check(
        h_exp, (0.1, 1.0, 10.0, 100.0), 0, 1.0, envelope=(1.0, 1.0),
        annuli=holder_annuli, per_annulus=10,
    )
    res_ok = (max(rep.ratios) <= 8.0
              and all(a >= b - 1e-12 for a, b in zip(rep.ratios,
                                                     rep.ratios[1:])))

    gate(10, "weighted-norm, K-functional, and resolvent properties",
         hom == 100 and tri == 100 and mono_mod and sob_ok
         and k_mono and k_conc and interp_ok and res_ok,
         f"homogeneity {hom}/100 exact, triangle {tri}/100; modulus "
         f"monotone {mono_mod}; embedding x10 holds {sob_ok}; K-curve "
         f"monotone {k_mono} concave {k_conc}; interp ratios <= 1 with "
         f"spread {max(ratios) / min(ratios):.1f}x; resolvent ratios <= 8 "
         f"nonincreasing {res_ok}")


def test_criterion_11_byte_identical_reruns(tmp_path, monkeypatch):
    import os

    for key in list(os.environ):
        if key.startswith("CHFLOW_"):
            monkeypatch.delenv(key)
    cases = [
        (["stability", "rayleigh", "--m", "2", "--spacing", "0.1",
          "--seed", "7", "--samples", "50"],
         ("rayleigh.csv", "summary.json", "manifest.json")),
        (["norms", "weighted", "--spacing", "0.047", "--anchors", "200",
          "--seed", "3"],
         ("weighted.csv", "summary.json", "manifest.json")),
        (["geometry", "check-curvature"],
         ("check_curvature.csv", "summary.json", "manifest.json")),
    ]
    identical = True
    for i, (args, names) in enumerate(cases):
        out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in names:
            identical &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    gate(11, "seeded experiments rerun byte-identical through the CLI",
         identical,
         "rayleigh (50 samples), weighted norms, curvature cross-check: "
         "every CSV, summary, and manifest byte-equal on repeat")
