"""The four benchmark workloads: inputs per seed, the timed solve, the checks.

Every workload has a short tuple of input sets.  The first is the
configuration the workload is named after; the others are holdouts, so a
claimed gain can be checked on inputs it was not tuned on.  Each input set
has reference outputs in ``reference.json``, recorded at commit b85b726 by
``record_reference.py``.  `setup` builds the inputs (the `ChartGrid` caches
the solve reads and the initial data) and `solve` computes the outputs that
`check` compares with the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import chflow.chart_geometry as cg
import chflow.cli as cli
import chflow.flow_engine as fe
import chflow.frame_algebra as fa
import chflow.holder_interpolation as hi
import chflow.stability_analysis as sa
import chflow.tensor_calculus as tc
from chflow.chart_geometry import ChartGrid

# Relative tolerance on every float output compared with its reference: the
# ROADMAP requires refactors to keep the printed digits (rate 417.3, residual
# 6.11e-04), while the mutations the checks must catch move outputs by >= 5 %.
RTOL = 1e-4

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple  # input sets; --seed n selects inputs[n % len(inputs)]
    setup: Callable  # input set -> ready inputs
    solve: Callable  # ready inputs -> {output name: value}
    thresholds: tuple = ()  # (output name, test, description) checked besides the reference
    min_reps: int = 1
    min_available_mb: int = 0  # memory guard: MemAvailable needed before the run


# -- gauged_flow ------------------------------------------------------------

def _perturbed_metric(grid, amp, seed):
    # ROADMAP item 4 moves perturbed_metric from the CLI into the library
    fn = getattr(sa, "perturbed_metric", None) or cli.perturbed_metric
    return fn(grid, amp, seed)


def _flow_setup(seed: int):
    grid = ChartGrid(m=2, c=4.0, box_half=0.42, spacing=0.06)
    g0 = _perturbed_metric(grid, 1e-2, seed)
    grid.G, grid.Ginv, grid.sqrt_det, grid.r_geo  # the caches evolve reads
    return grid, g0


def _flow_solve(ready) -> dict:
    grid, g0 = ready
    tr = fe.evolve(grid, g0, t_end=0.006, cfl=0.2, record_every=2,
                   fit_norm="sup", fit_window=(0.2, 0.9), tau=1.0)
    return {"rate": tr.rate, "min_metric_eig": tr.min_metric_eig}


# -- fixed_point_refinement -------------------------------------------------

FIXED_POINT_SPACINGS = (0.1, 0.05, 0.025)


def _fixed_point_setup(radius: float):
    grids = [ChartGrid(m=2, c=4.0, box_half=0.4, spacing=s)
             for s in FIXED_POINT_SPACINGS]
    for grid in grids:
        grid.G, grid.Ginv, grid.r_geo  # the caches fixed_point_residual reads
    return grids, radius


def _fixed_point_solve(ready) -> dict:
    grids, radius = ready
    rels = [fe.fixed_point_residual(grid, radius=radius).relative for grid in grids]
    order = float(np.polyfit(np.log(FIXED_POINT_SPACINGS), np.log(rels), 1)[0])
    out = {f"residual_{s}": r for s, r in zip(FIXED_POINT_SPACINGS, rels)}
    out["order"] = order
    return out


# -- linear_stability -------------------------------------------------------

def _warm_background(grid: ChartGrid) -> ChartGrid:
    grid.G, grid.Ginv, grid.Gamma, grid.sqrt_det  # the caches the operators read
    return grid


def _stability_setup(base: int):
    grid = _warm_background(ChartGrid(m=2, c=4.0, box_half=0.4, spacing=0.05))
    fields = [sa.random_bump_tensor(grid, base + i) for i in range(1, 11)]
    flow_grid = _warm_background(ChartGrid(m=2, c=4.0, box_half=0.4, spacing=0.08))
    return fields, sa.random_bump_tensor(flow_grid, base + 1)


def _stability_solve(ready) -> dict:
    fields, h0 = ready
    reps = [sa.energy_report(h) for h in fields]
    lin = sa.linearized_flow(h0, 0.05)
    return {
        "max_bochner_residual_relative": max(r.bochner_residual_relative for r in reps),
        "max_energy_residual_relative": max(r.energy_residual_relative for r in reps),
        "max_rayleigh_quotient": max(r.rayleigh_quotient for r in reps),
        "linear_rate": lin.rate,
    }


# -- norms_and_cli ----------------------------------------------------------

CLI_COMMANDS = (
    ("norms", "weighted"),
    ("norms", "kfun"),
    ("norms", "interp"),
    ("norms", "resolvent"),
    ("curvature", "--m", "8"),
    ("geometry", "check-curvature"),
)
# files whose every value is checked; the tables are covered by the manifest
CLI_CHECKED_FILES = ("summary.json", "spectrum.json", "blocks.json")
SCRATCH = Path(__file__).resolve().parent / "out"


def _cli_setup(seed: int):
    # The CLI builds its own inputs inside each command; this times the same
    # construction the norms commands make at their defaults.
    grid = hi.sampling_grid(m=1, spacing=0.015, box_half=0.705, c=1 / 16)
    hi.AnnuliDecomposition(grid)
    return seed


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj


def _cli_solve(seed: int) -> dict:
    for key in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        del os.environ[key]  # the inputs are the flags below, nothing else
    SCRATCH.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="cli-", dir=SCRATCH))
    out: dict = {}
    try:
        for args in CLI_COMMANDS:
            label = " ".join(args)
            outdir = root / "_".join(args).replace("-", "")
            code = cli.main(list(args) + ["--seed", str(seed), "--out", str(outdir)])
            if code != 0:
                raise RuntimeError(f"chflow {label} exited {code}")
            for fname in CLI_CHECKED_FILES:
                if (outdir / fname).is_file():
                    doc = json.loads((outdir / fname).read_text())
                    _flatten(doc, f"{label}/{fname}", out)
            digest = hashlib.sha256((outdir / "manifest.json").read_bytes()).hexdigest()
            out[f"repeat:{label}/manifest.json"] = digest
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "gauged_flow",
        (11, 12, 13),  # perturbation seed; 11 is the flow run default
        _flow_setup, _flow_solve,
        thresholds=(("min_metric_eig", lambda v: v > 0.95, "> 0.95"),),
    ),
    Workload(
        "fixed_point_refinement",
        (0.3, 0.25, 0.35),  # geodesic radius of the residual ball; 0.3 is criterion 9
        _fixed_point_setup, _fixed_point_solve,
        thresholds=(("order", lambda v: v >= 1.8, ">= 1.8"),),
        min_available_mb=4400,  # 3.97 GB measured peak RSS plus 10 %
    ),
    Workload(
        "linear_stability",
        (0, 10, 20),  # seed offset: fields offset+1..offset+10, flow from offset+1
        _stability_setup, _stability_solve,
    ),
    Workload(
        "norms_and_cli",
        (0, 1, 2),  # the CLI's --seed; 0 is its default
        _cli_setup, _cli_solve,
        min_reps=2,  # the manifest must be byte-identical across two passes
    ),
)}


def reference_for(workload: Workload, inputs) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[workload.name][str(inputs)]


def _matches(value, ref) -> bool:
    if isinstance(ref, float) and not isinstance(value, bool):
        return isinstance(value, (int, float)) and math.isclose(
            value, ref, rel_tol=RTOL, abs_tol=0.0)
    return type(value) is type(ref) and value == ref


def check(workload: Workload, outputs: dict, ref: dict,
          first: dict | None) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every checked output of one solve.

    Each reference value is compared at RTOL (floats) or exactly; each
    threshold is tested; each ``repeat:`` output must equal the run's first
    solve.
    """
    results = []
    for key, want in ref.items():
        got = outputs.get(key)
        results.append((key, _matches(got, want), f"{got!r} vs reference {want!r}"))
    for key, test, desc in workload.thresholds:
        got = outputs.get(key)
        results.append((f"{key} {desc}", got is not None and bool(test(got)), repr(got)))
    if first is not None:
        for key, val in outputs.items():
            if key.startswith("repeat:"):
                results.append((key, val == first.get(key), "same bytes as the first pass"))
    return results


def expected_checks(workload: Workload, ref: dict, first: dict | None) -> int:
    """Number of checks one solve attempts; an exception fails all of them."""
    repeats = sum(key.startswith("repeat:") for key in first or ())
    return len(ref) + len(workload.thresholds) + repeats


def reference_outputs(outputs: dict) -> dict:
    """The outputs a reference records: all but the within-run ``repeat:`` ones."""
    return {k: v for k, v in outputs.items() if not k.startswith("repeat:")}


def instrument(tracer) -> None:
    """Wrap the public functions of each chflow module that the per-layer
    metrics name, on the module attribute each caller reads."""
    grid_points = lambda grid, *a, **k: int(np.prod(grid.shape))  # noqa: E731
    metric_points = lambda g, *a, **k: int(np.prod(g.shape[:-2]))  # noqa: E731
    field_points = lambda field, *a, **k: int(np.prod(field.grid.shape))  # noqa: E731

    # the class is shared by every importer (cli.ChartGrid included), so its
    # cached properties are wrapped once, on the class
    tracer.wrap_cache(ChartGrid, ("points", "G", "Ginv", "sqrt_det", "Gamma", "r_geo"),
                      "chart_geometry.grid_cache")
    for owner in (cg, hi):  # holder_interpolation imports both names directly
        tracer.wrap(owner, "distance", "chart_geometry.distance", count=np.size)
        tracer.wrap(owner, "geodesic_from", "chart_geometry.geodesic_from")

    tracer.wrap(tc, "ricci_of_metric", "tensor_calculus.ricci_of_metric",
                points=metric_points, memory=True)
    tracer.wrap(tc, "rough_laplacian", "tensor_calculus.rough_laplacian",
                points=field_points, memory=True)
    for fn in ("christoffels_of_metric", "stability_operator", "curvature_action",
               "covariant_derivative", "l2_inner"):
        tracer.wrap(tc, fn, f"tensor_calculus.{fn}")

    tracer.wrap(fe, "fixed_point_residual", "flow_engine.fixed_point_residual",
                points=grid_points, memory=True)
    for fn in ("deturck_rhs", "deturck_term", "evolve"):
        tracer.wrap(fe, fn, f"flow_engine.{fn}")

    for fn in ("energy_report", "linearized_flow", "random_bump_tensor"):
        tracer.wrap(sa, fn, f"stability_analysis.{fn}")
    for fn in ("weighted_norm", "k_functional", "interp_inequality_check",
               "resolvent_bound_check"):
        tracer.wrap(hi, fn, f"holder_interpolation.{fn}")
    for fn in ("assemble_R_gamma_bruteforce", "block_R_gamma", "spectrum_R_gamma"):
        tracer.wrap(fa, fn, f"frame_algebra.{fn}")

    tracer.wrap(cli, "main", "cli.main")
    file_size = lambda path: path.stat().st_size  # noqa: E731
    for fn in ("_write_table", "_write_json"):
        tracer.wrap_counter(cli, fn, "cli.bytes_written", file_size)
