"""Command line front end for the experiments in this package.

Subcommands
-----------
curvature   curvature operator matrix on the symmetric square, its block
            structure, and its exact spectrum
geometry    finite-difference cross-checks of the model geometry
            (action: check-curvature)
stability   quadratic-form identities, Rayleigh quotients, and linearized
            decay (actions: bochner, rayleigh, linear-flow)
flow        nonlinear gauged flow runs from a perturbed background
            (action: run)
norms       weighted Holder machinery: annulus seminorms, K-functional
            curves, interpolation ratios, resolvent bounds
            (actions: weighted, kfun, interp, resolvent)

Every run writes its tables plus a ``manifest.json`` into ``--out``
(default: current directory).  The manifest lists each produced file with
its size and SHA-256 digest, echoes the resolved parameters, and records
the package version.  Outputs carry no timestamps and all randomness is
seeded, so a rerun with the same parameters and version is byte-identical.

Configuration resolves in four layers, later wins: built-in defaults,
a flat ``key = value`` config file (``--config`` or ``CHFLOW_CONFIG``),
environment variables ``CHFLOW_<KEY>``, explicit command line flags.
Invalid parameters exit with status 2 and a single ``error: <field>:
<reason>`` line on stderr.  The curvature constant ``c`` is parsed as an
exact rational ("4", "1/16"), so exact-arithmetic outputs stay exact.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import chart_geometry as cg
from . import flow_engine as fe
from . import frame_algebra as fa
from . import holder_interpolation as hi
from . import stability_analysis as sa
from . import tensor_calculus as tc
from .chart_geometry import ChartGrid
from .stability_analysis import perturbed_metric

ENV_PREFIX = "CHFLOW_"


class CliError(Exception):
    """Invalid usage or parameters; rendered as one machine-parseable line."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"error: {field}: {reason}")
        self.field = field
        self.reason = reason


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line failures instead of usage dumps
        raise CliError("usage", message)


# ---------------------------------------------------------------------------
# converters: strings from any layer -> validated values


def _int_min(lo: int) -> Callable[[str], int]:
    def conv(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise ValueError("must be an integer") from None
        if v < lo:
            raise ValueError(f"must be an integer >= {lo}")
        return v

    return conv


def _int_range(lo: int, hi: int) -> Callable[[str], int]:
    def conv(text: str) -> int:
        v = _int_min(lo)(text)
        if v > hi:
            raise ValueError(f"must lie in [{lo}, {hi}]")
        return v

    return conv


def _seed_u64(text: str) -> int:
    v = _int_min(0)(text)
    if v >= 2**64:
        raise ValueError("must fit in an unsigned 64-bit integer")
    return v


def _odd_int(text: str) -> int:
    v = _int_min(3)(text)
    if v % 2 == 0:
        raise ValueError("must be odd (composite Simpson rule)")
    return v


def _rational_pos(text: str) -> Fraction:
    try:
        v = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError('must be a rational like "4" or "1/16"') from None
    if v <= 0:
        raise ValueError("must be positive")
    return v


def _float_pos(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ValueError("must be a number") from None
    if not v > 0 or not math.isfinite(v):
        raise ValueError("must be a positive finite number")
    return v


def _open01_or_none(text: str) -> float | None:
    if text.strip().lower() == "none":
        return None
    try:
        v = float(text)
    except ValueError:
        raise ValueError('must be a number in (0, 1) or "none"') from None
    if not 0.0 < v < 1.0:
        raise ValueError("must lie in the open interval (0, 1)")
    return v


def _open01(text: str) -> float:
    v = _open01_or_none(text)
    if v is None:
        raise ValueError("must lie in the open interval (0, 1)")
    return v


def _choice(*options: str) -> Callable[[str], str]:
    def conv(text: str) -> str:
        v = text.strip().lower()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v

    return conv


def _float_list_pos(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError("must be a comma-separated list of numbers") from None
    if not vals or any(v <= 0 for v in vals):
        raise ValueError("must be a nonempty list of positive numbers")
    return vals


def _window_or_none(text: str) -> tuple[float, float] | None:
    if text.strip().lower() == "none":
        return None
    vals = _float_list_pos(text)
    if len(vals) != 2 or not vals[0] < vals[1]:
        raise ValueError('must be "lo,hi" with 0 < lo < hi, or "none"')
    return (vals[0], vals[1])


def _path(text: str) -> str:
    return text


# ---------------------------------------------------------------------------
# option tables and layered resolution


class Opt(NamedTuple):
    name: str  # underscore form; flag is --name-with-dashes
    convert: Callable[[str], object]
    default: object
    help: str


class Command(NamedTuple):
    actions: tuple[str, ...] | None
    options: tuple[Opt, ...]
    help: str


def _common(**defaults) -> tuple[Opt, ...]:
    table = [
        Opt("m", _int_min(1), defaults.get("m", 2), "complex dimension"),
        Opt("c", _rational_pos, defaults.get("c", Fraction(4)),
            'curvature constant, exact rational ("4", "1/16")'),
        Opt("seed", _seed_u64, defaults.get("seed", 0), "RNG seed"),
        Opt("out", _path, ".", "output directory (created if missing)"),
        Opt("format", _choice("csv", "json"), "csv", "table file format"),
        Opt("jobs", _int_min(1), 1,
            "worker threads for independent computations"),
        Opt("config", _path, None, "flat key = value config file"),
    ]
    return tuple(table)


_GRID_OPTS = lambda sp, bh: (  # noqa: E731  (tiny local table builder)
    Opt("spacing", _float_pos, sp, "grid spacing (must divide box-half)"),
    Opt("box_half", _float_pos, bh, "coordinate half-width of the chart box"),
)

COMMANDS: dict[str, Command] = {
    "curvature": Command(
        actions=None,
        options=_common(),
        help="curvature operator matrix, blocks, exact spectrum",
    ),
    "geometry": Command(
        actions=("check-curvature",),
        options=_common() + (
            Opt("spacing", _float_pos, 0.05,
                "FD step under test; the order fit uses (2s, s, s/2)"),
        ),
        help="finite-difference cross-checks of the model geometry",
    ),
    "stability": Command(
        actions=("bochner", "rayleigh", "linear-flow"),
        options=_common(seed=1) + _GRID_OPTS(0.05, 0.4) + (
            Opt("samples", _int_min(1), 10, "number of seeded test fields"),
            Opt("t_end", _float_pos, 0.05, "linear-flow horizon"),
            Opt("cfl", _float_pos, 0.4, "explicit-step CFL number, below 2"),
            Opt("record_every", _int_min(1), 1, "steps between trace records"),
            Opt("fit_window", _window_or_none, (0.01, 0.3),
                'decay-fit window as norm fractions "lo,hi"'),
        ),
        help="energy identities, Rayleigh quotients, linearized decay",
    ),
    "flow": Command(
        actions=("run",),
        options=_common(seed=11) + _GRID_OPTS(0.06, 0.42) + (
            Opt("amp", _float_pos, 1e-2,
                "weighted-sup size of the initial perturbation"),
            Opt("t_end", _float_pos, 0.006, "flow horizon"),
            Opt("cfl", _float_pos, 0.2, "explicit-step CFL number"),
            Opt("record_every", _int_min(1), 2, "steps between trace records"),
            Opt("tau", _float_pos, 1.0, "weight exponent of the sup norm"),
            Opt("fit_norm", _choice("l2", "sup"), "sup",
                "norm whose trace the decay rate is fitted on"),
            Opt("fit_window", _window_or_none, (0.2, 0.9),
                'decay-fit window as norm fractions "lo,hi", or "none"'),
        ),
        help="nonlinear gauged flow from a seeded perturbation",
    ),
    "norms": Command(
        actions=("weighted", "kfun", "interp", "resolvent"),
        options=_common(m=1, c=Fraction(1, 16)) + _GRID_OPTS(0.015, 0.705) + (
            Opt("tau", _float_pos, 1.0, "annulus weight exponent"),
            Opt("k", _int_range(0, 2), 1, "derivative count of the norm"),
            Opt("alpha", _open01_or_none, 0.5,
                'Holder exponent in (0, 1), or "none"'),
            Opt("theta", _open01, 0.5, "interpolation parameter"),
            Opt("rate", _float_pos, 2.0, "decay rate of the built-in field"),
            Opt("anchors", _int_min(1), 1000,
                "sample anchors per annulus for the weighted norm"),
            Opt("per_annulus", _int_min(1), None,
                "anchors per annulus for kfun/interp/resolvent"),
            Opt("t_list", _float_list_pos, (0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
                "K-functional scales for kfun (interp rejects it)"),
            Opt("scales", _float_list_pos, (0.6, 1.2, 2.4),
                "bump-field scales for the interpolation table"),
            Opt("lam", _float_list_pos, (0.1, 1.0, 10.0, 100.0),
                "resolvent parameters"),
            Opt("direction", _int_min(0), 0, "resolvent ray axis"),
            Opt("quad_points", _odd_int, 801, "resolvent quadrature nodes"),
        ),
        help="weighted seminorms, K-curves, interpolation and resolvent checks",
    ),
}

# parameters that shape the run but not its scientific content
_ECHO_SKIP = ("out", "config", "jobs")


def _read_config(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise CliError("config", f"no such file: {path}")
    table: dict[str, str] = {}
    for ln, line in enumerate(p.read_text().splitlines(), 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise CliError("config", f"line {ln}: expected key = value")
        key, _, val = s.partition("=")
        table[key.strip().lower().replace("-", "_")] = val.strip()
    return table


def _resolve(ns: argparse.Namespace, opts: tuple[Opt, ...],
             config: dict[str, str]) -> dict:
    vals: dict = {}
    for name, conv, default, _ in opts:
        raw = getattr(ns, name, None)
        if raw is None:
            raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is None:
            raw = config.get(name)
        if raw is None:
            vals[name] = default
            continue
        try:
            vals[name] = conv(raw)
        except ValueError as exc:
            raise CliError(name, str(exc)) from None
    return vals


def _echo(vals: dict) -> dict:
    out: dict = {}
    for key, v in vals.items():
        if key in _ECHO_SKIP:
            continue
        if isinstance(v, Fraction):
            out[key] = str(v)
        elif isinstance(v, tuple):
            out[key] = list(v)
        else:
            out[key] = v
    return out


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _fmt(v)


def _json_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _sanitize(obj):
    # strict JSON: encode non-finite floats as strings
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path: Path, obj) -> Path:
    path.write_text(
        json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                   allow_nan=False) + "\n"
    )
    return path


def _write_table(outdir: Path, stem: str, header: list[str], rows,
                 fmt: str) -> Path:
    rows = [list(r) for r in rows]
    if fmt == "csv":
        path = outdir / f"{stem}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_csv_cell(v) for v in row])
        return path
    doc = {"header": header,
           "rows": [[_json_cell(v) for v in row] for row in rows]}
    return _write_json(outdir / f"{stem}.json", doc)


def _write_manifest(outdir: Path, command: str, params: dict,
                    files: list[Path]) -> None:
    entries = []
    for p in sorted(files, key=lambda q: q.name):
        data = p.read_bytes()
        entries.append({
            "name": p.name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    doc = {"command": command, "parameters": params,
           "version": __version__, "files": entries}
    _write_json(outdir / "manifest.json", doc)


# ---------------------------------------------------------------------------
# built-in test fields


def _decay_field(grid: ChartGrid, rate: float) -> tc.TensorField:
    prof = np.exp(-rate * grid.r_geo)
    return tc.TensorField(grid, prof[..., None, None] * grid.G, 0)


def _bump_field(grid: ChartGrid, scale: float) -> tc.TensorField:
    prof = np.clip(1.0 - (grid.r_geo / scale) ** 2, 0.0, None) ** 4
    eye = np.eye(2 * grid.m)
    return tc.TensorField(grid, prof[..., None, None] * eye, 0)


# ---------------------------------------------------------------------------
# runners; each returns (parameter echo, produced files)


def _run_curvature(v: dict, outdir: Path):
    m, c = v["m"], v["c"]
    mat = fa.block_R_gamma(m, c)
    brute = fa.assemble_R_gamma_bruteforce(m, c)
    labels = mat.labels()
    arr = mat.to_float()
    dim = len(labels)
    rows = [[labels[i]] + [arr[i, j] for j in range(dim)] for i in range(dim)]
    files = [_write_table(outdir, "R_gamma", ["basis"] + labels, rows,
                          v["format"])]

    def entry(ev: Fraction, mult: int) -> dict:
        return {"value": float(ev), "exact": str(ev), "multiplicity": mult}

    lam, scal = fa.einstein_constants(m, c)
    files.append(_write_json(outdir / "spectrum.json", {
        "dim": dim,
        "entries": [entry(ev, k) for ev, k in fa.spectrum_R_gamma(m, c)],
        "einstein_constant": {"value": float(lam), "exact": str(lam)},
        "scalar_curvature": {"value": float(scal), "exact": str(scal)},
        "brute_force_agrees": bool(np.array_equal(mat.units, brute.units)),
    }))
    sizes = {"A": 2 * m, "B": m, "F": dim - 3 * m}
    files.append(_write_json(outdir / "blocks.json", {
        name: {"size": sizes[name],
               "spectrum": [entry(ev, k) for ev, k in evs]}
        for name, evs in fa.spectrum_by_block(m, c).items()
    }))
    return _echo(v), files


def _run_geometry_check(v: dict, outdir: Path):
    s = v["spacing"]
    spacings = (2 * s, s, s / 2)
    rep = cg.curvature_component_check(v["m"], float(v["c"]), spacings)
    rows = [
        [rep.labels[k], rep.exact[k], rep.numeric[1][k], rep.errors[1][k],
         rep.orders[k]]
        for k in range(len(rep.labels))
    ]
    files = [_write_table(outdir, "check_curvature",
                          ["component", "exact", "numeric", "error", "order"],
                          rows, v["format"])]
    files.append(_write_json(outdir / "summary.json", {
        "m": v["m"], "c": float(v["c"]), "spacings": list(spacings),
        "max_error": max(rep.errors[1]), "min_order": min(rep.orders),
    }))
    return _echo({**v, "spacings": list(spacings)}), files


def _stability_grid(v: dict) -> ChartGrid:
    return ChartGrid(m=v["m"], c=float(v["c"]), box_half=v["box_half"],
                     spacing=v["spacing"])


def _energy_reports(v: dict) -> tuple[list[int], list[sa.EnergyReport]]:
    grid = _stability_grid(v)
    seeds = [v["seed"] + i for i in range(v["samples"])]
    reps = hi._map_jobs(lambda s: sa.energy_report(sa.random_bump_tensor(grid, s)),
                        seeds, v["jobs"])
    return seeds, reps


def _run_stability_bochner(v: dict, outdir: Path):
    seeds, reps = _energy_reports(v)
    header = ["seed", "norm_sq", "grad_sq", "half_t_sq", "div_sq",
              "lam_norm_sq", "curvature_term", "quad_form",
              "bochner_residual_relative", "energy_residual_relative"]
    rows = [
        [s, r.norm_sq, r.grad_sq, r.half_t_sq, r.div_sq, r.lam_norm_sq,
         r.curvature_term, r.quad_form, r.bochner_residual_relative,
         r.energy_residual_relative]
        for s, r in zip(seeds, reps)
    ]
    files = [_write_table(outdir, "bochner", header, rows, v["format"])]
    files.append(_write_json(outdir / "summary.json", {
        "samples": v["samples"],
        "max_bochner_residual_relative":
            max(r.bochner_residual_relative for r in reps),
        "max_energy_residual_relative":
            max(r.energy_residual_relative for r in reps),
    }))
    return _echo(v), files


def _run_stability_rayleigh(v: dict, outdir: Path):
    seeds, reps = _energy_reports(v)
    rows = [
        [s, r.rayleigh_quotient, r.rayleigh_bound, r.rayleigh_satisfied]
        for s, r in zip(seeds, reps)
    ]
    files = [_write_table(outdir, "rayleigh",
                          ["seed", "quotient", "bound", "satisfied"],
                          rows, v["format"])]
    files.append(_write_json(outdir / "summary.json", {
        "samples": v["samples"],
        "max_quotient": max(r.rayleigh_quotient for r in reps),
        "bound": reps[0].rayleigh_bound,
        "all_satisfied": all(r.rayleigh_satisfied for r in reps),
    }))
    return _echo(v), files


def _run_stability_linear_flow(v: dict, outdir: Path):
    if v["fit_window"] is None:
        raise CliError("fit_window", "linear-flow always fits; give lo,hi")
    if not v["cfl"] < sa._LINEAR_CFL_BOUND:
        raise CliError("cfl", f"must be below {sa._LINEAR_CFL_BOUND}")
    grid = _stability_grid(v)
    h0 = sa.random_bump_tensor(grid, v["seed"])
    trace = sa.linearized_flow(h0, v["t_end"], cfl=v["cfl"],
                               record_every=v["record_every"],
                               fit_window=v["fit_window"])
    rows = list(zip(trace.times, trace.norms))
    files = [_write_table(outdir, "decay", ["t", "l2_norm"], rows,
                          v["format"])]
    ref = (v["m"] - 1) * float(v["c"]) / 2.0
    files.append(_write_json(outdir / "summary.json", {
        "rate": trace.rate,
        "reference_rate": ref,
        "rate_ratio": trace.rate / ref if ref > 0 else None,
        "dt": trace.dt,
        "n_records": len(trace.times),
        "fit_window_records": list(trace.fit_window),
        "initial_norm": trace.initial_norm,
    }))
    return _echo(v), files


def _run_flow(v: dict, outdir: Path):
    cfl_max = fe._cfl_bound(v["m"])
    if not v["cfl"] < cfl_max:
        raise CliError("cfl", f"must be below {cfl_max} for m = {v['m']}")
    grid = _stability_grid(v)
    g0 = perturbed_metric(grid, v["amp"], v["seed"], v["tau"])
    trace = fe.evolve(
        grid, g0, t_end=v["t_end"], cfl=v["cfl"],
        record_every=v["record_every"], fit_window=v["fit_window"],
        fit_norm=v["fit_norm"], tau=v["tau"],
    )
    rows = list(zip(trace.times, trace.l2_dev, trace.sup_dev,
                    trace.eig_trace))
    files = [_write_table(
        outdir, "flow_trace",
        ["t", "l2_dev", "weighted_sup_dev", "min_metric_eig"],
        rows, v["format"])]
    files.append(_write_json(outdir / "summary.json", {
        "rate": trace.rate,
        "fit_norm": v["fit_norm"],
        "dt_first": trace.dt_first,
        "t_end": v["t_end"],
        "n_records": len(trace.times),
        "min_metric_eig": trace.min_metric_eig,
        "initial_sup_dev": float(trace.sup_dev[0]),
        "final_sup_dev": float(trace.sup_dev[-1]),
    }))
    return _echo(v), files


def _norms_setup(v: dict) -> tuple[ChartGrid, hi.AnnuliDecomposition]:
    grid = hi.sampling_grid(m=v["m"], spacing=v["spacing"],
                            box_half=v["box_half"], c=float(v["c"]))
    return grid, hi.AnnuliDecomposition(grid)


def _run_norms_weighted(v: dict, outdir: Path):
    grid, annuli = _norms_setup(v)
    h = _decay_field(grid, v["rate"])
    rep = hi.weighted_norm(h, v["k"], v["alpha"], v["tau"], annuli=annuli,
                           n_anchors=v["anchors"], seed=v["seed"],
                           jobs=v["jobs"])
    rows = [
        [n + 1, rep.per_annulus[n], rep.seminorm_sums[n], rep.holder_parts[n]]
        for n in range(rep.n_max)
    ]
    files = [_write_table(outdir, "weighted",
                          ["annulus", "weighted_value", "seminorm_sum",
                           "holder_part"],
                          rows, v["format"])]
    files.append(_write_json(outdir / "summary.json", {
        "total": rep.total,
        "tail_bound": rep.tail_bound,
        "grid_restricted": rep.grid_restricted,
        "n_max": rep.n_max,
        "field": {"kind": "exp_decay_metric", "rate": v["rate"]},
    }))
    return _echo(v), files


def _run_norms_kfun(v: dict, outdir: Path):
    grid, annuli = _norms_setup(v)
    h = _decay_field(grid, v["rate"])
    pa = v["per_annulus"] if v["per_annulus"] is not None else 60
    curve = hi.k_functional(h, v["t_list"], v["tau"], annuli=annuli,
                            per_annulus=pa, seed=v["seed"])
    rows = list(zip(curve.ts, curve.k_upper, curve.chosen))
    files = [_write_table(outdir, "kfun", ["t", "k_upper", "decomposition"],
                          rows, v["format"])]
    theta = v["theta"]
    tn = hi._theta_norm(curve, theta)
    product = curve.norm_x ** (1 - theta) * curve.norm_y**theta
    files.append(_write_json(outdir / "summary.json", {
        "norm_x": curve.norm_x,
        "norm_y": curve.norm_y,
        "c_t_range": list(curve.c_t_range),
        "theta": theta,
        "theta_norm": tn,
        "endpoint_product": product,
        "ratio": tn / product if product > 0 else 0.0,
    }))
    return _echo({**v, "per_annulus": pa}), files


def _run_norms_interp(v: dict, outdir: Path):
    grid, annuli = _norms_setup(v)
    pa = v["per_annulus"] if v["per_annulus"] is not None else 60

    def one(scale: float) -> dict:
        h = _bump_field(grid, scale)
        return hi.interp_inequality_check(
            h, 0, None, 1, None, v["theta"], v["tau"], annuli=annuli,
            per_annulus=pa, seed=v["seed"],
        )

    results = hi._map_jobs(one, v["scales"], v["jobs"])
    rows = [
        [s, r["theta_norm"], r["norm_x"], r["norm_y"], r["product"],
         r["ratio"], r["reiteration_ratio"]]
        for s, r in zip(v["scales"], results)
    ]
    files = [_write_table(outdir, "interp",
                          ["scale", "theta_norm", "norm_x", "norm_y",
                           "product", "ratio", "reiteration_ratio"],
                          rows, v["format"])]
    files.append(_write_json(outdir / "summary.json", {
        "theta": v["theta"],
        "scales": list(v["scales"]),
        "max_ratio": max(r["ratio"] for r in results),
        "target_order": results[0]["target_order"],
    }))
    # interp samples K on the library's default scales, not --t-list
    return _echo({**v, "per_annulus": pa, "t_list": results[0]["t_list"]}), files


def _run_norms_resolvent(v: dict, outdir: Path):
    if not v["direction"] < 2 * v["m"]:
        raise CliError("direction", f"must be below {2 * v['m']} for m = {v['m']}")
    grid, annuli = _norms_setup(v)
    pa = v["per_annulus"] if v["per_annulus"] is not None else 12
    rate = v["rate"]
    c = float(v["c"])
    origin = np.zeros(2 * v["m"])

    def h_func(pts: np.ndarray) -> np.ndarray:
        return np.exp(-rate * cg.distance(c, origin, pts))

    rep = hi.resolvent_bound_check(
        h_func, v["lam"], v["direction"], v["tau"], envelope=(1.0, rate),
        annuli=annuli, per_annulus=pa, seed=v["seed"],
        n_quad=v["quad_points"],
    )
    rows = [
        [lam, rep.ratios[i], rep.sup_gap_to_identity[i], rep.tail_bounds[i],
         rep.origin_values[i], lam / (lam + rate)]
        for i, lam in enumerate(rep.lam_list)
    ]
    files = [_write_table(outdir, "resolvent",
                          ["lam", "ratio", "sup_gap_to_identity",
                           "tail_bound", "origin_value", "origin_exact"],
                          rows, v["format"])]
    files.append(_write_json(outdir / "summary.json", {
        "norm_h": rep.norm_h,
        "direction": rep.direction,
        "max_ratio": max(rep.ratios),
        "ratios_nonincreasing": all(
            a >= b - 1e-12 for a, b in zip(rep.ratios, rep.ratios[1:])
        ),
        "field": {"kind": "exp_decay_scalar", "rate": rate},
    }))
    return _echo({**v, "per_annulus": pa}), files


_RUNNERS: dict[tuple[str, str | None], Callable[[dict, Path], tuple]] = {
    ("curvature", None): _run_curvature,
    ("geometry", "check-curvature"): _run_geometry_check,
    ("stability", "bochner"): _run_stability_bochner,
    ("stability", "rayleigh"): _run_stability_rayleigh,
    ("stability", "linear-flow"): _run_stability_linear_flow,
    ("flow", "run"): _run_flow,
    ("norms", "weighted"): _run_norms_weighted,
    ("norms", "kfun"): _run_norms_kfun,
    ("norms", "interp"): _run_norms_interp,
    ("norms", "resolvent"): _run_norms_resolvent,
}


# ---------------------------------------------------------------------------
# entry points


def build_parser() -> argparse.ArgumentParser:
    """Argument parser with one subparser per subcommand.

    All options parse as plain strings with default None so that unset
    flags fall through to the environment, config file, and built-in
    default layers; conversion and validation happen after layering.
    """
    parser = _Parser(prog="chflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for cmd, meta in COMMANDS.items():
        sp = sub.add_parser(cmd, help=meta.help, description=meta.help)
        if meta.actions is not None:
            sp.add_argument("action", choices=meta.actions)
        for name, _, default, hlp in meta.options:
            shown = str(default) if isinstance(default, Fraction) else default
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            default=None, metavar="V",
                            help=f"{hlp} (default: {shown})")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; 0 on success, 2 on invalid usage or parameters."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise CliError(
                "usage",
                "a subcommand is required: " + ", ".join(COMMANDS),
            )
        meta = COMMANDS[ns.command]
        action = getattr(ns, "action", None)
        # interp samples its own scales: an explicit --t-list exits 2; the
        # config and environment layers, shared across actions, do not
        if (ns.command, action) == ("norms", "interp") and ns.t_list is not None:
            raise CliError("t_list", "not used by norms interp")
        cfg_path = ns.config if ns.config is not None \
            else os.environ.get(ENV_PREFIX + "CONFIG")
        config = _read_config(cfg_path) if cfg_path else {}
        vals = _resolve(ns, meta.options, config)
        outdir = Path(vals["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        params, files = _RUNNERS[(ns.command, action)](vals, outdir)
        label = ns.command if action is None else f"{ns.command} {action}"
        _write_manifest(outdir, label, params, files)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: parameters: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: run: {exc}", file=sys.stderr)
        return 2
    return 0
