"""End-to-end tests of the command line front end.

Commands run in-process through cli.main so stderr and exit codes are
inspectable; one subprocess test covers the ``python -m`` entry point.
Heavier numerics keep to coarse grids; the numbers themselves are owned
by the module test suites.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from chflow import cli
from chflow.cli import main


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("CHFLOW_"):
            monkeypatch.delenv(key)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# curvature


def test_curvature_outputs(tmp_path):
    assert main(["curvature", "--m", "2", "--c", "4",
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "R_gamma.csv")
    dim = 2 * (2 * 2 + 1)  # m(2m+1) with m=2
    assert len(header) == dim + 1 and len(rows) == dim
    arr = np.array([[float(x) for x in r[1:]] for r in rows])
    assert np.array_equal(arr, arr.T)

    spec = read_json(tmp_path / "spectrum.json")
    assert spec["dim"] == dim
    assert spec["brute_force_agrees"] is True
    assert [(e["exact"], e["multiplicity"]) for e in spec["entries"]] == [
        ("-6", 1), ("-2", 3), ("4", 6)
    ]
    assert spec["einstein_constant"]["exact"] == "6"
    assert spec["scalar_curvature"]["exact"] == "-24"

    blocks = read_json(tmp_path / "blocks.json")
    assert blocks["A"]["size"] == 4 and blocks["B"]["size"] == 2
    assert sum(b["size"] for b in blocks.values()) == dim


def test_curvature_rational_c_and_manifest(tmp_path):
    assert main(["curvature", "--m", "1", "--c", "1/16",
                 "--out", str(tmp_path)]) == 0
    man = read_json(tmp_path / "manifest.json")
    assert man["command"] == "curvature"
    assert man["parameters"]["c"] == "1/16"
    assert man["version"]
    names = {f["name"] for f in man["files"]}
    assert names == {"R_gamma.csv", "spectrum.json", "blocks.json"}
    entry = next(f for f in man["files"] if f["name"] == "R_gamma.csv")
    data = (tmp_path / "R_gamma.csv").read_bytes()
    assert entry["bytes"] == len(data)
    assert entry["sha256"] == hashlib.sha256(data).hexdigest()


def test_curvature_json_format(tmp_path):
    assert main(["curvature", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "R_gamma.json")
    assert doc["header"][0] == "basis"
    assert len(doc["rows"]) == len(doc["header"]) - 1


# ---------------------------------------------------------------------------
# geometry


def test_geometry_check_curvature(tmp_path):
    assert main(["geometry", "check-curvature", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "check_curvature.csv")
    assert header == ["component", "exact", "numeric", "error", "order"]
    assert len(rows) == 5
    assert [float(r[1]) for r in rows] == [-4.0, -1.0, -2.0, -1.0, 1.0]
    assert all(float(r[3]) < 5e-2 for r in rows)
    assert all(float(r[4]) > 1.8 for r in rows)
    summary = read_json(tmp_path / "summary.json")
    assert summary["spacings"] == [0.1, 0.05, 0.025]


# ---------------------------------------------------------------------------
# stability


def test_stability_rayleigh_and_rerun_identical(tmp_path):
    args = ["stability", "rayleigh", "--m", "2", "--spacing", "0.1",
            "--samples", "3", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("rayleigh.csv", "summary.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = read_json(out1 / "summary.json")
    assert summary["all_satisfied"] is True
    assert summary["max_quotient"] <= summary["bound"] + 1e-9


def test_stability_bochner_residuals_small(tmp_path):
    assert main(["stability", "bochner", "--m", "1", "--spacing", "0.05",
                 "--samples", "3", "--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["max_bochner_residual_relative"] < 5e-2
    assert summary["max_energy_residual_relative"] < 5e-2
    _, rows = read_csv(tmp_path / "bochner.csv")
    assert len(rows) == 3 and rows[0][0] == "1"


def test_stability_linear_flow_decay(tmp_path):
    assert main(["stability", "linear-flow", "--m", "2", "--spacing", "0.1",
                 "--t-end", "0.02", "--fit-window", "0.05,0.9",
                 "--record-every", "2", "--out", str(tmp_path)]) == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["reference_rate"] == 2.0
    assert summary["rate"] > 0.9 * summary["reference_rate"]
    header, rows = read_csv(tmp_path / "decay.csv")
    assert header == ["t", "l2_norm"]
    norms = [float(r[1]) for r in rows]
    assert norms[-1] < norms[0]


# ---------------------------------------------------------------------------
# flow


def test_flow_run_trace(tmp_path):
    assert main(["flow", "run", "--m", "2", "--spacing", "0.1",
                 "--box-half", "0.4", "--t-end", "0.004",
                 "--fit-window", "none", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "flow_trace.csv")
    assert header == ["t", "l2_dev", "weighted_sup_dev", "min_metric_eig"]
    sup = [float(r[2]) for r in rows]
    eig = [float(r[3]) for r in rows]
    assert sup[0] == pytest.approx(1e-2, rel=1e-9)  # amp normalization
    assert all(a >= b for a, b in zip(sup, sup[1:]))
    assert min(eig) > 0.9
    summary = read_json(tmp_path / "summary.json")
    assert summary["rate"] == "nan"
    assert summary["min_metric_eig"] == pytest.approx(min(eig))


# ---------------------------------------------------------------------------
# norms


def test_norms_weighted_and_jobs_identical(tmp_path):
    args = ["norms", "weighted", "--spacing", "0.047", "--anchors", "200"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "3", "--out", str(out2)]) == 0
    for name in ("weighted.csv", "summary.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = read_json(out1 / "summary.json")
    assert summary["total"] > 0
    assert summary["grid_restricted"] is True
    _, rows = read_csv(out1 / "weighted.csv")
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]


def test_norms_kfun_curve(tmp_path):
    # at rate 0.3 the mollifier pair wins at the smallest scale
    assert main(["norms", "kfun", "--spacing", "0.047", "--rate", "0.3",
                 "--per-annulus", "20", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "kfun.csv")
    ks = [float(r[1]) for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(ks, ks[1:]))  # nondecreasing
    assert all(r[2] in ("identity", "mollifier") for r in rows)
    assert rows[0][2] == "mollifier"
    summary = read_json(tmp_path / "summary.json")
    assert ks[-1] <= summary["norm_x"] + 1e-12


def test_norms_interp_ratios(tmp_path):
    assert main(["norms", "interp", "--spacing", "0.047",
                 "--per-annulus", "20", "--scales", "1.2,2.4",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "interp.csv")
    assert len(rows) == 2
    ratios = [float(r[5]) for r in rows]
    assert all(0 < q <= 1 + 1e-9 for q in ratios)


def test_norms_interp_records_its_scales(tmp_path):
    assert main(["norms", "interp", "--spacing", "0.047",
                 "--per-annulus", "20", "--scales", "1.2",
                 "--out", str(tmp_path)]) == 0
    params = read_json(tmp_path / "manifest.json")["parameters"]
    assert params["t_list"] == list(np.geomspace(0.2, 2.0, 6))


def test_norms_interp_rejects_t_list_flag(tmp_path, capsys):
    # interp samples its own scales: the flag exits 2 before any output
    out = tmp_path / "flag"
    assert main(["norms", "interp", "--t-list", "0.5,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: t_list: not used by norms interp\n"
    assert not out.exists()


def test_norms_interp_jobs_identical(tmp_path):
    args = ["norms", "interp", "--spacing", "0.047", "--per-annulus", "20",
            "--scales", "0.6,1.2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
    for name in ("interp.csv", "summary.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_norms_resolvent_oracle(tmp_path):
    assert main(["norms", "resolvent", "--spacing", "0.047",
                 "--per-annulus", "4", "--quad-points", "301",
                 "--lam", "1,10", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "resolvent.csv")
    for r in rows:
        assert float(r[4]) == pytest.approx(float(r[5]), abs=1e-5)
    gaps = [float(r[2]) for r in rows]
    assert gaps[0] > gaps[1]


# ---------------------------------------------------------------------------
# configuration layers


def test_config_env_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# defaults for a study\nm = 3\nseed = 5\n")
    out1 = tmp_path / "a"
    assert main(["curvature", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    p1 = read_json(out1 / "manifest.json")["parameters"]
    assert p1["m"] == 3 and p1["seed"] == 5

    monkeypatch.setenv("CHFLOW_M", "4")
    out2 = tmp_path / "b"
    assert main(["curvature", "--config", str(cfg),
                 "--out", str(out2)]) == 0
    p2 = read_json(out2 / "manifest.json")["parameters"]
    assert p2["m"] == 4 and p2["seed"] == 5  # env beats config, not seed

    out3 = tmp_path / "c"
    assert main(["curvature", "--config", str(cfg), "--m", "2",
                 "--out", str(out3)]) == 0
    assert read_json(out3 / "manifest.json")["parameters"]["m"] == 2


def test_config_via_env_path(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m = 3\n")
    monkeypatch.setenv("CHFLOW_CONFIG", str(cfg))
    assert main(["curvature", "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "manifest.json")["parameters"]["m"] == 3


# ---------------------------------------------------------------------------
# failure modes: single-line stderr, exit 2


@pytest.mark.parametrize(
    "argv,field",
    [
        (["curvature", "--m", "0"], "m"),
        (["curvature", "--m", "2.5"], "m"),
        (["curvature", "--c", "-3"], "c"),
        (["curvature", "--c", "4/0"], "c"),
        (["norms", "weighted", "--alpha", "1.5"], "alpha"),
        (["norms", "weighted", "--theta", "0"], "theta"),
        (["norms", "resolvent", "--quad-points", "300"], "quad_points"),
        (["stability", "rayleigh", "--seed", str(2**64)], "seed"),
        (["flow", "run", "--fit-window", "0.9,0.2"], "fit_window"),
        (["bogus"], "usage"),
        (["stability", "bogus"], "usage"),
        ([], "usage"),
        (["norms", "resolvent", "--direction", "2"], "direction"),  # m = 1: axes 0, 1
    ],
)
def test_invalid_inputs_exit_2(tmp_path, capsys, argv, field):
    if argv and "--out" not in argv:
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:")
    assert err.count("\n") == 1


def test_flow_cfl_at_symbol_bound_exits_2(tmp_path, capsys):
    # n/(4n-4) = 1/3 at m = 2; cfl 0.5 used to run and grow the deviation
    for cfl in ("0.5", "0.34"):
        argv = ["flow", "run", "--m", "2", "--spacing", "0.1",
                "--box-half", "0.4", "--t-end", "0.2", "--cfl", cfl,
                "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: cfl: must be below 1/3 for m = 2\n"
    assert not (tmp_path / "flow_trace.csv").exists()


def test_linear_flow_cfl_at_midpoint_limit_exits_2(tmp_path, capsys):
    # the midpoint step's real-axis limit is 2; cfl 3 used to run and let
    # the norm grow until the decay fit failed
    for cfl in ("3", "2"):
        argv = ["stability", "linear-flow", "--cfl", cfl, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: cfl: must be below 2\n"
    assert not (tmp_path / "decay.csv").exists()


def test_module_validation_surfaces_as_exit_2(tmp_path, capsys):
    # tau <= m/2 is rejected inside the norms machinery
    assert main(["norms", "weighted", "--spacing", "0.047", "--tau", "0.3",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameters:")


def test_bad_config_lines(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m: 3\n")
    assert main(["curvature", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert main(["curvature", "--config", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_bad_value_in_config_named_after_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("spacing = fast\n")
    assert main(["geometry", "check-curvature", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: spacing:")


# ---------------------------------------------------------------------------
# module entry point


def test_python_dash_m_entry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chflow", "curvature", "--m", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "manifest.json").exists()


def test_build_parser_lists_all_commands():
    parser = cli.build_parser()
    text = parser.format_help()
    for cmd in ("curvature", "geometry", "stability", "flow", "norms"):
        assert cmd in text
