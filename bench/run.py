"""Benchmark of chflow: time to a checked result, set-up, CPU and peak memory.

Run one workload per process from the root of a checkout:

    python3 bench/run.py --workload gauged_flow --seed 0 --seconds 20 --trace 0

or every workload, each in its own process, with ``--workload all``.

With ``--trace 0`` the run measures until ``--seconds`` have passed (at least
one solve, and never starting a solve predicted to end past the limit) and
reports the end-to-end metrics of BENCHMARK.json: the median over the run's
solves of the wall time from ready inputs to the checked result and of its
process CPU time, the median time of back-to-back set-ups (at least
MIN_SETUPS of them and SETUP_SECONDS in all, up to MAX_SETUPS), and the
process's peak RSS.  With ``--trace 1`` it makes two untraced solves,
then one traced set-up and solve, and reports the per-layer metrics of
BENCHMARK.json plus the tracing overhead (traced minus the second untraced
time to solution) and the share of the traced solve no layer span covers.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count checked outputs
(failed_frac = failed / attempted).  A report and, for traced runs, the spans
are written under bench/out/.  The program is imported from src/ of the same
checkout; without it the run exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
NAMES = ("gauged_flow", "fixed_point_refinement", "linear_stability", "norms_and_cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 5
SETUP_SECONDS = 0.5
MAX_SETUPS = 1000
# stated bound on the share of a traced solve that no layer span covers
TRACE_GAP_LIMIT = 0.05


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_threads() -> None:
    # before numpy is imported: at most one BLAS/OpenMP thread per usable core
    n = _nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, n))
        except ValueError:
            wanted = n
        os.environ[var] = str(max(1, min(wanted, n)))


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def _environment(np, workload: str, seed: int, inputs) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # older numpy prints instead of returning
        blas = None
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "mem_available_mb": _mem_available_mb(),
    }


def _summary(values: list[float]) -> dict:
    """Median and the highest percentile the sample count supports.

    A percentile p needs at least ten samples beyond it; below 20 samples
    no percentile short of the maximum qualifies, so the maximum is given.
    """
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    else:
        out["max"] = max(values)
    return out


class Run:
    """One workload's solves and the outcome of their checks."""

    def __init__(self, w, inputs, reference):
        from workloads import check, expected_checks

        self.w, self.inputs, self.reference = w, inputs, reference
        self._check, self._expected = check, expected_checks
        self.attempted = self.failed = 0
        self.first: dict | None = None
        self.failures: list[str] = []

    def setup(self):
        t0 = time.perf_counter()
        ready = self.w.setup(self.inputs)
        return ready, time.perf_counter() - t0

    def solve(self, ready) -> tuple[float, float]:
        """Solve and check; returns wall and CPU seconds of both together."""
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs = self.w.solve(ready)
            results = self._check(self.w, outputs, self.reference, self.first)
        except Exception:  # a solve that raises fails every check it attempts
            traceback.print_exc()
            n = self._expected(self.w, self.reference, self.first)
            results = [("exception", False, "see stderr")] * n
            outputs = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if self.first is None:
            self.first = outputs
        self.attempted += len(results)
        for name, ok, detail in results:
            if not ok:
                self.failed += 1
                self.failures.append(f"{name}: {detail}")
        return wall, cpu


def _timed(run: Run, seconds: float) -> tuple[dict, dict]:
    # set-up time: back-to-back set-ups, enough of them for a steady median
    setups = []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_SECONDS
                                       and len(setups) < MAX_SETUPS):
        ready, dt = run.setup()
        setups.append(dt)
        del ready
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        ready, dt = run.setup()
        wall, cpu = run.solve(ready)
        del ready
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if len(walls) >= run.w.min_reps and elapsed + dt + wall > seconds:
            break
    metrics = {
        "time_to_solution_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples = {"time_to_solution_s": _summary(walls), "setup_s": _summary(setups),
               "cpu_s": _summary(cpus)}
    return metrics, samples


def _traced(run: Run, layer_names: list[str]) -> tuple[dict, dict, list]:
    from tracing import Tracer
    from workloads import instrument

    # The first solve of a process pays for cold memory (at 33^4 it is ~10 %
    # slower), so the untraced time compared is that of a later solve.
    untraced = []
    for _ in range(2):
        ready, _ = run.setup()
        untraced.append(run.solve(ready)[0])
        del ready
    tracer = Tracer(uuid.uuid4().hex)
    instrument(tracer)
    try:
        root = tracer.begin("bench.setup")
        try:
            ready, _ = run.setup()
        finally:
            tracer.end(root)
        root = tracer.begin("bench.solve")
        try:
            run.solve(ready)
        finally:
            tracer.end(root)
    finally:
        tracer.restore()
    traced = root.duration
    gap = tracer.self_times()[root.id] / traced
    metrics = {}
    for name in layer_names:
        if name == "trace.overhead_s":
            metrics[name] = traced - untraced[-1]
        elif name == "trace.gap_frac":
            metrics[name] = gap
        else:
            metrics[name] = tracer.metric(name, finest=("flow_engine.fixed_point_residual",))
    samples = {"untraced_time_to_solution_s": untraced,
               "traced_time_to_solution_s": traced,
               "gap_limit": TRACE_GAP_LIMIT, "gap_within_limit": gap <= TRACE_GAP_LIMIT}
    return metrics, samples, tracer.spans_as_dicts()


def _run_all(args) -> int:
    results, code = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {ln}" for ln in lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = code or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        code = code or (0 if results[name]["correct"] else 1)
    print(json.dumps(results, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    _limit_threads()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import numpy as np

        import chflow
        if not Path(chflow.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"chflow imported from {chflow.__file__}, not {SRC}")
        from workloads import WORKLOADS, reference_for
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    inputs = w.inputs[args.seed % len(w.inputs)]
    env = _environment(np, w.name, args.seed, inputs)
    print("environment " + json.dumps(env, sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    run = Run(w, inputs, reference_for(w, inputs))

    need = w.min_available_mb
    if need and (env["mem_available_mb"] or 0.0) < need:
        print(f"error: memory guard: {w.name} needs {need} MB available, "
              f"MemAvailable is {env['mem_available_mb']} MB; not run", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 3

    spans = None
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, samples, spans = _traced(run, names)
    else:
        metrics, samples = _timed(run, args.seconds)

    for name, value in metrics.items():
        line = f"{name}: {value!r} {units[name]}"
        if name in samples:
            s = samples[name]
            extra = ", ".join(f"{k} {v!r}" for k, v in s.items() if k != "n")
            line += f" ({extra}; n={s['n']})"
        print(line)
    if args.trace:
        print("trace: " + json.dumps(samples, sort_keys=True))
    print(f"failed_frac: {run.failed}/{run.attempted} = {run.failed / run.attempted!r}")
    for failure in run.failures[:20]:
        print(f"check failed: {failure}")

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    report = {"environment": env, "metrics": metrics, "samples": samples,
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in spans)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
