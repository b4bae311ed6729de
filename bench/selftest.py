"""Show that the benchmark's output checks catch wrong results.

    python3 bench/selftest.py

Runs the default input set of a workload in-process with one library
function replaced, and requires the checks to fail:

- tensor_calculus.curvature_action zeroed (linear_stability),
- tensor_calculus.curvature_action sign-flipped (linear_stability),
- flow_engine.deturck_term dropped (gauged_flow).

The acceptance gate misses the two curvature cases (ROADMAP item 5).  An
unmodified linear_stability solve must pass, which shows the failures come
from the replaced function.  Exits 1 if any case comes out otherwise.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import chflow.flow_engine as fe  # noqa: E402
import chflow.tensor_calculus as tc  # noqa: E402
from workloads import WORKLOADS, check, reference_for  # noqa: E402


def _scaled_curvature(k: float):
    orig = tc.curvature_action

    def mutant(field):
        out = orig(field)
        return tc.TensorField(out.grid, k * out.comp, out.support_margin)

    return mutant


def _no_gauge(grid, g, *args, **kwargs):
    return np.zeros_like(g)


CASES = (
    # (label, workload, module, attribute, replacement or None, must fail)
    ("unmodified", "linear_stability", None, None, None, False),
    ("curvature_action zeroed", "linear_stability", tc, "curvature_action",
     _scaled_curvature(0.0), True),
    ("curvature_action sign-flipped", "linear_stability", tc, "curvature_action",
     _scaled_curvature(-1.0), True),
    ("deturck_term dropped", "gauged_flow", fe, "deturck_term", _no_gauge, True),
)


def failed_checks(workload_name: str) -> tuple[int, int]:
    w = WORKLOADS[workload_name]
    inputs = w.inputs[0]
    ref = reference_for(w, inputs)
    try:
        results = check(w, w.solve(w.setup(inputs)), ref, None)
    except Exception:  # as in the benchmark, an exception fails every check
        traceback.print_exc()
        return 1, 1
    for name, ok, detail in results:
        if not ok:
            print(f"    check failed: {name}: {detail}")
    return sum(not ok for _, ok, _ in results), len(results)


def main() -> int:
    wrong = 0
    for label, workload, module, attr, replacement, must_fail in CASES:
        orig = getattr(module, attr) if module is not None else None
        if module is not None:
            setattr(module, attr, replacement)
        try:
            failed, attempted = failed_checks(workload)
        finally:
            if module is not None:
                setattr(module, attr, orig)
        ok = (failed > 0) == must_fail
        wrong += not ok
        want = "checks fail" if must_fail else "checks pass"
        print(f"{'ok' if ok else 'WRONG'}: {label} on {workload}: "
              f"{failed}/{attempted} checks failed (want: {want})", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
