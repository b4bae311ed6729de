"""Record the reference outputs that the benchmark's checks compare against.

    python3 bench/record_reference.py [workload ...]

Solves every input set of the named workloads (default: all) once and
rewrites their entries in bench/reference.json.  Run it only on a commit
whose outputs are known to be right; the references in the repository were
recorded at commit b85b726.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from workloads import REFERENCE_FILE, WORKLOADS, reference_outputs  # noqa: E402


def main(names: list[str]) -> int:
    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        entry = {}
        for inputs in w.inputs:
            entry[str(inputs)] = reference_outputs(w.solve(w.setup(inputs)))
            print(f"{name} {inputs}: {len(entry[str(inputs)])} outputs", flush=True)
        reference[name] = entry
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
