"""Write reference.json: E_HF and E_FCI on every grid a scan seed can produce.

    python3 perfbench/make_reference.py

Each grid is scanned by `workloads.run_once`, the path the benchmark times,
and read back from the CSV it writes (17 significant digits round-trip
exactly). Points that fail are stored under "failed_R" as their warning
prints R; the gate checks only their invariants. The committed file was
written by h2ent at commit 3aaff59. Rerun this only when a change is meant to
move the energies.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def reference_grid(name, shift):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        sample = workloads.run_once(workloads.scan_inputs(name, shift),
                                    Path(tmp) / "scan.csv")
    rows = workloads.scan_rows(sample.output)
    return {"R": [row[0] for row in rows],
            "E_HF": [row[1] for row in rows],
            "E_FCI": [row[2] for row in rows],
            "failed_R": list(sample.failed_r)}


def main():
    ref = {name: {str(k): reference_grid(name, k) for k in range(workloads.N_SHIFTS)}
           for name in workloads.SCANS}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
