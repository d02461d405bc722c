"""One traced benchmark sample of each workload runs against this tree.

``perfbench/spans.py`` wraps names inside bquant (``_linalg.fm_feasible``
and ``solve_unique``, ``LatticePolyhedron.lattice_points``,
``engine.tail_matching``, ``collapse_signed_tails(self_check=)``, ...) and
``perfbench/sample.py`` calls ``quantize_description(threads=)`` and reads
``validate_description.cache_info()``.  Renaming any of them breaks the
benchmark without failing another test.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sphere_family", "qr_verify"])
def test_traced_sample_runs(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sample.py"),
         "--workload", workload, "--seed", "1", "--variant", "check",
         "--spawned-at", str(time.monotonic())],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["failures"] == []
    assert record["attempted"] == len(record["latencies_s"]) > 0
    assert record["validations"] == record["descriptions"]
    trace = record["trace"]
    assert trace["counts"]
    assert {"spaces.parse", "spaces.validate", "engine.match",
            "engine.collapse", "polyhedra.lattice_points",
            "linalg.fm"} <= trace["spans"].keys()
