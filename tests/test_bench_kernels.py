"""Smoke test of the kernel table script: it runs, stores its run under the
measured checkout's commit next to the runs already in the file, and
writes the documented schema. Timings are not checked."""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "bench", "kernels.py")
CONVS = {"c16x32", "c32x16", "c64x8", "c16to32s2", "c32to64s2", "stem", "down1x1_16to32",
         "down1x1_32to64"}
CASES = {
    "conv2d": CONVS,
    "conv2d_input_grad": CONVS,
    "conv2d_weight_grad": CONVS,
    "quantize_forward": {"c16x32", "c32x16", "c64x8"},
    "batchnorm2d": {"c16x32", "c32x16", "c64x8"},
    "relu": {"c16x32", "c32x16", "c64x8"},
}
CONTEXT = {"nproc", "blas", "blas_version", "blas_threads", "blas_core", "numpy", "python",
           "machine", "commit"}


def test_kernel_table_tiny_run_writes_the_schema(tmp_path):
    out = tmp_path / "kernels.json"
    earlier = {"context": {}, "batch": 128, "reps": 9, "kernels": []}
    out.write_text(json.dumps({"schema": "bwrf-kernels/1", "runs": {"earlier": earlier}}))
    proc = subprocess.run([sys.executable, SCRIPT, "--tiny", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    table = json.loads(out.read_text())
    assert table["schema"] == "bwrf-kernels/1"
    assert table["runs"].pop("earlier") == earlier
    [(label, run)] = table["runs"].items()
    assert set(run["context"]) == CONTEXT
    assert label == run["context"]["commit"]
    assert isinstance(run["context"]["nproc"], int) and run["context"]["nproc"] >= 1
    assert run["context"]["blas_threads"] == 1
    core = run["context"]["blas_core"]
    assert core is None or (isinstance(core, str) and core), core
    assert (run["batch"], run["reps"]) == (2, 1)
    seen = {}
    for row in run["kernels"]:
        assert set(row) == {"op", "case", "shape", "fwd_ms", "bwd_ms"}
        assert row["shape"][0] == 2
        for key in ("fwd_ms", "bwd_ms"):
            assert isinstance(row[key], float) and math.isfinite(row[key]) and row[key] >= 0
        seen.setdefault(row["op"], set()).add(row["case"])
    assert seen == CASES
