"""The same-bytes promise end to end: a short recipe of every command, hashed
file by file, against a committed table with one entry per kernel context.

The recipe is ``tests/test_cli.py``'s ``fp_run`` (resnet8, 192/64 idx
images at 16^2, 2 epochs) with augment on and ``cos_every = 1``: train-fp,
train-bwrf with all four loss switches, train-baseline, an ``eval`` of M1
and ``analyze-similarity``. It runs in a fresh process with one BLAS
thread, so the helper thread runs exactly when the test's CPUs allow it.

The bits of a run depend on the numpy version, the OpenBLAS version and the
kernel set OpenBLAS picked for the CPU (``bench/kernels.py``'s
``blas_core``), so ``same_bytes.json`` holds one entry per such context.
With no entry for the running context, the test skips and names it; it
never falls back to a tolerance. A change that moves bits on purpose
rewrites its entries, written by running this file as a script:

    PYTHONPATH=src python tests/test_same_bytes.py --write
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_same_bytes.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "tests", "same_bytes.json")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FILES = ("fp/fp.ckpt", "fp/train_log.csv", "bwrf/lp.ckpt", "bwrf/train_log.csv",
         "baseline/lp.ckpt", "baseline/train_log.csv", "sim/similarity.csv")


def context() -> str:
    """numpy version, OpenBLAS version and kernel set of this process."""
    import numpy as np

    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from kernels import blas_core

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, {blas_core()}"


def recipe(work: str) -> dict:
    """Run the recipe in work; the sha256 of each output file and of the eval line."""
    from bwrf.cli import entry
    from bwrf.synthetic import write_synthetic_idx

    data = os.path.join(work, "data")
    write_synthetic_idx(data, n_train=192, n_test=64, hw=16, seed=5)
    cfg = os.path.join(work, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(f"arch = resnet8\nn_blocks = 3\ndata_format = idx\ndata_dir = {data}\n"
                 "epochs = 2\nmilestones =\nlr = 0.05\nbatch_size = 32\neval_batch_size = 64\n"
                 f"seed = 4\naugment = true\ncos_every = 1\noutput_dir = {work}/fp\n")
    fp = os.path.join(work, "fp", "fp.ckpt")
    lp = ["--config", cfg, "--set", f"fp_checkpoint={fp}", "--set", "bits=4"]
    lp_ckpt = os.path.join(work, "bwrf", "lp.ckpt")
    eval_out = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        assert entry(["train-fp", "--config", cfg]) == 0
        assert entry(["train-bwrf", *lp, "--set", f"output_dir={work}/bwrf"]) == 0
        assert entry(["train-baseline", *lp, "--set", f"output_dir={work}/baseline"]) == 0
        assert entry(["analyze-similarity", *lp, "--set", f"checkpoint={lp_ckpt}",
                      "--set", f"output_dir={work}/sim"]) == 0
        with contextlib.redirect_stdout(eval_out):
            assert entry(["eval", *lp, "--set", f"checkpoint={lp_ckpt}",
                          "--set", "branch=M1"]) == 0
    digests = {}
    for name in FILES:
        with open(os.path.join(work, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    digests["eval M1 stdout"] = hashlib.sha256(eval_out.getvalue().encode()).hexdigest()
    return digests


def run_recipe(work: str) -> tuple:
    """(context, digests) from a fresh process with one BLAS thread."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **{var: "1" for var in BLAS_ENV},
           "PYTHONPATH": os.path.join(ROOT, "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, __file__, work], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    return found["context"], found["digests"]


def test_the_recipe_gives_the_committed_bytes(tmp_path):
    key, digests = run_recipe(str(tmp_path))
    with open(TABLE) as fh:
        table = json.load(fh)
    if key not in table:
        pytest.skip(f"no digest entry for {key}")
    assert digests == table[key], f"bytes moved under {key}"


def main(argv) -> int:
    if argv == ["--write"]:
        with tempfile.TemporaryDirectory() as work:
            key, digests = run_recipe(work)
        table = {}
        if os.path.exists(TABLE):
            with open(TABLE) as fh:
                table = json.load(fh)
        table[key] = digests
        with open(TABLE, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{key}: {len(digests)} digests -> {TABLE}")
    else:
        [work] = argv
        print(json.dumps({"context": context(), "digests": recipe(work)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
