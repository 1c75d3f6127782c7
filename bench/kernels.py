"""Per-layer kernel table: forward and backward medians of the ops on the
training tape, at the resnet stage shapes.

    python3 bench/kernels.py --out BENCH_kernels.json [--src DIR] [--tiny]

Times `bwrf.tensor.conv2d`, `bwrf.quantizer.quantize_forward`, the two
in a chain, `bwrf.tensor.batchnorm2d` (train mode) and `bwrf.tensor.relu`
at 16x32^2, 32x16^2 and 64x8^2, batch 128, plus the two 3x3 stride-2
convs that open stages 2 and 3, the C = 3 stem conv and the two 1x1
stride-2 downsample convs. Every op runs taped with trainable parameters, as in a training
step; its backward is the node's own rule, called on a fixed upstream
gradient, accumulation into the inputs included, and freeing the arrays
the rule kept, which the walk drops once the rule has run (they were
freed at `del out`, outside the timed span, before the walk did that).
Each backward row also includes the copy of that gradient `backward(g)`
makes, and writes each first arrival in place, into the array the rule
returned.
Each conv also gets a `conv2d_input_grad` row
(weight frozen) and a `conv2d_weight_grad` row (input frozen), so the two
halves of its backward are timed apart. The stem's input takes a
gradient too, as in the LP stem, whose input quantizer's scale needs one.
The `batchnorm2d` backward rebuilds the normalised input (two passes)
before its gradients; the `relu` forward packs its mask into bits, which
its backward unpacks. The `quantize_conv` row is a taped 4-bit quantize feeding a 3x3
conv whose weight trains: its forward includes the quantize's code, its
backward the conv's rule, whose weight gradient writes each tap from that
code times the scale, then the quantize's rule, which rebuilds its
in-range mask. Each case runs once as a warm-up, then REPS times; the
table holds the median of each side.

The `bwrf` package is imported from --src (default: this checkout's src/),
so the same script measures two checkouts on one machine. The run is
stored in the --out file, next to any runs already there, under the
commit of the measured checkout, with -dirty appended when its files
differ from that commit, so an uncommitted change and its parent get
separate entries. The machine context (nproc, BLAS name, version and
threads, numpy, Python, commit) and the one-thread BLAS environment are
perfbench's own, plus `blas_core`: the kernel set OpenBLAS picked for this
CPU (`SkylakeX`, or `Haswell` under `OPENBLAS_CORETYPE=Haswell`), read from
numpy's bundled OpenBLAS, or null when numpy links another BLAS. --tiny
(batch 2, one repetition) only checks that the script runs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as perfbench  # noqa: E402

BATCH = 128
REPS = 9
STAGES = ((16, 32), (32, 16), (64, 8))  # (channels, spatial extent)
# (name, in channels, out channels, extent, kernel, stride, padding)
CONVS = tuple((f"c{c}x{e}", c, c, e, 3, 1, 1) for c, e in STAGES) + (
    ("c16to32s2", 16, 32, 32, 3, 2, 1),
    ("c32to64s2", 32, 64, 16, 3, 2, 1),
    ("stem", 3, 16, 32, 3, 1, 1),
    ("down1x1_16to32", 16, 32, 32, 1, 2, 0),
    ("down1x1_32to64", 32, 64, 16, 1, 2, 0),
)
# (op, input takes a gradient, weight takes a gradient)
CONV_OPS = (("conv2d", True, True), ("conv2d_input_grad", True, False),
            ("conv2d_weight_grad", False, True))


def git_commit(path: str) -> str:
    """HEAD of the checkout holding path, with -dirty if its files differ from it."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=path,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_core():
    """The kernel set of numpy's bundled OpenBLAS, e.g. 'SkylakeX'; None when
    numpy bundles no OpenBLAS. Opening the bundled library again returns the
    copy numpy has loaded."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if not libs:
        return None
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def cases(batch: int, rng):
    """(op, case, shape, run): run() does one forward and returns the output node
    and the inputs whose gradients its backward fills."""
    import numpy as np

    from bwrf import quantizer, tensor as T
    from bwrf.tensor import Tensor

    def draw(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    for op, x_grad, w_grad in CONV_OPS:
        for name, c, o, e, k, s, p in CONVS:
            x = Tensor(draw(batch, c, e, e), requires_grad=x_grad)
            w = Tensor(draw(o, c, k, k) * 0.1, requires_grad=w_grad)
            yield op, name, [batch, c, e, e, o, k, s, p], (x, w), \
                lambda x=x, w=w, s=s, p=p: T.conv2d(x, w, stride=s, padding=p)
    for c, e in STAGES:
        v = Tensor(np.maximum(draw(batch, c, e, e), 0), requires_grad=True)
        q = quantizer.Quantizer(4, signed=False)
        q.set_scale(quantizer.init_scale(v.data, q))
        yield "quantize_forward", f"c{c}x{e}", [batch, c, e, e], (v, q.scale), \
            lambda v=v, q=q: quantizer.quantize_forward(v, q)
    for c, e in STAGES:
        v = Tensor(np.maximum(draw(batch, c, e, e), 0), requires_grad=True)
        q = quantizer.Quantizer(4, signed=False)
        q.set_scale(quantizer.init_scale(v.data, q))
        w = Tensor(draw(c, c, 3, 3) * 0.1, requires_grad=True)
        yield "quantize_conv", f"c{c}x{e}", [batch, c, e, e, c, 3, 1, 1], (v, q.scale, w), \
            lambda v=v, q=q, w=w: T.conv2d(quantizer.quantize_forward(v, q), w, padding=1)
    for c, e in STAGES:
        x = Tensor(draw(batch, c, e, e), requires_grad=True)
        gamma = Tensor(np.ones(c, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(c, np.float32), requires_grad=True)
        stats = (np.zeros(c, np.float32), np.ones(c, np.float32))
        yield "batchnorm2d", f"c{c}x{e}", [batch, c, e, e], (x, gamma, beta), \
            lambda x=x, gamma=gamma, beta=beta, stats=stats: T.batchnorm2d(
                x, gamma, beta, *stats, training=True)
    for c, e in STAGES:
        x = Tensor(draw(batch, c, e, e), requires_grad=True)
        yield "relu", f"c{c}x{e}", [batch, c, e, e], (x,), lambda x=x: T.relu(x)


def measure(run, inputs, reps: int, rng) -> tuple:
    """Median forward and backward seconds over reps, after one warm-up."""
    fwd, bwd = [], []
    g = None
    for i in range(reps + 1):
        for t in inputs:
            t.grad = None
        t0 = time.perf_counter()
        out = run()
        t1 = time.perf_counter()
        if g is None:
            g = rng.standard_normal(out.shape).astype(out.data.dtype)
        out.backward(g)
        t2 = time.perf_counter()
        if i:
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        del out
    return statistics.median(fwd), statistics.median(bwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file the run is stored in")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree whose bwrf package is measured")
    parser.add_argument("--tiny", action="store_true", help="batch 2, one repetition")
    args = parser.parse_args(argv)
    perfbench.configure_environment()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import numpy as np

    batch, reps = (2, 1) if args.tiny else (BATCH, REPS)
    rng = np.random.default_rng(0)
    rows = []
    for op, case, shape, inputs, run in cases(batch, rng):
        fwd, bwd = measure(run, inputs, reps, rng)
        rows.append({"op": op, "case": case, "shape": shape,
                     "fwd_ms": round(fwd * 1e3, 3), "bwd_ms": round(bwd * 1e3, 3)})
        print(f"{op:18s} {case:15s} fwd {fwd * 1e3:9.3f} ms  bwd {bwd * 1e3:9.3f} ms")
    context = {**perfbench.machine_context(), "blas_core": blas_core(), "commit": git_commit(src)}
    table = {"schema": "bwrf-kernels/1", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            table = json.load(fh)
    table["runs"][context["commit"]] = {"context": context, "batch": batch, "reps": reps,
                                        "kernels": rows}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"{context['commit']}: {len(rows)} kernels -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
