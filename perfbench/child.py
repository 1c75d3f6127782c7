"""Run one `bwrf` command in this fresh process and write what it measured.

    python3 perfbench/child.py RESULT.json TRACE SPANS.json -- <bwrf arguments>

The command runs through `bwrf.cli.entry`, exactly as the console script
does. With TRACE 0 only train_step and evaluate_branches are timed (one
clock read each side of a call that takes seconds); with TRACE 1 the span
tracer is installed as well and its spans are written to SPANS.json once
the command has finished. The result file holds the exit code, per-step
time, images and loss, per-eval time and images, the peak resident memory
of this process and the BLAS threads it ran with.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def time_phases(training, steps: list, evals: list):
    """Time every train_step and evaluate_branches call; keep each step's loss."""
    train_step, evaluate_branches = training.train_step, training.evaluate_branches

    @functools.wraps(train_step)
    def timed_step(lp, fp, batch, w, optimizer):
        t0 = time.perf_counter()
        metrics = train_step(lp, fp, batch, w, optimizer)
        loss = float(metrics["loss_total"])
        steps.append({"s": time.perf_counter() - t0, "n": len(batch[1]),
                      "loss": loss.hex()})
        return metrics

    @functools.wraps(evaluate_branches)
    def timed_eval(lp, fp, split, *args, **kwargs):
        t0 = time.perf_counter()
        out = evaluate_branches(lp, fp, split, *args, **kwargs)
        evals.append({"s": time.perf_counter() - t0, "n": len(split)})
        return out

    training.train_step = timed_step
    training.evaluate_branches = timed_eval


def main(argv) -> int:
    result_path, trace, spans_path = argv[0], argv[1] == "1", argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE SPANS.json -- <bwrf arguments>")
    from bwrf import cli, training

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    steps, evals = [], []
    time_phases(training, steps, evals)
    rc = cli.entry(argv[4:])
    result = {
        "rc": rc,
        "steps": steps,
        "evals": evals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
