#!/usr/bin/env python3
"""Desk-scale benchmark of the bwrf trainer.

    python3 perfbench/run.py [--workload graft-train|qat-train|branch-eval|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the root of a checkout. For each workload the benchmark

1. sets up seven times from --seed, each time writing a synthetic
   CIFAR-format corpus and a full-precision teacher checkpoint, and reports
   the median as setup_s (all seven must be byte-identical);
2. runs the workload's `bwrf` command in a fresh child process, one child at
   a time, until the next command would end after --seconds (at least two
   commands, so the fixed-seed final loss can be compared bit for bit); the
   first train step of each command is a warm-up, left out of the step figures;
3. checks every command: exit code 0, a finite loss at every step, the
   same final loss as the first command, the teacher checkpoint's bytes
   unchanged, and the fixed `train_log.csv` columns. A failed check makes
   the exit code 1.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced commands and reports the per-layer metrics
from the traced ones, the tracing overhead and the span coverage. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from catalog import (END_TO_END, PER_LAYER, WORKLOADS, corpus_size,  # noqa: E402
                     log_columns, run_config)

SETUP_REPEATS = 7
MIN_COMMANDS = 2
# The first train_step of a process calibrates the lazy activation scales,
# allocates the momentum buffers and first touches every new array; users pay
# it once per run, not per step, so it stays out of the step figures.
WARMUP_STEPS = 1
RUN_LIMIT_S = 170.0       # every run must end within 180 s
CALIBRATION_IMAGES = 32   # batch that sets the teacher's batchnorm statistics
# The trainer's time is mostly single-threaded numpy; only its GEMMs use BLAS
# threads. On two shared x86-64 cores a second BLAS thread made a grafted step
# about 8% faster but doubled the run-to-run spread, so every process uses one.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONV_STAGES = (16, 32, 64)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def configure_environment():
    """BLAS threads and the checkout's sources, for this process and its children.
    Runs before numpy is first imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git clone."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_context() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(), "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "commit": git_commit()}


# -- set-up --------------------------------------------------------------------------


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def write_teacher(path: str, data_dir: str, arch: str, seed: int):
    """A full-precision model drawn from the seed whose batchnorm statistics are
    set from one batch of its corpus, saved as a v1 checkpoint."""
    from bwrf.checkpoint import save_model
    from bwrf.config import CIFAR10_MEAN, CIFAR10_STD
    from bwrf.data import load_cifar10
    from bwrf.network import BlockSpec, build_model
    from bwrf.tensor import Tensor

    fp = build_model(BlockSpec.from_arch(arch), "fp", seed=seed)
    norms = [fp.stem_bn] + [bn for block in fp.blocks for unit in block.units
                            for bn in (unit.bn1, unit.bn2, unit.down_bn) if bn is not None]
    for bn in norms:
        bn.momentum = 1.0  # running statistics become this batch's statistics
    train, _ = load_cifar10(data_dir, CIFAR10_MEAN, CIFAR10_STD)
    fp.train()
    fp(Tensor(train.images[:CALIBRATION_IMAGES]))
    save_model(path, fp, arch)


def set_up(work: str, name: str, seed: int, tiny: bool) -> tuple:
    """Write the corpus, teacher and config into an empty directory.

    Returns (seconds for corpus plus teacher, digest of both, config path)."""
    from bwrf.synthetic import write_synthetic_cifar

    wl = WORKLOADS[name]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    data_dir = os.path.join(work, "data")
    teacher = os.path.join(work, "teacher.ckpt")
    cfg = run_config(wl, seed, data_dir, teacher, tiny)
    n_train, n_test = corpus_size(wl, tiny)
    t0 = time.perf_counter()
    write_synthetic_cifar(data_dir, n_train=n_train, n_test=n_test, seed=seed)
    write_teacher(teacher, data_dir, cfg["arch"], seed)
    seconds = time.perf_counter() - t0
    files = sorted(os.path.join(data_dir, f) for f in os.listdir(data_dir)) + [teacher]
    cfg_path = os.path.join(work, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())
    return seconds, digest(files), cfg_path


# -- commands ------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_command(argv: list, trace: bool, work: str, index: int, timeout: float) -> dict:
    """One bwrf command in a fresh child; returns its result plus wall time."""
    result_path = os.path.join(work, f"result{index}.json")
    spans_path = os.path.join(OUT, f"spans-{os.path.basename(work)}-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path,
           "1" if trace else "0", spans_path, "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
        output += "\n(killed: time limit)"
    wall = time.perf_counter() - t0
    result = {"rc": proc.returncode, "steps": [], "evals": []}
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    result.update(wall=wall, traced=trace, output=output)
    return result


def check_command(res: dict, checks: Checks, out_dir: str, columns: tuple,
                  teacher: str, teacher_digest: str, first_loss):
    checks.check(res["rc"] == 0, f"exit code {res['rc']}: {res['output'][-2000:]}")
    for i, step in enumerate(res["steps"]):
        checks.check(math.isfinite(float.fromhex(step["loss"])), f"non-finite loss at step {i}")
    checks.check(len(res["steps"]) > WARMUP_STEPS, "no train step ran after the warm-up step")
    checks.check(digest([teacher]) == teacher_digest, "teacher checkpoint bytes changed")
    log = os.path.join(out_dir, "train_log.csv")
    header = ()
    if os.path.exists(log):
        with open(log, newline="", encoding="utf-8") as fh:
            header = tuple(next(csv.reader(fh), ()))
    checks.check(header == columns, f"train_log.csv columns {header} != {columns}")
    if first_loss is not None and res["steps"]:
        checks.check(res["steps"][-1]["loss"] == first_loss,
                     f"final loss {res['steps'][-1]['loss']} != first run's {first_loss}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    wl = WORKLOADS[name]
    started = time.perf_counter()
    checks = Checks()
    work = os.path.join(WORK, f"{name}-s{seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        setups, digests = [], []
        for _ in range(SETUP_REPEATS):
            s, d, cfg_path = set_up(work, name, seed, tiny)
            setups.append(s)
            digests.append(d)
        for d in digests[1:]:
            checks.check(d == digests[0], "set-up is not byte-identical for one seed")
        teacher = os.path.join(work, "teacher.ckpt")
        teacher_digest = digest([teacher])
        columns = log_columns(wl.cos_every)

        commands = []
        t0 = time.perf_counter()
        while True:
            index = len(commands)
            out_dir = os.path.join(work, f"out{index}")
            argv = [wl.command, "--config", cfg_path, "--set", f"output_dir={out_dir}"]
            left = RUN_LIMIT_S - (time.perf_counter() - started)
            res = run_command(argv, trace and index % 2 == 1, work, index, left)
            first = commands[0]["steps"][-1]["loss"] if commands and commands[0]["steps"] else None
            check_command(res, checks, out_dir, columns, teacher, teacher_digest, first)
            commands.append(res)
            if res["rc"] != 0:
                break
            typical = statistics.median(c["wall"] for c in commands)
            now = time.perf_counter()
            if len(commands) >= MIN_COMMANDS and now - t0 + typical > seconds:
                break
            if now - started + typical > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"name": name, "setups": setups, "commands": commands, "checks": checks}


# -- metrics ---------------------------------------------------------------------------


def end_to_end(run: dict) -> dict:
    plain = [c for c in run["commands"] if not c["traced"] and c["rc"] == 0]
    steps = [s for c in plain for s in c["steps"][WARMUP_STEPS:]]
    evals = [e for c in plain for e in c["evals"]]
    return {
        "train_img_per_s": statistics.median(s["n"] / s["s"] for s in steps) if steps else 0.0,
        "step_p50_s": statistics.median(s["s"] for s in steps) if steps else 0.0,
        "eval_img_per_s": statistics.median(e["n"] / e["s"] for e in evals) if evals else 0.0,
        "run_s": statistics.median(c["wall"] for c in plain) if plain else 0.0,
        "setup_s": statistics.median(run["setups"]),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain) if plain else 0.0,
    }


class Totals:
    """Seconds and exact counts summed over the traced commands of a run."""

    def __init__(self, traced: list):
        self.seconds, self.counts = {}, {}
        for c in traced:
            for key, v in c["trace"]["seconds"].items():
                self.seconds[key] = self.seconds.get(key, 0.0) + v
            for key, v in [*c["trace"]["counts"].items(), *c["trace"]["calls"].items()]:
                self.counts[key] = self.counts.get(key, 0.0) + v
        self.commands = len(traced)
        self.span_count = sum(c["trace"]["spans"] for c in traced)

    def s(self, key: str) -> float:
        return self.seconds.get(key, 0.0)

    def n(self, key: str) -> float:
        return self.counts.get(key, 0.0)


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def per_layer(run: dict) -> dict:
    traced = [c for c in run["commands"] if c["traced"] and c["rc"] == 0]
    plain = [c for c in run["commands"] if not c["traced"] and c["rc"] == 0]
    t = Totals(traced)
    steps = t.n("train/steps")
    eval_imgs = t.n("eval/images")
    stages = [f"c{c}" for c in CONV_STAGES]
    out = {}

    def train(name):
        return _per(t.s(f"train/{name}"), steps)

    def ev(name):
        return _per(t.s(f"eval/{name}"), eval_imgs)

    for d in ("fwd", "bwd"):
        for st in stages:
            out[f"tensor.conv2d.{d}_s.{st}"] = train(f"tensor.conv2d.{d}.{st}")
        out[f"tensor.conv2d.{d}_s"] = sum(out[f"tensor.conv2d.{d}_s.{st}"] for st in stages)
    for st in stages:
        out[f"tensor.conv2d.calls.{st}"] = _per(t.n(f"train/conv.calls.{st}"), steps)
        out[f"tensor.conv2d.computed_gflop.{st}"] = _per(t.n(f"train/conv.flop.{st}"),
                                                         steps) / 1e9
        out[f"tensor.conv2d.computed_mb.{st}"] = _per(t.n(f"train/conv.bytes.{st}"),
                                                      steps) / 1e6
    out["tensor.conv2d.calls"] = sum(out[f"tensor.conv2d.calls.{st}"] for st in stages)
    conv_s = out["tensor.conv2d.fwd_s"] + out["tensor.conv2d.bwd_s"]
    out["tensor.conv2d.gflop_per_s"] = _per(
        sum(out[f"tensor.conv2d.computed_gflop.{st}"] for st in stages), conv_s)
    for fam in ("batchnorm2d", "elementwise", "head"):
        for d in ("fwd", "bwd"):
            out[f"tensor.{fam}.{d}_s"] = train(f"tensor.{fam}.{d}")
    out["tensor.backward.self_s"] = train("tensor.backward.self")
    out["tensor.tape_nodes"] = _per(t.n("train/tape_nodes"), steps)
    out["quantizer.quantize.fwd_s"] = train("quantizer.quantize.fwd")
    out["quantizer.quantize.bwd_s"] = train("quantizer.quantize.bwd")
    out["quantizer.quantize.calls"] = _per(t.n("train/quantizer.quantize.fwd"), steps)
    out["network.lp_forward_s"] = train("network.lp_forward")
    out["network.fp_forward_s"] = train("network.fp_forward")
    out["network.block_calls"] = _per(t.n("train/block_calls"), steps)
    out["graft.graft_forward_s"] = train("graft.graft_forward")
    out["graft.loss_s"] = train("graft.loss")
    out["training.sgd_step_s"] = train("training.sgd_step")
    # train batches are drawn outside train_step, for the warm-up step too
    out["data.batch_s"] = _per(t.s("other/data.batch"), steps + t.n("warmup/steps"))

    out["training.evaluate_branches_s"] = _per(t.s("eval/training.evaluate_branches"), eval_imgs)
    for st in stages:
        out[f"eval.tensor.conv2d.fwd_s.{st}"] = ev(f"tensor.conv2d.fwd.{st}")
    out["eval.tensor.conv2d.fwd_s"] = sum(out[f"eval.tensor.conv2d.fwd_s.{st}"] for st in stages)
    for fam in ("batchnorm2d", "elementwise", "head"):
        out[f"eval.tensor.{fam}.fwd_s"] = ev(f"tensor.{fam}.fwd")
    out["eval.quantizer.quantize.fwd_s"] = ev("quantizer.quantize.fwd")
    out["eval.network.lp_forward_s"] = ev("network.lp_forward")
    out["eval.network.fp_forward_s"] = ev("network.fp_forward")
    out["training.cosine_s"] = _per(t.s("cos/training.cosine_similarities"),
                                    t.n("cos/images"))

    out["training.fp_audit_s"] = _per(t.s("other/training.fp_audit"), t.commands)
    out["data.load_s"] = _per(t.s("other/data.load"), t.commands)
    out["checkpoint.save_s"] = _per(t.s("other/checkpoint.save"), t.commands)
    out["checkpoint.load_s"] = _per(t.s("other/checkpoint.load"), t.commands)

    step_s = t.s("train/training.train_step")
    out["trace.overhead_s"] = (statistics.median(c["wall"] for c in traced)
                               - statistics.median(c["wall"] for c in plain)
                               if traced and plain else 0.0)
    out["trace.step_coverage"] = _per(t.s("train/leaf"), step_s)
    out["trace.unattributed_s"] = _per(step_s - t.s("train/leaf"), steps)
    out["trace.spans"] = _per(t.span_count, t.commands)
    return out


# -- output ------------------------------------------------------------------------------


def report(run: dict, trace: bool) -> dict:
    name = run["name"]
    checks = run["checks"]
    plain = [c for c in run["commands"] if not c["traced"]]
    n_steps = sum(len(c["steps"][WARMUP_STEPS:]) for c in plain)
    print(f"== {name}: {WORKLOADS[name].why}")
    print(f"   {len(run['commands'])} commands ({sum(c['traced'] for c in run['commands'])} "
          f"traced), {n_steps} untraced train steps after warm-up, "
          f"{len(run['setups'])} set-ups")
    for i, c in enumerate(run["commands"]):
        steps = " ".join(f"{s['s']:.3f}" for s in c["steps"])
        evals = " ".join(f"{e['s']:.3f}" for e in c["evals"])
        print(f"   command {i}{' traced' if c['traced'] else ''}: {c['wall']:.3f} s, "
              f"steps [{steps}] s, evals [{evals}] s, peak {c.get('peak_rss_mb', 0):.0f} MB, "
              f"BLAS threads {c.get('blas_threads')}")
    failed_ratio = len(checks.failures) / checks.attempted if checks.attempted else 1.0
    for f in checks.failures:
        print(f"   FAILED CHECK: {f}")
    if trace:
        metrics = per_layer(run)
        table = PER_LAYER
    else:
        metrics = end_to_end(run)
        table = END_TO_END
    for m in table:
        extra = f" (n={n_steps} steps)" if m.name == "step_p50_s" else ""
        moves = f"; moves {m.moves} on {m.on}" if m.moves else ""
        print(f"   {m.name:<38} {metrics[m.name]:>14.6g} {m.unit:<11} {m.what}{extra}{moves}")
    print(f"   {'failed_ratio':<38} {failed_ratio:>14.6g} {'-':<11}"
          f"  ({len(checks.failures)} of {checks.attempted} checks)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="resnet8 and a couple of steps: checks the harness, not speed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bwrf", "cli.py")):
        print(f"perfbench: no bwrf sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    configure_environment()

    print("context " + json.dumps(machine_context(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        values = report(run, bool(args.trace))
        table = PER_LAYER if args.trace else END_TO_END
        for m in table:
            key = m.name if len(names) == 1 else f"{name}.{m.name}"
            metrics[key] = {"value": values[m.name], "unit": m.unit}
        attempted += run["checks"].attempted
        failed += len(run["checks"].failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    # a failed check leaves the timings meaningless: a crashed command reads fast
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
