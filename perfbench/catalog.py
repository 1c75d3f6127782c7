"""What the benchmark runs and what it reports.

Every workload is one closed loop with a single client: the benchmark starts
one `bwrf` command, waits for it to finish, and starts the next. Each entry
records why the workload exists; every metric records which end-to-end
metric it should move and on which workload, written down before any
optimisation is measured against it.
"""

from __future__ import annotations

from dataclasses import dataclass

ARCH = "resnet20"
BITS = 4
TRAIN_BATCH = 128
EVAL_BATCH = 256
N_BLOCKS = 3  # every resnet<6u+2> has three stages
# Train batches per command of graft-train and qat-train: the first is the
# warm-up step, which the step figures leave out, and the rest are timed.
TRAIN_STEPS = 2


@dataclass(frozen=True)
class Workload:
    command: str      # bwrf subcommand
    n_train: int      # train images in the synthetic corpus
    n_test: int       # test images in the synthetic corpus
    epochs: int
    cos_every: int    # 0 = cosine audit off
    cos_samples: int
    why: str


WORKLOADS = {
    "graft-train": Workload(
        "train-bwrf", n_train=TRAIN_STEPS * TRAIN_BATCH, n_test=128, epochs=1, cos_every=0,
        cos_samples=64,
        why="train-bwrf, all four switches, every graft: the paper's path and the only one "
            "running the FP forward, both graft suffixes and the distillation terms"),
    "qat-train": Workload(
        "train-baseline", n_train=TRAIN_STEPS * TRAIN_BATCH, n_test=128, epochs=1, cos_every=0,
        cos_samples=64,
        why="train-baseline on the same data and sizes: graft and distillation do no work "
            "and the quantizer's share is highest, so a graft-only change must read flat"),
    "branch-eval": Workload(
        "train-bwrf", n_train=16, n_test=128, epochs=3, cos_every=1, cos_samples=64,
        why="train-bwrf with one 16-image step per epoch, three epochs, the eval split "
            "and the cosine audit each epoch: taped forward-only eval dominates and sets RSS"),
}

# Tiny mode keeps every code path of a workload but shrinks it to seconds:
# resnet8 and a couple of steps. The benchmark's own tests run it.
TINY = {"arch": "resnet8", "batch_size": 16, "eval_batch_size": 16,
        "n_train": 32, "n_test": 16, "cos_samples": 16}


def run_config(wl: Workload, seed: int, data_dir: str, teacher: str, tiny: bool) -> dict:
    """The `key = value` config a workload's command runs with."""
    cfg = {
        "arch": TINY["arch"] if tiny else ARCH,
        "bits": BITS,
        "grad_scale_enabled": "true",
        "alpha": "1.0, 1.0",
        "temperature": 1.0,
        "use_mp_targets": "true",
        "use_fp_kd": "true",
        "use_mp_kd": "true",
        "use_avg_labels": "true",
        "mp_branches": "all",
        "data_format": "cifar10",
        "data_dir": data_dir,
        "subset_fraction": 1.0,
        "augment": "true",
        "epochs": wl.epochs,
        "batch_size": TINY["batch_size"] if tiny else TRAIN_BATCH,
        "eval_batch_size": TINY["eval_batch_size"] if tiny else EVAL_BATCH,
        "lr": 0.04,
        "momentum": 0.9,
        "weight_decay": 0.0001,
        "scale_lr_mult": 1.0,
        "milestones": "",
        "lr_decay": 0.1,
        "cos_every": wl.cos_every,
        "cos_samples": TINY["cos_samples"] if tiny else wl.cos_samples,
        "seed": seed,
        "fp_checkpoint": teacher,
    }
    return cfg


def corpus_size(wl: Workload, tiny: bool) -> tuple:
    if tiny:
        return min(wl.n_train, TINY["n_train"]), TINY["n_test"]
    return wl.n_train, wl.n_test


def log_columns(cos_every: int) -> tuple:
    """The fixed `train_log.csv` header of a student run on a 3-stage model."""
    cols = ["epoch", "lr", "loss_total", "loss_target", "loss_distill", "train_acc_Q", "acc_Q"]
    cols += [f"acc_M{k}" for k in range(1, N_BLOCKS)]
    cols.append("acc_F")
    if cos_every:
        cols += [f"cos_b{i}" for i in range(1, N_BLOCKS + 1)]
        cols += [f"cos_g{i}" for i in range(1, N_BLOCKS)]
    return tuple(cols)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    moves: str = ""   # end-to-end metric(s) a change to this layer should move
    on: str = ""      # workload(s) where it should move, and where it must not
    bound: float = 0.0


ALL = "graft-train, qat-train, branch-eval"

# failed_ratio is printed with the others but is not listed in BENCHMARK.json:
# it is 0 on a healthy run, and the result line already carries the failed
# and attempted counts it is made of.
END_TO_END = [
    Metric("train_img_per_s", "img/s", "higher",
           "median over timed train_step calls of images per second", bound=0.25),
    Metric("step_p50_s", "s", "lower",
           "median wall time of one train_step, over every step of the run but each "
           "command's warm-up step", bound=0.25),
    Metric("eval_img_per_s", "img/s", "higher",
           "median over evaluate_branches calls (Q, every M_k, F) of test images per second",
           bound=0.25),
    Metric("run_s", "s", "lower",
           "median wall time of one whole command in a fresh process", bound=0.25),
    Metric("setup_s", "s", "lower",
           "median time to write the corpus and the teacher checkpoint", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "median over commands of the peak resident memory of the command's process",
           bound=0.1),
]

_CONV_BWD = ("step_p50_s, train_img_per_s",
             "graft-train and qat-train; a small share of branch-eval's run_s")
_STEP_ALL = ("step_p50_s, train_img_per_s", "graft-train and qat-train")
_STEP_FWD = ("step_p50_s, train_img_per_s", ALL)
_EVAL = ("eval_img_per_s, run_s", "branch-eval most; all three run the epoch-end eval")

PER_LAYER = [
    # -- per training step, spans inside train_step ------------------------------------
    Metric("tensor.conv2d.fwd_s", "s/step", "lower", "conv2d forward", *_STEP_ALL),
    *[Metric(f"tensor.conv2d.fwd_s.c{c}", "s/step", "lower",
             f"conv2d forward, convs with {c} output channels", *_STEP_ALL)
      for c in (16, 32, 64)],
    Metric("tensor.conv2d.bwd_s", "s/step", "lower", "conv2d backward", *_CONV_BWD),
    *[Metric(f"tensor.conv2d.bwd_s.c{c}", "s/step", "lower",
             f"conv2d backward, convs with {c} output channels", *_CONV_BWD)
      for c in (16, 32, 64)],
    Metric("tensor.conv2d.calls", "count/step", "lower", "conv2d calls (exact)", *_STEP_ALL),
    *[Metric(f"tensor.conv2d.calls.c{c}", "count/step", "lower",
             f"conv2d calls with {c} output channels (exact)", *_STEP_ALL)
      for c in (16, 32, 64)],
    Metric("tensor.conv2d.gflop_per_s", "GFLOP/s", "higher",
           "computed conv FLOPs (fwd+bwd) over conv fwd+bwd time", *_STEP_ALL),
    *[Metric(f"tensor.conv2d.computed_gflop.c{c}", "GFLOP/step", "lower",
             f"conv FLOPs fwd+bwd at {c} output channels, computed from shapes", *_STEP_ALL)
      for c in (16, 32, 64)],
    *[Metric(f"tensor.conv2d.computed_mb.c{c}", "MB/step", "lower",
             f"conv operand+result bytes fwd+bwd at {c} output channels, computed from shapes",
             *_STEP_ALL)
      for c in (16, 32, 64)],
    Metric("tensor.batchnorm2d.fwd_s", "s/step", "lower", "batchnorm forward", *_STEP_FWD),
    Metric("tensor.batchnorm2d.bwd_s", "s/step", "lower", "batchnorm backward",
           "step_p50_s, train_img_per_s", "graft-train and qat-train"),
    Metric("tensor.elementwise.fwd_s", "s/step", "lower", "relu, add, mul, affine forward",
           *_STEP_FWD),
    Metric("tensor.elementwise.bwd_s", "s/step", "lower", "relu, add, mul, affine backward",
           *_STEP_ALL),
    Metric("tensor.head.fwd_s", "s/step", "lower",
           "linear, pool, log-softmax, nll, sum, mean forward", *_STEP_FWD),
    Metric("tensor.head.bwd_s", "s/step", "lower",
           "linear, pool, log-softmax, nll, sum, mean backward", *_STEP_ALL),
    Metric("tensor.backward.self_s", "s/step", "lower",
           "the tape walk: topological sort and gradient accumulation", *_STEP_ALL),
    Metric("tensor.tape_nodes", "count/step", "lower", "nodes on the backward tape (exact)",
           *_STEP_ALL),
    Metric("quantizer.quantize.fwd_s", "s/step", "lower", "fake-quantize forward",
           "train_img_per_s", "qat-train most"),
    Metric("quantizer.quantize.bwd_s", "s/step", "lower", "fake-quantize backward",
           "train_img_per_s", "qat-train most"),
    Metric("quantizer.quantize.calls", "count/step", "lower", "quantize calls (exact)",
           "train_img_per_s", "qat-train most"),
    Metric("network.lp_forward_s", "s/step", "lower", "LP model forward", "train_img_per_s", ALL),
    Metric("network.fp_forward_s", "s/step", "lower",
           "FP model forward: teacher pass and graft suffixes", "train_img_per_s",
           "graft-train and branch-eval; 0 on qat-train"),
    Metric("network.block_calls", "count/step", "lower", "block_call_count() of LP+FP (exact)",
           "train_img_per_s", "graft-train and branch-eval; 3 on qat-train"),
    Metric("graft.graft_forward_s", "s/step", "lower", "graft suffix forwards",
           "train_img_per_s", "graft-train only"),
    Metric("graft.loss_s", "s/step", "lower", "composite loss: targets and distillation",
           "train_img_per_s", "graft-train only"),
    Metric("training.sgd_step_s", "s/step", "lower", "SGD update", "run_s", ALL),
    Metric("data.batch_s", "s/step", "lower", "train batch gather and augment", "run_s",
           ALL + "; predicted under 1%"),
    # -- per eval image, spans inside evaluate_branches ------------------------------------
    Metric("training.evaluate_branches_s", "s/img", "lower",
           "evaluate_branches (Q, every M_k, F)", "eval_img_per_s, run_s, peak_rss_mb",
           "branch-eval"),
    Metric("eval.tensor.conv2d.fwd_s", "s/img", "lower", "conv2d forward in eval", *_EVAL),
    *[Metric(f"eval.tensor.conv2d.fwd_s.c{c}", "s/img", "lower",
             f"conv2d forward in eval, {c} output channels", *_EVAL)
      for c in (16, 32, 64)],
    Metric("eval.tensor.batchnorm2d.fwd_s", "s/img", "lower", "batchnorm forward in eval", *_EVAL),
    Metric("eval.tensor.elementwise.fwd_s", "s/img", "lower", "elementwise forward in eval",
           *_EVAL),
    Metric("eval.tensor.head.fwd_s", "s/img", "lower", "head forward in eval", *_EVAL),
    Metric("eval.quantizer.quantize.fwd_s", "s/img", "lower", "quantize forward in eval", *_EVAL),
    Metric("eval.network.lp_forward_s", "s/img", "lower", "LP forward in eval", *_EVAL),
    Metric("eval.network.fp_forward_s", "s/img", "lower",
           "FP forward in eval: F and the M_k suffixes", *_EVAL),
    # -- per cosine image ---------------------------------------------------------------
    Metric("training.cosine_s", "s/img", "lower", "cosine audit", "run_s, peak_rss_mb",
           "branch-eval only; 0 elsewhere"),
    # -- per command --------------------------------------------------------------------
    Metric("training.fp_audit_s", "s/run", "lower", "frozen-teacher checksums", "run_s",
           "branch-eval most"),
    Metric("data.load_s", "s/run", "lower", "reading and normalizing the corpus", "run_s",
           ALL + "; predicted under 1%"),
    Metric("checkpoint.save_s", "s/run", "lower", "writing the LP checkpoint", "run_s",
           ALL + "; predicted under 1%"),
    Metric("checkpoint.load_s", "s/run", "lower", "reading the teacher checkpoint", "run_s",
           ALL + "; predicted under 1%"),
    # -- trace accounting ---------------------------------------------------------------
    Metric("trace.overhead_s", "s", "lower",
           "median traced run_s minus median untraced run_s", "run_s (tracing off costs 0)",
           ALL),
    Metric("trace.step_coverage", "share", "higher",
           "share of train_step wall time inside op, quantize, tape-walk and SGD spans",
           "step_p50_s", ALL),
    Metric("trace.unattributed_s", "s/step", "lower",
           "train_step wall time outside those spans (Python glue)", "step_p50_s", ALL),
    Metric("trace.spans", "count/run", "lower", "spans recorded per traced command",
           "trace.overhead_s", ALL),
]
