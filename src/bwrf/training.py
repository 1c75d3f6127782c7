"""Optimizer, learning-rate schedule, evaluation, and the epoch loop.

SGD with momentum: buf <- m*buf + (grad + wd*param); param <- param - lr*buf.
Weight decay is never applied to batchnorm parameters or quantizer scales,
and scales are re-clamped positive after every step. The schedule divides
the base learning rate by a fixed factor at each passed milestone. The
epoch loop stops at the first non-finite loss or quantizer scale.
Evaluation is two tape-free walks: ``model_pass`` scores one model,
``evaluate_branches`` Q and every graft M_k off one LP pass. Both count hits
with ``graft.hit_counts``, the top-1/top-5 rule train_acc_Q also reads.
"""

from __future__ import annotations

import math

import numpy as np

from bwrf import tensor as T
from bwrf.config import loss_switches_off
from bwrf.data import Split, iter_batches
from bwrf.graft import hit_counts, train_step
from bwrf.quantizer import SCALE_FLOOR
from bwrf.tensor import Tensor


class NumericsError(ArithmeticError):
    """Training produced a non-finite loss or quantizer scale."""


class SGD:
    """Momentum SGD over a model's parameter groups.

    Scale parameters (names ending in .scale) optionally use a multiplied
    learning rate and are clamped to stay positive after each update.
    """

    def __init__(self, param_groups, lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0, scale_lr_mult: float = 1.0):
        self.groups = list(param_groups)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.scale_lr_mult = float(scale_lr_mult)
        self.buffers = {}
        self.steps = 0

    def step(self):
        for name, p, no_decay in self.groups:
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and not no_decay:
                g = g + np.float32(self.weight_decay) * p.data
            buf = self.buffers.get(name)
            if buf is None:
                buf = np.zeros_like(p.data)
                self.buffers[name] = buf
            buf *= np.float32(self.momentum)
            buf += g
            is_scale = name.endswith(".scale")
            lr = np.float32(self.lr * (self.scale_lr_mult if is_scale else 1.0))
            p.data -= lr * buf
            if is_scale:
                np.maximum(p.data, np.float32(SCALE_FLOOR), out=p.data)
        self.steps += 1


def lr_at(epoch: int, cfg) -> float:
    """cfg.lr times cfg.lr_decay^(number of cfg.milestones at or before this epoch)."""
    passed = sum(1 for m in cfg.milestones if m <= epoch)
    return cfg.lr * cfg.lr_decay ** passed


# -- evaluation --------------------------------------------------------------------


def model_pass(model, split: Split, batch_size: int, n_rows: int = 0) -> tuple:
    """((top-1, top-5) percentages of one model, per leading batch its block
    features of the rows among the first n_rows images), from one tape-free
    eval-mode walk of the split in order."""
    if len(split) == 0:
        raise ValueError("cannot evaluate on an empty split")
    model.eval()
    hit1 = hit5 = 0
    leading = []
    with T.no_grad():
        for images, labels in iter_batches(split, batch_size):
            features, logits = model.forward_collect(Tensor(images))
            if len(leading) * batch_size < n_rows:
                leading.append([f.data[:n_rows - len(leading) * batch_size] for f in features])
            h1, h5 = hit_counts(logits.data, labels)
            hit1, hit5 = hit1 + h1, hit5 + h5
    n = len(split)
    return (100.0 * hit1 / n, 100.0 * hit5 / n), leading


def evaluate_branches(lp, fp, split: Split, batch_size: int, leading=()) -> dict:
    """acc_* and top5_* of Q and every M{k} from one tape-free shared-prefix pass.

    Per batch the LP forward and each graft's first frozen block
    h_k = F_{k+1}(x^Q_k) run once; the rest of the FP suffix on h_k gives M_k.
    ``leading`` is the teacher's leading block features from
    ``model_pass(fp, ...)`` over the same split and batch size; the rows they
    cover add the per-sample means cos_b{i} = cos(x^Q_i, x^F_i) and
    cos_g{k} = cos(h_k, x^F_{k+1}), read off row slices of the eval batches.
    """
    lp.eval()
    hits, cos = {}, {}
    with T.no_grad():
        for j, (images, labels) in enumerate(iter_batches(split, batch_size)):
            f_lp, y_q = lp.forward_collect(Tensor(images))
            grafts = [fp.blocks[k](f_lp[k - 1], False) for k in range(1, lp.n_blocks)]
            branches = [("Q", y_q)] + [(f"M{k}", fp.forward_from_block(h, k + 1))
                                       for k, h in enumerate(grafts, start=1)]
            for name, logits in branches:
                for key, h in zip((f"acc_{name}", f"top5_{name}"), hit_counts(logits.data, labels)):
                    hits[key] = hits.get(key, 0) + h
            if j < len(leading):
                pairs = [(f"cos_b{i}", f, leading[j][i - 1]) for i, f in enumerate(f_lp, 1)]
                pairs += [(f"cos_g{k}", h, leading[j][k]) for k, h in enumerate(grafts, 1)]
                for key, f, ref in pairs:
                    cos[key] = cos.get(key, 0.0) + _cos_rows(f.data[:len(ref)], ref) * len(ref)
    n_rows = sum(len(batch[0]) for batch in leading)
    return {**{key: 100.0 * h / len(split) for key, h in hits.items()},
            **{key: v / n_rows for key, v in cos.items()}}


def cosine_similarities(lp, fp, split: Split, n_samples: int = 1024,
                        batch_size: int = 256) -> dict:
    """The cos_* keys of ``evaluate_branches`` over the first n_samples images.

    It walks the whole leading eval batches that hold those rows, as the
    training log's audit does, so both read the same batches and the same
    cosines whatever the BLAS.
    """
    rows = math.ceil(min(n_samples, len(split)) / batch_size) * batch_size
    sub = Split(split.images[:rows], split.labels[:rows])
    out = evaluate_branches(lp, fp, sub, batch_size, model_pass(fp, sub, batch_size, n_samples)[1])
    return {key: v for key, v in out.items() if key.startswith("cos_")}


def _cos_rows(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cosine similarity between per-sample flattened feature rows."""
    af = a.reshape(len(a), -1).astype(np.float64)
    bf = b.reshape(len(b), -1).astype(np.float64)
    num = (af * bf).sum(axis=1)
    den = np.linalg.norm(af, axis=1) * np.linalg.norm(bf, axis=1)
    den = np.where(den == 0, 1.0, den)
    return float((num / den).mean())


# -- the epoch loop --------------------------------------------------------------------


def train_fp(model, train_split: Split, test_split: Split, cfg, on_epoch=None) -> list:
    """Plain cross-entropy training of the full-precision model: the grafted
    step with no counterpart and every loss term off.

    Returns one row per epoch: epoch, lr, loss, train_acc, test_acc. The
    caller follows best test accuracy for checkpoint selection.
    """
    def epoch_row(epoch, sums):
        return {"loss": float(np.mean(sums["loss_total"])),
                "train_acc": float(np.mean(sums["train_acc_Q"])),
                "test_acc": model_pass(model, test_split, cfg.eval_batch_size)[0][0]}

    return _train(model, None, train_split, loss_switches_off(cfg), epoch_row, on_epoch)


def train_bwrf(lp, fp, train_split: Split, test_split: Split, cfg, on_epoch=None) -> list:
    """The grafted training loop under cfg's loss settings (also the baseline
    when all four switches are off).

    Emits one row per epoch with train losses, per-branch test top-1 (acc_*)
    and top-5 (top5_*), and optional cosine metrics. The frozen FP model is
    audited by checksum every epoch, and any drift raises; that audit lets
    its ``model_pass`` run once, before the first epoch, for F's scores
    and features. Each epoch then walks the test split once with
    ``evaluate_branches``.
    """
    if not fp.frozen:
        raise ValueError("the full-precision counterpart must be frozen")
    fp_checksum = fp.checksum()
    (acc_f, top5_f), leading = model_pass(fp, test_split, cfg.eval_batch_size,
                                          cfg.cos_samples if cfg.cos_every else 0)

    def epoch_row(epoch, sums):
        if fp.checksum() != fp_checksum:
            raise RuntimeError(f"frozen model drifted during epoch {epoch}")
        audit = cfg.cos_every and (epoch in (1, cfg.epochs) or epoch % cfg.cos_every == 0)
        scores = evaluate_branches(lp, fp, test_split, cfg.eval_batch_size,
                                   leading if audit else ())
        return {**{k: float(np.mean(v)) for k, v in sums.items()}, **scores,
                "acc_F": acc_f, "top5_F": top5_f}

    return _train(lp, fp, train_split, cfg, epoch_row, on_epoch)


def _train(model, fp, train_split: Split, cfg, epoch_row, on_epoch) -> list:
    """Run cfg.epochs of train_step over the shuffled split; each epoch's row is
    epoch, lr, then epoch_row(epoch, per-step metric lists).

    After every step the loss and each quantizer scale (after its SGD update)
    must be finite, else NumericsError names the epoch, the step and the
    tensor, before that epoch's row exists or ``on_epoch`` can save it.
    """
    opt = SGD(model.param_groups(), lr=cfg.lr, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay, scale_lr_mult=cfg.scale_lr_mult)
    scales = [(name, p) for name, p, _ in opt.groups if name.endswith(".scale")]
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for epoch in range(1, cfg.epochs + 1):
        opt.lr = lr_at(epoch - 1, cfg)
        model.train()
        sums = {"loss_total": [], "loss_target": [], "loss_distill": [], "train_acc_Q": []}
        batches = iter_batches(train_split, cfg.batch_size, rng, augment=cfg.augment)
        for step, batch in enumerate(batches, start=1):
            metrics = train_step(model, fp, batch, cfg, opt)
            values = [("loss_total", metrics["loss_total"])]
            values += [(name, p.item()) for name, p in scales]
            for name, value in values:
                if not math.isfinite(value):
                    raise NumericsError(f"{name} is {value} at epoch {epoch}, step {step}")
            for key in sums:
                sums[key].append(metrics[key])
        row = {"epoch": epoch, "lr": opt.lr, **epoch_row(epoch, sums)}
        rows.append(row)
        if on_epoch:
            on_epoch(row, model)
    return rows
