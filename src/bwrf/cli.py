"""Command-line entry points.

Subcommands:

    train-fp             train the full-precision counterpart, keep the best
                         checkpoint by test accuracy
    train-bwrf           train a low-precision model against a frozen FP
                         checkpoint with the composite grafted objective
    train-baseline       the same loop with every graft/distill term off,
                         i.e. plain quantization-aware training
    eval                 top-1/top-5 of one branch (Q, F, or M<k>) on the
                         test split; M<k> reads the shared-prefix walk
    analyze-similarity   cosine alignment between LP and FP features

Every command takes --config FILE plus repeatable --set key=value
overrides, writes its resolved configuration next to its outputs, and
exits 0 on success, 2 on configuration errors, 3 on data errors, 4 on
checkpoint errors, and 5 when training meets a non-finite loss or
quantizer scale (the message names the epoch, the step and the tensor; a
checkpoint saved by an earlier epoch is left as it was).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from bwrf import training
from bwrf.checkpoint import CheckpointError, atomic_write, load_into_model, save_model
from bwrf.config import (ConfigError, RunConfig, block_spec, load_config, loss_switches_off,
                         resolved_text)
from bwrf.data import DataError, load_cifar10, load_idx_dir, subset
from bwrf.network import BlockSpec, build_model, init_lp_from_fp
from bwrf.training import NumericsError, model_pass, train_bwrf, train_fp

FP_COLUMNS = ("epoch", "lr", "loss", "train_acc", "test_acc")


def build_lp(cfg: RunConfig, spec: BlockSpec):
    return build_model(spec, "lp", bits=cfg.bits,
                       grad_scale_enabled=cfg.grad_scale_enabled, seed=cfg.seed)


def load_frozen_fp(cfg: RunConfig, spec: BlockSpec, path: str):
    fp = build_model(spec, "fp", seed=cfg.seed)
    load_into_model(path, fp, cfg.arch)
    return fp.freeze()


def load_splits(cfg: RunConfig):
    loader = load_cifar10 if cfg.data_format == "cifar10" else load_idx_dir
    train, test = loader(cfg.data_dir, cfg.normalize_mean, cfg.normalize_std)
    for name, split in (("train", train), ("test", test)):
        bad = split.labels[(split.labels < 0) | (split.labels >= cfg.num_classes)]
        if bad.size:
            raise DataError(f"{name} split has label {int(bad[0])} outside 0..{cfg.num_classes - 1}")
    if cfg.subset_fraction < 1.0:
        train = subset(train, cfg.subset_fraction, cfg.subset_seed)
        test = subset(test, cfg.subset_fraction, cfg.subset_seed)
    return train, test


def bwrf_columns(cfg: RunConfig, n_blocks: int) -> tuple:
    cols = ["epoch", "lr", "loss_total", "loss_target", "loss_distill",
            "train_acc_Q", "acc_Q"]
    cols += [f"acc_M{k}" for k in range(1, n_blocks)]
    cols.append("acc_F")
    if cfg.cos_every:
        cols += [f"cos_b{i}" for i in range(1, n_blocks + 1)]
        cols += [f"cos_g{i}" for i in range(1, n_blocks)]
    return tuple(cols)


def write_csv(path: str, rows: list, columns: tuple):
    def cell(v):
        if v is None:
            return ""
        return repr(v) if isinstance(v, float) else str(v)

    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell(row.get(c)) for c in columns])


def prepare_output_dir(cfg: RunConfig) -> str:
    with atomic_write(os.path.join(cfg.output_dir, "resolved.cfg"), "w", encoding="utf-8") as fh:
        fh.write(resolved_text(cfg))
    return cfg.output_dir


# -- commands -----------------------------------------------------------------------


def cmd_train_fp(args) -> int:
    cfg = load_config(args.config, args.set)
    train, test = load_splits(cfg)
    out_dir = prepare_output_dir(cfg)
    model = build_model(block_spec(cfg), "fp", seed=cfg.seed)
    ckpt_path = cfg.checkpoint or os.path.join(out_dir, "fp.ckpt")
    best = {"acc": -1.0, "epoch": 0}

    def keep_best(row, m):
        if row["test_acc"] > best["acc"]:
            best.update(acc=row["test_acc"], epoch=row["epoch"])
            save_model(ckpt_path, m, cfg.arch)

    rows = train_fp(model, train, test, cfg, on_epoch=keep_best)
    write_csv(os.path.join(out_dir, "train_log.csv"), rows, FP_COLUMNS)
    print(f"train-fp done: best test_acc {best['acc']:.2f} (epoch {best['epoch']}) "
          f"-> {ckpt_path}")
    return 0


def _train_lp(args, force_baseline: bool) -> int:
    cfg = load_config(args.config, args.set)
    if force_baseline:
        cfg = loss_switches_off(cfg)
    if not cfg.fp_checkpoint:
        raise ConfigError("this command needs fp_checkpoint = <path to a train-fp checkpoint>")
    train, test = load_splits(cfg)
    out_dir = prepare_output_dir(cfg)
    spec = block_spec(cfg)
    fp = load_frozen_fp(cfg, spec, cfg.fp_checkpoint)
    lp = build_lp(cfg, spec)
    init_lp_from_fp(lp, fp)
    rows = train_bwrf(lp, fp, train, test, cfg)
    write_csv(os.path.join(out_dir, "train_log.csv"), rows,
              bwrf_columns(cfg, lp.n_blocks))
    ckpt_path = cfg.checkpoint or os.path.join(out_dir, "lp.ckpt")
    save_model(ckpt_path, lp, cfg.arch)
    final = rows[-1]
    print(f"done: final acc_Q {final['acc_Q']:.2f} acc_F {final['acc_F']:.2f} "
          f"-> {ckpt_path}")
    return 0


def cmd_train_bwrf(args) -> int:
    return _train_lp(args, force_baseline=False)


def cmd_train_baseline(args) -> int:
    return _train_lp(args, force_baseline=True)


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set)
    if not cfg.checkpoint:
        raise ConfigError("eval needs checkpoint = <path>")
    _, test = load_splits(cfg)
    spec = block_spec(cfg)
    branch = cfg.branch
    if branch not in ("Q", "F") and not cfg.fp_checkpoint:
        raise ConfigError(f"branch {branch} needs fp_checkpoint as well")
    if branch == "F":
        model = load_frozen_fp(cfg, spec, cfg.checkpoint)
    else:
        model = build_lp(cfg, spec)
        load_into_model(cfg.checkpoint, model, cfg.arch)
    if branch.startswith("M"):
        fp = load_frozen_fp(cfg, spec, cfg.fp_checkpoint)
        scores = training.evaluate_branches(model, fp, test, cfg.eval_batch_size)
        top1, top5 = scores[f"acc_{branch}"], scores[f"top5_{branch}"]
    else:
        (top1, top5), _ = model_pass(model, test, cfg.eval_batch_size)
    print(f"branch={branch} top1={top1:.4f} top5={top5:.4f} n={len(test)}")
    return 0


def cmd_analyze_similarity(args) -> int:
    cfg = load_config(args.config, args.set)
    if not cfg.checkpoint or not cfg.fp_checkpoint:
        raise ConfigError("analyze-similarity needs both checkpoint and fp_checkpoint")
    _, test = load_splits(cfg)
    out_dir = prepare_output_dir(cfg)
    spec = block_spec(cfg)
    lp = build_lp(cfg, spec)
    load_into_model(cfg.checkpoint, lp, cfg.arch)
    fp = load_frozen_fp(cfg, spec, cfg.fp_checkpoint)
    metrics = training.cosine_similarities(lp, fp, test, cfg.cos_samples, cfg.eval_batch_size)
    columns = tuple(metrics)
    write_csv(os.path.join(out_dir, "similarity.csv"), [metrics], columns)
    print(" ".join(f"{k}={v:.6f}" for k, v in metrics.items()))
    return 0


# -- argument plumbing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwrf",
        description="Quantization-aware training with full-precision grafts.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("train-fp", cmd_train_fp, "train the full-precision counterpart"),
        ("train-bwrf", cmd_train_bwrf, "grafted low-precision training"),
        ("train-baseline", cmd_train_baseline, "plain QAT baseline"),
        ("eval", cmd_eval, "evaluate one branch on the test split"),
        ("analyze-similarity", cmd_analyze_similarity,
         "feature alignment between LP and FP models"),
    )
    for name, func, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="run configuration file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")
        sp.set_defaults(func=func)
    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 4
    except NumericsError as e:
        print(f"numerics error: {e}", file=sys.stderr)
        return 5


def main():
    sys.exit(entry())


if __name__ == "__main__":
    main()
