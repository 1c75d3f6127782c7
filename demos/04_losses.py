#!/usr/bin/env python3
"""Anatomy of the composite objective on a toy batch.

The trained model answers to two masters. The target term is plain
cross-entropy, asked of the quantized output and of every graft branch.
The distillation term asks each of those outputs to match two teachers:
the frozen full-precision predictions, and a running average that folds in
the predictions of the earlier branches. Four switches turn the parts on
and off; with all four off the whole thing collapses to vanilla
quantization-aware training.
"""

import numpy as np

from bwrf.config import RunConfig
from bwrf.graft import (GraftOutput, avg_soft_label, kd_loss, loss_distill, loss_target,
                        total_loss)
from bwrf.tensor import Tensor


def logits_like(rng, shift):
    return Tensor((rng.standard_normal((4, 10)) + shift).astype(np.float32))


def main():
    rng = np.random.default_rng(3)
    labels = np.array([1, 4, 4, 7])
    y_q = logits_like(rng, 0.0)      # quantized output, the student
    y_m = [logits_like(rng, 0.1), logits_like(rng, 0.2)]  # graft branches
    y_f = logits_like(rng, 0.3)      # frozen teacher
    g = GraftOutput(y_q=y_q, y_m=y_m, y_f=y_f)

    print("== the target term stacks branch cross-entropies ==")
    cfg = RunConfig(alpha=(1.0, 1.0))
    base = loss_target(y_q, [None, None], labels, cfg)
    full = loss_target(y_q, y_m, labels, cfg)
    print(f"  quantized output alone: {base.item():.4f}")
    print(f"  plus both graft branches (alpha 1, 1): {full.item():.4f}")

    print("\n== distillation is temperature-scaled KL to each teacher ==")
    print(f"  student vs frozen teacher: {kd_loss(y_q, y_f).item():.4f}")
    print(f"  student vs itself:         {kd_loss(y_q, y_q).item():.4f} (exact zero)")
    hot = kd_loss(y_q, y_f, temperature=4.0).item()
    print(f"  same pair at temperature 4: {hot:.4f} (softer targets)")

    print("\n== the running-average teacher ==")
    for k in range(3):
        avg = avg_soft_label(y_f, y_m, k)
        members = [y_f] + y_m[:k]
        manual = sum(m.data for m in members) / len(members)
        names = ["frozen"] + [f"graft{j + 1}" for j in range(k)]
        drift = float(np.abs(avg.data - manual).max())
        print(f"  branch {k + 1} distills toward mean logits of: {', '.join(names)}"
              f"   (vs by-hand mean: {drift:.1e})")

    print("\n== the four switches ==")
    for name in ("use_mp_targets", "use_fp_kd", "use_mp_kd", "use_avg_labels"):
        cfg = RunConfig(**{name: False})
        t = loss_target(y_q, y_m, labels, cfg)
        d = loss_distill(g, cfg)
        print(f"  {name:15s} off -> target {t.item():.4f}  distill {d.item():.4f}")

    cfg_off = RunConfig(use_mp_targets=False, use_fp_kd=False, use_mp_kd=False,
                        use_avg_labels=False)
    total, t, d = total_loss(g, labels, cfg_off)
    print(f"  all four off -> total {total.item():.4f} = plain cross-entropy "
          f"{base.item():.4f}, distill {d.item():.4f}")


if __name__ == "__main__":
    main()
