#!/usr/bin/env python3
"""Grafting: run a low-precision prefix into a frozen full-precision suffix.

The trainer keeps two copies of the same topology. The full-precision model
is trained once and frozen; the low-precision model is the one being
trained. A graft at depth k reuses the quantized forward through block k,
then feeds that feature map to the frozen blocks k+1..n. Nothing is copied
and no third model is built: the branch output is one more consumer of the
same graph node, so its gradients flow through the frozen suffix back into
the quantized prefix (the suffix itself collects none).
"""

import numpy as np

from bwrf.config import RunConfig
from bwrf.graft import bwrf_forward, graft_forward
from bwrf.network import BlockSpec, build_model, init_lp_from_fp
from bwrf.tensor import Tensor

SPEC = BlockSpec(units_per_block=1, in_channels=3, num_classes=10)


def main():
    rng = np.random.default_rng(7)
    fp = build_model(SPEC, "fp", seed=1).freeze()
    lp = build_model(SPEC, "lp", bits=4, seed=2)
    init_lp_from_fp(lp, fp)

    x = Tensor(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
    lp.train()
    features, y_q = lp.forward_collect(x)
    print(f"3-block model; low-precision forward kept {len(features)} feature maps")

    print("\n== the mixed branches ==")
    y_f = fp(x)
    for k in (1, 2):
        y_m = graft_forward(features, fp, k)
        dq = float(np.abs(y_m.data - y_q.data).max())
        df = float(np.abs(y_m.data - y_f.data).max())
        print(f"  graft k={k}: quantized blocks 1..{k} + frozen blocks {k + 1}..3"
              f"   |out - quantized| {dq:.3f}   |out - frozen| {df:.3f}")
    print("  k=1 leans toward the frozen model, k=2 toward the quantized one")

    print("\n== gradients stop at the frozen suffix ==")
    y_m = graft_forward(features, fp, 1)
    y_m.sum().backward()
    lp_got = sorted(n for n, p, _ in lp.param_groups() if p.grad is not None)
    fp_got = [n for n, p, _ in fp.param_groups() if p.grad is not None]
    print(f"  low-precision params with gradients: {len(lp_got)} "
          f"(e.g. {lp_got[0]}, {lp_got[-1]})")
    print(f"  frozen params with gradients: {len(fp_got)}")
    suffix = [n for n, p, _ in lp.param_groups()
              if n.startswith(('block2.', 'block3.', 'head.')) and p.grad is not None]
    print(f"  quantized suffix params touched by this branch: {len(suffix)}")

    print("\n== block-call accounting for one full training forward ==")
    lp_before = [b.calls for b in lp.blocks]
    fp_before = [b.calls for b in fp.blocks]
    bwrf_forward(lp, fp, x, RunConfig())
    lp_calls = [b.calls - c for b, c in zip(lp.blocks, lp_before)]
    fp_calls = [b.calls - c for b, c in zip(fp.blocks, fp_before)]
    print(f"  quantized blocks ran {lp_calls} times (one shared prefix pass)")
    print(f"  frozen blocks ran {fp_calls} times "
          f"(own forward + one suffix per graft)")
    n = lp.n_blocks
    expect = [1 + sum(1 for k in range(1, n) if i >= k) for i in range(n)]
    print(f"  predicted frozen counts: {expect}")


if __name__ == "__main__":
    main()
