"""The benchmark under perfbench/ wraps bwrf functions where their callers
look them up (training.evaluate_branches, BlockModel.forward_collect,
graft.graft_forward and others). This runs its hooks against the current
sources so a rename fails here rather than only in the benchmark's own,
slower tests. A call site that imports a wrapped name directly bypasses the
wrapper and zeroes that span's metric, so each wrapped span must be recorded
at least once. Nothing under perfbench/ is written."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# spans every traced grafted run records, in some phase
SPANS = ("quantizer.quantize.fwd", "quantizer.quantize.bwd", "network.lp_forward",
         "network.fp_forward", "graft.graft_forward", "graft.loss", "training.sgd_step",
         "training.fp_audit", "tensor.conv2d.fwd.c16")

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np

from bwrf import training
from bwrf.config import RunConfig
from bwrf.data import Split
from bwrf.graft import LossWeights
from bwrf.network import BlockSpec, build_model, init_lp_from_fp
import child
from spans import Tracer

tracer = Tracer()
tracer.install()
steps, evals = [], []
child.time_phases(training, steps, evals)

spec = BlockSpec(units_per_block=1)
fp = build_model(spec, "fp", seed=1).freeze()
lp = build_model(spec, "lp", bits=4, seed=2)
init_lp_from_fp(lp, fp)
rng = np.random.default_rng(3)
split = Split(rng.standard_normal((8, 3, 8, 8)).astype(np.float32), rng.integers(0, 10, 8))
cfg = RunConfig(epochs=1, milestones=(), batch_size=8, eval_batch_size=8, cos_every=1,
                augment=False)
training.train_bwrf(lp, fp, split, split, cfg, LossWeights())
training.cosine_similarities(lp, fp, split, 4, 8)
assert len(steps) == 1 and [e["n"] for e in evals] == [8, 4], (steps, evals)
assert tracer.summary()["counts"]["eval/images"] == 12
missing = sorted(set({spans!r}) - {{span[0] for span in tracer.spans}})
assert not missing, f"no span recorded for {{missing}}"
"""


def test_benchmark_hooks_wrap_the_current_sources():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"),
                           spans=SPANS)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
