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
training.train_bwrf(lp, fp, split, split, cfg)
training.cosine_similarities(lp, fp, split, 4, 8)
assert len(steps) == 1 and [e["n"] for e in evals] == [8, 8], (steps, evals)
assert tracer.summary()["counts"]["eval/images"] == 16
missing = sorted(set({spans!r}) - {{span[0] for span in tracer.spans}})
assert not missing, f"no span recorded for {{missing}}"
"""


# `eval` of a graft and `analyze-similarity` through the command line, each
# with the spans it must record
CLI_SCRIPT = """
import os, sys
sys.path[:0] = [{src!r}, {bench!r}]

from bwrf import cli
from bwrf.checkpoint import save_model
from bwrf.config import block_spec, parse_config_text
from bwrf.network import build_model, init_lp_from_fp
from bwrf.synthetic import write_synthetic_idx
from spans import Tracer

tracer = Tracer()
tracer.install()

tmp = {tmp!r}
write_synthetic_idx(os.path.join(tmp, "data"), n_train=16, n_test=16, hw=8, seed=1)
text = f\"\"\"
arch = resnet8
data_format = idx
data_dir = {{tmp}}/data
eval_batch_size = 8
cos_samples = 8
checkpoint = {{tmp}}/lp.ckpt
fp_checkpoint = {{tmp}}/fp.ckpt
output_dir = {{tmp}}/out
\"\"\"
with open(os.path.join(tmp, "run.cfg"), "w") as fh:
    fh.write(text)
cfg = parse_config_text(text)
spec = block_spec(cfg)
fp = build_model(spec, "fp", seed=1).freeze()
lp = build_model(spec, "lp", bits=4, seed=2)
init_lp_from_fp(lp, fp)
save_model(cfg.fp_checkpoint, fp, cfg.arch)
save_model(cfg.checkpoint, lp, cfg.arch)

for argv, want in ((["eval", "--set", "branch=M1"], {{"training.evaluate_branches"}}),
                   (["analyze-similarity"], {{"training.evaluate_branches",
                                              "training.cosine_similarities"}})):
    first = len(tracer.spans)
    assert cli.entry(argv + ["--config", os.path.join(tmp, "run.cfg")]) == 0, argv
    missing = sorted(want - {{span[0] for span in tracer.spans[first:]}})
    assert not missing, f"{{argv[0]}} recorded no span for {{missing}}"
"""


def run_script(script: str):
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_hooks_wrap_the_current_sources():
    run_script(SCRIPT.format(src=os.path.join(ROOT, "src"),
                             bench=os.path.join(ROOT, "perfbench"), spans=SPANS))


def test_benchmark_hooks_see_the_cli_eval_commands(tmp_path):
    run_script(CLI_SCRIPT.format(src=os.path.join(ROOT, "src"),
                                 bench=os.path.join(ROOT, "perfbench"), tmp=str(tmp_path)))
