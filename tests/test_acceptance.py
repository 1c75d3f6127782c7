"""Acceptance gate: one test per shipped guarantee, in order.

`pytest tests/test_acceptance.py -v` prints a single pass/fail line per
guarantee. Everything runs on synthetic data in seconds to a couple of
minutes, except the desk-scale comparison (07/08), which needs the real
CIFAR-10 binary corpus plus hours of compute and is therefore opt-in; its
skip message says how to enable it and where the archived synthetic
rehearsal of the same pipeline lives.
"""

import csv
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from bwrf import tensor as T
from bwrf.checkpoint import load_into_model, save_model
from bwrf.cli import entry
from bwrf.config import CIFAR10_MEAN, CIFAR10_STD, RunConfig
from bwrf.data import load_cifar10, subset
from bwrf.graft import avg_soft_label, bwrf_forward, graft_forward, kd_loss, total_loss
from bwrf.network import BlockSpec, build_model, init_lp_from_fp
from bwrf.quantizer import Quantizer, quantize_forward
from bwrf.synthetic import write_synthetic_cifar, write_synthetic_idx
from bwrf.tensor import Tensor
from bwrf.training import train_bwrf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = BlockSpec(units_per_block=1, in_channels=3, num_classes=10)


def real_cifar_dir():
    """The real binary corpus, if present: env override first, then ./data."""
    candidates = (os.environ.get("BWRF_DATA_DIR", ""),
                  os.path.join(ROOT, "data", "cifar-10-batches-bin"),
                  os.path.join(ROOT, "data"))
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "test_batch.bin")):
            return cand
    return None


# -- 1: quantizer kernel ------------------------------------------------------

def test_criterion_01_quantizer_scalar_oracle_and_gradients():
    """10^5 random triples: forward bit-equals a scalar reference, the input
    gradient is masked by the strict in-range indicator, and the scale
    gradient matches central differences of the straight-through surrogate
    (points at least 0.01 from rounding ties and clip edges), in under 10s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(18)
    per = 50  # 2000 groups x 50 values = 1e5 triples
    fd_checked = 0
    for gi in range(2000):
        bits = int(rng.choice((2, 3, 4, 8)))
        signed = bool(rng.integers(2))
        q = Quantizer(bits, signed=signed, grad_scale_enabled=False)
        if gi % 8 == 0:
            s = float(2.0 ** rng.integers(-6, 1))  # power of two: exact ties below
        else:
            s = float(10.0 ** rng.uniform(-3.0, 0.5))
        q.set_scale(s)
        span = q.qmax - q.qmin
        target = rng.uniform(q.qmin - 0.2 * span - 1.0, q.qmax + 0.2 * span + 1.0,
                             size=per)
        v = (target * np.float32(s)).astype(np.float32)
        if gi % 8 == 0:
            ties = rng.integers(q.qmin - 1, q.qmax + 1, size=4)
            v[:4] = ((ties + 0.5) * s).astype(np.float32)  # v/s lands exactly on m+1/2

        vt = Tensor(v, requires_grad=True)
        out = quantize_forward(vt, q)
        g = rng.standard_normal(per).astype(np.float32)
        T.mul(out, Tensor(g)).sum().backward()

        ref = np.array([oracles.quantize_scalar_ref(vi, s, q.qmin, q.qmax) for vi in v],
                       dtype=np.float32)
        assert np.array_equal(out.data, ref), f"group {gi}: forward drifted"
        mask = np.array([oracles.ste_mask_scalar_ref(vi, s, q.qmin, q.qmax) for vi in v],
                        dtype=np.float32)
        assert np.array_equal(vt.grad, g * mask), f"group {gi}: gradient mask drifted"

        vs = v / np.float32(s)
        dist_tie = np.abs(np.abs(vs - np.floor(vs)) - 0.5)
        dist_edge = np.minimum(np.abs(vs - q.qmin), np.abs(vs - q.qmax))
        for i in np.flatnonzero((dist_tie >= 0.01) & (dist_edge >= 0.01))[:3]:
            solo = Quantizer(bits, signed=signed, grad_scale_enabled=False)
            solo.set_scale(s)
            quantize_forward(Tensor(v[i:i + 1]), solo).sum().backward()
            got = solo.scale.grad.item()
            want = oracles.scale_grad_fd_ref(v[i], s, q.qmin, q.qmax, h=s * 1e-5)
            err = abs(got - want) / max(abs(want), 1e-2)
            assert err < 1e-3, f"group {gi} elem {i}: scale grad {got} vs fd {want}"
            fd_checked += 1
    assert fd_checked > 4000, "margin filter starved the finite-difference check"
    assert time.monotonic() - t0 < 10.0


# -- 2: autodiff ----------------------------------------------------------------

def test_criterion_02_autodiff_matches_central_differences():
    """Every op in the gradient-case registry, 100 randomized trials each,
    within rel err 1e-3 of float64 central differences, in under 60s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(92)
    for name in sorted(oracles.FD_CASES):
        case = oracles.FD_CASES[name]
        worst = 0.0
        for _ in range(100):
            arrays, (op32, op64) = case(rng)
            worst = max(worst, oracles.run_fd_case(arrays, op32, op64, rng))
        assert worst < 1e-3, f"{name}: worst rel err {worst:.2e}"
    assert time.monotonic() - t0 < 60.0


# -- 3: grafts ------------------------------------------------------------------

def compose_hybrid(lp, fp, k):
    """Standalone model holding the low-precision blocks 1..k and the
    full-precision blocks k+1..n, built by direct state surgery."""
    hybrid = build_model(SMALL, "lp", bits=4, seed=999)
    hybrid.load_state_dict(lp.state_dict())
    own = hybrid.state_dict()
    suffix = tuple(f"block{j}." for j in range(k + 1, hybrid.n_blocks + 1)) + ("head.",)
    for name, arr in fp.state_dict().items():
        if name.startswith(suffix):
            np.copyto(own[name], arr)
    for qname, quant in hybrid.quantizers():
        if qname.startswith(suffix):
            quant.enabled = False
    hybrid.eval()
    return hybrid


def test_criterion_03_graft_equals_explicit_composition():
    """graft_forward(k) is bit-identical to the separately composed hybrid
    model for k in {1, 2}, over 20 random batches."""
    fp = build_model(SMALL, "fp", seed=31).freeze()
    lp = build_model(SMALL, "lp", bits=4, seed=32)
    init_lp_from_fp(lp, fp)
    lp.eval()
    rng = np.random.default_rng(33)
    lp.forward_collect(Tensor(rng.standard_normal((8, 3, 8, 8)).astype(np.float32)))
    for k in (1, 2):
        hybrid = compose_hybrid(lp, fp, k)
        for _ in range(20):
            x = Tensor(rng.standard_normal((8, 3, 8, 8)).astype(np.float32))
            features, _ = lp.forward_collect(x)
            got = graft_forward(features, fp, k)
            want = hybrid(x)
            assert np.array_equal(got.data, want.data), f"graft {k} drifted"


# -- 4: gradient decomposition ----------------------------------------------------

def test_criterion_04_combined_backward_equals_branch_sum():
    """One backward through the summed objective matches per-branch backward
    passes added up, within abs err 1e-5 on every parameter."""
    fp = build_model(SMALL, "fp", seed=41).freeze()
    lp = build_model(SMALL, "lp", bits=4, seed=42)
    init_lp_from_fp(lp, fp)
    lp.train()
    rng = np.random.default_rng(43)
    x = Tensor(rng.standard_normal((8, 3, 8, 8)).astype(np.float32))
    labels = rng.integers(0, 10, size=8)
    cfg = RunConfig()
    bwrf_forward(lp, fp, x, cfg)  # settle lazy activation-scale calibration

    def clear():
        for _, p, _ in lp.param_groups():
            p.grad = None

    def snap():
        return {name: p.grad.copy() for name, p, _ in lp.param_groups()
                if p.grad is not None}

    def branch_loss(g, y, k):
        return T.add(T.cross_entropy(y, labels),
                     T.add(kd_loss(y, g.y_f), kd_loss(y, avg_soft_label(g.y_f, g.y_m, k))))

    clear()
    g = bwrf_forward(lp, fp, x, cfg)
    loss, _, _ = total_loss(g, labels, cfg)
    loss.backward()
    combined = snap()

    per_branch = []
    for k in range(lp.n_blocks):
        clear()
        g = bwrf_forward(lp, fp, x, cfg)
        if k == lp.n_blocks - 1:
            branch_loss(g, g.y_q, k).backward()
        else:
            (branch_loss(g, g.y_m[k], k) * cfg.alpha[k]).backward()
        per_branch.append(snap())

    for name in combined:
        summed = sum(grads.get(name, 0) for grads in per_branch)
        err = np.abs(combined[name] - summed).max()
        assert err <= 1e-5, f"{name}: {err:.2e}"


# -- 5: frozen-teacher audit ------------------------------------------------------

def test_criterion_05_frozen_teacher_unchanged_after_training(tmp_path):
    """Three epochs of full composite training on a 1%-sized subset leave the
    teacher checksum exactly where it started."""
    real = real_cifar_dir()
    if real:
        train, test = load_cifar10(real, CIFAR10_MEAN, CIFAR10_STD)
        train, test = subset(train, 0.01, 0), subset(test, 0.01, 0)
    else:
        # stand-in corpus in the same binary layout; a 10% cut of 5,000
        # gives the same 500/100 split a 1% cut of the real corpus gives
        data_dir = str(tmp_path / "audit_data")
        write_synthetic_cifar(data_dir, 5000, 1000, records_per_file=2500)
        train, test = load_cifar10(data_dir, CIFAR10_MEAN, CIFAR10_STD)
        train, test = subset(train, 0.1, 0), subset(test, 0.1, 0)

    spec = BlockSpec.from_arch("resnet20", 3, 10)
    fp = build_model(spec, "fp", seed=50).freeze()
    lp = build_model(spec, "lp", bits=4, seed=50)
    init_lp_from_fp(lp, fp)
    before = fp.checksum()
    cfg = RunConfig(arch="resnet20", bits=4, epochs=3, milestones=(), lr=0.04,
                    batch_size=128, eval_batch_size=256, seed=50, cos_every=0)
    rows = train_bwrf(lp, fp, train, test, cfg)
    assert len(rows) == 3
    assert fp.checksum() == before


# -- 6: reduction to the baseline command ----------------------------------------

RUN_CFG = """
arch = resnet8
bits = 4
data_format = idx
data_dir = {data}
epochs = 2
milestones = 1
batch_size = 64
eval_batch_size = 64
lr = 0.05
seed = 9
augment = true
cos_every = 0
"""

TOGGLES_OFF = ["--set", "use_mp_targets=false", "--set", "use_fp_kd=false",
               "--set", "use_mp_kd=false", "--set", "use_avg_labels=false"]


def test_criterion_06_bwrf_toggles_off_matches_baseline_command(tmp_path):
    """train-bwrf with every auxiliary signal disabled writes metrics and a
    checkpoint byte-identical to train-baseline under the same seed."""
    data = tmp_path / "idx"
    write_synthetic_idx(str(data), n_train=192, n_test=64, hw=16, seed=6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG.format(data=data))
    fp_out = tmp_path / "fp"
    assert entry(["train-fp", "--config", str(cfg),
                  "--set", f"output_dir={fp_out}"]) == 0
    for command, out, extra in (("train-bwrf", "off", TOGGLES_OFF),
                                ("train-baseline", "base", [])):
        assert entry([command, "--config", str(cfg),
                      "--set", f"output_dir={tmp_path / out}",
                      "--set", f"fp_checkpoint={fp_out / 'fp.ckpt'}"] + extra) == 0
    for artifact in ("train_log.csv", "lp.ckpt"):
        a = (tmp_path / "off" / artifact).read_bytes()
        b = (tmp_path / "base" / artifact).read_bytes()
        assert a == b, f"{artifact} differs between the two commands"


# -- 7 and 8: the desk-scale comparison -------------------------------------------

DESK_ENV = "BWRF_RUN_DESK_SCALE"


@pytest.fixture(scope="module")
def desk_scale_summary():
    data_dir = real_cifar_dir()
    if os.environ.get(DESK_ENV) != "1" or data_dir is None:
        pytest.skip(
            "needs the real CIFAR-10 binary corpus and hours of compute: set "
            "BWRF_DATA_DIR to the cifar-10-batches-bin directory and "
            f"{DESK_ENV}=1 to run. The identical pipeline is rehearsed on "
            "synthetic data by `python3 demos/run_desk_scale.py --synthetic`; "
            "archived rehearsal results live in demos/rehearsal/.")
    out = os.environ.get("BWRF_DESK_SCALE_OUT",
                         os.path.join(ROOT, "runs", "desk_scale"))
    summary = os.path.join(out, "summary.csv")
    argv = [sys.executable, os.path.join(ROOT, "demos", "run_desk_scale.py"),
            "--data-dir", data_dir, "--out", out]
    if os.path.exists(summary):
        argv.append("--analyze-only")  # reuse finished runs; delete out/ to retrain
    result = subprocess.run(argv, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    with open(summary, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_07_desk_scale_comparison_on_cifar10(desk_scale_summary):
    """3-block model, stratified 20% subset, 4 bits, 60 epochs, 3 seeds per
    arm: mean within 0.1 of the baseline or better, wins on 2 of 3 seeds,
    and final-epoch branch ordering acc_F >= acc_M1 >= acc_Q (1.0 slack)."""
    rows = {(r["arm"], r["seed"]): r for r in desk_scale_summary}
    seeds = sorted(s for a, s in rows if a == "bwrf")
    base = [float(rows[("baseline", s)]["acc_Q"]) for s in seeds]
    bwrf = [float(rows[("bwrf", s)]["acc_Q"]) for s in seeds]
    mean_base = sum(base) / len(base)
    mean_bwrf = sum(bwrf) / len(bwrf)
    assert mean_bwrf >= mean_base - 0.1, f"means: {mean_bwrf:.2f} vs {mean_base:.2f}"
    wins = sum(w > b for b, w in zip(base, bwrf))
    assert wins >= 2, f"wins only {wins} of {len(seeds)} seeds"
    for s in seeds:
        r = rows[("bwrf", s)]
        acc_q, acc_m1, acc_f = (float(r[k]) for k in ("acc_Q", "acc_M1", "acc_F"))
        assert acc_f >= acc_m1 - 1.0 and acc_m1 >= acc_q - 1.0, \
            f"seed {s} ordering: F {acc_f:.2f} M1 {acc_m1:.2f} Q {acc_q:.2f}"


def test_criterion_08_feature_alignment_rises(desk_scale_summary):
    """In the same run's replacement arm, per-block cosine alignment between
    the low- and full-precision features is higher at the final epoch than
    at epoch 1, for every block."""
    checked = 0
    for r in desk_scale_summary:
        if r["arm"] != "bwrf":
            continue
        blocks = sorted(k[:-len("_first")] for k in r
                        if k.startswith("cos_b") and k.endswith("_first") and r[k])
        assert blocks, "cosine columns missing from the comparative run"
        for b in blocks:
            first, last = float(r[b + "_first"]), float(r[b + "_last"])
            assert last > first, f"seed {r['seed']} {b}: {first:.4f} -> {last:.4f}"
            checked += 1
    assert checked


# -- 9: checkpoint round trip ------------------------------------------------------

def test_criterion_09_checkpoint_round_trip_byte_identical(tmp_path):
    spec = BlockSpec.from_arch("resnet8", 3, 10)
    model = build_model(spec, "lp", bits=4, seed=90)
    first = tmp_path / "one.ckpt"
    save_model(str(first), model, "resnet8")
    fresh = build_model(spec, "lp", bits=4, seed=91)
    load_into_model(str(first), fresh, "resnet8")
    second = tmp_path / "two.ckpt"
    save_model(str(second), fresh, "resnet8")
    assert first.read_bytes() == second.read_bytes()


# -- 10: declared scope -------------------------------------------------------------

def test_criterion_10_imagenet_scale_out_of_scope():
    """ImageNet-class results are a documented non-goal; deeper members of the
    supported family are still exercised structurally."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    assert "ImageNet" in readme
    assert "out of scope" in readme.lower()
    spec = BlockSpec.from_arch("resnet56", 3, 10)
    model = build_model(spec, "lp", bits=4, seed=10)
    x = np.random.default_rng(0).standard_normal((1, 3, 16, 16)).astype(np.float32)
    assert model(Tensor(x)).shape == (1, 10)
