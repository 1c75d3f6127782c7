"""End-to-end command-line tests on small synthetic datasets."""

import csv
import os

import numpy as np
import pytest

from bwrf.checkpoint import load_checkpoint
from bwrf.cli import entry, load_splits, write_csv
from bwrf.config import load_config
from bwrf.data import load_idx_dir, subset
from bwrf.synthetic import synthetic_arrays, write_synthetic_cifar, write_synthetic_idx
from test_checkpoint import OVERFLOWING, crafted


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("idx_data")
    write_synthetic_idx(str(path), n_train=192, n_test=64, hw=16, seed=5)
    return str(path)


@pytest.fixture(scope="module")
def fp_run(tmp_path_factory, idx_dir):
    """A completed train-fp run: (config path, output dir, checkpoint path)."""
    out = tmp_path_factory.mktemp("fp_run")
    cfg_path = out / "run.cfg"
    cfg_path.write_text(f"""
arch = resnet8
n_blocks = 3
data_format = idx
data_dir = {idx_dir}
epochs = 2
milestones =
lr = 0.05
batch_size = 32
eval_batch_size = 64
seed = 4
augment = false
output_dir = {out}/fp
""")
    code = entry(["train-fp", "--config", str(cfg_path)])
    assert code == 0
    return str(cfg_path), str(out / "fp"), str(out / "fp" / "fp.ckpt")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_synthetic_arrays_are_class_structured():
    tr_p, tr_l, te_p, te_l = synthetic_arrays(300, 100, seed=1)
    assert tr_p.shape == (300, 3, 32, 32) and tr_p.dtype == np.uint8
    assert len(np.unique(tr_l)) == 10
    # class means must be far apart relative to in-class spread
    means = np.stack([tr_p[tr_l == c].mean(axis=0) for c in range(10)])
    spread = np.linalg.norm(means[0] - means[1])
    assert spread > 100, "templates should separate classes"


def test_synthetic_mixing_blurs_boundaries_deterministically():
    plain = synthetic_arrays(200, 50, seed=3, mix=0.0)
    mixed = synthetic_arrays(200, 50, seed=3, mix=0.45)
    again = synthetic_arrays(200, 50, seed=3, mix=0.45)
    for a, b in zip(mixed, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(plain[0], mixed[0])
    assert mixed[0].dtype == np.uint8 and set(np.unique(mixed[1])) <= set(range(10))
    fine = synthetic_arrays(200, 50, seed=3, mix=0.45, cells=8)
    assert fine[0].shape == mixed[0].shape
    assert not np.array_equal(fine[0], mixed[0])
    with pytest.raises(ValueError):
        synthetic_arrays(10, 10, mix=0.6)


def test_synthetic_cifar_round_trip(tmp_path):
    write_synthetic_cifar(str(tmp_path), n_train=64, n_test=32, seed=2,
                          records_per_file=32)
    from bwrf.data import load_cifar10
    train, test = load_cifar10(str(tmp_path), (0.5,) * 3, (0.25,) * 3)
    assert len(train) == 64 and len(test) == 32


def test_train_fp_outputs(fp_run):
    _, out_dir, ckpt = fp_run
    rows = read_csv(os.path.join(out_dir, "train_log.csv"))
    assert rows[0] == ["epoch", "lr", "loss", "train_acc", "test_acc"]
    assert len(rows) == 3
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(out_dir, "resolved.cfg"))
    arch, bits, _ = load_checkpoint(ckpt)
    assert arch == "resnet8" and bits == 0


def test_eval_reproduces_logged_best_accuracy(fp_run, capsys):
    cfg_path, out_dir, ckpt = fp_run
    rows = read_csv(os.path.join(out_dir, "train_log.csv"))
    best = max(float(r[4]) for r in rows[1:])
    code = entry(["eval", "--config", cfg_path, "--set", f"checkpoint={ckpt}",
                  "--set", "branch=F"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    top1 = float(line.split("top1=")[1].split()[0])
    assert top1 == pytest.approx(best, abs=1e-9)


def test_train_bwrf_outputs_and_checkpoint(fp_run, tmp_path, capsys):
    cfg_path, _, ckpt = fp_run
    out = tmp_path / "bwrf"
    code = entry(["train-bwrf", "--config", cfg_path,
                  "--set", f"fp_checkpoint={ckpt}",
                  "--set", f"output_dir={out}",
                  "--set", "bits=4", "--set", "cos_every=2", "--set", "epochs=2"])
    assert code == 0
    rows = read_csv(out / "train_log.csv")
    assert rows[0] == ["epoch", "lr", "loss_total", "loss_target", "loss_distill",
                       "train_acc_Q", "acc_Q", "acc_M1", "acc_M2", "acc_F",
                       "cos_b1", "cos_b2", "cos_b3", "cos_g1", "cos_g2"]
    assert len(rows) == 3
    assert all(cell != "" for cell in rows[1])  # epoch 1 computes cosine metrics
    arch, bits, _ = load_checkpoint(str(out / "lp.ckpt"))
    assert arch == "resnet8" and bits == 4
    assert "acc_Q" in capsys.readouterr().out


def test_a_subset_fraction_cuts_both_splits_by_its_seed(fp_run, idx_dir, capsys):
    """Every class of the corpus has at least three images in each split,
    so a half keeps one of each."""
    cfg_path, _, ckpt = fp_run
    cut = ["subset_fraction=0.5", "subset_seed=9"]
    cfg = load_config(cfg_path, cut)
    full = load_idx_dir(idx_dir, cfg.normalize_mean, cfg.normalize_std)
    train, test = load_splits(cfg)
    for got, split in zip((train, test), full):
        want = subset(split, 0.5, 9)
        assert len(want) < len(split)
        assert np.array_equal(got.images, want.images) and np.array_equal(got.labels, want.labels)
    capsys.readouterr()
    assert entry(["eval", "--config", cfg_path, "--set", f"checkpoint={ckpt}",
                  "--set", "branch=F", "--set", cut[0], "--set", cut[1]]) == 0
    assert capsys.readouterr().out.strip().endswith(f" n={len(test)}")


def test_eval_graft_branch(fp_run, tmp_path, capsys, monkeypatch):
    from bwrf.network import BlockModel

    cfg_path, _, ckpt = fp_run
    out = tmp_path / "bwrf"
    entry(["train-bwrf", "--config", cfg_path, "--set", f"fp_checkpoint={ckpt}",
           "--set", f"output_dir={out}", "--set", "bits=4", "--set", "epochs=1",
           "--set", "milestones="])
    forward_collect, walked = BlockModel.forward_collect, []

    def recorded(model, x):
        walked.append("F" if model.bits is None else "Q")
        return forward_collect(model, x)

    monkeypatch.setattr(BlockModel, "forward_collect", recorded)
    capsys.readouterr()
    code = entry(["eval", "--config", cfg_path, "--set", "branch=M1",
                  "--set", "bits=4", "--set", f"checkpoint={out / 'lp.ckpt'}",
                  "--set", f"fp_checkpoint={ckpt}"])
    assert code == 0
    assert "branch=M1" in capsys.readouterr().out
    assert walked == ["Q"], "one LP walk of the single 64-image eval batch, no F walk"


def test_read_out_commands_agree_with_the_training_log(fp_run, tmp_path, capsys):
    """eval of every branch prints the last logged acc_*, and analyze-similarity
    writes the last logged cos_* cells; 40 cosine rows end inside the second
    24-image eval batch."""
    cfg_path, _, ckpt = fp_run
    out = tmp_path / "bwrf"
    common = ["--config", cfg_path, "--set", f"fp_checkpoint={ckpt}", "--set", "bits=4",
              "--set", "eval_batch_size=24", "--set", "cos_samples=40"]
    assert entry(["train-bwrf", *common, "--set", f"output_dir={out}",
                  "--set", "cos_every=2", "--set", "epochs=2"]) == 0
    header, *rows = read_csv(out / "train_log.csv")
    last = dict(zip(header, rows[-1]))
    for branch in ("Q", "M1", "M2", "F"):
        ckpt_of = ckpt if branch == "F" else out / "lp.ckpt"
        capsys.readouterr()
        assert entry(["eval", *common, "--set", f"branch={branch}",
                      "--set", f"checkpoint={ckpt_of}"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"branch={branch} top1={float(last[f'acc_{branch}']):.4f} ")
    assert entry(["analyze-similarity", *common, "--set", f"checkpoint={out / 'lp.ckpt'}",
                  "--set", f"output_dir={tmp_path / 'sim'}"]) == 0
    sim_header, sim_row = read_csv(tmp_path / "sim" / "similarity.csv")
    assert sim_header == [c for c in header if c.startswith("cos_")]
    assert sim_row == [last[c] for c in sim_header]


def test_analyze_similarity_outputs(fp_run, tmp_path, capsys):
    cfg_path, _, ckpt = fp_run
    out = tmp_path / "bwrf"
    entry(["train-bwrf", "--config", cfg_path, "--set", f"fp_checkpoint={ckpt}",
           "--set", f"output_dir={out}", "--set", "bits=4", "--set", "epochs=1",
           "--set", "milestones="])
    sim_out = tmp_path / "sim"
    code = entry(["analyze-similarity", "--config", cfg_path,
                  "--set", f"checkpoint={out / 'lp.ckpt'}",
                  "--set", f"fp_checkpoint={ckpt}", "--set", "bits=4",
                  "--set", f"output_dir={sim_out}", "--set", "cos_samples=32"])
    assert code == 0
    rows = read_csv(sim_out / "similarity.csv")
    assert rows[0] == ["cos_b1", "cos_b2", "cos_b3", "cos_g1", "cos_g2"]
    values = [float(v) for v in rows[1]]
    assert all(-1.0 <= v <= 1.0 for v in values)
    assert "cos_b1=" in capsys.readouterr().out


def test_resolved_config_archives_applied_overrides(fp_run, tmp_path):
    cfg_path, _, ckpt = fp_run
    out = tmp_path / "base"
    entry(["train-baseline", "--config", cfg_path, "--set", f"fp_checkpoint={ckpt}",
           "--set", "bits=4", "--set", "epochs=1", "--set", "milestones=",
           "--set", f"output_dir={out}"])
    text = (out / "resolved.cfg").read_text()
    assert "use_fp_kd = false" in text, "baseline must archive the forced toggles"
    assert "bits = 4" in text


def test_a_failing_rewrite_of_the_training_log_leaves_the_earlier_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cell")

    path = str(tmp_path / "train_log.csv")
    write_csv(path, [{"epoch": 1, "lr": 0.1}, {"epoch": 2, "lr": 0.1}], ("epoch", "lr"))
    before = (tmp_path / "train_log.csv").read_bytes()
    assert before == b"epoch,lr\r\n1,0.1\r\n2,0.1\r\n"
    with pytest.raises(RuntimeError, match="cell"):
        write_csv(path, [{"epoch": Unprintable(), "lr": 0.1}], ("epoch", "lr"))
    assert (tmp_path / "train_log.csv").read_bytes() == before
    assert os.listdir(tmp_path) == ["train_log.csv"]


def test_exit_code_2_on_config_errors(tmp_path, idx_dir, capsys):
    missing = str(tmp_path / "none.cfg")
    assert entry(["train-fp", "--config", missing]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("bits = 5\n")
    assert entry(["train-fp", "--config", str(bad)]) == 2
    ok = tmp_path / "ok.cfg"
    ok.write_text("epochs = 1\nmilestones =\n")
    assert entry(["train-bwrf", "--config", str(ok)]) == 2, "missing fp_checkpoint"
    assert "error" in capsys.readouterr().err
    assert entry(["train-fp", "--config", str(ok), "--set", "n_blocks=4"]) == 2
    legacy = tmp_path / "legacy.cfg"
    legacy.write_text("arch = resnet8\nn_blocks = 4\nepochs = 1\nmilestones =\n")
    assert entry(["train-fp", "--config", str(legacy)]) == 2
    assert "n_blocks = 4 but resnet8 has 3 blocks" in capsys.readouterr().err
    data = ["--set", "data_format=idx", "--set", f"data_dir={idx_dir}"]
    ckpt = tmp_path / "lp.ckpt"
    for argv, message in (
            (["eval", *data], "eval needs checkpoint"),
            (["eval", *data, "--set", f"checkpoint={ckpt}", "--set", "branch=M1"],
             "branch M1 needs fp_checkpoint"),
            (["analyze-similarity", *data, "--set", f"checkpoint={ckpt}"],
             "analyze-similarity needs both checkpoint and fp_checkpoint")):
        assert entry([argv[0], "--config", str(ok), *argv[1:]]) == 2, message
        assert message in capsys.readouterr().err


def test_exit_code_3_on_data_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_dir = {tmp_path}/empty\nepochs = 1\nmilestones =\n")
    assert entry(["train-fp", "--config", str(cfg)]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["train", "test"])
def test_exit_code_3_on_an_empty_idx_split(tmp_path, split, capsys):
    from bwrf.data import write_idx

    data = tmp_path / "data"
    write_synthetic_idx(str(data), n_train=32, n_test=16, hw=16, seed=5)
    write_idx(str(data / f"{split}-images-idx3-ubyte"), str(data / f"{split}-labels-idx1-ubyte"),
              np.zeros((0, 16, 16), np.uint8), np.zeros(0, np.uint8))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
arch = resnet8
data_format = idx
data_dir = {data}
epochs = 1
milestones =
output_dir = {tmp_path}/out
""")
    assert entry(["train-fp", "--config", str(cfg)]) == 3
    assert f"{split}-images-idx3-ubyte: no records" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fp.ckpt").exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_exit_code_3_on_labels_outside_num_classes(tmp_path, split, capsys):
    from bwrf.data import write_idx

    data = tmp_path / "data"
    data.mkdir()
    for name in ("train", "test"):
        labels = np.arange(16) % 5
        if name == split:
            labels[3] = 7
        write_idx(str(data / f"{name}-images-idx3-ubyte"), str(data / f"{name}-labels-idx1-ubyte"),
                  np.zeros((16, 16, 16), np.uint8), labels)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
arch = resnet8
data_format = idx
data_dir = {data}
num_classes = 5
epochs = 1
milestones =
output_dir = {tmp_path}/out
""")
    assert entry(["train-fp", "--config", str(cfg)]) == 3
    assert f"{split} split has label 7 outside 0..4" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fp.ckpt").exists()


def test_exit_code_4_on_checkpoint_errors(tmp_path, idx_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
arch = resnet8
data_format = idx
data_dir = {idx_dir}
epochs = 1
milestones =
output_dir = {tmp_path}/out
fp_checkpoint = {tmp_path}/missing.ckpt
""")
    assert entry(["train-bwrf", "--config", str(cfg)]) == 4
    assert "checkpoint error" in capsys.readouterr().err
    overflowing = crafted(tmp_path / "overflowing.ckpt", OVERFLOWING)
    assert entry(["eval", "--config", str(cfg), "--set", f"checkpoint={overflowing}",
                  "--set", "branch=F"]) == 4
    assert "truncated reading w data" in capsys.readouterr().err



def test_exit_code_5_on_a_nan_loss_keeps_the_earlier_best_checkpoint(tmp_path, idx_dir,
                                                                    monkeypatch, capsys):
    from bwrf import training

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
arch = resnet8
data_format = idx
data_dir = {idx_dir}
epochs = 3
milestones =
lr = 0.05
batch_size = 64
eval_batch_size = 64
seed = 4
augment = false
output_dir = {tmp_path}/fp
""")
    ckpt = tmp_path / "fp" / "fp.ckpt"
    train_step, calls, before = training.train_step, [], []

    def nan_at_epoch_2_step_2(model, fp, batch, cfg, opt):
        calls.append(1)
        if len(calls) == 3 + 2:  # 192 images at batch 64: three steps per epoch
            before.append(ckpt.read_bytes())  # epoch 1's best checkpoint
            images = batch[0].copy()
            images[0, 0, 0, 0] = np.nan
            batch = (images, batch[1])
        return train_step(model, fp, batch, cfg, opt)

    monkeypatch.setattr(training, "train_step", nan_at_epoch_2_step_2)
    assert entry(["train-fp", "--config", str(cfg)]) == 5
    assert "numerics error: loss_total is nan at epoch 2, step 2" in capsys.readouterr().err
    assert len(calls) == 5, "training went on after the non-finite loss"
    assert ckpt.read_bytes() == before[0]
    assert not (tmp_path / "fp" / "train_log.csv").exists()


def test_exit_code_5_on_a_nan_pixel_through_the_quantized_stem(fp_run, tmp_path, monkeypatch,
                                                               capsys, recwarn):
    """A NaN image pixel reaches the LP stem's 8-bit input quantizer, whose
    code for it is unspecified: the loss is NaN all the same, the run stops
    there, writes nothing, and no RuntimeWarning escapes the package."""
    from bwrf import training

    cfg_path, _, ckpt = fp_run
    train_step, calls = training.train_step, []

    def nan_at_step_2(model, fp, batch, cfg, opt):
        calls.append(1)
        if len(calls) == 2:
            images = batch[0].copy()
            images[0, 0, 0, 0] = np.nan
            batch = (images, batch[1])
        return train_step(model, fp, batch, cfg, opt)

    monkeypatch.setattr(training, "train_step", nan_at_step_2)
    out = tmp_path / "lp"
    assert entry(["train-baseline", "--config", cfg_path, "--set", f"fp_checkpoint={ckpt}",
                  "--set", "bits=4", "--set", f"output_dir={out}"]) == 5
    assert "numerics error: loss_total is nan at epoch 1, step 2" in capsys.readouterr().err
    assert len(calls) == 2, "training went on after the non-finite loss"
    assert not (out / "lp.ckpt").exists()
    assert not (out / "train_log.csv").exists()
    leaked = [w for w in recwarn if issubclass(w.category, RuntimeWarning)
              and f"{os.sep}bwrf{os.sep}" in w.filename]
    assert not leaked, [str(w.message) for w in leaked]

def test_eval_branch_q_checks_bit_width(fp_run, capsys):
    cfg_path, _, ckpt = fp_run
    code = entry(["eval", "--config", cfg_path, "--set", f"checkpoint={ckpt}",
                  "--set", "branch=Q", "--set", "bits=4"])
    assert code == 4, "fp checkpoint loaded as a 4-bit model must be refused"
    assert "bit-width" in capsys.readouterr().err
