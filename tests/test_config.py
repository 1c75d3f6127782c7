"""Run-configuration parsing, validation, and round-trip tests."""

import dataclasses
import importlib.util
import os

import pytest

from bwrf.config import (DATA_DIR_ENV, ConfigError, RunConfig, apply_overrides,
                         load_config, parse_config_text, resolved_text, validate)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_empty_text_gives_defaults():
    assert parse_config_text("") == RunConfig()


def test_parse_scalars_lists_and_comments():
    cfg = parse_config_text("""
# a full line comment
bits = 8          # trailing comment
lr = 0.1
augment = false
alpha = 0.5,0.25
milestones = 10,20
mp_branches = 1
seed = 7
data_dir = /tmp/somewhere
""")
    assert cfg.bits == 8
    assert cfg.lr == 0.1
    assert cfg.augment is False
    assert cfg.alpha == (0.5, 0.25)
    assert cfg.milestones == (10, 20)
    assert cfg.mp_branches == (1,)
    assert cfg.seed == 7
    assert cfg.data_dir == "/tmp/somewhere"


def test_parse_mp_branches_all_means_none():
    assert parse_config_text("mp_branches = all\n").mp_branches is None
    assert parse_config_text("mp_branches = 1,2\n").mp_branches == (1, 2)


def test_parse_bool_spellings():
    for raw, want in (("true", True), ("1", True), ("on", True), ("yes", True),
                      ("false", False), ("0", False), ("off", False), ("no", False)):
        assert parse_config_text(f"augment = {raw}\n").augment is want
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("augment = maybe\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key 'learning_rate'"):
        parse_config_text("learning_rate = 0.1\n")


def test_parse_reports_line_number_for_bad_syntax():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("bits = 4\n\njust some words\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="cannot parse 'abc'"):
        parse_config_text("bits = abc\n")
    with pytest.raises(ConfigError, match="bad list element"):
        parse_config_text("alpha = 1.0,x\n")


def test_apply_overrides():
    cfg = apply_overrides(RunConfig(), ["lr=0.5", "bits = 8"])
    assert cfg.lr == 0.5 and cfg.bits == 8
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(RunConfig(), ["lr0.5"])


def test_load_config_applies_file_overrides_and_env(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("bits = 8\nepochs = 10\nmilestones = 5\ndata_dir = from_file\n")
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    cfg = load_config(str(path), ["lr=0.01"])
    assert cfg.bits == 8 and cfg.lr == 0.01 and cfg.data_dir == "from_file"
    monkeypatch.setenv(DATA_DIR_ENV, "/from/env")
    assert load_config(str(path)).data_dir == "/from/env"


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/run.cfg")


def test_load_config_validates(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bits = 5\n")
    with pytest.raises(ConfigError, match="bits = 5 unsupported"):
        load_config(str(path))


def test_resolved_text_round_trips():
    cfg = RunConfig(bits=8, lr=0.123456789, alpha=(0.5,), arch="resnet8",
                    milestones=(10, 20), mp_branches=None,
                    augment=False, fp_checkpoint="runs/fp.ckpt", seed=3)
    text = resolved_text(cfg)
    assert parse_config_text(text) == cfg
    # canonical text is stable under a second round trip
    assert resolved_text(parse_config_text(text)) == text


def test_resolved_text_renders_all_fields():
    text = resolved_text(RunConfig())
    for f in dataclasses.fields(RunConfig):
        assert f"{f.name} = " in text


def test_legacy_n_blocks_key_loads_when_it_matches_the_arch():
    """n_blocks is derived from arch; archived files that set it still load."""
    assert parse_config_text("n_blocks = 3\n") == RunConfig()
    assert parse_config_text("n_blocks = 3\narch = resnet8\n") == RunConfig(arch="resnet8")
    assert apply_overrides(RunConfig(), ["n_blocks=3"]) == RunConfig()
    assert "n_blocks" not in resolved_text(RunConfig())


def test_legacy_n_blocks_key_rejects_another_count():
    for text in ("n_blocks = 4\n", "arch = resnet8\nn_blocks = 4\n"):
        with pytest.raises(ConfigError, match="n_blocks = 4 but resnet.* has 3 blocks"):
            parse_config_text(text)
    with pytest.raises(ConfigError, match="n_blocks = 2"):
        apply_overrides(RunConfig(), ["n_blocks = 2"])
    with pytest.raises(ConfigError, match="n_blocks = x"):
        parse_config_text("n_blocks = x\n")


def test_archived_rehearsal_config_loads(monkeypatch):
    path = os.path.join(ROOT, "demos", "rehearsal", "bwrf_seed0_resolved.cfg")
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert "n_blocks = 3\n" in text
    cfg = load_config(path)
    assert (cfg.arch, cfg.cos_every, cfg.subset_fraction) == ("resnet8", 10, 0.2)
    assert resolved_text(cfg) == text.replace("n_blocks = 3\n", "")


def desk_scale_demo():
    spec = importlib.util.spec_from_file_location(
        "run_desk_scale", os.path.join(ROOT, "demos", "run_desk_scale.py"))
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


@pytest.mark.parametrize("n", range(1, 9))
def test_desk_scale_epoch_overrides_load(n, monkeypatch):
    """The desk-scale driver's --epochs and --arm-epochs overrides give a
    valid schedule for short runs too, where both decay points would fall
    on one epoch."""
    demo = desk_scale_demo()
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    sets = demo.epoch_sets(n)
    cfg = load_config(os.path.join(ROOT, "configs", "bwrf_arm.cfg"), sets[1::2])
    assert cfg.epochs == n
    assert cfg.milestones == tuple(sorted({n // 2, n * 3 // 4}))


def write_log(path, header, rows):
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("bwrf_wins, line", [
    ([True], "wins on at least 1 of 1 seeds:   ok"),
    ([False], "wins on at least 1 of 1 seeds:   NOT MET"),
    ([True, True, False], "wins on at least 2 of 3 seeds:   ok"),
    ([True, False, False], "wins on at least 2 of 3 seeds:   NOT MET"),
    ([True, True, False, False, False], "wins on at least 3 of 5 seeds:   NOT MET"),
    ([True, True, True, False, False], "wins on at least 3 of 5 seeds:   ok"),
])
def test_desk_scale_seed_wins_need_a_majority(bwrf_wins, line, tmp_path, capsys):
    """The desk-scale verdict asks bwrf to beat the baseline on a majority
    of the seeds run, whatever their number, read from train_log.csv files."""
    write_log(str(tmp_path / "fp" / "train_log.csv"), ["epoch", "test_acc"], [[1, 90.0]])
    for seed, win in enumerate(bwrf_wins):
        write_log(str(tmp_path / f"baseline_seed{seed}" / "train_log.csv"),
                  ["epoch", "acc_Q"], [[1, 80.0]])
        write_log(str(tmp_path / f"bwrf_seed{seed}" / "train_log.csv"),
                  ["epoch", "acc_Q", "acc_M1", "acc_F"],
                  [[1, 81.0 if win else 79.0, 85.0, 90.0]])
    desk_scale_demo().analyze(str(tmp_path), list(range(len(bwrf_wins))))
    assert f"\n  {line}\n" in capsys.readouterr().out


@pytest.mark.parametrize("override, message", [
    (dict(arch="vgg16"), "arch"),
    (dict(arch="resnet21"), "depth must be 6u"),
    (dict(eval_batch_size=0), "batch sizes"),
    (dict(bits=5), "unsupported"),
    (dict(alpha=(1.0,)), "alpha needs 2"),
    (dict(alpha=(1.0, -1.0)), "non-negative"),
    (dict(temperature=0.0), "temperature"),
    (dict(mp_branches=(3,)), "out of range"),
    (dict(epochs=0), "epochs"),
    (dict(milestones=(20, 10), epochs=30), "increasing"),
    (dict(milestones=(10,), epochs=10), "before the final epoch"),
    (dict(lr_decay=0.0), "lr_decay"),
    (dict(lr=0.0), "positive"),
    (dict(scale_lr_mult=0.0), "positive"),
    (dict(momentum=-0.1), "non-negative"),
    (dict(batch_size=0), "batch sizes"),
    (dict(subset_fraction=0.0), "subset_fraction"),
    (dict(data_format="csv"), "data_format"),
    (dict(normalize_mean=(0.5, 0.5)), "per input channel"),
    (dict(normalize_std=(0.2, 0.2, 0.0)), "positive"),
    (dict(branch="M3"), "branch"),
    (dict(branch="bogus"), "branch"),
    (dict(cos_every=-1), "cos_every"),
    (dict(cos_samples=0), "cos_samples"),
])
def test_validate_rejects(override, message):
    with pytest.raises(ConfigError, match=message):
        validate(RunConfig(**override))


def test_validate_accepts_defaults_and_branches():
    validate(RunConfig())
    for branch in ("Q", "F", "M1", "M2"):
        validate(RunConfig(branch=branch))
    validate(RunConfig(bits=32))
    validate(RunConfig(mp_branches=(1,)))
    validate(RunConfig(milestones=()))
