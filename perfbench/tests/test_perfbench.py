"""The benchmark's own checks, on its tiny mode (resnet8, a couple of steps).

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q

They check the result schema, every metric name, the metric-to-workload
mapping and the recorded rationale of each workload, and the exact counts of
the traced run. They assert no timings.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONTEXT_KEYS = {"nproc", "blas", "blas_version", "blas_threads", "numpy", "python", "commit"}


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def untraced():
    proc, lines = run_bench("--workload", "all", "--tiny", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    return lines


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in WORKLOADS:
        proc, lines = run_bench("--workload", name, "--tiny", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(lines[-1])
    return out


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, wl.why) for name, wl in WORKLOADS.items()]
    assert [tuple(m) for m in spec["end_to_end"]] == [("name", "unit", "better", "bound")] * len(
        spec["end_to_end"])
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_names_units_and_rationale_are_well_formed():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for m in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(m.name) and UNIT.fullmatch(m.unit), m
        assert m.better in ("lower", "higher")
    for m in END_TO_END:
        assert 0 < m.bound <= 0.25
    for name, wl in WORKLOADS.items():
        assert wl.why and len(wl.why) <= 200 and "\n" not in wl.why, name


def test_every_layer_metric_names_what_it_moves_and_where():
    e2e = {m.name for m in END_TO_END}
    for m in PER_LAYER:
        assert any(n in m.moves for n in e2e | {"trace.overhead_s"}), m.name
        assert any(w in m.on for w in WORKLOADS), m.name


def test_step_figures_leave_out_each_commands_warm_up_step():
    import run

    def command(steps, traced=False):
        return {"rc": 0, "traced": traced, "wall": 1.0, "peak_rss_mb": 1.0,
                "steps": [{"s": s, "n": 128} for s in steps], "evals": [{"s": 2.0, "n": 64}]}

    result = run.end_to_end({"setups": [0.5], "commands": [
        command([50.0, 2.0]), command([50.0, 4.0]), command([1.0, 1.0], traced=True)]})
    assert result["step_p50_s"] == 3.0
    assert result["train_img_per_s"] == (64.0 + 32.0) / 2


def test_untraced_result_line_and_context(untraced):
    context = next(line for line in untraced if line.startswith("context "))
    assert CONTEXT_KEYS <= set(json.loads(context[len("context "):]))
    result = json.loads(untraced[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {f"{w}.{m.name}" for w in WORKLOADS for m in END_TO_END}
    assert set(result["metrics"]) == want
    units = {m.name: m.unit for m in END_TO_END}
    for key, v in result["metrics"].items():
        assert set(v) == {"value", "unit"} and v["unit"] == units[key.split(".", 1)[1]]
    for m in END_TO_END:
        assert any(line.split()[:1] == [m.name] for line in untraced), m.name
    assert any(line.split()[:1] == ["failed_ratio"] for line in untraced)


def test_traced_run_reports_every_layer_metric_and_exact_counts(traced):
    for name, result in traced.items():
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m.name for m in PER_LAYER}, name
    # resnet8 has one unit per stage: nine convs and ten quantized layers per
    # model. The grafted step runs the LP and FP models and the M1 and M2
    # suffixes; the baseline step runs the LP model alone.
    counts = {name: {k: v["value"] for k, v in r["metrics"].items()} for name, r in traced.items()}
    assert counts["graft-train"]["network.block_calls"] == 9
    assert counts["qat-train"]["network.block_calls"] == 3
    assert counts["graft-train"]["tensor.conv2d.calls"] == 27
    assert counts["qat-train"]["tensor.conv2d.calls"] == 9
    assert counts["graft-train"]["quantizer.quantize.calls"] == 20
    assert counts["qat-train"]["quantizer.quantize.calls"] == 20
    assert counts["qat-train"]["network.fp_forward_s"] == 0
    assert counts["qat-train"]["graft.graft_forward_s"] == 0
    assert counts["graft-train"]["training.cosine_s"] == 0
    for r in counts.values():
        assert r["tensor.tape_nodes"] == int(r["tensor.tape_nodes"]) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("--workload", "graft-train", "--seed", "0", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
