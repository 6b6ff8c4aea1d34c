"""Fast self-test of the benchmark at toy size (about a minute).

    python3 -m pytest -q perfbench/tests

Checks that every metric named in BENCHMARK.json is emitted with its unit
and direction, that the checks pass on correct outputs and fail when one
output is perturbed, and that the run refuses to report without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.fixture(scope="module")
def g():
    return run.import_grmlr()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_unit_and_direction(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--size", "toy",
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert m["better"] in ("lower", "higher")
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and np.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, m["name"]
        assert any(
            line.split()[:1] == [m["name"]] and line.endswith(f"{m['better']} is better")
            for line in lines
        ), m["name"]
    assert any(line.startswith("# env ") for line in lines)


def _perturb(workload: str, wl, rep) -> None:
    """Changes exactly one output of a finished repetition."""
    if workload == "paper-grid":
        # without a golden file only the probe configs are re-run, so perturb one
        probe = next(i for i, c in enumerate(wl.configs()) if c == replace(wl.config, **wl.params["probes"][0]))
        entry = next(e for e in rep.output if e[0] == probe)
        entry[2] += 0.01  # its macro-F1
    elif workload == "stress-loocv":
        fold = rep.output.per_fold[0]
        label_set = rep.output.fold_models[0].label_set
        fold.predicted_label = next(lab for lab in label_set if lab != fold.predicted_label)
    else:
        path = wl.workdir / "predict" / "predictions.csv"
        rows = path.read_text(encoding="utf-8").splitlines()
        cells = rows[1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-6)
        rows[1] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_check_fails_when_one_output_is_perturbed(g, workload, tmp_path):
    wl = run.WORKLOADS[workload](g, SEED, "toy", tmp_path)
    wl.setup()
    rep = wl.run()
    result, record = wl.check(rep, None)
    assert result.ok, result.messages
    golden = json.loads(json.dumps(record))  # as stored in a golden file
    assert wl.check(rep, golden)[0].ok
    _perturb(workload, wl, rep)
    assert not wl.check(rep, golden)[0].ok
    assert not wl.check(rep, None)[0].ok


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_golden_of_one_seed_checks_another(g, workload, tmp_path):
    """Goldens are stored in base order and mapped onto each seed's permutation."""
    records = {}
    for seed in (SEED, SEED + 1):
        (tmp_path / str(seed)).mkdir()
        wl = run.WORKLOADS[workload](g, seed, "toy", tmp_path / str(seed))
        wl.setup()
        rep = wl.run()
        result, record = wl.check(rep, None)
        assert result.ok, result.messages
        base = json.loads(json.dumps(checks.to_base(record, wl.site_order)))
        assert checks.from_base(base, wl.site_order) == json.loads(json.dumps(record))
        records[seed] = (wl, rep, base)
    assert list(records[SEED][0].site_order) != list(records[SEED + 1][0].site_order)
    wl, rep, _ = records[SEED + 1]
    result, _ = wl.check(rep, checks.from_base(records[SEED][2], wl.site_order))
    assert result.ok, result.messages


def test_golden_check_pins_every_grid_entry(g, tmp_path):
    wl = run.PaperGrid(g, SEED, "toy", tmp_path)
    wl.setup()
    rep = wl.run()
    golden = json.loads(json.dumps(wl.check(rep, None)[1]))
    rep.output[-1][2] += 0.01  # macro-F1 of the last-ranked entry
    assert not wl.check(rep, golden)[0].ok


@pytest.mark.parametrize("use_golden", [False, True])
def test_objective_check_fails_for_a_worse_model(g, tmp_path, use_golden):
    wl = run.StressLoocv(g, SEED, "toy", tmp_path)
    wl.setup()
    rep = wl.run()
    _, golden = wl.check(rep, None)
    model = rep.output.fold_models[0]
    rep.output.fold_models[0] = replace(model, weights=np.asarray(model.weights) * 1.01)
    result, _ = wl.check(rep, golden if use_golden else None)
    assert not result.ok
    assert result.objective_excess > 1e-7


def test_repetition_time_is_rescaled_by_the_speed_probe():
    slow = run.Rep(2.0, 10, 0, None, probe_s=2 * run.SPEED_PROBE_REF_S)
    assert slow.ref_seconds == pytest.approx(1.0)
    assert run.end_to_end([slow])["ref_fits_per_s"] == pytest.approx(10.0)
    assert run.Rep(2.0, 10, 0, None).ref_seconds == 2.0  # not probed: raw time
    assert not run.CliRoundtrip.rescaled and run.PaperGrid.rescaled


def test_tracer_wraps_imported_names_and_restores_them(g):
    import grmlr.evaluation as evaluation
    import grmlr.model as model

    original = model.fit_arrays
    tracer = Tracer()
    tracer.install()
    try:
        assert evaluation.fit_arrays is model.fit_arrays
        assert evaluation.fit_arrays.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert evaluation.fit_arrays is original and model.fit_arrays is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "paper-grid", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
