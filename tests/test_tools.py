"""The verification tools under tools/: the two-tree parity checks and paired timing."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

sys.path.insert(0, str(ROOT / "perfbench"))

import golden_hashes  # noqa: E402
import paired_timing  # noqa: E402
import run as perfbench_run  # noqa: E402


def _model(final_loss: float = 0.5, shift: float = 0.0):
    return SimpleNamespace(
        weights=np.array([[1.0, -1.0], [-1.0, 1.0]]) + shift,
        bias=np.array([0.5, -0.5]),
        n_iterations=7,
        converged=True,
        final_loss=final_loss,
    )


def _parity(predicted: str = "adult", accuracy: float = 1.0, final_loss: float = 0.5) -> dict:
    """The parity record of one loocv, one fit and one grid probe, as a one-tree run collects it."""
    return {
        "loocv/x": (0.02, [_model(final_loss)], [{"site_id": "s0", "predicted": predicted}]),
        "fit/x": (0.02, [_model()], None),
        "grid96/x": [[0, {"alpha": 0.1}, accuracy, 1.0, None]],
    }


def test_report_parity_passes_on_equal_inputs(capsys):
    assert golden_hashes.report_parity(_parity(), _parity()) is False
    assert "every LOOCV prediction and grid entry is equal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "changed, named",
    [
        (dict(predicted="dead"), "predictions or grid entries differ in: loocv/x"),
        (dict(accuracy=0.9), "predictions or grid entries differ in: grid96/x"),
        (
            dict(final_loss=0.5 * (1 + 2 * golden_hashes.OBJECTIVE_RTOL)),
            "final_loss rises above the bound in: loocv/x",
        ),
    ],
    ids=["prediction", "grid-entry", "objective-excess"],
)
def test_report_parity_fails(capsys, changed, named):
    assert golden_hashes.report_parity(_parity(), _parity(**changed)) is True
    assert named in capsys.readouterr().out


def test_report_parity_allows_a_lower_objective_and_other_weights(capsys):
    a = _parity()
    b = {**_parity(final_loss=0.25), "fit/x": (0.02, [_model(shift=1e-3)], None)}
    assert golden_hashes.report_parity(a, b) is False
    capsys.readouterr()


def test_twin_splits_names_the_split_twin():
    hashes = {"x/workers1": "a", "x/workers2": "b", "y/workers1": "c", "y/workers2": "c", "z": "d"}
    assert golden_hashes.twin_splits(hashes) == ["x/workers2"]


def test_digest_tells_types_apart():
    values = [1, 1.0, True, "1", b"1"]
    assert len({golden_hashes._digest(v) for v in values}) == len(values)


def test_paired_timing_runs_one_pair_on_one_tree(capsys):
    src = str(ROOT / "src")
    argv = ["--src", src, "--src", src, "--call", "paper-grid", "--pairs", "1"]
    assert paired_timing.main(argv) == 0
    assert "paper-grid: 1 pairs" in capsys.readouterr().out


def test_paired_timing_seed_permutes_as_perfbench_does(capsys):
    src = str(ROOT / "src")
    argv = ["--src", src, "--src", src, "--call", "paper-grid", "--pairs", "1", "--seed", "3"]
    assert paired_timing.main(argv) == 0
    assert "paper-grid: 1 pairs" in capsys.readouterr().out
    g = paired_timing.load_tree(src, "grmlr_seeded")
    base = g.synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
    seeded = paired_timing.permuted(g, base, 3)
    bench, _ = perfbench_run.seeded_dataset(g, 13, 26, 3)
    assert seeded.abundances.site_ids == bench.abundances.site_ids != base.abundances.site_ids
    assert seeded.abundances.taxa_names == bench.abundances.taxa_names
    assert seeded.abundances.values.tobytes() == bench.abundances.values.tobytes()
    assert seeded.macrofauna.values.tobytes() == bench.macrofauna.values.tobytes()
    assert seeded.stages.labels == bench.stages.labels
