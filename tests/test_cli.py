"""Command-line interface: exit codes, output files, manifests, config parsing."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from grmlr import cli
from grmlr.dataset import STAGE_LABELS, AbundanceMatrix, Dataset, load_dataset, save_dataset
from grmlr.errors import InvalidValue
from grmlr.evaluation import DEFAULT_GRID, permutation_test
from grmlr.model import GrmlrConfig, GrmlrModel, load_model, predict, save_model

from datasets import subset

MANIFEST_KEYS = {
    "command",
    "config_path",
    "input_paths",
    "output_dir",
    "seed",
    "tool_version",
    "timestamp",
}


def _trio_args(trio, macrofauna=True):
    args = ["--abundances", str(trio["abundances"]), "--labels", str(trio["labels"])]
    if macrofauna:
        args += ["--macrofauna", str(trio["macrofauna"])]
    return args


@pytest.fixture
def small_grid(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("lambda_g = 0.0, 5.0\ngamma = 0.8\n")
    return path


@pytest.fixture
def model_dir(tmp_path, csv_trio):
    out = tmp_path / "fit"
    assert cli.main(["fit", *_trio_args(csv_trio), "--out", str(out)]) == cli.EXIT_OK
    return out


def _commands(trio, grid, model_path):
    """(argv, expected output files) of every subcommand on a synth trio."""
    trio_args = _trio_args(trio)
    return [
        (["fit", *trio_args], ["model.grmlr", "a_macro.csv", "a_co.csv", "adjacency.csv"]),
        (
            ["predict", "--model", str(model_path), "--abundances", str(trio["abundances"])],
            ["predictions.csv"],
        ),
        (
            ["eval", "loocv", *trio_args, "--svg"],
            ["loocv_report.json", "coefficient_ranking.csv", "coefficients.svg"],
        ),
        (["eval", "permtest", *trio_args, "--B", "3"], ["permutation_report.json"]),
        (["eval", "grid", *trio_args, "--grid", str(grid)], ["grid_results.csv"]),
        (["eval", "ablate", *trio_args], ["ablation_report.json"]),
        (
            ["eval", "alpha-sweep", *trio_args, "--grid", str(grid), "--alphas", "0,1", "--svg"],
            ["alpha_sweep.csv", "alpha_sweep.svg"],
        ),
        (["synth", "--n", "9", "--p", "8"], ["abundances.csv", "macrofauna.csv", "labels.csv"]),
        (
            [
                "graph", "export",
                "--abundances", str(trio["abundances"]),
                "--macrofauna", str(trio["macrofauna"]),
            ],
            ["a_macro.csv", "a_co.csv", "adjacency.csv"],
        ),
    ]


def test_every_command_exits_zero_and_writes_its_outputs(tmp_path, csv_trio, small_grid, model_dir):
    commands = _commands(csv_trio, small_grid, model_dir / "model.grmlr")
    for k, (argv, expected) in enumerate(commands):
        out = tmp_path / f"out{k}"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK, argv
        for name in expected:
            assert (out / name).is_file(), (argv, name)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == " ".join(argv[: 2 if argv[0] in ("eval", "graph") else 1])
        assert manifest["output_dir"] == str(out)


def test_predictions_match_predict_on_the_loaded_model(tmp_path, csv_trio, model_dir):
    out = tmp_path / "pred"
    model_path = model_dir / "model.grmlr"
    argv = ["predict", "--model", str(model_path), "--abundances", str(csv_trio["abundances"])]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = predict(load_model(model_path), load_dataset(csv_trio["abundances"]).abundances)
    assert [r["site_id"] for r in rows] == expected.site_ids
    assert [r["stage"] for r in rows] == expected.labels


def test_near_tie_goes_to_the_highest_score(tmp_path):
    # softmax rounds the scores 0 and 1e-17 to one probability; the scores still differ
    bias = np.array([0.0, 1e-17, 0.0])
    model = GrmlrModel(np.zeros((3, 2)), bias, ["t1", "t2"], STAGE_LABELS, GrmlrConfig())
    save_model(model, tmp_path / "tie.grmlr")
    values = np.array([[0.5, 0.5], [0.2, 0.8]])
    table = tmp_path / "abundances.csv"
    save_dataset(Dataset(AbundanceMatrix(["s1", "s2"], ["t1", "t2"], values), None, None), table)
    assert predict(model, load_dataset(table)).labels == ["adult", "adult"]
    out = tmp_path / "pred"
    argv = ["predict", "--model", str(tmp_path / "tie.grmlr"), "--abundances", str(table)]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    with open(out / "predictions.csv", newline="") as fh:
        assert [row["stage"] for row in csv.DictReader(fh)] == ["adult", "adult"]


def test_unwritable_predictions_exit_one(tmp_path, csv_trio, model_dir, capsys):
    out = tmp_path / "pred"
    (out / "predictions.csv").mkdir(parents=True)
    argv = ["predict", "--model", str(model_dir / "model.grmlr")]
    argv += ["--abundances", str(csv_trio["abundances"]), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"error: cannot write {out / 'predictions.csv'}" in capsys.readouterr().err


def test_predictions_quote_site_ids_with_commas(tmp_path, synth_dataset, model_dir):
    ab = synth_dataset.abundances
    ids = ["s,1", *ab.site_ids[1:]]
    table = tmp_path / "quoted.csv"
    save_dataset(Dataset(AbundanceMatrix(ids, list(ab.taxa_names), ab.values), None, None), table)
    out = tmp_path / "pred"
    argv = ["predict", "--model", str(model_dir / "model.grmlr"), "--abundances", str(table)]
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["site_id", "stage", "prob_juvenile", "prob_adult", "prob_dead"]
    assert [len(r) for r in rows] == [5] * (len(ids) + 1)
    assert [r[0] for r in rows[1:]] == ids


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--abundances", "A"], "missing required flag --labels"),
        (["eval", "loocv", "--abundances", "A", "--labels", "L", "--set", "nope=1"], "nope"),
        (["eval", "loocv", "--set", "class_balanced=maybe"], "boolean"),
        (["eval", "no-such-mode"], "invalid choice"),
        (["eval", "alpha-sweep", "--alphas", "0,abc"], "bad value for 'alpha'"),
        (["eval", "loocv", "--set", "lambda_g"], "--set expects key=value, got 'lambda_g'"),
        (["eval", "alpha-sweep", "--alphas", ""], "error: --alphas: bad value for 'alpha': ''"),
        # padded items read as in a grid file, so the missing table is the first error
        (["eval", "alpha-sweep", "--alphas", "0, 0.5"], "error: missing required flag --abundances"),
    ],
)
def test_validation_errors_exit_one(tmp_path, capsys, argv, message):
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


NOT_PLAIN_NUMERAL_CASES = ["set", "config", "grid", "alphas", "seed", "synth", "noise", "table"]


@pytest.mark.parametrize("numeral", ["1_0", "\u0661\u0660"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("case", NOT_PLAIN_NUMERAL_CASES)
def test_numeral_that_is_not_a_plain_decimal_exits_one(tmp_path, capsys, csv_trio, numeral, case):
    # Python's int() and float() read both numerals as 10
    trio = _trio_args(csv_trio, macrofauna=False)
    path = tmp_path / "input"
    if case == "config":
        path.write_text(f"max_iters = {numeral}\n", encoding="utf-8")
    elif case == "grid":
        path.write_text(f"lambda_g = 0, {numeral}\n", encoding="utf-8")
    elif case == "table":
        rows = csv_trio["macrofauna"].read_text().splitlines()
        rows[1] = rows[1].rsplit(",", 1)[0] + f",{numeral}"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv, message = {
        "set": (["fit", *trio, "--set", f"lambda_g={numeral}"], "--set: bad value for 'lambda_g'"),
        "config": (["fit", *trio, "--config", str(path)], f"{path}: bad value for 'max_iters'"),
        "grid": (["eval", "grid", *trio, "--grid", str(path)], f"{path}: bad value for 'lambda_g'"),
        "alphas": (
            ["eval", "alpha-sweep", *trio, "--alphas", f"0,{numeral}"],
            "--alphas: bad value for 'alpha'",
        ),
        "seed": (
            ["fit", *trio, "--seed", numeral],
            f"argument --seed: not a plain decimal integer: {numeral!r}",
        ),
        "synth": (["synth", "--n", numeral], f"argument --n: not a plain decimal integer: {numeral!r}"),
        "noise": (
            ["synth", "--noise", f"0.{numeral}"],
            f"argument --noise: not a plain decimal number: '0.{numeral}'",
        ),
        "table": (
            ["fit", *trio, "--macrofauna", str(path)],
            "column 'clam': not an integer count",
        ),
    }[case]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_with_infinite_noise_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["synth", "--noise", "inf", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: noise must be in [0, inf), got inf\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["fit"], ["eval", "loocv"], ["eval", "ablate"]], ids=["fit", "loocv", "ablate"]
)
def test_fit_without_a_ridge_exits_one(tmp_path, capsys, csv_trio, command):
    argv = [*command, *_trio_args(csv_trio), "--set", "lambda_l2=0", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: lambda_l2=0.0 is lost to rounding on this fit\n"
    )


def test_config_file_setting_every_field(tmp_path):
    expected = GrmlrConfig(
        epsilon=1e-5,
        tau=0.6,
        gamma=0.85,
        alpha=0.3,
        lambda_l2=0.05,
        lambda_g=2.5,
        ftol=1e-12,
        gtol=1e-8,
        max_iters=500,
        class_balanced=False,
        co_occurrence_scope="all",
        seed=42,
    )
    text = "".join(
        f"{f.name} = {str(getattr(expected, f.name)).lower()}\n" for f in fields(GrmlrConfig)
    )
    path = tmp_path / "config.txt"
    path.write_text(text)
    parsed = cli.load_config(str(path))
    assert parsed == expected
    for f in fields(GrmlrConfig):
        assert type(getattr(parsed, f.name)) is type(getattr(expected, f.name)), f.name
        assert getattr(expected, f.name) != f.default, f"{f.name} left at its default"


def test_grid_with_alpha_zero_needs_no_macrofauna(tmp_path, csv_trio):
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha = 0.0\nlambda_g = 0.0, 5.0\n")
    base = ["eval", "grid", *_trio_args(csv_trio, macrofauna=False), "--grid", str(grid)]
    assert cli.main([*base, "--set", "alpha=0", "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    # without an alpha axis the base config's alpha (default 0.1) decides
    grid.write_text("lambda_g = 0.0, 5.0\n")
    assert cli.main([*base, "--out", str(tmp_path / "b")]) == cli.EXIT_VALIDATION
    assert cli.main([*base, "--set", "alpha=0", "--out", str(tmp_path / "c")]) == cli.EXIT_OK


def test_alpha_sweep_needs_macrofauna_only_for_positive_alphas(tmp_path, csv_trio, small_grid):
    base = [
        "eval",
        "alpha-sweep",
        *_trio_args(csv_trio, macrofauna=False),
        "--grid",
        str(small_grid),
    ]
    assert cli.main([*base, "--alphas", "0", "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    assert cli.main([*base, "--alphas", "0,0.5", "--out", str(tmp_path / "b")]) == (
        cli.EXIT_VALIDATION
    )


def test_eval_loocv_on_three_sites_exits_one(tmp_path, synth_dataset, capsys):
    # one site per stage: a CLI label set holds all three stages, so LOOCV
    # needs 4 sites before its folds' graphs would need 3 training sites
    stages = synth_dataset.stages.labels
    three = subset(synth_dataset, [stages.index(stage) for stage in STAGE_LABELS])
    trio = {name: tmp_path / f"{name}.csv" for name in ("abundances", "macrofauna", "labels")}
    save_dataset(three, trio["abundances"], trio["macrofauna"], trio["labels"])
    argv = ["eval", "loocv", *_trio_args(trio), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "LOOCV needs at least K+1=4 sites, got 3" in capsys.readouterr().err


def test_ablate_always_needs_macrofauna(tmp_path, csv_trio, capsys):
    argv = ["eval", "ablate", *_trio_args(csv_trio, macrofauna=False), "--set", "alpha=0"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    assert "--macrofauna" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["fit"], ["eval", "loocv"], ["eval", "permtest", "--B", "2", "--workers", "2"]],
)
def test_strict_escalates_nonconvergence(tmp_path, csv_trio, capsys, argv):
    base = [*argv, *_trio_args(csv_trio), "--set", "max_iters=1"]
    assert cli.main([*base, "--out", str(tmp_path / "lax")]) == cli.EXIT_OK
    assert "warning: optimizer hit max_iters=1" in capsys.readouterr().err
    strict = [*base, "--strict", "--out", str(tmp_path / "strict")]
    assert cli.main(strict) == cli.EXIT_STRICT_WARNINGS


def test_worker_warnings_reach_stderr(tmp_path, csv_trio, capsys):
    base = ["eval", "permtest", *_trio_args(csv_trio), "--B", "2", "--set", "max_iters=1"]
    printed = {}
    for workers in ("1", "2"):
        out = str(tmp_path / workers)
        assert cli.main([*base, "--workers", workers, "--out", out]) == cli.EXIT_OK
        printed[workers] = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
        ]
    assert len(printed["1"]) == 3 * 13  # observed run and B=2 permutations, 13 folds each
    assert printed["2"] == printed["1"]


def test_other_warnings_still_reach_stderr(tmp_path):
    script = (
        "import sys, warnings\n"
        "import grmlr.cli as cli\n"
        "original = cli.synthesize_dataset\n"
        "def noisy(**kw):\n"
        "    warnings.warn('synthetic trouble', RuntimeWarning)\n"
        "    return original(**kw)\n"
        "cli.synthesize_dataset = noisy\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, "synth", "--strict", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == cli.EXIT_OK
    assert "RuntimeWarning: synthetic trouble" in proc.stderr


REMOVED_FLAGS = [
    (command, flag)
    for command in (["fit"], ["predict"], ["synth"], ["graph", "export"])
    for flag in (["--workers", "2"], ["--svg"])
] + [
    (["predict"], ["--config", "c.txt"]),
    (["predict"], ["--set", "alpha=0"]),
    (["predict"], ["--seed", "3"]),
    (["synth"], ["--config", "c.txt"]),
    (["synth"], ["--set", "alpha=0"]),
    (["synth"], ["--k", "2"]),  # synth always writes the three stages of labels.csv
    (["graph", "export"], ["--labels", "l.csv"]),  # no graph output depends on the labels
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_commands_reject_flags_they_ignore(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert cli.main([*command, *flag, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


EVAL_IGNORED_FLAGS = [
    ("loocv", ["--B", "5"]),
    ("loocv", ["--grid", "g.txt"]),
    ("loocv", ["--alphas", "0,1"]),
    ("loocv", ["--workers", "0"]),
    ("permtest", ["--grid", "g.txt"]),
    ("permtest", ["--alphas", "0,1"]),
    ("permtest", ["--svg"]),
    ("grid", ["--B", "5"]),
    ("grid", ["--alphas", "0,1"]),
    ("grid", ["--svg"]),
    ("ablate", ["--B", "5"]),
    ("ablate", ["--grid", "g.txt"]),
    ("ablate", ["--alphas", "0,1"]),
    ("ablate", ["--workers", "-3"]),
    ("ablate", ["--svg"]),
    ("alpha-sweep", ["--B", "5"]),
]


@pytest.mark.parametrize(
    "mode, flag", EVAL_IGNORED_FLAGS, ids=[f"{m} {' '.join(f)}" for m, f in EVAL_IGNORED_FLAGS]
)
def test_eval_modes_reject_flags_they_ignore(tmp_path, capsys, mode, flag):
    out = tmp_path / "out"
    assert cli.main(["eval", mode, *flag, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_value_exits_one(tmp_path, csv_trio, capsys, value):
    argv = ["fit", *_trio_args(csv_trio), "--set", f"lambda_l2={value}"]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert "error: lambda_l2 must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_predict_with_malformed_model_exits_one(tmp_path, csv_trio, model_dir, capsys):
    model_path = tmp_path / "broken.grmlr"
    payload = json.loads((model_dir / "model.grmlr").read_text())
    del payload["weights"]
    model_path.write_text(json.dumps(payload))
    argv = ["predict", "--model", str(model_path), "--abundances", str(csv_trio["abundances"])]
    assert cli.main([*argv, "--out", str(tmp_path / "pred")]) == cli.EXIT_VALIDATION
    assert f"error: {model_path}: malformed model file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, bad", [("converged", "false"), ("n_iterations", 7.9), ("class_balanced", "no")]
)
def test_predict_with_wrongly_typed_model_exits_one(
    tmp_path, csv_trio, model_dir, capsys, key, bad
):
    model_path = tmp_path / "edited.grmlr"
    payload = json.loads((model_dir / "model.grmlr").read_text())
    (payload["config"] if key in payload["config"] else payload)[key] = bad
    model_path.write_text(json.dumps(payload))
    argv = ["predict", "--model", str(model_path), "--abundances", str(csv_trio["abundances"])]
    assert cli.main([*argv, "--out", str(tmp_path / "pred")]) == cli.EXIT_VALIDATION
    assert f"error: {model_path}: malformed model file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "loader, text, key",
    [
        (cli.load_config, "lambda_g = 5\nalpha = 0\nlambda_g = 0\n", "lambda_g"),
        (cli.load_grid, "alpha = 0, 0.5\n# comment\nalpha = 1\n", "alpha"),
    ],
    ids=["config", "grid"],
)
def test_repeated_key_in_a_file_is_rejected(tmp_path, loader, text, key):
    path = tmp_path / "settings.txt"
    path.write_text(text)
    with pytest.raises(InvalidValue, match=f"^{re.escape(str(path))}:3: repeats key '{key}'$"):
        loader(str(path))


def _loaded_model_fields(path):
    model = load_model(path)
    return (
        model.weights.tolist(),
        model.bias.tolist(),
        model.taxa_names,
        model.label_set,
        model.hyperparams,
        (model.feature_mode, model.converged, model.n_iterations, model.final_loss),
    )


@pytest.mark.parametrize(
    "name, text, load",
    [
        ("config.txt", "epsilon = 1e-5\nlambda_g = 2\n", cli.load_config),
        ("grid.txt", "alpha = 0, 0.5\nlambda_g = 1\n", cli.load_grid),
        ("model.grmlr", None, _loaded_model_fields),
    ],
    ids=["config", "grid", "model"],
)
def test_byte_order_mark_is_ignored(tmp_path, name, text, load):
    plain = tmp_path / name
    if text is None:
        model = GrmlrModel(
            np.arange(6.0).reshape(3, 2),
            np.array([0.5, -0.5, 0.0]),
            ["t1", "t2"],
            STAGE_LABELS,
            GrmlrConfig(lambda_g=2.0),
            n_iterations=3,
            final_loss=0.25,
        )
        save_model(model, plain)
    else:
        plain.write_text(text)
    marked = tmp_path / f"marked_{name}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load(str(marked)) == load(str(plain))


def test_repeated_grid_key_exits_one(tmp_path, csv_trio, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("alpha = 0, 0.5\nalpha = 1\n")
    argv = ["eval", "grid", *_trio_args(csv_trio), "--grid", str(grid)]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    assert f"error: {grid}:2: repeats key 'alpha'" in capsys.readouterr().err


def test_set_still_overrides_the_config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("lambda_g = 5\n")
    assert cli.load_config(str(path), ["lambda_g=0", "lambda_g=2"]).lambda_g == 2.0


def test_seed_flag_overrides_the_config_file_seed(tmp_path, csv_trio):
    config = tmp_path / "config.txt"
    config.write_text("seed = 5\n")
    common = [*_trio_args(csv_trio), "--config", str(config), "--seed", "9"]
    fitted, permuted = tmp_path / "fit", tmp_path / "permtest"
    assert cli.main(["fit", *common, "--out", str(fitted)]) == cli.EXIT_OK
    argv = ["eval", "permtest", *common, "--B", "5", "--out", str(permuted)]
    assert cli.main(argv) == cli.EXIT_OK
    for out in (fitted, permuted):
        assert json.loads((out / "manifest.json").read_text())["seed"] == 9
    assert load_model(fitted / "model.grmlr").hyperparams.seed == 9
    report = json.loads((permuted / "permutation_report.json").read_text())
    dataset = load_dataset(csv_trio["abundances"], csv_trio["macrofauna"], csv_trio["labels"])
    seeded = {s: permutation_test(dataset, GrmlrConfig(seed=s), B=5, seed=s) for s in (5, 9)}
    assert report["p_value"] == seeded[9].p_value
    assert report["permuted_accuracies"] == seeded[9].permuted_accuracies
    assert seeded[5].permuted_accuracies != seeded[9].permuted_accuracies


def test_true_booleans_load_from_a_file_and_from_set(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("class_balanced = TRUE\n")
    assert cli.load_config(str(path)).class_balanced is True
    path.write_text("class_balanced = false\n")
    assert cli.load_config(str(path)).class_balanced is False
    assert cli.load_config(str(path), ["class_balanced=yes"]).class_balanced is True


def test_alpha_sweep_without_alphas_sweeps_the_default_grid_alphas(tmp_path, csv_trio):
    grid = tmp_path / "grid.txt"
    grid.write_text("lambda_g = 5.0\n")  # one config per alpha
    out = tmp_path / "out"
    argv = ["eval", "alpha-sweep", *_trio_args(csv_trio), "--grid", str(grid), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    with open(out / "alpha_sweep.csv", newline="") as fh:
        alphas = [float(row["alpha"]) for row in csv.DictReader(fh)]
    assert alphas == DEFAULT_GRID["alpha"] and len(alphas) == 11


def test_no_command_prints_usage_and_exits_one(capsys):
    assert cli.main([]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: grmlr") and captured.out == ""


def test_synth_trio_has_every_stage(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["synth", "--n", "9", "--p", "8", "--out", str(out)]) == cli.EXIT_OK
    labels = load_dataset(out / "abundances.csv", None, out / "labels.csv").stages
    assert set(labels.labels) == set(labels.label_set) == {"juvenile", "adult", "dead"}


@pytest.mark.parametrize(
    "argv",
    [
        ["fit"],
        ["eval", "loocv"],
        ["eval", "permtest", "--B", "2"],
        ["eval", "grid", "--grid", "GRID"],
        ["eval", "ablate"],
        ["eval", "alpha-sweep", "--grid", "GRID", "--alphas", "0,1"],
    ],
)
def test_missing_stage_exits_one_naming_it(tmp_path, csv_trio, small_grid, capsys, argv):
    labels = csv_trio["labels"]
    labels.write_text(labels.read_text().replace(",dead", ",adult"))
    argv = [str(small_grid) if arg == "GRID" else arg for arg in argv]
    out = tmp_path / "out"
    assert cli.main([*argv, *_trio_args(csv_trio), "--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "error: no site has stage 'dead'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--set", "lambda_l2=0"],
        ["eval", "loocv", "--set", "lambda_l2=0"],
        ["eval", "permtest", "--B", "0"],
    ],
    ids=["fit", "loocv", "permtest"],
)
def test_failed_command_leaves_no_out_directory(tmp_path, csv_trio, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, *_trio_args(csv_trio), "--out", str(out)]) == cli.EXIT_VALIDATION
    assert not out.exists()


def test_count_beyond_int64_exits_one(tmp_path, csv_trio, capsys):
    macrofauna = csv_trio["macrofauna"]
    header, first, *rest = macrofauna.read_text().splitlines()
    site, _, *counts = first.split(",")
    macrofauna.write_text("\n".join([header, ",".join([site, "9" * 20, *counts]), *rest]) + "\n")
    out = tmp_path / "out"
    assert cli.main(["fit", *_trio_args(csv_trio), "--out", str(out)]) == cli.EXIT_VALIDATION
    column = header.split(",")[1]
    assert capsys.readouterr().err == (
        f"error: {macrofauna}: site_id '{site}', column '{column}': "
        f"count {'9' * 20} above the int64 maximum\n"
    )


@pytest.mark.parametrize("mode", [["permtest", "--B", "2"], ["grid", "--grid", "GRID"]])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_one(tmp_path, csv_trio, small_grid, capsys, mode, workers):
    mode = [str(small_grid) if arg == "GRID" else arg for arg in mode]
    argv = ["eval", *mode, *_trio_args(csv_trio), "--workers", workers]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_config_line_without_equals_sign(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("alpha = 0\nlambda_g 5\n")
    message = f"^{re.escape(str(path))}:2: expected 'key = value', got 'lambda_g 5'$"
    with pytest.raises(InvalidValue, match=message):
        cli.load_config(str(path))


def test_grid_file_without_axes(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("# nothing here\n\n")
    with pytest.raises(InvalidValue, match=f"^{re.escape(str(path))}: grid file defines no axes$"):
        cli.load_grid(str(path))


def test_grid_axis_without_values(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("lambda_g = 0\ntau = , \n")
    message = f"^{re.escape(str(path))}: bad value for 'tau': ','$"
    with pytest.raises(InvalidValue, match=message):
        cli.load_grid(str(path))


def test_out_directory_that_cannot_be_created_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert cli.main(["synth", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert f"error: cannot create {out}: " in capsys.readouterr().err
