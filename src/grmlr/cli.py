"""Command-line entry point for reproducible runs.

Commands
--------
fit            train on abundances + labels (+ macrofauna when alpha > 0)
predict        classify new sites from a model and abundances only
eval loocv     leave-one-out report, coefficient ranking [--svg]
eval permtest  label-permutation significance test [--B --workers]
eval grid      exhaustive hyperparameter grid search [--grid --workers]
eval ablate    component-removal study
eval alpha-sweep  best accuracy per graph-mixing weight [--grid --alphas --workers --svg]
synth          generate a synthetic dataset in the CSV schemas
graph export   write adjacency heatmap CSVs from abundances (+ macrofauna), no labels

Each eval mode takes the input tables, --config, --set, --seed, --out and
--strict, plus the flags listed after it; a command rejects any other flag.

Configuration is a plain ``key = value`` text file mirroring the config
field names; ``--set key=value`` overrides file values, and ``--seed``
overrides the seed from either. Every run writes ``manifest.json`` into
the output directory. Exit codes: 0 ok, 1 input/validation error,
2 non-convergence escalated by ``--strict``.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .dataset import _integer, _read_file, _real, _write_csv, _write_json
from .dataset import STAGE_LABELS, load_dataset, save_dataset, synthesize_dataset
from .ecograph import build_graph, export_heatmaps
from .errors import GrmlrError, InvalidValue, NonConvergenceWarning
from .evaluation import (
    DEFAULT_GRID,
    ablate,
    alpha_sweep,
    coefficient_ranking,
    grid_search,
    loocv,
    permutation_test,
    write_alpha_sweep_csv,
    write_coefficient_csv,
    write_grid_csv,
)
from .model import GrmlrConfig, _blas_threads, _fit_session, build_features, fit, load_model
from .model import predict, predict_proba, save_model
from .svgplot import bar_chart, line_chart

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STRICT_WARNINGS = 2


class _UsageError(GrmlrError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        raise _UsageError(message)


def _bool_from_str(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise InvalidValue(f"expected a boolean, got {text!r}")


def _parse_kv_lines(path: Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(_read_file(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidValue(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise InvalidValue(f"{path}:{lineno}: repeats key '{key}'")
        pairs[key] = value
    return pairs


def _coerce(key: str, value: str, where: str) -> object:
    field = GrmlrConfig.__dataclass_fields__.get(key)
    if field is None:
        raise InvalidValue(f"{where}: unknown config field '{key}'")
    parse = {bool: _bool_from_str, int: _integer, float: _real}.get(type(field.default), str)
    try:
        return parse(value)
    except ValueError as exc:
        raise InvalidValue(f"{where}: bad value for '{key}': {value!r}") from exc


def _coerce_list(key: str, raw: str, where: str) -> list:
    """The values of comma-separated ``raw`` for field ``key``; blank items are skipped."""
    values = [_coerce(key, item.strip(), where) for item in raw.split(",") if item.strip()]
    if not values:
        raise InvalidValue(f"{where}: bad value for '{key}': {raw!r}")
    return values


def _flag_type(parse):
    """``parse`` as an argparse type whose ValueError message becomes the flag's error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


_integer_flag = _flag_type(_integer)
_real_flag = _flag_type(_real)


def load_config(
    config_path: Optional[str],
    overrides: Sequence[str] = (),
    seed: Optional[int] = None,
) -> GrmlrConfig:
    """Defaults, then config file, then --set pairs, then --seed."""
    values: dict[str, object] = {}
    if config_path:
        path = Path(config_path)
        for key, raw in _parse_kv_lines(path).items():
            values[key] = _coerce(key, raw, str(path))
    for pair in overrides:
        if "=" not in pair:
            raise InvalidValue(f"--set expects key=value, got {pair!r}")
        key, raw = (part.strip() for part in pair.split("=", 1))
        values[key] = _coerce(key, raw, "--set")
    if seed is not None:
        values["seed"] = seed
    return GrmlrConfig(**values)


def load_grid(spec: str) -> dict[str, list]:
    """'default' or a key = v1,v2,... file with config-field axes."""
    if spec == "default":
        return {k: list(v) for k, v in DEFAULT_GRID.items()}
    path = Path(spec)
    grid: dict[str, list] = {}
    for key, raw in _parse_kv_lines(path).items():
        grid[key] = _coerce_list(key, raw, str(path))
    if not grid:
        raise InvalidValue(f"{path}: grid file defines no axes")
    return grid


def _require(value, flag: str):
    if value is None:
        raise InvalidValue(f"missing required flag {flag}")
    return value


def _out_dir(args) -> Path:
    """The --out directory; the first file written into it creates it."""
    return Path(_require(args.out, "--out"))


def write_manifest(
    out_dir: Path,
    command: str,
    config_path: Optional[str],
    input_paths: Sequence[str],
    seed: int,
) -> None:
    with _fit_session():  # the BLAS threads that fits run with: 1, or None without OpenBLAS
        blas_threads = _blas_threads()
    manifest = {
        "command": command,
        "config_path": config_path,
        "input_paths": [str(p) for p in input_paths],
        "output_dir": str(out_dir),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "blas_threads": blas_threads,
    }
    _write_json(manifest, out_dir / "manifest.json")


def _load_inputs(args, need_labels: bool, need_macrofauna: bool):
    """The dataset of the table flags and their paths.

    Commands without ``need_labels`` have no --labels flag.
    """
    abundances = _require(args.abundances, "--abundances")
    labels = _require(args.labels, "--labels") if need_labels else None
    if need_macrofauna:
        _require(args.macrofauna, "--macrofauna")
    dataset = load_dataset(abundances, args.macrofauna, labels)
    paths = [p for p in (abundances, args.macrofauna, labels) if p]
    return dataset, paths


def cmd_fit(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    dataset, paths = _load_inputs(args, need_labels=True, need_macrofauna=config.alpha > 0)
    out = _out_dir(args)
    model, graph = fit(dataset, config)
    save_model(model, out / "model.grmlr")
    export_heatmaps(graph, out)
    write_manifest(out, "fit", args.config, paths, config.seed)
    print(f"wrote {out / 'model.grmlr'}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model_path = _require(args.model, "--model")
    abundance_path = _require(args.abundances, "--abundances")
    model = load_model(model_path)
    dataset = load_dataset(abundance_path)
    out = _out_dir(args)
    stages = predict(model, dataset.abundances)
    features = build_features(dataset, model.hyperparams.epsilon, model.feature_mode)
    proba = predict_proba(model, features)
    path = out / "predictions.csv"
    header = ["site_id", "stage", *[f"prob_{lab}" for lab in model.label_set]]
    rows = [[sid, stage, *row] for sid, stage, row in zip(stages.site_ids, stages.labels, proba)]
    _write_csv(path, header, rows, lineterminator="\n")
    write_manifest(out, "predict", None, [model_path, abundance_path], model.hyperparams.seed)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    # the macrofauna counts are needed when some evaluated config has alpha > 0
    alphas = [config.alpha]
    if args.mode in ("grid", "alpha-sweep"):
        grid = load_grid(args.grid)
    if args.mode == "grid":
        alphas = grid.get("alpha", alphas)
    elif args.mode == "alpha-sweep":
        alphas = (
            _coerce_list("alpha", args.alphas, "--alphas")
            if args.alphas is not None
            else list(DEFAULT_GRID["alpha"])
        )
    elif args.mode == "ablate":
        alphas = [1.0]  # the no_co arm
    need_macro = any(a > 0 for a in alphas)
    dataset, paths = _load_inputs(args, need_labels=True, need_macrofauna=need_macro)
    out = _out_dir(args)

    if args.mode == "loocv":
        report = loocv(dataset, config, keep_models=True)
        _write_json(report.to_dict(), out / "loocv_report.json")
        ranking = coefficient_ranking(report.fold_models)
        write_coefficient_csv(ranking, out / "coefficient_ranking.csv")
        if args.svg:
            top = ranking[:10]
            bar_chart(
                [t for t, _ in top],
                [m for _, m in top],
                out / "coefficients.svg",
                "Top taxa by mean weight magnitude",
                "mean ||w_j||",
            )
        print(f"loocv accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    elif args.mode == "permtest":
        report = permutation_test(dataset, config, B=args.B, seed=config.seed, workers=args.workers)
        _write_json(report.to_dict(), out / "permutation_report.json")
        print(
            f"observed={report.observed_accuracy:.4f} "
            f"p={report.p_value:.4f} (B={len(report.permuted_accuracies)})"
        )
    elif args.mode == "grid":
        result = grid_search(dataset, grid, workers=args.workers, base_config=config)
        write_grid_csv(result, out / "grid_results.csv")
        best = result.best()
        print(
            f"{len(result.entries)} configurations; best accuracy={best.accuracy:.4f} "
            f"macro_f1={best.macro_f1:.4f}"
        )
    elif args.mode == "ablate":
        reports = ablate(dataset, config)
        _write_json({name: rep.to_dict() for name, rep in reports.items()}, out / "ablation_report.json")
        for name, rep in reports.items():
            print(f"{name}: accuracy={rep.accuracy:.4f} macro_f1={rep.macro_f1:.4f}")
    else:  # alpha-sweep
        rows = alpha_sweep(dataset, config, alphas, grid=grid, workers=args.workers)
        write_alpha_sweep_csv(rows, out / "alpha_sweep.csv")
        if args.svg:
            line_chart(
                rows,
                out / "alpha_sweep.svg",
                "Best LOOCV accuracy vs graph mixing weight",
                "alpha",
                "best accuracy",
            )
        for alpha, acc in rows:
            print(f"alpha={alpha:g} best_accuracy={acc:.4f}")

    write_manifest(out, f"eval {args.mode}", args.config, paths, config.seed)
    return EXIT_OK


def cmd_synth(args) -> int:
    out = _out_dir(args)
    dataset = synthesize_dataset(
        n=args.n,
        p=args.p,
        K=len(STAGE_LABELS),
        n_blocks=args.blocks,
        coupling=args.coupling,
        noise=args.noise,
        seed=args.seed if args.seed is not None else 0,
    )
    save_dataset(
        dataset,
        out / "abundances.csv",
        out / "macrofauna.csv",
        out / "labels.csv",
    )
    write_manifest(out, "synth", None, [], args.seed if args.seed is not None else 0)
    print(f"wrote {out / 'abundances.csv'}")
    return EXIT_OK


def cmd_graph_export(args) -> int:
    config = load_config(args.config, args.set, args.seed)
    dataset, paths = _load_inputs(args, need_labels=False, need_macrofauna=config.alpha > 0)
    out = _out_dir(args)
    features = build_features(dataset, config.epsilon, "clr")
    graph = build_graph(
        features, dataset.macrofauna, tau=config.tau, gamma=config.gamma, alpha=config.alpha
    )
    export_heatmaps(graph, out)
    write_manifest(out, "graph export", args.config, paths, config.seed)
    print(f"wrote {out / 'adjacency.csv'}")
    return EXIT_OK


_COMMON_FLAGS = {
    "--abundances": dict(help="abundance table CSV"),
    "--macrofauna": dict(help="macrofauna count table CSV"),
    "--labels": dict(help="stage label table CSV"),
    "--config": dict(help="plain key=value config file"),
    "--set": dict(
        action="append", default=[], metavar="KEY=VALUE",
        help="override a config field (repeatable)",
    ),
    "--out": dict(help="output directory"),
    "--seed": dict(type=_integer_flag, help="override the config seed"),
    "--workers": dict(
        type=_integer_flag, default=1,
        help="worker process cap (>= 1); "
        "the pool also stays within the task count and the usable CPUs",
    ),
    "--strict": dict(action="store_true", help="escalate warnings to exit 2"),
    "--svg": dict(action="store_true", help="also render SVG charts"),
    "--B": dict(type=_integer_flag, default=50, help="permutation count"),
    "--grid": dict(default="default", help="'default' or a grid file"),
    "--alphas": dict(help="comma-separated mixing weights"),
}
_TABLES = ("--abundances", "--macrofauna", "--labels")

# The common flags that each eval mode reads besides the tables, --config, --set and --seed.
_EVAL_FLAGS = {
    "loocv": ("--svg",),
    "permtest": ("--B", "--workers"),
    "grid": ("--grid", "--workers"),
    "ablate": (),
    "alpha-sweep": ("--grid", "--alphas", "--workers", "--svg"),
}


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add ``--out``, ``--strict`` and the named common flags that the command reads."""
    for flag in ("--out", "--strict", *flags):
        parser.add_argument(flag, **_COMMON_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grmlr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"grmlr {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_fit = sub.add_parser("fit", help="train a model")
    _add_common(p_fit, *_TABLES, "--config", "--set", "--seed")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="classify sites from abundances only")
    p_pred.add_argument("--model")
    _add_common(p_pred, "--abundances")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="evaluation harness")
    modes = p_eval.add_subparsers(dest="mode", required=True)
    for mode, flags in _EVAL_FLAGS.items():
        p_mode = modes.add_parser(mode)
        _add_common(p_mode, *_TABLES, "--config", "--set", "--seed", *flags)
        p_mode.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate synthetic CSVs")
    p_synth.add_argument("--n", type=_integer_flag, default=13)
    p_synth.add_argument("--p", type=_integer_flag, default=26)
    p_synth.add_argument("--blocks", type=_integer_flag, default=4)
    p_synth.add_argument("--coupling", type=_real_flag, default=0.9)
    p_synth.add_argument("--noise", type=_real_flag, default=0.1)
    _add_common(p_synth, "--seed")
    p_synth.set_defaults(func=cmd_synth)

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command")
    p_export = graph_sub.add_parser("export", help="write adjacency heatmap CSVs")
    _add_common(p_export, "--abundances", "--macrofauna", "--config", "--set", "--seed")
    p_export.set_defaults(func=cmd_graph_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonConvergenceWarning)
        try:
            args = parser.parse_args(argv)
            if not hasattr(args, "func"):
                parser.print_help(sys.stderr)
                return EXIT_VALIDATION
            code = args.func(args)
        except GrmlrError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_VALIDATION
    nonconverged = False
    for w in caught:
        if issubclass(w.category, NonConvergenceWarning):
            print(f"warning: {w.message}", file=sys.stderr)
            nonconverged = True
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if code == EXIT_OK and nonconverged and args.strict:
        return EXIT_STRICT_WARNINGS
    return code


if __name__ == "__main__":
    sys.exit(main())
