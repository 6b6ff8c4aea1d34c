"""SHA-256 of every golden output of grmlr, for byte-identity checks.

Imports ``grmlr`` from ``--src DIR`` (the directory that holds the
``grmlr`` package) and prints one JSON object mapping each probe to the
SHA-256 of its output. Run it on two source trees and diff the two
outputs: identical lines mean identical bytes.

The object's first entry, ``_env``, is not a probe: it records the BLAS
and OpenMP thread counts (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``)
and the numpy version. The 40x160 fits depend on the thread count in
their last bits, so compare only runs whose ``_env`` lines agree.

    python3 tools/golden_hashes.py --src /path/to/parent/src > parent.json
    python3 tools/golden_hashes.py --src src > change.json
    diff parent.json change.json

Probes, on synthetic datasets at 13x26 and 40x160:

* ``fit`` weights, bias, info and loss history for four configs;
* ``loss`` and ``loss_gradient`` of each fitted model;
* ``loocv(keep_models=True)`` reports plus every fold model's weights,
  bias and diagnostics;
* the CSV of a 96-config ``grid_search`` with workers 1 and 2;
* ``permutation_test(B=5)``, ``ablate`` and ``alpha_sweep``;
* ``grid-edge``: the entries of a 32-config ``grid_search`` that mixes
  lambda_l2 = 0 (flat directions) with fits capped at two iterations
  (which warn), on seed 7 at 13x26 and 9x8, with workers 1 and 2;
* ``permtest-edge``: ``permutation_test(B=5, seed=3)`` with fits capped
  at two iterations (which warn) and with lambda_l2 = 0, on seed 7 at
  13x26 and 9x8, with workers 1 and 2, and ``ablate-edge``: ``ablate``
  with fits capped at two iterations at both scales;
* ``grid-tall``: the entries of a 24-config ``grid_search`` on tall data
  (40x8, seed 7, more training sites than taxa) that mixes lambda_l2 = 0
  with ridge fits and caps some fits at two iterations, with workers 1
  and 2;
* every CLI output file (except ``manifest.json``), stdout, stderr and
  exit code on a synthetic CSV trio.

Every probe also hashes the warnings it raised. A full run takes about
30 s on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

SCALES = {"13x26": (13, 26), "40x160": (40, 160)}
SEEDS = (0, 7)
GRID_96 = {
    "alpha": [0.0, 0.5, 1.0],
    "lambda_g": [0.0, 5.0],
    "tau": [0.5, 0.7],
    "gamma": [0.8, 0.9],
    "co_occurrence_scope": ["train", "all"],
    "class_balanced": [True, False],
}
GRID_EDGE = {
    "lambda_l2": [0.0, 0.02],
    "max_iters": [2, 15000],
    "lambda_g": [0.0, 5.0],
    "alpha": [0.0, 1.0],
    "class_balanced": [True, False],
}
EDGE_SCALES = {"13x26": (13, 26), "9x8": (9, 8)}
GRID_TALL = {
    "lambda_l2": [0.0, 0.001, 0.02],
    "lambda_g": [0.0, 5.0],
    "alpha": [0.0, 1.0],
    "max_iters": [2, 15000],
}
SWEEP_GRID = {"lambda_g": [0.0, 5.0], "tau": [0.5, 0.7], "gamma": [0.8, 0.9]}
SWEEP_ALPHAS = [0.0, 0.3, 0.7, 1.0]


def _feed(h, obj) -> None:
    """Feed a canonical, type-tagged encoding of ``obj`` into hasher ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()};".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:".encode() + obj.encode())
    elif isinstance(obj, bytes):
        h.update(f"b{len(obj)}:".encode() + obj)
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}:".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}:".encode())
        for item in obj:
            _feed(h, item)
    elif hasattr(obj, "to_dict"):
        _feed(h, obj.to_dict())
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def _digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


class Probes:
    def __init__(self) -> None:
        self.hashes: dict[str, str] = {}

    @contextlib.contextmanager
    def probe(self, name: str):
        """Collect the outputs appended to the yielded list, plus warnings."""
        outputs: list = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield outputs
        raised = [(w.category.__name__, str(w.message)) for w in caught]
        self.hashes[name] = _digest([outputs, raised])


def _model_outputs(model) -> list:
    return [
        model.weights,
        model.bias,
        model.converged,
        model.n_iterations,
        model.final_loss,
        model.loss_history,
    ]


def fit_configs(g) -> dict:
    base = g.GrmlrConfig()
    return {
        "default": base,
        "a0-unbalanced": replace(base, alpha=0.0, class_balanced=False),
        "a1-all-l2zero": replace(base, alpha=1.0, co_occurrence_scope="all", lambda_l2=0.0),
        "l2small-lg10": replace(base, lambda_l2=0.001, lambda_g=10.0),
    }


def synth_datasets(g) -> dict:
    """The probes' synthetic datasets, keyed ``<scale>/seed<seed>``."""
    return {
        f"{scale}/seed{seed}": g.synthesize_dataset(
            n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=seed
        )
        for scale, (n, p) in SCALES.items()
        for seed in SEEDS
    }


def probe_fits(g, probes: Probes, datasets: dict) -> None:
    for dname, dataset in datasets.items():
        for cname, config in fit_configs(g).items():
            tag = f"{dname}/{cname}"
            with probes.probe(f"fit/{tag}") as out:
                model, graph = g.fit(dataset, config, track_history=True)
                out += _model_outputs(model)
                out += [graph.a_macro, graph.a_co, graph.adjacency, graph.laplacian]
            features = g.clr_transform(dataset.abundances, config.epsilon)
            if config.class_balanced:
                weights = g.class_balanced_weights(dataset.stages)
            else:
                weights = np.ones(dataset.n_sites)
            with probes.probe(f"loss/{tag}") as out:
                out.append(g.loss(model, features, dataset.stages, graph, weights))
                out += list(g.loss_gradient(model, features, dataset.stages, graph, weights))


def probe_loocv(g, probes: Probes, datasets: dict) -> None:
    for dname, dataset in datasets.items():
        for cname, config in fit_configs(g).items():
            with probes.probe(f"loocv/{dname}/{cname}") as out:
                report = g.loocv(dataset, config, keep_models=True)
                out.append(report.to_dict())
                out += [_model_outputs(m) for m in report.fold_models]


def probe_evaluation(g, probes: Probes, dataset, tmp: Path, name: str) -> None:
    for workers in (1, 2):
        with probes.probe(f"grid96/{name}/workers{workers}") as out:
            result = g.grid_search(dataset, GRID_96, workers=workers)
            path = tmp / f"grid-{name}-{workers}.csv"
            g.evaluation.write_grid_csv(result, path)
            out.append(path.read_bytes())
    config = g.GrmlrConfig()
    with probes.probe(f"permtest/{name}") as out:
        out.append(g.permutation_test(dataset, config, B=5, seed=3))
    with probes.probe(f"ablate/{name}") as out:
        out.append({k: v.to_dict() for k, v in g.ablate(dataset, config).items()})
    for workers in (1, 2):
        with probes.probe(f"alpha_sweep/{name}/workers{workers}") as out:
            out.append(g.alpha_sweep(dataset, config, SWEEP_ALPHAS, SWEEP_GRID, workers))


def probe_grid_edge(g, probes: Probes) -> None:
    scales = [("grid-edge", scale, shape, GRID_EDGE) for scale, shape in EDGE_SCALES.items()]
    scales.append(("grid-tall", "40x8", (40, 8), GRID_TALL))
    for name, scale, (n, p), grid in scales:
        dataset = g.synthesize_dataset(n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        for workers in (1, 2):
            with probes.probe(f"{name}/{scale}/workers{workers}") as out:
                result = g.grid_search(dataset, grid, workers=workers)
                for e in result.entries:
                    out.append([e.index, e.config, e.accuracy, e.macro_f1, e.error])


def probe_permtest_edge(g, probes: Probes) -> None:
    base = g.GrmlrConfig()
    configs = {"iters2": replace(base, max_iters=2), "l2zero": replace(base, lambda_l2=0.0)}
    for scale, (n, p) in EDGE_SCALES.items():
        dataset = g.synthesize_dataset(n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        for cname, config in configs.items():
            for workers in (1, 2):
                with probes.probe(f"permtest-edge/{scale}/{cname}/workers{workers}") as out:
                    out.append(g.permutation_test(dataset, config, B=5, seed=3, workers=workers))
        with probes.probe(f"ablate-edge/{scale}") as out:
            reports = g.ablate(dataset, configs["iters2"])
            out.append({k: v.to_dict() for k, v in reports.items()})


def probe_cli(probes: Probes, tmp: Path) -> None:
    cli = importlib.import_module("grmlr.cli")
    root = tmp / "cli"
    grid = tmp / "grid.txt"
    grid.write_text("lambda_g = 0.0, 5.0\ngamma = 0.8, 0.9\ntau = 0.5, 0.7\n")

    def run(name: str, argv: list[str]) -> None:
        out_dir = root / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with probes.probe(f"cli/{name}") as out:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--out", str(out_dir)])
            out += [code, stdout.getvalue().replace(str(tmp), "<tmp>")]
            out.append(stderr.getvalue().replace(str(tmp), "<tmp>"))
            for path in sorted(out_dir.iterdir()):
                if path.name != "manifest.json":
                    out += [path.name, path.read_bytes()]

    run("synth", ["synth", "--seed", "7"])
    trio = root / "synth"
    data = [
        "--abundances", str(trio / "abundances.csv"),
        "--macrofauna", str(trio / "macrofauna.csv"),
        "--labels", str(trio / "labels.csv"),
    ]
    run("fit", ["fit", *data])
    model = str(root / "fit" / "model.grmlr")
    run("predict", ["predict", "--model", model, "--abundances", str(trio / "abundances.csv")])
    run("loocv", ["eval", "loocv", *data, "--svg"])
    run("permtest", ["eval", "permtest", *data, "--B", "5"])
    run("grid", ["eval", "grid", *data, "--grid", str(grid)])
    run("ablate", ["eval", "ablate", *data])
    run("alpha-sweep", ["eval", "alpha-sweep", *data, "--grid", str(grid), "--alphas", "0,0.5,1", "--svg"])
    run("graph-export", ["graph", "export", *data[:4]])  # the abundances and macrofauna


def import_grmlr(parser: argparse.ArgumentParser, src: str):
    """Import ``grmlr`` from the package directory under ``src``, or exit via ``parser``."""
    src_dir = Path(src).resolve()
    if not (src_dir / "grmlr" / "__init__.py").is_file():
        parser.error(f"no grmlr package under {src_dir}")
    sys.path.insert(0, str(src_dir))
    g = importlib.import_module("grmlr")
    if Path(g.__file__).resolve().parent != src_dir / "grmlr":
        parser.error(f"imported grmlr from {g.__file__}, not from {src_dir}")
    return g


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parents[1] / "src"),
        help="directory that holds the grmlr package (default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    g = import_grmlr(parser, args.src)
    datasets = synth_datasets(g)
    probes = Probes()
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        probe_fits(g, probes, datasets)
        probe_loocv(g, probes, datasets)
        for seed in SEEDS:
            probe_evaluation(g, probes, datasets[f"13x26/seed{seed}"], tmp, f"seed{seed}")
        probe_grid_edge(g, probes)
        probe_permtest_edge(g, probes)
        probe_cli(probes, tmp)
    env = {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
    }
    json.dump({"_env": env, **probes.hashes}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
