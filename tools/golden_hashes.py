"""SHA-256 of every golden output of grmlr, for byte-identity checks.

With one ``--src DIR`` (the directory that holds the ``grmlr`` package)
it prints one JSON object mapping each probe to the SHA-256 of its
output. Its first entry, ``_env``, is not a probe: it records the BLAS
and OpenMP thread counts and the numpy version. The 40x160 fits depend
on the thread count in their last bits, so compare only outputs whose
``_env`` lines agree. When a ``.../workers2`` probe's hash differs from
its ``.../workers1`` twin's, it names the probe on stderr and exits 1.

    python3 tools/golden_hashes.py --src /path/to/parent/src --src src

Given ``--src`` twice, it loads both trees into one process (as
``grmlr_a`` and ``grmlr_b``, so both see the same BLAS threads), runs the
probes once per tree and compares what they computed. A solver change
can alter the last bits of every fitted W, so hashes cannot tell a
rounding change from a regression. For each ``fit/*`` and ``loocv/*``
probe it prints lambda_l2, both trees' iteration counts and converged
flags (summed over folds), the worst relative change of [W | b] (max
|dV| / max |V| of the first tree), the worst relative and absolute change
of ``final_loss``, and whether every held-out prediction is equal; each
workers-1 ``grid96/*`` probe is equal when all its entries are. A summary
gives the worst signed objective excess (f_B - f_A) / |f_A| over the 496
fits. Then it lists the probes whose hashes differ and each tree's twin
check. It exits 1 on a twin split, a differing prediction or grid entry,
or a ``final_loss`` in B more than ``OBJECTIVE_RTOL`` relative above A's;
a hash difference alone, which solver changes make by design, does not.

Probes, on synthetic datasets at 13x26 and 40x160:

* ``fit`` weights, bias and info for four configs;
* ``loss`` and ``loss_gradient`` of each fitted model;
* ``loocv(keep_models=True)`` reports plus every fold model's weights,
  bias and diagnostics;
* the CSV of a 96-config ``grid_search`` with workers 1 and 2;
* ``permutation_test(B=5)``, ``ablate`` and ``alpha_sweep``;
* ``grid-edge``: the entries of a 48-config ``grid_search`` that mixes
  lambda_l2 = 0 (entries that fail with InvalidValue), a weak ridge
  (1e-9) and fits capped at two iterations (which warn), on seed 7 at
  13x26 and 9x8, with workers 1 and 2;
* ``permtest-edge``: ``permutation_test(B=5, seed=3)`` with fits capped
  at two iterations (which warn) and with a weak ridge (lambda_l2 = 1e-9),
  on seed 7 at 13x26 and 9x8, with workers 1 and 2, and ``ablate-edge``:
  ``ablate`` with fits capped at two iterations at both scales;
* ``grid-tall``: the entries of a 32-config ``grid_search`` on tall data
  (40x8, seed 7, more training sites than taxa) that mixes lambda_l2 = 0
  (failed entries) and a weak ridge with firmer ridges and caps some fits
  at two iterations, with workers 1 and 2;
* ``plan/<scale>/<seed>/<mode>``: the LOOCV plan of ``evaluation.build_plan``
  (features, the Spearman matrix of every site's features that
  ``evaluation._fold_correlations`` gives under scope 'all', and for each
  fold i its training rows ``train[i]`` and the Spearman matrix and
  macro-coupling profiles, None without macrofauna, that it gives for the
  fold alone) in ``clr`` and ``raw`` feature modes, on the 13x26 and
  40x160 datasets and on a tie-heavy 12x10 table of small integers with
  repeated rows and with columns that are constant, or constant once one
  site is removed;
* every CLI output file (except ``manifest.json``), stdout, stderr and
  exit code on a synthetic CSV trio;
* the hard regime: ``fit`` and ``loocv`` at the default config, the
  96-config ``grid_search`` with workers 1 and ``permutation_test(B=5,
  seed=3)`` on four noisy 13x26 datasets (noise 1.5 and 2.0, seeds 0 and
  7), where LOOCV accuracies and grid entries spread instead of all
  reading 1.0 as they do at noise 0.1;
* the paths no probe above takes, with reports, grid entries and graph
  matrices hashed but no fitted weights, so that a change that only
  rounds fits differently leaves them equal. On the 13x26 seed-0 data:
  ``one-site-class``, relabelled so that 'dead' has one site (so one
  fold of every LOOCV is skipped): ``loocv``, the 4-config ``SMALL_GRID``
  and ``permutation_test(B=5, seed=3)``; ``no-macrofauna``, without the
  macrofauna table: the ``build_graph`` matrices at alpha = 0, ``loocv``
  at alpha = 0 and ``SMALL_GRID``, whose alpha = 0.5 entries fail with
  MissingMacrofauna. ``cache-eviction``: ``EVICTION_GRID`` at 13x400,
  whose fold graphs of 1.28 MB each the batch evaluator builds one fold
  per block (the name predates the deleted fold-graph cache).
  Every grid and permutation test runs with workers 1 and 2.

Every probe also hashes the warnings it raised; there are 122 probes. A
one-tree run takes about 10 s on two cores, a two-tree run about 21 s.
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

from paired_timing import load_tree  # also puts perfbench/ on sys.path

# A fit of the second tree may end above the first tree's objective by
# OBJECTIVE_RTOL relative: the tolerance perfbench/checks.py applies to the
# benchmark's fits, so no solver change may make the training objective
# worse by more than the benchmark allows.
from checks import OBJECTIVE_RTOL

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
    "lambda_l2": [0.0, 1e-9, 0.02],
    "max_iters": [2, 15000],
    "lambda_g": [0.0, 5.0],
    "alpha": [0.0, 1.0],
    "class_balanced": [True, False],
}
EDGE_SCALES = {"13x26": (13, 26), "9x8": (9, 8)}
GRID_TALL = {
    "lambda_l2": [0.0, 1e-9, 0.001, 0.02],
    "lambda_g": [0.0, 5.0],
    "alpha": [0.0, 1.0],
    "max_iters": [2, 15000],
}
SMALL_GRID = {"alpha": [0.0, 0.5], "lambda_g": [0.0, 5.0]}
EVICTION_GRID = {"tau": [0.5, 0.7], "lambda_g": [0.0, 5.0]}
SWEEP_GRID = {"lambda_g": [0.0, 5.0], "tau": [0.5, 0.7], "gamma": [0.8, 0.9]}
SWEEP_ALPHAS = [0.0, 0.3, 0.7, 1.0]
HARD_NOISES = (1.5, 2.0)


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
        # what two trees' runs compare: (lambda_l2, models, predictions or None)
        # of each fit/* and loocv/* probe, and the entries of each workers-1 grid96/*
        self.parity: dict[str, object] = {}

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
    ]


def fit_configs(g) -> dict:
    base = g.GrmlrConfig()
    return {
        "default": base,
        "a0-unbalanced": replace(base, alpha=0.0, class_balanced=False),
        "a1-all-l2weak": replace(base, alpha=1.0, co_occurrence_scope="all", lambda_l2=1e-9),
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


def hard_datasets(g) -> dict:
    """The hard-regime datasets, keyed ``13x26-noise<noise>/seed<seed>``."""
    return {
        f"13x26-noise{noise}/seed{seed}": g.synthesize_dataset(
            n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=noise, seed=seed
        )
        for noise in HARD_NOISES
        for seed in SEEDS
    }


def _probe_fit(g, probes: Probes, tag: str, dataset, config):
    """The ``fit/<tag>`` probe: the model's outputs and graph matrices; returns both."""
    with probes.probe(f"fit/{tag}") as out:
        model, graph = g.fit(dataset, config)
        out += _model_outputs(model)
        out += [graph.a_macro, graph.a_co, graph.adjacency, graph.laplacian]
    probes.parity[f"fit/{tag}"] = (config.lambda_l2, [model], None)
    return model, graph


def probe_fits(g, probes: Probes, datasets: dict) -> None:
    for dname, dataset in datasets.items():
        for cname, config in fit_configs(g).items():
            tag = f"{dname}/{cname}"
            model, graph = _probe_fit(g, probes, tag, dataset, config)
            features = g.clr_transform(dataset.abundances, config.epsilon)
            if config.class_balanced:
                weights = g.class_balanced_weights(dataset.stages)
            else:
                weights = np.ones(dataset.n_sites)
            with probes.probe(f"loss/{tag}") as out:
                out.append(g.loss(model, features, dataset.stages, graph, weights))
                out += list(g.loss_gradient(model, features, dataset.stages, graph, weights))


def probe_loocv(g, probes: Probes, datasets: dict, configs: dict) -> None:
    for dname, dataset in datasets.items():
        for cname, config in configs.items():
            name = f"loocv/{dname}/{cname}"
            with probes.probe(name) as out:
                report = g.loocv(dataset, config, keep_models=True)
                out.append(report.to_dict())
                out += [_model_outputs(m) for m in report.fold_models]
            probes.parity[name] = (config.lambda_l2, report.fold_models, out[0]["per_fold"])


def _probe_grid96(g, probes: Probes, dataset, tmp: Path, name: str, workers: int) -> None:
    with probes.probe(f"grid96/{name}/workers{workers}") as out:
        result = g.grid_search(dataset, GRID_96, workers=workers)
        path = tmp / "grid96.csv"
        g.evaluation.write_grid_csv(result, path)
        out.append(path.read_bytes())
    if workers == 1:
        probes.parity[f"grid96/{name}"] = [
            [e.index, e.config.to_dict(), e.accuracy, e.macro_f1, e.error] for e in result.entries
        ]


def _probe_permtest(g, probes: Probes, dataset, name: str) -> None:
    with probes.probe(f"permtest/{name}") as out:
        out.append(g.permutation_test(dataset, g.GrmlrConfig(), B=5, seed=3))


def probe_evaluation(g, probes: Probes, dataset, tmp: Path, name: str) -> None:
    for workers in (1, 2):
        _probe_grid96(g, probes, dataset, tmp, name, workers)
    _probe_permtest(g, probes, dataset, name)
    config = g.GrmlrConfig()
    with probes.probe(f"ablate/{name}") as out:
        out.append({k: v.to_dict() for k, v in g.ablate(dataset, config).items()})
    for workers in (1, 2):
        with probes.probe(f"alpha_sweep/{name}/workers{workers}") as out:
            out.append(g.alpha_sweep(dataset, config, SWEEP_ALPHAS, SWEEP_GRID, workers))


def probe_hard(g, probes: Probes, tmp: Path) -> None:
    """fit, loocv, workers-1 grid96 and permtest probes on the hard-regime datasets."""
    datasets = hard_datasets(g)
    config = g.GrmlrConfig()
    for dname, dataset in datasets.items():
        _probe_fit(g, probes, f"{dname}/default", dataset, config)
        _probe_grid96(g, probes, dataset, tmp, dname, 1)
        _probe_permtest(g, probes, dataset, dname)
    probe_loocv(g, probes, datasets, {"default": config})


def probe_grid_edge(g, probes: Probes) -> None:
    scales = [("grid-edge", scale, shape, GRID_EDGE) for scale, shape in EDGE_SCALES.items()]
    scales.append(("grid-tall", "40x8", (40, 8), GRID_TALL))
    for name, scale, (n, p), grid in scales:
        dataset = g.synthesize_dataset(n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        for workers in (1, 2):
            with probes.probe(f"{name}/{scale}/workers{workers}") as out:
                out += _grid_entries(g.grid_search(dataset, grid, workers=workers))


def _grid_entries(result) -> list:
    return [[e.index, e.config, e.accuracy, e.macro_f1, e.error] for e in result.entries]


def probe_branches(g, probes: Probes, dataset) -> None:
    """The one-site-class, no-macrofauna and cache-eviction probes; ``dataset`` is 13x26 seed 0."""
    stages = dataset.stages
    first = stages.labels.index("dead")
    labels = [
        "adult" if lab == "dead" and i != first else lab for i, lab in enumerate(stages.labels)
    ]
    one_site = g.Dataset(
        dataset.abundances,
        dataset.macrofauna,
        g.StageLabels(list(stages.site_ids), labels, stages.label_set),
    )
    no_macro = g.Dataset(dataset.abundances, None, stages)
    eviction = g.synthesize_dataset(n=13, p=400, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
    base = g.GrmlrConfig()
    co_only = replace(base, alpha=0.0)
    with probes.probe("one-site-class/13x26/loocv") as out:
        out.append(g.loocv(one_site, base).to_dict())
    with probes.probe("no-macrofauna/13x26/graph") as out:
        features = g.clr_transform(no_macro.abundances, base.epsilon)
        graph = g.build_graph(features, None, tau=base.tau, gamma=base.gamma, alpha=0.0)
        out += [graph.a_macro, graph.a_co, graph.adjacency, graph.laplacian]
    with probes.probe("no-macrofauna/13x26/loocv") as out:
        out.append(g.loocv(no_macro, co_only).to_dict())
    for workers in (1, 2):
        for name, data, grid in (
            ("one-site-class/13x26", one_site, SMALL_GRID),
            ("no-macrofauna/13x26", no_macro, SMALL_GRID),
            ("cache-eviction/13x400", eviction, EVICTION_GRID),
        ):
            with probes.probe(f"{name}/grid/workers{workers}") as out:
                out += _grid_entries(g.grid_search(data, grid, workers=workers))
        with probes.probe(f"one-site-class/13x26/permtest/workers{workers}") as out:
            out.append(g.permutation_test(one_site, base, B=5, seed=3, workers=workers))


def probe_permtest_edge(g, probes: Probes) -> None:
    base = g.GrmlrConfig()
    configs = {"iters2": replace(base, max_iters=2), "l2weak": replace(base, lambda_l2=1e-9)}
    for scale, (n, p) in EDGE_SCALES.items():
        dataset = g.synthesize_dataset(n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        for cname, config in configs.items():
            for workers in (1, 2):
                with probes.probe(f"permtest-edge/{scale}/{cname}/workers{workers}") as out:
                    out.append(g.permutation_test(dataset, config, B=5, seed=3, workers=workers))
        with probes.probe(f"ablate-edge/{scale}") as out:
            reports = g.ablate(dataset, configs["iters2"])
            out.append({k: v.to_dict() for k, v in reports.items()})


def tie_heavy_dataset(g):
    """12x10 dataset of small integers: every fold plan has ties and constant columns.

    Abundance rows come from a pool of three (so CLR features tie too) and
    all sum to 28, so equal counts give equal abundances. Column 1 is
    constant and column 2 is constant once site 5 is removed; the
    macrofauna counts have such columns too.
    """
    rng = np.random.default_rng(0)
    table = rng.integers(0, 4, size=(3, 10))[rng.integers(0, 3, size=12)]
    table[:, 1] = 2
    table[:, 2] = 1
    table[5, 2] = 3
    table[:, 0] = 28 - table[:, 1:].sum(axis=1)
    counts = rng.integers(0, 3, size=(12, 4))
    counts[:, 0] = 1
    counts[:, 1] = 0
    counts[8, 1] = 5
    sites = [f"s{i}" for i in range(12)]
    return g.Dataset(
        g.AbundanceMatrix(sites, [f"t{j}" for j in range(10)], table / 28),
        g.MacrofaunaCounts(list(sites), counts),
        g.StageLabels(list(sites), [("juvenile", "adult", "dead")[i % 3] for i in range(12)]),
    )


def probe_plans(g, probes: Probes, datasets: dict) -> None:
    for dname, dataset in {**datasets, "12x10-ties/seed0": tie_heavy_dataset(g)}.items():
        for mode in ("clr", "raw"):
            with probes.probe(f"plan/{dname}/{mode}") as out:
                plan = g.evaluation.build_plan(dataset, g.GrmlrConfig().epsilon, mode)
                everywhere, _ = g.evaluation._fold_correlations(plan, slice(0, 1), "all")
                out += [plan.features, everywhere[0]]
                for i, train in enumerate(plan.train):
                    co, profiles = g.evaluation._fold_correlations(plan, slice(i, i + 1), "train")
                    out.append([train, co[0], None if profiles is None else profiles[0]])


def probe_cli(g, probes: Probes, tmp: Path) -> None:
    cli = importlib.import_module(f"{g.__name__}.cli")
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


def run_probes(g) -> Probes:
    """Every probe, in order, on the loaded tree ``g``."""
    datasets = synth_datasets(g)
    probes = Probes()
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        probe_fits(g, probes, datasets)
        probe_loocv(g, probes, datasets, fit_configs(g))
        for seed in SEEDS:
            probe_evaluation(g, probes, datasets[f"13x26/seed{seed}"], tmp, f"seed{seed}")
        probe_grid_edge(g, probes)
        probe_permtest_edge(g, probes)
        probe_plans(g, probes, datasets)
        probe_cli(g, probes, tmp)
        probe_hard(g, probes, tmp)
        probe_branches(g, probes, datasets["13x26/seed0"])
    return probes


def twin_splits(hashes: dict) -> list[str]:
    """The ``.../workers2`` probes whose hash differs from their workers1 twin's."""
    return [
        name
        for name in hashes
        if name.endswith("/workers2") and hashes[name] != hashes[name[:-1] + "1"]
    ]


def _compare_fits(models_a: list, models_b: list) -> dict:
    rel_dv = rel_dloss = abs_dloss = 0.0
    excess = -np.inf
    for ma, mb in zip(models_a, models_b):
        va = np.column_stack([ma.weights, ma.bias])
        vb = np.column_stack([mb.weights, mb.bias])
        scale = np.abs(va).max()
        dv = np.abs(va - vb).max()
        rel_dv = max(rel_dv, dv / scale if scale > 0 else dv)
        fa, fb = float(ma.final_loss), float(mb.final_loss)
        dloss = abs(fa - fb)
        abs_dloss = max(abs_dloss, dloss)
        scale = max(abs(fa), np.finfo(float).tiny)
        rel_dloss = max(rel_dloss, dloss / scale)
        excess = max(excess, (fb - fa) / scale)
    return {
        "iters": [sum(int(m.n_iterations) for m in ms) for ms in (models_a, models_b)],
        "converged": [all(bool(m.converged) for m in ms) for ms in (models_a, models_b)],
        "rel_dv": rel_dv,
        "rel_dloss": rel_dloss,
        "abs_dloss": abs_dloss,
        "excess": excess,
    }


def report_parity(a: dict, b: dict) -> bool:
    """Print the per-probe parity table and its summary; whether any check failed."""
    mismatches = []
    totals = {"fits": 0, "iters_differ": 0, "rel_dv": 0.0, "excess": -np.inf}
    above = []
    flag = {True: "T", False: "F"}
    print(
        f"{'probe':<40} {'l2':>6} {'iters A/B':>11} {'conv':>4} "
        f"{'rel dV':>9} {'rel dloss':>9} {'abs dloss':>9}  predictions"
    )
    for name in sorted(a):
        if name.startswith("grid96/"):
            equal = a[name] == b[name]
            if not equal:
                mismatches.append(name)
            print(f"{name:<40} {'':>56}  {'grid equal' if equal else 'GRID DIFFERS'}")
            continue
        (l2, models_a, preds_a), (_, models_b, preds_b) = a[name], b[name]
        cmp = _compare_fits(models_a, models_b)
        if preds_a is None:
            preds = "-"
        elif preds_a == preds_b:
            preds = "equal"
        else:
            preds = "DIFFER"
            mismatches.append(name)
        totals["fits"] += len(models_a)
        totals["iters_differ"] += sum(
            ma.n_iterations != mb.n_iterations for ma, mb in zip(models_a, models_b)
        )
        totals["rel_dv"] = max(totals["rel_dv"], cmp["rel_dv"])
        totals["excess"] = max(totals["excess"], cmp["excess"])
        if cmp["excess"] > OBJECTIVE_RTOL:
            above.append(name)
        iters = "{}/{}".format(*cmp["iters"])
        conv = "/".join(flag[c] for c in cmp["converged"])
        print(
            f"{name:<40} {l2:>6g} {iters:>11} {conv:>4} {cmp['rel_dv']:>9.2e} "
            f"{cmp['rel_dloss']:>9.2e} {cmp['abs_dloss']:>9.2e}  {preds}"
        )
    print()
    print(
        f"{totals['fits']} fits, {totals['iters_differ']} with other iteration "
        f"counts, worst relative dV {totals['rel_dv']:.2e}, worst objective excess "
        f"{totals['excess']:+.2e} (bound {OBJECTIVE_RTOL:.0e})"
    )
    if above:
        print(f"final_loss rises above the bound in: {', '.join(above)}")
    if mismatches:
        print(f"predictions or grid entries differ in: {', '.join(mismatches)}")
    if above or mismatches:
        return True
    print("every LOOCV prediction and grid entry is equal, and no final_loss rises past the bound")
    return False


def compare(srcs: list[str], a: Probes, b: Probes) -> int:
    """Print the parity report, the differing probes and both twin checks; the exit code."""
    failed = report_parity(a.parity, b.parity)
    differ = sorted(name for name in a.hashes if a.hashes[name] != b.hashes[name])
    print(f"\n{len(differ)} of {len(a.hashes)} probes differ{':' if differ else ''}")
    for name in differ:
        print(f"  {name}")
    for label, src, probes in zip("AB", srcs, (a, b)):
        split = twin_splits(probes.hashes)
        failed = failed or bool(split)
        for name in split:
            print(f"{label} {src}: {name}: hash differs from its workers1 twin")
        if not split:
            print(f"{label} {src}: every workers2 probe equals its workers1 twin")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        action="append",
        help="directory that holds a grmlr package (default: this checkout's src); "
        "give it twice to compare two trees, first tree first",
    )
    args = parser.parse_args(argv)
    srcs = args.src or [str(Path(__file__).resolve().parents[1] / "src")]
    if len(srcs) > 2:
        parser.error("give --src once or twice")
    trees = [load_tree(src, f"grmlr_{side}") for src, side in zip(srcs, "ab")]
    runs = [run_probes(g) for g in trees]
    if len(runs) == 2:
        return compare(srcs, *runs)
    env = {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
    }
    json.dump({"_env": env, **runs[0].hashes}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    split = twin_splits(runs[0].hashes)
    for name in split:
        print(f"{name}: hash differs from its workers1 twin", file=sys.stderr)
    return 1 if split else 0


if __name__ == "__main__":
    sys.exit(main())
