#!/usr/bin/env python3
"""Benchmark of grmlr: three workloads, end-to-end metrics, golden checks.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Each workload's dataset is a fixed base dataset whose sites and taxa are
shuffled by a permutation drawn from ``--seed``. So every seed gives other
input bytes and another fold order, but the same problem up to
relabelling, and the work of a repetition barely depends on the seed.

``--trace 0`` repeats the workload for about ``--seconds`` seconds and
reports the end-to-end metrics. ``--trace 1`` runs it once untraced and
once with every public grmlr function wrapped by the span tracer, and
reports the per-layer metrics. Either way the last repetition's outputs
are checked against every golden file (mapped to the seed's permutation)
and against references rebuilt from the public API. The last line of
standard output is one JSON object; the run exits 1 when an output is
wrong or an operation failed.

``--capture-golden`` runs the workload once, checks it against the
references, and stores its outputs in base order as the seed's golden file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROCESSES = 5
COMMAND_TIMEOUT_S = 150
# generator seed of every workload's base dataset; --seed only permutes it
BASE_SEED = 0
# The speed probe is a fixed pure-Python loop, timed (median of
# SPEED_PROBE_REPEATS) before and after every repetition. On a shared 2-vCPU
# VM the speed drifts by ±25% over minutes, and the probe drifts with it, so
# a repetition's time is rescaled to a machine on which the probe takes
# SPEED_PROBE_REF_S (about its median on a quiet 2-vCPU 2.0 GHz Xeon VM).
SPEED_PROBE_LOOPS = 300_000
SPEED_PROBE_REPEATS = 3
SPEED_PROBE_REF_S = 0.02
BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# 6 configs at the default lambda_l2. With lambda_g = 0 the three alphas
# give one distinct fit, so 4 of 6 fold fits are distinct. A repetition is
# short (about two seconds) so that a run takes many of them.
PAPER_GRID = {
    "alpha": [0.0, 0.5, 1.0],
    "lambda_g": [0.0, 10.0],
    "lambda_l2": [0.02],
    "tau": [0.7],
    "gamma": [0.9],
}
TOY_GRID = {"alpha": [0.0, 0.5], "lambda_g": [0.0, 10.0], "lambda_l2": [0.001]}


def import_grmlr():
    """Imports grmlr from this checkout's ``src``; exits 1 when it is absent."""
    package = SRC / "grmlr"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: grmlr sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import grmlr

    if Path(grmlr.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported grmlr from {grmlr.__file__}, not {package}")
    return grmlr


def child_env() -> dict:
    """Environment for grmlr subprocesses: this checkout's src first, BLAS vars untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
    }


@dataclass
class Rep:
    """One repetition: its time, logical fold fits, failures and outputs."""

    seconds: float
    fits: int
    failures: int
    output: object
    parts: dict = field(default_factory=dict)
    # mean speed-probe time just before and just after the repetition
    probe_s: float = SPEED_PROBE_REF_S

    @property
    def ref_seconds(self) -> float:
        """The repetition's time rescaled to the reference machine speed."""
        return self.seconds * SPEED_PROBE_REF_S / self.probe_s


def speed_probe() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs right now."""
    times = []
    for _ in range(SPEED_PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(SPEED_PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class _CatchNonConvergence(warnings.catch_warnings):
    def __init__(self, g):
        super().__init__(record=True)
        self.category = g.errors.NonConvergenceWarning

    def __enter__(self):
        caught = super().__enter__()
        warnings.simplefilter("always", self.category)
        return caught


def synthesize(g, n: int, p: int, seed: int):
    return g.synthesize_dataset(n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=seed)


def permutations(seed: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(site order, taxa order) of a seed: row i of its dataset is base row site_order[i]."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n), rng.permutation(p)


def permute(g, dataset, site_order, taxa_order):
    """The dataset with its sites and taxa reordered; ids and names move with their values."""
    ab = dataset.abundances
    ids = [ab.site_ids[i] for i in site_order]
    abundances = g.AbundanceMatrix(
        ids, [ab.taxa_names[j] for j in taxa_order], ab.values[np.ix_(site_order, taxa_order)]
    )
    macro = dataset.macrofauna
    macro = g.MacrofaunaCounts(list(ids), macro.values[site_order], list(macro.category_names))
    stages = dataset.stages
    stages = g.StageLabels(list(ids), [stages.labels[i] for i in site_order], stages.label_set)
    return g.Dataset(abundances, macro, stages)


def seeded_dataset(g, n: int, p: int, seed: int):
    """The base dataset at n x p, permuted by ``seed``; also returns the site order."""
    site_order, taxa_order = permutations(seed, n, p)
    return permute(g, synthesize(g, n, p, BASE_SEED), site_order, taxa_order), site_order


class Workload:
    name = ""
    sizes: dict = {}
    # whether repetition times are rescaled by the speed probe
    rescaled = True

    def __init__(self, g, seed: int, size: str, workdir: Path) -> None:
        self.g = g
        self.seed = seed
        self.params = self.sizes[size]
        self.workdir = workdir
        self.config = g.GrmlrConfig()

    def setup(self) -> None:
        self.dataset, self.site_order = seeded_dataset(
            self.g, self.params["n"], self.params["p"], self.seed
        )

    def run(self, tracer=None) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep, golden) -> tuple[checks.CheckResult, dict]:
        raise NotImplementedError


class PaperGrid(Workload):
    name = "paper-grid"
    sizes = {
        "full": {
            "n": 13,
            "p": 26,
            "grid": PAPER_GRID,
            "probes": [{"alpha": 0.5, "lambda_g": 10.0}, {"alpha": 1.0, "lambda_g": 0.0}],
            "pool_B": 8,
            "cli_probe": True,
        },
        "toy": {
            "n": 9,
            "p": 8,
            "grid": TOY_GRID,
            "probes": [{"alpha": 0.5, "lambda_g": 10.0, "lambda_l2": 0.001}],
            "pool_B": 2,
            "cli_probe": True,
        },
    }

    def configs(self) -> list:
        grid = self.params["grid"]
        return [
            replace(self.config, **dict(zip(grid, combo)))
            for combo in itertools.product(*grid.values())
        ]

    def run(self, tracer=None) -> Rep:
        dataset = self.dataset
        with _CatchNonConvergence(self.g) as caught:
            start = time.perf_counter()
            result = self.g.grid_search(dataset, self.params["grid"], workers=1)
            seconds = time.perf_counter() - start
        entries = [[e.index, e.accuracy, e.macro_f1, e.error] for e in result.entries]
        n = dataset.n_sites
        errors = sum(1 for e in result.entries if e.error is not None)
        return Rep(seconds, len(self.configs()) * n, errors * n + len(caught), entries)

    def check(self, rep, golden):
        res = checks.CheckResult()
        dataset = self.dataset
        configs = self.configs()
        entries = rep.output
        res.expect(len(entries) == len(configs), f"{len(entries)} grid entries for {len(configs)}")
        res.expect(
            sorted(e[0] for e in entries) == list(range(len(configs))), "grid indices are not 0..N-1"
        )
        sort_keys = [(err is not None, -acc, -f1, idx) for idx, acc, f1, err in entries]
        res.expect(sort_keys == sorted(sort_keys), "grid entries are not in rank order")
        for rank, (idx, acc, f1, err) in enumerate(entries):
            res.expect(err is None, f"config {idx} failed: {err}")
            if golden is not None and rank < len(golden["entries"]):
                g_idx, g_acc, g_f1, g_err = golden["entries"][rank]
                res.expect(
                    idx == g_idx and acc == g_acc and checks.close(f1, g_f1) and err == g_err,
                    f"grid rank {rank}: {(idx, acc, f1)} differs from golden {(g_idx, g_acc, g_f1)}",
                )
        by_index = {e[0]: e for e in entries}
        probes = {}
        for probe in self.params["probes"]:
            idx = configs.index(replace(self.config, **probe))
            report = self.g.loocv(dataset, configs[idx], keep_models=True)
            _, acc, f1, _ = by_index.get(idx, (idx, None, None, None))
            res.expect(
                acc == report.accuracy and f1 is not None and checks.close(f1, report.macro_f1),
                f"grid config {idx} disagrees with loocv of the same config",
            )
            probes[str(idx)] = checks.check_loocv(
                self.g,
                dataset,
                report,
                None if golden is None else golden["probes"][str(idx)],
                res,
                f"grid config {idx}",
            )
        return res, {"entries": [list(e) for e in entries], "probes": probes}


class StressLoocv(Workload):
    name = "stress-loocv"
    sizes = {
        "full": {"n": 40, "p": 160},
        "toy": {"n": 12, "p": 20},
    }

    def run(self, tracer=None) -> Rep:
        dataset = self.dataset
        with _CatchNonConvergence(self.g) as caught:
            start = time.perf_counter()
            report = self.g.loocv(dataset, self.config, keep_models=True)
            seconds = time.perf_counter() - start
        failures = len(caught) + len(report.skipped_folds)
        return Rep(seconds, dataset.n_sites, failures, report)

    def check(self, rep, golden):
        res = checks.CheckResult()
        dataset = self.dataset
        record = checks.check_loocv(self.g, dataset, rep.output, golden, res, "loocv")
        return res, record


class CliRoundtrip(Workload):
    """Every repetition runs the commands on the dataset, written as CSV at set-up.

    Its time is not rescaled: it is spent in fresh interpreter processes,
    whose start-up and imports the in-process speed probe does not track.
    """

    name = "cli-roundtrip"
    sizes = {"full": {"n": 13, "p": 26}, "toy": {"n": 9, "p": 8}}
    rescaled = False
    commands = ("version", "fit", "predict", "loocv")

    def setup(self) -> None:
        super().setup()
        names = ("abundances", "macrofauna", "labels")
        self.inputs = {name: self.workdir / f"{name}.csv" for name in names}
        self.g.save_dataset(self.dataset, *(self.inputs[name] for name in names))

    def argv(self, command: str) -> list[str]:
        data = [
            "--abundances", str(self.inputs["abundances"]),
            "--macrofauna", str(self.inputs["macrofauna"]),
            "--labels", str(self.inputs["labels"]),
        ]  # fmt: skip
        out = ["--out", str(self.workdir / command)]
        if command == "version":
            return ["--version"]
        if command == "fit":
            return ["fit", *data, *out]
        if command == "predict":
            model = str(self.workdir / "fit" / "model.grmlr")
            return ["predict", "--model", model, "--abundances", str(self.inputs["abundances"]), *out]
        return ["eval", "loocv", *data, *out]

    def run(self, tracer=None) -> Rep:
        parts, failures, outputs = {}, 0, {}
        for command in self.commands:
            if tracer is None:
                cmd = [sys.executable, "-m", "grmlr.cli", *self.argv(command)]
            else:
                spans_out = self.workdir / f"spans-{command}.json"
                cmd = [sys.executable, str(HERE / "clitrace.py"), str(spans_out), *self.argv(command)]
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(), timeout=COMMAND_TIMEOUT_S
            )
            parts[f"cli_{command}_s"] = time.perf_counter() - start
            warned = sum(1 for line in proc.stderr.splitlines() if line.startswith("warning:"))
            failures += warned + (proc.returncode != 0)
            outputs[command] = {"exit": proc.returncode, "stdout": proc.stdout.strip()}
            if tracer is not None and spans_out.is_file():
                spans = json.loads(spans_out.read_text(encoding="utf-8"))["spans"]
                parts[f"cli_{command}_main_s"] = sum(
                    s["end"] - s["start"] for s in spans if s["name"] == "cli.main"
                )
                tracer.merge(spans)
        seconds = sum(parts[f"cli_{c}_s"] for c in self.commands)
        fits = 1 + self.dataset.n_sites  # fit, then one per LOOCV fold
        return Rep(seconds, fits, failures, outputs, parts)

    def check(self, rep, golden):
        g = self.g
        dataset = self.dataset
        res = checks.CheckResult()
        for command, out in rep.output.items():
            res.expect(out["exit"] == 0, f"grmlr {command} exited {out['exit']}")
        res.expect(
            rep.output["version"]["stdout"] == f"grmlr {g.__version__}", "unexpected --version output"
        )
        n = dataset.n_sites
        model = g.load_model(self.workdir / "fit" / "model.grmlr")
        fit_objective = checks.check_models(
            g,
            dataset,
            [model],
            [np.arange(n)],
            None if golden is None else [golden["fit_objective"]],
            res,
            "fit",
        )[0]

        features = g.clr_transform(dataset.abundances, model.hyperparams.epsilon).values
        scores = features @ np.asarray(model.weights).T + model.bias
        proba = np.exp(scores - scores.max(axis=1, keepdims=True))
        proba /= proba.sum(axis=1, keepdims=True)
        rows = (self.workdir / "predict" / "predictions.csv").read_text(encoding="utf-8").splitlines()
        predicted, probs = [], []
        for i, line in enumerate(rows[1:]):
            site, stage, *cells = line.split(",")
            predicted.append(stage)
            probs.append([float(c) for c in cells])
            res.expect(site == dataset.abundances.site_ids[i], f"predictions row {i}: site {site}")
            res.expect(
                stage == model.label_set[int(np.argmax(scores[i]))], f"predictions row {i}: not argmax"
            )
            res.expect(checks.close(probs[-1], proba[i]), f"predictions row {i}: probabilities")
        res.expect(len(predicted) == n, f"{len(predicted)} prediction rows for {n} sites")
        if golden is not None:
            res.expect(predicted == golden["predicted"], "predicted labels differ from golden")
            res.expect(
                checks.close(probs, golden["probabilities"], checks.GOLDEN_PROBA_ATOL),
                "probabilities differ from golden",
            )

        report_file = json.loads((self.workdir / "loocv" / "loocv_report.json").read_text("utf-8"))
        report = g.loocv(dataset, self.config, keep_models=True)
        res.expect(
            [f["predicted"] for f in report_file["per_fold"]]
            == [f.predicted_label for f in report.per_fold],
            "eval loocv predictions differ from in-process loocv",
        )
        res.expect(
            report_file["metrics"]["accuracy"] == report.accuracy, "eval loocv accuracy differs"
        )
        loocv_record = checks.check_loocv(
            g, dataset, report, None if golden is None else golden["loocv"], res, "loocv"
        )
        return res, {
            "fit_objective": fit_objective,
            "predicted": predicted,
            "probabilities": probs,
            "loocv": loocv_record,
        }


WORKLOADS = {w.name: w for w in (PaperGrid, StressLoocv, CliRoundtrip)}


# -- per-layer extras ---------------------------------------------------------


def objective_grad_us(g, dataset, repeats: int = 5, batch_s: float = 0.05) -> float:
    """Median microseconds per public ``loss_gradient`` call at the dataset's shape."""
    cfg = g.GrmlrConfig()
    features = g.clr_transform(dataset.abundances, cfg.epsilon)
    graph = g.build_graph(features, dataset.macrofauna, tau=cfg.tau, gamma=cfg.gamma, alpha=cfg.alpha)
    labels = dataset.stages
    weights = g.class_balanced_weights(labels)
    rng = np.random.default_rng(0)
    K, p = len(labels.label_set), dataset.n_taxa
    model = g.GrmlrModel(
        weights=rng.normal(0.0, 0.1, (K, p)),
        bias=np.zeros(K),
        taxa_names=list(features.taxa_names),
        label_set=tuple(labels.label_set),
        hyperparams=cfg,
    )
    per_call = []
    for _ in range(repeats):
        calls, start = 0, time.perf_counter()
        while time.perf_counter() - start < batch_s:
            g.loss_gradient(model, features, labels, graph, weights)
            calls += 1
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def default_grid_distinct(g, dataset) -> tuple[int, int]:
    """(distinct, total) fold-fit keys of ``DEFAULT_GRID``, by thresholding only."""
    eco = sys.modules["grmlr.ecograph"]
    grid = g.DEFAULT_GRID
    n = dataset.n_sites
    keys = set()
    for i in range(n):
        features, macro, _ = checks.fold_inputs(g, dataset, checks.loo_train_idx(n, i), 1e-6)
        profiles = eco.compute_macro_profiles(features, macro)
        co = eco.compute_co_correlations(features)
        a_macro = {tau: eco.a_macro_from_profiles(profiles, tau) for tau in grid["tau"]}
        a_co = {gamma: eco.a_co_from_correlations(co, gamma) for gamma in grid["gamma"]}
        for alpha, tau, gamma in itertools.product(grid["alpha"], grid["tau"], grid["gamma"]):
            lap = eco.laplacian_of(alpha * a_macro[tau] + (1.0 - alpha) * a_co[gamma])
            digest = hashlib.blake2b(lap.tobytes(), digest_size=16).digest()
            for l2, lg in itertools.product(grid["lambda_l2"], grid["lambda_g"]):
                keys.add((i, l2, lg, digest if lg != 0.0 else None))
    total = n * int(np.prod([len(v) for v in grid.values()]))
    return len(keys), total


def import_times() -> tuple[float, float]:
    """Median cumulative import seconds of grmlr and scipy.optimize, from -X importtime."""
    grmlr_s, scipy_s = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import grmlr"],
            capture_output=True, text=True, env=child_env(), timeout=COMMAND_TIMEOUT_S, check=True,
        )  # fmt: skip
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        grmlr_s.append(cumulative.get("grmlr", 0.0))
        scipy_s.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(grmlr_s), statistics.median(scipy_s)


def pool_probe(g, dataset, seed: int, B: int) -> tuple[dict, checks.CheckResult, Tracer, Rep]:
    """``permutation_test`` with workers=1, then workers=2, under its own tracer.

    This is the only call that goes through grmlr's process pool. Spans
    recorded inside the pool's worker processes are not collected.
    """
    config = g.GrmlrConfig()
    tracer = Tracer()
    reports, seconds = [], []
    tracer.install()
    try:
        with _CatchNonConvergence(g) as caught:
            for workers in (1, 2):
                start = time.perf_counter()
                reports.append(g.permutation_test(dataset, config, B=B, seed=seed, workers=workers))
                seconds.append(time.perf_counter() - start)
    finally:
        tracer.uninstall()
    tracer.finish()
    layers = layer_metrics(tracer.spans)
    res = checks.CheckResult()
    w1, w2 = (r.to_dict() for r in reports)
    for key in ("observed_accuracy", "permuted_accuracies", "p_value"):
        res.expect(w1[key] == w2[key], f"pool probe: {key} differs between workers=1 and 2")
    exceed = sum(1 for a in w1["permuted_accuracies"] if a >= w1["observed_accuracy"])
    res.expect(len(w1["permuted_accuracies"]) == B, "pool probe: wrong permutation count")
    res.expect(w1["p_value"] == (1 + exceed) / (1 + B), "pool probe: p-value inconsistent")
    metrics = {
        "pool.permtest_w1_s": seconds[0],
        "pool.permtest_w2_s": seconds[1],
        "pool.plan_bytes": layers["evaluation.plan_bytes"],
        "pool.task_bytes": layers["evaluation.task_bytes"],
    }
    rep = Rep(sum(seconds), 2 * (B + 1) * dataset.n_sites, len(caught), reports)
    return metrics, res, tracer, rep


# -- driver -------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--capture-golden", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median time of fresh processes that import grmlr and build the inputs.

    Each time is rescaled by the speed probes just before and after it.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]  # fmt: skip
    times, before = [], speed_probe()
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=COMMAND_TIMEOUT_S, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        after = speed_probe()
        times.append(seconds * SPEED_PROBE_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def measure(workload: Workload, seconds: float) -> list[Rep]:
    """Repeats the workload while the next repetition should fit in ``seconds``.

    One untimed repetition first lets lazy imports and caches settle. The
    speed probe runs between repetitions, outside their timed regions.
    """
    workload.run()
    reps: list[Rep] = []
    start = time.perf_counter()
    before = speed_probe() if workload.rescaled else SPEED_PROBE_REF_S
    while True:
        rep = workload.run()
        if workload.rescaled:
            after = speed_probe()
            rep.probe_s, before = (before + after) / 2, after
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.seconds for r in reps) > seconds:
            return reps


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    return {
        "ref_wall_s": statistics.median(r.ref_seconds for r in reps),
        "ref_fits_per_s": statistics.median(r.fits / r.ref_seconds for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(args, workload, plain: Rep, traced: Rep, tracer: Tracer) -> dict[str, float]:
    g = workload.g
    metrics = layer_metrics(tracer.spans)
    metrics["model.wall_frac"] = metrics["model.fit_s"] / traced.seconds
    metrics["evaluation.build_plan_frac"] = metrics["evaluation.build_plan_s"] / traced.seconds
    metrics["model.objective_grad_us"] = objective_grad_us(g, workload.dataset)
    distinct, total = default_grid_distinct(g, seeded_dataset(g, 13, 26, args.seed)[0])
    metrics["model.default_grid_distinct_frac"] = distinct / total
    metrics["cli.import_s"], metrics["cli.import_scipy_optimize_s"] = import_times()
    for command in CliRoundtrip.commands:
        metrics[f"cli.{command}_s"] = plain.parts.get(f"cli_{command}_s", 0.0)
        if command != "version":
            metrics[f"cli.{command}_main_s"] = traced.parts.get(f"cli_{command}_main_s", 0.0)
    metrics["trace.wall_untraced_s"] = plain.seconds
    metrics["trace.wall_traced_s"] = traced.seconds
    metrics["trace.overhead_s"] = traced.seconds - plain.seconds
    return metrics


def cli_probe(g, seed: int, size: str, workdir: Path, goldens: dict):
    """The ``cli-roundtrip`` commands once untraced and once traced, then checked.

    Returns (metrics, check, tracer, reps). This measures the ``cli`` layer
    in the traced ``paper-grid`` run; cli-roundtrip is not a timed workload.
    """
    cli = CliRoundtrip(g, seed, size, workdir)
    cli.workdir.mkdir()
    cli.setup()
    plain = cli.run()
    tracer = Tracer()
    traced = cli.run(tracer)
    metrics = {"dataset.load_s": layer_metrics(tracer.spans)["dataset.load_s"]}
    for command in CliRoundtrip.commands:
        metrics[f"cli.{command}_s"] = plain.parts[f"cli_{command}_s"]
        if command != "version":
            metrics[f"cli.{command}_main_s"] = traced.parts.get(f"cli_{command}_main_s", 0.0)
    return metrics, check_against(cli, traced, goldens), tracer, [plain, traced]


def check_against(workload, rep: Rep, goldens: dict) -> checks.CheckResult:
    """Checks a repetition against every golden record, or the references alone."""
    result = checks.CheckResult()
    for record in goldens.values() or [None]:
        if record is not None:
            record = checks.from_base(record, workload.site_order)
        result.absorb(workload.check(rep, record)[0])
    return result


def traced_run(args, workload):
    """One untraced and one traced repetition, plus the extras.

    Returns (metrics, reps, extra check or None, tracer); reps[1] is the
    traced repetition.
    """
    plain = workload.run()
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        traced = workload.run(tracer)
    finally:
        tracer.uninstall()
    tracer.finish()
    metrics = per_layer(args, workload, plain, traced, tracer)
    reps, extra = [plain, traced], None
    pool_names = ("pool.permtest_w1_s", "pool.permtest_w2_s", "pool.plan_bytes", "pool.task_bytes")
    metrics.update(dict.fromkeys(pool_names, 0.0))
    if "pool_B" in workload.params:
        pool, extra, pool_tracer, pool_rep = pool_probe(
            workload.g, workload.dataset, args.seed, workload.params["pool_B"]
        )
        metrics.update(pool)
        tracer.merge(pool_tracer.spans)
        reps.append(pool_rep)
    if workload.params.get("cli_probe"):
        goldens = checks.load_goldens(CliRoundtrip.name) if args.size == "full" else {}
        cli, cli_check, cli_tracer, cli_reps = cli_probe(
            workload.g, args.seed, args.size, workload.workdir / "cli", goldens
        )
        metrics.update(cli)
        extra = extra or checks.CheckResult()
        extra.absorb(cli_check)
        tracer.merge(cli_tracer.spans)
        reps += cli_reps
    return metrics, reps, extra, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    g = import_grmlr()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](g, args.seed, args.size, workdir)
        workload.setup()
        if args.setup_only:
            return 0
        if args.capture_golden:
            return capture(args, workload)
        goldens = checks.load_goldens(args.workload) if args.size == "full" else {}
        if args.trace:
            metrics, reps, extra, tracer = traced_run(args, workload)
            target = reps[1]
            wanted = spec["per_layer"]
        else:
            reps = measure(workload, args.seconds)
            metrics = end_to_end(reps)
            extra = None
            # the CLI keeps only the last repetition's files, so that one is checked
            target = reps[-1]
            wanted = spec["end_to_end"]
        result = check_against(workload, target, goldens)
        if extra is not None:
            result.absorb(extra)
        attempted = sum(r.fits for r in reps)
        failed = sum(r.failures for r in reps)
        check_values = {
            "check.pred_mismatch": float(result.mismatches),
            "check.objective_excess": result.objective_excess,
            "check.failed_frac": failed / attempted,
        }
        if args.trace:
            metrics.update(check_values)
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics["setup_s"] = setup_seconds(args)
        correct = result.ok and failed == 0
        report(args, reps, metrics, wanted, check_values, sorted(goldens), result)
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                    },
                }
            )
        )
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def capture(args, workload) -> int:
    rep = workload.run()
    result, record = workload.check(rep, None)
    if not result.ok or rep.failures:
        print("not captured: " + "; ".join(result.messages), file=sys.stderr)
        return 1
    record = checks.to_base(record, workload.site_order)
    print(f"wrote {checks.store_golden(args.seed, args.workload, record)}")
    return 0


def report(args, reps, metrics, wanted, check_values, golden_seeds, result) -> None:
    """Human-readable lines before the final JSON line."""
    print(
        f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
        f"rep_s={[round(r.seconds, 3) for r in reps]} golden_seeds={golden_seeds}"
    )
    print(f"  probe_s={[round(r.probe_s, 4) for r in reps]}")
    print(f"  {'raw wall_s (median)':<36} {statistics.median(r.seconds for r in reps):>16.6g} s")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']:<6} {m['better']} is better")
    parts = {}
    for rep in reps:
        for key, value in rep.parts.items():
            parts.setdefault(key, []).append(value)
    for key, values in sorted(parts.items()):
        print(f"  part {key:<31} {statistics.median(values):>16.6g} s      median of {len(values)}")
    for key, value in check_values.items():
        if key not in metrics:
            print(f"  {key:<36} {value:>16.6g}")
    for message in result.messages:
        print(f"  MISMATCH {message}")
    print("# env " + json.dumps(environment_record(), sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
