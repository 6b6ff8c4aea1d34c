"""Correctness checks shared by the workloads.

Two references are used. A golden file, captured from a known-good commit
for a few seeds, pins every output exactly. For any seed, every fold model
is also checked against its own training problem, rebuilt here from
grmlr's public constructors, ``build_graph``, ``class_balanced_weights`` and
``loss``. The reference objective is the golden one when a golden file
exists, and otherwise the minimum reached by an independent damped Newton
solver started from the model. All of this runs outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# A model may sit above the reference optimum by this relative amount: the
# L-BFGS stopping rule leaves up to a few 1e-9 on the slowest grid configs.
OBJECTIVE_RTOL = 1e-7
# Probabilities and scores of one run are compared with this absolute tolerance.
VALUE_ATOL = 1e-9
# A golden record was made on another permutation of the inputs, so its fits
# took another floating-point path and stopped at slightly other optima
# (weights differ by a few 1e-6, probabilities by up to 3e-7). Its
# probabilities get this tolerance; its labels, accuracies and macro-F1 must
# still match exactly or to VALUE_ATOL.
GOLDEN_PROBA_ATOL = 1e-5
# Golden record fields that hold one value per site, in site order.
PER_SITE = ("predicted", "objectives", "probabilities")
# Started from an L-BFGS solution, damped Newton settles within two steps.
NEWTON_STEPS = 4


@dataclass
class CheckResult:
    """Mismatch count, worst objective excess and the first few messages."""

    mismatches: int = 0
    objective_excess: float = float("-inf")
    messages: list[str] = field(default_factory=list)

    def mismatch(self, message: str) -> None:
        self.mismatches += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatch(message)

    def excess(self, value: float, what: str) -> None:
        self.objective_excess = max(self.objective_excess, value)
        if value > OBJECTIVE_RTOL:
            self.mismatch(f"{what}: objective {value:.3e} above the reference")

    def absorb(self, other: "CheckResult") -> None:
        self.mismatches += other.mismatches
        self.objective_excess = max(self.objective_excess, other.objective_excess)
        self.messages = (self.messages + other.messages)[:10]

    @property
    def ok(self) -> bool:
        return self.mismatches == 0 and self.objective_excess <= OBJECTIVE_RTOL


def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"seed-{seed}.json"


def load_goldens(workload: str) -> dict[str, dict]:
    """Golden records of one workload, in base order, keyed by the file they came from."""
    records = {}
    for path in sorted(GOLDEN_DIR.glob("seed-*.json")):
        record = json.loads(path.read_text(encoding="utf-8")).get(workload)
        if record is not None:
            records[path.stem] = record
    return records


def store_golden(seed: int, workload: str, record: dict) -> Path:
    path = golden_path(seed)
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data[workload] = record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    return path


def from_base(record: dict, site_order) -> dict:
    """A base-order record in the order of a dataset whose row i is base row site_order[i]."""
    out = {}
    for key, value in record.items():
        if key in PER_SITE:
            value = [value[k] for k in site_order]
        elif isinstance(value, dict):
            value = from_base(value, site_order)
        out[key] = value
    return out


def to_base(record: dict, site_order) -> dict:
    """Inverse of ``from_base``."""
    return from_base(record, [int(k) for k in np.argsort(site_order)])


def close(a, b, atol: float = VALUE_ATOL) -> bool:
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=0.0, atol=atol))


# -- fold problems ----------------------------------------------------------


@dataclass
class FoldProblem:
    features: object
    labels: object
    graph: object
    weights: np.ndarray


def fold_inputs(g, dataset, train_idx, epsilon: float):
    """(features, macrofauna, labels) of one training fold, from public constructors."""
    ab = dataset.abundances
    ids = [ab.site_ids[i] for i in train_idx]
    abundances = g.AbundanceMatrix(ids, list(ab.taxa_names), ab.values[train_idx])
    macro = None
    if dataset.macrofauna is not None:
        macro = g.MacrofaunaCounts(
            list(ids),
            dataset.macrofauna.values[train_idx],
            list(dataset.macrofauna.category_names),
        )
    labels = g.StageLabels(
        list(ids), [dataset.stages.labels[i] for i in train_idx], dataset.stages.label_set
    )
    return g.clr_transform(abundances, epsilon), macro, labels


def fold_problem(g, dataset, train_idx, config) -> FoldProblem:
    """Training problem of one fold, built only from grmlr's public API."""
    features, macro, labels = fold_inputs(g, dataset, train_idx, config.epsilon)
    graph = g.build_graph(features, macro, tau=config.tau, gamma=config.gamma, alpha=config.alpha)
    if config.class_balanced:
        weights = g.class_balanced_weights(labels)
    else:
        weights = np.ones(len(train_idx))
    return FoldProblem(features, labels, graph, weights)


def loo_train_idx(n: int, i: int) -> np.ndarray:
    return np.array([j for j in range(n) if j != i])


def objective(g, model, problem: FoldProblem) -> float:
    return float(g.loss(model, problem.features, problem.labels, problem.graph, problem.weights))


def newton_objective(g, model, problem: FoldProblem) -> float:
    """Objective at the optimum reached by damped Newton from ``model``.

    Independent of grmlr's solver: exact softmax Hessian, Armijo
    backtracking. The bias-shift direction, along which the objective is
    flat, is fixed by a rank-one term.
    """
    Z = problem.features.values
    y = problem.labels.indices()
    n, p = Z.shape
    K = model.n_classes
    cfg = model.hyperparams
    X = np.hstack([Z, np.ones((n, 1))])
    Q = np.zeros((p + 1, p + 1))
    Q[:p, :p] = 2.0 * cfg.lambda_l2 * np.eye(p) + 2.0 * cfg.lambda_g * problem.graph.laplacian
    Y = np.eye(K)[y]
    c = np.asarray(problem.weights, float) / n
    bias_dir = np.zeros((K, p + 1))
    bias_dir[:, p] = 1.0 / np.sqrt(K)
    bias_dir = bias_dir.ravel()

    def evaluate(T):
        S = X @ T.T
        S = S - S.max(axis=1, keepdims=True)
        E = np.exp(S)
        norm = E.sum(axis=1)
        P = E / norm[:, None]
        f = -(c * (S[np.arange(n), y] - np.log(norm))).sum() + 0.5 * float((T * (T @ Q)).sum())
        G = ((P - Y) * c[:, None]).T @ X + T @ Q
        return f, G, P

    T = np.hstack([model.weights, model.bias[:, None]])
    f, G, P = evaluate(T)
    for _ in range(NEWTON_STEPS):
        H = np.empty((K, p + 1, K, p + 1))
        for k in range(K):
            for m in range(K):
                w = c * P[:, k] * (float(k == m) - P[:, m])
                H[k, :, m, :] = (X * w[:, None]).T @ X
            H[k, :, k, :] += Q
        H = H.reshape(K * (p + 1), K * (p + 1)) + np.outer(bias_dir, bias_dir)
        step = -np.linalg.solve(H, G.ravel()).reshape(K, p + 1)
        slope = float((G * step).sum())
        if slope > -1e-300:
            break
        t = 1.0
        while t > 1e-12:
            f_new, G_new, P_new = evaluate(T + t * step)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        if f_new >= f:
            break
        T, f, G, P = T + t * step, f_new, G_new, P_new
    refined = g.GrmlrModel(
        weights=T[:, :p],
        bias=T[:, p],
        taxa_names=list(model.taxa_names),
        label_set=tuple(model.label_set),
        hyperparams=cfg,
        feature_mode=model.feature_mode,
    )
    return objective(g, refined, problem)


def check_models(g, dataset, models, train_sets, golden_objectives, result: CheckResult, what: str):
    """Objective excess of each model over its reference; returns the objectives."""
    objectives = []
    for i, (model, train_idx) in enumerate(zip(models, train_sets)):
        problem = fold_problem(g, dataset, train_idx, model.hyperparams)
        value = objective(g, model, problem)
        objectives.append(value)
        if golden_objectives is not None:
            reference = golden_objectives[i]
        else:
            reference = min(value, newton_objective(g, model, problem))
        result.excess((value - reference) / abs(reference), f"{what} model {i}")
    return objectives


def check_loocv(g, dataset, report, golden, result: CheckResult, what: str) -> dict:
    """Checks one LOOCV report made with ``keep_models=True``.

    Each fold's prediction must be the argmax of its own model on the
    held-out site, and accuracy must follow from the predictions. Returns
    the golden record for this report.
    """
    n = dataset.n_sites
    labels = dataset.stages.labels
    label_set = tuple(dataset.stages.label_set)
    result.expect(len(report.per_fold) == n, f"{what}: {len(report.per_fold)} folds for {n} sites")
    result.expect(not report.skipped_folds, f"{what}: skipped folds {report.skipped_folds}")
    result.expect(len(report.fold_models) == len(report.per_fold), f"{what}: models missing")
    features = g.clr_transform(dataset.abundances, report.config.epsilon).values
    for i, (fold, model) in enumerate(zip(report.per_fold, report.fold_models)):
        scores = features[i] @ np.asarray(model.weights).T + model.bias
        result.expect(
            fold.predicted_label == label_set[int(np.argmax(scores))],
            f"{what} fold {i}: prediction is not its model's argmax",
        )
        result.expect(fold.true_label == labels[i], f"{what} fold {i}: wrong true label")
    predicted = [f.predicted_label for f in report.per_fold]
    correct = sum(1 for t, q in zip(labels, predicted) if t == q)
    result.expect(
        abs(report.accuracy - correct / max(n, 1)) < 1e-15, f"{what}: accuracy inconsistent"
    )
    if golden is not None:
        for i, (q, gq) in enumerate(zip(predicted, golden["predicted"])):
            result.expect(q == gq, f"{what} fold {i}: predicted {q}, golden {gq}")
        result.expect(report.accuracy == golden["accuracy"], f"{what}: accuracy differs from golden")
        result.expect(
            close(report.macro_f1, golden["macro_f1"]), f"{what}: macro-F1 differs from golden"
        )
    train_sets = [loo_train_idx(n, i) for i in range(n)]
    objectives = check_models(
        g,
        dataset,
        report.fold_models,
        train_sets,
        None if golden is None else golden["objectives"],
        result,
        what,
    )
    return {
        "predicted": predicted,
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "objectives": objectives,
    }
