"""Span tracer that times grmlr's layers from outside the package.

``Tracer.install()`` replaces every public function of every ``grmlr``
module with a timing wrapper. It patches the defining module and every
grmlr module that imported the function by name, so a call that
``grmlr.evaluation`` makes to its own ``fit_arrays`` name is still timed as
layer ``model``. Calls inside one module go through that module's globals,
so they are timed too. The layer of a span is the short name of the module
that defines the function.

Spans stay in memory. ``finish()`` turns the few references the wrappers
keep (fit inputs, built plans) into plain numbers, and ``write()`` dumps
the spans as JSON when the run ends. ``uninstall()`` restores the original
functions. Nothing under ``src/`` is changed on disk.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

PACKAGE = "grmlr"
POOL_LAYER = "pool"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._fit_inputs: dict[int, tuple] = {}
        self._plans: dict[int, object] = {}

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers: dict[object, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._patches.append((ProcessPoolExecutor, "submit", ProcessPoolExecutor.submit))
        ProcessPoolExecutor.submit = self._wrap_submit(ProcessPoolExecutor.submit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "layer": layer, "parent": parent, "start": 0.0, "end": 0.0})
        self._stack.append(idx)
        self.spans[idx]["start"] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._observe(idx, signature, args, kwargs, result)
            return result

        return traced

    def _wrap_submit(self, submit):
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            idx = tracer._open("pool.submit", POOL_LAYER)
            try:
                size = len(pickle.dumps((fn, args, kwargs), protocol=pickle.HIGHEST_PROTOCOL))
            finally:
                tracer._close(idx)
            tracer.spans[idx]["bytes"] = size
            return submit(pool, fn, *args, **kwargs)

        return traced_submit

    def _observe(self, idx: int, signature, args, kwargs, result) -> None:
        """Record counts for a finished span; keeps references, computes nothing heavy."""
        span = self.spans[idx]
        if span["layer"] == "rankstats":
            span["columns"] = sum(
                (a.shape[1] if a.ndim == 2 else 1)
                for a in args
                if isinstance(a, np.ndarray)
            )
        elif span["name"] == "model.fit_arrays":
            bound = signature.bind(*args, **kwargs).arguments
            info = result[2]
            span["iters"] = int(info["n_iterations"])
            span["converged"] = bool(info["converged"])
            cfg = bound["config"]
            self._fit_inputs[idx] = (
                bound["Z"],
                bound["y"],
                bound["sample_weights"],
                bound["laplacian"],
                float(cfg.lambda_l2),
                float(cfg.lambda_g),
            )
        elif span["name"] == "evaluation.build_plan":
            self._plans[idx] = result

    # -- results ----------------------------------------------------------

    def finish(self) -> None:
        """Replace kept references by fit keys and plan sizes."""
        for idx, material in self._fit_inputs.items():
            self.spans[idx]["key"] = fit_key(*material)
        for idx, plan in self._plans.items():
            self.spans[idx]["bytes"] = len(pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL))
        self._fit_inputs.clear()
        self._plans.clear()

    def merge(self, spans: list[dict]) -> None:
        """Append spans recorded by another process (parents re-indexed)."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span)
            if span["parent"] >= 0:
                span["parent"] += offset
            self.spans.append(span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def fit_key(Z, y, weights, laplacian, lambda_l2: float, lambda_g: float) -> str:
    """Identity of one fold fit: (fold data, y, weights, Laplacian, lambdas).

    With lambda_g = 0 the Laplacian does not enter the objective, so it is
    left out of the key.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in (Z, y, weights) + ((laplacian,) if lambda_g != 0.0 else ()):
        a = np.ascontiguousarray(arr)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    h.update(repr((lambda_l2, lambda_g)).encode())
    return h.hexdigest()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _outermost(spans: list[dict], names: set[str]) -> list[dict]:
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    out = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent >= 0 and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent < 0:
            out.append(span)
    return out


def _total(spans: list[dict], *names: str) -> float:
    return float(sum(_duration(s) for s in _outermost(spans, set(names))))


def _entries(spans: list[dict], layer: str) -> list[dict]:
    """Spans of ``layer`` called from outside the layer."""
    return [
        s
        for s in spans
        if s["layer"] == layer and (s["parent"] < 0 or spans[s["parent"]]["layer"] != layer)
    ]


def _root(spans: list[dict], idx: int) -> int:
    while spans[idx]["parent"] >= 0:
        idx = spans[idx]["parent"]
    return idx


def _self_time(spans: list[dict], layer: str) -> float:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += _duration(span)
    return float(
        sum(_duration(s) - child_time[i] for i, s in enumerate(spans) if s["layer"] == layer)
    )


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0 for an empty list."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times derived from a finished span list."""
    fits = [s for s in spans if s["name"] == "model.fit_arrays"]
    fit_ms = [_duration(s) * 1e3 for s in fits]
    iters = [s["iters"] for s in fits]
    keys = {s["key"] for s in fits}

    pool_roots = {_root(spans, i) for i, s in enumerate(spans) if s["layer"] == POOL_LAYER}
    plan_bytes = sum(
        s["bytes"]
        for i, s in enumerate(spans)
        if s["name"] == "evaluation.build_plan" and _root(spans, i) in pool_roots
    )
    rank_entries = _entries(spans, "rankstats")
    clr_spans = _outermost(spans, {"compositional.clr", "compositional.clr_transform"})
    return {
        "model.fits": float(len(fits)),
        "model.fit_s": sum(fit_ms) / 1e3,
        "model.fit_p50_ms": _quantile(fit_ms, 0.5),
        "model.fit_p90_ms": _quantile(fit_ms, 0.9),
        "model.iters_p50": _quantile(iters, 0.5),
        "model.iters_p90": _quantile(iters, 0.9),
        "model.iters_max": float(max(iters, default=0)),
        "model.iters_total": float(sum(iters)),
        "model.nonconverged": float(sum(1 for s in fits if not s["converged"])),
        "model.distinct_fit_frac": len(keys) / len(fits) if fits else 0.0,
        "rankstats.spearman_matrix_s": _total(spans, "rankstats.spearman_matrix"),
        "rankstats.spearman_cross_s": _total(spans, "rankstats.spearman_cross"),
        "rankstats.columns_ranked": float(sum(s.get("columns", 0) for s in rank_entries)),
        "rankstats.self_s": _self_time(spans, "rankstats"),
        "evaluation.build_plan_s": _total(spans, "evaluation.build_plan"),
        "evaluation.plan_bytes": float(plan_bytes),
        "evaluation.task_bytes": float(
            sum(s["bytes"] for s in spans if s["name"] == "pool.submit")
        ),
        "evaluation.self_s": _self_time(spans, "evaluation"),
        "ecograph.a_macro_s": _total(
            spans, "ecograph.a_macro_from_profiles", "ecograph.build_a_macro"
        ),
        "ecograph.a_co_s": _total(spans, "ecograph.a_co_from_correlations", "ecograph.build_a_co"),
        "ecograph.laplacian_s": _total(spans, "ecograph.laplacian_of"),
        "ecograph.build_graph_s": _total(spans, "ecograph.build_graph"),
        "ecograph.calls": float(len(_entries(spans, "ecograph"))),
        "dataset.load_s": _total(spans, "dataset.load_dataset"),
        "dataset.synth_s": _total(spans, "dataset.synthesize_dataset"),
        "compositional.clr_s": float(sum(_duration(s) for s in clr_spans)),
        "compositional.clr_calls": float(len(clr_spans)),
    }
