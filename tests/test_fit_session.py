"""Fit sessions: one BLAS thread while a call fits, and one reused Hessian buffer."""

import ast
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from grmlr import evaluation, model
from grmlr.compositional import clr_transform
from grmlr.dataset import Dataset, synthesize_dataset
from grmlr.errors import MissingMacrofauna
from grmlr.evaluation import ablate, grid_search, loocv, permutation_test
from grmlr.model import GrmlrConfig, _sample_weights, fit, fit_arrays

CLOSED = {"open": 0, "restore": None, "spare": None}


@pytest.fixture
def separable():
    return synthesize_dataset(n=9, p=12, K=3, n_blocks=3, coupling=0.9, noise=0.05, seed=11)


@pytest.fixture
def two_threads():
    """OpenBLAS at two threads for the test, so that a pin to one shows; its count restored after."""
    blas = model._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(2)
    yield
    set_threads(before)


def _recording(monkeypatch, module, name, seen):
    """Patch ``module.name`` to append the BLAS thread count at each call to ``seen``."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(model._blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


CALLS = {
    "fit": (model, "fit_arrays", lambda ds: fit(ds, GrmlrConfig())),
    "loocv": (evaluation, "fit_arrays", lambda ds: loocv(ds, GrmlrConfig())),
    "ablate": (evaluation, "fit_arrays", lambda ds: ablate(ds, GrmlrConfig())),
    "grid_search": (
        evaluation,
        "_fit_batch",
        lambda ds: grid_search(ds, {"alpha": [0.0, 0.5], "lambda_g": [0.0, 5.0]}),
    ),
    "permutation_test": (
        evaluation,
        "_fit_batch",
        lambda ds: permutation_test(ds, GrmlrConfig(), B=2, seed=0, workers=1),
    ),
}


class TestPin:
    @pytest.mark.parametrize("name", list(CALLS))
    def test_fits_run_with_one_thread_and_the_count_is_restored(
        self, separable, two_threads, monkeypatch, name
    ):
        module, solver, call = CALLS[name]
        seen = []
        _recording(monkeypatch, module, solver, seen)
        call(separable)
        assert seen and set(seen) == {1}
        assert model._blas_threads() == 2
        assert model._session == CLOSED

    @pytest.mark.parametrize("call", [loocv, fit], ids=["loocv", "fit"])
    def test_the_count_is_restored_when_the_call_raises(self, separable, two_threads, call):
        stripped = Dataset(separable.abundances, None, separable.stages)
        with pytest.raises(MissingMacrofauna):
            call(stripped, GrmlrConfig(alpha=0.5))
        assert model._blas_threads() == 2
        assert model._session == CLOSED

    def test_a_nested_call_does_not_restore_the_count(self, separable, two_threads):
        with model._fit_session():
            assert model._blas_threads() == 1
            loocv(separable, GrmlrConfig())
            assert model._blas_threads() == 1  # the inner session was not the last
        assert model._blas_threads() == 2

    def test_threads_running_loocv_at_once(self, separable, two_threads, monkeypatch):
        # more threads than cores, switching often; the last thread's later fits run after
        # the first thread's loocv has returned, whose exit must not restore the count
        names = [str(k) for k in range(4)]
        all_inside, first_returned = threading.Barrier(len(names), timeout=60), threading.Event()
        seen = {name: [] for name in names}
        errors = []
        original = evaluation.fit_arrays

        def recording(*args):
            name = threading.current_thread().name
            if not seen[name]:
                all_inside.wait()
            elif len(seen[name]) == 1 and name == names[-1]:
                assert first_returned.wait(timeout=60)
            seen[name].append(model._blas_threads())
            return original(*args)

        def run():
            try:
                loocv(separable, GrmlrConfig())
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            if threading.current_thread().name == names[0]:
                first_returned.set()

        monkeypatch.setattr(evaluation, "fit_arrays", recording)
        threads = [threading.Thread(target=run, name=name) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [len(seen[name]) for name in names] == [separable.n_sites] * len(names)
        assert {count for counts in seen.values() for count in counts} == {1}
        assert model._blas_threads() == 2
        assert model._session == CLOSED

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers must inherit the patch"
    )
    def test_pool_workers_run_with_one_thread(self, separable, two_threads, monkeypatch):
        # a tenth of the stack budget makes several stacks, so a pool of two starts
        monkeypatch.setattr(model, "_STACK_BYTES", model._STACK_BYTES // 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        original = evaluation._fit_batch

        def reporting(*args):
            # inherited from the parent's session, then the worker's own
            state = (os.getpid(), model._blas_threads(), model._session["open"])
            warnings.warn(repr(state), UserWarning)
            return original(*args)

        monkeypatch.setattr(evaluation, "_fit_batch", reporting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            pooled = permutation_test(separable, GrmlrConfig(), B=2, seed=5, workers=2)
        states = [ast.literal_eval(str(w.message)) for w in caught if w.category is UserWarning]
        assert len(states) > 1
        assert all(pid != os.getpid() for pid, _, _ in states)
        assert {(threads, opened) for _, threads, opened in states} == {(1, 2)}
        assert model._blas_threads() == 2
        monkeypatch.setattr(evaluation, "_fit_batch", original)
        serial = permutation_test(separable, GrmlrConfig(), B=2, seed=5)
        assert pooled.to_dict() == serial.to_dict()


def _outputs(dataset):
    """The bytes of a fit, a LOOCV with its fold models, a grid and a permutation test."""
    fitted, graph = fit(dataset, GrmlrConfig())
    report = loocv(dataset, GrmlrConfig(), keep_models=True)
    grid = grid_search(dataset, {"alpha": [0.0, 0.5], "lambda_g": [0.0, 5.0]})
    permuted = permutation_test(dataset, GrmlrConfig(), B=3, seed=2)
    return (
        fitted.weights.tobytes() + fitted.bias.tobytes() + graph.laplacian.tobytes(),
        repr(report.to_dict()),
        [m.weights.tobytes() + m.bias.tobytes() for m in report.fold_models],
        repr([(e.index, e.accuracy, e.macro_f1, e.error) for e in grid.entries]),
        repr(permuted.to_dict()),
    )


def test_without_the_library_results_are_byte_identical(separable, monkeypatch):
    found = _outputs(separable)
    monkeypatch.setattr(model, "_openblas", lambda: None)
    assert model._blas_threads() is None
    assert _outputs(separable) == found
    assert model._session == CLOSED


def _problem(n, p, seed):
    ds = synthesize_dataset(n=n, p=p, K=3, n_blocks=3, coupling=0.9, noise=0.5, seed=seed)
    Z = clr_transform(ds.abundances, 1e-6).values
    y = ds.stages.indices()
    return Z, y, 3, _sample_weights(y, 3, True), np.eye(p) - 1.0 / p, GrmlrConfig()


def _fit_bytes(problem):
    W, b, info = fit_arrays(*problem)
    return W.tobytes() + b.tobytes(), info


class TestBuffer:
    def test_one_session_gives_the_bytes_of_separate_sessions(self, monkeypatch):
        a, b = _problem(12, 10, 0), _problem(12, 14, 1)
        separate = []
        for problem in (a, a, b, a):
            with model._fit_session():
                separate.append(_fit_bytes(problem))
        taken = []
        original = model._hessian_buffer

        def recording(shape):
            taken.append(original(shape))
            return taken[-1]

        monkeypatch.setattr(model, "_hessian_buffer", recording)
        with model._fit_session():
            together = [_fit_bytes(a)]
            model._session["spare"].fill(np.nan)  # what the next fit of a's shape takes
            together += [_fit_bytes(problem) for problem in (a, b, a)]
        assert taken[1] is taken[0]  # the poisoned spare was reused
        assert taken[2].shape != taken[1].shape
        assert together == separate
        assert model._session == CLOSED

    def test_loocv_reuses_one_buffer_and_keeps_none(self, separable, monkeypatch):
        spares = []
        original = evaluation.fit_arrays

        def recording(*args):
            spares.append(model._session["spare"])
            return original(*args)

        monkeypatch.setattr(evaluation, "fit_arrays", recording)
        loocv(separable, GrmlrConfig())
        assert spares[0] is None
        assert spares[1] is not None and all(spare is spares[1] for spare in spares[1:])
        assert model._session == CLOSED

    def test_no_spare_outside_a_session(self):
        _fit_bytes(_problem(12, 10, 0))
        assert model._session == CLOSED


def test_import_loads_no_process_pool_module():
    # fit, predict and eval loocv never start a pool, so they never import one
    src = Path(model.__file__).resolve().parents[1]
    script = (
        "import sys, grmlr\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
