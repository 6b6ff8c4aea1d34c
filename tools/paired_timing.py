"""Paired in-process timing of one grmlr call on two source trees.

Loads the ``grmlr`` package of each ``--src`` tree into one Python process,
under the distinct package names ``grmlr_a`` and ``grmlr_b``, and times one
call on each in alternation: pair k runs A then B for even k and B then A
for odd k. Both trees then see the same machine state within each pair,
so a drift of the machine's speed over minutes, which separate-process
timings cannot tell from a change of the code, moves both sides alike:

    python3 tools/paired_timing.py --src /path/to/parent/src --src src --call paper-grid

The calls, each on perfbench's base dataset (``perfbench/run.py``'s
``synthesize`` at its ``BASE_SEED``) built by its own tree, at 13x26
unless noted. With ``--seed S`` the dataset is perfbench's
``seeded_dataset`` instead: its sites and taxa permuted as perfbench's
``--seed S`` permutes them, so a claim made at one seed can be checked at
another. The tool only reads ``perfbench/run.py``, so each timed call and
its data are defined once:

* ``paper-grid``: ``grid_search`` of perfbench's ``PAPER_GRID``, the 6
  configs of its ``paper-grid`` workload (alpha in {0, 0.5, 1}, lambda_g
  in {0, 10});
* ``permtest``: ``permutation_test(B=50, seed=0)`` at the default config;
* ``default-grid``: ``grid_search`` of ``DEFAULT_GRID``, 2112 configs
  (about 5 s a call);
* ``paper-loocv``: ``loocv(keep_models=True)`` at the default config,
  where per-fit Python bookkeeping shows (about 36 ms a call), whose
  results compare by ``to_dict()``;
* ``stress-loocv``: the same call at 40x160, perfbench's ``stress-loocv``
  call (about 0.8 s a call).

All calls run serially (workers 1). Before timing, each side runs
``WARMUP`` untimed calls. It checks that both trees return equal results, then
prints each side's median and quartiles in milliseconds, the median of the
per-pair ratios B/A, and the share of pairs that B won (took less time
than A in the same pair; ties count for neither). A gain claim needs B to
win at least 9 of 10 pairs and the medians to differ by more than A's
interquartile range. Exits 1 when the results differ.

Both trees share one process, and so one malloc state. In-process pairs
therefore hide what depends on the allocator's history: a call that
separate processes see page-faulting its large arrays back in, because
glibc returned them to the OS after the previous call, can time the same
here once either tree has raised glibc's mmap and trim thresholds. Count
such effects in fresh processes, for instance with the minor faults of
``resource.getrusage`` around the call.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run as perfbench  # noqa: E402

WARMUP = 5  # untimed calls per side before the timed pairs


def load_tree(src: str, name: str):
    """The grmlr package under ``src``, imported as the top-level package ``name``."""
    init = Path(src).resolve() / "grmlr" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no grmlr package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_call(g, call: str, seed=None):
    """A no-argument function that runs ``call`` on tree ``g`` and returns its result as data.

    ``seed`` permutes the dataset as perfbench's ``--seed`` does; None keeps the base order.
    """
    n, p = (40, 160) if call == "stress-loocv" else (13, 26)
    if seed is None:
        dataset = perfbench.synthesize(g, n, p, perfbench.BASE_SEED)
    else:
        dataset, _ = perfbench.seeded_dataset(g, n, p, seed)

    def entries(result):
        return [(e.index, e.accuracy, e.macro_f1, e.error) for e in result.entries]

    if call == "paper-grid":
        return lambda: entries(g.grid_search(dataset, perfbench.PAPER_GRID))
    if call == "default-grid":
        return lambda: entries(g.grid_search(dataset, g.DEFAULT_GRID))
    config = g.GrmlrConfig()
    if call in ("paper-loocv", "stress-loocv"):
        return lambda: g.loocv(dataset, config, keep_models=True).to_dict()
    return lambda: g.permutation_test(dataset, config, B=50, seed=0).to_dict()


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return float(q1), float(q2), float(q3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src", action="append", required=True, help="directory that holds a grmlr package; twice"
    )
    parser.add_argument(
        "--call",
        required=True,
        choices=["paper-grid", "permtest", "default-grid", "paper-loocv", "stress-loocv"],
    )
    parser.add_argument("--pairs", type=int, default=100, help="timed pairs (default 100)")
    parser.add_argument(
        "--seed",
        type=int,
        help="permute the dataset's sites and taxa as perfbench's --seed does (default: none)",
    )
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    calls = [
        make_call(load_tree(src, name), args.call, args.seed) for src, name in zip(args.src, "ab")
    ]
    results = [call() for call in calls]
    if repr(results[0]) != repr(results[1]):  # by repr, where a failed entry's NaN equals NaN
        print("error: the two trees return different results", file=sys.stderr)
        return 1
    for call in calls:
        for _ in range(WARMUP):
            call()
    times: list[list[float]] = [[], []]
    for k in range(args.pairs):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            times[side].append(timed(calls[side]))
    a, b = times
    for label, src, values in zip("AB", args.src, times):
        q1, q2, q3 = quartiles(values)
        print(
            f"{label} {src}: median {q2 * 1e3:.3f} ms  quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms"
        )
    ratio = statistics.median(tb / ta for ta, tb in zip(a, b))
    won = sum(tb < ta for ta, tb in zip(a, b))
    q1, _, q3 = quartiles(a)
    gap = statistics.median(a) - statistics.median(b)
    print(f"{args.call}: {args.pairs} pairs, median ratio B/A {ratio:.3f}, B won {won}/{len(b)}")
    print(
        f"median A - median B {gap * 1e3:+.3f} ms "
        f"against A's interquartile range {(q3 - q1) * 1e3:.3f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
