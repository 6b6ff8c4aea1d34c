"""Numeric parity of the fits of two grmlr source trees.

A solver change can alter the last bits of every fitted W, so the hash
diff of ``tools/golden_hashes.py`` cannot tell a rounding change from a
regression. This tool runs that script's fit, LOOCV and workers-1
96-config grid probes, hard-regime ones included (the same datasets and
configs, imported from it), on two trees and reports how far the numbers
moved:

    python3 tools/fit_parity.py --src /path/to/parent/src --src src

For each ``fit/*`` and ``loocv/*`` probe it prints lambda_l2, the
iteration counts and converged flags of both trees (summed over folds for
LOOCV), the worst relative change of [W | b] (max |dV| / max |V| of the
first tree), the worst relative and absolute change of ``final_loss``, and
whether every held-out prediction is equal. Each ``grid96/*`` probe
(workers 1) is equal when every entry's index, config, accuracy, macro-F1
and error are. A summary follows, with the worst signed objective excess
(f_B - f_A) / |f_A| over all fits. It exits 1 when any prediction or grid
entry differs or when any fit's ``final_loss`` in the second tree exceeds
the first tree's by more than ``OBJECTIVE_RTOL`` relative, and 0
otherwise. Each tree runs in its own Python process; a full run takes
about 20 s on two cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from golden_hashes import (
    GRID_96,
    SEEDS,
    fit_configs,
    hard_datasets,
    import_grmlr,
    synth_datasets,
)

# A fit of the second tree may end above the first tree's objective by this
# relative amount: the tolerance perfbench/checks.py applies to the
# benchmark's fits, so no solver change may make the training objective
# worse by more than the benchmark allows.
OBJECTIVE_RTOL = 1e-7


def _fit_record(W, b, n_iterations, converged, final_loss) -> dict:
    return {
        "V": np.column_stack([W, b]).tolist(),
        "n_iterations": int(n_iterations),
        "converged": bool(converged),
        "final_loss": float(final_loss),
    }


def collect(g) -> dict:
    """Every probe's fits, predictions and grid entries, as JSON-ready records."""
    records = {}
    datasets = synth_datasets(g)
    hard = hard_datasets(g)
    cases = [(dname, dataset, fit_configs(g)) for dname, dataset in datasets.items()]
    cases += [(dname, dataset, {"default": g.GrmlrConfig()}) for dname, dataset in hard.items()]
    for dname, dataset, configs in cases:
        for cname, config in configs.items():
            tag = f"{dname}/{cname}"
            model, _ = g.fit(dataset, config)
            records[f"fit/{tag}"] = {
                "lambda_l2": config.lambda_l2,
                "fits": [
                    _fit_record(
                        model.weights, model.bias, model.n_iterations,
                        model.converged, model.final_loss,
                    )
                ],
                "predictions": None,
            }
            report = g.loocv(dataset, config, keep_models=True)
            records[f"loocv/{tag}"] = {
                "lambda_l2": config.lambda_l2,
                "fits": [
                    _fit_record(m.weights, m.bias, m.n_iterations, m.converged, m.final_loss)
                    for m in report.fold_models
                ],
                "predictions": report.to_dict()["per_fold"],
            }
    grids = {f"seed{seed}": datasets[f"13x26/seed{seed}"] for seed in SEEDS}
    for name, dataset in {**grids, **hard}.items():
        result = g.grid_search(dataset, GRID_96, workers=1)
        records[f"grid96/{name}"] = {
            "entries": [
                [e.index, e.config.to_dict(), e.accuracy, e.macro_f1, e.error]
                for e in result.entries
            ]
        }
    return records


def _run_tree(src: str, out: Path) -> dict:
    subprocess.run(
        [sys.executable, __file__, "--src", src, "--dump", str(out)], check=True
    )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _compare_fits(fits_a: list, fits_b: list) -> dict:
    rel_dv = rel_dloss = abs_dloss = 0.0
    excess = -np.inf
    for fa, fb in zip(fits_a, fits_b):
        va, vb = np.array(fa["V"]), np.array(fb["V"])
        scale = np.abs(va).max()
        dv = np.abs(va - vb).max()
        rel_dv = max(rel_dv, dv / scale if scale > 0 else dv)
        dloss = abs(fa["final_loss"] - fb["final_loss"])
        abs_dloss = max(abs_dloss, dloss)
        scale = max(abs(fa["final_loss"]), np.finfo(float).tiny)
        rel_dloss = max(rel_dloss, dloss / scale)
        excess = max(excess, (fb["final_loss"] - fa["final_loss"]) / scale)
    return {
        "iters": [sum(f["n_iterations"] for f in fits) for fits in (fits_a, fits_b)],
        "converged": [all(f["converged"] for f in fits) for fits in (fits_a, fits_b)],
        "rel_dv": rel_dv,
        "rel_dloss": rel_dloss,
        "abs_dloss": abs_dloss,
        "excess": excess,
    }


def report(a: dict, b: dict) -> int:
    """Print the per-probe table and the summary; return the exit code."""
    mismatches = []
    totals = {"fits": 0, "iters_differ": 0, "rel_dv": 0.0, "excess": -np.inf}
    above = []
    flag = {True: "T", False: "F"}
    print(
        f"{'probe':<40} {'l2':>6} {'iters A/B':>11} {'conv':>4} "
        f"{'rel dV':>9} {'rel dloss':>9} {'abs dloss':>9}  predictions"
    )
    for name in sorted(a):
        ra, rb = a[name], b[name]
        if name.startswith("grid96/"):
            equal = ra["entries"] == rb["entries"]
            if not equal:
                mismatches.append(name)
            print(f"{name:<40} {'':>56}  {'grid equal' if equal else 'GRID DIFFERS'}")
            continue
        cmp = _compare_fits(ra["fits"], rb["fits"])
        if ra["predictions"] is None:
            preds = "-"
        elif ra["predictions"] == rb["predictions"]:
            preds = "equal"
        else:
            preds = "DIFFER"
            mismatches.append(name)
        l2 = ra["lambda_l2"]
        totals["fits"] += len(ra["fits"])
        totals["iters_differ"] += sum(
            fa["n_iterations"] != fb["n_iterations"] for fa, fb in zip(ra["fits"], rb["fits"])
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
        return 1
    print("every LOOCV prediction and grid entry is equal, and no final_loss rises past the bound")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        action="append",
        required=True,
        help="directory that holds a grmlr package; give it twice, first tree first",
    )
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        if len(args.src) != 1:
            parser.error("--dump takes exactly one --src")
        records = collect(import_grmlr(parser, args.src[0]))
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        return 0
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    with tempfile.TemporaryDirectory() as tmpdir:
        a, b = (_run_tree(src, Path(tmpdir) / f"{i}.json") for i, src in enumerate(args.src))
    return report(a, b)


if __name__ == "__main__":
    sys.exit(main())
