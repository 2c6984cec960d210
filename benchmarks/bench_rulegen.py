"""RULEGEN — scalar big-int rule extraction vs the focal-projected path.

Measures the whole VERIFY rule-generation stage on qualified candidates:

* **scalar** — :func:`repro.core.operators._rules_from_qualified_reference`,
  the memoized big-int AND chain with consequent-growth pruning (the
  pre-focal-projection implementation, kept verbatim as the parity
  oracle);
* **batched** — :func:`repro.core.operators._rules_from_qualified`, the
  focal-projected path in the integer item space: one projection into
  the dense ``|D^Q|``-bit universe (charged to the batched timing via a
  fresh kernel per repetition), one table of the request's distinct
  sub-itemsets (an AND and a popcount per level), mask-indexed
  confidence checks, and a numeric ``lexsort`` emit in canonical rule
  order.

The grid crosses chess- and mushroom-shaped tables with focal fractions
and both expand modes; every cell asserts the two paths produce
*byte-identical* rule sets before timing them.  The speedup series lands
in ``benchmarks/results/rulegen_speedup.csv`` plus the top-level
``BENCH_rulegen.json``.  Run as a pytest test (asserts the >=2x
per-dataset geometric-mean acceptance bar) or directly::

    PYTHONPATH=src python benchmarks/bench_rulegen.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.core.mipindex import build_mip_index
from repro.core.operators import (
    _rules_from_qualified,
    _rules_from_qualified_reference,
    make_context,
    op_eliminate,
    op_search,
)
from repro.dataset.synthetic import chess_like, mushroom_like

from _harness import BENCH_SMOKE, smoke_grid
from repro.workloads.queries import random_focal_query

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = Path(__file__).parent.parent / "BENCH_rulegen.json"

#: (dataset, table factory, n_records grid, minsupp).  Smoke keeps one
#: gate-eligible size per dataset; the acceptance bar stays enforced.
DATASETS = (
    ("chess", chess_like, smoke_grid((1_000, 2_000), (1_000,)), 0.30),
    ("mushroom", mushroom_like, smoke_grid((1_600, 3_200), (1_600,)), 0.25),
)
#: Focal fractions: smoke drops the tiny-output 0.2 cell (a handful of
#: rules, numpy-call-overhead-bound) so CI noise cannot flip the gate.
FRACTIONS = smoke_grid((0.5, 0.2, 0.1), (0.5, 0.1))
MINCONF = 0.7
PRIMARY_SUPPORT = 0.08
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _bench_cell(dataset, index, wq, n_records, fraction, minsupp, expand):
    ctx = make_context(index, wq.query, expand=expand)
    qualified = op_eliminate(ctx, op_search(ctx))

    def batched():
        # A fresh kernel per repetition charges the one-off focal
        # projection to the batched timing — no amortization tricks.
        ctx.focus._lazy[1] = None
        ctx.projection_s = 0.0
        rules, _evals, _kernel_s = _rules_from_qualified(ctx, qualified)
        return rules

    def scalar():
        rules, _lookups = _rules_from_qualified_reference(ctx, qualified)
        return rules

    batched_s, batched_rules = _best_of(batched)
    scalar_s, scalar_rules = _best_of(scalar)
    # Byte-identical rule sets (same tuples, counts, floats, order) for
    # every benchmark query — the bar is exactness, not approximation.
    assert batched_rules == scalar_rules, (
        f"rule sets diverge: {dataset} n={n_records} frac={fraction} "
        f"expand={expand}"
    )
    return {
        "dataset": dataset,
        "n_records": n_records,
        "fraction": fraction,
        "minsupp": minsupp,
        "expand": expand,
        "dq_size": ctx.dq_size,
        "n_qualified": len(qualified),
        "n_rules": len(batched_rules),
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s if batched_s else float("inf"),
    }


def _substantive_query(table, index, fraction, minsupp, seed, pool=5):
    """Deterministically pick the most rule-substantive query of a pool.

    Rule-generation time is the quantity under test, so each cell mines
    the query with the largest qualified-candidate set among ``pool``
    deterministic draws — a query qualifying a handful of candidates
    measures numpy call overhead, not extraction throughput.
    """
    best_wq, best_q = None, -1
    for k in range(pool):
        rng = np.random.default_rng(seed * 100 + k)
        wq = random_focal_query(table, fraction, minsupp, MINCONF, rng)
        ctx = make_context(index, wq.query)
        n_qualified = len(op_eliminate(ctx, op_search(ctx)))
        if n_qualified > best_q:
            best_wq, best_q = wq, n_qualified
    return best_wq


def run_bench(seed: int = 5) -> list[dict]:
    records: list[dict] = []
    query_seed = seed
    for dataset, make_table, sizes, minsupp in DATASETS:
        for n_records in sizes:
            table = make_table(n_records=n_records)
            index = build_mip_index(table, primary_support=PRIMARY_SUPPORT)
            for fraction in FRACTIONS:
                query_seed += 1
                wq = _substantive_query(
                    table, index, fraction, minsupp, query_seed
                )
                for expand in (False, True):
                    records.append(
                        _bench_cell(dataset, index, wq, n_records,
                                    fraction, minsupp, expand)
                    )
    return records


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def write_results(records: list[dict]) -> None:
    headers = ["dataset", "n_records", "fraction", "expand", "n_rules",
               "scalar_ms", "batched_ms", "speedup"]
    rows = [
        [r["dataset"], r["n_records"], r["fraction"], int(r["expand"]),
         r["n_rules"], f"{r['scalar_s'] * 1e3:.2f}",
         f"{r['batched_s'] * 1e3:.2f}", f"{r['speedup']:.2f}x"]
        for r in records
    ]
    print("\nRULEGEN — scalar big-int extraction vs focal-projected kernels")
    print(format_table(headers, rows))
    for dataset, *_ in DATASETS:
        cells = [r["speedup"] for r in records if r["dataset"] == dataset]
        print(f"  {dataset}: geomean {_geomean(cells):.2f}x over "
              f"{len(cells)} cells")
    write_csv(RESULTS_DIR / "rulegen_speedup.csv", headers, rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "rulegen",
                "numpy": np.__version__,
                "minconf": MINCONF,
                "primary_support": PRIMARY_SUPPORT,
                "repeats": REPEATS,
                "smoke": BENCH_SMOKE,
                "series": records,
            },
            indent=2,
        )
        + "\n"
    )


def test_rulegen_speedup():
    records = run_bench()
    write_results(records)
    # Acceptance bar: the focal-projected path generates rules >= 2x
    # faster than the scalar reference on each dataset shape (geometric
    # mean over the fraction x expand grid, so one noisy cell cannot
    # flip the verdict).  Byte-identical rule sets were already asserted
    # per query inside _bench_cell.
    for dataset, *_ in DATASETS:
        cells = [r["speedup"] for r in records if r["dataset"] == dataset]
        assert cells, f"no cells for {dataset}"
        geomean = _geomean(cells)
        assert geomean >= 2.0, (
            f"rulegen speedup {geomean:.2f}x < 2x on {dataset}"
        )


if __name__ == "__main__":
    write_results(run_bench())
