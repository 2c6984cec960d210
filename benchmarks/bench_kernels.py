"""KERN — scalar int-tidset path vs the batched ``repro.kernels`` path.

Measures the hot-path kernel the vectorized bitset layer replaced:

* ``eliminate_qualify`` — ELIMINATE/SUPPORTED-VERIFY's candidate
  qualification: ``|t(I_k) ∩ D^Q|`` for all k candidates (scalar: one
  big-int AND + popcount per candidate; kernel: one row-gather +
  :func:`repro.kernels.and_count`).

The grid crosses ``n_records ∈ {1k, 5k, 20k}`` with candidate counts, and
the speedup series lands in ``benchmarks/results/kernels_speedup.csv``
plus the top-level ``BENCH_kernels.json`` so later PRs can track the perf
trajectory.  Run as a pytest test (asserts the >=2x acceptance bar for
batched qualification at >=5k records) or directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro import tidset as ts
from repro.analysis.reporting import format_table, write_csv

from _harness import BENCH_SMOKE, smoke_grid

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = Path(__file__).parent.parent / "BENCH_kernels.json"

#: Smoke mode keeps one gate-eligible size (5k records) so the >=2x
#: acceptance bar below is still enforced, just on a smaller grid.
N_RECORDS = smoke_grid((1_000, 5_000, 20_000), (1_000, 5_000))
N_CANDIDATES = smoke_grid((64, 256, 1024), (64, 256))
DENSITY = 0.3
REPEATS = smoke_grid(5, 3)


def _random_tidsets(rng: np.random.Generator, k: int, n: int) -> list[int]:
    """k random tidsets over universe n at the benchmark density."""
    return [
        int.from_bytes(
            np.packbits(
                rng.random(n) < DENSITY, bitorder="little"
            ).tobytes(),
            "little",
        )
        for _ in range(k)
    ]


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_eliminate(rng, n_records: int, n_candidates: int) -> dict:
    tidsets = _random_tidsets(rng, n_candidates, n_records)
    dq = _random_tidsets(rng, 1, n_records)[0]
    words = kernels.n_words(n_records)
    matrix = kernels.pack_many(tidsets, words)  # offline, like the MIP-index

    def scalar():
        return [(t & dq).bit_count() for t in tidsets]

    def kernel():
        # dq packing happens per query, so it is timed; the candidate
        # matrix is an offline artifact and is not.
        return kernels.and_count(matrix, kernels.pack(dq, words))

    assert list(kernel()) == scalar()
    scalar_s = _best_of(scalar)
    kernel_s = _best_of(kernel)
    return {
        "kernel": "eliminate_qualify",
        "n_records": n_records,
        "n_candidates": n_candidates,
        "scalar_s": scalar_s,
        "kernel_s": kernel_s,
        "speedup": scalar_s / kernel_s if kernel_s else float("inf"),
    }


def run_bench(seed: int = 3) -> list[dict]:
    rng = np.random.default_rng(seed)
    records: list[dict] = []
    for n_records in N_RECORDS:
        for n_candidates in N_CANDIDATES:
            records.append(_bench_eliminate(rng, n_records, n_candidates))
    return records


def write_results(records: list[dict]) -> None:
    headers = ["kernel", "n_records", "n_candidates", "scalar_ms",
               "kernel_ms", "speedup"]
    rows = [
        [r["kernel"], r["n_records"], r["n_candidates"],
         f"{r['scalar_s'] * 1e3:.3f}", f"{r['kernel_s'] * 1e3:.3f}",
         f"{r['speedup']:.1f}x"]
        for r in records
    ]
    print("\nKERN — scalar int-tidset path vs batched repro.kernels path")
    print(format_table(headers, rows))
    write_csv(RESULTS_DIR / "kernels_speedup.csv", headers, rows)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "bench": "kernels",
                "numpy": np.__version__,
                "density": DENSITY,
                "repeats": REPEATS,
                "smoke": BENCH_SMOKE,
                "series": records,
            },
            indent=2,
        )
        + "\n"
    )


def test_kernel_speedup():
    records = run_bench()
    write_results(records)
    # Acceptance bar: batched ELIMINATE-style qualification is >= 2x the
    # scalar path at every >= 5k-record universe (geometric mean over the
    # candidate-count axis, so one noisy cell cannot flip the verdict).
    for n_records in (n for n in N_RECORDS if n >= 5_000):
        speedups = [
            r["speedup"] for r in records
            if r["kernel"] == "eliminate_qualify"
            and r["n_records"] == n_records
        ]
        assert speedups, f"no qualifying series at n_records={n_records}"
        geomean = float(np.exp(np.mean(np.log(speedups))))
        assert geomean >= 2.0, (
            f"kernel speedup {geomean:.2f}x < 2x at n_records={n_records}"
        )
    # Sanity: both paths agree on a fresh draw (byte-identical counts).
    rng = np.random.default_rng(11)
    sets_ = _random_tidsets(rng, 50, 5_000)
    dq = _random_tidsets(rng, 1, 5_000)[0]
    words = kernels.n_words(5_000)
    counts = kernels.and_count(
        kernels.pack_many(sets_, words), kernels.pack(dq, words)
    )
    assert list(counts) == [ts.count(ts.intersect(s, dq)) for s in sets_]


if __name__ == "__main__":
    write_results(run_bench())
