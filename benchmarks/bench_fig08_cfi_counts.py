"""FIG8 — number of closed frequent itemsets vs primary threshold.

Paper: Figure 8 (log-log): for chess and PUMSB the CFI count rises
drastically as the primary threshold drops; mushroom grows more gradually.
This bench regenerates the three series over the synthetic stand-ins and
benchmarks CHARM itself at each dataset's chosen primary threshold.
"""

from __future__ import annotations

import pytest

from _harness import RESULTS_DIR
from repro.analysis.reporting import format_series, write_csv
from repro.itemsets.charm import closed_masks
from repro.itemsets.itemset import min_count_for
from repro.workloads.experiments import EXPERIMENTS


def _id_tidsets(table):
    """The table's ``(item id, tidset)`` pairs, what CHARM mines over."""
    schema = table.schema
    return [(schema.item_id(item), tidset)
            for item, tidset in table.item_tidsets().items()]


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_fig08_charm_at_primary_threshold(benchmark, name):
    """Time the offline closed-itemset run (CHARM) at the primary
    threshold — the offline cost Figure 8's x-axis trades against."""
    spec = EXPERIMENTS[name]
    table = spec.make_table()
    tidsets = _id_tidsets(table)  # warm the per-item tidsets first

    closed = benchmark.pedantic(
        closed_masks,
        args=(tidsets, min_count_for(spec.primary_support, table.n_records)),
        rounds=3, iterations=1,
    )
    assert len(closed) > 0


def test_fig08_series(benchmark):
    """Regenerate the Figure 8 series: CFI counts per primary threshold."""

    def run():
        series = {}
        for name, spec in sorted(EXPERIMENTS.items()):
            table = spec.make_table()
            tidsets = _id_tidsets(table)
            counts = [
                len(closed_masks(
                    tidsets, min_count_for(threshold, table.n_records)
                ))
                for threshold in spec.fig8_thresholds
            ]
            series[name] = (spec.fig8_thresholds, counts)
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\nFIG8 — closed frequent itemsets by primary threshold")
    rows = []
    for name, (thresholds, counts) in series.items():
        print(" ", format_series(name, [f"{t:.0%}" for t in thresholds], counts))
        rows.extend([name, t, c] for t, c in zip(thresholds, counts))
        # the paper's qualitative claim: counts rise as the threshold drops
        assert all(a <= b for a, b in zip(counts, counts[1:])), name
    write_csv(RESULTS_DIR / "fig08_cfi_counts.csv",
              ["dataset", "primary_threshold", "closed_itemsets"], rows)
