"""The pre-layout cardinality pass, kept as the reference.

``repro.core.costs._cardinalities`` computes the six candidate/survivor
counts of a :class:`~repro.core.costs.QueryProfile` by bit-counting over
the statistics' support-ordered MIP bitsets, with its numeric pass
restricted to the MIPs still in play; this is the function it replaced,
verbatim but for reading the per-item profile through a transposed view
of the item-major array.  It walks every per-MIP array in MIP order
beside ``mip_fixed_values``, so it runs on :func:`mip_order_stats`.
``tests/property/test_profile_properties.py`` holds the two to ``==`` on
every output.
"""

import dataclasses

import numpy as np

from repro.core.stats import IndexStatistics


@dataclasses.dataclass(frozen=True)
class MipOrderStatistics(IndexStatistics):
    """The layout this pass was written against: every per-MIP array in
    MIP order, the global counts among them."""

    mip_global_counts: np.ndarray = None


def mip_order_stats(index) -> MipOrderStatistics:
    """``index.stats`` with the support-ordered per-MIP arrays put back in
    MIP order."""
    stats = index.stats
    counts = np.asarray(index.global_counts, dtype=np.int64)
    position = np.argsort(np.argsort(-counts, kind="stable"))
    fields = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}
    fields.update(
        mip_global_counts=counts,
        item_mip_counts=stats.item_mip_counts[:, position],
        mip_fanout=stats.mip_fanout[position],
        mip_log_counts=stats.mip_log_counts[position],
    )
    return MipOrderStatistics(**fields)


def reference_cardinalities(query, focal, stats, min_count):
    """The cardinality pass ``QueryProfile.from_query`` ran before the
    item-major statistics layout: every numeric step over all N MIPs,
    reading the per-item profile MIP-major."""
    # The layout this pass was written against (views, no copy).
    item_columns = stats.item_rows
    item_local_counts = stats.item_mip_counts.T
    n = stats.n_mips
    if n == 0:
        return {
            "n_cands": 0.0,
            "n_cands_supported": 0.0,
            "n_contained": 0.0,
            "est_qualified": 0.0,
            "est_qualified_partial": 0.0,
            "qualified_fanout": 0.0,
        }
    fixed = stats.mip_fixed_values
    overlap = np.ones(n, dtype=bool)
    contained = np.ones(n, dtype=bool)
    local_upper = np.full(n, stats.n_records, dtype=np.int64)
    n_range_attrs = 0
    log_prod = np.zeros(n, dtype=float)
    for ai, values in query.range_selections.items():
        card = stats.cardinalities[ai]
        sel = np.zeros(card, dtype=bool)
        sel[list(values)] = True
        col = fixed[:, ai]
        fixes = col >= 0
        in_sel = np.zeros(n, dtype=bool)
        in_sel[fixes] = sel[col[fixes]]
        overlap &= ~fixes | in_sel
        if not sel.all():
            contained &= fixes & in_sel
        cols = [
            item_columns[(ai, v)]
            for v in values
            if (ai, v) in item_columns
        ]
        if cols:
            attr_counts = item_local_counts[:, cols].sum(
                axis=1, dtype=np.int64
            )
        else:
            attr_counts = np.zeros(n, dtype=np.int64)
        local_upper = np.minimum(local_upper, attr_counts)
        n_range_attrs += 1
        with np.errstate(divide="ignore"):
            log_prod += np.log(attr_counts.astype(float))

    # Expected local count: the Frechet bound ``min_a |t(M) n D^Q_a|`` is
    # exact for single-attribute regions but overcounts multi-attribute
    # ones (the realized intersection of k attribute slices is far below
    # the loosest slice).  The independence estimate ``g * prod_a(c_a/g)``
    # errs the other way on correlated attributes, so the model takes
    # their geometric mean.
    if n_range_attrs >= 2:
        g = stats.mip_global_counts.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_expected = log_prod - (n_range_attrs - 1) * np.log(g)
        expected = np.where(g > 0, np.exp(log_expected), 0.0)
        est_local = np.sqrt(local_upper * np.minimum(expected, local_upper))
    else:
        est_local = local_upper.astype(float)

    if query.item_attributes is None:
        aitem_ok = np.ones(n, dtype=bool)
    else:
        outside = [
            a for a in range(stats.n_attributes) if a not in query.item_attributes
        ]
        aitem_ok = (
            ~(fixed[:, outside] >= 0).any(axis=1)
            if outside
            else np.ones(n, dtype=bool)
        )

    supported = stats.mip_global_counts >= min_count
    qualified_mask = overlap & aitem_ok & (est_local >= min_count)
    contained &= overlap
    lengths = (fixed >= 0).sum(axis=1)
    fanout = np.exp2(np.minimum(lengths, 16).astype(float))
    return {
        "n_cands": float(overlap.sum()),
        "n_cands_supported": float((overlap & supported).sum()),
        "n_contained": float((contained & supported).sum()),
        "est_qualified": float(qualified_mask.sum()),
        "est_qualified_partial": float((qualified_mask & ~contained).sum()),
        "qualified_fanout": float(fanout[qualified_mask].sum()),
    }
