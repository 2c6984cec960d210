"""The COLARM cost model (Equations 1-6, Table 4).

Each plan's cost is a weighted sum of *load features* — the operator-level
work estimates the paper's equations describe:

* ``search``    — Eq. 1/3 COST(S)/COST(SS) as the operator runs them:
  the region's bitmap pass over the per-value MIP bitsets, in 64-bit
  words, plus one gathered row per candidate it returns;
* ``eliminate`` — record-level support checks, in tidset-word units
  (Eq. 1 COST(E) = |{I^Q_S}| x |D^Q|); SS-E-U-V pays only for partially
  overlapped candidates (Lemma 4.5);
* ``verify``    — support-counting work inside VERIFY: one focal
  projection of the item tidsets (all item rows times the full tidset
  width) plus the request's sub-itemset table — every ``(source, mask)``
  cell named and gathered, every *distinct* sub-itemset ANDed once at
  the *projected* ``|D^Q|``-word width (Eq. 1 COST(V));
* ``rulegen``   — rule extraction proper: the per-candidate antecedent /
  consequent enumeration and vectorized confidence pass, scaling with the
  qualified fan-out but independent of the tidset width;
* ``select``    — focal-subset extraction (Eq. 6 COST(sigma)): the
  subset is read out of the focal projection, so this is the projection
  term ``verify`` also pays;
* ``arm``       — from-scratch mining work (Eq. 6 COST(eps_AR)), sized by
  a density-aware estimate of the *locally* frequent itemsets;
* ``const``     — fixed per-pipeline-stage overhead (what selection
  push-up saves).

The cardinality estimates behind the features implement Lemmas 4.1-4.5:
expected overlapping MIPs from Minkowski-sum extents, supported-filter
selectivity from the precomputed global-count distribution, and the
contained/partial split from per-attribute fixing probabilities.  The unit
weights are fitted by :mod:`repro.core.calibration`; evaluating all six
formulae is a constant-time computation, as Section 3.1 requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.core.focal import FocalSubset
from repro.core.query import FocalRange, LocalizedQuery
from repro.core.stats import IndexStatistics, bit_array
from repro.core.plans import PlanKind
from repro.itemsets.itemset import min_count_for
from repro.rtree.costmodel import expected_leaf_matches

__all__ = [
    "ArmModelStats",
    "CostWeights",
    "QueryProfile",
    "CostModel",
    "DEFAULT_WEIGHTS",
]

#: Uncalibrated per-unit weights (seconds per load unit), rough orders of
#: magnitude for CPython; calibration replaces them with fitted values.
#: ``delta_probe``/``delta_merge`` price the delta-store corrections of a
#: maintained index (per-candidate AND+popcount over the delta MIP matrix,
#: and projecting the delta item rows into the request's one universe);
#: they are fitted from the live delta store by
#: ``calibration.calibrate_maintenance`` and appear in a MIP plan's load
#: vector only while un-folded delta records exist, where they can tip a
#: pick toward ARM.  When to fold is not priced: see
#: ``MaintainedIndex.fold_due``.
DEFAULT_WEIGHTS: dict[str, float] = {
    "search": 3e-9,
    "eliminate": 3e-8,
    "verify": 4e-8,
    "rulegen": 5e-7,
    "select": 6e-8,
    "arm": 2e-7,
    "const": 5e-5,
    "delta_probe": 3e-8,
    "delta_merge": 4e-8,
}


@dataclass(frozen=True)
class CostWeights:
    """Per-feature unit costs used to price the load vectors."""

    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def price(self, loads: dict[str, float]) -> float:
        return sum(self.weights.get(name, 0.0) * load for name, load in loads.items())


@dataclass(frozen=True)
class QueryProfile:
    """Query-derived quantities shared by all six cost formulae.

    The cardinalities (``n_cands*``, ``est_qualified*``) come from a
    vectorized pass over the precomputed per-MIP statistics
    (:class:`~repro.core.stats.IndexStatistics`): exact geometric overlap
    and containment counts, exact supported-filter selectivity, and a
    local-support *upper bound* per MIP (the minimum of its per-range-
    attribute projected counts) standing in for the record-level check.
    When the per-item profile is unavailable, the distribution-based
    Lemma 4.1/4.2 estimates take over.
    """

    hull_extents: tuple[int, ...]
    min_count: int           # ceil(minsupp * |D^Q|)
    global_floor: int        # ceil(minsupp * |D|): global count needed to pass
    dq_size: int
    aitem_fraction: float    # P(candidate itemset lies within Aitem)
    contained_fraction: float  # P(overlapping MIP is fully contained)
    n_cands: float             # MIPs geometrically overlapping the region
    n_cands_supported: float   # ... also passing the supported filter
    n_contained: float         # ... fully contained (of n_cands_supported)
    est_qualified: float       # expected ELIMINATE survivors (Aitem applied)
    est_qualified_partial: float  # survivors among partially overlapped MIPs
    qualified_fanout: float    # sum of 2**length over the expected survivors
    arm_itemsets: float        # model-based locally-frequent itemset count
    arm_fanout: float          # ... and its 2**length rule-generation mass
    #: Measured local structure behind the ARM estimate (``from_query``
    #: always measures it; None only on a hand-built profile).
    arm_stats: "ArmModelStats | None" = None
    #: Live delta-store records awaiting the next fold (0 = immutable
    #: index; the delta load terms then vanish from every plan).
    delta_records: int = 0
    #: Live delta records inside the focal subset (``|D^Q ∩ delta|``).
    delta_dq_size: int = 0
    #: Packed 64-bit words per delta-matrix row at profile time.
    delta_words: int = 0

    @classmethod
    def from_query(
        cls,
        query: LocalizedQuery,
        focus: FocalSubset,
        stats: IndexStatistics,
    ) -> "QueryProfile":
        """Build the profile of ``query`` over its resolved, non-empty
        focal subset.

        Besides the statistics, the profile reads the request's own focal
        projection (``focus.kernel()``, built here and adopted by the
        execution): one popcount over it is every item's local support,
        and its rows as int tidsets let the ARM model measure the *exact*
        locally frequent item, pair and triangle counts (a few hundred
        ``|D^Q|``-bit ANDs) — ARM's from-scratch mining must account for
        locally frequent itemsets *below* the index's primary floor, which
        no stored statistic covers.  Over a live delta that is the
        combined main+delta universe ``min_count`` is computed for.
        """
        dq_size, min_count = focus.dq_size, focus.min_count
        global_floor = min_count_for(query.minsupp, stats.n_records)
        aitem_fraction = _aitem_fraction(query, stats)
        contained_fraction = _contained_fraction(query, focus.focal, stats)
        cards = _cardinalities(
            query, focus, stats, min_count, global_floor,
            aitem_fraction, contained_fraction,
        )
        aitem = query.item_attributes
        arm_stats = _arm_model(
            kernels.popcount_rows(focus.kernel().matrix).tolist(),
            focus.item_tidsets(),
            [
                (base, base + stats.cardinalities[a])
                for a, base in enumerate(focus.index.table.schema.item_bases)
                if aitem is None or a in aitem
            ],
            min_count,
        )
        delta = focus.delta
        return cls(
            hull_extents=focus.focal.hull_extents(),
            min_count=min_count,
            global_floor=global_floor,
            dq_size=dq_size,
            aitem_fraction=aitem_fraction,
            contained_fraction=contained_fraction,
            arm_itemsets=arm_stats.est_itemsets,
            arm_fanout=arm_stats.est_fanout,
            arm_stats=arm_stats,
            delta_records=focus.source.n_pending if delta is not None else 0,
            delta_dq_size=delta.dq_size if delta is not None else 0,
            delta_words=delta.buffer.words if delta is not None else 0,
            **cards,
        )


#: At most this many locally frequent items have their pairwise supports
#: measured exactly; beyond it the pair density is extrapolated.
_ARM_MODEL_MAX_ITEMS = 48
#: At most this many of the strongest items have their *triangles* (level-3
#: itemsets) measured exactly; C(32, 3) ≈ 5k masked ANDs worst case.
_ARM_MODEL_MAX_TRIANGLE_ITEMS = 32
#: Itemset-length cap for the clique-model series (2**k saturates anyway).
_ARM_MODEL_MAX_LENGTH = 16
#: Chain-length caps for the measured lower bound (2**L / 3**L saturate).
_ARM_CHAIN_COUNT_CAP = 16
_ARM_CHAIN_FANOUT_CAP = 13
#: Per-candidate constant overhead of the from-scratch miner, in tidset-word
#: units: generating a candidate, comparing its tidset and recording it
#: cost a few hundred nanoseconds of interpreter time, whatever the focal
#: tidset's width — as much as ANDing ~64 words of it.  (CHARM's search
#: runs on Python ints; over the e2e pools one estimated itemset-item
#: costs 0.31 us plus 7 ns per ``|D^Q|`` word.)
_ARM_OP_OVERHEAD_WORDS = 64.0
#: Fixed cost of one from-scratch mining pass, in the same units: SELECT's
#: read-out, CHARM's roots and class sorts, one sub-itemset table and one
#: batched rule extraction run ~0.4 ms before the first candidate is
#: evaluated, whatever the focal subset's size.  (Tried at 16384 / 32768 /
#: 65536 / 131072 on the ``acc`` gate — docs/cost_model.md has the table:
#: ARM's median log(est/meas) goes +0.23 / -0.24 / -0.50 / -0.60 and
#: ``extra_cost`` 0.048 / 0.038 / 0.040 / 2.3; the e2e query pools alone
#: would have picked 65536.)
_ARM_PASS_OVERHEAD_WORDS = 32768.0
#: One rule-generation cell of the from-scratch plan — naming a ``(source,
#: mask)`` pair, gathering its count, checking its confidence — in the
#: same units: about one word's AND, and independent of the width (a
#: shared sub-itemset is ANDed once, not once per pair).
_ARM_CELL_WORDS = 1.0
#: The sub-itemset table of a VERIFY pass, in projected-word units (one
#: word of the focal projection repacked): the fixed cost of its naming
#: passes, the price of one ``(source, mask)`` cell, and how many
#: cell-words of AND one projected word buys — cells per distinct
#: sub-itemset (6-15 measured) times the AND's speed against the repack's.
#: Fitted over the e2e pools: counting takes 0.19 ms + 13 ns a cell + 1 ns
#: a cell-word, against 22 ns a projected word.
_LATTICE_PASS_WORDS = 8192.0
_LATTICE_CELL_WORDS = 4.0
_LATTICE_SHARING = 8.0
#: Fixed setup cost of one batched rule-extraction pass, in fan-out units:
#: numpy dispatch over the lattice chunks, the argsort of the rank keys and
#: the per-width group loop amount to roughly two thousand fan-out units of
#: vectorized work regardless of how many splits are actually checked.
_RULEGEN_OVERHEAD_UNITS = 2048.0


@dataclass(frozen=True)
class ArmModelStats:
    """Measured structure of the focal subset's frequent-item graph.

    Everything here comes from exact bitmask measurements over the focal
    tidset — the quantities the density-aware ARM estimate is conditioned
    on.  They are exposed (through :class:`QueryProfile`) so calibration
    can fit the ``arm`` weight against them and the accuracy bench can
    report estimate-vs-actual residuals alongside the structure that
    produced each estimate.
    """

    f1: int                 # exact locally frequent items
    sample_size: int        # items with exact pairwise measurements
    pairs_sampled: int      # pairs measured (C(sample_size, 2))
    f2_sampled: int         # exact locally frequent pairs in the sample
    density: float          # f2_sampled / pairs_sampled
    triangle_items: int     # items with exact triangle measurements
    triangles_candidate: int  # pair-graph triangles examined (Apriori cands)
    f3_sampled: int         # exact locally frequent triples in the sample
    chain_length: int       # greedy max-support frequent chain length
    fit_size: float         # quasi-clique moment fit: effective item count
    fit_density: float      # quasi-clique moment fit: effective pair density
    est_itemsets: float     # the mining-mass estimate
    est_fanout: float       # the rule-generation (sum 2**k) estimate


def _clique_equivalent_size(f3: float) -> float:
    """The real ``x`` with ``C(x, 3) = f3`` — the size of the clique whose
    triple count matches the measurement.

    Anchoring the series on this *clique-equivalent size* is what makes
    the estimate density-aware: ``C(x, 3)`` concentrates all measured mass
    in one dense core (the Kruskal-Katona extremal configuration), so a
    dense cluster inside an otherwise sparse focal subset is priced at
    its own density instead of being diluted by the global mean.
    """
    if f3 <= 0.0:
        return 0.0
    # C(x, 3) increases in x for x >= 2: bisect on [2, 64], with
    # ``_real_comb(x, 3)`` written out (same operations, same order).
    lo, hi = 2.0, 64.0
    if _real_comb(hi, 3) <= f3:
        return hi
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if mid / 3 * ((mid - 1) / 2) * (mid - 2) < f3:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _real_comb(x: float, k: int) -> float:
    """``C(x, k)`` for real ``x`` (0 when ``x < k - 1``); monotone in x."""
    if x <= k - 1:
        return 0.0
    out = 1.0
    for i in range(k):
        out *= (x - i) / (k - i)
    return out


def _quasi_clique_size(f2: float, f3: float) -> float:
    """The real ``n`` solving ``C(n, 3) (f2 / C(n, 2))**3 = f3`` — the
    quasi-clique whose second and third moments match the measurements.

    A quasi-clique ``G(n, q)`` has ``C(n, 2) q`` expected frequent pairs
    and ``C(n, 3) q**3`` expected frequent triples; eliminating ``q``
    gives the equation above, whose left side decreases in ``n`` (``q``
    shrinks like ``1/n**2`` while ``C(n, 3)`` only grows like ``n**3``).
    Bisection therefore finds the unique matching size: a uniform pair
    graph fits ``n ~ F1`` at the mean density, while a clustered one
    (many triangles for its pair count) fits a small dense core.
    """
    if f2 <= 0.0 or f3 <= 0.0:
        return 0.0

    def h(n: float) -> float:
        # C(n, 3) (f2 / C(n, 2))**3 written out in ``_real_comb``'s order.
        return n / 3 * ((n - 1) / 2) * (n - 2) * (f2 / (n / 2 * (n - 1))) ** 3

    lo, hi = 3.0, 4096.0
    if h(lo) <= f3:
        return lo
    if h(hi) >= f3:
        return hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if h(mid) > f3:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _arm_model(
    counts: list[int],
    tidsets: list[int],
    spans: list[tuple[int, int]],
    min_count: int,
) -> ArmModelStats:
    """Density-aware estimate of ARM's from-scratch mining mass.

    ARM mines the focal subset from scratch, so its work scales with the
    number of *locally* frequent itemsets — including those below the
    index's primary floor, which no stored statistic covers.  The model
    measures on the focal projection (``counts[i]``, ``tidsets[i]``: item
    id ``i``'s local support and ``|D^Q|``-bit tidset; ``spans``: the id
    ranges of the admitted attributes) with a few hundred intersections:

    * ``F1`` — the exact number of locally frequent items;
    * ``F2`` — the exact number of locally frequent item *pairs* among the
      strongest ``_ARM_MODEL_MAX_ITEMS`` items (plus a pair-density
      extrapolation for any unsampled tail);
    * ``F3`` — the exact number of locally frequent *triples* among the
      strongest ``_ARM_MODEL_MAX_TRIANGLE_ITEMS`` items, enumerated
      Apriori-style over the measured pair graph's triangles;
    * a greedy max-support chain: repeatedly extend a frequent itemset
      with the best remaining item until support dips below the floor.

    Levels ``k >= 4`` extrapolate by *moment-matching a quasi-clique* to
    the measured second and third levels (see the series below),
    truncated one level past the measured chain depth.  All measured
    inputs (``f1``, ``f2_sampled``, ``f3_sampled``, the chain) shrink
    monotonically as ``min_count`` rises.
    """
    # The locally frequent items as (-support, id, attribute), id order.
    frequent = [
        (-counts[i], i, attribute)
        for attribute, (lo, hi) in enumerate(spans)
        for i in range(lo, hi)
        if counts[i] >= min_count
    ]
    f1 = len(frequent)
    if f1 == 0:
        return ArmModelStats(0, 0, 0, 0, 0.0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    if f1 == 1:
        return ArmModelStats(1, 1, 0, 0, 0.0, 1, 0, 0, 1, 1.0, 0.0, 1.0, 2.0)

    # Deterministic strongest-first order: the sample at a higher floor is
    # always a prefix of the sample at a lower one, which keeps every
    # sampled measurement monotone in ``min_count``.
    sample = [
        tidsets[i] for _, i, _ in sorted(frequent)[:_ARM_MODEL_MAX_ITEMS]
    ]
    m = len(sample)

    # -- F2: exact pairs over the sample --------------------------------------
    # Bit ``j`` of ``adjacency[i]``: a frequent pair ``i < j < t``.
    t = min(m, _ARM_MODEL_MAX_TRIANGLE_ITEMS)
    adjacency = [0] * m
    pair_masks: list[tuple[int, int, int]] = []
    f2_sampled = 0
    for i in range(m):
        mask_i = sample[i]
        for j in range(i + 1, m):
            inter = mask_i & sample[j]
            if inter.bit_count() >= min_count:
                f2_sampled += 1
                if j < t:
                    adjacency[i] |= 1 << j
                    pair_masks.append((i, j, inter))
    pairs_sampled = m * (m - 1) // 2
    density = f2_sampled / pairs_sampled if pairs_sampled else 0.0
    tail_pairs = f1 * (f1 - 1) / 2.0 - pairs_sampled
    f2 = f2_sampled + density * max(tail_pairs, 0.0)

    # -- F3: exact triangles over the strongest items ------------------------
    # Apriori candidates of (i, j): the k > j adjacent to both.
    triangles_candidate = 0
    f3_sampled = 0
    for i, j, mask_ij in pair_masks:
        common = adjacency[i] & adjacency[j]
        triangles_candidate += common.bit_count()
        while common:
            low = common & -common
            common ^= low
            if (mask_ij & sample[low.bit_length() - 1]).bit_count() >= min_count:
                f3_sampled += 1
    tail_triples = _real_comb(float(f1), 3) - _real_comb(float(t), 3)
    f3 = f3_sampled + density ** 3 * max(tail_triples, 0.0)

    # -- measured depth: the greedy max-support chain -------------------------
    # Greedily extend a frequent itemset with the best remaining item (one
    # per attribute) until support dips below the floor: a frequent chain
    # of length L certifies 2**L locally frequent subsets (sum 3**L rule
    # candidates), and L *measures the lattice's frequent depth* — in
    # locally dense data the per-level survival decays geometrically with
    # itemset length, so levels are near-complete up to the depth the
    # chain reaches and near-empty beyond it.  The path is the one a
    # greedy walk over *all* items takes (an extension count is bounded
    # by the item's support and only shrinks as the chain grows), so it
    # depends on the measured supports alone, never on ``min_count``:
    # the chain length is provably monotone in the floor.
    pool = [(tidsets[i], attribute) for _, i, attribute in frequent]
    chain_mask = -1  # every focal record
    chain_length = 0
    while pool:
        best = None
        best_count = min_count - 1
        alive = []
        for entry in pool:
            extended_count = (chain_mask & entry[0]).bit_count()
            if extended_count >= min_count:
                alive.append(entry)
                if extended_count > best_count:
                    best_count = extended_count
                    best = entry
        if best is None:
            break
        chain_mask &= best[0]
        chain_length += 1
        pool = [entry for entry in alive if entry[1] != best[1]]

    # -- levels >= 4: depth-truncated two-moment quasi-clique series ---------
    # Fit a quasi-clique G(n, q) to the measured second and third levels
    # (C(n, 2) q = F2 and C(n, 3) q**3 = F3) and price F_k = C(n, k)
    # q**C(k, 2).  On a uniform pair graph (chess-like dense background)
    # the fit recovers the mean-field series — n ~ F1 at the mean density
    # — while a clustered graph (mushroom-like cluster-pure focal
    # subsets, many triangles for their pair count) fits a small core at
    # q -> 1, the Kruskal-Katona extremal configuration, instead of
    # diluting the core by the mean density.  n is clamped to
    # [max(3, x3), F1] and q re-anchored on the measured third level so
    # F_3 is reproduced by construction.  The series is truncated one
    # level past the measured chain depth: a core whose support decays
    # out at length 5 contributes levels <= 6, not 2**n.  (The ``+1``
    # level pays for Apriori's candidate generation one level past the
    # last frequent one.)
    count = float(f1) + f2 + f3
    fanout = 2.0 * f1 + 4.0 * f2 + 8.0 * f3
    n_eff = 0.0
    q_eff = 0.0
    if f3 > 0.0 and f2 > 0.0 and f1 >= 3:
        x3 = _clique_equivalent_size(f3)
        n_eff = _quasi_clique_size(f2, f3)
        n_eff = min(max(n_eff, max(3.0, x3)), float(f1))
        denom = _real_comb(n_eff, 3)
        q_eff = min((f3 / denom) ** (1.0 / 3.0), 1.0) if denom > 0.0 else 0.0
        depth = min(max(chain_length + 1, 3), _ARM_MODEL_MAX_LENGTH)
        for k in range(4, depth + 1):
            f_k = _real_comb(n_eff, k) * q_eff ** (k * (k - 1) // 2)
            if f_k < 1e-9:
                break
            count += f_k
            fanout += f_k * 2.0 ** min(k, _ARM_MODEL_MAX_LENGTH)
    count = max(count, 2.0 ** min(chain_length, _ARM_CHAIN_COUNT_CAP))
    fanout = max(fanout, 3.0 ** min(chain_length, _ARM_CHAIN_FANOUT_CAP))

    return ArmModelStats(
        f1=f1,
        sample_size=m,
        pairs_sampled=pairs_sampled,
        f2_sampled=f2_sampled,
        density=density,
        triangle_items=t,
        triangles_candidate=triangles_candidate,
        f3_sampled=f3_sampled,
        chain_length=chain_length,
        fit_size=n_eff,
        fit_density=q_eff,
        est_itemsets=count,
        est_fanout=fanout,
    )


def _cardinalities(
    query: LocalizedQuery,
    focus: FocalSubset,
    stats: IndexStatistics,
    min_count: int,
    global_floor: int,
    aitem_fraction: float,
    contained_fraction: float,
) -> dict[str, float]:
    """Data-aware candidate/survivor counts from the per-MIP profiles.

    The geometric part — which MIPs overlap the region, lie inside it,
    pass the supported filter — is bit-counting over the request's
    support-ordered region bitmaps (:meth:`FocalSubset.region_bits`, the
    pass SEARCH reads too) and a prefix mask for the filter.  The numeric
    part — each MIP's expected local count — unpacks and runs over only the
    MIPs still *in play* (overlapping and supported): the estimate never
    exceeds a MIP's global count, so a MIP the filter drops cannot
    qualify.
    """
    n = stats.n_mips
    if n == 0:
        return dict.fromkeys(_CARDINALITY_FIELDS, 0.0)
    if not stats.item_rows:
        # No per-item profile: fall back to the distribution-based lemmas.
        upper = stats.fraction_with_count_at_least(min_count)
        uniform = stats.fraction_with_count_at_least(global_floor)
        pass_frac = (upper * uniform) ** 0.5
        n_cands = expected_leaf_matches(
            n, stats.avg_box_extents, focus.focal.hull_extents(),
            stats.cardinalities,
        )
        n_supported = n_cands * upper
        n_contained = n_supported * contained_fraction
        qualified = n_cands * aitem_fraction * pass_frac
        return {
            "n_cands": n_cands,
            "n_cands_supported": n_supported,
            "n_contained": n_contained,
            "est_qualified": qualified,
            "est_qualified_partial": max(
                qualified - n_contained * aitem_fraction, 0.0
            ),
            "qualified_fanout": qualified * max(stats.avg_pow2_length, 1.0),
        }

    selections = query.range_selections
    overlap, contained = focus.region_bits()
    # Support order: the MIPs reaching the floor are a prefix.
    in_play = overlap & ((1 << stats.n_supported(min_count)) - 1)
    # Without a range attribute the local bound is |D|, not a MIP count,
    # and unsupported MIPs stay in the numeric pass.  A MIP fixing an
    # attribute outside Aitem cannot qualify and leaves it here.
    numeric = in_play if selections else overlap
    if query.item_attributes is not None:
        for a in range(stats.n_attributes):
            if a not in query.item_attributes:
                numeric &= stats.mip_free_bits[a]
    rows = bit_array(numeric, n).view(np.bool_).nonzero()[0]
    local_upper = np.full(len(rows), stats.n_records, dtype=np.int64)
    log_prod = np.zeros(len(rows), dtype=float)
    # log(0) = -inf is meant: no record there, expected 0 (exp(-inf)).
    with np.errstate(divide="ignore"):
        for ai, values in selections.items():
            # One attribute's values partition the records, so their
            # counts inside a MIP sum to at most its own: int32 holds.
            attr_counts = np.zeros(len(rows), dtype=np.int32)
            for v in values:
                row = stats.item_rows.get((ai, v))
                if row is not None:
                    attr_counts += stats.item_mip_counts[row].take(rows)
            local_upper = np.minimum(local_upper, attr_counts)
            log_prod += np.log(attr_counts)

    # Expected local count: the Frechet bound ``min_a |t(M) n D^Q_a|`` is
    # exact for single-attribute regions but overcounts multi-attribute
    # ones (the realized intersection of k attribute slices is far below
    # the loosest slice).  The independence estimate ``g * prod_a(c_a/g)``
    # errs the other way on correlated attributes, so — as with the
    # distribution-based fallback above — the model takes their geometric
    # mean.  (A MIP's global count ``g`` is at least 1.)
    if len(selections) >= 2:
        expected = np.exp(
            log_prod
            - (len(selections) - 1) * stats.mip_log_counts.take(rows)
        )
        est_local = np.sqrt(local_upper * np.minimum(expected, local_upper))
    else:
        est_local = local_upper.astype(float)

    qualified = rows[est_local >= min_count]
    return {
        "n_cands": float(overlap.bit_count()),
        "n_cands_supported": float(in_play.bit_count()),
        "n_contained": float((contained & in_play).bit_count()),
        "est_qualified": float(len(qualified)),
        "est_qualified_partial": float(
            len(qualified)
            - np.count_nonzero(bit_array(contained, n).take(qualified))
        ),
        "qualified_fanout": float(stats.mip_fanout.take(qualified).sum()),
    }


#: The fields of :class:`QueryProfile` the cardinality pass fills.
_CARDINALITY_FIELDS = (
    "n_cands", "n_cands_supported", "n_contained", "est_qualified",
    "est_qualified_partial", "qualified_fanout",
)


def _aitem_fraction(query: LocalizedQuery, stats: IndexStatistics) -> float:
    """P(a stored itemset uses only Aitem attributes), from the length histogram."""
    if query.item_attributes is None:
        return 1.0
    if stats.n_mips == 0:
        return 0.0
    p_attr = len(query.item_attributes) / stats.n_attributes
    total = sum(stats.length_histogram.values())
    return (
        sum(count * p_attr**length
            for length, count in stats.length_histogram.items())
        / total
    )


def _contained_fraction(
    query: LocalizedQuery, focal: FocalRange, stats: IndexStatistics
) -> float:
    """P(an overlapping MIP is fully contained in the focal region).

    A MIP is contained iff, on every attribute whose selection is partial,
    the MIP fixes that attribute (to an admitted value).  Estimated from
    per-attribute fixing probabilities and selection fractions.
    """
    prob = 1.0
    for dim, (card, mask) in enumerate(
        zip(focal.cardinalities, focal.value_masks)
    ):
        selected = mask.bit_count()
        if selected == card:
            continue  # full domain: any box is contained on this dimension
        fix = stats.attr_fix_prob[dim]
        # Conditioned on overlap, a fixed attribute already lands inside the
        # selection, so containment on this dimension simply needs the
        # attribute to be fixed at all.
        prob *= fix
    return prob


_SUPPORTED_PLANS = frozenset({PlanKind.SSEV, PlanKind.SSVS, PlanKind.SSEUV})

#: SEARCH's load unit is one OR'ed 64-bit word of a MIP bitset, about the
#: time to gather one candidate row; unpacking a bitmap word to positions
#: scans its 64 bits at about a unit each (on the end-to-end pools: ~4 ns
#: per OR'ed word, ~3 ns per unpacked MIP bit, ~2 ns per gathered row).
_UNPACK_WORD_UNITS = 64


class CostModel:
    """Constant-time evaluation of the six plan cost formulae."""

    def __init__(self, stats: IndexStatistics, weights: CostWeights | None = None):
        self.stats = stats
        self.weights = weights if weights is not None else CostWeights()
        # Index-only terms: one MIP bitset's words, projection, mean length.
        self._mip_words = -(-stats.n_mips // 64)
        self._n_items = float(sum(stats.cardinalities))
        #: One focal projection: every item row (``sum(cardinalities)``, an
        #: upper bound on the item count) repacked at the full tidset width.
        self.projection_load = self._n_items * stats.tidset_words
        self._avg_length = max(stats.avg_length, 1.0)

    # -- per-operator loads ----------------------------------------------------

    def search_loads(self, profile: QueryProfile) -> tuple[float, float]:
        """Work of SEARCH and SUPPORTED-SEARCH, indexed by ``supported``:
        the region's bitmap pass plus one gathered row per candidate.

        The pass ORs one N-bit MIP bitset per admitted value and the free
        bitset of every partial range attribute and unpacks the overlap and
        containment bitmaps to positions, ``_UNPACK_WORD_UNITS`` per word;
        SUPPORTED-SEARCH's filter is one more mask over the same words.
        Priced the same for both searches — only their outputs differ.

        The profile carries hull extents, not selection sizes, so the OR
        count is the hull's: exact for a contiguous range (every pool the
        benchmark draws), one OR per gap too many for a gapped selection,
        and none at all for one whose hull spans the domain (``{0, 4}`` of
        5 values) although the pass ORs its values and free bitset.
        """
        ored = sum(
            extent + 1
            for extent, card in zip(profile.hull_extents, self.stats.cardinalities)
            if extent < card
        )
        words = (ored + 2 * _UNPACK_WORD_UNITS) * self._mip_words
        return words + profile.n_cands, words + profile.n_cands_supported

    def eliminate_load(self, profile: QueryProfile, kind: PlanKind) -> float:
        """Eq. 1 COST(E): record-level checks in tidset-word units.

        SS-E-U-V only pays for the partially-overlapped candidates
        (Lemma 4.5 exempts contained MIPs from the record-level check).
        """
        supported = kind in _SUPPORTED_PLANS
        cands = profile.n_cands_supported if supported else profile.n_cands
        if kind is PlanKind.SSEUV:
            cands = max(cands - profile.n_contained, 0.0)
        return cands * profile.aitem_fraction * self.stats.tidset_words

    def verify_load(self, profile: QueryProfile) -> float:
        """Eq. 1 COST(V): support counting through the focal projection.

        The kernel path pays the projection once
        (:attr:`projection_load`) and then one sub-itemset table: a fixed
        pass cost, a width-independent price per ``(source, mask)`` cell
        (named and gathered, never ANDed per pair) and the distinct
        sub-itemsets' ANDs at the *projected* ``|D^Q|``-word width —
        ``_LATTICE_SHARING`` cells to the projected word.
        """
        dq_words = max(1, -(-profile.dq_size // 64))
        return (
            self.projection_load
            + _LATTICE_PASS_WORDS
            + profile.qualified_fanout
            * (dq_words + _LATTICE_CELL_WORDS) / _LATTICE_SHARING
        )

    def rulegen_load(self, profile: QueryProfile) -> float:
        """Rule extraction proper: the mask-indexed confidence pass and
        canonical-order emit, per qualified fan-out unit.

        Width-independent by construction (the counts are already in hand
        when extraction runs), so it is priced separately from ``verify``
        and fitted against the trace's ``rulegen_s`` split.

        ``_RULEGEN_OVERHEAD_UNITS`` is the mirror image of
        ``_ARM_OP_OVERHEAD_WORDS``: the batched extraction pays a fixed
        setup cost (chunked numpy dispatch over the subset lattice, the
        ``argsort`` of the rank keys, the per-width group loop) that dominates
        small fan-outs.  Without the constant, the per-unit weight fitted
        on small probe fan-outs *overprices* large queries by the same
        factor the vectorized pass amortizes — which tips the optimizer
        toward ARM on exactly the queries where the MIP plans win.
        """
        return profile.qualified_fanout + _RULEGEN_OVERHEAD_UNITS

    def select_load(self, profile: QueryProfile) -> float:
        """Eq. 6 COST(sigma): the focal subset in vertical form.

        SELECT builds the focal projection and reads its rows out as
        tidsets — no record is copied — so it costs the projection term
        :meth:`verify_load` prices for the MIP plans.
        """
        return self.projection_load

    def arm_load(self, profile: QueryProfile) -> float:
        """Eq. 6 COST(eps_AR): from-scratch mining sized by the local-
        itemset estimate, plus its rule-generation fan-out, on top of the
        pass's fixed cost (``_ARM_PASS_OVERHEAD_WORDS``).  The subset's
        item tidsets arrive from SELECT's projection, so there is no
        per-record scan term.

        Each candidate evaluation costs its tidset intersection (``dq``
        words) *plus* a constant — the per-operation interpreter overhead
        of generating the candidate and comparing its tidset, which
        dominates until the focal tidset is tens of words wide.  Without
        the constant, the per-word weight fitted on narrow subsets
        overprices wide ones by the same factor.  A rule-generation cell
        costs a constant only: its support comes from the request's
        table of distinct sub-itemsets.
        """
        dq_words = max(1, -(-profile.dq_size // 64))
        est_local = max(1.0, profile.arm_itemsets)
        return (
            _ARM_PASS_OVERHEAD_WORDS
            + est_local * self._avg_length
            * (dq_words + _ARM_OP_OVERHEAD_WORDS)
            + profile.arm_fanout * _ARM_CELL_WORDS
        )

    def delta_loads(
        self, kind: PlanKind, profile: QueryProfile
    ) -> dict[str, float]:
        """Extra load terms a live delta store adds to one plan.

        Empty when the index is immutable (``delta_records == 0``) — the
        delta terms must *vanish* rather than appear with zero loads, so
        that pricing with ``delta_probe = inf`` (the CI gate's forcing
        function) never multiplies ``inf * 0 = nan`` into a delta-free
        plan's cost.

        * ``delta_probe`` — every candidate's count correction is one
          AND+popcount of its delta-MIP row against the delta focal row
          (``cands x delta_words``), plus the focal-row build itself
          (one pass over the delta item rows);
        * ``delta_merge`` — rule generation projects the delta item rows
          (``sum(cardinalities) x delta_words``) and appends them to the
          main projection.  There is no second lattice: the request's one
          universe is ``dq_size`` bits wide, delta records included, and
          ``verify`` prices it at that width.

        ARM has no delta-specific term: the delta view's projection (a
        handful of words per row) stacks under the main one in SELECT,
        and ``arm`` is already priced by the *combined* ``dq_size`` the
        optimizer profiles.
        """
        if profile.delta_records <= 0 or kind is PlanKind.ARM:
            return {}
        supported = kind in _SUPPORTED_PLANS
        cands = profile.n_cands_supported if supported else profile.n_cands
        words = max(1, profile.delta_words)
        return {
            "delta_probe": (cands + 1.0) * words,
            "delta_merge": self._n_items * words,
        }

    # -- plan load vectors --------------------------------------------------------

    def shared_loads(self, profile: QueryProfile) -> tuple:
        """What the plans of one profile share — ``(search loads by
        supported, verify, rulegen)`` — for :meth:`loads`."""
        return (
            self.search_loads(profile),
            self.verify_load(profile),
            self.rulegen_load(profile),
        )

    def loads(
        self,
        kind: PlanKind,
        profile: QueryProfile,
        shared: tuple | None = None,
    ) -> dict[str, float]:
        """The load-feature vector of one plan for one query.

        ``const`` counts the plan's pipeline stages, pricing the fixed
        per-operator overhead — the intermediate-materialization cost that
        selection push-up (VS) saves.

        ``shared`` hands in :meth:`shared_loads` of the same profile when
        the caller prices several of its plans.
        """
        if kind is PlanKind.ARM:
            return {
                "select": self.select_load(profile),
                "arm": self.arm_load(profile),
                "const": 2.0,
            }
        search, verify, rulegen = shared or self.shared_loads(profile)
        loads = {
            "search": search[kind in _SUPPORTED_PLANS],
            "eliminate": self.eliminate_load(profile, kind),
            "verify": verify,
            "rulegen": rulegen,
        }
        if kind in (PlanKind.SEV, PlanKind.SSEV):
            loads["const"] = 3.0
        elif kind in (PlanKind.SVS, PlanKind.SSVS):
            loads["const"] = 2.0  # selection pushed up: one stage fewer
        else:  # SS-E-U-V: split + eliminate + union + verify
            loads["const"] = 4.0
        loads.update(self.delta_loads(kind, profile))
        return loads

    # -- costs ------------------------------------------------------------------

    def estimate(self, kind: PlanKind, profile: QueryProfile) -> float:
        """Estimated execution cost (seconds) of one plan."""
        return self.weights.price(self.loads(kind, profile))

    def estimate_all(self, profile: QueryProfile) -> dict[PlanKind, float]:
        """All six formulae — the optimizer's constant-time computation."""
        shared = self.shared_loads(profile)
        return {
            kind: self.weights.price(self.loads(kind, profile, shared))
            for kind in PlanKind
        }

