"""The pre-projection ARM model, kept as the reference.

``repro.core.costs._arm_floor``, ``_arm_chain`` and ``_arm_finish``
measure the focal subset's frequent-item structure on the request's focal
projection (integer item ids, ``|D^Q|``-bit tidsets, adjacency bitmasks,
inlined bisections); this is the function it replaced, verbatim with the
helpers it called — ``Item``-keyed, ``|D|``-bit tidsets intersected with
``dq`` per item per request.
``tests/property/test_arm_model_properties.py`` holds the two to ``==``
on every field of :class:`~repro.core.costs.ArmModelStats`, floats
included.  :func:`projected_arm_model` is how a request feeds the new
one.
"""

from repro import kernels, tidset as ts
from repro.core.costs import (
    _ARM_CHAIN_COUNT_CAP,
    _ARM_CHAIN_FANOUT_CAP,
    _ARM_MODEL_MAX_ITEMS,
    _ARM_MODEL_MAX_LENGTH,
    _ARM_MODEL_MAX_TRIANGLE_ITEMS,
    ArmFloor,
    ArmModelStats,
    _arm_chain,
    _arm_finish,
    _arm_floor,
)
from repro.core.query import LocalizedQuery


def projected_arm_model(table, query: LocalizedQuery, min_count: int,
                        dq: "int | None" = None) -> ArmModelStats:
    """The full ARM model fed as :meth:`QueryProfile.from_query` feeds it:
    the table's item rows projected onto the focal records (``dq``
    defaults to the query's range selections), one popcount for the item
    supports, the rows read out as int tidsets, and the admitted
    attributes' id spans."""
    if dq is None:
        dq = table.tids_matching(query.range_selections)
    schema = table.schema
    kernel = kernels.FocalKernel.project(schema.n_items, [(
        table.item_matrix()[0], table.item_ids(),
        kernels.pack(dq, table.tidset_words), ts.count(dq),
    )])
    aitem = query.item_attributes
    tidsets = kernel.item_tidsets()
    floor = _arm_floor(
        kernels.popcount_rows(kernel.matrix).tolist(),
        [
            (base, base + card)
            for a, (base, card) in enumerate(
                zip(schema.item_bases, schema.cardinalities())
            )
            if aitem is None or a in aitem
        ],
        min_count,
    )
    if not isinstance(floor, ArmFloor):  # F1 <= 1: the whole model
        return floor
    return _arm_finish(_arm_chain(floor, tidsets, min_count), tidsets,
                       min_count)


def _clique_equivalent_size(f_k: float, k: int) -> float:
    """The real ``x`` with ``C(x, k) = f_k`` — the size of the clique whose
    level-``k`` itemset count matches the measurement.

    Anchoring the series on this *clique-equivalent size* is what makes
    the estimate density-aware: ``C(x, k)`` concentrates all measured mass
    in one dense core (the Kruskal-Katona extremal configuration), so a
    dense cluster inside an otherwise sparse focal subset is priced at
    its own density instead of being diluted by the global mean.
    """
    if f_k <= 0.0:
        return 0.0
    # C(x, k) is increasing in x for x >= k - 1; bisect on [k - 1, 64].
    lo, hi = float(k - 1), 64.0
    if _real_comb(hi, k) <= f_k:
        return hi
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if _real_comb(mid, k) < f_k:
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
        c2 = _real_comb(n, 2)
        if c2 <= 0.0:
            return float("inf")
        return _real_comb(n, 3) * (f2 / c2) ** 3

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


def reference_arm_model(
    query: LocalizedQuery,
    item_tidsets: "dict[tuple[int, int], int]",
    dq: int,
    dq_size: int,
    min_count: int,
) -> ArmModelStats:
    """Density-aware estimate of ARM's from-scratch mining mass.

    ARM mines the focal subset from scratch, so its work scales with the
    number of *locally* frequent itemsets — including those below the
    index's primary floor, which no stored statistic covers.  The model
    measures, with a few thousand bitmask intersections:

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
    the measured second and third levels: solving ``C(n, 2) q = F2`` and
    ``C(n, 3) q**3 = F3`` for ``(n, q)`` and pricing ``F_k = C(n, k)
    q^(k(k-1)/2)``.  A uniform pair graph fits the mean-field series
    (``n ~ F1`` at the mean density, with per-level geometric decay); a
    clustered graph — many triangles for its pair count, mushroom's
    cluster-pure focal subsets — fits a small core at ``q -> 1``, the
    Kruskal-Katona extremal configuration, so the core is priced at its
    own density instead of being diluted by the mean.  The series is
    truncated one level past the measured chain depth, which measures how
    deep the frequent lattice actually reaches.  All measured inputs
    (``f1``, ``f2_sampled``, ``f3_sampled``, the chain) shrink
    monotonically as ``min_count`` rises.
    """
    # Every admitted item's local tidset, in item order: F1 filters it
    # and the chain below draws its pool from it.
    aitem = query.item_attributes
    pool = [
        (key, mask & dq)
        for key, mask in sorted(item_tidsets.items())
        if aitem is None or key[0] in aitem
    ]
    frequent = [
        (count_, key, local)
        for key, local in pool
        if (count_ := local.bit_count()) >= min_count
    ]

    f1 = len(frequent)
    if f1 == 0:
        return ArmModelStats(0, 0, 0, 0, 0.0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    if f1 == 1:
        return ArmModelStats(1, 1, 0, 0, 0.0, 1, 0, 0, 1, 1.0, 0.0, 1.0, 2.0)

    # Deterministic strongest-first order: the sample at a higher floor is
    # always a prefix of the sample at a lower one, which keeps every
    # sampled measurement monotone in ``min_count``.
    frequent.sort(key=lambda cm: (-cm[0], cm[1]))
    sample = frequent[:_ARM_MODEL_MAX_ITEMS]
    m = len(sample)

    # -- F2: exact pairs over the sample --------------------------------------
    adjacency: set[tuple[int, int]] = set()
    pair_masks: dict[tuple[int, int], int] = {}
    t = min(m, _ARM_MODEL_MAX_TRIANGLE_ITEMS)
    for i in range(m):
        for j in range(i + 1, m):
            inter = sample[i][2] & sample[j][2]
            if inter.bit_count() >= min_count:
                adjacency.add((i, j))
                if j < t:
                    pair_masks[(i, j)] = inter
    pairs_sampled = m * (m - 1) // 2
    f2_sampled = len(adjacency)
    density = f2_sampled / pairs_sampled if pairs_sampled else 0.0
    tail_pairs = f1 * (f1 - 1) / 2.0 - pairs_sampled
    f2 = f2_sampled + density * max(tail_pairs, 0.0)

    # -- F3: exact triangles over the strongest items ------------------------
    triangles_candidate = 0
    f3_sampled = 0
    for (i, j), mask_ij in pair_masks.items():
        for k in range(j + 1, t):
            if (i, k) in adjacency and (j, k) in adjacency:
                triangles_candidate += 1
                if (mask_ij & sample[k][2]).bit_count() >= min_count:
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
    # chain reaches and near-empty beyond it.  The candidate pool is
    # *all* items (an item below the floor can never be accepted — its
    # extension count is bounded by its support — so the greedy path
    # depends only on the measured supports, never on ``min_count``,
    # which makes the chain length provably monotone in the floor).
    chain_mask = dq
    chain_length = 0
    used_attrs: set[int] = set()
    while pool:
        best_i = -1
        best_count = -1
        for idx, ((attribute, _v), mask) in enumerate(pool):
            if attribute in used_attrs:
                continue
            extended_count = (chain_mask & mask).bit_count()
            if extended_count > best_count:
                best_count = extended_count
                best_i = idx
        if best_i < 0 or best_count < min_count:
            break
        (attribute, _v), mask = pool.pop(best_i)
        chain_mask &= mask
        chain_length += 1
        used_attrs.add(attribute)

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
        x3 = _clique_equivalent_size(f3, 3)
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
