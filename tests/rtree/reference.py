"""Test-only R-tree oracle (shares no code with ``src/``).

An item is ``(lows, highs, count)`` with int-tuple corners.  A node is a
list of entries ``(lows, highs, count, child)``: ``child`` is the item's
position in ``items`` at the leaf level, the node beneath otherwise.

Also the scalar references the vectorized ``src/`` code is held to — one
point's Hilbert key, the Theodoridis-Sellis node-access estimate — and
the box helpers tests build queries with (the only ``src/`` name used
here is the ``Rect`` they return).
"""

from repro.rtree.geometry import Rect


def overlaps(a_lo, a_hi, b_lo, b_hi):
    return all(al <= bh and bl <= ah
               for al, ah, bl, bh in zip(a_lo, a_hi, b_lo, b_hi))


def brute(items, q_lo, q_hi, min_count=None):
    """Ids of all items overlapping the window (and reaching ``min_count``)."""
    return [i for i, (lo, hi, count) in enumerate(items)
            if overlaps(lo, hi, q_lo, q_hi)
            and (min_count is None or count >= min_count)]


def pack(items, order, fanout):
    """Tile ``items`` in ``order`` into full nodes; ``(root, height)``."""
    entries, height = [(*items[i], i) for i in order], 1
    while len(entries) > fanout:
        nodes = [entries[k:k + fanout] for k in range(0, len(entries), fanout)]
        entries = [(tuple(map(min, zip(*(e[0] for e in node)))),
                    tuple(map(max, zip(*(e[1] for e in node)))),
                    max(e[2] for e in node), node) for node in nodes]
        height += 1
    return entries, height


def search(node, height, q_lo, q_hi, min_count=None):
    """Recursive window search: ``(hit ids, nodes visited)``."""
    hits, visited = [], 1
    for lo, hi, count, child in node:
        if (min_count is not None and count < min_count) \
                or not overlaps(lo, hi, q_lo, q_hi):
            continue
        if height == 1:
            hits.append(child)
        else:
            below, seen = search(child, height - 1, q_lo, q_hi, min_count)
            hits += below
            visited += seen
    return hits, visited


def level_arrays(root, height):
    """Per level, root first: ``(node_offsets, lows, highs, counts)`` lists."""
    out, nodes = [], [root]
    for _ in range(height):
        entries = [e for node in nodes for e in node]
        offsets = [0]
        for node in nodes:
            offsets.append(offsets[-1] + len(node))
        out.append((offsets, [list(e[0]) for e in entries],
                    [list(e[1]) for e in entries], [e[2] for e in entries]))
        nodes = [e[3] for e in entries]
    return out


# -- scalar references ---------------------------------------------------------


def hilbert_index(coords, bits):
    """Hilbert-curve index of one n-dimensional point (Skilling, AIP 2004).

    ``coords`` are non-negative integers, each below ``2**bits``; the index
    lies in ``[0, 2**(bits * n))``.
    """
    n = len(coords)
    if n == 0:
        raise ValueError("need at least one coordinate")
    x = list(coords)
    for i, c in enumerate(x):
        if c < 0 or c >> bits:
            raise ValueError(f"coordinate {c} out of range for {bits} bits "
                             f"(dim {i})")
    # Step 1: undo the Gray-code transpose, highest bit first.
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p  # invert
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, n):  # Gray encode
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    # Step 2: interleave the transposed bits into a single index.
    index = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(n):
            index = (index << 1) | ((x[i] >> bit) & 1)
    return index


def expected_node_accesses(stats, query_extents, cardinalities):
    """Theodoridis-Sellis expected node accesses of a window query.

    ``NA(q) = 1 + sum over non-root levels j of N_j * prod_i min(1,
    s_{j,i} + q_i)`` with node and query extents normalized by the grid
    cardinalities; ``stats`` are ``LevelStat``-like (``level``,
    ``n_nodes``, ``avg_extents``), 0.0 for an empty tree.
    """
    if not stats:
        return 0.0
    q_norm = [q / c for q, c in zip(query_extents, cardinalities)]
    total = 1.0  # the root is always read
    root_level = max(s.level for s in stats)
    for stat in stats:
        if stat.level == root_level:
            continue
        prob = 1.0
        for dim, (extent, card) in enumerate(zip(stat.avg_extents,
                                                 cardinalities)):
            prob *= min(1.0, extent / card + q_norm[dim])
        total += stat.n_nodes * prob
    return total


# -- boxes -------------------------------------------------------------------------


def point(coords):
    """The degenerate box covering a single cell."""
    return Rect(tuple(coords), tuple(coords))


def full_domain(cardinalities):
    """The box covering the entire grid."""
    return Rect(tuple(0 for _ in cardinalities),
                tuple(c - 1 for c in cardinalities))


def extents(rect):
    """Cells the box spans per dimension."""
    return tuple(hi - lo + 1 for lo, hi in zip(rect.lows, rect.highs))


def contains_point(rect, coords):
    return all(lo <= c <= hi for lo, hi, c in zip(rect.lows, rect.highs, coords))
