"""Test-only R-tree oracle (shares no code with ``src/``).

An item is ``(lows, highs, count)`` with int-tuple corners.  A node is a
list of entries ``(lows, highs, count, child)``: ``child`` is the item's
position in ``items`` at the leaf level, the node beneath otherwise.
"""


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
