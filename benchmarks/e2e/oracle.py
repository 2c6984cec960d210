"""The correctness check behind ``error_rate``.

Two independent checks, both outside the timed region:

* :func:`recount` — every rule of a sampled response is recounted from the
  raw rows of ``D^Q`` with plain numpy masks (no tidsets, no index, no
  engine code) and held against the query's ``minsupp``/``minconf``;
* :func:`same_rules` against the forced basic plan of the same family
  (``S-E-V`` or ``ARM``, ``use_cache=False``) — the system's own reference
  for *completeness*, which a recount of the returned rules cannot show.

:func:`rules_hash` is the per-op fingerprint folded into ``result_digest``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_MASK = (1 << 64) - 1


def rules_hash(rules) -> int:
    """Order-free 64-bit fingerprint of a rule list.

    The sum of the tuple hashes of ``(antecedent, consequent,
    support_count, confidence)``: items are int pairs, so the hashes do not
    depend on ``PYTHONHASHSEED``, and a sum needs no sort — the check costs
    ~0.1 ms per 200 rules inside the measured loop.
    """
    return sum(
        hash((r.antecedent, r.consequent, r.support_count, r.confidence))
        for r in rules
    ) & _MASK


def result_digest(per_op: dict[int, tuple[int, int]]) -> str:
    """SHA-256 over ``(op index, n_rules, rules_hash)`` in op order."""
    h = hashlib.sha256()
    for op in sorted(per_op):
        n_rules, fingerprint = per_op[op]
        h.update(struct.pack("<qqQ", op, n_rules, fingerprint))
    return h.hexdigest()


def focal_rows(data: np.ndarray, query) -> np.ndarray:
    """The raw rows of ``D^Q``."""
    mask = np.ones(len(data), dtype=bool)
    for attribute, values in query.range_selections.items():
        mask &= np.isin(data[:, attribute], sorted(values))
    return data[mask]


def _count(dq: np.ndarray, items) -> int:
    mask = np.ones(len(dq), dtype=bool)
    for item in items:
        mask &= dq[:, item.attribute] == item.value
    return int(mask.sum())


def recount(data: np.ndarray, query, rules) -> list[str]:
    """Problems found recounting ``rules`` over ``data``; empty = correct."""
    dq = focal_rows(data, query)
    n = len(dq)
    if n == 0:
        return ["focal subset is empty"]
    problems = []
    seen = set()
    for r in rules:
        key = (r.antecedent, r.consequent)
        if key in seen:
            problems.append(f"duplicate rule {key}")
        seen.add(key)
        both = _count(dq, (*r.antecedent, *r.consequent))
        ante = _count(dq, r.antecedent)
        if both != r.support_count:
            problems.append(f"{key}: support_count {r.support_count}, recount {both}")
            continue
        confidence = both / ante
        if abs(r.confidence - confidence) > 1e-9 or abs(r.support - both / n) > 1e-9:
            problems.append(f"{key}: support/confidence do not match the recount")
        if both < query.minsupp * n - 1e-9:
            problems.append(f"{key}: support {both}/{n} below minsupp {query.minsupp}")
        if confidence < query.minconf - 1e-9:
            problems.append(f"{key}: confidence {confidence} below minconf")
    return problems


def same_rules(got, reference) -> list[str]:
    """Problems if two rule lists differ as sets of complete rules."""
    if len(got) == len(reference) and rules_hash(got) == rules_hash(reference):
        return []
    a = {(r.antecedent, r.consequent, r.support_count) for r in got}
    b = {(r.antecedent, r.consequent, r.support_count) for r in reference}
    return [f"rule list differs from the reference plan: {len(a - b)} extra, "
            f"{len(b - a)} missing, {len(got)} vs {len(reference)} rules"]
