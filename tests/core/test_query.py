"""LocalizedQuery and FocalRange: validation, hull, exact classification."""

import itertools

import pytest

from repro.core.query import FocalRange, LocalizedQuery
from repro.errors import QueryError
from repro.rtree.geometry import Rect
from tests.core.reference_mips import Overlap, classify


def test_query_validation():
    with pytest.raises(QueryError):
        LocalizedQuery({}, minsupp=0.0, minconf=0.5)
    with pytest.raises(QueryError):
        LocalizedQuery({}, minsupp=1.5, minconf=0.5)
    with pytest.raises(QueryError):
        LocalizedQuery({}, minsupp=0.5, minconf=-0.1)


def test_query_from_labels(salary):
    q = LocalizedQuery.from_labels(
        salary.schema,
        ranges={"Location": ["Seattle"], "Age": ["20-30", "30-40"]},
        minsupp=0.5,
        minconf=0.8,
        item_attributes=["Salary", "Title"],
    )
    loc = salary.schema.attribute_index("Location")
    age = salary.schema.attribute_index("Age")
    assert q.range_selections[loc] == frozenset({2})
    assert q.range_selections[age] == frozenset({0, 1})
    assert q.item_attributes == frozenset(
        {salary.schema.attribute_index("Salary"),
         salary.schema.attribute_index("Title")}
    )


def test_query_from_labels_errors(salary):
    with pytest.raises(QueryError):
        LocalizedQuery.from_labels(salary.schema, {"Location": []}, 0.5, 0.5)
    with pytest.raises(QueryError):
        LocalizedQuery.from_labels(
            salary.schema, {"Location": ["Seattle"]}, 0.5, 0.5,
            item_attributes=[],
        )


def test_query_hashable_and_describe(salary):
    q1 = LocalizedQuery.from_labels(
        salary.schema, {"Gender": ["F"]}, 0.5, 0.8
    )
    q2 = LocalizedQuery.from_labels(
        salary.schema, {"Gender": ["F"]}, 0.5, 0.8
    )
    assert q1 == q2
    assert hash(q1) == hash(q2)
    text = q1.describe(salary.schema)
    assert "Gender in (F)" in text and "minsupp=0.50" in text


def test_validate_against(salary):
    q = LocalizedQuery({99: frozenset({0})}, 0.5, 0.5)
    with pytest.raises(QueryError):
        q.validate_against(salary.schema)
    q = LocalizedQuery({0: frozenset({99})}, 0.5, 0.5)
    with pytest.raises(QueryError):
        q.validate_against(salary.schema)
    q = LocalizedQuery({0: frozenset({0})}, 0.5, 0.5,
                       item_attributes=frozenset({99}))
    with pytest.raises(QueryError):
        q.validate_against(salary.schema)


def test_focal_range_hull():
    fr = FocalRange.from_selections({0: frozenset({1, 3})}, (5, 3))
    assert fr.hull() == Rect((1, 0), (3, 2))
    assert fr.hull_extents() == (3, 3)


def test_focal_range_validation():
    with pytest.raises(QueryError):
        FocalRange.from_selections({0: frozenset()}, (3,))
    with pytest.raises(QueryError):
        FocalRange.from_selections({0: frozenset({5})}, (3,))


def test_selectivity():
    fr = FocalRange.from_selections({0: frozenset({0}), 1: frozenset({0, 1})},
                                    (4, 4))
    assert fr.selectivity() == pytest.approx((1 / 4) * (2 / 4))


def classify_brute(fr: FocalRange, box: Rect) -> Overlap:
    """Cell-by-cell classification (exponential, tiny boxes only)."""
    cells = list(
        itertools.product(*[
            range(lo, hi + 1) for lo, hi in zip(box.lows, box.highs)
        ])
    )
    admitted = [
        all((fr.value_masks[d] >> c) & 1 for d, c in enumerate(cell))
        for cell in cells
    ]
    if all(admitted):
        return Overlap.CONTAINED
    if any(admitted):
        return Overlap.PARTIAL
    return Overlap.DISJOINT


def test_classify_matches_brute_force():
    import random

    rng = random.Random(0)
    cards = (4, 3, 3)
    for _ in range(200):
        selections = {}
        for d, card in enumerate(cards):
            if rng.random() < 0.7:
                values = frozenset(
                    v for v in range(card) if rng.random() < 0.5
                ) or frozenset({rng.randrange(card)})
                selections[d] = values
        fr = FocalRange.from_selections(selections, cards)
        lows = tuple(rng.randrange(c) for c in cards)
        highs = tuple(
            min(c - 1, lo + rng.randrange(c)) for lo, c in zip(lows, cards)
        )
        box = Rect(lows, highs)
        assert classify(fr, box) == classify_brute(fr, box)


def test_classify_non_contiguous_selection():
    """Value sets with gaps: hull would be wrong, classify is exact."""
    fr = FocalRange.from_selections({0: frozenset({0, 2})}, (3,))
    assert classify(fr, Rect((1,), (1,))) is Overlap.DISJOINT
    assert classify(fr, Rect((0,), (2,))) is Overlap.PARTIAL
    assert classify(fr, Rect((2,), (2,))) is Overlap.CONTAINED
    # ... while the hull covers the gap
    assert fr.hull() == Rect((0,), (2,))


def test_classify_all_matches_classify():
    """The vectorized classifier equals per-box classification exactly."""
    import random

    import numpy as np

    rng = random.Random(3)
    cards = (4, 3, 3, 2)
    # random "MIPs": random subsets of attributes fixed to random values
    fixed = np.full((120, len(cards)), -1, dtype=np.int32)
    boxes = []
    for i in range(120):
        for a, card in enumerate(cards):
            if rng.random() < 0.5:
                fixed[i, a] = rng.randrange(card)
        # Fixed attributes collapse to their cell, free ones span it all.
        boxes.append(Rect(
            tuple(max(int(v), 0) for v in fixed[i]),
            tuple(int(v) if v >= 0 else c - 1 for v, c in zip(fixed[i], cards)),
        ))
    for _ in range(40):
        selections = {}
        for a, card in enumerate(cards):
            if rng.random() < 0.7:
                values = frozenset(
                    v for v in range(card) if rng.random() < 0.5
                ) or frozenset({rng.randrange(card)})
                selections[a] = values
        fr = FocalRange.from_selections(selections, cards)
        overlaps, contained = fr.classify_all(fixed)
        for i, box in enumerate(boxes):
            expected = classify(fr, box)
            assert overlaps[i] == (expected is not Overlap.DISJOINT), i
            if overlaps[i]:
                assert contained[i] == (expected is Overlap.CONTAINED), i
