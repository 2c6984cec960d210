"""Index save/load round-trips and corruption handling."""

import json
import re

import numpy as np
import pytest

from repro.core.costs import DEFAULT_WEIGHTS, CostWeights
from repro.core.engine import Colarm
from repro.core.mipindex import build_mip_index
from repro.core.maintenance import MaintainedIndex
from repro.core.persistence import (
    delta_sidecar_path,
    load_index,
    load_maintained,
    save_index,
    save_maintained,
)
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.dataset.table import RelationalTable
from repro.errors import DataError
from tests.conftest import make_random_table


@pytest.fixture(scope="module")
def index():
    table = make_random_table(seed=61, n_records=80,
                              cardinalities=(4, 3, 3, 2))
    return build_mip_index(table, primary_support=0.08)


def test_roundtrip_identical_index(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    loaded, weights = load_index(path)
    assert weights is None
    assert loaded.primary_support == index.primary_support
    assert loaded.table.schema == index.table.schema
    assert np.array_equal(loaded.table.data, index.table.data)
    assert np.array_equal(
        loaded.stats.mip_fixed_values, index.stats.mip_fixed_values
    )
    assert np.array_equal(loaded.global_counts, index.global_counts)


QUERY = LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.6)


def _answers(index):
    """Every plan's rules for ``QUERY``, comparable across indexes."""
    return {
        kind: sorted(
            (r.antecedent, r.consequent, r.support_count)
            for r in execute_plan(kind, index, QUERY).rules
        )
        for kind in PlanKind
    }


def _assert_same_index(a, b):
    """The same MIP arrays, statistics and answers."""
    assert np.array_equal(a.stats.mip_fixed_values, b.stats.mip_fixed_values)
    assert np.array_equal(a.global_counts, b.global_counts)
    assert np.array_equal(a.mip_tidset_matrix, b.mip_tidset_matrix)
    assert np.array_equal(a.stats.mip_rows, b.stats.mip_rows)
    assert a.stats.mip_value_bits == b.stats.mip_value_bits
    assert a.stats.mip_free_bits == b.stats.mip_free_bits
    assert _answers(a) == _answers(b)


def test_roundtrip_same_query_answers(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    loaded, _ = load_index(path)
    assert _answers(loaded) == _answers(index)


def test_roundtrip_with_weights(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    weights = CostWeights({"nodes": 1e-6, "const": 2e-4})
    save_index(index, path, weights=weights)
    _, loaded_weights = load_index(path)
    assert loaded_weights is not None
    assert loaded_weights.weights == weights.weights


def test_weights_saved_with_delta_features_price_the_same(index, tmp_path):
    """A snapshot saved while the delta store had weights of its own
    (``delta_probe`` / ``delta_merge``) still loads, and its engine prices
    all six plans over a live delta exactly as with those keys dropped:
    no load names them, so they price nothing."""
    path = tmp_path / "old.colarm.npz"
    fitted = {**DEFAULT_WEIGHTS, "verify": 1.5e-9, "arm": 3e-7}
    old = CostWeights({**fitted, "delta_probe": 5.3e-9, "delta_merge": 1.5e-8})
    save_index(index, path, weights=old)

    def live_prices(weights):
        loaded, _ = load_index(path)
        engine = Colarm.from_index(loaded, weights=weights)
        engine.enable_maintenance(max_delta_fraction=0.99)
        engine.append([[1 + i % 2, i % 3, i % 3, i % 2] for i in range(6)])
        engine.delete([0, 1, 2])
        profile, _focus = engine.optimizer.profile_for(QUERY)
        assert profile.delta_words == engine.maintenance.buffer.words
        return engine.optimizer.cost_model.estimate_all(profile)

    _, loaded_weights = load_index(path)
    assert loaded_weights.weights == old.weights
    prices = live_prices(loaded_weights)
    assert list(prices) == list(PlanKind)
    assert prices == live_prices(CostWeights(fitted))


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_index(tmp_path / "nope.npz")


def test_load_garbage_file(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"this is not an npz archive")
    with pytest.raises(DataError):
        load_index(path)


def test_load_wrong_npz(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, something=np.arange(3))
    with pytest.raises(DataError, match="not a COLARM index"):
        load_index(path)


def test_load_rejects_future_version(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    archive = dict(np.load(path))
    meta = json.loads(bytes(archive["meta"]).decode())
    meta["format_version"] = 999
    archive["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **archive)
    with pytest.raises(DataError, match="unsupported format version"):
        load_index(path)


def test_load_detects_itemset_mismatch(index, tmp_path):
    """Tampered itemsets must be caught by the rebuild cross-check."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    archive = dict(np.load(path))
    items = archive["itemset_items"].copy()
    if len(items):
        items[0, 1] = (items[0, 1] + 1) % 2
        archive["itemset_items"] = items
        np.savez(path, **archive)
        with pytest.raises(DataError, match="disagree"):
            load_index(path)


def _rewrite(path, change):
    """Apply ``change`` to the archive's members (a dict) and rewrite it."""
    with np.load(path) as archive:
        members = dict(archive)
    change(members)
    np.savez(path, **members)


def _v2_tree_members(tree):
    """The ``flat_*`` members a format-v2 snapshot stored for ``tree``."""
    members = {
        "flat_shape": np.asarray([tree.n_dims, tree.height], dtype=np.int64),
        "flat_payload_rows": tree.payload_rows,
    }
    for i, level in enumerate(tree.levels):
        members[f"flat_offsets_{i}"] = level.node_offsets.astype(np.int64)
        members[f"flat_lows_{i}"] = level.lows
        members[f"flat_highs_{i}"] = level.highs
        members[f"flat_counts_{i}"] = level.counts
    return members


def test_v3_save_stores_no_tree(index, tmp_path):
    """A v3 snapshot holds the MIP arrays and kernels, and no R-tree."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    with np.load(path) as archive:
        assert not any(k.startswith("flat_") for k in archive.files)
        meta = json.loads(bytes(archive["meta"]).decode())
    assert meta["format_version"] == 3
    assert "max_entries" not in meta


@pytest.mark.parametrize("verify", ["mine", "stored"])
def test_v2_load_never_packs(index, tmp_path, monkeypatch, verify):
    """A format-v2 archive — a v3 save plus the tree members and the
    ``max_entries`` key v2 wrote — loads eager and mapped, ignores the
    tree members, packs nothing, and answers as the saved index does."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    tree_members = _v2_tree_members(index.flat_rtree)

    def to_v2(members):
        members.update(tree_members)
        _set_meta(members, format_version=2,
                  max_entries=index.rtree.max_entries)

    _rewrite(path, to_v2)

    def boom(*args, **kwargs):
        raise AssertionError("a v2 load must not key or pack")

    monkeypatch.setattr("repro.rtree.packing.hilbert_indices", boom)
    monkeypatch.setattr("repro.rtree.supported.pack_hilbert", boom)
    for mmap_mode in (None, "r"):
        loaded, _ = load_index(path, mmap_mode=mmap_mode, verify=verify)
        _assert_same_index(index, loaded)
        report = loaded.load_report
        assert not any(
            name.startswith("flat_")
            for name in report.mapped + report.fallbacks
        )
        assert "rtree" not in vars(loaded)


def test_load_v1_file_recompiles_flat(index, tmp_path):
    """A legacy v1 archive still loads; its tree is packed when read,
    and comes out the same as the saved index's."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    _rewrite(path, lambda members: _set_meta(members, format_version=1))
    loaded, _ = load_index(path)
    _assert_same_index(index, loaded)
    got = _v2_tree_members(loaded.flat_rtree)
    want = _v2_tree_members(index.flat_rtree)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key


def _is_mapped(arr):
    while arr is not None:
        if isinstance(arr, np.memmap):
            return True
        arr = getattr(arr, "base", None)
    return False


def _mappable(index):
    """The members a load may map: cell matrix and kernel matrices."""
    return (
        index.table.data,
        index.mip_tidset_matrix,
        index.table.item_matrix()[0],
    )


def test_mmap_load_zero_copy_and_identical(index, tmp_path):
    """Uncompressed archives open the cell matrix and the packed kernel
    matrices as read-only memory maps, and the mapped index answers
    identically."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    loaded, _ = load_index(path, mmap_mode="r")
    for arr in _mappable(loaded):
        assert _is_mapped(arr)
        assert not arr.flags.writeable
    eager, _ = load_index(path)
    _assert_same_index(eager, loaded)


def test_mmap_load_compressed_falls_back_to_copy(index, tmp_path):
    """Compressed members cannot be mapped; the loader warns, falls back
    to the eager copy, and the index still works."""
    from repro.core.persistence import MmapFallbackWarning

    path = tmp_path / "t.colarm.npz"
    save_index(index, path)  # compressed (the default)
    with pytest.warns(MmapFallbackWarning):
        loaded, _ = load_index(path, mmap_mode="r")
    assert not any(_is_mapped(arr) for arr in _mappable(loaded))
    _assert_same_index(index, loaded)


def test_mmap_load_rejects_writable_modes(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    with pytest.raises(DataError, match="mmap_mode"):
        load_index(path, mmap_mode="r+")
    with pytest.raises(DataError, match="mmap_mode"):
        load_index(path, mmap_mode="w+")


def test_mmap_load_report_fully_mapped(index, tmp_path):
    """Uncompressed archives map every candidate member — including the
    packed kernel matrices and the raw data — and say so on the record."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    loaded, _ = load_index(path, mmap_mode="r")
    report = loaded.load_report
    assert report.requested and report.fully_mapped
    assert not report.fallbacks
    assert "kernel_mip_tidsets" in report.mapped
    assert "kernel_item_matrix" in report.mapped
    assert "data" in report.mapped
    assert _is_mapped(loaded.mip_tidset_matrix)
    assert _is_mapped(loaded.table.item_matrix()[0])
    # The adopted kernels are bit-for-bit the rebuilt ones.
    fresh, _ = load_index(path)
    assert np.array_equal(loaded.mip_tidset_matrix, fresh.mip_tidset_matrix)
    assert report.as_dict()["fully_mapped"] is True


def test_compressed_mmap_load_warns_and_reports_fallbacks(index, tmp_path):
    """The silent-degradation failure mode is no longer silent: mapping a
    compressed archive emits a warning naming the degraded members."""
    from repro.core.persistence import MmapFallbackWarning

    path = tmp_path / "t.colarm.npz"
    save_index(index, path)  # compressed (the default)
    with pytest.warns(MmapFallbackWarning, match="kernel_mip_tidsets"):
        loaded, _ = load_index(path, mmap_mode="r")
    report = loaded.load_report
    assert report.requested and not report.fully_mapped
    assert not report.mapped
    assert "data" in report.fallbacks


def test_eager_load_report_requested_false(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    loaded, _ = load_index(path)
    assert not loaded.load_report.requested
    assert not loaded.load_report.fully_mapped


def test_load_detects_corrupt_kernel_matrix(index, tmp_path):
    """A tampered stored kernel matrix — MIP tidsets or item rows — is
    caught by the bit-for-bit cross-check against the rebuild, not
    served, whichever way the file is verified and opened."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    with np.load(path) as archive:
        pristine = dict(archive)
    for name in ("kernel_mip_tidsets", "kernel_item_matrix"):
        kernel = pristine[name].copy()
        kernel[0, 0] ^= 1
        np.savez(path, **{**pristine, name: kernel})
        for verify, mmap_mode in (("mine", None), ("stored", "r")):
            with pytest.raises(DataError, match="kernel"):
                load_index(path, mmap_mode=mmap_mode, verify=verify)


def test_stored_load_builds_no_int_tidsets(index, tmp_path, monkeypatch):
    """A worker's reload (``mmap_mode="r"``, ``verify="stored"``) packs
    the item rows straight from the columns: it never builds the
    ``Item``-keyed int tidsets and never runs ``np.unique`` over a table
    column."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    unique_args = []
    real_unique = np.unique

    def unique(array, *args, **kwargs):
        unique_args.append(array)
        return real_unique(array, *args, **kwargs)

    def no_tidsets(self):
        raise AssertionError("load built the int item tidsets")

    monkeypatch.setattr(np, "unique", unique)
    monkeypatch.setattr(RelationalTable, "item_tidsets", no_tidsets)
    loaded, _ = load_index(path, mmap_mode="r", verify="stored")
    assert not any(
        np.shares_memory(array, loaded.table.data) for array in unique_args
    )
    monkeypatch.undo()
    _assert_same_index(index, loaded)


def _itemset(members, i):
    offsets = members["itemset_offsets"]
    return members["itemset_items"][offsets[i]:offsets[i + 1]]


def _set_meta(members, **fields):
    meta = json.loads(bytes(members["meta"]).decode())
    meta.update(fields)
    members["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def _duplicate_itemset(members):
    members["itemset_items"] = np.concatenate(
        [members["itemset_items"], _itemset(members, 0)]
    )
    offsets = members["itemset_offsets"]
    members["itemset_offsets"] = np.append(
        offsets, offsets[-1] + offsets[1] - offsets[0]
    )
    kernel = members["kernel_mip_tidsets"]
    members["kernel_mip_tidsets"] = np.concatenate([kernel, kernel[:1]])


def _unknown_item(members):
    """Widen attribute ``a``'s domain by one value no record holds, and
    point the first itemset at it."""
    items = members["itemset_items"].copy()
    a = int(items[0, 0])
    meta = json.loads(bytes(members["meta"]).decode())
    values = meta["attributes"][a]["values"]
    items[0, 1] = len(values)
    members["itemset_items"] = items
    meta["attributes"][a]["values"] = values + ["never-seen"]
    _set_meta(members, attributes=meta["attributes"])


def _value_outside_domain(members):
    items = members["itemset_items"].copy()
    meta = json.loads(bytes(members["meta"]).decode())
    items[0, 1] = len(meta["attributes"][int(items[0, 0])]["values"])
    members["itemset_items"] = items


def _attribute_fixed_twice(members):
    offsets = members["itemset_offsets"]
    i = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
    items = members["itemset_items"].copy()
    items[offsets[i] + 1, 0] = items[offsets[i], 0]
    members["itemset_items"] = items


def _below_primary_floor(members):
    _set_meta(members, primary_support=0.9)


def _flipped_kernel_bit(members):
    kernel = members["kernel_mip_tidsets"].copy()
    kernel[0, 0] ^= 1
    members["kernel_mip_tidsets"] = kernel


@pytest.mark.parametrize("verify", ["mine", "stored"])
@pytest.mark.parametrize("fault,stored_reason", [
    (_duplicate_itemset, "duplicate"),
    (_unknown_item, "occurs in no record"),
    (_value_outside_domain, "outside its domain"),
    (_attribute_fixed_twice, "one value per attribute"),
    (_below_primary_floor, "not frequent"),
    (_flipped_kernel_bit, "kernel"),
])
def test_load_refuses_a_damaged_snapshot(
    index, tmp_path, verify, fault, stored_reason
):
    """Every damage to the stored MIP arrays is a ``DataError`` under
    both verify modes; ``verify="stored"`` names the array check that
    caught it (``"mine"`` catches it as a disagreement with CHARM or in
    the kernel cross-check)."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    _rewrite(path, fault)
    match = stored_reason if verify == "stored" else "disagree|kernel"
    for mmap_mode in (None, "r"):
        with pytest.raises(DataError, match=match):
            load_index(path, mmap_mode=mmap_mode, verify=verify)


@pytest.mark.parametrize("verify", ["mine", "stored"])
def test_save_load_save_is_byte_equal(index, tmp_path, verify):
    """A loaded index saves back to the very members it was loaded from."""
    import zipfile

    first, second = tmp_path / "a.colarm.npz", tmp_path / "b.colarm.npz"
    save_index(index, first, compress=False)
    loaded, _ = load_index(first, mmap_mode="r", verify=verify)
    save_index(loaded, second, compress=False)
    with zipfile.ZipFile(first) as a, zipfile.ZipFile(second) as b:
        assert a.namelist() == b.namelist()
        for name in a.namelist():
            assert a.read(name) == b.read(name), name


def test_loads_close_their_archives(index, tmp_path, monkeypatch):
    """``load_index`` and ``load_maintained`` — a refused snapshot
    included — leave no archive open for the collector to find (a
    ``ResourceWarning`` under ``-X dev``): a refusal has closed its
    archive even while its traceback still holds the loader's frame."""
    import gc
    import os
    import sys
    import warnings

    from repro.core.maintenance import MaintainedIndex
    from repro.core.persistence import load_maintained, save_maintained

    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    damaged = tmp_path / "damaged.colarm.npz"
    save_index(index, damaged, compress=False)
    _rewrite(damaged, _flipped_kernel_bit)
    maintained_path = tmp_path / "m.colarm.npz"
    save_maintained(MaintainedIndex(index), maintained_path)

    def open_fds():
        fd_dir = "/proc/self/fd"
        return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else 0

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for mmap_mode in (None, "r"):
            load_index(path, mmap_mode=mmap_mode, verify="stored")
            before = open_fds()
            with pytest.raises(DataError, match="kernel") as refused:
                load_index(damaged, mmap_mode=mmap_mode, verify="stored")
            assert refused.value.__traceback__ is not None
            if mmap_mode is None:
                assert open_fds() == before
            # Members mapped before the refusal hold their own descriptor
            # until the traceback lets go of them; the archives do not.
            del refused
            gc.collect()
            assert open_fds() == before
        load_maintained(maintained_path)
        gc.collect()
    assert unraisable == []


def _meta_bytes(raw):
    return lambda meta: raw


def _without(key):
    return lambda meta: json.dumps(
        {k: v for k, v in meta.items() if k != key}
    ).encode()


def _with(**fields):
    return lambda meta: json.dumps({**meta, **fields}).encode()


_UNREADABLE_META = [
    ("not_json", _meta_bytes(b"{not json")),
    ("not_utf8", _meta_bytes(b"\xff\xfe{}")),
    ("json_list", _meta_bytes(b"[1, 2]")),
]


@pytest.mark.parametrize("target,fault", [
    *(("index", case) for case in _UNREADABLE_META),
    ("index", ("no_primary_support", _without("primary_support"))),
    ("index", ("no_attributes", _without("attributes"))),
    ("index", ("attributes_not_list", _with(attributes=7))),
    *(("sidecar", case) for case in _UNREADABLE_META),
    ("sidecar", ("no_n_main_records", _without("n_main_records"))),
    ("sidecar", ("no_generation", _without("generation"))),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_malformed_meta_is_a_data_error(index, tmp_path, target, fault):
    """A ``meta`` member the loader cannot read — of the index archive or
    of the delta sidecar — is a ``DataError`` naming that file, never a
    bare decode, attribute, key or type error."""
    path = tmp_path / "m.colarm.npz"
    save_maintained(MaintainedIndex(index), path)
    victim = path if target == "index" else delta_sidecar_path(path)
    _, damage = fault

    def change(members):
        meta = json.loads(bytes(members["meta"]).decode())
        members["meta"] = np.frombuffer(damage(meta), dtype=np.uint8)

    _rewrite(victim, change)
    load = load_index if target == "index" else load_maintained
    with pytest.raises(DataError, match=re.escape(str(victim))):
        load(path)
