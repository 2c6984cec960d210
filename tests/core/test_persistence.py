"""Index save/load round-trips and corruption handling."""

import json

import numpy as np
import pytest

from repro.core.costs import CostWeights
from repro.core.mipindex import build_mip_index
from repro.core.persistence import load_index, save_index
from repro.core.plans import PlanKind, execute_plan
from repro.core.query import LocalizedQuery
from repro.errors import DataError
from tests.conftest import make_random_table
from tests.rtree.reference import full_domain


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


def test_roundtrip_same_query_answers(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    loaded, _ = load_index(path)
    query = LocalizedQuery({0: frozenset({1, 2})}, 0.3, 0.6)
    key = lambda rs: sorted((r.antecedent, r.consequent, r.support_count)
                            for r in rs)
    for kind in PlanKind:
        a = execute_plan(kind, index, query)
        b = execute_plan(kind, loaded, query)
        assert key(a.rules) == key(b.rules), kind


def test_roundtrip_with_weights(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    weights = CostWeights({"nodes": 1e-6, "const": 2e-4})
    save_index(index, path, weights=weights)
    _, loaded_weights = load_index(path)
    assert loaded_weights is not None
    assert loaded_weights.weights == weights.weights


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


def _tree_arrays(index):
    return {k: np.asarray(v) for k, v in index.flat_rtree.to_arrays().items()}


def _assert_same_tree(a, b):
    """Byte-for-byte the same level arrays, statistics and search answers."""
    arrays_a, arrays_b = _tree_arrays(a), _tree_arrays(b)
    assert list(arrays_a) == list(arrays_b)
    for key in arrays_a:
        assert arrays_a[key].dtype == arrays_b[key].dtype, key
        assert np.array_equal(arrays_a[key], arrays_b[key]), key
    assert a.stats.level_stats == b.stats.level_stats
    assert [(p.level, p.sorted_max_counts.tolist()) for p in a.stats.level_counts] \
        == [(p.level, p.sorted_max_counts.tolist()) for p in b.stats.level_counts]
    hull = full_domain(a.cardinalities)
    for min_count in (None, 2, 10**9):
        x = a.rtree.search_arrays(hull, min_count=min_count)
        y = b.rtree.search_arrays(hull, min_count=min_count)
        assert x.nodes_visited == y.nodes_visited
        assert np.array_equal(x.rows, y.rows)
        assert np.array_equal(x.counts, y.counts)


def test_roundtrip_attaches_stored_flat_form(index, tmp_path):
    """v2 files carry the packed R-tree; the loaded index searches the
    stored arrays themselves, identical to the tree that was saved."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    archive = np.load(path)
    assert any(k.startswith("flat_") for k in archive.files)
    loaded, _ = load_index(path)
    _assert_same_tree(index, loaded)
    assert loaded.rtree.max_entries == index.rtree.max_entries
    for key, arr in _tree_arrays(loaded).items():
        assert np.array_equal(arr, archive["flat_" + key]), key


@pytest.mark.parametrize("verify", ["mine", "stored"])
def test_v2_load_never_packs(index, tmp_path, monkeypatch, verify):
    """A format-v2 load adopts the stored tree: no Hilbert keying, no
    packing — so the statistics describe the tree that is searched."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)

    def boom(*args, **kwargs):
        raise AssertionError("a v2 load must not key or pack")

    monkeypatch.setattr("repro.rtree.packing.hilbert_indices", boom)
    monkeypatch.setattr("repro.rtree.supported.pack_hilbert", boom)
    loaded, _ = load_index(path, verify=verify)
    _assert_same_tree(index, loaded)


def test_roundtrip_payload_first_no_entry_rebuild(index, tmp_path):
    """v2 files round-trip the leaf payload as one row vector, a bijection
    onto the MIP rows that the loaded tree serves hits through."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    archive = np.load(path)
    assert "flat_payload_rows" in archive.files
    stored_rows = archive["flat_payload_rows"]
    assert stored_rows.dtype == np.int64
    assert sorted(stored_rows.tolist()) == list(range(index.n_mips))

    loaded, _ = load_index(path)
    flat = loaded.flat_rtree
    assert flat.payload_rows.tolist() == stored_rows.tolist()
    hits = flat.search_hits(full_domain(loaded.cardinalities))
    assert np.array_equal(hits.rows, stored_rows[hits.slots])
    assert hits.counts.tolist() == loaded.global_counts[hits.rows].tolist()


def test_load_v1_file_recompiles_flat(index, tmp_path):
    """A legacy v1 archive (no R-tree arrays) still loads; the tree is
    packed on load instead of adopted, and comes out the same."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    archive = dict(np.load(path))
    meta = json.loads(bytes(archive["meta"]).decode())
    meta["format_version"] = 1
    stripped = {k: v for k, v in archive.items() if not k.startswith("flat_")}
    stripped["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **stripped)
    loaded, _ = load_index(path)
    _assert_same_tree(index, loaded)
    assert np.array_equal(
        loaded.stats.mip_fixed_values, index.stats.mip_fixed_values
    )


def test_load_detects_corrupt_flat_arrays(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    archive = dict(np.load(path))

    # Broken payload bijection.
    tampered = dict(archive)
    rows = tampered["flat_payload_rows"].copy()
    if len(rows) > 1:
        rows[0] = rows[1]
        tampered["flat_payload_rows"] = rows
        np.savez(path, **tampered)
        with pytest.raises(DataError, match="bijection"):
            load_index(path)

    # Missing payload map entirely.
    tampered = {k: v for k, v in archive.items() if k != "flat_payload_rows"}
    np.savez(path, **tampered)
    with pytest.raises(DataError, match="payload_rows"):
        load_index(path)

    # Inconsistent CSR offsets.
    tampered = dict(archive)
    n_levels = int(tampered["flat_shape"][1])
    key = f"flat_offsets_{n_levels - 1}"
    offs = tampered[key].copy()
    offs[-1] += 1
    tampered[key] = offs
    np.savez(path, **tampered)
    with pytest.raises(DataError, match="corrupt flat"):
        load_index(path)


def _zero(arr):
    arr[:] = 0


def _flip_bit(arr):
    arr[len(arr) // 2] ^= 1 << 3


def _shrink(arr):
    arr[np.unravel_index(np.argmax(arr), arr.shape)] -= 1


def _swap_ends(arr):
    arr[[0, -1]] = arr[[-1, 0]]


@pytest.mark.parametrize("member,damage", [
    ("flat_counts_0", _zero),          # the root prunes every supported search
    ("flat_counts_{leaf}", _zero),
    ("flat_counts_{leaf}", _flip_bit),
    ("flat_counts_0", _flip_bit),
    ("flat_highs_0", _shrink),         # a subtree's box no longer covers it
    ("flat_highs_{leaf}", _shrink),
    ("flat_payload_rows", _swap_ends),  # hits would name the wrong MIPs
])
def test_load_refuses_a_well_formed_wrong_tree(index, tmp_path, member, damage):
    """Arrays that pass every structural check but are not the tree of the
    index's MIPs — zeroed or bit-flipped counts, a shrunken box, a permuted
    payload map — used to load and silently lose hits; they must fail."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    archive = dict(np.load(path))
    leaf = int(archive["flat_shape"][1]) - 1
    assert leaf >= 1  # the damaged root is an internal level
    key = member.format(leaf=leaf)
    arr = archive[key].copy()
    damage(arr)
    assert not np.array_equal(arr, archive[key])
    archive[key] = arr
    np.savez(path, **archive)
    for verify in ("mine", "stored"):
        with pytest.raises(DataError, match="corrupt flat"):
            load_index(path, verify=verify)


def test_mmap_load_zero_copy_and_identical(index, tmp_path):
    """Uncompressed v2 archives open their flat SoA arrays as read-only
    memory maps, and the mapped tree answers searches identically."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    loaded, _ = load_index(path, mmap_mode="r")
    flat = loaded.flat_rtree
    assert flat is not None

    def is_mapped(arr):
        while arr is not None:
            if isinstance(arr, np.memmap):
                return True
            arr = getattr(arr, "base", None)
        return False

    assert all(is_mapped(level.lows) for level in flat.levels)
    assert is_mapped(flat.payload_rows)
    eager, _ = load_index(path)
    _assert_same_tree(eager, loaded)


def test_mmap_load_compressed_falls_back_to_copy(index, tmp_path):
    """Compressed members cannot be mapped; the loader warns, falls back
    to the eager copy, and the index still works."""
    from repro.core.persistence import MmapFallbackWarning

    path = tmp_path / "t.colarm.npz"
    save_index(index, path)  # compressed (the default)
    with pytest.warns(MmapFallbackWarning):
        loaded, _ = load_index(path, mmap_mode="r")
    flat = loaded.flat_rtree
    assert flat is not None
    assert not any(
        isinstance(level.lows, np.memmap) for level in flat.levels
    )
    _assert_same_tree(index, loaded)


def test_mmap_load_rejects_writable_modes(index, tmp_path):
    path = tmp_path / "t.colarm.npz"
    save_index(index, path, compress=False)
    with pytest.raises(DataError, match="mmap_mode"):
        load_index(path, mmap_mode="r+")
    with pytest.raises(DataError, match="mmap_mode"):
        load_index(path, mmap_mode="w+")


def _is_mapped(arr):
    while arr is not None:
        if isinstance(arr, np.memmap):
            return True
        arr = getattr(arr, "base", None)
    return False


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
    """A tampered stored kernel matrix is caught by the bit-for-bit
    cross-check against the rebuild, not served."""
    path = tmp_path / "t.colarm.npz"
    save_index(index, path)
    archive = dict(np.load(path))
    kernel = archive["kernel_mip_tidsets"].copy()
    kernel[0, 0] ^= 1
    archive["kernel_mip_tidsets"] = kernel
    np.savez(path, **archive)
    with pytest.raises(DataError, match="kernel"):
        load_index(path)


def _rewrite(path, change):
    """Apply ``change`` to the archive's members (a dict) and rewrite it."""
    with np.load(path) as archive:
        members = dict(archive)
    change(members)
    np.savez(path, **members)


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
    save_maintained(MaintainedIndex.from_index(index), maintained_path)

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
