"""Persistence of the offline artifacts: MIP-index and cost weights.

POQM only pays off if the offline phase is done *once* — across process
restarts, not just within one session.  This module serializes everything
the online phase needs into a single ``.npz`` file:

* the relational table (schema labels + the cell-index matrix),
* the closed frequent itemsets (flattened (attribute, value) pairs),
* the primary support,
* the packed MIP-tidset and item matrices, checked against the rebuild
  on load and then served from the archive's own pages,
* optionally the calibrated cost weights.

The statistics are *derived* state: they are recomputed deterministically
on load, which keeps the file small and the format trivially
forward-compatible.  Format v3 stores no R-tree — no request reads one,
and an index packs its tree only when asked
(:attr:`repro.core.mipindex.MIPIndex.rtree`).  v1 and v2 files still
load; a v2 file's tree members and fan-out key are ignored.
"""

from __future__ import annotations

import json
import struct
import warnings
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import kernels
from repro import tidset as ts
from repro.core.costs import CostWeights
from repro.core.mipindex import MIPIndex, assemble_index, mine_mips
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable
from repro.errors import DataError
from repro.itemsets.itemset import min_count_for

__all__ = [
    "save_index",
    "load_index",
    "save_maintained",
    "load_maintained",
    "delta_sidecar_path",
    "LoadReport",
    "MmapFallbackWarning",
]

_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)
_KERNEL_MIPS = "kernel_mip_tidsets"
_KERNEL_ITEMS = "kernel_item_matrix"
_MAINT_FORMAT_VERSION = 1


class MmapFallbackWarning(RuntimeWarning):
    """A ``load_index(mmap_mode=...)`` member could not be memory-mapped.

    Raised as a *warning*, not an error: the load still succeeds with an
    eager heap copy, but the pages are private to the process — a cluster
    worker loading such a file pays full RSS instead of sharing the box's
    page cache.  The usual cause is an archive written with
    ``save_index(compress=True)`` (deflated members cannot be mapped in
    place); rewrite it with ``compress=False``.
    """


@dataclass(frozen=True)
class LoadReport:
    """What a ``load_index(mmap_mode=...)`` call actually mapped.

    ``mapped`` lists the members served as zero-copy memory maps into the
    archive; ``fallbacks`` lists the members that were *requested* for
    mapping but silently degraded to eager heap copies (compressed,
    object-dtype, or unrecognized).  Attached to the loaded index as
    ``index.load_report``; an eager load (``mmap_mode=None``) records
    every candidate member as a fallback with ``requested=False``.
    """

    requested: bool
    mapped: tuple[str, ...]
    fallbacks: tuple[str, ...]

    @property
    def fully_mapped(self) -> bool:
        return self.requested and not self.fallbacks

    def as_dict(self) -> dict:
        return {
            "requested": self.requested,
            "mapped": list(self.mapped),
            "fallbacks": list(self.fallbacks),
            "fully_mapped": self.fully_mapped,
        }


def save_index(
    index: MIPIndex,
    path: str | Path,
    weights: CostWeights | None = None,
    compress: bool = True,
) -> None:
    """Write a MIP-index (and optional calibrated weights) to ``path``.

    The file is a numpy ``.npz`` archive; ``path`` conventionally ends in
    ``.colarm.npz`` but any name works.  ``compress=False`` stores the
    members raw (ZIP_STORED), which makes the cell matrix and the packed
    kernel matrices eligible for zero-copy ``load_index(...,
    mmap_mode="r")`` loading at the price of a larger file.
    """
    path = Path(path)
    schema = index.table.schema
    meta = {
        "format_version": _FORMAT_VERSION,
        "primary_support": index.primary_support,
        "attributes": [
            {"name": attr.name, "values": list(attr.values)}
            for attr in schema.attributes
        ],
        "weights": dict(weights.weights) if weights is not None else None,
    }
    itemset_items, itemset_offsets = _itemset_arrays(index.stats.mip_fixed_values)
    # The packed kernel matrices are derived state, but storing them
    # moves the hot-path bulk of a worker's working set into the
    # archive itself: an mmap load shares these pages across every
    # process on the box instead of rebuilding a private copy each.
    # They are verified bit-for-bit against the rebuild on load, so a
    # corrupt file cannot smuggle in wrong counts.
    arrays = {
        _KERNEL_MIPS: index.mip_tidset_matrix,
        _KERNEL_ITEMS: index.table.item_matrix()[0],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    savez = np.savez_compressed if compress else np.savez
    savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        data=index.table.data,
        itemset_items=itemset_items,
        itemset_offsets=itemset_offsets,
        **arrays,
    )


def load_index(
    path: str | Path,
    mmap_mode: str | None = None,
    verify: str = "mine",
) -> tuple[MIPIndex, CostWeights | None]:
    """Load a MIP-index saved by :func:`save_index`.

    Returns the index plus the calibrated weights (``None`` when the file
    was saved without them).  Derived structures are rebuilt from the
    table: its packed item matrix (one ``packbits`` per schema item,
    straight from the columns), the MIP tidset rows, the statistics and
    the sub-itemset table.  With ``verify="mine"`` (the default) the
    stored itemset arrays must equal a fresh CHARM run's, so a stale or
    corrupted file cannot silently produce wrong answers.  No format
    stores a tree the load reads: a v2 file's R-tree members are
    ignored.  A ``meta`` member that is not a JSON object with the
    fields the loader reads is a ``DataError`` naming the file.

    ``verify="stored"`` skips the re-mine: each MIP's tidset row is the
    AND of the item rows of its *stored* itemset, and the rebuilt item
    and MIP rows are then cross-checked bit-for-bit against the
    archive's packed kernel matrices (required to be present); no
    ``Item``-keyed int tidset is built.  A tampered itemset or tidset
    still fails the load, but the closure/completeness of the stored
    list is taken on trust — use it for snapshots your own process
    published (cluster workers), not for files of unknown origin.  The
    payoff is worker cold-start: no CHARM run means no mining-time heap
    watermark, which is what keeps a serving process's unique RSS a
    small fraction of the mmap-shared archive.

    ``mmap_mode="r"`` (or ``"c"``, copy-on-write) opens the big members —
    the table's cell matrix and the packed kernel matrices — as read-only
    memory maps into the archive itself instead of decompressing each
    into a fresh heap copy: a mapped load is zero-copy, pages in on
    demand, and N processes mapping the same file share one page-cache
    copy of those arrays.  Mapping
    requires the member to be stored uncompressed (:func:`save_index`
    with ``compress=False``); members that cannot be mapped fall back to
    the eager copy, emit a :class:`MmapFallbackWarning`, and are listed
    in the :class:`LoadReport` attached to the returned index as
    ``index.load_report``.
    """
    path = Path(path)
    if mmap_mode not in (None, "r", "c"):
        raise DataError(
            f"mmap_mode must be None, 'r' or 'c', got {mmap_mode!r} — the "
            "archive is shared state; writable maps would corrupt it"
        )
    if verify not in ("mine", "stored"):
        raise DataError(
            f"verify must be 'mine' or 'stored', got {verify!r}"
        )
    mapped_names: list[str] = []
    fallback_names: list[str] = []
    with _open_npz(path, "index file") as archive, (
        zipfile.ZipFile(path) if mmap_mode is not None else nullcontext()
    ) as zf:

        def member(name: str) -> np.ndarray:
            """One mappable member: zero-copy when possible, recorded
            either way."""
            if zf is not None:
                mapped = _mmap_npz_member(path, zf, name + ".npy", mmap_mode)
                if mapped is not None:
                    mapped_names.append(name)
                    return mapped
            fallback_names.append(name)
            return archive[name]

        try:
            meta = _meta(archive, path)
            items = archive["itemset_items"]
            offsets = archive["itemset_offsets"]
            data = member("data")
        except KeyError as exc:
            raise DataError(
                f"{path}: missing field {exc} — not a COLARM index"
            ) from None
        if meta.get("format_version") not in _SUPPORTED_VERSIONS:
            raise DataError(
                f"{path}: unsupported format version "
                f"{meta.get('format_version')}"
            )
        if verify == "stored" and not (
            _KERNEL_MIPS in archive.files and _KERNEL_ITEMS in archive.files
        ):
            raise DataError(
                f"{path}: verify='stored' needs the packed kernel "
                "matrices for its bit-for-bit tidset cross-check, "
                "but the archive carries none — load with "
                "verify='mine' instead"
            )
        try:
            schema = Schema(
                tuple(
                    Attribute(spec["name"], tuple(spec["values"]))
                    for spec in meta["attributes"]
                )
            )
            primary_support = float(meta["primary_support"])
            weights = (
                CostWeights(dict(meta["weights"])) if meta.get("weights")
                else None
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed_meta(path, exc) from None
        table = RelationalTable(schema, data)
        built_items, item_rows = table.item_matrix()
        table._item_matrix = (
            _adopt_kernel(archive, member, _KERNEL_ITEMS, built_items, "item", path),
            item_rows,
        )
        if verify == "stored":
            fixed, built = _stored_mips(
                table, items, offsets, primary_support, path
            )
        else:
            fixed, built = mine_mips(table, primary_support)
            if not all(
                map(np.array_equal, (items, offsets), _itemset_arrays(fixed))
            ):
                raise DataError(
                    f"{path}: stored itemsets disagree with the rebuilt index "
                    f"({len(offsets) - 1} stored vs {len(fixed)} rebuilt) — "
                    "the file does not match its own data"
                )
        mip_matrix = _adopt_kernel(archive, member, _KERNEL_MIPS, built, "MIP", path)
        index = assemble_index(table, primary_support, fixed, mip_matrix)
    report = LoadReport(
        requested=mmap_mode is not None,
        mapped=tuple(mapped_names),
        fallbacks=tuple(fallback_names),
    )
    object.__setattr__(index, "load_report", report)
    if report.requested and report.fallbacks:
        warnings.warn(
            f"{path}: {len(report.fallbacks)} member(s) could not be "
            f"memory-mapped and fell back to private heap copies "
            f"({', '.join(report.fallbacks)}); save with compress=False "
            "for a fully shareable archive",
            MmapFallbackWarning,
            stacklevel=2,
        )
    return index, weights


def _meta(archive, path: Path) -> dict:
    """An archive's ``meta`` member as a dict; bytes that are not a JSON
    object are a ``DataError`` naming ``path`` (a missing member is the
    caller's ``KeyError``)."""
    try:
        meta = json.loads(bytes(archive["meta"]).decode())
    except (TypeError, ValueError) as exc:
        raise _malformed_meta(path, exc) from None
    if not isinstance(meta, dict):
        raise DataError(
            f"malformed meta in {path}: a JSON {type(meta).__name__}, "
            "not an object"
        )
    return meta


def _malformed_meta(path: Path, exc: Exception) -> DataError:
    return DataError(f"malformed meta in {path}: {type(exc).__name__}: {exc}")


def _adopt_kernel(
    archive, member, name: str, built: np.ndarray, what: str, path: Path
) -> np.ndarray:
    """The stored packed ``what`` matrix if it equals the rebuild, else
    a ``DataError``; the rebuild itself when the archive carries none.

    The packed MIP-tidset and item-tidset matrices are deterministic
    functions of the table, so equality with the rebuild both checks the
    file and licenses serving the archive-backed copy: the hot kernels
    then read file-backed pages every process on the box shares.
    """
    if name not in archive.files:
        return built
    stored = member(name)
    if (
        stored.dtype != built.dtype
        or stored.shape != built.shape
        or not np.array_equal(stored, built)
    ):
        raise DataError(
            f"{path}: stored {what} kernel matrix disagrees with the "
            "rebuilt index — the file does not match its own data"
        )
    stored.setflags(write=False)
    return stored


def _open_npz(path: Path, what: str):
    """``np.load`` of an archive (a context manager), any read failure a
    ``DataError``."""
    try:
        return np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _mmap_npz_member(
    path: Path, zf: zipfile.ZipFile, name: str, mmap_mode: str
) -> np.ndarray | None:
    """Memory-map one ``.npy`` member of an ``.npz`` archive in place.

    ``np.load`` ignores ``mmap_mode`` for zip archives (members go
    through the zipfile reader, which always copies), so this locates the
    member's raw bytes inside the archive by hand: the zip *local* header
    at ``header_offset`` gives the data start (its name/extra lengths can
    differ from the central directory's), and the ``.npy`` header behind
    it gives dtype/shape/order.  Returns ``None`` — caller falls back to
    the eager copy — for compressed, object-dtype, or unrecognized
    members; the map itself is read-only (``"r"``) or copy-on-write
    (``"c"``), never write-through.
    """
    try:
        info = zf.getinfo(name)
    except KeyError:
        return None
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    with open(path, "rb") as f:
        f.seek(info.header_offset)
        local = f.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            return None
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        f.seek(info.header_offset + 30 + name_len + extra_len)
        try:
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
            else:
                return None
        except ValueError:
            return None
        if dtype.hasobject:
            return None
        data_offset = f.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode=mmap_mode,
        offset=data_offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def delta_sidecar_path(path: str | Path) -> Path:
    """The delta sidecar conventionally stored next to the index file
    (``x.colarm.npz`` -> ``x.colarm.delta.npz``)."""
    path = Path(path)
    if path.suffix == ".npz":
        return path.with_suffix(".delta.npz")
    return Path(str(path) + ".delta.npz")


def save_maintained(
    maintained,
    path: str | Path,
    weights: CostWeights | None = None,
    compress: bool = True,
) -> None:
    """Write a maintained index: the main index ``.npz`` plus a delta
    sidecar at :func:`delta_sidecar_path`.

    The main file is a plain :func:`save_index` archive — loadable on its
    own by a reader that does not care about the un-folded mutations.  The
    sidecar stores only the *logical* delta state (live delta records,
    tombstoned main tids, the generation), not the packed matrices:
    :func:`load_maintained` replays it through the vectorized append /
    delete path, which rebuilds the matrices deterministically.  Refuses
    to save while a background recompaction is in flight (poll it first —
    the op log is thread state, not data).
    """
    if maintained.recompacting:
        raise DataError(
            "cannot save while a recompaction is in flight; "
            "poll_recompaction(wait=True) first"
        )
    path = Path(path)
    save_index(maintained.index, path, weights=weights, compress=compress)
    meta = {
        "maintenance_format_version": _MAINT_FORMAT_VERSION,
        "generation": maintained.generation,
        "max_delta_fraction": maintained.max_delta_fraction,
        "n_main_records": maintained.n_main_records,
    }
    sidecar = delta_sidecar_path(path)
    sidecar.parent.mkdir(parents=True, exist_ok=True)
    savez = np.savez_compressed if compress else np.savez
    savez(
        sidecar,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        delta_records=maintained.delta_data(),
        main_dead=np.asarray(ts.to_list(maintained.main_dead), dtype=np.int64),
    )


def load_maintained(path: str | Path):
    """Load a maintained index saved by :func:`save_maintained`.

    Returns ``(maintained, weights)``.  The main index loads through the
    verified :func:`load_index` path; the sidecar's tombstones and delta
    records then replay through the maintained mutation path (one
    vectorized batch each), and the generation clock is advanced to the
    saved generation so cross-restart stamps (e.g. a priced
    :class:`~repro.core.optimizer.PlanChoice`) can never falsely validate.
    A missing sidecar is an error — load the main file with
    :func:`load_index` when the delta state is intentionally dropped.
    Meta keys the loader does not read are ignored: older sidecars carry
    a fold-policy flag the maintained index no longer has.
    """
    from repro.core.maintenance import MaintainedIndex

    path = Path(path)
    sidecar = delta_sidecar_path(path)
    with _open_npz(sidecar, "delta sidecar") as archive:
        try:
            meta = _meta(archive, sidecar)
            delta_records = archive["delta_records"]
            main_dead = archive["main_dead"]
        except KeyError as exc:
            raise DataError(
                f"{sidecar}: missing field {exc} — not a delta sidecar"
            ) from None
    if meta.get("maintenance_format_version") != _MAINT_FORMAT_VERSION:
        raise DataError(
            f"{sidecar}: unsupported maintenance format version "
            f"{meta.get('maintenance_format_version')}"
        )
    try:
        n_main_records = int(meta["n_main_records"])
        max_delta_fraction = float(meta["max_delta_fraction"])
        saved_generation = int(meta["generation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed_meta(sidecar, exc) from None
    index, weights = load_index(path)
    if index.table.n_records != n_main_records:
        raise DataError(
            f"{sidecar}: sidecar was taken over {n_main_records} "
            f"main records but the index file holds "
            f"{index.table.n_records} — the files do not belong together"
        )
    maintained = MaintainedIndex(
        index, max_delta_fraction=max_delta_fraction
    )
    if len(main_dead):
        maintained.delete([int(t) for t in main_dead])
    if len(delta_records):
        maintained.append(delta_records)
    if maintained.generation < saved_generation:
        index.clock.base += saved_generation - maintained.generation
    return maintained, weights


def _itemset_arrays(fixed_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The snapshot's ``(itemset_items, itemset_offsets)``: every MIP's
    ``(attribute, value)`` pairs in attribute order, flattened MIP by
    MIP, and where each MIP's pairs start."""
    fixed = fixed_values >= 0
    rows, attrs = np.nonzero(fixed)
    items = np.stack([attrs, fixed_values[rows, attrs]], axis=-1).astype(np.int32)
    offsets = np.zeros(len(fixed_values) + 1, dtype=np.int64)
    np.cumsum(fixed.sum(axis=1), out=offsets[1:])
    return items, offsets


def _stored_mips(
    table: RelationalTable,
    items: np.ndarray,
    offsets: np.ndarray,
    primary_support: float,
    path: Path,
) -> tuple[np.ndarray, np.ndarray]:
    """The stored itemsets as ``(fixed_values, mip_matrix)``, miner-free.

    The pairs land straight in the fixed-value matrix, which must encode
    back to exactly the stored arrays (one value per fixed attribute, in
    attribute order), and each MIP's tidset row is the AND of its items'
    rows of ``table.item_matrix()`` — a deterministic function of the
    (already loaded) table, so any inconsistency between the stored list
    and the data surfaces either here (malformed list, value outside its
    domain, item in no record, duplicate, infrequent result) or in the
    bit-for-bit kernel-matrix cross-check that follows.
    """

    def refuse(what: str) -> DataError:
        return DataError(f"{path}: {what} — the file does not match its own data")

    schema = table.schema
    try:
        lengths = np.diff(offsets)
        fixed = np.full((len(lengths), schema.n_attributes), -1, dtype=np.int32)
        fixed[np.repeat(np.arange(len(lengths)), lengths), items[:, 0]] = items[:, 1]
    except (TypeError, ValueError, IndexError) as exc:
        raise refuse(f"malformed stored itemset list ({exc})") from None
    if (lengths < 1).any() or not all(
        map(np.array_equal, (items, offsets), _itemset_arrays(fixed))
    ):
        raise refuse(
            "stored itemsets are not non-empty (attribute, value) lists, "
            "one value per attribute in attribute order"
        )
    if (fixed >= np.asarray(schema.cardinalities())).any():
        raise refuse("a stored itemset names a value outside its domain")
    if len(np.unique(fixed, axis=0)) != len(fixed):
        raise refuse("duplicate stored itemset")
    matrix, _ = table.item_matrix()
    row_of = np.full(schema.n_items, -1, dtype=np.intp)
    row_of[table.item_ids()] = np.arange(len(matrix))
    bases = np.asarray(schema.item_bases)
    if (row_of[bases[items[:, 0]] + items[:, 1]] < 0).any():
        raise refuse("a stored itemset names an item that occurs in no record")
    built = np.full((len(fixed), matrix.shape[1]), ~np.uint64(0), dtype=matrix.dtype)
    for a, base in enumerate(schema.item_bases):
        has = fixed[:, a] >= 0
        built[has] &= matrix[row_of[base + fixed[has, a]]]
    floor = min_count_for(primary_support, table.n_records)
    if (kernels.popcount_rows(built) < floor).any():
        raise refuse("a stored itemset is not frequent at the primary support floor")
    return fixed, built
