"""Seed-derived inputs of the four end-to-end workloads.

Everything a run feeds the system is made here.  ``--seed`` is the only
source of randomness between runs: it draws the *order* the queries are
asked in, the appended rows, the delete victims and the oracle sample.  No
engine is built and nothing is timed in this module; :func:`generate` is
timed by the caller and reported as ``gen_s``.

What the seed does **not** draw is *which* work a run holds.  Fixed
(``POOL_SEED``), like the paper's dataset files, are

* the tables — a different table seed moves ``n_mips`` by +-20 % and
  calibration from 3 s to 41 s (one ARM probe explodes);
* the query universe of each workload, which key holds which popularity
  rank, and **how often each key is asked**: a Zipf workload asks key ``k``
  the number of times a Zipf(1.1) stream of that length holds it in
  expectation (:func:`_zipf_multiset`), not an i.i.d. draw.  Query costs are
  heavy-tailed (p99 is 20x p50) and the top key carries 13 % of the
  traffic, so drawing the multiset per seed moved ``throughput_qps`` by 30 %
  between seeds (156-254 qps), and a bound that wide guards nothing.

A run sets up ``Sizes.parts`` systems (``setup_s`` is the median) and every
one of them is measured: each part of the op list is the **same multiset**
of ops in its own seed-derived order, run against its own freshly set-up
system.  The parts are replicas, so pooling them (``metrics.end_to_end``)
averages over three independently calibrated systems without mixing in
what a different third of the work would cost.

Sizes are set so that, on the 2-core reference box, three set-ups plus a
``--seconds 10`` measured phase fit in the driver's ~35 s per run (see
README.md, "Sizing").  The op list is *fixed*: its length is
``rate x seconds`` with the per-workload ``rate`` below, never "whatever
fits", so both commits of a comparison do the same work and percentile
sample counts do not move with speed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.query import LocalizedQuery, canonical_focal_key
from repro.dataset.synthetic import chess_like, mushroom_like, pumsb_like
from repro.dataset.table import RelationalTable
from repro.workloads.experiments import FOCAL_FRACTIONS
from repro.workloads.queries import random_focal_query

WORKLOADS = ("fresh_grid", "zipf_served", "ingest_mixed", "wide_cluster")

#: Why each workload exists (mirrored in BENCHMARK.json and README.md).
WHY = {
    "fresh_grid": (
        "1 client, distinct focal queries of the paper's grid on three "
        "tables, cache off: optimizer, R-tree, kernels and rule generation "
        "do all the work"
    ),
    "zipf_served": (
        "2 clients through QueryService, Zipf keys over a pool larger than "
        "the rule cache: cache and serving carry the hits, kernels only the "
        "misses"
    ),
    "ingest_mixed": (
        "1 client alternating append/delete batches with rounds of queries "
        "and background folds: delta kernels, cache invalidation and "
        "recompaction, the write side"
    ),
    "wide_cluster": (
        "2 clients through ClusterService over an mmap snapshot of a wide "
        "table with periodic ingest+publish: router hop, pickling, snapshot "
        "write and worker reload"
    ),
}

MINCONFS = (0.85, 0.90, 0.95)
ZIPF_S = 1.1
#: Seed of everything that is part of the fixed scenario, not of the traffic.
POOL_SEED = 2014
#: Share of ops whose answer is recounted from raw rows (the oracle sample).
SAMPLE_SHARE = 0.02
BATCH_ROWS = 8           # rows per append and per delete in ingest_mixed
ROUND_QUERIES = 12       # queries per ingest_mixed round
PUBLISH_ROWS = 64        # rows per wide_cluster ingest


@dataclass(frozen=True)
class TableSpec:
    """One fixed dataset: a synthetic look-alike at a stated shape."""

    kind: str                    # chess | mushroom | pumsb
    n_records: int
    n_attributes: int
    primary_support: float
    minsupps: tuple[float, ...]
    #: Extra rows generated past ``n_records`` and held back for appends.
    held_back: int = 0

    def split(self) -> tuple[RelationalTable, np.ndarray]:
        """The base table the engine is built over, and the held-back rows."""
        maker = {"chess": chess_like, "mushroom": mushroom_like,
                 "pumsb": pumsb_like}[self.kind]
        table = maker(n_records=self.n_records + self.held_back,
                      n_attributes=self.n_attributes)
        if not self.held_back:
            return table, table.data[:0]
        return (RelationalTable(table.schema, table.data[: self.n_records]),
                table.data[self.n_records:])

    def make(self) -> RelationalTable:
        return self.split()[0]


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the benchmark; ``FULL`` is what is reported."""

    tables: dict[str, TableSpec]
    #: Independently set-up systems per run; each runs one part of the list.
    parts: int
    #: Query ops per ``--seconds`` second, per workload (fixed op lists).
    rate: dict[str, float]
    zipf_regions: int        # zipf_served pool = regions x 3 minconf
    zipf_warmup: int
    #: zipf_served rule-cache budget.  Not the 64 MB default: the pool's
    #: ~60 MB of rule lists would fit, and a cache that never evicts hides
    #: eviction policy and the lattice tier (the one non-default knob).
    zipf_cache_bytes: int
    ingest_keys: int
    cluster_keys: int
    publish_every: int
    acc_queries: int         # compare_plans pass (traced fresh_grid only)


FULL = Sizes(
    tables={
        # EXPERIMENTS' look-alikes, one or two attributes narrower so a
        # set-up is 1.3-1.9 s instead of 3-7 s (it runs three times a run).
        "chess": TableSpec("chess", 1000, 11, 0.08, (0.30, 0.35, 0.40)),
        "mushroom": TableSpec("mushroom", 1600, 13, 0.08, (0.25, 0.30, 0.35)),
        "pumsb": TableSpec("pumsb", 4000, 16, 0.06, (0.25, 0.30, 0.35)),
        "served": TableSpec("mushroom", 1600, 13, 0.08, (0.25, 0.30, 0.35)),
        "mutable": TableSpec("mushroom", 1600, 13, 0.08, (0.40,),
                             held_back=2048),
        "wide": TableSpec("chess", 64_000, 12, 0.35, (0.40, 0.45, 0.50),
                          held_back=4096),
    },
    parts=3,
    rate={"fresh_grid": 160.0, "zipf_served": 240.0, "ingest_mixed": 150.0,
          "wide_cluster": 400.0},
    zipf_regions=256,
    zipf_warmup=300,
    zipf_cache_bytes=16 << 20,
    ingest_keys=24,
    cluster_keys=96,
    publish_every=450,
    acc_queries=36,
)

SMOKE = Sizes(
    tables={
        "chess": TableSpec("chess", 300, 8, 0.15, (0.30, 0.35, 0.40)),
        "mushroom": TableSpec("mushroom", 300, 8, 0.15, (0.25, 0.30, 0.35)),
        "pumsb": TableSpec("pumsb", 400, 8, 0.15, (0.25, 0.30, 0.35)),
        "served": TableSpec("mushroom", 400, 9, 0.12, (0.25, 0.30, 0.35)),
        "mutable": TableSpec("mushroom", 400, 9, 0.12, (0.40,),
                             held_back=800),
        "wide": TableSpec("chess", 4000, 8, 0.35, (0.40, 0.45, 0.50),
                          held_back=512),
    },
    parts=1,
    rate={"fresh_grid": 120.0, "zipf_served": 150.0, "ingest_mixed": 96.0,
          "wide_cluster": 150.0},
    zipf_regions=48,
    zipf_warmup=40,
    zipf_cache_bytes=256 << 10,
    ingest_keys=12,
    cluster_keys=24,
    publish_every=20,
    acc_queries=12,
)


@dataclass(frozen=True)
class PoolQuery:
    engine: str                  # key into Workload.tables
    query: LocalizedQuery


@dataclass
class Workload:
    """One workload's complete, fixed input."""

    name: str
    seed: int
    clients: int
    tables: dict[str, TableSpec]
    pool: list[PoolQuery]
    #: Untimed warm-up, as pool indices.
    warmup: list[int]
    #: The measured phase.  ``("query", pool index)``, ``("append", rows)``,
    #: ``("delete", victim-draw seed)``, ``("poll",)``, ``("publish", rows)``.
    ops: list[tuple]
    #: ``[lo, hi)`` op-index ranges; each part runs on a fresh system.
    parts: list[tuple[int, int]]
    #: Op indices whose answers the oracle recounts.
    sample: frozenset[int]
    #: ingest_mixed: op indices after which the engine is compared with one
    #: rebuilt from the live rows.
    checkpoints: frozenset[int] = frozenset()
    #: fresh_grid: pool indices of the compare_plans (ACC) pass.
    acc: list[int] = field(default_factory=list)
    #: Run the measured phase on one CPU.  ``ingest_mixed`` has two threads
    #: that want the GIL, the client's and the engine's background fold.  The
    #: query thread lets go of the GIL around every numpy call; whether the
    #: fold thread, asleep on the other vCPU, wakes fast enough to take it
    #: decides who waits out the 5 ms switch interval — and that is the
    #: host's halt-polling, not the repo.  Unpinned, the same code came out
    #: at p50 3.2 ms / p99 120-150 ms (the first query after a fold starts
    #: stalls for the whole build) and at p50 3.6 ms / p99 33 ms (the build is
    #: shared out over many queries) within the same hour; on one CPU the two
    #: threads take turns the same way every time (the second figure).  The
    #: traced run measures one part unpinned as well (``ingest.unpinned_*``),
    #: so a change that takes the fold off the GIL still shows.
    pinned: bool = False

    @property
    def n_queries(self) -> int:
        return sum(1 for op in self.ops if op[0] == "query")

    def fingerprint(self) -> str:
        """SHA-256 of the op list and the pool: equal iff the inputs are."""
        h = hashlib.sha256()
        for pq in self.pool:
            q = pq.query
            h.update(repr((
                pq.engine,
                sorted((a, sorted(v)) for a, v in q.range_selections.items()),
                q.minsupp, q.minconf,
            )).encode())
        for op in self.warmup:
            h.update(b"w%d" % op)
        for op in self.ops:
            h.update(op[0].encode())
            for part in op[1:]:
                h.update(np.asarray(part).tobytes())
        return h.hexdigest()


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _zipf_multiset(n_keys: int, n: int) -> np.ndarray:
    """The keys a Zipf(1.1) stream of ``n`` requests holds in expectation:
    the quantile points ``(i + 0.5) / n`` through the inverse CDF.  Key ``k``
    of the (randomly ordered, fixed) pool holds popularity rank ``k + 1``;
    the head keys get their expected counts and the tail is thinned evenly."""
    p = 1.0 / np.arange(1, n_keys + 1) ** ZIPF_S
    cdf = np.cumsum(p / p.sum())
    return np.minimum(np.searchsorted(cdf, (np.arange(n) + 0.5) / n), n_keys - 1)


def _shuffled(rng: np.random.Generator, keys: np.ndarray) -> list[int]:
    return [int(k) for k in keys[rng.permutation(len(keys))]]


def _equal_parts(n: int, parts: int) -> list[tuple[int, int]]:
    cuts = [round(k * n / parts) for k in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _sample(rng: np.random.Generator, ops: list[tuple]) -> frozenset[int]:
    queries = [i for i, op in enumerate(ops) if op[0] == "query"]
    k = max(3, round(SAMPLE_SHARE * len(queries)))
    return frozenset(int(i) for i in rng.choice(queries, size=min(k, len(queries)),
                                                replace=False))


def _distinct_queries(
    table: RelationalTable,
    cells: list[tuple[float, float, float]],
    n: int,
    rng: np.random.Generator,
    vary_thresholds: bool = True,
) -> list[LocalizedQuery]:
    """``n`` queries cycling over ``(fraction, minsupp, minconf)`` cells,
    no two with the same (focal subset, minsupp, minconf) — or, with
    ``vary_thresholds=False``, no two with the same focal subset."""
    cards = table.schema.cardinalities()
    seen: set = set()
    out: list[LocalizedQuery] = []
    i = 0
    while len(out) < n:
        fraction, minsupp, minconf = cells[i % len(cells)]
        i += 1
        for _ in range(8):
            q = random_focal_query(table, fraction, minsupp, minconf, rng).query
            key = canonical_focal_key(q.range_selections, cards)
            if vary_thresholds:
                key = (key, minsupp, minconf)
            if key not in seen:
                seen.add(key)
                out.append(q)
                break
    return out


def _fresh_grid(seed: int, seconds: float, sizes: Sizes) -> Workload:
    names = ("chess", "mushroom", "pumsb")
    tables = {name: sizes.tables[name] for name in names}
    per_part = max(len(names) * 36,
                   round(sizes.rate["fresh_grid"] * seconds / sizes.parts))
    per_table = -(-per_part // len(names))
    fixed = _rng(POOL_SEED, "fresh_grid")
    pool: list[PoolQuery] = []
    for name in names:
        spec = tables[name]
        cells = [(f, s, c) for f in FOCAL_FRACTIONS for s in spec.minsupps
                 for c in MINCONFS]
        pool += [PoolQuery(name, q) for q in
                 _distinct_queries(spec.make(), cells, per_table, fixed)]
    # Every part asks the whole pool once, in its own order.
    ops = [("query", int(i)) for part in range(sizes.parts)
           for i in _rng(seed, f"fresh_grid.{part}").permutation(len(pool))]
    # The ACC pass: per table, one query of every (fraction, minsupp) cell
    # (each table's pool cycles the cells with minconf fastest).
    acc = [t * per_table + len(MINCONFS) * k for t in range(len(names))
           for k in range(sizes.acc_queries // len(names))]
    return Workload("fresh_grid", seed, 1, tables, pool, [], ops,
                    _equal_parts(len(ops), sizes.parts),
                    _sample(_rng(seed, "fresh_grid.sample"), ops), acc=acc)


def _zipf_served(seed: int, seconds: float, sizes: Sizes) -> Workload:
    spec = sizes.tables["served"]
    cells = [(f, s, MINCONFS[0]) for f in FOCAL_FRACTIONS for s in spec.minsupps]
    regions = _distinct_queries(spec.make(), cells, sizes.zipf_regions,
                                _rng(POOL_SEED, "zipf_served"),
                                vary_thresholds=False)
    # Three minconf per region: the related keys share one lattice entry.
    pool = [
        PoolQuery("served", LocalizedQuery(
            range_selections=q.range_selections, minsupp=q.minsupp,
            minconf=c))
        for q in regions for c in MINCONFS
    ]
    pool = [pool[i] for i in _rng(POOL_SEED, "zipf_served.rank").permutation(len(pool))]
    per_part = max(20, round(sizes.rate["zipf_served"] * seconds / sizes.parts))
    keys = _zipf_multiset(len(pool), per_part)
    warmup = _shuffled(_rng(seed, "zipf_served.warmup"),
                       _zipf_multiset(len(pool), sizes.zipf_warmup))
    ops = [("query", k) for part in range(sizes.parts)
           for k in _shuffled(_rng(seed, f"zipf_served.{part}"), keys)]
    return Workload("zipf_served", seed, 2, {"served": spec}, pool, warmup,
                    ops, _equal_parts(len(ops), sizes.parts),
                    _sample(_rng(seed, "zipf_served.sample"), ops))


def _ingest_mixed(seed: int, seconds: float, sizes: Sizes) -> Workload:
    spec = sizes.tables["mutable"]
    rng = _rng(seed, "ingest_mixed")
    fixed = _rng(POOL_SEED, "ingest_mixed")
    base, held = spec.split()
    # Coverage-guaranteed regions: minsupp x |D^Q| clears the primary floor
    # plus the largest delta the engine lets accumulate (10 % of the table),
    # with slack for the focal subset shrinking as rows are swapped, so the
    # MIP plans stay exact and equal to a rebuilt engine's answers.
    floor = 1.25 * (spec.primary_support + 0.10) * spec.n_records
    pool: list[PoolQuery] = []
    seen: set = set()
    cards = base.schema.cardinalities()
    while len(pool) < sizes.ingest_keys:
        fraction = (0.5, 0.6, 0.7)[len(pool) % 3]
        wq = random_focal_query(base, fraction, 0.5, 0.9, fixed, tolerance=0.15)
        key = canonical_focal_key(wq.query.range_selections, cards)
        minsupp = max(spec.minsupps[0], np.ceil(100 * floor / wq.dq_size) / 100)
        if key in seen or minsupp > 0.8:
            continue
        seen.add(key)
        pool.append(PoolQuery("mutable", LocalizedQuery(
            range_selections=wq.query.range_selections, minsupp=float(minsupp),
            minconf=MINCONFS[len(pool) % 3])))
    # A round's queries are distinct keys: its mutations void the cache, so
    # every query is a miss and the median latency is a miss's — with
    # in-round repeats the hit share sat at 0.4-0.5 and p50 swung between a
    # hit and a miss by seed.  The keys are dealt from shuffled decks of the
    # whole pool, so every part asks every key equally often.
    rounds_per_deck, rest = divmod(len(pool), ROUND_QUERIES)
    if rest or not rounds_per_deck:
        raise ValueError("ingest_mixed: the key pool must be whole rounds")
    decks = max(1, round(sizes.rate["ingest_mixed"] * seconds / sizes.parts
                         / len(pool)))
    per_part = decks * rounds_per_deck
    rounds = per_part * sizes.parts
    # Victims are original rows (see harness.Mirror): a part may not delete
    # more than half of the table it starts from.
    if per_part * BATCH_ROWS > spec.n_records // 2 or rounds * BATCH_ROWS > len(held):
        raise ValueError(f"ingest_mixed: {rounds} rounds exceed the rows at hand")
    draws = np.concatenate([rng.permutation(len(pool))
                            for _ in range(decks * sizes.parts)])
    rows = held[rng.permutation(len(held))[: rounds * BATCH_ROWS]]
    ops: list[tuple] = []
    checkpoints = set()
    parts = []
    for r in range(rounds):
        if r % per_part == 0:
            parts.append(len(ops))
        ops.append(("append", rows[r * BATCH_ROWS:(r + 1) * BATCH_ROWS]))
        ops.append(("delete", int(rng.integers(1 << 62))))
        ops += [("query", int(i)) for i in
                draws[r * ROUND_QUERIES:(r + 1) * ROUND_QUERIES]]
        ops.append(("poll",))
        if r % per_part == per_part // 2:
            checkpoints.add(len(ops) - 1)
    parts.append(len(ops))
    return Workload("ingest_mixed", seed, 1, {"mutable": spec}, pool, [], ops,
                    list(zip(parts, parts[1:])),
                    _sample(_rng(seed, "ingest_mixed.sample"), ops),
                    checkpoints=frozenset(checkpoints), pinned=True)


def _wide_cluster(seed: int, seconds: float, sizes: Sizes) -> Workload:
    spec = sizes.tables["wide"]
    rng = _rng(seed, "wide_cluster")
    base, held = spec.split()
    cells = [(f, s, c) for f in (0.5, 0.3, 0.2, 0.1) for s in spec.minsupps
             for c in MINCONFS]
    pool = [PoolQuery("wide", q) for q in _distinct_queries(
        base, cells, sizes.cluster_keys, _rng(POOL_SEED, "wide_cluster"))]
    pool = [pool[i] for i in _rng(POOL_SEED, "wide_cluster.rank").permutation(len(pool))]
    # A part is whole segments of ``publish_every`` queries with an
    # ingest + publish between them.  A publish voids the workers' caches,
    # so every segment asks the same multiset: the misses that follow a
    # publish are the same number in every segment of every run.
    segments = max(2, round(sizes.rate["wide_cluster"] * seconds / sizes.parts
                            / sizes.publish_every))
    n_publishes = sizes.parts * (segments - 1)
    if n_publishes * PUBLISH_ROWS > len(held):
        raise ValueError("wide_cluster: publishes exceed the held-back rows")
    keys = _zipf_multiset(len(pool), sizes.publish_every)
    batches = held[rng.permutation(len(held))[: n_publishes * PUBLISH_ROWS]]
    ops: list[tuple] = []
    parts = []
    published = 0
    for part in range(sizes.parts):
        parts.append(len(ops))
        for segment in range(segments):
            if segment:
                ops.append(("publish", batches[published * PUBLISH_ROWS:
                                               (published + 1) * PUBLISH_ROWS]))
                published += 1
            ops += [("query", k) for k in _shuffled(rng, keys)]
    parts.append(len(ops))
    return Workload("wide_cluster", seed, 2, {"wide": spec}, pool, [], ops,
                    list(zip(parts, parts[1:])),
                    _sample(_rng(seed, "wide_cluster.sample"), ops))


_GENERATORS = {
    "fresh_grid": _fresh_grid,
    "zipf_served": _zipf_served,
    "ingest_mixed": _ingest_mixed,
    "wide_cluster": _wide_cluster,
}


def generate(name: str, seed: int, seconds: float, sizes: Sizes = FULL) -> Workload:
    """The complete input of workload ``name`` for ``(seed, seconds)``."""
    return _GENERATORS[name](seed, seconds, sizes)
