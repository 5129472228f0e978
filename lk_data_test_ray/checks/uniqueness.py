"""C1 global url uniqueness — the engine's one unavoidable all-to-all exchange.

Reference semantics: ``@xml:id`` is a primary key (``scripts/make_rdf.py:61-63``)
and duplicates are counted and reported (``curation/check_fackel_references.py:
32-37``).

Scale design (10^12 rows), implemented as a RAW-RAY two-phase hash exchange —
the one spot where the Dataset API is deliberately bypassed: a generic
sort-based ``groupby`` shuffles and ORDERS the keys, but uniqueness needs only
hash-partitioned equality grouping; the custom exchange moves 8-byte hashes
with no sort and no block re-materialization.

  1. **Prune at the read** — map tasks read ONLY the ``url`` column (at
     100 TB the html column dominates; a url-only read is ~1% of the bytes).
  2. **Hash compaction** — urls → stable u64 hashes (vectorized SipHash);
     the exchange moves 8-byte ints, not ~70-byte strings (~10x volume cut).
     ``hash(url)`` is uniform, so no salting is needed for this key
     (SURVEY.md §4: skew lives in hosts, not hashes).
  3. **Partition by hash top bits** (``num_returns=P`` map tasks → P reduce
     tasks): each reducer sees a disjoint hash range, finds counts > 1 with
     one ``np.unique`` — candidate hashes are a tiny set (dups are rare by
     construction of a web corpus).
  4. **Verify exactly** — the url strings of candidate hashes are counted,
     which also collapses u64 hash collisions (expected ~n²/2⁶⁵ ≈ 3·10⁴
     false candidate pairs at 10^12 rows). In the fused validate path the
     collectors' per-item attribution names the files holding each
     candidate, and ``verified.parquet`` (``(pid, h, url)``: every row of a
     committed file whose hash was a candidate when that file was last
     verified) serves the rows of a committed file whose needed hashes it
     already holds. Only this run's scanned files and old files holding a
     newly duplicated hash are re-read, in at most ``num_cpus`` batched
     tasks, so an incremental step pays for its new files, not the history.

Partitioning assumption: P reducers each hold ~n/P hashes in memory — size P
to ~cluster cores so a reducer's range fits a worker heap (8 bytes/row).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.hashing import hash_strings64
from ..schema import make_violations


@ray.remote
def _map_hash_partition(path: str, key: str, p_bits: int):
    """Read one file's key column, hash, split by hash top bits → P arrays."""
    tbl = pq.read_table(path, columns=[key])
    h = hash_strings64(np.asarray(tbl[key].to_pandas(), dtype=object))
    bucket = (h >> np.uint64(64 - p_bits)).astype(np.int64)
    parts = [h[bucket == p] for p in range(1 << p_bits)]
    return tuple(parts)


@ray.remote
def _reduce_find_dups(*parts: np.ndarray) -> np.ndarray:
    """One hash range: concatenate partials, return hashes with count > 1."""
    if not parts:
        return np.empty(0, dtype=np.uint64)
    allh = np.concatenate(parts)
    vals, counts = np.unique(allh, return_counts=True)
    return vals[counts > 1]


@ray.remote
def _map_collect_candidates(path: str, key: str, cand_ref) -> list:
    """Re-read urls, return those whose hash is in the candidate set."""
    cands = cand_ref
    tbl = pq.read_table(path, columns=[key])
    vals = np.asarray(tbl[key].to_pandas(), dtype=object)
    h = hash_strings64(vals)
    mask = np.isin(h, cands)
    return vals[mask].tolist()


def find_duplicate_urls(paths: list[str] | str, key: str = "url",
                        p_bits: int | None = None) -> pa.Table:
    """Return an Arrow table (url, count) for every url appearing > 1 time."""
    if isinstance(paths, str):
        paths = [paths]
    if p_bits is None:
        # P ≈ cluster cores, capped; each reducer holds ~n/P 8-byte hashes
        cpus = int(ray.cluster_resources().get("CPU", 8))
        p_bits = max(2, min(6, int(np.log2(max(2, cpus)))))
    P = 1 << p_bits

    # phase 1+2+3: hash exchange → candidate hashes
    per_file = [
        _map_hash_partition.options(num_returns=P).remote(f, key, p_bits)
        for f in paths
    ]
    if P == 1:  # num_returns=1 returns the bare tuple ref
        per_file = [[r] for r in per_file]
    cand_refs = [
        _reduce_find_dups.remote(*[refs[p] for refs in per_file])
        for p in range(P)
    ]
    cand = np.concatenate(ray.get(cand_refs))
    if cand.size == 0:
        return pa.table({key: pa.array([], pa.string()),
                         "count": pa.array([], pa.int64())})

    # phase 4: exact verify on the (tiny) candidate set
    cand_ref = ray.put(np.sort(cand))
    survivors = ray.get([
        _map_collect_candidates.remote(f, key, cand_ref) for f in paths
    ])
    flat = [u for part in survivors for u in part]
    vc = pd.Series(flat, dtype=object).value_counts()
    vc = vc[vc > 1]
    return pa.table({key: pa.array(vc.index.astype(str), pa.string()),
                     "count": pa.array(vc.to_numpy(), pa.int64())})


# ---------------------------------------------------------------------------
# Fused C1 feed: the row-phase scan tasks already hold every url column —
# they push pre-aggregated (hash, count) partials straight into a small ring
# of collector actors, deleting the standalone hash pass over parquet
# (BASELINE.md measured that second url read at ~1-1.5 s concurrent / ~3.5%
# of row-phase CPU at sf0.1; at 100 TB it is a full extra column scan).
# ---------------------------------------------------------------------------


@ray.remote(num_cpus=0)
class C1Collector:
    """Accumulates per-scan-item (hash, count) partials for one DISJOINT
    url-hash top-bit range (``split_by_range``), so each collector decides
    duplicates LOCALLY — there is no cross-collector reduce stage, and the
    drain is one small RPC per collector.

    Two feeds land here. Live scan tasks ``add`` each item's partial;
    committed partitions of a resume are loaded by ONE ``load_sidecars``
    call per collector, which ``np.load``s every committed sidecar and keeps
    its own range — no feed task, no per-sidecar RPC, no object-store puts.
    Both are IDEMPOTENT by item key: Ray Data lineage retries and the
    speculative re-issue path (validate.py) can legally deliver the same
    scan item twice; only the first arrival of a key lands. ``num_cpus=0``
    so collectors never take scan slots.

    Partials are kept PER ITEM (not compacted across items): per-item
    hashes are already unique, and cross-item duplicate urls are rare by
    construction of a web corpus, so per-item storage costs the same
    ~16 B/row as a merged multiset — and the retained item attribution
    (``candidate_hits``) makes the exact verify's IO proportional to DUP
    INCIDENCE, not corpus size.
    """

    def __init__(self):
        self._seen: set = set()
        self._items: list = []  # (item_key, uint64 hashes, int64 counts)

    def reset(self) -> bool:
        """Clear state for pool reuse — actor process spawn costs ~2 s each
        (BASELINE.md), so validate runs recycle one session-lived pool
        instead of paying a cold-actor wave that the scan's first items
        block on."""
        self._seen.clear()
        self._items = []
        return True

    def add(self, item_key: str, hashes: np.ndarray, counts: np.ndarray) -> bool:
        if item_key in self._seen:
            return False
        self._seen.add(item_key)
        if len(hashes):
            self._items.append((item_key,
                                np.ascontiguousarray(hashes, np.uint64),
                                np.ascontiguousarray(counts, np.int64)))
        return True

    def load_sidecars(self, paths: list, j: int, n: int) -> int:
        """Add range ``j`` of ``n`` from each committed item sidecar (the
        ``.npz`` partials the original scan persisted, keyed by that scan's
        item key). Returns the number of items that landed."""
        added = 0
        for sp in paths:
            with np.load(sp) as d:
                hj, cj = split_by_range(d["h"].view(np.uint64),
                                        d["c"].astype(np.int64), n)[j]
                if len(hj):
                    added += self.add(str(d["item_key"]), hj, cj)
        return added

    def candidates(self) -> np.ndarray:
        """Hashes with a global count > 1 — exact within this collector's
        DISJOINT hash range, so no cross-collector reconciliation exists."""
        if not self._items:
            return np.empty(0, np.uint64)
        h = np.concatenate([h for _, h, _ in self._items])
        hu, inv = np.unique(h, return_inverse=True)
        cu = np.bincount(
            inv, weights=np.concatenate([c for _, _, c in self._items]))
        return hu[cu > 1.5]

    def candidate_hits(self, cand_sorted: np.ndarray) -> dict:
        """file -> the sorted candidate hashes its items hold in this
        collector's range (u64 collisions can only add a hash — harmless;
        the verify is exact on urls)."""
        if not self._items or not len(cand_sorted):
            return {}
        h = np.concatenate([h for _, h, _ in self._items])
        idx = np.searchsorted(cand_sorted, h)
        idx[idx == len(cand_sorted)] = 0
        at = np.flatnonzero(cand_sorted[idx] == h)
        ends = np.cumsum([len(hi) for _, hi, _ in self._items])
        hits: dict = {}
        for i, x in zip(np.searchsorted(ends, at, side="right").tolist(),
                        h[at].tolist()):
            hits.setdefault(_item_file(self._items[i][0]), set()).add(x)
        return {f: np.array(sorted(v), np.uint64) for f, v in hits.items()}


def _item_file(item_key: str) -> str:
    """Scan items key as '<path>:<lo>:<hi>'; resume feeds as 'file:<path>'."""
    if item_key.startswith("file:"):
        return item_key[5:]
    return item_key.rsplit(":", 2)[0]


def split_by_range(hashes: np.ndarray, counts: np.ndarray,
                   n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a SORTED unique-hash array (np.unique output) into ``n``
    top-bit ranges — two searchsorted cuts per range, zero boolean masks.
    ``n`` must be a power of two."""
    p_bits = int(np.log2(n))
    assert (1 << p_bits) == n, "collector pool size must be a power of two"
    if p_bits == 0:
        return [(hashes, counts)]
    edges = (np.arange(1, n, dtype=np.uint64)
             << np.uint64(64 - p_bits))
    cuts = [0, *np.searchsorted(hashes, edges).tolist(), len(hashes)]
    return [(hashes[a:b], counts[a:b]) for a, b in zip(cuts, cuts[1:])]


@ray.remote
def _feed_collector(path: str, key: str, collectors: list,
                    item_key: str) -> bool:
    """Resume path for a committed file WITHOUT a complete sidecar set (a
    pre-sidecar out dir, ``c1_sidecars=False``): one url-only read, still
    pre-aggregated and hash-range-routed."""
    tbl = pq.read_table(path, columns=[key])
    h = hash_strings64(np.asarray(tbl[key].to_pandas(), dtype=object))
    hu, cu = np.unique(h, return_counts=True)
    acks = [collectors[j].add.remote(item_key, hj, cj)
            for j, (hj, cj) in enumerate(
                split_by_range(hu, cu.astype(np.int64), len(collectors)))
            if len(hj)]
    return all(ray.get(acks)) if acks else True


_COLLECTOR_POOL: dict = {}  # n → session-lived list of collector handles


def make_collectors(n: int | None = None, reuse: bool = True) -> list:
    """A ring of collector actors sized to the cluster.

    ``reuse=True`` (default) recycles one session-lived pool per size after
    resetting its state: collectors are num_cpus=0 and hold no state between
    runs, while a fresh pool costs an actor-spawn wave (~2 s/actor) that the
    scan's first items would block on. A pool whose actors died with a
    previous Ray session is detected by the reset ping and rebuilt.
    Concurrent run_validation calls in one driver must pass reuse=False for
    all but one of them (per-item idempotence keys would collide)."""
    if n is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        # power of two ≤ cpus/4: collectors own disjoint hash-top-bit ranges
        n = 1 << max(1, min(3, int(np.log2(max(2, cpus // 4)))))
    elif n < 1 or (n & (n - 1)):
        # validate HERE, not as an AssertionError deep inside a remote scan
        # task: collectors own disjoint hash top-bit ranges, so the pool
        # size must be a power of two
        raise ValueError(
            f"collector pool size must be a power of two, got {n}")
    if reuse:
        pool = _COLLECTOR_POOL.get(n)
        if pool is not None:
            try:
                ray.get([c.reset.remote() for c in pool], timeout=10)
                return pool
            except Exception:
                pass  # dead pool (new ray session): rebuild below
        pool = [C1Collector.remote() for _ in range(n)]
        _COLLECTOR_POOL[n] = pool
        return pool
    return [C1Collector.remote() for _ in range(n)]


def collector_candidates(collectors: list) -> np.ndarray:
    """Candidate duplicate hashes: each collector owns a disjoint hash
    range, so the global candidate set is the plain union of the
    collectors' LOCAL count>1 sets — one small RPC per collector, no
    reduce stage (exactness restored by verify_candidates)."""
    return np.concatenate(
        ray.get([c.candidates.remote() for c in collectors]))


VERIFIED_SCHEMA = pa.schema([("pid", pa.int64()), ("h", pa.uint64()),
                             ("url", pa.string())])


def load_verified(path: str, keep=None) -> pa.Table:
    """The rows of ``verified.parquet`` (empty when absent). With ``keep``,
    the rows of other pids are first dropped from the file: callers do this
    before the scan, so a pid freed by a dropped partition (or a manifest
    deleted by hand) holds no rows when a new file reuses it and commits."""
    if not os.path.exists(path):
        return VERIFIED_SCHEMA.empty_table()
    tbl = pq.read_table(path, schema=VERIFIED_SCHEMA)
    if keep is not None:
        mask = pc.is_in(tbl["pid"], pa.array(sorted(keep), pa.int64()))
        if not pc.all(mask).as_py():
            tbl = tbl.filter(mask)
            save_verified(path, tbl)
    return tbl


def save_verified(path: str, tbl: pa.Table) -> None:
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


@ray.remote
def _collect_rows(paths: list, pids: list, key: str,
                  cand: np.ndarray) -> pa.Table:
    """Re-read a batch of files' url columns and keep the (pid, h, url) rows
    whose hash is a candidate — null urls included, so every candidate
    hash a file holds yields at least one row."""
    out = []
    for path, pid in zip(paths, pids):
        urls = pq.read_table(path, columns=[key])[key]
        h = hash_strings64(np.asarray(urls.to_pandas(), dtype=object))
        mask = np.isin(h, cand)
        out.append(pa.table({
            "pid": pa.array(np.full(int(mask.sum()), pid, np.int64)),
            "h": pa.array(h[mask]),
            "url": urls.filter(pa.array(mask)).cast(pa.string())},
            schema=VERIFIED_SCHEMA))
    return pa.concat_tables(out)


@ray.remote
def _count_urls(old: pa.Table, cached: list, gone: list, key: str,
                table_path: str | None, *fresh: pa.Table) -> pa.Table:
    """(url, count) for every url seen more than once among the cached
    files' rows of ``old`` and the fresh re-read rows; rewrites the table at
    ``table_path`` as ``old`` without the ``gone`` (re-read) pids plus the
    fresh rows. Runs as a task so the caller, busy merging stats, only
    waits."""
    def of(pids, keep=True):
        mask = pc.is_in(old["pid"], pa.array(pids, pa.int64()))
        return old.filter(mask if keep else pc.invert(mask))

    if table_path is not None and fresh:
        save_verified(table_path, pa.concat_tables([of(gone, False), *fresh]))
    # a cached file's rows for hashes that are no longer candidates need no
    # filter: such a hash occurs at most once in the corpus
    urls = pa.concat_tables([of(cached), *fresh])["url"]
    vc = pc.value_counts(pc.drop_null(urls))
    vc = vc.filter(pc.greater(vc.field("counts"), 1))
    return pa.table({key: vc.field("values").cast(pa.string()),
                     "count": vc.field("counts").cast(pa.int64())})


def verify_candidates(pid_of: dict, key: str, cand: np.ndarray,
                      collectors: list,
                      table: pa.Table | None = None,
                      table_path: str | None = None,
                      on_submitted=None
                      ) -> tuple[pa.Table, dict]:
    """Exact verify of candidate hashes: count the url strings of every row
    whose hash is a candidate (collapses u64 collisions) over the input
    files ``pid_of`` maps to their partition ids. Returns the (url, count)
    duplicates and the re-read/cached file counts.

    The collectors' per-item attribution restricts the work to files
    holding a candidate hash. ``table`` holds the rows of
    ``verified.parquet`` for the partitions committed before this run
    (``load_verified(path, keep)``): a file whose pid has rows there for
    all its needed hashes is served from them. The rest are re-read in at
    most ``num_cpus`` batched tasks, and the table at ``table_path`` is
    rewritten once with the fresh rows replacing those of the re-read pids.
    Exact because a committed file is unchanged (the resume contract) and
    its rows for a candidate hash were recorded in full when it was last
    verified. ``on_submitted()`` is called once only remote work is left,
    so a caller can overlap its own work with it."""
    counts = {"verify_reread_files": 0, "verify_cached_files": 0}
    if cand.size == 0:
        return pa.table({key: pa.array([], pa.string()),
                         "count": pa.array([], pa.int64())}), counts
    # the candidate set is small (dups are rare): it travels inline
    cand = np.sort(cand)
    norm = {os.path.normpath(p): p for p in pid_of}
    need: dict = {}
    for part in ray.get([c.candidate_hits.remote(cand) for c in collectors]):
        for f, h in part.items():
            p = norm.get(os.path.normpath(f))
            if p is not None:
                need[p] = h if p not in need else np.union1d(need[p], h)
    old = table if table is not None else VERIFIED_SCHEMA.empty_table()
    old_pid, old_h = old["pid"].to_numpy(), old["h"].to_numpy()
    cached, reread = [], []
    for p, h in sorted(need.items()):
        pid = pid_of[p]
        if np.isin(h, old_h[old_pid == pid]).all():
            cached.append(pid)
        else:
            reread.append(p)
    k = min(len(reread), max(1, int(ray.cluster_resources().get("CPU", 1))))
    fresh = [_collect_rows.remote(reread[i::k],
                                  [pid_of[p] for p in reread[i::k]],
                                  key, cand) for i in range(k)]
    dups = _count_urls.remote(old, cached, [pid_of[p] for p in reread], key,
                              table_path, *fresh)
    if on_submitted is not None:
        on_submitted()
    dups = ray.get(dups)
    counts.update(verify_reread_files=len(reread),
                  verify_cached_files=len(cached))
    return dups, counts


def duplicates_to_violations(dups: pa.Table, key: str = "url") -> pa.Table:
    urls = dups[key].to_pylist()
    counts = dups["count"].to_pylist()
    return make_violations(
        "c1_url_unique", urls, -1, "error", [f"count={c}" for c in counts]
    )
