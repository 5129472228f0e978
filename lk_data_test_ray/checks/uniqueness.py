"""C1 global url uniqueness — the engine's one unavoidable all-to-all exchange.

Reference semantics: ``@xml:id`` is a primary key (``scripts/make_rdf.py:61-63``)
and duplicates are counted and reported (``curation/check_fackel_references.py:
32-37``).

Scale design (10^12 rows), implemented as a RAW-RAY hash exchange — the one
spot where the Dataset API is deliberately bypassed: a generic sort-based
``groupby`` shuffles and ORDERS the keys, but uniqueness needs only
hash-partitioned equality grouping; the exchange moves 8-byte hashes with no
sort and no block re-materialization.

  1. **Feed from the scan** — the row phase's scan tasks already hold every
     url column, so no separate url pass runs: each task hashes its item's
     urls once and persists the pre-aggregated ``(hash, count)`` partial as
     an item sidecar (``c1/item-*.npy``, 16 B per unique url). A resume
     reuses the committed partitions' sidecars; a file without a complete
     set gets one url-only read that writes a whole-file sidecar
     (``row.url_sidecar``).
  2. **Hash compaction** — urls → stable u64 hashes (vectorized SipHash);
     the exchange moves 8-byte ints, not ~70-byte strings (~10x volume cut).
     ``hash(url)`` is uniform, so no salting is needed for this key
     (SURVEY.md §4: skew lives in hosts, not hashes).
  3. **Partition by hash top bits** (``split_by_range``): at the scan's
     last arrival, when every sidecar exists, one plain task per DISJOINT
     top-bit range (``make_collectors``) is submitted; it runs while the
     calling process commits the last partitions. Each reads its range of every
     sidecar and finds counts > 1 with one ``np.unique`` — candidate hashes
     are a tiny set (dups are rare by construction of a web corpus). Each
     task also names the files holding its candidates. The candidate union
     and the verify wait for every partition commit. Nothing outlives the
     run, so concurrent runs share no state.
  4. **Verify exactly** — the url strings of candidate hashes are counted,
     which also collapses u64 hash collisions (expected ~n²/2⁶⁵ ≈ 3·10⁴
     false candidate pairs at 10^12 rows). The range tasks' attribution
     names the files holding each candidate, and
     ``verified.parquet`` (``(pid, h, url)``: every row of a committed file
     whose hash was a candidate when that file was last verified) serves
     the rows of a committed file whose needed hashes it already holds.
     Only this run's scanned files and old files holding a newly duplicated
     hash are re-read, in at most ``num_cpus`` batched tasks, so an
     incremental step pays for its new files, not the history.

Partitioning assumption: each of the n range tasks holds ~rows/n hashes in
memory (``make_collectors`` sizes n to the cluster).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.hashing import hash_strings64
from ..schema import make_violations
from .row import read_sidecar


def split_by_range(hashes: np.ndarray, counts: np.ndarray,
                   n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a SORTED unique-hash array (np.unique output) into ``n``
    top-bit ranges — two searchsorted cuts per range, zero boolean masks.
    ``n`` must be a power of two."""
    p_bits = int(np.log2(n))
    assert (1 << p_bits) == n, "range count must be a power of two"
    if p_bits == 0:
        return [(hashes, counts)]
    edges = (np.arange(1, n, dtype=np.uint64)
             << np.uint64(64 - p_bits))
    cuts = [0, *np.searchsorted(hashes, edges).tolist(), len(hashes)]
    return [(hashes[a:b], counts[a:b]) for a, b in zip(cuts, cuts[1:])]


@ray.remote
def _range_candidates(sidecars: list, j: int,
                      n: int) -> tuple[np.ndarray, dict]:
    """Range ``j`` of ``n`` over every ``(file, sidecar path)``: the sorted
    hashes with a global count > 1 (exact within this DISJOINT range, so
    no cross-range reconciliation exists), and file -> the sorted candidate
    hashes its sidecars hold (u64 collisions can only add a hash —
    harmless; the verify is exact on urls)."""
    files, hs, cs = [], [], []
    for f, sp in sidecars:
        h, c = split_by_range(*read_sidecar(sp), n)[j]
        if len(h):
            files.append(f)
            hs.append(h)
            cs.append(c)
    if not hs:
        return np.empty(0, np.uint64), {}
    h = np.concatenate(hs)
    hu, inv = np.unique(h, return_inverse=True)
    cand = hu[np.bincount(inv, weights=np.concatenate(cs)) > 1.5]
    if not cand.size:
        return cand, {}
    idx = np.searchsorted(cand, h)
    idx[idx == len(cand)] = 0
    at = np.flatnonzero(cand[idx] == h)
    ends = np.cumsum([len(x) for x in hs])
    hits: dict = {}
    for i, x in zip(np.searchsorted(ends, at, side="right").tolist(),
                    h[at].tolist()):
        hits.setdefault(files[i], set()).add(x)
    return cand, {f: np.array(sorted(v), np.uint64) for f, v in hits.items()}


def make_collectors(sidecars: list, n: int | None = None,
                    cpus: int | None = None) -> list:
    """Submit the C1 exchange over ``(file, sidecar path)`` pairs: one
    ``_range_candidates`` task per hash top-bit range, ``n`` of them (a
    power of two; default ≤ cluster CPUs / 4, clamped to [1, 8], with
    ``cpus`` the CPU count when the caller already knows it). Returns
    their refs for ``collector_candidates`` and ``verify_candidates``."""
    if n is None:
        if cpus is None:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        n = 1 << min(3, int(np.log2(max(1, cpus // 4))))
    elif n < 1 or (n & (n - 1)):
        raise ValueError(f"range count must be a power of two, got {n}")
    return [_range_candidates.remote(sidecars, j, n) for j in range(n)]


def collector_candidates(collectors: list) -> np.ndarray:
    """Candidate duplicate hashes: the ranges are disjoint, so the global
    candidate set is the plain union of the tasks' LOCAL count>1 sets — no
    reduce stage (exactness restored by verify_candidates)."""
    return np.concatenate([cand for cand, _ in ray.get(collectors)])


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
        urls = pq.ParquetFile(path).read(columns=[key])[key]
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
    fresh rows. Runs as a task, so the re-read rows never pass through the
    driver."""
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
                      cpus: int | None = None, meanwhile=None
                      ) -> tuple[pa.Table, dict]:
    """Exact verify of candidate hashes: count the url strings of every row
    whose hash is a candidate (collapses u64 collisions) over the input
    files ``pid_of`` maps to their partition ids. Returns the (url, count)
    duplicates and the re-read/cached file counts.

    The range tasks' (``collectors``) per-file attribution restricts the
    work to files holding a candidate hash. ``table`` holds the rows of
    ``verified.parquet`` for the partitions committed before this run
    (``load_verified(path, keep)``): a file whose pid has rows there for
    all its needed hashes is served from them. The rest are re-read in at
    most ``num_cpus`` batched tasks, and the table at ``table_path`` is
    rewritten once with the fresh rows replacing those of the re-read pids
    (``cpus``: the cluster's CPU count when the caller already knows it).
    ``meanwhile()``, when given, runs once on this thread while those tasks
    do (at once when there is nothing to verify). Exact because a committed
    file is unchanged (the resume contract) and its rows for a candidate
    hash were recorded in full when it was last verified."""
    counts = {"verify_reread_files": 0, "verify_cached_files": 0}
    if cand.size == 0:
        if meanwhile is not None:
            meanwhile()
        return pa.table({key: pa.array([], pa.string()),
                         "count": pa.array([], pa.int64())}), counts
    # the candidate set is small (dups are rare): it travels inline
    cand = np.sort(cand)
    need: dict = {}
    for _, hits in ray.get(collectors):
        for p, h in hits.items():
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
    if cpus is None:
        cpus = int(ray.cluster_resources().get("CPU", 1))
    k = min(len(reread), max(1, cpus))
    fresh = [_collect_rows.remote(reread[i::k],
                                  [pid_of[p] for p in reread[i::k]],
                                  key, cand) for i in range(k)]
    dups = _count_urls.remote(old, cached, [pid_of[p] for p in reread], key,
                              table_path, *fresh)
    if meanwhile is not None:
        meanwhile()
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
