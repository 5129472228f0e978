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
     urls once and persists them as an item sidecar
     (``c1/item-*.arrow``: ``h`` sorted ascending and ``url``, one row per
     input row, nulls included — 8 B plus the url bytes per row). Each
     partition manifest names its items, so a resume reuses exactly those
     sidecars; a partition missing one is dropped and re-scanned.
  2. **Hash compaction** — urls → stable u64 hashes (vectorized SipHash);
     the exchange moves 8-byte ints, not ~70-byte strings (~10x volume cut).
     ``hash(url)`` is uniform, so no salting is needed for this key
     (SURVEY.md §4: skew lives in hosts, not hashes).
  3. **Partition by hash top bits** (``split_by_range``): at the scan's
     last arrival, when every sidecar exists, one plain task per DISJOINT
     top-bit range (``make_collectors``) is submitted; it runs while the
     calling process commits the last partitions and merges the stats.
     Each memory-maps every sidecar, cuts its range of the sorted ``h``
     with ``searchsorted`` and finds counts > 1 — candidate hashes are a
     tiny set (dups are rare by construction of a web corpus). Nothing
     outlives the run, so concurrent runs share no state.
  4. **Verify exactly, in the same task** — the url strings of the
     candidate rows (one ``searchsorted`` per candidate and sidecar) are
     counted over non-null urls, which also collapses u64 hash collisions
     (expected ~n²/2⁶⁵ ≈ 3·10⁴ false candidate pairs at 10^12 rows). No
     input file is read after the scan and no verify table is kept: a
     committed file's sidecars hold its urls for as long as it stays
     committed.

Partitioning assumption: each of the n range tasks holds ~rows/n hashes in
memory (``make_collectors`` sizes n to the cluster).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..schema import make_violations
from .row import read_sidecar

_DUPS_SCHEMA = pa.schema([("url", pa.string()), ("count", pa.int64())])


def split_by_range(hashes: np.ndarray, n: int) -> list[slice]:
    """Cut a SORTED u64 hash array into ``n`` top-bit ranges: range ``j``
    is ``hashes[split_by_range(hashes, n)[j]]``. Two searchsorted cuts per
    range, zero boolean masks. ``n`` must be a power of two."""
    p_bits = int(np.log2(n))
    assert (1 << p_bits) == n, "range count must be a power of two"
    edges = np.arange(1, n, dtype=np.uint64) << np.uint64(64 - p_bits)
    cuts = [0, *np.searchsorted(hashes, edges).tolist(), len(hashes)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


@ray.remote
def _range_candidates(sidecars: list, j: int,
                      n: int) -> tuple[np.ndarray, pa.Table, list]:
    """Range ``j`` of ``n`` over every ``(file, sidecar path)``: the sorted
    hashes with a global count > 1 (exact within this DISJOINT range, so
    no cross-range reconciliation exists), the exact ``(url, count)``
    duplicates among those hashes' rows (null urls are not counted), and
    the files whose sidecars hold a candidate."""
    files, hs, urls = [], [], []
    for f, sp in sidecars:
        h, url = read_sidecar(sp)
        r = split_by_range(h, n)[j]
        if r.stop > r.start:
            files.append(f)
            hs.append(h[r])
            urls.append(url[r])
    h = np.sort(np.concatenate(hs)) if hs else np.empty(0, np.uint64)
    cand = np.unique(h[1:][h[1:] == h[:-1]])
    if not cand.size:
        return cand, _DUPS_SCHEMA.empty_table(), []
    held, rows = set(), []
    for f, hf, uf in zip(files, hs, urls):
        lo = np.searchsorted(hf, cand, "left")
        k = np.searchsorted(hf, cand, "right") - lo
        if k.any():
            held.add(f)
            # the rows of candidate i are hf[lo_i : lo_i + k_i]
            rows.append(uf.take(np.arange(k.sum()) + np.repeat(
                lo - np.cumsum(k) + k, k)))
    vc = pc.value_counts(pc.drop_null(pa.concat_arrays(rows)))
    vc = vc.filter(pc.greater(vc.field("counts"), 1))
    return cand, pa.table([vc.field("values"), vc.field("counts")],
                          schema=_DUPS_SCHEMA), sorted(held)


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
    reduce stage."""
    return np.concatenate([cand for cand, _, _ in ray.get(collectors)])


def verify_candidates(collectors: list, meanwhile=None
                      ) -> tuple[pa.Table, dict]:
    """The exact ``(url, count)`` duplicates the range tasks
    (``collectors``) verified, sorted by url, and ``{"verify_files": the
    number of files whose sidecars held a candidate hash}``.
    ``meanwhile()``, when given, runs once on this thread first, while the
    tasks may still run."""
    if meanwhile is not None:
        meanwhile()
    out = ray.get(collectors)
    dups = pa.concat_tables([d for _, d, _ in out]).sort_by("url")
    files = {f for _, _, held in out for f in held}
    return dups, {"verify_files": len(files)}


def duplicates_to_violations(dups: pa.Table, key: str = "url") -> pa.Table:
    urls = dups[key].to_pylist()
    counts = dups["count"].to_pylist()
    return make_violations(
        "c1_url_unique", urls, -1, "error", [f"count={c}" for c in counts]
    )
