"""C7 cross-document link integrity: dangling link-target detection.

Reference semantics: every ``@key``/``@ref`` pointer must resolve to an
existing record; missing targets are reported
(``curation/check_authors_exist_in_listperson.py:21-25``;
``scripts/make_texts.py:418-421`` "no uri for ref ... found"; cross-document
links ``make_texts.py:571-575``). The north-star names this check explicitly
("cross-document link integrity").

This is a BIG-to-BIG anti-join (links table vs pages table — neither side
broadcastable at 10^12 rows), expressed as a raw-Ray hash-membership
exchange, the same shape as the C1 uniqueness exchange:

  1. pages map tasks: url column → u64 hashes → partition by hash top bits
  2. reducers: per-bucket sorted unique hash array (the membership index)
  3. links map tasks: dst_url hashes, partitioned the same way, probed with
     ``np.searchsorted`` against their bucket's index → misses are dangling

A dst whose hash is ABSENT is exactly dangling (hashing is deterministic —
no false positives). A dangling dst whose hash COLLIDES with some existing
url's hash would be missed; expected misses ≈ n_links·n_urls/2^64 (≈10^-4
rows at 10^12×10^12 — negligible; a string-verify pass over absent-hash
candidates would make it exact if ever needed).

Partitioning assumption: one bucket's unique url hashes fit a reducer's heap
(8 bytes/url); size p_bits to the cluster as in C1.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..functions.hashing import hash_strings64


@ray.remote
def _map_hash_partition(path: str, key: str, p_bits: int):
    """Read one file's key column, hash, split by hash top bits → P arrays."""
    tbl = pq.read_table(path, columns=[key])
    h = hash_strings64(np.asarray(tbl[key].to_pandas(), dtype=object))
    bucket = (h >> np.uint64(64 - p_bits)).astype(np.int64)
    return tuple(h[bucket == p] for p in range(1 << p_bits))


@ray.remote
def _reduce_unique_sorted(*parts: np.ndarray) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


@ray.remote
def _probe_links(path: str, dst_col: str, p_bits: int, *indexes) -> pa.Table:
    """One links file: return rows whose dst hash is absent from the index.

    ``indexes`` arrive as plain arrays (varargs ObjectRefs are resolved by
    Ray before the task runs — zero-copy views of the reducer outputs).
    """
    tbl = pq.read_table(path)
    dsts = np.asarray(tbl[dst_col].to_pandas(), dtype=object)
    h = hash_strings64(dsts)
    bucket = (h >> np.uint64(64 - p_bits)).astype(np.int64)
    missing = np.zeros(len(h), dtype=bool)
    for p, index in enumerate(indexes):
        sel = bucket == p
        if not sel.any():
            continue
        if len(index) == 0:
            missing[sel] = True
            continue
        pos = np.clip(np.searchsorted(index, h[sel]), 0, len(index) - 1)
        missing[sel] = index[pos] != h[sel]
    return tbl.filter(pa.array(missing))


def find_dangling_links(pages_paths: list[str], links_paths: list[str],
                        url_col: str = "url", dst_col: str = "dst_url",
                        p_bits: int | None = None) -> pa.Table:
    """All link rows whose dst_url does not exist in the pages table."""
    if p_bits is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        p_bits = max(2, min(6, int(np.log2(max(2, cpus)))))
    P = 1 << p_bits

    per_file = [
        _map_hash_partition.options(num_returns=P).remote(f, url_col, p_bits)
        for f in pages_paths
    ]
    if P == 1:
        per_file = [[r] for r in per_file]
    index_refs = [
        _reduce_unique_sorted.remote(*[refs[p] for refs in per_file])
        for p in range(P)
    ]
    out = ray.get([
        _probe_links.remote(f, dst_col, p_bits, *index_refs)
        for f in links_paths
    ])
    return pa.concat_tables(out) if out else pa.table({})
