"""Generic relational operators, Ray-Data-first.

These re-express the reference's join/aggregate shapes (SURVEY.md §2.4/§2.5)
as scale-conscious Ray Data primitives:

* **Broadcast joins** (J1/J2/J3/J6): the reference probes small in-memory
  dicts built before its main loop (``scripts/make_texts.py:150-271`` probed
  at ``:362-366, 419, 436``). Here the small side is shipped ONCE via
  ``ray.put`` and probed per batch with vectorized ``pc.index_in`` — never a
  shuffle, never re-serialized per batch.
* **One hash exchange** (A4 and every big join): ``hash_split`` cuts a
  block into key-hash ranges; ``hash_repartition_map``, ``map_groups``,
  ``exchange_join`` and ``skew_join`` send range p of every block to one
  task, and ``runs`` cuts a range's sorted runs of equal keys (nulls one
  key). ``skew_join`` shares ``exchange_join``'s split and per-range join
  task: its hot key hashes leave the ranges as one more part per block.
  ``partial_groupby_agg`` runs per-batch Arrow ``group_by`` partials and
  merges them with one Arrow ``group_by`` — in one task while the
  partials are small, else one task per hash range — so only (keys ×
  batches) partial rows move, never the fact table. At 10^12 rows this is
  the difference between shuffling terabytes and shuffling megabytes.
* **Distributed top-k** (O1): per-batch local top-k, then a global sort+limit
  over ≤ k×num_batches survivors.

Reference analogs cited per function; none of the reference's execution code
is reused (it is single-threaded lxml/rdflib, SURVEY.md §4).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

# ---------------------------------------------------------------------------
# broadcast joins
# ---------------------------------------------------------------------------


# Per-worker-process cache of prepared (key array, payload table) broadcast
# sides, keyed by ObjectRef hex — ray.get of a shared-memory Arrow table is
# zero-copy, but preparing (combine_chunks, rename) is done once per worker.
_BCAST_CACHE: dict = {}


def _prepared_side(ref, right_on: str, suffix: str):
    key = (ref.hex(), right_on, suffix)
    hit = _BCAST_CACHE.get(key)
    if hit is None:
        small: pa.Table = ray.get(ref)
        keys = small[right_on].combine_chunks()
        payload = small.drop_columns([right_on])
        if suffix:
            payload = payload.rename_columns(
                [c + suffix for c in payload.column_names])
        hit = (keys, payload)
        _BCAST_CACHE[key] = hit
    return hit


def broadcast_join(big: rd.Dataset, small: pa.Table, left_on: str, right_on: str,
                   how: str = "inner", suffix: str = "",
                   concurrency: int | None = None) -> rd.Dataset:
    """Join a big Dataset against a small Arrow table without a shuffle.

    Modes:
      * ``inner`` / ``left``: append the small side's payload columns
        (≙ enrichment join J6, ``scripts/enrich_person_indices.py:23-57``)
      * ``semi``: keep rows whose key exists in the small side
        (≙ existence probe J3, ``scripts/make_texts.py:363-366``)
      * ``anti``: keep rows whose key does NOT exist — referential-integrity
        check (J2, ``curation/check_authors_exist_in_listperson.py:21-25``)

    Runs as STATELESS tasks, not an actor pool: the probe holds no expensive
    state (the broadcast table lives in the object store, read zero-copy and
    prepared once per worker process via ``_BCAST_CACHE``), and task-based
    stages can't starve peer stages of CPU slots the way stacked actor pools
    do. The ``concurrency`` arg caps the stage's parallelism if given.
    """
    ref = ray.put(small)

    def probe(batch: pa.Table) -> pa.Table:
        keys, payload = _prepared_side(ref, right_on, suffix)
        idx = pc.index_in(batch[left_on], value_set=keys)
        if how == "semi":
            return batch.filter(pc.is_valid(idx))
        if how == "anti":
            return batch.filter(pc.is_null(idx))
        if how == "inner":
            mask = pc.is_valid(idx)
            batch = batch.filter(mask)
            idx = idx.filter(mask)
        out = batch
        for name in payload.column_names:
            out = out.append_column(name, pc.take(payload[name], idx))
        return out

    kwargs = dict(batch_format="pyarrow")
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    return big.map_batches(probe, **kwargs)


# ---------------------------------------------------------------------------
# hash exchange: one split, and the groupby built on it
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9)
_NULL_HASH = np.uint64(0x5851F42D4C957F2D)


def _key_hash(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Stable uint64 hash per row of one key column. Equal values hash
    equal across integer widths and across string/large_string: integers,
    booleans and temporals hash their int64 value (Fibonacci multiply, so
    the top bits are uniform), floats their float64 bits, strings and
    binaries go through ``hash_strings64``, any other type its string
    form. A null hashes to one fixed value taken from the validity mask,
    so a null never changes how the other rows of its block hash."""
    from .functions.hashing import hash_strings64  # noqa: circular-safe

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_boolean(t):
        col = col.cast(pa.int8())
    elif pa.types.is_temporal(t):
        col = col.view(pa.int64() if t.bit_width == 64 else pa.int32())
    if pa.types.is_integer(col.type):
        x = pc.fill_null(col, 0).to_numpy().astype(np.int64)
        h = x.view(np.uint64) * _GOLDEN
    elif pa.types.is_floating(t):
        # + 0.0 folds -0.0 into 0.0
        x = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy() + 0.0
        h = x.view(np.uint64) * _GOLDEN
    else:
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            col = col.cast(pa.string())
        h = hash_strings64(pc.fill_null(col, "").to_numpy(
            zero_copy_only=False))
    if col.null_count:
        h[~col.is_valid().to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def hash_split(tbl: pa.Table, keys: "str | list[str]", p_bits: int,
               hot: np.ndarray | None = None) -> tuple:
    """``tbl``'s rows cut into ``2**p_bits`` tables by the top ``p_bits``
    of one 64-bit hash of ``keys`` (a column name or several). Equal keys
    land in the same range from any block of any table whose key columns
    hold equal values; nulls are one key. With ``hot``, an array of such
    hashes, the rows whose hash is in it go to one more table at the
    end instead. One stable argsort by range and zero-copy slices, so rows
    keep their relative order in each range."""
    keys = [keys] if isinstance(keys, str) else keys
    n_out = (1 << p_bits) + (hot is not None)
    if n_out == 1 or tbl.num_rows == 0:
        return (tbl,) * n_out
    h = _key_hash(tbl[keys[0]])
    for k in keys[1:]:
        h = ((h ^ (h >> np.uint64(31))) * _MIX) ^ _key_hash(tbl[k])
    rng = ((h >> np.uint64(64 - p_bits)).astype(np.intp) if p_bits
           else np.zeros(len(h), np.intp))
    if hot is not None:
        rng[np.isin(h, hot)] = n_out - 1
    ends = np.cumsum(np.bincount(rng, minlength=n_out))
    tbl = tbl.take(np.argsort(rng, kind="stable"))
    return tuple(tbl.slice(e - n, n) for e, n in
                 zip(ends, np.diff(ends, prepend=0)))


@ray.remote
def _split(tbl, keys, p_bits: int, hot=None) -> tuple:
    if not isinstance(tbl, pa.Table):
        tbl = pa.Table.from_batches([tbl])
    return hash_split(tbl, keys, p_bits, hot)


def _split_refs(refs: list, keys, p_bits: int, hot=None) -> list:
    """One ``_split`` task per block ref: a list of ``2**p_bits`` range
    refs per block, and with ``hot`` its hot-row ref last."""
    n_out = (1 << p_bits) + (hot is not None)
    parts = [_split.options(num_returns=n_out).remote(r, keys, p_bits, hot)
             for r in refs]
    return [[p] for p in parts] if n_out == 1 else parts


def default_p_bits() -> int:
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(2, min(6, int(np.log2(max(2, cpus)))))


def hash_repartition_map(ds: rd.Dataset, key: "str | list[str]", fn,
                         p_bits: int | None = None,
                         schema: pa.Schema | None = None) -> rd.Dataset:
    """Hash-exchange on ``key`` (a column name or several) then apply
    ``fn`` ONCE per co-located partition.

    A raw-Ray two-phase exchange: one ``hash_split`` task per block moves
    each row to the partition owning its key's hash range — no sort, no
    per-group Python call. ``fn`` receives one Arrow table holding EVERY
    row of its keys and must itself be vectorized (``runs`` +
    segmented numpy / ``pa.Table.group_by``).

    ``fn`` is called only on a range that holds rows. An empty range, and
    an input with no blocks, yields ``schema.empty_table()``; with
    ``schema=None`` it yields a zero-row, zero-column block, which
    ``collect_tables`` and ``drop_empty_blocks`` drop.

    Partitioning assumption: one hash range fits a worker's heap; size
    ``p_bits`` to the cluster (default ≈ log2(cores), capped). Wall time is
    partition-count-parallel and group-count-independent.
    """
    if p_bits is None:
        p_bits = default_p_bits()
    empty = pa.table({}) if schema is None else schema.empty_table()

    @ray.remote
    def apply_fn(*parts):
        live = [p for p in parts if p.num_rows]
        return fn(pa.concat_tables(live)) if live else empty

    # materialized first: to_arrow_refs reads the schema after running the
    # input, which runs a lazy input a second time
    refs = ds.materialize().to_arrow_refs()
    if not refs:
        return rd.from_arrow(empty)
    per_block = _split_refs(refs, key, p_bits)
    return rd.from_arrow_refs([apply_fn.remote(*[b[p] for b in per_block])
                               for p in range(1 << p_bits)])


def _changes(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """``x[i + 1] != x[i]`` for each adjacent pair of rows of one column,
    with nulls as one key: fixed-width integer, boolean and temporal
    values compare with their validity mask, anything else compares
    dictionary codes (a float numpy view of an int column with nulls would
    split them on NaN)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_boolean(t):
        col = col.cast(pa.int8())
    elif pa.types.is_temporal(t) and t.bit_width in (32, 64):
        col = col.view(pa.int64() if t.bit_width == 64 else pa.int32())
    if not pa.types.is_integer(col.type):
        code = pc.fill_null(col.dictionary_encode().indices, -1).to_numpy()
        return code[1:] != code[:-1]
    v = pc.fill_null(col, 0).to_numpy()
    out = v[1:] != v[:-1]
    if col.null_count:
        ok = col.is_valid().to_numpy(zero_copy_only=False)
        out = (out & ok[1:] & ok[:-1]) | (ok[1:] != ok[:-1])
    return out


def runs(tbl: pa.Table, keys: "str | list[str]", order=()) -> tuple:
    """``tbl`` sorted by ``keys`` and then ``order``, and the row index at
    which each run of equal ``keys`` starts (an int64 array, empty for a
    zero-row table). Nulls sort last and are one key, as in SQL's
    ``PARTITION BY``/``GROUP BY``. An ``order`` entry is a column name
    (ascending) or a ``(name, "ascending" | "descending")`` pair. The sort
    is stable, so rows equal on every sort column keep their order."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    sort_keys = [(k, "ascending") for k in keys] + [
        (o, "ascending") if isinstance(o, str) else tuple(o) for o in order]
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=sort_keys))
    new = np.zeros(tbl.num_rows, bool)
    new[:1] = True
    for k in keys:
        new[1:] |= _changes(tbl[k])
    return tbl, np.flatnonzero(new)


def map_groups(ds: rd.Dataset, keys: "str | list[str]", fn) -> rd.Dataset:
    """``fn`` called once per group of ``keys`` with that group's rows as
    one Arrow table; the outputs concatenate. Runs on
    ``hash_repartition_map``: each range cuts its groups with ``runs``, so
    no Ray sort aggregate is involved. An empty range yields a zero-row,
    zero-column block and never calls ``fn``. Output rows come in range
    order, not key order."""

    def per_range(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, keys)
        ends = np.append(starts[1:], tbl.num_rows)
        return pa.concat_tables(
            [fn(tbl.slice(s, e - s)) for s, e in zip(starts, ends)],
            promote_options="permissive")

    return hash_repartition_map(ds, keys, per_range)


def _blocks(ds: rd.Dataset) -> list:
    """``(Arrow block ref, row count)`` for each block of ``ds``, run once;
    the counts come from the block metadata, so no block is read."""
    ds = ds.materialize()
    counts = [meta.num_rows for bundle in ds.iter_internal_ref_bundles()
              for _, meta in bundle.blocks]
    return list(zip(ds.to_arrow_refs(), counts))


_ARROW_OP = {"sum": "sum", "count": "count", "min": "min", "max": "max"}
# merge op applied to partials of each base op
_MERGE_OP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
# partial rows one merge task takes; above this they are hash-split first
_MERGE_ROWS = 1 << 20


@ray.remote
def _merge_partials(keys: list, specs: list, bases: list,
                    *parts) -> pa.Table:
    """Merge Arrow ``group_by`` partials into the final rows of ``specs``.
    A zero-row block whose map call was skipped has no columns; the result
    is typed whenever any block is."""
    names = [f"{c}_{o}" for c, o in bases]
    typed = [p for p in parts if {*keys, *names} <= set(p.column_names)]
    live = [p for p in typed if p.num_rows] or typed[:1]
    if not live:
        return pa.table({})
    tbl = pa.concat_tables(live, promote_options="permissive")
    merged = tbl.group_by(keys, use_threads=False).aggregate(
        [(n, _MERGE_OP[o]) for n, (_, o) in zip(names, bases)])

    def part(c: str, o: str):
        return merged[f"{c}_{o}_{_MERGE_OP[o]}"]

    out = {k: merged[k] for k in keys}
    for col, op, name in specs:
        out[name] = (pc.divide(pc.cast(part(col, "sum"), pa.float64()),
                               pc.cast(part(col, "count"), pa.float64()))
                     if op == "mean" else part(col, _ARROW_OP[op]))
    return pa.table(out)


def partial_groupby_agg(
    ds: rd.Dataset,
    keys: list[str],
    specs: list[tuple[str, str, str]],
    pre: "callable | None" = None,
) -> rd.Dataset:
    """``GROUP BY keys`` with aggregation pushed map-side.

    specs: (column, op, out_name) with op ∈ {sum, count, min, max, mean}.
    ``pre``: optional pa.Table → pa.Table projection applied per batch before
    aggregating (e.g. compute a revenue expression).

    Per batch, Arrow ``Table.group_by`` makes one partial row per distinct
    key (reference analog: global counters accumulated in one process,
    ``curation/check_fackel_references.py:32-37`` — here made
    distributive); this stage fuses into ``ds``'s pipeline and is
    materialized. Up to ``_MERGE_ROWS`` partial rows (read from the block
    metadata) merge in one Arrow ``group_by`` task; more are hash-split on
    the keys, one task per block, and merged by one task per range.
    Output rows are in no particular order, and float sums may differ in
    the last bits from run to run: partial blocks arrive in completion
    order.
    """
    bases = sorted({(c, o) for c, op, _ in specs
                    for o in (("sum", "count") if op == "mean"
                              else (_ARROW_OP[op],))})

    def make_partials(batch: pa.Table) -> pa.Table:
        if pre is not None:
            batch = pre(batch)
        return batch.group_by(keys, use_threads=False).aggregate(bases)

    blocks = _blocks(ds.map_batches(make_partials, batch_format="pyarrow"))
    refs = [r for r, n in blocks if n] or [r for r, _ in blocks]
    if sum(n for _, n in blocks) <= _MERGE_ROWS:
        out = [_merge_partials.remote(keys, specs, bases, *refs)]
    else:
        pb = default_p_bits()
        per_block = _split_refs(refs, keys, pb)
        out = [_merge_partials.remote(keys, specs, bases,
                                      *[b[p] for b in per_block])
               for p in range(1 << pb)]
    return rd.from_arrow_refs(out)


# ---------------------------------------------------------------------------
# distributed top-k (sort + limit with per-batch pruning)
# ---------------------------------------------------------------------------


def topk(ds: rd.Dataset, sort_keys: list[tuple[str, bool]], k: int) -> rd.Dataset:
    """Top-k by (col, descending) keys: local per-batch top-k, global sort+limit.

    Reference analog: sort-by-count-desc report ordering
    (``curation/check_fackel_references.py:33-35``) — distributive here so the
    global sort sees ≤ k rows per batch instead of the whole table.
    """
    names = [c for c, _ in sort_keys]
    orders = ["descending" if d else "ascending" for _, d in sort_keys]

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        idx = pc.sort_indices(
            batch, sort_keys=[(n, o) for n, o in zip(names, orders)])
        return batch.take(idx[:k])

    pruned = ds.map_batches(local_topk, batch_format="pyarrow")
    return pruned.sort(names, descending=[d for _, d in sort_keys]).limit(k)


# ---------------------------------------------------------------------------
# misc small helpers
# ---------------------------------------------------------------------------


def read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    """Column-pruned parquet read of one testdata table.

    An explicit metadata-free schema is passed: the testdata files carry a
    ``pandas`` schema-metadata blob that makes ``pa.Schema`` unhashable,
    which made every downstream schema-dedup log a
    "Failed to hash the schemas" warning per block."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/{table}.parquet"
    full = pq.read_schema(path).remove_metadata()
    schema = (pa.schema([full.field(c) for c in columns])
              if columns is not None else full)
    return rd.read_parquet(path, columns=columns, schema=schema)


def read_table(sf_dir: str, table: str, columns: list[str] | None = None) -> pa.Table:
    """Driver-side Arrow read of a SMALL dimension table."""
    import pyarrow.parquet as pq

    return pq.read_table(f"{sf_dir}/{table}.parquet", columns=columns)


def round_half_away(x: np.ndarray, nd: int) -> np.ndarray:
    """Round half away from zero (DuckDB ROUND semantics; np.round is banker's)."""
    p = 10.0 ** nd
    return np.sign(x) * np.floor(np.abs(x) * p + 0.5) / p


def round_cols(tbl: pa.Table, cols: dict[str, int]) -> pa.Table:
    """Round float columns half away from zero to the nearest double, as
    DuckDB's ROUND does; nulls stay null. Arrow's ``pc.round`` returns a
    value within an ULP of the rounding grid unchanged, so a float sum
    that merged in another order kept its last-bit drift
    (1509289948.6000001 where DuckDB gives 1509289948.6)."""
    for name, nd in cols.items():
        col = tbl[name]
        x = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy()
        tbl = tbl.set_column(
            tbl.column_names.index(name), name,
            pa.array(round_half_away(x, nd),
                     mask=col.is_null().to_numpy(zero_copy_only=False)))
    return tbl


_ARROW_JOIN_TYPE = {
    "inner": "inner", "left_outer": "left outer",
    "right_outer": "right outer", "full_outer": "full outer",
    "left_semi": "left semi", "left_anti": "left anti",
}


def exchange_join(left: rd.Dataset, right: rd.Dataset,
                  left_on: str, right_on: str, how: str = "inner",
                  p_bits: int | None = None,
                  coalesce_keys: bool = True,
                  bloom_reduce: bool = False,
                  bloom_fp: float = 0.01) -> rd.Dataset:
    """Distributed equi-join as a raw two-sided hash exchange + one local
    Arrow (Acero) hash join per partition.

    The big-to-big join operator (J2/J3 big side, q3/q5/q10 fact joins):
    both sides split by the same hash of their key, each of the P join
    tasks receives one disjoint hash range of BOTH sides and joins it with
    ``pa.Table.join`` — vectorized C++, no sort, no per-group Python.
    Measured 2.2× faster than ``Dataset.join`` at bench scale (same rows):
    the generic operator pays aggregator-actor spin-up and row
    re-blocking that a range-owned join task does not.

    ``how`` uses Dataset.join names (inner/left_outer/right_outer/
    full_outer/left_semi/left_anti). Output columns follow Arrow semantics:
    the right key column is coalesced into the left's unless
    ``coalesce_keys=False``. Null join keys: rows with null keys hash to a
    bucket but never match (Acero equi-join semantics), same as SQL.

    Partitioning assumption: one hash range of BOTH sides fits a join
    task's heap. Default ``p_bits`` scales with the DATA, not just the
    cluster: ≈ one partition per 256 MiB of joined input (metadata
    estimate), floored at log2(cores) and capped at 2^10 — a count tuned
    to one box is wrong both ways at 4N nodes. Skewed keys: a single
    pathological key lands in one task — ``skew_join`` broadcasts the hot
    keys instead.
    """
    # run each input once: the size, schema and block refs all read it
    left, right = left.materialize(), right.materialize()
    if p_bits is None:
        total = 0
        for ds in (left, right):
            try:
                total += ds.size_bytes() or 0
            except Exception:
                pass
        need = int(np.ceil(np.log2(max(1, total // (256 << 20)) + 1)))
        p_bits = min(10, max(default_p_bits(), need))
    spec = (left_on, right_on, _ARROW_JOIN_TYPE[how], coalesce_keys,
            left.schema().base_schema, right.schema().base_schema)
    lrefs = left.to_arrow_refs()
    rrefs = right.to_arrow_refs()
    if not lrefs and not rrefs:
        return rd.from_arrow(_join_parts(spec, 0))

    # --- Bloom semi-join reduction (optional) ----------------------------
    # Shrink the LEFT side's shuffle volume by a broadcast Bloom filter of
    # the right keys: a zero-false-negative pre-screen, so rows it drops
    # could never have matched. inner/left_semi: definite misses are
    # discarded pre-exchange. left_anti: definite misses ARE output rows
    # and bypass the join entirely. FPs (≤ bloom_fp) just ride the exchange
    # and resolve exactly in the Acero join — results are exact either way.
    # Worth it when join selectivity is low (most left rows miss); the
    # filter costs O(bits) broadcast vs O(dropped rows) shuffle saved.
    miss_refs: list = []
    if bloom_reduce and how in ("inner", "left_semi", "left_anti") and rrefs:
        from .sketches.bloom import BloomFilter

        @ray.remote
        def bloom_partial(tbl, n_bits: int, k: int) -> bytes:
            if not isinstance(tbl, pa.Table):
                tbl = pa.Table.from_batches([tbl])
            bf = BloomFilter(1, n_bits=n_bits, k=k)
            if tbl.num_rows:
                bf.add_hashes(_key_hash(tbl[right_on]))
            return bf.to_bytes()

        cap = max(64, right.count())  # from block metadata
        proto = BloomFilter(cap, fp_rate=bloom_fp)
        parts = ray.get([bloom_partial.remote(r, proto.n_bits, proto.k)
                         for r in rrefs])
        merged = BloomFilter.from_bytes(parts[0])
        for b in parts[1:]:
            merged = merged.merge(BloomFilter.from_bytes(b))
        bloom_ref = ray.put(merged.to_bytes())

        @ray.remote
        def prefilter(tbl, bloom_bytes):
            """(possibly-matching rows, definite-miss rows)."""
            if not isinstance(tbl, pa.Table):
                tbl = pa.Table.from_batches([tbl])
            if tbl.num_rows == 0:
                return tbl, tbl
            bf = BloomFilter.from_bytes(bloom_bytes)
            hit = pa.array(bf.contains_hashes(_key_hash(tbl[left_on])))
            return tbl.filter(hit), tbl.filter(pc.invert(hit))

        pre = [prefilter.options(num_returns=2).remote(r, bloom_ref)
               for r in lrefs]
        lrefs = [p[0] for p in pre]
        if how == "left_anti":
            miss_refs = [p[1] for p in pre]

    return rd.from_arrow_refs(_range_joins(spec, lrefs, rrefs, p_bits)
                              + miss_refs)


def _join_parts(spec: tuple, nl: int, *parts) -> pa.Table:
    """One join task's output: ``parts[:nl]`` of the left side joined to
    the rest, empty parts dropped and a side with none typed from its
    schema. ``spec`` is ``(left_on, right_on, Arrow join type,
    coalesce_keys, left schema, right schema)``."""
    left_on, right_on, how, coalesce_keys, l_schema, r_schema = spec
    lp = [p for p in parts[:nl] if p.num_rows]
    rp = [p for p in parts[nl:] if p.num_rows]
    lt = pa.concat_tables(lp) if lp else l_schema.empty_table()
    rt = pa.concat_tables(rp) if rp else r_schema.empty_table()
    return lt.join(rt, keys=[left_on], right_keys=[right_on], join_type=how,
                   coalesce_keys=coalesce_keys)


_join_range = ray.remote(_join_parts)


def _range_joins(spec: tuple, lrefs: list, rrefs: list, p_bits: int,
                 hot: np.ndarray | None = None) -> list:
    """One ``_join_range`` task per key-hash range of both sides' blocks.
    With ``hot`` (key hashes) the rows of those hashes leave the
    ranges: each left block's hot rows join every right block's hot rows
    in one task per left block."""
    P = 1 << p_bits
    lsp = _split_refs(lrefs, spec[0], p_bits, hot)
    rsp = _split_refs(rrefs, spec[1], p_bits, hot)
    out = [_join_range.remote(spec, len(lsp), *[b[p] for b in lsp],
                              *[b[p] for b in rsp]) for p in range(P)]
    if hot is not None:
        out += [_join_range.remote(spec, 1, b[P], *[r[P] for r in rsp])
                for b in lsp]
    return out


def topk_per_key(ds: rd.Dataset, key: str,
                 sort_keys: list[tuple[str, bool]], k: int) -> rd.Dataset:
    """Top-k rows per key (``k=1``: best-match resolution, J4 — one winning
    row per key, ≙ the staged match with tiebreaks of
    ``scripts/enrich_fackel_bibls.py:67-117``). Top-k per key is
    distributive, so each block first keeps its own top k per key; then
    one hash exchange moves only those rows, and each partition cuts again.
    A cut is ONE sort + a segmented vectorized rank (arange minus each
    key's first index) — no per-group Python, wall time independent of key
    count. Deterministic: ties broken by the sort_keys themselves (make
    them total)."""
    order = [(c, "descending" if d else "ascending") for c, d in sort_keys]

    def local(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, key, order)
        n = tbl.num_rows
        rank = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
        return tbl.filter(pa.array(rank < k))

    pruned = ds.map_batches(local, batch_format="pyarrow",
                            batch_size=None).materialize()
    return hash_repartition_map(pruned, key, local,
                                schema=pruned.schema().base_schema)


def drop_empty_blocks(ds: rd.Dataset) -> rd.Dataset | None:
    """Remove zero-row blocks (which carry NO schema: Ray skips map UDFs on
    empty blocks, so a filtered-to-empty block degrades to a column-less
    table that ``Dataset.join``'s hash partitioner cannot key). The row
    counts come from the block metadata: no block is read. Returns None
    when every block is empty (caller supplies the typed empty result)."""
    live = [r for r, n in _blocks(ds) if n]
    if not live:
        return None
    return rd.from_arrow_refs(live)


def asof_join(left: rd.Dataset, right: rd.Dataset, key: str,
              left_ts: str, right_ts: str, left_cols: list[str],
              right_cols: list[str],
              right_tiebreak: str | None = None,
              direction: str = "backward",
              right_key: str | None = None) -> rd.Dataset:
    """As-of join: for each left row, the latest right row of the same key
    with right_ts ≤ left_ts (``direction="backward"``), or the EARLIEST
    right row with right_ts ≥ left_ts (``direction="forward"``) — a custom
    operator Ray Data lacks; SURVEY.md §2 'custom operators' (no reference
    analog, J4's containment fallback is the closest shape).
    ``right_key`` names the right side's key column when it differs from
    the left's. Tiebreak among equal right timestamps: backward keeps the
    MAX ``right_tiebreak`` (last row in sort order), forward keeps the MIN
    (first row) — mirror the same in any SQL oracle.

    Plan: tag and union both sides (null-filled opposite columns), ONE hash
    exchange on the key co-locates each key's rows, then each partition runs
    a single vectorized ``pd.merge_asof(..., by=key)`` over its ts-sorted
    slice — one C call per PARTITION, never per key (a per-group Python
    ``map_groups`` melts down at user-scale key cardinality). Output columns
    are cast back to the DECLARED Arrow types: pandas upcasts nullable int64
    to float64 inside the merge, which round 1 shipped as the
    ``e_asof_last_order`` hash mismatch. Output: ``[key, left_ts] +
    left_cols + right_cols`` (right cols null when no right row precedes).
    Partitioning assumption: one hash range fits a worker; a single skewed
    key would need a ts-range sub-split.
    """
    import pandas as pd

    r_keep = list(dict.fromkeys(
        right_cols + ([right_tiebreak] if right_tiebreak
                      and right_tiebreak not in right_cols else [])))
    # run each input once: the schema probe and the exchange both read it
    left, right = left.materialize(), right.materialize()
    # union requires identical schemas: both sides carry the full column set,
    # null-filled for the columns the other side owns
    l_types = {f.name: f.type for f in left.schema().base_schema}
    r_types = {f.name: f.type for f in right.schema().base_schema}
    all_cols = ([(c, l_types[c], 0) for c in left_cols]
                + [(c, r_types[c], 1) for c in r_keep])
    out_schema = pa.schema(
        [(key, l_types[key]), (left_ts, l_types[left_ts])]
        + [(c, l_types[c]) for c in left_cols]
        + [(c, r_types[c]) for c in right_cols])

    def tag(side: int, ts_col: str, key_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {key: batch[key_col], "__ts": batch[ts_col]}
            for c, typ, owner in all_cols:
                cols[c] = batch[c] if owner == side else pa.nulls(n, typ)
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            return pa.table(cols)

        return fn

    lt = left.map_batches(tag(0, left_ts, key), batch_format="pyarrow")
    rt = right.map_batches(tag(1, right_ts, right_key or key),
                           batch_format="pyarrow")

    def merge_partition(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        lg = df[df["__side"] == 0].sort_values("__ts", kind="mergesort")
        # deterministic among equal right timestamps: backward ⇒ merge_asof
        # picks the LAST row ⇒ max tiebreak; forward ⇒ the FIRST ⇒ min
        r_sort = ["__ts"] + ([right_tiebreak] if right_tiebreak else [])
        rg = df[df["__side"] == 1].sort_values(r_sort, kind="mergesort")
        out = pd.merge_asof(
            lg[[key, "__ts"] + left_cols],
            rg[[key, "__ts"] + right_cols],
            on="__ts", by=key, direction=direction)
        out = out.rename(columns={"__ts": left_ts})
        # cast back to declared types (pandas float64-upcast + NaN → null)
        return pa.Table.from_arrays(
            [pa.Array.from_pandas(out[f.name], type=f.type)
             for f in out_schema], schema=out_schema)

    return hash_repartition_map(lt.union(rt), key, merge_partition,
                                schema=out_schema)


def nearest_join(left: rd.Dataset, right: rd.Dataset, key: str,
                 left_ts: str, right_ts: str, left_cols: list[str],
                 right_cols: list[str], right_id: str,
                 right_key: str | None = None) -> rd.Dataset:
    """Nearest-match temporal join: for each left row, the right row of the
    same key minimizing ``(|right_ts - left_ts|, right_ts, right_id)``
    lexicographically (ties → the EARLIER right row, then the smaller id) —
    the bidirectional sibling of :func:`asof_join`. Inner semantics: left
    rows whose key has no right rows are dropped.

    Plan: same union-tag + single hash exchange as ``asof_join``; each
    partition runs TWO vectorized ``pd.merge_asof`` passes (backward with
    the right side sorted ``(ts asc, id desc)`` so the backward candidate is
    the min-id row of the max qualifying ts; forward with ``(ts asc, id
    asc)``) and a vectorized per-row choose — never a per-key Python call,
    and never the quadratic key-cross-product a rank-over-all-pairs plan
    pays. The nearest row is always the backward or forward ts-neighbor, so
    two candidates suffice; on equal distance the backward one wins (earlier
    ts ⇒ lexicographic order above).

    Output: ``[key, left_ts] + left_cols + right_cols`` in source dtypes.
    Partitioning assumption: one key-hash range fits a worker (asof_join's).
    """
    import pandas as pd

    right_key = right_key or key  # the right side's key column name
    r_keep = list(dict.fromkeys(right_cols + [right_id]))
    # run each input once: the schema probe and the exchange both read it
    left, right = left.materialize(), right.materialize()
    l_types = {f.name: f.type for f in left.schema().base_schema}
    r_types = {f.name: f.type for f in right.schema().base_schema}
    all_cols = ([(c, l_types[c], 0) for c in left_cols]
                + [(c, r_types[c], 1) for c in r_keep])
    out_schema = pa.schema(
        [(key, l_types[key]), (left_ts, l_types[left_ts])]
        + [(c, l_types[c]) for c in left_cols]
        + [(c, r_types[c]) for c in right_cols])

    def tag(side: int, ts_col: str, key_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {key: batch[key_col], "__ts": batch[ts_col]}
            for c, typ, owner in all_cols:
                cols[c] = batch[c] if owner == side else pa.nulls(n, typ)
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            return pa.table(cols)

        return fn

    lt = left.map_batches(tag(0, left_ts, key), batch_format="pyarrow")
    rt = right.map_batches(tag(1, right_ts, right_key), batch_format="pyarrow")

    def merge_partition(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        lg = (df[df["__side"] == 0][[key, "__ts"] + left_cols]
              .sort_values("__ts", kind="mergesort"))
        rg = df[df["__side"] == 1][[key, "__ts"] + r_keep]
        if not len(lg) or not len(rg):
            return out_schema.empty_table()
        back = pd.merge_asof(
            lg, rg.sort_values(["__ts", right_id], ascending=[True, False],
                               kind="mergesort").rename(
                columns={"__ts": "__rts"}),
            left_on="__ts", right_on="__rts", by=key, direction="backward",
            suffixes=("", "__r"))
        fwd = pd.merge_asof(
            lg, rg.sort_values(["__ts", right_id], kind="mergesort").rename(
                columns={"__ts": "__rts"}),
            left_on="__ts", right_on="__rts", by=key, direction="forward",
            suffixes=("", "__r"))
        # vectorized choose: backward wins on smaller-or-EQUAL distance
        # (equal ⇒ earlier ts ⇒ lexicographic (|Δ|, ts, id) order)
        ts = lg["__ts"].to_numpy()
        bd = ts - back["__rts"].to_numpy()  # ≥ 0 or NaT
        fd = fwd["__rts"].to_numpy() - ts
        has_b, has_f = ~pd.isna(bd), ~pd.isna(fd)
        use_b = has_b & (~has_f | (bd <= fd))
        matched = has_b | has_f
        out_cols = {key: lg[key].to_numpy()[matched],
                    left_ts: ts[matched]}
        for c in left_cols:
            out_cols[c] = lg[c].to_numpy()[matched]
        for c in right_cols:
            cname = c if c in back.columns else f"{c}__r"
            out_cols[c] = np.where(use_b, back[cname].to_numpy(),
                                   fwd[cname].to_numpy())[matched]
        return pa.Table.from_arrays(
            [pa.Array.from_pandas(pd.Series(out_cols[f.name]), type=f.type)
             for f in out_schema], schema=out_schema)

    return hash_repartition_map(lt.union(rt), key, merge_partition,
                                schema=out_schema)


def interval_join(points: rd.Dataset, intervals: pa.Table, value_col: str,
                  lo_col: str = "lo", hi_col: str = "hi") -> rd.Dataset:
    """Range join: attach the interval [lo, hi) containing each point value
    (the 'range join' custom operator; reference analog: the containment
    fallback of the staged match, ``scripts/enrich_fackel_bibls.py:103-117``).

    The interval table is broadcast once; each batch probes with one
    ``np.searchsorted`` over the sorted interval bounds — O(log n_intervals)
    per row, no shuffle. Assumes non-overlapping, sorted intervals (the
    banding case); points outside every interval get null payload columns.
    """
    order = pc.sort_indices(intervals, sort_keys=[(lo_col, "ascending")])
    intervals = intervals.take(order)
    ref = ray.put(intervals)

    def probe(batch: pa.Table) -> pa.Table:
        iv: pa.Table = ray.get(ref)
        lo = np.asarray(iv[lo_col].to_pylist(), dtype=np.float64)
        hi = np.asarray(iv[hi_col].to_pylist(), dtype=np.float64)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.searchsorted(lo, v, side="right") - 1
        valid = (idx >= 0) & (v < hi[np.clip(idx, 0, len(hi) - 1)])
        idx_arr = pa.array(np.where(valid, idx, -1), pa.int64())
        take_idx = pc.if_else(pc.equal(idx_arr, -1),
                              pa.scalar(None, pa.int64()), idx_arr)
        out = batch
        for name in iv.column_names:
            if name in (lo_col, hi_col):
                continue
            out = out.append_column(name, pc.take(iv[name], take_idx))
        return out

    return points.map_batches(probe, batch_format="pyarrow")


def collect_tables(ds: rd.Dataset, schema: pa.Schema) -> pa.Table:
    """Materialize a SMALL Dataset as one Arrow table with a fixed schema.

    Empty blocks can pass through ``map_batches`` with their upstream schema
    (Ray skips the UDF for zero-row blocks) — they are dropped here, and the
    declared schema is returned even when every block is empty.
    """
    tables = []
    for t in ray.get(ds.to_arrow_refs()):
        if not isinstance(t, pa.Table):
            t = pa.Table.from_batches([t])
        if t.num_rows and set(schema.names) <= set(t.column_names):
            tables.append(t.select(schema.names).cast(schema))
    return pa.concat_tables(tables) if tables else schema.empty_table()


# ---------------------------------------------------------------------------
# skew-aware join (hot-key broadcast + cold-key exchange)
# ---------------------------------------------------------------------------


@ray.remote
def _hash_counts(tbl, key: str, m: int) -> tuple:
    """One block's heavy-hitter partial: its ``m`` most frequent key
    hashes, their counts, and the largest count left out."""
    h, c = np.unique(_key_hash(tbl[key]), return_counts=True)
    top = np.argsort(-c, kind="stable")
    return h[top[:m]], c[top[:m]], int(c[top[m]]) if len(top) > m else 0


def _hot_hashes(refs: list, key: str, thr: int, m: int = 256) -> np.ndarray:
    """The sorted key hashes of ``refs``' blocks that may occur ``thr`` times
    or more. One partial per block (O(m) per block whatever the key
    cardinality), merged on the driver: a hash's upper bound is its listed
    counts plus every block's left-out count, so detection is conservative
    and any possibly-hot hash counts as hot."""
    parts = ray.get([_hash_counts.remote(r, key, m) for r in refs])
    h, inv = np.unique(np.concatenate([p[0] for p in parts]),
                       return_inverse=True)
    hi = np.bincount(inv, weights=np.concatenate([p[1] for p in parts]))
    return h[hi + sum(p[2] for p in parts) >= thr]


def skew_join(left: rd.Dataset, right: rd.Dataset,
              left_on: str, right_on: str, how: str = "inner",
              hot_count: int | None = None,
              p_bits: int | None = None) -> rd.Dataset:
    """Equi-join that survives skewed keys: the hybrid broadcast/exchange
    plan (Spark AQE's skew-join treatment, done eagerly).

    A plain hash exchange sends EVERY row of a key to one partition — one
    pathological key (a bot host hammering one URL, a null-ish default id)
    turns a 256-node join into one straggler task. Here:

      1. ONE pass over the left side's blocks builds mergeable heavy-hitter
         partials of the key hash ``hash_split`` cuts on (constant bytes
         per block); hashes whose upper count bound ≥ ``hot_count``
         (default: 4× an average hash-range's share, i.e. keys that would
         dominate their partition) are *hot*.
      2. ``hash_split`` sends each block's rows of a hot hash to one extra
         part. The right side's hot parts are the broadcast slice
         (assumption, documented: the right side is per-key bounded —
         dimension-like — so |hot slice| ≈ |hot keys| × rows/key is small
         even when the LEFT side is pathological).
      3. Hot left rows join that slice **block-parallel** — every left
         block's hot part is its own join task, so the hot key's work
         spreads over the cluster instead of one partition.
      4. Cold rows of both sides go through ``exchange_join``'s
         disjoint-range join tasks; results union. Both sides split on the
         same hash, so hot and cold partition the key space and no row is
         produced twice; a 64-bit collision only moves a cold key to the
         (exact) hot path.

    Both sides are consumed exactly once (raw block refs, as
    ``exchange_join``). Supported ``how``: inner / left_outer / left_semi /
    left_anti (right/full outer would need right-unmatched tracking across
    the block-parallel hot tasks — use ``exchange_join`` for those).
    Reference analog: the reference's lookup joins never face skew
    (single process, toy scale) — this is the 100-TB capability its
    semantics demand (SURVEY.md §4 "Skew").
    """
    if how not in ("inner", "left_outer", "left_semi", "left_anti"):
        raise ValueError(f"skew_join does not support how={how!r}")
    # run each input once: the counts, schema and block refs all read it
    left, right = left.materialize(), right.materialize()
    if p_bits is None:
        p_bits = default_p_bits()
    lblocks = _blocks(left)
    lrefs = [r for r, _ in lblocks]
    rrefs = right.to_arrow_refs()
    live = [r for r, n in lblocks if n]
    thr = (hot_count if hot_count is not None
           else max(1024, 4 * sum(n for _, n in lblocks) >> p_bits))
    hot = _hot_hashes(live, left_on, thr) if live and rrefs else []
    if not len(hot):
        return exchange_join(left, right, left_on, right_on, how,
                             p_bits=p_bits)
    spec = (left_on, right_on, _ARROW_JOIN_TYPE[how], True,
            left.schema().base_schema, right.schema().base_schema)
    return rd.from_arrow_refs(_range_joins(spec, lrefs, rrefs, p_bits, hot))


def union_by_name(parts: "list[rd.Dataset]") -> rd.Dataset:
    """Schema-evolution union (UNION ALL BY NAME semantics).

    Aligns every input Dataset to the union of all schemas — column order is
    first-seen, a column missing from an input becomes typed nulls, and a
    column present with a different (castable) type is cast to the
    first-seen type — then streams a zero-shuffle ``Dataset.union``. This is
    the data-lake ingestion shape: snapshot files written before a column
    existed union with newer files that carry it, without rewriting either.

    Schema discovery reads only parquet/Dataset metadata (``ds.schema()``
    on a lazy read is a footer fetch, not an execution of the pipeline
    body); per-batch alignment is O(missing columns) null-array allocation.
    """
    schemas = []
    for p in parts:
        s = p.schema()
        schemas.append(getattr(s, "base_schema", None) or pa.schema(
            [pa.field(n, t) for n, t in zip(s.names, s.types)]))

    fields: list[pa.Field] = []
    seen: dict[str, pa.DataType] = {}
    for s in schemas:
        for f in s:
            if f.name not in seen:
                seen[f.name] = f.type
                fields.append(pa.field(f.name, f.type))
    target = pa.schema(fields)

    def aligner(batch: pa.Table) -> pa.Table:
        cols = []
        for f in target:
            if f.name in batch.column_names:
                col = batch[f.name]
                cols.append(col if col.type == f.type else col.cast(f.type))
            else:
                cols.append(pa.nulls(batch.num_rows, f.type))
        return pa.Table.from_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in cols], schema=target)

    aligned = [p.map_batches(aligner, batch_format="pyarrow")
               for p in parts]
    out = aligned[0]
    return out.union(*aligned[1:]) if len(aligned) > 1 else out
