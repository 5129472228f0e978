"""Fused parquet projection scan: apply a batch fn INSIDE the read task.

``ray.data.read_parquet(...).map_batches(fn)`` ships every selected column
through the object store between the read and the map. For wide binary
columns (html payloads) whose fn output is tiny (sniff partials, extracted
links, decode features), that transfer dominates the job. This helper plans
(file, row-group-range) scan items — the same shape as the validation row
phase (``checks/row.py:plan_scan_items``) — and reads + transforms inside ONE
task, so the heavy columns never leave the worker that read them. Only the
fn's output crosses the object store.

Reference analog: the reference holds each parsed XML file in the same
process that consumes it (``scripts/make_texts.py:283-289``); this is the
distributed equivalent of that locality.
"""

from __future__ import annotations

import glob
import os
from typing import Callable

import pyarrow as pa
import ray
import ray.data as rd

from ..checks.row import plan_scan_items


def _parquet_files(path: str) -> list[str]:
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    return files


def plan_pruned_items(files: list[str], column: str, lo, hi) -> \
        tuple[list[dict], int, int]:
    """Zone-map planning: (file, row-group range) items covering only row
    groups whose footer [min, max] statistics intersect ``[lo, hi]``.

    The 'prune at the read' step for range queries over key-clustered
    storage (a ts-sorted corpus, a key-sorted bucket): footers are KBs, so
    a 100 TB corpus plans from ~MBs of metadata and a selective range scan
    touches only the row groups that can match. Row groups without
    statistics are kept (can't prove them empty). Adjacent surviving row
    groups merge into one item. Returns (items, n_kept_rgs, n_total_rgs).
    """
    import pyarrow.parquet as pq

    items: list[dict] = []
    kept = total = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        names = {md.schema.column(i).name: i
                 for i in range(len(md.schema))}
        ci = names[column]
        run_start = None
        for rg in range(md.num_row_groups):
            total += 1
            st = md.row_group(rg).column(ci).statistics
            alive = (st is None or not st.has_min_max
                     or (st.max >= lo and st.min <= hi))
            if alive:
                kept += 1
                if run_start is None:
                    run_start = rg
            elif run_start is not None:
                items.append({"path": f, "rg_lo": run_start, "rg_hi": rg})
                run_start = None
        if run_start is not None:
            items.append({"path": f, "rg_lo": run_start,
                          "rg_hi": md.num_row_groups})
    return items, kept, total


def fused_parquet_map(path: str, fn: Callable[[pa.Table], pa.Table],
                      columns: list[str] | None = None,
                      target_rows: int | None = None,
                      concurrency=None) -> rd.Dataset:
    """Dataset of ``fn(row-group slab)`` outputs, read fused with transform.

    ``fn`` receives one pyarrow.Table per (file, row-group range) scan item
    (column-pruned to ``columns``) and must return a pyarrow.Table. Item
    sizing follows the cluster (total_rows / 4×CPUs, clamped [4k, 32k]) so
    the scan goes full-width; blocks are pre-put and handed over with
    ``from_arrow_refs`` so the scheduler sees all of them at t=0
    (``from_items`` mints its blocks serially through one producing task,
    measured at ~4.4 ms/block, a 20% serial fraction at 32 CPUs).
    """
    import pyarrow.parquet as pq

    files = _parquet_files(path)
    partition_of = {f: i for i, f in enumerate(files)}
    items = plan_scan_items(files, partition_of, target_rows=target_rows)

    ds = rd.from_arrow_refs([
        ray.put(pa.table({k: [it[k]] for k in ("path", "rg_lo", "rg_hi")}))
        for it in items])

    def scan(batch: pa.Table) -> pa.Table:
        out = []
        for p, lo, hi in zip(batch["path"].to_pylist(),
                             batch["rg_lo"].to_pylist(),
                             batch["rg_hi"].to_pylist()):
            pf = pq.ParquetFile(p)
            if hi > lo:
                tbl = pf.read_row_groups(list(range(lo, hi)), columns=columns)
            else:  # zero-row-group file: emit fn(empty) so schemas line up
                tbl = pf.schema_arrow.empty_table()
                if columns is not None:
                    tbl = tbl.select(columns)
            out.append(fn(tbl))
        return pa.concat_tables(out)

    kwargs: dict = dict(batch_format="pyarrow", batch_size=1)
    if concurrency is not None:
        kwargs["concurrency"] = (min(concurrency, len(items))
                                 if isinstance(concurrency, int)
                                 else concurrency)
    return ds.map_batches(scan, **kwargs)


def pruned_range_scan(path: str, column: str, lo, hi,
                      columns: list[str] | None = None) -> rd.Dataset:
    """Range scan with zone-map pushdown: plan only the row groups whose
    stats intersect [lo, hi] (``plan_pruned_items``), then filter exactly
    inside each read task. Result == a full scan + filter; IO is
    proportional to the matching key range when storage is clustered."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    files = _parquet_files(path)
    items, _, _ = plan_pruned_items(files, column, lo, hi)
    schema = pq.ParquetFile(files[0]).schema_arrow
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    if not items:
        return rd.from_arrow(schema.empty_table())

    def scan(batch: pa.Table) -> pa.Table:
        out = []
        for p, rlo, rhi in zip(batch["path"].to_pylist(),
                               batch["rg_lo"].to_pylist(),
                               batch["rg_hi"].to_pylist()):
            tbl = pq.ParquetFile(p).read_row_groups(
                list(range(rlo, rhi)), columns=columns)
            mask = pc.and_(pc.greater_equal(tbl[column], lo),
                           pc.less_equal(tbl[column], hi))
            out.append(tbl.filter(pc.fill_null(mask, False)))
        return pa.concat_tables(out)

    ds = rd.from_arrow_refs([
        ray.put(pa.table({k: [it[k]] for k in ("path", "rg_lo", "rg_hi")}))
        for it in items])
    return ds.map_batches(scan, batch_format="pyarrow", batch_size=1)
