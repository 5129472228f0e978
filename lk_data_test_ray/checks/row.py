"""The fused row-phase constraint checker (checks C0, C2, C3, C4, C6 + stats).

One plain Ray task per packed block of scan items (``scan_block``) evaluates
every per-row constraint in a single pass over zero-copy Arrow batches — the
reference evaluates its checks in separate whole-corpus scripts
(``curation/check_*.py``); fusing them avoids re-reading 100 TB once per check.

Each scan item yields one plain record: its violation columns (≙ the
reference's per-check failure prints, e.g. ``scripts/make_texts.py:421``) as
Python lists, and one dict of mergeable stats partials (HyperLogLog url/lang
cardinality, t-digest text-length quantiles, exact lang counts for the drift
check, warc_ts min/max, null counters). Partials are merged associatively on
the driver — no shuffle needed for any of these stats. One native pass over
the url column's Arrow buffers (``HyperLogLog.update_arrow``) gives both the
C1 sidecar's url hashes and the url HyperLogLog.

Stateful setup (vocab array, bounds parsing) happens once per worker process
(``RowChecker`` is cached per ``check_extract``), never per block.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.extract import (binary_views, c6_candidates,
                                 extract_core_bytes, extract_text_bytes)
from ..schema import PAGES_SCHEMA, VIOLATIONS_SCHEMA, WARC_TS_MAX, WARC_TS_MIN
from ..sketches import HyperLogLog, TDigest
from .vocab import ISO_639_1


def conforms(schema: pa.Schema) -> bool:
    """C0: ``schema`` has exactly ``PAGES_SCHEMA``'s column names, in order,
    and types."""
    return [f.name for f in schema] == [f.name for f in PAGES_SCHEMA] and all(
        schema.field(f.name).type.equals(f.type) for f in PAGES_SCHEMA)


class RowChecker:
    """The per-row checks of one scan item (``_process``); C3's vocabulary
    is ISO 639-1.

    Args:
        check_extract: run the (expensive) C6 extraction-equality check
    """

    def __init__(self, check_extract: bool = True):
        self.vocab_arr = pa.array(sorted(ISO_639_1))  # for vectorized is_in
        self.check_extract = check_extract
        self.ts_lo = np.datetime64(WARC_TS_MIN, "us")
        self.ts_hi = np.datetime64(WARC_TS_MAX, "us")

    def _process(self, batch: pa.Table, pid: int,
                 item: tuple | None = None,
                 url_hll: HyperLogLog | None = None) -> tuple[dict, dict]:
        """Check one scan item: ``(cols, stats)``, the violation columns of
        ``VIOLATIONS_SCHEMA`` as lists and the item's stats partial (with
        ``item`` set). ``url_hll``: the url column's HyperLogLog when the
        caller already built it (the fused C1 feed hashes the same column
        in the same pass), else built here."""
        cols = {f.name: [] for f in VIOLATIONS_SCHEMA}

        def emit(check_id, urls, severity, details):
            n = len(urls)
            if n == 0:
                return
            cols["check_id"].extend([check_id] * n)
            cols["url"].extend(urls)
            cols["partition_id"].extend([pid] * n)
            cols["severity"].extend([severity] * n)
            if isinstance(details, str):
                details = [details] * n
            cols["detail"].extend(details)

        def flagged_urls(mask: pa.Array) -> list:
            # convert ONLY flagged rows to python (violations are rare —
            # never materialize the whole url column for emission)
            return batch["url"].filter(mask).to_pylist()

        # --- C0 schema conformance ------------------------------------------
        if not conforms(batch.schema):
            emit("c0_schema", ["__schema__"], "fatal",
                 f"batch schema {batch.schema!s} != declared pages schema")
            # a C0-failed item still has a (merge-identity) stats partial
            stats = merge_stats([])
            stats["item"] = item
            return cols, stats

        url_col = batch["url"]
        text_col = batch["text"]
        lang_col = batch["lang"]
        html_null = pc.is_null(batch["html"])
        text_null = pc.is_null(text_col)
        text_len = pc.utf8_length(text_col)  # C2 and the length t-digest
        text_empty = pc.or_(
            text_null, pc.equal(pc.coalesce(text_len, pa.scalar(0)), 0))

        # --- C2 html↔text referential non-nullity ---------------------------
        c2 = pc.and_(pc.invert(html_null), text_empty)
        emit("c2_nonnull", flagged_urls(c2), "error",
             "html non-null but text null/empty")

        # --- C3 lang ∈ vocabulary (vectorized set probe) --------------------
        c3 = pc.coalesce(
            pc.invert(pc.is_in(lang_col, value_set=self.vocab_arr)),
            pa.scalar(True))  # null lang → violation
        emit("c3_lang_vocab", flagged_urls(c3), "error",
             [f"lang={v!r}" for v in lang_col.filter(c3).to_pylist()])

        # --- C4 warc_ts range -----------------------------------------------
        ts = batch["warc_ts"].to_numpy(zero_copy_only=False)  # datetime64[us], NaT for null
        ts_ok = (ts >= self.ts_lo) & (ts < self.ts_hi)  # NaT compares False
        c4 = pa.array(~ts_ok)
        emit("c4_ts_range", flagged_urls(c4), "error",
             [str(v) for v in ts[~ts_ok]])

        # --- C6 extraction determinism (byte-identical text per url) --------
        if self.check_extract:
            # the native scanner compares every row at scan speed and
            # returns only the rows whose text differs from the extraction
            # (without it: every row with html and text). Those rows re-check
            # here; a bytes mismatch re-checks via the decoded reference
            # (errors="replace" can normalize invalid utf-8 both sides).
            cand = c6_candidates(batch["html"], text_col)
            bad_urls = []
            if cand.size:
                views = binary_views(batch["html"], cand)
                t_views = binary_views(text_col, cand)
                # t.tobytes(): memoryview.__eq__ unpacks per element (slow);
                # bytes==bytes is a memcmp
                bad_urls = [
                    url_col[i].as_py()
                    for i, v, t in zip(cand.tolist(), views, t_views)
                    if extract_core_bytes(v) != t.tobytes()
                    and extract_text_bytes(v) != str(t, "utf-8", "replace")
                ]
            emit("c6_extract_match", bad_urls, "error",
                 "extract_text(html) != text")

        # --- stats partial ---------------------------------------------------
        if url_hll is None:
            url_hll = HyperLogLog(12)
            url_hll.update_arrow(url_col)
        langs = pc.value_counts(lang_col).flatten()
        lang_counts = {v: n for v, n in zip(langs[0].to_pylist(),
                                            langs[1].to_pylist())
                       if v is not None}
        hll_lang = HyperLogLog(12)
        hll_lang.update_arrow(pc.drop_null(langs[0]))
        td = TDigest()
        tl = text_len.to_numpy(zero_copy_only=False).astype(np.float64)
        nan = np.isnan(tl)
        td.update(tl[~nan] if nan.any() else tl)
        ts_valid = ts[~np.isnat(ts)]
        stats = {
            "n_rows": batch.num_rows,
            "hll_url": url_hll.to_bytes(),
            "hll_lang": hll_lang.to_bytes(),
            "tdigest_textlen": td.to_bytes(),
            "lang_counts": lang_counts,
            "html_null": int(pc.sum(html_null.cast(pa.int64())).as_py() or 0),
            "text_null": int(pc.sum(text_null.cast(pa.int64())).as_py() or 0),
            "ts_min": str(ts_valid.min()) if ts_valid.size else None,
            "ts_max": str(ts_valid.max()) if ts_valid.size else None,
            "item": item,  # the driver dedups arrivals by (pid, item)
        }
        return cols, stats


def plan_scan_items(files: list[str], partition_of: dict[str, int],
                    target_rows: int | None = 32_768,
                    cpus: int | None = None) -> list[dict]:
    """Split input files into (path, row-group range, pid) scan items.

    One item ≈ ``target_rows`` rows → enough tasks to saturate the cluster
    even when files ≫ cores are unavailable; parquet footers only are read
    here (driver-side, cheap). ``target_rows=None`` auto-sizes to
    ``total_rows / (4 × cluster CPUs)`` clamped to [4096, 32768]: ≥4 tasks
    per core for load balance at small volume, capped item size at large
    volume so per-task overhead stays <1% of task work. ``cpus`` is the
    cluster's CPU count when the caller already knows it (default: read
    from Ray, 8 if that fails).

    An item never spans files, so a file smaller than the target is an item
    of its own. Each item also carries ``block``: consecutive items share a
    block until it holds ``target_rows`` rows, and the row phase runs one
    task per block — so many small files cost tasks by their rows, not by
    their count. Items stay the unit of stats partials, sidecars,
    speculation and arrival dedup.
    """
    import pyarrow.parquet as pq

    # footer reads are tiny and, on a local disk, mostly CPU under the GIL:
    # a 16-thread pool over them measured slower than this loop at 4 and
    # at 2,560 files
    metas = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        metas.append((md.num_row_groups, md.num_rows))

    if target_rows is None:
        if cpus is None:
            try:
                cpus = int(ray.cluster_resources().get("CPU", 8))
            except Exception:
                cpus = 8
        total = sum(n for _, n in metas)
        target_rows = int(min(32_768, max(4096, total // max(1, 4 * cpus))))

    items, item_rows = [], []
    for f, (n_rg, n_rows) in zip(files, metas):
        if n_rg == 0:
            # a zero-row-group file still gets one (empty) scan item so its
            # partition emits stats, commits to the manifest, and resume
            # converges instead of leaving it 'todo' forever
            items.append({"path": f, "rg_lo": 0, "rg_hi": 0,
                          "pid": partition_of[f]})
            item_rows.append(0)
            continue
        rows_per_rg = max(1, n_rows // max(1, n_rg))
        step = max(1, target_rows // rows_per_rg)
        for lo in range(0, n_rg, step):
            hi = min(n_rg, lo + step)
            items.append({"path": f, "rg_lo": lo, "rg_hi": hi,
                          "pid": partition_of[f]})
            item_rows.append(n_rows * (hi - lo) // n_rg)
    block, filled = 0, 0
    for it, n in zip(items, item_rows):
        it["block"] = block
        filled += n
        if filled >= target_rows:
            block, filled = block + 1, 0
    return items


def sidecar_name(pid: int, lo: int, hi: int) -> str:
    """C1 sidecar filename for one scan item (stable across runs)."""
    return f"item-{pid:05d}-{lo:05d}-{hi:05d}.arrow"


def clean_name(pid: int, lo: int) -> str:
    """Clean-output filename of the scan item at row group ``lo``."""
    return f"clean-{pid:05d}-{lo:05d}.parquet"


_SIDECAR_SCHEMA = pa.schema([("h", pa.uint64()), ("url", pa.string())])


def write_sidecar(path: str, hashes: np.ndarray | None,
                  urls: pa.ChunkedArray | pa.Array | None) -> None:
    """Persist one item's C1 feed as an Arrow IPC file of one record batch:
    ``h`` (the url hashes, sorted ascending) and ``url`` (each row's url,
    nulls included), one row per input row — 8 B plus the url bytes per
    row. ``None`` for both (no url column) writes an empty feed, so every
    item a manifest names has its sidecar. Atomic, and a backup copy of the item
    rewrites the same rows (rows of one hash are interchangeable: the verify
    counts them, so their order does not matter)."""
    if hashes is None:
        hashes, urls = np.empty(0, np.uint64), pa.array([], pa.string())
    order = np.argsort(hashes)
    urls = urls.take(order)
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    batch = pa.record_batch([pa.array(hashes[order], pa.uint64()),
                             urls.cast(pa.string())], schema=_SIDECAR_SCHEMA)
    tmp = path + f".tmp{os.getpid()}"
    with pa.OSFile(tmp, "wb") as sink, \
            pa.ipc.new_file(sink, _SIDECAR_SCHEMA) as writer:
        writer.write_batch(batch)
    os.replace(tmp, path)


def read_sidecar(path: str) -> tuple[np.ndarray, pa.Array]:
    """(sorted u64 hashes, their urls) of one ``write_sidecar`` file,
    memory-mapped: only the pages a caller touches are read."""
    with pa.memory_map(path) as src:  # the batch keeps the mapping
        batch = pa.ipc.open_file(src).get_batch(0)
    return batch.column(0).to_numpy(), batch.column(1)


_CHECKERS: dict = {}  # check_extract -> this worker's RowChecker


@ray.remote
def scan_block(items: list[dict], check_extract: bool, clean_dir: str | None,
               c1_dir: str) -> list[tuple[int, dict, dict]]:
    """Fused read+check of one block of scan items (``plan_scan_items``):
    one ``(pid, cols, stats)`` record per item, in item order, as
    ``RowChecker._process`` returns them — plain lists and dicts, which Ray
    moves far cheaper than small Arrow tables.

    The heavy html/text columns NEVER enter the object store: each item
    reads its row-group range straight from parquet, and only violations +
    stats partials (a few KB) leave the task. The row phase runs a primary
    task per block and one-item backups of stragglers through this same
    function; both are safe to duplicate (see the writes below).
    """
    import pyarrow.parquet as pq

    rc = _CHECKERS.get(check_extract)
    if rc is None:
        rc = _CHECKERS[check_extract] = RowChecker(check_extract=check_extract)
    out = []
    for it in items:
        path, lo, hi, pid = it["path"], it["rg_lo"], it["rg_hi"], it["pid"]
        pf = pq.ParquetFile(path)
        if hi > lo:
            tbl = pf.read_row_groups(list(range(lo, hi)))
        else:  # zero-row-group file: empty table, real schema
            tbl = pf.schema_arrow.empty_table()
        # one native pass over the url column's buffers hashes it for the
        # C1 sidecar below and fills the url HyperLogLog
        urls = tbl["url"] if "url" in tbl.column_names else None
        hll = HyperLogLog(12)
        h = hll.update_arrow(urls) if urls is not None else None
        cols, stats = rc._process(tbl, pid, item=(lo, hi), url_hll=hll)
        out.append((pid, cols, stats))
        # the item's C1 feed, (hash, url) per row: the uniqueness range
        # tasks find and verify duplicates from these, never from the
        # input again, this run and every later resume
        write_sidecar(os.path.join(c1_dir, sidecar_name(pid, lo, hi)), h,
                      urls)
        if clean_dir is not None:
            # quarantine split (the training-data use of validation): rows
            # untouched by any row-phase violation stream straight to
            # partitioned clean output — resumable (keyed by (pid, rg
            # range)), atomic (tmp+rename; the tmp is per process, as a
            # backup copy of the item may write the same part at once),
            # written in the same task so heavy columns still never cross
            # the object store. A C0-failed item has no clean rows: its
            # part is empty, with the pages schema.
            if conforms(tbl.schema):
                bad_urls = pc.unique(pa.array(cols["url"], pa.string()))
                keep = pc.invert(pc.is_in(tbl["url"], value_set=bad_urls))
                clean = tbl.filter(pc.coalesce(keep, pa.scalar(True)))
            else:
                clean = PAGES_SCHEMA.empty_table()
            dst = os.path.join(clean_dir, clean_name(pid, lo))
            tmp = dst + f".tmp{os.getpid()}"
            pq.write_table(clean, tmp)
            os.replace(tmp, dst)
    return out


def merge_stats(partials: list[dict]) -> dict:
    """Associative merge of per-batch stats partials."""
    if not partials:
        # closed under merge: a zero-stats partition (e.g. one that failed C0
        # before any row stats were computed) must still merge cleanly
        return {"n_rows": 0, "lang_counts": {}, "html_null": 0, "text_null": 0,
                "ts_min": None, "ts_max": None,
                "hll_url": HyperLogLog(12).to_bytes(),
                "hll_lang": HyperLogLog(12).to_bytes(),
                "tdigest_textlen": TDigest().to_bytes(),
                "url_cardinality_est": 0.0,
                "lang_cardinality_est": 0.0, "textlen_quantiles": {}}
    # register-wise max is exact: one stacked max per sketch
    hll_u = HyperLogLog.merge_bytes([p["hll_url"] for p in partials])
    hll_l = HyperLogLog.merge_bytes([p["hll_lang"] for p in partials])
    # one-shot t-digest merge: concat all centroids, compress ONCE (a fold of
    # pairwise merges re-compressed per partial and dominated driver time)
    td = TDigest.merge_many(
        [TDigest.from_bytes(p["tdigest_textlen"]) for p in partials])
    lang_counts: dict = {}  # keys in first-seen order, as the pickles hold
    for p in partials:
        for k, v in p["lang_counts"].items():
            lang_counts[k] = lang_counts.get(k, 0) + v
    ts_min = [p["ts_min"] for p in partials if p["ts_min"] is not None]
    ts_max = [p["ts_max"] for p in partials if p["ts_max"] is not None]
    return {
        "n_rows": sum(p["n_rows"] for p in partials),
        "lang_counts": lang_counts,
        "html_null": sum(p["html_null"] for p in partials),
        "text_null": sum(p["text_null"] for p in partials),
        "ts_min": min(ts_min) if ts_min else None,
        "ts_max": max(ts_max) if ts_max else None,
        # merged sketch bytes keep the result itself re-mergeable (merge is
        # associative: batch → partition → global)
        "hll_url": hll_u.to_bytes(),
        "hll_lang": hll_l.to_bytes(),
        "tdigest_textlen": td.to_bytes(),
        "url_cardinality_est": hll_u.estimate(),
        "lang_cardinality_est": hll_l.estimate(),
        "textlen_quantiles": {str(q): td.quantile(q)
                              for q in (0.1, 0.5, 0.9, 0.99)},
    }
