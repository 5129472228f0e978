"""The fused row-phase constraint checker (checks C0, C2, C3, C4, C6 + stats).

One actor-pool ``map_batches`` stage evaluates every per-row constraint in a
single pass over zero-copy Arrow batches — the reference evaluates its checks
in separate whole-corpus scripts (``curation/check_*.py``); fusing them avoids
re-reading 100 TB once per check.

Output is a "combined" table: violation rows (≙ the reference's per-check
failure prints, e.g. ``scripts/make_texts.py:421``) plus exactly one
``__stats__`` row per batch carrying serialized mergeable sketch partials
(HyperLogLog url/lang cardinality, t-digest text-length quantiles, exact lang
counts for the drift check, warc_ts min/max, null counters). Partials are
merged associatively on the driver — no shuffle needed for any of these stats.

Stateful setup (vocab frozenset, compiled extraction regexes, bounds parsing)
happens once per actor in ``__init__``, never per batch.
"""

from __future__ import annotations

import json
import pickle
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.extract import (binary_views, c6_candidates,
                                 extract_core_bytes, extract_text_bytes)
from ..schema import PAGES_SCHEMA, VIOLATIONS_SCHEMA, WARC_TS_MAX, WARC_TS_MIN
from ..sketches import HyperLogLog, TDigest
from .vocab import ISO_639_1

COMBINED_SCHEMA = pa.schema(
    list(VIOLATIONS_SCHEMA)
    + [pa.field("kind", pa.string()), pa.field("blob", pa.binary())]
)

STATS_ROW_ID = "__stats__"


def _empty_cols():
    return {"check_id": [], "url": [], "partition_id": [], "severity": [], "detail": []}


class RowChecker:
    """Callable class for ``map_batches(RowChecker, concurrency=N, ...)``.

    Args (bound via fn_constructor_kwargs):
        partition_of: dict path -> partition_id (input carries a "path" column)
        vocab: language vocabulary (default ISO 639-1)
        check_extract: run the (expensive) C6 extraction-equality check
    """

    def __init__(self, partition_of: dict[str, int] | None = None,
                 vocab=None, check_extract: bool = True):
        self.partition_of = partition_of or {}
        self.vocab = frozenset(vocab) if vocab is not None else ISO_639_1
        self.vocab_arr = pa.array(sorted(self.vocab))  # for vectorized is_in
        self.check_extract = check_extract
        self.ts_lo = np.datetime64(WARC_TS_MIN, "us")
        self.ts_hi = np.datetime64(WARC_TS_MAX, "us")

    def __call__(self, batch: pa.Table) -> pa.Table:
        # a batch can bundle blocks from more than one input file — split by
        # path so violations/stats attribute to the right partition
        if "path" in batch.column_names:
            paths = pc.unique(batch["path"])
            if len(paths) > 1:
                pieces = []
                for p in paths:
                    sub = batch.filter(pc.equal(batch["path"], p))
                    pieces.append(self._process(
                        sub.drop_columns(["path"]),
                        self.partition_of.get(p.as_py(), -1)))
                return pa.concat_tables(pieces)
            pid = self.partition_of.get(paths[0].as_py(), -1)
            batch = batch.drop_columns(["path"])
        else:
            pid = -1
        return self._process(batch, pid)

    def _process(self, batch: pa.Table, pid: int,
                 item: tuple | None = None) -> pa.Table:
        cols = _empty_cols()
        self._item = item  # threaded into the stats partial for arrival dedup

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
        if [f.name for f in batch.schema] != [f.name for f in PAGES_SCHEMA] or any(
            not batch.schema.field(f.name).type.equals(f.type) for f in PAGES_SCHEMA
        ):
            emit("c0_schema", ["__schema__"], "fatal",
                 f"batch schema {batch.schema!s} != declared pages schema")
            # a C0-failed item still emits a (merge-identity) stats partial:
            # the consume loop counts stats rows to detect item arrival, so
            # every item must contribute exactly one
            stats = merge_stats([])
            stats["item"] = item
            return _finish(cols, pid, stats)

        url_col = batch["url"]
        text_col = batch["text"]
        lang_col = batch["lang"]
        html_null = pc.is_null(batch["html"])
        text_null = pc.is_null(text_col)
        text_empty = pc.or_(
            text_null,
            pc.equal(pc.coalesce(pc.utf8_length(text_col), pa.scalar(0)), 0))

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
        url_np = np.asarray(url_col.to_pandas(), dtype=object)
        hll_url = HyperLogLog(12)
        hll_url.update_strings(url_np)
        lang_vc = pc.value_counts(lang_col)
        lang_counts = {
            (lang_vc[i][0].as_py() or ""): lang_vc[i][1].as_py()
            for i in range(len(lang_vc))
            if lang_vc[i][0].as_py() is not None
        }
        hll_lang = HyperLogLog(12)
        hll_lang.update_strings(np.array(list(lang_counts), dtype=object))
        td = TDigest()
        tl = pc.utf8_length(text_col).to_numpy(zero_copy_only=False).astype(np.float64)
        nan = np.isnan(tl)
        td.update(tl[~nan] if nan.any() else tl)
        ts_valid = ts[~np.isnat(ts)]
        stats = {
            "n_rows": batch.num_rows,
            "hll_url": hll_url.to_bytes(),
            "hll_lang": hll_lang.to_bytes(),
            "tdigest_textlen": td.to_bytes(),
            "lang_counts": lang_counts,
            "html_null": int(pc.sum(html_null.cast(pa.int64())).as_py() or 0),
            "text_null": int(pc.sum(text_null.cast(pa.int64())).as_py() or 0),
            "ts_min": str(ts_valid.min()) if ts_valid.size else None,
            "ts_max": str(ts_valid.max()) if ts_valid.size else None,
            "item": getattr(self, "_item", None),
        }
        return _finish(cols, pid, stats)


def _finish(cols, pid: int, stats: dict | None) -> pa.Table:
    n_viol = len(cols["check_id"])
    kind = ["violation"] * n_viol
    blob: list = [None] * n_viol
    if stats is not None:
        cols["check_id"].append(STATS_ROW_ID)
        cols["url"].append("")
        cols["partition_id"].append(pid)
        cols["severity"].append("info")
        cols["detail"].append(json.dumps({"n_rows": stats["n_rows"]}))
        kind.append("stats")
        blob.append(pickle.dumps(stats, protocol=5))
    return pa.table(
        {
            "check_id": pa.array(cols["check_id"], pa.string()),
            "url": pa.array(cols["url"], pa.string()),
            "partition_id": pa.array(cols["partition_id"], pa.int32()),
            "severity": pa.array(cols["severity"], pa.string()),
            "detail": pa.array(cols["detail"], pa.string()),
            "kind": pa.array(kind, pa.string()),
            "blob": pa.array(blob, pa.binary()),
        },
        schema=COMBINED_SCHEMA,
    )


_FN_CACHE: dict = {}


def plan_scan_items(files: list[str], partition_of: dict[str, int],
                    target_rows: int | None = 32_768) -> list[dict]:
    """Split input files into (path, row-group range, pid) scan items.

    One item ≈ ``target_rows`` rows → enough tasks to saturate the cluster
    even when files ≫ cores are unavailable; parquet footers only are read
    here (driver-side, cheap). ``target_rows=None`` auto-sizes to
    ``total_rows / (4 × cluster CPUs)`` clamped to [4096, 32768]: ≥4 tasks
    per core for load balance at small volume, capped item size at large
    volume so per-task overhead stays <1% of task work.
    """
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    def _meta(f):
        md = pq.ParquetFile(f).metadata
        return md.num_row_groups, md.num_rows

    # footer reads are tiny but serial I/O latency adds up at many files —
    # overlap them (order preserved: executor.map yields in input order)
    with ThreadPoolExecutor(max_workers=16) as ex:
        metas = list(ex.map(_meta, files))

    if target_rows is None:
        import ray

        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        total = sum(n for _, n in metas)
        target_rows = int(min(32_768, max(4096, total // max(1, 4 * cpus))))

    items = []
    for f, (n_rg, n_rows) in zip(files, metas):
        if n_rg == 0:
            # a zero-row-group file still gets one (empty) scan item so its
            # partition emits stats, commits to the manifest, and resume
            # converges instead of leaving it 'todo' forever
            items.append({"path": f, "rg_lo": 0, "rg_hi": 0,
                          "pid": partition_of[f]})
            continue
        rows_per_rg = max(1, n_rows // max(1, n_rg))
        step = max(1, target_rows // rows_per_rg)
        for lo in range(0, n_rg, step):
            items.append({"path": f, "rg_lo": lo,
                          "rg_hi": min(n_rg, lo + step),
                          "pid": partition_of[f]})
    return items


class ScanCheckActor:
    """Actor-pool form of the fused scan+check stage.

    Use when the per-actor state is genuinely heavy (a model scorer, a large
    compiled automaton): ``__init__`` runs once per actor, ``__call__`` per
    scan-item batch. For the built-in constraint suite the state is a vocab
    array, so the stateless-task form (``make_scan_check_fn``) is the default
    — it reuses warm worker processes instead of paying pool-size × process
    spawn per execution (measured ~2s/actor in BASELINE.md).
    """

    def __init__(self, check_extract: bool = True, vocab=None,
                 clean_dir: str | None = None,
                 c1_collectors: list | None = None,
                 c1_sidecar_dir: str | None = None):
        self._fn = make_scan_check_fn(check_extract=check_extract,
                                      vocab=vocab, clean_dir=clean_dir,
                                      c1_collectors=c1_collectors,
                                      c1_sidecar_dir=c1_sidecar_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self._fn(batch)


def sidecar_name(pid: int, lo: int, hi: int) -> str:
    """C1 hash-sidecar filename for one scan item (stable across runs)."""
    return f"item-{pid:05d}-{lo:05d}-{hi:05d}.npz"


_SIDECAR = re.compile(r"item-(\d+)-\d+-\d+\.npz")


def sidecars_by_pid(c1_dir: str) -> dict[int, list[str]]:
    """pid -> the item sidecar paths in ``c1_dir``, from ONE listing."""
    import os

    out: dict[int, list[str]] = {}
    for name in (os.listdir(c1_dir) if os.path.isdir(c1_dir) else []):
        m = _SIDECAR.fullmatch(name)
        if m:
            out.setdefault(int(m.group(1)), []).append(
                os.path.join(c1_dir, name))
    return out


def committed_sidecars(c1_dir: str, pid: int, path: str,
                       listed: dict | None = None) -> list | None:
    """The sidecar set that fully covers a committed partition, discovered
    from what the original scan actually wrote (``listed``, the
    ``sidecars_by_pid`` listing, or a fresh one) — never by re-deriving the
    item split (the live scan auto-sizes its items to the todo set, so a
    re-plan over one file routinely disagrees with the names on disk and
    would silently defeat the sidecar fast path). Returns the chosen files
    only when their (rg_lo, rg_hi) ranges tile ``[0, n_row_groups)``
    exactly (greedy max-hi walk, so sidecars from runs with different
    splits may mix — any exact tiling of correct per-item partials is
    correct); None → caller falls back to the url-column parquet read."""
    import os

    import pyarrow.parquet as pq

    if listed is None:
        listed = sidecars_by_pid(c1_dir)
    cands = listed.get(pid)
    if not cands:
        return None
    by_lo: dict[int, tuple[int, str]] = {}
    for c in cands:
        _, _, lo_s, hi_s = os.path.basename(c)[:-4].split("-")
        lo, hi = int(lo_s), int(hi_s)
        if lo not in by_lo or hi > by_lo[lo][0]:
            by_lo[lo] = (hi, c)
    try:
        n_rg = pq.ParquetFile(path).metadata.num_row_groups
    except Exception:
        return None
    cur, chosen = 0, []
    while cur < n_rg:
        nxt = by_lo.get(cur)
        if nxt is None or nxt[0] <= cur:
            return None
        cur = nxt[0]
        chosen.append(nxt[1])
    if n_rg == 0:
        # zero-row-group files plan one empty (0, 0) item
        empty = by_lo.get(0)
        if empty is None or empty[0] != 0:
            return None
        chosen = [empty[1]]
    return chosen


def make_scan_check_fn(check_extract: bool = True, vocab=None,
                       clean_dir: str | None = None,
                       c1_collectors: list | None = None,
                       c1_sidecar_dir: str | None = None):
    """Fused read+check stage over a Dataset of scan items.

    The heavy html/text blocks NEVER enter the object store: each task reads
    its row-group range directly from parquet and emits only violations +
    stats partials (a few KB). Versus read_parquet → map_batches this removes
    the full materialization of ~100 TB of blocks into plasma — the single
    biggest data-movement saving available to this job — while Ray Data still
    provides streaming, backpressure and lineage retries over the item list.
    (Also: ``include_paths=True`` attribution builds a per-row path string
    column, measured at ~10s per 2.4M rows — item-level ``pid`` is free.)

    Runs as stateless tasks with a per-worker cached RowChecker: an actor
    pool would pay pool-size × process-spawn per wave for state that is just
    a vocab array.
    """

    # cache key carries the vocab identity: a later run with a custom vocab
    # in the same worker process must not silently reuse the previous one
    vocab_key = None if vocab is None else frozenset(vocab)

    def scan_check(batch: pa.Table) -> pa.Table:
        import os
    
        import pyarrow.parquet as pq
        import ray as _ray

        key = ("scan", check_extract, vocab_key)
        rc = _FN_CACHE.get(key)
        if rc is None:
            rc = RowChecker(vocab=vocab, check_extract=check_extract)
            _FN_CACHE[key] = rc
        out = []
        c1_acks = []
        for path, lo, hi, pid in zip(batch["path"].to_pylist(),
                                     batch["rg_lo"].to_pylist(),
                                     batch["rg_hi"].to_pylist(),
                                     batch["pid"].to_pylist()):
            pf = pq.ParquetFile(path)
            if hi > lo:
                tbl = pf.read_row_groups(list(range(lo, hi)))
            else:  # zero-row-group file: empty table, real schema
                tbl = pf.schema_arrow.empty_table()
            combined = rc._process(tbl, pid, item=(lo, hi))
            out.append(combined)
            if c1_collectors is not None and "url" in tbl.column_names:
                # fused C1 feed: this task already holds the url column —
                # push pre-aggregated (hash, count) partials to the
                # collectors instead of a second parquet pass over the
                # corpus. Partials are routed by URL-HASH TOP BITS, so each
                # collector owns a DISJOINT hash range and can decide
                # duplicates locally — no cross-collector reduce exists.
                # The item key makes every slice idempotent (a lineage
                # retry or speculative duplicate re-sends the same slices
                # to the same collectors, which drop the repeats).
                from ..functions.hashing import hash_strings64
                from .uniqueness import split_by_range

                item_key = f"{path}:{lo}:{hi}"
                h = hash_strings64(np.asarray(
                    tbl["url"].to_pandas(), dtype=object))
                hu, cu = np.unique(h, return_counts=True)
                for j, (hj, cj) in enumerate(
                        split_by_range(hu, cu, len(c1_collectors))):
                    if len(hj):
                        c1_acks.append(c1_collectors[j].add.remote(
                            item_key, hj, cj))
                if c1_sidecar_dir is not None:
                    # persist this item's hash partial (16 B/row) so an
                    # INCREMENTAL run feeds committed partitions from
                    # sidecars instead of re-reading + re-hashing their url
                    # columns (atomic + idempotent: speculative duplicates
                    # rewrite identical bytes under the same name)
                    sp = os.path.join(
                        c1_sidecar_dir,
                        sidecar_name(pid, lo, hi))
                    tmp_sp = sp + f".tmp{os.getpid()}"
                    np.savez(tmp_sp, h=hu.view(np.int64), c=cu,
                             item_key=np.array(item_key))
                    os.replace(tmp_sp + ".npz", sp)
            if clean_dir is not None:
                # quarantine split (the training-data use of validation):
                # rows untouched by any row-phase violation stream straight
                # to partitioned clean output — resumable (keyed by
                # (pid, rg range)), atomic (tmp+rename), written in the same
                # task so heavy columns still never cross the object store
                viol = combined.filter(
                    pc.equal(combined["kind"], "violation"))
                bad_urls = pc.unique(viol["url"])
                keep = pc.invert(pc.is_in(tbl["url"], value_set=bad_urls))
                clean = tbl.filter(pc.coalesce(keep, pa.scalar(True)))
                dst = os.path.join(clean_dir,
                                   f"clean-{pid:05d}-{lo:05d}.parquet")
                pq.write_table(clean, dst + ".tmp")
                os.replace(dst + ".tmp", dst)
        if c1_acks:
            # block on the acks so a returned task implies its hashes are
            # DURABLY held by the collector (an in-flight add from a dead
            # worker would silently drop urls from the uniqueness check);
            # adds are O(1) appends, so this await is sub-ms and fully
            # overlapped with the per-item check work above
            _ray.get(c1_acks)
        return pa.concat_tables(out) if out else COMBINED_SCHEMA.empty_table()

    return scan_check


def split_items(tbl: pa.Table) -> list[pa.Table]:
    """Split a combined output table into per-item slices.

    ``make_scan_check_fn`` emits each scan item as (violations..., stats)
    in order, and every item contributes exactly ONE stats row — so slicing
    at stats-row positions recovers the per-item tables regardless of how
    the executor bundles task outputs. The consume loop needs item
    granularity to deduplicate arrivals (speculative re-issue and lineage
    retries can deliver the same item twice)."""
    if tbl.num_rows == 0:
        return []
    is_stats = pc.equal(tbl["kind"], "stats").to_numpy(zero_copy_only=False)
    ends = np.flatnonzero(is_stats)
    out, start = [], 0
    for e in ends:
        out.append(tbl.slice(start, int(e) + 1 - start))
        start = int(e) + 1
    if start < tbl.num_rows:  # defensive: a trailing stats-less segment
        out.append(tbl.slice(start))
    return out


def split_combined(tables: list[pa.Table]) -> tuple[pa.Table, list[tuple[int, dict]]]:
    """Split combined output into (violations table, [(partition_id, stats)])."""
    combined = (
        pa.concat_tables(tables) if tables else COMBINED_SCHEMA.empty_table()
    )
    is_v = pc.equal(combined["kind"], "violation")
    violations = combined.filter(is_v).select(
        [f.name for f in VIOLATIONS_SCHEMA]
    ).cast(VIOLATIONS_SCHEMA)
    stats_rows = combined.filter(pc.invert(is_v))
    partials = [
        (stats_rows["partition_id"][i].as_py(),
         pickle.loads(stats_rows["blob"][i].as_py()))
        for i in range(stats_rows.num_rows)
    ]
    return violations, partials


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
    hll_u = HyperLogLog.from_bytes(partials[0]["hll_url"])
    hll_l = HyperLogLog.from_bytes(partials[0]["hll_lang"])
    # one-shot t-digest merge: concat all centroids, compress ONCE (a fold of
    # pairwise merges re-compressed per partial and dominated driver time)
    td = TDigest.merge_many(
        [TDigest.from_bytes(p["tdigest_textlen"]) for p in partials])
    out = {
        "n_rows": partials[0]["n_rows"],
        "lang_counts": dict(partials[0]["lang_counts"]),
        "html_null": partials[0]["html_null"],
        "text_null": partials[0]["text_null"],
        "ts_min": partials[0]["ts_min"],
        "ts_max": partials[0]["ts_max"],
    }
    for p in partials[1:]:
        hll_u = hll_u.merge(HyperLogLog.from_bytes(p["hll_url"]))
        hll_l = hll_l.merge(HyperLogLog.from_bytes(p["hll_lang"]))
        out["n_rows"] += p["n_rows"]
        for k, v in p["lang_counts"].items():
            out["lang_counts"][k] = out["lang_counts"].get(k, 0) + v
        out["html_null"] += p["html_null"]
        out["text_null"] += p["text_null"]
        for key, fn in (("ts_min", min), ("ts_max", max)):
            vals = [x for x in (out[key], p[key]) if x is not None]
            out[key] = fn(vals) if vals else None
    # keep merged sketch bytes so the result is itself re-mergeable
    # (merge is associative: batch → partition → global)
    out["hll_url"] = hll_u.to_bytes()
    out["hll_lang"] = hll_l.to_bytes()
    out["tdigest_textlen"] = td.to_bytes()
    out["url_cardinality_est"] = hll_u.estimate()
    out["lang_cardinality_est"] = hll_l.estimate()
    out["textlen_quantiles"] = {str(q): td.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)}
    return out
