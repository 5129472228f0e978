"""The flagship validation job: full constraint suite over a pages table.

Lifecycle (SURVEY.md §3.4): read_parquet(pages) → fused row-phase actor stage
(C0/C2/C3/C4/C6 + sketch partials, ONE streaming pass over the heavy columns)
→ per-partition violations + lineage manifests (resume unit) → global phase:
C1 uniqueness via a hash-compacted url-only shuffle + C5 drift from merged
partials → union of violation streams + summary verdict.

Execution/resume model:
  * partition = one input parquet file; partition_id = index in the sorted
    file list (stable across runs).
  * the whole row phase is ONE streaming Dataset execution: results are
    consumed incrementally with ``iter_batches`` and every partition's
    violations + manifest commit atomically as soon as all of its scan items
    have arrived (each item contributes exactly one stats partial, so
    completion is a per-partition item count). A killed run re-runs only
    uncommitted partitions (resume-equals-fresh is property-tested). One
    execution — not one per wave — matters because the streaming executor
    has a ~1s fixed floor per execution, which at 32 CPUs was a third of the
    whole job's wall time.
  * the global phase runs after all partitions commit and writes its own
    manifest; its inputs are column-pruned re-reads (url only), not the heavy
    html/text columns.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import re
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..checks.drift import chi_square_drift
from ..checks.row import (committed_sidecars, make_scan_check_fn, merge_stats,
                          plan_scan_items, sidecars_by_pid, split_combined,
                          split_items)
from ..checks.uniqueness import (collector_candidates, duplicates_to_violations,
                                 find_duplicate_urls, load_verified,
                                 make_collectors, verify_candidates,
                                 _feed_collector)
from ..schema import VIOLATIONS_SCHEMA
from ..state.manifest import ManifestStore

ENGINE_VERSION = "0.1.0"


@ray.remote
def _spec_scan_item(item: dict, check_extract: bool, clean_dir,
                    c1_collectors, c1_sidecar_dir=None):
    """Speculative (backup) execution of one straggling scan item — the same
    fused read+check fn the row phase runs, first-result-wins. Safe to
    duplicate: clean-output writes are atomic per (pid, rg_lo), C1 hash adds
    are idempotent by item key, and the consume loop drops the slower copy's
    violations/stats by item-key dedup."""
    fn = make_scan_check_fn(check_extract=check_extract, clean_dir=clean_dir,
                            c1_collectors=c1_collectors,
                            c1_sidecar_dir=c1_sidecar_dir)
    return fn(pa.table({k: [item[k]]
                        for k in ("path", "rg_lo", "rg_hi", "pid")}))

CHECK_IDS = ["c0_schema", "c1_url_unique", "c2_nonnull", "c3_lang_vocab",
             "c4_ts_range", "c5_lang_drift", "c6_extract_match"]


def _pages_files(pages_path: str) -> list[str]:
    if os.path.isdir(pages_path):
        files = sorted(glob.glob(os.path.join(pages_path, "*.parquet")))
    else:
        files = [pages_path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {pages_path}")
    return files


def run_validation(
    pages_path: str,
    out_dir: str,
    lang_hist_path: str | None = None,
    resume: bool = True,
    wave_size: int = 8,
    batch_size: int | None = None,
    concurrency: int | tuple | None = None,
    check_extract: bool = True,
    drift_alpha: float = 1e-3,
    clean_dir: str | None = None,
    use_actor_pool: bool = False,
    scan_target_rows: int | None = None,
    collect_ray_stats: bool = False,
    fuse_c1: bool = True,
    speculative: bool | str = True,
    c1_sidecars: bool = True,
) -> dict:
    """Run the full suite; returns the summary dict (also written as JSON).

    ``fuse_c1``: feed the C1 uniqueness exchange from url hashes emitted by
    the fused scan tasks (no second parquet pass); False falls back to the
    standalone concurrent url-only exchange.
    ``speculative``: re-issue straggling scan items as backup tasks once
    ≥95% of items have arrived and arrivals have stalled (first-result-wins;
    commits, clean-output writes and C1 adds are all idempotent). The string
    ``"force"`` re-issues every outstanding item immediately (test hook).
    """
    import threading

    t0 = time.time()
    files = _pages_files(pages_path)
    viol_dir = os.path.join(out_dir, "violations")
    if not resume:
        # a fresh run starts from an empty store: stale manifests, parts or
        # sidecars would otherwise mix with this run's partition ids
        for sub in ("manifests", "violations", "c1"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    os.makedirs(viol_dir, exist_ok=True)
    store = ManifestStore(os.path.join(out_dir, "manifests"))
    sigs = {f: _input_sig(f) for f in files}
    kept, n_dropped = _keep_committed(store, sigs, viol_dir,
                                      os.path.join(out_dir, "c1"))
    # the C1 verify table keeps the rows of kept pids only — pruned before
    # any commit, whatever the flags, so a reused pid never sees stale rows
    verified_path = os.path.join(out_dir, "c1", "verified.parquet")
    verified = load_verified(verified_path, keep=kept)

    # Resume keys on each manifest's recorded input_fragment, NOT the
    # file's position in the sorted listing: on an INCREMENTAL run (the
    # daily-crawl-append mode) a new file that sorts before existing ones
    # would otherwise shift every positional id — the new file inherits a
    # committed id and is silently skipped unvalidated, the shifted file
    # is re-scanned and double-counted, and the sidecar feed attributes
    # the wrong urls to C1. A file keeps the partition id its manifest
    # recorded; genuinely new files get fresh ids past the highest kept.
    frag_pid = {rec["input_fragment"]: pid for pid, rec in kept.items()}
    next_id = 1 + max(kept, default=-1)
    partition_of = {}
    for f in files:
        if f in frag_pid:
            partition_of[f] = frag_pid[f]
        else:
            partition_of[f] = next_id
            next_id += 1

    todo = [f for f in files if partition_of[f] not in kept]
    ray_stats = None

    # ---- global C1 uniqueness ------------------------------------------------
    # Fused mode: the scan tasks already hold every url column and push
    # pre-aggregated (hash, count) partials into collector actors as a side
    # output — the corpus is read ONCE for both phases. Previously-committed
    # partitions (resume) never re-scan: each collector loads their sidecars
    # itself, concurrently with the row phase. Fallback mode runs the
    # standalone two-pass exchange concurrently on a thread.
    collectors = None
    feed_refs: list = []
    c1_result: dict = {}
    c1_counts: dict | None = None
    c1_dir = (os.path.join(out_dir, "c1")
              if (fuse_c1 and c1_sidecars) else None)
    if fuse_c1:
        if c1_dir is not None:
            os.makedirs(c1_dir, exist_ok=True)
        collectors = make_collectors()
        # committed partitions feed their url hashes from the per-item
        # sidecars their original scan persisted (16 B/row, already hashed),
        # found by ONE listing of c1/ — falling back to a url-only parquet
        # read when a file's sidecar set is incomplete (config change,
        # pre-sidecar output dir). At 100 TB an incremental run re-feeds
        # yesterday's corpus from ~1.6% of its bytes.
        listed = sidecars_by_pid(c1_dir) if c1_dir is not None else {}
        sidecars: list = []
        c1_counts = {"sidecar_files": 0, "url_fallback_files": 0}
        for f in files:
            if partition_of[f] not in kept:
                continue
            exp = (committed_sidecars(c1_dir, partition_of[f], f, listed)
                   if c1_dir is not None else None)
            if exp:
                sidecars += exp
                c1_counts["sidecar_files"] += 1
            else:
                c1_counts["url_fallback_files"] += 1
                feed_refs.append(
                    _feed_collector.remote(f, "url", collectors, f"file:{f}"))
        if sidecars:
            feed_refs += [c.load_sidecars.remote(sidecars, j, len(collectors))
                          for j, c in enumerate(collectors)]
    else:
        def _c1():
            try:
                c1_result["dups"] = find_duplicate_urls(files)
            except Exception as ex:  # surface after the row phase
                c1_result["error"] = ex

        c1_thread = threading.Thread(target=_c1, daemon=True)
        c1_thread.start()

    # ---------------- row phase: ONE streaming execution ---------------------
    # fused read+check over a Dataset of (file, row-group range) scan items:
    # html/text bytes never enter the object store; only violations + stats
    # partials (KBs) flow out of each task (see make_scan_check_fn). Results
    # stream back via iter_batches; a partition commits the moment its last
    # scan item lands, so a mid-run kill keeps all finished partitions.
    # (wave_size is retained for CLI/test compat; commits are per-partition
    # and no longer batched into wave-sized executions.)
    del wave_size
    if clean_dir is not None:
        os.makedirs(clean_dir, exist_ok=True)
    items = plan_scan_items(todo, partition_of, target_rows=scan_target_rows)
    blocks: dict[int, list[dict]] = {}
    for it in items:
        blocks.setdefault(it["block"], []).append(it)
    if items:
        from collections import Counter

        expected = Counter(it["pid"] for it in items)
        file_of_pid = {partition_of[f]: f for f in todo}
        # (an rd.range-based lazy fan-out was measured SLOWER than these
        # driver-side puts — 3.53s vs 3.25s at 32 CPUs/2.4M rows — the range
        # op adds a task layer that doesn't fuse with batch_size=1 rebatching)
        # Pre-put one block per packed run of items (plan_scan_items'
        # ``block``, about the target's rows) and map each whole block as
        # one batch, so a task costs what its rows cost however small the
        # files are; scan_check loops over the block's items and
        # split_items recovers them from its output. from_items mints its
        # blocks serially through one producing task (~4.4ms/block = a 20%
        # serial fraction at 32 CPUs); from_arrow_refs hands the scheduler
        # every block immediately, so the scan goes full-width from t=0
        # (measured +13% row-phase throughput at 32 CPUs / 4.8M rows).
        import ray as _ray

        ds = rd.from_arrow_refs([
            _ray.put(pa.table({k: [it[k] for it in blk]
                               for k in ("path", "rg_lo", "rg_hi", "pid")}))
            for blk in blocks.values()])
        kwargs = dict(batch_format="pyarrow", batch_size=None)
        if concurrency is not None:
            # never ask for more concurrent tasks than there are blocks
            # (small inputs would warn and reserve slots that cannot fill)
            kwargs["concurrency"] = (min(concurrency, len(blocks))
                                     if isinstance(concurrency, int)
                                     else concurrency)
        if use_actor_pool:
            # actor-pool mode for heavy per-actor state (model scorers):
            # setup once per actor in __init__, work per batch in __call__
            from ..checks.row import ScanCheckActor

            kwargs.setdefault("concurrency", 8)
            combined = ds.map_batches(
                ScanCheckActor,
                fn_constructor_kwargs=dict(check_extract=check_extract,
                                           clean_dir=clean_dir,
                                           c1_collectors=collectors,
                                           c1_sidecar_dir=c1_dir),
                **kwargs)
        else:
            combined = ds.map_batches(
                make_scan_check_fn(check_extract=check_extract,
                                   clean_dir=clean_dir,
                                   c1_collectors=collectors,
                                   c1_sidecar_dir=c1_dir), **kwargs)

        pend_viol: dict[int, list[pa.Table]] = {}
        pend_stats: dict[int, list[dict]] = {}
        seen: Counter = Counter()

        def _commit(pid: int) -> None:
            pv = (pa.concat_tables(pend_viol.pop(pid))
                  if pid in pend_viol else VIOLATIONS_SCHEMA.empty_table())
            vp = os.path.join(viol_dir, f"part-{pid:05d}.parquet")
            tmp = vp + ".tmp"
            pq.write_table(pv, tmp)
            os.replace(tmp, vp)
            stats = merge_stats(pend_stats.pop(pid, []))
            size, mtime_ns = sigs[file_of_pid[pid]]
            store.commit(
                pid,
                {
                    "input_fragment": file_of_pid[pid],
                    "input_size": size,
                    "input_mtime_ns": mtime_ns,
                    "n_rows": stats["n_rows"],
                    "violation_count": int(pv.num_rows),
                    "per_check_violations": _per_check_counts(pv),
                    "passed": pv.num_rows == 0,
                    "engine_version": ENGINE_VERSION,
                },
                stats=stats,
            )

        # commits run on background threads so parquet/manifest writes
        # overlap the stream instead of stalling consumption (safe: a pid is
        # submitted exactly once, and commits touch disjoint files/buffers)
        import queue as _queue

        from concurrent.futures import ThreadPoolExecutor

        total_items = len(items)
        item_info = {(it["pid"], (it["rg_lo"], it["rg_hi"])): it
                     for it in items}
        arrived: set = set()
        arrival_ts: list[float] = []
        spec_submitted: set = set()
        q: _queue.Queue = _queue.Queue()
        stop_evt = threading.Event()

        def _consume():
            # the Dataset stream feeds the same queue as speculative results
            try:
                for tbl in combined.iter_batches(batch_format="pyarrow",
                                                 batch_size=None):
                    q.put(("data", tbl))
                    if stop_evt.is_set():
                        break
            except Exception as ex:
                q.put(("err", ex))
            finally:
                q.put(("end", None))

        def _spec_getter(refs: list):
            pending = list(refs)
            while pending:
                ready, pending = ray.wait(pending, num_returns=1)
                try:
                    q.put(("data", ray.get(ready[0])))
                except Exception as ex:
                    q.put(("err", ex))

        def _maybe_speculate(force: bool = False):
            # re-issue the straggling tail as backup tasks: identical scan
            # items have been measured spreading 172ms→5.6s under host CPU
            # steal (BASELINE.md ds.stats() evidence) — the tail, not the
            # median, sets the row-phase wall. Triggers only when ≤5% of
            # items remain AND arrivals have stalled vs the observed
            # arrival cadence, so a healthy run never duplicates work.
            if not speculative:
                return
            missing = [k for k in item_info
                       if k not in arrived and k not in spec_submitted]
            if not missing:
                return
            remaining = total_items - len(arrived)
            if speculative != "force" and not force:
                if total_items < 16 or remaining > max(1, total_items // 20):
                    return
                if not arrival_ts:
                    return
                import numpy as _np

                stall = time.time() - arrival_ts[-1]
                gaps = _np.diff(_np.asarray(arrival_ts[-64:]))
                med_gap = float(_np.median(gaps)) if gaps.size else 0.0
                if stall < max(2.0, 6.0 * med_gap):
                    return
            refs = [_spec_scan_item.remote(item_info[k], check_extract,
                                           clean_dir, collectors, c1_dir)
                    for k in missing]
            spec_submitted.update(missing)
            threading.Thread(target=_spec_getter, args=(refs,),
                             daemon=True).start()

        consumer = threading.Thread(target=_consume, daemon=True)
        consumer.start()
        if speculative == "force":
            # test hook: duplicate EVERY item from t=0 so the arrival-dedup
            # path is exercised under total duplication, not just the tail
            _maybe_speculate()
        with ThreadPoolExecutor(max_workers=4) as commit_ex:
            futs = []
            submitted: set = set()
            while len(arrived) < total_items:
                try:
                    kind, payload = q.get(timeout=0.25)
                except _queue.Empty:
                    _maybe_speculate()
                    continue
                if kind == "err":
                    raise payload
                if kind == "end":
                    # stream closed with items missing: backup tasks are the
                    # only way to finish (in-flight speculations still count)
                    if not speculative and len(arrived) < total_items:
                        raise RuntimeError(
                            f"row phase ended with {total_items - len(arrived)}"
                            " scan items unaccounted for")
                    _maybe_speculate(force=True)
                    continue
                done_pids = []
                for item_tbl in split_items(payload):
                    viol, partials = split_combined([item_tbl])
                    if partials:
                        pid, p = partials[0]
                        ikey = (pid, tuple(p["item"])) if p.get("item") \
                            else (pid, None)
                        if ikey in arrived:
                            continue  # slower copy of a speculated item
                        arrived.add(ikey)
                        arrival_ts.append(time.time())
                        pend_stats.setdefault(pid, []).append(p)
                        seen[pid] += 1
                        if seen[pid] == expected[pid]:
                            done_pids.append(pid)
                    if viol.num_rows:
                        for pid in pc.unique(
                                viol["partition_id"]).to_pylist():
                            pend_viol.setdefault(pid, []).append(
                                viol.filter(
                                    pc.equal(viol["partition_id"], pid)))
                futs += [commit_ex.submit(_commit, pid) for pid in done_pids]
                submitted.update(done_pids)
            stop_evt.set()
            # partitions that somehow missed an expected-count trigger (a
            # defensive sweep; NOT pids merely pending on the commit thread —
            # re-submitting those would overwrite their manifest with empty
            # stats after the real commit pops the buffers)
            futs += [commit_ex.submit(_commit, pid)
                     for pid in list(pend_stats) if pid not in submitted]
            for f in futs:
                f.result()  # surface commit errors
        if collect_ray_stats:
            # the executor's own per-operator wall/cpu breakdown — the
            # measure-don't-guess surface (``validate --stats`` CLI flag)
            ray_stats = combined.stats()

    # ---------------- global phase: C1 drain + stats merge, OVERLAPPED -------
    # the C1 candidate reduce + exact verify run on a thread while this
    # process merges the committed per-partition stats pickles. The merge
    # starts once the drain has only remote work left (the verify's re-read
    # and count tasks): the drain's own steps here would otherwise wait on
    # the GIL behind the merge.
    t_row_done = time.time()
    c1_out: dict = {}
    remote_only = threading.Event()

    def _drain_c1():
        try:
            if fuse_c1:
                ray.get(feed_refs)  # resume-path feeds (no-op fresh)
                t_f = time.time()
                cand = collector_candidates(collectors)
                t_c = time.time()
                # exact verify (url strings + u64-collision collapse): the
                # collectors' per-item attribution names the files holding
                # a candidate hash, and verified.parquet serves committed
                # ones whose rows it already holds
                persist = c1_dir is not None
                c1_out["dups"], vc = verify_candidates(
                    partition_of, "url", cand, collectors,
                    table=verified if persist else None,
                    table_path=verified_path if persist else None,
                    on_submitted=remote_only.set)
                c1_counts.update(vc, candidates=int(cand.size))
                c1_out["walls"] = {
                    "feeds": round(t_f - t_row_done, 3),
                    "candidates": round(t_c - t_f, 3),
                    "verify": round(time.time() - t_c, 3)}
                # collectors are NOT killed: the pool is session-lived and
                # recycled by make_collectors(reuse=True) — respawning
                # actors per run costs a cold-start wave the first scan
                # items block on
            else:
                remote_only.set()
                c1_thread.join()
                if "error" in c1_result:
                    raise c1_result["error"]
                c1_out["dups"] = c1_result["dups"]
        except Exception as ex:
            c1_out["error"] = ex
        finally:
            remote_only.set()

    drain = threading.Thread(target=_drain_c1, daemon=True)
    drain.start()
    remote_only.wait()

    # ---------------- merge committed partition stats ------------------------
    # every partition manifest now covers a file of THIS run's input set
    # (_keep_committed dropped the rest before the scan)
    done = {pid: rec for pid, rec in store.completed().items()
            if pid != "global"}
    rows_scanned = sum(done[partition_of[f]]["n_rows"] for f in todo)
    all_stats = [store.load_stats(pid) for pid in sorted(done, key=str)]
    all_stats = [s for s in all_stats if s is not None]
    global_stats = merge_stats(all_stats)
    t_stats_merged = time.time()

    drain.join()
    if "error" in c1_out:
        raise c1_out["error"]
    c1_viol = duplicates_to_violations(c1_out["dups"])

    # ---------------- global phase: C5 drift ---------------------------------
    drift = None
    c5_viol = VIOLATIONS_SCHEMA.empty_table()
    if lang_hist_path and os.path.exists(lang_hist_path):
        hist = pq.read_table(lang_hist_path)
        expected = dict(zip(hist["lang"].to_pylist(),
                            hist["expected_fraction"].to_pylist()))
        drift = chi_square_drift(global_stats["lang_counts"], expected,
                                 alpha=drift_alpha)
        if not drift["passed"]:
            worst = sorted(drift["per_lang"].items(),
                           key=lambda kv: -kv[1]["chi2_contrib"])[:3]
            c5_viol = pa.table(
                {
                    "check_id": ["c5_lang_drift"],
                    "url": [""],
                    "partition_id": [-1],
                    "severity": ["warn"],
                    "detail": [json.dumps({"chi2": drift["chi2"],
                                           "p_value": drift["p_value"],
                                           "worst": dict(worst)})],
                },
                schema=VIOLATIONS_SCHEMA,
            )

    global_viol = pa.concat_tables([c1_viol, c5_viol])
    gp = os.path.join(viol_dir, "global.parquet")
    tmp = gp + ".tmp"
    pq.write_table(global_viol, tmp)
    os.replace(tmp, gp)
    store.commit(
        "global",
        {
            "input_fragment": pages_path,
            "n_rows": global_stats["n_rows"],
            "violation_count": int(global_viol.num_rows),
            "per_check_violations": _per_check_counts(global_viol),
            "passed": global_viol.num_rows == 0,
            "engine_version": ENGINE_VERSION,
        },
    )

    # ---------------- summary ------------------------------------------------
    per_check = {c: 0 for c in CHECK_IDS}
    for rec in store.completed().values():
        for c, n in rec.get("per_check_violations", {}).items():
            per_check[c] = per_check.get(c, 0) + n
    wall = time.time() - t0
    summary = {
        "phase_wall": {"row": round(t_row_done - t0, 3),
                       "global": round(time.time() - t_row_done, 3),
                       "c1_drain": c1_out.get("walls"),
                       "stats_merge": round(t_stats_merged - t_row_done, 3)},
        "n_rows": global_stats["n_rows"],
        "n_partitions": len(files),
        "violations_total": int(sum(per_check.values())),
        "per_check_violations": per_check,
        "passed": sum(per_check.values()) == 0,
        "stats": {k: v for k, v in global_stats.items()
                  if not isinstance(v, (bytes, bytearray))},
        "drift": drift,
        "wall_sec": round(wall, 3),
        "rows_scanned": rows_scanned,
        "rows_per_sec": round(rows_scanned / wall, 1) if wall else None,
        "scan_items": len(items),
        "scan_tasks": len(blocks),
        "c1": c1_counts,
        "engine_version": ENGINE_VERSION,
    }
    resume = {"partitions_kept": len(kept), "partitions_dropped": n_dropped,
              "partitions_scanned": len(todo), "scan_items": len(items),
              "scan_tasks": len(blocks), **(c1_counts or {})}
    logging.getLogger("lk_data_test_ray").info(
        "validate resume %s", json.dumps(resume, sort_keys=True),
        extra={"resume": resume})
    if collect_ray_stats and ray_stats is not None:
        summary["ray_stats"] = ray_stats
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, default=str)
    return summary


def _input_sig(path: str) -> list[int]:
    """[size, mtime_ns] of an input file, as its manifest records it."""
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns]


def _keep_committed(store: ManifestStore, sigs: dict, viol_dir: str,
                    c1_dir: str) -> tuple[dict, int]:
    """The committed partitions this run keeps, pid -> manifest, and the
    number dropped. One is kept per input file still present and unchanged
    (its manifest's size and mtime_ns equal ``sigs[file]``; the lowest pid
    when two manifests claim the same file). Every other partition is
    dropped with its stats, its violations part and its C1 sidecars, and so
    is any part or sidecar without a kept manifest (a run killed before the
    commit): a deleted and re-added file, or one rewritten in place, is
    re-scanned, and a reused pid starts clean instead of being tiled by a
    deleted file's sidecars."""
    seen, keep = set(), {}
    parts = [(pid, rec) for pid, rec in store.completed().items()
             if pid != "global"]
    for pid, rec in sorted(parts, key=lambda kv: kv[0]):
        frag = rec.get("input_fragment")
        sig = [rec.get("input_size"), rec.get("input_mtime_ns")]
        if frag in sigs and frag not in seen and sig == sigs[frag]:
            seen.add(frag)
            keep[pid] = rec
        else:
            store.drop(pid)
    for d in (viol_dir, c1_dir):
        for name in (os.listdir(d) if os.path.isdir(d) else []):
            m = re.match(r"(?:part|item)-(\d+)", name)
            if m and int(m.group(1)) not in keep:
                os.remove(os.path.join(d, name))
    return keep, len(parts) - len(keep)


def load_violations(out_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(out_dir, "violations", "*.parquet")))
    tables = [pq.read_table(f) for f in files]
    return pa.concat_tables(tables) if tables else VIOLATIONS_SCHEMA.empty_table()


def _per_check_counts(viol: pa.Table) -> dict[str, int]:
    if viol.num_rows == 0:
        return {}
    vals = viol.group_by("check_id").aggregate([("check_id", "count")])
    return {
        vals["check_id"][i].as_py(): vals["check_id_count"][i].as_py()
        for i in range(vals.num_rows)
    }


