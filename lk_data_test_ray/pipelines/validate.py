"""The flagship validation job: full constraint suite over a pages table.

Lifecycle (SURVEY.md §3.4): (file, row-group range) scan items planned from
the parquet footers → fused row-phase scan tasks (C0/C2/C3/C4/C6 + sketch
partials + the C1 url-hash feed, ONE pass over the heavy columns) →
per-partition violations + lineage manifests (resume unit) → global phase:
C1 uniqueness from per-run tasks over disjoint hash ranges of the scan's
(hash, url) sidecars + C5 drift from merged partials → union of violation
streams + summary verdict.

Execution/resume model:
  * partition = one input parquet file; a file keeps the partition id its
    manifest recorded, new files get fresh ids past the highest kept one.
  * the row phase is plain Ray tasks, one ``scan_block`` task per packed
    block of scan items, drained by ONE driver-side ``ray.wait`` loop
    (``_scan``). Every partition's violations + manifest commit on that
    loop's thread as soon as all of its scan items have arrived (a task
    returns one plain ``(pid, violation columns, stats)`` record per item,
    so completion is a per-partition item count); a commit takes a few ms,
    less than a thread pool's hand-offs cost. A killed run re-runs only
    uncommitted partitions (resume-equals-fresh is property-tested).
    A task's input is a few item dicts the driver already holds, so a
    streaming executor has nothing to stream: on a 1-CPU host a Ray Data
    stream over such blocks took about 50 ms per run and plain tasks about
    6 ms, most of a small append step's fixed floor.
  * the same loop re-issues straggling items as one-item backups of the
    same remote function and drops the slower copy by item key.
  * C1 range tasks start at the last arrival. They read the (hash, url)
    sidecars of every partition, which the scan has written by then, and
    each finds and verifies the duplicates of its hash range, so C1 runs
    while the commits write and the stats merge; no input file is read
    after the scan. The global phase follows all partition commits and
    writes its own manifest.
  * each partition manifest names its scan ``items`` (row-group ranges, in
    plan order), and so the C1 sidecars a resume feeds from: a partition is
    kept only while every file it names is there (its violations part, its
    ``stats_file``, every item's sidecar in ``c1/`` and, with a
    ``clean_dir``, every item's clean part), and re-scanned otherwise.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import re
import shutil
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..checks.drift import chi_square_drift
from ..checks.row import (clean_name, merge_stats, plan_scan_items,
                          scan_block, sidecar_name)
from ..checks.uniqueness import (collector_candidates, duplicates_to_violations,
                                 make_collectors, verify_candidates)
from ..schema import VIOLATIONS_SCHEMA
from ..state.manifest import ManifestStore

ENGINE_VERSION = "0.1.0"

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
    concurrency: int | None = None,
    check_extract: bool = True,
    drift_alpha: float = 1e-3,
    clean_dir: str | None = None,
    scan_target_rows: int | None = None,
    speculative: bool | str = True,
) -> dict:
    """Run the full suite; returns the summary dict (also written as JSON).

    ``clean_dir``: also write each item's rows that no row-phase check
    flagged there as ``clean-<pid>-<rg_lo>.parquet``; a resume keeps those
    of its kept partitions and removes every other such file.
    ``concurrency``: at most this many scan tasks in flight (default: every
    block is submitted at once and Ray's scheduler fills the cluster).
    ``scan_target_rows``: rows per scan item and per block
    (``plan_scan_items``; default auto-sized to the cluster).
    ``speculative``: re-issue straggling scan items as backup tasks once
    ≥95% of items have arrived and arrivals have stalled (first-result-wins;
    commits, clean-output writes and C1 sidecars are all idempotent). The
    string ``"force"`` re-issues every outstanding item immediately (test
    hook).

    ``summary["phase_wall"]`` (seconds): ``plan`` (input sigs, manifests,
    the sidecar listing and item planning); ``row``, which ends at the
    last scan arrival, when the C1 range tasks start; ``commit_wait``, how
    long the partition commits still ran after that; ``c1_drain``
    (``verify``: the ``stats_merge``, run while the range tasks do, plus
    the wait for their duplicate tables; ``candidates``: the candidate
    union after that); and ``global``, everything after the last arrival.
    """
    t0 = time.time()
    files = _pages_files(pages_path)
    viol_dir = os.path.join(out_dir, "violations")
    c1_dir = os.path.join(out_dir, "c1")
    if not resume:
        # a fresh run starts from an empty store: stale manifests, parts or
        # sidecars would otherwise mix with this run's partition ids
        for sub in ("manifests", "violations", "c1"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
    os.makedirs(viol_dir, exist_ok=True)
    os.makedirs(c1_dir, exist_ok=True)
    if clean_dir is not None:
        os.makedirs(clean_dir, exist_ok=True)
    store = ManifestStore(os.path.join(out_dir, "manifests"))
    sigs = {f: _input_sig(f) for f in files}
    kept, n_dropped = _keep_committed(store, sigs, viol_dir, c1_dir,
                                      clean_dir)
    # one GCS round trip per run: the planner and the range tasks size
    # themselves to this count
    cpus = int(ray.cluster_resources().get("CPU", 8))

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

    # ---- global C1 uniqueness ------------------------------------------------
    # The scan tasks already hold every url column and persist each item's
    # (hash, url) rows as a sidecar — the corpus is read ONCE for both
    # phases. Committed partitions (resume) never re-scan: each kept
    # manifest names its items, whose sidecars _keep_committed found in
    # c1/, and they join this run's in the exchange that starts at the
    # scan's last arrival. At 100 TB an incremental run re-feeds
    # yesterday's corpus from ~1.6% of its bytes.
    sidecars = [(rec["input_fragment"],
                 os.path.join(c1_dir, sidecar_name(pid, lo, hi)))
                for pid, rec in kept.items() for lo, hi in rec["items"]]

    # ---------------- row phase ----------------------------------------------
    # one scan_block task per packed block of scan items (plan_scan_items'
    # ``block``, about the target's rows), so a task costs what its rows
    # cost however small the files are. html/text bytes never enter the
    # object store; only violations + stats partials (KBs) come back. A
    # partition commits the moment its last scan item lands, so a mid-run
    # kill keeps all finished partitions.
    items = plan_scan_items(todo, partition_of, target_rows=scan_target_rows,
                            cpus=cpus)
    blocks: dict[int, list[dict]] = {}
    items_of: dict[int, list] = {}  # pid -> its [rg_lo, rg_hi] in plan order
    for it in items:
        blocks.setdefault(it["block"], []).append(it)
        items_of.setdefault(it["pid"], []).append([it["rg_lo"], it["rg_hi"]])
        sidecars.append((it["path"], os.path.join(
            c1_dir, sidecar_name(it["pid"], it["rg_lo"], it["rg_hi"]))))
    file_of_pid = {partition_of[f]: f for f in todo}
    committed: dict = {}  # pid -> the manifest record this run committed

    def _commit(pid: int, cols: dict, partials: list) -> None:
        pv = pa.table(cols, schema=VIOLATIONS_SCHEMA)
        vp = os.path.join(viol_dir, _part_name(pid))
        tmp = vp + ".tmp"
        pq.write_table(pv, tmp)
        os.replace(tmp, vp)
        stats = merge_stats(partials)
        size, mtime_ns = sigs[file_of_pid[pid]]
        rec = {
            "input_fragment": file_of_pid[pid],
            "input_size": size,
            "input_mtime_ns": mtime_ns,
            "items": items_of[pid],
            "n_rows": stats["n_rows"],
            "violation_count": int(pv.num_rows),
            "per_check_violations": _per_check_counts(pv),
            "passed": pv.num_rows == 0,
            "engine_version": ENGINE_VERSION,
        }
        store.commit(pid, rec, stats=stats)
        committed[pid] = rec

    t_planned = time.time()
    c1: dict = {}

    def _start_c1() -> None:
        # the range tasks read only sidecars, all written once the last scan
        # item has arrived: they run while the partitions commit
        c1["t_row_done"] = time.time()
        c1["collectors"] = make_collectors(sidecars, cpus=cpus)
        c1["t_started"] = time.time()

    if items:
        _scan(list(blocks.values()),
              (check_extract, clean_dir, c1_dir),
              concurrency, speculative, _commit, _start_c1)
    else:
        _start_c1()
    t_committed = time.time()

    # ---------------- global phase: C1 verify + stats merge, OVERLAPPED ------
    # every partition has committed. This process merges the per-partition
    # stats pickles while the range tasks find and verify the duplicates.
    t_row_done, collectors = c1["t_row_done"], c1["collectors"]
    # the kept manifests and this run's commits are every partition of THIS
    # run's input set (_keep_committed dropped the rest before the scan)
    done = {**kept, **committed}
    rows_scanned = sum(committed[partition_of[f]]["n_rows"] for f in todo)
    merged: dict = {}

    def _merge_stats() -> None:
        t = time.time()
        all_stats = [store.load_stats(pid) for pid in sorted(done, key=str)]
        merged["stats"] = merge_stats([s for s in all_stats if s is not None])
        merged["wall"] = time.time() - t

    dups, vc = verify_candidates(collectors, meanwhile=_merge_stats)
    t_v = time.time()
    cand = collector_candidates(collectors)
    global_stats = merged["stats"]
    c1_counts = {**vc, "candidates": int(cand.size)}
    c1_walls = {"candidates": round(time.time() - t_v, 3),
                "verify": round(t_v - t_committed, 3)}
    c1_viol = duplicates_to_violations(dups)

    # ---------------- global phase: C5 drift ---------------------------------
    drift = None
    c5_viol = VIOLATIONS_SCHEMA.empty_table()
    if lang_hist_path and os.path.exists(lang_hist_path):
        hist = pq.ParquetFile(lang_hist_path).read()
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
    done["global"] = {
        "input_fragment": pages_path,
        "n_rows": global_stats["n_rows"],
        "violation_count": int(global_viol.num_rows),
        "per_check_violations": _per_check_counts(global_viol),
        "passed": global_viol.num_rows == 0,
        "engine_version": ENGINE_VERSION,
    }
    store.commit("global", done["global"])

    # ---------------- summary ------------------------------------------------
    per_check = {c: 0 for c in CHECK_IDS}
    for rec in done.values():
        for c, n in rec.get("per_check_violations", {}).items():
            per_check[c] = per_check.get(c, 0) + n
    wall = time.time() - t0
    summary = {
        "phase_wall": {"plan": round(t_planned - t0, 3),
                       "row": round(t_row_done - t0, 3),
                       "commit_wait": round(t_committed - c1["t_started"],
                                            3),
                       "global": round(time.time() - t_row_done, 3),
                       "c1_drain": c1_walls,
                       "stats_merge": round(merged["wall"], 3)},
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
              "scan_tasks": len(blocks), **c1_counts}
    logging.getLogger("lk_data_test_ray").info(
        "validate resume %s", json.dumps(resume, sort_keys=True),
        extra={"resume": resume})
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, default=str)
    return summary


def _scan(blocks: list[list[dict]], args: tuple, concurrency: int | None,
          speculative: bool | str, commit, on_last) -> None:
    """Run the row phase: one ``scan_block`` task per block, at most
    ``concurrency`` of them in flight (all at t=0 when None), drained by one
    ``ray.wait`` loop. ``args`` are ``scan_block``'s arguments after the
    items. Each arriving ``(pid, cols, stats)`` record is deduplicated by
    (pid, row-group range); once all items of a partition have arrived,
    ``commit(pid, its violation columns concatenated, its stats partials)``
    runs on this thread, before the next ``ray.wait``. ``on_last()`` runs
    once the last item has arrived, before that result's commits. A task
    error or a commit error cancels the scans still outstanding and
    raises; partitions already committed stay. Backups still outstanding
    at the end keep running and are not awaited."""
    items = {(it["pid"], (it["rg_lo"], it["rg_hi"])): it
             for blk in blocks for it in blk}
    left = Counter(pid for pid, _ in items)  # items still due per pid
    pend_viol: dict[int, dict] = {}  # pid -> its violation columns so far
    pend_stats: dict[int, list[dict]] = {}
    arrived: set = set()
    arrival_ts: list[float] = []
    backed_up: set = set()
    started: set = set()  # block ids submitted so far
    queued = blocks[::-1]  # pop() takes them in plan order
    window = concurrency or len(blocks)
    primary: set = set()  # in-flight block tasks; backups sit outside
    pending: list = []

    def _backups() -> list:
        # re-issue the straggling tail as one-item backup tasks: identical
        # scan items have been measured spreading 172ms→5.6s under host CPU
        # steal — the tail, not the median, sets the row-phase wall.
        # Triggers only when ≤5% of items remain AND arrivals have stalled
        # vs the observed arrival cadence, so a healthy run never
        # duplicates work.
        if not speculative:
            return []
        missing = [k for k, it in items.items() if it["block"] in started
                   and k not in arrived and k not in backed_up]
        if not missing:
            return []
        if speculative != "force":
            if (len(items) < 16 or not arrival_ts
                    or len(items) - len(arrived) > max(1, len(items) // 20)):
                return []
            stall = time.time() - arrival_ts[-1]
            gaps = np.diff(np.asarray(arrival_ts[-64:]))
            if stall < max(2.0, 6.0 * (float(np.median(gaps))
                                       if gaps.size else 0.0)):
                return []
        backed_up.update(missing)
        return [scan_block.remote([items[k]], *args) for k in missing]

    while len(arrived) < len(items):
        while queued and len(primary) < window:
            blk = queued.pop()
            started.add(blk[0]["block"])
            ref = scan_block.remote(blk, *args)
            primary.add(ref)
            pending.append(ref)
        if speculative == "force":
            # test hook: duplicate every started item from t=0 so the
            # arrival dedup runs under total duplication, not just the tail
            pending += _backups()
        if not pending:
            raise RuntimeError(
                f"row phase ended with {len(items) - len(arrived)}"
                " scan items unaccounted for")
        ready, pending = ray.wait(pending, num_returns=1, timeout=0.25)
        if not ready:
            pending += _backups()
            continue
        primary.discard(ready[0])
        try:
            out = ray.get(ready[0])
            whole = []  # pids whose last item is in this result
            for pid, cols, p in out:
                key = (pid, tuple(p["item"]))
                if key in arrived:
                    continue  # slower copy of a backed-up item
                arrived.add(key)
                arrival_ts.append(time.time())
                pend_stats.setdefault(pid, []).append(p)
                acc = pend_viol.setdefault(pid, {k: [] for k in cols})
                for k, v in cols.items():
                    acc[k] += v
                left[pid] -= 1
                if not left[pid]:
                    whole.append(pid)
            if len(arrived) == len(items):
                on_last()
            for pid in whole:
                commit(pid, pend_viol.pop(pid), pend_stats.pop(pid))
        except Exception:
            # stop the other scans, so none keeps writing sidecars or clean
            # output into out_dir after this run has raised
            if pending:
                for ref in pending:
                    ray.cancel(ref)
                ray.wait(pending, num_returns=len(pending), timeout=10)
            raise


def _input_sig(path: str) -> list[int]:
    """[size, mtime_ns] of an input file, as its manifest records it."""
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns]


def _keep_committed(store: ManifestStore, sigs: dict, viol_dir: str,
                    c1_dir: str, clean_dir: str | None) -> tuple[dict, int]:
    """The committed partitions this run keeps, pid -> manifest, and the
    number dropped. One is kept per input file still present and unchanged
    (its manifest's size and mtime_ns equal ``sigs[file]``; the lowest pid
    when two manifests claim the same file) whose manifest names its scan
    ``items`` and every file of which is still there: its violations part,
    its ``stats_file``, the sidecars of its items in ``c1_dir`` and, when
    ``clean_dir`` is given, their clean parts in it. Every other partition
    is dropped with its stats and is re-scanned: a deleted and re-added
    file, one rewritten in place, one that lost any of its files, and every
    partition of an out dir written before manifests named their items.
    Then every violations part without a kept manifest, every file in
    ``c1_dir`` and every ``clean-*.parquet[.tmp<pid>]`` in ``clean_dir``
    that no kept manifest names (a dropped partition's files, a killed
    run's uncommitted ones and ``.tmp`` leftovers) is removed, so a reused
    pid starts clean."""
    present = set(os.listdir(c1_dir))
    cleans = set(os.listdir(clean_dir)) if clean_dir is not None else set()
    viol_parts = set(os.listdir(viol_dir))
    stored = set(os.listdir(store.root))
    seen, keep, named = set(), {}, set()
    parts = [(pid, rec) for pid, rec in store.completed().items()
             if pid != "global"]
    for pid, rec in sorted(parts, key=lambda kv: kv[0]):
        frag = rec.get("input_fragment")
        sig = [rec.get("input_size"), rec.get("input_mtime_ns")]
        items = rec.get("items", ())
        names = {sidecar_name(pid, lo, hi) for lo, hi in items}
        clean = ({clean_name(pid, lo) for lo, _ in items}
                 if clean_dir is not None else set())
        if (frag in sigs and frag not in seen and sig == sigs[frag]
                and names and names <= present and clean <= cleans
                and rec.get("stats_file") in stored
                and _part_name(pid) in viol_parts):
            seen.add(frag)
            keep[pid] = rec
            named |= names | clean
        else:
            store.drop(pid)
    for name in present - named:
        os.remove(os.path.join(c1_dir, name))
    for name in cleans - named:
        if re.fullmatch(r"clean-\d+-\d+\.parquet(\.tmp\d*)?", name):
            os.remove(os.path.join(clean_dir, name))
    for name in viol_parts:
        m = re.match(r"part-(\d+)", name)
        if m and int(m.group(1)) not in keep:
            os.remove(os.path.join(viol_dir, name))
    return keep, len(parts) - len(keep)


def _part_name(pid: int) -> str:
    """Violations-part filename of one partition."""
    return f"part-{pid:05d}.parquet"


def load_violations(out_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(out_dir, "violations", "*.parquet")))
    tables = [pq.read_table(f) for f in files]
    return pa.concat_tables(tables) if tables else VIOLATIONS_SCHEMA.empty_table()


def _per_check_counts(viol: pa.Table) -> dict[str, int]:
    ids, counts = pc.value_counts(viol["check_id"]).flatten()
    return dict(zip(ids.to_pylist(), counts.to_pylist()))


