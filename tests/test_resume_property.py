"""Resume-equals-fresh property (SURVEY.md §5.4): kill a run after k committed
partitions, resume, and the final outputs are identical to an uninterrupted
run."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from lk_data_test_ray.pipelines.validate import load_violations, run_validation


def _run(fix, out):
    return run_validation(
        os.path.join(fix, "pages"), out,
        lang_hist_path=os.path.join(fix, "lang_hist.parquet"),
    )


def _spy_scans(monkeypatch):
    """The pid of every scan item submitted from now on, in order."""
    from lk_data_test_ray.checks import row

    pids, real = [], row.scan_block.remote

    def spy(items, *args):
        pids.extend(it["pid"] for it in items)
        return real(items, *args)

    monkeypatch.setattr(row.scan_block, "remote", spy)
    return pids


def _named_sidecars(out):
    """The sidecar names the out dir's partition manifests name."""
    from lk_data_test_ray.checks.row import sidecar_name
    from lk_data_test_ray.state.manifest import ManifestStore

    return sorted(sidecar_name(pid, lo, hi) for pid, rec in ManifestStore(
        os.path.join(out, "manifests")).completed().items()
        if pid != "global" for lo, hi in rec["items"])


def test_kill_after_k_partitions_then_resume(pages_fixture, tmp_path):
    fresh_dir = str(tmp_path / "fresh")
    killed_dir = str(tmp_path / "killed")

    s_fresh = _run(pages_fixture, fresh_dir)

    # simulate a run killed after 6 committed partitions: run fully, then
    # delete everything past partition 5 (manifests AND data — as if never
    # written) plus the global outputs
    _run(pages_fixture, killed_dir)
    mdir = os.path.join(killed_dir, "manifests")
    vdir = os.path.join(killed_dir, "violations")
    for pid in range(6, 16):
        os.remove(os.path.join(mdir, f"part-{pid}.json"))
        os.remove(os.path.join(mdir, f"stats-{pid}.pkl"))
        os.remove(os.path.join(vdir, f"part-{pid:05d}.parquet"))
    os.remove(os.path.join(mdir, "part-global.json"))
    os.remove(os.path.join(vdir, "global.parquet"))
    os.remove(os.path.join(killed_dir, "summary.json"))

    s_resumed = _run(pages_fixture, killed_dir)

    assert s_resumed["per_check_violations"] == s_fresh["per_check_violations"]
    assert s_resumed["n_rows"] == s_fresh["n_rows"]

    va = load_violations(fresh_dir).sort_by([("check_id", "ascending"),
                                             ("url", "ascending")])
    vb = load_violations(killed_dir).sort_by([("check_id", "ascending"),
                                              ("url", "ascending")])
    assert va.equals(vb)

    # byte-identical per-partition violation files for untouched partitions
    for pid in range(0, 16):
        fa = os.path.join(fresh_dir, "violations", f"part-{pid:05d}.parquet")
        fb = os.path.join(killed_dir, "violations", f"part-{pid:05d}.parquet")
        assert pq.read_table(fa).equals(pq.read_table(fb))


def test_generator_is_pure(tmp_path):
    """Same (seed, n) → byte-identical parquet content (permutation-invariant
    inputs to the engine are guaranteed by generation determinism)."""
    from lk_data_test_ray.sources.pages import generate_pages

    d1, d2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    generate_pages(d1, 2000, seed=9)
    generate_pages(d2, 2000, seed=9)
    t1 = pq.read_table(os.path.join(d1, "pages"))
    t2 = pq.read_table(os.path.join(d2, "pages"))
    assert t1.equals(t2)
    shutil.rmtree(d1)
    shutil.rmtree(d2)


def test_midstream_kill_then_resume(pages_fixture, tmp_path):
    """Kill DURING the streaming row phase (a commit raises after 5
    partitions land) — the partitions already committed must survive and a
    resume must converge to exactly the uninterrupted run's outputs. This
    exercises the ray.wait drain loop's per-partition commit path
    directly."""
    from lk_data_test_ray.state.manifest import ManifestStore

    fresh_dir = str(tmp_path / "fresh2")
    killed_dir = str(tmp_path / "killed2")
    s_fresh = _run(pages_fixture, fresh_dir)

    real_commit = ManifestStore.commit
    state = {"n": 0}

    def dying_commit(self, pid, record, stats=None):
        if pid != "global" and state["n"] >= 5:
            raise RuntimeError("simulated driver death mid-stream")
        state["n"] += 1
        return real_commit(self, pid, record, stats=stats)

    ManifestStore.commit = dying_commit
    try:
        try:
            _run(pages_fixture, killed_dir)
            raise AssertionError("expected the simulated death to surface")
        except RuntimeError:
            pass
    finally:
        ManifestStore.commit = real_commit

    committed = ManifestStore(os.path.join(killed_dir, "manifests")).completed()
    assert 1 <= len(committed) <= 6  # partial progress survived, no global

    s_resumed = _run(pages_fixture, killed_dir)
    assert s_resumed["per_check_violations"] == s_fresh["per_check_violations"]
    assert s_resumed["n_rows"] == s_fresh["n_rows"]
    got = load_violations(killed_dir)
    want = load_violations(fresh_dir)

    def key_set(t):
        return sorted(zip(t["check_id"].to_pylist(), t["url"].to_pylist()))

    assert key_set(got) == key_set(want)


def test_failing_scan_task_raises_then_resume_equals_fresh(pages_fixture,
                                                          tmp_path):
    """A scan task that raises surfaces from run_validation promptly: the
    drain loop neither hangs nor swallows it. The last input's first page
    header is overwritten while its footer stays valid, so the driver
    plans the file and the worker's read fails. With one file per task and
    one task in flight, every other partition lands first, and those
    commits stay. Once the file is restored, a resume equals a fresh run."""
    import glob
    import time

    from lk_data_test_ray.state.manifest import ManifestStore

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    hist = os.path.join(pages_fixture, "lang_hist.parquet")
    inp = tmp_path / "in"
    inp.mkdir()
    for f in src:
        shutil.copy(f, inp / os.path.basename(f))
    bad = str(inp / os.path.basename(src[-1]))
    with open(bad, "rb") as fh:
        raw = fh.read()
    with open(bad, "r+b") as fh:
        fh.seek(4)  # past the leading magic: the first data page header
        fh.write(b"\xff" * 64)
    assert pq.ParquetFile(bad).metadata.num_rows > 0

    out = str(tmp_path / "out")
    t0 = time.time()
    with pytest.raises(Exception, match="page header"):
        run_validation(str(inp), out, lang_hist_path=hist,
                       scan_target_rows=1, concurrency=1)
    assert time.time() - t0 < 120
    done = ManifestStore(os.path.join(out, "manifests")).completed()
    assert sorted(done) == list(range(len(src) - 1))

    with open(bad, "wb") as fh:
        fh.write(raw)
    resumed = run_validation(str(inp), out, lang_hist_path=hist)
    assert resumed["rows_scanned"] == pq.ParquetFile(bad).metadata.num_rows
    fresh_dir = str(tmp_path / "fresh")
    fresh = run_validation(str(inp), fresh_dir, lang_hist_path=hist)
    # what each run did (walls, rows scanned, tasks) differs; what it
    # found may not
    work = {"phase_wall", "wall_sec", "rows_per_sec", "rows_scanned",
            "scan_items", "scan_tasks"}
    assert ({k: v for k, v in resumed.items() if k not in work}
            == {k: v for k, v in fresh.items() if k not in work})
    order = [("check_id", "ascending"), ("url", "ascending"),
             ("detail", "ascending")]
    assert load_violations(out).sort_by(order).equals(
        load_violations(fresh_dir).sort_by(order))


def test_resume_feeds_c1_from_sidecars(pages_fixture, tmp_path, monkeypatch):
    """A resume run must feed committed partitions' C1 hashes from the
    persisted .arrow sidecars: with every partition committed it submits
    no scan item at all, and its verdicts still match a fresh run."""
    import glob

    fresh_dir = str(tmp_path / "fresh")
    resumed_dir = str(tmp_path / "resumed")
    s_fresh = _run(pages_fixture, fresh_dir)

    _run(pages_fixture, resumed_dir)
    assert glob.glob(os.path.join(resumed_dir, "c1", "*.arrow"))
    # drop the global manifest so the run re-executes ONLY the global phase,
    # with every partition already committed → the feed covers all of them
    for p in glob.glob(os.path.join(resumed_dir, "manifests", "*global*")):
        os.remove(p)

    scanned = _spy_scans(monkeypatch)
    s_resumed = _run(pages_fixture, resumed_dir)
    assert scanned == [] and s_resumed["rows_scanned"] == 0
    assert (s_resumed["per_check_violations"]
            == s_fresh["per_check_violations"])


def test_missing_sidecar_rescans_only_its_partition(pages_fixture, tmp_path,
                                                  monkeypatch):
    """A kept partition is one whose manifest's items all have their
    sidecars in c1/. Three files of 4 row groups, 4 items each: deleting
    one sidecar of the second file re-scans that file alone (under a fresh
    pid), and an unnamed ``item-*.arrow`` plus ``.tmp`` leftovers in c1/
    are removed. The resume equals a fresh run, and the next one scans
    nothing."""
    import glob

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp = tmp_path / "in"
    inp.mkdir()
    files = [str(inp / os.path.basename(f)) for f in src[:3]]
    for f, d in zip(src, files):
        pq.write_table(pq.read_table(f), d, row_group_size=100)
    assert pq.read_metadata(files[1]).num_row_groups == 4
    out = str(tmp_path / "out")
    run_validation(str(inp), out, scan_target_rows=100)
    c1 = os.path.join(out, "c1")
    assert sorted(os.listdir(c1)) == _named_sidecars(out)
    assert len(os.listdir(c1)) == 12

    os.remove(os.path.join(c1, "item-00001-00002-00003.arrow"))
    junk = ["item-00000-00007-00009.arrow",
            "item-00002-00000-00001.arrow.tmp4242", "stray.tmp"]
    for name in junk:
        with open(os.path.join(c1, name), "wb") as fh:
            fh.write(b"x")
    scanned = _spy_scans(monkeypatch)
    s = run_validation(str(inp), out)
    assert scanned == [3]
    assert s["rows_scanned"] == pq.read_metadata(files[1]).num_rows
    assert not set(junk) & set(os.listdir(c1))
    assert sorted(os.listdir(c1)) == _named_sidecars(out)
    _same_outputs(out, s, str(tmp_path / "fresh"),
                  run_validation(str(inp), str(tmp_path / "fresh")))

    del scanned[:]
    s = run_validation(str(inp), out)
    assert scanned == [] and s["rows_scanned"] == 0


def test_incremental_append_sorts_first(pages_fixture, tmp_path, ray_session):
    """Incremental (daily-append) correctness: a NEW input file that sorts
    BEFORE the committed ones must be validated — under positional
    partition ids it would inherit a committed id and be silently
    skipped while the shifted file is re-scanned and double-counted.
    Resume keys on the manifest's input_fragment, so (a) the second run
    scans ONLY the new file (old manifests byte-untouched), and (b) the
    merged summary equals a fresh full-directory run."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.validate import (load_violations,
                                                     run_validation)

    src = os.path.join(pages_fixture, "pages")
    parts = sorted(os.listdir(src))
    inc_in = tmp_path / "inc_in"
    inc_in.mkdir()
    # day 1: every file except the first; name them so the day-2 arrival
    # sorts FIRST in the directory listing
    for p in parts[1:]:
        shutil.copy(os.path.join(src, p), inc_in / p)
    out1 = str(tmp_path / "out_inc")
    run_validation(str(inc_in), out1)
    man_dir = os.path.join(out1, "manifests")
    before = {f: os.path.getmtime(os.path.join(man_dir, f))
              for f in os.listdir(man_dir) if f != "part-global.json"
              and not f.startswith("stats-")}

    # day 2: the append that sorts before everything already committed
    shutil.copy(os.path.join(src, parts[0]), inc_in / "00-new.parquet")
    s2 = run_validation(str(inc_in), out1)

    # fresh full run over the same final directory
    out_f = str(tmp_path / "out_fresh")
    sf = run_validation(str(inc_in), out_f)

    assert s2["n_rows"] == sf["n_rows"]
    assert s2["per_check_violations"] == sf["per_check_violations"]
    inc_v = load_violations(out1).to_pandas()
    fre_v = load_violations(out_f).to_pandas()
    key = ["check_id", "url", "detail"]
    assert (inc_v[key].sort_values(key).reset_index(drop=True)
            .equals(fre_v[key].sort_values(key).reset_index(drop=True)))
    # committed day-1 manifests were not rewritten (no re-scan, no
    # double count)
    after = {f: os.path.getmtime(os.path.join(man_dir, f))
             for f in before}
    assert after == before
    # the new file got a FRESH id and its manifest records its fragment
    import json as _json

    recs = []
    for f in os.listdir(man_dir):
        if f.startswith("part-") and f.endswith(".json") \
                and f != "part-global.json":
            with open(os.path.join(man_dir, f)) as fh:
                recs.append(_json.load(fh))
    frags = {os.path.basename(r["input_fragment"]) for r in recs}
    assert "00-new.parquet" in frags
    n_new = pq.read_metadata(str(inc_in / "00-new.parquet")).num_rows
    new_rec = [r for r in recs
               if r["input_fragment"].endswith("00-new.parquet")][0]
    assert new_rec["n_rows"] == n_new


def test_incremental_delete_shrinks_summary(pages_fixture, tmp_path,
                                            ray_session):
    """Deleting an input file and re-running must shrink the summary to
    the surviving files — a stale manifest (or its violations parquet)
    must not inflate totals or leak into load_violations."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.validate import (load_violations,
                                                     run_validation)

    src = os.path.join(pages_fixture, "pages")
    parts = sorted(os.listdir(src))[:3]
    inc_in = tmp_path / "del_in"
    inc_in.mkdir()
    for p in parts:
        shutil.copy(os.path.join(src, p), inc_in / p)
    out = str(tmp_path / "out_del")
    run_validation(str(inc_in), out)

    os.remove(inc_in / parts[0])
    s2 = run_validation(str(inc_in), out)

    out_f = str(tmp_path / "out_del_fresh")
    sf = run_validation(str(inc_in), out_f)
    assert s2["n_rows"] == sf["n_rows"] == sum(
        pq.read_metadata(str(inc_in / p)).num_rows for p in parts[1:])
    assert s2["per_check_violations"] == sf["per_check_violations"]
    key = ["check_id", "url", "detail"]
    a = load_violations(out).to_pandas()
    b = load_violations(out_f).to_pandas()
    assert (a[key].sort_values(key).reset_index(drop=True)
            .equals(b[key].sort_values(key).reset_index(drop=True)))


def _same_outputs(out_a, sa, out_b, sb):
    assert sa["n_rows"] == sb["n_rows"]
    assert sa["per_check_violations"] == sb["per_check_violations"]
    key = ["check_id", "url", "detail"]
    a = load_violations(out_a).to_pandas()[key]
    b = load_violations(out_b).to_pandas()[key]
    assert (a.sort_values(key).reset_index(drop=True)
            .equals(b.sort_values(key).reset_index(drop=True)))


def test_delete_then_readd_equals_fresh(pages_fixture, tmp_path):
    """A deleted input's partition is dropped whole (manifest, stats,
    violations part, C1 sidecars): re-adding the file re-scans it, and a
    new file that reuses the freed pid is not tiled by stale sidecars."""
    import glob

    src = os.path.join(pages_fixture, "pages")
    parts = sorted(os.listdir(src))[:4]
    inp = tmp_path / "in"
    inp.mkdir()
    for p in parts[:3]:
        shutil.copy(os.path.join(src, p), inp / p)
    out = str(tmp_path / "out")
    run_validation(str(inp), out)
    man, c1 = os.path.join(out, "manifests"), os.path.join(out, "c1")
    assert glob.glob(os.path.join(c1, "item-00000-*.arrow"))

    # delete the first file: its whole partition goes
    os.remove(inp / parts[0])
    run_validation(str(inp), out)
    assert not os.path.exists(os.path.join(man, "part-0.json"))
    assert not os.path.exists(os.path.join(man, "stats-0.pkl"))
    assert not os.path.exists(os.path.join(out, "violations",
                                           "part-00000.parquet"))
    assert not glob.glob(os.path.join(c1, "item-00000-*"))

    # re-add it: re-scanned, summary and violations equal a fresh run
    shutil.copy(os.path.join(src, parts[0]), inp / parts[0])
    s = run_validation(str(inp), out)
    fresh = str(tmp_path / "fresh")
    _same_outputs(out, s, fresh, run_validation(str(inp), fresh))

    # delete the file holding the highest pid and add a different one: the
    # new file reuses that pid; a sidecar-fed resume must still be exact
    top = max(int(f[5:-5]) for f in os.listdir(man)
              if f.startswith("part-") and f[5:-5].isdigit())
    import json

    with open(os.path.join(man, f"part-{top}.json")) as f:
        os.remove(json.load(f)["input_fragment"])
    run_validation(str(inp), out)
    shutil.copy(os.path.join(src, parts[3]), inp / parts[3])
    run_validation(str(inp), out)
    with open(os.path.join(man, f"part-{top}.json")) as f:
        assert json.load(f)["input_fragment"].endswith(parts[3])
    os.remove(os.path.join(man, "part-global.json"))
    s = run_validation(str(inp), out)
    fresh2 = str(tmp_path / "fresh2")
    _same_outputs(out, s, fresh2, run_validation(str(inp), fresh2))


def test_duplicate_fragment_manifests_equal_fresh(pages_fixture, tmp_path):
    """Two manifests claiming one input file (a dirty out dir) count it
    once on resume, and resume=False starts from an empty store."""
    import pickle

    src = os.path.join(pages_fixture, "pages")
    inp = tmp_path / "in"
    inp.mkdir()
    for p in sorted(os.listdir(src))[:3]:
        shutil.copy(os.path.join(src, p), inp / p)
    fresh = str(tmp_path / "fresh")
    sf = run_validation(str(inp), fresh)

    def dirty(out):
        # a copy of partition 1 committed again under pid 7
        man = os.path.join(out, "manifests")
        import json

        with open(os.path.join(man, "part-1.json")) as f:
            rec = json.load(f)
        rec["partition_id"] = 7
        with open(os.path.join(man, "part-7.json"), "w") as f:
            json.dump(rec, f)
        with open(os.path.join(man, "stats-1.pkl"), "rb") as f:
            stats = pickle.load(f)
        with open(os.path.join(man, "stats-7.pkl"), "wb") as f:
            pickle.dump(stats, f)
        shutil.copy(os.path.join(out, "violations", "part-00001.parquet"),
                    os.path.join(out, "violations", "part-00007.parquet"))

    out = str(tmp_path / "out")
    run_validation(str(inp), out)
    dirty(out)
    _same_outputs(out, run_validation(str(inp), out), fresh, sf)
    assert not os.path.exists(os.path.join(out, "manifests", "part-7.json"))

    dirty(out)
    _same_outputs(out, run_validation(str(inp), out, resume=False), fresh, sf)
    assert sorted(os.listdir(os.path.join(out, "manifests"))) == sorted(
        os.listdir(os.path.join(fresh, "manifests")))


def _copy_with_urls(src, dst, urls_at=None, suffix=""):
    """Write a copy of one pages file, with rows' urls replaced (row index
    -> url) and ``suffix`` appended to every other url."""
    t = pq.read_table(src)
    urls = [u + suffix for u in t["url"].to_pylist()]
    for i, u in (urls_at or {}).items():
        urls[i] = u
    t = t.set_column(t.schema.get_field_index("url"), "url",
                     pa.array(urls, pa.string()))
    pq.write_table(t, dst)


def _urls(files):
    return {f: pq.read_table(f, columns=["url"])["url"].to_pylist()
            for f in files}


def _dup_urls(by_file):
    from collections import Counter

    c = Counter(u for us in by_file.values() for u in us)
    return {u for u, n in c.items() if n > 1}


def test_chained_append_counts_dups_from_sidecars(pages_fixture, tmp_path,
                                                  monkeypatch, caplog):
    """Chained appends: a new file duplicates an old url, a later one takes
    that url to 3 copies, a third adds a dup of an old file, a fourth a
    second dup of the first old file, a fifth none. Every step equals a
    fresh run and scans only the new file: the committed files feed C1
    from their sidecars alone. The summary and the one INFO event report
    the step honestly, ``verify_files`` counting every file, old or new,
    that holds a duplicated url."""
    import glob
    import logging

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp = tmp_path / "in"
    inp.mkdir()
    for f in src[:3]:
        shutil.copy(f, inp / os.path.basename(f))
    out = str(tmp_path / "out")
    run_validation(str(inp), out)
    url0, url1 = pq.read_table(src[0], columns=["url"])["url"][:2]
    url0, url1 = url0.as_py(), url1.as_py()

    scanned = _spy_scans(monkeypatch)
    caplog.set_level(logging.INFO, logger="lk_data_test_ray")
    steps = [("a1.parquet", lambda d: _copy_with_urls(src[3], d, {0: url0})),
             ("a2.parquet", lambda d: _copy_with_urls(src[4], d, {0: url0})),
             # src[10] repeats a url of src[1]: an old file's first dup
             (os.path.basename(src[10]), lambda d: shutil.copy(src[10], d)),
             # a second dup in src[0]
             ("a3.parquet", lambda d: _copy_with_urls(src[5], d, {0: url1})),
             # no new dup at all
             ("a4.parquet", lambda d: _copy_with_urls(src[6], d))]
    for i, (name, write) in enumerate(steps):
        old = sorted(glob.glob(str(inp / "*.parquet")))
        new = str(inp / name)
        write(new)
        by_file = _urls([*old, new])
        after = _dup_urls(by_file)
        holding = [f for f in by_file if set(by_file[f]) & after]
        caplog.clear()
        del scanned[:]
        s = run_validation(str(inp), out)
        assert s["c1"] == {"verify_files": len(holding),
                           "candidates": len(after)}
        assert scanned == [len(old)]  # the new file's fresh pid only
        assert s["rows_scanned"] == len(by_file[new])
        assert s["rows_per_sec"] < s["n_rows"] / s["wall_sec"]
        events = [r.resume for r in caplog.records if hasattr(r, "resume")]
        assert events == [{**s["c1"], "partitions_kept": len(old),
                           "partitions_dropped": 0,
                           "partitions_scanned": 1, "scan_items": 1,
                           "scan_tasks": 1}]
        assert (s["scan_items"], s["scan_tasks"]) == (1, 1)
        fresh = str(tmp_path / f"fresh{i}")
        _same_outputs(out, s, fresh, run_validation(str(inp), fresh))
    assert s["per_check_violations"]["c1_url_unique"] == len(after)
    c1 = [r for r in load_violations(out).to_pylist()
          if r["check_id"] == "c1_url_unique"]
    assert {r["url"]: r["detail"] for r in c1}[url0] == "count=3"
    # C1 rows come out sorted by url
    assert [r["url"] for r in c1] == sorted(after)


def test_inplace_rewrite_equals_fresh(pages_fixture, tmp_path):
    """A committed file rewritten in place (same path, new urls) no longer
    matches the size/mtime_ns its manifest recorded: its partition is
    dropped and re-scanned, and the resume equals a fresh run. A manifest
    without those fields counts as a mismatch too."""
    import glob
    import json

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp = tmp_path / "in"
    inp.mkdir()
    for f in src[:4]:
        shutil.copy(f, inp / os.path.basename(f))
    out = str(tmp_path / "out")
    run_validation(str(inp), out)

    target = str(inp / os.path.basename(src[2]))
    url0 = pq.read_table(src[0], columns=["url"])["url"][0].as_py()
    # new urls everywhere, plus a duplicate of an untouched file's url
    _copy_with_urls(src[2], target, {5: url0}, suffix="?rev=2")
    s = run_validation(str(inp), out)
    assert s["rows_scanned"] == pq.read_metadata(target).num_rows
    assert s["per_check_violations"]["c1_url_unique"] >= 1
    _same_outputs(out, s, str(tmp_path / "fresh"),
                  run_validation(str(inp), str(tmp_path / "fresh")))

    # an older manifest without the input signature is re-scanned
    man = os.path.join(out, "manifests", "part-1.json")
    with open(man) as f:
        rec = json.load(f)
    del rec["input_size"], rec["input_mtime_ns"]
    with open(man, "w") as f:
        json.dump(rec, f)
    s = run_validation(str(inp), out)
    assert s["rows_scanned"] == pq.read_metadata(rec["input_fragment"]).num_rows
    _same_outputs(out, s, str(tmp_path / "fresh2"),
                  run_validation(str(inp), str(tmp_path / "fresh2")))


def test_pid_reuse_never_reads_stale_c1_rows(pages_fixture, tmp_path,
                                             monkeypatch):
    """The highest-pid file holds a duplicate (so its sidecars carry the
    duplicated url). Delete it, run: its sidecars go. Add a different file
    that reuses the pid: equal to a fresh run, and the pid's sidecars hold
    that file's urls only. Then swap that file for a third one reusing the
    pid in a run that dies after its commits, before the global phase: the
    next run must not count the second file's rows."""
    import glob

    from lk_data_test_ray.checks.row import read_sidecar
    from lk_data_test_ray.pipelines import validate as v

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp = tmp_path / "in"
    inp.mkdir()
    for f in src[:3]:
        shutil.copy(f, inp / os.path.basename(f))
    url0 = pq.read_table(src[0], columns=["url"])["url"][0].as_py()
    z, y, x = (str(inp / n) for n in ("z.parquet", "y.parquet", "x.parquet"))
    _copy_with_urls(src[4], z, {0: url0})
    out = str(tmp_path / "out")
    run_validation(str(inp), out)

    def pid3_urls():
        return sorted(u for sp in glob.glob(os.path.join(
            out, "c1", "item-00003-*.arrow"))
            for u in read_sidecar(sp)[1].to_pylist())

    assert pid3_urls() == sorted(_urls([z])[z])
    assert url0 in pid3_urls()

    def check(tag, s):
        fresh = str(tmp_path / f"fresh_{tag}")
        _same_outputs(out, s, fresh, run_validation(str(inp), fresh))

    os.remove(z)
    check("deleted", run_validation(str(inp), out))
    assert pid3_urls() == []
    _copy_with_urls(src[5], y, {0: url0, 1: url0})
    check("reused", run_validation(str(inp), out))
    assert pid3_urls() == sorted(_urls([y])[y])
    assert pid3_urls().count(url0) == 2

    os.remove(y)
    _copy_with_urls(src[6], x, {0: url0, 1: url0, 2: url0})

    def die(*a, **k):
        raise RuntimeError("simulated death before the global phase")

    with monkeypatch.context() as m:
        m.setattr(v, "verify_candidates", die)
        with pytest.raises(RuntimeError, match="simulated death"):
            run_validation(str(inp), out)
    s = run_validation(str(inp), out)
    assert s["rows_scanned"] == 0
    assert pid3_urls() == sorted(_urls([x])[x])
    check("crashed", s)
    c1 = {r["url"]: r["detail"] for r in load_violations(out).to_pylist()
          if r["check_id"] == "c1_url_unique"}
    assert c1[url0] == "count=4"


def test_verify_candidates_exact_under_u64_collision(tmp_path):
    """Unit: hand-written sidecars where two distinct urls share one u64
    hash in each half of the hash space, and two null urls share a third.
    The files need not exist (no input is read after the scan); for 1, 2
    and 4 ranges the per-url counts are exact, nulls are not counted,
    every colliding hash is a candidate, and the files holding one are
    counted."""
    import numpy as np

    from lk_data_test_ray.checks.row import write_sidecar
    from lk_data_test_ray.checks.uniqueness import (collector_candidates,
                                                    make_collectors,
                                                    verify_candidates)
    from lk_data_test_ray.functions.hashing import hash_strings64

    hc, hd = hash_strings64(np.array(["c", "d"], dtype=object))
    # "a"/"b" share H and "x"/"y" share G; N holds two null urls
    H, H2, G, N = 12345, 777, 2**63 + 99, 2**62 + 3
    feeds = {"f0.parquet": [(H2, "z"), (H, "a"), (G, "x"), (N, None)],
             "f1.parquet": [(H, "b"), (H, "b"), (G, "y"), (N, None)],
             "f2.parquet": [(int(hc), "c"), (int(hd), "d"), (int(hc), "c")],
             "f3.parquet": [(1, "e")]}
    scs = []
    for f, rows in feeds.items():
        sp = str(tmp_path / (f + ".arrow"))
        write_sidecar(sp, np.array([h for h, _ in rows], np.uint64),
                      pa.array([u for _, u in rows], pa.string()))
        scs.append((str(tmp_path / f), sp))
    for n in (1, 2, 4):
        cols = make_collectors(scs, n)
        assert sorted(collector_candidates(cols).tolist()) == sorted(
            [H, G, N, int(hc)])
        dups, counts = verify_candidates(cols)
        assert dups.to_pylist() == [{"url": "b", "count": 2},
                                    {"url": "c", "count": 2}]
        assert counts == {"verify_files": 3}


def test_concurrent_runs_keep_their_own_c1(pages_fixture, tmp_path,
                                           monkeypatch):
    """Two run_validation calls overlap in one driver: run A's first commit
    (after its first block, which holds a duplicate url pair) runs a whole
    run B on other inputs and another out dir before it returns. Each
    run's verdicts and violations equal the same run done alone, so B's C1
    exchange neither drops nor adds any of A's hashes."""
    import glob

    from lk_data_test_ray.state.manifest import ManifestStore

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    in_a, in_b = tmp_path / "in_a", tmp_path / "in_b"
    in_a.mkdir()
    in_b.mkdir()
    url0 = pq.read_table(src[0], columns=["url"])["url"][0].as_py()
    _copy_with_urls(src[0], str(in_a / "a0.parquet"), {1: url0})
    for f in src[1:4]:
        shutil.copy(f, in_a / os.path.basename(f))
    url8 = pq.read_table(src[8], columns=["url"])["url"][0].as_py()
    _copy_with_urls(src[11], str(in_b / "b0.parquet"), {0: url8})
    for f in src[8:11]:
        shutil.copy(f, in_b / os.path.basename(f))
    rows = pq.read_metadata(src[0]).num_rows

    def run_a(out):
        return run_validation(str(in_a), out, concurrency=1,
                              scan_target_rows=rows)

    def run_b(out):
        return run_validation(str(in_b), out)

    alone_a, alone_b = str(tmp_path / "alone_a"), str(tmp_path / "alone_b")
    sa_alone, sb_alone = run_a(alone_a), run_b(alone_b)
    assert sa_alone["scan_tasks"] == 4
    assert sa_alone["per_check_violations"]["c1_url_unique"] >= 1
    assert sb_alone["per_check_violations"]["c1_url_unique"] >= 2

    out_a, out_b = str(tmp_path / "out_a"), str(tmp_path / "out_b")
    real_commit = ManifestStore.commit
    nested = {}

    def commit(self, pid, record, stats=None):
        real_commit(self, pid, record, stats=stats)
        if self.root.startswith(out_a) and not nested:
            nested["b"] = None
            nested["b"] = run_b(out_b)

    monkeypatch.setattr(ManifestStore, "commit", commit)
    sa = run_a(out_a)
    sb = nested["b"]
    _same_outputs(out_a, sa, alone_a, sa_alone)
    _same_outputs(out_b, sb, alone_b, sb_alone)


def test_npz_sidecar_out_dir_upgrades_on_first_resume(pages_fixture,
                                                      tmp_path, monkeypatch):
    """An out dir of an older layout: manifests that record
    ``input_row_groups`` instead of naming their items, and sidecars of
    the two older formats, half three-member ``.npz`` files (``h``, ``c``,
    ``item_key``) and half 2-row ``(hash, count)`` ``.npy`` arrays, beside
    an older ``verified.parquet`` verify table. The first resume drops
    every partition, re-scans exactly those files, removes every old file
    from c1/ and equals a fresh run; the next resume scans nothing and
    equals a fresh run too."""
    import glob
    import json

    import numpy as np

    from lk_data_test_ray.checks.row import read_sidecar

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp = tmp_path / "in"
    inp.mkdir()
    url0 = pq.read_table(src[0], columns=["url"])["url"][0].as_py()
    for f in src[:3]:
        shutil.copy(f, inp / os.path.basename(f))
    _copy_with_urls(src[3], str(inp / "z.parquet"), {0: url0})
    out = str(tmp_path / "out")
    run_validation(str(inp), out)
    c1 = os.path.join(out, "c1")
    for i, sp in enumerate(sorted(glob.glob(os.path.join(c1, "item-*")))):
        h, c = np.unique(read_sidecar(sp)[0], return_counts=True)
        base = sp[:-len(".arrow")]
        if i < 2:
            np.savez(base, h=h.view(np.int64), c=c,
                     item_key=np.array(f"{sp}:0:1"))
        else:
            np.save(base + ".npy", np.stack([h.view(np.int64), c]))
        os.remove(sp)
    pq.write_table(pa.table({"pid": [3], "h": [1], "url": [url0]}),
                   os.path.join(c1, "verified.parquet"))
    for p in glob.glob(os.path.join(out, "manifests", "part-[0-9]*.json")):
        with open(p) as fh:
            rec = json.load(fh)
        rec["input_row_groups"] = rec.pop("items")[-1][1]
        with open(p, "w") as fh:
            json.dump(rec, fh)
    assert len(glob.glob(os.path.join(c1, "*.npz"))) == 2
    assert len(glob.glob(os.path.join(c1, "*.npy"))) == 2
    fresh = str(tmp_path / "fresh")
    s_fresh = run_validation(str(inp), fresh)
    scanned = _spy_scans(monkeypatch)

    def rerun():
        del scanned[:]
        os.remove(os.path.join(out, "manifests", "part-global.json"))
        return run_validation(str(inp), out)

    s = rerun()
    assert sorted(scanned) == [0, 1, 2, 3]
    assert s["rows_scanned"] == s_fresh["n_rows"]
    assert sorted(os.listdir(c1)) == _named_sidecars(out) == [
        f"item-{pid:05d}-00000-00001.arrow" for pid in range(4)]
    _same_outputs(out, s, fresh, s_fresh)

    s = rerun()
    assert scanned == [] and s["rows_scanned"] == 0
    _same_outputs(out, s, fresh, s_fresh)


def test_c1_starts_while_partitions_commit(pages_fixture, tmp_path,
                                           monkeypatch):
    """The C1 range tasks are submitted at the last scan arrival, before
    that arrival's partition commits, not after all of them: one file per
    scan task, and only the last partition's commit finds
    ``make_collectors`` called. The summary and the violations equal an
    unpatched run."""
    import json
    import threading

    from lk_data_test_ray.pipelines import validate as v
    from lk_data_test_ray.state.manifest import ManifestStore

    def run(out):
        run_validation(os.path.join(pages_fixture, "pages"), out,
                       lang_hist_path=os.path.join(pages_fixture,
                                                   "lang_hist.parquet"),
                       scan_target_rows=1, concurrency=1)

    fresh = str(tmp_path / "fresh")
    run(fresh)
    started = threading.Event()
    real_make, real_commit = v.make_collectors, ManifestStore.commit
    seen = []  # per partition commit, in return order: C1 already started?

    def make_collectors(*a, **k):
        started.set()
        return real_make(*a, **k)

    def commit(self, pid, record, stats=None):
        real_commit(self, pid, record, stats=stats)
        if pid != "global":
            seen.append(started.is_set())

    monkeypatch.setattr(v, "make_collectors", make_collectors)
    monkeypatch.setattr(ManifestStore, "commit", commit)
    out = str(tmp_path / "out")
    run(out)
    n = len(os.listdir(os.path.join(pages_fixture, "pages")))
    assert seen == [False] * (n - 1) + [True]

    def summary(d):
        with open(os.path.join(d, "summary.json")) as f:
            s = json.load(f)
        return {k: x for k, x in s.items()
                if k not in ("phase_wall", "wall_sec", "rows_per_sec")}

    assert summary(out) == summary(fresh)
    assert load_violations(out).equals(load_violations(fresh))


def test_resume_takes_row_groups_from_manifests(pages_fixture, tmp_path,
                                                monkeypatch):
    """Each partition manifest names its scan ``items``, which tile the
    file's row groups, so a resume step opens no parquet footer of a kept
    file in the calling process and scans only the new file. An out dir
    whose manifests lack the key (an older one) re-scans every file once;
    after every step the out dir equals a fresh run in ``summary.json``
    and ``load_violations``."""
    import glob
    import json

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp = tmp_path / "in"
    inp.mkdir()
    for f in src[:3]:
        shutil.copy(f, inp / os.path.basename(f))
    out = str(tmp_path / "out")
    man = os.path.join(out, "manifests")
    run_validation(str(inp), out)

    def part_manifests():
        return [os.path.join(man, n) for n in os.listdir(man)
                if n.startswith("part-") and n != "part-global.json"]

    for p in part_manifests():
        with open(p) as f:
            rec = json.load(f)
        assert rec["items"] == [[0, pq.read_metadata(
            rec["input_fragment"]).num_row_groups]]

    opened = []
    real_pf = pq.ParquetFile

    def spy(source, *a, **k):
        opened.append(str(source))
        return real_pf(source, *a, **k)

    monkeypatch.setattr(pq, "ParquetFile", spy)
    scanned = _spy_scans(monkeypatch)
    work = {"phase_wall", "wall_sec", "rows_per_sec", "rows_scanned",
            "scan_items", "scan_tasks"}
    order = [("check_id", "ascending"), ("url", "ascending"),
             ("detail", "ascending")]

    def step(i, new):
        kept = sorted(str(p) for p in inp.iterdir())
        shutil.copy(new, inp / os.path.basename(new))
        del opened[:], scanned[:]
        s = run_validation(str(inp), out)
        footers, pids = set(opened), list(scanned)
        fresh = str(tmp_path / f"fresh{i}")
        sf = run_validation(str(inp), fresh)
        assert ({k: v for k, v in s.items() if k not in work}
                == {k: v for k, v in sf.items() if k not in work})
        assert load_violations(out).sort_by(order).equals(
            load_violations(fresh).sort_by(order))
        return kept, footers, pids, s

    kept, footers, pids, s = step(0, src[3])
    assert not footers & set(kept)
    assert pids == [3] and s["rows_scanned"] == pq.read_metadata(
        src[3]).num_rows

    for p in part_manifests():
        with open(p) as f:
            rec = json.load(f)
        rec["input_row_groups"] = rec.pop("items")[-1][1]
        with open(p, "w") as f:
            json.dump(rec, f)
    kept, footers, pids, s = step(1, src[4])
    assert set(kept) <= footers
    assert sorted(pids) == list(range(5))
    assert s["rows_scanned"] == s["n_rows"]
    kept, footers, pids, s = step(2, src[5])
    assert not footers & set(kept)
    assert pids == [5] and s["rows_scanned"] == pq.read_metadata(
        src[5]).num_rows


def test_resume_reads_no_committed_input(pages_fixture, tmp_path,
                                         monkeypatch):
    """No input is read after the scan. Commit 3 files, then overwrite one
    with as many zero bytes and restore its mtime_ns, so it still counts
    as committed. A new file repeats one of that file's urls: the resume
    scans only the new file, counts the duplicate from the sidecars alone
    (``count=2``) and equals a fresh run over the original bytes."""
    import glob

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp, orig = tmp_path / "in", tmp_path / "orig"
    inp.mkdir()
    orig.mkdir()
    for f in src[:3]:
        for d in (inp, orig):
            shutil.copy(f, d / os.path.basename(f))
    out = str(tmp_path / "out")
    run_validation(str(inp), out)

    seen = [u for us in _urls(src[:3]).values() for u in us]
    url = next(u for u in _urls([src[1]])[src[1]] if seen.count(u) == 1)
    victim = str(inp / os.path.basename(src[1]))
    st = os.stat(victim)
    with open(victim, "r+b") as fh:
        fh.write(b"\0" * st.st_size)
    os.utime(victim, ns=(st.st_atime_ns, st.st_mtime_ns))
    for d in (inp, orig):
        _copy_with_urls(src[5], str(d / "new.parquet"), {0: url})

    scanned = _spy_scans(monkeypatch)
    s = run_validation(str(inp), out)
    assert scanned == [3]
    assert s["rows_scanned"] == pq.read_metadata(src[5]).num_rows
    c1 = {r["url"]: r["detail"] for r in load_violations(out).to_pylist()
          if r["check_id"] == "c1_url_unique"}
    assert c1[url] == "count=2"
    fresh = str(tmp_path / "fresh")
    _same_outputs(out, s, fresh, run_validation(str(orig), fresh))


def test_c1_null_urls_match_duckdb(pages_fixture, tmp_path):
    """C1's null rule is SQL's: two files each hold a row with a null url,
    beside a real duplicate. C1 reports only the real duplicates, in a
    fresh run and in a resume that appends the second file, exactly as
    DuckDB's ``url IS NOT NULL`` group count over the same files."""
    import glob

    import duckdb

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    real = pq.read_table(src[0], columns=["url"])["url"][1].as_py()
    inp = tmp_path / "in"
    inp.mkdir()
    a, b, c = (str(inp / n) for n in ("a.parquet", "b.parquet", "c.parquet"))
    _copy_with_urls(src[0], a, {0: None})
    shutil.copy(src[2], c)
    out = str(tmp_path / "out")
    run_validation(str(inp), out)
    _copy_with_urls(src[1], b, {0: None, 1: real})
    resumed = run_validation(str(inp), out)
    fresh = str(tmp_path / "fresh")
    s_fresh = run_validation(str(inp), fresh)
    _same_outputs(out, resumed, fresh, s_fresh)

    want = dict(duckdb.sql(
        f"SELECT url, count(*) FROM read_parquet({[a, b, c]!r}) "
        "WHERE url IS NOT NULL GROUP BY url HAVING count(*) > 1").fetchall())
    assert want[real] == 2 and None not in want
    for d, s in ((out, resumed), (fresh, s_fresh)):
        c1 = {r["url"]: r["detail"] for r in load_violations(d).to_pylist()
              if r["check_id"] == "c1_url_unique"}
        assert c1 == {u: f"count={n}" for u, n in want.items()}
        assert s["per_check_violations"]["c1_url_unique"] == len(want)


def _order_free(summary):
    """``summary`` without what depends on partition order: a t-digest
    merge is not commutative byte for byte, and a resume gives re-scanned
    files pids past the kept ones, so its text-length quantiles may differ
    from a fresh run's. Every other stat is an exact merge."""
    return {**summary, "stats": {k: v for k, v in summary["stats"].items()
                                 if k != "textlen_quantiles"}}


def _max_violation_pid(out):
    from lk_data_test_ray.state.manifest import ManifestStore

    done = ManifestStore(os.path.join(out, "manifests")).completed()
    return max((pid for pid in done if pid != "global"),
               key=lambda pid: done[pid]["violation_count"])


@pytest.mark.parametrize("lost", ["stats", "part"])
def test_lost_store_file_rescans_its_partition(pages_fixture, tmp_path,
                                               monkeypatch, lost):
    """A committed partition whose stats pickle or violations part is gone
    is dropped and re-scanned, like one that lost a sidecar: the resume
    equals a fresh run in ``n_rows`` (a lost pickle used to drop its rows
    from the merged stats) and in ``load_violations`` (a lost part used to
    drop its rows while the summary still counted them)."""
    from lk_data_test_ray.state.manifest import ManifestStore

    fresh_dir, out = str(tmp_path / "fresh"), str(tmp_path / "out")
    fresh = _run(pages_fixture, fresh_dir)
    _run(pages_fixture, out)
    pid = _max_violation_pid(out)
    rec = ManifestStore(os.path.join(out, "manifests")).completed()[pid]
    assert rec["violation_count"] > 0
    if lost == "stats":
        os.remove(os.path.join(out, "manifests", rec["stats_file"]))
    else:
        os.remove(os.path.join(out, "violations", f"part-{pid:05d}.parquet"))
    scanned = _spy_scans(monkeypatch)
    s = _run(pages_fixture, out)
    assert len(scanned) == 1 and scanned[0] != pid
    assert s["rows_scanned"] == rec["n_rows"]
    assert s["n_rows"] == fresh["n_rows"]
    assert _order_free(s)["stats"] == _order_free(fresh)["stats"]
    assert load_violations(out).num_rows == load_violations(fresh_dir).num_rows
    _same_outputs(out, s, fresh_dir, fresh)


def test_failing_commit_raises_then_resume_equals_fresh(pages_fixture,
                                                        tmp_path,
                                                        monkeypatch):
    """A partition commit that raises ends the run like a failing scan
    task: the error surfaces, the scans still outstanding are cancelled (no
    file under the out dir changes after the raise), the first partition's
    commit stays, and a resume equals a fresh run."""
    import time

    from lk_data_test_ray.state.manifest import ManifestStore

    hist = os.path.join(pages_fixture, "lang_hist.parquet")
    pages = os.path.join(pages_fixture, "pages")
    real, calls = ManifestStore.commit, []

    def commit(self, pid, record, stats=None):
        if pid != "global":
            calls.append(pid)
            if len(calls) == 2:
                raise RuntimeError("simulated commit failure")
        return real(self, pid, record, stats=stats)

    def listing(d):
        return {os.path.join(r, f): (os.stat(os.path.join(r, f)).st_size,
                                     os.stat(os.path.join(r, f)).st_mtime_ns)
                for r, _, fs in os.walk(d) for f in fs}

    out = str(tmp_path / "out")
    monkeypatch.setattr(ManifestStore, "commit", commit)
    # one file per task, every task submitted at once: the failure lands
    # while most scans are still queued or running
    with pytest.raises(RuntimeError, match="simulated commit failure"):
        run_validation(pages, out, lang_hist_path=hist, scan_target_rows=1)
    monkeypatch.undo()
    after = listing(out)
    time.sleep(1.5)
    assert listing(out) == after
    done = ManifestStore(os.path.join(out, "manifests")).completed()
    assert list(done) == calls[:1]

    resumed = run_validation(pages, out, lang_hist_path=hist)
    fresh_dir = str(tmp_path / "fresh")
    fresh = run_validation(pages, fresh_dir, lang_hist_path=hist)
    work = {"phase_wall", "wall_sec", "rows_per_sec", "rows_scanned",
            "scan_items", "scan_tasks"}
    assert ({k: v for k, v in _order_free(resumed).items() if k not in work}
            == {k: v for k, v in _order_free(fresh).items() if k not in work})
    _same_outputs(out, resumed, fresh_dir, fresh)
