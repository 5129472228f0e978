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
        wave_size=8,
    )


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
    exercises the single-execution iter_batches commit path directly."""
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


def test_resume_feeds_c1_from_sidecars(pages_fixture, tmp_path, monkeypatch):
    """A resume run must feed committed partitions' C1 hashes from the
    persisted .npz sidecars (no parquet re-read): poison the url-read
    fallback and assert the resumed verdicts still match a fresh run."""
    import glob

    import lk_data_test_ray.checks.uniqueness as u
    from lk_data_test_ray.pipelines import validate as v

    fresh_dir = str(tmp_path / "fresh")
    resumed_dir = str(tmp_path / "resumed")
    s_fresh = _run(pages_fixture, fresh_dir)

    _run(pages_fixture, resumed_dir)
    assert glob.glob(os.path.join(resumed_dir, "c1", "*.npz"))
    # drop the global manifest so the run re-executes ONLY the global phase,
    # with every partition already committed → the feed covers all of them
    for p in glob.glob(os.path.join(resumed_dir, "manifests", "*global*")):
        os.remove(p)

    def _boom(*a, **k):
        raise AssertionError("resume fed C1 by re-reading parquet urls — "
                             "sidecars were expected to cover it")

    monkeypatch.setattr(v._feed_collector, "remote", _boom)
    s_resumed = _run(pages_fixture, resumed_dir)
    assert (s_resumed["per_check_violations"]
            == s_fresh["per_check_violations"])


def test_committed_sidecars_tiling(tmp_path):
    """Sidecar discovery globs what the scan wrote and accepts ONLY an
    exact row-group tiling — mixed splits resolve greedily, gaps reject."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lk_data_test_ray.checks.row import committed_sidecars

    f = str(tmp_path / "part.parquet")
    # 8 row groups of 2 rows
    t = pa.table({"x": pa.array(range(16))})
    pq.write_table(t, f, row_group_size=2)
    c1 = tmp_path / "c1"
    c1.mkdir()

    def touch(pid, lo, hi):
        np.savez(str(c1 / f"item-{pid:05d}-{lo:05d}-{hi:05d}.npz"), z=1)

    # incomplete coverage → None
    touch(3, 0, 4)
    assert committed_sidecars(str(c1), 3, f) is None
    # exact tiling → chosen, in range order
    touch(3, 4, 8)
    got = committed_sidecars(str(c1), 3, f)
    assert [os.path.basename(g) for g in got] == [
        "item-00003-00000-00004.npz", "item-00003-00004-00008.npz"]
    # a different run's coarser split mixes in → greedy picks the max-hi walk
    touch(3, 0, 8)
    got = committed_sidecars(str(c1), 3, f)
    assert [os.path.basename(g) for g in got] == ["item-00003-00000-00008.npz"]
    # other pid's sidecars are invisible
    assert committed_sidecars(str(c1), 4, f) is None


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
    assert glob.glob(os.path.join(c1, "item-00000-*.npz"))

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


def test_chained_append_rereads_only_new_dups(pages_fixture, tmp_path,
                                              monkeypatch, caplog):
    """Chained appends: a new file duplicates an old url, a later one takes
    that url to 3 copies, a third adds a dup of an old file, a fourth a
    second dup of the first old file, a fifth none. Every step
    equals a fresh run; the verify re-reads exactly the new files holding
    a duplicate plus the old files holding a NEWLY duplicated url (the rest
    are served from c1/verified.parquet); the summary and the one INFO
    event report the step honestly."""
    import glob
    import logging

    import lk_data_test_ray.checks.uniqueness as u

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    inp = tmp_path / "in"
    inp.mkdir()
    for f in src[:3]:
        shutil.copy(f, inp / os.path.basename(f))
    out = str(tmp_path / "out")
    run_validation(str(inp), out)
    url0, url1 = pq.read_table(src[0], columns=["url"])["url"][:2]
    url0, url1 = url0.as_py(), url1.as_py()

    reread = []
    real = u._collect_rows.remote

    def spy(paths, pids, key, cand):
        reread.extend(paths)
        return real(paths, pids, key, cand)

    monkeypatch.setattr(u._collect_rows, "remote", spy)
    caplog.set_level(logging.INFO, logger="lk_data_test_ray")
    steps = [("a1.parquet", lambda d: _copy_with_urls(src[3], d, {0: url0})),
             ("a2.parquet", lambda d: _copy_with_urls(src[4], d, {0: url0})),
             # src[10] repeats a url of src[1]: an old file's first dup
             (os.path.basename(src[10]), lambda d: shutil.copy(src[10], d)),
             # a second dup in src[0], whose first one the table holds
             ("a3.parquet", lambda d: _copy_with_urls(src[5], d, {0: url1})),
             # no dup at all: nothing is re-read, src[0] is served cached
             ("a4.parquet", lambda d: _copy_with_urls(src[6], d))]
    for i, (name, write) in enumerate(steps):
        old = sorted(glob.glob(str(inp / "*.parquet")))
        before = _dup_urls(_urls(old))
        new = str(inp / name)
        write(new)
        by_file = _urls([*old, new])
        after = _dup_urls(by_file)
        want = sorted(f for f in by_file
                      if (f == new and set(by_file[f]) & after)
                      or set(by_file[f]) & (after - before))
        del reread[:]
        caplog.clear()
        s = run_validation(str(inp), out)
        assert sorted(reread) == want
        cached = [f for f in old if set(by_file[f]) & after and f not in want]
        assert s["c1"] == {"sidecar_files": len(old),
                           "url_fallback_files": 0,
                           "verify_reread_files": len(want),
                           "verify_cached_files": len(cached),
                           "candidates": len(after)}
        assert s["rows_scanned"] == len(by_file[new])
        assert s["rows_per_sec"] < s["n_rows"] / s["wall_sec"]
        events = [r.resume for r in caplog.records if hasattr(r, "resume")]
        assert events == [{**s["c1"], "partitions_kept": len(old),
                           "partitions_dropped": 0,
                           "partitions_scanned": 1}]
        fresh = str(tmp_path / f"fresh{i}")
        _same_outputs(out, s, fresh, run_validation(str(inp), fresh))
    assert s["per_check_violations"]["c1_url_unique"] == len(after)
    c1 = [r for r in load_violations(out).to_pylist()
          if r["check_id"] == "c1_url_unique"]
    assert {r["url"]: r["detail"] for r in c1}[url0] == "count=3"


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


def test_pid_reuse_never_reads_stale_verified_rows(pages_fixture, tmp_path,
                                                   monkeypatch):
    """The highest-pid file holds a duplicate (so verified.parquet has rows
    for its pid). Delete it, run, add a different file that reuses the pid:
    equal to a fresh run. Then swap that file for a third one reusing the
    pid in a run that dies after its commits, before the table rewrite: the
    next run must not serve the third file from the second one's rows."""
    import glob

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
    table = os.path.join(out, "c1", "verified.parquet")
    rows = pq.read_table(table).to_pylist()
    assert {"pid": 3, "h": rows[0]["h"], "url": url0} in rows

    def check(tag, s):
        fresh = str(tmp_path / f"fresh_{tag}")
        _same_outputs(out, s, fresh, run_validation(str(inp), fresh))

    os.remove(z)
    check("deleted", run_validation(str(inp), out))
    _copy_with_urls(src[5], y, {0: url0, 1: url0})
    check("reused", run_validation(str(inp), out))
    assert pq.read_table(table)["pid"].to_pylist().count(3) == 2

    os.remove(y)
    _copy_with_urls(src[6], x, {0: url0, 1: url0, 2: url0})

    def die(collectors):
        raise RuntimeError("simulated death before the table rewrite")

    with monkeypatch.context() as m:
        m.setattr(v, "collector_candidates", die)
        with pytest.raises(RuntimeError, match="simulated death"):
            run_validation(str(inp), out)
    s = run_validation(str(inp), out)
    assert s["rows_scanned"] == 0
    check("crashed", s)


def test_verify_candidates_exact_under_u64_collision(tmp_path):
    """Unit: hand-fed collectors and a pre-seeded verified table where two
    distinct urls share one u64 hash. Committed files whose hashes the
    table holds are served from it (they do not even exist on disk), the
    new file is re-read, per-url counts are exact, and the rewritten table
    holds the rows of committed and re-read pids only (loading it for the
    committed pids drops pid 9 from the file)."""
    import numpy as np

    from lk_data_test_ray.checks.uniqueness import (collector_candidates,
                                                    load_verified,
                                                    make_collectors,
                                                    save_verified,
                                                    verify_candidates,
                                                    VERIFIED_SCHEMA)
    from lk_data_test_ray.functions.hashing import hash_strings64

    f1, f2, f3 = (str(tmp_path / n) for n in ("f1.parquet", "f2.parquet",
                                               "f3.parquet"))
    pq.write_table(pa.table({"url": ["c", "d", "c"]}), f3)
    hc, hd = hash_strings64(np.array(["c", "d"], dtype=object))
    H, H2 = np.uint64(12345), np.uint64(777)  # "a" and "b" both hash to H
    cols = make_collectors(1, reuse=False)
    one = np.ones(1, np.int64)
    ray.get([cols[0].add.remote(f"{f1}:0:1", np.array([H2, H]),
                                np.array([1, 1])),
             cols[0].add.remote(f"{f2}:0:1", np.array([H]), one * 2),
             cols[0].add.remote(f"{f3}:0:1", np.sort([hc, hd]),
                                np.array([2, 1])[np.argsort([hc, hd])])])
    table = str(tmp_path / "verified.parquet")
    save_verified(table, pa.Table.from_pylist(
        [{"pid": 0, "h": int(H), "url": "a"},
         {"pid": 0, "h": int(H2), "url": "z"},
         {"pid": 1, "h": int(H), "url": "b"},
         {"pid": 1, "h": int(H), "url": "b"},
         {"pid": 9, "h": int(H), "url": "stale"}], schema=VERIFIED_SCHEMA))
    cand = collector_candidates(cols)
    assert sorted(cand.tolist()) == sorted([int(H), int(hc)])
    dups, counts = verify_candidates(
        {f1: 0, f2: 1, f3: 2}, "url", cand, cols,
        table=load_verified(table, keep={0, 1}), table_path=table)
    assert dict(zip(dups["url"].to_pylist(),
                    dups["count"].to_pylist())) == {"b": 2, "c": 2}
    assert counts == {"verify_reread_files": 1, "verify_cached_files": 2}
    got = sorted((r["pid"], r["url"]) for r in pq.read_table(table).to_pylist())
    assert got == [(0, "a"), (0, "z"), (1, "b"), (1, "b"), (2, "c"), (2, "c")]
    ray.kill(cols[0])
