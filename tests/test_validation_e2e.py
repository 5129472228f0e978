"""End-to-end golden test: the validation pipeline's violations must equal the
generator's injected expected_violations exactly (FIXTURES.md F5), and
per-partition verdicts must flag exactly the partitions containing injections.
"""

import json
import os

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from lk_data_test_ray.pipelines.validate import (
    load_violations,
    run_validation,
)


@pytest.fixture(scope="module")
def result(pages_fixture, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("vout"))
    summary = run_validation(
        os.path.join(pages_fixture, "pages"),
        out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
    )
    return pages_fixture, out, summary


def _key_set(tbl):
    return set(zip(tbl["check_id"].to_pylist(), tbl["url"].to_pylist()))


def test_violations_match_golden(result):
    fix, out, summary = result
    got = load_violations(out)
    expected = pq.read_table(os.path.join(fix, "expected_violations.parquet"))
    assert _key_set(got) == _key_set(expected)
    # counts too: every (check, url) appears the same number of times
    assert got.num_rows == expected.num_rows


def test_summary_counts(result):
    fix, out, summary = result
    meta = json.load(open(os.path.join(fix, "meta.json")))
    inj = meta["injected"]
    pc_ = summary["per_check_violations"]
    assert pc_["c1_url_unique"] == inj["dup_pairs"]
    assert pc_["c4_ts_range"] == inj["ts_oor"]
    assert pc_["c2_nonnull"] == inj["text_null"]
    assert pc_["c6_extract_match"] == inj["text_mutated"]
    assert pc_["c3_lang_vocab"] == inj["bad_lang"]
    assert summary["n_rows"] == meta["n_rows"]
    assert not summary["passed"]


def test_partition_verdicts(result):
    fix, out, summary = result
    expected = pq.read_table(os.path.join(fix, "expected_violations.parquet"))
    # partitions that contain a row-level injected violation must fail
    pages = pq.read_table(os.path.join(fix, "pages"))
    manifests = {}
    mdir = os.path.join(out, "manifests")
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            rec = json.load(open(os.path.join(mdir, name)))
            manifests[rec["partition_id"]] = rec
    assert "global" in manifests
    row_checks = {"c2_nonnull", "c3_lang_vocab", "c4_ts_range", "c6_extract_match"}
    bad_urls = {
        u for c, u in zip(expected["check_id"].to_pylist(),
                          expected["url"].to_pylist()) if c in row_checks
    }
    n = pages.num_rows
    per = -(-n // 16)
    url_to_pid = {}
    for i, u in enumerate(pages["url"].to_pylist()):
        url_to_pid.setdefault(u, set()).add(i // per)
    failing_pids = set()
    for u in bad_urls:
        failing_pids |= url_to_pid[u]
    for pid, rec in manifests.items():
        if pid == "global":
            continue
        # a failing partition per manifest ⟺ it holds an injected row-level violation
        if rec["violation_count"] > 0:
            assert pid in failing_pids or rec["violation_count"] == 0
    int_pids = {p for p in manifests if p != "global"}
    assert {p for p in int_pids if not manifests[p]["passed"]} >= failing_pids


def test_stats_accuracy(result):
    fix, out, summary = result
    meta = json.load(open(os.path.join(fix, "meta.json")))
    st = summary["stats"]
    # HLL within 5% of exact cardinality
    assert abs(st["url_cardinality_est"] - meta["url_cardinality"]) \
        < 0.05 * meta["url_cardinality"]
    assert st["lang_counts"] == meta["lang_counts"]
    assert st["text_null_count" if "text_null_count" in st else "text_null"] \
        == meta["text_null_count"]
    # t-digest median within 5% of exact
    q50 = st["textlen_quantiles"]["0.5"]
    assert abs(q50 - meta["text_len_quantiles"]["0.5"]) \
        < 0.05 * meta["text_len_quantiles"]["0.5"]
    # drift must PASS at the generating mixture
    assert summary["drift"]["passed"]


def test_resume_skips_completed(result, tmp_path):
    """Second run over the same out_dir does no partition work and matches."""
    fix, out, summary = result
    before = load_violations(out)
    summary2 = run_validation(
        os.path.join(fix, "pages"), out,
        lang_hist_path=os.path.join(fix, "lang_hist.parquet"),
        resume=True,
    )
    after = load_violations(out)
    assert _key_set(before) == _key_set(after)
    assert summary2["per_check_violations"] == summary["per_check_violations"]


def test_dangling_links_matches_duckdb(pages_fixture):
    """C7 exchange result == exact DuckDB anti-join on the same fixture."""
    import glob
    import os

    import duckdb

    from lk_data_test_ray.checks.links import find_dangling_links

    fix = pages_fixture
    pages_files = sorted(glob.glob(os.path.join(fix, "pages", "*.parquet")))
    links_file = os.path.join(fix, "links.parquet")
    got = find_dangling_links(pages_files, [links_file]).to_pandas()
    con = duckdb.connect()
    exp = con.execute(f"""
        SELECT l.* FROM read_parquet('{links_file}') l
        WHERE NOT EXISTS (SELECT 1 FROM read_parquet('{fix}/pages/*.parquet') p
                          WHERE p.url = l.dst_url)
    """).df()
    assert len(got) == len(exp) > 0  # generator injects ~1% dangling targets
    key = ["src_url", "ordinal", "dst_url"]
    got_s = got.sort_values(key).reset_index(drop=True)
    exp_s = exp.sort_values(key).reset_index(drop=True)
    assert got_s[key].equals(exp_s[key])


def test_clean_output_and_permutation_invariance(pages_fixture, tmp_path):
    """Quarantine split: clean output re-validates with zero row-phase
    violations; a different split of the files into scan items, and of the
    items into tasks, does not change any verdict or violation."""
    import glob
    import os

    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.validate import run_validation

    out_a = str(tmp_path / "a")
    clean = str(tmp_path / "clean")
    s_a = run_validation(os.path.join(pages_fixture, "pages"), out_a,
                         clean_dir=clean)
    # clean rows = total - rows touched by any row-phase violation
    n_clean = sum(pq.read_metadata(f).num_rows
                  for f in glob.glob(os.path.join(clean, "*.parquet")))
    row_checks = ("c2_nonnull", "c3_lang_vocab", "c4_ts_range",
                  "c6_extract_match")
    flagged = sum(s_a["per_check_violations"][c] for c in row_checks)
    assert n_clean == s_a["n_rows"] - flagged

    # re-validate the clean output: row-phase checks all pass
    out_b = str(tmp_path / "b")
    s_b = run_validation(clean, out_b, check_extract=True)
    assert all(s_b["per_check_violations"][c] == 0 for c in row_checks)

    # permutation invariance: the same files with 100-row row groups. At
    # the default-sized target each file is one item (16 items in 2 tasks);
    # at 150 rows each row group is an item and two items share a task
    split = tmp_path / "split"
    split.mkdir()
    for f in sorted(glob.glob(os.path.join(pages_fixture, "pages",
                                           "*.parquet"))):
        pq.write_table(pq.read_table(f), str(split / os.path.basename(f)),
                       row_group_size=100)
    want = _key_set(load_violations(out_a))
    packing = {}
    for target in (4096, 150):
        out_c = str(tmp_path / f"c{target}")
        s_c = run_validation(str(split), out_c, scan_target_rows=target)
        packing[target] = (s_c["scan_items"], s_c["scan_tasks"])
        assert s_c["per_check_violations"] == s_a["per_check_violations"]
        assert _key_set(load_violations(out_c)) == want
    assert packing == {4096: (16, 2), 150: (64, 32)}


def test_drift_fails_on_shifted_mixture(tmp_path):
    """C5 negative path (FIXTURES.md F2): a corpus generated from a shifted
    lang mixture must FAIL the chi-square drift check against the original
    reference histogram."""
    import os

    from lk_data_test_ray.sources.pages import ensure_pages
    from lk_data_test_ray.pipelines.validate import run_validation

    base = ensure_pages(6000, seed=77)
    shifted_mix = [("en", 0.10), ("de", 0.60), ("fr", 0.10), ("es", 0.10),
                   ("ru", 0.10)]
    shifted = ensure_pages(6000, seed=77, lang_mix=shifted_mix, tag="_shift")
    out = str(tmp_path / "drift")
    s = run_validation(
        os.path.join(shifted, "pages"), out,
        lang_hist_path=os.path.join(base, "lang_hist.parquet"),
        check_extract=False)
    assert s["drift"] is not None and not s["drift"]["passed"]
    assert s["per_check_violations"]["c5_lang_drift"] == 1


def test_curate_pages_funnel(pages_fixture, tmp_path):
    """End-to-end curation: funnel counts are consistent, and crafted
    near-duplicate documents are collapsed to one keeper each."""
    import glob
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.training_data import curate_pages

    # corpus = first fixture file + 5 near-dup copies of its first rows
    # under fresh urls (the fixture's injected "dups" duplicate URLS, not
    # content — near-dup dedup needs content twins)
    src = sorted(glob.glob(os.path.join(pages_fixture, "pages",
                                        "*.parquet")))[0]
    base = pq.read_table(src)
    twins = base.slice(0, 5)
    twins = twins.set_column(
        0, "url",
        pa.array([f"https://twin.example/{i}" for i in range(5)], pa.string()))
    pages_dir = str(tmp_path / "pages")
    os.makedirs(pages_dir)
    pq.write_table(base, os.path.join(pages_dir, "part-00000.parquet"))
    pq.write_table(twins, os.path.join(pages_dir, "part-00001.parquet"))

    out = str(tmp_path / "curated")
    funnel = curate_pages(pages_dir, out)
    assert funnel["n_input"] == base.num_rows + 5
    assert funnel["n_clean"] <= funnel["n_input"]
    # each twin shares its source's text → identical shingle sets →
    # identical MinHash signatures → same cluster; one of each pair dropped
    assert funnel["n_near_dup_dropped"] >= 5
    assert (funnel["n_curated"] <= funnel["n_after_dedup"]
            <= funnel["n_clean"])
    assert funnel["n_curated"] > 0.8 * funnel["n_input"] - 10


def test_c0_schema_violation_direct():
    """C0 fires on a wrong-schema batch (missing/extra/retyped columns)."""
    import pyarrow as pa

    from lk_data_test_ray.checks.row import RowChecker

    rc = RowChecker(check_extract=False)
    bad = pa.table({"url": pa.array(["u"], pa.string()),
                    "warc_ts": pa.array([0], pa.int64()),  # wrong type
                    "html": pa.array([b"x"], pa.binary()),
                    "text": pa.array(["x"], pa.string()),
                    "lang": pa.array(["en"], pa.string())})
    cols, stats = rc._process(bad, 3)
    assert cols["check_id"] == ["c0_schema"]
    assert cols["partition_id"] == [3]
    assert stats["n_rows"] == 0


def test_scan_block_returns_one_plain_record_per_item(pages_fixture,
                                                      tmp_path):
    """One ``scan_block`` task over a wrong-typed file, a zero-row-group
    file and a normal file returns one (pid, cols, stats) record per item,
    in plan order, holding only plain lists and dicts."""
    import glob

    import pyarrow as pa
    import ray

    from lk_data_test_ray.checks.row import plan_scan_items, scan_block
    from lk_data_test_ray.schema import PAGES_SCHEMA

    good = sorted(glob.glob(os.path.join(pages_fixture, "pages",
                                         "*.parquet")))[0]
    bad = str(tmp_path / "bad.parquet")
    t = pq.read_table(good).slice(0, 5)
    pq.write_table(t.set_column(1, "warc_ts", pa.array(range(5), pa.int64())),
                   bad)
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(PAGES_SCHEMA.empty_table(), empty)
    files = [bad, empty, good]
    items = plan_scan_items(files, {bad: 5, empty: 6, good: 7})
    assert len(items) == 3
    c1 = tmp_path / "c1"
    c1.mkdir()
    out = ray.get(scan_block.remote(items, False, None, str(c1)))
    assert [(pid, stats["item"]) for pid, _, stats in out] == \
        [(it["pid"], (it["rg_lo"], it["rg_hi"])) for it in items]
    assert [pid for pid, _, _ in out] == [5, 6, 7]
    (_, bad_cols, bad_stats), (_, empty_cols, empty_stats), \
        (_, _, good_stats) = out
    assert bad_cols["check_id"] == ["c0_schema"] and bad_stats["n_rows"] == 0
    assert empty_cols["check_id"] == [] and empty_stats["n_rows"] == 0
    assert good_stats["n_rows"] == pq.ParquetFile(good).metadata.num_rows
    for pid, cols, stats in out:
        assert all(type(v) is list for v in cols.values())
        assert set(cols["partition_id"]) <= {pid}
        assert not any(isinstance(v, (pa.Array, pa.ChunkedArray, pa.Table))
                       for v in stats.values())


def test_empty_partition_commits_and_resumes(pages_fixture, tmp_path):
    """A parquet file with zero row groups must still commit a manifest (one
    empty scan item) so resume converges instead of re-scanning forever."""
    import glob
    import shutil

    from lk_data_test_ray.schema import PAGES_SCHEMA
    from lk_data_test_ray.state.manifest import ManifestStore

    dst = str(tmp_path / "pages")
    shutil.copytree(os.path.join(pages_fixture, "pages"), dst)
    pq.write_table(PAGES_SCHEMA.empty_table(),
                   os.path.join(dst, "part-99999.parquet"))
    out = str(tmp_path / "out")
    s = run_validation(dst, out,
                       lang_hist_path=os.path.join(pages_fixture,
                                                   "lang_hist.parquet"))
    done = ManifestStore(os.path.join(out, "manifests")).completed()
    n_files = len(glob.glob(os.path.join(dst, "*.parquet")))
    assert len([k for k in done if k != "global"]) == n_files
    # resume over a fully-committed run: identical verdicts, nothing re-runs
    s2 = run_validation(dst, out,
                        lang_hist_path=os.path.join(pages_fixture,
                                                    "lang_hist.parquet"))
    assert s2["per_check_violations"] == s["per_check_violations"]
    assert s2["n_rows"] == s["n_rows"]


def test_small_files_pack_into_row_sized_tasks(pages_fixture, tmp_path,
                                               monkeypatch, caplog):
    """Files far below the auto target (4096 rows on the 4-CPU test
    cluster) share scan tasks. Fresh, 12 files of 375 rows: 11 fill the
    first task, the 12th runs in a second. A resume step appending 4 files
    runs them as ONE task. The task count is that of scan_block submissions.
    Outputs equal a run forced to one item per task: summary (incl. stats),
    violations and every partition's stats pickle."""
    import glob
    import logging
    import shutil

    from lk_data_test_ray.checks import row
    from lk_data_test_ray.pipelines import validate
    from lk_data_test_ray.state.manifest import ManifestStore

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    hist = os.path.join(pages_fixture, "lang_hist.parquet")
    real_plan = validate.plan_scan_items

    def one_item_per_task(*a, **k):
        items = real_plan(*a, **k)
        for i, it in enumerate(items):
            it["block"] = i
        return items

    submitted = []
    real_remote = row.scan_block.remote

    def spy(items, *args):
        submitted.append(len(items))
        return real_remote(items, *args)

    monkeypatch.setattr(row.scan_block, "remote", spy)

    def step(name, files, forced):
        inp = tmp_path / name / "in"
        inp.mkdir(parents=True, exist_ok=True)
        for f in files:
            if not (inp / os.path.basename(f)).exists():
                shutil.copy(f, inp / os.path.basename(f))
        del submitted[:]
        with monkeypatch.context() as m:
            if forced:
                m.setattr(validate, "plan_scan_items", one_item_per_task)
            s = run_validation(str(inp), str(tmp_path / name / "out"),
                               lang_hist_path=hist)
        return s, len(submitted)

    timing = {"phase_wall", "wall_sec", "rows_per_sec", "scan_tasks"}
    caplog.set_level(logging.INFO, logger="lk_data_test_ray")
    for files, n_new, tasks in ((src[:12], 12, 2), (src, 4, 1)):
        caplog.clear()
        packed, packed_tasks = step("packed", files, forced=False)
        events = [r.resume for r in caplog.records if hasattr(r, "resume")]
        forced, forced_tasks = step("forced", files, forced=True)
        assert packed["scan_items"] == forced["scan_items"] == n_new
        assert packed["scan_tasks"] == packed_tasks == tasks
        assert forced["scan_tasks"] == forced_tasks == n_new
        assert [(e["scan_items"], e["scan_tasks"]) for e in events] == [
            (n_new, tasks)]
        assert ({k: v for k, v in packed.items() if k not in timing}
                == {k: v for k, v in forced.items() if k not in timing})
        assert load_violations(str(tmp_path / "packed" / "out")).sort_by(
            [("check_id", "ascending"), ("url", "ascending")]).equals(
            load_violations(str(tmp_path / "forced" / "out")).sort_by(
                [("check_id", "ascending"), ("url", "ascending")]))
        stores = [ManifestStore(str(tmp_path / n / "out" / "manifests"))
                  for n in ("packed", "forced")]
        pids = [p for p in stores[0].completed() if p != "global"]
        assert len(pids) == len(files)
        for pid in pids:
            assert stores[0].load_stats(pid) == stores[1].load_stats(pid)
