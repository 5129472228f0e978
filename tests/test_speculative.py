"""Speculative scan re-issue + fused C1 uniqueness feed.

The row phase re-issues straggling scan items as backup tasks
(first-result-wins) and feeds the C1 uniqueness exchange from url hashes
emitted by the scan tasks themselves. Both paths must be invisible in the
results: forced full duplication and a partial resume must both produce
byte-identical verdicts.
"""

import glob
import os

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray

from lk_data_test_ray.pipelines.validate import load_violations, run_validation


def _keys(tbl):
    return set(zip(tbl["check_id"].to_pylist(), tbl["url"].to_pylist()))


def _clean(clean_dir):
    """Every clean part in a clean dir, with the sorted urls of its rows."""
    return {os.path.basename(f): sorted(
        u or "" for u in pq.read_table(f)["url"].to_pylist())
        for f in glob.glob(os.path.join(clean_dir, "*.parquet"))}


@pytest.fixture(scope="module")
def golden(pages_fixture, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("spec_gold"))
    summary = run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        speculative=False, clean_dir=os.path.join(out, "clean"))
    return (summary, _keys(load_violations(out)),
            _clean(os.path.join(out, "clean")))


def test_forced_speculation_matches(pages_fixture, tmp_path, golden):
    """speculative='force' re-issues EVERY outstanding item as soon as the
    stream ends (and whenever the loop polls) — near-total duplication —
    and the item-key dedup must still produce exactly the golden verdicts,
    including C1 (each copy of a duplicated item rewrites the same
    sidecar, so its hashes count once; and each clean part, through its
    own tmp file, so the clean dir holds the golden parts and rows)."""
    g_summary, g_keys, g_clean = golden
    out = str(tmp_path / "forced")
    s = run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        speculative="force", clean_dir=os.path.join(out, "clean"))
    assert s["per_check_violations"] == g_summary["per_check_violations"]
    assert _keys(load_violations(out)) == g_keys
    assert _clean(os.path.join(out, "clean")) == g_clean
    assert s["n_rows"] == g_summary["n_rows"]


def test_partial_resume_feeds_c1(pages_fixture, tmp_path, golden):
    """Uncommit half the partitions of a finished run, resume: committed
    files feed C1 from their sidecars, re-scanned files via the fused
    scan — a duplicate url pair SPANNING the two halves must still surface."""
    import shutil

    g_summary, g_keys, _ = golden
    out = str(tmp_path / "resume")
    run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        speculative=False)
    # uncommit every odd partition (manifest + stats + violations)
    man = os.path.join(out, "manifests")
    for f in glob.glob(os.path.join(man, "part-*.json")):
        pid = os.path.basename(f)[5:-5]
        if pid.isdigit() and int(pid) % 2 == 1:
            os.remove(f)
            sp = os.path.join(man, f"stats-{pid}.pkl")
            if os.path.exists(sp):
                os.remove(sp)
            vp = os.path.join(out, "violations", f"part-{int(pid):05d}.parquet")
            if os.path.exists(vp):
                os.remove(vp)
    os.remove(os.path.join(out, "violations", "global.parquet"))
    s = run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        resume=True, speculative=False)
    assert s["per_check_violations"] == g_summary["per_check_violations"]
    assert _keys(load_violations(out)) == g_keys


def test_range_tasks_disjoint_and_exact(tmp_path):
    """Unit: split_by_range cuts a sorted hash array into disjoint top-bit
    ranges; the C1 range tasks over hand-written sidecars find a url whose
    per-item count is 1 in two DIFFERENT items (of one file or of two) as
    a global dup, and a backup copy of an item (the same sidecar written
    twice) counts once. For every range count the tasks' candidates and
    verified duplicates stay inside their ranges, and their union, the
    duplicate table and the files holding a candidate are the same; no
    sidecars give no candidates."""
    import pyarrow as pa

    from lk_data_test_ray.checks.row import write_sidecar
    from lk_data_test_ray.checks.uniqueness import (collector_candidates,
                                                    make_collectors,
                                                    split_by_range,
                                                    verify_candidates)

    h = np.array([1, 2, 3, 2**63 + 5], dtype=np.uint64)
    # split_by_range: top bit 0 → range 0; top bit 1 → range 1
    assert [h[r].tolist() for r in split_by_range(h, 2)] == [
        [1, 2, 3], [2**63 + 5]]
    assert [h[r].tolist() for r in split_by_range(h, 1)] == [h.tolist()]
    url_of = {1: "u1", 2: "u2", 3: "u3", 2**63 + 5: "u5", 2**62 + 7: "u7"}

    def sidecar(name, hs):
        sp = str(tmp_path / name)
        write_sidecar(sp, np.asarray(hs, np.uint64),
                      pa.array([url_of[x] for x in hs], pa.string()))
        return sp

    # hash 1 twice in one item, hash 2 once in each of two items of one
    # file, hash 2**63+5 once in each of two files: all three dup. Hash 3
    # and 2**62+7 are unique, though b.arrow is written twice.
    sidecar("b.arrow", [2, 3])
    scs = [("f.parquet", sidecar("a.arrow", [2, 2**63 + 5, 1, 1])),
           ("f.parquet", sidecar("b.arrow", [2, 3])),
           ("g.parquet", sidecar("c.arrow", [2**63 + 5, 2**62 + 7])),
           ("h.parquet", sidecar("d.arrow", []))]
    for n in (1, 2, 4):
        refs = make_collectors(scs, n)
        assert len(refs) == n
        bits = n.bit_length() - 1
        held = set()
        for j, (cand, dups, files) in enumerate(ray.get(refs)):
            assert all(int(c) >> (64 - bits) == j for c in cand.tolist())
            assert sorted(dups["url"].to_pylist()) == sorted(
                url_of[c] for c in cand.tolist())
            held.update(files)
        assert held == {"f.parquet", "g.parquet"}
        cand = collector_candidates(refs)
        assert sorted(cand.tolist()) == [1, 2, 2**63 + 5]
        dups, counts = verify_candidates(refs)
        assert dups.to_pylist() == [{"url": u, "count": 2}
                                    for u in ("u1", "u2", "u5")]
        assert counts == {"verify_files": 2}
    for n in (1, 2):
        empty = make_collectors([], n)
        assert collector_candidates(empty).tolist() == []
        dups, counts = verify_candidates(empty)
        assert dups.num_rows == 0 and counts == {"verify_files": 0}
    with pytest.raises(ValueError, match="power of two"):
        make_collectors(scs, 3)
