"""Speculative scan re-issue + fused C1 uniqueness feed.

The row phase re-issues straggling scan items as backup tasks
(first-result-wins) and feeds the C1 uniqueness exchange from url hashes
emitted by the scan tasks themselves. Both paths must be invisible in the
results: forced full duplication, the non-fused fallback, and a partial
resume must all produce byte-identical verdicts.
"""

import glob
import os

import numpy as np
import pytest
import ray

from lk_data_test_ray.pipelines.validate import load_violations, run_validation


def _keys(tbl):
    return set(zip(tbl["check_id"].to_pylist(), tbl["url"].to_pylist()))


@pytest.fixture(scope="module")
def golden(pages_fixture, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("spec_gold"))
    summary = run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        speculative=False)
    return summary, _keys(load_violations(out))


def test_forced_speculation_matches(pages_fixture, tmp_path, golden):
    """speculative='force' re-issues EVERY outstanding item as soon as the
    stream ends (and whenever the loop polls) — near-total duplication —
    and the item-key dedup must still produce exactly the golden verdicts,
    including C1 (idempotent collector adds: the duplicated items feed the
    same hashes twice)."""
    g_summary, g_keys = golden
    out = str(tmp_path / "forced")
    s = run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        speculative="force")
    assert s["per_check_violations"] == g_summary["per_check_violations"]
    assert _keys(load_violations(out)) == g_keys
    assert s["n_rows"] == g_summary["n_rows"]


def test_fuse_c1_off_matches_on(pages_fixture, tmp_path, golden):
    g_summary, g_keys = golden
    out = str(tmp_path / "nofuse")
    s = run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        fuse_c1=False, speculative=False)
    assert s["per_check_violations"] == g_summary["per_check_violations"]
    assert _keys(load_violations(out)) == g_keys


def test_partial_resume_feeds_c1(pages_fixture, tmp_path, golden):
    """Uncommit half the partitions of a finished run, resume: committed
    files feed C1 from their sidecars, re-scanned files via the fused
    scan — a duplicate url pair SPANNING the two halves must still surface."""
    import shutil

    g_summary, g_keys = golden
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


def test_collector_idempotence_and_ranges(tmp_path):
    """Unit: duplicate item adds are dropped; a url with per-item count 1
    split across DIFFERENT items still dups globally (adds are range-routed,
    so both copies land in the same collector); split_by_range partitions a
    sorted hash array into disjoint top-bit ranges; a sidecar load keeps its
    collector's range and dedups with live adds by item key."""
    from lk_data_test_ray.checks.uniqueness import (C1Collector,
                                                    collector_candidates,
                                                    split_by_range)

    h = np.array([1, 2, 3, 2**63 + 5], dtype=np.uint64)
    one = np.ones(4, dtype=np.int64)
    # split_by_range: top bit 0 → range 0; top bit 1 → range 1
    parts = split_by_range(h, one, 2)
    assert [p[0].tolist() for p in parts] == [[1, 2, 3], [2**63 + 5]]
    assert sum(len(p[1]) for p in parts) == 4

    cols = [C1Collector.remote() for _ in range(2)]
    # hash 2**63+5 appears once in two different ITEMS → global dup;
    # hash 1 appears twice but only via a DUPLICATE item key → not a dup
    assert ray.get(cols[0].add.remote("item-a", h[:1], one[:1]))
    assert not ray.get(cols[0].add.remote("item-a", h[:1], one[:1]))
    assert ray.get(cols[1].add.remote("item-b", h[3:], one[3:]))
    assert ray.get(cols[1].add.remote("item-c", h[3:], one[3:]))
    assert ray.get(cols[0].add.remote("item-d", h[1:3], one[1:3]))

    # committed sidecars: "f.parquet:0:1" holds hashes 2 and 2**63+5, so
    # both become candidates; "item-d" repeats a live add's key and holds
    # hash 1 — it must count once, so hash 1 stays unique
    def sidecar(name, item_key, hs):
        sp = str(tmp_path / name)
        hs = np.asarray(hs, np.uint64)
        np.savez(sp, h=hs.view(np.int64), c=np.ones(len(hs), np.int64),
                 item_key=np.array(item_key))
        return sp

    scs = [sidecar("s1.npz", "f.parquet:0:1", [2, 2**63 + 5]),
           sidecar("s2.npz", "item-d", [1])]
    # each collector keeps its own range: range 0 gets both sidecars'
    # low hashes (the second one is a repeat), range 1 one high hash
    assert ray.get(cols[0].load_sidecars.remote(scs, 0, 2)) == 1
    assert ray.get(cols[1].load_sidecars.remote(scs, 1, 2)) == 1
    assert ray.get(cols[0].load_sidecars.remote(scs, 0, 2)) == 0

    cand = np.sort(collector_candidates(cols))
    assert cand.tolist() == [2, 2**63 + 5]
    # per-item attribution, per file: the candidate hashes each file's
    # items hold (item keys with no ':' map to themselves as the "file")
    hits = {}
    for c in cols:
        for f, hs in ray.get(c.candidate_hits.remote(cand)).items():
            hits[f] = sorted(hits.get(f, []) + hs.tolist())
    assert hits == {"item-b": [2**63 + 5], "item-c": [2**63 + 5],
                    "item-d": [2], "f.parquet": [2, 2**63 + 5]}
    assert ray.get(cols[0].candidate_hits.remote(cand[:0])) == {}
    for c in cols:
        ray.kill(c)
