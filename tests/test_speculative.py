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
    including C1 (each copy of a duplicated item rewrites the same
    sidecar, so its hashes count once)."""
    g_summary, g_keys = golden
    out = str(tmp_path / "forced")
    s = run_validation(
        os.path.join(pages_fixture, "pages"), out,
        lang_hist_path=os.path.join(pages_fixture, "lang_hist.parquet"),
        speculative="force")
    assert s["per_check_violations"] == g_summary["per_check_violations"]
    assert _keys(load_violations(out)) == g_keys
    assert s["n_rows"] == g_summary["n_rows"]


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


def test_range_tasks_disjoint_and_exact(tmp_path):
    """Unit: split_by_range partitions a sorted hash array into disjoint
    top-bit ranges; the C1 range tasks over hand-written sidecars find a
    url whose per-item count is 1 in two DIFFERENT items (of one file or of
    two) as a global dup, and a backup copy of an item (the same sidecar
    written twice) counts once. For every range count the tasks' candidates
    stay inside their ranges and their union and per-file attribution are
    the same; no sidecars give no candidates."""
    from lk_data_test_ray.checks.row import write_sidecar
    from lk_data_test_ray.checks.uniqueness import (collector_candidates,
                                                    make_collectors,
                                                    split_by_range)

    h = np.array([1, 2, 3, 2**63 + 5], dtype=np.uint64)
    one = np.ones(4, dtype=np.int64)
    # split_by_range: top bit 0 → range 0; top bit 1 → range 1
    parts = split_by_range(h, one, 2)
    assert [p[0].tolist() for p in parts] == [[1, 2, 3], [2**63 + 5]]
    assert sum(len(p[1]) for p in parts) == 4

    def sidecar(name, hs):
        sp = str(tmp_path / name)
        write_sidecar(sp, np.asarray(hs, np.uint64))
        return sp

    # hash 1 twice in one item, hash 2 once in each of two items of one
    # file, hash 2**63+5 once in each of two files: all three dup. Hash 3
    # and 2**62+7 are unique, though b.npy is written twice.
    sidecar("b.npy", [2, 3])
    scs = [("f.parquet", sidecar("a.npy", [2, 2**63 + 5, 1, 1])),
           ("f.parquet", sidecar("b.npy", [2, 3])),
           ("g.parquet", sidecar("c.npy", [2**63 + 5, 2**62 + 7])),
           ("h.parquet", sidecar("d.npy", []))]
    for n in (1, 2, 4):
        refs = make_collectors(scs, n)
        assert len(refs) == n
        per = ray.get(refs)
        bits = n.bit_length() - 1
        for j, (cand, _) in enumerate(per):
            assert all(int(c) >> (64 - bits) == j for c in cand.tolist())
        cand = collector_candidates(refs)
        assert sorted(cand.tolist()) == [1, 2, 2**63 + 5]
        hits: dict = {}
        for _, part in per:
            for f, hs in part.items():
                hits[f] = sorted(hits.get(f, []) + hs.tolist())
        assert hits == {"f.parquet": [1, 2, 2**63 + 5],
                        "g.parquet": [2**63 + 5]}
    for n in (1, 2):
        empty = make_collectors([], n)
        assert collector_candidates(empty).tolist() == []
        assert [hits for _, hits in ray.get(empty)] == [{}] * n
    with pytest.raises(ValueError, match="power of two"):
        make_collectors(scs, 3)
