"""Random churn over one resumed out dir (Hypothesis): appends, deletes,
re-adds, in-place rewrites, deleted store files (a sidecar, a violations
part, a stats pickle or a clean part) and killed runs, over at
most 8 tiny input files. After every step the resumed out dir equals a
fresh run over the same inputs: ``summary.json`` without the walls and the
work counters, ``load_violations`` with each row's partition id read as
its input file, and the urls of the rows in the clean output dir."""

import glob
import json
import os
import re
import shutil
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lk_data_test_ray.pipelines.validate import load_violations, run_validation
from lk_data_test_ray.state.manifest import ManifestStore

N_FILES = 8
# what a run did, not what it found: these differ between a resume step
# and a fresh run by design
WORK = {"phase_wall", "wall_sec", "rows_per_sec", "rows_scanned",
        "scan_items", "scan_tasks"}

# a change names a file index (for drop_file: an index into the files
# the store's manifests name)
CHANGES = st.tuples(
    st.sampled_from(["add", "delete", "resize", "rewrite", "drop_file"]),
    st.integers(0, N_FILES - 1))
# a step: one to three changes, then one run, killed after k partition
# commits when k is drawn, and then a run that resumes it
STEPS = st.lists(st.tuples(st.lists(CHANGES, min_size=1, max_size=3),
                           st.none() | st.integers(0, 2)),
                 min_size=1, max_size=5)


@pytest.fixture(scope="module")
def pool(pages_fixture):
    """Per file index: the first 7 rows of one fixture file, with langs
    set to two-letter codes so a rewrite can keep the byte size. Even
    files repeat the next file's first url, and file 3 holds a null url."""
    src = sorted(glob.glob(os.path.join(pages_fixture, "pages", "*.parquet")))
    tables = [pq.read_table(f).slice(0, 7) for f in src[:N_FILES]]
    out = []
    for i, t in enumerate(tables):
        urls = t["url"].to_pylist()
        if i % 2 == 0:
            urls[0] = tables[(i + 1) % N_FILES]["url"][0].as_py()
        if i == 3:
            urls[1] = None
        t = t.set_column(0, "url", pa.array(urls, pa.string()))
        out.append(t.set_column(4, "lang", pa.array(["en"] * 7)))
    return out, os.path.join(pages_fixture, "lang_hist.parquet")


def _write(pool, path, i, rows, version):
    """File ``i`` with its first ``rows`` rows; ``version`` picks which rows
    carry the out-of-vocabulary lang "zz", so versions differ in content
    and C3 verdicts but not in byte size."""
    t = pool[i].slice(0, rows)
    langs = ["zz" if (j + version) % 3 == 0 else "en" for j in range(rows)]
    t = t.set_column(4, "lang", pa.array(langs, pa.string()))
    pq.write_table(t, path, compression="NONE", use_dictionary=False)


def _snapshot(out):
    """What a run found: its summary, violations and clean rows (read
    whole, as ``training_data.curate_pages`` reads them)."""
    with open(os.path.join(out, "summary.json")) as fh:
        s = {k: v for k, v in json.load(fh).items() if k not in WORK}
    file_of = {pid: os.path.basename(rec["input_fragment"]) for pid, rec in
               ManifestStore(os.path.join(out, "manifests")).completed()
               .items() if pid != "global"}
    v = load_violations(out)
    files = [file_of.get(p, "") for p in v["partition_id"].to_pylist()]
    v = v.drop_columns(["partition_id"]).append_column(
        "file", pa.array(files, pa.string()))
    order = [(c, "ascending") for c in v.column_names]
    clean = sorted((u is None, u or "") for f in glob.glob(
        os.path.join(out + "-clean", "*.parquet"))
        for u in pq.read_table(f)["url"].to_pylist())
    return s, v.take(pc.sort_indices(v, sort_keys=order)).to_pylist(), clean


def _run(inp, out, hist, **kw):
    run_validation(inp, out, lang_hist_path=hist, clean_dir=out + "-clean",
                   **kw)


def _replay(pool, hist, steps):
    root = tempfile.mkdtemp(prefix="churn-")
    try:
        inp, out, fresh = (os.path.join(root, d)
                           for d in ("in", "out", "fresh"))
        os.makedirs(inp)
        state = {0: [7, 0], 1: [7, 0]}  # present file -> [rows, version]

        def path(i):
            return os.path.join(inp, f"f{i}.parquet")

        for i, (rows, ver) in state.items():
            _write(pool, path(i), i, rows, ver)
        _run(inp, out, hist)
        for changes, kill in steps:
            for act, arg in changes:
                _change(pool, out, state, path, act, arg)
            if kill is not None:
                _killed_run(inp, out, hist, kill)
            _run(inp, out, hist)
            _run(inp, fresh, hist, resume=False)
            assert _snapshot(out) == _snapshot(fresh), (changes, kill)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _change(pool, out, state, path, act, arg):
    if act == "add" and arg not in state:  # an append, or a re-add
        state[arg] = [7, 0]
        _write(pool, path(arg), arg, 7, 0)
    elif act == "delete" and arg in state and len(state) > 1:
        del state[arg]
        os.remove(path(arg))
    elif act in ("resize", "rewrite") and arg in state:
        old = os.stat(path(arg))
        rows, ver = state[arg]
        state[arg] = [13 - rows, ver] if act == "resize" else [rows, ver + 1]
        _write(pool, path(arg), arg, *state[arg])
        if act == "rewrite":
            # the same byte size, so only mtime_ns tells the rewrite apart
            assert os.stat(path(arg)).st_size == old.st_size
            os.utime(path(arg), ns=(old.st_atime_ns,
                                    old.st_mtime_ns + 10**9))
    elif act == "drop_file":
        names = _store_files(out)
        if names:
            os.remove(names[arg % len(names)])


def _store_files(out):
    """Every file a partition manifest of ``out`` names, of every kind:
    sidecars, violations parts, stats pickles and clean parts, sorted by
    kind and then by name."""
    kinds = [(os.path.join(out, "c1"), r"item-.*\.arrow"),
             (os.path.join(out, "violations"), r"part-.*\.parquet"),
             (os.path.join(out, "manifests"), r"stats-.*\.pkl"),
             (out + "-clean", r"clean-.*\.parquet")]
    return [os.path.join(d, n) for d, pat in kinds
            for n in sorted(os.listdir(d)) if re.fullmatch(pat, n)]


def _killed_run(inp, out, hist, k):
    """A run that dies after ``k`` partition commits (no error when it has
    at most ``k`` to make)."""
    real = ManifestStore.commit
    n = [0]

    def dying_commit(self, pid, record, stats=None):
        if pid != "global" and n[0] >= k:
            raise RuntimeError("simulated death after k commits")
        n[0] += 1
        return real(self, pid, record, stats=stats)

    ManifestStore.commit = dying_commit
    try:
        _run(inp, out, hist)
    except RuntimeError as e:
        assert "simulated death" in str(e)
    finally:
        ManifestStore.commit = real


def test_random_churn_resume_equals_fresh(pool):
    tables, hist = pool

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None, suppress_health_check=list(HealthCheck))
    @given(STEPS)
    # a same-size rewrite of a committed file; a lost sidecar, violations
    # part, stats pickle and clean part (two files per kind at the start);
    # a run killed after one of its three commits
    @example([([("rewrite", 0)], None)])
    @example([([("drop_file", 1)], None)])
    @example([([("drop_file", 3)], None)])
    @example([([("drop_file", 5)], None)])
    @example([([("drop_file", 7)], None)])
    @example([([("add", 2), ("resize", 1), ("add", 5)], 1)])
    def churn(steps):
        _replay(tables, hist, steps)

    churn()
