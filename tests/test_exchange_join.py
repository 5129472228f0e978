"""exchange_join (raw two-sided hash exchange + per-partition Acero join)
must equal a single-table Arrow join for every join type, key dtype, and
duplicate/empty-side shape — it now carries q3/q5/q10, J2/J3, the bigram-LM
joins and PageRank."""

import os
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from lk_data_test_ray.relational import exchange_join  # noqa: E402

JOIN_TYPES = ["inner", "left_outer", "full_outer", "left_semi", "left_anti"]


def _sorted_pd(tbl: pa.Table):
    df = tbl.to_pandas()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True)


def _make(rng, n, key_pool, ktype):
    keys = rng.choice(key_pool, size=n)
    if ktype == "string":
        keys = np.array([f"k{v}" for v in keys], dtype=object)
        karr = pa.array(keys, pa.string())
    else:
        karr = pa.array(keys.astype(np.int64), pa.int64())
    return keys, karr


@pytest.mark.parametrize("how", JOIN_TYPES)
@pytest.mark.parametrize("ktype", ["int", "string"])
def test_exchange_join_equals_arrow_join(ray_session, how, ktype):
    import ray.data as rd

    rng = np.random.default_rng(42)
    _, lk = _make(rng, 200, np.arange(60), ktype)
    _, rk = _make(rng, 150, np.arange(40, 90), ktype)
    left = pa.table({"k": lk, "a": pa.array(rng.integers(0, 5, 200))})
    right = pa.table({"rk": rk, "b": pa.array(rng.integers(0, 5, 150))})
    want = left.join(right, keys=["k"], right_keys=["rk"],
                     join_type=how.replace("_", " "))
    got = exchange_join(
        rd.from_arrow(left).repartition(7),
        rd.from_arrow(right).repartition(5),
        "k", "rk", how=how, p_bits=3)
    got_tbl = pa.concat_tables(
        [b for b in got.iter_batches(batch_format="pyarrow",
                                     batch_size=None)],
        promote_options="default")
    assert _sorted_pd(got_tbl).equals(_sorted_pd(want)), how


def test_exchange_join_empty_sides(ray_session):
    import ray.data as rd

    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "a": pa.array([10, 20], pa.int64())})
    empty = pa.table({"rk": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())})
    out = exchange_join(rd.from_arrow(left), rd.from_arrow(empty),
                        "k", "rk", how="left_outer", p_bits=2).to_pandas()
    assert len(out) == 2 and out["b"].isna().all()
    out2 = exchange_join(rd.from_arrow(left), rd.from_arrow(empty),
                         "k", "rk", how="inner", p_bits=2).to_pandas()
    assert len(out2) == 0


def test_exchange_join_null_keys(ray_session):
    """Null join keys never match (SQL semantics), but left_outer keeps the
    null-keyed left rows with a null right side."""
    import ray.data as rd

    left = pa.table({"k": pa.array([1, None, 2], pa.int64()),
                     "a": pa.array([10, 11, 12], pa.int64())})
    right = pa.table({"rk": pa.array([1, None], pa.int64()),
                      "b": pa.array([100, 101], pa.int64())})
    inner = exchange_join(rd.from_arrow(left), rd.from_arrow(right),
                          "k", "rk", how="inner", p_bits=2).to_pandas()
    assert sorted(inner["a"]) == [10]
    louter = exchange_join(rd.from_arrow(left), rd.from_arrow(right),
                           "k", "rk", how="left_outer", p_bits=2).to_pandas()
    assert len(louter) == 3
    assert louter.set_index("a")["b"].notna().to_dict() == {
        10: True, 11: False, 12: False}


# ---------------------------------------------------------------------------
# skew_join: hybrid broadcast-hot/exchange-cold must equal exchange_join
# ---------------------------------------------------------------------------

SKEW_TYPES = ["inner", "left_outer", "left_semi", "left_anti"]


@pytest.mark.parametrize("how", SKEW_TYPES)
@pytest.mark.parametrize("ktype", ["int", "string"])
def test_skew_join_equals_exchange_join(ray_session, how, ktype):
    import ray.data as rd

    from lk_data_test_ray.relational import skew_join

    rng = np.random.default_rng(11)
    n = 4000
    # pathological skew: one key owns half the left side
    raw = np.where(rng.random(n) < 0.5, 0, rng.integers(1, 80, n))
    if ktype == "string":
        lk = pa.array([f"k{v}" for v in raw], pa.string())
        rk = pa.array([f"k{v}" for v in range(100)], pa.string())
    else:
        lk = pa.array(raw.astype(np.int64), pa.int64())
        rk = pa.array(np.arange(100, dtype=np.int64), pa.int64())
    left = rd.from_arrow(pa.table(
        {"k": lk, "v": np.arange(n, dtype=np.int64)})).repartition(6)
    right = rd.from_arrow(pa.table(
        {"rk": rk, "w": np.arange(100, dtype=np.int64) * 7})).repartition(3)

    got = _sorted_pd(pa.Table.from_pandas(
        skew_join(left, right, "k", "rk", how=how,
                  hot_count=300).to_pandas(), preserve_index=False))
    want = _sorted_pd(pa.Table.from_pandas(
        exchange_join(left, right, "k", "rk", how=how).to_pandas(),
        preserve_index=False))
    assert list(got.columns) == list(want.columns)
    assert got.equals(want), how


def test_skew_join_hot_hashes(ray_session):
    """The per-block heavy-hitter partials find the hot key's hash, and
    only it, from upper count bounds that bracket the true counts."""
    import ray.data as rd

    from lk_data_test_ray.relational import _hot_hashes, _key_hash

    rng = np.random.default_rng(5)
    n = 5000
    keys = np.where(rng.random(n) < 0.6, 42, rng.integers(100, 5000, n))
    ds = rd.from_arrow(pa.table(
        {"k": pa.array(keys.astype(np.int64))})).repartition(8)
    hot = _hot_hashes(ds.to_arrow_refs(), "k", thr=1000)
    assert hot.tolist() == _key_hash(pa.array([42], pa.int64())).tolist()
    # m=4 per block leaves counts out: the bound may add a hash, never
    # drop the hot one
    assert set(hot) <= set(_hot_hashes(ds.to_arrow_refs(), "k", 1000, m=4))


@pytest.mark.parametrize("how", SKEW_TYPES)
def test_skew_join_int_key_with_nulls(ray_session, how):
    """An int64 key with nulls and one hot key: the hot split runs on key
    hashes (nulls are one hash), so it equals the plain exchange join."""
    import ray.data as rd

    from lk_data_test_ray.relational import skew_join

    rng = np.random.default_rng(23)
    n = 3000
    raw = np.where(rng.random(n) < 0.4, 9, rng.integers(0, 60, n))
    lk = pa.array(raw.astype(np.int64), mask=rng.random(n) < 0.05)
    rk = pa.array(np.arange(50, dtype=np.int64),
                  mask=np.arange(50) % 17 == 3)
    left = rd.from_arrow(pa.table(
        {"k": lk, "v": np.arange(n, dtype=np.int64)})).repartition(5)
    right = rd.from_arrow(pa.table(
        {"rk": rk, "w": np.arange(50, dtype=np.int64)})).repartition(2)
    got = _sorted_pd(pa.Table.from_pandas(
        skew_join(left, right, "k", "rk", how=how,
                  hot_count=100).to_pandas(), preserve_index=False))
    want = _sorted_pd(pa.Table.from_pandas(
        exchange_join(left, right, "k", "rk", how=how).to_pandas(),
        preserve_index=False))
    assert list(got.columns) == list(want.columns)
    assert got.equals(want), how


def test_skew_join_no_hot_keys_falls_back(ray_session):
    import ray.data as rd

    from lk_data_test_ray.relational import skew_join

    # uniform keys, huge threshold: hot set empty -> pure exchange path
    left = rd.from_arrow(pa.table({
        "k": pa.array(np.arange(500, dtype=np.int64) % 50),
        "v": pa.array(np.arange(500, dtype=np.int64))})).repartition(4)
    right = rd.from_arrow(pa.table({
        "rk": pa.array(np.arange(50, dtype=np.int64)),
        "w": pa.array(np.arange(50, dtype=np.int64))}))
    got = _sorted_pd(pa.Table.from_pandas(
        skew_join(left, right, "k", "rk", hot_count=10**9).to_pandas(),
        preserve_index=False))
    want = _sorted_pd(pa.Table.from_pandas(
        exchange_join(left, right, "k", "rk").to_pandas(),
        preserve_index=False))
    assert got.equals(want)


@pytest.mark.parametrize("how", ["inner", "left_semi", "left_anti"])
def test_exchange_join_bloom_reduce(ray_session, how):
    """Bloom pre-screen must not change results (zero false negatives);
    definite anti-misses bypass the exchange entirely."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    # low-selectivity join: right covers only 5% of the left key space
    lk = pa.array(rng.integers(0, 2000, 3000).astype(np.int64))
    rk = pa.array(np.arange(0, 100, dtype=np.int64))
    left = rd.from_arrow(pa.table(
        {"k": lk, "v": np.arange(3000, dtype=np.int64)})).repartition(5)
    right = rd.from_arrow(pa.table(
        {"rk": rk, "w": np.arange(100, dtype=np.int64)})).repartition(2)
    got = _sorted_pd(pa.Table.from_pandas(
        exchange_join(left, right, "k", "rk", how=how,
                      bloom_reduce=True).to_pandas(), preserve_index=False))
    want = _sorted_pd(pa.Table.from_pandas(
        exchange_join(left, right, "k", "rk", how=how).to_pandas(),
        preserve_index=False))
    assert got.equals(want), how


def _counted_side(tmp_path, name, tbl, n_blocks=4):
    """A lazy ``read_parquet -> map_batches`` input of ``n_blocks`` blocks
    whose UDF leaves one marker file per call, and the marker dir."""
    import tempfile

    import ray.data as rd

    src, marks = tmp_path / f"{name}_src", tmp_path / f"{name}_calls"
    src.mkdir()
    marks.mkdir()
    step = -(-tbl.num_rows // n_blocks)
    for b in range(n_blocks):
        pq.write_table(tbl.slice(b * step, step), src / f"{b}.parquet")

    def udf(batch):
        os.close(tempfile.mkstemp(dir=str(marks))[0])
        return batch

    ds = rd.read_parquet(str(src), override_num_blocks=n_blocks).map_batches(
        udf, batch_format="pyarrow", batch_size=None)
    return ds, marks


@pytest.mark.parametrize("op", ["exchange_join", "skew_join", "asof_join",
                                "nearest_join"])
def test_joins_run_each_input_once(ray_session, tmp_path, op):
    """Each join executes its lazy inputs once: the upstream UDF runs once
    per input block, not again for a schema probe."""
    from lk_data_test_ray import relational

    n = 64
    left = pa.table({"k": pa.array(np.arange(n) % 8, pa.int64()),
                     "lt": pa.array(np.arange(n), pa.int64()),
                     "v": pa.array(np.arange(n), pa.int64())})
    right = pa.table({"k": pa.array(np.arange(n) % 8, pa.int64()),
                      "rt": pa.array(np.arange(n) * 2, pa.int64()),
                      "w": pa.array(np.arange(n), pa.int64())})
    lds, lmarks = _counted_side(tmp_path, "l", left)
    rds, rmarks = _counted_side(tmp_path, "r", right)
    if op == "exchange_join":
        out = relational.exchange_join(lds, rds, "k", "k", p_bits=2)
    elif op == "skew_join":
        out = relational.skew_join(lds, rds, "k", "k", p_bits=2)
    elif op == "asof_join":
        out = relational.asof_join(lds, rds, "k", "lt", "rt", ["v"], ["w"])
    else:
        out = relational.nearest_join(lds, rds, "k", "lt", "rt", ["v"],
                                      ["w"], right_id="w")
    assert out.count() > 0
    assert (len(os.listdir(lmarks)), len(os.listdir(rmarks))) == (4, 4)


@pytest.mark.parametrize("op", ["simhash_pairs", "minhash_lsh_pairs"])
def test_near_dup_pairs_run_input_once(ray_session, tmp_path, op):
    """SimHash and MinHash-LSH pairing sign each input block once: the
    upstream UDF runs once per block, also when survivors need their
    signatures again."""
    from lk_data_test_ray.pipelines import dedup

    base = ["the quick brown fox jumps over the lazy dog",
            "completely different words entirely here now",
            "another unrelated document about databases"]
    docs = pa.table({"doc_id": pa.array(np.arange(24), pa.int64()),
                     "text": [base[i % 3] for i in range(24)]})
    ds, marks = _counted_side(tmp_path, "docs", docs)
    out = getattr(dedup, op)(ds, "doc_id", "text").to_pandas()
    assert len(out) > 0
    assert len(os.listdir(marks)) == 4
