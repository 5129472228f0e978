"""Unit tests for the generic relational operators (broadcast joins,
map-side partial aggregation, distributed top-k)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from lk_data_test_ray.relational import broadcast_join, partial_groupby_agg, topk


@pytest.fixture
def big_ds():
    return rd.from_arrow(pa.table({
        "k": [1, 2, 3, 4, 2, None],
        "v": [10.0, 20.0, 30.0, 40.0, 21.0, 0.0],
    }))


DIM = pa.table({"k2": [1, 2, 5], "name": ["a", "b", "e"]})


def test_broadcast_inner(big_ds):
    out = broadcast_join(big_ds, DIM, "k", "k2", how="inner").to_pandas()
    assert sorted(out["name"]) == ["a", "b", "b"]
    assert set(out.columns) == {"k", "v", "name"}


def test_broadcast_left(big_ds):
    out = broadcast_join(big_ds, DIM, "k", "k2", how="left").to_pandas()
    assert len(out) == 6
    assert out["name"].isna().sum() == 3  # 3, 4, None unmatched


def test_broadcast_semi_anti(big_ds):
    semi = broadcast_join(big_ds, DIM, "k", "k2", how="semi").to_pandas()
    anti = broadcast_join(big_ds, DIM, "k", "k2", how="anti").to_pandas()
    assert sorted(semi["k"]) == [1, 2, 2]
    assert len(anti) == 3
    assert set(semi.columns) == {"k", "v"}  # no payload appended


def test_partial_groupby_agg_matches_pandas():
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": rng.integers(0, 5, 1000),
        "h": rng.choice(["x", "y"], 1000),
        "v": rng.normal(size=1000),
    })
    ds = rd.from_pandas(df, override_num_blocks=7)  # multi-block → real merge
    out = partial_groupby_agg(
        ds, ["g", "h"],
        [("v", "sum", "s"), ("v", "count", "c"), ("v", "min", "mn"),
         ("v", "max", "mx"), ("v", "mean", "avg")],
    ).to_pandas().sort_values(["g", "h"]).reset_index(drop=True)
    exp = df.groupby(["g", "h"])["v"].agg(
        s="sum", c="count", mn="min", mx="max", avg="mean").reset_index()
    exp = exp.sort_values(["g", "h"]).reset_index(drop=True)
    assert (out["c"] == exp["c"]).all()
    for col in ["s", "mn", "mx", "avg"]:
        np.testing.assert_allclose(out[col], exp[col], atol=1e-12)


def test_partial_groupby_pre_projection():
    ds = rd.from_arrow(pa.table({"g": [1, 1, 2], "a": [2.0, 3.0, 4.0]}))

    def pre(b):
        import pyarrow.compute as pc

        return b.append_column("double_a", pc.multiply(b["a"], 2.0))

    out = partial_groupby_agg(ds, ["g"], [("double_a", "sum", "s")],
                              pre=pre).to_pandas()
    assert dict(zip(out["g"], out["s"])) == {1: 10.0, 2: 8.0}


def test_topk_matches_sorted():
    rng = np.random.default_rng(5)
    df = pd.DataFrame({"id": np.arange(500), "score": rng.normal(size=500)})
    ds = rd.from_pandas(df, override_num_blocks=9)
    out = topk(ds, [("score", True), ("id", False)], 7).to_pandas()
    exp = df.sort_values(["score", "id"], ascending=[False, True]).head(7)
    assert list(out["id"]) == list(exp["id"])


def test_zipf_hot_key_count_matches_plain():
    """A Zipf-hot key (40% of rows on one value) counts exactly through the
    plain groupby: map-side partials shrink it to one row per block."""
    rng = np.random.default_rng(7)
    keys = np.where(rng.random(5000) < 0.4, "hot.example.org",
                    rng.choice([f"h{i}" for i in range(50)], 5000))
    ds = rd.from_arrow(pa.table({"host": pa.array(keys, pa.string())})) \
        .repartition(8)
    out = partial_groupby_agg(
        ds, ["host"], [("one", "count", "n")],
        pre=lambda b: b.append_column(
            "one", pa.array(np.ones(b.num_rows, np.int64)))).to_pandas()
    got = dict(zip(out["host"], out["n"]))
    assert got == pd.Series(keys).value_counts().to_dict()


def test_exchange_join_large_int_key_beside_null():
    """An int64 key above 2**53 hashes to one range whether or not its
    block holds a null (a float64 detour once rounded it apart)."""
    from lk_data_test_ray.relational import exchange_join

    big = 2**60 + 1
    left = rd.from_arrow(pa.table({"k": pa.array([big, None], pa.int64()),
                                   "a": [1, 2]}))
    right = rd.from_arrow(pa.table({"k2": pa.array([big], pa.int64()),
                                    "b": [3]}))
    out = exchange_join(left, right, "k", "k2", p_bits=4).to_pandas()
    assert out["a"].tolist() == [1] and out["b"].tolist() == [3]


def test_hash_repartition_large_int_key_beside_null():
    from lk_data_test_ray.relational import hash_repartition_map

    big = 2**60 + 1
    ds = rd.from_arrow([pa.table({"k": pa.array([big, None], pa.int64())}),
                        pa.table({"k": pa.array([big], pa.int64())})])
    out = hash_repartition_map(
        ds, "k", lambda t: t.group_by(["k"]).aggregate([("k", "count")]),
        p_bits=4).to_pandas()
    assert sorted(out["k_count"]) == [0, 2]   # the null group counts 0


def _range_of(tbl, keys, p_bits=3):
    """row -> range index, from hash_split's outputs."""
    from lk_data_test_ray.relational import hash_split

    tagged = tbl.append_column("_row", pa.array(np.arange(tbl.num_rows)))
    parts = hash_split(tagged, keys, p_bits)
    assert len(parts) == 1 << p_bits
    where = {}
    for p, part in enumerate(parts):
        for r in part["_row"].to_pylist():
            assert r not in where          # ranges are disjoint
            where[r] = p
    assert sorted(where) == list(range(tbl.num_rows))   # and cover
    return [where[r] for r in range(tbl.num_rows)]


def test_hash_split_covers_and_agrees_across_types():
    rng = np.random.default_rng(11)
    ints = rng.integers(-2**40, 2**40, 300)
    strs = [f"u{v}" for v in ints]
    r64 = _range_of(pa.table({"k": pa.array(ints, pa.int64())}), "k")
    r32 = _range_of(pa.table({"k": pa.array(ints % 2**31, pa.int32())}), "k")
    r64b = _range_of(pa.table({"k": pa.array(ints % 2**31, pa.int64())}),
                     "k")
    assert r32 == r64b and len(set(r64)) > 1
    rs = _range_of(pa.table({"k": pa.array(strs, pa.string())}), "k")
    rl = _range_of(pa.table({"k": pa.array(strs, pa.large_string())}), "k")
    assert rs == rl
    two = pa.table({"a": pa.array(ints, pa.int64()),
                    "b": pa.array(strs, pa.string())})
    two32 = pa.table({"a": pa.array(ints, pa.int64()),
                      "b": pa.array(strs, pa.large_string())})
    assert _range_of(two, ["a", "b"]) == _range_of(two32, ["a", "b"])
    # equal key pairs land together within one table too
    dup = pa.concat_tables([two, two])
    r = _range_of(dup, ["a", "b"])
    assert r[:300] == r[300:]


def test_hash_split_keeps_row_order_and_nulls_together():
    from lk_data_test_ray.relational import hash_split

    tbl = pa.table({"k": pa.array([None, 3, None, 7, 3, None], pa.int64()),
                    "i": pa.array(range(6))})
    parts = hash_split(tbl, "k", 2)
    null_ranges = {p for p, t in enumerate(parts)
                   if t["k"].null_count}
    assert len(null_ranges) == 1
    for t in parts:
        assert t["i"].to_pylist() == sorted(t["i"].to_pylist())


def test_partial_groupby_agg_null_keys_form_one_group():
    ds = rd.from_arrow([
        pa.table({"g": pa.array([None, "a", None], pa.string()),
                  "v": pa.array([1, 2, 3], pa.int64())}),
        pa.table({"g": pa.array([None, "a"], pa.string()),
                  "v": pa.array([4, 5], pa.int64())})])
    out = partial_groupby_agg(ds, ["g"], [("v", "sum", "s"),
                                          ("v", "count", "c")]).to_pandas()
    got = {(None if pd.isna(g) else g): (s, c)
           for g, s, c in zip(out["g"], out["s"], out["c"])}
    assert got == {None: (8, 3), "a": (7, 2)}


def test_partial_groupby_agg_keeps_microseconds():
    base = np.datetime64("2024-01-01T00:00:00", "us")
    ts = pa.array([base + np.timedelta64(v, "us") for v in (1, 2, 999_999, 5)],
                  pa.timestamp("us"))
    day = pa.array([base, base, base + np.timedelta64(1, "us"), base],
                   pa.timestamp("us"))
    ds = rd.from_arrow([pa.table({"day": day[:2], "ts": ts[:2]}),
                        pa.table({"day": day[2:], "ts": ts[2:]})])
    out = partial_groupby_agg(ds, ["day"], [("ts", "min", "lo"),
                                            ("ts", "max", "hi")])
    from lk_data_test_ray.relational import collect_tables

    tbl = collect_tables(out, pa.schema([("day", pa.timestamp("us")),
                                         ("lo", pa.timestamp("us")),
                                         ("hi", pa.timestamp("us"))]))
    assert out.schema().base_schema.field("lo").type == pa.timestamp("us")
    got = {d: (lo, hi) for d, lo, hi in zip(
        tbl["day"].cast(pa.int64()).to_pylist(),
        tbl["lo"].cast(pa.int64()).to_pylist(),
        tbl["hi"].cast(pa.int64()).to_pylist())}
    b = int(base.astype(np.int64))
    assert got == {b: (b + 1, b + 5), b + 1: (b + 999_999, b + 999_999)}


def test_partial_groupby_merge_paths_agree(monkeypatch):
    """The one-task merge and the hash-split merge give the same groups;
    exactly representable values make the float sums bit-equal."""
    from lk_data_test_ray import relational

    rng = np.random.default_rng(5)
    n = 20_000
    tbl = pa.table({"g": pa.array(rng.integers(0, 3000, n), pa.int64()),
                    "h": pa.array(rng.choice(["x", "y", None], n)),
                    "v": pa.array(rng.integers(-500, 500, n) / 8.0)})
    ds = rd.from_arrow(tbl).repartition(6).materialize()
    specs = [("v", "sum", "s"), ("v", "count", "c"), ("v", "min", "mn"),
             ("v", "max", "mx"), ("v", "mean", "avg")]

    def run():
        return (partial_groupby_agg(ds, ["g", "h"], specs).to_pandas()
                .sort_values(["g", "h"], na_position="first")
                .reset_index(drop=True))

    one = run()
    monkeypatch.setattr(relational, "_MERGE_ROWS", 100)
    split = run()
    assert len(one) == tbl.group_by(["g", "h"]).aggregate([]).num_rows
    pd.testing.assert_frame_equal(one, split)


def test_map_groups_calls_fn_once_per_group():
    from lk_data_test_ray.relational import map_groups

    tbl = pa.table({"a": pa.array([1, 1, 2, None, None, 1], pa.int64()),
                    "b": pa.array(["x", "y", "x", "x", "x", "x"]),
                    "v": pa.array(range(6), pa.int64())})
    ds = rd.from_arrow([tbl.slice(0, 3), tbl.slice(3)])
    out = map_groups(ds, ["a", "b"], lambda g: pa.table({
        "a": g["a"][:1], "b": g["b"][:1],
        "vs": pa.array([sorted(g["v"].to_pylist())])})).to_pandas()
    got = sorted((((None if pd.isna(a) else int(a)), b, list(vs))
                  for a, b, vs in zip(out["a"], out["b"], out["vs"])),
                 key=str)
    assert got == sorted([(1, "x", [0, 5]), (1, "y", [1]), (2, "x", [2]),
                          (None, "x", [3, 4])], key=str)


def test_round_cols_snaps_ulp_drift_to_nearest_double():
    """A sum that drifted one ULP off a 2-decimal value rounds to the same
    double DuckDB's ROUND gives; nulls stay null."""
    from lk_data_test_ray.relational import round_cols

    tbl = pa.table({"s": pa.array([1509289948.6000001, None, -2.345, 0.5]),
                    "k": pa.array([1, 2, 3, 4])})
    out = round_cols(tbl, {"s": 2})
    assert out["s"].to_pylist() == [1509289948.6, None, -2.35, 0.5]
    assert out["k"].to_pylist() == [1, 2, 3, 4]


def test_package_has_no_ray_groupby():
    """Every groupby runs on the one hash exchange: no Ray ``.groupby(``
    (the sort aggregate) anywhere in the package source."""
    import pathlib

    import lk_data_test_ray

    root = pathlib.Path(lk_data_test_ray.__file__).parent
    hits = [f"{p}:{i}" for p in sorted(root.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if ".groupby(" in line]
    assert hits == []


def test_interval_join():
    from lk_data_test_ray.relational import interval_join

    bands = pa.table({"lo": [0.0, 10.0], "hi": [10.0, 20.0],
                      "band": ["low", "high"]})
    pts = rd.from_arrow(pa.table({"v": [5.0, 10.0, 19.9, 25.0, 0.0]}))
    out = interval_join(pts, bands, "v").to_pandas()
    assert list(out["band"]) == ["low", "high", "high", None, "low"]


def test_topk_per_key():
    from lk_data_test_ray.relational import topk_per_key

    ds = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "v": pa.array([5.0, 9.0, 7.0, 1.0, 2.0, 4.0]),
        "id": pa.array([10, 11, 12, 20, 21, 30], pa.int64()),
    }))
    out = topk_per_key(ds, "k", [("v", True), ("id", False)], 2).to_pandas()
    got = sorted(zip(out["k"], out["id"]))
    assert got == [(1, 11), (1, 12), (2, 20), (2, 21), (3, 30)]


def test_hash_repartition_map_covers_all_keys():
    from lk_data_test_ray.relational import hash_repartition_map

    n = 5000
    ds = rd.from_arrow(pa.table({
        "k": pa.array([i % 97 for i in range(n)], pa.int64()),
        "v": pa.array(list(range(n)), pa.int64()),
    }))

    def per_part(tbl):
        if tbl.num_rows == 0:
            return pa.schema([("k", pa.int64()),
                              ("n", pa.int64())]).empty_table()
        return tbl.group_by(["k"]).aggregate([("v", "count")]) \
                  .rename_columns(["k", "n"])

    out = hash_repartition_map(ds, "k", per_part).to_pandas()
    # every key lands in exactly ONE partition → 97 rows, counts sum to n
    assert len(out) == 97 and out["n"].sum() == n


def test_partitioned_parquet_sink(ray_session, tmp_path):
    """Column-partitioned parquet output (hive layout, one directory per
    lang) — the resumable-output sink shape: a rerun can target single
    partitions, and partition-pruned reads skip the rest."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    tbl = pa.table({
        "doc_id": list(range(100)),
        "lang": [["en", "de", "fr"][i % 3] for i in range(100)],
        "text": [f"doc {i}" for i in range(100)],
    })
    out = str(tmp_path / "by_lang")
    rd.from_arrow(tbl).write_parquet(out, partition_cols=["lang"])
    langs = sorted(d for d in os.listdir(out) if d.startswith("lang="))
    assert langs == ["lang=de", "lang=en", "lang=fr"]
    # partition-pruned read returns exactly that partition's rows
    de = pq.read_table(os.path.join(out, "lang=de"))
    assert de.num_rows == 33
    # full read restores every row (lang reconstructed from the path)
    back = rd.read_parquet(out).to_pandas()
    assert len(back) == 100 and set(back["lang"]) == {"de", "en", "fr"}


def test_union_by_name_casts_and_nulls(ray_session):
    """UNION BY NAME semantics: first-seen column order, typed nulls for
    missing columns, widening cast for type mismatches."""
    import pyarrow as pa
    import ray.data as rd

    from lk_data_test_ray.relational import union_by_name

    a = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "x": pa.array(["p", "q"], pa.string())}))
    b = rd.from_arrow(pa.table({
        "k": pa.array([3], pa.int32()),          # narrower type → cast
        "y": pa.array([7.5], pa.float64())}))    # new column
    out = union_by_name([a, b]).to_pandas().sort_values("k")
    assert list(out.columns) == ["k", "x", "y"]
    assert out["k"].tolist() == [1, 2, 3]
    assert out["x"].tolist()[:2] == ["p", "q"] and out["x"].isna().iloc[2]
    assert out["y"].isna().iloc[:2].all() and out["y"].iloc[2] == 7.5


def test_nearest_join_tiebreaks(ray_session):
    """Nearest-match join: equidistant ⇒ earlier right row wins; equal ts ⇒
    smaller right id wins; keys with no right rows are dropped (inner)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lk_data_test_ray.relational import nearest_join

    def t(v):
        return np.datetime64(v, "us")
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, 3], pa.int64()),
        "lts": pa.array([t(100), t(205), t(50), t(9)],
                        pa.timestamp("us")),
        "lid": pa.array([10, 11, 12, 13], pa.int64()),
    }))
    right = pa.table({
        "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "rts": pa.array([t(90), t(110), t(210), t(50), t(50)],
                        pa.timestamp("us")),
        "rid": pa.array([7, 8, 9, 21, 20], pa.int64()),
    })
    out = nearest_join(
        left, rd.from_arrow(right), key="k", left_ts="lts", right_ts="rts",
        left_cols=["lid"], right_cols=["rid"], right_id="rid",
    ).to_pandas().sort_values("lid").reset_index(drop=True)
    # lts=100: back (90, d=10) vs fwd (110, d=10) tie → earlier (rid 7)
    # lts=205: back 210? no — back is 110 (d=95) vs fwd 210 (d=5) → rid 9
    # k=2 lts=50: two right rows at SAME ts (d=0) → min rid (20)
    # k=3: no right rows → dropped
    assert out["lid"].tolist() == [10, 11, 12]
    assert out["rid"].tolist() == [7, 9, 20]


def test_char_trigram_boundary_mask():
    """Trigram kernel: windows crossing document boundaries are excluded,
    counts match a naive per-string reference."""
    from collections import Counter

    import numpy as np
    import pyarrow as pa

    from lk_data_test_ray.pipelines.queries import _char_trigram_counts

    vals = ["abcd", "xy", "", "hello abc", "ab"]
    grams, counts = _char_trigram_counts(pa.array(vals, pa.string()))
    got = {g.decode(): int(n) for g, n in zip(grams, counts)}
    ref = Counter()
    for v in vals:
        for i in range(len(v) - 2):
            ref[v[i:i + 3]] += 1
    assert got == dict(ref)


def test_char_trigram_non_ascii():
    """Non-ASCII input never crashes the byte-trigram kernel: windows
    touching a non-ASCII byte are dropped (byte-trigrams only equal
    char-trigrams on ASCII), all-ASCII windows still count."""
    from collections import Counter

    import pyarrow as pa

    from lk_data_test_ray.pipelines.queries import _char_trigram_counts

    vals = ["héllo", "日本語 text", "plain", "αβ", "mixed café latte"]
    grams, counts = _char_trigram_counts(pa.array(vals, pa.string()))
    got = {g.decode("ascii") for g in grams}  # decode must not raise
    ref = Counter()
    for v in vals:
        b = v.encode("utf-8")
        for i in range(len(b) - 2):
            w = b[i:i + 3]
            if all(c < 0x80 for c in w):
                ref[w.decode("ascii")] += 1
    assert {g.decode("ascii"): int(n)
            for g, n in zip(grams, counts)} == dict(ref)
    assert "llo" in got and "tex" in got


def test_word_len_hist_non_ascii(ray_session, tmp_path):
    """Non-ASCII text never crashes the word-length kernel; multi-byte
    tokens count their documented utf-8 BYTE width."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import t_word_len_hist

    docs = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["日本 ab", "café x"], pa.string()),
        "lang": pa.array(["ja", "fr"], pa.string()),
        "source": pa.array(["s"] * 2, pa.string()),
        "n_chars": pa.array([5, 6], pa.int64()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = (t_word_len_hist(str(tmp_path)).to_pandas()
           .set_index("word_len")["n"].to_dict())
    # tokens: 日本(6 bytes) ab(2) | café(5 bytes) x(1)
    assert out == {1: 1, 2: 1, 5: 1, 6: 1}


def test_word_len_hist_runs(ray_session, tmp_path):
    """Word-length kernel: token runs end at spaces AND document
    boundaries; multi-space gaps produce no zero-length tokens."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import t_word_len_hist

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["ab  cde f", "ghij", " k "], pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
        "source": pa.array(["src1"] * 3, pa.string()),
        "n_chars": pa.array([9, 4, 3], pa.int64()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = (t_word_len_hist(str(tmp_path)).to_pandas()
           .set_index("word_len")["n"].to_dict())
    # tokens: ab(2) cde(3) f(1) | ghij(4) | k(1)
    assert out == {1: 2, 2: 1, 3: 1, 4: 1}


def test_jsonl_csv_sink_roundtrip(ray_session, tmp_path):
    """Sink completeness (S3 beyond parquet): write_json / write_csv emit
    per-block files that read back value-identical through the matching
    Ray Data source."""
    import pyarrow as pa
    import ray.data as rd

    tbl = pa.table({
        "k": pa.array([3, 1, 2], pa.int64()),
        "v": pa.array(["a", "b", "c"], pa.string()),
        "x": pa.array([1.5, -2.0, 0.25], pa.float64()),
    })
    ds = rd.from_arrow(tbl)
    jd, cd = str(tmp_path / "j"), str(tmp_path / "c")
    ds.write_json(jd)
    ds.write_csv(cd)
    back_j = rd.read_json(jd).to_pandas().sort_values("k").reset_index(drop=True)
    back_c = rd.read_csv(cd).to_pandas().sort_values("k").reset_index(drop=True)
    ref = tbl.to_pandas().sort_values("k").reset_index(drop=True)
    for back in (back_j, back_c):
        assert back["k"].tolist() == ref["k"].tolist()
        assert back["v"].tolist() == ref["v"].tolist()
        assert back["x"].tolist() == ref["x"].tolist()


def test_asof_join_forward_direction(ray_session):
    """Forward as-of: first right row with ts >= left ts; equal-ts tie →
    min tiebreak; keys with no later right row keep nulls (left join)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lk_data_test_ray.relational import asof_join

    def t(v):
        return np.datetime64(v, "us")

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "lts": pa.array([t(100), t(300), t(10)], pa.timestamp("us")),
        "lid": pa.array([1, 2, 3], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1, 2], pa.int64()),
        "rts": pa.array([t(100), t(100), t(250), t(5)], pa.timestamp("us")),
        "rid": pa.array([8, 7, 9, 4], pa.int64()),
    }))
    out = asof_join(left, right, key="k", left_ts="lts", right_ts="rts",
                    left_cols=["lid"], right_cols=["rid"],
                    right_tiebreak="rid", direction="forward"
                    ).to_pandas().sort_values("lid").reset_index(drop=True)
    # lid=1 (ts100): two right rows AT 100 → min rid (7)
    # lid=2 (ts300): nothing at/after 300 → null
    # lid=3 k=2 (ts10): right at 5 is BEFORE → null (forward only)
    assert out["rid"].tolist()[0] == 7
    assert np.isnan(out["rid"].tolist()[1]) and np.isnan(out["rid"].tolist()[2])


def test_compact_parquet_roundtrip(ray_session, tmp_path):
    """Compaction: fewer files, identical content, deterministic block
    count from rows_per_block, atomic output (no .tmp left behind)."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from lk_data_test_ray.pipelines.maintenance import compact_parquet

    tbl = pa.table({"k": list(range(1000)),
                    "v": [f"r{i}" for i in range(1000)]})
    frag = str(tmp_path / "frag")
    rd.from_arrow(tbl).repartition(20).write_parquet(frag)
    out = str(tmp_path / "compact")
    s = compact_parquet(frag, out, rows_per_block=400)
    assert s["rows"] == 1000 and s["files_in"] == 20
    assert s["files_out"] <= 3  # ceil(1000/400) blocks
    assert not os.path.exists(out + ".tmp")
    back = rd.read_parquet(out).to_pandas().sort_values("k")
    assert back["k"].tolist() == list(range(1000))
    assert back["v"].tolist() == [f"r{i}" for i in range(1000)]
    # re-run overwrites cleanly (idempotent maintenance)
    s2 = compact_parquet(frag, out, rows_per_block=400)
    assert s2["rows"] == 1000


def test_nearest_join_matches_bruteforce(ray_session):
    """Randomized check: nearest_join equals the argmin over all pairs
    under the lexicographic (|Δ|, ts, id) order, across many keys with
    duplicate timestamps."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from lk_data_test_ray.relational import nearest_join

    rng = np.random.default_rng(11)
    nl, nr = 300, 400
    lt = pa.table({
        "k": pa.array(rng.integers(0, 25, nl), pa.int64()),
        "lts": pa.array(rng.integers(0, 500, nl).astype("datetime64[us]")),
        "lid": pa.array(np.arange(nl), pa.int64()),
    })
    rt = pa.table({
        "k": pa.array(rng.integers(0, 30, nr), pa.int64()),
        "rts": pa.array(rng.integers(0, 500, nr).astype("datetime64[us]")),
        "rid": pa.array(np.arange(nr), pa.int64()),
    })
    out = nearest_join(rd.from_arrow(lt), rd.from_arrow(rt), key="k",
                       left_ts="lts", right_ts="rts", left_cols=["lid"],
                       right_cols=["rid"], right_id="rid").to_pandas()
    got = dict(zip(out["lid"], out["rid"]))
    # brute force
    ld, rd_ = lt.to_pandas(), rt.to_pandas()
    want = {}
    for _, lrow in ld.iterrows():
        cand = rd_[rd_["k"] == lrow["k"]]
        if not len(cand):
            continue
        d = (cand["rts"] - lrow["lts"]).abs()
        order = pd.DataFrame({"d": d, "ts": cand["rts"], "id": cand["rid"]})
        best = order.sort_values(["d", "ts", "id"], kind="mergesort").iloc[0]
        want[lrow["lid"]] = int(best["id"])
    assert got == want


def test_interval_overlap_counts_match_bruteforce(ray_session, tmp_path):
    """Randomized check: session×window overlap counts equal a brute-force
    double loop over the same session/window definitions."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import (ERR_WINDOW_MIN,
                                                    SESSION_GAP_MIN,
                                                    j_interval_overlap)

    rng = np.random.default_rng(23)
    n = 2000
    ts = np.sort(rng.integers(0, 3 * 86_400_000_000, n))  # 3 days in µs
    ev = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, 40, n), pa.int64()),
        "event_type": pa.array(
            np.where(rng.random(n) < 0.03, "error", "view")),
        "value": pa.array(rng.random(n)),
        "props": pa.array(["{}"] * n, pa.string()),
    })
    pq.write_table(ev, str(tmp_path / "events.parquet"))
    out = j_interval_overlap(str(tmp_path)).to_pandas()

    df = ev.to_pandas()
    gap = SESSION_GAP_MIN * 60 * 1_000_000
    half = ERR_WINDOW_MIN * 60 * 1_000_000
    # brute force sessions
    sess = []
    for uid, g in df.groupby("user_id"):
        t = np.sort(g["ts"].astype("int64").to_numpy())
        start = t[0]
        prev = t[0]
        for x in t[1:]:
            if x - prev > gap:
                sess.append((uid, start, prev))
                start = x
            prev = x
        sess.append((uid, start, prev))
    # brute force merged windows
    et = np.sort(df[df["event_type"] == "error"]["ts"]
                 .astype("int64").to_numpy())
    wins = []
    for x in et:
        lo, hi = x - half, x + half
        if wins and lo <= wins[-1][1]:
            wins[-1] = (wins[-1][0], max(wins[-1][1], hi))
        else:
            wins.append((lo, hi))
    want = {}
    for uid, s, e in sess:
        cnt = sum(1 for lo, hi in wins if s <= hi and e >= lo)
        want[(uid, s, e)] = cnt
    got = {(r.user_id, int(pd.Timestamp(r.session_start).value // 1000),
            int(pd.Timestamp(r.session_end).value // 1000)): r.n_err_windows
           for r in out.itertuples()}
    assert got == want
