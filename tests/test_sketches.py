"""Sketch correctness: error bounds, merge associativity/commutativity, and
zero false negatives (SURVEY.md §5.1)."""

import numpy as np
import pytest

from lk_data_test_ray.sketches import BloomFilter, HyperLogLog, TDigest


def _hll(values):
    h = HyperLogLog(12)
    h.update_strings(values)
    return h


class TestHLL:
    def test_error_bound(self):
        for n in (1000, 100_000):
            est = _hll([f"v{i}" for i in range(n)]).estimate()
            assert abs(est - n) / n < 0.05

    def test_merge_commutative_associative(self):
        a = _hll([f"a{i}" for i in range(5000)])
        b = _hll([f"b{i}" for i in range(5000)])
        c = _hll([f"a{i}" for i in range(2500, 7500)])
        assert np.array_equal(a.merge(b).registers, b.merge(a).registers)
        assert np.array_equal(a.merge(b).merge(c).registers,
                              a.merge(b.merge(c)).registers)

    def test_merge_equals_union(self):
        a = _hll([f"x{i}" for i in range(10000)])
        b = _hll([f"x{i}" for i in range(5000, 15000)])
        u = _hll([f"x{i}" for i in range(15000)])
        assert a.merge(b).estimate() == pytest.approx(u.estimate())

    def test_roundtrip(self):
        a = _hll(["p", "q"])
        assert HyperLogLog.from_bytes(a.to_bytes()).estimate() == a.estimate()


class TestBloom:
    def test_zero_false_negatives(self):
        b = BloomFilter(50_000, 0.01)
        keys = [f"k{i}" for i in range(50_000)]
        b.add_strings(keys)
        assert b.contains_strings(keys).all()

    def test_fp_rate(self):
        b = BloomFilter(20_000, 0.01)
        b.add_strings([f"k{i}" for i in range(20_000)])
        fp = b.contains_strings([f"absent{i}" for i in range(20_000)]).mean()
        assert fp < 0.03

    def test_merge_or(self):
        b1 = BloomFilter(1000, 0.01)
        b2 = BloomFilter(1000, 0.01)
        b1.add_strings(["one"])
        b2.add_strings(["two"])
        m = b1.merge(b2)
        assert m.contains_strings(["one", "two"]).all()

    def test_roundtrip(self):
        b = BloomFilter(100, 0.01)
        b.add_strings(["z"])
        assert BloomFilter.from_bytes(b.to_bytes()).contains_strings(["z"])[0]


class TestTDigest:
    def test_quantiles(self):
        rng = np.random.default_rng(1)
        data = rng.normal(100, 15, 100_000)
        t = TDigest()
        t.update(data)
        for q in (0.01, 0.1, 0.5, 0.9, 0.99):
            assert t.quantile(q) == pytest.approx(np.quantile(data, q), rel=0.02, abs=1.0)

    def test_merge_matches_whole(self):
        rng = np.random.default_rng(2)
        data = rng.exponential(10, 60_000)
        parts = np.array_split(data, 7)
        digs = []
        for p in parts:
            d = TDigest()
            d.update(p)
            digs.append(d)
        m = digs[0]
        for d in digs[1:]:
            m = m.merge(d)
        assert m.count() == pytest.approx(60_000)
        assert m.quantile(0.5) == pytest.approx(np.quantile(data, 0.5), rel=0.02)

    def test_nan_ignored_and_empty(self):
        t = TDigest()
        t.update(np.array([1.0, np.nan, 3.0]))
        assert t.count() == 2
        assert np.isnan(TDigest().quantile(0.5))

    def test_roundtrip(self):
        t = TDigest()
        t.update(np.arange(1000.0))
        t2 = TDigest.from_bytes(t.to_bytes())
        assert t2.quantile(0.5) == pytest.approx(t.quantile(0.5))


QS = (0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0)


def _digest_cases():
    """(name, build) pairs; build() returns the digests whose bytes and
    quantiles are compared. Covers sizes 0, 1, 2 and 10^5, deltas 20, 100
    and 300, ties, constant and integer-valued inputs, already-merged
    centroids with counts > 1 and an update → merge_many → quantile
    chain."""
    rng = np.random.default_rng(5)
    cases = []
    for delta in (20, 100, 300):
        for n in (0, 1, 2, 100_000):
            v = rng.normal(100, 15, n)
            cases.append((f"normal n={n} d={delta}",
                          lambda v=v, d=delta: [_updated(d, v)]))
        for name, v in (
                ("ties", rng.integers(0, 7, 20_000).astype(np.float64)),
                ("constant", np.full(5_000, 7.0)),
                ("lengths", np.floor(rng.lognormal(7, 1, 30_000))),
                ("heavy tail", rng.pareto(1.2, 30_000))):
            cases.append((f"{name} d={delta}",
                          lambda v=v, d=delta: [_updated(d, v)]))
        # centroids that already carry weight, unsorted, with tied means
        for n in (1, 2, 5_000):
            means = rng.integers(0, 50, n).astype(np.float64)
            counts = rng.integers(1, 40, n).astype(np.float64)
            cases.append((f"weighted n={n} d={delta}",
                          lambda m=means, c=counts, d=delta:
                          [TDigest(d, m.copy(), c.copy())]))

        def chain(d=delta, seed=delta):
            r = np.random.default_rng(seed)
            parts = []
            for k in range(12):
                t = TDigest(d)
                for _ in range(3):
                    t.update(np.floor(r.exponential(400, r.integers(0, 3000))))
                parts.append(TDigest.from_bytes(t.to_bytes()))
            merged = TDigest.merge_many(parts)
            return parts + [merged, TDigest.merge_many([merged, parts[0]])]

        cases.append((f"chain d={delta}", chain))
    # the third centroid lands at q = 0.5 exactly, where its merge size
    # equals the size limit (4 * 2000 * 0.25 / 20 = 100): merged, by <=
    cases.append(("size limit tie", lambda: [TDigest(
        20, np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([925.0, 50.0, 50.0, 975.0]))]))
    return cases


def _updated(delta, values):
    t = TDigest(delta)
    t.update(values)
    return t


def _observe(digests):
    """Every digest's quantiles then bytes, each read twice (the second
    read reuses the first compress)."""
    return [(np.array([d.quantile(q) for q in QS]).tobytes(), d.to_bytes(),
             np.array([d.quantile(q) for q in QS]).tobytes())
            for d in digests]


def test_native_compress_equals_python_loop(monkeypatch):
    """tdcompress.c against TDigest's Python loop, byte for byte."""
    from lk_data_test_ray.sketches import tdigest

    if tdigest.native_compress() is None:
        pytest.skip("native t-digest compress unavailable")
    cases = _digest_cases()
    native = [_observe(build()) for _, build in cases]
    monkeypatch.setattr(tdigest, "native_compress", lambda: None)
    for (name, build), want in zip(cases, native):
        assert _observe(build()) == want, name


def test_native_compress_loads_when_gcc_is_present():
    import shutil

    from lk_data_test_ray.sketches import tdigest

    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH: the Python loop is expected")
    assert tdigest.native_compress() is not None


def test_merge_stats_fallback_identical_and_single_warning(monkeypatch,
                                                           caplog):
    """With the build broken, merge_stats runs the Python loop, gives the
    same bytes and logs one WARNING however often it compresses."""
    import logging

    from lk_data_test_ray.checks.row import merge_stats
    from lk_data_test_ray.sketches import tdigest

    rng = np.random.default_rng(9)
    partials = []
    for _ in range(20):
        t = TDigest()
        t.update(np.floor(rng.lognormal(7, 1, rng.integers(1, 5000))))
        partials.append({"n_rows": 1, "lang_counts": {"en": 1},
                         "html_null": 0, "text_null": 0, "ts_min": None,
                         "ts_max": None, "hll_url": HyperLogLog(12).to_bytes(),
                         "hll_lang": HyperLogLog(12).to_bytes(),
                         "tdigest_textlen": t.to_bytes()})
    want = merge_stats(partials)

    def no_compiler():
        raise RuntimeError("no cc")

    monkeypatch.setattr(tdigest, "_build_compress", no_compiler)
    tdigest.native_compress.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="lk_data_test_ray"):
            assert merge_stats(partials) == want
            assert merge_stats(partials[:7]) == merge_stats(partials[:7])
        warnings = [r for r in caplog.records
                    if r.name == "lk_data_test_ray"
                    and r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "no cc" in warnings[0].getMessage()
        assert tdigest.native_compress() is None
    finally:
        monkeypatch.undo()
        tdigest.native_compress.cache_clear()


def _recompressed(d: TDigest) -> TDigest:
    """``d`` compressed once more, past the skip for compressed digests."""
    d._compressed = False
    d._compress()
    return d


def test_compress_is_a_no_op_on_compressed_digests():
    """What the compress skip relies on: compressing a digest that
    ``from_bytes`` decoded, or a merged digest after its first compress,
    again changes no byte. Covers every ``_digest_cases`` digest plus
    random value sets, deltas and merges."""
    rng = np.random.default_rng(17)
    digests = [d for _, build in _digest_cases() for d in build()]
    for i in range(300):
        d = TDigest(int(rng.choice([20, 100, 300])))
        n = int(rng.integers(0, 20_000))
        d.update([rng.normal(0, 1, n), np.floor(rng.lognormal(6, 1, n)),
                  rng.pareto(1.2, n), rng.integers(0, 9, n) * 1.0,
                  rng.uniform(-1e9, 1e9, n)][i % 5])
        digests.append(d)
    for i in range(60):
        parts = [TDigest.from_bytes(d.to_bytes()) for d in
                 rng.choice(np.array(digests[-300:], dtype=object),
                            int(rng.integers(1, 40)))]
        if len({p.delta for p in parts}) == 1:
            merged = TDigest.merge_many(parts)
            merged._compress()
            want = (merged.means.tobytes(), merged.counts.tobytes())
            _recompressed(merged)
            assert (merged.means.tobytes(), merged.counts.tobytes()) == want
    for d in digests:
        b = d.to_bytes()
        assert _recompressed(TDigest.from_bytes(b)).to_bytes() == b


def _fold_merge_stats(partials):
    """The stats merge as a Python fold, every digest re-compressed where
    the fold used to: the reference ``merge_stats`` must equal byte for
    byte."""
    from lk_data_test_ray.checks.row import merge_stats

    if not partials:
        return merge_stats([])
    hll_u = HyperLogLog.from_bytes(partials[0]["hll_url"])
    hll_l = HyperLogLog.from_bytes(partials[0]["hll_lang"])
    digests = [_recompressed(TDigest.from_bytes(p["tdigest_textlen"]))
               for p in partials]
    td = _recompressed(TDigest(digests[0].delta,
                               np.concatenate([d.means for d in digests]),
                               np.concatenate([d.counts for d in digests])))
    out = {
        "n_rows": partials[0]["n_rows"],
        "lang_counts": dict(partials[0]["lang_counts"]),
        "html_null": partials[0]["html_null"],
        "text_null": partials[0]["text_null"],
        "ts_min": partials[0]["ts_min"],
        "ts_max": partials[0]["ts_max"],
    }
    for p in partials[1:]:
        hll_u = hll_u.merge(HyperLogLog.from_bytes(p["hll_url"]))
        hll_l = hll_l.merge(HyperLogLog.from_bytes(p["hll_lang"]))
        out["n_rows"] += p["n_rows"]
        for k, v in p["lang_counts"].items():
            out["lang_counts"][k] = out["lang_counts"].get(k, 0) + v
        out["html_null"] += p["html_null"]
        out["text_null"] += p["text_null"]
        for key, fn in (("ts_min", min), ("ts_max", max)):
            vals = [x for x in (out[key], p[key]) if x is not None]
            out[key] = fn(vals) if vals else None
    out["hll_url"] = hll_u.to_bytes()
    out["hll_lang"] = hll_l.to_bytes()
    out["tdigest_textlen"] = _recompressed(td).to_bytes()
    out["url_cardinality_est"] = hll_u.estimate()
    out["lang_cardinality_est"] = hll_l.estimate()
    out["textlen_quantiles"] = {str(q): _recompressed(td).quantile(q)
                                for q in (0.1, 0.5, 0.9, 0.99)}
    return out


def _random_partials(rng, n):
    """``n`` stats partials as scan items make them: every tenth an empty
    (C0-failed) one, the rest with tied integer text lengths, langs in
    random first-seen order and, in some, no timestamps."""
    from lk_data_test_ray.checks.row import merge_stats

    langs = np.array(["en", "de", "fr", "", "zz", "ja", "es"], dtype=object)
    out = []
    for i in range(n):
        if i % 10 == 3:
            out.append(merge_stats([]))
            continue
        rows = int(rng.integers(1, 60))
        hu, hl, td = HyperLogLog(12), HyperLogLog(12), TDigest()
        hu.update_strings([f"u{v}" for v in rng.integers(0, 10**6, rows)])
        seen = rng.permutation(langs)[:int(rng.integers(0, len(langs)))]
        hl.update_strings(seen)
        td.update(rng.integers(0, 50, rows).astype(np.float64))
        ts = None if rng.random() < 0.3 else sorted(
            f"2023-0{m}-01T00:00:00.000000" for m in rng.integers(1, 9, 2))
        out.append({
            "n_rows": rows, "hll_url": hu.to_bytes(),
            "hll_lang": hl.to_bytes(), "tdigest_textlen": td.to_bytes(),
            "lang_counts": {str(k): int(rng.integers(1, 9)) for k in seen},
            "html_null": int(rng.integers(0, 3)),
            "text_null": int(rng.integers(0, 3)),
            "ts_min": ts and ts[0], "ts_max": ts and ts[1],
            "item": (0, 1)})
    return out


@pytest.mark.parametrize("n", [1, 64, 2576])
def test_merge_stats_equals_fold_byte_for_byte(n):
    """The vectorized merge pickles to the same bytes as the fold it
    replaced, and merging merged partials again is the same merge."""
    import pickle

    from lk_data_test_ray.checks.row import merge_stats

    partials = _random_partials(np.random.default_rng(n), n)
    got = merge_stats(partials)
    assert (pickle.dumps(got, protocol=5)
            == pickle.dumps(_fold_merge_stats(partials), protocol=5))
    if n > 1:
        halves = [merge_stats(partials[:n // 2]),
                  merge_stats(partials[n // 2:])]
        assert (pickle.dumps(merge_stats(halves), protocol=5)
                == pickle.dumps(_fold_merge_stats(halves), protocol=5))


def test_grouped_tdigest_quantiles_close_to_exact():
    import numpy as np
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import t_quantiles_sketch

    sf = "/root/testdata/sf0.001"
    est = t_quantiles_sketch(sf).to_pandas().set_index("lang")
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["lang", "n_chars"]).to_pandas()
    for lang, grp in docs.groupby("lang"):
        exact50 = np.median(grp["n_chars"])
        exact95 = np.quantile(grp["n_chars"], 0.95)
        assert abs(est.loc[lang, "p50_est"] - exact50) / exact50 < 0.1
        assert abs(est.loc[lang, "p95_est"] - exact95) / exact95 < 0.1


def test_grouped_hll_within_epsilon_of_exact(ray_session):
    """Grouped HLL distinct estimate tracks the exact grouped distinct."""
    from lk_data_test_ray.pipelines.queries import (a_distinct_users_hll,
                                                    a_distinct_users_per_type)

    sf = "/root/testdata/sf0.001"
    est = a_distinct_users_hll(sf).to_pandas().set_index("event_type")
    exact = a_distinct_users_per_type(sf).to_pandas().set_index("event_type")
    assert set(est.index) == set(exact.index)
    for t in exact.index:
        e, x = est.loc[t, "n_users_est"], exact.loc[t, "n_users"]
        assert abs(e - x) / max(x, 1) < 0.05, (t, e, x)  # p=12 → ~1.6% ε


def test_approx_topk_bounds_and_recovery():
    """Heavy-hitter sketch on Zipf data WITH truncation: merged bounds
    must bracket every true count, and the well-separated head must be
    recovered exactly."""
    import numpy as np

    from lk_data_test_ray.sketches import ApproxTopK

    rng = np.random.default_rng(11)
    # 2000 distinct items, Zipf-ish: item i has weight ~ 1/(i+1)
    n_items = 2000
    weights = 1.0 / np.arange(1, n_items + 1)
    weights /= weights.sum()
    stream = rng.choice(n_items, size=200_000, p=weights)
    true = np.bincount(stream, minlength=n_items)

    # split into 40 blocks, sketch each with m=64 (heavy truncation)
    sketches = []
    for blk in np.array_split(stream, 40):
        items, counts = np.unique(blk, return_counts=True)
        sketches.append(ApproxTopK.from_counts(
            items.astype(str).astype(object), counts, m=64))
    merged = ApproxTopK.merge_many(sketches)

    for it, lo, hi in zip(merged.items, merged.lo, merged.hi):
        t = int(true[int(it)])
        assert lo <= t <= hi, (it, lo, t, hi)

    # head items whose true count clears the sketch's residual bound by
    # a margin must be present and correctly ordered among themselves
    top = merged.top(10)
    got_head = [int(t[0]) for t in top[:5]]
    assert got_head == list(np.argsort(-true, kind="stable")[:5])


def test_approx_topk_exact_when_no_truncation():
    import numpy as np

    from lk_data_test_ray.sketches import ApproxTopK

    s1 = ApproxTopK.from_counts(np.array(["a", "b", "c"], object),
                                np.array([5, 3, 1]), m=16)
    s2 = ApproxTopK.from_counts(np.array(["b", "d"], object),
                                np.array([4, 2]), m=16)
    m = ApproxTopK.merge_many([s1, s2])
    assert m.top(4) == [("b", 7, 7), ("a", 5, 5), ("d", 2, 2), ("c", 1, 1)]


class TestCountMin:
    def _zipf_counts(self, n_items=5000, n=300_000, seed=7):
        rng = np.random.default_rng(seed)
        w = 1.0 / np.arange(1, n_items + 1)
        stream = rng.choice(n_items, size=n, p=w / w.sum())
        return np.bincount(stream, minlength=n_items)

    def test_never_undercounts_and_epsilon_bound(self):
        import pandas as pd

        from lk_data_test_ray.sketches import CountMin

        true = self._zipf_counts()
        items = np.array([f"tok{i}" for i in range(len(true))], object)
        h = pd.util.hash_array(items)
        cms = CountMin(depth=4, width=2048)
        cms.add_hashed(h, true)
        est = cms.query_hashed(h)
        assert (est >= true).all()                      # structural
        n_total = int(true.sum())
        eps = np.e / 2048
        # ≤ εN holds for ≥ (1 − δ) of items, δ = e^−4 ≈ 1.8%; allow 3%
        frac_bad = float(((est - true) > eps * n_total).mean())
        assert frac_bad < 0.03, frac_bad

    def test_merge_equals_bulk(self):
        import pandas as pd

        from lk_data_test_ray.sketches import CountMin

        true = self._zipf_counts(n_items=1000, n=50_000, seed=3)
        items = np.array([f"t{i}" for i in range(len(true))], object)
        h = pd.util.hash_array(items)
        bulk = CountMin(4, 512)
        bulk.add_hashed(h, true)
        parts = []
        for idx in np.array_split(np.arange(len(true)), 7):
            s = CountMin(4, 512)
            s.add_hashed(h[idx], true[idx])
            parts.append(s)
        merged = CountMin.merge_many(parts)
        assert np.array_equal(merged.table, bulk.table)

    def test_roundtrip(self):
        import pandas as pd

        from lk_data_test_ray.sketches import CountMin

        items = np.array(["x", "y", "z"], object)
        h = pd.util.hash_array(items)
        c = CountMin(4, 64)
        c.add_hashed(h, np.array([9, 2, 5]))
        r = CountMin.from_bytes(c.to_bytes())
        assert np.array_equal(r.query_hashed(h), c.query_hashed(h))
        assert (r.depth, r.width) == (4, 64)


def test_token_freq_cms_matches_exact(ray_session):
    """MG+CMS composition on the fixture: the fixture vocabulary is far
    below the CMS table size, so every estimate must equal the exact
    count (the oracle gate asserts the same at sf0.01)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import t_token_freq_cms

    sf = "/root/testdata/sf0.001"
    got = t_token_freq_cms(sf)
    text = pq.read_table(f"{sf}/documents.parquet", columns=["text"])["text"]
    toks = pc.list_flatten(
        pc.split_pattern_regex(text.combine_chunks(), r"\s+"))
    vc = toks.value_counts()
    exact = dict(zip(vc.field("values").to_pylist(),
                     vc.field("counts").to_pylist()))
    assert got.num_rows == 20
    for tok, est in zip(got["token"].to_pylist(), got["n_est"].to_pylist()):
        assert est == exact[tok], (tok, est, exact[tok])


def test_rolling_distinct_hll_tracks_exact(ray_session):
    """The HLL rolling 7-day distinct series stays within the sketch's
    error band of the exact first-in-window series, day by day."""
    from lk_data_test_ray.pipelines.queries import (
        pages_rolling_distinct_7d, pages_rolling_distinct_7d_hll)

    sf = "/root/testdata/sf0.001"
    exact = {r["day"]: r["n_distinct_7d"]
             for r in pages_rolling_distinct_7d(sf).to_pylist()}
    est = pages_rolling_distinct_7d_hll(sf)
    assert est.num_rows == len(exact)
    for day, e in zip(est["day"].to_pylist(), est["n_est"].to_pylist()):
        x = exact[day]
        # ±5% relative, with ±2 absolute slack for the tiny sf0.001
        # windows (hash collisions dominate below ~50 distinct)
        assert abs(e - x) <= max(0.05 * x, 2.0), (day, e, x)


def test_rolling_p95_tracks_exact(ray_session):
    """Windowed t-digest p95 stays within 10% of the exact per-window
    quantile, day by day."""
    import duckdb
    import glob as _glob

    from lk_data_test_ray.pipelines.queries import (_pages_fixture,
                                                    pages_rolling_p95_len_7d)

    # sf0.01: ~140 values per window — below that, interpolation
    # conventions (centroid vs index) dominate the comparison
    sf = "/root/testdata/sf0.01"
    est = pages_rolling_p95_len_7d(sf)
    fix = _pages_fixture(sf)
    g = _glob.glob(f"{fix}/pages/*.parquet")
    exact = {r[0]: (r[1], r[2]) for r in duckdb.connect().execute(f"""
        WITH t AS (SELECT CAST(warc_ts AS DATE) AS day,
                          coalesce(length(text), 0) AS ln
                   FROM read_parquet({g!r})),
        days AS (SELECT DISTINCT day FROM t)
        SELECT strftime(d.day, '%Y-%m-%d'),
               quantile_cont(t.ln, 0.90), quantile_cont(t.ln, 0.99)
        FROM days d JOIN t ON t.day BETWEEN d.day - 6 AND d.day
        GROUP BY 1""").fetchall()}
    assert est.num_rows == len(exact)
    for day, e in zip(est["day"].to_pylist(),
                      est["p95_len_est"].to_pylist()):
        lo, hi = exact[day]
        # RANK tolerance (the honest bound for sparse upper tails):
        # the p95 estimate must land inside the exact [p90, p99] band
        assert lo - 1e-9 <= e <= hi + 1e-9, (day, e, lo, hi)


def test_user_overlap_hll_tracks_exact(ray_session):
    """Inclusion-exclusion HLL overlap tracks exact pairwise user-set
    intersections (relative to the union size — the estimator's scale)."""
    import duckdb

    from lk_data_test_ray.pipelines.queries import a_user_overlap_hll

    sf = "/root/testdata/sf0.001"
    est = a_user_overlap_hll(sf)
    con = duckdb.connect()
    exact = {}
    types = [r[0] for r in con.execute(
        f"SELECT DISTINCT event_type FROM "
        f"read_parquet('{sf}/events.parquet') ORDER BY 1").fetchall()]
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            inter, uni = con.execute(f"""
                WITH a AS (SELECT DISTINCT user_id
                           FROM read_parquet('{sf}/events.parquet')
                           WHERE event_type = '{types[i]}'),
                     b AS (SELECT DISTINCT user_id
                           FROM read_parquet('{sf}/events.parquet')
                           WHERE event_type = '{types[j]}')
                SELECT (SELECT count(*) FROM a JOIN b USING (user_id)),
                       (SELECT count(*) FROM
                        (SELECT user_id FROM a UNION
                         SELECT user_id FROM b))""").fetchone()
            exact[(types[i], types[j])] = (inter, uni)
    for ta, tb, e in zip(est["type_a"].to_pylist(),
                         est["type_b"].to_pylist(),
                         est["overlap_est"].to_pylist()):
        inter, uni = exact[(ta, tb)]
        # inclusion-exclusion compounds 3 estimators: allow 5% of the
        # UNION size (the scale the errors live on)
        assert abs(e - inter) <= max(0.05 * uni, 3.0), (ta, tb, e, inter)
