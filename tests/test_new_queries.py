"""Oracle-parity pytest for the round-2 operator additions (TF-IDF,
grouped mode, grouped stddev partials, deterministic hash sample,
unpivot/melt, full-outer join) — same compare as the driver's gate,
at sf0.001 for speed."""

import sys
from pathlib import Path

import duckdb
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "tools"))

from oracle_check import TABLES, compare, to_pandas  # noqa: E402

SF = "/root/testdata/sf0.001"

NEW_QUERIES = [
    "t_tfidf_top",
    "a_mode_lang_per_source",
    "a_price_stats_by_priority",
    "o_hash_sample",
    "m_unpivot_lineitem",
    "j_full_outer_activity",
    "e_first_last_per_user",
    "q6_revenue_delta",
    "e_cum_daily",
    "a_rollup_cust",
    "t_repetition",
    "td_split",
    "td_decontaminate",
    "a_price_histogram",
    "e_dow_hour_heatmap",
    "v_jsonl_source",
    "v_csv_source",
    "a_corr_qty_price",
    "o_stratified_sample",
    "s_embed_dim_stats",
    "dd_paragraphs",
    "td_pack",
    "o_ntile_price",
    "j_fuzzy_name_match",
    "t_top_tokens_approx",
    "s_label_centroids",
    "a_median_price_exact",
    "t_top_bigrams",
    "e_daily_dense",
    "t_bpe_tokens",
    "e_gap_quantiles",
    "v_profile_orders",
    "e_retention_cohorts",
    "td_gopher_rules",
    "q10_returned_revenue",
    "dd_containment",
    "a_zipf_slope",
    "e_anomaly_zscore",
    "q14_promo_revenue",
    "q18_big_orders",
    "e_ffill_last_purchase",
    "td_chunks",
    "a_salted_event_counts",
    "s_ann_ivf",
    "q11_important_parts",
    "q22_idle_rich_customers",
    "q2_min_cost_supplier",
    "q4_priority_exists",
    "q7_nation_volume",
    "q8_market_share",
    "q9_profit",
    "q12_priority_linecount",
    "q13_order_count_distribution",
    "q15_top_supplier",
    "q16_supplier_part_counts",
    "q17_small_qty_revenue",
    "q19_disjunctive_revenue",
    "q20_excess_shippers",
    "q21_waiting_suppliers",
    "j_skew_user_events",
    "a_cube_lang_source",
    "t_badwords",
    "td_mix_sample",
    "o_intersect_except",
    "td_ccnet_buckets",
    "a_winsorize_price",
    "dd_dup_spans",
    "td_shuffle_shards",
    "o_union_evolved",
    "td_rebalance",
    "a_percent_rank",
    "e_transitions",
    "v_skew_report",
    "t_pmi_top",
    "dd_substr_cut",
    "o_weighted_sample",
    "j_follow_within",
    "mm_decode_ppm",
    "mm_frame_ppm",
    "j_scd2_history",
    "td_decontaminate_embed",
    "mm_audio_wav",
    "e_cum_new_users",
    "v_ship_before_order",
    "e_dedup_consecutive",
    "j_nearest_event",
    "j_interval_overlap",
    "t_char_ngrams",
    "t_word_len_hist",
    "a_mad_outliers",
    "v_fk_orphans",
    "e_rolling_revenue_7d",
    "o_dense_rank_price",
    "t_hapax_ratio",
    "j_asof_next_event",
    "a_churned_customers",
    "e_dau_mau",
    "mm_image_dims",
    # round-4 fifth-session additions over the testdata tables
    "a_entropy_by_source",
    "a_gini_spend",
    "s_radius_search",
    "t_sentence_stats",
    "t_winnow_fingerprints",
    "dd_cdc_chunks",
    "td_curriculum_pack",
    "a_quantiles_exact",
    "v_join_fanout",
    "dd_winnow_pairs",
    "s_knn_classify",
    "t_js_divergence",
    "e_user_entropy",
    "mm_phash_clusters",
    "td_temperature_mix",
    "e_burst_rate",
    "v_benford",
    "v_cusum_shift",
    "v_table_fingerprint",
    "o_bottomk_sample",
    "a_theil_index",
    # v_completeness_daily's oracle reads the sf0.01 pages fixture —
    # parity checked by the driver/oracle_check at sf0.01
    # g_*/v_ks_drift/v_dup_capture_window/dd_c4_line_dedup/
    # pages_boilerplate_ratio oracles read the sf0.01
    # pages/recrawl fixtures — parity checked by the driver/oracle_check
    # pages_latest_per_host / g_triangles oracles read the sf0.01 pages
    # fixture (like g_pagerank) — parity checked by the driver/oracle_check
    # g_degree_stats' oracle reads the sf0.01 pages fixture (like g_pagerank)
    # v_daily_lang_drift's oracle reads the sf0.01 pages fixture (like
    # g_pagerank below) — parity checked by the driver/oracle_check at sf0.01
    # g_pagerank's oracle SQL reads the sf0.01 pages fixture (driver scale);
    # at this test's sf0.001 it mismatches by construction — parity is
    # checked by the driver/oracle_check at sf0.01, correctness by
    # tests/test_graph.py
]


@pytest.fixture(scope="module")
def entry(ray_session):
    import __ray_entry__ as e

    return e


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * "
                  f"FROM read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.mark.parametrize("name", NEW_QUERIES)
def test_oracle_parity(entry, con, name):
    mine = to_pandas(entry.queries()[name](SF))
    ora = con.execute(entry.oracle_sql()[name]).df()
    verdict = compare(name, mine, ora)
    assert verdict == "OK", verdict


def test_ngram_coverage_hash_wire_equals_string(ray_session, tmp_path):
    """The 128-bit gram-hash wire path (default) and the string-key oracle
    path produce identical per-doc duplication fractions."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import dd_ngram_coverage

    texts = [
        "a b c d e f g h",          # shares 5-grams with doc 2
        "z y x w v u t s r",
        "a b c d e f q",            # "a b c d e" + "b c d e f" shared
        "one two three four",       # <5 tokens → no row
        "m n o p q r s t u v w",
    ]
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["s"] * len(texts), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    h = (dd_ngram_coverage(str(tmp_path), wire="hash").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    s = (dd_ngram_coverage(str(tmp_path), wire="string").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    assert h.equals(s)
    got = dict(zip(h["doc_id"], h["dup_frac"]))
    assert 3 not in got                 # <5 tokens → no grams, no row
    assert got[1] == 0.0 and got[4] == 0.0
    # shared "a b c d e"/"b c d e f" (dup_frac is rounded to 6 decimals)
    assert got[0] == 0.5 and got[2] == 0.666667


def test_c4_line_filters_rules(ray_session, tmp_path, monkeypatch):
    """Hand-built docs exercise every C4 rule branch: terminal punct,
    <3 words, javascript line, lorem-ipsum page, brace page, the ≥5
    kept-lines page gate, and ASCII-space trimming."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import lk_data_test_ray.pipelines.queries as q

    k = "good line here."        # kept
    docs = [
        "\n".join([k] * 5),                          # exactly 5 kept → page kept
        "\n".join([k] * 4),                          # 4 kept → page dropped
        "\n".join([k] * 5 + ["uses JavaScript now."]),   # js line dropped, page kept
        "\n".join([k] * 5 + ["code { brace }"]),     # brace → page dropped
        "\n".join([k] * 5 + ["Lorem Ipsum ahead."]), # lorem → page dropped
        "\n".join(["  " + k + "  "] * 5),            # trim then keep
        "\n".join(["no punct here", "hi.", "a b."]), # 0 kept (first no punct, rest <3 words... "hi." 1 word, "a b." 2)
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                    "text": pa.array(docs, pa.string())})
    fix = tmp_path / "lines"
    fix.mkdir()
    pq.write_table(tbl, str(fix / "lines-000.parquet"))
    monkeypatch.setattr(q, "ensure_lines", lambda n, **kw: str(fix))
    out = (q.td_c4_line_filters(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # doc 4's lorem line is itself a valid LINE (3 words, terminal punct);
    # the lorem-ipsum rule is page-level only
    assert list(out["kept_lines"]) == [5, 4, 5, 5, 6, 5, 0]
    assert list(out["n_lines"]) == [5, 4, 6, 6, 6, 5, 3]
    assert list(out["page_kept"]) == [True, False, True, False, False,
                                      True, False]


def test_c4_spans_cut_semantics(ray_session, tmp_path, monkeypatch):
    """Hand-built docs exercise every dd_c4_spans branch: the globally
    first (doc_id, pos) occurrence survives, cross-doc and within-doc
    duplicates are cut, overlapping removed spans union their lines, and
    <3-line docs pass through untouched."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import lk_data_test_ray.pipelines.queries as q

    docs = [
        "A\nB\nC\nD",        # first occurrences of ABC, BCD → unchanged
        "A\nB\nC",           # ABC dup of doc0@1 → everything cut
        "X\nA\nB\nC\nY",     # ABC dup at pos 2 → middle cut
        "P\nQ\nR\nP\nQ\nR",  # within-doc: PQR@4 dups PQR@1 → tail cut
        "M\nN",              # <3 lines: no spans
        "A\nB\nC\nD\nE",     # ABC@1 and BCD@2 both dup → union cuts 1-4
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                    "text": pa.array(docs, pa.string())})
    fix = tmp_path / "lines"
    fix.mkdir()
    pq.write_table(tbl, str(fix / "lines-000.parquet"))
    monkeypatch.setattr(q, "ensure_lines", lambda n, **kw: str(fix))
    out = (q.dd_c4_spans(SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert list(out["clean_text"]) == [
        "A\nB\nC\nD", "", "X\nY", "P\nQ\nR", "M\nN", "E"]


_C4_SPAN_SQL = """
    WITH d AS (
        SELECT doc_id, text, string_split(text, chr(10)) AS ls
        FROM read_parquet('{glob}')
    ),
    l AS (
        SELECT doc_id, unnest(ls) AS line,
               generate_subscripts(ls, 1) AS pos
        FROM d
    ),
    sp AS (
        SELECT doc_id, pos,
               line || chr(10) || lead(line, 1) OVER w || chr(10)
                    || lead(line, 2) OVER w AS span,
               lead(pos, 2) OVER w AS p2
        FROM l WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
    ),
    dup AS (
        SELECT doc_id, pos FROM (
            SELECT doc_id, pos, row_number() OVER (
                PARTITION BY span ORDER BY doc_id, pos) AS rn
            FROM sp WHERE p2 IS NOT NULL) WHERE rn > 1
    ),
    rem AS (
        SELECT DISTINCT l.doc_id, l.pos FROM l JOIN dup
          ON l.doc_id = dup.doc_id
         AND l.pos BETWEEN dup.pos AND dup.pos + 2
    )
    SELECT l.doc_id,
           coalesce(string_agg(l.line, chr(10) ORDER BY l.pos)
                    FILTER (WHERE r.pos IS NULL), '') AS clean_text
    FROM l LEFT JOIN rem r
      ON l.doc_id = r.doc_id AND l.pos = r.pos
    GROUP BY l.doc_id
"""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_c4_spans_fuzz_vs_duckdb(ray_session, tmp_path, monkeypatch, seed):
    """Random corpora drawn from a TINY line pool (dense 3-line span
    collisions, within- and cross-doc, plus empty and <3-line docs) —
    dd_c4_spans must match the window-function DuckDB oracle exactly."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import lk_data_test_ray.pipelines.queries as q

    rng = np.random.default_rng(seed)
    pool = [f"line {i}." for i in range(12)]
    docs = []
    for _ in range(80):
        n = int(rng.integers(0, 10))
        docs.append("\n".join(pool[i] for i in rng.integers(0, 12, n)))
    tbl = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                    "text": pa.array(docs, pa.string())})
    fix = tmp_path / "lines"
    fix.mkdir()
    pq.write_table(tbl, str(fix / "lines-000.parquet"))
    monkeypatch.setattr(q, "ensure_lines", lambda n, **kw: str(fix))
    mine = (q.dd_c4_spans(SF).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    ora = (duckdb.sql(_C4_SPAN_SQL.format(glob=str(fix / "*.parquet")))
           .df().sort_values("doc_id").reset_index(drop=True))
    assert list(mine["doc_id"]) == list(ora["doc_id"])
    assert list(mine["clean_text"]) == list(ora["clean_text"])


def test_pages_blocklist_both_match_kinds(ray_session):
    """Exact-host and registered-domain blocklist entries both drop their
    pages; everything else survives."""
    import re

    import lk_data_test_ray.pipelines.queries as q

    out = q.pages_blocklist(SF).to_pandas()
    hosts = out["url"].str.extract(r"^https://([^/]+)/", expand=False)
    assert not hosts.isin(q.BLOCK_HOSTS).any()
    doms = hosts.str.extract(r"([^.]+\.[^.]+)$", expand=False)
    assert not doms.isin(q.BLOCK_DOMAINS).any()
    # unblocked traffic survives, including other subdomains of allowed
    # registered domains
    assert len(out) > 0 and doms.str.match(r"example-[01245]\.org$").all()
    assert (doms == "example-0.org").any()


def test_anchor_agg_multiplicity_and_dedup(ray_session):
    """The map-side pre-dedup must carry multiplicity: n_inlinks counts
    ALL inlink rows (duplicate triples included), n_src and anchors are
    distinct, anchors sorted and ' | '-joined."""
    import pyarrow as pa
    import ray.data as rd

    from lk_data_test_ray.pipelines.queries import _anchor_agg

    rows = [
        # dst "t1": 3 identical triples + one different anchor from s2
        ("s1", "t1", "buy now"), ("s1", "t1", "buy now"),
        ("s1", "t1", "buy now"), ("s2", "t1", "a deal"),
        ("s2", "t2", "x"),
    ]
    t = pa.table({"src_url": pa.array([r[0] for r in rows]),
                  "dst_url": pa.array([r[1] for r in rows]),
                  "anchor": pa.array([r[2] for r in rows])})
    out = (_anchor_agg(rd.from_arrow(t)).to_pandas()
           .sort_values("dst_url").reset_index(drop=True))
    assert list(out["dst_url"]) == ["t1", "t2"]
    assert list(out["n_inlinks"]) == [4, 1]
    assert list(out["n_src"]) == [2, 1]
    assert list(out["anchors"]) == ["a deal | buy now", "x"]


def test_c4_line_dedup_wire_equality(ray_session):
    """Property (VERDICT r4 item 1): the 128-bit hash wire (default) and
    the exact string wire of dd_c4_line_dedup produce identical per-doc
    (n_lines, n_removed) over the lines fixture — which embeds real
    cross-document duplicates (shared boilerplate blocks, short
    small-vocab lines) — so equality here is a meaningful check that
    keep-first order and group boundaries survive the hash key."""
    import lk_data_test_ray.pipelines.queries as q

    a = (q.dd_c4_line_dedup(SF).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (q.dd_c4_line_dedup(SF, wire="line").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)
    # the corpus genuinely contains duplicate lines — a vacuous pass
    # (zero removals everywhere) would not exercise the keep-first path
    assert int(a["n_removed"].sum()) > 0


def test_table_fingerprint_order_independent(ray_session):
    """Property: the fingerprint is a SUM over row hashes, so any row
    permutation of a table yields the same (n_rows, fingerprint) — and a
    single flipped value changes it. Checked directly on the partial
    kernel (md5_sum_mod) plus hashlib ground truth."""
    import numpy as np
    import pyarrow as pa

    from lk_data_test_ray.functions.hashing import md5_sum_mod

    rows = [f"{i}|X|{i * 7 % 13}" for i in range(997)]
    n1, s1 = md5_sum_mod(pa.array(rows))
    rng = np.random.default_rng(5)
    n2, s2 = md5_sum_mod(pa.array(list(rng.permutation(rows))))
    assert (n1, s1) == (n2, s2) == (997, s1)
    # hashlib ground truth for the 60-bit-prefix-sum spec
    import hashlib
    want = sum(int(hashlib.md5(r.encode()).hexdigest()[:15], 16)
               for r in rows) % ((1 << 61) - 1)
    assert s1 == want
    # sensitivity: one changed row moves the fingerprint
    rows[123] = rows[123] + "!"
    assert md5_sum_mod(pa.array(rows))[1] != s1


def test_cusum_detects_injected_level_shift(ray_session, tmp_path):
    """A feed that permanently drops to 40% volume on day 20 of 40 must
    put the |S| peak exactly at the last pre-shift day (the Taylor
    change-point estimate) — the case v_count_anomaly's single-day MAD
    rule cannot flag (no single day deviates)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import lk_data_test_ray.pipelines.queries as q

    days = pd.date_range("2024-01-01", periods=40, freq="D")
    per_day = np.where(np.arange(40) < 20, 100, 40)
    ts = np.repeat(days.values, per_day)
    n = len(ts)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, np.int64)),
        "event_type": pa.array(["view"] * n),
        "value": pa.array(np.ones(n)),
        "props": pa.array(["{}"] * n),
    }), tmp_path / "events.parquet")
    out = q.v_cusum_shift(str(tmp_path)).to_pandas()
    assert len(out) == 40
    flagged = out[out["is_changepoint"]]["day"].tolist()
    assert flagged == ["2024-01-20"]
