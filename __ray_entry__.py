"""Driver contract for the Ray-Data-native engine.

``entry()`` runs the flagship validation pipeline (pages constraint suite +
documents check suite) at sf0.001 scale; ``queries()`` exposes one callable
per implemented operator/pipeline from SURVEY.md §2 (plus the
beyond-the-reference dedup / similarity / text-analysis / multimodal
components); ``oracle_sql()`` mirrors each SQL-expressible query for the
DuckDB side-by-side check. Ray is initialised by the driver — nothing here
calls ``ray.init``/``ray.shutdown``.

Column names, rounding (half away from zero) and thresholds match between the
Ray pipelines and the SQL exactly — see ``lk_data_test_ray/pipelines/queries.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa

from lk_data_test_ray.checks.vocab import ISO_639_1
from lk_data_test_ray.pipelines import dedup as _dedup
from lk_data_test_ray.pipelines import queries as q
from lk_data_test_ray.pipelines import similarity as _sim
from lk_data_test_ray.pipelines import tpch as _tpch
from lk_data_test_ray.relational import read

SF001 = "/root/testdata/sf0.001"

_ISO_SQL = ",".join(f"'{v}'" for v in sorted(ISO_639_1))
_STOP_SQL = q.STOPWORD_SQL_LIST
_TOKS = "regexp_split_to_array(text, '\\s+')"
_PUNCT_CLASS = "[!-/:-@\\[-`{-~]"


def entry() -> Any:
    """Flagship at sf0.001: pages constraint suite + documents check suite.

    Returns the combined violation stream (stable schema
    ``check_id, url, detail``) — ≥0 rows, deterministic.
    """
    pages_viol = q.pages_validate(SF001)  # pa.Table (check_id, url, detail)
    doc_viol = q.v_doc_suite(SF001)  # Dataset (check_id, doc_id, detail)
    doc_tbl = pa.Table.from_pandas(doc_viol.to_pandas(), preserve_index=False)
    doc_tbl = pa.table({
        "check_id": doc_tbl["check_id"].cast(pa.string()),
        "url": doc_tbl["doc_id"].cast(pa.string()),
        "detail": doc_tbl["detail"].cast(pa.string()),
    })
    return pa.concat_tables([pages_viol.cast(doc_tbl.schema), doc_tbl])


def _dd_exact(sf_dir: str):
    return _dedup.exact_dedup_groups(
        read(sf_dir, "documents", ["doc_id", "text"]), "doc_id", "text")


def _dd_first_wins(sf_dir: str):
    return _dedup.first_wins(
        read(sf_dir, "documents", ["lang", "source", "doc_id"]),
        ["lang", "source"], "doc_id")


def _dd_shingle_jaccard(sf_dir: str):
    # exact all-pairs via blocked matmul (falls back to the inverted-index
    # plan when the doc×shingle matrix would not fit densely)
    return _dedup.shingle_jaccard_pairs_matmul(
        read(sf_dir, "documents", ["doc_id", "text"]), "doc_id", "text",
        k=2, threshold=q.JACCARD_THRESHOLD)


def _dd_paragraphs(sf_dir: str):
    return _dedup.paragraph_dedup(
        read(sf_dir, "documents", ["doc_id", "text"]), "doc_id", "text",
        chunk_tokens=10)


def _dd_minhash_lsh(sf_dir: str):
    return _dedup.minhash_lsh_pairs(
        read(sf_dir, "documents", ["doc_id", "text"]), "doc_id", "text",
        num_perm=64, bands=16, shingle_k=2, threshold=0.35)


def _dd_simhash(sf_dir: str):
    return _dedup.simhash_pairs(
        read(sf_dir, "documents", ["doc_id", "text"]), "doc_id", "text",
        max_hamming=3)


def _dd_embed_cosine(sf_dir: str):
    return _dedup.embedding_cosine_pairs(
        read(sf_dir, "embeddings"), "vec_id", "embedding", "label",
        threshold=q.COSINE_THRESHOLD)


def _s_ann_topk(sf_dir: str):
    return _sim.ann_brute_force(
        read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _sim.load_queries(sf_dir, 10), k=5)


def _s_ann_ivf(sf_dir: str):
    # driver entry probes ALL cells (nprobe == n_cells): exhaustive IVF is
    # exactly brute force, so this exercises the full IVF machinery (k-means
    # training, cell assignment, per-cell scoring, cross-cell merge) under a
    # hard exact oracle; approximation quality at partial nprobe is asserted
    # by the recall test in tests/test_similarity_text.py
    return _sim.ann_ivf(
        read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _sim.load_queries(sf_dir, 10), k=5, n_cells=16, nprobe=16)


RADIUS_COS = 0.35  # shared verbatim with the oracle SQL


def _s_radius_search(sf_dir: str):
    return _sim.radius_search(
        read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _sim.load_queries(sf_dir, 10), threshold=RADIUS_COS)


def _s_knn_classify(sf_dir: str):
    return _sim.knn_classify(
        read(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        _sim.load_queries(sf_dir, 10), k=5)


def _s_ann_filtered(sf_dir: str):
    return _sim.ann_filtered(
        read(sf_dir, "embeddings", ["vec_id", "embedding", "label"]),
        _sim.load_queries_with_labels(sf_dir, 10), k=5)


def _s_ann_lsh(sf_dir: str):
    return _sim.ann_lsh(
        read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _sim.load_queries(sf_dir, 10), k=5)


def _s_ann_pq(sf_dir: str):
    return _sim.ann_pq(
        read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _sim.load_queries(sf_dir, 10), k=5)


def _s_ann_refine(sf_dir: str):
    # PQ shortlist → exact rerank; recall-1 on the fixture makes the
    # exact-top-k SQL a hard oracle (recall under adversarial shortlist
    # pressure is asserted in tests/test_similarity_text.py)
    return _sim.ann_refine(
        read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _sim.load_queries(sf_dir, 10), k=5)


def _s_ann_ivfpq(sf_dir: str):
    return _sim.ann_ivfpq(
        read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        _sim.load_queries(sf_dir, 10), k=5)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # relational (SURVEY.md §2.4/§2.5/§2.6)
        "q1_pricing_summary": q.q1_pricing_summary,
        "q3_top_orders": q.q3_top_orders,
        "q5_regional_revenue": q.q5_regional_revenue,
        "j_enrich_customer": q.j_enrich_customer,
        "j_anti_customers_no_events": q.j_anti_customers_no_events,
        "j_semi_error_customers": q.j_semi_error_customers,
        "a_dup_user_event": q.a_dup_user_event,
        "a_collect_event_types": q.a_collect_event_types,
        "a_lang_source_counts": q.a_lang_source_counts,
        "o_topk_orders": q.o_topk_orders,
        "o_union_priority": q.o_union_priority,
        "m_part_classify": q.m_part_classify,
        "m_orders_per_year": q.m_orders_per_year,
        "m_doc_tokens": q.m_doc_tokens,
        # events (windowed/stateful)
        "e_hourly_windows": q.e_hourly_windows,
        "e_sessionize": q.e_sessionize,
        "e_sliding_windows": q.e_sliding_windows,
        # text analysis
        "t_token_stats": q.t_token_stats,
        "t_bpe_tokens": q.t_bpe_tokens,
        "e_gap_quantiles": q.e_gap_quantiles,
        "t_quality": q.t_quality,
        "t_fingerprint": q.t_fingerprint,
        "t_fingerprint_extra": q.t_fingerprint_extra,
        "t_lang_id": q.t_lang_id,
        "t_top_tokens": q.t_top_tokens,
        "t_inverted_index": q.t_inverted_index,
        "t_quantiles_sketch": q.t_quantiles_sketch,
        # validation checks over testdata tables
        "v_events_ts_range": q.v_events_ts_range,
        "v_doc_suite": q.v_doc_suite,
        "v_unique_doc_ids": q.v_unique_doc_ids,
        "v_profile_orders": q.v_profile_orders,
        "v_profile_suggest": q.v_profile_suggest,
        "v_daily_lang_drift": q.v_daily_lang_drift,
        "v_daily_lang_psi": q.v_daily_lang_psi,
        "v_count_anomaly": q.v_count_anomaly,
        "v_ts_monotonic": q.v_ts_monotonic,
        "pages_rolling_distinct_7d": q.pages_rolling_distinct_7d,
        # approximate (HLL) — no SQL oracle by nature; ε-tested against
        # the exact rolling series in tests/test_sketches.py
        "pages_rolling_distinct_7d_hll": q.pages_rolling_distinct_7d_hll,
        # approximate (t-digest window merge) — ε-tested vs exact
        # per-window quantiles in tests/test_sketches.py
        "pages_rolling_p95_len_7d": q.pages_rolling_p95_len_7d,
        "v_zorder_prune": q.v_zorder_prune,
        # dedup family
        "dd_exact": _dd_exact,
        "dd_first_wins": _dd_first_wins,
        "dd_shingle_jaccard": _dd_shingle_jaccard,
        "dd_minhash_lsh": _dd_minhash_lsh,
        "dd_simhash": _dd_simhash,
        "dd_embed_cosine": _dd_embed_cosine,
        # similarity search
        "s_ann_topk": _s_ann_topk,
        "s_ann_lsh": _s_ann_lsh,
        "s_ann_pq": _s_ann_pq,
        "s_ann_ivfpq": _s_ann_ivfpq,
        "s_ann_refine": _s_ann_refine,
        "s_ann_filtered": _s_ann_filtered,
        "s_radius_search": _s_radius_search,
        "s_knn_classify": _s_knn_classify,
        # skew-aware join, CUBE lattice, blocklist filter, domain mixing,
        # first-class set ops
        "j_skew_user_events": q.j_skew_user_events,
        "a_cube_lang_source": q.a_cube_lang_source,
        "t_badwords": q.t_badwords,
        "td_mix_sample": q.td_mix_sample,
        "o_intersect_except": q.o_intersect_except,
        "td_ccnet_buckets": q.td_ccnet_buckets,
        "a_winsorize_price": q.a_winsorize_price,
        # round-2 continuation: ExactSubstr span dedup, shuffle→shards,
        # schema-evolution union
        "dd_dup_spans": q.dd_dup_spans,
        "td_shuffle_shards": q.td_shuffle_shards,
        "o_union_evolved": q.o_union_evolved,
        "td_quality_classifier": q.td_quality_classifier,
        "td_rebalance": q.td_rebalance,
        "a_percent_rank": q.a_percent_rank,
        "e_transitions": q.e_transitions,
        "v_skew_report": q.v_skew_report,
        "t_pmi_top": q.t_pmi_top,
        "g_components": q.g_components,
        "g_bfs_depth": q.g_bfs_depth,
        # approximate (HyperBall ball counters) — no SQL oracle by
        # nature; small-graph exactness pytest-asserted
        "g_harmonic_hyperball": q.g_harmonic_hyperball,
        # iterative peeling — rows-only; cascade semantics pytest-asserted
        "g_kcore": q.g_kcore,
        "dd_substr_cut": q.dd_substr_cut,
        "td_pretrain_corpus": q.td_pretrain_corpus,
        "o_weighted_sample": q.o_weighted_sample,
        "j_follow_within": q.j_follow_within,
        "mm_decode_ppm": q.mm_decode_ppm,
        "mm_image_phash": q.mm_image_phash,
        "mm_phash_near_dup": q.mm_phash_near_dup,
        "mm_decode_png": q.mm_decode_png,
        "mm_decode_gif": q.mm_decode_gif,
        "mm_decode_jpeg": q.mm_decode_jpeg,
        "mm_frame_ppm": q.mm_frame_ppm,
        "j_scd2_history": q.j_scd2_history,
        "td_decontaminate_embed": q.td_decontaminate_embed,
        "mm_audio_wav": q.mm_audio_wav,
        "mm_audio_spectrum": q.mm_audio_spectrum,
        "e_cum_new_users": q.e_cum_new_users,
        "v_ship_before_order": q.v_ship_before_order,
        "v_order_total_consistency": q.v_order_total_consistency,
        "v_hive_partitioned_write": q.v_hive_partitioned_write,
        "v_gap_days": q.v_gap_days,
        "o_skyline_orders": q.o_skyline_orders,
        "e_dedup_consecutive": q.e_dedup_consecutive,
        "j_nearest_event": q.j_nearest_event,
        "j_interval_overlap": q.j_interval_overlap,
        "t_char_ngrams": q.t_char_ngrams,
        "t_word_len_hist": q.t_word_len_hist,
        "a_mad_outliers": q.a_mad_outliers,
        "v_fk_orphans": q.v_fk_orphans,
        "pages_latest_per_host": q.pages_latest_per_host,
        "e_rolling_revenue_7d": q.e_rolling_revenue_7d,
        "o_dense_rank_price": q.o_dense_rank_price,
        "g_triangles": q.g_triangles,
        "t_hapax_ratio": q.t_hapax_ratio,
        "j_asof_next_event": q.j_asof_next_event,
        "m_compact_docs": q.m_compact_docs,
        "mm_image_dims": q.mm_image_dims,
        "v_lineage_manifest": q.v_lineage_manifest,
        "a_churned_customers": q.a_churned_customers,
        "e_dau_mau": q.e_dau_mau,
        "m_normalize_text": q.m_normalize_text,
        "m_nfc_normalize": q.m_nfc_normalize,
        "a_lang_fractions": q.a_lang_fractions,
        "a_median_nchars": q.a_median_nchars,
        "pages_url_canon": q.pages_url_canon,
        "pages_blocklist": q.pages_blocklist,
        "pages_anchor_text": q.pages_anchor_text,
        "pages_fetch_gaps": q.pages_fetch_gaps,
        "pages_robots": q.pages_robots,
        "g_host_graph": q.g_host_graph,
        # best-match / key-rewrite / inverse edges / sampling / rule table
        "j_best_match_lineitem": q.j_best_match_lineitem,
        "m_lang_remap": q.m_lang_remap,
        "o_inverse_edges": q.o_inverse_edges,
        "o_sample_orders": q.o_sample_orders,
        "v_rules_demo": q.v_rules_demo,
        "e_asof_last_order": q.e_asof_last_order,
        "j_range_quantity_bands": q.j_range_quantity_bands,
        "j_bucketed_orders": q.j_bucketed_orders,
        "dd_clusters": q.dd_clusters,
        # pages flagship + multimodal + sketches (rows-only)
        "pages_validate": q.pages_validate,
        "pages_links": q.pages_links,
        "pages_dangling_links": q.pages_dangling_links,
        "mm_payload_meta": q.mm_payload_meta,
        "mm_decode_feats": q.mm_decode_feats,
        "approx_stats": q.approx_stats,
        "td_curate": q.td_curate,
        "s_ann_ivf": _s_ann_ivf,
        # round 2: Bloom membership e2e, M7 geo, O3 limit, frame sampling
        "dd_bloom_incremental": q.dd_bloom_incremental,
        "m_geo_wkt": q.m_geo_wkt,
        "o_limit_orders": q.o_limit_orders,
        "mm_frame_sample": q.mm_frame_sample,
        # round 2: grouped top-k, per-key rolling window, pivot/crosstab
        "o_topk_per_cust": q.o_topk_per_cust,
        "e_rolling_avg": q.e_rolling_avg,
        "a_pivot_lang_source": q.a_pivot_lang_source,
        "a_distinct_users_per_type": q.a_distinct_users_per_type,
        "pages_host_counts": q.pages_host_counts,
        "m_parse_props": q.m_parse_props,
        "e_lag_diff": q.e_lag_diff,
        "t_tfidf_top": q.t_tfidf_top,
        "a_mode_lang_per_source": q.a_mode_lang_per_source,
        "a_price_stats_by_priority": q.a_price_stats_by_priority,
        "o_hash_sample": q.o_hash_sample,
        "m_unpivot_lineitem": q.m_unpivot_lineitem,
        "j_full_outer_activity": q.j_full_outer_activity,
        "j_upsert_cdc": q.j_upsert_cdc,
        "e_first_last_per_user": q.e_first_last_per_user,
        "q6_revenue_delta": q.q6_revenue_delta,
        "e_cum_daily": q.e_cum_daily,
        "a_rollup_cust": q.a_rollup_cust,
        "t_repetition": q.t_repetition,
        "td_split": q.td_split,
        "g_pagerank": q.g_pagerank,
        "g_pagerank_weighted": q.g_pagerank_weighted,
        "g_ppr_seeds": q.g_ppr_seeds,
        "g_random_walks": q.g_random_walks,
        "a_entropy_by_source": q.a_entropy_by_source,
        "v_dup_capture_window": q.v_dup_capture_window,
        "t_sentence_stats": q.t_sentence_stats,
        "t_winnow_fingerprints": q.t_winnow_fingerprints,
        "dd_cdc_chunks": q.dd_cdc_chunks,
        # iterative ALS — no SQL oracle by nature; determinism +
        # reconstruction asserted in tests/test_factorize.py
        "s_als_recommend": q.s_als_recommend,
        "td_curriculum_pack": q.td_curriculum_pack,
        "a_quantiles_exact": q.a_quantiles_exact,
        "v_dow_anomaly": q.v_dow_anomaly,
        "v_join_fanout": q.v_join_fanout,
        "v_benford": q.v_benford,
        "a_theil_index": q.a_theil_index,
        "v_completeness_daily": q.v_completeness_daily,
        "o_bottomk_sample": q.o_bottomk_sample,
        "g_scc": q.g_scc,
        "g_bowtie": q.g_bowtie,
        "v_cusum_shift": q.v_cusum_shift,
        "v_table_fingerprint": q.v_table_fingerprint,
        "dd_recrawl_chunk_savings": q.dd_recrawl_chunk_savings,
        "dd_winnow_pairs": q.dd_winnow_pairs,
        "g_modularity": q.g_modularity,
        "t_js_divergence": q.t_js_divergence,
        "e_user_entropy": q.e_user_entropy,
        "mm_phash_clusters": q.mm_phash_clusters,
        "pages_boilerplate_ratio": q.pages_boilerplate_ratio,
        "dd_c4_line_dedup": q.dd_c4_line_dedup,
        "td_temperature_mix": q.td_temperature_mix,
        "e_burst_rate": q.e_burst_rate,
        "m_url_parse": q.m_url_parse,
        "v_ks_drift": q.v_ks_drift,
        "a_gini_spend": q.a_gini_spend,
        "g_clustering_coeff": q.g_clustering_coeff,
        "g_link_prediction": q.g_link_prediction,
        "g_reciprocity": q.g_reciprocity,
        "g_assortativity": q.g_assortativity,
        "g_hits": q.g_hits,
        "pages_recrawl_delta": q.pages_recrawl_delta,
        "td_decontaminate": q.td_decontaminate,
        "dd_ngram_coverage": q.dd_ngram_coverage,
        "t_gram_novelty_daily": q.t_gram_novelty_daily,
        "dd_semantic": q.dd_semantic,
        "t_bpe_merges": q.t_bpe_merges,
        "t_bpe_encode": q.t_bpe_encode,
        "td_dsir_weights": q.td_dsir_weights,
        "v_pruned_ts_range": q.v_pruned_ts_range,
        "a_price_histogram": q.a_price_histogram,
        "e_dow_hour_heatmap": q.e_dow_hour_heatmap,
        "v_jsonl_source": q.v_jsonl_source,
        "v_jsonl_gz_source": q.v_jsonl_gz_source,
        "v_parquet_zstd_source": q.v_parquet_zstd_source,
        "v_csv_source": q.v_csv_source,
        "v_warc_source": q.v_warc_source,
        "v_warc_gz_source": q.v_warc_gz_source,
        "v_wet_roundtrip": q.v_wet_roundtrip,
        "v_wat_roundtrip": q.v_wat_roundtrip,
        "v_warc_fetch": q.v_warc_fetch,
        "a_corr_qty_price": q.a_corr_qty_price,
        "mm_payload_entropy": q.mm_payload_entropy,
        "a_distinct_users_hll": q.a_distinct_users_hll,
        # HLL set algebra (inclusion-exclusion) — ε-tested vs exact
        # overlaps in tests/test_sketches.py; no SQL oracle by nature
        "a_user_overlap_hll": q.a_user_overlap_hll,
        "o_stratified_sample": q.o_stratified_sample,
        "s_embed_dim_stats": q.s_embed_dim_stats,
        "s_dim_covar": q.s_dim_covar,
        "dd_paragraphs": _dd_paragraphs,
        "td_pack": q.td_pack,
        "pages_redact": q.pages_redact,
        "o_ntile_price": q.o_ntile_price,
        "j_fuzzy_name_match": q.j_fuzzy_name_match,
        "t_top_tokens_approx": q.t_top_tokens_approx,
        "t_token_freq_cms": q.t_token_freq_cms,
        "t_top_tokens_per_lang": q.t_top_tokens_per_lang,
        "s_label_centroids": q.s_label_centroids,
        # eigendecomposition isn't SQL-expressible — rows-only driver
        # check; equality to direct numpy PCA pytest-asserted
        "s_pca_project": q.s_pca_project,
        "a_median_price_exact": q.a_median_price_exact,
        "t_top_bigrams": q.t_top_bigrams,
        "t_bigram_lm_score": q.t_bigram_lm_score,
        "e_funnel": q.e_funnel,
        "v_snapshot_diff": q.v_snapshot_diff,
        "e_daily_dense": q.e_daily_dense,
        "e_retention_cohorts": q.e_retention_cohorts,
        "td_gopher_rules": q.td_gopher_rules,
        "td_c4_line_filters": q.td_c4_line_filters,
        "dd_c4_spans": q.dd_c4_spans,
        "q10_returned_revenue": q.q10_returned_revenue,
        "g_degree_stats": q.g_degree_stats,
        "dd_containment": q.dd_containment,
        "s_kmeans": q.s_kmeans,
        "a_zipf_slope": q.a_zipf_slope,
        "e_anomaly_zscore": q.e_anomaly_zscore,
        "q14_promo_revenue": q.q14_promo_revenue,
        "q18_big_orders": q.q18_big_orders,
        "e_ffill_last_purchase": q.e_ffill_last_purchase,
        "td_chunks": q.td_chunks,
        "a_salted_event_counts": q.a_salted_event_counts,
        "q11_important_parts": q.q11_important_parts,
        "q22_idle_rich_customers": q.q22_idle_rich_customers,
        "q2_min_cost_supplier": _tpch.q2_min_cost_supplier,
        "q4_priority_exists": _tpch.q4_priority_exists,
        "q7_nation_volume": _tpch.q7_nation_volume,
        "q8_market_share": _tpch.q8_market_share,
        "q9_profit": _tpch.q9_profit,
        "q12_priority_linecount": _tpch.q12_priority_linecount,
        "q13_order_count_distribution": _tpch.q13_order_count_distribution,
        "q15_top_supplier": _tpch.q15_top_supplier,
        "q16_supplier_part_counts": _tpch.q16_supplier_part_counts,
        "q17_small_qty_revenue": _tpch.q17_small_qty_revenue,
        "q19_disjunctive_revenue": _tpch.q19_disjunctive_revenue,
        "q20_excess_shippers": _tpch.q20_excess_shippers,
        "q21_waiting_suppliers": _tpch.q21_waiting_suppliers,
    }


def _pages_first_file() -> str:
    """The sf0.01 fixture's first (sorted) pages parquet file — the
    deterministic url sample v_warc_fetch requests by byte range."""
    import glob as _glob
    import os

    return sorted(_glob.glob(_pages_fixture_glob()))[0]


def _lines_fixture_glob() -> str:
    """Parquet glob of the sf0.01 line corpus (td_c4_line_filters input) —
    generated here if absent so the DuckDB side can read it."""
    import os

    from lk_data_test_ray.sources.lines import ensure_lines, lines_ndocs_for_sf

    fix = ensure_lines(lines_ndocs_for_sf("/root/testdata/sf0.01"))
    return os.path.join(fix, "*.parquet")


def _recrawl_fixture_glob() -> str:
    """Parquet glob of the sf0.01 multi-capture corpus
    (pages_recrawl_delta input) — generated here if absent so the DuckDB
    side can read it."""
    import os

    from lk_data_test_ray.sources.recrawl import (ensure_recrawl,
                                                  recrawl_nurls_for_sf)

    fix = ensure_recrawl(recrawl_nurls_for_sf("/root/testdata/sf0.01"))
    return os.path.join(fix, "*.parquet")


def _pages_fixture_glob() -> str:
    """Parquet glob of the sf0.01 pages fixture (the driver's correctness
    scale) — generated here if absent so the DuckDB side can read it."""
    from lk_data_test_ray.sources.pages import ensure_pages, pages_nrows_for_sf

    import os

    fix = ensure_pages(pages_nrows_for_sf("/root/testdata/sf0.01"))
    return os.path.join(fix, "pages", "*.parquet")


def _robots_rules_path() -> str:
    """The robots fixture's rules parquet (pages_robots oracle input) —
    generated here if absent so the DuckDB side can read it."""
    import os

    from lk_data_test_ray.sources.robots import ensure_robots

    return os.path.join(ensure_robots(), "rules.parquet")


def _pages_links_path() -> str:
    """The sf0.01 fixture's links child table (dangling-link oracle input)."""
    import os

    return os.path.normpath(os.path.join(
        os.path.dirname(_pages_fixture_glob()), "..", "links.parquet"))



def _pagerank_weighted_sql(iters: int = 5, d: float = 0.85) -> str:
    """Unrolled WEIGHTED power iteration over host edges derived from
    links.parquet (w = link multiplicity, self-host edges dropped) —
    mirrors ``pipelines.graph.pagerank(weight_col="w")``. Every layer is
    MATERIALIZED (the g_hits lesson: without it DuckDB re-evaluates the
    chain 4^iters times)."""
    links = _pages_links_path()
    sql = f"""
        WITH he AS MATERIALIZED (
            SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS s,
                   regexp_extract(dst_url, '^https://([^/]+)/', 1) AS t,
                   CAST(count(*) AS DOUBLE) AS w
            FROM read_parquet('{links}')
            GROUP BY 1, 2),
        l AS MATERIALIZED (
            SELECT s, t, w FROM he
            WHERE s <> '' AND t <> '' AND s <> t),
        nodes AS MATERIALIZED (SELECT DISTINCT u FROM
                  (SELECT s AS u FROM l UNION ALL SELECT t FROM l)),
        nn AS MATERIALIZED (SELECT CAST(count(*) AS DOUBLE) AS n
                            FROM nodes),
        ws AS MATERIALIZED (SELECT s, sum(w) AS ws FROM l GROUP BY 1),
        r0 AS MATERIALIZED (SELECT u, 1.0 / nn.n AS r
                            FROM nodes CROSS JOIN nn)"""
    prev = "r0"
    for i in range(1, iters + 1):
        sql += f""",
        r{i} AS MATERIALIZED (
            SELECT nodes.u,
                   (1 - {d}) / nn.n + {d} * COALESCE(sums.c, 0) AS r
            FROM nodes CROSS JOIN nn
            LEFT JOIN (SELECT l.t AS u, sum({prev}.r * l.w / ws.ws) AS c
                       FROM l JOIN {prev} ON l.s = {prev}.u
                       JOIN ws ON l.s = ws.s
                       GROUP BY 1) sums USING (u))"""
        prev = f"r{i}"
    sql += f"""
        SELECT u AS node, round(r, 6) AS rank FROM {prev}"""
    return sql


def _ppr_sql(iters: int = 5, d: float = 0.85) -> str:
    """Unrolled PERSONALIZED power iteration (restart vector uniform over
    the 3 lexicographically smallest urls) — mirrors
    ``pipelines.graph.pagerank(personalize=seeds)``."""
    links = _pages_links_path()
    sql = f"""
        WITH l AS MATERIALIZED (SELECT src_url AS s, dst_url AS t
                   FROM read_parquet('{links}')),
        nodes AS MATERIALIZED (SELECT DISTINCT u FROM
                  (SELECT s AS u FROM l UNION ALL SELECT t FROM l)),
        seeds AS MATERIALIZED (SELECT u FROM nodes ORDER BY u LIMIT 3),
        p AS MATERIALIZED (
            SELECT nodes.u,
                   CASE WHEN nodes.u IN (SELECT u FROM seeds)
                        THEN 1.0 / 3 ELSE 0.0 END AS p
            FROM nodes),
        od AS MATERIALIZED (SELECT s, CAST(count(*) AS DOUBLE) AS od
                            FROM l GROUP BY 1),
        r0 AS MATERIALIZED (SELECT u, p AS r FROM p)"""
    prev = "r0"
    for i in range(1, iters + 1):
        sql += f""",
        r{i} AS MATERIALIZED (
            SELECT p.u, (1 - {d}) * p.p + {d} * COALESCE(sums.c, 0) AS r
            FROM p
            LEFT JOIN (SELECT l.t AS u, sum({prev}.r / od.od) AS c
                       FROM l JOIN {prev} ON l.s = {prev}.u
                       JOIN od ON l.s = od.s
                       GROUP BY 1) sums USING (u))"""
        prev = f"r{i}"
    sql += f"""
        SELECT u AS node, round(r, 6) AS rank FROM {prev}"""
    return sql


def _walks_sql(length: int = 4) -> str:
    """Unrolled deterministic-walk SQL — step t leaves u through its
    ``int(md5(u || '|' || t)[:8], 16) % outdeg(u)``-th byte-ranked
    out-neighbor; mirrors ``pipelines.graph.random_walks``."""
    links = _pages_links_path()
    sql = f"""
        WITH e AS MATERIALIZED (SELECT DISTINCT a, b FROM (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS a,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1) AS b
                FROM read_parquet('{links}'))
              WHERE a <> '' AND b <> ''),
        adj AS MATERIALIZED (
            SELECT a, b,
                   row_number() OVER (PARTITION BY a ORDER BY b) - 1
                       AS idx
            FROM e),
        deg AS MATERIALIZED (SELECT a, count(*) AS deg FROM e GROUP BY 1),
        nodes AS MATERIALIZED (SELECT DISTINCT u FROM
            (SELECT a AS u FROM e UNION ALL SELECT b FROM e)),
        w0 AS MATERIALIZED (SELECT u AS start, u AS cur FROM nodes)"""
    for t in range(1, length + 1):
        sql += f""",
        w{t} AS MATERIALIZED (
            SELECT w.start, adj.b AS cur
            FROM w{t - 1} w
            JOIN deg ON w.cur = deg.a
            JOIN adj ON adj.a = w.cur
                    AND adj.idx = CAST(('0x' || substr(
                            md5(w.cur || '|{t}'), 1, 8)) AS BIGINT)
                        % deg.deg)"""
    parts = [f"SELECT start, {t} AS step, cur AS node FROM w{t}"
             for t in range(length + 1)]
    sql += "\n" + "\nUNION ALL\n".join(parts)
    return sql


def _pagerank_sql(iters: int = 5, d: float = 0.85) -> str:
    """Unrolled power-iteration SQL (one CTE layer per iteration) over the
    pages fixture's links table — same simplified PageRank as
    ``pipelines.graph.pagerank``; compared order-insensitively on rounded
    ranks."""
    import os

    links = os.path.join(os.path.dirname(_pages_fixture_glob()), "..",
                         "links.parquet")
    links = os.path.normpath(links)
    sql = f"""
        WITH l AS (SELECT src_url AS s, dst_url AS t
                   FROM read_parquet('{links}')),
        nodes AS (SELECT DISTINCT u FROM
                  (SELECT s AS u FROM l UNION ALL SELECT t FROM l)),
        nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
        od AS (SELECT s, CAST(count(*) AS DOUBLE) AS od FROM l GROUP BY 1),
        r0 AS (SELECT u, 1.0 / nn.n AS r FROM nodes CROSS JOIN nn)"""
    prev = "r0"
    for i in range(1, iters + 1):
        sql += f""",
        r{i} AS (
            SELECT nodes.u,
                   (1 - {d}) / nn.n + {d} * COALESCE(sums.c, 0) AS r
            FROM nodes CROSS JOIN nn
            LEFT JOIN (SELECT l.t AS u, sum({prev}.r / od.od) AS c
                       FROM l JOIN {prev} ON l.s = {prev}.u
                       JOIN od ON l.s = od.s
                       GROUP BY 1) sums USING (u))"""
        prev = f"r{i}"
    sql += f"""
        SELECT u AS node, round(r, 6) AS rank FROM {prev}
    """
    return sql


def _dim_covar_sql(k: int = 8) -> str:
    """One covar_samp SELECT per (i ≤ j) pair of the first k embedding
    dims, unioned — mirrors s_dim_covar's moment-partial computation."""
    parts = [
        f"SELECT {i}::BIGINT AS dim_i, {j}::BIGINT AS dim_j, "
        f"round(covar_samp(embedding[{i + 1}], embedding[{j + 1}]), 6) "
        f"AS covar FROM embeddings"
        for i in range(k) for j in range(i, k)]
    return " UNION ALL ".join(parts)


def _hits_sql(iters: int = 5) -> str:
    """Unrolled HITS (one CTE layer per half-step) over the host edges
    derived from the links table exactly as ``g_hits`` derives them —
    compared on 6-decimal rounding (the ``_pagerank_sql`` convention).

    Every CTE layer is MATERIALIZED: each normalization layer references
    its predecessor twice (sum + join), so DuckDB's default CTE inlining
    re-evaluates the chain 4^iters times — materialization keeps the
    oracle linear in iters."""
    import os

    links = os.path.normpath(os.path.join(
        os.path.dirname(_pages_fixture_glob()), "..", "links.parquet"))
    sql = f"""
        WITH l0 AS MATERIALIZED (
            SELECT DISTINCT
                   regexp_extract(src_url, '^https://([^/]+)/', 1) AS s,
                   regexp_extract(dst_url, '^https://([^/]+)/', 1) AS t
            FROM read_parquet('{links}')),
        l AS MATERIALIZED (SELECT s, t FROM l0 WHERE s <> t),
        nodes AS MATERIALIZED (SELECT DISTINCT u FROM
                  (SELECT s AS u FROM l UNION ALL SELECT t FROM l)),
        h0 AS MATERIALIZED (SELECT u, 1.0 AS v FROM nodes)"""
    prev_h = "h0"
    for i in range(1, iters + 1):
        sql += f""",
        a{i}r AS MATERIALIZED (SELECT l.t AS u, sum({prev_h}.v) AS v
                  FROM l JOIN {prev_h} ON l.s = {prev_h}.u GROUP BY 1),
        a{i}n AS MATERIALIZED (SELECT sqrt(sum(v * v)) AS nrm FROM a{i}r),
        a{i} AS MATERIALIZED (SELECT nodes.u,
                        COALESCE(a{i}r.v, 0) /
                        (CASE WHEN nrm IS NULL OR nrm = 0
                              THEN 1 ELSE nrm END) AS v
                 FROM nodes LEFT JOIN a{i}r USING (u) CROSS JOIN a{i}n),
        h{i}r AS MATERIALIZED (SELECT l.s AS u, sum(a{i}.v) AS v
                  FROM l JOIN a{i} ON l.t = a{i}.u GROUP BY 1),
        h{i}n AS MATERIALIZED (SELECT sqrt(sum(v * v)) AS nrm FROM h{i}r),
        h{i} AS MATERIALIZED (SELECT nodes.u,
                        COALESCE(h{i}r.v, 0) /
                        (CASE WHEN nrm IS NULL OR nrm = 0
                              THEN 1 ELSE nrm END) AS v
                 FROM nodes LEFT JOIN h{i}r USING (u) CROSS JOIN h{i}n)"""
        prev_h = f"h{i}"
    sql += f"""
        SELECT nodes.u AS node, round(h{iters}.v, 6) AS hub,
               round(a{iters}.v, 6) AS auth
        FROM nodes JOIN h{iters} ON nodes.u = h{iters}.u
                   JOIN a{iters} ON nodes.u = a{iters}.u
    """
    return sql


_WINNOW_CTE = r"""WITH d AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   x -> x <> '') AS tk
                FROM documents WHERE text IS NOT NULL),
            g AS MATERIALIZED (
                SELECT doc_id, t.i - 1 AS pos,
                       CAST(('0x' || substr(md5(
                           list_extract(tk, t.i) || ' '
                           || list_extract(tk, t.i + 1) || ' '
                           || list_extract(tk, t.i + 2)), 1, 8))
                           AS BIGINT) AS h
                FROM d, unnest(generate_series(1, len(tk) - 2)) AS t(i)),
            wm AS (
                SELECT doc_id, pos AS end_pos,
                       min(h) OVER (PARTITION BY doc_id ORDER BY pos
                                    ROWS BETWEEN 3 PRECEDING
                                    AND CURRENT ROW) AS wmin
                FROM g),
            sel AS (
                SELECT w.doc_id, max(g2.pos) AS pos, w.wmin AS fp
                FROM wm w JOIN g g2
                     ON g2.doc_id = w.doc_id
                    AND g2.pos BETWEEN w.end_pos - 3 AND w.end_pos
                    AND g2.h = w.wmin
                GROUP BY w.doc_id, w.end_pos, w.wmin)"""


def oracle_sql() -> dict[str, str]:
    return {
        "j_skew_user_events": """
            SELECT c_mktsegment, count(*) AS n_events,
                   round(sum(value), 2) AS sum_value
            FROM events JOIN customer ON user_id = c_custkey
            GROUP BY 1
        """,
        "a_cube_lang_source": """
            SELECT lang, source, count(*) AS n_docs,
                   sum(n_chars)::BIGINT AS sum_chars
            FROM documents GROUP BY CUBE (lang, source)
        """,
        "t_badwords": f"""
            SELECT doc_id, count(*) AS n_tokens,
                   sum(CASE WHEN tok IN ({q.BADWORDS_SQL_LIST})
                       THEN 1 ELSE 0 END)::BIGINT AS n_bad,
                   round(sum(CASE WHEN tok IN ({q.BADWORDS_SQL_LIST})
                             THEN 1 ELSE 0 END)
                         / greatest(count(*), 1), 6) AS bad_frac,
                   (sum(CASE WHEN tok IN ({q.BADWORDS_SQL_LIST})
                        THEN 1 ELSE 0 END)
                    / greatest(count(*), 1)) < 0.1 AS keep
            FROM (SELECT doc_id, unnest({_TOKS}) AS tok FROM documents)
            GROUP BY doc_id
        """,
        "td_mix_sample": """
            SELECT doc_id, source, lang FROM documents
            WHERE (doc_id * 2654435761) % 100 <
                  CASE WHEN substr(source, 4)::BIGINT < 5 THEN 100
                       WHEN substr(source, 4)::BIGINT < 10 THEN 50
                       ELSE 10 END
        """,
        "dd_dup_spans": r"""
            WITH tok AS (SELECT doc_id,
                                regexp_split_to_array(text, '\s+') AS arr
                         FROM documents),
            grams AS (
                SELECT doc_id, i AS pos,
                       arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] || ' '
                       || arr[i+3] || ' ' || arr[i+4] || ' ' || arr[i+5]
                       || ' ' || arr[i+6] || ' ' || arr[i+7] AS g
                FROM tok,
                     unnest(generate_series(1, greatest(len(arr) - 7, 0)))
                         AS t(i)),
            r AS (SELECT doc_id, pos,
                         row_number() OVER (
                             PARTITION BY g ORDER BY doc_id, pos) AS rn
                  FROM grams)
            SELECT doc_id, pos FROM r WHERE rn > 1
        """,
        "e_cum_new_users": """
            WITH f AS (SELECT user_id,
                              min(date_trunc('day', ts)) AS first_day
                       FROM events GROUP BY 1),
            d AS (SELECT first_day AS day,
                         CAST(count(*) AS BIGINT) AS n_new
                  FROM f GROUP BY 1)
            SELECT day, n_new,
                   CAST(sum(n_new) OVER (ORDER BY day) AS BIGINT)
                       AS cum_users
            FROM d
        """,
        "o_skyline_orders": """
            SELECT o_orderkey, o_totalprice, o_orderdate
            FROM orders r
            WHERE NOT EXISTS (
                SELECT 1 FROM orders s
                WHERE s.o_totalprice <= r.o_totalprice
                  AND s.o_orderdate >= r.o_orderdate
                  AND (s.o_totalprice < r.o_totalprice
                       OR s.o_orderdate > r.o_orderdate))
        """,
        "v_gap_days": f"""
            WITH obs AS (SELECT DISTINCT CAST(warc_ts AS DATE) AS day
                         FROM read_parquet('{_pages_fixture_glob()}')),
            span AS (SELECT unnest(generate_series(
                         (SELECT min(day) FROM obs),
                         (SELECT max(day) FROM obs),
                         INTERVAL 1 DAY))::DATE AS day)
            SELECT strftime(s.day, '%Y-%m-%d') AS day
            FROM span s ANTI JOIN obs o ON s.day = o.day
        """,
        "v_hive_partitioned_write": """
            SELECT lang, count(doc_id) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY 1
        """,
        "v_order_total_consistency": """
            WITH s AS (
                SELECT l_orderkey,
                       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                           * CAST(round((1.0 - l_discount) * 100) AS BIGINT)
                           * CAST(round((1.0 + l_tax) * 100) AS BIGINT))
                           AS computed_c6
                FROM lineitem GROUP BY 1)
            SELECT o.o_orderkey, o.o_totalprice, s.computed_c6,
                   s.computed_c6
                       - CAST(round(o.o_totalprice * 100) AS BIGINT) * 10000
                       AS diff_c6
            FROM orders o JOIN s ON o.o_orderkey = s.l_orderkey
            WHERE s.computed_c6
                  <> CAST(round(o.o_totalprice * 100) AS BIGINT) * 10000
        """,
        "v_ship_before_order": """
            SELECT l_orderkey, l_linenumber
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE l_shipdate < o_orderdate
        """,
        "e_dedup_consecutive": """
            SELECT event_id, user_id, ts, event_type FROM (
                SELECT event_id, user_id, ts, event_type,
                       lag(event_type) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id) AS prev
                FROM events)
            WHERE prev IS NULL OR prev <> event_type
        """,
        "j_nearest_event": """
            SELECT o_orderkey, user_id, o_orderdate, event_id, ts FROM (
                SELECT o.o_orderkey, o.o_custkey AS user_id, o.o_orderdate,
                       e.event_id, e.ts,
                       row_number() OVER (
                           PARTITION BY o.o_orderkey
                           ORDER BY abs(datediff('microsecond',
                                                 o.o_orderdate, e.ts)),
                                    e.ts, e.event_id) AS rn
                FROM orders o JOIN events e ON e.user_id = o.o_custkey)
            WHERE rn = 1
        """,
        "j_interval_overlap": f"""
            WITH s0 AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w
                                 > INTERVAL '{q.SESSION_GAP_MIN} minutes'
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
            s1 AS (
                SELECT user_id, ts,
                       sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                        ROWS UNBOUNDED PRECEDING) AS sid
                FROM s0),
            sess AS (
                SELECT user_id, min(ts) AS session_start,
                       max(ts) AS session_end
                FROM s1 GROUP BY user_id, sid),
            err AS (
                SELECT ts - INTERVAL '{q.ERR_WINDOW_MIN} minutes' AS lo,
                       ts + INTERVAL '{q.ERR_WINDOW_MIN} minutes' AS hi
                FROM events WHERE event_type = 'error'),
            o AS (
                SELECT lo, hi,
                       max(hi) OVER (ORDER BY lo, hi ROWS BETWEEN UNBOUNDED
                                     PRECEDING AND 1 PRECEDING) AS prev_hi
                FROM err),
            grp AS (
                SELECT lo, hi,
                       sum(CASE WHEN prev_hi IS NULL OR lo > prev_hi
                                THEN 1 ELSE 0 END)
                           OVER (ORDER BY lo, hi) AS g
                FROM o),
            win AS (SELECT min(lo) AS lo, max(hi) AS hi FROM grp GROUP BY g)
            SELECT s.user_id, s.session_start, s.session_end,
                   CAST(count(w.lo) AS BIGINT) AS n_err_windows
            FROM sess s LEFT JOIN win w
                 ON s.session_start <= w.hi AND s.session_end >= w.lo
            GROUP BY 1, 2, 3
        """,
        "t_char_ngrams": """
            WITH d AS (SELECT lower(text) AS t FROM documents),
            g AS (SELECT substr(t, CAST(i AS INT), 3) AS gram
                  FROM d, LATERAL (SELECT unnest(generate_series(
                      1, length(t) - 2)) AS i) s)
            SELECT gram, count(*) AS n FROM g
            GROUP BY 1 ORDER BY n DESC, gram LIMIT 20
        """,
        "t_word_len_hist": """
            SELECT CAST(length(token) AS BIGINT) AS word_len,
                   count(*) AS n
            FROM (SELECT unnest(regexp_split_to_array(text, '\\s+')) AS token
                  FROM documents)
            WHERE length(token) > 0 GROUP BY 1
        """,
        "a_mad_outliers": """
            WITH med AS (SELECT lang, median(n_chars) AS m
                         FROM documents GROUP BY 1),
            mad AS (SELECT d.lang, median(abs(d.n_chars - med.m)) AS mad,
                           any_value(med.m) AS m
                    FROM documents d JOIN med USING (lang) GROUP BY 1)
            SELECT d.lang, round(mad.m, 2) AS median_nchars,
                   round(mad.mad, 2) AS mad_nchars,
                   CAST(sum(CASE WHEN abs(d.n_chars - mad.m) > 3 * mad.mad
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
            FROM documents d JOIN mad USING (lang)
            GROUP BY 1, 2, 3
        """,
        "pages_latest_per_host": f"""
            SELECT host, url, warc_ts FROM (
                SELECT regexp_extract(url, '^https://([^/]+)/', 1) AS host,
                       url, warc_ts,
                       row_number() OVER (
                           PARTITION BY regexp_extract(url,
                                                       '^https://([^/]+)/', 1)
                           ORDER BY warc_ts DESC, url DESC) AS rn
                FROM read_parquet('{_pages_fixture_glob()}'))
            WHERE rn = 1
        """,
        "e_rolling_revenue_7d": """
            WITH d AS (
                SELECT date_trunc('day', o_orderdate) AS day,
                       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                            AS BIGINT) AS cents
                FROM orders GROUP BY 1)
            SELECT day, round(cents / 100.0, 2) AS revenue,
                   round(sum(cents) OVER (ORDER BY day
                             RANGE BETWEEN INTERVAL 6 DAYS PRECEDING
                             AND CURRENT ROW) / 100.0, 2) AS revenue_7d
            FROM d
        """,
        "a_churned_customers": """
            WITH mx AS (SELECT max(o_orderdate) AS m FROM orders),
            last AS (SELECT o_custkey, max(o_orderdate) AS last_order
                     FROM orders GROUP BY 1)
            SELECT o_custkey, last_order FROM last, mx
            WHERE last_order < mx.m - INTERVAL 365 DAYS
        """,
        "e_dau_mau": """
            WITH d AS (SELECT DISTINCT date_trunc('day', ts) AS day, user_id
                       FROM events),
            dau AS (SELECT day, count(*) AS dau FROM d GROUP BY 1),
            m AS (SELECT DISTINCT date_trunc('month', ts) AS month, user_id
                  FROM events),
            mau AS (SELECT month, count(*) AS mau FROM m GROUP BY 1)
            SELECT day, dau, mau,
                   round(dau * 1.0 / mau, 6) AS stickiness
            FROM dau JOIN mau ON date_trunc('month', day) = mau.month
        """,
        "mm_image_dims": """
            SELECT vec_id,
                   CASE vec_id % 3 WHEN 0 THEN 'image/png'
                        WHEN 1 THEN 'image/gif'
                        ELSE 'image/jpeg' END AS kind,
                   CAST(vec_id * 7 % 800 + 16 AS BIGINT) AS width,
                   CAST(vec_id * 13 % 600 + 16 AS BIGINT) AS height
            FROM embeddings
        """,
        "t_hapax_ratio": """
            WITH t AS (
                SELECT lang, unnest(regexp_split_to_array(text, '\\s+')) AS tok
                FROM documents),
            c AS (SELECT lang, tok, count(*) AS n FROM t
                  WHERE tok <> '' GROUP BY 1, 2)
            SELECT lang, count(*) AS n_types,
                   CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_hapax,
                   round(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1.0
                         / count(*), 6) AS hapax_ratio
            FROM c GROUP BY 1
        """,
        "j_asof_next_event": """
            WITH m AS (
                SELECT o_orderkey, event_id FROM (
                    SELECT o.o_orderkey, e.event_id,
                           row_number() OVER (PARTITION BY o.o_orderkey
                                              ORDER BY e.ts, e.event_id) AS rn
                    FROM orders o JOIN events e
                         ON e.user_id = o.o_custkey
                        AND e.ts >= o.o_orderdate)
                WHERE rn = 1)
            SELECT o.o_custkey AS user_id, o.o_orderdate, o.o_orderkey,
                   m.event_id
            FROM orders o LEFT JOIN m ON o.o_orderkey = m.o_orderkey
        """,
        "o_dense_rank_price": """
            SELECT o_orderkey, o_custkey,
                   CAST(dense_rank() OVER (PARTITION BY o_custkey
                                           ORDER BY o_totalprice DESC)
                        AS BIGINT) AS drank
            FROM orders
        """,
        "g_triangles": f"""
            WITH h AS (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS h1,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1) AS h2
                FROM read_parquet('{_pages_links_path()}')),
            e AS (
                SELECT DISTINCT least(h1, h2) AS a, greatest(h1, h2) AS b
                FROM h WHERE h1 <> h2 AND h1 <> '' AND h2 <> ''),
            tri AS (
                SELECT 1 FROM e e1
                JOIN e e2 ON e2.a = e1.b
                JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b)
            SELECT CAST(count(*) AS BIGINT) AS n_triangles FROM tri
        """,
        "v_fk_orphans": """
            WITH rel AS (
                SELECT 'orders.o_custkey->customer' AS relation,
                       count(*) AS n_rows,
                       CAST(sum(CASE WHEN c.c_custkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT) AS n_orphans
                FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
                UNION ALL
                SELECT 'lineitem.l_orderkey->orders', count(*),
                       CAST(sum(CASE WHEN o.o_orderkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT)
                FROM lineitem l LEFT JOIN orders o ON l.l_orderkey = o.o_orderkey
                UNION ALL
                SELECT 'lineitem.l_partkey->part', count(*),
                       CAST(sum(CASE WHEN p.p_partkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT)
                FROM lineitem l LEFT JOIN part p ON l.l_partkey = p.p_partkey
                UNION ALL
                SELECT 'lineitem.l_suppkey->supplier', count(*),
                       CAST(sum(CASE WHEN s.s_suppkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT)
                FROM lineitem l LEFT JOIN supplier s ON l.l_suppkey = s.s_suppkey
                UNION ALL
                SELECT 'customer.c_nationkey->nation', count(*),
                       CAST(sum(CASE WHEN n.n_nationkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT)
                FROM customer c LEFT JOIN nation n ON c.c_nationkey = n.n_nationkey
                UNION ALL
                SELECT 'supplier.s_nationkey->nation', count(*),
                       CAST(sum(CASE WHEN n.n_nationkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT)
                FROM supplier s LEFT JOIN nation n ON s.s_nationkey = n.n_nationkey
                UNION ALL
                SELECT 'nation.n_regionkey->region', count(*),
                       CAST(sum(CASE WHEN r.r_regionkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT)
                FROM nation n LEFT JOIN region r ON n.n_regionkey = r.r_regionkey
                UNION ALL
                SELECT 'events.user_id->customer', count(*),
                       CAST(sum(CASE WHEN c.c_custkey IS NULL THEN 1 ELSE 0
                                END) AS BIGINT)
                FROM events e LEFT JOIN customer c ON e.user_id = c.c_custkey)
            SELECT * FROM rel
        """,
        "mm_audio_wav": """
            WITH s AS (
                SELECT vec_id, i,
                       CAST(((vec_id * 31 + i * 7919) % 65536) - 32768
                            AS DOUBLE) AS v
                FROM embeddings,
                     unnest(generate_series(0, 799)) AS t(i)),
            w AS (SELECT vec_id, v,
                         lead(v) OVER (PARTITION BY vec_id ORDER BY i)
                             AS nv
                  FROM s)
            SELECT CAST(vec_id AS VARCHAR) AS url,
                   CAST(8000 AS INTEGER) AS sr,
                   CAST(800 AS BIGINT) AS n_samples,
                   CAST(100 AS BIGINT) AS duration_ms,
                   round(sqrt(avg(v * v)), 6) AS rms,
                   CAST(sum(CASE WHEN v * nv < 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS zcr
            FROM w GROUP BY vec_id
        """,
        # ground truths are integer formulas of vec_id — the engine must
        # recover them from the rendered bytes via rfft (leakage-free
        # integer-cycle tones make the FFT peak exactly checkable; the
        # amplitude estimate's quantization error bound <1 makes
        # round-to-10 exact for multiples of 10)
        "mm_audio_spectrum": """
            SELECT CAST(vec_id AS VARCHAR) AS url,
                   CAST(8000 AS INTEGER) AS sr,
                   CAST(800 AS BIGINT) AS n_samples,
                   CAST((5 + vec_id % 350) * 10 AS BIGINT) AS dom_freq_hz,
                   CAST(6000 + 10 * (vec_id % 200) AS BIGINT) AS amp10
            FROM embeddings
        """,
        "td_decontaminate_embed": """
            WITH ev AS (SELECT CAST(embedding AS DOUBLE[]) AS e
                        FROM embeddings WHERE label = 0)
            SELECT v.vec_id,
                   round(max(list_cosine_similarity(
                       CAST(v.embedding AS DOUBLE[]), ev.e)), 6)
                       AS max_sim,
                   CAST(max(list_cosine_similarity(
                       CAST(v.embedding AS DOUBLE[]), ev.e))
                        >= 0.8 AS BIGINT) AS contaminated
            FROM embeddings v CROSS JOIN ev
            GROUP BY v.vec_id
        """,
        "j_scd2_history": """
            SELECT user_id, value AS balance, ts AS valid_from,
                   lead(ts) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id) AS valid_to
            FROM events WHERE event_type = 'purchase'
        """,
        "mm_frame_ppm": """
            SELECT CAST(vec_id AS VARCHAR) AS url,
                   CAST(i AS INTEGER) AS frame_idx,
                   CAST(i * 203 AS BIGINT) AS byte_offset
            FROM embeddings,
                 unnest(generate_series(0, 11, 5)) AS t(i)
        """,
        "mm_decode_ppm": """
            SELECT CAST(vec_id AS VARCHAR) AS url,
                   'image/ppm' AS kind,
                   CAST(16 AS INTEGER) AS width,
                   CAST(16 AS INTEGER) AS height,
                   CAST(3 AS INTEGER) AS n_channels
            FROM embeddings
        """,
        # full-value dHash oracle: the fixture image is built so its TRUE
        # dHash is vec_id // 4 (row pixels random-walk by the group id's
        # bits); matching proves decode → grayscale → 64 comparisons →
        # bit-pack agree AND the sub-threshold jitter never flips a bit
        # banded recall is EXACT for hamming<=3 over 4x16-bit bands
        # (pigeonhole), so the full dominance oracle is legitimate;
        # fixture identity: true dHash == vec_id // 4
        "mm_phash_near_dup": """
            WITH ph AS (
                SELECT vec_id, CAST(vec_id // 4 AS BIGINT) AS phash
                FROM embeddings
            )
            SELECT a.vec_id AS a, b.vec_id AS b,
                   CAST(bit_count(xor(a.phash, b.phash)) AS BIGINT)
                       AS hamming
            FROM ph a JOIN ph b ON a.vec_id < b.vec_id
            WHERE bit_count(xor(a.phash, b.phash)) <= 3
        """,
        "mm_image_phash": """
            WITH ph AS (
                SELECT vec_id, CAST(vec_id // 4 AS BIGINT) AS phash
                FROM embeddings
            )
            SELECT p.vec_id, p.phash, c.n
            FROM ph p JOIN (SELECT phash, CAST(count(*) AS BIGINT) AS n
                            FROM ph GROUP BY phash) c USING (phash)
        """,
        "mm_decode_png": """
            SELECT CAST(e.vec_id AS VARCHAR) AS url,
                   'image/png' AS kind,
                   CAST(16 AS INTEGER) AS width,
                   CAST(16 AS INTEGER) AS height,
                   CAST(3 AS INTEGER) AS n_channels,
                   CAST(SUM((e.vec_id * 2654435761 + t.j * 97) % 256)
                        AS BIGINT) AS px_sum
            FROM embeddings e,
                 unnest(generate_series(0, 767)) AS t(j)
            GROUP BY e.vec_id
        """,
        "mm_decode_gif": """
            SELECT CAST(e.vec_id AS VARCHAR) AS url,
                   'image/gif' AS kind,
                   CAST(16 AS INTEGER) AS width,
                   CAST(16 AS INTEGER) AS height,
                   CAST(3 AS INTEGER) AS n_channels,
                   CAST(SUM(((e.vec_id * 2654435761 + t.j * 97) % 256)
                            + (((e.vec_id * 2654435761 + t.j * 97) % 256)
                               * 7) % 256
                            + (((e.vec_id * 2654435761 + t.j * 97) % 256)
                               * 13) % 256)
                        AS BIGINT) AS px_sum
            FROM embeddings e,
                 unnest(generate_series(0, 255)) AS t(j)
            GROUP BY e.vec_id
        """,
        "mm_decode_jpeg": """
            SELECT CAST(e.vec_id AS VARCHAR) AS url,
                   'image/jpeg' AS kind,
                   CAST(16 AS INTEGER) AS width,
                   CAST(16 AS INTEGER) AS height,
                   CAST(1 AS INTEGER) AS n_channels,
                   CAST(SUM(64 * ((e.vec_id * 2654435761 + t.b * 97) % 256))
                        AS BIGINT) AS px_sum
            FROM embeddings e,
                 unnest(generate_series(0, 3)) AS t(b)
            GROUP BY e.vec_id
        """,
        "j_follow_within": """
            SELECT e.event_id, CAST(count(f.event_id) AS BIGINT)
                       AS n_follow
            FROM events e LEFT JOIN events f
              ON f.user_id = e.user_id
             AND f.ts > e.ts
             AND f.ts <= e.ts + INTERVAL 5 MINUTE
            WHERE e.event_type = 'error'
            GROUP BY 1
        """,
        "o_weighted_sample": """
            SELECT doc_id, n_chars FROM (
                SELECT doc_id, n_chars,
                       -ln(greatest(
                           ((doc_id * 2654435761) % 1000003)
                               / 1000003.0, 1e-12))
                       / greatest(n_chars, 1) AS key
                FROM documents
                ORDER BY key, doc_id LIMIT 50)
        """,
        "dd_substr_cut": r"""
            WITH tok AS (SELECT doc_id,
                                regexp_split_to_array(coalesce(text, ''),
                                                      '\s+') AS arr
                         FROM documents),
            grams AS (
                SELECT doc_id, i AS pos,
                       arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] || ' '
                       || arr[i+3] || ' ' || arr[i+4] || ' ' || arr[i+5]
                       || ' ' || arr[i+6] || ' ' || arr[i+7] AS g
                FROM tok,
                     unnest(generate_series(1, greatest(len(arr) - 7, 0)))
                         AS t(i)),
            r AS (SELECT doc_id, pos,
                         row_number() OVER (
                             PARTITION BY g ORDER BY doc_id, pos) AS rn
                  FROM grams),
            cov AS (SELECT DISTINCT doc_id, pos + j AS p
                    FROM r, unnest(generate_series(0, 7)) AS u(j)
                    WHERE rn > 1),
            toks AS (SELECT doc_id, i, arr[i] AS w
                     FROM tok,
                          unnest(generate_series(1, len(arr))) AS t(i)),
            kept AS (SELECT t.doc_id, t.i, t.w
                     FROM toks t LEFT JOIN cov c
                         ON t.doc_id = c.doc_id AND t.i = c.p
                     WHERE c.p IS NULL)
            SELECT d.doc_id, coalesce(k.ct, '') AS clean_text
            FROM documents d LEFT JOIN
                 (SELECT doc_id, string_agg(w, ' ' ORDER BY i) AS ct
                  FROM kept GROUP BY doc_id) k USING (doc_id)
        """,
        "td_shuffle_shards": """
            SELECT doc_id,
                   (row_number() OVER (
                        ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
                    - 1) // 250 AS shard,
                   (row_number() OVER (
                        ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
                    - 1) % 250 AS "offset"
            FROM documents
        """,
        "a_percent_rank": """
            SELECT doc_id, lang,
                   round(percent_rank() OVER (
                       PARTITION BY lang ORDER BY n_chars), 6) AS pr
            FROM documents
        """,
        "e_transitions": """
            SELECT prev_type, event_type, CAST(count(*) AS BIGINT) AS n
            FROM (SELECT lag(event_type) OVER (
                      PARTITION BY user_id ORDER BY ts, event_id)
                      AS prev_type,
                      event_type
                  FROM events)
            WHERE prev_type IS NOT NULL
            GROUP BY 1, 2
        """,
        "v_skew_report": """
            WITH pk AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
                        FROM events GROUP BY 1)
            SELECT CASE WHEN n <= 1 THEN '1'
                        WHEN n <= 10 THEN '2-10'
                        WHEN n <= 100 THEN '11-100'
                        WHEN n <= 1000 THEN '101-1000'
                        WHEN n <= 10000 THEN '1001-10000'
                        WHEN n <= 100000 THEN '10001-100000'
                        WHEN n <= 1000000 THEN '100001-1000000'
                        ELSE '1000001-10000000' END AS bucket,
                   CAST(count(*) AS BIGINT) AS n_keys,
                   CAST(sum(n) AS BIGINT) AS n_rows
            FROM pk GROUP BY 1
        """,
        "g_bfs_depth": f"""
            WITH RECURSIVE
            e AS (SELECT DISTINCT a, b FROM (
                    SELECT regexp_extract(src_url,
                               '^https://([^/]+)/', 1) AS a,
                           regexp_extract(dst_url,
                               '^https://([^/]+)/', 1) AS b
                    FROM read_parquet('{_pages_links_path()}'))
                  WHERE a <> '' AND b <> ''),
            nodes AS MATERIALIZED (SELECT DISTINCT n FROM
                (SELECT a AS n FROM e UNION ALL SELECT b FROM e)),
            -- DISTINCT is load-bearing: under WITH RECURSIVE, DuckDB
            -- returns duplicate rows from the ORDER BY+LIMIT over the
            -- deduped CTE (observed: the min host 3x)
            seeds AS MATERIALIZED (SELECT DISTINCT n FROM nodes
                                   ORDER BY n LIMIT 3),
            walk AS (
                SELECT n AS node, 0 AS d FROM seeds
                UNION
                SELECT e.b, walk.d + 1 FROM walk JOIN e ON walk.node = e.a
                WHERE walk.d < 30
            )
            SELECT node, CAST(min(d) AS BIGINT) AS depth
            FROM walk GROUP BY node
        """,
        "g_scc": f"""
            WITH RECURSIVE
            e AS (SELECT DISTINCT a, b FROM (
                    SELECT regexp_extract(src_url,
                               '^https://([^/]+)/', 1) AS a,
                           regexp_extract(dst_url,
                               '^https://([^/]+)/', 1) AS b
                    FROM read_parquet('{_pages_links_path()}'))
                  WHERE a <> '' AND b <> '' AND a <> b),
            nodes AS (SELECT a AS n FROM e UNION SELECT b FROM e),
            reach AS (
                SELECT n AS u, n AS v FROM nodes
                UNION
                SELECT reach.u, e.b FROM reach JOIN e ON reach.v = e.a
            )
            SELECT r1.u AS host, min(r1.v) AS scc_id
            FROM reach r1 JOIN reach r2 ON r1.u = r2.v AND r1.v = r2.u
            GROUP BY r1.u
        """,
        "g_bowtie": f"""
            WITH RECURSIVE
            e AS (SELECT DISTINCT a, b FROM (
                    SELECT regexp_extract(src_url,
                               '^https://([^/]+)/', 1) AS a,
                           regexp_extract(dst_url,
                               '^https://([^/]+)/', 1) AS b
                    FROM read_parquet('{_pages_links_path()}'))
                  WHERE a <> '' AND b <> '' AND a <> b),
            nodes AS (SELECT a AS n FROM e UNION SELECT b FROM e),
            reach AS (
                SELECT n AS u, n AS v FROM nodes
                UNION
                SELECT reach.u, e.b FROM reach JOIN e ON reach.v = e.a
            ),
            scc AS (
                SELECT r1.u AS host, min(r1.v) AS scc_id
                FROM reach r1 JOIN reach r2
                    ON r1.u = r2.v AND r1.v = r2.u
                GROUP BY r1.u),
            g AS (
                SELECT scc_id FROM (
                    SELECT scc_id, count(*) AS n FROM scc GROUP BY 1)
                ORDER BY n DESC, scc_id LIMIT 1)
            SELECT s.host,
                   CASE WHEN s.scc_id = g.scc_id THEN 'GSCC'
                        WHEN EXISTS (SELECT 1 FROM reach r
                                     WHERE r.u = g.scc_id
                                       AND r.v = s.host) THEN 'OUT'
                        WHEN EXISTS (SELECT 1 FROM reach r
                                     WHERE r.u = s.host
                                       AND r.v = g.scc_id) THEN 'IN'
                        ELSE 'OTHER' END AS part
            FROM scc s, g
        """,
        "g_components": """
            WITH RECURSIVE
            e AS (SELECT DISTINCT a, b FROM (
                    SELECT regexp_extract(src_url,
                               '^https://([^/]+)/', 1) AS a,
                           regexp_extract(dst_url,
                               '^https://([^/]+)/', 1) AS b
                    FROM read_parquet(
                        '/tmp/lk_pages/n60000_s42_x3/links.parquet')
                  UNION ALL
                    SELECT regexp_extract(dst_url,
                               '^https://([^/]+)/', 1),
                           regexp_extract(src_url,
                               '^https://([^/]+)/', 1)
                    FROM read_parquet(
                        '/tmp/lk_pages/n60000_s42_x3/links.parquet'))
                  WHERE a <> '' AND b <> ''),
            nodes AS (SELECT DISTINCT a AS n FROM e),
            reach AS (
                SELECT n AS node, n AS r FROM nodes
                UNION
                SELECT reach.node, e.b FROM reach JOIN e ON reach.r = e.a
            )
            SELECT node, min(r) AS cluster FROM reach GROUP BY node
        """,
        "t_pmi_top": r"""
            WITH tok AS (SELECT regexp_split_to_array(text, '\s+') AS arr
                         FROM documents),
            uni AS (SELECT w, CAST(count(*) AS BIGINT) AS cu
                    FROM (SELECT unnest(arr) AS w FROM tok)
                    WHERE len(w) > 0 GROUP BY 1),
            bi AS (SELECT arr[i] AS w1, arr[i+1] AS w2,
                          CAST(count(*) AS BIGINT) AS cb
                   FROM tok,
                        unnest(generate_series(
                            1, greatest(len(arr) - 1, 0))) AS t(i)
                   GROUP BY 1, 2),
            nu AS (SELECT CAST(sum(cu) AS DOUBLE) AS nu FROM uni),
            nb AS (SELECT CAST(sum(cb) AS DOUBLE) AS nb FROM bi)
            SELECT b.w1, b.w2, b.cb,
                   round(ln((b.cb / nb.nb)
                            / ((u1.cu / nu.nu) * (u2.cu / nu.nu))), 6)
                       AS pmi
            FROM bi b
            JOIN uni u1 ON b.w1 = u1.w
            JOIN uni u2 ON b.w2 = u2.w
            CROSS JOIN nu CROSS JOIN nb
            WHERE b.cb >= 5
            ORDER BY pmi DESC, b.w1, b.w2
            LIMIT 20
        """,
        "td_rebalance": """
            WITH m AS (SELECT min(cnt) AS mc FROM (
                           SELECT count(*) AS cnt FROM documents
                           GROUP BY lang)),
            r AS (SELECT doc_id, lang,
                         row_number() OVER (
                             PARTITION BY lang
                             ORDER BY md5(CAST(doc_id AS VARCHAR)) ASC,
                                      doc_id ASC) AS rn
                  FROM documents)
            SELECT doc_id, lang FROM r, m WHERE rn <= m.mc
        """,
        "o_union_evolved": """
            SELECT o_orderkey, o_totalprice,
                   CAST(NULL AS VARCHAR) AS o_orderpriority
            FROM orders WHERE o_orderdate < DATE '1996-01-01'
            UNION ALL
            SELECT o_orderkey, o_totalprice, o_orderpriority
            FROM orders WHERE o_orderdate >= DATE '1996-01-01'
        """,
        "a_winsorize_price": """
            WITH q AS (SELECT quantile_cont(o_totalprice, 0.05) AS q_lo,
                              quantile_cont(o_totalprice, 0.95) AS q_hi
                       FROM orders)
            SELECT o_orderkey,
                   round(least(greatest(o_totalprice, q.q_lo), q.q_hi), 2)
                       AS price_w
            FROM orders, q
        """,
        "td_ccnet_buckets": f"""
            WITH toks AS (
                SELECT doc_id, list_extract(tk, t.i) AS w1,
                       list_extract(tk, t.i + 1) AS w2
                FROM (SELECT doc_id, {_TOKS} AS tk FROM documents) d,
                     unnest(generate_series(1, len(tk) - 1)) AS t(i)
            ),
            uni AS (
                SELECT tok, count(*) AS cu FROM (
                    SELECT unnest(tk) AS tok
                    FROM (SELECT {_TOKS} AS tk FROM documents))
                GROUP BY tok
            ),
            v AS (SELECT count(*) AS vs FROM uni),
            bc AS (SELECT w1, w2, count(*) AS cb FROM toks GROUP BY 1, 2),
            scores AS (
                SELECT b.doc_id,
                       round(avg(ln((bc.cb + 0.5) / (u.cu + 0.5 * v.vs))), 6)
                           AS avg_lp
                FROM toks b
                JOIN bc ON b.w1 = bc.w1 AND b.w2 = bc.w2
                JOIN uni u ON b.w1 = u.tok
                CROSS JOIN v
                GROUP BY b.doc_id
            )
            SELECT doc_id, avg_lp,
                   CASE ntile(3) OVER (ORDER BY avg_lp, doc_id)
                        WHEN 1 THEN 'tail' WHEN 2 THEN 'middle'
                        ELSE 'head' END AS bucket
            FROM scores
        """,
        "o_intersect_except": """
            SELECT user_id, 'intersect' AS setop FROM (
                SELECT user_id FROM events WHERE event_type = 'click'
                INTERSECT
                SELECT user_id FROM events WHERE event_type = 'error')
            UNION ALL
            SELECT user_id, 'except' AS setop FROM (
                SELECT user_id FROM events WHERE event_type = 'click'
                EXCEPT
                SELECT user_id FROM events WHERE event_type = 'error')
        """,
        # exact fixed-point: every term is a 2/4-decimal DECIMAL, so sums
        # are exact and scale-independent (float64 sums drift ULPs at sf0.1)
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS DECIMAL(18,2)))
                        AS DOUBLE) AS sum_qty,
                   CAST(sum(CAST(l_extendedprice AS DECIMAL(18,2)))
                        AS DOUBLE) AS sum_base_price,
                   CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                                  * CAST(1 - l_discount AS DECIMAL(8,2))), 2)
                        AS DOUBLE) AS sum_disc_price,
                   round(CAST(sum(CAST(l_quantity AS DECIMAL(18,2)))
                              AS DOUBLE) / count(*), 6) AS avg_qty,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY 1, 2
        """,
        "q3_top_orders": """
            SELECT l_orderkey AS o_orderkey, o_orderdate,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            WHERE c_mktsegment = 'BUILDING'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue DESC, l_orderkey ASC
            LIMIT 10
        """,
        "q5_regional_revenue": """
            SELECT n_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY 1
        """,
        "j_enrich_customer": """
            SELECT c_custkey, c_name, n_name, r_name
            FROM customer
            LEFT JOIN nation ON c_nationkey = n_nationkey
            LEFT JOIN region ON n_regionkey = r_regionkey
        """,
        "j_anti_customers_no_events": """
            SELECT c_custkey, c_name FROM customer
            WHERE NOT EXISTS (SELECT 1 FROM events WHERE user_id = c_custkey)
        """,
        "j_semi_error_customers": """
            SELECT c_custkey, c_name FROM customer
            WHERE EXISTS (SELECT 1 FROM events
                          WHERE user_id = c_custkey AND event_type = 'error')
        """,
        "a_dup_user_event": """
            SELECT user_id, event_type, count(*) AS n
            FROM events GROUP BY 1, 2 HAVING count(*) > 1
        """,
        "a_collect_event_types": """
            SELECT user_id,
                   string_agg(event_type, ',' ORDER BY event_type, event_id) AS types,
                   count(*) AS n_events
            FROM events GROUP BY user_id
        """,
        "a_lang_source_counts": """
            SELECT lang, source, count(*) AS n FROM documents GROUP BY 1, 2
        """,
        "o_topk_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
        """,
        "o_union_priority": """
            SELECT o_orderkey, o_orderpriority, o_orderstatus FROM orders
            WHERE o_orderpriority = '1-URGENT' AND o_orderstatus = 'O'
            UNION ALL
            SELECT o_orderkey, o_orderpriority, o_orderstatus FROM orders
            WHERE o_orderpriority = '5-LOW' AND o_orderstatus = 'F'
        """,
        "m_part_classify": """
            SELECT p_partkey,
                   regexp_extract(p_name, '^(\\w+)', 1) AS first_word,
                   CASE WHEN p_type = 'PROMO' THEN 'promo'
                        WHEN p_type IN ('ECONOMY', 'SMALL') THEN 'value'
                        ELSE 'standard' END AS type_class,
                   upper(p_brand) AS brand_uc,
                   'part: ' || p_name AS label
            FROM part
        """,
        "m_orders_per_year": """
            SELECT year(o_orderdate) AS year, count(*) AS n_orders
            FROM orders GROUP BY 1
        """,
        "m_doc_tokens": f"""
            SELECT doc_id, i - 1 AS ordinal, arr[i] AS token
            FROM (SELECT doc_id, {_TOKS} AS arr
                  FROM documents WHERE doc_id < 20),
                 unnest(generate_series(1, len(arr))) AS t(i)
        """,
        "e_hourly_windows": """
            SELECT date_trunc('hour', ts) AS hour, event_type,
                   round(sum(value), 2) AS sum_value, count(*) AS n_events
            FROM events GROUP BY 1, 2
        """,
        "e_sliding_windows": """
            SELECT ws, event_type, count(*) AS n FROM (
                SELECT event_type, unnest([
                    CAST(to_timestamp(floor(epoch(ts)/1800)*1800 - 1800)
                         AS TIMESTAMP),
                    CAST(to_timestamp(floor(epoch(ts)/1800)*1800)
                         AS TIMESTAMP)]) AS ws
                FROM events)
            GROUP BY 1, 2
        """,
        "e_sessionize": """
            WITH d AS (
                SELECT user_id,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL '30 minutes'
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            )
            SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions,
                   count(*) AS n_events
            FROM d GROUP BY user_id
        """,
        "t_token_stats": f"""
            SELECT doc_id, len({_TOKS}) AS n_tokens,
                   length(text) AS n_chars
            FROM documents
        """,
        # same RE2 alternation as functions/text.py:BPE_SPLIT_PATTERN
        "t_bpe_tokens": f"""
            WITH c AS (
                SELECT doc_id,
                       len(regexp_extract_all(text,
                           '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\\s]+|\\s+'
                           )) AS n_bpe_tokens,
                       len({_TOKS}) AS n_ws_tokens
                FROM documents
            )
            SELECT doc_id, n_bpe_tokens, n_ws_tokens,
                   round(CAST(n_bpe_tokens AS DOUBLE)
                         / greatest(n_ws_tokens, 1), 6) AS fertility
            FROM c
        """,
        # same linear interpolation as quantile_cont (verified formula-equal)
        "e_gap_quantiles": """
            WITH g AS (
                SELECT user_id,
                       CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER (
                            PARTITION BY user_id ORDER BY ts)
                            AS DOUBLE) AS gap_us
                FROM events
            )
            SELECT user_id, count(gap_us) AS n_gaps,
                   round(quantile_cont(gap_us, 0.5), 1) AS p50_gap_us,
                   round(quantile_cont(gap_us, 0.9), 1) AS p90_gap_us
            FROM g WHERE gap_us IS NOT NULL
            GROUP BY 1
        """,
        "t_quality": f"""
            SELECT doc_id,
                   round(length(regexp_replace(text, '[^0-9]', '', 'g')) * 1.0
                         / greatest(length(text), 1), 6) AS digit_ratio,
                   round((length(text)
                          - length(regexp_replace(text, '{_PUNCT_CLASS}', '', 'g'))) * 1.0
                         / greatest(length(text), 1), 6) AS punct_ratio,
                   round(len(list_filter({_TOKS},
                             x -> list_contains([{_STOP_SQL}], x))) * 1.0
                         / greatest(len({_TOKS}), 1), 6) AS stopword_ratio,
                   round(list_aggregate(list_transform({_TOKS},
                             x -> length(x)), 'sum') * 1.0
                         / greatest(len({_TOKS}), 1), 6) AS mean_token_len
            FROM documents
        """,
        "t_fingerprint": """
            SELECT doc_id, md5(text) AS fp FROM documents
        """,
        # the same integer-arithmetic corner predicate the engine derives
        # from its distributed min/max pass; the engine answers it from
        # the zone-map-pruned z-ordered copy — equality proves the
        # clustered rewrite is lossless AND the pruning is sound
        "v_zorder_prune": """
            WITH b AS (SELECT min(user_id) AS ulo, max(user_id) AS uhi,
                              min(epoch_us(ts)) AS tlo,
                              max(epoch_us(ts)) AS thi
                       FROM events)
            SELECT event_id, ts, user_id, event_type, value
            FROM events, b
            WHERE user_id BETWEEN b.ulo AND b.ulo + (b.uhi - b.ulo) // 10
              AND epoch_us(ts) BETWEEN b.tlo
                  AND b.tlo + (b.thi - b.tlo) // 10
        """,
        "t_inverted_index": f"""
            WITH pairs AS (
                SELECT DISTINCT token, doc_id
                FROM (SELECT doc_id, unnest({_TOKS}) AS token
                      FROM documents)
            )
            SELECT token, CAST(count(*) AS BIGINT) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ','
                              ORDER BY doc_id) AS postings
            FROM pairs GROUP BY token
        """,
        "t_top_tokens": f"""
            SELECT token, count(*) AS n
            FROM (SELECT unnest({_TOKS}) AS token FROM documents)
            GROUP BY token
            ORDER BY n DESC, token ASC
            LIMIT 20
        """,
        # the corpus vocabulary (31 tokens) is far below the sketch's
        # m=128, so the heavy-hitter bounds are tight (lo = hi = exact)
        # and the approximate query is fully oracle-checkable here; the
        # truncation/bound path is exercised on synthetic Zipf data in
        # tests/test_sketches.py
        "t_top_tokens_approx": f"""
            SELECT token, CAST(n AS BIGINT) AS n_lo, CAST(n AS BIGINT) AS n_hi
            FROM (SELECT token, count(*) AS n
                  FROM (SELECT unnest({_TOKS}) AS token FROM documents)
                  GROUP BY token
                  ORDER BY n DESC, token ASC
                  LIMIT 20)
        """,
        # Count-Min never undercounts and overcounts only on bucket
        # collision; the fixture vocabulary is tiny relative to the
        # 4×2048 table, and under the fixed deterministic hashes no
        # token collides in all 4 rows, so every estimate equals the
        # exact count (verified at sf0.001/0.01/0.1) — the ε-bound /
        # collision path is exercised on Zipf data in test_sketches.py
        # fixture vocabulary << m=128 ⇒ MG bounds are tight (lo = exact),
        # so the grouped heavy-hitter query is fully oracle-checkable;
        # ties broken token-ascending in both engines
        "t_top_tokens_per_lang": f"""
            SELECT lang, token, n FROM (
                SELECT lang, token, count(*) AS n,
                       row_number() OVER (PARTITION BY lang
                           ORDER BY count(*) DESC, token ASC) AS rk
                FROM (SELECT lang, unnest({_TOKS}) AS token FROM documents)
                GROUP BY lang, token)
            WHERE rk <= 5
        """,
        "t_token_freq_cms": f"""
            SELECT token, CAST(n AS BIGINT) AS n_est
            FROM (SELECT token, count(*) AS n
                  FROM (SELECT unnest({_TOKS}) AS token FROM documents)
                  GROUP BY token
                  ORDER BY n DESC, token ASC
                  LIMIT 20)
        """,
        "v_events_ts_range": """
            SELECT event_id, ts FROM events
            WHERE ts >= TIMESTAMP '2024-01-30 00:00:00'
        """,
        "v_doc_suite": f"""
            SELECT 'c2_nonnull' AS check_id, doc_id,
                   'text null/empty' AS detail
            FROM documents WHERE text IS NULL OR length(text) = 0
            UNION ALL
            SELECT 'c3_lang_vocab', doc_id, 'lang_not_in_vocab'
            FROM documents WHERE lang NOT IN ({_ISO_SQL})
            UNION ALL
            SELECT 'c7_nchars_consistent', doc_id, 'n_chars != length(text)'
            FROM documents WHERE n_chars <> coalesce(length(text), -1)
            UNION ALL
            SELECT 'c8_quality_short', doc_id, 'n_chars<100'
            FROM documents WHERE n_chars < 100
        """,
        "v_unique_doc_ids": """
            SELECT doc_id, count(*) AS n FROM documents
            GROUP BY 1 HAVING count(*) > 1
        """,
        "v_profile_orders": "\nUNION ALL".join(
            f"""
            SELECT '{c}' AS col, count(*) AS n_rows,
                   count(*) - count({c}) AS n_null,
                   count(DISTINCT {c}) AS n_distinct
            FROM orders"""
            for c in ["o_orderkey", "o_custkey", "o_orderstatus",
                      "o_totalprice", "o_orderdate", "o_orderpriority"]),
        "v_profile_suggest": """
            WITH p AS (""" + "\nUNION ALL".join(
            f"""
                SELECT '{c}' AS col, count(*) AS n_rows,
                       count(*) - count({c}) AS n_null,
                       count(DISTINCT {c}) AS n_distinct
                FROM documents"""
            for c in ["doc_id", "lang", "source", "n_chars"]) + """
            )
            SELECT col, n_rows, n_null, n_distinct,
                   concat_ws(',',
                       CASE WHEN n_null = 0 THEN 'not_null' END,
                       CASE WHEN n_distinct = n_rows THEN 'unique' END,
                       CASE WHEN n_distinct <= 16 THEN 'vocabulary' END)
                       AS suggested
            FROM p
        """,
        # PSI vs the corpus mixture; add-1/2 smoothing on both sides of the
        # log-ratio mirrors the engine exactly (PSI undefined at zero bins)
        "v_ts_monotonic": f"""
            WITH t AS (
                SELECT url, warc_ts,
                       regexp_extract(filename, '([^/]+)$', 1) AS file,
                       file_row_number AS rn
                FROM read_parquet('{_pages_fixture_glob()}',
                                  filename=true, file_row_number=true)),
            w AS (
                SELECT file, url, warc_ts,
                       max(warc_ts) OVER (
                           PARTITION BY file ORDER BY rn
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING) AS prev_max
                FROM t)
            SELECT file, url, warc_ts, prev_max
            FROM w WHERE warc_ts < prev_max
        """,
        "pages_rolling_distinct_7d": f"""
            WITH p AS (SELECT DISTINCT url, CAST(warc_ts AS DATE) AS day
                       FROM read_parquet('{_pages_fixture_glob()}')),
            l AS (SELECT url, day,
                         lag(day) OVER (PARTITION BY url ORDER BY day)
                             AS prev
                  FROM p),
            days AS (SELECT DISTINCT day FROM p)
            SELECT strftime(d.day, '%Y-%m-%d') AS day,
                   count(*) AS n_distinct_7d
            FROM days d JOIN l
              ON l.day BETWEEN d.day - 6 AND d.day
             AND (l.prev IS NULL OR l.prev < d.day - 6)
            GROUP BY 1
        """,
        "v_count_anomaly": f"""
            WITH c AS (
                SELECT strftime(warc_ts, '%Y-%m-%d') AS day, count(*) AS n
                FROM read_parquet('{_pages_fixture_glob()}')
                GROUP BY 1
            ),
            m AS (SELECT median(n * 1.0) AS med FROM c),
            s AS (SELECT median(abs(n * 1.0 - (SELECT med FROM m))) AS mad
                  FROM c)
            SELECT day, CAST(n AS BIGINT) AS n,
                   round((SELECT med FROM m), 6) AS med,
                   round(abs(n * 1.0 - (SELECT med FROM m)), 6) AS dev,
                   abs(n * 1.0 - (SELECT med FROM m))
                       > 3 * 1.4826 * (SELECT mad FROM s) AS is_anomaly
            FROM c
        """,
        "v_daily_lang_psi": f"""
            WITH c AS (
                SELECT strftime(warc_ts, '%Y-%m-%d') AS day, lang,
                       count(*) AS n
                FROM read_parquet('{_pages_fixture_glob()}')
                GROUP BY 1, 2
            ),
            lt AS (SELECT lang, sum(n) AS ln FROM c GROUP BY 1),
            dt AS (SELECT day, sum(n) AS dn FROM c GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS DOUBLE) AS t,
                           count(DISTINCT lang) AS nl FROM c),
            j AS (
                SELECT d.day, d.dn, l.lang,
                       (coalesce(c.n, 0) + 0.5) / (d.dn + 0.5 * t.nl) AS p,
                       (l.ln + 0.5) / (t.t + 0.5 * t.nl) AS q
                FROM dt d CROSS JOIN lt l CROSS JOIN tot t
                LEFT JOIN c ON c.day = d.day AND c.lang = l.lang
            )
            SELECT day, CAST(max(dn) AS BIGINT) AS n,
                   round(sum((p - q) * ln(p / q)), 6) AS psi
            FROM j GROUP BY 1
        """,
        # zero-count (day, lang) cells enter the chi2 sum via the grid join
        "v_daily_lang_drift": f"""
            WITH c AS (
                SELECT strftime(warc_ts, '%Y-%m-%d') AS day, lang,
                       count(*) AS n
                FROM read_parquet('{_pages_fixture_glob()}')
                GROUP BY 1, 2
            ),
            lt AS (SELECT lang, sum(n) AS ln FROM c GROUP BY 1),
            dt AS (SELECT day, sum(n) AS dn FROM c GROUP BY 1),
            tot AS (SELECT CAST(sum(n) AS DOUBLE) AS t FROM c),
            j AS (
                SELECT d.day, l.lang, coalesce(c.n, 0) AS o,
                       d.dn * l.ln / t.t AS e
                FROM dt d CROSS JOIN lt l CROSS JOIN tot t
                LEFT JOIN c ON c.day = d.day AND c.lang = l.lang
            )
            SELECT day, CAST(sum(o) AS BIGINT) AS n,
                   round(sum((o - e) * (o - e) / e), 4) AS chi2
            FROM j GROUP BY 1
        """,
        "dd_exact": """
            SELECT md5(text) AS fp, min(doc_id) AS keeper_id,
                   count(*) AS n_rows
            FROM documents GROUP BY 1
        """,
        "dd_first_wins": """
            SELECT lang, source, min(doc_id) AS keeper_id,
                   count(*) AS group_size
            FROM documents GROUP BY 1, 2
        """,
        "dd_shingle_jaccard": f"""
            WITH arrs AS (SELECT doc_id, {_TOKS} AS arr FROM documents),
            sh AS (SELECT DISTINCT doc_id, arr[i] || ' ' || arr[i+1] AS shingle
                   FROM arrs, unnest(generate_series(1, len(arr) - 1)) AS t(i)),
            sizes AS (SELECT doc_id, count(*) AS sz FROM sh GROUP BY 1),
            inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                             count(*) AS inter
                      FROM sh a JOIN sh b
                        ON a.shingle = b.shingle AND a.doc_id < b.doc_id
                      GROUP BY 1, 2)
            SELECT id_a, id_b,
                   round(inter * 1.0 / (sa.sz + sb.sz - inter), 6) AS jaccard
            FROM inter
            JOIN sizes sa ON sa.doc_id = id_a
            JOIN sizes sb ON sb.doc_id = id_b
            WHERE inter * 1.0 / (sa.sz + sb.sz - inter) >= {q.JACCARD_THRESHOLD}
        """,
        "dd_embed_cosine": f"""
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 6) AS cosine
            FROM embeddings a
            JOIN embeddings b ON a.label = b.label AND a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[]))
                  >= {q.COSINE_THRESHOLD}
        """,
        "s_ann_topk": """
            WITH q AS (SELECT vec_id AS query_id,
                              CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings
                       WHERE vec_id IN (SELECT vec_id FROM embeddings
                                        ORDER BY vec_id LIMIT 10)),
            s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                         list_cosine_similarity(q.qe,
                             CAST(e.embedding AS DOUBLE[])) AS cos
                  FROM q, embeddings e WHERE e.vec_id <> q.query_id)
            SELECT query_id, neighbor_id, rank
            FROM (SELECT query_id, neighbor_id,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY cos DESC, neighbor_id) AS rank
                  FROM s) t
            WHERE rank <= 5
        """,
        "s_knn_classify": """
            WITH q AS (SELECT vec_id AS query_id,
                              CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings
                       WHERE vec_id IN (SELECT vec_id FROM embeddings
                                        ORDER BY vec_id LIMIT 10)),
            s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                         CAST(e.label AS BIGINT) AS nlabel,
                         list_cosine_similarity(q.qe,
                             CAST(e.embedding AS DOUBLE[])) AS cos
                  FROM q, embeddings e WHERE e.vec_id <> q.query_id),
            topk AS (
                SELECT query_id, nlabel
                FROM (SELECT query_id, nlabel,
                             row_number() OVER (PARTITION BY query_id
                                 ORDER BY cos DESC, neighbor_id) AS rk
                      FROM s) t
                WHERE rk <= 5),
            votes AS (
                SELECT query_id, nlabel, count(*) AS c
                FROM topk GROUP BY 1, 2),
            mx AS (SELECT query_id, max(c) AS mc FROM votes GROUP BY 1)
            SELECT v.query_id,
                   CAST(min(v.nlabel) AS BIGINT) AS pred_label,
                   CAST(max(v.c) AS BIGINT) AS n_votes
            FROM votes v JOIN mx ON mx.query_id = v.query_id
                              AND v.c = mx.mc
            GROUP BY v.query_id
        """,
        "s_radius_search": """
            WITH q AS (SELECT vec_id AS query_id,
                              CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings
                       WHERE vec_id IN (SELECT vec_id FROM embeddings
                                        ORDER BY vec_id LIMIT 10))
            SELECT q.query_id, e.vec_id AS neighbor_id,
                   round(list_cosine_similarity(q.qe,
                         CAST(e.embedding AS DOUBLE[])), 9) AS cos
            FROM q, embeddings e
            WHERE e.vec_id <> q.query_id
              AND list_cosine_similarity(q.qe,
                  CAST(e.embedding AS DOUBLE[])) >= 0.35
        """,
        # filtered search: same exact top-k, restricted to the query's label
        "s_ann_filtered": """
            WITH q AS (SELECT vec_id AS query_id, label AS qlabel,
                              CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings
                       WHERE vec_id IN (SELECT vec_id FROM embeddings
                                        ORDER BY vec_id LIMIT 10)),
            s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                         list_cosine_similarity(q.qe,
                             CAST(e.embedding AS DOUBLE[])) AS cos
                  FROM q, embeddings e
                  WHERE e.vec_id <> q.query_id AND e.label = q.qlabel)
            SELECT query_id, neighbor_id, rank
            FROM (SELECT query_id, neighbor_id,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY cos DESC, neighbor_id) AS rank
                  FROM s) t
            WHERE rank <= 5
        """,
        # PQ-shortlist + exact rerank recovers exact top-k at recall 1
        # (deterministic seeded codebooks on the fixed fixture) — same
        # exact top-k SQL as s_ann_topk
        "s_ann_refine": """
            WITH q AS (SELECT vec_id AS query_id,
                              CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings
                       WHERE vec_id IN (SELECT vec_id FROM embeddings
                                        ORDER BY vec_id LIMIT 10)),
            s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                         list_cosine_similarity(q.qe,
                             CAST(e.embedding AS DOUBLE[])) AS cos
                  FROM q, embeddings e WHERE e.vec_id <> q.query_id)
            SELECT query_id, neighbor_id, rank
            FROM (SELECT query_id, neighbor_id,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY cos DESC, neighbor_id) AS rank
                  FROM s) t
            WHERE rank <= 5
        """,
        # exhaustive-probe IVF (nprobe == n_cells) is exactly brute force,
        # so the oracle is the same exact top-k SQL as s_ann_topk
        "s_ann_ivf": """
            WITH q AS (SELECT vec_id AS query_id,
                              CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings
                       WHERE vec_id IN (SELECT vec_id FROM embeddings
                                        ORDER BY vec_id LIMIT 10)),
            s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                         list_cosine_similarity(q.qe,
                             CAST(e.embedding AS DOUBLE[])) AS cos
                  FROM q, embeddings e WHERE e.vec_id <> q.query_id)
            SELECT query_id, neighbor_id, rank
            FROM (SELECT query_id, neighbor_id,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY cos DESC, neighbor_id) AS rank
                  FROM s) t
            WHERE rank <= 5
        """,
        "a_lang_fractions": """
            SELECT lang, count(*) AS n,
                   round(count(*) * 1.0 /
                         (SELECT count(*) FROM documents), 6) AS fraction
            FROM documents GROUP BY lang
        """,
        "a_median_nchars": """
            SELECT lang, round(median(n_chars), 2) AS median_nchars
            FROM documents GROUP BY lang
        """,
        "m_normalize_text": """
            SELECT doc_id,
                   lower(trim(regexp_replace(text, '\\s+', ' ', 'g')))
                       AS norm_text
            FROM documents
        """,
        "m_nfc_normalize": """
            WITH dec AS (
                SELECT doc_id, replace(text, 'a', 'a' || chr(769)) AS d
                FROM documents)
            SELECT doc_id,
                   nfc_normalize(d) AS text_nfc,
                   length(d) AS len_decomposed,
                   length(nfc_normalize(d)) AS len_nfc
            FROM dec
        """,
        "j_best_match_lineitem": """
            SELECT l_orderkey, l_linenumber, l_extendedprice
            FROM (SELECT l_orderkey, l_linenumber, l_extendedprice,
                         row_number() OVER (PARTITION BY l_orderkey
                             ORDER BY l_extendedprice DESC, l_linenumber ASC)
                             AS rn
                  FROM lineitem) t
            WHERE rn = 1
        """,
        "m_lang_remap": """
            SELECT doc_id,
                   CASE lang WHEN 'en' THEN 'eng' WHEN 'de' THEN 'deu'
                             WHEN 'fr' THEN 'fra' WHEN 'es' THEN 'spa'
                             WHEN 'zh' THEN 'zho' ELSE lang END AS lang_new
            FROM documents
        """,
        "o_inverse_edges": """
            SELECT DISTINCT a, b FROM (
                SELECT lang AS a, source AS b FROM documents
                UNION ALL
                SELECT source AS a, lang AS b FROM documents)
        """,
        "v_rules_demo": f"""
            SELECT 'r_lang_vocab' AS check_id, doc_id,
                   'lang_not_in_vocab' AS detail
            FROM documents WHERE lang NOT IN ({_ISO_SQL})
            UNION ALL
            SELECT 'r_text_nonnull', doc_id, 'text null/empty'
            FROM documents WHERE text IS NULL OR length(text) = 0
            UNION ALL
            SELECT 'r_nchars_range', doc_id, 'n_chars outside [100, 100000)'
            FROM documents
            WHERE n_chars IS NULL OR n_chars < 100 OR n_chars >= 100000
            UNION ALL
            SELECT 'r_source_format', doc_id, 'source !~ src[0-9]+'
            FROM documents
            WHERE source IS NULL OR NOT regexp_full_match(source, 'src[0-9]+')
            UNION ALL
            SELECT 'r_nchars_consistent', doc_id, 'n_chars != length(text)'
            FROM documents WHERE n_chars <> coalesce(length(text), -1)
        """,
        "j_range_quantity_bands": """
            SELECT b.band, count(*) AS n,
                   round(sum(l_extendedprice), 2) AS sum_price
            FROM lineitem l
            JOIN (VALUES (0.0, 10.0, 'tiny'), (10.0, 20.0, 'small'),
                         (20.0, 35.0, 'medium'), (35.0, 51.0, 'large'))
                 b(lo, hi, band)
              ON l.l_quantity >= b.lo AND l.l_quantity < b.hi
            GROUP BY 1
        """,
        "j_bucketed_orders": """
            SELECT c_nationkey, count(*) AS n_orders,
                   round(sum(o_totalprice), 2) AS sum_price
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY 1
        """,
        "e_asof_last_order": """
            SELECT e.event_id, e.user_id, o.o_totalprice AS last_totalprice
            FROM events e LEFT JOIN LATERAL (
                SELECT o_totalprice FROM orders
                WHERE o_custkey = e.user_id AND o_orderdate <= e.ts
                ORDER BY o_orderdate DESC, o_orderkey DESC LIMIT 1) o ON true
        """,
        "dd_clusters": f"""
            WITH RECURSIVE
            arrs AS (SELECT doc_id, {_TOKS} AS arr FROM documents),
            sh AS (SELECT DISTINCT doc_id, arr[i] || ' ' || arr[i+1] AS shingle
                   FROM arrs, unnest(generate_series(1, len(arr) - 1)) AS t(i)),
            sizes AS (SELECT doc_id, count(*) AS sz FROM sh GROUP BY 1),
            inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                             count(*) AS inter
                      FROM sh a JOIN sh b
                        ON a.shingle = b.shingle AND a.doc_id < b.doc_id
                      GROUP BY 1, 2),
            pairs AS (SELECT id_a, id_b FROM inter
                      JOIN sizes sa ON sa.doc_id = id_a
                      JOIN sizes sb ON sb.doc_id = id_b
                      WHERE inter * 1.0 / (sa.sz + sb.sz - inter)
                            >= {q.JACCARD_THRESHOLD}),
            edges AS (SELECT id_a AS a, id_b AS b FROM pairs
                      UNION SELECT id_b, id_a FROM pairs),
            reach AS (SELECT a AS src, b AS dst FROM edges
                      UNION
                      SELECT r.src, e.b FROM reach r JOIN edges e ON r.dst = e.a)
            SELECT src AS node, least(src, min(dst)) AS cluster
            FROM reach GROUP BY src
        """,
        "dd_bloom_incremental": """
            SELECT e.event_id, e.user_id FROM events e
            WHERE e.ts >= TIMESTAMP '2024-01-20' AND EXISTS (
                SELECT 1 FROM events c
                WHERE c.ts < TIMESTAMP '2024-01-20'
                  AND c.user_id = e.user_id)
        """,
        "m_geo_wkt": """
            SELECT c_custkey,
                   'POINT(' || CAST(c_custkey % 360 - 180 AS VARCHAR) || ' '
                            || CAST(c_custkey % 180 - 90 AS VARCHAR) || ')'
                       AS wkt
            FROM customer
        """,
        "o_limit_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_orderkey ASC LIMIT 100
        """,
        # the mm_* oracles read the deterministic pages fixture the Ray side
        # uses (driver correctness scale sf0.01); the SQL re-implements the
        # magic-byte sniff / fake-decode arithmetic independently. The
        # fixture payloads are valid UTF-8, so the sniff's binary magics
        # reduce to the ASCII html prefixes here.
        "mm_payload_meta": f"""
            SELECT CASE WHEN html IS NULL THEN 'none/missing'
                        WHEN starts_with(decode(html), '<html')
                             OR starts_with(decode(html), '<!doc')
                             OR starts_with(decode(html), '<!DOC')
                            THEN 'text/html'
                        ELSE 'application/octet-stream' END AS kind,
                   CAST(sum(coalesce(octet_length(html), 0)) AS BIGINT)
                       AS total_bytes,
                   count(*) AS n
            FROM read_parquet('{_pages_fixture_glob()}')
            GROUP BY 1
        """,
        "mm_decode_feats": f"""
            SELECT url,
                   CASE WHEN starts_with(decode(html), '<html')
                             OR starts_with(decode(html), '<!doc')
                             OR starts_with(decode(html), '<!DOC')
                            THEN 'text/html'
                        ELSE 'application/octet-stream' END AS kind,
                   CAST(greatest(floor(sqrt(octet_length(html))), 1)
                        AS INTEGER) AS width,
                   CAST(greatest(floor(sqrt(octet_length(html))), 1)
                        AS INTEGER) AS height,
                   CAST(1 AS INTEGER) AS n_channels
            FROM read_parquet('{_pages_fixture_glob()}')
            WHERE html IS NOT NULL
        """,
        # same RE2 patterns and application order as functions/redact.py —
        # each count runs on the PREVIOUS replacement's output
        "pages_redact": f"""
            WITH s AS (
                SELECT url, decode(html) AS h0
                FROM read_parquet('{_pages_fixture_glob()}')
            ), r1 AS (
                SELECT url,
                       len(regexp_extract_all(
                           h0, 'https?://[^"<\\s]+')) AS n_urls,
                       regexp_replace(h0, 'https?://[^"<\\s]+',
                                      '<URL>', 'g') AS h1
                FROM s
            ), r2 AS (
                SELECT url, n_urls,
                       len(regexp_extract_all(h1,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}'
                           )) AS n_emails,
                       regexp_replace(h1,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{{2,}}',
                           '<EMAIL>', 'g') AS h2
                FROM r1
            )
            SELECT url,
                   CAST(n_urls AS BIGINT) AS n_urls,
                   CAST(n_emails AS BIGINT) AS n_emails,
                   CAST(len(regexp_extract_all(h2,
                       '\\b(?:\\d{{1,3}}\\.){{3}}\\d{{1,3}}\\b'))
                       AS BIGINT) AS n_ips,
                   md5(regexp_replace(h2,
                       '\\b(?:\\d{{1,3}}\\.){{3}}\\d{{1,3}}\\b',
                       '<IP>', 'g')) AS redacted_md5
            FROM r2
        """,
        "m_parse_props": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT))
                        AS BIGINT) AS sum_k,
                   count(*) AS n
            FROM events GROUP BY 1
        """,
        "e_lag_diff": """
            SELECT event_id, user_id,
                   datediff('microsecond',
                            lag(ts) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id),
                            ts) AS gap_us
            FROM events
        """,
        "a_distinct_users_per_type": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY 1
        """,
        "pages_host_counts": f"""
            SELECT regexp_extract(url, '^https://([^/]+)/', 1) AS host,
                   count(*) AS n_pages
            FROM read_parquet('{_pages_fixture_glob()}')
            GROUP BY 1
        """,
        # host edges over the same regex link extraction as pages_links
        # (self-host edges dropped; n_pages = distinct linking pages)
        "g_host_graph": f"""
            WITH docs AS (
                SELECT url AS src_url, decode(html) AS h
                FROM read_parquet('{_pages_fixture_glob()}')
                WHERE html IS NOT NULL
            ), m AS (
                SELECT src_url,
                       regexp_extract_all(h,
                           '<a\\b[^>]*\\bhref\\s*=\\s*["'']([^"'']*)["''][^>]*>(.*?)</a\\s*>',
                           1, 'is') AS hrefs
                FROM docs
            ), links AS (
                SELECT src_url, hrefs[i] AS dst_url
                FROM m, unnest(generate_series(1, len(hrefs))) AS t(i)
            ), he AS (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1)
                           AS src_host,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1)
                           AS dst_host,
                       src_url
                FROM links
            )
            SELECT src_host, dst_host,
                   CAST(count(*) AS BIGINT) AS n_links,
                   CAST(count(DISTINCT src_url) AS BIGINT) AS n_pages
            FROM he WHERE src_host <> dst_host
            GROUP BY src_host, dst_host
        """,
        "pages_fetch_gaps": f"""
            WITH p AS (
                SELECT regexp_extract(url, '^https://([^/]+)/', 1) AS host,
                       epoch_us(warc_ts) AS tus
                FROM read_parquet('{_pages_fixture_glob()}')
            ),
            g AS (
                SELECT host,
                       tus - lag(tus) OVER (PARTITION BY host
                                            ORDER BY tus) AS gap
                FROM p
            )
            SELECT host, CAST(count(*) AS BIGINT) AS n_fetches,
                   CAST(count(gap) AS BIGINT) AS n_gaps,
                   min(gap) AS min_gap_us, sum(gap) AS sum_gap_us
            FROM g GROUP BY host
        """,
        # RFC-9309 longest-match over the rules parquet the robots fixture
        # wrote (the engine parses the raw robots.txt bytes instead — a
        # match proves the parser). max(2*len+allow) odd ⇒ allowed; the +1
        # encodes Allow-wins-ties.
        "pages_robots": f"""
            WITH p AS (
                SELECT url, lang,
                       regexp_extract(url, '^https://([^/]+)(/.*)$', 1)
                           AS host,
                       regexp_extract(url, '^https://([^/]+)(/.*)$', 2)
                           AS path
                FROM read_parquet('{_pages_fixture_glob()}')
            ),
            m AS (
                SELECT p.url,
                       max(2 * length(r.rule_path)
                           + CAST(r.allow AS INT)) AS s
                FROM p JOIN read_parquet('{_robots_rules_path()}') r
                  ON p.host = r.host AND starts_with(p.path, r.rule_path)
                GROUP BY p.url
            )
            SELECT p.url, p.lang FROM p LEFT JOIN m ON p.url = m.url
            WHERE m.s IS NULL OR m.s % 2 = 1
        """,
        # blocklist literals mirror queries.BLOCK_HOSTS / BLOCK_DOMAINS
        "pages_blocklist": f"""
            WITH p AS (
                SELECT url, lang,
                       regexp_extract(url, '^https://([^/]+)/', 1) AS host
                FROM read_parquet('{_pages_fixture_glob()}')
            )
            SELECT url, lang FROM p
            WHERE host NOT IN ('h0007.example-0.org',
                               'h0012.example-5.org',
                               'h0500.example-3.org')
              AND regexp_extract(host, '([^.]+\\.[^.]+)$', 1)
                  NOT IN ('example-3.org', 'example-6.org')
        """,
        # same href/anchor regex as functions/extract.py:_A_RE (RE2 'is'
        # flags ≙ re.I | re.S); anchor cleanup mirrors _TAG/_WS subs.
        # Verified char-identical to the Python extractor on the fixture.
        "pages_links": f"""
            WITH docs AS (
                SELECT url AS src_url, decode(html) AS h
                FROM read_parquet('{_pages_fixture_glob()}')
                WHERE html IS NOT NULL
            ), m AS (
                SELECT src_url,
                       regexp_extract_all(h,
                           '<a\\b[^>]*\\bhref\\s*=\\s*["'']([^"'']*)["''][^>]*>(.*?)</a\\s*>',
                           1, 'is') AS hrefs,
                       regexp_extract_all(h,
                           '<a\\b[^>]*\\bhref\\s*=\\s*["'']([^"'']*)["''][^>]*>(.*?)</a\\s*>',
                           2, 'is') AS anchors
                FROM docs
            )
            SELECT src_url, CAST(i - 1 AS INTEGER) AS ordinal,
                   hrefs[i] AS dst_url,
                   trim(regexp_replace(regexp_replace(anchors[i],
                        '<[^>]*>', ' ', 'g'), '\\s+', ' ', 'g')) AS anchor
            FROM m, unnest(generate_series(1, len(hrefs))) AS t(i)
        """,
        # aggregates over the same regex link extraction as the
        # pages_links oracle (NOT the generator's links.parquet — that
        # table also lists links of pages whose html the fixture nulls)
        "pages_anchor_text": f"""
            WITH docs AS (
                SELECT url AS src_url, decode(html) AS h
                FROM read_parquet('{_pages_fixture_glob()}')
                WHERE html IS NOT NULL
            ), m AS (
                SELECT src_url,
                       regexp_extract_all(h,
                           '<a\\b[^>]*\\bhref\\s*=\\s*["'']([^"'']*)["''][^>]*>(.*?)</a\\s*>',
                           1, 'is') AS hrefs,
                       regexp_extract_all(h,
                           '<a\\b[^>]*\\bhref\\s*=\\s*["'']([^"'']*)["''][^>]*>(.*?)</a\\s*>',
                           2, 'is') AS anchors
                FROM docs
            ), links AS (
                SELECT src_url, hrefs[i] AS dst_url,
                       trim(regexp_replace(regexp_replace(anchors[i],
                            '<[^>]*>', ' ', 'g'), '\\s+', ' ', 'g')) AS anchor
                FROM m, unnest(generate_series(1, len(hrefs))) AS t(i)
            )
            SELECT dst_url,
                   count(*) AS n_inlinks,
                   count(DISTINCT src_url) AS n_src,
                   string_agg(DISTINCT anchor, ' | ' ORDER BY anchor)
                       AS anchors
            FROM links
            GROUP BY dst_url
        """,
        # exact anti-join oracle for the C7 exchange_join left_anti
        "pages_dangling_links": f"""
            SELECT l.src_url, l.ordinal, l.dst_url, l.anchor
            FROM read_parquet('{_pages_links_path()}') l
            WHERE NOT EXISTS (
                SELECT 1 FROM read_parquet('{_pages_fixture_glob()}') p
                WHERE p.url = l.dst_url)
        """,
        # replicates functions/urls.py:normalize_url step by step (lowercase
        # scheme+host, strip the scheme's default port, drop fragment) before
        # the per-host count; fixture urls are all well-formed https
        "pages_url_canon": f"""
            WITH c AS (
                SELECT lower(regexp_extract(trim(url),
                           '^(https?)://([^/?#]*)', 2)) AS host0,
                       lower(regexp_extract(trim(url),
                           '^(https?)://([^/?#]*)', 1)) AS scheme
                FROM read_parquet('{_pages_fixture_glob()}')
            )
            SELECT CASE WHEN scheme = 'http'
                        THEN regexp_replace(host0, ':80$', '')
                        ELSE regexp_replace(host0, ':443$', '') END AS host,
                   count(*) AS n_pages
            FROM c
            GROUP BY 1
        """,
        "o_topk_per_cust": """
            SELECT o_custkey, o_orderkey, o_totalprice
            FROM (SELECT o_custkey, o_orderkey, o_totalprice,
                         row_number() OVER (PARTITION BY o_custkey
                             ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
                  FROM orders) t
            WHERE rn <= 3
        """,
        "e_rolling_avg": """
            SELECT event_id, user_id,
                   round(avg(value) OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6)
                       AS rolling_avg
            FROM events
        """,
        "a_pivot_lang_source": """
            SELECT lang,
                   CAST(sum(CASE WHEN CAST(regexp_extract(source,
                        'src([0-9]+)', 1) AS BIGINT) % 3 = 0
                        THEN 1 ELSE 0 END) AS BIGINT) AS src_bucket0,
                   CAST(sum(CASE WHEN CAST(regexp_extract(source,
                        'src([0-9]+)', 1) AS BIGINT) % 3 = 1
                        THEN 1 ELSE 0 END) AS BIGINT) AS src_bucket1,
                   CAST(sum(CASE WHEN CAST(regexp_extract(source,
                        'src([0-9]+)', 1) AS BIGINT) % 3 = 2
                        THEN 1 ELSE 0 END) AS BIGINT) AS src_bucket2
            FROM documents GROUP BY lang
        """,
        "mm_frame_sample": f"""
            SELECT url, CAST((i - 1) * 10 AS INTEGER) AS frame_idx,
                   CAST((i - 1) * 10 * 1024 AS BIGINT) AS byte_offset
            FROM (SELECT url,
                         greatest(CAST(floor(octet_length(html) / 1024)
                                       AS BIGINT), 1) AS nf
                  FROM read_parquet('{_pages_fixture_glob()}')
                  WHERE html IS NOT NULL),
                 unnest(generate_series(1, CAST(ceil(nf / 10.0) AS BIGINT)))
                     AS t(i)
        """,
        "t_tfidf_top": """
            WITH tok AS (
                SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+'))
                       AS token
                FROM documents),
            tf AS (SELECT doc_id, token, count(*) AS tf
                   FROM tok GROUP BY 1, 2),
            df AS (SELECT token, count(*) AS df FROM tf GROUP BY 1),
            n AS (SELECT count(*) AS n_docs FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.token,
                       tf.tf * ln(CAST(n.n_docs AS DOUBLE) / df.df) AS score
                FROM tf JOIN df USING (token) CROSS JOIN n)
            SELECT doc_id, token, round(score, 6) AS score
            FROM (SELECT doc_id, token, score,
                         row_number() OVER (PARTITION BY doc_id
                             ORDER BY score DESC, token ASC) AS rn
                  FROM scored) t
            WHERE rn <= 3
        """,
        "a_mode_lang_per_source": """
            SELECT source, lang, n
            FROM (SELECT source, lang, count(*) AS n,
                         row_number() OVER (PARTITION BY source
                             ORDER BY count(*) DESC, lang ASC) AS rn
                  FROM documents GROUP BY source, lang) t
            WHERE rn = 1
        """,
        "a_price_stats_by_priority": """
            SELECT o_orderpriority, count(*) AS n_orders,
                   round(avg(o_totalprice), 2) AS avg_price,
                   round(stddev_samp(o_totalprice), 2) AS std_price
            FROM orders GROUP BY 1
        """,
        "o_hash_sample": """
            SELECT o_orderkey, o_totalprice FROM orders
            WHERE (o_orderkey * 2654435761) % 1000 < 50
        """,
        "m_unpivot_lineitem": """
            SELECT l_orderkey, l_linenumber, 'discount' AS measure,
                   l_discount AS value FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'tax' AS measure,
                   l_tax AS value FROM lineitem
        """,
        "j_upsert_cdc": """
            WITH ch AS (
                SELECT user_id AS c_custkey,
                       CASE WHEN event_type = 'error' THEN 'D'
                            ELSE 'U' END AS op,
                       round(value, 2) AS new_bal,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) AS rn
                FROM events),
            latest AS (SELECT * FROM ch WHERE rn = 1)
            SELECT c.c_custkey, c.c_acctbal, 'kept' AS src
            FROM customer c LEFT JOIN latest l USING (c_custkey)
            WHERE l.op IS NULL
            UNION ALL
            SELECT l.c_custkey, l.new_bal AS c_acctbal,
                   CASE WHEN c.c_custkey IS NULL THEN 'inserted'
                        ELSE 'updated' END AS src
            FROM latest l LEFT JOIN customer c USING (c_custkey)
            WHERE l.op = 'U'
        """,
        "j_full_outer_activity": """
            SELECT COALESCE(o.o_custkey, e.user_id) AS ckey,
                   COALESCE(o.n_orders, 0) AS n_orders,
                   COALESCE(e.n_events, 0) AS n_events
            FROM (SELECT o_custkey, count(*) AS n_orders
                  FROM orders GROUP BY 1) o
            FULL OUTER JOIN
                 (SELECT user_id, count(*) AS n_events
                  FROM events GROUP BY 1) e
            ON o.o_custkey = e.user_id
        """,
        "e_first_last_per_user": """
            SELECT user_id, min(ts) AS first_ts, max(ts) AS last_ts,
                   count(*) AS n_events
            FROM events GROUP BY 1
        """,
        "q6_revenue_delta": """
            SELECT round(sum(l_extendedprice * l_discount), 2) AS revenue
            FROM lineitem
            WHERE l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "e_cum_daily": """
            SELECT day, n, CAST(sum(n) OVER (ORDER BY day) AS BIGINT) AS cum_n
            FROM (SELECT date_trunc('day', ts) AS day, count(*) AS n
                  FROM events GROUP BY 1) t
        """,
        "a_rollup_cust": """
            SELECT r_name, n_name, count(*) AS n_cust
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY ROLLUP (r_name, n_name)
        """,
        "t_repetition": f"""
            WITH tok AS (SELECT doc_id, {_TOKS} AS arr FROM documents),
            grams AS (
                SELECT doc_id, arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]
                       || ' ' || arr[i+3] || ' ' || arr[i+4] AS g
                FROM tok,
                     unnest(generate_series(1, greatest(len(arr) - 4, 0)))
                         AS t(i)),
            agg AS (SELECT doc_id, count(*) AS n_grams,
                           count(DISTINCT g) AS n_distinct
                    FROM grams GROUP BY 1)
            SELECT t.doc_id, COALESCE(n_grams, 0) AS n_grams,
                   round(CASE WHEN n_grams > 0
                         THEN 1.0 - CAST(n_distinct AS DOUBLE) / n_grams
                         ELSE 0 END, 6) AS dup_frac
            FROM tok t LEFT JOIN agg USING (doc_id)
        """,
        "td_split": """
            SELECT CASE WHEN (doc_id * 2654435761) % 1000 < 800 THEN 'train'
                        WHEN (doc_id * 2654435761) % 1000 < 900 THEN 'val'
                        ELSE 'test' END AS split,
                   count(*) AS n_docs
            FROM documents GROUP BY 1
        """,
        "g_pagerank": _pagerank_sql(),
        "g_pagerank_weighted": _pagerank_weighted_sql(),
        "g_ppr_seeds": _ppr_sql(),
        "g_random_walks": _walks_sql(),
        "dd_recrawl_chunk_savings": f"""
            WITH src AS (
                SELECT text FROM read_parquet('{_recrawl_fixture_glob()}')
                WHERE text IS NOT NULL),
            b AS (
                SELECT row_number() OVER () AS k, text,
                       length(text) AS L
                FROM src WHERE length(text) > 0),
            g AS MATERIALIZED (
                SELECT k, L, t.i,
                       (ascii(substr(text, t.i, 1)) * 2654435761
                        + 2654435769) % 4294967296 AS gv
                FROM b, unnest(generate_series(1, L)) AS t(i)),
            w AS (
                SELECT k, L, i,
                       CASE WHEN i >= 6 THEN
                           (gv
                            + 2 * lag(gv, 1) OVER w2
                            + 4 * lag(gv, 2) OVER w2
                            + 8 * lag(gv, 3) OVER w2
                            + 16 * lag(gv, 4) OVER w2
                            + 32 * lag(gv, 5) OVER w2) % 64
                       END AS wv
                FROM g
                WINDOW w2 AS (PARTITION BY k ORDER BY i)),
            bounds AS (
                SELECT DISTINCT k, e FROM (
                    SELECT k, 0 AS e FROM b
                    UNION ALL
                    SELECT k, i FROM w WHERE wv = 0 AND i < L
                    UNION ALL
                    SELECT k, L FROM b)),
            ch AS (
                SELECT k, e,
                       lag(e) OVER (PARTITION BY k ORDER BY e) AS pe
                FROM bounds),
            chunks AS (
                SELECT substr(b.text, c.pe + 1, c.e - c.pe) AS chunk
                FROM ch c JOIN b USING (k) WHERE c.pe IS NOT NULL),
            u AS (
                SELECT CAST(('0x' || substr(md5(chunk), 1, 8)) AS BIGINT)
                           AS h,
                       min(length(chunk)) AS l
                FROM chunks GROUP BY 1)
            SELECT CAST((SELECT count(*) FROM src) AS BIGINT)
                       AS n_captures,
                   CAST((SELECT COALESCE(sum(length(text)), 0) FROM src)
                        AS BIGINT) AS total_bytes,
                   CAST((SELECT COALESCE(sum(l), 0) FROM u) AS BIGINT)
                       AS unique_chunk_bytes,
                   round(1.0 - (SELECT COALESCE(sum(l), 0) FROM u) * 1.0
                         / (SELECT sum(length(text)) FROM src), 6)
                       AS savings_frac
        """,
        "v_join_fanout": """
            WITH f1 AS (SELECT count(*) AS n FROM orders
                        GROUP BY o_custkey),
            f2 AS (SELECT count(*) AS n FROM lineitem
                   GROUP BY l_orderkey),
            f3 AS (SELECT count(*) AS n FROM events GROUP BY user_id)
            SELECT 'orders_per_customer' AS relation,
                   CAST(count(*) AS BIGINT) AS n_parents,
                   CAST(max(n) AS BIGINT) AS max_fanout,
                   round(avg(n), 6) AS mean_fanout,
                   CAST(quantile_disc(n, 0.99) AS BIGINT) AS p99_fanout
            FROM f1
            UNION ALL
            SELECT 'lineitem_per_order', CAST(count(*) AS BIGINT),
                   CAST(max(n) AS BIGINT), round(avg(n), 6),
                   CAST(quantile_disc(n, 0.99) AS BIGINT)
            FROM f2
            UNION ALL
            SELECT 'events_per_user', CAST(count(*) AS BIGINT),
                   CAST(max(n) AS BIGINT), round(avg(n), 6),
                   CAST(quantile_disc(n, 0.99) AS BIGINT)
            FROM f3
        """,
        "v_dow_anomaly": f"""
            WITH c AS (
                SELECT strftime(warc_ts, '%Y-%m-%d') AS day,
                       CAST(isodow(warc_ts) - 1 AS BIGINT) AS dow,
                       count(*) AS n
                FROM read_parquet('{_pages_fixture_glob()}')
                GROUP BY 1, 2),
            m AS (SELECT dow, median(n) AS md FROM c GROUP BY 1),
            r AS (
                SELECT c.day, c.dow, CAST(c.n AS BIGINT) AS n, m.md,
                       c.n * 1.0 / greatest(m.md, 1.0) AS resid
                FROM c JOIN m USING (dow)),
            g AS (SELECT median(resid) AS mr FROM r),
            g2 AS (
                SELECT g.mr,
                       (SELECT median(abs(r2.resid - g.mr)) FROM r r2)
                           AS mad
                FROM g)
            SELECT r.day, r.dow, r.n,
                   round(r.md, 6) AS dow_median,
                   round(r.resid, 6) AS residual,
                   abs(r.resid - g2.mr) > 3 * 1.4826 * g2.mad
                       AS is_anomaly
            FROM r, g2
        """,
        "v_completeness_daily": f"""
            SELECT strftime(warc_ts, '%Y-%m-%d') AS day,
                   count(*)::BIGINT AS n,
                   sum(CASE WHEN text IS NULL THEN 1 ELSE 0 END)::BIGINT
                       AS n_null_text,
                   sum(CASE WHEN html IS NULL THEN 1 ELSE 0 END)::BIGINT
                       AS n_null_html,
                   round(sum(CASE WHEN text IS NULL THEN 1 ELSE 0 END)
                         / (count(*) * 1.0), 6) AS null_text_frac,
                   round(sum(CASE WHEN html IS NULL THEN 1 ELSE 0 END)
                         / (count(*) * 1.0), 6) AS null_html_frac
            FROM read_parquet('{_pages_fixture_glob()}')
            GROUP BY 1
        """,
        "o_bottomk_sample": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY md5(o_orderkey::VARCHAR) LIMIT 100
        """,
        "a_theil_index": """
            WITH s AS (
                SELECT o_custkey,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT))
                           AS cents
                FROM orders GROUP BY 1),
            t AS (SELECT count(*) * 1.0 AS n, sum(cents * 1.0) AS sx,
                         sum(cents * ln(cents * 1.0)) AS sxl
                  FROM s)
            SELECT CAST(n AS BIGINT) AS n_customers,
                   round((sxl - sx * ln(sx / n)) / sx, 6) AS theil
            FROM t
        """,
        "v_benford": """
            WITH c AS (
                SELECT CAST(floor(o_totalprice
                            / pow(10, floor(log10(o_totalprice))))
                       AS BIGINT) AS digit, count(*) AS n
                FROM orders WHERE o_totalprice > 0 GROUP BY 1),
            g AS (SELECT range AS digit,
                         log10(1.0 + 1.0 / range) AS ep
                  FROM range(1, 10)),
            j AS (SELECT g.digit, CAST(coalesce(c.n, 0) AS BIGINT) AS n,
                         g.ep
                  FROM g LEFT JOIN c USING (digit)),
            t AS (SELECT CAST(sum(n) AS DOUBLE) AS nn FROM j),
            x AS (SELECT round(sum((j.n - t.nn * j.ep)
                                   * (j.n - t.nn * j.ep)
                                   / (t.nn * j.ep)), 4) AS chi2
                  FROM j, t)
            SELECT j.digit AS digit, j.n AS n,
                   round(j.n / t.nn, 6) AS obs_p,
                   round(j.ep, 6) AS exp_p,
                   x.chi2 AS chi2
            FROM j, t, x
        """,
        "v_cusum_shift": """
            WITH c AS (
                SELECT strftime(ts, '%Y-%m-%d') AS day, count(*) AS n
                FROM events GROUP BY 1),
            m AS (SELECT sum(n * 1.0) / count(*) AS mu FROM c),
            s AS (
                SELECT day, n,
                       sum(n * 1.0 - (SELECT mu FROM m)) OVER (
                           ORDER BY day
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM c),
            p AS (SELECT max(abs(cum)) AS peak FROM s)
            SELECT day, CAST(n AS BIGINT) AS n,
                   round(cum, 6) AS s,
                   abs(cum) = p.peak AS is_changepoint
            FROM s, p
        """,
        "v_table_fingerprint": """
            WITH o AS (
                SELECT CAST(('0x' || substr(md5(
                    coalesce(o_orderkey::VARCHAR, '') || '|'
                    || coalesce(o_custkey::VARCHAR, '') || '|'
                    || coalesce(o_orderstatus, '') || '|'
                    || coalesce(CAST(round(o_totalprice * 100) AS BIGINT)
                                ::VARCHAR, '') || '|'
                    || coalesce(epoch_us(o_orderdate)::VARCHAR, '') || '|'
                    || coalesce(o_orderpriority, '')), 1, 15)) AS BIGINT)
                    AS h
                FROM orders),
            e AS (
                SELECT CAST(('0x' || substr(md5(
                    coalesce(event_id::VARCHAR, '') || '|'
                    || coalesce(user_id::VARCHAR, '') || '|'
                    || coalesce(event_type, '') || '|'
                    || coalesce(epoch_us(ts)::VARCHAR, '') || '|'
                    || coalesce(CAST(round(value * 100) AS BIGINT)
                                ::VARCHAR, '')), 1, 15)) AS BIGINT) AS h
                FROM events)
            SELECT 'orders' AS tbl, count(*)::BIGINT AS n_rows,
                   CAST(sum(h) % 2305843009213693951 AS BIGINT)
                       AS fingerprint
            FROM o
            UNION ALL
            SELECT 'events', count(*)::BIGINT,
                   CAST(sum(h) % 2305843009213693951 AS BIGINT)
            FROM e
        """,
        "a_quantiles_exact": """
            WITH q AS (
                SELECT unnest([0.25, 0.5, 0.75, 0.95, 0.99]) AS q,
                       unnest(quantile_disc(l_extendedprice,
                              [0.25, 0.5, 0.75, 0.95, 0.99])) AS v
                FROM lineitem)
            SELECT q, round(v, 2) AS value FROM q
        """,
        "td_curriculum_pack": """
            WITH s AS (
                SELECT doc_id, n_chars,
                       length(text) - length(replace(text, ' ', '')) + 1
                           AS nt
                FROM documents WHERE text IS NOT NULL),
            r AS (
                SELECT doc_id, n_chars,
                       COALESCE(sum(nt) OVER (
                           ORDER BY n_chars, doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING), 0) AS tok_start
                FROM s)
            SELECT doc_id, n_chars,
                   CAST(tok_start AS BIGINT) AS tok_start,
                   CAST(tok_start // 512 AS BIGINT) AS bin
            FROM r
        """,
        "dd_cdc_chunks": """
            WITH b AS (
                SELECT doc_id, text, length(text) AS L
                FROM documents WHERE text IS NOT NULL AND length(text) > 0),
            g AS MATERIALIZED (
                SELECT doc_id, L, t.i,
                       (ascii(substr(text, t.i, 1)) * 2654435761
                        + 2654435769) % 4294967296 AS gv
                FROM b, unnest(generate_series(1, L)) AS t(i)),
            w AS (
                SELECT doc_id, L, i,
                       CASE WHEN i >= 6 THEN
                           (gv
                            + 2 * lag(gv, 1) OVER w2
                            + 4 * lag(gv, 2) OVER w2
                            + 8 * lag(gv, 3) OVER w2
                            + 16 * lag(gv, 4) OVER w2
                            + 32 * lag(gv, 5) OVER w2) % 64
                       END AS wv
                FROM g
                WINDOW w2 AS (PARTITION BY doc_id ORDER BY i)),
            bounds AS (
                SELECT DISTINCT doc_id, e FROM (
                    SELECT doc_id, 0 AS e FROM b
                    UNION ALL
                    SELECT doc_id, i FROM w WHERE wv = 0 AND i < L
                    UNION ALL
                    SELECT doc_id, L FROM b)),
            ch AS (
                SELECT doc_id, e,
                       lag(e) OVER (PARTITION BY doc_id ORDER BY e) AS pe
                FROM bounds),
            h AS MATERIALIZED (
                SELECT c.doc_id,
                       CAST(('0x' || substr(md5(
                           substr(b.text, c.pe + 1, c.e - c.pe)), 1, 8))
                           AS BIGINT) AS chash
                FROM ch c JOIN b USING (doc_id)
                WHERE c.pe IS NOT NULL),
            dc AS (
                SELECT chash, count(DISTINCT doc_id) AS nd
                FROM h GROUP BY 1)
            SELECT h.doc_id,
                   CAST(count(*) AS BIGINT) AS n_chunks,
                   CAST(sum(CASE WHEN dc.nd >= 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_dup_chunks,
                   round(sum(CASE WHEN dc.nd >= 2 THEN 1 ELSE 0 END)
                         * 1.0 / count(*), 9) AS dup_frac
            FROM h JOIN dc USING (chash)
            GROUP BY h.doc_id
        """,
        "t_winnow_fingerprints": f"""
            {_WINNOW_CTE}
            SELECT DISTINCT doc_id, CAST(pos AS BIGINT) AS pos, fp
            FROM sel
        """,
        "dd_winnow_pairs": f"""
            {_WINNOW_CTE},
            fpd AS (SELECT DISTINCT doc_id, fp FROM sel),
            df AS (SELECT fp, count(*) AS d FROM fpd GROUP BY 1),
            ok AS (SELECT fpd.doc_id, fpd.fp
                   FROM fpd JOIN df USING (fp)
                   WHERE df.d BETWEEN 2 AND 64)
            SELECT a.doc_id AS d1, b.doc_id AS d2,
                   CAST(count(*) AS BIGINT) AS shared
            FROM ok a JOIN ok b
                 ON a.fp = b.fp AND a.doc_id < b.doc_id
            GROUP BY 1, 2
            HAVING count(*) >= 3
        """,
        "t_sentence_stats": """
            WITH s AS (
                SELECT doc_id,
                       list_transform(
                           list_filter(
                               list_transform(
                                   regexp_split_to_array(text, '[.!?]+'),
                                   x -> trim(x, ' ' || chr(9) || chr(10)
                                             || chr(13))),
                               x -> x <> ''),
                           x -> length(x)) AS lens
                FROM documents WHERE text IS NOT NULL)
            SELECT doc_id,
                   CAST(len(lens) AS BIGINT) AS n_sentences,
                   CAST(COALESCE(list_sum(lens), 0) AS BIGINT)
                       AS sent_chars,
                   round(CASE WHEN len(lens) > 0
                         THEN COALESCE(list_sum(lens), 0) * 1.0 / len(lens)
                         ELSE 0.0 END, 9) AS avg_sent_len
            FROM s
        """,
        "v_dup_capture_window": f"""
            WITH c AS (
                SELECT url, capture_ts,
                       lag(capture_ts) OVER w AS prev_ts,
                       lag(text) OVER w AS prev_text,
                       text
                FROM read_parquet('{_recrawl_fixture_glob()}')
                WINDOW w AS (PARTITION BY url ORDER BY capture_ts))
            SELECT url, prev_ts, capture_ts,
                   CAST(date_diff('microsecond', prev_ts, capture_ts)
                        // 1000000 AS BIGINT) AS gap_s
            FROM c
            WHERE prev_ts IS NOT NULL
              AND date_diff('microsecond', prev_ts, capture_ts)
                  < CAST(86400 AS BIGINT) * 1000000
              AND text = prev_text
        """,
        "v_ks_drift": f"""
            WITH d AS (
                SELECT CAST(date_trunc('day', warc_ts) AS TIMESTAMP)
                           AS day,
                       CAST(length(text) AS BIGINT) AS len
                FROM read_parquet('{_pages_fixture_glob()}')
                WHERE text IS NOT NULL),
            g AS MATERIALIZED (
                SELECT day, len, count(*) AS n FROM d GROUP BY 1, 2),
            days AS (SELECT day, sum(n) AS nd FROM g GROUP BY 1),
            gl AS (SELECT len, sum(n) AS n FROM g GROUP BY 1),
            gcum AS (
                SELECT len, sum(n) OVER (ORDER BY len) AS cum,
                       (SELECT sum(n) FROM gl) AS tot
                FROM gl),
            grid AS (
                SELECT days.day, days.nd, gcum.len, gcum.cum, gcum.tot
                FROM days CROSS JOIN gcum),
            dcum AS (
                SELECT grid.day, grid.nd, grid.len, grid.cum, grid.tot,
                       sum(COALESCE(g.n, 0)) OVER (
                           PARTITION BY grid.day ORDER BY grid.len)
                           AS cumd
                FROM grid LEFT JOIN g
                     ON g.day = grid.day AND g.len = grid.len)
            SELECT day, CAST(max(nd) AS BIGINT) AS n_day,
                   round(max(abs(cumd * 1.0 / nd - cum * 1.0 / tot)), 9)
                       AS ks
            FROM dcum GROUP BY day
        """,
        "a_entropy_by_source": """
            WITH c AS (
                SELECT source, lang, count(*) AS n
                FROM documents GROUP BY 1, 2),
            t AS (SELECT source, sum(n) AS tot FROM c GROUP BY 1)
            SELECT c.source,
                   CAST(t.tot AS BIGINT) AS n_docs,
                   CAST(count(*) AS BIGINT) AS n_langs,
                   round(sum(-(n * 1.0 / tot) * log2(n * 1.0 / tot)), 9)
                       AS entropy
            FROM c JOIN t USING (source)
            GROUP BY c.source, t.tot
        """,
        "a_gini_spend": """
            WITH s AS (
                SELECT o_custkey,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT))
                           AS cents
                FROM orders GROUP BY 1),
            r AS (
                SELECT cents,
                       row_number() OVER (ORDER BY cents) AS i,
                       count(*) OVER () AS n,
                       sum(cents) OVER () AS tot
                FROM s)
            SELECT CAST(max(n) AS BIGINT) AS n_customers,
                   round(sum((2.0 * i - n - 1) * cents)
                         / (max(n) * 1.0 * max(tot)), 9) AS gini
            FROM r
        """,
        "g_clustering_coeff": f"""
            WITH h AS (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS h1,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1) AS h2
                FROM read_parquet('{_pages_links_path()}')),
            e AS MATERIALIZED (
                SELECT DISTINCT least(h1, h2) AS a, greatest(h1, h2) AS b
                FROM h WHERE h1 <> h2 AND h1 <> '' AND h2 <> ''),
            deg AS (
                SELECT node, CAST(count(*) AS BIGINT) AS deg
                FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e)
                GROUP BY 1),
            tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM e e1
                JOIN e e2 ON e2.a = e1.b
                JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
            tn AS (
                SELECT node, CAST(count(*) AS BIGINT) AS n_tri
                FROM (SELECT x AS node FROM tri
                      UNION ALL SELECT y FROM tri
                      UNION ALL SELECT z FROM tri)
                GROUP BY 1)
            SELECT d.node, d.deg,
                   COALESCE(t.n_tri, 0) AS n_tri,
                   round(CASE WHEN d.deg > 1
                         THEN 2.0 * COALESCE(t.n_tri, 0)
                              / (d.deg * (d.deg - 1))
                         ELSE 0.0 END, 9) AS clustering
            FROM deg d LEFT JOIN tn t USING (node)
        """,
        "g_link_prediction": f"""
            WITH h AS (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS h1,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1) AS h2
                FROM read_parquet('{_pages_links_path()}')),
            e AS MATERIALIZED (
                SELECT DISTINCT least(h1, h2) AS a, greatest(h1, h2) AS b
                FROM h WHERE h1 <> h2 AND h1 <> '' AND h2 <> ''),
            deg AS (
                SELECT node, CAST(count(*) AS BIGINT) AS deg
                FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e)
                GROUP BY 1),
            nbr AS (SELECT a AS mid, b AS nbr FROM e
                    UNION ALL SELECT b, a FROM e),
            cap AS MATERIALIZED (
                SELECT n.mid, n.nbr, d.deg
                FROM nbr n JOIN deg d ON d.node = n.mid
                WHERE d.deg <= 1024),
            sc AS (
                SELECT c1.nbr AS v, c2.nbr AS w,
                       CAST(count(*) AS BIGINT) AS cn,
                       round(sum(1.0 / ln(c1.deg)), 9) AS aa
                FROM cap c1 JOIN cap c2
                     ON c1.mid = c2.mid AND c1.nbr < c2.nbr
                GROUP BY 1, 2)
            SELECT s.v, s.w, s.cn, s.aa
            FROM sc s LEFT JOIN e ON e.a = s.v AND e.b = s.w
            WHERE e.a IS NULL
            ORDER BY s.aa DESC, s.cn DESC, s.v, s.w
            LIMIT 50
        """,
        "m_url_parse": f"""
            SELECT url,
                   COALESCE(regexp_extract(url,
                       '^([a-z][a-z0-9+.-]*)://', 1), '') AS scheme,
                   COALESCE(regexp_extract(url,
                       '^[a-z][a-z0-9+.-]*://([^/?#]*)', 1), '')
                       AS host,
                   COALESCE(regexp_extract(url,
                       '^[a-z][a-z0-9+.-]*://[^/?#]*([^?#]*)', 1), '')
                       AS path,
                   COALESCE(regexp_extract(url, '\\?([^#]*)', 1), '')
                       AS query,
                   CAST(greatest(
                       CASE WHEN length(regexp_extract(url,
                           '^[a-z][a-z0-9+.-]*://[^/?#]*([^?#]*)', 1))
                           > 1
                       THEN length(regexp_extract(url,
                               '^[a-z][a-z0-9+.-]*://[^/?#]*([^?#]*)',
                               1))
                          - length(replace(regexp_extract(url,
                               '^[a-z][a-z0-9+.-]*://[^/?#]*([^?#]*)',
                               1), '/', ''))
                          - CASE WHEN regexp_extract(url,
                               '^[a-z][a-z0-9+.-]*://[^/?#]*([^?#]*)',
                               1) LIKE '%/' THEN 1 ELSE 0 END
                       ELSE 0 END, 0) AS BIGINT) AS path_depth
            FROM read_parquet('{_pages_fixture_glob()}')
        """,
        "e_burst_rate": """
            WITH w AS (
                SELECT user_id,
                       count(*) OVER (
                           PARTITION BY user_id ORDER BY ts
                           RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                           AND CURRENT ROW) AS burst
                FROM events)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(max(burst) AS BIGINT) AS max_burst_1h
            FROM w GROUP BY user_id
        """,
        "td_temperature_mix": """
            WITH c AS (
                SELECT source, count(*) AS n FROM documents GROUP BY 1),
            t AS (SELECT sum(n) AS tot FROM c),
            w AS (
                SELECT c.source, c.n,
                       c.n * 1.0 / t.tot AS p,
                       (c.n * 1.0 / t.tot) ^ 0.3 AS wraw
                FROM c, t),
            z AS (SELECT sum(wraw) AS zw FROM w)
            SELECT w.source,
                   CAST(w.n AS BIGINT) AS n_docs,
                   round(w.p, 9) AS p_natural,
                   round(w.wraw / z.zw, 9) AS w_alpha,
                   round(w.wraw / z.zw / w.p, 9) AS effective_epochs
            FROM w, z
        """,
        "dd_c4_line_dedup": f"""
            WITH l AS (
                SELECT doc_id, t.i AS ln,
                       trim(list_extract(string_split(text, chr(10)), t.i),
                            ' ' || chr(9) || chr(13)) AS line
                FROM read_parquet('{_lines_fixture_glob()}'),
                     unnest(generate_series(1,
                         len(string_split(text, chr(10))))) AS t(i)
                WHERE text IS NOT NULL),
            nz AS (SELECT * FROM l WHERE line <> ''),
            r AS (
                SELECT doc_id,
                       row_number() OVER (PARTITION BY line
                                          ORDER BY doc_id, ln) AS rk
                FROM nz)
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(sum(CASE WHEN rk > 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_removed,
                   round(1.0 - sum(CASE WHEN rk > 1 THEN 1 ELSE 0 END)
                         * 1.0 / count(*), 6) AS kept_frac
            FROM r GROUP BY doc_id
        """,
        "pages_boilerplate_ratio": f"""
            SELECT regexp_extract(url, '^https://([^/]+)/', 1) AS host,
                   CAST(sum(octet_length(COALESCE(html, ''::BLOB)))
                        AS BIGINT) AS html_bytes,
                   CAST(sum(length(COALESCE(text, ''))) AS BIGINT)
                       AS text_chars,
                   CAST(count(*) AS BIGINT) AS n_pages,
                   round(CASE WHEN sum(octet_length(
                             COALESCE(html, ''::BLOB))) > 0
                         THEN 1.0 - sum(length(COALESCE(text, '')))
                              * 1.0 / greatest(sum(octet_length(
                                  COALESCE(html, ''::BLOB))), 1)
                         ELSE 0.0 END, 6) AS boilerplate_ratio
            FROM read_parquet('{_pages_fixture_glob()}')
            GROUP BY 1
        """,
        "mm_phash_clusters": """
            WITH RECURSIVE
            ph AS (
                SELECT vec_id, CAST(vec_id // 4 AS BIGINT) AS phash
                FROM embeddings),
            pr AS (
                SELECT a.vec_id AS a, b.vec_id AS b
                FROM ph a JOIN ph b ON a.vec_id < b.vec_id
                WHERE bit_count(xor(a.phash, b.phash)) <= 3),
            e AS (SELECT a, b FROM pr UNION ALL SELECT b, a FROM pr),
            nodes AS (SELECT DISTINCT a AS n FROM e),
            reach AS (
                SELECT n AS node, n AS r FROM nodes
                UNION
                SELECT reach.node, e.b FROM reach JOIN e ON reach.r = e.a)
            SELECT node, CAST(min(r) AS BIGINT) AS cluster
            FROM reach GROUP BY node
        """,
        "e_user_entropy": """
            WITH c AS (
                SELECT user_id, event_type, count(*) AS n
                FROM events GROUP BY 1, 2),
            t AS (SELECT user_id, sum(n) AS tot, count(*) AS k
                  FROM c GROUP BY 1)
            SELECT c.user_id,
                   CAST(t.tot AS BIGINT) AS n_events,
                   CAST(t.k AS BIGINT) AS n_types,
                   round(sum(-(n * 1.0 / tot) * log2(n * 1.0 / tot)), 9)
                       AS entropy
            FROM c JOIN t USING (user_id)
            GROUP BY c.user_id, t.tot, t.k
        """,
        "t_js_divergence": """
            WITH c AS (
                SELECT source, lang, count(*) AS n
                FROM documents GROUP BY 1, 2),
            t AS (SELECT source, sum(n) AS tot FROM c GROUP BY 1),
            p AS (
                SELECT c.source, c.lang, c.n * 1.0 / t.tot AS pr
                FROM c JOIN t USING (source)),
            pairs AS (
                SELECT a.source AS sa, b.source AS sb
                FROM t a JOIN t b ON a.source < b.source),
            joint AS (
                SELECT pairs.sa, pairs.sb,
                       COALESCE(pa.pr, 0) AS pa_,
                       COALESCE(pb.pr, 0) AS pb_
                FROM pairs
                CROSS JOIN (SELECT DISTINCT lang FROM c) l
                LEFT JOIN p pa ON pa.source = pairs.sa
                              AND pa.lang = l.lang
                LEFT JOIN p pb ON pb.source = pairs.sb
                              AND pb.lang = l.lang)
            SELECT sa AS source_a, sb AS source_b,
                   round(sum(
                       CASE WHEN pa_ > 0 THEN pa_ / 2 * log2(
                           pa_ / ((pa_ + pb_) / 2)) ELSE 0 END
                       + CASE WHEN pb_ > 0 THEN pb_ / 2 * log2(
                           pb_ / ((pa_ + pb_) / 2)) ELSE 0 END), 9)
                       AS js
            FROM joint GROUP BY 1, 2
        """,
        "g_modularity": f"""
            WITH h AS (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS h1,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1) AS h2
                FROM read_parquet('{_pages_links_path()}')),
            e AS MATERIALIZED (
                SELECT DISTINCT least(h1, h2) AS a, greatest(h1, h2) AS b
                FROM h WHERE h1 <> h2 AND h1 <> '' AND h2 <> ''),
            ec AS (
                SELECT regexp_extract(a, '\\.(example-\\d+\\.org)$', 1)
                           AS ca,
                       regexp_extract(b, '\\.(example-\\d+\\.org)$', 1)
                           AS cb
                FROM e),
            m AS (SELECT count(*) AS m FROM e),
            deg AS (
                SELECT community, CAST(count(*) AS BIGINT) AS d_c
                FROM (SELECT ca AS community FROM ec
                      UNION ALL SELECT cb FROM ec)
                GROUP BY 1),
            intra AS (
                SELECT ca AS community, CAST(count(*) AS BIGINT) AS e_c
                FROM ec WHERE ca = cb GROUP BY 1)
            SELECT d.community,
                   COALESCE(i.e_c, 0) AS n_edges_within,
                   d.d_c AS degree_sum,
                   round(COALESCE(i.e_c, 0) * 1.0 / m.m
                         - (d.d_c / (2.0 * m.m)) ^ 2, 9) AS q_c
            FROM deg d LEFT JOIN intra i USING (community), m
        """,
        "g_reciprocity": f"""
            WITH h AS (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS h1,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1) AS h2
                FROM read_parquet('{_pages_links_path()}')),
            e AS MATERIALIZED (
                SELECT DISTINCT h1 AS a, h2 AS b
                FROM h WHERE h1 <> h2 AND h1 <> '' AND h2 <> '')
            SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
                   CAST((SELECT count(*) FROM e x
                         JOIN e y ON y.a = x.b AND y.b = x.a)
                        AS BIGINT) AS n_reciprocal,
                   round((SELECT count(*) FROM e x
                          JOIN e y ON y.a = x.b AND y.b = x.a)
                         * 1.0 / (SELECT count(*) FROM e), 9)
                       AS reciprocity
        """,
        "g_assortativity": f"""
            WITH h AS (
                SELECT regexp_extract(src_url, '^https://([^/]+)/', 1) AS h1,
                       regexp_extract(dst_url, '^https://([^/]+)/', 1) AS h2
                FROM read_parquet('{_pages_links_path()}')),
            e AS MATERIALIZED (
                SELECT DISTINCT least(h1, h2) AS a, greatest(h1, h2) AS b
                FROM h WHERE h1 <> h2 AND h1 <> '' AND h2 <> ''),
            deg AS (
                SELECT node, CAST(count(*) AS BIGINT) AS deg
                FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e)
                GROUP BY 1),
            j AS (
                SELECT da.deg AS dega, db.deg AS degb
                FROM e JOIN deg da ON da.node = e.a
                       JOIN deg db ON db.node = e.b),
            m AS (
                SELECT CAST(sum(dega + degb) AS BIGINT) AS sx,
                       CAST(sum(2 * dega * degb) AS BIGINT) AS sxy,
                       CAST(sum(dega * dega + degb * degb) AS BIGINT) AS sxx,
                       CAST(2 * count(*) AS BIGINT) AS n
                FROM j)
            SELECT n AS n_edge_endpoints,
                   round(CASE WHEN sxx - CAST(sx AS DOUBLE) * sx / n > 0
                         THEN (sxy - CAST(sx AS DOUBLE) * sx / n)
                              / (sxx - CAST(sx AS DOUBLE) * sx / n)
                         ELSE 0.0 END, 9) AS assortativity
            FROM m
        """,
        "g_hits": _hits_sql(),
        "s_dim_covar": _dim_covar_sql(),
        "pages_recrawl_delta": f"""
            WITH c AS (
                SELECT url,
                       CASE WHEN lag(text) OVER w IS NOT NULL
                                 AND text <> lag(text) OVER w
                            THEN 1 ELSE 0 END AS chg
                FROM read_parquet('{_recrawl_fixture_glob()}')
                WINDOW w AS (PARTITION BY url ORDER BY capture_ts)
            )
            SELECT url,
                   count(*)::BIGINT AS n_captures,
                   sum(chg)::BIGINT AS n_changes,
                   round(sum(chg)::DOUBLE /
                         greatest(count(*) - 1, 1), 6) AS churn
            FROM c GROUP BY 1
        """,
        "t_gram_novelty_daily": f"""
            WITH tok AS (
                SELECT strftime(warc_ts, '%Y-%m-%d') AS day,
                       regexp_split_to_array(text, '\\s+') AS arr
                FROM read_parquet('{_pages_fixture_glob()}')
                WHERE text IS NOT NULL),
            grams AS (
                SELECT DISTINCT day,
                       arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] || ' '
                       || arr[i+3] || ' ' || arr[i+4] AS g
                FROM tok,
                     unnest(generate_series(1, greatest(len(arr) - 4, 0)))
                         AS t(i)),
            first AS (SELECT g, min(day) AS d0 FROM grams GROUP BY 1)
            SELECT day, count(*)::BIGINT AS n_grams,
                   sum(CASE WHEN day = d0 THEN 1 ELSE 0 END)::BIGINT
                       AS n_novel,
                   round(sum(CASE WHEN day = d0 THEN 1 ELSE 0 END)::DOUBLE
                         / count(*), 6) AS novelty
            FROM grams JOIN first USING (g) GROUP BY 1
        """,
        "td_decontaminate": f"""
            WITH tok AS (SELECT doc_id, {_TOKS} AS arr FROM documents),
            grams AS (
                SELECT doc_id, arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]
                       || ' ' || arr[i+3] AS g
                FROM tok,
                     unnest(generate_series(1, greatest(len(arr) - 3, 0)))
                         AS t(i)),
            ev AS (SELECT DISTINCT g FROM grams WHERE doc_id % 50 = 0)
            SELECT g.doc_id, count(DISTINCT g.g) AS n_shared
            FROM grams g JOIN ev USING (g)
            WHERE g.doc_id % 50 != 0
            GROUP BY 1
        """,
        "dd_ngram_coverage": f"""
            WITH tok AS (SELECT doc_id, {_TOKS} AS arr FROM documents),
            grams AS (
                SELECT DISTINCT doc_id,
                       arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] || ' '
                       || arr[i+3] || ' ' || arr[i+4] AS g
                FROM tok,
                     unnest(generate_series(1, greatest(len(arr) - 4, 0)))
                         AS t(i)),
            cnt AS (SELECT g, count(*) AS nd FROM grams GROUP BY 1)
            SELECT doc_id,
                   CAST(sum(CASE WHEN nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_dup,
                   CAST(count(*) AS BIGINT) AS n_grams,
                   round(sum(CASE WHEN nd >= 2 THEN 1 ELSE 0 END)
                         / CAST(count(*) AS DOUBLE), 6) AS dup_frac
            FROM grams JOIN cnt USING (g)
            GROUP BY 1
        """,
        "td_dsir_weights": f"""
            WITH tok AS (
                SELECT doc_id, w FROM (
                    SELECT doc_id, unnest({_TOKS}) AS w FROM documents)
                WHERE len(w) > 0),
            b AS (SELECT doc_id,
                         (('0x' || substr(md5(w), 1, 8))::BIGINT % 64)
                             AS bkt
                  FROM tok),
            t AS (SELECT bkt, count(*) AS c FROM b
                  WHERE doc_id % 50 = 0 GROUP BY 1),
            r AS (SELECT bkt, count(*) AS c FROM b
                  WHERE doc_id % 50 != 0 GROUP BY 1),
            tot AS (SELECT (SELECT coalesce(sum(c), 0) FROM t) AS tt,
                           (SELECT coalesce(sum(c), 0) FROM r) AS rr),
            lr AS (SELECT g.bkt,
                          ln((coalesce(t.c, 0) + 1.0) / (tot.tt + 64))
                          - ln((coalesce(r.c, 0) + 1.0) / (tot.rr + 64))
                              AS lr
                   FROM (SELECT unnest(generate_series(0, 63)) AS bkt) g
                   LEFT JOIN t USING (bkt) LEFT JOIN r USING (bkt), tot)
            SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
                   round(sum(lr.lr), 6) AS dsir_weight
            FROM b JOIN lr USING (bkt)
            WHERE b.doc_id % 50 != 0
            GROUP BY 1
        """,
        "v_pruned_ts_range": """
            SELECT event_id, ts, user_id, round(value, 2) AS value
            FROM events
            WHERE ts BETWEEN TIMESTAMP '2024-01-10 00:00:00'
                         AND TIMESTAMP '2024-01-17 00:00:00'
        """,
        "a_price_histogram": """
            SELECT CAST(floor(o_totalprice / 50000) AS BIGINT) AS bucket,
                   count(*) AS n_orders
            FROM orders GROUP BY 1
        """,
        "e_dow_hour_heatmap": """
            SELECT CAST(isodow(ts) AS BIGINT) AS dow,
                   CAST(hour(ts) AS BIGINT) AS hour, count(*) AS n
            FROM events GROUP BY 1, 2
        """,
        "v_jsonl_source": """
            SELECT event_type, round(sum(value), 2) AS sum_value,
                   count(*) AS n
            FROM events GROUP BY 1
        """,
        "v_csv_source": """
            SELECT event_type, round(sum(value), 2) AS sum_value,
                   count(*) AS n
            FROM events GROUP BY 1
        """,
        "v_jsonl_gz_source": """
            SELECT event_type, round(sum(value), 2) AS sum_value,
                   count(*) AS n
            FROM events GROUP BY 1
        """,
        "v_parquet_zstd_source": """
            SELECT event_type, round(sum(value), 2) AS sum_value,
                   count(*) AS n
            FROM events GROUP BY 1
        """,
        # v_warc_source parses WARC-style segments serialized FROM the pages
        # fixture — the oracle is the fixture itself (md5 proves payloads
        # round-tripped byte-identically; NULL payload stays NULL)
        "v_warc_source": f"""
            SELECT url, warc_ts,
                   CAST(octet_length(html) AS BIGINT) AS n_bytes,
                   md5(decode(html)) AS payload_md5
            FROM read_parquet('{_pages_fixture_glob()}')
        """,
        # random access: every archive record whose url is among the first
        # file's first 200 urls (fetch returns ALL copies of a requested
        # url — archive semantics — so the oracle joins on the DISTINCT set)
        "v_warc_fetch": f"""
            WITH want AS (
                SELECT DISTINCT url FROM (
                    SELECT url FROM read_parquet('{_pages_first_file()}')
                    LIMIT 200))
            SELECT p.url, p.warc_ts,
                   CAST(octet_length(p.html) AS BIGINT) AS n_bytes,
                   md5(decode(p.html)) AS payload_md5
            FROM read_parquet('{_pages_fixture_glob()}') p
            JOIN want w ON p.url = w.url
        """,
        # gz variant: same oracle — the digest must be identical whether
        # the segment bytes were stored plain or member-per-record gzip
        "v_warc_gz_source": f"""
            SELECT url, warc_ts,
                   CAST(octet_length(html) AS BIGINT) AS n_bytes,
                   md5(decode(html)) AS payload_md5
            FROM read_parquet('{_pages_fixture_glob()}')
        """,
        # WET sink roundtrip: extracted text through conversion segments —
        # the oracle is the original parquet text column
        "v_wet_roundtrip": f"""
            SELECT url, warc_ts,
                   length(text) AS n_chars,
                   md5(text) AS text_md5
            FROM read_parquet('{_pages_fixture_glob()}')
        """,
        "v_wat_roundtrip": f"""
            SELECT url, warc_ts,
                   octet_length(html) AS content_length,
                   length(text) AS text_len,
                   lang
            FROM read_parquet('{_pages_fixture_glob()}')
        """,
        "a_corr_qty_price": """
            SELECT l_returnflag, count(*) AS n,
                   round(corr(l_quantity, l_extendedprice), 6)
                       AS corr_qty_price
            FROM lineitem GROUP BY 1
        """,
        "o_stratified_sample": """
            SELECT doc_id, lang, h FROM (
                SELECT doc_id, lang, md5(CAST(doc_id AS VARCHAR)) AS h,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY md5(CAST(doc_id AS VARCHAR)) ASC,
                                    doc_id ASC) AS rn
                FROM documents) WHERE rn <= 20
        """,
        "a_median_price_exact": """
            SELECT CAST(count(*) AS BIGINT) AS n,
                   round(median(o_totalprice), 2) AS median_price
            FROM orders
        """,
        "t_top_bigrams": f"""
            SELECT bigram, count(*) AS n FROM (
                SELECT list_extract(toks, t.i) || ' '
                       || list_extract(toks, t.i + 1) AS bigram
                FROM (SELECT {_TOKS} AS toks FROM documents) d,
                     unnest(generate_series(1, len(toks) - 1)) AS t(i)
            ) GROUP BY bigram ORDER BY n DESC, bigram ASC LIMIT 20
        """,
        "t_bigram_lm_score": f"""
            WITH toks AS (
                SELECT doc_id, list_extract(tk, t.i) AS w1,
                       list_extract(tk, t.i + 1) AS w2
                FROM (SELECT doc_id, {_TOKS} AS tk FROM documents) d,
                     unnest(generate_series(1, len(tk) - 1)) AS t(i)
            ),
            uni AS (
                SELECT tok, count(*) AS cu FROM (
                    SELECT unnest(tk) AS tok
                    FROM (SELECT {_TOKS} AS tk FROM documents))
                GROUP BY tok
            ),
            v AS (SELECT count(*) AS vs FROM uni),
            bc AS (SELECT w1, w2, count(*) AS cb FROM toks GROUP BY 1, 2)
            SELECT b.doc_id,
                   round(avg(ln((bc.cb + 0.5) / (u.cu + 0.5 * v.vs))), 6)
                       AS avg_lp
            FROM toks b
            JOIN bc ON b.w1 = bc.w1 AND b.w2 = bc.w2
            JOIN uni u ON b.w1 = u.tok
            CROSS JOIN v
            GROUP BY b.doc_id
        """,
        "e_funnel": """
            WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
                       WHERE event_type = 'view' GROUP BY 1),
            c AS (SELECT e.user_id, min(e.ts) AS t2
                  FROM events e JOIN v USING (user_id)
                  WHERE e.event_type = 'click' AND e.ts > v.t1
                  GROUP BY 1),
            p AS (SELECT e.user_id, min(e.ts) AS t3
                  FROM events e JOIN c USING (user_id)
                  WHERE e.event_type = 'purchase' AND e.ts > c.t2
                  GROUP BY 1)
            SELECT v.user_id, v.t1 AS ts_view, c.t2 AS ts_click,
                   p.t3 AS ts_purchase
            FROM v JOIN c USING (user_id) JOIN p USING (user_id)
            WHERE p.t3 - v.t1 <= INTERVAL 7 DAY
        """,
        "v_snapshot_diff": """
            WITH a AS (SELECT o_orderkey AS k, o_totalprice AS p FROM orders),
            b AS (
                SELECT o_orderkey AS k,
                       CASE WHEN o_orderkey % 101 = 0 THEN o_totalprice + 1
                            ELSE o_totalprice END AS p
                FROM orders WHERE o_orderkey % 97 <> 0
                UNION ALL
                SELECT -o_orderkey, o_totalprice FROM orders
                WHERE o_orderkey % 103 = 0
            )
            SELECT COALESCE(a.k, b.k) AS o_orderkey,
                   CASE WHEN a.k IS NULL THEN 'added'
                        WHEN b.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM a FULL OUTER JOIN b ON a.k = b.k
            WHERE a.k IS NULL OR b.k IS NULL OR a.p <> b.p
        """,
        "e_daily_dense": """
            WITH b AS (SELECT min(CAST(ts AS DATE)) AS lo,
                              max(CAST(ts AS DATE)) AS hi FROM events),
            spine AS (SELECT unnest(generate_series(
                CAST(lo AS TIMESTAMP), CAST(hi AS TIMESTAMP),
                INTERVAL 1 DAY)) AS day FROM b),
            c AS (SELECT date_trunc('day', ts) AS day, count(*) AS n
                  FROM events GROUP BY 1)
            SELECT s.day AS day, COALESCE(c.n, 0) AS n
            FROM spine s LEFT JOIN c ON s.day = c.day
        """,
        "s_label_centroids": """
            WITH v AS (
                SELECT label, t.i - 1 AS dim,
                       list_extract(CAST(embedding AS DOUBLE[]), t.i) AS x
                FROM embeddings,
                     unnest(generate_series(1, len(embedding))) AS t(i)
            )
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(dim AS BIGINT) AS dim,
                   CAST(count(*) AS BIGINT) AS n,
                   round(avg(x), 6) AS centroid_v
            FROM v GROUP BY label, dim
        """,
        "s_embed_dim_stats": """
            WITH v AS (
                SELECT t.i - 1 AS dim,
                       list_extract(CAST(embedding AS DOUBLE[]), t.i) AS x
                FROM embeddings,
                     unnest(generate_series(1, len(embedding))) AS t(i)
            )
            SELECT CAST(dim AS BIGINT) AS dim,
                   CAST(count(*) AS BIGINT) AS n,
                   round(avg(x), 6) AS mean_v,
                   round(var_pop(x), 6) AS var_v
            FROM v GROUP BY dim
        """,
        "dd_paragraphs": """
            WITH ch AS (
                SELECT d.doc_id, t.i AS ci,
                       array_to_string(list_slice(
                           string_split(d.text, ' '),
                           (t.i - 1) * 10 + 1, t.i * 10), ' ') AS chunk
                FROM documents d,
                     unnest(generate_series(1, CAST(ceil(
                         len(string_split(d.text, ' ')) / 10.0) AS BIGINT)))
                         AS t(i)
            ), rk AS (
                SELECT doc_id, ci, chunk,
                       row_number() OVER (
                           PARTITION BY chunk
                           ORDER BY doc_id, ci) AS rn
                FROM ch
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_chunks,
                   CAST(sum(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_kept,
                   string_agg(CASE WHEN rn = 1 THEN chunk END, ' '
                              ORDER BY ci) AS text_deduped
            FROM rk GROUP BY doc_id
        """,
        "j_fuzzy_name_match": """
            WITH d AS (
                SELECT s.s_suppkey, s.s_name, c.c_custkey,
                       levenshtein(s.s_name, c.c_name) AS dist
                FROM supplier s CROSS JOIN customer c
            ), r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY s_suppkey
                    ORDER BY dist, c_custkey) AS rn
                FROM d
            )
            SELECT s_suppkey, s_name, c_custkey AS best_custkey,
                   CAST(dist AS BIGINT) AS dist
            FROM r WHERE rn = 1
        """,
        "o_ntile_price": """
            SELECT o_orderkey,
                   CAST(ntile(4) OVER (
                       ORDER BY o_totalprice, o_orderkey) AS BIGINT)
                       AS tile
            FROM orders
        """,
        "td_pack": """
            WITH d AS (
                SELECT doc_id,
                       len(string_split(text, ' ')) AS nt
                FROM documents
            ), c AS (
                SELECT doc_id, nt,
                       COALESCE(sum(nt) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS cb
                FROM d
            )
            SELECT c.doc_id,
                   t.i AS bin_id,
                   least(cb + nt, (t.i + 1) * 512)
                       - greatest(cb, t.i * 512) AS n_tok
            FROM c, unnest(generate_series(
                CAST(floor(cb / 512) AS BIGINT),
                CAST(floor((cb + nt - 1) / 512) AS BIGINT))) AS t(i)
        """,
        "e_retention_cohorts": """
            WITH f AS (
                SELECT user_id, date_trunc('week', min(ts)) AS cohort_week
                FROM events GROUP BY 1
            ), w AS (
                SELECT DISTINCT e.user_id, f.cohort_week,
                       CAST(datediff('day', f.cohort_week,
                                     date_trunc('week', e.ts)) // 7
                            AS BIGINT) AS week_offset
                FROM events e JOIN f USING (user_id)
            )
            SELECT cohort_week, week_offset, count(*) AS n_users
            FROM w GROUP BY 1, 2
        """,
        "td_gopher_rules": f"""
            WITH w AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\\s+'),
                                   x -> x <> '') AS words
                FROM documents
            ), f AS (
                SELECT doc_id, len(words) AS n_words,
                       coalesce(list_aggregate(list_transform(words,
                           x -> length(x)), 'sum'), 0) * 1.0
                           / greatest(len(words), 1) AS mean_raw,
                       len(list_filter(words,
                           x -> regexp_matches(x, '[a-zA-Z]'))) * 1.0
                           / greatest(len(words), 1) AS alpha_raw,
                       len(list_filter(words,
                           x -> list_contains([{_STOP_SQL}], x)))
                           AS n_stop
                FROM w
            )
            SELECT doc_id, n_words,
                   round(mean_raw, 6) AS mean_word_len,
                   round(alpha_raw, 6) AS frac_alpha, n_stop,
                   (n_words BETWEEN 5 AND 100000)
                       AND mean_raw >= 2.0 AND mean_raw <= 12.0
                       AND alpha_raw >= 0.6 AND n_stop >= 1 AS passes
            FROM f
        """,
        "td_c4_line_filters": f"""
            WITH lines AS (
                SELECT doc_id,
                       unnest(string_split(text, chr(10))) AS line
                FROM read_parquet('{_lines_fixture_glob()}')
            ),
            lf AS (
                SELECT doc_id,
                       (regexp_matches(trim(line, ' '), '[.!?"]$')
                        AND len(regexp_split_to_array(trim(line, ' '),
                                                      '\\s+')) >= 3
                        AND NOT contains(lower(line), 'javascript'))
                           AS keep
                FROM lines
            ),
            agg AS (
                SELECT doc_id, count(*) AS n_lines,
                       CAST(count(*) FILTER (WHERE keep) AS BIGINT)
                           AS kept_lines
                FROM lf GROUP BY doc_id
            )
            SELECT d.doc_id, a.n_lines, a.kept_lines,
                   (NOT contains(lower(d.text), 'lorem ipsum')
                    AND NOT contains(d.text, '{{')
                    AND a.kept_lines >= 5) AS page_kept
            FROM read_parquet('{_lines_fixture_glob()}') d
            JOIN agg a USING (doc_id)
        """,
        "dd_c4_spans": f"""
            WITH d AS (
                SELECT doc_id, text,
                       string_split(text, chr(10)) AS ls
                FROM read_parquet('{_lines_fixture_glob()}')
            ),
            l AS (
                SELECT doc_id, unnest(ls) AS line,
                       generate_subscripts(ls, 1) AS pos
                FROM d
            ),
            sp AS (
                SELECT doc_id, pos,
                       line || chr(10)
                            || lead(line, 1) OVER w || chr(10)
                            || lead(line, 2) OVER w AS span,
                       lead(pos, 2) OVER w AS p2
                FROM l WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
            ),
            dup AS (
                SELECT doc_id, pos FROM (
                    SELECT doc_id, pos,
                           row_number() OVER (PARTITION BY span
                                              ORDER BY doc_id, pos) AS rn
                    FROM sp WHERE p2 IS NOT NULL
                ) WHERE rn > 1
            ),
            rem AS (
                SELECT DISTINCT l.doc_id, l.pos
                FROM l JOIN dup
                  ON l.doc_id = dup.doc_id
                 AND l.pos BETWEEN dup.pos AND dup.pos + 2
            )
            SELECT l.doc_id,
                   coalesce(string_agg(l.line, chr(10) ORDER BY l.pos)
                            FILTER (WHERE r.pos IS NULL), '') AS clean_text
            FROM l LEFT JOIN rem r
              ON l.doc_id = r.doc_id AND l.pos = r.pos
            GROUP BY l.doc_id
        """,
        "q10_returned_revenue": """
            SELECT c_custkey, c_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue,
                   c_acctbal, n_name
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            WHERE l_returnflag = 'R'
              AND o_orderdate >= DATE '1996-10-01'
              AND o_orderdate < DATE '1997-01-01'
            GROUP BY c_custkey, c_name, c_acctbal, n_name
            ORDER BY revenue DESC, c_custkey ASC
            LIMIT 20
        """,
        "g_degree_stats": f"""
            WITH docs AS (
                SELECT url AS src_url, decode(html) AS h
                FROM read_parquet('{_pages_fixture_glob()}')
                WHERE html IS NOT NULL
            ), m AS (
                SELECT src_url,
                       regexp_extract_all(h,
                           '<a\\b[^>]*\\bhref\\s*=\\s*["'']([^"'']*)["''][^>]*>(.*?)</a\\s*>',
                           1, 'is') AS hrefs
                FROM docs
            ), links AS (
                SELECT src_url, hrefs[i] AS dst_url
                FROM m, unnest(generate_series(1, len(hrefs))) AS t(i)
            )
            SELECT deg, count(*) AS n_urls, 'out' AS direction
            FROM (SELECT src_url, count(*) AS deg FROM links GROUP BY 1)
            GROUP BY 1
            UNION ALL
            SELECT deg, count(*) AS n_urls, 'in' AS direction
            FROM (SELECT dst_url, count(*) AS deg FROM links GROUP BY 1)
            GROUP BY 1
        """,
        "dd_containment": f"""
            WITH arrs AS (SELECT doc_id,
                                 regexp_split_to_array(text, '\\s+') AS arr
                          FROM documents),
            sh AS (SELECT DISTINCT doc_id, arr[i] || ' ' || arr[i+1] AS shingle
                   FROM arrs, unnest(generate_series(1, len(arr) - 1)) AS t(i)),
            sizes AS (SELECT doc_id, count(*) AS sz FROM sh GROUP BY 1),
            inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                             count(*) AS inter
                      FROM sh a JOIN sh b
                        ON a.shingle = b.shingle AND a.doc_id < b.doc_id
                      GROUP BY 1, 2)
            SELECT id_a, id_b,
                   round(inter * 1.0 / least(sa.sz, sb.sz), 6) AS containment
            FROM inter
            JOIN sizes sa ON sa.doc_id = id_a
            JOIN sizes sb ON sb.doc_id = id_b
            WHERE inter * 1.0 / least(sa.sz, sb.sz)
                  >= {q.CONTAINMENT_THRESHOLD}
        """,
        "a_zipf_slope": """
            WITH toks AS (
                SELECT unnest(list_filter(
                    regexp_split_to_array(text, '\\s+'), x -> x <> ''))
                    AS tok
                FROM documents
            ), freq AS (SELECT tok, count(*) AS f FROM toks GROUP BY 1),
            ranked AS (
                SELECT f, row_number() OVER (ORDER BY f DESC, tok ASC) AS r
                FROM freq
            )
            SELECT round(regr_slope(ln(f), ln(r)), 6) AS zipf_slope,
                   count(*) AS n_tokens
            FROM ranked
        """,
        "e_anomaly_zscore": """
            WITH s AS (
                SELECT user_id, avg(value) AS mu, stddev_pop(value) AS sd
                FROM events GROUP BY 1
            )
            SELECT e.event_id, e.user_id, e.value,
                   round((e.value - s.mu) / s.sd, 4) AS z
            FROM events e JOIN s USING (user_id)
            WHERE s.sd > 0 AND abs((e.value - s.mu) / s.sd) > 3.0
        """,
        "q14_promo_revenue": """
            SELECT round(100.0 *
                       sum(CASE WHEN p.p_type = 'PROMO'
                           THEN l.l_extendedprice * (1 - l.l_discount)
                           ELSE 0 END)
                       / sum(l.l_extendedprice * (1 - l.l_discount)),
                       6) AS promo_pct
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
              AND l.l_shipdate <  TIMESTAMP '1997-01-01'
        """,
        "q18_big_orders": """
            WITH big AS (
                SELECT l_orderkey, sum(l_quantity) AS sum_qty
                FROM lineitem GROUP BY l_orderkey
                HAVING sum(l_quantity) > 250.0)
            SELECT c.c_name, o.o_orderkey, o.o_totalprice, b.sum_qty
            FROM big b
            JOIN orders o ON o.o_orderkey = b.l_orderkey
            LEFT JOIN customer c ON c.c_custkey = o.o_custkey
        """,
        "e_ffill_last_purchase": """
            SELECT event_id, user_id,
                   last_value(CASE WHEN event_type = 'purchase'
                              THEN value END IGNORE NULLS)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND CURRENT ROW)
                       AS last_purchase_value
            FROM events
        """,
        "td_chunks": """
            WITH toks AS (
                SELECT doc_id, regexp_split_to_array(text, '\\s+') AS t,
                       len(regexp_split_to_array(text, '\\s+')) AS n
                FROM documents),
            idx AS (
                SELECT doc_id, t, n,
                       unnest(generate_series(
                           0, (greatest(n - 12, 0) + 7) // 8)) AS chunk_id
                FROM toks)
            SELECT doc_id, chunk_id,
                   least(chunk_id * 8 + 12, n) - chunk_id * 8 AS n_tokens,
                   array_to_string(
                       t[chunk_id * 8 + 1:least(chunk_id * 8 + 12, n)],
                       ' ') AS chunk_text
            FROM idx
        """,
        "a_salted_event_counts": """
            SELECT event_type, count(*) AS n FROM events GROUP BY event_type
        """,
        "q11_important_parts": """
            WITH pr AS (SELECT l_partkey, sum(l_quantity) AS sum_qty
                        FROM lineitem GROUP BY l_partkey)
            SELECT l_partkey, sum_qty FROM pr
            WHERE sum_qty > 1.5 * (SELECT avg(sum_qty) FROM pr)
        """,
        "q22_idle_rich_customers": """
            SELECT c_custkey, c_acctbal FROM customer
            WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer)
              AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderdate >= TIMESTAMP '2001-01-01')
        """,
        "q2_min_cost_supplier": """
            WITH l AS (
                SELECT l_partkey, l_suppkey, l_extendedprice
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM part
                                    WHERE p_size = 7)
                  AND l_suppkey IN (SELECT s_suppkey FROM supplier
                                    JOIN nation ON s_nationkey = n_nationkey
                                    JOIN region ON n_regionkey = r_regionkey
                                    WHERE r_name = 'EUROPE')),
            b AS (
                SELECT l_partkey, l_suppkey, l_extendedprice,
                       row_number() OVER (PARTITION BY l_partkey
                           ORDER BY l_extendedprice, l_suppkey) AS rn
                FROM l)
            SELECT s_acctbal, s_name, n_name,
                   l_partkey AS p_partkey, l_extendedprice AS min_price
            FROM b
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE rn = 1
            ORDER BY s_acctbal DESC, p_partkey
            LIMIT 10
        """,
        "q4_priority_exists": """
            SELECT o_orderpriority, count(*) AS order_count
            FROM orders o
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <  TIMESTAMP '1996-04-01'
              AND EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_returnflag = 'R')
            GROUP BY 1
        """,
        "q7_nation_volume": """
            SELECT supp_nation, cust_nation, l_year,
                   round(sum(volume), 2) AS revenue
            FROM (
                SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                       EXTRACT(year FROM l_shipdate) AS l_year,
                       l_extendedprice * (1 - l_discount) AS volume
                FROM lineitem
                JOIN supplier ON s_suppkey = l_suppkey
                JOIN orders ON o_orderkey = l_orderkey
                JOIN customer ON c_custkey = o_custkey
                JOIN nation n1 ON n1.n_nationkey = s_nationkey
                JOIN nation n2 ON n2.n_nationkey = c_nationkey
                WHERE ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_8')
                    OR (n1.n_name = 'NATION_8' AND n2.n_name = 'NATION_3'))
                  AND l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate <  TIMESTAMP '1998-01-01')
            GROUP BY 1, 2, 3
        """,
        "q8_market_share": """
            SELECT o_year,
                   round(sum(CASE WHEN supp_nation = 'NATION_3'
                                  THEN volume ELSE 0 END) / sum(volume),
                         6) AS mkt_share
            FROM (
                SELECT EXTRACT(year FROM o_orderdate) AS o_year,
                       l_extendedprice * (1 - l_discount) AS volume,
                       n1.n_name AS supp_nation
                FROM lineitem
                JOIN part ON p_partkey = l_partkey
                JOIN supplier ON s_suppkey = l_suppkey
                JOIN orders ON o_orderkey = l_orderkey
                JOIN customer ON c_custkey = o_custkey
                JOIN nation n1 ON n1.n_nationkey = s_nationkey
                JOIN nation n2 ON n2.n_nationkey = c_nationkey
                JOIN region ON r_regionkey = n2.n_regionkey
                WHERE r_name = 'ASIA' AND p_type = 'ECONOMY'
                  AND o_orderdate >= TIMESTAMP '1996-01-01'
                  AND o_orderdate <  TIMESTAMP '1998-01-01')
            GROUP BY 1
        """,
        "q9_profit": """
            SELECT n_name, o_year, round(sum(amount), 2) AS sum_profit
            FROM (
                SELECT n_name, EXTRACT(year FROM o_orderdate) AS o_year,
                       l_extendedprice * (1 - l_discount)
                           - 0.1 * p_retailprice * l_quantity AS amount
                FROM lineitem
                JOIN part ON p_partkey = l_partkey
                JOIN supplier ON s_suppkey = l_suppkey
                JOIN orders ON o_orderkey = l_orderkey
                JOIN nation ON n_nationkey = s_nationkey
                WHERE p_name LIKE '%red%')
            GROUP BY 1, 2
        """,
        "q12_priority_linecount": """
            SELECT l_returnflag,
                   sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END) AS high_line_count,
                   sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                            THEN 0 ELSE 1 END) AS low_line_count
            FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            WHERE l_returnflag IN ('A', 'R')
              AND l_shipdate >= TIMESTAMP '1997-01-01'
              AND l_shipdate <  TIMESTAMP '1998-01-01'
            GROUP BY 1
        """,
        "q13_order_count_distribution": """
            WITH per_cust AS (
                SELECT c_custkey, count(o_custkey) AS c_count
                FROM customer
                LEFT JOIN orders ON c_custkey = o_custkey
                     AND o_orderpriority <> '1-URGENT'
                GROUP BY 1)
            SELECT c_count, count(*) AS custdist
            FROM per_cust GROUP BY 1
        """,
        "q15_top_supplier": """
            WITH r AS (
                SELECT l_suppkey,
                       round(sum(l_extendedprice * (1 - l_discount)), 2)
                           AS total_revenue
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate <  TIMESTAMP '1996-04-01'
                GROUP BY 1)
            SELECT s_suppkey, s_name, total_revenue
            FROM supplier JOIN r ON s_suppkey = l_suppkey
            WHERE total_revenue = (SELECT max(total_revenue) FROM r)
        """,
        "q16_supplier_part_counts": """
            SELECT p_brand, p_type, p_size,
                   count(DISTINCT l_suppkey) AS supplier_cnt
            FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) ps
            JOIN part ON p_partkey = l_partkey
            WHERE p_brand <> 'Brand#5' AND p_type <> 'PROMO'
              AND p_size IN (1, 5, 9, 13)
              AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                    WHERE s_acctbal < 0)
            GROUP BY 1, 2, 3
        """,
        "q17_small_qty_revenue": """
            SELECT round(sum(l_extendedprice) / 7.0, 2) AS avg_yearly
            FROM lineitem
            JOIN part ON p_partkey = l_partkey
            WHERE p_brand = 'Brand#3'
              AND l_quantity < (SELECT 0.2 * avg(l2.l_quantity)
                                FROM lineitem l2
                                WHERE l2.l_partkey = lineitem.l_partkey)
        """,
        "q19_disjunctive_revenue": """
            SELECT round(coalesce(sum(l_extendedprice * (1 - l_discount)),
                                  0.0), 2) AS revenue
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
                   AND l_quantity BETWEEN 1 AND 11)
               OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
                   AND l_quantity BETWEEN 10 AND 20)
               OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 20 AND 30)
        """,
        "q20_excess_shippers": """
            WITH sq AS (
                SELECT l_suppkey, sum(l_quantity) AS sq
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM part
                                    WHERE p_name LIKE 'red%')
                  AND l_shipdate >= TIMESTAMP '1996-01-01'
                  AND l_shipdate <  TIMESTAMP '1997-01-01'
                GROUP BY 1)
            SELECT s_suppkey, s_name
            FROM supplier JOIN sq ON s_suppkey = l_suppkey
            WHERE sq > 1.5 * (SELECT avg(sq) FROM sq)
        """,
        "q21_waiting_suppliers": """
            WITH l AS (
                SELECT l_orderkey, l_suppkey, l_returnflag
                FROM lineitem JOIN orders ON o_orderkey = l_orderkey
                WHERE o_orderstatus = 'F'),
            per_order AS (
                SELECT l_orderkey,
                       count(DISTINCT l_suppkey) AS n_supp,
                       count(DISTINCT CASE WHEN l_returnflag = 'R'
                                           THEN l_suppkey END) AS n_r,
                       min(CASE WHEN l_returnflag = 'R'
                                THEN l_suppkey END) AS supp
                FROM l GROUP BY 1)
            SELECT w.supp AS s_suppkey, s_name, w.numwait
            FROM (SELECT supp, count(*) AS numwait
                  FROM per_order WHERE n_supp > 1 AND n_r = 1
                  GROUP BY 1) w
            JOIN supplier ON s_suppkey = w.supp
            ORDER BY numwait DESC, s_suppkey
            LIMIT 10
        """,
        # no oracle (rows-only): o_sample_orders (engine-specific sampling),
        # a_distinct_users_hll (sketch estimate; epsilon-tested vs the exact
        # a_distinct_users_per_type in tests/test_sketches.py),
        # mm_payload_entropy (SQL cannot unnest BLOB bytes; numpy-reference
        # pytest in tests/test_similarity_text.py),
        # t_fingerprint_extra, t_lang_id,
        # dd_minhash_lsh, dd_simhash, s_ann_lsh, pages_validate,
        # approx_stats (sketch estimates), td_curate (LSH-dependent funnel),
        # s_kmeans (iterative float clustering; cluster sizes are asserted
        # against a single-process numpy reference in tests/test_kmeans.py).
    }
