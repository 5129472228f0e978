"""sf_dir-parameterized query pipelines — the driver/judge-facing operator
surface (one callable per SURVEY.md §2 row, wired up in ``__ray_entry__``).

Every callable takes an ``sf_dir`` (``/root/testdata/sf0.01``-style) and
returns a lazy ``ray.data.Dataset`` (or a small Arrow table). Column names
match the DuckDB oracle SQL in ``__ray_entry__.oracle_sql`` exactly; float
aggregates are rounded identically on both sides (half away from zero).

Reference-parity mapping (SURVEY.md §2 row ids) is noted per function.
"""

from __future__ import annotations

import collections
import datetime as dt
import glob
import hashlib
import os
import shutil
import unicodedata

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Sum
from ray.data.datasource.partitioning import Partitioning

from ..checks.links import find_dangling_links
from ..checks.protocol import Rule, run_rule_checks
from ..checks.vocab import ISO_639_1
from ..functions.bpe import apply_merge_batch, train_bpe
from ..functions.extract import binary_views, extract_links
from ..functions.hashing import (_duck_exec, _md5_con, gram_hash_pairs,
                                 hash_strings64, md5_hex, md5_hex_ints,
                                 md5_int32, md5_sum_mod,
                                 rolling_fingerprints_batch, simhash64_batch)
from ..functions.redact import redact
from ..functions.strings import levenshtein_matrix
from ..functions.text import (STOPWORDS, TOKEN_SPLIT, bpe_token_counts,
                              lang_id, quality_features, token_counts,
                              word_ngrams_batch)
from ..functions.urls import normalize_urls_batch, point_wkt
from ..relational import (asof_join, broadcast_join, collect_tables,
                          drop_empty_blocks, exchange_join,
                          hash_repartition_map, interval_join, map_groups,
                          nearest_join, partial_groupby_agg, read, read_table,
                          round_cols, round_half_away, runs, skew_join,
                          topk, topk_per_key, union_by_name)
from ..sketches import ApproxTopK, CountMin, HyperLogLog, TDigest
from ..sources.lines import ensure_lines, lines_ndocs_for_sf
from ..sources.pages import ensure_pages, pages_nrows_for_sf
from ..sources.recrawl import ensure_recrawl, recrawl_nurls_for_sf
from ..sources.robots import ensure_robots, parse_robots
from ..sources.scan import _parquet_files, fused_parquet_map, pruned_range_scan
from ..sources.warc import ensure_warc_segments, fetch_records, read_warc
from ..state.manifest import ManifestStore
from .bucketed import bucket_write, bucketed_join
from .classifier import featurize, score_logreg_hashed, train_logreg_hashed
from .dedup import (_capped_pair_indices, bloom_incremental_members,
                    cdc_chunks, connected_components, exact_dedup_groups,
                    semantic_dedup, shingle_jaccard_pairs_matmul)
from .factorize import als_recommend
from .graph import (_degree_table, bfs_depth, bowtie_parts,
                    common_neighbor_scores, components_min_label, hits,
                    hyperball_harmonic, kcore, local_clustering, pagerank,
                    random_walks, scc_coloring, triangle_count)
from .maintenance import compact_parquet
from .multimodal import (FrameSampleStage, audio_feature_table,
                         decode_features, gif_decode, gif_encode, gif_header,
                         image_dims_table, jpeg_decode, jpeg_encode,
                         jpeg_header, payload_meta_table, png_decode,
                         png_encode, png_header, ppm_decode, ppm_encode,
                         spectrum_feature_table, wav_encode)
from .snapshot import snapshot_diff
from .training_data import curate_pages
from .validate import load_violations, run_validation
from .zorder import minmax2, overlapping_files, zorder_write

# thresholds shared verbatim with the oracle SQL
JACCARD_THRESHOLD = 0.3
CONTAINMENT_THRESHOLD = 0.6
COSINE_THRESHOLD = 0.3
Q1_CUTOFF = np.datetime64("1998-09-02", "us")
EVENTS_TS_MAX = np.datetime64("2024-01-30", "us")
STOPWORD_SQL_LIST = "'the','a','of','and','to','in','is','on','for','with'"


def _round_stage(cols: dict[str, int]):
    return lambda batch: round_cols(batch, cols)


# ---------------------------------------------------------------------------
# TPC-H-shaped relational pipelines (A1/A4/J1/J2/J3/O1 semantics)
# ---------------------------------------------------------------------------


def q1_pricing_summary(sf_dir: str) -> rd.Dataset:
    """Map-side partial aggregation (A4) over the fact table.

    Reference analog: global counters merged in one process
    (``curation/check_fackel_references.py:32-37``), made distributive.
    """
    ds = read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity",
               "l_extendedprice", "l_discount", "l_shipdate"])

    def pre(batch: pa.Table) -> pa.Table:
        mask = pc.less_equal(batch["l_shipdate"], pa.scalar(Q1_CUTOFF))
        batch = batch.filter(mask)
        # exact fixed-point: prices/discounts are 2-decimal values, so
        # cents (int64) and cents×(100·(1−d)) (int64, ≤1.1e9/row) are exact;
        # integer sums are associative, so the distributed merge is
        # bit-identical to DuckDB's DECIMAL oracle at ANY scale — float64
        # partial sums drifted one ULP from the oracle at sf0.1 (2.9e9
        # totals), which a rounded compare can surface
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        cents = np.round(price * 100.0).astype(np.int64)
        disc_c4 = cents * np.round((1.0 - disc) * 100.0).astype(np.int64)
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty_c2": pa.array(np.round(qty * 100.0).astype(np.int64)),
            "price_c2": pa.array(cents),
            "disc_c4": pa.array(disc_c4),
        })

    agg = partial_groupby_agg(
        ds, ["l_returnflag", "l_linestatus"],
        [("qty_c2", "sum", "sum_qty_c2"),
         ("price_c2", "sum", "sum_base_price_c2"),
         ("disc_c4", "sum", "sum_disc_price_c4"),
         ("qty_c2", "count", "count_order")],
        pre=pre,
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["count_order"].to_numpy(zero_copy_only=False)
        qty = batch["sum_qty_c2"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": pa.array(qty / 100.0, pa.float64()),
            "sum_base_price": pa.array(
                batch["sum_base_price_c2"].to_numpy(zero_copy_only=False)
                / 100.0, pa.float64()),
            # round half away from zero to 2 decimals IN INTEGERS (values
            # are positive), then the /100.0 float is the nearest float64
            # of the exact decimal — same on the DuckDB DECIMAL side
            "sum_disc_price": pa.array(
                (batch["sum_disc_price_c4"].to_numpy(zero_copy_only=False)
                 + 50) // 100 / 100.0, pa.float64()),
            "avg_qty": pa.array(
                round_half_away(qty / 100.0 / n, 6), pa.float64()),
            "count_order": batch["count_order"],
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def q3_top_orders(sf_dir: str) -> rd.Dataset:
    """Hash shuffle join (lineitem ⋈ orders) + broadcast semi + top-k (O1)."""
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING")) \
               .select(["c_custkey"])
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = broadcast_join(orders, cust, "o_custkey", "c_custkey", how="semi")
    # a filter can empty a block, and empty blocks carry no schema — the
    # join's hash partitioner would crash on them (drop_empty_blocks doc)

    orders = drop_empty_blocks(orders)
    line = read(sf_dir, "lineitem",
                ["l_orderkey", "l_extendedprice", "l_discount"])
    if orders is None:
        return rd.from_arrow(pa.schema(
            [("o_orderkey", pa.int64()),
             ("o_orderdate", pa.timestamp("us")),
             ("revenue", pa.float64())]).empty_table())

    joined = exchange_join(line, orders, "l_orderkey", "o_orderkey")

    def pre(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(batch["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return batch.append_column("revenue_part", disc)

    agg = partial_groupby_agg(joined, ["l_orderkey", "o_orderdate"],
                              [("revenue_part", "sum", "revenue")], pre=pre)
    agg = agg.map_batches(_round_stage({"revenue": 2}), batch_format="pyarrow")
    out = topk(agg, [("revenue", True), ("l_orderkey", False)], 10)
    return out.rename_columns({"l_orderkey": "o_orderkey"})


def q5_regional_revenue(sf_dir: str) -> rd.Dataset:
    """Multi-way join: one hash shuffle + three broadcast dims (J1)."""
    nation = read_table(sf_dir, "nation")
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    # fold dims driver-side: c_custkey → n_name (dims are tiny; J1 note in
    # SURVEY.md — never shuffle-join the small side)
    n_idx = pc.index_in(cust["c_nationkey"], value_set=nation["n_nationkey"])
    cust = cust.append_column("n_name", pc.take(nation["n_name"], n_idx))
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def in_1996(batch: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64("1996-01-01", "us"))
        hi = pa.scalar(np.datetime64("1997-01-01", "us"))
        return batch.filter(pc.and_(
            pc.greater_equal(batch["o_orderdate"], lo),
            pc.less(batch["o_orderdate"], hi)))

    orders = orders.map_batches(in_1996, batch_format="pyarrow")
    orders = broadcast_join(orders, cust.select(["c_custkey", "n_name"]),
                            "o_custkey", "c_custkey", how="inner")

    orders = drop_empty_blocks(orders)  # date filter can empty blocks
    line = read(sf_dir, "lineitem",
                ["l_orderkey", "l_extendedprice", "l_discount"])
    if orders is None:
        return rd.from_arrow(pa.schema(
            [("n_name", pa.string()),
             ("revenue", pa.float64())]).empty_table())

    joined = exchange_join(line, orders, "l_orderkey", "o_orderkey")

    def pre(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(batch["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return batch.append_column("revenue_part", disc)

    agg = partial_groupby_agg(joined, ["n_name"],
                              [("revenue_part", "sum", "revenue")], pre=pre)
    return agg.map_batches(_round_stage({"revenue": 2}), batch_format="pyarrow")


def j_enrich_customer(sf_dir: str) -> rd.Dataset:
    """Broadcast enrichment join chain (J6: append columns, new snapshot)."""
    nation = read_table(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    region = read_table(sf_dir, "region")
    cust = read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    out = broadcast_join(cust, nation, "c_nationkey", "n_nationkey", how="left")
    out = broadcast_join(out, region, "n_regionkey", "r_regionkey", how="left")
    return out.select_columns(["c_custkey", "c_name", "n_name", "r_name"])


def _batch_distinct(col: str):
    """Map-side per-batch distinct: shrinks a key stream before a shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({col: pc.unique(batch[col].combine_chunks())})

    return fn


def j_anti_customers_no_events(sf_dir: str) -> rd.Dataset:
    """Anti-join referential check (J2,
    ≙ ``curation/check_authors_exist_in_listperson.py:21-25``).

    Big-to-big shape: ``Dataset.join(left_anti)`` (hash shuffle) after a
    map-side per-batch distinct on the probe side — round 1 pulled every
    distinct user_id to the driver (``unique()`` + ``sorted``), a driver OOM
    at 10⁹ distinct users."""
    users = read(sf_dir, "events", ["user_id"]).map_batches(
        _batch_distinct("user_id"), batch_format="pyarrow")
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])

    return exchange_join(cust, users, "c_custkey", "user_id",
                         how="left_anti")


def j_semi_error_customers(sf_dir: str) -> rd.Dataset:
    """Semi-join existence probe (J3, ≙ ``make_texts.py:363-366``) — same
    distributed shape as J2 (``left_semi``, no driver-side key set)."""
    ev = read(sf_dir, "events", ["user_id", "event_type"])

    err_users = drop_empty_blocks(ev.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "error")).select(["user_id"]),
        batch_format="pyarrow").map_batches(
        _batch_distinct("user_id"), batch_format="pyarrow"))
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    if err_users is None:
        return rd.from_arrow(pa.schema(
            [("c_custkey", pa.int64()), ("c_name", pa.string())]).empty_table())
    # low-selectivity probe (few error users): the Bloom pre-screen drops
    # most customers before the exchange — zero false negatives, exact
    # verify in the per-range Acero join
    return exchange_join(cust, err_users, "c_custkey", "user_id",
                         how="left_semi", bloom_reduce=True)


def a_dup_user_event(sf_dir: str) -> rd.Dataset:
    """Group-count + having(count>1) (A1,
    ≙ duplicate counting ``check_fackel_references.py:32-37``)."""
    ev = read(sf_dir, "events", ["user_id", "event_type", "event_id"])
    agg = partial_groupby_agg(ev, ["user_id", "event_type"],
                              [("event_id", "count", "n")])
    return agg.map_batches(
        lambda b: b.filter(pc.greater(b["n"], 1)), batch_format="pyarrow")


def a_collect_event_types(sf_dir: str) -> rd.Dataset:
    """Group-collect list agg (A2, ≙ ``check_fackel_references.py:40-52``);
    deterministic order inside the collected list (SURVEY.md §7.4).

    Scale shape: ONE hash exchange co-locates each user's rows, then each
    partition does a vectorized sort + Arrow ``group_by(...).aggregate(list)``
    + ``binary_join`` — no per-group Python call (group-count-independent
    wall time; round 1 paid one Python call per user here)."""
    ev = read(sf_dir, "events", ["user_id", "event_type", "event_id"])
    out_schema = pa.schema([("user_id", pa.int64()), ("types", pa.string()),
                            ("n_events", pa.int64())])

    def collect_partition(tbl: pa.Table) -> pa.Table:
        idx = pc.sort_indices(tbl, sort_keys=[
            ("user_id", "ascending"), ("event_type", "ascending"),
            ("event_id", "ascending")])
        tbl = tbl.take(idx)
        agg = tbl.group_by(["user_id"], use_threads=False).aggregate(
            [("event_type", "list"), ("event_id", "count")])
        return pa.table({
            "user_id": agg["user_id"],
            "types": pc.binary_join(agg["event_type_list"], ","),
            "n_events": agg["event_id_count"],
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", collect_partition,
                                schema=out_schema)


def a_lang_source_counts(sf_dir: str) -> rd.Dataset:
    """Distinct pairs + counts (A3-adjacent exact distinct)."""
    docs = read(sf_dir, "documents", ["lang", "source", "doc_id"])
    return partial_groupby_agg(docs, ["lang", "source"],
                               [("doc_id", "count", "n")])


def o_topk_orders(sf_dir: str) -> rd.Dataset:
    """Sort desc + limit (O1/O3, ≙ ``check_fackel_references.py:33-35``)."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return topk(orders, [("o_totalprice", True), ("o_orderkey", False)], 10)


def o_union_priority(sf_dir: str) -> rd.Dataset:
    """Union of violation-style streams (O5, ≙ graph merges
    ``make_rdf.py:68``)."""
    orders = read(sf_dir, "orders",
                  ["o_orderkey", "o_orderpriority", "o_orderstatus"])
    urgent_open = orders.map_batches(
        lambda b: b.filter(pc.and_(pc.equal(b["o_orderpriority"], "1-URGENT"),
                                   pc.equal(b["o_orderstatus"], "O"))),
        batch_format="pyarrow")
    low_final = orders.map_batches(
        lambda b: b.filter(pc.and_(pc.equal(b["o_orderpriority"], "5-LOW"),
                                   pc.equal(b["o_orderstatus"], "F"))),
        batch_format="pyarrow")
    return urgent_open.union(low_final)


def m_part_classify(sf_dir: str) -> rd.Dataset:
    """Regex parse (M5) + rule-table classification (M10,
    ≙ ``curation/work_type_mapping.py:1-23``) + label synthesis (M12)."""
    part = read(sf_dir, "part", ["p_partkey", "p_name", "p_type", "p_brand"])

    def classify(batch: pa.Table) -> pa.Table:
        first_word = pc.coalesce(
            pc.struct_field(
                pc.extract_regex(batch["p_name"], r"^(?P<w>\w+)"), "w"),
            pa.scalar(""))
        ptype = np.asarray(batch["p_type"].to_pylist(), dtype=object)
        type_class = np.select(
            [ptype == "PROMO", np.isin(ptype, ["ECONOMY", "SMALL"])],
            ["promo", "value"], default="standard")
        label = pc.binary_join_element_wise(
            pa.scalar("part: "), batch["p_name"], pa.scalar(""))
        return pa.table({
            "p_partkey": batch["p_partkey"],
            "first_word": first_word,
            "type_class": pa.array(type_class.astype(object), pa.string()),
            "brand_uc": pc.utf8_upper(batch["p_brand"]),
            "label": label,
        })

    return part.map_batches(classify, batch_format="pyarrow")


def m_orders_per_year(sf_dir: str) -> rd.Dataset:
    """Date-part projection (M6) + grouped count."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def pre(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "year", pc.year(batch["o_orderdate"]).cast(pa.int64()))

    return partial_groupby_agg(orders, ["year"],
                               [("o_orderkey", "count", "n_orders")], pre=pre)


def m_doc_tokens(sf_dir: str) -> rd.Dataset:
    """Child-group enumeration flat-map (M11, ≙ ordinal-minting
    ``make_texts.py:375-383``): (doc_id, ordinal, token) child table."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less(batch["doc_id"], 20))
        if batch.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "ordinal": pa.array([], pa.int64()),
                             "token": pa.array([], pa.string())})
        toks = pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+")
        lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        lengths = np.nan_to_num(lengths.astype(np.float64), nan=0.0).astype(np.int64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        doc_rep = np.repeat(ids, lengths)
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        ordinal = np.arange(int(lengths.sum())) - np.repeat(offsets, lengths)
        return pa.table({
            "doc_id": pa.array(doc_rep, pa.int64()),
            "ordinal": pa.array(ordinal, pa.int64()),
            "token": flat,
        })

    return docs.map_batches(explode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# events: windowed aggregate + sessionization (SURVEY.md §2.7 batch-window)
# ---------------------------------------------------------------------------


def e_hourly_windows(sf_dir: str) -> rd.Dataset:
    """Tumbling-hour windowed aggregate via key projection + grouped agg."""
    ev = read(sf_dir, "events", ["ts", "event_type", "value"])

    def pre(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "hour", pc.floor_temporal(batch["ts"], unit="hour"))

    agg = partial_groupby_agg(
        ev, ["hour", "event_type"],
        [("value", "sum", "sum_value"), ("value", "count", "n_events")],
        pre=pre)
    return agg.map_batches(_round_stage({"sum_value": 2}),
                           batch_format="pyarrow")


def e_sessionize(sf_dir: str) -> rd.Dataset:
    """Sessionization (30-min inactivity gap) per user — the custom
    'windowed/stateful' operator class (SURVEY.md §2 custom ops).

    Scale shape: hash exchange on user_id, then per partition ONE sort by
    (user, ts) + a segmented numpy diff marks session starts (new user OR
    gap > 30 min) + vectorized grouped sum/count — no per-group Python."""
    ev = read(sf_dir, "events", ["user_id", "ts"])
    gap_us = 30 * 60 * 1_000_000
    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_sessions", pa.int64()),
                            ("n_events", pa.int64())])

    def sessions_partition(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts"])
        ts = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        new_s = np.zeros(tbl.num_rows, np.int64)
        new_s[1:] = np.diff(ts) > gap_us
        new_s[starts] = 1
        return pa.table({
            "user_id": tbl["user_id"].take(starts),
            "n_sessions": np.add.reduceat(new_s, starts),
            "n_events": np.diff(np.append(starts, tbl.num_rows)),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", sessions_partition,
                                schema=out_schema)


def e_gap_quantiles(sf_dir: str) -> rd.Dataset:
    """Exact per-key quantiles (p50/p90 of a user's inter-event gaps) — the
    grouped-quantile operator class, at scale: hash exchange on user_id, then
    per partition one sort by (user, ts) → segmented diff → one value sort by
    (user, gap) → vectorized segmented linear interpolation (same formula as
    SQL ``quantile_cont``). No per-group Python; wall time is independent of
    group count. Gaps reported in µs (interpolated halves are exact in
    float64, so the rounded output is engine-independent)."""
    ev = read(sf_dir, "events", ["user_id", "ts"])
    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_gaps", pa.int64()),
                            ("p50_gap_us", pa.float64()),
                            ("p90_gap_us", pa.float64())])

    def gap_partition(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts"])
        ts = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        later = np.ones(tbl.num_rows, bool)
        later[starts] = False
        g, starts = runs(pa.table({
            "user_id": tbl["user_id"].filter(later),
            "gap": np.diff(ts)[later[1:]].astype(np.float64)}),
            "user_id", ["gap"])
        gaps = g["gap"].to_numpy()
        counts = np.diff(np.append(starts, g.num_rows))

        def q_at(q: float) -> np.ndarray:
            x = q * (counts - 1)
            lo = x.astype(np.int64)
            frac = x - lo
            vlo = gaps[starts + lo]
            vhi = gaps[starts + np.minimum(lo + 1, counts - 1)]
            return round_half_away(vlo + frac * (vhi - vlo), 1)

        return pa.table({
            "user_id": g["user_id"].take(starts),
            "n_gaps": counts,
            "p50_gap_us": pa.array(q_at(0.5), pa.float64()),
            "p90_gap_us": pa.array(q_at(0.9), pa.float64()),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", gap_partition,
                                schema=out_schema)


# ---------------------------------------------------------------------------
# text analysis over documents (Beyond-the-reference components)
# ---------------------------------------------------------------------------


def t_token_stats(sf_dir: str) -> rd.Dataset:
    """Token counting (whitespace regex) — vectorized (M3-adjacent)."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": token_counts(batch["text"]).cast(pa.int64()),
            "n_chars": pc.utf8_length(batch["text"]).cast(pa.int64()),
        })

    return docs.map_batches(stats, batch_format="pyarrow")


def t_bpe_tokens(sf_dir: str) -> rd.Dataset:
    """BPE-style pre-tokenizer counting (the 'token budget' unit a training
    pipeline packs and filters on) — one vectorized RE2 pass per batch,
    alongside the whitespace count for the fertility ratio."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        bpe = bpe_token_counts(batch["text"]).cast(pa.int64())
        ws = token_counts(batch["text"]).cast(pa.int64())
        ratio = pc.divide(pc.cast(bpe, pa.float64()),
                          pc.cast(pc.max_element_wise(ws, 1), pa.float64()))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bpe_tokens": bpe,
            "n_ws_tokens": ws,
            "fertility": pc.round(ratio, ndigits=6,
                                  round_mode="half_towards_infinity"),
        })

    return docs.map_batches(counts, batch_format="pyarrow")


def t_quality(sf_dir: str) -> rd.Dataset:
    """Quality scoring: length/punct/digit/stopword ratios, mean token len."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def q(batch: pa.Table) -> pa.Table:
        f = quality_features(batch["text"])
        return pa.table({
            "doc_id": batch["doc_id"],
            "digit_ratio": pa.array(round_half_away(f["digit_ratio"], 6)),
            "punct_ratio": pa.array(round_half_away(f["punct_ratio"], 6)),
            "stopword_ratio": pa.array(round_half_away(f["stopword_ratio"], 6)),
            "mean_token_len": pa.array(round_half_away(f["mean_token_len"], 6)),
        })

    return docs.map_batches(q, batch_format="pyarrow")


def t_fingerprint(sf_dir: str) -> rd.Dataset:
    """Document fingerprinting: md5 (oracle-matched)."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "fp": pa.array(md5_hex(batch["text"]), pa.string()),
        })

    return docs.map_batches(fp, batch_format="pyarrow")


def t_fingerprint_extra(sf_dir: str) -> rd.Dataset:
    """Rolling-hash winnowing fingerprint + 64-bit SimHash (rows-only).

    Both signers run batched: the winnowing fingerprint as ``window``
    vectorized Mersenne-61 passes over the zero-copy utf-8 buffer
    (``hashing.rolling_fingerprints_batch``), the SimHash from
    dictionary-encoded token hashes (``hashing.simhash64_batch``) — each
    bitwise-equal to its scalar (property-tested), no per-row Python."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch["text"].combine_chunks()
        toks = pc.split_pattern_regex(texts, r"\s+")
        counts = pc.fill_null(pc.list_value_length(toks), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        enc = pc.list_flatten(toks).dictionary_encode()
        uniq = np.asarray(enc.dictionary, dtype=object)
        th = (pd.util.hash_array(uniq, categorize=False)
              [enc.indices.to_numpy(zero_copy_only=False)]
              if len(uniq) else np.empty(0, np.uint64))
        return pa.table({
            "doc_id": batch["doc_id"],
            "rolling_fp": pa.array(rolling_fingerprints_batch(texts),
                                   pa.uint64()),
            "simhash": pa.array(simhash64_batch(th, counts), pa.uint64()),
        })

    return docs.map_batches(fp, batch_format="pyarrow")


def t_lang_id(sf_dir: str) -> rd.Dataset:
    """Stopword-profile language ID (rows-only; heuristic, deterministic)."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def lid(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang_pred": pa.array(lang_id(batch["text"]), pa.string()),
        })

    return docs.map_batches(lid, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# validation-check queries over testdata tables (C-suite re-expressed)
# ---------------------------------------------------------------------------


def v_events_ts_range(sf_dir: str) -> rd.Dataset:
    """Timestamp range check (C4 analog over events)."""
    ev = read(sf_dir, "events", ["event_id", "ts"])
    return ev.map_batches(
        lambda b: b.filter(pc.greater_equal(b["ts"], pa.scalar(EVENTS_TS_MAX))),
        batch_format="pyarrow")


def v_doc_suite(sf_dir: str) -> rd.Dataset:
    """Fused per-row check suite over documents → violation rows
    (C2 non-null, C3 vocab, consistency, quality gate) — one pass."""
    docs = read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    vocab = pa.array(sorted(ISO_639_1))

    def checks(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_c, out_i, out_d = [], [], []

        def emit(check_id, mask, detail):
            sel = ids[np.asarray(mask)]
            out_c.extend([check_id] * len(sel))
            out_i.extend(sel)
            out_d.extend([detail] * len(sel))

        text_empty = pc.or_kleene(
            pc.is_null(batch["text"]),
            pc.equal(pc.coalesce(pc.utf8_length(batch["text"]), pa.scalar(0)), 0))
        emit("c2_nonnull", text_empty.to_numpy(zero_copy_only=False),
             "text null/empty")
        bad_lang = pc.invert(pc.is_in(batch["lang"], value_set=vocab))
        emit("c3_lang_vocab", bad_lang.to_numpy(zero_copy_only=False),
             "lang_not_in_vocab")
        mismatch = pc.not_equal(
            batch["n_chars"],
            pc.coalesce(pc.utf8_length(batch["text"]).cast(pa.int64()),
                        pa.scalar(-1, pa.int64())))
        emit("c7_nchars_consistent", mismatch.to_numpy(zero_copy_only=False),
             "n_chars != length(text)")
        emit("c8_quality_short",
             pc.less(batch["n_chars"], 100).to_numpy(zero_copy_only=False),
             "n_chars<100")
        return pa.table({
            "check_id": pa.array(out_c, pa.string()),
            "doc_id": pa.array(out_i, pa.int64()),
            "detail": pa.array(out_d, pa.string()),
        })

    return docs.map_batches(checks, batch_format="pyarrow")


def v_unique_doc_ids(sf_dir: str) -> pa.Table:
    """Global uniqueness of doc_id (C1 analog) via grouped count>1.

    Materialized with an explicit schema: an all-unique table yields ZERO
    violation rows, and an empty Dataset would otherwise lose its schema."""
    docs = read(sf_dir, "documents", ["doc_id", "lang"])
    agg = partial_groupby_agg(docs, ["doc_id"], [("lang", "count", "n")])
    dups = agg.map_batches(
        lambda b: b.filter(pc.greater(b["n"], 1)), batch_format="pyarrow")
    pdf = dups.to_pandas()
    schema = pa.schema([("doc_id", pa.int64()), ("n", pa.int64())])
    if pdf.empty:
        return schema.empty_table()
    return pa.Table.from_pandas(pdf[["doc_id", "n"]],
                                preserve_index=False).cast(schema)


# ---------------------------------------------------------------------------
# pages-table pipelines (the flagship surface; deterministic synthetic fixture
# sized to the sf dir — BASELINE.json input_hint shape)
# ---------------------------------------------------------------------------


def _pages_fixture(sf_dir: str) -> str:
    return ensure_pages(pages_nrows_for_sf(sf_dir))


def pages_validate(sf_dir: str) -> pa.Table:
    """Flagship: full constraint suite (C0-C6) over the pages table;
    returns the violation rows (≙ the reference's frozen review artifacts,
    ``AmbiguousFackelReferences.txt``, ``check_fackel_references.py:74-76``)."""
    fix = _pages_fixture(sf_dir)
    n = os.path.basename(fix)
    out = f"/tmp/lk_out/pages_{n}"
    run_validation(os.path.join(fix, "pages"), out,
                   lang_hist_path=os.path.join(fix, "lang_hist.parquet"))
    viol = load_violations(out)
    return viol.select(["check_id", "url", "detail"]).sort_by(
        [("check_id", "ascending"), ("url", "ascending"),
         ("detail", "ascending")])


def pages_links(sf_dir: str) -> rd.Dataset:
    """Outbound-link extraction flat-map (M1/M11): pages → child table
    keyed by (src_url, ordinal) (≙ mention enumeration
    ``make_texts.py:375-383``)."""
    fix = _pages_fixture(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        srcs, ords, dsts, anchors = [], [], [], []
        for u, h in zip(batch["url"].to_pylist(), batch["html"].to_pylist()):
            for i, (href, anchor) in enumerate(extract_links(h)):
                srcs.append(u)
                ords.append(i)
                dsts.append(href)
                anchors.append(anchor)
        return pa.table({
            "src_url": pa.array(srcs, pa.string()),
            "ordinal": pa.array(ords, pa.int32()),
            "dst_url": pa.array(dsts, pa.string()),
            "anchor": pa.array(anchors, pa.string()),
        })

    # link extraction fused into the read task: html never enters the
    # object store, only the (src, ordinal, dst, anchor) child rows do
    return fused_parquet_map(os.path.join(fix, "pages"), explode,
                             columns=["url", "html"])


def pages_anchor_text(sf_dir: str) -> rd.Dataset:
    """Inbound anchor-text aggregation per target URL — the classic
    web-graph training signal (anchor text of pages linking TO a url
    describes it better than the url itself; search and quality-filter
    corpora aggregate it exactly like this): per dst_url, the inlink
    count, the distinct-source count, and the sorted distinct anchor
    texts joined with ``" | "``.

    Scale shape: the (src, dst, anchor) child rows come from the fused
    scan (html never enters the object store, see ``pages_links``), each
    batch pre-dedupes (dst, anchor) / (dst, src) pairs map-side (cuts the
    boilerplate anchors a template site repeats on every page), then ONE
    hash exchange on dst_url co-locates each target's inlinks; per
    partition everything is two Arrow sorts + segmented numpy dedup +
    one ``binary_join`` — no per-group Python. n_inlinks counts ALL
    inlink rows, so it rides the same exchange un-deduped (a count
    partial, not rows)."""
    return _anchor_agg(pages_links(sf_dir))


def _anchor_agg(links: rd.Dataset) -> rd.Dataset:
    """Per-dst_url anchor aggregation core of ``pages_anchor_text`` —
    factored so the map-side multiplicity carry is unit-testable."""
    out_schema = pa.schema([
        ("dst_url", pa.string()), ("n_inlinks", pa.int64()),
        ("n_src", pa.int64()), ("anchors", pa.string())])

    def pre(batch: pa.Table) -> pa.Table:
        # map-side: collapse duplicate (dst, src, anchor) rows, carry the
        # collapsed multiplicity so the global inlink count stays exact
        t = batch.group_by(["dst_url", "src_url", "anchor"]) \
            .aggregate([("dst_url", "count")])
        return pa.table({
            "dst_url": t["dst_url"], "src_url": t["src_url"],
            "anchor": t["anchor"],
            "n": t["dst_url_count"].cast(pa.int64()),
        })

    def agg(tbl: pa.Table) -> pa.Table:
        # one row per distinct (dst, anchor) and per distinct (dst, src);
        # a second cut of those rows, already in dst order, finds each dst
        ta, first = runs(tbl, ["dst_url", "anchor"])
        n = np.add.reduceat(ta["n"].to_numpy(zero_copy_only=False), first)
        d, dst = runs(ta.take(first), "dst_url")
        ts, sfirst = runs(tbl, ["dst_url", "src_url"])
        _, sdst = runs(ts.take(sfirst), "dst_url")
        return pa.table({
            "dst_url": d["dst_url"].take(dst),
            "n_inlinks": np.add.reduceat(n, dst),
            "n_src": np.diff(np.append(sdst, len(sfirst))),
            "anchors": pc.binary_join(pa.ListArray.from_arrays(
                pa.array(np.append(dst, d.num_rows), pa.int32()),
                d["anchor"].combine_chunks()), " | "),
        }, schema=out_schema)

    pairs = links.map_batches(pre, batch_format="pyarrow")
    return hash_repartition_map(pairs, "dst_url", agg, schema=out_schema)


def mm_payload_meta(sf_dir: str) -> rd.Dataset:
    """Multimodal: binary payload sniff + per-kind byte accounting.

    The sniff+length is fused INTO the parquet read task (fused_parquet_map)
    so the multi-KB html payloads never enter the object store — only
    (url, kind, n_bytes) rows flow out of each scan item."""
    fix = _pages_fixture(sf_dir)
    meta = fused_parquet_map(os.path.join(fix, "pages"), payload_meta_table,
                             columns=["url", "html"])
    return partial_groupby_agg(
        meta, ["kind"],
        [("n_bytes", "sum", "total_bytes"), ("n_bytes", "count", "n")])


def mm_decode_feats(sf_dir: str) -> rd.Dataset:
    """Multimodal: stubbed decode/feature actor stage (fake decoder over the
    whole fixture — the deterministic fake is oracle-expressible, so the
    actor-pool plumbing is hash-checked end-to-end)."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "html"])
    feats = decode_features(pages, fake=True)
    return feats.select_columns(["url", "kind", "width", "height",
                                 "n_channels"])


def mm_frame_sample(sf_dir: str) -> rd.Dataset:
    """Multimodal: video frame-sampling flat-map stub (1 payload → N frame
    rows keyed by (url, frame_idx)); the deterministic fake derives frame
    boundaries from payload length, so it is oracle-expressible."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "html"])
    return pages.map_batches(
        FrameSampleStage, fn_constructor_kwargs=dict(fake=True, every_n=10),
        batch_format="pyarrow", batch_size=1024, concurrency=4,
        max_restarts=0)


def approx_stats(sf_dir: str) -> pa.Table:
    """Sketch sidecar (A6): HLL cardinalities + t-digest quantiles over
    documents, computed as mergeable per-batch partials (exact counterparts
    asserted in pytest; rows-only here — estimates are approximate by design)."""
    docs = read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        h_doc, h_lang, td = HyperLogLog(12), HyperLogLog(12), TDigest()
        # both HLL updates are fully vectorized: doc_id hashes the int64
        # buffer directly (no per-row str()); lang hashes only the TINY
        # dictionary of distinct strings and gathers per row by index —
        # zero per-row Python objects on this flagship-adjacent path.
        h_doc.update_hashes(pd.util.hash_array(
            batch["doc_id"].to_numpy(zero_copy_only=False)))
        lang_d = pc.dictionary_encode(
            pc.fill_null(batch["lang"].combine_chunks(), ""))
        uniq_h = pd.util.hash_array(
            np.asarray(lang_d.dictionary.to_pylist(), dtype=object),
            categorize=False)
        h_lang.update_hashes(
            uniq_h[lang_d.indices.to_numpy(zero_copy_only=False)])
        tl = pc.utf8_length(batch["text"]).to_numpy(
            zero_copy_only=False).astype(np.float64)
        td.update(tl[~np.isnan(tl)])
        return pa.table({
            "h_doc": pa.array([h_doc.to_bytes()], pa.binary()),
            "h_lang": pa.array([h_lang.to_bytes()], pa.binary()),
            "td": pa.array([td.to_bytes()], pa.binary()),
            "n": pa.array([batch.num_rows], pa.int64()),
        })

    parts = docs.map_batches(partial, batch_format="pyarrow").take_all()
    h_doc, h_lang, td = HyperLogLog(12), HyperLogLog(12), TDigest()
    n = 0
    for p in parts:
        h_doc = h_doc.merge(HyperLogLog.from_bytes(p["h_doc"]))
        h_lang = h_lang.merge(HyperLogLog.from_bytes(p["h_lang"]))
        td = td.merge(TDigest.from_bytes(p["td"]))
        n += p["n"]
    return pa.table({
        "n_rows": pa.array([n], pa.int64()),
        "doc_id_card_est": pa.array([round(h_doc.estimate(), 1)], pa.float64()),
        "lang_card_est": pa.array([round(h_lang.estimate(), 1)], pa.float64()),
        "textlen_p50_est": pa.array([round(td.quantile(0.5), 1)], pa.float64()),
        "textlen_p99_est": pa.array([round(td.quantile(0.99), 1)], pa.float64()),
    })


# ---------------------------------------------------------------------------
# round-1 additions: J4 best-match, J7 key-rewrite, J5 inverse edges,
# O4 sampling, §2.8 data-driven rule checks
# ---------------------------------------------------------------------------


def j_best_match_lineitem(sf_dir: str) -> rd.Dataset:
    """Best-match resolution per key (J4, ≙ staged match with tiebreaks
    ``scripts/enrich_fackel_bibls.py:67-117``): for each order, the lineitem
    with max extendedprice, ties broken by lowest linenumber."""
    line = read(sf_dir, "lineitem",
                ["l_orderkey", "l_linenumber", "l_extendedprice"])
    win = topk_per_key(line, "l_orderkey",
                       [("l_extendedprice", True), ("l_linenumber", False)], 1)
    return win.select_columns(["l_orderkey", "l_linenumber", "l_extendedprice"])


# J7 key-rewrite map (shared verbatim with the oracle CASE expression)
LANG_REMAP = {"en": "eng", "de": "deu", "fr": "fra", "es": "spa", "zh": "zho"}


def m_lang_remap(sf_dir: str) -> rd.Dataset:
    """Key-rewrite join (J7, ≙ old-key→new-key remap
    ``curation/fix_journal_keys.py:8-23``): broadcast map, unmatched keys
    pass through unchanged."""
    docs = read(sf_dir, "documents", ["doc_id", "lang"])
    keys = pa.array(list(LANG_REMAP))
    vals = pa.array(list(LANG_REMAP.values()))

    def remap(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch["lang"], value_set=keys)
        new = pc.coalesce(pc.take(vals, idx), batch["lang"])
        return pa.table({"doc_id": batch["doc_id"], "lang_new": new})

    return docs.map_batches(remap, batch_format="pyarrow")


def o_inverse_edges(sf_dir: str) -> rd.Dataset:
    """Inverse-edge derivation + global distinct (J5/A3,
    ≙ ``scripts/owl_inverse_props.py:99-134``): forward (lang→source) edges
    unioned with their inverses, exact-deduped."""
    docs = read(sf_dir, "documents", ["lang", "source"])
    fwd = docs.map_batches(
        lambda b: pa.table({"a": b["lang"], "b": b["source"]}),
        batch_format="pyarrow")
    inv = docs.map_batches(
        lambda b: pa.table({"a": b["source"], "b": b["lang"]}),
        batch_format="pyarrow")
    edges = fwd.union(inv)
    distinct = partial_groupby_agg(
        edges.map_batches(lambda b: b.append_column(
            "one", pa.array([1] * b.num_rows, pa.int64())),
            batch_format="pyarrow"),
        ["a", "b"], [("one", "count", "n")])
    return distinct.select_columns(["a", "b"])


def o_sample_orders(sf_dir: str) -> rd.Dataset:
    """Seeded random sample (O4; rows-only — sampling is engine-specific)."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return orders.random_sample(0.1, seed=42)


def v_rules_demo(sf_dir: str) -> rd.Dataset:
    """§2.8 user-extension surface: constraints as DATA (≙ the rule table
    ``curation/work_type_mapping.py:1-23``); one fused pass for all rules."""
    rules = [
        Rule("r_lang_vocab", "lang", "in_set", values=tuple(sorted(ISO_639_1)),
             detail="lang_not_in_vocab"),
        Rule("r_text_nonnull", "text", "not_null", detail="text null/empty"),
        Rule("r_nchars_range", "n_chars", "range", lo=100, hi=100_000,
             detail="n_chars outside [100, 100000)"),
        Rule("r_source_format", "source", "regex_match", pattern=r"src[0-9]+",
             detail="source !~ src[0-9]+"),
        Rule("r_nchars_consistent", "n_chars", "consistent_len",
             of_column="text", detail="n_chars != length(text)"),
    ]
    return run_rule_checks(read(sf_dir, "documents"), rules, id_col="doc_id")


def m_normalize_text(sf_dir: str) -> rd.Dataset:
    """String normalizer (M3, ≙ normalize_string: whitespace-collapse/trim,
    ``scripts/make_texts.py:293,377,392``) + casefold (M4) — pure Arrow
    kernels, no Python loop."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        t = pc.replace_substring_regex(
            batch["text"].combine_chunks(), r"\s+", " ")
        t = pc.utf8_lower(pc.utf8_trim_whitespace(t))
        return pa.table({"doc_id": batch["doc_id"], "norm_text": t})

    return docs.map_batches(norm, batch_format="pyarrow")


def m_nfc_normalize(sf_dir: str) -> rd.Dataset:
    """Unicode NFC normalization (M3/M4 family — the first cleaning pass
    any multilingual crawl needs; web text arrives in mixed NFC/NFD and
    string equality, dedup hashes and tokenizers all assume one form;
    ≙ the reference's string canonicalization, ``scripts/make_texts.py:
    293``). The testdata corpus is ASCII (NFC-invariant), so the stage
    first DECOMPOSES deterministically — every ``a`` becomes
    ``a + U+0301`` (combining acute) — giving the normalizer real work
    that both sides reproduce exactly; the oracle is DuckDB's own
    ``nfc_normalize``.

    Shape: embarrassingly parallel map_batches; the decompose and the
    codepoint counts are Arrow kernels. The compose step is
    ``unicodedata.normalize`` per string — normalization is intrinsically
    a per-string scalar kernel in stdlib Python (a 100-TB deployment
    swaps in a vectorized ICU transliterator behind the same batch
    seam); strings are processed once per batch, no shuffle."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        dec = pc.replace_substring(
            batch["text"].combine_chunks(), "a", "a\u0301")
        nfc = pa.array(
            [unicodedata.normalize("NFC", s) if s is not None else None
             for s in dec.to_pylist()], pa.string())
        return pa.table({
            "doc_id": batch["doc_id"],
            "text_nfc": nfc,
            "len_decomposed": pc.utf8_length(dec),
            "len_nfc": pc.utf8_length(nfc),
        })

    return docs.map_batches(norm, batch_format="pyarrow")


def pages_url_canon(sf_dir: str) -> rd.Dataset:
    """Url canonicalization stage (M4 key-canonicalization before any
    shuffle/join; rows-only): per-host counts of canonicalized urls."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"), columns=["url"])

    def canon(batch: pa.Table) -> pa.Table:
        canon_urls = normalize_urls_batch(batch["url"])
        host = pc.replace_substring_regex(
            canon_urls, r"^https?://([^/]*).*$", r"\1")
        return pa.table({"host": host,
                         "one": pa.array([1] * batch.num_rows, pa.int64())})

    hosts = pages.map_batches(canon, batch_format="pyarrow")
    return partial_groupby_agg(hosts, ["host"], [("one", "count", "n_pages")])


BLOCK_HOSTS = ["h0007.example-0.org", "h0012.example-5.org",
               "h0500.example-3.org"]
BLOCK_DOMAINS = ["example-3.org", "example-6.org"]


def pages_blocklist(sf_dir: str) -> rd.Dataset:
    """UT1-style URL blocklist filter (the standard web-corpus hygiene
    step — C4, RefinedWeb and CCNet all drop pages whose host or
    registered domain appears on a curated blocklist): a page is dropped
    iff its host matches an exact blocklist entry OR its registered
    domain (last two dot-labels) matches a blocked domain — so one domain
    entry blocks every subdomain. Both match kinds are exercised
    (``h0007`` is a hot Zipf host; the two domain entries cover ~2/7 of
    the fixture's traffic).

    Scale shape: pure broadcast-side filter (S2) — the blocklist ships to
    workers once with the task closure (at real scale the ~4M-entry UT1
    list is a single ``ray.put`` + per-batch ``pc.is_in``, the
    `relational.py:42` broadcast pattern); host and registered domain are
    vectorized regex extracts; no shuffle, no row loop, html never read
    (column pruning at the scan)."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "lang"])
    hosts_set = pa.array(BLOCK_HOSTS, pa.string())
    doms_set = pa.array(BLOCK_DOMAINS, pa.string())

    def filt(batch: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(batch["url"].combine_chunks(),
                             r"^https://(?P<h>[^/]+)/"), "h")
        dom = pc.struct_field(
            pc.extract_regex(host, r"(?P<d>[^.]+\.[^.]+)$"), "d")
        blocked = pc.or_kleene(pc.is_in(host, value_set=hosts_set),
                               pc.is_in(dom, value_set=doms_set))
        return batch.filter(pc.invert(pc.fill_null(blocked, False)))

    return pages.map_batches(filt, batch_format="pyarrow")


def pages_robots(sf_dir: str) -> rd.Dataset:
    """robots.txt politeness filter — the crawl-hygiene step every web
    corpus applies BEFORE a page may enter it (Common Crawl honors robots
    at fetch time; a reprocessing engine re-checks against the current
    rules): drop a page iff its host's ``User-agent: *`` group disallows
    the url path under RFC 9309 longest-match semantics (most specific
    rule wins; an Allow beats a Disallow of equal length).

    The engine parses the RAW robots.txt bytes (comments, mixed-case
    fields, other-agent groups, empty Disallow, multi-agent group heads —
    ``sources/robots.py:parse_robots``); the DuckDB oracle reads the
    parallel rules parquet the fixture wrote, so a hash match proves the
    parser AND the decision. Longest-match is evaluated as
    ``max(2*len(rule) + allow)`` over matching rules — odd max ⇒ allowed
    (the +1 encodes the RFC's Allow-wins tie rule).

    Scale shape: the parsed rules are a driver-side S2 artifact (1000
    hosts here; the real ~10⁸-host table is one ``ray.put`` of packed
    arrays, or an exchange_join on host beyond broadcast size — same
    decision either way); per batch the urls split host/path with ONE
    vectorized regex, rows group by host via ``np.unique``, and each
    host's ≤3 rules apply as vectorized ``pc.starts_with`` passes over
    that host's row subset. No shuffle; html never read."""
    fix = _pages_fixture(sf_dir)
    rfix = ensure_robots()

    rt = pq.read_table(os.path.join(rfix, "robots.parquet"))
    rules = {h: parse_robots(b) for h, b in
             zip(rt["host"].to_pylist(), rt["robots_txt"].to_pylist())}
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "lang"])

    def filt(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["url"].combine_chunks(),
                              r"^https://(?P<h>[^/]+)(?P<p>/.*)$")
        host = pc.struct_field(ex, "h").to_numpy(zero_copy_only=False)
        path = pc.struct_field(ex, "p")
        if isinstance(path, pa.ChunkedArray):
            path = path.combine_chunks()
        keep = np.ones(len(host), bool)
        uh, inv = np.unique(host, return_inverse=True)
        for k, h in enumerate(uh):
            rs = rules.get(h)
            if not rs:
                continue
            idx = np.nonzero(inv == k)[0]
            sub = path.take(pa.array(idx))
            best = np.zeros(len(idx), np.int64)
            for rp, allow in rs:
                m = pc.starts_with(sub, rp).to_numpy(zero_copy_only=False)
                score = 2 * len(rp) + int(allow)
                best = np.where(m & (score > best), score, best)
            keep[idx] = (best == 0) | (best % 2 == 1)
        return batch.filter(pa.array(keep))

    return pages.map_batches(filt, batch_format="pyarrow")


def v_profile_orders(sf_dir: str) -> pa.Table:
    """Distributed column profiler (the validation engine's 'describe', the
    explicit form of the reference's ad-hoc set-size counters,
    ``curation/check_authors_exist_in_listperson.py:12,19``): per-column
    null count + EXACT distinct count from one scan. Each batch emits
    batch-deduped (col, stringified val) pairs — map-side dedup means the
    exchange moves unique values only — plus per-column null partials; two
    map-side-combine groupbys finish. The 100-TB path swaps the exact
    distinct for the HLL sidecar (``approx_stats``); this is the exact,
    oracle-checked variant."""
    return _profile_exact(sf_dir, "orders",
                          ["o_orderkey", "o_custkey", "o_orderstatus",
                           "o_totalprice", "o_orderdate", "o_orderpriority"])


def _profile_exact(sf_dir: str, table: str, cols: list[str]) -> pa.Table:
    """Shared exact column profiler (see ``v_profile_orders``)."""
    orders = read(sf_dir, table, cols)
    n_rows = read(sf_dir, table, [cols[0]]).count()

    def pairs(batch: pa.Table) -> pa.Table:
        out_c, out_v, out_n = [], [], []
        for c in cols:
            arr = batch[c].combine_chunks()
            # stringify via Arrow cast — injective per type (shortest
            # round-trip repr), so distinct-of-strings == distinct-of-values
            u = pc.cast(pc.unique(pc.drop_null(arr)), pa.string())
            out_c.append(pa.array([c] * len(u), pa.string()))
            out_v.append(u)
            out_n.append(pa.array([0] * len(u), pa.int64()))
            out_c.append(pa.array([c], pa.string()))
            out_v.append(pa.array([None], pa.string()))
            out_n.append(pa.array([arr.null_count], pa.int64()))
        return pa.table({"col": pa.concat_arrays(out_c),
                         "val": pa.concat_arrays(out_v),
                         "n_null_part": pa.concat_arrays(out_n)})

    emitted = orders.map_batches(pairs, batch_format="pyarrow").materialize()
    nulls = partial_groupby_agg(
        emitted.map_batches(
            lambda b: b.filter(pc.is_null(b["val"])),
            batch_format="pyarrow"),
        ["col"], [("n_null_part", "sum", "n_null")]).to_pandas()
    dedup = partial_groupby_agg(
        emitted.map_batches(
            lambda b: b.filter(pc.is_valid(b["val"])),
            batch_format="pyarrow"),
        ["col", "val"], [("n_null_part", "count", "k")])
    distinct = partial_groupby_agg(
        dedup, ["col"], [("val", "count", "n_distinct")]).to_pandas()
    merged = nulls.merge(distinct, on="col", how="outer").fillna(0)
    return pa.table({
        "col": pa.array(merged["col"], pa.string()),
        "n_rows": pa.array([n_rows] * len(merged), pa.int64()),
        "n_null": pa.array(merged["n_null"].astype("int64")),
        "n_distinct": pa.array(merged["n_distinct"].astype("int64")),
    })


def v_profile_suggest(sf_dir: str) -> pa.Table:
    """Constraint SUGGESTION from the column profile (the Deequ /
    Great-Expectations 'suggest' pass — the step that turns a profiling
    scan into the constraint suite a validation engine then enforces;
    the machine form of how the reference's curation checks were
    authored by eyeballing set sizes,
    ``curation/check_authors_exist_in_listperson.py:12-21``): per
    column, the exact profile (one scan, map-side-deduped distincts)
    plus derived rules — ``not_null`` when no null was seen, ``unique``
    when distinct == rows, ``vocabulary`` when the distinct set is small
    enough to enforce as a broadcast membership check (≤16). The
    suggestion logic is mirrored in SQL, so the oracle checks profile
    AND derivation."""
    prof = _profile_exact(sf_dir, "documents",
                          ["doc_id", "lang", "source", "n_chars"])
    n_rows = prof["n_rows"].to_numpy(zero_copy_only=False)
    n_null = prof["n_null"].to_numpy(zero_copy_only=False)
    n_dist = prof["n_distinct"].to_numpy(zero_copy_only=False)
    sugg = []
    for r, nn, nd in zip(n_rows, n_null, n_dist):
        rules = []
        if nn == 0:
            rules.append("not_null")
        if nd == r:
            rules.append("unique")
        if nd <= 16:
            rules.append("vocabulary")
        sugg.append(",".join(rules))
    return prof.append_column("suggested", pa.array(sugg, pa.string()))


def v_zorder_prune(sf_dir: str) -> rd.Dataset:
    """Z-order clustered storage + two-dimensional zone-map pruning (the
    lakehouse OPTIMIZE ZORDER read path): events are rewritten ONCE
    clustered by morton(user_id, ts) (`pipelines/zorder.py` — one
    distributed min/max pass for quantization bounds, vectorized bit
    interleave, one global sort, 16 files whose parquet footers are the
    zone map), then a corner predicate (lowest 10% of BOTH dims, integer
    arithmetic so the oracle expression matches exactly) reads ONLY the
    files whose footer stats overlap — a linear sort could prune one
    dimension; the z-curve prunes both (file survival fraction asserted
    in pytest). Output = the filtered rows, plain-SQL oracle."""
    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    ev = read(sf_dir, "events", cols)
    a_lo, a_hi, b_lo, b_hi = minmax2(ev, "user_id", "ts")
    out = os.path.join("/tmp/lk_zorder",
                       os.path.basename(os.path.normpath(sf_dir)))
    if not os.path.isdir(out):
        zorder_write(ev, "user_id", "ts", out,
                     (a_lo, a_hi, b_lo, b_hi))
    u_rng = (a_lo, a_lo + (a_hi - a_lo) // 10)
    t_rng = (b_lo, b_lo + (b_hi - b_lo) // 10)
    survivors, _total = overlapping_files(out, "user_id", "ts",
                                          u_rng, t_rng)
    ds = rd.read_parquet(survivors)

    def filt(batch: pa.Table) -> pa.Table:
        tus = pc.cast(batch["ts"], pa.int64())
        mask = pc.and_(
            pc.and_(pc.greater_equal(batch["user_id"], u_rng[0]),
                    pc.less_equal(batch["user_id"], u_rng[1])),
            pc.and_(pc.greater_equal(tus, t_rng[0]),
                    pc.less_equal(tus, t_rng[1])))
        return batch.filter(mask).select(cols)

    return ds.map_batches(filt, batch_format="pyarrow")


def v_daily_lang_drift(sf_dir: str) -> pa.Table:
    """Windowed distribution drift (C5 per time bucket, ≙ the reference's
    histogram reports ``check_fackel_references.py:32-37`` sliced by date):
    per-day lang histograms tested chi-square against the corpus-wide
    mixture. One map-side-combine groupby moves only (day, lang) partial
    counts; the chi2 math runs on the tiny day×lang aggregate (zero-count
    cells included, as the test requires)."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts", "lang"])

    def day_lang(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(batch["warc_ts"], format="%Y-%m-%d"),
            "lang": batch["lang"],
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    counts = partial_groupby_agg(
        pages.map_batches(day_lang, batch_format="pyarrow"),
        ["day", "lang"], [("one", "sum", "n")]).to_pandas()
    pivot = counts.pivot_table(index="day", columns="lang", values="n",
                               aggfunc="sum", fill_value=0).sort_index()
    obs = pivot.to_numpy(dtype=np.float64)
    day_tot = obs.sum(axis=1)
    lang_tot = obs.sum(axis=0)
    total = obs.sum()
    exp = np.outer(day_tot, lang_tot) / total
    chi2 = ((obs - exp) ** 2 / exp).sum(axis=1)
    return pa.table({
        "day": pa.array(pivot.index.to_list(), pa.string()),
        "n": pa.array(day_tot.astype(np.int64)),
        "chi2": pa.array(round_half_away(chi2, 4), pa.float64()),
    })


def v_daily_lang_psi(sf_dir: str) -> pa.Table:
    """Population Stability Index per day vs the corpus-wide lang mixture
    — the OTHER industry drift metric next to C5's chi-square (model-
    monitoring convention: PSI < 0.1 stable, > 0.25 shifted). Same
    map-side-combine (day, lang) partial-count exchange as
    ``v_daily_lang_drift``; the PSI sum runs on the tiny day×lang grid.
    Zero cells are handled by add-½ smoothing on BOTH distributions
    (PSI is undefined at empty bins; the smoothing is mirrored exactly
    in the SQL oracle)."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts", "lang"])

    def day_lang(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(batch["warc_ts"], format="%Y-%m-%d"),
            "lang": batch["lang"],
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    counts = partial_groupby_agg(
        pages.map_batches(day_lang, batch_format="pyarrow"),
        ["day", "lang"], [("one", "sum", "n")]).to_pandas()
    pivot = counts.pivot_table(index="day", columns="lang", values="n",
                               aggfunc="sum", fill_value=0).sort_index()
    obs = pivot.to_numpy(dtype=np.float64)
    day_tot = obs.sum(axis=1)
    lang_tot = obs.sum(axis=0)
    total = obs.sum()
    L = obs.shape[1]
    p = (obs + 0.5) / (day_tot + 0.5 * L)[:, None]
    q = (lang_tot + 0.5) / (total + 0.5 * L)
    psi = ((p - q) * np.log(p / q[None, :])).sum(axis=1)
    return pa.table({
        "day": pa.array(pivot.index.to_list(), pa.string()),
        "n": pa.array(day_tot.astype(np.int64)),
        "psi": pa.array(round_half_away(psi, 6), pa.float64()),
    })


def v_count_anomaly(sf_dir: str) -> pa.Table:
    """Metric anomaly detection over the crawl's daily-volume time series
    (the Deequ/monitoring-suite check next to the drift family: "did a
    feed break or double-send on some day?"). Robust statistics — a day
    is anomalous when its row count deviates from the all-days MEDIAN by
    more than 3 × 1.4826 × MAD (the normal-consistent scaled median
    absolute deviation), which a single broken day cannot poison the way
    a mean/stddev rule can. Distributed shape: map-side day-count
    partials → one tiny exchange (≤ n_days rows per block); the median /
    MAD run driver-side on the n_days-row series. ≙ the reference's
    expected-triple-count assertions (``check_fackel_references.py``) as
    a per-day volume invariant."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts"])

    def day_one(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(batch["warc_ts"], format="%Y-%m-%d"),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    counts = partial_groupby_agg(
        pages.map_batches(day_one, batch_format="pyarrow"),
        ["day"], [("one", "sum", "n")]).to_pandas().sort_values("day")
    n = counts["n"].to_numpy(np.float64)
    med = float(np.median(n))
    mad = float(np.median(np.abs(n - med)))
    thr = 3.0 * 1.4826 * mad
    return pa.table({
        "day": pa.array(counts["day"].to_list(), pa.string()),
        "n": pa.array(n.astype(np.int64)),
        "med": pa.array(round_half_away(np.full(len(n), med), 6)),
        "dev": pa.array(round_half_away(np.abs(n - med), 6)),
        "is_anomaly": pa.array(np.abs(n - med) > thr),
    })


def pages_rolling_distinct_7d(sf_dir: str) -> pa.Table:
    """EXACT rolling 7-day distinct-URL count per day — the crawl
    novelty/coverage series ("how many unique pages did the last week
    touch?"). The naive plan runs one COUNT(DISTINCT) shuffle per window
    (7× the data, 4385×); this uses the first-in-window identity
    instead: a url counts in the window ending day d iff its FIRST
    occurrence inside [d−6, d] is the pair (url, day) with previous
    occurrence before d−6 — so each distinct (url, day) pair, with its
    per-url lag, contributes +1 to the contiguous window range
    d ∈ [max(day, prev+7), day+6]. Shape: per-batch (url, day) dedup →
    ONE hash exchange on url + segmented lag (``e_lag_diff`` idiom) →
    ≤7× flat expansion of (d, 1) partials → one tiny groupby-sum, then
    a broadcast filter to days actually present. Every step vectorized;
    nothing per-window, nothing driver-sized but the day series."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "warc_ts"])

    def url_day(batch: pa.Table) -> pa.Table:
        d = pc.cast(pc.cast(batch["warc_ts"], pa.date32()), pa.int32())
        return pa.table({"url": batch["url"], "day": d}) \
            .group_by(["url", "day"]).aggregate([])  # per-batch distinct

    # materialized once: consumed by both the window counts and the
    # days-present filter (per-batch-deduped pairs, far below input size)
    ud = pages.map_batches(url_day, batch_format="pyarrow").materialize()

    part_schema = pa.schema([("d", pa.int32()), ("one", pa.int64())])

    def contrib(tbl: pa.Table) -> pa.Table:
        # one row per distinct (url, day) pair (a pair can come from
        # several batches), then each url's first day
        t, pair = runs(tbl, ["url", "day"])
        t, first = runs(t.take(pair), "url")
        day = t["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        start = day.copy()
        start[1:] = np.maximum(day[1:], day[:-1] + 7)
        start[first] = day[first]
        lens = (day + 6 - start + 1).astype(np.int64)   # in [1, 7]
        offs = np.arange(lens.sum(), dtype=np.int64) \
            - np.repeat(np.cumsum(lens) - lens, lens)
        d = (np.repeat(start, lens) + offs).astype(np.int32)
        return pa.table({"d": pa.array(d, pa.int32()),
                         "one": pa.array(np.ones(len(d), np.int64))},
                        schema=part_schema)

    counts = collect_tables(partial_groupby_agg(
        hash_repartition_map(ud, "url", contrib, schema=part_schema),
        ["d"], [("one", "sum", "n_distinct_7d")]),
        pa.schema([("d", pa.int32()), ("n_distinct_7d", pa.int64())]))

    # windows whose end day has no crawl rows are not reported: filter
    # by the (tiny, driver-merged) set of days present
    days_present = partial_groupby_agg(
        ud.map_batches(lambda b: pa.table(
            {"day": b["day"],
             "one": pa.array(np.ones(b.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["day"], [("one", "sum", "_n")]).to_pandas()
    present = np.sort(days_present["day"].to_numpy().astype(np.int32))

    d32 = counts["d"].cast(pa.int32())
    keep = pc.is_in(d32, value_set=pa.array(present, pa.int32()))
    t = pa.table({"d": d32, "n": counts["n_distinct_7d"]}).filter(keep)
    return pa.table({
        "day": pc.strftime(t["d"].cast(pa.date32()), format="%Y-%m-%d"),
        "n_distinct_7d": t["n"],
    })


def pages_rolling_distinct_7d_hll(sf_dir: str) -> pa.Table:
    """Approximate rolling 7-day distinct-URL series via HyperLogLog —
    the 100-TB path next to the exact ``pages_rolling_distinct_7d``:
    instead of exchanging (url, day) pairs, each block reduces to one
    4 KB HLL per day it touches; per-day sketches OR-merge in one tiny
    groupby, and the 7-day window union is a register-wise max over 7
    shifted rows of the (n_days × m) register matrix — sketch
    mergeability doing the window, zero re-reads of the data. ε ≈ 1.6%
    at p=12; tests assert the series tracks the exact one within 5%."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "warc_ts"])

    def partials(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.cast(batch["warc_ts"], pa.date32()), pa.int32())
        t = pa.table({"day": day, "url": batch["url"]})
        g = t.group_by(["day"]).aggregate([("url", "list")])
        days, blobs = [], []
        for i in range(g.num_rows):
            h = HyperLogLog(12)
            h.update_strings(g["url_list"][i].as_py())
            days.append(g["day"][i].as_py())
            blobs.append(h.to_bytes())
        return pa.table({"day": pa.array(days, pa.int32()),
                         "sketch": pa.array(blobs, pa.binary())})

    def merge_day(group: pa.Table) -> pa.Table:
        h = HyperLogLog.from_bytes(group["sketch"][0].as_py())
        for b in group["sketch"].to_pylist()[1:]:
            h = h.merge(HyperLogLog.from_bytes(b))
        return pa.table({"day": group["day"][:1],
                         "sketch": pa.array([h.to_bytes()], pa.binary())})

    rows = map_groups(pages.map_batches(partials, batch_format="pyarrow"),
                      "day", merge_day).take_all()  # one 4 KB sketch/day

    rows.sort(key=lambda r: r["day"])
    days = np.array([r["day"] for r in rows], np.int32)
    regs = np.stack([np.frombuffer(r["sketch"], np.uint8, offset=1)
                     for r in rows])
    ests = []
    for i in range(len(days)):
        # union = register max over the days inside [day-6, day]
        in_win = (days >= days[i] - 6) & (days <= days[i])
        ests.append(HyperLogLog(
            12, regs[in_win].max(axis=0)).estimate())
    return pa.table({
        "day": pc.strftime(pa.array(days, pa.int32()).cast(pa.date32()),
                           format="%Y-%m-%d"),
        "n_est": pa.array(round_half_away(np.array(ests), 1), pa.float64()),
    })


def v_ts_monotonic(sf_dir: str) -> rd.Dataset:
    """Per-file warc_ts monotonicity violations — the "monotonic-range"
    half of the C4 constraint as first-class violation rows: within each
    input file, IN ROW ORDER, flag every record whose warc_ts is older
    than the running max of the records before it (an out-of-order fetch
    in the segment). Order is a per-FILE property, so the plan is one
    scan task per file (not per row-group slab): each task reads ONLY the
    (url, warc_ts) columns of its file, runs one vectorized
    ``np.maximum.accumulate``, and emits violation rows — no exchange at
    all; 10^5 segment files = 10^5 independent tasks."""
    fix = _pages_fixture(sf_dir)
    files = _parquet_files(os.path.join(fix, "pages"))
    ds = rd.from_arrow_refs([
        ray.put(pa.table({"path": [f]})) for f in files])

    out_schema = pa.schema([("file", pa.string()), ("url", pa.string()),
                            ("warc_ts", pa.timestamp("us")),
                            ("prev_max", pa.timestamp("us"))])

    def scan(batch: pa.Table) -> pa.Table:
        out = [out_schema.empty_table()]
        for p in batch["path"].to_pylist():
            tbl = pq.ParquetFile(p).read(columns=["url", "warc_ts"])
            ts = tbl["warc_ts"].cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            if len(ts) < 2:
                continue
            runmax = np.maximum.accumulate(ts)
            bad = np.zeros(len(ts), bool)
            bad[1:] = ts[1:] < runmax[:-1]
            if not bad.any():
                continue
            idx = pa.array(np.flatnonzero(bad), pa.int64())
            out.append(pa.table({
                "file": pa.array([os.path.basename(p)] * len(idx)),
                "url": tbl["url"].take(idx),
                "warc_ts": tbl["warc_ts"].take(idx),
                "prev_max": pa.array(
                    runmax[:-1][bad[1:]], pa.timestamp("us")),
            }, schema=out_schema))
        return pa.concat_tables(out)

    return ds.map_batches(scan, batch_format="pyarrow", batch_size=1)


def pages_rolling_p95_len_7d(sf_dir: str) -> pa.Table:
    """Rolling 7-day p95 of extracted-text length — the windowed
    QUANTILE companion to ``pages_rolling_distinct_7d_hll``: one
    mergeable t-digest per (block, day) partial, per-day merge in one
    tiny groupby, then each window's digest is the MERGE of its ≤7 day
    digests (t-digest mergeability doing the window — no second pass
    over the data, constant bytes per day on the wire). Approximate by
    construction ⇒ no SQL oracle; the series is ε-tested against exact
    per-window quantiles in tests/test_sketches.py."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts", "text"])

    def partials(batch: pa.Table) -> pa.Table:
        day = pc.cast(pc.cast(batch["warc_ts"], pa.date32()), pa.int32()) \
            .to_numpy(zero_copy_only=False)
        ln = pc.fill_null(pc.utf8_length(batch["text"]), 0) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        # segment by day with ONE sort; each digest ingests a numpy
        # SLICE (the group_by + per-group as_py() list conversion paid
        # most of this stage's 18 s at sf0.1)
        t, starts = runs(pa.table({"day": day, "ln": ln}), "day")
        day_s, ln_s = t["day"].to_numpy(), t["ln"].to_numpy()
        ends = np.append(starts[1:], len(day_s))
        days, blobs = [], []
        for s, e in zip(starts, ends):
            d = TDigest()
            d.update(ln_s[s:e])
            days.append(int(day_s[s]))
            blobs.append(d.to_bytes())
        return pa.table({"day": pa.array(days, pa.int32()),
                         "sketch": pa.array(blobs, pa.binary())})

    sketch_schema = pa.schema([("day", pa.int32()), ("sketch", pa.binary())])

    def merge_partition(tbl: pa.Table) -> pa.Table:
        # all partials of a day land in one range: local segmented merge
        tbl, starts = runs(tbl, "day")
        day = tbl["day"].to_numpy(zero_copy_only=False)
        blobs = tbl["sketch"].to_pylist()
        ends = np.append(starts[1:], len(day))
        out_b = [TDigest.merge_many([TDigest.from_bytes(b)
                                     for b in blobs[s:e]]).to_bytes()
                 for s, e in zip(starts, ends)]
        return pa.table({"day": day[starts], "sketch": out_b},
                        schema=sketch_schema)

    rows = hash_repartition_map(
        pages.map_batches(partials, batch_format="pyarrow"),
        "day", merge_partition,
        schema=sketch_schema).take_all()    # one small digest per day

    rows.sort(key=lambda r: r["day"])
    days = np.array([r["day"] for r in rows], np.int32)
    digs = [TDigest.from_bytes(r["sketch"]) for r in rows]
    means = [d.means for d in digs]
    counts = [d.counts for d in digs]
    p95 = []
    for i in range(len(days)):
        lo = int(np.searchsorted(days, days[i] - 6))  # sorted window
        # quantile straight off the window's CONCATENATED centroids —
        # compression only bounds digest SIZE; re-compressing ≤7 day
        # digests per window paid 15 s of Python centroid loops on the
        # 4385-day series, and skipping it loses no accuracy (strictly
        # fewer merge approximations)
        m = np.concatenate(means[lo:i + 1])
        c = np.concatenate(counts[lo:i + 1])
        order = np.argsort(m, kind="stable")
        m, c = m[order], c[order]
        cum = np.cumsum(c) - c / 2
        p95.append(float(np.interp(0.95 * c.sum(), cum, m)))
    return pa.table({
        "day": pc.strftime(pa.array(days, pa.int32()).cast(pa.date32()),
                           format="%Y-%m-%d"),
        "p95_len_est": pa.array(round_half_away(np.array(p95), 2),
                                pa.float64()),
    })


def a_lang_fractions(sf_dir: str) -> rd.Dataset:
    """Distribution check input (A7/C5, ≙ histogram reports
    ``check_fackel_references.py:32-37``): per-lang counts + fraction of
    total, computed from map-side partials + one broadcast total."""
    docs = read(sf_dir, "documents", ["doc_id", "lang"])
    counts = partial_groupby_agg(docs, ["lang"], [("doc_id", "count", "n")])
    total = read(sf_dir, "documents", ["doc_id"]).count()

    def frac(batch: pa.Table) -> pa.Table:
        f = pc.divide(pc.cast(batch["n"], pa.float64()), float(total))
        return batch.append_column(
            "fraction",
            pc.round(f, ndigits=6, round_mode="half_towards_infinity"))

    return counts.map_batches(frac, batch_format="pyarrow")


def pages_dangling_links(sf_dir: str) -> pa.Table:
    """C7 cross-document link integrity (north-star item): link rows whose
    dst_url has no matching page — big-to-big anti-join, one
    ``exchange_join`` left_anti (checks/links.py). Rows-only here; the pytest
    suite cross-checks against an exact DuckDB anti-join."""
    fix = _pages_fixture(sf_dir)
    pages_files = sorted(glob.glob(os.path.join(fix, "pages", "*.parquet")))
    links_file = os.path.join(fix, "links.parquet")
    out = find_dangling_links(pages_files, [links_file])
    return out.sort_by([("src_url", "ascending"), ("ordinal", "ascending")])


def e_asof_last_order(sf_dir: str) -> rd.Dataset:
    """As-of join (custom operator; guide 'as-of / range join'): for each
    event, the customer's latest order at-or-before the event time, with a
    deterministic tiebreak on order key."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    orders = orders.rename_columns({"o_custkey": "user_id"})
    out = asof_join(ev, orders, "user_id", "ts", "o_orderdate",
                    left_cols=["event_id"], right_cols=["o_totalprice"],
                    right_tiebreak="o_orderkey")
    return out.map_batches(
        lambda b: pa.table({"event_id": b["event_id"],
                            "user_id": b["user_id"],
                            "last_totalprice": b["o_totalprice"]}),
        batch_format="pyarrow")


def dd_clusters(sf_dir: str) -> rd.Dataset:
    """Near-dup clustering: connected components (min-label propagation)
    over exact shingle-Jaccard pairs — pairs → clusters, the step a real
    dedup pipeline needs before choosing keepers."""
    pairs = shingle_jaccard_pairs_matmul(
        read(sf_dir, "documents", ["doc_id", "text"]), "doc_id", "text",
        k=2, threshold=JACCARD_THRESHOLD)
    return connected_components(pairs)


def td_curate(sf_dir: str) -> pa.Table:
    """End-to-end training-data curation funnel over the pages fixture
    (validate → clean split → LSH dedup → quality filter); returns the
    one-row funnel so the driver sees a deterministic shape (rows-only)."""
    fix = _pages_fixture(sf_dir)
    out = f"/tmp/lk_out/curate_{os.path.basename(fix)}"
    shutil.rmtree(out, ignore_errors=True)
    funnel = curate_pages(os.path.join(fix, "pages"), out,
                          lang_hist_path=os.path.join(fix, "lang_hist.parquet"))
    return pa.table({
        "n_input": pa.array([funnel["n_input"]], pa.int64()),
        "n_clean": pa.array([funnel["n_clean"]], pa.int64()),
        "n_after_dedup": pa.array([funnel["n_after_dedup"]], pa.int64()),
        "n_curated": pa.array([funnel["n_curated"]], pa.int64()),
    })


# incremental split point shared verbatim with the oracle SQL
BLOOM_SPLIT_TS = np.datetime64("2024-01-20", "us")


def dd_bloom_incremental(sf_dir: str) -> pa.Table:
    """Bloom-prescreened incremental membership (A6 put to work end-to-end):
    events of 'today's batch' (ts ≥ split) whose user was already seen in the
    committed corpus (ts < split) — Bloom pre-screen (zero false negatives)
    + exact semi-join verify, so the result is exact and oracle-checkable
    despite the sketch."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts"])
    split = pa.scalar(BLOOM_SPLIT_TS)

    def side(new: bool):
        op = pc.greater_equal if new else pc.less

        def fn(batch: pa.Table) -> pa.Table:
            return batch.filter(op(batch["ts"], split)).select(
                ["event_id", "user_id"])

        return fn

    committed = ev.map_batches(side(False), batch_format="pyarrow")
    incoming = ev.map_batches(side(True), batch_format="pyarrow")
    out = bloom_incremental_members(committed, incoming, ["user_id"],
                                    capacity=1 << 16)
    # explicit-schema materialization: an empty result must keep its columns
    return collect_tables(out, pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64())]))


def m_geo_wkt(sf_dir: str) -> rd.Dataset:
    """Geo WKT point formatting (M7, ≙ ``utils/utilities.py:507-514``:
    '"lon lat"' text → Point WKT literal). The lon/lat text is derived from
    integer columns so string formatting is engine-independent."""
    cust = read(sf_dir, "customer", ["c_custkey"])

    def wkt(batch: pa.Table) -> pa.Table:
        key = batch["c_custkey"].to_numpy(zero_copy_only=False)
        lon = pa.array(key % 360 - 180, pa.int64())
        lat = pa.array(key % 180 - 90, pa.int64())
        lon_lat = pc.binary_join_element_wise(
            pc.cast(lon, pa.string()), pc.cast(lat, pa.string()), " ")
        return pa.table({"c_custkey": batch["c_custkey"],
                         "wkt": point_wkt(lon_lat)})

    return cust.map_batches(wkt, batch_format="pyarrow")


def o_limit_orders(sf_dir: str) -> rd.Dataset:
    """Deterministic limit/head (O3, ≙ the reference's LIMIT env gate
    ``scripts/make_rdf.py:25-29``): first 100 orders by key."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return orders.sort("o_orderkey").limit(100)


def a_distinct_users_per_type(sf_dir: str) -> rd.Dataset:
    """Exact grouped distinct-count (count(DISTINCT ...) GROUP BY): per-batch
    distinct pairs shrink the stream map-side, one grouped count dedups
    globally, a second tiny grouped count yields the cardinality — the
    shuffle moves distinct pairs, never raw events."""
    ev = read(sf_dir, "events", ["event_type", "user_id"])

    def batch_pairs(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type", "user_id"]).aggregate([])

    pairs = ev.map_batches(batch_pairs, batch_format="pyarrow")
    dedup = partial_groupby_agg(pairs, ["event_type", "user_id"],
                                [("user_id", "count", "c")])
    return partial_groupby_agg(dedup, ["event_type"],
                               [("user_id", "count", "n_users")])


def pages_host_counts(sf_dir: str) -> rd.Dataset:
    """Skew-safe per-host page counts over the Zipf-skewed fixture hosts
    (SURVEY.md §4 'Skew'), with a DuckDB oracle: map-side partials shrink
    a hot host to one row per block before the merge, so no salting is
    needed."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"), columns=["url"])

    def host_of(batch: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(batch["url"].combine_chunks(),
                             r"^https://(?P<h>[^/]+)/"), "h")
        return pa.table({"host": host,
                         "one": pa.array(np.ones(len(host), np.int64))})

    return partial_groupby_agg(pages, ["host"], [("one", "count", "n_pages")],
                               pre=host_of)


def g_host_graph(sf_dir: str) -> rd.Dataset:
    """Host-level link graph — the compressed web graph a crawl
    scheduler and host-rank (host-PageRank / harmonic-centrality)
    pipelines actually run on: page links collapsed to weighted
    host→host edges (n_links = link multiplicity, n_pages = distinct
    linking pages), self-host edges dropped.

    Scale shape: hosts are regex-extracted from the fused-scan link
    rows; each batch pre-aggregates (src_host, dst_host, src_url) →
    multiplicity map-side, so the 10⁹-page graph collapses toward the
    ~10⁶-host edge list BEFORE the wire; ONE hash exchange on src_host
    then finishes both aggregates per partition with two Arrow
    group_bys (sum of multiplicities = n_links, count of distinct
    pages = n_pages) — no joins, no per-edge Python."""
    links = pages_links(sf_dir)

    def edges(batch: pa.Table) -> pa.Table:
        sh = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        dh = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": sh, "dst_host": dh,
                      "src_url": batch["src_url"]})
        t = t.filter(pc.invert(pc.equal(sh, dh)))
        g = t.group_by(["src_host", "dst_host", "src_url"]) \
            .aggregate([("src_url", "count")])
        return pa.table({
            "src_host": g["src_host"], "dst_host": g["dst_host"],
            "src_url": g["src_url"],
            "n": g["src_url_count"].cast(pa.int64())})

    e = links.map_batches(edges, batch_format="pyarrow")
    out_schema = pa.schema([
        ("src_host", pa.string()), ("dst_host", pa.string()),
        ("n_links", pa.int64()), ("n_pages", pa.int64())])

    def agg(tbl: pa.Table) -> pa.Table:
        # finish the map-side partials: collapse (edge, page) across
        # batches first, then reduce to the edge level
        p = tbl.group_by(["src_host", "dst_host", "src_url"]) \
            .aggregate([("n", "sum")])
        g = p.group_by(["src_host", "dst_host"]) \
            .aggregate([("n_sum", "sum"), ("src_url", "count")])
        return pa.table({
            "src_host": g["src_host"], "dst_host": g["dst_host"],
            "n_links": g["n_sum_sum"].cast(pa.int64()),
            "n_pages": g["src_url_count"].cast(pa.int64())},
            schema=out_schema)

    return hash_repartition_map(e, "src_host", agg, schema=out_schema)


def g_hits(sf_dir: str) -> pa.Table:
    """HITS hubs & authorities over the host graph (Kleinberg 1999 —
    the other classic web ranking signal next to ``g_pagerank``): page
    links collapse to DISTINCT host→host edges (self-host edges
    dropped; HITS on a multigraph would count multiplicity, so the
    global edge dedup is part of the semantics), then 5 alternating
    L2-normalized a=Aᵀh / h=Aa iterations (`pipelines/graph.py:hits` —
    local np.bincount fast path at driver scale, broadcast two-pass
    shape property-tested equal). Oracle: the iteration UNROLLED into
    one CTE layer per half-step, compared on 6-decimal rounding (the
    ``g_pagerank`` convention). Reads the links table (the ``g_pagerank``
    input convention); ``pages_anchor_text`` covers the html-extraction
    path."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def host_edges(batch: pa.Table) -> pa.Table:
        sh = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        dh = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": sh, "dst_host": dh})
        t = t.filter(pc.invert(pc.equal(sh, dh)))
        return t.group_by(["src_host", "dst_host"]).aggregate([])

    e = links.map_batches(host_edges, batch_format="pyarrow")
    # exchange dedup: pair-key cardinality ≈ block size
    dedup = hash_repartition_map(
        e, "src_host",
        lambda t: t.group_by(["src_host", "dst_host"]).aggregate([]))
    return hits(dedup, "src_host", "dst_host", iters=5)


def pages_recrawl_delta(sf_dir: str) -> rd.Dataset:
    """Per-URL recrawl churn over a multi-capture web archive (the CDX /
    wayback shape; ≙ the reference's per-entity time-span derivation,
    ``scripts/make_listwork.py:236-243`` — one entity, many dated
    states): for every url, how many
    captures exist and how often the content actually changed between
    consecutive captures — the signal a recrawl scheduler and a
    snapshot-dedup policy both feed on.

    Shape: the scan projects (url, capture_ts, 64-bit text hash) so only
    24-byte rows cross the wire — the body NEVER leaves the read task
    (at 100 TB the captures dominate corpus bytes; a content-equality
    lag needs only the hash). ONE hash exchange on url co-locates each
    url's captures (``hash_repartition_map`` — no global sort), then a
    per-partition vectorized sort + shifted-compare computes the lag in
    Arrow/numpy, and a ``group_by`` C++ aggregate emits one row per url.
    The oracle compares lag(text) STRINGS — equal on the fixture; a
    64-bit hash collision (p ≈ n·2⁻⁶⁴) is the documented trade.
    Input is the deterministic capture corpus (``sources/recrawl.py``;
    the pages fixture is capture-unique by construction)."""
    fix = ensure_recrawl(recrawl_nurls_for_sf(sf_dir))
    caps = rd.read_parquet(fix, columns=["url", "capture_ts", "text"])

    def project(batch: pa.Table) -> pa.Table:
        th = hash_strings64(
            pc.fill_null(batch["text"], "").to_numpy(zero_copy_only=False))
        return pa.table({
            "url": batch["url"],
            "capture_ts": batch["capture_ts"],
            "th": pa.array(th.view(np.int64), pa.int64()),
        })

    out_schema = pa.schema([
        ("url", pa.string()), ("n_captures", pa.int64()),
        ("n_changes", pa.int64()), ("churn", pa.float64())])

    def churn(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "url", ["capture_ts"])
        th = tbl["th"].to_numpy(zero_copy_only=False)
        chg = np.zeros(tbl.num_rows, np.int64)
        chg[1:] = th[1:] != th[:-1]
        chg[starts] = 0
        n_caps = np.diff(np.append(starts, tbl.num_rows))
        n_chg = np.add.reduceat(chg, starts)
        return pa.table({
            "url": tbl["url"].take(starts),
            "n_captures": n_caps,
            "n_changes": n_chg,
            "churn": round_half_away(
                n_chg / np.maximum(n_caps - 1, 1).astype(np.float64), 6),
        }, schema=out_schema)

    proj = caps.map_batches(project, batch_format="pyarrow")
    return hash_repartition_map(proj, "url", churn, schema=out_schema)


def pages_fetch_gaps(sf_dir: str) -> rd.Dataset:
    """Per-host crawl-politeness profile: the gaps between successive
    fetches of the same host (the number a crawl scheduler tunes and an
    abuse auditor reads) — per host, the fetch count, gap count, minimum
    gap and exact gap sum in microseconds. Single-fetch hosts report
    null min/sum (no gap), matching SQL aggregate semantics.

    Scale shape: (host, ts) pairs only on the wire (16 bytes/row — url
    path and html never leave the scan), ONE hash exchange on host, then
    per partition one sort + segmented ``np.diff`` +
    ``minimum/add.reduceat`` — no per-host Python. Hot Zipf hosts are
    fine: the per-host work is O(n log n) vectorized."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "warc_ts"])

    def host_ts(batch: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(batch["url"].combine_chunks(),
                             r"^https://(?P<h>[^/]+)/"), "h")
        return pa.table({"host": host,
                         "ts": batch["warc_ts"].cast(pa.int64())})

    out_schema = pa.schema([
        ("host", pa.string()), ("n_fetches", pa.int64()),
        ("n_gaps", pa.int64()), ("min_gap_us", pa.int64()),
        ("sum_gap_us", pa.int64())])

    def agg(tbl: pa.Table) -> pa.Table:
        t, starts = runs(tbl, "host", ["ts"])
        ts = t["ts"].to_numpy(zero_copy_only=False)
        n_seg = len(starts)
        n_fetches = np.diff(np.append(starts, len(ts)))
        # within-host gaps: every adjacent diff except host boundaries;
        # per host they form a contiguous run, so reduceat finishes it
        gap_mask = np.ones(max(len(ts) - 1, 0), dtype=bool)
        gap_mask[starts[1:] - 1] = False
        gaps = np.diff(ts)[gap_mask]
        gcnt = n_fetches - 1
        has_gap = gcnt > 0
        gstarts = np.concatenate([[0], np.cumsum(gcnt)])[:-1][has_gap]
        min_gap = np.zeros(n_seg, np.int64)
        sum_gap = np.zeros(n_seg, np.int64)
        if gaps.size:
            min_gap[has_gap] = np.minimum.reduceat(gaps, gstarts)
            sum_gap[has_gap] = np.add.reduceat(gaps, gstarts)
        return pa.table({
            "host": t["host"].take(starts),
            "n_fetches": pa.array(n_fetches, pa.int64()),
            "n_gaps": pa.array(n_fetches - 1, pa.int64()),
            "min_gap_us": pa.array(min_gap, pa.int64(), mask=~has_gap),
            "sum_gap_us": pa.array(sum_gap, pa.int64(), mask=~has_gap),
        }, schema=out_schema)

    rows = pages.map_batches(host_ts, batch_format="pyarrow")
    return hash_repartition_map(rows, "host", agg, schema=out_schema)


def m_parse_props(sf_dir: str) -> rd.Dataset:
    """Semi-structured field extraction (M2-adjacent): pull the numeric ``k``
    out of the JSON ``props`` column with a vectorized Arrow regex (flat
    single-key JSON — a real parser would be an actor-pool stage), then sum
    per event_type via map-side partials."""
    ev = read(sf_dir, "events", ["event_type", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(batch["props"].combine_chunks(),
                             r'"k":\s*(?P<k>-?[0-9]+)'), "k"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": k})

    parsed = ev.map_batches(parse, batch_format="pyarrow")
    return partial_groupby_agg(parsed, ["event_type"],
                               [("k", "sum", "sum_k"), ("k", "count", "n")])


def e_lag_diff(sf_dir: str) -> rd.Dataset:
    """Per-key lag/diff window (time since previous event per user, µs):
    hash exchange + ONE sort per partition + a segmented shifted diff —
    first event of each user gets null, no per-group Python."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out_schema = pa.schema([("event_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("gap_us", pa.int64())])

    def lag(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts", "event_id"])
        ts = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        gap = np.zeros(tbl.num_rows, dtype=np.int64)
        gap[1:] = np.diff(ts)
        first = np.zeros(tbl.num_rows, dtype=bool)
        first[starts] = True
        return pa.table({
            "event_id": tbl["event_id"],
            "user_id": tbl["user_id"],
            "gap_us": pa.array(gap, pa.int64(), mask=first),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", lag, schema=out_schema)


def o_topk_per_cust(sf_dir: str) -> rd.Dataset:
    """Grouped top-k (the general-k window-rank operator): each customer's
    3 most expensive orders — hash exchange + segmented vectorized rank
    (relational.topk_per_key), never a per-group Python call."""
    orders = read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    return topk_per_key(orders, "o_custkey",
                        [("o_totalprice", True), ("o_orderkey", False)], 3)


def e_rolling_avg(sf_dir: str) -> rd.Dataset:
    """Per-key rolling window (3-event moving average of value per user,
    ordered by ts): hash exchange, ONE sort per partition, then a segmented
    prefix-sum — windows never cross user boundaries, no per-group Python."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    out_schema = pa.schema([("event_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("rolling_avg", pa.float64())])

    def roll(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts", "event_id"])
        v = tbl["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = tbl.num_rows
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        i = np.arange(n)
        lo = np.maximum(i - 2, seg_start)
        csum = np.concatenate([[0.0], np.cumsum(v)])
        avg = (csum[i + 1] - csum[lo]) / (i - lo + 1)
        return pa.table({
            "event_id": tbl["event_id"],
            "user_id": tbl["user_id"],
            "rolling_avg": pa.array(round_half_away(avg, 6), pa.float64()),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", roll, schema=out_schema)


def a_pivot_lang_source(sf_dir: str) -> rd.Dataset:
    """Pivot/crosstab (conditional aggregation, M8-adjacent): per lang, doc
    counts split across three source-id buckets — indicator columns computed
    map-side, so the shuffle moves (langs × batches) partial rows only."""
    docs = read(sf_dir, "documents", ["lang", "source"])

    def indicators(batch: pa.Table) -> pa.Table:
        src_num = pc.cast(pc.coalesce(pc.struct_field(
            pc.extract_regex(batch["source"], r"src(?P<n>[0-9]+)"), "n"),
            pa.scalar("0")), pa.int64()).to_numpy(zero_copy_only=False)
        bucket = src_num % 3
        cols = {"lang": batch["lang"]}
        for b in range(3):
            cols[f"src_bucket{b}"] = pa.array(
                (bucket == b).astype(np.int64), pa.int64())
        return pa.table(cols)

    ind = docs.map_batches(indicators, batch_format="pyarrow")
    return partial_groupby_agg(ind, ["lang"], [
        (f"src_bucket{b}", "sum", f"src_bucket{b}") for b in range(3)])


# quantity bands for the range join (mirrored in the oracle VALUES list)
QTY_BANDS = [(0.0, 10.0, "tiny"), (10.0, 20.0, "small"),
             (20.0, 35.0, "medium"), (35.0, 51.0, "large")]


def j_range_quantity_bands(sf_dir: str) -> rd.Dataset:
    """Range/interval join (custom operator): each lineitem's quantity band
    via a broadcast sorted-interval probe; grouped count+revenue per band."""
    bands = pa.table({
        "lo": pa.array([b[0] for b in QTY_BANDS], pa.float64()),
        "hi": pa.array([b[1] for b in QTY_BANDS], pa.float64()),
        "band": pa.array([b[2] for b in QTY_BANDS], pa.string()),
    })
    line = read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
    banded = interval_join(line, bands, "l_quantity")
    agg = partial_groupby_agg(
        banded, ["band"],
        [("l_quantity", "count", "n"), ("l_extendedprice", "sum", "sum_price")])
    return agg.map_batches(_round_stage({"sum_price": 2}),
                           batch_format="pyarrow")


def e_sliding_windows(sf_dir: str) -> rd.Dataset:
    """Sliding-window aggregate (1h windows, 30min hop): each event lands in
    two windows via a vectorized flat-map on the epoch grid, then grouped
    counts — the window assignment never leaves int64 arithmetic."""
    ev = read(sf_dir, "events", ["ts", "event_type"])
    HOP_US = 1_800_000_000  # 30 min in microseconds

    def explode(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        grid = (ts // HOP_US) * HOP_US
        starts = np.concatenate([grid - HOP_US, grid])
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        return pa.table({
            "ws": pa.array(starts, pa.int64()).cast(pa.timestamp("us")),
            "event_type": pa.array(np.concatenate([et, et]), pa.string()),
        })

    win = ev.map_batches(explode, batch_format="pyarrow")
    return partial_groupby_agg(win, ["ws", "event_type"],
                               [("event_type", "count", "n")])


def t_top_tokens(sf_dir: str) -> rd.Dataset:
    """Corpus word count, top 20 tokens (the canonical distributed
    aggregation): vectorized token explode → map-side partial counts →
    vectorized merge → distributed top-k with deterministic tiebreak."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+"))
        return pa.table({"token": toks,
                         "one": pa.array(np.ones(len(toks), dtype=np.int64))})

    counts = partial_groupby_agg(
        docs.map_batches(explode, batch_format="pyarrow"),
        ["token"], [("one", "count", "n")])
    return topk(counts, [("n", True), ("token", False)], 20)


def t_inverted_index(sf_dir: str) -> rd.Dataset:
    """Distributed inverted-index construction — the IR/search-side
    operator a web corpus feeds (per token: document frequency + the
    sorted posting list of doc_ids): vectorized token explode with
    map-side ``(token, doc_id)`` distinct (a token repeated in one doc
    collapses BEFORE the wire — the same boilerplate-collapse rationale
    as ``pages_anchor_text``), ONE token hash exchange, then per
    partition one sort + segmented numpy dedup + ``binary_join`` turn
    each token's rows into its posting string. No per-group Python.

    Partitioning note for 10¹²-doc scale: posting lists of stop-word
    tokens are corpus-sized — a real deployment shards a token's
    postings by doc-range (token, doc_id>>k) and stores list blocks,
    same exchange, narrower values; df stays exact as a count partial.
    Here lists are strings so the oracle can compare them byte-for-byte
    (``string_agg ORDER BY``)."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    out_schema = pa.schema([("token", pa.string()), ("df", pa.int64()),
                            ("postings", pa.string())])

    def pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            batch["text"].combine_chunks(), r"\s+")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False),
                        lens.astype(np.int64))
        t = pa.table({"token": pc.list_flatten(toks),
                      "doc_id": pa.array(ids, pa.int64())})
        return t.group_by(["token", "doc_id"]).aggregate([])

    def build(tbl: pa.Table) -> pa.Table:
        # cross-batch duplicates of one (token, doc) pair collapse here
        t, pair = runs(tbl, ["token", "doc_id"])
        t, first = runs(t.take(pair), "token")
        offs = np.append(first, t.num_rows)
        postings = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()),
            pc.cast(t["doc_id"], pa.string()).combine_chunks()), ",")
        return pa.table({
            "token": t["token"].take(first),
            "df": np.diff(offs),
            "postings": postings,
        }, schema=out_schema)

    ex = docs.map_batches(pairs, batch_format="pyarrow")
    return hash_repartition_map(ex, "token", build, schema=out_schema)


def a_median_nchars(sf_dir: str) -> rd.Dataset:
    """Exact grouped median (per-group quantile; groups are few, rows per
    group arbitrary — the one aggregate that genuinely needs the group's
    values together)."""
    docs = read(sf_dir, "documents", ["lang", "n_chars"])

    def med(group: pa.Table) -> pa.Table:
        vals = group["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "lang": pa.array([group["lang"][0].as_py()], pa.string()),
            "median_nchars": pa.array(
                [float(round_half_away(np.array([np.median(vals)]), 2)[0])],
                pa.float64()),
        })

    return map_groups(docs, "lang", med)


def t_quantiles_sketch(sf_dir: str) -> rd.Dataset:
    """Approximate grouped quantiles via mergeable t-digest partials (A6 as a
    GROUPED aggregate): one digest per (batch, lang) → per-group merge of a
    handful of sketch blobs — the group shuffle moves kilobytes of digests,
    never the value column. Rows-only (approximate by design; ε asserted in
    pytest against exact quantiles)."""
    docs = read(sf_dir, "documents", ["lang", "n_chars"])

    def partials(batch: pa.Table) -> pa.Table:
        langs, blobs = [], []
        tbl = batch.group_by(["lang"]).aggregate([("n_chars", "list")])
        for i in range(tbl.num_rows):
            td = TDigest()
            td.update(np.asarray(tbl["n_chars_list"][i].as_py(),
                                 dtype=np.float64))
            langs.append(tbl["lang"][i].as_py())
            blobs.append(td.to_bytes())
        return pa.table({"lang": pa.array(langs, pa.string()),
                         "sketch": pa.array(blobs, pa.binary())})

    def merge(group: pa.Table) -> pa.Table:
        td = TDigest()
        for blob in group["sketch"].to_pylist():
            td = td.merge(TDigest.from_bytes(blob))
        return pa.table({
            "lang": pa.array([group["lang"][0].as_py()], pa.string()),
            "p50_est": pa.array([round(td.quantile(0.5), 1)], pa.float64()),
            "p95_est": pa.array([round(td.quantile(0.95), 1)], pa.float64()),
        })

    return map_groups(docs.map_batches(partials, batch_format="pyarrow"),
                      "lang", merge)


def t_tfidf_top(sf_dir: str) -> rd.Dataset:
    """Per-document top-3 TF-IDF terms — the classic corpus-statistics join
    (reference analog: the term/mention frequency counters of
    ``curation/check_fackel_references.py:32-60``, upgraded to a weighted
    ranking). Distributed shape: token explode → ONE hash exchange on
    ``token`` co-locating every (doc_id, token) pair of a term, inside which
    tf (grouped count), df (rows per term — the vocabulary is unbounded at
    corpus scale, never a driver broadcast) and the score are all computed
    vectorized → grouped top-k via the segmented-rank doc_id exchange.
    Replaces the earlier tf-groupby + tf⋈df shuffle join: same result, one
    exchange instead of three."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    # exact corpus size from parquet footers: no Dataset execution needed
    n_docs = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+")
        n = pc.list_value_length(toks)
        return pa.table({
            "doc_id": batch["doc_id"].take(
                pa.array(np.repeat(np.arange(batch.num_rows),
                                   n.to_numpy(zero_copy_only=False)))),
            "token": pc.list_flatten(toks),
        })

    pairs = docs.map_batches(explode, batch_format="pyarrow")

    def tf_df_score(tbl: pa.Table) -> pa.Table:
        # every row of each token is in this partition: tf = grouped pair
        # count; df = tf rows per token; score attached by index_in — all
        # Arrow/numpy kernels, no per-group Python
        g = pa.TableGroupBy(tbl, ["doc_id", "token"]).aggregate(
            [([], "count_all")])
        d = pa.TableGroupBy(g.select(["token"]), "token").aggregate(
            [([], "count_all")])
        idx = pc.index_in(g["token"], value_set=d["token"].combine_chunks())
        dfv = pc.take(d["count_all"], idx).to_numpy(zero_copy_only=False)
        tfv = g["count_all"].to_numpy(zero_copy_only=False)
        s = tfv.astype(np.float64) * np.log(
            float(n_docs) / dfv.astype(np.float64))
        return pa.table({"doc_id": g["doc_id"], "token": g["token"],
                         "score": pa.array(s, pa.float64())})

    scored = hash_repartition_map(pairs, "token", tf_df_score)
    top = topk_per_key(scored, "doc_id", [("score", True), ("token", False)], 3)
    return top.map_batches(
        lambda b: b.set_column(b.column_names.index("score"), "score",
                               pc.round(b["score"], ndigits=6,
                                        round_mode="half_towards_infinity")),
        batch_format="pyarrow")


def a_mode_lang_per_source(sf_dir: str) -> rd.Dataset:
    """Deterministic grouped mode (most frequent lang per source; ties →
    lexicographically smallest lang): map-side partial counts then the
    vectorized top-1 per key — never per-group Python (A1/J4)."""
    docs = read(sf_dir, "documents", ["source", "lang", "doc_id"])
    counts = partial_groupby_agg(docs, ["source", "lang"],
                                 [("doc_id", "count", "n")])
    return topk_per_key(counts, "source", [("n", True), ("lang", False)], 1)


def a_price_stats_by_priority(sf_dir: str) -> rd.Dataset:
    """Grouped variance/stddev from distributive partials (sum, sum-of-
    squares, count) — the one-pass parallel moment computation; matches
    DuckDB's ``stddev_samp`` to 2 decimals (A4/A6 family)."""
    orders = read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def pre(batch: pa.Table) -> pa.Table:
        sq = pc.multiply(batch["o_totalprice"], batch["o_totalprice"])
        return batch.append_column("price_sq", sq)

    agg = partial_groupby_agg(
        orders, ["o_orderpriority"],
        [("o_totalprice", "sum", "s"), ("price_sq", "sum", "ssq"),
         ("o_totalprice", "count", "n_orders")], pre=pre)

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False)
        ssq = batch["ssq"].to_numpy(zero_copy_only=False)
        n = batch["n_orders"].to_numpy(zero_copy_only=False).astype(np.float64)
        avg = s / n
        var = np.maximum(ssq - s * s / n, 0.0) / np.maximum(n - 1.0, 1.0)
        return pa.table({
            "o_orderpriority": batch["o_orderpriority"],
            "n_orders": batch["n_orders"],
            "avg_price": pa.array(round_half_away(avg, 2), pa.float64()),
            "std_price": pa.array(round_half_away(np.sqrt(var), 2),
                                  pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def o_hash_sample(sf_dir: str) -> rd.Dataset:
    """Deterministic hash-based sampling (O4 upgraded to an oracle-checkable
    form): keep ~5% of orders by a multiplicative key hash — reproducible
    across engines/runs/workers, unlike seeded engine-specific RNG. (Knuth
    multiplicative hashing; o_orderkey × 2654435761 stays < 2^63 for any
    realistic key range, and the SQL side computes the identical BIGINT
    expression.)"""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def keep(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        h = (k * 2654435761) % 1000
        return batch.filter(pa.array(h < 50))

    return orders.map_batches(keep, batch_format="pyarrow")


def m_unpivot_lineitem(sf_dir: str) -> rd.Dataset:
    """Unpivot/melt (wide → long reshape, the inverse of
    ``a_pivot_lang_source``): l_tax / l_discount become (measure, value)
    rows — pure per-batch column-to-row reshaping, no shuffle at all."""
    line = read(sf_dir, "lineitem",
                ["l_orderkey", "l_linenumber", "l_tax", "l_discount"])

    def melt(batch: pa.Table) -> pa.Table:
        keys = ["l_orderkey", "l_linenumber"]
        parts = []
        for measure, col in (("discount", "l_discount"), ("tax", "l_tax")):
            t = batch.select(keys)
            t = t.append_column("measure", pa.array(
                [measure] * batch.num_rows, pa.string()))
            parts.append(t.append_column("value", batch[col]))
        return pa.concat_tables(parts)

    return line.map_batches(melt, batch_format="pyarrow")


def j_upsert_cdc(sf_dir: str) -> rd.Dataset:
    """CDC upsert / snapshot merge (the distributed, immutable form of the
    reference's in-place table update S5, ``enrich_person_indices.py:58``):
    apply a change stream to a base snapshot — latest change per key wins,
    'D' deletes, 'U' replaces-or-inserts — producing a NEW snapshot, never
    mutating the base.

    Changes derive deterministically from events (op='D' on error events,
    else 'U' with the event value as the new balance; latest by (ts,
    event_id)). Plan: tag base + changes into one stream → ONE hash
    exchange on the key → per-partition vectorized resolution (sort +
    segmented last-per-key, is_in splits) — no per-key Python, no driver
    materialization of either side."""
    base = read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    ev = read(sf_dir, "events",
              ["event_id", "ts", "user_id", "event_type", "value"])

    def tag_base(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch["c_custkey"].cast(pa.int64()),
            "ts_us": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "eid": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "op": pa.array(["B"] * n, pa.string()),
            "bal": batch["c_acctbal"].cast(pa.float64()),
        })

    def tag_changes(batch: pa.Table) -> pa.Table:
        op = pc.if_else(pc.equal(batch["event_type"], "error"),
                        pa.scalar("D"), pa.scalar("U"))
        return pa.table({
            "key": batch["user_id"].cast(pa.int64()),
            "ts_us": batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "eid": batch["event_id"].cast(pa.int64()),
            "op": op,
            "bal": pa.array(round_half_away(
                batch["value"].to_numpy(zero_copy_only=False), 2),
                pa.float64()),
        })

    stream = base.map_batches(tag_base, batch_format="pyarrow").union(
        ev.map_batches(tag_changes, batch_format="pyarrow"))

    out_schema = pa.schema([("c_custkey", pa.int64()),
                            ("c_acctbal", pa.float64()),
                            ("src", pa.string())])

    def resolve(tbl: pa.Table) -> pa.Table:
        is_base = pc.equal(tbl["op"], "B")
        base_t = tbl.filter(is_base)
        ch = tbl.filter(pc.invert(is_base))
        ch, first = runs(ch, "key", [("ts_us", "descending"),
                                     ("eid", "descending")])
        latest = ch.take(first)
        latest_keys = latest["key"].combine_chunks()
        base_keys = base_t["key"].combine_chunks()
        kept = base_t.filter(pc.invert(
            pc.is_in(base_t["key"], value_set=latest_keys)))
        ups = latest.filter(pc.equal(latest["op"], "U"))
        src = pc.if_else(pc.is_in(ups["key"], value_set=base_keys),
                         pa.scalar("updated"), pa.scalar("inserted"))
        return pa.concat_tables([
            pa.table({"c_custkey": kept["key"], "c_acctbal": kept["bal"],
                      "src": pa.array(["kept"] * kept.num_rows,
                                      pa.string())}, schema=out_schema),
            pa.table({"c_custkey": ups["key"], "c_acctbal": ups["bal"],
                      "src": src.cast(pa.string())}, schema=out_schema),
        ])

    return hash_repartition_map(stream, "key", resolve, schema=out_schema)


def j_full_outer_activity(sf_dir: str) -> rd.Dataset:
    """Distributed FULL OUTER join (the one equi-join type the suite lacked):
    per-customer order counts ⋈ per-user event counts, either side may be
    absent — both sides pre-aggregated map-side so the shuffle moves one row
    per key, not the fact tables."""
    orders = read(sf_dir, "orders", ["o_custkey"])
    o_cnt = partial_groupby_agg(
        orders.map_batches(
            lambda b: b.append_column("one", pa.array(
                np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        ["o_custkey"], [("one", "count", "n_orders")])
    ev = read(sf_dir, "events", ["user_id"])
    e_cnt = partial_groupby_agg(
        ev.map_batches(
            lambda b: b.append_column("one", pa.array(
                np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        ["user_id"], [("one", "count", "n_events")])
    o_cnt = drop_empty_blocks(o_cnt)
    e_cnt = drop_empty_blocks(e_cnt)

    joined = exchange_join(o_cnt, e_cnt, "o_custkey", "user_id",
                           how="full_outer")

    def finish(batch: pa.Table) -> pa.Table:
        # Ray's full_outer merges the key pair into the left key column
        zero = pa.scalar(0, pa.int64())
        return pa.table({
            "ckey": batch["o_custkey"],
            "n_orders": pc.coalesce(batch["n_orders"], zero),
            "n_events": pc.coalesce(batch["n_events"], zero),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def e_first_last_per_user(sf_dir: str) -> rd.Dataset:
    """First/last activity per user (grouped min/max over timestamps +
    count, A5 per-key form): pure map-side partials, one tiny grouped
    merge — the shuffle moves one row per (user, batch)."""
    ev = read(sf_dir, "events", ["user_id", "ts"])
    return partial_groupby_agg(
        ev, ["user_id"],
        [("ts", "min", "first_ts"), ("ts", "max", "last_ts"),
         ("ts", "count", "n_events")])


def q6_revenue_delta(sf_dir: str) -> rd.Dataset:
    """TPC-H Q6 shape: global single-row aggregate under a multi-predicate
    filter — predicate pushdown + map-side partial sum, nothing shuffles
    but one float per batch (A4)."""
    line = read(sf_dir, "lineitem",
                ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def pre(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(batch["l_shipdate"],
                                 pa.scalar(np.datetime64("1996-01-01", "us"))),
                pc.less(batch["l_shipdate"],
                        pa.scalar(np.datetime64("1997-01-01", "us")))),
            pc.and_(
                pc.and_(pc.greater_equal(batch["l_discount"], 0.05),
                        pc.less_equal(batch["l_discount"], 0.07)),
                pc.less(batch["l_quantity"], 24.0)))
        batch = batch.filter(m)
        rev = pc.multiply(batch["l_extendedprice"], batch["l_discount"])
        return batch.append_column("rev", rev)

    # constant group key → exactly one output row, like the reference's
    # single-process global counters (curation/check_fackel_references.py)
    def pre_g(b: pa.Table) -> pa.Table:
        b = pre(b)
        return b.append_column("g", pa.array(np.zeros(b.num_rows,
                                                      dtype=np.int64)))

    agg = partial_groupby_agg(line.map_batches(pre_g, batch_format="pyarrow"),
                              ["g"], [("rev", "sum", "revenue")])
    return agg.map_batches(
        lambda b: round_cols(b.select(["revenue"]), {"revenue": 2}),
        batch_format="pyarrow")


def e_cum_daily(sf_dir: str) -> rd.Dataset:
    """Global ordered cumulative window (running total of events per day):
    distributed daily partial counts, then ONE single-block prefix sum —
    day cardinality is bounded (≤ a few 10^4 even over decades), so the
    final sequential pass is O(days), not O(rows); at larger window-key
    cardinality the per-partition-prefix + offset-broadcast pattern of
    ``e_rolling_avg`` applies."""
    ev = read(sf_dir, "events", ["ts"])

    def day_of(batch: pa.Table) -> pa.Table:
        d = pc.floor_temporal(batch["ts"], unit="day")
        return pa.table({"day": d,
                         "one": pa.array(np.ones(batch.num_rows,
                                                 dtype=np.int64))})

    daily = partial_groupby_agg(ev.map_batches(day_of, batch_format="pyarrow"),
                                ["day"], [("one", "count", "n")])

    def cum(tbl: pa.Table) -> pa.Table:
        idx = pc.sort_indices(tbl, sort_keys=[("day", "ascending")])
        tbl = tbl.take(idx)
        c = np.cumsum(tbl["n"].to_numpy(zero_copy_only=False))
        return tbl.append_column("cum_n", pa.array(c, pa.int64()))

    return daily.repartition(1).map_batches(cum, batch_format="pyarrow",
                                            batch_size=None)


def a_rollup_cust(sf_dir: str) -> rd.Dataset:
    """Hierarchical ROLLUP (region → nation → grand total): customer counts
    per nation via broadcast-dim join + map-side partials; the region
    subtotals and grand total are derived from the ~25 nation rows in one
    tiny vectorized pass — never a second scan of the fact table."""
    nation = read_table(sf_dir, "nation")
    region = read_table(sf_dir, "region")
    # nationkey-indexed lookup arrays (keys are small dense ints) → the tag
    # stage is a pure vectorized take over the fact column, no per-row dict
    r_name = dict(zip(region["r_regionkey"].to_pylist(),
                      region["r_name"].to_pylist()))
    nk_max = max(nation["n_nationkey"].to_pylist())
    nk2r = np.empty(nk_max + 1, dtype=object)
    nk2n = np.empty(nk_max + 1, dtype=object)
    for k, rk, nm in zip(nation["n_nationkey"].to_pylist(),
                         nation["n_regionkey"].to_pylist(),
                         nation["n_name"].to_pylist()):
        nk2r[k] = r_name[rk]
        nk2n[k] = nm
    cust = read(sf_dir, "customer", ["c_nationkey"])

    def tag(batch: pa.Table) -> pa.Table:
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        return pa.table({
            "r_name": pa.array(nk2r[nk], pa.string()),
            "n_name": pa.array(nk2n[nk], pa.string()),
            "one": pa.array(np.ones(len(nk), dtype=np.int64)),
        })

    base = partial_groupby_agg(cust.map_batches(tag, batch_format="pyarrow"),
                               ["r_name", "n_name"], [("one", "count", "n_cust")])

    def rollup(tbl: pa.Table) -> pa.Table:
        rn = tbl["r_name"].to_pylist()
        n = tbl["n_cust"].to_pylist()
        sub = collections.Counter()
        for r, c in zip(rn, n):
            sub[r] += c
        rows_r = sorted(sub.items())
        return pa.table({
            "r_name": pa.array(rn + [r for r, _ in rows_r] + [None],
                               pa.string()),
            "n_name": pa.array(tbl["n_name"].to_pylist()
                               + [None] * (len(rows_r) + 1), pa.string()),
            "n_cust": pa.array(n + [c for _, c in rows_r] + [sum(n)],
                               pa.int64()),
        })

    return base.repartition(1).map_batches(rollup, batch_format="pyarrow",
                                           batch_size=None)


def t_repetition(sf_dir: str) -> rd.Dataset:
    """Repeated-n-gram quality signal (the Gopher/RefinedWeb repetition
    filter family): per document, the fraction of word 5-grams that are
    duplicates of an earlier gram in the same document. Entirely within-row
    → embarrassingly parallel per batch; the gram explode + distinct count
    run on Arrow kernels (list joins + group_by), never a Python token loop."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    K = 5

    def rep(batch: pa.Table) -> pa.Table:
        nb = batch.num_rows
        grams, gcnt, grow = word_ngrams_batch(batch["text"], K)
        if len(grams) == 0:
            return pa.table({
                "doc_id": batch["doc_id"],
                "n_grams": pa.array(np.zeros(nb, np.int64)),
                "dup_frac": pa.array(np.zeros(nb, np.float64)),
            })
        pairs = pa.table({"r": pa.array(grow, pa.int64()), "g": grams})
        dist = pairs.group_by(["r", "g"]).aggregate([]) \
                    .group_by(["r"]).aggregate([("g", "count")])
        distinct = np.zeros(nb, dtype=np.int64)
        distinct[dist["r"].to_numpy(zero_copy_only=False)] = \
            dist["g_count"].to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(gcnt > 0, 1.0 - distinct / np.maximum(gcnt, 1),
                            0.0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_grams": pa.array(gcnt, pa.int64()),
            "dup_frac": pa.array(round_half_away(frac, 6), pa.float64()),
        })

    return docs.map_batches(rep, batch_format="pyarrow")


def td_split(sf_dir: str) -> rd.Dataset:
    """Deterministic train/val/test split (80/10/10) — the canonical
    training-data partitioning: a multiplicative key hash assigns every doc
    a stable split independent of row order, worker count or engine (same
    arithmetic as ``o_hash_sample``); here reduced to per-split counts via
    map-side partials."""
    docs = read(sf_dir, "documents", ["doc_id"])

    def assign(batch: pa.Table) -> pa.Table:
        k = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = (k * 2654435761) % 1000
        split = np.where(h < 800, "train", np.where(h < 900, "val", "test"))
        return pa.table({"split": pa.array(split.astype(object), pa.string()),
                         "one": pa.array(np.ones(len(k), dtype=np.int64))})

    return partial_groupby_agg(docs.map_batches(assign, batch_format="pyarrow"),
                               ["split"], [("one", "count", "n_docs")])


def g_pagerank(sf_dir: str) -> pa.Table:
    """PageRank over the pages link graph (iterative algorithm; the power-
    iteration extension of the reference's inverse-edge derivation,
    ``scripts/owl_inverse_props.py:68-134``): 5 damped iterations, every
    node returned with its rounded rank. Auto-selects the broadcast shape
    (node table fits a worker) — the shuffle shape is property-tested equal
    in tests/test_graph.py."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])
    return pagerank(links, "src_url", "dst_url", damping=0.85, iters=5)


def dd_ngram_coverage(sf_dir: str, wire: str = "hash") -> rd.Dataset:
    """Cross-document n-gram duplication coverage (the RefinedWeb /
    MassiveText repeated-content signal): per document, the fraction of its
    DISTINCT word 5-grams that also occur in at least one OTHER document.

    Shape: per-batch distinct (gram, doc) rows (a doc is one row, so
    within-batch distinct is globally distinct) → ONE hash exchange on the
    gram — each partition owns every occurrence of its grams, computes
    per-gram doc counts with a vectorized ``group_by``, and emits per-doc
    partials (n_dup, n_tot) — → tiny doc-keyed sum. Docs with <5 tokens
    have no grams and no row (matching the SQL).

    ``wire="hash"`` (default, the 100-TB path): grams cross the exchange
    as 128-bit hashes — ``hashing.gram_hash_pairs``' two independent folds
    over dictionary-encoded token hashes, 16 constant bytes/key, zero gram
    strings anywhere (the ``dd_dup_spans`` machinery; collisions need both
    64-bit folds to collide, ~2⁻¹²⁸/pair). ``wire="string"`` exchanges the
    gram strings themselves — the collision-free oracle-exactness mode;
    the two paths' per-doc fractions are property-tested equal."""
    K = 5

    docs = read(sf_dir, "documents", ["doc_id", "text"])

    if wire == "hash":
        def gram_rows(batch: pa.Table) -> pa.Table:
            toks = pc.split_pattern_regex(
                batch["text"].combine_chunks(), TOKEN_SPLIT)
            counts = pc.fill_null(pc.list_value_length(toks), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            enc = pc.list_flatten(toks).dictionary_encode()
            uniq = np.asarray(enc.dictionary, dtype=object)
            th = (pd.util.hash_array(uniq, categorize=False)
                  [enc.indices.to_numpy(zero_copy_only=False)]
                  if len(uniq) else np.empty(0, np.uint64))
            h1, h2, grow = gram_hash_pairs(th, counts, K)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            tbl = pa.table({
                "g": pa.array(h1.view(np.int64), pa.int64()),
                "g2": pa.array(h2.view(np.int64), pa.int64()),
                "doc_id": pa.array(ids[grow], pa.int64()),
            })
            return tbl.group_by(["g", "g2", "doc_id"]).aggregate([])

        gram_key = ["g", "g2"]
    else:
        def gram_rows(batch: pa.Table) -> pa.Table:
            grams, gcnt, grow = word_ngrams_batch(batch["text"], K)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            tbl = pa.table({
                "g": grams,
                "doc_id": pa.array(ids[grow], pa.int64()),
            })
            return tbl.group_by(["g", "doc_id"]).aggregate([])

        gram_key = ["g"]

    pairs = docs.map_batches(gram_rows, batch_format="pyarrow")

    part_schema = pa.schema([("doc_id", pa.int64()), ("n_dup", pa.int64()),
                             ("n_tot", pa.int64())])

    def per_gram_partition(tbl: pa.Table) -> pa.Table:
        # docs-per-gram, then mark each (gram, doc) row dup if its gram has
        # ≥2 docs; count + flag-attach are both vectorized Acero ops
        cnt = tbl.group_by(gram_key).aggregate([("doc_id", "count")])
        joined = tbl.join(cnt, keys=gram_key, join_type="inner")
        part = pa.table({
            "doc_id": joined["doc_id"],
            "dup": pc.greater_equal(joined["doc_id_count"],
                                    2).cast(pa.int64()),
        })
        agg = part.group_by(["doc_id"]).aggregate(
            [("dup", "sum"), ("dup", "count")])
        return pa.table({
            "doc_id": agg["doc_id"],
            "n_dup": agg["dup_sum"],
            "n_tot": agg["dup_count"],
        }, schema=part_schema)

    partials = hash_repartition_map(pairs, "g", per_gram_partition,
                                    schema=part_schema)
    per_doc = partial_groupby_agg(
        partials, ["doc_id"],
        [("n_dup", "sum", "n_dup"), ("n_tot", "sum", "n_grams")])

    def finish(batch: pa.Table) -> pa.Table:
        frac = (batch["n_dup"].to_numpy(zero_copy_only=False)
                / batch["n_grams"].to_numpy(zero_copy_only=False))
        return batch.append_column(
            "dup_frac", pa.array(round_half_away(frac, 6), pa.float64()))

    return per_doc.map_batches(finish, batch_format="pyarrow")


def t_gram_novelty_daily(sf_dir: str) -> pa.Table:
    """Daily n-gram NOVELTY over the crawl (the content-freshness decay
    curve a crawl operator monitors — as boilerplate saturates, the
    fraction of never-seen-before 5-grams per day falls): per day, the
    share of that day's DISTINCT word 5-grams whose global FIRST day of
    appearance is that day.

    Shape: the scan emits per-batch-distinct (gram-hash₁₂₈, day) rows —
    the ``dd_ngram_coverage`` hash wire, 16 constant bytes per key, no
    gram strings — then ONE gram hash exchange; each partition owns
    every (gram, day) occurrence of its grams, so the global
    (gram, day) dedup, the per-gram min-day, and the novel-flag all
    resolve locally with C++ group_bys, emitting per-day partials; a
    tiny day-keyed sum finishes. The SQL oracle runs on gram STRINGS
    (the collision-free form; both folds colliding ≈ 2⁻¹²⁸/pair)."""
    K = 5

    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts", "text"])

    def gram_rows(batch: pa.Table) -> pa.Table:
        days = pc.strftime(batch["warc_ts"], format="%Y-%m-%d")
        toks = pc.split_pattern_regex(
            batch["text"].combine_chunks(), TOKEN_SPLIT)
        counts = pc.fill_null(pc.list_value_length(toks), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        enc = pc.list_flatten(toks).dictionary_encode()
        uniq = np.asarray(enc.dictionary, dtype=object)
        th = (pd.util.hash_array(uniq, categorize=False)
              [enc.indices.to_numpy(zero_copy_only=False)]
              if len(uniq) else np.empty(0, np.uint64))
        h1, h2, grow = gram_hash_pairs(th, counts, K)
        tbl = pa.table({
            "g": pa.array(h1.view(np.int64), pa.int64()),
            "g2": pa.array(h2.view(np.int64), pa.int64()),
            "day": pc.take(days, pa.array(grow)),
        })
        return tbl.group_by(["g", "g2", "day"]).aggregate([])

    pairs = pages.map_batches(gram_rows, batch_format="pyarrow")
    out_schema = pa.schema([("day", pa.string()),
                            ("n_grams", pa.int64()),
                            ("n_novel", pa.int64())])

    def per_gram_partition(tbl: pa.Table) -> pa.Table:
        d = tbl.group_by(["g", "g2", "day"]).aggregate([])
        mins = d.group_by(["g", "g2"]).aggregate([("day", "min")])
        joined = d.join(mins, keys=["g", "g2"], join_type="inner")
        part = pa.table({
            "day": joined["day"],
            "novel": pc.equal(joined["day"],
                              joined["day_min"]).cast(pa.int64()),
        })
        agg = part.group_by(["day"]).aggregate(
            [("novel", "sum"), ("novel", "count")])
        return pa.table({
            "day": agg["day"],
            "n_grams": agg["novel_count"].cast(pa.int64()),
            "n_novel": agg["novel_sum"].cast(pa.int64()),
        }, schema=out_schema)

    partials = hash_repartition_map(pairs, "g", per_gram_partition,
                                    schema=out_schema)
    per_day = collect_tables(partial_groupby_agg(
        partials, ["day"],
        [("n_grams", "sum", "n_grams"), ("n_novel", "sum", "n_novel")]),
        out_schema)
    frac = (per_day["n_novel"].to_numpy(zero_copy_only=False)
            / per_day["n_grams"].to_numpy(zero_copy_only=False))
    return per_day.append_column(
        "novelty", pa.array(round_half_away(frac, 6), pa.float64()))


def t_bpe_merges(sf_dir: str) -> pa.Table:
    """Tokenizer training: learn the corpus's top-8 BPE merge rules
    (``functions/bpe.py``) from a distributed word-type frequency table —
    the LLM-pipeline vocabulary-induction step. Deterministic (count-desc,
    lexical-asc tiebreak) but iterative, so no SQL oracle; a single-process
    reference asserts the exact merge table in pytest."""
    docs = read(sf_dir, "documents", ["text"])

    def words(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"].combine_chunks(),
                                      TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        t = pa.table({"word": flat}).filter(
            pc.greater(pc.utf8_length(flat), 0))
        agg = t.group_by(["word"]).aggregate([("word", "count")])
        return pa.table({"word": agg["word"],
                         "n": agg["word_count"].cast(pa.int64())})

    word_ds = partial_groupby_agg(
        docs.map_batches(words, batch_format="pyarrow"),
        ["word"], [("n", "sum", "n")])
    return train_bpe(word_ds, n_merges=8)


def t_bpe_encode(sf_dir: str) -> rd.Dataset:
    """Tokenizer application: encode the corpus with the merge table
    ``t_bpe_merges`` learned, reporting per-doc word count, post-merge BPE
    token count and the compression ratio. The merge list is tiny and
    broadcast in the closure; each batch dictionary-encodes its tokens so
    the merges run once per DISTINCT word per batch, then per-doc sums
    come from one bincount over the dictionary indices. Deterministic but
    iterative upstream (no SQL oracle); encode-vs-reference equality is
    pytest-asserted."""
    merges = t_bpe_merges(sf_dir)
    mlist = list(zip(merges["left"].to_pylist(),
                     merges["right"].to_pylist()))

    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def encode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"].combine_chunks(),
                                      TOKEN_SPLIT)
        nper = pc.fill_null(pc.list_value_length(toks), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        keep = pc.greater(pc.utf8_length(flat), 0)
        rows = np.repeat(np.arange(len(nper)), nper)
        rows = rows[keep.to_numpy(zero_copy_only=False)]
        flat = flat.filter(keep)
        enc = flat.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        if uniq:
            syms = pa.table({
                "syms": pa.array([list(w) for w in uniq],
                                 pa.list_(pa.string())),
                "n": pa.array(np.ones(len(uniq), np.int64)),
            })
            for a, b in mlist:
                syms = apply_merge_batch(syms, a, b)
            per_word = pc.list_value_length(syms["syms"]).to_numpy(
                zero_copy_only=False).astype(np.int64)
            idx = enc.indices.to_numpy(zero_copy_only=False)
            n_bpe = np.bincount(rows, weights=per_word[idx],
                                minlength=len(nper)).astype(np.int64)
        else:
            n_bpe = np.zeros(len(nper), np.int64)
        n_words = np.bincount(rows, minlength=len(nper)).astype(np.int64)
        ratio = np.divide(n_bpe, n_words,
                          out=np.zeros(len(nper), np.float64),
                          where=n_words > 0)
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe, pa.int64()),
            "tokens_per_word": pa.array(round_half_away(ratio, 6),
                                        pa.float64()),
        })

    return docs.map_batches(encode, batch_format="pyarrow")


def td_dsir_weights(sf_dir: str) -> rd.Dataset:
    """DSIR-style importance weights (Xie et al. 2023, arXiv:2302.03169):
    score every raw document by the log-likelihood ratio of its hashed
    unigram features under a target vs raw bucket distribution — the
    data-selection step before importance sampling a pretraining corpus.

    Target split = ``doc_id % 50 == 0`` (the decontamination convention);
    B = 64 md5-derived buckets so the hash is ENGINE-NEUTRAL and the whole
    operator is oracle-checked in SQL. Two passes: (1) per-batch bucket
    count partials for both splits (a 64-row table per batch, summed by a
    tiny groupby — driver state O(B)); (2) per-doc segmented sum of the
    broadcast log-ratio vector over its token buckets. md5 runs once per
    DISTINCT token per batch (dictionary-encode first)."""
    B = 64
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def _buckets(texts) -> tuple[np.ndarray, np.ndarray]:
        """(bucket per token, tokens-per-row) for a text column chunk."""
        toks = pc.split_pattern_regex(texts.combine_chunks()
                                      if isinstance(texts, pa.ChunkedArray)
                                      else texts, TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        keep = pc.greater(pc.utf8_length(flat), 0)
        nper = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        # recompute per-row counts over kept tokens only
        rows = np.repeat(np.arange(len(nper)),
                         np.nan_to_num(nper).astype(np.int64))
        rows = rows[keep.to_numpy(zero_copy_only=False)]
        flat = flat.filter(keep)
        enc = flat.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        ub = np.array([int(hashlib.md5(u.encode()).hexdigest()[:8], 16) % B
                       for u in uniq], dtype=np.int64) \
            if uniq else np.empty(0, np.int64)
        bkt = ub[enc.indices.to_numpy(zero_copy_only=False)] \
            if uniq else np.empty(0, np.int64)
        return bkt, rows, len(nper)

    def count_partials(batch: pa.Table) -> pa.Table:
        bkt, rows, _ = _buckets(batch["text"])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        is_target = (ids[rows] % 50) == 0
        t_cnt = np.bincount(bkt[is_target], minlength=B)
        r_cnt = np.bincount(bkt[~is_target], minlength=B)
        return pa.table({
            "bkt": pa.array(np.arange(B, dtype=np.int64)),
            "t_cnt": pa.array(t_cnt.astype(np.int64)),
            "r_cnt": pa.array(r_cnt.astype(np.int64)),
        })

    cnt = partial_groupby_agg(
        docs.map_batches(count_partials, batch_format="pyarrow"),
        ["bkt"], [("t_cnt", "sum", "t_cnt"), ("r_cnt", "sum", "r_cnt")]
    ).to_pandas().sort_values("bkt")
    t = cnt["t_cnt"].to_numpy(dtype=np.float64)
    r = cnt["r_cnt"].to_numpy(dtype=np.float64)
    lr = (np.log((t + 1.0) / (t.sum() + B))
          - np.log((r + 1.0) / (r.sum() + B)))

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        raw = (ids % 50) != 0
        bkt, rows, n = _buckets(batch["text"])
        w = np.bincount(rows, weights=lr[bkt], minlength=n)
        ntok = np.bincount(rows, minlength=n).astype(np.int64)
        keep = raw & (ntok > 0)  # zero-token docs have no rows in the SQL
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "n_tokens": pa.array(ntok[keep], pa.int64()),
            "dsir_weight": pa.array(round_half_away(w[keep], 6),
                                    pa.float64()),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def dd_semantic(sf_dir: str) -> rd.Dataset:
    """SemDeDup-style semantic near-dup removal over the embeddings table
    (cluster with a seeded quantizer, drop cosine-near-identical vectors
    within each cluster, keeper = min id). No SQL oracle — k-means isn't
    SQL-expressible; a single-process numpy reference asserts identical
    (id, cluster, keeper) triples in pytest."""
    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semantic_dedup(emb, "vec_id", "embedding",
                          n_cells=8, threshold=0.95)


def td_decontaminate(sf_dir: str) -> rd.Dataset:
    """Benchmark decontamination (the GPT-3/Pile n-gram overlap check):
    flag every training document sharing at least one word 4-gram with the
    eval set. The eval side is tiny by nature (a benchmark), so its distinct
    gram set is built once and broadcast — the right shape at any corpus
    scale; the probe is a vectorized ``pc.is_in`` per batch, and the
    per-doc distinct-shared count never leaves the batch (a doc is one
    row). Eval membership here is the deterministic ``doc_id % 50 == 0``
    split (a stand-in for a real benchmark list)."""
    K = 4
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def grams_of(batch: pa.Table):
        grams, gcnt, grow = word_ngrams_batch(batch["text"], K)
        if len(grams) == 0:
            return None, gcnt, batch.num_rows
        return grams, gcnt, grow

    # eval gram set: distinct 5-grams of the (tiny) eval split, built via a
    # distributed distinct then collected once for broadcast
    ev = docs.map_batches(
        lambda b: b.filter(pa.array(
            (b["doc_id"].to_numpy(zero_copy_only=False) % 50) == 0)),
        batch_format="pyarrow")

    def ev_grams(batch: pa.Table) -> pa.Table:
        grams, _, _ = grams_of(batch)
        if grams is None:
            return pa.table({"g": pa.array([], pa.string())})
        return pa.table({"g": pc.unique(grams)})

    eval_set = partial_groupby_agg(
        ev.map_batches(ev_grams, batch_format="pyarrow"),
        ["g"], [("g", "count", "c")])

    ev_tbl = pa.concat_tables(
        list(eval_set.select_columns(["g"])
             .iter_batches(batch_format="pyarrow", batch_size=None)))
    ev_ref = ray.put(ev_tbl["g"].combine_chunks())

    def probe(batch: pa.Table) -> pa.Table:
        ev_vals = ray.get(ev_ref)
        grams, gcnt, grow = grams_of(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep_doc = (ids % 50) != 0
        if grams is None:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_shared": pa.array([], pa.int64())})
        hit = pc.is_in(grams, value_set=ev_vals).to_numpy(
            zero_copy_only=False)
        # distinct shared grams per doc: unique (row, gram) among hits
        rows = grow[hit]
        gvals = grams.take(pa.array(np.flatnonzero(hit), pa.int64()))
        t = pa.table({"r": pa.array(rows, pa.int64()), "g": gvals})
        d = t.group_by(["r", "g"]).aggregate([]) \
             .group_by(["r"]).aggregate([("g", "count")])
        r_idx = d["r"].to_numpy(zero_copy_only=False)
        cnts = d["g_count"].to_numpy(zero_copy_only=False)
        mask = keep_doc[r_idx]
        return pa.table({
            "doc_id": pa.array(ids[r_idx[mask]], pa.int64()),
            "n_shared": pa.array(cnts[mask], pa.int64()),
        })

    return docs.map_batches(probe, batch_format="pyarrow")


def a_price_histogram(sf_dir: str) -> rd.Dataset:
    """Numeric histogram / bucketing (fixed-width 50k bands over order
    totals): bucket assignment is a vectorized floor-divide map-side, the
    shuffle moves one partial row per (bucket, batch) — the grouped-count
    shape of A1 over a derived numeric key."""
    orders = read(sf_dir, "orders", ["o_totalprice"])

    def bucketize(batch: pa.Table) -> pa.Table:
        b = np.floor(batch["o_totalprice"].to_numpy(zero_copy_only=False)
                     / 50_000.0).astype(np.int64)
        return pa.table({"bucket": pa.array(b, pa.int64()),
                         "one": pa.array(np.ones(len(b), dtype=np.int64))})

    return partial_groupby_agg(
        orders.map_batches(bucketize, batch_format="pyarrow"),
        ["bucket"], [("one", "count", "n_orders")])


def e_dow_hour_heatmap(sf_dir: str) -> rd.Dataset:
    """Temporal feature binning (ISO day-of-week × hour activity heatmap,
    M6 family): both bins are Arrow temporal kernels; counts reduced
    map-side. Arrow's day_of_week is Monday=0 — +1 matches DuckDB isodow."""
    ev = read(sf_dir, "events", ["ts"])

    def bins(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].combine_chunks()
        dow = pc.add(pc.day_of_week(ts), pa.scalar(1)).cast(pa.int64())
        hour = pc.hour(ts).cast(pa.int64())
        return pa.table({"dow": dow, "hour": hour,
                         "one": pa.array(np.ones(batch.num_rows,
                                                 dtype=np.int64))})

    return partial_groupby_agg(ev.map_batches(bins, batch_format="pyarrow"),
                               ["dow", "hour"], [("one", "count", "n")])


def _events_sidecar(sf_dir: str, fmt: str) -> str:
    """Deterministic JSONL/CSV sidecar of (event_id, event_type, value),
    derived once from the parquet events table and cached — lets the S1
    source layer be exercised over non-parquet formats with a parquet-side
    oracle (same rows, different container)."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = f"/tmp/lk_srcfmt/{tag}_{fmt}"
    marker = os.path.join(out_dir, "_done")
    if not os.path.exists(marker):
        os.makedirs(out_dir, exist_ok=True)
        t = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                          columns=["event_id", "event_type", "value"])
        df = t.to_pandas()
        if fmt == "zstd.parquet":
            # sharded zstd-compressed parquet — the other wire codec big
            # corpora ship in (snappy is pyarrow's default; zstd trades
            # ~2x better ratio for similar decode speed at level 3)
            n_shards = 4
            bounds = [t.num_rows * i // n_shards
                      for i in range(n_shards + 1)]
            for s in range(n_shards):
                pq.write_table(
                    t.slice(bounds[s], bounds[s + 1] - bounds[s]),
                    os.path.join(out_dir, f"events-{s:03d}.parquet"),
                    compression="zstd", compression_level=3)
        elif fmt == "jsonl.gz":
            # sharded, as real corpora ship — exercises the parallel
            # decompress-per-file read path
            n_shards = 4
            bounds = [len(df) * i // n_shards for i in range(n_shards + 1)]
            for s in range(n_shards):
                df.iloc[bounds[s]:bounds[s + 1]].to_json(
                    os.path.join(out_dir, f"events-{s:03d}.jsonl.gz"),
                    orient="records", lines=True, double_precision=15,
                    compression="gzip")
        elif fmt == "jsonl":
            df.to_json(os.path.join(out_dir, "events.jsonl"),
                       orient="records", lines=True, double_precision=15)
        else:
            df.to_csv(os.path.join(out_dir, "events.csv"), index=False)
        open(marker, "w").close()
    return out_dir


def _events_ts_clustered(sf_dir: str) -> str:
    """Deterministic ts-SORTED parquet sidecar of events with small row
    groups — the key-clustered storage layout zone-map pruning needs
    (a time-partitioned event log / date-sorted crawl snapshot)."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = f"/tmp/lk_srcfmt/{tag}_tssorted"
    marker = os.path.join(out_dir, "_done")
    if not os.path.exists(marker):
        os.makedirs(out_dir, exist_ok=True)
        t = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                          columns=["event_id", "ts", "user_id", "value"])
        t = t.take(pc.sort_indices(
            t, sort_keys=[("ts", "ascending"), ("event_id", "ascending")]))
        pq.write_table(t, os.path.join(out_dir, "events.parquet"),
                       row_group_size=256)
        open(marker, "w").close()
    return out_dir


PRUNE_TS_LO = "2024-01-10 00:00:00"
PRUNE_TS_HI = "2024-01-17 00:00:00"


def v_pruned_ts_range(sf_dir: str) -> rd.Dataset:
    """Range scan with zone-map predicate pushdown (``sources/scan.py``):
    plan from row-group footer statistics over a ts-clustered events
    sidecar, read only the row groups whose [min, max] intersects the
    range, filter exactly inside the read task. A pytest asserts the
    planner actually skipped row groups; the oracle is the plain BETWEEN
    over the unsorted events table (same rows, clustering-independent)."""
    d = _events_ts_clustered(sf_dir)
    lo = dt.datetime.fromisoformat(PRUNE_TS_LO)
    hi = dt.datetime.fromisoformat(PRUNE_TS_HI)
    ds = pruned_range_scan(os.path.join(d, "events.parquet"), "ts", lo, hi,
                           columns=["event_id", "ts", "user_id", "value"])

    def rounded(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("value"), "value",
            pa.array(round_half_away(
                batch["value"].to_numpy(zero_copy_only=False), 2),
                pa.float64()))

    return ds.map_batches(rounded, batch_format="pyarrow")


def v_jsonl_source(sf_dir: str) -> rd.Dataset:
    """Non-parquet source format (S1 over JSONL via ``ray.data.read_json``):
    grouped sum/count over the JSONL mirror must equal the parquet oracle
    exactly — format-independent ingestion."""
    d = _events_sidecar(sf_dir, "jsonl")
    ev = rd.read_json(os.path.join(d, "events.jsonl"))
    agg = partial_groupby_agg(ev, ["event_type"],
                              [("value", "sum", "sum_value"),
                               ("event_id", "count", "n")])
    return agg.map_batches(_round_stage({"sum_value": 2}),
                           batch_format="pyarrow")


def v_jsonl_gz_source(sf_dir: str) -> rd.Dataset:
    """Non-parquet source format (S1 over SHARDED gzipped JSONL — the
    container real web corpora actually ship in): ``ray.data.read_json``
    decompresses each shard in its own read task (compression inferred
    from the ``.gz`` extension, one task per file — the natural
    parallelism unit since gzip streams aren't splittable), and the
    grouped sum/count must equal the parquet oracle exactly."""
    d = _events_sidecar(sf_dir, "jsonl.gz")
    ev = rd.read_json(os.path.join(d))
    agg = partial_groupby_agg(ev, ["event_type"],
                              [("value", "sum", "sum_value"),
                               ("event_id", "count", "n")])
    return agg.map_batches(_round_stage({"sum_value": 2}),
                           batch_format="pyarrow")


def v_parquet_zstd_source(sf_dir: str) -> rd.Dataset:
    """S1 over ZSTD-compressed sharded parquet (the non-default wire codec
    large corpora increasingly standardize on): ``ray.data.read_parquet``
    decodes zstd row groups transparently per read task; the grouped
    sum/count must equal the snappy-parquet oracle exactly — codec-
    independent ingestion, same parity contract as the JSONL/CSV mirrors."""
    d = _events_sidecar(sf_dir, "zstd.parquet")
    ev = rd.read_parquet(d, columns=["event_id", "event_type", "value"])
    agg = partial_groupby_agg(ev, ["event_type"],
                              [("value", "sum", "sum_value"),
                               ("event_id", "count", "n")])
    return agg.map_batches(_round_stage({"sum_value": 2}),
                           batch_format="pyarrow")


def v_csv_source(sf_dir: str) -> rd.Dataset:
    """Non-parquet source format (S1 over CSV via ``ray.data.read_csv``) —
    same parity contract as the JSONL mirror."""
    d = _events_sidecar(sf_dir, "csv")
    ev = rd.read_csv(os.path.join(d, "events.csv"))
    agg = partial_groupby_agg(ev, ["event_type"],
                              [("value", "sum", "sum_value"),
                               ("event_id", "count", "n")])
    return agg.map_batches(_round_stage({"sum_value": 2}),
                           batch_format="pyarrow")


def v_warc_source(sf_dir: str) -> rd.Dataset:
    """S1 over raw web-archive bytes (the Common-Crawl ingestion shape):
    the pages fixture re-serialized as WARC-style segments, parsed back one
    task per segment (``sources/warc.py``). Output is a compact digest per
    record — (url, warc_ts, n_bytes, payload_md5) — so the oracle compare
    never ships payload bytes; the md5 proves the payload round-tripped
    byte-identically, NULL payloads included."""
    fix = _pages_fixture(sf_dir)
    warc_dir = ensure_warc_segments(fix)
    return _warc_digest(read_warc(warc_dir))


def _warc_digest(recs: rd.Dataset) -> rd.Dataset:
    def compact(batch: pa.Table) -> pa.Table:
        html = batch["html"]
        md5s = pa.array([None if v is None else hashlib.md5(v).hexdigest()
                         for v in html.to_pylist()], pa.string())
        return pa.table({
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "n_bytes": pc.binary_length(html).cast(pa.int64()),
            "payload_md5": md5s,
        })

    return recs.map_batches(compact, batch_format="pyarrow")


def v_warc_fetch(sf_dir: str) -> pa.Table:
    """Random access into the compressed archive: a CDX-style member index
    (url → segment, byte offset, compressed length — built once, one task
    per segment) resolves 200 deterministic urls, and each record is
    fetched by READING AND INFLATING EXACTLY ONE GZIP MEMBER (never the
    segment). The md5 full-value oracle proves the byte-range path returns
    the same payload bytes as the original table — the access shape a
    100 TB archive is actually served in (range request per member)."""
    fix = _pages_fixture(sf_dir)
    warc_dir = ensure_warc_segments(fix, compress=True)
    pages = os.path.join(fix, "pages")
    first = sorted(os.listdir(pages))[0]
    urls = pq.read_table(os.path.join(pages, first),
                          columns=["url"])["url"].to_pylist()[:200]
    return _warc_digest_table(fetch_records(warc_dir, urls))


def _warc_digest_table(recs: pa.Table) -> pa.Table:
    html = recs["html"]
    md5s = pa.array([None if v is None else hashlib.md5(v).hexdigest()
                     for v in html.to_pylist()], pa.string())
    return pa.table({
        "url": recs["url"],
        "warc_ts": recs["warc_ts"],
        "n_bytes": pc.binary_length(html).cast(pa.int64()),
        "payload_md5": md5s,
    })


def v_wet_roundtrip(sf_dir: str) -> rd.Dataset:
    """WET sink + source parity (S3 sink family at the web shape — the
    Common-Crawl WET product: extracted TEXT as conversion-record
    payloads, member-per-record gzip segments): the fixture's pages are
    written as ``wet/*.warc.wet.gz`` inside the read tasks (one segment
    per scan item, payload bytes never cross the object store — the sink
    a 100-TB text-extraction job actually emits), parsed back one task
    per segment, and digested to (url, warc_ts, n_chars, text_md5). The
    oracle reads the ORIGINAL parquet — a hash match proves the text
    round-tripped byte-identically through the WET container, NULL text
    (unextractable pages) included."""
    fix = _pages_fixture(sf_dir)
    wet = ensure_warc_segments(fix, payload="text")
    ds = read_warc(wet)

    def digest(batch: pa.Table) -> pa.Table:
        txt = batch["html"].cast(pa.string())  # payload = utf-8 text bytes
        return pa.table({
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "n_chars": pc.utf8_length(txt).cast(pa.int64()),
            "text_md5": pa.array(md5_hex(txt), pa.string()),
        })

    return ds.map_batches(digest, batch_format="pyarrow")


def v_wat_roundtrip(sf_dir: str) -> rd.Dataset:
    """WAT sink + source parity — the METADATA member of the Common-
    Crawl WARC/WAT/WET product trio: per-record JSON documents
    (content_length of the raw html — JSON null for payload-missing
    fetches — extracted-text length, lang) written as
    ``wat/*.warc.wat.gz`` member-per-record gzip segments inside the
    read tasks, parsed back one task per segment with VECTORIZED regex
    field extraction (the JSON shape is fixed by the writer; no per-row
    json.loads). The oracle recomputes every field from the original
    parquet — a hash match proves the metadata round-tripped exactly,
    nulls included."""
    fix = _pages_fixture(sf_dir)
    wat = ensure_warc_segments(fix, payload="wat")
    ds = read_warc(wat)

    def parse(batch: pa.Table) -> pa.Table:
        doc = batch["html"].cast(pa.string())   # payload = JSON bytes
        cl = pc.struct_field(pc.extract_regex(
            doc, r'"content_length":(?P<v>\d+)'), "v")
        tl = pc.struct_field(pc.extract_regex(
            doc, r'"text_len":(?P<v>\d+)'), "v")
        lg = pc.struct_field(pc.extract_regex(
            doc, r'"lang":"(?P<v>[^"]*)"'), "v")
        return pa.table({
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "content_length": cl.cast(pa.int64()),
            "text_len": tl.cast(pa.int64()),
            "lang": lg,
        })

    return ds.map_batches(parse, batch_format="pyarrow")


def v_warc_gz_source(sf_dir: str) -> rd.Dataset:
    """S1 over COMPRESSED web-archive bytes: the fixture serialized as
    ``.warc.gz`` segments with each record its OWN gzip member (the actual
    Common-Crawl layout — member-per-record is what allows byte-range
    random access into a segment), inflated with stdlib zlib inside the
    per-segment task and parsed by the same record walker. Same md5
    full-value oracle as ``v_warc_source``: proves the
    compress→concatenate→inflate→parse path is byte-lossless, NULL
    payloads included."""
    fix = _pages_fixture(sf_dir)
    warc_dir = ensure_warc_segments(fix, compress=True)
    return _warc_digest(read_warc(warc_dir))


def a_corr_qty_price(sf_dir: str) -> rd.Dataset:
    """Grouped Pearson correlation (quantity vs extended price per return
    flag) from one-pass distributive moments (Σx, Σy, Σxy, Σx², Σy², n) —
    the same parallel-moment shape as ``a_price_stats_by_priority``,
    matching DuckDB's ``corr`` to 6 decimals."""
    line = read(sf_dir, "lineitem",
                ["l_returnflag", "l_quantity", "l_extendedprice"])

    def pre(batch: pa.Table) -> pa.Table:
        x = batch["l_quantity"]
        y = batch["l_extendedprice"]
        batch = batch.append_column("xy", pc.multiply(x, y))
        batch = batch.append_column("xx", pc.multiply(x, x))
        return batch.append_column("yy", pc.multiply(y, y))

    agg = partial_groupby_agg(
        line, ["l_returnflag"],
        [("l_quantity", "sum", "sx"), ("l_extendedprice", "sum", "sy"),
         ("xy", "sum", "sxy"), ("xx", "sum", "sxx"), ("yy", "sum", "syy"),
         ("l_quantity", "count", "n")], pre=pre)

    def finish(batch: pa.Table) -> pa.Table:
        sx = batch["sx"].to_numpy(zero_copy_only=False)
        sy = batch["sy"].to_numpy(zero_copy_only=False)
        sxy = batch["sxy"].to_numpy(zero_copy_only=False)
        sxx = batch["sxx"].to_numpy(zero_copy_only=False)
        syy = batch["syy"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        cov = sxy - sx * sy / n
        vx = sxx - sx * sx / n
        vy = syy - sy * sy / n
        r = cov / np.sqrt(np.maximum(vx * vy, 1e-300))
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "n": batch["n"],
            "corr_qty_price": pa.array(round_half_away(r, 6), pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def mm_payload_entropy(sf_dir: str) -> rd.Dataset:
    """Multimodal payload quality signal: per-payload Shannon byte entropy
    (compressed/encrypted media ≈ 8 bits/byte, text ≪) — one vectorized
    bincount over the batch's ZERO-COPY concatenated byte buffer (row-keyed
    ``np.bincount`` on row*256+byte), never a per-row Python pass. Binary
    payloads never convert to Python objects."""
    fix = _pages_fixture(sf_dir)

    def entropy(batch: pa.Table) -> pa.Table:
        arr = batch["html"].combine_chunks()
        views = binary_views(arr)
        live = [i for i, v in enumerate(views) if v is not None]
        if not live:
            return pa.table({"url": pa.array([], pa.string()),
                             "n_bytes": pa.array([], pa.int64()),
                             "entropy_bits": pa.array([], pa.float64())})
        lens = np.array([len(views[i]) for i in live], dtype=np.int64)
        data = np.concatenate(
            [np.frombuffer(views[i], dtype=np.uint8) for i in live]) \
            if lens.sum() else np.empty(0, np.uint8)
        row = np.repeat(np.arange(len(live)), lens)
        counts = np.bincount(row * 256 + data.astype(np.int64),
                             minlength=len(live) * 256) \
            .reshape(len(live), 256)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / np.maximum(lens, 1)[:, None]
            ent = -np.nansum(np.where(p > 0, p * np.log2(p), 0.0), axis=1)
        return pa.table({
            "url": batch["url"].take(pa.array(live, pa.int64())),
            "n_bytes": pa.array(lens, pa.int64()),
            "entropy_bits": pa.array(round_half_away(ent, 6), pa.float64()),
        })

    # fused into the read task — payload bytes never cross the object store
    return fused_parquet_map(os.path.join(fix, "pages"), entropy,
                             columns=["url", "html"])


def a_distinct_users_hll(sf_dir: str) -> rd.Dataset:
    """Approximate grouped distinct-count (per-type users via HyperLogLog):
    one HLL partial per (event_type, batch) map-side — constant bytes per
    group regardless of user cardinality — OR-merged per group. At 10^9
    users per type this moves KBs where the exact path
    (``a_distinct_users_per_type``) shuffles every distinct pair;
    tests assert the estimate within the sketch's ε of the exact counts."""
    ev = read(sf_dir, "events", ["event_type", "user_id"])

    def partials(batch: pa.Table) -> pa.Table:
        tbl = batch.group_by(["event_type"]).aggregate(
            [("user_id", "list")])
        types, blobs = [], []

        for i in range(tbl.num_rows):
            h = HyperLogLog(12)
            h.update_hashes(pd.util.hash_array(
                np.asarray(tbl["user_id_list"][i].as_py(), dtype=np.int64)))
            types.append(tbl["event_type"][i].as_py())
            blobs.append(h.to_bytes())
        return pa.table({"event_type": pa.array(types, pa.string()),
                         "sketch": pa.array(blobs, pa.binary())})

    def merge(group: pa.Table) -> pa.Table:
        h = HyperLogLog.from_bytes(group["sketch"][0].as_py())
        for b in group["sketch"].to_pylist()[1:]:
            h = h.merge(HyperLogLog.from_bytes(b))
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()],
                                   pa.string()),
            "n_users_est": pa.array([round(h.estimate(), 1)], pa.float64()),
        })

    return map_groups(ev.map_batches(partials, batch_format="pyarrow"),
                      "event_type", merge)


def a_user_overlap_hll(sf_dir: str) -> pa.Table:
    """Pairwise audience-overlap matrix via HLL set algebra: for every
    pair of event types, |A∩B| estimated by inclusion-exclusion
    (|A|+|B|−|A∪B|, the union being a register max — the set OPERATION
    sketches buy beyond plain counting: the exact path would shuffle
    every (user, type) pair per cell; this ships one 4 KB sketch per
    type). Approximate ⇒ no SQL oracle; ε vs the exact overlaps is
    pytest-asserted."""
    ev = read(sf_dir, "events", ["event_type", "user_id"])

    def partials(batch: pa.Table) -> pa.Table:
        tbl = batch.group_by(["event_type"]).aggregate([("user_id", "list")])
        types, blobs = [], []
        for i in range(tbl.num_rows):
            h = HyperLogLog(12)
            h.update_hashes(pd.util.hash_array(
                np.asarray(tbl["user_id_list"][i].as_py(), np.int64)))
            types.append(tbl["event_type"][i].as_py())
            blobs.append(h.to_bytes())
        return pa.table({"event_type": pa.array(types, pa.string()),
                         "sketch": pa.array(blobs, pa.binary())})

    def merge(group: pa.Table) -> pa.Table:
        h = HyperLogLog.from_bytes(group["sketch"][0].as_py())
        for b in group["sketch"].to_pylist()[1:]:
            h = h.merge(HyperLogLog.from_bytes(b))
        return pa.table({"event_type": group["event_type"][:1],
                         "sketch": pa.array([h.to_bytes()], pa.binary())})

    rows = map_groups(ev.map_batches(partials, batch_format="pyarrow"),
                      "event_type", merge).take_all()  # 4 KB per type
    rows.sort(key=lambda r: r["event_type"])
    types = [r["event_type"] for r in rows]
    hs = [HyperLogLog.from_bytes(r["sketch"]) for r in rows]
    a_t, b_t, est = [], [], []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            inter = (hs[i].estimate() + hs[j].estimate()
                     - hs[i].merge(hs[j]).estimate())
            a_t.append(types[i])
            b_t.append(types[j])
            est.append(max(inter, 0.0))
    return pa.table({
        "type_a": pa.array(a_t, pa.string()),
        "type_b": pa.array(b_t, pa.string()),
        "overlap_est": pa.array(round_half_away(np.array(est), 1),
                                pa.float64()),
    })


def o_stratified_sample(sf_dir: str) -> rd.Dataset:
    """Stratified deterministic sample (fixed n per stratum): the 20
    documents per lang with the smallest ``md5(doc_id)`` — an
    engine-neutral rank key (identical bytes in any engine/worker/run,
    unlike seeded RNG), so the sample is reproducible AND
    oracle-checkable. One hash exchange + segmented vectorized rank via
    ``topk_per_key``; the digest is C-level (16 bytes of compute per row)
    and the exchange moves only (doc_id, lang, h), never document text."""
    docs = read(sf_dir, "documents", ["doc_id", "lang"])

    def add_key(batch: pa.Table) -> pa.Table:
        h = pa.array([hashlib.md5(str(i).encode()).hexdigest()
                      for i in batch["doc_id"].to_pylist()], pa.string())
        return batch.append_column("h", h)

    keyed = docs.map_batches(add_key, batch_format="pyarrow")
    return topk_per_key(keyed, "lang", [("h", False), ("doc_id", False)], 20)


def s_embed_dim_stats(sf_dir: str) -> rd.Dataset:
    """Per-dimension embedding moments (mean / population variance per
    coordinate) — the normalization statistics a whitening or IVF stage
    needs before ANN. Map-side: one float64 reduction per batch over the
    list column's ZERO-COPY flat value buffer (sum, sumsq, n per dim →
    ndim partial rows); the shuffle then moves ndim rows per block, never
    a vector. var = E[x²] − E[x]² in float64 matches DuckDB ``var_pop``
    to 6 decimals."""
    emb = read(sf_dir, "embeddings", ["embedding"])
    out_schema = pa.schema([("dim", pa.int64()), ("s", pa.float64()),
                            ("s2", pa.float64()), ("n", pa.int64())])

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        arr = batch["embedding"].combine_chunks()
        ndim = len(arr[0])
        m = np.asarray(arr.values, dtype=np.float64).reshape(-1, ndim)
        return pa.table({
            "dim": pa.array(np.arange(ndim, dtype=np.int64)),
            "s": pa.array(m.sum(axis=0)),
            "s2": pa.array((m * m).sum(axis=0)),
            "n": pa.array(np.full(ndim, m.shape[0], dtype=np.int64)),
        }, schema=out_schema)

    merged = partial_groupby_agg(
        emb, ["dim"], [("s", "sum", "s"), ("s2", "sum", "s2"),
                       ("n", "sum", "n")], pre=partials)

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False)
        s2 = batch["s2"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        mean = s / n
        var = s2 / n - mean * mean
        return pa.table({
            "dim": batch["dim"],
            "n": batch["n"],
            "mean_v": pa.array(round_half_away(mean, 6), pa.float64()),
            "var_v": pa.array(round_half_away(var, 6), pa.float64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def s_dim_covar(sf_dir: str, k: int = 8) -> rd.Dataset:
    """Sample covariance matrix of the first ``k`` embedding dimensions —
    the second-moment input a PCA / whitening / Mahalanobis stage starts
    from, computed as DISTRIBUTED MOMENT PARTIALS (the only shape that
    works when the corpus is 10¹² vectors): each batch emits one row per
    (i ≤ j) pair carrying its batch-local Σxᵢxⱼ, Σxᵢ, Σxⱼ and n from ONE
    ``mᵀm`` matmul over the zero-copy flat value buffer — k(k+1)/2 rows
    per block cross the wire, never a vector — then a tiny groupby-sum
    and the closed form cov = (Σxy − ΣxΣy/n)/(n−1). Same partial shape
    as ``s_embed_dim_stats``; oracle is DuckDB ``covar_samp`` per pair."""
    emb = read(sf_dir, "embeddings", ["embedding"])
    iu = np.triu_indices(k)
    out_schema = pa.schema([
        ("dim_i", pa.int64()), ("dim_j", pa.int64()),
        ("sxy", pa.float64()), ("sx", pa.float64()),
        ("sy", pa.float64()), ("n", pa.int64())])

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        arr = batch["embedding"].combine_chunks()
        ndim = len(arr[0])
        m = np.asarray(arr.values, dtype=np.float64).reshape(-1, ndim)[:, :k]
        xtx = m.T @ m
        sx = m.sum(axis=0)
        return pa.table({
            "dim_i": pa.array(iu[0].astype(np.int64)),
            "dim_j": pa.array(iu[1].astype(np.int64)),
            "sxy": pa.array(xtx[iu]),
            "sx": pa.array(sx[iu[0]]),
            "sy": pa.array(sx[iu[1]]),
            "n": pa.array(np.full(len(iu[0]), m.shape[0], np.int64)),
        }, schema=out_schema)

    merged = partial_groupby_agg(
        emb, ["dim_i", "dim_j"],
        [(c, "sum", c) for c in ("sxy", "sx", "sy", "n")], pre=partials)

    def finish(batch: pa.Table) -> pa.Table:
        sxy = batch["sxy"].to_numpy(zero_copy_only=False)
        sx = batch["sx"].to_numpy(zero_copy_only=False)
        sy = batch["sy"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        cov = (sxy - sx * sy / n) / (n - 1.0)
        return pa.table({
            "dim_i": batch["dim_i"],
            "dim_j": batch["dim_j"],
            "covar": pa.array(round_half_away(cov, 6), pa.float64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def td_pack(sf_dir: str) -> rd.Dataset:
    """Sequence packing (GPT-style pretraining batch assembly): lay all
    documents end-to-end in doc_id order and cut fixed 512-token training
    bins; a document spanning a cut is split across bins. Output: one row
    per (document × bin) overlap with the token count it contributes.

    The core is a DISTRIBUTED PREFIX SUM over per-document token counts —
    no driver-side materialization of the corpus: (1) bucket docs by
    ``doc_id // 4096``; map-side partial sums per bucket are collected
    (one tiny row per bucket) and turned into exclusive bucket offsets on
    the driver; (2) one hash exchange on the bucket id, then per-partition
    sort + segmented cumsum + the broadcast offset gives every document
    its exact global token start; bins follow arithmetically (vectorized
    repeat/clip, no row loop). Driver state is O(n_docs / 4096).
    """
    B = 512          # tokens per packed training sequence
    R = 4096         # docs per prefix-sum bucket

    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        nt = pc.add(pc.count_substring(
            pc.fill_null(batch["text"], ""), " "), 1)
        rid = pc.divide(batch["doc_id"], R)
        return pa.table({"doc_id": batch["doc_id"],
                         "rid": pc.cast(rid, pa.int64()),
                         "nt": pc.cast(nt, pa.int64())})

    per_doc = docs.map_batches(counts, batch_format="pyarrow")

    # phase 1: one partial row per (bucket, block) → merged per bucket;
    # the collect is bounded by n_docs/R rows, never by corpus size
    bucket_sums = collect_tables(
        partial_groupby_agg(per_doc, ["rid"], [("nt", "sum", "s")]),
        pa.schema([("rid", pa.int64()), ("s", pa.int64())]))
    rids = bucket_sums["rid"].to_numpy(zero_copy_only=False)
    sums = bucket_sums["s"].to_numpy(zero_copy_only=False)
    order = np.argsort(rids)
    max_rid = int(rids[order[-1]]) if len(rids) else 0
    offsets = np.zeros(max_rid + 2, dtype=np.int64)
    np.add.at(offsets, rids[order] + 1, sums[order])
    offsets = np.cumsum(offsets)          # offsets[rid] = tokens before rid

    out_schema = pa.schema([("doc_id", pa.int64()), ("bin_id", pa.int64()),
                            ("n_tok", pa.int64())])

    def pack(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "rid", ["doc_id"])
        rid = tbl["rid"].to_numpy(zero_copy_only=False)
        nt = tbl["nt"].to_numpy(zero_copy_only=False)
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
        n = len(rid)
        # segmented exclusive cumsum of nt within each rid segment
        csum = np.concatenate([[0], np.cumsum(nt)[:-1]])
        seg_base = np.repeat(csum[starts], np.diff(np.append(starts, n)))
        cb = offsets[rid] + (csum - seg_base)     # global token start
        lo = cb // B
        hi = (cb + nt - 1) // B
        nb = (hi - lo + 1).astype(np.int64)
        row = np.repeat(np.arange(n), nb)
        bin_id = np.arange(len(row)) - np.repeat(
            np.cumsum(nb) - nb, nb) + lo[row]
        tok = (np.minimum(cb[row] + nt[row], (bin_id + 1) * B)
               - np.maximum(cb[row], bin_id * B))
        return pa.table({"doc_id": pa.array(ids[row], pa.int64()),
                         "bin_id": pa.array(bin_id, pa.int64()),
                         "n_tok": pa.array(tok, pa.int64())},
                        schema=out_schema)

    return hash_repartition_map(per_doc, "rid", pack, schema=out_schema)


def pages_redact(sf_dir: str) -> rd.Dataset:
    """PII / URL redaction over the raw web payloads (standard pre-training
    scrub): mask URLs, emails and IPv4s in every page's html with
    vectorized RE2 kernels (``functions.redact``) — the same regex engine
    DuckDB uses, so the oracle matches byte-for-byte. Output is compact:
    per-pattern match counts plus an md5 of the redacted payload (content
    equality without shipping megabytes through the compare)."""
    fix = _pages_fixture(sf_dir)

    def scrub(batch: pa.Table) -> pa.Table:
        # fixture payloads are valid UTF-8 (asserted by the generator's
        # text mutations staying in ASCII); NULL html stays NULL throughout
        s = batch["html"].cast(pa.string())
        out, counts = redact(s)
        md5s = pa.array(
            [None if v is None else hashlib.md5(v.encode()).hexdigest()
             for v in out.to_pylist()], pa.string())
        return pa.table({
            "url": batch["url"],
            "n_urls": counts["url"],
            "n_emails": counts["email"],
            "n_ips": counts["ipv4"],
            "redacted_md5": md5s,
        })

    # fused into the read task — raw payloads never cross the object store
    return fused_parquet_map(os.path.join(fix, "pages"), scrub,
                             columns=["url", "html"])


def o_ntile_price(sf_dir: str) -> rd.Dataset:
    """Global window rank (NTILE(4) over every order by price): the
    distributed exact-rank operator — no single node ever sees the whole
    sort. Same two-phase prefix-sum shape as ``td_pack``: coarse value
    buckets (fixed 50k price bands) → per-bucket counts collected (one
    tiny row per band) → exclusive offsets on the driver → one exchange
    on the band + ONE sort per partition; a row's global rank is
    band offset + its index inside the band, and the tile follows from
    DuckDB's ntile split (first N%k tiles get one extra row). At
    production scale the fixed bands become sampled range boundaries —
    the phases don't change."""
    K = 4
    W = 50_000.0
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def bucketed(batch: pa.Table) -> pa.Table:
        b = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) / W)
        return batch.append_column("band", pa.array(b.astype(np.int64)))

    banded = orders.map_batches(bucketed, batch_format="pyarrow")
    counts = collect_tables(
        partial_groupby_agg(banded, ["band"],
                            [("o_orderkey", "count", "n")]),
        pa.schema([("band", pa.int64()), ("n", pa.int64())]))
    bands = counts["band"].to_numpy(zero_copy_only=False)
    ns = counts["n"].to_numpy(zero_copy_only=False)
    max_band = int(bands.max()) if len(bands) else 0
    offsets = np.zeros(max_band + 2, dtype=np.int64)
    np.add.at(offsets, bands + 1, ns)
    offsets = np.cumsum(offsets)
    N = int(offsets[-1])
    base, rem = divmod(N, K)

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("tile", pa.int64())])

    def rank(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "band", ["o_totalprice", "o_orderkey"])
        band = tbl["band"].to_numpy(zero_copy_only=False)
        n = len(band)
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        r = offsets[band] + (np.arange(n) - seg_start)   # 0-based global
        cut = rem * (base + 1)
        tile = np.where(r < cut, r // max(base + 1, 1),
                        rem + (r - cut) // max(base, 1)) + 1
        return pa.table({"o_orderkey": tbl["o_orderkey"],
                         "tile": pa.array(tile.astype(np.int64))},
                        schema=out_schema)

    return hash_repartition_map(banded, "band", rank, schema=out_schema)


def j_fuzzy_name_match(sf_dir: str) -> rd.Dataset:
    """Fuzzy (string-similarity) join: each supplier's closest customer
    name by edit distance, ties broken by smallest custkey — the entity-
    resolution shape. No pair shuffle: the small side broadcasts once,
    each probe batch computes a full pair-grid levenshtein with the DP
    vectorized across every pair (``functions.strings``), and only ONE
    partial row per (supplier × batch) leaves the task — (dist, custkey)
    packed into a single int64 so the global argmin is a grouped ``min``,
    never a per-group Python call."""
    sup = read_table(sf_dir, "supplier", ["s_suppkey", "s_name"])
    ref = ray.put(sup)
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])

    def partial(batch: pa.Table) -> pa.Table:
        sup_t = ray.get(ref)                      # zero-copy plasma read
        D = levenshtein_matrix(sup_t["s_name"].to_pylist(),
                               batch["c_name"].to_pylist())
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        rank = (D.astype(np.int64) << np.int64(32)) + ck[None, :]
        return pa.table({"s_suppkey": sup_t["s_suppkey"],
                         "rank": pa.array(rank.min(axis=1), pa.int64())})

    partials = cust.map_batches(partial, batch_format="pyarrow",
                                batch_size=2048)
    merged = partial_groupby_agg(partials, ["s_suppkey"],
                                 [("rank", "min", "rank")])

    def finish(batch: pa.Table) -> pa.Table:
        r = batch["rank"].to_numpy(zero_copy_only=False)
        idx = pc.index_in(batch["s_suppkey"], value_set=sup["s_suppkey"])
        return pa.table({
            "s_suppkey": batch["s_suppkey"],
            "s_name": pc.take(sup["s_name"], idx),
            "best_custkey": pa.array(r & np.int64(0xFFFFFFFF), pa.int64()),
            "dist": pa.array(r >> np.int64(32), pa.int64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def t_top_tokens_approx(sf_dir: str) -> pa.Table:
    """Approximate corpus top-20 tokens via the mergeable heavy-hitters
    sketch (``sketches.topk``): each block reduces to ONE constant-size
    partial (its exact local top-128 + residual bound) — at 10^12 tokens
    this moves a few KB per block where the exact path
    (``t_top_tokens``) shuffles every distinct token. The merged sketch
    carries per-item [lo, hi] count bounds; tests assert the exact
    top-20 is contained and every bound brackets the true count."""
    docs = read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        # import inside the task so cloudpickle ships a module REFERENCE,
        # not the class by value (by-value cost ≈ 3.6 s/run, measured)

        toks = pc.list_flatten(
            pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+"))
        vc = toks.value_counts()
        sk = ApproxTopK.from_counts(
            vc.field("values").to_numpy(zero_copy_only=False),
            vc.field("counts").to_numpy(zero_copy_only=False), m=128)
        return pa.table({"sketch": pa.array([sk.to_bytes()], pa.binary())})

    blobs = docs.map_batches(partial, batch_format="pyarrow") \
                .take_all()                      # one small blob per block
    merged = ApproxTopK.merge_many(
        [ApproxTopK.from_bytes(r["sketch"]) for r in blobs])
    rows = merged.top(20)
    return pa.table({
        "token": pa.array([r[0] for r in rows], pa.string()),
        "n_lo": pa.array([r[1] for r in rows], pa.int64()),
        "n_hi": pa.array([r[2] for r in rows], pa.int64()),
    })


def t_token_freq_cms(sf_dir: str) -> pa.Table:
    """Heavy-hitter token frequencies via the classic Misra-Gries +
    Count-Min pairing: ONE per-block pass emits two constant-size
    mergeable partials — the local exact top-128 (candidate identity)
    and a 4×2048 Count-Min counter matrix (frequency mass). The merged
    MG sketch nominates the top-20 candidates; the merged CMS point-
    queries them. At 10^12 tokens each block ships ~70 KB regardless of
    vocabulary size, where the exact path (``t_top_tokens``) shuffles
    every distinct token. CMS guarantees est ≥ true and
    est ≤ true + εN (ε = e/width) w.h.p. — both bounds asserted in
    tests against the exact counts.

    Reference analog: the reference's exact Counter word-count passes
    (``make_texts.py``-style tallies) — exact at toy scale, two
    constant-size partials per block at web scale."""
    docs = read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        # module-reference import (not by-value capture) — see
        # t_top_tokens_approx for the measured cost of the alternative

        toks = pc.list_flatten(
            pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+"))
        vc = toks.value_counts()
        items = vc.field("values").to_numpy(zero_copy_only=False)
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        mg = ApproxTopK.from_counts(items, counts, m=128)
        cms = CountMin(depth=4, width=2048)
        cms.add_hashed(pd.util.hash_array(items.astype(object)), counts)
        return pa.table({"mg": pa.array([mg.to_bytes()], pa.binary()),
                         "cms": pa.array([cms.to_bytes()], pa.binary())})

    blobs = docs.map_batches(partial, batch_format="pyarrow").take_all()
    mg = ApproxTopK.merge_many([ApproxTopK.from_bytes(r["mg"])
                                for r in blobs])
    cms = CountMin.merge_many([CountMin.from_bytes(r["cms"])
                               for r in blobs])

    cand = np.array([t for t, _, _ in mg.top(20)], dtype=object)
    est = cms.query_hashed(pd.util.hash_array(cand))
    order = np.lexsort((cand.astype(str), -est))
    return pa.table({
        "token": pa.array([str(cand[i]) for i in order], pa.string()),
        "n_est": pa.array(est[order], pa.int64()),
    })


def t_top_tokens_per_lang(sf_dir: str) -> rd.Dataset:
    """GROUPED heavy hitters: each lang's top-5 tokens via per-(block,
    lang) Misra-Gries partials OR-merged per lang — the grouped-sketch
    shape next to the grouped HLL (``a_distinct_users_hll``) and grouped
    t-digest (``t_quantiles_sketch``): at 10^12 tokens each block ships
    one constant-size sketch PER LANG it touches, never a token table.
    The fixture vocabulary is far below m=128, so bounds are tight
    (lo = hi = exact) and the query is fully oracle-checkable; the
    truncation path is Zipf-tested in test_sketches.py."""
    docs = read(sf_dir, "documents", ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.fill_null(batch["text"].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        lang = batch["lang"].take(parent)
        t = pa.table({"lang": lang, "tok": flat})
        g = t.group_by(["lang", "tok"]).aggregate([("tok", "count")])
        langs, blobs = [], []
        lt = g.group_by(["lang"]).aggregate(
            [("tok", "list"), ("tok_count", "list")])
        for i in range(lt.num_rows):
            sk = ApproxTopK.from_counts(
                np.asarray(lt["tok_list"][i].as_py(), object),
                np.asarray(lt["tok_count_list"][i].as_py(), np.int64),
                m=128)
            langs.append(lt["lang"][i].as_py())
            blobs.append(sk.to_bytes())
        return pa.table({"lang": pa.array(langs, pa.string()),
                         "sketch": pa.array(blobs, pa.binary())})

    def merge(group: pa.Table) -> pa.Table:
        sk = ApproxTopK.merge_many([ApproxTopK.from_bytes(b)
                              for b in group["sketch"].to_pylist()])
        rows = sk.top(5)
        return pa.table({
            "lang": pa.array([group["lang"][0].as_py()] * len(rows)),
            "token": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
        })

    return map_groups(docs.map_batches(partial, batch_format="pyarrow"),
                      "lang", merge)


def s_pca_project(sf_dir: str, k: int = 8) -> rd.Dataset:
    """PCA projection of the embedding corpus onto its top-``k``
    principal components — the whitening / dimensionality-reduction
    stage an ANN or clustering pipeline runs before indexing. Pass 1:
    one (ndim×ndim Σxxᵀ, Σx, n) moment partial per BLOCK (a single
    mᵀm matmul over the zero-copy flat buffer; one ~33 KB row per block
    crosses the wire, never a vector), summed on the driver. Driver:
    eigendecomposition of the 64×64 covariance (O(ndim³), trivial),
    deterministic eigenvector signs (largest-|entry| component made
    positive). Pass 2: components broadcast once via the closure; each
    batch projects with one centered matmul. Approximate-free but not
    SQL-expressible (eigh) ⇒ rows-only driver check; equality to direct
    numpy PCA is pytest-asserted."""
    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    mom_schema = pa.schema([("sxx", pa.list_(pa.float64())),
                            ("sx", pa.list_(pa.float64())),
                            ("n", pa.int64())])

    def moments(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return mom_schema.empty_table()
        arr = batch["embedding"].combine_chunks()
        ndim = len(arr[0])
        m = np.asarray(arr.values, dtype=np.float64).reshape(-1, ndim)
        return pa.table({
            "sxx": pa.array([(m.T @ m).ravel()]),
            "sx": pa.array([m.sum(axis=0)]),
            "n": pa.array([m.shape[0]], pa.int64()),
        }, schema=mom_schema)

    rows = emb.map_batches(moments, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    sx = np.sum([r["sx"] for r in rows], axis=0)
    ndim = len(sx)
    sxx = np.sum([r["sxx"] for r in rows], axis=0).reshape(ndim, ndim)
    mean = sx / n
    cov = (sxx - np.outer(sx, sx) / n) / (n - 1)
    w, v = np.linalg.eigh(cov)
    comp = v[:, np.argsort(w)[::-1][:k]]          # (ndim, k), desc var
    # deterministic signs: largest-|entry| coordinate made positive
    flip = comp[np.abs(comp).argmax(axis=0), np.arange(k)] < 0
    comp[:, flip] *= -1.0

    def project(batch: pa.Table, _mean=mean, _comp=comp) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema([("vec_id", pa.int64()),
                              ("proj", pa.list_(pa.float64()))]) \
                .empty_table()
        arr = batch["embedding"].combine_chunks()
        m = np.asarray(arr.values, dtype=np.float64).reshape(-1, len(_mean))
        p = (m - _mean) @ _comp
        return pa.table({
            "vec_id": batch["vec_id"].cast(pa.int64()),
            "proj": pa.array(list(np.round(p, 6)),
                             pa.list_(pa.float64())),
        })

    return emb.map_batches(project, batch_format="pyarrow")


def s_label_centroids(sf_dir: str) -> rd.Dataset:
    """Per-label embedding centroids (one k-means M-step / class
    prototypes): map-side float64 (sum, n) partials per (label, dim) from
    the list column's zero-copy value buffer — the shuffle moves
    n_labels × ndim partial rows per block, never a vector — then a tiny
    groupby merge. Same moment-partial shape as ``s_embed_dim_stats``
    but keyed, exercising the grouped vector aggregate."""
    emb = read(sf_dir, "embeddings", ["label", "embedding"])
    part_schema = pa.schema([("label", pa.int64()), ("dim", pa.int64()),
                             ("s", pa.float64()), ("n", pa.int64())])

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return part_schema.empty_table()
        arr = batch["embedding"].combine_chunks()
        ndim = len(arr[0])
        m = np.asarray(arr.values, dtype=np.float64).reshape(-1, ndim)
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), ndim), np.float64)
        np.add.at(sums, inv, m)
        cnt = np.bincount(inv).astype(np.int64)
        L = len(uniq)
        return pa.table({
            "label": pa.array(np.repeat(uniq, ndim), pa.int64()),
            "dim": pa.array(np.tile(np.arange(ndim, dtype=np.int64), L)),
            "s": pa.array(sums.ravel()),
            "n": pa.array(np.repeat(cnt, ndim), pa.int64()),
        }, schema=part_schema)

    merged = partial_groupby_agg(emb, ["label", "dim"],
                                 [("s", "sum", "s"), ("n", "sum", "n")],
                                 pre=partials)

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "label": batch["label"], "dim": batch["dim"],
            "n": batch["n"],
            "centroid_v": pa.array(round_half_away(s / n, 6), pa.float64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def a_median_price_exact(sf_dir: str) -> pa.Table:
    """EXACT global median (interpolated, DuckDB ``median`` semantics) —
    the order-statistic complement of the t-digest sketch: value-band
    prefix sums locate the two middle ranks' bands (the ``o_ntile_price``
    machinery), then only the owning partitions sort and extract one
    value each. No node ever holds the full column; the driver sees two
    numbers."""
    W = 50_000.0
    orders = read(sf_dir, "orders", ["o_totalprice"])

    def bucketed(batch: pa.Table) -> pa.Table:
        b = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) / W)
        return batch.append_column("band", pa.array(b.astype(np.int64)))

    banded = orders.map_batches(bucketed, batch_format="pyarrow")
    counts = collect_tables(
        partial_groupby_agg(banded, ["band"],
                            [("o_totalprice", "count", "n")]),
        pa.schema([("band", pa.int64()), ("n", pa.int64())]))
    bands = counts["band"].to_numpy(zero_copy_only=False)
    ns = counts["n"].to_numpy(zero_copy_only=False)
    max_band = int(bands.max()) if len(bands) else 0
    offsets = np.zeros(max_band + 2, dtype=np.int64)
    np.add.at(offsets, bands + 1, ns)
    offsets = np.cumsum(offsets)
    N = int(offsets[-1])
    targets = sorted({(N - 1) // 2, N // 2})

    out_schema = pa.schema([("r", pa.int64()), ("v", pa.float64())])

    def extract(tbl: pa.Table) -> pa.Table:
        band = tbl["band"].to_numpy(zero_copy_only=False)
        mine = [t for t in targets
                if (band == np.searchsorted(offsets, t, "right") - 1).any()]
        if not mine:
            return out_schema.empty_table()
        order = np.lexsort((tbl["o_totalprice"].to_numpy(
            zero_copy_only=False), band))
        v = tbl["o_totalprice"].to_numpy(zero_copy_only=False)[order]
        b_sorted = band[order]
        rows = []
        for t in mine:
            tb = int(np.searchsorted(offsets, t, "right") - 1)
            local = t - int(offsets[tb])
            seg = np.flatnonzero(b_sorted == tb)
            rows.append((t, float(v[seg[local]])))
        return pa.table({"r": pa.array([r for r, _ in rows], pa.int64()),
                         "v": pa.array([x for _, x in rows], pa.float64())},
                        schema=out_schema)

    got = collect_tables(hash_repartition_map(banded, "band", extract,
                                              schema=out_schema),
                         out_schema)
    vals = dict(zip(got["r"].to_pylist(), got["v"].to_pylist()))
    med = (vals[targets[0]] + vals[targets[-1]]) / 2.0
    return pa.table({
        "n": pa.array([N], pa.int64()),
        "median_price": pa.array(
            [float(round_half_away(np.array([med]), 2)[0])], pa.float64()),
    })


def t_top_bigrams(sf_dir: str) -> rd.Dataset:
    """Corpus bigram counts, top 20 (n-gram language-model counts): the
    shared vectorized word-n-gram kernel explodes each block, map-side
    partials combine, distributed top-k with deterministic tiebreak —
    the `t_top_tokens` shape one n up."""
    docs = read(sf_dir, "documents", ["text"])

    def explode(batch: pa.Table) -> pa.Table:
        grams, _, _ = word_ngrams_batch(batch["text"], 2)
        return pa.table({"bigram": grams,
                         "one": pa.array(np.ones(len(grams), np.int64))})

    counts = partial_groupby_agg(
        docs.map_batches(explode, batch_format="pyarrow"),
        ["bigram"], [("one", "count", "n")])
    return topk(counts, [("n", True), ("bigram", False)], 20)


def e_daily_dense(sf_dir: str) -> rd.Dataset:
    """Calendar densification (gap fill): events per day INCLUDING
    zero-event days — grouped day counts left-joined onto the full
    generated day range. The day spine is tiny (one row per day) and
    broadcast; counts come from map-side partials, so nothing reshuffles
    the events."""
    ev = read(sf_dir, "events", ["ts"])

    def day_of(batch: pa.Table) -> pa.Table:
        d = pc.floor_temporal(batch["ts"], unit="day")
        return pa.table({"day": pc.cast(d, pa.timestamp("us"))})

    days = partial_groupby_agg(
        ev.map_batches(day_of, batch_format="pyarrow").map_batches(
            lambda b: b.append_column(
                "one", pa.array(np.ones(b.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["day"], [("one", "count", "n")])

    # driver-side tiny spine from the observed min/max day
    got = days.take_all()
    have = {r["day"]: r["n"] for r in got}
    lo = min(have) if have else None
    hi = max(have) if have else None
    if lo is None:
        return rd.from_arrow(pa.table({
            "day": pa.array([], pa.timestamp("us")),
            "n": pa.array([], pa.int64())}))
    days_np = np.arange(np.datetime64(lo, "D"),
                        np.datetime64(hi, "D") + np.timedelta64(1, "D"))
    spine = pa.array(days_np.astype("datetime64[us]"), pa.timestamp("us"))
    n = pa.array([have.get(d.as_py(), 0) for d in spine], pa.int64())
    return rd.from_arrow(pa.table({"day": spine, "n": n}))


def j_bucketed_orders(sf_dir: str) -> rd.Dataset:
    """Shuffle-free co-bucketed join (SMB pattern): orders and customer are
    each written ONCE hash-bucketed on custkey, then joined bucket-by-bucket
    as independent tasks — no all-to-all exchange, resumable per bucket
    (``pipelines/bucketed.py``).  Per-nation order count + revenue proves
    value-level parity against the plain SQL join."""
    n_buckets = 8
    orders = read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    root = f"/tmp/lk_out/bucketed_{os.path.basename(os.path.normpath(sf_dir))}"
    odir, cdir = os.path.join(root, "orders"), os.path.join(root, "customer")
    shutil.rmtree(root, ignore_errors=True)
    bucket_write(orders, "o_custkey", odir, n_buckets=n_buckets)
    bucket_write(cust, "c_custkey", cdir, n_buckets=n_buckets)

    joined = bucketed_join(odir, cdir, "o_custkey", "c_custkey",
                           n_buckets=n_buckets)
    agg = partial_groupby_agg(joined, ["c_nationkey"],
                              [("o_totalprice", "count", "n_orders"),
                               ("o_totalprice", "sum", "sum_price")])
    return agg.map_batches(_round_stage({"sum_price": 2}),
                           batch_format="pyarrow")


def t_bigram_lm_score(sf_dir: str) -> rd.Dataset:
    """Bigram language-model quality score (perplexity-style): train add-k
    smoothed bigram/unigram counts on the WHOLE corpus (map-side partials),
    then score every document as the mean log-prob of its bigrams,
    lp(w1,w2) = ln((c(w1,w2)+0.5) / (c(w1)+0.5·V)).  The model lives in two
    count TABLES joined back by hash exchange — the vocabulary is unbounded
    at corpus scale, so the model is never a driver/broadcast dict (the
    `t_tfidf_top` discipline).  Reference analog: the frequency-counter
    reports of ``curation/check_fackel_references.py:32-60`` upgraded to a
    trained scoring model — the LLM-pipeline "quality score" signal."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def explode_bi(batch: pa.Table) -> pa.Table:
        grams, _, grow = word_ngrams_batch(batch["text"], 2)
        split = pc.split_pattern(grams, " ", max_splits=1)
        return pa.table({
            "doc_id": batch["doc_id"].take(pa.array(grow, pa.int64())),
            "bigram": grams,
            "w1": pc.list_element(split, 0) if len(grams)
            else pa.array([], pa.string()),
        })

    bi = docs.map_batches(explode_bi, batch_format="pyarrow").map_batches(
        lambda b: b.append_column("one", pa.array(
            np.ones(b.num_rows, np.int64))), batch_format="pyarrow")
    # compress instances to a (doc_id, bigram) tf table BEFORE any join: at
    # corpus scale the joins then move per-doc-distinct counts, not every
    # bigram instance.  Materialized once — tf feeds both the bigram-count
    # train pass and the scoring join.
    tf = partial_groupby_agg(bi, ["doc_id", "bigram", "w1"],
                             [("one", "count", "m")]).materialize()

    def explode_uni(batch: pa.Table) -> pa.Table:
        grams, _, _ = word_ngrams_batch(batch["text"], 1)
        return pa.table({"tok": grams,
                         "one": pa.array(np.ones(len(grams), np.int64))})

    uc = partial_groupby_agg(
        docs.map_batches(explode_uni, batch_format="pyarrow"),
        ["tok"], [("one", "count", "cu")]).materialize()
    vocab_size = uc.count()

    bc = partial_groupby_agg(
        tf.select_columns(["bigram", "m"]),
        ["bigram"], [("m", "sum", "cb")]).map_batches(
        lambda b: b.select(["bigram", "cb"]).rename_columns(
            ["bigram_r", "cb"]), batch_format="pyarrow")
    ucr = uc.map_batches(
        lambda b: b.select(["tok", "cu"]).rename_columns(["w1_r", "cu"]),
        batch_format="pyarrow")

    j = exchange_join(tf, bc, "bigram", "bigram_r")
    j = exchange_join(j, ucr, "w1", "w1_r")

    def lp(batch: pa.Table, vs=vocab_size) -> pa.Table:
        cb = batch["cb"].to_numpy(zero_copy_only=False).astype(np.float64)
        cu = batch["cu"].to_numpy(zero_copy_only=False).astype(np.float64)
        m = batch["m"].to_numpy(zero_copy_only=False).astype(np.float64)
        lv = np.log((cb + 0.5) / (cu + 0.5 * vs))
        return pa.table({"doc_id": batch["doc_id"],
                         "lp": pa.array(m * lv, pa.float64()),
                         "m": batch["m"]})

    agg = partial_groupby_agg(j.map_batches(lp, batch_format="pyarrow"),
                              ["doc_id"],
                              [("lp", "sum", "s"), ("m", "sum", "n")])
    return agg.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "avg_lp": pc.round(
                pc.divide(b["s"], pc.cast(b["n"], pa.float64())),
                ndigits=6, round_mode="half_towards_infinity"),
        }), batch_format="pyarrow")


def e_funnel(sf_dir: str) -> rd.Dataset:
    """Three-step event funnel (view → click → purchase, each step strictly
    after the previous, completed within 7 days of the first view): the
    sequential-pattern operator every event pipeline needs and SQL needs
    three self-joins for.  Scale shape: ONE hash exchange on user_id, then
    per partition one sort + segmented ``np.minimum.reduceat`` passes — no
    per-user Python, wall time independent of user count (the
    ``e_sessionize`` discipline)."""
    ev = read(sf_dir, "events", ["user_id", "ts", "event_type"])
    window_us = 7 * 86_400 * 1_000_000
    out_schema = pa.schema([("user_id", pa.int64()),
                            ("ts_view", pa.timestamp("us")),
                            ("ts_click", pa.timestamp("us")),
                            ("ts_purchase", pa.timestamp("us"))])

    def funnel_partition(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts"])
        ts = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = tbl["event_type"].to_numpy(zero_copy_only=False)
        seg = np.repeat(np.arange(len(starts)),
                        np.diff(np.append(starts, tbl.num_rows)))
        INF = np.iinfo(np.int64).max
        t1 = np.minimum.reduceat(np.where(et == "view", ts, INF), starts)

        def first_after(kind: str, after: np.ndarray) -> np.ndarray:
            # per-segment "after" broadcast row-wise; ts > INF is never true,
            # so an incomplete previous step poisons this one too
            v = np.where((et == kind) & (ts > after[seg]), ts, INF)
            return np.minimum.reduceat(v, starts)

        t2 = first_after("click", t1)
        t3 = first_after("purchase", t2)
        ok = (t3 != INF) & (t3 - np.where(t1 == INF, 0, t1) <= window_us)
        return pa.table({
            "user_id": tbl["user_id"].take(starts[ok]),
            "ts_view": pa.array(t1[ok].astype("datetime64[us]"),
                                pa.timestamp("us")),
            "ts_click": pa.array(t2[ok].astype("datetime64[us]"),
                                 pa.timestamp("us")),
            "ts_purchase": pa.array(t3[ok].astype("datetime64[us]"),
                                    pa.timestamp("us")),
        })

    return hash_repartition_map(ev, "user_id", funnel_partition,
                                schema=out_schema)


def v_snapshot_diff(sf_dir: str) -> rd.Dataset:
    """Snapshot diff (S5 immutable-update companion): classify every key as
    added/removed/changed between snapshot A (orders) and a deterministically
    derived snapshot B (keys ≡0 mod 97 dropped, prices ≡0 mod 101 bumped,
    negated keys ≡0 mod 103 appended).  Only (key, 64-bit row hash) crosses
    the full-outer exchange — payload width never does
    (``pipelines/snapshot.py``)."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def derive_b(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        keep = k % 97 != 0
        bumped = np.where(k % 101 == 0, p + 1.0, p)
        extra = k % 103 == 0
        return pa.table({
            "o_orderkey": pa.array(
                np.concatenate([k[keep], -k[extra]]), pa.int64()),
            "o_totalprice": pa.array(
                np.concatenate([bumped[keep], p[extra]]), pa.float64()),
        })

    b = orders.map_batches(derive_b, batch_format="pyarrow")
    return snapshot_diff(orders, b, "o_orderkey", ["o_totalprice"])


def e_retention_cohorts(sf_dir: str) -> rd.Dataset:
    """Weekly cohort retention (the event-pipeline staple: users bucketed by
    the Monday week of their FIRST event, counted once per week they return):
    ONE hash exchange on user_id co-locates each user's history, then a
    sort-within-partition + segmented-numpy pass derives (cohort, offset,
    user) with per-partition dedup — per-partition distinct counts sum
    globally because a user never spans partitions.  The tiny
    (cohort_week × week_offset) merge is map-side-combined.  No per-user
    Python (the ``e_funnel`` discipline); SQL needs a self-join + DISTINCT."""
    ev = read(sf_dir, "events", ["user_id", "ts"])
    out_schema = pa.schema([("cohort_week", pa.timestamp("us")),
                            ("week_offset", pa.int64()),
                            ("n_users", pa.int64())])
    US_PER_DAY = 86_400_000_000

    def per_partition(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts"])
        ts = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // US_PER_DAY
        # Monday-aligned week start (epoch 1970-01-01 is a Thursday → Mondays
        # are day ≡ 4 mod 7), matching DuckDB date_trunc('week')
        week = day - ((day - 4) % 7)
        seg = np.repeat(np.arange(len(starts)),
                        np.diff(np.append(starts, tbl.num_rows)))
        first_week = week[starts]
        offset = (week - first_week[seg]) // 7
        # dedup (user, offset) within the partition — exact globally because
        # the exchange co-located every row of the user
        packed = np.unique(seg * 65_536 + offset)
        cohort = first_week[packed // 65_536]
        cells, n = np.unique(cohort * 65_536 + packed % 65_536,
                             return_counts=True)
        return pa.table({
            "cohort_week": pa.array(
                ((cells // 65_536) * US_PER_DAY).astype("datetime64[us]"),
                pa.timestamp("us")),
            "week_offset": pa.array(cells % 65_536, pa.int64()),
            "n_users": pa.array(n, pa.int64()),
        })

    parts = hash_repartition_map(ev, "user_id", per_partition,
                                 schema=out_schema)
    return partial_groupby_agg(parts, ["cohort_week", "week_offset"],
                               [("n_users", "sum", "n_users")])


def td_gopher_rules(sf_dir: str) -> rd.Dataset:
    """Gopher-style document quality gate (Rae et al. 2021 §A1.1 repurposed
    as explicit rule rows, M10's rule-table classifier over text features):
    per-doc word count, mean word length, alphabetic-word fraction and
    stopword hits, each tested against fixed bounds; one fully vectorized
    Arrow/numpy pass per batch (list-flatten + parent-indexed bincounts —
    no token loop), no shuffle at all."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def feats(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        toks = pc.split_pattern_regex(
            pc.fill_null(batch["text"].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        par = parent[keep]
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)[keep]
        alpha = pc.match_substring_regex(
            flat, "[a-zA-Z]").to_numpy(zero_copy_only=False)[keep]
        stop = pc.is_in(flat, value_set=pa.array(
            STOPWORDS, pa.string())).to_numpy(zero_copy_only=False)[keep]
        n_words = np.bincount(par, minlength=n)
        denom = np.maximum(n_words, 1).astype(np.float64)
        mean_len = np.bincount(par, weights=lens, minlength=n) / denom
        frac_alpha = np.bincount(par, weights=alpha, minlength=n) / denom
        n_stop = np.bincount(par, weights=stop, minlength=n).astype(np.int64)
        passes = ((n_words >= 5) & (n_words <= 100_000)
                  & (mean_len >= 2.0) & (mean_len <= 12.0)
                  & (frac_alpha >= 0.6) & (n_stop >= 1))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "mean_word_len": pa.array(round_half_away(mean_len, 6),
                                      pa.float64()),
            "frac_alpha": pa.array(round_half_away(frac_alpha, 6),
                                   pa.float64()),
            "n_stop": pa.array(n_stop, pa.int64()),
            "passes": pa.array(passes),
        })

    return docs.map_batches(feats, batch_format="pyarrow")


def td_c4_line_filters(sf_dir: str) -> rd.Dataset:
    """C4-style line-level cleaning gate (Raffel et al. 2020 §2.2): a line
    survives iff it ends in a terminal punctuation mark, has ≥3
    whitespace tokens and does not mention "javascript"; a page survives
    iff it keeps ≥5 lines and contains neither a curly brace nor "lorem
    ipsum". One vectorized pass per batch: split-on-newline list arrays,
    flatten, per-line Arrow predicates, parent-indexed bincounts back to
    the doc — no token loop, no shuffle (embarrassingly parallel, the
    right shape for a 100-TB cleaning sweep). Input is the deterministic
    line corpus (``sources/lines.py``; testdata documents carry no
    newlines), same fixture-pinned-oracle convention as the mm_* queries."""
    fix = ensure_lines(lines_ndocs_for_sf(sf_dir))
    docs = rd.read_parquet(os.path.join(fix))

    def feats(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        text = pc.fill_null(batch["text"].combine_chunks(), "")
        lines = pc.split_pattern(text, "\n")
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        # trim ASCII space only — mirrors the oracle's trim(line, ' ')
        trimmed = pc.utf8_trim(flat, " ")
        ends = pc.match_substring_regex(
            trimmed, '[.!?"]$').to_numpy(zero_copy_only=False)
        n_words = pc.list_value_length(pc.split_pattern_regex(
            trimmed, r"\s+")).to_numpy(zero_copy_only=False)
        js = pc.match_substring(pc.utf8_lower(flat),
                                "javascript").to_numpy(zero_copy_only=False)
        keep = ends & (n_words >= 3) & ~js
        n_lines = np.bincount(parent, minlength=n).astype(np.int64)
        kept = np.bincount(parent[keep], minlength=n).astype(np.int64)
        lorem = pc.match_substring(
            pc.utf8_lower(text), "lorem ipsum").to_numpy(zero_copy_only=False)
        brace = pc.match_substring(text, "{").to_numpy(zero_copy_only=False)
        page_kept = ~lorem & ~brace & (kept >= 5)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines, pa.int64()),
            "kept_lines": pa.array(kept, pa.int64()),
            "page_kept": pa.array(page_kept),
        })

    return docs.map_batches(feats, batch_format="pyarrow")


def q10_returned_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q10 shape (returned-item revenue per customer, one quarter):
    fact-side filters pushed before the single orderkey shuffle join,
    map-side partial sum per customer, then the customer/nation dims fold
    in as broadcast lookups and only the top 20 survive the final sort."""
    line = read(sf_dir, "lineitem",
                ["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"])

    def returned(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "revenue_part": rev})

    line = drop_empty_blocks(
        line.map_batches(returned, batch_format="pyarrow"))
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                     "o_orderdate"])

    def in_q4_1996(batch: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64("1996-10-01", "us"))
        hi = pa.scalar(np.datetime64("1997-01-01", "us"))
        batch = batch.filter(pc.and_(
            pc.greater_equal(batch["o_orderdate"], lo),
            pc.less(batch["o_orderdate"], hi)))
        return batch.select(["o_orderkey", "o_custkey"])

    orders = drop_empty_blocks(
        orders.map_batches(in_q4_1996, batch_format="pyarrow"))
    out_schema = pa.schema([("c_custkey", pa.int64()),
                            ("c_name", pa.string()),
                            ("revenue", pa.float64()),
                            ("c_acctbal", pa.float64()),
                            ("n_name", pa.string())])
    if line is None or orders is None:
        return rd.from_arrow(out_schema.empty_table())

    joined = exchange_join(line, orders, "l_orderkey", "o_orderkey")
    agg = partial_groupby_agg(joined, ["o_custkey"],
                              [("revenue_part", "sum", "revenue")])
    agg = agg.map_batches(_round_stage({"revenue": 2}),
                          batch_format="pyarrow")
    # dims are tiny → fold nation into customer driver-side, broadcast once
    nation = read_table(sf_dir, "nation")
    cust = read_table(sf_dir, "customer",
                      ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
    n_idx = pc.index_in(cust["c_nationkey"], value_set=nation["n_nationkey"])
    cust = cust.append_column("n_name", pc.take(nation["n_name"], n_idx))
    agg = broadcast_join(
        agg, cust.select(["c_custkey", "c_name", "c_acctbal", "n_name"]),
        "o_custkey", "c_custkey", how="inner")
    out = topk(agg, [("revenue", True), ("o_custkey", False)], 20)
    return out.map_batches(
        lambda b: b.select(["o_custkey", "c_name", "revenue", "c_acctbal",
                            "n_name"]).rename_columns(out_schema.names),
        batch_format="pyarrow")


def g_degree_stats(sf_dir: str) -> rd.Dataset:
    """Link-graph degree distribution (in- and out-): the first thing a
    graph pipeline reports before any traversal.  Two chained
    per-url count inside ONE url-hash exchange (all rows of a url are
    co-located, so the count is exact and the degree histogram partial is
    computed locally), then a tiny grouped merge per degree value — the
    exchange moves (url) rows, never the html. Links materialize ONCE: the
    in- and out-degree branches would otherwise each re-run the per-page
    link extraction (measured 2× the wall)."""
    links = pages_links(sf_dir).materialize()

    def one_direction(col: str, label: str) -> rd.Dataset:
        def local_hist(tbl: pa.Table) -> pa.Table:
            g = pa.TableGroupBy(tbl, col).aggregate([([], "count_all")])
            d = pa.TableGroupBy(pa.table({"deg": g["count_all"]}),
                                "deg").aggregate([([], "count_all")])
            return pa.table({"deg": d["deg"],
                             "n_part": d["count_all"]})

        parts = hash_repartition_map(links.select_columns([col]), col,
                                     local_hist)
        return partial_groupby_agg(
            parts, ["deg"], [("n_part", "sum", "n_urls")]).map_batches(
            lambda b: b.append_column(
                "direction", pa.array([label] * b.num_rows, pa.string())),
            batch_format="pyarrow")

    return one_direction("src_url", "out").union(
        one_direction("dst_url", "in"))


def dd_containment(sf_dir: str) -> rd.Dataset:
    """Asymmetric near-dup via the overlap coefficient (containment of the
    smaller shingle set, the metric that catches a document pasted inside a
    longer one where Jaccard dilutes below threshold): the exact
    inverted-index plan of ``dd_shingle_jaccard`` — shingle explode →
    per-shingle co-occurrence pairs → pair-count exchange → distributed
    size joins — with only the final division swapped."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    return shingle_jaccard_pairs_matmul(docs, "doc_id", "text", k=2,
                                        threshold=CONTAINMENT_THRESHOLD,
                                        metric="overlap")


def s_kmeans(sf_dir: str) -> pa.Table:
    """Fully DISTRIBUTED Lloyd's k-means over the embeddings table (k=8,
    5 iterations, deterministic init = the k lowest-vec_id vectors) — the
    clustering pass a curation pipeline runs before per-cluster sampling,
    and the full-data big sibling of the driver-side sampled quantizer in
    ``similarity.train_centroids``.  Per iteration: centroids broadcast
    once via ``ray.put``; each batch computes assignments with one matmul
    and emits k moment rows (count, per-dim sum, ssq) — the exchange moves
    k×(d+2) floats per batch, never a vector; the driver merges k rows and
    updates.  Inputs materialized ONCE and reused across iterations.
    Approximation-free and fixed-seed deterministic; cluster SIZES are
    exact and run-stable (asserted against a single-process numpy
    reference in tests), float inertia is rounded."""
    k, iters = 8, 5
    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    init_rows = topk(emb, [("vec_id", False)], k).take_all()
    init_rows.sort(key=lambda r: r["vec_id"])
    cents = np.asarray([r["embedding"] for r in init_rows], dtype=np.float64)

    def make_partials(cref):
        def partials(batch: pa.Table) -> pa.Table:
            C = ray.get(cref)
            kk, d = C.shape
            if batch.num_rows == 0:
                return pa.table({
                    "cluster": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "ssq": pa.array([], pa.float64()),
                    "sums": pa.array([], pa.list_(pa.float64())),
                })
            arr = batch["embedding"].combine_chunks()
            X = np.asarray(arr.values, dtype=np.float64).reshape(-1, d)
            d2 = ((X * X).sum(1)[:, None] - 2.0 * (X @ C.T)
                  + (C * C).sum(1)[None, :])
            a = np.argmin(d2, axis=1)
            onehot = np.zeros((len(X), kk), dtype=np.float64)
            onehot[np.arange(len(X)), a] = 1.0
            sums = onehot.T @ X                      # (k, d)
            n = np.bincount(a, minlength=kk).astype(np.int64)
            ssq = np.bincount(a, weights=d2[np.arange(len(X)), a],
                              minlength=kk)
            return pa.table({
                "cluster": pa.array(np.arange(kk, dtype=np.int64)),
                "n": pa.array(n),
                "ssq": pa.array(ssq, pa.float64()),
                "sums": pa.array(list(sums), pa.list_(pa.float64())),
            })

        return partials

    def merge(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = np.zeros(k, dtype=np.int64)
        ssq = np.zeros(k, dtype=np.float64)
        s = np.zeros_like(cents)
        for r in rows:
            c = r["cluster"]
            n[c] += r["n"]
            ssq[c] += r["ssq"]
            s[c] += np.asarray(r["sums"], dtype=np.float64)
        return n, ssq, s

    for _ in range(iters):
        rows = emb.map_batches(make_partials(ray.put(cents)),
                               batch_format="pyarrow").take_all()
        n, _ssq, s = merge(rows)
        upd = n > 0
        cents[upd] = s[upd] / n[upd, None]   # empty cluster keeps its seat
    rows = emb.map_batches(make_partials(ray.put(cents)),
                           batch_format="pyarrow").take_all()
    n, ssq, _s = merge(rows)
    return pa.table({
        "cluster": pa.array(np.arange(k, dtype=np.int64)),
        "size": pa.array(n),
        "inertia": pa.array(round_half_away(ssq, 4), pa.float64()),
        "centroid_norm": pa.array(
            round_half_away(np.sqrt((cents * cents).sum(1)), 6),
            pa.float64()),
    })


def a_zipf_slope(sf_dir: str) -> rd.Dataset:
    """Zipf exponent of the corpus token distribution (OLS slope of
    ln(freq) on ln(rank)) — the one-number sanity check that a text corpus
    is natural-language-shaped.  Token frequencies come from the map-side
    combined exchange; the ranked regression runs on the VOCABULARY table
    (orders of magnitude smaller than the corpus; single-block here —
    bounded vocab — with the ``o_ntile_price`` band-prefix-sum rank as the
    documented heavy-vocab path)."""
    docs = read(sf_dir, "documents", ["text"])

    def toks(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern_regex(
            pc.fill_null(batch["text"].combine_chunks(), ""), r"\s+"))
        flat = flat.filter(pc.not_equal(flat, ""))
        return pa.table({"tok": flat,
                         "one": pa.array(np.ones(len(flat), np.int64))})

    freq = partial_groupby_agg(docs.map_batches(toks, batch_format="pyarrow"),
                               ["tok"], [("one", "sum", "f")])

    def slope(tbl: pa.Table) -> pa.Table:
        idx = pc.sort_indices(tbl, sort_keys=[("f", "descending"),
                                              ("tok", "ascending")])
        f = tbl["f"].take(idx).to_numpy(zero_copy_only=False)
        y = np.log(f.astype(np.float64))
        x = np.log(np.arange(1, len(f) + 1, dtype=np.float64))
        nn = float(len(f))
        b = ((nn * (x * y).sum() - x.sum() * y.sum())
             / (nn * (x * x).sum() - x.sum() ** 2))
        return pa.table({
            "zipf_slope": pa.array(round_half_away(np.array([b]), 6),
                                   pa.float64()),
            "n_tokens": pa.array([len(f)], pa.int64()),
        })

    return freq.repartition(1).map_batches(slope, batch_format="pyarrow",
                                           batch_size=None)


def e_anomaly_zscore(sf_dir: str) -> rd.Dataset:
    """Per-user z-score outlier detection (events whose value sits >3σ from
    the user's own mean — the per-entity anomaly shape drift monitoring
    needs): user moments from one map-side-combined exchange, then ONE
    hash join of the stats back onto the stream and a vectorized filter.
    The stats side scales with user count, so it is JOINED, not broadcast
    (the J2/J3 round-1 lesson)."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "value"])

    def pre(batch: pa.Table) -> pa.Table:
        v = batch["value"]
        return pa.table({"su": batch["user_id"], "s1": v,
                         "s2": pc.multiply(v, v),
                         "one": pa.array(np.ones(batch.num_rows, np.int64))})

    stats = partial_groupby_agg(ev.map_batches(pre, batch_format="pyarrow"),
                                ["su"], [("s1", "sum", "s1"),
                                         ("s2", "sum", "s2"),
                                         ("one", "sum", "n")])
    out_schema = pa.schema([("event_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("value", pa.float64()),
                            ("z", pa.float64())])
    ev2 = drop_empty_blocks(ev)
    stats = drop_empty_blocks(stats)
    if ev2 is None or stats is None:
        return rd.from_arrow(out_schema.empty_table())

    joined = exchange_join(ev2, stats, "user_id", "su")

    def flag(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        s1 = batch["s1"].to_numpy(zero_copy_only=False)
        s2 = batch["s2"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        mu = s1 / n
        sd = np.sqrt(np.maximum(s2 / n - mu * mu, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (v - mu) / sd
        keep = (sd > 0) & (np.abs(z) > 3.0)
        return pa.table({
            "event_id": batch["event_id"].filter(pa.array(keep)),
            "user_id": batch["user_id"].filter(pa.array(keep)),
            "value": batch["value"].filter(pa.array(keep)),
            "z": pa.array(round_half_away(z[keep], 4), pa.float64()),
        }, schema=out_schema)

    return joined.map_batches(flag, batch_format="pyarrow")


def q14_promo_revenue(sf_dir: str) -> rd.Dataset:
    """TPC-H Q14 shape: global conditional-numerator ratio (promo revenue %
    for one shipping year). The part dimension collapses to its PROMO key
    set, broadcast once (|part|/6 int64s; at extreme part cardinality the
    same query runs as the q3-style partkey shuffle join — the ratio shape
    is unchanged); lineitem streams through ONE map emitting two float
    partials per batch, so nothing shuffles (A4 global counters,
    ≙ ``scripts/enrich_fackel_bibls.py:113-116`` match/nomatch ratio)."""
    promo_tbl = read_table(sf_dir, "part", ["p_partkey", "p_type"])
    promo_keys = promo_tbl.filter(
        pc.equal(promo_tbl["p_type"], "PROMO"))["p_partkey"].combine_chunks()

    line = read(sf_dir, "lineitem",
                ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])

    def partials(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["l_shipdate"],
                             pa.scalar(np.datetime64("1996-01-01", "us"))),
            pc.less(batch["l_shipdate"],
                    pa.scalar(np.datetime64("1997-01-01", "us"))))
        batch = batch.filter(m)
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        is_promo = pc.is_in(batch["l_partkey"], value_set=promo_keys)
        promo_rev = pc.if_else(is_promo, rev, pa.scalar(0.0))
        return pa.table({
            "promo": pa.array([pc.sum(promo_rev).as_py() or 0.0],
                              pa.float64()),
            "total": pa.array([pc.sum(rev).as_py() or 0.0], pa.float64()),
        })

    parts = line.map_batches(partials, batch_format="pyarrow").to_arrow_refs()

    tbl = pa.concat_tables([t if isinstance(t, pa.Table)
                            else pa.Table.from_batches([t])
                            for t in ray.get(parts)])
    promo = pc.sum(tbl["promo"]).as_py() or 0.0
    total = pc.sum(tbl["total"]).as_py() or 1.0
    return pa.table({"promo_pct": pa.array(
        [round_half_away(np.array([100.0 * promo / total]), 6)[0]],
        pa.float64())})


def q18_big_orders(sf_dir: str) -> rd.Dataset:
    """TPC-H Q18 shape (large-volume orders): aggregate → HAVING → join the
    tiny survivor set back against the fact tables. The per-order quantity
    sum runs map-side-partial; survivors of ``sum_qty > 250`` (~1% of
    orders — bounded by the threshold's selectivity, which is the point of
    Q18) broadcast into the orders scan, and the customer dim folds in as a
    second broadcast; nothing all-to-all anywhere."""
    line = read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    sums = partial_groupby_agg(line, ["l_orderkey"],
                               [("l_quantity", "sum", "sum_qty")])
    big = sums.filter(expr="sum_qty > 250.0")
    # survivor set is small by construction: driver collect bounded by it
    surv_tbl = pa.Table.from_pandas(big.to_pandas(), preserve_index=False)
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                     "o_totalprice"])
    j = broadcast_join(orders, surv_tbl, "o_orderkey", "l_orderkey",
                       how="inner")
    cust = read_table(sf_dir, "customer", ["c_custkey", "c_name"])
    j = broadcast_join(j, cust, "o_custkey", "c_custkey", how="left")
    return j.select_columns(
        ["c_name", "o_orderkey", "o_totalprice", "sum_qty"])


def e_ffill_last_purchase(sf_dir: str) -> rd.Dataset:
    """Per-key ordered forward-fill (LAST_VALUE ... IGNORE NULLS): each
    event carries the value of its user's most recent 'purchase' event at
    or before it. One user_id hash exchange, one sort per partition, then a
    segmented numpy cummax-of-indices fill — no per-group Python, wall time
    independent of user count (the e_sessionize treatment applied to the
    fill window shape)."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type",
                                 "value"])
    out_schema = pa.schema([("event_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("last_purchase_value", pa.float64())])

    def ffill(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts", "event_id"])
        n = tbl.num_rows
        val = tbl["value"].to_numpy(zero_copy_only=False)
        is_p = pc.equal(tbl["event_type"], "purchase").to_numpy(
            zero_copy_only=False)
        pos = np.where(is_p, np.arange(n), -1)
        last_pos = np.maximum.accumulate(pos)
        # rows sorted by user → any filled position >= the current user's
        # first row index belongs to this user
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        valid = last_pos >= seg_start
        filled = np.where(valid, val[np.clip(last_pos, 0, n - 1)], np.nan)
        return pa.table({
            "event_id": tbl["event_id"],
            "user_id": tbl["user_id"],
            "last_purchase_value": pa.array(filled, pa.float64(),
                                            mask=~valid),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", ffill, schema=out_schema)


TD_CHUNK_SIZE = 12
TD_CHUNK_STRIDE = 8


def td_chunks(sf_dir: str) -> rd.Dataset:
    """Training-data chunking: split each document into fixed-size token
    windows (size 12, stride 8 → overlapping context windows, the
    LLM-pretraining chunk shape). Pure within-row flat-map expansion with
    stable ordinals (M1+M11): chunk token indices are built arithmetically
    (repeat/arange), gathered from the flattened token buffer in one take,
    and re-joined per chunk with Arrow kernels — no per-row Python."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    size, stride = TD_CHUNK_SIZE, TD_CHUNK_STRIDE
    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("chunk_id", pa.int64()),
                            ("n_tokens", pa.int64()),
                            ("chunk_text", pa.string())])

    def chunk(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False
                                                   ).astype(np.int64)
        row_off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=row_off[1:])
        # chunks per row: ceil(max(n - size, 0) / stride) + 1  (>=1 per row)
        n_chunks = np.maximum(lens - size, 0)
        n_chunks = (n_chunks + stride - 1) // stride + 1
        doc_rep = np.repeat(np.arange(len(lens)), n_chunks)
        # ordinal of each chunk within its row
        tot = int(n_chunks.sum())
        chunk_off = np.zeros(len(n_chunks) + 1, dtype=np.int64)
        np.cumsum(n_chunks, out=chunk_off[1:])
        ordinal = np.arange(tot) - chunk_off[doc_rep]
        start = ordinal * stride
        clen = np.minimum(start + size, lens[doc_rep]) - start
        # flatten all chunk token positions: for chunk j, indices
        # row_off[row] + start[j] + arange(clen[j])
        tok_rep = np.repeat(np.arange(tot), clen)
        tok_off = np.zeros(tot + 1, dtype=np.int64)
        np.cumsum(clen, out=tok_off[1:])
        within = np.arange(int(clen.sum())) - tok_off[tok_rep]
        gather = row_off[doc_rep][tok_rep] + start[tok_rep] + within
        chunk_lists = pa.ListArray.from_arrays(
            pa.array(tok_off, pa.int32()) if tot < (1 << 30)
            else pa.array(tok_off), flat.take(pa.array(gather)))
        text = pc.binary_join(chunk_lists, " ")
        return pa.table({
            "doc_id": batch["doc_id"].take(pa.array(doc_rep)),
            "chunk_id": pa.array(ordinal, pa.int64()),
            "n_tokens": pa.array(clen, pa.int64()),
            "chunk_text": text,
        }, schema=out_schema)

    return docs.map_batches(chunk, batch_format="pyarrow")


def a_salted_event_counts(sf_dir: str) -> rd.Dataset:
    """Skew-safe grouped count over a Zipf-hot key (§4 skew row). No salt
    is needed: the map-side partials reduce a hot key to one row per
    block before the merge, so no merge task sees its raw rows. The
    result is a plain ``GROUP BY`` count; the name stays because
    ``__ray_entry__.queries()`` exposes it."""
    ev = read(sf_dir, "events", ["event_type"])
    return partial_groupby_agg(
        ev, ["event_type"], [("one", "count", "n")],
        pre=lambda b: b.append_column(
            "one", pa.array(np.ones(b.num_rows, np.int64))))


def q11_important_parts(sf_dir: str) -> rd.Dataset:
    """TPC-H Q11 shape: grouped total vs a fraction of the GLOBAL total
    (``HAVING sum(...) > k × (SELECT sum(...) ...)``) — the two-phase
    global-then-filter pattern. Per-part quantity sums come from map-side
    partials; the global total is an ``O(1)`` Dataset reduction over the
    materialized per-part aggregate (never a driver collect of the part
    list); the scalar broadcasts into the filter. Quantity sums are
    integer-valued doubles, so both engine and oracle compare exactly."""
    line = read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    per_part = partial_groupby_agg(
        line, ["l_partkey"], [("l_quantity", "sum", "sum_qty")]).materialize()
    total = per_part.sum("sum_qty")
    n_parts = per_part.count()
    # threshold = 1.5 x the mean per-part quantity: both engine and oracle
    # derive it as the same exact-float division, so the comparison is
    # deterministic at every sf
    thresh = 1.5 * (total / max(1, n_parts))

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["sum_qty"], pa.scalar(thresh)))

    return per_part.map_batches(keep, batch_format="pyarrow")


def q22_idle_rich_customers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q22 shape: global scalar subquery + anti-join (customers with
    above-average balance and no orders). The average folds from per-batch
    (sum, count) partials into one driver scalar (A4); the no-orders side is
    the J2 distributed anti-join (map-side per-batch distinct, one hash
    exchange — no driver key set)."""
    cust = read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def partials(batch: pa.Table) -> pa.Table:
        return pa.table({
            "s": pa.array([pc.sum(batch["c_acctbal"]).as_py() or 0.0],
                          pa.float64()),
            "n": pa.array([batch.num_rows], pa.int64()),
        })

    parts = pa.concat_tables([
        t if isinstance(t, pa.Table) else pa.Table.from_batches([t])
        for t in ray.get(
            cust.map_batches(partials, batch_format="pyarrow")
            .to_arrow_refs())])
    avg = (pc.sum(parts["s"]).as_py() or 0.0) / max(
        1, pc.sum(parts["n"]).as_py() or 0)

    cust = read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    rich = cust.map_batches(
        lambda b: b.filter(pc.greater(b["c_acctbal"], pa.scalar(avg))),
        batch_format="pyarrow")
    cutoff = pa.scalar(np.datetime64("2001-01-01", "us"))
    buyers = read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda b: b.filter(pc.greater_equal(b["o_orderdate"], cutoff))
        .select(["o_custkey"]), batch_format="pyarrow").map_batches(
        _batch_distinct("o_custkey"), batch_format="pyarrow")
    return exchange_join(rich, buyers, "c_custkey", "o_custkey",
                         how="left_anti")


def j_skew_user_events(sf_dir: str) -> rd.Dataset:
    """Skew-aware join (hybrid broadcast-hot/exchange-cold,
    ``relational.skew_join``): events ⋈ customer on user_id with a low hot
    threshold so the heavy-hitter path actually exercises — hot users'
    events join a broadcast customer slice block-parallel, cold users go
    through the disjoint-range exchange. Per-segment counts prove
    value-level parity with the plain SQL join. The 100-TB shape for a
    bot-hammered key the reference never faces (SURVEY.md §4 "Skew")."""
    events = read(sf_dir, "events", ["user_id", "value"])
    cust = read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = skew_join(events, cust, "user_id", "c_custkey", how="inner",
                       hot_count=50)
    agg = partial_groupby_agg(joined, ["c_mktsegment"],
                              [("value", "count", "n_events"),
                               ("value", "sum", "sum_value")])
    return agg.map_batches(_round_stage({"sum_value": 2}),
                           batch_format="pyarrow")


def a_cube_lang_source(sf_dir: str) -> rd.Dataset:
    """CUBE over (lang, source): all four grouping sets — (lang, source),
    (lang), (source), () — from ONE map-side partial aggregation at the
    finest grain; the three coarser sets are derived vectorized from the
    ~100 (lang × source) rows, never a second scan of the fact table
    (the ``a_rollup_cust`` treatment generalized to the full lattice).
    NULL marks a rolled-up dimension, as SQL's CUBE does."""
    docs = read(sf_dir, "documents", ["lang", "source", "n_chars"])
    base = partial_groupby_agg(docs, ["lang", "source"],
                               [("n_chars", "count", "n_docs"),
                                ("n_chars", "sum", "sum_chars")])

    def cube(tbl: pa.Table) -> pa.Table:
        tbl = tbl.combine_chunks()
        lang = tbl["lang"]
        src = tbl["source"]
        n = tbl["n_docs"]
        s = tbl["sum_chars"]
        nulls = pa.nulls(1, pa.string())

        def agg_over(keys: list[str]) -> pa.Table:
            if not keys:
                return pa.table({
                    "lang": nulls, "source": nulls,
                    "n_docs": pa.array([pc.sum(n).as_py()], pa.int64()),
                    "sum_chars": pa.array([pc.sum(s).as_py()], pa.int64()),
                })
            g = tbl.group_by(keys).aggregate(
                [("n_docs", "sum"), ("sum_chars", "sum")])
            out = {
                "lang": g["lang"] if "lang" in keys
                else pa.nulls(g.num_rows, pa.string()),
                "source": g["source"] if "source" in keys
                else pa.nulls(g.num_rows, pa.string()),
                "n_docs": g["n_docs_sum"],
                "sum_chars": g["sum_chars_sum"],
            }
            return pa.table(out)

        fine = pa.table({"lang": lang, "source": src,
                         "n_docs": n, "sum_chars": s})
        return pa.concat_tables([
            fine, agg_over(["lang"]), agg_over(["source"]), agg_over([])])

    # the derivation needs EVERY fine-grain row in one place — bounded by
    # |langs| × |sources| (tiny), so a single-task repartition is safe
    return base.repartition(1).map_batches(cube, batch_format="pyarrow")


BADWORDS_SQL_LIST = "'slow','dup','spark'"


def t_badwords(sf_dir: str) -> rd.Dataset:
    """C4-style blocklist filter: per-document fraction of blocklisted
    tokens (vectorized ``pc.is_in`` over the flattened token list +
    segmented bincount — zero per-row Python), with the keep/drop flag a
    training-data curation pass would gate on. The blocklist is data, not
    code (M10's rule-table shape applied to text quality)."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    bad = pa.array([w.strip("'") for w in BADWORDS_SQL_LIST.split(",")])

    def score(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        hit = pc.is_in(flat, value_set=bad).to_numpy(zero_copy_only=False)
        seg = np.repeat(np.arange(len(lens)), lens)
        n_bad = np.bincount(seg, weights=hit,
                            minlength=len(lens)).astype(np.int64)
        frac = n_bad / np.maximum(lens, 1)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(lens, pa.int64()),
            "n_bad": pa.array(n_bad, pa.int64()),
            "bad_frac": pa.array(round_half_away(frac, 6), pa.float64()),
            "keep": pa.array(frac < 0.1),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def td_mix_sample(sf_dir: str) -> rd.Dataset:
    """Domain-mixture sampling (pretraining data mixing): each source is
    kept at its own target rate — here 100% / 50% / 10% by source tier —
    with a deterministic multiplicative key hash as the keep predicate
    (engine-neutral: the SQL side computes the identical BIGINT
    expression, so the sample is oracle-checkable, unlike seeded RNG).
    Pure per-batch filter: no shuffle, no driver state; at 100 TB the
    rates table is the only broadcast."""
    docs = read(sf_dir, "documents", ["doc_id", "source", "lang"])

    def keep(batch: pa.Table) -> pa.Table:
        suffix = pc.cast(pc.utf8_slice_codeunits(batch["source"], 3, 99),
                         pa.int64()).to_numpy(zero_copy_only=False)
        rate = np.where(suffix < 5, 100, np.where(suffix < 10, 50, 10))
        k = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = (k * 2654435761) % 100
        return batch.filter(pa.array(h < rate))

    return docs.map_batches(keep, batch_format="pyarrow")


def o_intersect_except(sf_dir: str) -> rd.Dataset:
    """INTERSECT / EXCEPT as first-class distributed set ops (O6 beyond the
    membership-join form): distinct click-users ∩ / ∖ distinct error-users
    in one pass — map-side per-batch distinct on each tagged side, one hash
    exchange co-locates a key's tags, presence flags decide the op. Emits
    (user_id, setop) rows; DuckDB's INTERSECT/EXCEPT is the oracle."""
    events = read(sf_dir, "events", ["user_id", "event_type"])

    def tag(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        a = batch.filter(pc.equal(et, "click"))
        b = batch.filter(pc.equal(et, "error"))
        return pa.table({
            "user_id": pa.concat_arrays([
                a["user_id"].combine_chunks(),
                b["user_id"].combine_chunks()]),
            "is_a": pa.array([True] * a.num_rows + [False] * b.num_rows),
        }).group_by(["user_id", "is_a"]).aggregate([])

    tagged = events.map_batches(tag, batch_format="pyarrow")

    def decide(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["user_id"]).aggregate([("is_a", "max"),
                                                 ("is_a", "min")])
        has_a = g["is_a_max"].to_numpy(zero_copy_only=False)
        has_b = pc.invert(g["is_a_min"]).to_numpy(zero_copy_only=False)
        # rows with only click → has_a & !has_b... careful: is_a_min True
        # means every tag row was the click side (no error row)
        only_a = np.asarray(has_a) & np.asarray(
            g["is_a_min"].to_numpy(zero_copy_only=False))
        both = np.asarray(has_a) & np.asarray(has_b)
        # a null user_id is one key, as in SQL's INTERSECT / EXCEPT
        out_ids = g["user_id"].take(np.concatenate(
            [np.flatnonzero(both), np.flatnonzero(only_a)]))
        ops = np.array(["intersect"] * int(both.sum())
                       + ["except"] * int(only_a.sum()), dtype=object)
        return pa.table({"user_id": out_ids,
                         "setop": pa.array(ops, pa.string())})

    return hash_repartition_map(tagged, "user_id", decide)


def td_ccnet_buckets(sf_dir: str) -> rd.Dataset:
    """CCNet-style quality bucketing (Wenzek et al., LREC 2020): split the
    corpus into head/middle/tail TERCILES of the corpus-trained bigram-LM
    score — the standard perplexity gate a pretraining pipeline applies
    before sampling. Composes two existing distributed operators: the
    ``t_bigram_lm_score`` model (count tables joined by hash exchange,
    never a broadcast vocabulary) and the ``o_ntile_price`` exact global
    window rank (value bands → prefix-sum offsets → one exchange + one
    sort per band partition; no node sees the whole sort)."""
    K = 3
    W = 0.25
    scores = t_bigram_lm_score(sf_dir)  # (doc_id, avg_lp) — oracle-shared

    def bucketed(batch: pa.Table) -> pa.Table:
        b = np.floor(batch["avg_lp"].to_numpy(zero_copy_only=False) / W)
        return batch.append_column("band", pa.array(b.astype(np.int64)))

    banded = scores.map_batches(bucketed, batch_format="pyarrow")
    counts = collect_tables(
        partial_groupby_agg(banded, ["band"], [("doc_id", "count", "n")]),
        pa.schema([("band", pa.int64()), ("n", pa.int64())]))
    bands = counts["band"].to_numpy(zero_copy_only=False)
    ns = counts["n"].to_numpy(zero_copy_only=False)
    lo_band = int(bands.min()) if len(bands) else 0
    hi_band = int(bands.max()) if len(bands) else 0
    offsets = np.zeros(hi_band - lo_band + 2, dtype=np.int64)
    np.add.at(offsets, bands - lo_band + 1, ns)
    offsets = np.cumsum(offsets)
    N = int(offsets[-1])
    base, rem = divmod(N, K)
    labels = np.array(["tail", "middle", "head"], dtype=object)

    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("avg_lp", pa.float64()),
                            ("bucket", pa.string())])

    def rank(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "band", ["avg_lp", "doc_id"])
        band = tbl["band"].to_numpy(zero_copy_only=False)
        n = len(band)
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        r = offsets[band - lo_band] + (np.arange(n) - seg_start)
        cut = rem * (base + 1)
        tile = np.where(r < cut, r // max(base + 1, 1),
                        rem + (r - cut) // max(base, 1))  # 0-based tercile
        return pa.table({"doc_id": tbl["doc_id"],
                         "avg_lp": tbl["avg_lp"],
                         "bucket": pa.array(labels[tile], pa.string())},
                        schema=out_schema)

    return hash_repartition_map(banded, "band", rank, schema=out_schema)


def a_winsorize_price(sf_dir: str) -> rd.Dataset:
    """Winsorization at EXACT global percentiles (p05/p95, DuckDB
    ``quantile_cont`` interpolation): the outlier-clipping normalization a
    feature pipeline applies before training. Order statistics come from
    the value-band prefix-sum machinery (``a_median_price_exact``): only
    the band partitions owning the 4 needed ranks sort and extract one
    value each — the driver sees 4 numbers, then one stateless clip pass
    rewrites the column. No node ever holds the full sorted column."""
    W = 50_000.0
    PS = (0.05, 0.95)
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def bucketed(batch: pa.Table) -> pa.Table:
        b = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) / W)
        return batch.append_column("band", pa.array(b.astype(np.int64)))

    banded = orders.map_batches(bucketed, batch_format="pyarrow")
    counts = collect_tables(
        partial_groupby_agg(banded, ["band"],
                            [("o_totalprice", "count", "n")]),
        pa.schema([("band", pa.int64()), ("n", pa.int64())]))
    bands = counts["band"].to_numpy(zero_copy_only=False)
    ns = counts["n"].to_numpy(zero_copy_only=False)
    max_band = int(bands.max()) if len(bands) else 0
    offsets = np.zeros(max_band + 2, dtype=np.int64)
    np.add.at(offsets, bands + 1, ns)
    offsets = np.cumsum(offsets)
    N = int(offsets[-1])
    hs = [(N - 1) * p for p in PS]
    targets = sorted({r for h in hs
                      for r in (int(np.floor(h)),
                                min(int(np.floor(h)) + 1, N - 1))})

    out_schema = pa.schema([("r", pa.int64()), ("v", pa.float64())])

    def extract(tbl: pa.Table) -> pa.Table:
        band = tbl["band"].to_numpy(zero_copy_only=False)
        mine = [t for t in targets
                if (band == np.searchsorted(offsets, t, "right") - 1).any()]
        if not mine:
            return out_schema.empty_table()
        order = np.lexsort((tbl["o_totalprice"].to_numpy(
            zero_copy_only=False), band))
        v = tbl["o_totalprice"].to_numpy(zero_copy_only=False)[order]
        b_sorted = band[order]
        rows = []
        for t in mine:
            tb = int(np.searchsorted(offsets, t, "right") - 1)
            local = t - int(offsets[tb])
            seg = np.flatnonzero(b_sorted == tb)
            rows.append((t, float(v[seg[local]])))
        return pa.table({"r": pa.array([r for r, _ in rows], pa.int64()),
                         "v": pa.array([x for _, x in rows], pa.float64())},
                        schema=out_schema)

    got = collect_tables(hash_repartition_map(banded, "band", extract,
                                              schema=out_schema),
                         out_schema)
    vals = dict(zip(got["r"].to_pylist(), got["v"].to_pylist()))
    qs = []
    for h in hs:
        lo = int(np.floor(h))
        d = h - lo
        v_lo = vals[lo]
        v_hi = vals[min(lo + 1, N - 1)]
        # DuckDB quantile_cont interpolation, float-for-float
        qs.append(v_lo * (1.0 - d) + v_hi * d)
    q_lo, q_hi = qs[0], qs[1]

    def clip(batch: pa.Table) -> pa.Table:
        v = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        w = np.minimum(np.maximum(v, q_lo), q_hi)
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "price_w": pa.array(round_half_away(w, 2), pa.float64()),
        })

    return orders.map_batches(clip, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# round-2 continuation: span-level dedup, shuffle→shards, schema evolution
# ---------------------------------------------------------------------------


def _dup_span_rows(docs: rd.Dataset, k: int,
                   unit: str = "token") -> rd.Dataset:
    """(doc_id, pos) of every K-unit window occurrence that duplicates an
    earlier (doc_id, pos)-ordered occurrence anywhere in the corpus — the
    shared core of ``dd_dup_spans`` (detection), ``dd_substr_cut``
    (removal) and ``dd_c4_spans`` (line/sentence spans, ``unit="line"``).
    See ``dd_dup_spans`` for the plan."""
    def gram_rows(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch["text"].combine_chunks(), "")
        toks = (pc.split_pattern(text, "\n") if unit == "line"
                else pc.split_pattern_regex(text, TOKEN_SPLIT))
        counts = pc.fill_null(pc.list_value_length(toks), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks).dictionary_encode()
        uh = hash_strings64(flat.dictionary.to_numpy(zero_copy_only=False))
        th = uh[flat.indices.to_numpy(zero_copy_only=False)]
        h1, h2, grow = gram_hash_pairs(th, counts, k)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        gcnt = np.maximum(counts - k + 1, 0)
        goffs = np.concatenate([[0], np.cumsum(gcnt)])
        G = int(goffs[-1])
        pos = np.arange(G, dtype=np.int64) - np.repeat(goffs[:-1], gcnt) + 1
        return pa.table({
            "h1": pa.array(h1.view(np.int64), pa.int64()),
            "h2": pa.array(h2.view(np.int64), pa.int64()),
            "doc_id": pa.array(ids[grow], pa.int64()),
            "pos": pa.array(pos, pa.int64()),
        })

    pairs = docs.map_batches(gram_rows, batch_format="pyarrow")
    out_schema = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])

    def non_first(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, ["h1", "h2"], ["doc_id", "pos"])
        later = np.ones(tbl.num_rows, bool)
        later[starts] = False
        return tbl.filter(later).select(["doc_id", "pos"])

    return hash_repartition_map(pairs, "h1", non_first, schema=out_schema)


def dd_c4_spans(sf_dir: str) -> rd.Dataset:
    """C4's global span dedup (Raffel et al. 2020 §2.2 — the other half of
    ``td_c4_line_filters``): "we discarded all but one of any
    three-sentence span occurring more than once in the data set". Lines
    stand in for sentences (the fixture corpus is line-structured, as C4's
    is after its line filters); every document comes back with the lines
    covered by a non-first duplicated 3-line span REMOVED — the globally
    first occurrence (by (doc_id, pos)) survives, overlapping removed
    spans union their lines, and unaffected documents pass through
    unchanged.

    Scale shape: identical to ``dd_substr_cut`` with lines as the unit —
    each 3-line window ships as a 32-byte (h1, h2, doc_id, pos) row
    through one hash exchange (128-bit fold of the per-line 64-bit hashes;
    no span STRINGS on the wire), non-first occurrences fall out of one
    integer sort + shifted-equality pass per partition, and the cut
    co-locates doc text with its dup-span rows by a single doc_id exchange
    (text crosses the wire exactly once — unavoidable, the output IS
    rewritten text). Input is the deterministic line corpus
    (``sources/lines.py``, which injects shared boilerplate blocks so real
    cross-document duplicate spans exist), same fixture-pinned-oracle
    convention as ``td_c4_line_filters``."""
    fix = ensure_lines(lines_ndocs_for_sf(sf_dir))
    docs = rd.read_parquet(os.path.join(fix))
    return _substr_cut(docs, 3, unit="line")


def dd_dup_spans(sf_dir: str) -> rd.Dataset:
    """ExactSubstr-style duplicate-span detection (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better"): flag every
    occurrence of a K-token window that appears more than once in the
    corpus EXCEPT the globally first one (by (doc_id, pos)) — exactly the
    spans a substring-cut pass removes. The suffix array of the paper is
    replaced by a fixed-width-window hash exchange: no global sort, no
    per-token Python.

    Scale shape: tokens are hashed once per UNIQUE token (dictionary
    encode), each window's key is a 128-bit vectorized fold of its k token
    hashes (``gram_hash_pairs`` — zero gram strings materialized), the
    exchange ships (h1, h2, doc_id, pos) = 32 fixed bytes per window, and
    each partition sorts integers + takes one shifted-equality pass. Two
    different windows collide only at ~2^-128 — the oracle compares
    output rows, and a collision would need ~2^64 windows to matter."""
    return _dup_span_rows(read(sf_dir, "documents", ["doc_id", "text"]), 8)


def _substr_cut(docs: rd.Dataset, k: int = 8,
                unit: str = "token") -> rd.Dataset:
    """Apply the ExactSubstr cut to a (doc_id, text) Dataset → (doc_id,
    clean_text). ``unit="line"`` cuts whole lines (the C4 span dedup);
    the default cuts whitespace tokens. See ``dd_substr_cut`` for the
    plan."""
    spans = _dup_span_rows(docs, k, unit)

    def tag_docs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "text": batch["text"].cast(pa.string()),
            "pos": pa.nulls(batch.num_rows, pa.int64()),
            "is_doc": pa.array(np.ones(batch.num_rows, bool)),
        })

    def tag_spans(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "text": pa.nulls(batch.num_rows, pa.string()),
            "pos": batch["pos"].cast(pa.int64()),
            "is_doc": pa.array(np.zeros(batch.num_rows, bool)),
        })

    tagged = docs.select_columns(["doc_id", "text"]) \
        .map_batches(tag_docs, batch_format="pyarrow").union(
            spans.map_batches(tag_spans, batch_format="pyarrow"))
    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("clean_text", pa.string())])

    def cut(tbl: pa.Table) -> pa.Table:
        is_doc = tbl["is_doc"].to_numpy(zero_copy_only=False)
        d = tbl.filter(pa.array(is_doc))
        idx = pc.sort_indices(d, sort_keys=[("doc_id", "ascending")])
        d = d.take(idx)
        ids = d["doc_id"].to_numpy(zero_copy_only=False)
        dt = pc.fill_null(d["text"].combine_chunks(), "")
        toks = (pc.split_pattern(dt, "\n") if unit == "line"
                else pc.split_pattern_regex(dt, TOKEN_SPLIT))
        nw = pc.list_value_length(toks).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        offs = np.concatenate([[0], np.cumsum(nw)])
        flat = pc.list_flatten(toks)
        mask = np.zeros(int(offs[-1]), dtype=bool)
        s = tbl.filter(pa.array(~is_doc))
        if s.num_rows:
            srow = np.searchsorted(
                ids, s["doc_id"].to_numpy(zero_copy_only=False))
            start = offs[srow] + s["pos"].to_numpy(
                zero_copy_only=False) - 1
            for j in range(k):  # k scatters, not per-span loops
                mask[start + j] = True
        keep = ~mask
        row_of = np.repeat(np.arange(len(nw)), nw)
        kept_n = np.bincount(row_of[keep], minlength=len(nw))
        new_offs = np.concatenate([[0], np.cumsum(kept_n)])
        clean = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(new_offs, pa.int32()),
            flat.filter(pa.array(keep))), "\n" if unit == "line" else " ")
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "clean_text": clean}, schema=out_schema)

    return hash_repartition_map(tagged, "doc_id", cut, schema=out_schema)


def dd_substr_cut(sf_dir: str) -> rd.Dataset:
    """The ExactSubstr CUT transform: rewrite every document with all
    tokens covered by a non-first duplicated K-token window REMOVED (the
    global first occurrence of each span survives) — the actual dedup the
    Lee et al. pipeline applies after detection. Every document comes back
    (possibly unchanged, possibly empty).

    Plan: duplicate-span rows from the shared ``_dup_span_rows`` exchange,
    then doc rows and span rows are tagged into ONE stream and co-located
    by a single hash exchange on doc_id; each partition builds a
    flat-token coverage mask (numpy scatter over K offsets per span) and
    reassembles texts with Arrow list-filter + binary_join — no per-doc
    Python. Text crosses the wire exactly once (unavoidable: the output IS
    rewritten text)."""
    return _substr_cut(read(sf_dir, "documents", ["doc_id", "text"]), 8)


def td_shuffle_shards(sf_dir: str) -> rd.Dataset:
    """Deterministic global corpus shuffle → fixed-size training shards
    (the pre-training data-loader layout step): every document gets a
    global rank under an engine-neutral md5 sort key (reproducible across
    engines / runs / workers, unlike seeded RNG) and lands in shard
    ``rank // SHARD`` at offset ``rank % SHARD``.

    Distributed exact rank without a global sort — the
    ``o_ntile_price`` band-prefix-sum machinery keyed on the md5 hex
    prefix: 256 prefix bands → per-band counts (tiny) → exclusive driver
    offsets → ONE exchange on the band + one per-band sort; no node ever
    holds the whole ordering. At production scale the shard assignment
    feeds a partitioned write (one directory per shard)."""
    SHARD = 250

    docs = read(sf_dir, "documents", ["doc_id"])

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].cast(pa.int64()).combine_chunks()
        try:
            _md5_con()
            # one DuckDB pass emits the md5 key AND its band — both in C
            # kernels (the former per-row int(x[:2], 16) loop built one
            # Python int per document)
            out = _duck_exec(
                "SELECT md5(CAST(v AS VARCHAR)) AS h,"
                " CAST(('0x' || substr(md5(CAST(v AS VARCHAR)), 1, 2))"
                " AS INT) AS band FROM _tss_in",
                pa.table({"v": ids}), "_tss_in")
            h, band = out["h"], out["band"].cast(pa.int64())
        except ImportError:
            hv = md5_hex_ints(ids.to_numpy())
            h = pa.array(hv, pa.string())
            band = pa.array(
                np.array([int(x[:2], 16) for x in hv], np.int64))
        return pa.table({"doc_id": ids, "h": h, "band": band})

    # materialize the keyed pass ONCE (the band counts and the rank
    # exchange both consume it; the lazy variant re-ran the md5 pass),
    # bundling tiny reader blocks; band counts come back as raw per-block
    # bincount partials — no second streaming execution
    kd = docs.map_batches(keyed, batch_size=8192,
                          batch_format="pyarrow").materialize()

    @ray.remote
    def band_counts(tbl):
        if not isinstance(tbl, pa.Table):
            tbl = pa.Table.from_batches([tbl])
        if tbl.num_rows == 0 or "band" not in tbl.column_names:
            return np.zeros(256, np.int64)
        return np.bincount(tbl["band"].to_numpy(zero_copy_only=False),
                           minlength=256).astype(np.int64)

    ns = sum(ray.get([band_counts.remote(r) for r in kd.to_arrow_refs()]))
    offsets = np.zeros(258, dtype=np.int64)
    offsets[1:257] = ns
    offsets = np.cumsum(offsets)

    out_schema = pa.schema([("doc_id", pa.int64()), ("shard", pa.int64()),
                            ("offset", pa.int64())])

    def rank(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "band", ["h", "doc_id"])
        band = tbl["band"].to_numpy(zero_copy_only=False)
        n = len(band)
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        r = offsets[band] + (np.arange(n) - seg_start)
        return pa.table({
            "doc_id": tbl["doc_id"],
            "shard": pa.array(r // SHARD, pa.int64()),
            "offset": pa.array(r % SHARD, pa.int64()),
        }, schema=out_schema)

    return hash_repartition_map(kd, "band", rank, schema=out_schema)


def o_union_evolved(sf_dir: str) -> rd.Dataset:
    """Schema-evolution union (UNION ALL BY NAME): an old snapshot written
    before a column existed unions with a new snapshot that carries it —
    missing columns become typed nulls, no shuffle, streaming
    concatenation (the data-lake ingestion shape; ``relational.
    union_by_name`` is the general utility). Old = pre-1996 orders without
    ``o_orderpriority``; new = 1996+ orders with it."""
    cutoff = np.datetime64("1996-01-01", "us")

    def split(keep_new: bool, cols: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            mask = (pc.greater_equal(batch["o_orderdate"],
                                     pa.scalar(cutoff)) if keep_new
                    else pc.less(batch["o_orderdate"], pa.scalar(cutoff)))
            return batch.filter(mask).select(cols)
        return fn

    base_cols = ["o_orderkey", "o_totalprice", "o_orderpriority",
                 "o_orderdate"]
    old = read(sf_dir, "orders", base_cols[:2] + ["o_orderdate"]) \
        .map_batches(split(False, ["o_orderkey", "o_totalprice"]),
                     batch_format="pyarrow")
    new = read(sf_dir, "orders", base_cols) \
        .map_batches(split(True, ["o_orderkey", "o_totalprice",
                                  "o_orderpriority"]),
                     batch_format="pyarrow")
    return union_by_name([old, new])


def td_quality_classifier(sf_dir: str) -> rd.Dataset:
    """Model-based quality filtering (fasttext-style hashed linear
    classifier, ``pipelines/classifier.py``): train a logistic regression
    over hashed token counts by distributed synchronous gradient descent
    on a deterministic 20% hash-sample, then score the FULL corpus with a
    stateless broadcast pass — the CCNet/GPT-3 "wikipedia-like" filter
    shape. Weak labels here are stopword presence (deterministic on this
    corpus); iterative training ⇒ no SQL oracle (rows-only driver check;
    AUC + determinism are pytest-asserted on a separable synthetic
    corpus in tests/test_classifier.py)."""
    D = 1024
    docs = read(sf_dir, "documents", ["doc_id", "text"])

    def label(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.fill_null(batch["text"].combine_chunks(), ""), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        stop = pc.is_in(flat, value_set=pa.array(
            sorted(STOPWORDS), pa.string())).to_numpy(zero_copy_only=False)
        hits = np.zeros(batch.num_rows, dtype=np.float64)
        np.add.at(hits, parent, stop)
        return batch.append_column("y", pa.array(
            (hits > 0).astype(np.float64), pa.float64()))

    labeled = docs.map_batches(label, batch_format="pyarrow")
    train = labeled.map_batches(
        lambda b: b.filter(pa.array(
            (b["doc_id"].to_numpy(zero_copy_only=False)
             * 2654435761) % 100 < 20)),
        batch_format="pyarrow")
    w = train_logreg_hashed(featurize(train, "text", "y", D), D=D,
                            epochs=20, lr=1.0)
    return score_logreg_hashed(docs, "text", "doc_id", w, D=D)


def td_rebalance(sf_dir: str) -> rd.Dataset:
    """Class-rebalancing downsample (training-mix equalization): every lang
    is downsampled to the MINORITY class's document count, picking each
    class's keepers by an engine-neutral md5 rank — deterministic across
    engines / runs / workers, unlike seeded RNG (the same key discipline
    as ``o_stratified_sample``, which keeps a FIXED n per class; here k is
    data-dependent). Plan: tiny distributed class-count aggregate → driver
    min (one number) → one hash exchange + segmented rank
    (``topk_per_key``). The md5 travels instead of text; at 100 TB the
    rank key would be the 128-bit hash, same plan."""
    docs = read(sf_dir, "documents", ["doc_id", "lang"])
    counts = collect_tables(
        partial_groupby_agg(docs, ["lang"], [("doc_id", "count", "n")]),
        pa.schema([("lang", pa.string()), ("n", pa.int64())]))
    m = int(pc.min(counts["n"]).as_py())

    def add_key(batch: pa.Table) -> pa.Table:
        h = md5_hex_ints(batch["doc_id"].to_numpy())
        return batch.append_column("h", pa.array(h, pa.string()))

    keyed = docs.map_batches(add_key, batch_format="pyarrow")
    kept = topk_per_key(keyed, "lang", [("h", False), ("doc_id", False)], m)
    return kept.map_batches(lambda b: b.select(["doc_id", "lang"]),
                            batch_format="pyarrow")


def a_percent_rank(sf_dir: str) -> rd.Dataset:
    """Per-group percentile-rank normalization (``PERCENT_RANK() OVER
    (PARTITION BY lang ORDER BY n_chars)``): the rank-based feature
    scaling a training pipeline applies per stratum. One hash exchange on
    the group key, then per partition ONE sort + two segmented index
    passes (group starts, tie-value starts) — rank ties share the rank of
    their first row, pr = (rank-1)/(n-1), all numpy, no per-group
    Python."""
    docs = read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out_schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                            ("pr", pa.float64())])

    def pranks(tbl: pa.Table) -> pa.Table:
        tbl, gstarts = runs(tbl, "lang", ["n_chars"])
        _, vstarts = runs(tbl, ["lang", "n_chars"])   # tie-value starts
        n = tbl.num_rows
        glen = np.diff(np.append(gstarts, n))
        gstart_of = np.repeat(gstarts, glen)
        gsize_of = np.repeat(glen, glen)
        vstart_of = np.repeat(vstarts, np.diff(np.append(vstarts, n)))
        rank = vstart_of - gstart_of + 1
        pr = np.where(gsize_of > 1,
                      (rank - 1) / np.maximum(gsize_of - 1, 1), 0.0)
        return pa.table({
            "doc_id": tbl["doc_id"],
            "lang": tbl["lang"],
            "pr": pa.array(round_half_away(pr, 6), pa.float64()),
        }, schema=out_schema)

    return hash_repartition_map(docs, "lang", pranks, schema=out_schema)


def e_transitions(sf_dir: str) -> rd.Dataset:
    """First-order Markov transition counts over each user's event stream
    (the clickstream path-mining aggregate): LAG(event_type) per user by
    (ts, event_id), then count (prev_type, event_type) pairs. One hash
    exchange on user_id + per-partition sort + a shifted-compare (the
    ``e_lag_diff`` treatment), then a tiny pair-keyed count."""
    ev = read(sf_dir, "events",
              ["event_id", "ts", "user_id", "event_type"])
    out_schema = pa.schema([("prev_type", pa.string()),
                            ("event_type", pa.string()),
                            ("n", pa.int64())])

    def pairs(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts", "event_id"])
        et = tbl["event_type"].combine_chunks()
        later = np.ones(tbl.num_rows, bool)
        later[starts] = False
        t = pa.table({"prev_type": et.slice(0, len(et) - 1),
                      "event_type": et.slice(1)}).filter(later[1:])
        agg = t.group_by(["prev_type", "event_type"]).aggregate(
            [("event_type", "count")])
        return pa.table({
            "prev_type": agg["prev_type"],
            "event_type": agg["event_type"],
            "n": agg["event_type_count"].cast(pa.int64()),
        }, schema=out_schema)

    per_part = hash_repartition_map(ev, "user_id", pairs, schema=out_schema)
    return partial_groupby_agg(per_part, ["prev_type", "event_type"],
                               [("n", "sum", "n")])


def v_skew_report(sf_dir: str) -> rd.Dataset:
    """Join-key skew diagnostics (the pre-flight a shuffle planner needs):
    the distribution of rows-per-key for events.user_id, bucketed by
    decade (1, 2-10, 11-100, ...), with key and row counts per bucket.
    Per-key counts come from the usual map-side partial aggregate; the
    bucket rollup then touches one row per distinct key."""
    per_key = partial_groupby_agg(
        read(sf_dir, "events", ["user_id"]),
        ["user_id"], [("user_id", "count", "n")])

    # fixed integer ladder (no float log10 — its edge rounding at exact
    # powers of ten is libm-dependent and would break oracle parity)
    EDGES = np.array([1, 10, 100, 1_000, 10_000, 100_000, 1_000_000,
                      10_000_000], dtype=np.int64)
    LABELS = np.array(
        ["1"] + [f"{lo + 1}-{hi}" for lo, hi in zip(EDGES[:-1], EDGES[1:])],
        dtype=object)

    def bucketed(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.searchsorted(EDGES, n, side="left")
        return pa.table({
            "bucket": pa.array(LABELS[b], pa.string()),
            "n_keys": pa.array(np.ones(len(n), np.int64)),
            "n_rows": pa.array(n),
        })

    return partial_groupby_agg(per_key.map_batches(
        bucketed, batch_format="pyarrow"), ["bucket"],
        [("n_keys", "sum", "n_keys"), ("n_rows", "sum", "n_rows")])


def t_pmi_top(sf_dir: str) -> rd.Dataset:
    """Top-20 collocations by pointwise mutual information (the
    phrase-mining signal: PMI = ln(p(ab) / (p(a)p(b)))) with a min-count
    floor. Unigram and bigram count tables are built with the shared
    n-gram kernel; attaching each bigram's unigram counts is TWO
    distributed hash joins (w1 then w2) — the vocabulary is never
    broadcast or driver-collected (at web scale it doesn't fit); totals
    are two scalar aggregates."""
    MIN_N = 5
    docs = read(sf_dir, "documents", ["text"])

    def uni_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.fill_null(batch["text"].combine_chunks(), ""), TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        t = pa.table({"w": flat}).filter(
            pc.greater(pc.utf8_length(flat), 0))
        agg = t.group_by(["w"]).aggregate([("w", "count")])
        return pa.table({"w": agg["w"],
                         "cu": agg["w_count"].cast(pa.int64())})

    def bi_partial(batch: pa.Table) -> pa.Table:
        grams, _, _ = word_ngrams_batch(batch["text"], 2)
        t = pa.table({"g": grams})
        agg = t.group_by(["g"]).aggregate([("g", "count")])
        g = agg["g"].combine_chunks()
        sp = pc.split_pattern(g, " ")
        return pa.table({
            "w1": pc.list_element(sp, 0),
            "w2": pc.list_element(sp, 1),
            "cb": agg["g_count"].cast(pa.int64()),
        })

    # materialized once: these are VOCABULARY-sized count tables (not
    # corpus-sized), and each is consumed 2-3 times below (total + joins)
    uni = partial_groupby_agg(
        docs.map_batches(uni_partial, batch_format="pyarrow"),
        ["w"], [("cu", "sum", "cu")]).materialize()
    bi = partial_groupby_agg(
        docs.map_batches(bi_partial, batch_format="pyarrow"),
        ["w1", "w2"], [("cb", "sum", "cb")]).materialize()

    nu = int(uni.aggregate(Sum("cu", alias_name="s"))["s"])
    nb = int(bi.aggregate(Sum("cb", alias_name="s"))["s"])

    bi = bi.map_batches(
        lambda b: b.filter(pc.greater_equal(b["cb"], MIN_N)),
        batch_format="pyarrow")
    u1 = uni.map_batches(lambda b: pa.table(
        {"w1": b["w"], "cu1": b["cu"]}), batch_format="pyarrow")
    u2 = uni.map_batches(lambda b: pa.table(
        {"w2": b["w"], "cu2": b["cu"]}), batch_format="pyarrow")
    j = exchange_join(bi, u1, "w1", "w1")
    j = exchange_join(j, u2, "w2", "w2")

    def score(batch: pa.Table) -> pa.Table:
        cb = batch["cb"].to_numpy(zero_copy_only=False).astype(np.float64)
        cu1 = batch["cu1"].to_numpy(zero_copy_only=False).astype(np.float64)
        cu2 = batch["cu2"].to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.log((cb / nb) / ((cu1 / nu) * (cu2 / nu)))
        return pa.table({
            "w1": batch["w1"], "w2": batch["w2"],
            "cb": batch["cb"],
            "pmi": pa.array(round_half_away(pmi, 6), pa.float64()),
        })

    scored = j.map_batches(score, batch_format="pyarrow")
    return topk(scored, [("pmi", True), ("w1", False), ("w2", False)], 20)


def g_components(sf_dir: str) -> rd.Dataset:
    """Connected components of the pages HOST graph — the fully
    DISTRIBUTED min-label propagation operator
    (``graph.components_min_label`` on ``graph.min_fixpoint``: per round
    the changed labels probe the edge blocks in place and one merge task
    per hash range keeps the smallest, until no label falls; labels live
    as per-range refs, nothing graph-sized touches the driver — unlike
    ``dd_clusters``, whose candidate-pair graphs are small by LSH
    construction). Component id = lexicographic min host reachable.
    Oracle: recursive reachability closure + min."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        return t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))

    e = links.map_batches(hosts, batch_format="pyarrow")
    return components_min_label(e, "src_host", "dst_host")


def g_bfs_depth(sf_dir: str) -> rd.Dataset:
    """Crawl depth per host: multi-source BFS over the directed host
    link graph from the 3 lexicographically smallest hosts (the
    deterministic seed-list stand-in). Frontier-only propagation — see
    ``graph.bfs_depth`` — so total message volume is one edge-visit
    across all rounds; unreachable hosts are absent, matching the
    recursive-CTE closure oracle."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        return t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))

    e = links.map_batches(hosts, batch_format="pyarrow")
    return bfs_depth(e, "src_host", "dst_host", n_seeds=3)


def g_harmonic_hyperball(sf_dir: str) -> rd.Dataset:
    """Harmonic centrality of every host via HyperBall (Boldi & Vigna
    2013) — the web-graph centrality that is |V| BFS runs exactly, made
    one-join-per-round with 2^p-byte HLL ball counters
    (``graph.hyperball_harmonic``). Approximate by nature (ε ≈ 3% at
    p=10) ⇒ no SQL oracle; exactness on small graphs and determinism
    are pytest-asserted (tests/test_graph.py)."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        return t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))

    e = links.map_batches(hosts, batch_format="pyarrow")
    out = hyperball_harmonic(e, "src_host", "dst_host", p=10)
    return out.map_batches(
        lambda b: pa.table({
            "node": b["node"],
            "harmonic": pc.round(b["harmonic"], ndigits=4,
                                 round_mode="half_towards_infinity")}),
        batch_format="pyarrow")


def g_pagerank_weighted(sf_dir: str) -> pa.Table:
    """WEIGHTED PageRank over the host graph — rank mass flows in
    proportion to link MULTIPLICITY (w = count of page-level links per
    host pair, self-host edges dropped): the ranking a crawl scheduler
    actually wants, since a host linking another 10,000× should carry
    more weight than a single stray href. Same three execution shapes
    as ``g_pagerank`` (``graph.pagerank(weight_col=...)``, property-
    tested equal across modes); oracle = unrolled weighted power
    iteration, one materialized CTE layer per round."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def host_edges(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        t = t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))
        t = t.filter(pc.invert(pc.equal(t["src_host"], t["dst_host"])))
        g = t.group_by(["src_host", "dst_host"]).aggregate(
            [("src_host", "count")])
        return pa.table({"src_host": g["src_host"],
                         "dst_host": g["dst_host"],
                         "w": g["src_host_count"].cast(pa.float64())})

    def merge_w(t: pa.Table) -> pa.Table:
        g = t.group_by(["src_host", "dst_host"]).aggregate([("w", "sum")])
        return g.rename_columns(["src_host", "dst_host", "w"])

    # exchange merge: pair-key cardinality ≈ block size
    e = hash_repartition_map(
        links.map_batches(host_edges, batch_format="pyarrow"),
        "src_host", merge_w)
    return pagerank(e, "src_host", "dst_host", weight_col="w")


def g_ppr_seeds(sf_dir: str) -> pa.Table:
    """Personalized PageRank (random walk with restart into a seed set)
    over the page-level link graph — seed-RELATIVE importance, the
    crawl-frontier prioritization signal: pages near the 3
    lexicographically smallest URLs (the deterministic seed-list
    stand-in) hold almost all mass, unreachable pages get exactly 0.
    Same three-mode machinery as ``g_pagerank``
    (``graph.pagerank(personalize=...)``); oracle = unrolled power
    iteration with the restart vector as a CASE over the seed set."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def smallest(batch: pa.Table) -> pa.Table:
        arr = pc.unique(pa.concat_arrays(
            [batch["src_url"].combine_chunks(),
             batch["dst_url"].combine_chunks()]))
        idx = pc.array_sort_indices(arr)[:3]
        return pa.table({"node": pc.take(arr, idx)})

    cand = links.map_batches(smallest, batch_format="pyarrow").take_all()
    seeds = sorted({r["node"] for r in cand})[:3]
    return pagerank(links, "src_url", "dst_url", personalize=seeds)


def g_random_walks(sf_dir: str) -> rd.Dataset:
    """Deterministic random-walk corpus over the host graph (the
    node2vec/DeepWalk input stage, ``graph.random_walks``): one ≤4-step
    walk from every host, step t leaving u through neighbor
    ``md5(u|t)[:8] mod outdeg(u)`` (byte-ranked neighbors) — fully
    reproducible in any engine, hence a FULL-VALUE unrolled-CTE
    oracle rather than an un-checkable seeded RNG."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        return t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))

    e = links.map_batches(hosts, batch_format="pyarrow")
    return random_walks(e, "src_host", "dst_host", length=4)


def g_kcore(sf_dir: str) -> rd.Dataset:
    """3-core of the undirected host graph (iterative peeling,
    ``graph.kcore``): the dense backbone left after every host with
    fewer than 3 distinct neighbors is repeatedly removed. Iterative ⇒
    rows-only driver check; the peeling-cascade semantics are
    pytest-asserted on hand graphs (K4 + pendant chain, path→empty)."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        return t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))

    e = links.map_batches(hosts, batch_format="pyarrow")
    return kcore(e, "src_host", "dst_host", k=3)


def td_pretrain_corpus(sf_dir: str) -> rd.Dataset:
    """End-to-end pretraining-corpus build over the documents table — the
    composition a corpus engineer actually runs, every stage an operator
    this engine already proves in isolation:

      1. exact dedup (md5 fingerprint groups, keeper = min doc_id),
      2. ExactSubstr span cut on the survivors (``_substr_cut``),
      3. Gopher-style rule gate on the CLEANED text,
      4. trained hashed-linear quality-classifier gate (prob ≥ 0.5;
         8 GD epochs on a deterministic 20% hash-sample),
      5. class rebalance: every lang down to the minority-class count,
      6. deterministic md5-rank shuffle into fixed 100-doc shards.

    Output: (doc_id, lang, shard, offset). Iterative training inside ⇒
    rows-only driver check; stage invariants are pytest-asserted."""
    D = 512
    docs = read(sf_dir, "documents", ["doc_id", "text", "lang"])

    # 1 — exact dedup
    keepers = exact_dedup_groups(docs, "doc_id", "text").map_batches(
        lambda b: pa.table({"k": b["keeper_id"]}), batch_format="pyarrow")
    docs1 = exchange_join(docs, keepers, "doc_id", "k", "left_semi")

    # 2 — span cut (clean_text), lang re-attached by one hash join
    clean = _substr_cut(docs1, 8).map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"],
                            "text": b["clean_text"]}),
        batch_format="pyarrow")
    clean = exchange_join(
        clean, docs1.select_columns(["doc_id", "lang"]).map_batches(
            lambda b: pa.table({"jid": b["doc_id"], "lang": b["lang"]}),
            batch_format="pyarrow"),
        "doc_id", "jid")

    # 3 — Gopher rule gate + stopword weak label in one vectorized pass
    def gates(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        toks = pc.split_pattern_regex(
            pc.fill_null(batch["text"].combine_chunks(), ""), TOKEN_SPLIT)
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        par = parent[keep]
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)[keep]
        alpha = pc.match_substring_regex(
            flat, "[a-zA-Z]").to_numpy(zero_copy_only=False)[keep]
        stop = pc.is_in(flat, value_set=pa.array(
            sorted(STOPWORDS), pa.string())).to_numpy(
            zero_copy_only=False)[keep]
        n_words = np.bincount(par, minlength=n)
        denom = np.maximum(n_words, 1).astype(np.float64)
        mean_len = np.bincount(par, weights=lens, minlength=n) / denom
        frac_alpha = np.bincount(par, weights=alpha, minlength=n) / denom
        n_stop = np.bincount(par, weights=stop, minlength=n)
        ok = ((n_words >= 5) & (mean_len >= 2.0) & (mean_len <= 12.0)
              & (frac_alpha >= 0.6) & (n_stop >= 1))
        out = batch.append_column("y", pa.array(
            (n_stop > 0).astype(np.float64), pa.float64()))
        return out.filter(pa.array(ok))

    gated = clean.map_batches(gates, batch_format="pyarrow").materialize()

    # 4 — classifier gate (train on 20% hash-sample of the gated corpus)
    train = gated.map_batches(
        lambda b: b.filter(pa.array(
            (b["doc_id"].to_numpy(zero_copy_only=False)
             * 2654435761) % 100 < 20)),
        batch_format="pyarrow")
    w = train_logreg_hashed(featurize(train, "text", "y", D), D=D,
                            epochs=8, lr=1.0)
    scored = score_logreg_hashed(gated, "text", "doc_id", w, D=D)
    passing = scored.map_batches(
        lambda b: pa.table({"pk": b.filter(
            pc.greater_equal(b["prob"], 0.5))["doc_id"]}),
        batch_format="pyarrow")
    kept = exchange_join(gated.select_columns(["doc_id", "lang"]),
                         passing, "doc_id", "pk")

    # 5 — rebalance langs to the minority count
    counts = collect_tables(
        partial_groupby_agg(kept, ["lang"], [("doc_id", "count", "n")]),
        pa.schema([("lang", pa.string()), ("n", pa.int64())]))
    m = int(pc.min(counts["n"]).as_py()) if counts.num_rows else 0

    def add_key(batch: pa.Table) -> pa.Table:
        h = md5_hex_ints(batch["doc_id"].to_numpy())
        return batch.append_column("h", pa.array(h, pa.string()))

    keyed = kept.map_batches(add_key, batch_format="pyarrow")
    bal = topk_per_key(keyed, "lang", [("h", False), ("doc_id", False)], m)

    # 6 — shuffle into fixed shards by md5 rank (band prefix sums)
    SHARD = 100

    def banded(batch: pa.Table) -> pa.Table:
        band = np.array([int(x[:2], 16) for x in
                         batch["h"].to_pylist()], dtype=np.int64)
        return batch.append_column("band", pa.array(band, pa.int64()))

    kb = bal.map_batches(banded, batch_format="pyarrow").materialize()
    bcounts = collect_tables(
        partial_groupby_agg(kb, ["band"], [("doc_id", "count", "n")]),
        pa.schema([("band", pa.int64()), ("n", pa.int64())]))
    offsets = np.zeros(258, dtype=np.int64)
    if bcounts.num_rows:
        np.add.at(offsets,
                  bcounts["band"].to_numpy(zero_copy_only=False) + 1,
                  bcounts["n"].to_numpy(zero_copy_only=False))
    offsets = np.cumsum(offsets)

    out_schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                            ("shard", pa.int64()), ("offset", pa.int64())])

    def rank(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "band", ["h", "doc_id"])
        band = tbl["band"].to_numpy(zero_copy_only=False)
        n = len(band)
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        r = offsets[band] + (np.arange(n) - seg_start)
        return pa.table({
            "doc_id": tbl["doc_id"], "lang": tbl["lang"],
            "shard": pa.array(r // SHARD, pa.int64()),
            "offset": pa.array(r % SHARD, pa.int64()),
        }, schema=out_schema)

    return hash_repartition_map(kb, "band", rank, schema=out_schema)


def o_weighted_sample(sf_dir: str) -> rd.Dataset:
    """Weighted sampling without replacement (Efraimidis–Spirakis A-Res):
    the 50 documents drawn with probability ∝ n_chars, via per-row key
    -ln(u)/w with u an engine-neutral multiplicative-hash uniform — fully
    deterministic and oracle-checkable, unlike seeded RNG. Distributive:
    per-batch local top-k prunes before one tiny global sort (the ``topk``
    operator); only keys travel. Key values are dropped from the output —
    ordering (not float equality) is the contract, with doc_id as the
    total tiebreak on both sides."""
    docs = read(sf_dir, "documents", ["doc_id", "n_chars"])

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        w = np.maximum(
            batch["n_chars"].to_numpy(zero_copy_only=False), 1)
        u = ((ids * 2654435761) % 1000003) / 1000003.0
        key = -np.log(np.maximum(u, 1e-12)) / w
        return batch.append_column("key", pa.array(key, pa.float64()))

    sampled = topk(docs.map_batches(keyed, batch_format="pyarrow"),
                   [("key", False), ("doc_id", False)], 50)
    return sampled.map_batches(
        lambda b: b.select(["doc_id", "n_chars"]),
        batch_format="pyarrow")


def j_follow_within(sf_dir: str) -> rd.Dataset:
    """Big-to-big TIME-WINDOW self-join: for every 'error' event, the
    number of events by the same user STRICTLY after it and within 5
    minutes — the trigger→response correlation shape (as-of joins match
    one row; this matches a bounded window of rows on both big sides).

    Plan: ONE hash exchange on user_id co-locates each user's stream;
    per partition one sort by (user, ts, id), then every window is
    resolved with two global ``np.searchsorted`` calls on a
    SEGMENT-OFFSET key: B = (ts − segment_min) + cumulative(previous
    segment spans + W + 1), which is globally monotone AND guarantees
    B + W never crosses a segment boundary — so no per-user loop, no
    per-error loop, wall time O(n log n) per partition regardless of user
    count. Ties (equal ts) are excluded by searching right of B[err],
    matching the SQL's strict f.ts > e.ts."""
    W_US = 5 * 60 * 1_000_000
    ev = read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    out_schema = pa.schema([("event_id", pa.int64()),
                            ("n_follow", pa.int64())])

    def followers(tbl: pa.Table) -> pa.Table:
        tbl, seg_starts = runs(tbl, "user_id", ["ts", "event_id"])
        ts = tbl["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        n = tbl.num_rows
        seg_id = np.repeat(np.arange(len(seg_starts)),
                           np.diff(np.append(seg_starts, n)))
        seg_min = ts[seg_starts]
        seg_max = ts[np.append(seg_starts[1:], n) - 1]
        span = seg_max - seg_min
        base = np.concatenate(
            [[0], np.cumsum(span + W_US + 1)[:-1]])
        B = ts - seg_min[seg_id] + base[seg_id]
        err = pc.equal(tbl["event_type"], "error") \
            .to_numpy(zero_copy_only=False)
        be = B[err]
        lo = np.searchsorted(B, be, side="right")
        ub = np.searchsorted(B, be + W_US, side="right")
        ids = tbl["event_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": pa.array(ids[err], pa.int64()),
            "n_follow": pa.array(ub - lo, pa.int64()),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", followers, schema=out_schema)


def _phash_rows(sf_dir: str) -> rd.Dataset:
    """(vec_id, phash) rows: deterministic 9x8 P6 fixture render + dHash
    (shared by ``mm_image_phash`` and ``mm_phash_near_dup``; see
    mm_image_phash's docstring for the fixture identity phash == vec_id//4
    and the jitter-invariance property the oracle proves)."""
    emb = read(sf_dir, "embeddings", ["vec_id"])
    xs = np.arange(9, dtype=np.int64)
    ys = np.arange(8, dtype=np.int64)
    bitpos = 8 * ys[:, None] + np.arange(8, dtype=np.int64)[None, :]
    parity = (xs[None, :] + ys[:, None]) % 4

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for v in ids:
            base = int(v) // 4
            steps = np.where((base >> bitpos) & 1 == 1, 1, -1)
            walk = np.concatenate(
                [np.zeros((8, 1), np.int64), np.cumsum(steps, axis=1)], 1)
            img = (128 + 14 * walk
                   + (parity == int(v) % 4) * (int(v) % 4)).astype(np.uint8)
            payloads.append(ppm_encode(np.repeat(img[:, :, None], 3, 2)))
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "payload": pa.array(payloads, pa.binary())})

    def phash(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        if not batch.num_rows:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "phash": pa.array([], pa.int64())})
        gray = np.stack([ppm_decode(p).mean(axis=2)
                         for p in batch["payload"].to_pylist()])
        bits = gray[:, :, 1:] > gray[:, :, :-1]
        w = np.uint64(1) << (8 * np.arange(8, dtype=np.uint64)[:, None]
                             + np.arange(8, dtype=np.uint64)[None, :])
        h = (bits.astype(np.uint64) * w).sum(axis=(1, 2)).astype(np.uint64)
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "phash": pa.array(h.view(np.int64), pa.int64())})

    return emb.map_batches(render, batch_format="pyarrow") \
        .map_batches(phash, batch_format="pyarrow")


def mm_image_phash(sf_dir: str) -> rd.Dataset:
    """Perceptual image hashing (dHash) + exact-hash near-duplicate
    grouping — the LAION-style image dedup first pass: each payload is
    decoded, grayscaled, and hashed by the 64 horizontal
    adjacent-pixel comparisons of a 9x8 grid (bit y*8+x set iff
    px[y,x+1] > px[y,x]); images sharing a phash form a near-dup group.

    Fixture: each embeddings row renders a deterministic 9x8 P6 PPM
    built so its TRUE dHash equals ``vec_id // 4`` (each row's pixels
    random-walk ±14 according to the group id's bits — groups of ≤4
    variants, zero cross-group collisions), plus a variant-specific ±3
    pixel jitter BELOW the ±14 step, so dHash must be invariant to it.
    That makes the hash SQL-expressible, so this gets a FULL-VALUE
    DuckDB oracle: values match only if encode → decode → grayscale →
    comparisons → bit packing all agree AND the jitter never flips a
    comparison (the invariance property, proven end-to-end).

    Scale shape: decode is per-payload (inherent; real sizes go through
    the same block-mean pool ``mm_decode_ppm`` exercises), the
    comparisons/bit-pack are one vectorized numpy pass over the stacked
    batch, grouping ships 16-byte (vec_id, phash) rows through ONE hash
    exchange. Hamming-distance ≤ k matching lives in
    ``mm_phash_near_dup`` (4x16-bit bands of the phash as bucket keys).
    """
    rows = _phash_rows(sf_dir)
    out_schema = pa.schema([("vec_id", pa.int64()), ("phash", pa.int64()),
                            ("n", pa.int64())])

    def grp(tbl: pa.Table) -> pa.Table:
        t, starts = runs(tbl, "phash", ["vec_id"])
        sizes = np.diff(np.append(starts, t.num_rows))
        return pa.table({"vec_id": t["vec_id"], "phash": t["phash"],
                         "n": np.repeat(sizes, sizes)},
                        schema=out_schema)

    return hash_repartition_map(rows, "phash", grp, schema=out_schema)


def mm_phash_near_dup(sf_dir: str, max_hamming: int = 3,
                      bucket_cap: int = 512) -> rd.Dataset:
    """Hamming-distance ≤ k near-duplicate image pairs over the dHash —
    the banded-LSH step ``mm_image_phash``'s docstring promises: the
    64-bit hash splits into 4 disjoint 16-bit bands; by pigeonhole any
    pair within Hamming ≤ 3 shares AT LEAST one identical band, so
    band-bucket candidate generation has EXACT recall (which is why a
    full-value dominance oracle is possible for an 'approximate-shape'
    algorithm). Candidates verify in-bucket with a vectorized XOR
    popcount; pairs dedup across bands through one exchange. Buckets
    above ``bucket_cap`` members contribute capped pairs (the LSH
    hot-bucket rule — degenerate all-identical corpora stay bounded)."""
    rows = _phash_rows(sf_dir)

    band_schema = pa.schema([("bkey", pa.int64()), ("vec_id", pa.int64()),
                             ("phash", pa.int64())])

    def bands(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return band_schema.empty_table()
        h = batch["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out = []
        for b in range(4):
            bv = ((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)) \
                .astype(np.int64)
            out.append(pa.table({
                "bkey": pa.array(bv + (b << 16), pa.int64()),
                "vec_id": pa.array(ids, pa.int64()),
                "phash": pa.array(h.view(np.int64), pa.int64()),
            }, schema=band_schema))
        return pa.concat_tables(out)

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("hamming", pa.int64())])

    def bucket_pairs(tbl: pa.Table) -> pa.Table:
        # work is bound by DISTINCT-HASH representatives + output size,
        # never by bucket membership: members collapse to their hash
        # group first (a boilerplate bucket of 10^6 copies is ONE rep),
        # hamming runs over capped rep pairs, and qualifying rep pairs
        # expand to member cross-products — each an output row
        t, starts = runs(tbl, "bkey", ["phash", "vec_id"])
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        h = t["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ends = np.append(starts[1:], t.num_rows)
        outs = []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            hs, ids_b = h[s:e], ids[s:e]
            uniq, inv = np.unique(hs, return_inverse=True)
            counts = np.bincount(inv)
            offs = np.concatenate([[0], np.cumsum(counts)])  # sorted by h
            G = len(uniq)
            # intra-group pairs: exact dups, hamming 0
            for g in np.flatnonzero(counts > 1):
                m = ids_b[offs[g]:offs[g + 1]]
                ia, ib = np.triu_indices(len(m), k=1)
                outs.append(pa.table({
                    "a": pa.array(np.minimum(m[ia], m[ib]), pa.int64()),
                    "b": pa.array(np.maximum(m[ia], m[ib]), pa.int64()),
                    "hamming": pa.array(np.zeros(len(ia), np.int64)),
                }, schema=pair_schema))
            if G < 2:
                continue
            ga, gb = _capped_pair_indices(G, bucket_cap)
            x = uniq[ga] ^ uniq[gb]
            ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8),
                                axis=1).sum(axis=1).astype(np.int64)
            for p in np.flatnonzero(ham <= max_hamming):
                m1 = ids_b[offs[ga[p]]:offs[ga[p]] + counts[ga[p]]]
                m2 = ids_b[offs[gb[p]]:offs[gb[p]] + counts[gb[p]]]
                aa = np.repeat(m1, len(m2))
                bb = np.tile(m2, len(m1))
                outs.append(pa.table({
                    "a": pa.array(np.minimum(aa, bb), pa.int64()),
                    "b": pa.array(np.maximum(aa, bb), pa.int64()),
                    "hamming": pa.array(np.full(len(aa), ham[p],
                                                np.int64)),
                }, schema=pair_schema))
        return (pa.concat_tables(outs) if outs
                else pair_schema.empty_table())

    cands = hash_repartition_map(
        rows.map_batches(bands, batch_format="pyarrow"),
        "bkey", bucket_pairs, schema=pair_schema)
    # a pair can surface from up to 4 bands: one exchange dedups
    return partial_groupby_agg(cands, ["a", "b"],
                               [("hamming", "min", "hamming")])


def mm_decode_ppm(sf_dir: str) -> rd.Dataset:
    """REAL image decode end-to-end (no codec library): each embedding row
    renders a deterministic 16x16 RGB P6 PPM payload (first 48 dims →
    4x4x3 blocks, upsampled), then the actor-pool ``DecodeStage``
    (``fake=False``) sniffs, parses the PPM header, block-mean-pools to
    8x8 and emits histogram features — the decode path is real byte-level
    work, not a stub (codec formats like jpeg/png remain skipped: no
    libraries in this container; roundtrip + pooling math are
    pytest-asserted in test_similarity_text.py). Binary payloads are not
    SQL-expressible ⇒ rows-only driver check."""
    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def render(batch: pa.Table) -> pa.Table:
        arr = batch["embedding"].combine_chunks()
        ndim = len(arr[0]) if len(arr) else 0
        m = np.asarray(arr.values, dtype=np.float64).reshape(-1, ndim)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        payloads = []
        for i in range(len(ids)):
            v = m[i, :48]
            px = ((v - v.min()) / (np.ptp(v) or 1.0) * 255).astype(np.uint8)
            img = px.reshape(4, 4, 3).repeat(4, axis=0).repeat(4, axis=1)
            payloads.append(ppm_encode(img))
        return pa.table({
            "url": pa.array([str(i) for i in ids], pa.string()),
            "html": pa.array(payloads, pa.binary()),
        })

    pages = emb.map_batches(render, batch_format="pyarrow")
    feats = decode_features(pages, fake=False, batch_size=256)
    return feats.select_columns(["url", "kind", "width", "height",
                                 "n_channels"])


def mm_decode_png(sf_dir: str) -> rd.Dataset:
    """REAL PNG decode end-to-end with a FULL-VALUE oracle (stdlib zlib +
    numpy — no codec library): each embedding row renders a 16x16 RGB PNG
    whose pixel bytes are the integer sequence
    ``(vec_id*2654435761 + j*97) % 256`` (j = row-major byte index) with the
    scanline filter type CYCLING 0..4, so decoding exercises every unfilter
    branch (None/Sub/Up/Average/Paeth). The query returns the dimensions
    and the SUM OF DECODED PIXELS — exactly recomputable in SQL from
    vec_id, so a single wrong byte anywhere in the inflate/unfilter path
    hash-mismatches the oracle."""
    emb = read(sf_dir, "embeddings", ["vec_id"])
    out_schema = pa.schema([
        ("url", pa.string()), ("kind", pa.string()),
        ("width", pa.int32()), ("height", pa.int32()),
        ("n_channels", pa.int32()), ("px_sum", pa.int64())])

    def render_decode(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        j = np.arange(16 * 16 * 3, dtype=np.int64)
        urls, sums = [], []
        for vid in ids:
            px = ((vid * 2654435761 + j * 97) % 256).astype(np.uint8)
            payload = png_encode(px.reshape(16, 16, 3), filters="cycle")
            img = png_decode(payload)  # REAL decode of the real bytes
            urls.append(str(vid))
            sums.append(int(img.sum(dtype=np.int64)))
        n = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "kind": pa.array(["image/png"] * n, pa.string()),
            "width": pa.array([16] * n, pa.int32()),
            "height": pa.array([16] * n, pa.int32()),
            "n_channels": pa.array([3] * n, pa.int32()),
            "px_sum": pa.array(sums, pa.int64()),
        }, schema=out_schema)

    return emb.map_batches(render_decode, batch_format="pyarrow",
                           batch_size=256)


def mm_decode_gif(sf_dir: str) -> rd.Dataset:
    """REAL GIF decode end-to-end with a FULL-VALUE oracle (pure-Python
    GIF89a LZW + numpy — no codec library): each embedding row renders a
    16x16 paletted GIF whose palette indices are
    ``(vec_id*2654435761 + j*97) % 256`` (j = row-major pixel) over the
    fixed palette ``pal[i] = (i, i*7%256, i*13%256)``, LZW-compressed for
    real (code-width growth and the KwKwK case both occur at this entropy).
    The query returns dimensions and the SUM OF DECODED RGB BYTES — exactly
    recomputable in SQL from vec_id, so any wrong byte in the LZW/palette
    path hash-mismatches the oracle."""
    emb = read(sf_dir, "embeddings", ["vec_id"])
    out_schema = pa.schema([
        ("url", pa.string()), ("kind", pa.string()),
        ("width", pa.int32()), ("height", pa.int32()),
        ("n_channels", pa.int32()), ("px_sum", pa.int64())])
    pal_i = np.arange(256, dtype=np.uint8)
    palette = np.stack([pal_i, (pal_i * 7) % 256, (pal_i * 13) % 256],
                       axis=1).astype(np.uint8)

    def render_decode(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        j = np.arange(16 * 16, dtype=np.int64)
        urls, sums = [], []
        for vid in ids:
            idx = ((vid * 2654435761 + j * 97) % 256).astype(np.uint8)
            payload = gif_encode(idx.reshape(16, 16), palette)
            img = gif_decode(payload)  # REAL decode of the real bytes
            urls.append(str(vid))
            sums.append(int(img.sum(dtype=np.int64)))
        n = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "kind": pa.array(["image/gif"] * n, pa.string()),
            "width": pa.array([16] * n, pa.int32()),
            "height": pa.array([16] * n, pa.int32()),
            "n_channels": pa.array([3] * n, pa.int32()),
            "px_sum": pa.array(sums, pa.int64()),
        }, schema=out_schema)

    return emb.map_batches(render_decode, batch_format="pyarrow",
                           batch_size=256)


def mm_decode_jpeg(sf_dir: str) -> rd.Dataset:
    """REAL baseline JPEG decode end-to-end with a FULL-VALUE oracle (pure
    numpy — marker walk, stream DQT/DHT Huffman tables, amplitude decode,
    dequantize, IDCT, restart markers): each embedding row renders a 16x16
    grayscale JPEG of four 8x8 blocks whose constant values are
    ``(vec_id*2654435761 + b*97) % 256`` (b = block index). DC-only blocks
    at quantization 1 round-trip EXACTLY through the lossy pipeline, so the
    decoded pixel sum ``64 * Σ_b v_b`` is recomputable in SQL — any wrong
    bit in the Huffman/IDCT/restart path mismatches. restart_interval=2
    forces RSTn markers through the oracle path too."""
    emb = read(sf_dir, "embeddings", ["vec_id"])
    out_schema = pa.schema([
        ("url", pa.string()), ("kind", pa.string()),
        ("width", pa.int32()), ("height", pa.int32()),
        ("n_channels", pa.int32()), ("px_sum", pa.int64())])

    def render_decode(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.arange(4, dtype=np.int64)
        urls, sums = [], []
        for vid in ids:
            vals = ((vid * 2654435761 + b * 97) % 256).astype(np.uint8)
            img = np.repeat(np.repeat(vals.reshape(2, 2), 8, axis=0),
                            8, axis=1)
            payload = jpeg_encode(img, quant=1, restart_interval=2)
            dec = jpeg_decode(payload)  # REAL decode of the real bytes
            urls.append(str(vid))
            sums.append(int(dec.sum(dtype=np.int64)))
        n = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "kind": pa.array(["image/jpeg"] * n, pa.string()),
            "width": pa.array([16] * n, pa.int32()),
            "height": pa.array([16] * n, pa.int32()),
            "n_channels": pa.array([1] * n, pa.int32()),
            "px_sum": pa.array(sums, pa.int64()),
        }, schema=out_schema)

    return emb.map_batches(render_decode, batch_format="pyarrow",
                           batch_size=256)


def mm_frame_ppm(sf_dir: str) -> rd.Dataset:
    """REAL video-shape frame sampling: each embedding row renders an
    uncompressed 12-frame stream of concatenated 8x8 P6 PPMs; the
    actor-pool ``FrameSampleStage(fake=False)`` demuxes by HEADER WALK
    (pixel bytes untouched) and emits every 5th frame's exact byte
    offset. The fixed frame size makes the real demux oracle-checkable:
    each frame is 11 header + 192 pixel bytes = 203."""
    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def render(batch: pa.Table) -> pa.Table:
        arr = batch["embedding"].combine_chunks()
        ndim = len(arr[0]) if len(arr) else 0
        m = np.asarray(arr.values, dtype=np.float64).reshape(-1, ndim)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        payloads = []
        for i in range(len(ids)):
            lo, hi = float(m[i].min()), float(m[i].max()) or 1.0
            frames = []
            for f in range(12):
                px = (np.full((8, 8, 3), (f * 21) % 256, dtype=np.float64)
                      + (m[i, f % ndim] - lo) / ((hi - lo) or 1.0) * 30)
                frames.append(ppm_encode(
                    np.clip(px, 0, 255).astype(np.uint8)))
            payloads.append(b"".join(frames))
        return pa.table({
            "url": pa.array([str(i) for i in ids], pa.string()),
            "html": pa.array(payloads, pa.binary()),
        })

    streams = emb.map_batches(render, batch_format="pyarrow")
    return streams.map_batches(
        FrameSampleStage, fn_constructor_kwargs=dict(fake=False, every_n=5),
        batch_format="pyarrow", batch_size=256, concurrency=2,
        max_restarts=0)


def j_scd2_history(sf_dir: str) -> rd.Dataset:
    """SCD Type-2 dimension-history build (the versioning sibling of the
    SCD1 ``j_upsert_cdc``, which overwrites): each user's purchase stream
    becomes versioned rows with [valid_from, valid_to) intervals —
    valid_to = the NEXT change's timestamp, null for the open current
    version. One hash exchange on the key + one sort per partition + a
    shifted lead (vectorized; the ``e_lag_diff`` treatment pointed
    forward) — no per-key Python."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type",
                                 "value"])
    out_schema = pa.schema([
        ("user_id", pa.int64()), ("balance", pa.float64()),
        ("valid_from", pa.timestamp("us")), ("valid_to", pa.timestamp("us"))])

    def versions(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(
            tbl.filter(pc.equal(tbl["event_type"], "purchase")),
            "user_id", ["ts", "event_id"])
        ts = tbl["ts"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        # the next version's start, none after a user's last version
        valid_to = np.full(tbl.num_rows, np.datetime64("NaT"), ts.dtype)
        valid_to[:-1] = ts[1:]
        valid_to[starts[1:] - 1] = np.datetime64("NaT")
        return pa.table({
            "user_id": tbl["user_id"],
            "balance": tbl["value"].cast(pa.float64()),
            "valid_from": pa.array(ts, pa.timestamp("us")),
            "valid_to": pa.array(valid_to, pa.timestamp("us")),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", versions, schema=out_schema)


def td_decontaminate_embed(sf_dir: str) -> rd.Dataset:
    """Embedding-space decontamination (the semantic sibling of the
    13-gram ``td_decontaminate``): flag every corpus vector whose cosine
    to ANY held-out eval vector (label 0) reaches 0.8. The eval side is
    SMALL by construction (eval sets are); it is L2-normalized once and
    broadcast via ``ray.put``, then each batch takes ONE matmul against
    it — no pair loop, no shuffle; the corpus streams. Oracle: DuckDB
    ``list_cosine_similarity`` cross join."""
    THRESH = 0.8
    evals = read_table(sf_dir, "embeddings", ["embedding", "label"])
    ev = evals.filter(pc.equal(evals["label"], 0))
    arr = ev["embedding"].combine_chunks()
    ndim = len(arr[0])
    E = np.asarray(arr.values, dtype=np.float64).reshape(-1, ndim)
    E /= np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-12)
    e_ref = ray.put(E)

    emb = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def flag(batch: pa.Table) -> pa.Table:
        En = ray.get(e_ref)
        a = batch["embedding"].combine_chunks()
        m = np.asarray(a.values, dtype=np.float64).reshape(-1, ndim)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        mx = (m @ En.T).max(axis=1)
        return pa.table({
            "vec_id": batch["vec_id"],
            "max_sim": pa.array(round_half_away(mx, 6), pa.float64()),
            "contaminated": pa.array((mx >= THRESH).astype(np.int64)),
        })

    return emb.map_batches(flag, batch_format="pyarrow")


def mm_audio_wav(sf_dir: str) -> rd.Dataset:
    """REAL audio decode end-to-end (no audio library): each embedding row
    renders a deterministic 800-sample 8 kHz PCM wave (sample_i =
    ((vec_id·31 + i·7919) mod 65536) − 32768), serialized as RIFF/WAVE
    bytes, then parsed BACK from the bytes (header chunk walk + PCM
    frombuffer) into sr / duration / RMS / zero-crossing features. The
    sample formula is SQL-expressible, so the decode path gets a
    FULL-VALUE DuckDB oracle — the features only match if the bytes
    round-trip exactly."""
    SR, N = 8000, 800
    emb = read(sf_dir, "embeddings", ["vec_id"])

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        i = np.arange(N, dtype=np.int64)
        payloads = []
        for v in ids:
            s = ((v * 31 + i * 7919) % 65536 - 32768).astype(np.int16)
            payloads.append(wav_encode(s, SR))
        return pa.table({
            "url": pa.array([str(v) for v in ids], pa.string()),
            "html": pa.array(payloads, pa.binary()),
        })

    waves = emb.map_batches(render, batch_format="pyarrow")
    return waves.map_batches(audio_feature_table, batch_format="pyarrow",
                             batch_size=256)


def mm_audio_spectrum(sf_dir: str) -> rd.Dataset:
    """REAL spectral analysis end-to-end (no audio/DSP library): each
    embedding row renders a two-tone 800-sample 8 kHz int16 wave —
    dominant tone at bin ``k1 = 5 + vec_id % 350`` with amplitude
    ``A = 6000 + 10·(vec_id % 200)``, plus a quarter-amplitude distractor
    at an unrelated bin — serialized as RIFF/WAVE, decoded BACK from the
    bytes, and analyzed with ONE batched ``np.fft.rfft``: the argmax bin
    must recover ``k1`` and the amplitude estimate must land within the
    int16 quantization bound (<1) of ``A``, so rounding to 10 is exact.
    Both ground truths are pure integer formulas of ``vec_id`` → a
    FULL-VALUE DuckDB oracle over the peak-find AND the amplitude path
    (integer-cycle tones are leakage-free, which is what makes the FFT
    output exactly checkable). The distractor tone proves the argmax is
    doing work; the DC bin is masked (a constant offset is not a tone)."""
    SR, N = 8000, 800
    emb = read(sf_dir, "embeddings", ["vec_id"])

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        i = np.arange(N, dtype=np.float64)
        payloads = []
        for v in ids:
            k1 = 5 + int(v) % 350
            k2 = 5 + (int(v) * 7 + 13) % 350
            if k2 == k1:
                k2 = k1 + 1 if k1 < 354 else k1 - 1
            amp = 6000.0 + 10.0 * (int(v) % 200)
            s = np.round(amp * np.sin(2 * np.pi * k1 * i / N)
                         + (amp / 4) * np.sin(2 * np.pi * k2 * i / N))
            payloads.append(wav_encode(s.astype(np.int16), SR))
        return pa.table({
            "url": pa.array([str(v) for v in ids], pa.string()),
            "html": pa.array(payloads, pa.binary()),
        })

    waves = emb.map_batches(render, batch_format="pyarrow")
    return waves.map_batches(spectrum_feature_table, batch_format="pyarrow",
                             batch_size=256)


def e_cum_new_users(sf_dir: str) -> rd.Dataset:
    """Cumulative-distinct growth curve (new users per day + running
    total): COUNT(DISTINCT) OVER a cumulative window is not directly
    distributive, but first-seen-day per user IS (a keyed min) — so the
    plan is one user-keyed min aggregate → tiny daily counts → one
    O(days) prefix pass (the ``e_cum_daily`` treatment)."""
    ev = read(sf_dir, "events", ["user_id", "ts"])

    def day_of(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": batch["user_id"],
                         "day": pc.floor_temporal(batch["ts"], unit="day")})

    first = partial_groupby_agg(
        ev.map_batches(day_of, batch_format="pyarrow"),
        ["user_id"], [("day", "min", "first_day")])
    daily = partial_groupby_agg(
        first.map_batches(lambda b: pa.table(
            {"day": b["first_day"],
             "one": pa.array(np.ones(b.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["day"], [("one", "count", "n_new")])

    def cum(tbl: pa.Table) -> pa.Table:
        idx = pc.sort_indices(tbl, sort_keys=[("day", "ascending")])
        tbl = tbl.take(idx)
        c = np.cumsum(tbl["n_new"].to_numpy(zero_copy_only=False))
        return tbl.append_column("cum_users", pa.array(c, pa.int64()))

    return daily.repartition(1).map_batches(cum, batch_format="pyarrow",
                                            batch_size=None)


def v_order_total_consistency(sf_dir: str) -> rd.Dataset:
    """Cross-TABLE aggregate consistency (the Deequ-style invariant one
    step past FK integrity): every order's o_totalprice must equal the
    sum over its lineitems of extendedprice·(1−discount)·(1+tax).
    Exact fixed-point arithmetic end to end (micro-cents int64, the q1
    convention — float64 partials drift ULPs at scale); the distributed
    shape is map-side per-(batch, orderkey) partial sums → one hash
    exchange keyed on orderkey joining the partials with orders →
    violation rows where the exact integer diff ≠ 0. ≙ the reference's
    expected-triple-count assertions, lifted to a per-entity invariant."""
    li = read(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"])

    def pre(batch: pa.Table) -> pa.Table:
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = batch["l_discount"].to_numpy(zero_copy_only=False)
        tax = batch["l_tax"].to_numpy(zero_copy_only=False)
        cents = np.round(price * 100.0).astype(np.int64)
        amt = cents * np.round((1.0 - disc) * 100.0).astype(np.int64) \
            * np.round((1.0 + tax) * 100.0).astype(np.int64)
        return pa.table({"l_orderkey": batch["l_orderkey"],
                         "amt_c6": pa.array(amt)})

    sums = partial_groupby_agg(li, ["l_orderkey"],
                               [("amt_c6", "sum", "computed_c6")], pre=pre)
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    j = exchange_join(orders, sums, "o_orderkey", "l_orderkey")

    def flag(batch: pa.Table) -> pa.Table:
        total_c6 = np.round(batch["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64) * 10_000
        comp = batch["computed_c6"].to_numpy(zero_copy_only=False)
        diff = comp - total_c6
        bad = diff != 0
        idx = pa.array(np.flatnonzero(bad), pa.int64())
        return pa.table({
            "o_orderkey": batch["o_orderkey"].take(idx),
            "o_totalprice": batch["o_totalprice"].take(idx),
            "computed_c6": batch["computed_c6"].take(idx),
            "diff_c6": pa.array(diff[bad], pa.int64()),
        })

    return j.map_batches(flag, batch_format="pyarrow")


def v_hive_partitioned_write(sf_dir: str) -> rd.Dataset:
    """Hive-partitioned parquet sink roundtrip (S3 family at the layout
    real lakes use): documents written ``lang=<x>/...parquet`` via
    ``write_parquet(partition_cols=["lang"])`` — one directory per
    partition value, the layout that makes downstream lang-filtered
    reads PRUNE AT THE LISTING (and failed runs resumable per
    partition) — then read back with the partition value recovered from
    the directory key, grouped and compared to the source table. The
    write lands under /tmp keyed by (sf, row count) so reruns are
    idempotent."""
    docs = read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    n = docs.count()
    out = f"/tmp/lk_hive/{os.path.basename(os.path.normpath(sf_dir))}_{n}"
    done = os.path.join(out, "_SUCCESS")
    if not os.path.exists(done):
        docs.write_parquet(out, partition_cols=["lang"])
        with open(done, "w") as fh:
            fh.write("ok")

    back = rd.read_parquet(out, partitioning=Partitioning("hive"))
    return partial_groupby_agg(
        back, ["lang"],
        [("doc_id", "count", "n_docs"), ("n_chars", "sum", "sum_chars")])


def o_skyline_orders(sf_dir: str) -> pa.Table:
    """2-D skyline / Pareto frontier (the preference-query operator):
    orders not DOMINATED by any other — dominator = lower-or-equal
    price AND later-or-equal date, strict in at least one. The
    distributed identity: skyline(S) = skyline(⋃ skyline(blockᵢ)) —
    local skylines are tiny on real data (O(log n) expected for
    independent dims), so each block reduces to a handful of frontier
    rows before one final pass. The local kernel is fully vectorized:
    sort by (price asc, date desc); a row survives iff its date exceeds
    the running max date over all STRICTLY cheaper rows and equals its
    own price group's max date (duplicate frontier points all kept, the
    NOT EXISTS semantics)."""
    orders = read(sf_dir, "orders",
                  ["o_orderkey", "o_totalprice", "o_orderdate"])

    def local_skyline(batch: pa.Table) -> pa.Table:
        t, starts = runs(batch, "o_totalprice", [("o_orderdate",
                                                  "descending")])
        date = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        grp = np.repeat(np.arange(len(starts)),
                        np.diff(np.append(starts, t.num_rows)))
        gmax = np.maximum.reduceat(date, starts)       # max date per price
        # running max date over STRICTLY cheaper groups (exclusive)
        prev = np.full(len(gmax), np.iinfo(np.int64).min)
        if len(gmax) > 1:
            prev[1:] = np.maximum.accumulate(gmax)[:-1]
        keep = (date > prev[grp]) & (date == gmax[grp])
        return t.filter(pa.array(keep))

    partials = orders.map_batches(local_skyline,
                                  batch_format="pyarrow").take_all()
    cand = pa.Table.from_pylist(
        partials, schema=pa.schema([
            ("o_orderkey", pa.int64()), ("o_totalprice", pa.float64()),
            ("o_orderdate", pa.timestamp("us"))]))
    return local_skyline(cand)


def v_gap_days(sf_dir: str) -> pa.Table:
    """Calendar-gap detection (the feed-outage monitoring check next to
    ``v_count_anomaly``'s volume rule): every day inside the crawl's
    [min, max] date span with ZERO rows. Day-count partials merge in
    one task (the series is driver-sized by definition); the gap scan
    is one np.setdiff1d over epoch-day ints. Oracle:
    generate_series over the span anti-joined to the observed days."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts"])

    def day_one(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.cast(pc.cast(batch["warc_ts"], pa.date32()),
                           pa.int32()),
            "one": pa.array(np.ones(batch.num_rows, np.int64))})

    counts = partial_groupby_agg(
        pages.map_batches(day_one, batch_format="pyarrow"),
        ["day"], [("one", "sum", "n")]).to_pandas()
    present = counts["day"].to_numpy().astype(np.int32)
    span = np.arange(present.min(), present.max() + 1, dtype=np.int32)
    gaps = np.setdiff1d(span, present)
    return pa.table({
        "day": pc.strftime(pa.array(gaps, pa.int32()).cast(pa.date32()),
                           format="%Y-%m-%d"),
    })


def v_ship_before_order(sf_dir: str) -> rd.Dataset:
    """Cross-table temporal consistency check (the referential-integrity
    family of the flagship validator extended to a TEMPORAL invariant):
    line items whose ship date precedes their order's date. One
    distributed hash join on the order key + a vectorized comparison —
    violation rows mirror the per-check failure records of the
    validation pipeline."""
    line = read(sf_dir, "lineitem",
                ["l_orderkey", "l_linenumber", "l_shipdate"])
    orders = read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    j = exchange_join(line, orders, "l_orderkey", "o_orderkey")

    def violations(batch: pa.Table) -> pa.Table:
        bad = pc.less(batch["l_shipdate"], batch["o_orderdate"])
        v = batch.filter(bad)
        return pa.table({
            "l_orderkey": v["l_orderkey"],
            "l_linenumber": v["l_linenumber"],
        })

    return j.map_batches(violations, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# round-2 continuation batch: run-length dedup, nearest join, interval
# overlap, char n-grams, word-length histogram, robust outliers, FK audit
# ---------------------------------------------------------------------------


def e_dedup_consecutive(sf_dir: str) -> rd.Dataset:
    """Run-length (consecutive-duplicate) event dedup per user — the classic
    log-cleaning transform: drop an event whose type equals the previous
    event's type in the user's (ts, event_id) order. Hash exchange on
    user_id + one sort per partition + a shifted vectorized compare — the
    e_lag_diff shape, never per-group Python."""
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    out_schema = pa.schema([("event_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("ts", pa.timestamp("us")),
                            ("event_type", pa.string())])

    def keep_first_of_run(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts", "event_id"])
        et = tbl["event_type"].to_numpy(zero_copy_only=False)
        keep = np.ones(tbl.num_rows, dtype=bool)
        keep[1:] = et[1:] != et[:-1]
        keep[starts] = True
        return tbl.filter(pa.array(keep)).select(out_schema.names)

    return hash_repartition_map(ev, "user_id", keep_first_of_run,
                                schema=out_schema)


def j_nearest_event(sf_dir: str) -> rd.Dataset:
    """Nearest-match temporal join (bidirectional as-of): for each order,
    the customer's event closest in time to the order date — ties broken by
    earlier ts then smaller event_id, matching the oracle's
    ``row_number() OVER (ORDER BY abs(Δµs), ts, event_id)`` exactly. Two
    merge_asof passes per partition (relational.nearest_join), O(n log n)
    instead of the rank-all-pairs quadratic plan."""
    orders = read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate"])
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = nearest_join(orders, ev, key="o_custkey", left_ts="o_orderdate",
                       right_ts="ts", left_cols=["o_orderkey"],
                       right_cols=["event_id", "ts"], right_id="event_id",
                       right_key="user_id")

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["user_id" if c == "o_custkey" else c for c in batch.column_names])

    return out.map_batches(rename, batch_format="pyarrow")


# shared with the oracle SQL verbatim
SESSION_GAP_MIN = 30
ERR_WINDOW_MIN = 5


def j_interval_overlap(sf_dir: str) -> rd.Dataset:
    """Interval-overlap join (intervals × intervals — the missing sibling of
    the point-in-interval ``interval_join``): per-user activity sessions
    (30-min gap) vs global merged error windows (error-event ts ± 5 min);
    each session counts the merged windows it overlaps.

    Scale shape: the error side is filtered at the read, pre-merged
    per batch (vectorized running-max), final-merged once over the already
    collapsed per-batch intervals, and broadcast SORTED — every session
    batch counts overlaps with two ``np.searchsorted`` calls, O(log W)/row,
    no shuffle. Partitioning assumption: the MERGED alert-window set is
    broadcast-small (guarded), which holds whenever alerts are a sparse
    event class; sessions stream at any scale via the user_id exchange."""
    gap_us = SESSION_GAP_MIN * 60 * 1_000_000
    half_w = ERR_WINDOW_MIN * 60 * 1_000_000

    err = read(sf_dir, "events", ["ts", "event_type"]).filter(
        expr="event_type == 'error'")

    def premerge(batch: pa.Table) -> pa.Table:
        ts = np.sort(batch["ts"].cast(pa.int64()).to_numpy(
            zero_copy_only=False))
        if not len(ts):
            return pa.table({"lo": pa.array([], pa.int64()),
                             "hi": pa.array([], pa.int64())})
        lo, hi = ts - half_w, ts + half_w
        # vectorized interval merge over the sorted batch: a window starts a
        # new merged run iff its lo exceeds the running max hi so far
        run_hi = np.maximum.accumulate(hi)
        new = np.ones(len(ts), dtype=bool)
        new[1:] = lo[1:] > run_hi[:-1]
        starts = np.flatnonzero(new)
        ends = np.concatenate((starts[1:], [len(ts)])) - 1
        return pa.table({"lo": pa.array(lo[starts], pa.int64()),
                         "hi": pa.array(run_hi[ends], pa.int64())})

    win_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])
    wins = collect_tables(err.map_batches(premerge, batch_format="pyarrow"),
                          win_schema)
    if wins.num_rows > 2_000_000:
        raise ValueError(
            "merged alert-window set exceeds the broadcast guard "
            f"({wins.num_rows} rows): overlap side is not broadcast-small; "
            "use an exchange plan bucketed by time range instead")
    lo = wins["lo"].to_numpy(zero_copy_only=False)
    hi = wins["hi"].to_numpy(zero_copy_only=False)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_hi = np.maximum.accumulate(hi)
    new = np.ones(len(lo), dtype=bool)
    new[1:] = lo[1:] > run_hi[:-1]
    starts = np.flatnonzero(new)
    ends = np.concatenate((starts[1:], [len(lo)])) - 1
    w_ref = ray.put((lo[starts], run_hi[ends]))

    ev = read(sf_dir, "events", ["user_id", "ts"])
    out_schema = pa.schema([("user_id", pa.int64()),
                            ("session_start", pa.timestamp("us")),
                            ("session_end", pa.timestamp("us")),
                            ("n_err_windows", pa.int64())])

    def sessions_overlap(tbl: pa.Table) -> pa.Table:
        w_lo, w_hi = ray.get(w_ref)
        tbl, starts = runs(tbl, "user_id", ["ts"])
        ts = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        new_s = np.zeros(tbl.num_rows, dtype=bool)
        new_s[1:] = np.diff(ts) > gap_us
        new_s[starts] = True
        s_idx = np.flatnonzero(new_s)
        e_idx = np.append(s_idx[1:], tbl.num_rows) - 1
        s_start, s_end = ts[s_idx], ts[e_idx]
        # overlap count: windows with lo ≤ session_end minus windows with
        # hi < session_start (inclusive bounds, int64 µs — exact)
        n = (np.searchsorted(w_lo, s_end, side="right")
             - np.searchsorted(w_hi, s_start, side="left"))
        return pa.table({
            "user_id": tbl["user_id"].take(s_idx),
            "session_start": pa.array(s_start).cast(pa.timestamp("us")),
            "session_end": pa.array(s_end).cast(pa.timestamp("us")),
            "n_err_windows": pa.array(n, pa.int64()),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", sessions_overlap,
                                schema=out_schema)


def _string_buf_offsets(arr) -> tuple[np.ndarray, np.ndarray]:
    """(value-buffer bytes, int64 offsets rebased to 0) of a string array —
    the zero-copy access path of ``functions.extract.binary_views``, exposed
    as arrays for fully vectorized kernels."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        arr = arr.fill_null("")
    n = len(arr)
    bufs = arr.buffers()
    off_t = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(bufs[1], dtype=off_t, count=n + 1,
                         offset=arr.offset * off_t().itemsize).astype(np.int64)
    start, stop = int(offs[0]), int(offs[-1])
    data = (np.frombuffer(bufs[2], dtype=np.uint8)[start:stop]
            if bufs[2] is not None else np.empty(0, np.uint8))
    return data, offs - start


def _char_trigram_counts(arr) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized byte-trigram histogram over a lowercased ASCII string
    array: one sliding window over the concatenated value buffer, boundary
    windows masked, counted via np.unique on a 3-byte void view — zero
    per-row Python."""
    buf, offs = _string_buf_offsets(arr)
    if len(buf) < 3:
        return (np.empty(0, dtype="S3"), np.empty(0, dtype=np.int64))
    w = np.lib.stride_tricks.sliding_window_view(buf, 3)
    valid = np.ones(len(w), dtype=bool)
    inner = offs[1:-1]  # byte index where each next string begins
    for d in (1, 2):  # a window starting at b-d straddles the boundary at b
        pos = inner - d
        valid[pos[(pos >= 0) & (pos < len(w))]] = False
    # Byte-trigrams only match the character-based oracle for ASCII text;
    # mask any window touching a non-ASCII byte so non-ASCII input degrades
    # (those trigrams are dropped) instead of crashing the ascii decode.
    non_ascii = buf >= 0x80
    if non_ascii.any():
        valid &= ~(non_ascii[:-2] | non_ascii[1:-1] | non_ascii[2:])
    grams = np.ascontiguousarray(w[valid]).view("S3").ravel()
    return np.unique(grams, return_counts=True)


def t_char_ngrams(sf_dir: str) -> rd.Dataset:
    """Top-20 character trigrams over lowercased document text (char-level
    n-gram profiling — the language-model-adjacent sibling of
    ``t_top_tokens``): per-batch vectorized byte-trigram histograms →
    map-side partials → tiny groupby + global top-k. The shuffle moves
    (distinct-trigrams × batches) count rows, never text."""
    docs = read(sf_dir, "documents", ["text"])

    def partials(batch: pa.Table) -> pa.Table:
        grams, counts = _char_trigram_counts(
            pc.utf8_lower(batch["text"]).combine_chunks())
        return pa.table({
            "gram": pa.array([g.decode("ascii") for g in grams],
                             pa.string()),
            "n": pa.array(counts, pa.int64()),
        })

    per = docs.map_batches(partials, batch_format="pyarrow")
    summed = partial_groupby_agg(per, ["gram"], [("n", "sum", "n")])
    return topk(summed, [("n", True), ("gram", False)], 20)


def t_word_len_hist(sf_dir: str) -> rd.Dataset:
    """Global token-length histogram (corpus profiling): word_len → count,
    computed from the raw utf-8 buffer with vectorized run detection (token
    start = non-space after space/boundary; token end = non-space before
    space/boundary) — no tokenizer materialization, no per-row Python. The
    exchange moves ≤ max_word_len rows per batch. Lengths are utf-8 BYTE
    lengths: identical to character lengths on ASCII text (the fixture and
    the oracle's semantics); on non-ASCII input multi-byte characters count
    their encoded width — documented, never a crash."""
    docs = read(sf_dir, "documents", ["text"])

    def partials(batch: pa.Table) -> pa.Table:
        buf, offs = _string_buf_offsets(batch["text"])
        if not len(buf):
            return pa.table({"word_len": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        sp = (buf == 0x20) | (buf == 0x09) | (buf == 0x0A) | (buf == 0x0D)
        nonsp = ~sp
        prev_delim = np.empty(len(buf), dtype=bool)
        prev_delim[0] = True
        prev_delim[1:] = sp[:-1]
        next_delim = np.empty(len(buf), dtype=bool)
        next_delim[-1] = True
        next_delim[:-1] = sp[1:]
        inner = offs[1:-1]
        prev_delim[inner[(inner >= 0) & (inner < len(buf))]] = True
        last = inner - 1
        next_delim[last[(last >= 0) & (last < len(buf))]] = True
        starts = np.flatnonzero(nonsp & prev_delim)
        ends = np.flatnonzero(nonsp & next_delim)
        lens = ends - starts + 1
        hist = np.bincount(lens)
        nz = np.flatnonzero(hist)
        return pa.table({"word_len": pa.array(nz, pa.int64()),
                         "n": pa.array(hist[nz], pa.int64())})

    per = docs.map_batches(partials, batch_format="pyarrow")
    return partial_groupby_agg(per, ["word_len"], [("n", "sum", "n")])


def a_mad_outliers(sf_dir: str) -> rd.Dataset:
    """Robust per-group outlier detection: per lang, the exact median of
    n_chars, the median absolute deviation, and the count of docs beyond
    3×MAD — the robust-statistics complement of the z-score anomaly query.
    Groups are few and the aggregate genuinely needs the group's values
    (two nested order statistics); medians interpolate exactly like DuckDB's
    ``median`` and |x−m| / 3·MAD land on exact .0/.5 floats, so the strict
    ``>`` comparison is engine-independent."""
    docs = read(sf_dir, "documents", ["lang", "n_chars"])

    def mad_group(group: pa.Table) -> pa.Table:
        vals = group["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.float64)
        med = float(np.median(vals))
        dev = np.abs(vals - med)
        mad = float(np.median(dev))
        n_out = int(np.count_nonzero(dev > 3.0 * mad))
        return pa.table({
            "lang": pa.array([group["lang"][0].as_py()], pa.string()),
            "median_nchars": pa.array(
                [float(round_half_away(np.array([med]), 2)[0])],
                pa.float64()),
            "mad_nchars": pa.array(
                [float(round_half_away(np.array([mad]), 2)[0])],
                pa.float64()),
            "n_outliers": pa.array([n_out], pa.int64()),
        })

    return map_groups(docs, "lang", mad_group)


# (child table, child key, parent table, parent key, parent is broadcast-small)
_FK_RELATIONS = [
    ("orders", "o_custkey", "customer", "c_custkey", True),
    ("lineitem", "l_orderkey", "orders", "o_orderkey", False),
    ("lineitem", "l_partkey", "part", "p_partkey", True),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey", True),
    ("customer", "c_nationkey", "nation", "n_nationkey", True),
    ("supplier", "s_nationkey", "nation", "n_nationkey", True),
    ("nation", "n_regionkey", "region", "r_regionkey", True),
    ("events", "user_id", "customer", "c_custkey", True),
]


def v_fk_orphans(sf_dir: str) -> pa.Table:
    """Referential-integrity audit across every foreign-key relation of the
    star schema (the flagship's C7 dangling-link check generalized to a
    whole-schema summary): per relation, total child rows and orphan rows
    whose key has no parent. Broadcast-small parents probe via one sorted
    key array per batch (np.searchsorted membership); the big-big relation
    (lineitem → orders) goes through the distributed left-anti hash
    exchange — no driver-side key materialization of a big side."""
    rows = []
    for child, ckey, parent, pkey, small in _FK_RELATIONS:
        ch = read(sf_dir, child, [ckey])
        if small:
            pk = np.unique(read_table(sf_dir, parent, [pkey])[pkey]
                           .to_numpy(zero_copy_only=False))
            pk_ref = ray.put(pk)

            def count_batch(batch: pa.Table, _ref=pk_ref) -> pa.Table:
                keys = batch.column(0).to_numpy(zero_copy_only=False)
                parr = ray.get(_ref)
                if len(parr) == 0:  # no parents: every child row is an orphan
                    return pa.table({
                        "n_rows": pa.array([len(keys)], pa.int64()),
                        "n_orphans": pa.array([len(keys)], pa.int64()),
                    })
                pos = np.searchsorted(parr, keys)
                pos = np.minimum(pos, len(parr) - 1)
                orphan = parr[pos] != keys
                return pa.table({
                    "n_rows": pa.array([len(keys)], pa.int64()),
                    "n_orphans": pa.array([int(orphan.sum())], pa.int64()),
                })

            part = ch.map_batches(count_batch, batch_format="pyarrow")
            tot = part.sum(["n_rows", "n_orphans"])
            n_rows, n_orph = tot["sum(n_rows)"], tot["sum(n_orphans)"]
        else:
            par = read(sf_dir, parent, [pkey])
            n_rows = ch.count()
            n_orph = exchange_join(ch, par, ckey, pkey,
                                   how="left_anti").count()
        rows.append((f"{child}.{ckey}->{parent}", int(n_rows), int(n_orph)))

    rows.sort()
    return pa.table({
        "relation": pa.array([r[0] for r in rows], pa.string()),
        "n_rows": pa.array([r[1] for r in rows], pa.int64()),
        "n_orphans": pa.array([r[2] for r in rows], pa.int64()),
    })


def pages_latest_per_host(sf_dir: str) -> rd.Dataset:
    """Recrawl snapshot dedup (the web-archive 'latest capture wins'
    operator): per host, the single page with the newest warc_ts (ties →
    max url) — ``topk_per_key(..., 1)``, so only one candidate row per
    host per block ever moves, never the page set. Zipf-skewed hosts
    are exactly the keys where a groupby+rank plan melts down."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "warc_ts"])

    def host_of(batch: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(batch["url"].combine_chunks(),
                             r"^https://(?P<h>[^/]+)/"), "h")
        return pa.table({"host": host, "url": batch["url"],
                         "warc_ts": batch["warc_ts"]})

    hosts = pages.map_batches(host_of, batch_format="pyarrow")
    return topk_per_key(hosts, "host", [("warc_ts", True), ("url", True)], 1)


def e_rolling_revenue_7d(sf_dir: str) -> rd.Dataset:
    """Calendar RANGE-frame window (trailing 7-day revenue per order day) —
    the value-range sibling of the ROWS-frame ``e_rolling_avg``: daily
    partials shrink the fact table map-side to ≤ #days rows, then ONE
    single-block pass computes the windowed sums via prefix sums +
    ``np.searchsorted`` on the day axis (a RANGE frame is a rank-range per
    row, not a fixed row offset). Money moves as integer cents end-to-end,
    so engine and oracle sum bit-identically in any order."""
    orders = read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    day_us = 86_400_000_000

    def day_cents(batch: pa.Table) -> pa.Table:
        d = pc.floor_temporal(batch["o_orderdate"], unit="day")
        cents = pc.cast(pc.round(pc.multiply(batch["o_totalprice"],
                                             pa.scalar(100.0))), pa.int64())
        return pa.table({"day": d, "cents": cents})

    daily = partial_groupby_agg(
        orders.map_batches(day_cents, batch_format="pyarrow"),
        ["day"], [("cents", "sum", "cents")])

    def window(tbl: pa.Table) -> pa.Table:
        idx = pc.sort_indices(tbl, sort_keys=[("day", "ascending")])
        tbl = tbl.take(idx)
        # normalize to µs explicitly: the aggregate can hand back a ns-unit
        # timestamp, and a raw int64 cast would then put the 6-day offset on
        # the wrong scale (window silently becomes ~everything)
        day = (tbl["day"].cast(pa.timestamp("us")).cast(pa.int64())
               .to_numpy(zero_copy_only=False))
        cents = tbl["cents"].to_numpy(zero_copy_only=False)
        cum = np.cumsum(cents)
        # frame = [day - 6 days, day]: first index inside each row's frame
        lo = np.searchsorted(day, day - 6 * day_us, side="left")
        w = cum - np.where(lo > 0, cum[lo - 1], 0)
        return pa.table({
            "day": tbl["day"],
            "revenue": pa.array(np.round(cents / 100.0, 2), pa.float64()),
            "revenue_7d": pa.array(np.round(w / 100.0, 2), pa.float64()),
        })

    return daily.repartition(1).map_batches(window, batch_format="pyarrow",
                                            batch_size=None)


def o_dense_rank_price(sf_dir: str) -> rd.Dataset:
    """Per-key dense rank (every row ranked, ties share a rank and leave no
    gaps — the window-rank shape ``topk_per_key`` does not cover): each
    order's dense price rank within its customer. Hash exchange + one sort
    per partition + a segmented vectorized cumsum-of-value-changes — no
    per-group Python. Deterministic under ties by construction: equal
    prices share one rank, so row order within a tie never shows."""
    orders = read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_totalprice"])
    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("o_custkey", pa.int64()),
                            ("drank", pa.int64())])

    def dense(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "o_custkey",
                           [("o_totalprice", "descending")])
        price = tbl["o_totalprice"].to_numpy(zero_copy_only=False)
        n = tbl.num_rows
        new_val = np.ones(n, dtype=bool)
        new_val[1:] = price[1:] != price[:-1]
        new_val[starts] = True
        r = np.cumsum(new_val)
        offset = np.repeat(r[starts] - 1, np.diff(np.append(starts, n)))
        return pa.table({
            "o_orderkey": tbl["o_orderkey"],
            "o_custkey": tbl["o_custkey"],
            "drank": pa.array(r - offset, pa.int64()),
        }, schema=out_schema)

    return hash_repartition_map(orders, "o_custkey", dense, schema=out_schema)


def g_triangles(sf_dir: str) -> pa.Table:
    """Distributed triangle counting over the pages host graph (the graph-
    analytics operator family beyond degree/PageRank/components), via
    ``graph.triangle_count``: degree-ordered orientation enumerates each
    triangle exactly once at its minimum-(degree, id) vertex, bounding
    total wedge work at O(m^1.5) regardless of hub skew (a web-scale
    super-host can no longer blow the middle-vertex join up to deg²),
    then one semi-join closes the wedges against the edge set."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def oriented(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        ok = pc.and_(pc.and_(pc.is_valid(h1), pc.is_valid(h2)),
                     pc.not_equal(h1, h2))
        t = pa.table({"a": pc.if_else(pc.less(h1, h2), h1, h2),
                      "b": pc.if_else(pc.less(h1, h2), h2, h1)}).filter(ok)
        return t

    e = links.map_batches(oriented, batch_format="pyarrow")
    # global distinct via the exchange dedup (_host_edges_undirected
    # rationale: pair-key cardinality ≈ block size)
    edges = hash_repartition_map(
        e, "a", lambda t: t.group_by(["a", "b"]).aggregate([]))

    res = triangle_count(edges, "a", "b")
    return pa.table({"n_triangles": pa.array([res["n_triangles"]],
                                             pa.int64())})


def t_hapax_ratio(sf_dir: str) -> rd.Dataset:
    """Lexical-richness profile per language: distinct token types, hapax
    legomena (types occurring exactly once) and their ratio — the
    type-frequency-spectrum corpus statistic. One (lang, token) groupby
    with map-side combine (the vocabulary is unbounded at corpus scale —
    never a driver set), then per-lang reduction of the tiny type table."""
    docs = read(sf_dir, "documents", ["lang", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch["text"].combine_chunks(), r"\s+")
        n = pc.list_value_length(toks)
        t = pa.table({
            "lang": batch["lang"].take(
                pa.array(np.repeat(np.arange(batch.num_rows),
                                   n.to_numpy(zero_copy_only=False)))),
            "token": pc.list_flatten(toks),
        })
        return t.filter(pc.not_equal(t["token"], pa.scalar("")))

    pairs = docs.map_batches(explode, batch_format="pyarrow")
    types = partial_groupby_agg(pairs, ["lang", "token"],
                                [("token", "count", "n")])

    def per_lang(batch: pa.Table) -> pa.Table:
        one = pc.cast(pc.equal(batch["n"], pa.scalar(1, pa.int64())),
                      pa.int64())
        return pa.table({"lang": batch["lang"],
                         "n_types": pa.array(
                             np.ones(batch.num_rows, np.int64)),
                         "n_hapax": one})

    agg = partial_groupby_agg(
        types.map_batches(per_lang, batch_format="pyarrow"),
        ["lang"], [("n_types", "sum", "n_types"),
                   ("n_hapax", "sum", "n_hapax")])

    def ratio(batch: pa.Table) -> pa.Table:
        r = (batch["n_hapax"].to_numpy(zero_copy_only=False)
             / batch["n_types"].to_numpy(zero_copy_only=False))
        return batch.append_column(
            "hapax_ratio", pa.array(np.round(r, 6), pa.float64()))

    return agg.map_batches(ratio, batch_format="pyarrow")


def j_asof_next_event(sf_dir: str) -> rd.Dataset:
    """FORWARD as-of join (the other direction of ``e_asof_last_order``):
    for each order, the customer's first event AT/AFTER the order date —
    left join semantics, orders with no later event keep null event
    columns. Same union-tag + single hash exchange + one merge_asof per
    partition; tie on equal ts ⇒ min event_id (forward keeps the first
    sorted row; the oracle mirrors with ORDER BY ts, event_id)."""
    orders = read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate"])
    ev = read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = asof_join(orders, ev, key="o_custkey", left_ts="o_orderdate",
                    left_cols=["o_orderkey"], right_cols=["event_id"],
                    right_ts="ts", right_tiebreak="event_id",
                    direction="forward", right_key="user_id")

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["user_id" if c == "o_custkey" else c for c in batch.column_names])

    return out.map_batches(rename, batch_format="pyarrow")


def m_compact_docs(sf_dir: str) -> pa.Table:
    """Small-file compaction end-to-end (table maintenance at ingest scale):
    fragment the documents table into 16 tiny files, compact back to
    deterministic 2500-row blocks, and report the file/row accounting.
    Content parity (same rows, any order) is pytest-asserted; the driver
    row is rows-only (file layout has no SQL counterpart)."""
    base = os.path.join("/tmp/lk_compact",
                        os.path.basename(os.path.normpath(sf_dir)))
    frag, out = os.path.join(base, "frag"), os.path.join(base, "compact")
    shutil.rmtree(base, ignore_errors=True)
    docs = read(sf_dir, "documents")
    docs.repartition(16).write_parquet(frag)
    s = compact_parquet(frag, out, rows_per_block=2500)
    return pa.table({
        "files_in": pa.array([s["files_in"]], pa.int64()),
        "files_out": pa.array([s["files_out"]], pa.int64()),
        "n_rows": pa.array([s["rows"]], pa.int64()),
    })


def mm_image_dims(sf_dir: str) -> rd.Dataset:
    """REAL image-container metadata end-to-end (no codec library): each
    embedding row renders a deterministic PNG / GIF / JPEG header
    (kind = vec_id mod 3; width = vec_id·7 mod 800 + 16, height =
    vec_id·13 mod 600 + 16), and the stage parses dimensions BACK from the
    bytes (fixed-offset u32/u16 for PNG/GIF, SOF marker walk for JPEG).
    The dims formula is SQL-expressible, so the parser path gets a
    FULL-VALUE DuckDB oracle — values only match if encode→parse
    round-trips every byte order and marker length correctly."""
    emb = read(sf_dir, "embeddings", ["vec_id"])

    def render(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        enc = [png_header, gif_header, jpeg_header]
        payloads = [enc[int(v) % 3](int(v * 7 % 800 + 16),
                                    int(v * 13 % 600 + 16)) for v in ids]
        return pa.table({
            "url": pa.array([str(v) for v in ids], pa.string()),
            "html": pa.array(payloads, pa.binary()),
        })

    imgs = emb.map_batches(render, batch_format="pyarrow")
    out = imgs.map_batches(image_dims_table, batch_format="pyarrow",
                           batch_size=1024)

    def as_vec_id(batch: pa.Table) -> pa.Table:
        return pa.table({
            "vec_id": pc.cast(batch["url"], pa.int64()),
            "kind": batch["kind"],
            "width": batch["width"],
            "height": batch["height"],
        })

    return out.map_batches(as_vec_id, batch_format="pyarrow")


def v_lineage_manifest(sf_dir: str) -> pa.Table:
    """Per-partition lineage + metrics as a QUERYABLE table (the
    north-rule's checkpoint surface, not just an on-disk artifact): run the
    fixture validation, then read back every committed manifest as
    (partition_id, input_fragment, n_rows, violation_count, passed).
    Deterministic for a given sf_dir — a resume after kill must reproduce
    this table exactly (pytest-asserted by the resume property tests)."""
    fix = ensure_pages(pages_nrows_for_sf(sf_dir))
    out = os.path.join("/tmp/lk_lineage",
                       os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(out, ignore_errors=True)
    run_validation(os.path.join(fix, "pages"), out,
                   lang_hist_path=os.path.join(fix, "lang_hist.parquet"))
    store = ManifestStore(os.path.join(out, "manifests"))
    recs = [(int(pid), r) for pid, r in store.completed().items()
            if pid != "global"]
    recs.sort()
    return pa.table({
        "partition_id": pa.array([p for p, _ in recs], pa.int64()),
        "input_fragment": pa.array(
            [os.path.basename(r["input_fragment"]) for _, r in recs],
            pa.string()),
        "n_rows": pa.array([int(r["n_rows"]) for _, r in recs], pa.int64()),
        "violation_count": pa.array(
            [int(r["violation_count"]) for _, r in recs], pa.int64()),
        "passed": pa.array([bool(r["passed"]) for _, r in recs], pa.bool_()),
    })


def a_churned_customers(sf_dir: str) -> rd.Dataset:
    """Churn detection: customers whose LAST order precedes the corpus
    high-water mark by more than a year. Two distributive aggregates —
    per-customer max order date (map-side combinable) and one global max
    broadcast as a scalar into the filter — no shuffle of raw rows at
    all. (The events table has no churners by construction — every
    event-emitting user stays active through the window — so the orders
    table carries this operator.)"""
    orders = read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    last = partial_groupby_agg(orders, ["o_custkey"],
                               [("o_orderdate", "max", "last_order")])
    # driver scalar, closure-broadcast; max over raw int64 µs so Ray's
    # aggregate never numpy-round-trips a timestamp column
    hi_us = orders.map_batches(
        lambda b: pa.table({"ts_us": b["o_orderdate"]
                            .cast(pa.timestamp("us")).cast(pa.int64())}),
        batch_format="pyarrow").max("ts_us")
    cutoff = (np.datetime64(int(hi_us), "us") - np.timedelta64(365, "D"))

    def churned(batch: pa.Table) -> pa.Table:
        out = batch.filter(pc.less(
            batch["last_order"].cast(pa.timestamp("us")),
            pa.scalar(cutoff)))
        return pa.table({
            "o_custkey": out["o_custkey"],
            "last_order": out["last_order"].cast(pa.timestamp("us")),
        })

    return last.map_batches(churned, batch_format="pyarrow")


def e_dau_mau(sf_dir: str) -> rd.Dataset:
    """Engagement stickiness (DAU/MAU per day): two distinct-user
    aggregates — (day, user) and (month, user) pairs collapse map-side
    before any exchange, then per-day counts join the tiny per-month
    counts via a broadcast dict. COUNT(DISTINCT) never ships raw rows."""
    ev = read(sf_dir, "events", ["user_id", "ts"])

    def day_pairs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.floor_temporal(batch["ts"], unit="day"),
            "user_id": batch["user_id"],
        })

    def month_pairs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "month": pc.floor_temporal(batch["ts"], unit="month"),
            "user_id": batch["user_id"],
        })

    d_pairs = partial_groupby_agg(
        ev.map_batches(day_pairs, batch_format="pyarrow"),
        ["day", "user_id"], [("user_id", "count", "_c")])
    dau = partial_groupby_agg(d_pairs, ["day"], [("user_id", "count", "dau")])
    m_pairs = partial_groupby_agg(
        ev.map_batches(month_pairs, batch_format="pyarrow"),
        ["month", "user_id"], [("user_id", "count", "_c")])
    mau_tbl = partial_groupby_agg(
        m_pairs, ["month"], [("user_id", "count", "mau")]).to_pandas()
    mau = {np.datetime64(m, "us"): int(v)
           for m, v in zip(mau_tbl["month"], mau_tbl["mau"])}

    def attach(batch: pa.Table) -> pa.Table:
        day = batch["day"].cast(pa.timestamp("us"))
        months = pc.floor_temporal(day, unit="month").to_numpy(
            zero_copy_only=False)
        mv = np.array([mau[np.datetime64(m, "us")] for m in months],
                      dtype=np.int64)
        dv = batch["dau"].to_numpy(zero_copy_only=False)
        return pa.table({
            "day": day,
            "dau": pa.array(dv, pa.int64()),
            "mau": pa.array(mv, pa.int64()),
            "stickiness": pa.array(np.round(dv / mv, 6), pa.float64()),
        })

    return dau.map_batches(attach, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# graph-analytics additions: clustering / link prediction / edge statistics
# ---------------------------------------------------------------------------


def _host_edges_undirected(sf_dir: str) -> rd.Dataset:
    """DISTINCT undirected host-graph edge set (a < b, no loops) from the
    pages links fixture — the shared input contract of the triangle-family
    operators. Global distinct = per-batch combine, then ONE hash exchange
    on `a` + a local C++ group_by per range (key cardinality ≈ block
    size, so a map-side combine would barely shrink the pairs)."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def oriented(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        ok = pc.and_(pc.and_(pc.is_valid(h1), pc.is_valid(h2)),
                     pc.not_equal(h1, h2))
        return pa.table({"a": pc.if_else(pc.less(h1, h2), h1, h2),
                         "b": pc.if_else(pc.less(h1, h2), h2, h1)}).filter(ok)

    e = links.map_batches(oriented, batch_format="pyarrow")
    return hash_repartition_map(
        e, "a", lambda t: t.group_by(["a", "b"]).aggregate([]))


def g_clustering_coeff(sf_dir: str) -> rd.Dataset:
    """Local clustering coefficient per host (``graph.local_clustering``):
    2·tri(v)/(deg(v)·(deg(v)−1)) over the undirected host graph — the
    Watts–Strogatz community-density signal, per node. Same O(m^1.5)
    degree-ordered wedge plan as ``g_triangles``; triangle-free and
    degree-1 hosts report 0."""
    return local_clustering(_host_edges_undirected(sf_dir), "a", "b")


LINKPRED_HUB_CAP = 1024  # shared verbatim with the oracle SQL
LINKPRED_K = 50


def g_link_prediction(sf_dir: str) -> rd.Dataset:
    """Missing-link prediction over the host graph
    (``graph.common_neighbor_scores``): top-50 non-adjacent host pairs by
    Adamic–Adar score (common-neighbor count as tiebreak). Wedge work is
    bounded by excluding middle vertices above ``LINKPRED_HUB_CAP`` —
    the documented stop-word cut a web-scale hub demands; the oracle
    applies the same cap."""
    return common_neighbor_scores(_host_edges_undirected(sf_dir), "a", "b",
                                  hub_cap=LINKPRED_HUB_CAP, k=LINKPRED_K)


def g_reciprocity(sf_dir: str) -> pa.Table:
    """Directed-edge reciprocity of the host graph: the fraction of
    distinct directed host links a→b whose reverse b→a is also present —
    the classic webgraph mutuality statistic. One exchange-dedup distinct
    pass, then a self-semi-join on the reversed composite key; only
    16-byte-keyed edge rows move."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        ok = pc.and_(pc.and_(pc.is_valid(h1), pc.is_valid(h2)),
                     pc.not_equal(h1, h2))
        return pa.table({"a": h1, "b": h2}).filter(ok)

    # directed distinct via the exchange dedup
    e = hash_repartition_map(
        links.map_batches(hosts, batch_format="pyarrow"),
        "a", lambda t: t.group_by(["a", "b"]).aggregate([])).materialize()

    fwd = e.map_batches(
        lambda t: pa.table({"k": pc.binary_join_element_wise(
            t["a"].combine_chunks(), t["b"].combine_chunks(), "|")}),
        batch_format="pyarrow")
    rev = e.map_batches(
        lambda t: pa.table({"k2": pc.binary_join_element_wise(
            t["b"].combine_chunks(), t["a"].combine_chunks(), "|")}),
        batch_format="pyarrow")
    n_edges = e.count()
    n_recip = exchange_join(fwd, rev, "k", "k2", how="left_semi").count()
    r = round_half_away(np.array([n_recip / max(n_edges, 1)]), 9)
    return pa.table({"n_edges": pa.array([n_edges], pa.int64()),
                     "n_reciprocal": pa.array([n_recip], pa.int64()),
                     "reciprocity": pa.array(r, pa.float64())})


def g_assortativity(sf_dir: str) -> pa.Table:
    """Degree assortativity of the undirected host graph (Newman r): the
    Pearson correlation of endpoint degrees over the edge multiset, both
    orientations. All moments (Σx, Σxy, Σx², n) are INTEGER partials
    (degrees are ints), summed distributively — the final ratio is one
    driver-side float, so the distributed result is bit-stable at any
    scale and the oracle mirrors the same integer sums."""
    e = _host_edges_undirected(sf_dir).materialize()
    deg = _degree_table(e, "a", "b").materialize()

    e2 = exchange_join(
        exchange_join(e, deg.map_batches(
            lambda t: t.rename_columns(["ka", "deg_a"]),
            batch_format="pyarrow"), "a", "ka"),
        deg.map_batches(lambda t: t.rename_columns(["kb", "deg_b"]),
                        batch_format="pyarrow"), "b", "kb")

    def moments(batch: pa.Table) -> pa.Table:
        da = batch["deg_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        db = batch["deg_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "sx": pa.array([int((da + db).sum())], pa.int64()),
            "sxy": pa.array([int(2 * (da * db).sum())], pa.int64()),
            "sxx": pa.array([int((da * da + db * db).sum())], pa.int64()),
            "n": pa.array([2 * len(da)], pa.int64())})

    parts = e2.map_batches(moments, batch_format="pyarrow").to_pandas()
    sx, sxy, sxx, n = (float(parts["sx"].sum()), float(parts["sxy"].sum()),
                       float(parts["sxx"].sum()), float(parts["n"].sum()))
    if n == 0:
        r = 0.0
    else:
        cov = sxy - sx * sx / n
        var = sxx - sx * sx / n
        r = cov / var if var > 0 else 0.0
    return pa.table({
        "n_edge_endpoints": pa.array([int(n)], pa.int64()),
        "assortativity": pa.array(round_half_away(np.array([r]), 9),
                                  pa.float64())})


# ---------------------------------------------------------------------------
# distribution statistics: entropy, Gini, KS drift
# ---------------------------------------------------------------------------


def a_entropy_by_source(sf_dir: str) -> rd.Dataset:
    """Shannon entropy (bits) of the language mix per document source —
    the corpus-diversity signal a data-mixing policy monitors (a source
    whose entropy collapses got monolingual). One map-side-combined
    (source, lang) count exchange shrinks the corpus to ≤ sources×langs
    rows, then one hash exchange on source computes the per-source
    −Σ p·log2 p with a segmented vectorized pass (sort + np.add.reduceat)
    — no per-group Python, nothing driver-side."""
    docs = read(sf_dir, "documents", ["source", "lang"])
    counts = partial_groupby_agg(
        docs.map_batches(lambda t: t.append_column(
            "one", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["source", "lang"], [("one", "count", "n")])

    out_schema = pa.schema([("source", pa.string()), ("n_docs", pa.int64()),
                            ("n_langs", pa.int64()),
                            ("entropy", pa.float64())])

    def per_source(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "source", ["lang"])
        n = tbl["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        tot = np.add.reduceat(n, starts)
        p = n / np.repeat(tot, np.diff(np.append(starts, len(n))))
        ent = np.add.reduceat(-p * np.log2(p), starts)
        nl = np.diff(np.append(starts, len(n)))
        return pa.table({
            "source": tbl["source"].take(starts),
            "n_docs": pa.array(tot.astype(np.int64), pa.int64()),
            "n_langs": pa.array(nl.astype(np.int64), pa.int64()),
            "entropy": pa.array(round_half_away(ent, 9), pa.float64()),
        }, schema=out_schema)

    return hash_repartition_map(counts, "source", per_source,
                                schema=out_schema)


def _exact_rank_dot(x: np.ndarray) -> int:
    """Σ i·x_i (i 1-based) over an ascending int64 array, EXACT at any
    scale: int64 partials chunked so no partial overflows, accumulated
    into an arbitrary-precision Python int."""
    if len(x) == 0:
        return 0
    xm = int(x.max()) if len(x) else 1
    # chunk_len·max_rank·xm must stay < 2^62; ranks ≤ len(x)
    safe = max(1, (1 << 62) // max(xm * len(x), 1))
    total, i0 = 0, 0
    while i0 < len(x):
        seg = x[i0:i0 + safe]
        ranks = np.arange(i0 + 1, i0 + 1 + len(seg), dtype=np.int64)
        total += int(np.dot(ranks, seg))
        i0 += safe
    return total


def a_gini_spend(sf_dir: str) -> pa.Table:
    """Gini coefficient of per-customer total spend — the inequality
    statistic over an aggregate distribution, computed EXACTLY without a
    global sort: spend is exact integer cents; value-RANGE buckets (fixed
    width, so buckets are contiguous in value) are each reduced to
    (count, sum, Σ local_rank·x) by one hash exchange + a segmented
    sorted pass, and a driver prefix-scan over the ≤ O(range/width)
    bucket rows lifts local ranks to global ones:
    Σ global_i·x_i = Σ_buckets (inner + count_below·sum). Ties always
    share a bucket (equal value ⇒ equal bucket), and Σ(2i−n−1)x is
    tie-order-invariant, so the result equals the oracle's
    row_number-based window formula exactly."""
    orders = read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        c = np.round(batch["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        t = pa.table({"o_custkey": batch["o_custkey"],
                      "cents": pa.array(c, pa.int64())})
        return t.group_by(["o_custkey"]).aggregate([("cents", "sum")]) \
            .rename_columns(["o_custkey", "cents"])

    # per-customer spend via ONE hash exchange + local C++ group_by —
    # customer cardinality ≈ block size, so a map-side combine barely
    # shrinks: one exchange merge instead
    spend = hash_repartition_map(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        "o_custkey",
        lambda t: t.group_by(["o_custkey"]).aggregate([("cents", "sum")])
        .rename_columns(["o_custkey", "cents"]))

    BUCKET_W = 1 << 20  # ~1e6 cents per bucket: ≤ O(max_spend/1e6) buckets
    bucket_schema = pa.schema([("bucket", pa.int64()), ("cnt", pa.int64()),
                               ("s", pa.int64()), ("inner_hi", pa.int64()),
                               ("inner_lo", pa.int64())])

    def per_bucket(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "bucket", ["cents"])
        b = tbl["bucket"].to_numpy(zero_copy_only=False)
        x = tbl["cents"].to_numpy(zero_copy_only=False)
        ends = np.append(starts[1:], len(b))
        rows = {"bucket": [], "cnt": [], "s": [], "inner_hi": [],
                "inner_lo": []}
        for st, en in zip(starts, ends):  # ≤ buckets-per-range iterations,
            seg = x[st:en]                # NOT per customer
            inner = _exact_rank_dot(seg)
            rows["bucket"].append(int(b[st]))
            rows["cnt"].append(en - st)
            rows["s"].append(int(seg.sum()))
            rows["inner_hi"].append(inner >> 62)
            rows["inner_lo"].append(inner & ((1 << 62) - 1))
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in rows.items()}, schema=bucket_schema)

    bucketed = spend.map_batches(
        lambda t: pa.table({
            "bucket": pc.divide(t["cents"], BUCKET_W).cast(pa.int64()),
            "cents": t["cents"]}),
        batch_format="pyarrow")
    parts = hash_repartition_map(bucketed, "bucket", per_bucket,
                                 schema=bucket_schema).to_pandas()
    parts = parts.sort_values("bucket").reset_index(drop=True)

    n = int(parts["cnt"].sum())
    total = int(parts["s"].sum())
    if n == 0 or total == 0:
        g = 0.0
    else:
        rank_dot, below = 0, 0
        for _, r in parts.iterrows():  # ≤ n_buckets rows (driver-tiny)
            inner = (int(r["inner_hi"]) << 62) | int(r["inner_lo"])
            rank_dot += inner + below * int(r["s"])
            below += int(r["cnt"])
        g = (2.0 * rank_dot - (n + 1.0) * total) / (float(n) * total)
    return pa.table({
        "n_customers": pa.array([n], pa.int64()),
        "gini": pa.array(round_half_away(np.array([g]), 9), pa.float64())})


DUP_CAPTURE_WINDOW_S = 86_400  # shared verbatim with the oracle SQL


def v_dup_capture_window(sf_dir: str) -> rd.Dataset:
    """Wasteful-recrawl detection over the multi-capture archive: pairs of
    CONSECUTIVE captures of the same url less than 24 h apart whose text
    is byte-identical — crawl-budget violations the scheduler should not
    have spent (a near-immediate refetch that changed nothing). The C1-
    family validation shape: one hash exchange on url co-locates each
    url's captures, then a per-partition sort + shifted compare (lag) in
    pure Arrow/numpy; only (url, ts, 64-bit text hash) rows move — the
    body never leaves the scan. Emits one violation row per offending
    pair (url, prev_ts, capture_ts, gap_s). Hash-collision trade as
    ``pages_recrawl_delta`` (p ≈ n·2⁻⁶⁴, oracle compares true strings)."""
    fix = ensure_recrawl(recrawl_nurls_for_sf(sf_dir))
    caps = rd.read_parquet(fix, columns=["url", "capture_ts", "text"])

    def project(batch: pa.Table) -> pa.Table:
        th = hash_strings64(
            pc.fill_null(batch["text"], "").to_numpy(zero_copy_only=False))
        return pa.table({
            "url": batch["url"],
            "capture_ts": batch["capture_ts"],
            "th": pa.array(th.view(np.int64), pa.int64())})

    out_schema = pa.schema([("url", pa.string()),
                            ("prev_ts", pa.timestamp("us")),
                            ("capture_ts", pa.timestamp("us")),
                            ("gap_s", pa.int64())])

    def dups(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "url", ["capture_ts"])
        ts = tbl["capture_ts"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        th = tbl["th"].to_numpy(zero_copy_only=False)
        same_url = np.ones(tbl.num_rows - 1, bool)
        same_url[starts[1:] - 1] = False
        gap_us = np.diff(ts)
        bad = same_url & (gap_us < DUP_CAPTURE_WINDOW_S * 1_000_000) \
            & (th[1:] == th[:-1])
        i = np.flatnonzero(bad) + 1
        return pa.table({
            "url": tbl["url"].take(pa.array(i)),
            "prev_ts": tbl["capture_ts"].take(pa.array(i - 1)),
            "capture_ts": tbl["capture_ts"].take(pa.array(i)),
            "gap_s": pa.array(gap_us[i - 1] // 1_000_000, pa.int64()),
        }, schema=out_schema)

    return hash_repartition_map(caps.map_batches(
        project, batch_format="pyarrow"), "url", dups, schema=out_schema)


def v_ks_drift(sf_dir: str) -> pa.Table:
    """Per-day Kolmogorov–Smirnov drift of the text-length distribution
    against the whole corpus — the two-sample-shape companion to the
    chi-square (``v_daily_lang_drift``) and PSI (``v_daily_lang_psi``)
    categorical drift checks: KS(d) = max_x |F_d(x) − F(x)| over the
    empirical CDFs, x ranging over every observed length. Scale shape:
    the GLOBAL length distribution is tiny (distinct lengths, ~10³ rows)
    — merged once and broadcast into the closure; the (day, len)
    partials then take ONE hash exchange on day, and each day range
    builds only ITS shard of the (days × lengths) CDF grid vectorized.
    Nothing driver-sized is ever built (the first version tree-folded the
    full day×len table to the driver — 4,385 days × 2k lengths made that
    a multi-second fold and a 200 MB grid). Both engines evaluate
    identical integer-ratio doubles, so the match is exact."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts", "text"])

    def day_len(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["text"]))
        day = pc.floor_temporal(t["warc_ts"].cast(pa.timestamp("us")),
                                unit="day").cast(pa.int64())
        ln = pc.utf8_length(t["text"]).cast(pa.int64())
        return pa.table({"day": day, "len": ln,
                         "one": pa.array(np.ones(t.num_rows, np.int64))}) \
            .group_by(["day", "len"]).aggregate([("one", "sum")]) \
            .rename_columns(["day", "len", "n"])

    dl = pages.map_batches(day_len, batch_format="pyarrow").materialize()

    g_len = partial_groupby_agg(dl, ["len"], [("n", "sum", "n")]) \
        .to_pandas().sort_values("len")
    glens = g_len["len"].to_numpy()
    gcum = np.cumsum(g_len["n"].to_numpy()).astype(np.float64)
    n_all = float(gcum[-1]) if len(gcum) else 1.0
    g_cdf = gcum / n_all  # broadcast via closure: ~10³ float rows

    out_schema = pa.schema([("day", pa.timestamp("us")),
                            ("n_day", pa.int64()), ("ks", pa.float64())])

    def per_day(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["day", "len"]).aggregate([("n", "sum")])
        day = g["day"].to_numpy(zero_copy_only=False)
        ln = g["len"].to_numpy(zero_copy_only=False)
        n = g["n_sum"].to_numpy(zero_copy_only=False)
        days, day_code = np.unique(day, return_inverse=True)
        len_code = np.searchsorted(glens, ln)
        grid = np.zeros((len(days), len(glens)), np.int64)
        grid[day_code, len_code] = n
        cum_d = grid.cumsum(axis=1).astype(np.float64)
        n_day = grid.sum(axis=1).astype(np.float64)
        ks = np.abs(cum_d / n_day[:, None] - g_cdf[None, :]).max(axis=1)
        return pa.table({
            "day": pa.array(days).cast(pa.timestamp("us")),
            "n_day": pa.array(n_day.astype(np.int64), pa.int64()),
            "ks": pa.array(round_half_away(ks, 9), pa.float64()),
        }, schema=out_schema)

    return hash_repartition_map(dl, "day", per_day, schema=out_schema)


def t_sentence_stats(sf_dir: str) -> rd.Dataset:
    """Per-document sentence segmentation stats (count / total / mean
    sentence length) — the doc-structure feature a quality filter and a
    packing policy both read (Gopher's "mean sentence length" cut). A
    sentence is a non-empty ``[.!?]+``-delimited segment after trimming
    ``space/tab/newline``; the rule is deliberately regex-simple so any
    engine reproduces it byte-for-byte. Fully vectorized per batch:
    ``split_pattern_regex`` → list-flatten + parent indices → one
    ``np.bincount`` per stat; no Python row loop, no shuffle (embarras-
    singly parallel map)."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    TRIM = " \t\n\r"

    def stats(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["text"]))
        segs = pc.split_pattern_regex(t["text"], "[.!?]+")
        flat = pc.utf8_trim(pc.list_flatten(segs), TRIM)
        parent = pc.list_parent_indices(segs).to_numpy(
            zero_copy_only=False)
        ln = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        keep = ln > 0
        nrows = t.num_rows
        n_sent = np.bincount(parent[keep], minlength=nrows)
        tot = np.bincount(parent[keep], weights=ln[keep],
                          minlength=nrows).astype(np.int64)
        avg = np.where(n_sent > 0, tot / np.maximum(n_sent, 1), 0.0)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_sentences": pa.array(n_sent.astype(np.int64), pa.int64()),
            "sent_chars": pa.array(tot, pa.int64()),
            "avg_sent_len": pa.array(round_half_away(avg, 9),
                                     pa.float64())})

    return docs.map_batches(stats, batch_format="pyarrow")


def t_winnow_fingerprints(sf_dir: str) -> rd.Dataset:
    """Winnowing document fingerprints (Schleimer–Wilkerson–Aiken, the
    MOSS algorithm): token-3-gram hashes, then from every window of 4
    consecutive gram positions select the RIGHTMOST minimal hash; the
    deduped selections are the doc's fingerprint set — guaranteed-density
    sampling that detects any shared run ≥ k+w−1 tokens. Initial partial
    windows are included (window = positions max(0, p−3)..p), so docs
    with ≥1 gram always fingerprint; the gram hash is the engine-neutral
    md5[:8] int (vectorized DuckDB kernel, ``hashing.md5_int32``) so the
    selection is reproducible bit-for-bit in ANY engine — hence a
    FULL-VALUE oracle where most fingerprinters settle for rows-only.
    Embarrassingly parallel per doc; everything segmented numpy, no row
    loop, no shuffle."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    out_schema = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64()),
                            ("fp", pa.int64())])

    def winnow(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["text"]))
        if t.num_rows == 0:
            return out_schema.empty_table()
        toks = pc.split_pattern_regex(t["text"].combine_chunks(),
                                      r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        keep = pc.greater(pc.utf8_length(flat), 0)
        flat = flat.filter(keep)
        parent = parent[keep.to_numpy(zero_copy_only=False)]
        n = len(flat)
        if n < 3:
            return out_schema.empty_table()
        same = parent[:-2] == parent[2:]
        grams = pc.binary_join_element_wise(
            flat.slice(0, n - 2), flat.slice(1, n - 2),
            flat.slice(2, n - 2), " ").filter(pa.array(same))
        gparent = parent[:-2][same]
        if len(gparent) == 0:
            return out_schema.empty_table()
        h = md5_int32(grams)
        _, starts = runs(pa.table({"p": gparent}), "p")
        pos = np.arange(len(gparent)) - np.repeat(
            starts, np.diff(np.append(starts, len(gparent))))
        # rightmost minimal hash per (possibly partial) 4-window:
        # scan offsets k=0..3 back from the window end; strict < keeps
        # the rightmost on ties
        best = h.copy()
        bestpos = pos.copy()
        for k in (1, 2, 3):
            valid = np.zeros(len(h), bool)
            valid[k:] = gparent[k:] == gparent[:-k]
            cand = np.empty(len(h), h.dtype)
            cand[k:] = h[:-k]
            upd = valid & (cand < best)
            best[upd] = cand[upd]
            bestpos[upd] = pos[upd] - k
        sel = np.unique(np.stack([gparent, bestpos]), axis=1)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        gram_doc_start = np.zeros(int(gparent.max()) + 1, np.int64)
        gram_doc_start[gparent[starts]] = starts
        fp = h[gram_doc_start[sel[0]] + sel[1]]
        return pa.table({
            "doc_id": pa.array(doc_ids[sel[0]], pa.int64()),
            "pos": pa.array(sel[1], pa.int64()),
            "fp": pa.array(fp, pa.int64())}, schema=out_schema)

    return docs.map_batches(winnow, batch_format="pyarrow")


def dd_cdc_chunks(sf_dir: str) -> rd.Dataset:
    """Storage-level dedup analysis by CONTENT-DEFINED CHUNKING
    (``dedup.cdc_chunks``: Gear-hash boundary rule, the LBFS/FastCDC
    family): per document, how many CDC chunks it splits into and how
    many of those chunk instances also occur in at least one OTHER
    document — the dedup-ratio signal an incremental crawl store /
    backup system reads before choosing chunk-level storage. Shape:
    zero-copy chunking per batch → 8-byte md5 chunk hashes (engine-
    neutral) → ONE hash exchange on chunk hash (a range owns every
    instance of its hashes: distinct-doc count is local) → per-doc
    partial (n, n_dup) rows → one tiny doc-keyed merge. Chunk BYTES
    never cross the wire twice: only (hash, doc_id) pairs are
    exchanged."""
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    chunks = docs.map_batches(cdc_chunks, batch_format="pyarrow")

    pair_schema = pa.schema([("chash", pa.int64()), ("doc_id", pa.int64())])

    def to_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pair_schema.empty_table()
        return pa.table({"chash": pa.array(md5_int32(batch["chunk"]),
                                           pa.int64()),
                         "doc_id": batch["doc_id"]}, schema=pair_schema)

    part_schema = pa.schema([("doc_id", pa.int64()), ("n", pa.int64()),
                             ("ndup", pa.int64())])

    def per_hash(tbl: pa.Table) -> pa.Table:
        tbl, hstarts = runs(tbl, "chash", ["doc_id"])
        _, pstarts = runs(tbl, ["chash", "doc_id"])
        hends = np.append(hstarts, tbl.num_rows)
        # distinct docs per hash: the (hash, doc) run starts inside it
        ndocs = np.diff(np.searchsorted(pstarts, hends))
        dup = np.repeat(ndocs >= 2, np.diff(hends))
        p = pa.table({"doc_id": tbl["doc_id"],
                      "one": pa.array(np.ones(tbl.num_rows, np.int64)),
                      "dup": pa.array(dup.astype(np.int64), pa.int64())})
        g = p.group_by(["doc_id"]).aggregate([("one", "sum"),
                                              ("dup", "sum")])
        return pa.table({"doc_id": g["doc_id"], "n": g["one_sum"],
                         "ndup": g["dup_sum"]}, schema=part_schema)

    parts = hash_repartition_map(
        chunks.map_batches(to_pairs, batch_format="pyarrow"),
        "chash", per_hash, schema=part_schema)
    # per-doc merge: doc_id cardinality ≈ block size — one hash
    # exchange + local C++ group_by, dup_frac fused in
    fin_schema = pa.schema([("doc_id", pa.int64()),
                            ("n_chunks", pa.int64()),
                            ("n_dup_chunks", pa.int64()),
                            ("dup_frac", pa.float64())])

    def doc_merge(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["doc_id"]).aggregate([("n", "sum"),
                                                ("ndup", "sum")])
        n = g["n_sum"].to_numpy(zero_copy_only=False)
        d = g["ndup_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": g["doc_id"], "n_chunks": g["n_sum"],
            "n_dup_chunks": g["ndup_sum"],
            "dup_frac": pa.array(round_half_away(
                d / np.maximum(n, 1), 9), pa.float64())},
            schema=fin_schema)

    return hash_repartition_map(parts, "doc_id", doc_merge, schema=fin_schema)


def s_als_recommend(sf_dir: str) -> pa.Table:
    """Collaborative-filtering recommendation over the event stream
    (``factorize.als_recommend``): rank-3 ALS factorization of the
    (user × item) mean-value matrix where an item is an (event_type,
    day-of-week) SLOT — 35 items, so real unseen cells exist per user
    (every user touches all 5 bare types at any realistic volume) —
    then each user's top-scoring unseen slot: "which action in which
    weekday slot next". One hash exchange on user reused by every ALS
    iteration; item factors broadcast (the driver-small side); per-
    partition batched closed-form solves. Iterative least squares ⇒
    rows-only (no SQL); determinism + reconstruction pytest-asserted."""
    ev = read(sf_dir, "events", ["user_id", "event_type", "value", "ts"])

    def slot(batch: pa.Table) -> pa.Table:
        dow = pc.day_of_week(batch["ts"]).cast(pa.string())
        return pa.table({
            "user_id": batch["user_id"],
            "item": pc.binary_join_element_wise(
                batch["event_type"].combine_chunks(), dow, "@"),
            "value": batch["value"]})

    # (user, item) mean via ONE hash exchange on user + local group_by —
    # (user × item) cardinality ≈ row count; the subsequent ALS
    # exchange shares the same key anyway

    def pre(batch: pa.Table) -> pa.Table:
        g = slot(batch).group_by(["user_id", "item"]).aggregate(
            [("value", "sum"), ("value", "count")])
        return g.rename_columns(["user_id", "item", "vs", "vc"])

    merged = hash_repartition_map(
        ev.map_batches(pre, batch_format="pyarrow"), "user_id",
        lambda t: t.group_by(["user_id", "item"]).aggregate(
            [("vs", "sum"), ("vc", "sum")]))
    ratings = merged.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "item": t["item"],
            "r": pc.divide(t["vs_sum"],
                           pc.cast(t["vc_sum"], pa.float64()))}),
        batch_format="pyarrow")
    return als_recommend(ratings, "user_id", "item", "r",
                         rank=3, iters=8)


def td_curriculum_pack(sf_dir: str) -> rd.Dataset:
    """Curriculum-ordered sequence packing (the length-curriculum
    pretraining schedule: feed short documents first): documents laid
    end-to-end in (n_chars ASC, doc_id ASC) order — an all-integer, hence
    engine-exact, curriculum key — each doc assigned the 512-token
    training bin its first token lands in. The global order is realized
    WITHOUT a global sort: n_chars value-RANGE bands (contiguous in the
    sort order by construction) get exclusive token offsets from one
    tiny driver fold (one row per band), and each band's hash-exchange
    partition computes its docs' exact global token starts with a local
    sort + segmented cumsum — the ``td_pack`` distributed-prefix-sum
    shape with the bucket key swapped from doc_id ranges to the
    curriculum key's value ranges. Output: (doc_id, n_chars, tok_start,
    bin)."""
    B = 512      # tokens per packed training sequence
    W = 64       # n_chars per curriculum band

    docs = read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def counts(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["text"]))
        nt = pc.add(pc.count_substring(t["text"], " "), 1)
        band = pc.divide(t["n_chars"], W)
        return pa.table({"doc_id": t["doc_id"],
                         "n_chars": t["n_chars"],
                         "band": pc.cast(band, pa.int64()),
                         "nt": pc.cast(nt, pa.int64())})

    per_doc = docs.map_batches(counts, batch_format="pyarrow") \
        .materialize()

    band_sums = collect_tables(
        partial_groupby_agg(per_doc, ["band"], [("nt", "sum", "s")]),
        pa.schema([("band", pa.int64()), ("s", pa.int64())]))
    bands = band_sums["band"].to_numpy(zero_copy_only=False)
    sums = band_sums["s"].to_numpy(zero_copy_only=False)
    max_band = int(bands.max()) if len(bands) else 0
    offsets = np.zeros(max_band + 2, dtype=np.int64)
    np.add.at(offsets, bands + 1, sums)
    offsets = np.cumsum(offsets)  # offsets[band] = tokens before the band

    out_schema = pa.schema([("doc_id", pa.int64()), ("n_chars", pa.int64()),
                            ("tok_start", pa.int64()), ("bin", pa.int64())])

    def assign(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "band", ["n_chars", "doc_id"])
        band = tbl["band"].to_numpy(zero_copy_only=False)
        nt = tbl["nt"].to_numpy(zero_copy_only=False)
        cum = np.cumsum(nt) - nt          # exclusive local prefix
        local_base = np.repeat(cum[starts], np.diff(
            np.append(starts, len(band))))
        tok_start = offsets[band] + (cum - local_base)
        return pa.table({
            "doc_id": tbl["doc_id"], "n_chars": tbl["n_chars"],
            "tok_start": pa.array(tok_start, pa.int64()),
            "bin": pa.array(tok_start // B, pa.int64())}, schema=out_schema)

    return hash_repartition_map(per_doc, "band", assign, schema=out_schema)


QUANTILES_EXACT = (0.25, 0.5, 0.75, 0.95, 0.99)


def a_quantiles_exact(sf_dir: str) -> pa.Table:
    """EXACT multi-quantile (p25/p50/p75/p95/p99, ``quantile_disc``
    semantics: the element at 0-based rank ⌈q·n⌉−1) over the fact
    table's extended price IN ONE PASS — the order-statistic batch the
    t-digest sketches approximate. Same sort-free plan as
    ``a_median_price_exact``, generalized to a rank VECTOR: value-band
    counts → driver prefix offsets locate every target's band → only the
    owning partitions sort locally and each emits its ranks' values.
    No node ever holds the column; the driver sees five numbers. A
    50-target batch costs the same two passes as one target."""
    W = 2_000.0
    line = read(sf_dir, "lineitem", ["l_extendedprice"])

    def bucketed(batch: pa.Table) -> pa.Table:
        b = np.floor(batch["l_extendedprice"].to_numpy(
            zero_copy_only=False) / W)
        return pa.table({"v": batch["l_extendedprice"],
                         "band": pa.array(b.astype(np.int64))})

    banded = line.map_batches(bucketed, batch_format="pyarrow") \
        .materialize()
    counts = collect_tables(
        partial_groupby_agg(banded, ["band"], [("v", "count", "n")]),
        pa.schema([("band", pa.int64()), ("n", pa.int64())]))
    bands = counts["band"].to_numpy(zero_copy_only=False)
    ns = counts["n"].to_numpy(zero_copy_only=False)
    max_band = int(bands.max()) if len(bands) else 0
    offsets = np.zeros(max_band + 2, dtype=np.int64)
    np.add.at(offsets, bands + 1, ns)
    offsets = np.cumsum(offsets)
    N = int(offsets[-1])
    targets = sorted({max(0, int(np.ceil(q * N)) - 1)
                      for q in QUANTILES_EXACT})

    out_schema = pa.schema([("r", pa.int64()), ("v", pa.float64())])

    def extract(tbl: pa.Table) -> pa.Table:
        band = tbl["band"].to_numpy(zero_copy_only=False)
        mine = [t for t in targets
                if (band == np.searchsorted(offsets, t, "right") - 1).any()]
        if not mine:
            return out_schema.empty_table()
        order = np.lexsort((tbl["v"].to_numpy(zero_copy_only=False), band))
        v = tbl["v"].to_numpy(zero_copy_only=False)[order]
        b_sorted = band[order]
        rows = []
        for t in mine:
            tb = int(np.searchsorted(offsets, t, "right") - 1)
            local = t - int(offsets[tb])
            seg = np.flatnonzero(b_sorted == tb)
            rows.append((t, float(v[seg[local]])))
        return pa.table({"r": pa.array([r for r, _ in rows], pa.int64()),
                         "v": pa.array([x for _, x in rows], pa.float64())},
                        schema=out_schema)

    got = collect_tables(hash_repartition_map(banded, "band", extract,
                                              schema=out_schema),
                         out_schema)
    vals = dict(zip(got["r"].to_pylist(), got["v"].to_pylist()))
    qs = list(QUANTILES_EXACT)
    out_v = [vals[max(0, int(np.ceil(q * N)) - 1)] for q in qs]
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array([float(round_half_away(np.array([x]), 2)[0])
                           for x in out_v], pa.float64()),
    })


def v_dow_anomaly(sf_dir: str) -> pa.Table:
    """SEASONAL volume anomaly detection: the crawl's daily row counts
    deseasonalized by day-of-week before the robust test — a Sunday at
    60% of Wednesday volume is NORMAL web traffic that ``v_count_anomaly``'s
    global median would flag, while a Wednesday at Sunday volume is a
    broken feed that the global test absorbs. Per weekday: median of
    that weekday's counts; residual = n / median(dow); a day is
    anomalous when |residual − 1| exceeds 3 × 1.4826 × MAD of the
    all-days residuals. Same distributed shape as ``v_count_anomaly``
    (map-side day partials → one tiny merge; the n_days-row series
    statistics are driver-sized by nature)."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts"])

    def day_one(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(batch["warc_ts"], format="%Y-%m-%d"),
            "dow": pc.day_of_week(batch["warc_ts"]).cast(pa.int64()),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    counts = partial_groupby_agg(
        pages.map_batches(day_one, batch_format="pyarrow"),
        ["day", "dow"], [("one", "sum", "n")]).to_pandas() \
        .sort_values("day")
    n = counts["n"].to_numpy(np.float64)
    dow = counts["dow"].to_numpy(np.int64)
    med_dow = np.zeros(7, np.float64)
    for d in range(7):
        m = dow == d
        med_dow[d] = float(np.median(n[m])) if m.any() else 1.0
    resid = n / np.maximum(med_dow[dow], 1.0)
    mad = float(np.median(np.abs(resid - np.median(resid))))
    thr = 3.0 * 1.4826 * mad
    return pa.table({
        "day": pa.array(counts["day"].to_list(), pa.string()),
        "dow": pa.array(dow, pa.int64()),
        "n": pa.array(n.astype(np.int64)),
        "dow_median": pa.array(round_half_away(med_dow[dow], 6)),
        "residual": pa.array(round_half_away(resid, 6)),
        "is_anomaly": pa.array(
            np.abs(resid - np.median(resid)) > thr),
    })


def v_join_fanout(sf_dir: str) -> pa.Table:
    """Join-cardinality (FK fanout) profile — the data-quality check a
    join planner and a skew guard both read: per relation, how many
    children each parent key has (n_parents, max, mean, exact p99). A
    silent upstream duplication shows up here as a fanout-distribution
    shift long before a join blows up. Shape per relation: one hash
    exchange on the key + local C++ group count (the A1 shape), then the
    FANOUT HISTOGRAM (distinct fanout values are few) merges to the
    driver, where max/mean/quantile are exact arithmetic over ≤ a few
    hundred (fanout, count) rows — the full per-key table never leaves
    the cluster."""
    def profile(rel: str, ds: rd.Dataset, key: str):
        def key_counts(tbl: pa.Table) -> pa.Table:
            g = tbl.group_by([key]).aggregate([(key, "count")])
            return pa.table({"k": g[key],
                             "n": g[f"{key}_count"].cast(pa.int64())})

        per_key = hash_repartition_map(
            ds.map_batches(
                lambda t: pa.table({key: t[key]}).group_by([key])
                .aggregate([(key, "count")])
                .rename_columns([key, "n0"]),
                batch_format="pyarrow"),
            key,
            lambda t: t.group_by([key]).aggregate([("n0", "sum")])
            .rename_columns([key, "n"]))
        hist = partial_groupby_agg(
            per_key.map_batches(
                lambda t: pa.table({
                    "f": t["n"],
                    "one": pa.array(np.ones(t.num_rows, np.int64))}),
                batch_format="pyarrow"),
            ["f"], [("one", "sum", "c")]).to_pandas().sort_values("f")
        f, c = hist["f"].to_numpy(), hist["c"].to_numpy()
        np_parents = int(c.sum())
        cum = np.cumsum(c)
        rank = max(0, int(np.ceil(0.99 * np_parents)) - 1)
        p99 = int(f[np.searchsorted(cum, rank + 1)])
        return (rel, np_parents, int(f[-1]),
                float((f * c).sum()) / np_parents, p99)

    rows = [
        profile("orders_per_customer",
                read(sf_dir, "orders", ["o_custkey"]), "o_custkey"),
        profile("lineitem_per_order",
                read(sf_dir, "lineitem", ["l_orderkey"]), "l_orderkey"),
        profile("events_per_user",
                read(sf_dir, "events", ["user_id"]), "user_id"),
    ]
    return pa.table({
        "relation": pa.array([r[0] for r in rows], pa.string()),
        "n_parents": pa.array([r[1] for r in rows], pa.int64()),
        "max_fanout": pa.array([r[2] for r in rows], pa.int64()),
        "mean_fanout": pa.array(round_half_away(
            np.array([r[3] for r in rows]), 6), pa.float64()),
        "p99_fanout": pa.array([r[4] for r in rows], pa.int64()),
    })


def dd_recrawl_chunk_savings(sf_dir: str) -> pa.Table:
    """Chunk-level storage savings across a multi-capture web archive —
    the question CDC exists to answer: if the store keeps unique Gear-CDC
    chunks instead of full capture bodies, how many bytes does the
    recrawl corpus shrink by? (Captures are often byte-identical or
    shifted edits of the previous capture; fixed-size blocks would miss
    the shifted ones, content-defined boundaries realign.) Shape: chunk
    each capture per batch (``dedup.cdc_chunks``, zero-copy), ship only
    (8-byte md5 chunk hash, chunk length) pairs to ONE hash exchange on
    the chunk hash (a range owns every instance of its hashes: distinct
    length sum is local), then a scalar fold. Output: one row —
    n_captures, total_bytes, unique_chunk_bytes, savings_frac."""
    fix = ensure_recrawl(recrawl_nurls_for_sf(sf_dir))
    caps = rd.read_parquet(fix, columns=["text"])

    pair_schema = pa.schema([("chash", pa.int64()), ("clen", pa.int64()),
                             ("nrows", pa.int64()), ("tbytes", pa.int64())])

    def to_pairs(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["text"]))
        if t.num_rows == 0:
            return pair_schema.empty_table()
        tb = int(pc.sum(pc.utf8_length(t["text"])).as_py() or 0)
        # per-batch synthetic ids: identity only scopes chunk boundaries
        t2 = pa.table({"doc_id": pa.array(
            np.arange(t.num_rows, dtype=np.int64)), "text": t["text"]})
        ch = cdc_chunks(t2)
        if ch.num_rows == 0:  # all-empty texts: count captures, 0 bytes
            return pa.table({
                "chash": pa.array([-1], pa.int64()),
                "clen": pa.array([0], pa.int64()),
                "nrows": pa.array([t.num_rows], pa.int64()),
                "tbytes": pa.array([tb], pa.int64())}, schema=pair_schema)
        return pa.table({
            "chash": pa.array(md5_int32(ch["chunk"]), pa.int64()),
            "clen": pc.utf8_length(ch["chunk"]).cast(pa.int64()),
            "nrows": pa.array(np.r_[np.int64(t.num_rows), np.zeros(
                max(ch.num_rows - 1, 0), np.int64)]
                if ch.num_rows else np.array([], np.int64)),
            "tbytes": pa.array(np.r_[np.int64(tb), np.zeros(
                max(ch.num_rows - 1, 0), np.int64)]
                if ch.num_rows else np.array([], np.int64)),
        }, schema=pair_schema)

    sum_schema = pa.schema([("ub", pa.int64()), ("nr", pa.int64()),
                            ("tb", pa.int64())])

    def uniq_bytes(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["chash"]).aggregate([("clen", "min")])
        return pa.table({
            "ub": pa.array([int(pc.sum(g["clen_min"]).as_py() or 0)],
                           pa.int64()),
            "nr": pa.array([int(pc.sum(tbl["nrows"]).as_py() or 0)],
                           pa.int64()),
            "tb": pa.array([int(pc.sum(tbl["tbytes"]).as_py() or 0)],
                           pa.int64())})

    parts = collect_tables(
        hash_repartition_map(
            caps.map_batches(to_pairs, batch_format="pyarrow"),
            "chash", uniq_bytes, schema=sum_schema), sum_schema)
    ub = int(pc.sum(parts["ub"]).as_py() or 0)
    nr = int(pc.sum(parts["nr"]).as_py() or 0)
    tb = int(pc.sum(parts["tb"]).as_py() or 0)
    frac = 1.0 - ub / tb if tb else 0.0
    return pa.table({
        "n_captures": pa.array([nr], pa.int64()),
        "total_bytes": pa.array([tb], pa.int64()),
        "unique_chunk_bytes": pa.array([ub], pa.int64()),
        "savings_frac": pa.array(round_half_away(np.array([frac]), 6),
                                 pa.float64())})


WINNOW_DF_CAP = 64      # shared verbatim with the oracle SQL
WINNOW_MIN_SHARED = 3


def dd_winnow_pairs(sf_dir: str) -> rd.Dataset:
    """Near-duplicate CANDIDATE PAIRS from winnowing fingerprints — the
    MOSS pairing step: two documents are candidates when they share at
    least ``WINNOW_MIN_SHARED`` distinct selected fingerprints (each
    shared fingerprint certifies a common token run, so the guarantee is
    structural, unlike MinHash's probabilistic bands). Fingerprints with
    document frequency > ``WINNOW_DF_CAP`` are dropped — boilerplate
    n-grams predict nothing and would blow the per-fingerprint pair
    fanout quadratically (the LSH hot-bucket cap, applied here at
    candidate time; the oracle applies the same caps). Shape: the
    embarrassingly-parallel fingerprint map → distinct (doc, fp) —
    ONE hash exchange on fp where df-capping AND pair emission are local
    to the owning range → one pair-keyed exchange merge → threshold.
    Only (fp, doc) then (pair, count) integers ever cross the wire."""
    fps = t_winnow_fingerprints(sf_dir)

    pair_schema = pa.schema([("d1", pa.int64()), ("d2", pa.int64()),
                             ("shared", pa.int64())])

    def pairs_of(tbl: pa.Table) -> pa.Table:
        t, starts = runs(tbl.group_by(["fp", "doc_id"]).aggregate([]),
                         "fp", ["doc_id"])              # distinct pairs
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        lens = np.diff(np.append(starts, t.num_rows))
        keep = (lens >= 2) & (lens <= WINNOW_DF_CAP)
        d1, d2 = [], []
        for s, ln in zip(starts[keep], lens[keep]):  # per qualifying fp:
            seg = did[s:s + ln]                      # ≤ cap docs, pairs
            iu, ju = np.triu_indices(ln, k=1)        # bounded by cap²/2
            d1.append(seg[iu])
            d2.append(seg[ju])
        if not d1:
            return pair_schema.empty_table()
        d1 = np.concatenate(d1)
        d2 = np.concatenate(d2)
        p = pa.table({"d1": pa.array(d1, pa.int64()),
                      "d2": pa.array(d2, pa.int64()),
                      "one": pa.array(np.ones(len(d1), np.int64))})
        g = p.group_by(["d1", "d2"]).aggregate([("one", "sum")])
        return pa.table({"d1": g["d1"], "d2": g["d2"],
                         "shared": g["one_sum"]}, schema=pair_schema)

    cand = hash_repartition_map(fps, "fp", pairs_of, schema=pair_schema)

    def merge_pairs(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pair_schema.empty_table()
        g = tbl.group_by(["d1", "d2"]).aggregate([("shared", "sum")])
        out = pa.table({"d1": g["d1"], "d2": g["d2"],
                        "shared": g["shared_sum"]}, schema=pair_schema)
        return out.filter(pc.greater_equal(out["shared"],
                                           WINNOW_MIN_SHARED))

    keyed = cand.map_batches(
        lambda t: t.append_column("pk", pc.add(
            pc.multiply(t["d1"], 1_000_000_000), t["d2"])),
        batch_format="pyarrow")
    return hash_repartition_map(keyed, "pk",
                                lambda t: merge_pairs(
                                    t.drop_columns(["pk"])))


def g_modularity(sf_dir: str) -> pa.Table:
    """Newman modularity of the registered-domain partition of the host
    graph — "how community-like is the domain grouping?" (the statistic
    community detection maximizes, here evaluated for the natural web
    partition): per community c,  Q_c = e_c/m − (d_c/2m)²,  Q = Σ Q_c,
    over the distinct undirected edge set. All inputs are INTEGER
    distributive sums (m, intra-community edge counts, community degree
    sums) — one exchange-dedup of the edges, one tiny per-community
    fold, exact at any scale; the only float is the final ratio. Returns
    one row per community (community, n_edges_within, degree_sum, q_c)."""

    e = _host_edges_undirected(sf_dir).materialize()

    def comm(arr: pa.ChunkedArray) -> pa.ChunkedArray:
        # non-matching hosts map to '' — DuckDB's regexp_extract no-match
        # convention, so both engines bucket them identically
        return pc.fill_null(pc.struct_field(pc.extract_regex(
            arr.combine_chunks(), r"\.(?P<d>example-\d+\.org)$"), "d"), "")

    def partials(batch: pa.Table) -> pa.Table:
        ca = comm(batch["a"])
        cb = comm(batch["b"])
        within = pc.equal(ca, cb)
        # endpoint (community, 1) rows for d_c + intra-edge rows for e_c
        deg = pa.table({
            "community": pa.concat_arrays([ca.combine_chunks()
                                           if isinstance(ca, pa.ChunkedArray)
                                           else ca,
                                           cb.combine_chunks()
                                           if isinstance(cb, pa.ChunkedArray)
                                           else cb]),
            "d": pa.array(np.ones(2 * batch.num_rows, np.int64)),
            "w": pa.array(np.zeros(2 * batch.num_rows, np.int64))})
        intra = pa.table({
            "community": (ca.combine_chunks()
                          if isinstance(ca, pa.ChunkedArray) else ca)
            .filter(within),
            "d": pa.array(np.zeros(
                int(pc.sum(within.cast(pa.int64())).as_py() or 0),
                np.int64)),
            "w": pa.array(np.ones(
                int(pc.sum(within.cast(pa.int64())).as_py() or 0),
                np.int64))})
        return pa.concat_tables([deg, intra])

    folded = collect_tables(partial_groupby_agg(
        e.map_batches(partials, batch_format="pyarrow"),
        ["community"], [("d", "sum", "d_c"), ("w", "sum", "e_c")]),
        pa.schema([("community", pa.string()), ("d_c", pa.int64()),
                   ("e_c", pa.int64())]))
    m = e.count()
    d_c = folded["d_c"].to_numpy(zero_copy_only=False).astype(np.float64)
    e_c = folded["e_c"].to_numpy(zero_copy_only=False).astype(np.float64)
    q_c = e_c / m - (d_c / (2.0 * m)) ** 2
    order = np.argsort(folded["community"].to_numpy(zero_copy_only=False))
    return pa.table({
        "community": folded["community"].take(pa.array(order)),
        "n_edges_within": folded["e_c"].take(pa.array(order)),
        "degree_sum": folded["d_c"].take(pa.array(order)),
        "q_c": pa.array(round_half_away(q_c[order], 9), pa.float64())})


def t_js_divergence(sf_dir: str) -> pa.Table:
    """Pairwise Jensen–Shannon divergence (base 2) between document
    sources over their LANGUAGE profiles — the symmetric, bounded [0,1]
    corpus-comparison statistic next to the drift family (chi-square /
    PSI / KS compare a slice to a reference; JS ranks which SOURCES look
    alike, the signal a mixing policy reads before merging feeds). One
    map-side-combined (source, lang) count exchange reduces the corpus
    to ≤ sources×langs rows; the S²/2 pair divergences are driver
    arithmetic on that tiny table (sources are driver-small by nature)."""
    docs = read(sf_dir, "documents", ["source", "lang"])
    counts = partial_groupby_agg(
        docs.map_batches(lambda t: t.append_column(
            "one", pa.array(np.ones(t.num_rows, np.int64))),
            batch_format="pyarrow"),
        ["source", "lang"], [("one", "count", "n")]).to_pandas()

    srcs = np.sort(counts["source"].unique())
    langs = np.sort(counts["lang"].unique())
    si = {s: i for i, s in enumerate(srcs)}
    li = {x: i for i, x in enumerate(langs)}
    grid = np.zeros((len(srcs), len(langs)), np.float64)
    grid[[si[s] for s in counts["source"]],
         [li[x] for x in counts["lang"]]] = counts["n"].to_numpy()
    p = grid / grid.sum(axis=1, keepdims=True)

    rows_a, rows_b, js = [], [], []
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            m = (p[i] + p[j]) / 2.0
            with np.errstate(divide="ignore", invalid="ignore"):
                kl_a = np.where(p[i] > 0, p[i] / 2 * np.log2(
                    np.where(p[i] > 0, p[i], 1) / np.where(m > 0, m, 1)),
                    0.0)
                kl_b = np.where(p[j] > 0, p[j] / 2 * np.log2(
                    np.where(p[j] > 0, p[j], 1) / np.where(m > 0, m, 1)),
                    0.0)
            rows_a.append(srcs[i])
            rows_b.append(srcs[j])
            js.append(float(kl_a.sum() + kl_b.sum()))
    return pa.table({
        "source_a": pa.array(rows_a, pa.string()),
        "source_b": pa.array(rows_b, pa.string()),
        "js": pa.array(round_half_away(np.array(js), 9), pa.float64())})


def e_user_entropy(sf_dir: str) -> rd.Dataset:
    """Per-user behavioral entropy: Shannon entropy (bits) of each
    user's event-type distribution — the engagement-diversity feature
    (bot detection: single-action accounts score 0; browse-everything
    humans score high). The per-ENTITY variant of
    ``a_entropy_by_source``: user cardinality is corpus-scale, so
    nothing touches the driver — per-batch (user, type) count combine,
    ONE hash exchange on user, then a segmented vectorized −Σ p·log₂p
    per user inside the owning range. Returns (user_id, n_events,
    n_types, entropy)."""
    ev = read(sf_dir, "events", ["user_id", "event_type"])

    def pre(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate(
            [("event_type", "count")])
        return g.rename_columns(["user_id", "event_type", "n"])

    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_events", pa.int64()),
                            ("n_types", pa.int64()),
                            ("entropy", pa.float64())])

    def per_user(tbl: pa.Table) -> pa.Table:
        g, starts = runs(tbl.group_by(["user_id", "event_type"]).aggregate(
            [("n", "sum")]), "user_id", ["event_type"])
        n = g["n_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        lens = np.diff(np.append(starts, g.num_rows))
        tot = np.add.reduceat(n, starts)
        p = n / np.repeat(tot, lens)
        ent = np.add.reduceat(-p * np.log2(p), starts)
        return pa.table({
            "user_id": g["user_id"].take(starts),
            "n_events": pa.array(tot.astype(np.int64), pa.int64()),
            "n_types": lens,
            "entropy": pa.array(round_half_away(ent, 9), pa.float64()),
        }, schema=out_schema)

    return hash_repartition_map(
        ev.map_batches(pre, batch_format="pyarrow"), "user_id", per_user,
        schema=out_schema)


def mm_phash_clusters(sf_dir: str) -> rd.Dataset:
    """Near-duplicate IMAGE CLUSTERS: connected components (min-label
    propagation, ``dedup.connected_components``) over the banded-Hamming
    dHash pairs of ``mm_phash_near_dup`` — pairs → clusters, the step a
    visual-dedup pipeline needs before electing one keeper per cluster.
    Exact-recall candidate generation (pigeonhole bands) + exact CC ⇒
    full-value oracle via a recursive reachability CTE."""
    pairs = mm_phash_near_dup(sf_dir).map_batches(
        lambda t: pa.table({"id_a": t["a"], "id_b": t["b"]}),
        batch_format="pyarrow")
    return connected_components(pairs)


def pages_boilerplate_ratio(sf_dir: str) -> rd.Dataset:
    """Per-host boilerplate density: what fraction of each host's html
    BYTES the extracted text does NOT account for — the extraction-QA /
    crawl-value signal (a host whose pages are 99% markup is template
    noise; a sudden ratio shift means the extractor or the site changed).
    One scan computes per-batch (host, Σ html_bytes, Σ text_chars, n)
    partials — the bytes themselves never leave the read task — and a
    tiny host-keyed merge finishes. Ratio = 1 − text/html, rounded 6."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["url", "html", "text"])

    def partials(batch: pa.Table) -> pa.Table:
        host = pc.struct_field(pc.extract_regex(
            batch["url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        hb = pc.binary_length(pc.fill_null(batch["html"], b"")) \
            .cast(pa.int64())
        tc = pc.utf8_length(pc.fill_null(batch["text"], "")) \
            .cast(pa.int64())
        t = pa.table({"host": host, "hb": hb, "tc": tc,
                      "one": pa.array(np.ones(batch.num_rows, np.int64))})
        g = t.group_by(["host"]).aggregate(
            [("hb", "sum"), ("tc", "sum"), ("one", "sum")])
        return g.rename_columns(["host", "hb", "tc", "n"])

    agg = partial_groupby_agg(
        pages.map_batches(partials, batch_format="pyarrow"),
        ["host"], [("hb", "sum", "html_bytes"), ("tc", "sum", "text_chars"),
                   ("n", "sum", "n_pages")])

    def finish(batch: pa.Table) -> pa.Table:
        hb = batch["html_bytes"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        tc = batch["text_chars"].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        r = np.where(hb > 0, 1.0 - tc / np.maximum(hb, 1.0), 0.0)
        return batch.append_column(
            "boilerplate_ratio",
            pa.array(round_half_away(r, 6), pa.float64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def dd_c4_line_dedup(sf_dir: str, wire: str = "hash") -> rd.Dataset:
    """C4's GLOBAL line-level exact dedup (the companion to the
    three-sentence-span rule ``dd_c4_spans``): a non-empty trimmed line
    is REMOVED when the identical line occurs earlier in global
    (doc_id, line_no) order anywhere in the corpus — keep-first,
    order-deterministic, so the removal set is exactly reproducible.
    Shape: vectorized line explosion per batch → ONE hash exchange →
    local keep-first at the owning range → per-doc (n, removed)
    partials → tiny doc-keyed merge. ``wire`` picks the exchange key:

    - ``"hash"`` (default, the 100-TB path): each line travels as a
      128-bit key — two INDEPENDENT siphash64 folds of the line bytes
      (distinct pandas hash keys, same scheme as the ``dd_dup_spans``
      gram hashes) — 16 B/line regardless of line length, so the wire
      never carries corpus text. Equality is decided on the pair
      (collision odds 2^-64-scale per co-routed pair; the two folds
      are independent, so a 64-bit routing collision does not imply a
      match). Keep-first order is the same global (doc_id, ln) order.
    - ``"line"`` ships the trimmed line string and decides equality on
      it exactly — the oracle-exactness mode kept for audits; the
      per-doc (n, removed) equality of the two wires is property-
      tested (``tests/test_new_queries.py``).

    Returns per-doc (doc_id, n_lines, n_removed, kept_frac)."""
    if wire not in ("hash", "line"):
        raise ValueError(f"wire must be 'hash' or 'line', got {wire!r}")
    fix = ensure_lines(lines_ndocs_for_sf(sf_dir))
    docs = rd.read_parquet(fix, columns=["doc_id", "text"])
    TRIM = " \t\r"
    hashed = wire == "hash"

    row_schema = (pa.schema([("doc_id", pa.int64()), ("ln", pa.int64()),
                             ("h1", pa.uint64()), ("h2", pa.uint64())])
                  if hashed else
                  pa.schema([("doc_id", pa.int64()), ("ln", pa.int64()),
                             ("line", pa.string())]))
    # two independent 16-byte siphash keys -> two independent 64-bit folds
    _HK1 = "c4_line_dedup_h1"
    _HK2 = "c4_line_dedup_h2"

    def explode(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["text"]))
        if t.num_rows == 0:
            return row_schema.empty_table()
        parts = pc.split_pattern(t["text"].combine_chunks(), "\n")
        flat = pc.utf8_trim(pc.list_flatten(parts), TRIM)
        parent = pc.list_parent_indices(parts).to_numpy(
            zero_copy_only=False)
        _, starts = runs(pa.table({"p": parent}), "p")
        ln = np.arange(len(parent)) - np.repeat(
            starts, np.diff(np.append(starts, len(parent)))) + 1
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        kept_lines = flat.filter(pa.array(keep))
        cols = {"doc_id": pa.array(did[parent[keep]], pa.int64()),
                "ln": pa.array(ln[keep], pa.int64())}
        if hashed:
            lv = kept_lines.to_numpy(zero_copy_only=False).astype(object)
            cols["h1"] = pa.array(
                pd.util.hash_array(lv, hash_key=_HK1, categorize=False),
                pa.uint64())
            cols["h2"] = pa.array(
                pd.util.hash_array(lv, hash_key=_HK2, categorize=False),
                pa.uint64())
        else:
            cols["line"] = kept_lines
        return pa.table(cols, schema=row_schema)

    part_schema = pa.schema([("doc_id", pa.int64()), ("n", pa.int64()),
                             ("rm", pa.int64())])

    def keep_first(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, ["h1", "h2"] if hashed else ["line"],
                           ["doc_id", "ln"])
        n = tbl.num_rows
        first = np.zeros(n, bool)
        first[starts] = True
        p = pa.table({
            "doc_id": tbl["doc_id"],
            "n": pa.array(np.ones(n, np.int64)),
            "rm": pa.array((~first).astype(np.int64), pa.int64())})
        g = p.group_by(["doc_id"]).aggregate([("n", "sum"), ("rm", "sum")])
        return pa.table({"doc_id": g["doc_id"], "n": g["n_sum"],
                         "rm": g["rm_sum"]}, schema=part_schema)

    parts = hash_repartition_map(
        docs.map_batches(explode, batch_format="pyarrow"),
        "h1" if hashed else "line", keep_first, schema=part_schema)
    # per-doc merge: doc_id cardinality ≈ block size — one hash
    # exchange + local C++ group_by + the kept_frac
    # arithmetic fused into the same range task (no extra execution)
    fin_schema = pa.schema([("doc_id", pa.int64()), ("n_lines", pa.int64()),
                            ("n_removed", pa.int64()),
                            ("kept_frac", pa.float64())])

    def doc_merge(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["doc_id"]).aggregate([("n", "sum"), ("rm", "sum")])
        n = g["n_sum"].to_numpy(zero_copy_only=False)
        rm = g["rm_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": g["doc_id"], "n_lines": g["n_sum"],
            "n_removed": g["rm_sum"],
            "kept_frac": pa.array(round_half_away(
                1.0 - rm / np.maximum(n, 1), 6), pa.float64())},
            schema=fin_schema)

    return hash_repartition_map(parts, "doc_id", doc_merge, schema=fin_schema)


TEMPERATURE_ALPHA = 0.3  # shared verbatim with the oracle SQL


def td_temperature_mix(sf_dir: str) -> pa.Table:
    """Temperature-scaled source sampling weights — the mT5/XLM-R
    α-sampling rule (α = 0.3): w_s ∝ p_s^α, which UP-samples small
    sources relative to their natural share so low-resource feeds are
    not drowned (α=1 is natural sampling, α=0 uniform). Also reports the
    effective epochs each source would see at a fixed token budget
    (w_s / p_s). One map-side-combined source-count exchange; the
    S-row normalization is driver arithmetic by nature."""
    docs = read(sf_dir, "documents", ["doc_id", "source"])
    counts = partial_groupby_agg(
        docs, ["source"], [("doc_id", "count", "n")]).to_pandas() \
        .sort_values("source")
    n = counts["n"].to_numpy(np.float64)
    p = n / n.sum()
    w = p ** TEMPERATURE_ALPHA
    w = w / w.sum()
    return pa.table({
        "source": pa.array(counts["source"].to_list(), pa.string()),
        "n_docs": pa.array(n.astype(np.int64), pa.int64()),
        "p_natural": pa.array(round_half_away(p, 9), pa.float64()),
        "w_alpha": pa.array(round_half_away(w, 9), pa.float64()),
        "effective_epochs": pa.array(round_half_away(w / p, 9),
                                     pa.float64())})


def e_burst_rate(sf_dir: str) -> rd.Dataset:
    """Rate-limit / burst audit per user: the maximum number of events
    falling in ANY sliding 1-hour window (`RANGE INTERVAL` window
    semantics — value-range frames, where every other e_* window is
    row-count or tumbling). A bot throttle and an abuse monitor both
    read this. One hash exchange on user, then per partition a single
    sort + ONE vectorized searchsorted: burst(i) = i − first event
    within (ts_i − 1h, ts_i] clamped to the user's own segment — no
    per-user loop, no per-window scan. Returns (user_id, n_events,
    max_burst_1h)."""
    ev = read(sf_dir, "events", ["user_id", "ts", "event_id"])
    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_events", pa.int64()),
                            ("max_burst_1h", pa.int64())])

    def bursts(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "user_id", ["ts", "event_id"])
        ts = tbl["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = tbl.num_rows
        lens = np.diff(np.append(starts, n))
        seg_start = np.repeat(starts, lens)
        # window = [ts_i − 1h, ts_i] (RANGE ... 1 HOUR PRECEDING AND
        # CURRENT ROW: rows with ts ≥ ts_i − 1h). ts is sorted only
        # WITHIN segments, so searchsorted runs on a composite key
        # seg·SPAN + (ts − ts_min), monotone across the partition; a
        # query landing before its segment start clamps to seg_start.
        seg = np.repeat(np.arange(len(starts)), lens)
        span = np.int64(int(ts.max()) - int(ts.min())
                        + 3_600_000_000 + 2)
        if int(seg[-1] + 1) * int(span) < (1 << 62):
            key = seg * span + (ts - ts.min())
            lo = np.searchsorted(key, key - 3_600_000_000, side="left")
        else:  # overflow-proof fallback: per-segment searchsorted
            lo = np.empty(n, np.int64)
            for s, ln in zip(starts, lens):
                lo[s:s + ln] = s + np.searchsorted(
                    ts[s:s + ln], ts[s:s + ln] - 3_600_000_000, "left")
        lo = np.maximum(lo, seg_start)
        burst = np.arange(n) - lo + 1
        mx = np.maximum.reduceat(burst, starts)
        return pa.table({
            "user_id": tbl["user_id"].take(starts),
            "n_events": lens,
            "max_burst_1h": pa.array(mx.astype(np.int64), pa.int64()),
        }, schema=out_schema)

    return hash_repartition_map(ev, "user_id", bursts, schema=out_schema)


def m_url_parse(sf_dir: str) -> rd.Dataset:
    """Structured URL decomposition (the M-family parser every crawl
    pipeline starts with): scheme / host / path / query split by ONE
    vectorized regex pass, plus the path depth (number of non-empty
    segments) — the per-record shape feeding host grouping, depth
    filters and sitemap joins. Embarrassingly parallel; no Python row
    loop (`extract_regex` + `count_substring` kernels)."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"), columns=["url"])

    def parse(batch: pa.Table) -> pa.Table:
        u = batch["url"].combine_chunks()
        m = pc.extract_regex(
            u, r"^(?P<scheme>[a-z][a-z0-9+.-]*)://(?P<host>[^/?#]*)"
               r"(?P<path>[^?#]*)(?:\?(?P<query>[^#]*))?")
        scheme = pc.fill_null(pc.struct_field(m, "scheme"), "")
        host = pc.fill_null(pc.struct_field(m, "host"), "")
        path = pc.fill_null(pc.struct_field(m, "path"), "")
        query = pc.fill_null(pc.struct_field(m, "query"), "")
        # depth = segments between non-trailing slashes: '/a/b/c' -> 3,
        # '/' and '' -> 0 (count '/' minus a trailing-slash correction)
        slashes = pc.count_substring(path, "/")
        trailing = pc.ends_with(path, "/").cast(pa.int8()).cast(pa.int64())
        nonempty = pc.greater(pc.utf8_length(path), 1).cast(pa.int64())
        depth = pc.max_element_wise(
            pc.multiply(pc.subtract(slashes, trailing), nonempty),
            pa.scalar(0, pa.int64()))
        return pa.table({
            "url": u, "scheme": scheme, "host": host, "path": path,
            "query": query,
            "path_depth": depth.cast(pa.int64())})

    return pages.map_batches(parse, batch_format="pyarrow")


def v_benford(sf_dir: str) -> pa.Table:
    """Benford's-law first-significant-digit audit over order totals — the
    classic fabricated/corrupted-feed detector for financial-shaped
    columns (a synthetic or truncated feed flattens the digit histogram;
    chi-square against P(d) = log10(1 + 1/d) flags it). Distributed
    shape: each batch bincounts its first digits into a NINE-row partial
    (floor(x / 10^floor(log10 x)) — pure numpy, no strings), so the
    driver folds blocks × 9 ints regardless of input size; at 10^12 rows
    the wire carries nine counters per block and nothing else. ≙ the
    reference's expected-distribution assertions
    (check_fackel_references.py) as a value-shape invariant."""
    orders = read(sf_dir, "orders", ["o_totalprice"])

    def digits(batch: pa.Table) -> pa.Table:
        x = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        x = x[np.isfinite(x) & (x > 0)]
        d = np.floor(x / np.power(10.0, np.floor(np.log10(x)))).astype(np.int64)
        return pa.table({
            "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
            "n": pa.array(np.bincount(d, minlength=10)[1:10]),
        })

    total = np.zeros(9, np.int64)
    for row in orders.map_batches(digits, batch_format="pyarrow").take_all():
        total[row["digit"] - 1] += row["n"]
    nn = float(total.sum())
    exp_p = np.log10(1.0 + 1.0 / np.arange(1, 10, dtype=np.float64))
    chi2 = float(np.sum((total - nn * exp_p) ** 2 / (nn * exp_p)))
    return pa.table({
        "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
        "n": pa.array(total),
        "obs_p": pa.array(round_half_away(total / nn, 6)),
        "exp_p": pa.array(round_half_away(exp_p, 6)),
        "chi2": pa.array(round_half_away(np.full(9, chi2), 4)),
    })


def v_cusum_shift(sf_dir: str) -> pa.Table:
    """Offline change-point detection over the crawl's daily event volume
    (Page's CUSUM chart, the Taylor change-point formulation): S_i =
    Σ_{j≤i}(x_j − x̄) in day order; the level-shift estimate is the day
    maximizing |S| (all argmax ties flagged). Complements
    ``v_count_anomaly``'s single-day spike rule — a feed that PERMANENTLY
    halves its volume never deviates 3 MADs on any one day, but its
    cumulative deviation ramps unmistakably. Distributed shape identical
    to the anomaly family: map-side day-count partials → one tiny
    ``partial_groupby_agg`` merge; the n_days-row series cumsum
    runs driver-side. Fully deterministic (window sum in day order) ⇒
    full-value SQL oracle."""
    events = read(sf_dir, "events", ["ts"])

    def day_one(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(batch["ts"], format="%Y-%m-%d"),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    counts = partial_groupby_agg(
        events.map_batches(day_one, batch_format="pyarrow"),
        ["day"], [("one", "sum", "n")]).to_pandas().sort_values("day")
    x = counts["n"].to_numpy(np.float64)
    mu = float(x.sum()) / len(x)  # integer-valued doubles: sum is exact
    s = np.cumsum(x - mu)
    peak = np.abs(s).max()
    return pa.table({
        "day": pa.array(counts["day"].to_list(), pa.string()),
        "n": pa.array(x.astype(np.int64)),
        "s": pa.array(round_half_away(s, 6)),
        "is_changepoint": pa.array(np.abs(s) == peak),
    })


def v_table_fingerprint(sf_dir: str) -> pa.Table:
    """Order-independent table content fingerprint — snapshot-equality
    verification across engines/replicas/time-travel versions ("is this
    copy byte-identical as a SET of rows?") without a sort or a shuffle:
    each row's canonical '|'-joined string is md5-hashed, the 60-bit hex
    prefix summed mod the Mersenne prime 2^61−1. Commutative ⇒ per-batch
    (n, partial_sum) pairs are the only thing that moves (two ints per
    block at any scale); md5 + the hex-prefix cast run in DuckDB's C
    kernels over a zero-copy Arrow column (``hashing.md5_sum_mod``).
    Floats enter as exact cents, timestamps as epoch-microseconds, so
    the canonical string never depends on an engine's float/strftime
    formatting; a null field enters as the empty string (the oracle's
    ``coalesce(col::VARCHAR, '')``). ≙ the reference's cross-document
    consistency checks (check_fackel_references.py) as whole-table
    equality."""
    mod = (1 << 61) - 1

    def cents(col) -> pa.Array:   # exact cents; a null stays null
        x = pc.fill_null(col, 0.0).to_numpy(zero_copy_only=False)
        return pa.array(round_half_away(x * 100.0, 0).astype(np.int64),
                        mask=pc.is_null(col).to_numpy(zero_copy_only=False))

    specs = {
        "orders": (["o_orderkey", "o_custkey", "o_orderstatus",
                    "o_totalprice", "o_orderdate", "o_orderpriority"],
                   lambda b: [
                       b["o_orderkey"], b["o_custkey"], b["o_orderstatus"],
                       cents(b["o_totalprice"]),
                       pc.cast(b["o_orderdate"], pa.int64()),
                       b["o_orderpriority"]]),
        "events": (["event_id", "user_id", "event_type", "ts", "value"],
                   lambda b: [
                       b["event_id"], b["user_id"], b["event_type"],
                       pc.cast(b["ts"], pa.int64()), cents(b["value"])]),
    }
    rows = []
    for tbl_name, (cols, canon) in specs.items():
        ds = read(sf_dir, tbl_name, cols)

        def partial(batch: pa.Table, canon=canon) -> pa.Table:
            parts = canon(batch)
            joined = pc.binary_join_element_wise(
                *[pc.fill_null(pc.cast(p, pa.string()), "") for p in parts],
                "|")
            n, s = md5_sum_mod(joined, mod)
            return pa.table({"n": pa.array([n], pa.int64()),
                             "s": pa.array([s], pa.int64())})

        n_rows, fp = 0, 0
        for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
            n_rows += row["n"]
            fp = (fp + row["s"]) % mod
        rows.append((tbl_name, n_rows, fp))
    return pa.table({
        "tbl": pa.array([r[0] for r in rows], pa.string()),
        "n_rows": pa.array([r[1] for r in rows], pa.int64()),
        "fingerprint": pa.array([r[2] for r in rows], pa.int64()),
    })


def g_scc(sf_dir: str) -> rd.Dataset:
    """Strongly connected components of the DIRECTED host link graph —
    the web-graph bowtie decomposition input (Broder et al. 2000: the
    giant SCC vs IN/OUT fringes is the standard macro-structure report
    on a crawl) and the directed counterpart of ``g_components``.
    Fully distributed coloring / FW-BW (``graph.scc_coloring``): forward
    min-color fixpoint, within-class backward flags (both on
    ``graph.min_fixpoint``, run until nothing changes), settle-and-shrink
    with per-outer-round hash joins; host-sized graphs take the driver
    Tarjan path. Oracle: mutual-reachability closure (recursive CTE) with
    scc_id = min mutual node."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        return t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))

    e = links.map_batches(hosts, batch_format="pyarrow")
    return scc_coloring(e, "src_host", "dst_host").map_batches(
        lambda t: pa.table({"host": t["node"], "scc_id": t["scc_id"]}),
        batch_format="pyarrow")


def g_bowtie(sf_dir: str) -> rd.Dataset:
    """Bowtie decomposition of the directed host graph (Broder et al.
    2000, "Graph structure in the Web") — the standard crawl macro-
    structure report: every host classified GSCC (the giant strongly
    connected core), IN (reaches the core), OUT (reached from the core),
    or OTHER (tendrils/tubes/disconnected). Built entirely from scale
    components: ``scc_coloring`` for the core, then TWO frontier-only
    BFS runs (``graph.bfs_depth``) seeded at the core's canonical min
    host — reachability from ONE member equals reachability from the
    whole SCC, so the seed set is a single node regardless of core
    size — forward on the edges for OUT, on the reversed edges for IN,
    each run until its frontier is empty, so no chain is cut short.
    A node with both flags is mutually connected to the core and lands
    in GSCC by construction, so the CASE order is total. Classification
    is two left-outer hash joins + one vectorized if_else chain
    (``graph.bowtie_parts``)."""
    fix = _pages_fixture(sf_dir)
    links = rd.read_parquet(os.path.join(fix, "links.parquet"),
                            columns=["src_url", "dst_url"])

    def hosts(batch: pa.Table) -> pa.Table:
        h1 = pc.struct_field(pc.extract_regex(
            batch["src_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        h2 = pc.struct_field(pc.extract_regex(
            batch["dst_url"].combine_chunks(),
            r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table({"src_host": h1, "dst_host": h2})
        return t.filter(pc.and_(pc.is_valid(h1), pc.is_valid(h2)))

    e = links.map_batches(hosts, batch_format="pyarrow")
    return bowtie_parts(e, "src_host", "dst_host").map_batches(
        lambda t: pa.table({"host": t["node"], "part": t["part"]}),
        batch_format="pyarrow")


def v_completeness_daily(sf_dir: str) -> pa.Table:
    """Per-day column-completeness profile over the crawl (the Deequ
    "completeness" metric as a time series): for each capture day, the
    row count and the null fraction of ``text`` and ``html`` — the
    "did a feed start sending empty payloads on day X?" audit that the
    flagship's per-row C2 check reports as violations but not as a
    trend. Distributed shape identical to the anomaly family: map-side
    (day, n, null counters) partials from one vectorized is_null pass →
    one small groupby merge; nothing bigger than the day series
    ever leaves a block. ≙ the reference's non-empty-field assertions
    as a per-day rate."""
    fix = _pages_fixture(sf_dir)
    pages = rd.read_parquet(os.path.join(fix, "pages"),
                            columns=["warc_ts", "html", "text"])

    def day_nulls(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(batch["warc_ts"], format="%Y-%m-%d"),
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "nt": pc.is_null(batch["text"]).cast(pa.int64()),
            "nh": pc.is_null(batch["html"]).cast(pa.int64()),
        })

    g = collect_tables(partial_groupby_agg(
        pages.map_batches(day_nulls, batch_format="pyarrow"),
        ["day"], [("one", "sum", "n"), ("nt", "sum", "n_null_text"),
                  ("nh", "sum", "n_null_html")]),
        pa.schema([("day", pa.string())] + [
            (c, pa.int64()) for c in ("n", "n_null_text", "n_null_html")]))
    n = g["n"].to_numpy().astype(np.float64)
    return pa.table({
        "day": g["day"],
        "n": g["n"],
        "n_null_text": g["n_null_text"],
        "n_null_html": g["n_null_html"],
        "null_text_frac": pa.array(round_half_away(
            g["n_null_text"].to_numpy() / n, 6)),
        "null_html_frac": pa.array(round_half_away(
            g["n_null_html"].to_numpy() / n, 6)),
    })


def o_bottomk_sample(sf_dir: str) -> rd.Dataset:
    """EXACT-size deterministic uniform sample — the k smallest rows by
    md5(key) (bottom-k sketch semantics: the md5 order is a uniform
    random permutation, so the bottom k IS a uniform k-sample, and the
    same k rows come back on every engine/run/partitioning — unlike
    ``o_hash_sample``'s threshold form, which fixes the RATE but not
    the size). Distributed shape: per-block local bottom-k prunes to
    ≤ k rows per block before one tiny global sort+limit
    (``relational.topk``) — at 10^12 rows the sort sees k × n_blocks
    rows, never the table."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def skey(batch: pa.Table) -> pa.Table:
        h = md5_hex_ints(batch["o_orderkey"].to_numpy(
            zero_copy_only=False))
        return batch.append_column("skey", pa.array(h, pa.string()))

    keyed = orders.map_batches(skey, batch_format="pyarrow")
    return topk(keyed, [("skey", False)], 100).map_batches(
        lambda t: t.select(["o_orderkey", "o_totalprice"]),
        batch_format="pyarrow")


def a_theil_index(sf_dir: str) -> pa.Table:
    """Theil T inequality index of per-customer total spend — the
    entropy-based companion to ``a_gini_spend`` (decomposable across
    subgroups, which Gini is not — the reason monitoring suites carry
    both). Unlike Gini it needs NO rank machinery at all:
    T = [Σ x·ln x − Σx·ln μ] / (N·μ) is three scalar moments, so after
    the same one-exchange per-customer spend reduction each block ships
    exactly (n, Σx, Σ x·ln x) and the driver folds three numbers per
    block at any scale. Spend in exact integer cents ⇒ each ln term is
    bit-identical to the oracle's; the cross-block sum order drifts at
    most ~1 ulp, absorbed by the shared 6-decimal rounding."""
    orders = read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        c = np.round(batch["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0).astype(np.int64)
        t = pa.table({"o_custkey": batch["o_custkey"],
                      "cents": pa.array(c, pa.int64())})
        return t.group_by(["o_custkey"]).aggregate([("cents", "sum")]) \
            .rename_columns(["o_custkey", "cents"])

    spend = hash_repartition_map(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        "o_custkey",
        lambda t: t.group_by(["o_custkey"]).aggregate([("cents", "sum")])
        .rename_columns(["o_custkey", "cents"]))

    def moments(batch: pa.Table) -> pa.Table:
        x = batch["cents"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([float(x.sum())], pa.float64()),
            "sxl": pa.array([float((x * np.log(x)).sum())], pa.float64()),
        })

    n, sx, sxl = 0, 0.0, 0.0
    for row in spend.map_batches(moments, batch_format="pyarrow").take_all():
        n += row["n"]
        sx += row["sx"]
        sxl += row["sxl"]
    theil = (sxl - sx * np.log(sx / n)) / sx
    return pa.table({
        "n_customers": pa.array([n], pa.int64()),
        "theil": pa.array(round_half_away(np.array([theil]), 6)),
    })
