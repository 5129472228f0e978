"""Deduplication operators: exact, keyed first-wins, MinHash+LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup.

The reference deduplicates only exactly — set-dedup of derived triples
(``scripts/owl_inverse_props.py:125``) and order-dependent first-wins
suppression (``scripts/make_texts.py:373-374,512-518``). This module keeps
those semantics (made order-independent: keeper = min id, never arrival
order) and adds the near-dup family a web-scale training-data pipeline needs
(SURVEY.md §2.6 D1/D2).

Scale shapes:
  * exact: fingerprint map-side (md5), shuffle 16-byte digests not documents.
  * shingle Jaccard: inverted index via ``groupby(shingle)`` → pair counts —
    exact but quadratic in hot shingles; ``max_df`` caps them (off for the
    oracle-matched path at test scale).
  * MinHash+LSH / SimHash: constant-size signatures; candidate generation by
    band-bucket groupby — the 10^12-row path.
  * embedding: blocked matmul per group (IVF-style blocking key).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.hashing import md5_hex
from ..functions.text import TOKEN_SPLIT
from ..relational import (broadcast_join, collect_tables, drop_empty_blocks,
                          exchange_join, hash_repartition_map, map_groups,
                          partial_groupby_agg, round_half_away, runs)
from .graph import min_fixpoint, self_labels, state_dataset

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup_groups(ds: rd.Dataset, id_col: str, text_col: str) -> rd.Dataset:
    """Group identical texts by md5 fingerprint: (fp, keeper_id, n_dups).

    keeper = min id (deterministic; the reference's first-wins-by-arrival,
    ``make_texts.py:512-518``, re-specified order-independently).
    """

    def fingerprint(batch: pa.Table) -> pa.Table:
        fp = md5_hex(batch[text_col])
        return pa.table({
            "fp": pa.array(fp, pa.string()),
            id_col: batch[id_col],
        })

    fps = ds.map_batches(fingerprint, batch_format="pyarrow")
    return partial_groupby_agg(
        fps, ["fp"],
        [(id_col, "min", "keeper_id"), (id_col, "count", "n_rows")],
    )


def first_wins(ds: rd.Dataset, keys: list[str], id_col: str) -> rd.Dataset:
    """Keyed first-wins dedup: one keeper row (min id) + group size per key."""
    return partial_groupby_agg(
        ds.select_columns(keys + [id_col]), keys,
        [(id_col, "min", "keeper_id"), (id_col, "count", "group_size")],
    )


# ---------------------------------------------------------------------------
# n-gram (word shingle) Jaccard — exact near-dup
# ---------------------------------------------------------------------------


def _shingle_rows(batch: pa.Table, id_col: str, text_col: str, k: int,
                  with_size: bool = False, as_hash: bool = False) -> pa.Table:
    """Distinct word-k-shingles per row → tall (id, shingle) table.

    ``with_size=True`` appends an ``sz`` column (the doc's distinct-shingle
    count, repeated per row): per-doc set size is computable from the doc
    row alone, so carrying it here lets the dense matmul path skip a whole
    groupby exchange just to recover |A|.

    ``as_hash=True`` replaces the ``shingle`` string column with an ``h``
    uint64 column (DuckDB's vectorized ``hash()`` over the gram array) and
    dedups on the hash: 8 fixed bytes per row in the materialized set
    instead of the gram text, integer group_by instead of string, and the
    downstream df/filter/factorize passes never touch a Python string. A
    64-bit collision can only merge two grams (within-doc: sz off by one;
    cross-doc: one phantom shared shingle) — odds ~(distinct grams)²/2⁶⁵,
    the same accepted class as the ``dd_dup_spans`` gram-hash wire."""
    from ..functions.hashing import hash64_arrow
    from ..functions.text import word_ngrams_batch

    texts = batch[text_col]
    # all k-grams via the shared Arrow kernel (token explode → windowed
    # take → binary_join — no per-row Python), then per-row DISTINCT via
    # one vectorized group_by. Rows with 0 < n_tokens < k emit their whole
    # token join as the single shingle (the original loop's semantics).
    grams, _gcnt, grow = word_ngrams_batch(texts, k)
    toks = pc.split_pattern_regex(
        texts.combine_chunks() if isinstance(texts, pa.ChunkedArray)
        else texts, TOKEN_SPLIT)
    nw = pc.fill_null(pc.list_value_length(toks), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    short = np.flatnonzero((nw > 0) & (nw < k))
    if isinstance(grams, pa.ChunkedArray):
        grams = grams.combine_chunks()
    if len(short):
        joined = pc.binary_join(toks, " ").take(pa.array(short, pa.int64()))
        grams = pa.concat_arrays([grams.cast(pa.string()),
                                  joined.cast(pa.string())])
        grow = np.concatenate([grow, short])
    if as_hash:
        key = pa.array(hash64_arrow(grams), pa.uint64())
        d = pa.table({"rid": pa.array(grow, pa.int64()),
                      "h": key}).group_by(["rid", "h"]).aggregate([])
    else:
        d = pa.table({"rid": pa.array(grow, pa.int64()),
                      "shingle": grams}).group_by(
            ["rid", "shingle"]).aggregate([])
    rid = d["rid"].to_numpy(zero_copy_only=False)
    take_idx = pa.array(rid, pa.int64())
    cols = {id_col: batch[id_col].combine_chunks().take(take_idx)}
    if as_hash:
        cols["h"] = d["h"]
    else:
        cols["shingle"] = d["shingle"]
    if with_size:
        sz = (np.bincount(rid, minlength=len(nw))[rid]
              if len(rid) else np.empty(0, np.int64))
        cols["sz"] = pa.array(sz.astype(np.int32), pa.int32())
    return pa.table(cols)


def shingle_jaccard_pairs(
    ds: rd.Dataset, id_col: str, text_col: str, k: int = 2,
    threshold: float = 0.5, max_df: int | None = None,
    _sh: rd.Dataset | None = None, metric: str = "jaccard",
) -> rd.Dataset:
    """Exact Jaccard over word-k-shingle sets for all pairs sharing a shingle.

    Inverted-index plan: shingle rows → groupby(shingle) emits co-occurring
    id pairs → pair-count groupby = |A∩B| → broadcast set sizes → J =
    inter/(|A|+|B|-inter) ≥ threshold. ``max_df`` drops shingles hotter than
    the cap (scale guard; leaves recall to the LSH path). ``_sh``: optional
    precomputed (id, shingle) Dataset (the matmul fallback hands its
    materialized shingle rows over so they are not recomputed).
    ``metric="overlap"`` switches the score to the overlap coefficient
    (containment of the smaller set: inter/min(|A|,|B|)) — the asymmetric
    near-dup test that catches a document embedded inside a longer one,
    which Jaccard dilutes; same plan, only the final division changes.
    """
    score_col = "containment" if metric == "overlap" else "jaccard"
    sh = _sh if _sh is not None else ds.map_batches(
        lambda b: _shingle_rows(b, id_col, text_col, k), batch_format="pyarrow")
    # per-doc set sizes stay DISTRIBUTED and are attached to the pair rows by
    # two hash joins (round 1 collected a doc_id→size dict to the driver and
    # broadcast it — a driver OOM at corpus-scale doc counts)
    sizes = partial_groupby_agg(sh, [id_col], [("shingle", "count", "sz")])

    def emit_pairs(group: pa.Table) -> pa.Table:
        ids = np.unique(np.asarray(group[id_col].to_pylist()))
        if len(ids) < 2 or (max_df is not None and len(ids) > max_df):
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64())})
        ia, ib = np.triu_indices(len(ids), k=1)
        return pa.table({"id_a": pa.array(ids[ia], pa.int64()),
                         "id_b": pa.array(ids[ib], pa.int64())})

    pairs = map_groups(sh, "shingle", emit_pairs)
    inter = partial_groupby_agg(pairs, ["id_a", "id_b"],
                                [("id_a", "count", "inter")])

    out_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                            (score_col, pa.float64())])
    inter = drop_empty_blocks(inter)
    if inter is None:
        return rd.from_arrow(out_schema.empty_table())
    sz_a = sizes.map_batches(
        lambda b: pa.table({"a_key": b[id_col], "sz_a": b["sz"]}),
        batch_format="pyarrow")
    sz_b = sizes.map_batches(
        lambda b: pa.table({"b_key": b[id_col], "sz_b": b["sz"]}),
        batch_format="pyarrow")

    inter = exchange_join(inter, sz_a, "id_a", "a_key")
    inter = exchange_join(inter, sz_b, "id_b", "b_key")

    def finish(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False)
        b = batch["id_b"].to_numpy(zero_copy_only=False)
        it = batch["inter"].to_numpy(zero_copy_only=False).astype(np.float64)
        sa = batch["sz_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        sb = batch["sz_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        denom = np.minimum(sa, sb) if metric == "overlap" else (sa + sb - it)
        j = it / denom
        keep = j >= threshold
        return pa.table({
            "id_a": pa.array(a[keep], pa.int64()),
            "id_b": pa.array(b[keep], pa.int64()),
            score_col: pa.array(round_half_away(j[keep], 6), pa.float64()),
        }, schema=out_schema)

    return inter.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup (the 10^12-row path)
# ---------------------------------------------------------------------------


def _capped_pair_indices(n: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Within-bucket candidate-pair index arrays, bounded for hot buckets.

    ``n ≤ cap``: all n(n-1)/2 pairs (exhaustive — the normal LSH-collision
    case). ``n > cap`` (a boilerplate-dominated bucket: one template in 1%
    of a crawl makes 100k-member buckets, whose 5×10⁹ all-pairs rows would
    sink one map_groups task): emit the sorted-id CHAIN plus power-of-two
    strides ≤128 — ≤ 8n pairs. Recall impact (documented): direct pair
    coverage inside an oversized bucket is no longer exhaustive, but every
    true duplicate CLUSTER stays connected through the chain (members of a
    hot bucket that are genuinely near-identical verify along consecutive
    ids), which is what the downstream connected-components clustering
    consumes; the estimate/verify stage re-filters false chain edges."""
    if n <= cap:
        return np.triu_indices(n, k=1)
    strides = [1 << k for k in range(min(8, max(1, int(np.ceil(np.log2(n))))))]
    ia = np.concatenate([np.arange(n - s) for s in strides])
    ib = np.concatenate([np.arange(s, n) for s in strides])
    return ia, ib


def _bucket_pairs(tbl: pa.Table, id_col: str, cap: int) -> tuple:
    """The per-range kernel of LSH and SimHash bucket pairing. ``tbl`` holds
    every row of its ``(band, bkey)`` buckets; returns it with one row per
    bucket and id, sorted by bucket then id, and the row indices ``(ia,
    ib)`` of the capped pair set (``_capped_pair_indices``) of each bucket
    with ≥ 2 distinct ids. Almost every bucket is a singleton and dies in
    one vectorized mask; the loop runs per colliding bucket only."""
    tbl, first = runs(tbl, ["band", "bkey", id_col])
    tbl, starts = runs(tbl.take(first), ["band", "bkey"])
    lens = np.diff(np.append(starts, tbl.num_rows))
    hot = lens >= 2
    ia, ib = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for s, n in zip(starts[hot], lens[hot]):
        i, j = _capped_pair_indices(int(n), cap)
        ia.append(s + i)
        ib.append(s + j)
    return tbl, np.concatenate(ia), np.concatenate(ib)


def _fixed_binary_matrix(col, width_bytes: int) -> np.ndarray:
    """View an equal-width binary column as an (n, width/8) uint64 matrix —
    zero-copy off the Arrow values buffer when offsets are contiguous
    (arrays fresh from a join/take are), per-row frombuffer otherwise."""
    arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    n = len(arr)
    if n == 0:
        return np.empty((0, width_bytes // 8), np.uint64)
    offs = np.frombuffer(arr.buffers()[1], np.int32, count=n + 1,
                         offset=arr.offset * 4)
    if offs[-1] - offs[0] == n * width_bytes:
        data = np.frombuffer(arr.buffers()[2], np.uint8,
                             count=n * width_bytes, offset=int(offs[0]))
        return np.ascontiguousarray(
            data.reshape(n, width_bytes)).view(np.uint64)
    return np.stack([np.frombuffer(x, np.uint64) for x in arr.to_pylist()])


def minhash_lsh_pairs(
    ds: rd.Dataset, id_col: str, text_col: str, num_perm: int = 64,
    bands: int = 16, shingle_k: int = 2, threshold: float = 0.5,
    bucket_cap: int = 512, sig_broadcast_limit: int = 500_000,
) -> rd.Dataset:
    """Candidate pairs from LSH band buckets + MinHash-estimated Jaccard.

    shingle → minhash → band → bucket-groupby (SURVEY.md 'Beyond' item).
    With r = num_perm/bands rows per band, collision prob = 1-(1-J^r)^bands.

    Scale bounds (template-heavy web corpora violate the "LSH collisions
    are rare" assumption): buckets above ``bucket_cap`` members emit a
    bounded chain+stride pair subset instead of all-pairs
    (``_capped_pair_indices``), and when the candidate pair rows exceed
    ``sig_broadcast_limit`` the signatures of the ids in them ship through
    the hash exchange (joined to the pairs) instead of a driver ``ray.put``
    broadcast — no driver-memory term grows with the corpus.
    """
    rows = num_perm // bands
    assert bands * rows == num_perm
    # run the input once: the band rows and the survivors' signatures both
    # read it
    ds = ds.select_columns([id_col, text_col]).materialize()

    def _sig_matrix(batch: pa.Table) -> np.ndarray:
        toks = pc.split_pattern_regex(
            batch[text_col].combine_chunks(), TOKEN_SPLIT)
        if shingle_k == 2:
            # zero-string path: dictionary-encode the flat token stream so
            # only UNIQUE tokens are ever hashed as Python objects; shingle
            # hashes are a vectorized fold of consecutive token hashes
            # (measured 170 s → ~8 s signing over a 4.8M-doc corpus)
            import pandas as pd

            from ..functions.hashing import minhash_from_token_hashes

            # null text (a legal clean row: html null + text null) → 0
            # tokens → sentinel signature, same as the string path's None
            counts = pc.fill_null(pc.list_value_length(toks), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            enc = pc.list_flatten(toks).dictionary_encode()
            uniq = np.asarray(enc.dictionary, dtype=object)
            uh = (pd.util.hash_array(uniq, categorize=False)
                  if len(uniq) else np.empty(0, np.uint64))
            tok_hashes = uh[enc.indices.to_numpy(zero_copy_only=False)] \
                if len(uniq) else np.empty(0, np.uint64)
            return minhash_from_token_hashes(tok_hashes, counts, num_perm)
        from ..functions.hashing import minhash_signatures_batch

        shingle_lists = []
        for tl in toks.to_pylist():
            tl = tl or []
            if len(tl) >= shingle_k:
                shingle_lists.append([" ".join(tl[j:j + shingle_k])
                                      for j in range(len(tl) - shingle_k + 1)])
            else:
                shingle_lists.append([" ".join(tl)] if tl else [])
        # batched: one hash_array + segmented min per permutation (no
        # per-document pandas call overhead)
        return minhash_signatures_batch(shingle_lists, num_perm)

    def signer_bands(batch: pa.Table) -> pa.Table:
        """Band-key rows only (no signatures): 20 bytes/row instead of 500+.

        Band keys are a vectorized FNV-1a fold over each band's signature
        values — no per-band hashlib call.
        """
        sigs = _sig_matrix(batch)  # (n, num_perm)
        per_band = sigs.reshape(len(sigs), bands, rows)
        key = np.full((len(sigs), bands), 0xCBF29CE484222325, dtype=np.uint64)
        for r in range(rows):
            key = (key ^ per_band[:, :, r]) * np.uint64(0x100000001B3)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(np.repeat(ids, bands), pa.int64()),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32),
                                     len(sigs)), pa.int32()),
            "bkey": pa.array((key.reshape(-1) >> np.uint64(1)).astype(np.int64),
                             pa.int64()),
        })

    def signer_sigs(batch: pa.Table) -> pa.Table:
        sigs = _sig_matrix(batch)
        return pa.table({
            id_col: batch[id_col],
            "sig": pa.array([s.tobytes() for s in sigs], pa.binary()),
        })

    # bounded batch: the vectorized signer allocates ~6 int64 arrays over
    # the batch's token stream; 16k docs × ~200 tokens ≈ 150 MB per task,
    # safe at full concurrency (whole-block batches of a materialized
    # corpus OOM'd 32 workers)
    band_rows = ds.map_batches(signer_bands, batch_size=16_384,
                               batch_format="pyarrow")
    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])

    def per_range(tbl: pa.Table) -> pa.Table:
        tbl, ia, ib = _bucket_pairs(tbl, id_col, bucket_cap)
        ids = tbl[id_col].to_numpy()
        return pa.table({"id_a": ids[ia], "id_b": ids[ib]},
                        schema=pair_schema)

    # ONE exchange on the bucket key: each range owns every row of its
    # buckets and emits their capped pair sets. Only ids in a pair need a
    # signature; there are at most twice as many as pair rows.
    cand = hash_repartition_map(band_rows, ["band", "bkey"], per_range,
                                schema=pair_schema)
    out_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                            ("est_jaccard", pa.float64())])
    n_pairs = cand.count()
    if n_pairs == 0:
        return rd.from_arrow(out_schema.empty_table())
    surv = cand.map_batches(lambda t: pa.table({id_col: pc.unique(
        pa.concat_arrays([t["id_a"].combine_chunks(),
                          t["id_b"].combine_chunks()]))}),
        batch_format="pyarrow")

    if n_pairs <= sig_broadcast_limit:
        # normal regime: the survivor set is tiny, so the signature
        # matrix rides one driver ray.put broadcast and every pair's
        # agreement is a local fancy-index compare
        id_tbl = pa.table({id_col: pc.unique(collect_tables(
            surv, pa.schema([(id_col, pa.int64())]))[id_col])})
        surv_docs = broadcast_join(ds, id_tbl, id_col, id_col, how="semi")
        sig_tbl = collect_tables(
            surv_docs.map_batches(signer_sigs, batch_format="pyarrow"),
            pa.schema([(id_col, pa.int64()), ("sig", pa.binary())]))
        sid = np.asarray(sig_tbl[id_col].to_pandas())
        S = (np.stack([np.frombuffer(x, dtype=np.uint64)
                       for x in sig_tbl["sig"].to_pylist()])
             if len(sid) else np.empty((0, num_perm), np.uint64))
        order = np.argsort(sid)
        sid, S = sid[order], S[order]
        state_ref = ray.put((sid, S))

        def dedup_and_estimate(tbl: pa.Table) -> pa.Table:
            # all rows of an id_a are co-located: one np.unique dedups the
            # cross-band repeats, then every unique pair's agreement is one
            # fancy-index + compare against the broadcast signature matrix
            a = tbl["id_a"].to_numpy(zero_copy_only=False)
            b = tbl["id_b"].to_numpy(zero_copy_only=False)
            M = np.unique(np.stack([a, b], axis=1), axis=0)
            sids, S_ = ray.get(state_ref)
            ia = np.searchsorted(sids, M[:, 0])
            ib = np.searchsorted(sids, M[:, 1])
            est = (S_[ia] == S_[ib]).mean(axis=1)
            keep = est >= float(threshold)
            return pa.table(
                {"id_a": pa.array(M[keep, 0], pa.int64()),
                 "id_b": pa.array(M[keep, 1], pa.int64()),
                 "est_jaccard": pa.array(est[keep], pa.float64())},
                schema=out_schema)

        return hash_repartition_map(cand, "id_a", dedup_and_estimate,
                                    schema=out_schema)

    # degenerate regime (template-heavy crawl): too many survivors to
    # collect on the driver — signatures stay in the object store and reach
    # each pair through the hash exchange (two equi-joins), so no term
    # grows with the corpus on any single node
    surv_docs = exchange_join(ds, surv, id_col, id_col, how="left_semi")
    sig_ds = surv_docs.map_batches(
        signer_sigs, batch_format="pyarrow").materialize()

    def dedup_only(tbl: pa.Table) -> pa.Table:
        a = tbl["id_a"].to_numpy(zero_copy_only=False)
        b = tbl["id_b"].to_numpy(zero_copy_only=False)
        M = np.unique(np.stack([a, b], axis=1), axis=0)
        return pa.table({"id_a": pa.array(M[:, 0], pa.int64()),
                         "id_b": pa.array(M[:, 1], pa.int64())},
                        schema=pair_schema)

    uniq_pairs = hash_repartition_map(cand, "id_a", dedup_only,
                                      schema=pair_schema)
    sig_a = sig_ds.map_batches(
        lambda t: t.rename_columns(["id_a", "sig_a"]),
        batch_format="pyarrow")
    sig_b = sig_ds.map_batches(
        lambda t: t.rename_columns(["id_b", "sig_b"]),
        batch_format="pyarrow")
    joined = exchange_join(
        exchange_join(uniq_pairs, sig_a, "id_a", "id_a", how="inner"),
        sig_b, "id_b", "id_b", how="inner")

    def estimate_batch(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return out_schema.empty_table()
        A = _fixed_binary_matrix(tbl["sig_a"], num_perm * 8)
        B = _fixed_binary_matrix(tbl["sig_b"], num_perm * 8)
        est = (A == B).mean(axis=1)
        keep = est >= float(threshold)
        m = pa.array(keep)
        return pa.table(
            {"id_a": tbl["id_a"].filter(m),
             "id_b": tbl["id_b"].filter(m),
             "est_jaccard": pa.array(est[keep], pa.float64())},
            schema=out_schema)

    return joined.map_batches(estimate_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------


def simhash_pairs(ds: rd.Dataset, id_col: str, text_col: str,
                  max_hamming: int = 3, bucket_cap: int = 512) -> rd.Dataset:
    """Near-dup pairs by 64-bit SimHash Hamming distance ≤ max_hamming.

    Pigeonhole bucketing: split the 64-bit hash into 4 16-bit bands — any pair
    within Hamming ≤ 3 agrees on ≥ 1 band; exact distance verified per pair.
    Buckets above ``bucket_cap`` members emit the bounded chain+stride pair
    subset (``_capped_pair_indices``) — same boilerplate-bucket contract as
    ``minhash_lsh_pairs``.
    """

    def sign(batch: pa.Table) -> pa.Table:
        # batched signer: dictionary-encode the flat token stream (hash only
        # UNIQUE tokens), one vectorized bit-vote — bitwise equal to the
        # scalar simhash64 per doc (property-tested), no per-doc Python
        import pandas as pd

        from ..functions.hashing import simhash64_batch

        toks = pc.split_pattern_regex(
            batch[text_col].combine_chunks(), TOKEN_SPLIT)
        counts = pc.fill_null(pc.list_value_length(toks), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        enc = pc.list_flatten(toks).dictionary_encode()
        uniq = np.asarray(enc.dictionary, dtype=object)
        th = (pd.util.hash_array(uniq, categorize=False)
              [enc.indices.to_numpy(zero_copy_only=False)]
              if len(uniq) else np.empty(0, np.uint64))
        h = simhash64_batch(th, counts)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        bands = np.tile(np.arange(4, dtype=np.int32), len(h))
        h_rep = np.repeat(h, 4)
        keys = ((h_rep >> (np.uint64(16) * bands.astype(np.uint64)))
                & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table({
            id_col: pa.array(np.repeat(ids, 4), pa.int64()),
            "band": pa.array(bands, pa.int32()),
            "bkey": pa.array(keys, pa.int64()),
            "simhash": pa.array(h_rep, pa.uint64()),
        })

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                             ("hamming", pa.int32())])

    def per_range(tbl: pa.Table) -> pa.Table:
        tbl, ia, ib = _bucket_pairs(tbl, id_col, bucket_cap)
        ids = tbl[id_col].to_numpy()
        hs = tbl["simhash"].to_numpy()
        # vectorized popcount (no per-pair Python bin())
        ham = np.unpackbits((hs[ia] ^ hs[ib]).view(np.uint8).reshape(-1, 8),
                            axis=1).sum(axis=1).astype(np.int32)
        keep = ham <= max_hamming
        return pa.table({"id_a": ids[ia][keep], "id_b": ids[ib][keep],
                         "hamming": ham[keep]}, schema=pair_schema)

    pairs = hash_repartition_map(ds.map_batches(sign, batch_format="pyarrow"),
                                 ["band", "bkey"], per_range,
                                 schema=pair_schema)
    return partial_groupby_agg(pairs, ["id_a", "id_b"],
                               [("hamming", "min", "hamming")])


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (blocked)
# ---------------------------------------------------------------------------


def embedding_cosine_pairs(
    ds: rd.Dataset, id_col: str, vec_col: str, block_col: str,
    threshold: float = 0.9,
) -> rd.Dataset:
    """Pairs within a blocking key whose cosine ≥ threshold (IVF-style).

    Per group: one normalized matmul (numpy) — vectorized, no Python pair
    loop. The blocking key bounds the quadratic term; at 10^12 rows the block
    key would be a coarse-quantizer cell id.
    """

    def pairs_in_block(group: pa.Table) -> pa.Table:
        ids = np.asarray(group[id_col].to_pylist())
        order = np.argsort(ids)
        ids = ids[order]
        mat = np.asarray(group[vec_col].to_pylist(), dtype=np.float64)[order]
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        normed = mat / np.maximum(norms, 1e-12)
        cos = normed @ normed.T
        ia, ib = np.triu_indices(len(ids), k=1)
        keep = cos[ia, ib] >= threshold
        return pa.table({
            "id_a": pa.array(ids[ia][keep], pa.int64()),
            "id_b": pa.array(ids[ib][keep], pa.int64()),
            "cosine": pa.array(round_half_away(cos[ia, ib][keep], 6),
                               pa.float64()),
        })

    return map_groups(ds.select_columns([id_col, vec_col, block_col]),
                      block_col, pairs_in_block)


def semantic_dedup(ds: rd.Dataset, id_col: str = "vec_id",
                   vec_col: str = "embedding", n_cells: int = 8,
                   threshold: float = 0.95, train_sample: int = 2048,
                   seed: int = 13) -> rd.Dataset:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embedding space, then WITHIN
    each cluster drop all but one of every cosine-near-identical group
    (keeper = min id — order-independent, same convention as D1).

    Plan: centroids from a driver-side sample (deterministic seeded
    k-means, the IVF quantizer in ``similarity.train_centroids``) broadcast
    once → per-batch cell assignment (one matmul) → ONE hash exchange on
    the cell id → per-partition, per-cell: normalized matmul adjacency +
    vectorized min-label propagation. The cluster bounds the quadratic
    term exactly as SemDeDup prescribes at scale.

    Returns (id, cluster, keeper) for every input vector; ``keeper == id``
    marks survivors.
    """
    from .similarity import _normalize, train_centroids

    sample_rows = ds.limit(train_sample).to_pandas()
    sample = np.asarray(list(sample_rows[vec_col]), dtype=np.float64)
    cents = train_centroids(sample, n_cells, seed=seed)
    dim = cents.shape[1]
    cref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        C = ray.get(cref)
        arr = batch[vec_col].combine_chunks()
        X = _normalize(np.asarray(arr.values, dtype=np.float64)
                       .reshape(-1, dim))
        cell = np.argmax(X @ C.T, axis=1).astype(np.int64)
        return pa.table({
            "id": batch[id_col].cast(pa.int64()),
            "cluster": pa.array(cell, pa.int64()),
            "vec": pa.array(list(X), pa.list_(pa.float64())),
        })

    assigned = ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pyarrow")

    out_schema = pa.schema([("id", pa.int64()), ("cluster", pa.int64()),
                            ("keeper", pa.int64())])

    def dedup_cells(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "cluster", ["id"])
        ids = tbl["id"].to_numpy(zero_copy_only=False)
        X = np.asarray(tbl["vec"].combine_chunks().values,
                       dtype=np.float64).reshape(len(ids), dim)
        bounds = np.append(starts, len(ids))
        keepers = np.empty(len(ids), dtype=np.int64)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            S = X[lo:hi]
            adj = (S @ S.T) >= threshold        # includes the diagonal
            lab = ids[lo:hi].astype(np.float64)
            while True:
                # min label over neighbors, fully vectorized per cell
                new = np.min(np.where(adj, lab[None, :], np.inf), axis=1)
                if np.array_equal(new, lab):
                    break
                lab = new
            keepers[lo:hi] = lab.astype(np.int64)
        return pa.table({
            "id": ids,
            "cluster": tbl["cluster"],
            "keeper": keepers,
        }, schema=out_schema)

    return hash_repartition_map(assigned, "cluster", dedup_cells,
                                schema=out_schema)


def shingle_jaccard_pairs_matmul(
    ds: rd.Dataset, id_col: str, text_col: str, k: int = 2,
    threshold: float = 0.5, max_dense_cells: int = 500_000_000,
    metric: str = "jaccard",
) -> rd.Dataset:
    """Exact shingle-Jaccard via blocked set-intersection matmul.

    |A∩B| for ALL pairs = S·Sᵀ over the binary doc×shingle matrix S — one
    numpy matmul per doc-block against the broadcast matrix (the
    ann_brute_force pattern), instead of exploding pair rows through a
    shuffle. Identical output to ``shingle_jaccard_pairs``; ~100x faster on
    hot-vocabulary corpora where the inverted index emits O(Σ df²) rows.

    Exact all-pairs is inherently O(n²) — this is the small/medium-corpus
    exact oracle; at 10^12 rows use ``minhash_lsh_pairs`` (sub-quadratic by
    construction). Falls back to the inverted-index plan when the dense
    matrix would exceed ``max_dense_cells`` — and the guard is computed from
    DISTRIBUTED aggregates BEFORE anything is collected to the driver
    (round 1 collected the full (id, shingle) table first, so at the scale
    that needs the fallback the driver would OOM before reaching it).

    The dense matrix carries ONLY shingles with document frequency ≥ 2:
    a df==1 shingle cannot contribute to any intersection, and on web-ish
    corpora singletons are most of the vocabulary — dropping them shrinks
    the matrix (and the guard's cell count) several-fold, which keeps the
    fast dense path live at corpus sizes the full-vocabulary guard would
    needlessly route to the ~10x-slower inverted plan. Set sizes |A| still
    count ALL shingles (carried per-row from the shingling pass), so scores
    are bit-identical to the inverted plan. Docs whose every shingle is a
    singleton drop out of the matrix entirely — they can pair with nobody.
    """
    # the materialized shingle set carries 8-byte gram hashes, never the
    # gram strings (``as_hash`` — the wire/factorize rationale in
    # ``_shingle_rows``): at bench scale this shrank the object-store
    # residency ~4x and removed both per-row ``to_pylist`` hashing passes
    # that previously ran here and in the filter stage.
    # batch_size bundles the reader's blocks up to 8k docs per shingling
    # task: test/bench-scale parquet arrives as dozens of ~100-row blocks
    # whose per-task dispatch dwarfed the kernel (64 tasks for 5k docs);
    # at production block sizes (≥8k rows/block) bundling is a no-op and
    # every block keeps its own task.
    sh = ds.map_batches(
        lambda b: _shingle_rows(b, id_col, text_col, k, with_size=True,
                                as_hash=True),
        batch_size=8192, batch_format="pyarrow").materialize()

    # Everything downstream of the one shingling execution runs as RAW task
    # rounds over the materialized block refs — zero further streaming-
    # executor spins. The df pass and the filter pass were previously their
    # own Dataset executions; with per-block compute in the milliseconds,
    # their walls were ~100% executor fixed cost (~0.3-1 s each, multiples
    # of that in noisy host windows) — the measured bulk of this operator's
    # in-bench wall.
    sh_refs = sh.to_arrow_refs()

    # exact df per shingle HASH (u64): per-block np.unique partials streamed
    # to the driver (ray.wait order) and merged incrementally under a HARD
    # CAP. The cap is sized from max_dense_cells / n_docs — the largest
    # keep-set the dense path could possibly use — so driver memory stays
    # O(cap) no matter the corpus; blowing the cap IS the fallback signal
    # (at that vocabulary the dense path is wrong anyway).
    @ray.remote
    def df_partial(tbl):
        if not isinstance(tbl, pa.Table):
            tbl = pa.Table.from_batches([tbl])
        if tbl.num_rows == 0 or "h" not in tbl.column_names:
            return (np.empty(0, np.uint64), np.empty(0, np.int64))
        u, c = np.unique(tbl["h"].to_numpy(zero_copy_only=False),
                         return_counts=True)
        return (u.astype(np.uint64), c.astype(np.int64))

    n_docs_ub = ds.count()  # parquet metadata / block counts: no extra pass
    cap = max(int(max_dense_cells // max(n_docs_ub, 1)) * 4, 1 << 20)
    acc_h = [np.empty(0, np.uint64)]
    acc_c = [np.empty(0, np.int64)]
    acc_rows, over = 0, False

    def compact() -> tuple[np.ndarray, np.ndarray]:
        allh = np.concatenate(acc_h)
        merged, inv = np.unique(allh, return_inverse=True)
        counts = np.bincount(inv, weights=np.concatenate(acc_c)
                             ).astype(np.int64)
        return merged, counts

    pending = [df_partial.remote(r) for r in sh_refs]
    while pending and not over:
        done, pending = ray.wait(pending, num_returns=1)
        u, c = ray.get(done[0])
        acc_h.append(u)
        acc_c.append(c)
        acc_rows += len(u)
        if acc_rows > 2 * cap:  # bound driver memory between compactions
            mh, mc = compact()
            acc_h, acc_c, acc_rows = [mh], [mc], len(mh)
            if len(mh) > cap:
                over = True
    if over:
        # the hashed set cannot feed the string-keyed inverted plan; the
        # (rare, guard-triggered) fallback re-shingles — one extra pass,
        # paid only at vocabularies where the dense path was wrong anyway
        return shingle_jaccard_pairs(ds, id_col, text_col, k=k,
                                     threshold=threshold, metric=metric)
    mh, mc = compact()
    keep_h = mh[mc >= 2]  # df==1 shingles cannot intersect anything
    n_sh2 = len(keep_h)
    if n_sh2 == 0:
        out_schema = pa.schema([
            ("id_a", pa.int64()), ("id_b", pa.int64()),
            ("containment" if metric == "overlap" else "jaccard",
             pa.float64())])
        return rd.from_arrow(out_schema.empty_table())
    if n_docs_ub * n_sh2 > max_dense_cells or n_docs_ub > 2_000_000:
        # (the doc cap bounds the driver-side factorize below, not the math)
        return shingle_jaccard_pairs(ds, id_col, text_col, k=k,
                                     threshold=threshold, metric=metric)
    # small by the guard: broadcast the df≥2 hash set, filter the shingle
    # blocks DISTRIBUTED (one raw task per block — no executor spin), and
    # collect only the surviving (id, h, sz) rows
    keep_ref = ray.put(keep_h)  # np.unique output: already sorted

    sh_schema = pa.schema([(id_col, pa.int64()), ("h", pa.uint64()),
                           ("sz", pa.int32())])

    @ray.remote
    def filt_block(tbl, keep):
        if not isinstance(tbl, pa.Table):
            tbl = pa.Table.from_batches([tbl])
        if tbl.num_rows == 0 or "h" not in tbl.column_names:
            return sh_schema.empty_table()
        h = tbl["h"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keep, h)
        idx[idx == len(keep)] = 0
        mask = keep[idx] == h if len(keep) else np.zeros(len(h), bool)
        return tbl.filter(pa.array(mask)).select(
            sh_schema.names).cast(sh_schema)

    filtered = ray.get([filt_block.remote(r, keep_ref) for r in sh_refs])
    live = [t for t in filtered if t.num_rows]
    sh_tbl = pa.concat_tables(live) if live else sh_schema.empty_table()

    ids_np = sh_tbl[id_col].to_numpy(zero_copy_only=False)
    _uniq, sh_codes = np.unique(
        sh_tbl["h"].to_numpy(zero_copy_only=False), return_inverse=True)
    doc_ids, doc_codes = np.unique(ids_np, return_inverse=True)
    n_docs, n_sh = len(doc_ids), len(_uniq)

    S = np.zeros((n_docs, n_sh), dtype=np.float32)
    S[doc_codes, sh_codes] = 1.0
    # |A| = FULL distinct-shingle count (incl. dropped singletons), carried
    # per row by the shingling pass; any row of a doc has it
    sizes = np.zeros(n_docs, dtype=np.float64)
    sizes[doc_codes] = sh_tbl["sz"].to_numpy(zero_copy_only=False)

    def pairs_for(S_, sizes_, ids_, lo, hi):
        # pairs need id_a < id_b by sorted position, so only multiply
        # against columns ≥ lo — halves total FLOPs across blocks
        inter = S_[lo:hi] @ S_[lo:].T  # (block, n_docs - lo)
        if metric == "overlap":
            denom = np.minimum(sizes_[lo:hi, None], sizes_[None, lo:])
        else:
            denom = sizes_[lo:hi, None] + sizes_[None, lo:] - inter
        jac = inter / np.maximum(denom, 1.0)
        rows, cols = np.nonzero(jac >= threshold)
        keep = rows < cols  # both relative to lo
        rows, cols = rows[keep], cols[keep]
        return (ids_[rows + lo], ids_[cols + lo],
                round_half_away(jac[rows, cols].astype(np.float64), 6))

    def to_table(parts) -> pa.Table:
        a = np.concatenate([p[0] for p in parts]) if parts else []
        b = np.concatenate([p[1] for p in parts]) if parts else []
        j = np.concatenate([p[2] for p in parts]) if parts else []
        return pa.table({
            "id_a": pa.array(a, pa.int64()),
            "id_b": pa.array(b, pa.int64()),
            ("containment" if metric == "overlap" else "jaccard"):
                pa.array(j, pa.float64()),
        })

    # tiny dense problems run ON THE DRIVER; bigger ones fan out as RAW
    # tasks against one ray.put of the matrix (no streaming-executor spin
    # — with per-block BLAS in the 100s of ms, the executor's fixed cost
    # was the larger term). The cutoff (~4e9 FLOPs ≈ 0.2 s of driver BLAS
    # on a slow host) keeps only genuinely trivial problems local.
    flops = float(n_docs) * n_docs * n_sh  # triangular ≈ half this
    if flops <= 4e9:
        parts = [pairs_for(S, sizes, doc_ids, lo, min(lo + 1024, n_docs))
                 for lo in range(0, n_docs, 1024)]
        return rd.from_arrow(to_table(parts))

    mat_ref = ray.put((S, sizes, doc_ids))

    @ray.remote
    def block_pairs(mat, lo: int, hi: int):
        S_, sizes_, ids_ = mat
        return pairs_for(S_, sizes_, ids_, lo, hi)

    parts = ray.get([block_pairs.remote(mat_ref, lo,
                                        min(lo + 1024, n_docs))
                     for lo in range(0, n_docs, 1024)])
    return rd.from_arrow(to_table(parts))


# ---------------------------------------------------------------------------
# Bloom-prescreened incremental membership (new batch vs committed corpus)
# ---------------------------------------------------------------------------


def bloom_incremental_members(
    committed: rd.Dataset, incoming: rd.Dataset, key_cols: list[str],
    capacity: int = 1 << 17, fp_rate: float = 0.01,
    exact_broadcast_max: int = 2_000_000,
) -> rd.Dataset:
    """Incoming rows whose key already EXISTS in the committed corpus — the
    one-sided membership shape an incremental ingest needs (today's batch vs
    yesterday's 10^12-key corpus), exact despite the sketch.

    Plan: (1) per-batch partial Bloom filters over the committed keys, merged
    by OR on the driver (mergeable sketch, A6); (2) the merged filter is
    broadcast ONCE and pre-screens the incoming stream — Bloom has ZERO false
    negatives, so dropped rows are exactly right, and only the tiny
    Bloom-positive candidate set (true members + ~fp_rate of the rest)
    reaches (3) the exact verify, a hash semi-join against the committed
    keys. The pre-screen cuts the shuffle volume of step (3) by ~1/fp_rate
    for mostly-new batches. Reference analog: membership sets probed with
    continue-on-miss (``curation/check_authors_exist_in_listperson.py:12-25``).

    Size ``capacity`` to the committed key cardinality; at 10^12 keys shard
    the filter by key-hash range instead of growing one array.
    """
    from ..sketches import BloomFilter

    def with_key(batch: pa.Table) -> pa.Table:
        parts = [batch[c].cast(pa.string()) for c in key_cols]
        key = (parts[0] if len(parts) == 1
               else pc.binary_join_element_wise(*parts, "|"))
        return batch.append_column("__key", key)

    # committed side materialized once: the bloom-partial and key passes
    # both consume it (in-memory blocks, not parquet re-reads)
    committed_k = committed.map_batches(
        with_key, batch_format="pyarrow").materialize()
    incoming_k = incoming.map_batches(with_key, batch_format="pyarrow")

    def bloom_partial(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["__key"].to_pylist(), dtype=object)
        bf = BloomFilter(capacity, fp_rate)
        bf.add_strings(keys)
        return pa.table({
            "blob": pa.array([bf.to_bytes()], pa.binary()),
            # per-batch distinct count: the sum over batches bounds the
            # global distinct from above - decides broadcast-vs-join
            "n_distinct": pa.array([len(set(keys))], pa.int64()),
        })

    blobs = committed_k.map_batches(
        bloom_partial, batch_format="pyarrow").take_all()
    bf = BloomFilter(capacity, fp_rate)
    n_upper = 0
    for row in blobs:
        bf = bf.merge(BloomFilter.from_bytes(row["blob"]))
        n_upper += row["n_distinct"]
    bf_ref = ray.put(bf.to_bytes())
    out_schema = pa.schema(list(incoming.schema().base_schema))

    if n_upper <= exact_broadcast_max:
        # small committed key set: broadcast it and fuse Bloom pre-screen +
        # exact verify into ONE map stage (no shuffle join, no extra
        # executions - each costs a ~1.5 s executor floor)

        keys_tbl = collect_tables(
            committed_k.map_batches(
                lambda b: pa.table(
                    {"__key": pc.unique(b["__key"].combine_chunks())}),
                batch_format="pyarrow"),
            pa.schema([("__key", pa.string())]))
        exact_ref = ray.put(pc.unique(keys_tbl["__key"].combine_chunks()))

        def screen_verify(batch: pa.Table) -> pa.Table:
            filt = _BLOOM_CACHE.get(bf_ref.hex())
            if filt is None:
                filt = BloomFilter.from_bytes(ray.get(bf_ref))
                _BLOOM_CACHE[bf_ref.hex()] = filt
            mask = filt.contains_strings(
                np.asarray(batch["__key"].to_pylist(), dtype=object))
            cand = batch.filter(pa.array(mask))
            keep = pc.is_in(cand["__key"], value_set=ray.get(exact_ref))
            return cand.filter(keep).drop_columns(["__key"])

        return incoming_k.map_batches(screen_verify, batch_format="pyarrow")

    def screen(batch: pa.Table) -> pa.Table:
        filt = _BLOOM_CACHE.get(bf_ref.hex())
        if filt is None:
            filt = BloomFilter.from_bytes(ray.get(bf_ref))
            _BLOOM_CACHE[bf_ref.hex()] = filt
        mask = filt.contains_strings(
            np.asarray(batch["__key"].to_pylist(), dtype=object))
        return batch.filter(pa.array(mask))

    candidates = drop_empty_blocks(
        incoming_k.map_batches(screen, batch_format="pyarrow"))
    committed_keys = drop_empty_blocks(committed_k.map_batches(
        lambda b: pa.table({"__ckey": pc.unique(b["__key"].combine_chunks())}),
        batch_format="pyarrow"))
    if candidates is None or committed_keys is None:
        return rd.from_arrow(out_schema.empty_table())

    verified = exchange_join(candidates, committed_keys, "__key", "__ckey",
                             how="left_semi")
    return verified.drop_columns(["__key"])


_BLOOM_CACHE: dict = {}


# ---------------------------------------------------------------------------
# near-dup clustering: connected components over candidate pairs
# ---------------------------------------------------------------------------


def connected_components(pairs: rd.Dataset,
                         driver_max_edges: int = 2_000_000) -> rd.Dataset:
    """Cluster ids from near-dup pairs: (node, cluster) with cluster = min
    node id reachable — min-label propagation.

    Candidate-pair graphs are SMALL by construction (LSH collisions), so up
    to ``driver_max_edges`` the propagation runs driver-side in pure numpy:
    every edge proposes min(label_a, label_b) to both endpoints, then
    pointer jumping halves the chain depth. It loops until no label
    changes; labels are indices that only fall, so it terminates.

    Bigger graphs run distributed on ``graph.min_fixpoint`` with int64
    ids: the edges are oriented both ways once, every endpoint labels
    itself, and each round is one probe task per edge block and one merge
    task per hash range, until no label falls (rounds = cluster
    diameter + 1, no round limit).
    """
    edges = pairs.map_batches(
        lambda b: pa.table({"a": b["id_a"].cast(pa.int64()),
                            "b": b["id_b"].cast(pa.int64())}),
        batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        # empty graph → empty labelling (an empty Dataset loses its schema
        # through groupby, so return an explicit empty table)
        return rd.from_arrow(pa.schema(
            [("node", pa.int64()), ("cluster", pa.int64())]).empty_table())

    if n_edges <= driver_max_edges:
        pdf = edges.to_pandas()
        a = pdf["a"].to_numpy(dtype=np.int64)
        b = pdf["b"].to_numpy(dtype=np.int64)
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        ia, ib = inv[:len(a)], inv[len(a):]
        lbl = np.arange(len(nodes), dtype=np.int64)
        while True:
            new = lbl.copy()
            m = np.minimum(lbl[ia], lbl[ib])
            np.minimum.at(new, ia, m)
            np.minimum.at(new, ib, m)
            new = new[new]  # pointer jumping halves chain depth per round
            if (new == lbl).all():
                break
            lbl = new
        # nodes are sorted ascending → min label index = min reachable id
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes, pa.int64()),
            "cluster": pa.array(nodes[lbl], pa.int64()),
        }))

    both = edges.map_batches(
        lambda t: pa.table({
            "a": pa.concat_arrays([t["a"].combine_chunks(),
                                   t["b"].combine_chunks()]),
            "b": pa.concat_arrays([t["b"].combine_chunks(),
                                   t["a"].combine_chunks()])}),
        batch_format="pyarrow").materialize()
    seed, _ = self_labels(both, ["a"])
    labels = min_fixpoint(both.to_arrow_refs(), seed, 0,
                          "dedup.connected_components")
    return state_dataset(labels, pa.schema([("node", pa.int64()),
                                            ("cluster", pa.int64())]))


# ---------------------------------------------------------------------------
# paragraph/line-level exact dedup (C4-style)
# ---------------------------------------------------------------------------


def paragraph_dedup(ds: rd.Dataset, id_col: str, text_col: str,
                    chunk_tokens: int = 10) -> rd.Dataset:
    """C4-style line-level exact dedup, on fixed ``chunk_tokens``-token
    pseudo-paragraphs (the corpus has no newlines; the semantics — explode
    → global first-wins on content → reassemble in order — are exactly the
    C4 three-sentence-span / line dedup).

    Per document: split into consecutive ``chunk_tokens``-token chunks; a
    chunk is kept iff it is the corpus-globally FIRST occurrence of its
    content, ordered by (doc id, chunk index). Returns one row per document:
    (id, n_chunks, n_kept, text_deduped) with the kept chunks re-joined in
    order (NULL when every chunk was a duplicate).

    Scale shape: two hash exchanges and zero per-group Python. Explode is
    pure Arrow (offsets arithmetic over the token list's flat buffer +
    ``binary_join``); first-wins is sort-within-partition + a neighbor
    compare after co-locating equal chunks by content hash; reassembly is
    a second exchange on doc id + segmented reduceat / list re-join.
    Chunk text crosses the wire once (unavoidable: the keeper must win by
    global order, and the output needs the text back).
    """
    C = chunk_tokens
    lines_schema = pa.schema([(id_col, pa.int64()), ("ci", pa.int64()),
                              ("chunk", pa.string())])

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return lines_schema.empty_table()
        toks = pc.split_pattern(
            pc.fill_null(batch[text_col], ""), " ").combine_chunks()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offs)
        n_chunks = -(-counts // C)          # ceil; '' splits to 1 token
        total = int(n_chunks.sum())
        doc_rep = np.repeat(np.arange(len(ids)), n_chunks)
        ci = np.arange(total) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks)
        starts = offs[doc_rep] + ci * C
        bounds = np.append(starts, offs[-1]).astype(np.int32)
        chunk = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(bounds, pa.int32()),
                                     toks.values), " ")
        return pa.table({id_col: pa.array(ids[doc_rep], pa.int64()),
                         "ci": pa.array(ci + 1, pa.int64()),
                         "chunk": chunk}, schema=lines_schema)

    lines = ds.map_batches(explode, batch_format="pyarrow")

    marked_schema = lines_schema.append(pa.field("keep", pa.bool_()))

    def mark_first(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, "chunk", [id_col, "ci"])
        keep = np.zeros(tbl.num_rows, bool)
        keep[starts] = True
        return tbl.append_column("keep", pa.array(keep))

    marked = hash_repartition_map(lines, "chunk", mark_first,
                                  schema=marked_schema)

    out_schema = pa.schema([(id_col, pa.int64()), ("n_chunks", pa.int64()),
                            ("n_kept", pa.int64()),
                            ("text_deduped", pa.string())])

    def assemble(tbl: pa.Table) -> pa.Table:
        tbl, starts = runs(tbl, id_col, ["ci"])
        keep = tbl["keep"].to_numpy(zero_copy_only=False)
        n_chunks = np.diff(np.append(starts, tbl.num_rows))
        n_kept = np.add.reduceat(keep.astype(np.int64), starts)
        kept_tbl = tbl.filter(pa.array(keep))
        kept_chunks = kept_tbl["chunk"].combine_chunks()
        if len(kept_chunks) == 0:
            kept_chunks = pa.array([], pa.string())
        offs2 = np.concatenate([[0], np.cumsum(n_kept)]).astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offs2, pa.int32()),
                                     kept_chunks), " ")
        text_dd = pc.if_else(pa.array(n_kept > 0), joined,
                             pa.scalar(None, pa.string()))
        return pa.table({id_col: tbl[id_col].take(starts),
                         "n_chunks": pa.array(n_chunks, pa.int64()),
                         "n_kept": pa.array(n_kept, pa.int64()),
                         "text_deduped": text_dd}, schema=out_schema)

    return hash_repartition_map(marked, id_col, assemble, schema=out_schema)


# ---------------------------------------------------------------------------
# content-defined chunking (Rabin/Gear CDC) — storage-level dedup analysis
# ---------------------------------------------------------------------------

CDC_MASK = 63      # boundary when W ≡ 0 (mod 64): ~64-byte expected chunks
CDC_WINDOW = 6     # gear window; W_j = Σ_{k=0..5} gear(b_{j-k})·2^k


def _gear(b: np.ndarray) -> np.ndarray:
    """Engine-neutral gear function: (b·2654435761 + 2654435769) mod 2^32
    — a FORMULA rather than a random table so any engine (and the SQL
    oracle) reproduces it; the Knuth multiplicative constant gives the
    bit diffusion a gear table provides."""
    return (b.astype(np.uint64) * np.uint64(2654435761)
            + np.uint64(2654435769)) % np.uint64(1 << 32)


def cdc_chunks(batch: pa.Table, id_col: str = "doc_id",
               text_col: str = "text") -> pa.Table:
    """Content-defined chunking of each document (the Rabin-fingerprint /
    Gear-hash boundary rule of LBFS/FastCDC, minus the min/max clamps —
    those are production knobs that break windowed reproducibility):
    cut AFTER byte j when the gear-window value
    W_j = Σ_{k=0..5} gear(b_{j−k})·2^k ≡ 0 (mod 64) and the window lies
    fully inside the document. Identical content produces identical
    chunks REGARDLESS of position — the property rsync/backup dedup and
    incremental-crawl storage rely on, which fixed-size blocks lack.

    Fully vectorized AND zero-copy: W comes from six shifted adds over
    the batch's flat utf-8 buffer; the chunk substrings are a new Arrow
    ``large_string`` array built from computed offsets over the SAME
    data buffer — chunk bytes are never copied. Returns
    (doc_id, chunk_idx, chunk) rows. ASCII fixture ⇒ bytes == chars so
    the SQL oracle can mirror with substr/ascii; the byte rule is the
    real (any-encoding) semantics."""
    t = batch.filter(pc.is_valid(batch[text_col]))
    ids = t[id_col].to_numpy(zero_copy_only=False)
    s = t[text_col].combine_chunks()
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    n = len(s)
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "chunk_idx": pa.array([], pa.int64()),
                      "chunk": pa.array([], pa.large_string())})
    if n == 0:
        return empty
    odtype = (np.int64 if pa.types.is_large_string(s.type) else np.int32)
    offs = np.frombuffer(s.buffers()[1], dtype=odtype)[
        s.offset:s.offset + n + 1].astype(np.int64)
    data = np.frombuffer(s.buffers()[2], dtype=np.uint8)
    if offs[-1] == offs[0]:
        return empty
    g = _gear(data)
    W = g.copy()
    for k in range(1, CDC_WINDOW):
        W[k:] += g[:-k] << np.uint64(k)
    W &= np.uint64(CDC_MASK)
    # byte j is a cut iff W_j == 0, the 6-byte window is inside the doc,
    # and j is not the doc's last byte (a cut there is a no-op)
    base = offs[0]
    doc_of = np.repeat(np.arange(n), offs[1:] - offs[:-1])  # relative
    jr = np.flatnonzero(W[base:offs[-1]] == 0)              # relative
    dstart = offs[doc_of[jr]] - base
    dend = offs[doc_of[jr] + 1] - base
    ok = (jr - (CDC_WINDOW - 1) >= dstart) & (jr + 1 < dend)
    cut_offs = jr[ok] + 1 + base                            # absolute
    starts = np.sort(np.concatenate([offs[:-1], cut_offs]))
    bounds = np.append(starts, offs[-1])
    lens = np.diff(bounds)
    keep = lens > 0  # empty docs contribute a zero-length pseudo-chunk
    chunk_doc = np.searchsorted(offs, starts, side="right") - 1
    chunk_doc, bounds_lo = chunk_doc[keep], starts[keep]
    new_offs = np.append(bounds_lo, offs[-1]).astype(np.int64)
    # zero-copy: new offsets over the ORIGINAL data buffer
    chunk_arr = pa.Array.from_buffers(
        pa.large_string(), len(chunk_doc),
        [None, pa.py_buffer(new_offs), s.buffers()[2]])
    _, fstarts = runs(pa.table({"d": chunk_doc}), "d")
    cidx = np.arange(len(chunk_doc)) - np.repeat(
        fstarts, np.diff(np.append(fstarts, len(chunk_doc))))
    return pa.table({
        id_col: pa.array(ids[chunk_doc], pa.int64()),
        "chunk_idx": pa.array(cidx, pa.int64()),
        "chunk": chunk_arr})
