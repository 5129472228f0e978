"""Iterative graph algorithms over edge Datasets — PageRank.

The reference derives inverse edges and deduplicates them
(``scripts/owl_inverse_props.py:68-134``) but never iterates; PageRank is
the canonical iterative extension of that edge model (power iteration over
the link graph — the web-corpus ranking signal a curation pipeline feeds).

Simplified (dangling mass dropped) power iteration:
    r_{t+1}(v) = (1-d)/N + d * Σ_{u→v} r_t(u) / outdeg(u)

Three execution shapes, chosen by graph size:
  * ``local`` — the EDGE set fits the driver: collect once,
    dictionary-encode nodes, power-iterate with np.bincount.  Avoids the
    per-iteration streaming-executor floor entirely.
  * ``broadcast`` — ranks fit in one table: per iteration ONE streaming
    pass over the (materialized) edge set with the rank/outdeg map
    broadcast via the closure; contributions reduced map-side
    (partial_groupby_agg). This is the right call whenever the NODE table
    fits a worker (edges may be arbitrarily large).
  * ``shuffle`` — ranks as a Dataset: per iteration a hash join
    edges ⋈ ranks on src + a grouped sum on dst. The 10^10-node path;
    same numbers (property-tested equal to broadcast).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..relational import (broadcast_join, default_p_bits, drop_empty_blocks,
                          exchange_join, hash_repartition_map, hash_split,
                          partial_groupby_agg, round_half_away, runs,
                          skew_join, topk)


def pagerank(edges: rd.Dataset, src_col: str, dst_col: str,
             damping: float = 0.85, iters: int = 5,
             mode: str = "auto", broadcast_max_nodes: int = 5_000_000,
             local_max_edges: int = 5_000_000,
             round_digits: int = 6,
             weight_col: str | None = None,
             personalize: "list[str] | None" = None) -> pa.Table:
    """Returns (node, rank) for every node in src ∪ dst, ranks rounded.

    ``weight_col``: optional per-edge weight (e.g. host-graph link
    multiplicity) — the update becomes
    r(v) = (1−d)/N + d·Σ_{u→v} w(u,v)/W(u)·r(u) with W(u) the out-
    STRENGTH; unweighted is the w=1 special case of the same code path
    (all three modes; property-tested equal).

    ``personalize``: optional seed node list — Personalized PageRank
    (random walk with restart INTO the seed set): the restart vector p
    is uniform over the seeds, r₀ = p and
    r(v) = (1−d)·p(v) + d·Σ w/W·r(u). Seed-relative importance, the
    crawl-frontier prioritization signal."""
    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    edges = edges.select_columns(cols).materialize()

    # Tiny graphs (edge set fits the driver): every extra Dataset execution
    # costs a ~1s streaming-executor floor, so 5 iterations × 2 executions
    # dominates wall time.  Collect the edge list ONCE, dictionary-encode
    # nodes to int32, and power-iterate with np.bincount — identical numbers
    # (property-tested against broadcast/shuffle in tests/test_graph.py).
    if mode == "auto" and edges.count() <= local_max_edges:
        mode = "local"
    if mode == "local":
        et = pa.concat_tables(
            edges.iter_batches(batch_format="pyarrow", batch_size=None))
        n_edges = et.num_rows
        combined = pa.chunked_array(
            [et[src_col].combine_chunks(), et[dst_col].combine_chunks()])
        denc = combined.combine_chunks().dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False)
        node_arr = denc.dictionary
        n = len(node_arr)
        si, di = codes[:n_edges], codes[n_edges:]
        w_e = (et[weight_col].to_numpy(zero_copy_only=False)
               .astype(np.float64) if weight_col
               else np.ones(n_edges, np.float64))
        outdeg = np.bincount(si, weights=w_e, minlength=n)  # out-strength
        if personalize is None:
            pvec = np.full(n, 1.0 / n)
        else:
            import pandas as pd
            pvec = np.zeros(n, np.float64)
            pos = pd.Index(node_arr.to_pandas()).get_indexer(personalize)
            pvec[pos[pos >= 0]] = 1.0 / len(personalize)
        base_vec = (1.0 - damping) * pvec
        r = pvec.copy()
        for _ in range(iters):
            contrib = np.bincount(di, weights=r[si] * w_e / outdeg[si],
                                  minlength=n)
            r = base_vec + damping * contrib
        return pa.table({
            "node": pa.array(node_arr, node_arr.type),
            "rank": pa.array(round_half_away(r, round_digits),
                             pa.float64()),
        })

    # node set + out-degrees (map-side partials; the shuffle moves one row
    # per (node, batch))
    srcs = edges.select_columns([src_col]).map_batches(
        lambda b: pa.table({"node": b[src_col]}), batch_format="pyarrow")
    dsts = edges.select_columns([dst_col]).map_batches(
        lambda b: pa.table({"node": b[dst_col]}), batch_format="pyarrow")
    nodes_ds = partial_groupby_agg(
        srcs.union(dsts).map_batches(
            lambda b: b.append_column("one", pa.array(
                np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        ["node"], [("one", "count", "c")])
    def _src_weight(b: pa.Table) -> pa.Table:
        w = (b[weight_col].cast(pa.float64()) if weight_col
             else pa.array(np.ones(b.num_rows, np.float64)))
        return pa.table({"node": b[src_col], "w": w})

    outdeg_ds = partial_groupby_agg(  # out-STRENGTH when weighted
        edges.map_batches(_src_weight, batch_format="pyarrow"),
        ["node"], [("w", "sum", "od")])

    nodes = pa.concat_tables(
        list(nodes_ds.select_columns(["node"])
             .iter_batches(batch_format="pyarrow", batch_size=None)))
    n_nodes = nodes.num_rows
    if mode == "auto":
        mode = "broadcast" if n_nodes <= broadcast_max_nodes else "shuffle"
    base = (1.0 - damping) / n_nodes

    if mode == "broadcast":
        import pandas as pd

        od_tbl = pa.concat_tables(
            [bt for bt in outdeg_ds.iter_batches(batch_format="pyarrow",
                                                 batch_size=None)])
        # factorize node ids ONCE: a pandas Index gives C-level hash-probe
        # lookups (get_indexer) for any key dtype; ranks/outdeg live as
        # numpy arrays aligned to it — no per-iteration Python dict rebuild
        node_idx = pd.Index(nodes["node"].to_pandas())
        od_arr = np.zeros(n_nodes, np.float64)
        od_arr[node_idx.get_indexer(od_tbl["node"].to_pandas())] = \
            od_tbl["od"].to_numpy(zero_copy_only=False)
        inv_od = np.divide(1.0, od_arr, out=np.zeros_like(od_arr),
                           where=od_arr > 0)
        if personalize is None:
            pvec = np.full(n_nodes, 1.0 / n_nodes)
        else:
            pvec = np.zeros(n_nodes, np.float64)
            spos = node_idx.get_indexer(personalize)
            pvec[spos[spos >= 0]] = 1.0 / len(personalize)
        base_vec = (1.0 - damping) * pvec
        ranks = pvec.copy()
        for _ in range(iters):
            w = ranks * inv_od  # src weight array, aligned to node_idx

            def contribs(batch: pa.Table, node_idx=node_idx,
                         w=w) -> pa.Table:
                si = node_idx.get_indexer(batch[src_col].to_pandas())
                c = w[si]
                if weight_col:
                    c = c * batch[weight_col].to_numpy(
                        zero_copy_only=False).astype(np.float64)
                return pa.table({"node": batch[dst_col],
                                 "c": pa.array(c, pa.float64())})

            agg = partial_groupby_agg(
                edges.map_batches(contribs, batch_format="pyarrow"),
                ["node"], [("c", "sum", "c")])
            bts = [bt for bt in agg.iter_batches(batch_format="pyarrow",
                                                 batch_size=None)
                   if bt.num_rows]
            ranks = base_vec.copy()
            if bts:
                sums_tbl = pa.concat_tables(bts)
                pos = node_idx.get_indexer(sums_tbl["node"].to_pandas())
                ranks[pos] += damping * sums_tbl["c"].to_numpy(
                    zero_copy_only=False)
        return pa.table({
            "node": nodes["node"],
            "rank": pa.array(round_half_away(ranks, round_digits),
                             pa.float64()),
        })

    # ---- shuffle path: ranks stay a Dataset ------------------------------
    seed_arr = (pa.array(sorted(personalize), pa.string())
                if personalize is not None else None)
    seed_mass = (1.0 / len(personalize)) if personalize else 0.0

    def _p_of(col) -> pa.Array:
        if seed_arr is None:
            return pa.array(np.full(len(col), 1.0 / n_nodes), pa.float64())
        isin = pc.is_in(col, value_set=seed_arr)
        return pc.if_else(isin, pa.scalar(seed_mass), pa.scalar(0.0))

    ranks_ds = nodes_ds.map_batches(
        lambda b: pa.table({"rnode": b["node"], "r": _p_of(b["node"])}),
        batch_format="pyarrow")

    ew = exchange_join(edges, outdeg_ds.map_batches(
        lambda b: pa.table({"onode": b["node"], "od": b["od"]}),
        batch_format="pyarrow"), src_col, "onode").materialize()
    for _ in range(iters):
        j = exchange_join(ew, ranks_ds, src_col, "rnode")

        def contrib(batch: pa.Table) -> pa.Table:
            c = (batch["r"].to_numpy(zero_copy_only=False)
                 / batch["od"].to_numpy(zero_copy_only=False))
            if weight_col:
                c = c * batch[weight_col].to_numpy(
                    zero_copy_only=False).astype(np.float64)
            return pa.table({"node": batch[dst_col],
                             "c": pa.array(c, pa.float64())})

        # empty (schema-less) blocks crash the hash-join partitioner — the
        # drop_empty_blocks guard from relational.py applies to every
        # derived side here (tiny graphs produce many empty blocks)
        sums = drop_empty_blocks(partial_groupby_agg(
            j.map_batches(contrib, batch_format="pyarrow"),
            ["node"], [("c", "sum", "c")]))

        def new_rank(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            c = pc.fill_null(batch["c"], 0.0)
            b0 = pc.multiply(_p_of(batch["node"]),
                             pa.scalar(1.0 - damping))
            r = pc.add(b0, pc.multiply(pa.scalar(damping), c))
            return pa.table({"rnode": batch["node"], "r": r})

        if sums is None:  # no in-edges anywhere: every rank is the base
            ranks_ds = nodes_ds.select_columns(["node"]).map_batches(
                lambda b: pa.table({
                    "rnode": b["node"],
                    "r": pc.multiply(_p_of(b["node"]),
                                     pa.scalar(1.0 - damping))}),
                batch_format="pyarrow").materialize()
            continue
        joined = exchange_join(
            nodes_ds.select_columns(["node"]),
            sums.map_batches(lambda b: pa.table({"snode": b["node"],
                                                 "c": b["c"]}),
                             batch_format="pyarrow"),
            "node", "snode", how="left_outer")
        ranks_ds = joined.map_batches(new_rank,
                                      batch_format="pyarrow").materialize()

    out_tbl = pa.concat_tables(
        [bt for bt in ranks_ds.iter_batches(batch_format="pyarrow",
                                            batch_size=None)])
    return pa.table({
        "node": out_tbl["rnode"],
        "rank": pa.array(round_half_away(
            out_tbl["r"].to_numpy(zero_copy_only=False), round_digits),
            pa.float64()),
    })


def hits(edges: rd.Dataset, src_col: str, dst_col: str, iters: int = 5,
         mode: str = "auto", local_max_edges: int = 5_000_000,
         round_digits: int = 6) -> pa.Table:
    """HITS hubs & authorities (Kleinberg 1999) — PageRank's bipartite
    sibling and the other classic web-graph ranking signal: per
    iteration ``a = Aᵀh`` then ``h = A·a``, each L2-normalized. Returns
    (node, hub, auth) for every node, rounded.

    Same two execution shapes as ``pagerank``: ``local`` collects the
    edge list once and iterates with np.bincount; ``broadcast`` keeps
    the score vectors driver-side (node table fits a worker) and runs
    per iteration TWO streaming passes over the edge Dataset — one per
    direction — with map-side-combined partial sums. Property-tested
    equal (tests/test_graph.py); the shuffle generalization would
    mirror pagerank's rank-Dataset joins edge-for-edge."""
    edges = edges.select_columns([src_col, dst_col]).materialize()

    def iterate(si, di, n, n_local_iters):
        h = np.ones(n, np.float64)
        a = np.zeros(n, np.float64)
        for _ in range(n_local_iters):
            a = np.bincount(di, weights=h[si], minlength=n)
            norm = np.sqrt((a * a).sum())
            a = a / (norm or 1.0)
            h = np.bincount(si, weights=a[di], minlength=n)
            norm = np.sqrt((h * h).sum())
            h = h / (norm or 1.0)
        return h, a

    if mode == "auto":
        mode = "local" if edges.count() <= local_max_edges else "broadcast"
    if mode == "local":
        et = pa.concat_tables(
            edges.iter_batches(batch_format="pyarrow", batch_size=None))
        n_edges = et.num_rows
        combined = pa.chunked_array(
            [et[src_col].combine_chunks(), et[dst_col].combine_chunks()])
        denc = combined.combine_chunks().dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False)
        node_arr = denc.dictionary
        n = len(node_arr)
        h, a = iterate(codes[:n_edges], codes[n_edges:], n, iters)
        return pa.table({
            "node": pa.array(node_arr, node_arr.type),
            "hub": pa.array(round_half_away(h, round_digits), pa.float64()),
            "auth": pa.array(round_half_away(a, round_digits), pa.float64()),
        })

    # broadcast path: node index driver-side, two passes per iteration
    import pandas as pd

    srcs = edges.map_batches(
        lambda b: pa.table({"node": b[src_col]}), batch_format="pyarrow")
    dsts = edges.map_batches(
        lambda b: pa.table({"node": b[dst_col]}), batch_format="pyarrow")
    nodes_ds = partial_groupby_agg(
        srcs.union(dsts).map_batches(
            lambda b: b.append_column("one", pa.array(
                np.ones(b.num_rows, dtype=np.int64))),
            batch_format="pyarrow"),
        ["node"], [("one", "count", "c")])
    nodes = pa.concat_tables(
        list(nodes_ds.select_columns(["node"])
             .iter_batches(batch_format="pyarrow", batch_size=None)))
    node_idx = pd.Index(nodes["node"].to_pandas())
    n = len(node_idx)
    h = np.ones(n, np.float64)
    a = np.zeros(n, np.float64)

    def one_pass(w, key_col, val_col):
        # Σ over edges of w[key] grouped by val — one streaming pass
        def contribs(batch: pa.Table, w=w) -> pa.Table:
            ki = node_idx.get_indexer(batch[key_col].to_pandas())
            return pa.table({"node": batch[val_col],
                             "c": pa.array(w[ki], pa.float64())})

        agg = partial_groupby_agg(
            edges.map_batches(contribs, batch_format="pyarrow"),
            ["node"], [("c", "sum", "c")])
        out = np.zeros(n, np.float64)
        bts = [bt for bt in agg.iter_batches(batch_format="pyarrow",
                                             batch_size=None) if bt.num_rows]
        if bts:
            t = pa.concat_tables(bts)
            out[node_idx.get_indexer(t["node"].to_pandas())] = \
                t["c"].to_numpy(zero_copy_only=False)
        return out

    for _ in range(iters):
        a = one_pass(h, src_col, dst_col)
        a = a / (np.sqrt((a * a).sum()) or 1.0)
        h = one_pass(a, dst_col, src_col)
        h = h / (np.sqrt((h * h).sum()) or 1.0)
    return pa.table({
        "node": nodes["node"],
        "hub": pa.array(round_half_away(h, round_digits), pa.float64()),
        "auth": pa.array(round_half_away(a, round_digits), pa.float64()),
    })


def _degree_table(edges: rd.Dataset, a_col: str, b_col: str) -> rd.Dataset:
    """(node, deg) over a DISTINCT undirected edge set — both endpoints
    counted, map-side combined."""
    return partial_groupby_agg(
        edges.map_batches(
            lambda t: pa.table({
                "node": pa.concat_arrays(
                    [t[a_col].combine_chunks().cast(pa.string()),
                     t[b_col].combine_chunks().cast(pa.string())]),
                "one": pa.array(np.ones(2 * t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["node"], [("one", "count", "deg")])


def _closed_wedges(edges: rd.Dataset, a_col: str, b_col: str,
                   deg_ds: rd.Dataset, broadcast_max_nodes: int,
                   keep_nodes: bool):
    """Degree-ordered wedge generation + edge-closing semi-join — the
    shared core of ``triangle_count`` and ``local_clustering``.

    Every edge is re-oriented from its lower-(degree, id) endpoint to the
    higher one; each triangle is enumerated exactly once at its
    minimum-rank vertex, and every vertex's out-degree under this
    orientation is ≤ O(√(2m)), so total wedge work is O(m^1.5)
    REGARDLESS of skew (Chiba–Nishizeki / Schank–Wagner ordering).

    Returns ``(closed, n_wedges)`` — ``closed`` has one row per triangle
    with columns (u, v, w) when ``keep_nodes`` (the wedge exchange then
    carries the corner ids, 3 strings/row) else just the bare pair_key.
    ``None`` closed means zero wedges.
    """
    n_nodes = deg_ds.count()
    if n_nodes == 0:
        return None, 0
    if n_nodes <= broadcast_max_nodes:
        deg_tbl = pa.concat_tables(
            [bt for bt in deg_ds.iter_batches(batch_format="pyarrow",
                                              batch_size=None)])
        e2 = broadcast_join(
            broadcast_join(edges, deg_tbl.rename_columns(["ka", "deg_a"]),
                           a_col, "ka", how="inner"),
            deg_tbl.rename_columns(["kb", "deg_b"]), b_col, "kb",
            how="inner")
    else:
        e2 = exchange_join(
            exchange_join(edges, deg_ds.map_batches(
                lambda t: pa.table({"ka": t["node"], "deg_a": t["deg"]}),
                batch_format="pyarrow"), a_col, "ka"),
            deg_ds.map_batches(
                lambda t: pa.table({"kb": t["node"], "deg_b": t["deg"]}),
                batch_format="pyarrow"), b_col, "kb")

    def orient_by_rank(batch: pa.Table) -> pa.Table:
        a = batch[a_col].combine_chunks().cast(pa.string())
        b = batch[b_col].combine_chunks().cast(pa.string())
        # rank = (degree, id); a < b lexically, so a wins degree ties
        first_a = pc.less_equal(batch["deg_a"], batch["deg_b"])
        return pa.table({"u": pc.if_else(first_a, a, b),
                         "v": pc.if_else(first_a, b, a)})

    directed = e2.map_batches(orient_by_rank,
                              batch_format="pyarrow").materialize()
    d2 = directed.map_batches(lambda t: t.rename_columns(["u2", "w"]),
                              batch_format="pyarrow")
    wed = exchange_join(directed, d2, "u", "u2")

    def close_key(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less(batch["v"], batch["w"]))
        key = pc.binary_join_element_wise(
            t["v"].combine_chunks(), t["w"].combine_chunks(), "|")
        if keep_nodes:
            return pa.table({"u": t["u"], "v": t["v"], "w": t["w"],
                             "pair_key": key})
        return pa.table({"pair_key": key})

    wkey = drop_empty_blocks(
        wed.map_batches(close_key, batch_format="pyarrow").materialize())
    if wkey is None:
        return None, 0
    n_wedges = wkey.count()
    ekey = edges.map_batches(
        lambda t: pa.table({"pair_key": pc.binary_join_element_wise(
            t[a_col].combine_chunks().cast(pa.string()),
            t[b_col].combine_chunks().cast(pa.string()), "|")}),
        batch_format="pyarrow")
    closed = exchange_join(wkey, ekey, "pair_key", "pair_key",
                           how="left_semi")
    return closed, n_wedges


def _collect_dense_adjacency(edges: rd.Dataset, a_col: str, b_col: str):
    """Driver-side dense symmetric adjacency of a DISTINCT undirected
    edge set whose NODE set is driver-small (hosts, not pages — the same
    size argument as pagerank's ``local`` mode). Returns
    ``(node_names: np.ndarray[str], A: np.ndarray float64)``. The edge
    LIST is collected once (≤ n²/2 rows by the node bound); at
    n ≤ ~2000 the matrix is ≤ 33 MB and one BLAS matmul replaces tens of
    millions of exchanged wedge rows."""
    et = pa.concat_tables(
        edges.iter_batches(batch_format="pyarrow", batch_size=None))
    comb = pa.chunked_array(
        [et[a_col].combine_chunks().cast(pa.string()),
         et[b_col].combine_chunks().cast(pa.string())]).combine_chunks()
    denc = comb.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False)
    names = np.asarray(denc.dictionary.to_pylist(), dtype=object)
    m = et.num_rows
    ai, bi = codes[:m], codes[m:]
    n = len(names)
    A = np.zeros((n, n), np.float64)
    A[ai, bi] = 1.0
    A[bi, ai] = 1.0
    return names, A


def triangle_count(edges: rd.Dataset, a_col: str = "a", b_col: str = "b",
                   broadcast_max_nodes: int = 5_000_000,
                   local_max_nodes: int = 2048) -> dict:
    """Exact triangle count by DEGREE-ORDERED ORIENTATION — the skew-proof
    shape for power-law graphs.

    Input contract: ``edges`` is the DISTINCT undirected edge set, one row
    per edge, canonically oriented ``a < b`` (string compare), no self
    loops.

    Naive wedge enumeration joins the edge set to itself on the shared
    middle vertex — Σ deg² intermediate rows, which a single web-scale hub
    (deg ~10⁶) turns into 10¹² wedges on one key. ``_closed_wedges``
    bounds this at O(m^1.5) via degree-ordered orientation; the closing
    test is one semi-join of the unordered wedge pair against the edge
    set.

    Degrees attach via broadcast (one row per NODE — hosts, not pages)
    below ``broadcast_max_nodes``, else via two distributed hash
    exchanges. Returns ``{"n_triangles", "n_wedges"}`` (wedge count =
    the join's intermediate cardinality, exposed so tests can assert the
    orientation actually bounded the blowup).
    """
    edges = edges.materialize()
    deg_ds = _degree_table(edges, a_col, b_col).materialize()

    # DENSE fast path — node set fits the driver (hosts): triangles =
    # Σ((A·A)∘A)/6, one BLAS matmul (the local_clustering rationale; the
    # sf0.1 host graph's hub made the wedge exchange pay seconds).
    # n_wedges reported as the oriented wedge count the exchange path
    # would have generated (min(deg_u under orientation choose 2) is not
    # recomputed here — callers only assert it bounds the blowup), so
    # the dict shape stays (n_triangles, n_wedges) with n_wedges None
    # meaning the dense path skipped wedge generation entirely.
    n_nodes = deg_ds.count()
    if n_nodes == 0:
        return {"n_triangles": 0, "n_wedges": 0}
    if n_nodes <= local_max_nodes:
        _names, A = _collect_dense_adjacency(edges, a_col, b_col)
        tri = int(round(((A @ A) * A).sum() / 6.0))
        return {"n_triangles": tri, "n_wedges": None}

    closed, n_wedges = _closed_wedges(edges, a_col, b_col, deg_ds,
                                      broadcast_max_nodes, keep_nodes=False)
    if closed is None:
        return {"n_triangles": 0, "n_wedges": 0}
    return {"n_triangles": closed.count(), "n_wedges": n_wedges}


def local_clustering(edges: rd.Dataset, a_col: str = "a", b_col: str = "b",
                     broadcast_max_nodes: int = 5_000_000,
                     round_digits: int = 9,
                     local_max_nodes: int = 2048) -> rd.Dataset:
    """Per-node triangle participation + LOCAL CLUSTERING COEFFICIENT
    over a distinct undirected edge set (a < b, no self loops):

        c(v) = 2·tri(v) / (deg(v)·(deg(v)−1)),   c(v) = 0 when deg < 2

    — the community-density signal of the classic web/social-graph
    analyses (Watts–Strogatz). Same O(m^1.5) degree-ordered wedge plan as
    ``triangle_count`` (``_closed_wedges`` with the corner ids kept on the
    wedge rows, 3 strings/row); each closed triangle then credits its
    three corners via one flat explosion + map-side-combined count, and a
    left join back onto the degree table fills triangle-free nodes with 0.

    Returns (node, deg, n_tri, clustering) — one row per node.
    """
    edges = edges.materialize()
    deg_ds = _degree_table(edges, a_col, b_col).materialize()

    # DENSE fast path — node set fits the driver (hosts): tri(v) =
    # ((A·A)∘A)·1 / 2, ONE BLAS matmul instead of the wedge exchange.
    # The sf0.1 bench graph (1001 hosts, hub deg 1000 → 75M wedge rows)
    # ran 10.9 s on the exchange path and <1 s here; counts are exact
    # integers (< 2^53) in float64. Distributed wedge path stays the
    # >local_max_nodes route.
    if deg_ds.count() <= local_max_nodes:
        names, A = _collect_dense_adjacency(edges, a_col, b_col)
        deg = A.sum(axis=1)
        tri = ((A @ A) * A).sum(axis=1) / 2.0
        denom = deg * (deg - 1.0)
        coeff = np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1.0),
                         0.0)
        return rd.from_arrow(pa.table({
            "node": pa.array(names, pa.string()),
            "deg": pa.array(deg.astype(np.int64), pa.int64()),
            "n_tri": pa.array(tri.astype(np.int64), pa.int64()),
            "clustering": pa.array(round_half_away(coeff, round_digits),
                                   pa.float64())}))

    closed, _ = _closed_wedges(edges, a_col, b_col, deg_ds,
                               broadcast_max_nodes, keep_nodes=True)

    def finish(batch: pa.Table) -> pa.Table:
        deg = batch["deg"].to_numpy(zero_copy_only=False).astype(np.float64)
        tri = batch["n_tri"].to_numpy(zero_copy_only=False)
        tri = np.where(np.isnan(tri.astype(np.float64)), 0,
                       tri.astype(np.float64)).astype(np.int64)
        denom = deg * (deg - 1.0)
        coeff = np.where(denom > 0, 2.0 * tri / np.maximum(denom, 1.0), 0.0)
        return pa.table({
            "node": batch["node"],
            "deg": batch["deg"],
            "n_tri": pa.array(tri, pa.int64()),
            "clustering": pa.array(
                round_half_away(coeff, round_digits), pa.float64())})

    if closed is None:
        return deg_ds.map_batches(
            lambda t: finish(t.append_column(
                "n_tri", pa.array(np.zeros(t.num_rows, np.int64)))),
            batch_format="pyarrow")

    tri_nodes = closed.map_batches(
        lambda t: pa.table({
            "tnode": pa.concat_arrays([t["u"].combine_chunks(),
                                       t["v"].combine_chunks(),
                                       t["w"].combine_chunks()]),
            "one": pa.array(np.ones(3 * t.num_rows, np.int64))}),
        batch_format="pyarrow")
    tri = partial_groupby_agg(tri_nodes, ["tnode"], [("one", "sum", "n_tri")])
    joined = exchange_join(deg_ds, tri, "node", "tnode", how="left_outer")
    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# min-propagation fixpoint: the one BSP loop behind every min-label closure
# ---------------------------------------------------------------------------

_LOG = logging.getLogger("lk_data_test_ray")


def _ranges(t: pa.Table, pb: int) -> tuple:
    """``t``'s rows with a non-null ``node``, split to the ``2**pb``
    node-hash ranges."""
    return hash_split(t.filter(pc.is_valid(t["node"])), "node", pb)


@ray.remote
def _label_split(blk: pa.Table, cols: list, pb: int) -> tuple:
    """Every node named in ``blk``'s ``cols`` labelled itself, split to
    its range."""
    if blk.num_rows == 0:
        return (pa.table({}),) * (1 << pb)
    node = pa.concat_arrays([blk[c].combine_chunks() for c in cols])
    return _ranges(pa.table({"node": node, "v": node}), pb)


@ray.remote
def _probe_split(blk: pa.Table, step: int, pb: int, *frontier) -> tuple:
    """The frontier joined to one edge block in place (a local Acero join
    on ``a``); the proposals ``(b, v + step)`` split to their ranges."""
    live = [f for f in frontier if f.num_rows]
    if blk.num_rows == 0 or not live:
        return (pa.table({}),) * (1 << pb)
    j = blk.join(pa.concat_tables(live), keys="a", right_keys="node",
                 join_type="inner")
    v = pc.add(j["v"], step) if step else j["v"]
    return _ranges(pa.table({"node": j["b"], "v": v}), pb)


@ray.remote(num_returns=4)
def _merge_range(state: pa.Table, *msgs: pa.Table) -> tuple:
    """One range's min-adopt: sort by (node, v, old first) and keep each
    node's first row. Returns the new state, the frontier (the rows that
    are new or whose v fell), its size and the message count, so
    convergence costs no extra pass."""
    live = [m for m in msgs if m.num_rows]
    if not live:
        return state, state.slice(0, 0), 0, 0
    tbl = pa.concat_tables([
        t.select(["node", "v"]).append_column(
            "_new", pa.array(np.full(t.num_rows, k, np.int8)))
        for k, t in [(0, state)] + [(1, m) for m in live] if t.num_rows])
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("node", "ascending"), ("v", "ascending"), ("_new", "ascending")]))
    node = tbl["node"].combine_chunks()
    first = np.ones(len(node), bool)
    first[1:] = pc.not_equal(node[1:], node[:-1]).to_numpy(
        zero_copy_only=False)
    keep = tbl.filter(pa.array(first))
    fresh = keep.filter(pc.equal(keep["_new"], 1)).select(["node", "v"])
    return (keep.select(["node", "v"]), fresh, fresh.num_rows,
            sum(m.num_rows for m in live))


def self_labels(ds: rd.Dataset, cols: list) -> tuple[list, int]:
    """The seed of a label propagation: every node named in ``ds``'s
    ``cols`` labelled itself, as one ``(node, v)`` ref per node-hash range,
    and the node count. Split tasks over ``ds``'s blocks merge into typed
    empty state, so no node table passes through the driver."""
    pb = default_p_bits()
    typ = ds.schema().base_schema.field(cols[0]).type
    empty = pa.schema([("node", typ), ("v", typ)]).empty_table()
    parts = [_label_split.options(num_returns=1 << pb).remote(r, cols, pb)
             for r in ds.to_arrow_refs()]
    outs = [_merge_range.remote(empty, *[m[p] for m in parts])
            for p in range(1 << pb)]
    return [o[0] for o in outs], sum(ray.get([o[2] for o in outs]))


def min_fixpoint(edge_refs: list, seed: list, step: int, op: str) -> list:
    """Min-propagation to a fixpoint along the directed edge blocks
    ``edge_refs`` (columns ``a``, ``b``): the one BSP loop behind
    ``components_min_label``, ``bfs_depth``, both ``scc_coloring``
    propagations and the distributed ``dedup.connected_components``.

    ``seed`` is the initial ``(node, v)`` state, one table or ref per
    node-hash range (``_ranges`` of a small driver table, or
    ``self_labels``); every seeded row starts in the frontier. ``v`` may
    be any Arrow-orderable type: strings for labels, int64 for depths and
    ids. A round runs one ``_probe_split`` task per edge block, which joins
    the frontier to the block in place and sends each proposal
    ``(b, v + step)`` to its range, then one ``_merge_range`` task per
    range, which keeps the smaller value per node. State stays in its
    range; the frontier parts stay in the object store, read by every
    probe task; the driver gets two scalars per range and round.

    The loop runs until a round changes nothing, with no round limit. It
    terminates because ``step >= 0``: a node's ``v`` only falls, and it is
    always a seed value plus a whole number of steps, so each node can
    fall only finitely often. Rounds = the longest shortest propagation
    path, plus one.

    Logs one INFO record on the ``lk_data_test_ray`` logger with attribute
    ``fixpoint`` = ``{op, rounds, changed, msgs}`` (per-round lists).
    Returns the fixpoint state, one ref per range.
    """
    P = len(seed)
    pb = P.bit_length() - 1
    state, frontier = list(seed), list(seed)
    changed: list[int] = []
    msgs: list[int] = []
    while frontier:
        probes = [_probe_split.options(num_returns=P).remote(
            r, step, pb, *frontier) for r in edge_refs]
        outs = [_merge_range.remote(state[p], *[m[p] for m in probes])
                for p in range(P)]
        state = [o[0] for o in outs]
        counts = ray.get([o[2] for o in outs] + [o[3] for o in outs])
        changed.append(sum(counts[:P]))
        msgs.append(sum(counts[P:]))
        frontier = [o[1] for o, c in zip(outs, counts) if c]
    rec = {"op": op, "rounds": len(changed), "changed": changed,
           "msgs": msgs}
    _LOG.info("fixpoint %s: %d rounds", op, len(changed),
              extra={"fixpoint": rec})
    return state


def state_dataset(refs: list, schema: pa.Schema) -> rd.Dataset:
    """Per-range ``(node, v)`` state refs as a Dataset of ``schema``'s two
    columns."""
    return rd.from_arrow_refs(refs).map_batches(
        lambda b: pa.Table.from_arrays([b["node"], b["v"]], schema=schema),
        batch_format="pyarrow")


def components_min_label(edges: rd.Dataset, src_col: str,
                         dst_col: str) -> rd.Dataset:
    """Connected components of an UNDIRECTED graph by fully-distributed
    min-label propagation: every node's component id converges to the
    lexicographic minimum node key reachable from it.

    This is the full-graph CC operator (``dedup.connected_components``
    handles candidate-pair graphs whose edge set is small by LSH
    construction; here no driver table is ever built). The edges are
    oriented both ways once, every node labels itself (``self_labels``),
    and ``min_fixpoint`` with step 0 propagates the labels until none
    falls: per round one probe task per edge block and one merge task per
    hash range, no Dataset execution. Rounds = graph diameter + 1 — web
    host graphs are shallow (≤ ~6); a 10^10-node long-path graph would
    want the large-star/small-star doubling variant (Kiveris et al. 2014),
    noted here as the scale escape hatch.

    Returns (node, cluster) with cluster = min reachable node key.
    """
    def orient(batch: pa.Table) -> pa.Table:
        a = batch[src_col].cast(pa.string())
        b = batch[dst_col].cast(pa.string())
        t = pa.table({"a": pa.concat_arrays(
            [a.combine_chunks(), b.combine_chunks()]),
            "b": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])})
        return t.group_by(["a", "b"]).aggregate([])  # per-batch distinct

    both = edges.map_batches(orient, batch_size=16384,
                             batch_format="pyarrow").materialize()
    seed, _ = self_labels(both, ["a"])
    labels = min_fixpoint(both.to_arrow_refs(), seed, 0,
                          "components_min_label")
    return state_dataset(labels, pa.schema([("node", pa.string()),
                                            ("cluster", pa.string())]))


def bfs_depth(edges: rd.Dataset, src_col: str, dst_col: str,
              n_seeds: int = 3,
              seeds: "list[str] | None" = None) -> rd.Dataset:
    """Multi-source BFS over a DIRECTED graph: min hop distance from the
    seed set (the ``n_seeds`` lexicographically smallest nodes — a
    deterministic, oracle-expressible stand-in for a crawl's seed list).
    This is the crawl-depth operator: "how many link hops from the seeds
    does each host sit?", the frontier metric a scheduler prioritizes by.

    Distributed shape — ``min_fixpoint`` with step 1, zero
    streaming-executor spins after the one edge materialize: the distance
    state lives PARTITIONED by node-hash range across rounds, a round
    ships only the frontier (one BFS level) to the edge blocks in place
    and the resulting proposals to their owning ranges, so total message
    volume across all rounds is one edge-visit. The loop runs until the
    frontier is empty: rounds = eccentricity of the seed set + 1, with no
    round limit, so a long chain is never cut short. Unreachable nodes
    never enter the distance table (matching the recursive-CTE oracle's
    closure semantics).

    Returns (node, depth) for reachable nodes only.
    """
    def orient(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "a": batch[src_col].cast(pa.string()).combine_chunks(),
            "b": batch[dst_col].cast(pa.string()).combine_chunks()})
        return t.group_by(["a", "b"]).aggregate([])  # per-batch distinct

    # batch_size bundles tiny reader blocks (test/bench parquet arrives as
    # dozens of ~100-row blocks) so the per-round probe fan-out is a few
    # tasks, not 64; production-size blocks are unaffected
    e = edges.map_batches(orient, batch_size=16384,
                          batch_format="pyarrow").materialize()

    # seed selection: per-block k-smallest node partials → driver min
    # over ≤ k·n_blocks candidates (the top-k-partial pattern; node set
    # spans BOTH endpoints so sink-only hosts can seed too)
    def smallest(batch: pa.Table) -> pa.Table:
        arr = pc.unique(pa.concat_arrays(
            [batch["a"].combine_chunks(), batch["b"].combine_chunks()]))
        idx = pc.array_sort_indices(arr)[:min(n_seeds, len(arr))]
        return pa.table({"node": pc.take(arr, idx)})

    if seeds is None:
        cand = e.map_batches(smallest, batch_format="pyarrow").take_all()
        seeds = sorted({r["node"] for r in cand})[:n_seeds]
    else:
        seeds = sorted(set(seeds))

    seed_tbl = pa.table({
        "node": pa.array(seeds, pa.string()),
        "v": pa.array(np.zeros(len(seeds), np.int64))})
    dist = min_fixpoint(e.to_arrow_refs(),
                        _ranges(seed_tbl, default_p_bits()), 1, "bfs_depth")
    # the per-range distance blocks ARE the result — no driver concat (at
    # web scale dist is node-sized)
    return state_dataset(dist, pa.schema([("node", pa.string()),
                                           ("depth", pa.int64())]))


def hyperball_harmonic(edges: rd.Dataset, src_col: str, dst_col: str,
                       p: int = 10) -> rd.Dataset:
    """HyperBall (Boldi & Vigna 2013): harmonic centrality of every node
    of a DIRECTED graph from HyperLogLog ball counters — the all-pairs-
    distance family made tractable at web scale, where exact harmonic
    centrality is |V| BFS runs. Node v's counter estimates
    |{u : d(u,v) ≤ t}| after round t (counters propagate ALONG edge
    direction: whoever reaches w within t−1 reaches v=w→v within t);
    harmonic centrality accumulates Σ_t (|B_t| − |B_{t−1}|)/t.

    Distributed shape, per round: ONE hash join ships each node's 2^p-
    byte counter to its out-neighbors, one grouped register-max merges
    proposals with the node's own counter (sketch mergeability is what
    makes the ball union associative), and the per-node harmonic
    accumulator rides in the same dataset — state per node is 2^p bytes
    + two floats, nothing collected to one process. The loop runs until
    no node's register row changed in a round, with no round limit:
    registers only rise, within the finite range [0, 65 − p], so it
    terminates. Rounds = graph diameter + 1. Logs one INFO record on the
    ``lk_data_test_ray`` logger with attribute ``fixpoint`` =
    ``{op: "hyperball", rounds, changed}`` (changed: nodes per round).
    Estimates are ε ≈ 1.04/√2^p; exactness is property-tested against
    per-node BFS on small graphs.

    Returns (node, harmonic) — reachability-weighted closeness, the
    centrality Boldi & Vigna recommend for web graphs.
    """
    from ..sketches import HyperLogLog

    m = 1 << p

    def orient(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "a": batch[src_col].cast(pa.string()).combine_chunks(),
            "b": batch[dst_col].cast(pa.string()).combine_chunks()})
        return t.group_by(["a", "b"]).aggregate([])

    e = edges.map_batches(orient, batch_format="pyarrow").materialize()

    def node_rows(batch: pa.Table) -> pa.Table:
        nodes = pc.unique(pa.concat_arrays(
            [batch["a"].combine_chunks(), batch["b"].combine_chunks()]))
        return pa.table({"node": nodes,
                         "one": pa.array(np.ones(len(nodes), np.int64))})

    nodes = partial_groupby_agg(
        e.map_batches(node_rows, batch_format="pyarrow"),
        ["node"], [("one", "sum", "_n")])

    def init_counters(batch: pa.Table) -> pa.Table:
        # vectorized singleton init: one scratch HLL yields (idx, rank)
        # per node, scattered into an (n, m) zero register matrix
        import pandas as pd

        n = batch.num_rows
        regs = np.zeros((n, m), np.uint8)
        if n:
            h = pd.util.hash_array(
                batch["node"].to_numpy(zero_copy_only=False).astype(object),
                categorize=False).astype(np.uint64)
            idx = (h >> np.uint64(64 - p)).astype(np.int64)
            rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
            # same rank math as HyperLogLog.update_hashes, vectorized
            # across rows (loop is over bit positions, not nodes)
            lz = np.zeros(n, np.uint8)
            mask = np.uint64(1) << np.uint64(63)
            cur, alive = rest.copy(), np.ones(n, bool)
            for _ in range(64 - p + 1):
                alive &= (cur & mask) == 0
                if not alive.any():
                    break
                lz[alive] += 1
                cur = cur << np.uint64(1)
            regs[np.arange(n), idx] = lz + 1
        # singleton estimate (linear counting, zeros = m−1) so round 1
        # adds exactly the ball GROWTH, not the estimator's self bias
        est0 = float(m) * np.log(m / (m - 1.0))
        return pa.table({
            "node": batch["node"],
            "regs": pa.array([r.tobytes() for r in regs], pa.binary()),
            "est_prev": pa.array(np.full(n, est0, np.float64)),
            "h": pa.array(np.zeros(n, np.float64)),
            "chg": pa.array(np.zeros(n, bool))})

    state = nodes.map_batches(init_counters,
                              batch_format="pyarrow").materialize()

    # chg: whether the node's register row changed in the round that wrote
    # it (messages carry null)
    out_schema = pa.schema([("node", pa.string()), ("regs", pa.binary()),
                            ("est_prev", pa.float64()),
                            ("h", pa.float64()), ("chg", pa.bool_())])

    def _regs_matrix(col: pa.ChunkedArray, n: int) -> np.ndarray:
        """(n, m) uint8 view of a fixed-width binary column, zero-copy."""
        arr = col.combine_chunks()
        off = np.frombuffer(arr.buffers()[1], np.int32,
                            count=n + 1, offset=arr.offset * 4)
        flat = np.frombuffer(arr.buffers()[2], np.uint8)
        return flat[off[0]:off[n]].reshape(n, m)

    def _estimates(regs: np.ndarray) -> np.ndarray:
        """Row-wise HyperLogLog.estimate (identical math, vectorized)."""
        fm = float(m)
        alpha = 0.7213 / (1 + 1.079 / fm)
        inv = np.power(2.0, -regs.astype(np.float64)).sum(axis=1)
        e = alpha * fm * fm / inv
        zeros = (regs == 0).sum(axis=1)
        small = (e <= 2.5 * fm) & (zeros > 0)
        e[small] = fm * np.log(fm / zeros[small])
        return e

    def make_merge(t: int):
        def merge_partition(tbl: pa.Table) -> pa.Table:
            tbl, starts = runs(tbl, "node")
            n = tbl.num_rows
            regs = _regs_matrix(tbl["regs"], n)
            grp = np.repeat(np.arange(len(starts)),
                            np.diff(np.append(starts, n)))
            mx = np.maximum.reduceat(regs, starts, axis=0)
            g = len(starts)
            h_arr = tbl["h"].to_numpy(zero_copy_only=False)
            ep_arr = tbl["est_prev"].to_numpy(zero_copy_only=False)
            own = ~np.isnan(h_arr)           # exactly one own row per node
            h_g = np.zeros(g, np.float64)
            ep_g = np.ones(g, np.float64)
            h_g[grp[own]] = h_arr[own]
            ep_g[grp[own]] = ep_arr[own]
            chg = np.zeros(g, bool)
            chg[grp[own]] = (mx[grp[own]] != regs[own]).any(axis=1)
            est = _estimates(mx)
            h_g += np.maximum(est - ep_g, 0.0) / t
            return pa.table({
                "node": tbl["node"].take(starts),
                "regs": pa.array([r.tobytes() for r in mx], pa.binary()),
                "est_prev": pa.array(est, pa.float64()),
                "h": pa.array(h_g, pa.float64()),
                "chg": pa.array(chg)}, schema=out_schema)
        return merge_partition

    changed: list[int] = []
    while not changed or changed[-1]:
        msgs = exchange_join(e, state, "a", "node").map_batches(
            lambda b: pa.table({"node": b["b"], "regs": b["regs"],
                                "est_prev": pa.nulls(b.num_rows,
                                                     pa.float64()),
                                "h": pa.nulls(b.num_rows, pa.float64()),
                                "chg": pa.nulls(b.num_rows, pa.bool_())}),
            batch_format="pyarrow")
        state = hash_repartition_map(msgs.union(state), "node",
                                     make_merge(len(changed) + 1),
                                     schema=out_schema).materialize()
        changed.append(int(sum(r["n"] for r in state.map_batches(
            lambda b: pa.table({"n": [pc.sum(b["chg"]).as_py() or 0]}),
            batch_format="pyarrow").take_all())))
    rec = {"op": "hyperball", "rounds": len(changed), "changed": changed}
    _LOG.info("fixpoint hyperball: %d rounds", len(changed),
              extra={"fixpoint": rec})

    return state.map_batches(
        lambda b: pa.table({"node": b["node"], "harmonic": b["h"]}),
        batch_format="pyarrow")


def kcore(edges: rd.Dataset, src_col: str, dst_col: str,
          k: int = 3) -> rd.Dataset:
    """The k-core of an UNDIRECTED graph — iteratively peel every node
    of degree < k until the survivor set is stable (Seidman 1983). The
    dense backbone a crawl scheduler treats as the "established web";
    spam farms and fringe hosts fall out in the first peels.

    Distributed shape, per round: one grouped count (degrees from the
    both-ways-oriented live edge list) + two hash-exchange SEMI-joins
    (edges to surviving src, then surviving dst) — nodes and edges
    stream as Datasets throughout, the driver sees only the live-edge
    count scalar. Rounds = peeling depth (real graphs: shallow). The loop
    runs until the live-edge count stops falling, with no round limit: the
    count is a non-negative integer that falls every round but the last,
    so the peeling terminates.

    Returns (node, degree) of the k-core members with their in-core
    degree.
    """
    def orient(batch: pa.Table) -> pa.Table:
        a = batch[src_col].cast(pa.string())
        b = batch[dst_col].cast(pa.string())
        t = pa.table({"a": pa.concat_arrays(
            [a.combine_chunks(), b.combine_chunks()]),
            "b": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()])})
        t = t.filter(pc.invert(pc.equal(t["a"], t["b"])))  # no self-loops
        return t.group_by(["a", "b"]).aggregate([])

    live = edges.map_batches(orient, batch_format="pyarrow").materialize()
    n_live = live.count()

    while n_live:
        deg = partial_groupby_agg(live, ["a"], [("b", "count", "deg")])
        keep = deg.filter(expr=f"deg >= {k}").map_batches(
            lambda b: pa.table({"node": b["a"]}), batch_format="pyarrow")
        half = exchange_join(live, keep, "a", "node", "left_semi")
        new = exchange_join(half, keep, "b", "node",
                            "left_semi").materialize()
        n_new = new.count()
        if n_new == n_live:
            break
        live, n_live = new, n_new

    return partial_groupby_agg(live, ["a"], [("b", "count", "degree")]) \
        .map_batches(lambda b: pa.table({"node": b["a"],
                                         "degree": b["degree"]}),
                     batch_format="pyarrow")


def random_walks(edges: rd.Dataset, src_col: str, dst_col: str,
                 length: int = 4) -> rd.Dataset:
    """DETERMINISTIC random-walk corpus over a directed graph — the
    node2vec/DeepWalk input-generation stage, made engine-neutral and
    oracle-checkable: from EVERY node, one walk of ≤ ``length`` steps
    where step t leaves node u through its
    ``int(md5(u + '|' + t)[:8], 16) mod outdeg(u)``-th out-neighbor
    (neighbors ranked by byte order). Any engine reproduces the exact
    trace — no RNG state, no seed plumbing; walks stop early at sinks.

    Distributed shape, per step: one hash join attaches out-degrees
    (choice needs the modulus), the choice itself is the vectorized
    DuckDB md5 kernel (``hashing.md5_int32``), and one hash join on the
    composite (node, rank) key fetches the chosen neighbor — walk state
    is (start, cur) rows, never an adjacency list in driver memory.

    Skew bound (the part that matters at web scale): the choice is
    deterministic per (cur, t), so every walk sitting on one node moves
    IDENTICALLY — walks converge onto hubs, and after a few steps a
    10⁶-in-degree host can hold millions of walk states whose ``cur``
    (and therefore whose composite key) is ONE value. Both per-step
    joins therefore run through ``skew_join`` (the heavy-hitter
    hot-key-hash split the triangle family and ``j_skew_user_events`` use):
    hot-key states join a broadcast slice of the right side
    block-parallel instead of collapsing into one exchange partition.
    Both right sides satisfy skew_join's broadcast assumption exactly —
    ``deg`` is one row per node and ``adj`` matches one row per
    composite key. The adjacency build itself is bounded per range by
    a single node's out-edges (the rank exchange owns whole nodes).

    Returns (start, step, node) trace rows, step 0 = the start itself.
    """
    from ..functions.hashing import md5_int32

    def orient(batch: pa.Table) -> pa.Table:
        # Per-batch dedup is a COMBINER only — cross-batch duplicate
        # (a, b) edges survive here and are removed globally inside the
        # rank exchange below (all rows of one `a` land in one range).
        t = pa.table({
            "a": batch[src_col].cast(pa.string()).combine_chunks(),
            "b": batch[dst_col].cast(pa.string()).combine_chunks()})
        return t.group_by(["a", "b"]).aggregate([])

    e = edges.map_batches(orient, batch_format="pyarrow").materialize()

    adj_schema = pa.schema([("akey", pa.string()), ("nbr", pa.string()),
                            ("anode", pa.string()), ("deg", pa.int64()),
                            ("pos", pa.int64())])

    def rank_partition(tbl: pa.Table) -> pa.Table:
        """(a#idx → neighbor) rows, globally deduped and byte-ranked in
        one sorted pass; deg/pos columns ride along so the per-node
        degree table is a FILTER of this one exchange, not a second
        shuffle of the edge set."""
        t, starts = runs(tbl.group_by(["a", "b"]).aggregate([]), "a", ["b"])
        lens = np.diff(np.append(starts, t.num_rows))
        pos = np.arange(t.num_rows) - np.repeat(starts, lens)
        deg = np.repeat(lens, lens)
        akey = pc.binary_join_element_wise(
            t["a"], pa.array(pos.astype("U"), pa.string()), "#")
        return pa.table({"akey": akey, "nbr": t["b"], "anode": t["a"],
                         "deg": pa.array(deg, pa.int64()),
                         "pos": pa.array(pos, pa.int64())},
                        schema=adj_schema)

    adj = hash_repartition_map(e, "a", rank_partition,
                               schema=adj_schema).materialize()

    deg = adj.map_batches(
        lambda b: b.filter(pc.equal(b["pos"], 0)).select(
            ["anode", "deg"]).rename_columns(["dnode", "deg"]),
        batch_format="pyarrow").materialize()

    def node_rows(batch: pa.Table) -> pa.Table:
        nodes = pc.unique(pa.concat_arrays(
            [batch["a"].combine_chunks(), batch["b"].combine_chunks()]))
        return pa.table({"node": nodes,
                         "one": pa.array(np.ones(len(nodes), np.int64))})

    state = partial_groupby_agg(
        e.map_batches(node_rows, batch_format="pyarrow"),
        ["node"], [("one", "sum", "_n")]).map_batches(
        lambda b: pa.table({"start": b["node"], "cur": b["node"]}),
        batch_format="pyarrow").materialize()

    def trace_of(ds: rd.Dataset, step: int) -> rd.Dataset:
        return ds.map_batches(
            lambda b, _s=step: pa.table({
                "start": b["start"], "step": pa.array(
                    np.full(b.num_rows, _s, np.int64)),
                "node": b["cur"]}),
            batch_format="pyarrow")

    traces = trace_of(state, 0)
    for t in range(1, length + 1):
        with_deg = skew_join(state, deg, "cur", "dnode")

        def choose(batch: pa.Table, _t=t) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"start": pa.array([], pa.string()),
                                 "key": pa.array([], pa.string())})
            comp = pc.binary_join_element_wise(
                batch["cur"], pa.array([str(_t)] * batch.num_rows), "|")
            pick = md5_int32(comp.combine_chunks()) \
                % batch["deg"].to_numpy(zero_copy_only=False)
            key = pc.binary_join_element_wise(
                batch["cur"], pa.array(pick.astype("U"), pa.string()),
                "#")
            return pa.table({"start": batch["start"], "key": key})

        keyed = with_deg.map_batches(choose, batch_format="pyarrow")
        nxt = skew_join(keyed, adj, "key", "akey").map_batches(
            lambda b: pa.table({"start": b["start"], "cur": b["nbr"]}),
            batch_format="pyarrow").materialize()
        if nxt.count() == 0:
            break
        traces = traces.union(trace_of(nxt, t))
        state = nxt

    return traces


def common_neighbor_scores(edges: rd.Dataset, a_col: str = "a",
                           b_col: str = "b", hub_cap: int = 1024,
                           k: int = 50, round_digits: int = 9,
                           local_max_nodes: int = 2048) -> rd.Dataset:
    """LINK PREDICTION over an undirected graph: for every NON-adjacent
    node pair sharing at least one neighbor, the common-neighbor count and
    the Adamic–Adar score Σ_u 1/ln(deg(u)) over shared neighbors u — the
    classic similarity signals for "which links are missing" (Liben-Nowell
    & Kleinberg). Returns the top-``k`` pairs by (adamic_adar desc,
    common desc, v, w) — a total order, so the cut is deterministic.

    Input contract: DISTINCT undirected edge set, ``a < b``, no loops.

    Skew bound — the part that matters at web scale: candidate pairs are
    wedges enumerated at their MIDDLE vertex, which is Σ deg(u)² work; one
    super-hub (deg 10⁶) alone would emit 10¹² pairs. Middles with
    deg > ``hub_cap`` are therefore EXCLUDED (documented recall cut, not a
    silent one: a hub contributes only 1/ln(deg) → ~0.07 at deg 10⁶ to a
    pair's Adamic–Adar, and "both linked to google.com" predicts nothing —
    the standard stop-word treatment for graphs). Wedge work is then
    ≤ hub_cap · m. The oracle applies the SAME cap, so results stay
    exactly comparable.
    """
    edges = edges.materialize()
    deg_ds = _degree_table(edges, a_col, b_col).materialize()

    # DENSE fast path — node set fits the driver (hosts): CN = A·S·A
    # and AA = A·W·A with S = diag(deg ≤ cap), W = diag(1/ln deg over
    # eligible middles) — two BLAS matmuls instead of the wedge
    # exchange. The sf0.1 bench graph (hub deg 1000 → 75M wedge rows of
    # 4 string columns) ran 39 s on the exchange path and <1 s here;
    # identical semantics, counts exact in float64. The distributed
    # wedge path remains the >local_max_nodes route.
    if deg_ds.count() <= local_max_nodes:
        names, A = _collect_dense_adjacency(edges, a_col, b_col)
        deg = A.sum(axis=1)
        sel = ((deg <= hub_cap) & (deg >= 2)).astype(np.float64)
        w_mid = np.where(sel > 0, 1.0 / np.log(np.maximum(deg, 2.0)), 0.0)
        CN = A.T @ (sel[:, None] * A)
        AA = A.T @ (w_mid[:, None] * A)
        iu, ju = np.triu_indices(len(names), k=1)
        cand = (CN[iu, ju] > 0) & (A[iu, ju] == 0)
        iu, ju = iu[cand], ju[cand]
        ni, nj = names[iu], names[ju]
        swap = ni > nj
        v = np.where(swap, nj, ni)
        w = np.where(swap, ni, nj)
        cn = CN[iu, ju].astype(np.int64)
        aa = round_half_away(AA[iu, ju], round_digits)
        order = np.lexsort((w, v, -cn, -aa))[:k]
        return rd.from_arrow(pa.table({
            "v": pa.array(v[order], pa.string()),
            "w": pa.array(w[order], pa.string()),
            "cn": pa.array(cn[order], pa.int64()),
            "aa": pa.array(aa[order], pa.float64())}))

    # directed both ways: one row (mid → nbr) per edge endpoint
    nbr = edges.map_batches(
        lambda t: pa.table({
            "mid": pa.concat_arrays(
                [t[a_col].combine_chunks().cast(pa.string()),
                 t[b_col].combine_chunks().cast(pa.string())]),
            "nbr": pa.concat_arrays(
                [t[b_col].combine_chunks().cast(pa.string()),
                 t[a_col].combine_chunks().cast(pa.string())])}),
        batch_format="pyarrow")
    capped_mid = exchange_join(
        nbr, deg_ds.map_batches(
            lambda t: t.filter(pc.less_equal(t["deg"], hub_cap))
            .rename_columns(["dnode", "deg"]), batch_format="pyarrow"),
        "mid", "dnode").materialize()

    wed = exchange_join(
        capped_mid,
        capped_mid.map_batches(
            lambda t: pa.table({"mid2": t["mid"], "nbr2": t["nbr"]}),
            batch_format="pyarrow"),
        "mid", "mid2")

    pair_schema = pa.schema([("pk", pa.string()), ("v", pa.string()),
                             ("w", pa.string()), ("cn", pa.int64()),
                             ("aa", pa.float64())])

    def pair_partials(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less(batch["nbr"], batch["nbr2"]))
        if t.num_rows == 0:
            return pair_schema.empty_table()
        inv_ln = 1.0 / np.log(
            t["deg"].to_numpy(zero_copy_only=False).astype(np.float64))
        p = pa.table({"v": t["nbr"], "w": t["nbr2"],
                      "one": pa.array(np.ones(t.num_rows, np.int64)),
                      "inv_ln": pa.array(inv_ln, pa.float64())})
        g = p.group_by(["v", "w"]).aggregate(
            [("one", "sum"), ("inv_ln", "sum")])
        return pa.table({
            "pk": pc.binary_join_element_wise(
                g["v"].combine_chunks(), g["w"].combine_chunks(), "|"),
            "v": g["v"], "w": g["w"],
            "cn": g["one_sum"].cast(pa.int64()),
            "aa": g["inv_ln_sum"]}, schema=pair_schema)

    # merge partials with ONE hash exchange + a local C++ group_by per
    # range: pair-key cardinality ≈ block size, so a map-side combine
    # can't shrink them.

    def merge_pairs(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["pk", "v", "w"]).aggregate(
            [("cn", "sum"), ("aa", "sum")])
        return pa.table({"pk": g["pk"], "v": g["v"], "w": g["w"],
                         "cn": g["cn_sum"], "aa": g["aa_sum"]},
                        schema=pair_schema)

    keyed = hash_repartition_map(
        wed.map_batches(pair_partials, batch_format="pyarrow"),
        "pk", merge_pairs, schema=pair_schema)

    # drop pairs that are already edges (we predict MISSING links)
    ekey = edges.map_batches(
        lambda t: pa.table({"pk": pc.binary_join_element_wise(
            t[a_col].combine_chunks().cast(pa.string()),
            t[b_col].combine_chunks().cast(pa.string()), "|")}),
        batch_format="pyarrow")
    missing = exchange_join(keyed, ekey, "pk", "pk", how="left_anti") \
        .map_batches(
            lambda t: pa.table({
                "v": t["v"], "w": t["w"], "cn": t["cn"],
                "aa": pa.array(round_half_away(
                    t["aa"].to_numpy(zero_copy_only=False), round_digits),
                    pa.float64())}),
            batch_format="pyarrow")
    return topk(missing, [("aa", True), ("cn", True),
                          ("v", False), ("w", False)], k)


def _tarjan_local(src: list, dst: list) -> pa.Table:
    """Iterative (explicit-stack) Tarjan SCC over a driver-small DISTINCT
    edge list — the local fast path of ``scc_coloring``; scc_id = min
    node id of each component, matching the distributed path exactly."""
    from collections import defaultdict

    g = defaultdict(list)
    nodes = set()
    for a, b in zip(src, dst):
        g[a].append(b)
        nodes.update((a, b))
    index: dict = {}
    low: dict = {}
    on: set = set()
    stack: list = []
    out: dict = {}
    counter = 0
    for root in sorted(nodes):
        if root in index:
            continue
        work = [[root, 0]]
        while work:
            frame = work[-1]
            v, pi = frame
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on.add(v)
            recursed = False
            neigh = g[v]
            while pi < len(neigh):
                w = neigh[pi]
                pi += 1
                if w not in index:
                    frame[1] = pi
                    work.append([w, 0])
                    recursed = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                m = min(comp)
                for w in comp:
                    out[w] = m
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
    ks = sorted(out)
    return pa.table({
        "node": pa.array([str(k) for k in ks], pa.string()),
        "scc_id": pa.array([str(out[k]) for k in ks], pa.string())})


@ray.remote
def _roots(colors: pa.Table) -> pa.Table:
    """One range's colour-class roots (colour == node): the flag seed."""
    return colors.filter(pc.equal(colors["node"], colors["v"]))


@ray.remote(num_returns=2)
def _unsettled(colors: pa.Table, flags: pa.Table) -> tuple:
    """One range's nodes an outer round left unsettled, each relabelled
    itself for the next round, and their count."""
    rest = colors.filter(pc.invert(pc.is_in(
        colors["node"], value_set=flags["node"].combine_chunks())))
    return rest.set_column(1, "v", rest["node"]), rest.num_rows


def scc_coloring(edges: rd.Dataset, src_col: str, dst_col: str,
                 local_max_nodes: int = 2048) -> rd.Dataset:
    """Strongly connected components of a DIRECTED graph — the
    coloring / forward-backward algorithm (Fleischer et al. 2000 FW-BW;
    Orzan's coloring variant; Slota et al. 2014 Multistep), fully
    distributed: nodes, colors and flags live as per-hash-range state
    refs, edges as Datasets; nothing graph-sized ever touches the driver
    (two scalars per range and propagation round).

    Per outer round over the ACTIVE subgraph:

    1. **Color.** Forward min-label to fixpoint (``min_fixpoint``, step
       0, along the edges): color(v) = the minimum node id that reaches v
       (including v) — the directed version of ``components_min_label``.
    2. **Settle.** Roots r (color(r) == r) own their color class; the SCC
       of r is exactly the class members that reach r BACK along edges
       inside the class. Soundness of the within-class restriction: if
       v → … → r with color(v) = r, every intermediate w has r → w (via
       v) and w → r, so every reacher x of w also reaches r, hence
       x ≥ r = color(r) and color(w) = r — the backward path can never
       leave the class. The flag is therefore one value per node (the
       root, no (node, root) pair blow-up), propagated by
       ``min_fixpoint`` from the roots (a per-range task over the color
       state) along the class-internal REVERSED edges; isolated remnants
       settle as singletons the same way (their root flag is the seed).
    3. **Shrink.** Flagged nodes settle with scc_id = their root; a
       per-range task keeps the rest as next round's nodes, and two hash
       anti-joins drop every edge touching a settled node; repeat while
       active nodes remain.

    Both propagations run to their fixpoint with no round limit, and each
    outer round settles at least every color-class root's whole SCC, so
    the outer loop ends too. Outer rounds are bounded by the longest
    root-chain in the condensation — shallow (≤ ~4) on web host graphs
    whose acyclic fringe settles as singleton classes immediately. A
    10^10-node adversarial SCC chain would want Multistep's trim +
    pivot-BFS hybrid. ≙ the reference's cross-document link-integrity
    closure (its link graph is validated acyclic per index) generalized to
    cyclic web host graphs.

    Driver-small graphs (node count ≤ ``local_max_nodes``, the triangle
    family's gate — hosts, not pages) skip the rounds entirely: the
    DISTINCT host-level edge list is collected once and an iterative
    Tarjan runs driver-side (measured 17 s → <1 s on the 1001-host sf0.1
    graph). The distributed path is asserted equal in pytest and remains
    the >local_max_nodes route.

    Returns (node, scc_id) with scc_id = min node id of the SCC.
    """
    def orient(batch: pa.Table) -> pa.Table:
        a = batch[src_col].combine_chunks().cast(pa.string())
        b = batch[dst_col].combine_chunks().cast(pa.string())
        t = pa.table({"a": a, "b": b})
        t = t.filter(pc.and_(pc.and_(pc.is_valid(a), pc.is_valid(b)),
                             pc.invert(pc.equal(a, b))))
        return t.group_by(["a", "b"]).aggregate([])  # per-batch distinct

    active_edges = edges.map_batches(orient, batch_size=16384,
                                     batch_format="pyarrow").materialize()
    nodes, n_active = self_labels(active_edges, ["a", "b"])

    if n_active <= local_max_nodes:
        et = pa.concat_tables(
            active_edges.iter_batches(batch_format="pyarrow",
                                      batch_size=None))
        pairs = (et.group_by(["a", "b"]).aggregate([])
                 if et.num_rows else et)
        return rd.from_arrow(_tarjan_local(
            pairs["a"].to_pylist() if pairs.num_rows else [],
            pairs["b"].to_pylist() if pairs.num_rows else []))

    color_schema = pa.schema([("node", pa.string()), ("color", pa.string())])
    settled: list = []
    while n_active:
        if active_edges.count() == 0:
            # no edges left: every remaining node is its own singleton SCC
            settled += nodes
            break
        # 1. forward min-color to fixpoint
        colors = min_fixpoint(active_edges.to_arrow_refs(), nodes, 0,
                              "scc_coloring.color")
        cds = state_dataset(colors, color_schema).materialize()
        # 2. class-internal reversed edges: the flag flows dst -> src
        ec = exchange_join(active_edges, cds, "a", "node",
                           coalesce_keys=False).map_batches(
            lambda t: pa.table({"a": t["a"], "b": t["b"],
                                "ca": t["color"]}),
            batch_format="pyarrow")
        within = exchange_join(ec, cds, "b", "node",
                               coalesce_keys=False).map_batches(
            lambda t: t.filter(pc.equal(t["ca"], t["color"]))
                       .select(["b", "a"]).rename_columns(["a", "b"]),
            batch_format="pyarrow").materialize()
        flags = min_fixpoint(within.to_arrow_refs(),
                             [_roots.remote(c) for c in colors], 0,
                             "scc_coloring.flag")
        # 3. settle flagged nodes (v = their root = scc_id), shrink the
        # active graph; settled state stays as refs
        settled += flags
        rest = [_unsettled.remote(c, f) for c, f in zip(colors, flags)]
        nodes = [r[0] for r in rest]
        n_active = sum(ray.get([r[1] for r in rest]))
        if n_active:
            fds = state_dataset(flags, color_schema).materialize()
            alive = exchange_join(active_edges, fds, "a", "node",
                                  how="left_anti")
            active_edges = exchange_join(alive, fds, "b", "node",
                                         how="left_anti").materialize()
    return state_dataset(settled, pa.schema([("node", pa.string()),
                                             ("scc_id", pa.string())]))


def bowtie_parts(edges: rd.Dataset, src_col: str, dst_col: str) -> rd.Dataset:
    """Bowtie decomposition (Broder et al. 2000) of a directed graph:
    each node classified GSCC / IN / OUT / OTHER relative to the giant
    strongly connected component. Composition of scale components:
    ``scc_coloring`` finds the core; its size table picks the giant
    (ties broken by min scc_id, deterministic); TWO frontier-only
    ``bfs_depth`` runs seeded at the core's canonical min host —
    reachability from ONE member equals reachability from the whole
    SCC, so the seed is a single node regardless of core size — forward
    for OUT, on reversed edges for IN; classification is two left-outer
    hash joins + a vectorized if_else chain. A node holding both flags
    is mutually connected to the core, hence ALREADY in GSCC — the CASE
    order is total. Returns (node, part)."""
    def orient(batch: pa.Table) -> pa.Table:
        a = batch[src_col].combine_chunks().cast(pa.string())
        b = batch[dst_col].combine_chunks().cast(pa.string())
        return pa.table({"s": a, "d": b}).group_by(["s", "d"]).aggregate([])

    e = edges.map_batches(orient, batch_format="pyarrow").materialize()
    scc = scc_coloring(e, "s", "d").materialize()

    sizes = partial_groupby_agg(
        scc.map_batches(lambda t: pa.table({
            "scc_id": t["scc_id"],
            "one": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow"),
        ["scc_id"], [("one", "sum", "n")])
    giant = topk(sizes, [("n", True), ("scc_id", False)], 1) \
        .take_all()[0]["scc_id"]

    fwd = bfs_depth(e, "s", "d", seeds=[giant]).map_batches(
        lambda t: pa.table({"node": t["node"], "f": pa.array(
            np.ones(t.num_rows, np.int8))}), batch_format="pyarrow")
    bwd = bfs_depth(e, "d", "s", seeds=[giant]).map_batches(
        lambda t: pa.table({"node": t["node"], "r": pa.array(
            np.ones(t.num_rows, np.int8))}), batch_format="pyarrow")

    j = exchange_join(scc, fwd, "node", "node",
                      how="left_outer").materialize()
    j = exchange_join(j, bwd, "node", "node",
                      how="left_outer").materialize()

    def classify(t: pa.Table, giant=giant) -> pa.Table:
        is_g = pc.equal(t["scc_id"], giant)
        part = pc.if_else(
            is_g, "GSCC",
            pc.if_else(pc.is_valid(t["f"]), "OUT",
                       pc.if_else(pc.is_valid(t["r"]), "IN", "OTHER")))
        return pa.table({"node": t["node"],
                         "part": part.cast(pa.string())})

    return j.map_batches(classify, batch_format="pyarrow")
