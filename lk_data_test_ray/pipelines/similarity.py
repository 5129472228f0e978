"""Approximate-nearest-neighbor search over an embedding column.

No reference analog (the reference joins on exact string keys only,
SURVEY.md §2.4) — this is the 'Beyond the reference' similarity-search
component: brute-force cosine top-k as the exact baseline, and an LSH
(random-hyperplane) bucketed variant as the scale path.

Scale shape (brute force): the query matrix is broadcast ONCE via ``ray.put``
(never re-shipped per batch), each batch does one float64 matmul against it,
and only per-batch top-k survivors (k × n_queries rows per batch) flow into
the final merge — the full similarity matrix never materializes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..relational import map_groups, topk_per_key


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)


class BruteForceScorer:
    """Actor: cosine of every batch row against the broadcast query matrix."""

    def __init__(self, queries_ref, id_col: str, vec_col: str, k: int):
        qids, qmat = ray.get(queries_ref)
        self.qids = qids
        self.qmat = _normalize(qmat.astype(np.float64))
        self.id_col, self.vec_col, self.k = id_col, vec_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[self.id_col].to_pylist())
        mat = np.asarray(batch[self.vec_col].to_pylist(), dtype=np.float64)
        cos = self.qmat @ _normalize(mat).T  # (n_q, n_batch)
        # self-matches excluded
        self_mask = ids[None, :] == self.qids[:, None]
        cos[self_mask] = -np.inf
        k = min(self.k, cos.shape[1])
        # per-query local top-k (argpartition: O(n) per query)
        part = np.argpartition(-cos, k - 1, axis=1)[:, :k]
        out_q, out_n, out_c = [], [], []
        for qi in range(cos.shape[0]):
            sel = part[qi]
            keep = np.isfinite(cos[qi, sel])
            out_q.extend([self.qids[qi]] * int(keep.sum()))
            out_n.extend(ids[sel[keep]])
            out_c.extend(cos[qi, sel[keep]])
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        })


def _final_topk(partial: rd.Dataset, k: int) -> rd.Dataset:
    """The global top-k of each query's local candidates, in the
    deterministic total order cos desc, neighbor_id asc, as
    (query_id, neighbor_id, rank) with a 1-based rank."""

    def ranked(tbl: pa.Table) -> pa.Table:
        # one block per hash range, sorted by query then rank order
        q = tbl["query_id"].to_numpy(zero_copy_only=False)
        new = np.ones(len(q), bool)
        new[1:] = q[1:] != q[:-1]
        starts = np.flatnonzero(new)
        rank = np.arange(len(q)) - np.repeat(
            starts, np.diff(np.append(starts, len(q)))) + 1
        return pa.table({"query_id": tbl["query_id"],
                         "neighbor_id": tbl["neighbor_id"],
                         "rank": pa.array(rank, pa.int64())})

    return topk_per_key(partial, "query_id",
                        [("cos", True), ("neighbor_id", False)], k) \
        .map_batches(ranked, batch_format="pyarrow", batch_size=None)


_SCORER_CACHE: dict = {}


def ann_brute_force(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    k: int = 5, concurrency=None) -> rd.Dataset:
    """Exact cosine top-k: (query_id, neighbor_id, rank), rank 1-based.

    Runs as STATELESS tasks with the scorer cached once per worker process
    (keyed by the broadcast ref): the scorer's only state is the normalized
    query matrix, and an actor pool pays ~0.5 s spin-up per actor per
    execution for that trivial state (the relational.broadcast_join
    rationale applies verbatim)."""
    ref = ray.put(queries)

    def score(batch: pa.Table) -> pa.Table:
        key = ref.hex()
        sc = _SCORER_CACHE.get(key)
        if sc is None:
            sc = BruteForceScorer(ref, id_col, vec_col, k)
            _SCORER_CACHE[key] = sc
        return sc(batch)

    kwargs = dict(batch_format="pyarrow")
    if concurrency is not None:
        kwargs["concurrency"] = concurrency
    partial = ds.map_batches(score, **kwargs)
    return _final_topk(partial, k)


def ann_filtered(ds: rd.Dataset, queries, id_col: str = "vec_id",
                 vec_col: str = "embedding", label_col: str = "label",
                 k: int = 5) -> rd.Dataset:
    """Metadata-FILTERED exact top-k (the filtered-search mode every
    modern vector store exposes — 'nearest neighbors WHERE label = X'):
    per query, top-k cosine among rows whose label equals the query's
    own. The predicate mask is applied INSIDE the batch scorer (post-
    filtering on the score matrix: one vectorized compare per batch, no
    second pass, no re-scan at lower selectivity), so the data layout
    and the scan cost are identical to ``ann_brute_force`` — at 10¹²
    vectors the same mask composes with the IVF/PQ shortlist stages.

    ``queries`` is (qids, qmat, qlabels)."""
    ref = ray.put(queries)

    def score(batch: pa.Table) -> pa.Table:
        key = ("filt", ref.hex())
        st = _SCORER_CACHE.get(key)
        if st is None:
            qids, qmat, qlabels = ray.get(ref)
            st = (qids, _normalize(qmat.astype(np.float64)),
                  np.asarray(qlabels))
            _SCORER_CACHE[key] = st
        qids, qmat, qlabels = st
        ids = np.asarray(batch[id_col].to_pylist())
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        mat = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        cos = qmat @ _normalize(mat).T
        drop = (ids[None, :] == qids[:, None]) \
            | (labels[None, :] != qlabels[:, None])
        cos[drop] = -np.inf
        kk = min(k, cos.shape[1])
        part = np.argpartition(-cos, kk - 1, axis=1)[:, :kk]
        out_q, out_n, out_c = [], [], []
        for qi in range(cos.shape[0]):
            sel = part[qi]
            keep = np.isfinite(cos[qi, sel])
            out_q.extend([qids[qi]] * int(keep.sum()))
            out_n.extend(ids[sel[keep]])
            out_c.extend(cos[qi, sel[keep]])
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        })

    partial = ds.map_batches(score, batch_format="pyarrow")
    return _final_topk(partial, k)


def load_queries_with_labels(sf_dir: str, n_queries: int = 10,
                             id_col: str = "vec_id",
                             vec_col: str = "embedding",
                             label_col: str = "label"):
    """First n_queries embeddings (by id) plus their labels."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=[id_col, vec_col, label_col])
    ids = np.asarray(t[id_col].to_pylist())
    order = np.argsort(ids)[:n_queries]
    qids = ids[order]
    qmat = np.asarray([t[vec_col][int(i)].as_py() for i in order],
                      dtype=np.float64)
    qlabels = np.asarray([t[label_col][int(i)].as_py() for i in order])
    return qids, qmat, qlabels


# ---------------------------------------------------------------------------
# LSH-bucketed variant (scale path)
# ---------------------------------------------------------------------------


def _planes(dim: int, n_planes: int, seed: int = 11) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n_planes, dim))


class LshBucketer:
    """Sign-random-projection bucket id per vector (+ multiprobe neighbors)."""

    def __init__(self, dim: int, n_planes: int, seed: int, multiprobe: int):
        self.planes = _planes(dim, n_planes, seed)
        self.multiprobe = multiprobe
        self.n_planes = n_planes

    def buckets_for(self, mat: np.ndarray) -> list[list[int]]:
        bits = (mat @ self.planes.T) > 0  # (n, planes)
        base = (bits.astype(np.uint64)
                << np.arange(self.n_planes, dtype=np.uint64)).sum(axis=1)
        out = []
        for i in range(mat.shape[0]):
            b = [int(base[i])]
            for p in range(min(self.multiprobe, self.n_planes)):
                b.append(int(base[i]) ^ (1 << p))  # flip one plane
            out.append(b)
        return out


class LshAssign:
    def __init__(self, dim, n_planes, seed, multiprobe, id_col, vec_col,
                 probe: bool):
        self.b = LshBucketer(dim, n_planes, seed, multiprobe if probe else 0)
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[self.id_col].to_pylist())
        mat = np.asarray(batch[self.vec_col].to_pylist(), dtype=np.float64)
        bks = self.b.buckets_for(_normalize(mat))
        out_i, out_b, out_v = [], [], []
        for i, bl in enumerate(bks):
            for bk in bl:
                out_i.append(ids[i])
                out_b.append(bk)
                out_v.append(mat[i])
        return pa.table({
            self.id_col: pa.array(out_i, pa.int64()),
            "bucket": pa.array(out_b, pa.int64()),
            self.vec_col: pa.array(out_v),
        })


def ann_lsh(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
            id_col: str = "vec_id", vec_col: str = "embedding", k: int = 5,
            n_planes: int = 8, seed: int = 11, multiprobe: int = 4) -> rd.Dataset:
    """Approximate top-k: compare queries only against same-bucket vectors.

    Dataset side: each vector lands in exactly one bucket (no row blowup);
    query side: multiprobe (flip one plane) widens recall. Returns the same
    (query_id, neighbor_id, rank) layout as the brute-force baseline so
    recall@k can be measured directly against it.
    """
    qids, qmat = queries
    dim = qmat.shape[1]
    assigned = ds.map_batches(
        LshAssign, fn_constructor_kwargs=dict(
            dim=dim, n_planes=n_planes, seed=seed, multiprobe=multiprobe,
            id_col=id_col, vec_col=vec_col, probe=False),
        batch_format="pyarrow", concurrency=2, max_restarts=0)

    qb = LshBucketer(dim, n_planes, seed, multiprobe)
    qnorm = _normalize(qmat.astype(np.float64))
    qbuckets = qb.buckets_for(qnorm)
    # bucket → list of query indices probing it (small: broadcast)
    probe_map: dict[int, list[int]] = {}
    for qi, bl in enumerate(qbuckets):
        for bk in bl:
            probe_map.setdefault(bk, []).append(qi)
    probe_ref = ray.put((probe_map, qids, qnorm))

    class ScoreBuckets:
        def __init__(self, ref, kk):
            self.probe_map, self.qids, self.qnorm = ray.get(ref)
            self.k = kk

        def __call__(self, batch: pa.Table) -> pa.Table:
            out_q, out_n, out_c = [], [], []
            buckets = np.asarray(batch["bucket"].to_pylist())
            ids = np.asarray(batch[id_col].to_pylist())
            mat = _normalize(np.asarray(batch[vec_col].to_pylist(),
                                        dtype=np.float64))
            for bk in np.unique(buckets):
                qis = self.probe_map.get(int(bk))
                if not qis:
                    continue
                sel = buckets == bk
                sub_ids, sub = ids[sel], mat[sel]
                cos = self.qnorm[qis] @ sub.T
                for row, qi in enumerate(qis):
                    mask = sub_ids != self.qids[qi]
                    out_q.extend([self.qids[qi]] * int(mask.sum()))
                    out_n.extend(sub_ids[mask])
                    out_c.extend(cos[row][mask])
            return pa.table({
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cos": pa.array(out_c, pa.float64()),
            })

    scored = assigned.map_batches(
        ScoreBuckets, fn_constructor_kwargs=dict(ref=probe_ref, kk=k),
        batch_format="pyarrow", concurrency=2, max_restarts=0)

    def merge(group: pa.Table) -> pa.Table:
        nid = np.asarray(group["neighbor_id"].to_pylist())
        cos = np.asarray(group["cos"].to_pylist())
        # multiprobe may see the same neighbor via several buckets → dedup
        uniq, first = np.unique(nid, return_index=True)
        cos = cos[first]
        order = np.lexsort((uniq, -cos))[:k]
        qid = group["query_id"][0].as_py()
        return pa.table({
            "query_id": pa.array([qid] * len(order), pa.int64()),
            "neighbor_id": pa.array(uniq[order], pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
        })

    return map_groups(scored, "query_id", merge)


def _pq_train(sample: np.ndarray, m: int, codes: int, n_iter: int = 10,
              seed: int = 13) -> np.ndarray:
    """(m, codes, d/m) subspace codebooks: plain L2 Lloyd per subspace on a
    driver-side sample (seeded init, fixed iterations — run-stable)."""
    n, d = sample.shape
    sub = d // m
    rng = np.random.default_rng(seed)
    books = np.empty((m, codes, sub), dtype=np.float64)
    for j in range(m):
        X = sample[:, j * sub:(j + 1) * sub]
        init = rng.choice(len(X), size=min(codes, len(X)), replace=False)
        C = X[np.sort(init)].copy()
        for _ in range(n_iter):
            d2 = ((X * X).sum(1)[:, None] - 2.0 * (X @ C.T)
                  + (C * C).sum(1)[None, :])
            a = np.argmin(d2, axis=1)
            for c in range(len(C)):
                mem = X[a == c]
                if len(mem):
                    C[c] = mem.mean(axis=0)
        books[j, :len(C)] = C
        if len(C) < codes:
            books[j, len(C):] = C[-1]
    return books


def pq_encode(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) uint8 PQ codes: argmin-L2 per subspace — one matmul each."""
    m, codes, sub = books.shape
    out = np.empty((len(mat), m), dtype=np.uint8)
    for j in range(m):
        X = mat[:, j * sub:(j + 1) * sub]
        C = books[j]
        d2 = ((X * X).sum(1)[:, None] - 2.0 * (X @ C.T)
              + (C * C).sum(1)[None, :])
        out[:, j] = np.argmin(d2, axis=1)
    return out


def ann_pq(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
           id_col: str = "vec_id", vec_col: str = "embedding", k: int = 5,
           m: int = 8, codes: int = 16, train_sample: int = 2048,
           seed: int = 13) -> rd.Dataset:
    """Product-quantized ANN (Jégou et al., TPAMI 2011): each vector
    compresses to ``m`` uint8 codes (64 float32 dims → 8 bytes here, the
    memory path that lets a 10^12-vector index fit a cluster); queries
    score candidates by asymmetric distance (ADC) — per-query distance
    TABLES to every codebook entry, so scoring a batch is ``m`` table
    lookups per vector, no float vector ever re-read.

    Same output contract as ``ann_brute_force`` (query_id, neighbor_id,
    rank); recall vs the exact top-k is pytest-asserted. Codebooks train on
    a driver sample and broadcast once; encode + score fuse into one
    stateless map over the dataset."""
    qids, qmat = queries
    sample_rows = ds.limit(train_sample).to_pandas()
    sample = _normalize(np.asarray(list(sample_rows[vec_col]),
                                   dtype=np.float64))
    books = _pq_train(sample, m, codes, seed=seed)
    qnorm = _normalize(qmat.astype(np.float64))
    # (nq, m, codes) ADC tables: ||q_sub - c||² per codebook entry
    sub = books.shape[2]
    tables = np.empty((len(qnorm), m, codes), dtype=np.float64)
    for j in range(m):
        Q = qnorm[:, j * sub:(j + 1) * sub]
        C = books[j]
        tables[:, j, :] = ((Q * Q).sum(1)[:, None] - 2.0 * (Q @ C.T)
                           + (C * C).sum(1)[None, :])
    state = ray.put((books, tables, qids))

    def score(batch: pa.Table) -> pa.Table:
        bks, tbls, qq = ray.get(state)
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(np.asarray(batch[vec_col].to_pylist(),
                                    dtype=np.float64))
        code = pq_encode(mat, bks)  # (n, m)
        # ADC: d2[q, i] = Σ_j tbls[q, j, code[i, j]]
        d2 = np.zeros((len(qq), len(ids)), dtype=np.float64)
        for j in range(bks.shape[0]):
            d2 += tbls[:, j, code[:, j]]
        out_q, out_n, out_c = [], [], []
        kk = min(k, len(ids))
        for qi in range(len(qq)):
            row = d2[qi]
            mask = ids != qq[qi]
            cand = np.flatnonzero(mask)
            top = cand[np.argsort(row[cand], kind="stable")[:kk]]
            out_q.extend([qq[qi]] * len(top))
            out_n.extend(ids[top])
            # approx cosine from ADC distance (normalized vectors:
            # L2² = 2 - 2cos) — keeps _final_topk's ordering contract
            out_c.extend(1.0 - row[top] / 2.0)
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        })

    partial = ds.map_batches(score, batch_format="pyarrow")
    return _final_topk(partial, k)


def ann_refine(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
               id_col: str = "vec_id", vec_col: str = "embedding",
               k: int = 5, shortlist: int = 32, m: int = 8,
               codes: int = 16, train_sample: int = 2048,
               seed: int = 13) -> rd.Dataset:
    """Two-stage ANN: PQ shortlist → EXACT rerank (the standard
    recall-restoring pattern every production vector index runs —
    FAISS's ``IndexRefineFlat`` shape): per batch, asymmetric-distance
    tables rank all rows cheaply, the top-``shortlist`` per query are
    rescored with the TRUE float cosine (the batch's vectors are still
    in hand, so the rerank costs ``shortlist`` dot products instead of
    a second fetch), and only exact-scored candidates reach the global
    top-k merge. Exact top-k is recovered whenever every true neighbor
    ranks within ``shortlist`` of its own batch under PQ — recall-1 on
    the fixture is pytest-asserted and the driver entry carries the
    same exact-top-k oracle as ``s_ann_topk``.

    At 10¹²-vector scale the shortlist bound is what matters: exact
    math touches ``shortlist × n_queries`` vectors per batch, not the
    batch — the ADC scan stays the only full pass."""
    qids, qmat = queries
    sample_rows = ds.limit(train_sample).to_pandas()
    sample = _normalize(np.asarray(list(sample_rows[vec_col]),
                                   dtype=np.float64))
    books = _pq_train(sample, m, codes, seed=seed)
    qnorm = _normalize(qmat.astype(np.float64))
    sub = books.shape[2]
    tables = np.empty((len(qnorm), m, codes), dtype=np.float64)
    for j in range(m):
        Q = qnorm[:, j * sub:(j + 1) * sub]
        C = books[j]
        tables[:, j, :] = ((Q * Q).sum(1)[:, None] - 2.0 * (Q @ C.T)
                           + (C * C).sum(1)[None, :])
    state = ray.put((books, tables, qids, qnorm))

    def score(batch: pa.Table) -> pa.Table:
        bks, tbls, qq, qn = ray.get(state)
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(np.asarray(batch[vec_col].to_pylist(),
                                    dtype=np.float64))
        code = pq_encode(mat, bks)
        d2 = np.zeros((len(qq), len(ids)), dtype=np.float64)
        for j in range(bks.shape[0]):
            d2 += tbls[:, j, code[:, j]]
        out_q, out_n, out_c = [], [], []
        r = min(shortlist, len(ids))
        for qi in range(len(qq)):
            cand = np.flatnonzero(ids != qq[qi])
            short = cand[np.argsort(d2[qi, cand], kind="stable")[:r]]
            exact = mat[short] @ qn[qi]          # the rerank: true cosine
            out_q.extend([qq[qi]] * len(short))
            out_n.extend(ids[short])
            out_c.extend(exact)
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        })

    partial = ds.map_batches(score, batch_format="pyarrow")
    return _final_topk(partial, k)


def ann_ivfpq(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
              id_col: str = "vec_id", vec_col: str = "embedding", k: int = 5,
              n_cells: int = 16, nprobe: int = 4, m: int = 8, codes: int = 16,
              train_sample: int = 2048, seed: int = 13) -> rd.Dataset:
    """IVF-PQ (Jégou et al., TPAMI 2011, §IV): the billion-vector layout —
    a coarse quantizer routes each vector to a cell, and the RESIDUAL
    (vector − cell centroid) compresses to ``m`` uint8 codes. Queries probe
    ``nprobe`` cells with a per-(query, cell) asymmetric-distance table
    over the residual codebooks, so the scan touches ~nprobe/n_cells of
    the data at ~d/m of the bytes — both reductions compound.

    Same output contract as ``ann_brute_force``; recall vs exact top-k is
    pytest-asserted. All state (centroids + codebooks + ADC tables) trains
    on a driver sample and broadcasts once."""
    qids, qmat = queries
    sample_rows = ds.limit(train_sample).to_pandas()
    sample = _normalize(np.asarray(list(sample_rows[vec_col]),
                                   dtype=np.float64))
    cents = train_centroids(sample, n_cells, seed=seed)
    s_cells = np.argmax(sample @ cents.T, axis=1)
    books = _pq_train(sample - cents[s_cells], m, codes, seed=seed)

    qnorm = _normalize(qmat.astype(np.float64))
    q_cells = np.argsort(-(qnorm @ cents.T), axis=1)[:, :nprobe]
    sub = books.shape[2]
    # tables[qi][cell] = (m, codes) ADC table over residual (q − centroid)
    cell_tables: dict[int, dict[int, np.ndarray]] = {}
    for qi in range(len(qnorm)):
        for c in q_cells[qi]:
            r = qnorm[qi] - cents[int(c)]
            t = np.empty((m, codes), dtype=np.float64)
            for j in range(m):
                R = r[j * sub:(j + 1) * sub]
                C = books[j]
                t[j] = (R @ R) - 2.0 * (C @ R) + (C * C).sum(1)
            cell_tables.setdefault(int(c), {})[qi] = t
    state = ray.put((cents, books, cell_tables, qids))

    def score(batch: pa.Table) -> pa.Table:
        cts, bks, tbls, qq = ray.get(state)
        ids = np.asarray(batch[id_col].to_pylist())
        mat = _normalize(np.asarray(batch[vec_col].to_pylist(),
                                    dtype=np.float64))
        cells = np.argmax(mat @ cts.T, axis=1)
        out_q, out_n, out_c = [], [], []
        for c in np.unique(cells):
            probing = tbls.get(int(c))
            if not probing:
                continue
            sel = cells == c
            sub_ids = ids[sel]
            code = pq_encode(mat[sel] - cts[int(c)], bks)   # (n, m)
            for qi, t in probing.items():
                d2 = np.zeros(len(sub_ids), dtype=np.float64)
                for j in range(bks.shape[0]):
                    d2 += t[j, code[:, j]]
                mask = sub_ids != qq[qi]
                out_q.extend([qq[qi]] * int(mask.sum()))
                out_n.extend(sub_ids[mask])
                out_c.extend(1.0 - d2[mask] / 2.0)
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        })

    partial = ds.map_batches(score, batch_format="pyarrow")
    return _final_topk(partial, k)


def load_queries(sf_dir: str, n_queries: int = 10,
                 id_col: str = "vec_id", vec_col: str = "embedding"):
    """First n_queries embeddings (by id) as the broadcastable query matrix."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=[id_col, vec_col])
    ids = np.asarray(t[id_col].to_pylist())
    order = np.argsort(ids)[:n_queries]
    qids = ids[order]
    qmat = np.asarray([t[vec_col][int(i)].as_py() for i in order], dtype=np.float64)
    return qids, qmat


# ---------------------------------------------------------------------------
# IVF variant: coarse quantizer (deterministic k-means) + nprobe search
# ---------------------------------------------------------------------------


def train_centroids(sample: np.ndarray, n_cells: int, n_iter: int = 10,
                    seed: int = 13) -> np.ndarray:
    """Deterministic mini k-means on a driver-side sample (the coarse
    quantizer of an IVF index; seeded init, fixed iteration count — identical
    across runs and workers)."""
    rng = np.random.default_rng(seed)
    sample = _normalize(sample.astype(np.float64))
    init = rng.choice(len(sample), size=min(n_cells, len(sample)),
                      replace=False)
    cents = sample[np.sort(init)].copy()
    for _ in range(n_iter):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


def ann_ivf(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
            id_col: str = "vec_id", vec_col: str = "embedding", k: int = 5,
            n_cells: int = 16, nprobe: int = 4, train_sample: int = 2048,
            seed: int = 13) -> rd.Dataset:
    """IVF-bucketed ANN: assign every vector to its nearest centroid cell;
    each query scores only vectors in its ``nprobe`` nearest cells.

    Scale path for similarity search (SURVEY.md 'Beyond' item): the dataset
    side is one extra int column + a cell-partitioned probe — candidate sets
    shrink by ~n_cells/nprobe versus brute force. Centroids are trained on a
    driver-side sample and broadcast once.
    """
    qids, qmat = queries
    sample_rows = ds.limit(train_sample).to_pandas()
    sample = np.asarray(list(sample_rows[vec_col]), dtype=np.float64)
    cents = train_centroids(sample, n_cells, seed=seed)
    qnorm = _normalize(qmat.astype(np.float64))
    # query → its nprobe nearest cells
    q_cells = np.argsort(-(qnorm @ cents.T), axis=1)[:, :nprobe]
    cell_to_queries: dict[int, list[int]] = {}
    for qi, cells in enumerate(q_cells):
        for c in cells:
            cell_to_queries.setdefault(int(c), []).append(qi)
    state_ref = ray.put((cents, cell_to_queries, qids, qnorm))

    class ScoreCells:
        def __init__(self, ref, kk):
            (self.cents, self.cell_to_queries, self.qids,
             self.qnorm) = ray.get(ref)
            self.k = kk

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch[id_col].to_pylist())
            mat = _normalize(np.asarray(batch[vec_col].to_pylist(),
                                        dtype=np.float64))
            cells = np.argmax(mat @ self.cents.T, axis=1)
            out_q, out_n, out_c = [], [], []
            for c in np.unique(cells):
                qis = self.cell_to_queries.get(int(c))
                if not qis:
                    continue
                sel = cells == c
                sub_ids, sub = ids[sel], mat[sel]
                cos = self.qnorm[qis] @ sub.T
                for row, qi in enumerate(qis):
                    mask = sub_ids != self.qids[qi]
                    out_q.extend([self.qids[qi]] * int(mask.sum()))
                    out_n.extend(sub_ids[mask])
                    out_c.extend(cos[row][mask])
            return pa.table({
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cos": pa.array(out_c, pa.float64()),
            })

    def score_cells(batch: pa.Table) -> pa.Table:
        # stateless task + per-worker cache (same rationale as
        # ann_brute_force: centroid/query state is trivial, actor-pool
        # spin-up is not)
        key = state_ref.hex()
        sc = _SCORER_CACHE.get(key)
        if sc is None:
            sc = ScoreCells(state_ref, k)
            _SCORER_CACHE[key] = sc
        return sc(batch)

    scored = ds.map_batches(score_cells, batch_format="pyarrow")
    return _final_topk(scored, k)


def radius_search(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
                  threshold: float, id_col: str = "vec_id",
                  vec_col: str = "embedding",
                  round_digits: int = 9) -> rd.Dataset:
    """RANGE (radius) similarity search: every (query, vector) pair with
    cosine ≥ ``threshold`` — the "all neighbors within ε" mode (dedup
    candidate generation, near-duplicate audits) where top-k's fixed cut
    is wrong because the true neighbor count varies per query.

    Same scale shape as ``ann_brute_force``: the normalized query matrix
    broadcast once via ``ray.put``, one numpy matmul per batch, rows
    emitted only when they clear the threshold — output-bound, no
    per-query state, no shuffle at all (the result needs no merge step,
    unlike top-k). Self-pairs excluded."""
    ref = ray.put(queries)
    from ..relational import round_half_away

    def score(batch: pa.Table) -> pa.Table:
        key = ("radius", ref.hex())
        st = _SCORER_CACHE.get(key)
        if st is None:
            qids, qmat = ray.get(ref)
            st = (np.asarray(qids), _normalize(qmat.astype(np.float64)))
            _SCORER_CACHE[key] = st
        qids, qmat = st
        ids = np.asarray(batch[id_col].to_pylist())
        mat = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        cos = qmat @ _normalize(mat).T  # (n_q, n_batch)
        cos[ids[None, :] == qids[:, None]] = -np.inf
        qi, bi = np.nonzero(cos >= threshold)
        return pa.table({
            "query_id": pa.array(qids[qi], pa.int64()),
            "neighbor_id": pa.array(ids[bi], pa.int64()),
            "cos": pa.array(round_half_away(cos[qi, bi], round_digits),
                            pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow")


def knn_classify(ds: rd.Dataset, queries: tuple[np.ndarray, np.ndarray],
                 k: int = 5, id_col: str = "vec_id",
                 vec_col: str = "embedding",
                 label_col: str = "label") -> pa.Table:
    """k-NN label prediction: each query's label is the MAJORITY vote of
    its exact top-k cosine neighbors' labels (tie → smallest label id) —
    the classifier shape every vector store demos, composed from the
    existing brute-force scorer: the per-batch local top-k also carries
    the label column, the per-query merge re-cuts to the global top-k
    and votes. Deterministic (the top-k cut itself is the ann_brute_force
    total order), so the vote is exactly reproducible in SQL."""
    ref = ray.put(queries)

    def score(batch: pa.Table) -> pa.Table:
        key = ("knn", ref.hex())
        st = _SCORER_CACHE.get(key)
        if st is None:
            qids, qmat = ray.get(ref)
            st = (np.asarray(qids), _normalize(qmat.astype(np.float64)))
            _SCORER_CACHE[key] = st
        qids, qmat = st
        ids = np.asarray(batch[id_col].to_pylist())
        labels = np.asarray(batch[label_col].to_pylist())
        mat = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        cos = qmat @ _normalize(mat).T
        cos[ids[None, :] == qids[:, None]] = -np.inf
        kk = min(k, cos.shape[1])
        part = np.argpartition(-cos, kk - 1, axis=1)[:, :kk]
        out_q, out_n, out_l, out_c = [], [], [], []
        for qi in range(cos.shape[0]):
            sel = part[qi]
            keep = np.isfinite(cos[qi, sel])
            out_q.extend([qids[qi]] * int(keep.sum()))
            out_n.extend(ids[sel[keep]])
            out_l.extend(labels[sel[keep]])
            out_c.extend(cos[qi, sel[keep]])
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_n, pa.int64()),
            "nlabel": pa.array(np.asarray(out_l, np.int64), pa.int64()),
            "cos": pa.array(out_c, pa.float64())})

    partial = ds.map_batches(score, batch_format="pyarrow")

    def vote(group: pa.Table) -> pa.Table:
        nid = np.asarray(group["neighbor_id"].to_pylist())
        lab = np.asarray(group["nlabel"].to_pylist())
        cos = np.asarray(group["cos"].to_pylist())
        order = np.lexsort((nid, -cos))[:k]   # the ann_brute_force cut
        vals, cnts = np.unique(lab[order], return_counts=True)
        best = vals[cnts == cnts.max()].min()  # tie -> smallest label
        qid = group["query_id"][0].as_py()
        return pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "pred_label": pa.array([int(best)], pa.int64()),
            "n_votes": pa.array([int(cnts.max())], pa.int64())})

    out = map_groups(partial, "query_id", vote)
    return pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow",
                                     batch_size=None) if b.num_rows])
