"""Distributed ALS matrix factorization (the recommender / embedding-
imputation shape): factor a sparse (user × item) rating matrix into
rank-r user and item factors by alternating least squares.

No reference analog (the reference has no ML stage); this completes the
repo's iterative-ML family (hashed logreg ``classifier.py``, k-means /
PCA ``similarity.py``) with the collaborative-filtering member.

Scale shape — the part that matters at 10⁹ users:
  * ratings are hash-exchanged on user ONCE and the partition layout is
    reused across every iteration (the exchange is the expensive part;
    ALS iterations must not repeat it);
  * the ITEM side is assumed driver-small (event types, products —
    thousands at most) and broadcast per iteration, the standard ALS
    asymmetry (Hu-Koren-Volinsky style implicit ALS deployments do the
    same: user factors sharded, item factors replicated);
  * one pass per iteration: each user partition solves its users'
    closed-form 3×3 systems as ONE batched ``np.linalg.solve`` (no
    per-user Python), then immediately emits per-item sufficient-stat
    partials (Σ u·uᵀ + Σ r·u, flattened to r²+r floats per item) from
    the same in-memory rows — so the item update costs one tiny
    (items × (r²+r)) driver fold, never a second data shuffle;
  * deterministic: seeded item-factor init, fixed iteration count, and
    per-partition sums ordered by (user, item) sort — reruns are
    bit-identical on the same partitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..relational import hash_repartition_map, round_half_away


def als_factorize(ratings: rd.Dataset, user_col: str, item_col: str,
                  value_col: str, rank: int = 3, iters: int = 8,
                  reg: float = 0.1, seed: int = 17):
    """Returns ``(user_parts, item_ids, Q)``: a list of per-partition
    Ray object refs holding (user_ids, U-factor matrix) plus the final
    driver-side item factor matrix. Items must be driver-small."""
    parts = _exchanged_parts(ratings, user_col, item_col, value_col)
    return _als_from_parts(parts, rank, iters, reg, seed)


def _exchanged_parts(ratings: rd.Dataset, user_col: str, item_col: str,
                     value_col: str) -> rd.Dataset:
    """ONE hash exchange on user; every iteration reuses this layout."""
    return hash_repartition_map(
        ratings.map_batches(
            lambda t: pa.table({
                "u": t[user_col], "i": t[item_col].cast(pa.string()),
                "r": t[value_col].cast(pa.float64())}),
            batch_format="pyarrow"),
        "u", lambda t: t).materialize()


def als_recommend(ratings: rd.Dataset, user_col: str, item_col: str,
                  value_col: str, rank: int = 3, iters: int = 8,
                  reg: float = 0.1, seed: int = 17,
                  round_digits: int = 6) -> pa.Table:
    """Top-1 UNSEEN-item recommendation per user from the ALS factors:
    the collaborative-filtering query shape ("which event type is this
    user most likely to emit next that they never have?"). Seen (user,
    item) pairs are masked per partition from the partition's own rating
    rows — nothing but the tiny item-factor matrix leaves the driver.

    Returns (user_id, rec_item, score) — deterministic under the seed;
    iterative least squares has no SQL oracle (rows-only), convergence /
    reconstruction / determinism are pytest-asserted."""
    parts = _exchanged_parts(ratings, user_col, item_col, value_col)
    # reuse the SAME materialized partitions for factorization
    user_parts, item_ids, Q = _als_from_parts(parts, rank, iters, reg,
                                              seed)

    @ray.remote
    def recommend(tbl, uniq, U, q, items):
        if not isinstance(tbl, pa.Table):
            tbl = pa.Table.from_batches([tbl])
        if len(uniq) == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "rec_item": pa.array([], pa.string()),
                             "score": pa.array([], pa.float64())})
        scores = U @ q.T                 # (n_users, n_items)
        it = _item_index(tbl, items)
        # uniq is np.unique output, so sorted
        rows = np.searchsorted(uniq, tbl["u"].to_numpy(zero_copy_only=False))
        scores[rows, it] = -np.inf       # mask seen pairs
        best = scores.argmax(axis=1)
        bs = scores[np.arange(len(uniq)), best]
        keep = np.isfinite(bs)           # users who saw EVERY item: no rec
        return pa.table({
            "user_id": pa.array(uniq[keep], pa.int64()),
            "rec_item": pa.array([items[b] for b in best[keep]],
                                 pa.string()),
            "score": pa.array(bs[keep], pa.float64())})

    q_ref = ray.put(Q)
    outs = ray.get([
        recommend.remote(ref, up[0], up[1], q_ref, item_ids)
        for ref, up in zip(parts.to_arrow_refs(), user_parts)])
    live = [o for o in outs if o.num_rows]
    if not live:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "rec_item": pa.array([], pa.string()),
                         "score": pa.array([], pa.float64())})
    out = pa.concat_tables(live)
    return pa.table({
        "user_id": out["user_id"],
        "rec_item": out["rec_item"],
        "score": pa.array(round_half_away(
            out["score"].to_numpy(zero_copy_only=False), round_digits),
            pa.float64())})


def _als_from_parts(parts: rd.Dataset, rank: int, iters: int, reg: float,
                    seed: int):
    """ALS body over an already-exchanged partition layout (shared by
    ``als_factorize``/``als_recommend`` so the exchange happens once)."""
    item_ids = sorted(set(
        v for b in parts.select_columns(["i"])
        .iter_batches(batch_format="pyarrow", batch_size=None)
        for v in b["i"].to_pylist()))
    n_items = len(item_ids)
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n_items, rank)) * 0.1
    refs = [r for r in parts.to_arrow_refs()]

    user_parts = None
    for _ in range(iters):
        q_ref = ray.put(Q)
        outs = ray.get([_solve_users.remote(ref, q_ref, item_ids, reg,
                                            rank, n_items)
                        for ref in refs])
        stats = sum(o[2] for o in outs)
        AtA = stats[:, :rank * rank].reshape(n_items, rank, rank) \
            + reg * np.eye(rank)[None, :, :]
        Atb = stats[:, rank * rank:]
        Q = np.linalg.solve(AtA, Atb)
        user_parts = [(o[0], o[1]) for o in outs]
    return user_parts, item_ids, Q


def _item_index(tbl: pa.Table, items: list) -> np.ndarray:
    """Each row's position of its item in the sorted ``items``."""
    return pc.index_in(tbl["i"], value_set=pa.array(items, pa.string())
                       ).to_numpy(zero_copy_only=False).astype(np.int64)


@ray.remote
def _solve_users(tbl, q, items, lam, r_rank, n_items):
    """One ALS half-iteration for one user partition: batched r×r
    solves + the item-side sufficient-stat partials."""
    if not isinstance(tbl, pa.Table):
        tbl = pa.Table.from_batches([tbl])
    if tbl.num_rows == 0:
        return (np.array([], np.int64), np.zeros((0, r_rank)),
                np.zeros((n_items, r_rank * r_rank + r_rank)))
    order = pc.sort_indices(tbl, sort_keys=[("u", "ascending"),
                                            ("i", "ascending")])
    tbl = tbl.take(order)
    u = tbl["u"].to_numpy(zero_copy_only=False)
    it = _item_index(tbl, items)
    r = tbl["r"].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(u, return_inverse=True)
    n_u = len(uniq)
    qv = q[it]
    A = np.zeros((n_u, r_rank, r_rank))
    np.add.at(A, inv, qv[:, :, None] * qv[:, None, :])
    A += lam * np.eye(r_rank)[None, :, :]
    b = np.zeros((n_u, r_rank))
    np.add.at(b, inv, qv * r[:, None])
    U = np.linalg.solve(A, b)
    uv = U[inv]
    stats = np.zeros((n_items, r_rank * r_rank + r_rank))
    flat = np.concatenate(
        [(uv[:, :, None] * uv[:, None, :]).reshape(len(uv), -1),
         uv * r[:, None]], axis=1)
    np.add.at(stats, it, flat)
    return uniq, U, stats
