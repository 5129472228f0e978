"""Inverted-index build: cross-batch pair dedup + posting order."""
import pyarrow as pa


def _capture_build():
    """Run the public query once with the exchange spied, capturing the
    per-partition build fn so it can be unit-fed pathological input."""
    from lk_data_test_ray.pipelines import queries as q

    captured = {}
    orig = q.hash_repartition_map

    def spy(ds_, key, fn, **kw):
        captured["fn"] = fn
        return orig(ds_, key, fn, **kw)

    q.hash_repartition_map = spy
    try:
        q.t_inverted_index("/root/testdata/sf0.001").materialize()
    finally:
        q.hash_repartition_map = orig
    return captured["fn"]


def test_inverted_index_dedups_cross_batch_pairs(ray_session):
    build = _capture_build()
    # the same (token, doc) pair arriving from two different map batches
    # must collapse in the partition build (map-side distinct only
    # dedups within one batch)
    pairs = pa.table({
        "token": pa.array(["a", "a", "a", "b", "b", "a"]),
        "doc_id": pa.array([3, 1, 3, 2, 2, 1], pa.int64()),
    })
    got = build(pairs)
    by_tok = {t: (d, p) for t, d, p in zip(got["token"].to_pylist(),
                                           got["df"].to_pylist(),
                                           got["postings"].to_pylist())}
    assert by_tok == {"a": (2, "1,3"), "b": (1, "2")}

    empty = pa.table({"token": pa.array([], pa.string()),
                      "doc_id": pa.array([], pa.int64())})
    assert build(empty).num_rows == 0
