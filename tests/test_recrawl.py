"""Recrawl churn: fixture determinism + the per-url lag semantics on a
hand-built multi-block capture set (captures of one url spanning input
blocks must regroup through the hash exchange)."""

import numpy as np
import pandas as pd


def test_recrawl_fixture_deterministic(tmp_path):
    from lk_data_test_ray.sources.recrawl import generate_recrawl

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_recrawl(a, 200, seed=7)
    generate_recrawl(b, 200, seed=7)
    import pyarrow.parquet as pq

    ta = pq.read_table(a).to_pandas().sort_values(
        ["url", "capture_ts"]).reset_index(drop=True)
    tb = pq.read_table(b).to_pandas().sort_values(
        ["url", "capture_ts"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ta, tb)
    # every url's captures strictly increase in ts; some urls recrawled
    g = ta.groupby("url")["capture_ts"]
    assert (g.apply(lambda s: s.is_monotonic_increasing and s.is_unique)
            ).all()
    assert (ta.groupby("url").size() > 1).any()


def test_recrawl_delta_matches_pandas_lag(ray_session, tmp_path, monkeypatch):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines import queries as q

    # url A: 3 captures, text changes once (x, x, y) -> churn 1/2
    # url B: 1 capture -> churn 0; url C: 4 captures all distinct -> 1.0
    rows = [
        ("https://a.org/", "2025-01-01T00:00", "x"),
        ("https://a.org/", "2025-01-02T00:00", "x"),
        ("https://a.org/", "2025-01-03T00:00", "y"),
        ("https://b.org/", "2025-01-01T00:00", "z"),
        ("https://c.org/", "2025-01-01T00:00", "1"),
        ("https://c.org/", "2025-01-02T00:00", "2"),
        ("https://c.org/", "2025-01-03T00:00", "3"),
        ("https://c.org/", "2025-01-04T00:00", "4"),
    ]
    # interleave across two files so url groups span input blocks
    fix = tmp_path / "caps"
    fix.mkdir()
    for f, part in ((0, rows[::2]), (1, rows[1::2])):
        pq.write_table(pa.table({
            "url": pa.array([r[0] for r in part], pa.string()),
            "capture_ts": pa.array(
                np.array([r[1] for r in part], dtype="datetime64[us]"),
                pa.timestamp("us")),
            "text": pa.array([r[2] for r in part], pa.string()),
        }), str(fix / f"captures-{f:03d}.parquet"))
    monkeypatch.setattr(q, "ensure_recrawl", lambda n, **kw: str(fix))

    got = q.pages_recrawl_delta("/root/testdata/sf0.001").to_pandas() \
        .set_index("url").sort_index()
    assert got.loc["https://a.org/"].tolist() == [3, 1, 0.5]
    assert got.loc["https://b.org/"].tolist() == [1, 0, 0.0]
    assert got.loc["https://c.org/"].tolist() == [4, 3, 1.0]
