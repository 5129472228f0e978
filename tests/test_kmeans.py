"""Distributed Lloyd's k-means vs a single-process numpy reference.

The distributed plan (per-batch moment partials, driver merge) must be
EXACTLY the same algorithm as plain Lloyd's with the same deterministic
init — cluster sizes match exactly, inertia to float tolerance (summation
order differs across block layouts)."""

import sys
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

SF = "/root/testdata/sf0.001"


def _reference(X: np.ndarray, ids: np.ndarray, k: int, iters: int):
    order = np.argsort(ids)
    cents = X[order[:k]].astype(np.float64).copy()
    for _ in range(iters):
        d2 = ((X * X).sum(1)[:, None] - 2.0 * (X @ cents.T)
              + (cents * cents).sum(1)[None, :])
        a = np.argmin(d2, axis=1)
        for c in range(k):
            if (a == c).any():
                cents[c] = X[a == c].mean(axis=0)
    d2 = ((X * X).sum(1)[:, None] - 2.0 * (X @ cents.T)
          + (cents * cents).sum(1)[None, :])
    a = np.argmin(d2, axis=1)
    sizes = np.bincount(a, minlength=k)
    inertia = np.array([d2[a == c, c].sum() for c in range(k)])
    return sizes, inertia, cents


def test_kmeans_matches_numpy(ray_session):
    from lk_data_test_ray.pipelines.queries import s_kmeans

    out = s_kmeans(SF).to_pandas().sort_values("cluster")

    tbl = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = np.asarray(tbl["vec_id"].to_pylist())
    X = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    sizes, inertia, cents = _reference(X, ids, k=8, iters=5)

    assert out["size"].to_numpy().tolist() == sizes.tolist()
    assert np.allclose(out["inertia"].to_numpy(), inertia,
                       rtol=1e-6, atol=1e-4)
    norms = np.sqrt((cents * cents).sum(1))
    assert np.allclose(out["centroid_norm"].to_numpy(), norms,
                       rtol=1e-9, atol=1e-6)


def test_pca_project_matches_numpy(ray_session):
    """Distributed moment-partial PCA equals direct numpy PCA (same
    sign convention) on the raw parquet."""
    import numpy as np
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import s_pca_project

    sf = "/root/testdata/sf0.001"
    got = {r["vec_id"]: np.array(r["proj"])
           for r in s_pca_project(sf, k=4).take_all()}

    t = pq.read_table(f"{sf}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = t["vec_id"].to_pylist()
    cov = np.cov(m, rowvar=False)
    w, v = np.linalg.eigh(cov)
    comp = v[:, np.argsort(w)[::-1][:4]]
    flip = comp[np.abs(comp).argmax(axis=0), np.arange(4)] < 0
    comp[:, flip] *= -1.0
    exact = (m - m.mean(axis=0)) @ comp
    for i, vid in enumerate(ids):
        assert np.allclose(got[vid], exact[i], atol=1e-5), vid
