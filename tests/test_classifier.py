"""Hashed-linear quality classifier: learnability (AUC on a held-out split
of a separable synthetic corpus), determinism across runs, and the driver
query's end-to-end shape."""

import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from lk_data_test_ray.pipelines.classifier import (  # noqa: E402
    featurize, score_logreg_hashed, train_logreg_hashed)

D = 256


def _corpus(n=600, seed=11):
    """Two overlapping but separable token distributions."""
    rng = np.random.default_rng(seed)
    good = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    bad = ["spamone", "spamtwo", "spamthree", "junk", "noise", "zeta"]
    rows = []
    for i in range(n):
        y = i % 2
        pool = good if y else bad
        k = int(rng.integers(8, 20))
        toks = [pool[int(rng.integers(0, len(pool)))] for _ in range(k)]
        # shared vocabulary noise in every doc
        toks += ["common"] * int(rng.integers(0, 4))
        rows.append({"doc_id": i, "text": " ".join(toks), "y": float(y)})
    return rows


def _auc(y, p):
    order = np.argsort(p)
    ranks = np.empty(len(p))
    ranks[order] = np.arange(1, len(p) + 1)
    pos = y == 1
    n1, n0 = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)


@pytest.fixture(scope="module")
def trained(ray_session):
    import ray.data as rd

    rows = _corpus()
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    train = ds.map_batches(
        lambda b: b.filter(pa.array(
            b["doc_id"].to_numpy(zero_copy_only=False) % 3 != 0)),
        batch_format="pyarrow")
    held = [r for r in rows if r["doc_id"] % 3 == 0]
    w = train_logreg_hashed(featurize(train, "text", "y", D), D=D,
                            epochs=30, lr=1.0)
    return ds, held, w


def test_heldout_auc(trained):
    ds, held, w = trained
    scored = score_logreg_hashed(ds, "text", "doc_id", w, D=D).to_pandas()
    scored = scored.set_index("doc_id")
    ids = [r["doc_id"] for r in held]
    y = np.array([r["y"] for r in held])
    p = scored.loc[ids, "prob"].to_numpy()
    assert _auc(y, p) > 0.95


def test_training_deterministic(trained):
    import ray.data as rd

    ds, _, w1 = trained
    train = ds.map_batches(
        lambda b: b.filter(pa.array(
            b["doc_id"].to_numpy(zero_copy_only=False) % 3 != 0)),
        batch_format="pyarrow")
    w2 = train_logreg_hashed(featurize(train, "text", "y", D), D=D,
                             epochs=30, lr=1.0)
    # identical up to partial-sum reassociation
    assert np.allclose(w1, w2, rtol=1e-9, atol=1e-12)


def test_driver_query_shape(ray_session):
    from lk_data_test_ray.pipelines.queries import td_quality_classifier

    out = td_quality_classifier("/root/testdata/sf0.001").to_pandas()
    assert len(out) == 500
    assert set(out.columns) == {"doc_id", "prob", "pred"}
    assert out["prob"].between(0, 1).all()
    # stopword presence is learnable from hashed unigrams: the classifier
    # must beat chance by a wide margin against its own weak labels
    import pyarrow.parquet as pq
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    from lk_data_test_ray.functions.text import STOPWORDS
    truth = docs.set_index("doc_id")["text"].fillna("").map(
        lambda t: float(any(tok in STOPWORDS for tok in t.split())))
    merged = out.set_index("doc_id").join(truth.rename("y"))
    assert _auc(merged["y"].to_numpy(), merged["prob"].to_numpy()) > 0.9


def test_pretrain_corpus_invariants(ray_session):
    """The end-to-end corpus build: balanced classes, dense shard layout,
    and only surviving doc_ids."""
    import pyarrow.parquet as pq

    from lk_data_test_ray.pipelines.queries import td_pretrain_corpus

    sf = "/root/testdata/sf0.001"
    out = td_pretrain_corpus(sf).to_pandas()
    docs = pq.read_table(sf + "/documents.parquet",
                         columns=["doc_id"]).to_pandas()
    assert 0 < len(out) <= len(docs)
    assert set(out.columns) == {"doc_id", "lang", "shard", "offset"}
    assert set(out.doc_id).issubset(set(docs.doc_id))
    # balanced: every lang kept the same number of documents
    assert out.groupby("lang").size().nunique() == 1
    # dense global rank: shards full at 100 except the last, offsets dense
    sizes = out.groupby("shard").size().sort_index()
    assert (sizes.iloc[:-1] == 100).all()
    for sh, grp in out.groupby("shard"):
        assert sorted(grp["offset"]) == list(range(len(grp)))
