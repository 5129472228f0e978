"""strhash.c: the url column's hashes and HyperLogLog in one native pass,
bit-identical to the pandas reference, and a scan that stays identical
when the kernel cannot be built."""

import glob
import logging
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from lk_data_test_ray.functions import hashing
from lk_data_test_ray.functions.hashing import hash_strings64
from lk_data_test_ray.sketches import HyperLogLog


def _strings(rng, n):
    """Random strings: empty, ASCII, non-ASCII, some over 1 KB, every
    length mod 8 (SipHash's tail), and nulls."""
    alphabet = list("abcxyz/:.-_09") + ["é", "ü", "€", "日本", "😀"]
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.1:
            out.append(None)
        elif r < 0.15:
            out.append("")
        else:
            k = int(rng.integers(1, 3000 if rng.random() < 0.05 else 40))
            out.append("".join(rng.choice(alphabet, k)))
    return out


def _arrays(rng):
    for t in (pa.string(), pa.large_string(), pa.binary(),
              pa.large_binary()):
        for n in (0, 1, 7, 8, 9, 500):
            vals = _strings(rng, n)
            if pa.types.is_binary(t) or pa.types.is_large_binary(t):
                vals = [None if v is None else v.encode() for v in vals]
            arr = pa.array(vals, t)
            yield f"{t} n={n}", arr
            if n > 2:
                yield f"{t} n={n} sliced", arr.slice(1, n - 2)
                yield f"{t} n={n} chunked", pa.chunked_array(
                    [arr.slice(0, n // 2), pa.array([], t),
                     arr.slice(n // 3)], t)
        yield f"{t} all null", pa.array([None] * 5, t)


def test_kernel_equals_pandas_hash_and_hll():
    if hashing.strhash_kernel() is None:
        pytest.skip("native string hash unavailable")
    rng = np.random.default_rng(3)
    for name, arr in _arrays(rng):
        want_h = hash_strings64(arr.to_pandas())
        want = HyperLogLog(12)
        want.update_hashes(want_h)
        got = HyperLogLog(12)
        seed = rng.integers(0, 4, got.m).astype(np.uint8)  # a used sketch
        got.registers[:] = seed
        want.registers = np.maximum(want.registers, seed)
        h = hashing.hash_arrow_strings(arr, got.registers)
        assert h is not None and h.dtype == np.uint64, name
        assert np.array_equal(h, want_h), name
        assert np.array_equal(got.registers, want.registers), name
    # other precisions read p from the register count
    arr = pa.array(_strings(rng, 300))
    for p in (4, 14):
        got, want = HyperLogLog(p), HyperLogLog(p)
        hashing.hash_arrow_strings(arr, got.registers)
        want.update_strings(arr.to_pandas())
        assert np.array_equal(got.registers, want.registers), p


def test_update_arrow_falls_back_for_other_types():
    """A column the kernel does not read (an int url column of a C0-failed
    file) takes the pandas path, as before."""
    arr = pa.array([1, 2, None], pa.int64())
    assert hashing.hash_arrow_strings(arr, np.zeros(4096, np.uint8)) is None
    got, want = HyperLogLog(12), HyperLogLog(12)
    h = got.update_arrow(arr)
    want_h = hash_strings64(arr.to_pandas())
    want.update_hashes(want_h)
    assert np.array_equal(h, want_h)
    assert np.array_equal(got.registers, want.registers)


def test_strhash_loads_when_gcc_is_present():
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH: the pandas path is expected")
    assert hashing.strhash_kernel() is not None


def _scan(files, c1):
    """One in-process ``scan_block`` over every item of ``files``: its
    records and the bytes of each sidecar it wrote."""
    from lk_data_test_ray.checks.row import plan_scan_items, scan_block

    shutil.rmtree(c1, ignore_errors=True)
    os.makedirs(c1)
    items = plan_scan_items(files, {f: i for i, f in enumerate(files)})
    out = scan_block._function(items, True, None, c1)
    sidecars = {}
    for name in sorted(os.listdir(c1)):
        with open(os.path.join(c1, name), "rb") as fh:
            sidecars[name] = fh.read()
    return out, sidecars


def test_scan_fallback_identical_and_single_warning(pages_fixture, tmp_path,
                                                    monkeypatch, caplog):
    """With the build broken, a scan gives the same records (violation
    columns and stats partials, sketch bytes included) and the same
    sidecar bytes, and logs one WARNING however many items it hashes."""
    import pyarrow.parquet as pq

    src = sorted(glob.glob(os.path.join(pages_fixture, "pages",
                                        "*.parquet")))[:2]
    nulls = str(tmp_path / "nulls.parquet")
    t = pq.read_table(src[0]).slice(0, 50)
    urls = t["url"].to_pylist()
    urls[3] = urls[17] = None
    pq.write_table(t.set_column(0, "url", pa.array(urls, pa.string())),
                   nulls)
    files = [*src, nulls]
    c1 = str(tmp_path / "c1")
    if hashing.strhash_kernel() is None:
        pytest.skip("native string hash unavailable")
    want = _scan(files, c1)
    assert len(want[1]) == len(files)  # one item per file

    def no_compiler():
        raise RuntimeError("no cc")

    monkeypatch.setattr(hashing, "_build_strhash", no_compiler)
    hashing.strhash_kernel.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="lk_data_test_ray"):
            assert _scan(files, c1) == want
        warnings = [r for r in caplog.records
                    if r.name == "lk_data_test_ray"
                    and r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "no cc" in warnings[0].getMessage()
        assert hashing.strhash_kernel() is None
    finally:
        monkeypatch.undo()
        hashing.strhash_kernel.cache_clear()
