"""Tests: data-driven Rule checks, CLI validate command."""

import json
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pytest
import ray.data as rd

from lk_data_test_ray.checks.protocol import Rule, run_rule_checks

REPO = Path(__file__).resolve().parents[1]  # this checkout

DOCS = pa.table({
    "id": pa.array([1, 2, 3, 4], pa.int64()),
    "lang": ["en", "xx", "de", None],
    "text": ["hello", "", "welt", "ok"],
    "n": pa.array([5, 0, 4, 99], pa.int64()),
})


def test_rule_checks_fused_pass():
    rules = [
        Rule("c_lang", "lang", "in_set", values=("en", "de")),
        Rule("c_text", "text", "not_null"),
        Rule("c_n_range", "n", "range", lo=1, hi=50),
        Rule("c_n_len", "n", "consistent_len", of_column="text"),
    ]
    out = run_rule_checks(rd.from_arrow(DOCS), rules, id_col="id").to_pandas()
    got = set(zip(out["check_id"], out["id"]))
    assert got == {
        ("c_lang", 2), ("c_lang", 4),       # xx, None
        ("c_text", 2),                       # empty text
        ("c_n_range", 2), ("c_n_range", 4),  # 0 below lo, 99 above hi
        ("c_n_len", 4),                      # 99 != len("ok")
    }


def test_rule_regex():
    rules = [Rule("c_fmt", "lang", "regex_match", pattern="[a-z]{2}")]
    out = run_rule_checks(rd.from_arrow(DOCS), rules, id_col="id").to_pandas()
    assert set(out["id"]) == {4}  # only the null fails the full-match


@pytest.mark.slow
def test_cli_validate(tmp_path):
    from lk_data_test_ray.sources.pages import ensure_pages

    fix = ensure_pages(6000, seed=123)
    p = subprocess.run(
        [sys.executable, "-m", "lk_data_test_ray", "validate",
         f"{fix}/pages", str(tmp_path / "out"),
         "--lang-hist", f"{fix}/lang_hist.parquet", "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    line = [ln for ln in p.stdout.splitlines() if ln.startswith("{")][-1]
    summary = json.loads(line)
    assert summary["n_rows"] == 6000
    assert p.returncode == 1  # injected violations ⇒ suite fails
    assert summary["per_check_violations"]["c1_url_unique"] == 3


def test_normalize_url():
    from lk_data_test_ray.functions.urls import normalize_url, point_wkt

    assert normalize_url("HTTPS://Example.COM:443/Path#frag") == \
        "https://example.com/Path"
    assert normalize_url("http://a.b:80") == "http://a.b/"
    assert normalize_url("http://a.b/x?q=1#f") == "http://a.b/x?q=1"
    assert normalize_url(None) is None
    assert normalize_url("not a url") == "not a url"
    pts = point_wkt(pa.array([" 16.37  48.21 ", "1 2"]))
    assert pts.to_pylist() == ["POINT(16.37 48.21)", "POINT(1 2)"]


@pytest.mark.slow
def test_cli_max_partitions_and_clean(tmp_path):
    from lk_data_test_ray.sources.pages import ensure_pages

    fix = ensure_pages(6000, seed=123)
    clean = str(tmp_path / "clean")

    def validate() -> dict:
        p = subprocess.run(
            [sys.executable, "-m", "lk_data_test_ray", "validate",
             f"{fix}/pages", str(tmp_path / "out"),
             "--max-partitions", "4", "--clean-dir", clean,
             "--no-extract-check", "--num-cpus", "4"],
            capture_output=True, text=True, cwd=REPO, timeout=300)
        line = [ln for ln in p.stdout.splitlines() if ln.startswith("{")][-1]
        return json.loads(line)

    summary = validate()
    assert summary["n_partitions"] == 4  # smoke mode: first 4 files only
    assert summary["n_rows"] == 4 * 375  # 6000 rows / 16 files
    import glob

    assert len(glob.glob(f"{clean}/*.parquet")) > 0
    # an identical rerun resumes: every smoke file is already committed
    again = validate()
    assert again["rows_scanned"] == 0
    assert again["n_rows"] == summary["n_rows"]


def test_normalize_urls_batch_equals_scalar():
    """The Arrow-kernel batch canonicalizer is byte-equal to the scalar
    reference (property-based + hand-picked tricky cases)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from lk_data_test_ray.functions.urls import (normalize_url,
                                                 normalize_urls_batch)

    tricky = [
        None, "", "  ", "not a url", "HTTPS://Example.COM:443/Path#frag",
        "http://a.b:80", "http://a.b:80/", "https://a.b:80/x",
        "http://a.b:8080/x", "ftp://a.b/x", "http://A.B/#",
        "http://h/x?q=1#f#g", "HTTP://HÉ.example/Ü",
        "http://a.b/line\nbreak#frag\nmore", "http://:80", "https://:443/",
    ]
    got = normalize_urls_batch(tricky).to_pylist()
    assert got == [normalize_url(u) for u in tricky]

    url_chars = st.text(
        alphabet=st.sampled_from(list(
            "abXY09.-_:/?#[]@!$&'()*+,;=%é \t\n")), max_size=40)
    prefix = st.sampled_from(
        ["http://", "https://", "HTTP://", "hTtPs://", "", "xx://"])

    @settings(max_examples=300, deadline=None)
    @given(prefix, url_chars)
    def check(pre, rest):
        u = pre + rest
        assert normalize_urls_batch([u]).to_pylist() == [normalize_url(u)]

    check()


@pytest.mark.slow
def test_cli_curate(tmp_path):
    from lk_data_test_ray.sources.pages import ensure_pages

    fix = ensure_pages(6000, seed=123)
    p = subprocess.run(
        [sys.executable, "-m", "lk_data_test_ray", "curate",
         f"{fix}/pages", str(tmp_path / "cur"),
         "--lang-hist", f"{fix}/lang_hist.parquet", "--num-cpus", "4"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    assert p.returncode == 0, p.stderr[-2000:]
    line = [ln for ln in p.stdout.splitlines() if ln.startswith("{")][-1]
    funnel = json.loads(line)
    assert funnel["n_input"] == 6000
    # violations quarantined, curated output smaller than clean input
    assert funnel["n_clean"] < 6000
    assert 0 < funnel["n_curated"] <= funnel["n_after_dedup"]
