"""The native C6 scanner (``functions/c6scan.c``) against its Python
reference, and both C6 paths end to end.

``c6_candidates`` must return exactly the rows where html and text are both
present and ``extract_core_bytes(html) != text`` byte for byte; the Python
re-check then runs on those rows only, so any disagreement would change a
C6 verdict.
"""

import logging
import os
import random
import shutil

import pyarrow as pa
import pytest

from lk_data_test_ray.functions import extract
from lk_data_test_ray.functions.extract import c6_candidates, extract_core_bytes

# fragments that stress every _STRIP alternative, the entity table and the
# whitespace collapse; random concatenations nest, interleave and leave
# blocks unterminated
ATOMS = [
    b"<script>", b"</script>", b"</script  >", b"</SCRIPT\n>", b"<ScRiPt a=1>",
    b"<scripts>", b"</scripts>", b"<script", b"</script", b"<style>",
    b"</style>", b"<STYLE type=x>", b"</Style\t>", b"<styles>", b"<!--",
    b"-->", b"<!-->", b"<!---->", b"<!--->", b"--", b"-", b"<!", b"<", b">",
    b"</", b"/", b"<b>", b"</b>", b"<p class='x'>", b"<a href=\"u\">",
    b"&amp;", b"&lt;", b"&gt;", b"&quot;", b"&#39;", b"&apos;", b"&nbsp;",
    b"&", b"&am", b"&amp", b"&#3", b";", b" ", b"  ", b"\t", b"\n", b"\r",
    b"\x0b", b"\x0c", b"\x1c", b"\x00", b"a", b"word", b"x_9", b"\xff",
    b"\xc3\xa9", b"\xe2\x80", b"\x80", b"script", b"style",
]


# long markup-free runs: the scanner compares these eight bytes at a time
PLAIN_ATOMS = [b"word", b"ab", b"x", b" ", b" ", b" ", b"  ", b"\t", b"\x0b",
               b"\x1c", b"\x01", b"\x7f", b"\xff", b"&amp;", b"&", b"<"]


def _random_html(rng: random.Random) -> bytes:
    kind = rng.random()
    if kind < 0.55:
        return b"".join(rng.choice(ATOMS) for _ in range(rng.randint(0, 40)))
    if kind < 0.75:
        return b"".join(rng.choice(PLAIN_ATOMS)
                        for _ in range(rng.randint(0, 40)))
    if kind < 0.85:
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 64)))
    page = (b"<html><head><title>T &amp; t</title><style>p{}</style></head>"
            b"<body><p>one  two\tthree</p><!-- c --><script>x<y</script>"
            b"<ul><li>&lt;li&gt;</li></ul></body></html>")
    return page[:rng.randint(0, len(page))]  # truncated anywhere


def _texts_for(html: bytes, rng: random.Random) -> bytes:
    """The exact extraction, or a near miss of it (the raw html is one)."""
    t = extract_core_bytes(html)
    r = rng.random()
    if r < 0.45:
        return t
    if r < 0.5:
        return html
    if r < 0.6:
        return t[:-1]
    if r < 0.7:
        return t + rng.choice([b" ", b"x", b"\x0b"])
    if r < 0.8:
        return b" " + t
    if t:
        i = rng.randrange(len(t))
        sub = rng.choice([b" ", b"  ", b"\x0b", b"\x0c", b"\x1c", b"&", b"<",
                          b"", b"A"])
        return t[:i] + sub + t[i + 1:]
    return rng.choice([b"", b" ", b"x"])


def _want(html: list, text: list) -> list:
    return [i for i, (h, t) in enumerate(zip(html, text))
            if h is not None and t is not None
            and extract_core_bytes(h) != t]


def _got(html_arr, text_arr) -> list:
    return c6_candidates(html_arr, text_arr).tolist()


@pytest.fixture(scope="module")
def fuzz_rows():
    rng = random.Random(20261017)
    html, text = [], []
    for _ in range(30_000):
        h = _random_html(rng)
        html.append(h)
        text.append(_texts_for(h, rng))
    # null rows on either side and empty strings
    html += [None, b"", None, b"", b"<p>x</p>", b"&nbsp;"]
    text += [b"", None, None, b"", None, b""]
    return html, text


def test_scanner_loads_when_gcc_is_present(ray_session):
    """A silent fallback would hide a 4x loss of the row phase: with gcc on
    PATH the scanner must load, in this process and in a Ray worker."""
    import ray

    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH: the Python fallback is expected")
    assert extract.c6_scanner() is not None

    @ray.remote
    def loaded():
        from lk_data_test_ray.functions.extract import c6_scanner

        return c6_scanner() is not None

    assert ray.get(loaded.remote())


def test_scanner_matches_python_reference(fuzz_rows):
    if extract.c6_scanner() is None:
        pytest.skip("native scanner unavailable")
    html, text = fuzz_rows
    want = _want(html, text)
    assert 1000 < len(want) < len(html) - 1000  # both outcomes exercised
    # text arrays are views of binary ones: invalid utf-8 must reach the
    # scanner unvalidated, as it can in a corrupt corpus
    for ht, bt, tt in ((pa.binary(), pa.binary(), pa.string()),
                       (pa.large_binary(), pa.large_binary(),
                        pa.large_string()),
                       (pa.binary(), pa.large_binary(), pa.large_string())):
        got = _got(pa.array(html, ht), pa.array(text, bt).view(tt))
        assert got == want, (ht, tt)


def test_scanner_on_sliced_and_chunked_columns(fuzz_rows):
    if extract.c6_scanner() is None:
        pytest.skip("native scanner unavailable")
    html, text = fuzz_rows
    html, text = html[:3000], text[:3000]
    want = _want(html, text)
    h = pa.array(html, pa.binary())
    t = pa.array(text, pa.binary())
    # non-zero offsets, different on the two sides
    hs = pa.array([b"<p>pad</p>"] + html, pa.binary()).slice(1)
    ts = pa.array([b"a", b"b", b"c"] + text, pa.binary()).slice(3)
    assert hs.offset == 1 and ts.offset == 3
    assert _got(hs, ts) == want
    k = 1234
    assert _got(h.slice(k), t.slice(k)) == [i - k for i in want if i >= k]
    # multi-chunk columns: aligned chunks, misaligned chunks, empty chunks
    aligned = ([h.slice(0, 1000), h.slice(1000, 0), h.slice(1000)],
               [t.slice(0, 1000), t.slice(1000, 0), t.slice(1000)])
    skewed = ([h.slice(0, 700), h.slice(700)],
              [t.slice(0, 1900), t.slice(1900, 1), t.slice(1901)])
    for hc, tc in (aligned, skewed):
        assert _got(pa.chunked_array(hc), pa.chunked_array(tc)) == want
    assert _got(pa.chunked_array([], pa.binary()),
                pa.chunked_array([], pa.string())) == []


def test_candidates_reject_bad_columns():
    with pytest.raises(TypeError):
        c6_candidates(pa.array([1, 2]), pa.array(["a", "b"]))
    with pytest.raises(ValueError):
        c6_candidates(pa.array([b"a", b"b"]), pa.array(["a"]))


def test_whitespace_set_is_bytes_split():
    """C6 collapses exactly the six bytes bytes.split() splits on, which
    include \\x0b and \\x0c but not \\x1c (str.split would split it)."""
    if extract.c6_scanner() is None:
        pytest.skip("native scanner unavailable")
    html = [b"a\x0bb", b"a\x0cb", b"a\x1cb", b"a\x85b", b" \r\n\ta \x0b "]
    text = [b"a b", b"a b", b"a\x1cb", b"a\x85b", b"a"]
    assert _want(html, text) == []
    assert _got(pa.array(html), pa.array(text)) == []
    wrong = [b"a\x0bb", b"a\x0cb", b"a b", b"a b", b" a"]
    assert _got(pa.array(html), pa.array(wrong)) == [0, 1, 2, 3, 4]


def test_scanner_is_linear_on_unterminated_blocks():
    """Unterminated openers make every forward search fail; a scanner that
    repeats them is quadratic (so is the Python regex, which is why the
    large case is checked against its extraction worked out by hand: the
    script openers strip as tags and nothing after them has a '>')."""
    if extract.c6_scanner() is None:
        pytest.skip("native scanner unavailable")
    import time

    def case(k):
        html = (b"<script>" * k + b"<!--" * k + b"<" * k + b"</style" * k)
        return html, b"<!--" * k + b"<" * k + b"</style" * k

    html, want = case(50)
    assert extract_core_bytes(html) == want
    html, want = case(50_000)
    t0 = time.perf_counter()
    assert _got(pa.array([html]), pa.array([want])) == []
    assert _got(pa.array([html]), pa.array([want + b"x"])) == [0]
    assert time.perf_counter() - t0 < 1.0


def _no_compiler():
    raise RuntimeError("no cc")


def test_fallback_candidates_and_single_warning(monkeypatch, caplog):
    monkeypatch.setattr(extract, "_build_scanner", _no_compiler)
    extract.c6_scanner.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="lk_data_test_ray"):
            h = pa.array([b"<p>a</p>", None, b"b", b"c"])
            t = pa.array(["a", "x", None, "zz"])
            # every row with both present is a candidate
            assert _got(h, t) == [0, 3]
            assert _got(h, t) == [0, 3]
        warnings = [r for r in caplog.records
                    if r.name == "lk_data_test_ray"
                    and r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "no cc" in warnings[0].getMessage()
    finally:
        monkeypatch.undo()
        extract.c6_scanner.cache_clear()


def _validation_key(out_dir):
    from lk_data_test_ray.pipelines.validate import load_violations

    v = load_violations(out_dir).to_pandas()
    key = ["check_id", "url", "partition_id", "detail"]
    return v[key].sort_values(key).reset_index(drop=True)


def test_forced_fallback_run_equals_native_run(pages_fixture, tmp_path,
                                               monkeypatch):
    """The whole pipeline with the scanner unavailable in the driver and in
    every worker (a failed build) gives the native run's summary and
    violations. Workers are separate processes, so the failure is injected
    through a Ray session whose workers break it as they start."""
    import ray
    from ray.data import DataContext

    from lk_data_test_ray.pipelines.validate import run_validation

    pages = os.path.join(pages_fixture, "pages")
    hist = os.path.join(pages_fixture, "lang_hist.parquet")
    native = run_validation(pages, str(tmp_path / "native"),
                            lang_hist_path=hist)
    assert native["per_check_violations"]["c6_extract_match"] > 0

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(extract.__file__))))

    def break_scanner():
        # runs at the start of every worker process (pickled by value),
        # before the worker has the driver's code path
        import sys

        if root not in sys.path:
            sys.path.insert(0, root)
        from lk_data_test_ray.functions import extract as ex

        def no_compiler():
            raise RuntimeError("no cc")

        ex._build_scanner = no_compiler
        ex.c6_scanner.cache_clear()

    # the arguments of conftest's session, which is restored afterwards
    init = dict(address="local", num_cpus=4, include_dashboard=False,
                ignore_reinit_error=True, logging_level="ERROR")
    ray.shutdown()
    try:
        ray.init(runtime_env={"worker_process_setup_hook": break_scanner},
                 **init)
        DataContext.get_current().enable_progress_bars = False
        monkeypatch.setattr(extract, "_build_scanner", _no_compiler)
        extract.c6_scanner.cache_clear()

        @ray.remote
        def native_in_worker():
            from lk_data_test_ray.functions.extract import c6_scanner

            return c6_scanner() is not None

        assert not ray.get(native_in_worker.remote())
        fallback = run_validation(pages, str(tmp_path / "fallback"),
                                  lang_hist_path=hist)
    finally:
        monkeypatch.undo()
        extract.c6_scanner.cache_clear()
        ray.shutdown()
        ray.init(**init)
        DataContext.get_current().enable_progress_bars = False

    for key in ("n_rows", "per_check_violations", "violations_total",
                "passed", "drift"):
        assert fallback[key] == native[key], key
    assert _validation_key(str(tmp_path / "fallback")).equals(
        _validation_key(str(tmp_path / "native")))
