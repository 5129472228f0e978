"""The benchmark workloads and the independent checks of their output.

Each workload drives the program only through its public functions
(``sources.pages.generate_pages``, ``pipelines.validate.run_validation``,
``checks.links.find_dangling_links``, ``pipelines.graph.components_min_label``
and ``relational.*``) and has the same life cycle:

* ``warm_up()``     a small op on a slice of the corpus, run inside each
                    set-up repetition, so every timed op runs warm;
* ``prepare()``     untimed state and references every op is checked against;
* ``reset()``       untimed per-op preparation (empty or restored out dir);
* ``op()``          the timed unit of work; returns what ``check`` needs;
* ``check(out)``    compares the op's output with a reference the program
                    did not compute (raises ``CheckFailed``);
* ``trace_layers``  the traced run's extra, standalone per-layer timings.

The links-analytics layers (dangling links, host-graph components and the
relational primitives) run in ``validate_fresh``'s traced run on its corpus.
"""

from __future__ import annotations

import glob
import json
import math
import os
import shutil
import statistics
import time
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


class CheckFailed(AssertionError):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def ensure_corpus(cache: str, n_rows: int, seed: int, n_files: int,
                  keep: int = 4) -> str:
    """Generated pages corpus for (rows, files, seed), cached under
    ``cache``; only the ``keep`` most recently used corpora are kept."""
    from lk_data_test_ray.functions.extract import EXTRACT_VERSION
    from lk_data_test_ray.sources.pages import generate_pages

    os.makedirs(cache, exist_ok=True)
    out = os.path.join(cache,
                       f"n{n_rows}_f{n_files}_s{seed}_x{EXTRACT_VERSION}")
    if not os.path.exists(os.path.join(out, "meta.json")):
        generate_pages(out, n_rows, seed, n_files=n_files)
    os.utime(out)
    corpora = sorted((d for d in glob.glob(os.path.join(cache, "n*"))
                      if not d.endswith(".tmp")), key=os.path.getmtime)
    for old in corpora[:-keep]:
        shutil.rmtree(old, ignore_errors=True)
    return out


def expected_drift_violations(meta: dict, hist_path: str,
                              alpha: float = 1e-3) -> int:
    """Whether C5 should fire, from the generator's exact lang counts: the
    chi-square statistic over the reference languages and its
    Wilson–Hilferty upper tail, the approximation C5 documents."""
    hist = pq.read_table(hist_path).to_pydict()
    frac = dict(zip(hist["lang"], hist["expected_fraction"]))
    obs = {c: meta["lang_counts"].get(c, 0) for c in frac}
    total, norm = sum(obs.values()), sum(frac.values())
    chi2 = sum((obs[c] - total * frac[c] / norm) ** 2
               / (total * frac[c] / norm) for c in frac if frac[c] > 0)
    df = len(frac) - 1
    z = (((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df)))
         / math.sqrt(2 / (9 * df)))
    return int(0.5 * math.erfc(z / math.sqrt(2)) < alpha)


def expected_per_check(meta: dict, hist_path: str) -> dict[str, int]:
    inj = meta["injected"]
    return {"c0_schema": 0, "c1_url_unique": inj["dup_pairs"],
            "c2_nonnull": inj["text_null"], "c3_lang_vocab": inj["bad_lang"],
            "c4_ts_range": inj["ts_oor"],
            "c5_lang_drift": expected_drift_violations(meta, hist_path),
            "c6_extract_match": inj["text_mutated"]}


def violation_multiset(tbl: pa.Table) -> Counter:
    """(check_id, url) pairs of the row-level and C1 violations."""
    return Counter((c, u) for c, u in zip(tbl["check_id"].to_pylist(),
                                          tbl["url"].to_pylist())
                   if c != "c5_lang_drift")


def _median_of(fn, reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def row_layer_costs(files: list[str], min_rows: int, reps: int = 3) -> dict:
    """Single-threaded µs/row of each per-row layer, measured in-process on
    the workload's own scan items (the first items covering ``min_rows``)."""
    import numpy as np
    from lk_data_test_ray.checks.row import RowChecker, plan_scan_items
    from lk_data_test_ray.functions.extract import (binary_views,
                                                    extract_core_bytes)
    from lk_data_test_ray.functions.hashing import hash_strings64
    from lk_data_test_ray.sketches import HyperLogLog, TDigest

    items = plan_scan_items(files, {f: i for i, f in enumerate(files)},
                            target_rows=None)
    tables, rows = [], 0
    for it in items:
        if rows >= min_rows:
            break
        tables.append((it, pq.ParquetFile(it["path"]).read_row_groups(
            list(range(it["rg_lo"], it["rg_hi"])))))
        rows += tables[-1][1].num_rows

    def read():
        for it, _ in tables:
            pq.ParquetFile(it["path"]).read_row_groups(
                list(range(it["rg_lo"], it["rg_hi"])))

    def extract():
        for _, t in tables:
            for v in binary_views(t["html"]):
                if v is not None:
                    extract_core_bytes(v)

    urls = [np.asarray(t["url"].to_pandas(), dtype=object)
            for _, t in tables]
    lens = [pc.utf8_length(t["text"]).to_numpy(zero_copy_only=False)
            .astype(np.float64) for _, t in tables]

    def hll():
        for u in urls:
            HyperLogLog(12).update_strings(u)

    def tdigest():
        for v in lens:
            TDigest().update(v)

    def process(check_extract: bool):
        rc = RowChecker(check_extract=check_extract)
        for it, t in tables:
            rc._process(t, it["pid"], item=(it["rg_lo"], it["rg_hi"]))

    us = 1e6 / rows
    return {
        "sources.read_us_per_row": _median_of(read, reps) * us,
        "functions.extract_us_per_row": _median_of(extract, reps) * us,
        "functions.hash_us_per_row": _median_of(
            lambda: [hash_strings64(u) for u in urls], reps) * us,
        "sketches.hll_us_per_row": _median_of(hll, reps) * us,
        "sketches.tdigest_us_per_row": _median_of(tdigest, reps) * us,
        "checks.row.process_us_per_row": _median_of(
            lambda: process(True), reps) * us,
        "checks.row.process_noextract_us_per_row": _median_of(
            lambda: process(False), reps) * us,
    }


class Workload:
    name = ""
    n_rows = 0
    n_files = 16

    def __init__(self, corpus: str, work: str):
        self.corpus = corpus
        self.work = work
        self.pages_dir = os.path.join(corpus, "pages")
        self.files = sorted(glob.glob(os.path.join(self.pages_dir,
                                                   "*.parquet")))
        self.hist = os.path.join(corpus, "lang_hist.parquet")
        with open(os.path.join(corpus, "meta.json")) as f:
            self.meta = json.load(f)

    def rows_of(self, files: list[str]) -> int:
        return sum(pq.ParquetFile(f).metadata.num_rows for f in files)

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def trace_layers(self) -> dict:
        return {}


class ValidateFresh(Workload):
    """run_validation over the whole corpus into an empty out dir."""

    name = "validate_fresh"
    n_rows = 64_000

    def __init__(self, corpus, work):
        super().__init__(corpus, work)
        self.out = os.path.join(work, "out")
        self.rows = self.meta["n_rows"]

    def warm_up(self) -> None:
        from lk_data_test_ray.pipelines.validate import run_validation

        run_validation(self.files[0],
                       _fresh_dir(os.path.join(self.work, "warm")),
                       lang_hist_path=self.hist)

    def prepare(self) -> None:
        self.want = expected_per_check(self.meta, self.hist)
        self.want_viol = violation_multiset(pq.read_table(os.path.join(
            self.corpus, "expected_violations.parquet")))

    def reset(self) -> None:
        _fresh_dir(self.out)

    def op(self) -> dict:
        from lk_data_test_ray.pipelines.validate import run_validation

        return {"steps": [run_validation(self.pages_dir, self.out,
                                         lang_hist_path=self.hist)]}

    def check(self, out: dict) -> None:
        from lk_data_test_ray.pipelines.validate import load_violations

        s = out["steps"][-1]
        _expect(s["n_rows"] == self.rows,
                f"n_rows {s['n_rows']} != generated {self.rows}")
        _expect(s["per_check_violations"] == self.want,
                f"per-check {s['per_check_violations']} != injected "
                f"{self.want}")
        _expect(violation_multiset(load_violations(self.out))
                == self.want_viol,
                "violation rows differ from expected_violations.parquet")

    def trace_layers(self) -> dict:
        return {**row_layer_costs(self.files, min_rows=24_000),
                **links_layers(self.files,
                               os.path.join(self.corpus, "links.parquet"))}


class ValidateDailyAppend(Workload):
    """A committed out dir for the first half of the corpus, then a chain
    of resume=True steps that each append a few files."""

    name = "validate_daily_append"
    n_rows = 48_000
    n_files = 64
    steps = 4
    files_per_step = 4

    def __init__(self, corpus, work):
        super().__init__(corpus, work)
        self.live = os.path.join(work, "pages")
        self.out = os.path.join(work, "out")
        self.base_out = os.path.join(work, "base_out")
        self.ref_out = os.path.join(work, "ref_out")
        self.n_base = len(self.files) - self.steps * self.files_per_step
        self.rows = self.rows_of(self.files[self.n_base:])

    def _link(self, files: list[str], into: str) -> None:
        for f in files:
            os.link(f, os.path.join(into, os.path.basename(f)))

    def warm_up(self) -> None:
        from lk_data_test_ray.pipelines.validate import run_validation

        live = _fresh_dir(os.path.join(self.work, "warm_pages"))
        out = _fresh_dir(os.path.join(self.work, "warm_out"))
        for f in self.files[:2]:
            self._link([f], live)
            run_validation(live, out, lang_hist_path=self.hist, resume=True)

    def prepare(self) -> None:
        from lk_data_test_ray.pipelines.validate import (load_violations,
                                                         run_validation)

        self._link(self.files[:self.n_base], _fresh_dir(self.live))
        run_validation(self.live, _fresh_dir(self.base_out),
                       lang_hist_path=self.hist)
        self.ref = run_validation(self.pages_dir, _fresh_dir(self.ref_out),
                                  lang_hist_path=self.hist)
        self.ref_viol = load_violations(self.ref_out)
        self.want = expected_per_check(self.meta, self.hist)
        # the first chain after a fresh run measured about twice as slow as
        # later ones; one untimed chain keeps it out of the medians
        self.reset()
        self.op()

    def reset(self) -> None:
        self._link(self.files[:self.n_base], _fresh_dir(self.live))
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(self.base_out, self.out)

    def op(self) -> dict:
        from lk_data_test_ray.pipelines.validate import run_validation

        steps, walls = [], []
        todo = self.files[self.n_base:]
        for i in range(self.steps):
            self._link(todo[i * self.files_per_step:
                            (i + 1) * self.files_per_step], self.live)
            t0 = time.perf_counter()
            steps.append(run_validation(self.live, self.out,
                                        lang_hist_path=self.hist,
                                        resume=True))
            walls.append(time.perf_counter() - t0)
        return {"steps": steps, "step_walls": walls}

    def check(self, out: dict) -> None:
        from lk_data_test_ray.pipelines.validate import load_violations

        s, ref = out["steps"][-1], self.ref
        for key in ("n_rows", "n_partitions", "violations_total",
                    "per_check_violations", "passed"):
            _expect(s[key] == ref[key],
                    f"chained {key} {s[key]} != fresh {ref[key]}")
        for key in ("lang_counts", "html_null", "text_null", "ts_min",
                    "ts_max"):
            _expect(s["stats"][key] == ref["stats"][key],
                    f"chained stats.{key} differs from the fresh run")
        _expect(s["per_check_violations"] == self.want,
                f"per-check {s['per_check_violations']} != injected "
                f"{self.want}")
        viol = load_violations(self.out)
        _expect(viol.num_rows == self.ref_viol.num_rows,
                f"load_violations rows {viol.num_rows} != fresh "
                f"{self.ref_viol.num_rows}")
        _expect(violation_multiset(viol)
                == violation_multiset(self.ref_viol),
                "chained violation rows differ from the fresh run")

    def trace_layers(self) -> dict:
        return row_layer_costs(self.files[self.n_base:], min_rows=24_000)


def host_edges(links_path: str):
    """The host graph of the links table as a lazy Dataset (src, dst)."""
    import ray.data as rd

    def hosts(batch: pa.Table) -> pa.Table:
        cols = {}
        for out, col in (("src", "src_url"), ("dst", "dst_url")):
            cols[out] = pc.struct_field(pc.extract_regex(
                batch[col].combine_chunks(), r"^https://(?P<h>[^/]+)/"), "h")
        t = pa.table(cols)
        return t.filter(pc.and_(pc.is_valid(t["src"]), pc.is_valid(t["dst"])))

    return rd.read_parquet(links_path, columns=["src_url", "dst_url"]
                           ).map_batches(hosts, batch_format="pyarrow")


def to_table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def union_find_labels(src: list[str], dst: list[str]) -> dict[str, str]:
    """node -> smallest node of its undirected component."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(src, dst):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def links_layers(files: list[str], links: str) -> dict:
    """The links-analytics layers on one corpus: the dangling-link
    anti-join and connected components of the host graph, each checked
    against an independent reference, plus standalone materialized calls of
    the relational primitives the components loop is built from."""
    import duckdb
    import ray.data as rd
    from lk_data_test_ray import relational as rel
    from lk_data_test_ray.checks.links import find_dangling_links
    from lk_data_test_ray.pipelines.graph import components_min_label

    from tracing import Tracer

    con = duckdb.connect()
    try:
        want_dangling = con.execute(
            "SELECT l.src_url, l.ordinal, l.dst_url "
            "FROM read_parquet($links) l ANTI JOIN "
            "read_parquet($pages) p ON l.dst_url = p.url "
            "ORDER BY 1, 2, 3", {"links": links, "pages": files}).fetchall()
    finally:
        con.close()
    edge_tbl = to_table(host_edges(links))
    want_labels = union_find_labels(edge_tbl["src"].to_pylist(),
                                    edge_tbl["dst"].to_pylist())

    t0 = time.perf_counter()
    d = find_dangling_links(files, [links])
    find_s = time.perf_counter() - t0
    got = sorted(zip(d["src_url"].to_pylist(), d["ordinal"].to_pylist(),
                     d["dst_url"].to_pylist()))
    _expect(got == want_dangling,
            f"{len(got)} dangling rows != DuckDB anti-join "
            f"{len(want_dangling)}")

    tracer = Tracer()
    for attr in ("partial_groupby_agg", "exchange_join"):
        tracer.wrap(rel, attr, f"relational.{attr}")
    try:
        t0 = time.perf_counter()
        labels = components_min_label(host_edges(links), "src",
                                      "dst").materialize()
        cc_s = time.perf_counter() - t0
    finally:
        tracer.close()
    lab = to_table(labels)
    _expect(dict(zip(lab["node"].to_pylist(), lab["cluster"].to_pylist()))
            == want_labels and lab.num_rows == len(want_labels),
            "components differ from union-find on the host edges")
    pga_calls = len(tracer.durations("relational.partial_groupby_agg"))
    # one groupby seeds the labels, then one per round
    rounds = pga_calls - 1

    edges = rd.from_arrow(edge_tbl)
    nodes = sorted(want_labels)
    node_ds = rd.from_arrow(pa.table({"node": nodes, "lbl": nodes}))
    return {
        "checks.links.find_dangling_s": find_s,
        "checks.links.dangling_rows": len(got),
        "graph.cc_s": cc_s,
        "graph.cc_rounds": rounds,
        "graph.cc_s_per_round": cc_s / max(1, rounds),
        "relational.partial_groupby_agg_calls": pga_calls,
        "relational.exchange_join_calls": len(
            tracer.durations("relational.exchange_join")),
        "relational.groupby_edges_s": _median_of(
            lambda: rel.partial_groupby_agg(
                edges, ["src"], [("dst", "min", "lbl")]).materialize(), 3),
        "relational.hash_repartition_edges_s": _median_of(
            lambda: rel.hash_repartition_map(
                edges, "src",
                lambda t: t.group_by(["src"]).aggregate(
                    [("dst", "min")])).materialize(), 3),
        "relational.exchange_join_s": _median_of(
            lambda: rel.exchange_join(edges, node_ds, "src",
                                      "node").materialize(), 3),
    }


WORKLOADS = {w.name: w for w in (ValidateFresh, ValidateDailyAppend)}
