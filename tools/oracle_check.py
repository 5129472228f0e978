"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf dir and, where an
``oracle_sql()`` entry exists, compares against DuckDB: row count, column
names, and order-insensitive values (rows sorted by all columns, exact
comparison; floats compared to 1e-9 after the shared rounding).

Usage: python tools/oracle_check.py [sf_dir] [query ...]
       python tools/oracle_check.py --json OUT.json [sf_dir] [query ...]

With ``--json`` the sweep also writes a machine-readable artifact in the
driver's CORRECTNESS_r{N}.json shape — one entry per query with
rows/schema/hash verdicts (hash_match = the order-insensitive value
comparison), ``err: "no_oracle"`` for entries without SQL, and
``err: "pinned_sf001"`` for fixture-pinned oracles skipped at other
scales — so the driver's 50-query sample is backed by a committed
full-surface record (VERDICT r4 item 2).
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

# the checkout this script lives in, so a copy checks its own package
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

def pinned_to_sf001(oracles: dict) -> set:
    """Queries whose rendered oracle SQL reads the sf0.01 pages fixture by
    absolute path (oracle_sql() is static; the driver compares at sf0.01) —
    detected from the SQL text so new fixture-backed queries are never
    silently compared against the wrong scale."""
    return {name for name, sql in oracles.items()
            if any(p in sql for p in ("/lk_pages/", "/lk_lines/", "/lk_recrawl/"))}

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("uint", "int")):
            df[c] = df[c].astype("int64")
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True)


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> str:
    if sorted(mine.columns) != sorted(oracle.columns):
        return f"SCHEMA MISMATCH mine={sorted(mine.columns)} oracle={sorted(oracle.columns)}"
    if len(mine) != len(oracle):
        return f"ROWCOUNT MISMATCH mine={len(mine)} oracle={len(oracle)}"
    a, b = normalize(mine), normalize(oracle)
    for c in a.columns:
        if a[c].dtype.kind == "f" or b[c].dtype.kind == "f":
            ok = np.allclose(a[c].astype(float), b[c].astype(float),
                             atol=1e-9, rtol=0, equal_nan=True)
        else:
            ok = a[c].equals(b[c])
        if not ok:
            bad = (a[c] != b[c])
            i = int(np.argmax(bad.to_numpy())) if bad.any() else 0
            return (f"VALUE MISMATCH col={c} row{i}: "
                    f"mine={a[c].iloc[i]!r} oracle={b[c].iloc[i]!r}")
    return "OK"


def main():
    argv = sys.argv[1:]
    json_out = None
    if argv and argv[0] == "--json":
        json_out = argv[1]
        argv = argv[2:]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True,
                 logging_level="ERROR")
    import logging

    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    qs, oracles = e.queries(), e.oracle_sql()
    pinned = pinned_to_sf001(oracles)
    record: dict[str, dict] = {}
    n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"{name}: RAY ERROR {type(ex).__name__}: {ex}")
            record[name] = dict(rows_match=False, schema_match=False,
                                hash_match=False, spark_rows=None,
                                oracle_rows=None,
                                err=f"RAY ERROR {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        ent = dict(rows_match=None, schema_match=None, hash_match=None,
                   spark_rows=len(mine), oracle_rows=None, err=None,
                   wall_sec=round(dt, 2))
        record[name] = ent
        if (name in pinned
                and not sf_dir.rstrip("/").endswith("sf0.01")):
            # these oracles read the sf0.01 pages fixture by absolute path
            # (oracle_sql() is static; the driver compares at sf0.01) — at
            # any other sf the comparison mismatches by construction
            print(f"{name}: skipped (oracle pinned to the sf0.01 fixture) "
                  f"[{dt:.1f}s, {len(mine)} rows]")
            ent["err"] = "pinned_sf001"
            continue
        if name in oracles:
            try:
                ora = con.execute(oracles[name]).df()
            except Exception as ex:
                print(f"{name}: ORACLE SQL ERROR {ex}")
                ent.update(rows_match=False, schema_match=False,
                           hash_match=False, err=f"ORACLE SQL ERROR {ex}")
                n_fail += 1
                continue
            verdict = compare(name, mine, ora)
            ent.update(
                oracle_rows=len(ora),
                schema_match=not verdict.startswith("SCHEMA"),
                rows_match=len(mine) == len(ora),
                hash_match=verdict == "OK",
                err=None if verdict == "OK" else verdict)
        else:
            verdict = f"rows-only ({len(mine)} rows)"
            ent["err"] = "no_oracle"
        status = verdict if verdict.startswith(("OK", "rows-only")) else f"FAIL {verdict}"
        if status.startswith("FAIL"):
            n_fail += 1
        print(f"{name}: {status}  [{dt:.1f}s, {len(mine)} rows]")
    if json_out:
        import json

        oracled = [v for v in record.values() if v.get("hash_match") is not None]
        summary = dict(
            sf_dir=sf_dir,
            n_queries=len(record),
            n_oracled=len(oracled),
            n_pass=sum(1 for v in oracled if v["hash_match"]),
            n_fail=n_fail,
            n_no_oracle=sum(1 for v in record.values()
                            if v.get("err") == "no_oracle"),
        )
        with open(json_out, "w") as f:
            json.dump({"_summary": summary, **record}, f, indent=1)
        print(f"wrote {json_out}: {summary}")
    print(f"\n{'ALL OK' if n_fail == 0 else f'{n_fail} FAILURES'}")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
