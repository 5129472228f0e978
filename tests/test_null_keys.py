"""User-keyed queries over events whose user_id is null on a few rows
agree with their DuckDB oracles: SQL's PARTITION BY, GROUP BY and set
operations put every null key in ONE group, and so must each range's
``relational.runs`` cut (a float numpy view of an int key with nulls
reads them as NaN, and NaN != NaN split that group row by row)."""

import shutil
import sys
from pathlib import Path

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "tools"))

from oracle_check import TABLES, compare, to_pandas  # noqa: E402

N_NULL = 6

NULL_KEY_QUERIES = [
    "e_dedup_consecutive",
    "e_lag_diff",
    "e_sessionize",
    "v_table_fingerprint",
    "e_burst_rate",
    "e_gap_quantiles",
    "e_rolling_avg",
    "e_transitions",
    "j_interval_overlap",
    "j_upsert_cdc",
    "o_intersect_except",
    "j_skew_user_events",
]


@pytest.fixture(scope="module")
def null_sf(sf_dir, tmp_path_factory):
    """The test tables with user_id set to null on N_NULL evenly spaced
    events."""
    src, out = Path(sf_dir), tmp_path_factory.mktemp("sf_null_users")
    for t in TABLES:
        shutil.copy(src / f"{t}.parquet", out / f"{t}.parquet")
    ev = pq.read_table(src / "events.parquet")
    null = np.zeros(ev.num_rows, bool)
    null[np.arange(N_NULL) * (ev.num_rows // N_NULL)] = True
    uid = pa.array(ev["user_id"].to_numpy(), pa.int64(), mask=null)
    pq.write_table(ev.set_column(ev.column_names.index("user_id"),
                                 "user_id", uid), out / "events.parquet")
    return str(out)


@pytest.mark.parametrize("name", NULL_KEY_QUERIES)
def test_null_user_ids_match_oracle(null_sf, name):
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{null_sf}/{t}.parquet')")
    assert con.execute("SELECT count(*) FROM events WHERE user_id IS NULL"
                       ).fetchone()[0] == N_NULL
    mine = to_pandas(e.queries()[name](null_sf))
    assert compare(name, mine, con.execute(e.oracle_sql()[name]).df()) == "OK"
