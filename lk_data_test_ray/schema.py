"""Declared Arrow schemas for every engine table.

The reference accesses fields dynamically and tolerates absence via
``try/except`` (reference ``scripts/make_listwork.py:80-85``); this engine makes
the schema explicit and validates conformance as check C0.
"""

from __future__ import annotations

import pyarrow as pa

# Primary fact table (BASELINE.json input_hint).
PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),  # primary key (≙ TEI @xml:id, make_rdf.py:61-63)
        pa.field("warc_ts", pa.timestamp("us")),  # ≙ @when-iso dates (make_listwork.py:747-751)
        pa.field("html", pa.binary()),  # raw payload (≙ TEI body)
        pa.field("text", pa.string()),  # extracted text (≙ normalize_string'd wording)
        pa.field("lang", pa.string()),  # coded attribute (≙ @type/@subtype vocabularies)
    ]
)

# First-class violation stream (≙ the reference's per-check failure prints and
# report files, e.g. make_texts.py:421, check_fackel_references.py:74-76).
VIOLATIONS_SCHEMA = pa.schema(
    [
        pa.field("check_id", pa.string()),
        pa.field("url", pa.string()),
        pa.field("partition_id", pa.int32()),
        pa.field("severity", pa.string()),
        pa.field("detail", pa.string()),
    ]
)

# Cross-document link child table (≙ linked documents, make_texts.py:571-575).
LINKS_SCHEMA = pa.schema(
    [
        pa.field("src_url", pa.string()),
        pa.field("ordinal", pa.int32()),
        pa.field("dst_url", pa.string()),
        pa.field("anchor", pa.string()),
    ]
)

# Drift baseline dimension table (FIXTURES.md F2).
LANG_HIST_SCHEMA = pa.schema(
    [
        pa.field("lang", pa.string()),
        pa.field("expected_fraction", pa.float64()),
    ]
)

# warc_ts validity bounds for check C4 (Common Crawl started 2008; generator
# uses [2013, 2025); bounds chosen to catch epoch-0 / y2038 injections).
WARC_TS_MIN = "1996-01-01T00:00:00"
WARC_TS_MAX = "2030-01-01T00:00:00"


def make_violations(
    check_id: str,
    urls,
    partition_id: int,
    severity: str,
    details,
) -> pa.Table:
    """Build a violations table; ``details`` may be a list or a single string."""
    n = len(urls)
    if isinstance(details, str):
        details = [details] * n
    return pa.table(
        {
            "check_id": pa.array([check_id] * n, pa.string()),
            "url": pa.array(urls, pa.string()),
            "partition_id": pa.array([partition_id] * n, pa.int32()),
            "severity": pa.array([severity] * n, pa.string()),
            "detail": pa.array(details, pa.string()),
        },
        schema=VIOLATIONS_SCHEMA,
    )
