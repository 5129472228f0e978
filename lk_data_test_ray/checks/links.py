"""C7 cross-document link integrity: dangling link-target detection.

Reference semantics: every ``@key``/``@ref`` pointer must resolve to an
existing record; missing targets are reported
(``curation/check_authors_exist_in_listperson.py:21-25``;
``scripts/make_texts.py:418-421`` "no uri for ref ... found"; cross-document
links ``make_texts.py:571-575``). The north-star names this check explicitly
("cross-document link integrity").

This is a BIG-to-BIG anti-join (links table vs pages table — neither side
broadcastable at 10^12 rows), and it runs as one: ``exchange_join``'s
``left_anti`` splits both sides by the same key hash and each range task
anti-joins its links rows to its page urls by value. The check is exact: a
link is dangling when no page url equals its target, and a null target is
dangling, as in SQL's ``NOT EXISTS``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..relational import exchange_join


@ray.remote
def _read(path: str, columns: list[str] | None = None) -> pa.Table:
    return pq.read_table(path, columns=columns)


def find_dangling_links(pages_paths: list[str], links_paths: list[str],
                        url_col: str = "url",
                        dst_col: str = "dst_url") -> pa.Table:
    """All link rows whose ``dst_col`` names no page's ``url_col``. Each
    file is one block, read by one plain task: ``rd.read_parquet`` cut
    the 16 files of a 64k-page corpus into 112 blocks, and the check took
    2–3× as long."""
    pages = rd.from_arrow_refs([_read.remote(p, [url_col])
                                for p in pages_paths])
    links = rd.from_arrow_refs([_read.remote(p) for p in links_paths])
    out = exchange_join(links, pages, dst_col, url_col, how="left_anti")
    return pa.concat_tables(ray.get(out.to_arrow_refs()))
