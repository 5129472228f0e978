"""Per-partition lineage manifests — the checkpoint/resume store.

The reference has no resume at all (full rebuilds, whole-file overwrites —
``build.sh:3-8``, graphs deleted then reloaded, ``update_graph.sh:3-7``); the
north_rule mandates per-partition lineage + metrics so a killed run resumes
from the last committed partition.

A manifest commits ONLY after the partition's data files are durably written,
via tmp-file + atomic ``os.replace``. ``run_validation`` keys partition ids on
each manifest's recorded ``input_fragment``, not on a file's place in the
sorted listing: a file keeps its id across runs, and new files get fresh ids
past the highest kept one.
"""

from __future__ import annotations

import json
import os
import pickle


class ManifestStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, pid) -> str:
        return os.path.join(self.root, f"part-{pid}.json")

    def completed(self) -> dict:
        """pid -> manifest record for every committed partition."""
        out = {}
        for name in sorted(os.listdir(self.root)):
            if name.startswith("part-") and name.endswith(".json"):
                with open(os.path.join(self.root, name)) as f:
                    rec = json.load(f)
                out[rec["partition_id"]] = rec
        return out

    def commit(self, pid, record: dict, stats: dict | None = None) -> None:
        """Atomically commit one partition's manifest (+ optional stats blob)."""
        record = dict(record, partition_id=pid)
        if stats is not None:
            sp = os.path.join(self.root, f"stats-{pid}.pkl")
            tmp = sp + ".tmp"
            with open(tmp, "wb") as f:
                pickle.dump(stats, f, protocol=5)
            os.replace(tmp, sp)
            record["stats_file"] = os.path.basename(sp)
        path = self._path(pid)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def drop(self, pid) -> None:
        """Forget one partition: its manifest first, so an interrupted drop
        leaves the partition uncommitted rather than half-dropped."""
        for name in (f"part-{pid}.json", f"stats-{pid}.pkl"):
            try:
                os.remove(os.path.join(self.root, name))
            except FileNotFoundError:
                pass

    def load_stats(self, pid) -> dict | None:
        sp = os.path.join(self.root, f"stats-{pid}.pkl")
        if not os.path.exists(sp):
            return None
        with open(sp, "rb") as f:
            return pickle.load(f)
