#!/usr/bin/env python3
"""One benchmark run of the validation engine.

    python3 perfbench/run.py --workload validate_fresh --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout. The run generates its corpus from
``--seed`` (cached under ``.perfbench_work/``), starts one Ray session with
``num_cpus`` equal to what ``nproc`` reports, and then:

1. sets up ``SETUP_REPS`` times (session start plus an untimed warm-up op on
   a slice of the corpus, shutting down between repetitions); ``setup_s`` is
   the median;
2. repeats the workload's op for ``--seconds`` seconds (at least
   ``MIN_OPS`` times), checking every op's output against an independent
   reference;
3. with ``--trace 0`` prints the end-to-end metrics, medians over the ops
   whose output passed its check;
4. with ``--trace 1`` it splits ``--seconds`` between untraced and traced
   ops, runs standalone layer probes and prints the per-layer metrics,
   writing the spans to ``.perfbench_work/traces/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Without the program's package next to ``perfbench/`` the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 2
MIN_OPS = 5
OBJECT_STORE_BYTES = 512 * 2**20
# unix socket paths under the Ray temp dir must stay below 108 bytes
MAX_RAY_TEMP_LEN = 40

E2E_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "cpu_us_per_row": "us",
             "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_UNITS = {
    "sources.read_us_per_row": "us",
    "functions.extract_us_per_row": "us",
    "functions.hash_us_per_row": "us",
    "sketches.hll_us_per_row": "us",
    "sketches.tdigest_us_per_row": "us",
    "checks.row.process_us_per_row": "us",
    "checks.row.process_noextract_us_per_row": "us",
    "validate.row_s": "s",
    "validate.global_s": "s",
    "validate.c1_feeds_s": "s",
    "validate.c1_candidates_s": "s",
    "validate.c1_verify_s": "s",
    "validate.stats_merge_s": "s",
    "validate.floor_s": "s",
    "validate.step_p50_s": "s",
    "validate.step_p90_s": "s",
    "checks.row.plan_scan_items_ms": "ms",
    "checks.row.merge_stats_ms": "ms",
    "checks.uniqueness.make_collectors_ms": "ms",
    "checks.uniqueness.verify_candidates_ms": "ms",
    "checks.uniqueness.candidates": "count",
    "state.manifest.commits": "count",
    "state.manifest.commit_ms_p50": "ms",
    "state.manifest.first_commit_s": "s",
    "state.manifest.completed_ms": "ms",
    "state.manifest.load_stats_ms": "ms",
    "checks.links.find_dangling_s": "s",
    "checks.links.dangling_rows": "count",
    "relational.groupby_edges_s": "s",
    "relational.hash_repartition_edges_s": "s",
    "relational.exchange_join_s": "s",
    "relational.partial_groupby_agg_calls": "count",
    "relational.exchange_join_calls": "count",
    "graph.cc_s": "s",
    "graph.cc_rounds": "count",
    "graph.cc_s_per_round": "s",
    "executor.trivial_dataset_s": "s",
    "trace.overhead_frac": "frac",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


class RaySession:
    """Starts and stops the run's Ray session and reaps its processes."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        temp = os.path.join(WORK, "ray")
        self.temp = temp if len(temp) <= MAX_RAY_TEMP_LEN else None
        self.up = False

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        kwargs = {"_temp_dir": self.temp} if self.temp else {}
        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, **kwargs)
        self.up = True
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        import ray

        from procstat import reap, session_pids

        if not self.up:
            return
        pids = session_pids(os.getpid())
        ray.shutdown()
        reap(pids)
        self.up = False


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q: int) -> float:
    """The q-th decile (inclusive method) of xs."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[q - 1]


def run_ops(wl, sampler, seconds: float, tracer=None) -> list[dict]:
    """Repeat the workload's op for ``seconds`` (at least MIN_OPS times)."""
    ops = []
    t_end = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < t_end:
        if tracer is not None:
            tracer.begin_op()
        rec = {"ok": False, "out": None, "wall": 0.0,
               "op": tracer.op if tracer is not None else None}
        w = sampler.window()
        try:
            wl.reset()
            with w:
                t0 = time.perf_counter()
                try:
                    rec["out"] = wl.op()
                finally:
                    rec["wall"] = time.perf_counter() - t0
            wl.check(rec["out"])
            rec["ok"] = True
        except Exception as ex:  # a failed op counts, the run goes on
            rec["error"] = f"{type(ex).__name__}: {ex}"
            log(traceback.format_exc())
        rec["cpu_s"], rec["peak_rss_mb"] = w.cpu_s, w.peak_rss_mb
        log(f"{wl.name} op {len(ops)}: {rec['wall']:.3f} s, "
            f"cpu {rec['cpu_s']:.2f} s, "
            f"{'ok' if rec['ok'] else rec['error']}")
        ops.append(rec)
    return ops


def passed(ops: list[dict]) -> list[dict]:
    """The ops whose output passed its check; failed ones count only in
    ``failed``."""
    return [o for o in ops if o["ok"]]


def e2e_metrics(wl, ops: list[dict], setup: list[float]) -> dict:
    ops = passed(ops)
    wall = median([o["wall"] for o in ops])
    return {
        "wall_s": wall,
        "rows_per_s": wl.rows / wall if wall else 0.0,
        "cpu_us_per_row": median([o["cpu_s"] for o in ops]) * 1e6 / wl.rows,
        "peak_rss_mb": median([o["peak_rss_mb"] for o in ops]),
        "setup_s": median(setup),
    }


def install_tracer(tracer) -> None:
    from lk_data_test_ray import relational
    from lk_data_test_ray.checks import links
    from lk_data_test_ray.pipelines import validate
    from lk_data_test_ray.state.manifest import ManifestStore

    def count_candidates(t, cand):
        t.count("checks.uniqueness.candidates", len(cand))

    for attr, name, on_result in (
            ("run_validation", "validate.run", None),
            ("plan_scan_items", "checks.row.plan_scan_items", None),
            ("merge_stats", "checks.row.merge_stats", None),
            ("make_collectors", "checks.uniqueness.make_collectors", None),
            ("verify_candidates", "checks.uniqueness.verify_candidates",
             None),
            ("collector_candidates", "checks.uniqueness.collector_candidates",
             count_candidates)):
        tracer.wrap(validate, attr, name, on_result)
    for attr in ("commit", "completed", "load_stats"):
        tracer.wrap(ManifestStore, attr, f"state.manifest.{attr}")
    tracer.wrap(links, "find_dangling_links", "checks.links.find_dangling")
    for attr in ("partial_groupby_agg", "exchange_join"):
        tracer.wrap(relational, attr, f"relational.{attr}")


def trivial_dataset_s(reps: int = 5) -> float:
    """Wall of a one-block identity map_batches: the executor's floor."""
    import pyarrow as pa
    import ray.data as rd

    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        rd.from_arrow(pa.table({"x": [1]})).map_batches(
            lambda b: b, batch_format="pyarrow").materialize()
        walls.append(time.perf_counter() - t0)
    return median(walls)


def layer_metrics(wl, ops, traced_ops, tracer, num_cpus: int):
    """(per-layer metrics, whether the standalone layer probes passed their
    output checks)."""
    m = {name: 0.0 for name in LAYER_UNITS}
    probes_ok = True
    try:
        m.update(wl.trace_layers())
    except Exception:  # a failed probe counts as a failed attempt
        log(traceback.format_exc())
        probes_ok = False
    m["executor.trivial_dataset_s"] = trivial_dataset_s()
    ops, traced_ops = passed(ops), passed(traced_ops)
    base, traced = (median([o["wall"] for o in ops]),
                    median([o["wall"] for o in traced_ops]))
    m["trace.overhead_frac"] = (traced - base) / base if base else 0.0

    def per_op(fn):
        """Median over the traced ops of fn(op id)."""
        return median([fn(o["op"]) for o in traced_ops])

    def span_ms(name):
        return per_op(lambda i: 1e3 * sum(tracer.durations(name, i)))

    def span_count(name):
        return per_op(lambda i: len(tracer.durations(name, i)))

    def phase(key, sub=None):
        def of_step(s):
            v = s["phase_wall"][key]
            return (v or {}).get(sub, 0.0) if sub else v
        return median([sum(of_step(s) for s in o["out"]["steps"])
                       for o in ops])

    m["validate.row_s"] = phase("row")
    m["validate.global_s"] = phase("global")
    m["validate.stats_merge_s"] = phase("stats_merge")
    for sub in ("feeds", "candidates", "verify"):
        m[f"validate.c1_{sub}_s"] = phase("c1_drain", sub)
    per_row_s = (m["sources.read_us_per_row"]
                 + m["checks.row.process_us_per_row"]) / 1e6
    m["validate.floor_s"] = median(
        [o["wall"] - wl.rows * per_row_s / num_cpus for o in ops])
    steps = [w for o in ops
             for w in o["out"].get("step_walls", [o["wall"]])]
    m["validate.step_p50_s"] = median(steps)
    m["validate.step_p90_s"] = quantile(steps, 9)
    for name in ("checks.row.plan_scan_items", "checks.row.merge_stats",
                 "checks.uniqueness.make_collectors",
                 "checks.uniqueness.verify_candidates",
                 "state.manifest.completed",
                 "state.manifest.load_stats"):
        m[f"{name}_ms"] = span_ms(name)
    m["checks.uniqueness.candidates"] = per_op(
        lambda i: tracer.op_counts[i]["checks.uniqueness.candidates"])
    m["state.manifest.commits"] = span_count("state.manifest.commit")
    good = {o["op"] for o in traced_ops}
    m["state.manifest.commit_ms_p50"] = 1e3 * median(
        [d for i in good for d in tracer.durations("state.manifest.commit",
                                                    i)])
    firsts = []
    for run in (s for s in tracer.spans
                if s["name"] == "validate.run" and s["op"] in good):
        ends = [s["end"] for s in tracer.spans
                if s["name"] == "state.manifest.commit"
                and run["start"] <= s["start"] <= run["end"]]
        if ends:
            firsts.append(min(ends) - run["start"])
    m["state.manifest.first_commit_s"] = median(firsts)
    return m, probes_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "lk_data_test_ray",
                                       "__init__.py")):
        log(f"no lk_data_test_ray package under {ROOT}")
        return 2
    # Ray workers import the package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [ROOT, HERE]

    from procstat import SessionSampler
    from tracing import Tracer
    from workloads import WORKLOADS, ensure_corpus

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    cls = WORKLOADS[args.workload]
    num_cpus = nproc()
    t0 = time.perf_counter()
    corpus = ensure_corpus(os.path.join(WORK, "corpora"), cls.n_rows,
                           args.seed, cls.n_files)
    log(f"corpus {corpus}: {time.perf_counter() - t0:.3f} s")
    work = os.path.join(WORK, "runs", f"{cls.name}-{os.getpid()}")
    os.makedirs(work)
    wl = cls(corpus, work)
    session = RaySession(num_cpus)
    try:
        with SessionSampler() as sampler:
            setup = []
            for rep in range(SETUP_REPS):
                t0 = time.perf_counter()
                session.start()
                log(f"session start: {time.perf_counter() - t0:.3f} s")
                wl.warm_up()
                setup.append(time.perf_counter() - t0)
                log(f"setup {rep}: {setup[-1]:.3f} s")
                if rep < SETUP_REPS - 1:
                    session.stop()
            t0 = time.perf_counter()
            wl.prepare()
            log(f"prepare: {time.perf_counter() - t0:.3f} s")
            if args.trace:
                ops = run_ops(wl, sampler, args.seconds / 2)
                tracer = Tracer()
                install_tracer(tracer)
                try:
                    traced_ops = run_ops(wl, sampler, args.seconds / 2,
                                         tracer)
                finally:
                    tracer.close()
                metrics, probes_ok = layer_metrics(wl, ops, traced_ops,
                                                   tracer, num_cpus)
                ops_all = ops + traced_ops + [{"ok": probes_ok}]
                os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
                tracer.write(os.path.join(
                    WORK, "traces", f"{cls.name}-s{args.seed}.json"))
                units = LAYER_UNITS
            else:
                ops = run_ops(wl, sampler, args.seconds)
                ops_all = ops
                metrics = e2e_metrics(wl, ops, setup)
                units = E2E_UNITS
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops_all)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops_all),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
