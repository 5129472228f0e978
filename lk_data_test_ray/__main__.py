"""CLI: ``python -m lk_data_test_ray <command>``.

The validation job as a submittable entry point (≙ the reference's
``build.sh:3-8`` pipeline chain; on a real cluster this is the target of
``ray job submit -- python -m lk_data_test_ray validate ...``). Owns its Ray
session (the library never calls ray.init — SURVEY.md §3.4).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(prog="lk_data_test_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="run the full constraint suite")
    v.add_argument("pages_path", help="dir of pages parquet files (or one file)")
    v.add_argument("out_dir", help="output dir (violations/, manifests/, summary.json)")
    v.add_argument("--lang-hist", default=None,
                   help="parquet with (lang, expected_fraction) for the drift check")
    v.add_argument("--no-resume", action="store_true",
                   help="ignore committed manifests and recompute everything")
    v.add_argument("--concurrency", type=int, default=None)
    v.add_argument("--no-extract-check", action="store_true",
                   help="skip the (expensive) C6 extraction-equality check")
    v.add_argument("--clean-dir", default=None,
                   help="also write rows untouched by any row-phase violation "
                        "to this dir as partitioned parquet (quarantine split)")
    v.add_argument("--max-partitions", type=int, default=None,
                   help="smoke mode: validate only the first K input files "
                        "(≙ the reference's LIMIT env gate, make_rdf.py:25-29)")
    v.add_argument("--num-cpus", type=int, default=None)

    r = sub.add_parser(
        "report",
        help="render index.html from a validation out_dir and optionally "
             "publish it as an atomic 'current' snapshot (S6/S7)")
    r.add_argument("out_dir")
    r.add_argument("--publish-root", default=None,
                   help="atomically repoint <publish-root>/current at out_dir")

    g = sub.add_parser("generate", help="generate a synthetic pages fixture")
    g.add_argument("out_dir")
    g.add_argument("--rows", type=int, default=60_000)
    g.add_argument("--seed", type=int, default=42)

    c = sub.add_parser(
        "curate",
        help="full training-data curation funnel: validate -> quarantine "
             "split -> LSH near-dup dedup -> quality filter -> parquet")
    c.add_argument("pages_path")
    c.add_argument("out_dir")
    c.add_argument("--lang-hist", default=None)
    c.add_argument("--min-tokens", type=int, default=10)
    c.add_argument("--near-dup-threshold", type=float, default=0.6)
    c.add_argument("--num-cpus", type=int, default=None)

    args = ap.parse_args(argv)

    if args.cmd == "report":
        from lk_data_test_ray.report import publish_snapshot, render_report

        path = render_report(args.out_dir)
        out = {"index_html": path}
        if args.publish_root:
            out["published"] = publish_snapshot(args.out_dir,
                                                args.publish_root)
        print(json.dumps(out))
        return 0

    if args.cmd == "generate":
        from lk_data_test_ray.sources.pages import generate_pages

        meta = generate_pages(args.out_dir, args.rows, seed=args.seed)
        print(json.dumps({"out_dir": args.out_dir, "n_rows": meta["n_rows"],
                          "injected": meta["injected"]}))
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR",
                 **({"num_cpus": args.num_cpus} if args.num_cpus else {}))
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    if args.cmd == "curate":
        from lk_data_test_ray.pipelines.training_data import curate_pages

        funnel = curate_pages(
            args.pages_path, args.out_dir,
            lang_hist_path=args.lang_hist,
            min_tokens=args.min_tokens,
            near_dup_threshold=args.near_dup_threshold)
        print(json.dumps(funnel, default=str))
        ray.shutdown()
        return 0

    from lk_data_test_ray.pipelines.validate import run_validation

    pages_path = args.pages_path
    if args.max_partitions is not None:
        import glob as _glob
        import shutil

        files = sorted(_glob.glob(os.path.join(args.pages_path, "*.parquet")))
        # one stable link dir per out_dir, so a rerun resumes: each
        # manifest's input_fragment names a path under it
        pages_path = os.path.join(args.out_dir, "smoke_inputs")
        shutil.rmtree(pages_path, ignore_errors=True)
        os.makedirs(pages_path)
        for f in files[: args.max_partitions]:
            os.symlink(os.path.abspath(f),
                       os.path.join(pages_path, os.path.basename(f)))

    summary = run_validation(
        pages_path, args.out_dir,
        lang_hist_path=args.lang_hist,
        resume=not args.no_resume,
        concurrency=args.concurrency,
        check_extract=not args.no_extract_check,
        clean_dir=args.clean_dir,
    )
    print(json.dumps(summary, default=str))
    ray.shutdown()
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
