"""CLI driver — the usable-surface twin of the reference's sample runner
(/root/reference/main.py:12-46, which loads two CSVs, blocks them with a
chosen embedder and top-K, and prints recall statistics).

    python -m deepblocker_ray block --left L.parquet --right R.parquet \\
        --cols name,category --embedder sif --k 50 --out /tmp/out
    python -m deepblocker_ray link  --input transcripts.parquet \\
        --embedder sif --k 10 --out /tmp/out
    python -m deepblocker_ray dedup --input docs.parquet \\
        --method minhash --out /tmp/out
    python -m deepblocker_ray curate --input docs.parquet --out /tmp/out

Each subcommand writes partitioned parquet under --out plus a metrics.json
(row counts, dedup skew stats). The CLI owns its Ray session (guarded init);
library code never calls ray.init().
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _write(ds, out_dir: str, name: str) -> int:
    from .sources.io import write_partitioned

    path = os.path.join(out_dir, name)
    ds = ds.materialize()  # one execution serves both the count and the write
    n = ds.count()
    write_partitioned(ds, path)
    return n


def cmd_block(args) -> dict:
    from .config import EngineConfig
    from .pipelines.blocking import DeepBlockerRay
    from .pipelines.linkage import make_embedder
    from .sources.io import read_table
    from .stages.pairing import make_pairer

    cfg = EngineConfig()
    embedder = make_embedder(args.embedder, cfg)
    pairer = make_pairer(args.pairing, args.k, cfg, exclude_self=False)
    blocker = DeepBlockerRay(embedder, pairer)
    cand = blocker.block_datasets(
        read_table(args.left),
        read_table(args.right),
        args.cols.split(","),
    )
    return {"candidates": _write(cand, args.out, "candidates")}


def cmd_link(args) -> dict:
    from .config import EngineConfig
    from .pipelines.linkage import link_incremental, link_transcripts
    from .sources.io import read_transcripts

    cfg = EngineConfig()
    res = link_transcripts(
        read_transcripts(args.input),
        cfg,
        embedder=args.embedder,
        k=args.k,
        pairing=args.pairing,
    )
    if args.delta:
        # daily-delta shape: absorb the delta batch with the frozen
        # embedder and the base clusters as prior assignments
        res = link_incremental(
            res,
            read_transcripts(args.delta),
            cfg,
            k=args.k,
            pairing=args.pairing,
        )
    out = {
        "matches": _write(res["matches"], args.out, "matches"),
        "clusters": _write(res["clusters"], args.out, "clusters"),
    }
    return out


def cmd_dedup(args) -> dict:
    from .config import EngineConfig
    from .sources.io import read_table
    from .stages import dedup as D

    cfg = EngineConfig()
    ds = read_table(args.input)
    stats: dict = {}
    if args.method == "exact":
        out = D.exact_dedup(ds, cfg=cfg)
    elif args.method == "minhash":
        out = D.minhash_lsh_dedup(ds, cfg=cfg, stats_out=stats)
    elif args.method == "simhash":
        out = D.simhash_dedup(ds, cfg=cfg, stats_out=stats)
    elif args.method == "ngram":
        out = D.ngram_jaccard_dedup(ds, cfg=cfg, stats_out=stats)
    else:
        raise SystemExit(f"unknown dedup method {args.method!r}")
    return {"rows": _write(out, args.out, "dedup"), "skew_stats": stats}


def cmd_curate(args) -> dict:
    from .config import EngineConfig
    from .pipelines.pretrain import pretrain_curate
    from .sources.io import read_table

    out = pretrain_curate(
        read_table(args.input),
        EngineConfig(),
        quality_min=args.quality_min,
        tokens_per_seq=args.tokens_per_seq,
    )
    return {"rows": _write(out, args.out, "curate")}


def cmd_profile(args) -> dict:
    from .config import EngineConfig
    from .sources.io import read_table
    from .stages.dedup import dup_size_histogram
    from .stages.profile import column_profile

    cfg = EngineConfig()
    ds = read_table(args.input)
    cols = (
        args.cols.split(",")
        if args.cols
        else [
            n
            for n, t in zip(ds.schema().names, ds.schema().types)
            if "string" in str(t)
        ]
    )
    out = {
        "columns": _write(
            column_profile(ds, cfg, columns=cols), args.out, "columns"
        )
    }
    if args.text_col:
        out["dup_histogram"] = _write(
            dup_size_histogram(ds, cfg, text_col=args.text_col),
            args.out,
            "dup_histogram",
        )
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="deepblocker_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("block", help="two-table top-K blocking (main.py flow)")
    b.add_argument("--left", required=True)
    b.add_argument("--right", required=True)
    b.add_argument("--cols", required=True, help="comma-separated block cols")
    b.add_argument("--embedder", default="sif")
    b.add_argument("--pairing", default="exact", choices=["exact", "ivf"])
    b.add_argument("--k", type=int, default=50)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_block)

    l = sub.add_parser("link", help="transcript self-linkage end-to-end")
    l.add_argument("--input", required=True)
    l.add_argument("--embedder", default="sif")
    l.add_argument("--pairing", default="exact", choices=["exact", "ivf"])
    l.add_argument("--k", type=int, default=10)
    l.add_argument(
        "--delta",
        default=None,
        help="second transcript parquet absorbed incrementally after the "
        "base linkage (frozen embedder, delta-only blocking)",
    )
    l.add_argument("--out", required=True)
    l.set_defaults(fn=cmd_link)

    d = sub.add_parser("dedup", help="document near-duplicate clustering")
    d.add_argument("--input", required=True)
    d.add_argument(
        "--method", default="minhash",
        choices=["exact", "minhash", "simhash", "ngram"],
    )
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_dedup)

    c = sub.add_parser(
        "curate",
        help="pretraining curation: normalize → dedup → quality gate → pack",
    )
    c.add_argument("--input", required=True)
    c.add_argument("--quality-min", type=float, default=0.5)
    c.add_argument("--tokens-per-seq", type=int, default=2048)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_curate)

    pr = sub.add_parser(
        "profile",
        help="data-quality scan: per-column profile (+ exact-dup cluster "
        "histogram with --text-col)",
    )
    pr.add_argument("--input", required=True)
    pr.add_argument(
        "--cols", default=None,
        help="comma-separated columns (default: all string columns)",
    )
    pr.add_argument(
        "--text-col", default=None,
        help="also emit the exact-duplicate cluster-size histogram over "
        "this column",
    )
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=cmd_profile)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    _ensure_ray()
    t0 = time.time()
    metrics = args.fn(args)
    metrics["wall_sec"] = round(time.time() - t0, 3)
    with open(os.path.join(args.out, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=2)
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
