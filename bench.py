"""Benchmark harness.

Runs the headline pipelines over $GRAFT_SF_DIR (default /root/testdata/sf0.1)
under ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS or 32) and prints ONE
JSON line: {"metric", "value" (total sec), "unit", "queries": {name: sec},
"sf", "num_cpus"}.

``--scaling`` runs the headline pipeline at two parallelism levels (default
num_cpus=2 then 8, alternating reps, per-leg MIN) in fresh subprocesses on
the same input and reports throughput at both plus scaling efficiency — the
sandbox substitute for the north_rule's N vs 4N node criterion (BASELINE.md).
The 2→8 pair is the default because it is the widest N/4N pair on this
shared 32-vCPU box whose big leg escapes co-tenant steal and single-DRAM-bus
saturation (measured: 0.816 raw @ 2→8, 0.706 @ 4→16, 0.519 @ 8→32 with
identical code on identical input — and 0.876 raw @ 8→32 on an 8.6M-turn
corpus in round 4's quiet window); override with GRAFT_SCALING_CPUS.

``--stages`` (one ``--stages-leg`` subprocess per CPU count) and
``--stream`` run the flagship chain (``pipelines.linkage.STAGES``) under a
timing stage policy and report one wall per stage: tuples, embeddings,
candidates, matches, clusters. ``--stream`` is the round-4
larger-than-memory streaming demo (default ~40M turns, IVF pairing, peak
plasma + spill accounting; see stream() docstring for the env knobs).
``--resume-demo`` kills and resumes the checkpointed run of the same chain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _cpu_stat() -> tuple[int, int]:
    """(steal_ticks, total_ticks) from /proc/stat — host-wide, including
    co-tenant steal. Sampled around each timed region so every reported
    wall carries its own evidence of hypervisor CPU steal (this shared VM
    measures 0-35% steal depending on neighbor load; a 32-vCPU burst is
    stolen from far more than an 8-vCPU one)."""
    with open("/proc/stat") as f:
        parts = f.readline().split()
    vals = [int(x) for x in parts[1:]]
    steal = vals[7] if len(vals) > 7 else 0
    return steal, sum(vals)


def _steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    dt = after[1] - before[1]
    return round((after[0] - before[0]) / dt, 4) if dt > 0 else 0.0


def _ray_init(**init_kwargs):
    """Start this process's local Ray session at NUM_CPUS, quiet."""
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        **init_kwargs,
    )
    DataContext.get_current().enable_progress_bars = False
    return ray


def _timed_stages(times: dict, steals: dict):
    """Stage policy for the flagship chain (pipelines.linkage.STAGES): each
    stage is materialized, as in memory, and its wall and CPU-steal
    fraction are recorded under the stage name."""

    def stage(name, fn, deps):
        s0 = _cpu_stat()
        t0 = time.perf_counter()
        out = fn().materialize()
        times[name] = round(time.perf_counter() - t0, 2)
        steals[name] = _steal_frac(s0, _cpu_stat())
        return out

    return stage


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# headline linkage scale: number of base conversations in the planted-dup
# corpus (scaled to keep pairing quadratic work meaningful but bounded)
LINKAGE_BASE = int(os.environ.get("GRAFT_LINKAGE_BASE", "40000"))
# restrict main() to the headline pipeline (used by --scaling runs)
BENCH_ONLY = os.environ.get("GRAFT_BENCH_ONLY", "")


def _linkage_input():
    """Planted-duplicate transcript corpus for the headline pipeline —
    deterministic, generated once and cached to parquet under /tmp."""
    import ray.data as rd

    cache = f"/tmp/graft_bench/transcripts_{LINKAGE_BASE}"
    if not os.path.exists(os.path.join(cache, "_DONE")):
        from deepblocker_ray.fixtures import synth_transcripts

        df, clusters = synth_transcripts(
            n_base=LINKAGE_BASE, seed=7, dup_fraction=0.3, big_cluster=50
        )
        os.makedirs(cache, exist_ok=True)
        df.to_parquet(os.path.join(cache, "transcripts.parquet"))
        clusters.to_parquet(os.path.join(cache, "clusters.parquet"))
        open(os.path.join(cache, "_DONE"), "w").write("ok")
    return rd.read_parquet(os.path.join(cache, "transcripts.parquet"))


def bench_linkage() -> dict:
    """Headline: full transcript linkage (canonicalize → SIF → exact top-K →
    score → cluster).

    An untimed warm-up run on a small slice first: it spawns the session's
    Python workers and pays their one-time module-import cost, so the timed
    run measures steady-state throughput — the regime a long-running
    multi-node job actually operates in (worker spawn is a per-session cost,
    not a per-byte cost; at 8 vs 32 CPUs it would otherwise skew the scaling
    comparison by starting 4× more workers inside the timed region)."""
    from deepblocker_ray.config import EngineConfig
    from deepblocker_ray.pipelines.linkage import link_transcripts

    # num_buckets stays CPU-independent so the 8- vs 32-CPU scaling runs do
    # byte-identical shuffle work (the config default is already fixed)
    cfg = EngineConfig()
    ds = _linkage_input()
    n_turns = ds.count()  # warms the page cache before timing
    warm = link_transcripts(ds.limit(4000), cfg, embedder="sif", k=4)
    warm["clusters"].count()
    s0 = _cpu_stat()
    t0 = time.perf_counter()
    res = link_transcripts(ds, cfg, embedder="sif", k=8)
    n_clusters = res["clusters"].count()
    sec = time.perf_counter() - t0
    return {
        "sec": sec,
        "rows": n_turns,
        "out_rows": n_clusters,
        "steal_frac": _steal_frac(s0, _cpu_stat()),
    }


def bench_query(fn) -> dict:
    s0 = _cpu_stat()
    t0 = time.perf_counter()
    out = fn(SF_DIR)
    # ray Dataset → .count(); pandas/pyarrow (whose .count() means
    # something else / len raises on Dataset) → len()
    import ray.data as _rd

    n = out.count() if isinstance(out, _rd.Dataset) else len(out)
    return {
        "sec": time.perf_counter() - t0,
        "out_rows": int(n),
        "steal_frac": _steal_frac(s0, _cpu_stat()),
    }


def main() -> None:
    ray = _ray_init()

    import __ray_entry__ as entrymod

    queries: dict[str, float] = {}
    details: dict[str, dict] = {}

    r = bench_linkage()
    queries["linkage_headline"] = round(r["sec"], 3)
    details["linkage_headline"] = r

    q = entrymod.queries()
    query_names = [] if BENCH_ONLY == "linkage" else [
        "canonicalize",
        "blocking_sif",
        "blocking_ae",
        "linkage_ctt",
        "blocking_hybrid",
        "dedup_exact",
        "minhash_dedup",
        "simhash_dedup",
        "ngram_jaccard_dedup",
        "embedding_neardup",
        "decontaminate",
        "knn_exact",
        "knn_ivf",
        "knn_int8",
        "blocking_vec",
        "linkage_vec",
        "linkage_vec_inc",
        "blocking_vec_2t",
        "string_sims",
        "media_features",
        "token_count",
        "token_stats",
        "bpe_token_count",
        "lang_id",
        "quality",
        "fingerprint",
        "sessionize",
        "window_agg",
        "asof_join",
        "pii_scrub",
        "repetition",
        "value_quantiles",
        "segment_revenue",
        "hash_sample",
        "stratified_sample",
        "keep_latest",
        "global_topk",
        "group_topk",
        "anti_join",
        "semi_join",
        "text_normalize",
        "top_terms",
        "quantile_gate",
        "hopping_window",
        "sequence_pack",
        "corpus_shuffle",
        "dedup_keep_best",
        "length_batches",
        "approx_distinct",
        "heavy_hitters",
        "bloom_filter",
        "range_join",
        "duplicate_spans",
        "sorted_neighborhood",
        "blocking_stats",
        "balance_sample",
        "pretrain_curate",
        "json_extract",
        "chunk_documents",
        "vocab_build",
        "snm_dedup",
        "value_outliers",
        "tfidf_dedup",
        "encode_tokens",
        "cluster_eval",
        "fuzzy_join",
        "ngram_counts",
        "rolling_agg",
        "tfidf_search",
        "chunk_roundtrip",
        "snapshot_diff",
        "column_profile",
        "span_extract",
        "debounce",
        "weighted_sample",
        "survivorship",
        "rank_transform",
        "value_histogram",
        "cooccurrence",
        "dup_size_histogram",
        "union_by_name",
        "conv_stats",
        "window_distinct",
        "pair_features",
        "tail_turns",
        "bigram_familiarity",
        "funnel",
        "retention",
        "block_skew",
        "group_cap",
        "turn_windows",
        "kmeans_assign",
        "set_sim_join",
        "dice_join",
        "cosine_join",
        "ngram_diversity",
        "minhash_delta",
        "leakage_split",
        "min_cost_supplier",
        "top_supplier",
        "transitions",
        "cluster_contingency",
        "session_paths",
        "rollup_counts",
        "pivot_counts",
        "resample_ffill",
        "gap_stats",
        "window_join",
        "soundex_key",
        "pricing_summary",
        "skyline",
        "knn_triangles",
        "group_mode",
        "meta_blocking",
        "ship_latency",
        "order_priority",
        "shipmode_priority",
        "customer_distribution",
        "small_quantity",
        "disjunctive_revenue",
        "waiting_supplier",
        "sales_opportunity",
        "volume_shipping",
        "market_share",
        "one_to_one",
        "fs_patterns",
        "shipping_priority",
        "local_supplier_revenue",
        "corr_moments",
        "pagerank",
        "fs_score",
        "scd2",
        "kmeans_update",
        "multipass_blocking",
        "local_clustering",
        "one_to_one_2t",
        "dim_stats",
        "rendezvous",
        "inverted_index",
        "label_denoise",
        "fk_audit",
        "ntile",
        "nearest_join",
        "table_fingerprint",
        "id_gaps",
        "event_runs",
        "fd_violations",
        "time_histogram",
        "join_size",
        "running_total",
        "calibration_pairs",
        "blocker_agreement",
        "winsorize",
        "range_splits",
        # round-3 session-8 additions
        "hits",
        "mad",
        "surprisal",
        "rank_fusion",
        "monge_elkan",
        "cusum",
        "label_prop",
        "readability",
        "column_overlap",
        "wl_signature",
        "proximity",
        "weighted_median",
        "doc_keywords",
        "kendall",
        "edge_features",
        "ktruss",
        "fof",
        "trimmed",
        "source_cosine",
        "burstiness",
        "burst_detect",
        "fd_discovery",
        "spearman",
        "novelty",
        "vocab_growth",
        "mad_outliers",
        "overlap_depth",
        "streaks",
        "column_entropy",
        "top_shared_pairs",
        "tail_risk",
        "cube",
        "media_overlap",
        "cluster_medoid",
        "join_skew",
        "autocorr",
        "k_anon",
        "l_diversity",
        "quantile_map",
        "regression_outliers",
        "active_users",
        "pair_lift",
        "weighted_jaccard",
        "type_trigrams",
        "peak_load",
        "order_balance",
        "tv_distance",
        "pair_divergence",
        "token_affinity",
        "seq_gaps",
        "embedding_audit",
        "reshard_delta",
        "trend_tau",
    ]
    for name in query_names:
        r = bench_query(q[name])
        queries[name] = round(r["sec"], 3)
        details[name] = r

    total = round(sum(queries.values()), 3)
    print(
        json.dumps(
            {
                "metric": "deepblocker_ray_bench_total",
                "value": total,
                "unit": "sec",
                "queries": queries,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "detail": details,
            }
        )
    )
    ray.shutdown()


def _hw_ceiling() -> dict:
    """Single-box calibration for the N-vs-4N substitute: the same perfectly
    parallel compute kernel (single-threaded sgemm per process) run in 8 and
    32 concurrent processes. On a real cluster, 4N nodes bring 4× memory
    bandwidth and an unchanged per-core turbo budget; on one box, 32 busy
    cores share both — this measures that single-box ceiling so the
    pipeline's efficiency can be read against what the host itself allows."""
    import multiprocessing as mp

    import numpy as np

    def worker(q):
        a = np.random.rand(512, 300).astype(np.float32)
        b = np.random.rand(4096, 300).astype(np.float32)
        for _ in range(3):
            a @ b.T
        t0 = time.perf_counter()
        n = 30
        for _ in range(n):
            a @ b.T
        q.put((time.perf_counter() - t0) / n)

    lo_n, hi_n = _cpu_pair()
    rates = {}
    for nproc in (lo_n, hi_n):
        q = mp.Queue()
        ps = [mp.Process(target=worker, args=(q,)) for _ in range(nproc)]
        [p.start() for p in ps]
        ts = [q.get() for _ in range(nproc)]
        [p.join() for p in ps]
        rates[nproc] = nproc / (sum(ts) / len(ts))
    return {
        f"gemm_per_sec_{lo_n}proc": round(rates[lo_n], 1),
        f"gemm_per_sec_{hi_n}proc": round(rates[hi_n], 1),
        "ceiling": round((rates[hi_n] / rates[lo_n]) / (hi_n / lo_n), 3),
    }


def _cpu_pair() -> tuple[int, int]:
    """The N / 4N parallelism pair for --scaling. Default 2,8; override with
    GRAFT_SCALING_CPUS="4,16" / "8,32" etc. — the north-rule criterion is
    stated for any N vs 4N. Narrow pairs approximate real cluster nodes
    (each leg owns its cores and bus); wide pairs on this shared box pay
    8-19% co-tenant steal plus DRAM saturation on the big leg (BASELINE.md
    round-3 pair series)."""
    lo, hi = os.environ.get("GRAFT_SCALING_CPUS", "2,8").split(",")
    return int(lo), int(hi)


def scaling() -> None:
    """Same headline job at the ``_cpu_pair()`` parallelism levels (default
    num_cpus=2 and 8) in fresh processes on the same input — the sandbox
    substitute for the north_rule's N vs 4N node criterion (see BASELINE.md).
    Only the linkage pipeline runs (the
    per-query micro-benches stay in the default mode). The corpus is larger
    than the default bench's so scalable compute dominates fixed per-stage
    costs, as it would on any real multi-node input."""
    base = os.environ.get("GRAFT_SCALING_BASE", "250000")

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_ONLY="linkage",
            GRAFT_LINKAGE_BASE=base,
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # warm page cache + fixture cache once, untimed (small scale)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=dict(
            os.environ,
            RAY_GRAFT_CPUS="8",
            GRAFT_BENCH_ONLY="linkage",
            GRAFT_LINKAGE_BASE="4000",
        ),
        capture_output=True,
        check=True,
    )
    # Sequential legs minutes apart are maximally exposed to neighbor-tenant
    # load on this shared VM (documented ±25-300% swings): with
    # GRAFT_SCALING_REPS>1 the legs alternate lo,hi,lo,hi,… and the per-leg
    # MINIMUM is reported (each leg's best approximates the quiet box — the
    # only regime where the two legs are comparable). All rep times are
    # included in the JSON for the record.
    reps = int(os.environ.get("GRAFT_SCALING_REPS", "2"))
    lo_n, hi_n = _cpu_pair()
    hw = _hw_ceiling()
    lo_times, hi_times = [], []
    lo_steal, hi_steal = [], []
    lo = hi = None
    for _ in range(reps):
        lo = run(lo_n)
        hi = run(hi_n)
        lo_times.append(lo["queries"]["linkage_headline"])
        hi_times.append(hi["queries"]["linkage_headline"])
        lo_steal.append(lo["detail"]["linkage_headline"].get("steal_frac"))
        hi_steal.append(hi["detail"]["linkage_headline"].get("steal_frac"))
    t_lo = min(lo_times)
    t_hi = min(hi_times)
    rows = lo["detail"]["linkage_headline"]["rows"]
    eff = (t_lo / t_hi) / (hi_n / lo_n)
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "value": round(eff, 3),
                "unit": "fraction",
                "cpu_pair": [lo_n, hi_n],
                f"sec_{lo_n}cpu": t_lo,
                f"sec_{hi_n}cpu": t_hi,
                f"turns_per_sec_{lo_n}cpu": round(rows / t_lo, 1),
                f"turns_per_sec_{hi_n}cpu": round(rows / t_hi, 1),
                "input_turns": rows,
                f"reps_{lo_n}cpu": [round(t, 1) for t in lo_times],
                f"reps_{hi_n}cpu": [round(t, 1) for t in hi_times],
                f"steal_{lo_n}cpu": lo_steal,
                f"steal_{hi_n}cpu": hi_steal,
                "hardware_ceiling": hw,
                "efficiency_vs_hw_ceiling": round(eff / hw["ceiling"], 3)
                if hw["ceiling"]
                else None,
                "sf": SF_DIR,
            }
        )
    )


def _stages_leg() -> None:
    """One per-stage-timed run of the headline linkage at RAY_GRAFT_CPUS:
    the flagship chain under the timing stage policy, so each timer covers
    exactly one stage of ``pipelines.linkage.STAGES`` — tuples,
    embeddings, candidates (index + raw top-K query), matches (candidate
    dedup + score + normalize), clusters. Prints one JSON line
    {"stages": {stage: sec}, "steal", "rows", "num_cpus"}."""
    ray = _ray_init()
    from deepblocker_ray.config import EngineConfig
    from deepblocker_ray.pipelines.linkage import (
        _LinkJob,
        _run_chain,
        link_transcripts,
    )

    cfg = EngineConfig()
    ds = _linkage_input()
    n_turns = ds.count()
    warm = link_transcripts(ds.limit(4000), cfg, embedder="sif", k=4)
    warm["clusters"].count()

    times: dict[str, float] = {}
    steals: dict[str, float] = {}
    job = _LinkJob(cfg, 8, transcripts=ds, embedder="sif")
    _run_chain(job, _timed_stages(times, steals))
    times["total"] = round(sum(times.values()), 2)
    print(
        json.dumps(
            {
                "stages": times,
                "steal": steals,
                "rows": n_turns,
                "num_cpus": NUM_CPUS,
            }
        )
    )
    ray.shutdown()


def stages() -> None:
    """Per-stage 8-vs-32 decomposition (the BASELINE.md table): runs
    _stages_leg in fresh subprocesses at the GRAFT_SCALING_CPUS pair and
    prints per-stage walls + scaling efficiency."""
    base = os.environ.get("GRAFT_SCALING_BASE", "100000")
    lo_n, hi_n = _cpu_pair()

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_LINKAGE_BASE=base,
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--stages-leg"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo = run(lo_n)
    hi = run(hi_n)
    ratio = hi_n / lo_n
    table = {
        k: {
            f"sec_{lo_n}": lo["stages"][k],
            f"sec_{hi_n}": hi["stages"][k],
            "eff": round(lo["stages"][k] / max(hi["stages"][k], 1e-9) / ratio, 2),
            f"steal_{lo_n}": lo["steal"].get(k),
            f"steal_{hi_n}": hi["steal"].get(k),
        }
        for k in lo["stages"]
    }
    print(
        json.dumps(
            {
                "metric": "per_stage_scaling",
                "cpu_pair": [lo_n, hi_n],
                "rows": lo["rows"],
                "stages": table,
            }
        )
    )


def _shmem_kb() -> int:
    """Current tmpfs usage (kB) — Ray's plasma store is /dev/shm-backed, so
    sampling this around a run gives the object-store peak on an otherwise
    idle box."""
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("Shmem:"):
                return int(line.split()[1])
    return 0


def stream() -> None:
    """Round-4 streaming demo (VERDICT #6): run the headline linkage on a
    corpus ~10× the largest measured point (default ~40M turns), timed per
    stage of the flagship chain (tuples, embeddings, candidates, matches,
    clusters), with the object store CAPPED below the pipeline's total
    materialized bytes so Ray's spill path is actually exercised — the
    regime a 100-TB job lives in permanently. Records per-stage walls, peak
    /dev/shm (plasma) usage, spill volume from Ray's own accounting, and
    the output row counts (comparable across capped/uncapped runs to show
    spill never changes results).

    Env knobs: GRAFT_STREAM_BASE (base conversations, default 3,750,000 →
    ~40M turns), GRAFT_STREAM_SHARDS (64), GRAFT_STREAM_PAIRING
    ("ivf" — the north-star scale path — or "exact"), GRAFT_STREAM_OBJ_GB
    (plasma cap in GiB; empty = Ray default 30% RAM), GRAFT_STREAM_CELLS /
    GRAFT_STREAM_NPROBE (IVF geometry, default √n_convs cells, cells/32
    probes), RAY_GRAFT_CPUS."""
    import threading

    base = int(os.environ.get("GRAFT_STREAM_BASE", "3750000"))
    n_shards = int(os.environ.get("GRAFT_STREAM_SHARDS", "64"))
    pairing = os.environ.get("GRAFT_STREAM_PAIRING", "ivf")
    obj_gb = os.environ.get("GRAFT_STREAM_OBJ_GB", "")
    init_kwargs = {}
    if obj_gb:
        init_kwargs["object_store_memory"] = int(float(obj_gb) * 2**30)
    ray = _ray_init(**init_kwargs)

    import ray.data as rd

    from deepblocker_ray.fixtures import synth_transcripts_sharded

    cache = f"/tmp/graft_bench/stream_{base}_{n_shards}"
    t_gen = time.perf_counter()
    synth_transcripts_sharded(cache, base, n_shards=n_shards)
    gen_s = round(time.perf_counter() - t_gen, 1)

    import glob

    sess_dir = ray._private.worker._global_node.get_session_dir_path()

    def _spill_bytes() -> int:
        return sum(
            os.path.getsize(f)
            for d in glob.glob(os.path.join(sess_dir, "ray_spilled_objects*"))
            for f in glob.glob(os.path.join(d, "**", "*"), recursive=True)
            if os.path.isfile(f)
        )

    import re

    def _dmesg_oom_count() -> int:
        """Kernel OOM-killer invocations visible in the ring buffer (count
        before/after and diff — the authoritative 'were workers OOM-killed'
        signal; raylet log scans can false-positive on config lines)."""
        try:
            out = subprocess.run(
                ["dmesg"], capture_output=True, text=True, timeout=10
            ).stdout
            return len(
                re.findall(r"oom-kill|Out of memory: Killed process", out)
            )
        except Exception:
            return -1

    def _raylet_worker_deaths() -> int:
        """Unexpected worker-death lines in this session's raylet logs."""
        n = 0
        for f in glob.glob(os.path.join(sess_dir, "logs", "raylet*.out")):
            try:
                txt = open(f, errors="ignore").read()
            except OSError:
                continue
            n += len(
                re.findall(
                    r"died or was killed|worker died unexpectedly", txt, re.I
                )
            )
        return n

    def _max_worker_anon_kb() -> int:
        """Max RssAnon over live ray worker processes right now — the
        per-worker HEAP bound (VmRSS would also count shared plasma mmap
        pages the worker merely touched, ~the whole object store for a
        query worker streaming the index)."""
        top = 0
        for d in glob.glob("/proc/[0-9]*"):
            try:
                with open(os.path.join(d, "cmdline"), "rb") as f:
                    if b"ray::" not in f.read():
                        continue
                with open(os.path.join(d, "status")) as f:
                    for line in f:
                        if line.startswith("RssAnon:"):
                            top = max(top, int(line.split()[1]))
                            break
            except OSError:
                continue
        return top

    oom0 = _dmesg_oom_count()
    shmem0 = _shmem_kb()
    peak = [shmem0]
    peak_spill = [0]
    peak_worker_anon = [0]
    stop = threading.Event()

    def sampler():
        # peak, not final: spill files are deleted as objects are freed
        tick = 0
        while not stop.is_set():
            peak[0] = max(peak[0], _shmem_kb())
            try:
                peak_spill[0] = max(peak_spill[0], _spill_bytes())
            except OSError:  # a file vanished mid-walk
                pass
            if tick % 4 == 0:  # /proc walk each ~1s
                peak_worker_anon[0] = max(
                    peak_worker_anon[0], _max_worker_anon_kb()
                )
            tick += 1
            stop.wait(0.25)

    th = threading.Thread(target=sampler, daemon=True)
    th.start()

    from deepblocker_ray.config import EngineConfig
    from deepblocker_ray.pipelines.linkage import _LinkJob, _run_chain

    cfg = EngineConfig()
    # key-grouped-exchange width: at 40M turns the default 128 buckets make
    # individual canonicalize reduce groups big enough that 32 concurrent
    # pandas group tasks OOM a 125-GB box (measured: workers killed at ~7 GB
    # anon each); buckets must scale with the corpus like any real
    # partitioning decision — default here targets ~100k turns per bucket
    cfg.num_buckets = int(
        os.environ.get("GRAFT_STREAM_BUCKETS", "0")
    ) or max(128, 1 << max(0, (base // 10_000) - 1).bit_length())
    # scorer text attachment: the plasma-broadcast TurnLookup holds
    # zero-copy views over the pinned turn-text blocks (per-worker private
    # state is only the 16 B/id hash index — ~90 MB at 5.4M convs), so it
    # remains the right path as long as the text column fits the object
    # store; the join fallback is for corpora beyond plasma
    cfg.broadcast_rows_max = max(cfg.broadcast_rows_max, 2 * base)
    # IVF query batch: per-batch cost has a fixed component linear in the
    # number of probed cells (~n_cells small-GEMM/merge loop iterations),
    # independent of batch rows. At √N cells the default 512-row batch
    # leaves that fixed cost 4× under-amortized on multi-million-conv
    # corpora (measured: 1387 s query wall at 5.4M convs / 2331 cells) —
    # 2048 amortizes it while the per-cell similarity tiles stay MB-sized
    # (|qs|≈batch·nprobe/cells rows per cell). A real cluster job sizes
    # this with the corpus exactly the same way.
    cfg.query_batch_size = int(
        os.environ.get("GRAFT_STREAM_QBATCH", "2048")
    )
    ds = rd.read_parquet(os.path.join(cache, "transcripts"))
    n_turns = ds.count()

    times: dict[str, float] = {}
    steals: dict[str, float] = {}
    timed = _timed_stages(times, steals)

    def stage(name, fn, deps):
        out = timed(name, fn, deps)
        if name == "tuples" and pairing == "ivf":
            # IVF geometry sized to the corpus before the candidates stage
            n_convs = out.count()
            cfg.ivf_cells = int(
                os.environ.get(
                    "GRAFT_STREAM_CELLS", str(max(64, int(n_convs**0.5)))
                )
            )
            cfg.ivf_nprobe = int(
                os.environ.get(
                    "GRAFT_STREAM_NPROBE", str(max(8, cfg.ivf_cells // 32))
                )
            )
        return out

    job = _LinkJob(cfg, 8, pairing, transcripts=ds, embedder="sif")
    res = _run_chain(job, stage)
    times["total"] = round(sum(times.values()), 2)

    stop.set()
    th.join()
    try:
        peak_spill[0] = max(peak_spill[0], _spill_bytes())
    except OSError:
        pass
    spill_gb = round(peak_spill[0] / 2**30, 2)
    print(
        json.dumps(
            {
                "metric": "stream_demo",
                "input_turns": n_turns,
                "n_convs": res["tuples"].count(),
                "pairing": pairing,
                "ivf_cells": cfg.ivf_cells if pairing == "ivf" else None,
                "ivf_nprobe": cfg.ivf_nprobe if pairing == "ivf" else None,
                "object_store_cap_gb": float(obj_gb) if obj_gb else None,
                "stages": times,
                "steal": steals,
                "gen_s": gen_s,
                "raw_candidates": res["candidates"].count(),
                "matches": res["matches"].count(),
                "labeled_convs": res["clusters"].count(),
                "turns_per_sec": round(n_turns / times["total"], 1),
                "peak_shmem_gb": round((peak[0] - shmem0) / 2**20, 2),
                "peak_spill_gb": spill_gb,
                "peak_worker_anon_gb": round(
                    peak_worker_anon[0] / 2**20, 2
                ),
                "oom_killed_workers": (
                    _dmesg_oom_count() - oom0 if oom0 >= 0 else None
                ),
                "raylet_worker_deaths": _raylet_worker_deaths(),
                "num_cpus": NUM_CPUS,
            }
        )
    )
    ray.shutdown()


def _resume_leg() -> None:
    """One run-to-completion (or until killed) of the manifest-checkpointed
    flagship over GRAFT_RESUME_CORPUS into GRAFT_RESUME_RUN_DIR; prints one
    JSON line with the output row counts."""
    ray = _ray_init()
    from deepblocker_ray.config import EngineConfig
    from deepblocker_ray.state.manifest import linkage_with_manifest

    res = linkage_with_manifest(
        os.environ["GRAFT_RESUME_CORPUS"],
        os.environ["GRAFT_RESUME_RUN_DIR"],
        cfg=EngineConfig(),
    )
    print(
        json.dumps(
            {
                "clusters": res["clusters"].count(),
                "matches": res["matches"].count(),
            }
        )
    )
    ray.shutdown()


def resume_demo() -> None:
    """North-rule resumability at measured scale (round-4 verdict #6): run
    the manifest-checkpointed flagship over a ≥2M-turn corpus, SIGKILL the
    whole process group mid-candidates (blocking query in flight), rerun,
    and verify the resumed run (a) skips the finished tuple/embedding
    stages and (b) produces value-identical matches + clusters to an
    uninterrupted reference run (content digest over all rows).

    Env knobs: GRAFT_RESUME_BASE (base conversations, default 200,000 →
    ~2.1M turns), GRAFT_RESUME_KILL_AFTER (seconds into the candidates
    stage to kill, default 15)."""
    import hashlib
    import shutil
    import signal

    import pandas as pd
    import pyarrow.parquet as pq

    base = int(os.environ.get("GRAFT_RESUME_BASE", "200000"))
    kill_after = float(os.environ.get("GRAFT_RESUME_KILL_AFTER", "15"))
    cache = f"/tmp/graft_bench/stream_{base}_16"

    ray = _ray_init()
    from deepblocker_ray.fixtures import synth_transcripts_sharded

    synth_transcripts_sharded(cache, base, n_shards=16)
    ray.shutdown()
    corpus = os.path.join(cache, "transcripts")

    def digest(data_dir: str) -> tuple[str, int]:
        t = pq.read_table(data_dir)
        df = (
            t.to_pandas()
            .sort_values(list(t.column_names))
            .reset_index(drop=True)
        )
        h = hashlib.sha256(
            pd.util.hash_pandas_object(df, index=False).values.tobytes()
        ).hexdigest()
        return h, len(df)

    def leg(run_dir: str) -> subprocess.Popen:
        env = dict(
            os.environ,
            GRAFT_RESUME_CORPUS=corpus,
            GRAFT_RESUME_RUN_DIR=run_dir,
        )
        return subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--resume-leg"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # killpg takes the ray daemons too
        )

    def manifest_of(run_dir: str) -> dict:
        p = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(p):
            return {"stages": {}}
        try:
            with open(p) as f:
                return json.load(f)
        except (json.JSONDecodeError, OSError):
            return {"stages": {}}

    def stage_done(run_dir: str, name: str) -> bool:
        return (
            manifest_of(run_dir)["stages"].get(name, {}).get("status")
            == "done"
        )

    run_a = "/tmp/graft_bench/resume_ref"
    run_b = "/tmp/graft_bench/resume_killed"
    for d in (run_a, run_b):
        if os.path.exists(d):
            shutil.rmtree(d)

    # reference: uninterrupted
    t0 = time.perf_counter()
    pa_ = leg(run_a)
    pa_.wait()
    ref_wall = round(time.perf_counter() - t0, 1)
    ref_m = manifest_of(run_a)

    # killed leg: SIGKILL the process group kill_after seconds into the
    # candidates stage (index+query in flight, no checkpoint yet)
    t0 = time.perf_counter()
    pb = leg(run_b)
    killed_at = None
    while pb.poll() is None:
        if stage_done(run_b, "embeddings") and not stage_done(
            run_b, "candidates"
        ):
            time.sleep(kill_after)
            if pb.poll() is None and not stage_done(run_b, "candidates"):
                os.killpg(pb.pid, signal.SIGKILL)
                killed_at = round(time.perf_counter() - t0, 1)
                break
        time.sleep(0.5)
    pb.wait()
    interrupted_wall = round(time.perf_counter() - t0, 1)
    m_killed = manifest_of(run_b)
    done_at_kill = sorted(m_killed["stages"].keys())

    # resume: must skip tuples/embeddings (finished_at unchanged) and
    # finish the rest
    t0 = time.perf_counter()
    pb2 = leg(run_b)
    pb2.wait()
    resume_wall = round(time.perf_counter() - t0, 1)
    m_res = manifest_of(run_b)
    skipped = [
        s
        for s in done_at_kill
        if m_res["stages"][s]["finished_at"]
        == m_killed["stages"][s]["finished_at"]
    ]

    # cross-run comparison vs the INDEPENDENT reference run: clusters (the
    # semantic output) must match exactly; the raw match-edge set may
    # differ at float borderlines because the two runs fitted SIF
    # separately and float reduction order across blocks is not pinned
    # (measured ~1e-14 max emb delta — borderline candidates flip, the
    # transitive clustering absorbs them)
    dg = {}
    for stage_name in ("matches", "clusters"):
        ha, na = digest(os.path.join(run_a, stage_name, "data"))
        hb, nb_ = digest(os.path.join(run_b, stage_name, "data"))
        dg[stage_name] = {
            "rows_ref": na,
            "rows_resumed": nb_,
            "identical": bool(ha == hb and na == nb_),
        }

    # resume-determinism proper — the invariant resume actually promises:
    # FROM IDENTICAL CHECKPOINTS the recompute is byte-identical. Wipe
    # run_b's downstream stages (keep tuples/embeddings checkpoints) and
    # re-run; final outputs must digest-match run_b's own first completion.
    before = {
        s: digest(os.path.join(run_b, s, "data"))
        for s in ("matches", "clusters")
    }
    mb = manifest_of(run_b)
    for s in ("candidates", "matches", "clusters"):
        shutil.rmtree(os.path.join(run_b, s), ignore_errors=True)
        mb["stages"].pop(s, None)
    with open(os.path.join(run_b, "manifest.json"), "w") as f:
        json.dump(mb, f)
    t0 = time.perf_counter()
    pb3 = leg(run_b)
    pb3.wait()
    recompute_wall = round(time.perf_counter() - t0, 1)
    recompute_identical = {
        s: bool(digest(os.path.join(run_b, s, "data")) == before[s])
        for s in ("matches", "clusters")
    }

    n_turns = sum(
        pq.ParquetFile(os.path.join(corpus, f)).metadata.num_rows
        for f in os.listdir(corpus)
        if f.endswith(".parquet")
    )
    print(
        json.dumps(
            {
                "metric": "resume_demo",
                "input_turns": n_turns,
                "ref_wall_s": ref_wall,
                "ref_stage_walls": {
                    k: v["wall_sec"] for k, v in ref_m["stages"].items()
                },
                "killed_at_s": killed_at,
                "interrupted_wall_s": interrupted_wall,
                "stages_done_at_kill": done_at_kill,
                "resume_wall_s": resume_wall,
                "stages_skipped_on_resume": skipped,
                "resume_stage_walls": {
                    k: v["wall_sec"]
                    for k, v in m_res["stages"].items()
                    if k not in skipped
                },
                "vs_independent_ref": dg,
                "recompute_from_same_checkpoints_wall_s": recompute_wall,
                "recompute_from_same_checkpoints_identical":
                    recompute_identical,
                "num_cpus": NUM_CPUS,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--stream" in sys.argv:
        stream()
    elif "--stages-leg" in sys.argv:
        _stages_leg()
    elif "--stages" in sys.argv:
        stages()
    elif "--resume-leg" in sys.argv:
        _resume_leg()
    elif "--resume-demo" in sys.argv:
        resume_demo()
    else:
        main()
