"""Linkage benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload link --seed 1 --seconds 20 --trace 0

Run from the repository root. The process starts a local Ray session of
NUM_CPUS CPUs, generates (or reads from cache) the workload's corpus, runs
one untimed warm-up operation on a small corpus of the same shape, then
repeats the workload's operation for ``--seconds`` and checks every
operation's outputs against computations made here. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. A failed check prints ``CHECK FAILED: <name>`` before it.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# fixed session geometry, before numpy or Ray load: one CPU, one BLAS thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, ROOT)

import numpy as np
import pandas as pd

import checks
from corpus import CorpusSpec, cached
from hooks import Hooks, Interrupted, Tracer
from session import PeakSampler, Session, process_age_s

NUM_CPUS = 1
OBJECT_STORE_MB = 768
K = 8
# the program's default match threshold (EngineConfig.match_threshold)
THRESHOLD = 0.6
# the whole run, setup and shutdown included, must end inside 180 s
DEADLINE_S = 150

# headline shape: 30% of entities duplicated once or twice, one hot
# cluster of 50 duplicates, a delta of ~4% new conversations
LINK = CorpusSpec(n_base=3000, dup_fraction=0.3, hot_cluster=50, delta_convs=180)
LINK_WARM = CorpusSpec(n_base=150, dup_fraction=0.3, hot_cluster=10, delta_convs=10)
# every entity has 7 near-duplicates; entity 0 also has 10 exact copies
DENSE = CorpusSpec(n_base=200, members=8, tie_copies=10, delta_convs=65)
DENSE_WARM = CorpusSpec(n_base=25, members=8, tie_copies=10, delta_convs=10)

WORKLOADS = {
    "link": dict(spec=LINK, warm=LINK_WARM, pairing="exact", checkpointed=False, cc=None),
    # the job's ~5,700 match edges: a driver threshold of 2,000 sends them
    # through the distributed label propagation that >200,000 edges take by
    # default; a corpus that large takes 78-90 s per job on one CPU
    "dense_ivf": dict(spec=DENSE, warm=DENSE_WARM, pairing="ivf", checkpointed=False, cc=2000),
    "checkpointed": dict(spec=LINK, warm=LINK_WARM, pairing="exact", checkpointed=True, cc=None),
}


def metric_units(kind: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json, at the repository root, declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


def frame(ds) -> pd.DataFrame:
    """A Dataset (or Parquet directory) as one pandas frame."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    if isinstance(ds, str):
        ds = rd.read_parquet(ds)
    tables = ray.get(ds.materialize().to_arrow_refs())
    return pa.concat_tables(tables).to_pandas() if tables else pd.DataFrame()


def embeddings(ds) -> tuple[np.ndarray, np.ndarray]:
    """(ids, float64 unit rows) of an embeddings Dataset."""
    df = frame(ds)
    return df["conv_id"].to_numpy(object), checks.unit_rows(np.stack(df["emb"].to_numpy()))


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.session = Session(ROOT, NUM_CPUS, OBJECT_STORE_MB)
        self.tracer = Tracer(self.session.cpu_s) if trace else None
        self.hooks = Hooks(self.tracer, self.wl["cc"])
        self.work = os.path.join(HERE, ".work")
        self.failures: list[str] = []
        self.rng = np.random.default_rng(seed)

    # --- one operation -------------------------------------------------

    def op(self, paths: dict, out_dir: str) -> dict:
        """Base linkage, then one delta absorbed and written as the CLI's
        ``link --delta`` writes it. Returns timings and the outputs the
        checks read; the caller drops them before the next operation."""
        import ray.data as rd
        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.pipelines import linkage as L
        from deepblocker_ray.sources.io import read_transcripts, write_partitioned
        from deepblocker_ray.state import manifest as M

        h = self.hooks
        cfg = EngineConfig()
        pairing = self.wl["pairing"]
        h.candidates.clear()
        h.score_started.clear()
        h.embedder = None
        h.keep_candidates = False
        os.makedirs(out_dir)
        out: dict = {}
        cpu0 = self.session.cpu_s()
        t0 = time.perf_counter()
        if self.wl["checkpointed"]:
            run_dir = os.path.join(out_dir, "run")
            h.stop_before = "matches"
            try:
                M.linkage_with_manifest(paths["base"], run_dir, cfg, embedder="sif", k=K)
            except Interrupted:
                pass
            else:
                raise RuntimeError("the checkpointed run was not interrupted")
            finally:
                h.stop_before = None
            t_resume = time.perf_counter()
            res = M.linkage_with_manifest(paths["base"], run_dir, cfg, embedder="sif", k=K)
            res["clusters"] = res["clusters"].materialize()
            t1 = time.perf_counter()
            res["tuples"] = rd.read_parquet(os.path.join(run_dir, "tuples", "data")).materialize()
            res["embeddings"] = rd.read_parquet(os.path.join(run_dir, "embeddings", "data")).materialize()
            res["embedder"] = h.embedder
            out["raw"] = os.path.join(run_dir, "candidates", "data")
        else:
            h.keep_candidates = True
            res = L.link_transcripts(
                read_transcripts(paths["base"]), cfg, embedder="sif", k=K, pairing=pairing
            )
            res["clusters"] = res["clusters"].materialize()
            t1 = time.perf_counter()
            t_resume = h.score_started[0]
            out["raw"] = h.candidates[0]
        h.keep_candidates = True
        res2 = L.link_incremental(res, read_transcripts(paths["delta"]), cfg, k=K, pairing=pairing)
        for name in ("matches", "clusters"):
            write_partitioned(res2[name].materialize(), os.path.join(out_dir, "out", name))
        t2 = time.perf_counter()
        cpu1 = self.session.cpu_s()
        h.keep_candidates = False
        out.update(
            base=res, delta=res2, delta_raw=h.candidates[-1], out_dir=out_dir,
            link_s=t1 - t0, delta_s=t2 - t1, resume_s=t1 - t_resume, cpu_s=cpu1 - cpu0,
            bytes=dir_bytes(out_dir),
        )
        return out

    # --- checks ----------------------------------------------------------

    def fail(self, errs: list[str]) -> None:
        for e in errs:
            print(f"CHECK FAILED: {e}", flush=True)
        self.failures.extend(errs)

    def check(self, o: dict, inputs: dict, full: bool) -> dict:
        """Checks one operation's outputs; returns its quality metrics.
        ``full`` adds the sampled brute-force top-k and score recomputation
        and the canonical-tuple comparison."""
        exact = self.wl["pairing"] == "exact"
        base, delta = o["base"], o["delta"]
        base_ids, base_unit = embeddings(base["embeddings"])
        all_ids, all_unit = embeddings(delta["embeddings"])
        new_rows = np.flatnonzero(~np.isin(all_ids, base_ids))

        def sample(n_rows, n):
            return self.rng.choice(n_rows, size=min(n, n_rows), replace=False)

        raw = frame(o["raw"])
        draw = frame(o["delta_raw"])
        self.fail(checks.check_candidates(
            raw, base_ids, base_unit, K, exact,
            sample(len(base_ids), 48) if full and exact else None))
        self.fail(checks.check_candidates(
            draw, all_ids, all_unit, K, exact,
            new_rows[sample(len(new_rows), 24)] if full and exact else None))
        cand_keys = set(checks.pair_keys(raw["left_id"], raw["right_id"]))
        dcand_keys = set(checks.pair_keys(draw["left_id"], draw["right_id"]))

        if full:
            tuples = frame(delta["tuples"])
            self.fail(checks.check_tuples(inputs["turns"], tuples))
            texts = dict(zip(tuples["conv_id"], tuples["turn_texts"]))
            scored = [frame(delta["scored"])]
            if not self.wl["checkpointed"]:
                scored.append(frame(base["scored"]))
            for s in scored:
                self.fail(checks.check_scores(s, texts, THRESHOLD, sample(len(s), 24)))

        bm = frame(base["matches"])
        dm = frame(delta["delta_matches"])
        self.fail(checks.check_matches(bm, cand_keys))
        self.fail(checks.check_matches(dm, dcand_keys))
        self.fail(checks.check_clusters(
            frame(base["clusters"]), base_ids, bm["ltable_id"], bm["rtable_id"]))
        fm = frame(os.path.join(o["out_dir"], "out", "matches"))
        fc = frame(os.path.join(o["out_dir"], "out", "clusters"))
        self.fail(checks.check_clusters(fc, all_ids, fm["ltable_id"], fm["rtable_id"]))
        if len(fm) != len(bm) + len(dm):
            self.fail(["matches: the written matches are not prior + delta matches"])

        recall, cssr = checks.blocking_quality(cand_keys, inputs["planted"], len(base_ids))
        f1 = checks.pair_f1(fc, inputs["truth"])
        # the floor holds the matcher and clustering to what blocking left
        # reachable: on rare seeds k candidates per id split the hot cluster
        # into two components, which drops pair_f1 itself to ~0.92
        reach = checks.reachable_entities(inputs["truth"], cand_keys | dcand_keys)
        f1_reach = checks.pair_f1(fc, reach)
        if f1_reach < 0.99:
            self.fail([f"quality: pair F1 against the reachable entities {f1_reach:.4f} below 0.99"])
        q = {"blocking_recall": recall, "cssr": cssr, "pair_f1": f1}
        if self.wl["checkpointed"]:
            q["dup_rows"] = len(bm) - len(set(checks.pair_keys(bm["ltable_id"], bm["rtable_id"])))
        return q

    # --- the run -----------------------------------------------------------

    def run(self, seconds: float) -> dict:
        self.session.start()
        self.hooks.install()
        paths = cached(self.wl["spec"], self.seed, os.path.join(HERE, ".cache"))
        warm = cached(self.wl["warm"], self.seed, os.path.join(HERE, ".cache"))
        turns = pd.concat([pd.read_parquet(paths["base"]), pd.read_parquet(paths["delta"])])
        truth = pd.concat([pd.read_parquet(paths["base_truth"]), pd.read_parquet(paths["delta_truth"])])
        inputs = {
            "turns": turns,
            "truth": truth,
            "planted": checks.planted_pair_keys(pd.read_parquet(paths["base_truth"])),
        }
        shutil.rmtree(self.work, ignore_errors=True)
        self.op(warm, os.path.join(self.work, "warm"))
        setup_s = process_age_s()

        # the timed operations run until their own wall time reaches
        # `seconds`; the checks between them do not count, so how many
        # operations a run times does not depend on how long checking takes
        ops, quality, peak, attempted, failed, timed = [], [], 0.0, 0, 0, 0.0
        while attempted == 0 or timed < seconds:
            attempted += 1
            out_dir = os.path.join(self.work, f"op{attempted}")
            if self.tracer:
                self.tracer.op = attempted
            t0 = time.perf_counter()
            try:
                with PeakSampler(self.session) as ps:
                    o = self.op(paths, out_dir)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                timed += time.perf_counter() - t0
            peak = max(peak, ps.peak_mb)
            t_check = time.perf_counter()
            try:
                q = self.check(o, inputs, full=len(ops) == 0)
            except Exception as e:  # a check that cannot run is a failed check
                traceback.print_exc()
                self.fail([f"checks raised {type(e).__name__}: {e}"])
                q = {"blocking_recall": 0.0, "cssr": 0.0, "pair_f1": 0.0}
            if self.tracer:
                o["bytes_written"] = dir_bytes(os.path.join(out_dir, "run")) if self.wl["checkpointed"] else 0
            ops.append({k: v for k, v in o.items() if isinstance(v, (int, float))})
            ops[-1]["op"] = attempted
            print(
                f"op {attempted}: link_s {o['link_s']:.3f} delta_s {o['delta_s']:.3f} "
                f"resume_s {o['resume_s']:.3f} cpu_s {o['cpu_s']:.2f} "
                f"(checks {time.perf_counter() - t_check:.2f} s)",
                file=sys.stderr, flush=True,
            )
            quality.append(q)
            # release this operation's Datasets before the next one starts
            del o
            self.hooks.candidates.clear()
            shutil.rmtree(out_dir, ignore_errors=True)
        if not ops:
            raise RuntimeError("every operation failed")

        def med(rows, key):
            return statistics.median(r[key] for r in rows)

        if self.tracer:
            metrics = layer_metrics(self.tracer.spans, ops, quality)
            units = metric_units("per_layer")
        else:
            metrics = {
                "setup_s": setup_s,
                "link_s": med(ops, "link_s"),
                "delta_s": med(ops, "delta_s"),
                "resume_s": med(ops, "resume_s"),
                "cpu_s": med(ops, "cpu_s"),
                "peak_worker_mb": peak * 2**20 / 1e6,
                "checkpoint_mb": med(ops, "bytes") / 1e6,
                "blocking_recall": med(quality, "blocking_recall"),
                "cssr": med(quality, "cssr"),
                "pair_f1": med(quality, "pair_f1"),
            }
            units = metric_units("end_to_end")
        return {
            "correct": not self.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        }

    def write_trace(self) -> None:
        if self.tracer:
            d = os.path.join(HERE, ".out")
            os.makedirs(d, exist_ok=True)
            with open(os.path.join(d, f"trace-{self.name}-{self.seed}.json"), "w") as f:
                json.dump(self.tracer.spans, f)


def layer_metrics(spans: list[dict], ops: list[dict], quality: list[dict]) -> dict:
    """Per-layer metrics: each span name's wall, CPU and counts summed over
    one operation (base linkage and delta together), then the median over
    the timed operations that succeeded."""
    by_op: dict[int, list[dict]] = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    rows = []
    for i, o in enumerate(ops):
        ss = by_op.get(o["op"], [])

        def wall(name):
            return sum(s["t1"] - s["t0"] for s in ss if s["name"] == name)

        def cpu(*names):
            return sum(s["cpu1"] - s["cpu0"] for s in ss if s["name"] in names)

        def count(name, key):
            return sum(s["counts"].get(key, 0) for s in ss if s["name"] == name)

        delta_ids = {s["id"] for s in ss if s["name"] == "linkage.delta"}
        delta_self = wall("linkage.delta") - sum(
            s["t1"] - s["t0"] for s in ss if s["parent"] in delta_ids
        )
        pairs = count("scoring", "pairs")
        dedup_in = count("linkage.cand_dedup", "rows_in")
        r = {
            "canonicalize.s": wall("canonicalize"),
            "canonicalize.cpu_s": cpu("canonicalize"),
            "canonicalize.turns_in": count("canonicalize", "turns_in"),
            "canonicalize.convs_out": count("canonicalize", "rows_out"),
            "embed.fit_s": wall("embed.fit"),
            "embed.transform_s": wall("embed.transform"),
            "embed.cpu_s": cpu("embed.fit", "embed.transform"),
            "pairing.index_s": wall("pairing.index"),
            "pairing.query_s": wall("pairing.query"),
            "pairing.cpu_s": cpu("pairing.index", "pairing.query"),
            "pairing.candidates": count("pairing.query", "rows"),
            "linkage.cand_dedup_s": wall("linkage.cand_dedup"),
            "linkage.cand_dedup_kept_frac": (
                count("linkage.cand_dedup", "rows_out") / dedup_in if dedup_in else 0.0
            ),
            "scoring.s": wall("scoring"),
            "scoring.cpu_s": cpu("scoring"),
            "scoring.pairs": pairs,
            "scoring.match_frac": count("scoring", "matches") / pairs if pairs else 0.0,
            "evaluate.normalize_s": wall("evaluate.normalize"),
            "evaluate.normalize_rows_out": count("evaluate.normalize", "rows_out"),
            "cluster.s": wall("cluster"),
            "cluster.cpu_s": cpu("cluster"),
            "cluster.edges": count("cluster", "edges"),
            "cluster.rounds": count("cluster", "rounds"),
            "linkage.assign_s": wall("linkage.assign"),
            "linkage.delta_overlap_s": wall("linkage.delta_overlap"),
            "linkage.delta_self_s": delta_self,
            "manifest.bytes_written": o["bytes_written"],
            "manifest.matches_duplicate_rows": quality[i].get("dup_rows", 0),
            "trace.link_s": o["link_s"],
        }
        for st in ("tuples", "embeddings", "candidates", "matches", "clusters"):
            r[f"manifest.{st}_s"] = wall(f"manifest.{st}")
        rows.append(r)
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        import deepblocker_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the program is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2

    def expire(*_):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        result = bench.run(args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        bench.hooks.restore()
        bench.write_trace()
        bench.session.stop()
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
