"""Checkpoint manifest: per-stage parquet outputs + lineage + resume.

north_rule: "resumable from checkpoint with per-partition lineage + metrics".
The reference has none of this (its save_model/load_model are never called,
dl_models.py:107-113,179-185).

A ``ManifestRun`` owns a run directory. Each ``stage(name, fn, deps)`` call:
  - computes the stage fingerprint = hash(stage name, params, upstream
    fingerprints) — lineage;
  - if the manifest already records this fingerprint as complete, SKIPS the
    stage and re-reads its parquet output (resume path);
  - else runs fn, writes the output Dataset to ``<run>/<name>/data`` via a
    temp-dir + atomic rename, and records per-file row counts + wall time +
    rows/s in manifest.json.

Interrupted stages leave only a temp dir (never a half-visible output), so a
re-run redoes exactly the unfinished stages and byte-identical determinism of
the stage fns (everything in this engine is seeded) gives byte-identical
final output — tested by tests/test_manifest.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Any, Callable


def _fingerprint(*parts: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()


class ManifestRun:
    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.manifest_path = os.path.join(run_dir, "manifest.json")
        self.manifest: dict[str, Any] = {"stages": {}}
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as f:
                self.manifest = json.load(f)

    def _save(self) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.manifest, f, indent=2)
        os.replace(tmp, self.manifest_path)

    def stage(
        self,
        name: str,
        fn: Callable[[], Any],
        params: dict | None = None,
        deps: list[str] | None = None,
    ):
        """Run-or-resume one stage. ``fn`` returns a Dataset; the stage's
        output is its parquet directory, re-read on resume."""
        import ray.data as rd

        dep_fps = [
            self.manifest["stages"][d]["fingerprint"] for d in (deps or [])
        ]
        fp = _fingerprint(name, json.dumps(params or {}, sort_keys=True), *dep_fps)
        out_dir = os.path.join(self.run_dir, name, "data")
        rec = self.manifest["stages"].get(name)
        if rec and rec.get("fingerprint") == fp and rec.get("status") == "done":
            return rd.read_parquet(out_dir)

        t0 = time.perf_counter()
        ds = fn()
        tmp_dir = os.path.join(self.run_dir, name, f".tmp-{fp[:8]}")
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        os.makedirs(tmp_dir, exist_ok=True)
        ds.write_parquet(tmp_dir)
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        os.replace(tmp_dir, out_dir)
        wall = time.perf_counter() - t0

        import pyarrow.parquet as pq

        partitions = []
        total_rows = 0
        for f in sorted(os.listdir(out_dir)):
            if not f.endswith(".parquet"):
                continue
            n = pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
            partitions.append({"file": f, "rows": n})
            total_rows += n
        self.manifest["stages"][name] = {
            "fingerprint": fp,
            "status": "done",
            "deps": deps or [],
            "params": params or {},
            "rows": total_rows,
            "partitions": partitions,
            "wall_sec": round(wall, 3),
            "rows_per_sec": round(total_rows / wall, 1) if wall > 0 else None,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        self._save()
        return rd.read_parquet(out_dir)

    def completed(self) -> list[str]:
        return [
            k for k, v in self.manifest["stages"].items() if v.get("status") == "done"
        ]


def linkage_with_manifest(
    transcripts_path: str,
    run_dir: str,
    cfg=None,
    embedder: str = "sif",
    k: int = 8,
    threshold: float | None = None,
):
    """The flagship chain (``pipelines.linkage.STAGES``, exact pairing) with
    every stage checkpointed through ``ManifestRun.stage``: canonical
    tuples, embeddings, raw top-K candidates, matches, clusters."""
    import ray.data as rd

    from ..config import EngineConfig
    from ..pipelines.linkage import _LinkJob, _run_chain

    cfg = cfg or EngineConfig()
    run = ManifestRun(run_dir)
    params = {"embedder": embedder, "k": k, "threshold": threshold,
              "input": transcripts_path, "emb_dim": cfg.emb_dim,
              "seed": cfg.seed}

    def stage(name, fn, deps):
        return run.stage(name, fn, params=params, deps=deps).materialize()

    job = _LinkJob(
        cfg, k, threshold=threshold,
        transcripts=rd.read_parquet(transcripts_path), embedder=embedder,
    )
    out = _run_chain(job, stage)
    return {"run": run, "clusters": out["clusters"], "matches": out["matches"]}
