"""Checkpoint manifest: resume skips completed stages; kill+resume output is
byte-identical; fingerprint changes invalidate downstream stages."""

import json
import os
import shutil

import pandas as pd
import pytest

from deepblocker_ray.config import EngineConfig
from deepblocker_ray.fixtures import synth_transcripts
from deepblocker_ray.state.manifest import ManifestRun, linkage_with_manifest

CFG = EngineConfig(emb_dim=32, num_buckets=8)


@pytest.fixture()
def transcripts_path(tmp_path):
    df, _ = synth_transcripts(n_base=60, seed=7)
    p = str(tmp_path / "transcripts.parquet")
    df.to_parquet(p)
    return p


def clusters_df(res):
    return (
        res["clusters"].to_pandas().sort_values("conv_id").reset_index(drop=True)
    )


class TestManifest:
    def test_stage_skip_on_resume(self, ray_session, tmp_path):
        import ray.data as rd

        run_dir = str(tmp_path / "run")
        calls = {"n": 0}

        def make():
            calls["n"] += 1
            return rd.from_pandas(pd.DataFrame({"x": [1, 2, 3]}))

        r1 = ManifestRun(run_dir)
        out1 = r1.stage("s1", make, params={"p": 1}).to_pandas()
        r2 = ManifestRun(run_dir)
        out2 = r2.stage("s1", make, params={"p": 1}).to_pandas()
        assert calls["n"] == 1  # second run resumed from parquet
        pd.testing.assert_frame_equal(out1, out2)

    def test_param_change_invalidates(self, ray_session, tmp_path):
        import ray.data as rd

        run_dir = str(tmp_path / "run")
        calls = {"n": 0}

        def make():
            calls["n"] += 1
            return rd.from_pandas(pd.DataFrame({"x": [calls["n"]]}))

        ManifestRun(run_dir).stage("s1", make, params={"p": 1})
        ManifestRun(run_dir).stage("s1", make, params={"p": 2})
        assert calls["n"] == 2

    def test_lineage_metrics_recorded(self, ray_session, tmp_path,
                                      transcripts_path):
        run_dir = str(tmp_path / "run")
        linkage_with_manifest(transcripts_path, run_dir, cfg=CFG)
        m = json.load(open(os.path.join(run_dir, "manifest.json")))
        stages = m["stages"]
        assert set(stages) == {
            "tuples", "embeddings", "candidates", "matches", "clusters"
        }
        for name, rec in stages.items():
            assert rec["status"] == "done"
            assert rec["rows"] >= 0
            assert rec["partitions"], name
            assert rec["wall_sec"] > 0
        assert stages["embeddings"]["deps"] == ["tuples"]

    def test_kill_resume_identical(self, ray_session, tmp_path,
                                   transcripts_path):
        """Simulate a mid-pipeline kill: run everything, record output, then
        delete the last two stages (as if the job died before them) and
        resume — the final clusters must be identical, and the untouched
        stages must NOT re-run (fingerprints preserved)."""
        run_dir = str(tmp_path / "run")
        res1 = linkage_with_manifest(transcripts_path, run_dir, cfg=CFG)
        full = clusters_df(res1)
        m1 = json.load(open(os.path.join(run_dir, "manifest.json")))

        # kill: wipe matches + clusters stage outputs and manifest records
        for stage in ["matches", "clusters"]:
            shutil.rmtree(os.path.join(run_dir, stage))
        m = json.load(open(os.path.join(run_dir, "manifest.json")))
        for stage in ["matches", "clusters"]:
            del m["stages"][stage]
        json.dump(m, open(os.path.join(run_dir, "manifest.json"), "w"))

        res2 = linkage_with_manifest(transcripts_path, run_dir, cfg=CFG)
        resumed = clusters_df(res2)
        pd.testing.assert_frame_equal(full, resumed)
        m2 = json.load(open(os.path.join(run_dir, "manifest.json")))
        for stage in ["tuples", "embeddings", "candidates"]:
            assert (
                m2["stages"][stage]["finished_at"]
                == m1["stages"][stage]["finished_at"]
            ), f"{stage} re-ran on resume"


def test_sharded_fixture_params_manifest(ray_session, tmp_path):
    """synth_transcripts_sharded resumes by file existence; the params.json
    manifest must refuse a reuse of the same out_dir with different
    generation params (stale-shard hazard, round-4 ADVICE)."""
    import pytest

    from deepblocker_ray.fixtures import synth_transcripts_sharded

    out = str(tmp_path / "corpus")
    synth_transcripts_sharded(out, 200, n_shards=2, seed=7)
    # same params: silent resume
    synth_transcripts_sharded(out, 200, n_shards=2, seed=7)
    with pytest.raises(ValueError, match="generated with"):
        synth_transcripts_sharded(out, 200, n_shards=2, seed=8)


def test_checkpointed_equals_in_memory(ray_session, tmp_path):
    """The checkpointed run computes what the in-memory run computes: the
    same match rows (none twice), the same clusters, and a candidates
    checkpoint that is the raw top-k (exactly k rows per conversation)."""
    import ray.data as rd

    from deepblocker_ray.pipelines.linkage import link_transcripts

    df, _ = synth_transcripts(n_base=600, seed=7)
    path = str(tmp_path / "transcripts.parquet")
    df.to_parquet(path)
    cfg = EngineConfig()
    run_dir = str(tmp_path / "run")
    ckpt = linkage_with_manifest(path, run_dir, cfg=cfg, k=8)
    mem = link_transcripts(rd.read_parquet(path), cfg, embedder="sif", k=8)

    def rows(ds, cols):
        return ds.to_pandas()[cols].sort_values(cols).reset_index(drop=True)

    pair = ["ltable_id", "rtable_id"]
    got, want = rows(ckpt["matches"], pair), rows(mem["matches"], pair)
    assert not got.duplicated().any()
    pd.testing.assert_frame_equal(got, want)
    label = ["conv_id", "cluster_id"]
    pd.testing.assert_frame_equal(
        rows(ckpt["clusters"], label), rows(mem["clusters"], label)
    )
    cand = rd.read_parquet(os.path.join(run_dir, "candidates", "data"))
    per_conv = cand.to_pandas().groupby("left_id").size()
    assert len(per_conv) == df["conv_id"].nunique()
    assert (per_conv == 8).all()


def test_independent_runs_write_identical_checkpoints(ray_session, tmp_path):
    """Two identical checkpointed runs over a multi-file input write
    byte-identical tuples and embeddings checkpoints: the tuples layout
    does not follow the canonicalize sort's sampled block boundaries."""
    import hashlib

    df, _ = synth_transcripts(n_base=600, seed=7)
    src = tmp_path / "transcripts"
    src.mkdir()
    for i, part in enumerate(
        df.sample(frac=1.0, random_state=3).pipe(
            lambda d: [d.iloc[j::4] for j in range(4)]
        )
    ):
        part.to_parquet(src / f"part-{i}.parquet")

    def digests(run_dir, stage):
        d = os.path.join(run_dir, stage, "data")
        return sorted(
            hashlib.sha256(open(os.path.join(d, f), "rb").read()).hexdigest()
            for f in os.listdir(d)
            if f.endswith(".parquet")
        )

    runs = [str(tmp_path / f"run{i}") for i in range(2)]
    for run_dir in runs:
        linkage_with_manifest(str(src), run_dir, cfg=CFG, k=8)
    assert len(digests(runs[0], "tuples")) > 1
    for stage in ("tuples", "embeddings"):
        assert digests(runs[0], stage) == digests(runs[1], stage), stage
