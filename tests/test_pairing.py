"""Pairing: exact top-K conformance vs brute-force oracle; IVF recall."""

import numpy as np
import pandas as pd
import pytest

from deepblocker_ray import oracle
from deepblocker_ray.config import EngineConfig
from deepblocker_ray.stages.embed import numpy_to_emb
from deepblocker_ray.stages.pairing import (
    ExactTopKPairer,
    IVFTopKPairer,
    kmeans_lite,
)

DIM = 16


def make_emb_df(n, seed, prefix):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, DIM)).astype(np.float32)
    import pyarrow as pa

    return pa.table(
        {
            "conv_id": pa.array([f"{prefix}{i:04d}" for i in range(n)]),
            "emb": numpy_to_emb(mat),
        }
    ), mat


def cfg(shard_rows=32, batch=16):
    return EngineConfig(
        emb_dim=DIM, index_shard_rows=shard_rows, query_batch_size=batch
    )


class TestExactTopK:
    @pytest.mark.parametrize("k,shard_rows", [(5, 32), (5, 7), (50, 16)])
    def test_matches_bruteforce(self, ray_session, k, shard_rows):
        import ray.data as rd

        left_t, left_m = make_emb_df(40, 1, "L")
        right_t, right_m = make_emb_df(90, 2, "R")
        pairer = ExactTopKPairer(k=k, cfg=cfg(shard_rows)).index(
            rd.from_arrow(right_t)
        )
        got = (
            pairer.query(rd.from_arrow(left_t))
            .to_pandas()
            .sort_values(["left_id", "rank"])
            .reset_index(drop=True)
        )
        idx, sims = oracle.topk_cosine(
            left_m.astype(np.float64), right_m.astype(np.float64), k
        )
        kk = min(k, 90)
        assert len(got) == 40 * kk
        for i in range(40):
            lid = f"L{i:04d}"
            rows = got[got["left_id"] == lid]
            want_ids = [f"R{j:04d}" for j in idx[i]]
            assert list(rows["right_id"]) == want_ids, lid
            np.testing.assert_allclose(
                rows["cosine"].to_numpy(), sims[i], atol=1e-5
            )

    def test_exclude_self(self, ray_session):
        import ray.data as rd

        t, _m = make_emb_df(30, 3, "X")
        pairer = ExactTopKPairer(k=5, cfg=cfg(), exclude_self=True).index(
            rd.from_arrow(t)
        )
        got = pairer.query(rd.from_arrow(t)).to_pandas()
        assert (got["left_id"] != got["right_id"]).all()
        assert got.groupby("left_id").size().eq(5).all()

    def test_tie_break_deterministic(self, ray_session):
        """Duplicate index vectors → ties broken by right_id ascending."""
        import pyarrow as pa
        import ray.data as rd

        mat = np.ones((6, DIM), np.float32)
        right = pa.table(
            {
                "conv_id": pa.array([f"R{i}" for i in range(6)]),
                "emb": numpy_to_emb(mat),
            }
        )
        left = pa.table(
            {"conv_id": pa.array(["q"]), "emb": numpy_to_emb(np.ones((1, DIM), np.float32))}
        )
        got = (
            ExactTopKPairer(k=4, cfg=cfg(shard_rows=2))
            .index(rd.from_arrow(right))
            .query(rd.from_arrow(left))
            .to_pandas()
            .sort_values("rank")
        )
        assert list(got["right_id"]) == ["R0", "R1", "R2", "R3"]


class TestKMeansLite:
    def test_deterministic_and_separates(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.05, (50, DIM)) + np.eye(DIM)[0]
        b = rng.normal(0, 0.05, (50, DIM)) + np.eye(DIM)[1]
        x = np.vstack([a, b]).astype(np.float32)
        c1 = kmeans_lite(x, 2, seed=5)
        c2 = kmeans_lite(x, 2, seed=5)
        np.testing.assert_array_equal(c1, c2)
        assign = np.argmax(
            (x / np.linalg.norm(x, axis=1, keepdims=True)) @ c1.T, axis=1
        )
        assert len(set(assign[:50])) == 1 and len(set(assign[50:])) == 1
        assert assign[0] != assign[50]


class TestIVF:
    def test_recall_vs_exact(self, ray_session):
        """With nprobe = all cells the IVF result must equal exact; with a
        partial probe, recall@10 should stay high on clustered data."""
        import ray.data as rd

        left_t, left_m = make_emb_df(30, 7, "L")
        right_t, right_m = make_emb_df(200, 8, "R")
        c = cfg(shard_rows=64)
        c.ivf_cells = 8
        c.ivf_nprobe = 8  # probe everything → exact
        got = (
            IVFTopKPairer(k=10, cfg=c, sample_rows=200)
            .index(rd.from_arrow(right_t))
            .query(rd.from_arrow(left_t))
            .to_pandas()
            .sort_values(["left_id", "rank"])
        )
        idx, _sims = oracle.topk_cosine(
            left_m.astype(np.float64), right_m.astype(np.float64), 10
        )
        for i in range(30):
            rows = got[got["left_id"] == f"L{i:04d}"]
            assert list(rows["right_id"]) == [f"R{j:04d}" for j in idx[i]]

    def test_index_is_a_function_of_the_embeddings(self, ray_session):
        """The same rows in 1 block, in 7 blocks and in reversed row order
        give identical centroids, also when only a sample of them
        (sample_rows < n) seeds k-means."""
        import ray

        import ray.data as rd

        right_t, _ = make_emb_df(300, 8, "R")
        c = cfg(shard_rows=64)
        c.ivf_cells = 8

        def centroids(ds, sample_rows):
            p = IVFTopKPairer(k=5, cfg=c, sample_rows=sample_rows).index(ds)
            return ray.get(p.centroids_ref)

        for sample_rows in (120, 300):
            want = centroids(rd.from_arrow(right_t), sample_rows)
            seven = rd.from_arrow(right_t).repartition(7)
            reversed_rows = rd.from_arrow(right_t.take(np.arange(299, -1, -1)))
            for ds in (seven, reversed_rows):
                np.testing.assert_array_equal(centroids(ds, sample_rows), want)

    def test_partial_probe_recall(self, ray_session):
        import ray.data as rd

        left_t, left_m = make_emb_df(30, 7, "L")
        right_t, right_m = make_emb_df(300, 8, "R")
        c = cfg(shard_rows=64)
        c.ivf_cells = 8
        c.ivf_nprobe = 4
        got = (
            IVFTopKPairer(k=10, cfg=c, sample_rows=300)
            .index(rd.from_arrow(right_t))
            .query(rd.from_arrow(left_t))
            .to_pandas()
        )
        idx, _ = oracle.topk_cosine(
            left_m.astype(np.float64), right_m.astype(np.float64), 10
        )
        hits = total = 0
        for i in range(30):
            want = {f"R{j:04d}" for j in idx[i]}
            have = set(got[got["left_id"] == f"L{i:04d}"]["right_id"])
            hits += len(want & have)
            total += len(want)
        assert hits / total > 0.5  # probing half the cells on gaussian data
