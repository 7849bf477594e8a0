"""End-to-end linkage on the planted-duplicate fixture: blocking recall,
pair F1 ≥ 0.99, cluster equality to planted truth (north_rule targets)."""

import numpy as np
import pandas as pd
import pytest

from deepblocker_ray.config import EngineConfig
from deepblocker_ray.fixtures import golden_pairs, synth_transcripts
from deepblocker_ray.pipelines.evaluate import (
    blocking_statistics,
    normalize_pairs,
    pair_f1,
)
from deepblocker_ray.pipelines.linkage import link_transcripts
from deepblocker_ray.stages.cluster import connected_components, union_find_pandas

CFG = EngineConfig(
    emb_dim=64,
    num_buckets=8,
    embed_batch_size=512,
    query_batch_size=512,
    index_shard_rows=512,
)


class TestClusterStage:
    def test_union_find_shapes(self):
        edges = pd.DataFrame(
            {
                "a": ["n1", "n2", "n5", "n7", "n9"],
                "b": ["n2", "n3", "n6", "n7", "n8"],
            }
        )
        out = union_find_pandas(edges, "a", "b").set_index("conv_id")["cluster_id"]
        assert out["n1"] == out["n2"] == out["n3"] == "n1"
        assert out["n5"] == out["n6"] == "n5"
        assert out["n7"] == "n7"  # self-pair
        assert out["n9"] == out["n8"] == "n8"

    def test_distributed_label_propagation(self, ray_session):
        """Force the distributed path with driver_threshold=0: chain, star,
        two components."""
        import ray.data as rd

        edges = pd.DataFrame(
            {
                "left_id": ["c1", "c2", "c3", "s0", "s0", "s0", "x1"],
                "right_id": ["c2", "c3", "c4", "s1", "s2", "s3", "x2"],
            }
        )
        out = (
            connected_components(
                rd.from_pandas(edges), CFG, driver_threshold=0
            )
            .to_pandas()
            .set_index("conv_id")["cluster_id"]
        )
        for n in ["c1", "c2", "c3", "c4"]:
            assert out[n] == "c1"
        for n in ["s0", "s1", "s2", "s3"]:
            assert out[n] == "s0"
        assert out["x1"] == out["x2"] == "x1"

    def test_pointer_jumping_long_chain(self, ray_session):
        """Id-ordered chain with diameter 600 ≫ max_iter=25 converges via
        pointer jumping (label doubling: ~log2(d) rounds, a bound that
        holds because the ids are in path order) on the distributed path,
        and reports convergence through stats_out."""
        import ray.data as rd

        n = 600
        ids = [f"n{i:04d}" for i in range(n)]
        edges = pd.DataFrame(
            {"left_id": ids[:-1], "right_id": ids[1:]}
        )
        stats: dict = {}
        out = (
            connected_components(
                rd.from_pandas(edges), CFG, driver_threshold=0,
                stats_out=stats,
            )
            .to_pandas()
            .set_index("conv_id")["cluster_id"]
        )
        assert stats["converged"] is True
        assert stats["rounds"] <= 12, stats
        assert len(out) == n
        assert (out == "n0000").all()

    def test_non_convergence_raises(self, ray_session):
        """A 40-node path whose ids are in random order needs more rounds
        than max_iter=3 (7–29 simulated): the call fills stats_out, then
        raises instead of returning split clusters."""
        import ray.data as rd

        ids = [f"p{i:02d}" for i in np.random.default_rng(5).permutation(40)]
        edges = pd.DataFrame({"left_id": ids[:-1], "right_id": ids[1:]})
        stats: dict = {}
        with pytest.raises(RuntimeError, match=r"after 3 rounds \(max_iter=3\)"):
            connected_components(
                rd.from_pandas(edges), CFG, driver_threshold=0, max_iter=3,
                stats_out=stats,
            )
        assert stats == {"converged": False, "rounds": 3}

    def test_distributed_matches_union_find(self, ray_session):
        """Random graph: distributed propagate+shortcut path produces the
        exact same partition labels as driver-side union-find."""
        import ray.data as rd

        rng = np.random.default_rng(41)
        n_nodes, n_edges = 300, 380
        a = rng.integers(0, n_nodes, n_edges)
        b = rng.integers(0, n_nodes, n_edges)
        edges = pd.DataFrame(
            {
                "left_id": [f"v{x:03d}" for x in a],
                "right_id": [f"v{x:03d}" for x in b],
            }
        )
        got = (
            connected_components(rd.from_pandas(edges), CFG, driver_threshold=0)
            .to_pandas()
            .set_index("conv_id")["cluster_id"]
            .sort_index()
        )
        want = (
            union_find_pandas(edges, "left_id", "right_id")
            .set_index("conv_id")["cluster_id"]
            .sort_index()
        )
        assert got.to_dict() == want.to_dict()


class TestLinkageE2E:
    @pytest.fixture(scope="class")
    def result(self, ray_session):
        import ray.data as rd

        df, clusters = synth_transcripts(n_base=120, seed=7, dup_fraction=0.4)
        ds = rd.from_pandas(df)
        res = link_transcripts(ds, CFG, embedder="sif", k=8)
        return res, clusters

    def test_blocking_recall(self, result):
        res, clusters = result
        golden = golden_pairs(clusters)
        n = res["tuples"].count()
        stats = blocking_statistics(res["candidates"], golden, n, n)
        assert stats["recall"] >= 0.98, stats
        assert stats["cssr"] < 0.2, stats

    def test_pair_f1(self, result):
        res, clusters = result
        golden = golden_pairs(clusters)
        metrics = pair_f1(res["matches"], golden, already_normalized=True)
        assert metrics["f1"] >= 0.99, metrics

    def test_cluster_equality(self, result):
        res, clusters = result
        got = res["clusters"].to_pandas()
        truth = clusters.set_index("conv_id")["entity_id"]
        pred = got.set_index("conv_id")["cluster_id"]
        assert set(pred.index) == set(truth.index)
        # same partition: conv pairs co-clustered iff same entity
        df = pd.DataFrame({"pred": pred, "truth": truth.loc[pred.index]})
        by_truth = df.groupby("truth")["pred"].nunique()
        by_pred = df.groupby("pred")["truth"].nunique()
        assert (by_truth == 1).mean() >= 0.99, "split clusters"
        assert (by_pred == 1).mean() >= 0.99, "merged clusters"

    def test_every_conv_labeled_once(self, result):
        res, clusters = result
        got = res["clusters"].to_pandas()
        assert got["conv_id"].is_unique
        assert len(got) == len(clusters)


class TestIncrementalLinkage:
    def test_incremental_recovers_planted_truth(self, ray_session):
        """Absorbing a delta batch with link_incremental recovers the SAME
        planted entity partition as linking everything at once, and never
        splits a pair the base run had already merged (prior assignments
        enter CC as edges, so co-clustering is monotone).

        Exact full-batch label equality is NOT asserted: top-K blocking is
        direction-sensitive at the k boundary (in a full run, delta records
        occupy base records' top-K slots and vice versa), so marginal
        near-threshold candidates can differ — the documented incremental-ER
        trade. The quality bar is truth recovery, same as the full-batch
        e2e test."""
        import ray.data as rd

        from deepblocker_ray.pipelines.linkage import link_incremental

        df, truth = synth_transcripts(n_base=120, seed=11, dup_fraction=0.4)
        convs = sorted(df["conv_id"].unique())
        # delta = every 3rd conversation: straddles planted clusters, so the
        # delta contains both new-new and new-old duplicates
        delta_set = set(convs[::3])
        df_a = df[~df["conv_id"].isin(delta_set)]
        df_b = df[df["conv_id"].isin(delta_set)]
        assert len(df_a) and len(df_b)

        # same settings as the full-batch e2e fixture; SIF is fit on the
        # base batch only and applied FROZEN to the delta
        base = link_transcripts(rd.from_pandas(df_a), CFG, embedder="sif", k=8)
        base_map = (
            base["clusters"].to_pandas().set_index("conv_id")["cluster_id"]
        )
        inc = link_incremental(base, rd.from_pandas(df_b), CFG, k=8)
        inc_map = (
            inc["clusters"].to_pandas().set_index("conv_id")["cluster_id"]
        )
        assert set(inc_map.index) == set(df["conv_id"])

        # 1. planted-truth recovery at the house bar (≥0.99 both ways)
        t = truth.set_index("conv_id")["entity_id"]
        j = pd.DataFrame({"pred": inc_map, "truth": t.loc[inc_map.index]})
        by_truth = j.groupby("truth")["pred"].nunique()
        by_pred = j.groupby("pred")["truth"].nunique()
        assert (by_truth == 1).mean() >= 0.99, "split clusters"
        assert (by_pred == 1).mean() >= 0.99, "merged clusters"

        # 2. monotonicity: base co-clustering survives the delta exactly
        for _, grp in base_map.groupby(base_map):
            labels = inc_map.loc[grp.index].unique()
            assert len(labels) == 1, f"base cluster split: {grp.index.tolist()}"

        # 3. "matches" covers the WHOLE corpus: every base-base edge is
        # retained and the delta edges are exactly the new increment
        bm = base["matches"].to_pandas()
        im = inc["matches"].to_pandas()
        dm = inc["delta_matches"].to_pandas()
        key = lambda d: set(zip(d["ltable_id"], d["rtable_id"]))  # noqa: E731
        assert key(bm) <= key(im), "base-base matches dropped"
        assert key(im) == key(bm) | key(dm)
        # delta edges always touch a delta record — disjoint from base-base
        assert all(
            a in delta_set or b in delta_set for a, b in key(dm)
        )

    def test_overlapping_delta_ids_rejected(self, ray_session):
        """A re-delivered conv_id would ride the union twice and emit two
        cluster rows — link_incremental must reject it up front."""
        import ray.data as rd

        from deepblocker_ray.pipelines.linkage import link_incremental

        df, _ = synth_transcripts(n_base=20, seed=5, dup_fraction=0.3)
        convs = sorted(df["conv_id"].unique())
        base = link_transcripts(
            rd.from_pandas(df[df["conv_id"].isin(convs[:15])]), CFG, k=4
        )
        # delta re-delivers one base conv_id alongside genuinely new ones
        bad = df[df["conv_id"].isin(convs[14:])]
        with pytest.raises(ValueError, match="already exist"):
            link_incremental(base, rd.from_pandas(bad), CFG, k=4)

    def test_requires_fitted_embedder(self):
        from deepblocker_ray.pipelines.linkage import link_incremental

        with pytest.raises(ValueError, match="FITTED embedder"):
            link_incremental({"clusters": None}, None, CFG)


class TestLinkageDeepEmbedders:
    """The flagship claim runs with the DEEP tuple-embedding models too:
    AutoEncoder (SIF → bottleneck) and CTT blocking feed the same scoring +
    clustering tail and recover the planted entities at the north-rule F1
    bar. Small dims/epochs keep the numpy AE training to seconds — the
    reference's quality comes from the architecture, not 50 epochs, on a
    planted-duplicate corpus."""

    # ae_dim=16/25 epochs is the smallest probed config whose bottleneck
    # preserves all planted-dup neighborhoods (12/8 missed 3 of 54 pairs
    # at the blocking stage)
    DEEP_CFG = EngineConfig(
        emb_dim=32,
        ae_dim=16,
        num_epochs=25,
        num_buckets=8,
        embed_batch_size=512,
        query_batch_size=512,
        index_shard_rows=512,
    )

    # the combined-score threshold is embedding-space-dependent: the AE
    # bottleneck compresses the corpus into a narrow cone (unrelated docs
    # still score cos ≈ 0.9+), so the cosine term saturates and the cutoff
    # must sit above 0.4·cos_max + text-sim background — 0.85 separates
    # planted dups (≈ 1.0) from background (≈ 0.7) with wide margin.
    @pytest.mark.parametrize("embedder,threshold", [
        ("autoencoder", 0.78),
        ("ctt", None),  # CTT inference == aggregator output (reference quirk)
    ])
    def test_pair_f1_deep(self, ray_session, embedder, threshold):
        import itertools

        import ray.data as rd

        df, clusters = synth_transcripts(n_base=80, seed=11, dup_fraction=0.4)
        res = link_transcripts(
            rd.from_pandas(df), self.DEEP_CFG, embedder=embedder, k=8,
            threshold=threshold,
        )
        golden = golden_pairs(clusters)
        gset = set(map(tuple, golden[["ltable_id", "rtable_id"]].values))
        # the north-rule metric: pairwise F1 of the ENTITY CLUSTERS (pairs
        # co-clustered by the output labeling), not just direct match edges
        lab = res["clusters"].to_pandas()
        pred = set()
        for _, grp in lab.groupby("cluster_id")["conv_id"]:
            pred |= set(itertools.combinations(sorted(grp), 2))
        tp = len(pred & gset)
        precision = tp / len(pred) if pred else 1.0
        recall = tp / len(gset)
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        assert f1 >= 0.99, (embedder, f1, precision, recall)


class TestScoreViaJoin:
    """The above-broadcast-cap scorer path: turn lists must survive the hash
    join exactly (pyarrow joins reject list<string> payloads, so they ride
    packed — see scoring._pack_turns_fn)."""

    def test_join_path_matches_broadcast_path(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.stages.scoring import score_candidates

        tuples = rd.from_items(
            [
                # the filler byte INSIDE a text must survive the round-trip
                {"conv_id": "a", "turn_texts": ["hel\x1flo wor", "x, y"]},
                {"conv_id": "b", "turn_texts": ["hello world", "x y"]},
                {"conv_id": "c", "turn_texts": []},       # [] vs [""] stays
                {"conv_id": "d", "turn_texts": [""]},     # distinguishable
                {"conv_id": "e", "turn_texts": ["héllo wörld"]},  # multibyte
            ]
        )
        cands = rd.from_items(
            [
                {"left_id": "a", "right_id": "b", "rank": 0, "cosine": 0.91},
                {"left_id": "c", "right_id": "d", "rank": 0, "cosine": 0.52},
                {"left_id": "a", "right_id": "d", "rank": 1, "cosine": 0.20},
                {"left_id": "e", "right_id": "b", "rank": 0, "cosine": 0.77},
            ]
        )

        def run(cfg):
            out = score_candidates(cands, tuples, cfg=cfg).to_pandas()
            return (
                out.sort_values(["left_id", "right_id"])
                .reset_index(drop=True)[
                    ["left_id", "right_id", "jw", "lev", "score", "is_match"]
                ]
            )

        broad = run(EngineConfig())
        joined = run(EngineConfig(broadcast_rows_max=0))
        pd.testing.assert_frame_equal(broad, joined)

    def test_pack_unpack_roundtrip_exact(self):
        import pyarrow as pa

        from deepblocker_ray.stages.scoring import (
            _pack_turns_fn,
            _unpack_turns,
            unpack_turns_arrow,
        )

        rows = [
            ["plain", "two words"],
            ["has\x1ffiller", ""],
            [],
            [""],
            ["héllo wörld", "\x1f\x1f"],
            ["日本語テキスト", "κείμενο", "текст"],  # multi-byte heavy
        ]
        batch = pa.table(
            {
                "conv_id": pa.array([f"c{i}" for i in range(len(rows))]),
                "turn_texts": pa.array(rows, pa.list_(pa.string())),
            }
        )
        packed = _pack_turns_fn("conv_id", "left_id", "_l")(batch)
        got = _unpack_turns(
            packed.column("_ltx").to_pylist(), packed.column("_ltl").to_pylist()
        )
        assert got == rows
        # the Arrow-native unpack (the hot path) must agree byte-exactly;
        # null packed rows (a left-attached candidate with no tuple row)
        # decode to []
        arrow = unpack_turns_arrow(
            packed.column("_ltx"), packed.column("_ltl")
        )
        assert arrow.to_pylist() == rows
        with_null = pa.table(
            {
                "tx": pa.concat_arrays(
                    [packed.column("_ltx").combine_chunks(),
                     pa.array([None], pa.string())]
                ),
                "tl": pa.concat_arrays(
                    [packed.column("_ltl").combine_chunks(),
                     pa.array([None], pa.string())]
                ),
            }
        )
        got2 = unpack_turns_arrow(
            with_null.column("tx"), with_null.column("tl")
        )
        assert got2.to_pylist() == rows + [[]]

    def test_score_lists_arrow_slices_within_budget(self, monkeypatch):
        """No kernel slice holds more than FLAT_TURNS_PER_SLICE aligned
        turn pairs unless one row alone does; the scores do not depend on
        the budget."""
        import pyarrow as pa

        from deepblocker_ray.stages import scoring

        # 4-turn rows, one 12-turn row over the budget, short rows, empties
        rows = [[f"turn {i} {j}" for j in range(4)] for i in range(6)]
        rows += [[f"long {j}" for j in range(12)], [], ["one"], ["a", "b"]]
        rows += [[f"more {i} {j}" for j in range(4)] for i in range(3)]
        arr_a = pa.array(rows, pa.list_(pa.string()))
        arr_b = pa.array(
            [[t + "!" for t in r] for r in rows], pa.list_(pa.string())
        )
        cos = np.linspace(0.1, 0.9, len(rows))
        want = scoring.score_lists_arrow(arr_a, arr_b, cos, cap=128)

        slices = []
        flat_range = scoring._flat_range

        def record(va, oa, vb, ob, m, lo, hi, cap):
            slices.append(m[lo:hi].tolist())
            return flat_range(va, oa, vb, ob, m, lo, hi, cap)

        monkeypatch.setattr(scoring, "FLAT_TURNS_PER_SLICE", 10)
        monkeypatch.setattr(scoring, "_flat_range", record)
        got = scoring.score_lists_arrow(arr_a, arr_b, cos, cap=128)
        assert sum(len(s) for s in slices) == len(rows)
        for s in slices:
            assert sum(s) <= 10 or len(s) == 1, slices
        for w, g in zip(want, got):
            np.testing.assert_array_equal(w, g)

    def test_score_lists_arrow_matches_python_batch(self):
        import pyarrow as pa

        from deepblocker_ray.stages.scoring import (
            score_lists_arrow,
            score_pairs_batch,
        )

        ta = [
            ["hello world", "second turn here"],
            [],
            ["ünïcode tëxt", "a" * 500],          # cap applies
            ["x"],
            ["same", "same", "extra on a side"],
        ]
        tb = [
            ["hello wrld", "second turn ther"],
            ["anything"],
            ["ünïcode tëxt!", "b" * 300],
            [],
            ["same", "samey"],
        ]
        cos = [0.9, 0.5, 0.7, 0.2, 1.0]
        jw0, lev0, s0 = score_pairs_batch(ta, tb, cos, cap=128)
        jw1, lev1, s1 = score_lists_arrow(
            pa.array(ta, pa.list_(pa.string())),
            pa.array(tb, pa.list_(pa.string())),
            cos,
            cap=128,
        )
        np.testing.assert_array_equal(jw0, jw1)
        np.testing.assert_array_equal(lev0, lev1)
        np.testing.assert_array_equal(s0, s1)

    def test_dangling_candidate_id_paths_agree(self, ray_session):
        """A candidate whose left/right id has NO tuple row must be kept
        and scored with empty turn lists (score = 0.4·cosine) on BOTH the
        broadcast and the join path (round-4 ADVICE: the join path used to
        inner-drop such rows)."""
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.scoring import score_candidates

        tuples = rd.from_items(
            [
                {"conv_id": "a", "turn_texts": ["hello world"]},
                {"conv_id": "b", "turn_texts": ["hello word"]},
            ]
        )
        cands = rd.from_items(
            [
                {"left_id": "a", "right_id": "b", "rank": 0, "cosine": 0.9},
                {"left_id": "a", "right_id": "MISSING", "rank": 1,
                 "cosine": 1.0},
                {"left_id": "GONE", "right_id": "ALSO_GONE", "rank": 0,
                 "cosine": 0.5},
            ]
        )

        def run(cfg):
            out = score_candidates(cands, tuples, cfg=cfg).to_pandas()
            return (
                out.sort_values(["left_id", "right_id"])
                .reset_index(drop=True)[
                    ["left_id", "right_id", "jw", "lev", "score", "is_match"]
                ]
            )

        broad = run(EngineConfig())
        joined = run(EngineConfig(broadcast_rows_max=0))
        pd.testing.assert_frame_equal(broad, joined)
        assert len(broad) == 3
        dang = broad[broad["right_id"] == "MISSING"].iloc[0]
        assert dang["jw"] == 0.0 and dang["lev"] == 0.0
        assert abs(dang["score"] - 0.4 * 1.0) < 1e-6
