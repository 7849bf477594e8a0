"""Scale machinery of the dedup suite: hot-key salting (exact pair sets,
bounded tasks, surfaced stats), byte-capped payload lookup vs join fallback,
IVF-mode neardup, and probe-all IVF == exact."""

import numpy as np
import pandas as pd
import pytest

from deepblocker_ray.config import EngineConfig
from deepblocker_ray.stages import dedup as D

CFG = EngineConfig(num_buckets=8)


def _pairs_df(ds) -> set[tuple[str, str]]:
    df = ds.to_pandas()
    return set(zip(df["left_id"], df["right_id"]))


class TestSalting:
    def test_hot_key_salted_exact(self, ray_session):
        """One key with 120 members at max_bucket=30 → salted into sub-keys;
        the emitted pair set must still be EXACTLY all C(120,2) pairs, and
        the stats dict must report the hot key."""
        import ray.data as rd

        n = 120
        df = pd.DataFrame(
            {"doc_id": [f"d{i:04d}" for i in range(n)], "bkey": np.uint64(7)}
        )
        stats = {}
        out = D._pairs_from_keys(
            rd.from_pandas(df).materialize(),
            "doc_id",
            max_bucket=30,
            cfg=CFG,
            stats_out=stats,
        )
        got = _pairs_df(D._dedup_pairs(out, CFG))
        ids = sorted(df["doc_id"])
        want = {
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
        }
        assert got == want
        assert stats["n_hot_keys"] == 1
        assert stats["n_subsampled_keys"] == 0
        assert stats["max_key_size"] == n

    def test_degenerate_key_subsampled_and_reported(self, ray_session):
        """A key beyond hard_mult×max_bucket members is subsampled — bounded
        output, surfaced count, never silent."""
        import ray.data as rd

        n = 300
        df = pd.DataFrame(
            {"doc_id": [f"d{i:04d}" for i in range(n)], "bkey": np.uint64(9)}
        )
        stats = {}
        out = D._pairs_from_keys(
            rd.from_pandas(df).materialize(),
            "doc_id",
            max_bucket=16,
            cfg=CFG,
            hard_mult=4,  # hard cap 64 < 300 → subsample
            stats_out=stats,
        )
        got = _pairs_df(D._dedup_pairs(out, CFG))
        assert stats["n_hot_keys"] == 1
        assert stats["n_subsampled_keys"] == 1
        # kept ≈ n / ceil(n/cap); pair count bounded well below C(300,2)
        assert 0 < len(got) < 300 * 299 // 2 / 4

    def test_mixed_hot_and_cold_keys(self, ray_session):
        import ray.data as rd

        rows = [(f"h{i:03d}", 1) for i in range(80)] + [
            ("a", 2),
            ("b", 2),
            ("c", 3),
        ]
        df = pd.DataFrame(rows, columns=["doc_id", "bkey"])
        df["bkey"] = df["bkey"].astype(np.uint64)
        stats = {}
        out = D._pairs_from_keys(
            rd.from_pandas(df).materialize(),
            "doc_id",
            max_bucket=20,
            cfg=CFG,
            stats_out=stats,
        )
        got = _pairs_df(D._dedup_pairs(out, CFG))
        hot_ids = sorted(f"h{i:03d}" for i in range(80))
        want = {
            (hot_ids[i], hot_ids[j])
            for i in range(80)
            for j in range(i + 1, 80)
        } | {("a", "b")}
        assert got == want
        assert stats["n_hot_keys"] == 1


class TestPayloadLookup:
    def test_column_lookup_missing_ids(self, ray_session):
        import pyarrow as pa

        import ray

        from deepblocker_ray.state.lookup import ColumnLookup, np_lists

        t = pa.table(
            {
                "_pid": ["a", "b", "c"],
                "_payload": pa.array(
                    [[1, 2], [3], [4, 5, 6]], pa.large_list(pa.uint64())
                ),
            }
        )
        lk = ColumnLookup([ray.put(t)], "_pid", "_payload")
        got = lk.take(["b", "zz", "a"])
        lists = np_lists(got)
        assert list(lists[0]) == [3]
        assert list(lists[1]) == []
        assert list(lists[2]) == [1, 2]

    def test_nul_ids_find_their_own_rows(self, ray_session):
        """Ids that differ only after a NUL, hashed together on the build
        side (the scorer's ``_turn_refs``), are each found when looked up
        alone: build and lookup hash every id the same way."""
        import pyarrow as pa

        import ray.data as rd

        from deepblocker_ray.stages.scoring import TurnLookup, _turn_refs

        tuples = rd.from_arrow(
            pa.table(
                {
                    "conv_id": ["a\x00x", "a\x00z", "b"],
                    "turn_texts": [["x1"], ["z1", "z2"], ["b1"]],
                }
            )
        )
        lk = TurnLookup(_turn_refs(tuples, "conv_id"))
        for key, want in [("a\x00z", ["z1", "z2"]), ("a\x00x", ["x1"])]:
            assert lk.get_list_array([key]).to_pylist() == [want]
        vals = lk._lk.take_pylist(["a\x00z", "b"])
        got = [v if v is not None else [] for v in vals]
        assert got == [["z1", "z2"], ["b1"]]

    def test_join_path_matches_lookup_path(self, ray_session):
        """Force the join fallback (broadcast_rows_max=0) and check the
        verified pair set is identical to the broadcast-lookup path."""
        import dataclasses

        from tests.test_dedup import corpus_with_dups

        import ray.data as rd

        df, _ = corpus_with_dups()
        ds = rd.from_pandas(df)
        small = dataclasses.replace(CFG)
        joiny = dataclasses.replace(CFG, broadcast_rows_max=0)
        out_a = D.minhash_lsh_dedup(ds, cfg=small, threshold=0.5).to_pandas()
        out_b = D.minhash_lsh_dedup(ds, cfg=joiny, threshold=0.5).to_pandas()
        a = out_a.sort_values("doc_id").reset_index(drop=True)
        b = out_b.sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)


class TestNeardupIVF:
    def test_ivf_mode_recall(self, ray_session):
        """embedding_neardup(mode='ivf') on clustered vectors finds ≥90% of
        the exact mode's duplicate pairs (north-rule scale path)."""
        import pyarrow as pa

        import ray.data as rd

        from deepblocker_ray.stages.embed import numpy_to_emb

        rng = np.random.default_rng(3)
        centers = rng.standard_normal((20, 16)).astype(np.float32)
        rows = []
        for i in range(200):
            c = centers[i % 20]
            rows.append(c + 0.01 * rng.standard_normal(16).astype(np.float32))
        mat = np.stack(rows)
        t = pa.table(
            {
                "vec_id": pa.array([f"v{i:04d}" for i in range(200)]),
                "emb": numpy_to_emb(mat),
            }
        )
        cfg = dataclasses_replace_ivf(CFG)
        ex = D.embedding_neardup(
            rd.from_arrow(t), cfg=cfg, id_col="vec_id", threshold=0.9, k=5
        ).to_pandas()
        iv = D.embedding_neardup(
            rd.from_arrow(t),
            cfg=cfg,
            id_col="vec_id",
            threshold=0.9,
            k=5,
            mode="ivf",
        ).to_pandas()
        ex_dups = set(ex[ex["is_duplicate"]]["doc_id"])
        iv_dups = set(iv[iv["is_duplicate"]]["doc_id"])
        assert len(ex_dups) > 0
        assert len(ex_dups & iv_dups) / len(ex_dups) >= 0.9

    def test_probe_all_ivf_equals_exact_knn(self, ray_session):
        import pyarrow as pa

        import ray.data as rd

        from deepblocker_ray.stages.annsearch import knn

        rng = np.random.default_rng(11)
        t = pa.table(
            {
                "vec_id": pa.array(np.arange(150)),
                "embedding": pa.array(
                    [list(map(float, r)) for r in rng.standard_normal((150, 8))]
                ),
            }
        )
        cfg = EngineConfig(num_buckets=8, ivf_cells=16)
        ex = (
            knn(rd.from_arrow(t), n_queries=8, k=7, cfg=cfg, mode="exact")
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        iv = (
            knn(
                rd.from_arrow(t), n_queries=8, k=7, cfg=cfg, mode="ivf",
                nprobe=cfg.ivf_cells,
            )
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        cols = ["query_id", "neighbor_id", "rank"]
        assert ex[cols].equals(iv[cols])


def dataclasses_replace_ivf(cfg):
    import dataclasses

    return dataclasses.replace(cfg, ivf_cells=16, ivf_nprobe=4)


class TestKnnInt8:
    def _emb_table(self, n=150, d=8, seed=11):
        import pyarrow as pa

        rng = np.random.default_rng(seed)
        return pa.table(
            {
                "vec_id": pa.array(np.arange(n)),
                "embedding": pa.array(
                    [list(map(float, r)) for r in rng.standard_normal((n, d))]
                ),
            }
        )

    def test_quantize_rule(self):
        from deepblocker_ray.stages.annsearch import _quantize_rows

        x = np.array([[0.5, -1.0, 0.25], [0.0, 0.0, 0.0]])
        q = _quantize_rows(x)
        # row max |x| = 1.0 → scale 127: floor(0.5·127+0.5)=64,
        # floor(-127+0.5)=-127, floor(31.75+0.5)=32; zero row stays zero
        assert q.tolist() == [[64.0, -127.0, 32.0], [0.0, 0.0, 0.0]]
        assert np.abs(q).max() <= 127

    def test_matches_numpy_oracle_and_float_recall(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.stages.annsearch import (
            _quantize_rows,
            knn,
            knn_int8,
        )

        t = self._emb_table()
        cfg = EngineConfig(num_buckets=8)
        got = (
            knn_int8(rd.from_arrow(t), n_queries=8, k=7, cfg=cfg)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        # single-process oracle: quantize, exact float64 cosine, tie by id
        mat = np.array([list(r) for r in t.column("embedding").to_pylist()])
        q = _quantize_rows(mat)
        norm = np.sqrt((q * q).sum(axis=1))
        cos = (q @ q.T) / np.outer(norm, norm)
        ids = np.array([str(i) for i in range(len(mat))], object)
        rows = []
        for i in range(8):
            mask = np.arange(len(mat)) != i
            cand = np.nonzero(mask)[0]
            order = cand[np.argsort(ids[cand], kind="stable")]
            order = order[np.argsort(-cos[i][order], kind="stable")][:7]
            rows += [(str(i), ids[j], r) for r, j in enumerate(order)]
        import pandas as pd

        exp = (
            pd.DataFrame(rows, columns=["query_id", "neighbor_id", "rank"])
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype(str), exp.astype(str)
        )
        # sanity: quantized ranking stays close to float search (top-7
        # neighbor overlap) — 8 bits keep cosine order on gaussian data
        fl = knn(
            rd.from_arrow(t), n_queries=8, k=7, cfg=cfg, mode="exact"
        ).to_pandas()
        a = set(map(tuple, got[["query_id", "neighbor_id"]].values))
        b = set(map(tuple, fl[["query_id", "neighbor_id"]].values))
        assert len(a & b) / len(b) >= 0.8


class TestPairVerifyKernels:
    def test_indexed_kernel_bitset_vs_sort_parity(self):
        """The bitset fast path (small batch vocabulary) and the open-
        vocabulary sort path must agree exactly; both vs per-pair
        np.intersect1d."""
        rng = np.random.default_rng(5)
        # small vocab → bitset path
        vocab_small = rng.integers(0, 2**62, 100, dtype=np.int64).astype(np.uint64)
        pool_s = [
            np.unique(rng.choice(vocab_small, rng.integers(0, 40)))
            for _ in range(50)
        ] + [np.empty(0, np.uint64)]
        # large vocab → sort path (force by exceeding _BITSET_MAX_VOCAB)
        pool_l = [
            np.unique(rng.integers(0, 2**62, 60, dtype=np.int64).astype(np.uint64))
            for _ in range(80)
        ]
        for pool in (pool_s, pool_l):
            n = 300
            li = rng.integers(0, len(pool), n)
            ri = rng.integers(0, len(pool), n)
            inter, na, nb = D._pairwise_intersect_indexed(pool, li, ri)
            for k in range(n):
                a, b = pool[li[k]], pool[ri[k]]
                assert inter[k] == len(np.intersect1d(a, b))
                assert na[k] == len(a) and nb[k] == len(b)

    def test_take_arrow_matches_take(self, ray_session):
        """Arrow-native gather must agree with the Python-object path on
        hits, misses, and list payloads."""
        import pyarrow as pa
        import ray

        from deepblocker_ray.state.lookup import ColumnLookup

        t = pa.table(
            {
                "_pid": pa.array(["a", "b", "c", "d"], pa.string()),
                "_payload": pa.array(
                    [[1, 2], [], [7], [9, 9, 9]],
                    pa.large_list(pa.uint64()),
                ),
                "_ph": pa.array(
                    pd.util.hash_array(
                        np.asarray(["a", "b", "c", "d"], dtype=object)
                    )
                ),
            }
        )
        refs = [ray.put(t)]
        lk = ColumnLookup(refs, "_pid", "_payload", hash_col="_ph")
        keys = ["c", "missing", "a", "d", "b", "nope"]
        got_a = lk.take_arrow(keys)
        got_o = lk.take(keys)
        assert got_a.to_pylist() == got_o.to_pylist()

    def test_np_u64_lists_binary_buffer_path(self):
        """Zero-copy buffer slicing must match the bytes round-trip,
        including nulls and a sliced (offset) array."""
        import pyarrow as pa

        from deepblocker_ray.state.lookup import np_u64_lists

        vals = [
            np.arange(3, dtype=np.uint64).tobytes(),
            None,
            b"",
            np.array([7, 11], np.uint64).tobytes(),
        ]
        arr = pa.array(vals, pa.large_binary())
        for a in (arr, arr.slice(1)):
            got = np_u64_lists(a)
            want = [
                np.frombuffer(b, np.uint64) if b is not None
                else np.empty(0, np.uint64)
                for b in a.to_pylist()
            ]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_length_filter_exactness(self, ray_session):
        """size_tau must cut only provably-unqualifying pairs: with the
        filter on, the candidate set still contains every Jaccard ≥ τ
        pair (verified end-to-end through set_similarity_join)."""
        import ray.data as rd

        from deepblocker_ray.stages.setjoin import set_similarity_join

        rng = np.random.default_rng(9)
        texts = {}
        for i in range(80):
            k = int(rng.integers(2, 30))
            texts[f"d{i:03d}"] = " ".join(
                str(w) for w in rng.choice(40, k, replace=False)
            )
        df = pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())})
        out = set_similarity_join(
            rd.from_pandas(df), CFG, tau_num=1, tau_den=2
        ).to_pandas()
        got = set(zip(out["left_id"], out["right_id"]))
        import itertools

        from deepblocker_ray.functions.tokenizer import tokenize

        want = set()
        sets = {k: set(tokenize(v)) for k, v in texts.items()}
        for a, b in itertools.combinations(sorted(sets), 2):
            A, B = sets[a], sets[b]
            u = len(A | B)
            if u and 2 * len(A & B) >= u:
                want.add((a, b))
        assert got == want


class TestNullPayloadGuards:
    def test_jaccard_verify_drops_null_payload_pairs(self):
        """A pair whose payload slot is null (id missing from the payload
        side) must be dropped, NOT scored as an empty doc (J=1.0)."""
        import pyarrow as pa

        fn = D._jaccard_verify_fn(0.5)
        lp = pa.array([None, b""], pa.large_binary())
        rp = pa.array(
            [b"", np.array([], np.uint64).tobytes()], pa.large_binary()
        )
        out = fn(["a", "c"], ["b", "d"], lp, rp)
        # pair 0: null slot → dropped. pair 1: genuinely empty∧empty → 1.0
        assert out.column("left_id").to_pylist() == ["c"]
        assert out.column("jaccard").to_pylist() == [1.0]
