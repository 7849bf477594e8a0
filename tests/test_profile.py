"""column_profile (stages/profile.py): exact distinct via map-side-deduped
hash pairs, null counts, code-point length extremes over coalesce('')."""

import numpy as np
import pandas as pd


class TestColumnProfile:
    def test_counts_distinct_lengths_nulls(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import column_profile

        df = pd.DataFrame(
            {
                "a": ["x", "x", "yy", None, "ééé"],   # 3 distinct non-null
                "b": [None, None, None, None, None],  # all null
                "c": ["same"] * 5,                    # 1 distinct
            }
        )
        out = (
            column_profile(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4),
                columns=["a", "b", "c"],
            )
            .to_pandas()
            .set_index("column")
        )
        assert out.loc["a"].tolist() == [5, 1, 3, 0, 3]  # é×3 = 3 CHARS
        assert out.loc["b"].tolist() == [5, 5, 0, 0, 0]
        assert out.loc["c"].tolist() == [5, 0, 1, 4, 4]

    def test_empty_columns_arg(self):
        import pytest as _pt

        from deepblocker_ray.stages.profile import column_profile

        with _pt.raises(ValueError):
            column_profile(None, columns=[])


class TestSpanExtract:
    def test_ordinals_overlap_rule_and_nulls(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.stages.textstats import span_extract

        df = pd.DataFrame(
            {
                "doc_id": np.arange(4, dtype=np.int64),
                "text": [
                    "fast sort stream",  # 'st' inside fast; sort; stream
                    None,                 # no matches
                    "xyz",                # no matches
                    "ss s1 s",            # 'ss' (one match, greedy), no s1\
                ],
            }
        )
        out = (
            span_extract(rd.from_pandas(df), r"s[a-z]+")
            .to_pandas()
            .sort_values(["doc_id", "match_idx"])
            .reset_index(drop=True)
        )
        assert out[out["doc_id"] == 0]["match"].tolist() == [
            "st", "sort", "stream"
        ]
        assert out[out["doc_id"] == 0]["match_idx"].tolist() == [0, 1, 2]
        assert set(out["doc_id"]) == {0, 3}
        assert out[out["doc_id"] == 3]["match"].tolist() == ["ss"]


class TestSurvivorship:
    def test_majority_tie_and_allnull(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.cluster import survivorship

        df = pd.DataFrame(
            {
                "cid": np.array([1, 1, 1, 2, 2, 3], np.int64),
                "a": ["x", "y", "x", "p", "q", None],   # c1: x wins 2-1;
                                                        # c2: tie → 'p';
                                                        # c3: all null
                "b": [None, None, None, "z", "z", "w"],
            }
        )
        out = (
            survivorship(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4),
                cluster_col="cid", value_cols=["a", "b"],
            )
            .to_pandas()
            .sort_values(["cid", "attribute"])
            .reset_index(drop=True)
        )
        got = list(map(tuple, out.to_numpy()))
        assert got == [
            (1, "a", "x"),
            (2, "a", "p"),
            (2, "b", "z"),
            (3, "b", "w"),
        ]


class TestRankTransform:
    def test_global_rank_ties_and_negatives(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.scan import rank_transform

        rng = np.random.RandomState(11)
        vals = np.concatenate(
            [rng.randint(-50, 50, 197), np.full(20, 7)]  # hot value 7
        ).astype(np.int64)
        df = pd.DataFrame(
            {"id": np.arange(len(vals), dtype=np.int64), "v": vals}
        )
        out = (
            rank_transform(
                rd.from_pandas([p for p in np.array_split(df, 5)]),
                EngineConfig(num_buckets=8), id_col="id", value_col="v",
            )
            .to_pandas()
            .sort_values("rank")
            .reset_index(drop=True)
        )
        order = np.lexsort((df["id"].to_numpy(), vals))
        assert out["id"].tolist() == df["id"].to_numpy()[order].tolist()
        assert out["rank"].tolist() == list(range(1, len(vals) + 1))

    def test_empty(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.scan import rank_transform

        df = pd.DataFrame(
            {"id": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)}
        )
        out = rank_transform(
            rd.from_pandas(df), EngineConfig(num_buckets=4),
            id_col="id", value_col="v",
        ).to_pandas()
        assert len(out) == 0


class TestCooccurrence:
    def test_doc_counts_and_min_count(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import cooccurrence

        df = pd.DataFrame(
            {
                "text": [
                    "a b c a",    # pairs: ab ac bc (dups in doc count once)
                    "a b",        # ab
                    "b c",        # bc
                    None,
                    "",
                    "solo",
                ]
            }
        )
        out = (
            cooccurrence(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4), min_count=2,
            )
            .to_pandas()
            .sort_values(["token_a", "token_b"])
            .reset_index(drop=True)
        )
        got = list(map(tuple, out.to_numpy()))
        assert got == [("a", "b", 2), ("b", "c", 2)]

    def test_fallback_path_parity(self, ray_session):
        """A batch with > 4096 distinct tokens takes the segment-pair path;
        its counts must equal the brute-force oracle."""
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import cooccurrence

        rng = np.random.RandomState(5)
        vocab = np.array([f"tk{i:05d}" for i in range(4200)])
        # every vocab word appears (u > 4096 in the one batch) via 1050
        # 4-word docs over a disjoint cover, plus random overlap docs
        docs = [
            " ".join(vocab[i : i + 4]) for i in range(0, 4200, 4)
        ] + [
            " ".join(rng.choice(vocab[:50], rng.randint(2, 6),
                                replace=False))
            for _ in range(40)
        ]
        df = pd.DataFrame({"text": docs})
        out = (
            cooccurrence(rd.from_pandas(df), EngineConfig(num_buckets=4),
                         min_count=2)
            .to_pandas()
        )
        # oracle: python counts
        from collections import Counter
        from itertools import combinations

        cnt = Counter()
        for d in docs:
            for a, b in combinations(sorted(set(d.split())), 2):
                cnt[(a, b)] += 1
        want = {k: v for k, v in cnt.items() if v >= 2}
        got = {
            (r.token_a, r.token_b): r.n_both for r in out.itertuples()
        }
        assert got == want


class TestDupSizeHistogram:
    def test_sizes_across_batches(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.dedup import dup_size_histogram

        # 'aa' ×4 (split across batches), 'bb' ×2, 3 singletons, None == ''
        df = pd.DataFrame(
            {
                "text": ["aa", "aa", "bb", "x", "aa", "aa", "bb", "y",
                         None, ""],
            }
        )
        out = (
            dup_size_histogram(
                rd.from_pandas([p for p in np.array_split(df, 4)]),
                EngineConfig(num_buckets=4),
            )
            .to_pandas()
            .sort_values("cluster_size")
            .reset_index(drop=True)
        )
        # sizes: aa→4, bb→2, ''/None→2, x→1, y→1
        assert list(map(tuple, out.to_numpy())) == [(1, 2), (2, 2), (4, 1)]


class TestPairFeatures:
    def test_feature_values(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.neighborhood import pair_features

        # identical prefixes force SNM adjacency; features are checkable
        df = pd.DataFrame(
            {
                "doc_id": np.array([1, 2, 3], np.int64),
                "text": ["alpha beta", "alpha beta", "alpha gamma"],
            }
        )
        out = (
            pair_features(
                rd.from_pandas(df), EngineConfig(num_buckets=4),
                key_chars=5, window=3,
            )
            .to_pandas()
            .sort_values(["left_id", "right_id"])
            .reset_index(drop=True)
        )
        # ranks by (prefix, id): all share prefix 'alpha' → 3 pairs
        assert list(zip(out["left_id"], out["right_id"])) == [
            (1, 2), (1, 3), (2, 3)
        ]
        r12 = out.iloc[0]
        assert r12["jw"] == 1.0 and r12["lev"] == 0
        assert r12["token_jaccard"] == 1.0
        assert r12["len_l"] == r12["len_r"] == 10
        r13 = out.iloc[1]
        # {alpha,beta} vs {alpha,gamma}: 1/3
        assert abs(r13["token_jaccard"] - 1 / 3) < 1e-12
        assert r13["lev"] > 0 and r13["jw"] < 1.0

    def test_empty_tokens(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.neighborhood import pair_features

        df = pd.DataFrame(
            {"doc_id": np.array([1, 2], np.int64), "text": ["", None]}
        )
        out = pair_features(
            rd.from_pandas(df), EngineConfig(num_buckets=4),
            key_chars=5, window=2,
        ).to_pandas()
        assert len(out) == 1
        assert out["token_jaccard"].iloc[0] == 0.0
        assert out["jw"].iloc[0] == 0.0 or out["jw"].iloc[0] == 1.0


class TestBigramFamiliarity:
    def test_scores_and_short_docs(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import bigram_familiarity

        df = pd.DataFrame(
            {
                "doc_id": np.arange(5, dtype=np.int64),
                "text": [
                    "a b c",      # bigrams: 'a b', 'b c'
                    "a b c",      # same
                    "a b x",      # 'a b', 'b x'
                    "w",          # < 2 tokens → (0, 0)
                    None,         # NULL → (0, 0)
                ],
            }
        )
        out = (
            bigram_familiarity(
                rd.from_pandas([p for p in np.array_split(df, 2)]),
                EngineConfig(num_buckets=4), min_count=2,
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # counts (min 2): 'a b'→3, 'b c'→2; 'b x' (1) truncated
        assert out["n_bigrams"].tolist() == [2, 2, 2, 0, 0]
        assert out["familiarity"].tolist() == [5, 5, 3, 0, 0]


class TestBlockSkew:
    def test_sizes_and_pairs(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.neighborhood import block_skew

        df = pd.DataFrame(
            {
                "doc_id": np.arange(6, dtype=np.int64),
                "text": ["ABCDEF one", "abcdef two", "abcdef three",
                         "zz", None, ""],
            }
        )
        out = (
            block_skew(
                rd.from_pandas([p for p in np.array_split(df, 2)]),
                EngineConfig(num_buckets=4), key_chars=6, min_size=2,
            )
            .to_pandas()
            .sort_values("key")
            .reset_index(drop=True)
        )
        # 'abcdef' (lowercased) ×3 → 3 pairs; ''/None share key '' → 1 pair
        assert list(map(tuple, out.to_numpy())) == [
            ("", 2, 1), ("abcdef", 3, 3)
        ]


class TestReviewRegressions:
    """Pins for the session-6 review findings."""

    def test_column_profile_empty_input(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import column_profile

        df = pd.DataFrame({"a": pd.Series(dtype=object),
                           "b": pd.Series(dtype=object)})
        out = column_profile(
            rd.from_pandas(df), EngineConfig(num_buckets=4),
            columns=["a", "b"],
        ).to_pandas()
        assert out["column"].tolist() == ["a", "b"]
        assert out["n_rows"].tolist() == [0, 0]
        assert out["n_distinct"].tolist() == [0, 0]
        assert out["min_len"].isna().all() and out["max_len"].isna().all()

    def test_span_extract_capture_group_full_match(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.stages.textstats import span_extract

        df = pd.DataFrame({"doc_id": np.array([0], np.int64),
                           "text": ["spark sort"]})
        out = span_extract(
            rd.from_pandas(df), r"s([a-z]+)"
        ).to_pandas()
        # full matches, not capture contents
        assert out["match"].tolist() == ["spark", "sort"]

    def test_debounce_null_event_type(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.events import debounce

        base = pd.Timestamp("2026-01-01")
        s = pd.Timedelta(seconds=1)
        df = pd.DataFrame(
            {
                "event_id": np.arange(3, dtype=np.int64),
                "user_id": np.array([1, 1, 1], np.int64),
                "event_type": ["click", None, None],
                "ts": [base, base + 200 * s, base + 400 * s],
            }
        )
        out = (
            debounce(rd.from_pandas(df), EngineConfig(num_buckets=2),
                     gap_seconds=60.0)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        # all three kept (gaps > 60s / different keys); null types stay
        # NULL — never relabeled as another type
        assert out["event_id"].tolist() == [0, 1, 2]
        assert out["event_type"].tolist()[0] == "click"
        assert pd.isna(out["event_type"].tolist()[1])
        assert pd.isna(out["event_type"].tolist()[2])

    def test_snapshot_diff_separator_injection(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import snapshot_diff

        # '\x1f'-crafted values that a joined canonical string would alias
        old = pd.DataFrame(
            {"k": np.array([1], np.int64), "a": ["x\x1fy"], "b": ["z"]}
        )
        new = pd.DataFrame(
            {"k": np.array([1], np.int64), "a": ["x"], "b": ["y\x1fz"]}
        )
        out = snapshot_diff(
            rd.from_pandas(old), rd.from_pandas(new),
            EngineConfig(num_buckets=2), key_col="k",
            value_cols=["a", "b"],
        ).to_pandas()
        assert out["status"].tolist() == ["changed"]

    def test_rank_transform_wide_span(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.scan import rank_transform

        # span > 2^63/nr: the old integer range math wrapped negative
        vals = np.array(
            [-(2**62), -1000, 0, 7, 2**62, 2**62 + 5], np.int64
        )
        df = pd.DataFrame(
            {"id": np.arange(len(vals), dtype=np.int64), "v": vals}
        )
        out = (
            rank_transform(
                rd.from_pandas(df), EngineConfig(num_buckets=8),
                id_col="id", value_col="v",
            )
            .to_pandas()
            .sort_values("rank")
        )
        assert out["v"].tolist() == sorted(vals.tolist())
        assert out["rank"].tolist() == [1, 2, 3, 4, 5, 6]


class TestKmeansAssign:
    def test_assignment_numpy_oracle(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.annsearch import kmeans_assign

        rng = np.random.RandomState(3)
        vecs = rng.randn(40, 8).astype(np.float32)
        df = pd.DataFrame(
            {
                "vec_id": np.arange(40, dtype=np.int64),
                "embedding": [v for v in vecs],
            }
        )
        out = (
            kmeans_assign(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4), k=4,
            )
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        q = np.rint(vecs.astype(np.float64) * 10_000).astype(np.int64)
        d = ((q[:, None, :] - q[None, :4, :]) ** 2).sum(axis=2)
        want = d.argmin(axis=1)
        assert out["cluster"].tolist() == want.tolist()
        assert out["dist_q"].tolist() == d[np.arange(40), want].tolist()
        # seeds assign to themselves at distance 0
        assert out["dist_q"].tolist()[:4] == [0, 0, 0, 0]

    def test_missing_seeds(self, ray_session):
        import pytest as _pt
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.annsearch import kmeans_assign

        df = pd.DataFrame(
            {
                "vec_id": np.array([5, 6], np.int64),
                "embedding": [np.ones(4, np.float32)] * 2,
            }
        )
        with _pt.raises(ValueError, match="seed"):
            kmeans_assign(
                rd.from_pandas(df), EngineConfig(), k=4
            ).to_pandas()


class TestKmeansUpdate:
    def test_update_numpy_oracle(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.annsearch import kmeans_update

        rng = np.random.RandomState(5)
        vecs = rng.randn(40, 6).astype(np.float32)
        df = pd.DataFrame(
            {
                "vec_id": np.arange(40, dtype=np.int64),
                "embedding": [v for v in vecs],
            }
        )
        out = (
            kmeans_update(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4), k=4,
            )
            .to_pandas()
            .sort_values(["cluster", "dim"])
            .reset_index(drop=True)
        )
        q = np.rint(vecs.astype(np.float64) * 10_000).astype(np.int64)
        d = ((q[:, None, :] - q[None, :4, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        rows = []
        for c in range(4):
            members = q[assign == c]
            if len(members) == 0:
                continue
            s = members.sum(axis=0)
            n = len(members)
            for dim in range(6):
                cs = int(s[dim])
                mean = -(-cs // n) if cs < 0 else cs // n  # trunc to zero
                rows.append((c, dim + 1, cs, n, mean))
        got = list(map(tuple, out.to_numpy()))
        assert got == rows

    def test_trunc_division_negative(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.annsearch import kmeans_update

        # 2 seeds; cluster 1 = {seed1, v2} with negative coordinate sums
        # that don't divide evenly → floor and trunc differ
        df = pd.DataFrame(
            {
                "vec_id": np.arange(3, dtype=np.int64),
                "embedding": [
                    [1.0, 1.0],
                    [-0.00015, -1.0],      # q = (-2, -10000)
                    [-0.00016, -1.0],      # q = (-2, -10000) → cluster 1
                ],
            }
        )
        out = (
            kmeans_update(rd.from_pandas(df), EngineConfig(num_buckets=4), k=2)
            .to_pandas()
            .set_index(["cluster", "dim"])
        )
        # cluster 1 dim 1: -0.00015*1e4 = -1.49999… (binary) → rint -1;
        # -0.00016*1e4 = -1.6 → -2; csum = -3, cnt = 2 → trunc division
        # gives -1 where floor would give -2 — the case the twin pins
        assert out.loc[(1, 1), "csum"] == -3
        assert out.loc[(1, 1), "cmean_q"] == -1
        # craft odd division: csum=-4, cnt=2 divides evenly; check dim 2
        assert out.loc[(1, 2), "csum"] == -20000
        assert out.loc[(1, 2), "cnt"] == 2


class TestDimStats:
    def test_hand_computed(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.annsearch import dim_stats

        df = pd.DataFrame(
            {
                "vec_id": np.arange(3, dtype=np.int64),
                "embedding": [
                    [0.1, -0.2],
                    [0.3, 0.0],
                    [-0.1, 0.5],
                ],
            }
        )
        out = (
            dim_stats(
                rd.from_pandas([p for p in np.array_split(df, 2)]),
                EngineConfig(num_buckets=4),
            )
            .to_pandas()
            .set_index("dim")
        )
        # dim 1: q = 1000, 3000, -1000 → sum 3000, sumsq 11e6
        assert out.loc[1, "n"] == 3
        assert out.loc[1, "sum_q"] == 3000
        assert out.loc[1, "sum_qq"] == 11_000_000
        assert out.loc[1, "min_q"] == -1000
        assert out.loc[1, "max_q"] == 3000
        # dim 2: q = -2000, 0, 5000
        assert out.loc[2, "sum_q"] == 3000
        assert out.loc[2, "sum_qq"] == 29_000_000
        assert out.loc[2, "min_q"] == -2000
        assert out.loc[2, "max_q"] == 5000


class TestTableFingerprint:
    def test_multiset_identity_and_nulls(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import table_fingerprint

        df1 = pd.DataFrame(
            {"a": [1, 2, 3, None], "b": ["x", "y", "y", "z"]}
        )
        df2 = df1.sample(frac=1.0, random_state=3).reset_index(drop=True)
        cfg = EngineConfig(num_buckets=4)
        f = lambda d: (
            table_fingerprint(
                rd.from_pandas([p for p in np.array_split(d, 2)]),
                cfg, columns=["a", "b"],
            )
            .to_pandas()
            .set_index("column")
        )
        o1, o2 = f(df1), f(df2)
        # row order must not matter; nulls counted, not hashed
        assert o1.equals(o2)
        assert o1.loc["a", "n_nulls"] == 1
        assert o1.loc["a", "n_rows"] == 4
        df3 = df1.copy()
        df3.loc[0, "b"] = "CHANGED"
        assert f(df3).loc["b", "hash_sum"] != o1.loc["b", "hash_sum"]
        assert f(df3).loc["a", "hash_sum"] == o1.loc["a", "hash_sum"]


class TestFDViolations:
    def test_violators_only_nulls_dropped(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import fd_violations

        df = pd.DataFrame(
            {
                "k": np.array([1, 1, 1, 2, 2, 3, 4, 4], np.int64),
                "v": ["a", "b", "a", "x", "x", "q", None, "z"],
            }
        )
        out = (
            fd_violations(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4), lhs="k", rhs="v",
            )
            .to_pandas()
            .set_index("k")
        )
        # k=1 → {a,b} violation; k=2 → {x} ok; k=3 ok; k=4 → null dropped,
        # only {z} → ok
        assert dict(out["n_distinct_rhs"]) == {1: 2}


class TestCountEncode:
    def test_window_count_semantics(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import count_encode

        rows = rd.from_pandas(
            pd.DataFrame(
                {
                    "event_id": [1, 2, 3, 4, 5],
                    "event_type": ["a", "b", "a", "a", "b"],
                }
            )
        ).repartition(3)
        out = (
            count_encode(
                rows, EngineConfig(num_buckets=4),
                id_col="event_id", value_col="event_type",
            )
            .to_pandas().set_index("event_id")["value_count"].to_dict()
        )
        assert out == {1: 3, 2: 2, 3: 3, 4: 3, 5: 2}

    def test_join_fallback_path_equal(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import count_encode

        def rows():
            return rd.from_pandas(
                pd.DataFrame(
                    {
                        "event_id": range(20),
                        "event_type": [str(i % 3) for i in range(20)],
                    }
                )
            )

        a = count_encode(
            rows(), EngineConfig(num_buckets=4),
            id_col="event_id", value_col="event_type",
        ).to_pandas().sort_values("event_id").reset_index(drop=True)
        b = count_encode(
            rows(), EngineConfig(num_buckets=4, broadcast_rows_max=0),
            id_col="event_id", value_col="event_type",
        ).to_pandas().sort_values("event_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


class TestBenfordAudit:
    def test_digits_and_fracs(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import benford_audit

        df = pd.DataFrame(
            {
                "v": [
                    1.23,    # cents 123  -> digit 1
                    0.05,    # cents 5    -> digit 5
                    99.99,   # cents 9999 -> digit 9
                    55.00,   # cents 5500 -> digit 5
                    0.0,     # excluded (non-positive)
                    -3.50,   # excluded
                ]
            }
        )
        out = (
            benford_audit(
                rd.from_pandas(df), EngineConfig(num_buckets=4),
                value_col="v",
            )
            .to_pandas()
            .sort_values("digit")
            .reset_index(drop=True)
        )
        assert list(out["digit"]) == [1, 5, 9]
        assert list(out["n"]) == [1, 2, 1]
        assert list(out["frac"]) == [0.25, 0.5, 0.25]


class TestSkipgramCooccurrence:
    def test_window_and_occurrence_counts(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import skipgram_cooccurrence

        df = pd.DataFrame(
            {
                "text": [
                    "a b a b",   # d1: ab ba ab ; d2: aa bb
                    "a b",       # d1: ab
                    None,
                    "",
                    "solo",
                ]
            }
        )
        out = (
            skipgram_cooccurrence(
                rd.from_pandas([p for p in np.array_split(df, 2)]),
                EngineConfig(num_buckets=4), window=2, min_count=1,
            )
            .to_pandas()
            .sort_values(["token_a", "token_b"])
            .reset_index(drop=True)
        )
        got = {(r.token_a, r.token_b): r.n for r in out.itertuples()}
        # ordered pairs, every occurrence counted, window=2
        assert got == {
            ("a", "b"): 3, ("b", "a"): 1, ("a", "a"): 1, ("b", "b"): 1,
        }

    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.functions.tokenizer import tokenize_many
        from deepblocker_ray.stages.textstats import skipgram_cooccurrence

        rng = np.random.RandomState(7)
        vocab = [f"w{i}" for i in range(12)]
        docs = [
            " ".join(rng.choice(vocab, rng.randint(0, 9)))
            for _ in range(120)
        ]
        out = (
            skipgram_cooccurrence(
                rd.from_pandas(pd.DataFrame({"text": docs})),
                EngineConfig(num_buckets=4), window=3, min_count=2,
            )
            .to_pandas()
        )
        got = {(r.token_a, r.token_b): r.n for r in out.itertuples()}
        from collections import Counter

        cnt = Counter()
        for tks in tokenize_many(docs):
            for i, a in enumerate(tks):
                for b in tks[i + 1 : i + 4]:
                    cnt[(a, b)] += 1
        want = {k: v for k, v in cnt.items() if v >= 2}
        assert got == want


class TestGiniByGroup:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import gini_by_group

        rng = np.random.RandomState(9)
        g = rng.choice(["x", "y", "z"], 400)
        v = np.round(rng.lognormal(3, 1, 400), 2)
        df = pd.DataFrame({"grp": g, "price": v})
        out = (
            gini_by_group(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4),
                group_col="grp", value_col="price",
            )
            .to_pandas()
            .set_index("grp")
        )
        for grp in ["x", "y", "z"]:
            cents = np.sort(
                np.rint(v[g == grp] * 100).astype(np.int64)
            )
            n = len(cents)
            i = np.arange(1, n + 1, dtype=np.int64)
            num = int(((2 * i - n - 1) * cents).sum())
            r = out.loc[grp]
            assert r["n"] == n
            assert r["sum_cents"] == cents.sum()
            assert r["gini_num"] == num
            # sanity: Gini of a constant column is 0
        const = pd.DataFrame({"grp": ["c"] * 10, "price": [5.0] * 10})
        out2 = gini_by_group(
            rd.from_pandas(const), EngineConfig(num_buckets=4),
            group_col="grp", value_col="price",
        ).to_pandas()
        assert out2["gini_num"].iloc[0] == 0


class TestDispersionByGroup:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import dispersion_by_group

        rng = np.random.RandomState(17)
        # odd- and even-sized groups, with duplicated values
        g = np.array(["x"] * 151 + ["y"] * 150 + ["z"] * 7)
        v = np.round(rng.lognormal(3, 1, len(g)), 2)
        v[g == "z"] = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 9.0]
        df = pd.DataFrame({"grp": g, "price": v})
        out = (
            dispersion_by_group(
                rd.from_pandas([p for p in np.array_split(df, 4)]),
                EngineConfig(num_buckets=4),
                group_col="grp", value_col="price",
            )
            .to_pandas()
            .set_index("grp")
        )

        def med2(c):
            c = np.sort(c)
            n = len(c)
            if n % 2 == 1:
                return 2 * int(c[(n - 1) // 2])
            return int(c[n // 2 - 1]) + int(c[n // 2])

        for grp in ["x", "y", "z"]:
            cents = np.rint(v[g == grp] * 100).astype(np.int64)
            m2 = med2(cents)
            m4 = med2(np.abs(2 * cents - m2))
            r = out.loc[grp]
            assert r["n"] == len(cents)
            assert r["med2"] == m2
            assert r["mad4"] == m4
        # z by hand: cents sorted 100,100,200,300,300,300,900 -> med2=600
        # |2c-600|: 400,400,200,0,0,0,1200 -> sorted 0,0,0,200,400,400,1200
        # -> mad4=400
        assert out.loc["z", "med2"] == 600
        assert out.loc["z", "mad4"] == 400

    def test_constant_group_zero_mad(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import dispersion_by_group

        df = pd.DataFrame({"grp": ["c"] * 10, "price": [5.0] * 10})
        out = dispersion_by_group(
            rd.from_pandas(df), EngineConfig(num_buckets=4),
            group_col="grp", value_col="price",
        ).to_pandas()
        assert out["med2"].iloc[0] == 1000
        assert out["mad4"].iloc[0] == 0


class TestSurprisal:
    def test_matches_brute_force(self, ray_session):
        import math

        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.functions.tokenizer import tokenize_many
        from deepblocker_ray.stages.textstats import surprisal

        texts = [
            "the cat sat on the mat",
            "the dog sat",
            "a rare ocelot appeared",
            "",
            None,
            "the the the",
        ]
        ids = [f"d{i}" for i in range(len(texts))]
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": ids, "text": texts})
        ).repartition(3)
        out = (
            surprisal(ds, EngineConfig(num_buckets=4))
            .to_pandas()
            .set_index("doc_id")
        )

        toks = tokenize_many(texts)
        from collections import Counter

        cnt = Counter(t for x in toks for t in x)
        total = sum(cnt.values())
        lg_n = int(math.log2(total))
        for i, tk in enumerate(toks):
            bits = sum(lg_n - int(math.log2(cnt[t])) for t in tk)
            r = out.loc[f"d{i}"]
            assert r["n_tokens"] == len(tk)
            assert r["bits"] == bits

    def test_empty_corpus(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import surprisal

        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": ["a", "b"], "text": [None, ""]})
        )
        out = surprisal(ds, EngineConfig(num_buckets=4)).to_pandas()
        assert (out["n_tokens"] == 0).all()
        assert (out["bits"] == 0).all()


class TestReadability:
    def test_hand_counts(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import readability

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "Hello world. How are you?!",
                    "queueing",
                    None,
                    "x y  z...",
                ],
            }
        )
        out = (
            readability(rd.from_pandas(docs), EngineConfig(num_buckets=4))
            .to_pandas()
            .set_index("doc_id")
        )
        # doc 0: 5 words; terminator runs "." and "?!" -> 2; vowel runs
        # h[e]ll[o] w[o]rld h[o]w [a]r[e] [you] -> 2+1+1+2+1 = 7
        assert tuple(out.loc[0]) == (5, 2, 7)
        # "queueing": u-e-u-e-i = one run "ueuei"? q[ueuei]ng -> 1 run
        assert tuple(out.loc[1]) == (1, 0, 1)
        assert tuple(out.loc[2]) == (0, 0, 0)
        # "x y  z...": 3 words, one "..." run, one vowel run (the lone y)
        assert tuple(out.loc[3]) == (3, 1, 1)


class TestColumnOverlap:
    def test_exact_counts(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import column_overlap

        a = pd.DataFrame(
            {
                "x": ["p", "q", "r", "r", None],
                "y": ["1", "2", "3", "4", "4"],
            }
        )
        b = pd.DataFrame(
            {
                "u": ["q", "r", "zz", "zz"],
                "w": ["9", "9", "9", "9"],
            }
        )
        out = column_overlap(
            rd.from_pandas(a).repartition(2),
            rd.from_pandas(b).repartition(2),
            EngineConfig(num_buckets=4),
            cols_a=["x", "y"],
            cols_b=["u", "w"],
        ).to_pandas()
        got = {
            (r["col_a"], r["col_b"]): (r["n_a"], r["n_b"], r["n_both"])
            for _, r in out.iterrows()
        }
        assert got == {
            ("x", "u"): (3, 3, 2),   # q, r shared
            ("x", "w"): (3, 1, 0),
            ("y", "u"): (4, 3, 0),
            ("y", "w"): (4, 1, 0),
        }
        assert len(out) == 4


class TestProximitySearch:
    def test_hand_counts(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import proximity_search

        docs = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "hash join hash x join",   # a@1,3 b@2,5: pairs w<=2:
                                               # (1,2)g1 (3,2)g1 (3,5)g2 -> 3
                    "hash x x x join",         # gap 4 > 2: no pair
                    "join only here",          # no a
                    None,
                ],
            }
        )
        out = (
            proximity_search(
                rd.from_pandas(docs), EngineConfig(num_buckets=4),
                term_a="hash", term_b="join", window=2,
            )
            .to_pandas()
            .set_index("doc_id")
        )
        assert len(out) == 1
        assert tuple(out.loc[0]) == (3, 1)

    def test_validation(self, ray_session):
        import pytest
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import proximity_search

        docs = rd.from_pandas(
            pd.DataFrame({"doc_id": [0], "text": ["x"]})
        )
        with pytest.raises(ValueError):
            proximity_search(
                docs, EngineConfig(num_buckets=4),
                term_a="x", term_b="x",
            )


class TestWeightedMedianByGroup:
    def test_matches_brute_force_and_unweighted_reduction(
        self, ray_session
    ):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import (
            dispersion_by_group,
            weighted_median_by_group,
        )

        rng = np.random.RandomState(23)
        g = rng.choice(["x", "y"], 300)
        v = np.round(rng.lognormal(3, 1, 300), 2)
        w = rng.randint(1, 9, 300)
        df = pd.DataFrame({"grp": g, "price": v, "qty": w.astype(float)})
        out = (
            weighted_median_by_group(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4),
                group_col="grp", value_col="price", weight_col="qty",
            )
            .to_pandas()
            .set_index("grp")
        )
        for grp in ["x", "y"]:
            cents = np.rint(v[g == grp] * 100).astype(np.int64)
            ww = w[g == grp].astype(np.int64)
            expanded = np.sort(np.repeat(cents, ww))
            n = len(expanded)
            if n % 2 == 1:
                m2 = 2 * int(expanded[(n - 1) // 2])
            else:
                m2 = int(expanded[n // 2 - 1]) + int(expanded[n // 2])
            r = out.loc[grp]
            assert r["w_total"] == ww.sum()
            assert r["wmed2"] == m2
        # all-ones weights reduce exactly to dispersion's med2
        ones = df.assign(qty=1.0)
        wm = weighted_median_by_group(
            rd.from_pandas(ones), EngineConfig(num_buckets=4),
            group_col="grp", value_col="price", weight_col="qty",
        ).to_pandas().set_index("grp")
        dm = dispersion_by_group(
            rd.from_pandas(ones), EngineConfig(num_buckets=4),
            group_col="grp", value_col="price",
        ).to_pandas().set_index("grp")
        for grp in ["x", "y"]:
            assert wm.loc[grp, "wmed2"] == dm.loc[grp, "med2"]


class TestDocKeywords:
    def test_matches_brute_force(self, ray_session):
        import math

        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.functions.tokenizer import tokenize_many
        from deepblocker_ray.stages.textstats import doc_keywords

        texts = [
            "apple banana apple cherry",
            "banana banana date",
            "apple egg egg egg fig",
            "",
            None,
        ]
        ids = [f"d{i}" for i in range(len(texts))]
        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": ids, "text": texts})
        ).repartition(2)
        out = (
            doc_keywords(ds, EngineConfig(num_buckets=4), k=2)
            .to_pandas()
        )
        toks = tokenize_many(texts)
        n_docs = len(texts)
        dfc = {}
        for x in toks:
            for tok in set(x):
                dfc[tok] = dfc.get(tok, 0) + 1
        lg_n = int(math.log2(n_docs))
        for i, x in enumerate(toks):
            if not x:
                assert f"d{i}" not in set(out["doc_id"])
                continue
            from collections import Counter

            tf = Counter(x)
            scored = sorted(
                (
                    (-tf[t] * (lg_n - int(math.log2(dfc[t]))), t)
                    for t in tf
                ),
            )[:2]
            rows = out[out.doc_id == f"d{i}"].sort_values("rank")
            assert [
                (r["token"], r["score"]) for _, r in rows.iterrows()
            ] == [(t, -s) for s, t in scored]
            assert rows["rank"].tolist() == list(
                range(1, len(scored) + 1)
            )


class TestTrimmedStats:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import trimmed_stats_by_group

        rng = np.random.RandomState(29)
        g = rng.choice(["x", "y", "z"], 333)
        v = np.round(rng.lognormal(3, 1, 333), 2)
        df = pd.DataFrame({"grp": g, "price": v})
        out = (
            trimmed_stats_by_group(
                rd.from_pandas([p for p in np.array_split(df, 4)]),
                EngineConfig(num_buckets=4),
                group_col="grp", value_col="price", trim_pct=10,
            )
            .to_pandas()
            .set_index("grp")
        )
        for grp in ["x", "y", "z"]:
            cents = np.sort(np.rint(v[g == grp] * 100).astype(np.int64))
            n = len(cents)
            k = n * 10 // 100
            kept = cents[k : n - k]
            r = out.loc[grp]
            assert r["n"] == n
            assert r["n_kept"] == len(kept)
            assert r["sum_kept"] == kept.sum()

    def test_tiny_group_and_zero_trim(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import trimmed_stats_by_group

        df = pd.DataFrame({"grp": ["a"] * 3, "price": [1.0, 2.0, 3.0]})
        out = trimmed_stats_by_group(
            rd.from_pandas(df), EngineConfig(num_buckets=4),
            group_col="grp", value_col="price", trim_pct=10,
        ).to_pandas()
        # k = 3*10//100 = 0: nothing trimmed
        assert tuple(out.iloc[0][["n", "n_kept", "sum_kept"]]) == (
            3, 3, 600,
        )


class TestSourceCosine:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.functions.tokenizer import tokenize_many
        from deepblocker_ray.stages.textstats import source_cosine

        docs = pd.DataFrame(
            {
                "source": ["s1", "s1", "s2", "s3", "s3", "s2"],
                "text": [
                    "a b a",
                    "b c",
                    "a a a",
                    "zz zz",
                    None,
                    "",
                ],
            }
        )
        out = source_cosine(
            rd.from_pandas(docs).repartition(2),
            EngineConfig(num_buckets=4),
        ).to_pandas()
        from collections import Counter

        vecs = {}
        for s, txt in zip(docs["source"], docs["text"]):
            vecs.setdefault(s, Counter()).update(
                tokenize_many([txt])[0]
            )
        got = {
            (r["source_a"], r["source_b"]): (
                r["dot"], r["norm2_a"], r["norm2_b"]
            )
            for _, r in out.iterrows()
        }
        srcs = sorted(vecs)
        for i, a in enumerate(srcs):
            for b in srcs[i + 1 :]:
                dot = sum(
                    vecs[a][t] * vecs[b][t] for t in vecs[a]
                )
                na = sum(v * v for v in vecs[a].values())
                nb = sum(v * v for v in vecs[b].values())
                assert got[(a, b)] == (dot, na, nb)
        # s1·s2: a appears 2× in s1 and 3× in s2 -> dot 6
        assert got[("s1", "s2")][0] == 6
        assert got[("s1", "s3")][0] == 0


class TestTokenBurstiness:
    def test_hand_counts(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import token_burstiness

        texts = ["a a a b", "a b", "a", "b a", "c c", "a b"]
        out = (
            token_burstiness(
                rd.from_pandas(pd.DataFrame({"text": texts})).repartition(
                    3
                ),
                EngineConfig(num_buckets=4), min_docs=4,
            )
            .to_pandas()
            .set_index("token")
        )
        # a: docs 0,1,2,3,5 tf (3,1,1,1,1) -> n=5 sum=7 sum2=13
        assert tuple(out.loc["a"]) == (5, 7, 13)
        # b in 4 docs (tf 1 each); c in only 1 doc -> filtered
        assert tuple(out.loc["b"]) == (4, 4, 4)
        assert "c" not in out.index


class TestFdDiscovery:
    def test_hand_built_dependencies(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import fd_discovery

        df = pd.DataFrame(
            {
                "id": ["1", "2", "3", "4"],          # unique
                "grp": ["a", "a", "b", "b"],
                "val": ["x", "x", "y", None],        # grp b -> {y, null}
            }
        )
        out = fd_discovery(
            rd.from_pandas(df).repartition(2),
            EngineConfig(num_buckets=4),
            columns=["id", "grp", "val"],
        ).to_pandas()
        got = {
            (r["lhs"], r["rhs"]): (r["n_lhs"], r["n_violating"])
            for _, r in out.iterrows()
        }
        assert got[("id", "grp")] == (4, 0)    # key -> anything holds
        assert got[("id", "val")] == (4, 0)
        assert got[("grp", "id")] == (2, 2)    # both groups split
        assert got[("grp", "val")] == (2, 1)   # only b violates
        assert got[("val", "grp")] == (3, 0)   # x->a, y->b, null->b
        assert len(got) == 6

    def test_column_validation(self):
        import pytest as _pt

        from deepblocker_ray.stages.profile import fd_discovery

        with _pt.raises(ValueError):
            fd_discovery(None, columns=["only_one"])


class TestSpearmanByGroup:
    def test_matches_scipy_free_brute_force(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import spearman_by_group

        rng = np.random.RandomState(41)
        g = rng.choice(["p", "q"], 250)
        x = rng.randint(1, 20, 250).astype(float)   # heavy ties
        y = np.round(x * 3 + rng.normal(0, 5, 250), 2)
        df = pd.DataFrame({"grp": g, "xv": x, "yv": y})
        out = (
            spearman_by_group(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4),
                group_col="grp", x_col="xv", y_col="yv",
                x_scale=1, y_scale=100,
            )
            .to_pandas()
            .set_index("grp")
        )

        def rank2(v):
            import collections

            cnt = collections.Counter(v)
            vals = sorted(cnt)
            below, acc = {}, 0
            for u in vals:
                below[u] = acc
                acc += cnt[u]
            return (
                np.array([2 * below[u] + cnt[u] + 1 for u in v]),
                sum(c**3 - c for c in cnt.values()),
            )

        for grp in ["p", "q"]:
            xv = np.rint(x[g == grp]).astype(np.int64)
            yv = np.rint(y[g == grp] * 100).astype(np.int64)
            rx, tx = rank2(xv)
            ry, ty = rank2(yv)
            d2 = int(((rx - ry) ** 2).sum())
            r = out.loc[grp]
            assert r["n"] == len(xv)
            assert r["d2"] == d2
            assert r["tie_x"] == tx
            assert r["tie_y"] == ty
        # sanity: strong positive association -> d2 far below the
        # independence expectation n(n^2-1)*... just check ordering vs a
        # shuffled control
        xs = x.copy()
        rng.shuffle(xs)
        ctrl = spearman_by_group(
            rd.from_pandas(pd.DataFrame({"grp": g, "xv": xs, "yv": y})),
            EngineConfig(num_buckets=4),
            group_col="grp", x_col="xv", y_col="yv",
        ).to_pandas().set_index("grp")
        assert (out["d2"] < ctrl["d2"]).all()


class TestVocabGrowth:
    def test_first_occurrence_buckets(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import vocab_growth

        df = pd.DataFrame(
            {
                "doc_id": np.arange(6, dtype=np.int64),
                "text": [
                    "a b",        # bucket 0: a, b
                    "a c",        # bucket 0: c
                    "a b c",      # nothing new
                    "d",          # bucket 1: d
                    "e d",        # bucket 2: e
                    "a e",        # nothing new
                ],
            }
        )
        out = (
            vocab_growth(
                rd.from_pandas(df).repartition(3),
                EngineConfig(num_buckets=4), bucket_width=2,
            )
            .to_pandas()
            .set_index("bucket")
        )
        assert dict(out["n_new_tokens"]) == {0: 3, 1: 1, 2: 1}


class TestMadOutliers:
    def test_fence_and_groups(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import mad_outliers

        # group g: tight cluster around 10.00 plus two wild values
        vals = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 50.0, -30.0]
        df = pd.DataFrame(
            {
                "rid": np.arange(len(vals), dtype=np.int64),
                "grp": ["g"] * len(vals),
                "val": vals,
            }
        )
        out = mad_outliers(
            rd.from_pandas(df).repartition(2),
            EngineConfig(num_buckets=4),
            group_col="grp", value_col="val", id_col="rid", k_halves=7,
        ).to_pandas()
        assert set(out["rid"]) == {6, 7}
        assert set(out["cents"]) == {5000, -3000}


class TestColumnEntropy:
    def test_hand_computed_bits(self, ray_session):
        import math

        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import column_entropy

        df = pd.DataFrame(
            {
                "uniform": ["a", "b", "c", "d", "e", "f", "g", "h"],
                "skew": ["x"] * 7 + ["y"],
                "const": ["k"] * 8,
                "withnull": ["p", "q", None, None, "p", "p", "q", "p"],
            }
        )
        out = (
            column_entropy(
                rd.from_pandas(df).repartition(3),
                EngineConfig(num_buckets=4),
                columns=["uniform", "skew", "const", "withnull"],
            )
            .to_pandas()
            .set_index("column")
        )

        def bits(counts):
            n = sum(counts)
            lg = lambda c: int(math.log2(c))
            return sum(c * (lg(n) - lg(c)) for c in counts)

        assert tuple(out.loc["uniform"]) == (8, 8, bits([1] * 8))  # 24
        assert tuple(out.loc["skew"]) == (8, 2, bits([7, 1]))
        assert tuple(out.loc["const"]) == (8, 1, 0)
        assert tuple(out.loc["withnull"]) == (6, 2, bits([4, 2]))


class TestTailRisk:
    def test_matches_brute_force_and_tie_rule(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import tail_risk_by_group

        rng = np.random.RandomState(43)
        g = rng.choice(["x", "y"], 200)
        v = np.round(rng.lognormal(3, 1, 200), 2)
        # plant duplicated values straddling the cut
        v[:30] = 99.99
        df = pd.DataFrame({"grp": g, "price": v})
        out = (
            tail_risk_by_group(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4),
                group_col="grp", value_col="price", tail_pct=5,
            )
            .to_pandas()
            .set_index("grp")
        )
        for grp in ["x", "y"]:
            cents = np.sort(
                np.rint(v[g == grp] * 100).astype(np.int64)
            )[::-1]
            n = len(cents)
            k = -(-n * 5 // 100)
            r = out.loc[grp]
            assert r["n"] == n
            assert r["n_tail"] == k
            assert r["sum_tail"] == cents[:k].sum()


class TestJoinSkew:
    def test_two_sided_counts_and_ranking(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import join_skew

        left = pd.DataFrame({"k": ["a"] * 5 + ["b"] * 2 + ["c"]})
        right = pd.DataFrame({"j": ["a"] * 3 + ["b"] * 4 + ["d"]})
        out = join_skew(
            rd.from_pandas(left).repartition(2),
            rd.from_pandas(right).repartition(2),
            EngineConfig(num_buckets=4),
            left_key="k", right_key="j", k_top=5,
        ).to_pandas()
        got = list(
            map(tuple, out[["key", "n_left", "n_right",
                            "contribution"]].to_numpy())
        )
        # a: 5*3=15, b: 2*4=8; c and d miss one side -> excluded
        assert got == [("a", 5, 3, 15), ("b", 2, 4, 8)]


class TestPrivacyAudits:
    def test_k_anonymity_hand_built(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import k_anonymity

        df = pd.DataFrame(
            {
                "zip": ["11", "11", "11", "22", "22", "33", None],
                "age": ["a", "a", "a", "b", "b", "c", "c"],
            }
        )
        out = k_anonymity(
            rd.from_pandas(df).repartition(3),
            EngineConfig(num_buckets=4),
            columns=["zip", "age"], k=3,
        ).to_pandas()
        # classes: (11,a):3  (22,b):2  (33,c):1  (null,c):1
        assert tuple(out.iloc[0]) == (7, 4, 3, 4)

    def test_l_diversity_hand_built(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import l_diversity

        df = pd.DataFrame(
            {
                "qi": ["x", "x", "x", "y", "y", "z"],
                "dx": ["flu", "flu", "flu", "flu", "cold", "hiv"],
            }
        )
        out = l_diversity(
            rd.from_pandas(df).repartition(2),
            EngineConfig(num_buckets=4),
            qi_columns=["qi"], sensitive_col="dx", l=2,
        ).to_pandas()
        # x: 3 rows all 'flu' -> low; y: 2 distinct -> fine; z: 1 -> low
        assert tuple(out.iloc[0]) == (3, 2, 4)

    def test_null_first_quasi_identifier_classes_stay_apart(
        self, ray_session
    ):
        """(null, p) and (null, q) are two classes. A null-sentinel tuple
        key grouped in pandas merged every tuple whose first column is
        null (keys that agree up to a "\x00" group as one)."""
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import k_anonymity, l_diversity

        df = pd.DataFrame(
            {"a": [None, None, "x", "y"], "b": ["p", "q", "p", "q"],
             "s": ["s1", "s2", "s3", "s4"]}
        )
        cfg = EngineConfig(num_buckets=4)
        ka = k_anonymity(
            rd.from_pandas(df), cfg, columns=["a", "b"], k=2
        ).to_pandas()
        assert tuple(ka.iloc[0]) == (4, 4, 4, 4)
        ld = l_diversity(
            rd.from_pandas(df), cfg, qi_columns=["a", "b"],
            sensitive_col="s", l=2,
        ).to_pandas()
        assert tuple(ld.iloc[0]) == (4, 4, 4)


class TestQuantileMap:
    def test_rank_preserving_map(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import quantile_map

        # A: 1,2,3,4 ; B: 10,20,30,40,50,60,70,80 (n_b = 2*n_a)
        df = pd.DataFrame(
            {
                "grp": ["a"] * 4 + ["b"] * 8,
                "val": [0.01, 0.02, 0.03, 0.04]
                + [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80],
            }
        )
        out = (
            quantile_map(
                rd.from_pandas(df).repartition(3),
                EngineConfig(num_buckets=4),
                group_col="grp", value_col="val",
                from_group="a", to_group="b",
            )
            .to_pandas()
            .set_index("cents_from")
        )
        # rank r of 4 -> target ceil(r*8/4) = 2r -> B's 2r-th smallest
        assert dict(out["cents_to"]) == {1: 20, 2: 40, 3: 60, 4: 80}

    def test_duplicates_and_identity(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import quantile_map

        df = pd.DataFrame(
            {
                "grp": ["a"] * 4 + ["b"] * 4,
                "val": [0.05, 0.05, 0.07, 0.09] * 2,
            }
        )
        out = quantile_map(
            rd.from_pandas(df), EngineConfig(num_buckets=4),
            group_col="grp", value_col="val",
            from_group="a", to_group="b",
        ).to_pandas().set_index("cents_from")
        # identical distributions map to themselves
        assert dict(out["cents_to"]) == {5: 5, 7: 7, 9: 9}


class TestPairLift:
    def test_counts_and_marginals(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import pair_lift

        texts = ["a b", "a b", "a b c", "a c", "b", None]
        out = (
            pair_lift(
                rd.from_pandas(pd.DataFrame({"text": texts})).repartition(
                    3
                ),
                EngineConfig(num_buckets=4), min_count=2,
            )
            .to_pandas()
        )
        got = {
            (r["token_a"], r["token_b"]): (
                r["n_both"], r["n_a"], r["n_b"], r["n_docs"]
            )
            for _, r in out.iterrows()
        }
        # (a,b) co-docs 3; (a,c) 2; (b,c) only 1 -> filtered
        assert got == {
            ("a", "b"): (3, 4, 4, 6),
            ("a", "c"): (2, 4, 2, 6),
        }


class TestOrderBalanceAndTv:
    def test_order_balance_hand_built(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import order_balance

        orders = pd.DataFrame(
            {
                "o_orderkey": np.array([1, 2, 3, 9], np.int64),
                "o_totalprice": [10.0, 20.0, 5.0, 7.0],  # 9 has no lines
            }
        )
        lines = pd.DataFrame(
            {
                "l_orderkey": np.array([1, 1, 2, 3], np.int64),
                "l_extendedprice": [4.0, 5.0, 20.0, 6.0],
            }
        )
        out = order_balance(
            rd.from_pandas(orders).repartition(2),
            rd.from_pandas(lines).repartition(2),
            EngineConfig(num_buckets=4), k_top=10,
        ).to_pandas()
        got = list(
            map(tuple, out[["o_orderkey", "n_lines", "header_cents",
                            "lines_cents", "diff"]].to_numpy())
        )
        # |diff|: order1 100, order3 -100 (tie -> key asc), order2 0
        assert got == [
            (1, 2, 1000, 900, 100),
            (3, 1, 500, 600, -100),
            (2, 1, 2000, 2000, 0),
        ]

    def test_tv_distance_identical_and_disjoint(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.relational import tv_distance

        same = pd.DataFrame(
            {
                "grp": ["a"] * 3 + ["b"] * 3,
                "val": [1.0, 2.0, 3.0] * 2,
            }
        )
        out = tv_distance(
            rd.from_pandas(same), EngineConfig(num_buckets=4),
            group_col="grp", value_col="val",
            group_a="a", group_b="b",
        ).to_pandas()
        assert tuple(out.iloc[0]) == (3, 3, 0)
        disjoint = pd.DataFrame(
            {
                "grp": ["a"] * 2 + ["b"] * 3,
                "val": [1.0, 2.0, 7.0, 8.0, 9.0],
            }
        )
        out2 = tv_distance(
            rd.from_pandas(disjoint), EngineConfig(num_buckets=4),
            group_col="grp", value_col="val",
            group_a="a", group_b="b",
        ).to_pandas()
        # tv_num = sum over a-values c_a*n_b + b-values c_b*n_a
        #        = 2*3 + 3*2 = 12 -> TV = 12/(2*2*3) = 1
        assert tuple(out2.iloc[0]) == (2, 3, 12)


class TestTokenLangAffinity:
    def test_doc_level_counts_and_marginals(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.textstats import token_lang_affinity

        docs = pd.DataFrame(
            {
                "text": ["a b", "a a b", "a", "b", "c"],
                "lang": ["en", "en", "es", "es", "en"],
            }
        )
        out = token_lang_affinity(
            rd.from_pandas(docs).repartition(2),
            EngineConfig(num_buckets=4), min_count=2,
        ).to_pandas()
        got = {
            (r["token"], r["lang"]): (
                r["n_both"], r["n_tok"], r["n_lang"], r["n_docs"]
            )
            for _, r in out.iterrows()
        }
        # a: en docs 2, es 1 (filtered <2); b: en 2, es 1 (filtered);
        # n_tok counts docs across ALL langs = 3 for both
        assert got == {
            ("a", "en"): (2, 3, 3, 5),
            ("b", "en"): (2, 3, 3, 5),
        }


class TestSequenceAndEmbeddingAudits:
    def test_seq_gap_summary(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import sequence_gap_audit

        df = pd.DataFrame(
            {
                "g": np.array([1, 1, 1, 2, 2, 3, 3, 4], np.int64),
                "s": np.array([1, 2, 3, 1, 3, 1, 1, 2], np.int64),
                # g1 clean; g2 gap (max 3, n 2); g3 dup; g4 starts at 2
            }
        )
        out = sequence_gap_audit(
            rd.from_pandas(df).repartition(3),
            EngineConfig(num_buckets=4),
            group_col="g", seq_col="s",
        ).to_pandas()
        assert tuple(out.iloc[0]) == (4, 3, 8)

    def test_embedding_audit_zero_vec(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.profile import embedding_audit

        df = pd.DataFrame(
            {
                "embedding": [
                    [1.0, 0.0],
                    [0.0, 0.0],
                    [0.5, -0.5],
                ]
            }
        )
        out = embedding_audit(
            rd.from_pandas(df).repartition(2),
            EngineConfig(num_buckets=4),
        ).to_pandas()
        # norms: 1e8, 0, 2*25e6 = 5e7
        assert tuple(out.iloc[0]) == (3, 1, 0, 100_000_000)
