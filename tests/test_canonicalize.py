"""Canonicalize stage: stable turn ordering, null handling, SQL conformance.

Pins the per-row invariant from BASELINE.json input_hint: per-turn text
equality under stable turn ordering.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from deepblocker_ray.config import EngineConfig
from deepblocker_ray.fixtures import (
    synth_transcripts,
    transcripts_from_documents_pandas,
    transcripts_from_documents_sql,
)
from deepblocker_ray.stages.canonicalize import canonicalize

CFG = EngineConfig(num_buckets=8)


def expected_canonical(df: pd.DataFrame) -> pd.DataFrame:
    """Driver-side oracle: sort by turn_idx per conv, join fragments."""
    rows = []
    for conv_id, g in df.groupby("conv_id"):
        g = g.sort_values("turn_idx")
        frags = []
        texts = []
        for _, r in g.iterrows():
            text = " " if pd.isna(r["text"]) else str(r["text"])
            frag = f"{r['role']}: {text}"
            if pd.notna(r["tool"]):
                frag += f" [{r['tool']}]"
            frags.append(frag)
            texts.append(text)
        rows.append((conv_id, " ".join(frags), len(g), texts))
    return pd.DataFrame(
        rows, columns=["conv_id", "tuple_text", "n_turns", "turn_texts"]
    )


class TestCanonicalize:
    def test_invariant_on_shuffled_synth(self, ray_session):
        import ray.data as rd

        df, _ = synth_transcripts(n_base=60, seed=7)
        ds = rd.from_pandas(df)
        out = canonicalize(ds, CFG).to_pandas().sort_values("conv_id")
        exp = expected_canonical(df).sort_values("conv_id")
        assert list(out["conv_id"]) == list(exp["conv_id"])
        assert list(out["tuple_text"]) == list(exp["tuple_text"])
        assert list(out["n_turns"]) == list(exp["n_turns"])
        for got, want in zip(out["turn_texts"], exp["turn_texts"]):
            assert list(got) == want

    def test_null_text_and_tool(self, ray_session):
        import ray.data as rd

        df = pd.DataFrame(
            {
                "conv_id": pd.array(["c1", "c1", "c1"], dtype="string"),
                "turn_idx": np.array([2, 0, 1], np.int32),
                "role": pd.array(["user", "user", "assistant"], dtype="string"),
                "text": pd.array(["end", None, "mid"], dtype="string"),
                "tool": pd.array([None, "search", None], dtype="string"),
                "ts": np.array(["2024-01-01"] * 3, dtype="datetime64[us]"),
            }
        )
        out = canonicalize(rd.from_pandas(df), CFG).to_pandas()
        assert out.loc[0, "tuple_text"] == "user:   [search] assistant: mid user: end"
        assert list(out.loc[0, "turn_texts"]) == [" ", "mid", "end"]

    def test_duplicate_turn_idx_rejected(self, ray_session):
        import ray.data as rd

        df = pd.DataFrame(
            {
                "conv_id": pd.array(["c1", "c1"], dtype="string"),
                "turn_idx": np.array([0, 0], np.int32),
                "role": pd.array(["user", "user"], dtype="string"),
                "text": pd.array(["a", "b"], dtype="string"),
                "tool": pd.array([None, None], dtype="string"),
                "ts": np.array(["2024-01-01"] * 2, dtype="datetime64[us]"),
            }
        )
        with pytest.raises(Exception):
            canonicalize(rd.from_pandas(df), CFG).materialize()

    def test_turn_cap(self, ray_session):
        import ray.data as rd

        df, _ = synth_transcripts(n_base=20, seed=3)
        out = canonicalize(rd.from_pandas(df), CFG, turn_cap=4).to_pandas()
        assert (out["n_turns"] <= 4).all()
        full = expected_canonical(df)
        want_trunc = set(full.loc[full["n_turns"] > 4, "conv_id"])
        got_trunc = set(out.loc[out["truncated"], "conv_id"])
        assert got_trunc == want_trunc


class TestBucketOf:
    """Keys that share a prefix up to a ``"\x00"`` — every composite
    ``a + "\x00" + b`` exchange key — must bucket by value, not by which
    other keys ride in the same batch."""

    def test_mixed_batch_equals_single_keys(self):
        from deepblocker_ray.stages.canonicalize import bucket_of

        keys = ["a\x00z", "a\x00x", "a", "b\x00x", "a\x00", "plain"]
        got = bucket_of(np.array(keys, dtype=object), 128)
        one = [int(bucket_of(np.array([k], dtype=object), 128)[0]) for k in keys]
        assert got.tolist() == one

    def test_normalize_pairs_dedups_across_blocks(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.pipelines.evaluate import normalize_pairs

        # ("a", "x") in two blocks; in the first it shares a batch with
        # ("a", "z"), whose key agrees with it up to the NUL separator.
        # Filler makes each block its own batch.
        def block(pairs, tag):
            fill = [(f"{tag}{i}", f"{tag}{i}y") for i in range(1100)]
            left, right = zip(*(pairs + fill))
            return pd.DataFrame({"left_id": left, "right_id": right})

        ds = rd.from_pandas(
            [block([("a", "z"), ("a", "x")], "f"), block([("x", "a")], "g")]
        )
        out = normalize_pairs(ds).to_pandas()
        ax = out[(out["ltable_id"] == "a") & (out["rtable_id"] == "x")]
        assert len(ax) == 1
        assert not out.duplicated().any()
        assert len(out) == 2 + 2 * 1100


class TestExchange:
    """``exchange`` hands every row of a key value to one call of ``fn``."""

    @staticmethod
    def per_call_sums():
        """Per-key sums, tagged with an id unique to the call (a closure,
        so Ray workers unpickle it without importing this module)."""

        def fn(df: pd.DataFrame) -> pd.DataFrame:
            import uuid

            out = df.groupby("k", as_index=False)["v"].sum()
            return out.assign(call=uuid.uuid4().hex)

        return fn

    def test_each_key_in_one_call(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.stages.canonicalize import exchange

        rng = np.random.default_rng(3)
        blocks = [
            pd.DataFrame(
                {
                    "k": [f"k{i:02d}" for i in rng.integers(0, 30, 60)],
                    "v": rng.integers(0, 100, 60),
                }
            )
            for _ in range(10)
        ]
        ds = rd.from_pandas(blocks)
        assert ds.num_blocks() >= 8
        blocks_per_key = pd.concat(
            [b.drop_duplicates("k").assign(b=i) for i, b in enumerate(blocks)]
        ).groupby("k").size()
        assert (blocks_per_key > 1).all()

        out = exchange(ds, "k", self.per_call_sums(), "pandas").to_pandas()
        assert out.groupby("k")["call"].nunique().eq(1).all()
        assert out["call"].nunique() > 1
        got = out.groupby("k")["v"].sum().sort_index()
        want = pd.concat(blocks).groupby("k")["v"].sum().sort_index()
        pd.testing.assert_series_equal(got, want, check_dtype=False)
        assert not out["k"].duplicated().any()

    def test_empty_dataset(self, ray_session):
        import ray.data as rd

        from deepblocker_ray.stages.canonicalize import exchange

        ds = rd.from_pandas(
            pd.DataFrame({"k": pd.Series([], dtype=object),
                          "v": pd.Series([], dtype=np.int64)})
        )
        assert exchange(ds, "k", self.per_call_sums(), "pandas").count() == 0


class TestExchangeJoin:
    """``exchange_join`` equals pandas ``merge`` / ``isin`` for every join
    type, whatever the block layout of either side."""

    L_SCHEMA = pa.schema([("k", pa.string()), ("x", pa.int64())])
    R_SCHEMA = pa.schema([("k", pa.string()), ("y", pa.float64())])

    @staticmethod
    def expected(left: pd.DataFrame, right: pd.DataFrame, how: str):
        if how == "left semi":
            return left[left["k"].isin(right["k"])]
        if how == "left anti":
            return left[~left["k"].isin(right["k"])]
        return left.merge(
            right, on="k", how="inner" if how == "inner" else "left"
        )

    @staticmethod
    def canon(df: pd.DataFrame) -> pd.DataFrame:
        cols = sorted(df.columns)
        return (
            df[cols].astype(str).sort_values(cols).reset_index(drop=True)
        )

    def joined(self, l_blocks, r_blocks, how):
        import ray.data as rd

        from deepblocker_ray.stages.canonicalize import exchange_join

        def ds(blocks, schema):
            return rd.from_arrow(
                [
                    pa.Table.from_pandas(b, schema=schema, preserve_index=False)
                    for b in blocks
                ]
            )

        out = exchange_join(
            ds(l_blocks, self.L_SCHEMA), ds(r_blocks, self.R_SCHEMA), "k", how
        )
        names = out.schema().names
        got = out.to_pandas()
        return got if len(got) else pd.DataFrame(columns=names)

    def check(self, l_blocks, r_blocks, how):
        got = self.joined(l_blocks, r_blocks, how)
        want = self.expected(pd.concat(l_blocks), pd.concat(r_blocks), how)
        assert list(got.columns) == list(want.columns)
        pd.testing.assert_frame_equal(self.canon(got), self.canon(want))
        return got

    @pytest.mark.parametrize(
        "how", ["inner", "left outer", "left semi", "left anti"]
    )
    def test_matches_pandas_over_many_blocks(self, ray_session, how):
        rng = np.random.default_rng(11)

        def block(col, n, lo):
            return pd.DataFrame(
                {
                    "k": [f"k{i:03d}" for i in rng.integers(lo, 120, n)],
                    col: rng.integers(0, 1000, n),
                }
            )

        l_blocks = [block("x", 40, 0) for _ in range(10)]
        # right keys repeat within and across its 8 blocks, and start at
        # k030, so some left keys have no match
        r_blocks = [
            block("y", 25, 30).astype({"y": np.float64}) for _ in range(8)
        ]
        assert pd.concat(r_blocks)["k"].duplicated().any()
        got = self.check(l_blocks, r_blocks, how)
        n_left = sum(len(b) for b in l_blocks)
        if how in ("left semi", "left anti"):
            assert len(got) < n_left  # existence only: no duplication
        elif how == "left outer":
            assert len(got) > n_left  # duplicate right keys multiply

    @pytest.mark.parametrize(
        "how", ["inner", "left outer", "left semi", "left anti"]
    )
    def test_empty_sides(self, ray_session, how):
        left = pd.DataFrame({"k": ["a", "b"], "x": [1, 2]})
        right = pd.DataFrame({"k": ["a"], "y": [1.0]})
        self.check([left.head(0)], [right], how)
        got = self.check([left], [right.head(0)], how)
        assert len(got) == (2 if how in ("left outer", "left anti") else 0)

    @pytest.mark.parametrize(
        "how", ["inner", "left outer", "left semi", "left anti"]
    )
    def test_nul_keys_stay_apart(self, ray_session, how):
        left = pd.DataFrame({"k": ["a\x00x", "a\x00z", "a"], "x": [1, 2, 3]})
        right = pd.DataFrame({"k": ["a\x00x", "a\x00x"], "y": [1.0, 2.0]})
        got = self.check([left], [right], how)
        matched = {"inner": ["a\x00x"] * 2, "left semi": ["a\x00x"],
                   "left anti": ["a", "a\x00z"],
                   "left outer": ["a", "a\x00x", "a\x00x", "a\x00z"]}
        assert sorted(got["k"]) == matched[how]

    @pytest.mark.parametrize(
        "how", ["inner", "left outer", "left semi", "left anti"]
    )
    def test_null_keys_never_match(self, ray_session, how):
        """A sort cannot order null keys; they never match, and unmatched
        left rows with one still come out (left outer, left anti)."""
        left = pd.DataFrame({"k": ["a", None, "b", None], "x": [1, 2, 3, 4]})
        right = pd.DataFrame({"k": ["a", None], "y": [1.0, 2.0]})
        got = self.joined([left.head(2), left.tail(2)], [right], how)
        want = {"inner": [1], "left semi": [1], "left anti": [2, 3, 4],
                "left outer": [1, 2, 3, 4]}
        assert sorted(got["x"]) == want[how]
        kept_null = 2 if how in ("left outer", "left anti") else 0
        assert got["k"].isna().sum() == kept_null

    @pytest.mark.parametrize(
        "how", ["inner", "left outer", "left semi", "left anti"]
    )
    def test_empty_pandas_block_keeps_values_exact(self, ray_session, how):
        """An empty pandas block on one side sends Ray's sort merge through
        pandas; int64 values above 2**53 and the column types still come
        out exact."""
        import ray.data as rd

        from deepblocker_ray.stages.canonicalize import exchange_join

        big = 2**62
        left = pd.DataFrame(
            {"k": ["a", "b", "c"], "h": [big + 1, big + 3, -big - 5]}
        )
        right = pd.DataFrame({"k": ["a", "c", "c"], "y": [big + 7, 1, 2]})
        out = exchange_join(
            rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False)),
            rd.from_pandas([right.head(0), right]), "k", how,
        )
        assert out.schema().base_schema.field("h").type == pa.int64()
        got = out.to_pandas()
        want = self.expected(left, right, how)
        pd.testing.assert_frame_equal(self.canon(got), self.canon(want))


ONE_CPU_FALLBACKS = r"""
import pandas as pd
import ray
import ray.data as rd

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
from deepblocker_ray.config import EngineConfig
from deepblocker_ray.fixtures import synth_transcripts
from deepblocker_ray.pipelines.linkage import link_transcripts
from deepblocker_ray.stages.cluster import graph_modularity


def frame(ds):
    df = ds.to_pandas()
    return df.sort_values(sorted(df.columns)).reset_index(drop=True)


def modularity(cap):
    edges = pd.DataFrame({"left_id": ["a", "b", "c"],
                          "right_id": ["b", "c", "d"]})
    labels = pd.DataFrame({"doc_id": ["a", "b", "c", "d"],
                           "cluster_id": ["A", "A", "C", "C"]})
    return frame(graph_modularity(
        rd.from_pandas(edges), rd.from_pandas(labels),
        EngineConfig(broadcast_rows_max=cap)))


def link(df, cap):
    out = link_transcripts(rd.from_pandas(df),
                           EngineConfig(broadcast_rows_max=cap))
    return frame(out["matches"]), frame(out["clusters"])


pd.testing.assert_frame_equal(modularity(0), modularity(2_000_000))
df, _ = synth_transcripts(n_base=150, seed=3)
assert df["conv_id"].nunique() >= 200
(m0, c0), (m1, c1) = link(df, 0), link(df, 2_000_000)
pd.testing.assert_frame_equal(m0, m1)
pd.testing.assert_frame_equal(c0, c1)
assert len(m0) > 0 and len(c0) == df["conv_id"].nunique()
ray.shutdown()
print("FALLBACKS_OK")
"""


def test_join_fallbacks_finish_on_one_cpu():
    """Every join fallback (``broadcast_rows_max=0``) finishes on a 1-CPU
    session and equals the broadcast path: ``graph_modularity`` on 3 edges
    and a ~220-conversation ``link_transcripts``, in a fresh process with
    its own ``ray.init(num_cpus=1)``. Ray's ``Dataset.join`` schedules
    hash-shuffle aggregator actors, which a 1-CPU session could not all
    place, and hung here."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo, RAY_GRAFT_CPUS="1")
    r = subprocess.run(
        [sys.executable, "-c", ONE_CPU_FALLBACKS],
        cwd=repo, env=env, capture_output=True, text=True, timeout=180,
    )
    assert r.returncode == 0, r.stderr[-3000:]
    assert "FALLBACKS_OK" in r.stdout


class TestDocumentDerivedTranscripts:
    def test_pandas_matches_sql(self):
        """The python generator and its DuckDB twin must agree byte-exact —
        this is what lets the driver oracle-check canonicalize."""
        con = duckdb.connect()
        docs = con.execute(
            "SELECT * FROM read_parquet('/root/testdata/sf0.001/documents.parquet')"
        ).df()
        con.register("documents", docs)
        got = (
            con.execute(transcripts_from_documents_sql())
            .df()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        exp = (
            transcripts_from_documents_pandas(docs)[
                ["conv_id", "turn_idx", "role", "text"]
            ]
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        assert len(got) == len(exp)
        assert list(got["conv_id"]) == list(exp["conv_id"])
        assert list(got["turn_idx"].astype(int)) == list(exp["turn_idx"].astype(int))
        assert list(got["role"]) == list(exp["role"])
        assert list(got["text"]) == list(exp["text"])


class TestConversationStats:
    def test_cross_batch_role_mix_and_tokens(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.canonicalize import conversation_stats

        df = pd.DataFrame(
            {
                "conv_id": ["c1", "c1", "c1", "c2", "c2"],
                "turn_idx": np.array([0, 1, 2, 0, 1], np.int32),
                "role": ["user", "assistant", "tool", "user", "assistant"],
                "text": ["hello there", "hi", None, "a b  c", ""],
            }
        )
        out = (
            conversation_stats(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4),
            )
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        assert list(map(tuple, out.to_numpy())) == [
            ("c1", 3, 1, 1, 3),   # tool role counted in turns only
            ("c2", 2, 1, 1, 3),   # double space = still 3 tokens
        ]


class TestTailTurns:
    def test_last_k_per_conversation(self, ray_session):
        import numpy as np
        import pandas as pd
        import pytest as _pt
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.canonicalize import tail_turns

        df = pd.DataFrame(
            {
                "conv_id": ["a"] * 5 + ["b"] * 2 + ["c"],
                "turn_idx": np.array([0, 1, 2, 3, 4, 0, 1, 7], np.int32),
                "role": ["user"] * 8,
                "text": [f"t{i}" for i in range(8)],
            }
        )
        out = (
            tail_turns(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4), k=3,
            )
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        # a: turns 2,3,4; b: both (fewer than k); c: its single turn
        assert list(zip(out["conv_id"], out["turn_idx"])) == [
            ("a", 2), ("a", 3), ("a", 4), ("b", 0), ("b", 1), ("c", 7)
        ]
        with _pt.raises(ValueError):
            tail_turns(None, EngineConfig(), k=0)


class TestTurnWindows:
    def test_adjacency_gaps_and_short(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.canonicalize import turn_windows

        df = pd.DataFrame(
            {
                "conv_id": ["a"] * 4 + ["b"] * 3 + ["c"] * 2,
                # conv b has a GAP (0,1,3): no window crosses it
                "turn_idx": np.array([0, 1, 2, 3, 0, 1, 3, 0, 1], np.int32),
                "text": ["a0", "a1", None, "a3", "b0", "b1", "b3",
                         "c0", "c1"],
            }
        )
        out = (
            turn_windows(
                rd.from_pandas([p for p in np.array_split(df, 3)]),
                EngineConfig(num_buckets=4), k=3,
            )
            .to_pandas()
            .sort_values(["conv_id", "start_idx"])
            .reset_index(drop=True)
        )
        # a: windows at 0 (a0 a1 '') and 1 (a1 '' a3); b: gap kills all;
        # c: too short
        assert list(map(tuple, out.to_numpy())) == [
            ("a", 0, "a0 a1 "),
            ("a", 1, "a1  a3"),
        ]


class TestRoleAlternationAudit:
    def test_planted_violations(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.canonicalize import role_alternation_audit

        tr = rd.from_pandas(
            pd.DataFrame(
                {
                    "conv_id": ["a"] * 4 + ["b"] * 3 + ["c"],
                    "turn_idx": [0, 1, 2, 3, 0, 1, 2, 0],
                    "role": [
                        "user", "assistant", "assistant", "assistant",  # 2 viol
                        "assistant", "user", "assistant",               # clean
                        None,                                           # single
                    ],
                }
            )
        ).repartition(3)
        out = (
            role_alternation_audit(tr, EngineConfig(num_buckets=4))
            .to_pandas().set_index("conv_id").sort_index()
        )
        assert out.loc["a", "n_same_role_adjacent"] == 2
        assert not out.loc["a", "alternates"]
        assert out.loc["a", "first_role"] == "user"
        assert out.loc["b", "n_same_role_adjacent"] == 0
        assert out.loc["b", "alternates"]
        assert out.loc["b", "first_role"] == "assistant"
        assert out.loc["c", "n_turns"] == 1 and out.loc["c", "alternates"]
        assert out.loc["c", "first_role"] == ""   # NULL role → ''

    def test_adjacent_nulls_violate(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.canonicalize import role_alternation_audit

        tr = rd.from_pandas(
            pd.DataFrame(
                {
                    "conv_id": ["x", "x"],
                    "turn_idx": [0, 1],
                    "role": [None, None],
                }
            )
        )
        out = role_alternation_audit(tr, EngineConfig(num_buckets=4)).to_pandas()
        assert out.iloc[0]["n_same_role_adjacent"] == 1


class TestBoilerplateTurns:
    def test_distinct_conv_counting(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.canonicalize import boilerplate_turns

        tr = rd.from_pandas(
            pd.DataFrame(
                {
                    "conv_id": ["a", "a", "b", "c", "c"],
                    "turn_idx": [0, 1, 0, 0, 1],
                    "text": [
                        "you are helpful",   # conv a (twice in a? no: once)
                        "you are helpful",   # a again → n_turns 2, convs {a}
                        "you are helpful",   # b → convs {a,b}, turns 3
                        "unique question",
                        "another unique",
                    ],
                }
            )
        ).repartition(3)
        out = (
            boilerplate_turns(tr, EngineConfig(num_buckets=4), min_convs=2)
            .to_pandas()
        )
        assert len(out) == 1
        assert out.iloc[0]["turn_text"] == "you are helpful"
        assert out.iloc[0]["n_convs"] == 2      # DISTINCT convs, not rows
        assert out.iloc[0]["n_turns"] == 3


class TestTokenBudgetTruncate:
    def test_prefix_budget(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from deepblocker_ray.config import EngineConfig
        from deepblocker_ray.stages.canonicalize import token_budget_truncate

        tr = rd.from_pandas(
            pd.DataFrame(
                {
                    "conv_id": ["a"] * 3 + ["b"] * 2,
                    "turn_idx": [0, 1, 2, 0, 1],
                    "text": [
                        "one two three",        # 3 → cum 3
                        "four five",            # 2 → cum 5
                        "six seven eight nine", # 4 → cum 9 > 6: dropped
                        "w x y z p q r",        # 7 > 6: first turn dropped
                        "short",                # NOT kept (prefix broke at 0)
                    ],
                }
            )
        ).repartition(2)
        out = (
            token_budget_truncate(tr, EngineConfig(num_buckets=4), budget=6)
            .to_pandas().sort_values(["conv_id", "turn_idx"])
        )
        a = out[out["conv_id"] == "a"]
        assert list(a["turn_idx"]) == [0, 1]
        assert list(a["cum_tokens"]) == [3, 5]
        # conv b: first turn exceeds the budget → the whole conv drops...
        # note the cumulative-sum rule: turn 1 has cum 7+1=8 > 6 → dropped too
        assert (out["conv_id"] == "b").sum() == 0


class TestSftPairs:
    def _ds(self, rows):
        import ray.data as rd

        df = pd.DataFrame(
            rows, columns=["conv_id", "turn_idx", "role", "text"]
        )
        df["tool"] = pd.array([None] * len(df), dtype="string")
        df["ts"] = pd.Timestamp("2024-01-01")
        return rd.from_pandas(df)

    def test_adjacency_rule(self, ray_session):
        from deepblocker_ray.stages.canonicalize import sft_pairs

        rows = [
            # normal user->assistant adjacency
            ("c1", 0, "user", "hi there"),
            ("c1", 1, "assistant", "hello friend indeed"),
            # assistant->assistant run: second one skipped
            ("c1", 2, "assistant", "more"),
            # gap in turn_idx: not adjacent, skipped
            ("c2", 0, "user", "ping"),
            ("c2", 2, "assistant", "pong"),
            # assistant opener: no preceding turn, skipped
            ("c3", 0, "assistant", "opener"),
            # arrives out of order but pairs after the in-bucket sort
            ("c4", 1, "assistant", "answer two words"),
            ("c4", 0, "user", "question"),
        ]
        out = (
            sft_pairs(self._ds(rows), EngineConfig(num_buckets=4))
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        assert list(out["conv_id"]) == ["c1", "c4"]
        assert list(out["prompt"]) == ["hi there", "question"]
        assert list(out["response"]) == [
            "hello friend indeed", "answer two words"
        ]
        assert list(out["prompt_tokens"]) == [2, 1]
        assert list(out["response_tokens"]) == [3, 3]
        assert list(out["turn_idx"]) == [1, 1]

    def test_empty(self, ray_session):
        from deepblocker_ray.stages.canonicalize import sft_pairs

        out = sft_pairs(
            self._ds([("c1", 0, "assistant", "x")]),
            EngineConfig(num_buckets=4),
        ).to_pandas()
        assert len(out) == 0


class TestDpoPairs:
    def _ds(self, rows):
        import ray.data as rd

        df = pd.DataFrame(
            rows, columns=["conv_id", "turn_idx", "role", "text"]
        )
        df["tool"] = pd.array([None] * len(df), dtype="string")
        df["ts"] = pd.Timestamp("2024-01-01")
        return rd.from_pandas(df)

    def test_chosen_rejected_rules(self, ray_session):
        from deepblocker_ray.stages.canonicalize import dpo_pairs

        rows = []
        # prompt "p" with 3 distinct responses of token counts 1, 3, 3:
        # chosen = max tokens, tie -> lexicographically smaller response
        # rejected = min tokens
        for i, resp in enumerate(["short", "a b c", "x y z"]):
            rows += [
                (f"c{i}", 0, "user", "p"),
                (f"c{i}", 1, "assistant", resp),
            ]
        # duplicated identical response must count once (distinct rule)
        rows += [("c9", 0, "user", "p"), ("c9", 1, "assistant", "short")]
        # prompt with a single response: filtered by min_responses
        rows += [("d0", 0, "user", "solo"), ("d0", 1, "assistant", "only")]
        out = (
            dpo_pairs(self._ds(rows), EngineConfig(num_buckets=4))
            .to_pandas()
        )
        assert len(out) == 1
        r = out.iloc[0]
        assert r["prompt"] == "p"
        assert r["chosen"] == "a b c"   # 3 tokens, lex smaller than "x y z"
        assert r["rejected"] == "short"  # 1 token
        assert r["n_responses"] == 3

    def test_rejected_tie_rule(self, ray_session):
        from deepblocker_ray.stages.canonicalize import dpo_pairs

        rows = []
        # all responses tie on tokens: chosen = lex smallest,
        # rejected = lex largest
        for i, resp in enumerate(["bb", "aa", "cc"]):
            rows += [
                (f"c{i}", 0, "user", "p"),
                (f"c{i}", 1, "assistant", resp),
            ]
        out = dpo_pairs(
            self._ds(rows), EngineConfig(num_buckets=4)
        ).to_pandas()
        assert out.iloc[0]["chosen"] == "aa"
        assert out.iloc[0]["rejected"] == "cc"
