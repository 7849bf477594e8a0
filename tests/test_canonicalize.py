"""Canonicalize stage: stable turn ordering, null handling, SQL conformance.

Pins the per-row invariant from BASELINE.json input_hint: per-turn text
equality under stable turn ordering.
"""

import duckdb
import numpy as np
import pandas as pd
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
