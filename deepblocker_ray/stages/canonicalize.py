"""Canonicalize multi-turn transcripts into one tuple string per conversation.

The reference's analogous step merges the blocking columns of a flat row into
``_merged_text`` (/root/reference/deep_blocker.py:29-45: fillna(' '),
astype(str), ' '.join). Our canonical input (BASELINE.json input_hint) is a
transcript table ``(conv_id, turn_idx, role, text, tool, ts)``, one row per
turn, arriving in arbitrary row order; the per-row invariant is **per-turn
text equality under stable turn ordering**: the canonical tuple must equal the
' '-join of per-turn fragments sorted by turn_idx.

Distribution: one key exchange on conv_id (``exchange``: a range-partitioned
sort, then vectorized pandas over each whole shuffled block) — group logic
runs once per block over every conversation in it, never one Python call
per conversation or per bucket. Skew guard: ``turn_cap`` truncates
pathological conversations (counted in the output).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import EngineConfig
from ..state.lookup import id_hash

CANONICAL_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("tuple_text", pa.string()),
        ("n_turns", pa.int32()),
        ("truncated", pa.bool_()),
        ("turn_texts", pa.list_(pa.string())),
    ]
)


def bucket_of(keys: pd.Series | np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic hash bucket for string keys (stable across processes —
    pandas' siphash with its fixed default key; ``id_hash`` keeps composite
    ``a + "\\x00" + b`` keys from hashing by batch)."""
    return (id_hash(keys) % np.uint64(num_buckets)).astype(np.int32)


def exchange(ds, key: str, fn, batch_format: str):
    """Key exchange: every row of one ``key`` value reaches ONE call of ``fn``.

    ``ds.sort(key)`` range-partitions on the key, so all rows of a key value
    land in one output block (Ray's own ``GroupedData.map_groups`` relies on
    the same property), and ``batch_size=None`` hands ``fn`` whole blocks.
    ``fn`` therefore runs once per shuffled block, vectorized over every key
    in it — not once per hash bucket — and sorting on the raw key needs no
    bucket column. ``fn`` must not assume one key per call."""
    return ds.sort(key).map_batches(
        fn, batch_size=None, batch_format=batch_format
    )


JOIN_TYPES = ("inner", "left outer", "left semi", "left anti")


def _arrow_side(ds):
    """``ds`` with Arrow blocks, and its Arrow schema. pandas blocks report
    numpy dtypes (object for strings), so such a side is re-read as Arrow.
    Reading a lazy side's schema runs its plan up to its first block."""
    if not isinstance(getattr(ds.schema(), "base_schema", None), pa.Schema):
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
    sch = getattr(ds.schema(), "base_schema", None)
    if sch is None:
        raise ValueError("exchange_join needs both sides' schemas")
    return ds, sch


def exchange_join(left, right, on: str, how: str):
    """Keyed join of two Datasets as ONE key exchange: both sides are tagged
    into one padded schema (``on`` cast to one type, the left columns, the
    right non-key columns, an int8 ``_side``), unioned, and ``exchange``d
    on ``on``; each shuffled block then splits by ``_side`` and runs one
    Arrow ``Table.join``. Every block carries the full padded schema, so a
    block holding rows of only one side still joins (and an empty block
    yields an empty, typed table). Output: the left columns in their order
    (the key as one type), then the right non-key columns.

    ``how`` is an Arrow join type in ``JOIN_TYPES``: inner and left outer
    keep duplicate right keys' row multiplicity; left semi / left anti only
    test key existence. A null key never matches: right rows with one are
    dropped, and left ones are dropped (inner, semi) or ride the exchange
    under a stand-in key, since a sort cannot order nulls, and come out
    unmatched (left outer, anti). Arrow rejects nested (list) non-key
    columns in a join — pack them first. The output's schema is recorded,
    so a chained join reads it without executing this one.

    Ray 2.49's sort merges a block whose pieces mix Arrow and pandas (one
    empty pandas input block suffices: ``map_batches`` passes it through
    uncalled) in pandas, so a shuffled block may arrive rebuilt from
    pandas: all-null columns typed null, integer columns with nulls as
    float64. The body therefore casts each side back to its schema, and
    integer columns are padded with 0, not null, so the other side's
    padding cannot turn them float64."""
    import pyarrow.compute as pc

    if how not in JOIN_TYPES:
        raise ValueError(f"how must be one of {JOIN_TYPES}, got {how!r}")
    (left, ls), (right, rs) = _arrow_side(left), _arrow_side(right)
    key_type = pa.unify_schemas(
        [pa.schema([ls.field(on)]), pa.schema([rs.field(on)])],
        promote_options="permissive",
    ).field(on).type
    key_field = pa.field(on, key_type)
    l_schema = pa.schema([key_field if f.name == on else f for f in ls])
    r_fields = [f for f in rs if f.name != on]
    r_schema = pa.schema([key_field, *r_fields])
    clash = set(l_schema.names) & set(r_schema.names) - {on}
    if clash:
        raise ValueError(f"both sides carry non-key columns {sorted(clash)}")
    fields = [key_field] + [f for f in l_schema if f.name != on] + r_fields
    padded = pa.schema([*fields, pa.field("_side", pa.int8())])
    keep_unmatched = how in ("left outer", "left anti")
    existence_only = how in ("left semi", "left anti")
    out_schema = pa.schema(
        list(l_schema) + ([] if existence_only else r_fields)
    )
    if keep_unmatched:
        stand_in = pa.array([0]).cast(key_type)[0]

    def pad(n: int, typ: pa.DataType):
        if pa.types.is_integer(typ):
            return pa.array(np.zeros(n, np.int8)).cast(typ)
        return pa.nulls(n, typ)

    def tag(side: int, own: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            valid = pc.is_valid(t.column(on))
            if side == 1 or not keep_unmatched:
                t = t.filter(valid)
                sides = pa.array(np.full(len(t), side, np.int8))
                key = t.column(on).cast(key_type)
            else:  # side 2: a null left key, kept but never joined
                sides = pc.if_else(valid, np.int8(0), np.int8(2))
                key = pc.fill_null(t.column(on).cast(key_type), stand_in)
            n = len(t)
            return pa.table(
                [key]
                + [
                    t.column(f.name).cast(f.type)
                    if f.name in own
                    else pad(n, f.type)
                    for f in fields[1:]
                ]
                + [sides],
                schema=padded,
            )

        return fn

    def body(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:  # no rows reached this block
            return out_schema.empty_table()
        side = t.column("_side")

        def rows(s: int, schema: pa.Schema) -> pa.Table:
            kept = t.filter(pc.equal(side, s))
            return kept.select(schema.names).cast(schema)

        out = rows(0, l_schema).join(
            rows(1, r_schema), on, join_type=how, use_threads=False
        )
        out = out.select(out_schema.names).cast(out_schema)
        if not keep_unmatched:
            return out
        # null-key left rows: their key back to null, no right columns
        nk = rows(2, l_schema)
        nk = pa.table(
            [
                nk.column(f.name)
                if f.name != on and f.name in l_schema.names
                else pa.nulls(len(nk), f.type)
                for f in out_schema
            ],
            schema=out_schema,
        )
        return pa.concat_tables([out, nk])

    tagged = left.map_batches(
        tag(0, l_schema.names), batch_format="pyarrow"
    ).union(right.map_batches(tag(1, r_schema.names), batch_format="pyarrow"))
    out = exchange(tagged, on, body, "pyarrow")
    out._plan.cache_schema(out_schema)
    return out


def turn_fragment(
    role: pd.Series, text: pd.Series, tool: pd.Series
) -> pd.Series:
    """One turn → 'role: text' (+ ' [tool]'). Null text → ' ' per the
    reference's fillna(' ') semantics (deep_blocker.py:33-34); null role → ''.
    """
    frag = role.fillna("").astype(str) + ": " + text.fillna(" ").astype(str)
    has_tool = tool.notna()
    if has_tool.any():
        frag = frag.where(
            ~has_tool, frag + " [" + tool.astype("string").fillna("") + "]"
        )
    return frag


def _canonicalize_block(
    group: pd.DataFrame, turn_cap: int | None, on_duplicate: str
) -> pa.Table:
    g = group.sort_values(["conv_id", "turn_idx"], kind="stable")
    dup = g.duplicated(["conv_id", "turn_idx"])
    if dup.any():
        if on_duplicate == "error":
            bad = g.loc[dup, ["conv_id", "turn_idx"]].iloc[0]
            raise ValueError(
                f"duplicate turn_idx {bad['turn_idx']} in conversation "
                f"{bad['conv_id']}"
            )
        g = g[~dup]

    truncated = np.zeros(0, bool)
    if turn_cap is not None:
        rank = g.groupby("conv_id", sort=False).cumcount()
        over = rank >= turn_cap
        trunc_convs = set(g.loc[over, "conv_id"])
        g = g[~over]
    frag = turn_fragment(g["role"], g["text"], g["tool"])

    grouped = frag.groupby(g["conv_id"].values, sort=False)
    tuple_text = grouped.agg(" ".join)
    n_turns = grouped.size()
    texts = (
        g["text"]
        .fillna(" ")
        .astype(str)
        .groupby(g["conv_id"].values, sort=False)
        .agg(list)
    )
    conv_ids = tuple_text.index.astype(str)
    if turn_cap is not None:
        truncated = np.fromiter(
            (c in trunc_convs for c in conv_ids), bool, len(conv_ids)
        )
    else:
        truncated = np.zeros(len(conv_ids), bool)
    return pa.table(
        {
            "conv_id": pa.array(conv_ids, pa.string()),
            "tuple_text": pa.array(tuple_text.values, pa.string()),
            "n_turns": pa.array(n_turns.values.astype(np.int32)),
            "truncated": pa.array(truncated),
            "turn_texts": pa.array(list(texts.values), pa.list_(pa.string())),
        },
        schema=CANONICAL_SCHEMA,
    )


def canonicalize(
    transcripts,
    cfg: EngineConfig | None = None,
    turn_cap: int | None = None,
    on_duplicate: str = "error",
):
    """transcripts Dataset → canonical tuples Dataset (CANONICAL_SCHEMA),
    sorted by conv_id.

    One key exchange on conv_id; each shuffled block is canonicalized by
    one vectorized pandas pass.
    """

    def per_block(group: pd.DataFrame) -> pa.Table:
        return _canonicalize_block(group, turn_cap, on_duplicate)

    return exchange(
        transcripts.select_columns(
            ["conv_id", "turn_idx", "role", "text", "tool"]
        ),
        "conv_id",
        per_block,
        "pandas",
    )


def conversation_stats(ds, cfg):
    """Per-conversation shape statistics over a transcript table — the
    corpus-exploration scan for agent-trace datasets: turn counts, role
    mix and whitespace-token volume per conversation. Emits
    (conv_id, n_turns:int64, n_user:int64, n_assistant:int64,
    n_tokens:int64); NULL text counts zero tokens (the ``\\S+`` rule the
    packing twins use).

    Conversations span batches, so per-batch partials (one pandas groupby
    per batch — only (conv, 4 ints) rows) ride ONE bucketed exchange on
    hash(conv_id) and sum per bucket. Turn text never moves.
    """
    import pyarrow.compute as pc

    nb = cfg.num_buckets

    def partial(t: pa.Table) -> pd.DataFrame:
        txt = pc.cast(t.column("text"), pa.string())
        n_tok = pc.count_substring_regex(
            pc.fill_null(txt, ""), r"\S+"
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        role = t.column("role").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "conv_id": t.column("conv_id").to_numpy(
                    zero_copy_only=False
                ),
                "n_turns": np.ones(len(t), np.int64),
                "n_user": (role == "user").astype(np.int64),
                "n_assistant": (role == "assistant").astype(np.int64),
                "n_tokens": n_tok,
            }
        )
        g = df.groupby("conv_id", sort=False, observed=True).sum().reset_index()
        g["_bucket"] = bucket_of(g["conv_id"], nb)
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "conv_id": pd.Series(dtype=object),
                    **{
                        c: pd.Series(dtype=np.int64)
                        for c in ("n_turns", "n_user", "n_assistant",
                                  "n_tokens")
                    },
                }
            )
        g = (
            df.drop(columns=["_bucket"])
            .groupby("conv_id", sort=False, observed=True)
            .sum()
            .reset_index()
        )
        for c in ("n_turns", "n_user", "n_assistant", "n_tokens"):
            g[c] = g[c].astype(np.int64)
        return g

    return (
        ds.select_columns(["conv_id", "role", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def tail_turns(ds, cfg, *, k: int):
    """Context-window truncation — keep each conversation's LAST ``k``
    turns (the prompt-assembly rule for bounded-context training and the
    long-tail guard for pathological conversations; the keep-newest dual
    of canonicalize's ``turn_cap`` keep-oldest rule). Emits the surviving
    (conv_id, turn_idx, role, text) rows.

    Turns of one conversation must co-locate to know its max turn_idx, so
    the rows ride ONE bucketed exchange on hash(conv_id) — inherent to
    the operator (the output IS the surviving rows). Per bucket: one
    lexsort + segment-max via reduceat over all conversations at once, no
    per-conversation loop.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nb = cfg.num_buckets

    def project(t: pa.Table) -> pa.Table:
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "turn_idx": t.column("turn_idx").cast(pa.int64()),
                "role": t.column("role"),
                "text": t.column("text"),
                "_bucket": pa.array(bucket_of(conv, nb)),
            }
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["conv_id", "turn_idx", "role", "text"]
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "conv_id": pd.Series(dtype=object),
                    "turn_idx": pd.Series(dtype=np.int64),
                    "role": pd.Series(dtype=object),
                    "text": pd.Series(dtype=object),
                }
            )
        conv_codes, _ = pd.factorize(df["conv_id"].to_numpy(object),
                                     sort=False)
        ti = df["turn_idx"].to_numpy(np.int64)
        order = np.lexsort((ti, conv_codes))
        cc, tt = conv_codes[order], ti[order]
        seg_start = np.flatnonzero(np.r_[True, cc[1:] != cc[:-1]])
        seg_max = np.maximum.reduceat(tt, seg_start)
        max_of = np.repeat(seg_max, np.diff(np.r_[seg_start, len(cc)]))
        keep_sorted = tt > max_of - k
        keep = np.zeros(len(df), bool)
        keep[order] = keep_sorted
        return df.loc[keep, cols]

    return (
        ds.select_columns(["conv_id", "turn_idx", "role", "text"])
        .map_batches(project, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def turn_windows(ds, cfg, *, k: int = 3, sep: str = " "):
    """Sliding context windows — every run of ``k`` CONSECUTIVE turns
    (turn_idx s, s+1, …, s+k−1 all present) becomes one example row
    (conv_id, start_idx:int64, window_text): the context-window example
    generator for dialogue training data. Gaps in turn_idx break windows
    (adjacency is by INDEX, not rank — pinned semantics the twin's
    offset self-join reproduces); conversations shorter than ``k`` emit
    nothing. NULL text joins as ''.

    One bucketed exchange on hash(conv_id); per bucket a single sort then
    k−1 shifted vectorized compares + string adds — no per-window loop.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nb = cfg.num_buckets

    def project(t: pa.Table) -> pa.Table:
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "turn_idx": t.column("turn_idx").cast(pa.int64()),
                "text": t.column("text"),
                "_bucket": pa.array(bucket_of(conv, nb)),
            }
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "conv_id": pd.Series(dtype=object),
                "start_idx": pd.Series(dtype=np.int64),
                "window_text": pd.Series(dtype=object),
            }
        )
        if len(df) == 0:
            return empty
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy(object)
        ti = df["turn_idx"].to_numpy(np.int64)
        txt = df["text"].fillna("").astype(str).to_numpy(object)
        n = len(df)
        if n < k:
            return empty
        m = n - k + 1
        valid = np.ones(m, bool)
        acc = txt[:m].copy()
        for j in range(1, k):
            valid &= (conv[j : m + j] == conv[:m]) & (
                ti[j : m + j] == ti[:m] + j
            )
            acc = acc + sep
            acc = acc + txt[j : m + j]
        return pd.DataFrame(
            {
                "conv_id": conv[:m][valid],
                "start_idx": ti[:m][valid],
                "window_text": acc[valid],
            }
        )

    return (
        ds.select_columns(["conv_id", "turn_idx", "text"])
        .map_batches(project, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def role_alternation_audit(ds, cfg: EngineConfig | None = None):
    """Transcript-hygiene audit: per conversation, does the turn stream
    alternate roles cleanly? Emits (conv_id, first_role, n_turns,
    n_same_role_adjacent, alternates) where ``n_same_role_adjacent`` counts
    adjacent turn pairs (in turn_idx order) with the SAME role — the broken-
    alternation signal that poisons instruction-tuning data. NULL roles
    compare as the empty string (two adjacent NULLs are a violation).

    Scale shape: skinny (conv, turn_idx, role) projection → ONE bucketed
    exchange on hash(conv_id) → per bucket one lexsort + shifted compare
    over ALL conversations at once (no per-conv loop)."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def project(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "conv_id": t.column("conv_id").to_pandas().astype(str),
                "turn_idx": np.asarray(t.column("turn_idx")).astype(np.int64),
                "role": t.column("role").to_pandas().fillna("").astype(str),
            }
        )
        df["_bucket"] = bucket_of(df["conv_id"], nb)
        return df

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy(object)
        role = g["role"].to_numpy(object)
        starts = np.nonzero(
            np.concatenate(([True], conv[1:] != conv[:-1]))
        )[0]
        counts = np.diff(np.concatenate((starts, [len(conv)])))
        same = np.concatenate(
            ([False], (conv[1:] == conv[:-1]) & (role[1:] == role[:-1]))
        )
        viol = np.add.reduceat(same.astype(np.int64), starts)
        return pd.DataFrame(
            {
                "conv_id": conv[starts],
                "first_role": role[starts],
                "n_turns": counts.astype(np.int64),
                "n_same_role_adjacent": viol,
                "alternates": viol == 0,
            }
        )

    return (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def boilerplate_turns(
    ds,
    cfg: EngineConfig | None = None,
    *,
    min_convs: int = 2,
):
    """Cross-conversation boilerplate-turn report: every turn text that
    appears in ≥ ``min_convs`` DISTINCT conversations, with its conv and
    turn counts — the system-prompt / canned-reply detector that decides
    what turn-level dedup should strip. Output
    (turn_text, n_convs, n_turns).

    Scale shape: each batch pre-reduces to DISTINCT (text, conv, count)
    triples (boilerplate is duplicate-heavy by premise), bucketed on
    hash(text); per bucket all rows of a text co-locate, so the distinct-
    conv count is exact. The exchange is O(distinct (text, conv) pairs ×
    turn length) — turn texts are short by construction here; corpora with
    unbounded turns should key on the md5 surrogate (the segment_dedup
    pattern) instead of shipping text."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "_t": t.column("text").to_pandas().fillna("").astype(str),
                "_c": t.column("conv_id").to_pandas().astype(str),
            }
        )
        g = df.groupby(["_t", "_c"], sort=False).size().rename("_n")
        g = g.reset_index()
        g["_bucket"] = bucket_of(g["_t"], nb)
        return g

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("_t", sort=False).agg(
            n_convs=("_c", "nunique"), n_turns=("_n", "sum")
        )
        agg = agg[agg["n_convs"] >= min_convs].reset_index()
        return pd.DataFrame(
            {
                "turn_text": agg["_t"].values,
                "n_convs": agg["n_convs"].to_numpy(np.int64),
                "n_turns": agg["n_turns"].to_numpy(np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def token_budget_truncate(
    ds,
    cfg: EngineConfig | None = None,
    *,
    budget: int,
):
    """Context-window packing for transcripts: keep each conversation's
    LONGEST PREFIX of turns whose cumulative whitespace-token count stays
    ≤ ``budget`` (the keep-oldest dual of ``tail_turns``; a first turn
    alone above budget keeps nothing). Tokens are ``\\S+`` runs counted in
    pyarrow's RE2 kernel — DuckDB's regexp_extract_all is the same engine.
    Output: the kept turn rows (conv_id, turn_idx, n_tokens, cum_tokens).

    Scale shape: token counts are computed MAP-SIDE so only skinny
    (conv, turn_idx, n_tokens) int rows ride the ONE bucketed exchange;
    per bucket one lexsort + segmented cumsum over all conversations at
    once (segment starts reset via index arithmetic, no per-conv loop)."""
    import pyarrow.compute as pc

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def project(t: pa.Table) -> pd.DataFrame:
        nt = np.asarray(
            pc.count_substring_regex(
                pc.fill_null(pc.cast(t.column("text"), pa.string()), ""),
                r"\S+",
            ),
            np.int64,
        )
        df = pd.DataFrame(
            {
                "conv_id": t.column("conv_id").to_pandas().astype(str),
                "turn_idx": np.asarray(t.column("turn_idx")).astype(np.int64),
                "n_tokens": nt,
            }
        )
        df["_bucket"] = bucket_of(df["conv_id"], nb)
        return df

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy(object)
        nt = g["n_tokens"].to_numpy(np.int64)
        starts = np.nonzero(
            np.concatenate(([True], conv[1:] != conv[:-1]))
        )[0]
        run = np.cumsum(nt)
        base = np.repeat(
            np.concatenate(([0], run[starts[1:] - 1])), 
            np.diff(np.concatenate((starts, [len(conv)]))),
        )
        cum = run - base
        keep = cum <= budget
        out = g.loc[keep, ["conv_id", "turn_idx", "n_tokens"]].copy()
        out["cum_tokens"] = cum[keep]
        return out

    return (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def sft_pairs(
    ds,
    cfg: EngineConfig | None = None,
):
    """SFT (prompt, response) extraction from transcripts: every assistant
    turn whose IMMEDIATELY preceding turn (by turn_idx within the
    conversation) is a user turn becomes one training pair
    (conv_id, turn_idx = the assistant turn's index, prompt, response,
    prompt_tokens, response_tokens). Assistant turns without a directly
    preceding user turn (conversation openers, assistant→assistant runs)
    are skipped — the adjacency rule, not a windowed search.

    Scale shape: ONE bucketed exchange on hash(conv_id) co-locates each
    conversation; per bucket a single lexsort + shifted-array compare pairs
    ALL conversations at once (prev-row mask where conv unchanged AND
    turn_idx is exactly prev+1), no per-conversation loop. Token counts are
    RE2 ``\\S+`` runs computed map-side so the exchange carries each turn
    text once."""
    import pyarrow.compute as pc

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def project(t: pa.Table) -> pd.DataFrame:
        txt = pc.fill_null(pc.cast(t.column("text"), pa.string()), "")
        nt = np.asarray(
            pc.count_substring_regex(txt, r"\S+"), np.int64
        )
        df = pd.DataFrame(
            {
                "conv_id": t.column("conv_id").to_pandas().astype(str),
                "turn_idx": np.asarray(t.column("turn_idx")).astype(np.int64),
                "role": t.column("role").to_pandas().astype(str),
                "text": txt.to_pandas().astype(str),
                "n_tokens": nt,
            }
        )
        df["_bucket"] = bucket_of(df["conv_id"], nb)
        return df

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy(object)
        tidx = g["turn_idx"].to_numpy(np.int64)
        role = g["role"].to_numpy(object)
        same = np.concatenate(([False], conv[1:] == conv[:-1]))
        adjacent = np.concatenate(([False], tidx[1:] == tidx[:-1] + 1))
        cur_assist = role == "assistant"
        prev_user = np.concatenate(([False], role[:-1] == "user"))
        keep = same & adjacent & cur_assist & prev_user
        idx = np.nonzero(keep)[0]
        txt = g["text"].to_numpy(object)
        ntk = g["n_tokens"].to_numpy(np.int64)
        # explicit Arrow types: 0-row object outputs confuse block sizing
        return pa.table(
            {
                "conv_id": pa.array(conv[idx], pa.string()),
                "turn_idx": pa.array(tidx[idx], pa.int64()),
                "prompt": pa.array(txt[idx - 1], pa.string()),
                "response": pa.array(txt[idx], pa.string()),
                "prompt_tokens": pa.array(ntk[idx - 1], pa.int64()),
                "response_tokens": pa.array(ntk[idx], pa.int64()),
            }
        )

    return (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def dpo_pairs(
    ds,
    cfg: EngineConfig | None = None,
    *,
    min_responses: int = 2,
):
    """Preference-pair mining over repeated prompts: for every prompt text
    that received ≥ ``min_responses`` DISTINCT responses across the corpus
    (boilerplate prompts — the only place preference pairs exist without a
    reward model), emit (prompt, chosen, rejected, n_responses) where
    chosen = the response with the most whitespace tokens (ties → lexic.
    smaller response) and rejected = the fewest (ties → lexic. larger),
    the deterministic length-proxy ranking. Composes ``sft_pairs``.

    Scale shape: sft extraction (one conv exchange), then per-batch
    DISTINCT (prompt, response) pre-reduce and ONE bucketed exchange on
    hash(prompt); per bucket one lexsort + segment boundaries pick each
    prompt's argmax/argmin — no per-prompt loop, exchange is O(distinct
    pairs)."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    pairs = sft_pairs(ds, cfg)

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "prompt": t.column("prompt").to_pandas().astype(str),
                "response": t.column("response").to_pandas().astype(str),
                "n_tokens": np.asarray(
                    t.column("response_tokens"), np.int64
                ),
            }
        )
        df = df.drop_duplicates(["prompt", "response"])
        df["_bucket"] = bucket_of(df["prompt"], nb)
        return df

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["prompt", "response"])
        # total order inside each prompt: best = max (n_tokens, rev-lex
        # response) — realized as sort by (prompt asc, n_tokens asc,
        # response desc) so the segment's LAST row is chosen and FIRST is
        # rejected under the documented tie rule
        g = g.sort_values(
            ["prompt", "n_tokens", "response"],
            ascending=[True, True, False],
            kind="mergesort",
        )
        prm = g["prompt"].to_numpy(object)
        starts = np.nonzero(
            np.concatenate(([True], prm[1:] != prm[:-1]))
        )[0]
        ends = np.concatenate((starts[1:], [len(prm)])) - 1
        cnt = ends - starts + 1
        sel = cnt >= min_responses
        resp = g["response"].to_numpy(object)
        return pa.table(
            {
                "prompt": pa.array(prm[starts[sel]], pa.string()),
                "chosen": pa.array(resp[ends[sel]], pa.string()),
                "rejected": pa.array(resp[starts[sel]], pa.string()),
                "n_responses": pa.array(cnt[sel].astype(np.int64)),
            }
        )

    return (
        pairs.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
