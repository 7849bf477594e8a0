"""Deterministic synthetic fixtures (FIXTURES.md F1-F5). No external data.

Two transcript generators:

- ``transcripts_from_documents``: derives a transcript table from the
  driver-provided ``documents`` parquet by a *SQL-reproducible* rule (8-word
  turns, alternating roles) so __ray_entry__.oracle_sql can cross-check the
  canonicalize stage against DuckDB on the registered views.
- ``synth_transcripts``: seeded corpus with **planted duplicate clusters**
  (perturbations mirroring the reference's synthetic-pair generator,
  /root/reference/tuple_embedding_models.py:187-232: drop ≤40% of tokens,
  drop a trailing turn, re-case) for end-to-end recall / pair-F1 / cluster
  tests and the benchmark.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_EPOCH = np.datetime64("2024-01-01T00:00:00", "us")

WORDS_PER_TURN = 8


def transcripts_from_documents_pandas(
    documents: pd.DataFrame, words_per_turn: int = WORDS_PER_TURN
) -> pd.DataFrame:
    """One conversation per document; turn i = words[8i:8i+8] joined by ' ';
    role alternates user/assistant; tool is null; ts = epoch + turn_idx s.
    Must stay in lockstep with transcripts_from_documents_sql()."""
    conv_ids, turn_idxs, roles, texts = [], [], [], []
    for doc_id, text in zip(documents["doc_id"], documents["text"]):
        words = text.split(" ")
        n_turns = (len(words) - 1) // words_per_turn + 1
        for i in range(n_turns):
            conv_ids.append(f"conv-{doc_id}")
            turn_idxs.append(i)
            roles.append("user" if i % 2 == 0 else "assistant")
            texts.append(
                " ".join(words[i * words_per_turn : (i + 1) * words_per_turn])
            )
    turn_idx = np.asarray(turn_idxs, np.int32)
    return pd.DataFrame(
        {
            "conv_id": pd.array(conv_ids, dtype="string"),
            "turn_idx": turn_idx,
            "role": pd.array(roles, dtype="string"),
            "text": pd.array(texts, dtype="string"),
            "tool": pd.array([None] * len(conv_ids), dtype="string"),
            "ts": _EPOCH + turn_idx.astype("timedelta64[s]").astype("timedelta64[us]"),
        }
    )


TRANSCRIPTS_FROM_DOCUMENTS_SQL = """
WITH w AS (
    SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), t AS (
    SELECT doc_id,
           unnest(generate_series(0, (len(ws) - 1) // {wpt})) AS turn_idx,
           ws
    FROM w
)
SELECT 'conv-' || doc_id AS conv_id,
       turn_idx,
       CASE WHEN turn_idx % 2 = 0 THEN 'user' ELSE 'assistant' END AS role,
       array_to_string(ws[turn_idx * {wpt} + 1 : turn_idx * {wpt} + {wpt}], ' ') AS text
FROM t
"""


def transcripts_from_documents_sql(words_per_turn: int = WORDS_PER_TURN) -> str:
    """DuckDB CTE body producing (conv_id, turn_idx, role, text) identical to
    transcripts_from_documents_pandas (sans tool/ts)."""
    return TRANSCRIPTS_FROM_DOCUMENTS_SQL.format(wpt=words_per_turn)


_VOCAB_STEMS = [
    "query", "table", "index", "shard", "merge", "sort", "scan", "batch",
    "actor", "block", "tuple", "token", "embed", "score", "match", "group",
    "joins", "float", "array", "parse", "write", "fetch", "cache", "spill",
    "route", "agent", "reply", "tools", "plans", "steps", "facts", "notes",
]


def _vocab(rng: np.random.Generator, size: int = 400) -> np.ndarray:
    words = []
    for i in range(size):
        stem = _VOCAB_STEMS[i % len(_VOCAB_STEMS)]
        suffix = int(rng.integers(0, 1000))
        words.append(f"{stem}{suffix}")
    return np.asarray(words, dtype=object)


_ROLES = np.asarray(["user", "assistant"], dtype=object)
_TOOLS = np.asarray(["search", "browser", "python", "editor"], dtype=object)


def synth_transcripts(
    n_base: int = 300,
    seed: int = 7,
    dup_fraction: float = 0.35,
    big_cluster: int = 0,
    shuffle_rows: bool = True,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (transcripts F1, conv_clusters F2).

    ``dup_fraction`` of base conversations get 1-2 perturbed duplicates
    (cluster sizes mostly 2-3); if ``big_cluster`` > 0, base conversation 0
    additionally gets that many duplicates (the hot cluster that exercises
    skew handling). Rows are emitted in shuffled turn order across
    conversations so the canonicalize sort is actually exercised.
    """
    rng = np.random.default_rng(seed)
    vocab = _vocab(rng)

    convs: list[tuple[str, str, list[list[str]]]] = []  # (conv_id, entity, turns)
    seq = 0

    def emit(entity: str, turns: list[list[str]]) -> None:
        nonlocal seq
        convs.append((f"conv-{seq:06d}", entity, turns))
        seq += 1

    base_turns = []
    for b in range(n_base):
        n_turns = int(rng.integers(3, 13))
        turns = [
            list(rng.choice(vocab, size=int(rng.integers(4, 13))))
            for _ in range(n_turns)
        ]
        base_turns.append(turns)
        emit(f"ent-{b:06d}", turns)

    def perturb(turns: list[list[str]]) -> list[list[str]]:
        out = []
        for toks in turns:
            max_rm = int(len(toks) * 0.4)
            n_rm = int(rng.integers(0, max_rm + 1))
            keep = list(toks)
            for _ in range(n_rm):
                keep.pop(int(rng.integers(0, len(keep))))
            out.append(keep if keep else [" "])
        if len(out) > 3 and rng.random() < 0.3:
            out = out[:-1]  # drop a trailing turn
        return out

    n_dup = int(n_base * dup_fraction)
    for b in range(1, n_dup + 1):
        for _ in range(int(rng.integers(1, 3))):
            emit(f"ent-{b:06d}", perturb(base_turns[b]))
    for _ in range(big_cluster):
        emit("ent-000000", perturb(base_turns[0]))

    rows_conv, rows_idx, rows_role, rows_text, rows_tool, rows_ts = (
        [], [], [], [], [], [])
    for conv_id, _entity, turns in convs:
        t0 = _EPOCH + np.timedelta64(int(rng.integers(0, 10**6)), "s")
        for i, toks in enumerate(turns):
            rows_conv.append(conv_id)
            rows_idx.append(i)
            rows_role.append(_ROLES[i % 2])
            rows_text.append(" ".join(toks))
            rows_tool.append(
                _TOOLS[int(rng.integers(0, len(_TOOLS)))]
                if rng.random() < 0.15
                else None
            )
            rows_ts.append(t0 + np.timedelta64(i, "s"))

    df = pd.DataFrame(
        {
            "conv_id": pd.array(rows_conv, dtype="string"),
            "turn_idx": np.asarray(rows_idx, np.int32),
            "role": pd.array(rows_role, dtype="string"),
            "text": pd.array(rows_text, dtype="string"),
            "tool": pd.array(rows_tool, dtype="string"),
            "ts": np.asarray(rows_ts, dtype="datetime64[us]"),
        }
    )
    if shuffle_rows:
        df = df.sample(frac=1.0, random_state=seed).reset_index(drop=True)
    clusters = pd.DataFrame(
        {
            "conv_id": pd.array([c for c, _, _ in convs], dtype="string"),
            "entity_id": pd.array([e for _, e, _ in convs], dtype="string"),
        }
    )
    return df, clusters


def golden_pairs(clusters: pd.DataFrame) -> pd.DataFrame:
    """F3: all unordered within-cluster pairs (ltable_id < rtable_id)."""
    out_l, out_r = [], []
    for _, grp in clusters.groupby("entity_id"):
        ids = sorted(grp["conv_id"])
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                out_l.append(ids[i])
                out_r.append(ids[j])
    return pd.DataFrame(
        {
            "ltable_id": pd.array(out_l, dtype="string"),
            "rtable_id": pd.array(out_r, dtype="string"),
        }
    )


def synth_transcripts_sharded(
    out_dir: str,
    n_base_total: int,
    n_shards: int = 64,
    seed: int = 7,
    dup_fraction: float = 0.3,
    big_cluster: int = 50,
) -> None:
    """Large-corpus variant of ``synth_transcripts``: each shard is an
    independent ``synth_transcripts(seed + shard)`` run whose conv/entity ids
    get a ``s{shard:03d}-`` prefix (globally unique; planted duplicate
    clusters never span shards, matching how real corpora arrive
    partition-local). Generation fans out as Ray tasks — the sequential
    generator is driver-bound past ~1M base conversations — and each task
    writes its own parquet shard (transcripts/ + clusters/), so the output
    is the resumable partitioned layout the engine reads natively.

    Deterministic in (n_base_total, n_shards, seed, ...); caller owns the
    Ray session. Skips shards whose files already exist (resumable) — a
    ``params.json`` manifest in ``out_dir`` records the generation params,
    and a mismatch raises instead of silently serving stale shards (the
    resume-by-file-existence check alone can't tell a seed/dup_fraction
    change apart from a resumed run)."""
    import json
    import os
    import tempfile

    import ray

    os.makedirs(os.path.join(out_dir, "transcripts"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "clusters"), exist_ok=True)
    params = {
        "n_base_total": n_base_total,
        "n_shards": n_shards,
        "seed": seed,
        "dup_fraction": dup_fraction,
        "big_cluster": big_cluster,
    }
    manifest = os.path.join(out_dir, "params.json")
    if not os.path.exists(manifest):
        # a private temp name per caller, published with os.link, which
        # fails if the manifest exists: of two first-time callers exactly
        # one publishes a complete file, and the re-read below makes the
        # other compare against it
        fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(params, f)
            os.link(tmp, manifest)
        except FileExistsError:
            pass
        finally:
            os.unlink(tmp)
    with open(manifest) as f:
        prev = json.load(f)
    if prev != params:
        raise ValueError(
            f"synth_transcripts_sharded: {out_dir} was generated with "
            f"{prev}, requested {params} — use a different out_dir or "
            "delete the stale shards"
        )
    per = -(-n_base_total // n_shards)

    @ray.remote(num_cpus=1)
    def gen(shard: int, n_base: int) -> int:
        tp = os.path.join(out_dir, "transcripts", f"part-{shard:04d}.parquet")
        cp = os.path.join(out_dir, "clusters", f"part-{shard:04d}.parquet")
        if os.path.exists(tp) and os.path.exists(cp):
            return 0
        df, cl = synth_transcripts(
            n_base=n_base,
            seed=seed + shard,
            dup_fraction=dup_fraction,
            big_cluster=big_cluster if shard == 0 else 0,
        )
        pre = f"s{shard:03d}-"
        df["conv_id"] = pre + df["conv_id"]
        cl["conv_id"] = pre + cl["conv_id"]
        cl["entity_id"] = pre + cl["entity_id"]
        df.to_parquet(tp + ".tmp")
        cl.to_parquet(cp + ".tmp")
        os.replace(tp + ".tmp", tp)
        os.replace(cp + ".tmp", cp)
        return len(df)

    ray.get(
        [
            gen.remote(s, min(per, n_base_total - s * per))
            for s in range(n_shards)
            if n_base_total - s * per > 0
        ]
    )


def flat_tables(
    n: int = 300, seed: int = 11, n_matches: int = 80
) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """F4: DeepMatcher-shape tableA/tableB (id == row position, replicating
    the reference's positional-id coupling, blocking_utils.py:9) + golden
    matches. Nulls sprinkled to exercise fillna(' ')."""
    rng = np.random.default_rng(seed)
    vocab = _vocab(rng, 250)

    def make_rows(k):
        titles, manufacturers, prices = [], [], []
        for _ in range(k):
            titles.append(" ".join(rng.choice(vocab, size=int(rng.integers(3, 9)))))
            manufacturers.append(
                str(rng.choice(vocab)) if rng.random() > 0.1 else None
            )
            prices.append(
                round(float(rng.uniform(1, 500)), 2) if rng.random() > 0.15 else None
            )
        return titles, manufacturers, prices

    ta_t, ta_m, ta_p = make_rows(n)
    tb_t, tb_m, tb_p = make_rows(n)
    match_a = rng.choice(n, size=n_matches, replace=False)
    match_b = rng.choice(n, size=n_matches, replace=False)
    for a, b in zip(match_a, match_b):
        toks = ta_t[a].split()
        n_rm = int(rng.integers(0, int(len(toks) * 0.4) + 1))
        for _ in range(n_rm):
            toks.pop(int(rng.integers(0, len(toks))))
        tb_t[b] = " ".join(toks) if toks else ta_t[a]
        tb_m[b] = ta_m[a]
        tb_p[b] = ta_p[a]

    def frame(t, m, p, k):
        return pd.DataFrame(
            {"id": np.arange(k), "title": t, "manufacturer": m, "price": p}
        )

    matches = pd.DataFrame(
        {"ltable_id": match_a.astype(np.int64), "rtable_id": match_b.astype(np.int64)}
    ).sort_values(["ltable_id", "rtable_id"]).reset_index(drop=True)
    return frame(ta_t, ta_m, ta_p, n), frame(tb_t, tb_m, tb_p, n), matches
