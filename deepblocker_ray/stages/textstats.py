"""Text-analysis operators over a document table (training-data-pipeline ops;
the reference has no equivalents — its scalar surface ends at tokenize,
SURVEY §2.8). All are stateless vectorized map_batches stages; the ones with
SQL twins are cross-checked by the driver via __ray_entry__.oracle_sql.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokenizer import tokenize
from ..state.lookup import id_hash

_PUNCT_RE = re.compile(r"[.,!?;:]")
_WS_RE = re.compile(r"\s+")

# GPT-2-style pre-tokenizer regex, restricted to constructs RE2 supports
# (no lookahead) and to ASCII letter/digit classes so pyarrow's RE2 kernel,
# Python re, and DuckDB regexp_extract_all count the same pre-tokens on the
# ASCII driver corpora (cross-engine parity pinned in tests): contraction
# suffixes, space-prefixed letter runs, digit runs, punctuation runs,
# whitespace runs.
BPE_PRETOKEN_RE = (
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"
)

# tiny per-language stopword lists for the n-gram/stopword lang-id heuristic
STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "you", "that"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "los", "se", "por"},
    "de": {"der", "die", "und", "das", "ist", "von", "mit", "den", "nicht", "ein"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "est", "dans"},
}


def token_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(doc_id, n_chars, n_tokens, n_words, punct_count): basic_english token
    count + whitespace word count + punctuation count. SQL twin in
    __ray_entry__."""

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        n_chars = np.asarray([len(t or "") for t in texts], np.int64)
        n_tokens = np.asarray([len(tokenize(t or "")) for t in texts], np.int64)
        n_words = np.asarray(
            [len((t or "").split()) for t in texts], np.int64
        )
        punct = np.asarray(
            [len(_PUNCT_RE.findall(t or "")) for t in texts], np.int64
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_chars": pa.array(n_chars),
                "n_tokens": pa.array(n_tokens),
                "n_words": pa.array(n_words),
                "punct_count": pa.array(punct),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def bpe_token_count(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(doc_id, n_bpe_tokens, n_ws_tokens): BPE-ish pre-token count (GPT-2
    pre-tokenizer regex shape, see BPE_PRETOKEN_RE) + whitespace token count.
    Fully vectorized — both counts run through pyarrow's RE2 kernel
    (count_substring_regex), no per-row Python; the SQL twin uses DuckDB's
    regexp_extract_all, which is the same RE2 engine, so counts are exact.
    Whitespace runs count as pre-tokens (they become part of the next token
    in a real BPE; counting them keeps the regex twin lookahead-free)."""

    def count(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col), "")
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_bpe_tokens": pc.cast(
                    pc.count_substring_regex(texts, BPE_PRETOKEN_RE),
                    pa.int64(),
                ),
                "n_ws_tokens": pc.cast(
                    pc.count_substring_regex(texts, r"\S+"), pa.int64()
                ),
            }
        )

    return ds.map_batches(count, batch_format="pyarrow")


def quality_score(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Heuristic quality signals: length, stopword ratio, mean word length,
    alpha ratio; combined score in [0,1]. (Gopher/C4-style filters reduced to
    deterministic arithmetic — no external models.)"""

    stop_en = STOPWORDS["en"]

    def score(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        n = len(texts)
        stop_ratio = np.zeros(n)
        mean_wlen = np.zeros(n)
        alpha_ratio = np.zeros(n)
        length_ok = np.zeros(n)
        for i, t in enumerate(texts):
            t = t or ""
            words = t.split()
            if words:
                stop_ratio[i] = sum(w.lower() in stop_en for w in words) / len(words)
                mean_wlen[i] = float(np.mean([len(w) for w in words]))
            if t:
                alpha_ratio[i] = sum(c.isalpha() or c.isspace() for c in t) / len(t)
            length_ok[i] = 1.0 if 20 <= len(t) <= 100_000 else 0.0
        wlen_ok = np.clip(1.0 - np.abs(mean_wlen - 5.0) / 10.0, 0.0, 1.0)
        combined = (
            0.25 * length_ok
            + 0.25 * np.clip(stop_ratio * 5, 0, 1)
            + 0.25 * wlen_ok
            + 0.25 * alpha_ratio
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "stop_ratio": pa.array(stop_ratio),
                "mean_word_len": pa.array(mean_wlen),
                "alpha_ratio": pa.array(alpha_ratio),
                "quality": pa.array(combined),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def lang_id(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Stopword/charset language-ID heuristic → (doc_id, lang_pred, lang_conf).
    CJK is detected by codepoint range; Latin languages by stopword votes."""

    def detect(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        preds, confs = [], []
        for t in texts:
            t = t or ""
            if any("一" <= c <= "鿿" for c in t[:500]):
                preds.append("zh")
                confs.append(1.0)
                continue
            words = [w.lower() for w in t.split()[:200]]
            if not words:
                preds.append("unknown")
                confs.append(0.0)
                continue
            votes = {
                lang: sum(w in sw for w in words) for lang, sw in STOPWORDS.items()
            }
            best = max(votes, key=lambda k: (votes[k], k))
            total = sum(votes.values())
            if votes[best] == 0:
                preds.append("unknown")
                confs.append(0.0)
            else:
                preds.append(best)
                confs.append(votes[best] / total if total else 0.0)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "lang_pred": pa.array(preds, pa.string()),
                "lang_conf": pa.array(np.asarray(confs, np.float64)),
            }
        )

    return ds.map_batches(detect, batch_format="pyarrow")


def normalize_for_fingerprint(text: str) -> str:
    return _WS_RE.sub(" ", (text or "").lower()).strip()


_FP_INIT = np.uint64(1469598103934665603)
_FP_P = np.uint64(1099511628211)
# p is odd ⇒ invertible mod 2^64: lets the per-doc polynomial be evaluated
# with ONE global power ladder over the batch concatenation instead of a
# per-byte Python loop (h_d = init·p^L + Σ b_j·pinv^j · p^{end-1}, mod 2^64)
_FP_PINV = np.uint64(pow(int(_FP_P), -1, 1 << 64))


def rolling64_batch(norms: list[bytes]) -> np.ndarray:
    """64-bit polynomial rolling hash per doc, fully vectorized: Horner's
    h = init; h = h·p + byte — evaluated in closed form over one
    concatenated buffer using modular-inverse position weights.

    NOTE (round 2): this replaced the round-1 FNV-1a-style recurrence
    h = (h ^ byte)·p, whose xor-inside-multiply has no vectorizable closed
    form — rolling64 VALUES changed between rounds. rolling64 is an
    engine-defined auxiliary fingerprint; the cross-round-stable, oracled
    fingerprint is the md5 column."""
    n = len(norms)
    out = np.full(n, _FP_INIT, np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((len(b) for b in norms), np.int64, n)
    total = int(lens.sum())
    if total == 0:
        return out
    cat = np.frombuffer(b"".join(norms), np.uint8).astype(np.uint64)
    ends = np.cumsum(lens)
    starts = ends - lens
    with np.errstate(over="ignore"):
        pows = np.empty(total + 1, np.uint64)
        pows[0] = np.uint64(1)
        np.cumprod(np.full(total, _FP_P, np.uint64), out=pows[1:])
        inv_pows = np.empty(total, np.uint64)
        inv_pows[0] = np.uint64(1)
        if total > 1:
            np.cumprod(np.full(total - 1, _FP_PINV, np.uint64), out=inv_pows[1:])
        g = cat * inv_pows
        nz = lens > 0
        seg = np.add.reduceat(g, starts[nz])
        out[nz] = _FP_INIT * pows[lens[nz]] + seg * pows[ends[nz] - 1]
    return out


def fingerprint(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Document fingerprints: md5 of whitespace-normalized lowercased text
    (SQL twin: DuckDB md5()) plus a 64-bit polynomial rolling hash
    (rolling64_batch — engine-defined, vectorized Horner evaluation)."""

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        norms = [normalize_for_fingerprint(t).encode() for t in texts]
        md5s = [hashlib.md5(b).hexdigest() for b in norms]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "md5": pa.array(md5s, pa.string()),
                "rolling64": pa.array(rolling64_batch(norms)),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow")


# ------------------------------------------------------------- pii_scrub --

# Ordered (name, RE2 pattern, replacement). Order matters: emails and IPs
# contain digit runs, so they are replaced before the bare-number pattern;
# none of the replacement tokens contains a digit, so later patterns never
# re-match earlier replacements. Patterns are RE2-compatible (no lookaround)
# so pyarrow's replace_substring_regex and DuckDB's regexp_replace (both
# RE2) transform identically — that is what makes the driver twin exact.
PII_PATTERNS: list[tuple[str, str, str]] = [
    (
        "email",
        r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
        "<EMAIL>",
    ),
    ("ipv4", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("phone", r"\+?[0-9][0-9() .-]{7,}[0-9]", "<PHONE>"),
    ("number", r"[0-9]+", "<NUM>"),
]


def pii_scrub(ds, text_col: str = "text", id_col: str = "doc_id"):
    """PII redaction → (id, scrubbed, n_redactions): emails, IPv4 addresses,
    phone-shaped digit runs, then residual numbers, replaced by typed
    placeholder tokens. Fully vectorized — both the counting
    (count_substring_regex) and the rewriting (replace_substring_regex) run
    through pyarrow's RE2 kernels, no per-row Python. ``n_redactions`` is
    the total number of non-overlapping matches replaced across all
    patterns, counted at each stage (i.e. on the already-partly-scrubbed
    text, exactly like the staged SQL twin)."""
    import pyarrow.compute as pc

    def scrub(batch: pa.Table) -> pa.Table:
        arr = pc.fill_null(batch.column(text_col).cast(pa.string()), "")
        n_red = np.zeros(len(batch), np.int64)
        for _name, pat, rep in PII_PATTERNS:
            n_red += np.asarray(
                pc.count_substring_regex(arr, pat), np.int64
            )
            arr = pc.replace_substring_regex(arr, pattern=pat, replacement=rep)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "scrubbed": arr,
                "n_redactions": pa.array(n_red),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


# ------------------------------------------------------- repetition_stats --


def _gram_distinct_counts(
    codes: np.ndarray, starts: np.ndarray, counts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc (total, distinct) word-k-gram counts over factorized word
    codes, EXACTLY (no hashing): k-gram identity is the k-tuple of codes,
    deduplicated via np.unique over (doc, code_0..code_{k-1}) rows — the
    same distinct set DuckDB's list_distinct computes over the joined gram
    strings (whitespace-split words contain no spaces, so joining with ' '
    is injective). Vectorized across the whole batch."""
    n = len(counts)
    totals = np.maximum(counts - k + 1, 0)
    total_w = int(totals.sum())
    if total_w == 0:
        return totals, np.zeros(n, np.int64)
    long_idx = np.nonzero(totals > 0)[0]
    wc = totals[long_idx]
    base = np.repeat(starts[long_idx], wc)
    within = np.arange(total_w, dtype=np.int64) - np.repeat(
        np.cumsum(wc) - wc, wc
    )
    pos = base + within
    rows = np.empty((total_w, k + 1), np.int64)
    rows[:, 0] = np.repeat(long_idx, wc)
    for j in range(k):
        rows[:, j + 1] = codes[pos + j]
    uniq = np.unique(rows, axis=0)
    distinct = np.bincount(uniq[:, 0], minlength=n).astype(np.int64)
    return totals, distinct


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Gopher-style repetition signals → (doc_id, n_words, dup_word_frac,
    dup_2gram_frac, dup_3gram_frac) where dup_k_frac = 1 − distinct/total
    over whitespace-word k-grams (0.0 when the doc has no k-grams). Words
    are factorized once per batch; gram distinctness is computed exactly
    (integer code tuples, np.unique) so the DuckDB list_distinct twin
    hash-matches bit-for-bit — the single division and subtraction are the
    same float64 ops on both sides."""

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        n = len(texts)
        word_lists = [(t or "").split() for t in texts]
        counts = np.fromiter((len(w) for w in word_lists), np.int64, n)
        starts = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=starts[1:])
        total = int(counts.sum())
        if total:
            flat = np.empty(total, object)
            p = 0
            for ws in word_lists:
                flat[p : p + len(ws)] = ws
                p += len(ws)
            codes, _uniq = pd.factorize(flat, sort=False)
            codes = codes.astype(np.int64)
        else:
            codes = np.empty(0, np.int64)

        out = {id_col: batch.column(id_col), "n_words": pa.array(counts)}
        for k, col in ((1, "dup_word_frac"), (2, "dup_2gram_frac"),
                       (3, "dup_3gram_frac")):
            totals, distinct = _gram_distinct_counts(
                codes, starts[:-1], counts, k
            )
            frac = np.zeros(n, np.float64)
            nz = totals > 0
            frac[nz] = 1.0 - distinct[nz].astype(np.float64) / totals[nz]
            out[col] = pa.array(frac)
        return pa.table(out)

    return ds.map_batches(stats, batch_format="pyarrow")


# --------------------------------------------------------- text_normalize --

# (pattern, replacement) rewrite chain applied in order, then lowercased.
# RE2-compatible (no lookaround) so pyarrow's replace_substring_regex and
# DuckDB's regexp_replace transform identically; the SQL twin is GENERATED
# from this list (__ray_entry__._text_normalize_sql) so the two sides cannot
# drift. Lowercasing note: pyarrow utf8_lower (utf8proc) and DuckDB lower()
# agree on ASCII; the driver corpora are ASCII (verified, same note as the
# minhash twin).
NORM_STEPS: list[tuple[str, str]] = [
    (r"[\x00-\x1f\x7f]", " "),  # control chars (incl. \t\r\n) → space
    (r" +", " "),               # collapse space runs
    (r"^ | $", ""),             # trim (at most one edge space remains)
]


def text_normalize(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Text canonicalization for dedup/training hygiene → (id, norm_text,
    n_chars_norm): strip control characters, collapse whitespace runs, trim,
    lowercase. Entirely inside pyarrow's RE2 + utf8 kernels — no per-row
    Python."""
    import pyarrow.compute as pc

    def norm(batch: pa.Table) -> pa.Table:
        arr = pc.fill_null(batch.column(text_col).cast(pa.string()), "")
        for pat, rep in NORM_STEPS:
            arr = pc.replace_substring_regex(arr, pattern=pat, replacement=rep)
        arr = pc.utf8_lower(arr)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "norm_text": arr,
                "n_chars_norm": pc.utf8_length(arr).cast(pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


# -------------------------------------------------------------- top_terms --


def characteristic_term(ds, cfg, text_col: str = "text",
                        id_col: str = "doc_id", min_df: int = 1):
    """Characteristic term per document → (id, term, tf, df): the term that
    is most frequent WITHIN the document, with globally RARE terms winning
    ties (total order: tf desc, df asc, term asc) — a deterministic,
    integer-only cousin of argmax-TF-IDF (TF-IDF's float score
    ``tf·ln(N/df)`` is not bit-reproducible across engines; this total order
    is, so the SQL twin hash-matches exactly). Docs with no tokens are
    dropped.

    Two passes, both the house scale shape:
    1. document frequency: per batch, per doc DISTINCT terms → (term,
       partial df) combined map-side (doc_ids are unique per row, so
       per-batch distinct sets are disjoint and partials are exact), ONE
       bucketed exchange on hashed term; the small (term, df) table is then
       broadcast (at open-vocab scale truncate with ``min_df`` — terms
       absent from the broadcast fall back to df=1, the same rare-token
       rule as SIF fit).
    2. per doc: tf via factorize + unique over the batch's flat token
       stream, df from the broadcast map, winner by one lexsort — no
       per-doc loop.
    """
    import ray

    from ..functions.tokenizer import tokenize_many
    from .dedup import hash64_strs

    nb = cfg.num_buckets
    # both passes need only (id, text): project before streaming so unused
    # payload columns are never deserialized (twice) at corpus scale
    ds = ds.select_columns([id_col, text_col])

    def _flat_codes(texts):
        """(codes, doc_idx, uniq): lexicographically-coded flat token stream
        of a batch (factorize(sort=True) ⇒ code order == term order)."""
        tok_lists = tokenize_many(texts)
        counts = np.fromiter((len(t) for t in tok_lists), np.int64,
                             len(tok_lists))
        total = int(counts.sum())
        flat = np.empty(total, object)
        p = 0
        for ts in tok_lists:
            flat[p : p + len(ts)] = ts
            p += len(ts)
        codes, uniq = pd.factorize(flat, sort=True)
        doc_idx = np.repeat(np.arange(len(tok_lists), dtype=np.int64), counts)
        return codes.astype(np.int64), doc_idx, uniq

    def df_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        codes, doc_idx, uniq = _flat_codes(texts)
        if len(uniq) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "_bucket": pa.array([], pa.int32())})
        # distinct (doc, term) pairs → per-term doc counts, all vectorized
        pair = np.unique(doc_idx * len(uniq) + codes)
        dfc = np.bincount(pair % len(uniq), minlength=len(uniq))
        uh = hash64_strs(uniq)
        return pa.table(
            {
                "term": pa.array(list(uniq), pa.string()),
                "df": pa.array(dfc.astype(np.int64)),
                "_bucket": pa.array((uh % np.uint64(nb)).astype(np.int32)),
            }
        )

    def df_combine(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("term", sort=False, observed=True)["df"]
            .sum()
            .reset_index()
        )
        g["df"] = g["df"].astype("int64")
        return g[g["df"] >= min_df]

    df_tbl = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(df_combine, batch_format="pandas")
        .to_pandas()
    )
    df_map_ref = ray.put(
        dict(zip(df_tbl["term"].tolist(), df_tbl["df"].tolist()))
    )

    def pick(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import cached_get

        df_map = cached_get(df_map_ref)
        texts = batch.column(text_col).to_pylist()
        codes, doc_idx, uniq = _flat_codes(texts)
        if len(uniq) == 0:
            return pa.table(
                {
                    id_col: pa.array([], batch.column(id_col).type),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                }
            )
        # (doc, term) → tf in one unique-with-counts over the flat stream
        pair, tf = np.unique(doc_idx * len(uniq) + codes, return_counts=True)
        p_doc = pair // len(uniq)
        p_code = (pair % len(uniq)).astype(np.int64)
        uniq_df = (
            pd.Series(list(uniq)).map(df_map).fillna(1).to_numpy(np.int64)
        )
        p_df = uniq_df[p_code]
        # winner per doc under (tf desc, df asc, term asc): lexsort keys are
        # least-significant first; p_code ascends lexicographically
        order = np.lexsort((p_code, p_df, -tf, p_doc))
        first = np.ones(len(order), bool)
        first[1:] = p_doc[order][1:] != p_doc[order][:-1]
        win = order[first]
        take = pa.array(p_doc[win])
        return pa.table(
            {
                id_col: batch.column(id_col).take(take),
                "term": pa.array([uniq[c] for c in p_code[win]], pa.string()),
                "tf": pa.array(tf[win].astype(np.int64)),
                "df": pa.array(p_df[win]),
            }
        )

    return ds.map_batches(pick, batch_format="pyarrow")


# ------------------------------------------------------- json field extract --


def json_field_extract(
    ds,
    json_col: str,
    field: str,
    *,
    out_col: str | None = None,
    out_type: str = "int",
    keep_cols: list[str] | None = None,
):
    """Extract one scalar field from a FLAT-JSON string column (the
    structured-props shape of event streams) entirely inside pyarrow's RE2
    ``extract_regex`` kernel — no per-row Python, no JSON parser object per
    row. Missing field / no match → NULL.

    This is deliberately the regex fast path for flat, known-schema props
    (``{"k": 69}``); it does NOT handle nested objects or escaped quotes in
    values — at 100 TB a known-flat-schema extraction is a column scan,
    while general JSON parsing is a per-row CPU sink. ``out_type``: "int"
    (``-?\\d+``) or "str" (double-quoted value, no escapes). The SQL twin is
    DuckDB ``regexp_extract`` — the same RE2 engine, so matches are
    identical by construction."""
    import pyarrow.compute as pc

    if out_type not in ("int", "str"):
        raise ValueError(f"out_type must be 'int' or 'str', got {out_type!r}")
    out_col = out_col or field
    if out_type == "int":
        pattern = f'"{field}"\\s*:\\s*(?P<v>-?\\d+)'
    else:
        pattern = f'"{field}"\\s*:\\s*"(?P<v>[^"]*)"'

    def extract(t: pa.Table) -> pa.Table:
        src = pc.fill_null(pc.cast(t.column(json_col), pa.string()), "")
        st = pc.extract_regex(src, pattern)
        v = pc.struct_field(st, "v")
        if out_type == "int":
            v = pc.cast(v, pa.int64())
        cols = {c: t.column(c) for c in (keep_cols or [])}
        cols[out_col] = v
        return pa.table(cols)

    return ds.map_batches(extract, batch_format="pyarrow")


def ngram_counts(
    ds,
    cfg,
    *,
    text_col: str = "text",
    ngram: int = 2,
    min_count: int = 2,
):
    """Corpus n-gram count table — (gram, count) over word n-grams, the LM
    statistic behind contamination checks, Kneser-Ney tables, and repeated-
    boilerplate mining. Occurrence counts (not per-doc distinct); docs
    shorter than ``ngram`` tokens contribute nothing (standard count-table
    definition — unlike the dedup family's short-doc fold).

    Scale shape: gram strings are built vectorized over each batch's
    concatenated token array (cross-doc windows masked), pre-combined into
    per-batch (gram, count) partials, then ONE bucketed exchange with a
    pandas combine per bucket — the token_frequencies shape; the
    ``min_count`` truncation applies after the global combine (exact), and
    at web scale it is what keeps the result table bounded (the count-1
    tail is the vast majority of distinct grams)."""
    from ..functions.tokenizer import tokenize_many
    from .canonicalize import bucket_of

    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    nb = cfg.num_buckets

    def partial(batch: pa.Table) -> pd.DataFrame:
        texts = batch.column(text_col).to_pylist()
        tok_lists = tokenize_many(texts)
        counts = np.fromiter(
            (len(t) for t in tok_lists), np.int64, len(tok_lists)
        )
        total = int(counts.sum())
        flat = np.empty(total, object)
        p = 0
        for ts in tok_lists:
            flat[p : p + len(ts)] = ts
            p += len(ts)
        nw = total - ngram + 1
        empty = pd.DataFrame(
            {
                "gram": pd.array([], dtype="string"),
                "count": pd.Series(dtype=np.int64),
                "_bucket": pd.Series(dtype=np.int32),
            }
        )
        if nw <= 0:
            return empty
        grams = flat[:nw].copy()
        for j in range(1, ngram):
            grams = grams + " "
            grams = grams + flat[j : nw + j]
        # mask windows that cross a document boundary
        starts = np.zeros(len(tok_lists) + 1, np.int64)
        np.cumsum(counts, out=starts[1:])
        doc_idx = np.repeat(
            np.arange(len(tok_lists), dtype=np.int64), counts
        )[:nw]
        keep = starts[doc_idx + 1] - np.arange(nw, dtype=np.int64) >= ngram
        if not keep.any():
            return empty
        vc = pd.Series(grams[keep]).value_counts(sort=False)
        g = pd.DataFrame(
            {
                "gram": pd.array(vc.index.to_numpy(object), dtype="string"),
                "count": vc.to_numpy(np.int64),
            }
        )
        g["_bucket"] = bucket_of(g["gram"].astype(object), nb)
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby("gram", sort=False)
            .agg(count=("count", "sum"))
            .reset_index()
        )
        return out[out["count"] >= min_count]

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def span_extract(
    ds,
    pattern: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Regex span extraction — explode every non-overlapping match of
    ``pattern`` into its own row: (id, match_idx:int64, match:string) with
    ``match_idx`` the 0-based leftmost-to-rightmost ordinal within the
    document. NULL text matches nothing. The eval-mining / targeted-scrub
    primitive (find every code block / citation / id-like span in a
    corpus); the row-expansion dual of ``pii_scrub``'s in-place rewrite.

    Pure map-side row expansion — no shuffle, no state. The regex is
    compiled once per task; per batch the per-row match lists are
    flattened with ONE concatenate and ordinals come from index
    arithmetic, so Python-level work is the C regex loop itself.
    Restrict ``pattern`` to constructs Python ``re`` and RE2 share
    (char classes, quantifiers, alternation — no lookaround) so the
    DuckDB ``regexp_extract_all`` twin matches span-for-span.
    """
    from itertools import chain

    rx = re.compile(pattern)

    def expand(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t.column(text_col), pa.string()), "")
        finditer = rx.finditer
        # group(0), not findall: findall returns CAPTURE contents (or
        # tuples) when the pattern has groups — regexp_extract_all and the
        # documented contract are full-match
        lists = [
            [m.group(0) for m in finditer(s)] for s in txt.to_pylist()
        ]
        counts = np.fromiter((len(x) for x in lists), np.int64, len(lists))
        total = int(counts.sum())
        ids = t.column(id_col)
        if total == 0:
            return pa.table(
                {
                    id_col: pa.array([], ids.type),
                    "match_idx": pa.array([], pa.int64()),
                    "match": pa.array([], pa.string()),
                }
            )
        flat = np.fromiter(chain.from_iterable(lists), object, total)
        prior = np.concatenate(([0], np.cumsum(counts)[:-1]))
        seg = np.repeat(np.arange(len(counts)), counts)
        idx = np.arange(total, dtype=np.int64) - prior[seg]
        return pa.table(
            {
                id_col: pc.take(ids, pa.array(seg, pa.int64())),
                "match_idx": pa.array(idx),
                "match": pa.array(flat, pa.string()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        expand, batch_format="pyarrow"
    )


def cooccurrence(
    ds,
    cfg,
    *,
    text_col: str = "text",
    min_count: int = 1,
):
    """Document-level token cooccurrence — for every unordered token pair
    (a < b lexicographically), the number of documents containing BOTH:
    the corpus-analytics primitive behind PMI tables, topic seeds and
    collocation mining. Emits (token_a, token_b, n_both:int64) with
    ``n_both >= min_count``. NULL/empty docs contribute nothing.

    Vectorized via GEMM, not pair enumeration: per batch, the distinct
    doc×term incidence matrix M (float64 0/1 over the batch's OWN term
    universe) gives all pair counts at once as the upper triangle of
    MᵀM — one BLAS call instead of per-doc combination loops; doc ids are
    unique per row, so per-batch partials are disjoint in docs and sum
    exactly. Only (term_a, term_b, partial) rows ride ONE bucketed
    exchange on hash(a||b). Guard: a batch with more than 4096 distinct
    terms falls back to sorted pair counting (the incidence GEMM is
    O(u²) memory) — same output, pinned by a parity test.
    """
    from itertools import chain

    from ..functions.tokenizer import tokenize_many
    from .dedup import hash64_strs

    nb = cfg.num_buckets
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")

    def partial(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t.column(text_col), pa.string()), "")
        toks = tokenize_many(txt.to_pylist())
        counts = np.fromiter((len(x) for x in toks), np.int64, len(toks))
        total = int(counts.sum())
        empty = pa.table(
            {
                "a": pa.array([], pa.string()),
                "b": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "_bucket": pa.array([], pa.int32()),
            }
        )
        if total == 0:
            return empty
        flat = np.fromiter(chain.from_iterable(toks), object, total)
        codes, uniq = pd.factorize(flat, sort=True)  # codes ordered a < b
        u = len(uniq)
        doc_idx = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
        if u <= 4096:
            m = np.zeros((len(toks), u), np.float64)
            m[doc_idx, codes] = 1.0
            cm = m.T @ m  # doc counts; diagonal = per-term doc freq
            ia, ib = np.triu_indices(u, k=1)
            n = cm[ia, ib].astype(np.int64)
            keep = n > 0
            ia, ib, n = ia[keep], ib[keep], n[keep]
        else:
            # sorted distinct (doc, code) pairs → per-doc segments → pair
            # enumeration bounded by Σ k_d² (no dense u² matrix)
            pair_keys = np.unique(doc_idx * np.int64(u) + codes)
            d = pair_keys // u
            c = (pair_keys % u).astype(np.int64)
            seg_starts = np.flatnonzero(
                np.r_[True, d[1:] != d[:-1]]
            )
            seg_lens = np.diff(np.r_[seg_starts, len(d)])
            ia_l, ib_l = [], []
            for s, ln in zip(seg_starts, seg_lens):
                if ln < 2:
                    continue
                cc = c[s : s + ln]
                i1, i2 = np.triu_indices(ln, k=1)
                ia_l.append(cc[i1])
                ib_l.append(cc[i2])
            if not ia_l:
                return empty
            pk = np.concatenate(ia_l) * np.int64(u) + np.concatenate(ib_l)
            upair, n = np.unique(pk, return_counts=True)
            ia = (upair // u).astype(np.int64)
            ib = (upair % u).astype(np.int64)
            n = n.astype(np.int64)
        if len(ia) == 0:
            return empty
        a = uniq[ia].astype(object)
        b = uniq[ib].astype(object)
        h = hash64_strs(
            np.char.add(np.char.add(a.astype(str), "\x1f"), b.astype(str))
            .astype(object)
        )
        return pa.table(
            {
                "a": pa.array(a, pa.string()),
                "b": pa.array(b, pa.string()),
                "n": pa.array(n),
                "_bucket": pa.array(
                    (h % np.uint64(nb)).astype(np.int32)
                ),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "token_a": pd.Series(dtype=object),
                    "token_b": pd.Series(dtype=object),
                    "n_both": pd.Series(dtype=np.int64),
                }
            )
        g = df.groupby(["a", "b"], sort=False, observed=True)["n"].sum()
        g = g[g >= min_count].reset_index()
        return pd.DataFrame(
            {
                "token_a": g["a"].to_numpy(object),
                "token_b": g["b"].to_numpy(object),
                "n_both": g["n"].to_numpy(np.int64),
            }
        )

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def bigram_familiarity(
    ds,
    cfg,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_count: int = 2,
):
    """Integer LM-familiarity quality score — for each document, the sum
    over its bigram OCCURRENCES of that bigram's corpus count (from the
    ``min_count``-truncated :func:`ngram_counts` table; unseen/truncated
    bigrams add 0). High = boilerplate-like/common phrasing, low =
    out-of-distribution text — the exact-integer stand-in for an n-gram-LM
    log-prob screen (no ``log``/float on either side, so the SQL twin
    matches bit-for-bit). Emits (doc_id, n_bigrams:int64,
    familiarity:int64); docs with < 2 tokens score (0, 0).

    Scale shape: the count table is built distributed (bucketed exchange),
    and the ``min_count`` truncation is what BOUNDS it before the driver
    collects + ``ray.put``s it as sorted (gram-hash, count) arrays — the
    same truncation-before-collection rule as SIF weights and the same
    broadcast pattern as decontaminate. The corpus then streams through
    ONE map pass: vectorized gram build, searchsorted lookup, one bincount
    per batch for the per-doc sums. Gram identity is md5-lower64 (repo
    collision caveat).
    """
    import ray

    from .dedup import hash64_strs

    counts = ngram_counts(
        ds, cfg, text_col=text_col, ngram=2, min_count=min_count
    ).to_pandas()
    if len(counts):
        h = hash64_strs(counts["gram"].to_numpy(object))
        order = np.argsort(h)
        bc = (h[order], counts["count"].to_numpy(np.int64)[order])
    else:
        bc = (np.empty(0, np.uint64), np.empty(0, np.int64))
    bc_ref = ray.put(bc)

    def score(batch: pa.Table) -> pa.Table:
        from itertools import chain

        from ..functions.tokenizer import tokenize_many
        from ..state.broadcast import cached_get

        gh, gc = cached_get(bc_ref)
        toks = tokenize_many(
            pc.fill_null(
                pc.cast(batch.column(text_col), pa.string()), ""
            ).to_pylist()
        )
        n = len(toks)
        counts_ = np.fromiter((len(x) for x in toks), np.int64, n)
        total = int(counts_.sum())
        n_bigrams = np.maximum(counts_ - 1, 0)
        fam = np.zeros(n, np.int64)
        nw = total - 1
        if nw > 0:
            flat = np.fromiter(chain.from_iterable(toks), object, total)
            grams = flat[:nw] + " "
            grams = grams + flat[1 : nw + 1]
            starts = np.zeros(n + 1, np.int64)
            np.cumsum(counts_, out=starts[1:])
            doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts_)[:nw]
            keep = starts[doc_idx + 1] - np.arange(nw, dtype=np.int64) >= 2
            if keep.any() and len(gh):
                g = grams[keep]
                d = doc_idx[keep]
                hh = hash64_strs(g)
                pos = np.searchsorted(gh, hh)
                pos[pos >= len(gh)] = 0
                c = np.where(gh[pos] == hh, gc[pos], 0)
                if int(c.sum()) < (1 << 53):  # float64 path stays exact
                    fam = np.bincount(
                        d, weights=c.astype(np.float64), minlength=n
                    ).astype(np.int64)
                else:
                    fam = np.zeros(n, np.int64)
                    np.add.at(fam, d, c)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_bigrams": pa.array(n_bigrams),
                "familiarity": pa.array(fam),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )


def blocklist_regex(terms: list[str]) -> str:
    """The single whole-word alternation both the engine and the SQL twin
    compile — generated from one list so they cannot drift (the
    PII_PATTERNS discipline). Terms must be lowercase word characters."""
    import re as _re

    for t in terms:
        if not t or _re.fullmatch(r"[a-z0-9_]+", t) is None:
            raise ValueError(f"blocklist term must be lowercase \\w+: {t!r}")
    return r"\b(" + "|".join(terms) + r")\b"


def blocklist_filter(
    ds,
    terms: list[str],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Content-policy wordlist screening (the C4 'bad words' filter shape):
    per doc, the number of whole-word blocklist hits (case-insensitive) and
    a flag. Counting runs entirely inside pyarrow's RE2 kernel over the
    lowercased text — no per-row Python; DuckDB's regexp functions are the
    same RE2 engine, so counts are exact on both sides. Output
    (id, n_blocked, flagged)."""
    import pyarrow.compute as pc

    pat = blocklist_regex(terms)

    def scan(batch: pa.Table) -> pa.Table:
        arr = pc.utf8_lower(
            pc.fill_null(batch.column(text_col).cast(pa.string()), "")
        )
        n = np.asarray(pc.count_substring_regex(arr, pat), np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_blocked": pa.array(n),
                "flagged": pa.array(n > 0),
            }
        )

    return ds.map_batches(scan, batch_format="pyarrow")


def template_shapes(
    ds,
    cfg=None,
    *,
    text_col: str = "text",
    min_docs: int = 2,
):
    """Log-template mining (Drain-lite): collapse every digit run to '#'
    and report each resulting shape with its row count (shapes seen ≥
    ``min_docs`` times are the templates; the variable parts are the
    numbers). The normalization is ONE RE2 replace kernel per batch —
    identical to the twin's regexp_replace(text, '[0-9]+', '#', 'g').
    Output (shape, n_docs).

    Scale shape: per-batch (shape, count) partials — bounded by distinct
    shapes, which template-structured data keeps tiny — on ONE bucketed
    exchange; the row stream never moves."""
    import pyarrow.compute as pc

    from ..config import EngineConfig

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        shapes = pc.replace_substring_regex(
            pa.array(df[text_col].fillna(""), pa.string()),
            pattern="[0-9]+",
            replacement="#",
        ).to_pandas()
        g = shapes.value_counts()
        return pd.DataFrame(
            {
                "_s": g.index.values,
                "_c": g.to_numpy(np.int64),
                "_bucket": (
                    id_hash(g.index.values) % np.uint64(nb)
                ).astype("int32"),
            }
        )

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        agg = g.groupby("_s", sort=False)["_c"].sum().reset_index()
        agg = agg[agg["_c"] >= min_docs]
        return pd.DataFrame(
            {
                "shape": agg["_s"].values,
                "n_docs": agg["_c"].to_numpy(np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def gazetteer_tag(
    ds,
    terms: list[str],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Dictionary-based entity tagging (gazetteer weak labeling): one output
    row per (doc, matched term) with the whole-word case-insensitive hit
    count — the distant-supervision primitive for NER-style labeling.
    Per term, ONE RE2 count kernel over the lowercased batch (the term list
    is caller-bounded); rows explode map-side, no shuffle. The SQL twin is
    GENERATED from the same term list (the pii_scrub discipline). Output
    (id, term, n_hits ≥ 1)."""
    import pyarrow.compute as pc

    from .textstats import blocklist_regex  # validates term syntax

    blocklist_regex(terms)  # raise early on invalid terms

    def tag(batch: pa.Table) -> pa.Table:
        arr = pc.utf8_lower(
            pc.fill_null(batch.column(text_col).cast(pa.string()), "")
        )
        ids = batch.column(id_col)
        out_ids, out_terms, out_n = [], [], []
        for term in terms:
            n = np.asarray(
                pc.count_substring_regex(arr, r"\b" + term + r"\b"),
                np.int64,
            )
            hit = np.nonzero(n > 0)[0]
            if len(hit):
                out_ids.append(ids.take(pa.array(hit, pa.int64())))
                out_terms.append(
                    pa.array(np.full(len(hit), term, object), pa.string())
                )
                out_n.append(pa.array(n[hit]))
        if not out_ids:
            return pa.table(
                {
                    id_col: ids.slice(0, 0),
                    "term": pa.array([], pa.string()),
                    "n_hits": pa.array([], pa.int64()),
                }
            )
        import pyarrow as _pa

        return pa.table(
            {
                id_col: _pa.concat_arrays(
                    [c.combine_chunks() if isinstance(c, _pa.ChunkedArray)
                     else c for c in out_ids]
                ),
                "term": _pa.concat_arrays(out_terms),
                "n_hits": _pa.concat_arrays(out_n),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def skipgram_cooccurrence(
    ds,
    cfg,
    *,
    text_col: str = "text",
    window: int = 2,
    min_count: int = 1,
):
    """Skip-gram window cooccurrence — OCCURRENCE counts of ordered
    positional token pairs (t[i], t[i+d]) for 1 ≤ d ≤ ``window`` within a
    document (the word2vec / PMI-table preprocessing statistic; the
    positional complement to document-level ``cooccurrence``). Emits
    (token_a, token_b, n:int64) with n ≥ ``min_count`` — token_a is the
    EARLIER token, pairs are ordered, and every occurrence counts (not
    per-doc distinct).

    Scale shape: per batch ONE tokenize pass builds the concatenated
    token-code array (factorize once); each of the ``window`` shifted
    compares masks cross-doc windows and bincounts pair codes — no pair
    enumeration in Python. Per-batch (a, b, n) partials ride ONE bucketed
    exchange on hash(a‖b); min_count filters AFTER the global combine
    (all rows of a pair co-locate), bounding the zipfian count-1 tail's
    exit from each bucket task."""
    import pandas as pd

    from ..functions.tokenizer import tokenize_many
    from ..stages.canonicalize import bucket_of

    nb = cfg.num_buckets
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_many(t.column(text_col).to_pylist())
        counts = np.fromiter((len(x) for x in toks), np.int64, len(toks))
        total = int(counts.sum())
        empty = pd.DataFrame(
            {
                "token_a": pd.Series(dtype=object),
                "token_b": pd.Series(dtype=object),
                "n": pd.Series(dtype=np.int64),
                "_bucket": pd.Series(dtype=np.int32),
            }
        )
        if total == 0:
            return empty
        flat = np.empty(total, object)
        pos = 0
        for x in toks:
            flat[pos : pos + len(x)] = x
            pos += len(x)
        codes, uniq = pd.factorize(flat, sort=False)
        u = len(uniq)
        doc = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
        pair_parts = []
        for d in range(1, window + 1):
            if total <= d:
                break
            same = doc[d:] == doc[:-d]
            a = codes[:-d][same].astype(np.int64)
            b = codes[d:][same].astype(np.int64)
            pair_parts.append(a * u + b)
        if not pair_parts:
            return empty
        pairs = np.concatenate(pair_parts)
        uniq_pairs, n = np.unique(pairs, return_counts=True)
        ua = uniq[uniq_pairs // u]
        ub = uniq[uniq_pairs % u]
        df = pd.DataFrame(
            {
                "token_a": ua,
                "token_b": ub,
                "n": n.astype(np.int64),
            }
        )
        df["_bucket"] = bucket_of(
            df["token_a"].astype(str) + "\x00" + df["token_b"].astype(str),
            nb,
        )
        return df

    def combine(g: pd.DataFrame) -> pa.Table:
        c = (
            g.groupby(["token_a", "token_b"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        c = c[c["n"] >= min_count]
        return pa.table(
            {
                "token_a": pa.array(
                    c["token_a"].to_numpy(object), pa.string()
                ),
                "token_b": pa.array(
                    c["token_b"].to_numpy(object), pa.string()
                ),
                "n": pa.array(c["n"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def surprisal(ds, cfg, *, text_col: str = "text",
              id_col: str = "doc_id"):
    """Integer-bits unigram surprisal score per document — the coarse
    LM-quality filter: bits = Σ_tokens (⌊log₂ N⌋ − ⌊log₂ c(token)⌋) where
    c is the corpus-global token count and N the corpus token total.
    Rare-token-heavy documents score high (gibberish / OCR noise), and
    keeping the per-token surprisal an exact INTEGER bit count (⌊log₂⌋
    of an int64 via exponent extraction, never float ln) makes the sum
    order-independent and bit-reproducible in the SQL twin
    (``length(printf('%b', c)) - 1``). Exact while counts < 2⁵³ (beyond
    that the int→float conversion inside frexp rounds). Emits
    (id_col, n_tokens:int64, bits:int64); empty/null docs score (0, 0).

    Scale shape: ONE frequency exchange (vocabulary-bounded partial
    counts, the ``token_frequencies`` kernel) builds the count table; it
    ships to workers as sorted-hash plasma blocks (HashedWeightsHandle —
    O(1) driver memory, zero-copy per process) with weight = ⌊log₂ c⌋;
    the corpus then streams shuffle-free, each batch scoring its docs via
    one vectorized hash-probe + reduceat."""
    import ray

    from ..functions.tokenizer import tokenize_many
    from ..state.lookup import HashedWeightsHandle, hash_tokens_2x
    from .embed import token_frequencies

    def ilog2(c: np.ndarray) -> np.ndarray:
        return (np.frexp(c.astype(np.float64))[1] - 1).astype(np.int64)

    def to_hashed(t: pa.Table) -> pa.Table:
        toks = np.asarray(t.column("token").to_pylist(), dtype=object)
        h1, h2 = hash_tokens_2x(toks)
        c = np.asarray(t.column("count"), np.int64)
        return pa.table(
            {
                "_h1": pa.array(h1),
                "_h2": pa.array(h2),
                "_w": pa.array(ilog2(c).astype(np.float64)),
            }
        )

    freq = token_frequencies(ds, text_col, cfg).materialize()
    from ray.data.aggregate import Sum

    agg = freq.aggregate(Sum("count"))
    total = int(agg["sum(count)"] or 0) if agg else 0
    lg_n = int(ilog2(np.array([max(total, 1)], np.int64))[0])
    hashed = freq.map_batches(to_hashed, batch_format="pyarrow").materialize()
    handle = HashedWeightsHandle(
        hashed.to_arrow_refs() if hashed.count() > 0 else []
    )

    def score(t: pa.Table) -> pa.Table:
        w = handle.resolve()
        toks = tokenize_many(t.column(text_col).to_pylist())
        counts = np.fromiter(
            (len(x) for x in toks), np.int64, len(toks)
        )
        total_toks = int(counts.sum())
        if total_toks == 0:
            lg_sum = np.zeros(len(toks), np.int64)
        else:
            flat = np.empty(total_toks, object)
            pos = 0
            for x in toks:
                flat[pos : pos + len(x)] = x
                pos += len(x)
            # every token was counted in this same corpus: no OOV
            lg = w.get_many(flat).astype(np.int64)
            offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
            lg_sum = np.zeros(len(toks), np.int64)
            nz = counts > 0
            lg_sum[nz] = np.add.reduceat(lg, offs[nz])
        return pa.table(
            {
                id_col: t.column(id_col),
                "n_tokens": pa.array(counts),
                "bits": pa.array(counts * lg_n - lg_sum),
            }
        )

    out = ds.map_batches(score, batch_format="pyarrow")
    out._surprisal_pin = (hashed, handle)  # pin plasma blocks
    return out


def readability(ds, cfg=None, *, text_col: str = "text",
                id_col: str = "doc_id"):
    """Readability SUFFICIENT STATISTICS per document — the three integer
    counts behind Flesch-style formulas (words per sentence, syllables
    per word), emitted raw so the one float formula stays with the
    consumer: (id, n_words, n_sentences, n_vowel_groups) with

        n_words        = maximal non-whitespace runs        \\S+
        n_sentences    = maximal sentence-terminator runs   [.!?]+
        n_vowel_groups = maximal vowel runs (the classic    [aeiouyAEIOUY]+
                         syllable estimate)

    All three run entirely inside pyarrow's RE2 ``count_substring_regex``
    kernel — no per-row Python — and DuckDB's regexp functions use the
    same RE2 engine, so the counts are exact in the SQL twin (the
    ``bpe_token_count`` precedent). Null text counts as empty.

    Scale shape: a pure streaming map; nothing is exchanged."""
    import pyarrow.compute as pc

    def stats(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t.column(text_col), pa.string()), "")
        return pa.table(
            {
                id_col: t.column(id_col),
                "n_words": pc.cast(
                    pc.count_substring_regex(txt, r"\S+"), pa.int64()
                ),
                "n_sentences": pc.cast(
                    pc.count_substring_regex(txt, r"[.!?]+"), pa.int64()
                ),
                "n_vowel_groups": pc.cast(
                    pc.count_substring_regex(txt, r"[aeiouyAEIOUY]+"),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def proximity_search(ds, cfg=None, *, term_a: str, term_b: str,
                     window: int = 3, text_col: str = "text",
                     id_col: str = "doc_id"):
    """Positional proximity search — the phrase/near-query primitive on
    top of an inverted index: for two DISTINCT terms, every document
    where they co-occur within ``window`` token positions, with the
    exact pair count and closest gap: (id, n_pairs, min_gap) where
    n_pairs = |{(i, j) : tok_i = a, tok_j = b, |i − j| ≤ window}| and
    min_gap = min |i − j| (positions 1-based under the basic_english
    tokenizer, the ``skipgram`` convention). Docs with no qualifying
    pair are absent.

    Scale shape: a pure streaming map — per batch the token stream
    flattens once, term positions key as doc·2³² + pos, and the pair
    count per ``a`` occurrence is two searchsorted probes into the
    ``b`` positions (the closest-gap probe is the same two neighbors);
    no exchange, no per-row Python loop."""
    from ..functions.tokenizer import tokenize_many

    if term_a == term_b:
        raise ValueError("term_a and term_b must differ")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    BIG = np.int64(1) << np.int64(32)

    def score(t: pa.Table) -> pa.Table:
        toks = tokenize_many(t.column(text_col).to_pylist())
        counts = np.fromiter((len(x) for x in toks), np.int64, len(toks))
        total = int(counts.sum())
        empty = pa.table(
            {
                id_col: t.column(id_col).slice(0, 0),
                "n_pairs": pa.array([], pa.int64()),
                "min_gap": pa.array([], pa.int64()),
            }
        )
        if total == 0:
            return empty
        flat = np.empty(total, object)
        pos = 0
        for x in toks:
            flat[pos : pos + len(x)] = x
            pos += len(x)
        doc_of = np.repeat(np.arange(len(toks), dtype=np.int64), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # 1-based position within the doc
        p = np.arange(total, dtype=np.int64) - starts[doc_of] + 1
        am = flat == term_a
        bm = flat == term_b
        if not am.any() or not bm.any():
            return empty
        ka = doc_of[am] * BIG + p[am]
        kb = doc_of[bm] * BIG + p[bm]  # ascending by construction
        w = np.int64(window)
        lo = np.maximum(p[am] - w, 1) + doc_of[am] * BIG
        hi = ka + w
        li = np.searchsorted(kb, lo, side="left")
        ri = np.searchsorted(kb, hi, side="right")
        cnt = ri - li
        n_pairs = np.zeros(len(toks), np.int64)
        np.add.at(n_pairs, doc_of[am], cnt)
        # closest b per a: the two candidates around the insertion point
        ins = np.searchsorted(kb, ka)
        gap = np.full(len(ka), np.iinfo(np.int64).max, np.int64)
        right_ok = ins < len(kb)
        ri2 = np.clip(ins, 0, len(kb) - 1)
        same = right_ok & (kb[ri2] // BIG == doc_of[am])
        gap[same] = np.abs(kb[ri2][same] - ka[same])
        left_ok = ins > 0
        li2 = np.clip(ins - 1, 0, len(kb) - 1)
        same_l = left_ok & (kb[li2] // BIG == doc_of[am])
        gap[same_l] = np.minimum(
            gap[same_l], np.abs(ka[same_l] - kb[li2][same_l])
        )
        min_gap = np.full(len(toks), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(min_gap, doc_of[am], gap)
        keep = n_pairs > 0
        return pa.table(
            {
                id_col: t.column(id_col).take(
                    pa.array(np.nonzero(keep)[0])
                ),
                "n_pairs": pa.array(n_pairs[keep]),
                "min_gap": pa.array(min_gap[keep]),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def doc_keywords(ds, cfg=None, *, k: int = 3, text_col: str = "text",
                 id_col: str = "doc_id"):
    """Per-document keyword extraction — top-``k`` tokens by the
    integer-bits TF-IDF score

        score(doc, tok) = tf(doc, tok) · (⌊log₂ N_docs⌋ − ⌊log₂ df(tok)⌋)

    (tf = in-doc occurrences, df = documents containing the token,
    N_docs = corpus document count) under the total order (score desc,
    token asc), rank 1-based. The bit-count IDF is the ``surprisal``
    trick: exponent extraction keeps every score an exact int64 so the
    ranking is bit-reproducible and SQL-twinnable. Ubiquitous tokens
    (df ≈ N) score 0 but still rank. Docs with no tokens emit nothing.
    Output (id, token, score:int64, rank:int64).

    Scale shape: ONE vocabulary-bounded exchange builds the document-
    frequency table from map-side-deduped (token, doc) partials; weights
    ship as sorted-hash plasma blocks (HashedWeightsHandle); the corpus
    then streams shuffle-free — per batch one tokenize + groupby-count +
    segment top-k (each doc is one row, so its tokens never cross a
    batch)."""
    from ..functions.tokenizer import tokenize_many
    from ..state.lookup import HashedWeightsHandle, hash_tokens_2x

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def ilog2(c: np.ndarray) -> np.ndarray:
        return (np.frexp(c.astype(np.float64))[1] - 1).astype(np.int64)

    # document-frequency exchange: map-side per-batch DISTINCT (token, doc)
    # collapses to per-token doc counts, bucketed on the token hash (the
    # token_frequencies exchange shape with docs-counted partials)
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    nb = (cfg or EngineConfig()).num_buckets

    def df_partial(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_many(t.column(text_col).to_pylist())
        c = pd.Series(
            [tok for x in toks for tok in set(x)], dtype=object
        ).value_counts()
        return pd.DataFrame(
            {
                "token": c.index.to_numpy(object),
                "count": c.to_numpy(np.int64),
                "_bucket": bucket_of(
                    pd.Series(c.index.to_numpy(object)), nb
                ),
            }
        )

    def df_combine(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("token", sort=False)["count"].sum()
        return pd.DataFrame(
            {
                "token": c.index.to_numpy(object),
                "count": c.to_numpy(np.int64),
            }
        )

    n_docs = ds.count()
    lg_n = int(ilog2(np.array([max(n_docs, 1)], np.int64))[0])
    df_tab = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(df_combine, batch_format="pandas")
        .materialize()
    )

    def to_hashed(t: pa.Table) -> pa.Table:
        toks = np.asarray(t.column("token").to_pylist(), dtype=object)
        h1, h2 = hash_tokens_2x(toks)
        dfc = np.asarray(t.column("count"), np.int64)
        return pa.table(
            {
                "_h1": pa.array(h1),
                "_h2": pa.array(h2),
                "_w": pa.array((lg_n - ilog2(dfc)).astype(np.float64)),
            }
        )

    hashed = df_tab.map_batches(
        to_hashed, batch_format="pyarrow"
    ).materialize()
    handle = HashedWeightsHandle(
        hashed.to_arrow_refs() if hashed.count() > 0 else []
    )

    def score(t: pa.Table) -> pa.Table:
        w = handle.resolve()
        toks = tokenize_many(t.column(text_col).to_pylist())
        rows_id, rows_tok, rows_tf = [], [], []
        for i, x in enumerate(toks):
            if not x:
                continue
            s = pd.Series(x).value_counts()
            rows_id.extend([i] * len(s))
            rows_tok.extend(s.index)
            rows_tf.extend(s.to_numpy())
        if not rows_id:
            return pa.table(
                {
                    id_col: t.column(id_col).slice(0, 0),
                    "token": pa.array([], pa.string()),
                    "score": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        tok_arr = np.asarray(rows_tok, object)
        sc = np.asarray(rows_tf, np.int64) * w.get_many(tok_arr).astype(
            np.int64
        )
        df = pd.DataFrame(
            {"i": np.asarray(rows_id, np.int64), "token": tok_arr,
             "score": sc}
        ).sort_values(["i", "score", "token"],
                      ascending=[True, False, True], kind="mergesort")
        top = df.groupby("i", sort=False).head(k)
        rank = top.groupby("i", sort=False).cumcount() + 1
        return pa.table(
            {
                id_col: t.column(id_col).take(
                    pa.array(top["i"].to_numpy(np.int64))
                ),
                "token": pa.array(top["token"].to_numpy(object),
                                  pa.string()),
                "score": pa.array(top["score"].to_numpy(np.int64)),
                "rank": pa.array(rank.to_numpy(np.int64)),
            }
        )

    out = ds.map_batches(score, batch_format="pyarrow")
    out._keywords_pin = (hashed, handle)  # pin plasma blocks
    return out


def source_cosine(ds, cfg=None, *, group_col: str = "source",
                  text_col: str = "text"):
    """Exact corpus-similarity matrix between sources as INTEGER cosine
    sufficient statistics: per source the token-count vector over the
    shared vocabulary, per source pair (a < b as strings)

        (source_a, source_b, dot:int64, norm2_a:int64, norm2_b:int64)

    with dot = Σ_tok tf_a·tf_b and norm2 = Σ tf² — cosine is one
    float expression away, every ingredient exact (the EXACT complement
    to the KMV ``source_similarity`` estimate; that one scales to
    unbounded source counts, this one is quadratic in sources but exact
    and SQL-twinnable). Emits all pairs including dot = 0.

    Scale shape: ONE vocabulary-bounded exchange (per-batch (source,
    token, tf) partials bucketed on the token hash); per bucket the
    source×source partial dot/norm products fold to O(sources²) rows; a
    tiny second exchange sums them. Token rows never move twice."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of
    from ..functions.tokenizer import tokenize_many

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_many(t.column(text_col).to_pylist())
        src = t.column(group_col).to_pandas().astype(str)
        rows_s, rows_t = [], []
        for i, x in enumerate(toks):
            rows_s.extend([src.iloc[i]] * len(x))
            rows_t.extend(x)
        df = (
            pd.DataFrame({"s": rows_s, "t": rows_t}, dtype=object)
            .groupby(["s", "t"], sort=False)
            .size()
            .rename("tf")
            .reset_index()
        )
        df["_bucket"] = bucket_of(df["t"], nb)
        return df

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {"a": pd.Series(dtype=object),
                 "b": pd.Series(dtype=object),
                 "v": pd.Series(dtype=np.int64)}
            )
        # dense (tokens-in-bucket × sources) count matrix, one BLAS Gram
        # product gives every pairwise dot + norm partial at once
        m = (
            g.groupby(["t", "s"], sort=False)["tf"]
            .sum()
            .unstack(fill_value=0)
            .sort_index(axis=1)
        )
        srcs = np.asarray(m.columns, object)
        # int64 matmul (numpy's non-BLAS path): exact up to 2⁶³ — the
        # matrix is vocabulary-in-bucket × sources, always small
        mat = m.to_numpy(np.int64)
        gram = mat.T @ mat
        iu = np.triu_indices(len(srcs))
        return pd.DataFrame(
            {
                "a": srcs[iu[0]],
                "b": srcs[iu[1]],
                "v": gram[iu],
            }
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
    )
    # O(sources²) assembly — this IS the output size
    sums = folded.groupby(["a", "b"], sort=True)["v"].sum()
    norms = {a: int(v) for (a, b), v in sums.items() if a == b}
    srcs = sorted(norms)
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1 :]:
            rows.append(
                (a, b, int(sums.get((a, b), 0)), norms[a], norms[b])
            )
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "source_a": pa.array([r[0] for r in rows], pa.string()),
                "source_b": pa.array([r[1] for r in rows], pa.string()),
                "dot": pa.array([r[2] for r in rows], pa.int64()),
                "norm2_a": pa.array([r[3] for r in rows], pa.int64()),
                "norm2_b": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
    )


def token_burstiness(ds, cfg=None, *, text_col: str = "text",
                     min_docs: int = 5):
    """Per-token burstiness sufficient statistics — the stopword/topic
    discriminator (a bursty token concentrates its occurrences in few
    docs; a function word spreads evenly): for every token appearing in
    ≥ ``min_docs`` documents, (token, n_docs:int64, sum_tf:int64,
    sum_tf2:int64) over its per-document term frequencies, so the Fano
    factor (variance/mean) is one float expression away and every
    ingredient is an exact integer.

    Scale shape: per-batch (token → (docs, Σtf, Σtf²)) partials (each
    doc is one row, so its tf is complete within the batch), ONE
    vocabulary-bounded token-hash exchange, vectorized combine."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of
    from ..functions.tokenizer import tokenize_many

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_many(t.column(text_col).to_pylist())
        rows_i, rows_t = [], []
        for i, x in enumerate(toks):
            rows_i.extend([i] * len(x))
            rows_t.extend(x)
        if not rows_t:
            return pd.DataFrame(
                {"token": pd.Series(dtype=object),
                 "n_docs": pd.Series(dtype=np.int64),
                 "sum_tf": pd.Series(dtype=np.int64),
                 "sum_tf2": pd.Series(dtype=np.int64),
                 "_bucket": pd.Series(dtype=np.int32)}
            )
        tf = (
            pd.DataFrame({"i": rows_i, "token": rows_t})
            .groupby(["token", "i"], sort=False)
            .size()
            .rename("tf")
            .reset_index()
        )
        agg = tf.groupby("token", sort=False)["tf"].agg(
            n_docs="size", sum_tf="sum", sum_tf2=lambda s: int((s**2).sum())
        ).reset_index()
        agg["_bucket"] = bucket_of(agg["token"], nb)
        return agg

    def combine(g: pd.DataFrame) -> pa.Table:
        c = g.groupby("token", sort=False)[
            ["n_docs", "sum_tf", "sum_tf2"]
        ].sum()
        c = c[c["n_docs"] >= min_docs].reset_index()
        return pa.table(
            {
                "token": pa.array(c["token"].to_numpy(object),
                                  pa.string()),
                "n_docs": pa.array(c["n_docs"].to_numpy(np.int64)),
                "sum_tf": pa.array(c["sum_tf"].to_numpy(np.int64)),
                "sum_tf2": pa.array(c["sum_tf2"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def vocab_growth(ds, cfg=None, *, text_col: str = "text",
                 id_col: str = "doc_id", bucket_width: int = 50):
    """Vocabulary-growth (Heaps-law) curve at doc-id-range granularity:
    every token is charged to the document range where it FIRST appears
    (first = minimum doc id), emitting (bucket:int64 = first_doc //
    bucket_width, n_new_tokens:int64) for non-empty buckets — cumulative
    vocabulary size over ingest order is one prefix sum away. The
    corpus-health diagnostic for dedup/curation: a flattening curve
    means new data stopped contributing new language.

    Scale shape: per-batch token→min(doc) partials (vocabulary-bounded),
    ONE token-hash exchange folds mins, and the per-range histogram
    partials (≤ ranges rows per bucket) collapse in a second tiny
    exchange."""
    from ..config import EngineConfig
    from ..functions.tokenizer import tokenize_many
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if bucket_width < 1:
        raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_many(t.column(text_col).to_pylist())
        ids = np.asarray(t.column(id_col), np.int64)
        rows_t, rows_d = [], []
        for i, x in enumerate(toks):
            for tok in set(x):
                rows_t.append(tok)
                rows_d.append(ids[i])
        df = (
            pd.DataFrame({"token": rows_t, "doc": rows_d})
            .groupby("token", sort=False)["doc"]
            .min()
            .reset_index()
        )
        df["_bucket"] = bucket_of(df["token"], nb)
        return df

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("token", sort=False)["doc"].min()
        h = (
            (first // bucket_width)
            .value_counts()
            .rename("n_new_tokens")
            .reset_index()
            .rename(columns={"doc": "bucket"})
        )
        h["_b2"] = (h["bucket"].to_numpy(np.int64) % nb).astype(np.int32)
        return h

    def combine(g: pd.DataFrame) -> pa.Table:
        c = (
            g.groupby("bucket", sort=False)["n_new_tokens"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "bucket": pa.array(c["bucket"].to_numpy(np.int64)),
                "n_new_tokens": pa.array(
                    c["n_new_tokens"].to_numpy(np.int64)
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .groupby("_b2")
        .map_groups(combine, batch_format="pandas")
    )


def pair_lift(ds, cfg=None, *, text_col: str = "text",
              min_count: int = 5):
    """PMI/lift sufficient statistics for cooccurring token pairs — the
    collocation-mining table one float formula away from pointwise
    mutual information: for every unordered pair with ≥ ``min_count``
    co-documents, (token_a, token_b, n_both, n_a, n_b, n_docs) where
    n_a/n_b are the tokens' document frequencies and n_docs the corpus
    size — lift = n_both·N / (n_a·n_b), all ingredients exact int64.

    Scale shape: ``cooccurrence``'s GEMM pair counts (the heavy part,
    one vocabulary-bounded exchange) plus a vocabulary-bounded df
    exchange whose sorted-hash plasma table attaches marginals map-side
    — the pair stream never reshuffles for the join."""
    from ..config import EngineConfig
    from ..functions.tokenizer import tokenize_many
    from ..state.lookup import HashedWeightsHandle
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    n_docs = ds.count()

    # document-frequency table → plasma hash→count lookup
    def df_partial(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_many(t.column(text_col).to_pylist())
        c = pd.Series(
            [tok for x in toks for tok in set(x)], dtype=object
        ).value_counts()
        return pd.DataFrame(
            {
                "token": c.index.to_numpy(object),
                "count": c.to_numpy(np.int64),
                "_bucket": bucket_of(
                    pd.Series(c.index.to_numpy(object)), nb
                ),
            }
        )

    def df_combine(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("token", sort=False)["count"].sum()
        return pd.DataFrame(
            {"token": c.index.to_numpy(object),
             "count": c.to_numpy(np.int64)}
        )

    def to_hashed(t: pa.Table) -> pa.Table:
        from ..state.lookup import hash_tokens_2x

        toks = np.asarray(t.column("token").to_pylist(), dtype=object)
        h1, h2 = hash_tokens_2x(toks)
        return pa.table(
            {
                "_h1": pa.array(h1),
                "_h2": pa.array(h2),
                "_w": pa.array(
                    np.asarray(t.column("count"), np.int64).astype(
                        np.float64
                    )
                ),
            }
        )

    hashed = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(df_combine, batch_format="pandas")
        .map_batches(to_hashed, batch_format="pyarrow")
        .materialize()
    )
    handle = HashedWeightsHandle(
        hashed.to_arrow_refs() if hashed.count() > 0 else []
    )

    pairs = cooccurrence(ds, cfg, text_col=text_col, min_count=min_count)

    def attach(t: pa.Table) -> pa.Table:
        w = handle.resolve()
        ta = np.asarray(t.column("token_a").to_pylist(), dtype=object)
        tb = np.asarray(t.column("token_b").to_pylist(), dtype=object)
        return pa.table(
            {
                "token_a": t.column("token_a"),
                "token_b": t.column("token_b"),
                "n_both": t.column("n_both"),
                "n_a": pa.array(w.get_many(ta).astype(np.int64)),
                "n_b": pa.array(w.get_many(tb).astype(np.int64)),
                "n_docs": pa.array(
                    np.full(len(t), n_docs, np.int64)
                ),
            }
        )

    out = pairs.map_batches(attach, batch_format="pyarrow")
    out._lift_pin = (hashed, handle)
    return out


def token_lang_affinity(ds, cfg=None, *, text_col: str = "text",
                        lang_col: str = "lang", min_count: int = 5):
    """Token ↔ metadata-class affinity sufficient statistics — the
    chi-square / PMI ingredients for "which tokens mark which language
    (or source, or label)": for every (token, class) pair with ≥
    ``min_count`` co-documents, (token, lang, n_both, n_tok, n_lang,
    n_docs) — document-level counts, all exact int64, the expected-count
    formula n_tok·n_lang/N one division away.

    Scale shape: map-side DISTINCT (token, class, doc) collapses to
    per-batch (token, class) partials; ONE token-hash exchange folds
    pair counts AND per-token marginals together (class marginals are
    O(classes), folded driver-side)."""
    from ..config import EngineConfig
    from ..functions.tokenizer import tokenize_many
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    n_docs = ds.count()

    # class marginals: tiny, fold driver-side
    def lang_partial(t: pa.Table) -> pd.DataFrame:
        c = t.column(lang_col).to_pandas().astype(str).value_counts()
        return pd.DataFrame(
            {"lang": c.index.to_numpy(object),
             "n": c.to_numpy(np.int64)}
        )

    lang_counts = (
        ds.map_batches(lang_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("lang")["n"]
        .sum()
        .to_dict()
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = tokenize_many(t.column(text_col).to_pylist())
        langs = t.column(lang_col).to_pandas().astype(str)
        rows_t, rows_l = [], []
        for i, x in enumerate(toks):
            for tok in set(x):
                rows_t.append(tok)
                rows_l.append(langs.iloc[i])
        df = (
            pd.DataFrame({"token": rows_t, "lang": rows_l}, dtype=object)
            .groupby(["token", "lang"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        df["_bucket"] = bucket_of(df["token"], nb)
        return df

    lc_items = sorted(lang_counts.items())

    def fold(g: pd.DataFrame) -> pa.Table:
        c = (
            g.groupby(["token", "lang"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        tok_tot = c.groupby("token", sort=False)["n"].transform("sum")
        c["n_tok"] = tok_tot.to_numpy(np.int64)
        c = c[c["n"] >= min_count]
        lut = dict(lc_items)
        n_lang = np.fromiter(
            (lut[l] for l in c["lang"]), np.int64, len(c)
        )
        return pa.table(
            {
                "token": pa.array(c["token"].to_numpy(object),
                                  pa.string()),
                "lang": pa.array(c["lang"].to_numpy(object),
                                 pa.string()),
                "n_both": pa.array(c["n"].to_numpy(np.int64)),
                "n_tok": pa.array(c["n_tok"].to_numpy(np.int64)),
                "n_lang": pa.array(n_lang),
                "n_docs": pa.array(np.full(len(c), n_docs, np.int64)),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
    )


def ngram_diversity(ds, cfg, *, text_col: str = "text", max_n: int = 4):
    """Corpus n-gram diversity (the distinct-n statistic behind
    self-BLEU-style generation-diversity and memorization audits): for
    each n in 1..``max_n``, the total number of word-n-gram occurrences
    and the number of DISTINCT n-grams, both exact integers (the
    distinct/total ratio is derivable and deliberately not emitted).
    Docs shorter than n tokens contribute nothing at that n (the
    ngram_counts convention). Output (n, total_ngrams, distinct_ngrams).

    Scale shape: each batch builds all n levels' gram hashes in one
    vectorized pass over its concatenated token array (cross-doc windows
    masked) and pre-combines to (n, gram-hash, count) partials; ONE
    exchange bucketed on the gram hash (so each distinct gram lands in
    exactly one bucket) reduces to ≤ max_n rows per bucket of
    (n, distinct_part, total_part); the ≤ max_n × nb partials fold in
    one tiny final task. Gram identity is the 64-bit md5 of the gram
    string — the shared hashed-token twin caveat (collision odds
    ~n²·2⁻⁶⁵) applies.
    """
    from ..functions.tokenizer import tokenize_many
    from .dedup import hash64_strs
    from .relational import _pat, _sentinel_ds

    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    nb = cfg.num_buckets

    def partial(batch: pa.Table) -> pd.DataFrame:
        texts = batch.column(text_col).to_pylist()
        tok_lists = tokenize_many(texts)
        counts = np.fromiter(
            (len(t) for t in tok_lists), np.int64, len(tok_lists)
        )
        total = int(counts.sum())
        flat = np.empty(total, object)
        p = 0
        for ts in tok_lists:
            flat[p : p + len(ts)] = ts
            p += len(ts)
        starts = np.zeros(len(tok_lists) + 1, np.int64)
        np.cumsum(counts, out=starts[1:])
        frames = []
        for n in range(1, max_n + 1):
            nw = total - n + 1
            if nw <= 0:
                continue
            grams = flat[:nw].copy()
            for j in range(1, n):
                grams = grams + " "
                grams = grams + flat[j : nw + j]
            doc_idx = np.repeat(
                np.arange(len(tok_lists), dtype=np.int64), counts
            )[:nw]
            keep = starts[doc_idx + 1] - np.arange(nw, dtype=np.int64) >= n
            if not keep.any():
                continue
            vc = pd.Series(
                hash64_strs(grams[keep])
            ).value_counts(sort=False)
            frames.append(
                pd.DataFrame(
                    {
                        "n": np.full(len(vc), n, np.int64),
                        "h": vc.index.to_numpy(np.uint64),
                        "cnt": vc.to_numpy(np.int64),
                    }
                )
            )
        if not frames:
            return _pat(pd.DataFrame(
                {
                    "n": pd.Series(dtype=np.int64),
                    "h": pd.Series(dtype=np.uint64),
                    "cnt": pd.Series(dtype=np.int64),
                    "_bucket": pd.Series(dtype=np.int32),
                }
            ))
        out = pd.concat(frames, ignore_index=True)
        out["_bucket"] = (
            out["h"].to_numpy(np.uint64) % np.uint64(nb)
        ).astype(np.int32)
        return _pat(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # a gram's every partial lands here → global distinct per bucket
        agg = g.groupby(["n", "h"], sort=False)["cnt"].sum().reset_index()
        return (
            agg.groupby("n", sort=False)
            .agg(distinct_part=("h", "size"), total_part=("cnt", "sum"))
            .reset_index()
        )

    def final(df: pd.DataFrame) -> pa.Table:
        df = df[df["total_part"] > 0]  # drop the schema sentinel
        if len(df) == 0:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "total_ngrams": pa.array([], pa.int64()),
                    "distinct_ngrams": pa.array([], pa.int64()),
                }
            )
        s = (
            df.groupby("n", sort=False)
            .agg(total_ngrams=("total_part", "sum"),
                 distinct_ngrams=("distinct_part", "sum"))
            .reset_index()
            .sort_values("n", kind="mergesort")
        )
        return pa.table(
            {
                "n": pa.array(s["n"].to_numpy(np.int64)),
                "total_ngrams": pa.array(
                    s["total_ngrams"].to_numpy(np.int64)
                ),
                "distinct_ngrams": pa.array(
                    s["distinct_ngrams"].to_numpy(np.int64)
                ),
            }
        )

    sentinel = _sentinel_ds(
        {"n": (0, pa.int64()), "distinct_part": (0, pa.int64()),
         "total_part": (0, pa.int64())}
    )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(
            lambda g: _pat(per_bucket(g)), batch_format="pandas"
        )
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )
