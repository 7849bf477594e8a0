"""Deduplication operators over a document table (training-data-pipeline ops;
no reference equivalent — the reference has no dedup at all, SURVEY §2.7-U3).

All operators are Dataset-in / Dataset-out and follow the same scale shape:
vectorized per-batch signatures → hash-keyed groupby (the one shuffle) →
candidate pairs verified per group → connected components → one row per
document with its cluster id.

  - exact_dedup: content hash → bucket groupby → keep min id per text.
  - minhash_lsh_dedup: char-shingles → 128-perm MinHash → banded LSH buckets
    → exact-Jaccard verify → components.
  - simhash_dedup: 64-bit SimHash over token hashes → 4×16-bit band buckets
    → Hamming-distance verify → components.
  - ngram_jaccard_dedup: rarest-shingle blocking → exact n-gram Jaccard.
  - embedding_neardup: cosine ≥ τ pairs from the top-K pairer (exact or IVF)
    → components.

Scale posture:
  - signatures + per-doc shingle/gram sets are computed ONCE in the signature
    stage, batched and vectorized; the verify stage re-uses them via a
    byte-capped plasma-block lookup (state/lookup.ColumnLookup) or, beyond
    the cap, a hash join — never a driver-side Python dict and never a
    per-pair recompute.
  - hot LSH keys are SALTED AND SPLIT (north_rule): a key with B > max_bucket
    members is divided into ceil(B/max_bucket) salt groups and every
    unordered salt pair becomes its own sub-key, so per-task all-pairs work
    is bounded by ~max_bucket² while the candidate set stays exact.
    Degenerate keys beyond ``hard_mult × max_bucket`` members are
    deterministically subsampled and surfaced via the ``stats_out`` dict —
    never silently.

Precondition: ``id_col`` values are UNIQUE per document (run exact_dedup
first if unsure). With duplicate ids the broadcast-lookup verify resolves
one arbitrary payload per id while the join fallback fans out per copy, so
outputs would depend on which path the size caps select.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import EngineConfig
from ..stages.canonicalize import bucket_of
from ..stages.cluster import connected_components
from ..state.lookup import id_hash

_MERSENNE = np.uint64((1 << 61) - 1)
_POLY = np.uint64(1099511628211)
_MIX = np.uint64(0x9E3779B97F4A7C15)
_U64_MAX = np.uint64(np.iinfo(np.uint64).max)

_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1
).astype(np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (numpy<2 has no bitwise_count)."""
    x = np.ascontiguousarray(x, np.uint64)
    return _POP8[x.view(np.uint8)].reshape(len(x), 8).sum(axis=1).astype(np.int32)


def _stable_hash64(data: bytes) -> np.uint64:
    """Lower 64 bits of MD5 in DuckDB's ``md5_number_lower`` convention
    (digest bytes 8..16, little-endian). Deliberately md5 rather than blake2b:
    token/gram fingerprints computed here have an exact SQL twin
    (``md5_number_lower(tok)``), which is what makes the simhash driver
    oracle exactly checkable end-to-end."""
    return np.uint64(
        int.from_bytes(hashlib.md5(data).digest()[8:16], "little")
    )


def hash64_strs(values) -> np.ndarray:
    """md5-lower64 of each string in ``values`` — pass the DISTINCT keys of
    a batch (e.g. ``pd.factorize`` uniques) so the hash runs once per
    distinct value, never per row. This is the shared kernel behind every
    bucketed string-key exchange whose SQL twin is
    ``md5_number_lower(col) % num_buckets``."""
    return np.fromiter(
        (_stable_hash64(str(v).encode()) for v in values),
        np.uint64,
        len(values),
    )


# ------------------------------------------------------------- shingling --


def _shingle_hashes_batch(
    texts: list, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique k-byte-shingle hashes for EVERY doc of a batch in one
    vectorized pass: one concatenated byte buffer, one sliding-window
    polynomial hash over it (cross-doc windows masked out), one global
    lexsort for the per-doc sort+unique. Returns (values, offsets[n+1]).

    Docs shorter than k bytes fall back to a single md5 hash of the whole
    text (same rule as the scalar version)."""
    n = len(texts)
    if n == 0:
        return np.empty(0, np.uint64), np.zeros(1, np.int64)
    bufs = [(t or "").encode("utf-8", "surrogatepass") for t in texts]
    lens = np.fromiter((len(b) for b in bufs), np.int64, n)
    short = lens < k
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=starts[1:])
    cat = np.frombuffer(b"".join(bufs), np.uint8)
    pows = np.empty(k, np.uint64)
    pows[0] = np.uint64(1)
    with np.errstate(over="ignore"):  # intentional mod-2^64 wraparound
        for i in range(1, k):
            pows[i] = pows[i - 1] * _POLY
        if len(cat) >= k:
            win = np.lib.stride_tricks.sliding_window_view(cat, k)
            h_all = (win * pows[::-1][None, :]).sum(axis=1, dtype=np.uint64)
        else:
            h_all = np.empty(0, np.uint64)
    long_idx = np.nonzero(~short)[0]
    wc = (lens - k + 1)[long_idx]
    total_w = int(wc.sum())
    if total_w:
        base = np.repeat(starts[long_idx], wc)
        within = np.arange(total_w, dtype=np.int64) - np.repeat(
            np.cumsum(wc) - wc, wc
        )
        docs = np.repeat(long_idx, wc)
        vals = h_all[base + within]
    else:
        docs = np.empty(0, np.int64)
        vals = np.empty(0, np.uint64)
    short_idx = np.nonzero(short)[0]
    if len(short_idx):
        svals = np.fromiter(
            (_stable_hash64(bufs[d]) for d in short_idx),
            np.uint64,
            len(short_idx),
        )
        docs = np.concatenate([docs, short_idx])
        vals = np.concatenate([vals, svals])
    order = np.lexsort((vals, docs))
    docs = docs[order]
    vals = vals[order]
    if len(vals):
        keep = np.ones(len(vals), bool)
        keep[1:] = (vals[1:] != vals[:-1]) | (docs[1:] != docs[:-1])
        docs = docs[keep]
        vals = vals[keep]
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(docs, minlength=n), out=offsets[1:])
    return vals, offsets


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Distinct k-char-shingle hashes of one doc (scalar twin of the batch
    path — bit-identical; kept for tests and the scalar API)."""
    vals, _ = _shingle_hashes_batch([text], k)
    return vals


def _minhash_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_MERSENNE), size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(
    shingles: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(a·x + b) mod p universal hashing, min per permutation (scalar twin of
    minhash_signatures_batch)."""
    if len(shingles) == 0:
        return np.full(len(a), _U64_MAX, np.uint64)
    x = shingles[:, None]
    with np.errstate(over="ignore"):
        h = (x * a[None, :] + b[None, :]) % _MERSENNE
    return h.min(axis=0)


def minhash_signatures_batch(
    vals: np.ndarray, offsets: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """All docs' signatures in one pass: broadcast hash + minimum.reduceat
    over the per-doc segments, chunked over permutations to bound the
    transient (total_shingles × chunk) matrix. Bit-identical to the scalar
    minhash_signature per doc."""
    n = len(offsets) - 1
    num_perm = len(a)
    out = np.full((n, num_perm), _U64_MAX, np.uint64)
    if n == 0 or len(vals) == 0:
        return out
    counts = np.diff(offsets)
    nz = counts > 0
    starts = offsets[:-1][nz]
    x = vals[:, None]
    chunk = max(1, min(16, (64 << 20) // (8 * max(len(vals), 1))))
    with np.errstate(over="ignore"):
        for c0 in range(0, num_perm, chunk):
            h = (x * a[None, c0 : c0 + chunk] + b[None, c0 : c0 + chunk]) % _MERSENNE
            out[nz, c0 : c0 + chunk] = np.minimum.reduceat(h, starts, axis=0)
    return out


def _band_keys(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n, num_perm) signatures → (n, bands) band keys: FNV-style fold of
    each band's rows, salted by the band index — vectorized across docs."""
    n, num_perm = sig.shape
    r = num_perm // bands
    keys = np.empty((n, bands), np.uint64)
    with np.errstate(over="ignore"):
        for bnd in range(bands):
            h = np.full(n, np.uint64(14695981039346656037))
            for j in range(r):
                h = (h ^ sig[:, bnd * r + j]) * _POLY
            keys[:, bnd] = h ^ (np.uint64(bnd + 1) * _MIX)
    return keys


# ------------------------------------------------------------ exact dedup --


def exact_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
):
    """Keep one row (min id) per distinct text; output
    (doc_id, text, n_dups).

    The exchange is METADATA-ONLY: each batch partial-combines locally and
    ships only (md5-128 text hash, min id, count) through the bucket
    groupby — the text column never rides the shuffle (a text-keyed
    exchange would move the whole corpus at 100-TB scale). Winners (one row
    per distinct text) are then re-attached to their text MAP-SIDE via the
    byte-capped broadcast lookup (state/lookup.ColumnLookup), falling back
    to a hash join when the winner set exceeds the caps. Text identity is
    the 128-bit md5; a false merge needs an md5 collision (~n²/2¹²⁸ —
    negligible at any corpus size)."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # hash once per DISTINCT text (the workload is duplicate-heavy by
        # premise — per-row hashing would redo the md5 of every copy)
        codes, uniq = pd.factorize(df[text_col].astype(str), sort=False)
        u1 = np.empty(len(uniq), np.uint64)
        u2 = np.empty(len(uniq), np.uint64)
        for i, t in enumerate(uniq):
            d = hashlib.md5(t.encode("utf-8", "surrogatepass")).digest()
            u1[i] = int.from_bytes(d[:8], "little")
            u2[i] = int.from_bytes(d[8:], "little")
        g = pd.DataFrame(
            {"_h1": u1[codes], "_h2": u2[codes], "_id": df[id_col].values}
        )
        agg = (
            g.groupby(["_h1", "_h2"], sort=False)
            .agg(_min=("_id", "min"), _n=("_id", "size"))
            .reset_index()
        )
        agg["_bucket"] = (agg["_h1"] % np.uint64(nb)).astype("int32")
        return agg

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby(["_h1", "_h2"], sort=False)
            .agg(doc_id=("_min", "min"), n_dups=("_n", "sum"))
            .reset_index()
        )
        return pd.DataFrame(
            {
                "doc_id": agg["doc_id"].values,
                "n_dups": agg["n_dups"].values.astype(np.int64),
            }
        )

    winners = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )

    skinny = winners.map_batches(
        lambda t: pa.table(
            {
                "_pid": t.column("doc_id").cast(pa.string()),
                "_ph": pa.array(
                    id_hash(t.column("doc_id").cast(pa.string()).to_pylist())
                ),
                "_n": t.column("n_dups"),
            }
        ),
        batch_format="pyarrow",
    )
    mat = skinny.materialize()
    fits = (
        mat.count() <= cfg.broadcast_rows_max
        and mat.size_bytes() <= cfg.broadcast_bytes_max
    )
    if fits:
        refs = mat.to_arrow_refs()
        cache_key = "exactwin:" + ",".join(r.hex() for r in refs)

        def attach(batch: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_compute
            from ..state.lookup import ColumnLookup

            lk = cached_compute(
                cache_key,
                lambda: ColumnLookup(refs, "_pid", "_n", hash_col="_ph"),
            )
            ids = batch.column(id_col).cast(pa.string()).to_pylist()
            nd = lk.take_pylist(ids)
            keep = np.fromiter((v is not None for v in nd), bool, len(nd))
            t = batch.filter(pa.array(keep))
            return pa.table(
                {
                    "doc_id": t.column(id_col),
                    text_col: t.column(text_col),
                    "n_dups": pa.array(
                        [int(v) for v in nd[keep]], pa.int64()
                    ),
                }
            )

        return ds.map_batches(attach, batch_format="pyarrow")

    from ..config import join_partitions

    joined = ds.map_batches(
        lambda t: pa.table(
            {"_pid": t.column(id_col).cast(pa.string()),
             "_wid": t.column(id_col),
             text_col: t.column(text_col)}
        ),
        batch_format="pyarrow",
    ).join(
        mat.select_columns(["_pid", "_n"]),
        join_type="inner",
        num_partitions=join_partitions(),
        on=("_pid",),
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("_wid"),
                text_col: t.column(text_col),
                "n_dups": t.column("_n").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# --------------------------------------------------------- candidate pairs --


def _pairs_from_keys(
    keyed,
    id_col: str,
    max_bucket: int,
    cfg: EngineConfig,
    key_col: str = "bkey",
    hard_mult: int = 32,
    stats_out: dict | None = None,
    size_col: str | None = None,
    size_tau: tuple[int, int] | None = None,
):
    """rows (id, bkey) → intra-key candidate pairs (left_id < right_id).

    ``size_col``/``size_tau``: optional PPJoin-style length filter — when
    rows carry a per-record set size and the caller verifies Jaccard ≥
    num/den, any qualifying pair satisfies den·|small| ≥ num·|large| (a
    theorem: J ≥ t ⇒ |small| ≥ t·|large|), so incompatible pairs are cut
    INSIDE the per-key merge before they materialize as string pairs.

    Two passes. Pass 1 aggregates per-key sizes (pre-combined inside each
    batch, then one skinny groupby) and pulls the HOT keys (> max_bucket
    members) to the driver — a bounded set by construction. Pass 2 re-keys:
    cold keys pass through; hot keys are salted into ceil(B/max_bucket) salt
    groups, each unordered salt pair (si ≤ sj) becoming its own sub-key, so
    the per-task all-pairs merge is bounded by ~max_bucket² members while the
    emitted pair set stays EXACT. Keys beyond hard_mult × max_bucket members
    are deterministically subsampled by id hash (all-pairs there is O(B²)
    junk from degenerate shingles) — counted in ``stats_out``
    (n_hot_keys / n_subsampled_keys / max_key_size), never silent."""
    import ray

    if (size_col is None) != (size_tau is None):
        raise ValueError("size_col and size_tau must be given together")
    nb = cfg.num_buckets
    hard_cap = max_bucket * hard_mult

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby(key_col, sort=False).size()
        out = pd.DataFrame(
            {key_col: c.index.values, "cnt": c.values.astype(np.int64)}
        )
        # small-int bucket key: Ray's groupby on a high-cardinality key is
        # ~1000× slower than a bucket exchange + pandas combine (same quirk
        # every other key exchange in this repo works around)
        out["_bucket"] = (
            out[key_col].to_numpy().astype(np.uint64) % np.uint64(nb)
        ).astype(np.int32)
        return out

    def combine_counts(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(key_col, sort=False)["cnt"].sum()
        hot = c[c > max_bucket]
        return pd.DataFrame(
            {key_col: hot.index.values, "cnt": hot.values.astype(np.int64)}
        )

    hot_pdf = (
        keyed.map_batches(partial_counts, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(combine_counts, batch_format="pandas")
        .to_pandas()
    )
    ns_map: dict[int, int] = {}
    mod_map: dict[int, int] = {}
    max_size = 0
    if key_col not in hot_pdf.columns:  # empty result → column-less frame
        hot_pdf = pd.DataFrame({key_col: [], "cnt": []})
    for k_, c_ in zip(hot_pdf[key_col].to_numpy(), hot_pdf["cnt"].to_numpy()):
        c_ = int(c_)
        max_size = max(max_size, c_)
        m = -(-c_ // hard_cap) if c_ > hard_cap else 1
        kept = c_ / m
        ns_map[int(k_)] = max(1, -(-int(kept) // max_bucket))
        mod_map[int(k_)] = m
    if stats_out is not None:
        stats_out.update(
            n_hot_keys=len(ns_map),
            n_subsampled_keys=sum(1 for m in mod_map.values() if m > 1),
            max_key_size=max_size,
        )
    hot_ref = ray.put((ns_map, mod_map)) if ns_map else None

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                id_col: df[id_col].astype(str),
                "_key": df[key_col].to_numpy().astype(np.uint64),
            }
        )
        if size_col is not None:
            out["_sz"] = df[size_col].to_numpy(np.int64)
        if hot_ref is None:
            out["_skey"] = out["_key"]
            out["_side"] = np.int8(0)
        else:
            from ..state.broadcast import cached_get

            ns_map_, mod_map_ = cached_get(hot_ref)
            keys_int = out["_key"].to_numpy()
            hot_mask = np.isin(
                keys_int, np.fromiter(ns_map_, np.uint64, len(ns_map_))
            )
            cold = out[~hot_mask].copy()
            cold["_skey"] = cold["_key"]
            cold["_side"] = np.int8(0)
            hot = out[hot_mask]
            parts = [cold]
            if len(hot):
                ids = hot[id_col].to_numpy(object)
                keys = hot["_key"].to_numpy()
                szs = (
                    hot["_sz"].to_numpy(np.int64)
                    if size_col is not None
                    else None
                )
                ns = np.fromiter(
                    (ns_map_[int(k)] for k in keys), np.int64, len(keys)
                )
                mod = np.fromiter(
                    (mod_map_[int(k)] for k in keys), np.int64, len(keys)
                )
                h = id_hash(ids)
                keep = (h % mod.astype(np.uint64)) == 0
                ids, keys, ns, h = ids[keep], keys[keep], ns[keep], h[keep]
                if szs is not None:
                    szs = szs[keep]
                salt = ((h >> np.uint64(32)) % ns.astype(np.uint64)).astype(
                    np.int64
                )
                # one replica per other-salt t: sub-key (min(s,t), max(s,t))
                rep_ids = np.repeat(ids, ns)
                rep_keys = np.repeat(keys, ns)
                rep_salt = np.repeat(salt, ns)
                t = np.arange(int(ns.sum()), dtype=np.int64) - np.repeat(
                    np.cumsum(ns) - ns, ns
                )
                si = np.minimum(rep_salt, t)
                sj = np.maximum(rep_salt, t)
                with np.errstate(over="ignore"):
                    skey = (
                        rep_keys * _POLY
                        ^ (si * 65536 + sj + 1).astype(np.uint64)
                    ) * _MIX
                side = np.where(
                    rep_salt == t, 0, np.where(rep_salt < t, 1, 2)
                ).astype(np.int8)
                rep = pd.DataFrame(
                    {
                        id_col: rep_ids,
                        "_key": rep_keys,
                        "_skey": skey,
                        "_side": side,
                    }
                )
                if szs is not None:
                    rep["_sz"] = np.repeat(szs, ns)
                parts.append(rep)
            out = pd.concat(parts, ignore_index=True)
        out["_bucket"] = (
            out["_skey"].to_numpy() % np.uint64(nb)
        ).astype(np.int32)
        cols = [id_col, "_skey", "_side", "_bucket"]
        if size_col is not None:
            cols.append("_sz")
        return out[cols]

    def _size_ok(m: pd.DataFrame) -> pd.DataFrame | None:
        if size_tau is None:
            return m
        num, den = size_tau
        sa = m["_sz_x"].to_numpy(np.int64)
        sb = m["_sz_y"].to_numpy(np.int64)
        return m[den * np.minimum(sa, sb) >= num * np.maximum(sa, sb)]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([id_col, "_skey", "_side"])
        both = g[g["_side"] == 0]
        m = both.merge(both, on="_skey")
        m = m[m[f"{id_col}_x"] < m[f"{id_col}_y"]]
        m = _size_ok(m)
        la = m[f"{id_col}_x"].to_numpy(object)
        ra = m[f"{id_col}_y"].to_numpy(object)
        lo = g[g["_side"] == 1]
        hi = g[g["_side"] == 2]
        if len(lo) and len(hi):
            m2 = lo.merge(hi, on="_skey")
            m2 = _size_ok(m2)
            if len(m2):
                a = m2[f"{id_col}_x"].to_numpy(object)
                b = m2[f"{id_col}_y"].to_numpy(object)
                keep = a != b
                la = np.concatenate([la, np.minimum(a[keep], b[keep])])
                ra = np.concatenate([ra, np.maximum(a[keep], b[keep])])
        return pd.DataFrame(
            {
                "left_id": pd.array(la, dtype="string"),
                "right_id": pd.array(ra, dtype="string"),
            }
        ).drop_duplicates()

    return (
        keyed.map_batches(add_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(pairs, batch_format="pandas")
    )


def _dedup_pairs(pairs_ds, cfg: EngineConfig):
    """Exact pair-dedup (U3): buckets overlap, a pair can appear twice."""
    nb = cfg.num_buckets

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_bucket"] = bucket_of(df["left_id"] + "\x00" + df["right_id"], nb)
        return df

    return (
        pairs_ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(
            lambda g: g.drop_duplicates(["left_id", "right_id"])[
                ["left_id", "right_id"]
            ],
            batch_format="pandas",
        )
    )


# ------------------------------------------------------------ pair verify --


def _verify_pairs(cand, payload_ds, id_col, payload_col, cfg, pair_fn):
    """Attach each side's precomputed payload (shingle set / fingerprint /
    gram set — computed ONCE in the signature stage) to the candidate pairs
    and run ``pair_fn(left_ids, right_ids, left_payload, right_payload)``
    (payloads are pa.Arrays; missing ids are nulls).

    Small payload side: materialized Arrow block refs + worker-side
    ColumnLookup (plasma zero-copy; cap bounds BYTES via size_bytes, not just
    rows). Large side: two hash joins. The driver never builds a dict of the
    table. List payloads (shingle/gram sets) are packed to large_binary in
    the skinny projection — Acero hash joins reject nested non-key columns,
    and the binary form round-trips zero-copy via np.frombuffer."""

    def project(t: pa.Table) -> pa.Table:
        pay = t.column(payload_col).combine_chunks()
        if pa.types.is_large_list(pay.type) or pa.types.is_list(pay.type):
            offs = np.asarray(pay.offsets).astype(np.int64)
            vals = np.asarray(pay.flatten())
            width = vals.dtype.itemsize
            pay = pa.LargeBinaryArray.from_buffers(
                pa.large_binary(),
                len(pay),
                [
                    None,
                    pa.py_buffer(((offs - offs[0]) * width).tobytes()),
                    pa.py_buffer(vals.tobytes()),
                ],
            )
        ids = t.column(id_col).cast(pa.string())
        ph = id_hash(ids.to_pylist())
        return pa.table(
            {"_pid": ids, "_ph": pa.array(ph), "_payload": pay}
        )

    skinny = payload_ds.map_batches(project, batch_format="pyarrow")
    n = payload_ds.count()
    mat = None
    fits = n <= cfg.broadcast_rows_max
    if fits:
        mat = skinny.materialize()
        if mat.size_bytes() > cfg.broadcast_bytes_max:
            fits = False
    if fits:
        refs = mat.to_arrow_refs()
        cache_key = "paylookup:" + ",".join(r.hex() for r in refs)

        def verify(batch: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_compute
            from ..state.lookup import ColumnLookup

            lk = cached_compute(
                cache_key,
                lambda: ColumnLookup(refs, "_pid", "_payload", hash_col="_ph"),
            )
            ls = batch.column("left_id").to_pylist()
            rs = batch.column("right_id").to_pylist()
            return pair_fn(ls, rs, lk.take_arrow(ls), lk.take_arrow(rs))

        return cand.map_batches(verify, batch_format="pyarrow")

    from ..config import join_partitions

    nparts = join_partitions()
    # if the rows-cap passed but the bytes-cap rejected, `mat` already holds
    # the projected payload — join from it instead of re-running the
    # projection once per side
    join_src = mat if mat is not None else skinny

    def side(key, alias):
        return join_src.map_batches(
            lambda t, k=key, a=alias: pa.table(
                {k: t.column("_pid"), a: t.column("_payload")}
            ),
            batch_format="pyarrow",
        )

    joined = cand.join(
        side("left_id", "_lp"),
        join_type="inner",
        num_partitions=nparts,
        on=("left_id",),
    ).join(
        side("right_id", "_rp"),
        join_type="inner",
        num_partitions=nparts,
        on=("right_id",),
    )

    def verify_joined(batch: pa.Table) -> pa.Table:
        return pair_fn(
            batch.column("left_id").to_pylist(),
            batch.column("right_id").to_pylist(),
            batch.column("_lp").combine_chunks(),
            batch.column("_rp").combine_chunks(),
        )

    return joined.map_batches(verify_joined, batch_format="pyarrow")


_BITSET_MAX_VOCAB = 2048  # ≤ 32 uint64 words per doc on the bitset path


def _pairwise_intersect_indexed(
    lists: list[np.ndarray], li: np.ndarray, ri: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|a ∩ b| for PAIRS OF INDICES into a pool of UNIQUE sorted-unique
    uint64 sets — the shape every pair verify should use: payloads are
    deduplicated per document, so per-doc work (bit-packing, code lookup)
    runs once per doc, not once per pair.

    Two fully vectorized paths, picked per batch:
      - bitset (batch vocabulary ≤ _BITSET_MAX_VOCAB distinct tokens):
        docs become ⌈v/64⌉-word bitmasks; inter = popcount(l AND r),
        chunked so the pair matrix stays cache-sized. Word-soup corpora
        with tiny vocabularies — exactly where prefix/LSH blocking
        degenerates to near-all-pairs — hit this path at ~10⁸ pairs/s.
      - sort (open vocabulary): tag elements with pair index, lexsort,
        count adjacent equal (pair, token) runs — uniqueness within each
        side makes every run exactly one left + one right element.
    Returns (inter, na, nb) as int64 arrays."""
    n = len(li)
    u = len(lists)
    lens = np.fromiter((len(a) for a in lists), np.int64, u)
    na = lens[li] if u else np.zeros(n, np.int64)
    nb = lens[ri] if u else np.zeros(n, np.int64)
    if n == 0 or lens.sum() == 0:
        return np.zeros(n, np.int64), na, nb
    cat = np.concatenate(lists)
    starts = np.zeros(u + 1, np.int64)
    np.cumsum(lens, out=starts[1:])
    vocab = np.unique(cat)
    v = len(vocab)
    if v <= _BITSET_MAX_VOCAB:
        words = (v + 63) // 64
        codes = np.searchsorted(vocab, cat).astype(np.uint64)
        rows = np.repeat(np.arange(u, dtype=np.int64), lens)
        bits = np.zeros((u, words), np.uint64)
        np.bitwise_or.at(
            bits,
            (rows, (codes >> np.uint64(6)).astype(np.int64)),
            np.uint64(1) << (codes & np.uint64(63)),
        )
        inter = np.empty(n, np.int64)
        step = max(1, (1 << 22) // max(words, 1))
        for s in range(0, n, step):
            e = min(n, s + step)
            aw = bits[li[s:e]] & bits[ri[s:e]]
            inter[s:e] = (
                popcount64(aw.ravel())
                .reshape(e - s, words)
                .sum(axis=1, dtype=np.int64)
            )
        return inter, na, nb
    # open-vocabulary sort path: expand per-pair element lists via pure
    # index arithmetic (no per-pair Python concatenation)
    def expand(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tot = lens[idx]
        m = int(tot.sum())
        base = np.repeat(starts[idx], tot)
        local = np.arange(m, dtype=np.int64) - np.repeat(
            np.cumsum(tot) - tot, tot
        )
        return cat[base + local], np.repeat(
            np.arange(n, dtype=np.int64), tot
        )
    tok_l, pid_l = expand(li)
    tok_r, pid_r = expand(ri)
    tok = np.concatenate([tok_l, tok_r])
    pid = np.concatenate([pid_l, pid_r])
    order = np.lexsort((tok, pid))
    pid_s = pid[order]
    tok_s = tok[order]
    adj = (pid_s[1:] == pid_s[:-1]) & (tok_s[1:] == tok_s[:-1])
    inter = np.bincount(pid_s[1:][adj], minlength=n)
    return inter.astype(np.int64), na, nb


def _pair_valid_mask(lp, rp) -> np.ndarray:
    """True where BOTH payload slots are non-null (a null means the id was
    missing from the payload side — such pairs must be dropped, never
    scored as empty docs)."""
    import pyarrow.compute as pc

    return (
        pc.and_(pc.is_valid(lp), pc.is_valid(rp))
        .to_numpy(zero_copy_only=False)
    )


def _uniquify_pair_payloads(ls, rs, lp, rp):
    """(per-pair ids + payload arrays) → (unique payload pool, left/right
    index arrays): np.unique over the batch's id strings picks one
    representative payload per doc so downstream kernels do per-doc work
    once. Payload views come from the zero-copy binary path of
    np_u64_lists."""
    from ..state.lookup import np_u64_lists

    n = len(ls)
    allids = np.concatenate(
        [np.asarray(ls, object), np.asarray(rs, object)]
    )
    views = np_u64_lists(lp) + np_u64_lists(rp)
    _, first, inv = np.unique(
        allids, return_index=True, return_inverse=True
    )
    pool = [views[i] for i in first]
    return pool, inv[:n], inv[n:]


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two SORTED unique uint64 arrays (empty∧empty → 1)."""
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    if len(a) > len(b):
        a, b = b, a
    idx = np.searchsorted(b, a)
    m = idx < len(b)
    inter = int((b[idx[m]] == a[m]).sum())
    return inter / (len(a) + len(b) - inter)


def _jaccard_verify_fn(threshold: float):
    """pair_fn: exact set Jaccard over precomputed sorted-unique hash sets."""

    def fn(ls, rs, lp, rp) -> pa.Table:
        n = len(ls)
        valid = _pair_valid_mask(lp, rp)
        pool, li, ri = _uniquify_pair_payloads(ls, rs, lp, rp)
        inter, na, nb = _pairwise_intersect_indexed(pool, li, ri)
        union = na + nb - inter
        # empty ∧ empty → 1.0 (same rule as the scalar `jaccard`); pairs
        # with a NULL payload slot (id missing from the payload side) are
        # dropped — scoring them as empty docs would emit false duplicates
        # (same guard as _hamming_verify_fn / _setjoin_verify_fn)
        sims = np.where(
            union > 0, inter / np.maximum(union, 1), 1.0
        )
        idx = np.nonzero(valid & (sims >= threshold))[0]
        ls = np.asarray(ls, object)
        rs = np.asarray(rs, object)
        return pa.table(
            {
                "left_id": pa.array(ls[idx], pa.string()),
                "right_id": pa.array(rs[idx], pa.string()),
                "jaccard": pa.array(sims[idx].astype(np.float32)),
            }
        )

    return fn


def _hamming_verify_fn(max_hamming: int):
    """pair_fn: popcount(xor) over precomputed 64-bit fingerprints."""

    def fn(ls, rs, lp, rp) -> pa.Table:
        import pyarrow.compute as pc

        # a null payload means the id was missing from the fingerprint side —
        # drop those candidate pairs rather than scoring them as an empty doc
        # (fingerprint 0), which could emit false duplicates against
        # low-popcount fingerprints
        valid = (
            pc.and_(pc.is_valid(lp), pc.is_valid(rp))
            .to_numpy(zero_copy_only=False)
        )
        a = np.asarray(pc.fill_null(lp, 0)).astype(np.uint64)
        b = np.asarray(pc.fill_null(rp, 0)).astype(np.uint64)
        d = popcount64(a ^ b)
        idx = np.nonzero(valid & (d <= max_hamming))[0]
        ls = np.asarray(ls, object)
        rs = np.asarray(rs, object)
        return pa.table(
            {
                "left_id": pa.array(ls[idx], pa.string()),
                "right_id": pa.array(rs[idx], pa.string()),
                "hamming": pa.array(d[idx].astype(np.int32)),
            }
        )

    return fn


# -------------------------------------------------------------- components --


def _components_output(ds, pairs, cfg, id_col):
    """edges → components; every doc labeled (singletons = own id).
    Component labels are broadcast under broadcast_rows_max, else attached
    via a left-outer hash join."""
    import pyarrow.compute as pc

    import ray

    comp = connected_components(pairs, cfg, src="left_id", dst="right_id")
    n_comp = comp.count()
    if n_comp <= cfg.broadcast_rows_max:
        if n_comp > 0:
            comp_df = comp.to_pandas()
            labeled = dict(zip(comp_df["conv_id"], comp_df["cluster_id"]))
        else:
            labeled = {}
        labeled_ref = ray.put(labeled)

        def assign(batch: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_get

            labeled = cached_get(labeled_ref)
            ids = [str(x) for x in batch.column(id_col).to_pylist()]
            cl = [labeled.get(i, i) for i in ids]
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.string()),
                    "cluster_id": pa.array(cl, pa.string()),
                    "is_duplicate": pa.array(
                        [c != i for i, c in zip(ids, cl)]
                    ),
                }
            )

        return ds.map_batches(assign, batch_format="pyarrow")

    from ..config import join_partitions

    docs = ds.map_batches(
        lambda t: pa.table({"doc_id": t.column(id_col).cast(pa.string())}),
        batch_format="pyarrow",
    )
    comp_side = comp.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("conv_id").cast(pa.string()),
                "cluster_id": t.column("cluster_id").cast(pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = docs.join(
        comp_side,
        join_type="left_outer",
        num_partitions=join_partitions(),
        on=("doc_id",),
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("doc_id"),
                "cluster_id": pc.coalesce(
                    t.column("cluster_id"), t.column("doc_id")
                ),
                "is_duplicate": pc.invert(
                    pc.equal(
                        pc.coalesce(t.column("cluster_id"), t.column("doc_id")),
                        t.column("doc_id"),
                    )
                ),
            }
        ),
        batch_format="pyarrow",
    )


# ----------------------------------------------------------------- minhash --


def _minhash_map(num_perm, bands, shingle_k, seed, id_col, text_col):
    """Stateless signature map (task fn, not an actor — the (a,b) permutation
    params are a 2 KB closure): per batch, vectorized shingling → batched
    min-reduce signatures → folded band keys. Emits one row per doc carrying
    the doc's sorted-unique shingle set (reused by the verify stage — no
    per-pair recompute)."""
    a, b = _minhash_params(num_perm, seed)

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        vals, offsets = _shingle_hashes_batch(texts, shingle_k)
        sig = minhash_signatures_batch(vals, offsets, a, b)
        keys = _band_keys(sig, bands)
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.string()),
                "shingles": pa.LargeListArray.from_arrays(
                    pa.array(offsets), pa.array(vals)
                ),
                "bkeys": pa.FixedSizeListArray.from_arrays(
                    pa.array(keys.reshape(-1)), bands
                ),
            }
        )

    return fn


def _explode_fixed(batch: pa.Table, col: str = "bkeys") -> pa.Table:
    lst = batch.column(col).combine_chunks()
    width = lst.type.list_size
    take = pa.array(np.repeat(np.arange(len(batch), dtype=np.int64), width))
    return pa.table(
        {
            "doc_id": batch.column("doc_id").combine_chunks().take(take),
            "bkey": lst.flatten(),
        }
    )


def _explode_list(batch: pa.Table, col: str) -> pa.Table:
    lst = batch.column(col).combine_chunks()
    cnt = np.diff(np.asarray(lst.offsets))
    take = pa.array(np.repeat(np.arange(len(batch), dtype=np.int64), cnt))
    return pa.table(
        {
            "doc_id": batch.column("doc_id").combine_chunks().take(take),
            "bkey": lst.flatten(),
        }
    )


def minhash_lsh_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 8,
    threshold: float = 0.6,
    max_bucket: int = 200,
    stats_out: dict | None = None,
):
    """MinHash+LSH near-dup: shingle→minhash→band→bucket groupby→verify→CC.
    Output: (doc_id, cluster_id, is_duplicate). bands=32 (r=4 rows/band)
    puts the S-curve's steep part below threshold 0.6: P(miss) at J=0.6 is
    (1−0.6⁴)^32 ≈ 9e-3 and at J=0.9 ≈ 1e-15, and the exact-Jaccard verify
    removes every false positive, so the output is exact on any corpus whose
    near-dups sit above ~0.7. shingle_k=8: 5-char shingles give word-soup
    corpora (tiny vocabularies) background Jaccard ~0.17, which at r=4 emits
    ~2% of all pairs as junk candidates; 8-char windows span word boundaries
    and push background J to ~0.04 (junk rate ~1e-4) while near-dups stay
    ≥0.9."""
    from ..config import parallel_blocks

    cfg = cfg or EngineConfig()
    # fan out single-file reads: one block = one map task in Ray Data, so an
    # unpartitioned parquet input would serialize the signature stage
    ds = parallel_blocks(ds).materialize()
    sigs = ds.map_batches(
        _minhash_map(num_perm, bands, shingle_k, cfg.seed, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.embed_batch_size,
    ).materialize()
    # ^ seam before the LSH groupby: a compute-heavy map feeding an AllToAll
    # in one execution gets throttled by shuffle resource reservation
    # (see pipelines/linkage.py query→dedup note); signatures are skinny.
    # materialize the exploded keys: _pairs_from_keys consumes them twice
    # (hot-key count pass + bucket pass) and the rows are skinny
    keys = sigs.map_batches(_explode_fixed, batch_format="pyarrow").materialize()
    cand = _pairs_from_keys(
        keys, "doc_id", max_bucket, cfg, stats_out=stats_out
    )
    # no pair-dedup shuffle here: a pair surfacing from several band keys in
    # different buckets is just verified redundantly (small constant factor)
    # and collapses in the connected-components step — cheaper than an extra
    # all-to-all. Exact pair dedup (U3) stays available as _dedup_pairs.
    verified = _verify_pairs(
        cand, sigs, "doc_id", "shingles", cfg, _jaccard_verify_fn(threshold)
    ).materialize()
    return _components_output(ds, verified, cfg, id_col)


# ----------------------------------------------------------------- simhash --


def _simhash_map(id_col, text_col):
    """64-bit SimHash per doc: tokenize, hash UNIQUE tokens once (md5-lower64
    — the SQL-twinnable hash), ±1 bit contributions summed occurrence-
    weighted via count-matrix @ contribution-matrix (BLAS), sign → bits."""

    def fn(batch: pa.Table) -> pa.Table:
        from ..functions.tokenizer import tokenize

        ids = batch.column(id_col).cast(pa.string())
        tok_lists = [
            tokenize(t or "") for t in batch.column(text_col).to_pylist()
        ]
        n = len(tok_lists)
        counts = np.fromiter((len(t) for t in tok_lists), np.int64, n)
        total = int(counts.sum())
        fps = np.zeros(n, np.uint64)
        if total:
            flat = np.empty(total, object)
            pos = 0
            for toks in tok_lists:
                flat[pos : pos + len(toks)] = toks
                pos += len(toks)
            inv, uniq = pd.factorize(flat, sort=False)
            uh = np.fromiter(
                (_stable_hash64(t.encode()) for t in uniq), np.uint64, len(uniq)
            )
            shifts = np.arange(64, dtype=np.uint64)
            ubits = ((uh[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
                np.int8
            )
            contrib = (2 * ubits - 1).astype(np.int32)  # (n_uniq, 64) ±1
            rows = np.repeat(np.arange(n, dtype=np.int64), counts)
            nu = len(uniq)
            acc = np.zeros((n, 64), np.int64)
            chunk_rows = max(64, (64 << 20) // (8 * max(nu, 1)))
            offsets = np.zeros(n + 1, np.int64)
            np.cumsum(counts, out=offsets[1:])
            for r0 in range(0, n, chunk_rows):
                r1 = min(r0 + chunk_rows, n)
                lo, hi = offsets[r0], offsets[r1]
                if lo == hi:
                    continue
                key = (rows[lo:hi] - r0) * nu + inv[lo:hi]
                c = np.bincount(key, minlength=(r1 - r0) * nu).reshape(
                    r1 - r0, nu
                )
                acc[r0:r1] = c @ contrib.astype(np.int64)
            pos_bits = (acc > 0).astype(np.uint64)
            fps = (pos_bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
        return pa.table({"doc_id": ids, "simhash": pa.array(fps)})

    return fn


def simhash_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
    max_hamming: int = 3,
    max_bucket: int = 200,
    stats_out: dict | None = None,
):
    """SimHash near-dup: 64-bit fingerprint, 4×16-bit band blocking (any pair
    within Hamming ≤ 3 shares at least one exact band — pigeonhole, so the
    candidate set is EXACT), vectorized Hamming verify, CC."""
    from ..config import parallel_blocks

    cfg = cfg or EngineConfig()
    ds = parallel_blocks(ds).materialize()
    fps = ds.map_batches(
        _simhash_map(id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.embed_batch_size,
    ).materialize()

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks()
        h = np.asarray(batch.column("simhash"))
        out_key = np.empty((4, len(h)), np.uint64)
        with np.errstate(over="ignore"):
            for b in range(4):
                seg = (h >> np.uint64(16 * b)) & np.uint64(0xFFFF)
                out_key[b] = seg ^ (np.uint64(b + 1) * _MIX)
        take = pa.array(np.tile(np.arange(len(h), dtype=np.int64), 4))
        return pa.table(
            {
                "doc_id": ids.take(take),
                "bkey": pa.array(out_key.reshape(-1)),
            }
        )

    cand = _pairs_from_keys(
        fps.map_batches(explode_bands, batch_format="pyarrow").materialize(),
        "doc_id",
        max_bucket,
        cfg,
        stats_out=stats_out,
    )
    # fingerprints (8 B/doc) are the payload side; join fallback beyond cap
    verified = _verify_pairs(
        cand, fps, "doc_id", "simhash", cfg, _hamming_verify_fn(max_hamming)
    ).materialize()
    return _components_output(ds, verified, cfg, id_col)


# ----------------------------------------------------------- ngram jaccard --


def _ngram_map(ngram, num_anchors, id_col, text_col):
    """Per batch: tokenize, hash UNIQUE tokens once, gram hash = polynomial
    fold of the gram's token hashes (vectorized sliding windows over the
    concatenated token-hash array, cross-doc windows masked). Emits each
    doc's sorted-unique gram set plus its ``num_anchors`` smallest gram
    hashes (1-perm MinHash anchors) as block keys."""

    def fn(batch: pa.Table) -> pa.Table:
        from ..functions.tokenizer import tokenize

        texts = batch.column(text_col).to_pylist()
        tok_lists = [tokenize(t or "") for t in texts]
        n = len(tok_lists)
        counts = np.fromiter((len(t) for t in tok_lists), np.int64, n)
        total = int(counts.sum())
        if total:
            flat = np.empty(total, object)
            pos = 0
            for toks in tok_lists:
                flat[pos : pos + len(toks)] = toks
                pos += len(toks)
            inv, uniq = pd.factorize(flat, sort=False)
            uh = np.fromiter(
                (_stable_hash64(t.encode()) for t in uniq), np.uint64, len(uniq)
            )
            th = uh[inv]
        else:
            th = np.empty(0, np.uint64)
        starts = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=starts[1:])
        docs_parts, vals_parts = [], []
        long_idx = np.nonzero(counts >= ngram)[0]
        wc = (counts - ngram + 1)[long_idx]
        total_w = int(wc.sum())
        if total_w:
            with np.errstate(over="ignore"):
                acc = np.zeros(total - ngram + 1, np.uint64)
                for j in range(ngram):
                    acc = acc * _POLY + th[j : total - ngram + 1 + j]
            base = np.repeat(starts[long_idx], wc)
            within = np.arange(total_w, dtype=np.int64) - np.repeat(
                np.cumsum(wc) - wc, wc
            )
            docs_parts.append(np.repeat(long_idx, wc))
            vals_parts.append(acc[base + within])
        short_idx = np.nonzero((counts > 0) & (counts < ngram))[0]
        if len(short_idx):
            svals = np.empty(len(short_idx), np.uint64)
            with np.errstate(over="ignore"):
                for i, d in enumerate(short_idx):
                    h = np.uint64(0)
                    for v in th[starts[d] : starts[d + 1]]:
                        h = h * _POLY + v
                    svals[i] = h
            docs_parts.append(short_idx)
            vals_parts.append(svals)
        if docs_parts:
            docs = np.concatenate(docs_parts)
            vals = np.concatenate(vals_parts)
            order = np.lexsort((vals, docs))
            docs = docs[order]
            vals = vals[order]
            keep = np.ones(len(vals), bool)
            keep[1:] = (vals[1:] != vals[:-1]) | (docs[1:] != docs[:-1])
            docs = docs[keep]
            vals = vals[keep]
        else:
            docs = np.empty(0, np.int64)
            vals = np.empty(0, np.uint64)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(docs, minlength=n), out=offsets[1:])
        # anchors: first num_anchors per doc (gram sets are sorted ascending)
        acounts = np.minimum(np.diff(offsets), num_anchors)
        abase = np.repeat(offsets[:-1], acounts)
        awithin = np.arange(int(acounts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(acounts) - acounts, acounts
        )
        aoffsets = np.zeros(n + 1, np.int64)
        np.cumsum(acounts, out=aoffsets[1:])
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.string()),
                "grams": pa.LargeListArray.from_arrays(
                    pa.array(offsets), pa.array(vals)
                ),
                "anchors": pa.LargeListArray.from_arrays(
                    pa.array(aoffsets), pa.array(vals[abase + awithin])
                ),
            }
        )

    return fn


def ngram_jaccard_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
    ngram: int = 3,
    threshold: float = 0.5,
    num_anchors: int = 4,
    max_bucket: int = 200,
    stats_out: dict | None = None,
):
    """Word n-gram Jaccard near-dup with rare-shingle anchor blocking: each
    doc emits its ``num_anchors`` smallest n-gram hashes as block keys (two
    docs with Jaccard ≥ 0.5 share a smallest-hash anchor with high
    probability — this is 1-perm MinHash with k anchors)."""
    from ..config import parallel_blocks

    cfg = cfg or EngineConfig()
    ds = parallel_blocks(ds).materialize()
    sigs = ds.map_batches(
        _ngram_map(ngram, num_anchors, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.embed_batch_size,
    ).materialize()
    keys = sigs.map_batches(
        lambda t: _explode_list(t, "anchors"), batch_format="pyarrow"
    ).materialize()
    cand = _pairs_from_keys(
        keys, "doc_id", max_bucket, cfg, stats_out=stats_out
    )
    verified = _verify_pairs(
        cand, sigs, "doc_id", "grams", cfg, _jaccard_verify_fn(threshold)
    ).materialize()
    return _components_output(ds, verified, cfg, id_col)


# ----------------------------------------------------- TF-IDF gram overlap --


def _weighted_overlap_verify_fn(tau_num: int, tau_den: int):
    """pair_fn: weighted Jaccard over interleaved [gram, weight] payloads
    (grams ascending). Keep ⇔ tau_den·num ≥ tau_num·den with
    num = Σ w over the intersection, den = Σ w(A) + Σ w(B) − num — all
    int64 cross-multiplication, no float threshold."""

    def fn(ls, rs, lp, rp) -> pa.Table:
        from ..state.lookup import np_u64_lists

        la = np_u64_lists(lp)
        ra = np_u64_lists(rp)
        n = len(ls)
        keep = np.zeros(n, bool)
        for i in range(n):
            a, b = la[i], ra[i]
            if a is None or b is None or len(a) == 0 or len(b) == 0:
                continue
            ga, wa = a[0::2], a[1::2].astype(np.int64)
            gb, wb = b[0::2], b[1::2].astype(np.int64)
            idx = np.searchsorted(ga, gb)
            idx[idx >= len(ga)] = len(ga) - 1
            m = ga[idx] == gb
            num = int(wb[m].sum())
            den = int(wa.sum()) + int(wb.sum()) - num
            keep[i] = den > 0 and tau_den * num >= tau_num * den
        hit = np.nonzero(keep)[0]
        ls = np.asarray(ls, object)
        rs = np.asarray(rs, object)
        return pa.table(
            {
                "left_id": pa.array(ls[hit], pa.string()),
                "right_id": pa.array(rs[hit], pa.string()),
            }
        )

    return fn


def tfidf_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
    ngram: int = 3,
    df_cap: int = 5,
    tau_num: int = 1,
    tau_den: int = 2,
    stats_out: dict | None = None,
):
    """TF-IDF-weighted n-gram overlap dedup — the classic *weighted token
    blocking* scheme (Magellan/JedAI family): block on the inverted index of
    NON-STOP grams (document frequency ≤ ``df_cap``), verify with a weighted
    Jaccard where each gram weighs ``n_docs // df`` (an integer idf
    surrogate: rare shared grams dominate), keep pairs with
    num/den ≥ tau_num/tau_den, then connected components. Output
    (doc_id, cluster_id, is_duplicate) — same contract as the rest of the
    dedup family. No reference equivalent (the reference has no dedup);
    this is the deterministic, exactly-SQL-twinnable counterpart of
    probabilistic anchor blocking (``ngram_jaccard_dedup``).

    Scale shape: one gram-bucket exchange computes global df per gram AND
    annotates every (doc, gram) row with it — the exchange ships only
    (doc_id, uint64 hash) metadata, never text. Candidate generation runs
    over the df ≤ df_cap slice only (the stop-gram cap bounds every posting
    list, so per-key all-pairs work is ≤ C(df_cap, 2) — no salting needed
    by construction); weights ride to the verify stage inside each doc's
    payload as interleaved [gram, weight] pairs, so the verify needs NO
    vocabulary broadcast. Everything downstream reuses the shared
    byte-capped lookup / hash-join verify and CC machinery."""
    import ray  # noqa: F401  (parity with siblings; exchange is Dataset-only)

    from ..config import parallel_blocks

    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")
    if df_cap < 2:
        raise ValueError(f"df_cap must be >= 2, got {df_cap}")
    if tau_num < 0 or tau_den <= 0:
        raise ValueError(f"bad threshold {tau_num}/{tau_den}")

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    ds = parallel_blocks(ds).materialize()
    n_docs = ds.count()

    sigs = ds.map_batches(
        _ngram_map(ngram, 0, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.embed_batch_size,
    ).materialize()
    exploded = sigs.map_batches(
        lambda t: _explode_list(t, "grams"), batch_format="pyarrow"
    )

    def add_gram_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "bkey": df["bkey"],
                "_bucket": (
                    df["bkey"].to_numpy().astype(np.uint64) % np.uint64(nb)
                ).astype(np.int32),
            }
        )

    def annotate_df(g: pd.DataFrame) -> pd.DataFrame:
        # all rows of a gram land in one bucket (bucket = hash % nb), so the
        # within-group size IS the global document frequency
        sz = g.groupby("bkey", sort=False)["doc_id"].transform("size")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "bkey": g["bkey"],
                "df": sz.to_numpy(np.int64),
            }
        )

    ann = (
        exploded.map_batches(add_gram_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(annotate_df, batch_format="pandas")
        .materialize()
    )

    cand = _pairs_from_keys(
        ann.filter(expr=f"df >= 2 and df <= {df_cap}"),
        "doc_id",
        df_cap,
        cfg,
        stats_out=stats_out,
    )

    def add_doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_bucket"] = bucket_of(df["doc_id"], nb)
        return df

    def pack_doc(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["doc_id", "bkey"], kind="mergesort")
        ids = g["doc_id"].to_numpy(object)
        bk = g["bkey"].to_numpy().astype(np.uint64)
        w = (n_docs // g["df"].to_numpy(np.int64)).astype(np.uint64)
        starts = np.nonzero(
            np.concatenate(([True], ids[1:] != ids[:-1]))
        )[0]
        counts = np.diff(np.concatenate((starts, [len(ids)])))
        inter = np.empty(2 * len(bk), np.uint64)
        inter[0::2] = bk
        inter[1::2] = w
        offsets = np.zeros(len(starts) + 1, np.int64)
        np.cumsum(2 * counts, out=offsets[1:])
        return pa.table(
            {
                "doc_id": pa.array(ids[starts], pa.string()),
                "tw": pa.LargeListArray.from_arrays(
                    pa.array(offsets), pa.array(inter)
                ),
            }
        )

    docw = (
        ann.map_batches(add_doc_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(pack_doc, batch_format="pandas")
        .materialize()
    )

    verified = _verify_pairs(
        cand, docw, "doc_id", "tw", cfg,
        _weighted_overlap_verify_fn(tau_num, tau_den),
    ).materialize()
    return _components_output(ds, verified, cfg, id_col)


# ------------------------------------------------------- embedding neardup --


def embedding_neardup(
    emb_ds,
    cfg: EngineConfig | None = None,
    id_col: str = "vec_id",
    threshold: float = 0.95,
    k: int = 10,
    mode: str = "exact",
):
    """Embedding-cosine near-dup: top-K self-join (exact pairer, or IVF for
    the big-data path — cell-routed probes instead of a full index scan per
    query), keep cosine ≥ τ, components.
    Output (doc_id, cluster_id, is_duplicate)."""
    from ..stages.pairing import make_pairer

    cfg = cfg or EngineConfig()
    emb_ds = emb_ds.materialize()
    pairer = make_pairer(mode, k, cfg)
    pairer.index(emb_ds, id_col=id_col)
    cand = pairer.query(emb_ds, id_col=id_col)
    near = cand.filter(expr=f"cosine >= {threshold}")
    from ..pipelines.evaluate import normalize_pairs

    pairs = normalize_pairs(near).map_batches(
        lambda t: pa.table(
            {"left_id": t.column("ltable_id"), "right_id": t.column("rtable_id")}
        ),
        batch_format="pyarrow",
    ).materialize()
    return _components_output(emb_ds, pairs, cfg, id_col)


# --------------------------------------------------------- decontamination --


def decontaminate(
    ds,
    benchmark_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    bench_text_col: str | None = None,
    ngram: int = 3,
    threshold: float = 0.5,
    cfg: EngineConfig | None = None,
):
    """Benchmark decontamination (training-data-pipeline op): flag documents
    whose word-``ngram`` sets overlap a benchmark corpus — the standard
    n-gram-collision test run before training on scraped data.

    Output: (doc_id, n_grams, n_overlap, contamination, is_contaminated)
    with contamination = |grams(doc) ∩ grams(benchmark)| / |grams(doc)|.

    Scale shape: the benchmark side is SMALL by definition (eval suites are
    ~10³-10⁵ docs); its distinct gram-hash set is collected once, sorted,
    ray.put once, and every scoring task reads it zero-copy — the corpus
    side streams through one vectorized map_batches (per-doc overlap via one
    searchsorted + add.reduceat), no shuffle at all."""
    import ray

    cfg = cfg or EngineConfig()
    from ..config import parallel_blocks

    gm = _ngram_map(ngram, 1, id_col, text_col)
    gb = _ngram_map(
        ngram, 1, id_col="__bid", text_col=bench_text_col or text_col
    )

    def bench_grams(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "__bid": pa.array(
                    np.arange(len(batch)).astype(str), pa.string()
                ),
                (bench_text_col or text_col): batch.column(
                    bench_text_col or text_col
                ),
            }
        )
        g = gb(t)
        vals = np.unique(np.asarray(g.column("grams").combine_chunks().flatten()))
        return pa.table({"g": pa.array(vals)})

    parts = [
        np.asarray(b.column("g"))
        for b in benchmark_ds.map_batches(
            bench_grams, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    bench = (
        np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)
    )
    bench_ref = ray.put(bench)

    def score(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import cached_get

        bset = cached_get(bench_ref)
        g = gm(batch)
        grams = g.column("grams").combine_chunks()
        vals = np.asarray(grams.flatten())
        offsets = np.asarray(grams.offsets)
        counts = np.diff(offsets)
        n = len(counts)
        overlap = np.zeros(n, np.int64)
        if len(vals) and len(bset):
            idx = np.searchsorted(bset, vals)
            idx[idx >= len(bset)] = len(bset) - 1
            hit = (bset[idx] == vals).astype(np.int64)
            nz = counts > 0
            overlap[nz] = np.add.reduceat(hit, offsets[:-1][nz])
        contamination = np.zeros(n, np.float64)
        nz = counts > 0
        contamination[nz] = overlap[nz] / counts[nz]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_grams": pa.array(counts),
                "n_overlap": pa.array(overlap),
                "contamination": pa.array(contamination),
                "is_contaminated": pa.array(contamination >= threshold),
            }
        )

    return parallel_blocks(ds).map_batches(
        score, batch_format="pyarrow", batch_size=cfg.embed_batch_size
    )


# ------------------------------------------- cluster representatives ------


def cluster_representatives(
    clusters,
    docs,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Pick the canonical document of every duplicate cluster — the step
    that turns a near-dup CLUSTERING (any of the dedup family's
    (doc_id, cluster_id, is_duplicate) outputs) into an actual deduped
    corpus. "Best" = most ``\\S+`` tokens, ties broken by ascending doc_id
    (string order — cluster outputs carry VARCHAR ids) — keep the most
    complete copy, deterministically. Output: one row per input doc,
    ``(doc_id, cluster_id, keep)``; filtering ``keep`` yields exactly one
    survivor per cluster (singletons survive trivially).

    Scale shape: the corpus text never rides an exchange — token counts are
    computed map-side (one vectorized RE2 pass) and joined as a skinny
    (id, n_tokens) table (size-aware broadcast below the cap, hash join
    above); the per-cluster argmax is the engine's standard small-int-bucket
    exchange (bucket = md5-lower64(cluster_id) % num_buckets) with one
    vectorized drop_duplicates per bucket, never a per-cluster groupby."""
    import pyarrow.compute as pc

    from .relational import broadcast_join

    cfg = cfg or EngineConfig()
    nr = cfg.num_buckets

    def counts(t: pa.Table) -> pa.Table:
        txt = pc.cast(t.column(text_col), pa.string())
        n = pc.count_substring_regex(pc.fill_null(txt, ""), r"\S+")
        return pa.table(
            {
                "_tid": pc.cast(t.column(id_col), pa.string()),
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    tok = docs.select_columns([id_col, text_col]).map_batches(
        counts, batch_format="pyarrow"
    )
    joined = broadcast_join(
        clusters,
        tok,
        big_key=id_col,
        small_key="_tid",
        payload_cols=["n_tokens"],
        cfg=cfg,
    )

    def bucketed(t: pa.Table) -> pa.Table:
        keys = t.column("cluster_id").to_pylist()
        uniq, inv = np.unique(np.asarray(keys, dtype=object), return_inverse=True)
        b = (hash64_strs(uniq) % np.uint64(nr)).astype(np.int32)[inv]
        return t.append_column("_bucket", pa.array(b))

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        # survivor = first row per cluster under (n_tokens desc, doc_id asc)
        g = g.sort_values(
            ["cluster_id", "n_tokens", id_col],
            ascending=[True, False, True],
            kind="mergesort",
        )
        keep = ~g["cluster_id"].duplicated()
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(),
                "cluster_id": g["cluster_id"].to_numpy(),
                "keep": keep.to_numpy(),
            }
        )

    return (
        joined.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(pick, batch_format="pandas")
    )


# ------------------------------------------------------- duplicate spans --


def _strided_window_hashes(
    texts: list, k: int, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polynomial hashes of the STRIDED k-byte windows of every doc in one
    vectorized pass (multiset — unlike _shingle_hashes_batch, duplicates
    within a doc are kept: span-level dedup counts occurrences).

    Returns (doc_idx, hashes, n_windows[n]) where n_windows[d] =
    max(0, (len_d - k)//stride + 1); docs shorter than k bytes have zero
    windows (no short-doc fallback — a span shorter than the span length is
    not a span)."""
    n = len(texts)
    n_windows = np.zeros(n, np.int64)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64), n_windows
    bufs = [(t or "").encode("utf-8", "surrogatepass") for t in texts]
    lens = np.fromiter((len(b) for b in bufs), np.int64, n)
    n_windows = np.maximum(0, (lens - k) // stride + 1)
    starts = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=starts[1:])
    cat = np.frombuffer(b"".join(bufs), np.uint8)
    if len(cat) < k or n_windows.sum() == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64), n_windows
    pows = np.empty(k, np.uint64)
    pows[0] = np.uint64(1)
    with np.errstate(over="ignore"):  # intentional mod-2^64 wraparound
        for i in range(1, k):
            pows[i] = pows[i - 1] * _POLY
        win = np.lib.stride_tricks.sliding_window_view(cat, k)
        h_all = (win * pows[::-1][None, :]).sum(axis=1, dtype=np.uint64)
    wc = n_windows
    nz = np.nonzero(wc)[0]
    total = int(wc[nz].sum())
    doc_idx = np.repeat(nz, wc[nz])
    within = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(wc[nz]) - wc[nz], wc[nz])
    ) * stride
    vals = h_all[starts[doc_idx] + within]
    return doc_idx, vals, n_windows


def duplicate_spans(
    docs,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 32,
    stride: int = 16,
):
    """Substring-level duplication stats (the span-dedup signal of Lee et
    al., "Deduplicating Training Data Makes Language Models Better"): for
    every doc, the fraction of its strided k-byte windows whose content
    occurs ≥ 2 times in the corpus-wide window multiset (including within
    the same doc).

    Output: (id_col, n_windows:int64, n_dup_windows:int64, dup_frac:float64).

    Scale shape: one vectorized window-hash pass per batch with per-batch
    (gram, doc, cnt) combine; ONE bucketed exchange on hash(gram) computes
    global gram totals and per-doc duplicated-window partials; the partials
    union the per-doc (n_windows, 0) rows and reduce in ONE bucketed
    exchange on hash(doc) — the corpus text never rides an exchange.
    Grams travel as 64-bit polynomial hashes (collision odds ~n²/2⁻⁶⁴); the
    SQL twin compares the substrings themselves — identical on any corpus
    without an adversarial hash collision, and byte-vs-character window
    semantics coincide on ASCII corpora (same documented assumption as the
    minhash twin)."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def gram_rows(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        doc_idx, vals, _ = _strided_window_hashes(texts, k, stride)
        ids = np.asarray(t.column(id_col), np.int64)
        # combine within the batch: (gram, doc) occurrence counts
        order = np.lexsort((doc_idx, vals))
        vals, doc_idx = vals[order], doc_idx[order]
        if len(vals):
            new = np.ones(len(vals), bool)
            new[1:] = (vals[1:] != vals[:-1]) | (doc_idx[1:] != doc_idx[:-1])
            firsts = np.nonzero(new)[0]
            cnt = np.diff(np.append(firsts, len(vals)))
            vals, doc_idx = vals[firsts], doc_idx[firsts]
        else:
            cnt = np.zeros(0, np.int64)
        return pa.table(
            {
                "_gram": pa.array(vals.view(np.int64)),
                "_doc": pa.array(ids[doc_idx]),
                "_cnt": pa.array(cnt.astype(np.int64)),
                "_bucket": pa.array(
                    (vals % np.uint64(nb)).astype(np.int32)
                ),
            }
        )

    def dup_partials(g: pd.DataFrame) -> pd.DataFrame:
        grams = g["_gram"].to_numpy(np.int64)
        cnt = g["_cnt"].to_numpy(np.int64)
        uniq, inv = np.unique(grams, return_inverse=True)
        total = np.bincount(inv, weights=cnt).astype(np.int64)
        dup = cnt * (total[inv] >= 2)
        docs_ = g["_doc"].to_numpy(np.int64)
        du, dinv = np.unique(docs_, return_inverse=True)
        per_doc = np.bincount(dinv, weights=dup).astype(np.int64)
        keep = per_doc > 0
        return pd.DataFrame(
            {"_doc": du[keep], "_nw": np.zeros(keep.sum(), np.int64),
             "_nd": per_doc[keep]}
        )

    dup_ds = (
        docs.select_columns([id_col, text_col])
        .map_batches(gram_rows, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(dup_partials, batch_format="pandas")
    )

    def window_rows(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        _, _, nw = _strided_window_hashes(texts, k, stride)
        return pa.table(
            {
                "_doc": t.column(id_col).cast(pa.int64()),
                "_nw": pa.array(nw),
                "_nd": pa.array(np.zeros(len(nw), np.int64)),
            }
        )

    nw_ds = docs.select_columns([id_col, text_col]).map_batches(
        window_rows, batch_format="pyarrow"
    )

    from .events import _user_bucket

    def doc_bucket(t: pa.Table) -> pa.Table:
        d = np.asarray(t.column("_doc"), np.int64)
        return t.append_column("_b2", pa.array(_user_bucket(d, nb)))

    def reduce_doc(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby("_doc", sort=False)
            .agg(n_windows=("_nw", "sum"), n_dup_windows=("_nd", "sum"))
            .reset_index()
        )
        nw = agg["n_windows"].to_numpy(np.int64)
        nd = agg["n_dup_windows"].to_numpy(np.int64)
        frac = np.where(nw > 0, nd / np.maximum(nw, 1), 0.0)
        return pd.DataFrame(
            {
                id_col: agg["_doc"].to_numpy(np.int64),
                "n_windows": nw,
                "n_dup_windows": nd,
                "dup_frac": frac,
            }
        )

    return (
        nw_ds.union(dup_ds)
        .map_batches(doc_bucket, batch_format="pyarrow")
        .groupby("_b2")
        .map_groups(reduce_doc, batch_format="pandas")
    )


def dup_size_histogram(
    ds,
    cfg: EngineConfig | None = None,
    *,
    text_col: str = "text",
):
    """Corpus duplication profile — the histogram of exact-duplicate
    cluster sizes: how many distinct texts occur once, twice, …, n times.
    The first scan a dedup campaign runs (it sizes the problem and picks
    the strategy) and the canonical before/after report. Emits
    (cluster_size:int64, n_clusters:int64); identity is the md5-lower64
    of ``coalesce(text, '')`` (repo-wide collision caveat ~n²/2⁶⁴).

    Metadata-only exchange: per batch, texts collapse to DISTINCT
    (hash, count) partials map-side; one bucketed exchange on the hash
    sums counts per text (buckets partition the hash space → exact), then
    each bucket collapses to (size, n) partials and a repartition(1)
    combine sums those — O(distinct sizes) driver state, the corpus never
    moves.
    """
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = pc.fill_null(pc.cast(t.column(text_col), pa.string()), "")
        codes, uniq = pd.factorize(
            txt.to_numpy(zero_copy_only=False).astype(object), sort=False
        )
        h = hash64_strs(uniq)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "_h": pa.array(h.view(np.int64)),
                "_n": pa.array(cnt),
                "_bucket": pa.array(
                    (h % np.uint64(nb)).astype(np.int32)
                ),
            }
        )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "cluster_size": pd.Series(dtype=np.int64),
                    "n_clusters": pd.Series(dtype=np.int64),
                }
            )
        sizes = df.groupby("_h", sort=False)["_n"].sum()
        g = sizes.value_counts()
        return pd.DataFrame(
            {
                "cluster_size": g.index.to_numpy(np.int64),
                "n_clusters": g.to_numpy(np.int64),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cluster_size", sort=True)["n_clusters"].sum()
        return pd.DataFrame(
            {
                "cluster_size": g.index.to_numpy(np.int64),
                "n_clusters": g.to_numpy(np.int64),
            }
        )

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


# ------------------------------------------------------------ meta-blocking --


def meta_blocking(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
    ngram: int = 3,
    df_cap: int = 5,
):
    """Meta-blocking with Weighted Node Pruning (Papadakis et al., TKDE'14
    — the JedAI block-cleaning stage): build the BLOCK GRAPH from an
    inverted index of non-stop word n-grams (2 ≤ df ≤ df_cap), weight
    every co-occurring pair by its Common Block Scheme count (number of
    shared blocks), and keep an edge iff its weight reaches the MEAN edge
    weight of EITHER endpoint. The mean compare is exact integer
    cross-multiplication (w·deg ≥ Σw), never a float. Emits
    (left_id, right_id, w) for the retained comparisons.

    Scale shape: gram signatures are the shared vectorized ``_ngram_map``
    kernel; ONE gram-bucket exchange computes df and prunes stop grams
    (block purging — df_cap bounds every posting list, so per-block pair
    work is ≤ C(df_cap, 2) with no salting needed by construction); pair
    weights pre-combine per bucket before ONE pair-bucket exchange; node
    degree/weight sums are bounded by the doc count and attach via the
    size-aware broadcast join."""
    from ..config import parallel_blocks
    from ..stages.relational import broadcast_join

    if df_cap < 2:
        raise ValueError(f"df_cap must be >= 2, got {df_cap}")
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    ds = parallel_blocks(ds).materialize()
    sigs = ds.map_batches(
        _ngram_map(ngram, 0, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.embed_batch_size,
    )
    exploded = sigs.map_batches(
        lambda t: _explode_list(t, "grams"), batch_format="pyarrow"
    )

    def add_gram_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "bkey": df["bkey"],
                "_bucket": (
                    df["bkey"].to_numpy().astype(np.uint64) % np.uint64(nb)
                ).astype(np.int32),
            }
        )

    def block_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # all rows of a gram land in this bucket → within-group size IS df;
        # purge stop blocks (df > cap) and singletons, pair within blocks,
        # pre-combine pair weights before the pair exchange
        sz = g.groupby("bkey", sort=False)["doc_id"].transform("size")
        g = g[(sz >= 2) & (sz <= df_cap)]
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "left_id": pd.Series(dtype=object),
                    "right_id": pd.Series(dtype=object),
                    "w": pd.Series(dtype=np.int64),
                    "_bucket2": pd.Series(dtype=np.int32),
                }
            )
        m = g.merge(g, on="bkey")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        c = (
            m.groupby(["doc_id_x", "doc_id_y"], sort=False)
            .size()
            .rename("w")
            .reset_index()
        )
        out = pd.DataFrame(
            {
                "left_id": c["doc_id_x"],
                "right_id": c["doc_id_y"],
                "w": c["w"].astype(np.int64),
            }
        )
        out["_bucket2"] = bucket_of(
            out["left_id"] + "\x00" + out["right_id"], nb
        )
        return out

    def combine_pairs(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(["left_id", "right_id"], sort=False)["w"]
            .sum()
            .reset_index()
        )
        s["w"] = s["w"].astype("int64")
        return s

    edges = (
        exploded.map_batches(add_gram_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(block_pairs, batch_format="pandas")
        .groupby("_bucket2")
        .map_groups(combine_pairs, batch_format="pandas")
        .materialize()
    )

    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "n": pd.concat([df["left_id"], df["right_id"]],
                               ignore_index=True),
                "w": pd.concat([df["w"], df["w"]], ignore_index=True),
            }
        )
        out["_bucket"] = bucket_of(out["n"], nb)
        return out

    def node_stats(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("n", sort=False)["w"].agg(["size", "sum"]).reset_index()
        return pd.DataFrame(
            {
                "n": s["n"],
                "deg": s["size"].astype("int64"),
                "sw": s["sum"].astype("int64"),
            }
        )

    nodes = (
        edges.map_batches(node_rows, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(node_stats, batch_format="pandas")
    )

    j = broadcast_join(
        edges, nodes.map_batches(
            lambda df: df.rename(
                columns={"n": "left_id", "deg": "deg_a", "sw": "sw_a"}
            ),
            batch_format="pandas",
        ),
        big_key="left_id", small_key="left_id",
        payload_cols=["deg_a", "sw_a"], cfg=cfg,
    )
    j = broadcast_join(
        j, nodes.map_batches(
            lambda df: df.rename(
                columns={"n": "right_id", "deg": "deg_b", "sw": "sw_b"}
            ),
            batch_format="pandas",
        ),
        big_key="right_id", small_key="right_id",
        payload_cols=["deg_b", "sw_b"], cfg=cfg,
    )

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        w = df["w"].to_numpy(np.int64)
        keep = (w * df["deg_a"].to_numpy(np.int64)
                >= df["sw_a"].to_numpy(np.int64)) | (
            w * df["deg_b"].to_numpy(np.int64)
            >= df["sw_b"].to_numpy(np.int64)
        )
        out = df.loc[keep, ["left_id", "right_id", "w"]].copy()
        out["w"] = out["w"].astype("int64")
        return out

    return j.map_batches(prune, batch_format="pandas")


# ---------------------------------------------------- segment-level dedup --


def _word_segments(txt, seg_words: int):
    """Fixed word-window segmentation of a string array: tokens = split on a
    single literal space (exactly the twin's ``string_split(text, ' ')``
    contract — NOT ``\\s+``), segment ``j`` of a doc = tokens
    ``[j·W, (j+1)·W)`` joined by ' '. Returns (segment StringArray in
    (doc, seg_idx) order, per-doc segment counts int64).

    Vectorized: ONE split kernel, then a ListArray re-windowed over the SAME
    flat token buffer (zero-copy — consecutive segments tile each doc and
    docs are contiguous, so the window bounds are themselves a valid
    monotonic offsets vector) + ONE binary_join. No per-row Python."""
    import pyarrow.compute as pc

    w = int(seg_words)
    if w < 1:
        raise ValueError(f"seg_words must be >= 1, got {seg_words}")
    toks = pc.split_pattern(pc.fill_null(pc.cast(txt, pa.string()), ""), " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    off = np.asarray(toks.offsets, np.int64)
    seg_counts = -(-np.diff(off) // w)  # ceil(L/W); L >= 1 (split("") = [""])
    total = int(seg_counts.sum())
    if total == 0:
        return pa.array([], pa.string()), seg_counts
    doc_of = np.repeat(np.arange(len(seg_counts)), seg_counts)
    first = np.repeat(np.cumsum(seg_counts) - seg_counts, seg_counts)
    starts = off[:-1][doc_of] + (np.arange(total) - first) * w
    bounds = np.append(starts, off[-1]).astype(np.int32)
    seg_list = pa.ListArray.from_arrays(pa.array(bounds, pa.int32()), toks.values)
    return pc.binary_join(seg_list, " "), seg_counts


def _md5_128_codes(values: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) uint64 md5-128 per row, hashing each DISTINCT string once
    (duplicate-heavy by premise). Identity convention matches exact_dedup."""
    codes, uniq = pd.factorize(values, sort=False)
    u1 = np.empty(len(uniq), np.uint64)
    u2 = np.empty(len(uniq), np.uint64)
    for i, t in enumerate(uniq):
        d = hashlib.md5(str(t).encode("utf-8", "surrogatepass")).digest()
        u1[i] = int.from_bytes(d[:8], "little")
        u2[i] = int.from_bytes(d[8:], "little")
    return u1[codes], u2[codes]


def segment_dedup(
    ds,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    seg_words: int = 8,
):
    """Span-level exact dedup WITH reassembly — the CCNet/C4 line-dedup
    shape over fixed word windows (this corpus has no newlines, so the
    dedup unit is every run of ``seg_words`` consecutive words; swap the
    segmentation fn for '\\n' splitting on a corpus with real lines).
    Globally, only the FIRST occurrence of each distinct segment survives
    (winner = lexicographic min (doc_id, seg_idx) — associative, so
    map-side partials are exact); every doc reassembles from its surviving
    segments in original order (possibly down to empty text).
    Output (doc_id, text, n_segs, n_kept).

    Scale shape (the exact_dedup discipline): the corpus text NEVER rides
    an exchange. Pass A ships only (md5-128 segment hash, doc, seg_idx)
    skinny rows pre-reduced per batch; winners regroup per doc into packed
    int32 keep-blobs on a second skinny exchange; blobs re-attach to the
    streaming docs via the byte-capped broadcast lookup, falling back to a
    left-outer hash join. Segment identity is the 128-bit md5 (false merge
    ~ n²/2¹²⁸). Reassembly re-derives the segmentation map-side — recompute
    beats shipping the corpus twice."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    w = int(seg_words)

    def partial(df_in: pd.DataFrame) -> pd.DataFrame:
        segs, nseg = _word_segments(
            pa.array(df_in[text_col], pa.string()), w
        )
        h1, h2 = _md5_128_codes(segs.to_pandas())
        df = pd.DataFrame(
            {
                "_h1": h1,
                "_h2": h2,
                "_doc": df_in[id_col].values.repeat(nseg),
                "_seg": (
                    np.arange(len(segs))
                    - np.repeat(np.cumsum(nseg) - nseg, nseg)
                ).astype(np.int64),
            }
        )
        df = df.sort_values(
            ["_h1", "_h2", "_doc", "_seg"], kind="mergesort"
        ).drop_duplicates(["_h1", "_h2"])
        df["_bucket"] = (
            df["_h1"].to_numpy(np.uint64) % np.uint64(nb)
        ).astype("int32")
        return df

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["_h1", "_h2", "_doc", "_seg"], kind="mergesort"
        ).drop_duplicates(["_h1", "_h2"])
        return pd.DataFrame(
            {"_doc": g["_doc"].values, "_seg": g["_seg"].values}
        )

    winners = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )

    def add_doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df["_b2"] = (
            id_hash(df["_doc"].values) % np.uint64(nb)
        ).astype("int32")
        return df

    def keep_blobs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_doc", "_seg"], kind="mergesort")
        docs = g["_doc"].values
        segs = g["_seg"].to_numpy(np.int64).astype("<i4")
        change = np.flatnonzero(docs[1:] != docs[:-1]) + 1
        bnds = np.concatenate(([0], change, [len(docs)]))
        pid = [str(docs[b]) for b in bnds[:-1]]
        blob = [segs[a:b].tobytes() for a, b in zip(bnds[:-1], bnds[1:])]
        return pd.DataFrame(
            {
                "_pid": pd.array(pid, dtype="string"),
                "_blob": pd.Series(blob, dtype=object),
            }
        )

    blob_tbl = (
        winners.map_batches(add_doc_bucket, batch_format="pandas")
        .groupby("_b2")
        .map_groups(keep_blobs, batch_format="pandas")
        .map_batches(
            lambda t: pa.table(
                {
                    "_pid": t.column("_pid").cast(pa.string()),
                    "_ph": pa.array(id_hash(t.column("_pid").to_pylist())),
                    "_blob": t.column("_blob").cast(pa.large_binary()),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def rebuild(t: pa.Table, blobs: np.ndarray) -> pa.Table:
        import pyarrow.compute as pc

        segs, nseg = _word_segments(t.column(text_col), w)
        seg_start = np.cumsum(nseg) - nseg
        gidx: list[np.ndarray] = []
        counts = np.zeros(len(t), np.int64)
        for i, b in enumerate(blobs):
            if b is None:
                continue
            k = np.frombuffer(b, "<i4").astype(np.int64)
            gidx.append(seg_start[i] + k)
            counts[i] = len(k)
        flat = (
            np.concatenate(gidx) if gidx else np.empty(0, np.int64)
        )
        taken = segs.take(pa.array(flat, pa.int64()))
        off2 = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        out_txt = pc.fill_null(
            pc.binary_join(
                pa.ListArray.from_arrays(pa.array(off2, pa.int32()), taken),
                " ",
            ),
            "",
        )
        return pa.table(
            {
                "doc_id": t.column(id_col),
                "text": out_txt,
                "n_segs": pa.array(nseg.astype(np.int64)),
                "n_kept": pa.array(counts),
            }
        )

    mat = blob_tbl.materialize()
    fits = (
        mat.count() <= cfg.broadcast_rows_max
        and mat.size_bytes() <= cfg.broadcast_bytes_max
    )
    if fits:
        refs = mat.to_arrow_refs()
        cache_key = "segwin:" + ",".join(r.hex() for r in refs)

        def attach(batch: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_compute
            from ..state.lookup import ColumnLookup

            lk = cached_compute(
                cache_key,
                lambda: ColumnLookup(refs, "_pid", "_blob", hash_col="_ph"),
            )
            ids = [str(x) for x in batch.column(id_col).to_pylist()]
            return rebuild(batch, lk.take_pylist(ids))

        return ds.map_batches(attach, batch_format="pyarrow")

    from ..config import join_partitions

    joined = ds.map_batches(
        lambda t: pa.table(
            {
                "_pid": t.column(id_col).cast(pa.string()),
                id_col: t.column(id_col),
                text_col: t.column(text_col),
            }
        ),
        batch_format="pyarrow",
    ).join(
        mat.select_columns(["_pid", "_blob"]),
        join_type="left_outer",
        num_partitions=join_partitions(),
        on=("_pid",),
    )
    return joined.map_batches(
        lambda t: rebuild(
            t, np.asarray(t.column("_blob").to_pylist(), dtype=object)
        ),
        batch_format="pyarrow",
    )


def shared_prefixes(
    ds,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix_chars: int = 24,
    min_docs: int = 2,
):
    """Boilerplate-prefix report — the header/template detection scan of a
    dedup campaign: every ``prefix_chars``-code-point document prefix shared
    by ≥ ``min_docs`` docs, with its count. Output (prefix, n_docs).

    Scale shape: ONE utf8_slice kernel per batch (code-point semantics ==
    DuckDB substr, so the twin holds for non-ASCII), per-batch (prefix,
    count) partials — bounded by distinct prefixes, never rows — ride ONE
    bucketed exchange on hash(prefix); the documents stream never moves.
    Prefixes are caller-bounded short strings, so shipping the text of a
    partial (unlike full-doc dedup) is O(distinct · prefix_chars)."""
    import pyarrow.compute as pc

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    n = int(prefix_chars)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        pref = pc.utf8_slice_codeunits(
            pa.array(df[text_col].fillna(""), pa.string()), 0, n
        ).to_pandas()
        g = pref.value_counts()
        return pd.DataFrame(
            {
                "_p": g.index.values,
                "_c": g.to_numpy(np.int64),
                "_bucket": (
                    id_hash(g.index.values) % np.uint64(nb)
                ).astype("int32"),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("_p", sort=False)["_c"].sum().reset_index()
        agg = agg[agg["_c"] >= min_docs]
        return pd.DataFrame(
            {
                "prefix": agg["_p"].values,
                "n_docs": agg["_c"].to_numpy(np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


# --------------------------------------------------- edit-distance join --


def _lev_verify_fn(max_dist: int):
    """pair_fn: additive length pre-filter (| |a|−|b| | > d ⟹ ed > d),
    then exact batched Levenshtein; emits pairs with dist ≤ d."""

    def fn(ls, rs, lp, rp) -> pa.Table:
        import pyarrow.compute as pc

        from ..functions.textsim import levenshtein_batch

        valid = _pair_valid_mask(lp, rp)
        # length pre-filter in Arrow (no Python materialization): only
        # survivors get to_pylist'd for the bit-parallel DP kernel
        lp0 = pc.fill_null(lp, "")
        rp0 = pc.fill_null(rp, "")
        la = np.asarray(pc.utf8_length(lp0), dtype=np.int64)
        lb = np.asarray(pc.utf8_length(rp0), dtype=np.int64)
        cand_idx = np.nonzero(valid & (np.abs(la - lb) <= max_dist))[0]
        dist = levenshtein_batch(
            pc.take(lp0, pa.array(cand_idx, pa.int64())).to_pylist(),
            pc.take(rp0, pa.array(cand_idx, pa.int64())).to_pylist(),
        )
        keep = dist <= max_dist
        idx = cand_idx[keep]
        ls = np.asarray(ls, object)
        rs = np.asarray(rs, object)
        return pa.table(
            {
                "left_id": pa.array(ls[idx], pa.string()),
                "right_id": pa.array(rs[idx], pa.string()),
                "dist": pa.array(dist[keep].astype(np.int64)),
            }
        )

    return fn


def edit_distance_join(
    ds,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_dist: int = 2,
    q: int = 2,
    max_bucket: int = 256,
    stats_out: dict | None = None,
):
    """Ed-Join-style edit-distance self-join (Gravano et al. q-gram
    filtering; Xiao et al. prefix order): every pair with
    Levenshtein(a, b) ≤ ``max_dist``, WITHOUT an all-pairs scan.

    PROOF-exact candidate filter: one edit operation rewrites at most ``q``
    byte-q-gram windows, and position shifts cannot remove membership from a
    position-independent gram SET, so ed(a,b) ≤ d implies
    |grams(a) ∩ grams(b)| ≥ |grams(a)| − q·d. By the AllPairs prefix theorem
    (the ``set_similarity_join`` proof) one shared gram then sits inside
    BOTH (q·d+1)-prefixes under any single global total order — ours is
    (df asc, hash asc), Ed-Join's rarest-first order, from the tfidf_dedup
    metadata exchange. Hash collisions only ENLARGE intersections (more
    candidates, never fewer), so hashing preserves exactness.

    EXACTNESS BOUNDARY: a doc with fewer than q·d+1 DISTINCT grams has a
    vacuous count bound (it can sit within d of a doc sharing zero grams);
    such docs block on ALL their grams (plus the short-doc whole-text hash)
    and their count surfaces via ``stats_out["low_gram_docs"]`` — corpora
    where that stratum matters need a smaller q or a dedicated short-string
    pass. Grams are UTF-8 byte windows (the minhash rule): the VERIFY is
    code-point exact, only candidate selectivity varies on non-ASCII.

    Scale shape: one gram-bucket metadata exchange (df annotate), one
    doc-bucket exchange (prefix pick), exact salted in-bucket pairs
    (_pairs_from_keys) + pair dedup, byte-capped payload attach, batched
    bit-parallel verify behind an additive length pre-filter — the corpus
    text never rides an exchange. Output (left_id, right_id, dist)."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if max_dist < 0 or q < 1:
        raise ValueError(f"bad parameters d={max_dist} q={q}")
    prefix_n = q * max_dist + 1

    def sigs_fn(batch: pa.Table) -> pa.Table:
        texts = [
            x if x is not None else ""
            for x in batch.column(text_col).to_pylist()
        ]
        vals, offs = _shingle_hashes_batch(texts, q)
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.string()),
                "grams": pa.LargeListArray.from_arrays(
                    pa.array(offs), pa.array(vals)
                ),
            }
        )

    exploded = ds.map_batches(sigs_fn, batch_format="pyarrow").map_batches(
        lambda t: _explode_list(t, "grams"), batch_format="pyarrow"
    )

    def add_gram_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "bkey": df["bkey"],
                "_bucket": (
                    df["bkey"].to_numpy().astype(np.uint64) % np.uint64(nb)
                ).astype(np.int32),
            }
        )

    def annotate_df(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby("bkey", sort=False)["doc_id"].transform("size")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "bkey": g["bkey"],
                "df": sz.to_numpy(np.int64),
            }
        )

    ann = (
        exploded.map_batches(add_gram_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(annotate_df, batch_format="pandas")
    )

    def add_doc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_b2"] = bucket_of(df["doc_id"], nb)
        return df

    def pick_prefix(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "df", "bkey"], kind="mergesort")
        ids = g["doc_id"].to_numpy(object)
        starts = np.nonzero(
            np.concatenate(([True], ids[1:] != ids[:-1]))
        )[0]
        counts = np.diff(np.concatenate((starts, [len(ids)])))
        rank = np.arange(len(ids)) - np.repeat(starts, counts)
        keep = rank < prefix_n
        out = g.loc[keep, ["doc_id", "bkey"]].copy()
        # per-bucket constant: how many of this bucket's docs have a vacuous
        # count bound (< prefix_n distinct grams) — O(num_buckets) stat rows
        out["_b2"] = g["_b2"].iloc[0] if len(g) else np.int32(0)
        out["_low"] = np.int64(int((counts < prefix_n).sum()))
        return out

    prefixed = (
        ann.map_batches(add_doc_bucket, batch_format="pandas")
        .groupby("_b2")
        .map_groups(pick_prefix, batch_format="pandas")
        .materialize()
    )
    if stats_out is not None:
        lows = prefixed.map_batches(
            lambda df: df[["_b2", "_low"]].drop_duplicates("_b2"),
            batch_format="pandas",
        ).to_pandas()
        stats_out["low_gram_docs"] = (
            int(lows.drop_duplicates("_b2")["_low"].sum()) if len(lows) else 0
        )

    cand = _dedup_pairs(
        _pairs_from_keys(
            prefixed.select_columns(["doc_id", "bkey"]),
            "doc_id",
            max_bucket,
            cfg,
            stats_out=stats_out,
        ),
        cfg,
    )

    payload = ds.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column(id_col).cast(pa.string()),
                text_col: pa.compute.fill_null(
                    t.column(text_col).cast(pa.string()), ""
                ),
            }
        ),
        batch_format="pyarrow",
    )
    return _verify_pairs(
        cand, payload, "doc_id", text_col, cfg, _lev_verify_fn(max_dist)
    )


def _containment_verify_fn(tau_num: int, tau_den: int):
    """pair_fn: DIRECTED gram-set containment |A∩B| / |A| over precomputed
    sorted-unique hash sets — both directions evaluated per unordered
    candidate pair, kept ⇔ tau_den·inter ≥ tau_num·|inner| (int64 cross-
    multiplication, no float threshold). Empty inner sets are excluded
    (containment undefined), NULL payload slots dropped (the
    _jaccard_verify_fn guard)."""

    def fn(ls, rs, lp, rp) -> pa.Table:
        valid = _pair_valid_mask(lp, rp)
        pool, li, ri = _uniquify_pair_payloads(ls, rs, lp, rp)
        inter, na, nb = _pairwise_intersect_indexed(pool, li, ri)
        inter = inter.astype(np.int64)
        na = na.astype(np.int64)
        nb = nb.astype(np.int64)
        ls = np.asarray(ls, object)
        rs = np.asarray(rs, object)
        a_in_b = valid & (na > 0) & (tau_den * inter >= tau_num * na)
        b_in_a = valid & (nb > 0) & (tau_den * inter >= tau_num * nb)
        i1 = np.nonzero(a_in_b)[0]
        i2 = np.nonzero(b_in_a)[0]
        return pa.table(
            {
                "inner_id": pa.array(
                    np.concatenate([ls[i1], rs[i2]]), pa.string()
                ),
                "outer_id": pa.array(
                    np.concatenate([rs[i1], ls[i2]]), pa.string()
                ),
                "n_shared": pa.array(np.concatenate([inter[i1], inter[i2]])),
                "inner_size": pa.array(np.concatenate([na[i1], nb[i2]])),
            }
        )

    return fn


def containment_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
    ngram: int = 3,
    threshold: tuple[int, int] = (7, 10),
    num_anchors: int = 4,
    max_bucket: int = 200,
    stats_out: dict | None = None,
):
    """Asymmetric near-SUPERSET detection: directed pairs (inner, outer)
    where the inner doc's word-n-gram set is ≥ num/den contained in the
    outer's — the quote/excerpt/wrapped-copy signal that symmetric Jaccard
    misses (a short doc pasted into a long one has low Jaccard but high
    containment). Output (inner_id, outer_id, n_shared:int64,
    inner_size:int64); all columns integer/string so the twin is exact.

    Scale shape: identical to ``ngram_jaccard_dedup`` — one vectorized
    gram/anchor pass (``_ngram_map``), anchor-key candidate generation with
    exact hot-key salting, ONE pair-hash dedup exchange (this operator has
    no CC step to absorb duplicate candidates), byte-capped payload attach,
    adaptive set-intersection kernels. Reference: the reference library has
    no dedup at all (SURVEY §2.7, blocking_utils.py:37-38 comment vs code);
    this is the LLM-corpus operator family's containment member."""
    from ..config import parallel_blocks

    cfg = cfg or EngineConfig()
    tau_num, tau_den = int(threshold[0]), int(threshold[1])
    ds = parallel_blocks(ds).materialize()
    sigs = ds.map_batches(
        _ngram_map(ngram, num_anchors, id_col, text_col),
        batch_format="pyarrow",
        batch_size=cfg.embed_batch_size,
    ).materialize()
    keys = sigs.map_batches(
        lambda t: _explode_list(t, "anchors"), batch_format="pyarrow"
    ).materialize()
    cand = _dedup_pairs(
        _pairs_from_keys(keys, "doc_id", max_bucket, cfg, stats_out=stats_out),
        cfg,
    ).materialize()
    return _verify_pairs(
        cand, sigs, "doc_id", "grams", cfg,
        _containment_verify_fn(tau_num, tau_den),
    )


def cross_source_dups(
    ds,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    source_col: str = "source",
):
    """Cross-source exact-duplicate matrix — the corpus-governance view of
    exact dedup: for every unordered source pair, how many DISTINCT texts
    (by md5, the ``fingerprint`` convention) appear verbatim in BOTH
    sources. Emits (source_a, source_b, n_shared_texts:int64),
    source_a < source_b. The licensing/contamination complement to
    ``kmv_source_similarity``'s estimate: this one is exact and keyed on
    whole-document equality.

    Scale shape: map-side DISTINCT (md5, source) pairs (dup-heavy inputs
    collapse before the exchange), ONE hash(md5) exchange — every text's
    source set co-locates, per bucket a sorted segment sweep emits
    C(n_sources, 2) pairs per text (bounded by the SOURCE COUNT, not by
    how many copies exist), and the tiny per-pair partials meet in one
    final combine. The corpus text never rides an exchange."""
    import hashlib

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def project(t: pa.Table) -> pd.DataFrame:
        txt = t.column(text_col).to_pylist()
        md5s = [
            hashlib.md5(("" if x is None else x).encode()).hexdigest()
            for x in txt
        ]
        df = pd.DataFrame(
            {
                "h": md5s,
                "src": t.column(source_col).to_pandas().astype(str),
            }
        ).drop_duplicates()
        df["_bucket"] = bucket_of(df["h"], nb)
        return df

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["h", "src"])
        g = g.sort_values(["h", "src"], kind="mergesort")
        m = g.merge(g, on="h")
        m = m[m["src_x"] < m["src_y"]]
        c = (
            m.groupby(["src_x", "src_y"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        # explicit Arrow types: 0-row object outputs confuse block sizing
        # and Ray drops empty pandas blocks from the schema
        return pa.table(
            {
                "src_x": pa.array(c["src_x"].to_numpy(object), pa.string()),
                "src_y": pa.array(c["src_y"].to_numpy(object), pa.string()),
                "n": pa.array(c["n"].to_numpy(np.int64)),
            }
        )

    def combine(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return pa.table(
                {
                    "source_a": pa.array([], pa.string()),
                    "source_b": pa.array([], pa.string()),
                    "n_shared_texts": pa.array([], pa.int64()),
                }
            )
        c = (
            df.groupby(["src_x", "src_y"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "source_a": pa.array(c["src_x"].to_numpy(object), pa.string()),
                "source_b": pa.array(c["src_y"].to_numpy(object), pa.string()),
                "n_shared_texts": pa.array(c["n"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def _gram_doc_rows(text_col: str, id_col: str, k: int, nb: int):
    """Shared map fn for the gram-level corpus analyses: one row per
    (distinct k-byte shingle, doc), bucketed on the gram hash — the
    gram_novelty / top_shared_pairs exchange input."""

    def emit(t: pa.Table) -> pd.DataFrame:
        texts = t.column(text_col).to_pylist()
        ids = np.asarray(t.column(id_col), np.int64)
        vals, offs = _shingle_hashes_batch(texts, k)
        counts = np.diff(offs)
        return pd.DataFrame(
            {
                "h": vals,
                "doc": np.repeat(ids, counts),
                "_bucket": (vals % np.uint64(nb)).astype(np.int32),
            }
        )

    return emit


def gram_novelty(ds, cfg=None, *, text_col: str = "text",
                 id_col: str = "doc_id", k: int = 8):
    """Per-document gram novelty — the near-duplicate RICHNESS measure
    the dedup family's pair output can't give you (how much of each doc
    is boilerplate shared with the rest of the corpus): for every doc,
    (id, n_grams:int64 = distinct k-byte shingles, n_shared:int64 =
    those appearing in ≥ 2 documents), so the novel fraction is
    1 − n_shared/n_grams. Short docs (< k bytes) count as one whole-text
    gram (the minhash rule); cardinalities are hash-invariant, so the
    character-based SQL twin agrees on ASCII corpora (the documented
    minhash/shingle ASCII note).

    Scale shape: the vectorized shingle kernel emits per-doc distinct
    gram hashes; ONE hash(gram) exchange sees each gram's full document
    set and pre-folds to per-(doc, bucket) partial counts; ONE hash(doc)
    exchange sums the partials. Gram rows ride an exchange exactly
    once; no broadcast state."""
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    emit = _gram_doc_rows(text_col, id_col, k, nb)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        df_per_gram = g.groupby("h", sort=False)["doc"].transform("size")
        shared = (df_per_gram >= 2).to_numpy()
        agg = (
            pd.DataFrame(
                {
                    "doc": g["doc"].to_numpy(np.int64),
                    "n": np.ones(len(g), np.int64),
                    "s": shared.astype(np.int64),
                }
            )
            .groupby("doc", sort=False)
            .sum()
            .reset_index()
        )
        agg["_bucket"] = bucket_of(agg["doc"], nb)
        return agg

    def combine(g: pd.DataFrame) -> pa.Table:
        c = g.groupby("doc", sort=False)[["n", "s"]].sum().reset_index()
        return pa.table(
            {
                id_col: pa.array(c["doc"].to_numpy(np.int64)),
                "n_grams": pa.array(c["n"].to_numpy(np.int64)),
                "n_shared": pa.array(c["s"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(emit, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def top_shared_pairs(ds, cfg=None, *, text_col: str = "text",
                     id_col: str = "doc_id", k_top: int = 20,
                     gram_k: int = 8, df_cap: int = 50):
    """Global top-``k_top`` document pairs by shared-gram count — the
    "worst offenders" duplication report complementing the dedup
    family's thresholded pair sets: pairs rank by how many distinct
    k-byte shingles they share, counting only DISCRIMINATIVE grams
    (2 ≤ document frequency ≤ ``df_cap``; ubiquitous boilerplate grams
    carry no pair signal and would blow the fan-out — the block-purging
    rule, identical on the SQL side). Output (left_id, right_id,
    n_shared:int64, rank:int64 1-based) under (n_shared desc, left asc,
    right asc).

    Scale shape: ONE hash(gram) exchange sees each gram's doc set and
    fans out ≤ C(df_cap, 2) pairs per gram with per-bucket pre-reduce;
    ONE hash(pair) exchange sums; map-side partial top-k per block then
    a single tiny final block (the group_topk global pattern)."""
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if k_top < 1:
        raise ValueError(f"k_top must be >= 1, got {k_top}")
    emit = _gram_doc_rows(text_col, id_col, gram_k, nb)

    def fan_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc"], kind="mergesort")
        h = g["h"].to_numpy(np.uint64)
        doc = g["doc"].to_numpy(np.int64)
        starts = np.nonzero(
            np.concatenate(([True], h[1:] != h[:-1]))
        )[0]
        cnt = np.diff(np.concatenate((starts, [len(h)])))
        ok = (cnt >= 2) & (cnt <= df_cap)
        # vectorized all-pairs within each eligible gram run: the shared
        # reps/offset index arithmetic (no per-gram Python loop)
        row_in_run = np.arange(len(h), dtype=np.int64) - np.repeat(
            starts, cnt
        )
        keep = np.repeat(ok, cnt)
        reps = np.where(
            keep, np.repeat(cnt, cnt) - row_in_run - 1, 0
        )
        if int(reps.sum()) == 0:
            return pd.DataFrame(
                {"l": pd.Series(dtype=np.int64),
                 "r": pd.Series(dtype=np.int64),
                 "n": pd.Series(dtype=np.int64),
                 "_pb": pd.Series(dtype=np.int32)}
            )
        i_idx = np.repeat(np.arange(len(h), dtype=np.int64), reps)
        off = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)[:-1])), reps
        )
        j_idx = i_idx + 1 + off
        l = doc[i_idx]
        r = doc[j_idx]
        p = (
            pd.DataFrame({"l": l, "r": r})
            .groupby(["l", "r"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        p["_pb"] = bucket_of(
            p["l"].astype(str) + "|" + p["r"].astype(str), nb
        )
        return p

    def topk_frame(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["n", "l", "r"], ascending=[False, True, True],
            kind="mergesort",
        ).head(k_top)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["l", "r"], sort=False)["n"].sum().reset_index()
        return topk_frame(s)[["l", "r", "n"]]

    def final(df: pd.DataFrame) -> pa.Table:
        top = topk_frame(df)
        return pa.table(
            {
                "left_id": pa.array(top["l"].to_numpy(np.int64)),
                "right_id": pa.array(top["r"].to_numpy(np.int64)),
                "n_shared": pa.array(top["n"].to_numpy(np.int64)),
                "rank": pa.array(
                    np.arange(1, len(top) + 1, dtype=np.int64)
                ),
            }
        )

    return (
        ds.map_batches(emit, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fan_pairs, batch_format="pandas")
        .groupby("_pb")
        .map_groups(fold, batch_format="pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def cluster_medoid(labeled, docs, cfg=None, *, id_col: str = "doc_id",
                   cluster_col: str = "cluster_id",
                   text_col: str = "text"):
    """Canonical-record election per duplicate cluster — the survivorship
    step after any dedup's connected components: for every MULTI-member
    cluster, the medoid = the member minimizing the total Levenshtein
    distance to its cluster-mates (tie → smallest id), the standard
    "most central copy" rule when no quality score exists. Emits
    (cluster_id, medoid_id, n_members:int64, total_lev:int64 — the
    medoid's distance sum, an exact cluster-tightness signal).

    Scale shape: TWO bucketed exchanges — labels meet texts on
    hash(doc), then members meet on hash(cluster); within each bucket
    ALL clusters' i<j member pairs enumerate via the shared repeat/
    offset arithmetic and ONE bit-parallel ``levenshtein_batch`` call
    scores them (distances scatter-add to both endpoints). Work is
    Σ C(cluster_size, 2) — bounded because dedup clusters are verified
    near-duplicates, not arbitrary groups."""
    from ..functions.textsim import levenshtein_batch
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def tag_label(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].astype(str)
        return pd.DataFrame(
            {
                "id": ids.to_numpy(object),
                "payload": df[cluster_col].astype(str).to_numpy(object),
                "_is_text": np.zeros(len(df), np.int8),
                "_bucket": bucket_of(ids, nb),
            }
        )

    def tag_text(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].astype(str)
        return pd.DataFrame(
            {
                "id": ids.to_numpy(object),
                "payload": df[text_col].astype(str).to_numpy(object),
                "_is_text": np.ones(len(df), np.int8),
                "_bucket": bucket_of(ids, nb),
            }
        )

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["_is_text"] == 0][["id", "payload"]].rename(
            columns={"payload": "cluster"}
        )
        txt = g[g["_is_text"] == 1][["id", "payload"]].rename(
            columns={"payload": "text"}
        )
        m = lab.merge(txt, on="id")
        return pd.DataFrame(
            {
                "id": m["id"].to_numpy(object),
                "cluster": m["cluster"].to_numpy(object),
                "text": m["text"].to_numpy(object),
                "_cb": bucket_of(m["cluster"], nb),
            }
        )

    def medoids(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["cluster", "id"], kind="mergesort")
        sizes = g.groupby("cluster", sort=False)["id"].transform("size")
        g = g[sizes >= 2]
        if len(g) == 0:
            return pa.table(
                {
                    cluster_col: pa.array([], pa.string()),
                    "medoid_id": pa.array([], pa.string()),
                    "n_members": pa.array([], pa.int64()),
                    "total_lev": pa.array([], pa.int64()),
                }
            )
        cl = g["cluster"].to_numpy(object)
        ids = g["id"].to_numpy(object)
        txt = g["text"].to_numpy(object)
        starts = np.nonzero(
            np.concatenate(([True], cl[1:] != cl[:-1]))
        )[0]
        counts = np.diff(np.concatenate((starts, [len(cl)])))
        # all i<j member pairs across every cluster in the bucket
        reps = np.repeat(
            counts - 1, counts
        ) - (np.arange(len(cl), dtype=np.int64)
             - np.repeat(starts, counts))
        i_idx = np.repeat(np.arange(len(cl), dtype=np.int64), reps)
        off = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(reps)[:-1])), reps
        )
        j_idx = i_idx + 1 + off
        lev = levenshtein_batch(list(txt[i_idx]), list(txt[j_idx]))
        tot = np.zeros(len(cl), np.int64)
        np.add.at(tot, i_idx, lev)
        np.add.at(tot, j_idx, lev)
        # per cluster: argmin (tot, id) — rows are id-sorted, so the
        # first minimum within each segment is the tie winner
        best = np.zeros(len(starts), np.int64)
        for k, (s, c) in enumerate(zip(starts, counts)):
            seg = tot[s : s + c]
            best[k] = s + int(np.argmin(seg))
        return pa.table(
            {
                cluster_col: pa.array(cl[starts], pa.string()),
                "medoid_id": pa.array(ids[best], pa.string()),
                "n_members": pa.array(counts.astype(np.int64)),
                "total_lev": pa.array(tot[best]),
            }
        )

    tagged = labeled.map_batches(tag_label, batch_format="pandas").union(
        docs.map_batches(tag_text, batch_format="pandas")
    )
    return (
        tagged.groupby("_bucket")
        .map_groups(attach, batch_format="pandas")
        .groupby("_cb")
        .map_groups(medoids, batch_format="pandas")
    )


def minhash_delta_pairs(
    corpus,
    delta,
    text_col: str = "text",
    id_col: str = "doc_id",
    cfg: EngineConfig | None = None,
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 8,
    threshold: float = 0.6,
):
    """Delta (daily-ingest) MinHash near-dup: verified pairs with Jaccard
    ≥ ``threshold`` where AT LEAST ONE side is a ``delta`` doc — the
    incremental complement of :func:`minhash_lsh_dedup`. Existing↔existing
    pairs are assumed already known and are NEVER generated: within each
    LSH band key the pair fan is the bipartite product new × (new ∪ old)
    (old×old skipped before any pair materializes), so per-band work is
    O(|new_k| · |all_k|) — proportional to the answer on degenerate
    corpora and to the delta size on healthy ones, not to |corpus|².
    Degenerate band keys are memory-bounded, not truncated: the bipartite
    merge materializes in ~4M-row slices of the new side, so a
    duplicate-heavy delta peaks at a bounded working set per task while
    the emitted pair set stays exact.
    Output (left_id, right_id) with left < right as strings,
    integer-exact (the float similarity deliberately not emitted).

    Same LSH parameters/S-curve guarantee as minhash_lsh_dedup (bands=32,
    r=4: P(miss) ≈ 9e-3 at J=0.6, ≈ 1e-15 at J=0.9; exact verify removes
    every false positive). The corpus side's signatures are recomputed
    here (stateless operator); at 100 TB the band-key and shingle tables
    would persist in the state manifest and only the delta side maps.

    Scale shape: one signature map over each side (delta rides the same
    code path with is_new=1); ONE exchange bucketed on hash(band key)
    fans bipartite pairs per key with a vectorized merge; pair dedup +
    the shared byte-capped payload verify exactly as the full dedup.
    """
    from ..config import parallel_blocks

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    corpus = parallel_blocks(corpus).materialize()
    delta = parallel_blocks(delta).materialize()
    mmap = _minhash_map(num_perm, bands, shingle_k, cfg.seed, id_col, text_col)
    sig_old = corpus.map_batches(
        mmap, batch_format="pyarrow", batch_size=cfg.embed_batch_size
    )
    sig_new = delta.map_batches(
        mmap, batch_format="pyarrow", batch_size=cfg.embed_batch_size
    )

    def tag(is_new: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "is_new", pa.array(np.full(len(t), is_new, np.int8))
            )

        return fn

    sigs = (
        sig_old.map_batches(tag(0), batch_format="pyarrow")
        .union(sig_new.map_batches(tag(1), batch_format="pyarrow"))
        .materialize()
    )

    def explode(batch: pa.Table) -> pa.Table:
        lst = batch.column("bkeys").combine_chunks()
        width = lst.type.list_size
        take = pa.array(
            np.repeat(np.arange(len(batch), dtype=np.int64), width)
        )
        bk = np.asarray(lst.flatten()).astype(np.uint64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().take(take),
                "bkey": pa.array(bk),
                "is_new": batch.column("is_new").combine_chunks().take(take),
                "_bucket": pa.array(
                    (bk % np.uint64(nb)).astype(np.int32)
                ),
            }
        )

    keys = sigs.map_batches(explode, batch_format="pyarrow").materialize()

    pair_chunk = 4_000_000  # rows materialized per merge slice (~bounded MB)

    def fan(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["bkey", "doc_id"])
        new = g[g["is_new"] == 1][["bkey", "doc_id"]]
        empty = pa.table(
            {
                "left_id": pa.array([], pa.string()),
                "right_id": pa.array([], pa.string()),
            }
        )
        if len(new) == 0:
            return empty
        allk = g[["bkey", "doc_id"]]
        # per-task memory bound on degenerate band keys: the bipartite
        # |new_k|·|all_k| product is the TRUE candidate count (exactness
        # keeps every pair), but it is materialized in bounded slices of
        # the new side — a duplicate-heavy delta on a shared band key
        # peaks around pair_chunk rows per merge instead of the full
        # product held at once
        all_sizes = allk.groupby("bkey", sort=False)["doc_id"].size()
        frames = []
        rows_per_slice = max(
            1, pair_chunk // max(int(all_sizes.max()) if len(all_sizes)
                                 else 1, 1)
        )
        for s in range(0, len(new), rows_per_slice):
            m = new.iloc[s : s + rows_per_slice].merge(allk, on="bkey")
            if len(m) == 0:
                continue
            a = m["doc_id_x"].to_numpy(object)
            b = m["doc_id_y"].to_numpy(object)
            keep = a != b
            a, b = a[keep], b[keep]
            lo = np.where(a < b, a, b)
            hi = np.where(a < b, b, a)
            frames.append(
                pd.DataFrame({"left_id": lo, "right_id": hi})
                .drop_duplicates()
            )
        if not frames:
            return empty
        out = pd.concat(frames, ignore_index=True).drop_duplicates()
        return pa.table(
            {
                "left_id": pa.array(out["left_id"].to_numpy(object),
                                    pa.string()),
                "right_id": pa.array(out["right_id"].to_numpy(object),
                                     pa.string()),
            }
        )

    cand = keys.groupby("_bucket").map_groups(fan, batch_format="pandas")
    cand = _dedup_pairs(cand, cfg)
    verified = _verify_pairs(
        cand, sigs, "doc_id", "shingles", cfg, _jaccard_verify_fn(threshold)
    )
    return verified.select_columns(["left_id", "right_id"])
