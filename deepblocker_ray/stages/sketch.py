"""Deterministic probabilistic sketches: HyperLogLog distinct counting,
count-min frequency estimation, and a Bloom-filter semi-join.

The reference has no sketch surface (its 745 LoC hold exact in-memory
structures only); at 100 TB the cardinality / frequency / membership
questions these answer cannot be answered exactly without an all-to-all
exchange of the key universe. All three sketches here are built from the
repo's md5-lower64 stable hash (stages/dedup._stable_hash64 ==
DuckDB ``md5_number_lower``), which makes every one of them DETERMINISTIC:
the registers, counters, and bit positions — and therefore the approximate
answers, including their errors — are exact functions of the input and are
recomputed bit-for-bit by the DuckDB SQL twins in __ray_entry__.oracle_sql.
An "approximate" operator with an exact oracle: the estimate is approximate
with respect to the true answer, never with respect to the spec.

Scale shape (per the house rules):

- ``approx_distinct`` (HLL): per-batch register partials are combined
  map-side (max is idempotent + associative), so the exchange moves only
  O(groups × 2^p) tiny rows bucketed on hash(group) — never the keys.
- ``cms_build`` / ``heavy_hitters`` (count-min): the whole sketch is
  depth × width int64 cells (32 KiB at the defaults); per-batch partials
  collapse to ≤ depth·width rows each, one O(cells × blocks) combine, and
  the probe side broadcasts the finished sketch via ``ray.put``.
- ``bloom_semi_join``: the bit set is built once from per-batch distinct
  positions (≤ m_bits rows total), broadcast, and the probe side streams
  with NO shuffle — the approximate cousin of
  relational.broadcast_exists_join for key sets too large to ship exactly
  (positions are capped at m_bits regardless of key count).

HLL estimate determinism: the harmonic-mean estimate is computed entirely
in integer arithmetic — registers saturate at rank 50 so each term
2^(50-M) is an exact int64, their sum S fits int64 (≤ 2^58), and the
estimate is ``ALPHA_E6(m) · m² · 2^50 // S // 10^6`` evaluated in Python
ints (HUGEINT in the SQL twin). No float enters, so engine and oracle agree
bit-for-bit. Bias corrections (linear counting, large-range) are
deliberately omitted — they need ``ln``, whose libm vs DuckDB last-ulp
differences would break exactness; the raw estimate is the documented
semantic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..config import EngineConfig
from ..state.lookup import id_hash
from .dedup import hash64_strs

# bit_length of a byte value (0..255); BITLEN8[0] = 0
BITLEN8 = np.array([int(x).bit_length() for x in range(256)], np.int32)

# HLL alpha constant in exact parts-per-million, per register count.
# alpha_m = 0.7213 / (1 + 1.079/m) truncated to 6 decimals — the operator's
# DEFINED constant (not a float), mirrored literally in the SQL twin.
ALPHA_E6 = {16: 672746, 32: 697583, 64: 709207, 128: 715271, 256: 718273,
            512: 719783, 1024: 720541}

_HLL_SCALE_BITS = 50  # ranks above 50 contribute 0 (documented saturation)


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Vectorized int.bit_length for uint64 (exact — float log2 is not:
    float64 cannot represent 56-bit integers exactly)."""
    b = np.ascontiguousarray(v, np.uint64).view(np.uint8).reshape(-1, 8)
    nz = b[:, ::-1] != 0  # reversed: argmax finds the HIGHEST nonzero byte
    msb = 7 - np.argmax(nz, axis=1)
    bl = msb * 8 + BITLEN8[b[np.arange(len(b)), msb]]
    bl[~nz.any(axis=1)] = 0
    return bl.astype(np.int32)


def _hll_reg_rank(
    keys: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """(register, rank) per key string: md5-lower64 of ``key + '|hll'``;
    low p bits pick the register, the remaining 64-p bits' leading-zero
    count + 1 is the rank (rank = 64-p+1 when they are all zero)."""
    h = hash64_strs([str(k) + "|hll" for k in keys])
    m = np.uint64((1 << p) - 1)
    reg = (h & m).astype(np.int32)
    v = h >> np.uint64(p)
    rank = (64 - p + 1) - _bit_length_u64(v)
    return reg, rank.astype(np.int32)


def approx_distinct(ds, *, key_col: str, group_col: str,
                    cfg: EngineConfig | None = None, p: int = 8):
    """Per-group HyperLogLog approximate distinct count of ``key_col``.

    Output: (group_col, zero_registers:int64, hll_sum_scaled:int64,
    approx_distinct:int64) — the latter two are the integer-exact register
    sum and raw HLL estimate described in the module docstring.
    """
    cfg = cfg or EngineConfig()
    if p not in {4, 5, 6, 7, 8, 9, 10}:
        raise ValueError(f"p must be 4..10, got {p}")
    m = 1 << p
    if m not in ALPHA_E6:
        raise ValueError(f"no ALPHA_E6 constant for m={m}")
    nb = cfg.num_buckets

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # hash once per distinct key (registers are key functions; max is
        # idempotent so per-batch distinct loses nothing)
        sub = df[[group_col, key_col]].drop_duplicates()
        if len(sub) == 0:
            return pd.DataFrame({group_col: pd.Series(dtype=object),
                                 "_reg": pd.Series(dtype="int32"),
                                 "_m": pd.Series(dtype="int32")})
        reg, rank = _hll_reg_rank(sub[key_col].to_numpy(), p)
        out = pd.DataFrame({group_col: sub[group_col].to_numpy(),
                            "_reg": reg, "_m": rank})
        out = (out.groupby([group_col, "_reg"], sort=False, observed=True)
               .agg(_m=("_m", "max")).reset_index())
        uniq, inv = np.unique(out[group_col].to_numpy(), return_inverse=True)
        out["_bucket"] = (hash64_strs(uniq) % np.uint64(nb)).astype(
            np.int32)[inv]
        return out

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        regs = (df.groupby([group_col, "_reg"], sort=False, observed=True)
                .agg(_m=("_m", "max")).reset_index())
        rows = []
        for grp, sub in regs.groupby(group_col, sort=False):
            mm = np.zeros(m, np.int64)
            mm[sub["_reg"].to_numpy()] = sub["_m"].to_numpy()
            clipped = np.minimum(mm, _HLL_SCALE_BITS)
            terms = np.where(mm <= _HLL_SCALE_BITS,
                             np.int64(1) << (_HLL_SCALE_BITS - clipped), 0)
            s = int(terms.sum())
            est = ALPHA_E6[m] * m * m * (1 << _HLL_SCALE_BITS) // s // 10**6
            rows.append((grp, int((mm == 0).sum()), s, est))
        return pd.DataFrame(rows, columns=[group_col, "zero_registers",
                                           "hll_sum_scaled",
                                           "approx_distinct"])

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(finalize, batch_format="pandas")
    )


# ------------------------------------------------------------- count-min --


def _cms_positions(tokens: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(len(tokens) × depth) int32 cell columns: md5-lower64 of
    ``tok + '|cms' + row`` mod width — one independent hash per sketch row."""
    cols = [
        (hash64_strs([str(t) + "|cms" + str(i) for t in tokens])
         % np.uint64(width)).astype(np.int32)
        for i in range(depth)
    ]
    return np.stack(cols, axis=1)


def cms_build(docs, *, text_col: str = "text", depth: int = 4,
              width: int = 1024) -> np.ndarray:
    """Count-min sketch (depth × width int64) over the basic_english tokens
    of ``text_col``, with token MULTIPLICITY (every occurrence counts).
    Per-batch partials are ≤ depth·width rows; the combine is O(cells)."""
    from ..functions.tokenizer import tokenize_many

    def partial(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for tl in tokenize_many(t.column(text_col).to_pylist()):
            toks.extend(tl)
        if not toks:
            return pa.table({"_row": pa.array([], pa.int32()),
                             "_pos": pa.array([], pa.int32()),
                             "_cnt": pa.array([], pa.int64())})
        uniq, counts = np.unique(np.asarray(toks, object), return_counts=True)
        pos = _cms_positions(uniq, depth, width)
        rows, poss, cnts = [], [], []
        for i in range(depth):
            # several tokens can share a cell: aggregate within the batch
            cell = np.bincount(pos[:, i], weights=counts, minlength=width)
            nz = np.nonzero(cell)[0]
            rows.append(np.full(len(nz), i, np.int32))
            poss.append(nz.astype(np.int32))
            cnts.append(cell[nz].astype(np.int64))
        return pa.table({"_row": pa.array(np.concatenate(rows)),
                         "_pos": pa.array(np.concatenate(poss)),
                         "_cnt": pa.array(np.concatenate(cnts))})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["_row", "_pos"], sort=False)
                .agg(_cnt=("_cnt", "sum")).reset_index())

    cells = (
        docs.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
        .to_pandas()
    )
    sketch = np.zeros((depth, width), np.int64)
    sketch[cells["_row"].to_numpy(), cells["_pos"].to_numpy()] = (
        cells["_cnt"].to_numpy()
    )
    return sketch


def heavy_hitters(docs, *, cfg: EngineConfig | None = None,
                  text_col: str = "text", depth: int = 4, width: int = 1024,
                  min_count: int = 5):
    """Tokens whose count-min estimate (min over rows — always ≥ the true
    count) reaches ``min_count``. Output: (token, est_count:int64).

    The sketch is built in one pass and broadcast (32 KiB at the defaults);
    the candidate token set is the per-batch-distinct token stream reduced
    by one bucketed exchange — never a per-token groupby."""
    from ..functions.tokenizer import tokenize_many

    cfg = cfg or EngineConfig()
    sketch_ref = ray.put(cms_build(docs, text_col=text_col, depth=depth,
                                   width=width))
    nb = cfg.num_buckets

    def cand(t: pa.Table) -> pa.Table:
        toks: set[str] = set()
        for tl in tokenize_many(t.column(text_col).to_pylist()):
            toks.update(tl)
        uniq = np.asarray(sorted(toks), object)
        b = (hash64_strs(uniq) % np.uint64(nb)).astype(np.int32)
        return pa.table({"token": pa.array(uniq, pa.string()),
                         "_bucket": pa.array(b)})

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import cached_get

        sk = cached_get(sketch_ref)
        uniq = np.unique(df["token"].to_numpy())
        if len(uniq) == 0:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 "est_count": pd.Series(dtype="int64")})
        pos = _cms_positions(uniq, depth, width)
        est = np.min(
            np.stack([sk[i][pos[:, i]] for i in range(depth)], axis=1),
            axis=1,
        )
        keep = est >= min_count
        return pd.DataFrame({"token": uniq[keep],
                             "est_count": est[keep].astype("int64")})

    return (
        docs.map_batches(cand, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(probe, batch_format="pandas")
    )


# ------------------------------------------------------------------ bloom --


def bloom_positions(keys: np.ndarray, m_bits: int, k_hashes: int
                    ) -> np.ndarray:
    """(len(keys) × k_hashes) int32 bit positions: md5-lower64 of
    ``key + '|bf' + j`` mod m_bits."""
    cols = [
        (hash64_strs([str(v) + "|bf" + str(j) for v in keys])
         % np.uint64(m_bits)).astype(np.int32)
        for j in range(k_hashes)
    ]
    return np.stack(cols, axis=1)


def bloom_semi_join(big_ds, keys_ds, *, big_key: str, small_key: str,
                    cfg: EngineConfig | None = None, m_bits: int = 1024,
                    k_hashes: int = 3):
    """Keep ``big_ds`` rows whose key MAY be in ``keys_ds`` per a Bloom
    filter — deterministic false positives (an exact function of the key
    set and (m_bits, k_hashes)), zero false negatives. The probe side
    streams with NO shuffle; the filter is at most m_bits distinct
    positions regardless of key count, so unlike
    relational.broadcast_exists_join the broadcast size is CAPPED — this is
    the 100-TB pre-filter in front of an exact join."""
    cfg = cfg or EngineConfig()

    def positions(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        uniq = pc.unique(t.column(small_key)).to_numpy(zero_copy_only=False)
        pos = np.unique(bloom_positions(uniq, m_bits, k_hashes))
        return pa.table({"_pos": pa.array(pos, pa.int32())})

    pos_rows = (
        keys_ds.select_columns([small_key])
        .map_batches(positions, batch_format="pyarrow")
        .to_pandas()
    )
    bits = (
        np.unique(pos_rows["_pos"].to_numpy(np.int32))
        if "_pos" in pos_rows.columns  # empty key side → column-less frame
        else np.empty(0, np.int32)
    )
    bits_ref = ray.put(bits)

    def probe(t: pa.Table) -> pa.Table:
        from ..state.broadcast import cached_get

        bs = cached_get(bits_ref)
        vals = t.column(big_key).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(vals, return_inverse=True)
        pos = bloom_positions(uniq, m_bits, k_hashes)
        if len(bs) == 0:
            hit_u = np.zeros(len(uniq), bool)
        else:
            idx = np.minimum(np.searchsorted(bs, pos), len(bs) - 1)
            hit_u = (bs[idx] == pos).all(axis=1)
        return t.filter(pa.array(hit_u[inv]))

    return big_ds.map_batches(probe, batch_format="pyarrow")


def kmv_source_similarity(
    ds,
    cfg: EngineConfig | None = None,
    *,
    group_col: str = "source",
    key_col: str = "text",
    k: int = 16,
):
    """K-minimum-values pairwise set-similarity between EVERY pair of
    groups (the corpus-mixing diagnostic: how much do two crawl sources /
    dumps overlap?): per group, the k smallest distinct md5-lower64 key
    hashes; for each group pair, the KMV Jaccard estimate
    |merged-top-k ∩ both| / |merged-top-k|. The estimate — including its
    sampling error — is a DETERMINISTIC integer function of the same md5
    values on both engines, so even the *approximation* is bit-exact
    SQL-twinnable (the approx_distinct rule). Output
    (source_a, source_b, k_merged, n_shared, jaccard_est) for a < b.

    Scale shape: per-batch DISTINCT (group, hash) pairs collapse to ≤ k
    rows per group MAP-SIDE (min-k is associative — the group_topk rule),
    ride ONE bucketed exchange on hash(group), and the O(groups·k) sketch
    visits the driver for the pairwise merge — groups are a bounded
    dimension domain (the rollup_counts containment argument); the corpus
    never moves."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {
                "_g": df[group_col].astype(str).values,
                # UNSIGNED order throughout — md5_number_lower is UBIGINT;
                # an int64 view would rank high-bit hashes first
                "_h": hash64_strs(
                    pa.array(df[key_col].fillna("").astype(str))
                ),
            }
        ).drop_duplicates()
        g = g.sort_values(["_g", "_h"], kind="mergesort")
        keep = g.groupby("_g", sort=False).cumcount() < k
        out = g[keep].copy()
        out["_bucket"] = (
            id_hash(out["_g"].values) % np.uint64(nb)
        ).astype("int32")
        return out

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["_g", "_h"]).sort_values(
            ["_g", "_h"], kind="mergesort"
        )
        keep = g.groupby("_g", sort=False).cumcount() < k
        return g.loc[keep, ["_g", "_h"]]

    sk = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(per_group, batch_format="pandas")
        .to_pandas()
    )
    groups = sorted(sk["_g"].unique())
    by_g = {g: set(sk.loc[sk["_g"] == g, "_h"]) for g in groups}
    rows = []
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            sa, sb = by_g[a], by_g[b]
            merged = sorted(sa | sb)[:k]
            shared = sum(1 for h in merged if h in sa and h in sb)
            rows.append(
                {
                    "source_a": a,
                    "source_b": b,
                    "k_merged": np.int64(len(merged)),
                    "n_shared": np.int64(shared),
                    "jaccard_est": (
                        float(shared) / float(len(merged)) if merged else 0.0
                    ),
                }
            )
    import ray.data as rd

    return rd.from_pandas(pd.DataFrame(rows))
