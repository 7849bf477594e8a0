"""Pairwise candidate scoring: embedding cosine + Jaro-Winkler + Levenshtein
on per-turn text (BASELINE.json north_star; no reference equivalent — the
reference stops at the candidate set).

Candidates arrive as (left_id, right_id, rank, cosine). The scorer needs both
sides' turn texts: the tuple table is broadcast once via ray.put when it fits
(EngineConfig.broadcast_rows_max) — the common shape, since canonical tuples
are ~10^3× smaller than turns — else PACKED turn strings are attached by two
left-outer ``canonicalize.exchange_join``s (one key exchange each).
Per-turn similarities are averaged over aligned turn indices (up to the
shorter side), strings capped at ``score_text_cap`` chars to bound the
O(n·m) edit distance.

Heap discipline (round-4 40M-run finding: score workers hit ~3.6 GB anon
high-water and were OOM-killed, surviving only via task retry): turn texts
stay in Arrow buffers end-to-end — lookup gathers via ``take_arrow`` (zero
Python payload objects), packed columns unpack with one numpy byte gather,
and aligned turn pairs are selected and CAPPED with Arrow kernels. Each row
slice of ≤``FLAT_TURNS_PER_SLICE`` turn pairs then becomes one zero-padded
codepoint matrix per side (``arrow_codepoints``: n_flat × ≤cap uint8 cells,
copied straight from the Arrow buffers when the slice is ASCII, so no Python
string is made; other slices go through ``to_pylist``) and one fused
Jaro-Winkler + Levenshtein call (``textsim.similarity_batch``).
``malloc_trim`` runs after every scored batch to return glibc arena pages
to the OS.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..config import (
    EngineConfig,
    actor_pool_size,
    parallel_blocks,
)
from ..functions.textsim import codepoints, lev_ratio, similarity_batch
from ..state.lookup import id_hash, one_chunk

SCORE_WEIGHTS = {"cosine": 0.4, "jw": 0.3, "lev": 0.3}

# max aligned turn pairs per similarity-kernel call, independent of Ray's
# batch size: bounds the two (n_flat, ≤cap) codepoint matrices (8 MB each
# at 65536×128 uint8; uint32 for non-Latin-1 slices) and the kernels'
# per-row state (a few uint64 words and an n_flat × cap match mask per
# group; the row-DP fallback's int16 rows are ~17 MB at 65536×128)
FLAT_TURNS_PER_SLICE = 65536

_LIBC = None


def _malloc_trim() -> None:
    """Return freed glibc arena pages to the OS after a scored batch: a
    batch's transient buffers free cleanly but leave arena retention
    behind — the round-4 40M run measured score workers at ~3.6 GB anon
    high-water (OOM-killed; stage completed only through Ray's task retry).
    A trim per batch keeps worker RSS at the true working set for
    microseconds of cost."""
    global _LIBC
    try:
        if _LIBC is None:
            import ctypes

            _LIBC = ctypes.CDLL("libc.so.6", use_errno=True)
        _LIBC.malloc_trim(0)
    except Exception:  # non-glibc platform: nothing to trim
        pass


def _list_view(arr) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """(Large)List<string> array → (values, int64 offsets, int64 per-row
    counts) numpy views; null rows count 0 (scored as empty turn lists)."""
    arr = one_chunk(arr)
    offs = np.asarray(arr.offsets).astype(np.int64, copy=False)
    counts = np.diff(offs)
    if arr.null_count:
        counts = np.where(
            arr.is_null().to_numpy(zero_copy_only=False), 0, counts
        )
    return arr.values, offs, counts


def _flat_range(va, oa, vb, ob, m, lo, hi, cap):
    """Rows [lo, hi): aligned turn pairs (first min(n_a, n_b) turns) as two
    capped flat Arrow string arrays. Selection + capping are Arrow kernels
    (``utf8_slice_codeunits`` == Python ``s[:cap]`` codepoint semantics)."""
    import pyarrow.compute as pc

    mm = m[lo:hi]
    total = int(mm.sum())
    loc = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(mm) - mm, mm
    )
    ia = np.repeat(oa[lo:hi], mm) + loc
    ib = np.repeat(ob[lo:hi], mm) + loc
    fa = pc.fill_null(
        pc.utf8_slice_codeunits(va.take(pa.array(ia)), 0, cap), ""
    )
    fb = pc.fill_null(
        pc.utf8_slice_codeunits(vb.take(pa.array(ib)), 0, cap), ""
    )
    return fa, fb


def arrow_codepoints(arr) -> tuple[np.ndarray, np.ndarray]:
    """(Large)string Arrow array → the kernels' ``(codes, lens)`` input
    (textsim.codepoints), null rows as empty strings. When the array's bytes
    are ASCII (one vectorized check over its data buffer) they are copied
    straight from the offsets and data buffers into a zero-padded uint8
    matrix, with no Python strings; any other array goes through
    ``codepoints(to_pylist())``, so one non-ASCII turn sends its whole
    slice there. On one CPU core the byte copy builds a 33,295-turn ASCII
    slice in 10 ms, ``codepoints(to_pylist())`` in 60 ms; tests pin the two
    paths to the same matrices."""
    arr = one_chunk(arr)
    n = len(arr)
    large = pa.types.is_large_string(arr.type)
    if not (large or pa.types.is_string(arr.type)):
        raise TypeError(f"expected a string array, got {arr.type}")
    dt = np.dtype(np.int64 if large else np.int32)
    _, off_buf, data_buf = arr.buffers()
    offs = (
        np.frombuffer(off_buf, dt, n + 1, arr.offset * dt.itemsize)
        if n
        else np.zeros(1, dt)
    )
    start, stop = int(offs[0]), int(offs[-1])
    data = (
        np.frombuffer(data_buf, np.uint8, count=stop - start, offset=start)
        if stop > start
        else np.empty(0, np.uint8)
    )
    if data.size and int(data.max()) >= 128:
        return codepoints(
            [s if s is not None else "" for s in arr.to_pylist()]
        )
    lens = np.diff(offs).astype(np.int64)
    w = max(int(lens.max(initial=0)), 1)
    codes = np.zeros((n, w), np.uint8)
    # row-major order of the valid cells is the order of the data buffer
    codes[np.arange(w) < lens[:, None]] = data
    if arr.null_count:
        null = arr.is_null().to_numpy(zero_copy_only=False)
        codes[null] = 0
        lens[null] = 0
        codes = codes[:, : max(int(lens.max(initial=0)), 1)]
    return codes, lens


def score_lists_arrow(
    arr_a,
    arr_b,
    cosines,
    cap: int,
    weights: dict[str, float] = SCORE_WEIGHTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrow-native batch scorer: per-pair aligned turns are selected,
    capped and flattened in Arrow/numpy, and each row slice of
    ≤FLAT_TURNS_PER_SLICE turn pairs becomes two codepoint matrices and one
    fused similarity_batch call. Per pair, jw and lev are the means of the
    turn-level Jaro-Winkler and edit-distance ratio over the aligned turns
    (0 with no aligned turn); tests/test_linkage_e2e pins them to a
    Python-list oracle."""
    va, oa, na = _list_view(arr_a)
    vb, ob, nb = _list_view(arr_b)
    m = np.minimum(na, nb)
    n = len(m)
    jw = np.zeros(n)
    lev = np.zeros(n)
    cum = np.cumsum(m)
    lo = 0
    while lo < n:
        base = int(cum[lo - 1]) if lo else 0
        hi = int(
            np.searchsorted(cum, base + FLAT_TURNS_PER_SLICE, side="right")
        )
        hi = max(lo + 1, min(hi, n))
        flat_a, flat_b = _flat_range(va, oa, vb, ob, m, lo, hi, cap)
        ca, la = arrow_codepoints(flat_a)
        cb, lb = arrow_codepoints(flat_b)
        jw_flat, dist = similarity_batch(ca, la, cb, lb)
        lev_flat = lev_ratio(dist, np.maximum(la, lb))
        mm = m[lo:hi]
        ne = mm > 0
        if ne.any():
            offs = np.zeros(hi - lo, np.int64)
            np.cumsum(mm[:-1], out=offs[1:])
            starts = offs[ne]
            jw[lo:hi][ne] = np.add.reduceat(jw_flat, starts) / mm[ne]
            lev[lo:hi][ne] = np.add.reduceat(lev_flat, starts) / mm[ne]
        lo = hi
    cos = np.clip(np.asarray(cosines, np.float64), 0.0, 1.0)
    total_w = sum(weights.values())
    combined = (
        weights["cosine"] * cos + weights["jw"] * jw + weights["lev"] * lev
    ) / total_w
    return jw, lev, combined


def _append_scores(batch: pa.Table, jw, lev, score, threshold) -> pa.Table:
    return (
        batch.append_column("jw", pa.array(jw.astype(np.float32)))
        .append_column("lev", pa.array(lev.astype(np.float32)))
        .append_column("score", pa.array(score.astype(np.float32)))
        .append_column("is_match", pa.array(score >= threshold))
    )


class TurnLookup:
    """Worker-side id → turn_texts lookup built from plasma block refs.

    Thin wrapper over state/lookup.ColumnLookup (the canonical hash-indexed
    zero-copy broadcast lookup — see its docstring for the per-process-build
    cost story and collision handling); _turn_refs ships the precomputed
    ``_h`` uint64 id-hash column that keeps the per-process build at
    milliseconds."""

    def __init__(self, refs):
        from ..state.lookup import ColumnLookup

        # keyed on "_id" by construction: _turn_refs renames id_col to _id
        # and ships the matching precomputed _h hash column
        self._lk = ColumnLookup(refs, "_id", "turn_texts", hash_col="_h")

    def get_list_array(self, keys) -> pa.Array:
        """Arrow-native gather: list<string> payload array aligned with
        ``keys`` (missing ids → null, scored as empty turn lists); the turn
        texts never round-trip through Python objects."""
        return self._lk.take_arrow(keys)


def _turn_refs(tuples_ds, id_col: str):
    """Materialize (_id, _h, turn_texts) into the object store; returns block
    refs (the broadcast small side — put once, read zero-copy by every
    task). ``_h`` is the precomputed stable id hash that makes the
    per-process TurnLookup build O(n) uint64 work instead of an
    object-string sort."""

    def project(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.string())
        h = id_hash(ids.to_pylist())
        return pa.table(
            {
                "_id": ids,
                "_h": pa.array(h),
                "turn_texts": t.column("turn_texts"),
            }
        )

    return (
        tuples_ds.map_batches(project, batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    )


def score_candidates(
    candidates,
    tuples_ds,
    right_tuples_ds=None,
    cfg: EngineConfig | None = None,
    threshold: float | None = None,
    id_col: str = "conv_id",
):
    """candidates + canonical tuples → scored pairs with ``is_match``.

    ``right_tuples_ds=None`` means self-linkage (both sides from tuples_ds).
    A candidate id with no tuple row scores with empty turn lists
    (score = 0.4·cosine) on BOTH the broadcast and the join path.
    """
    cfg = cfg or EngineConfig()
    threshold = cfg.match_threshold if threshold is None else threshold

    n_left = tuples_ds.count()
    n_right = right_tuples_ds.count() if right_tuples_ds is not None else 0
    if max(n_left, n_right) > cfg.broadcast_rows_max:
        return _score_via_join(
            candidates, tuples_ds, right_tuples_ds, cfg, threshold, id_col
        )

    left_refs = _turn_refs(tuples_ds, id_col)
    right_refs = (
        _turn_refs(right_tuples_ds, id_col)
        if right_tuples_ds is not None
        else None
    )
    cap = cfg.score_text_cap
    lkey = "turns:" + ",".join(r.hex() for r in left_refs)
    rkey = (
        "turns:" + ",".join(r.hex() for r in right_refs)
        if right_refs is not None
        else lkey
    )

    def score_fn(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import cached_compute

        left = cached_compute(lkey, lambda: TurnLookup(left_refs))
        right = (
            cached_compute(rkey, lambda: TurnLookup(right_refs))
            if right_refs is not None
            else left
        )
        la = left.get_list_array(batch.column("left_id").to_pylist())
        lb = right.get_list_array(batch.column("right_id").to_pylist())
        jw, lev, score = score_lists_arrow(
            la, lb, batch.column("cosine").to_pylist(), cap
        )
        out = _append_scores(batch, jw, lev, score, threshold)
        _malloc_trim()
        return out

    return parallel_blocks(candidates).map_batches(
        score_fn, batch_format="pyarrow", batch_size=cfg.score_batch_size
    )


def _pack_turns_fn(id_col: str, out_id: str, prefix: str):
    """map_batches fn: (id, turn_texts) → (out_id, {prefix}tx, {prefix}tl).

    pyarrow's hash join rejects list<string> non-key fields, so the turn
    lists are packed into two PLAIN STRING columns around the join:
    ``tx`` = the texts joined by a 1-byte filler (\\x1f), ``tl`` = the
    comma-joined decimal BYTE lengths. Decoding slices ``tx`` by the
    lengths — the filler is never interpreted as data, so the round-trip is
    exact for ANY text content (including texts containing \\x1f), and []
    vs [""] stays unambiguous (tl "" vs "0"). Both encodes are vectorized
    Arrow kernels; null lists pack to null and decode to []."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        col = one_chunk(batch.column("turn_texts"))
        if pa.types.is_null(col.type.value_type):  # all-empty block
            col = col.cast(pa.list_(pa.string()))
        tx = pc.binary_join(col, "\x1f")
        lens = pc.cast(pc.binary_length(col.values), pa.string())
        tl = pc.binary_join(
            pa.ListArray.from_arrays(col.offsets, lens), ","
        )
        return pa.table(
            {
                out_id: batch.column(id_col).cast(pa.string()),
                prefix + "tx": tx,
                prefix + "tl": tl,
            }
        )

    return fn


def unpack_turns_arrow(tx_col, tl_col) -> pa.Array:
    """Packed (tx, tl) string columns → large_list<large_string> turn lists
    with NO per-turn Python objects: ``tl`` parses to per-turn byte lengths
    with Arrow kernels, the payload bytes gather from ``tx``'s data buffer
    in one numpy fancy-index, and the result wraps those bytes as a new
    Arrow array. Null/empty rows → empty lists. Byte-exact inverse of
    _pack_turns_fn for any content (the \\x1f filler is skipped by offset
    arithmetic, never searched)."""
    import pyarrow.compute as pc

    tx = one_chunk(tx_col)
    tl = one_chunk(tl_col)
    n = len(tx)
    out_type = pa.large_list(pa.large_string())
    if n == 0:
        return pa.array([], out_type)
    # "" and null tl → null (zero turns); split + cast parses the rest
    tl_n = pc.if_else(
        pc.fill_null(pc.equal(tl, ""), True), pa.scalar(None, pa.string()), tl
    )
    lens = pc.split_pattern(tl_n, ",").cast(pa.list_(pa.int64()))
    l_offs = np.asarray(lens.offsets).astype(np.int64, copy=False)
    counts = np.diff(l_offs)
    if lens.null_count:
        counts = np.where(
            lens.is_null().to_numpy(zero_copy_only=False), 0, counts
        )
    turn_lens = np.asarray(lens.values).astype(np.int64, copy=False)
    n_turns = len(turn_lens)
    row_offs = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=row_offs[1:])
    if n_turns == 0:
        return pa.LargeListArray.from_arrays(
            pa.array(row_offs, pa.int64()),
            pa.array([], pa.large_string()),
        )
    # per-turn start within its row's packed text: segmented cumsum of
    # (len + 1) — the +1 steps over the 1-byte filler
    g = turn_lens + 1
    cs = np.cumsum(g)
    first = np.minimum(l_offs[:-1], n_turns - 1)
    base = cs[first] - g[first]
    within = cs - g - np.repeat(base, counts)
    # absolute byte positions in tx's value buffer
    large = pa.types.is_large_string(tx.type)
    dt = np.int64 if large else np.int32
    tx_off = np.frombuffer(
        tx.buffers()[1], dtype=dt, count=n + 1,
        offset=tx.offset * np.dtype(dt).itemsize,
    ).astype(np.int64, copy=False)
    data_buf = tx.buffers()[2]
    data = (
        np.frombuffer(data_buf, dtype=np.uint8)
        if data_buf is not None
        else np.empty(0, np.uint8)
    )
    abs_start = np.repeat(tx_off[:-1], counts) + within
    total_bytes = int(turn_lens.sum())
    out_cs = np.cumsum(turn_lens)
    gather = np.repeat(abs_start, turn_lens) + (
        np.arange(total_bytes, dtype=np.int64)
        - np.repeat(out_cs - turn_lens, turn_lens)
    )
    out_data = np.ascontiguousarray(data[gather])
    val_offs = np.zeros(n_turns + 1, np.int64)
    val_offs[1:] = out_cs
    values = pa.Array.from_buffers(
        pa.large_string(),
        n_turns,
        [None, pa.py_buffer(val_offs.tobytes()), pa.py_buffer(out_data.tobytes())],
    )
    return pa.LargeListArray.from_arrays(pa.array(row_offs, pa.int64()), values)


def _score_via_join(candidates, tuples_ds, right_tuples_ds, cfg, threshold, id_col):
    """Beyond-plasma path: attach PACKED turn texts (see _pack_turns_fn —
    Arrow joins reject list<string> payloads) to the candidate pairs with
    two chained left-outer ``exchange_join``s (left id, then right id),
    then a stateless scoring map that unpacks and scores entirely
    Arrow-side (unpack_turns_arrow + score_lists_arrow). A candidate id
    with no tuple row keeps null tx/tl and scores with empty turn lists,
    as on the broadcast path."""
    from .canonicalize import exchange_join

    left_side = tuples_ds.select_columns([id_col, "turn_texts"]).map_batches(
        _pack_turns_fn(id_col, "left_id", "_l"), batch_format="pyarrow"
    )
    right_src = right_tuples_ds if right_tuples_ds is not None else tuples_ds
    right_side = right_src.select_columns([id_col, "turn_texts"]).map_batches(
        _pack_turns_fn(id_col, "right_id", "_r"), batch_format="pyarrow"
    )
    joined = exchange_join(
        exchange_join(candidates, left_side, "left_id", "left outer"),
        right_side, "right_id", "left outer",
    )
    # read by the first join already (cached): the candidates' column order
    names = candidates.schema().names

    cap = cfg.score_text_cap

    def score_batch(batch: pa.Table) -> pa.Table:
        la = unpack_turns_arrow(
            batch.column("_ltx"), batch.column("_ltl")
        )
        lb = unpack_turns_arrow(
            batch.column("_rtx"), batch.column("_rtl")
        )
        jw, lev, score = score_lists_arrow(
            la, lb, batch.column("cosine").to_pylist(), cap
        )
        out = _append_scores(batch.select(names), jw, lev, score, threshold)
        _malloc_trim()
        return out

    return joined.map_batches(
        score_batch, batch_format="pyarrow", batch_size=cfg.score_batch_size
    )
