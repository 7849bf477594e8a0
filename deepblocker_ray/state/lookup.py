"""Worker-side broadcast lookup over materialized Arrow block refs.

Generalizes the TurnLookup pattern (stages/scoring.py): the small side of a
pair-attachment is materialized ONCE into the object store; every worker
zero-copy-reads the blocks and builds an index once per process (memoized
via state/broadcast.cached_compute). Nothing round-trips through the driver.

The per-process build must be CHEAP — with 32 workers starting at once, an
object-dtype sort over a combined copy measured ~900 core-seconds per stage
at 145k rows (BASELINE.md round-2 finding). So the index is a uint64 id-HASH
sort: ideally over a precomputed ``_ph`` column shipped with the blocks
(zero-copy view + uint64 argsort ≈ milliseconds); the payload stays as
per-block plasma chunks with manual (chunk, local) resolution — no
combine_chunks copy, no ChunkedArray.take.

Hash-collision handling: matched rows are verified against the real id
strings; on a mismatch the probe advances through the (adjacent, sorted)
equal-hash run until the true id is found — collisions between PRESENT ids
therefore resolve correctly, and a truly absent id comes back missing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


def id_hash(ids) -> np.ndarray:
    """Stable uint64 hash of string ids: the one hash both the build side
    (``hash_col`` projections) and the lookup side of ``ColumnLookup`` use.
    ``categorize=False``: the factorize shortcut treats ids that differ
    only after a ``"\\x00"`` as one value, so an id would hash differently
    depending on its batch-mates and miss its own row."""
    return pd.util.hash_array(np.asarray(ids, dtype=object), categorize=False)


def one_chunk(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """ChunkedArray → Array WITHOUT copying the single-chunk case: pyarrow's
    ``combine_chunks()`` concatenates (copies) even when there is exactly one
    chunk, which turned every per-worker "zero-copy plasma view" built from
    ``table.column(...)`` into a private copy of the whole column — measured
    6.5 GB/worker on the index matrices of the 40M-turn streaming run.
    Plasma blocks are single-chunk by construction, so this is the
    zero-copy path everywhere that matters; genuinely multi-chunk input
    still pays the one concatenation."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


class ColumnLookup:
    """id → payload-column lookup built from plasma block refs.

    ``take_pylist(keys)`` returns an object ndarray of Python payload values
    aligned with ``keys`` (missing ids → None); ``take(keys)`` wraps it back
    into a pa.Array of the payload type.

    ``hash_col``: name of a precomputed uint64 id-hash column
    (``id_hash`` of the string ids). When absent it is computed at
    build time — fine for small sides, but large sides should precompute it
    in their materialize projection (see stages/dedup._verify_pairs).
    """

    def __init__(
        self,
        refs,
        id_col: str,
        payload_col: str,
        hash_col: str | None = None,
    ):
        tbls = [t for t in ray.get(list(refs)) if len(t) > 0]
        if not tbls:
            self.h = np.empty(0, np.uint64)
            self.order = np.empty(0, np.int64)
            self.id_chunks: list[pa.Array] = []
            self.payload_chunks: list[pa.Array] = []
            self.chunk_starts = np.zeros(0, np.int64)
            self.payload_type = pa.null()
            return
        # one aligned chunk pair per BLOCK (one_chunk is zero-copy for the
        # usual single-chunk blocks and guarantees id/payload alignment)
        self.id_chunks = [one_chunk(t.column(id_col)) for t in tbls]
        self.payload_chunks = [
            one_chunk(t.column(payload_col)) for t in tbls
        ]
        # a block whose payload rows are all empty/null infers a degenerate
        # type (e.g. list<null> instead of list<string>); normalize every
        # chunk to the first concrete type so cross-chunk concat/splice in
        # take_arrow stays valid (casting a degenerate chunk is value-free)
        def _degenerate(t: pa.DataType) -> bool:
            if pa.types.is_null(t):
                return True
            if pa.types.is_list(t) or pa.types.is_large_list(t):
                return _degenerate(t.value_type)
            return False

        self.payload_type = next(
            (c.type for c in self.payload_chunks if not _degenerate(c.type)),
            self.payload_chunks[0].type,
        )
        self.payload_chunks = [
            c if c.type == self.payload_type else c.cast(self.payload_type)
            for c in self.payload_chunks
        ]
        if hash_col is not None and hash_col in tbls[0].column_names:
            h = np.concatenate(
                [np.asarray(t.column(hash_col)) for t in tbls]
            )
        else:
            h = np.concatenate(
                [id_hash(c.to_pylist()) for c in self.id_chunks]
            )
        self.order = np.argsort(h, kind="stable")
        self.h = h[self.order]
        lens = np.fromiter(
            (len(c) for c in self.id_chunks), np.int64, len(self.id_chunks)
        )
        self.chunk_starts = np.zeros(len(lens), np.int64)
        np.cumsum(lens[:-1], out=self.chunk_starts[1:])

    # ------------------------------------------------------------- helpers --

    def _gather(self, chunks, gidx: np.ndarray) -> np.ndarray:
        """Global row indices → object array of Python values (vectorized
        per touched chunk; no cross-chunk combine)."""
        out = np.empty(len(gidx), object)
        if len(gidx) == 0:
            return out
        ci = np.searchsorted(self.chunk_starts, gidx, side="right") - 1
        for c in np.unique(ci):
            mask = ci == c
            local = pa.array(gidx[mask] - self.chunk_starts[c])
            vals = chunks[c].take(local).to_pylist()
            tmp = np.empty(len(vals), object)
            tmp[:] = vals
            out[mask] = tmp
        return out

    def _one(self, chunks, g: int):
        c = int(np.searchsorted(self.chunk_starts, g, side="right") - 1)
        return chunks[c][int(g - self.chunk_starts[c])].as_py()

    def take_pylist(self, keys) -> np.ndarray:
        keys = np.asarray(list(keys), dtype=object)
        out = np.full(len(keys), None, dtype=object)
        if len(self.h) == 0 or len(keys) == 0:
            return out
        kh = id_hash(keys)
        pos = np.searchsorted(self.h, kh)
        pos = np.clip(pos, 0, len(self.h) - 1)
        found = self.h[pos] == kh
        gidx = self.order[pos]
        got_ids = self._gather(self.id_chunks, gidx)
        ok = found & (got_ids == keys)
        payloads = self._gather(self.payload_chunks, gidx[ok])
        out[ok] = payloads
        # collision path: hash matched but id didn't — walk the adjacent
        # equal-hash run for the true id (rare: ~n²/2⁶⁴)
        for i in np.nonzero(found & ~ok)[0]:
            p = int(pos[i]) + 1
            while p < len(self.h) and self.h[p] == kh[i]:
                g = int(self.order[p])
                if self._one(self.id_chunks, g) == keys[i]:
                    out[i] = self._one(self.payload_chunks, g)
                    break
                p += 1
        return out

    def take(self, keys) -> pa.Array:
        vals = self.take_pylist(keys)
        return pa.array(vals.tolist(), type=self.payload_type)

    def take_arrow(self, keys) -> pa.Array:
        """Arrow-native ``take``: payloads are gathered with pa take per
        touched chunk and spliced by one final indexed take — the payload
        VALUES never round-trip through Python objects (``take``'s
        to_pylist on large list/binary payloads measured ~200s on an 11M-
        pair verify; this path is seconds). Missing ids → nulls."""
        import pyarrow.compute as pc

        keys_obj = np.asarray(list(keys), dtype=object)
        n = len(keys_obj)
        if len(self.h) == 0 or n == 0:
            return pa.nulls(n, self.payload_type)
        kh = id_hash(keys_obj)
        pos = np.searchsorted(self.h, kh)
        pos = np.clip(pos, 0, len(self.h) - 1)
        found = self.h[pos] == kh
        gidx = self.order[pos]
        ci = (
            np.searchsorted(self.chunk_starts, gidx, side="right") - 1
        )
        # id verification, vectorized per chunk (hash match ≠ id match)
        ok = np.zeros(n, bool)
        idx_f = np.nonzero(found)[0]
        for c in np.unique(ci[idx_f]):
            m = idx_f[ci[idx_f] == c]
            local = pa.array(gidx[m] - self.chunk_starts[c])
            got = self.id_chunks[c].take(local)
            eq = pc.equal(got, pa.array(keys_obj[m], pa.string()))
            ok[m] = eq.to_numpy(zero_copy_only=False)
        # payload pool: one Arrow take per touched chunk, then one splice
        pool_parts: list[pa.Array] = []
        pool_pos = np.full(n, -1, np.int64)
        cursor = 0
        sel = np.nonzero(ok)[0]
        ci_ok = ci[sel]
        for c in np.unique(ci_ok):
            m = sel[ci_ok == c]
            local = pa.array(gidx[m] - self.chunk_starts[c])
            pool_parts.append(self.payload_chunks[c].take(local))
            pool_pos[m] = np.arange(cursor, cursor + len(m))
            cursor += len(m)
        # collision path: hash matched but id didn't — walk the adjacent
        # equal-hash run (rare: ~n²/2⁶⁴); single-row slices appended to pool
        for i in np.nonzero(found & ~ok)[0]:
            p = int(pos[i]) + 1
            while p < len(self.h) and self.h[p] == kh[i]:
                g = int(self.order[p])
                if self._one(self.id_chunks, g) == keys_obj[i]:
                    c = int(
                        np.searchsorted(self.chunk_starts, g, side="right")
                        - 1
                    )
                    pool_parts.append(
                        self.payload_chunks[c].slice(
                            int(g - self.chunk_starts[c]), 1
                        )
                    )
                    pool_pos[i] = cursor
                    cursor += 1
                    break
                p += 1
        if not pool_parts:
            return pa.nulls(n, self.payload_type)
        pool = (
            pa.concat_arrays([p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in pool_parts])
            if len(pool_parts) > 1
            else pool_parts[0]
        )
        miss = pool_pos < 0
        idx = pa.array(np.where(miss, 0, pool_pos), pa.int64(), mask=miss)
        return pool.take(idx)


def np_lists(arr) -> list[np.ndarray]:
    """(Large)List pa array → list of numpy views (nulls → empty arrays)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    vals = np.asarray(arr.values)
    offs = np.asarray(arr.offsets)
    isnull = arr.is_null().to_numpy(zero_copy_only=False)
    empty = vals[:0]
    return [
        empty if isnull[i] else vals[offs[i] : offs[i + 1]]
        for i in range(len(arr))
    ]


_EMPTY_U64 = np.empty(0, np.uint64)


def np_u64_lists(arr) -> list[np.ndarray]:
    """uint64 set column → list of numpy arrays. Accepts either the
    (large_)list<uint64> form or the packed large_binary form used across
    hash joins (np.frombuffer is zero-copy on the bytes)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_binary(arr.type) or pa.types.is_binary(arr.type):
        # zero-copy: views into the Arrow data buffer — no per-row bytes
        # objects (to_pylist here measured minutes on an 11M-pair verify)
        off_dt = (
            np.int64 if pa.types.is_large_binary(arr.type) else np.int32
        )
        offs = np.frombuffer(
            arr.buffers()[1], dtype=off_dt, count=len(arr) + 1,
            offset=arr.offset * np.dtype(off_dt).itemsize,
        ).astype(np.int64, copy=False)
        data = (
            np.frombuffer(arr.buffers()[2], dtype=np.uint8)
            if arr.buffers()[2] is not None
            else np.empty(0, np.uint8)
        )
        isnull = arr.is_null().to_numpy(zero_copy_only=False)
        return [
            _EMPTY_U64
            if isnull[i]
            else data[offs[i] : offs[i + 1]].view(np.uint64)
            for i in range(len(arr))
        ]
    return np_lists(arr)


# -------------------------------------------------------- hashed weights --


class HashedWeightsHandle:
    """Driver-side handle to a plasma-resident (token-hash → weight) map:
    just the materialized block refs + a cache key. O(1) driver memory —
    the vocabulary never leaves the object store (VERDICT r2 'What's wrong'
    #2: a Python dict of an open-vocab 100-TB corpus is itself huge, and a
    dict costs ~100 bytes/token per worker process vs 20 here, shared
    zero-copy via plasma).

    Blocks carry either precomputed ``_w`` weights, or raw ``_c`` counts
    plus SIF params (a, min_freq) — the count form lets the whole fit run
    as ONE streaming execution (frequency exchange → hash projection →
    materialize); each worker derives total + weights at build time from
    the plasma blocks (O(vocab) once per process, trivial vs a dict
    deserialize)."""

    def __init__(
        self,
        refs,
        default: float = 1.0,
        a: float | None = None,
        min_freq: int | None = None,
    ):
        self.refs = list(refs)
        self.default = float(default)
        self.a = a
        self.min_freq = min_freq
        self.cache_key = (
            f"hashedw:{a}:{min_freq}:"
            + ",".join(r.hex() for r in self.refs)
        )

    def resolve(self) -> "HashedWeights":
        from .broadcast import cached_compute

        return cached_compute(
            self.cache_key,
            lambda: HashedWeights(
                self.refs, self.default, self.a, self.min_freq
            ),
        )


# 16-byte key for the independent second hash (pd.util.hash_array requires
# exactly 16 characters); distinct from the default key so (h1, h2)
# collisions need both 64-bit hashes to collide (~n²/2¹²⁸).
_HW_KEY2 = "deepblocker_hw2_"


def hash_tokens_2x(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (h1, h2) token-hash pair used by HashedWeights — one definition
    shared by the build projection and the probe."""
    return (
        pd.util.hash_array(tokens),
        pd.util.hash_array(tokens, hash_key=_HW_KEY2),
    )


class HashedWeights:
    """Worker-side token→float weight map over sorted uint64 hash arrays
    built from plasma block refs of (_h1, _h2, _w) columns.

    Presents the same ``.get(token, default)`` surface as the dict it
    replaces, plus a vectorized ``get_many`` for the per-unique-token batch
    path. A probe hits only when BOTH independent 64-bit hashes match;
    equal-h1 runs are walked for the matching h2 (two present tokens
    colliding on h1 alone therefore still resolve correctly)."""

    def __init__(
        self,
        refs,
        default: float = 1.0,
        a: float | None = None,
        min_freq: int | None = None,
    ):
        self.default = float(default)
        self.total = 0
        tbls = [t for t in ray.get(list(refs)) if len(t) > 0]
        if not tbls:
            self.h1 = np.empty(0, np.uint64)
            self.h2 = np.empty(0, np.uint64)
            self.w = np.empty(0, np.float64)
            return
        h1 = np.concatenate([np.asarray(t.column("_h1")) for t in tbls])
        h2 = np.concatenate([np.asarray(t.column("_h2")) for t in tbls])
        if "_c" in tbls[0].column_names:
            # count form: derive total + SIF weights here (once per process)
            c = np.concatenate(
                [np.asarray(t.column("_c"), dtype=np.float64) for t in tbls]
            )
            self.total = int(c.sum())
            w = np.where(c >= min_freq, a / (a + c / self.total), 1.0)
            # weight exactly 1.0 == the OOV fallback (reference
            # tuple_embedding_models.py:116-119): min_freq-truncated tokens
            # need no entry — drop them so probe arrays stay frequent-only
            keep = w != 1.0
            h1, h2, w = h1[keep], h2[keep], w[keep]
        else:
            w = np.concatenate([np.asarray(t.column("_w")) for t in tbls])
        order = np.argsort(h1, kind="stable")
        self.h1 = h1[order]
        self.h2 = h2[order]
        self.w = w[order]

    def __len__(self) -> int:
        return len(self.h1)

    def get_many(self, tokens: np.ndarray, default: float | None = None) -> np.ndarray:
        """Vectorized lookup: object ndarray of tokens → float64 weights
        (missing → default)."""
        d = self.default if default is None else float(default)
        n = len(tokens)
        out = np.full(n, d, np.float64)
        if n == 0 or len(self.h1) == 0:
            return out
        kh1, kh2 = hash_tokens_2x(np.asarray(tokens, dtype=object))
        pos = np.searchsorted(self.h1, kh1)
        pos = np.clip(pos, 0, len(self.h1) - 1)
        hit1 = self.h1[pos] == kh1
        hit = hit1 & (self.h2[pos] == kh2)
        out[hit] = self.w[pos[hit]]
        # h1 matched but h2 didn't: walk the (adjacent, sorted) equal-h1 run
        for i in np.nonzero(hit1 & ~hit)[0]:
            p = int(pos[i]) + 1
            while p < len(self.h1) and self.h1[p] == kh1[i]:
                if self.h2[p] == kh2[i]:
                    out[i] = float(self.w[p])
                    break
                p += 1
        return out

    def get(self, token, default: float | None = None) -> float:
        return float(self.get_many(np.array([token], dtype=object), default)[0])
