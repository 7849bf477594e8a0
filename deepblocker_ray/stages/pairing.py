"""Vector pairing: top-K cosine blocking (exact and IVF-approximate).

Reference semantics (/root/reference/vector_pairing_models.py:21-46): store the
right-side embedding matrix, compute the dense N_q×N_x cosine matrix, take the
per-row top-K (unstable argsort), then melt K-wide neighbors into candidate
pairs (blocking_utils.py:3-13). That dense matrix is the reference's
scalability cliff (8 TB at 1M×1M rows).

Ray-Data-native design — no all-to-all shuffle at all:
  - index(): one streaming pass normalizes the right side into fixed-size
    shards pinned in the object store (``ray.put`` once; every query task on
    a node reads them zero-copy from plasma). At cluster scale the shard list
    is the broadcast small side; per-task memory is bounded by
    query_batch × shard_rows tiles.
  - query(): an actor-pool map_batches over the left side; each batch is
    matmul'd against each shard in turn, keeping an exact running top-K per
    row (per-shard top-K ∪ running → re-partition), so the full similarity
    matrix never exists. Neighbors are emitted eagerly in long form
    (left_id, right_id, rank, cosine) — the reference's melt, done per batch.
  - Tie-break: the reference's argsort tie order is implementation-defined;
    ours is deterministic on (−cosine, right_id) (SURVEY §2.6-J3).
  - IVF mode: seeded k-means-lite centroids (fit on a bounded sample),
    shards store rows sorted by cell with offsets; queries probe only their
    top-``nprobe`` cells per shard — the FAISS-IVF-per-partition shape from
    BASELINE.json's north_star, minus the external dependency.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..config import DEFAULT_TOP_K, EngineConfig, actor_pool_size
from ..state.lookup import id_hash
from .embed import emb_to_numpy, numpy_to_emb

CANDIDATE_SCHEMA = pa.schema(
    [
        ("left_id", pa.string()),
        ("right_id", pa.string()),
        ("rank", pa.int32()),
        ("cosine", pa.float32()),
    ]
)


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(x, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return (x / n).astype(np.float32)


def _select_topk_tieaware(sims: np.ndarray, ks: int) -> np.ndarray:
    """Per-row top-ks column indices with ties at the boundary resolved in
    ascending column order (columns are in right_id order, so this is the
    (−cosine, right_id) rule).

    Implementation note: value-``np.partition`` for the kth threshold + a
    boolean mask + vectorized tie-rank bookkeeping. ``np.argpartition`` is
    ~20× slower than value partition on wide rows (indirect introselect), so
    it is deliberately avoided in this hot path."""
    n, m = sims.shape
    kth = np.partition(sims, m - ks, axis=1)[:, m - ks]
    rows, cols = np.nonzero(sims >= kth[:, None])  # row-major ⇒ cols ascend
    is_strict = sims[rows, cols] > kth[rows]
    strict_per_row = np.bincount(rows[is_strict], minlength=n)
    # tie rank = position of this tie among the row's ties, in id order
    tie = ~is_strict
    ctie = np.cumsum(tie)
    row_starts = np.searchsorted(rows, np.arange(n))
    start_ctie = np.where(row_starts > 0, ctie[row_starts - 1], 0)
    tie_rank = ctie - 1 - start_ctie[rows]
    keep = is_strict | (tie & (tie_rank < (ks - strict_per_row)[rows]))
    # exactly ks survivors per row, row-major ⇒ reshape is the result
    return cols[keep].reshape(n, ks)


def _merge_topk_pos(
    run_sims: np.ndarray | None,
    run_pos: np.ndarray | None,
    new_sims: np.ndarray,
    new_pos: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge running per-row top-k (kept sorted by (−sim, pos)) with new
    candidates; fully vectorized lexsort on (−sim, global-position) where the
    position is the id rank in the sorted index → deterministic ties."""
    if run_sims is not None:
        new_sims = np.concatenate([run_sims, new_sims], axis=1)
        new_pos = np.concatenate([run_pos, new_pos], axis=1)
    order = np.lexsort((new_pos, -new_sims), axis=1)[:, :k]
    return (
        np.take_along_axis(new_sims, order, axis=1),
        np.take_along_axis(new_pos, order, axis=1),
    )


# privatize plasma shard matrices up to this many bytes per worker (copied
# once, memoized): zero-copy views into the object store live in /dev/shm
# mmaps with 4 KiB pages, and the query GEMM streaming them pays a TLB walk
# per page — measured 8× more core-seconds at 32 workers than at 8 on the
# same input. A private copy is THP-backed and NUMA-local. Beyond the cap
# (huge per-node indexes) the zero-copy view is kept: correctness identical,
# and at that size the working set exceeds cache either way.
SHARD_PRIVATE_BYTES_MAX = 2 << 30


def _shard_private_cap() -> int:
    """Effective per-process privatization cap. The copy is made in EVERY
    query worker process, so the aggregate RSS is cap × workers — a fixed
    2 GiB per-process cap would let 32 workers duplicate a 1.9 GiB index
    into ~60 GiB and OOM a smaller host. Bound the aggregate at ~25% of
    host RAM; the absolute per-process ceiling still applies."""
    try:
        import os

        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError, AttributeError):
        return SHARD_PRIVATE_BYTES_MAX
    from ..config import default_parallelism

    return min(
        SHARD_PRIVATE_BYTES_MAX,
        (mem // 4) // max(1, default_parallelism()),
    )


def _parse_shards(shard_refs) -> tuple[list, np.ndarray]:
    """Fetch + view index shards (zero-copy from plasma); memoized per
    worker process via state/broadcast.cached_compute. Matrices are
    privatized (copied) below SHARD_PRIVATE_BYTES_MAX — see above."""
    shards = []
    offsets = [0]
    total = 0
    from ..state.lookup import one_chunk

    for ref in shard_refs:
        t = ray.get(ref)
        ids = one_chunk(t.column("_pair_id"))
        mat = emb_to_numpy(t.column("emb"))
        total += mat.nbytes
        shards.append((ids, mat))
        offsets.append(offsets[-1] + len(t))
    if total <= _shard_private_cap():
        shards = [(ids, np.array(mat)) for ids, mat in shards]
    return shards, np.asarray(offsets, np.int64)


def _ids_for_positions(shards, offsets, pos: np.ndarray) -> pa.Array:
    """global positions (flat) → right_id strings, gathered per shard."""
    shard_idx = np.searchsorted(offsets, pos, side="right") - 1
    out = np.empty(len(pos), dtype=object)
    for s in np.unique(shard_idx):
        mask = shard_idx == s
        local = pos[mask] - offsets[s]
        out[mask] = shards[s][0].take(pa.array(local)).to_pylist()
    return pa.array(out, pa.string())


def _enumerate_sorted(ds):
    """Attach a dense global row-rank column ``_rank`` to a materialized,
    globally-sorted dataset. Per-block offsets are prefix sums of the block
    lengths (a sorted Dataset's block list is in range order — the same
    invariant ExactTopKPairer.index relies on for its position==id-rank
    rule); the attach is one tiny Ray task per block reading its plasma
    block locally — metadata-scale work, no exchange."""
    import ray.data as rd

    refs = ds.to_arrow_refs()

    @ray.remote(num_cpus=0.25)
    def _blk_len(t: pa.Table) -> int:
        return len(t)

    @ray.remote(num_cpus=0.25)
    def _tag(t: pa.Table, off: int) -> pa.Table:
        return t.append_column(
            "_rank", pa.array(np.arange(off, off + len(t), dtype=np.int64))
        )

    counts = ray.get([_blk_len.remote(r) for r in refs])
    offs = np.concatenate([[0], np.cumsum(counts)])
    return rd.from_arrow_refs(
        [_tag.remote(r, int(o)) for r, o in zip(refs, offs)]
    )


_EMPTY_CANDIDATES = pa.table(
    {
        "left_id": pa.array([], pa.string()),
        "right_id": pa.array([], pa.string()),
        "rank": pa.array([], pa.int32()),
        "cosine": pa.array([], pa.float32()),
    },
    schema=CANDIDATE_SCHEMA,
)


# columns per similarity tile: a 512×1024 float32 tile (2 MB) stays
# cache-resident through the top-K scans that follow the GEMM, so DRAM
# traffic per query batch is ~the index bytes (streamed once), not 5-8
# passes over the full dense row — the difference between the stage
# scaling with cores and it saturating the memory bus at ~20 workers.
# (Measured 8→32-process scaling: 0.87 efficiency at 1024 cols; larger
# tiles lose a few % to shared-LLC pressure.)
QUERY_COL_CHUNK = 1024


def _exact_query_block(
    batch: pa.Table,
    shards,
    offsets,
    k: int,
    exclude_self: bool,
    id_col: str,
    row_chunk: int,
) -> pa.Table:
    """Process one whole input block, slicing query rows internally.

    Letting the map stage take whole blocks (batch_size=None) and chunking
    rows here avoids remainder batches — with a fixed external batch_size,
    every block ships a final sub-size batch that still pays a full scan of
    every index shard (25% of all batches at 32 CPUs in the 100k-corpus
    bench) — while ``row_chunk`` keeps the similarity tile bounded no matter
    how large Ray makes the block."""
    if len(batch) <= row_chunk:
        return _exact_query_batch(batch, shards, offsets, k, exclude_self, id_col)
    parts = [
        _exact_query_batch(
            batch.slice(r0, row_chunk), shards, offsets, k, exclude_self, id_col
        )
        for r0 in range(0, len(batch), row_chunk)
    ]
    return pa.concat_tables(parts)


def _exact_query_batch(
    batch: pa.Table, shards, offsets, k: int, exclude_self: bool, id_col: str
) -> pa.Table:
    """Index shards are globally sorted by right_id (ExactTopKPairer.index),
    so a row's global position doubles as its id-rank tie key."""
    left_ids = batch.column(id_col).cast(pa.string())
    q = _normalize_rows(emb_to_numpy(batch.column("emb")))
    nq = len(q)
    fetch = k + 1 if exclude_self else k
    run_sims = run_pos = None
    # one reusable GEMM output buffer for every tile of this batch: a fresh
    # 2 MB allocation per tile is an mmap/munmap pair in glibc, and the
    # munmap's TLB shootdown IPIs serialize across every busy core — with 32
    # workers this alone anti-scaled the query stage (94 s at 32 CPUs vs
    # 38 s at 8 on the same input)
    sims_buf = np.empty((nq, QUERY_COL_CHUNK), np.float32)
    for s, (_ids, mat) in enumerate(shards):
        for c0 in range(0, mat.shape[0], QUERY_COL_CHUNK):
            sub = mat[c0 : c0 + QUERY_COL_CHUNK]
            if sub.shape[0] == QUERY_COL_CHUNK:
                sims = np.matmul(q, sub.T, out=sims_buf)
            else:  # remainder tile: a column slice of the buffer would be
                sims = q @ sub.T  # non-contiguous → slow sgemm path
            ks = min(fetch, sub.shape[0])
            if run_sims is not None and run_sims.shape[1] == fetch:
                # streaming-top-K skip: a tile can only change rows whose
                # tile max reaches the row's current kth value (>= keeps
                # equal-sim ties eligible for the id rule). With k ≪ index
                # size almost every (row, tile) is skipped, so selection
                # cost amortizes to ~O(k) per row while the GEMM dominates.
                kth = run_sims[:, -1]
                need = sims.max(axis=1) >= kth
                if not need.any():
                    continue
                rows = np.nonzero(need)[0]
                sub_sims = sims[rows]
                part = _select_topk_tieaware(sub_sims, ks)
                psims = np.take_along_axis(sub_sims, part, axis=1)
                ppos = part.astype(np.int64) + (offsets[s] + c0)
                m_s, m_p = _merge_topk_pos(
                    run_sims[rows], run_pos[rows], psims, ppos, fetch
                )
                run_sims[rows] = m_s
                run_pos[rows] = m_p
                continue
            part = _select_topk_tieaware(sims, ks)
            psims = np.take_along_axis(sims, part, axis=1)
            ppos = part.astype(np.int64) + (offsets[s] + c0)
            run_sims, run_pos = _merge_topk_pos(
                run_sims, run_pos, psims, ppos, fetch
            )
    if run_sims is None:
        return _EMPTY_CANDIDATES
    w = run_sims.shape[1]
    flat_rids = _ids_for_positions(shards, offsets, run_pos.reshape(-1))
    flat_lids = pa.array(
        np.repeat(np.asarray(left_ids.to_pylist(), object), w), pa.string()
    )
    keep = np.ones(nq * w, bool)
    if exclude_self:
        import pyarrow.compute as pc

        keep &= ~pc.equal(flat_lids, flat_rids).to_numpy(zero_copy_only=False)
    ranks = (keep.reshape(nq, w).cumsum(axis=1) - 1).reshape(-1)
    keep &= ranks < k
    idx = np.nonzero(keep)[0]
    return pa.table(
        {
            "left_id": flat_lids.take(pa.array(idx)),
            "right_id": flat_rids.take(pa.array(idx)),
            "rank": pa.array(ranks[idx].astype(np.int32)),
            "cosine": pa.array(run_sims.reshape(-1)[idx].astype(np.float32)),
        },
        schema=CANDIDATE_SCHEMA,
    )


class _ExactQuery:
    """Actor-mode query body (EngineConfig.query_concurrency set): shards
    pinned once per actor — the right mode when shards are re-parsed state
    too big to memoize per task worker."""

    def __init__(self, shard_refs, k: int, exclude_self: bool, id_col: str):
        self.k = k
        self.exclude_self = exclude_self
        self.id_col = id_col
        self.shards, self.offsets = _parse_shards(shard_refs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _exact_query_batch(
            batch, self.shards, self.offsets, self.k, self.exclude_self,
            self.id_col,
        )


class ExactTopKPairer:
    """J1-J3: exact top-K cosine blocking without the dense N×N matrix."""

    def __init__(
        self,
        k: int = DEFAULT_TOP_K,
        cfg: EngineConfig | None = None,
        exclude_self: bool = False,
    ):
        self.k = k
        self.cfg = cfg or EngineConfig()
        self.exclude_self = exclude_self
        self.shard_refs: list | None = None

    def index(self, right_ds, id_col: str = "conv_id"):
        """Normalize + pin the right side as object-store shards, globally
        sorted by id so row position is the deterministic tie key (the sort
        is the one shuffle this operator pays; the query side pays none).

        The sort's partition count follows its INPUT block count, so the
        input is first repartitioned to ceil(n / index_shard_rows) blocks —
        sized by DATA, not by CPU count. Without this, a 4×CPU-fanned input
        (128 blocks at 32 CPUs) makes the sort exchange 128×128 block
        fragments for a table that only needs ~9 shards: measured 3.5 s at
        8 CPUs vs 11.1 s at 32 (anti-scaling, pure coordination overhead).
        Data-sized shards also make the index layout — and therefore the
        query stage's work — identical at every parallelism level."""
        cfg = self.cfg

        def normalize(batch: pa.Table) -> pa.Table:
            mat = _normalize_rows(emb_to_numpy(batch.column("emb")))
            return pa.table(
                {
                    "_pair_id": batch.column(id_col).cast(pa.string()),
                    "emb": numpy_to_emb(mat),
                }
            )

        right_ds = right_ds.materialize()  # no-op for materialized callers
        n = right_ds.count()
        target = max(1, -(-n // cfg.index_shard_rows))
        # batch_size=None → one normalize task per input block (a fixed
        # batch_size BUNDLES small blocks into few tasks and serializes the
        # stage); the data-sized repartition happens after, on normalized
        # blocks, so the only narrow step is the trivially cheap sort.
        norm = right_ds.map_batches(
            normalize, batch_format="pyarrow", batch_size=None
        )
        if right_ds.num_blocks() != target:
            norm = norm.repartition(target)

        def combine(block: pa.Table) -> pa.Table:
            # single-chunk shards keep the per-worker views zero-copy
            return block.combine_chunks()

        # the order-preserving repartition AFTER the sort pins shard
        # boundaries DETERMINISTICALLY (equal row splits of the global id
        # order): Ray's sort samples its range boundaries, so without this
        # the shard row-boundaries — and therefore the GEMM remainder-tile
        # shapes — vary run to run, which flips borderline float32 cosines
        # at the is_match threshold (~25 edges in 149k at 2.1M turns,
        # observed by the round-5 resume demo). With pinned boundaries the
        # whole blocking+scoring chain is bit-reproducible run to run.
        shards = (
            norm.sort("_pair_id")
            .repartition(target)
            .map_batches(combine, batch_format="pyarrow", batch_size=None)
            .materialize()
        )
        self.shard_refs = shards.to_arrow_refs()
        return self

    def query(self, left_ds, id_col: str = "conv_id"):
        if self.shard_refs is None:
            raise RuntimeError("ExactTopKPairer.query called before index")
        cfg = self.cfg
        from ..config import parallel_blocks

        # a materialized left side can arrive block-coalesced (e.g. 22 blocks
        # for 58k rows) which caps stage parallelism below the CPU count;
        # fanning out is a cheap metadata-only repartition at this row size
        left_ds = parallel_blocks(left_ds, factor=4)
        if cfg.query_concurrency is not None:
            return left_ds.map_batches(
                _ExactQuery,
                fn_constructor_kwargs=dict(
                    shard_refs=self.shard_refs,
                    k=self.k,
                    exclude_self=self.exclude_self,
                    id_col=id_col,
                ),
                batch_format="pyarrow",
                batch_size=cfg.query_batch_size,
                concurrency=actor_pool_size(cfg.query_concurrency),
            )
        shard_refs = self.shard_refs
        k, exclude_self = self.k, self.exclude_self
        row_chunk = cfg.query_batch_size
        cache_key = "exact-shards:" + ",".join(r.hex() for r in shard_refs)

        def query_fn(batch: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_compute

            shards, offsets = cached_compute(
                cache_key, lambda: _parse_shards(shard_refs)
            )
            return _exact_query_block(
                batch, shards, offsets, k, exclude_self, id_col, row_chunk
            )

        # batch_size=None: one batch per block; rows are chunked inside
        # _exact_query_block (see its docstring for why)
        return left_ds.map_batches(
            query_fn, batch_format="pyarrow", batch_size=None
        )


def kmeans_lite(
    x: np.ndarray, n_cells: int, seed: int, n_iter: int = 10
) -> np.ndarray:
    """Seeded spherical k-means on a driver-side sample (bounded by the
    caller). Returns normalized centroids (n_cells, D)."""
    rng = np.random.default_rng(seed)
    xn = _normalize_rows(x.astype(np.float64)).astype(np.float64)
    n_cells = min(n_cells, len(xn))
    centroids = xn[rng.choice(len(xn), size=n_cells, replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(xn @ centroids.T, axis=1)
        for c in range(n_cells):
            members = xn[assign == c]
            if len(members):
                v = members.sum(axis=0)
                norm = np.linalg.norm(v)
                if norm > 0:
                    centroids[c] = v / norm
    return centroids.astype(np.float32)


class _IVFQuery:
    """IVF query actor: probes only top-nprobe cells per query per shard.

    Each shard stores rows sorted by (cell, right_id) plus a (n_cells+1)
    offsets array, so a cell's rows are a contiguous zero-copy slice and
    positional tie-breaks inside a cell follow id order. The running top-K
    merge is INTEGER-keyed: each row carries its global id-rank (``_rank``,
    written at index build — the row's position in the id-sorted order), so
    the per-cell running merge lexsorts (−sim, id_rank) over int64/float32
    arrays and string ids are resolved ONCE per emitted candidate. The rank
    order equals lexicographic right_id order, so the tie rule is still the
    exact pairer's (−cosine, right_id): with nprobe = n_cells the output is
    bit-identical to exact search (the basis of the knn_ivf driver oracle);
    with smaller nprobe the only deviation is recall, never tie order.
    (Round-4 profiling: the previous object-dtype string-id merge was 70% of
    the 40M-turn query wall — the merge, not the GEMM, bounded the stage.)
    """

    def __init__(
        self, shard_refs, centroids_ref, k, nprobe, exclude_self, id_col
    ):
        self.k = k
        self.nprobe = nprobe
        self.exclude_self = exclude_self
        self.id_col = id_col
        self.centroids = ray.get(centroids_ref)
        self.shards = []
        n_cells = len(self.centroids)
        from ..state.lookup import one_chunk

        base = 0
        bases = []
        for ref in shard_refs:
            t = ray.get(ref)
            if len(t) == 0:
                continue
            ids = one_chunk(t.column("_pair_id"))
            mat = emb_to_numpy(t.column("emb"))
            cells = np.asarray(one_chunk(t.column("cell")))
            ranks = np.asarray(one_chunk(t.column("_rank")))
            offsets = np.searchsorted(cells, np.arange(n_cells + 1))
            # cell-contiguous layout: a shard holds a contiguous cell range,
            # so most cells are empty here — precompute the nonempty set for
            # the per-batch probed-cell intersection
            nonempty = np.nonzero(np.diff(offsets))[0]
            self.shards.append((ids, mat, offsets, nonempty, ranks, base))
            bases.append(base)
            base += len(t)
        self._bases = np.asarray(bases, np.int64)

    def _resolve(self, pos: np.ndarray) -> pa.Array:
        """Global storage positions → right_id strings (one pa ``take`` per
        touched shard + one splice; id values never round-trip through
        Python objects)."""
        si = np.searchsorted(self._bases, pos, side="right") - 1
        parts: list[pa.Array] = []
        out_pos = np.empty(len(pos), np.int64)
        cursor = 0
        for s in np.unique(si):
            m = si == s
            local = pa.array(pos[m] - self._bases[s])
            parts.append(self.shards[s][0].take(local))
            out_pos[m] = np.arange(cursor, cursor + int(m.sum()))
            cursor += int(m.sum())
        if not parts:
            return pa.array([], pa.string())
        pool = parts[0] if len(parts) == 1 else pa.concat_arrays(parts)
        return pool.take(pa.array(out_pos))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..state.lookup import one_chunk

        left_col = one_chunk(batch.column(self.id_col).cast(pa.string()))
        q = _normalize_rows(emb_to_numpy(batch.column("emb")))
        nq = len(left_col)
        if nq == 0:
            return _EMPTY_CANDIDATES
        fetch = self.k + 1 if self.exclude_self else self.k
        cell_sims = q @ self.centroids.T
        np_ = min(self.nprobe, self.centroids.shape[0])
        # stable argsort (not argpartition): ties at the nprobe boundary
        # break by ascending cell index, so WHICH cells get probed is
        # deterministic across platforms/BLAS builds — argpartition's
        # boundary choice is implementation-defined. n_cells ~ √N keeps the
        # extra log-factor negligible next to the per-cell GEMMs.
        probed = np.argsort(-cell_sims, axis=1, kind="stable")[:, :np_]

        run_sims = np.full((nq, fetch), -np.inf, np.float32)
        # -inf pads sort last regardless of rank, so the pad rank is inert
        run_rank = np.full((nq, fetch), np.iinfo(np.int64).max, np.int64)
        run_pos = np.full((nq, fetch), -1, np.int64)

        # invert: cell → queries probing it (vectorized bucketing)
        flat_cells = probed.reshape(-1)
        flat_q = np.repeat(np.arange(nq), np_)
        order = np.argsort(flat_cells, kind="stable")
        flat_cells = flat_cells[order]
        flat_q = flat_q[order]
        bounds = np.searchsorted(
            flat_cells, np.arange(self.centroids.shape[0] + 1)
        )
        cells_used = np.unique(flat_cells)

        for _ids, mat, offsets, nonempty, ranks, base in self.shards:
            # probed ∩ present (both sorted unique): skips the ~n_cells empty
            # iterations per shard that the contiguous layout would otherwise
            # pay as Python-loop overhead
            for c in np.intersect1d(cells_used, nonempty, assume_unique=True):
                qs = flat_q[bounds[c] : bounds[c + 1]]
                s, e = offsets[c], offsets[c + 1]
                if e <= s or len(qs) == 0:
                    continue
                # streaming-top-K skip (same rule as the exact path): a cell
                # can only change rows whose cell max reaches the row's
                # current kth sim (>= keeps equal-sim ties eligible for the
                # rank rule)
                sub = mat[s:e]
                sims = q[qs] @ sub.T
                kth = run_sims[qs, -1]
                need = sims.max(axis=1) >= kth
                if not need.any():
                    continue
                if not need.all():
                    qs = qs[need]
                    sims = sims[need]
                ks = min(fetch, sub.shape[0])
                part = _select_topk_tieaware(sims, ks)
                psims = np.take_along_axis(sims, part, axis=1)
                prank = ranks[s:e][part]
                ppos = base + s + part.astype(np.int64)
                merged_s = np.concatenate(
                    [run_sims[qs], psims.astype(np.float32)], axis=1
                )
                merged_r = np.concatenate([run_rank[qs], prank], axis=1)
                merged_p = np.concatenate([run_pos[qs], ppos], axis=1)
                # deterministic running merge on INTEGER keys: (−sim,
                # id_rank) == (−sim, right_id) by the index-build rank rule
                morder = np.lexsort((merged_r, -merged_s), axis=1)[:, :fetch]
                run_sims[qs] = np.take_along_axis(merged_s, morder, axis=1)
                run_rank[qs] = np.take_along_axis(merged_r, morder, axis=1)
                run_pos[qs] = np.take_along_axis(merged_p, morder, axis=1)

        # vectorized long-form emit: resolve string ids only for the ≤k·nq
        # survivors (mirror of the exact path's position→id gather)
        flat_s = run_sims.reshape(-1)
        flat_p = run_pos.reshape(-1)
        valid = flat_s > -np.inf
        idx_v = np.nonzero(valid)[0]
        r_valid = self._resolve(flat_p[idx_v])
        keep_v = np.ones(len(idx_v), bool)
        if self.exclude_self:
            l_valid = left_col.take(pa.array(idx_v // fetch))
            keep_v &= ~pc.equal(l_valid, r_valid).to_numpy(
                zero_copy_only=False
            )
        keep = np.zeros(nq * fetch, bool)
        keep[idx_v] = keep_v
        rank_of = (keep.reshape(nq, fetch).cumsum(axis=1) - 1).reshape(-1)
        keep &= rank_of < self.k
        idx = np.nonzero(keep)[0]
        # survivors are a subset of idx_v: subselect the resolved pool
        sub_pos = np.searchsorted(idx_v, idx)
        return pa.table(
            {
                "left_id": left_col.take(pa.array(idx // fetch)),
                "right_id": r_valid.take(pa.array(sub_pos)),
                "rank": pa.array(rank_of[idx].astype(np.int32)),
                "cosine": pa.array(flat_s[idx].astype(np.float32)),
            },
            schema=CANDIDATE_SCHEMA,
        )


class IVFTopKPairer:
    """Approximate top-K via inverted-file cells (scale path for huge right
    sides; recall controlled by nprobe/ivf_cells)."""

    def __init__(
        self,
        k: int = DEFAULT_TOP_K,
        cfg: EngineConfig | None = None,
        exclude_self: bool = False,
        sample_rows: int = 50_000,
    ):
        self.k = k
        self.cfg = cfg or EngineConfig()
        self.exclude_self = exclude_self
        self.sample_rows = sample_rows
        self.shard_refs = None
        self.centroids_ref = None

    def index(self, right_ds, id_col: str = "conv_id"):
        cfg = self.cfg
        right_ds = right_ds.materialize()
        n = right_ds.count()
        # data-sized shard count (see ExactTopKPairer.index): identical
        # index layout at every parallelism level, no CPU-scaled fan-out
        target = max(1, -(-n // cfg.index_shard_rows))
        # the k-means sample is a function of the embeddings alone, not of
        # the block layout or row order: above sample_rows the rows whose
        # id hash falls below frac·2⁶⁴, and id order for kmeans_lite's
        # positional seeding
        sample = right_ds.select_columns([id_col, "emb"])
        if n > self.sample_rows:
            cut = np.uint64(self.sample_rows / n * 2.0**64)

            def by_id_hash(t: pa.Table) -> pa.Table:
                h = id_hash(t.column(id_col).cast(pa.string()).to_pylist())
                return t.filter(pa.array(h < cut))

            sample = sample.map_batches(by_id_hash, batch_format="pyarrow")
        sample = sample.to_pandas().sort_values(id_col, kind="stable")
        x = np.stack([np.asarray(e, np.float32) for e in sample["emb"]])
        centroids = kmeans_lite(x, cfg.ivf_cells, cfg.seed)
        self.centroids_ref = ray.put(centroids)
        centroids_ref = self.centroids_ref

        def assign(batch: pa.Table) -> pa.Table:
            c = ray.get(centroids_ref)
            mat = _normalize_rows(emb_to_numpy(batch.column("emb")))
            cells = np.argmax(mat @ c.T, axis=1).astype(np.int32)
            return pa.table(
                {
                    "_pair_id": batch.column(id_col).cast(pa.string()),
                    "emb": numpy_to_emb(mat),
                    "cell": pa.array(cells),
                }
            )

        # GLOBAL (cell, id) sort + order-preserving repartition: each
        # data-sized shard covers a contiguous CELL RANGE — the "repartition
        # keyed on ANN cell" exchange. The first layout (row-range shards,
        # each sub-sorted by cell) fragmented every cell across every shard:
        # at 5.4M vectors / 84 shards / 2331 cells a probed cell was ~28
        # rows per shard, so the query degenerated into ~200k tiny GEMM +
        # merge steps per 512-query batch (measured >90 min at 32 CPUs on
        # the 40M-turn corpus). Cell-contiguous shards make a probed cell
        # ONE contiguous slice spanning ceil(cell_rows/shard_rows)+1 shards
        # — typically ≤2; an outsize cell spans more and the per-shard
        # running merge handles it — so per-batch work is ~n_cells large
        # GEMMs. Layout depends only on the data, not session parallelism.
        #
        # An id-only sort runs FIRST to stamp each row's global id-rank
        # (``_rank``): the query stage's running top-K merges on that int64
        # key instead of object-dtype id strings (the (−cos, right_id) tie
        # rule is preserved because rank order == lexicographic id order),
        # and resolves rank→string once per emitted candidate. The second
        # sort this costs is index-side and pays for itself ~10× over in
        # the query stage (70% of the 40M-turn wall was the object-dtype
        # merge).
        def combine(block: pa.Table) -> pa.Table:
            # repartition merges sort-output blocks into MULTI-chunk tables;
            # rewrite each shard single-chunk ONCE here at write time, so
            # every query worker's one_chunk/emb_to_numpy view stays
            # zero-copy (a multi-chunk emb column re-copied 6.5 GB into
            # every worker — the OOM this layout was built to avoid)
            return block.combine_chunks()

        ranked = _enumerate_sorted(
            right_ds.map_batches(assign, batch_format="pyarrow")
            .sort("_pair_id")
            .materialize()
        )
        shards = (
            ranked.sort(["cell", "_rank"])
            .repartition(target)
            .map_batches(combine, batch_format="pyarrow", batch_size=None)
            .materialize()
        )
        self.shard_refs = shards.to_arrow_refs()
        return self

    def query(self, left_ds, id_col: str = "conv_id"):
        if self.shard_refs is None:
            raise RuntimeError("IVFTopKPairer.query called before index")
        cfg = self.cfg
        kwargs = dict(
            shard_refs=self.shard_refs,
            centroids_ref=self.centroids_ref,
            k=self.k,
            nprobe=cfg.ivf_nprobe,
            exclude_self=self.exclude_self,
            id_col=id_col,
        )
        if cfg.query_concurrency is not None:
            return left_ds.map_batches(
                _IVFQuery,
                fn_constructor_kwargs=kwargs,
                batch_format="pyarrow",
                batch_size=cfg.query_batch_size,
                concurrency=actor_pool_size(cfg.query_concurrency),
            )
        cache_key = "ivf:" + ",".join(
            r.hex() for r in [self.centroids_ref, *self.shard_refs]
        )

        def query_fn(batch: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_compute

            actor = cached_compute(cache_key, lambda: _IVFQuery(**kwargs))
            return actor(batch)

        return left_ds.map_batches(
            query_fn, batch_format="pyarrow", batch_size=cfg.query_batch_size
        )


PAIRERS = {"exact": ExactTopKPairer, "ivf": IVFTopKPairer}


def make_pairer(
    pairing: str, k: int, cfg: EngineConfig, exclude_self: bool = True
):
    """The top-K pairer for a pairing mode name ("exact" or "ivf")."""
    try:
        cls = PAIRERS[pairing]
    except KeyError:
        raise KeyError(
            f"unknown pairing mode {pairing!r}; choose from {sorted(PAIRERS)}"
        ) from None
    return cls(k=k, cfg=cfg, exclude_self=exclude_self)
