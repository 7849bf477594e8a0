"""Similarity search over an embedding column (training-data-pipeline op).

Brute-force exact cosine top-k is the baseline (the reference's
ExactTopKVectorPairing semantics, vector_pairing_models.py:21-46, applied to a
generic embedding table); the IVF variant is the scale path. Both reuse the
pairing stage — broadcast-sharded matmuls, no shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import EngineConfig
from .embed import numpy_to_emb
from .pairing import make_pairer


def prep_embeddings(ds, id_col: str = "vec_id", list_col: str = "embedding"):
    """(vec_id, list<float>) → (vec_id:string, emb:fixed_size_list<float32,D>).

    Zero-copy flatten: the list column's value buffer is viewed as one numpy
    array and reshaped (no per-row Python lists). Ragged rows are rejected —
    an embedding column must be fixed-width."""

    def prep(batch: pa.Table) -> pa.Table:
        col = batch.column(list_col).combine_chunks()
        if pa.types.is_fixed_size_list(col.type):
            width = col.type.list_size
            flat = np.asarray(col.flatten())
        else:
            offs = np.asarray(col.offsets)
            widths = np.diff(offs)
            if len(widths) and (widths != widths[0]).any():
                raise ValueError(
                    f"ragged {list_col!r} column: lengths "
                    f"{np.unique(widths)[:5]}..."
                )
            width = int(widths[0]) if len(widths) else 0
            flat = np.asarray(col.flatten())
        mat = flat.astype(np.float32, copy=False).reshape(len(col), width)
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.string()),
                "emb": numpy_to_emb(mat),
            }
        )

    return ds.map_batches(prep, batch_format="pyarrow")


def knn(
    emb_ds,
    n_queries: int = 10,
    k: int = 10,
    cfg: EngineConfig | None = None,
    id_col: str = "vec_id",
    list_col: str = "embedding",
    mode: str = "exact",
    nprobe: int | None = None,
):
    """Top-k cosine neighbors of the first ``n_queries`` ids (self excluded).
    Returns (query_id, neighbor_id, rank, cosine). ``nprobe`` overrides
    cfg.ivf_nprobe for IVF mode; nprobe == cfg.ivf_cells probes everything,
    which makes IVF bit-identical to exact (the knn_ivf driver oracle)."""
    import dataclasses

    cfg = cfg or EngineConfig()
    if nprobe is not None:
        cfg = dataclasses.replace(cfg, ivf_nprobe=nprobe)
    prepped = prep_embeddings(ds=emb_ds, id_col=id_col, list_col=list_col).materialize()
    queries = emb_ds.filter(expr=f"{id_col} < {n_queries}")
    queries = prep_embeddings(queries, id_col=id_col, list_col=list_col)
    pairer = make_pairer(mode, k, cfg)
    pairer.index(prepped, id_col=id_col)
    out = pairer.query(queries, id_col=id_col)
    return out.map_batches(
        lambda t: pa.table(
            {
                "query_id": t.column("left_id"),
                "neighbor_id": t.column("right_id"),
                "rank": t.column("rank"),
                "cosine": t.column("cosine"),
            }
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------- int8 quantized knn --


def _quantize_rows(mat64: np.ndarray) -> np.ndarray:
    """Symmetric per-row int8 quantization: q = floor(x · 127/max|x| + 0.5),
    computed entirely in float64 so the SQL twin (the same expression over
    DOUBLE) is bit-identical. Zero rows quantize to zero. The values are
    small integers stored in float64 — every subsequent product/sum below
    2^53 is EXACT, which is what makes the quantized search bit-reproducible
    across engines (no float32-GEMM rounding in the compare path)."""
    maxabs = np.max(np.abs(mat64), axis=1)
    safe = np.where(maxabs > 0, maxabs, 1.0)
    s = np.where(maxabs > 0, 127.0 / safe, 0.0)
    return np.floor(mat64 * s[:, None] + 0.5)


def knn_int8(
    emb_ds,
    n_queries: int = 10,
    k: int = 10,
    cfg: EngineConfig | None = None,
    id_col: str = "vec_id",
    list_col: str = "embedding",
):
    """Top-k cosine neighbors over int8-QUANTIZED embeddings — the
    memory-bandwidth scale path for brute-force ANN: a 100-TB float32
    embedding column becomes 4× smaller in the object store and the GEMM
    streams 4× less DRAM, which is exactly where the exact pairer's query
    stage is bounded (BASELINE.md per-stage table: 0.58 efficiency at the
    stream ceiling). Shard the quantized matrix like ExactTopKPairer shards
    the float index for the multi-node layout; this baseline keeps the
    index in one plasma object (byte-capped corpora).

    Unlike float32 search, the quantized ranking has an EXACT SQL twin with
    no margin argument: int8·int8 products and their ≤2^53 sums are exact in
    float64 regardless of summation order, so engine and DuckDB compute
    bit-identical cosines (ties broken by neighbor id on both sides).
    Returns (query_id, neighbor_id, rank); self excluded. Zero vectors
    quantize to zero and are excluded from results by the twin's NaN
    semantics — don't feed them (prep rejects none; document corpora only).
    """
    import ray

    cfg = cfg or EngineConfig()

    def prep_q(batch: pa.Table) -> pa.Table:
        col = batch.column(list_col).combine_chunks()
        if pa.types.is_fixed_size_list(col.type):
            width = col.type.list_size
        else:
            offs = np.asarray(col.offsets)
            widths = np.diff(offs)
            if len(widths) and (widths != widths[0]).any():
                raise ValueError(f"ragged {list_col!r} column")
            width = int(widths[0]) if len(widths) else 0
        flat = np.asarray(col.flatten()).astype(np.float64)
        q = _quantize_rows(flat.reshape(len(col), width))
        return pa.table(
            {
                id_col: batch.column(id_col).cast(pa.string()),
                "emb": numpy_to_emb(q.astype(np.float32, copy=False)),
            }
        )

    # the quantized values fit float32 exactly (|q| ≤ 127), so the Arrow
    # transport stays compact; compute below re-widens to float64
    prepped = emb_ds.map_batches(prep_q, batch_format="pyarrow").materialize()

    # single pinned index object (baseline path — see docstring)
    ids_parts, mats = [], []
    for t in prepped.iter_batches(batch_format="pyarrow", batch_size=None):
        ids_parts.append(t.column(id_col).to_pylist())
        col = t.column("emb").combine_chunks()
        mats.append(
            np.asarray(col.flatten(), dtype=np.float64).reshape(len(col), -1)
        )
    index_ids = np.concatenate([np.asarray(p, object) for p in ids_parts])
    index_mat = np.vstack(mats)
    index_norms = np.sqrt((index_mat * index_mat).sum(axis=1))
    idx_ref = ray.put((index_ids, index_mat, index_norms))

    queries = emb_ds.filter(expr=f"{id_col} < {n_queries}")
    queries = queries.map_batches(prep_q, batch_format="pyarrow")

    def topk(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import cached_get

        iids, imat, inorm = cached_get(idx_ref)
        qcol = batch.column("emb").combine_chunks()
        qmat = np.asarray(qcol.flatten(), dtype=np.float64).reshape(
            len(qcol), -1
        )
        qids = np.asarray(batch.column(id_col).to_pylist(), object)
        qnorm = np.sqrt((qmat * qmat).sum(axis=1))
        # int-exact dot in float64; norms/division are deterministic IEEE
        cos = (qmat @ imat.T) / np.outer(qnorm, inorm)
        out_q, out_n, out_r = [], [], []
        for i in range(len(qmat)):
            row = cos[i]
            mask = iids != qids[i]  # exclude self
            cand_ids = iids[mask]
            cand_cos = row[mask]
            # (cos desc, id asc) via two stable argsorts — np.lexsort does
            # not accept object (string) keys
            order = np.argsort(cand_ids, kind="stable")
            order = order[np.argsort(-cand_cos[order], kind="stable")][:k]
            out_q.extend([qids[i]] * len(order))
            out_n.extend(cand_ids[order])
            out_r.extend(range(len(order)))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.string()),
                "neighbor_id": pa.array(out_n, pa.string()),
                "rank": pa.array(np.asarray(out_r, np.int32)),
            }
        )

    return queries.map_batches(topk, batch_format="pyarrow")


def kmeans_assign(
    ds,
    cfg: EngineConfig | None = None,
    *,
    k: int = 8,
    id_col: str = "vec_id",
    list_col: str = "embedding",
    scale: int = 10_000,
):
    """One deterministic Lloyd ASSIGNMENT step — the clustering primitive
    under IVF cell routing and corpus topic bucketing, exposed with an
    exact oracle: seeds are the vectors with ``id < k`` (dense ids by the
    table contract), every vector goes to its nearest seed under INTEGER
    squared L2 on ``round(x·scale)``-quantized coordinates (float distance
    sums are order-dependent; integer sums are associative, so the SQL
    twin matches bit-for-bit), ties to the smallest seed id. Emits
    (``id_col``, cluster:int64, dist_q:int64).

    Scale shape: the k seed vectors are collected ONCE (a map-side filter,
    no sort) and broadcast; each batch computes all distances with one
    |a|²+|c|²−2a·c int64 GEMM — no shuffle anywhere. Iterating Lloyd means
    re-broadcasting k×D ints per round; assignment is the distributed
    step, the centroid update is an O(k·D) driver reduce.
    """
    import ray

    cfg = cfg or EngineConfig()
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def quantize(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        col = batch.column(list_col).combine_chunks()
        if hasattr(col, "flatten") and (
            pa.types.is_fixed_size_list(col.type)
            or pa.types.is_list(col.type)
        ):
            flat = np.asarray(col.flatten(), np.float64)
            width = (
                col.type.list_size
                if pa.types.is_fixed_size_list(col.type)
                else int(np.diff(np.asarray(col.offsets))[0])
            )
            mat = flat.reshape(len(col), width)
        else:  # Ray tensor extension array (in-memory test frames)
            mat = np.asarray(
                col.to_numpy(zero_copy_only=False), np.float64
            )
        q = np.rint(mat * scale).astype(np.int64)
        return np.asarray(batch.column(id_col), np.int64), q

    # seeds: one DISTRIBUTED filtered pass, no sort (ids are dense by
    # table contract); only the k winning rows reach the driver
    def pick_seeds(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_col), np.int64)
        return t.filter(pa.array(ids < k))

    seeds_pd = (
        ds.select_columns([id_col, list_col])
        .map_batches(pick_seeds, batch_format="pyarrow")
        .to_pandas()
    )
    if not len(seeds_pd):
        raise ValueError(f"no seed rows with {id_col} < {k}")
    seeds = pa.Table.from_pandas(seeds_pd, preserve_index=False)
    sids, sq = quantize(seeds)
    order = np.argsort(sids)
    sids, sq = sids[order], sq[order]
    if len(sids) != k:
        raise ValueError(
            f"expected {k} seed rows with {id_col} < {k}, got {len(sids)}"
        )
    seeds_ref = ray.put((sids, sq))

    def assign(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import cached_get

        cids, cq = cached_get(seeds_ref)
        ids, q = quantize(batch)
        # |a-c|^2 = |a|^2 + |c|^2 - 2 a.c, all int64 (exact; coords are
        # bounded by round(1*scale) so no overflow at any real dim count)
        a2 = (q * q).sum(axis=1)
        c2 = (cq * cq).sum(axis=1)
        cross = q @ cq.T
        d = a2[:, None] + c2[None, :] - 2 * cross
        best = np.argmin(d, axis=1)  # first min == smallest seed id
        return pa.table(
            {
                id_col: pa.array(ids),
                "cluster": pa.array(cids[best]),
                "dist_q": pa.array(d[np.arange(len(ids)), best]),
            }
        )

    return ds.select_columns([id_col, list_col]).map_batches(
        assign, batch_format="pyarrow"
    )


def kmeans_update(
    ds,
    cfg: EngineConfig | None = None,
    *,
    k: int = 8,
    id_col: str = "vec_id",
    list_col: str = "embedding",
    scale: int = 10_000,
):
    """The Lloyd UPDATE step, distributed — completes the k-means loop
    started by ``kmeans_assign``: per cluster and dimension, exact integer
    (csum, cnt) over the ``round(x·scale)``-quantized coordinates of the
    members assigned by the same nearest-seed rule, plus the quantized
    centroid ``cmean_q = csum / cnt`` in TRUNC-toward-zero division
    (pinned to DuckDB's ``//``; numpy floors negatives). Output one row
    per (cluster:int64, dim:int32 1-based, csum:int64, cnt:int64,
    cmean_q:int64); empty clusters emit nothing.

    Scale shape: seeds broadcast once; each batch assigns with the int64
    GEMM and pre-reduces to a k×D partial (one one-hot matmul) — the only
    thing that ever moves is k·D-row partials into a single tiny combine.
    No shuffle of vector data at all; iterating Lloyd re-broadcasts k×D
    ints per round."""
    import ray

    cfg = cfg or EngineConfig()
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def quantize(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        col = batch.column(list_col).combine_chunks()
        if hasattr(col, "flatten") and (
            pa.types.is_fixed_size_list(col.type)
            or pa.types.is_list(col.type)
        ):
            flat = np.asarray(col.flatten(), np.float64)
            width = (
                col.type.list_size
                if pa.types.is_fixed_size_list(col.type)
                else int(np.diff(np.asarray(col.offsets))[0])
            )
            mat = flat.reshape(len(col), width)
        else:
            mat = np.asarray(
                col.to_numpy(zero_copy_only=False), np.float64
            )
        q = np.rint(mat * scale).astype(np.int64)
        return np.asarray(batch.column(id_col), np.int64), q

    def pick_seeds(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_col), np.int64)
        return t.filter(pa.array(ids < k))

    seeds_pd = (
        ds.select_columns([id_col, list_col])
        .map_batches(pick_seeds, batch_format="pyarrow")
        .to_pandas()
    )
    if not len(seeds_pd):
        raise ValueError(f"no seed rows with {id_col} < {k}")
    seeds = pa.Table.from_pandas(seeds_pd, preserve_index=False)
    sids, sq = quantize(seeds)
    order = np.argsort(sids)
    sids, sq = sids[order], sq[order]
    if len(sids) != k:
        raise ValueError(
            f"expected {k} seed rows with {id_col} < {k}, got {len(sids)}"
        )
    seeds_ref = ray.put((sids, sq))

    def partial(batch: pa.Table) -> "pd.DataFrame":
        import pandas as pd

        from ..state.broadcast import cached_get

        cids, cq = cached_get(seeds_ref)
        _, q = quantize(batch)
        a2 = (q * q).sum(axis=1)
        c2 = (cq * cq).sum(axis=1)
        d = a2[:, None] + c2[None, :] - 2 * (q @ cq.T)
        best = np.argmin(d, axis=1)
        onehot = np.eye(len(cids), dtype=np.int64)[best]
        sums = onehot.T @ q                      # k × D
        cnts = np.bincount(best, minlength=len(cids)).astype(np.int64)
        kk, dd = sums.shape
        return pd.DataFrame(
            {
                "cluster": np.repeat(cids, dd),
                "dim": np.tile(np.arange(1, dd + 1, dtype=np.int32), kk),
                "csum": sums.ravel(),
                "cnt": np.repeat(cnts, dd),
            }
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        s = (
            df.groupby(["cluster", "dim"], sort=True)[["csum", "cnt"]]
            .sum()
            .reset_index()
        )
        s = s[s["cnt"] > 0]
        cs = s["csum"].to_numpy(np.int64)
        cn = s["cnt"].to_numpy(np.int64)
        mean = np.where(cs < 0, -(-cs // cn), cs // cn)
        return pd.DataFrame(
            {
                "cluster": s["cluster"].to_numpy(np.int64),
                "dim": s["dim"].to_numpy(np.int32),
                "csum": cs,
                "cnt": cn,
                "cmean_q": mean.astype(np.int64),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def dim_stats(
    ds,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "vec_id",
    list_col: str = "embedding",
    scale: int = 10_000,
):
    """Per-dimension feature-standardization statistics over an embedding
    column, exact: (dim:int32 1-based, n:int64, sum_q:int64,
    sum_qq:int64, min_q:int64, max_q:int64) on ``round(x·scale)``
    quantized coordinates — the global μ/σ ingredient for normalizing
    vectors before indexing, integer-exact so the SQL twin matches
    bit-for-bit (float Σx² is order-dependent; int64 is associative).

    Scale shape: each batch reduces to one D-row partial (columnar
    sums/extrema, no per-row work beyond the quantize); partials meet in
    a single tiny combine. Nothing else moves."""
    cfg = cfg or EngineConfig()

    def partial(batch: pa.Table) -> "pd.DataFrame":
        import pandas as pd

        col = batch.column(list_col).combine_chunks()
        if hasattr(col, "flatten") and (
            pa.types.is_fixed_size_list(col.type)
            or pa.types.is_list(col.type)
        ):
            flat = np.asarray(col.flatten(), np.float64)
            width = (
                col.type.list_size
                if pa.types.is_fixed_size_list(col.type)
                else int(np.diff(np.asarray(col.offsets))[0])
            )
            mat = flat.reshape(len(col), width)
        else:
            mat = np.asarray(col.to_numpy(zero_copy_only=False), np.float64)
        q = np.rint(mat * scale).astype(np.int64)
        d = q.shape[1]
        return pd.DataFrame(
            {
                "dim": np.arange(1, d + 1, dtype=np.int32),
                "n": np.full(d, len(q), np.int64),
                "sum_q": q.sum(axis=0),
                "sum_qq": (q * q).sum(axis=0),
                "min_q": q.min(axis=0),
                "max_q": q.max(axis=0),
            }
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("dim", sort=True)
        out = g.agg(
            n=("n", "sum"),
            sum_q=("sum_q", "sum"),
            sum_qq=("sum_qq", "sum"),
            min_q=("min_q", "min"),
            max_q=("max_q", "max"),
        ).reset_index()
        return out.astype(
            {
                "dim": np.int32,
                **{c: np.int64 for c in
                   ["n", "sum_q", "sum_qq", "min_q", "max_q"]},
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )
