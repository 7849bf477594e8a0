"""Tuple-embedding stages: Average and SIF (distributed fit + transform).

Reference semantics (/root/reference/tuple_embedding_models.py):
  - AverageEmbedding (:39-70): unweighted mean of token vectors.
  - SIFEmbedding (:76-145): global token-frequency fit → w(t)=a/(a+p(t));
    weighted mean per tuple; optional first-principal-component removal.

Ray-Data-native decomposition:
  - fit = per-batch partial token counts (map_batches) → groupby("token")
    Sum — the combiner keeps the shuffle at vocabulary size, not corpus
    size — → small weight dict broadcast via ray.put.
  - transform = actor-pool map_batches (embedding table + weight dict built
    once per actor in __init__), emitting a fixed_size_list(float32, D)
    column (zero-copy numpy view both directions).
  - PC removal = per-batch partial Gram XᵀX tree-aggregated to the driver
    (D×D is tiny), top eigenvector via eigh — the exact equivalent of the
    reference's uncentered TruncatedSVD (tuple_embedding_models.py:134-139)
    — then a broadcast per-batch projection. NB the reference computes the
    PC from each *queried* set, not at fit time; we preserve that.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

import ray

from ..config import (
    EngineConfig,
    SIF_MIN_FREQ,
    SIF_WEIGHTING_PARAM,
    actor_pool_size,
    gpu_kwargs,
)
from ..functions.hash_embedding import HashEmbedding, mean_pool_embed
from ..functions.tokenizer import tokenize


def emb_to_numpy(col: pa.ChunkedArray | pa.Array, dim: int | None = None) -> np.ndarray:
    """fixed_size_list(float32, D) column → (n, D) float32 view (zero-copy).
    ``dim=None`` infers D from the Arrow type.

    Uses ``.values`` (the raw child buffer) + an explicit row-offset slice
    instead of ``.flatten()``: flatten() on a SLICED FixedSizeListArray takes
    pyarrow's element-wise copy path, and Ray's batch_size slicing plus the
    query stage's internal ``table.slice`` make sliced inputs the common
    case. The values view is zero-copy for every offset.

    Single-chunk ChunkedArrays (every ``table.column(...)`` of a plasma
    block) take ``chunk(0)``, NOT ``combine_chunks()`` — pyarrow's
    combine_chunks copies even when there is exactly one chunk, which
    silently privatized the full index matrix into EVERY query worker
    (6.5 GB/worker at 5.4M vectors → OOM at 32 workers on the 40M-turn
    streaming run). Multi-chunk columns still pay the one concatenation
    copy; writers keep blocks single-chunk precisely so this stays free."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if dim is None:
        dim = col.type.list_size
    flat = np.asarray(col.values).reshape(-1, dim)
    return flat[col.offset : col.offset + len(col)]


def numpy_to_emb(mat: np.ndarray) -> pa.Array:
    mat = np.ascontiguousarray(mat, dtype=np.float32)
    return pa.FixedSizeListArray.from_arrays(
        pa.array(mat.reshape(-1)), mat.shape[1]
    )


def _embed_table_batch(
    batch: pa.Table,
    table: HashEmbedding,
    weights,
    id_col: str,
    text_col: str,
    oov_weight: float,
) -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    toks = [tokenize(t) if t is not None else [] for t in texts]
    mat, empty = mean_pool_embed(toks, table, weights, oov_weight)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "emb": numpy_to_emb(mat),
            "emb_empty": pa.array(empty),
        }
    )


class _EmbedBatch:
    """Actor-pool body for explicit actor mode (EngineConfig.embed_concurrency
    set): state built once per actor, mirroring the reference's
    load-model-once-per-process (tuple_embedding_models.py:44)."""

    def __init__(
        self,
        dim: int,
        seed: int,
        id_col: str,
        text_col: str,
        weights_ref=None,
        oov_weight: float = 1.0,
    ):
        self.table = HashEmbedding(dim=dim, seed=seed)
        self.id_col = id_col
        self.text_col = text_col
        self.weights = _resolve_weights(weights_ref)
        self.oov_weight = oov_weight

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _embed_table_batch(
            batch, self.table, self.weights, self.id_col, self.text_col,
            self.oov_weight,
        )


def _resolve_weights(weights_ref):
    """A weight map reaches workers either as a ray.put ObjectRef of a dict
    (legacy / small vocab) or as a HashedWeightsHandle over plasma block refs
    (vocab-size-independent); both memoize per process."""
    if weights_ref is None:
        return None
    from ..state.lookup import HashedWeightsHandle

    if isinstance(weights_ref, HashedWeightsHandle):
        return weights_ref.resolve()
    from ..state.broadcast import cached_get

    return cached_get(weights_ref)


def _embed_stage(ds, cfg: EngineConfig, id_col, text_col, weights_ref=None,
                 oov_weight: float = 1.0):
    """Embedding map stage. Default: task pool with per-process caches
    (state/broadcast.py) — long-lived workers, no per-execution actor spawn.
    Set EngineConfig.embed_concurrency for a dedicated actor pool (the right
    choice when per-worker state is heavyweight, e.g. a GPU model)."""
    from ..state.lookup import HashedWeightsHandle

    if (
        oov_weight != 1.0
        and isinstance(weights_ref, HashedWeightsHandle)
        and weights_ref.a is not None
        and (weights_ref.min_freq or 1) > 1
    ):
        # count-form fit dropped rare-but-SEEN tokens (< min_freq) because
        # their weight (1.0) equals the OOV fallback; a different oov_weight
        # would silently re-weight them as unseen — refuse instead.
        raise ValueError(
            "oov_weight != 1.0 with a min_freq-truncated weight map: tokens "
            "below min_freq were dropped to the 1.0 fallback at fit time "
            "and would silently follow oov_weight; refit with min_freq=1 "
            "or keep oov_weight=1.0"
        )
    if cfg.embed_concurrency is not None:
        return ds.map_batches(
            _EmbedBatch,
            fn_constructor_kwargs=dict(
                dim=cfg.emb_dim,
                seed=cfg.seed,
                id_col=id_col,
                text_col=text_col,
                weights_ref=weights_ref,
                oov_weight=oov_weight,
            ),
            batch_format="pyarrow",
            batch_size=cfg.embed_batch_size,
            concurrency=actor_pool_size(cfg.embed_concurrency),
            **gpu_kwargs(cfg),
        )
    dim, seed = cfg.emb_dim, cfg.seed

    def embed_fn(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import process_embedding_table

        table = process_embedding_table(dim, seed)
        weights = _resolve_weights(weights_ref)
        return _embed_table_batch(
            batch, table, weights, id_col, text_col, oov_weight
        )

    return ds.map_batches(
        embed_fn, batch_format="pyarrow", batch_size=cfg.embed_batch_size,
        **gpu_kwargs(cfg),
    )


def _token_counts_batch(batch: pa.Table, text_col: str) -> pa.Table:
    counts: Counter[str] = Counter()
    for t in batch.column(text_col).to_pylist():
        if t is not None:
            counts.update(tokenize(t))
    if not counts:
        return pa.table(
            {"token": pa.array([], pa.string()), "count": pa.array([], pa.int64())}
        )
    toks, vals = zip(*counts.items())
    return pa.table(
        {"token": pa.array(toks, pa.string()), "count": pa.array(vals, pa.int64())}
    )


def token_frequencies(ds, text_col: str = "tuple_text", cfg=None):
    """Corpus-global token frequencies (A1): partial counts per batch, then a
    small-int bucket exchange with a pandas combine per bucket. (Ray's
    groupby on a high-cardinality string key pays per-distinct-key overhead
    — 16k keys measured ~45s — while a bucket exchange is O(rows);
    vocabulary-sized keyspaces make that difference fatal at scale.)
    Returns a Dataset (token, count)."""
    import pandas as pd

    nb = (cfg or EngineConfig()).num_buckets

    def partial(b: pa.Table) -> pa.Table:
        t = _token_counts_batch(b, text_col)
        from ..stages.canonicalize import bucket_of

        return t.append_column(
            "_bucket", pa.array(bucket_of(t.column("token").to_pandas(), nb))
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("token", sort=False)["count"].sum()
        return pd.DataFrame(
            {"token": c.index.values, "count": c.values.astype(np.int64)}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def vocab_build(
    ds,
    cfg=None,
    *,
    text_col: str = "tuple_text",
    min_freq: int = 1,
):
    """Frequency-ranked vocabulary — (token, count, token_id) with
    token_id = dense 0-based rank in (count DESC, token ASC) order, the
    id assignment every tokenizer/embedding-table build starts from.

    Global rank WITHOUT a global sort: the shared prefix-scan machinery
    (scan.range_offsets) over count-descending ranges — equal counts land
    in one range by construction, so ranges partition the total order.
    Token counts are zipfian (a huge count=1 tail): a hot count value
    bounds ONE range's sort, the same containment note as
    length_batches' hot-length ranges. min_freq truncates before ranking
    (the SIF fallback rule: rare tokens are OOV, embed.py:SIFEmbedder)."""
    import ray
    import ray.data as rd

    from ..config import EngineConfig as _EC
    from .scan import range_offsets

    cfg = cfg or _EC()
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    nr = cfg.num_buckets

    freq = token_frequencies(ds, text_col=text_col, cfg=cfg)
    if min_freq > 1:
        freq = freq.filter(expr=f"count >= {min_freq}")
    freq = freq.materialize()

    from ray.data.aggregate import Max, Min

    bounds = freq.aggregate(Min("count"), Max("count"))
    if bounds is None or bounds.get("min(count)") is None:
        return rd.from_arrow(
            pa.schema(
                [("token", pa.string()), ("count", pa.int64()),
                 ("token_id", pa.int64())]
            ).empty_table()
        )
    lo = np.int64(bounds["min(count)"])
    hi = np.int64(bounds["max(count)"])
    span = np.int64(int(hi) - int(lo) + 1)

    def rng_of(c: np.ndarray) -> np.ndarray:
        # descending count order: range 0 holds the HIGHEST counts
        return ((hi - c) * np.int64(nr) // span).astype(np.int64)

    offsets, _total = range_offsets(
        freq, lambda t: rng_of(np.asarray(t.column("count"))), nr
    )
    off_ref = ray.put(offsets)

    def bucketed(t: pa.Table) -> pa.Table:
        c = np.asarray(t.column("count"))
        return t.append_column(
            "_bucket", pa.array(rng_of(c).astype(np.int32))
        )

    import pandas as pd

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import cached_get

        off = cached_get(off_ref)
        rng = int(g["_bucket"].iloc[0])
        g = g.sort_values(
            ["count", "token"], ascending=[False, True], kind="mergesort"
        )
        return pd.DataFrame(
            {
                "token": g["token"].to_numpy(),
                "count": g["count"].to_numpy(np.int64),
                "token_id": off[rng]
                + np.arange(len(g), dtype=np.int64),
            }
        )

    return (
        freq.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(rank, batch_format="pandas")
    )


def encode_tokens(
    ds,
    vocab,
    cfg=None,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Token-ID encoding — apply a frequency-ranked vocabulary to the
    corpus, one row per token position: (doc_id, pos, token_id); OOV →
    NULL token_id, with positions kept stable so downstream packing /
    windowing sees the true sequence length. The step between
    ``vocab_build`` and sequence layout that every tokenizer pipeline runs.

    Scale shape: the vocabulary is BOUNDED by construction (vocab_build's
    min_freq / top-N truncation — the same rule that bounds SIF fit
    state), so it collects once into a hash-sorted (token_hash → id)
    array pair, is ``ray.put`` once, and every task probes it zero-copy
    with one vectorized searchsorted over the batch's UNIQUE tokens
    (factorize → probe uniques → scatter back). The corpus side streams
    through a single map_batches — no shuffle, no join."""
    import pandas as pd

    from ..config import EngineConfig as _EC
    from ..stages.dedup import _stable_hash64

    cfg = cfg or _EC()

    vt = vocab.select_columns(["token", "token_id"]).to_pandas()
    if len(vt) == 0:
        # Ray quirk: to_pandas() on an empty dataset drops columns
        vh = np.empty(0, np.uint64)
        vi = np.empty(0, np.int64)
    else:
        vh = np.fromiter(
            (_stable_hash64(t.encode()) for t in vt["token"]),
            np.uint64,
            len(vt),
        )
        vi = vt["token_id"].to_numpy(np.int64)
    order = np.argsort(vh, kind="mergesort")
    ref = ray.put((vh[order], vi[order]))

    def encode(t: pa.Table) -> pa.Table:
        from ..state.broadcast import cached_get

        hs, ids = cached_get(ref)
        texts = t.column(text_col).to_pylist()
        tok_lists = [tokenize(x or "") for x in texts]
        n = len(tok_lists)
        counts = np.fromiter((len(x) for x in tok_lists), np.int64, n)
        total = int(counts.sum())
        if total:
            flat = np.empty(total, object)
            p = 0
            for toks in tok_lists:
                flat[p : p + len(toks)] = toks
                p += len(toks)
            inv, uniq = pd.factorize(flat, sort=False)
            uh = np.fromiter(
                (_stable_hash64(u.encode()) for u in uniq),
                np.uint64,
                len(uniq),
            )
            if len(hs):
                idx = np.searchsorted(hs, uh)
                idx[idx >= len(hs)] = len(hs) - 1
                uid = np.where(hs[idx] == uh, ids[idx], np.int64(-1))
            else:
                uid = np.full(len(uh), -1, np.int64)
            tid = uid[inv]
        else:
            tid = np.empty(0, np.int64)
        take = pa.array(np.repeat(np.arange(n, dtype=np.int64), counts))
        pos = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return pa.table(
            {
                id_col: t.column(id_col).combine_chunks().take(take),
                "pos": pa.array(pos),
                "token_id": pa.array(tid, pa.int64(), mask=tid == -1),
            }
        )

    return ds.map_batches(
        encode, batch_format="pyarrow", batch_size=cfg.embed_batch_size
    )


def sif_weight_dict(
    freq_df,
    a: float = SIF_WEIGHTING_PARAM,
    min_freq: int = SIF_MIN_FREQ,
) -> tuple[dict[str, float], int]:
    """tuple_embedding_models.py:111-119 over the collected frequency table."""
    if len(freq_df) == 0:  # empty corpus → empty Dataset has no columns
        return {}, 0
    total = int(freq_df["count"].sum())
    counts = freq_df["count"].to_numpy()
    weights = np.where(
        counts >= min_freq, a / (a + counts / total), 1.0
    )
    return dict(zip(freq_df["token"], weights)), total


def _gram_partial(batch: pa.Table, dim: int) -> pa.Table:
    x = emb_to_numpy(batch.column("emb"), dim).astype(np.float64)
    g = x.T @ x
    return pa.table(
        {
            "gram": pa.FixedSizeListArray.from_arrays(
                pa.array(g.reshape(-1)), dim * dim
            ),
            "n": pa.array([len(batch)], pa.int64()),
        }
    )


def top_pc(emb_ds, dim: int) -> np.ndarray:
    """Distributed Gram aggregation + driver eigh (exact TruncatedSVD
    equivalent on uncentered data). The per-batch partial keeps only D×D
    floats in flight regardless of corpus size."""
    # batch_size balances two transients: the default (1024 rows) emitted
    # one 720 KB gram row per 1024 input rows — ~570 rows / 410 MB serially
    # pulled and summed on the driver for a 580k-row corpus; batch_size=None
    # (whole blocks) made the per-task float64 copy unbounded (a 1.25M-row
    # block at dim=300 is a ~3 GiB transient on a low-CPU session where
    # parallel_blocks_sized leaves blocks huge). 64k rows keeps the per-task
    # copy ≤ ~160 MB at dim=300 AND the driver pull to a handful of rows.
    partial = emb_ds.map_batches(
        lambda b: _gram_partial(b, dim), batch_format="pyarrow",
        batch_size=65536,
    )
    # DETERMINISTIC fold: iter_batches yields partials in task-completion
    # order, and float64 addition is not associative — summing in arrival
    # order perturbed the PC by ~1e-14 run to run, which shifted every
    # embedding and flipped borderline is_match candidates (measured by the
    # round-5 resume demo). The partial MULTISET is deterministic (batch
    # boundaries are), so summing in content-hash order pins the result.
    # Driver transient: one 720 KB row per 64k input rows (~440 MB at 40M
    # rows; raise batch_size for corpora far beyond that).
    parts: list[tuple[bytes, np.ndarray]] = []
    for b in partial.iter_batches(batch_format="pyarrow", batch_size=None):
        g = b.column("gram").combine_chunks()
        flat = np.asarray(g.flatten()).reshape(len(g), dim, dim)
        for i in range(len(g)):
            arr = flat[i]
            # full-bytes key: equal prefixes must not unpin the tie order
            parts.append((arr.tobytes(), arr))
    gram = np.zeros((dim, dim), np.float64)
    for _key, arr in sorted(parts, key=lambda kv: kv[0]):
        gram += arr
    _vals, vecs = np.linalg.eigh(gram)
    pc = vecs[:, -1]
    idx = int(np.argmax(np.abs(pc)))
    if pc[idx] < 0:
        pc = -pc
    return pc


def remove_pc(emb_ds, pc: np.ndarray, dim: int):
    pc32 = pc.astype(np.float64)

    def project(batch: pa.Table) -> pa.Table:
        x = emb_to_numpy(batch.column("emb"), dim).astype(np.float64)
        x = x - np.outer(x @ pc32, pc32)
        cols = {name: batch.column(name) for name in batch.column_names}
        cols["emb"] = numpy_to_emb(x)
        return pa.table(cols)

    return emb_ds.map_batches(project, batch_format="pyarrow")


class AverageEmbedder:
    """T1 (tuple_embedding_models.py:39-70): no fit; unweighted mean."""

    def __init__(self, cfg: EngineConfig | None = None):
        self.cfg = cfg or EngineConfig()

    def fit(self, ds, text_col: str = "tuple_text"):
        return self

    def transform(self, ds, id_col: str = "conv_id", text_col: str = "tuple_text"):
        return _embed_stage(ds, self.cfg, id_col, text_col)


class SIFEmbedder:
    """T2 (tuple_embedding_models.py:76-145), distributed.

    fit() computes the global token-frequency weight map; transform()
    weighted-mean-embeds and (by default) removes the per-call first
    principal component, exactly like the reference's get_tuple_embedding.
    """

    def __init__(
        self,
        cfg: EngineConfig | None = None,
        a: float = SIF_WEIGHTING_PARAM,
        remove_pc: bool = True,
        min_freq: int = SIF_MIN_FREQ,
    ):
        self.cfg = cfg or EngineConfig()
        self.a = a
        self.remove_pc_flag = remove_pc
        self.min_freq = min_freq
        self.weights_ref = None

    def fit(self, ds, text_col: str = "tuple_text"):
        """Global token-frequency fit with O(1) DRIVER memory: the frequency
        table stays in the object store; only the scalar total crosses to the
        driver. The weight map ships to workers as a HashedWeightsHandle
        (sorted uint64 token-hash → float64 weight plasma blocks, built once
        per worker process) instead of a Python dict — fit-state size is
        independent of vocabulary size.

        Truncation rule (reference tuple_embedding_models.py:116-119):
        tokens with frequency < min_freq get weight exactly 1.0, which
        equals the OOV fallback — so they need no map entry at all and
        ``min_freq`` bounds the map to the frequent vocabulary. (Combining
        min_freq>1 with a non-default oov_weight at transform time is
        rejected by ``_embed_stage`` — truncated tokens would silently
        follow the oov_weight.)"""
        from ..state.lookup import HashedWeightsHandle, hash_tokens_2x

        def to_hashed(t: pa.Table) -> pa.Table:
            toks = np.asarray(t.column("token").to_pylist(), dtype=object)
            h1, h2 = hash_tokens_2x(toks)
            return pa.table(
                {
                    "_h1": pa.array(h1),
                    "_h2": pa.array(h2),
                    "_c": t.column("count").cast(pa.int64()),
                }
            )

        # ONE streaming execution for the whole fit: frequency exchange →
        # hash projection → materialize. Workers derive total + weights at
        # HashedWeights build time from the count blocks, so no second
        # aggregate pass and no driver-side vocabulary.
        hashed = (
            token_frequencies(ds, text_col, self.cfg)
            .map_batches(to_hashed, batch_format="pyarrow")
            .materialize()
        )
        refs = hashed.to_arrow_refs() if hashed.count() > 0 else []
        self.weights_ref = HashedWeightsHandle(
            refs, default=1.0, a=self.a, min_freq=self.min_freq
        )
        self._hashed = hashed  # pins the plasma blocks for the handle
        return self

    @property
    def total_tokens(self) -> int:
        """Corpus token total (reference SIFEmbedding.total_tokens).
        Computed on demand from the plasma count blocks — the headline fit
        path never pays a driver-side vocabulary pass for it."""
        if self.weights_ref is None:
            return 0
        return self.weights_ref.resolve().total

    def transform(self, ds, id_col: str = "conv_id", text_col: str = "tuple_text"):
        if self.weights_ref is None:
            raise RuntimeError("SIFEmbedder.transform called before fit")
        cfg = self.cfg
        emb = _embed_stage(ds, cfg, id_col, text_col, self.weights_ref)
        if not self.remove_pc_flag:
            return emb
        # PC is computed from this transform's own output (reference quirk:
        # per-call SVD, tuple_embedding_models.py:134-139), so the weighted
        # embeddings are needed twice → cache in the object store.
        emb = emb.materialize()
        pc = top_pc(emb, cfg.emb_dim)
        return remove_pc(emb, pc, cfg.emb_dim)
