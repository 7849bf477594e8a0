"""Engine configuration.

Mirrors the reference's hyperparameters (/root/reference/configurations.py:1-9)
plus Ray-Data-native engine knobs (shard sizes, actor-pool sizing, sample caps)
that have no reference equivalent because the reference is single-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# --- reference hyperparameters (configurations.py:1-9) ---
EMB_DIMENSION_SIZE = 300          # fastText word-vector dim (configurations.py:3)
AE_EMB_DIMENSION_SIZE = 150       # AutoEncoder bottleneck (configurations.py:5)
NUM_EPOCHS = 50                   # configurations.py:6
BATCH_SIZE = 256                  # configurations.py:7
RANDOM_SEED = 1234                # configurations.py:8
LEARNING_RATE = 1e-3              # configurations.py:9

# SIF defaults (tuple_embedding_models.py:83)
SIF_WEIGHTING_PARAM = 1e-3
SIF_MIN_FREQ = 0

# Top-K default (main.py:32)
DEFAULT_TOP_K = 50

# CTT synthetic-pair defaults (tuple_embedding_models.py:187-188)
SYNTH_TUPLES_PER_TUPLE = 5
POS_TO_NEG_RATIO = 1
MAX_PERTURBATION = 0.4


@dataclass
class EngineConfig:
    """Knobs for the distributed engine. Defaults target the 32-CPU sandbox;
    at cluster scale raise ``concurrency`` / shard counts proportionally."""

    # word-embedding dimension; the deterministic hash-embedding table replaces
    # the reference's 8 GB fastText binary (tuple_embedding_models.py:44)
    emb_dim: int = EMB_DIMENSION_SIZE
    ae_dim: int = AE_EMB_DIMENSION_SIZE
    seed: int = RANDOM_SEED

    # batch sizes for map_batches stages (rows). Query batches are small so
    # the stage yields ≥4× tasks per CPU even on modest inputs — each query
    # batch scans every index shard, so wall-time is bounded by the slowest
    # batch; 512×shard matmul tiles still saturate BLAS.
    embed_batch_size: int = 2048
    query_batch_size: int = 512
    score_batch_size: int = 1024

    # actor-pool sizes; None → let Ray autoscale tasks
    embed_concurrency: int | None = None
    query_concurrency: int | None = None

    # rows per pinned index shard (exact pairing); shard × query_batch matmul
    # tile must fit a worker heap: 65536 × 2048 × 4B ≈ 0.5 GiB sim tile max
    index_shard_rows: int = 65536

    # hash-partition bucket count for the bucketed key-grouped exchanges
    # (dedup, events, …; the flagship chain's exchanges sort on the raw
    # key instead). ≥4× total cores so stragglers rebalance.
    num_buckets: int = 128

    # driver-side training-sample cap (fit corpus at 10^12-turn scale cannot
    # be materialized; self-supervised fit needs a representative sample —
    # documented deviation from deep_blocker.py:57-58 which fits on everything)
    train_sample_cap: int = 100_000

    # training epochs (configurations.py:6); small corpora converge far sooner
    num_epochs: int = NUM_EPOCHS

    # pairwise-scoring knobs
    score_text_cap: int = 128          # cap chars per turn for O(nm) edit distance
    match_threshold: float = 0.60      # combined-score match cutoff

    # IVF knobs
    ivf_cells: int = 64
    ivf_nprobe: int = 8

    # broadcast-join threshold: sides smaller than this are ray.put-broadcast
    # instead of shuffled through canonicalize.exchange_join
    broadcast_rows_max: int = 2_000_000

    # byte cap for plasma-block-lookup broadcast sides (state/lookup): sides
    # above this fall back to exchange_join even if the row count fits — the
    # lookup index must fit a worker heap
    broadcast_bytes_max: int = 2 << 30

    # GPUs reserved per embed/inference actor (north_star "GPU actor pools");
    # None/0 = CPU-only (default — the sandbox has no GPU). When set, the
    # deep-embed forward/train stages request num_gpus so Ray schedules them
    # onto GPU nodes at cluster scale.
    num_gpus_per_actor: float | None = None

    extra: dict = field(default_factory=dict)


def gpu_kwargs(cfg: "EngineConfig") -> dict:
    """Extra map_batches resource kwargs for GPU-eligible stages (embedding
    transform, AE/CTT forward): ``{"num_gpus": ...}`` when
    cfg.num_gpus_per_actor is set, else {} — zero behavior change on CPU-only
    clusters. At cluster scale Ray schedules the stage onto GPU nodes."""
    if cfg.num_gpus_per_actor:
        return {"num_gpus": cfg.num_gpus_per_actor}
    return {}


def default_parallelism() -> int:
    """CPU count of the live Ray session, else the RAY_GRAFT_CPUS hint."""
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", 1)))
    except Exception:
        pass
    return int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def actor_pool_size(configured: int | tuple | None) -> int | tuple:
    """Actor-pool ``concurrency`` for callable-class map_batches stages (Ray
    requires an explicit value for classes). Default: autoscale between 1 and
    the session's CPU count, so pools shrink instead of starving other
    stages."""
    if configured is not None:
        return configured
    try:
        import ray

        if ray.is_initialized():
            n = int(ray.cluster_resources().get("CPU", default_parallelism()))
        else:
            n = default_parallelism()
    except Exception:
        n = default_parallelism()
    n = max(2, n)
    # start several actors immediately — autoscaling from 1 ramps too slowly
    # for short stages; idle actors release on downscale
    return (min(8, n), n)


def sized_block_target(
    n: int, factor: int = 2, min_rows_per_block: int = 256
) -> int:
    """Block count for ``n`` rows: factor × CPUs, but never below
    ``min_rows_per_block`` rows a block."""
    return min(default_parallelism() * factor, max(1, n // min_rows_per_block))


def parallel_blocks_sized(mat_ds, factor: int = 2, min_rows_per_block: int = 256):
    """Size-aware variant of ``parallel_blocks`` for MATERIALIZED inputs
    (count/num_blocks are metadata there): repartition toward
    factor × CPUs blocks, but never below ``min_rows_per_block`` rows each —
    at small input sizes splitting 500 rows into 64 blocks just multiplies
    per-task overhead across every downstream stage (BENCH r2: blocking_sif
    3.5 s → 5.1 s after an unconditional repartition seam appeared).
    Existing block structure is kept whenever it already meets the (capped)
    target, so the small-input path costs nothing."""
    target = sized_block_target(mat_ds.count(), factor, min_rows_per_block)
    if mat_ds.num_blocks() >= target:
        return mat_ds
    return mat_ds.repartition(target).materialize()


def parallel_blocks(ds, factor: int = 2):
    """Repartition a Dataset to ≥ factor × session CPUs blocks when it has
    fewer. Ray's map parallelism is per-block: a groupby or small read can
    collapse output into one block and serialize every downstream stage.
    Call at pipeline seams right before a materialize/heavy map."""
    target = default_parallelism() * factor
    try:
        nb = ds.num_blocks()
    except Exception:
        nb = None
    if nb is not None and nb >= target:
        return ds
    return ds.repartition(target)
