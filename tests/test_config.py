"""Block-sizing helpers: parallel_blocks / parallel_blocks_sized.

parallel_blocks_sized is the small-input guard for materialized datasets:
splitting a few hundred rows into CPU×factor blocks multiplies per-task
overhead across every downstream stage (BENCH r2: blocking_sif 3.5 s → 5.1 s
after an unconditional repartition seam), while large inputs must still fan
out to the session's parallelism.
"""

import pandas as pd
import ray.data as rd

from deepblocker_ray.config import (
    default_parallelism,
    parallel_blocks,
    parallel_blocks_sized,
)


def _ds(n_rows: int, n_blocks: int):
    df = pd.DataFrame({"x": range(n_rows)})
    return rd.from_pandas(df).repartition(n_blocks).materialize()


def test_small_input_keeps_blocks(ray_session):
    # 500 rows // 256 → target ≤ 1 block: existing structure untouched,
    # no repartition seam added
    ds = _ds(500, 2)
    out = parallel_blocks_sized(ds)
    assert out is ds


def test_large_input_fans_out(ray_session):
    n = default_parallelism()
    rows = 256 * n * 4  # plenty of rows per block at full fan-out
    ds = _ds(rows, 1)
    out = parallel_blocks_sized(ds, factor=2)
    assert out.num_blocks() == 2 * n
    # row content preserved
    assert out.count() == rows


def test_row_cap_limits_target(ray_session):
    # 1000 rows can justify at most 1000//256 = 3 blocks regardless of CPUs
    ds = _ds(1000, 1)
    out = parallel_blocks_sized(ds, factor=64)
    assert out.num_blocks() == 3


def test_already_parallel_passthrough(ray_session):
    n = default_parallelism()
    rows = 256 * n * 4
    ds = _ds(rows, 4 * n)  # already ≥ target (2×CPUs)
    out = parallel_blocks_sized(ds, factor=2)
    assert out is ds


def test_lazy_variant_still_repartitions(ray_session):
    # the lazy helper keeps its unconditional behavior (used where block
    # counts are known-small, e.g. single-file parquet reads)
    ds = rd.from_pandas(pd.DataFrame({"x": range(64)}))
    out = parallel_blocks(ds, factor=1).materialize()
    assert out.num_blocks() >= default_parallelism()
