"""Column profiling — the data-quality scan every ingest pipeline runs
first: per column, row/null counts, EXACT distinct cardinality, and
length extremes. No reference counterpart (the reference assumes clean
two-table CSVs); at 100 TB this is the "what is actually in this corpus"
operator that decides schemas, partitioning keys and dedup strategy.

Scale shape — one streaming pass over the projected columns, two tiny
exchanges:

1. count/null/length partials: each batch collapses map-side to ONE row
   per profiled column (count kernels + utf8_length min/max), so the
   final combine sees O(columns × blocks) rows — a ``repartition(1)``
   over a few-KB stream, not a shuffle.
2. exact distinct: each batch emits its DISTINCT (column, md5-lower64
   value-hash) pairs — already deduplicated map-side, so the exchange
   carries at most the per-batch distinct set, bucketed on the hash.
   Per bucket the pairs are unique-counted per column (buckets partition
   the hash space, so per-bucket counts are disjoint and exact), leaving
   O(columns × buckets) rows for the same tiny final combine. Hash
   equality stands in for value equality with the repo-wide md5-lower64
   caveat (~n²/2⁶⁴).

Both partial streams share one schema and one final combine, so the whole
profile is: map → (union) → bucket-exchange of skinny ints → combine.
Length semantics are CODE POINTS over ``coalesce(col, '')`` (Arrow
``utf8_length`` == DuckDB ``length``), so the SQL twin holds for
non-ASCII and NULL alike.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..state.lookup import id_hash


def column_profile(ds, cfg: EngineConfig | None = None, *, columns: list[str]):
    """Profile string ``columns`` of ``ds``: emits one row per column —
    (column, n_rows, n_nulls, n_distinct, min_len, max_len) where
    n_distinct counts distinct NON-NULL values and min/max_len are over
    ``coalesce(col, '')`` in code points."""
    from .dedup import hash64_strs

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if not columns:
        raise ValueError("columns must be non-empty")

    _MINSENT = np.iinfo(np.int64).max
    _MAXSENT = np.int64(-1)

    def stats_partial(t: pa.Table) -> pd.DataFrame:
        if len(t) == 0:
            return _empty_profile()
        rows = []
        for c in columns:
            col = pc.cast(t.column(c), pa.string())
            lens = pc.utf8_length(pc.fill_null(col, ""))
            rows.append(
                (c, len(t), col.null_count,
                 pc.min(lens).as_py(), pc.max(lens).as_py())
            )
        cols = list(zip(*rows))
        # distinct rows use the min/max sentinels; stats rows carry 0
        # distinct — one shared combine folds both streams
        return pd.DataFrame(
            {
                "column": np.asarray(cols[0], object),
                "n_rows": np.asarray(cols[1], np.int64),
                "n_nulls": np.asarray(cols[2], np.int64),
                "n_distinct": np.zeros(len(columns), np.int64),
                "min_len": np.asarray(cols[3], np.int64),
                "max_len": np.asarray(cols[4], np.int64),
            }
        )

    def distinct_partial(t: pa.Table) -> pa.Table:
        out_c, out_h = [], []
        for ci, c in enumerate(columns):
            col = pc.cast(t.column(c), pa.string())
            vals = col.drop_null().to_numpy(zero_copy_only=False)
            if len(vals) == 0:
                continue
            h = np.unique(hash64_strs(pd.unique(vals.astype(object))))
            out_c.append(np.full(len(h), ci, np.int64))
            out_h.append(h)
        if not out_c:
            ci = np.empty(0, np.int64)
            h = np.empty(0, np.uint64)
        else:
            ci = np.concatenate(out_c)
            h = np.concatenate(out_h)
        return pa.table(
            {
                "_col": pa.array(ci),
                "_h": pa.array(h.view(np.int64)),
                "_bucket": pa.array(
                    (h % np.uint64(nb)).astype(np.int32)
                ),
            }
        )

    def distinct_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return _empty_profile()
        pairs = df[["_col", "_h"]].drop_duplicates()
        g = pairs.groupby("_col", sort=False).size()
        names = np.asarray(columns, object)[g.index.to_numpy(np.int64)]
        n = len(g)
        return pd.DataFrame(
            {
                "column": names,
                "n_rows": np.zeros(n, np.int64),
                "n_nulls": np.zeros(n, np.int64),
                "n_distinct": g.to_numpy(np.int64),
                "min_len": np.full(n, _MINSENT, np.int64),
                "max_len": np.full(n, _MAXSENT, np.int64),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # reindex over the requested columns: an EMPTY input still emits
        # one zero row per column (the documented contract and what the
        # SQL twin's per-column aggregate branches return), with NULL
        # length extremes (min/max over nothing)
        g = df.groupby("column", sort=True).agg(
            n_rows=("n_rows", "sum"),
            n_nulls=("n_nulls", "sum"),
            n_distinct=("n_distinct", "sum"),
            min_len=("min_len", "min"),
            max_len=("max_len", "max"),
        ).reindex(sorted(columns), fill_value=0)
        out = g.reset_index().rename(columns={"index": "column"})
        for c in ("n_rows", "n_nulls", "n_distinct"):
            out[c] = out[c].astype(np.int64)
        empty_col = out["n_rows"].to_numpy() == 0
        out["min_len"] = out["min_len"].astype("Int64")
        out["max_len"] = out["max_len"].astype("Int64")
        out.loc[empty_col, ["min_len", "max_len"]] = pd.NA
        return out

    proj = ds.select_columns(columns)
    stats = proj.map_batches(stats_partial, batch_format="pyarrow")
    distinct = (
        proj.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(distinct_bucket, batch_format="pandas")
    )
    # constant zero seed: guarantees the combine runs (Ray elides empty
    # blocks, so a fully-empty input would otherwise emit nothing) and
    # keeps the one-row-per-column contract; zeros/sentinels are identity
    # elements for every aggregate
    import ray

    seed = ray.data.from_pandas(
        pd.DataFrame(
            {
                "column": np.asarray(sorted(columns), object),
                "n_rows": np.zeros(len(columns), np.int64),
                "n_nulls": np.zeros(len(columns), np.int64),
                "n_distinct": np.zeros(len(columns), np.int64),
                "min_len": np.full(len(columns), _MINSENT, np.int64),
                "max_len": np.full(len(columns), _MAXSENT, np.int64),
            }
        )
    )
    return (
        stats.union(distinct, seed)
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def _empty_profile() -> pd.DataFrame:
    cols = {"column": pd.Series(dtype=object)}
    for c in ("n_rows", "n_nulls", "n_distinct", "min_len", "max_len"):
        cols[c] = pd.Series(dtype=np.int64)
    return pd.DataFrame(cols)


def table_fingerprint(ds, cfg=None, *, columns: list[str]):
    """Order-insensitive dataset fingerprint for regression checks /
    snapshot diffing: per column, (n_rows, n_nulls, hash_sum) where
    hash_sum = Σ md5-lower64(str(value)) over non-null values, mod 2⁶³ —
    the same md5 convention as every twinnable identity in this repo, so
    two runs (or two engines) agree iff the multiset of values agrees.
    Values hash via their canonical STRING form; use it on int/string
    columns (float VARCHAR forms are engine-dependent — cents first).

    Scale shape: pure map-side — each batch reduces to one row per
    column (hash sums accumulate as exact Python ints, no overflow);
    one tiny combine."""
    import pandas as pd

    from ..config import EngineConfig
    from .dedup import hash64_strs

    cfg = cfg or EngineConfig()
    if not columns:
        raise ValueError("columns must be non-empty")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in columns:
            s = df[c]
            nn = s.isna()
            vals = s[~nn]
            hs = (
                int(hash64_strs(vals.astype(str)).astype(object).sum())
                if len(vals)
                else 0
            )
            rows.append((c, len(s), int(nn.sum()), hs))
        return pd.DataFrame(
            rows, columns=["column", "n_rows", "n_nulls", "hsum"]
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("column", sort=True)
        out = pd.DataFrame(
            {
                "column": list(g.groups),
                "n_rows": g["n_rows"].sum().to_numpy(np.int64),
                "n_nulls": g["n_nulls"].sum().to_numpy(np.int64),
                "hash_sum": np.array(
                    [
                        int(v) % (2**63)
                        for v in g["hsum"].agg(
                            lambda s: sum(int(x) for x in s)
                        )
                    ],
                    np.int64,
                ),
            }
        )
        return out

    return (
        ds.map_batches(partial, batch_format="pandas")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def fd_violations(ds, cfg=None, *, lhs: str, rhs: str):
    """Functional-dependency audit (lhs → rhs): every lhs value mapped
    to MORE than one distinct non-null rhs value, with its distinct-rhs
    count — the schema-inference / normalization check. Output
    (``lhs``:int64, n_distinct_rhs:int64), violators only.

    Scale shape: per-batch DISTINCT (lhs, rhs) pairs (the map-side
    combiner that bounds the exchange at |distinct pairs|, not rows) →
    ONE hash(lhs) exchange → per-bucket exact distinct count + filter."""
    import pandas as pd

    from ..config import EngineConfig
    from .events import _user_bucket

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[lhs, rhs]].dropna().drop_duplicates()
        d = pd.DataFrame(
            {lhs: d[lhs].to_numpy(np.int64), rhs: d[rhs].astype(str)}
        )
        d["_bucket"] = _user_bucket(d[lhs].to_numpy(np.int64), nb)
        return d

    def count(g: pd.DataFrame) -> pd.DataFrame:
        c = (
            g.drop_duplicates([lhs, rhs])
            .groupby(lhs, sort=False)[rhs]
            .size()
        )
        c = c[c > 1]
        return pd.DataFrame(
            {
                lhs: c.index.to_numpy(np.int64),
                "n_distinct_rhs": c.to_numpy(np.int64),
            }
        )

    return (
        ds.map_batches(pairs, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(count, batch_format="pandas")
    )


def count_encode(
    ds,
    cfg=None,
    *,
    id_col: str,
    value_col: str,
):
    """Frequency (count) encoding — the feature-engineering staple: attach
    each row's GLOBAL value count as a feature column. Output
    (id, value, value_count) ≡ SQL count(*) OVER (PARTITION BY value).

    Scale shape: per-batch (value, count) partials → ONE bucketed exchange
    (O(distinct values), never rows) → the combined count table attaches
    back to the streaming rows via the size-aware broadcast join (hash join
    past the cap). The row stream shuffles ONLY on the fallback path."""
    from ..config import EngineConfig
    from .relational import broadcast_join

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df[value_col].value_counts()
        return pd.DataFrame(
            {
                "_v": g.index.values,
                "_c": g.to_numpy(np.int64),
                "_bucket": (
                    id_hash(g.index.values) % np.uint64(nb)
                ).astype("int32"),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("_v", sort=False)["_c"].sum().reset_index()
        return pd.DataFrame(
            {
                value_col: agg["_v"].values,
                "value_count": agg["_c"].to_numpy(np.int64),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )
    return broadcast_join(
        ds.select_columns([id_col, value_col]),
        counts,
        big_key=value_col,
        small_key=value_col,
        payload_cols=["value_count"],
        cfg=cfg,
    )


def benford_audit(
    ds,
    cfg: EngineConfig | None = None,
    *,
    value_col: str,
):
    """Benford first-significant-digit audit over a money column — the
    fabricated-data / unit-mixup screen: (digit 1-9, n:int64, frac:double)
    where frac = n/total is ONE IEEE division of exact ints. Values are
    integer cents (round(value·100)); non-positive cents are excluded
    (no leading digit). The expected Benford mass log10(1+1/d) is left to
    the caller — libm log10 is not bit-pinned across engines, counts and
    fractions are.

    Scale shape: the leading digit comes from an integer divide-by-10 loop
    (≤ 18 vectorized passes, no float log10, no string formatting); each
    batch collapses to ≤ 9 (digit, count) partials, one tiny combine."""
    import numpy as np

    cfg = cfg or EngineConfig()

    def partial(t: pa.Table) -> pd.DataFrame:
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64) * 100.0
        ).astype(np.int64)
        cents = cents[cents > 0]
        while (cents >= 10).any():
            big = cents >= 10
            cents[big] //= 10
        cnt = np.bincount(cents, minlength=10)[1:10]
        nz = np.nonzero(cnt)[0]
        return pd.DataFrame(
            {"digit": (nz + 1).astype(np.int64), "n": cnt[nz].astype(np.int64)}
        )

    def combine(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("digit", as_index=False)["n"].sum()
        total = int(g["n"].sum())
        return pa.table(
            {
                "digit": pa.array(g["digit"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
                "frac": pa.array(
                    g["n"].to_numpy(np.float64) / float(total)
                ),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def column_overlap(ds_a, ds_b, cfg=None, *, cols_a: list[str],
                   cols_b: list[str]):
    """Instance-based schema matching: for EVERY column pair (a ∈ cols_a,
    b ∈ cols_b), the exact distinct-value overlap as integer sufficient
    statistics — (col_a, col_b, n_a, n_b, n_both) with n_both =
    |distinct(a) ∩ distinct(b)| over stringified non-null values, so
    Jaccard/containment are one division away for the consumer. The
    standard first pass when linking tables with unknown column
    correspondence (which supplier column IS the customer's phone?).

    Scale shape: per batch each side emits map-side-DEDUPED (value, col)
    rows — bounded by distinct values, not rows; ONE hash(value) exchange
    co-locates every column's claim on a value, where a per-bucket
    presence-matrix pivot emits ≤ |cols_a|·|cols_b| pair partials plus
    per-column distinct partials; a tiny second exchange (pairs bucketed
    by hash of the pair name) folds them. Values never ride an exchange
    twice and the final state is O(|cols_a|·|cols_b|)."""
    import ray.data as rd

    from ..config import EngineConfig
    from .dedup import hash64_strs

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if not cols_a or not cols_b:
        raise ValueError("cols_a and cols_b must be non-empty")

    def emit(columns: list[str], side: int):
        def f(t: pa.Table) -> pd.DataFrame:
            vals, cols = [], []
            for c in columns:
                col = pc.drop_null(pc.cast(t.column(c), pa.string()))
                u = pc.unique(col)
                vals.append(np.asarray(u, object))
                cols.append(np.full(len(u), c, object))
            v = np.concatenate(vals) if vals else np.array([], object)
            cf = np.concatenate(cols) if cols else np.array([], object)
            codes, uniq = pd.factorize(pd.Series(v), sort=False)
            h = hash64_strs(uniq)[codes] if len(uniq) else np.array(
                [], np.uint64
            )
            return pd.DataFrame(
                {
                    "v": v,
                    "col": cf,
                    "side": np.full(len(v), side, np.int8),
                    "_bucket": (h % np.uint64(nb)).astype(np.int32),
                }
            )

        return f

    def pair_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["v", "col", "side"])
        out_a, out_b, out_n = [], [], []
        # per-column distinct counts (side-qualified sentinel pairs)
        for (side, col), n in g.groupby(["side", "col"], sort=False)[
            "v"
        ].nunique().items():
            out_a.append(col if side == 0 else "")
            out_b.append(col if side == 1 else "")
            out_n.append(int(n))
        # presence matrix: value → (cols_a present, cols_b present)
        ga = g[g["side"] == 0]
        gb = g[g["side"] == 1]
        if len(ga) and len(gb):
            m = ga.merge(gb, on="v", suffixes=("_a", "_b"))
            for (ca, cb), n in m.groupby(
                ["col_a", "col_b"], sort=False
            ).size().items():
                out_a.append(ca)
                out_b.append(cb)
                out_n.append(int(n))
        key = pd.Series(
            [f"{a}|{b}" for a, b in zip(out_a, out_b)], dtype=object
        )
        h = hash64_strs(key.to_numpy(object)) if len(key) else np.array(
            [], np.uint64
        )
        return pd.DataFrame(
            {
                "col_a": np.asarray(out_a, object),
                "col_b": np.asarray(out_b, object),
                "n": np.asarray(out_n, np.int64),
                "_pb": (h % np.uint64(nb)).astype(np.int32),
            }
        )

    def combine(g: pd.DataFrame) -> pa.Table:
        s = g.groupby(["col_a", "col_b"], sort=False)["n"].sum()
        return pa.table(
            {
                "col_a": pa.array(
                    [k[0] for k in s.index], pa.string()
                ),
                "col_b": pa.array(
                    [k[1] for k in s.index], pa.string()
                ),
                "n": pa.array(s.to_numpy(np.int64)),
            }
        )

    tagged = ds_a.map_batches(
        emit(cols_a, 0), batch_format="pyarrow"
    ).union(ds_b.map_batches(emit(cols_b, 1), batch_format="pyarrow"))
    folded = (
        tagged.groupby("_bucket")
        .map_groups(pair_partial, batch_format="pandas")
        .groupby("_pb")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()
    )
    # assemble the dense |cols_a|·|cols_b| matrix driver-side (it IS the
    # output — O(columns²), independent of data size)
    na = {
        r["col_a"]: r["n"]
        for _, r in folded[folded["col_b"] == ""].iterrows()
    }
    nb_ = {
        r["col_b"]: r["n"]
        for _, r in folded[folded["col_a"] == ""].iterrows()
    }
    both = {
        (r["col_a"], r["col_b"]): r["n"]
        for _, r in folded.iterrows()
        if r["col_a"] != "" and r["col_b"] != ""
    }
    rows = [
        (
            a,
            b,
            int(na.get(a, 0)),
            int(nb_.get(b, 0)),
            int(both.get((a, b), 0)),
        )
        for a in cols_a
        for b in cols_b
    ]
    return rd.from_arrow(
        pa.table(
            {
                "col_a": pa.array([r[0] for r in rows], pa.string()),
                "col_b": pa.array([r[1] for r in rows], pa.string()),
                "n_a": pa.array([r[2] for r in rows], pa.int64()),
                "n_b": pa.array([r[3] for r in rows], pa.int64()),
                "n_both": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
    )


def fd_discovery(ds, cfg=None, *, columns: list[str]):
    """Functional-dependency DISCOVERY over every ordered column pair —
    the profiling sweep that ranks candidate keys/dependencies before
    ``fd_violations`` audits a chosen one: for each (lhs, rhs) pair of
    ``columns``, (lhs, rhs, n_lhs:int64 = distinct lhs values,
    n_violating:int64 = lhs values mapping to > 1 distinct rhs), so
    lhs → rhs holds exactly iff n_violating = 0. Nulls participate as
    ordinary values (stringified, the fd_violations convention).

    Scale shape: per batch each ordered pair emits map-side-DEDUPED
    (pair, lhs_val, rhs_val) rows — bounded by distinct pairs, not rows;
    ONE hash(pair|lhs_val) exchange counts distinct rhs per lhs value and
    pre-folds to ≤ |pairs| partial rows per bucket; the O(|pairs|²)
    result assembles driver-side (it IS the output)."""
    import ray.data as rd

    from ..config import EngineConfig
    from .dedup import hash64_strs

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if len(columns) < 2:
        raise ValueError("need at least two columns")

    pairs = [
        (a, b) for a in columns for b in columns if a != b
    ]

    def emit(t: pa.Table) -> pd.DataFrame:
        cols = {
            c: pc.fill_null(pc.cast(t.column(c), pa.string()), "\x00null")
            for c in columns
        }
        frames = []
        for pi, (a, b) in enumerate(pairs):
            df = pd.DataFrame(
                {
                    "lhs": np.asarray(cols[a], object),
                    "rhs": np.asarray(cols[b], object),
                }
            ).drop_duplicates()
            df["pair"] = np.int64(pi)
            frames.append(df)
        out = pd.concat(frames, ignore_index=True)
        key = out["pair"].astype(str) + "|" + out["lhs"].astype(str)
        codes, uniq = pd.factorize(key, sort=False)
        h = hash64_strs(uniq)[codes]
        out["_bucket"] = (h % np.uint64(nb)).astype(np.int32)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["pair", "lhs", "rhs"])
        per_lhs = d.groupby(["pair", "lhs"], sort=False)["rhs"].nunique()
        agg = per_lhs.groupby("pair").agg(["size", lambda s: int((s > 1).sum())])
        agg.columns = ["n_lhs", "n_violating"]
        return agg.reset_index()

    folded = (
        ds.map_batches(emit, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
    )
    sums = folded.groupby("pair")[["n_lhs", "n_violating"]].sum()
    rows = []
    for pi, (a, b) in enumerate(pairs):
        r = sums.loc[pi] if pi in sums.index else None
        rows.append(
            (a, b,
             int(r["n_lhs"]) if r is not None else 0,
             int(r["n_violating"]) if r is not None else 0)
        )
    return rd.from_arrow(
        pa.table(
            {
                "lhs": pa.array([r[0] for r in rows], pa.string()),
                "rhs": pa.array([r[1] for r in rows], pa.string()),
                "n_lhs": pa.array([r[2] for r in rows], pa.int64()),
                "n_violating": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    )


def column_entropy(ds, cfg=None, *, columns: list[str]):
    """Per-column value-concentration audit in exact INTEGER bits — the
    uniformity/skew profile next to column_profile's counts: for each
    column, over its non-null stringified values,

        bits = Σ_values c(v) · (⌊log₂ N⌋ − ⌊log₂ c(v)⌋)

    (N = non-null rows of that column) — the surprisal trick applied to
    value frequencies: ~N·log₂(distinct) for uniform columns, → 0 as one
    value dominates. Emits (column, n:int64, n_distinct:int64,
    bits:int64).

    Scale shape: per-batch (column, value)→count partials (bounded by
    distinct values), ONE hash(column|value) exchange so each value's
    global count folds once, per-bucket ≤ columns partial rows, tiny
    driver assembly (O(columns) — it IS the output)."""
    import ray.data as rd

    from ..config import EngineConfig
    from .dedup import hash64_strs

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if not columns:
        raise ValueError("columns must be non-empty")

    def ilog2(c: np.ndarray) -> np.ndarray:
        return (np.frexp(c.astype(np.float64))[1] - 1).astype(np.int64)

    def partial(t: pa.Table) -> pd.DataFrame:
        frames = []
        for c in columns:
            col = pc.drop_null(pc.cast(t.column(c), pa.string()))
            vc = pd.Series(np.asarray(col, object)).value_counts()
            frames.append(
                pd.DataFrame(
                    {
                        "col": np.full(len(vc), c, object),
                        "v": vc.index.to_numpy(object),
                        "cnt": vc.to_numpy(np.int64),
                    }
                )
            )
        out = pd.concat(frames, ignore_index=True)
        key = out["col"].astype(str) + "|" + out["v"].astype(str)
        codes, uniq = pd.factorize(key, sort=False)
        h = hash64_strs(uniq)[codes] if len(uniq) else np.array(
            [], np.uint64
        )
        out["_bucket"] = (h % np.uint64(nb)).astype(np.int32)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["col", "v"], sort=False)["cnt"].sum().reset_index()
        cnt = c["cnt"].to_numpy(np.int64)
        agg = (
            pd.DataFrame(
                {
                    "col": c["col"].to_numpy(object),
                    "n": cnt,
                    "d": np.ones(len(c), np.int64),
                    # Σ c·⌊log₂ c⌋ partial; the N term joins at assembly
                    "clg": cnt * ilog2(cnt),
                }
            )
            .groupby("col", sort=False)
            .sum()
            .reset_index()
        )
        return agg

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
    )
    sums = folded.groupby("col")[["n", "d", "clg"]].sum()
    rows = []
    for c in columns:
        if c in sums.index:
            n = int(sums.loc[c, "n"])
            d = int(sums.loc[c, "d"])
            lg_n = int(ilog2(np.array([max(n, 1)], np.int64))[0])
            bits = n * lg_n - int(sums.loc[c, "clg"])
        else:
            n, d, bits = 0, 0, 0
        rows.append((c, n, d, bits))
    return rd.from_arrow(
        pa.table(
            {
                "column": pa.array([r[0] for r in rows], pa.string()),
                "n": pa.array([r[1] for r in rows], pa.int64()),
                "n_distinct": pa.array([r[2] for r in rows], pa.int64()),
                "bits": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    )


def _qi_table(t: pa.Table, columns: list[str]) -> pa.Table:
    """The quasi-identifier columns of a batch as strings named _q0, _q1, …
    Classes are grouped with Arrow: null is its own value, and values that
    agree up to a ``"\x00"`` stay apart (pandas grouping merges them)."""
    return pa.table(
        {
            f"_q{i}": pc.cast(t.column(c), pa.string())
            for i, c in enumerate(columns)
        }
    )


def _qi_bucket(t: pa.Table, qnames: list[str], nb: int) -> pa.Array:
    """Exchange bucket of each row's quasi-identifier tuple: md5 of the
    tuple's columns joined by ``"\x1f"`` (nulls as ``"\x00null"``). This
    only routes rows — equal tuples share a bucket; classes are told apart
    by the Arrow group_by in the fold, never by this key."""
    from .dedup import hash64_strs

    key = pc.binary_join_element_wise(
        *[pc.fill_null(t.column(q), "\x00null") for q in qnames], "\x1f"
    )
    return pa.array(
        (hash64_strs(key.to_pylist()) % np.uint64(nb)).astype(np.int32)
    )


def k_anonymity(ds, cfg=None, *, columns: list[str], k: int = 5):
    """k-anonymity audit over a quasi-identifier column set — the
    privacy screen for training-data release: rows whose full
    quasi-identifier tuple is shared by fewer than ``k`` rows are
    re-identifiable. ONE summary row:
    (n_rows, n_classes = distinct tuples, n_small_classes = classes
    with < k rows, n_risky_rows = rows in them), all int64. A null is
    one more value of its column.

    Scale shape: per-batch tuple-count partials (bounded by distinct
    tuples), ONE hash(tuple) exchange so each class's global size folds
    once, per-bucket 4-number partials, O(buckets) driver assembly."""
    import ray.data as rd

    from ..config import EngineConfig

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if not columns:
        raise ValueError("columns must be non-empty")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")

    qnames = [f"_q{i}" for i in range(len(columns))]

    def partial(t: pa.Table) -> pa.Table:
        counts = _qi_table(t, columns).group_by(
            qnames, use_threads=False
        ).aggregate([([], "count_all")])
        return counts.append_column(
            "_bucket", _qi_bucket(counts, qnames, nb)
        )

    def fold(g: pa.Table) -> pa.Table:
        c = (
            g.group_by(qnames, use_threads=False)
            .aggregate([("count_all", "sum")])
            .column("count_all_sum")
            .to_numpy()
        )
        small = c < k
        return pa.table(
            {
                "n_rows": [int(c.sum())],
                "n_classes": [len(c)],
                "n_small_classes": [int(small.sum())],
                "n_risky_rows": [int(c[small].sum())],
            }
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pyarrow")
        .to_pandas()
    )
    sums = folded.sum() if len(folded) else None
    return rd.from_arrow(
        pa.table(
            {
                "n_rows": pa.array(
                    [int(sums["n_rows"]) if sums is not None else 0],
                    pa.int64(),
                ),
                "n_classes": pa.array(
                    [int(sums["n_classes"]) if sums is not None else 0],
                    pa.int64(),
                ),
                "n_small_classes": pa.array(
                    [int(sums["n_small_classes"])
                     if sums is not None else 0],
                    pa.int64(),
                ),
                "n_risky_rows": pa.array(
                    [int(sums["n_risky_rows"])
                     if sums is not None else 0],
                    pa.int64(),
                ),
            }
        )
    )


def l_diversity(ds, cfg=None, *, qi_columns: list[str],
                sensitive_col: str, l: int = 2):
    """l-diversity audit — k-anonymity's stronger sibling: an
    equivalence class (distinct quasi-identifier tuple) is risky when
    its SENSITIVE attribute takes fewer than ``l`` distinct values
    (every member leaks the sensitive value even when the class is
    large). ONE summary row: (n_classes, n_low_classes, n_risky_rows),
    all int64. A null is one more value of its column.

    Scale shape: map-side (tuple, sensitive value) row-count partials,
    ONE hash(tuple) exchange counting both distinct sensitive values and
    rows per class, per-bucket 3-number partials."""
    import ray.data as rd

    from ..config import EngineConfig

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if not qi_columns:
        raise ValueError("qi_columns must be non-empty")
    if l < 2:
        raise ValueError(f"l must be >= 2, got {l}")

    qnames = [f"_q{i}" for i in range(len(qi_columns))]
    names = qnames + ["s"]

    def partial(t: pa.Table) -> pa.Table:
        # rows per (class, sensitive value): both per-class counts fold
        # from these
        counts = (
            _qi_table(t, qi_columns)
            .append_column("s", pc.cast(t.column(sensitive_col), pa.string()))
            .group_by(names, use_threads=False)
            .aggregate([([], "count_all")])
        )
        return counts.append_column(
            "_bucket", _qi_bucket(counts, qnames, nb)
        )

    def fold(g: pa.Table) -> pa.Table:
        per_class = (
            g.group_by(names, use_threads=False)
            .aggregate([("count_all", "sum")])
            .group_by(qnames, use_threads=False)
            .aggregate([([], "count_all"), ("count_all_sum", "sum")])
        )
        ns = per_class.column("count_all").to_numpy()
        cnt = per_class.column("count_all_sum_sum").to_numpy()
        low = ns < l
        return pa.table(
            {
                "n_classes": [len(ns)],
                "n_low_classes": [int(low.sum())],
                "n_risky_rows": [int(cnt[low].sum())],
            }
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pyarrow")
        .to_pandas()
    )
    s = folded.sum() if len(folded) else None
    return rd.from_arrow(
        pa.table(
            {
                "n_classes": pa.array(
                    [int(s["n_classes"]) if s is not None else 0],
                    pa.int64(),
                ),
                "n_low_classes": pa.array(
                    [int(s["n_low_classes"]) if s is not None else 0],
                    pa.int64(),
                ),
                "n_risky_rows": pa.array(
                    [int(s["n_risky_rows"]) if s is not None else 0],
                    pa.int64(),
                ),
            }
        )
    )


def sequence_gap_audit(ds, cfg=None, *, group_col: str = "l_orderkey",
                       seq_col: str = "l_linenumber"):
    """Per-group sequence-integrity audit — detail lines should number
    1..n with no gaps or duplicates (the classic ERP invariant): ONE
    summary row (n_groups:int64, n_violating:int64, n_rows:int64) where
    a clean group has rows = distinct = max(seq). Summary form (not a
    violation list) so a fully-clean corpus still emits a stable row.

    Scale shape: map-side DISTINCT (group, seq) rows plus per-group
    count markers ride ONE hash(group) exchange; per-bucket 3-number
    partials fold driver-side."""
    import ray.data as rd

    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(t: pa.Table) -> pd.DataFrame:
        g = np.asarray(t.column(group_col), np.int64)
        s = np.asarray(t.column(seq_col), np.int64)
        df = pd.DataFrame({"g": g, "s": s})
        dist = df.drop_duplicates()
        cnt = df.groupby("g", sort=False).size().rename("n").reset_index()
        dist = dist.assign(n=np.zeros(len(dist), np.int64), kind=0)
        cnt = cnt.assign(s=np.zeros(len(cnt), np.int64), kind=1)
        out = pd.concat(
            [dist[["g", "s", "n", "kind"]], cnt[["g", "s", "n", "kind"]]],
            ignore_index=True,
        )
        out["_bucket"] = bucket_of(out["g"], nb)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        rows = g[g["kind"] == 1].groupby("g", sort=False)["n"].sum()
        d = g[g["kind"] == 0].drop_duplicates(["g", "s"])
        stats = d.groupby("g", sort=False)["s"].agg(["size", "max"])
        m = stats.join(rows, how="inner")
        bad = (m["n"] != m["size"]) | (m["n"] != m["max"])
        return pd.DataFrame(
            {
                "n_groups": [int(len(m))],
                "n_violating": [int(bad.sum())],
                "n_rows": [int(m["n"].sum())],
            }
        )

    parts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
    )
    s = parts.sum() if len(parts) else None
    return rd.from_arrow(
        pa.table(
            {
                "n_groups": pa.array(
                    [int(s["n_groups"]) if s is not None else 0],
                    pa.int64(),
                ),
                "n_violating": pa.array(
                    [int(s["n_violating"]) if s is not None else 0],
                    pa.int64(),
                ),
                "n_rows": pa.array(
                    [int(s["n_rows"]) if s is not None else 0],
                    pa.int64(),
                ),
            }
        )
    )


def embedding_audit(ds, cfg=None, *, list_col: str = "embedding",
                    quant: int = 10_000):
    """Vector-table health in ONE row — the pre-flight check before any
    ANN/blocking run: (n_vecs, n_zero = all-zero vectors after 1e4
    quantization, min_norm2q, max_norm2q) where norm2q = Σ round(x·q)²
    per vector (the dim_stats integer-quantization convention, exact in
    int64 for unit-scale embeddings).

    Scale shape: pure map-side partials (4 numbers per batch), folded
    driver-side."""
    import ray.data as rd

    from ..config import EngineConfig

    cfg = cfg or EngineConfig()

    def partial(t: pa.Table) -> pd.DataFrame:
        col = t.column(list_col)
        arr = col.combine_chunks()
        n = len(t)
        # offsets-based per-vector sums: correct for RAGGED lists (the
        # very defect this audit exists to catch) and NULL rows (which
        # the SQL twin scores as NULL — counted in n_vecs, excluded
        # from n_zero/min/max)
        if isinstance(arr, pa.FixedSizeListArray):
            sz = arr.type.list_size
            offs = (
                np.arange(n + 1, dtype=np.int64) + arr.offset
            ) * sz
        else:
            offs = np.asarray(arr.offsets, np.int64)
        valid = np.asarray(
            arr.is_valid(), bool
        ) if arr.null_count else np.ones(n, bool)
        flat = np.asarray(arr.values, np.float64) if len(arr.values) \
            else np.zeros(0, np.float64)
        q = np.rint(flat * quant).astype(np.int64)
        sq = q * q
        csum = np.concatenate(([0], np.cumsum(sq)))
        norm2 = csum[offs[1:]] - csum[offs[:-1]]
        norm2 = norm2[valid]
        nv = len(norm2)
        return pd.DataFrame(
            {
                "n": [n],
                "nz": [int((norm2 == 0).sum())],
                "mn": [int(norm2.min()) if nv else 0],
                "mx": [int(norm2.max()) if nv else 0],
                "has": [int(nv > 0)],
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0 or parts["n"].sum() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "n_vecs": pa.array([0], pa.int64()),
                    "n_zero": pa.array([0], pa.int64()),
                    "min_norm2q": pa.array([0], pa.int64()),
                    "max_norm2q": pa.array([0], pa.int64()),
                }
            )
        )
    nz_rows = parts[parts["has"] > 0]
    any_valid = len(nz_rows) > 0
    return rd.from_arrow(
        pa.table(
            {
                "n_vecs": pa.array([int(parts["n"].sum())], pa.int64()),
                "n_zero": pa.array([int(parts["nz"].sum())], pa.int64()),
                "min_norm2q": pa.array(
                    [int(nz_rows["mn"].min()) if any_valid else 0],
                    pa.int64(),
                ),
                "max_norm2q": pa.array(
                    [int(nz_rows["mx"].max()) if any_valid else 0],
                    pa.int64(),
                ),
            }
        )
    )
