"""Relational composition operators: broadcast hash join + a chained-join
rollup pipeline over the TPC-H-ish driver tables.

The reference's only join surface is the candidate×golden evaluation join
(blocking_utils.py:19-33); a general engine additionally needs the
dimension-join shape every large-scale pipeline hits: a huge fact stream
joined against small dimension tables. The Ray-native design:

- ``broadcast_join``: the small side is collected ONCE, ``ray.put`` into the
  object store, and every map task reads it zero-copy — the fact stream
  never shuffles. Guarded by ``EngineConfig.broadcast_rows_max``: a small
  side above the cap falls back to ``canonicalize.exchange_join`` (one key
  exchange of both sides, then an Arrow join per shuffled block) with
  identical inner-join semantics.
- ``segment_revenue``: lineitem → orders → customer chained broadcast
  joins, then a map-side partial aggregate so the final exchange moves only
  (segment, partials) rows. Money is exact integer 1e-4-dollar units
  (``round(price*100) * (100 - round(discount*100))``) so sums are
  order-independent and bit-reproducible in the DuckDB SQL twin — float
  sums are not associative and would hash-mismatch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..config import EngineConfig


def broadcast_join(
    big_ds,
    small_ds,
    *,
    big_key: str,
    small_key: str,
    payload_cols: list[str],
    cfg: EngineConfig | None = None,
):
    """Inner-join ``payload_cols`` of ``small_ds`` onto ``big_ds``.

    Small side ≤ cfg.broadcast_rows_max: collected once, ``ray.put``, and
    merged map-side inside map_batches (vectorized pandas hash merge) — the
    big side streams with NO shuffle. Above the cap: an inner
    ``exchange_join`` (both sides ride one key exchange). Duplicate
    small-side keys keep their multiplicity on both paths (true join
    semantics, not a lookup)."""
    cfg = cfg or EngineConfig()
    # materialize the projected small side ONCE: count() and the collection
    # below would otherwise each execute the small-side plan
    small_ds = small_ds.select_columns([small_key] + payload_cols).materialize()
    if small_ds.count() > cfg.broadcast_rows_max:
        from .canonicalize import exchange_join

        # the small key renamed to big_key: the output carries only the big
        # side's key column — the same shape as the broadcast path's merge
        small = small_ds.map_batches(
            lambda t: t.rename_columns([big_key] + payload_cols),
            batch_format="pyarrow",
        )
        return exchange_join(big_ds, small, big_key, "inner")

    small_df = small_ds.to_pandas().rename(columns={small_key: big_key})
    small_ref = ray.put(small_df)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import cached_get

        side = cached_get(small_ref)
        return df.merge(side, on=big_key, how="inner")

    return big_ds.map_batches(merge, batch_format="pandas")


def broadcast_exists_join(
    big_ds,
    small_ds,
    *,
    big_key: str,
    small_key: str,
    cfg: EngineConfig | None = None,
    anti: bool = False,
):
    """Semi join (``anti=False``: keep big rows whose key appears in
    ``small_ds``) or anti join (``anti=True``: keep rows whose key does
    NOT). Only existence of the key matters — no payload is attached, so
    the exclusion side is reduced to per-batch distinct int64 keys
    map-side before anything moves.

    Keys must be integer-typed (both sides are compared as int64 — hash
    string keys to int64 first, e.g. dedup._stable_hash64).

    Distinct-key set ≤ cfg.broadcast_rows_max: sorted numpy array shipped
    once via ``ray.put``, membership tested per batch with a vectorized
    ``searchsorted`` — the big side streams with NO shuffle. Above the cap:
    one ``left semi`` / ``left anti`` ``exchange_join`` of the big rows
    against the key partials (the big side's columns ride that one
    exchange — unavoidable for any shuffled semi/anti join; at 100 TB
    project first)."""
    cfg = cfg or EngineConfig()

    def distinct_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {"_key": pc.unique(t.column(small_key).cast(pa.int64()))}
        )

    # per-batch distinct → tiny key partials; exact distinct happens on the
    # driver (broadcast path) and is not needed by the exchange_join path.
    # n_keys counts the partials — a conservative overestimate for the cap
    # test.
    keys_ds = small_ds.select_columns([small_key]).map_batches(
        distinct_keys, batch_format="pyarrow"
    ).materialize()
    n_keys = keys_ds.count()

    if n_keys == 0:
        # empty exclusion set: anti keeps everything, semi keeps nothing
        if anti:
            return big_ds
        return big_ds.map_batches(
            lambda df: df.head(0), batch_format="pandas"
        )

    if n_keys <= cfg.broadcast_rows_max:
        keys = np.unique(
            keys_ds.to_pandas()["_key"].to_numpy(np.int64)
        )
        keys_ref = ray.put(keys)

        def filt(t: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_get

            ks = cached_get(keys_ref)
            vals = np.asarray(t.column(big_key), np.int64)
            pos = np.minimum(np.searchsorted(ks, vals), len(ks) - 1)
            hit = ks[pos] == vals
            return t.filter(pa.array(~hit if anti else hit))

        return big_ds.map_batches(filt, batch_format="pyarrow")

    # exchange fallback: one semi / anti exchange_join against the key
    # partials — Arrow's semi and anti joins only test existence, so keys
    # repeated across partials need no distinct pass. The big key compares
    # as int64 through a temp column (an int32 parquet key would otherwise
    # widen in the output), dropped again below.
    import pyarrow.compute as pc

    from .canonicalize import exchange_join

    big = big_ds.map_batches(
        lambda t: t.append_column(
            "_bk", pc.cast(t.column(big_key), pa.int64())
        ),
        batch_format="pyarrow",
    )
    keys = keys_ds.map_batches(
        lambda t: t.rename_columns(["_bk"]), batch_format="pyarrow"
    )
    return exchange_join(
        big, keys, "_bk", "left anti" if anti else "left semi"
    ).map_batches(lambda t: t.drop_columns(["_bk"]), batch_format="pyarrow")


def range_join(
    big_ds,
    ranges: list[tuple[int, int, str]],
    *,
    value_col: str,
    band_col: str = "band",
    cfg: EngineConfig | None = None,
):
    """Inner non-equi join of an int64 value column against a small table of
    half-open bands ``[lo, hi)`` — the interval-lookup join (tier pricing,
    IP-range geo, latency buckets) that Ray Data has no native operator for.

    The band table must be NON-OVERLAPPING (validated); it is sorted once
    and closed over (bands are small by definition — an overlapping or
    huge interval side is a different operator), and every probe batch is a
    vectorized ``searchsorted`` — the big side streams with NO shuffle.
    Rows matching no band are dropped (inner semantics), exactly DuckDB's
    ``JOIN bands ON v >= lo AND v < hi``."""
    cfg = cfg or EngineConfig()
    if not ranges:
        raise ValueError("ranges must be non-empty")
    srt = sorted(ranges, key=lambda r: r[0])
    los = np.asarray([r[0] for r in srt], np.int64)
    his = np.asarray([r[1] for r in srt], np.int64)
    labels = np.asarray([r[2] for r in srt], object)
    if not (his > los).all():
        raise ValueError("every band needs hi > lo")
    if (los[1:] < his[:-1]).any():
        raise ValueError("bands overlap")

    def probe(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column(value_col), np.int64)
        idx = np.searchsorted(los, v, side="right") - 1
        ok = idx >= 0
        ok[ok] &= v[ok] < his[idx[ok]]
        kept = t.filter(pa.array(ok))
        return kept.append_column(
            band_col, pa.array(labels[idx[ok]], pa.string())
        )

    return big_ds.map_batches(probe, batch_format="pyarrow")


def segment_revenue(lineitem, orders, customer, cfg: EngineConfig):
    """Revenue rollup per customer market segment (TPC-H-Q3-shaped):
    lineitem ⋈ orders ⋈ customer → (c_mktsegment, n_lines, revenue_e4).

    The fact stream (lineitem) is projected to two int64 columns map-side,
    both dimension joins are broadcast (orders and customer are the small
    sides at any realistic scale ratio — and fall back to exchange_join
    past the cap), and the rollup is pre-aggregated inside map_batches so the
    only exchange is a handful of (segment, partial) rows. ``revenue_e4``
    is ``round(price*100) * (100 - round(discount*100))`` in exact int64
    1e-4-dollar units."""

    def project(t: pa.Table) -> pa.Table:
        price = np.asarray(t.column("l_extendedprice"), np.float64)
        disc = np.asarray(t.column("l_discount"), np.float64)
        rev = np.rint(price * 100.0).astype(np.int64) * (
            100 - np.rint(disc * 100.0).astype(np.int64)
        )
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "revenue_e4": pa.array(rev),
            }
        )

    facts = lineitem.map_batches(project, batch_format="pyarrow")
    facts = broadcast_join(
        facts,
        orders,
        big_key="l_orderkey",
        small_key="o_orderkey",
        payload_cols=["o_custkey"],
        cfg=cfg,
    )
    facts = broadcast_join(
        facts,
        customer,
        big_key="o_custkey",
        small_key="c_custkey",
        payload_cols=["c_mktsegment"],
        cfg=cfg,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("c_mktsegment", sort=False, observed=True)
            .agg(
                n_lines=("revenue_e4", "size"),
                revenue_e4=("revenue_e4", "sum"),
            )
            .reset_index()
        )
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("c_mktsegment", sort=False, observed=True)
            .agg(n_lines=("n_lines", "sum"), revenue_e4=("revenue_e4", "sum"))
            .reset_index()
        )
        g["n_lines"] = g["n_lines"].astype("int64")
        g["revenue_e4"] = g["revenue_e4"].astype("int64")
        return g

    # segments are a handful of keys: partials collapse to ~segments×blocks
    # rows, so a single-group final combine is O(segments), not O(facts)
    return (
        facts.map_batches(partial, batch_format="pandas")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def snapshot_diff(
    old_ds,
    new_ds,
    cfg: EngineConfig | None = None,
    *,
    key_col: str,
    value_cols: list[str],
):
    """Changed-data capture between two keyed snapshots of the same table:
    emit (``key_col``, status) for every key whose payload differs —
    ``'added'`` (key only in new), ``'removed'`` (only in old),
    ``'changed'`` (in both, any value column differs). Unchanged keys emit
    nothing, so the output is skinny even when the snapshots are huge.

    Scale shape: the payload NEVER rides the exchange — each side is
    projected map-side to (key:int64, payload-hash64) where the hash mixes
    the PER-COLUMN md5-lower64 hashes with an FNV-style accumulator (NULL →
    a fixed constant), so field boundaries are structural and no separator
    or sentinel inside a real value can alias two payloads. Only those
    16-byte rows move through ONE bucketed exchange on hash(key); the
    per-bucket kernel is a single C-level outer merge. Hash equality stands
    in for payload equality with the repo-wide collision caveat (~n²/2⁶⁴).

    Precondition: ``key_col`` is unique within each snapshot (a snapshot IS
    a keyed state); duplicate keys raise in the per-bucket kernel.
    """
    from .dedup import hash64_strs
    from .events import _user_bucket

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    if not value_cols:
        raise ValueError("value_cols must be non-empty")

    # per-COLUMN hashing mixed with an FNV-style accumulator — a joined
    # canonical string would be ambiguous (a separator or a null sentinel
    # occurring inside real values makes distinct payloads collide); hashing
    # each field first makes field boundaries structural, with only the
    # md5-lower64 collision probability left
    _NULLH = np.uint64(0x9E3779B97F4A7C15)
    _PRIME = np.uint64(0x100000001B3)

    def make_project(side: int):
        def project(t: pa.Table) -> pa.Table:
            keys = np.asarray(t.column(key_col), np.int64)
            acc = np.zeros(len(t), np.uint64)
            with np.errstate(over="ignore"):
                for c in value_cols:
                    s = t.column(c).to_pandas().astype(object)
                    null = s.isna().to_numpy()
                    strs = s.astype(str).to_numpy(object)
                    ch = hash64_strs(strs)
                    ch[null] = _NULLH
                    acc = acc * _PRIME + ch
            return pa.table(
                {
                    key_col: pa.array(keys),
                    "_h": pa.array(acc.view(np.int64)),
                    "_side": pa.array(
                        np.full(len(keys), side, np.int8)
                    ),
                    "_bucket": pa.array(_user_bucket(keys, nb)),
                }
            )

        return project

    cols = [key_col] + value_cols
    tagged = old_ds.select_columns(cols).map_batches(
        make_project(0), batch_format="pyarrow"
    ).union(
        new_ds.select_columns(cols).map_batches(
            make_project(1), batch_format="pyarrow"
        )
    )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        old = df[df["_side"] == 0]
        new = df[df["_side"] == 1]
        for side, name in ((old, "old"), (new, "new")):
            if side[key_col].duplicated().any():
                raise ValueError(
                    f"snapshot_diff: duplicate {key_col} in {name} snapshot"
                )
        # nullable Int64 keeps the 64-bit hashes exact through the outer
        # merge (plain int64 would coerce to float64 and round > 2^53)
        m = old[[key_col, "_h"]].astype({"_h": "Int64"}).merge(
            new[[key_col, "_h"]].astype({"_h": "Int64"}), on=key_col,
            how="outer", suffixes=("_o", "_n"), indicator=True,
        )
        status = np.where(
            m["_merge"].to_numpy() == "right_only",
            "added",
            np.where(m["_merge"].to_numpy() == "left_only", "removed", "changed"),
        )
        keep = (m["_merge"] != "both").to_numpy() | (
            m["_h_o"].ne(m["_h_n"]).fillna(False).to_numpy()
        )
        return pd.DataFrame(
            {
                key_col: m[key_col].to_numpy(np.int64)[keep],
                "status": status[keep],
            }
        )

    return tagged.groupby("_bucket").map_groups(
        per_bucket, batch_format="pandas"
    )


def rollup_counts(ds, cfg: EngineConfig, *, dims: tuple[str, str] = ("lang", "source")):
    """Two-dimension GROUPING SETS rollup — the OLAP cube seed: counts at
    every grain ((d0,d1), (d0), (d1), ()) in ONE pass over the data, with
    a ``grp`` column disambiguating rolled-up NULLs from genuine NULL
    values exactly like SQL's GROUPING(d0, d1) bitmask (bit 1 = d1 rolled,
    bit 0 of the high side = d0 rolled → grp ∈ {0,1,2,3}).

    Scale shape: per-batch partials collapse to DISTINCT (d0, d1, cnt)
    cells before the ONE bucketed exchange, so the shuffle carries at most
    |d0|·|d1| rows per batch; every coarser grain re-aggregates the finest
    CELL table (bounded by the dimension-domain product, never by row
    count) through tiny follow-up exchanges. Emits (d0, d1, n, grp)."""
    import pyarrow as pa

    from .canonicalize import bucket_of

    d0, d1 = dims
    nb = cfg.num_buckets

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby([d0, d1], sort=False, dropna=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        g["_bucket"] = bucket_of(
            g[d0].astype(str) + "\x00" + g[d1].astype(str), nb
        )
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby([d0, d1], sort=False, dropna=False)["cnt"]
            .sum()
            .reset_index()
        )
        s["cnt"] = s["cnt"].astype("int64")
        return s

    cells = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
        .materialize()
    )

    def coarse_grains(df: pd.DataFrame) -> pd.DataFrame:
        """All three coarser grains in ONE pandas pass over the cell table
        — legitimate single-partition work because the cell table is
        bounded by the dimension-domain product |d0|·|d1|, never by row
        count (the repartition(1) moves cells, not data)."""
        parts = []
        if len(df):
            g0 = df.groupby(d0, sort=False, dropna=False)["cnt"].sum()
            parts.append(
                pd.DataFrame(
                    {d0: g0.index, d1: None, "n": g0.to_numpy("int64"),
                     "grp": np.int64(1)}
                )
            )
            g1 = df.groupby(d1, sort=False, dropna=False)["cnt"].sum()
            parts.append(
                pd.DataFrame(
                    {d0: None, d1: g1.index, "n": g1.to_numpy("int64"),
                     "grp": np.int64(2)}
                )
            )
            parts.append(
                pd.DataFrame(
                    {d0: [None], d1: [None],
                     "n": np.int64(df["cnt"].sum()), "grp": np.int64(3)}
                )
            )
        if not parts:
            return pd.DataFrame(
                {d0: pd.Series(dtype=object), d1: pd.Series(dtype=object),
                 "n": pd.Series(dtype=np.int64),
                 "grp": pd.Series(dtype=np.int64)}
            )
        return pd.concat(parts, ignore_index=True)

    finest = cells.map_batches(
        lambda df: pd.DataFrame(
            {
                d0: df[d0],
                d1: df[d1],
                "n": df["cnt"].astype("int64"),
                "grp": np.int64(0),
            }
        ),
        batch_format="pandas",
    )
    out = finest.union(
        cells.repartition(1).map_batches(
            coarse_grains, batch_format="pandas"
        )
    )
    # normalize the union's schema (object None columns) to typed arrow
    return out.map_batches(
        lambda t: pa.table(
            {
                d0: t.column(d0).cast(pa.string()),
                d1: t.column(d1).cast(pa.string()),
                "n": t.column("n").cast(pa.int64()),
                "grp": t.column("grp").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def pricing_summary(lineitem, cfg: EngineConfig, *, cutoff_us: int):
    """TPC-H Q1-shaped pricing summary in exact integer arithmetic: over
    lineitem rows with ``l_shipdate <= cutoff``, per (l_returnflag,
    l_linestatus) emit sum_qty, sum_base_cents (1e-2 $), sum_disc_e4
    (price·(100−disc), 1e-4 $), sum_charge_e6 (price·(100−disc)·(100+tax),
    1e-6 $) and count_order. Fixed-point units make every sum associative
    and bit-reproducible against the twin — float Σ would hash-mismatch.

    Scale shape: the filter + per-batch partial aggregate run map-side
    (the group domain is ≤ |flags|·|statuses| rows per batch), ONE
    single-partition combine over the tiny partial stream — the exchange
    is bounded by the domain product, never row count. Column pruning at
    the read is the caller's job (q_pricing_summary passes columns=)."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64())
        t = t.filter(pc.less_equal(ship, pa.scalar(cutoff_us)))
        if len(t) == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_cents": pa.array([], pa.int64()),
                    "sum_disc_e4": pa.array([], pa.int64()),
                    "sum_charge_e6": pa.array([], pa.int64()),
                    "count_order": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame(
            {
                "l_returnflag": t.column("l_returnflag").to_pandas(),
                "l_linestatus": t.column("l_linestatus").to_pandas(),
            }
        )
        qty = np.round(np.asarray(t.column("l_quantity"))).astype(np.int64)
        cents = np.round(
            np.asarray(t.column("l_extendedprice")) * 100
        ).astype(np.int64)
        disc = np.round(np.asarray(t.column("l_discount")) * 100).astype(
            np.int64
        )
        tax = np.round(np.asarray(t.column("l_tax")) * 100).astype(np.int64)
        df["sum_qty"] = qty
        df["sum_base_cents"] = cents
        df["sum_disc_e4"] = cents * (100 - disc)
        df["sum_charge_e6"] = cents * (100 - disc) * (100 + tax)
        df["count_order"] = np.int64(1)
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .sum()
            .reset_index()
        )
        for c in g.columns[2:]:
            g[c] = g[c].astype("int64")
        return g

    return (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def ship_latency(orders, lineitem, cfg: EngineConfig):
    """Order-fulfilment latency by priority — the fact-to-fact
    co-partitioned join shape: per order, days from o_orderdate to the
    LAST lineitem shipment; per o_orderpriority emit (n_orders,
    median_days, max_days) with the LOWER median (sorted[(n−1)//2] ≡
    DuckDB quantile_disc(0.5)). Orders without lineitems emit nothing
    (inner join).

    Scale shape: both tables project to skinny int64 rows map-side and
    meet in ONE shared hash(o_orderkey) exchange (union with a side tag —
    no separate shuffle per table, no broadcast of a fact table); per
    bucket a groupby-max + hash merge computes per-order latency, then
    per-priority partial latency COUNTS (≤ |priorities| × |distinct
    days| rows) flow through a tiny second exchange where the exact
    order statistics read off the count vectors."""
    nb = cfg.num_buckets
    day_us = np.int64(86_400_000_000)

    def o_rows(t: pa.Table) -> pa.Table:
        key = np.asarray(t.column("o_orderkey"), np.int64)
        return pa.table(
            {
                "k": t.column("o_orderkey"),
                "ts": t.column("o_orderdate")
                .cast(pa.timestamp("us")).cast(pa.int64()),
                "pri": t.column("o_orderpriority").cast(pa.string()),
                "_side": pa.array(np.zeros(len(t), np.int8)),
                "_bucket": pa.array(
                    (key % nb).astype(np.int32)
                ),
            }
        )

    def l_rows(t: pa.Table) -> pa.Table:
        key = np.asarray(t.column("l_orderkey"), np.int64)
        return pa.table(
            {
                "k": t.column("l_orderkey"),
                "ts": t.column("l_shipdate")
                .cast(pa.timestamp("us")).cast(pa.int64()),
                "pri": pa.nulls(len(t), pa.string()),
                "_side": pa.array(np.ones(len(t), np.int8)),
                "_bucket": pa.array(
                    (key % nb).astype(np.int32)
                ),
            }
        )

    o = orders.map_batches(o_rows, batch_format="pyarrow")
    li = lineitem.map_batches(l_rows, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "pri": pd.Series(dtype=object),
                "days": pd.Series(dtype=np.int64),
                "cnt": pd.Series(dtype=np.int64),
                "_bucket2": pd.Series(dtype=np.int32),
            }
        )
        ords = g[g["_side"] == 0]
        lis = g[g["_side"] == 1]
        if len(ords) == 0 or len(lis) == 0:
            return empty
        last = lis.groupby("k", sort=False)["ts"].max().rename("ship")
        m = ords.merge(last, left_on="k", right_index=True)
        if len(m) == 0:
            return empty
        diff = m["ship"].to_numpy(np.int64) - m["ts"].to_numpy(np.int64)
        # trunc-toward-zero division: DuckDB's `//` truncates (-7//2 = -3)
        # while numpy's floors (-4) — latency can be negative in synthetic
        # data, so pin the twin's rule explicitly
        days = np.where(diff < 0, -(-diff // day_us), diff // day_us)
        c = (
            pd.DataFrame({"pri": m["pri"].to_numpy(object), "days": days})
            .groupby(["pri", "days"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        from .canonicalize import bucket_of

        c["_bucket2"] = bucket_of(c["pri"].astype(str), nb)
        return c

    def stats(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "priority": pd.Series(dtype=object),
                    "n_orders": pd.Series(dtype=np.int64),
                    "median_days": pd.Series(dtype=np.int64),
                    "max_days": pd.Series(dtype=np.int64),
                }
            )
        s = (
            g.groupby(["pri", "days"], sort=False)["cnt"].sum().reset_index()
        )
        s = s.sort_values(["pri", "days"], kind="mergesort")
        pri = s["pri"].to_numpy(object)
        days = s["days"].to_numpy(np.int64)
        cnt = s["cnt"].to_numpy(np.int64)
        starts = np.flatnonzero(
            np.concatenate(([True], pri[1:] != pri[:-1]))
        )
        bounds = np.r_[starts, len(pri)]
        out = []
        for i, st in enumerate(starts):
            en = bounds[i + 1]
            c = cnt[st:en]
            n = int(c.sum())
            # lower median from the count vector: first cumsum ≥ (n+1)//2
            cum = np.cumsum(c)
            med = days[st:en][np.searchsorted(cum, (n - 1) // 2 + 1)]
            out.append((pri[st], n, int(med), int(days[en - 1])))
        return pd.DataFrame(
            out, columns=["priority", "n_orders", "median_days", "max_days"]
        )

    return (
        o.union(li)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("_bucket2")
        .map_groups(stats, batch_format="pandas")
    )


def shipping_priority(
    customer,
    orders,
    lineitem,
    cfg: EngineConfig,
    *,
    segment: str = "BUILDING",
    cutoff_us: int,
    topk: int = 10,
):
    """TPC-H Q3 shape: unshipped-revenue top-``topk`` orders for one market
    segment — customers in ``segment`` × orders placed before the cutoff ×
    lineitems shipped after it; revenue = Σ cents(l_extendedprice) ×
    (100 − pct(l_discount)) in exact integer 1e-4 dollars. Output
    (o_orderkey, o_odate_us, revenue_e4) ordered by revenue DESC,
    order date ASC, o_orderkey ASC.

    Dates are emitted as int64 epoch-microseconds (``o_odate_us``) so the
    DuckDB twin compares exactly (DATE vs TIMESTAMP stringification would
    spuriously mismatch).

    Scale shape: two bucketed exchanges, both forced by key changes
    (custkey → orderkey → global top-k), none avoidable. Exchange 1:
    filtered customers (keys only) meet date-filtered orders on
    hash(custkey) — the segment side is a fact-sized table at 100 TB, so
    no broadcast. Exchange 2: surviving (orderkey, orderdate) rows meet
    lineitem partials pre-summed per orderkey inside each map task, on
    hash(orderkey). Per-bucket top-k partials (≤ topk rows each) then
    merge in one tiny final task; the full revenue table never sorts
    globally.
    """
    nb = cfg.num_buckets

    def c_rows(t: pa.Table) -> pa.Table:
        mask = pa.compute.equal(t.column("c_mktsegment"), segment)
        t = t.filter(mask)
        key = np.asarray(t.column("c_custkey"), np.int64)
        return pa.table(
            {
                "k": t.column("c_custkey"),
                "okey": pa.nulls(len(t), pa.int64()),
                "odate": pa.nulls(len(t), pa.int64()),
                "_side": pa.array(np.zeros(len(t), np.int8)),
                "_bucket": pa.array((key % nb).astype(np.int32)),
            }
        )

    def o_rows(t: pa.Table) -> pa.Table:
        odate = t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64())
        t = t.append_column("_odate", odate)
        t = t.filter(pa.compute.less(t.column("_odate"), cutoff_us))
        key = np.asarray(t.column("o_custkey"), np.int64)
        return pa.table(
            {
                "k": t.column("o_custkey"),
                "okey": t.column("o_orderkey"),
                "odate": t.column("_odate"),
                "_side": pa.array(np.ones(len(t), np.int8)),
                "_bucket": pa.array((key % nb).astype(np.int32)),
            }
        )

    def semi(g: pd.DataFrame) -> pd.DataFrame:
        cust = g[g["_side"] == 0]
        ords = g[g["_side"] == 1]
        keep = ords[ords["k"].isin(set(cust["k"].to_numpy()))]
        out = pd.DataFrame(
            {
                "okey": keep["okey"].to_numpy(np.int64, na_value=0),
                "odate": keep["odate"].to_numpy(np.int64, na_value=0),
            }
            if len(keep)
            else {
                "okey": pd.Series(dtype=np.int64),
                "odate": pd.Series(dtype=np.int64),
            }
        )
        out["rev"] = np.zeros(len(out), np.int64)
        out["_side"] = np.zeros(len(out), np.int8)
        out["_bucket2"] = (
            out["okey"].to_numpy(np.int64) % nb
        ).astype(np.int32)
        return out

    def l_partial(t: pa.Table) -> pd.DataFrame:
        sdate = t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64())
        t = t.append_column("_sdate", sdate)
        t = t.filter(pa.compute.greater(t.column("_sdate"), cutoff_us))
        okey = np.asarray(t.column("l_orderkey"), np.int64)
        cents = np.round(
            np.asarray(t.column("l_extendedprice"), np.float64) * 100
        ).astype(np.int64)
        disc = np.round(
            np.asarray(t.column("l_discount"), np.float64) * 100
        ).astype(np.int64)
        rev = cents * (100 - disc)
        df = (
            pd.DataFrame({"okey": okey, "rev": rev})
            .groupby("okey", sort=False)["rev"]
            .sum()
            .reset_index()
        )
        df["odate"] = np.zeros(len(df), np.int64)
        df["_side"] = np.ones(len(df), np.int8)
        df["_bucket2"] = (df["okey"].to_numpy(np.int64) % nb).astype(np.int32)
        return df[["okey", "odate", "rev", "_side", "_bucket2"]]

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "o_orderkey": pd.Series(dtype=np.int64),
                "o_odate_us": pd.Series(dtype=np.int64),
                "revenue_e4": pd.Series(dtype=np.int64),
            }
        )
        ords = g[g["_side"] == 0]
        lis = g[g["_side"] == 1]
        if len(ords) == 0 or len(lis) == 0:
            return empty
        rev = lis.groupby("okey", sort=False)["rev"].sum()
        m = ords.merge(rev.rename("revsum"), left_on="okey", right_index=True)
        if len(m) == 0:
            return empty
        m = m.sort_values(
            ["revsum", "odate", "okey"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(topk)
        return pd.DataFrame(
            {
                "o_orderkey": m["okey"].to_numpy(np.int64),
                "o_odate_us": m["odate"].to_numpy(np.int64),
                "revenue_e4": m["revsum"].to_numpy(np.int64),
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_e4", "o_odate_us", "o_orderkey"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(topk)

    c = customer.map_batches(c_rows, batch_format="pyarrow")
    o = orders.map_batches(o_rows, batch_format="pyarrow")
    winners = (
        c.union(o)
        .groupby("_bucket")
        .map_groups(semi, batch_format="pandas")
    )
    li = lineitem.map_batches(l_partial, batch_format="pyarrow")
    return (
        winners.union(li)
        .groupby("_bucket2")
        .map_groups(bucket_topk, batch_format="pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def local_supplier_revenue(
    customer,
    orders,
    lineitem,
    supplier,
    nation,
    region,
    cfg: EngineConfig,
    *,
    region_name: str = "ASIA",
    date_lo_us: int,
    date_hi_us: int,
):
    """TPC-H Q5 shape: revenue per nation from LOCAL supply — lineitems
    whose supplier nation equals the ordering customer's nation, both in
    ``region_name``, for orders in [date_lo, date_hi). Revenue in exact
    integer 1e-4 dollars. Output (n_name, revenue_e4), revenue DESC.

    Scale shape: nation⋈region is constant-size (25×5 by schema spec) and
    collapses driver-side to an in-region key set + key→name map shipped
    via ``ray.put``. Supplier attaches to lineitem through the guarded
    ``broadcast_join`` (map-side merge under the cap, exchange_join above it).
    Two bucketed fact exchanges, both forced by key changes: customers
    meet date-filtered orders on hash(custkey); the surviving
    (orderkey, cust_nation) rows meet per-(orderkey, supp_nation)
    pre-summed lineitem partials on hash(orderkey). Per-nation partials
    (≤ 25 rows per bucket) merge in one tiny final task."""
    nb = cfg.num_buckets

    nat = nation.to_pandas()
    reg = region.to_pandas()
    rkeys = set(
        reg.loc[reg["r_name"] == region_name, "r_regionkey"].to_numpy()
    )
    in_region = nat[nat["n_regionkey"].isin(rkeys)]
    nat_keys = np.sort(in_region["n_nationkey"].to_numpy(np.int64))
    nat_names = dict(
        zip(
            in_region["n_nationkey"].to_numpy(np.int64),
            in_region["n_name"].astype(str),
        )
    )
    keys_ref = ray.put(nat_keys)

    def c_rows(t: pa.Table) -> pd.DataFrame:
        from ..state.broadcast import cached_get

        ks = cached_get(keys_ref)
        cn = np.asarray(t.column("c_nationkey"), np.int64)
        pos = np.minimum(np.searchsorted(ks, cn), len(ks) - 1)
        keep = ks[pos] == cn
        ck = np.asarray(t.column("c_custkey"), np.int64)[keep]
        return pd.DataFrame(
            {
                "k": ck,
                "okey": np.zeros(keep.sum(), np.int64),
                "nat": cn[keep],
                "_side": np.zeros(keep.sum(), np.int8),
                "_bucket": (ck % nb).astype(np.int32),
            }
        )

    def o_rows(t: pa.Table) -> pd.DataFrame:
        od = np.asarray(
            t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        keep = (od >= date_lo_us) & (od < date_hi_us)
        ck = np.asarray(t.column("o_custkey"), np.int64)[keep]
        return pd.DataFrame(
            {
                "k": ck,
                "okey": np.asarray(t.column("o_orderkey"), np.int64)[keep],
                "nat": np.zeros(keep.sum(), np.int64),
                "_side": np.ones(keep.sum(), np.int8),
                "_bucket": (ck % nb).astype(np.int32),
            }
        )

    def semi(g: pd.DataFrame) -> pd.DataFrame:
        cust = g[g["_side"] == 0][["k", "nat"]]
        ords = g[g["_side"] == 1]
        m = ords.merge(cust, on="k", suffixes=("", "_c"))
        okey = m["okey"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "okey": okey,
                "nat": m["nat_c"].to_numpy(np.int64),
                "rev": np.zeros(len(m), np.int64),
                "_side": np.zeros(len(m), np.int8),
                "_bucket2": (okey % nb).astype(np.int32),
            }
        )

    li = broadcast_join(
        lineitem,
        supplier,
        big_key="l_suppkey",
        small_key="s_suppkey",
        payload_cols=["s_nationkey"],
        cfg=cfg,
    )

    def l_partial(df: pd.DataFrame) -> pd.DataFrame:
        sn = df["s_nationkey"].to_numpy(np.int64)
        ks = nat_keys  # tiny constant — captured, not re-shipped per batch
        pos = np.minimum(np.searchsorted(ks, sn), len(ks) - 1)
        keep = ks[pos] == sn
        df = df[keep]
        cents = np.round(
            df["l_extendedprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        disc = np.round(df["l_discount"].to_numpy(np.float64) * 100).astype(
            np.int64
        )
        part = (
            pd.DataFrame(
                {
                    "okey": df["l_orderkey"].to_numpy(np.int64),
                    "nat": df["s_nationkey"].to_numpy(np.int64),
                    "rev": cents * (100 - disc),
                }
            )
            .groupby(["okey", "nat"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        part["_side"] = np.ones(len(part), np.int8)
        part["_bucket2"] = (part["okey"].to_numpy(np.int64) % nb).astype(
            np.int32
        )
        return part[["okey", "nat", "rev", "_side", "_bucket2"]]

    def match(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "nat": pd.Series(dtype=np.int64),
                "rev": pd.Series(dtype=np.int64),
            }
        )
        ords = g[g["_side"] == 0][["okey", "nat"]]
        lis = g[g["_side"] == 1]
        if len(ords) == 0 or len(lis) == 0:
            return empty
        m = lis.merge(ords, on=["okey", "nat"])
        if len(m) == 0:
            return empty
        return (
            m.groupby("nat", sort=False)["rev"].sum().reset_index()
        ).astype({"nat": np.int64, "rev": np.int64})

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "n_name": pd.Series(dtype=object),
                    "revenue_e4": pd.Series(dtype=np.int64),
                }
            )
        s = df.groupby("nat", sort=False)["rev"].sum().reset_index()
        s["n_name"] = s["nat"].map(nat_names)
        s = s.sort_values(
            ["rev", "n_name"], ascending=[False, True], kind="mergesort"
        )
        return pd.DataFrame(
            {
                "n_name": s["n_name"].to_numpy(object),
                "revenue_e4": s["rev"].to_numpy(np.int64),
            }
        )

    c = customer.map_batches(c_rows, batch_format="pyarrow")
    o = orders.map_batches(o_rows, batch_format="pyarrow")
    winners = (
        c.union(o).groupby("_bucket").map_groups(semi, batch_format="pandas")
    )
    lp = li.map_batches(l_partial, batch_format="pandas")
    return (
        winners.union(lp)
        .groupby("_bucket2")
        .map_groups(match, batch_format="pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def group_comoments(lineitem, cfg: EngineConfig):
    """Exact grouped co-moment aggregate (the Pearson-correlation
    sufficient statistic) for quantity vs discount per l_returnflag:
    (n, sum_q, sum_d, sum_qq, sum_dd, sum_qd) — q = round(l_quantity),
    d = round(l_discount·100), all BIGINT-exact (q ≤ 50, d ≤ 100, so
    products never overflow int64 below ~10¹⁴ rows). The caller derives
    corr = (n·Σqd − Σq·Σd) / √((n·Σqq − (Σq)²)(n·Σdd − (Σd)²)) in floats
    AFTER the exchange — only integer partials ever move.

    Scale shape: map-side partials (≤ |returnflag| rows per batch) →
    one single-task combine. No shuffle of row data at all."""

    def partial(t: pa.Table) -> pd.DataFrame:
        q = np.round(np.asarray(t.column("l_quantity"), np.float64)).astype(
            np.int64
        )
        d = np.round(
            np.asarray(t.column("l_discount"), np.float64) * 100
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_returnflag": np.asarray(
                    t.column("l_returnflag").cast(pa.string())
                ).astype(object),
                "n": np.ones(len(q), np.int64),
                "sum_q": q,
                "sum_d": d,
                "sum_qq": q * q,
                "sum_dd": d * d,
                "sum_qd": q * d,
            }
        )
        return df.groupby("l_returnflag", sort=False).sum().reset_index()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("l_returnflag", sort=True).sum().reset_index()
        return out.astype(
            {
                c: np.int64
                for c in ["n", "sum_q", "sum_d", "sum_qq", "sum_dd", "sum_qd"]
            }
        )

    return (
        lineitem.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def fk_orphans(
    child,
    parent,
    cfg: EngineConfig,
    *,
    child_key: str,
    parent_key: str,
    relation: str,
):
    """Referential-integrity audit for ONE relation: count child rows
    whose ``child_key`` has no match in ``parent[parent_key]`` (orphans).
    Output exactly one row (relation, n_orphans:int64). Run it with the
    roles swapped to count childless parents.

    Scale shape: the existence side reduces to its distinct int64 key set
    map-side and rides ``broadcast_exists_join`` (broadcast under the
    cap, one bucketed marker join above it); the surviving orphan rows
    collapse to per-batch counts and one tiny combine — the audit never
    materializes the orphan rows themselves."""
    import ray.data as rd

    orphans = broadcast_exists_join(
        child.select_columns([child_key]),
        parent.select_columns([parent_key]),
        big_key=child_key,
        small_key=parent_key,
        cfg=cfg,
        anti=True,
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {"relation": [relation], "n": [np.int64(len(t))]}
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "relation": [relation],
                "n_orphans": [np.int64(df["n"].sum() if len(df) else 0)],
            }
        )

    counted = (
        orphans.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )
    # an empty orphan stream yields zero blocks — union a zero row so the
    # relation always reports (then combine keeps the max = real count)
    zero = rd.from_pandas(
        pd.DataFrame({"relation": [relation], "n_orphans": [np.int64(0)]})
    )

    def keep_max(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "relation": [relation],
                "n_orphans": [np.int64(df["n_orphans"].max())],
            }
        )

    return (
        counted.union(zero)
        .repartition(1)
        .map_batches(keep_max, batch_format="pandas")
    )


def join_size_estimate(left, right, cfg: EngineConfig, *,
                       left_key: str, right_key: str):
    """EXACT equi-join cardinality WITHOUT executing the join — the
    planner primitive: |A ⋈ B| = Σₖ cntA(k)·cntB(k). Also reports each
    side's row and distinct-key totals. Output one row (join_rows,
    left_rows, right_rows, left_keys, right_keys), all int64.

    Scale shape: each side pre-combines to per-batch (key, count)
    partials map-side — the exchange carries |distinct keys per batch|
    rows, never data rows; ONE shared hash(key) exchange (union + side
    tag); per bucket the product-sum and key counts reduce to a 1-row
    partial; one tiny combine."""
    nb = cfg.num_buckets

    def side_counts(key: str, tag: int):
        def f(t: pa.Table) -> pd.DataFrame:
            k = np.asarray(t.column(key), np.int64)
            u, c = np.unique(k, return_counts=True)
            return pd.DataFrame(
                {
                    "k": u,
                    "cnt": c.astype(np.int64),
                    "_side": np.full(len(u), tag, np.int8),
                    "_bucket": (u % nb).astype(np.int32),
                }
            )

        return f

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a = (
            g[g["_side"] == 0]
            .groupby("k", sort=False)["cnt"]
            .sum()
        )
        b = (
            g[g["_side"] == 1]
            .groupby("k", sort=False)["cnt"]
            .sum()
        )
        common = a.index.intersection(b.index)
        join_rows = int(
            (a.loc[common].to_numpy(np.int64)
             * b.loc[common].to_numpy(np.int64)).sum()
        ) if len(common) else 0
        return pd.DataFrame(
            {
                "join_rows": [np.int64(join_rows)],
                "left_rows": [np.int64(a.sum())],
                "right_rows": [np.int64(b.sum())],
                "left_keys": [np.int64(len(a))],
                "right_keys": [np.int64(len(b))],
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                c: [np.int64(df[c].sum() if len(df) else 0)]
                for c in [
                    "join_rows", "left_rows", "right_rows",
                    "left_keys", "right_keys",
                ]
            }
        )

    l = left.map_batches(side_counts(left_key, 0), batch_format="pyarrow")
    r = right.map_batches(side_counts(right_key, 1), batch_format="pyarrow")
    return (
        l.union(r)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def large_orders(
    lineitem,
    orders,
    customer,
    cfg: EngineConfig | None = None,
    *,
    min_qty_cents: int = 30000,
):
    """TPC-H Q18 shape (large-volume orders): orders whose total lineitem
    quantity exceeds the threshold, enriched with customer name and order
    facts. Quantity is exact integer centi-units (round(qty·100) — the
    repo-wide money/measure rule) so the HAVING comparison cannot drift.
    Output (c_name, o_orderkey, o_total_cents, sum_qty_cents).

    Scale shape: lineitem pre-sums quantity per orderkey MAP-SIDE, so only
    (orderkey, partial) rows ride the ONE bucketed exchange; the HAVING
    filter shrinks the qualifying set to a broadcastable table that attaches
    to the streaming orders fact via the guarded broadcast join (orders
    never shuffles; exchange_join past the cap), and customer attaches the
    same way — the two facts never co-shuffle."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def qty_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = np.round(
            df["l_quantity"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        agg = (
            pd.DataFrame({"_ok": df["l_orderkey"].values, "_q": c})
            .groupby("_ok", sort=False)["_q"]
            .sum()
            .reset_index()
        )
        agg["_bucket"] = (agg["_ok"].to_numpy(np.int64) % nb).astype("int32")
        return agg

    def qualify(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("_ok", sort=False)["_q"].sum().reset_index()
        agg = agg[agg["_q"] > min_qty_cents]
        return pd.DataFrame(
            {
                "o_orderkey": agg["_ok"].to_numpy(np.int64),
                "sum_qty_cents": agg["_q"].to_numpy(np.int64),
            }
        )

    qualifying = (
        lineitem.select_columns(["l_orderkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(qualify, batch_format="pandas")
    )

    def order_cents(t: pa.Table) -> pa.Table:
        tot = np.round(
            np.asarray(t.column("o_totalprice"), np.float64) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "o_total_cents": pa.array(tot),
            }
        )

    enriched = broadcast_join(
        orders.select_columns(
            ["o_orderkey", "o_custkey", "o_totalprice"]
        ).map_batches(order_cents, batch_format="pyarrow"),
        qualifying,
        big_key="o_orderkey",
        small_key="o_orderkey",
        payload_cols=["sum_qty_cents"],
        cfg=cfg,
    )
    named = broadcast_join(
        enriched,
        customer.select_columns(["c_custkey", "c_name"]).map_batches(
            lambda t: pa.table(
                {"o_custkey": t.column("c_custkey"), "c_name": t.column("c_name")}
            ),
            batch_format="pyarrow",
        ),
        big_key="o_custkey",
        small_key="o_custkey",
        payload_cols=["c_name"],
        cfg=cfg,
    )
    return named.map_batches(
        lambda t: t.select(
            ["c_name", "o_orderkey", "o_total_cents", "sum_qty_cents"]
        ),
        batch_format="pyarrow",
    )


def promo_revenue(
    lineitem,
    part,
    cfg: EngineConfig | None = None,
    *,
    promo_type: str = "PROMO",
):
    """TPC-H Q14 shape (promotion effect): the share of revenue from
    promo-type parts. Revenue in exact 1e-4-dollar integer units
    (round(price·100)·(100−round(disc·100)) — the segment_revenue rule) so
    the sums are order-independent; the two global sums accumulate as
    arbitrary-precision Python ints from per-batch decimal-string partials
    (int64 would overflow near ~10¹² lineitems), and the percentage is the
    single final IEEE expression 100.0·promo/total. One row out:
    (promo_revenue, total_revenue, promo_pct).

    Scale shape: the part dimension attaches to the streaming lineitem fact
    via the guarded broadcast join (exchange_join past the cap — lineitem
    never shuffles on the broadcast path); each batch collapses to ONE partial
    row, so the driver sees O(blocks) tiny rows."""
    cfg = cfg or EngineConfig()

    j = broadcast_join(
        lineitem.select_columns(
            ["l_partkey", "l_extendedprice", "l_discount"]
        ),
        part.select_columns(["p_partkey", "p_type"]).map_batches(
            lambda t: pa.table(
                {"l_partkey": t.column("p_partkey"), "p_type": t.column("p_type")}
            ),
            batch_format="pyarrow",
        ),
        big_key="l_partkey",
        small_key="l_partkey",
        payload_cols=["p_type"],
        cfg=cfg,
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        price = np.round(
            df["l_extendedprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        disc = np.round(
            df["l_discount"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        rev = price * (100 - disc)
        promo = df["p_type"].to_numpy(object) == promo_type
        return pd.DataFrame(
            {
                "_promo": [str(int(rev[promo].sum()))],
                "_total": [str(int(rev.sum()))],
            }
        )

    parts_df = j.map_batches(partial, batch_format="pandas").to_pandas()
    promo_u = sum(int(s) for s in parts_df["_promo"]) if len(parts_df) else 0
    total_u = sum(int(s) for s in parts_df["_total"]) if len(parts_df) else 0
    pct = (100.0 * float(promo_u)) / float(total_u) if total_u else 0.0
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "promo_revenue": pa.array([promo_u], pa.int64()),
                "total_revenue": pa.array([total_u], pa.int64()),
                "promo_pct": pa.array([pct], pa.float64()),
            }
        )
    )


def returned_revenue_topk(
    lineitem,
    orders,
    customer,
    cfg: EngineConfig | None = None,
    *,
    k: int = 20,
    flag: str = "R",
):
    """TPC-H Q10 shape (returned-item losses): the top-k customers by
    revenue on return-flagged lineitems. Revenue in exact 1e-4-dollar
    integer units (the segment_revenue rule) so sums are order-independent
    and the ranking is bit-reproducible under the total order
    (revenue desc, custkey asc). Output (rank, c_custkey, c_name, revenue).

    Scale shape: flagged lineitems pre-sum revenue per orderkey MAP-SIDE
    and meet orders in ONE shared hash(orderkey) exchange (union + side
    tag — the ship_latency pattern: no per-table shuffle, no fact
    broadcast); per bucket the (custkey, revenue) partials collapse, ride
    a second hash(custkey) exchange, and the global top-k runs as
    associative map-side partials (group_topk). Customer names attach to
    the k winners via the guarded broadcast join — k rows, trivially under
    the cap."""
    import pyarrow.compute as pc

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def li_rows(t: pa.Table) -> pd.DataFrame:
        mask = pc.equal(
            pc.fill_null(t.column("l_returnflag").cast(pa.string()), ""),
            flag,
        )
        t = t.filter(mask)
        price = np.round(
            np.asarray(t.column("l_extendedprice"), np.float64) * 100
        ).astype(np.int64)
        disc = np.round(
            np.asarray(t.column("l_discount"), np.float64) * 100
        ).astype(np.int64)
        agg = (
            pd.DataFrame(
                {
                    "k": np.asarray(t.column("l_orderkey"), np.int64),
                    "rev": price * (100 - disc),
                }
            )
            .groupby("k", sort=False)["rev"]
            .sum()
            .reset_index()
        )
        agg["cust"] = np.int64(0)
        agg["_side"] = np.int8(1)
        agg["_bucket"] = (agg["k"].to_numpy(np.int64) % nb).astype("int32")
        return agg[["k", "rev", "cust", "_side", "_bucket"]]

    def o_rows(t: pa.Table) -> pd.DataFrame:
        key = np.asarray(t.column("o_orderkey"), np.int64)
        return pd.DataFrame(
            {
                "k": key,
                "rev": np.zeros(len(t), np.int64),
                "cust": np.asarray(t.column("o_custkey"), np.int64),
                "_side": np.full(len(t), 0, np.int8),
                "_bucket": (key % nb).astype(np.int32),
            }
        )

    li = lineitem.select_columns(
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
    ).map_batches(li_rows, batch_format="pyarrow")
    o = orders.select_columns(["o_orderkey", "o_custkey"]).map_batches(
        o_rows, batch_format="pyarrow"
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lis = g[g["_side"] == 1]
        ords = g[g["_side"] == 0]
        if len(lis) == 0 or len(ords) == 0:
            return pd.DataFrame(
                {
                    "cust": pd.Series(dtype=np.int64),
                    "rev": pd.Series(dtype=np.int64),
                    "_b2": pd.Series(dtype=np.int32),
                }
            )
        rev = lis.groupby("k", sort=False)["rev"].sum().rename("r")
        m = ords.merge(rev, left_on="k", right_index=True)
        agg = m.groupby("cust", sort=False)["r"].sum().reset_index()
        return pd.DataFrame(
            {
                "cust": agg["cust"].to_numpy(np.int64),
                "rev": agg["r"].to_numpy(np.int64),
                "_b2": (agg["cust"].to_numpy(np.int64) % nb).astype(np.int32),
            }
        )

    def cust_total(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("cust", sort=False)["rev"].sum().reset_index()
        return pd.DataFrame(
            {
                "c_custkey": agg["cust"].to_numpy(np.int64),
                "revenue": agg["rev"].to_numpy(np.int64),
            }
        )

    totals = (
        li.union(o)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("_b2")
        .map_groups(cust_total, batch_format="pandas")
    )

    from .topk import group_topk

    top = group_topk(
        totals, cfg, order_col="revenue", id_col="c_custkey", k=k,
        group_col=None, descending=True,
    )
    named = broadcast_join(
        customer.select_columns(["c_custkey", "c_name"]),
        top,
        big_key="c_custkey",
        small_key="c_custkey",
        payload_cols=["rank", "revenue"],
        cfg=cfg,
    )
    return named.map_batches(
        lambda t: t.select(["rank", "c_custkey", "c_name", "revenue"]),
        batch_format="pyarrow",
    )


def forecast_revenue(
    lineitem,
    cfg: EngineConfig | None = None,
    *,
    ts_lo_us: int,
    ts_hi_us: int,
    disc_lo_pct: int,
    disc_hi_pct: int,
    max_qty_cents: int,
):
    """TPC-H Q6 shape (forecasting revenue change): Σ price·discount over
    one shipdate year, a discount band, and a quantity cap — every
    comparison in exact integer space (epoch-µs timestamps, discount as
    round(d·100) percent, quantity as centi-units) so the filter cannot
    hang on a float boundary; revenue in exact 1e-6-dollar units
    (price_cents · disc_pct · 100 ... = round(p·100)·round(d·100)). One
    row out: (n_items, revenue).

    Scale shape: pure map-side — each batch collapses to ONE (count, sum)
    partial, Python-int accumulation on the driver (the promo_revenue
    overflow rule); nothing shuffles."""
    cfg = cfg or EngineConfig()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["l_shipdate"].to_numpy("datetime64[us]").astype(np.int64)
        disc = np.round(
            df["l_discount"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        qty = np.round(
            df["l_quantity"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        price = np.round(
            df["l_extendedprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        m = (
            (ts >= ts_lo_us)
            & (ts < ts_hi_us)
            & (disc >= disc_lo_pct)
            & (disc <= disc_hi_pct)
            & (qty < max_qty_cents)
        )
        rev = price[m] * disc[m]
        return pd.DataFrame(
            {"_n": [int(m.sum())], "_r": [str(int(rev.sum()))]}
        )

    parts = lineitem.select_columns(
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]
    ).map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["_n"].sum()) if len(parts) else 0
    rev = sum(int(s) for s in parts["_r"]) if len(parts) else 0
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "n_items": pa.array([n], pa.int64()),
                "revenue": pa.array([rev], pa.int64()),
            }
        )
    )


def gini_by_group(ds, cfg: EngineConfig, *, group_col: str,
                  value_col: str):
    """Exact per-group Gini inequality coefficient over a money column,
    emitted as INTEGER sufficient statistics: (group, n, sum_cents,
    gini_num) with gini_num = Σᵢ (2i − n − 1)·x₍ᵢ₎ over the group's values
    sorted ascending (1-based i) — Gini = gini_num / (n · sum_cents), a
    single float division left to the consumer so the row hashes exactly.
    The numerator is invariant under permutations of tied values, so no
    tie-break rule is needed.

    Scale shape: per batch ONE value-histogram partial (group, cents,
    cnt) — bounded by distinct price points, not rows; Ray's groupby
    co-locates each group's combined histogram, where prefix counts give
    the closed form per distinct value v with count c after P
    predecessors: Σ over its rank block of (2i − n − 1) = c·(2P + c − n),
    so gini_num = Σ_v v·c·(2P + c − n). Per-group state is histogram-
    bounded; group count is small by construction (a reporting dimension).
    """

    def partial(t: pa.Table) -> pd.DataFrame:
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64) * 100.0
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {"g": t.column(group_col).to_pandas(), "cents": cents}
            )
            .groupby(["g", "cents"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )

    def finish(g: pd.DataFrame) -> pa.Table:
        h = (
            g.groupby("cents", sort=False)["cnt"].sum().sort_index()
        )
        v = h.index.to_numpy(np.int64)
        c = h.to_numpy(np.int64)
        n = int(c.sum())
        p = np.concatenate(([np.int64(0)], np.cumsum(c)[:-1]))
        gini_num = int((v * c * (2 * p + c - n)).sum())
        return pa.table(
            {
                group_col: pa.array([g["g"].iloc[0]], pa.string()),
                "n": pa.array([n], pa.int64()),
                "sum_cents": pa.array([int((v * c).sum())], pa.int64()),
                "gini_num": pa.array([gini_num], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(finish, batch_format="pandas")
    )


def dispersion_by_group(ds, cfg: EngineConfig, *, group_col: str,
                        value_col: str):
    """Exact per-group robust dispersion: doubled median and quadrupled
    median-absolute-deviation, kept INTEGER so the row hashes exactly —
    (group, n:int64, med2:int64, mad4:int64) with

        med2 = 2·median(cents)            (odd n: 2·middle;
                                           even n: lower + upper middle)
        mad4 = 2·median(|2·cents − med2|) (same rule on the deviations)

    so median = med2/2 and MAD = mad4/4, each one float division left to
    the consumer. The doubling makes the even-n interpolated median an
    integer (x+y instead of (x+y)/2), matching DuckDB's ``2*median()`` /
    interpolated quantile exactly while staying order-independent.

    Scale shape: the same value-histogram partials as ``gini_by_group``
    (bounded by distinct price points, not rows); per group both medians
    come from searchsorted on the histogram's cumulative counts — the
    deviation pass reuses the histogram (|2v − med2| with the same
    counts), so no second exchange."""

    def partial(t: pa.Table) -> pd.DataFrame:
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64) * 100.0
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {"g": t.column(group_col).to_pandas(), "cents": cents}
            )
            .groupby(["g", "cents"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )

    def med2_of(v: np.ndarray, c: np.ndarray) -> int:
        """2·median of a sorted value histogram (v ascending, counts c)."""
        n = int(c.sum())
        cum = np.cumsum(c)
        if n % 2 == 1:
            return 2 * int(v[np.searchsorted(cum, (n + 1) // 2)])
        lo = int(v[np.searchsorted(cum, n // 2)])
        hi = int(v[np.searchsorted(cum, n // 2 + 1)])
        return lo + hi

    def finish(g: pd.DataFrame) -> pa.Table:
        h = g.groupby("cents", sort=False)["cnt"].sum().sort_index()
        v = h.index.to_numpy(np.int64)
        c = h.to_numpy(np.int64)
        n = int(c.sum())
        med2 = med2_of(v, c)
        dev = pd.Series(c, index=np.abs(2 * v - med2)).groupby(
            level=0
        ).sum().sort_index()
        mad4 = med2_of(
            dev.index.to_numpy(np.int64), dev.to_numpy(np.int64)
        )
        return pa.table(
            {
                group_col: pa.array([g["g"].iloc[0]], pa.string()),
                "n": pa.array([n], pa.int64()),
                "med2": pa.array([med2], pa.int64()),
                "mad4": pa.array([mad4], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(finish, batch_format="pandas")
    )


def weighted_median_by_group(ds, cfg: EngineConfig, *, group_col: str,
                             value_col: str, weight_col: str):
    """Exact per-group WEIGHTED doubled median — the robust center when
    rows carry multiplicity (price weighted by quantity, latency by
    request count): (group, w_total:int64, wmed2:int64) with

        wmed2 = (min v : cumw(v) ≥ ⌈(W+1)/2⌉… precisely
                 lo = min v with cumw ≥ (W+1)//2,
                 hi = min v with cumw ≥ W//2 + 1,  wmed2 = lo + hi)

    over value-ascending cumulative weights — for odd W both targets
    coincide (2·the weighted middle), for even W it is the lower+upper
    middle, and with all weights 1 it reduces exactly to
    ``dispersion_by_group``'s med2. Weights must be positive integers
    (quantities); values are money → integer cents.

    Scale shape: per-batch (group, cents)→Σweight histogram partials
    (bounded by distinct price points), one tiny exchange, per group a
    single cumsum + two searchsorted probes."""

    def partial(t: pa.Table) -> pd.DataFrame:
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64) * 100.0
        ).astype(np.int64)
        w = np.rint(
            np.asarray(t.column(weight_col), np.float64)
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "g": t.column(group_col).to_pandas(),
                    "cents": cents,
                    "w": w,
                }
            )
            .groupby(["g", "cents"], sort=False)["w"]
            .sum()
            .rename("w")
            .reset_index()
        )

    def finish(g: pd.DataFrame) -> pa.Table:
        h = g.groupby("cents", sort=False)["w"].sum().sort_index()
        v = h.index.to_numpy(np.int64)
        cw = np.cumsum(h.to_numpy(np.int64))
        wt = int(cw[-1])
        lo = int(v[np.searchsorted(cw, (wt + 1) // 2)])
        hi = int(v[np.searchsorted(cw, wt // 2 + 1)])
        return pa.table(
            {
                group_col: pa.array([g["g"].iloc[0]], pa.string()),
                "w_total": pa.array([wt], pa.int64()),
                "wmed2": pa.array([lo + hi], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(finish, batch_format="pandas")
    )


def trimmed_stats_by_group(ds, cfg: EngineConfig, *, group_col: str,
                           value_col: str, trim_pct: int = 10):
    """Exact per-group trimmed-mean SUFFICIENT STATISTICS — the robust
    center that drops the k = ⌊n·trim_pct/100⌋ smallest and largest
    values before averaging (the one float division left to the
    consumer): (group, n:int64, n_kept:int64, sum_kept:int64) where
    sum_kept = Σ of the cents ranked k+1 … n−k under value-ascending
    order (ties resolved by value, so the kept MULTISET is
    order-of-arrival independent and exact).

    Scale shape: the gini/dispersion value-histogram partials (bounded
    by distinct price points, not rows); per group the two cut points
    come from searchsorted on cumulative counts and the kept sum is one
    weighted prefix-sum difference with boundary-value clipping — no
    row-level sort anywhere."""
    if not (0 <= trim_pct < 50):
        raise ValueError(f"trim_pct must be in [0, 50), got {trim_pct}")

    def partial(t: pa.Table) -> pd.DataFrame:
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64) * 100.0
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {"g": t.column(group_col).to_pandas(), "cents": cents}
            )
            .groupby(["g", "cents"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )

    def finish(g: pd.DataFrame) -> pa.Table:
        h = g.groupby("cents", sort=False)["cnt"].sum().sort_index()
        v = h.index.to_numpy(np.int64)
        c = h.to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        k = n * trim_pct // 100
        lo_rank, hi_rank = k + 1, n - k  # 1-based kept range
        # full buckets strictly inside the kept range plus clipped
        # boundary buckets: for each bucket, kept occurrences =
        # overlap of its rank interval [cum−c+1, cum] with [lo, hi]
        lo_in = np.maximum(cum - c + 1, lo_rank)
        hi_in = np.minimum(cum, hi_rank)
        take = np.maximum(hi_in - lo_in + 1, 0)
        sum_kept = int((v * take).sum())
        return pa.table(
            {
                group_col: pa.array([g["g"].iloc[0]], pa.string()),
                "n": pa.array([n], pa.int64()),
                "n_kept": pa.array([max(n - 2 * k, 0)], pa.int64()),
                "sum_kept": pa.array([sum_kept], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(finish, batch_format="pandas")
    )


def spearman_by_group(ds, cfg: EngineConfig, *, group_col: str,
                      x_col: str, y_col: str,
                      x_scale: int = 1, y_scale: int = 100):
    """Exact per-group Spearman sufficient statistics — monotone-
    association screening that Pearson-on-values misses: with tie-
    AVERAGED doubled ranks 2r(v) = 2·|{u < v}| + |{u = v}| + 1 (always
    integer; Σ2r ≡ n(n+1)), emit

        (group, n:int64, d2:int64 = Σ(2rx − 2ry)²,
         tie_x:int64 = Σ(t³−t), tie_y:int64)

    — the classic tie-corrected ρ is one float formula away and every
    ingredient is exact. d2 ≤ 4n³ must fit int64 (n ≲ 1.2·10⁶ per
    group; shard larger groups by time first — the cusum bound note).
    Values quantize by the given scales (quantities ×1, money ×100).

    Scale shape: ONE hash(group) exchange co-locates each group, ranks
    come from np.unique inverse + cumulative counts (no per-row sort
    beyond the one lexsort), the squared-difference sum accumulates in
    arbitrary-precision Python ints."""
    from .canonicalize import bucket_of

    nb = cfg.num_buckets

    def project(t: pa.Table) -> pd.DataFrame:
        g = t.column(group_col).to_pandas().astype(str)
        return pd.DataFrame(
            {
                "g": g.to_numpy(object),
                "x": np.rint(
                    np.asarray(t.column(x_col), np.float64) * x_scale
                ).astype(np.int64),
                "y": np.rint(
                    np.asarray(t.column(y_col), np.float64) * y_scale
                ).astype(np.int64),
                "_bucket": bucket_of(g, nb),
            }
        )

    def rank2(v: np.ndarray) -> tuple[np.ndarray, int]:
        """Tie-averaged doubled ranks + Σ(t³−t)."""
        uniq, inv, cnt = np.unique(
            v, return_inverse=True, return_counts=True
        )
        below = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        r2 = 2 * below[inv] + cnt[inv] + 1
        ties = int(sum(int(c) ** 3 - int(c) for c in cnt if c > 1))
        return r2, ties

    def finish(grp: pd.DataFrame) -> pa.Table:
        out_g, out_n, out_d2, out_tx, out_ty = [], [], [], [], []
        for g, gdf in grp.groupby("g", sort=False):
            rx, tx = rank2(gdf["x"].to_numpy(np.int64))
            ry, ty = rank2(gdf["y"].to_numpy(np.int64))
            d = rx.astype(object) - ry.astype(object)
            out_g.append(g)
            out_n.append(len(gdf))
            out_d2.append(int((d * d).sum()))
            out_tx.append(tx)
            out_ty.append(ty)
        return pa.table(
            {
                group_col: pa.array(out_g, pa.string()),
                "n": pa.array(out_n, pa.int64()),
                "d2": pa.array(out_d2, pa.int64()),
                "tie_x": pa.array(out_tx, pa.int64()),
                "tie_y": pa.array(out_ty, pa.int64()),
            }
        )

    return (
        ds.map_batches(project, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(finish, batch_format="pandas")
    )


def mad_outliers(ds, cfg: EngineConfig, *, group_col: str,
                 value_col: str, id_col: str, k_halves: int = 7):
    """Robust per-group outlier flags via the median/MAD rule — the
    screen that survives the heavy tails that break z-scores: emit the
    rows where

        |value − median| > (k_halves/2) · MAD
        ⇔ 4·|2·cents − med2| > k_halves·mad4    (all integers;
          LHS = 8·|c − med|, RHS = 4·k_halves·MAD)

    using ``dispersion_by_group``'s doubled/quadrupled integer
    statistics (k_halves = 7 is the classic 3.5·MAD fence). Output
    (id_col:int64, group, cents:int64). Groups with mad4 = 0 (over half
    the mass on one value) flag every row off the median — the standard
    caveat, left to callers.

    Scale shape: the dispersion stats collapse to O(groups) rows and
    broadcast via ray.put; the corpus then streams shuffle-free through
    one vectorized filter."""
    import ray

    from ..state.broadcast import cached_get

    stats = dispersion_by_group(
        ds, cfg, group_col=group_col, value_col=value_col
    ).to_pandas()
    table = {
        r[group_col]: (int(r["med2"]), int(r["mad4"]))
        for _, r in stats.iterrows()
    }
    ref = ray.put(table)

    def filt(t: pa.Table) -> pa.Table:
        tab = cached_get(ref)
        g = t.column(group_col).to_pandas().astype(str)
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64) * 100.0
        ).astype(np.int64)
        med2 = np.fromiter(
            (tab.get(x, (0, 0))[0] for x in g), np.int64, len(g)
        )
        mad4 = np.fromiter(
            (tab.get(x, (0, 0))[1] for x in g), np.int64, len(g)
        )
        mask = 4 * np.abs(2 * cents - med2) > k_halves * mad4
        keep = np.nonzero(mask)[0]
        idx = pa.array(keep)
        return pa.table(
            {
                id_col: t.column(id_col).cast(pa.int64()).take(idx),
                group_col: t.column(group_col).take(idx),
                "cents": pa.array(cents[keep]),
            }
        )

    out = ds.map_batches(filt, batch_format="pyarrow")
    out._mad_pin = ref
    return out


def tail_risk_by_group(ds, cfg: EngineConfig, *, group_col: str,
                       value_col: str, tail_pct: int = 5):
    """Exact per-group upper-tail (CVaR-style) sufficient statistics —
    the revenue-concentration / risk complement to
    ``trimmed_stats_by_group``'s robust center: with k = ⌈n·pct/100⌉
    (at least one row whenever pct > 0 and n > 0),

        (group, n:int64, n_tail:int64 = k,
         sum_tail:int64 = Σ of the k LARGEST cents)

    so CVaR_α = sum_tail / (100·k) dollars is one division away. Ties at
    the cut value are resolved by COUNT, not identity (the tail takes
    exactly k occurrences), which keeps the result order-independent.

    Scale shape: the shared value-histogram partials; per group one
    reversed cumulative count + a single searchsorted cut with
    boundary-bucket clipping."""
    if not (0 < tail_pct <= 100):
        raise ValueError(f"tail_pct must be in (0, 100], got {tail_pct}")

    def partial(t: pa.Table) -> pd.DataFrame:
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64) * 100.0
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {"g": t.column(group_col).to_pandas(), "cents": cents}
            )
            .groupby(["g", "cents"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )

    def finish(g: pd.DataFrame) -> pa.Table:
        h = g.groupby("cents", sort=False)["cnt"].sum().sort_index()
        v = h.index.to_numpy(np.int64)
        c = h.to_numpy(np.int64)
        n = int(c.sum())
        k = -(-n * tail_pct // 100)  # ceil
        # take from the top: reversed cumulative occurrence ranks
        rev_cum = np.cumsum(c[::-1])[::-1]  # occurrences >= v[i]
        take = np.minimum(rev_cum, k) - np.minimum(
            rev_cum - c, k
        )
        sum_tail = int((v * take).sum())
        return pa.table(
            {
                group_col: pa.array([g["g"].iloc[0]], pa.string()),
                "n": pa.array([n], pa.int64()),
                "n_tail": pa.array([k], pa.int64()),
                "sum_tail": pa.array([sum_tail], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .map_groups(finish, batch_format="pandas")
    )


def join_skew(left_ds, right_ds, cfg: EngineConfig, *,
              left_key: str, right_key: str, k_top: int = 10):
    """Join-key skew profile — the scale-planning diagnostic behind every
    shuffle-join decision (``join_size`` gives the TOTAL output size;
    this names the keys that dominate it): the top-``k_top`` keys by
    output contribution n_left(key)·n_right(key), ordered (contribution
    desc, key asc). Emits (key:string, n_left:int64, n_right:int64,
    contribution:int64). Keys missing from one side contribute 0 and
    never rank (inner-join semantics).

    Scale shape: per-batch per-side key-count partials (bounded by
    distinct keys), ONE hash(key) exchange folds both sides and forms
    the product, map-side partial top-k per bucket → one tiny final
    block (the group_topk global pattern)."""
    from .canonicalize import bucket_of

    if k_top < 1:
        raise ValueError(f"k_top must be >= 1, got {k_top}")
    nb = cfg.num_buckets

    def counts(key: str, side: int):
        def f(t: pa.Table) -> pd.DataFrame:
            ks = t.column(key).to_pandas().astype(str)
            c = ks.value_counts()
            return pd.DataFrame(
                {
                    "key": c.index.to_numpy(object),
                    "n": c.to_numpy(np.int64),
                    "side": np.full(len(c), side, np.int8),
                    "_bucket": bucket_of(
                        pd.Series(c.index.to_numpy(object)), nb
                    ),
                }
            )

        return f

    def topk_frame(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["contribution", "key"], ascending=[False, True],
            kind="mergesort",
        ).head(k_top)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.pivot_table(index="key", columns="side", values="n",
                          aggfunc="sum")
            .reindex(columns=[0, 1], fill_value=0)
            .fillna(0)
            .reset_index()
        )
        s["n_left"] = s[0].astype(np.int64)
        s["n_right"] = s[1].astype(np.int64)
        # products in PYTHON ints: a hot key at corpus scale overflows
        # int64 (the tv_distance/group_regression overflow rule); the
        # final int64 output cast then fails LOUDLY instead of wrapping
        s["contribution"] = [
            int(a) * int(b)
            for a, b in zip(s["n_left"], s["n_right"])
        ]
        s = s[[c > 0 for c in s["contribution"]]]
        return topk_frame(
            s[["key", "n_left", "n_right", "contribution"]]
        )

    def final(df: pd.DataFrame) -> pa.Table:
        top = topk_frame(df)
        return pa.table(
            {
                "key": pa.array(top["key"].to_numpy(object), pa.string()),
                "n_left": pa.array(top["n_left"].to_numpy(np.int64)),
                "n_right": pa.array(top["n_right"].to_numpy(np.int64)),
                "contribution": pa.array(
                    top["contribution"].to_numpy(np.int64)
                ),
            }
        )

    tagged = left_ds.map_batches(
        counts(left_key, 0), batch_format="pyarrow"
    ).union(
        right_ds.map_batches(counts(right_key, 1), batch_format="pyarrow")
    )
    return (
        tagged.groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def quantile_map(ds, cfg: EngineConfig, *, group_col: str,
                 value_col: str, from_group: str, to_group: str):
    """Exact quantile normalization between two groups — map every
    distinct value of ``from_group`` onto ``to_group``'s distribution
    (the rank-preserving transform behind batch-effect correction and
    cross-source score alignment): for a from-value v with cumulative
    count r = |{u ≤ v}| out of n_a, the mapped value is the
    ⌈r·n_b/n_a⌉-th smallest of the to-group — all integer order
    statistics, no interpolation. Emits (cents_from:int64,
    cents_to:int64), one row per distinct from-value.

    Scale shape: value-histogram partials (bounded by distinct price
    points); BOTH groups' histograms must meet, so the fold is one task
    per group pair (the gini/mad per-group containment note — the
    histogram, not the rows, is the task input)."""

    def partial(t: pa.Table) -> pd.DataFrame:
        g = t.column(group_col).to_pandas().astype(str)
        keep = g.isin([from_group, to_group]).to_numpy()
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64)[keep] * 100.0
        ).astype(np.int64)
        side = (g[keep] == to_group).to_numpy().astype(np.int8)
        df = (
            pd.DataFrame({"side": side, "cents": cents})
            .groupby(["side", "cents"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        df["_b"] = np.zeros(len(df), np.int32)
        return df

    def finish(g: pd.DataFrame) -> pa.Table:
        a = (
            g[g["side"] == 0]
            .groupby("cents", sort=False)["cnt"]
            .sum()
            .sort_index()
        )
        b = (
            g[g["side"] == 1]
            .groupby("cents", sort=False)["cnt"]
            .sum()
            .sort_index()
        )
        if len(a) == 0 or len(b) == 0:
            return pa.table(
                {
                    "cents_from": pa.array([], pa.int64()),
                    "cents_to": pa.array([], pa.int64()),
                }
            )
        av = a.index.to_numpy(np.int64)
        cum_a = np.cumsum(a.to_numpy(np.int64))
        bv = b.index.to_numpy(np.int64)
        cum_b = np.cumsum(b.to_numpy(np.int64))
        n_a, n_b = int(cum_a[-1]), int(cum_b[-1])
        # Overflow-safe cross-multiplication: cum_a * n_b can exceed int64
        # when both groups are ~3e9+ rows; promote to Python ints in that
        # regime (same rule as tv_distance / join_skew / group_regression).
        if n_a * n_b + n_a - 1 <= 2**63 - 1:
            target = (cum_a * n_b + n_a - 1) // n_a  # ceil, >= 1
        else:
            target = np.array(
                [(int(c) * n_b + n_a - 1) // n_a for c in cum_a],
                dtype=np.int64,
            )
        mapped = bv[np.searchsorted(cum_b, target)]
        return pa.table(
            {
                "cents_from": pa.array(av),
                "cents_to": pa.array(mapped),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(finish, batch_format="pandas")
    )


def order_balance(orders, lineitem, cfg: EngineConfig, *,
                  k_top: int = 20):
    """Header-vs-detail reconciliation — the invoice audit every billing
    pipeline runs: per order, the header total against the sum of its
    line extended prices (both integer cents), emitting the ``k_top``
    WORST orders by |diff| (desc, then orderkey asc):
    (o_orderkey:int64, n_lines:int64, header_cents:int64,
    lines_cents:int64, diff:int64 = header − lines). Orders without
    lines are excluded (inner semantics; ``fk_audit`` owns missing-key
    detection).

    Scale shape: line rows pre-reduce to per-(batch, order) partial sums
    map-side; ONE shared hash(orderkey) exchange co-locates header and
    partials (the ship_latency pattern); per-bucket merge + partial
    top-k → one tiny final block."""
    from .canonicalize import bucket_of

    if k_top < 1:
        raise ValueError(f"k_top must be >= 1, got {k_top}")
    nb = cfg.num_buckets

    def tag_orders(t: pa.Table) -> pd.DataFrame:
        okey = np.asarray(t.column("o_orderkey"), np.int64)
        cents = np.rint(
            np.asarray(t.column("o_totalprice"), np.float64) * 100.0
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "okey": okey,
                "cents": cents,
                "n": np.zeros(len(okey), np.int64),
                "side": np.zeros(len(okey), np.int8),
                "_bucket": bucket_of(pd.Series(okey), nb),
            }
        )

    def tag_lines(t: pa.Table) -> pd.DataFrame:
        okey = np.asarray(t.column("l_orderkey"), np.int64)
        cents = np.rint(
            np.asarray(t.column("l_extendedprice"), np.float64) * 100.0
        ).astype(np.int64)
        p = (
            pd.DataFrame({"okey": okey, "cents": cents})
            .groupby("okey", sort=False)["cents"]
            .agg(cents="sum", n="size")
            .reset_index()
        )
        return pd.DataFrame(
            {
                "okey": p["okey"].to_numpy(np.int64),
                "cents": p["cents"].to_numpy(np.int64),
                "n": p["n"].to_numpy(np.int64),
                "side": np.ones(len(p), np.int8),
                "_bucket": bucket_of(p["okey"], nb),
            }
        )

    def topk_frame(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(_a=np.abs(df["diff"].to_numpy(np.int64)))
        out = df.sort_values(
            ["_a", "o_orderkey"], ascending=[False, True],
            kind="mergesort",
        ).head(k_top)
        return out.drop(columns="_a")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        hd = g[g["side"] == 0][["okey", "cents"]].rename(
            columns={"cents": "header_cents"}
        )
        ln = (
            g[g["side"] == 1]
            .groupby("okey", sort=False)[["cents", "n"]]
            .sum()
            .reset_index()
            .rename(columns={"cents": "lines_cents", "n": "n_lines"})
        )
        m = hd.merge(ln, on="okey")
        m["diff"] = m["header_cents"] - m["lines_cents"]
        m = m.rename(columns={"okey": "o_orderkey"})
        return topk_frame(
            m[["o_orderkey", "n_lines", "header_cents",
               "lines_cents", "diff"]]
        )

    def final(df: pd.DataFrame) -> pa.Table:
        top = topk_frame(df)
        return pa.table(
            {
                "o_orderkey": pa.array(
                    top["o_orderkey"].to_numpy(np.int64)
                ),
                "n_lines": pa.array(top["n_lines"].to_numpy(np.int64)),
                "header_cents": pa.array(
                    top["header_cents"].to_numpy(np.int64)
                ),
                "lines_cents": pa.array(
                    top["lines_cents"].to_numpy(np.int64)
                ),
                "diff": pa.array(top["diff"].to_numpy(np.int64)),
            }
        )

    tagged = orders.map_batches(
        tag_orders, batch_format="pyarrow"
    ).union(lineitem.map_batches(tag_lines, batch_format="pyarrow"))
    return (
        tagged.groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def tv_distance(ds, cfg: EngineConfig, *, group_col: str,
                value_col: str, group_a: str, group_b: str):
    """Exact total-variation distance numerator between two groups'
    value distributions — the categorical-friendly complement to
    ``rank_tests``' KS (which needs an order): one row

        (n_a:int64, n_b:int64, tv_num:int64 =
         Σ_v |c_a(v)·n_b − c_b(v)·n_a|)

    so TV = tv_num / (2·n_a·n_b) — cross-multiplied to stay integer,
    summed over the union of observed values (a value absent from one
    side contributes its full cross-count).

    Scale shape: the quantile_map histogram fold — value-bounded
    partials, one per-group-pair task over the joint histogram."""

    def partial(t: pa.Table) -> pd.DataFrame:
        g = t.column(group_col).to_pandas().astype(str)
        keep = g.isin([group_a, group_b]).to_numpy()
        cents = np.rint(
            np.asarray(t.column(value_col), np.float64)[keep] * 100.0
        ).astype(np.int64)
        side = (g[keep] == group_b).to_numpy().astype(np.int8)
        df = (
            pd.DataFrame({"side": side, "cents": cents})
            .groupby(["side", "cents"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        df["_b"] = np.zeros(len(df), np.int32)
        return df

    def finish(g: pd.DataFrame) -> pa.Table:
        piv = (
            g.groupby(["cents", "side"], sort=False)["cnt"]
            .sum()
            .unstack(fill_value=0)
            .reindex(columns=[0, 1], fill_value=0)
        )
        ca = piv[0].to_numpy(np.int64)
        cb = piv[1].to_numpy(np.int64)
        n_a, n_b = int(ca.sum()), int(cb.sum())
        tv = int(
            np.abs(
                ca.astype(object) * n_b - cb.astype(object) * n_a
            ).sum()
        )
        return pa.table(
            {
                "n_a": pa.array([n_a], pa.int64()),
                "n_b": pa.array([n_b], pa.int64()),
                "tv_num": pa.array([tv], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(finish, batch_format="pandas")
    )


# ------------------------------------------------------ TPC-H join shapes --

def _sentinel_ds(cols: dict):
    """One-row marker dataset unioned in before a final fold so the fold
    ALWAYS executes (a fully-empty upstream otherwise yields zero blocks
    and the pipeline loses its output schema — the suffix_blocking
    sentinel rule). ``cols`` maps name → (value, pyarrow type); the final
    stage drops the marker row by its impossible value. Arrow block, like
    every stage output in these pipelines: Ray treats a typed EMPTY
    pandas block as schema-less (PandasBlockSchema(names=[])), which
    loses the output schema when a whole branch is empty, and mixing
    arrow and pandas blocks in one union breaks the sort sampler — so
    these operators return pa.Table from every stage."""
    import ray.data as rd

    return rd.from_arrow(
        pa.table({k: pa.array([v], t) for k, (v, t) in cols.items()})
    )


def _pat(df: pd.DataFrame) -> pa.Table:
    """pandas → arrow block (schema survives empty frames). Metadata is
    stripped: the pandas schema-metadata dict defeats Ray's schema
    dedup hashing (it logs 'Failed to hash the schemas' per block)."""
    return pa.Table.from_pandas(
        df, preserve_index=False
    ).replace_schema_metadata(None)



_DAY_US = np.int64(86_400_000_000)


def order_priority_check(orders, lineitem, cfg: EngineConfig, *,
                         date_lo_us: int, date_hi_us: int,
                         late_days: int = 10):
    """TPC-H Q4 shape (adapted: no l_commitdate in the schema — "late" is
    l_shipdate > o_orderdate + ``late_days``): per o_orderpriority, count
    orders in [date_lo, date_hi) with AT LEAST ONE late lineitem. The
    EXISTS-semi-join pattern, reduced to a per-order MAX: EXISTS(ship >
    odate + d) ⟺ max(ship) > odate + d, so lineitem pre-aggregates to one
    row per order before the match.

    Scale shape: date-filtered orders and per-order max-shipdate partials
    (pre-reduced map-side) meet in ONE shared hash(orderkey) exchange;
    per-priority partial counts (≤ |priorities| rows per bucket) merge in
    a tiny final exchange keyed on the priority string."""
    from .canonicalize import bucket_of

    nb = cfg.num_buckets
    late_us = np.int64(late_days) * _DAY_US

    def o_rows(t: pa.Table) -> pd.DataFrame:
        od = np.asarray(
            t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        keep = (od >= date_lo_us) & (od < date_hi_us)
        k = np.asarray(t.column("o_orderkey"), np.int64)[keep]
        return _pat(pd.DataFrame(
            {
                "k": k,
                "ts": od[keep],
                "pri": t.column("o_orderpriority").to_pandas()[keep]
                .astype(str).to_numpy(object),
                "_side": np.zeros(len(k), np.int8),
                "_bucket": (k % nb).astype(np.int32),
            }
        ))

    def l_rows(t: pa.Table) -> pd.DataFrame:
        k = np.asarray(t.column("l_orderkey"), np.int64)
        sd = np.asarray(
            t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        # map-side pre-reduce: one (order, max ship) row per order per batch
        part = (
            pd.DataFrame({"k": k, "ts": sd})
            .groupby("k", sort=False)["ts"].max().reset_index()
        )
        part["pri"] = ""
        part["_side"] = np.ones(len(part), np.int8)
        part["_bucket"] = (part["k"].to_numpy(np.int64) % nb).astype(np.int32)
        return _pat(part[["k", "ts", "pri", "_side", "_bucket"]])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"pri": pd.Series(dtype="string"),
             "cnt": pd.Series(dtype=np.int64),
             "_b2": pd.Series(dtype=np.int32)}
        )
        ords = g[g["_side"] == 0]
        lis = g[g["_side"] == 1]
        if len(ords) == 0 or len(lis) == 0:
            return _pat(empty)
        last = lis.groupby("k", sort=False)["ts"].max().rename("ship")
        m = ords.merge(last, left_on="k", right_index=True)
        late = (
            m["ship"].to_numpy(np.int64)
            > m["ts"].to_numpy(np.int64) + late_us
        )
        m = m[late]
        if len(m) == 0:
            return _pat(empty)
        c = (
            m.groupby("pri", sort=False).size().rename("cnt").reset_index()
        )
        c["_b2"] = bucket_of(c["pri"].astype(str), nb)
        return _pat(c[["pri", "cnt", "_b2"]])

    def final(g: pd.DataFrame) -> pa.Table:
        g = g[g["cnt"] > 0]  # drop the schema sentinel
        if len(g) == 0:
            return pa.table(
                {"o_orderpriority": pa.array([], pa.string()),
                 "order_count": pa.array([], pa.int64())}
            )
        s = g.groupby("pri", sort=False)["cnt"].sum().reset_index()
        s = s.sort_values("pri", kind="mergesort")
        return pa.table(
            {"o_orderpriority": pa.array(s["pri"], pa.string()),
             "order_count": pa.array(s["cnt"].to_numpy(np.int64))}
        )

    o = orders.map_batches(o_rows, batch_format="pyarrow")
    li = lineitem.map_batches(l_rows, batch_format="pyarrow")
    sentinel = _sentinel_ds(
        {"pri": ("", pa.string()), "cnt": (0, pa.int64()),
         "_b2": (0, pa.int32())}
    )
    return (
        o.union(li)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .union(sentinel)
        .groupby("_b2")
        .map_groups(final, batch_format="pandas")
    )


def shipmode_priority(orders, lineitem, cfg: EngineConfig, *,
                      slow_days: int = 10):
    """TPC-H Q12 shape (adapted: no l_shipmode — lineitems classify by
    shipping delay instead: 'FAST' when ship < odate + ``slow_days``
    days, else 'SLOW'): per class, count lineitems of high-priority
    orders ('1-URGENT'/'2-HIGH') and of lower-priority orders.

    Scale shape: ONE shared hash(orderkey) exchange (orders project to
    (key, date, is_high) map-side; lineitems to (key, shipdate)); the
    per-class partial counts collapse to ≤ 2×2 rows per bucket and merge
    in one tiny final task."""
    nb = cfg.num_buckets

    def o_rows(t: pa.Table) -> pd.DataFrame:
        k = np.asarray(t.column("o_orderkey"), np.int64)
        pri = t.column("o_orderpriority").to_pandas().astype(str)
        high = pri.isin(["1-URGENT", "2-HIGH"]).to_numpy()
        od = np.asarray(
            t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        return _pat(pd.DataFrame(
            {
                "k": k,
                "ts": od,
                "high": high.astype(np.int8),
                "_side": np.zeros(len(k), np.int8),
                "_bucket": (k % nb).astype(np.int32),
            }
        ))

    def l_rows(t: pa.Table) -> pd.DataFrame:
        k = np.asarray(t.column("l_orderkey"), np.int64)
        sd = np.asarray(
            t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        return _pat(pd.DataFrame(
            {
                "k": k,
                "ts": sd,
                "high": np.zeros(len(k), np.int8),
                "_side": np.ones(len(k), np.int8),
                "_bucket": (k % nb).astype(np.int32),
            }
        ))

    slow_us = np.int64(slow_days) * _DAY_US

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"cls": pd.Series(dtype="string"),
             "high_cnt": pd.Series(dtype=np.int64),
             "low_cnt": pd.Series(dtype=np.int64)}
        )
        ords = g[g["_side"] == 0][["k", "ts", "high"]]
        lis = g[g["_side"] == 1][["k", "ts"]]
        if len(ords) == 0 or len(lis) == 0:
            return _pat(empty)
        m = lis.merge(ords, on="k", suffixes=("", "_o"))
        if len(m) == 0:
            return _pat(empty)
        slow = (
            m["ts"].to_numpy(np.int64)
            >= m["ts_o"].to_numpy(np.int64) + slow_us
        )
        high = m["high"].to_numpy(np.int8) == 1
        out = pd.DataFrame(
            {
                "cls": np.where(slow, "SLOW", "FAST"),
                "h": high.astype(np.int64),
                "l": (~high).astype(np.int64),
            }
        )
        c = out.groupby("cls", sort=False).agg(
            high_cnt=("h", "sum"), low_cnt=("l", "sum")
        ).reset_index()
        return _pat(c)

    def final(df: pd.DataFrame) -> pa.Table:
        df = df[(df["high_cnt"] + df["low_cnt"]) > 0]  # drop sentinel
        if len(df) == 0:
            return pa.table(
                {"ship_class": pa.array([], pa.string()),
                 "high_line_count": pa.array([], pa.int64()),
                 "low_line_count": pa.array([], pa.int64())}
            )
        s = df.groupby("cls", sort=False).agg(
            high_line_count=("high_cnt", "sum"),
            low_line_count=("low_cnt", "sum"),
        ).reset_index().sort_values("cls", kind="mergesort")
        return pa.table(
            {"ship_class": pa.array(s["cls"], pa.string()),
             "high_line_count": pa.array(
                 s["high_line_count"].to_numpy(np.int64)),
             "low_line_count": pa.array(
                 s["low_line_count"].to_numpy(np.int64))}
        )

    o = orders.map_batches(o_rows, batch_format="pyarrow")
    li = lineitem.map_batches(l_rows, batch_format="pyarrow")
    sentinel = _sentinel_ds(
        {"cls": ("", pa.string()), "high_cnt": (0, pa.int64()),
         "low_cnt": (0, pa.int64())}
    )
    return (
        o.union(li)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def customer_distribution(customer, orders, cfg: EngineConfig, *,
                          exclude_status: str = "F"):
    """TPC-H Q13 shape: distribution of customers by order count — LEFT
    join customers to their orders (excluding ``exclude_status`` orders),
    emit (c_count, custdist) INCLUDING the zero-order customers, sorted
    custdist DESC then c_count DESC.

    Scale shape: orders pre-aggregate map-side to (custkey, partial
    count); customers ride the same ONE hash(custkey) exchange as bare
    keys; per bucket the left join + fillna(0) reduces to a (c_count,
    ncust) histogram partial (≤ |distinct counts| rows), merged in one
    tiny final task."""
    nb = cfg.num_buckets

    def c_rows(t: pa.Table) -> pd.DataFrame:
        k = np.asarray(t.column("c_custkey"), np.int64)
        return _pat(pd.DataFrame(
            {
                "k": k,
                "cnt": np.zeros(len(k), np.int64),
                "_side": np.zeros(len(k), np.int8),
                "_bucket": (k % nb).astype(np.int32),
            }
        ))

    def o_rows(t: pa.Table) -> pd.DataFrame:
        st = t.column("o_orderstatus").to_pandas().astype(str)
        keep = (st != exclude_status).to_numpy()
        k = np.asarray(t.column("o_custkey"), np.int64)[keep]
        part = (
            pd.DataFrame({"k": k})
            .groupby("k", sort=False).size().rename("cnt").reset_index()
        )
        part["_side"] = np.ones(len(part), np.int8)
        part["_bucket"] = (part["k"].to_numpy(np.int64) % nb).astype(np.int32)
        return _pat(part[["k", "cnt", "_side", "_bucket"]])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cust = g[g["_side"] == 0][["k"]]
        if len(cust) == 0:
            return _pat(pd.DataFrame(
                {"c_count": pd.Series(dtype=np.int64),
                 "ncust": pd.Series(dtype=np.int64)}
            ))
        ords = (
            g[g["_side"] == 1].groupby("k", sort=False)["cnt"].sum()
        )
        cc = cust["k"].map(ords).fillna(0).astype(np.int64)
        return _pat(
            pd.DataFrame({"c_count": cc})
            .groupby("c_count", sort=False).size().rename("ncust")
            .reset_index()
        )

    def final(df: pd.DataFrame) -> pa.Table:
        df = df[df["ncust"] > 0]  # drop the schema sentinel
        if len(df) == 0:
            return pa.table(
                {"c_count": pa.array([], pa.int64()),
                 "custdist": pa.array([], pa.int64())}
            )
        s = df.groupby("c_count", sort=False)["ncust"].sum().reset_index()
        s = s.sort_values(
            ["ncust", "c_count"], ascending=[False, False], kind="mergesort"
        )
        return pa.table(
            {"c_count": pa.array(s["c_count"].to_numpy(np.int64)),
             "custdist": pa.array(s["ncust"].to_numpy(np.int64))}
        )

    c = customer.map_batches(c_rows, batch_format="pyarrow")
    o = orders.map_batches(o_rows, batch_format="pyarrow")
    sentinel = _sentinel_ds(
        {"c_count": (0, pa.int64()), "ncust": (0, pa.int64())}
    )
    return (
        c.union(o)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def small_quantity_revenue(lineitem, part, cfg: EngineConfig, *,
                           brand: str = "Brand#23"):
    """TPC-H Q17 shape: total revenue (exact integer cents) of ``brand``
    lineitems whose quantity is below 0.2 × the part's average lineitem
    quantity — the correlated-scalar-aggregate filter. The fractional
    threshold is decided in exact integers: with q100 = round(qty·100),
    qty_i < 0.2·avg ⟺ 5·q100_i·n < Σ q100 (cross-multiplication, no
    division). Output one row (n_lines, total_cents).

    Scale shape: the brand filter runs DISTRIBUTED over the part read and
    only the surviving partkey set reaches the semi-join (guarded: key set
    ≤ broadcast cap → ray.put + map-side searchsorted; above → the
    bucketed marker exchange — both inside broadcast_exists_join);
    surviving lineitems project to (partkey, q100, cents) and take ONE
    hash(partkey) exchange; each bucket computes per-part (n, Σq100) with
    a hash groupby and filters locally; the two scalar partials per
    bucket merge in one tiny final task."""
    nb = cfg.num_buckets

    def brand_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(t.column("p_brand").cast(pa.string()), brand)
        return pa.table(
            {"p_partkey": t.column("p_partkey").filter(keep).cast(pa.int64())}
        )

    lineitem = broadcast_exists_join(
        lineitem,
        part.map_batches(brand_keys, batch_format="pyarrow"),
        big_key="l_partkey",
        small_key="p_partkey",
        cfg=cfg,
    )

    def l_rows(t: pa.Table) -> pd.DataFrame:
        pk = np.asarray(t.column("l_partkey"), np.int64)
        q100 = np.round(
            np.asarray(t.column("l_quantity"), np.float64) * 100
        ).astype(np.int64)
        cents = np.round(
            np.asarray(t.column("l_extendedprice"), np.float64) * 100
        ).astype(np.int64)
        return _pat(pd.DataFrame(
            {
                "pk": pk,
                "q100": q100,
                "cents": cents,
                "_bucket": (pk % nb).astype(np.int32),
            }
        ))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return _pat(pd.DataFrame(
                {"n": pd.Series(dtype=np.int64),
                 "cents": pd.Series(dtype=np.int64)}
            ))
        agg = g.groupby("pk", sort=False)["q100"].agg(["count", "sum"])
        m = g.merge(agg, left_on="pk", right_index=True)
        keep = (
            5 * m["q100"].to_numpy(np.int64) * m["count"].to_numpy(np.int64)
            < m["sum"].to_numpy(np.int64)
        )
        kept = m[keep]
        return _pat(pd.DataFrame(
            {"n": [np.int64(len(kept))],
             "cents": [np.int64(kept["cents"].sum())]}
        ))

    def final(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {"n_lines": pa.array(
                 [int(df["n"].sum()) if len(df) else 0], pa.int64()),
             "total_cents": pa.array(
                 [int(df["cents"].sum()) if len(df) else 0], pa.int64())}
        )

    sentinel = _sentinel_ds(
        {"n": (0, pa.int64()), "cents": (0, pa.int64())}
    )
    return (
        lineitem.map_batches(l_rows, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


_Q19_PREDICATES = (
    ("Brand#12", 1, 10, 100, 1100),   # brand, size_lo, size_hi, q100_lo, q100_hi
    ("Brand#23", 1, 20, 1000, 2000),
    ("Brand#34", 1, 30, 2000, 3000),
)


def disjunctive_revenue(lineitem, part, cfg: EngineConfig, *,
                        predicates=_Q19_PREDICATES):
    """TPC-H Q19 shape: revenue (exact 1e-4 dollars, price·(100−disc)
    integer units) of lineitems matching ANY of the (brand, size range,
    quantity range) conjunctions — the disjunctive multi-predicate join.
    Quantity bounds compare as q100 ints: q100_lo ≤ round(qty·100) ≤
    q100_hi.

    Scale shape: part filters DISTRIBUTED to the predicate brands (a
    ~|preds|/25 slice) and projects to (partkey → brand, size); the
    attach routes through the guarded ``broadcast_join`` (≤ cap →
    ray.put + map-side merge with zero exchanges; above → exchange_join
    fallback). Every joined batch evaluates the OR of ANDs vectorized
    and emits one scalar partial; a single final task folds the
    partials."""
    preds = tuple(predicates)
    pred_brands = sorted({p[0] for p in preds})

    def p_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(
            t.column("p_brand").cast(pa.string()),
            value_set=pa.array(pred_brands, pa.string()),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "pk": t.column("p_partkey").cast(pa.int64()),
                "brand": t.column("p_brand").cast(pa.string()),
                "size": t.column("p_size").cast(pa.int64()),
            }
        )

    def l_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pk": t.column("l_partkey").cast(pa.int64()),
                "q100": pa.array(np.round(
                    np.asarray(t.column("l_quantity"), np.float64) * 100
                ).astype(np.int64)),
                "cents": pa.array(np.round(
                    np.asarray(t.column("l_extendedprice"), np.float64) * 100
                ).astype(np.int64)),
                "disc": pa.array(np.round(
                    np.asarray(t.column("l_discount"), np.float64) * 100
                ).astype(np.int64)),
            }
        )

    joined = broadcast_join(
        lineitem.map_batches(l_proj, batch_format="pyarrow"),
        part.map_batches(p_rows, batch_format="pyarrow"),
        big_key="pk",
        small_key="pk",
        payload_cols=["brand", "size"],
        cfg=cfg,
    )

    def l_rows(m: pd.DataFrame) -> pd.DataFrame:
        if len(m) == 0:
            return _pat(pd.DataFrame({"rev": [np.int64(0)]}))
        q = m["q100"].to_numpy(np.int64)
        sz = m["size"].to_numpy(np.int64)
        br = m["brand"].to_numpy(object)
        keep = np.zeros(len(m), bool)
        for brand, slo, shi, qlo, qhi in preds:
            keep |= (
                (br == brand) & (sz >= slo) & (sz <= shi)
                & (q >= qlo) & (q <= qhi)
            )
        rev = (
            m["cents"].to_numpy(np.int64)[keep]
            * (100 - m["disc"].to_numpy(np.int64)[keep])
        )
        return _pat(pd.DataFrame({"rev": [np.int64(rev.sum())]}))

    def final(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {"revenue_e4": pa.array(
                 [int(df["rev"].sum()) if len(df) else 0], pa.int64())}
        )

    sentinel = _sentinel_ds({"rev": (0, pa.int64())})
    return (
        joined.map_batches(l_rows, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def waiting_supplier(orders, lineitem, supplier, cfg: EngineConfig, *,
                     late_days: int = 20):
    """TPC-H Q21 shape (adapted: no commit/receipt dates — a lineitem is
    "late" when l_shipdate > o_orderdate + ``late_days``): per supplier,
    count multi-supplier orders (≥ 2 distinct suppliers) where this
    supplier is the ONLY late one — the semi-join + anti-join
    combination. Output (s_name, numwait) sorted numwait DESC, name ASC.

    Scale shape: orders project to (key, date); lineitems pre-reduce
    map-side to per-(order, supplier) max-shipdate rows — both ride ONE
    shared hash(orderkey) exchange; per bucket the per-order supplier
    stats collapse to (suppkey, count) partials (≤ |suppliers| rows per
    bucket), folded in one tiny final task; supplier names attach to the
    tiny count partials through the guarded ``broadcast_join`` (supplier
    GROWS with scale factor — never materialized driver-side)."""
    nb = cfg.num_buckets

    def o_rows(t: pa.Table) -> pd.DataFrame:
        k = np.asarray(t.column("o_orderkey"), np.int64)
        od = np.asarray(
            t.column("o_orderdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        return _pat(pd.DataFrame(
            {
                "k": k,
                "sk": np.zeros(len(k), np.int64),
                "ts": od,
                "_side": np.zeros(len(k), np.int8),
                "_bucket": (k % nb).astype(np.int32),
            }
        ))

    def l_rows(t: pa.Table) -> pd.DataFrame:
        k = np.asarray(t.column("l_orderkey"), np.int64)
        sk = np.asarray(t.column("l_suppkey"), np.int64)
        sd = np.asarray(
            t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        # map-side pre-reduce to one row per (order, supplier)
        part = (
            pd.DataFrame({"k": k, "sk": sk, "ts": sd})
            .groupby(["k", "sk"], sort=False)["ts"].max().reset_index()
        )
        part["_side"] = np.ones(len(part), np.int8)
        part["_bucket"] = (part["k"].to_numpy(np.int64) % nb).astype(np.int32)
        return _pat(part[["k", "sk", "ts", "_side", "_bucket"]])

    late_us = np.int64(late_days) * _DAY_US

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"sk": pd.Series(dtype=np.int64),
             "cnt": pd.Series(dtype=np.int64),
             "_b2": pd.Series(dtype=np.int32)}
        )
        ords = g[g["_side"] == 0][["k", "ts"]]
        lis = g[g["_side"] == 1][["k", "sk", "ts"]]
        if len(ords) == 0 or len(lis) == 0:
            return _pat(empty)
        per = lis.groupby(["k", "sk"], sort=False)["ts"].max().reset_index()
        m = per.merge(ords, on="k", suffixes=("", "_o"))
        m["late"] = (
            m["ts"].to_numpy(np.int64)
            > m["ts_o"].to_numpy(np.int64) + late_us
        ).astype(np.int64)
        st = m.groupby("k", sort=False).agg(
            nsupp=("sk", "size"), nlate=("late", "sum")
        )
        win_orders = st[(st["nsupp"] >= 2) & (st["nlate"] == 1)].index
        w = m[m["k"].isin(win_orders) & (m["late"] == 1)]
        if len(w) == 0:
            return _pat(empty)
        c = w.groupby("sk", sort=False).size().rename("cnt").reset_index()
        c["_b2"] = (c["sk"].to_numpy(np.int64) % nb).astype(np.int32)
        return _pat(c[["sk", "cnt", "_b2"]])

    def final(g: pd.DataFrame) -> pa.Table:
        g = g[g["cnt"] > 0]  # drop the schema sentinel
        if len(g) == 0:
            return pa.table(
                {"s_name": pa.array([], pa.string()),
                 "numwait": pa.array([], pa.int64())}
            )
        s = (
            g.groupby(["sk", "s_name"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        s = s.sort_values(
            ["cnt", "s_name"], ascending=[False, True], kind="mergesort"
        )
        return pa.table(
            {"s_name": pa.array(s["s_name"].astype(str), pa.string()),
             "numwait": pa.array(s["cnt"].to_numpy(np.int64))}
        )

    def s_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_name": t.column("s_name").cast(pa.string()),
            }
        )

    o = orders.map_batches(o_rows, batch_format="pyarrow")
    li = lineitem.map_batches(l_rows, batch_format="pyarrow")
    counts = (
        o.union(li)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )
    named = broadcast_join(
        counts,
        supplier.map_batches(s_proj, batch_format="pyarrow"),
        big_key="sk",
        small_key="s_suppkey",
        payload_cols=["s_name"],
        cfg=cfg,
    ).map_batches(_pat, batch_format="pandas")  # arrow block before union
    sentinel = _sentinel_ds(
        {"sk": (-1, pa.int64()), "cnt": (0, pa.int64()),
         "_b2": (0, pa.int32()), "s_name": ("", pa.string())}
    )
    return (
        named.union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def sales_opportunity(customer, orders, cfg: EngineConfig):
    """TPC-H Q22 shape (adapted: grouped by c_nationkey instead of the
    missing phone country code): customers with account balance above the
    average POSITIVE balance and NO orders — per nation, (numcust,
    totacctbal_cents). The above-global-average threshold compares exact
    integers by cross-multiplication (cents_i · n > Σcents, strict), so
    the filter is division-free; balances are integer cents throughout.

    Scale shape: pass 1 streams customer once for the two-number scalar
    aggregate (Σ positive cents, n) — map partials, tiny fold; pass 2
    anti-joins rich customers against the DISTINCT order custkeys
    (pre-deduped map-side) in ONE hash(custkey) exchange; per-nation
    partials merge in one tiny final task."""
    nb = cfg.num_buckets

    def bal_partial(t: pa.Table) -> pd.DataFrame:
        cents = np.round(
            np.asarray(t.column("c_acctbal"), np.float64) * 100
        ).astype(np.int64)
        pos = cents > 0
        return _pat(pd.DataFrame(
            {"s": [np.int64(cents[pos].sum())],
             "n": [np.int64(pos.sum())]}
        ))

    parts = (
        customer.map_batches(bal_partial, batch_format="pyarrow")
        .to_pandas()
    )
    sum_cents = int(parts["s"].sum())
    n_pos = int(parts["n"].sum())

    def c_rows(t: pa.Table) -> pd.DataFrame:
        cents = np.round(
            np.asarray(t.column("c_acctbal"), np.float64) * 100
        ).astype(np.int64)
        # strict above-average in exact ints: cents·n > Σcents
        keep = cents * np.int64(max(n_pos, 1)) > np.int64(sum_cents)
        if n_pos == 0:
            keep = np.zeros(len(cents), bool)
        k = np.asarray(t.column("c_custkey"), np.int64)[keep]
        return _pat(pd.DataFrame(
            {
                "k": k,
                "nat": np.asarray(t.column("c_nationkey"), np.int64)[keep],
                "cents": cents[keep],
                "_side": np.zeros(keep.sum(), np.int8),
                "_bucket": (k % nb).astype(np.int32),
            }
        ))

    def o_rows(t: pa.Table) -> pd.DataFrame:
        k = np.unique(np.asarray(t.column("o_custkey"), np.int64))
        return _pat(pd.DataFrame(
            {
                "k": k,
                "nat": np.zeros(len(k), np.int64),
                "cents": np.zeros(len(k), np.int64),
                "_side": np.ones(len(k), np.int8),
                "_bucket": (k % nb).astype(np.int32),
            }
        ))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cust = g[g["_side"] == 0]
        if len(cust) == 0:
            return _pat(pd.DataFrame(
                {"nat": pd.Series(dtype=np.int64),
                 "numcust": pd.Series(dtype=np.int64),
                 "tot": pd.Series(dtype=np.int64)}
            ))
        have = set(g.loc[g["_side"] == 1, "k"].to_numpy(np.int64).tolist())
        keep = ~cust["k"].isin(have)
        kept = cust[keep]
        return _pat(
            kept.groupby("nat", sort=False).agg(
                numcust=("k", "size"), tot=("cents", "sum")
            ).reset_index()
        )

    def final(df: pd.DataFrame) -> pa.Table:
        df = df[df["numcust"] > 0]  # drop the schema sentinel
        if len(df) == 0:
            return pa.table(
                {"c_nationkey": pa.array([], pa.int64()),
                 "numcust": pa.array([], pa.int64()),
                 "totacctbal_cents": pa.array([], pa.int64())}
            )
        s = df.groupby("nat", sort=False).agg(
            numcust=("numcust", "sum"), tot=("tot", "sum")
        ).reset_index().sort_values("nat", kind="mergesort")
        return pa.table(
            {"c_nationkey": pa.array(s["nat"].to_numpy(np.int64)),
             "numcust": pa.array(s["numcust"].to_numpy(np.int64)),
             "totacctbal_cents": pa.array(s["tot"].to_numpy(np.int64))}
        )

    c = customer.map_batches(c_rows, batch_format="pyarrow")
    o = orders.map_batches(o_rows, batch_format="pyarrow")
    sentinel = _sentinel_ds(
        {"nat": (-1, pa.int64()), "numcust": (0, pa.int64()),
         "tot": (0, pa.int64())}
    )
    return (
        c.union(o)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def volume_shipping(customer, orders, lineitem, supplier, nation,
                    cfg: EngineConfig, *, nation_a: str, nation_b: str):
    """TPC-H Q7 shape: shipped revenue (exact 1e-4 dollars) between two
    nations — lineitems whose supplier nation and ordering customer's
    nation are {a, b} in either direction, grouped by (supp_nation,
    cust_nation, ship year). Output sorted by the three group columns.

    Scale shape: nation is constant-size → driver-side key↔name maps;
    supplier attaches to lineitem via the guarded ``broadcast_join``.
    Two bucketed fact exchanges, each forced by a key change: customers
    (filtered to the two nations map-side) meet orders on hash(custkey);
    the surviving (orderkey, cust_nation) rows meet per-(orderkey,
    supp_nation, year) pre-summed lineitem partials on hash(orderkey).
    Per-(nation, nation, year) partials merge in one tiny final task."""
    nb = cfg.num_buckets

    nat = nation.to_pandas()
    name_of = dict(
        zip(nat["n_nationkey"].to_numpy(np.int64), nat["n_name"].astype(str))
    )
    key_of = {v: k for k, v in name_of.items()}
    ka, kb = key_of[nation_a], key_of[nation_b]
    pair = np.sort(np.array([ka, kb], np.int64))
    pair_ref = ray.put(pair)

    def c_rows(t: pa.Table) -> pd.DataFrame:
        from ..state.broadcast import cached_get

        p = cached_get(pair_ref)
        cn = np.asarray(t.column("c_nationkey"), np.int64)
        keep = (cn == p[0]) | (cn == p[1])
        ck = np.asarray(t.column("c_custkey"), np.int64)[keep]
        return _pat(pd.DataFrame(
            {
                "k": ck,
                "okey": np.zeros(keep.sum(), np.int64),
                "nat": cn[keep],
                "_side": np.zeros(keep.sum(), np.int8),
                "_bucket": (ck % nb).astype(np.int32),
            }
        ))

    def o_rows(t: pa.Table) -> pd.DataFrame:
        ck = np.asarray(t.column("o_custkey"), np.int64)
        return _pat(pd.DataFrame(
            {
                "k": ck,
                "okey": np.asarray(t.column("o_orderkey"), np.int64),
                "nat": np.zeros(len(ck), np.int64),
                "_side": np.ones(len(ck), np.int8),
                "_bucket": (ck % nb).astype(np.int32),
            }
        ))

    def semi(g: pd.DataFrame) -> pd.DataFrame:
        cust = g[g["_side"] == 0][["k", "nat"]]
        ords = g[g["_side"] == 1]
        m = ords.merge(cust, on="k", suffixes=("", "_c"))
        okey = m["okey"].to_numpy(np.int64)
        return _pat(pd.DataFrame(
            {
                "okey": okey,
                "cnat": m["nat_c"].to_numpy(np.int64),
                "snat": np.zeros(len(m), np.int64),
                "yr": np.zeros(len(m), np.int64),
                "rev": np.zeros(len(m), np.int64),
                "_side": np.zeros(len(m), np.int8),
                "_bucket2": (okey % nb).astype(np.int32),
            }
        ))

    li = broadcast_join(
        lineitem,
        supplier,
        big_key="l_suppkey",
        small_key="s_suppkey",
        payload_cols=["s_nationkey"],
        cfg=cfg,
    )

    def l_partial(df: pd.DataFrame) -> pd.DataFrame:
        sn = df["s_nationkey"].to_numpy(np.int64)
        keep = (sn == int(pair[0])) | (sn == int(pair[1]))
        df = df[keep]
        cents = np.round(
            df["l_extendedprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        disc = np.round(
            df["l_discount"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        yr = (
            pd.Series(df["l_shipdate"].to_numpy())
            .dt.year.to_numpy(np.int64)
        )
        part = (
            pd.DataFrame(
                {
                    "okey": df["l_orderkey"].to_numpy(np.int64),
                    "snat": df["s_nationkey"].to_numpy(np.int64),
                    "yr": yr,
                    "rev": cents * (100 - disc),
                }
            )
            .groupby(["okey", "snat", "yr"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        part["cnat"] = np.zeros(len(part), np.int64)
        part["_side"] = np.ones(len(part), np.int8)
        part["_bucket2"] = (part["okey"].to_numpy(np.int64) % nb).astype(
            np.int32
        )
        return _pat(part[
            ["okey", "cnat", "snat", "yr", "rev", "_side", "_bucket2"]
        ])

    def match(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"snat": pd.Series(dtype=np.int64),
             "cnat": pd.Series(dtype=np.int64),
             "yr": pd.Series(dtype=np.int64),
             "rev": pd.Series(dtype=np.int64)}
        )
        ords = g[g["_side"] == 0][["okey", "cnat"]]
        lis = g[g["_side"] == 1]
        if len(ords) == 0 or len(lis) == 0:
            return _pat(empty)
        m = lis.merge(ords, on="okey", suffixes=("", "_o"))
        # cross-nation flows only: (c=a, s=b) or (c=b, s=a)
        m = m[m["cnat_o"].to_numpy(np.int64) != m["snat"].to_numpy(np.int64)]
        if len(m) == 0:
            return _pat(empty)
        out = (
            m.groupby(["snat", "cnat_o", "yr"], sort=False)["rev"]
            .sum()
            .reset_index()
            .rename(columns={"cnat_o": "cnat"})
        )
        return _pat(out.astype(
            {"snat": np.int64, "cnat": np.int64,
             "yr": np.int64, "rev": np.int64}
        ))

    def final(df: pd.DataFrame) -> pa.Table:
        df = df[df["snat"] >= 0]  # drop the schema sentinel
        if len(df) == 0:
            return pa.table(
                {"supp_nation": pa.array([], pa.string()),
                 "cust_nation": pa.array([], pa.string()),
                 "l_year": pa.array([], pa.int64()),
                 "revenue_e4": pa.array([], pa.int64())}
            )
        s = (
            df.groupby(["snat", "cnat", "yr"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        s["supp_nation"] = s["snat"].map(name_of)
        s["cust_nation"] = s["cnat"].map(name_of)
        s = s.sort_values(
            ["supp_nation", "cust_nation", "yr"], kind="mergesort"
        )
        return pa.table(
            {"supp_nation": pa.array(s["supp_nation"], pa.string()),
             "cust_nation": pa.array(s["cust_nation"], pa.string()),
             "l_year": pa.array(s["yr"].to_numpy(np.int64)),
             "revenue_e4": pa.array(s["rev"].to_numpy(np.int64))}
        )

    c = customer.map_batches(c_rows, batch_format="pyarrow")
    o = orders.map_batches(o_rows, batch_format="pyarrow")
    winners = (
        c.union(o).groupby("_bucket").map_groups(semi, batch_format="pandas")
    )
    lp = li.map_batches(l_partial, batch_format="pandas")
    sentinel = _sentinel_ds(
        {"snat": (-1, pa.int64()), "cnat": (-1, pa.int64()),
         "yr": (0, pa.int64()), "rev": (0, pa.int64())}
    )
    return (
        winners.union(lp)
        .groupby("_bucket2")
        .map_groups(match, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def market_share(customer, orders, lineitem, supplier, nation, region,
                 cfg: EngineConfig, *, region_name: str,
                 nation_name: str, p_type: str, part):
    """TPC-H Q8 shape: ``nation_name``'s market share — per order year,
    the fraction of revenue (exact 1e-4-dollar integer sums; the share is
    ONE double division of the two exact ints, identical on both sides)
    of ``p_type`` parts sold to ``region_name`` customers that came from
    suppliers of ``nation_name``. Output (o_year, target_e4, total_e4,
    mkt_share) — numerator and denominator ride along so the quotient is
    auditable.

    Scale shape: nation⋈region and the typed partkey set collapse
    driver-side / broadcast; supplier nation attaches to lineitem via the
    guarded ``broadcast_join``. Two bucketed fact exchanges: in-region
    customers meet orders on hash(custkey) (winners carry the ORDER
    year); per-(orderkey, is_target) pre-summed lineitem partials meet
    the winners on hash(orderkey). Per-year partials fold in one tiny
    final task."""
    nb = cfg.num_buckets

    nat = nation.to_pandas()
    reg = region.to_pandas()
    rkeys = set(
        reg.loc[reg["r_name"] == region_name, "r_regionkey"].to_numpy()
    )
    in_region = np.sort(
        nat.loc[nat["n_regionkey"].isin(rkeys), "n_nationkey"]
        .to_numpy(np.int64)
    )
    target_key = int(
        nat.loc[nat["n_name"].astype(str) == nation_name, "n_nationkey"]
        .iloc[0]
    )
    region_ref = ray.put(in_region)

    # the typed partkey set stays DISTRIBUTED: filter over the pruned part
    # read, then the guarded semi-join (broadcast ≤ cap, bucketed marker
    # exchange above) — part grows with scale factor
    def typed_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(t.column("p_type").cast(pa.string()), p_type)
        return pa.table(
            {"p_partkey": t.column("p_partkey").filter(keep).cast(pa.int64())}
        )

    part_keys = part.map_batches(typed_keys, batch_format="pyarrow")

    def c_rows(t: pa.Table) -> pd.DataFrame:
        from ..state.broadcast import cached_get

        ks = cached_get(region_ref)
        cn = np.asarray(t.column("c_nationkey"), np.int64)
        if len(ks) == 0:
            keep = np.zeros(len(cn), bool)
        else:
            pos = np.minimum(np.searchsorted(ks, cn), len(ks) - 1)
            keep = ks[pos] == cn
        ck = np.asarray(t.column("c_custkey"), np.int64)[keep]
        return _pat(pd.DataFrame(
            {
                "k": ck,
                "okey": np.zeros(len(ck), np.int64),
                "yr": np.zeros(len(ck), np.int64),
                "_side": np.zeros(len(ck), np.int8),
                "_bucket": (ck % nb).astype(np.int32),
            }
        ))

    def o_rows(t: pa.Table) -> pd.DataFrame:
        ck = np.asarray(t.column("o_custkey"), np.int64)
        yr = (
            pd.Series(t.column("o_orderdate").to_pandas())
            .dt.year.to_numpy(np.int64)
        )
        return _pat(pd.DataFrame(
            {
                "k": ck,
                "okey": np.asarray(t.column("o_orderkey"), np.int64),
                "yr": yr,
                "_side": np.ones(len(ck), np.int8),
                "_bucket": (ck % nb).astype(np.int32),
            }
        ))

    def semi(g: pd.DataFrame) -> pd.DataFrame:
        cust = g[g["_side"] == 0][["k"]]
        ords = g[g["_side"] == 1]
        m = ords.merge(cust, on="k")
        okey = m["okey"].to_numpy(np.int64)
        return _pat(pd.DataFrame(
            {
                "okey": okey,
                "yr": m["yr"].to_numpy(np.int64),
                "tgt": np.zeros(len(m), np.int64),
                "rev": np.zeros(len(m), np.int64),
                "_side": np.zeros(len(m), np.int8),
                "_bucket2": (okey % nb).astype(np.int32),
            }
        ))

    li = broadcast_join(
        broadcast_exists_join(
            lineitem,
            part_keys,
            big_key="l_partkey",
            small_key="p_partkey",
            cfg=cfg,
        ),
        supplier,
        big_key="l_suppkey",
        small_key="s_suppkey",
        payload_cols=["s_nationkey"],
        cfg=cfg,
    )

    def l_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(
            df["l_extendedprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        disc = np.round(
            df["l_discount"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        part_df = (
            pd.DataFrame(
                {
                    "okey": df["l_orderkey"].to_numpy(np.int64),
                    "tgt": (
                        df["s_nationkey"].to_numpy(np.int64) == target_key
                    ).astype(np.int64),
                    "rev": cents * (100 - disc),
                }
            )
            .groupby(["okey", "tgt"], sort=False)["rev"]
            .sum()
            .reset_index()
        )
        part_df["yr"] = np.zeros(len(part_df), np.int64)
        part_df["_side"] = np.ones(len(part_df), np.int8)
        part_df["_bucket2"] = (
            part_df["okey"].to_numpy(np.int64) % nb
        ).astype(np.int32)
        return _pat(part_df[["okey", "yr", "tgt", "rev", "_side", "_bucket2"]])

    def match(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"yr": pd.Series(dtype=np.int64),
             "target": pd.Series(dtype=np.int64),
             "total": pd.Series(dtype=np.int64)}
        )
        ords = g[g["_side"] == 0][["okey", "yr"]]
        lis = g[g["_side"] == 1]
        if len(ords) == 0 or len(lis) == 0:
            return _pat(empty)
        m = lis.merge(ords, on="okey", suffixes=("", "_o"))
        if len(m) == 0:
            return _pat(empty)
        rev = m["rev"].to_numpy(np.int64)
        tgt = m["tgt"].to_numpy(np.int64)
        out = (
            pd.DataFrame(
                {"yr": m["yr_o"].to_numpy(np.int64),
                 "target": rev * tgt, "total": rev}
            )
            .groupby("yr", sort=False)
            .agg(target=("target", "sum"), total=("total", "sum"))
            .reset_index()
        )
        return _pat(out.astype(
            {"yr": np.int64, "target": np.int64, "total": np.int64}
        ))

    def final(df: pd.DataFrame) -> pa.Table:
        df = df[df["yr"] >= 0]  # drop the schema sentinel
        if len(df) == 0:
            return pa.table(
                {"o_year": pa.array([], pa.int64()),
                 "target_e4": pa.array([], pa.int64()),
                 "total_e4": pa.array([], pa.int64()),
                 "mkt_share": pa.array([], pa.float64())}
            )
        s = (
            df.groupby("yr", sort=False)
            .agg(target=("target", "sum"), total=("total", "sum"))
            .reset_index()
            .sort_values("yr", kind="mergesort")
        )
        tot = s["total"].to_numpy(np.int64)
        tgt = s["target"].to_numpy(np.int64)
        share = np.where(
            tot > 0, tgt.astype(np.float64) / np.maximum(tot, 1), 0.0
        )
        return pa.table(
            {"o_year": pa.array(s["yr"].to_numpy(np.int64)),
             "target_e4": pa.array(tgt),
             "total_e4": pa.array(tot),
             "mkt_share": pa.array(share)}
        )

    c = customer.map_batches(c_rows, batch_format="pyarrow")
    o = orders.map_batches(o_rows, batch_format="pyarrow")
    winners = (
        c.union(o).groupby("_bucket").map_groups(semi, batch_format="pandas")
    )
    lp = li.map_batches(l_partial, batch_format="pandas")
    sentinel = _sentinel_ds(
        {"yr": (-1, pa.int64()), "target": (0, pa.int64()),
         "total": (0, pa.int64())}
    )
    return (
        winners.union(lp)
        .groupby("_bucket2")
        .map_groups(match, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


def min_balance_supplier(lineitem, supplier, part, cfg: EngineConfig):
    """TPC-H Q2 shape (adapted: no partsupp/supplycost — the cost proxy is
    the supplier's account balance): for every part that shipped at least
    once, the supplier with MINIMUM s_acctbal (integer cents) among the
    suppliers who shipped it, ties by smaller s_suppkey — the
    argmin-per-key over a fact-derived many-to-many. Output (p_partkey,
    p_name, s_suppkey, s_name, acctbal_cents) sorted by partkey.

    Scale shape: lineitem pre-reduces map-side to DISTINCT (partkey,
    suppkey) rows per batch; supplier (cents, name) attaches to those
    skinny rows through the guarded ``broadcast_join`` (≤ cap → ray.put
    map-side merge; above → exchange_join fallback — supplier and part GROW
    with scale factor, so neither is ever materialized driver-side); ONE
    hash(partkey) exchange and a per-bucket lexsort-head argmin; part
    names attach to the ≤|part| winner rows the same guarded way. The
    supplier (cents, s_name) payload attaches BEFORE the exchange, so it
    rides it once per distinct (partkey, suppkey) row of a batch — near
    fact cardinality — trading exchange bytes for no second attach after
    the argmin."""
    nb = cfg.num_buckets

    def l_rows(t: pa.Table) -> pa.Table:
        df = (
            pd.DataFrame(
                {
                    "pk": np.asarray(t.column("l_partkey"), np.int64),
                    "sk": np.asarray(t.column("l_suppkey"), np.int64),
                }
            )
            .drop_duplicates()
        )
        df["_bucket"] = (df["pk"].to_numpy(np.int64) % nb).astype(np.int32)
        return _pat(df)

    def s_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "sk": t.column("s_suppkey").cast(pa.int64()),
                "cents": pa.array(np.round(
                    np.asarray(t.column("s_acctbal"), np.float64) * 100
                ).astype(np.int64)),
                "s_name": t.column("s_name").cast(pa.string()),
            }
        )

    def p_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": t.column("p_partkey").cast(pa.int64()),
                "p_name": t.column("p_name").cast(pa.string()),
            }
        )

    pairs = broadcast_join(
        lineitem.map_batches(l_rows, batch_format="pyarrow"),
        supplier.map_batches(s_proj, batch_format="pyarrow"),
        big_key="sk",
        small_key="sk",
        payload_cols=["cents", "s_name"],
        cfg=cfg,
    )

    def argmin(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(["pk", "sk"])
        if len(g) == 0:
            return pa.table(
                {
                    "p_partkey": pa.array([], pa.int64()),
                    "s_suppkey": pa.array([], pa.int64()),
                    "s_name": pa.array([], pa.string()),
                    "acctbal_cents": pa.array([], pa.int64()),
                }
            )
        g = g.sort_values(["pk", "cents", "sk"], kind="mergesort")
        w = g.drop_duplicates("pk", keep="first").sort_values("pk")
        return pa.table(
            {
                "p_partkey": pa.array(w["pk"].to_numpy(np.int64)),
                "s_suppkey": pa.array(w["sk"].to_numpy(np.int64)),
                "s_name": pa.array(w["s_name"].astype(str), pa.string()),
                "acctbal_cents": pa.array(w["cents"].to_numpy(np.int64)),
            }
        )

    winners = (
        pairs.groupby("_bucket")
        .map_groups(argmin, batch_format="pandas")
    )
    named = broadcast_join(
        winners,
        part.map_batches(p_proj, batch_format="pyarrow"),
        big_key="p_partkey",
        small_key="p_partkey",
        payload_cols=["p_name"],
        cfg=cfg,
    )

    def order_cols(t: pa.Table) -> pa.Table:
        return t.select(
            ["p_partkey", "p_name", "s_suppkey", "s_name", "acctbal_cents"]
        )

    return named.map_batches(order_cols, batch_format="pyarrow")


def top_revenue_supplier(lineitem, supplier, cfg: EngineConfig, *,
                         date_lo_us: int, date_hi_us: int):
    """TPC-H Q15 shape: the supplier(s) achieving MAXIMUM revenue (exact
    1e-4-dollar integers) over lineitems shipped in [date_lo, date_hi) —
    the global-argmax-with-ties view. Output (s_suppkey, s_name,
    total_revenue_e4), ALL max-achieving suppliers, suppkey ASC.

    Scale shape: date-filtered revenue partials pre-summed per supplier
    map-side; ONE tiny exchange of (suppkey, partial) rows; the global
    max + tie filter run in the single final fold (O(|suppliers|));
    names attach to the max-achieving winner rows (usually one) through
    the guarded ``broadcast_join`` — supplier grows with scale factor and
    is never materialized driver-side."""
    nb = cfg.num_buckets

    def l_rows(t: pa.Table) -> pa.Table:
        sd = np.asarray(
            t.column("l_shipdate").cast(pa.timestamp("us")).cast(pa.int64())
        )
        keep = (sd >= date_lo_us) & (sd < date_hi_us)
        cents = np.round(
            np.asarray(t.column("l_extendedprice"), np.float64)[keep] * 100
        ).astype(np.int64)
        disc = np.round(
            np.asarray(t.column("l_discount"), np.float64)[keep] * 100
        ).astype(np.int64)
        part = (
            pd.DataFrame(
                {
                    "sk": np.asarray(t.column("l_suppkey"), np.int64)[keep],
                    "rev": cents * (100 - disc),
                }
            )
            .groupby("sk", sort=False)["rev"]
            .sum()
            .reset_index()
        )
        part["_bucket"] = (part["sk"].to_numpy(np.int64) % nb).astype(
            np.int32
        )
        return _pat(part)

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        s = g.groupby("sk", sort=False)["rev"].sum().reset_index()
        return _pat(s)

    def final(df: pd.DataFrame) -> pa.Table:
        df = df[df["sk"] >= 0]  # drop the schema sentinel
        if len(df) == 0:
            return pa.table(
                {
                    "s_suppkey": pa.array([], pa.int64()),
                    "total_revenue_e4": pa.array([], pa.int64()),
                }
            )
        s = df.groupby("sk", sort=False)["rev"].sum().reset_index()
        mx = int(s["rev"].max())
        w = s[s["rev"] == mx].sort_values("sk")
        return pa.table(
            {
                "s_suppkey": pa.array(w["sk"].to_numpy(np.int64)),
                "total_revenue_e4": pa.array(w["rev"].to_numpy(np.int64)),
            }
        )

    def s_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "s_name": t.column("s_name").cast(pa.string()),
            }
        )

    def order_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.select(["s_suppkey", "s_name", "total_revenue_e4"])
        return t.take(pc.sort_indices(t.column("s_suppkey")))

    sentinel = _sentinel_ds(
        {"sk": (-1, pa.int64()), "rev": (0, pa.int64())}
    )
    winners = (
        lineitem.map_batches(l_rows, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .union(sentinel)
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )
    return broadcast_join(
        winners,
        supplier.map_batches(s_proj, batch_format="pyarrow"),
        big_key="s_suppkey",
        small_key="s_suppkey",
        payload_cols=["s_name"],
        cfg=cfg,
    ).repartition(1).map_batches(order_rows, batch_format="pyarrow")
