"""Transitive clustering: connected components over match pairs (A7).

No reference equivalent (the reference stops at blocking); required by
BASELINE.json north_rule. Implemented as iterative min-label propagation
with pointer jumping — each round: every node adopts the minimum label among
itself and its neighbors (two key exchanges: attach labels to edge
endpoints, then min-reduce per node), then label(v) ← label(label(v)) (one
more n-row exchange). Each exchange runs one Arrow kernel per shuffled block
(``canonicalize.exchange``). Pointer jumping makes an id-ordered chain
converge in O(log diameter) rounds, but that bound does not hold in general:
on a path whose ids are in random order the rounds grow with the path
length (simulated: 6–21 rounds at 30 nodes, 27–74 at 100, 50–144 at 300).
Running out of ``max_iter`` rounds raises rather than return split
clusters. For provably small edge sets a driver-side union-find fast path
avoids the per-round shuffles (the BTS ICDE'24 load-balanced variant is the
upgrade path for adversarial graphs — PAPERS.md).

Convergence detection is a cheap label-signature pass (sum of row hashes),
not a join of old vs new labels.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig, default_parallelism
from ..state.lookup import id_hash


def union_find_pandas(edges: pd.DataFrame, src: str, dst: str) -> pd.DataFrame:
    """Driver-side union-find (path compression + union by label order:
    smaller label wins, matching the distributed min-label semantics)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(edges[src], edges[dst]):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    nodes = list(parent)
    return pd.DataFrame(
        {
            "conv_id": pd.array(nodes, dtype="string"),
            "cluster_id": pd.array([find(n) for n in nodes], dtype="string"),
        }
    )


def _sum_by_label(key: str, labels, **cols) -> pd.DataFrame:
    """Per distinct non-null string label (column ``key``), the sums of
    ``cols``. Arrow's group_by, because pandas groupby / nunique / factorize
    treat labels that agree up to a ``"\x00"`` as one value."""
    t = pa.table({key: pa.array(np.asarray(labels, object), pa.string())})
    for c, v in cols.items():
        t = t.append_column(c, pa.array(v))
    t = t.filter(pc.is_valid(t.column(key)))
    agg = t.group_by(key, use_threads=False).aggregate(
        [(c, "sum") for c in cols]
    )
    return pd.DataFrame(
        {
            key: agg.column(key).to_numpy(zero_copy_only=False),
            **{c: agg.column(c + "_sum").to_numpy() for c in cols},
        }
    )


def _label_signature(labels_ds) -> int:
    """Order-insensitive signature of (node, label) assignments."""
    sig = np.uint64(0)
    for b in labels_ds.iter_batches(batch_format="pandas", batch_size=65536):
        h = id_hash(
            b["conv_id"].astype(str) + "\x00" + b["cluster_id"].astype(str)
        )
        sig = np.bitwise_xor(sig, np.bitwise_xor.reduce(h))
    return int(sig)


def connected_components(
    edges_ds,
    cfg: EngineConfig | None = None,
    src: str = "left_id",
    dst: str = "right_id",
    max_iter: int = 25,
    driver_threshold: int = 200_000,
    stats_out: dict | None = None,
):
    """edges Dataset → (conv_id, cluster_id) Dataset. cluster_id is the
    minimum conv_id in the component (deterministic).

    ``stats_out`` (if given) receives ``converged`` (bool) and ``rounds``.
    Pointer jumping (each round also replaces label(v) with label(label(v)))
    bounds the rounds by O(log diameter) only for id-ordered chains; a long
    path with ids in random order can need more than ``max_iter`` rounds.
    Then ``stats_out`` is filled and RuntimeError is raised: unconverged
    labels split components."""
    import ray.data as rd

    if stats_out is not None:
        stats_out.update(converged=True, rounds=0)
    n_edges = edges_ds.count()
    if n_edges == 0:
        return rd.from_pandas(
            pd.DataFrame({"conv_id": pd.array([], dtype="string"),
                          "cluster_id": pd.array([], dtype="string")})
        )
    if n_edges <= driver_threshold:
        pdf = edges_ds.select_columns([src, dst]).to_pandas()
        return rd.from_pandas(union_find_pandas(pdf, src, dst))

    # Homogeneous triple encoding (key, val, is_label) lets one union +
    # key exchange implement "attach each node's label to its edges" without
    # Dataset.join (whose aggregator-actor CPU reservation can deadlock
    # against backpressured upstream tasks on small sessions). Every
    # exchange body is a whole-block Arrow kernel (hash join + min
    # group-by), vectorized over all the keys the block holds.
    from .canonicalize import exchange

    def triples(key, val, is_label: bool) -> pa.Table:
        return pa.table(
            {
                "key": key,
                "val": val,
                "is_label": pa.repeat(pa.scalar(is_label), len(key)),
            }
        )

    def cat(*cols: pa.ChunkedArray) -> pa.ChunkedArray:
        return pa.chunked_array([c for col in cols for c in col.chunks])

    def min_label(conv_id, cluster_id) -> pa.Table:
        """(conv_id, min cluster_id) per distinct conv_id."""
        return (
            pa.table({"conv_id": conv_id, "cluster_id": cluster_id})
            .group_by("conv_id", use_threads=False)
            .aggregate([("cluster_id", "min")])
            .rename_columns(["conv_id", "cluster_id"])
        )

    def lookup(t: pa.Table) -> pa.Table:
        """Request rows (is_label False) joined to the label row of their
        key: (val, label(key)) per request."""
        lab = t.filter(t.column("is_label")).select(["key", "val"])
        req = t.filter(pc.invert(t.column("is_label"))).select(["key", "val"])
        return req.join(
            lab.rename_columns(["key", "label"]), "key",
            join_type="inner", use_threads=False,
        )

    def to_edge(batch: pa.Table) -> pa.Table:
        a = batch.column(src).cast(pa.string()).combine_chunks()
        b = batch.column(dst).cast(pa.string()).combine_chunks()
        return triples(
            pa.concat_arrays([a, b]), pa.concat_arrays([b, a]), False
        )

    edges = edges_ds.map_batches(to_edge, batch_format="pyarrow").materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        # a node's label starts at min(itself, its neighbors)
        key = t.column("key")
        return min_label(cat(key, key), cat(key, t.column("val")))

    labels = exchange(edges, "key", init_labels, "pyarrow").materialize()
    sig = _label_signature(labels)

    def propagate(t: pa.Table) -> pa.Table:
        """Each node's label to its neighbors, plus the node's own label
        row, min-combined per receiving node BEFORE the next exchange
        (partial aggregation)."""
        m = lookup(t)
        lab = t.filter(t.column("is_label"))
        return min_label(
            cat(m.column("val"), lab.column("key")),
            cat(m.column("label"), lab.column("val")),
        )

    def min_reduce(t: pa.Table) -> pa.Table:
        return min_label(t.column("conv_id"), t.column("cluster_id"))

    def shortcut_block(t: pa.Table) -> pa.Table:
        """Request rows (key=label(v), val=v) look up label(label(v)) from
        the label rows (key=x, val=label(x)). Labels are always node ids and
        label(x) ≤ x, so the inner join is total and monotone — no min
        needed."""
        m = lookup(t)
        return pa.table(
            {"conv_id": m.column("val"), "cluster_id": m.column("label")}
        )

    def shortcut(labels_ds):
        """label(v) ← label(label(v)): doubles the label-pointer distance per
        round. One n-row key exchange (cheaper than the 2|E|-row
        propagate)."""

        def to_rows(t: pa.Table) -> pa.Table:
            node = t.column("conv_id").combine_chunks()
            lab = t.column("cluster_id").combine_chunks()
            return pa.concat_tables(
                [triples(lab, node, False), triples(node, lab, True)]
            )

        return exchange(
            labels_ds.map_batches(to_rows, batch_format="pyarrow"),
            "key", shortcut_block, "pyarrow",
        )

    converged = False
    rounds = 0
    for _ in range(max_iter):
        rounds += 1
        label_rows = labels.map_batches(
            lambda t: triples(
                t.column("conv_id"), t.column("cluster_id"), True
            ),
            batch_format="pyarrow",
        )
        # two key exchanges: propagate keyed on the edge endpoint, min-reduce
        # keyed on the receiving node
        propagated = exchange(
            exchange(edges.union(label_rows), "key", propagate, "pyarrow"),
            "conv_id", min_reduce, "pyarrow",
        )
        new_labels = shortcut(propagated).materialize()
        new_sig = _label_signature(new_labels)
        labels = new_labels
        if new_sig == sig:
            converged = True
            break
        sig = new_sig
    if stats_out is not None:
        stats_out.update(converged=converged, rounds=rounds)
    if not converged:
        raise RuntimeError(
            "connected_components: min-label propagation did not reach a "
            f"fixpoint after {rounds} rounds (max_iter={max_iter}); its "
            "labels would split components. Raise max_iter or the "
            "driver_threshold of the union-find fast path."
        )
    return labels


def survivorship(
    ds,
    cfg,
    *,
    cluster_col: str,
    value_cols: list[str],
):
    """Golden-record survivorship — the merge/purge step after clustering
    (the reference stops at candidate pairs; a full ER pipeline must then
    MERGE each cluster into one canonical record). Per cluster and per
    attribute, the surviving value is the MOST FREQUENT non-null value,
    ties broken by lexicographically smallest — a deterministic majority
    vote (SQL ``row_number() OVER (... ORDER BY count DESC, value)``).
    Clusters where an attribute is entirely null emit no row for it.

    Emits (``cluster_col``:int64, attribute:string, value:string) — long
    form, one row per (cluster, attribute).

    Scale shape: per batch, (cluster, attribute, value) vote counts
    collapse map-side (one pandas groupby-size per column over the batch),
    so the exchange carries ≤ distinct-combination partial rows, never the
    corpus; ONE bucketed exchange on hash(cluster) then a per-bucket
    combine + deterministic argmax. Value payloads ride as strings —
    bounded by the distinct-value set per batch, the standard survivorship
    trade (attribute domains are small; free text is not a survivorship
    attribute).
    """
    import pyarrow as pa

    from .events import _user_bucket

    nb = cfg.num_buckets
    if not value_cols:
        raise ValueError("value_cols must be non-empty")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for c in value_cols:
            sub = df[[cluster_col, c]].dropna()
            if not len(sub):
                continue
            g = (
                sub.groupby([cluster_col, c], sort=False, observed=True)
                .size()
                .reset_index(name="votes")
            )
            g.columns = [cluster_col, "value", "votes"]
            g.insert(1, "attribute", c)
            outs.append(g)
        if not outs:
            return _empty_surv(cluster_col)
        out = pd.concat(outs, ignore_index=True)
        out["value"] = out["value"].astype(str)
        out["votes"] = out["votes"].astype(np.int64)
        out["_bucket"] = _user_bucket(
            out[cluster_col].to_numpy(np.int64), nb
        )
        return out

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return _empty_surv(cluster_col)[
                [cluster_col, "attribute", "value"]
            ]
        g = (
            df.groupby([cluster_col, "attribute", "value"], sort=False,
                       observed=True)["votes"]
            .sum()
            .reset_index()
        )
        # deterministic winner: votes desc, value asc
        g = g.sort_values(
            [cluster_col, "attribute", "votes", "value"],
            ascending=[True, True, False, True], kind="stable",
        )
        win = g.drop_duplicates([cluster_col, "attribute"], keep="first")
        return pd.DataFrame(
            {
                cluster_col: win[cluster_col].to_numpy(np.int64),
                "attribute": win["attribute"].to_numpy(object),
                "value": win["value"].to_numpy(object),
            }
        )

    return (
        ds.select_columns([cluster_col] + value_cols)
        .map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )


def _empty_surv(cluster_col: str) -> pd.DataFrame:
    return pd.DataFrame(
        {
            cluster_col: pd.Series(dtype=np.int64),
            "attribute": pd.Series(dtype=object),
            "value": pd.Series(dtype=object),
            "votes": pd.Series(dtype=np.int64),
            "_bucket": pd.Series(dtype=np.int32),
        }
    )


def triangle_count(pairs, cfg=None):
    """Exact triangle count of an undirected graph given as a deduped edge
    list (left_id < right_id, string ids) — the classic graph statistic
    (clustering-coefficient numerator, community-density signal) over a
    blocking/candidate graph. Emits ONE row (n_edges, n_triangles).

    Node-iterator algorithm with smallest-node wedges: each edge explodes
    to both directed copies, ONE hash(v) exchange co-locates every node's
    HIGHER neighbors, a per-bucket self-merge emits each wedge (v; a<b)
    exactly once (at its smallest node), and one more pair-hash exchange
    joins wedges against the edge set — a triangle {x<y<z} matches its
    (y,z) wedge at x exactly once. Per-node wedge work is C(deg,2);
    bounded for kNN-style graphs (deg ≤ 2k), and a skewed hub would need
    the same salting treatment as _pairs_from_keys (documented, not
    needed for degree-capped graphs)."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    pairs = pairs.materialize()
    n_edges = pairs.count()

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow as pa_

        a = t.column("left_id").cast(pa_.string())
        b = t.column("right_id").cast(pa_.string())
        return pa_.table(
            {
                "v": pa_.concat_arrays(
                    [a.combine_chunks(), b.combine_chunks()]
                ),
                "w": pa_.concat_arrays(
                    [b.combine_chunks(), a.combine_chunks()]
                ),
            }
        )

    def add_v_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # wedges live at the SMALLEST node: keep only higher neighbors
        df = df[df["w"] > df["v"]].copy()
        df["_bucket"] = bucket_of(df["v"], nb)
        return df

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["v", "w"])
        m = g.merge(g, on="v")
        m = m[m["w_x"] < m["w_y"]]
        out = pd.DataFrame({"a": m["w_x"], "b": m["w_y"]})
        out["_bucket"] = bucket_of(out["a"] + "\x00" + out["b"], nb)
        out["_is_edge"] = np.int8(0)
        return out

    wedge_ds = (
        pairs.map_batches(explode, batch_format="pyarrow")
        .map_batches(add_v_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(wedges, batch_format="pandas")
    )

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"a": df["left_id"].astype(str), "b": df["right_id"].astype(str)}
        )
        out["_bucket"] = bucket_of(out["a"] + "\x00" + out["b"], nb)
        out["_is_edge"] = np.int8(1)
        return out

    edge_ds = pairs.map_batches(edge_rows, batch_format="pandas")

    def count_matches(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["_is_edge"] == 1].drop_duplicates(["a", "b"])
        w = g[g["_is_edge"] == 0]
        n = len(w.merge(e[["a", "b"]], on=["a", "b"]))
        return pd.DataFrame({"t": [np.int64(n)]})

    partials = (
        wedge_ds.union(edge_ds)
        .groupby("_bucket")
        .map_groups(count_matches, batch_format="pandas")
    )

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_edges": [np.int64(n_edges)],
                "n_triangles": [np.int64(df["t"].sum() if len(df) else 0)],
            }
        )

    return partials.repartition(1).map_batches(total, batch_format="pandas")


def pagerank(edges, cfg=None, *, iters: int = 3, scale: int = 10**9,
             damping_pct: int = 85, id_col: str = "vec_id"):
    """Integer-exact damped PageRank over a directed edge list
    (src:string, dst:string), fixed iteration count.

    rank₀(v) = ``scale``; rankₜ₊₁(v) = scale·(100−d)//100 +
    d·Σ_{u→v}(rankₜ(u)//outdeg(u))//100 with d = ``damping_pct`` — every
    step is trunc-division on non-negative int64, so the result is
    bit-reproducible and SQL-twinnable (DuckDB ``//`` on the same
    expression). Node set = distinct srcs; the caller must ensure every
    dst also appears as a src (true for kNN graphs, where each node emits
    k edges). Overflow bound: d·Σ incoming ≤ d·N·scale must stay below
    2⁶³ — at scale 1e9 that is N < 10⁸ nodes; shrink ``scale`` beyond.

    Scale shape per iteration: two bucketed exchanges, both inherent to
    edge-join + node-aggregate — (1) edges meet ranks on hash(src), each
    bucket pre-sums contributions per dst; (2) contribution partials meet
    the nodes' outdeg markers on hash(dst). No driver-side state; the
    edge list is re-read per iteration from its materialized form. The
    edge table is repartitioned to DATA-sized blocks once and the rank
    table is materialized per iteration — synchronous PageRank has an
    inherent barrier per round anyway, and an unbroken lazy chain of
    2·iters all-to-alls over the raw (CPU-fanned) block count measured
    9× slower at sf0.01 than the flattened form.
    Output: (id_col:string, pr:int64) after ``iters`` iterations."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets
    base = scale * (100 - damping_pct) // 100
    d = damping_pct

    def tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": df["src"].astype(str).to_numpy(object),
                "dst": df["dst"].astype(str).to_numpy(object),
                "_bucket": bucket_of(df["src"].astype(str), nb),
            }
        )

    ed = edges.map_batches(tag_edges, batch_format="pandas").materialize()
    # data-sized blocks: ~2M edges per block, never the upstream task fan
    n_edges = ed.count()
    eblocks = max(1, -(-n_edges // 2_000_000))
    ed = ed.repartition(eblocks).materialize()

    # out-degree per src — one exchange, reused every iteration
    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df.groupby("src", sort=False).size().rename("od").reset_index()
        c["_bucket"] = bucket_of(c["src"], nb)
        return c

    def deg_combine(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("src", sort=False)["od"].sum().reset_index()
        return pd.DataFrame(
            {
                "id": c["src"].to_numpy(object),
                "pr": np.full(len(c), scale, np.int64),
                "od": c["od"].to_numpy(np.int64),
                "_bucket": bucket_of(c["src"], nb),
            }
        )

    ranks = (
        ed.map_batches(deg_partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(deg_combine, batch_format="pandas")
        .repartition(eblocks)
        .materialize()
    )

    def spread(g: pd.DataFrame) -> pd.DataFrame:
        """One bucket of (edges ∪ ranks on hash(src)): contribution
        partials per dst + the node's own outdeg marker row."""
        nodes = g[g["_is_rank"] == 1]
        e = g[g["_is_rank"] == 0][["src", "dst"]]
        out_frames = [
            pd.DataFrame(
                {
                    "id": nodes["id"].to_numpy(object),
                    "c": np.zeros(len(nodes), np.int64),
                    "od": nodes["od"].to_numpy(np.int64),
                    "_is_marker": np.ones(len(nodes), np.int8),
                }
            )
        ]
        if len(e) and len(nodes):
            m = e.merge(
                nodes[["id", "pr", "od"]], left_on="src", right_on="id"
            )
            contrib = m["pr"].to_numpy(np.int64) // m["od"].to_numpy(
                np.int64
            )
            c = (
                pd.DataFrame(
                    {"id": m["dst"].to_numpy(object), "c": contrib}
                )
                .groupby("id", sort=False)["c"]
                .sum()
                .reset_index()
            )
            c["od"] = np.zeros(len(c), np.int64)
            c["_is_marker"] = np.zeros(len(c), np.int8)
            out_frames.append(c)
        out = pd.concat(out_frames, ignore_index=True)
        out["_bucket2"] = bucket_of(out["id"], nb)
        return out

    def gather(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("id", sort=False)["c"].sum()
        marks = g[g["_is_marker"] == 1].drop_duplicates("id")
        ids = marks["id"].to_numpy(object)
        od = marks["od"].to_numpy(np.int64)
        c = s.reindex(ids).fillna(0).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "id": ids,
                "pr": base + d * c // 100,
                "od": od,
                "_bucket": bucket_of(pd.Series(ids), nb),
            }
        )

    cols = ["src", "dst", "id", "pr", "od", "_is_rank", "_bucket"]
    for _ in range(iters):
        tagged_ranks = ranks.map_batches(
            lambda df: df.assign(
                src=df["id"], dst=df["id"], _is_rank=np.int8(1)
            )[cols],
            batch_format="pandas",
        )
        tagged_edges = ed.map_batches(
            lambda df: df.assign(
                id="", pr=np.int64(0), od=np.int64(0), _is_rank=np.int8(0)
            )[cols],
            batch_format="pandas",
        )
        ranks = (
            tagged_edges.union(tagged_ranks)
            .groupby("_bucket")
            .map_groups(spread, batch_format="pandas")
            .groupby("_bucket2")
            .map_groups(gather, batch_format="pandas")
            .repartition(eblocks)
            .materialize()
        )

    def out(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: pd.array(df["id"].to_numpy(object), dtype="string"),
                "pr": df["pr"].to_numpy(np.int64),
            }
        )

    return ranks.map_batches(out, batch_format="pandas")


def local_clustering(pairs, cfg=None, *, id_col: str = "vec_id",
                     max_degree: int | None = None,
                     stats_out: dict | None = None):
    """Per-node triangle participation over an undirected distinct pair
    list (left_id < right_id, strings): output (``id_col``:string,
    deg:int64, n_tri:int64) — the local clustering coefficient's exact
    integer numerator (n_tri) and denominator ingredient (deg); the
    caller divides n_tri / C(deg,2) in floats if it wants the ratio.

    Algorithm: the standard distributed wedge-check. Each edge is routed
    to BOTH endpoints (one hash(node) exchange); per node the sorted
    neighbor list emits its C(deg,2) wedges (u, w, center); wedges meet
    the edge set in a hash(u,w)-bucketed exchange — a wedge that finds
    its closing edge is a triangle, pre-counted per center in the bucket;
    a final hash(node) exchange joins triangle partials with the degree
    markers. Every triangle is counted exactly once per member (its
    closing edge matches one wedge per center).

    Scale: wedge volume is Σ C(deg(v), 2) — bounded for kNN graphs
    (out-degree ≤ k) except at high-IN-degree hubs. ``max_degree`` skips
    wedge generation for nodes above the cap (their n_tri reports −1,
    never a silently-wrong count; skips are counted in ``stats_out``);
    leave None for the exact answer when the graph is degree-bounded."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    # data-sized blocks: a CPU-fanned upstream (e.g. the pairer's 128
    # blocks) makes the chained exchanges pay per-fragment coordination —
    # measured 7.5 s vs 0.7 s at sf0.1 for identical output
    pairs = pairs.materialize()
    pblocks = max(1, -(-pairs.count() // 2_000_000))
    pairs = pairs.repartition(pblocks).materialize()

    def double(df: pd.DataFrame) -> pd.DataFrame:
        l = df["left_id"].astype(str).to_numpy(object)
        r = df["right_id"].astype(str).to_numpy(object)
        node = np.concatenate([l, r])
        nbr = np.concatenate([r, l])
        return pd.DataFrame(
            {
                "node": node,
                "nbr": nbr,
                "_bucket": bucket_of(pd.Series(node), nb),
            }
        )

    doubled = pairs.map_batches(double, batch_format="pandas")

    skipped = []

    def make_wedges(g: pd.DataFrame) -> pd.DataFrame:
        # one bucket holds EVERY edge of its nodes → degree is exact here
        deg = g.groupby("node", sort=False)["nbr"].size().rename("deg")
        gg = g.merge(deg, left_on="node", right_index=True)
        capped = (
            gg["deg"].to_numpy(np.int64) > max_degree
            if max_degree is not None
            else np.zeros(len(gg), bool)
        )
        frames = []
        w = gg[~capped]
        if len(w):
            m = w.merge(w[["node", "nbr"]], on="node")
            m = m[m["nbr_x"] < m["nbr_y"]]
            frames.append(
                pd.DataFrame(
                    {
                        "u": m["nbr_x"].to_numpy(object),
                        "w": m["nbr_y"].to_numpy(object),
                        "center": m["node"].to_numpy(object),
                        "t": np.zeros(len(m), np.int64),
                        "deg": np.zeros(len(m), np.int64),
                        "_kind": np.zeros(len(m), np.int8),  # wedge
                    }
                )
            )
        d = deg.reset_index()
        is_capped = (
            d["deg"].to_numpy(np.int64) > max_degree
            if max_degree is not None
            else np.zeros(len(d), bool)
        )
        frames.append(
            pd.DataFrame(
                {
                    "u": d["node"].to_numpy(object),
                    "w": d["node"].to_numpy(object),
                    "center": d["node"].to_numpy(object),
                    "t": np.where(is_capped, -1, 0).astype(np.int64),
                    "deg": d["deg"].to_numpy(np.int64),
                    "_kind": np.full(len(d), 2, np.int8),  # deg marker
                }
            )
        )
        out = pd.concat(frames, ignore_index=True)
        # wedges route to the closing edge's bucket; markers to the node's
        out["_bucket2"] = np.where(
            out["_kind"] == 2,
            bucket_of(out["center"], nb),
            bucket_of(out["u"] + "\x00" + out["w"], nb),
        ).astype(np.int32)
        return out

    wedges = (
        doubled.groupby("_bucket")
        .map_groups(make_wedges, batch_format="pandas")
    )

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        l = df["left_id"].astype(str).to_numpy(object)
        r = df["right_id"].astype(str).to_numpy(object)
        out = pd.DataFrame(
            {
                "u": l,
                "w": r,
                "center": np.full(len(df), "", object),
                "t": np.zeros(len(df), np.int64),
                "deg": np.zeros(len(df), np.int64),
                "_kind": np.ones(len(df), np.int8),  # edge
            }
        )
        out["_bucket2"] = bucket_of(out["u"] + "\x00" + out["w"], nb)
        return out

    edges_tagged = pairs.map_batches(edge_rows, batch_format="pandas")

    def match(g: pd.DataFrame) -> pd.DataFrame:
        """Close wedges against edges; pass markers through. Output
        (node, t, deg, _is_deg, _bucket3)."""
        marks = g[g["_kind"] == 2]
        out_frames = [
            pd.DataFrame(
                {
                    "node": marks["center"].to_numpy(object),
                    "t": marks["t"].to_numpy(np.int64),
                    "deg": marks["deg"].to_numpy(np.int64),
                    "_is_deg": np.ones(len(marks), np.int8),
                }
            )
        ]
        wed = g[g["_kind"] == 0]
        edg = g[g["_kind"] == 1][["u", "w"]]
        if len(wed) and len(edg):
            m = wed.merge(edg.drop_duplicates(), on=["u", "w"])
            if len(m):
                c = (
                    m.groupby("center", sort=False)
                    .size()
                    .rename("t")
                    .reset_index()
                )
                out_frames.append(
                    pd.DataFrame(
                        {
                            "node": c["center"].to_numpy(object),
                            "t": c["t"].to_numpy(np.int64),
                            "deg": np.zeros(len(c), np.int64),
                            "_is_deg": np.zeros(len(c), np.int8),
                        }
                    )
                )
        out = pd.concat(out_frames, ignore_index=True)
        out["_bucket3"] = bucket_of(out["node"], nb)
        return out

    def gather(g: pd.DataFrame) -> pd.DataFrame:
        marks = g[g["_is_deg"] == 1].drop_duplicates("node")
        tri = g[g["_is_deg"] == 0].groupby("node", sort=False)["t"].sum()
        ids = marks["node"].to_numpy(object)
        t = tri.reindex(ids).fillna(0).to_numpy(np.int64)
        capped = marks["t"].to_numpy(np.int64) == -1
        return pd.DataFrame(
            {
                id_col: pd.array(ids, dtype="string"),
                "deg": marks["deg"].to_numpy(np.int64),
                "n_tri": np.where(capped, -1, t),
            }
        )

    out = (
        wedges.union(edges_tagged)
        .groupby("_bucket2")
        .map_groups(match, batch_format="pandas")
        .groupby("_bucket3")
        .map_groups(gather, batch_format="pandas")
    )
    if stats_out is not None:
        stats_out["max_degree"] = max_degree
    return out


def neighbor_majority_label(pairs, labels, cfg=None, *,
                            id_col: str = "vec_id",
                            label_col: str = "label"):
    """One round of majority-vote label propagation over an undirected
    pair list — the label-denoising / semi-supervised step: each node in
    the graph adopts the MODE of its neighbors' labels (count DESC, label
    ASC tie-break; deterministic). Nodes outside the graph emit nothing.
    Output (``id_col``:string, maj_label:int64).

    Scale shape: edges double map-side; labels project to skinny
    (id, label) rows; they meet in ONE hash(neighbor-id) exchange where
    each edge picks up its neighbor's label; per-(node, label) partial
    counts flow through a second hash(node) exchange where the mode reads
    off the count vector. No driver state, no label table broadcast."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def dbl(df: pd.DataFrame) -> pd.DataFrame:
        l = df["left_id"].astype(str).to_numpy(object)
        r = df["right_id"].astype(str).to_numpy(object)
        node = np.concatenate([l, r])
        nbr = np.concatenate([r, l])
        return pd.DataFrame(
            {
                "node": node,
                "key": nbr,
                "label": np.zeros(len(node), np.int64),
                "_is_lab": np.zeros(len(node), np.int8),
                "_bucket": bucket_of(pd.Series(nbr), nb),
            }
        )

    def lab_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].astype(str).to_numpy(object)
        return pd.DataFrame(
            {
                "node": np.full(len(df), "", object),
                "key": ids,
                "label": df[label_col].to_numpy(np.int64),
                "_is_lab": np.ones(len(df), np.int8),
                "_bucket": bucket_of(pd.Series(ids), nb),
            }
        )

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["_is_lab"] == 1][["key", "label"]].drop_duplicates("key")
        edg = g[g["_is_lab"] == 0][["node", "key"]]
        m = edg.merge(lab, on="key")
        c = (
            m.groupby(["node", "label"], sort=False)
            .size()
            .rename("cnt")
            .reset_index()
        )
        c["_bucket2"] = bucket_of(c["node"], nb)
        return c

    def mode(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(["node", "label"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        s = s.sort_values(
            ["node", "cnt", "label"],
            ascending=[True, False, True],
            kind="mergesort",
        ).drop_duplicates("node")
        return pd.DataFrame(
            {
                id_col: pd.array(s["node"].to_numpy(object), dtype="string"),
                "maj_label": s["label"].to_numpy(np.int64),
            }
        )

    pairs = pairs.materialize()
    pblocks = max(1, -(-pairs.count() // 2_000_000))
    pairs = pairs.repartition(pblocks).materialize()
    e = pairs.map_batches(dbl, batch_format="pandas")
    lb = labels.map_batches(lab_rows, batch_format="pandas")
    return (
        e.union(lb)
        .groupby("_bucket")
        .map_groups(attach, batch_format="pandas")
        .groupby("_bucket2")
        .map_groups(mode, batch_format="pandas")
    )


def graph_modularity(
    edges,
    labels,
    cfg: EngineConfig | None = None,
    *,
    id_col: str = "doc_id",
    label_col: str = "cluster_id",
):
    """Newman modularity Q of a clustering against an undirected deduped
    edge list (left_id, right_id) — the standard partition-quality score
    for a blocking/dedup campaign (how much denser are clusters than a
    random graph with the same degrees):

        Q = Σ_c [ e_c/m − (d_c/2m)² ]  =  (4m·Σ_c e_c − Σ_c d_c²) / 4m²

    with m = |edges|, e_c = within-cluster edges, d_c = total degree of
    cluster c. The numerator is EXACT integer arithmetic end-to-end; Q is
    the single final IEEE division (the repo-wide ratios rule), so the
    engine and the HUGEINT SQL twin cannot drift. One row out:
    (n_edges, n_clusters, q).

    Scale shape: labels attach to the edge stream via the guarded broadcast
    (dict under broadcast_rows_max, two hash joins past it); each labeled
    batch collapses to (cluster, e_partial, d_partial) rows; ONE bucketed
    exchange on hash(cluster) combines them, and each bucket reduces to a
    single row carrying Σe (int64 — bounded by m) and Σd² as an
    arbitrary-precision DECIMAL STRING (d_c² sums overflow int64 once a
    cluster's degree passes ~3·10⁹) — O(num_buckets) driver state no matter
    how many clusters exist. n_clusters is an exact bucketed distinct."""
    import pyarrow.compute as pc

    import ray

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    lab_skinny = labels.map_batches(
        lambda t: pa.table(
            {
                "_id": t.column(id_col).cast(pa.string()),
                "_lab": t.column(label_col).cast(pa.string()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    m = edges.count()

    # --- exact distinct cluster count: per-batch unique -> label-hash
    # buckets partition the label space, so per-bucket nuniques are disjoint
    def lab_partial(df: pd.DataFrame) -> pd.DataFrame:
        u = df["_lab"].drop_duplicates()
        return pd.DataFrame(
            {
                "_lab": u.values,
                "_bucket": (id_hash(u.values) % np.uint64(nb)).astype("int32"),
            }
        )

    def lab_count(g: pd.DataFrame) -> pd.DataFrame:
        n = pc.count_distinct(pa.array(g["_lab"].values, pa.string()))
        return pd.DataFrame({"_n": [np.int64(n.as_py())]})

    ncl_df = (
        lab_skinny.map_batches(lab_partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(lab_count, batch_format="pandas")
        .to_pandas()
    )
    n_clusters = int(ncl_df["_n"].sum()) if len(ncl_df) else 0

    def partials_from(la: pd.Series, lb: pd.Series) -> pd.DataFrame:
        agg = _sum_by_label(
            "_c",
            np.concatenate([la.values, lb.values]),
            _e=np.concatenate(
                [(la.values == lb.values).astype(np.int64),
                 np.zeros(len(lb), np.int64)]
            ),
            _d=np.ones(len(la) + len(lb), np.int64),
        )
        agg["_bucket"] = (
            id_hash(agg["_c"].values) % np.uint64(nb)
        ).astype("int32")
        return agg

    fits = (
        lab_skinny.count() <= cfg.broadcast_rows_max
        and lab_skinny.size_bytes() <= cfg.broadcast_bytes_max
    )
    if fits:
        lab_df = lab_skinny.to_pandas()
        lab_ref = ray.put(dict(zip(lab_df["_id"], lab_df["_lab"])))

        def edge_partial(df: pd.DataFrame) -> pd.DataFrame:
            from ..state.broadcast import cached_get

            lk = cached_get(lab_ref)
            la = df["left_id"].astype(str).map(lk)
            lb = df["right_id"].astype(str).map(lk)
            ok = la.notna() & lb.notna()
            return partials_from(la[ok], lb[ok])

        cell_stream = edges.map_batches(edge_partial, batch_format="pandas")
    else:
        from ..config import join_partitions

        e_sk = edges.map_batches(
            lambda t: pa.table(
                {
                    "_id": t.column("left_id").cast(pa.string()),
                    "_rid": t.column("right_id").cast(pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
        j1 = e_sk.join(
            lab_skinny, join_type="inner",
            num_partitions=join_partitions(), on=("_id",),
        ).map_batches(
            lambda t: pa.table(
                {
                    "_id": t.column("_rid"),
                    "_la": t.column("_lab"),
                }
            ),
            batch_format="pyarrow",
        )
        j2 = j1.join(
            lab_skinny, join_type="inner",
            num_partitions=join_partitions(), on=("_id",),
        )

        def joined_partial(df: pd.DataFrame) -> pd.DataFrame:
            return partials_from(df["_la"], df["_lab"])

        cell_stream = j2.map_batches(joined_partial, batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sum_e = int(g["_e"].sum())
        d = _sum_by_label(
            "_c", g["_c"].values, _d=g["_d"].to_numpy(np.int64)
        )
        sum_d2 = sum(int(x) * int(x) for x in d["_d"].values)
        return pd.DataFrame(
            {"_sum_e": [str(sum_e)], "_sum_d2": [str(sum_d2)]}
        )

    bucket_rows = (
        cell_stream.groupby("_bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    sum_e = sum(int(s) for s in bucket_rows["_sum_e"]) if len(bucket_rows) else 0
    sum_d2 = (
        sum(int(s) for s in bucket_rows["_sum_d2"]) if len(bucket_rows) else 0
    )
    q = (
        float(4 * m * sum_e - sum_d2) / float(4 * m * m) if m > 0 else 0.0
    )
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([m], pa.int64()),
                "n_clusters": pa.array([n_clusters], pa.int64()),
                "q": pa.array([q], pa.float64()),
            }
        )
    )


def _node_degrees(edges, cfg: EngineConfig, out_node="node", out_deg="degree"):
    """Exact degree of every node of an undirected deduped edge list:
    per-batch factorize+bincount partials (each edge credits both ends),
    ONE bucketed exchange on hash(node) — the edge list never moves twice."""
    nb = cfg.num_buckets

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        both = np.concatenate(
            [
                np.asarray(df["left_id"].values, dtype=object),
                np.asarray(df["right_id"].values, dtype=object),
            ]
        )
        codes, uniq = pd.factorize(both, sort=False)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pd.DataFrame(
            {
                "_n": uniq,
                "_c": cnt,
                "_bucket": (id_hash(uniq) % np.uint64(nb)).astype("int32"),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("_n", sort=False)["_c"].sum().reset_index()
        return pd.DataFrame(
            {
                out_node: agg["_n"].astype(str).values,
                out_deg: agg["_c"].to_numpy(np.int64),
            }
        )

    return (
        edges.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(combine, batch_format="pandas")
    )


def kcore_peel(
    pairs,
    cfg: EngineConfig | None = None,
    *,
    k: int = 2,
    rounds: int = 2,
):
    """Bounded-round k-core peeling of an undirected deduped edge list —
    the graph-densification step of a blocking campaign (drop records whose
    candidate neighborhood is too sparse to ever cluster). Each round
    removes every node of degree < k together with its edges; once peeling
    converges the survivors ARE the exact k-core, and a FIXED round count is
    the same determinism contract as ``pagerank``'s fixed iterations (the
    twin unrolls the same number of CTE rounds — an unbounded loop has no
    SQL twin). Output: (node, degree) over the edge set surviving all
    rounds (nodes that lost every edge do not appear).

    Scale shape: per round, one bucketed degree exchange + two guarded
    semi-joins (the ≥k node set broadcasts under the cap, distinct-marker
    hash join past it); the edge set is re-materialized per round — the
    synchronous barrier peeling has anyway (the pagerank measurement:
    an unflattened lazy chain was 9× slower). The semi-joins compare
    md5-lower64 node hashes (broadcast_exists_join's int64 contract) — the
    house identity convention; a false retention needs a 64-bit collision
    between live node ids."""
    from .dedup import hash64_strs
    from .relational import broadcast_exists_join

    cfg = cfg or EngineConfig()

    def add_edge_hashes(t: pa.Table) -> pa.Table:
        lh = hash64_strs(
            t.column("left_id").cast(pa.string())
        ).view(np.int64)
        rh = hash64_strs(
            t.column("right_id").cast(pa.string())
        ).view(np.int64)
        return pa.table(
            {
                "left_id": t.column("left_id"),
                "right_id": t.column("right_id"),
                "_lh": pa.array(lh),
                "_rh": pa.array(rh),
            }
        )

    def add_node_hash(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_kh": pa.array(
                    hash64_strs(
                        t.column("node").cast(pa.string())
                    ).view(np.int64)
                )
            }
        )

    edges = (
        pairs.select_columns(["left_id", "right_id"])
        .map_batches(add_edge_hashes, batch_format="pyarrow")
        .materialize()
    )
    for _ in range(int(rounds)):
        keep = (
            _node_degrees(edges, cfg)
            .filter(expr=f"degree >= {int(k)}")
            .map_batches(add_node_hash, batch_format="pyarrow")
        )
        edges = broadcast_exists_join(
            edges, keep, big_key="_lh", small_key="_kh", cfg=cfg
        )
        edges = broadcast_exists_join(
            edges, keep, big_key="_rh", small_key="_kh", cfg=cfg
        ).materialize()
    return _node_degrees(edges, cfg)


def cluster_size_histogram(labeled, cfg: EngineConfig | None = None,
                           *, label_col: str = "cluster_id"):
    """Cluster-size histogram over any (row → cluster label) table — the
    dedup-campaign sizing scan at the CLUSTER level (dup_size_histogram's
    CC-aware sibling): how many clusters have exactly n members. Output
    (cluster_size, n_clusters).

    Scale shape: per-batch (label, count) partials ride ONE bucketed
    exchange on hash(label) (labels of a cluster co-locate ⇒ exact sizes);
    per bucket sizes collapse to (size, count) partials — O(distinct sizes)
    — and one tiny second exchange combines them. Rows never move."""
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df[label_col].astype(str).value_counts()
        return pd.DataFrame(
            {
                "_l": g.index.values,
                "_c": g.to_numpy(np.int64),
                "_bucket": (
                    id_hash(g.index.values) % np.uint64(nb)
                ).astype("int32"),
            }
        )

    def sizes(g: pd.DataFrame) -> pd.DataFrame:
        sz = _sum_by_label(
            "_l", g["_l"].values, _c=g["_c"].to_numpy(np.int64)
        )
        h = sz["_c"].value_counts()
        return pd.DataFrame(
            {
                "_s": h.index.to_numpy(np.int64),
                "_n": h.to_numpy(np.int64),
                "_b2": (h.index.to_numpy(np.int64) % nb).astype(np.int32),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("_s", sort=False)["_n"].sum().reset_index()
        return pd.DataFrame(
            {
                "cluster_size": agg["_s"].to_numpy(np.int64),
                "n_clusters": agg["_n"].to_numpy(np.int64),
            }
        )

    return (
        labeled.map_batches(partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(sizes, batch_format="pandas")
        .groupby("_b2")
        .map_groups(combine, batch_format="pandas")
    )


def degree_assortativity(pairs, cfg=None):
    """Degree assortativity of an undirected graph given as a deduped edge
    list (left_id, right_id string ids) — Pearson correlation of endpoint
    degrees over directed stubs (each edge counted both ways, the standard
    Newman definition). The blocking-graph health diagnostic next to
    ``triangle_count``: strongly negative r means hubs attach to leaves
    (skewed blocks), r ≈ 0 is the kNN-regular regime. Emits ONE row
    (n_nodes, n_edges, assortativity:double); by x/y symmetry the
    correlation needs only M, Σx, Σx², Σxy — all EXACT integers, one float
    division at the end (NULL when degrees are constant).

    Scale shape: two skinny exchanges, no degree-table join anywhere —
    after doubling each edge, a node's OUT-degree at the first hash(src)
    exchange and its IN-degree at the second hash(dst) exchange both equal
    its degree, so each side's degree is a per-bucket group size. Partial
    sums leave each bucket as one row; the tiny combine runs in PYTHON
    ints (Σdeg²·deg² wraps int64 at hub scale)."""
    import pandas as pd

    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def double(df: pd.DataFrame) -> pd.DataFrame:
        src = pd.concat([df["left_id"], df["right_id"]], ignore_index=True)
        dst = pd.concat([df["right_id"], df["left_id"]], ignore_index=True)
        out = pd.DataFrame({"src": src.astype(str), "dst": dst.astype(str)})
        out["_bucket"] = bucket_of(out["src"], nb)
        return out

    def out_degree(g: pd.DataFrame) -> pd.DataFrame:
        x = g.groupby("src", sort=False)["dst"].transform("size")
        out = pd.DataFrame(
            {"dst": g["dst"], "x": x.to_numpy(np.int64)}
        )
        out["_b2"] = bucket_of(out["dst"], nb)
        return out

    def in_degree_partial(g: pd.DataFrame) -> pd.DataFrame:
        y = g.groupby("dst", sort=False)["x"].transform("size").to_numpy(
            np.int64
        )
        x = g["x"].to_numpy(np.int64)
        # Per-bucket product sums in Python ints: hub degrees ~1e5 make
        # x*y ~1e10 per edge, which wraps an int64 accumulator over a large
        # bucket before the Python-int final fold ever sees it. The exact
        # sums are split hi/lo at 2**62 for int64-safe Arrow transport.
        sxy = sum(int(a) * int(b) for a, b in zip(x.tolist(), y.tolist()))
        sxx = sum(int(a) * int(a) for a in x.tolist())
        return pd.DataFrame(
            {
                "m": [np.int64(len(x))],
                "nodes": [np.int64(g["dst"].nunique())],
                "s1": [np.int64(x.sum())],
                "sxy_hi": [np.int64(sxy >> 62)],
                "sxy_lo": [np.int64(sxy & (2**62 - 1))],
                "sxx_hi": [np.int64(sxx >> 62)],
                "sxx_lo": [np.int64(sxx & (2**62 - 1))],
            }
        )

    def combine(df: pd.DataFrame) -> pa.Table:
        m = int(df["m"].sum())
        nodes = int(df["nodes"].sum())
        s1 = sum(int(v) for v in df["s1"])
        sxy = sum(
            (int(h) << 62) + int(lo)
            for h, lo in zip(df["sxy_hi"], df["sxy_lo"])
        )
        sxx = sum(
            (int(h) << 62) + int(lo)
            for h, lo in zip(df["sxx_hi"], df["sxx_lo"])
        )
        den = m * sxx - s1 * s1
        r = float(m * sxy - s1 * s1) / float(den) if den != 0 else None
        return pa.table(
            {
                "n_nodes": pa.array([nodes], pa.int64()),
                "n_edges": pa.array([m // 2], pa.int64()),
                "assortativity": pa.array([r], pa.float64()),
            }
        )

    return (
        pairs.map_batches(double, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(out_degree, batch_format="pandas")
        .groupby("_b2")
        .map_groups(in_degree_partial, batch_format="pandas")
        .repartition(1)
        .map_batches(combine, batch_format="pandas")
    )


def bfs_hops(edges, seeds, cfg=None, *, max_hops: int = 6):
    """Bounded-round multi-source BFS: min hop distance from any seed over
    an undirected edge list (left_id, right_id string ids) — the
    reachability/radius probe for blocking graphs (how far does a seed
    entity's candidate neighborhood extend?). ``seeds`` is a driver-side
    list of node ids (a bounded panel by construction). Emits
    (id:string, hop:int64) for every node within ``max_hops``; like
    ``kcore``/``pagerank`` the round count is fixed (synchronous BFS has
    an inherent barrier per round).

    Scale shape per round: labels ∪ directed edges meet on hash(src)
    (spread: every labeled node offers hop+1 to its neighbors, per-bucket
    pre-min per dst), then candidates meet existing labels on hash(id)
    (gather: global min, old labels win) — two skinny bucketed exchanges,
    no driver-side frontier state."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        src = pd.concat([df["left_id"], df["right_id"]], ignore_index=True)
        dst = pd.concat([df["right_id"], df["left_id"]], ignore_index=True)
        out = pd.DataFrame(
            {"src": src.astype(str).to_numpy(object),
             "dst": dst.astype(str).to_numpy(object)}
        )
        out["_bucket"] = bucket_of(out["src"], nb)
        return out

    ed = edges.map_batches(tag_edges, batch_format="pandas").materialize()

    import ray.data as rd

    labels = rd.from_pandas(
        pd.DataFrame(
            {
                "id": pd.Series([str(s) for s in seeds], dtype=object),
                "hop": np.zeros(len(seeds), np.int64),
            }
        )
    ).materialize()

    cols = ["src", "dst", "id", "hop", "_is_label", "_bucket"]

    def spread(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["_is_label"] == 1]
        e = g[g["_is_label"] == 0][["src", "dst"]]
        frames = [
            pd.DataFrame(
                {
                    "id": lab["id"].to_numpy(object),
                    "hop": lab["hop"].to_numpy(np.int64),
                }
            )
        ]
        if len(e) and len(lab):
            m = e.merge(lab[["id", "hop"]], left_on="src", right_on="id")
            c = (
                pd.DataFrame(
                    {
                        "id": m["dst"].to_numpy(object),
                        "hop": m["hop"].to_numpy(np.int64) + 1,
                    }
                )
                .groupby("id", sort=False)["hop"]
                .min()
                .reset_index()
            )
            frames.append(c)
        out = pd.concat(frames, ignore_index=True)
        out["_b2"] = bucket_of(out["id"], nb)
        return out

    def gather(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("id", sort=False)["hop"].min().reset_index()
        s["_bucket"] = bucket_of(s["id"], nb)
        return s

    for _ in range(max_hops):
        tagged_labels = labels.map_batches(
            lambda df: df.assign(
                src=df["id"], dst="", _is_label=np.int8(1),
                _bucket=bucket_of(df["id"].astype(str), nb),
            )[cols],
            batch_format="pandas",
        )
        tagged_edges = ed.map_batches(
            lambda df: df.assign(
                id="", hop=np.int64(0), _is_label=np.int8(0)
            )[cols],
            batch_format="pandas",
        )
        labels = (
            tagged_labels.union(tagged_edges)
            .groupby("_bucket")
            .map_groups(spread, batch_format="pandas")
            .groupby("_b2")
            .map_groups(gather, batch_format="pandas")
            .materialize()
        )

    def out(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "id": pa.array(df["id"].to_numpy(object), pa.string()),
                "hop": pa.array(df["hop"].to_numpy(np.int64)),
            }
        )

    return labels.map_batches(out, batch_format="pandas")


def hits(edges, cfg=None, *, iters: int = 2, id_col: str = "vec_id"):
    """Integer-exact HITS hub/authority scores over a directed edge list
    (src:string, dst:string), fixed iteration count, NO normalization:
    hub₀(v) = 1; authₜ(v) = Σ_{u→v} hubₜ₋₁(u); hubₜ(v) = Σ_{v→u} authₜ(u).
    Skipping the usual L2 normalization keeps every value an exact int64
    (the RANKING it induces is identical — normalization is a positive
    scalar per round), so the output is bit-reproducible and SQL-twinnable
    as ``iters`` rounds of plain join-aggregate. Node set = distinct srcs;
    the caller must ensure every dst also appears as a src (true for kNN
    graphs — each node emits k edges). Overflow: scores grow ≤ ×(k·Δin)
    per half-step; (k·Δin)^iters must stay < 2⁶³ (k=5, Δin ≤ 10⁴ allows
    iters=2 up to ~10⁹ nodes). Output (id_col, hub:int64, auth:int64).

    Scale shape: two bucketed exchanges per half-step (edges meet scores
    on hash(join endpoint), partials meet the node markers on hash(dst)) —
    the same small-int bucket pattern as ``pagerank``; the edge list is
    tagged once per orientation and re-read from its materialized,
    data-sized-block form every round. No driver-side state."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def orient(frm: str, to: str):
        def tag(df: pd.DataFrame) -> pd.DataFrame:
            ids = df[frm].astype(str)
            return pd.DataFrame(
                {
                    "id": ids.to_numpy(object),
                    "other": df[to].astype(str).to_numpy(object),
                    "s": np.zeros(len(df), np.int64),
                    "_is_rank": np.zeros(len(df), np.int8),
                    "_bucket": bucket_of(ids, nb),
                }
            )

        return edges.map_batches(tag, batch_format="pandas")

    ed_src = orient("src", "dst").materialize()
    n_edges = ed_src.count()
    eblocks = max(1, -(-n_edges // 2_000_000))
    ed_src = ed_src.repartition(eblocks).materialize()
    ed_dst = orient("dst", "src").repartition(eblocks).materialize()

    # node set = distinct srcs (one bucketed dedup exchange)
    def node_partial(df: pd.DataFrame) -> pd.DataFrame:
        u = df[df["_is_rank"] == 0]["id"].drop_duplicates()
        return pd.DataFrame({"id": u.to_numpy(object),
                             "_bucket": bucket_of(u, nb)})

    def node_combine(g: pd.DataFrame) -> pd.DataFrame:
        u = g["id"].drop_duplicates()
        return pd.DataFrame(
            {
                "id": u.to_numpy(object),
                "other": np.full(len(u), "", object),
                "s": np.zeros(len(u), np.int64),
                "_is_rank": np.ones(len(u), np.int8),
                "_bucket": bucket_of(u, nb),
            }
        )

    zero_nodes = (
        ed_src.map_batches(node_partial, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(node_combine, batch_format="pandas")
        .materialize()
    )

    def _with_score(nodes_ds, value: int):
        def setv(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["s"] = np.full(len(df), value, np.int64)
            return out

        return nodes_ds.map_batches(setv, batch_format="pandas")

    def spread(g: pd.DataFrame) -> pd.DataFrame:
        sc = g[g["_is_rank"] == 1][["id", "s"]]
        e = g[g["_is_rank"] == 0][["id", "other"]]
        if len(e) == 0 or len(sc) == 0:
            return pd.DataFrame(
                {"id": pd.Series(dtype=object),
                 "other": pd.Series(dtype=object),
                 "s": pd.Series(dtype=np.int64),
                 "_is_rank": pd.Series(dtype=np.int8),
                 "_bucket": pd.Series(dtype=np.int32)}
            )
        m = e.merge(sc, on="id")
        p = m.groupby("other", sort=False)["s"].sum().reset_index()
        return pd.DataFrame(
            {
                "id": p["other"].to_numpy(object),
                "other": np.full(len(p), "", object),
                "s": p["s"].to_numpy(np.int64),
                "_is_rank": np.zeros(len(p), np.int8),
                "_bucket": bucket_of(p["other"], nb),
            }
        )

    def collect(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("id", sort=False)["s"].sum().reset_index()
        return pd.DataFrame(
            {
                "id": c["id"].to_numpy(object),
                "other": np.full(len(c), "", object),
                "s": c["s"].to_numpy(np.int64),
                "_is_rank": np.ones(len(c), np.int8),
                "_bucket": bucket_of(c["id"], nb),
            }
        )

    def _push(scores, ed_oriented):
        stage1 = (
            ed_oriented.union(scores)
            .groupby("_bucket")
            .map_groups(spread, batch_format="pandas")
        )
        return (
            stage1.union(zero_nodes)
            .groupby("_bucket")
            .map_groups(collect, batch_format="pandas")
            .materialize()
        )

    hub = _with_score(zero_nodes, 1).materialize()
    auth = zero_nodes
    for _ in range(iters):
        auth = _push(hub, ed_src)   # auth(v) = Σ_{u→v} hub(u)
        hub = _push(auth, ed_dst)   # hub(v)  = Σ_{v→u} auth(u)

    def tag_kind(kind: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            out = df[["id", "s", "_bucket"]].copy()
            out["_kind"] = np.full(len(df), kind, np.int8)
            return out

        return f

    def final(g: pd.DataFrame) -> pa.Table:
        p = (
            g.pivot_table(index="id", columns="_kind", values="s",
                          aggfunc="sum", fill_value=0)
            .reindex(columns=[0, 1], fill_value=0)
            .reset_index()
        )
        return pa.table(
            {
                id_col: pa.array(p["id"].astype(str).to_numpy(object),
                                 pa.string()),
                "hub": pa.array(p[1].to_numpy(np.int64)),
                "auth": pa.array(p[0].to_numpy(np.int64)),
            }
        )

    return (
        auth.map_batches(tag_kind(0), batch_format="pandas")
        .union(hub.map_batches(tag_kind(1), batch_format="pandas"))
        .groupby("_bucket")
        .map_groups(final, batch_format="pandas")
    )


def label_prop(pairs, cfg=None, *, iters: int = 2, id_col: str = "vec_id"):
    """Synchronous label propagation over an undirected edge list
    (left_id, right_id) — community detection at propagation cost, the
    modularity-free complement to ``connected_components`` (CC merges
    everything reachable; LPA keeps densely-linked cores apart after a
    fixed round count). Deterministic variant: every node starts as its
    own label (label₀(v) = v); each round ALL nodes update simultaneously
    to the most frequent label among their neighbors, ties broken by the
    LEXICOGRAPHICALLY SMALLEST label — no random order, so the result is
    bit-reproducible and SQL-twinnable as ``iters`` rounds of
    join-count-argmax. Every node of an edge has ≥ 1 neighbor, so no
    keep-own-label rule is needed. Output (id_col, label:string).

    Scale shape: two bucketed exchanges per round (the ``hits``/
    ``pagerank`` shape): edges meet labels on hash(src) with a per-bucket
    (dst, label) COUNT pre-reduce — only label-count partials ride the
    second exchange on hash(dst), where the argmax folds them. The edge
    list is tagged once and re-read from its materialized data-sized
    blocks every round; no driver-side state."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def orient(frm: str, to: str):
        def tag(df: pd.DataFrame) -> pd.DataFrame:
            ids = df[frm].astype(str)
            return pd.DataFrame(
                {
                    "id": ids.to_numpy(object),
                    "lab": df[to].astype(str).to_numpy(object),
                    "c": np.zeros(len(df), np.int64),
                    "_is_lab": np.zeros(len(df), np.int8),
                    "_bucket": bucket_of(ids, nb),
                }
            )

        return pairs.map_batches(tag, batch_format="pandas")

    both = orient("left_id", "right_id").union(
        orient("right_id", "left_id")
    ).materialize()
    n_edges = max(1, both.count())
    both = both.repartition(max(1, -(-n_edges // 2_000_000))).materialize()

    # labels₀: every endpoint labels itself (distinct ids per bucket)
    def self_label(g: pd.DataFrame) -> pd.DataFrame:
        u = g["id"].drop_duplicates()
        return pd.DataFrame(
            {
                "id": u.to_numpy(object),
                "lab": u.to_numpy(object),
                "c": np.zeros(len(u), np.int64),
                "_is_lab": np.ones(len(u), np.int8),
                "_bucket": bucket_of(u, nb),
            }
        )

    labels = (
        both.groupby("_bucket")
        .map_groups(self_label, batch_format="pandas")
        .materialize()
    )

    def spread(g: pd.DataFrame) -> pd.DataFrame:
        lb = g[g["_is_lab"] == 1][["id", "lab"]]
        e = g[g["_is_lab"] == 0][["id", "lab"]].rename(
            columns={"lab": "dst"}
        )
        if len(e) == 0 or len(lb) == 0:
            return pd.DataFrame(
                {"id": pd.Series(dtype=object),
                 "lab": pd.Series(dtype=object),
                 "c": pd.Series(dtype=np.int64),
                 "_is_lab": pd.Series(dtype=np.int8),
                 "_bucket": pd.Series(dtype=np.int32)}
            )
        m = e.merge(lb, on="id")
        p = (
            m.groupby(["dst", "lab"], sort=False)
            .size()
            .rename("c")
            .reset_index()
        )
        return pd.DataFrame(
            {
                "id": p["dst"].to_numpy(object),
                "lab": p["lab"].to_numpy(object),
                "c": p["c"].to_numpy(np.int64),
                "_is_lab": np.zeros(len(p), np.int8),
                "_bucket": bucket_of(p["dst"], nb),
            }
        )

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g.groupby(["id", "lab"], sort=False)["c"]
            .sum()
            .reset_index()
            .sort_values(["id", "c", "lab"],
                         ascending=[True, False, True], kind="mergesort")
            .groupby("id", sort=False)
            .head(1)
        )
        return pd.DataFrame(
            {
                "id": s["id"].to_numpy(object),
                "lab": s["lab"].to_numpy(object),
                "c": np.zeros(len(s), np.int64),
                "_is_lab": np.ones(len(s), np.int8),
                "_bucket": bucket_of(s["id"], nb),
            }
        )

    for _ in range(iters):
        labels = (
            both.union(labels)
            .groupby("_bucket")
            .map_groups(spread, batch_format="pandas")
            .groupby("_bucket")
            .map_groups(argmax, batch_format="pandas")
            .materialize()
        )

    def out(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                id_col: pa.array(df["id"].to_numpy(object), pa.string()),
                "label": pa.array(df["lab"].to_numpy(object), pa.string()),
            }
        )

    return labels.map_batches(out, batch_format="pandas")


def wl_signature(pairs, cfg=None, *, iters: int = 2,
                 id_col: str = "vec_id"):
    """Weisfeiler-Lehman node signatures over an undirected edge list —
    the 1-WL color-refinement step behind graph-isomorphism tests and
    structural-role dedup: each round every node's signature becomes

        sig_t(v) = md5-lower64( sig_{t-1}(v) || '|' ||
                                ','-join(SORTED multiset of neighbor
                                         sig_{t-1}) )

    rendered as the UNSIGNED decimal string, so two nodes share a
    signature after k rounds iff their depth-k neighborhood trees agree —
    the structural complement to ``label_prop`` (which finds communities,
    not roles). md5-lower64 is the repo's SQL-twinnable stable hash
    (DuckDB ``md5_number_lower``); lexicographic neighbor ordering under
    binary collation matches Python ``sorted`` exactly. sig₀(v) = the id
    string. Output (id_col, wl_sig:string).

    Scale shape: per round ONE hash(src) exchange gathers neighbor
    signatures along edges (O(edges) skinny rows) and ONE hash(dst)
    exchange folds them with the node's own signature (sort + join +
    one md5 per node); the edge list is materialized once per
    orientation at data-sized blocks. No driver state."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of
    from .dedup import hash64_strs

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    def orient(frm: str, to: str):
        def tag(df: pd.DataFrame) -> pd.DataFrame:
            ids = df[frm].astype(str)
            return pd.DataFrame(
                {
                    "id": ids.to_numpy(object),
                    "sig": df[to].astype(str).to_numpy(object),
                    "_is_sig": np.zeros(len(df), np.int8),
                    "_bucket": bucket_of(ids, nb),
                }
            )

        return pairs.map_batches(tag, batch_format="pandas")

    both = orient("left_id", "right_id").union(
        orient("right_id", "left_id")
    ).materialize()
    both = both.repartition(
        max(1, -(-both.count() // 2_000_000))
    ).materialize()

    def self_sig(g: pd.DataFrame) -> pd.DataFrame:
        u = g["id"].drop_duplicates()
        return pd.DataFrame(
            {
                "id": u.to_numpy(object),
                "sig": u.to_numpy(object),
                "_is_sig": np.ones(len(u), np.int8),
                "_bucket": bucket_of(u, nb),
            }
        )

    sigs = (
        both.groupby("_bucket")
        .map_groups(self_sig, batch_format="pandas")
        .materialize()
    )

    def gather(g: pd.DataFrame) -> pd.DataFrame:
        sg = g[g["_is_sig"] == 1][["id", "sig"]]
        e = g[g["_is_sig"] == 0][["id", "sig"]].rename(
            columns={"sig": "dst"}
        )
        if len(e) == 0 or len(sg) == 0:
            return pd.DataFrame(
                {"id": pd.Series(dtype=object),
                 "sig": pd.Series(dtype=object),
                 "_is_sig": pd.Series(dtype=np.int8),
                 "_bucket": pd.Series(dtype=np.int32)}
            )
        m = e.merge(sg, on="id")
        return pd.DataFrame(
            {
                "id": m["dst"].to_numpy(object),
                "sig": m["sig"].to_numpy(object),
                "_is_sig": np.zeros(len(m), np.int8),
                "_bucket": bucket_of(m["dst"], nb),
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        own = g[g["_is_sig"] == 1][["id", "sig"]]
        nbr = g[g["_is_sig"] == 0][["id", "sig"]]
        joined = (
            nbr.sort_values(["id", "sig"], kind="mergesort")
            .groupby("id", sort=False)["sig"]
            .agg(",".join)
        )
        m = own.merge(
            joined.rename("ns"), left_on="id", right_index=True
        )
        composed = (m["sig"] + "|" + m["ns"]).to_numpy(object)
        new = hash64_strs(composed).astype(np.uint64)
        return pd.DataFrame(
            {
                "id": m["id"].to_numpy(object),
                "sig": np.asarray([str(x) for x in new], object),
                "_is_sig": np.ones(len(m), np.int8),
                "_bucket": bucket_of(m["id"], nb),
            }
        )

    for _ in range(iters):
        partials = (
            both.union(sigs)
            .groupby("_bucket")
            .map_groups(gather, batch_format="pandas")
        )
        sigs = (
            partials.union(sigs)
            .groupby("_bucket")
            .map_groups(fold, batch_format="pandas")
            .materialize()
        )

    def out(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                id_col: pa.array(df["id"].to_numpy(object), pa.string()),
                "wl_sig": pa.array(df["sig"].to_numpy(object), pa.string()),
            }
        )

    return sigs.map_batches(out, batch_format="pandas")


def _double_edges_fn(nb: int):
    """Shared map fn: route each undirected edge to BOTH endpoints,
    bucketed on the node (the wedge-machinery input)."""
    from .canonicalize import bucket_of

    def double(df: pd.DataFrame) -> pd.DataFrame:
        l = df["left_id"].astype(str).to_numpy(object)
        r = df["right_id"].astype(str).to_numpy(object)
        node = np.concatenate([l, r])
        nbr = np.concatenate([r, l])
        return pd.DataFrame(
            {
                "node": node,
                "nbr": nbr,
                "_bucket": bucket_of(pd.Series(node), nb),
            }
        )

    return double


def _wedge_pairs(node: np.ndarray, nbr: np.ndarray):
    """All (i < j) neighbor pairs per node over (node, nbr)-sorted
    arrays — the shared reps/offset index arithmetic. Returns
    (wa, wb, starts, counts) with wa < wb within each node."""
    starts = np.nonzero(
        np.concatenate(([True], node[1:] != node[:-1]))
    )[0]
    counts = np.diff(np.concatenate((starts, [len(node)])))
    reps = np.repeat(
        counts - 1, counts
    ) - (np.arange(len(node), dtype=np.int64)
         - np.repeat(starts, counts))
    reps = np.maximum(reps, 0)
    i_idx = np.repeat(np.arange(len(node), dtype=np.int64), reps)
    off = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(reps)[:-1])), reps
    )
    j_idx = i_idx + 1 + off
    return nbr[i_idx], nbr[j_idx], starts, counts


def edge_features(pairs, cfg=None):
    """Per-edge structural features over an undirected distinct pair list
    (left_id < right_id, strings) — the link-prediction / ER-evidence
    triple: (left_id, right_id, deg_l, deg_r, n_common) where n_common =
    |N(l) ∩ N(r)| (common neighbors, excluding the endpoints themselves —
    a neighbor can't be l or r because the graph has no self-loops).
    Neighborhood Jaccard, Adamic-Adar denominators, and the k-truss edge
    support (n_common ≥ k−2) are all one expression away; everything
    stays integer.

    Algorithm: the ``local_clustering`` wedge-check re-aimed at EDGES —
    each edge routes to both endpoints (one hash(node) exchange), per
    node its sorted neighbor list emits C(deg,2) wedges (u, w); wedges
    meet the edge set in a hash(u|w)-bucketed exchange where each wedge
    that finds its closing edge contributes 1 to that edge's n_common
    (a common neighbor c of edge (u,w) IS the wedge (u,w) centered at
    c); degrees attach to the edge at the same exchange via marker rows.
    Wedge volume is Σ C(deg,2) — bounded for degree-capped kNN graphs
    (the local_clustering containment note applies to hubs)."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    pairs = pairs.materialize()
    pairs = pairs.repartition(
        max(1, -(-pairs.count() // 2_000_000))
    ).materialize()
    double = _double_edges_fn(nb)

    def wedges_and_degrees(g: pd.DataFrame) -> pd.DataFrame:
        # per node: degree marker rows (kind 1 for left endpoint, 2 for
        # right) keyed by each INCIDENT edge, plus C(deg,2) wedge rows
        # (kind 0) keyed by the wedge pair — all meet at hash(pair)
        g = g.sort_values(["node", "nbr"], kind="mergesort")
        node = g["node"].to_numpy(object)
        nbr = g["nbr"].to_numpy(object)
        wa, wb, starts, counts = _wedge_pairs(node, nbr)
        deg = counts  # per distinct node
        # degree markers: one row per incident edge, oriented canonically
        is_left = node < nbr
        ka = np.where(is_left, node, nbr)
        kb = np.where(is_left, nbr, node)
        kind = np.where(is_left, 1, 2).astype(np.int8)
        n_mark = np.repeat(deg, counts)  # this node's degree, per edge
        out = pd.DataFrame(
            {
                "a": np.concatenate([ka, wa]),
                "b": np.concatenate([kb, wb]),
                "kind": np.concatenate(
                    [kind, np.zeros(len(wa), np.int8)]
                ),
                "n": np.concatenate(
                    [n_mark.astype(np.int64),
                     np.ones(len(wa), np.int64)]
                ),
            }
        )
        out["_bucket"] = bucket_of(out["a"].astype(str) + "|"
                                   + out["b"].astype(str), nb)
        return out

    def fold(g: pd.DataFrame) -> pa.Table:
        marks = g[g["kind"] != 0]
        if len(marks) == 0:
            return pa.table(
                {
                    "left_id": pa.array([], pa.string()),
                    "right_id": pa.array([], pa.string()),
                    "deg_l": pa.array([], pa.int64()),
                    "deg_r": pa.array([], pa.int64()),
                    "n_common": pa.array([], pa.int64()),
                }
            )
        w = (
            g[g["kind"] == 0]
            .groupby(["a", "b"], sort=False)["n"]
            .sum()
            .rename("n_common")
        )
        p = marks.pivot_table(
            index=["a", "b"], columns="kind", values="n", aggfunc="max"
        ).reset_index()
        m = p.merge(w, left_on=["a", "b"], right_index=True, how="left")
        return pa.table(
            {
                "left_id": pa.array(m["a"].to_numpy(object), pa.string()),
                "right_id": pa.array(m["b"].to_numpy(object),
                                     pa.string()),
                "deg_l": pa.array(m[1].to_numpy(np.int64)),
                "deg_r": pa.array(m[2].to_numpy(np.int64)),
                "n_common": pa.array(
                    m["n_common"].fillna(0).to_numpy(np.int64)
                ),
            }
        )

    return (
        pairs.map_batches(double, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(wedges_and_degrees, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
    )


def ktruss(pairs, cfg=None, *, k: int = 4, rounds: int = 2):
    """Bounded-round k-truss edge peeling — the cohesion filter that keeps
    only edges embedded in enough triangles (support = common-neighbor
    count ≥ k−2), iterated ``rounds`` times so edges whose support relied
    on already-peeled edges drop too (full k-truss = iterate to fixpoint;
    a fixed round count gives the same deterministic, SQL-twinnable
    bounded semantics as ``kcore``'s bounded peeling). Emits the
    surviving (left_id, right_id) pairs.

    Scale shape: each round IS ``edge_features`` (two bucketed
    exchanges) + a streaming filter; rounds are sequential
    materializations of a shrinking edge set."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    need = k - 2

    edges = pairs
    for _ in range(rounds):
        feats = edge_features(edges, cfg)

        def keep(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.greater_equal(t.column("n_common"), need)
            f = t.filter(mask)
            return pa.table(
                {
                    "left_id": f.column("left_id"),
                    "right_id": f.column("right_id"),
                }
            )

        edges = feats.map_batches(keep, batch_format="pyarrow")
    return edges


def fof_candidates(pairs, cfg=None, *, min_common: int = 2):
    """Friend-of-friend candidate generation — triadic-closure blocking:
    NON-edge node pairs with at least ``min_common`` common neighbors,
    emitted as (left_id, right_id, n_common) with left < right as
    strings. The structural candidate generator that finds likely links
    a similarity blocker can't see (two records never compared directly
    but sharing many neighbors in the kNN/candidate graph).

    Scale shape: the ``edge_features`` wedge machinery verbatim — one
    hash(node) exchange emits C(deg,2) wedges + edge markers, one
    hash(pair) exchange folds; here the fold INVERTS the edge test
    (pairs WITH markers are existing edges and are dropped) and applies
    the min_common floor. Wedge volume Σ C(deg,2), degree-capped for
    kNN graphs."""
    from ..config import EngineConfig
    from .canonicalize import bucket_of

    if min_common < 1:
        raise ValueError(f"min_common must be >= 1, got {min_common}")
    cfg = cfg or EngineConfig()
    nb = cfg.num_buckets

    pairs = pairs.materialize()
    pairs = pairs.repartition(
        max(1, -(-pairs.count() // 2_000_000))
    ).materialize()
    double = _double_edges_fn(nb)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["node", "nbr"], kind="mergesort")
        node = g["node"].to_numpy(object)
        nbr = g["nbr"].to_numpy(object)
        wa, wb, _starts, _counts = _wedge_pairs(node, nbr)
        # existing-edge markers (one per orientation; fold drops pairs
        # that have any)
        is_left = node < nbr
        ka = np.where(is_left, node, nbr)
        kb = np.where(is_left, nbr, node)
        kind_m = np.ones(len(node), np.int8)
        out = pd.DataFrame(
            {
                "a": np.concatenate([ka, wa]),
                "b": np.concatenate([kb, wb]),
                "kind": np.concatenate(
                    [kind_m, np.zeros(len(wa), np.int8)]
                ),
            }
        )
        out["_bucket"] = bucket_of(out["a"].astype(str) + "|"
                                   + out["b"].astype(str), nb)
        return out

    def fold(g: pd.DataFrame) -> pa.Table:
        has_edge = set(
            map(tuple, g[g["kind"] == 1][["a", "b"]].to_numpy())
        )
        w = (
            g[g["kind"] == 0]
            .groupby(["a", "b"], sort=False)
            .size()
            .reset_index(name="n")
        )
        if len(w):
            keys = list(map(tuple, w[["a", "b"]].to_numpy()))
            keep = np.array(
                [kk not in has_edge for kk in keys], bool
            ) & (w["n"].to_numpy(np.int64) >= min_common)
            w = w[keep]
        return pa.table(
            {
                "left_id": pa.array(w["a"].to_numpy(object), pa.string()),
                "right_id": pa.array(w["b"].to_numpy(object),
                                     pa.string()),
                "n_common": pa.array(w["n"].to_numpy(np.int64))
                if len(w)
                else pa.array([], pa.int64()),
            }
        )

    return (
        pairs.map_batches(double, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(wedges, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(fold, batch_format="pandas")
    )
