"""Flagship pipeline: transcript record linkage end-to-end (north_rule).

The chain is written once, as five named stages (``STAGES``):

- ``tuples``: canonicalize (groupby conv_id, stable turn sort);
- ``embeddings``: fit + embed (SIF / AutoEncoder / CTT / Hybrid);
- ``candidates``: the raw top-K cosine query (exact or IVF);
- ``matches``: candidate-pair dedup → pairwise scoring (cosine +
  Jaro-Winkler + Levenshtein on per-turn text) → threshold → normalized
  unordered pairs;
- ``clusters``: transitive clustering → (conv_id, cluster_id).

``_run_chain`` runs them under a stage policy ``stage(name, fn, deps)``:
``in_memory`` materializes each stage's output; the checkpointed run
(``state.manifest.linkage_with_manifest``) passes ``ManifestRun.stage``;
``bench.py`` passes a timing wrapper. Full, precomputed-embedding and
incremental linkage differ only in the data they hand the runner.

Every stage is a Dataset transform; the only driver-side work is bounded
(training sample, weight dicts, cluster fast path).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any

import pandas as pd
import pyarrow as pa

from ..config import EngineConfig, parallel_blocks_sized
from ..stages.canonicalize import canonicalize
from ..stages.cluster import connected_components
from ..stages.deep_embed import AutoEncoderEmbedder, CTTEmbedder, HybridEmbedder
from ..stages.embed import AverageEmbedder, SIFEmbedder
from ..stages.pairing import make_pairer
from ..stages.scoring import score_candidates
from .evaluate import normalize_pairs

EMBEDDERS = {
    "average": AverageEmbedder,
    "sif": SIFEmbedder,
    "autoencoder": AutoEncoderEmbedder,
    "ctt": CTTEmbedder,
    "hybrid": HybridEmbedder,
}


def make_embedder(name_or_obj, cfg: EngineConfig):
    if not isinstance(name_or_obj, str):
        return name_or_obj
    try:
        return EMBEDDERS[name_or_obj](cfg)
    except KeyError:
        raise KeyError(
            f"unknown embedder {name_or_obj!r}; choose from {sorted(EMBEDDERS)}"
        ) from None


def _dedup_candidates(candidates, cfg: EngineConfig):
    """Orient candidate pairs (min,max) and exact-dedup so self-linkage
    scores each unordered pair ONCE — the query stage emits both directions
    for mutual nearest neighbors, which would double the (dominant) pairwise
    scoring cost. Cosine is symmetric so either orientation's value is kept;
    rank keeps the smaller (better) of the two. One skinny-row shuffle keyed
    on the pair hash (same bucket scheme as every other key exchange)."""
    import numpy as np

    from ..stages.canonicalize import bucket_of

    nb = cfg.num_buckets

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        a = df["left_id"].to_numpy(object)
        b = df["right_id"].to_numpy(object)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        out = pd.DataFrame(
            {
                "left_id": lo,
                "right_id": hi,
                "rank": df["rank"].to_numpy(),
                "cosine": df["cosine"].to_numpy(),
            }
        )
        out["_bucket"] = bucket_of(lo + hi, nb)
        return out

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["left_id", "right_id", "rank"], kind="stable")
        return g.drop_duplicates(["left_id", "right_id"])[
            ["left_id", "right_id", "rank", "cosine"]
        ]

    return (
        candidates.map_batches(orient, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(dedup, batch_format="pandas")
    )


def assign_cluster_labels(ids_ds, comp, cfg: EngineConfig):
    """Attach component labels to every conversation id: unmatched ids form
    singletons (cluster_id = own id). The label side is broadcast via
    ray.put when it fits ``broadcast_rows_max``, else attached with a
    left-outer hash join — the single guarded implementation shared by the
    in-memory pipeline and the manifest (resume) pipeline.

    ``ids_ds`` must have a ``conv_id`` column; ``comp`` is the
    (conv_id, cluster_id) components Dataset."""
    n_comp = comp.count()
    if n_comp == 0:
        # no matches at all — every conversation is its own cluster (an empty
        # Dataset has no schema, so the broadcast path below would KeyError)
        return ids_ds.select_columns(["conv_id"]).map_batches(
            lambda t: pa.table(
                {"conv_id": t.column("conv_id"),
                 "cluster_id": t.column("conv_id")}
            ),
            batch_format="pyarrow",
        )
    if n_comp <= cfg.broadcast_rows_max:
        import ray

        comp_df = comp.to_pandas()
        labeled_ref = ray.put(
            dict(zip(comp_df["conv_id"], comp_df["cluster_id"]))
        )

        def assign(batch: pa.Table) -> pa.Table:
            from ..state.broadcast import cached_get

            labeled = cached_get(labeled_ref)
            ids = batch.column("conv_id").to_pylist()
            return pa.table(
                {
                    "conv_id": pa.array(ids, pa.string()),
                    "cluster_id": pa.array(
                        [labeled.get(i, i) for i in ids], pa.string()
                    ),
                }
            )

        return ids_ds.select_columns(["conv_id"]).map_batches(
            assign, batch_format="pyarrow"
        )
    from ..config import join_partitions

    joined = ids_ds.select_columns(["conv_id"]).join(
        comp,
        join_type="left_outer",
        num_partitions=join_partitions(),
        on=("conv_id",),
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "conv_id": t.column("conv_id"),
                "cluster_id": pa.compute.coalesce(
                    t.column("cluster_id"), t.column("conv_id")
                ),
            }
        ),
        batch_format="pyarrow",
    )


@dataclasses.dataclass
class _LinkJob:
    """The chain's inputs other than stage outputs. ``transcripts`` and
    ``embedder`` are only read by the tuples/embeddings stages, which do
    not run when the caller hands their outputs in."""

    cfg: EngineConfig
    k: int
    pairing: str = "exact"
    threshold: float | None = None
    transcripts: Any = None
    embedder: Any = None
    turn_cap: int | None = 10_000
    query: Any = None  # top-K query side; None: the indexed embeddings
    extra_edges: Any = None  # clustered with the matches (prior clusters)


def _canonical_tuples(transcripts, cfg: EngineConfig, turn_cap: int | None):
    return parallel_blocks_sized(
        canonicalize(transcripts, cfg, turn_cap=turn_cap).materialize()
    )


def _tuples(job: _LinkJob, out: dict):
    return _canonical_tuples(job.transcripts, job.cfg, job.turn_cap)


def _embeddings(job: _LinkJob, out: dict):
    # built inside the stage, so a resumed run that skips it never builds
    # an unfitted model
    model = make_embedder(job.embedder, job.cfg)
    model.fit(out["tuples"], text_col="tuple_text")
    out["embedder"] = model  # fitted state, reusable by link_incremental
    return model.transform(out["tuples"], id_col="conv_id")


def _candidates(job: _LinkJob, out: dict):
    pairer = make_pairer(job.pairing, job.k, job.cfg)
    pairer.index(out["embeddings"], id_col="conv_id")
    query = out["embeddings"] if job.query is None else job.query
    return pairer.query(query, id_col="conv_id")


def _matches(job: _LinkJob, out: dict):
    candidates = _dedup_candidates(out["candidates"], job.cfg)
    # barrier between score and the normalize_pairs exchange: measured A/B at
    # 8 CPUs on 428k turns, fusing the compute-heavy score map into the same
    # execution as the downstream groupby costs 39.6s → 67.0s — the hazard
    # of the candidates boundary (see in_memory). Do NOT collapse it.
    out["scored"] = score_candidates(
        candidates, out["tuples"], cfg=job.cfg, threshold=job.threshold
    ).materialize()
    return normalize_pairs(out["scored"].filter(expr="is_match == True"))


def _clusters(job: _LinkJob, out: dict):
    edges = out["matches"]
    if job.extra_edges is not None:
        edges = edges.union(job.extra_edges)
    comp = connected_components(edges, job.cfg, src="ltable_id", dst="rtable_id")
    return assign_cluster_labels(out["tuples"], comp, job.cfg)


# (name, fn, deps): the flagship chain, in order. The names are the
# checkpoint directories of a manifest run and the keys of every result.
STAGES = (
    ("tuples", _tuples, ()),
    ("embeddings", _embeddings, ("tuples",)),
    ("candidates", _candidates, ("embeddings",)),
    ("matches", _matches, ("candidates", "tuples")),
    ("clusters", _clusters, ("matches", "tuples")),
)


def in_memory(name: str, fn, deps):
    """The in-memory stage policy: run the stage, materialize its output.
    The candidates boundary is load-bearing: when the compute-heavy query
    map feeds the dedup shuffle in one streaming execution, the executor's
    resource reservation for the shuffle throttles the map to 1-2
    concurrent tasks on small-CPU sessions (observed 280s vs 104s at 8
    CPUs). Candidates are skinny rows — cheap to pin."""
    return fn().materialize()


def _run_chain(job: _LinkJob, stage=in_memory, given: dict | None = None) -> dict:
    """Run every stage of ``STAGES`` whose output is not in ``given``, in
    order, each through ``stage(name, fn, deps)``; ``fn()`` computes the
    stage from the outputs before it. Returns every stage output by name,
    plus ``scored`` (from a ``matches`` stage that ran) and the fitted
    ``embedder`` (from an ``embeddings`` stage that ran)."""
    out = dict(given or {})
    for name, fn, deps in STAGES:
        if name not in out:
            out[name] = stage(name, functools.partial(fn, job, out), list(deps))
    return out


def link_transcripts(
    transcripts,
    cfg: EngineConfig | None = None,
    embedder="sif",
    k: int = 10,
    pairing: str = "exact",
    threshold: float | None = None,
    turn_cap: int | None = 10_000,
) -> dict:
    """Self-linkage over one transcript table. Returns a dict of Datasets:
    tuples, embeddings, candidates (raw top-K), scored, matches (normalized
    pairs), clusters (every conversation labeled; unmatched ones form
    singletons), plus the fitted ``embedder``."""
    job = _LinkJob(
        cfg or EngineConfig(), k, pairing, threshold,
        transcripts=transcripts, embedder=embedder, turn_cap=turn_cap,
    )
    return _run_chain(job)


def link_from_embeddings(
    tuples,
    emb,
    cfg: EngineConfig | None = None,
    k: int = 10,
    pairing: str = "exact",
    threshold: float | None = None,
) -> dict:
    """Linkage back half over PRECOMPUTED embeddings: the chain's
    candidates, matches and clusters stages.

    ``tuples`` must have (conv_id, turn_texts); ``emb`` must have
    (conv_id, emb: fixed_size_list<float32, D>). This is the standalone
    entry point for tables that ship their own embedding column (e.g. the
    driver's ``embeddings`` view) — with no hash embedding in the loop,
    every stage of the chain has an exact DuckDB twin (__ray_entry__:
    blocking_vec / linkage_vec)."""
    job = _LinkJob(cfg or EngineConfig(), k, pairing, threshold)
    return _run_chain(job, given={"tuples": tuples, "embeddings": emb})


def _reject_id_overlap(prior_tuples, new_tuples, cfg: EngineConfig) -> None:
    """Raise if any delta conv_id already exists in the prior corpus.

    A re-delivered/updated conv_id would ride the union twice and emit two
    (conv_id, cluster_id) rows from ``assign_cluster_labels`` — silent
    corruption for any consumer keyed on conv_id. Updates need
    delete-and-relink (or the periodic full re-link); an explicit error
    here beats either happening silently.

    Cost per delta: one skinny scan of each side's id column plus the
    semi-join machinery (delta-sized broadcast below ``broadcast_rows_max``,
    hash join above it) — the corpora themselves never move. Ids are
    compared by md5-lower64, so a hash collision can only raise a spurious
    error (p ≈ n²·2⁻⁶⁴), never let a real overlap through."""
    import numpy as np

    from ..stages.dedup import hash64_strs
    from ..stages.relational import broadcast_exists_join

    def idh(t: pa.Table) -> pa.Table:
        vals = t.column("conv_id").to_pylist()
        return pa.table(
            {"_idh": pa.array(hash64_strs(vals).view(np.int64))}
        )

    prior_ids = prior_tuples.select_columns(["conv_id"]).map_batches(
        idh, batch_format="pyarrow"
    )
    new_ids = new_tuples.select_columns(["conv_id"]).map_batches(
        idh, batch_format="pyarrow"
    )
    n = broadcast_exists_join(
        prior_ids, new_ids, big_key="_idh", small_key="_idh", cfg=cfg
    ).count()
    if n:
        raise ValueError(
            f"{n} delta conv_id(s) already exist in the prior corpus; "
            "link_incremental absorbs NEW records only — drop or re-key "
            "re-delivered ids, or re-link the full corpus to apply updates"
        )


def link_incremental(
    prior: dict,
    new_transcripts,
    cfg: EngineConfig | None = None,
    embedder=None,
    k: int = 10,
    pairing: str = "exact",
    threshold: float | None = None,
    turn_cap: int | None = 10_000,
) -> dict:
    """Incremental linkage: absorb a NEW batch of transcripts into an
    already-linked corpus without re-linking it — the daily-delta shape.
    At 100 TB the anti-pattern is re-running O(corpus²) blocking per delta;
    here the delta costs O(new × index): only the new records are embedded
    and queried, old-old pairs are never re-blocked or re-scored.

    ``prior`` is the dict returned by ``link_transcripts`` (or a previous
    ``link_incremental``): its ``tuples``/``embeddings``/``clusters`` (and
    fitted ``embedder``, unless one is passed explicitly) are reused. The
    embedder is applied FROZEN — refitting would silently invalidate every
    stored embedding (for fit-sensitive embedders like SIF, periodically
    re-fit + re-link the full corpus; the hash AverageEmbedder is
    fit-free and exactly incremental).

    Steps: canonicalize new → embed with the frozen model → top-K query of
    the new side against old ∪ new → score → threshold → connected
    components over (new match edges ∪ prior cluster assignment edges) →
    relabel everyone. Because a cluster label is the MINIMUM member
    conv_id, absorbing new members preserves existing labels, a new record
    bridging two clusters merges them to the smaller label, and the result
    equals a full-batch run over the same match set.

    Documented deviation from full-batch: candidates are the NEW side's
    top-K only (an old record's own top-K list is not revisited when new
    records arrive) — the standard incremental-ER trade; new↔old pairs are
    still found from the new direction.

    Delta conv_ids must be NEW: an id already present in the prior corpus
    is rejected with ValueError (see ``_reject_id_overlap``). Returned dict:
    ``tuples``/``embeddings``/``matches``/``clusters`` describe the WHOLE
    grown corpus; ``candidates``/``scored``/``delta_matches`` are the delta
    increment only.
    """
    cfg = cfg or EngineConfig()
    embedder = embedder or prior.get("embedder")
    if embedder is None:
        raise ValueError(
            "link_incremental needs the FITTED embedder: pass embedder= or "
            "use a prior dict returned by link_transcripts"
        )

    new_tuples = _canonical_tuples(new_transcripts, cfg, turn_cap)
    # fail fast on re-delivered ids BEFORE paying the frozen-embedder
    # transform over the whole delta (the guard is one skinny id scan; the
    # embedding pass is O(new) full-text work)
    _reject_id_overlap(prior["tuples"], new_tuples, cfg)
    new_emb = embedder.transform(new_tuples, id_col="conv_id").materialize()
    res = link_incremental_from_embeddings(
        prior, new_tuples, new_emb, cfg, k=k, pairing=pairing,
        threshold=threshold, check_overlap=False,
    )
    res["embedder"] = embedder
    return res


def link_incremental_from_embeddings(
    prior: dict,
    new_tuples,
    new_emb,
    cfg: EngineConfig | None = None,
    k: int = 10,
    pairing: str = "exact",
    threshold: float | None = None,
    check_overlap: bool = True,
) -> dict:
    """Core of link_incremental over PRECOMPUTED delta embeddings (the tail
    shared with the SQL-twinnable ``linkage_vec_inc`` driver query — with no
    hash embedding in the loop every stage has an exact DuckDB twin).
    ``new_tuples`` needs (conv_id, turn_texts); ``new_emb`` (conv_id, emb)
    in the SAME embedding space as ``prior['embeddings']``.
    ``check_overlap=False`` skips the re-delivered-id guard when the caller
    already ran it (link_incremental runs it before embedding).

    The chain's tail runs over the grown corpus: the index side and the
    scoring tuples are old ∪ new, the query side is the delta only, and the
    prior assignments ride into CC as (conv_id, cluster_id) edges —
    normalize_pairs drops the singleton self-edges (assign_cluster_labels
    re-defaults unmatched ids to themselves) and dedups."""
    cfg = cfg or EngineConfig()
    if check_overlap:
        _reject_id_overlap(prior["tuples"], new_tuples, cfg)
    prior_edges = normalize_pairs(
        prior["clusters"], left_col="conv_id", right_col="cluster_id"
    )
    job = _LinkJob(
        cfg, k, pairing, threshold, query=new_emb, extra_edges=prior_edges
    )
    res = _run_chain(job, given={
        "tuples": prior["tuples"].union(new_tuples).materialize(),
        "embeddings": prior["embeddings"].union(new_emb).materialize(),
    })
    # "matches" must describe the WHOLE corpus like tuples/embeddings/
    # clusters do — a consumer of the dict (or the CLI's matches output)
    # would otherwise silently lose every base-base pair. Delta-only edges
    # stay available as "delta_matches". The union is duplicate-free:
    # delta edges always have a NEW record on one side, prior edges never
    # do (the overlap guard enforces id disjointness).
    res["delta_matches"] = res["matches"]
    if "matches" in prior:
        res["matches"] = prior["matches"].union(res["matches"])
    return res
