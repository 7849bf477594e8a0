"""Wrappers the benchmark installs on the program's public functions.

The program's files are not changed: ``Hooks.install`` replaces module and
class attributes for the life of one run and ``Hooks.restore`` puts the
originals back.

Untraced runs install only what the workloads need:

- the fitted embedder is kept, so a checkpointed corpus can absorb a delta;
- a checkpointed run can be stopped before a named stage starts;
- on in-memory phases, pairer query outputs (which the linkage materializes
  at once anyway) are kept for the output checks;
- the start of scoring is stamped, which bounds the tail a resume redoes;
- ``connected_components`` can be given another ``driver_threshold``, its
  documented argument; this is the only one that changes what runs.

Traced runs also record a span around every listed call. A traced wrapper
materializes the call's output inside its span, so the work is charged to
the layer that defines it rather than to whichever caller executes it.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import pyarrow.compute as pc


class Interrupted(Exception):
    """Raised in place of a manifest stage, as a killed job would stop."""


class Tracer:
    """In-memory spans: name, op, parent, wall and session-CPU interval,
    and counts recorded at the same boundary."""

    def __init__(self, cpu_s):
        self.cpu_s = cpu_s
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "counts": {},
        }
        self.spans.append(rec)
        self.stack.append(rec)
        rec["cpu0"] = self.cpu_s()
        rec["t0"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["t1"] = time.perf_counter()
            rec["cpu1"] = self.cpu_s()
            self.stack.pop()


class Hooks:
    def __init__(self, tracer: Tracer | None = None, cc_driver_threshold: int | None = None):
        self.tracer = tracer
        self.cc_driver_threshold = cc_driver_threshold
        self.embedder = None
        self.stop_before: str | None = None
        self.keep_candidates = False
        self.candidates: list = []
        self.score_started: list[float] = []
        self._undo: list = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext({})

    def _patch(self, owner, name: str, make) -> None:
        orig = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, make(orig))
        self._undo.append((owner, name, orig))

    def restore(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def install(self) -> "Hooks":
        # by module path: the packages re-export functions under the same
        # names as their modules
        E, L, CN, C, S = (
            importlib.import_module(f"deepblocker_ray.{m}")
            for m in (
                "pipelines.evaluate", "pipelines.linkage", "stages.canonicalize",
                "stages.cluster", "stages.scoring",
            )
        )
        from deepblocker_ray.stages.embed import SIFEmbedder
        from deepblocker_ray.stages.pairing import ExactTopKPairer, IVFTopKPairer
        from deepblocker_ray.state.manifest import ManifestRun

        traced = self.tracer is not None

        def make_embedder(orig):
            def wrapper(*a, **kw):
                self.embedder = orig(*a, **kw)
                return self.embedder
            return wrapper

        def stage(orig):
            def wrapper(run, name, fn, *a, **kw):
                if name == self.stop_before:
                    raise Interrupted(name)
                with self.span(f"manifest.{name}"):
                    out = orig(run, name, fn, *a, **kw)
                    return out.materialize() if traced else out
            return wrapper

        def query(orig):
            def wrapper(pairer, *a, **kw):
                with self.span("pairing.query") as c:
                    out = orig(pairer, *a, **kw)
                    if traced or self.keep_candidates:
                        out = out.materialize()
                    if traced:
                        c["rows"] = out.count()
                if self.keep_candidates:
                    self.candidates.append(out)
                return out
            return wrapper

        def score(orig):
            def wrapper(*a, **kw):
                self.score_started.append(time.perf_counter())
                with self.span("scoring") as c:
                    out = orig(*a, **kw)
                    if traced:
                        out = out.materialize()
                        c["pairs"] = out.count()
                        flags = out.select_columns(["is_match"]).to_arrow_refs()
                        import ray

                        c["matches"] = sum(
                            pc.sum(t.column("is_match")).as_py() or 0
                            for t in ray.get(flags)
                        )
                return out
            return wrapper

        def cluster(orig):
            def wrapper(edges, *a, **kw):
                if self.cc_driver_threshold is not None:
                    kw["driver_threshold"] = self.cc_driver_threshold
                if not traced:
                    return orig(edges, *a, **kw)
                stats = kw.setdefault("stats_out", {})
                with self.span("cluster") as c:
                    edges = edges.materialize()
                    c["edges"] = edges.count()
                    out = orig(edges, *a, **kw).materialize()
                    c["rounds"] = stats.get("rounds", 0)
                return out
            return wrapper

        def simple(span_name, count_in=False, count_out=False, turns=False):
            """Span + materialized output, with optional row counts."""
            def make(orig):
                def wrapper(*a, **kw):
                    with self.span(span_name) as c:
                        if count_in:
                            c["rows_in"] = a[0].count()
                        out = orig(*a, **kw)
                        if out is not None and hasattr(out, "materialize"):
                            out = out.materialize()
                        if count_out:
                            c["rows_out"] = out.count()
                        if turns:
                            c["turns_in"] = int(out.sum("n_turns") or 0)
                    return out
                return wrapper
            return make

        self._patch(L, "make_embedder", make_embedder)
        self._patch(ManifestRun, "stage", stage)
        self._patch(L, "score_candidates", score)
        self._patch(S, "score_candidates", score)
        for pairer in (ExactTopKPairer, IVFTopKPairer):
            self._patch(pairer, "query", query)
        for mod in (L, C):
            self._patch(mod, "connected_components", cluster)
        if not traced:
            return self
        canon = simple("canonicalize", count_out=True, turns=True)
        self._patch(L, "canonicalize", canon)
        self._patch(CN, "canonicalize", canon)
        self._patch(SIFEmbedder, "fit", simple("embed.fit"))
        self._patch(SIFEmbedder, "transform", simple("embed.transform"))
        for pairer in (ExactTopKPairer, IVFTopKPairer):
            self._patch(pairer, "index", simple("pairing.index"))
        self._patch(L, "_dedup_candidates", simple("linkage.cand_dedup", count_in=True, count_out=True))
        norm = simple("evaluate.normalize", count_out=True)
        self._patch(L, "normalize_pairs", norm)
        self._patch(E, "normalize_pairs", norm)
        self._patch(L, "assign_cluster_labels", simple("linkage.assign"))
        self._patch(L, "_reject_id_overlap", simple("linkage.delta_overlap"))
        self._patch(L, "link_incremental", simple("linkage.delta"))
        return self
