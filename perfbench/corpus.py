"""Seeded transcript corpora with planted duplicate entities.

This module imports nothing from ``deepblocker_ray``: a change to the program
cannot change the benchmark's inputs. Every size below is fixed; the workload
seed only chooses which words, perturbations and row order come out.

A conversation is a list of 3-12 turns, a turn a list of 4-12 words drawn
from a 400-word synthetic vocabulary. A near-duplicate copies its source
conversation, drops up to 40% of the words of each turn, and drops the
trailing turn with probability 0.3 when the source has more than three
turns.

Corpora are written as Parquet transcript tables
``(conv_id, turn_idx, role, text, tool, ts)`` in shuffled row order, plus a
truth table ``(conv_id, entity_id)``, and cached per parameter set.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import pandas as pd

_STEMS = (
    "alpha", "brook", "cedar", "delta", "ember", "fjord", "grove", "haven",
    "inlet", "jetty", "knoll", "ledge", "marsh", "nexus", "orbit", "prism",
    "quill", "ridge", "spire", "thorn", "umbra", "vault", "wharf", "xenon",
    "yield", "zonal", "amber", "basin", "crest", "dune", "eddy", "flint",
)
_ROLES = ("user", "assistant")
_TOOLS = ("search", "browser", "python", "editor")
_EPOCH = np.datetime64("2024-01-01T00:00:00", "us")
TURNS = (3, 12)
WORDS = (4, 12)
VOCAB = 400
DROP = 0.4
MAX_DUPS = 2
DELTA_DUP_SHARE = 0.8


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one corpus. ``dup_fraction`` of the base entities get
    between 1 and MAX_DUPS near-duplicates (``members`` > 1 gives every
    entity exactly ``members - 1`` instead); entity 0 also gets
    ``hot_cluster`` of them, and ``tie_copies`` exact copies of its base
    conversation less the last turn. With more copies than k, each copy's
    top-k is other copies (cosine ties, broken by id), so some copies are
    two matches away from the base, which holds the smallest id. The delta
    holds ``delta_convs`` new conversations, DELTA_DUP_SHARE of them
    near-duplicates of random base entities and the rest new entities."""

    n_base: int
    dup_fraction: float = 0.0
    members: int = 1
    hot_cluster: int = 0
    tie_copies: int = 0
    delta_convs: int = 0

    def key(self, seed: int) -> str:
        blob = json.dumps({"spec": asdict(self), "seed": seed}, sort_keys=True)
        return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


class _Gen:
    def __init__(self, spec: CorpusSpec, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        suffix = self.rng.integers(0, 1000, size=VOCAB)
        self.vocab = np.asarray(
            [f"{_STEMS[i % len(_STEMS)]}{s}" for i, s in enumerate(suffix)],
            dtype=object,
        )

    def conversation(self) -> list[list[str]]:
        return [
            list(self.rng.choice(self.vocab, size=int(self.rng.integers(WORDS[0], WORDS[1] + 1))))
            for _ in range(int(self.rng.integers(TURNS[0], TURNS[1] + 1)))
        ]

    def near_duplicate(self, turns: list[list[str]]) -> list[list[str]]:
        out = []
        for words in turns:
            keep = list(words)
            for _ in range(int(self.rng.integers(0, int(len(words) * DROP) + 1))):
                keep.pop(int(self.rng.integers(0, len(keep))))
            out.append(keep)
        if len(out) > 3 and self.rng.random() < 0.3:
            out = out[:-1]
        return out

    def frame(self, convs: list[tuple[str, str, list[list[str]]]]):
        """(conv_id, entity_id, turns) list -> (transcripts, truth)."""
        cols: dict[str, list] = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
        for conv_id, _entity, turns in convs:
            t0 = _EPOCH + np.timedelta64(int(self.rng.integers(0, 10**6)), "s")
            for i, words in enumerate(turns):
                cols["conv_id"].append(conv_id)
                cols["turn_idx"].append(i)
                cols["role"].append(_ROLES[i % 2])
                cols["text"].append(" ".join(words))
                cols["tool"].append(
                    _TOOLS[int(self.rng.integers(0, len(_TOOLS)))]
                    if self.rng.random() < 0.15
                    else None
                )
                cols["ts"].append(t0 + np.timedelta64(i, "s"))
        df = pd.DataFrame(
            {
                "conv_id": pd.array(cols["conv_id"], dtype="string"),
                "turn_idx": np.asarray(cols["turn_idx"], np.int32),
                "role": pd.array(cols["role"], dtype="string"),
                "text": pd.array(cols["text"], dtype="string"),
                "tool": pd.array(cols["tool"], dtype="string"),
                "ts": np.asarray(cols["ts"], dtype="datetime64[us]"),
            }
        )
        df = df.iloc[self.rng.permutation(len(df))].reset_index(drop=True)
        truth = pd.DataFrame(
            {
                "conv_id": [c for c, _, _ in convs],
                "entity_id": [e for _, e, _ in convs],
            }
        )
        return df, truth


def generate(spec: CorpusSpec, seed: int) -> dict[str, pd.DataFrame]:
    """{"base", "base_truth", "delta", "delta_truth"} for one seed. Base ids
    are ``b<n>``, delta ids ``d<n>``, both zero-padded, so every delta id is
    new to the base."""
    g = _Gen(spec, seed)
    base = [g.conversation() for _ in range(spec.n_base)]
    convs = [(f"b{i:07d}", f"e{i:07d}", t) for i, t in enumerate(base)]

    def add(entity: int) -> None:
        convs.append(
            (f"b{len(convs):07d}", f"e{entity:07d}", g.near_duplicate(base[entity]))
        )

    if spec.members > 1:
        for e in range(spec.n_base):
            for _ in range(spec.members - 1):
                add(e)
    else:
        for e in range(1, int(spec.n_base * spec.dup_fraction) + 1):
            for _ in range(int(g.rng.integers(1, MAX_DUPS + 1))):
                add(e)
    for _ in range(spec.hot_cluster):
        add(0)
    for _ in range(spec.tie_copies):
        convs.append((f"b{len(convs):07d}", "e0000000", base[0][:-1]))
    out = dict(zip(("base", "base_truth"), g.frame(convs)))

    delta = []
    for i in range(spec.delta_convs):
        if g.rng.random() < DELTA_DUP_SHARE:
            e = int(g.rng.integers(0, spec.n_base))
            delta.append((f"d{i:07d}", f"e{e:07d}", g.near_duplicate(base[e])))
        else:
            delta.append((f"d{i:07d}", f"n{i:07d}", g.conversation()))
    out.update(zip(("delta", "delta_truth"), g.frame(delta)))
    return out


def cached(spec: CorpusSpec, seed: int, cache_dir: str) -> dict[str, str]:
    """Parquet paths of the corpus for (spec, seed), generating it on the
    first call. A directory is published by rename only once complete, so
    an interrupted generation is redone, never read half-written."""
    final = os.path.join(cache_dir, spec.key(seed))
    names = ("base", "base_truth", "delta", "delta_truth")
    if not os.path.isdir(final):
        tmp = f"{final}.tmp{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        for name, df in generate(spec, seed).items():
            df.to_parquet(os.path.join(tmp, f"{name}.parquet"), index=False)
        os.replace(tmp, final)
    return {n: os.path.join(final, f"{n}.parquet") for n in names}
