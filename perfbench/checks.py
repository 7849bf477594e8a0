"""Output checks, computed apart from the program with numpy and pandas.

Every function takes plain frames or arrays pulled from the program's
outputs and the benchmark's own inputs, and returns a list of failure
strings (empty when the check holds). Nothing here imports
``deepblocker_ray``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

# float32 cosines of unit vectors agree with a float64 recomputation to
# ~1e-7; ties at the top-k boundary are judged with the same slack
COS_TOL = 1e-5
# scores are stored as float32 weighted sums of three terms in [0, 1]
SCORE_TOL = 2e-5
# the scorer's weights and per-turn cap, as the program documents them
WEIGHTS = (0.4, 0.3, 0.3)
TEXT_CAP = 128


# --- string similarities -------------------------------------------------

def jaro_winkler(a: str, b: str, p: float = 0.1) -> float:
    """Jaro similarity with the Winkler prefix boost (prefix up to 4, boost
    only above 0.7). Match window max(len)//2 - 1; transpositions are half
    the out-of-order matched characters, rounded down."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0.0
    window = max(la, lb) // 2 - 1
    used = [False] * lb
    ma = []
    mb_pos = []
    for i, ch in enumerate(a):
        for j in range(max(0, i - window), min(lb, i + window + 1)):
            if not used[j] and b[j] == ch:
                used[j] = True
                ma.append(ch)
                mb_pos.append(j)
                break
    m = len(ma)
    if not m:
        return 0.0
    mb = [b[j] for j in sorted(mb_pos)]
    t = sum(x != y for x, y in zip(ma, mb)) // 2
    jaro = (m / la + m / lb + (m - t) / m) / 3
    if jaro <= 0.7:
        return jaro
    prefix = 0
    for x, y in zip(a[:4], b[:4]):
        if x != y:
            break
        prefix += 1
    return jaro + prefix * p * (1 - jaro)


def levenshtein(a: str, b: str) -> int:
    """Edit distance by the row DP; the insertion step is a running
    minimum of (row - j) + j, so each row is a few numpy operations."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    codes = np.frombuffer(b.encode("utf-32-le"), np.uint32)
    j = np.arange(len(b) + 1)
    prev = j.copy()
    for i, ch in enumerate(a, 1):
        cur = np.empty_like(prev)
        cur[0] = i
        cur[1:] = np.minimum(prev[:-1] + (codes != ord(ch)), prev[1:] + 1)
        prev = np.minimum.accumulate(cur - j) + j
    return int(prev[-1])


def levenshtein_ratio(a: str, b: str) -> float:
    """1 - distance / longer length; 1.0 for two empty strings."""
    n = max(len(a), len(b))
    return 1.0 if n == 0 else 1.0 - levenshtein(a, b) / n


def pair_score(turns_a, turns_b, cosine: float) -> float:
    """Weighted cosine + mean Jaro-Winkler + mean Levenshtein ratio over the
    aligned turns (the first min(len) of each side), each capped."""
    n = min(len(turns_a), len(turns_b))
    if n:
        pairs = [(turns_a[i][:TEXT_CAP], turns_b[i][:TEXT_CAP]) for i in range(n)]
        jw = sum(jaro_winkler(x, y) for x, y in pairs) / n
        lev = sum(levenshtein_ratio(x, y) for x, y in pairs) / n
    else:
        jw = lev = 0.0
    wc, wj, wl = WEIGHTS
    return (wc * min(1.0, max(0.0, cosine)) + wj * jw + wl * lev) / sum(WEIGHTS)


# --- graph and top-k references -----------------------------------------

def union_find_labels(ids, left, right) -> dict:
    """Component label (minimum member id) of every id in ``ids``, over the
    undirected edges (left[i], right[i])."""
    parent = {i: i for i in ids}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(left, right):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    return {i: find(i) for i in parent}


def unit_rows(emb: np.ndarray) -> np.ndarray:
    x = np.asarray(emb, np.float64)
    n = np.linalg.norm(x, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return x / n


def brute_topk(unit: np.ndarray, ids: np.ndarray, q: np.ndarray, k: int):
    """(neighbour ids, cosines, k-th cosine) of each query row index in
    ``q`` under the (-cosine, id) order, the query itself excluded."""
    sims = unit[q] @ unit.T
    out = []
    for r, qi in enumerate(q):
        s = sims[r].copy()
        s[qi] = -np.inf
        order = np.lexsort((ids, -s))[:k]
        out.append((ids[order], s[order], s[order[-1]]))
    return out


# --- checks over program outputs ----------------------------------------

def check_tuples(turns: pd.DataFrame, tuples: pd.DataFrame) -> list[str]:
    """Each conversation's turn texts equal its input turns sorted by
    turn_idx, and every input conversation appears exactly once."""
    exp = (
        turns.sort_values(["conv_id", "turn_idx"], kind="stable")
        .groupby("conv_id", sort=True)["text"]
        .agg(lambda s: tuple(x if x is not None else " " for x in s))
    )
    got = tuples.set_index("conv_id")["turn_texts"]
    if not got.index.is_unique:
        return ["tuples: a conv_id appears twice"]
    if set(got.index) != set(exp.index):
        return ["tuples: conv_id set differs from the input"]
    bad = [c for c, t in exp.items() if tuple(got[c]) != t]
    return [f"tuples: {len(bad)} conversations differ, e.g. {bad[0]}"] if bad else []


def check_candidates(
    cands: pd.DataFrame,
    ids: np.ndarray,
    unit: np.ndarray,
    k: int,
    exact: bool,
    sample: np.ndarray | None = None,
) -> list[str]:
    """Every candidate's cosine equals the float64 recomputation; no self
    pairs; exactly k per left id when ``exact`` (at most k otherwise). For
    the left ids in ``sample`` (row indices into ``ids``) the candidate set
    equals brute-force top-k except for swaps between ids whose cosines are
    within COS_TOL of the k-th (ties)."""
    errs = []
    pos = pd.Series(np.arange(len(ids)), index=ids)
    li = pos.reindex(cands["left_id"]).to_numpy()
    ri = pos.reindex(cands["right_id"]).to_numpy()
    if np.isnan(li).any() or np.isnan(ri).any():
        return ["candidates: an id is not among the embedded conversations"]
    li, ri = li.astype(int), ri.astype(int)
    cos = np.einsum("ij,ij->i", unit[li], unit[ri])
    off = np.abs(cos - cands["cosine"].to_numpy(np.float64))
    if off.max(initial=0) > COS_TOL:
        errs.append(f"candidates: cosine off by {off.max():.2e}")
    if (li == ri).any():
        errs.append("candidates: self pair")
    want = min(k, len(ids) - 1)
    sizes = cands.groupby("left_id").size()
    if (sizes != want).any() if exact else (sizes > want).any():
        errs.append(f"candidates: a left id has {'not exactly' if exact else 'more than'} {want}")
    if sample is not None and len(sample):
        by_left = cands.groupby("left_id")["right_id"].agg(set)
        bad = 0
        for qi, (nbr, _s, kth) in zip(sample, brute_topk(unit, ids, sample, k)):
            got, expected = by_left.get(ids[qi], set()), set(nbr)

            def cos_to(d):
                return unit[qi] @ unit[pos[d]]

            if (
                len(got) != want
                or any(cos_to(d) < kth - COS_TOL for d in got - expected)
                or any(cos_to(d) > kth + COS_TOL for d in expected - got)
            ):
                bad += 1
        if bad:
            errs.append(f"candidates: {bad}/{len(sample)} sampled top-k sets differ")
    return errs


def check_scores(
    scored: pd.DataFrame,
    turn_texts: dict,
    threshold: float,
    sample: np.ndarray,
) -> list[str]:
    """``is_match`` agrees with the threshold on every row; on the sampled
    rows the score recomputed here agrees with the program's."""
    errs = []
    score = scored["score"].to_numpy(np.float64)
    clear = np.abs(score - threshold) > SCORE_TOL
    if (scored["is_match"].to_numpy()[clear] != (score[clear] >= threshold)).any():
        errs.append("scores: is_match disagrees with the threshold")
    worst = 0.0
    for r in sample:
        row = scored.iloc[int(r)]
        mine = pair_score(
            turn_texts[row["left_id"]], turn_texts[row["right_id"]], row["cosine"]
        )
        worst = max(worst, abs(mine - row["score"]))
    if worst > SCORE_TOL:
        errs.append(f"scores: recomputed score off by {worst:.2e}")
    return errs


def pair_keys(left, right) -> pd.Series:
    """Unordered pair keys 'min\\tmax' for id columns."""
    a = np.asarray(left, object)
    b = np.asarray(right, object)
    lo = np.where(a <= b, a, b)
    hi = np.where(a <= b, b, a)
    return pd.Series(lo, dtype=object) + "\t" + pd.Series(hi, dtype=object)


def check_matches(matches: pd.DataFrame, cand_keys: set) -> list[str]:
    """Matches are normalized (ltable_id < rtable_id) candidate pairs."""
    errs = []
    l, r = matches["ltable_id"].to_numpy(object), matches["rtable_id"].to_numpy(object)
    if (l >= r).any():
        errs.append("matches: a self pair or an unordered pair")
    if not set(pair_keys(l, r)) <= cand_keys:
        errs.append("matches: a match is not a candidate")
    return errs


def check_clusters(clusters: pd.DataFrame, ids, left, right) -> list[str]:
    """Clusters partition ``ids`` exactly once, each labelled with its
    minimum id, and equal union-find over the match edges."""
    errs = []
    cid = clusters["conv_id"].to_numpy(object)
    if len(cid) != len(set(cid)) or set(cid) != set(ids):
        return ["clusters: not a partition of the input conv_ids"]
    lab = clusters["cluster_id"].to_numpy(object)
    mins = clusters.groupby("cluster_id")["conv_id"].min()
    if not (mins.index.to_numpy(object) == mins.to_numpy(object)).all():
        errs.append("clusters: a label is not its cluster's minimum id")
    ref = union_find_labels(ids, left, right)
    if any(ref[c] != x for c, x in zip(cid, lab)):
        errs.append("clusters: differ from union-find over the match edges")
    return errs


# --- quality ---------------------------------------------------------------

def planted_pair_keys(truth: pd.DataFrame) -> set:
    keys = set()
    for _e, ids in truth.groupby("entity_id")["conv_id"]:
        ids = sorted(ids)
        for i, a in enumerate(ids):
            keys.update(f"{a}\t{b}" for b in ids[i + 1 :])
    return keys


def blocking_quality(cand_keys: set, planted: set, n: int) -> tuple[float, float]:
    """(recall of the planted pairs, candidate pairs / all unordered pairs)."""
    return len(cand_keys & planted) / len(planted), len(cand_keys) / (n * (n - 1) / 2)


def reachable_entities(truth: pd.DataFrame, cand_keys: set) -> pd.DataFrame:
    """The planted entities as blocking leaves them reachable: the
    components of the candidate pairs whose two ids share an entity, each
    labelled with its minimum id. A large entity can fall apart here, since
    k candidates per id may not connect all of its members; no matcher can
    join what no candidate links."""
    ent = dict(zip(truth["conv_id"], truth["entity_id"]))
    left, right = [], []
    for key in cand_keys:
        a, b = key.split("\t")
        if ent.get(a) == ent.get(b):
            left.append(a)
            right.append(b)
    labels = union_find_labels(truth["conv_id"], left, right)
    return pd.DataFrame({"conv_id": list(labels), "entity_id": list(labels.values())})


def pair_f1(clusters: pd.DataFrame, truth: pd.DataFrame) -> float:
    """Pairwise F1 of predicted clusters against planted entities."""
    df = clusters.merge(truth, on="conv_id", validate="one_to_one")

    def pairs(sizes) -> float:
        s = np.asarray(sizes, np.float64)
        return float((s * (s - 1) / 2).sum())

    tp = pairs(df.groupby(["cluster_id", "entity_id"]).size())
    pred = pairs(df.groupby("cluster_id").size())
    true = pairs(df.groupby("entity_id").size())
    if tp == 0:
        return 0.0
    prec, rec = tp / pred, tp / true
    return 2 * prec * rec / (prec + rec)
