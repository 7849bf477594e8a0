"""String-similarity functions for the pairwise scorer.

The reference has no string similarity (its scalar surface is join/fill/cast/
tokenize/cosine, SURVEY.md §2.8); Jaro-Winkler and Levenshtein on per-turn
text are required by BASELINE.json's north_star for the candidate-pair scorer.
Pure numpy/python, no external deps.

The scalar functions (levenshtein, jaro, jaro_winkler, ...) take two
strings. The batch kernels take one input format for n aligned pairs: per
side ``(codes, lens)``, a zero-padded (n, w) codepoint matrix (uint8 when
every code is Latin-1, uint32 otherwise) and int64 lengths. ``codepoints``
builds it from Python strings in one numpy call; the scorer builds it
straight from Arrow buffers (stages/scoring.py ``arrow_codepoints``).

``similarity_batch`` computes Jaro-Winkler and the edit distance in one
fused pass. Pairs are grouped by the pattern (B) side's width: at most 64
chars take one 64-bit word per pair, at most 128 take two. Each group
builds one pattern-bitmask table over B and walks A's columns once. At
every column, one table lookup feeds both the greedy Jaro matcher and the
Myers/Hyyrö edit-distance step, vectorized across the group's pairs.
Non-Latin-1 pairs and patterns over 128 chars take the matrix Jaro matcher
and the row DP instead. ``jaro_winkler_batch`` and ``levenshtein_batch``
take two lists of strings and run only the kernel their caller asks for;
``levenshtein_batch`` makes each pair's shorter string the pattern, and
``lev_ratio`` turns its distances into 1 − dist/max_len ratios.
"""

from __future__ import annotations

import numpy as np


def levenshtein(s1: str, s2: str, cap: int | None = None) -> int:
    """Edit distance; O(len1·len2) with a numpy row DP. ``cap`` truncates both
    inputs first (the scorer caps turn text to bound the quadratic cost)."""
    if cap is not None:
        s1, s2 = s1[:cap], s2[:cap]
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if len(s1) < len(s2):  # iterate over the longer string, keep row short
        s1, s2 = s2, s1
    b = np.frombuffer(s2.encode("utf-32-le"), np.uint32)
    rng = np.arange(len(b) + 1, dtype=np.int64)
    prev = rng.copy()
    cur = np.empty_like(prev)
    for i, ch in enumerate(s1):
        cur[0] = i + 1
        cost = np.where(b == ord(ch), 0, 1)
        np.minimum(prev[:-1] + cost, prev[1:] + 1, out=cur[1:])
        # insertion chain cur[j] = min(cur[j], cur[j-1]+1) is a prefix-min
        # scan of (cur - j): min over j' ≤ j of cur[j'] + (j - j')
        cur -= rng
        np.minimum.accumulate(cur, out=cur)
        cur += rng
        prev, cur = cur, prev
    return int(prev[-1])


def levenshtein_ratio(s1: str, s2: str, cap: int | None = None) -> float:
    """1 − dist/max_len, in [0,1]; 1.0 for two empty strings."""
    if cap is not None:
        s1, s2 = s1[:cap], s2[:cap]
    m = max(len(s1), len(s2))
    if m == 0:
        return 1.0
    return 1.0 - levenshtein(s1, s2) / m


def jaro(s1: str, s2: str) -> float:
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    match_window = max(len1, len2) // 2 - 1
    a = np.frombuffer(s1.encode("utf-32-le"), np.uint32)
    b = np.frombuffer(s2.encode("utf-32-le"), np.uint32)
    free = np.ones(len2, bool)
    m1 = []
    m2_idx = []
    for i in range(len1):
        lo = max(0, i - match_window)
        hi = min(len2, i + match_window + 1)
        cand = np.nonzero((b[lo:hi] == a[i]) & free[lo:hi])[0]
        if cand.size:
            j = lo + int(cand[0])
            free[j] = False
            m1.append(a[i])
            m2_idx.append(j)
    m = len(m1)
    if m == 0:
        return 0.0
    m2 = b[np.sort(np.asarray(m2_idx))]
    transpositions = int(np.count_nonzero(np.asarray(m1, np.uint32) != m2)) // 2
    return (m / len1 + m / len2 + (m - transpositions) / m) / 3.0


def jaro_winkler(s1: str, s2: str, prefix_weight: float = 0.1) -> float:
    j = jaro(s1, s2)
    if j <= 0.7:
        return j
    prefix = 0
    for c1, c2 in zip(s1[:4], s2[:4]):
        if c1 != c2:
            break
        prefix += 1
    return j + prefix * prefix_weight * (1.0 - j)


# ------------------------------------------------------------ batch kernels


def codepoints(strs) -> tuple[np.ndarray, np.ndarray]:
    """Strings → the batch kernels' input ``(codes, lens)``: a zero-padded
    (n, w) codepoint matrix, w the longest length, and int64 lengths. One C
    call builds the matrix (numpy's fixed-width UCS-4 dtype); the lengths
    come from ``len``, so NULs inside or at the end of a string are kept.
    uint8 when every code is Latin-1, uint32 otherwise."""
    n = len(strs)
    lens = np.fromiter(map(len, strs), np.int64, n)
    w = max(int(lens.max(initial=0)), 1)
    codes = np.array(strs, dtype=f"<U{w}").view(np.uint32).reshape(n, w)
    if int(codes.max(initial=0)) < 256:
        codes = codes.astype(np.uint8)
    return codes, lens


def similarity_batch(
    codes_a: np.ndarray,
    lens_a: np.ndarray,
    codes_b: np.ndarray,
    lens_b: np.ndarray,
    jw: bool = True,
    lev: bool = True,
    prefix_weight: float = 0.1,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Jaro-Winkler similarity and edit distance of n aligned pairs, both
    from one pass over A's columns.

    Inputs are two ``(codes, lens)`` matrices (see codepoints); returns
    (Jaro-Winkler float64, distance int64), None for a kernel the caller
    turned off. B is the pattern side of both kernels. Pairs whose codes are
    all Latin-1 and whose B side has at most 128 chars take the bit-parallel
    pass (one or two 64-bit words per pair); the rest take the matrix Jaro
    matcher and the row DP. Equal pairs and pairs with an empty side are
    settled without a kernel."""
    la = np.asarray(lens_a, np.int64)
    lb = np.asarray(lens_b, np.int64)
    n = len(la)
    sim = np.zeros(n, np.float64) if jw else None
    dist = np.maximum(la, lb) if lev else None
    if n == 0:
        return sim, dist
    equal = _equal_rows(codes_a, la, codes_b, lb)
    if jw:
        sim[equal] = 1.0
    if lev:
        dist[equal] = 0
    todo = ~equal & (la > 0) & (lb > 0)
    fast = todo & _latin1_rows(codes_a) & _latin1_rows(codes_b)
    # partitioned per pair, not per batch: one long or non-Latin-1 outlier
    # must not drag the others onto the slow path
    for group, W in (
        (fast & (lb <= 64), 1),
        (fast & (lb > 64) & (lb <= 128), 2),
        (todo & ~(fast & (lb <= 128)), 0),
    ):
        if not group.any():
            continue
        idx = np.nonzero(group)[0]
        # descending A-length order: the rows still running at column i
        # are a prefix that shrinks as the pass proceeds
        idx = idx[np.argsort(-la[idx], kind="stable")]
        ga, gb = la[idx], lb[idx]
        A = codes_a[idx, : int(ga[0])]
        B = codes_b[idx, : int(gb.max())]
        active = np.searchsorted(
            -ga, -np.arange(1, A.shape[1] + 1), side="right"
        )
        if W:
            A = A.astype(np.uint8, copy=False)
            B = B.astype(np.uint8, copy=False)
            matches, d = _bitpar(A, ga, B, gb, active, W, jw, lev)
        else:
            matches = _jaro_match_matrix(A, ga, B, gb, active) if jw else None
            d = _dp_batch(A, B, gb, active) if lev else None
        if jw:
            sim[idx] = _jaro_winkler_from_matches(
                A, ga, B, gb, *matches, prefix_weight
            )
        if lev:
            dist[idx] = d
    return sim, dist


def lev_ratio(dist: np.ndarray, max_len: np.ndarray) -> np.ndarray:
    """Edit distances → 1 − dist/max_len, 1.0 where both strings are empty."""
    ratio = np.ones(len(dist), np.float64)
    nz = max_len > 0
    ratio[nz] = 1.0 - dist[nz] / max_len[nz]
    return ratio


def jaro_winkler_batch(
    pairs_a: list[str], pairs_b: list[str], prefix_weight: float = 0.1
) -> np.ndarray:
    """Jaro-Winkler for many pairs: similarity_batch with the edit distance
    turned off (pairs_b is the pattern side)."""
    ca, la = codepoints(pairs_a)
    cb, lb = codepoints(pairs_b)
    return similarity_batch(
        ca, la, cb, lb, lev=False, prefix_weight=prefix_weight
    )[0]


def levenshtein_batch(
    pairs_a: list[str], pairs_b: list[str], cap: int | None = None
) -> np.ndarray:
    """Edit distances for many pairs; ``cap`` truncates every string first.
    Per pair the shorter string is the pattern, so a pair runs bit-parallel
    whenever its shorter side holds at most 128 Latin-1 chars; the distance
    is symmetric."""
    if cap is not None:
        pairs_a = [s[:cap] for s in pairs_a]
        pairs_b = [s[:cap] for s in pairs_b]
    longs, shorts = [], []
    for a, b in zip(pairs_a, pairs_b):
        if len(a) < len(b):
            a, b = b, a
        longs.append(a)
        shorts.append(b)
    ca, la = codepoints(longs)
    cb, lb = codepoints(shorts)
    return similarity_batch(ca, la, cb, lb, jw=False)[1]


def _equal_rows(codes_a, la, codes_b, lb) -> np.ndarray:
    """Rows whose two strings are equal (zero padding compares equal)."""
    eq = la == lb
    rows = np.nonzero(eq)[0]
    w = min(codes_a.shape[1], codes_b.shape[1])
    if rows.size:
        eq[rows] = (codes_a[rows, :w] == codes_b[rows, :w]).all(axis=1)
    return eq


def _latin1_rows(codes) -> np.ndarray:
    if codes.dtype == np.uint8:
        return np.ones(len(codes), bool)
    return codes.max(axis=1, initial=0) < 256


_ONES64 = np.uint64(0xFFFFFFFFFFFFFFFF)
# _BELOW[k] = mask of bits [0, k); table gathers beat per-row shift math
_BELOW = np.zeros(65, np.uint64)
_BELOW[1:] = _ONES64 >> (np.uint64(64) - np.arange(1, 65, dtype=np.uint64))
_POP8 = np.array([bin(i).count("1") for i in range(256)], np.uint8)


def _word_masks(lens, W: int) -> list[np.ndarray]:
    """Per row and word w < W, the mask of the row's bits [0, lens) that
    fall in word w."""
    return [_BELOW[np.clip(lens - 64 * w, 0, 64)] for w in range(W)]


def _popcount(x: np.ndarray) -> np.ndarray:
    return (
        _POP8[np.ascontiguousarray(x, "<u8").view(np.uint8)]
        .reshape(len(x), 8)
        .sum(axis=1, dtype=np.int64)
    )


def _build_peq(B, lens, W: int):
    """Pattern-equality bitmasks of the uint8 pattern rows B: W flat
    (nt·(k+1),) uint64 tables, one per 64-bit word, whose entry
    base[r] + lut[c] holds the positions of code c in B[r, :lens[r]]. k
    counts the distinct codes of the whole group (a 256-entry presence table
    finds them); lut maps every other code to the all-zero entry k. Returns
    (Peq, lut, base). Memory traffic, not arithmetic, bounds the pass, so
    the table stays compact; it is filled one B column at a time over the
    rows still that long (row blocks in descending pattern-length order),
    with no per-char index arrays."""
    nt, wb = B.shape
    present = np.zeros(256, bool)
    present[B[np.arange(wb) < lens[:, None]]] = True
    k = int(np.count_nonzero(present))
    lut = np.full(256, k, np.int64)
    lut[present] = np.arange(k)
    order = np.argsort(-lens, kind="stable")
    base = np.empty(nt, np.int64)
    base[order] = np.arange(nt, dtype=np.int64) * (k + 1)
    sbase = base[order]
    Bt = np.ascontiguousarray(B[order].T)
    rows_left = np.searchsorted(-lens[order], -np.arange(1, wb + 1), "right")
    Peq = [np.zeros(nt * (k + 1), np.uint64) for _ in range(W)]
    for j in range(wb):
        c = int(rows_left[j])
        row = lut[Bt[j, :c]]
        row += sbase[:c]
        Peq[j >> 6][row] |= np.uint64(1) << np.uint64(j & 63)
    return Peq, lut, base


def _bitpar(A, la, B, lb, active, W: int, jw: bool, lev: bool):
    """The fused bit-parallel pass over uint8 rows sorted by descending
    A length, B ≤ 64·W chars per row (W ∈ {1, 2}). Each column i of A costs
    one lookup of the pattern bits Eq = Peq[base[r] + lut[A[r, i]]], which
    feeds both kernels:

    - greedy Jaro matching: the first free B position equal to A[i] within
      the match window, taken as the lowest set bit of Eq & free & window
      (word 0 first), is marked used;
    - Myers/Hyyrö edit distance: Pv/Mv hold the column's vertical +1/−1
      deltas, updated with ~16 uint64 vector ops; W = 2 carries the add and
      the shifts across the word boundary. Bits at or above lb[r] may hold
      garbage but never reach lower bits (carries and shifts only move
      upward), so no per-row masking is needed in the loop.

    Returns ((matched_a, matched_b) bool matrices | None, distances | None).
    The distance comes out of the final column: D[lb][la] = la + Σ Pv − Σ Mv
    over bits [0, lb)."""
    nt, max_a = A.shape
    one = np.uint64(1)
    s63 = np.uint64(63)
    Peq, lut, base = _build_peq(B, lb, W)
    At = np.ascontiguousarray(A.T)  # column i is contiguous
    valid = _word_masks(lb, W)
    if jw:
        wn = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
        off = int(wn.max())
        # T[w][x] = bits of word w below position x − off: the window
        # [i − wn, i + wn] is T[hi] & NT[lo] (NT = ~T) with lo = off − wn + i
        # and hi = off + wn + 1 + i, no clipping (bits ≥ lb are never free)
        x = np.arange(max_a + 2 * off + 2) - off
        T = [_BELOW[np.clip(x - 64 * w, 0, 64)] for w in range(W)]
        NT = [~t for t in T]
        lo0 = off - wn
        hi0 = off + wn + 1
        free = [v.copy() for v in valid]
        matched_a = np.zeros((nt, max_a), bool)
    if lev:
        Pv = [v.copy() for v in valid]
        Mv = [np.zeros(nt, np.uint64) for _ in range(W)]
    with np.errstate(over="ignore"):
        for i in range(max_a):
            m = int(active[i])
            if m == 0:
                break
            row = lut[At[i, :m]]
            row += base[:m]
            Eq = [P[row] for P in Peq]
            if jw:
                ilo = lo0[:m] + i
                ihi = hi0[:m] + i
                taken = None
                for w in range(W):
                    cand = Eq[w] & free[w][:m]
                    cand &= T[w][ihi]
                    cand &= NT[w][ilo]
                    if taken is not None:
                        cand[taken] = 0
                    free[w][:m] ^= cand & (~cand + one)  # lowest set bit
                    hit = cand != 0
                    taken = hit if taken is None else taken | hit
                matched_a[:m, i] = taken
            if lev:
                for w in range(W):
                    e = Eq[w]
                    pv, mv = Pv[w][:m], Mv[w][:m]
                    xv = e | mv
                    a = e & pv
                    s = a + pv
                    if w:
                        s += carry
                    elif W > 1:  # carry of word 0's add into word 1
                        carry = (s < a).astype(np.uint64)
                    xh = (s ^ pv) | e
                    ph = mv | ~(xh | pv)
                    mh = pv & xh
                    ph_s = ph << one
                    mh_s = mh << one
                    if w:
                        ph_s |= ph_top
                        mh_s |= mh_top
                    else:
                        ph_s |= one
                        ph_top = ph >> s63
                        mh_top = mh >> s63
                    Pv[w][:m] = mh_s | ~(xv | ph_s)
                    Mv[w][:m] = ph_s & xv
    matches = dist = None
    if jw:
        used = np.stack([v ^ f for v, f in zip(valid, free)], axis=1)
        matched_b = np.unpackbits(
            used.astype("<u8", copy=False).view(np.uint8).reshape(nt, 8 * W),
            axis=1,
            bitorder="little",
        ).view(bool)
        matches = (matched_a, matched_b)
    if lev:
        dist = la.copy()
        for w in range(W):
            dist += _popcount(Pv[w] & valid[w])
            dist -= _popcount(Mv[w] & valid[w])
    return matches, dist


def _jaro_match_matrix(A, la, B, lb, active):
    """Greedy Jaro matching on (nt, len) boolean matrices, the fallback for
    any alphabet and length; same greedy order as the bit-parallel pass
    (A positions ascending, first free in-window equal B position)."""
    nt, max_a = A.shape
    max_b = B.shape[1]
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    free = np.ones((nt, max_b), bool)
    matched_a = np.zeros((nt, max_a), bool)
    matched_b = np.zeros((nt, max_b), bool)
    cols = np.arange(max_b)
    for i in range(max_a):
        m = int(active[i])
        if m == 0:
            break
        lo = np.maximum(i - window[:m], 0)
        hi = np.minimum(i + window[:m] + 1, lb[:m])
        win = (cols >= lo[:, None]) & (cols < hi[:, None])
        eq = (B[:m] == A[:m, i : i + 1]) & free[:m] & win
        has = eq.any(axis=1)
        j = eq.argmax(axis=1)
        rows = np.nonzero(has)[0]
        free[rows, j[rows]] = False
        matched_a[rows, i] = True
        matched_b[rows, j[rows]] = True
    return matched_a, matched_b


def _jaro_winkler_from_matches(
    A, la, B, lb, matched_a, matched_b, prefix_weight
) -> np.ndarray:
    """Jaro-Winkler from the match masks. Transpositions are counted across
    rows at once: boolean-mask indexing is row-major with ascending columns,
    so the t-th matched char of a row lines up between the A-order and
    B-order flattenings, and each row's matches are one segment."""
    nt = len(la)
    m = matched_a.sum(axis=1)
    nz = np.nonzero(m > 0)[0]
    mismatch = A[matched_a] != B[matched_b[:, : B.shape[1]]]
    trans = np.zeros(nt, np.int64)
    if nz.size:
        starts = (np.cumsum(m) - m)[nz]
        trans[nz] = np.add.reduceat(mismatch, starts, dtype=np.int64) // 2
    jaro_v = np.zeros(nt)
    jaro_v[nz] = (
        m[nz] / la[nz] + m[nz] / lb[nz] + (m[nz] - trans[nz]) / m[nz]
    ) / 3.0
    # Winkler prefix boost (common prefix ≤ 4) where jaro > 0.7
    pref_len = np.minimum(np.minimum(la, lb), 4)
    maxp = min(4, A.shape[1], B.shape[1])
    prefix = np.zeros(nt, np.int64)
    if maxp > 0:
        eqp = A[:, :maxp] == B[:, :maxp]
        still = np.ones(nt, bool)
        for i in range(maxp):
            still &= eqp[:, i] & (i < pref_len)
            prefix += still
    boost = jaro_v > 0.7
    jaro_v[boost] += prefix[boost] * prefix_weight * (1.0 - jaro_v[boost])
    return jaro_v


def _dp_batch(A, B, len_b, active) -> np.ndarray:
    """Row-DP edit distance across pairs, the fallback for any alphabet and
    length: A's columns drive the loop, each row holds the DP row over B.
    Padding needs no sentinel: cell (r, j ≤ len_b[r]) never depends on
    columns right of j, and only cur[r, len_b[r]] is read. int16 cells,
    int32 beyond their range."""
    nt, max_a = A.shape
    max_b = B.shape[1]
    cell_dt = np.int16 if max(max_a, max_b) < 32000 else np.int32
    one = cell_dt(1)
    rng = np.arange(max_b + 1, dtype=cell_dt)
    prev = np.broadcast_to(rng, (nt, max_b + 1)).copy()
    cur = np.empty_like(prev)
    out = np.zeros(nt, np.int64)
    for i in range(max_a):
        m = int(active[i])
        if m == 0:
            break
        cost = B[:m] != A[:m, i : i + 1]
        cur[:m, 0] = i + 1
        np.minimum(
            prev[:m, 1:] + one,
            prev[:m, :-1] + cost,
            out=cur[:m, 1:],
        )
        # insertion chain cur[j] = min(cur[j], cur[j-1]+1) is a prefix-min
        # scan of (cur - j): min over j' ≤ j of cur[j'] + (j - j')
        cur[:m] -= rng
        np.minimum.accumulate(cur[:m], axis=1, out=cur[:m])
        cur[:m] += rng
        m_next = int(active[i + 1]) if i + 1 < max_a else 0
        if m_next < m:  # rows [m_next, m) have len_a == i+1 → finished
            rows = np.arange(m_next, m)
            out[rows] = cur[rows, len_b[rows]]
        prev, cur = cur, prev
    return out


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))
