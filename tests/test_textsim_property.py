"""Property tests (hypothesis) for the string-similarity kernels.

The batch kernels dispatch per pair among the fused bit-parallel 1-word /
2-word pass and the matrix/DP fallbacks by pattern length and alphabet
(textsim.similarity_batch); the seeded parity suite
(test_functions.TestKernelPathParity) covers each path, and these property
tests let hypothesis hunt the boundaries adversarially — against an
INDEPENDENT textbook DP oracle, not the repo's own scalar. The scorer's
Arrow-built input matrices are pinned to ``codepoints`` here too.

Pure numpy/pyarrow — no Ray session needed.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepblocker_ray.functions.textsim import (
    codepoints,
    jaro,
    jaro_winkler,
    jaro_winkler_batch,
    lev_ratio,
    levenshtein,
    levenshtein_batch,
    similarity_batch,
)
from deepblocker_ray.stages.scoring import arrow_codepoints

# mixed alphabet: Latin-1 run (uint8 code path) up to its last codes
# (þ = 254, ÿ = 255) and NUL (equal to the matrices' zero padding), a
# word-boundary-hostile repeat char, and non-Latin-1 (uint32 / fallback path)
_CHARS = st.sampled_from(list("ab z-\xe9þÿ\x00") + ["日", "中"])
_STR = st.text(alphabet=_CHARS, max_size=150)


def _dp_reference(a: str, b: str) -> int:
    """Textbook Wagner-Fischer, written independently of the library."""
    if a == b:
        return 0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_STR, _STR), min_size=1, max_size=8))
def test_levenshtein_batch_matches_textbook_dp(pairs):
    ca = [a for a, _ in pairs]
    cb = [b for _, b in pairs]
    got = levenshtein_batch(ca, cb)
    want = [_dp_reference(a, b) for a, b in pairs]
    assert got.tolist() == want


@settings(max_examples=150, deadline=None)
@given(_STR, _STR)
def test_levenshtein_metric_properties(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)  # symmetry
    assert (d == 0) == (a == b)  # identity of indiscernibles
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))  # bounds


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_STR, _STR), min_size=1, max_size=8))
def test_ratio_batch_consistent_with_distance(pairs):
    ca = [a for a, _ in pairs]
    cb = [b for _, b in pairs]
    max_len = np.array([max(len(a), len(b)) for a, b in pairs], np.int64)
    ratio = lev_ratio(levenshtein_batch(ca, cb), max_len)
    for a, b, r in zip(ca, cb, ratio):
        m = max(len(a), len(b))
        want = 1.0 if m == 0 else 1.0 - _dp_reference(a, b) / m
        assert abs(r - want) < 1e-12


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_STR, _STR), min_size=1, max_size=8))
def test_jaro_winkler_batch_matches_scalar(pairs):
    ca = [a for a, _ in pairs]
    cb = [b for _, b in pairs]
    got = jaro_winkler_batch(ca, cb)
    for a, b, v in zip(ca, cb, got):
        assert abs(jaro_winkler(a, b) - v) < 1e-12


@settings(max_examples=150, deadline=None)
@given(_STR, _STR)
def test_jaro_properties(a, b):
    v = jaro(a, b)
    assert 0.0 <= v <= 1.0
    assert v == jaro(b, a)  # jaro is symmetric
    if a == b and a:
        assert v == 1.0
    w = jaro_winkler(a, b)
    assert 0.0 <= w <= 1.0 + 1e-12
    assert w >= v - 1e-12  # prefix bonus never lowers the score


@st.composite
def _boundary_pair(draw):
    """A string at a word boundary of the bit-parallel pass (63-65 or
    127-129 chars) and a partner: another boundary string, or a copy with a
    short stretch replaced (near-duplicates reach Jaro > 0.7 and the
    Winkler boost)."""
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    a = draw(st.text(alphabet=_CHARS, min_size=n, max_size=n))
    if draw(st.booleans()):
        m = draw(st.sampled_from([1, 63, 64, 65, 127, 128, 129]))
        b = draw(st.text(alphabet=_CHARS, min_size=m, max_size=m))
    else:
        i = draw(st.integers(0, n))
        j = draw(st.integers(i, min(n, i + 4)))
        b = a[:i] + draw(st.text(alphabet=_CHARS, max_size=3)) + a[j:]
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(_boundary_pair(), min_size=1, max_size=6))
def test_fused_pass_matches_references_at_word_boundaries(pairs):
    ca, la = codepoints([a for a, _ in pairs])
    cb, lb = codepoints([b for _, b in pairs])
    sim, dist = similarity_batch(ca, la, cb, lb)
    assert dist.tolist() == [_dp_reference(a, b) for a, b in pairs]
    for (a, b), v in zip(pairs, sim):
        assert abs(jaro_winkler(a, b) - v) < 1e-12
    # each kernel alone gives the same values as the fused call
    assert similarity_batch(ca, la, cb, lb, lev=False)[0].tolist() == (
        sim.tolist()
    )
    assert similarity_batch(ca, la, cb, lb, jw=False)[1].tolist() == (
        dist.tolist()
    )


def _null_slot_with_bytes():
    """["ab", null, "xyz"] whose null slot still spans 3 bytes of data."""
    data = pa.py_buffer(b"abJUNKxyz")
    offsets = pa.py_buffer(np.array([0, 2, 6, 9], np.int32).tobytes())
    validity = pa.py_buffer(np.packbits([1, 0, 1], bitorder="little"))
    return pa.Array.from_buffers(
        pa.string(), 3, [validity, offsets, data], null_count=1
    )


_ASCII = ["plain", "", "two words", "a\x00b", "x" * 70, None, "end"]
_NON_ASCII = ["héllo", "", None, "日本語", "þÿ", "mixed ascii é"]


@pytest.mark.parametrize(
    "arr",
    [
        pa.array(_ASCII, pa.string()),
        pa.array(_ASCII, pa.large_string()),
        pa.array(_ASCII, pa.string()).slice(2, 4),
        pa.array(_ASCII, pa.large_string()).slice(1, 5),
        pa.array(["no", "nulls", "here"], pa.string()),
        pa.array(_NON_ASCII, pa.string()),
        pa.array(_NON_ASCII, pa.large_string()),
        pa.array(_NON_ASCII, pa.string()).slice(1, 4),
        pa.array([], pa.string()),
        pa.array([None, None], pa.large_string()),
        _null_slot_with_bytes(),
    ],
    ids=[
        "string", "large_string", "sliced", "large_sliced", "no_nulls",
        "non_ascii", "non_ascii_large", "non_ascii_sliced", "empty",
        "all_null", "null_slot_with_bytes",
    ],
)
def test_arrow_codepoints_equals_codepoints(arr):
    want_codes, want_lens = codepoints(
        [s if s is not None else "" for s in arr.to_pylist()]
    )
    codes, lens = arrow_codepoints(arr)
    assert codes.dtype == want_codes.dtype
    np.testing.assert_array_equal(codes, want_codes)
    np.testing.assert_array_equal(lens, want_lens)
