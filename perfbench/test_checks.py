"""Tests of the benchmark's own reference computations and corpus generator.

    python3 -m pytest perfbench -q

They need neither Ray nor the program.
"""

import os
import sys

import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from corpus import CorpusSpec, generate  # noqa: E402


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("MARTHA", "MARHTA", 0.9611111),  # jaro 0.9444, prefix 3
        ("DWAYNE", "DUANE", 0.84),  # jaro 0.8222, prefix 1
        ("DIXON", "DICKSONX", 0.8133333),  # jaro 0.7667, prefix 2
        ("abc", "abc", 1.0),
        ("abc", "xyz", 0.0),
        ("ab", "ba", 0.0),  # window 0: only same positions can match
        ("", "a", 0.0),
        ("CRATE", "TRACE", 0.7333333),  # jaro 0.7333 gets no boost
    ],
)
def test_jaro_winkler_hand_worked(a, b, expected):
    assert checks.jaro_winkler(a, b) == pytest.approx(expected, abs=1e-6)
    assert checks.jaro_winkler(b, a) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize(
    "a, b, dist",
    [
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("", "abc", 3),
        ("abc", "", 3),
        ("same", "same", 0),
        ("intention", "execution", 5),
        ("ab", "ba", 2),
    ],
)
def test_levenshtein_hand_worked(a, b, dist):
    assert checks.levenshtein(a, b) == dist
    assert checks.levenshtein_ratio(a, b) == pytest.approx(1 - dist / max(len(a), len(b)))


def test_levenshtein_ratio_of_empty_strings_is_one():
    assert checks.levenshtein_ratio("", "") == 1.0


def test_pair_score_aligns_and_caps_turns():
    long = "x" * 200
    # only the first min(len) turns are compared, each capped at TEXT_CAP
    s = checks.pair_score([long, "a"], [long + "y"], cosine=1.0)
    assert s == pytest.approx(1.0)
    # negative cosines are clipped to 0; no aligned turns scores the cosine alone
    assert checks.pair_score([], ["a"], cosine=-0.5) == 0.0
    assert checks.pair_score([], ["a"], cosine=0.5) == pytest.approx(0.2)


def test_union_find_small_graphs():
    ids = ["a", "b", "c", "d", "e", "f"]
    labels = checks.union_find_labels(ids, ["c", "e", "b"], ["b", "d", "a"])
    assert labels == {"a": "a", "b": "a", "c": "a", "d": "d", "e": "d", "f": "f"}
    # a chain joined from its far end still takes the minimum label
    chain = checks.union_find_labels(list("zyxw"), list("zyx"), list("yxw"))
    assert set(chain.values()) == {"w"}
    assert checks.union_find_labels(["q"], [], []) == {"q": "q"}


def test_brute_topk_breaks_cosine_ties_by_id():
    v = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.1]])
    ids = np.array(["d", "b", "c", "a", "e"], dtype=object)
    (nbr, sims, kth), = checks.brute_topk(checks.unit_rows(v), ids, np.array([0]), 2)
    # b and c tie at cosine 1.0 ahead of e; a is orthogonal; d is the query
    assert list(nbr) == ["b", "c"]
    assert kth == pytest.approx(1.0)


def _cands(pairs):
    return pd.DataFrame(
        {
            "left_id": [p[0] for p in pairs],
            "right_id": [p[1] for p in pairs],
            "cosine": [p[2] for p in pairs],
        }
    )


def test_check_candidates_tolerates_only_boundary_ties():
    v = checks.unit_rows(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    ids = np.array(["a", "b", "c", "d"], dtype=object)
    q = np.array([0])
    # a's top-1 under the tie rule is b; c ties with b, so c is accepted
    assert checks.check_candidates(_cands([("a", "b", 1.0)]), ids, v, 1, True, q) == []
    assert checks.check_candidates(_cands([("a", "c", 1.0)]), ids, v, 1, True, q) == []
    # d is far below the boundary
    errs = checks.check_candidates(_cands([("a", "d", 0.0)]), ids, v, 1, True, q)
    assert any("top-k" in e for e in errs)
    # a reported cosine that is not the recomputed one
    errs = checks.check_candidates(_cands([("a", "b", 0.9)]), ids, v, 1, True)
    assert any("cosine" in e for e in errs)
    errs = checks.check_candidates(_cands([("a", "a", 1.0)]), ids, v, 1, True)
    assert any("self pair" in e for e in errs)


def test_check_candidates_counts_k_per_left_id():
    v = checks.unit_rows(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    ids = np.array(["a", "b", "c", "d"], dtype=object)
    short = _cands([("a", "b", 1.0)])
    # exact top-2 must list two ids; the missing tie member is not excused
    errs = checks.check_candidates(short, ids, v, 2, True, np.array([0]))
    assert any("not exactly 2" in e for e in errs)
    assert any("top-k" in e for e in errs)
    # approximate top-k may return fewer
    assert checks.check_candidates(short, ids, v, 2, False) == []
    full = _cands([("a", "b", 1.0), ("a", "c", 1.0)])
    assert checks.check_candidates(full, ids, v, 2, True, np.array([0])) == []


def test_check_clusters():
    ids = ["a", "b", "c"]
    good = pd.DataFrame({"conv_id": ids, "cluster_id": ["a", "a", "c"]})
    assert checks.check_clusters(good, ids, ["b"], ["a"]) == []
    wrong_label = pd.DataFrame({"conv_id": ids, "cluster_id": ["b", "b", "c"]})
    assert checks.check_clusters(wrong_label, ids, ["b"], ["a"])
    missing = good.iloc[:2]
    assert checks.check_clusters(missing, ids, ["b"], ["a"])
    merged = pd.DataFrame({"conv_id": ids, "cluster_id": ["a", "a", "a"]})
    assert checks.check_clusters(merged, ids, ["b"], ["a"])


def test_check_matches():
    keys = set(checks.pair_keys(["b"], ["a"]))
    ok = pd.DataFrame({"ltable_id": ["a"], "rtable_id": ["b"]})
    assert checks.check_matches(ok, keys) == []
    assert checks.check_matches(pd.DataFrame({"ltable_id": ["a"], "rtable_id": ["a"]}), keys)
    assert checks.check_matches(pd.DataFrame({"ltable_id": ["a"], "rtable_id": ["c"]}), keys)


def test_check_tuples_orders_turns():
    turns = pd.DataFrame(
        {"conv_id": ["x", "x", "y"], "turn_idx": [1, 0, 0], "text": ["second", "first", "only"]}
    )
    good = pd.DataFrame({"conv_id": ["x", "y"], "turn_texts": [["first", "second"], ["only"]]})
    assert checks.check_tuples(turns, good) == []
    bad = pd.DataFrame({"conv_id": ["x", "y"], "turn_texts": [["second", "first"], ["only"]]})
    assert checks.check_tuples(turns, bad)


def test_quality_metrics():
    truth = pd.DataFrame({"conv_id": ["a", "b", "c", "d"], "entity_id": ["e", "e", "e", "f"]})
    planted = checks.planted_pair_keys(truth)
    assert planted == {"a\tb", "a\tc", "b\tc"}
    recall, cssr = checks.blocking_quality({"a\tb", "a\td"}, planted, 4)
    assert recall == pytest.approx(1 / 3)
    assert cssr == pytest.approx(2 / 6)
    perfect = pd.DataFrame({"conv_id": ["a", "b", "c", "d"], "cluster_id": ["a", "a", "a", "d"]})
    assert checks.pair_f1(perfect, truth) == 1.0
    split = pd.DataFrame({"conv_id": ["a", "b", "c", "d"], "cluster_id": ["a", "a", "c", "d"]})
    # 1 of 3 true pairs found, no false pair: precision 1, recall 1/3
    assert checks.pair_f1(split, truth) == pytest.approx(0.5)


def test_reachable_entities_follow_candidate_pairs():
    truth = pd.DataFrame({"conv_id": ["a", "b", "c", "d", "x"], "entity_id": ["e", "e", "e", "e", "f"]})
    # a-b and c-d are linked within the entity; b-x crosses entities
    reach = checks.reachable_entities(truth, {"a\tb", "c\td", "b\tx"})
    assert dict(zip(reach["conv_id"], reach["entity_id"])) == {
        "a": "a", "b": "a", "c": "c", "d": "c", "x": "x"
    }
    # clusters that follow the candidates are perfect against what is reachable
    clusters = pd.DataFrame({"conv_id": ["a", "b", "c", "d", "x"], "cluster_id": ["a", "a", "c", "c", "x"]})
    assert checks.pair_f1(clusters, reach) == 1.0
    assert checks.pair_f1(clusters, truth) == pytest.approx(2 * (2 / 6) / (1 + 2 / 6))


def test_corpus_is_seeded_and_sized_by_spec():
    spec = CorpusSpec(n_base=40, dup_fraction=0.3, hot_cluster=5, tie_copies=3, delta_convs=6)
    a, b, c = generate(spec, 1), generate(spec, 1), generate(spec, 2)
    for name in a:
        pd.testing.assert_frame_equal(a[name], b[name])
    assert not a["base"].equals(c["base"])
    truth = a["base_truth"]
    assert truth["conv_id"].is_unique
    assert (truth["entity_id"] == "e0000000").sum() == 1 + 5 + 3
    assert set(a["delta"]["conv_id"]).isdisjoint(a["base"]["conv_id"])
    assert a["delta_truth"]["conv_id"].nunique() == 6
