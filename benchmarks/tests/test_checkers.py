"""The independent checkers agree with the paper's tables, the OEIS prefix
in tests/data and the brute-force oracles wherever those reach."""

from pathlib import Path

import pytest

from checkers import (
    RefinedPrefix,
    UltrametricPrefix,
    UnlabeledCounts,
    check_p_series,
    mobile_counts,
)
from seriesforge import oracle, reference
from seriesforge.labeled import DegreeSpec, p_series

B000669 = Path(__file__).resolve().parents[2] / "tests" / "data" / "b000669_prefix.txt"


@pytest.mark.parametrize("m", sorted(reference.ULTRAMETRIC_TABLE))
def test_ultrametric_recurrence_matches_table(m):
    assert UltrametricPrefix(m).upto(8) == reference.ULTRAMETRIC_TABLE[m]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ultrametric_recurrence_matches_oracles(m):
    ultra = UltrametricPrefix(m)
    for s in range(1, 5):
        assert ultra[s] == oracle.enum_ultrametrics(s, m)
    for s in range(1, 7):
        assert ultra[s] == oracle.enum_labeled_trees(s, m)[0]


@pytest.mark.parametrize("m", sorted(reference.MOBILES_TABLE))
def test_mobile_recurrence_matches_table(m):
    assert mobile_counts(8, m) == reference.MOBILES_TABLE[m]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mobile_recurrence_matches_oracle(m):
    assert mobile_counts(6, m) == [oracle.enum_mobiles(s, m) for s in range(1, 7)]


def test_unlabeled_counts_match_sequence_and_bfile():
    counts = UnlabeledCounts()
    assert [counts[s] for s in range(1, 11)] == reference.UNLABELED_SEQUENCE
    for line in B000669.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            s, value = map(int, line.split())
            assert counts[s] == value


def test_refined_polynomials_match_triangle_and_oracle():
    refined = RefinedPrefix()
    for (k, n), value in reference.RIORDAN_TRIANGLE.items():
        assert refined.poly(n)[k] == value
    for s in range(1, 9):
        buckets = oracle.enum_unlabeled_trees(s)
        poly = refined.poly(s)
        assert {k: c for k, c in enumerate(poly) if c} == buckets
        assert sum(poly) == UnlabeledCounts()[s]


def test_refined_specialisations_match_tables():
    refined = RefinedPrefix()
    for m, row in reference.MULTIPARTITE_UNLABELED_TABLE.items():
        assert [refined.multipartite(s, m) for s in range(1, len(row) + 1)] == row
    for m, row in reference.FULLY_COLORED_UNLABELED_TABLE.items():
        assert [refined.fully_colored(s, m) for s in range(1, len(row) + 1)] == row


def _p_payload(m, order):
    series = p_series(DegreeSpec(m), order)
    return {"kind": "P", "m": m, "order": order,
            "coeffs": [series[n].to_jsonable() for n in range(order + 1)]}


def test_p_series_check_accepts_the_paper_series():
    assert check_p_series(_p_payload(3, 6), 3, 6, UltrametricPrefix(3)) == []


def test_p_series_check_rejects_a_wrong_coefficient():
    payload = _p_payload(3, 6)
    payload["coeffs"][5][0]["coeff"] += 1
    assert check_p_series(payload, 3, 6, UltrametricPrefix(3))


def test_p_series_check_rejects_an_unbalanced_monomial():
    payload = _p_payload(2, 5)
    payload["coeffs"][4][0]["monomial"][0][1] += 1
    assert check_p_series(payload, 2, 5, UltrametricPrefix(2))
