"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Every criterion is exact (integer / rational equality, no tolerances);
the stated bounds are wall-clock runtime limits enforced with a timer.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from seriesforge import reference
from seriesforge.cli import main as cli_main
from seriesforge.egf import QQ, bell_inverse_recursive, bell_product
from seriesforge.labeled import (
    chain_increasing_counts,
    fully_colored_labeled_counts,
    mobile_counts,
    p_series,
    process_counts,
    ultrametric_counts,
)
from seriesforge.oracle import (
    bell_inverse_closed,
    enum_chain_increasing,
    enum_labeled_trees,
    enum_mobiles,
    enum_ultrametrics,
    enum_unlabeled_trees,
    chain_increasing_recurrence,
    make_named,
    p_closed_form,
    p_series_by_color_recursion,
    verify_integral_relation,
)
from seriesforge.rings import PolyVar
from seriesforge.unlabeled import (
    fully_colored_unlabeled_counts,
    multipartite_unlabeled_counts,
    refined_polys,
    unlabeled_counts,
)
from seriesforge.weights import WeightPoly

from test_labeled import expected_p2, expected_p3

M = PolyVar.gen("m")


def report(num, desc, elapsed=None, bound=None):
    extra = ""
    if elapsed is not None:
        extra = f" [{elapsed:.2f}s" + (f" < {bound}s limit]" if bound else "]")
    print(f"ACCEPTANCE {num:>2} PASS: {desc}{extra}")


def test_criterion_01_symbolic_table():
    start = time.monotonic()
    for m, row in reference.ULTRAMETRIC_TABLE.items():
        assert ultrametric_counts(len(row), m) == row, f"m={m}"
    assert ultrametric_counts(8, 8)[-1] == 167347010944
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(1, "symbolic tree table, all 64 cells for s,m <= 8", elapsed, 10)


def test_criterion_02_count_polynomials():
    polys = ultrametric_counts(7, M)
    for s, coeffs in reference.A_POLYNOMIALS.items():
        assert polys[s - 1] == PolyVar(coeffs, "m"), f"s={s}"
    assert polys[6].coeffs[-1] == 10395
    report(2, "count polynomials in m match for s <= 7 (leading 10395 at s=7)")


def test_criterion_03_colored_and_mobile_tables():
    for m, row in reference.FULLY_COLORED_LABELED_TABLE.items():
        assert fully_colored_labeled_counts(len(row), m) == row, f"m={m}"
    for m, row in reference.MOBILES_TABLE.items():
        assert mobile_counts(len(row), m) == row, f"m={m}"
    assert mobile_counts(8, 8)[-1] == 218563826824
    report(3, "fully-colored-labeled and mobile tables match exactly")


def test_criterion_04_triple_agreement():
    start = time.monotonic()
    for m in (1, 2, 3):
        p1 = p_series(m, 6)
        p2 = p_series_by_color_recursion(m, 6)
        for s in range(1, 7):
            assert p1[s] == p2[s] == p_closed_form(m, s), f"(s={s}, m={m})"
    one = p_series(1, 6)
    assert one[1] == WeightPoly.const(1)
    for s in range(2, 7):
        assert one[s] == WeightPoly.gen(1, s)
    two = p_series(2, 5)
    for s, want in expected_p2().items():
        assert two[s] == want
    three = p_series(3, 4)
    for s, want in expected_p3().items():
        assert three[s] == want
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(4, "three series routes agree and match printed expansions", elapsed, 60)


def test_criterion_05_chain_increasing_identity():
    shift = PolyVar([-1, 1], "m")
    chains = chain_increasing_recurrence(10, M)
    assert [y.compose(shift) for y in chains] == ultrametric_counts(10, M)
    assert chain_increasing_counts(10, M) == chains
    assert chains[2] == PolyVar([1, 4, 3], "m")
    assert process_counts(8) == ultrametric_counts(8, 3)
    report(5, "shifted chain-increasing counts equal tree counts; processes match")


def test_criterion_06_integral_relation():
    for m in (1, 2, 3, 4):
        assert verify_integral_relation(m, 12), f"m={m}"
    report(6, "integral relation holds to order 12 for m = 1..4")


def test_criterion_07_unlabeled_tables():
    counts = unlabeled_counts(10)
    assert counts == reference.UNLABELED_SEQUENCE
    polys = refined_polys(10)
    for (k, n), want in reference.RIORDAN_TRIANGLE.items():
        assert polys[n - 1][k] == want
    for n in range(2, 11):
        assert sum(polys[n - 1].coeffs) == counts[n - 1]
    for m, row in reference.MULTIPARTITE_UNLABELED_TABLE.items():
        assert multipartite_unlabeled_counts(len(row), m) == row, f"m={m}"
    for m, row in reference.FULLY_COLORED_UNLABELED_TABLE.items():
        assert fully_colored_unlabeled_counts(len(row), m) == row, f"m={m}"
    in_m = multipartite_unlabeled_counts(max(reference.UNLABELED_POLYNOMIALS), M)
    for s, coeffs in reference.UNLABELED_POLYNOMIALS.items():
        assert in_m[s - 1] == PolyVar(coeffs, "m")
    report(7, "unlabeled sequence, triangle, both tables, eight polynomials")


def test_criterion_08_oracle_equivalence():
    start = time.monotonic()
    for m in (1, 2, 3):
        p = p_series(m, 6)
        counts = ultrametric_counts(6, m)
        for s in range(1, 7):
            count, weight = enum_labeled_trees(s, m)
            assert weight == p[s] and count == counts[s - 1]
    for m in (1, 2, 3):
        assert [enum_ultrametrics(s, m) for s in range(1, 6)] == ultrametric_counts(5, m)
    assert enum_ultrametrics(4, 2) == 52  # 52 of the 64 pair assignments
    polys = refined_polys(8)
    for s in range(1, 9):
        by_inner = enum_unlabeled_trees(s)
        assert all(by_inner.get(k, 0) == polys[s - 1][k] for k in range(s + 1))
    for m in (1, 2, 3):
        chains = [enum_chain_increasing(s, m) for s in range(1, 8)]
        assert chains == chain_increasing_counts(7, m)
        assert [enum_mobiles(s, m) for s in range(1, 7)] == mobile_counts(6, m)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(8, "all five enumeration oracles agree with the formulas", elapsed, 300)


def test_criterion_09_dual_inversion_random():
    rng = random.Random(20260826)
    e = (Fraction(1),) + (Fraction(0),) * 11
    for _ in range(100):
        tail = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(11)
        ]
        x = (Fraction(1), *tail)
        rec = bell_inverse_recursive(x, QQ)
        assert bell_inverse_closed(x, QQ) == rec
        assert bell_product(x, rec, QQ) == e
        assert bell_product(rec, x, QQ) == e
    report(9, "closed-form and recursive inversion agree on 100 random series")


def test_criterion_10_named_series():
    assert (
        make_named("exp_minus_one", 16).invert().coeffs
        == make_named("log1p", 16).coeffs
    )
    assert (
        make_named("neg_log_one_minus", 16).invert().coeffs
        == make_named("one_minus_exp_neg", 16).coeffs
    )
    report(10, "classical series pairs invert to each other through order 16")


def test_criterion_11_cli(tmp_path, capsys):
    assert cli_main(["table", "symbolic", "--check-paper"]) == 0
    import os

    bfile = os.path.join(os.path.dirname(__file__), "data", "b000669_prefix.txt")
    assert cli_main(["verify", "unlabeled", "--bfile", bfile]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 1\n3 2\n4 999\n")
    assert cli_main(["verify", "unlabeled", "--bfile", str(bad)]) == 2
    capsys.readouterr()
    report(11, "CLI table check, b-file verification, and exit codes 0/0/2")
