import contextlib
import errno
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from seriesforge import reference
from seriesforge.cli import FAMILIES, _p_record, main
from seriesforge.labeled import (
    fully_colored_labeled_counts,
    mobile_counts,
    p_series,
    ultrametric_counts,
)
from seriesforge.oracle import alternating_bell_polys, refined_polys_substituted
from seriesforge.unlabeled import multipartite_unlabeled_counts, unlabeled_counts

import test_golden_stdout as golden_stdout

DATA = os.path.join(os.path.dirname(__file__), "data")
BFILE = os.path.join(DATA, "b000669_prefix.txt")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def decimal(v: int) -> str:
    """str(v), past the default digit limit too."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(v)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(limit)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digest(out):
    """(sha256, length in bytes) of a run's stdout, as the corpus pins it."""
    data = out.encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def pinned(key):
    """(sha256, length in bytes) that tests/golden_stdout.json pins for one run."""
    entry = golden_stdout.load()[key]
    return entry["sha256"], entry["bytes"]


def usage_error(capsys, *argv):
    """Run a command that must fail as a usage error: exit 1, nothing on
    stdout and one `error: ` line on stderr. Returns that line's message."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err[len("error: "):-1]


def check_long_bfile(capsys, tmp_path, family, m, values, changed):
    """verify accepts a b-file of `values`, and reports index `changed`
    once that value is off by one."""
    bf = tmp_path / "b.txt"
    argv = ("verify", family, *(() if m is None else ("--m", str(m))), "--bfile", str(bf))
    bf.write_text("".join(f"{s} {v}\n" for s, v in enumerate(values, start=1)))
    code, out, _ = run(capsys, *argv)
    assert (code, out.strip()) == (0, f"OK ({len(values)} entries)")
    values[changed - 1] += 1
    bf.write_text("".join(f"{s} {v}\n" for s, v in enumerate(values, start=1)))
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert f"mismatch at index {changed}" in out


class TestCount:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "count", "ultrametrics", "--s", "4", "--m", "2")
        assert code == 0
        assert out.strip() == "52"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "mobiles", "--s", "8", "--m", "8", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "family": "mobiles", "s": 8, "m": 8, "value": 218563826824
        }

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "count", "processes", "--s", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,s,m,value"
        assert lines[1] == "processes,5,,3933"
        # recorded from the release whose count command wrote its own CSV
        assert out == "family,s,m,value\r\nprocesses,5,,3933\r\n"

    def test_csv_keeps_m_zero(self, capsys):
        code, out, _ = run(
            capsys, "count", "chain-increasing", "--s", "4", "--m", "0", "--format", "csv"
        )
        assert (code, out) == (0, "family,s,m,value\r\nchain-increasing,4,0,1\r\n")

    def test_huge_value_as_string_in_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "ultrametrics", "--s", "20", "--m", "20",
            "--format", "json",
        )
        assert code == 0
        assert isinstance(json.loads(out)["value"], str)

    def test_missing_m_is_usage_error(self, capsys):
        assert (usage_error(capsys, "count", "ultrametrics", "--s", "4")
                == "family 'ultrametrics' requires --m")

    def test_unexpected_m_is_usage_error(self, capsys):
        assert (usage_error(capsys, "count", "unlabeled", "--s", "4", "--m", "2")
                == "family 'unlabeled' does not take --m")

    # argparse words its own errors differently across Python versions, so
    # these match a stable part of the message
    def test_bad_family(self, capsys):
        assert ("argument family: invalid choice: 'nonsense'"
                in usage_error(capsys, "count", "nonsense", "--s", "4"))

    def test_non_int_s(self, capsys):
        assert ("argument --s: invalid int value: 'x'"
                in usage_error(capsys, "count", "unlabeled", "--s", "x"))

    def test_bad_s(self, capsys):
        assert usage_error(capsys, "count", "unlabeled", "--s", "0") == "s must be >= 1"

    @pytest.mark.parametrize("family", sorted(f for f, (_, needs_m, *_) in FAMILIES.items()
                                              if needs_m))
    def test_bad_m_has_one_wording(self, capsys, family):
        least = 0 if family == "chain-increasing" else 1
        assert (usage_error(capsys, "count", family, "--s", "3", "--m", str(least - 1))
                == f"m must be >= {least}")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "count", "unlabeled", "--s", "10", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "2312"

    def test_value_over_the_digit_limit(self, capsys):
        m = 10 ** 20
        code, out, err = run(capsys, "count", "fully-colored-labeled", "--s", "200", "--m", str(m))
        assert (code, err) == (0, "")
        assert out.strip() == decimal(fully_colored_labeled_counts(200, m)[-1])

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int/str digit limit")
    @pytest.mark.parametrize("argv", [
        ("count", "fully-colored-labeled", "--s", "200", "--m", str(10 ** 20)),
        ("count", "ultrametrics", "--s", "x"),
    ], ids=["count", "usage-error"])
    def test_main_restores_the_digit_limit(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            run(capsys, *argv)
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("family, m, counts", [
        ("unlabeled", None, unlabeled_counts),
        ("multipartite-unlabeled", 3, lambda s: multipartite_unlabeled_counts(s, 3)),
    ], ids=["unlabeled", "multipartite-unlabeled"])
    def test_unlabeled_family_at_400_leaves(self, capsys, family, m, counts):
        argv = ["count", family, "--s", "400"] + ([] if m is None else ["--m", str(m)])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == str(counts(400)[-1])

    def test_deterministic(self, capsys):
        runs = {
            run(capsys, "count", "ultrametrics", "--s", "8", "--m", "8")[1]
            for _ in range(3)
        }
        assert runs == {"167347010944\n"}


class TestTable:
    @pytest.mark.parametrize(
        "name",
        [
            "symbolic",
            "fully-colored-labeled",
            "mobiles",
            "multipartite-unlabeled",
            "fully-colored-unlabeled",
            "riordan-triangle",
        ],
    )
    def test_check_paper_passes(self, capsys, name):
        code, _, err = run(capsys, "table", name, "--check-paper")
        assert code == 0
        assert "match the reference" in err

    @pytest.mark.parametrize("argv, table, key, value, line", [
        # the m = 2 row with its s = 3 cell 8 raised to 9
        (("symbolic", "--max-s", "4", "--max-m", "2"), reference.ULTRAMETRIC_TABLE, 2,
         [1, 2, 9, *reference.ULTRAMETRIC_TABLE[2][3:]],
         "MISMATCH at (2, 3): computed 8, reference 9"),
        (("riordan-triangle", "--max-n", "6"), reference.RIORDAN_TRIANGLE, (2, 4), 3,
         "MISMATCH at (2, 4): computed 2, reference 3"),
        # the column sum of n = 5 raised from 12 to 13
        (("riordan-triangle", "--max-n", "6"), reference.UNLABELED_SEQUENCE, 4, 13,
         "MISMATCH at ('sum', 5): computed 12, reference 13"),
        # past n = 10, where the reference ends, only the cells it holds are checked
        (("riordan-triangle", "--max-n", "12"), reference.RIORDAN_TRIANGLE, (9, 10), 99,
         "MISMATCH at (9, 10): computed 98, reference 99"),
        (("riordan-triangle", "--max-n", "12"), reference.UNLABELED_SEQUENCE, 9, 2313,
         "MISMATCH at ('sum', 10): computed 2312, reference 2313"),
    ], ids=["symbolic", "riordan-triangle", "riordan-sum", "riordan-triangle-12",
            "riordan-sum-12"])
    def test_check_paper_reports_a_changed_reference_cell(self, capsys, argv, table, key,
                                                          value, line):
        _, plain, _ = run(capsys, "table", *argv)
        kept, table[key] = table[key], value  # in place: monkeypatch.setitem takes no list
        try:
            code, out, err = run(capsys, "table", *argv, "--check-paper")
        finally:
            table[key] = kept
        assert (code, out) == (2, plain)
        assert err == f"{line}\nverification failed: 1 cell(s) differ\n"

    def test_symbolic_contains_known_cell(self, capsys):
        code, out, _ = run(capsys, "table", "symbolic", "--max-s", "4", "--max-m", "2")
        assert code == 0
        assert "52" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "mobiles", "--max-s", "3", "--max-m", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("m\\s,")
        assert lines[1] == "1,1,1,2"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "symbolic", "--max-s", "2", "--max-m", "2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data[1]["2"] == 2

    def test_bad_size_is_usage_error(self, capsys):
        assert (usage_error(capsys, "table", "riordan-triangle", "--max-n", "0")
                == "--max-n must be >= 2")

    @pytest.mark.parametrize("argv", [
        ("symbolic", "--max-m", "0"),
        ("symbolic", "--max-m", "0", "--check-paper"),
        ("mobiles", "--max-m", "-1"),
        ("riordan-triangle", "--max-n", "1"),
        ("riordan-triangle", "--max-n", "1", "--check-paper"),
        ("symbolic", "--max-s", "0"),
        ("mobiles", "--max-s", "-2", "--check-paper"),
    ])
    def test_empty_table_is_usage_error(self, capsys, argv):
        least = 2 if argv[1] == "--max-n" else 1
        assert usage_error(capsys, "table", *argv) == f"{argv[1]} must be >= {least}"

    @pytest.mark.parametrize("argv, option", [
        (("symbolic", "--max-n", "3"), "--max-n"),
        (("mobiles", "--max-s", "3", "--max-n", "10", "--check-paper"), "--max-n"),
        (("riordan-triangle", "--max-s", "1"), "--max-s"),
        (("riordan-triangle", "--max-n", "6", "--max-m", "8"), "--max-m"),
    ])
    def test_option_the_table_ignores_is_usage_error(self, capsys, argv, option):
        message = ("--max-n applies to riordan-triangle only" if option == "--max-n"
                   else "--max-s and --max-m apply to the family tables only")
        assert usage_error(capsys, "table", *argv) == message


class TestGf:
    def test_a_series(self, capsys):
        code, out, _ = run(capsys, "gf", "A", "--m", "2", "--order", "4")
        assert code == 0
        data = json.loads(out)
        assert data["coeffs"] == ["0/1", "1/1", "2/1", "8/1", "52/1"]

    def test_p_series_symbolic(self, capsys):
        code, out, _ = run(capsys, "gf", "P", "--m", "2", "--order", "3")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "P" and data["m"] == 2
        # s = 2 coefficient is x_{1,2} + x_{2,2}
        s2 = data["coeffs"][2]
        assert sorted(term["monomial"][0][:2] for term in s2) == [[1, 2], [2, 2]]

    @pytest.mark.parametrize("spec, counts", [
        ("ones", ultrametric_counts), ("factorial", mobile_counts),
    ], ids=["ones", "factorial"])
    def test_p_series_constant_weights(self, capsys, spec, counts):
        code, out, _ = run(capsys, "gf", "P", "--m", "3", "--order", "8", "--spec", spec)
        assert code == 0
        assert json.loads(out)["coeffs"] == [[]] + [
            [{"monomial": [], "coeff": v}] for v in counts(8, 3)
        ]

    def test_p_printed_output(self, capsys):
        # the record is laid out as json.dumps writes it, and the terms of
        # each coefficient are sorted by their [c, k, exp] triples
        code, out, _ = run(capsys, "gf", "P", "--m", "2", "--order", "4")
        assert code == 0
        assert digest(out) == pinned("gf P --m 2 --order 4")
        data = json.loads(out)
        assert out == json.dumps(data) + "\n"
        for coeff in data["coeffs"]:
            monomials = [term["monomial"] for term in coeff]
            assert monomials == sorted(monomials)

    # the corpus pins these sizes with the default spec, or with --spec
    # symbolic last; the spec given first writes the same bytes
    @pytest.mark.parametrize("key", [
        "gf P --m 1 --order 16", "gf P --m 2 --order 12", "gf P --m 2 --order 14 --spec symbolic",
        "gf P --m 3 --order 10", "gf P --m 3 --order 11 --spec symbolic",
        "gf P --m 4 --order 9 --spec symbolic", "gf P --m 5 --order 8",
    ], ids=lambda key: "-".join(key.split()[3:6:2]))
    def test_p_symbolic_bytes_are_pinned(self, capsys, key):
        m, order = key.split()[3:6:2]
        code, out, _ = run(capsys, "gf", "P", "--spec", "symbolic", "--m", m, "--order", order)
        assert code == 0
        assert digest(out) == pinned(key)

    def test_p_record_is_written_one_coefficient_at_a_time(self):
        # the record goes out in pieces as each coefficient's text is made,
        # never joined into one str, and a long coefficient goes out in
        # pieces too: every write is shorter than the longest coefficient
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        recorder = Recorder()
        with contextlib.redirect_stdout(recorder):
            code = main(list(GF_P))
        assert code == 0
        record = "".join(recorder.writes).encode()
        assert hashlib.sha256(record).hexdigest() == golden_stdout.load()[" ".join(GF_P)]["sha256"]
        assert len(recorder.writes) > 1
        longest = max(len(c.to_json()) for c in p_series(3, 10))
        assert max(map(len, recorder.writes)) < longest

    def test_p_record_drops_each_coefficient_once_written(self):
        # the writer empties the list as it goes, so the last coefficient,
        # the largest, is rendered beside no other
        series = list(p_series(3, 6))
        last = series[-1].to_json()
        pieces, left = [], []
        for piece in _p_record(3, 6, series):
            pieces.append(piece)
            left.append(len(series))
        assert json.loads("".join(pieces))["coeffs"] == [c.to_jsonable() for c in p_series(3, 6)]
        start = len(pieces) - pieces[::-1].index(", ")      # after the last separator
        assert "".join(pieces[start:-1]) == last
        assert set(left[start:]) == {0}

    @pytest.mark.parametrize("kind", ["A", "G", "Y"])
    @pytest.mark.parametrize("spec", ["ones", "factorial", "symbolic"])
    def test_spec_with_a_count_series_is_usage_error(self, capsys, kind, spec):
        assert (usage_error(capsys, "gf", kind, "--m", "2", "--order", "4", "--spec", spec)
                == "--spec applies to gf P only")

    @pytest.mark.parametrize(
        "argv, least",
        [
            pytest.param(("P", "--m", "0", "--spec", spec), 1, id=spec)
            for spec in ("symbolic", "ones", "factorial")
        ]
        + [
            pytest.param(("A", "--m", "0"), 1, id="A"),
            pytest.param(("G", "--m", "0"), 1, id="G"),
            pytest.param(("Y", "--m", "-1"), 0, id="Y"),
        ],
    )
    def test_p_bad_m_is_usage_error(self, capsys, argv, least):
        # every gf kind words a bad m as the count families do
        assert usage_error(capsys, "gf", *argv, "--order", "3") == f"m must be >= {least}"

    def test_y_series(self, capsys):
        code, out, _ = run(capsys, "gf", "Y", "--m", "2", "--order", "4")
        assert code == 0
        assert json.loads(out)["coeffs"][-1] == "243/1"

    def test_order_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SERIESFORGE_MAX_ORDER", "5")
        assert (usage_error(capsys, "gf", "A", "--m", "2", "--order", "6")
                == "order 6 exceeds the cap 5")

    def test_default_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("SERIESFORGE_MAX_ORDER", raising=False)
        code, _, _ = run(capsys, "gf", "G", "--m", "3", "--order", "16")
        assert code == 0
        assert (usage_error(capsys, "gf", "G", "--m", "3", "--order", "17")
                == "order 17 exceeds the cap 16")

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("SERIESFORGE_MAX_ORDER", "lots")
        assert (usage_error(capsys, "gf", "A", "--m", "2", "--order", "4")
                == "SERIESFORGE_MAX_ORDER is not an integer: 'lots'")


# int() also reads an underscore, a plus sign and non-ASCII digits; every
# integer the CLI reads, an option or SERIESFORGE_MAX_ORDER, must be an
# optional minus sign and ASCII digits
@pytest.mark.parametrize("cap, argv, message", [
    (None, ("count", "unlabeled", "--s", "1_0"), "argument --s: invalid int value: '1_0'"),
    (None, ("count", "unlabeled", "--s", "+5"), "argument --s: invalid int value: '+5'"),
    (None, ("count", "unlabeled", "--s", "\uff11\uff10"),
     "argument --s: invalid int value: '\uff11\uff10'"),
    (None, ("count", "ultrametrics", "--s", "4", "--m", "\u0662"),
     "argument --m: invalid int value: '\u0662'"),
    (None, ("gf", "A", "--m", "2", "--order", "1_6"),
     "argument --order: invalid int value: '1_6'"),
    (None, ("table", "riordan-triangle", "--max-n", "0_5"),
     "argument --max-n: invalid int value: '0_5'"),
    (None, ("table", "symbolic", "--max-s", "3", "--max-m", "+2"),
     "argument --max-m: invalid int value: '+2'"),
    ("1_7", ("gf", "A", "--m", "2", "--order", "3"),
     "SERIESFORGE_MAX_ORDER is not an integer: '1_7'"),
], ids=["s-underscore", "s-plus", "s-fullwidth", "m-arabic-indic", "order-underscore",
        "max-n-underscore", "max-m-plus", "max-order-underscore"])
def test_integers_int_reads_but_the_cli_refuses(capsys, monkeypatch, cap, argv, message):
    if cap is not None:
        monkeypatch.setenv("SERIESFORGE_MAX_ORDER", cap)
    assert usage_error(capsys, *argv) == message


def test_json_writes_an_m_from_2_to_the_53_as_a_string(capsys):
    # a reader that parses numbers as doubles would read 2^53 + 1 as 2^53
    m = str(2 ** 53 + 1)
    count = run(capsys, "count", "ultrametrics", "--s", "3", "--m", m, "--format", "json")
    record = run(capsys, "gf", "P", "--spec", "ones", "--m", m, "--order", "2")
    assert (count[0], record[0]) == (0, 0)
    assert json.loads(count[1])["m"] == json.loads(record[1])["m"] == m


# runs whose every step divides exactly in the level table, over Z[t] for
# the triangle and at the int point m - 1 for the multipartite count
@pytest.mark.parametrize("argv", [
    ("table", "riordan-triangle", "--max-n", "40"),
    ("table", "riordan-triangle", "--max-n", "40", "--format", "json"),
    ("count", "multipartite-unlabeled", "--s", "300", "--m", "8"),
], ids=" ".join)
def test_unlabeled_stdout_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert digest(out) == pinned(" ".join(argv))


class TestVerify:
    def test_bundled_bfile_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "unlabeled", "--bfile", BFILE)
        assert (code, out) == (0, "OK (10 entries)\n")

    def test_with_m(self, capsys, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_text("1 1\n2 3\n3 21\n4 243\n")
        code, out, _ = run(
            capsys, "verify", "ultrametrics", "--m", "3", "--bfile", str(bf)
        )
        assert code == 0
        assert "4 entries" in out

    def test_mismatch_exits_2(self, capsys, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_text("1 1\n2 1\n3 2\n4 999\n")
        code, out, err = run(capsys, "verify", "unlabeled", "--bfile", str(bf))
        assert code == 2
        assert "mismatch at index 4" in out
        assert "verification failed" in err

    # each entry is an optional minus sign and ASCII digits; int() alone
    # would read 1_2 and the fullwidth digits as 12, the fifth count
    @pytest.mark.parametrize("text, message", [
        ("1 1\nnot a line\n", "2: malformed line 'not a line'"),
        ("1 one\n", "1: non-integer entry '1 one'"),
        ("1 1\n2 1\n3 2\n4 5\n5 1_2\n", "5: non-integer entry '5 1_2'"),
        ("1 1\n2 1\n3 2\n4 5\n5 \uff11\uff12\n", "5: non-integer entry '5 \uff11\uff12'"),
        ("2 1\n1 1\n", "2: indices not strictly increasing"),
        # a bad line is quoted up to its first 60 characters
        ("1 1\n" + "2 " * 50 + "\n", "2: malformed line '" + "2 " * 30 + "'"),
    ], ids=["malformed", "non-integer", "underscore", "fullwidth", "non-increasing", "long"])
    def test_corrupted_bfile_usage_error(self, capsys, tmp_path, text, message):
        bf = tmp_path / "b.txt"
        bf.write_text(text, encoding="utf-8")
        assert usage_error(capsys, "verify", "unlabeled", "--bfile", str(bf)) == f"{bf}:{message}"

    def test_bfile_line_past_the_bound_usage_error(self, capsys, tmp_path):
        # read up to the bound, not to an end of line that may never come
        bf = tmp_path / "b.txt"
        bf.write_text("1" * (10 ** 6 + 1))
        assert (usage_error(capsys, "verify", "unlabeled", "--bfile", str(bf))
                == f"{bf}:1: line longer than 1000000 characters")

    def test_bfile_that_is_not_utf8_usage_error(self, capsys, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_bytes(b"\xff\xfe1 1\n")
        assert (usage_error(capsys, "verify", "unlabeled", "--bfile", str(bf))
                == f"cannot read {bf}: 'utf-8' codec can't decode byte 0xff"
                   " in position 0: invalid start byte")

    def test_bfile_with_a_byte_order_mark(self, capsys, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_text("\ufeff1 1\n2 1\n3 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "verify", "unlabeled", "--bfile", str(bf))
        assert (code, out) == (0, "OK (3 entries)\n")
        # only a leading mark is dropped: one on a later line stays in the
        # entry, which the message writes as repr writes it
        bf.write_text("1 1\n\ufeff2 1\n3 2\n", encoding="utf-8")
        assert (usage_error(capsys, "verify", "unlabeled", "--bfile", str(bf))
                == f"{bf}:2: non-integer entry '\\ufeff2 1'")

    @pytest.mark.parametrize("text", ["", "# comments only\n", "0 1\n", "# c\n-1 5\n0 1\n"])
    def test_bfile_without_entries_usage_error(self, capsys, tmp_path, text):
        bf = tmp_path / "b.txt"
        bf.write_text(text)
        assert (usage_error(capsys, "verify", "unlabeled", "--bfile", str(bf))
                == f"{bf}: no entry at index >= 1")

    def test_bad_m_is_usage_error(self, capsys):
        assert (usage_error(capsys, "verify", "ultrametrics", "--m", "0", "--bfile", BFILE)
                == "m must be >= 1")

    def test_unexpected_m_is_usage_error(self, capsys):
        assert (usage_error(capsys, "verify", "processes", "--m", "3", "--bfile", BFILE)
                == "family 'processes' does not take --m")

    # x = (0, 1!, 2!, ...) for the ultrametrics, (0, 1, 1, ...) for the mobiles
    @pytest.mark.parametrize("family, m, x, length, changed", [
        ("ultrametrics", 8, [0] + [math.factorial(i) for i in range(1, 40)], 40, 30),
        ("mobiles", 5, [0] + [1] * 29, 30, 20),
    ], ids=["ultrametrics", "mobiles"])
    def test_long_bfile_from_the_alternating_sum(
        self, capsys, tmp_path, family, m, x, length, changed
    ):
        values = [p.eval_at(m) for p in alternating_bell_polys(length, x)]
        check_long_bfile(capsys, tmp_path, family, m, values, changed)

    @pytest.mark.parametrize("family, m, changed", [
        ("unlabeled", None, 45),
        ("multipartite-unlabeled", 5, 37),
    ], ids=["unlabeled", "multipartite-unlabeled"])
    def test_long_bfile_from_the_refinement_polynomials(
        self, capsys, tmp_path, family, m, changed
    ):
        polys = refined_polys_substituted(60)
        if m is None:
            values = [p.eval_at(1) for p in polys]
        else:
            values = [1] + [m * p.shift_down().eval_at(m - 1) for p in polys[1:]]
        check_long_bfile(capsys, tmp_path, family, m, values, changed)

    def test_one_line_bfile_at_400_leaves(self, capsys, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_text(f"400 {unlabeled_counts(400)[-1]}\n")
        code, out, _ = run(capsys, "verify", "unlabeled", "--bfile", str(bf))
        assert (code, out.strip()) == (0, "OK (1 entries)")

    def test_value_over_the_digit_limit(self, capsys, tmp_path):
        m = 10 ** 20
        value = decimal(fully_colored_labeled_counts(200, m)[-1])
        assert len(value) > 4300
        bf = tmp_path / "b.txt"
        bf.write_text(f"200 {value}\n")
        code, out, _ = run(
            capsys, "verify", "fully-colored-labeled", "--m", str(m), "--bfile", str(bf)
        )
        assert (code, out.strip()) == (0, "OK (1 entries)")


    def test_missing_bfile(self, capsys):
        assert (usage_error(capsys, "verify", "unlabeled", "--bfile", "/no/such/file")
                == f"cannot read /no/such/file: {os.strerror(errno.ENOENT)}")

    def test_directory_bfile(self, capsys, tmp_path):
        assert (usage_error(capsys, "verify", "unlabeled", "--bfile", str(tmp_path))
                == f"cannot read {tmp_path}: {os.strerror(errno.EISDIR)}")


def cli_process(argv, **kwargs):
    """The CLI as its own process, `python -m seriesforge.cli argv`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "seriesforge.cli", *argv],
                          env=env, stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


# gf P --m 3 writes its record in pieces, one coefficient's text at a time;
# at order 10 (180 kB) the first of them reaches the stream long before the
# record ends, so a write fails partway through it
GF_P = ("gf", "P", "--m", "3", "--order", "10")


class TestOutputPath:
    """-o to a path that cannot be written, or a stdout that cannot be
    written, is a usage error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("count", "unlabeled", "--s", "5"),
        ("table", "mobiles", "--max-s", "3", "--max-m", "2"),
        ("gf", "A", "--m", "2", "--order", "3"),
        GF_P,
    ], ids=["count", "table", "gf", "gf-P"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output(self, capsys, tmp_path, argv, where):
        if where == "missing-directory":
            target, errnum = tmp_path / "no" / "such" / "x", errno.ENOENT
        else:
            target, errnum = tmp_path, errno.EISDIR
        assert (usage_error(capsys, *argv, "-o", str(target))
                == f"cannot write {target}: {os.strerror(errnum)}")

    @staticmethod
    def assert_stdout_error(proc, errnum):
        # one error line, and no "Exception ignored" from the flush at exit
        assert (proc.returncode, proc.stderr) == (
            1, f"error: cannot write stdout: {os.strerror(errnum)}\n")

    @staticmethod
    def to_closed_pipe(argv):
        read, write = os.pipe()
        os.close(read)
        try:
            return cli_process(argv, stdout=write)
        finally:
            os.close(write)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout(self):
        with open("/dev/full", "w") as full:
            proc = cli_process(["count", "unlabeled", "--s", "5"], stdout=full)
        self.assert_stdout_error(proc, errno.ENOSPC)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_during_gf_p(self):
        with open("/dev/full", "w") as full:
            proc = cli_process(GF_P, stdout=full)
        self.assert_stdout_error(proc, errno.ENOSPC)

    def test_closed_pipe(self):
        proc = self.to_closed_pipe(["table", "riordan-triangle", "--max-n", "40"])
        self.assert_stdout_error(proc, errno.EPIPE)

    def test_closed_pipe_during_gf_p(self):
        self.assert_stdout_error(self.to_closed_pipe(GF_P), errno.EPIPE)
