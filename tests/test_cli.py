import json
import os

import pytest

from seriesforge.bell import derangement_count
from seriesforge.cli import main, parse_bfile
from seriesforge.oracle import alternating_bell_poly

DATA = os.path.join(os.path.dirname(__file__), "data")
BFILE = os.path.join(DATA, "b000669_prefix.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_huge_value_as_string_in_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "ultrametrics", "--s", "20", "--m", "20",
            "--format", "json",
        )
        assert code == 0
        assert isinstance(json.loads(out)["value"], str)

    def test_missing_m_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "ultrametrics", "--s", "4")
        assert code == 1
        assert "requires --m" in err

    def test_unexpected_m_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "count", "unlabeled", "--s", "4", "--m", "2")
        assert code == 1

    def test_bad_family(self, capsys):
        code, _, _ = run(capsys, "count", "nonsense", "--s", "4")
        assert code == 1

    def test_bad_s(self, capsys):
        code, _, _ = run(capsys, "count", "unlabeled", "--s", "0")
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "count", "unlabeled", "--s", "10", "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "2312"

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
        code, _, err = run(capsys, "table", "riordan-triangle", "--max-n", "0")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("symbolic", "--max-m", "0"),
        ("symbolic", "--max-m", "0", "--check-paper"),
        ("mobiles", "--max-m", "-1"),
        ("riordan-triangle", "--max-n", "1"),
        ("riordan-triangle", "--max-n", "1", "--check-paper"),
    ])
    def test_empty_table_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "table", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "must be >=" in err


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

    def test_p_bad_m_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gf", "P", "--m", "0", "--order", "3")
        assert (code, out) == (1, "")
        assert err.strip() == "error: m must be >= 1, got 0"

    def test_y_series(self, capsys):
        code, out, _ = run(capsys, "gf", "Y", "--m", "2", "--order", "4")
        assert code == 0
        assert json.loads(out)["coeffs"][-1] == "243/1"

    def test_order_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SERIESFORGE_MAX_ORDER", "5")
        code, _, err = run(capsys, "gf", "A", "--m", "2", "--order", "6")
        assert code == 1
        assert "exceeds the cap" in err

    def test_default_cap(self, capsys):
        code, _, _ = run(capsys, "gf", "G", "--m", "3", "--order", "16")
        assert code == 0
        code, _, _ = run(capsys, "gf", "G", "--m", "3", "--order", "17")
        assert code == 1

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("SERIESFORGE_MAX_ORDER", "lots")
        code, _, _ = run(capsys, "gf", "A", "--m", "2", "--order", "4")
        assert code == 1


class TestVerify:
    def test_bundled_bfile_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "unlabeled", "--bfile", BFILE)
        assert code == 0
        assert out.strip().startswith("OK")

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

    def test_corrupted_bfile_usage_error(self, capsys, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_text("1 1\nnot a line\n")
        code, _, err = run(capsys, "verify", "unlabeled", "--bfile", str(bf))
        assert code == 1
        assert "malformed" in err

    @pytest.mark.parametrize("text", ["", "# comments only\n", "0 1\n", "# c\n-1 5\n0 1\n"])
    def test_bfile_without_entries_usage_error(self, capsys, tmp_path, text):
        bf = tmp_path / "b.txt"
        bf.write_text(text)
        code, out, err = run(capsys, "verify", "unlabeled", "--bfile", str(bf))
        assert (code, out) == (1, "")
        assert "no entry at index >= 1" in err

    def test_bad_m_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "ultrametrics", "--m", "0", "--bfile", BFILE)
        assert code == 1
        assert err.startswith("error:")

    def test_unexpected_m_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "processes", "--m", "3", "--bfile", BFILE)
        assert code == 1
        assert "does not take --m" in err

    def test_long_bfile_from_the_alternating_sum(self, capsys, tmp_path):
        values = [alternating_bell_poly(s, derangement_count).eval_at(8) for s in range(1, 41)]
        bf = tmp_path / "b.txt"
        bf.write_text("".join(f"{s} {v}\n" for s, v in enumerate(values, start=1)))
        code, out, _ = run(capsys, "verify", "ultrametrics", "--m", "8", "--bfile", str(bf))
        assert (code, out.strip()) == (0, "OK (40 entries)")
        values[29] += 1
        bf.write_text("".join(f"{s} {v}\n" for s, v in enumerate(values, start=1)))
        code, out, _ = run(capsys, "verify", "ultrametrics", "--m", "8", "--bfile", str(bf))
        assert code == 2
        assert "mismatch at index 30" in out

    def test_missing_bfile(self, capsys):
        code, _, _ = run(capsys, "verify", "unlabeled", "--bfile", "/no/such/file")
        assert code == 1


class TestParseBfile:
    def test_parses_comments_and_entries(self):
        entries = parse_bfile(BFILE)
        assert entries[0] == (1, 1)
        assert entries[-1] == (10, 2312)

    def test_rejects_non_increasing(self, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_text("2 1\n1 1\n")
        with pytest.raises(ValueError):
            parse_bfile(str(bf))

    def test_rejects_non_integer(self, tmp_path):
        bf = tmp_path / "b.txt"
        bf.write_text("1 one\n")
        with pytest.raises(ValueError):
            parse_bfile(str(bf))
