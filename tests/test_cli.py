"""End-to-end tests for the command-line interface.

Every invocation goes through ``main(argv)`` so the tests cover argument
parsing, the exit-code contract (0 success, 1 falsified check, 2 usage or
input error), and the emitted files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equicut
from equicut import cli
from equicut.cli import main
from equicut.exact import MAX_WORK_BITS, RefinementLimitError
from equicut.dissect import dissection_from_json, verify_dissection


TWELVE_ROOTS = "sqrt(2 + " * 12 + "1" + ")" * 12

# Two triangles whose drawings exceed the float range.  BEYOND_FLOAT is the
# right triangle with legs 1 and (t*t - 1)/(2*t), t = 10**400, whose sides
# and apex lie beyond it.  WIDE_VIEW has its apex near (1.73e308, 1.77e308),
# inside it, but its padded view box is wider and taller than the largest
# float, so the box's aspect ratio is NaN.
_T = 10**400
BEYOND_FLOAT = f"{_T * _T - 1}/{2 * _T},{_T * _T + 1}/{2 * _T}"
WIDE_VIEW = f"{175 * 10**306}*sqrt(2) - 7/10,{175 * 10**306}*sqrt(2)"


def one_error_line(err, head):
    return err.startswith(f"error: {head}") and err.count("\n") == 1 and "Traceback" not in err


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_equilateral_angle_candidate(self, capsys):
        code, out, _ = run(capsys, "analyze", "--region", "1,1", "--height", "2")
        assert code == 0
        assert "Sigma1 (angles): FoundCandidate" in out
        assert "candidate (1, -1, 0)" in out
        assert "Sigma2 (sides): FoundCertified" in out

    def test_rational_scalene_sides_certified(self, capsys):
        code, out, _ = run(capsys, "analyze", "--region", "7/8,3/4")
        assert code == 0
        assert "Sigma2 (sides): FoundCertified" in out
        assert "membership a = 7/8" in out
        assert "membership b = 3/4" in out

    def test_reference_scalene_angle_relation_shown(self, capsys):
        # 3*alpha + 4*beta = 2*pi exactly for this triangle
        code, out, _ = run(
            capsys, "analyze", "--region", "7/8,3/4", "--height", "12"
        )
        assert code == 0
        assert "Sigma1 (angles): FoundCandidate" in out
        assert "candidate (3, 4, -2)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--region", "1,1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["region"] == ["1", "1", "1"]
        assert data["sigma1"]["status"] == "found_candidate"
        assert data["sigma2"]["status"] == "found_certified"

    def test_basis_and_precision_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze",
            "--region",
            "1/2*sqrt(3),1/2",
            "--height",
            "2",
            "--basis",
            "1,3",
            "--precision",
            "128",
        )
        assert code == 0
        assert "Sigma2 (sides): FoundCertified" in out

    def test_bad_literal_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--region", "1,bogus(")
        assert code == 2
        assert "bad number literal" in err

    def test_degenerate_region_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--region", "1/2,1/2")
        assert code == 2

    def test_negative_radicand_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--region", "sqrt(-1),1")
        assert code == 2
        assert err.startswith("error: bad number literal")

    def test_height_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--region", "7/8,3/4", "--height", "0")
        assert code == 2
        assert err == "error: --height must be at least 1\n"

    def test_basis_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--region", "7/8,3/4", "--basis", "0")
        assert code == 2
        assert err == "error: --basis entries must be at least 1\n"

    def test_unfactorable_basis_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--region", "7/8,3/4", "--basis", "1000000000000000000007"
        )
        assert code == 2
        assert err.startswith("error: cannot certify squarefree part")

    def test_value_beyond_the_float_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--region", BEYOND_FLOAT)
        assert code == 2
        assert out == "" and err == "error: a value is beyond the float range\n"

    def test_search_space_too_large_is_usage_error(self, capsys):
        # three angle columns at height 1100: a 2201**2-entry half-table
        code, _, err = run(capsys, "analyze", "--region", "1,1", "--height", "1100")
        assert code == 2
        assert err == "error: combination space too large for exhaustive search\n"

    @pytest.mark.parametrize("bits", ["0", "-3", str(MAX_WORK_BITS + 1), "1000000"])
    def test_precision_out_of_range_is_usage_error(self, capsys, bits):
        code, out, err = run(
            capsys, "analyze", "--region", "3/4,1/2", "--precision", bits
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --precision must be between 1 and {MAX_WORK_BITS}\n"

    @pytest.mark.parametrize("bits", [MAX_WORK_BITS - 1, MAX_WORK_BITS])
    @pytest.mark.parametrize("source", ["flag"])
    def test_precision_at_the_limit_fails_on_angles(self, capsys, source, bits):
        """Accepted, but an angle refines its cosine 2 bits past the target,
        beyond MAX_WORK_BITS, so the analysis exits 2 with the refinement error."""
        code, out, err = run(capsys, "analyze", "--region", "3/4,1/2", "--precision", str(bits))
        assert code == 2
        assert out == ""
        assert err == f"error: a width of 2**-{bits + 2} needs over {MAX_WORK_BITS} bits\n"

    @pytest.mark.parametrize("value", ["abc", "128"])
    def test_precision_variable_is_ignored(self, capsys, monkeypatch, value):
        """EQUICUT_PRECISION_BITS, once an override of the starting precision,
        changes nothing: ``--precision`` is the only source."""
        commands = [
            ["analyze", "--region", "3/4,1/2", "--stats"],
            ["sample", "--count", "3", "--mode", "angles"],
        ]
        monkeypatch.delenv("EQUICUT_PRECISION_BITS", raising=False)
        unset = [run(capsys, *argv) for argv in commands]
        monkeypatch.setenv("EQUICUT_PRECISION_BITS", value)
        assert [run(capsys, *argv) for argv in commands] == unset
        assert [code for code, _, _ in unset] == [0, 0]

    def test_value_of_a_nested_tower_is_a_member(self, capsys):
        code, out, _ = run(capsys, "analyze", "--region", "1/4*sqrt(5 + 2*sqrt(6)),3/4")
        assert code == 0
        assert "  membership a = 1/4*sqrt(2) + 1/4*sqrt(3)\n" in out
        assert "  membership b = 3/4\n" in out
        code, out, _ = run(
            capsys, "analyze", "--region", "1/4*sqrt(5 + 2*sqrt(6)),3/4", "--json"
        )
        sigma2 = json.loads(out)["sigma2"]
        assert sigma2["memberships"] == {"a": "1/4*sqrt(2) + 1/4*sqrt(3)", "b": "3/4"}
        assert len(sigma2["witnesses"]) == 12

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_stats_lines(self, capsys, fmt):
        argv = ["analyze", "--region", "1,1", "--height", "2", *fmt]
        _, plain, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--stats")
        assert code == 0
        assert out.startswith(plain)
        lines = out[len(plain):].splitlines()
        assert [json.loads(line)["relation"] for line in lines] == ["sigma1", "sigma2"]
        angles, sides = map(json.loads, lines)
        assert set(angles) == {
            "relation", "left_table", "right_table", "matched_pairs",
            "swept_survivors", "masked_survivors", "pending",
        }
        assert (angles["left_table"], angles["right_table"]) == (5, 25)
        # the equilateral's angle relations stay pending up to the last rung
        assert list(angles["pending"]) == ["256", "512", "1024", "2048", "4096"]
        assert sides["pending"] == {}  # exact sides: no precision ladder

    def test_stats_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--region", "1,1", "--height", "0", "--stats")
        assert code == 2
        assert out == ""
        assert err == "error: --height must be at least 1\n"


class TestStandard:
    def test_writes_json_and_svg(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys,
            "standard",
            "--region",
            "7/8,3/4",
            "-n",
            "3",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert "9 pieces" in out
        data = (out_dir / "standard_n3.json").read_text()
        dissection = dissection_from_json(data)
        assert dissection.piece_count == 9
        assert verify_dissection(dissection).ok
        svg = (out_dir / "standard_n3.svg").read_text()
        assert svg.count("<polygon") == 9

    def test_rational_radicands_after_a_nested_one_print_flat(self, tmp_path, capsys):
        """The apex lies in Q(sqrt(3), sqrt(5)) though the literal's tower
        also holds sqrt(1 + sqrt(5)), between sqrt(5) and sqrt(3)."""
        region = "1/4*sqrt(5) + 0*sqrt(1 + sqrt(5)) + 1/4*sqrt(3),1"
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "standard", "--region", region, "-n", "1", "--out", str(out_dir))
        assert code == 0
        data = json.loads((out_dir / "standard_n1.json").read_text())
        assert data["region"][2] == ["3/4 - 1/16*sqrt(15)", "sqrt(97/256 + 3/32*sqrt(15))"]
        assert verify_dissection(dissection_from_json(json.dumps(data))).ok

    def test_no_out_just_prints(self, capsys):
        code, out, _ = run(capsys, "standard", "--region", "1,1", "-n", "1")
        assert code == 0
        assert "1 pieces" in out

    @pytest.mark.parametrize("region", [BEYOND_FLOAT, WIDE_VIEW], ids=["apex", "view"])
    def test_out_beyond_the_float_range_writes_nothing(self, tmp_path, capsys, region):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "standard", "--region", region, "-n", "1", "--out", str(out_dir))
        assert code == 2
        assert one_error_line(err, "cannot draw SVG: the drawing exceeds the float range")
        assert not out_dir.exists()
        assert run(capsys, "standard", "--region", region, "-n", "1")[0] == 0

    def test_out_under_a_regular_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "out"
        code, _, err = run(capsys, "standard", "--region", "1,1", "-n", "1", "--out", str(out_dir))
        assert code == 2
        assert one_error_line(err, "cannot write output:")

    def test_n_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "standard", "--region", "1,1", "-n", "0")
        assert code == 2

    @pytest.mark.parametrize("opening", ["(", "sqrt("])
    def test_deeply_nested_literal_is_usage_error(self, capsys, opening):
        literal = opening * 3000 + "1" + ")" * 3000
        code, out, err = run(capsys, "standard", "-n", "1", "--region", f"{literal},1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad number literal") and err.count("\n") == 1
        assert "nesting deeper than 100" in err

    def test_literal_with_too_many_roots_is_usage_error(self, capsys):
        code, out, err = run(capsys, "standard", "-n", "1", "--region", f"{TWELVE_ROOTS},1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad number literal") and err.count("\n") == 1
        assert "more than 8 square roots" in err


class TestVerify:
    def make_file(self, tmp_path, capsys) -> str:
        out_dir = tmp_path / "gen"
        run(
            capsys,
            "standard",
            "--region",
            "1,1",
            "-n",
            "2",
            "--out",
            str(out_dir),
        )
        return str(out_dir / "standard_n2.json")

    def test_valid_file_exit_zero(self, tmp_path, capsys):
        path = self.make_file(tmp_path, capsys)
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        assert "valid: 4 pieces (standard)" in out

    def test_corrupted_file_exit_one(self, tmp_path, capsys):
        path = self.make_file(tmp_path, capsys)
        data = json.loads(open(path).read())
        del data["pieces"][0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "invalid" in out
        assert "area_mismatch" in out

    def test_stats_line_follows_a_valid_report(self, tmp_path, capsys):
        path = self.make_file(tmp_path, capsys)
        _, plain, _ = run(capsys, "verify", path)
        code, out, _ = run(capsys, "verify", path, "--stats")
        assert code == 0
        assert plain == "valid: 4 pieces (standard)\n"
        report, line = out.splitlines()[:-1], out.splitlines()[-1]
        assert report == plain.splitlines()
        assert json.loads(line) == {
            "pairs_tested": 5, "pairs_pruned": 1, "edges_measured": 9, "area": "piece0",
        }

    def test_stats_line_follows_an_invalid_report(self, tmp_path, capsys):
        data = json.loads(open(self.make_file(tmp_path, capsys)).read())
        data["pieces"][0] = data["region"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        _, plain, _ = run(capsys, "verify", str(bad))
        code, out, _ = run(capsys, "verify", str(bad), "--stats")
        assert code == 1
        assert out.startswith(plain) and out.count("\n") == plain.count("\n") + 1
        stats = json.loads(out.splitlines()[-1])
        assert stats["area"] == "summed" and stats["pairs_tested"] == 6

    def test_stats_not_printed_for_a_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "verify", str(bad), "--stats")
        assert code == 2 and out == ""
        assert err.startswith("error: bad dissection file:")

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file.json")
        assert code == 2

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(pieces=[]),
            lambda o: o.update(region=[["0", "0"], ["1", "0"], ["2", "0"]]),
            lambda o: o["region"].__setitem__(0, [0, 0]),
        ],
        ids=["no-pieces", "degenerate-region", "json-number-coordinate"],
    )
    def test_bad_dissection_exit_two(self, tmp_path, capsys, mutate):
        data = json.loads(open(self.make_file(tmp_path, capsys)).read())
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad dissection file:") and err.count("\n") == 1

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"format": "caf\xe9"}')
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_deeply_nested_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: bad dissection file: dissection JSON is nested too deeply\n"

    def test_literal_with_too_many_roots_exit_two(self, tmp_path, capsys):
        data = json.loads(open(self.make_file(tmp_path, capsys)).read())
        data["region"][0][0] = TWELVE_ROOTS
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad dissection file:") and err.count("\n") == 1
        assert "more than 8 square roots" in err

    def test_boolean_version_exit_two(self, tmp_path, capsys):
        data = json.loads(open(self.make_file(tmp_path, capsys)).read())
        data["version"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: bad dissection file: unsupported format version: True\n"


class TestSearch:
    def test_right_isoceles_m4(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "sqrt(1/2),sqrt(1/2)",
            "--pieces",
            "4",
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert "2 dissection(s), complete" in out
        assert "total: 2 dissection(s)" in out
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "result_0_0.json",
            "result_0_0.svg",
            "result_0_1.json",
            "result_0_1.svg",
        ]
        for name in files:
            if name.endswith(".json"):
                d = dissection_from_json((out_dir / name).read_text())
                assert verify_dissection(d).ok

    def test_no_reflections_kills_the_rep3(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "sqrt(3/4),1/2",
            "--pieces",
            "3",
            "--no-reflections",
        )
        assert code == 0
        assert "0 dissection(s)" in out

    def test_extra_tile_reported_separately(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "1,1",
            "--pieces",
            "3",
            "--tile",
            "sqrt(1/3),sqrt(1/3),1",
        )
        assert code == 0
        assert "tile[0] (similar)" in out
        assert "tile[1] (supplied)" in out
        assert "total: 1 dissection(s)" in out

    def test_quotient_symmetry_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "sqrt(1/2),sqrt(1/2)",
            "--pieces",
            "2",
            "--quotient-symmetry",
        )
        assert code == 0
        assert "total: 1 dissection(s)" in out

    def test_max_nodes_reports_truncated(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "sqrt(1/2),sqrt(1/2)",
            "--pieces",
            "4",
            "--max-nodes",
            "3",
        )
        assert code == 0
        assert "truncated by --max-nodes" in out

    def test_max_results_reports_truncated(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "sqrt(1/2),sqrt(1/2)",
            "--pieces",
            "4",
            "--max-results",
            "1",
        )
        assert code == 0
        assert "1 dissection(s), truncated by --max-results" in out
        assert "total: 1 dissection(s)" in out

    def test_time_budget_reports_truncated(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "sqrt(1/2),sqrt(1/2)",
            "--pieces",
            "4",
            "--time-budget",
            "1e-9",
        )
        assert code == 0
        assert "truncated by --time-budget" in out

    def test_generous_budgets_leave_the_search_complete(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--region",
            "sqrt(1/2),sqrt(1/2)",
            "--pieces",
            "4",
            "--time-budget",
            "600",
            "--max-results",
            "3",
        )
        assert code == 0
        assert "2 dissection(s), complete, 7 nodes" in out

    def test_stats_prints_one_json_line_per_tile(self, capsys):
        args = ["search", "--region", "1,1", "--pieces", "3",
                "--tile", "sqrt(1/3),sqrt(1/3),1"]
        _, plain, _ = run(capsys, *args)
        code, out, _ = run(capsys, *args, "--stats")
        assert code == 0
        stats = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert stats == [
            {"tile": 0, "expanded": 0, "cuts": {"remainder": 0, "lengths": 1},
             "truncated_by": None},
            {"tile": 1, "expanded": 4, "cuts": {"remainder": 0, "lengths": 0},
             "truncated_by": None},
        ]
        assert [line for line in out.splitlines() if not line.startswith("{")] == (
            plain.splitlines()
        )

    def test_unfactorable_piece_count_is_usage_error(self):
        """The similar tile adjoins sqrt(1/m), and trial division cannot
        certify the squarefree part of this prime m: one error line."""
        src = str(Path(equicut.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "equicut", "search", "--region", "1,1",
             "--pieces", "1000000000039"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot certify squarefree part of 1000000000039")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_duplicate_tile_counted_once(self, capsys):
        code, out, _ = run(
            capsys, "search", "--region", "1,1", "--pieces", "4", "--tile", "1/2,1/2,1/2"
        )
        assert code == 0
        assert out.count("  result ") == 1
        assert "note: same tile as tile[0]; its results are counted once" in out
        assert "total: 1 dissection(s)" in out

    def test_out_beyond_the_float_range_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        argv = ["search", "--region", BEYOND_FLOAT, "--pieces", "4"]
        code, _, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 2
        assert one_error_line(err, "cannot draw SVG: the drawing exceeds the float range")
        assert list(out_dir.iterdir()) == []
        assert run(capsys, *argv)[0] == 0

    def test_out_under_a_regular_file_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "results"
        code, _, err = run(
            capsys, "search", "--region", "1,1", "--pieces", "4", "--out", str(out_dir)
        )
        assert code == 2
        assert one_error_line(err, f"cannot create {out_dir}:")

    def test_result_name_taken_by_a_directory_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "result_0_0.json").mkdir()
        code, _, err = run(
            capsys, "search", "--region", "1,1", "--pieces", "4", "--out", str(tmp_path)
        )
        assert code == 2
        assert one_error_line(err, "cannot write output:")

    def test_zero_pieces_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "--region", "1,1", "--pieces", "0")
        assert code == 2

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_max_nodes_usage_error(self, capsys, budget):
        code, out, err = run(
            capsys, "search", "--region", "1,1", "--pieces", "4", "--max-nodes", budget
        )
        assert code == 2
        assert out == ""
        assert err == "error: --max-nodes must be at least 1\n"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_max_results_usage_error(self, capsys, budget):
        code, out, err = run(
            capsys, "search", "--region", "1,1", "--pieces", "4", "--max-results", budget
        )
        assert code == 2
        assert out == ""
        assert err == "error: --max-results must be at least 1\n"

    @pytest.mark.parametrize("budget", ["0", "-0.5", "nan"])
    def test_nonpositive_time_budget_usage_error(self, capsys, budget):
        code, out, err = run(
            capsys, "search", "--region", "1,1", "--pieces", "4", "--time-budget", budget
        )
        assert code == 2
        assert out == ""
        assert err == "error: --time-budget must be positive\n"

    def test_bad_tile_usage_error(self, capsys):
        code, _, err = run(
            capsys, "search", "--region", "1,1", "--pieces", "4", "--tile", "1,2"
        )
        assert code == 2

    @pytest.mark.parametrize("tile", ["0,1,1", "1,-1,1", "1,1,1 - sqrt(2)"])
    def test_nonpositive_tile_side_usage_error(self, capsys, tile):
        code, _, err = run(
            capsys, "search", "--region", "1,1", "--pieces", "2", "--tile", tile
        )
        assert code == 2
        assert err.startswith("error: --tile sides must be positive")


class TestBoundary:
    def test_standard_region(self, tmp_path, capsys):
        region = tmp_path / "region.txt"
        region.write_text("0 0 up\n0 0 down\n0 1 up\n1 0 up\n")
        svg_path = tmp_path / "region.svg"
        code, out, _ = run(capsys, "boundary", str(region), "--out", str(svg_path))
        assert code == 0
        assert "turning +6" in out
        assert "two_convex_adjacent" in out
        assert "simply connected: True" in out
        assert svg_path.read_text().count("<path") == 5

    def test_comments_and_blank_lines_ignored(self, tmp_path, capsys):
        region = tmp_path / "region.txt"
        region.write_text("# corner cell\n\n0 0 up\n")
        code, out, _ = run(capsys, "boundary", str(region))
        assert code == 0
        assert "1 cells" in out

    def test_region_with_hole_reports_loops(self, tmp_path, capsys):
        # order-4 triangle minus the strictly interior up-cell at (1, 1)
        cells = []
        for j in range(4):
            for i in range(4 - j):
                cells.append(f"{j} {i} up")
                if i + j <= 2:
                    cells.append(f"{j} {i} down")
        cells.remove("1 1 up")
        region = tmp_path / "ring.txt"
        region.write_text("\n".join(cells) + "\n")
        code, out, _ = run(capsys, "boundary", str(region))
        assert code == 0
        assert "2 boundary loop(s)" in out
        assert "simply connected: False" in out
        assert "loop 1 (hole)" in out

    def test_loops_pinched_at_a_vertex_are_both_outer(self, tmp_path, capsys):
        # two up cells that share only the vertex (1, 0)
        region = tmp_path / "pinched.txt"
        region.write_text("0 0 up\n0 1 up\n")
        code, out, _ = run(capsys, "boundary", str(region))
        assert code == 0
        assert "loop 0 (outer): turning +6" in out
        assert "loop 1 (outer): turning +6" in out

    def test_out_under_a_regular_file_is_usage_error(self, tmp_path, capsys):
        region = tmp_path / "region.txt"
        region.write_text("0 0 up\n")
        svg_path = tmp_path / "region.txt" / "region.svg"
        code, _, err = run(capsys, "boundary", str(region), "--out", str(svg_path))
        assert code == 2
        assert one_error_line(err, f"cannot write {svg_path}:")

    def test_bad_line_usage_error(self, tmp_path, capsys):
        region = tmp_path / "region.txt"
        region.write_text("0 0 sideways\n")
        code, _, err = run(capsys, "boundary", str(region))
        assert code == 2
        assert "line 1" in err

    def test_duplicate_cell_usage_error(self, tmp_path, capsys):
        region = tmp_path / "region.txt"
        region.write_text("0 0 up\n0 0 up\n")
        code, _, err = run(capsys, "boundary", str(region))
        assert code == 2

    def test_empty_region_usage_error(self, tmp_path, capsys):
        region = tmp_path / "region.txt"
        region.write_text("# nothing\n")
        code, _, err = run(capsys, "boundary", str(region))
        assert code == 2

    def test_non_utf8_file_usage_error(self, tmp_path, capsys):
        region = tmp_path / "region.txt"
        region.write_bytes(b"0 0 up # caf\xe9\n")
        code, _, err = run(capsys, "boundary", str(region))
        assert code == 2
        assert err.startswith("error: cannot read") and err.count("\n") == 1


class TestSample:
    def test_sides_mode(self, capsys):
        code, out, _ = run(capsys, "sample", "--count", "5", "--seed", "3")
        assert code == 0
        assert "Sigma2 hit rate: 0/5" in out

    def test_angles_mode(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--count", "20", "--seed", "7", "--mode", "angles"
        )
        assert code == 0
        assert "Sigma1 hit rate: 0/20" in out

    def test_zero_count_usage_error(self, capsys):
        code, _, err = run(capsys, "sample", "--count", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "mode, finder",
        [("sides", "find_side_relation"), ("angles", "find_angle_relation_pi_fractions")],
    )
    def test_refinement_limit_is_usage_error(self, capsys, monkeypatch, mode, finder):
        def refuse(*args, **kwargs):
            raise RefinementLimitError("no enclosure of width 2**-64 by 65538 working bits")

        monkeypatch.setattr(cli, finder, refuse)
        code, out, err = run(capsys, "sample", "--count", "3", "--mode", mode)
        assert code == 2
        assert out == ""
        assert err == "error: no enclosure of width 2**-64 by 65538 working bits\n"


class TestParser:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_keeps_no_state(self, tmp_path, capsys):
        """Each call parses into a fresh namespace: a flag, an appended
        option or a usage error in one call leaves no trace in the next."""
        path = TestVerify().make_file(tmp_path, capsys)
        valid = (0, "valid: 4 pieces (standard)\n", "")
        code, out, _ = run(capsys, "verify", path, "--stats")
        assert code == 0 and out.startswith(valid[1]) and out.count("\n") == 2
        assert run(capsys, "verify", path) == valid
        errors = []
        for parse in (main, cli._build_parser.__wrapped__().parse_args):  # reused, fresh
            with pytest.raises(SystemExit) as exc:
                parse(["verify", "--stats"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("usage: equicut verify")
        assert run(capsys, "verify", path) == valid
        assert run(capsys, "verify", str(tmp_path / "missing.json"))[0] == 2
        assert run(capsys, "verify", path) == valid
        search = ("search", "--region", "1,1", "--pieces", "2")
        code, plain, _ = run(capsys, *search)
        assert code == 0 and plain.count("tile[") == 1
        assert run(capsys, *search, "--tile", "1,1,1")[1].count("tile[") == 2
        assert run(capsys, *search) == (0, plain, "")


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        """``python -m equicut`` works from a checkout with only ``src`` on
        the path."""
        src = str(Path(equicut.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "equicut", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: equicut")
