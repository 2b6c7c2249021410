import json

import pytest

from revsym.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    main,
    parse_matrix,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestParsing:
    def test_matrix_syntax(self):
        m = parse_matrix("0 1; 1 1")
        assert m.rows == ((0, 1), (1, 1))

    def test_bad_entry(self):
        with pytest.raises(Exception):
            parse_matrix("0 x; 1 1")

    def test_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("0 1\n1 1\n")
        code, payload = run_json(capsys, "analyze", "--matrix-file",
                                 str(path), "--group", "pgl")
        assert code == EXIT_OK
        assert payload["input"]["matrix"] == [["0", "1"], ["1", "1"]]


class TestAnalyze:
    def test_pgl_fibonacci(self, capsys):
        code, payload = run_json(capsys, "analyze", "0 1; 1 1",
                                 "--group", "pgl")
        assert code == EXIT_OK
        result = payload["result"]
        assert result["status"] == "classified"
        assert result["classification"] == "dinf"
        assert result["order"] == "infinite"
        assert all(r["order"] == "2" for r in result["reversors"])

    def test_gl_case2(self, capsys):
        code, payload = run_json(capsys, "analyze", "5 7; 7 10")
        assert code == EXIT_OK
        result = payload["result"]
        assert result["classification"] == "case2"
        assert {r["order"] for r in result["reversors"]} == {"4"}

    def test_identity_trivial(self, capsys):
        code, payload = run_json(capsys, "analyze", "1 0; 0 1")
        assert code == EXIT_OK
        assert payload["result"]["status"] == "trivially-reversible"

    def test_gl_fibonacci_irreversible(self, capsys):
        code, payload = run_json(capsys, "analyze", "0 1; 1 1")
        assert code == EXIT_OK
        assert payload["result"]["status"] == "irreversible-proven"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "0 1; 1")
        assert code == EXIT_PARSE
        assert "error" in err

    def test_not_unimodular_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "2 0; 0 2")
        assert code == EXIT_PRECONDITION

    def test_deterministic_output(self, capsys):
        _, out1 = run_json(capsys, "analyze", "1 1; 1 2")
        code, out2, _ = run_cli(capsys, "analyze", "1 1; 1 2",
                                "--format", "json")
        _, out3, _ = run_cli(capsys, "analyze", "1 1; 1 2",
                             "--format", "json")
        assert out2 == out3

    def test_integers_rendered_as_strings(self, capsys):
        _, payload = run_json(capsys, "analyze", "1 2; 1 3")
        coeffs = payload["result"]["characteristic_polynomial"]["coefficients"]
        assert all(isinstance(c, str) for c in coeffs)

    def test_schema_version_present(self, capsys):
        _, payload = run_json(capsys, "analyze", "1 2; 1 3")
        assert payload["schema_version"] == "1"
        assert list(payload.keys()) == ["schema_version", "command", "input",
                                        "bounds", "result"]

    def test_one_by_one_is_precondition(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "5")
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.splitlines() == ["error: context dimension must be >= 2"]

    @pytest.mark.parametrize("argv", [
        ("0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 1 0 0; 0 0 0 0 1 0; "
         "0 0 0 0 0 1; -1 3 -1 5 -1 3",),
        ("0 1 0 0; 0 0 1 0; 0 0 0 1; -1 2 2 2", "--reversor-bound", "30"),
        # a 4x4 input whose reversor lattice has rank 6 at the default bound
        ("--", "1 0 0 0; 0 1 0 0; -1 0 -1 -1; -1 0 0 -1"),
        # a 2x2 input too: (2*707+1)^2 > 2,000,000, so the box is refused
        # before the exact 2x2 decision runs.  ROADMAP item 2 removes the cap.
        ("1 1; 1 2", "--reversor-bound", "707"),
    ])
    def test_enumeration_cap_is_precondition(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == EXIT_PRECONDITION
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "enumeration cap of 2000000" in lines[0]

    def test_largest_2x2_bound_under_the_cap_is_decided(self, capsys):
        # (2*706+1)^2 <= 2,000,000: the last bound the cap lets through
        code, out, _ = run_cli(capsys, "analyze", "--format", "json",
                               "--reversor-bound", "706", "1 1; 1 2")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["classification"] == "case3"

    def test_far_conjugate_is_decided(self, capsys):
        # the reversor lies far outside the coefficient box; the determinant
        # form on the reversor lattice finds it
        code, out, _ = run_cli(capsys, "analyze", "--format", "json", "--",
                               "-127 209; -79 130")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["bounds"] == {"reversor_bound": "10"}
        assert payload["result"]["status"] == "classified"
        assert payload["result"]["classification"] == "case3"
        assert len(payload["result"]["reversors"]) == 1

    def test_other_value_error_is_not_caught(self, monkeypatch, capsys):
        def fail(*args):
            raise ValueError("dimension mismatch")
        monkeypatch.setattr("revsym.cli.analyze", fail)
        with pytest.raises(ValueError, match="dimension mismatch"):
            main(["analyze", "1 1; 1 2"])

    @pytest.mark.parametrize("flag", ["--reversor-bound"])
    def test_negative_bound_is_parse_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "analyze", "1 1; 1 2", flag, "-1")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.splitlines() == [f"error: {flag} must be >= 0, got -1"]


class TestAbsgroup:
    def test_c4_window(self, capsys):
        code, payload = run_json(capsys, "absgroup", "c4", "--window", "5")
        assert code == EXIT_OK
        assert payload["result"]["order_spectrum"] == ["4"]
        assert payload["result"]["all_passed"] is True

    def test_c2p(self, capsys):
        code, payload = run_json(capsys, "absgroup", "c2p", "--p", "3",
                                 "--window", "8")
        assert code == EXIT_OK
        assert payload["result"]["order_spectrum"] == ["2", "6"]

    def test_dinf(self, capsys):
        code, payload = run_json(capsys, "absgroup", "dinf", "--window", "3")
        assert code == EXIT_OK
        assert payload["result"]["order_spectrum"] == ["2"]

    def test_invalid_p(self, capsys):
        code, _, err = run_cli(capsys, "absgroup", "c2p", "--p", "9")
        assert code == EXIT_PARSE

    def test_invalid_model(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "absgroup", "nosuch")
        assert exc.value.code == EXIT_PARSE


class TestPolyauto:
    def test_trace_suite(self, capsys):
        code, payload = run_json(capsys, "polyauto", "trace")
        assert code == EXIT_OK
        assert payload["result"]["all_passed"] is True
        assert len(payload["result"]["checks"]) == 4

    def test_case3(self, capsys):
        code, payload = run_json(capsys, "polyauto", "3")
        assert code == EXIT_OK
        names = [c["name"] for c in payload["result"]["checks"]]
        assert "t-squares-to-f" in names

    def test_non_odd_polynomial(self, capsys):
        code, _, err = run_cli(capsys, "polyauto", "1", "--p", "0 0 1")
        assert code == EXIT_PRECONDITION

    def test_degree_guardrail_is_precondition(self, capsys):
        x31 = ",".join(["0"] * 31 + ["1"])
        code, out, err = run_cli(capsys, "polyauto", "1", "--p", x31)
        assert code == EXIT_PRECONDITION
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "exceeds limit 200" in lines[0]


class TestElliptic:
    def test_reversor_check(self, capsys):
        code, payload = run_json(capsys, "elliptic", "--curve", "0", "1",
                                 "--omega", "2", "3", "--s", "0", "1")
        assert code == EXIT_OK
        assert payload["result"]["all_passed"] is True

    def test_singular_curve(self, capsys):
        code, _, err = run_cli(capsys, "elliptic", "--curve", "0", "0")
        assert code == EXIT_PRECONDITION

    def test_point_off_curve(self, capsys):
        code, _, err = run_cli(capsys, "elliptic", "--curve", "0", "1",
                               "--omega", "5", "5")
        assert code == EXIT_PRECONDITION

    def test_rational_coordinates(self, capsys):
        code, payload = run_json(capsys, "elliptic", "--curve", "0", "1",
                                 "--omega", "2", "-3", "--s", "-1", "0")
        assert code == EXIT_OK


class TestModroots:
    def test_fifteen(self, capsys):
        code, payload = run_json(capsys, "modroots", "15")
        assert code == EXIT_OK
        assert payload["result"]["roots"] == ["1", "4", "11", "14"]
        assert payload["result"]["predicted"] == "4"
        assert payload["result"]["match"] is True

    def test_invalid(self, capsys):
        code, _, _ = run_cli(capsys, "modroots", "0")
        assert code == EXIT_PARSE


class TestVerifyPaper:
    def test_scoreboard(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        pass_lines = [l for l in lines if l.startswith("PASS criterion")]
        assert len(pass_lines) == 9
        assert "scoreboard: 9/9" in lines[-1]
        assert "took" in err  # timings on stderr only

    def test_json_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "verify-paper", "--format", "json")
        code, out2, _ = run_cli(capsys, "verify-paper", "--format", "json")
        assert code == EXIT_OK
        assert out1 == out2
