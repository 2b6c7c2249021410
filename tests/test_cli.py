import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import revsym
from revsym import absgroup
from revsym.cli import (
    EXIT_FAILED,
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


def cli_env():
    """The environment for a `python -m revsym.cli` child process that
    imports this checkout's revsym."""
    src = os.path.dirname(os.path.dirname(revsym.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    def test_matrix_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"\xff\xfe0 1\n1 1\n")
        code, out, err = run_cli(capsys, "analyze", "--matrix-file",
                                 str(path))
        assert (code, out) == (EXIT_PARSE, "")
        [line] = err.splitlines()
        assert line.startswith("error: cannot read matrix file: ")


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

    @pytest.mark.parametrize("argv, status, case, bound", [
        # rank-6 lattices: (2*10+1)^6 > 2,000,000, so the box is cut to b = 5
        pytest.param(("0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 1 0 0; "
                      "0 0 0 0 1 0; 0 0 0 0 0 1; -1 3 -1 5 -1 3",),
                     "classified", "reversible-unclassified", "5",
                     id="companion6"),
        pytest.param(("--", "1 0 0 0; 0 1 0 0; -1 0 -1 -1; -1 0 0 -1"),
                     "classified", "reversible-unclassified", "5",
                     id="rank6-4x4"),
        pytest.param(("0 1 0 0; 0 0 1 0; 0 0 0 1; -1 2 2 2",
                      "--reversor-bound", "30"),
                     "classified", "reversible-unclassified", "18",
                     id="m4-bound-30"),
        pytest.param(("1 0 1; 0 1 0; 0 0 1",),
                     "classified", "reversible-unclassified", "8",
                     id="transvection3"),
        # at n = 2 the box is cut to b = 706 and the determinant form decides
        pytest.param(("1 1; 1 2", "--reversor-bound", "706"),
                     "classified", "case3", "706", id="case3-bound-706"),
        pytest.param(("1 1; 1 2", "--reversor-bound", "707"),
                     "classified", "case3", "706", id="case3-bound-707"),
        pytest.param(("1 1; 1 2", "--reversor-bound", "1000000"),
                     "classified", "case3", "706", id="case3-bound-1000000"),
        # a rank-17 lattice: only the box b = 0, which holds no reversor,
        # fits the cap
        pytest.param(("1 0 0 0 1; 0 1 0 0 0; 0 0 1 0 0; 0 0 0 1 0; "
                      "0 0 0 0 1",),
                     "inconclusive-up-to-bound", None, "0",
                     id="transvection5"),
    ])
    def test_past_the_cap_gives_a_status(self, capsys, argv, status, case,
                                         bound):
        code, out, err = run_cli(capsys, "analyze", "--format", "json",
                                 *argv)
        assert code == EXIT_OK
        assert "error" not in err
        payload = json.loads(out)
        assert payload["bounds"] == {"reversor_bound": bound}
        assert payload["result"]["status"] == status
        assert payload["result"]["classification"] == case

    def test_inconclusive_text_names_its_bound(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "1 0 0 0 1; 0 1 0 0 0; "
                               "0 0 1 0 0; 0 0 0 1 0; 0 0 0 0 1")
        assert code == EXIT_OK
        assert "status: inconclusive-up-to-bound 0" in out.splitlines()

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
        monkeypatch.setattr("revsym.matgroup.analyze", fail)
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

    def test_order_spectrum_detail_is_numeric(self, capsys):
        code, payload = run_json(capsys, "absgroup", "c2p", "--p", "5",
                                 "--window", "10")
        assert code == EXIT_OK
        assert payload["result"]["order_spectrum"] == ["2", "10"]
        [detail] = [c["detail"] for c in payload["result"]["claims"]
                    if c["name"] == "order-spectrum"]
        assert detail == "observed [2, 10], expected [2, 10]"

    def test_dinf(self, capsys):
        code, payload = run_json(capsys, "absgroup", "dinf", "--window", "3")
        assert code == EXIT_OK
        assert payload["result"]["order_spectrum"] == ["2"]

    def test_failed_claim_is_reported(self, monkeypatch, capsys):
        # expect involutions of c4, whose reversors all have order 4; the
        # all-involution claims then apply too
        c4 = absgroup._MODELS["c4"]
        monkeypatch.setitem(absgroup._MODELS, "c4",
                            replace(c4, reversor_orders=frozenset({2})))
        code, payload = run_json(capsys, "absgroup", "c4", "--window", "5")
        assert code == EXIT_FAILED
        assert payload["result"]["all_passed"] is False
        failed = [c for c in payload["result"]["claims"] if not c["passed"]]
        assert failed == [{"name": "order-spectrum", "passed": False,
                           "detail": "observed [4], expected [2]; "
                                     "witness {4}"},
                          {"name": "all-reversors-involutions",
                           "passed": False,
                           "detail": "every reversor is an involution"}]
        code, out, err = run_cli(capsys, "absgroup", "c4", "--window", "5")
        assert code == EXIT_FAILED
        assert "FAIL order-spectrum: observed [4]" in out
        assert "error:" not in err

    def test_invalid_p(self, capsys):
        code, _, err = run_cli(capsys, "absgroup", "c2p", "--p", "9")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("tag", ["c2p", "cpxcinf"])
    def test_missing_p_names_the_flag(self, capsys, tag):
        code, out, err = run_cli(capsys, "absgroup", tag)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "error: p must be an odd prime, got none; pass --p\n"

    @pytest.mark.parametrize("p, window, message", [
        # the prime 2^61 - 1: refused by the window rule before trial
        # division, which would run to sqrt(p)
        (2 ** 61 - 1, 6, f"window must be >= 2p = {2 ** 62 - 2}"),
        # a large composite that passes the window rule: refused at its
        # first factor
        (3 * (10 ** 40 + 1), 6 * (10 ** 40 + 1) + 1,
         f"p must be an odd prime, got {3 * (10 ** 40 + 1)}"),
    ], ids=["mersenne-prime-61", "large-composite"])
    def test_large_p_is_refused_at_once(self, p, window, message):
        proc = subprocess.run(
            [sys.executable, "-m", "revsym.cli", "absgroup", "c2p",
             "--p", str(p), "--window", str(window)],
            env=cli_env(), capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {message}"]

    def test_invalid_model(self, capsys):
        code, out, err = run_cli(capsys, "absgroup", "nosuch")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.splitlines() == [
            f"error: unknown model tag 'nosuch'; expected one of "
            f"{absgroup.MODEL_TAGS}"]


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

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    @pytest.mark.parametrize("text", ["", " ", ","])
    def test_empty_coefficient_list_refused(self, capsys, flag, text):
        # an empty list once ran the default family (or the zero
        # polynomial) while the input echo showed the empty text
        code, out, err = run_cli(capsys, "polyauto", "1", flag, text,
                                 "--format", "json")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: cannot parse coefficients {text!r}: " \
            "none given\n"


class TestElliptic:
    def test_reversor_check(self, capsys):
        code, payload = run_json(capsys, "elliptic", "--curve", "0", "1",
                                 "--omega", "2", "3", "--s", "0", "1")
        assert code == EXIT_OK
        assert payload["result"]["all_passed"] is True
        # y^2 = x^3 + 1 has six rational points, each checked once
        assert payload["result"]["samples_checked"] == "6"

    def test_singular_curve(self, capsys):
        code, _, err = run_cli(capsys, "elliptic", "--curve", "0", "0")
        assert code == EXIT_PRECONDITION
        for a, b in (("0", "0"), ("-3", "2")):
            for fmt in ("text", "json"):
                code, out, err = run_cli(capsys, "elliptic", "--curve", a, b,
                                         "--format", fmt)
                assert (code, out) == (EXIT_PRECONDITION, "")
                assert err.splitlines() == [
                    f"error: 4A^3 + 27B^2 = 0 for A={a}, B={b}"]

    def test_point_off_curve(self, capsys):
        # coordinates print as rationals, not as Fraction reprs
        for x, y, text in (("5", "5", "(5, 5)"), ("1/2", "1", "(1/2, 1)")):
            code, _, err = run_cli(capsys, "elliptic", "--curve", "0", "1",
                                   "--omega", x, y)
            assert code == EXIT_PRECONDITION
            assert err.splitlines() == [
                f"error: omega point {text} is not on the curve"]

    def test_rational_too_long_to_print(self, capsys):
        # 1e5000 has 5,001 digits, past the int-to-text limit of 4,300
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "elliptic", "--curve", "1e5000",
                                     "1", "--format", fmt)
            assert (code, out) == (EXIT_PARSE, "")
            [line] = err.splitlines()
            assert line.startswith("error: cannot parse rational '1e5000': ")
        code, payload = run_json(capsys, "elliptic", "--curve", "1e3", "1")
        assert code == EXIT_OK
        assert payload["result"]["curve"]["A"] == "1000"

    def test_huge_exponent_refused_before_the_value_is_built(self, capsys):
        # 10^50000000 would take minutes to build and then be refused
        for text in ("1e50000000", "1e-50000000", "2.5E+50_000_000"):
            code, out, err = run_cli(capsys, "elliptic", "--curve", text, "1")
            assert (code, out) == (EXIT_PARSE, "")
            [line] = err.splitlines()
            assert line.startswith(f"error: cannot parse rational '{text}': ")

    def test_rational_coordinates(self, capsys):
        code, payload = run_json(capsys, "elliptic", "--curve", "0", "1",
                                 "--omega", "2", "-3", "--s", "-1", "0")
        assert code == EXIT_OK


class TestLongIntegers:
    """Inputs are held to the interpreter's 4,300-digit limit on int-text
    conversion; answers computed from them print at any length."""

    A = 10 ** 2100 + 7
    MATRIX = f"{1 + A * A} {A} 0; {A} {1 + A * A} {A}; 0 {A} 1"
    LINEAR = f"0 {10 ** 4000 + 1}"

    def limit(self):
        return getattr(sys, "get_int_max_str_digits", lambda: 0)()

    @pytest.mark.parametrize("argv", [
        ("analyze", "--", MATRIX), ("polyauto", "3", "--p", LINEAR)])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_long_answer_prints_in_full(self, capsys, argv, fmt):
        before = self.limit()
        code, out, err = run_cli(capsys, *argv[:1], "--format", fmt,
                                 *argv[1:])
        assert code == EXIT_OK, err
        assert re.search(r"\d{4301}", out)
        assert self.limit() == before

    def test_limit_restored_after_an_error(self, capsys):
        before = self.limit()
        code, _, _ = run_cli(capsys, "polyauto", "1", "--p",
                             f"0 {10 ** 4000} 1")
        assert code == EXIT_PRECONDITION
        assert self.limit() == before

    def test_long_inputs_refused(self, capsys):
        long = "1" + "0" * 4300
        for argv in (("analyze", f"{long} 0; 0 1"),
                     ("polyauto", "1", "--p", f"0 {long}")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (EXIT_PARSE, "")
            [line] = err.splitlines()
            assert line.startswith("error: cannot parse ")


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


class TestClosedStdout:
    # `revsym analyze ... | head -1`: the reader is gone before the report is
    # written (a large one) or flushed at exit (a small one)
    @pytest.mark.parametrize("argv", [("analyze", "1 1; 0 1"),
                                      ("modroots", "15")])
    def test_no_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "revsym.cli", *argv], env=cli_env(),
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        assert proc.returncode == EXIT_FAILED


class TestFreshProcess:
    # each subcommand imports its own layer when it runs, and the process
    # has loaded no other: an in-process run, with every layer already
    # imported, cannot see a missing import on these paths
    @pytest.mark.parametrize("argv, code, message", [
        (("polyauto", "1", "--p", ",".join(["0"] * 31 + ["1"])),
         EXIT_PRECONDITION, "exceeds limit 200"),
        (("absgroup", "nosuch"), EXIT_PARSE, "unknown model tag 'nosuch'"),
        (("elliptic", "--curve", "1/0", "1"), EXIT_PARSE,
         "cannot parse rational '1/0'"),
    ], ids=["degree-guardrail", "unknown-model", "zero-denominator"])
    def test_exit_code(self, argv, code, message):
        proc = subprocess.run([sys.executable, "-m", "revsym.cli", *argv],
                              env=cli_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == code
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and message in line
