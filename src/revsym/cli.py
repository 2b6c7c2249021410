"""Command-line front end.

Subcommands wrap the library layers one-to-one, and each imports its layer
only when it runs:

* ``analyze``  - full reversibility report for an integer matrix;
* ``absgroup`` - window verification of one presented group model;
* ``polyauto`` - planar example families and the trace map;
* ``elliptic`` - curve group-law and translation-reversor checks;
* ``modroots`` - square roots of unity modulo n against the count formula;
* ``verify-paper`` - the whole nine-criterion scoreboard.

Structured output (``--format json``) is byte-deterministic for identical
inputs and bounds: fixed key order, all integers rendered as decimal strings
(arbitrary precision safe), wall time reported on stderr only.  Exit codes:
0 when every requested verification passed, 1 when a verification failed
or stdout was closed early, 2 for parse/usage errors and inputs too large
for memory, 3 for violated preconditions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .exactmath import IntMatrix, IntPoly, NotUnimodular

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

# the interpreter's limit on int-text conversion, where it has one (0: none)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def parse_matrix(text: str) -> IntMatrix:
    """Rows separated by ';', entries by whitespace."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(tok) for tok in chunk.split()])
        except ValueError as exc:
            raise CliError(f"cannot parse matrix row {chunk!r}: {exc}",
                           EXIT_PARSE) from None
    if not rows:
        raise CliError("empty matrix", EXIT_PARSE)
    try:
        return IntMatrix(rows)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid matrix: {exc}", EXIT_PARSE) from None


def read_matrix_argument(args) -> IntMatrix:
    if args.matrix_file:
        try:
            with open(args.matrix_file, "r", encoding="utf-8") as fh:
                text = ";".join(line for line in fh.read().splitlines()
                                if line.strip())
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read matrix file: {exc}", EXIT_PARSE)
        return parse_matrix(text)
    if args.matrix is None:
        raise CliError("missing matrix argument", EXIT_PARSE)
    return parse_matrix(args.matrix)


def parse_rational(text: str):
    from fractions import Fraction
    limit = _digit_limit()
    exp = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    try:
        # Fraction builds 10^exp before str() below could refuse it
        if limit and exp and abs(int(exp[1])) > limit:
            raise ValueError(f"exponent {exp[1]} gives over {limit} digits")
        value = Fraction(text)
        str(value)  # a value too long to print back is refused here
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rational {text!r}: {exc}", EXIT_PARSE)
    return value


def _encode(value):
    """JSON-safe rendering: integers as decimal strings, exact types
    flattened, key order preserved."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, IntMatrix):
        return [[str(v) for v in row] for row in value.rows]
    if isinstance(value, IntPoly):
        return {"coefficients": [str(c) for c in value.coeffs],
                "text": value.to_text()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    from fractions import Fraction
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot encode {type(value).__name__}")


def emit(args, command, input_echo, bounds, result, text_lines):
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": _encode(input_echo),
        "bounds": _encode(bounds),
        "result": _encode(result),
    }
    if args.format == "json":
        print(json.dumps(envelope, indent=2))
    else:
        for line in text_lines:
            print(line)


def _order_str(order):
    return "infinite" if order is None else str(order)


def cmd_analyze(args) -> int:
    from .matgroup import STATUS_INCONCLUSIVE, GroupContext, analyze
    m = read_matrix_argument(args)
    _set_digit_limit(0)  # answers print at any length; main restores it
    if args.reversor_bound < 0:
        raise CliError(f"--reversor-bound must be >= 0, got "
                       f"{args.reversor_bound}", EXIT_PARSE)
    try:
        ctx = GroupContext(m.n, projective=(args.group == "pgl"))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION)
    report = analyze(m, ctx, args.reversor_bound)
    desc = report.symmetry_descriptor
    result = {
        "group": args.group,
        "dimension": m.n,
        "order": _order_str(report.order),
        "characteristic_polynomial": report.characteristic_polynomial,
        "reciprocity": report.reciprocity,
        "sign_adjusted_reciprocity": report.sign_adjusted_reciprocity,
        "status": report.status,
        "classification": report.classification_case,
        "irreversibility_reason": report.irreversibility_reason,
        "symmetry_generator": None if desc is None else {
            "finite_part_order": desc.finite_part_order,
            "generator": desc.generator,
            "f_sign": desc.f_sign,
            "f_exponent": desc.f_exponent,
        },
        "reversors": [{"matrix": mat, "order": _order_str(order)}
                      for mat, order in report.reversors],
    }
    lines = [
        f"matrix: {[list(r) for r in m.rows]} in "
        f"{'PGL' if ctx.projective else 'GL'}({m.n},Z)",
        f"order: {_order_str(report.order)}",
        f"char poly: {report.characteristic_polynomial.to_text()}",
        f"reciprocity: {report.reciprocity} "
        f"(sign-adjusted ok: {report.sign_adjusted_reciprocity})",
        f"status: {report.status}"
        + (f" [{report.classification_case}]"
           if report.classification_case else "")
        + (f" {report.reversor_bound}"
           if report.status == STATUS_INCONCLUSIVE else ""),
    ]
    if report.irreversibility_reason:
        lines.append(f"reason: {report.irreversibility_reason}")
    if desc is not None:
        lines.append(f"symmetry generator: {[list(r) for r in desc.generator.rows]}"
                     f", f = {'+' if desc.f_sign > 0 else '-'}g^{desc.f_exponent}")
    for mat, order in report.reversors:
        lines.append(f"reversor {[list(r) for r in mat.rows]} "
                     f"order {_order_str(order)}")
    emit(args, "analyze", {"matrix": m, "group": args.group},
         {"reversor_bound": report.reversor_bound}, result, lines)
    return EXIT_OK


def cmd_absgroup(args) -> int:
    from . import absgroup
    try:
        absgroup.check_window(args.model, args.p, args.window)
        model = absgroup.make_model(args.model, p=args.p)
        report = absgroup.verify_theorem_claims(model, args.window)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE)
    result = {
        "model": model.tag,
        "structure": model.display_name,
        "p": model.p,
        "window": args.window,
        "reversor_count": report.reversor_count,
        "order_spectrum": [_order_str(o) for o in report.order_spectrum],
        "claims": [{"name": name, "passed": ok, "detail": detail}
                   for name, ok, detail in report.claims],
        "all_passed": report.all_passed,
    }
    lines = [f"model {model.tag} ({model.display_name}), window {args.window}",
             f"reversors found: {report.reversor_count}, order spectrum "
             f"{[_order_str(o) for o in report.order_spectrum]}"]
    for name, ok, detail in report.claims:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    emit(args, "absgroup", {"model": args.model, "p": args.p},
         {"window": args.window}, result, lines)
    return EXIT_OK if report.all_passed else EXIT_FAILED


def _parse_coeffs(text):
    try:
        coeffs = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise CliError(f"cannot parse coefficients {text!r}: {exc}",
                       EXIT_PARSE)
    if not coeffs:
        raise CliError(f"cannot parse coefficients {text!r}: none given",
                       EXIT_PARSE)
    return coeffs


def _check_entries(checks):
    """A (name, passed) list as JSON check entries."""
    return [{"name": name, "passed": ok} for name, ok in checks]


def _check_lines(checks):
    """A (name, passed) list as PASS/FAIL text lines."""
    return [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks]


def cmd_polyauto(args) -> int:
    from . import polyauto
    if args.target == "trace":
        checks = polyauto.trace_map_suite()
        echo, result, lines = {"target": "trace"}, {"target": "trace"}, []
    else:
        case = int(args.target)
        p, q = (None if text is None
                else polyauto.univariate(_parse_coeffs(text))
                for text in (args.p, args.q))
        _set_digit_limit(0)
        try:
            fam = polyauto.build_example_family(case, p=p, q=q)
            checks = polyauto.family_checks(fam)
        except (polyauto.OddnessViolated, polyauto.DegreeLimitExceeded) as exc:
            raise CliError(str(exc), EXIT_PRECONDITION)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_PARSE)
        echo = {"target": args.target, "p": args.p, "q": args.q}
        result = {
            "target": f"case-{case}",
            "f": fam.f.to_text(),
            "s": fam.s.to_text(),
            "r": fam.r.to_text(),
            "t": fam.t.to_text() if fam.t is not None else None,
        }
        lines = [f"case {case}: f = {fam.f.to_text()}"]
    all_passed = all(ok for _, ok in checks)
    result.update(checks=_check_entries(checks), all_passed=all_passed)
    emit(args, "polyauto", echo, {}, result, lines + _check_lines(checks))
    return EXIT_OK if all_passed else EXIT_FAILED


def cmd_elliptic(args) -> int:
    from . import elliptic
    a, b = (parse_rational(v) for v in args.curve)
    try:
        curve = elliptic.Curve(a, b)
    except ValueError as exc:  # a singular curve
        raise CliError(str(exc), EXIT_PRECONDITION)
    def read_point(pair, label):
        if pair is None:
            return None
        px, py = (parse_rational(v) for v in pair)
        p = elliptic.point(px, py)
        if not elliptic.is_on_curve(curve, p):
            raise CliError(f"{label} point ({px}, {py}) is not on the curve",
                           EXIT_PRECONDITION)
        return p
    omega = read_point(args.omega, "omega")
    s = read_point(args.s, "s")
    bases = [p for p in (omega, s) if p is not None]
    samples = elliptic.sample_points(curve, bases or [None])
    checks = [
        ("reflection-is-involution", elliptic.map_order_two(
            curve, elliptic.neg_translation(curve, s))),
        ("reflection-reverses-translation",
         elliptic.check_reversor_on_samples(curve, omega, s, samples)),
    ]
    all_passed = all(ok for _, ok in checks)
    result = {
        "curve": {"A": a, "B": b},
        "omega": omega, "s": s,
        "samples_checked": len(samples),
        "checks": _check_entries(checks),
        "all_passed": all_passed,
    }
    lines = [f"curve: y^2 = x^3 + {a}x + {b}"] + _check_lines(checks)
    lines[-1] += f" ({len(samples)} samples)"
    emit(args, "elliptic",
         {"curve": {"A": a, "B": b}, "omega": omega, "s": s}, {},
         result, lines)
    return EXIT_OK if all_passed else EXIT_FAILED


def cmd_modroots(args) -> int:
    from . import numth
    try:
        roots = numth.square_roots_of_unity(args.n)
        predicted = numth.predicted_count(args.n)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE)
    match = len(roots) == predicted
    result = {"n": args.n, "roots": roots, "count": len(roots),
              "predicted": predicted, "match": match}
    lines = [f"n = {args.n}: roots {roots}",
             f"count {len(roots)}, predicted {predicted}, "
             f"{'match' if match else 'MISMATCH'}"]
    emit(args, "modroots", {"n": args.n}, {}, result, lines)
    return EXIT_OK if match else EXIT_FAILED


def cmd_verify_paper(args) -> int:
    from . import verify
    results = verify.run_all()
    all_passed = all(r.passed for r in results)
    result = {
        "criteria": [{
            "number": r.number,
            "name": r.name,
            "passed": r.passed,
            "details": r.details,
        } for r in results],
        "all_passed": all_passed,
    }
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} criterion "
                     f"{r.number}: {r.name}")
        if not r.passed:
            lines.extend(f"    {d}" for d in r.details if d.startswith("FAIL"))
    lines.append(f"scoreboard: {sum(r.passed for r in results)}/{len(results)}"
                 f" criteria passed")
    for r in results:
        print(f"criterion {r.number} took {r.elapsed:.3f}s "
              f"(limit {r.time_limit}s)", file=sys.stderr)
    emit(args, "verify-paper", {}, {}, result, lines)
    return EXIT_OK if all_passed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revsym",
        description="Exact detection and classification of reversing "
                    "symmetries of integer matrices, polynomial maps and "
                    "elliptic-curve translations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="reversibility report for a matrix")
    p.add_argument("matrix", nargs="?",
                   help="rows separated by ';', entries by whitespace")
    p.add_argument("--matrix-file", help="file with one matrix row per line")
    p.add_argument("--group", choices=("gl", "pgl"), default="gl")
    p.add_argument("--reversor-bound", type=int, default=10,
                   help="coefficient bound of the reversor search box, cut "
                   "to fit 2,000,000 points; an inconclusive answer at "
                   "n >= 3 names the cut bound")
    add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("absgroup", help="verify one presented group model")
    p.add_argument("model", help="model tag; an unknown tag lists them")
    p.add_argument("--p", type=int, default=None,
                   help="odd prime for the prime-parameterized models")
    p.add_argument("--window", type=int, default=6,
                   help="exponent window of the exhaustive checks; time "
                   "is linear in the words of the window, so it grows as "
                   "window^2 in the two-exponent models cinfxdinf, twisted "
                   "and invc2 and as window in the others")
    add_format(p)
    p.set_defaults(func=cmd_absgroup)

    p = sub.add_parser("polyauto",
                       help="planar example families / trace map")
    p.add_argument("target", choices=("1", "2", "3", "trace"))
    p.add_argument("--p", help="odd polynomial, little-endian coefficients")
    p.add_argument("--q", help="odd polynomial, little-endian coefficients")
    add_format(p)
    p.set_defaults(func=cmd_polyauto)

    p = sub.add_parser("elliptic", help="curve translation-reversor check")
    p.add_argument("--curve", nargs=2, metavar=("A", "B"), required=True)
    p.add_argument("--omega", nargs=2, metavar=("X", "Y"),
                   help="translation base point")
    p.add_argument("--s", nargs=2, metavar=("X", "Y"),
                   help="reflection base point")
    add_format(p)
    p.set_defaults(func=cmd_elliptic)

    p = sub.add_parser("modroots", help="square roots of unity modulo n")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_modroots)

    p = sub.add_parser("verify-paper",
                       help="run the full nine-criterion scoreboard")
    add_format(p)
    p.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    limit = _digit_limit()
    out_of_memory = False
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone; send the rest nowhere, so that the
        # final flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except MemoryError:
        # reported once the handler is left, and with it the traceback and
        # the frames, and their lists, that it holds
        out_of_memory = True
    except NotUnimodular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        _set_digit_limit(limit)
    if out_of_memory:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_PARSE
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
