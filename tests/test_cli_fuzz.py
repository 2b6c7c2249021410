"""Seeded fuzz of the command line: every argument list ends in one of the
documented exit codes 0-3, without a traceback, and a run that exits 2 or 3
writes nothing to stdout."""

import itertools
import random

from revsym.absgroup import MODEL_TAGS
from revsym.cli import main

EXIT_CODES = {0, 1, 2, 3}
FORMATS = (["--format", "text"], ["--format", "json"])


def _elementary(rng, n):
    i, j = rng.sample(range(n), 2)
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i][j] = rng.choice((-1, 1))
    if rng.random() < 0.3:
        rows[i][i] = -1
    return rows


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _matrix(rng, n):
    """Entries in [-4, 4]: half uniformly random (mostly not unimodular),
    half a product of elementary matrices kept inside the range."""
    if n == 1 or rng.random() < 0.5:
        return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(rng.randint(1, 3 * n)):
        step = _matmul(m, _elementary(rng, n))
        if all(abs(v) <= 4 for row in step for v in row):
            m = step
    return m


def _analyze_argvs(rng, count):
    for _ in range(count):
        n = rng.randint(1, 4)
        text = "; ".join(" ".join(map(str, row)) for row in _matrix(rng, n))
        yield ["analyze", "--group", rng.choice(("gl", "pgl")),
               "--reversor-bound", str(rng.randint(0, 3)),
               *rng.choice(FORMATS), "--", text]
    for text in ("1 x; 1 1", "1 2; 3", ";", "2 1; 1 1; 0 0"):
        yield ["analyze", "--", text]


def _absgroup_argvs(rng):
    for model, window, p in itertools.product((*MODEL_TAGS, "nosuch"),
                                              range(-1, 3), ("3", "4")):
        yield ["absgroup", model, "--window", str(window), "--p", p,
               *rng.choice(FORMATS)]


def _polyauto_argvs(rng):
    # odd (y^31 trips the degree guardrail), even, empty and malformed
    # coefficient lists
    polys = (None, "0 1", "0 2 0 -1", "0 0 0 1", "0 " * 31 + "1", "1",
             "0 0 1", "", "0 x", "1/2", "0,,1")
    for target in ("1", "2", "3", "trace"):
        for p, q in rng.sample(list(itertools.product(polys, polys)), 16):
            argv = ["polyauto", target, *rng.choice(FORMATS)]
            argv += ["--p", p] if p is not None else []
            argv += ["--q", q] if q is not None else []
            yield argv


def _elliptic_argvs(rng, count):
    # singular, integral, rational and unparsable curves, each with its own
    # points on the curve plus points off every curve and unparsable ones
    on_curve = {
        ("0", "0"): [("0", "0")],
        ("-3", "2"): [("1", "0")],
        ("0", "1"): [("2", "3"), ("2", "-3"), ("0", "1"), ("-1", "0")],
        ("-1/4", "1/4"): [("0", "1/2"), ("1", "1"), ("1", "-1")],
        ("1/0", "1"): [],
        ("x", "1"): [],
    }
    elsewhere = [None, ("1", "2"), ("1/2", "1/3"), ("1/0", "2"), ("y", "0")]
    for _ in range(count):
        curve = rng.choice(list(on_curve))
        argv = ["elliptic", "--curve", *curve, *rng.choice(FORMATS)]
        for flag in ("--omega", "--s"):
            point = rng.choice(on_curve[curve] + elsewhere)
            if point is not None:
                argv += [flag, *point]
        yield argv


def _modroots_argvs():
    for n, fmt in itertools.product(
            ("0", "-5", str(10 ** 7), str(10 ** 7 + 1), "abc"), FORMATS):
        yield ["modroots", *fmt, "--", n]


def _argvs():
    rng = random.Random(20041975)
    return [*_analyze_argvs(rng, 100), *_absgroup_argvs(rng),
            *_polyauto_argvs(rng), *_elliptic_argvs(rng, 40),
            *_modroots_argvs()]


def test_every_argv_gets_a_documented_exit_code(capsys):
    failures = []
    seen = {}
    for argv in _argvs():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        seen.setdefault(argv[0], set()).add(code)
        if code not in EXIT_CODES:
            failures.append((argv, code))
        elif code in (2, 3) and out:
            failures.append((argv, code, out))
    assert failures == []
    # every subcommand is also driven past its parsing to a full answer
    assert all(0 in codes for codes in seen.values())
