"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python: the inputs (and the inverses the oracle
needs) are built without calling revsym, so the program under test only ever
receives finished integer matrices and command lines.  The same seed always
gives the same inputs.

Each matrix input carries the key of the named input it derives from; a
conjugate P*m*P^-1 inherits the ground truth of m (see oracle.TRUTH).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import identity, inverse, matmul

WORKLOADS = ("analyze-2x2", "analyze-nxn", "scoreboard", "cli-cold")

FIB = ((0, 1), (1, 1))

# key -> (rows, projective)
NAMED_2X2 = {
    "case1": (((1, 2), (1, 3)), False),
    "case2": (((5, 7), (7, 10)), False),
    "case3": (((1, 1), (1, 2)), False),
    "fib-pgl": (FIB, True),
    "fib-gl": (FIB, False),
    "fib2-pgl": (((1, 1), (1, 2)), True),
    "shear": (((1, 1), (0, 1)), False),
    "order6": (((0, -1), (1, 1)), False),
}

# P*case3*P^-1 with P = [[13,8],[8,5]]: reversible, but its reversor lies far
# outside the default coefficient box, so today's search is inconclusive.
CASE3_FAR_CONJUGATE = ((-127, 209), (-79, 130))

M4 = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 2, 2, 2))

# key -> (rows, projective)
NAMED_NXN = {
    "companion3-gl": (((0, 1, 0), (0, 0, 1), (1, -4, 4)), False),
    "companion3-pgl": (((0, 1, 0), (0, 0, 1), (1, -4, 4)), True),
    "jordan3": (((1, 1, 0), (0, 1, 1), (0, 0, 1)), False),
    "m4-gl": (M4, False),
    "m4-pgl": (M4, True),
    "n4": (((1, 0, -3, 1), (-1, 3, 2, -1), (1, -3, 1, 0), (0, 1, -3, 1)),
           False),
    # companion matrix of x^6-3x^5+x^4-5x^3+x^2-3x+1
    "companion6": (((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0),
                    (0, 0, 0, 0, 0, 1), (-1, 3, -1, 5, -1, 3)), False),
}

# Conjugates in analyze-2x2 use P built from 1..12 elementary steps, 14 per
# step count, so entry sizes grow along the stream.  Which conjugates come
# back inconclusive depends on the seed; with 1353 ops per pass, decided_frac
# moves by under 1% between seeds.  A pass also takes 10 to 20 s, so a
# 15 s run always makes one pass, and op_tail_ref is always the same
# percentile.
STEPS_2X2 = range(1, 13)
REPEATS_2X2 = 14
# Conjugates of M4, each from 3..6 elementary steps.  Their cost varies by a
# quarter from seed to seed, so there are two: with M4 itself in GL and PGL
# they make four heavy ops.  The 3x3 Jordan block runs five times, and with
# the four other light inputs that puts the median op among its runs
# whatever the seed: the median is that of five like measurements.
M4_CONJUGATES = 2
JORDAN_REPEATS = 5
# cli-cold conjugates stay small (1..4 steps): the workload measures process
# start-up, and the conjugation defect is measured on analyze-2x2.  With 23
# of them a pass is 72 processes, 12 to 20 s, so a 15 s run always makes one
# pass, and op_tail_ref is always the same percentile.
CLI_CONJUGATES = 23

ABSGROUP_MODELS = ("dinf", "c2xdinf", "c4", "c2xcinf", "c2p", "cpxcinf")
POLYAUTO_TARGETS = ("2", "3", "trace")
CURVE_POINTS = ((2, 3), (2, -3), (0, 1), (0, -1), (-1, 0))  # on y^2 = x^3 + 1


@dataclass(frozen=True)
class MatrixInput:
    key: str            # named input whose truth this input inherits
    label: str
    rows: tuple
    projective: bool
    inverse: tuple      # rows^-1, for the oracle

    @property
    def n(self):
        return len(self.rows)


@dataclass(frozen=True)
class CliInput:
    kind: str           # analyze, absgroup, polyauto, elliptic, modroots
    argv: tuple
    matrix: MatrixInput | None = None
    spec: tuple = ()    # what the oracle checks a non-matrix answer against


def random_unimodular(rng, n, steps):
    """(P, P^-1) for P a product of `steps` elementary row additions."""
    p = [list(r) for r in identity(n)]
    pinv = [list(r) for r in identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        # P <- (I + k e_i e_j^T) P and P^-1 <- P^-1 (I - k e_i e_j^T)
        p[i] = [a + k * b for a, b in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= k * row[i]
    return tuple(map(tuple, p)), tuple(map(tuple, pinv))


def named_input(key, table):
    rows, projective = table[key]
    return MatrixInput(key, key, rows, projective, inverse(rows))


def far_conjugate():
    return MatrixInput("case3", "case3-far", CASE3_FAR_CONJUGATE, False,
                       inverse(CASE3_FAR_CONJUGATE))


def conjugate(rng, base: MatrixInput, steps) -> MatrixInput:
    p, pinv = random_unimodular(rng, base.n, steps)
    return MatrixInput(
        base.key, f"{base.key}^P{steps}",
        matmul(matmul(p, base.rows), pinv), base.projective,
        matmul(matmul(p, base.inverse), pinv))


def analyze_2x2(seed, tiny=False) -> list[MatrixInput]:
    rng = random.Random(seed)
    stream = [far_conjugate()]
    steps = [1, 12] if tiny else [s for s in STEPS_2X2
                                  for _ in range(REPEATS_2X2)]
    for key in NAMED_2X2:
        base = named_input(key, NAMED_2X2)
        stream.append(base)
        stream.extend(conjugate(rng, base, s) for s in steps)
    rng.shuffle(stream)
    return stream


def analyze_nxn(seed, tiny=False) -> list[MatrixInput]:
    rng = random.Random(seed)
    if tiny:
        keys = ("companion3-gl", "n4", "companion6")
        return [named_input(k, NAMED_NXN) for k in keys]
    ops = [named_input(k, NAMED_NXN) for k in NAMED_NXN]
    ops += [named_input("jordan3", NAMED_NXN)] * (JORDAN_REPEATS - 1)
    m4 = named_input("m4-gl", NAMED_NXN)
    ops.extend(conjugate(rng, m4, rng.randint(3, 6))
               for _ in range(M4_CONJUGATES))
    rng.shuffle(ops)
    return ops


def _matrix_arg(rows):
    return "; ".join(" ".join(map(str, r)) for r in rows)


def analyze_command(inp: MatrixInput) -> CliInput:
    group = "pgl" if inp.projective else "gl"
    # "--" keeps a leading negative entry from parsing as an option
    return CliInput("analyze", ("analyze", "--group", group, "--format",
                                "json", "--", _matrix_arg(inp.rows)), inp)


def cli_cold(seed, tiny=False) -> list[CliInput]:
    rng = random.Random(seed)
    named = [named_input(k, NAMED_2X2) for k in NAMED_2X2]
    if tiny:
        return [analyze_command(rng.choice(named)),
                CliInput("modroots", ("modroots", "120", "--format", "json"),
                         spec=(120,))]
    matrices = named + [far_conjugate()]
    matrices += [conjugate(rng, rng.choice(named), rng.randint(1, 4))
                 for _ in range(CLI_CONJUGATES)]
    cmds = [analyze_command(m) for m in matrices]
    model = rng.choice(ABSGROUP_MODELS)
    cmds.append(CliInput("absgroup", ("absgroup", model, "--p", "3",
                                      "--window", "6", "--format", "json"),
                         spec=(model, 3)))
    target = rng.choice(POLYAUTO_TARGETS)
    cmds.append(CliInput("polyauto", ("polyauto", target, "--format", "json"),
                         spec=(target,)))
    omega, s = rng.sample(CURVE_POINTS, 2)
    cmds.append(CliInput("elliptic", ("elliptic", "--curve", "0", "1",
                                      "--omega", *map(str, omega),
                                      "--s", *map(str, s),
                                      "--format", "json"),
                         spec=((0, 1), omega, s)))
    n = rng.randint(1000, 50000)
    cmds.append(CliInput("modroots", ("modroots", str(n), "--format", "json"),
                         spec=(n,)))
    rng.shuffle(cmds)
    return cmds
