"""Output oracle, independent of revsym.

Matrix arithmetic here is plain Python over ints and Fractions; nothing in
this module imports or calls the code under test.  The checks are:

* every reported reversor r satisfies r*f = f^-1*r (GL) or r*f = +-f^-1*r
  (PGL) and is unimodular;
* every reported order k satisfies r^k = I (GL) or +-I (PGL) with no smaller
  k, and an infinite order has no such k up to the largest finite order an
  element of GL(n,Z) can have;
* the status and classification case match the ground-truth table for the
  named input, which conjugates P*m*P^-1 inherit.  `inconclusive-up-to-bound`
  is never wrong, but it is not a decided answer.

The other CLI commands are checked the same way, each against one invariant
computed here: the square roots of unity mod n by enumeration, the reversor
order spectrum of each abstract group model from its structure, the
reversor and symmetry identities of the planar polynomial maps by
evaluation at integer points, and the reflection and translation identities
on y^2 = x^3 + Ax + B with the chord-tangent law over Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

CLASSIFIED = "classified"
IRREVERSIBLE = "irreversible-proven"
INCONCLUSIVE = "inconclusive-up-to-bound"
TRIVIAL = "trivially-reversible"
DECIDED = (CLASSIFIED, IRREVERSIBLE, TRIVIAL)
UNCLASSIFIED = "reversible-unclassified"

# Ground truth for the named inputs: key -> (status, classification case).
# The 2x2 cases follow the classification table of the paper; "fib-gl" is
# obstructed by its non-reciprocal characteristic polynomial x^2 - x - 1, and
# "n4" by x^4 - 14x^3 + 22x^2 - 6x + 1.  "companion6" is reversible because
# its characteristic polynomial is palindromic: x -> x^-1 is a ring
# automorphism of Z[x]/(p) that conjugates multiplication by x to its inverse.
TRUTH = {
    "case1": (CLASSIFIED, "case1"),
    "case2": (CLASSIFIED, "case2"),
    "case3": (CLASSIFIED, "case3"),
    "fib-pgl": (CLASSIFIED, "dinf"),
    "fib-gl": (IRREVERSIBLE, None),
    "fib2-pgl": (CLASSIFIED, "dinf"),
    "shear": (CLASSIFIED, UNCLASSIFIED),
    "order6": (CLASSIFIED, UNCLASSIFIED),
    "companion3-gl": (CLASSIFIED, UNCLASSIFIED),
    "companion3-pgl": (CLASSIFIED, UNCLASSIFIED),
    "jordan3": (CLASSIFIED, UNCLASSIFIED),
    "m4-gl": (CLASSIFIED, UNCLASSIFIED),
    "m4-pgl": (CLASSIFIED, UNCLASSIFIED),
    "n4": (IRREVERSIBLE, None),
    "companion6": (CLASSIFIED, UNCLASSIFIED),
}

# Failures that are known defects of the program at the time the benchmark
# was written: (input key, exception type) -> description.  They count as
# failed ops, but do not make a run incorrect.
KNOWN_DEFECTS = {
    ("companion6", "ValueError"):
        "full-rank 6x6 reversor lattice: (2*10+1)^6 candidates exceed the "
        "enumeration cap and analyze raises ValueError",
}

# Largest order of a finite-order element of GL(n,Z).
MAX_FINITE_ORDER = {1: 2, 2: 6, 3: 6, 4: 12, 5: 12, 6: 30}


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def neg(a):
    return tuple(tuple(-v for v in row) for row in a)


def det(a):
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in a]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            result = -result
        result *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    return int(result)


def inverse(a):
    """Exact inverse of an integer matrix with determinant +-1."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[pivot] = m[pivot], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                factor = m[i][k]
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    out = tuple(tuple(row[n:]) for row in m)
    if any(v.denominator != 1 for row in out for v in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(v) for v in row) for row in out)


def check_reversor(f, finv, r, projective):
    """None if r reverses f, else the reason it does not."""
    if det(r) not in (1, -1):
        return f"reversor {r} is not unimodular"
    lhs, rhs = matmul(r, f), matmul(finv, r)
    if lhs == rhs or (projective and lhs == neg(rhs)):
        return None
    return f"reversor {r} fails r*f = {'+-' if projective else ''}f^-1*r"


def check_order(r, order, projective):
    """None if `order` (an int, or None for infinite) is the order of r."""
    n = len(r)
    ident = identity(n)
    units = (ident, neg(ident)) if projective else (ident,)
    limit = order if order is not None else MAX_FINITE_ORDER[n]
    power = r
    for k in range(1, limit + 1):
        if power in units:
            if k == order:
                return None
            return f"reversor {r} has order {k}, reported {order}"
        power = matmul(power, r)
    if order is None:
        return None
    return f"reversor {r} does not have order {order}"


def check_analysis(inp, status, case, reversors):
    """Check one analysis answer against the truth and the plain-Python
    reversor checks.  `reversors` is a list of (rows, order or None).
    Returns the reason the answer is wrong, or None."""
    truth_status, truth_case = TRUTH[inp.key]
    if status == INCONCLUSIVE:
        if truth_status == IRREVERSIBLE and reversors:
            return "inconclusive answer lists reversors of an irreversible input"
    elif status != truth_status:
        return f"status {status}, expected {truth_status}"
    elif case != truth_case:
        return f"case {case}, expected {truth_case}"
    if status == CLASSIFIED and not reversors:
        return "classified without a reversor"
    for r, order in reversors:
        reason = (check_reversor(inp.rows, inp.inverse, r, inp.projective)
                  or check_order(r, order, inp.projective))
        if reason:
            return reason
    return None


# ---------------------------------------------------------------------------
# Non-matrix CLI answers


def square_roots_of_unity(n):
    return [m for m in range(1, n + 1) if (m * m) % n == 1 % n]


def absgroup_spectrum(model, p):
    """Reversor orders in each model, read off its structure: every reversor
    of Dinf, C2 x Dinf and (Cp x Cinf) x| C2 is an involution; in
    Cinf x| C4 all have order 4; (C2 x Cinf) x| C2 has orders 2 and 4, and
    Cinf x| C2p has orders 2 and 2p."""
    return {"dinf": {2}, "c2xdinf": {2}, "c4": {4}, "c2xcinf": {2, 4},
            "c2p": {2, 2 * p}, "cpxcinf": {2}}[model]


def check_absgroup(spec, result):
    model, p = spec
    spectrum = {int(v) for v in result["order_spectrum"]}
    if spectrum != absgroup_spectrum(model, p):
        return (f"{model}: reversor orders {sorted(spectrum)}, expected "
                f"{sorted(absgroup_spectrum(model, p))}")
    if int(result["reversor_count"]) < 1:
        return f"{model}: no reversor found"
    return _all_checks_pass(result, "claims")


def _all_checks_pass(result, key="checks"):
    failed = [c["name"] for c in result[key] if c["passed"] is not True]
    if failed or result["all_passed"] is not True:
        return f"checks {failed} failed, all_passed {result['all_passed']}"
    return None


_POLY_TOKEN = re.compile(r"\d+|[a-z]|[-+*^(),]")


def parse_poly_map(text, variables="xy"):
    """Parse a polynomial map printed as '(p1, p2, ...)' with integer
    coefficients into a function of an integer point."""
    tokens = _POLY_TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s", "", text):
        raise ValueError(f"cannot parse {text!r}")
    pos = 0

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens) or expected and tokens[pos] != expected:
            raise ValueError(f"cannot parse {text!r} at token {pos}")
        pos += 1
        return tokens[pos - 1]

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def atom():
        tok = take()
        if tok == "(":
            inner = expr()
            take(")")
            return inner
        if tok.isdigit():
            return lambda pt, c=int(tok): c
        if tok in variables:
            return lambda pt, i=variables.index(tok): pt[i]
        raise ValueError(f"cannot parse {text!r}: {tok!r}")

    def factor():
        base = atom()
        if peek() == "^":
            take()
            k = int(take())
            return lambda pt: base(pt) ** k
        return base

    def term():
        parts = [factor()]
        while peek() == "*":
            take()
            parts.append(factor())

        def value(pt):
            out = 1
            for f in parts:
                out *= f(pt)
            return out
        return value

    def expr():
        signs, terms = [], []
        sign = -1 if peek() == "-" else 1
        if sign < 0:
            take()
        while True:
            signs.append(sign)
            terms.append(term())
            if peek() not in ("+", "-"):
                break
            sign = 1 if take() == "+" else -1
        return lambda pt: sum(s * t(pt) for s, t in zip(signs, terms))

    take("(")
    parts = [expr()]
    while peek() == ",":
        take()
        parts.append(expr())
    take(")")
    if pos != len(tokens):
        raise ValueError(f"cannot parse {text!r}: trailing tokens")
    return lambda pt: tuple(f(pt) for f in parts)


def compose(*maps):
    """compose(f, g, h)(p) = f(g(h(p)))."""
    def composed(pt):
        for m in reversed(maps):
            pt = m(pt)
        return pt
    return composed


POLY_POINTS = tuple((a, b) for a in range(-2, 3) for b in range(-2, 3))
TRACE_POINTS = tuple((a, b, c) for a in (-2, 0, 3) for b in (-1, 2)
                     for c in (-3, 1))


def _trace_identities():
    """The trace-map checks, evaluated here: the invariant is preserved and
    both reversors satisfy f r f = r and are involutions."""
    def f(p):
        x, y, z = p
        return (y, z, 2 * y * z - x)

    def r(p):
        return p[::-1]

    def r2(p):
        x, y, z = p
        return (2 * y * z - x, z, y)

    def inv(p):
        x, y, z = p
        return x * x + y * y + z * z - 2 * x * y * z - 1

    return {
        "invariant-preserved": all(inv(f(p)) == inv(p) for p in TRACE_POINTS),
        "swap-is-reversor": all(f(r(f(p))) == r(p) for p in TRACE_POINTS),
        "partner-is-reversor": all(f(r2(f(p))) == r2(p)
                                   for p in TRACE_POINTS),
        "reversors-are-involutions": all(r(r(p)) == p == r2(r2(p))
                                         for p in TRACE_POINTS),
    }


def _family_identities(result):
    """The planar-family checks, evaluated on the maps the program printed:
    f r f = r, f s = s f, and, where t is given, t t = f and t r a
    reversor whose square is s."""
    f, s, r = (parse_poly_map(result[k]) for k in ("f", "s", "r"))
    pts = POLY_POINTS
    found = {
        "reversor-identity": all(f(r(f(p))) == r(p) for p in pts),
        "symmetry-identity": all(f(s(p)) == s(f(p)) for p in pts),
    }
    if result["t"] is not None:
        t = parse_poly_map(result["t"])
        tr = compose(t, r)
        found["t-squares-to-f"] = all(t(t(p)) == f(p) for p in pts)
        found["t-r-is-order-4-reversor"] = all(
            f(tr(f(p))) == tr(p) and tr(tr(p)) == s(p) for p in pts)
    return found


def check_polyauto(spec, result):
    (target,) = spec
    try:
        found = (_trace_identities() if target == "trace"
                 else _family_identities(result))
    except (KeyError, ValueError) as exc:
        return f"polyauto {target}: {exc}"
    reported = {c["name"]: c["passed"] for c in result["checks"]}
    if reported.keys() != found.keys():
        return f"polyauto {target}: checks {sorted(reported)}"
    wrong = [name for name, ok in found.items() if not ok]
    if wrong:
        return f"polyauto {target}: {wrong} do not hold"
    return _all_checks_pass(result)


def ec_add(p, q, a):
    """Chord-tangent addition on y^2 = x^3 + ax + b; None is infinity."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and y1 == -y2:
        return None
    if p == q:
        slope = (3 * x1 * x1 + a) / (2 * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return (x3, slope * (x1 - x3) - y1)


def ec_neg(p):
    return None if p is None else (p[0], -p[1])


def check_elliptic(spec, result):
    """The reported points are the inputs and lie on the curve, and the
    reflection R(P) = S - P is an involution with R T R = T^-1 for the
    translation T(P) = P + Omega, on the points k*Omega + j*S."""
    (a, b), omega, s = spec
    a, b = Fraction(a), Fraction(b)
    omega = tuple(map(Fraction, omega))
    s = tuple(map(Fraction, s))
    reported = tuple(tuple(Fraction(v) for v in result[k])
                     for k in ("omega", "s"))
    if reported != (omega, s):
        return f"elliptic: points {reported}, expected {(omega, s)}"
    for x, y in (omega, s):
        if y * y != x ** 3 + a * x + b:
            return f"elliptic: ({x}, {y}) is not on the curve"

    def reflect(p):
        return ec_add(s, ec_neg(p), a)

    def translate(p, by=omega):
        return ec_add(p, by, a)

    samples, row = [], None
    for _ in range(4):
        point = row
        for _ in range(3):
            samples.append(point)
            point = ec_add(point, s, a)
        row = ec_add(row, omega, a)
    found = {
        "reflection-is-involution": all(reflect(reflect(p)) == p
                                        for p in samples),
        "reflection-reverses-translation": all(
            reflect(translate(reflect(p))) == translate(p, ec_neg(omega))
            for p in samples),
    }
    reported = {c["name"]: c["passed"] for c in result["checks"]}
    if reported.keys() != found.keys():
        return f"elliptic: checks {sorted(reported)}"
    wrong = [name for name, ok in found.items() if not ok]
    if wrong:
        return f"elliptic: {wrong} do not hold"
    return _all_checks_pass(result)
