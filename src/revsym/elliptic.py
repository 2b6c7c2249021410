"""Exact group law on rational points of short Weierstrass curves, and the
translation / point-reflection dynamics living on them.

Points are either ``None`` (the point at infinity, the group identity) or a
pair of Fractions satisfying y^2 = x^3 + A x + B exactly.  `Curve` refuses
a singular cubic (4A^3 + 27B^2 = 0), which carries no group law, with a
plain ValueError.  The maps of interest are P -> P + Omega (translations)
and P -> -P + S; the latter are involutions and reverse every translation,
and composition of such maps is closed-form: the two kinds generate a
semidirect product of the translation group by the point reflection.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import _Immutable, _Record

SAMPLE_COUNT = 12


class Curve(_Immutable, _Record):
    """y^2 = x^3 + A x + B over the rationals, nonsingular."""

    __slots__ = ("A", "B")

    def __init__(self, A, B):
        self._fill(Fraction(A), Fraction(B))
        if self.discriminant == 0:
            raise ValueError(f"4A^3 + 27B^2 = 0 for A={self.A}, B={self.B}")

    @property
    def discriminant(self) -> Fraction:
        return -16 * (4 * self.A ** 3 + 27 * self.B ** 2)


def point(x, y):
    return (Fraction(x), Fraction(y))


def is_on_curve(curve: Curve, p) -> bool:
    """Whether p is infinity or satisfies y^2 = x^3 + A x + B exactly: with
    x = xn/xd, y = yn/yd, A = an/ad, B = bn/bd the equation is multiplied by
    yd^2 xd^3 ad bd, which is positive, and compared in integers."""
    if p is None:
        return True
    x, y = p
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    an, ad = curve.A.numerator, curve.A.denominator
    bn, bd = curve.B.numerator, curve.B.denominator
    xd2 = xd * xd
    xd3 = xd2 * xd
    rhs = xn * xn * xn * ad * bd + an * xn * xd2 * bd + bn * xd3 * ad
    return yn * yn * xd3 * ad * bd == yd * yd * rhs


def _require_on_curve(curve: Curve, p):
    if not is_on_curve(curve, p):
        x, y = p
        raise ValueError(f"({x}, {y}) is not on "
                         f"y^2 = x^3 + {curve.A}x + {curve.B}")


def _neg(p):
    return None if p is None else (p[0], -p[1])


def add(curve: Curve, p, q):
    """Chord-tangent addition with full case analysis, exact: the slope
    sn/sd, (3 x1^2 + A) / (2 y1) or (y2 - y1) / (x2 - x1), and the new point
    in integers, each coordinate built by one Fraction(num, den), which
    reduces it with a positive denominator."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _add(curve, p, q)


def _add(curve: Curve, p, q):
    """`add` on points known to be on the curve: the module's own sums of
    points that it has checked or built."""
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    a1, b1, a2, b2 = x1.numerator, x1.denominator, x2.numerator, x2.denominator
    c1, d1, c2, d2 = y1.numerator, y1.denominator, y2.numerator, y2.denominator
    if a1 == a2 and b1 == b2:
        # on the curve y2 = +-y1: P + (-P) is infinity, else P = Q
        if c1 == -c2:
            return None
        an, ad = curve.A.numerator, curve.A.denominator
        sn = (3 * a1 * a1 * ad + an * b1 * b1) * d1
        sd = 2 * c1 * b1 * b1 * ad
    else:
        sn = (c2 * d1 - c1 * d2) * b1 * b2
        sd = (a2 * b1 - a1 * b2) * d1 * d2
    # x3 = s^2 - x1 - x2, then y3 = s (x1 - x3) - y1 from x3 in lowest terms
    x3 = Fraction(sn * sn * b1 * b2 - sd * sd * (a1 * b2 + a2 * b1),
                  sd * sd * b1 * b2)
    a3, b3 = x3.numerator, x3.denominator
    y3 = Fraction(sn * (a1 * b3 - a3 * b1) * d1 - c1 * sd * b1 * b3,
                  sd * b1 * b3 * d1)
    return (x3, y3)


def scalar_mul(curve: Curve, k: int, p):
    """k-fold sum by double-and-add; negative k negates first."""
    _require_on_curve(curve, p)
    if k < 0:
        k, p = -k, _neg(p)
    result = None
    addend = p
    while k:
        if k & 1:
            result = _add(curve, result, addend)
        k >>= 1
        if k:
            addend = _add(curve, addend, addend)
    return result


class CurveMap(_Immutable, _Record):
    """P -> sign*P + base with sign = +-1: a translation (sign 1) or a point
    reflection (sign -1), the element (sign, base) of E x| C2."""

    __slots__ = ("sign", "base")

    def __init__(self, sign: int, base: tuple | None):
        if sign not in (1, -1):
            raise ValueError(f"map sign must be 1 or -1, got {sign!r}")
        self._fill(sign, base)


def translation(curve: Curve, omega) -> CurveMap:
    _require_on_curve(curve, omega)
    return CurveMap(1, omega)


def neg_translation(curve: Curve, s) -> CurveMap:
    _require_on_curve(curve, s)
    return CurveMap(-1, s)


def _apply(curve: Curve, m: CurveMap, p):
    """m(p), for p and m's base known to be on the curve."""
    return _add(curve, p if m.sign == 1 else _neg(p), m.base)


def compose_maps(curve: Curve, m1: CurveMap, m2: CurveMap) -> CurveMap:
    """Closed-form composition m1 o m2 (apply m2 first).

    Writing m = (P -> e*P + base) with e = +-1, the composition is
    e1*(e2*P + b) + a = e1*e2*P + (a + e1*b).
    """
    _require_on_curve(curve, m1.base)
    _require_on_curve(curve, m2.base)
    return _compose(curve, m1, m2)


def _compose(curve: Curve, m1: CurveMap, m2: CurveMap) -> CurveMap:
    b = m2.base if m1.sign == 1 else _neg(m2.base)
    return CurveMap._trusted(m1.sign * m2.sign, _add(curve, m1.base, b))


def map_order_two(curve: Curve, m: CurveMap) -> bool:
    return compose_maps(curve, m, m) == CurveMap(1, None)


def check_reversor_on_samples(curve: Curve, omega, s, samples) -> bool:
    """Point reflections reverse translations: with f = (P -> P + omega) and
    r = (P -> -P + s), verify r o f o r = (P -> P - omega), both in the
    closed-form composition algebra and pointwise over the samples.  omega,
    s and each sample are checked once; the maps then act on points they
    have checked or built."""
    f = translation(curve, omega)
    r = neg_translation(curve, s)
    conj = _compose(curve, r, _compose(curve, f, r))
    expected = CurveMap(1, _neg(omega))
    if conj != expected:
        return False
    for p in samples:
        _require_on_curve(curve, p)
        via_maps = _apply(curve, r, _apply(curve, f, _apply(curve, r, p)))
        if via_maps != _add(curve, p, expected.base):
            return False
    return True


def sample_points(curve: Curve, bases):
    """Deterministic samples: infinity, then the multiples k*b,
    k <= SAMPLE_COUNT, of each base and their sums with the later bases, as
    at most SAMPLE_COUNT distinct points (fewer on curves with few rational
    points)."""
    for b in bases:
        _require_on_curve(curve, b)
    raw = [None]
    for k in range(1, SAMPLE_COUNT + 1):
        for i, b in enumerate(bases):
            p = scalar_mul(curve, k, b)
            for other in bases[i + 1:]:
                raw.append(_add(curve, p, other))
            raw.append(p)
    return list(dict.fromkeys(raw))[:SAMPLE_COUNT]
