"""Exact symbolic polynomial self-maps and their reversing symmetries.

Polynomials are sparse multivariate objects with integer coefficients.
Maps are tuples of component polynomials; they are composed, never
evaluated at points.  Composition is exact substitution, so identities
such as f(r(f(x))) = r(x) can be verified with zero tolerance.  The
reversor check is deliberately inverse-free: for invertible f and r,
r f r^-1 = f^-1 is equivalent to f o r o f = r, which avoids implementing
polynomial-map inversion.

Included verification targets:

* three families of planar maps built from odd polynomials, realizing the
  possible reversing-symmetry-group structures over C2 x C-infinity (all
  reversors involutory; all of order 4; both orders present, in which case
  the map is the square of an explicit generator t);
* the three-variable trace map (x,y,z) -> (y,z,2yz-x), its two involutory
  reversors and the invariant x^2+y^2+z^2-2xyz-1 it preserves.
"""

from __future__ import annotations

from .exactmath import _Immutable, _Record, _terms_text

MAX_DEGREE = 200


class OddnessViolated(ValueError):
    """A parameter polynomial is not an odd function."""


class DegreeLimitExceeded(RuntimeError):
    """A composition would exceed the total-degree guardrail MAX_DEGREE."""


class MultiPoly(_Immutable):
    """Sparse multivariate polynomial over Z; terms keyed by exponent tuple."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError("exponent arity mismatch")
            if min(expo, default=0) < 0:
                raise ValueError(f"negative exponent in {expo}")
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be int")
            clean[expo] = coeff
        self._fill(nvars, clean)

    def _fill(self, nvars, terms):
        """Set the fields from a dict of int tuples of length nvars to ints,
        zero terms dropped."""
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms",
                           {expo: c for expo, c in terms.items() if c})

    @staticmethod
    def constant(c, nvars) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(i, nvars) -> "MultiPoly":
        expo = [0] * nvars
        expo[i] = 1
        return MultiPoly(nvars, {tuple(expo): 1})

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, 0) + coeff
        return MultiPoly._trusted(self.nvars, out)

    def __neg__(self):
        return MultiPoly._trusted(self.nvars,
                                  {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        """The product on packed exponents (`_packed`), with fields wide
        enough for the total degree, which bounds every exponent."""
        other = self._coerce(other)
        width = (self.total_degree() + other.total_degree()).bit_length() or 1
        return MultiPoly._unpacked(self.nvars, width, _packed_product(
            self._packed(width), other._packed(width)))

    def _packed(self, width):
        """The terms as (key, coefficient), each exponent tuple packed into
        an int of `width` bits a variable: while the exponents fit, adding
        keys adds them (the constructor refuses negative exponents)."""
        shifts = range(0, width * self.nvars, width)
        return [(sum(e << s for e, s in zip(expo, shifts)), c)
                for expo, c in self.terms.items()]

    @staticmethod
    def _unpacked(nvars, width, items):
        shifts = range(0, width * nvars, width)
        mask = (1 << width) - 1
        return MultiPoly._trusted(nvars, {
            tuple(k >> s & mask for s in shifts): c for k, c in items})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(1, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return MultiPoly.constant(other, self.nvars)

    def substitute(self, replacements) -> "MultiPoly":
        """Exact substitution of one polynomial per variable."""
        comps = tuple(replacements.components
                      if isinstance(replacements, PolyMap) else replacements)
        if len(comps) != self.nvars:
            raise ValueError("variable-count mismatch")
        nvars_out = comps[0].nvars if comps else self.nvars
        if any(c.nvars != nvars_out for c in comps):
            raise ValueError("variable-count mismatch")
        comp_deg = [c.total_degree() for c in comps]
        worst = max((sum(e * d for e, d in zip(expo, comp_deg))
                     for expo in self.terms), default=0)
        if worst > MAX_DEGREE:
            raise DegreeLimitExceeded(
                f"composition degree {worst} exceeds limit {MAX_DEGREE}")
        # every product has degree <= worst, so keys are packed once at
        # its width; powers[i][e] is comps[i]^e, filled as far as needed
        width = worst.bit_length() or 1
        packed = [c._packed(width) for c in comps]
        powers = [[[(0, 1)]] for _ in comps]
        total = {}
        for expo, coeff in self.terms.items():
            term = [(0, coeff)]
            for i, e in enumerate(expo):
                if e:
                    cache = powers[i]
                    for _ in range(len(cache), e + 1):
                        cache.append(_packed_product(cache[-1], packed[i]))
                    term = _packed_product(term, cache[e])
            for k, c in term:
                total[k] = total.get(k, 0) + c
        return MultiPoly._unpacked(nvars_out, width, total.items())

    def sorted_terms(self):
        """Graded-lexicographic term order, highest first."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def to_text(self, names=None) -> str:
        names = names or _default_names(self.nvars)
        return _terms_text((coeff, [f"{names[i]}^{e}" if e > 1 else names[i]
                                    for i, e in enumerate(expo) if e])
                           for expo, coeff in self.sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_text()!r})"


def _packed_product(left, right):
    """The product of two polynomials given as packed (key, coefficient)
    pairs of one width, in the same form, zero terms dropped."""
    out = {}
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return [(k, c) for k, c in out.items() if c]


def _default_names(nvars):
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


class PolyMap(_Immutable, _Record):
    """Self-map of affine space given by one polynomial per coordinate."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("map needs at least one component")
        v = comps[0].nvars
        if len(comps) != v:
            raise ValueError("component count must equal variable count")
        for c in comps:
            if c.nvars != v:
                raise ValueError("component variable counts differ")
        self._fill(comps)

    @property
    def nvars(self) -> int:
        return len(self.components)

    @staticmethod
    def identity(nvars) -> "PolyMap":
        return PolyMap(tuple(MultiPoly.variable(i, nvars)
                             for i in range(nvars)))

    def to_text(self) -> str:
        names = _default_names(self.nvars)
        return "(" + ", ".join(c.to_text(names) for c in self.components) + ")"


def compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """The map f o g (apply g first), by exact substitution."""
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    return PolyMap(tuple(c.substitute(g) for c in f.components))


def check_reversor_identity(f: PolyMap, r: PolyMap) -> bool:
    """Inverse-free reversor test: f o r o f = r (equivalent to
    r f r^-1 = f^-1 for invertible f and r)."""
    return compose(f, compose(r, f)) == r


def check_symmetry_identity(f: PolyMap, s: PolyMap) -> bool:
    return compose(f, s) == compose(s, f)


# ---------------------------------------------------------------------------
# Example families of planar maps built from odd polynomials


def univariate(coeffs) -> MultiPoly:
    """Univariate polynomial from little-endian coefficients."""
    return MultiPoly(1, {(i,): c for i, c in enumerate(coeffs)})


def is_odd_function(p: MultiPoly) -> bool:
    if p.nvars != 1:
        raise ValueError("oddness check applies to univariate polynomials")
    return all(e[0] % 2 == 1 for e in p.terms)


class ExampleFamily(_Immutable, _Record):
    __slots__ = ("case", "f", "s", "r", "t")

    def __init__(self, case, f, s, r, t=None):
        self._fill(case, f, s, r, t)


def build_example_family(case: int, p: MultiPoly | None = None,
                         q: MultiPoly | None = None) -> ExampleFamily:
    """The planar example maps.

    Case 1: f(x,y) = (x + p(y), y + q(x + p(y))) with p != q odd; the
            point reflection s and r(x,y) = (-x - p(y), y) are involutions.
    Case 2: the fixed cubic map f(x,y) = (-x + y^3, -y - (-x + y^3)^3),
            with the quarter-turn r(x,y) = (-y, x) of order 4, r^2 = s.
    Case 3: as case 1 with q = p; then t(x,y) = (y, x + p(y)) satisfies
            t^2 = f, and t o r is a reversor of order 4.
    """
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    neg = PolyMap((-x, -y))
    if case == 2:
        if p is not None or q is not None:
            raise ValueError("case 2 is a fixed map without parameters")
        f1 = -x + y ** 3
        f2 = -y - f1 ** 3
        f = PolyMap((f1, f2))
        r = PolyMap((-y, x))
        return ExampleFamily(case=2, f=f, s=neg, r=r)
    if case not in (1, 3):
        raise ValueError("case must be 1, 2 or 3")
    if p is None:
        p = univariate([0, 0, 0, 1])  # y^3
    if case == 1 and q is None:
        q = univariate([0, 1, 0, 1])  # x + x^3
    if case == 3:
        if q is not None and q != p:
            raise ValueError("case 3 requires q = p")
        q = p
    if not is_odd_function(p):
        raise OddnessViolated("p must be an odd polynomial")
    if not is_odd_function(q):
        raise OddnessViolated("q must be an odd polynomial")
    if case == 1 and p == q:
        raise ValueError("case 1 requires p != q")
    p_of_y = p.substitute((y,))
    xprime = x + p_of_y
    f = PolyMap((xprime, y + q.substitute((xprime,))))
    r = PolyMap((-x - p_of_y, y))
    t = PolyMap((y, x + p_of_y)) if case == 3 else None
    return ExampleFamily(case=case, f=f, s=neg, r=r, t=t)


def family_checks(fam: ExampleFamily) -> list:
    """The identities of the family's case as (name, passed) pairs: r
    reverses f and s commutes with f; in case 3 also t^2 = f, and t o r
    reverses f with (t o r)^2 = s and s^2 the identity, so order 4."""
    checks = [
        ("reversor-identity", check_reversor_identity(fam.f, fam.r)),
        ("symmetry-identity", check_symmetry_identity(fam.f, fam.s)),
    ]
    if fam.t is not None:
        rprime = compose(fam.t, fam.r)
        sq = compose(rprime, rprime)
        checks.append(("t-squares-to-f", compose(fam.t, fam.t) == fam.f))
        checks.append(("t-r-is-order-4-reversor",
                       check_reversor_identity(fam.f, rprime)
                       and sq == fam.s
                       and compose(sq, sq) == PolyMap.identity(fam.f.nvars)))
    return checks


# ---------------------------------------------------------------------------
# Trace map


def trace_map() -> PolyMap:
    x, y, z = (MultiPoly.variable(i, 3) for i in range(3))
    return PolyMap((y, z, (y * z) * 2 - x))


def trace_invariant() -> MultiPoly:
    x, y, z = (MultiPoly.variable(i, 3) for i in range(3))
    return x ** 2 + y ** 2 + z ** 2 - (x * y * z) * 2 - MultiPoly.constant(1, 3)


def trace_map_suite() -> list:
    """Verify symbolically that the trace map preserves its invariant and is
    reversed by the coordinate swap (x,y,z) -> (z,y,x) and by
    (x,y,z) -> (2yz - x, z, y), both involutions.  Returns (name, passed)
    pairs."""
    x, y, z = (MultiPoly.variable(i, 3) for i in range(3))
    f = trace_map()
    inv = trace_invariant()
    r = PolyMap((z, y, x))
    r2 = PolyMap(((y * z) * 2 - x, z, y))
    ident = PolyMap.identity(3)
    return [
        ("invariant-preserved", inv.substitute(f) == inv),
        ("swap-is-reversor", check_reversor_identity(f, r)),
        ("partner-is-reversor", check_reversor_identity(f, r2)),
        ("reversors-are-involutions",
         compose(r, r) == ident and compose(r2, r2) == ident),
    ]
