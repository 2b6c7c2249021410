"""Normal-form arithmetic in presented reversing-symmetry-group models.

Each model is a group generated by (a subset of) four letters:

* an optional central or inverted torsion generator (written ``s`` or ``h``),
* an optional second infinite-order generator ``t``,
* the main infinite-order generator ``g``,
* a reversing generator ``r`` of order 2, 4 or 2p.

Every element has the unique normal form ``torsion^a * t^b * g^n * r^j`` with
the exponents in canonical ranges; multiplication rewrites products into this
shape by conjugating the right factor's symmetry part past the left factor's
``r`` power.  A distinguished reversible element f (a power of g) is attached
to each model; words with odd ``j`` conjugate f to its inverse and words with
even ``j`` commute with it.

The nine shipped models realize the group structures that can occur when the
symmetry group of f is C-infinity, C2 x C-infinity, Cp x C-infinity (p an odd
prime) or C-infinity x C-infinity, and ``verify_theorem_claims`` checks, by
exhaustive window enumeration, that reversor order spectra and structural
invariants of each model match the predicted structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

MODEL_TAGS = (
    "dinf",        # D-infinity: all reversors involutions
    "c2xdinf",     # C2 x D-infinity
    "c4",          # C-infinity semidirect C4: all reversors of order 4
    "c2xcinf",     # (C2 x C-infinity) semidirect C2: orders 2 and 4 occur
    "c2p",         # C-infinity semidirect C_{2p}: orders 2 and 2p occur
    "cpxcinf",     # (Cp x C-infinity) semidirect C2: all involutions
    "cinfxdinf",   # C-infinity x D-infinity: r commutes with t
    "twisted",     # (C-inf x C-inf) semidirect C2 with r t r = t g
    "invc2",       # (C-inf x C-inf) semidirect C2 with r t r = t^-1
)

_DISPLAY = {
    "dinf": "Dinf",
    "c2xdinf": "C2 x Dinf",
    "c4": "Cinf x| C4",
    "c2xcinf": "(C2 x Cinf) x| C2",
    "c2p": "Cinf x| C2p",
    "cpxcinf": "(Cp x Cinf) x| C2",
    "cinfxdinf": "Cinf x Dinf",
    "twisted": "(Cinf x Cinf) x| C2, twisted",
    "invc2": "(Cinf x Cinf) x| C2, inverting",
}


class ClaimViolated(Exception):
    """A structural claim failed inside a model; carries the witness.  This
    must never fire: firing indicates an implementation bug."""

    def __init__(self, claim, witness):
        super().__init__(f"claim {claim!r} violated by {witness!r}")
        self.claim = claim
        self.witness = witness


@dataclass(frozen=True)
class Word:
    """Normal form torsion^a * t^b * g^n * r^j."""

    a: int = 0
    b: int = 0
    n: int = 0
    j: int = 0


IDENTITY = Word()


@dataclass(frozen=True)
class GroupModel:
    """One presented model; `tag` selects the relation set.

    torsion_order: order of the explicit torsion generator (1 = absent).
    has_t: whether a second infinite-order generator t exists.
    r_order: order of the reversing generator (2, 4, or 2p).
    twist: for t-models, r t r^-1 = t * g^twist; None means r t r^-1 = t^-1.
    torsion_inverted: r inverts the torsion generator instead of fixing it.
    f_word: the distinguished reversible element, a power of g.
    p: the odd prime parameter, where applicable.
    """

    tag: str
    torsion_order: int
    has_t: bool
    r_order: int
    twist: int | None
    torsion_inverted: bool
    f_word: Word
    p: int | None = None

    @property
    def display_name(self) -> str:
        return _DISPLAY.get(self.tag, self.tag)


def _require_odd_prime(p):
    if p is None or p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"p must be an odd prime, got {p}")
        d += 2


def make_model(tag: str, p: int | None = None) -> GroupModel:
    """Construct one of the nine shipped models."""
    if tag == "dinf":
        return GroupModel(tag, 1, False, 2, 0, False, Word(n=1))
    if tag == "c2xdinf":
        return GroupModel(tag, 2, False, 2, 0, False, Word(n=1))
    if tag == "c4":
        return GroupModel(tag, 1, False, 4, 0, False, Word(n=1))
    if tag == "c2xcinf":
        # rho g rho = s g^-1 forces f to be an even power of g
        return GroupModel(tag, 2, False, 2, 0, False, Word(n=2))
    if tag == "c2p":
        _require_odd_prime(p)
        return GroupModel(tag, 1, False, 2 * p, 0, False, Word(n=1), p=p)
    if tag == "cpxcinf":
        _require_odd_prime(p)
        return GroupModel(tag, p, False, 2, 0, True, Word(n=1), p=p)
    if tag == "cinfxdinf":
        return GroupModel(tag, 1, True, 2, 0, False, Word(n=1))
    if tag == "twisted":
        return GroupModel(tag, 1, True, 2, 1, False, Word(n=1))
    if tag == "invc2":
        return GroupModel(tag, 1, True, 2, None, False, Word(n=1))
    raise ValueError(f"unknown model tag {tag!r}; expected one of {MODEL_TAGS}")


def _sigma(model: GroupModel, sym):
    """Conjugation of a symmetry-part triple (a, b, n) by r (one power)."""
    a, b, n = sym
    if model.tag == "c2xcinf":
        return ((a + n) % 2, 0, -n)
    if model.torsion_inverted:
        return ((-a) % model.torsion_order, 0, -n)
    if model.has_t:
        if model.twist is None:
            return (0, -b, -n)
        return (0, b, model.twist * b - n)
    return (a % model.torsion_order, 0, -n)


def _conj_by_r_pow(model: GroupModel, j: int, sym):
    if j % 2 == 0:
        # even powers of r act trivially on the symmetry part in every model
        return sym
    return _sigma(model, sym)


def multiply(model: GroupModel, u: Word, v: Word) -> Word:
    """Product in normal form: conjugate v's symmetry part past r^u.j, then
    add exponents (the symmetry part is Abelian in every model)."""
    a2, b2, n2 = _conj_by_r_pow(model, u.j, (v.a, v.b, v.n))
    return Word((u.a + a2) % model.torsion_order,
                u.b + b2,
                u.n + n2,
                (u.j + v.j) % model.r_order)


def invert(model: GroupModel, u: Word) -> Word:
    jinv = (-u.j) % model.r_order
    a, b, n = _conj_by_r_pow(model, jinv, (-u.a, -u.b, -u.n))
    return Word(a % model.torsion_order, b, n, jinv)


def word_pow(model: GroupModel, u: Word, k: int) -> Word:
    if k < 0:
        return word_pow(model, invert(model, u), -k)
    result = IDENTITY
    for _ in range(k):
        result = multiply(model, result, u)
    return result


def word_order(model: GroupModel, u: Word):
    """Order of u computed from the normal form; None = infinite.

    A word on the reversing side squares into the symmetry part, so one
    squaring decides: if the square carries a free exponent the order is
    infinite, otherwise it is twice the (finite, analytic) torsion order of
    the square.
    """
    if u == IDENTITY:
        return 1
    if u.j % 2 == 1:
        sq = multiply(model, u, u)
        if sq == IDENTITY:
            return 2
        if sq.b != 0 or sq.n != 0:
            return None
        return 2 * word_order(model, sq)
    if u.b != 0 or u.n != 0:
        return None
    o_torsion = (model.torsion_order // gcd(u.a, model.torsion_order)
                 if u.a else 1)
    o_r = model.r_order // gcd(u.j, model.r_order) if u.j else 1
    return lcm(o_torsion, o_r)


def is_model_symmetry(model: GroupModel, u: Word) -> bool:
    f = model.f_word
    conj = multiply(model, multiply(model, u, f), invert(model, u))
    return conj == f


def is_model_reversor(model: GroupModel, u: Word) -> bool:
    f = model.f_word
    conj = multiply(model, multiply(model, u, f), invert(model, u))
    return conj == invert(model, f)


def enumerate_words(model: GroupModel, window: int):
    """All words with free exponents in [-window, window], sorted."""
    t_range = range(-window, window + 1) if model.has_t else (0,)
    for a in range(model.torsion_order):
        for b in t_range:
            for n in range(-window, window + 1):
                for j in range(model.r_order):
                    yield Word(a, b, n, j)


def enumerate_reversors(model: GroupModel, window: int):
    """All reversors of f within the window, with their orders."""
    if window < 1:
        raise ValueError("window must be >= 1")
    return [(u, word_order(model, u))
            for u in enumerate_words(model, window)
            if is_model_reversor(model, u)]


def format_word(model: GroupModel, u: Word) -> str:
    torsion_name = "h" if model.torsion_inverted else "s"
    parts = []
    if u.a:
        parts.append(torsion_name if u.a == 1 else f"{torsion_name}^{u.a}")
    if u.b:
        parts.append("t" if u.b == 1 else f"t^{u.b}")
    if u.n:
        parts.append("g" if u.n == 1 else f"g^{u.n}")
    if u.j:
        parts.append("r" if u.j == 1 else f"r^{u.j}")
    return "*".join(parts) if parts else "1"


_EXPECTED_SPECTRA = {
    "dinf": lambda m: {2},
    "c2xdinf": lambda m: {2},
    "c4": lambda m: {4},
    "c2xcinf": lambda m: {2, 4},
    "c2p": lambda m: {2, 2 * m.p},
    "cpxcinf": lambda m: {2},
    "cinfxdinf": lambda m: {2, None},
    "twisted": lambda m: {2, None},
    "invc2": lambda m: {2},
}

_ALL_INVOLUTION_TAGS = ("dinf", "c2xdinf", "cpxcinf", "invc2")


@dataclass
class ClaimsReport:
    tag: str
    p: int | None
    window: int
    reversor_count: int
    order_spectrum: list
    claims: list  # (name, passed, detail)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.claims)


def verify_theorem_claims(model: GroupModel, window: int) -> ClaimsReport:
    """Exhaustively check the model's structural claims within the window:

    (i) f has reversors; (ii) the reversor order spectrum matches the model's
    predicted structure; (iii) the product of two reversors is a symmetry;
    (iv) no reversor has odd finite order; (v) in all-involution models the
    symmetry part is Abelian; (vi) in the 2p model, r^p is an involutory
    reversor.  Raises ClaimViolated on any failure.
    """
    if model.p is not None and window < 2 * model.p:
        raise ValueError(f"window must be >= 2p = {2 * model.p}")
    reversors = enumerate_reversors(model, window)
    claims = []

    def record(name, passed, detail, witness=None):
        claims.append((name, passed, detail))
        if not passed:
            raise ClaimViolated(name, witness)

    record("reversors-nonempty", bool(reversors),
           f"{len(reversors)} reversors in window {window}")

    spectrum = {order for _, order in reversors}
    expected = _EXPECTED_SPECTRA[model.tag](model)
    record("order-spectrum", spectrum == expected,
           f"observed {sorted(spectrum, key=str)}, "
           f"expected {sorted(expected, key=str)}",
           witness=spectrum)

    bad = None
    for u, _ in reversors:
        for v, _ in reversors:
            if not is_model_symmetry(model, multiply(model, u, v)):
                bad = (u, v)
                break
        if bad:
            break
    record("reversor-products-are-symmetries", bad is None,
           f"checked {len(reversors)}^2 products", witness=bad)

    odd = [u for u, order in reversors
           if order is not None and order % 2 == 1]
    record("no-odd-order-reversor", not odd,
           "every finite reversor order is even",
           witness=odd[0] if odd else None)

    if model.tag in _ALL_INVOLUTION_TAGS:
        record("all-reversors-involutions",
               all(order == 2 for _, order in reversors),
               "every reversor is an involution")
        symmetries = [u for u in enumerate_words(model, window)
                      if is_model_symmetry(model, u)]
        bad = None
        for u in symmetries:
            for v in symmetries:
                if multiply(model, u, v) != multiply(model, v, u):
                    bad = (u, v)
                    break
            if bad:
                break
        record("symmetry-part-abelian", bad is None,
               f"checked {len(symmetries)}^2 commutators", witness=bad)

    if model.tag == "c2p":
        rp = Word(j=model.p)
        record("r^p-involutory-reversor",
               is_model_reversor(model, rp) and word_order(model, rp) == 2,
               f"r^{model.p} reverses f and has order 2", witness=rp)

    if model.tag in ("cinfxdinf", "twisted"):
        expect_commute = model.tag == "cinfxdinf"
        r, t = Word(j=1), Word(b=1)
        commutes = multiply(model, r, t) == multiply(model, t, r)
        record("r-commutes-with-t" if expect_commute else "r-twists-t",
               commutes == expect_commute,
               "conjugation action of r on t matches the model")
        infinite = [u for u, order in reversors if order is None and u.b != 0]
        record("infinite-order-reversors-exist", bool(infinite),
               f"{len(infinite)} reversors of infinite order in window")

    return ClaimsReport(
        tag=model.tag, p=model.p, window=window,
        reversor_count=len(reversors),
        order_spectrum=sorted(spectrum, key=lambda o: (o is None, o)),
        claims=claims)
