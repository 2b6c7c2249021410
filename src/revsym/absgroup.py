"""Normal-form arithmetic in presented reversing-symmetry-group models.

Each model is generated by an optional torsion generator ``s``, an optional
second infinite-order generator ``t``, the infinite-order generator ``g`` and
a reversing generator ``r``.  Every element has the unique normal form
``s^a * t^b * g^n * r^j`` with the exponents in canonical ranges.  Words with
odd ``j`` conjugate the distinguished element f = g^k to its inverse, and
words with even ``j`` commute with it.

The nine models are the group structures this table covers when the
symmetry group S of f is C-infinity, C2 x C-infinity, Cp x C-infinity (p an
odd prime) or C-infinity x C-infinity; they are not every structure that
can occur.  Two are not covered: <g, r | r g r^-1 = g^-1> with f = g, where
S = <g, r^2> is C-infinity x C-infinity and every reversor has infinite
order, and S = C2 x C-infinity x C-infinity, which every GL(n,Z) input with
two independent units has, since -I is a symmetry.  Each of the nine is one
`GroupModel` row of the `_MODELS` table, which `make_model` returns with the
prime substituted.  A row gives r's action on the symmetry part as four
integers (ea, tau, eb, kappa):
r s^a t^b g^n r^-1 = s^(ea a + tau n) t^(eb b) g^(kappa b - n).
Multiplication conjugates by r with this one map, in one group law that is
evaluated in bulk, lists of left operands against lists of right ones.
``verify_theorem_claims`` checks, by exhaustive window enumeration, that
each model's reversor orders and structural invariants match its row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from .exactmath import _prime_powers


class Word(NamedTuple):
    """Normal form s^a * t^b * g^n * r^j; a named tuple, so that the window
    checks unpack and build words at plain-tuple cost."""

    a: int = 0
    b: int = 0
    n: int = 0
    j: int = 0


_new_word = tuple.__new__
_BLOCK = 4  # right operands per block of the reversor-product claim


@dataclass(frozen=True)
class GroupModel:
    """One presented model: a `_MODELS` row, where "p" and "2p" name the odd
    prime, or the copy of it that `make_model` returns with p substituted.

    display_name: the structure, as the paper writes it.
    torsion_order: order of the torsion generator s (1 = absent).
    r_order: order of the reversing generator (2, 4, or 2p).
    action: (ea, tau, eb, kappa), r's action on the symmetry part.
    reversor_orders: the predicted reversor orders (None = infinite).
    has_t: whether a second infinite-order generator t exists.
    f_word: the distinguished reversible element f = g^k.
    p: the odd prime parameter, where applicable.
    """

    tag: str
    display_name: str
    torsion_order: int | str
    r_order: int | str
    action: tuple
    reversor_orders: frozenset
    has_t: bool = False
    f_word: Word = Word(n=1)
    p: int | None = None

    @property
    def needs_prime(self) -> bool:
        """Whether the row names the prime; meaningful on table rows."""
        return self.torsion_order in _TIMES_P or self.r_order in _TIMES_P


_TIMES_P = {"p": 1, "2p": 2}

_MODELS = {model.tag: model for model in (
    GroupModel("dinf", "Dinf", 1, 2, (1, 0, 1, 0), frozenset({2})),
    GroupModel("c2xdinf", "C2 x Dinf", 2, 2, (1, 0, 1, 0), frozenset({2})),
    GroupModel("c4", "Cinf x| C4", 1, 4, (1, 0, 1, 0), frozenset({4})),
    # r g r^-1 = s g^-1 forces f to be an even power of g
    GroupModel("c2xcinf", "(C2 x Cinf) x| C2", 2, 2, (1, 1, 1, 0),
               frozenset({2, 4}), f_word=Word(n=2)),
    GroupModel("c2p", "Cinf x| C2p", 1, "2p", (1, 0, 1, 0),
               frozenset({2, "2p"})),
    GroupModel("cpxcinf", "(Cp x Cinf) x| C2", "p", 2, (-1, 0, 1, 0),
               frozenset({2})),
    GroupModel("cinfxdinf", "Cinf x Dinf", 1, 2, (1, 0, 1, 0),
               frozenset({2, None}), has_t=True),
    GroupModel("twisted", "(Cinf x Cinf) x| C2, twisted", 1, 2, (1, 0, 1, 1),
               frozenset({2, None}), has_t=True),
    GroupModel("invc2", "(Cinf x Cinf) x| C2, inverting", 1, 2, (1, 0, -1, 0),
               frozenset({2}), has_t=True),
)}

MODEL_TAGS = tuple(_MODELS)


def check_window(tag: str, p: int | None, window: int):
    """Refuse a window below 2p for the prime models.  A smaller window
    misses no reversor order, as `enumerate_words` runs j over all of
    Z/r_order at every window; the rule bounds p by the window.  It needs
    no primality test, so the CLI applies it before `make_model`
    trial-divides p: a p large enough to make that slow is refused at
    once, being far past any window that can be enumerated."""
    if _row(tag).needs_prime and p is not None and window < 2 * p:
        raise ValueError(f"window must be >= 2p = {2 * p}")


def _row(tag: str) -> GroupModel:
    if tag not in _MODELS:
        raise ValueError(
            f"unknown model tag {tag!r}; expected one of {MODEL_TAGS}")
    return _MODELS[tag]


def make_model(tag: str, p: int | None = None) -> GroupModel:
    """Construct one of the nine shipped models from its row, with the odd
    prime p substituted where the row is written against it."""
    row = _row(tag)
    if not row.needs_prime:
        p = None
    elif p is None or p < 3 or next(_prime_powers(p)) != (p, p):
        given = "none; pass --p" if p is None else p
        raise ValueError(f"p must be an odd prime, got {given}")

    def at_p(entry):
        return _TIMES_P[entry] * p if entry in _TIMES_P else entry

    return replace(row, torsion_order=at_p(row.torsion_order),
                   r_order=at_p(row.r_order),
                   reversor_orders=frozenset(map(at_p, row.reversor_orders)),
                   p=p)


def _products(model: GroupModel, lefts, rights):
    """The group law in bulk: u v for each u in `lefts` and v in `rights`,
    row by row in one flat list of plain tuples.  A left operand with odd j
    conjugates v's symmetry part past r by the model's action, applied once
    per right operand if any left operand needs it (even powers of r act
    trivially); then exponents add, the symmetry part being Abelian."""
    m, order = model.torsion_order, model.r_order
    ea, tau, eb, kappa = model.action
    acted = [(ea * a + tau * n, eb * b, kappa * b - n, j)
             for a, b, n, j in rights] if any(u[3] % 2 for u in lefts) else ()
    return [((ua + a) % m, ub + b, un + n, (uj + j) % order)
            for ua, ub, un, uj in lefts
            for a, b, n, j in (acted if uj % 2 else rights)]


def multiply(model: GroupModel, u: Word, v: Word) -> Word:
    """Product in normal form: the one entry of `_products`."""
    return _new_word(Word, _products(model, (u,), (v,))[0])


def invert(model: GroupModel, u: Word) -> Word:
    """(x r^j)^-1 = r^-j x^-1, which is the inverse of x's image under the
    (linear) action for odd j, and of x itself for even j, times r^-j."""
    a, b, n, j = u
    if j % 2:
        ea, tau, eb, kappa = model.action
        a, b, n = ea * a + tau * n, eb * b, kappa * b - n
    return _new_word(Word, (-a % model.torsion_order, -b, -n,
                            -j % model.r_order))


def word_order(model: GroupModel, u: Word):
    """Order of u computed from the normal form alone; None = infinite.

    A word on the reversing side squares into the symmetry part, so one
    squaring decides: if the square carries a free exponent the order is
    infinite, otherwise it is twice the order of the square: the lcm of
    those of s^a and r^j, where gcd(0, m) = m gives the identity order 1.
    """
    if u.j % 2 == 1:
        sq = multiply(model, u, u)
        if sq.b != 0 or sq.n != 0:
            return None
        return 2 * word_order(model, sq)
    if u.b != 0 or u.n != 0:
        return None
    return lcm(model.torsion_order // gcd(u.a, model.torsion_order),
               model.r_order // gcd(u.j, model.r_order))


def _split(model: GroupModel, words):
    """The symmetries and the reversors of f among `words`, in their order:
    u f = f u and u f = f^-1 u, from three evaluations of the law over all
    the words (f and f^-1 against them, and them against f)."""
    f = model.f_word
    f_u = _products(model, (f, invert(model, f)), words)
    u_f = _products(model, words, (f,))
    return ([u for u, x, y in zip(words, u_f, f_u) if x == y],
            [u for u, x, y in zip(words, u_f, f_u[len(words):]) if x == y])


def is_model_reversor(model: GroupModel, u: Word) -> bool:
    return bool(_split(model, (u,))[1])


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
            for u in _split(model, list(enumerate_words(model, window)))[1]]


@dataclass
class ClaimsReport:
    reversor_count: int
    order_spectrum: list
    claims: list  # (name, passed, detail)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.claims)


def verify_theorem_claims(model: GroupModel, window: int) -> ClaimsReport:
    """Exhaustively check the model's structural claims within the window:

    (i) f has reversors; (ii) their orders are the predicted ones; (iii)
    the product of two reversors is a symmetry; (iv) no reversor has odd
    finite order; (v) if only involutions are predicted, the symmetry part
    is Abelian; (vi) if r has order 2p, r^p is an involutory reversor; (vii)
    if infinite orders are predicted, r commutes with t iff kappa = 0 and
    reversors of infinite order exist.  A failed claim is recorded with
    passed False and its witness appended to the detail.
    """
    check_window(model.tag, model.p, window)
    reversors = enumerate_reversors(model, window)
    claims = []

    def record(name, passed, detail, witness=None):
        if not passed and witness is not None:
            detail = f"{detail}; witness {witness!r}"
        claims.append((name, passed, detail))

    record("reversors-nonempty", bool(reversors),
           f"{len(reversors)} reversors in window {window}")

    spectrum = {order for _, order in reversors}
    expected = model.reversor_orders
    observed, predicted = (sorted(s, key=lambda o: (o is None, o))
                           for s in (spectrum, expected))
    record("order-spectrum", spectrum == expected,
           f"observed {observed}, expected {predicted}", witness=spectrum)

    # the verdict depends only on the word: split the distinct products in
    # one call.  They come a block of right operands at a time, so that the
    # action is applied to each block once; a witness is named row by row
    words = [u for u, _ in reversors]
    products = set(chain.from_iterable(
        _products(model, words, words[i:i + _BLOCK])
        for i in range(0, len(words), _BLOCK)))
    symmetric = set(_split(model, list(products))[0])
    bad = None if symmetric == products else next(
        (u, v) for u in words
        for v, w in zip(words, _products(model, (u,), words))
        if w not in symmetric)
    record("reversor-products-are-symmetries", bad is None,
           f"checked {len(reversors)}^2 products", witness=bad)

    odd = [u for u, order in reversors
           if order is not None and order % 2 == 1]
    record("no-odd-order-reversor", not odd,
           "every finite reversor order is even",
           witness=odd[0] if odd else None)

    if expected == {2}:
        record("all-reversors-involutions",
               all(order == 2 for _, order in reversors),
               "every reversor is an involution")
        symmetries = _split(model, list(enumerate_words(model, window)))[0]
        bad = None
        for i, u in enumerate(symmetries):
            # the row u v and the column v u over the later symmetries v
            later = symmetries[i + 1:]
            row = _products(model, (u,), later)
            column = _products(model, later, (u,))
            if row != column:
                bad = next((u, v) for v, uv, vu in zip(later, row, column)
                           if uv != vu)
                break
        record("symmetry-part-abelian", bad is None,
               f"checked {len(symmetries)}^2 commutators", witness=bad)

    if model.p is not None and model.r_order == 2 * model.p:
        rp = Word(j=model.p)
        record("r^p-involutory-reversor",
               is_model_reversor(model, rp) and word_order(model, rp) == 2,
               f"r^{model.p} reverses f and has order 2", witness=rp)

    if None in expected:
        expect_commute = model.action[3] == 0
        r, t = Word(j=1), Word(b=1)
        commutes = multiply(model, r, t) == multiply(model, t, r)
        record("r-commutes-with-t" if expect_commute else "r-twists-t",
               commutes == expect_commute,
               "conjugation action of r on t matches the model")
        infinite = [u for u, order in reversors if order is None and u.b != 0]
        record("infinite-order-reversors-exist", bool(infinite),
               f"{len(infinite)} reversors of infinite order in window")

    return ClaimsReport(
        reversor_count=len(reversors),
        order_spectrum=observed,
        claims=claims)
