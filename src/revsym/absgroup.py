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
`GroupModel` row of the table `_models` builds at an odd prime p, which
`make_model` returns.  A row gives r's action on the symmetry part as four
integers (ea, tau, eb, kappa):
r s^a t^b g^n r^-1 = s^(ea a + tau n) t^(eb b) g^(kappa b - n).
`multiply`, the one group law, conjugates by r with this one map: the
product u v adds the exponents of u to those of v, or of v's image under
the action when u's j is odd, reducing a mod m and j mod r_order.
``verify_theorem_claims`` checks, by exhaustive window enumeration, that
each model's reversor orders and structural invariants match its row.
Each window word is split into symmetry or reversor as it is enumerated,
by three products at most, so a run holds only the two lists of words.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product
from math import gcd, lcm

from .exactmath import _Immutable, _Record, _prime_powers


Word = namedtuple("Word", "a b n j", defaults=(0, 0, 0, 0))
Word.__doc__ = """Normal form s^a * t^b * g^n * r^j; a named tuple, so that the
window checks unpack and build words at plain-tuple cost."""


class GroupModel(_Immutable, _Record):
    """One presented model: a row of `_models`, built at an odd prime p.

    display_name: the structure, as the paper writes it.
    torsion_order: order of the torsion generator s (1 = absent).
    r_order: order of the reversing generator (2, 4, or 2p).
    action: (ea, tau, eb, kappa), r's action on the symmetry part.
    reversor_orders: the predicted reversor orders (None = infinite).
    has_t: whether a second infinite-order generator t exists.
    f_word: the distinguished reversible element f = g^k.
    p: the odd prime, for the two rows built from it; None for the others.
    """

    __slots__ = ("tag", "display_name", "torsion_order", "r_order", "action",
                 "reversor_orders", "has_t", "f_word", "p")

    def __init__(self, tag, display_name, torsion_order, r_order, action,
                 reversor_orders, has_t=False, f_word=Word(n=1), p=None):
        self._fill(tag, display_name, torsion_order, r_order, action,
                   reversor_orders, has_t, f_word, p)


def _models(p: int) -> dict:
    """The nine rows, by tag, at the odd prime p: c2p and cpxcinf are built
    from p and carry it; the seven others are the same at every p."""
    return {model.tag: model for model in (
        GroupModel("dinf", "Dinf", 1, 2, (1, 0, 1, 0), frozenset({2})),
        GroupModel("c2xdinf", "C2 x Dinf", 2, 2, (1, 0, 1, 0),
                   frozenset({2})),
        GroupModel("c4", "Cinf x| C4", 1, 4, (1, 0, 1, 0), frozenset({4})),
        # r g r^-1 = s g^-1 forces f to be an even power of g
        GroupModel("c2xcinf", "(C2 x Cinf) x| C2", 2, 2, (1, 1, 1, 0),
                   frozenset({2, 4}), f_word=Word(n=2)),
        GroupModel("c2p", "Cinf x| C2p", 1, 2 * p, (1, 0, 1, 0),
                   frozenset({2, 2 * p}), p=p),
        GroupModel("cpxcinf", "(Cp x Cinf) x| C2", p, 2, (-1, 0, 1, 0),
                   frozenset({2}), p=p),
        GroupModel("cinfxdinf", "Cinf x Dinf", 1, 2, (1, 0, 1, 0),
                   frozenset({2, None}), has_t=True),
        GroupModel("twisted", "(Cinf x Cinf) x| C2, twisted", 1, 2,
                   (1, 0, 1, 1), frozenset({2, None}), has_t=True),
        GroupModel("invc2", "(Cinf x Cinf) x| C2, inverting", 1, 2,
                   (1, 0, -1, 0), frozenset({2}), has_t=True),
    )}


_MODELS = _models(3)  # the rows without a prime, and every tag's row.p

MODEL_TAGS = tuple(_MODELS)


def check_window(tag: str, p: int | None, window: int):
    """Refuse a window below 2p for the prime models.  A smaller window
    misses no reversor order, as `enumerate_words` runs j over all of
    Z/r_order at every window; the rule bounds p by the window.  It needs
    no primality test, so the CLI applies it before `make_model`
    trial-divides p: a p large enough to make that slow is refused at
    once, being far past any window that can be enumerated."""
    if _row(tag).p is not None and p is not None and window < 2 * p:
        raise ValueError(f"window must be >= 2p = {2 * p}")


def _row(tag: str) -> GroupModel:
    if tag not in _MODELS:
        raise ValueError(
            f"unknown model tag {tag!r}; expected one of {MODEL_TAGS}")
    return _MODELS[tag]


def make_model(tag: str, p: int | None = None) -> GroupModel:
    """One of the nine shipped models: the row of `_MODELS` for a tag
    without a prime, whatever p is given, and for c2p and cpxcinf the row
    of `_models` at p, which must be an odd prime."""
    row = _row(tag)
    if row.p is None:
        return row
    if p is None or p < 3 or next(_prime_powers(p)) != (p, p):
        given = "none; pass --p" if p is None else p
        raise ValueError(f"p must be an odd prime, got {given}")
    return _models(p)[tag]


def multiply(model: GroupModel, u: Word, v: Word) -> Word:
    """The group law: u v in normal form.  If u's j is odd, v's symmetry
    part is first carried through r's action (even powers of r act
    trivially); then the exponents add, a mod torsion_order and j mod
    r_order."""
    a, b, n, j = v
    if u[3] % 2:
        ea, tau, eb, kappa = model.action
        a, b, n = ea * a + tau * n, eb * b, kappa * b - n
    return Word((u[0] + a) % model.torsion_order, u[1] + b, u[2] + n,
                (u[3] + j) % model.r_order)


def invert(model: GroupModel, u: Word) -> Word:
    """(x r^j)^-1 = r^-j x^-1 = x'^-1 r^-j, where r^j x = x' r^j: x' is x's
    image under the (linear) action for odd j, and x itself for even j.
    So each exponent of the product r^j x is negated."""
    a, b, n, j = multiply(model, Word(j=u[3]), Word(*u[:3]))
    return Word(-a % model.torsion_order, -b, -n, -j % model.r_order)


def _orders(model: GroupModel, words):
    """The orders of `words`, from their normal forms and one product per
    word.  A word on the reversing side squares into the symmetry part, so
    its square decides: if the square carries a free exponent the order is
    infinite, otherwise it is twice the order of the square.  That of a
    word with even j and no free exponent is the lcm of those of s^a and
    r^j, where gcd(0, m) = m gives the identity order 1.
    """
    m, r_order = model.torsion_order, model.r_order
    orders = []
    for u in words:
        odd = u[3] % 2
        a, b, n, j = multiply(model, u, u) if odd else u
        order = None if b or n else lcm(m // gcd(a, m),
                                        r_order // gcd(j, r_order))
        orders.append(order if order is None or not odd else 2 * order)
    return orders


def _split(model: GroupModel, words):
    """The symmetries and the reversors of f among `words`, in their order,
    in one pass: u f = f u, or else u f = f^-1 u."""
    f = model.f_word
    f_inv = invert(model, f)
    symmetries, reversors = [], []
    for u in words:
        u_f = multiply(model, u, f)
        if u_f == multiply(model, f, u):
            symmetries.append(u)
        elif u_f == multiply(model, f_inv, u):
            reversors.append(u)
    return symmetries, reversors


def enumerate_words(model: GroupModel, window: int):
    """All words with free exponents in [-window, window], sorted."""
    free = range(-window, window + 1)
    return map(Word._make, product(range(model.torsion_order),
                                   free if model.has_t else (0,), free,
                                   range(model.r_order)))


def _window(model: GroupModel, window: int):
    """f's symmetries in the window and its reversors with their orders."""
    if window < 1:
        raise ValueError("window must be >= 1")
    symmetries, reversors = _split(model, enumerate_words(model, window))
    return symmetries, list(zip(reversors, _orders(model, reversors)))


class ClaimsReport(_Record):
    __slots__ = ("reversor_count", "order_spectrum", "claims")
    __hash__ = None  # mutable

    def __init__(self, reversor_count: int, order_spectrum: list,
                 claims: list):  # claims: (name, passed, detail)
        self._fill(reversor_count, order_spectrum, claims)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.claims)


def verify_theorem_claims(model: GroupModel, window: int) -> ClaimsReport:
    """Exhaustively check the model's structural claims within the window:

    (i) f has reversors; (ii) their orders are the predicted ones; (iii)
    the product of two reversors is a symmetry, as every reversor has odd j
    and the row's generators commute with f; (iv) no reversor has odd
    finite order; (v) if only involutions are predicted, the symmetry part
    is Abelian, as every symmetry has even j and the row's generators
    commute; (vi) if r has order 2p, r^p is an involutory reversor; (vii) if
    infinite orders are predicted, r commutes with t iff kappa = 0 and
    reversors of infinite order exist.  A failed claim is recorded with
    passed False and its witness appended to the detail.
    """
    check_window(model.tag, model.p, window)
    symmetries, reversors = _window(model, window)
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

    # a reversor has odd j, so the product of two has even j and lies in
    # <s, t, g, r^2>: a symmetry if these generators commute with f; and
    # the symmetry part is Abelian if they commute with each other
    f = model.f_word
    gens = {name: u for name, u, present in (
        ("s", Word(a=1), model.torsion_order > 1),
        ("t", Word(b=1), model.has_t), ("g", Word(n=1), True),
        ("r^2", Word(j=2), model.r_order > 2)) if present}
    names = ", ".join(gens)
    bad = next((u for u, _ in reversors if u.j % 2 == 0), None) or next(
        (x for x in gens.values()
         if multiply(model, x, f) != multiply(model, f, x)), None)
    record("reversor-products-are-symmetries", bad is None,
           f"{len(reversors)} reversors, all of odd j, whose products lie in "
           f"<{names}>, which commutes with f", witness=bad)

    odd = [u for u, order in reversors
           if order is not None and order % 2 == 1]
    record("no-odd-order-reversor", not odd,
           "every finite reversor order is even",
           witness=odd[0] if odd else None)

    if expected == {2}:
        record("all-reversors-involutions",
               all(order == 2 for _, order in reversors),
               "every reversor is an involution")
        bad = next((u for u in symmetries if u.j % 2), None) or next(
            ((u, v) for u, v in combinations(gens.values(), 2)
             if multiply(model, u, v) != multiply(model, v, u)), None)
        record("symmetry-part-abelian", bad is None,
               f"{len(symmetries)} symmetries, all in <{names}>, "
               "whose generators commute", witness=bad)

    if model.p is not None and model.r_order == 2 * model.p:
        # r^p is in every window, since j runs over all of Z/2p
        rp = Word(j=model.p)
        record("r^p-involutory-reversor", dict(reversors).get(rp) == 2,
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
