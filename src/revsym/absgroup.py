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
Multiplication conjugates by r with this one map, in one group law,
`_law`, evaluated in bulk over lists of left and right operands.  It works
on packed words: each word is one int with a field for each exponent, the
n and b fields shifted by an offset so that every field is nonnegative.  A
product is then one int addition: the int of u plus that of v, or of v's
image under the action when u's j is odd.  Reducing the a and j fields mod
m and r_order, and taking the offsets off, gives the normal form.  The
window claims reduce only what they need: the reversor-product claim the
distinct sums of all its pairs, and the commutator claim the sums where
u v and v u differ.
``verify_theorem_claims`` checks, by exhaustive window enumeration, that
each model's reversor orders and structural invariants match its row.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from math import gcd, lcm

from .exactmath import _Immutable, _Record, _prime_powers


Word = namedtuple("Word", "a b n j", defaults=(0, 0, 0, 0))
Word.__doc__ = """Normal form s^a * t^b * g^n * r^j; a named tuple, so that the
window checks unpack and build words at plain-tuple cost."""
_BLOCK = 16  # rows per evaluation of the commutator claim


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


def _law(model: GroupModel, lefts, rights=None):
    """The group law in bulk on packed words (see the module docstring):
    for each u in `lefts`, the row of sums u v over v in `rights` (with
    `rights` None, the one sum u u), a list of ints built when the returned
    iterator reaches it; and the reduction, from such sums to normal-form
    tuples.

    From the lowest, the fields are n + offset, b + offset, a mod m and
    j mod r_order, `width` bits each.  offset bounds every exponent of an
    operand and of its image under the action, so each field of a key lies
    in [0, 2 offset] and each field of a sum of two keys in [0, 4 offset],
    clear of the next field.  The action is applied once per right operand,
    if any left operand has odd j (even powers of r act trivially).
    """
    m, order = model.torsion_order, model.r_order
    ea, tau, eb, kappa = model.action
    operands = lefts if rights is None else rights
    big = max(map(abs, chain(*lefts, *operands)), default=0)
    offset = max((1 + sum(map(abs, model.action))) * big, m, order)
    width = (4 * offset).bit_length()
    mask, low, w2, w3 = (1 << width) - 1, 2 * offset, 2 * width, 3 * width

    def pack(words):
        return [n + offset + (b + offset << width) + (a % m << w2)
                + (j % order << w3) for a, b, n, j in words]

    def reduce(sums):
        return [((s >> w2 & mask) % m, (s >> width & mask) - low,
                 (s & mask) - low, (s >> w3) % order) for s in sums]

    odd = [u[3] % 2 for u in lefts]
    plain = pack(operands)
    acted = pack([(ea * a + tau * n, eb * b, kappa * b - n, j)
                  for a, b, n, j in operands]) if any(odd) else plain
    if rights is None:
        return ([ku + (kv if u_odd else ku)]
                for ku, kv, u_odd in zip(plain, acted, odd)), reduce
    return ([ku + kv for kv in (acted if u_odd else plain)]
            for ku, u_odd in zip(pack(lefts), odd)), reduce


def _products(model: GroupModel, lefts, rights):
    """`_law`'s products as normal-form tuples, row by row in one list."""
    rows, reduce = _law(model, lefts, rights)
    return reduce(chain.from_iterable(rows))


def _noncommuting(model: GroupModel, words):
    """The first pair (u, v) of `words`, u before v, with u v != v u, or
    None: each row u v against the column v u over the later words v, for
    a block of rows at a time.  Both evaluations of a block see the same
    words, so share one packing, where equal sums reduce to equal products:
    only unequal ones are reduced."""
    for start in range(0, len(words), _BLOCK):
        block, tail = words[start:start + _BLOCK], words[start:]
        rows, reduce_rows = _law(model, block, tail)
        columns, reduce_columns = _law(model, tail, block)
        for c, (u, row, column) in enumerate(zip(block, rows, zip(*columns))):
            row, column = row[c + 1:], list(column[c + 1:])
            if row != column:
                bad = next(((u, v) for v, uv, vu in zip(
                    tail[c + 1:], reduce_rows(row), reduce_columns(column))
                    if uv != vu), None)
                if bad:
                    return bad
    return None


def multiply(model: GroupModel, u: Word, v: Word) -> Word:
    """Product in normal form: the one entry of `_products`."""
    return Word._make(_products(model, (u,), (v,))[0])


def invert(model: GroupModel, u: Word) -> Word:
    """(x r^j)^-1 = r^-j x^-1, which is the inverse of x's image under the
    (linear) action for odd j, and of x itself for even j, times r^-j."""
    a, b, n, j = u
    if j % 2:
        ea, tau, eb, kappa = model.action
        a, b, n = ea * a + tau * n, eb * b, kappa * b - n
    return Word(-a % model.torsion_order, -b, -n, -j % model.r_order)


def word_order(model: GroupModel, u: Word):
    """Order of u computed from the normal form alone; None = infinite."""
    return _orders(model, [u])[0]


def _orders(model: GroupModel, words):
    """The orders of `words`, from their normal forms and one evaluation of
    the law.  A word on the reversing side squares into the symmetry part,
    so one squaring decides: if the square carries a free exponent the order
    is infinite, otherwise it is twice the order of the square.  That of a
    word with even j and no free exponent is the lcm of those of s^a and
    r^j, where gcd(0, m) = m gives the identity order 1.
    """
    m, r_order = model.torsion_order, model.r_order
    odd = [u for u in words if u[3] % 2]
    rows, reduce = _law(model, odd)
    squares = iter(reduce(chain.from_iterable(rows)))
    orders = []
    for u in words:
        a, b, n, j = next(squares) if u[3] % 2 else u
        order = None if b or n else lcm(m // gcd(a, m),
                                        r_order // gcd(j, r_order))
        orders.append(order if order is None or u[3] % 2 == 0 else 2 * order)
    return orders


def _split(model: GroupModel, words):
    """The symmetries and the reversors of f among `words`, in their order:
    u f = f u and u f = f^-1 u, from three evaluations of the law over all
    the words (f and f^-1 against them, and them against f)."""
    f = model.f_word
    f_u = _products(model, (f, invert(model, f)), words)
    u_f = _products(model, words, (f,))
    return ([u for u, x, y in zip(words, u_f, f_u) if x == y],
            [u for u, x, y in zip(words, u_f, f_u[len(words):]) if x == y])


def enumerate_words(model: GroupModel, window: int):
    """All words with free exponents in [-window, window], sorted."""
    t_range = range(-window, window + 1) if model.has_t else (0,)
    for a in range(model.torsion_order):
        for b in t_range:
            for n in range(-window, window + 1):
                for j in range(model.r_order):
                    yield Word(a, b, n, j)


def _window(model: GroupModel, window: int):
    """f's symmetries in the window and its reversors with their orders."""
    if window < 1:
        raise ValueError("window must be >= 1")
    symmetries, reversors = _split(model, list(enumerate_words(model, window)))
    return symmetries, list(zip(reversors, _orders(model, reversors)))


def enumerate_reversors(model: GroupModel, window: int):
    """All reversors of f within the window, with their orders."""
    return _window(model, window)[1]


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
    the product of two reversors is a symmetry; (iv) no reversor has odd
    finite order; (v) if only involutions are predicted, the symmetry part
    is Abelian; (vi) if r has order 2p, r^p is an involutory reversor; (vii)
    if infinite orders are predicted, r commutes with t iff kappa = 0 and
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

    # the verdict depends only on the product: of the packed sums of all
    # pairs, only the distinct ones are reduced and split, and a witness is
    # the first pair, row by row, whose sum reduces to no symmetry
    words = [u for u, _ in reversors]
    rows, reduce = _law(model, words, words)
    distinct = list(set(chain.from_iterable(rows)))
    products = reduce(distinct)
    symmetric = set(_split(model, products)[0])
    wrong = {s for s, w in zip(distinct, products) if w not in symmetric}
    bad = next((u, v) for u, row in zip(words, _law(model, words, words)[0])
               for v, s in zip(words, row) if s in wrong) if wrong else None
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
        bad = _noncommuting(model, symmetries)
        record("symmetry-part-abelian", bad is None,
               f"checked {len(symmetries)}^2 commutators", witness=bad)

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
