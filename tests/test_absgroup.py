import itertools
import random
import tracemalloc
from dataclasses import astuple, dataclass
from math import gcd, lcm

import pytest

import revsym.absgroup as absgroup
from revsym.absgroup import (
    MODEL_TAGS,
    GroupModel,
    Word,
    check_window,
    enumerate_words,
    invert,
    make_model,
    multiply,
    verify_theorem_claims,
)
from test_records import replaced

IDENTITY = Word()
R = Word(j=1)
G = Word(n=1)
S = Word(a=1)
T = Word(b=1)
R2 = Word(j=2)


def is_model_symmetry(model: GroupModel, u: Word) -> bool:
    """u f u^-1 = f, by two products and an inverse: a reference for the
    split of a window into symmetries and reversors."""
    return multiply(model, multiply(model, u, model.f_word),
                    invert(model, u)) == model.f_word


def is_model_reversor(model: GroupModel, u: Word) -> bool:
    """u f u^-1 = f^-1, by the library's split of the one word u."""
    return bool(absgroup._split(model, (u,))[1])


def twisted_model(k: int) -> GroupModel:
    """Variant of the twisted model with r t r^-1 = t g^k; exercises the
    generator-change normalization t~ = t g^(k // 2)."""
    return replaced(make_model("twisted"), action=(1, 0, 1, k))


def word_order_iterative(model: GroupModel, u: Word, cap: int = 64):
    """Cross-check oracle: naive repeated multiplication up to `cap`."""
    acc = u
    for k in range(1, cap + 1):
        if acc == IDENTITY:
            return k
        acc = multiply(model, acc, u)
    return None


def word_pow(model: GroupModel, u: Word, k: int) -> Word:
    """u^k for k >= 0, by repeated multiplication."""
    result = IDENTITY
    for _ in range(k):
        result = multiply(model, result, u)
    return result


def random_word(rng, model, window=10):
    return Word(rng.randrange(model.torsion_order),
                rng.randint(-window, window) if model.has_t else 0,
                rng.randint(-window, window),
                rng.randrange(model.r_order))


class TestMultiplication:
    def test_identity_neutral(self):
        rng = random.Random(5)
        for tag in MODEL_TAGS:
            model = make_model(tag, p=3)
            for _ in range(20):
                u = random_word(rng, model)
                assert multiply(model, u, IDENTITY) == u
                assert multiply(model, IDENTITY, u) == u

    def test_dinf_defining_relation(self):
        model = make_model("dinf")
        # r g r = g^-1
        assert multiply(model, multiply(model, R, G), R) == Word(n=-1)

    def test_case3_defining_relation(self):
        model = make_model("c2xcinf")
        # rho g rho = s g^-1
        assert multiply(model, multiply(model, R, G), R) == Word(a=1, n=-1)

    def test_associativity_random(self):
        rng = random.Random(11)
        for tag in MODEL_TAGS:
            model = make_model(tag, p=5)
            for _ in range(400):
                u, v, w = (random_word(rng, model) for _ in range(3))
                assert multiply(model, multiply(model, u, v), w) == \
                    multiply(model, u, multiply(model, v, w))

    def test_inverse(self):
        rng = random.Random(17)
        for tag in MODEL_TAGS:
            model = make_model(tag, p=3)
            for u in enumerate_words(model, 3):
                assert multiply(model, u, invert(model, u)) == IDENTITY
                assert multiply(model, invert(model, u), u) == IDENTITY

    def test_invert_examples(self):
        c4 = make_model("c4")
        assert invert(c4, IDENTITY) == IDENTITY
        assert invert(c4, R) == Word(j=3)
        dinf = make_model("dinf")
        assert invert(dinf, Word(n=4)) == Word(n=-4)


class TestWordOrder:
    def test_identity(self):
        assert absgroup._orders(make_model("dinf"), [IDENTITY])[0] == 1

    def test_order_four_reversors(self):
        model = make_model("c4")
        assert absgroup._orders(model, [multiply(model, G, R)])[0] == 4
        assert absgroup._orders(model, [R])[0] == 4

    def test_twisted_infinite_reversor(self):
        model = make_model("twisted")
        tr = multiply(model, T, R)
        assert is_model_reversor(model, tr)
        assert absgroup._orders(model, [tr])[0] is None

    def test_2p_orders(self):
        model = make_model("c2p", p=3)
        assert absgroup._orders(model, [Word(j=3)])[0] == 2
        assert absgroup._orders(model, [Word(j=1)])[0] == 6
        assert absgroup._orders(model, [Word(j=2)])[0] == 3

    def test_agrees_with_iterative_oracle(self):
        rng = random.Random(23)
        for tag, p in itertools.product(MODEL_TAGS, (3, 5, 7)):
            model = make_model(tag, p=p)
            for u in enumerate_words(model, 2):
                analytic = absgroup._orders(model, [u])[0]
                naive = word_order_iterative(model, u, cap=40)
                assert analytic == naive or (analytic is None and naive is None), \
                    (tag, u, analytic, naive)


class TestReversorEnumeration:
    def test_dinf_exact_set(self):
        model = make_model("dinf")
        found = absgroup._window(model, 3)[1]
        expected = {Word(n=n, j=1) for n in range(-3, 4)}
        assert {u for u, _ in found} == expected
        assert all(order == 2 for _, order in found)

    def test_c4_all_order_four(self):
        found = absgroup._window(make_model("c4"), 3)[1]
        assert found
        assert {order for _, order in found} == {4}

    def test_case3_orders_two_and_four(self):
        found = absgroup._window(make_model("c2xcinf"), 3)[1]
        assert {order for _, order in found} == {2, 4}

    def test_c2p_spectrum(self):
        found = absgroup._window(make_model("c2p", p=3), 8)[1]
        assert {order for _, order in found} == {2, 6}

    def test_f_is_reversible_everywhere(self):
        for tag in MODEL_TAGS:
            model = make_model(tag, p=3)
            f = model.f_word
            revs = absgroup._window(model, 3)[1]
            assert revs
            u = revs[0][0]
            conj = multiply(model, multiply(model, u, f), invert(model, u))
            assert conj == invert(model, f)


class TestTheoremClaims:
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_all_models_pass(self, tag):
        model = make_model(tag, p=3)
        window = 8 if model.p is not None else 6
        report = verify_theorem_claims(model, window)
        assert report.all_passed
        assert report.reversor_count > 0

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_prime_models_other_primes(self, p):
        for tag in ("c2p", "cpxcinf"):
            model = make_model(tag, p=p)
            report = verify_theorem_claims(model, 2 * p)
            assert report.all_passed
            if tag == "c2p":
                assert set(report.order_spectrum) == {2, 2 * p}

    def test_window_precondition(self):
        with pytest.raises(ValueError):
            verify_theorem_claims(make_model("c2p", p=5), 4)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            make_model("c2p", p=9)
        with pytest.raises(ValueError):
            make_model("cpxcinf", p=2)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            make_model("nope")
        # the window rule reads the tag's row, so it refuses the tag first
        with pytest.raises(ValueError, match="unknown model tag 'nope'"):
            check_window("nope", 3, 6)

    def test_doctored_model_reports_failed_claim(self):
        # relations of the involutory model under the order-4 expectations
        doctored = replaced(make_model("c4"), r_order=2)
        report = verify_theorem_claims(doctored, 4)
        assert [name for name, _, _ in report.claims] == [
            "reversors-nonempty", "order-spectrum",
            "reversor-products-are-symmetries", "no-odd-order-reversor"]
        assert [name for name, ok, _ in report.claims if not ok] == [
            "order-spectrum"]
        assert not report.all_passed
        assert report.claims[1][2] == ("observed [2], expected [4]; "
                                       "witness {2}")


class TestRpClaim:
    """Claim (vi) reads r^p from the window's split; the reference is the
    one-word computation it replaced."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("extra", range(4))
    def test_verdict_matches_one_word_computation(self, p, extra):
        model = make_model("c2p", p=p)
        rp = Word(j=p)
        claims = {name: (ok, detail) for name, ok, detail in
                  verify_theorem_claims(model, 2 * p + extra).claims}
        ok, detail = claims["r^p-involutory-reversor"]
        assert ok == (is_model_reversor(model, rp)
                      and absgroup._orders(model, [rp])[0] == 2)
        assert ok and detail == f"r^{p} reverses f and has order 2"

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_wrong_order_fails_with_witness(self, p, monkeypatch):
        orders, rp = absgroup._orders, Word(j=p)

        def orders_with_fault(model, words):
            return [6 if u == rp else order
                    for u, order in zip(words, orders(model, words))]

        monkeypatch.setattr(absgroup, "_orders", orders_with_fault)
        claims = {name: (ok, detail) for name, ok, detail in
                  verify_theorem_claims(make_model("c2p", p=p), 2 * p).claims}
        ok, detail = claims["r^p-involutory-reversor"]
        assert not ok
        assert detail.endswith(f"witness Word(a=0, b=0, n=0, j={p})")


class TestGradingAndFacts:
    def test_grading_parity_homomorphism(self):
        # j-parity is multiplicative and its kernel is the symmetry set
        rng = random.Random(31)
        for tag in MODEL_TAGS:
            model = make_model(tag, p=3)
            for _ in range(50):
                u, v = random_word(rng, model, 5), random_word(rng, model, 5)
                prod = multiply(model, u, v)
                assert prod.j % 2 == (u.j + v.j) % 2
            for u in enumerate_words(model, 2):
                assert is_model_symmetry(model, u) == (u.j % 2 == 0) or \
                    not (is_model_symmetry(model, u) or is_model_reversor(model, u))

    def test_symmetry_reversor_split(self):
        # within a window every word either commutes with f or reverses it
        for tag in MODEL_TAGS:
            model = make_model(tag, p=3)
            for u in enumerate_words(model, 3):
                sym = is_model_symmetry(model, u)
                rev = is_model_reversor(model, u)
                assert sym != rev or (sym and rev) is False
                assert sym == (u.j % 2 == 0)
                assert rev == (u.j % 2 == 1)

    def test_reversor_square_identity_in_models(self):
        # (r h)^(2k) = (sigma(h) h)^k for involutory r and symmetry h
        rng = random.Random(37)
        for tag in ("dinf", "c2xdinf", "c2xcinf", "cpxcinf", "cinfxdinf",
                    "twisted", "invc2"):
            model = make_model(tag, p=3)
            for _ in range(60):
                h = random_word(rng, model, 5)
                h = Word(h.a, h.b, h.n, 0)
                k = rng.randint(1, 5)
                rh = multiply(model, R, h)
                lhs = word_pow(model, rh, 2 * k)
                sigma_h = multiply(model, multiply(model, R, h),
                                   invert(model, R))
                rhs = word_pow(model, multiply(model, sigma_h, h), k)
                assert lhs == rhs

    def test_power_reduction_in_2p_model(self):
        # a reversor of order 6 yields the involutory reversor r^3
        model = make_model("c2p", p=3)
        assert absgroup._orders(model, [R])[0] == 6
        cube = word_pow(model, R, 3)
        assert absgroup._orders(model, [cube])[0] == 2
        assert is_model_reversor(model, cube)


class TestTwistNormalization:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_generator_change(self, k):
        model = twisted_model(k)
        t_tilde = Word(b=1, n=k // 2)
        sigma = multiply(model, multiply(model, R, t_tilde), invert(model, R))
        if k % 2 == 0:
            assert sigma == t_tilde
        else:
            assert sigma == multiply(model, t_tilde, G)


# Reference oracle: the frozen-dataclass word arithmetic that the tuple
# words replaced, kept verbatim in its logic.
@dataclass(frozen=True)
class RefWord:
    a: int = 0
    b: int = 0
    n: int = 0
    j: int = 0


def ref_sigma(model, k, sym):
    """Conjugation by r, keyed on the tag and on the twist k of
    r t r^-1 = t g^k (None: r t r^-1 = t^-1), never on `model.action`."""
    a, b, n = sym
    if model.tag == "c2xcinf":
        return ((a + n) % 2, 0, -n)
    if model.tag == "cpxcinf":
        return ((-a) % model.torsion_order, 0, -n)
    if model.has_t:
        if k is None:
            return (0, -b, -n)
        return (0, b, k * b - n)
    return (a % model.torsion_order, 0, -n)


def ref_conj_by_r_pow(model, k, j, sym):
    return sym if j % 2 == 0 else ref_sigma(model, k, sym)


def ref_multiply(model, k, u, v):
    a2, b2, n2 = ref_conj_by_r_pow(model, k, u.j, (v.a, v.b, v.n))
    return RefWord((u.a + a2) % model.torsion_order, u.b + b2, u.n + n2,
                   (u.j + v.j) % model.r_order)


def ref_invert(model, k, u):
    jinv = (-u.j) % model.r_order
    a, b, n = ref_conj_by_r_pow(model, k, jinv, (-u.a, -u.b, -u.n))
    return RefWord(a % model.torsion_order, b, n, jinv)


def ref_conjugate_f(model, k, u):
    f = RefWord(*model.f_word)
    return ref_multiply(model, k, ref_multiply(model, k, u, f),
                        ref_invert(model, k, u))


def ref_word_order(model, k, u):
    if u == RefWord():
        return 1
    if u.j % 2 == 1:
        sq = ref_multiply(model, k, u, u)
        if sq == RefWord():
            return 2
        if sq.b != 0 or sq.n != 0:
            return None
        return 2 * ref_word_order(model, k, sq)
    if u.b != 0 or u.n != 0:
        return None
    o_torsion = (model.torsion_order // gcd(u.a, model.torsion_order)
                 if u.a else 1)
    o_r = model.r_order // gcd(u.j, model.r_order) if u.j else 1
    return lcm(o_torsion, o_r)


# the twist k of each shipped model, r t r^-1 = t g^k (None: t^-1)
SHIPPED_TWIST = {"twisted": 1, "invc2": None}

# (model, twist) for every shipped model (the prime ones at p = 3 and 5) and
# every twist k in -3..3; cases that coincide are kept once
PARITY_MODELS = list(dict.fromkeys(
    [(make_model(tag, p=p), SHIPPED_TWIST.get(tag, 0))
     for tag in MODEL_TAGS for p in (3, 5)]
    + [(twisted_model(k), k) for k in range(-3, 4)]))


def odd_primes_below(n: int) -> set:
    """Odd primes below n by a sieve of Eratosthenes."""
    sieve = [True] * n
    sieve[:2] = [False, False]
    for k in range(2, n):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(range(k * k, n, k))
    return {k for k in range(3, n) if sieve[k]}


class TestPrimeParameter:
    @pytest.mark.parametrize("tag", ["c2p", "cpxcinf"])
    def test_accepts_exactly_the_odd_primes(self, tag):
        primes = odd_primes_below(2000)
        for p in range(-3, 2000):
            if p in primes:
                assert make_model(tag, p=p).p == p
            else:
                with pytest.raises(ValueError,
                                   match="p must be an odd prime"):
                    make_model(tag, p=p)
        with pytest.raises(ValueError, match="p must be an odd prime"):
            make_model(tag)

    def test_large_composite_rejected_at_first_factor(self):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            make_model("c2p", p=3 * (10 ** 40 + 1))


class TestParityWithDataclassWords:
    @pytest.mark.parametrize("model, twist", PARITY_MODELS,
                             ids=[f"{m.tag}-p{m.p}-k{twist}"
                                  for m, twist in PARITY_MODELS])
    def test_tuple_words_match_reference(self, model, twist):
        rng = random.Random(f"{model.tag}/{model.p}/{twist}")
        f_ref = RefWord(*model.f_word)
        small = list(enumerate_words(model, 2))
        for k in range(600):
            if k % 2:
                u, v = random_word(rng, model), random_word(rng, model)
            else:
                u, v = rng.choice(small), rng.choice(small)
            ru, rv = RefWord(*u), RefWord(*v)
            assert astuple(ref_multiply(model, twist, ru, rv)) == \
                multiply(model, u, v)
            assert astuple(ref_invert(model, twist, ru)) == invert(model, u)
            conj = ref_conjugate_f(model, twist, ru)
            assert is_model_symmetry(model, u) == (conj == f_ref)
            assert is_model_reversor(model, u) == \
                (conj == ref_invert(model, twist, f_ref))
            assert (absgroup._orders(model, [u])[0]
                    == ref_word_order(model, twist, ru))
            assert type(multiply(model, u, v)) is Word
            assert type(invert(model, u)) is Word


# The nine models as the per-tag construction before the model table built
# them: (tag, p, display name, torsion order, has t, r order, f word,
# reversor orders, r x r^-1 for each generator x of the model).
PINNED_MODELS = [
    ("dinf", None, "Dinf", 1, False, 2, (0, 0, 1, 0), {2},
     {"g": (0, 0, -1, 0)}),
    ("c2xdinf", None, "C2 x Dinf", 2, False, 2, (0, 0, 1, 0), {2},
     {"s": (1, 0, 0, 0), "g": (0, 0, -1, 0)}),
    ("c4", None, "Cinf x| C4", 1, False, 4, (0, 0, 1, 0), {4},
     {"g": (0, 0, -1, 0)}),
    ("c2xcinf", None, "(C2 x Cinf) x| C2", 2, False, 2, (0, 0, 2, 0),
     {2, 4}, {"s": (1, 0, 0, 0), "g": (1, 0, -1, 0)}),
    ("c2p", 3, "Cinf x| C2p", 1, False, 6, (0, 0, 1, 0), {2, 6},
     {"g": (0, 0, -1, 0)}),
    ("c2p", 5, "Cinf x| C2p", 1, False, 10, (0, 0, 1, 0), {2, 10},
     {"g": (0, 0, -1, 0)}),
    ("c2p", 7, "Cinf x| C2p", 1, False, 14, (0, 0, 1, 0), {2, 14},
     {"g": (0, 0, -1, 0)}),
    ("cpxcinf", 3, "(Cp x Cinf) x| C2", 3, False, 2, (0, 0, 1, 0), {2},
     {"s": (2, 0, 0, 0), "g": (0, 0, -1, 0)}),
    ("cpxcinf", 5, "(Cp x Cinf) x| C2", 5, False, 2, (0, 0, 1, 0), {2},
     {"s": (4, 0, 0, 0), "g": (0, 0, -1, 0)}),
    ("cpxcinf", 7, "(Cp x Cinf) x| C2", 7, False, 2, (0, 0, 1, 0), {2},
     {"s": (6, 0, 0, 0), "g": (0, 0, -1, 0)}),
    ("cinfxdinf", None, "Cinf x Dinf", 1, True, 2, (0, 0, 1, 0), {2, None},
     {"t": (0, 1, 0, 0), "g": (0, 0, -1, 0)}),
    ("twisted", None, "(Cinf x Cinf) x| C2, twisted", 1, True, 2,
     (0, 0, 1, 0), {2, None}, {"t": (0, 1, 1, 0), "g": (0, 0, -1, 0)}),
    ("invc2", None, "(Cinf x Cinf) x| C2, inverting", 1, True, 2,
     (0, 0, 1, 0), {2}, {"t": (0, -1, 0, 0), "g": (0, 0, -1, 0)}),
]


class TestModelTable:
    def test_tag_order(self):
        assert MODEL_TAGS == ("dinf", "c2xdinf", "c4", "c2xcinf", "c2p",
                              "cpxcinf", "cinfxdinf", "twisted", "invc2")

    @pytest.mark.parametrize("pinned", PINNED_MODELS,
                             ids=[f"{row[0]}-p{row[1]}"
                                  for row in PINNED_MODELS])
    def test_model_matches_pinned(self, pinned):
        tag, p, name, torsion, has_t, r_order, f, orders, conj = pinned
        model = make_model(tag, p=p)
        assert (model.display_name, model.torsion_order, model.has_t,
                model.r_order, model.f_word, model.p) == \
            (name, torsion, has_t, r_order, f, p)
        assert model.reversor_orders == orders
        generators = {"s": S, "t": T, "g": G}
        if model.torsion_order == 1:
            del generators["s"]
        if not model.has_t:
            del generators["t"]
        assert {x: multiply(model, multiply(model, R, w), invert(model, R))
                for x, w in generators.items()} == conj

    def test_rows_are_the_models(self):
        # make_model returns a row of the table, or of the table built at
        # p for a row that carries a prime; nothing reads the table back,
        # so a copy under another tag keeps its name
        assert all(type(row) is GroupModel
                   for row in absgroup._MODELS.values())
        for tag, row in absgroup._MODELS.items():
            for p in (3, 5) if row.p else (None,):
                assert make_model(tag, p).display_name == row.display_name
        doctored = replaced(make_model("c4"), tag="doctored")
        assert doctored.display_name == "Cinf x| C4"

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_table_at_p(self, p):
        c2p, cpxcinf = make_model("c2p", p), make_model("cpxcinf", p)
        assert (c2p.r_order, c2p.reversor_orders, c2p.p) == (
            2 * p, {2, 2 * p}, p)
        assert (cpxcinf.torsion_order, cpxcinf.r_order, cpxcinf.p) == (p, 2, p)
        for tag in MODEL_TAGS:
            if tag not in ("c2p", "cpxcinf"):
                row = make_model(tag)
                assert row.p is None
                assert make_model(tag, p) == row
                assert absgroup._models(p)[tag] == row

    @pytest.mark.parametrize("p", [None, 1, 2, 9, 15])
    def test_prime_refusals(self, p):
        given = "none; pass --p" if p is None else p
        for tag in ("c2p", "cpxcinf"):
            with pytest.raises(ValueError,
                               match=f"^p must be an odd prime, got {given}$"):
                make_model(tag, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_window_refusals(self, p):
        for tag in ("c2p", "cpxcinf"):
            with pytest.raises(ValueError,
                               match=f"^window must be >= 2p = {2 * p}$"):
                check_window(tag, p, 2 * p - 1)
            check_window(tag, p, 2 * p)
        check_window("dinf", p, 1)  # no prime in the row, no rule


PAIR_CLAIMS = ("reversor-products-are-symmetries", "symmetry-part-abelian")


# the generators of the symmetry part <s, t, g, r^2> that claims (iii) and
# (v) name, by row
SYMMETRY_GENERATORS = {"dinf": "<g>", "c2xdinf": "<s, g>", "c4": "<g, r^2>",
                       "c2xcinf": "<s, g>", "c2p": "<g, r^2>",
                       "cpxcinf": "<s, g>", "cinfxdinf": "<t, g>",
                       "twisted": "<t, g>", "invc2": "<t, g>"}

# the rows that predict only involutions, and so make claim (v)
ABELIAN_TAGS = ("dinf", "c2xdinf", "cpxcinf", "invc2")


def products_detail(model, count):
    return (f"{count} reversors, all of odd j, whose products lie in "
            f"{SYMMETRY_GENERATORS[model.tag]}, which commutes with f")


def abelian_detail(model, count):
    return (f"{count} symmetries, all in {SYMMETRY_GENERATORS[model.tag]}, "
            "whose generators commute")


def reference_pair_claims(model, window):
    """The two pairwise claims by full scans: for each reversor u, the
    products u v over every reversor v, each tested as a symmetry
    (`_split`), and for each symmetry u, the row u v against the column v u
    over every symmetry v.  The scans give the verdicts; the details are the
    library's, which decides both claims from the parity of j and the
    generators.  A patched `absgroup.multiply` reaches every product
    through them."""
    law = absgroup.multiply
    reversors = [u for u, _ in absgroup._window(model, window)[1]]
    products = all(
        absgroup._split(model, row)[0] == row
        for row in ([law(model, u, v) for v in reversors] for u in reversors))
    claims = [(PAIR_CLAIMS[0], products,
               products_detail(model, len(reversors)))]
    if model.reversor_orders == {2}:
        symmetries = absgroup._split(
            model, list(enumerate_words(model, window)))[0]
        commute = all(law(model, u, v) == law(model, v, u)
                      for u in symmetries for v in symmetries)
        claims.append((PAIR_CLAIMS[1], commute,
                       abelian_detail(model, len(symmetries))))
    return claims


def pair_claims(model, window):
    return [claim for claim in verify_theorem_claims(model, window).claims
            if claim[0] in PAIR_CLAIMS]


CLAIM_CASES = [(tag, None, w) for tag in MODEL_TAGS
               if absgroup._row(tag).p is None for w in range(1, 9)] + [
    (tag, p, w) for tag in MODEL_TAGS if absgroup._row(tag).p
    for p, windows in ((3, range(6, 9)), (5, (10,))) for w in windows]


def faulty_multiply(pair, corrupt):
    """The group law `absgroup.multiply` with one wrong product: that of the
    ordered pair (u, v) == pair, replaced by `corrupt` applied to u v.  The
    claims, `invert`, `_split`, `_orders` and the reference scans reach
    it."""
    true_multiply = absgroup.multiply

    def multiply_with_fault(model, u, v):
        w = true_multiply(model, u, v)
        return corrupt(model, w) if (u, v) == pair else w
    return multiply_with_fault


class TestPairClaimsParity:
    @pytest.mark.parametrize("tag, p, window", CLAIM_CASES,
                             ids=[f"{t}-p{p}-w{w}" for t, p, w in CLAIM_CASES])
    def test_claims_match_full_scans(self, tag, p, window):
        model = make_model(tag, p=p)
        expected = reference_pair_claims(model, window)
        assert pair_claims(model, window) == expected
        assert all(ok for _, ok, _ in expected)


def law_by_formula(model, u, v):
    """u v written out per pair from the row's action (ea, tau, eb, kappa):
    r s^a t^b g^n r^-1 = s^(ea a + tau n) t^(eb b) g^(kappa b - n), applied
    to v's symmetry part once for each of u's j steps, then exponents add."""
    ea, tau, eb, kappa = model.action
    a, b, n = v.a, v.b, v.n
    for _ in range(u.j):
        a, b, n = ea * a + tau * n, eb * b, kappa * b - n
    return ((u.a + a) % model.torsion_order, u.b + b, u.n + n,
            (u.j + v.j) % model.r_order)


LAW_MODELS = [(tag, p) for tag in MODEL_TAGS
              for p in ((3, 5) if absgroup._row(tag).p else (None,))]
PRODUCT_SET_CASES = [(tag, p, w) for tag, p in LAW_MODELS for w in range(2, 9)]


class TestGroupLaw:
    @pytest.mark.parametrize("tag, p", LAW_MODELS,
                             ids=[f"{t}-p{p}" for t, p in LAW_MODELS])
    def test_every_window_pair_matches_the_formula(self, tag, p):
        model = make_model(tag, p=p)
        words = list(enumerate_words(model, 2))
        # left operands of both parities, and j sums that wrap past r_order
        assert {u.j % 2 for u in words} == {0, 1}
        assert any(u.j + v.j >= model.r_order for u in words for v in words)
        for u in words:
            for v in words:
                w = multiply(model, u, v)
                assert type(w) is Word
                assert w == law_by_formula(model, u, v)

    @pytest.mark.parametrize("tag, p, window", PRODUCT_SET_CASES,
                             ids=[f"{t}-p{p}-w{w}"
                                  for t, p, w in PRODUCT_SET_CASES])
    def test_reversor_products_match_the_formula(self, tag, p, window):
        # the products of two window reversors, which no claim forms, at
        # exponents out to both edges of the window
        model = make_model(tag, p=p)
        words = [u for u, _ in absgroup._window(model, window)[1]]
        assert {u.n for u in words} >= {-window, window}
        if model.has_t:
            assert {u.b for u in words} >= {-window, window}
        for u in words:
            for v in words:
                assert multiply(model, u, v) == law_by_formula(model, u, v)

    @pytest.mark.parametrize("tag, p", LAW_MODELS,
                             ids=[f"{t}-p{p}" for t, p in LAW_MODELS])
    def test_exponents_far_past_any_window(self, tag, p):
        # exponents of any size, the squares `_orders` takes among them
        model = make_model(tag, p=p)
        rng = random.Random(f"far/{tag}/{p}")
        words = [random_word(rng, model, window=10 ** rng.randint(1, 40))
                 for _ in range(12)] + [IDENTITY]
        for u in words:
            for v in words:
                assert multiply(model, u, v) == law_by_formula(model, u, v)


# every model (the prime rows at p = 3 and 5) at windows 1 to 8, or 2p to
# 2p + 2 for the prime rows
SPLIT_CASES = [(tag, p, w) for tag, p in LAW_MODELS
               for w in (range(2 * p, 2 * p + 3) if p else range(1, 9))]


class TestBulkEvaluationParity:
    """`_split` answers for a whole list of words what the same question
    asks of each word, one product at a time."""

    @pytest.mark.parametrize("tag, p", LAW_MODELS,
                             ids=[f"{t}-p{p}" for t, p in LAW_MODELS])
    def test_split_matches_per_pair_products(self, tag, p):
        model = make_model(tag, p=p)
        words = list(enumerate_words(model, 3))
        f = model.f_word
        f_inv = invert(model, f)
        symmetries, reversors = absgroup._split(model, words)
        assert symmetries == [u for u in words if multiply(model, u, f)
                              == multiply(model, f, u)]
        assert reversors == [u for u in words if multiply(model, u, f)
                             == multiply(model, f_inv, u)]
        # the conjugation u f u^-1, one word at a time
        assert symmetries == [u for u in words if is_model_symmetry(model, u)]
        assert [u for u, _ in absgroup._window(model, 3)[1]] == reversors
        assert all(is_model_reversor(model, u) for u in reversors)

    @pytest.mark.parametrize("tag, p, window", SPLIT_CASES,
                             ids=[f"{t}-p{p}-w{w}" for t, p, w in SPLIT_CASES])
    def test_split_is_the_parity_of_j(self, tag, p, window):
        # what claim (v) rests on: the symmetries of a window are its words
        # of even j, which lie in <s, t, g, r^2>, and the reversors the rest
        model = make_model(tag, p=p)
        words = list(enumerate_words(model, window))
        assert absgroup._split(model, words) == (
            [u for u in words if u.j % 2 == 0],
            [u for u in words if u.j % 2 == 1])


def claim_of(model, window, name):
    """(passed, detail) of the named claim of `verify_theorem_claims`."""
    return next((ok, detail) for claim, ok, detail
                in verify_theorem_claims(model, window).claims
                if claim == name)


class TestAbelianClaim:
    """Claim (v) is decided from the parity of the window's symmetries and
    the generators of the row; each fault names its own witness."""

    @pytest.mark.parametrize("tag, witness", [
        ("c2xdinf", (S, G)), ("cpxcinf", (S, G)), ("invc2", (T, G))])
    @pytest.mark.parametrize("flip", [False, True])
    def test_noncommuting_generators_are_the_witness(self, tag, witness,
                                                     flip, monkeypatch):
        # either order of the product moves by g; the witness is the pair
        # in the generator order s, t, g
        pair = witness[::-1] if flip else witness
        monkeypatch.setattr(absgroup, "multiply", faulty_multiply(
            pair, lambda m, w: w._replace(n=w.n + 1)))
        ok, detail = claim_of(make_model(tag, p=3), 6,
                              "symmetry-part-abelian")
        assert not ok
        assert detail.endswith(
            f"whose generators commute; witness {witness!r}")

    @pytest.mark.parametrize("tag", ABELIAN_TAGS)
    def test_odd_symmetry_is_the_witness(self, tag, monkeypatch):
        split = absgroup._split

        def split_with_fault(model, words):
            words = list(words)  # read twice
            symmetries, reversors = split(model, words)
            symmetric = set(symmetries) | {R}
            return [u for u in words if u in symmetric], reversors

        monkeypatch.setattr(absgroup, "_split", split_with_fault)
        model = make_model(tag, p=3)
        count = len(split_with_fault(
            model, list(enumerate_words(model, 6)))[0])
        assert claim_of(model, 6, "symmetry-part-abelian") == (
            False, f"{abelian_detail(model, count)}; witness {R!r}")

    def test_law_calls_do_not_grow_with_the_window(self, monkeypatch):
        # past the split of the window, one pair of products per generator
        # pair: the claims multiply as often at window 12 as at window 6
        law, split_window, calls = absgroup.multiply, absgroup._window, []

        def counted_multiply(*args):
            calls.append(args)
            return law(*args)

        def uncounted_window(*args):
            with monkeypatch.context() as inside:
                inside.setattr(absgroup, "multiply", law)
                return split_window(*args)

        monkeypatch.setattr(absgroup, "multiply", counted_multiply)
        monkeypatch.setattr(absgroup, "_window", uncounted_window)
        model, counts = make_model("invc2"), []
        for window in (6, 12):
            calls.clear()
            assert verify_theorem_claims(model, window).all_passed
            counts.append(len(calls))
        assert counts[0] == counts[1]


# each generator x of each row, with x != f: where f = x, as f = g in every
# row but c2xcinf, x f and f x are one product and no fault tells them apart
GENERATOR_CASES = [(tag, name, x) for tag in MODEL_TAGS
                   for name, x in (("s", S), ("t", T), ("g", G), ("r^2", R2))
                   if name in SYMMETRY_GENERATORS[tag][1:-1].split(", ")
                   and x != make_model(tag, p=3).f_word]


class TestReversorProductClaim:
    """Claim (iii) is decided from the parity of the window's reversors and
    the generators of the row; each fault names its own witness."""

    @pytest.mark.parametrize("tag, even", [(tag, G) for tag in MODEL_TAGS]
                             + [("c4", R2), ("c2p", R2)])
    def test_even_reversor_is_the_witness(self, tag, even, monkeypatch):
        split = absgroup._split

        def split_with_fault(model, words):
            words = list(words)  # read twice
            symmetries, reversors = split(model, words)
            reversing = set(reversors) | {even}
            return symmetries, [u for u in words if u in reversing]

        monkeypatch.setattr(absgroup, "_split", split_with_fault)
        model = make_model(tag, p=3)
        count = len(split_with_fault(
            model, list(enumerate_words(model, 6)))[1])
        assert claim_of(model, 6, PAIR_CLAIMS[0]) == (
            False, f"{products_detail(model, count)}; witness {even!r}")

    @pytest.mark.parametrize("tag, name, x", GENERATOR_CASES,
                             ids=[f"{t}-{n}" for t, n, _ in GENERATOR_CASES])
    @pytest.mark.parametrize("flip", [False, True])
    def test_generator_off_f_is_the_witness(self, tag, name, x, flip,
                                            monkeypatch):
        # x f or f x moves by g, so x no longer commutes with f
        model = make_model(tag, p=3)
        f = model.f_word
        monkeypatch.setattr(absgroup, "multiply", faulty_multiply(
            (f, x) if flip else (x, f), lambda m, w: w._replace(n=w.n + 1)))
        count = len(absgroup._window(model, 6)[1])
        assert claim_of(model, 6, PAIR_CLAIMS[0]) == (
            False, f"{products_detail(model, count)}; witness {x!r}")

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_law_work_is_linear_in_the_window(self, tag, monkeypatch):
        # the products a claims run evaluates: a few per word of the
        # window, and none for a pair of reversors
        law, work = absgroup.multiply, []

        def counted_multiply(*args):
            work.append(args)
            return law(*args)

        monkeypatch.setattr(absgroup, "multiply", counted_multiply)
        model = make_model(tag, p=3)
        words = len(list(enumerate_words(model, 12)))
        assert verify_theorem_claims(model, 12).all_passed
        assert len(work) <= 4 * words + 64


class TestInfiniteOrderClaims:
    """Claim (vii) fails when r's action on t or the reversor orders are
    wrong."""

    def test_r_not_commuting_with_t(self, monkeypatch):
        monkeypatch.setattr(absgroup, "multiply", faulty_multiply(
            (R, T), lambda m, w: w._replace(n=w.n + 1)))
        ok, detail = claim_of(make_model("cinfxdinf"), 6, "r-commutes-with-t")
        assert not ok
        assert detail == "conjugation action of r on t matches the model"

    def test_r_not_twisting_t(self, monkeypatch):
        # r t reported as t r, so r commutes with t where it should twist it
        monkeypatch.setattr(absgroup, "multiply", faulty_multiply(
            (R, T), lambda m, w: Word._make(law_by_formula(m, T, R))))
        ok, detail = claim_of(make_model("twisted"), 6, "r-twists-t")
        assert not ok
        assert detail == "conjugation action of r on t matches the model"

    @pytest.mark.parametrize("tag", ["cinfxdinf", "twisted"])
    def test_no_infinite_order_reversor(self, tag, monkeypatch):
        orders = absgroup._orders
        monkeypatch.setattr(absgroup, "_orders", lambda model, words: [
            2 if order is None else order for order in orders(model, words)])
        assert claim_of(make_model(tag), 6,
                        "infinite-order-reversors-exist") == (
            False, "0 reversors of infinite order in window")


# a one-exponent, a two-exponent and a prime row, at windows of 80,002,
# 80,802 and 24,006 words
MEMORY_CASES = [("dinf", None, 20000), ("cinfxdinf", None, 100),
                ("c2p", 3, 2000)]


class TestWindowMemory:
    """A claims run keeps the window's symmetries and reversors, and no
    other list of its words or of their products."""

    @pytest.mark.parametrize("tag, p, window", MEMORY_CASES,
                             ids=[f"{t}-w{w}" for t, _, w in MEMORY_CASES])
    def test_peak_per_window_word(self, tag, p, window):
        model = make_model(tag, p=p)
        words = sum(1 for _ in enumerate_words(model, window))
        tracemalloc.start()
        try:
            assert verify_theorem_claims(model, window).all_passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * words
