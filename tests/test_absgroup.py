import random

import pytest

from revsym.absgroup import (
    IDENTITY,
    MODEL_TAGS,
    ClaimViolated,
    GroupModel,
    Word,
    enumerate_reversors,
    enumerate_words,
    format_word,
    invert,
    is_model_reversor,
    is_model_symmetry,
    make_model,
    multiply,
    verify_theorem_claims,
    word_order,
    word_pow,
)

R = Word(j=1)
G = Word(n=1)
T = Word(b=1)


def twisted_model(k: int) -> GroupModel:
    """Variant of the twisted model with r t r^-1 = t g^k; exercises the
    generator-change normalization t~ = t g^(k // 2)."""
    return GroupModel("twisted", 1, True, 2, k, False, Word(n=1))


def word_order_iterative(model: GroupModel, u: Word, cap: int = 64):
    """Cross-check oracle: naive repeated multiplication up to `cap`."""
    acc = u
    for k in range(1, cap + 1):
        if acc == IDENTITY:
            return k
        acc = multiply(model, acc, u)
    return None


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
        assert word_order(make_model("dinf"), IDENTITY) == 1

    def test_order_four_reversors(self):
        model = make_model("c4")
        assert word_order(model, multiply(model, G, R)) == 4
        assert word_order(model, R) == 4

    def test_twisted_infinite_reversor(self):
        model = make_model("twisted")
        tr = multiply(model, T, R)
        assert is_model_reversor(model, tr)
        assert word_order(model, tr) is None

    def test_2p_orders(self):
        model = make_model("c2p", p=3)
        assert word_order(model, Word(j=3)) == 2
        assert word_order(model, Word(j=1)) == 6
        assert word_order(model, Word(j=2)) == 3

    def test_agrees_with_iterative_oracle(self):
        rng = random.Random(23)
        for tag in MODEL_TAGS:
            model = make_model(tag, p=3)
            for u in enumerate_words(model, 2):
                analytic = word_order(model, u)
                naive = word_order_iterative(model, u, cap=40)
                assert analytic == naive or (analytic is None and naive is None), \
                    (tag, u, analytic, naive)


class TestReversorEnumeration:
    def test_dinf_exact_set(self):
        model = make_model("dinf")
        found = enumerate_reversors(model, 3)
        expected = {Word(n=n, j=1) for n in range(-3, 4)}
        assert {u for u, _ in found} == expected
        assert all(order == 2 for _, order in found)

    def test_c4_all_order_four(self):
        found = enumerate_reversors(make_model("c4"), 3)
        assert found
        assert {order for _, order in found} == {4}

    def test_case3_orders_two_and_four(self):
        found = enumerate_reversors(make_model("c2xcinf"), 3)
        assert {order for _, order in found} == {2, 4}

    def test_c2p_spectrum(self):
        found = enumerate_reversors(make_model("c2p", p=3), 8)
        assert {order for _, order in found} == {2, 6}

    def test_f_is_reversible_everywhere(self):
        for tag in MODEL_TAGS:
            model = make_model(tag, p=3)
            f = model.f_word
            revs = enumerate_reversors(model, 3)
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

    def test_claim_violated_fires_on_doctored_model(self):
        # relations of the involutory model under the order-4 expectations
        from revsym.absgroup import GroupModel
        doctored = GroupModel("c4", 1, False, 2, 0, False, Word(n=1))
        with pytest.raises(ClaimViolated) as exc:
            verify_theorem_claims(doctored, 4)
        assert exc.value.claim == "order-spectrum"


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
        assert word_order(model, R) == 6
        cube = word_pow(model, R, 3)
        assert word_order(model, cube) == 2
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


class TestFormatting:
    def test_format(self):
        model = make_model("c2xcinf")
        assert format_word(model, IDENTITY) == "1"
        assert format_word(model, Word(a=1, n=-2, j=1)) == "s*g^-2*r"
        model2 = make_model("cpxcinf", p=3)
        assert format_word(model2, Word(a=2, n=1)) == "h^2*g"
