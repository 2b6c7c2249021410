import copy
import itertools
import random
import subprocess
import sys
from math import isqrt

import pytest

from revsym import matgroup
from revsym.absgroup import make_model
from revsym.exactmath import (
    IntMatrix,
    IntPoly,
    RECIPROCAL_DIRECT,
    RECIPROCAL_NONE,
    RECIPROCAL_UP_TO_SIGN,
    _resultant,
    char_poly,
    finite_order_test,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_pow,
    reciprocity_class,
)
from revsym.matgroup import (
    CASE_DINF,
    CASE_ONE,
    CASE_THREE,
    CASE_TWO,
    GroupContext,
    ReversibilityReport,
    STATUS_CLASSIFIED,
    STATUS_IRREVERSIBLE,
    STATUS_TRIVIAL,
    SymmetryDescriptor,
    _dlog,
    analyze,
    canonical_sign,
    find_conjugator,
    intertwiner_lattice,
    is_reversor,
    is_symmetry,
    pgl_reciprocity_ok,
    search_reversors,
    symmetry_generator_2x2,
)
from test_cli import cli_env
from test_exactmath import random_unimodular, seeded_monic

GL2 = GroupContext(2)
PGL2 = GroupContext(2, projective=True)
GL4 = GroupContext(4)
PGL4 = GroupContext(4, projective=True)

FIB = IntMatrix([[0, 1], [1, 1]])
R2 = IntMatrix([[1, 0], [1, -1]])
R4 = IntMatrix([[0, -1], [1, 0]])
CASE1_M = IntMatrix([[1, 2], [1, 3]])
CASE2_M = IntMatrix([[5, 7], [7, 10]])
CASE3_M = IntMatrix([[1, 1], [1, 2]])

M4 = IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 2, 2, 2]])
RR = IntMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
N4 = IntMatrix([[1, 0, -3, 1], [-1, 3, 2, -1], [1, -3, 1, 0], [0, 1, -3, 1]])
C3 = IntMatrix([[0, 1, 0], [0, 0, 1], [1, -4, 4]])
N4P = IntMatrix([[-1, 3, 2, -1], [1, -3, 1, 0], [0, 1, -3, 1], [-1, 2, 3, -1]])


def contains_up_to_sign(reversors, mat):
    return any(x == mat or x == -mat for x, _ in reversors)


def conjugation(r: IntMatrix, s: IntMatrix) -> IntMatrix:
    """The automorphism sigma(s) = r s r^-1 that r induces."""
    return mat_mul(mat_mul(r, s), mat_inverse_unimodular(r))


class TestPredicates:
    def test_self_symmetry(self):
        assert is_symmetry(CASE1_M, CASE1_M, GL2)

    def test_neg_identity_is_symmetry(self):
        assert is_symmetry(-IntMatrix.identity(2), CASE1_M, GL2)

    def test_commuting_quartics(self):
        assert is_symmetry(N4, M4, PGL4)
        assert is_symmetry(N4, M4, GL4)

    def test_reference_reversors(self):
        assert is_reversor(R2, FIB, PGL2)
        assert is_reversor(R4, FIB, PGL2)
        assert is_reversor(R4, CASE2_M, GL2)
        assert is_reversor(R2, CASE1_M, GL2)
        assert is_reversor(R2, CASE3_M, GL2)
        assert is_reversor(R4, CASE3_M, GL2)

    def test_fibonacci_not_reversible_in_gl(self):
        assert not is_reversor(R2, FIB, GL2)

    def test_identity_not_a_reversor(self):
        assert not is_reversor(IntMatrix.identity(2), CASE1_M, GL2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_symmetry(FIB, M4, GL4)


class TestIntertwinerLattice:
    def test_identity_full_lattice(self):
        basis = intertwiner_lattice(IntMatrix.identity(2), IntMatrix.identity(2))
        assert len(basis) == 4

    def test_commutant_is_span_of_identity_and_m(self):
        basis = intertwiner_lattice(CASE1_M, CASE1_M)
        assert len(basis) == 2
        # brute force: every commuting X with entries in [-5,5] is a + b*M
        brute = []
        for e in itertools.product(range(-5, 6), repeat=4):
            x = IntMatrix([[e[0], e[1]], [e[2], e[3]]])
            if mat_mul(x, CASE1_M) == mat_mul(CASE1_M, x):
                brute.append(x)
        for x in brute:
            b = x.rows[1][0]
            a = x.rows[0][0] - b
            (m00, m01), (m10, m11) = CASE1_M.rows
            assert x.rows == ((a + b * m00, b * m01), (b * m10, a + b * m11))
        # and the basis itself commutes with M
        for mat in basis:
            assert mat_mul(mat, CASE1_M) == mat_mul(CASE1_M, mat)

    def test_reversor_lattice_contains_reference_reversor(self):
        minv = mat_inverse_unimodular(CASE1_M)
        basis = intertwiner_lattice(CASE1_M, minv)
        assert len(basis) == 2
        for mat in basis:
            assert mat_mul(mat, CASE1_M) == mat_mul(minv, mat)
        found = search_reversors(CASE1_M, GL2, 3)
        assert contains_up_to_sign(found, R2)

    def test_deterministic_basis(self):
        b1 = intertwiner_lattice(CASE3_M, CASE3_M)
        b2 = intertwiner_lattice(CASE3_M, CASE3_M)
        assert b1 == b2

    @pytest.mark.parametrize("v, w, rank", [(1, 1, 1), (-1, -1, 1),
                                             (1, -1, 0), (-1, 1, 0)])
    def test_one_by_one(self, v, w, rank):
        basis = intertwiner_lattice(IntMatrix([[v]]), IntMatrix([[w]]))
        assert basis == [IntMatrix([[1]])] * rank


def lattices_by_elimination(f, ctx):
    """The reversor lattices of f, each by the integer kernel: of f^-1, and
    of -f^-1 in PGL, given as [] at odd n, where it holds no reversor
    (`TestOddPglCut`)."""
    finv = mat_inverse_unimodular(f)
    lattices = [intertwiner_lattice(f, finv)]
    if ctx.projective:
        lattices.append(intertwiner_lattice(f, -finv) if f.n % 2 == 0 else [])
    return lattices


def random_involution(rng, n):
    """A conjugate of a diagonal matrix of signs, not +-I."""
    p = random_unimodular(rng, n)
    signs = [1] + [-1] + [rng.choice((1, -1)) for _ in range(n - 2)]
    d = IntMatrix([[signs[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])
    return mat_mul(mat_mul(p, d), mat_inverse_unimodular(p))


def block_sum(a, n):
    """a (+) I, the n x n block diagonal matrix."""
    k = a.n
    return IntMatrix([[a.rows[i][j] if i < k and j < k else int(i == j)
                       for j in range(n)] for i in range(n)])


def screen_pairs(rng, n):
    """Seeded pairs (A, B) of every kind the screen of `_lattices` meets:
    conjugate pairs (A, P A P^-1) and (f, f^-1) for f a product of two
    involutions; pairs with det A != det B; pairs whose polynomials differ
    but share the root 1, P (A2 (+) I) P^-1 against Q (B2 (+) I) Q^-1 for
    2x2 A2 and B2 of unequal traces (at n = 2 triangular, of unequal
    determinants); and random pairs, whose polynomials are mostly
    coprime."""
    flip = IntMatrix([[(-1 if i == 0 else 1) * (i == j) for j in range(n)]
                      for i in range(n)])
    for _ in range(8):
        a, b, p, q = (random_unimodular(rng, n) for _ in range(4))
        f = mat_mul(random_involution(rng, n), random_involution(rng, n))
        yield a, conjugation(p, a)
        yield f, mat_inverse_unimodular(f)
        yield a, b if mat_det(b) != mat_det(a) else mat_mul(flip, b)
        if n == 2:
            a2 = IntMatrix([[1, rng.randint(-3, 3)], [0, 1]])
            b2 = IntMatrix([[1, rng.randint(-3, 3)], [0, -1]])
        else:
            a2 = b2 = random_unimodular(rng, 2)
            while b2.trace() == a2.trace():
                b2 = random_unimodular(rng, 2)
        yield (conjugation(p, block_sum(a2, n)),
               conjugation(q, block_sum(b2, n)))
        yield a, b


@pytest.fixture
def eliminations(monkeypatch):
    """The target B of each `intertwiner_lattice(A, B)` that matgroup runs,
    in order."""
    calls = []

    def recording(a, b):
        calls.append(b)
        return intertwiner_lattice(a, b)

    monkeypatch.setattr(matgroup, "intertwiner_lattice", recording)
    return calls


def screen_kinds(lattices, a, targets, rng):
    """Check each basis that `_lattices` gave for A against the unscreened
    elimination of its target c, and return the kinds met: "built" where
    the characteristic polynomials of A and c agree, and the basis is the
    unscreened one, which is not 0; else the basis is empty, and the
    unscreened one is 0 exactly when the polynomials are coprime (Sylvester)
    ("coprime-zero"), or every seeded combination of it has det 0
    ("shared-root-singular")."""
    assert len(lattices) == len(targets)
    pa = char_poly(a)
    kinds = set()
    for basis, c in zip(lattices, targets):
        full = intertwiner_lattice(a, c)
        pc = char_poly(c)
        if pc == pa:
            assert basis == full and full
            kinds.add("built")
            continue
        assert basis == []
        assert bool(full) == (_resultant(pa.coeffs, pc.coeffs) == 0)
        kinds.add("shared-root-singular" if full else "coprime-zero")
        for _ in range(10 if full else 0):
            x = matgroup._combiner(full, a.n)(
                [rng.randint(-3, 3) for _ in full])
            assert mat_det(x) == 0
    return kinds


class TestReversorLatticeScreen:
    """`_lattices` skips the elimination of a target c whose characteristic
    polynomial differs from that of A, as no unimodular X then has
    X A = c X; `_reversor_lattices` is its pair (f, f^-1)."""

    @pytest.mark.parametrize("projective", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_elimination(self, n, projective):
        # random f, mostly with no reversor, products of two involutions,
        # which are conjugate to their inverses, and at n >= 3 conjugates
        # of A2 (+) I, whose polynomials differ from their inverses' but
        # share the root 1 (at n = 2 a shared root forces equal polynomials)
        rng = random.Random(f"lattice-screen/{n}/{projective}")
        blocks = random.Random(f"lattice-screen-blocks/{n}/{projective}")
        ctx = GroupContext(n, projective)
        kinds = set()
        for _ in range(20):
            fs = [random_unimodular(rng, n),
                  mat_mul(random_involution(rng, n),
                          random_involution(rng, n))]
            if n > 2:
                fs.append(conjugation(random_unimodular(blocks, n), block_sum(
                    random_unimodular(blocks, 2), n)))
            for f in fs:
                finv = mat_inverse_unimodular(f)
                kinds |= screen_kinds(
                    matgroup._reversor_lattices(f, ctx, char_poly(f)), f,
                    [finv, -finv] if projective else [finv], blocks)
        assert kinds == ({"built", "coprime-zero", "shared-root-singular"}
                         if n > 2 else {"built", "coprime-zero"})

    @pytest.mark.parametrize("projective", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pairs_agree_with_elimination(self, eliminations, n, projective):
        """Where `_lattices` eliminates, its basis is the unscreened one;
        where it screens a target out, the unscreened basis is empty, or
        every seeded combination of it has det 0."""
        rng = random.Random(f"pair-screen/{n}/{projective}")
        ctx = GroupContext(n, projective)
        kinds = set()
        for a, b in screen_pairs(rng, n):
            eliminations.clear()
            targets = [b, -b] if projective else [b]
            lattices = matgroup._lattices(a, b, ctx, char_poly(a),
                                          char_poly(b))
            assert eliminations == [c for c in targets
                                    if char_poly(c) == char_poly(a)]
            kinds |= screen_kinds(lattices, a, targets, rng)
        assert kinds == {"built", "coprime-zero", "shared-root-singular"}

    @pytest.mark.parametrize("f, projective, eliminated", [
        (N4, False, 0),  # no reversor: the polynomials share no root
        (FIB, False, 0),
        (M4, True, 1),  # the second PGL lattices of M4 and the case-1
        (CASE1_M, True, 1)])  # matrix
    def test_empty_lattices_skip_the_elimination(self, eliminations, f,
                                                  projective, eliminated):
        ctx = GroupContext(f.n, projective)
        lattices = matgroup._reversor_lattices(f, ctx, char_poly(f))
        assert len(eliminations) == eliminated
        assert lattices == lattices_by_elimination(f, ctx)
        assert not lattices[-1]


class TestOddPglCut:
    """At odd n, X f = -f^-1 X gives det X det f = -det X / det f, so
    det X = 0 as (det f)^2 = 1: that lattice holds no reversor.  The
    polynomial of -f^-1 differs from that of f, in its constant term
    (-1)^n det, so `_lattices` leaves it empty, and `_reversor_lattices`
    eliminates at most the one of f^-1 in PGL."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_minus_inverse_lattice_is_singular(self, n):
        rng = random.Random(f"odd-pgl-cut/{n}")
        draws = random.Random(f"odd-pgl-cut-draws/{n}")
        ctx = GroupContext(n, True)
        nonzero = 0
        for _ in range(6 if n == 3 else 2):
            for f in (random_unimodular(rng, n),
                      mat_mul(random_involution(rng, n),
                              random_involution(rng, n))):
                finv = mat_inverse_unimodular(f)
                basis = intertwiner_lattice(f, -finv)
                nonzero += bool(basis)
                for _ in range(10 if basis else 0):
                    x = matgroup._combiner(basis, n)(
                        [rng.randint(-3, 3) for _ in basis])
                    assert mat_det(x) == 0
                lattices = matgroup._reversor_lattices(f, ctx, char_poly(f))
                assert lattices[1] == []
                screen_kinds(lattices, f, [finv, -finv], draws)
        assert nonzero

    def test_companion3_eliminates_only_the_inverse(self, eliminations):
        minv = mat_inverse_unimodular(C3)
        lattices = matgroup._reversor_lattices(C3, GroupContext(3, True),
                                               char_poly(C3))
        assert eliminations == [minv]
        assert lattices == [intertwiner_lattice(C3, minv), []]
        assert lattices[0]

    # the parent's status, bound and listing, the reversors in their order
    @pytest.mark.parametrize("rows, listing", [
        ([[1, 1, 0], [0, 1, 0], [0, 0, -1]],
         [[[1, 1, 0], [0, -1, 0], [0, 0, 1]],
          [[1, 1, 0], [0, -1, 0], [0, 0, -1]],
          [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
          [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
          [[1, -1, 0], [0, -1, 0], [0, 0, 1]],
          [[1, -1, 0], [0, -1, 0], [0, 0, -1]]]),
        ([[0, 0, 1], [1, 0, -1], [0, 1, 1]],
         [[[1, 1, 0], [0, -1, 0], [0, 1, 1]],
          [[1, 0, 0], [-1, 0, 1], [1, 1, 0]],
          [[0, 1, 1], [1, 0, -1], [0, 0, 1]],
          [[0, 0, 1], [0, 1, 0], [1, 0, 0]]])])
    def test_odd_inputs_keep_their_listing(self, rows, listing):
        report = analyze(IntMatrix(rows), GroupContext(3, True))
        assert report.status == STATUS_CLASSIFIED
        assert report.reversor_bound == 10
        assert report.irreversibility_reason is None
        assert report.reversors == [(IntMatrix(x), 2) for x in listing]


class TestPairEliminations:
    """`find_conjugator` builds through `_lattices`, so its screen spares
    eliminations, and `analyze` builds its lattices on every call."""

    @pytest.mark.parametrize("a, b, ctx, bound, eliminated, answer", [
        # criterion 1's non-conjugate pair: det -1 against det 1
        (R2, R4, PGL2, 10, 0, None),
        # x^2 - x - 1 against x^2 + x - 1: no common root
        (FIB, mat_inverse_unimodular(FIB), GL2, 10, 0, None),
        # -C3^-1 has det -1 at n = 3
        (C3, mat_inverse_unimodular(C3), GroupContext(3, True), 3, 1,
         IntMatrix([[-1, 0, 0], [-4, 4, -1], [-12, 15, -4]]))],
        ids=["r2-r4-pgl", "fib-inverse-gl", "c3-inverse-pgl"])
    def test_find_conjugator(self, eliminations, a, b, ctx, bound,
                             eliminated, answer):
        assert find_conjugator(a, b, ctx, bound) == answer
        assert len(eliminations) == eliminated

    def test_analyze_eliminates_on_every_call(self, eliminations):
        first = analyze(CASE1_M, GL2)
        assert analyze(CASE1_M, GL2) == first
        assert len(eliminations) == 2

    def test_analyze_searches_the_lattices_it_built(self, eliminations,
                                                    monkeypatch):
        """`analyze` lists its reversors through `search_reversors`, once,
        handing it its lattices, and gets the answer of a search that
        builds them itself."""
        searches = []

        def recording(f, ctx, bound, **kwargs):
            searches.append(kwargs)
            return search_reversors(f, ctx, bound, **kwargs)

        monkeypatch.setattr(matgroup, "search_reversors", recording)
        for m, ctx in ((CASE1_M, GL2), (C3, GroupContext(3, True))):
            searches.clear()
            eliminations.clear()
            report = analyze(m, ctx)
            assert len(searches) == 1 and searches[0]["_built"]
            assert len(eliminations) == 1
            assert report.reversors == search_reversors(
                m, ctx, report.reversor_bound)


def test_matgroup_keeps_no_state():
    """Every module global of matgroup is the same object, of an equal
    value, after analyze, search_reversors and find_conjugator run."""
    def snapshot():
        state = {}
        for name, value in vars(matgroup).items():
            if name.startswith("__"):
                continue
            try:
                copied = copy.deepcopy(value)
            except TypeError:  # modules
                copied = value
            # a value that compares by identity is checked by identity
            state[name] = (value, copied if copied == value else value)
        return state

    before = snapshot()
    for m, ctx in ((CASE1_M, GL2), (FIB, PGL2), (C3, GroupContext(3, True)),
                   (M4, GL4), (N4, PGL4)):
        analyze(m, ctx)
        search_reversors(m, ctx, 2)
        find_conjugator(m, mat_inverse_unimodular(m), ctx, 2)
    find_conjugator(R2, R4, PGL2, 10)
    after = {name: value for name, value in vars(matgroup).items()
             if not name.startswith("__")}
    assert after.keys() == before.keys()
    for name, (value, copied) in before.items():
        assert after[name] is value, name
        assert after[name] == copied, name


class TestSearchReversors:
    def test_case1_contains_involution(self):
        found = search_reversors(CASE1_M, GL2, 3)
        assert contains_up_to_sign(found, R2)
        assert set(order for _, order in found) == {2}

    def test_case2_only_order_four(self):
        found = search_reversors(CASE2_M, GL2, 3)
        assert contains_up_to_sign(found, R4)
        assert set(order for _, order in found) == {4}

    def test_case3_both_orders(self):
        found = search_reversors(CASE3_M, GL2, 3)
        assert contains_up_to_sign(found, R2)
        assert contains_up_to_sign(found, R4)
        assert set(order for _, order in found) == {2, 4}

    def test_matches_entrywise_brute_force(self):
        # oracle: raw entry enumeration in [-5,5]
        for m in (CASE1_M, CASE2_M, CASE3_M):
            minv = mat_inverse_unimodular(m)
            brute = set()
            for e in itertools.product(range(-5, 6), repeat=4):
                x = IntMatrix([[e[0], e[1]], [e[2], e[3]]])
                if mat_det(x) in (1, -1) and mat_mul(x, m) == mat_mul(minv, x):
                    brute.add(x)
            found = {x for x, _ in search_reversors(m, GL2, 12)}
            assert brute <= found

    def test_empty_lattice_gives_no_reversors(self):
        # X FIB = FIB^-1 X has only X = 0 over Z
        assert search_reversors(FIB, GL2, 5) == []

    def test_pgl_finds_sign_twisted_reversors(self):
        found = search_reversors(FIB, PGL2, 3)
        assert found
        assert contains_up_to_sign(found, R2)
        assert contains_up_to_sign(found, R4)
        assert set(order for _, order in found) == {2}

    def test_results_are_genuine_reversors(self):
        for m, ctx in ((CASE1_M, GL2), (CASE3_M, GL2), (FIB, PGL2)):
            for x, order in search_reversors(m, ctx, 4):
                assert is_reversor(x, m, ctx)
                assert finite_order_test(x, ctx.projective) == order


class TestSymmetryGenerator:
    def test_fibonacci_generates_itself(self):
        desc = symmetry_generator_2x2(FIB, PGL2)
        assert desc.generator == FIB
        assert desc.f_sign == 1
        assert desc.f_exponent == 1
        assert desc.finite_part_order == 1

    def test_case3_has_square_root(self):
        desc = symmetry_generator_2x2(CASE3_M, GL2)
        assert desc.generator == FIB
        assert desc.f_sign == 1
        assert desc.f_exponent == 2
        assert mat_pow(desc.generator, 2) == CASE3_M
        assert desc.finite_part_order == 2

    def test_case1_regression(self):
        desc = symmetry_generator_2x2(CASE1_M, GL2)
        # frozen regression: the fundamental solution is (a0, b0) = (0, 1)
        assert desc.generator == CASE1_M
        assert (desc.f_sign, desc.f_exponent) == (1, 1)

    def test_case2_regression(self):
        desc = symmetry_generator_2x2(CASE2_M, GL2)
        assert desc.generator == CASE2_M
        assert (desc.f_sign, desc.f_exponent) == (1, 1)

    def test_negative_power_expression(self):
        m = -mat_pow(FIB, 2)
        desc = symmetry_generator_2x2(m, GL2)
        assert desc.f_sign == -1
        assert desc.f_exponent == 2
        assert mat_pow(desc.generator, 2).scaled(-1) == m

    def test_finite_order_rejected(self):
        with pytest.raises(ValueError, match="matrix must have infinite order"):
            symmetry_generator_2x2(R4, GL2)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            symmetry_generator_2x2(IntMatrix([[1, 1], [0, 1]]), GL2)


class TestDiscreteLog:
    """`_dlog`, which orients the generator g of `symmetry_generator_2x2`:
    (sign, k) with s = sign * g^k, or None when there is none."""

    def test_trivial_values(self):
        g = symmetry_generator_2x2(CASE3_M, GL2).generator
        assert _dlog(IntMatrix.identity(2), g) == (1, 0)
        assert _dlog(-g, g) == (-1, 1)

    def test_square_of_generator(self):
        g = symmetry_generator_2x2(CASE3_M, GL2).generator
        assert _dlog(CASE3_M, g) == (1, 2)

    def test_out_of_span(self):
        g = symmetry_generator_2x2(CASE3_M, GL2).generator
        assert _dlog(R4, g) is None

    def test_exact_on_all_small_generators(self):
        # the log is found with no bound for every +-g^k, |k| <= 12, of the
        # commutant generator g of each small hyperbolic matrix
        descriptors = small_generators()
        assert len(descriptors) > 50
        for g, _ in descriptors:
            ginv = mat_inverse_unimodular(g)
            pos = neg = IntMatrix.identity(2)
            for k in range(13):
                for s, kk in ((pos, k), (neg, -k)):
                    assert _dlog(s, g) == (1, kk)
                    assert _dlog(-s, g) == (-1, kk)
                pos, neg = mat_mul(pos, g), mat_mul(neg, ginv)

    def test_matches_matrix_powers_up_to_the_cap(self):
        # powers of g, of other generators and of their products, some of
        # them in the span of g and most not
        generators = list(dict.fromkeys(g for g, _ in small_generators()))
        rng = random.Random(7)
        found = missed = 0
        for g in generators:
            others = rng.sample(generators, 3)
            samples = [mat_pow(g, k) for k in range(-6, 7)]
            samples += [mat_pow(h, k) for h in others for k in (-2, 1, 3)]
            samples += [mat_mul(g, h) for h in others]
            for s in samples + [-s for s in samples]:
                want = dlog_by_powers(s, g)
                assert _dlog(s, g) == want
                found += want is not None
                missed += want is None
        assert found > 1000 and missed > 1000


def small_generators():
    """The distinct (generator, context) of `symmetry_generator_2x2`, in GL
    and PGL, over every hyperbolic 2x2 matrix with entries in [-3, 3], in
    first-seen order."""
    generators = {}
    for entries in itertools.product(range(-3, 4), repeat=4):
        m = IntMatrix([entries[:2], entries[2:]])
        disc = m.trace() ** 2 - 4 * mat_det(m)
        if (mat_det(m) not in (1, -1) or finite_order_test(m) is not None
                or (disc >= 0 and isqrt(disc) ** 2 == disc)):
            continue
        for ctx in (GL2, PGL2):
            generators.setdefault(
                (symmetry_generator_2x2(m, ctx).generator, ctx))
    return list(generators)


def dlog_by_powers(s, g):
    """`_dlog` by matrix powers: (sign, k) for the first of g^0, g^1,
    g^-1, g^2, g^-2, ... from `mat_pow` that is sign * s, up to the cap
    k = 2 * bit length of |trace s| + 1, or None."""
    cap = 2 * (abs(s.trace()) + 1).bit_length()
    for k in range(cap + 1):
        for kk in (k, -k) if k else (0,):
            power = mat_pow(g, kk)
            if power == s:
                return (1, kk)
            if power == -s:
                return (-1, kk)
    return None


class TestInducedAutomorphism:
    def test_reversor_inverts_f(self):
        sigma = conjugation(R2, CASE1_M)
        assert sigma == mat_inverse_unimodular(CASE1_M)

    def test_case3_signature(self):
        g = FIB
        sigma_g = conjugation(R2, g)
        assert mat_mul(sigma_g, g) == -IntMatrix.identity(2)

    def test_case2_generator_inverted(self):
        desc = symmetry_generator_2x2(CASE2_M, GL2)
        sigma_g = conjugation(R4, desc.generator)
        assert sigma_g == mat_inverse_unimodular(desc.generator)


def power_of_two_reversor(r: IntMatrix, f: IntMatrix,
                          ctx: GroupContext) -> IntMatrix:
    """Reduce a finite-order reversor to one of 2-power order.

    If r has order 2^l * (2m+1), then r^(2m+1) is again a reversor (odd
    powers of a reversor reverse) and has order exactly 2^l.
    """
    if not is_reversor(r, f, ctx):
        raise ValueError("element does not reverse f")
    order = finite_order_test(r, ctx.projective)
    if order is None:
        raise ValueError("reversor has infinite order")
    odd = order
    while odd % 2 == 0:
        odd //= 2
    reduced = mat_pow(r, odd)
    return canonical_sign(reduced) if ctx.projective else reduced


class TestPowerOfTwoReversor:
    def test_involution_fixed(self):
        assert power_of_two_reversor(R2, CASE1_M, GL2) == R2

    def test_order_six_reduces_to_involution(self):
        # block matrix: reverses the first block, order-3 rotation on the second
        f = IntMatrix([[1, 2, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        r = IntMatrix([[1, 0, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])
        assert finite_order_test(r) == 6
        reduced = power_of_two_reversor(r, f, GL4)
        assert finite_order_test(reduced) == 2
        assert is_reversor(reduced, f, GL4)

    def test_order_twelve_reduces_to_order_four(self):
        f = IntMatrix([[5, 7, 0, 0], [7, 10, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        r = IntMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])
        assert finite_order_test(r) == 12
        reduced = power_of_two_reversor(r, f, GL4)
        assert finite_order_test(reduced) == 4
        assert is_reversor(reduced, f, GL4)
        assert reduced == mat_pow(r, 3)

    def test_rejects_non_reversor(self):
        with pytest.raises(ValueError, match="element does not reverse f"):
            power_of_two_reversor(IntMatrix.identity(2), CASE1_M, GL2)

    def test_rejects_infinite_order(self):
        rprime = mat_mul(RR, N4P)
        assert is_reversor(rprime, M4, PGL4)
        with pytest.raises(ValueError, match="reversor has infinite order"):
            power_of_two_reversor(rprime, M4, PGL4)


class TestClassification:
    def test_three_reference_cases(self):
        for m, case in ((CASE1_M, CASE_ONE), (CASE2_M, CASE_TWO),
                        (CASE3_M, CASE_THREE)):
            report = analyze(m, GL2)
            assert report.status == STATUS_CLASSIFIED
            assert report.classification_case == case

    def test_agrees_with_exhaustive_order_spectra(self):
        expected = {CASE_ONE: {2}, CASE_TWO: {4}, CASE_THREE: {2, 4}}
        for m in (CASE1_M, CASE2_M, CASE3_M):
            case = analyze(m, GL2).classification_case
            spectrum = {order for _, order in search_reversors(m, GL2, 5)}
            assert spectrum == expected[case]

    def test_case_table_matches_the_group_models(self):
        """`matgroup._CASES` and the `absgroup` rows of the same groups
        predict the same reversor orders; `dinf` is the PGL case."""
        assert matgroup._CASES == {
            make_model(tag).reversor_orders: case for tag, case in (
                ("c2xdinf", CASE_ONE), ("c4", CASE_TWO),
                ("c2xcinf", CASE_THREE))}
        assert make_model(CASE_DINF).reversor_orders == {2}

    def test_fibonacci_irreversible_in_gl(self):
        report = analyze(FIB, GL2)
        assert report.status == STATUS_IRREVERSIBLE
        assert report.classification_case is None


def check_coset(f, desc, r, ctx, bound):
    """The reversors found within `bound` are exactly the coset r * {+-g^k}:
    each one is r times +-g^k (the discrete log finds its k),
    and each r * (+-g^k) with |k| <= bound reverses f."""
    assert is_reversor(r, f, ctx)
    rinv = mat_inverse_unimodular(r)
    for x, _ in search_reversors(f, ctx, bound):
        assert _dlog(mat_mul(rinv, x), desc.generator) is not None
    for k in range(-bound, bound + 1):
        power = mat_pow(desc.generator, k)
        for eps in (1, -1):
            assert is_reversor(mat_mul(r, power.scaled(eps)), f, ctx)


class TestCosetDecomposition:
    def test_fibonacci_coset(self):
        desc = symmetry_generator_2x2(FIB, PGL2)
        check_coset(FIB, desc, R2, PGL2, 4)

    def test_case3_coset_and_alternating_orders(self):
        desc = symmetry_generator_2x2(CASE3_M, GL2)
        check_coset(CASE3_M, desc, R2, GL2, 3)
        g = desc.generator
        # orders of R2 * g^k alternate with the parity of k, per the identity
        # (r s)^2 = sigma(s) s for involutory r
        for k in range(-3, 4):
            candidate = mat_mul(R2, mat_pow(g, k))
            order = finite_order_test(candidate)
            assert order == (2 if k % 2 == 0 else 4)
            sq = mat_mul(candidate, candidate)
            sigma_s = conjugation(R2, mat_pow(g, k))
            assert sq == mat_mul(sigma_s, mat_pow(g, k))


class TestConjugacy:
    def test_self_conjugate(self):
        w = find_conjugator(CASE1_M, CASE1_M, GL2, 2)
        assert w is not None
        assert mat_mul(w, CASE1_M) == mat_mul(CASE1_M, w)

    def test_distinct_involutions_not_conjugate(self):
        assert find_conjugator(R2, R4, PGL2, 10) is None

    def test_constructed_conjugation_found(self):
        s = IntMatrix([[1, 1], [1, 2]])
        m2 = mat_pow(CASE1_M, 2)
        target = mat_mul(mat_mul(s, m2), mat_inverse_unimodular(s))
        w = find_conjugator(m2, target, GL2, 10)
        assert w is not None
        assert mat_mul(mat_mul(w, m2), mat_inverse_unimodular(w)) == target


class TestAnalyze:
    def test_fibonacci_gl_irreversible(self):
        report = analyze(FIB, GL2)
        assert report.status == STATUS_IRREVERSIBLE
        assert report.reciprocity == RECIPROCAL_NONE
        assert report.order is None

    def test_fibonacci_pgl_dinf(self):
        report = analyze(FIB, PGL2)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == CASE_DINF
        assert report.reversors
        assert all(order == 2 for _, order in report.reversors)

    def test_identity_trivially_reversible(self):
        report = analyze(IntMatrix.identity(2), GL2)
        assert report.status == STATUS_TRIVIAL
        assert report.order == 1

    def test_square_of_fibonacci_case3(self):
        report = analyze(CASE3_M, GL2)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == CASE_THREE

    def test_case_reports(self):
        assert analyze(CASE1_M, GL2).classification_case == CASE_ONE
        assert analyze(CASE2_M, GL2).classification_case == CASE_TWO

    def test_obstruction_reasons(self):
        # FIB in GL: both reasons, since its reversor lattice is zero
        assert analyze(FIB, GL2).irreversibility_reason == (
            "characteristic polynomial is not self-reciprocal (neither "
            "directly nor up to sign); intertwiner lattice is trivial over Z")
        # diag(FIB, 1): the reversor lattice holds the projection onto the
        # last coordinate, so only the reciprocity obstruction is named
        m = IntMatrix([[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert analyze(m, GroupContext(3)).irreversibility_reason == (
            "characteristic polynomial is not self-reciprocal (neither "
            "directly nor up to sign)")
        assert analyze(m, GroupContext(3, projective=True)
                       ).irreversibility_reason == (
            "characteristic polynomial is not self-reciprocal")


FIB_I3 = block_sum(FIB, 5)
COMPANION5 = IntMatrix([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                        [0, 0, 0, 0, 1], [-1, -4, -2, 2, 3]])


class TestObstructionFirst:
    """An input whose characteristic polynomial is neither that of f^-1
    nor, in PGL, that of -f^-1 is decided by the polynomials alone: no
    inverse and no lattice is built, the report keeps the bound it was
    given, and the reason says the intertwiner lattice is trivial exactly
    when the polynomial of f is coprime to each target's."""

    @pytest.mark.parametrize("projective", [False, True])
    def test_fib_plus_identity_builds_no_lattice(self, eliminations,
                                                 monkeypatch, projective):
        inverses = []
        monkeypatch.setattr(matgroup, "mat_inverse_unimodular",
                            lambda m: inverses.append(m)
                            or mat_inverse_unimodular(m))
        report = analyze(FIB_I3, GroupContext(5, projective))
        assert report.status == STATUS_IRREVERSIBLE
        assert report.reversor_bound == 10
        assert report.reversors == []
        assert eliminations == [] and inverses == []
        # f and f^-1 share the eigenvalue 1 three times: the lattice left
        # unbuilt has rank 9, whose box would cut the bound to 2
        assert len(intertwiner_lattice(
            FIB_I3, mat_inverse_unimodular(FIB_I3))) == 9

    def test_odd_pgl_reason_is_the_polynomial_alone(self):
        report = analyze(COMPANION5, GroupContext(5, True))
        assert report.status == STATUS_IRREVERSIBLE
        assert report.irreversibility_reason == (
            "characteristic polynomial is not self-reciprocal")
        # the lattice of -f^-1 is not trivial, though no reversor lies in it
        finv = mat_inverse_unimodular(COMPANION5)
        assert len(intertwiner_lattice(COMPANION5, -finv)) == 2
        assert intertwiner_lattice(COMPANION5, finv) == []

    def test_resultant_only_words_the_evidence(self, monkeypatch):
        calls = []
        monkeypatch.setattr(matgroup, "_resultant",
                            lambda p, q: calls.append(q) or _resultant(p, q))
        for m, ctx in ((CASE1_M, GL2), (FIB, PGL2), (N4, GL4),
                       (C3, GroupContext(3, True)), (M4, PGL4)):
            analyze(m, ctx)
            search_reversors(m, ctx, 2)
            find_conjugator(m, mat_inverse_unimodular(m), ctx, 2)
        find_conjugator(R2, R4, PGL2, 10)
        assert len(calls) == 1  # N4 in GL
        analyze(FIB, GL2)
        analyze(COMPANION5, GroupContext(5, True))
        assert len(calls) == 4


def transpose(m):
    return IntMatrix([list(col) for col in zip(*m.rows)])


class TestStatusUnderSymmetries:
    """r reverses f iff P r P^-1 reverses P f P^-1, iff (r^T)^-1 reverses
    f^T, iff r reverses f^-1, and the four share their order.  So their
    decided statuses never contradict, and as the four have the same pair
    of polynomials {p, p of f^-1}, an obstructed input gets the same status
    and reason under all four.  An inconclusive status is allowed: at
    n >= 3 it depends on the lattice basis."""

    @pytest.mark.parametrize("projective", [False, True])
    @pytest.mark.parametrize("n", [3, 4])
    def test_statuses_agree(self, n, projective):
        rng = random.Random(f"status-symmetries/{n}/{projective}")
        ctx = GroupContext(n, projective)
        seen = set()
        for k in range(20):
            f = (random_unimodular(rng, n) if k % 2 else
                 mat_mul(random_involution(rng, n),
                         random_involution(rng, n)))
            variants = (f, conjugation(random_unimodular(rng, n), f),
                        transpose(f), mat_inverse_unimodular(f))
            reports = [analyze(v, ctx) for v in variants]
            statuses = {r.status for r in reports}
            seen |= statuses
            assert not {STATUS_CLASSIFIED, STATUS_IRREVERSIBLE} <= statuses
            assert STATUS_TRIVIAL not in statuses or len(statuses) == 1
            cp = char_poly(f)
            if not (pgl_reciprocity_ok(cp) if projective
                    else reciprocity_class(cp) != RECIPROCAL_NONE):
                seen.add("obstructed")
                assert {(r.status, r.irreversibility_reason)
                        for r in reports} == {(
                            STATUS_IRREVERSIBLE,
                            reports[0].irreversibility_reason)}
        assert {STATUS_CLASSIFIED, "obstructed"} <= seen


class TestQuarticSuite:
    def test_characteristic_polynomials(self):
        assert char_poly(M4) == IntPoly([1, -2, -2, -2, 1])
        assert char_poly(N4) == IntPoly([1, -14, 22, -6, 1])
        assert reciprocity_class(char_poly(M4)) == RECIPROCAL_DIRECT
        assert reciprocity_class(char_poly(N4)) == RECIPROCAL_NONE
        assert not pgl_reciprocity_ok(char_poly(N4))

    def test_np_is_product(self):
        assert mat_mul(M4, N4) == N4P

    def test_involutory_reversor(self):
        assert mat_mul(RR, RR) == IntMatrix.identity(4)
        assert is_reversor(RR, M4, PGL4)
        assert is_reversor(RR, M4, GL4)

    def test_symmetries(self):
        assert is_symmetry(N4, M4, PGL4)
        assert is_symmetry(N4P, M4, PGL4)

    def test_commuting_pair_and_infinite_reversor(self):
        assert mat_mul(RR, N4P) == mat_mul(N4P, RR)
        rprime = mat_mul(RR, N4P)
        assert is_reversor(rprime, M4, PGL4)
        assert finite_order_test(rprime, projective=True) is None


def pgl_reciprocity_reference(p: IntPoly) -> bool:
    """The PGL condition with p and (-1)^d p(-x) normalised by p(0)."""
    sign = 1 if p.coeffs[0] == 1 else -1
    return list(p.coeffs[::-1]) in ([sign * c for c in q.coeffs]
                                    for q in (p, p.sign_alternated()))


class TestPglReciprocity:
    def test_fibonacci_sign_variant(self):
        p = char_poly(FIB)
        assert reciprocity_class(p) == RECIPROCAL_NONE
        assert pgl_reciprocity_ok(p)

    def test_direct_implies_ok(self):
        assert pgl_reciprocity_ok(char_poly(CASE1_M))

    def test_matches_normalised_comparison(self):
        # every monic polynomial of degree 1-6 with inner coefficients in
        # [-3, 3] and constant term +-1
        answers = set()
        count = 0
        for d in range(1, 7):
            for inner in itertools.product(range(-3, 4), repeat=d - 1):
                for c0 in (1, -1):
                    p = IntPoly((c0,) + inner + (1,))
                    got = pgl_reciprocity_ok(p)
                    assert got == pgl_reciprocity_reference(p), p
                    answers.add((got, reciprocity_class(p)))
                    count += 1
        assert count == 39216
        assert answers == {(True, RECIPROCAL_DIRECT),
                           (True, RECIPROCAL_UP_TO_SIGN),
                           (True, RECIPROCAL_NONE), (False, RECIPROCAL_NONE)}


class TestOneInversePolynomial:
    """pgl_reciprocity_ok and analyze's reciprocity fields read the
    polynomials of f^-1 and -f^-1 from exactmath._inverse_poly."""

    def test_pgl_condition_is_the_pair(self):
        for p in seeded_monic(random.Random(40), 3000):
            head, d = p.coeffs[0], p.degree
            if head not in (1, -1):
                with pytest.raises(ValueError):
                    pgl_reciprocity_ok(p)
                continue
            inv = IntPoly([head * c for c in p.coeffs[::-1]])
            assert pgl_reciprocity_ok(p) == (p in (inv, inv.sign_alternated()))
            assert pgl_reciprocity_ok(p) == pgl_reciprocity_reference(p)

    @pytest.mark.parametrize("projective", [False, True],
                             ids=["gl", "pgl"])
    def test_report_fields(self, projective):
        rng = random.Random(41)
        seen = set()
        for k in range(120):
            n = 2 + k % 4
            m = random_unimodular(rng, n)
            cp = char_poly(m)
            report = analyze(m, GroupContext(n, projective), 0)
            assert report.sign_adjusted_reciprocity == pgl_reciprocity_ok(cp)
            assert report.reciprocity == reciprocity_class(cp)
            seen.add((n, report.sign_adjusted_reciprocity))
        # x^2 - t*x + 1 is that of f^-1, and x^2 - t*x - 1 that of -f^-1
        assert seen == {(2, True)} | {(n, ok) for n in range(3, 6)
                                      for ok in (False, True)}


class TestGroupProperties:
    """Randomized structural invariants with a fixed seed."""

    def _reversor_symmetry_pool(self, m, ctx, desc):
        reversors = [x for x, _ in search_reversors(m, ctx, 3)]
        symmetries = [mat_pow(desc.generator, k).scaled(eps)
                      for k in range(-4, 5) for eps in (1, -1)]
        return reversors, symmetries

    def test_grading_homomorphism(self):
        rng = random.Random(2024)
        for m, ctx in ((CASE1_M, GL2), (CASE2_M, GL2), (CASE3_M, GL2),
                       (FIB, PGL2)):
            desc = symmetry_generator_2x2(m, ctx)
            reversors, symmetries = self._reversor_symmetry_pool(m, ctx, desc)
            for _ in range(100):
                r1, r2 = rng.choice(reversors), rng.choice(reversors)
                assert is_symmetry(mat_mul(r1, r2), m, ctx)
                s = rng.choice(symmetries)
                assert is_reversor(mat_mul(r1, s), m, ctx)
                assert is_reversor(mat_mul(s, r1), m, ctx)

    def test_no_odd_order_reversor(self):
        for m, ctx in ((CASE1_M, GL2), (CASE2_M, GL2), (CASE3_M, GL2),
                       (FIB, PGL2)):
            for _, order in search_reversors(m, ctx, 5):
                assert order is None or order % 2 == 0

    def test_order_divides_four_in_gl2(self):
        for m in (CASE1_M, CASE2_M, CASE3_M):
            for _, order in search_reversors(m, GL2, 5):
                if order is not None:
                    assert 4 % order == 0

    def test_reversor_square_identity(self):
        rng = random.Random(77)
        for m in (CASE1_M, CASE3_M):
            desc = symmetry_generator_2x2(m, GL2)
            g = desc.generator
            for _ in range(100):
                j = rng.randint(-5, 5)
                k = rng.randint(1, 5)
                eps = rng.choice((1, -1))
                s = mat_pow(g, j).scaled(eps)
                lhs = mat_pow(mat_mul(R2, s), 2 * k)
                rhs = mat_pow(mat_mul(conjugation(R2, s), s), k)
                assert lhs == rhs

    def test_reversibility_implies_reciprocity(self):
        for m, ctx in ((CASE1_M, GL2), (CASE2_M, GL2), (CASE3_M, GL2)):
            if search_reversors(m, ctx, 5):
                assert reciprocity_class(char_poly(m)) != RECIPROCAL_NONE
        assert search_reversors(FIB, PGL2, 5)
        assert pgl_reciprocity_ok(char_poly(FIB))


class TestCanonicalSign:
    def test_flip(self):
        assert canonical_sign(IntMatrix([[0, -1], [1, 0]])) == \
            IntMatrix([[0, 1], [-1, 0]])
        assert canonical_sign(IntMatrix([[0, 1], [-1, 0]])) == \
            IntMatrix([[0, 1], [-1, 0]])


class TestAnalyzeEdgePaths:
    def test_quartic_reversible_but_unclassified(self):
        report = analyze(M4, PGL4, reversor_bound=2)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == "reversible-unclassified"
        orders = {order for _, order in report.reversors}
        assert 2 in orders and None in orders

    def test_quartic_symmetry_generator_irreversible(self):
        report = analyze(N4, PGL4, reversor_bound=3)
        assert report.status == STATUS_IRREVERSIBLE
        assert "lattice" in report.irreversibility_reason

    def test_obstructed_input_is_decided_past_the_enumeration_cap(self):
        # diag(FIB, I3): the I3 block gives the reversor lattice rank 9, and
        # 21^9 points exceed the cap, but no search is needed
        m = IntMatrix([[0, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        report = analyze(m, GroupContext(5))
        assert report.status == STATUS_IRREVERSIBLE
        assert report.reversors == []

    def test_finite_order_above_two_unclassified(self):
        # quarter turn has order 4 in GL(2,Z) and is reversed by a reflection
        report = analyze(R4, GL2, reversor_bound=2)
        assert report.order == 4
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == "reversible-unclassified"
        assert contains_up_to_sign(report.reversors,
                                   IntMatrix([[1, 0], [0, -1]]))

    def test_zero_bound_2x2_is_classified_with_witness(self):
        report = analyze(CASE1_M, GL2, reversor_bound=0)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == CASE_ONE
        [(witness, order)] = report.reversors
        assert is_reversor(witness, CASE1_M, GL2)
        assert order == finite_order_test(witness)

    def test_zero_bound_nxn_is_inconclusive(self):
        from revsym.matgroup import STATUS_INCONCLUSIVE
        report = analyze(M4, GL4, reversor_bound=0)
        assert report.status == STATUS_INCONCLUSIVE
        assert not report.reversors

    def test_sigma_guard_fires_on_bogus_descriptor(self):
        from revsym.matgroup import _classify_from
        bogus = SymmetryDescriptor(finite_part_order=2,
                                   generator=IntMatrix([[1, 1], [0, 1]]),
                                   f_sign=1, f_exponent=1)
        with pytest.raises(AssertionError):
            _classify_from(bogus, (R2, finite_order_test(R2)))


class TestRecords:
    """GroupContext and SymmetryDescriptor are frozen values, and
    ReversibilityReport a mutable record; all three compare field by field
    and print as ``Name(field=value, ...)``."""

    def descriptor(self, **changes):
        fields = dict(finite_part_order=2, generator=FIB, f_sign=1,
                      f_exponent=2)
        return SymmetryDescriptor(**{**fields, **changes})

    def report(self, **changes):
        fields = dict(matrix=CASE3_M, context=GL2, order=None,
                      characteristic_polynomial=char_poly(CASE3_M),
                      reciprocity=RECIPROCAL_DIRECT,
                      sign_adjusted_reciprocity=True,
                      status=STATUS_CLASSIFIED, reversor_bound=10)
        return ReversibilityReport(**{**fields, **changes})

    def test_equality_by_field(self):
        assert GroupContext(2) == GroupContext(2, False) == GL2
        assert GroupContext(2) != PGL2
        assert GroupContext(3) != GL2
        assert self.descriptor() == self.descriptor()
        for change in (dict(finite_part_order=1), dict(generator=R2),
                       dict(f_sign=-1), dict(f_exponent=1)):
            assert self.descriptor(**change) != self.descriptor()
        assert self.report() == self.report()
        for change in (dict(context=PGL2), dict(order=4),
                       dict(reversor_bound=9), dict(reversors=[(R2, 2)]),
                       dict(symmetry_descriptor=self.descriptor()),
                       dict(irreversibility_reason="")):
            assert self.report(**change) != self.report()

    def test_not_equal_to_tuples(self):
        assert GL2 != (2, False)
        assert PGL2 != (2, True)
        assert self.descriptor() != (2, FIB, 1, 2)
        assert GL2 != SymmetryDescriptor(2, FIB, 1, 2)

    def test_equal_frozen_values_hash_equal(self):
        assert hash(GroupContext(4, projective=True)) == hash(PGL4)
        assert hash(self.descriptor()) == hash(self.descriptor())
        assert len({GL2, GroupContext(2), PGL2, GroupContext(2, True)}) == 2

    def test_report_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.report())

    @pytest.mark.parametrize("field", ["n", "projective", "other"])
    def test_context_is_frozen(self, field):
        ctx = GroupContext(2)
        with pytest.raises(AttributeError):
            setattr(ctx, field, 3)
        assert ctx == GL2

    @pytest.mark.parametrize("field", ["finite_part_order", "generator",
                                       "f_sign", "f_exponent"])
    def test_descriptor_is_frozen(self, field):
        desc = self.descriptor()
        with pytest.raises(AttributeError):
            setattr(desc, field, 0)
        assert desc == self.descriptor()

    def test_context_dimension_check(self):
        for n in (1, 0, -2):
            with pytest.raises(ValueError,
                               match="context dimension must be >= 2"):
                GroupContext(n)

    def test_keyword_construction(self):
        assert GroupContext(n=3, projective=True) == GroupContext(3, True)
        assert SymmetryDescriptor(2, FIB, 1, 2) == self.descriptor()
        assert self.report() == ReversibilityReport(
            CASE3_M, GL2, None, char_poly(CASE3_M), RECIPROCAL_DIRECT, True,
            STATUS_CLASSIFIED, 10)

    def test_report_defaults(self):
        a, b = self.report(), self.report()
        assert (a.classification_case, a.symmetry_descriptor, a.reversors,
                a.irreversibility_reason) == (None, None, [], None)
        assert a.reversors is not b.reversors
        a.reversors.append((R2, 2))
        assert b.reversors == []

    def test_report_is_mutable(self):
        report = self.report()
        report.status = STATUS_IRREVERSIBLE
        assert report.status == STATUS_IRREVERSIBLE
        assert report != self.report()

    def test_reprs(self):
        assert repr(GL2) == "GroupContext(n=2, projective=False)"
        assert repr(PGL4) == "GroupContext(n=4, projective=True)"
        assert repr(self.descriptor()) == (
            "SymmetryDescriptor(finite_part_order=2, "
            "generator=IntMatrix([[0, 1], [1, 1]]), f_sign=1, f_exponent=2)")
        assert repr(analyze(IntMatrix([[0, 1], [1, 0]]), PGL2)) == (
            "ReversibilityReport(matrix=IntMatrix([[0, 1], [1, 0]]), "
            "context=GroupContext(n=2, projective=True), order=2, "
            "characteristic_polynomial=IntPoly([-1, 0, 1]), "
            "reciprocity='up-to-sign', sign_adjusted_reciprocity=True, "
            "status='trivially-reversible', reversor_bound=10, "
            "classification_case=None, symmetry_descriptor=None, "
            "reversors=[], irreversibility_reason=None)")

    @pytest.mark.parametrize("m, ctx", [(CASE3_M, GL2), (FIB, PGL2),
                                        (FIB, GL2), (M4, PGL4)])
    def test_analyze_reports_compare_by_value(self, m, ctx):
        first = analyze(m, ctx)
        second = analyze(IntMatrix(m.rows), GroupContext(ctx.n,
                                                         ctx.projective))
        assert first is not second
        assert first == second
        second.reversor_bound += 1
        assert first != second


TRANSVECTION4 = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def answer_in_fresh_interpreter(call, rows, projective, bound):
    """The answer of `call` (analyze, search_reversors, or find_conjugator
    of f with itself) on f = rows at the bound, from a fresh interpreter
    that must return within 60 s; for analyze, the report's fields less
    its bound, which is checked to be the given one."""
    probe = (
        "from revsym.exactmath import IntMatrix\n"
        "from revsym.matgroup import GroupContext, analyze, "
        "find_conjugator, search_reversors\n"
        f"f = IntMatrix({rows!r})\n"
        f"ctx = GroupContext(f.n, {projective!r})\n"
        f"bound = {bound!r}\n"
        + {"analyze": "r = analyze(f, ctx, bound)\n"
                      "assert r.reversor_bound == bound\n"
                      "answer = (r.status, r.classification_case, "
                      "r.reversors, r.irreversibility_reason)\n",
           "search_reversors": "answer = search_reversors(f, ctx, bound)\n",
           "find_conjugator": "answer = find_conjugator(f, f, ctx, bound)\n",
           }[call]
        + "print(repr(answer))")
    proc = subprocess.run([sys.executable, "-c", probe], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNegativeBounds:
    """A negative bound is an empty box, whatever its size: each call gives
    its answer at bound -1, where the cut of the bound to fit the cap once
    lowered a negative bound while (2b+1)^rank grew without end."""

    @pytest.mark.parametrize("call", ["analyze", "search_reversors",
                                      "find_conjugator"])
    @pytest.mark.parametrize("rows, projective", [
        (CASE1_M.rows, False), (CASE1_M.rows, True),
        (TRANSVECTION4, False), (TRANSVECTION4, True),
    ], ids=["case1-gl", "case1-pgl", "transvection4-gl", "transvection4-pgl"])
    def test_answer_at_every_negative_bound(self, call, rows, projective):
        first = answer_in_fresh_interpreter(call, rows, projective, -1)
        for bound in (-3, -708, -10 ** 6):
            assert answer_in_fresh_interpreter(
                call, rows, projective, bound) == first, bound
        if rows == CASE1_M.rows and call != "find_conjugator":
            # at n = 2 the determinant form decides at any bound
            assert "IntMatrix" in first
