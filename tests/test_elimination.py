"""The sparse integer elimination against the dense one it replaced.

`exactmath._reduce_column` eliminates on sparse rows ({column: value}
dicts) and pivots on the sparsest row of least |entry|.  The dense
elimination below, which pivots on the lowest index of least |entry|, is
kept here as the reference: the Hermite basis is canonical and the inverse
is unique, so every lattice, kernel basis and inverse must come out the
same, and so must the Jordan content and its witness.  At n = 2 the
lattice of (f, tr(f)*I - f) has a closed form; it is checked against the
same reference.
"""

import itertools
import random
from operator import mul

import pytest

from revsym import matgroup
from revsym.exactmath import (
    IntMatrix,
    NotUnimodular,
    _hnf_rows,
    _reduce_column,
    char_poly,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_pow,
)
from revsym.matgroup import GroupContext, intertwiner_lattice
from test_enumeration import (
    JORDAN_BLOCKS,
    _jordan_gcd1_inputs,
    _jordan_gcd2_inputs,
    conjugate,
)
from test_exact_2x2 import BENCH_2X2
from test_exact_2x2 import random_unimodular as random_unimodular_2x2
from test_exactmath import random_unimodular
from test_known_answers import BLOCKS, _block_sums, block_sum
from test_matgroup import screen_pairs


# The dense reference: whole rows, the pivot chosen by index


def dense_reduce_column(work, start, col):
    while True:
        nz = [i for i in range(start, len(work)) if work[i][col] != 0]
        if not nz:
            return False
        if len(nz) == 1:
            i = nz[0]
            work[start], work[i] = work[i], work[start]
            return True
        nz.sort(key=lambda i: (abs(work[i][col]), i))
        base = nz[0]
        pivot_val = work[base][col]
        for i in nz[1:]:
            q = work[i][col] // pivot_val
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[base])]


def dense_hnf_rows(vectors):
    work = [list(v) for v in vectors if any(v)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        if not dense_reduce_column(work, r, col):
            continue
        if work[r][col] < 0:
            work[r] = [-x for x in work[r]]
        p = work[r][col]
        for i in range(r):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
    return [tuple(row) for row in work[:r]]


def dense_integer_kernel(rows, ncols):
    m = len(rows)
    work = [[rows[i][j] for i in range(m)] +
            [1 if k == j else 0 for k in range(ncols)]
            for j in range(ncols)]
    pivot = 0
    for col in range(m):
        if dense_reduce_column(work, pivot, col):
            pivot += 1
    return [tuple(row[m:]) for row in work[pivot:]]


def dense_lattice(a, b):
    """`intertwiner_lattice` from the dense n^2 x n^2 system."""
    n = a.n
    rows = []
    for i in range(n):
        for j in range(n):
            coef = [0] * (n * n)
            for k in range(n):
                coef[i * n + k] += a.rows[k][j]
                coef[k * n + j] -= b.rows[i][k]
            rows.append(coef)
    kernel = dense_hnf_rows(dense_integer_kernel(rows, n * n))
    return [IntMatrix([vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in kernel]


def dense_inverse(a):
    """The Hermite form of [A | I] by the dense reduction."""
    n = a.n
    rows = dense_hnf_rows([row + tuple(int(i == j) for j in range(n))
                           for i, row in enumerate(a.rows)])
    if any(rows[i][i] != 1 for i in range(n)):
        raise NotUnimodular(f"determinant is {mat_det(a)}, not +-1")
    return IntMatrix([row[n:] for row in rows])


def dense_jordan_content(f, cp, basis):
    """`matgroup._jordan_content` on the dense kernel and extended gcd."""
    n = f.n
    eps = -cp.coeffs[n - 1] // n
    nil = [[eps * v - (i == j) for j, v in enumerate(row)]
           for i, row in enumerate(f.rows)]
    v, *rest = dense_integer_kernel(nil, n)
    if rest:
        return None
    k = next(i for i, x in enumerate(v) if x)
    work = [[sum(map(mul, b.rows[k], v)) // v[k]]
            + [int(i == j) for j in range(len(basis))]
            for i, b in enumerate(basis)]
    dense_reduce_column(work, 0, 0)
    content, *coeffs = work[0]
    return abs(content), matgroup._combiner(basis, n)(coeffs)


class TestReduceColumn:
    def test_ties_on_the_entry_go_to_the_sparser_row(self):
        dense, sparse, other = {0: 2, 1: 5, 2: 7}, {0: -2, 3: 1}, {1: 4}
        work = [dense, sparse, other]
        assert _reduce_column(work, 0, 0)
        # the later row has fewer nonzeros, so it is the pivot; the earlier
        # one loses its entry to it: {0: 2, 1: 5, 2: 7} + {0: -2, 3: 1}
        assert work[0] == {0: -2, 3: 1}
        assert work[1] == {1: 5, 2: 7, 3: 1}
        # a row with no entry in the column is the same row, untouched
        assert work[2] is other and other == {1: 4}

    def test_equal_sparsity_goes_to_the_lower_index(self):
        work = [{1: 1}, {0: 3, 2: 1}, {0: -3, 1: 1}, {0: 5}]
        assert _reduce_column(work, 1, 0)
        assert work[0] == {1: 1}
        assert work[1] == {0: 1, 2: 2}
        assert 0 not in work[2] and 0 not in work[3]

    def test_no_entry_in_the_column(self):
        rows = [{0: 3}, {1: 2}, {2: -1}]
        work = list(rows)
        assert not _reduce_column(work, 1, 0)
        assert work == rows and all(a is b for a, b in zip(work, rows))

    def test_single_holder_is_swapped_up(self):
        work = [{1: 2}, {0: -4, 1: 1}]
        assert _reduce_column(work, 0, 0)
        assert work == [{0: -4, 1: 1}, {1: 2}]

    def test_rows_hold_no_zeros(self):
        rng = random.Random("reduce-column/zeros")
        for _ in range(50):
            work = [{j: x for j in range(6) if (x := rng.randint(-3, 3))}
                    for _ in range(5)]
            for col in range(6):
                _reduce_column(work, min(col, 4), col)
                assert all(0 not in row.values() for row in work)


def seeded_vectors(rng, count, ncols):
    """Integer vectors with zero vectors, repeats, multiples and negative
    leading entries among them."""
    out = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0 or not out:
            out.append(tuple([0] * ncols))
        elif kind == 1:
            out.append(rng.choice(out))
        elif kind == 2:
            k = rng.choice((-3, -2, -1, 2))
            out.append(tuple([k * x for x in rng.choice(out)]))
        else:
            v = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
            v[rng.randrange(ncols)] = -rng.randint(1, 9)
            out.append(tuple(v))
    rng.shuffle(out)
    return out


class TestHermite:
    @pytest.mark.parametrize("ncols", [1, 2, 3, 5, 8])
    def test_matches_the_dense_reference(self, ncols):
        rng = random.Random(f"hnf/{ncols}")
        for count in range(0, 12):
            for _ in range(6):
                vectors = seeded_vectors(rng, count, ncols)
                assert _hnf_rows(vectors) == dense_hnf_rows(vectors), vectors

    def test_edge_cases(self):
        assert _hnf_rows([]) == []
        assert _hnf_rows([(0, 0, 0), (0, 0, 0)]) == []
        assert _hnf_rows([(-4,), (6,), (0,)]) == [(2,)]
        assert _hnf_rows([(0, -3, 1)] * 3) == [(0, 3, -1)]
        assert _hnf_rows([(-1, 2), (0, 3), (0, -3)]) == [(1, 1), (0, 3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_integer_kernel_matches_the_dense_reference(self, n):
        rng = random.Random(f"kernel/{n}")
        for m in range(0, n + 2):
            for _ in range(8):
                rows = [[rng.choice((0, 0, rng.randint(-5, 5)))
                         for _ in range(n)] for _ in range(m)]
                assert (_hnf_rows(matgroup._integer_kernel(rows, n))
                        == dense_hnf_rows(dense_integer_kernel(rows, n)))


def pairs_at(n):
    """The pairs (A, B) of every kind of `screen_pairs`, and at n = 1 every
    pair of +-1."""
    if n == 1:
        signs = (IntMatrix([[1]]), IntMatrix([[-1]]))
        return list(itertools.product(signs, signs))
    return list(screen_pairs(random.Random(f"sparse-lattice/{n}"), n))


class TestIntertwinerLattice:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_screen_pairs_match_the_dense_reference(self, n):
        for a, b in pairs_at(n):
            assert intertwiner_lattice(a, b) == dense_lattice(a, b)

    @pytest.mark.parametrize("keys", list(_block_sums()))
    def test_block_sums_match_the_dense_reference(self, keys):
        f = block_sum([BLOCKS[key] for key in keys])
        f_inv = mat_inverse_unimodular(f)
        for b in (f, f_inv, -f_inv):
            assert intertwiner_lattice(f, b) == dense_lattice(f, b)


# 2x2 f of every kind: hyperbolic at det +-1, elliptic of orders 3, 4 and
# 6, parabolic +-(I + N) with N of content 1 and 4, the two diagonal
# reflections (no off-diagonal entry) and the scalars +-I
KINDS_2X2 = {
    "case3": ((1, 1), (1, 2)),
    "case2": ((5, 7), (7, 10)),
    "fib": ((0, 1), (1, 1)),
    "det-1": ((1, 2), (2, 3)),
    "order3": ((0, -1), (1, -1)),
    "order4": ((0, -1), (1, 0)),
    "order6": ((0, -1), (1, 1)),
    "shear": ((1, 1), (0, 1)),
    "-shear": ((-1, -1), (0, -1)),
    "shear4": ((1, 4), (0, 1)),
    "-shear4": ((-1, -4), (0, -1)),
    "reflection": ((1, 0), (0, -1)),
    "-reflection": ((-1, 0), (0, 1)),
    "identity": ((1, 0), (0, 1)),
    "-identity": ((-1, 0), (0, -1)),
}


def traceless_partner(f):
    """tr(f)*I - f, which is f^-1 at det 1 and -f^-1 at det -1."""
    t = f.trace()
    return IntMatrix([[t * (i == j) - x for j, x in enumerate(row)]
                      for i, row in enumerate(f.rows)])


def bench_2x2_inputs(seed):
    """The distinct matrices of the seeded analyze-2x2 benchmark stream:
    the far conjugate of case3, and each named input followed by P*m*P^-1
    for 14 P of each of 1..12 elementary row additions, drawn in the
    stream's order."""
    rng = random.Random(seed)
    out = [IntMatrix([[-127, 209], [-79, 130]])]
    for rows in BENCH_2X2.values():
        m = IntMatrix(rows)
        out.append(m)
        for steps in [s for s in range(1, 13) for _ in range(14)]:
            p, pinv = random_unimodular_2x2(rng, steps)
            out.append(mat_mul(mat_mul(p, m), pinv))
    return list(dict.fromkeys(out))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The equation count m of every `_column_kernel` call, the elimination
    that the 2x2 closed form replaces."""
    calls, kernel = [], matgroup._column_kernel

    def spy(columns, m):
        calls.append(m)
        return kernel(columns, m)

    monkeypatch.setattr(matgroup, "_column_kernel", spy)
    return calls


class TestTracelessLattice:
    @pytest.mark.parametrize("key", list(KINDS_2X2))
    def test_seeded_conjugates_match_the_dense_reference(self, key,
                                                         kernel_calls):
        rng = random.Random(f"traceless/{key}")
        m = IntMatrix(KINDS_2X2[key])
        # P has entries past 10^20, and so has P m P^-1 unless m = +-I
        big = mat_pow(IntMatrix([[1, 2], [1, 3]]), 40)
        inputs = [m, mat_mul(mat_mul(big, m), mat_inverse_unimodular(big))]
        for steps in range(1, 13):
            p, pinv = random_unimodular_2x2(rng, steps)
            inputs.append(mat_mul(mat_mul(p, m), pinv))
        scalar = key.endswith("identity")
        assert scalar or max(map(abs, inputs[1].rows[0])) > 10 ** 20
        for f in inputs:
            kernel_calls.clear()
            b = traceless_partner(f)
            lattice = intertwiner_lattice(f, b)
            assert lattice == dense_lattice(f, b), f
            # only +-I, whose lattice is every X, is left to the elimination
            assert kernel_calls == ([4] if scalar else []), f
            assert len(lattice) == (4 if scalar else 2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_streams_match_the_dense_reference(self, seed):
        for f in bench_2x2_inputs(seed):
            f_inv = mat_inverse_unimodular(f)
            for b in (f_inv, -f_inv):
                assert intertwiner_lattice(f, b) == dense_lattice(f, b), f

    def test_analyze_builds_no_2x2_lattice_by_elimination(self, monkeypatch,
                                                          kernel_calls):
        built, lattice = [], matgroup.intertwiner_lattice

        def spy(a, b):
            built.append(b == traceless_partner(a))
            return lattice(a, b)

        monkeypatch.setattr(matgroup, "intertwiner_lattice", spy)
        for f in bench_2x2_inputs(1):
            for projective in (False, True):
                matgroup.analyze(f, GroupContext(2, projective))
        assert kernel_calls == []
        assert built and all(built)


class TestInverse:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_the_dense_reference(self, n):
        rng = random.Random(f"sparse-inverse/{n}")
        for _ in range(10):
            a = random_unimodular(rng, n, steps=3 * n)
            assert mat_inverse_unimodular(a) == dense_inverse(a)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("det", [0, 2, -2])
    def test_refusals_match_the_dense_reference(self, n, det):
        rng = random.Random(f"sparse-refusal/{n}/{det}")
        scale = IntMatrix([[(det if i == j == n - 1 else 1) * (i == j)
                            for j in range(n)] for i in range(n)])
        for _ in range(5):
            p, q = random_unimodular(rng, n), random_unimodular(rng, n)
            a = mat_mul(mat_mul(p, scale), q)
            assert mat_det(a) in (det, -det)
            with pytest.raises(NotUnimodular) as sparse:
                mat_inverse_unimodular(a)
            with pytest.raises(NotUnimodular) as dense:
                dense_inverse(a)
            assert str(sparse.value) == str(dense.value)


def jordan_inputs():
    yield from _jordan_gcd1_inputs()
    yield from _jordan_gcd2_inputs()
    for key, (rows, _, _) in JORDAN_BLOCKS.items():
        for sign in (1, -1):
            m = IntMatrix(rows).scaled(sign)
            for seed in (0, 1, 2):
                yield pytest.param(
                    m if seed == 0 else conjugate(m, f"sparse/{key}/{seed}", 4),
                    id=f"{key}{sign:+d}^P{seed}")


@pytest.mark.parametrize("m", list(jordan_inputs()))
def test_jordan_content_matches_the_dense_reference(m):
    cp = char_poly(m)
    (basis,) = matgroup._reversor_lattices(m, GroupContext(m.n), cp)
    got = matgroup._jordan_content(m, cp, basis)
    assert got is not None
    assert got == dense_jordan_content(m, cp, basis)
