import ast
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring_audit import ff
from defring_audit.acceptance import cofactor_charpoly
from defring_audit.cohomology import eigenspace_dim
from defring_audit.ff import (
    MAX_FIELD_ORDER,
    MAX_PRIMALITY_N,
    MatrixFF,
    PolyFF,
    PrimeField,
    ScanBudgetExceeded,
    _check_field_order,
    _echelon,
    _is_irreducible,
    _pmul,
    _power,
    _ppowmod,
    _prem,
    block_diag,
    charpoly,
    eigenvalues_in_splitting_field,
    embed_field,
    is_prime,
    is_unipotent,
    kernel_dim,
    mat_inverse,
    mat_rank,
    mk_field,
    nilpotent_block,
)

F2 = mk_field(2)
F3 = mk_field(3)
F5 = mk_field(5)
F101 = mk_field(101)


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


def test_prime_field_modulus_is_t():
    assert mk_field(5).modulus == (0, 1)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: a monic quadratic over F_2 is reducible iff it has a root
    candidates = []
    for c0 in range(2):
        for c1 in range(2):
            if all((x * x + c1 * x + c0) % 2 != 0 for x in range(2)):
                candidates.append((c0, c1, 1))
    assert candidates == [(1, 1, 1)]
    assert mk_field(2, 2).modulus == (1, 1, 1)


def test_modulus_is_lex_smallest_for_f8():
    # oracle: cubics over F_2 are reducible iff they have a root; compare
    # coefficient vectors constant term first
    irreducible = []
    for c0 in range(2):
        for c1 in range(2):
            for c2 in range(2):
                if all((x**3 + c2 * x * x + c1 * x + c0) % 2 != 0 for x in range(2)):
                    irreducible.append((c0, c1, c2, 1))
    assert mk_field(2, 3).modulus == min(irreducible)


def test_mk_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        mk_field(4, 1)


# ---------------------------------------------------------------------------
# primality against trial division
# ---------------------------------------------------------------------------


def _trial_division_is_prime(n):
    """The former ``is_prime``: odd trial divisors up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_matches_trial_division_up_to_1e5():
    # covers the switch from trial division to Miller-Rabin at 2^16
    for n in range(-3, 10**5 + 1):
        assert is_prime(n) == _trial_division_is_prime(n), n


@pytest.mark.parametrize(
    "n, expect",
    [
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to bases 2..23
        (2**31 - 1, True),
        (2**61 - 1, True),
        ((2**31 - 1) * (2**19 - 1), False),
    ],
)
def test_is_prime_on_pseudoprimes_and_mersenne_primes(n, expect):
    assert is_prime(n) is expect


def test_is_prime_matches_sympy_on_large_random_numbers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("is_prime")
    for bits in (17, 32, 48, 64, 80):
        for _ in range(200):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_refuses_numbers_at_the_limit():
    assert is_prime(MAX_PRIMALITY_N - 1) is False  # even, just below the limit
    for n in (MAX_PRIMALITY_N, 2**127 - 1):
        with pytest.raises(ValueError, match="MAX_PRIMALITY_N"):
            is_prime(n)
    with pytest.raises(ValueError, match="MAX_PRIMALITY_N"):
        mk_field(MAX_PRIMALITY_N)


def test_prime_field_of_a_61_bit_prime():
    f = mk_field(2**61 - 1)
    assert f.order == 2**61 - 1 and f.mul(f.inv(3), 3) == 1


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_small_extension_field_axioms_exhaustively(p, m):
    f = mk_field(p, m)
    els = list(f.elements())
    one = 1
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, one) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == one
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_generator_satisfies_modulus():
    f = mk_field(3, 2)
    t = f.encode((0, 1))
    val = 0
    for c in reversed(f.modulus):
        val = f.add(f.mul(val, t), c)
    assert val == 0


# ---------------------------------------------------------------------------
# table arithmetic against the digit-loop oracles
# ---------------------------------------------------------------------------


def _primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def _extension_fields(max_order):
    """Every (p, m) with m >= 2 and p^m <= max_order."""
    return [
        (p, m)
        for p in _primes_up_to(int(max_order**0.5))
        for m in range(2, max_order.bit_length())
        if p**m <= max_order
    ]


# the fields of the benchmark's extension-field batch, and F_{101^2}
BATCH_FIELDS = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 10), (2, 11),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (5, 2), (5, 3), (5, 4),
    (7, 2), (7, 3), (11, 2), (13, 3), (101, 2),
]


def _full_scan_modulus(p, m):
    """The first irreducible modulus in the full constant-term-first scan."""
    for tail in itertools.product(range(p), repeat=m):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)


def _digit_add(f, a, b):
    """Digit-by-digit sum of encodings."""
    p, out, mult = f.p, 0, 1
    for _ in range(f.m):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _digit_neg(f, a):
    p, out, mult = f.p, 0, 1
    for _ in range(f.m):
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def _fermat_inv(f, mul, a):
    """a^(q-2) by square-and-multiply on the digit product."""
    result, e = 1, f.order - 2
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _repeated_pow(f, a, e):
    """a^e (a != 0) as |e| mod (q - 1) products of a or of its inverse."""
    base = f.inv(a) if e < 0 else a
    result = 1
    for _ in range(abs(e) % (f.order - 1)):
        result = f.mul(result, base)
    return result


def _check_ops(f, pairs):
    def mul(a, b):
        # independent of every table: F_p[T] remainder of the product
        return f.encode(_prem(_pmul(f.coeffs(a), f.coeffs(b), f.p), f.modulus, f.p))

    for a, b in pairs:
        assert f.add(a, b) == _digit_add(f, a, b)
        assert f.sub(a, b) == _digit_add(f, a, _digit_neg(f, b))
        assert f.mul(a, b) == mul(a, b)
    for a, _ in pairs:
        assert f.neg(a) == _digit_neg(f, a)
        if a:
            assert f.inv(a) == _fermat_inv(f, mul, a)


@pytest.mark.parametrize("p,m", _extension_fields(256))
def test_table_ops_match_digit_loops_on_every_pair(p, m):
    f = mk_field(p, m)
    _check_ops(f, itertools.product(f.elements(), repeat=2))


@pytest.mark.parametrize("p,m", BATCH_FIELDS)
def test_table_ops_match_digit_loops_on_random_pairs(p, m):
    f = mk_field(p, m)
    rng = random.Random(f"{p}^{m}")
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(2000)]
    _check_ops(f, pairs)
    for a, b in pairs[:200]:
        for e in (-3, -1, 0, 1, 2, f.order, 7 * f.order + 5):
            if a:
                assert f.pow(a, e) == _repeated_pow(f, a, e)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (2, 8), (7, 2)])
def test_negation_and_zero(p, m):
    f = mk_field(p, m)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0


@pytest.mark.parametrize("p,m", _extension_fields(2**12))
def test_mk_field_matches_full_scan(p, m):
    assert mk_field(p, m).modulus == _full_scan_modulus(p, m)


def test_canonical_moduli_are_irreducible_by_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p, m in _extension_fields(2**12):
        coeffs = list(reversed(mk_field(p, m).modulus))
        assert sympy.Poly(coeffs, x, modulus=p).is_irreducible, (p, m)


def test_mk_field_refuses_orders_past_the_cap():
    assert MAX_FIELD_ORDER == 2**20
    with pytest.raises(ValueError, match="MAX_FIELD_ORDER"):
        mk_field(2, 21)
    with pytest.raises(ValueError, match="MAX_FIELD_ORDER"):
        mk_field(1031, 2)  # 1031^2 > 2^20
    with pytest.raises(ValueError, match="MAX_FIELD_ORDER"):
        mk_field(2, 10**9)


def test_field_order_cap_is_inclusive():
    _check_field_order(2, 20)
    _check_field_order(1021, 2)
    with pytest.raises(ValueError, match="MAX_FIELD_ORDER"):
        _check_field_order(3, 13)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (2, 10), (13, 3)])
def test_matmul_over_extension_matches_entrywise_sums(p, m):
    f = mk_field(p, m)
    rng = random.Random(f"matmul {p}^{m}")
    for rows, inner, cols in [(1, 1, 1), (3, 4, 2), (5, 5, 5), (2, 0, 3), (3, 3, 0)]:
        es1 = [rng.choice([0, rng.randrange(f.order)]) for _ in range(rows * inner)]
        es2 = [rng.choice([0, rng.randrange(f.order)]) for _ in range(inner * cols)]
        if rows > 1:
            es1[:inner] = [0] * inner  # an all-zero row
        A, B = MatrixFF(f, rows, inner, es1), MatrixFF(f, inner, cols, es2)
        expect = []
        for i in range(rows):
            for j in range(cols):
                s = 0
                for t in range(inner):
                    s = f.add(s, f.mul(A.at(i, t), B.at(t, j)))
                expect.append(s)
        assert (A * B).entries == tuple(expect)


def _triple_loop_product(A, B):
    """The former prime-field ``MatrixFF.__mul__``: one index loop per entry."""
    p = A.field.p
    n, k, m = A.rows, A.cols, B.cols
    e1, e2 = A.entries, B.entries
    out = [0] * (n * m)
    for i in range(n):
        base = i * k
        for j in range(m):
            s = 0
            for t in range(k):
                s += e1[base + t] * e2[t * m + j]
            out[i * m + j] = s % p
    return MatrixFF(A.field, n, m, out)


PRODUCT_SHAPES = [
    (1, 1, 1), (3, 4, 2), (2, 5, 3), (5, 5, 5), (1, 6, 1), (6, 1, 6), (1, 4, 5),
    (5, 4, 1), (0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 0), (8, 8, 8),
]


@pytest.mark.parametrize("p", [2, 3, 5, 101, 2**31 - 1])
def test_prime_field_matmul_matches_triple_loop(p):
    f = mk_field(p)
    rng = random.Random(f"prime matmul {p}")
    for rows, inner, cols in PRODUCT_SHAPES:
        for _ in range(5):
            es1 = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(rows * inner)]
            es2 = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(inner * cols)]
            A, B = MatrixFF(f, rows, inner, es1), MatrixFF(f, inner, cols, es2)
            got = A * B
            assert (got.rows, got.cols) == (rows, cols)
            assert got == _triple_loop_product(A, B)


@pytest.mark.parametrize(
    "entries",
    [[0, -1], [0, 5], [1.0, 0], ["1", 0], [0, 1, 2.0, "3"], [None, 0]],
    ids=["negative", "order", "float", "str", "mixed", "none"],
)
def test_constructor_rejects_non_elements_with_the_same_message(entries):
    with pytest.raises(ValueError, match="^entries must be encoded elements of the field$"):
        MatrixFF(F5, 1, len(entries), entries)


def test_constructor_accepts_bools_and_empty_matrices():
    assert MatrixFF(F5, 1, 2, [True, False]).entries == (True, False)
    assert MatrixFF(F5, 0, 3, []).entries == ()
    assert MatrixFF(F2, 1, 1, [1]).entries == (1,)


def test_prime_field_rejects_a_reducible_modulus():
    with pytest.raises(ValueError, match="not irreducible"):
        PrimeField(2, 2, (1, 0, 1))  # T^2 + 1 = (T + 1)^2


# ---------------------------------------------------------------------------
# rank and kernels
# ---------------------------------------------------------------------------


def test_rank_identity_and_zero():
    assert mat_rank(MatrixFF.identity(F5, 3)) == 3
    assert mat_rank(MatrixFF.zeros(F3, 2, 4)) == 0


def test_rank_of_nilpotent_block():
    # hand row-reduction of the 3x3 superdiagonal block leaves two pivots
    assert mat_rank(nilpotent_block(F5, 3)) == 2


def test_kernel_dims_of_block_powers():
    b3 = nilpotent_block(F5, 3)
    assert kernel_dim(b3) == 1
    assert kernel_dim(b3 * b3) == 2
    assert kernel_dim(MatrixFF.zeros(F5, 3, 3)) == 3


@pytest.mark.parametrize("field", [F2, F5, F101])
def test_kernel_formula_min_i_m(field):
    for m in range(1, 9):
        block = nilpotent_block(field, m)
        for i in range(0, 11):
            assert kernel_dim(block.matpow(i)) == min(i, m)


def _matrices(field, max_dim=5):
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(
        lambda rc: st.lists(
            st.integers(0, field.order - 1),
            min_size=rc[0] * rc[1],
            max_size=rc[0] * rc[1],
        ).map(lambda es: MatrixFF(field, rc[0], rc[1], es))
    )


@settings(max_examples=80)
@given(_matrices(F5))
def test_rank_equals_rank_of_transpose(M):
    assert mat_rank(M) == mat_rank(M.transpose())


@settings(max_examples=80)
@given(_matrices(F3))
def test_rank_nullity(M):
    assert kernel_dim(M) + mat_rank(M) == M.cols


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def test_charpoly_of_nilpotent_block_is_t_cubed():
    assert charpoly(nilpotent_block(F5, 3)).coeffs == (0, 0, 0, 1)


def test_charpoly_of_diag_1_2_over_f5():
    M = MatrixFF.from_rows(F5, [[1, 0], [0, 2]])
    # (T-1)(T-2) = T^2 - 3T + 2 = T^2 + 2T + 2 mod 5
    assert charpoly(M).coeffs == (2, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_charpoly_of_identity_is_t_minus_one_power(n):
    f = F5
    target = PolyFF(f, (f.neg(1), 1)) ** n
    assert charpoly(MatrixFF.identity(f, n)) == target


def _polynomial_cofactor_charpoly(M):
    """det(T*I - M) by cofactor expansion over coefficient lists with f.add/f.mul.

    The oracle of ``cofactor_charpoly``: the same expansion along the first
    remaining row (minors memoized by column subset), with every entry a
    polynomial in T over the field instead of one integer.
    """
    f = M.field
    n = M.rows

    def padd(a, b):
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return out

    def pmul(a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = f.add(out[i + j], f.mul(x, y))
        while out and out[-1] == 0:
            out.pop()
        return out

    entry = [
        [
            [f.neg(M.at(i, j)), 1] if i == j else
            ([f.neg(M.at(i, j))] if M.at(i, j) else [])
            for j in range(n)
        ]
        for i in range(n)
    ]
    memo = {}

    def minor(cols):
        if not cols:
            return [1]
        if cols in memo:
            return memo[cols]
        row = n - len(cols)
        acc = []
        for pos, col in enumerate(cols):
            e = entry[row][col]
            if not e:
                continue
            term = pmul(e, minor(cols[:pos] + cols[pos + 1 :]))
            if pos % 2 == 1:
                term = [f.neg(c) for c in term]
            acc = padd(acc, term)
        memo[cols] = acc
        return acc

    return PolyFF(f, tuple(minor(tuple(range(n)))))


def _every_matrix(field, n):
    q = field.order
    for code in range(q ** (n * n)):
        yield MatrixFF(field, n, n, [(code // q**i) % q for i in range(n * n)])


def test_charpoly_matches_cofactor_oracle_exhaustively_2x2():
    for field in (F2, F3):
        for M in _every_matrix(field, 2):
            want = _polynomial_cofactor_charpoly(M)
            assert charpoly(M) == cofactor_charpoly(M) == want


def test_cofactor_oracle_matches_the_polynomial_expansion_on_every_3x3_over_f2():
    for M in _every_matrix(F2, 3):
        assert cofactor_charpoly(M) == _polynomial_cofactor_charpoly(M) == charpoly(M)


@pytest.mark.parametrize("field", [F101, mk_field(7, 2)], ids=repr)
@pytest.mark.parametrize("fill", ["q - 1", "-1"])
def test_cofactor_oracle_at_the_widest_digits(field, fill):
    # every entry q - 1 has all its coefficients at p - 1 and every entry -1
    # is -1 in F_p: the largest integer entries; c*J has charpoly T^4 (T - 5c)
    value = field.order - 1 if fill == "q - 1" else field.neg(1)
    M = MatrixFF(field, 5, 5, [value] * 25)
    want = _polynomial_cofactor_charpoly(M)
    assert cofactor_charpoly(M) == charpoly(M) == want
    assert want.coeffs[:4] == (0, 0, 0, 0)


@pytest.mark.parametrize("p, m", [(3, 1), (2, 4), (7, 2)])
def test_cofactor_oracle_calls_no_field_arithmetic(monkeypatch, p, m):
    field = mk_field(p, m)
    rng = random.Random(f"independent oracle {field!r}")
    matrices = [
        MatrixFF(field, n, n, [rng.randrange(field.order) for _ in range(n * n)])
        for n in (0, 1, 2, 3, 4, 5)
        for _ in range(3)
    ]
    before = [cofactor_charpoly(M) for M in matrices]

    def refused(*args):
        raise AssertionError("the cofactor oracle called field arithmetic")

    for name in ("add", "sub", "mul", "neg", "inv", "pow"):
        monkeypatch.setattr(PrimeField, name, refused)
    with pytest.raises(AssertionError):
        field.add(1, 1)
    assert [cofactor_charpoly(M) for M in matrices] == before


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 5),
    st.sampled_from([F2, F3]),
    st.data(),
)
def test_charpoly_matches_cofactor_oracle_random(n, field, data):
    es = data.draw(
        st.lists(st.integers(0, field.order - 1), min_size=n * n, max_size=n * n)
    )
    M = MatrixFF(field, n, n, es)
    assert charpoly(M) == cofactor_charpoly(M)


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        charpoly(MatrixFF.zeros(F5, 2, 3))


# ---------------------------------------------------------------------------
# elimination and charpoly against the per-entry oracles
# ---------------------------------------------------------------------------


def _per_entry_rank(M):
    """The former ``mat_rank``: Gaussian elimination, one field call per entry."""
    f = M.field
    rows = [list(M.row(i)) for i in range(M.rows)]
    rank = 0
    for col in range(M.cols):
        piv = None
        for r in range(rank, M.rows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, x) for x in rows[rank]]
        pivot_row = rows[rank]
        for r in range(rank + 1, M.rows):
            c = rows[r][col]
            if c:
                rowr = rows[r]
                for j in range(col, M.cols):
                    rowr[j] = f.sub(rowr[j], f.mul(c, pivot_row[j]))
        rank += 1
        if rank == M.rows:
            break
    return rank


def _per_entry_inverse(M):
    """The former ``mat_inverse``: Gauss-Jordan, one field call per entry."""
    f = M.field
    n = M.rows
    aug = [list(M.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = f.inv(aug[col][col])
        aug[col] = [f.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                rowr = aug[r]
                rowc = aug[col]
                for j in range(2 * n):
                    rowr[j] = f.sub(rowr[j], f.mul(c, rowc[j]))
    return MatrixFF(f, n, n, [x for row in aug for x in row[n:]])


def _dot(f, xs, ys):
    s = 0
    for x, y in zip(xs, ys):
        if x and y:
            s = f.add(s, f.mul(x, y))
    return s


def _berkowitz_charpoly(M):
    """The former ``charpoly``: the division-free Berkowitz iteration, O(n^4)."""
    f = M.field
    n = M.rows
    if n == 0:
        return PolyFF(f, (1,))
    A = M.to_lists()
    c = [1]  # descending powers
    for k in range(1, n + 1):
        a = A[k - 1][k - 1]
        v = [1, f.neg(a)]
        if k > 1:
            R = A[k - 1][:k - 1]
            w = [A[i][k - 1] for i in range(k - 1)]
            for j in range(k - 1):
                s = 0
                for x, y in zip(R, w):
                    s = f.add(s, f.mul(x, y))
                v.append(f.neg(s))
                if j < k - 2:
                    w = [_dot(f, A[i][:k - 1], w) for i in range(k - 1)]
        new = [0] * (k + 1)
        for i, vi in enumerate(v):
            if vi:
                for j, cj in enumerate(c):
                    if i + j <= k and cj:
                        new[i + j] = f.add(new[i + j], f.mul(vi, cj))
        c = new
    return PolyFF(f, tuple(reversed(c)))


ORACLE_FIELDS = [F2, F3, F5, F101, mk_field(2, 4), mk_field(3, 2), mk_field(7, 2)]


def _seeded_matrices(field, square=False):
    """Zero, random, sparse and rank-deficient matrices, 0 x 0 up to 7 x 7.

    The rank-deficient ones are products through every inner dimension
    below min(rows, cols), so each square one is singular.
    """
    rng = random.Random(f"oracle matrices {field!r}")
    q = field.order
    shapes = [(0, 0), (1, 1), (1, 4), (4, 1), (2, 2), (3, 3), (3, 5), (5, 3), (6, 6), (7, 7)]
    for r, c in shapes:
        if square and r != c:
            continue
        yield MatrixFF.zeros(field, r, c)
        for _ in range(4):
            yield MatrixFF(field, r, c, [rng.randrange(q) for _ in range(r * c)])
            sparse = [rng.choice([0, 0, 1, rng.randrange(q)]) for _ in range(r * c)]
            yield MatrixFF(field, r, c, sparse)
        for k in range(min(r, c)):
            A = MatrixFF(field, r, k, [rng.randrange(q) for _ in range(r * k)])
            B = MatrixFF(field, k, c, [rng.randrange(q) for _ in range(k * c)])
            yield A * B


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rank_inverse_and_eigenspaces_match_the_per_entry_oracles(field):
    singular = invertible = 0
    for M in _seeded_matrices(field):
        rank = _per_entry_rank(M)
        assert mat_rank(M) == rank
        assert kernel_dim(M) == M.cols - rank
        if M.rows != M.cols:
            continue
        if rank < M.rows:
            singular += 1
            with pytest.raises(ValueError, match="^singular matrix$"):
                mat_inverse(M)
        else:
            invertible += 1
            inverse = mat_inverse(M)
            assert inverse == _per_entry_inverse(M)
            assert M * inverse == MatrixFF.identity(field, M.rows)
        for scalar in (0, 1, field.order - 1):
            shifted = M - MatrixFF(field, M.rows, M.cols, [
                scalar if i == j else 0 for i in range(M.rows) for j in range(M.cols)
            ])
            assert eigenspace_dim(M, scalar) == M.cols - _per_entry_rank(shifted)
    assert singular > 20 and invertible > 10


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_charpoly_matches_berkowitz_and_cofactor_expansion(field):
    for M in _seeded_matrices(field, square=True):
        want = _berkowitz_charpoly(M)
        assert charpoly(M) == want
        if M.rows <= 5:
            assert cofactor_charpoly(M) == _polynomial_cofactor_charpoly(M) == want


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_charpoly_matches_sympy_integer_charpoly_mod_p(p):
    sympy = pytest.importorskip("sympy")
    f = mk_field(p)
    rng = random.Random(f"sympy charpoly {p}")
    for n in (1, 2, 3, 5, 8, 12):
        es = [rng.randrange(p) for _ in range(n * n)]
        want = sympy.Matrix(n, n, es).charpoly().all_coeffs()  # highest degree first
        assert charpoly(MatrixFF(f, n, n, es)).coeffs == tuple(int(c) % p for c in reversed(want))


def test_echelon_full_gives_the_reduced_form_with_augmented_columns():
    # [M | I] reduces to [I | M^-1]; pivots are sought in the first 2 columns only
    M = MatrixFF.from_rows(F5, [[2, 1], [1, 1]])
    rows = [row + [1 if j == i else 0 for j in range(2)] for i, row in enumerate(M.to_lists())]
    reduced = _echelon(F5, rows, 2, full=True)
    assert [row[:2] for row in reduced] == [[1, 0], [0, 1]]
    assert MatrixFF.from_rows(F5, [row[2:] for row in reduced]) * M == MatrixFF.identity(F5, 2)
    # without full, rows above a pivot keep their entries; rank counts pivot rows
    assert _echelon(F5, [[1, 2, 3], [0, 1, 4], [1, 3, 7]], 3) == [[1, 2, 3], [0, 1, 4]]


# ---------------------------------------------------------------------------
# eigenvalues in splitting extensions
# ---------------------------------------------------------------------------


def test_eigenvalues_of_diagonal_matrix():
    M = MatrixFF.from_rows(F5, [[1, 0], [0, 2]])
    field, roots = eigenvalues_in_splitting_field(M)
    assert field == F5
    assert sorted(roots) == [1, 2]


def test_eigenvalues_of_nilpotent_block():
    field, roots = eigenvalues_in_splitting_field(nilpotent_block(F3, 2))
    assert field == F3
    assert roots == (0, 0)


def test_eigenvalues_of_companion_need_f9():
    # companion matrix of T^2 + 1, irreducible over F_3
    M = MatrixFF.from_rows(F3, [[0, 2], [1, 0]])
    field, roots = eigenvalues_in_splitting_field(M)
    assert field.order == 9
    emb = embed_field(F3, field)
    minus_one = emb(2)
    assert len(roots) == 2
    for z in roots:
        assert field.mul(z, z) == minus_one


@pytest.mark.parametrize(
    "rows,field",
    [
        ([[1, 0], [0, 2]], F5),
        ([[0, 2], [1, 0]], F3),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], F2),
    ],
)
def test_product_of_linear_factors_recovers_charpoly(rows, field):
    M = MatrixFF.from_rows(field, rows)
    ext, roots = eigenvalues_in_splitting_field(M)
    emb = embed_field(field, ext)
    lifted = PolyFF(ext, tuple(emb(c) for c in charpoly(M).coeffs))
    product = PolyFF(ext, (1,))
    for z in roots:
        product = product * PolyFF(ext, (ext.neg(z), 1))
    assert product == lifted


def test_eigenvalues_over_extension_base_field():
    # base field F_4; companion of an irreducible quadratic splits in F_16
    f4 = mk_field(2, 2)

    def has_root(b, c):
        return any(
            f4.add(f4.add(f4.mul(x, x), f4.mul(b, x)), c) == 0 for x in f4.elements()
        )

    b, c = next(
        (b, c) for b in f4.elements() for c in f4.elements() if not has_root(b, c)
    )
    M = MatrixFF.from_rows(f4, [[0, f4.neg(c)], [1, f4.neg(b)]])
    ext, roots = eigenvalues_in_splitting_field(M)
    assert ext.order == 16 and len(roots) == 2
    emb = embed_field(f4, ext)
    lifted = PolyFF(ext, tuple(emb(x) for x in charpoly(M).coeffs))
    assert all(lifted.evaluate(z) == 0 for z in roots)


@pytest.mark.parametrize("p, m, big_m", [(2, 2, 4), (3, 2, 4), (2, 3, 6)])
def test_embed_field_sends_the_generator_to_the_smallest_root(p, m, big_m):
    sub, ext = mk_field(p, m), mk_field(p, big_m)

    def modulus_at(z):
        # sum of c_i z^i, one power per term
        value = 0
        for i, c in enumerate(sub.modulus):
            value = ext.add(value, ext.mul(c, ext.pow(z, i)))
        return value

    roots = [z for z in ext.elements() if modulus_at(z) == 0]
    emb = embed_field(sub, ext)
    assert emb(p) == min(roots)  # the encoding p is the generator T
    for a, b in itertools.product(sub.elements(), repeat=2):
        assert emb(sub.mul(a, b)) == ext.mul(emb(a), emb(b))
        assert emb(sub.add(a, b)) == ext.add(emb(a), emb(b))


def test_scan_budget_error_is_explicit():
    # T^2 - 2 is irreducible over F_101 (2 is a non-residue mod 101),
    # so the roots live in a field of 10201 elements
    M = MatrixFF.from_rows(F101, [[0, 2], [1, 0]])
    with pytest.raises(ScanBudgetExceeded):
        eigenvalues_in_splitting_field(M, budget=5000)
    field, roots = eigenvalues_in_splitting_field(M, budget=11000)
    assert field.order == 101**2 and len(roots) == 2


def test_scan_stops_at_the_field_order_cap():
    # T^2 - c is irreducible over F_1031 for a non-residue c, and its roots
    # live in F_{1031^2}, past MAX_FIELD_ORDER, whatever the budget
    p = 1031
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    M = MatrixFF.from_rows(mk_field(p), [[0, c], [1, 0]])
    with pytest.raises(ScanBudgetExceeded, match=str(MAX_FIELD_ORDER)):
        eigenvalues_in_splitting_field(M, budget=2**40)


# ---------------------------------------------------------------------------
# block assembly and unipotence
# ---------------------------------------------------------------------------


def test_block_diag_of_b3_and_b1():
    M = block_diag([nilpotent_block(F5, 3), nilpotent_block(F5, 1)])
    assert M.rows == 4
    expect = [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    assert M.to_lists() == expect


def test_block_diag_empty_is_0x0():
    M = block_diag([], field=F5)
    assert (M.rows, M.cols) == (0, 0)


def test_block_diag_of_identities():
    M = block_diag([MatrixFF.identity(F5, 2), MatrixFF.identity(F5, 1)])
    assert M == MatrixFF.identity(F5, 3)


def test_block_diag_rejects_mixed_fields():
    with pytest.raises(ValueError):
        block_diag([MatrixFF.identity(F5, 1), MatrixFF.identity(F3, 1)])


def test_is_unipotent():
    assert is_unipotent(MatrixFF.identity(F5, 3) + nilpotent_block(F5, 3))
    assert not is_unipotent(MatrixFF.from_rows(F5, [[1, 0], [0, 2]]))
    from defring_audit.partitions import Partition, nabla_matrix

    assert is_unipotent(nabla_matrix(Partition((2, 2)), mk_field(7)))


# ---------------------------------------------------------------------------
# square-and-multiply: one loop for matrices, polynomials and residues
# ---------------------------------------------------------------------------


def _square_and_multiply_products(e):
    """bit_length(e) - 1 squarings and popcount(e) - 1 products by the base."""
    return max(0, e.bit_length() - 1 + bin(e).count("1") - 1)


def test_power_of_integers_counts_its_products():
    products = []

    def mul(a, b):
        products.append(1)
        return a * b

    for e in range(0, 130):
        products.clear()
        assert _power(3, e, mul, 1) == 3**e
        assert len(products) == _square_and_multiply_products(e)


@pytest.mark.parametrize("field", [F5, mk_field(3, 2)])
def test_matpow_matches_repeated_products_with_the_fewest_products(monkeypatch, field):
    rng = random.Random(f"matpow:{field.p}:{field.m}")
    M = MatrixFF(field, 3, 3, [rng.randrange(field.order) for _ in range(9)])
    oracle = [MatrixFF.identity(field, 3)]
    for _ in range(64):
        oracle.append(oracle[-1] * M)
    products = []
    real_mul = MatrixFF.__mul__

    def counted_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted_mul)
    for e in range(0, 65):
        products.clear()
        assert M.matpow(e) == oracle[e], e
        assert len(products) == _square_and_multiply_products(e), e


@pytest.mark.parametrize("field", [F5, mk_field(3, 2)])
def test_poly_power_matches_repeated_products(field):
    rng = random.Random(f"polypow:{field.p}:{field.m}")
    for base in (PolyFF(field, ()), PolyFF(field, (1,)), PolyFF(field, (2, 1)),
                 PolyFF(field, tuple(rng.randrange(field.order) for _ in range(3)))):
        want = PolyFF(field, (1,))
        for e in range(0, 12):
            assert base**e == want, (base, e)
            want = want * base


@pytest.mark.parametrize("p, mod", [(2, [1, 1, 0, 1]), (3, [2, 2, 0, 1]), (5, [2, 0, 1])])
def test_ppowmod_matches_repeated_products(p, mod):
    rng = random.Random(f"ppowmod:{p}")
    for base in ([0, 1], [1], [rng.randrange(p) for _ in range(5)]):
        want = [1]
        for e in range(0, 40):
            assert _ppowmod(base, e, mod, p) == want, (base, e)
            want = _prem(_pmul(want, base, p), mod, p)


def test_only_the_field_and_the_vector_ops_read_the_tables():
    # every table walk lives in PrimeField's methods or in _vector_ops
    tree = ast.parse(inspect.getsource(ff))
    readers = set()
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in ("_exp", "_log", "_zech"):
                readers.add(getattr(node, "name", "<module level>"))
    assert readers == {"PrimeField", "_vector_ops"}
