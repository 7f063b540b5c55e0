import ast
import copy
import functools
import inspect
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring_audit import acceptance, ff
from defring_audit.acceptance import cofactor_charpoly
from defring_audit.cohomology import eigenspace_dim
from defring_audit.ff import (
    MAX_FIELD_ORDER,
    MAX_PRIMALITY_N,
    MatrixFF,
    PrimeField,
    ReducibleModulus,
    ScanBudgetExceeded,
    _check_field_order,
    _digits,
    _echelon,
    _encode,
    _frobenius,
    _is_irreducible,
    _power,
    _prime_divisors,
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
    # the constructor refuses a composite p for m = 1 with mk_field's message:
    # "F_4" on residues mod 4 would give inv(2) = 0
    for build in (lambda: mk_field(4, 1), lambda: PrimeField(4, 1, (0, 1))):
        with pytest.raises(ValueError, match="^4 is not prime$"):
            build()
    for p in (2, 3, 2**61 - 1):
        f = PrimeField(p, 1, (0, 1))
        for again in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert again == f and again.inv(p - 1) == p - 1


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
# schoolbook polynomial oracles: over F_p in integer loops mod p, and over a
# field by its scalar add, sub, mul and inv
# ---------------------------------------------------------------------------


def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    """The product of a and b over F_p."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _prem(a, b, p):
    """The remainder of a by a nonzero b over F_p."""
    a = _ptrim(list(a))
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c, shift = a[-1] * inv_lead % p, len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _ptrim(a)
    return a


def _poly_mul(f, a, b):
    """The product of a and b over the field f."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return _ptrim(out)


def _poly_rem(f, a, b):
    """The remainder of a by a nonzero b over the field f."""
    a = _ptrim(list(a))
    inv_lead = f.inv(b[-1])
    while len(a) >= len(b):
        c, shift = f.mul(a[-1], inv_lead), len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = f.sub(a[shift + i], f.mul(c, bi))
        _ptrim(a)
    return a


def _monic_polys(p, m):
    """Every monic polynomial of degree m over F_p."""
    return [list(tail) + [1] for tail in itertools.product(range(p), repeat=m)]


def _irreducible_by_trial_division(poly, p):
    """No monic divisor of degree 1 to deg(poly) / 2."""
    m = len(poly) - 1
    return m >= 1 and all(
        _prem(poly, d, p) for k in range(1, m // 2 + 1) for d in _monic_polys(p, k)
    )


# (T^2 + T + 1)^2, (T^2 + T + 1)(T^3 + T + 1) over F_2 and (T^2 + 1)^2 over F_3
# have no root: only the gcd step of Rabin's test rejects them
ROOTLESS_REDUCIBLE = [
    (2, _pmul([1, 1, 1], [1, 1, 1], 2)),
    (2, _pmul([1, 1, 1], [1, 1, 0, 1], 2)),
    (3, _pmul([1, 0, 1], [1, 0, 1], 3)),
]


def _count_irreducible(p, m):
    """Gauss's count of the monic irreducibles of degree m over F_p."""

    def mobius(n):
        primes = _prime_divisors(n)
        return 0 if any(n % (r * r) == 0 for r in primes) else (-1) ** len(primes)

    return sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize("p, max_m", [(2, 6), (3, 4), (5, 3)])
def test_is_irreducible_matches_trial_division(p, max_m):
    for m in range(1, max_m + 1):
        polys = _monic_polys(p, m)
        want = [_irreducible_by_trial_division(c, p) for c in polys]
        assert sum(want) == _count_irreducible(p, m), (p, m)
        assert [_is_irreducible(c, p) for c in polys] == want, (p, m)
        # every product of two monic factors of positive degree is reducible
        for k in range(1, m // 2 + 1):
            for a in _monic_polys(p, k):
                for b in _monic_polys(p, m - k)[:8]:
                    assert not _is_irreducible(_pmul(a, b, p), p)
    for q, poly in ROOTLESS_REDUCIBLE:
        if q == p:
            assert all(_prem(poly, [-r % p, 1], p) for r in range(p))
            assert not _irreducible_by_trial_division(poly, p)
            assert not _is_irreducible(poly, p)


def test_is_irreducible_near_the_cap():
    # over F_1021: T^2 + 5T + 1 is F_{1021^2}'s modulus, and T^2 - 4 = (T - 2)(T + 2)
    p = 1021
    for poly, irreducible in (([1, 5, 1], True), ([p - 4, 0, 1], False)):
        assert _irreducible_by_trial_division(poly, p) == irreducible
        assert _is_irreducible(poly, p) == irreducible
    assert _pmul([p - 2, 1], [2, 1], p) == [p - 4, 0, 1]


@pytest.mark.parametrize("field", [F2, F5, mk_field(2, 2), mk_field(3, 2)], ids=repr)
def test_frobenius_matches_the_qth_power_by_products(field):
    # x^q mod f with x_i^q = x_i, against q products by x, each reduced mod f
    rng = random.Random(f"frobenius {field!r}")
    q = field.order
    for _ in range(20):
        f = [rng.randrange(q) for _ in range(rng.randint(2, 5))] + [1]
        x = _ptrim([rng.randrange(q) for _ in range(len(f) - 1)])
        want = [1]
        for _ in range(q):
            want = _poly_rem(field, _poly_mul(field, want, x), f)
        assert _frobenius(x, f, field) == want, (f, x)


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
    return tuple(next(c for c in _monic_polys(p, m) if _irreducible_by_trial_division(c, p)))


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


def _log_tables_oracle(p, m, modulus):
    """The tables by the schoolbook product: g is found by testing
    g^((q-1)/r) != 1 for each prime r | q - 1, and each coset of <T> starts
    from one product by g."""
    q = p**m
    n = q - 1
    top = p ** (m - 1)
    reduction = [(p**i, (-c) % p) for i, c in enumerate(modulus[:m]) if c]

    def times_t(x):
        c, y = divmod(x, top)
        y *= p
        if c:
            for w, r in reduction:
                d = y // w % p
                y += ((d + c * r) % p - d) * w
        return y

    def orbit(x, length):
        out = []
        for _ in range(length):
            out.append(x)
            x = times_t(x)
        return out

    def mul(a, b):
        return _encode(_prem(_pmul(_digits(a, p, m), _digits(b, p, m), p), modulus, p), p)

    primes = _prime_divisors(n)
    g = next(a for a in range(p, q) if all(_power(a, n // r, mul, 1) != 1 for r in primes))
    # g^e = T^v generates <T>, so coset i, listed as g^i T^j, fills exp[i::e]
    t_powers = [1]
    x = p
    while x != 1:
        t_powers.append(x)
        x = times_t(x)
    k = len(t_powers)
    e = n // k
    v = t_powers.index(_power(g, e, mul, 1))
    exp = [0] * n
    h = 1
    for i in range(e):
        coset = orbit(h, k) if i else t_powers
        exp[i::e] = [coset[l * v % k] for l in range(k)]
        h = mul(g, h)
    log = [None] * q
    for i, x in enumerate(exp):
        log[x] = i
    zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in exp]
    return exp + exp, log, zech


def _order_of_t(f):
    """ord(T) = (q - 1) / gcd(log T, q - 1), T encoded as p."""
    return (f.order - 1) // math.gcd(f._log[f.p], f.order - 1)


# F_{101^2}'s modulus is T^2 + T + 1, so ord(T) = 3 and <T> has 3,400 cosets
@pytest.mark.parametrize("p,m", _extension_fields(2**12) + [(101, 2)])
def test_log_tables_match_the_schoolbook_oracle(p, m):
    f = mk_field(p, m)
    exp, log, zech = _log_tables_oracle(p, m, f.modulus)
    assert (f._exp, f._log) == (exp, log)
    # a sum in characteristic 2 is a XOR, so no Zech table is built
    assert f._zech == (None if p == 2 else zech)


def test_the_generator_is_the_smallest_primitive_element_by_brute_force():
    # where ord(T) < q - 1, g comes from the quotient test: check it against
    # the orders of the elements, walked by schoolbook products
    assert _order_of_t(mk_field(101, 2)) == 3
    fields = [mk_field(p, m) for p, m in _extension_fields(2**12) + [(101, 2)]]
    fields = [f for f in fields if _order_of_t(f) < f.order - 1]
    assert len(fields) >= 10
    for f in fields:
        n = f.order - 1

        def order(a):
            x, k = a, 1
            while x != 1:
                x = f.encode(_prem(_pmul(f.coeffs(x), f.coeffs(a), f.p), f.modulus, f.p))
                k += 1
            return k

        g = f._exp[1]
        assert order(g) == n, f
        assert all(order(a) < n for a in range(f.p, g)), f


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


# zero patterns of a product's left factor: the product takes one dot per
# entry when fewer than half of its entries are zero, else one axpy per nonzero
ZERO_PATTERNS = ("dense", "under half", "half", "90%", "monomial", "nilpotent")


def _left_factor(rng, rows, inner, pattern, nonzero):
    """A rows x inner entry list with the zero pattern ``pattern``;
    ``nonzero()`` draws each nonzero entry."""
    if pattern == "monomial":  # one nonzero per row
        picks = [rng.randrange(inner) for _ in range(rows)] if inner else []
        return [nonzero() if j == c else 0 for c in picks for j in range(inner)]
    if pattern == "nilpotent":  # ones on the superdiagonal
        return [1 if j == i + 1 else 0 for i in range(rows) for j in range(inner)]
    size = rows * inner
    zeros = {"dense": 0, "under half": (size - 1) // 2, "half": (size + 1) // 2,
             "90%": size * 9 // 10}[pattern]
    es = [nonzero() for _ in range(size)]
    for t in rng.sample(range(size), max(zeros, 0)):
        es[t] = 0
    return es


def _dot_counting_field(f):
    """A copy of ``f`` whose ``dot`` counts its calls in ``calls[0]``."""
    g = copy.copy(f)
    calls = [0]
    dot = g.dot

    def counted(x, y):
        calls[0] += 1
        return dot(x, y)

    g.dot = counted
    return g, calls


def _check_product(A, B, product, calls) -> bool:
    """A * B meets its oracle in the loop order that A's zero count selects;
    True for the order by rows."""
    e1 = A.entries
    row_order = 2 * e1.count(0) >= len(e1)
    calls[0] = 0
    got = A * B
    assert calls[0] == (0 if row_order else A.rows * B.cols)
    assert (got.rows, got.cols) == (A.rows, B.cols)
    assert got == product
    return row_order


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (2, 10), (13, 3)])
def test_matmul_over_extension_matches_entrywise_sums(p, m):
    f, calls = _dot_counting_field(mk_field(p, m))
    rng = random.Random(f"matmul {p}^{m}")
    for rows, inner, cols in [(1, 1, 1), (3, 4, 2), (5, 5, 5), (2, 0, 3), (3, 3, 0)]:
        orders = set()
        for pattern in (None,) + ZERO_PATTERNS:
            if pattern is None:
                es1 = [rng.choice([0, rng.randrange(f.order)]) for _ in range(rows * inner)]
                if rows > 1:
                    es1[:inner] = [0] * inner  # an all-zero row
            else:
                es1 = _left_factor(rng, rows, inner, pattern, lambda: rng.randrange(1, f.order))
            es2 = [rng.choice([0, rng.randrange(f.order)]) for _ in range(inner * cols)]
            A, B = MatrixFF(f, rows, inner, es1), MatrixFF(f, inner, cols, es2)
            expect = []
            for i in range(rows):
                for j in range(cols):
                    s = 0
                    for t in range(inner):
                        s = f.add(s, f.mul(A.at(i, t), B.at(t, j)))
                    expect.append(s)
            orders.add(_check_product(A, B, MatrixFF(f, rows, cols, expect), calls))
        # an empty left factor has no nonzero entry, so it takes the row order
        assert orders == ({False, True} if rows * inner else {True})


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
    f, calls = _dot_counting_field(mk_field(p))
    rng = random.Random(f"prime matmul {p}")
    for rows, inner, cols in PRODUCT_SHAPES:
        orders = set()
        for _ in range(5):
            es1 = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(rows * inner)]
            es2 = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(inner * cols)]
            A, B = MatrixFF(f, rows, inner, es1), MatrixFF(f, inner, cols, es2)
            orders.add(_check_product(A, B, _triple_loop_product(A, B), calls))
        nonzero = lambda: rng.choice([1, p - 1, rng.randrange(1, p)])  # noqa: E731
        for pattern in ZERO_PATTERNS:
            A = MatrixFF(f, rows, inner, _left_factor(rng, rows, inner, pattern, nonzero))
            B = MatrixFF(f, inner, cols, [rng.choice([0, 1, p - 1, rng.randrange(p)])
                                          for _ in range(inner * cols)])
            orders.add(_check_product(A, B, _triple_loop_product(A, B), calls))
        # an empty left factor has no nonzero entry, so it takes the row order
        assert orders == ({False, True} if rows * inner else {True})


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
    with pytest.raises(ReducibleModulus, match="not irreducible"):
        PrimeField(2, 2, (1, 0, 1))  # T^2 + 1 = (T + 1)^2


def test_the_modulus_scan_moves_on_only_from_a_reducible_candidate(fresh_field_cache,
                                                                   monkeypatch):
    def broken(*args):
        raise ValueError("table build failed")

    monkeypatch.setattr(ff, "_log_tables", broken)
    # over F_{2^5} and F_{3^4} the scan's first root-free candidate is reducible
    for p, m in ((2, 2), (2, 5), (3, 4)):
        with pytest.raises(ValueError, match="^table build failed$"):
            fresh_field_cache(p, m)


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
    assert charpoly(nilpotent_block(F5, 3)) == (0, 0, 0, 1)


def test_charpoly_of_diag_1_2_over_f5():
    M = MatrixFF.from_rows(F5, [[1, 0], [0, 2]])
    # (T-1)(T-2) = T^2 - 3T + 2 = T^2 + 2T + 2 mod 5
    assert charpoly(M) == (2, 2, 1)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_charpoly_of_identity_is_t_minus_one_power(n):
    f = F5
    target = [1]
    for _ in range(n):
        target = _poly_mul(f, target, [f.neg(1), 1])
    assert list(charpoly(MatrixFF.identity(f, n))) == target


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

    return tuple(minor(tuple(range(n))))


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
    assert want[:4] == (0, 0, 0, 0)


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

    for name in ("add", "neg", "sub", "mul", "inv", "pow", "scale", "axpy", "dot", "horner"):
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
        return (1,)
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
    return tuple(reversed(c))


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
        assert charpoly(MatrixFF(f, n, n, es)) == tuple(int(c) % p for c in reversed(want))


def test_echelon_full_gives_the_reduced_form_with_augmented_columns():
    # [M | I] reduces to [I | M^-1]; pivots are sought in the first 2 columns only
    M = MatrixFF.from_rows(F5, [[2, 1], [1, 1]])
    rows = [row + [1 if j == i else 0 for j in range(2)] for i, row in enumerate(M.to_lists())]
    reduced = _echelon(F5, rows, 2, full=True)
    assert [row[:2] for row in reduced] == [[1, 0], [0, 1]]
    assert MatrixFF.from_rows(F5, [row[2:] for row in reduced]) * M == MatrixFF.identity(F5, 2)
    # without full, rows above a pivot keep their entries; rank counts pivot rows
    assert _echelon(F5, [[1, 2, 3], [0, 1, 4], [1, 3, 7]], 3) == [[1, 2, 3], [0, 1, 4]]


@pytest.mark.parametrize("f", [F2, F5], ids=repr)
def test_echelon_replaces_rows_and_never_edits_one(f):
    # kernel_sequence re-reads the rows it passed in; over F_2 every pivot is 1
    # and is used as it is, so a returned row may be an input row, unedited
    rng = random.Random(f"echelon contract {f!r}")
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice([0, 1, rng.randrange(f.order)]) for _ in range(ncols + 2)]
                for _ in range(nrows)]
        before = [list(row) for row in rows]
        for full in (False, True):
            reduced = _echelon(f, list(rows), ncols, full)
            assert rows == before
            assert len(reduced) == mat_rank(MatrixFF.from_rows(f, [r[:ncols] for r in rows]))
            for row in reduced:
                assert next(x for x in row[:ncols] if x) == 1


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
    lifted = [emb(c) for c in charpoly(M)]
    product = [1]
    for z in roots:
        product = _poly_mul(ext, product, [ext.neg(z), 1])
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
    lifted = [emb(x) for x in charpoly(M)]
    assert all(ext.horner(lifted, z) == 0 for z in roots)


@pytest.fixture
def fresh_field_cache(monkeypatch):
    """ff.mk_field behind an empty cache of its own, so cache_info() counts
    the fields one call builds; ``built`` lists their (p, m)."""
    built, uncached = [], ff.mk_field.__wrapped__

    def build(p, m=1):
        built.append((p, m))
        return uncached(p, m)

    cached = functools.lru_cache(maxsize=None)(build)
    cached.built = built
    monkeypatch.setattr(ff, "mk_field", cached)
    return cached


@pytest.mark.parametrize(
    "p, m, big_m",
    [(2, 2, 4), (3, 2, 4), (2, 3, 6), (2, 2, 12), (2, 4, 8), (5, 2, 4), (7, 2, 4)],
)
def test_embed_field_sends_the_generator_to_the_smallest_root(fresh_field_cache, p, m, big_m):
    sub, ext = mk_field(p, m), mk_field(p, big_m)

    def modulus_at(z):
        # sum of c_i z^i, one power per term
        value = 0
        for i, c in enumerate(sub.modulus):
            value = ext.add(value, ext.mul(c, ext.pow(z, i)))
        return value

    roots = [z for z in ext.elements() if modulus_at(z) == 0]
    # building sub and ext the first time builds F_p for their irreducibility
    # tests; the root search itself builds no field
    misses = fresh_field_cache.cache_info().misses
    emb = embed_field(sub, ext)
    assert fresh_field_cache.cache_info().misses == misses
    assert emb(p) == min(roots)  # the encoding p is the generator T
    for a, b in itertools.product(sub.elements(), repeat=2):
        assert emb(sub.mul(a, b)) == ext.mul(emb(a), emb(b))
        assert emb(sub.add(a, b)) == ext.add(emb(a), emb(b))


def test_scan_budget_error_is_explicit():
    # 2 is a non-residue mod 101 and 101 = 1 mod 4, so T^2 - 2 and T^4 - 2
    # are irreducible over F_101: the roots of the first live in a field of
    # 10201 elements, under MAX_FIELD_ORDER, those of the second past it
    M = MatrixFF.from_rows(F101, [[0, 2], [1, 0]])
    field, roots = eigenvalues_in_splitting_field(M)
    assert field.order == 101**2 and len(roots) == 2
    with pytest.raises(ScanBudgetExceeded) as refused:
        eigenvalues_in_splitting_field(_companion(F101, [F101.neg(2), 0, 0, 0, 1]))
    assert str(refused.value) == (
        f"splitting field of the characteristic polynomial needs more than "
        f"{MAX_FIELD_ORDER} elements"
    )


def test_scan_stops_at_the_field_order_cap():
    # T^2 - c is irreducible over F_1031 for a non-residue c, and its roots
    # live in F_{1031^2}, past MAX_FIELD_ORDER
    p = 1031
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    M = MatrixFF.from_rows(mk_field(p), [[0, c], [1, 0]])
    with pytest.raises(ScanBudgetExceeded, match=str(MAX_FIELD_ORDER)):
        eigenvalues_in_splitting_field(M)


def _field_horner(f, coeffs, x):
    """The polynomial at x by Horner's rule through the field's own add and mul."""
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, x), c)
    return acc


def _full_scan_embedding(sub, ext):
    """F_{p^m} -> F_{p^M}, the generator sent to the smallest root in all of ext."""
    root = min(z for z in ext.elements() if _field_horner(ext, sub.modulus, z) == 0)
    powers = [ext.pow(root, i) for i in range(sub.m)]

    def emb(a):
        out = 0
        for c, w in zip(sub.coeffs(a), powers):
            out = ext.add(out, ext.mul(c, w))
        return out

    return emb


def _divide_by_linear(f, poly, z):
    """Quotient and remainder of poly by T - z, by synthetic division."""
    quot, acc = [0] * (len(poly) - 1), poly[-1]
    for i in range(len(poly) - 2, -1, -1):
        quot[i] = acc
        acc = f.add(poly[i], f.mul(z, acc))
    return quot, acc


def _exhaustive_eigenvalues(M, limit=MAX_FIELD_ORDER):
    """The d-by-d search: build F_{q^d} for d = 1, 2, ... and scan it whole,
    peeling roots by synthetic division, until all n roots are found in a
    field of at most ``limit`` elements."""
    K, n = M.field, M.rows
    chi = charpoly(M)
    if n == 0:
        return K, ()
    d = 1
    while K.order**d <= limit:
        L = K if d == 1 else mk_field(K.p, K.m * d)
        emb = _full_scan_embedding(K, L) if L != K else (lambda a: a)
        poly = [emb(c) for c in chi]
        roots = []
        for z in L.elements():
            while len(poly) > 1:
                quot, rem = _divide_by_linear(L, poly, z)
                if rem:
                    break
                roots.append(z)
                poly = quot
            if len(poly) == 1:
                break
        if len(roots) == n:
            return L, tuple(sorted(roots))
        d += 1
    raise ScanBudgetExceeded(f"more than {limit} elements")


def _companion(field, coeffs):
    """Companion matrix of the monic polynomial with these coefficients (lowest first)."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = field.neg(coeffs[i])
    return MatrixFF.from_rows(field, rows)


def _splitting_matrices(field):
    """Seeded block-diagonal matrices, conjugated by a random invertible P.

    The blocks are companions of random monic polynomials, of squares of
    random polynomials, of f(T)^p (zero derivative) and Jordan blocks
    a*I + N; each matrix has 2 to 8 rows.
    """
    rng = random.Random(f"splitting matrices {field!r}")
    q, p = field.order, field.p

    def monic(k):
        return [rng.randrange(q) for _ in range(k)] + [1]

    def block():
        kind = rng.choice([0, 0, 0, 1, 2, 3])
        if kind == 0:
            return _companion(field, monic(rng.randint(2, 5)))
        if kind == 1:
            g = monic(rng.randint(1, 2))
            return _companion(field, _poly_mul(field, g, g))
        if kind == 2:
            g = monic(rng.randint(1, 2))
            gp = [1]
            for _ in range(p):
                gp = _poly_mul(field, gp, g)
            if len(gp) > 8:
                return _companion(field, monic(2))
            return _companion(field, gp)
        a, k = rng.randrange(q), rng.randint(1, 3)
        scalar = MatrixFF(field, k, k, [a if i == j else 0 for i in range(k) for j in range(k)])
        return scalar + nilpotent_block(field, k)

    out = []
    while len(out) < 16:
        blocks, n = [], 0
        while n < 2 or (n < 8 and rng.random() < 0.6):
            b = block()
            if n + b.rows > 8:
                break
            blocks.append(b)
            n += b.rows
        if n < 2:
            continue
        B = block_diag(blocks)
        while True:
            P = MatrixFF(field, n, n, [rng.randrange(q) for _ in range(n * n)])
            if mat_rank(P) == n:
                break
        out.append(P * B * mat_inverse(P))
    return out


SPLITTING_FIELDS = [F2, F3, F5, mk_field(2, 2), mk_field(3, 2)]


def _root_degree(L, z, q):
    """The least e with z^(q^e) = z: the degree of z over F_q."""
    e, w = 1, L.pow(z, q)
    while w != z:
        e, w = e + 1, L.pow(w, q)
    return e


@pytest.mark.parametrize("field", SPLITTING_FIELDS, ids=repr)
def test_splitting_field_matches_the_exhaustive_scan(field):
    # orders up to 2^12 keep the oracle's scans small; past them the roots are
    # checked one by one: they are the n roots of chi, and the field is the
    # canonical one of degree the lcm of their degrees
    outcomes = set()
    for M in _splitting_matrices(field):
        got = eigenvalues_in_splitting_field(M)
        try:
            want = _exhaustive_eigenvalues(M, 2**12)
        except ScanBudgetExceeded:
            outcomes.add("past the oracle")
            L, roots = got
            assert L.order > 2**12 and list(roots) == sorted(roots)
            poly = [embed_field(field, L)(c) for c in charpoly(M)]
            for z in roots:
                poly, rem = _divide_by_linear(L, poly, z)
                assert rem == 0
            assert poly == [1]
            D = math.lcm(*(_root_degree(L, z, field.order) for z in roots))
            assert L == mk_field(field.p, field.m * D)
            continue
        outcomes.add(want[0].m // field.m)
        assert got == want
    assert {1, 2} <= outcomes


def _random_products(field, rng):
    """Seeded products of random monic polynomials over a prime field, with
    squares and p-th powers among the factors, of degree 6 to 12."""
    p = field.p
    for _ in range(40):
        poly = [1]
        while len(poly) < 7:
            g = [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
            power = rng.choice([1, 1, 1, 2, p])
            for _ in range(power):
                if len(poly) + len(g) - 1 > 13:
                    break
                poly = _poly_mul(field, poly, g)
        yield poly


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_degrees_match_sympy_factor_list(p):
    sympy = pytest.importorskip("sympy")
    field = mk_field(p)
    rng = random.Random(f"factor degrees {p}")
    T = sympy.Symbol("T")
    rootless = 0
    for poly in _random_products(field, rng):
        _, factors = sympy.Poly(list(reversed(poly)), T, modulus=p).factor_list()
        want = {g.degree() for g, _ in factors} - {1}
        # divide out the roots in F_p; what is left has no root in F_p
        rest = list(poly)
        for z in range(p):
            quot, rem = _divide_by_linear(field, rest, z)
            while len(rest) > 1 and not rem:
                rest = quot
                quot, rem = _divide_by_linear(field, rest, z)
        if len(rest) > 1:
            rootless += 1
        got = ff._factor_degrees(rest, field, p ** len(rest)) if len(rest) > 1 else []
        assert set(got) == want, (poly, rest)
    assert rootless >= 20


@pytest.mark.parametrize("field", [mk_field(2, 2), mk_field(3, 2)], ids=repr)
def test_repeated_quadratic_factors_are_stripped_over_an_extension_field(field):
    # a rootless quadratic is irreducible; from degree 6 on, the step d = 2
    # divides its factors out one copy at a time
    g1, g2, g3 = [
        q for q in ([c0, c1, 1] for c1 in field.elements() for c0 in field.elements())
        if all(_field_horner(field, q, z) for z in field.elements())
    ][:3]
    for factors in ([g1, g2, g3], [g1, g1, g2], [g1, g1, g1], [g1, g2, g2, g3]):
        poly = [1]
        for g in factors:
            poly = _poly_mul(field, poly, g)
        assert set(ff._factor_degrees(poly, field, field.order**8)) == {2}
        M = _companion(field, poly)
        assert eigenvalues_in_splitting_field(M) == _exhaustive_eigenvalues(M)


# T^4 + T + 1 and T^3 + T + 1, irreducible over F_2
QUARTIC, CUBIC = (1, 1, 0, 0, 1), (1, 1, 0, 1)
# T^21 + T^2 + 1, irreducible over F_2
DEGREE_21 = (1, 0, 1) + (0,) * 18 + (1,)


@pytest.mark.parametrize("p, poly, ddf_steps", [
    # F_{2^21} is found past the cap after the steps d = 2, ..., 10
    (2, DEGREE_21, 9),
    # T^4 - 7 has no root in F_1031, and 1031^2 > 2^20: the step d = 2
    # would already pass the cap
    (1031, (1031 - 7, 0, 0, 0, 1), 0),
], ids=["degree-21-over-F2", "rootless-quartic-over-F1031"])
def test_an_over_budget_splitting_field_is_refused_before_any_field_is_built(
    monkeypatch, fresh_field_cache, p, poly, ddf_steps
):
    M = _companion(mk_field(p), poly)
    steps = []
    real_pgcd = ff._pgcd
    monkeypatch.setattr(ff, "_pgcd", lambda *args: steps.append(1) or real_pgcd(*args))
    with pytest.raises(ScanBudgetExceeded, match=f"more than {MAX_FIELD_ORDER} elements"):
        eigenvalues_in_splitting_field(M)
    assert fresh_field_cache.cache_info().misses == 0
    assert len(steps) == ddf_steps


def test_only_the_splitting_field_is_built(fresh_field_cache):
    M = block_diag([_companion(F2, QUARTIC), _companion(F2, CUBIC)])
    field, roots = eigenvalues_in_splitting_field(M)
    # F_2 is the field of the scan's Rabin tests for the modulus of F_{2^12}
    assert sorted(fresh_field_cache.built) == [(2, 1), (2, 12)]
    assert field == mk_field(2, 12) and len(roots) == 7
    assert (field, roots) == _exhaustive_eigenvalues(M)


@pytest.mark.parametrize("p, m", [(2, 4), (2, 6), (3, 2), (3, 4), (5, 2)])
def test_subfield_lists_each_element_of_the_subfield_once(p, m):
    f = mk_field(p, m)
    for e in range(1, m + 1):
        if m % e:
            continue
        order = p**e
        want = {z for z in f.elements() if f.pow(z, order) == z}
        got = f.subfield(order)
        assert len(got) == order and set(got) == want


# every F_{2^m} up to m = 12, whose sums are XORs, odd fields, whose sums
# walk the Zech table, and prime fields
VECTOR_FIELDS = [mk_field(2, m) for m in range(2, 13)] + [
    F2, F5, F101, mk_field(3, 2), mk_field(3, 5), mk_field(5, 2), mk_field(7, 3), mk_field(101, 2)
]


@pytest.mark.parametrize("field", VECTOR_FIELDS, ids=repr)
def test_vector_horner_matches_field_horner(field):
    horner = field.horner
    rng = random.Random(f"horner {field!r}")
    polys = [[], [0], [1], [0, 0, 1]]
    polys += [[rng.choice([0, rng.randrange(field.order)]) for _ in range(rng.randint(1, 7))]
              for _ in range(30)]
    for c in polys:
        for x in range(min(field.order, 16)):
            assert horner(c, x) == _field_horner(field, c, x), (c, x)


@pytest.mark.parametrize("f", VECTOR_FIELDS, ids=repr)
def test_vector_ops_match_the_element_operations(f):
    rng = random.Random(f"vector ops {f!r}")

    def row(n):
        return [rng.choice([0, 1, rng.randrange(f.order)]) for _ in range(n)]

    for _ in range(60):
        n = rng.randint(0, 9)
        x, y = row(n), row(n)
        c = rng.choice([0, 1, f.order - 1, rng.randrange(f.order)])
        assert f.axpy(x, c, y) == [f.sub(a, f.mul(c, b)) for a, b in zip(x, y)]
        if c:  # the pivots of an elimination, the one caller, are nonzero
            assert f.scale(c, y) == [f.mul(c, b) for b in y]
        total = 0
        for a, b in zip(x, y):
            total = f.add(total, f.mul(a, b))
        assert f.dot(x, y) == total
        assert f.dot(x, y[: n // 2]) == f.dot(x[: n // 2], y)  # zip stops at the shorter


def _scan_roots(f, poly, candidates):
    """The exhaustive root scan: every candidate, divided out by synthetic
    division as often as it is a root, with no orbit taken and no early stop."""
    roots = []
    for z in candidates:
        while len(poly) > 1:
            quot, rem = _divide_by_linear(f, poly, z)
            if rem:
                break
            roots.append(z)
            poly = quot
    return roots, poly


def _irreducible_products(K, rng, count):
    """Seeded products of monic irreducible factors over K of degree at most 3,
    some repeated, as (product, factor degrees)."""
    pool = []
    while len(pool) < 12:
        g = [rng.randrange(K.order) for _ in range(rng.randint(1, 3))] + [1]
        # a factor of degree at most 3 with no root in K is irreducible
        if len(g) == 2 or all(_field_horner(K, g, z) for z in K.elements()):
            pool.append(g)
    for _ in range(count):
        poly, degrees = [1], []
        for g in rng.sample(pool, rng.randint(1, 3)):
            for _ in range(rng.choice([1, 1, 2, 3])):
                poly = _poly_mul(K, poly, g)
            degrees.append(len(g) - 1)
        yield poly, degrees


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_orbit_peeling_matches_the_exhaustive_scan(p, m):
    K = mk_field(p, m)
    rng = random.Random(f"orbit peeling {p}^{m}")
    multiple = 0
    for poly, degrees in _irreducible_products(K, rng, 25):
        D = math.lcm(*degrees)
        if K.order**D > 2**14:
            continue
        L = mk_field(p, m * D)
        emb = embed_field(K, L)
        got = want = [emb(c) for c in poly]
        # the subfields in the order eigenvalues_in_splitting_field scans them
        for e in sorted(set(degrees)):
            candidates = L.subfield(K.order**e) if L != K else K.elements()
            roots, got = ff._peel_roots(got, candidates, L, K.order)
            oracle_roots, want = _scan_roots(L, want, candidates)
            assert sorted(roots) == sorted(oracle_roots), (poly, e)
            assert got == want, (poly, e)
            multiple += len(roots) > len(set(roots))
        assert got == [1] and want == [1]
        # and in one pass over the whole field
        if L.order <= 2**10:
            everything = [emb(c) for c in poly]
            roots, rest = ff._peel_roots(everything, L.elements(), L, K.order)
            assert (sorted(roots), rest) == (sorted(_scan_roots(L, everything, L.elements())[0]), [1])
    assert multiple >= 3  # repeated roots were peeled


@pytest.mark.parametrize("p, m, big_m", [(2, 4, 8), (3, 3, 3), (5, 2, 4)])
def test_one_root_brings_its_whole_orbit(p, m, big_m):
    # the modulus of F_{p^m} is irreducible over F_p: from any one of its
    # roots, the scan divides out all m, each as often as it is a root
    sub, ext = mk_field(p, m), mk_field(p, big_m)
    modulus = list(sub.modulus)
    orbit, _ = _scan_roots(ext, modulus, ext.elements())
    for power in (1, 2, 3):
        poly = [1]
        for _ in range(power):
            poly = _poly_mul(ext, poly, modulus)
        for z in orbit:
            roots, rest = ff._peel_roots(poly, [z], ext, p)
            assert sorted(roots) == sorted(orbit * power) and rest == [1]


@pytest.mark.parametrize("p, m, big_m", [(2, 4, 8), (2, 3, 6), (3, 2, 4), (2, 5, 10)])
def test_embed_field_stops_at_the_orbit_of_its_first_root(p, m, big_m):
    # one evaluation per candidate up to the first root, then one per other
    # root of its orbit and one per root to find that it is simple; the last
    # quotient is 1 and needs none
    sub, ext = mk_field(p, m), mk_field(p, big_m)
    candidates = ext.subfield(sub.order)
    first = next(i for i, z in enumerate(candidates) if ext.horner(list(sub.modulus), z) == 0)
    counted, calls = copy.copy(ext), [0]
    horner = ext.horner

    def counting(c, x):
        calls[0] += 1
        return horner(c, x)

    counted.horner = counting
    assert embed_field(sub, counted)(p) == embed_field(sub, ext)(p)
    assert calls[0] == first + 1 + 2 * (m - 1)


def test_a_conjugate_that_is_no_root_is_an_internal_error():
    # T - w for a w of F_4 outside F_2 has coefficients in F_4, not in F_2:
    # w^2 is no root, and claiming q = 2 is caught
    F4 = mk_field(2, 2)
    w = next(z for z in F4.elements() if F4.mul(z, z) != z)
    assert ff._peel_roots([F4.neg(w), 1], F4.elements(), F4, 4) == ([w], [1])
    with pytest.raises(ff.InternalCheckError, match="is not a root"):
        ff._peel_roots([F4.neg(w), 1], F4.elements(), F4, 2)


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
# square-and-multiply: one loop for matrices and residues
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


def test_only_the_field_and_the_vector_ops_read_the_tables():
    # every table walk lives in PrimeField or in the builder of its operations
    tree = ast.parse(inspect.getsource(ff))
    readers = set()
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in ("_exp", "_log", "_zech"):
                readers.add(getattr(node, "name", "<module level>"))
    assert readers == {"PrimeField", "_table_ops"}


def test_the_operations_are_built_once_per_field(monkeypatch):
    # c02 and c11 build F_2, F_5, F_101 and F_3 afresh, then F_{2^4} below;
    # every product, row operation and charpoly reuses its field's operations
    fresh = functools.lru_cache(maxsize=None)(ff.mk_field.__wrapped__)
    monkeypatch.setattr(acceptance, "mk_field", fresh)
    built, fields = [], []
    real_init = PrimeField.__init__

    def counted_init(field, *args):
        fields.append(args)
        real_init(field, *args)

    def counted(builder):
        def build(arg):
            built.append(builder.__name__)
            return builder(arg)

        return build

    monkeypatch.setattr(PrimeField, "__init__", counted_init)
    monkeypatch.setattr(ff, "_residue_ops", counted(ff._residue_ops))
    monkeypatch.setattr(ff, "_table_ops", counted(ff._table_ops))
    assert acceptance.c02_kernel_formula()[0]
    assert acceptance.c11_charpoly_oracle()[0]
    K = fresh(2, 4)
    M = MatrixFF(K, 3, 3, range(9))
    assert charpoly(M * M + M) == cofactor_charpoly(M * M + M)
    assert len(fields) == 5
    assert sorted(built) == ["_residue_ops"] * 4 + ["_table_ops"]


@pytest.mark.parametrize(
    "field", [mk_field(5), mk_field(2, 4), PrimeField(2, 2, (1, 1, 1))], ids=repr
)
@pytest.mark.parametrize("round_trip", ["pickle", "deepcopy"])
def test_fields_matrices_and_polynomials_survive_pickle_and_deepcopy(field, round_trip):
    def again(obj):
        if round_trip == "pickle":
            return pickle.loads(pickle.dumps(obj))
        return copy.deepcopy(obj)

    rng = random.Random(f"round trip {field!r}")
    M = MatrixFF(field, 3, 3, [rng.randrange(field.order) for _ in range(9)])
    P = tuple(rng.randrange(field.order) for _ in range(4))
    field2, M2 = again(field), again(M)
    assert (field2, M2) == (field, M)
    pairs = list(itertools.product(field.elements(), repeat=2))
    assert [field2.mul(a, b) for a, b in pairs] == [field.mul(a, b) for a, b in pairs]
    assert [field2.add(a, b) for a, b in pairs] == [field.add(a, b) for a, b in pairs]
    assert M2 * M2 == M * M and charpoly(M2) == charpoly(M)
    assert field2.horner(P, 1) == field.horner(P, 1)
