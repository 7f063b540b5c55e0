"""Exact linear algebra over finite fields F_{p^m}.

Field elements are encoded as integers in [0, p^m): the base-p digits of
the encoding are the coefficients of the element written in the power
basis of the generator, lowest degree first.  Every operation is exact
integer arithmetic; nothing in this module (or anywhere downstream)
touches floating point.

The canonical model of F_{p^m} is fixed once and for all by
:func:`mk_field`, which selects the lexicographically smallest monic
irreducible modulus (coefficients compared constant term first).  This
makes every computation reproducible across runs and platforms.

A field picks its arithmetic once, when built: F_p computes on residues
mod p, and for m >= 2 every product walks log/antilog tables of a
primitive element, which change no encoding and no result.  A sum in
F_{2^m} is the XOR of two encodings, whose base-2 digits are bits (Lidl &
Niederreiter, Finite Fields, ch. 2); for odd p it walks a Zech-logarithm
table, which F_{2^m} never builds.  The tables' size caps extension
fields at MAX_FIELD_ORDER = 2^20 elements, which is also the cap of the
splitting-field search.
Prime fields F_p need no tables; p is capped only by the exact primality
test, at MAX_PRIMALITY_N.

Rank, kernel dimensions, eigenspaces, kernel sequences and inverses
share one elimination kernel, ``_pivot_rows``; an inverse adds
back-substitution (Gauss-Jordan).  The characteristic polynomial comes
from a Hessenberg reduction in O(n^3).  They and the matrix product work
a row at a time through the field's ``scale``, ``axpy`` and ``dot``, so
no caller asks which kind of field it holds.
``PrimeField`` and its builder ``_table_ops`` are the only readers of
the tables.

Polynomials are coefficient lists or tuples, lowest degree first (``charpoly``
returns a tuple), computed on in a field's own operations: Ben-Or's test
of a modulus (over ``mk_field(p)``) and distinct-degree factorization
share one remainder, gcd and Frobenius step, and neither forms a product
of two polynomials.

Eigenvalues live in the splitting field L = F_{q^D} of the characteristic
polynomial over K = F_q.  The roots in K come from a scan of K; the rest
is split by distinct-degree factorization, whose factor degrees give D, so
L is the only extension field built.  A root of a degree-e factor is
sought only in L's subfield of q^e elements, each candidate costing one
Horner evaluation.  A root found brings its whole orbit under z -> z^q,
the other roots of its irreducible factor, so the scan divides them all
out at once and stops when the quotient is constant.  ``embed_field``
finds its root with the same scan.

``Record`` is the immutable base of the validated inputs of every layer.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .limits import MAX_FIELD_ORDER, MAX_PRIMALITY_N


class ScanBudgetExceeded(ValueError):
    """The splitting field of a characteristic polynomial is beyond the budget."""


class ReducibleModulus(ValueError):
    """A PrimeField modulus of degree >= 2 that is not irreducible over F_p."""


class InternalCheckError(RuntimeError):
    """A mathematically guaranteed invariant failed; indicates a bug."""


class Record:
    """Immutable value record: equality, hash and repr by the fields in ``_fields``.

    A subclass lists its fields in ``_fields`` and every stored attribute in
    ``__slots__``; its ``__init__`` checks the arguments and stores them with
    ``_store``.  Assigning or deleting an attribute afterwards raises
    AttributeError.  Defining a subclass generates no code, so the layers
    import quickly.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values in one C-level call (the bare value for one field)
        cls._key = operator.attrgetter(*cls._fields)

    def _store(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks the values again
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


# the 13 prime bases with which Miller-Rabin is exact below MAX_PRIMALITY_N
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# below this, trial division (fewer than 128 odd divisors) is the cheaper test
_TRIAL_DIVISION_BELOW = 2**16


def is_prime(n: int) -> bool:
    """Exact primality for n < MAX_PRIMALITY_N; ValueError at or above it."""
    if n < _TRIAL_DIVISION_BELOW:
        if n < 4:
            return n >= 2
        if n % 2 == 0:
            return False
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    if n >= MAX_PRIMALITY_N:
        raise ValueError(
            f"{n} is at or above MAX_PRIMALITY_N = {MAX_PRIMALITY_N}, "
            "the limit of the deterministic primality test"
        )
    if any(n % b == 0 for b in _MILLER_RABIN_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _power(x, e: int, mul: Callable, one):
    """x^e by left-to-right square-and-multiply (Knuth, TAOCP 2, 4.6.3).

    ``one`` is returned only for e = 0.  Otherwise each bit of e after the
    top one costs a squaring, and each set bit after it a product by x:
    bit_length(e) - 1 + popcount(e) - 1 products in all.
    """
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


# ---------------------------------------------------------------------------
# Polynomials over a field K: lists of encoded elements, lowest degree first,
# computed on in K's operations.  x^q mod f is a spread of x's coefficients
# and one remainder, so no routine here forms a product of two polynomials.
# ---------------------------------------------------------------------------


def _digits(a: int, p: int, m: int) -> list[int]:
    """The m base-p digits of a, lowest first: the coefficients of an element."""
    out = []
    for _ in range(m):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _encode(coeffs: Iterable[int], p: int) -> int:
    """The element whose coefficients are ``coeffs`` (lowest first), reduced mod p."""
    out, mult = 0, 1
    for c in coeffs:
        out += (c % p) * mult
        mult *= p
    return out


def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _prem(a: Sequence[int], b: Sequence[int], K: PrimeField, quot=None) -> list[int]:
    """Remainder of a by a nonzero b over K.  With ``quot``, a list of zeros of
    length deg a - deg b + 1, the quotient's coefficients are written to it."""
    a = _ptrim(list(a))
    db = len(b) - 1
    inv_lead, mul, axpy = K.inv(b[-1]), K.mul, K.axpy
    while len(a) > db:
        c = mul(a[-1], inv_lead)
        shift = len(a) - 1 - db
        if quot is not None:
            quot[shift] = c
        a[shift:] = axpy(a[shift:], c, b)  # the top coefficient becomes 0
        _ptrim(a)
    return a


def _pdiv(a: Sequence[int], b: Sequence[int], K: PrimeField) -> list[int]:
    """a / b for a b that divides a."""
    quot = [0] * (len(a) - len(b) + 1)
    _prem(a, b, K, quot)
    return quot


def _pgcd(a: Sequence[int], b: Sequence[int], K: PrimeField) -> list[int]:
    """A gcd of a and b, not made monic ([] when both are zero)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _prem(a, b, K)
    return a


def _frobenius(x: list[int], f: Sequence[int], K: PrimeField) -> list[int]:
    """x^q mod f for x in K[T], q = K.order: x^q = the sum of x_i T^(qi), as
    x_i^q = x_i, so one remainder and no product.  Both callers keep q^2 <=
    MAX_FIELD_ORDER, so the spread has at most 1024 deg(x) + 1 entries."""
    q = K.order
    y = [0] * (q * (len(x) - 1) + 1)
    y[::q] = x
    return _prem(y, f, K)


def _minus_t(x: list[int], K: PrimeField) -> list[int]:
    """x - T."""
    h = x + [0] * (2 - len(x))
    h[1] = K.sub(h[1], 1)
    return _ptrim(h)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Ben-Or's irreducibility test for a monic polynomial over F_p.

    A poly of degree m is reducible iff it has an irreducible factor of
    some degree d <= m/2, that is iff gcd(T^(p^d) - T, poly) != 1 for some
    d <= m/2 (Ben-Or 1981).  Each d costs one Frobenius step and one gcd,
    and the test stops at the first d that finds a factor.
    """
    m = len(poly) - 1
    if m < 1:
        return False
    K = mk_field(p)
    frob = [0, 1]  # T^(p^d) mod poly
    for _ in range(m // 2):
        frob = _frobenius(frob, poly, K)
        if len(_pgcd(_minus_t(frob, K), poly, K)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def _check_field_order(p: int, m: int) -> None:
    """Reject an extension F_{p^m}, m >= 2, with more than MAX_FIELD_ORDER elements."""
    # p >= 2, so a degree m >= 21 exceeds the cap and p**m need not be formed
    if m >= MAX_FIELD_ORDER.bit_length() or p**m > MAX_FIELD_ORDER:
        raise ValueError(
            f"F_{p}^{m} has more than MAX_FIELD_ORDER = {MAX_FIELD_ORDER} elements"
        )


def _log_tables(p: int, m: int, modulus: Sequence[int]) -> tuple[list, list, list | None]:
    """Antilog, log and Zech tables of the field F_p[T]/(modulus), m >= 2.

    With g the smallest primitive element by encoding and q = p^m:
    ``exp[i] = g^i`` for 0 <= i < 2(q-1), so a sum of two logs needs no
    reduction; ``log[a]`` is the log of a nonzero a and ``log[0]`` is None;
    ``zech[n] = log(1 + g^n)`` for 0 <= n < q-1, None where 1 + g^n = 0.
    For p = 2 a sum is the XOR of two encodings, so ``zech`` is None.

    The tables are filled by walks x -> xT, one for each coset of <T>, and
    no polynomial product is formed.  If T has order q - 1, then g = T and
    the walk of <T> is the table.  Otherwise g is found in the cyclic
    quotient F*/<T>, and coset i starts from g^i, g times the last start.
    """
    q = p**m
    n = q - 1
    top = p ** (m - 1)
    # T^m = r0 + the sum of r * T^i over these (p^i, r), 0 < i < m and r != 0
    r0 = (-modulus[0]) % p
    reduction = [(p**i, (-c) % p) for i, c in enumerate(modulus[1:m], 1) if c]
    exp = [0] * n
    log: list = [None] * q

    def walk(x: int, pos: int, step: int) -> int:
        """Put x, xT, xT^2, ... at exp[pos], exp[pos + step], ... (mod n) and
        in log until the orbit closes; return the last position."""
        start = x
        while True:
            exp[pos] = x
            log[x] = pos
            c, x = divmod(x, top)  # x = xT
            x *= p
            if c:
                x += c * r0 % p  # the constant digit of x is 0
                for w, r in reduction:
                    d = x // w % p
                    x += ((d + c * r) % p - d) * w
            if x == start:
                return pos
            pos += step
            if pos >= n:
                pos -= n

    k = walk(1, 0, 1) + 1  # the order of T; exp[j] = T^j and log[T^j] = j for now
    e = n // k
    if e > 1:
        # A vector of m digits is packed in slots of ``bits`` bits.  Times T
        # shifts it by a slot and folds the top slot c back as c * (T^m mod
        # modulus), leaving each slot unreduced but below (p - 1) p^i after
        # i steps, so b -> ab is one sum of b_i * aT^i with no carry between
        # slots, reduced mod p at the end.
        bits = (m * p ** (m + 1)).bit_length()
        mask, top_slot = (1 << bits) - 1, bits * m
        slots = [(bits * i, p**i) for i in range(m)]
        t_m = sum(r << bits * i for i, r in enumerate((-c) % p for c in modulus[:m]))

        def times(a: int) -> Callable[[int], int]:
            """b -> ab, an F_p-linear map whose columns are the aT^i, i < m."""
            column, columns = 0, []
            for shift, _ in slots:
                a, d = divmod(a, p)
                column |= d << shift
            for _ in range(m):
                columns.append(column)
                column <<= bits
                c = column >> top_slot
                column += c * t_m - (c << top_slot)

            def apply(b: int) -> int:
                acc = y = 0
                for column in columns:
                    b, d = divmod(b, p)
                    acc += d * column
                for shift, w in slots:
                    y += (acc >> shift & mask) % p * w
                return y

            return apply

        # a maps to a generator of F*/<T>, cyclic of order e, iff no a^(e/r)
        # for a prime r | e lies in <T>, where log is set.  Then a is
        # primitive iff a^e = T^s with s prime to k.  Encodings below p are
        # the constants F_p^*, whose orders divide p - 1 < n.
        primes = _prime_divisors(e)
        for g in range(p, q):
            if log[g] is None and all(
                log[_power(g, e // r, lambda a, b: times(a)(b), 1)] is None for r in primes
            ):
                s = log[_power(g, e, lambda a, b: times(a)(b), 1)]
                if math.gcd(s, k) == 1:
                    break
        else:
            raise InternalCheckError(f"F_{p}^{m} has no primitive element")
        # T = g^(e w) with s w = 1 mod k, so g^i T^j sits at i + e w j (mod n)
        step = e * pow(s, -1, k)
        for j, x in enumerate(exp[:k]):
            exp[j * step % n] = x
            log[x] = j * step % n
        times_g, h = times(g), 1
        for i in range(1, e):
            h = times_g(h)
            walk(h, i, step)
    if log.count(None) != 1:
        raise InternalCheckError(f"the cosets of <T> do not cover F_{p}^{m}")
    if p == 2:
        return exp + exp, log, None
    # 1 + x changes only the constant digit of x: log(1 + x) is log[x + 1],
    # or log[x + 1 - p] where that digit is p - 1.  log_succ holds it for
    # every x, from two slices, and is freed before exp + exp is formed,
    # so the build's peak memory does not rise.
    log_succ = log[1:]
    log_succ.append(None)  # x = q - 1 ends in the digit p - 1: set next
    log_succ[p - 1 :: p] = log[::p]
    zech = list(map(log_succ.__getitem__, exp))
    del log_succ
    return exp + exp, log, zech


def _residue_ops(p: int) -> tuple[Callable, ...]:
    """The operations of F_p on residues mod p, in ``PrimeField``'s order:
    each is one integer expression, comprehension or loop reduced mod p."""
    product = operator.mul

    def add(a: int, b: int) -> int:
        return (a + b) % p

    def neg(a: int) -> int:
        return -a % p

    def sub(a: int, b: int) -> int:
        return (a - b) % p

    def mul(a: int, b: int) -> int:
        return a * b % p

    def inv(a: int) -> int:
        if a % p == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(a, p - 2, p)

    def power(a: int, e: int) -> int:
        return pow(inv(a), -e, p) if e < 0 else pow(a, e, p)

    def scale(c: int, y: list[int]) -> list[int]:
        return [c * b % p for b in y]

    def axpy(x: list[int], c: int, y: list[int]) -> list[int]:
        return [(a - c * b) % p for a, b in zip(x, y)]

    def dot(x: Sequence[int], y: Sequence[int]) -> int:
        return sum(map(product, x, y)) % p

    def horner(c: Sequence[int], x: int) -> int:
        acc = 0
        for a in reversed(c):
            acc = (acc * x + a) % p
        return acc

    return add, neg, sub, mul, inv, power, scale, axpy, dot, horner


def _table_ops(f: PrimeField) -> tuple[Callable, ...]:
    """The operations of F_{p^m}, m >= 2, in ``PrimeField``'s order, as
    walks of ``f``'s tables instead of calls to the field per entry.

    Products are antilogs of sums of logs.  In characteristic 2 a sum is
    the XOR of the two encodings (their digits are bits) and -a = a; for
    odd p a sum goes through the Zech table, a + b = a (1 + b/a).
    """
    exp, log, zech = f._exp, f._log, f._zech
    q = f.order
    n = q - 1

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a: int) -> int:
        if a % q == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        # exp has period q - 1 and length 2(q - 1): exp[-i] = g^(-i)
        return exp[-log[a]]

    def power(a: int, e: int) -> int:
        if e < 0:
            return power(inv(a), -e)
        if a == 0:
            return 0 if e else 1
        return exp[log[a] * e % n]

    def scale(c: int, y: list[int]) -> list[int]:
        if not c:
            return [0] * len(y)
        lc = log[c]
        return [exp[lc + log[b]] if b else 0 for b in y]

    if zech is None:

        def neg(a: int) -> int:
            return a

        def axpy(x: list[int], c: int, y: list[int]) -> list[int]:
            if not c:
                return list(x[: len(y)])
            lc = log[c]
            return [a ^ exp[lc + log[b]] if b else a for a, b in zip(x, y)]

        def dot(x: Sequence[int], y: Sequence[int]) -> int:
            s = 0
            for a, b in zip(x, y):
                if a and b:
                    s ^= exp[log[a] + log[b]]
            return s

        def horner(c: Sequence[int], x: int) -> int:
            if not x:
                return c[0] if c else 0
            lx = log[x]
            s = 0
            for a in reversed(c):
                s = exp[log[s] + lx] ^ a if s else a
            return s

        return operator.xor, neg, operator.xor, mul, inv, power, scale, axpy, dot, horner

    log_minus_one = n >> 1  # -1 = g^((q-1)/2) for odd q

    def add(a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
        z = zech[log[b] - la]
        return 0 if z is None else exp[la + z]

    def neg(a: int) -> int:
        return exp[log[a] + log_minus_one] if a else 0

    def sub(a: int, b: int) -> int:
        return add(a, neg(b))

    def axpy(x: list[int], c: int, y: list[int]) -> list[int]:
        if not c:
            return list(x[: len(y)])
        lc = (log[c] + log_minus_one) % n  # log(-c)
        out = []
        for a, b in zip(x, y):
            if b:
                b = exp[lc + log[b]]
                if a:
                    la = log[a]
                    z = zech[log[b] - la]
                    a = 0 if z is None else exp[la + z]
                else:
                    a = b
            out.append(a)
        return out

    def dot(x: Sequence[int], y: Sequence[int]) -> int:
        s = 0
        for a, b in zip(x, y):
            if a and b:
                v = exp[log[a] + log[b]]
                if s:
                    ls = log[s]
                    z = zech[log[v] - ls]
                    s = 0 if z is None else exp[ls + z]
                else:
                    s = v
        return s

    def horner(c: Sequence[int], x: int) -> int:
        if not x:
            return c[0] if c else 0
        lx = log[x]
        s = 0
        for a in reversed(c):
            if s:
                ls = log[s] + lx  # log(s*x), reduced below q - 1
                if ls >= n:
                    ls -= n
                if a:
                    # a + s*x = g^ls (1 + g^(log a - ls)); a negative index wraps
                    z = zech[log[a] - ls]
                    s = 0 if z is None else exp[ls + z]
                else:
                    s = exp[ls]
            else:
                s = a
        return s

    return add, neg, sub, mul, inv, power, scale, axpy, dot, horner


class PrimeField:
    """F_{p^m} with a fixed monic irreducible modulus.

    ``modulus`` is a coefficient tuple of length m+1, lowest degree first;
    for m = 1 it is T by convention.  The arithmetic is chosen here, once:
    ``_residue_ops`` for F_p, ``_table_ops`` on the tables of
    :func:`_log_tables` for m >= 2.  Either gives the scalar ``add``,
    ``neg``, ``sub``, ``mul``, ``inv`` and ``pow(a, e)`` on encoded
    elements; ``scale(c, y)`` = c*y, ``axpy(x, c, y)`` = x - c*y and
    ``dot(x, y)`` = the sum of the x_j y_j on lists (``axpy`` and ``dot``
    stop at the shorter list); and ``horner(c, x)``, the polynomial with
    coefficients c (lowest degree first) at x.  Every arithmetic gives the
    same results on the domain, encodings in [0, q); ``MatrixFF`` refuses
    entries outside it, where they differ.
    """

    __slots__ = (
        "p", "m", "order", "modulus", "_exp", "_log", "_zech",
        "add", "neg", "sub", "mul", "inv", "pow", "scale", "axpy", "dot", "horner",
    )

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        if m > 1:
            _check_field_order(p, m)
        elif not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = tuple(int(c) % p for c in modulus)
        if len(self.modulus) != m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if m == 1:
            ops = _residue_ops(p)
        else:
            if not _is_irreducible(self.modulus, p):
                raise ReducibleModulus(f"modulus {self.modulus} is not irreducible over F_{p}")
            self._exp, self._log, self._zech = _log_tables(p, m, self.modulus)
            ops = _table_ops(self)
        (self.add, self.neg, self.sub, self.mul, self.inv, self.pow,
         self.scale, self.axpy, self.dot, self.horner) = ops

    # -- encoding ------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of length m, lowest degree first."""
        return tuple(_digits(a, self.p, self.m))

    def encode(self, coeffs: Iterable[int]) -> int:
        return _encode(coeffs, self.p)

    def elements(self) -> range:
        return range(self.order)

    def subfield(self, order: int) -> list[int]:
        """The elements of the subfield of ``order`` = p^e elements, e | m, m >= 2.

        Zero, then g^(j(q-1)/(order-1)) for 0 <= j < order - 1, with g the
        primitive element of the tables: log order, not encoding order.
        """
        n = self.order - 1
        return [0] + self._exp[: n : n // (order - 1)]

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrimeField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # the operations are closures, which do not pickle: rebuild them
        return PrimeField, (self.p, self.m, self.modulus)

    def __repr__(self) -> str:
        if self.m == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.m}"


@lru_cache(maxsize=None)
def mk_field(p: int, m: int = 1) -> PrimeField:
    """Canonical F_{p^m}: lexicographically smallest irreducible modulus.

    Candidate moduli are compared by coefficient vectors, constant term
    first.  For m = 1 the modulus is T.  For m >= 2 a candidate with
    constant term 0 is divisible by T, so the scan starts at constant
    term 1; an order above MAX_FIELD_ORDER is refused before any scan.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        return PrimeField(p, 1, (0, 1))  # which refuses a composite p
    _check_field_order(p, m)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        # Horner at every r in F_p^* at once: a root r is a factor T - r
        values = [1] * (p - 1)
        for c in reversed(tail):
            values = [(v * r + c) % p for r, v in enumerate(values, 1)]
        if 0 not in values:
            # PrimeField tests irreducibility itself, so each candidate is
            # tested once; only that test's refusal moves the scan on
            try:
                return PrimeField(p, m, tail + (1,))
            except ReducibleModulus:
                continue
    raise InternalCheckError("no irreducible modulus found")


def embed_field(sub: PrimeField, ext: PrimeField) -> Callable[[int], int]:
    """A fixed field embedding F_{p^m} -> F_{p^M} (requires m | M).

    The generator of the subfield is sent to the smallest root (by
    integer encoding) of the subfield modulus in the extension, so the
    embedding is deterministic.  The roots are sought only in the
    extension's subfield of sub.order elements, where they all lie; the
    modulus is irreducible over F_p, so its m roots are the orbit of the
    first one found under z -> z^p, and the scan stops there.
    Prime subfields embed as constants.
    """
    if sub == ext:
        return lambda a: a
    if sub.p != ext.p or ext.m % sub.m != 0:
        raise ValueError("target is not an extension of the source field")
    if sub.m == 1:
        return lambda a: a
    roots, _ = _peel_roots(list(sub.modulus), ext.subfield(sub.order), ext, ext.p)
    if not roots:
        raise InternalCheckError("subfield modulus has no root in extension")
    root = min(roots)
    powers = [1]
    for _ in range(sub.m - 1):
        powers.append(ext.mul(powers[-1], root))
    return lambda a: ext.dot(sub.coeffs(a), powers)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class MatrixFF:
    """Immutable exact matrix over a PrimeField, row-major entries."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: PrimeField, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count must equal rows * cols")
        # the type test runs first, so min/max never compare a float or str
        if entries and not (
            all(map(isinstance, entries, itertools.repeat(int)))
            and min(entries) >= 0
            and max(entries) < field.order
        ):
            raise ValueError("entries must be encoded elements of the field")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]]) -> "MatrixFF":
        """Matrix of integer rows, each entry reduced mod the field order.

        Only ``int`` entries are taken; a bool, float, string or other value
        raises ValueError.
        """
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        entries = [e for row in rows for e in row]
        bad = [e for e in entries if type(e) is not int]
        if bad:
            raise ValueError(f"each matrix entry must be an integer, got {bad[0]!r}")
        q = field.order
        return cls(field, r, c, [e % q for e in entries])

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "MatrixFF":
        return cls(field, rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "MatrixFF":
        return cls(field, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic ----------------------------------------------------------

    def _check_same_shape(self, other: "MatrixFF") -> None:
        if self.field != other.field:
            raise ValueError("mixed fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "MatrixFF") -> "MatrixFF":
        self._check_same_shape(other)
        f = self.field
        out = f.axpy(self.entries, f.neg(1), other.entries)  # x - (-1)y
        return MatrixFF(f, self.rows, self.cols, out)

    def __sub__(self, other: "MatrixFF") -> "MatrixFF":
        self._check_same_shape(other)
        f = self.field
        out = f.axpy(self.entries, 1, other.entries)
        return MatrixFF(f, self.rows, self.cols, out)

    def __neg__(self) -> "MatrixFF":
        f = self.field
        return MatrixFF(f, self.rows, self.cols, [f.neg(a) for a in self.entries])

    def __mul__(self, other: "MatrixFF") -> "MatrixFF":
        if not isinstance(other, MatrixFF):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("mixed fields")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        f = self.field
        n, k, m = self.rows, self.cols, other.cols
        e1, e2 = self.entries, other.entries
        rows = [e1[i * k : (i + 1) * k] for i in range(n)]
        if 2 * e1.count(0) < n * k:
            cols = [e2[j::m] for j in range(m)]
            dot = f.dot
            return MatrixFF(f, n, m, [dot(r, c) for r in rows for c in cols])
        # half zeros or more: product row i = sum of a_it * (row t of other), a_it != 0
        axpy, neg = f.axpy, f.neg
        others = [e2[t * m : (t + 1) * m] for t in range(k)]
        out = []
        for row in rows:
            acc = [0] * m
            for a, y in zip(row, others):
                if a:
                    acc = axpy(acc, neg(a), y)
            out += acc
        return MatrixFF(f, n, m, out)

    def transpose(self) -> "MatrixFF":
        return MatrixFF(
            self.field, self.cols, self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def matpow(self, e: int) -> "MatrixFF":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            raise ValueError("negative matrix power")
        return _power(self, e, operator.mul, MatrixFF.identity(self.field, self.rows))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixFF)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"MatrixFF({self.field!r}, {self.to_lists()})"


def nilpotent_block(field: PrimeField, m: int) -> MatrixFF:
    """The m x m nilpotent Jordan block with ones on the superdiagonal."""
    return MatrixFF(
        field, m, m, [1 if j == i + 1 else 0 for i in range(m) for j in range(m)]
    )


def block_diag(blocks: Sequence[MatrixFF], field: PrimeField | None = None) -> MatrixFF:
    """Block-diagonal assembly of square blocks over a common field."""
    if blocks:
        field = blocks[0].field
        if any(b.field != field for b in blocks):
            raise ValueError("mixed fields in block_diag")
    elif field is None:
        raise ValueError("empty block list needs an explicit field")
    for b in blocks:
        if b.rows != b.cols:
            raise ValueError("blocks must be square")
    n = sum(b.rows for b in blocks)
    entries = [0] * (n * n)
    off = 0
    for b in blocks:
        for i in range(b.rows):
            start = (off + i) * n + off
            entries[start : start + b.cols] = b.row(i)
        off += b.rows
    return MatrixFF(field, n, n, entries)


def _pivot_rows(field: PrimeField, rows: Iterable[list[int]], n: int) -> dict[int, list[int]]:
    """An echelon basis of the span of ``rows``, keyed by leading column.

    Each row is reduced against the pivots found so far: while its
    leading entry, sought in the first ``n`` columns, sits in a pivot's
    column, one ``axpy`` clears it and moves the lead right.  A row that
    survives becomes a pivot, scaled to a leading 1.  Columns past ``n``
    ride along, and no row is edited.  Leading columns come from
    ``compress``, so zero entries cost no Python step.  The number of
    pivots is the rank of the first ``n`` columns.
    """
    scale, axpy, inv, compress = field.scale, field.axpy, field.inv, itertools.compress
    cols = range(n)
    pivots: dict[int, list[int]] = {}
    for row in rows:
        while (lead := next(compress(cols, row), None)) is not None:
            pivot = pivots.get(lead)
            if pivot is None:
                c = row[lead]
                pivots[lead] = row if c == 1 else scale(inv(c), row)
                break
            row = axpy(row, row[lead], pivot)
    return pivots


def _gauss_jordan(field: PrimeField, rows: list[list[int]], n: int) -> list[list[int]] | None:
    """Gauss-Jordan on rows [A | B], A n x n: the rows [I | A^-1 B], or None if A is singular.

    Back-substitution clears each column of ``_pivot_rows``' echelon basis
    above its pivot, from the last column up.
    """
    pivots = _pivot_rows(field, rows, n)
    if len(pivots) < n:
        return None
    axpy = field.axpy
    reduced = [pivots[col] for col in range(n)]
    for col in range(n - 1, 0, -1):
        pivot = reduced[col]
        for i in range(col):
            c = reduced[i][col]
            if c:
                reduced[i] = axpy(reduced[i], c, pivot)
    return reduced


def _shifted_rows(M: MatrixFF, scalar: int) -> list[list[int]]:
    """The rows of M - scalar * I, for a square M."""
    sub = M.field.sub
    rows = M.to_lists()
    for i, row in enumerate(rows):
        row[i] = sub(row[i], scalar)
    return rows


def mat_rank(M: MatrixFF) -> int:
    """Rank by exact Gaussian elimination."""
    return len(_pivot_rows(M.field, M.to_lists(), M.cols))


def kernel_dim(M: MatrixFF) -> int:
    """dim ker M = cols - rank."""
    return M.cols - mat_rank(M)


def mat_inverse(M: MatrixFF) -> MatrixFF:
    """Inverse by Gauss-Jordan on [M | I]; raises ValueError on singular input."""
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    aug = [row + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(M.to_lists())]
    reduced = _gauss_jordan(M.field, aug, n)
    if reduced is None:
        raise ValueError("singular matrix")
    return MatrixFF(M.field, n, n, [x for row in reduced for x in row[n:]])


def charpoly(M: MatrixFF) -> tuple[int, ...]:
    """Coefficients of det(T*I - M), lowest degree first, in O(n^3) field operations.

    M is brought to an upper Hessenberg matrix H by similarity transforms:
    for each column, a row swap with the matching column swap, then row i
    -= u_i * row m and column m += u_i * column i.  The leading principal
    minors p_k = det(T*I - H_k) then follow from the recurrence
    p_k = (T - h_kk) p_{k-1} - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1}
    (1-indexed; Cohen, A Course in Computational Algebraic Number Theory,
    section 2.2).  It needs only field division, so it is valid over every
    F_{p^m}, F_2 and F_3 included.
    """
    if M.rows != M.cols:
        raise ValueError("charpoly needs a square matrix")
    f = M.field
    n = M.rows
    axpy, dot, mul = f.axpy, f.dot, f.mul
    H = M.to_lists()
    for m in range(1, n - 1):
        for r in range(m, n):
            if H[r][m - 1]:
                break
        else:
            continue
        if r != m:
            H[r], H[m] = H[m], H[r]
            for row in H:
                row[r], row[m] = row[m], row[r]
        t = f.inv(H[m][m - 1])
        # us[i] = u_i for i > m and us[m] = 1, so column m becomes dot(us, row)
        us = None
        for i in range(m + 1, n):
            c = H[i][m - 1]
            if c:
                if us is None:
                    us = [0] * n
                    us[m] = 1
                us[i] = u = mul(c, t)
                H[i] = axpy(H[i], u, H[m])
        if us is not None:
            for row in H:
                row[m] = dot(us, row)
    polys = [[1]]  # p_0, ..., p_k, lowest degree first
    for k in range(1, n + 1):
        prev = polys[-1]
        p = axpy([0] + prev, H[k - 1][k - 1], prev + [0])
        t = 1
        for i in range(k - 1, 0, -1):
            t = mul(t, H[i][i - 1])
            if not t:
                break
            c = H[i - 1][k - 1]
            if c:
                p[:i] = axpy(p[:i], mul(t, c), polys[i - 1])
        polys.append(p)
    return tuple(polys[n])


def is_unipotent(M: MatrixFF) -> bool:
    """True iff (M - I)^n = 0 with n the dimension."""
    if M.rows != M.cols:
        raise ValueError("unipotence is defined for square matrices")
    n = M.rows
    if n == 0:
        return True
    return (M - MatrixFF.identity(M.field, n)).matpow(n).is_zero()


def _over_budget(limit: int) -> ScanBudgetExceeded:
    return ScanBudgetExceeded(
        f"splitting field of the characteristic polynomial needs more than "
        f"{limit} elements"
    )


def _peel_roots(
    poly: list[int], candidates: Iterable[int], f: PrimeField, q: int
) -> tuple[list[int], list[int]]:
    """The roots of the monic ``poly`` among ``candidates``, with multiplicity,
    and the quotient left once they are divided out.

    ``poly``'s coefficients lie in the subfield of q elements, so the roots
    of each of its irreducible factors form one orbit under z -> z^q (von
    zur Gathen & Gerhard, Modern Computer Algebra, ch. 14): a root z brings
    z^q, z^(q^2), ... with it, and each is divided out as often as it is a
    root.  ``candidates`` must hold whole orbits for the quotient to be
    free of them.  A candidate costs one Horner evaluation, and each root
    one more per further copy tried; the scan stops once the quotient is
    constant.  A conjugate that is no root raises InternalCheckError.
    """
    horner, add, mul, power = f.horner, f.add, f.mul, f.pow
    roots: list[int] = []
    for z in candidates:
        if len(poly) == 1:  # the quotient stays monic, and 1 has no root
            break
        if horner(poly, z):
            continue
        w = z
        while True:
            # w is a root: divide out T - w as often as it is one, by
            # synthetic division: d_(n-1) = c_n, d_(i-1) = c_i + w d_i
            while True:
                poly = poly[1:]
                for i in range(len(poly) - 2, -1, -1):
                    poly[i] = add(poly[i], mul(w, poly[i + 1]))
                roots.append(w)
                if len(poly) == 1 or horner(poly, w):
                    break
            w = power(w, q)
            if w == z:
                break
            if horner(poly, w):
                raise InternalCheckError(f"the conjugate {w} of the root {z} is not a root")
    return roots, poly


def _factor_degrees(f: list[int], K: PrimeField, limit: int) -> list[int]:
    """Degrees of the irreducible factors of a monic f over K with no root in K.

    Distinct-degree factorization (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 14): for d = 2, 3, ..., gcd(T^(q^d) - T, f) is the product
    of the distinct degree-d factors, which are divided out with their
    repeated copies.  Once deg f < 2d every factor left has degree >= d, so f
    is irreducible.  Raises ScanBudgetExceeded as soon as a factor of degree
    d is certain and q^d > limit.
    """
    q = K.order
    degrees: list[int] = []
    frob, reached = [0, 1], 0  # frob = T^(q^reached) mod f
    d = 2
    while len(f) - 1 >= 2 * d:
        if q**d > limit:
            raise _over_budget(limit)
        for _ in range(d - reached):
            frob = _frobenius(frob, f, K)
        reached = d
        g = _pgcd(f, _minus_t(frob, K), K)
        if len(g) > 1:
            degrees.append(d)
            if len(f) - 1 < 2 * d + 2:
                # f = g1 * r, g1 of degree d and deg r in {d, d + 1}: r is
                # irreducible, since each factor of r has degree >= d
                degrees.append(len(f) - 1 - d)
                return degrees
            f = _pdiv(f, g, K)
            while len(g) > 1:
                g = _pgcd(f, g, K)
                f = _pdiv(f, g, K)
            frob = _prem(frob, f, K)
        d += 1
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def eigenvalues_in_splitting_field(M: MatrixFF) -> tuple[PrimeField, tuple[int, ...]]:
    """All n eigenvalues of M, located in its splitting field L.

    The roots in K = M.field come from a scan of K.  Distinct-degree
    factorization of the rest gives the degrees e of its irreducible
    factors, so L = F_{q^D} with D their lcm is the only field built; each
    root of a degree-e factor is found by a scan of L's subfield of q^e
    elements.  The result is deterministic: L is the canonical field of
    its order, K embeds by ``embed_field``, and the roots come sorted by
    encoding.  Raises ScanBudgetExceeded, before L is built, when L would
    have more than MAX_FIELD_ORDER elements.
    """
    if M.rows != M.cols:
        raise ValueError("eigenvalues of a non-square matrix")
    K = M.field
    chi = charpoly(M)
    if M.rows == 0:
        return K, ()
    if K.order > MAX_FIELD_ORDER:
        raise _over_budget(MAX_FIELD_ORDER)
    roots, rest = _peel_roots(list(chi), K.elements(), K, K.order)
    if len(rest) == 1:
        return K, tuple(sorted(roots))
    degrees = _factor_degrees(rest, K, MAX_FIELD_ORDER)
    D = math.lcm(*degrees)
    # q >= 2, so D >= bit_length(MAX_FIELD_ORDER) is over the cap without forming q^D
    if D >= MAX_FIELD_ORDER.bit_length() or K.order**D > MAX_FIELD_ORDER:
        raise _over_budget(MAX_FIELD_ORDER)
    L = mk_field(K.p, K.m * D)
    emb = embed_field(K, L)
    roots = [emb(z) for z in roots]
    rest = [emb(c) for c in rest]
    for e in sorted(set(degrees)):
        found, rest = _peel_roots(rest, L.subfield(K.order**e), L, K.order)
        roots += found
    if len(rest) != 1:
        raise InternalCheckError("a factor's roots are missing from its subfield")
    return L, tuple(sorted(roots))
