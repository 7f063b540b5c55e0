"""Arithmetic around the all-ones inertial condition.

The condition asks that a tame generator map to a matrix with
characteristic polynomial (T-1)^n.  Its threshold arithmetic lives on
the exact integer q^{n!}: above that bound every prime is coprime to
q^{n!} - 1, and eigenvalue multisets stable under z -> z^q consist of
(q^{n!} - 1)-th roots of unity.
"""

from __future__ import annotations

import math
from .ff import (
    InternalCheckError,
    MatrixFF,
    charpoly,
    eigenvalues_in_splitting_field,
    is_prime,
    mat_inverse,
)
from .limits import MAX_THRESHOLD_BITS, MAX_THRESHOLD_N
from .partitions import Partition, conjugate, kernel_sequence


def taylor_threshold(q: int, n: int) -> int:
    """Exact q^{n!}, for n <= 8 and at most MAX_THRESHOLD_BITS bits."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if n < 1 or n > MAX_THRESHOLD_N:
        raise ValueError(f"n must be in [1, {MAX_THRESHOLD_N}] "
                         f"(MAX_THRESHOLD_N = {MAX_THRESHOLD_N})")
    if q.bit_length() * math.factorial(n) > MAX_THRESHOLD_BITS:
        raise ValueError(f"bit_length(q) * n! exceeds MAX_THRESHOLD_BITS = {MAX_THRESHOLD_BITS}")
    return q ** math.factorial(n)


def threshold_coprime(ell: int, q: int, n: int) -> bool:
    """gcd(ell, q^{n!} - 1) = 1; automatic once ell >= q^{n!}."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    value = taylor_threshold(q, n)
    result = math.gcd(ell, value - 1) == 1
    if ell >= value and not result:
        raise InternalCheckError("a prime >= q^(n!) cannot divide q^(n!) - 1")
    return result


def satisfies_one_condition(X: MatrixFF) -> bool:
    """charpoly(X) == (T - 1)^n."""
    if X.rows != X.cols:
        raise ValueError("condition is defined for square matrices")
    # the binomial coefficients lie in F_p, encoded alike in every F_{p^m}
    n, p = X.rows, X.field.p
    target = tuple(math.comb(n, k) * (-1) ** (n - k) % p for k in range(n + 1))
    return charpoly(X) == target


def qpower_conjugacy(X: MatrixFF, phi: MatrixFF, q: int) -> bool:
    """phi X phi^{-1} == X^q, exactly."""
    if X.rows != X.cols or phi.rows != phi.cols or X.rows != phi.rows:
        raise ValueError("X and phi must be square of the same size")
    if q < 0:
        raise ValueError("q must be nonnegative")
    phi_inv = mat_inverse(phi)  # raises on singular phi
    return phi * X * phi_inv == X.matpow(q)


def eigenvalue_qpower_stable(X: MatrixFF, q: int) -> bool:
    """Is the eigenvalue multiset stable under z -> z^q?

    When stable, every nonzero eigenvalue is a (q^{n!} - 1)-th root of
    unity (each q-power orbit has length t <= n, and t divides n!); that
    consequence is asserted.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    ext, roots = eigenvalues_in_splitting_field(X)
    mapped = sorted(ext.pow(z, q) for z in roots)
    stable = mapped == sorted(roots)
    if stable and ext.order > 1:
        # reduce q^{n!} - 1 modulo the multiplicative group order
        group = ext.order - 1
        exponent = (pow(q, math.factorial(X.rows), group) - 1) % group
        for z in roots:
            if z != 0 and ext.pow(z, exponent) != 1:
                raise InternalCheckError(
                    "stable eigenvalue is not a q^(n!)-1 root of unity"
                )
    return stable


def min_equals_type_partition(rhobar_zeta: MatrixFF) -> Partition:
    """Block partition of a unipotent tame-generator image.

    The conjugate of the kernel sequence: feeding the result back
    through the block model reproduces the same kernel sequence.
    """
    return conjugate(kernel_sequence(rhobar_zeta))
