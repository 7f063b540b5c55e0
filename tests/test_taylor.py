import itertools
import math

import pytest

from defring_audit import limits
from defring_audit.ff import MatrixFF, charpoly, is_unipotent, mk_field, nilpotent_block
from defring_audit.partitions import Partition, nabla_matrix, partitions_of
from defring_audit.taylor import (
    MAX_THRESHOLD_BITS,
    eigenvalue_qpower_stable,
    min_equals_type_partition,
    qpower_conjugacy,
    satisfies_one_condition,
    taylor_threshold,
    threshold_coprime,
)

F3 = mk_field(3)
F5 = mk_field(5)
F7 = mk_field(7)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_taylor_threshold_values():
    assert taylor_threshold(2, 2) == 4
    assert taylor_threshold(2, 3) == 64
    assert taylor_threshold(7, 1) == 7
    assert taylor_threshold(3, 3) == 729


def test_taylor_threshold_bounds():
    with pytest.raises(ValueError):
        taylor_threshold(1, 2)
    with pytest.raises(ValueError):
        taylor_threshold(2, 9)
    with pytest.raises(ValueError):
        taylor_threshold(2, 0)


def test_taylor_threshold_bit_budget():
    # q^(n!) stays printable: fewer than 4300 decimal digits
    assert taylor_threshold(2, 7) == 2**5040 and taylor_threshold(3, 7) == 3**5040
    assert len(str(2**MAX_THRESHOLD_BITS)) < 4300
    for q, n in ((2, 8), (2**MAX_THRESHOLD_BITS, 1), (4, 7)):
        with pytest.raises(ValueError, match=f"MAX_THRESHOLD_BITS = {MAX_THRESHOLD_BITS}"):
            taylor_threshold(q, n)
    with pytest.raises(ValueError, match="MAX_THRESHOLD_BITS"):
        threshold_coprime(5, 10**4000, 3)


def test_threshold_coprime():
    assert threshold_coprime(17, 2, 2)
    # below the threshold coprimality can fail: q^{n!} - 1 = 3 here
    assert not threshold_coprime(3, 2, 2)
    assert threshold_coprime(5, 2, 2)  # gcd(5, 3) = 1
    assert not threshold_coprime(7, 2, 3)  # 7 | 63 = 2^6 - 1
    with pytest.raises(ValueError):
        threshold_coprime(6, 2, 2)


def test_threshold_coprime_automatic_above_threshold():
    for q in (2, 3):
        for n in (1, 2, 3):
            lo = taylor_threshold(q, n)
            primes = [x for x in range(lo, lo + 200) if _is_prime(x)]
            assert primes, "window should contain a prime"
            assert all(threshold_coprime(ell, q, n) for ell in primes)


def _is_prime(x):
    if x < 2:
        return False
    return all(x % f for f in range(2, int(x**0.5) + 1))


# ---------------------------------------------------------------------------
# the all-ones condition
# ---------------------------------------------------------------------------


def test_satisfies_one_condition_examples():
    assert satisfies_one_condition(MatrixFF.identity(F5, 3) + nilpotent_block(F5, 3))
    assert not satisfies_one_condition(
        MatrixFF.from_rows(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    )
    for lam in partitions_of(5):
        assert satisfies_one_condition(nabla_matrix(lam, F7))


def _companion(field, coeffs):
    """The companion matrix of a monic polynomial (lowest degree first)."""
    n = len(coeffs) - 1
    return MatrixFF.from_rows(field, [
        [1 if j == i - 1 else 0 for j in range(n - 1)] + [field.neg(coeffs[i])]
        for i in range(n)
    ])


@pytest.mark.parametrize(
    "field", [mk_field(2), F3, F5, mk_field(2, 2), mk_field(3, 2)], ids=repr
)
def test_the_one_condition_target_is_the_product_of_n_factors_t_minus_one(field):
    # n = 0 is the 0 x 0 matrix, and p divides C(n, k) for some k at n = p
    f = field
    power = [1]  # (T - 1)^n, one product by T - 1 at a time
    for n in range(limits.MAX_MATRIX_DIM + 1):
        C = _companion(f, power)
        assert list(charpoly(C)) == power
        assert satisfies_one_condition(C)
        if n:
            assert not satisfies_one_condition(_companion(f, [f.add(power[0], 1)] + power[1:]))
        power = [f.neg(power[0])] + [f.sub(a, b) for a, b in zip(power, power[1:])] + [1]


def test_one_condition_iff_unipotent_exhaustive_2x2_f3():
    for es in itertools.product(range(3), repeat=4):
        M = MatrixFF(F3, 2, 2, es)
        assert satisfies_one_condition(M) == is_unipotent(M)


# ---------------------------------------------------------------------------
# q-power conjugacy and eigenvalue orbits
# ---------------------------------------------------------------------------


def test_qpower_conjugacy_examples():
    X = MatrixFF.from_rows(F7, [[2, 0], [0, 4]])
    swap = MatrixFF.from_rows(F7, [[0, 1], [1, 0]])
    assert qpower_conjugacy(X, swap, 2)
    assert qpower_conjugacy(MatrixFF.identity(F7, 2), swap, 12)
    bad = MatrixFF.from_rows(F7, [[2, 0], [0, 3]])
    assert not qpower_conjugacy(bad, MatrixFF.identity(F7, 2), 2)
    with pytest.raises(ValueError):
        qpower_conjugacy(X, MatrixFF.zeros(F7, 2, 2), 2)


def test_eigenvalue_qpower_stable_examples():
    assert eigenvalue_qpower_stable(MatrixFF.from_rows(F7, [[2, 0], [0, 4]]), 2)
    assert not eigenvalue_qpower_stable(MatrixFF.from_rows(F7, [[2, 0], [0, 3]]), 2)
    assert eigenvalue_qpower_stable(MatrixFF.identity(F7, 3) + nilpotent_block(F7, 3), 5)


def test_conjugacy_implies_eigenvalue_stability():
    # enumerated family: diagonal 2x2 over F_7 and both permutation phis
    phis = [MatrixFF.identity(F7, 2), MatrixFF.from_rows(F7, [[0, 1], [1, 0]])]
    for a in range(7):
        for b in range(7):
            X = MatrixFF.from_rows(F7, [[a, 0], [0, b]])
            if any(qpower_conjugacy(X, phi, 2) for phi in phis):
                assert eigenvalue_qpower_stable(X, 2)


# ---------------------------------------------------------------------------
# the type partition
# ---------------------------------------------------------------------------


def test_min_equals_type_partition_examples():
    assert min_equals_type_partition(nabla_matrix(Partition((3, 1)), F5)) == Partition((3, 1))
    assert min_equals_type_partition(MatrixFF.identity(F5, 4)) == Partition((1, 1, 1, 1))
    assert min_equals_type_partition(
        MatrixFF.identity(F5, 5) + nilpotent_block(F5, 5)
    ) == Partition((5,))


def test_min_equals_type_partition_round_trip():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert min_equals_type_partition(nabla_matrix(lam, F5)) == lam


def test_min_equals_type_partition_rejects_non_unipotent():
    with pytest.raises(ValueError, match="not unipotent"):
        min_equals_type_partition(MatrixFF.from_rows(F5, [[2, 0], [0, 1]]))


def test_round_trip_preserves_kernel_sequence():
    from defring_audit.partitions import kernel_sequence

    for lam in partitions_of(6):
        M = nabla_matrix(lam, F3)
        back = nabla_matrix(min_equals_type_partition(M), F3)
        assert kernel_sequence(back) == kernel_sequence(M)
