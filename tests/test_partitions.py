import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring_audit import limits
from defring_audit.ff import (
    MatrixFF,
    block_diag,
    is_unipotent,
    kernel_dim,
    mat_inverse,
    mat_rank,
    mk_field,
    nilpotent_block,
)
from defring_audit.partitions import (
    Partition,
    conjugate,
    kernel_sequence,
    nabla_matrix,
    parse_int,
    partitions_of,
    theta,
    verify_conjugation_lemma,
)

F2 = mk_field(2)
F3 = mk_field(3)
F5 = mk_field(5)
F7 = mk_field(7)
F101 = mk_field(101)


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    parts = []
    remaining, cap = n, n
    while remaining:
        p = draw(st.integers(1, min(cap, remaining)))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(tuple(parts))


# ---------------------------------------------------------------------------
# basic type
# ---------------------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


@pytest.mark.parametrize("parts", [(2.9, 1), (3.0,), ("3", 1), (3, True), (False,), (2, None)])
def test_partition_refuses_parts_that_are_not_integers(parts):
    # int() would read each of these; a part must already be an int
    with pytest.raises(ValueError, match="parts must be integers"):
        Partition(parts)


def test_partition_parse_and_str():
    lam = Partition.parse("3,1")
    assert lam == Partition((3, 1))
    assert str(lam) == "3,1"
    with pytest.raises(ValueError):
        Partition.parse("3,x")


@pytest.mark.parametrize("text, value", [("0", 0), ("17", 17), ("-3", -3), ("007", 7)])
def test_parse_int_reads_a_minus_and_ascii_digits(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize(
    "text", ["", "-", "+3", " 3", "3 ", "1_0", "--3", "3.0", "\u0663", "\uff13", "\u00b2"]
)
def test_parse_int_refuses_what_int_would_read_or_nothing(text):
    with pytest.raises(ValueError, match="invalid integer"):
        parse_int(text)


@pytest.mark.parametrize("text", ["3_0,1", " 3,1", "3, 1", "+3,1", "\u0663,1", "3,,1"])
def test_partition_parse_is_strict(text):
    with pytest.raises(ValueError, match="cannot parse partition"):
        Partition.parse(text)


def test_partition_counts():
    assert len(list(partitions_of(4))) == 5
    assert len(list(partitions_of(10))) == 42
    assert len(list(partitions_of(1))) == 1


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def _conjugate_by_grid(lam: Partition) -> Partition:
    # independent route: draw the diagram as a boolean grid and transpose it
    grid = [[True] * p for p in lam.parts]
    cols = lam.parts[0]
    return Partition(tuple(sum(1 for row in grid if len(row) > c) for c in range(cols)))


def test_conjugate_examples():
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert conjugate(Partition((4,))) == Partition((1, 1, 1, 1))
    assert conjugate(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))
    assert _conjugate_by_grid(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))


@settings(max_examples=100)
@given(partition_strategy(max_n=12))
def test_conjugate_is_an_involution_and_matches_grid(lam):
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam) == _conjugate_by_grid(lam)


# ---------------------------------------------------------------------------
# the block model
# ---------------------------------------------------------------------------


def test_nabla_matrix_31():
    M = nabla_matrix(Partition((3, 1)), F5)
    assert M.to_lists() == [
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_nabla_matrix_all_ones_is_identity():
    assert nabla_matrix(Partition((1, 1, 1)), F5) == MatrixFF.identity(F5, 3)


def test_nabla_matrix_single_block_over_f2():
    assert nabla_matrix(Partition((2,)), F2).to_lists() == [[1, 1], [0, 1]]


@settings(max_examples=60)
@given(partition_strategy(max_n=10))
def test_nabla_matrix_is_unipotent(lam):
    from defring_audit.ff import is_unipotent

    assert is_unipotent(nabla_matrix(lam, F5))


def _nabla_matrix_oracle(lam, field):
    """The former ``nabla_matrix``: I plus the block sum of Jordan blocks."""
    blocks = [nilpotent_block(field, part) for part in lam.parts]
    return MatrixFF.identity(field, lam.n) + block_diag(blocks, field)


@pytest.mark.parametrize("field", [F2, F5, mk_field(3, 2), mk_field(2, 4)], ids=repr)
def test_nabla_matrix_matches_the_composed_model(field):
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert nabla_matrix(lam, field) == _nabla_matrix_oracle(lam, field)


# ---------------------------------------------------------------------------
# kernel sequences
# ---------------------------------------------------------------------------


def test_kernel_sequence_examples():
    assert kernel_sequence(nabla_matrix(Partition((3, 1)), F5)) == Partition((2, 1, 1))
    assert kernel_sequence(MatrixFF.identity(F5, 4)) == Partition((4,))
    assert kernel_sequence(nabla_matrix(Partition((5,)), F7)) == Partition((1,) * 5)


def test_kernel_sequence_rejects_non_unipotent():
    with pytest.raises(ValueError, match="not unipotent"):
        kernel_sequence(MatrixFF.from_rows(F5, [[1, 0], [0, 2]]))


def _kernel_sequence_oracle(M):
    """The former ``kernel_sequence``: test (M-I)^n = 0 first, then the loop."""
    if not is_unipotent(M):
        raise ValueError("not unipotent")
    n = M.rows
    A = M - MatrixFF.identity(M.field, n)
    seq, prev, power = [], 0, A
    while prev < n:
        cur = kernel_dim(power)
        seq.append(cur - prev)
        prev = cur
        power = power * A
    return Partition(tuple(seq))


@pytest.mark.parametrize("field, n", [(F2, 2), (F2, 3), (F3, 2)])
def test_kernel_sequence_matches_oracle_on_every_matrix(field, n):
    unipotent = 0
    for entries in itertools.product(range(field.order), repeat=n * n):
        M = MatrixFF(field, n, n, entries)
        try:
            want = _kernel_sequence_oracle(M)
        except ValueError as exc:
            assert str(exc) == "not unipotent"
            with pytest.raises(ValueError, match="^not unipotent$"):
                kernel_sequence(M)
        else:
            unipotent += 1
            assert kernel_sequence(M) == want
    # the unipotent n x n matrices over F_q number q^(n(n-1))
    assert unipotent == field.order ** (n * (n - 1))


@pytest.mark.parametrize(
    "field", [F2, F3, F5, F101, mk_field(2, 4), mk_field(3, 2), mk_field(7, 2)], ids=repr
)
def test_kernel_sequence_matches_oracle_on_seeded_conjugates(field):
    # P B P^-1 is as unipotent as the block model B and has its kernel sequence,
    # but is dense, so every row-space step does real elimination
    rng = random.Random(f"kernel sequence {field!r}")
    q = field.order
    for n in range(1, 8):
        while True:
            P = MatrixFF(field, n, n, [rng.randrange(q) for _ in range(n * n)])
            if mat_rank(P) == n:
                break
        P_inv = mat_inverse(P)
        for lam in partitions_of(n):
            M = P * nabla_matrix(lam, field) * P_inv
            assert kernel_sequence(M) == _kernel_sequence_oracle(M) == conjugate(lam)
        for _ in range(5):
            M = MatrixFF(field, n, n, [rng.randrange(q) for _ in range(n * n)])
            try:
                want = _kernel_sequence_oracle(M)
            except ValueError:
                with pytest.raises(ValueError, match="^not unipotent$"):
                    kernel_sequence(M)
            else:
                assert kernel_sequence(M) == want


def test_kernel_sequence_echelons_once_per_step_and_forms_no_product(monkeypatch):
    import defring_audit.partitions as partitions_module

    echelons = []
    real_echelon = partitions_module._echelon

    def counting_echelon(field, rows, ncols, full=False):
        echelons.append(len(rows))
        return real_echelon(field, rows, ncols, full)

    def refused_mul(self, other):
        raise AssertionError("kernel_sequence formed a matrix product")

    monkeypatch.setattr(partitions_module, "_echelon", counting_echelon)
    monkeypatch.setattr(MatrixFF, "__mul__", refused_mul)
    for lam in (Partition((4,)), Partition((2, 2)), Partition((1, 1, 1, 1))):
        echelons.clear()
        seq = kernel_sequence(nabla_matrix(lam, F5))
        assert len(echelons) == len(seq.parts)
    echelons.clear()
    with pytest.raises(ValueError, match="not unipotent"):
        kernel_sequence(MatrixFF.from_rows(F5, [[1, 1, 0], [0, 1, 0], [0, 0, 2]]))
    # kernels of dimension 1, 2, 2: the third step shows the stall
    assert len(echelons) == 3


@settings(max_examples=60)
@given(partition_strategy(max_n=12))
def test_kernel_sequence_is_a_partition_of_n(lam):
    seq = kernel_sequence(nabla_matrix(lam, F5))
    # Partition construction already enforces weak decrease
    assert seq.n == lam.n


@settings(max_examples=60)
@given(partition_strategy(max_n=10))
def test_round_trip_through_the_conjugate(lam):
    assert kernel_sequence(nabla_matrix(conjugate(lam), F5)) == lam


# ---------------------------------------------------------------------------
# theta and the lemma
# ---------------------------------------------------------------------------


def test_theta_examples():
    assert theta(Partition((3, 1))) == Partition((2, 1, 1))
    assert theta(Partition((1, 1))) == Partition((2,))
    assert theta(Partition((2, 2))) == Partition((2, 2))


@settings(max_examples=60)
@given(partition_strategy(max_n=10), st.sampled_from([F2, F5, F101]))
def test_theta_is_field_independent_and_conjugation(lam, field):
    assert theta(lam, field) == conjugate(lam)


@pytest.mark.parametrize("field", [F5, mk_field(3, 2)], ids=repr)
@pytest.mark.parametrize("text", ["80", "40,40", "20,15,15,10,7,7,3,2,1"])
def test_theta_is_conjugation_at_the_partition_limit(text, field):
    # "80" takes the most kernel steps of any partition the CLI accepts
    lam = Partition.parse(text)
    assert lam.n == limits.MAX_PARTITION_N
    assert theta(lam, field) == conjugate(lam)


def test_verify_conjugation_lemma_counts():
    r4 = verify_conjugation_lemma(4)
    assert (r4.checked, r4.failures) == (5, ())
    r1 = verify_conjugation_lemma(1)
    assert (r1.checked, r1.failures) == (1, ())
    r10 = verify_conjugation_lemma(10)
    assert (r10.checked, r10.failures) == (42, ())
    assert r10.ok


def test_verify_conjugation_lemma_bounds():
    with pytest.raises(ValueError):
        verify_conjugation_lemma(13)
    with pytest.raises(ValueError):
        verify_conjugation_lemma(0)


def test_single_jordan_block_has_column_kernel_sequence():
    # dim ker B_n^i = i, so every kernel-sequence increment is 1
    M = MatrixFF.identity(F5, 6) + nilpotent_block(F5, 6)
    assert kernel_sequence(M) == Partition((1,) * 6)
