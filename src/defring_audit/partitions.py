"""Young-diagram combinatorics and the partition model of unipotent
inertial types.

A partition (l_1 >= ... >= l_k) of n corresponds to the unipotent matrix
I + diag(B_{l_1}, ..., B_{l_k}) built from nilpotent Jordan blocks; the
inverse direction reads off the kernel sequence of (M - I), and the
round trip through both maps is the classical conjugation (transpose) of
the Young diagram.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .ff import MatrixFF, PrimeField, Record, mk_field
from .limits import MAX_VERIFY_N


def parse_int(text: str) -> int:
    """``int(text)`` for an optional "-" then ASCII digits: no "_", "+", spaces or other digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


class Partition(Record):
    """Weakly decreasing positive integer parts; n is their sum."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
        for x in parts:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"parts must be integers, got {x!r}")
        if not parts:
            raise ValueError("partition must be nonempty")
        if any(x < 1 for x in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        self._store(parts=parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the comma-separated serialization, e.g. ``"3,1"``."""
        try:
            parts = tuple(parse_int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse partition {text!r}") from exc
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest first part first."""
    if n < 1:
        raise ValueError("partitions are defined for n >= 1")

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: part i = #{j : l_j >= i}."""
    out = [0] * lam.parts[0]
    for part in lam.parts:
        for i in range(part):
            out[i] += 1
    return Partition(tuple(out))


def nabla_matrix(lam: Partition, field: PrimeField) -> MatrixFF:
    """I + diag(B_{l_1}, ..., B_{l_k}): the unipotent matrix of the type."""
    n = lam.n
    entries = [0] * (n * n)
    entries[:: n + 1] = [1] * n
    off = 0
    for part in lam.parts:
        # superdiagonal ones inside the block on rows off .. off + part - 1
        for i in range(off, off + part - 1):
            entries[i * n + i + 1] = 1
        off += part
    return MatrixFF(field, n, n, entries)


def _pivot_rows(field: PrimeField, rows: Iterable[list[int]], n: int) -> dict[int, list[int]]:
    """An echelon basis of the span of ``rows``, keyed by leading column.

    Each row is reduced against the pivots found so far: while its
    leading entry sits in a pivot's column it is cleared by one ``axpy``,
    which moves the lead right.  A row that survives becomes a pivot,
    scaled to a leading 1; a row that vanishes adds nothing.  Leading
    columns come from ``compress``, so zero entries cost no Python step.
    The number of pivots is the rank.
    """
    scale, axpy, inv = field.scale, field.axpy, field.inv
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


def kernel_sequence(M: MatrixFF) -> Partition:
    """The partition (s_1, ..., s_r) with s_i = dim ker(M-I)^i - dim ker(M-I)^{i-1}.

    r is minimal with ker(M-I)^r the full space; requires M unipotent.
    The kernels of the powers grow until they stop for good, so M is
    unipotent iff they reach dimension n before a step adds nothing.
    No power and no matrix product is formed: with A = M - I, the row
    space of A^i is the row space of A^(i-1) times A.  A step maps each
    pivot row r of the current row space to r A, the row of A at r's
    leading 1 plus one ``axpy`` per further nonzero r_j, and
    ``_pivot_rows`` reduces each image against the pivots the step has
    found so far.  So a step is one pass over its images, and its rank is
    its number of pivots.  The first step reduces the rows of A.
    """
    if M.rows != M.cols or M.rows == 0:
        raise ValueError("kernel sequence needs a nonempty square matrix")
    n = M.rows
    f = M.field
    axpy, neg, sub = f.axpy, f.neg, f.sub
    cols = range(n)
    flat = list(M.entries)
    for i in range(0, n * n, n + 1):
        flat[i] = sub(flat[i], 1)
    A = [flat[i * n : (i + 1) * n] for i in cols]  # the rows of M - I

    def image(r: list[int]) -> list[int]:
        nonzero = compress(cols, r)  # the first is r's leading 1
        acc = A[next(nonzero)]
        for j in nonzero:
            acc = axpy(acc, neg(r[j]), A[j])
        return acc

    pivots = _pivot_rows(f, A, n)
    seq = []
    prev = 0  # dim ker (M-I)^0 = dim ker I = 0
    while True:
        cur = n - len(pivots)
        if cur == prev:
            raise ValueError("not unipotent")
        seq.append(cur - prev)
        if cur == n:
            return Partition(tuple(seq))
        prev = cur
        pivots = _pivot_rows(f, map(image, pivots.values()), n)


def theta(lam: Partition, field: PrimeField | None = None) -> Partition:
    """Kernel sequence of the block-unipotent model of lam.

    The result is independent of the field; the default F_5 keeps the
    CLI deterministic.
    """
    if field is None:
        field = mk_field(5)
    return kernel_sequence(nabla_matrix(lam, field))


class LemmaReport(NamedTuple):
    checked: int
    failures: tuple[tuple[str, str, str], ...]  # (partition, theta, conjugate)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_conjugation_lemma(n: int) -> LemmaReport:
    """Check theta == conjugate over F_5 on every partition of n (n <= MAX_VERIFY_N)."""
    if n < 1 or n > MAX_VERIFY_N:
        raise ValueError(
            f"lemma verification supports 1 <= n <= {MAX_VERIFY_N} (MAX_VERIFY_N = {MAX_VERIFY_N})"
        )
    field = mk_field(5)
    checked = 0
    failures = []
    for lam in partitions_of(n):
        checked += 1
        got = theta(lam, field)
        want = conjugate(lam)
        if got != want:
            failures.append((str(lam), str(got), str(want)))
    return LemmaReport(checked, tuple(failures))
