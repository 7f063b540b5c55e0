"""Young-diagram combinatorics and the partition model of unipotent
inertial types.

A partition (l_1 >= ... >= l_k) of n corresponds to the unipotent matrix
I + diag(B_{l_1}, ..., B_{l_k}) built from nilpotent Jordan blocks; the
inverse direction reads off the kernel sequence of (M - I), and the
round trip through both maps is the classical conjugation (transpose) of
the Young diagram.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .ff import MatrixFF, PrimeField, Record, _echelon, mk_field
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


def kernel_sequence(M: MatrixFF) -> Partition:
    """The partition (s_1, ..., s_r) with s_i = dim ker(M-I)^i - dim ker(M-I)^{i-1}.

    r is minimal with ker(M-I)^r the full space; requires M unipotent.
    The kernels of the powers grow until they stop for good, so M is
    unipotent iff they reach dimension n before a step adds nothing.
    No power and no matrix product is formed: with A = M - I, the row
    space of A^i is the row space of A^(i-1) times A.  Each step maps
    every row r of an echelon basis of the current row space to
    r A = -sum_j r_j N_j, for the rows N_j of N = I - M (one ``axpy`` per
    nonzero r_j), and re-echelons.  N = -A has A's row space, so the
    first basis is N's echelon form.
    """
    if M.rows != M.cols or M.rows == 0:
        raise ValueError("kernel sequence needs a nonempty square matrix")
    n = M.rows
    f = M.field
    axpy = f.axpy
    identity = [0] * (n * n)
    identity[:: n + 1] = [1] * n
    flat = axpy(identity, 1, M.entries)  # I - M
    N = [flat[i * n : (i + 1) * n] for i in range(n)]
    basis = _echelon(f, list(N), n)  # _echelon replaces rows, never edits one
    seq = []
    prev = 0  # dim ker (M-I)^0 = dim ker I = 0
    while True:
        cur = n - len(basis)
        if cur == prev:
            raise ValueError("not unipotent")
        seq.append(cur - prev)
        if cur == n:
            return Partition(tuple(seq))
        prev = cur
        images = []
        for r in basis:
            acc = [0] * n
            for j, c in enumerate(r):
                if c:
                    acc = axpy(acc, c, N[j])
            images.append(acc)
        basis = _echelon(f, images, n)


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
