"""Cohomology of finite cyclic groups on finite-dimensional F_l-spaces.

For a cyclic group of order n acting through a generator matrix sigma,
a 1-cocycle is determined by its value v on the generator subject to the
norm constraint N v = 0 (N = sum of the powers of sigma), coboundaries
are the image of sigma - 1, and H^2 = ker(sigma - 1) / im(N).  The
archimedean case is order 2 in odd characteristic, where the action is
semisimple and H^2 vanishes.
"""

from __future__ import annotations

from typing import NamedTuple

from .ff import (
    InternalCheckError,
    MatrixFF,
    PrimeField,
    Record,
    _echelon,
    mat_inverse,
    mat_rank,
)


class CyclicAction(Record):
    """A Z/nZ-module: the generator acts by ``sigma`` (d x d).

    ``norm`` is the norm map N, formed at construction by the walk that
    also forms sigma^n for the sigma^n = I check; it is not a field.
    """

    _fields = ("order", "sigma")
    __slots__ = _fields + ("norm",)

    def __init__(self, order: int, sigma: MatrixFF):
        if order < 1:
            raise ValueError("group order must be >= 1")
        if sigma.rows != sigma.cols:
            raise ValueError("generator matrix must be square")
        one = MatrixFF.identity(sigma.field, sigma.rows)
        norm, power = _norm_and_power(sigma, order, one)
        if power != one:
            raise ValueError("sigma^n must be the identity")
        self._store(order=order, sigma=sigma, norm=norm)

    @property
    def field(self) -> PrimeField:
        return self.sigma.field

    @property
    def dimension(self) -> int:
        return self.sigma.rows


class InvolutionSpec(Record):
    """Input for the order-2 twist x -> -J x^t J^{-1} on n x n matrices.

    ``J_inv`` is J^{-1}, formed at construction; it is not a field.
    """

    _fields = ("n", "J")
    __slots__ = _fields + ("J_inv",)

    def __init__(self, n: int, J: MatrixFF):
        if J.field.p == 2:
            raise ValueError("the twisted involution needs odd characteristic")
        if J.rows != n or J.cols != n:
            raise ValueError("J must be n x n")
        # inverted here so a singular J fails at construction
        J_inv = mat_inverse(J)
        # the twist squares to conjugation by J J^{-t}: the identity iff J = +-J^t
        if J.transpose() not in (J, -J):
            raise ValueError("J must be symmetric or antisymmetric, or the twist is no involution")
        self._store(n=n, J=J, J_inv=J_inv)


class CohomologyDims(NamedTuple):
    h0: int
    h1: int
    h2: int
    z1: int


def _norm_and_power(sigma: MatrixFF, order: int, one: MatrixFF) -> tuple[MatrixFF, MatrixFF]:
    """N = sum_{j=0}^{n-1} sigma^j and sigma^n, with n = order, by one walk; ``one`` is I.

    Reads the bits of n from the top, carrying N_k = sum_{j<k} sigma^j and
    sigma^k: N_2k = N_k + N_k sigma^k and N_2k+1 = N_2k + sigma^2k.  N_1 is
    I, so N_2 = I + sigma takes no product.  Each bit after the top one
    costs a squaring, a product by sigma if it is set, and, past the first
    such bit, the product N_k sigma^k.
    """
    norm, power = one, sigma  # N_1, sigma^1
    for i, bit in enumerate(bin(order)[3:]):
        norm = norm + (norm * power if i else power)
        power = power * power
        if bit == "1":
            norm = norm + power
            power = power * sigma
    return norm, power


def cohomology_dims(action: CyclicAction) -> CohomologyDims:
    """h^0, h^1, h^2 and dim Z^1 of the cyclic action, from two ranks.

    With d the dimension, r = rank(sigma-1) and s = rank(N): h0 = d - r,
    z1 = d - s, h1 = z1 - r and h2 = h0 - s.  r is read from the 1-eigenspace,
    so no identity matrix is built.
    """
    d = action.dimension
    r = d - eigenspace_dim(action.sigma, 1)
    s = mat_rank(action.norm)
    h0, z1 = d - r, d - s
    h1, h2 = z1 - r, h0 - s
    if h1 < 0 or h2 < 0:
        raise InternalCheckError("negative cohomology dimension")
    return CohomologyDims(h0=h0, h1=h1, h2=h2, z1=z1)


def arch_lift_dim(action: CyclicAction) -> int:
    """Number of lift variables for an order-2 action in odd characteristic.

    Equals the dimension of the (-1)-eigenspace of the involution, which
    is dim Z^1 = dim ker(1 + sigma); H^2 vanishes, so the lifting ring is a
    power series ring on that many variables.
    """
    if action.order != 2:
        raise ValueError("archimedean lifting needs an order-2 action")
    if action.field.p == 2:
        raise ValueError("archimedean lifting needs odd characteristic")
    dims = cohomology_dims(action)
    if dims.h2 != 0:
        raise InternalCheckError("order-2 action in odd characteristic must be semisimple")
    return dims.z1


def eigenspace_dim(M: MatrixFF, scalar: int) -> int:
    """dim ker(M - scalar * I)."""
    if M.rows != M.cols:
        raise ValueError("eigenspace of a non-square matrix")
    f = M.field
    rows = M.to_lists()
    for i, row in enumerate(rows):
        row[i] = f.sub(row[i], scalar)
    return M.cols - len(_echelon(f, rows, M.cols))


def antidiagonal_ones(n: int, field: PrimeField) -> MatrixFF:
    """The symmetric antidiagonal pairing matrix (default J)."""
    return MatrixFF(
        field, n, n, [1 if i + j == n - 1 else 0 for i in range(n) for j in range(n)]
    )


def twisted_involution_action(spec: InvolutionSpec) -> CyclicAction:
    """The order-2 action theta(x) = -J x^t J^{-1} on n x n matrices.

    Matrices are flattened row-major, so the action lives on an
    n^2-dimensional space; theta^2 = 1 is verified by ``CyclicAction``.
    """
    f = spec.J.field
    n = spec.n
    jinv = spec.J_inv
    # theta(E_ij) has (a,d)-entry -J[a][j] * Jinv[i][d]
    size = n * n
    entries = [0] * (size * size)
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for a in range(n):
                jaj = spec.J.at(a, j)
                if not jaj:
                    continue
                for d in range(n):
                    val = f.neg(f.mul(jaj, jinv.at(i, d)))
                    if val:
                        entries[(a * n + d) * size + col] = val
    theta = MatrixFF(f, size, size, entries)
    try:
        return CyclicAction(order=2, sigma=theta)
    except ValueError as exc:  # theta^2 != 1, although J = +-J^t was checked
        raise InternalCheckError("twist is not an involution") from exc
