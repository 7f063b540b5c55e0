import itertools
import random

import pytest

from defring_audit import cohomology as coh
from defring_audit import ff
from defring_audit.cli import run_scenario_obj
from defring_audit.cohomology import (
    CohomologyDims,
    CyclicAction,
    InvolutionSpec,
    antidiagonal_ones,
    arch_lift_dim,
    cohomology_dims,
    eigenspace_dim,
    twisted_involution_action,
)
from defring_audit.ff import (
    InternalCheckError,
    MatrixFF,
    kernel_dim,
    mat_inverse,
    mat_rank,
    mk_field,
)

F3 = mk_field(3)
F5 = mk_field(5)
F7 = mk_field(7)


def _diag(field, entries):
    n = len(entries)
    return MatrixFF(
        field, n, n, [entries[i] if i == j else 0 for i in range(n) for j in range(n)]
    )


def _random_invertible(rng, field, d):
    while True:
        M = MatrixFF(field, d, d, [rng.randrange(field.order) for _ in range(d * d)])
        try:
            mat_inverse(M)
        except ValueError:
            continue
        return M


def _random_order_n_action(rng, field, n, d):
    """sigma = P B P^{-1} with B block-diagonal of order dividing n."""
    if n == 2:
        blocks = [rng.choice((1, field.neg(1))) for _ in range(d)]
        B = _diag(field, blocks)
    elif n == 3:
        if field.order % 3 == 1:
            # cube roots of unity exist in the field
            roots = [z for z in field.elements() if field.pow(z, 3) == 1]
            B = _diag(field, [rng.choice(roots) for _ in range(d)])
        else:
            # mix 1x1 identity blocks with 2x2 companions of T^2+T+1
            rows = [[0] * d for _ in range(d)]
            i = 0
            while i < d:
                if d - i >= 2 and rng.random() < 0.5:
                    rows[i][i + 1] = 1
                    rows[i + 1][i] = field.neg(1)
                    rows[i + 1][i + 1] = field.neg(1)
                    i += 2
                else:
                    rows[i][i] = 1
                    i += 1
            B = MatrixFF.from_rows(field, rows)
    else:
        raise ValueError("helper supports orders 2 and 3")
    P = _random_invertible(rng, field, d)
    return CyclicAction(order=n, sigma=P * B * mat_inverse(P))


# ---------------------------------------------------------------------------
# norm map
# ---------------------------------------------------------------------------


def test_norm_of_trivial_action_is_multiplication_by_n():
    action = CyclicAction(3, MatrixFF.identity(F3, 1))
    assert action.norm.to_lists() == [[0]]  # 3 = 0 in F_3


def test_norm_of_diag_involution():
    action = CyclicAction(2, _diag(F3, [1, 2]))
    assert action.norm.to_lists() == [[2, 0], [0, 0]]


def test_norm_of_order_one_action_is_identity():
    action = CyclicAction(1, MatrixFF.identity(F5, 3))
    assert action.norm == MatrixFF.identity(F5, 3)


def _norm_by_summing(sigma, order):
    """The oracle: N = sum_{j<n} sigma^j, one product per unit of the order."""
    acc = MatrixFF.zeros(sigma.field, sigma.rows, sigma.rows)
    power = MatrixFF.identity(sigma.field, sigma.rows)
    for _ in range(order):
        acc = acc + power
        power = power * sigma
    return acc


@pytest.mark.parametrize("p, m", [(2, 1), (5, 1), (3, 2)])
def test_norm_by_doubling_matches_the_sum_for_every_order_up_to_64(monkeypatch, p, m):
    # the doubling identities hold for any sigma, so the walk carries an
    # arbitrary invertible matrix through every order, not only its own
    field = mk_field(p, m)
    rng = random.Random(f"norm:{p}:{m}")
    products = []
    real_mul = MatrixFF.__mul__

    def counted_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted_mul)
    for d in (1, 3, 4):
        sigma = _random_invertible(rng, field, d)
        one = MatrixFF.identity(field, d)
        for order in range(1, 65):
            expected = _norm_by_summing(sigma, order)
            products.clear()
            assert coh._norm_and_power(sigma, order, one)[0] == expected, (d, order)
            assert len(products) <= 3 * (order.bit_length() - 1)
            assert len(products) < order or order == 1


def test_cyclic_action_validates_order():
    with pytest.raises(ValueError):
        CyclicAction(2, _diag(F5, [2]))  # 2^2 = 4 != 1


# ---------------------------------------------------------------------------
# cohomology dimensions
# ---------------------------------------------------------------------------


def test_cohomology_dims_diag_involution_over_f3():
    dims = cohomology_dims(CyclicAction(2, _diag(F3, [1, 2])))
    assert dims == CohomologyDims(h0=1, h1=0, h2=0, z1=1)


def test_cohomology_dims_trivial_f3_order3():
    dims = cohomology_dims(CyclicAction(3, MatrixFF.identity(F3, 1)))
    assert dims.h2 == 1 and dims.h1 == 1


def test_cohomology_dims_trivial_f5_order2():
    dims = cohomology_dims(CyclicAction(2, MatrixFF.identity(F5, 1)))
    assert (dims.h0, dims.h1, dims.h2) == (1, 0, 0)


def test_positive_degree_vanishing_when_order_invertible():
    rng = random.Random(7)
    for n in (2, 3):
        for field in (F5, F7):
            for _ in range(25):
                d = rng.randint(1, 6)
                action = _random_order_n_action(rng, field, n, d)
                dims = cohomology_dims(action)
                assert dims.h1 == 0 and dims.h2 == 0


def test_h0_plus_rank_accounting():
    rng = random.Random(11)
    for _ in range(30):
        d = rng.randint(1, 6)
        action = _random_order_n_action(rng, F7, 2, d)
        s1 = action.sigma - MatrixFF.identity(F7, d)
        assert kernel_dim(s1) + mat_rank(s1) == d


def test_order2_eigenspace_split():
    rng = random.Random(13)
    for field in (F5, F7):
        for _ in range(25):
            d = rng.randint(1, 6)
            sigma = _random_order_n_action(rng, field, 2, d).sigma
            plus = eigenspace_dim(sigma, 1)
            minus = eigenspace_dim(sigma, field.neg(1))
            assert plus + minus == d


# ---------------------------------------------------------------------------
# bar-resolution oracle for h^2 (order 2, F_3, d <= 3)
# ---------------------------------------------------------------------------


def _h2_by_bar_resolution(action: CyclicAction) -> int:
    """dim ker(d2) - rank(d1) from the explicit inhomogeneous bar complex."""
    f = action.field
    d = action.dimension
    order = action.order
    acts = [MatrixFF.identity(f, d)]
    for _ in range(order - 1):
        acts.append(acts[-1] * action.sigma)
    G = range(order)

    # d1 : C^1 -> C^2, (d1 h)(g1,g2) = g1.h(g2) - h(g1 g2) + h(g1)
    c1 = order * d
    c2 = order * order * d
    d1 = [[0] * c1 for _ in range(c2)]
    for g1 in G:
        for g2 in G:
            row_base = (g1 * order + g2) * d
            for i in range(d):
                for j in range(d):
                    d1[row_base + i][g2 * d + j] = f.add(
                        d1[row_base + i][g2 * d + j], acts[g1].at(i, j)
                    )
                d1[row_base + i][((g1 + g2) % order) * d + i] = f.sub(
                    d1[row_base + i][((g1 + g2) % order) * d + i], 1
                )
                d1[row_base + i][g1 * d + i] = f.add(d1[row_base + i][g1 * d + i], 1)
    # d2 : C^2 -> C^3,
    # (d2 f)(g1,g2,g3) = g1.f(g2,g3) - f(g1g2,g3) + f(g1,g2g3) - f(g1,g2)
    c3 = order**3 * d
    d2 = [[0] * c2 for _ in range(c3)]
    for g1 in G:
        for g2 in G:
            for g3 in G:
                row_base = ((g1 * order + g2) * order + g3) * d
                for i in range(d):
                    for j in range(d):
                        col = (g2 * order + g3) * d + j
                        d2[row_base + i][col] = f.add(
                            d2[row_base + i][col], acts[g1].at(i, j)
                        )
                    col = (((g1 + g2) % order) * order + g3) * d + i
                    d2[row_base + i][col] = f.sub(d2[row_base + i][col], 1)
                    col = (g1 * order + ((g2 + g3) % order)) * d + i
                    d2[row_base + i][col] = f.add(d2[row_base + i][col], 1)
                    col = (g1 * order + g2) * d + i
                    d2[row_base + i][col] = f.sub(d2[row_base + i][col], 1)
    m1 = MatrixFF.from_rows(f, d1)
    m2 = MatrixFF.from_rows(f, d2)
    return (c2 - mat_rank(m2)) - mat_rank(m1)


def test_h2_formula_matches_bar_resolution_exhaustive_d1_d2():
    for d in (1, 2):
        size = d * d
        for code in range(3**size):
            entries = [(code // 3**i) % 3 for i in range(size)]
            M = MatrixFF(F3, d, d, entries)
            if M * M != MatrixFF.identity(F3, d):
                continue
            action = CyclicAction(2, M)
            assert cohomology_dims(action).h2 == _h2_by_bar_resolution(action)


def test_h2_formula_matches_bar_resolution_sampled_d3():
    rng = random.Random(5)
    for _ in range(25):
        action = _random_order_n_action(rng, F3, 2, 3)
        assert cohomology_dims(action).h2 == _h2_by_bar_resolution(action)


# ---------------------------------------------------------------------------
# archimedean lifting dimension
# ---------------------------------------------------------------------------


def test_arch_lift_dim_counts_minus_eigenvalues():
    action = CyclicAction(2, _diag(F5, [1, 4, 4]))
    assert arch_lift_dim(action) == 2


def test_arch_lift_dim_of_trivial_action_is_zero():
    action = CyclicAction(2, MatrixFF.identity(F7, 4))
    assert arch_lift_dim(action) == 0


def test_arch_lift_dim_rejects_wrong_order_or_char():
    with pytest.raises(ValueError):
        arch_lift_dim(CyclicAction(3, MatrixFF.identity(F7, 1)))
    f2 = mk_field(2)
    with pytest.raises(ValueError):
        arch_lift_dim(CyclicAction(2, MatrixFF.identity(f2, 1)))


# ---------------------------------------------------------------------------
# the twisted involution on n x n matrices
# ---------------------------------------------------------------------------


def test_twisted_involution_antidiag_n2():
    spec = InvolutionSpec(2, antidiagonal_ones(2, F5))
    action = twisted_involution_action(spec)
    assert eigenspace_dim(action.sigma, F5.neg(1)) == 3
    assert arch_lift_dim(action) == 3


def test_twisted_involution_antidiag_n3():
    spec = InvolutionSpec(3, antidiagonal_ones(3, F7))
    action = twisted_involution_action(spec)
    assert eigenspace_dim(action.sigma, F7.neg(1)) == 6


def test_twisted_involution_antisymmetric_J():
    spec = InvolutionSpec(2, MatrixFF.from_rows(F5, [[0, 1], [4, 0]]))
    action = twisted_involution_action(spec)
    assert eigenspace_dim(action.sigma, F5.neg(1)) == 1  # n(n-1)/2


def test_twisted_involution_rejects_singular_or_even_char():
    with pytest.raises(ValueError):
        InvolutionSpec(2, MatrixFF.zeros(F5, 2, 2))
    f2 = mk_field(2)
    with pytest.raises(ValueError):
        InvolutionSpec(2, MatrixFF.identity(f2, 2))


def test_twisted_involution_rejects_a_J_neither_symmetric_nor_antisymmetric():
    # invertible, but J J^{-t} is not scalar, so the twist would not square to 1
    with pytest.raises(ValueError, match="symmetric or antisymmetric"):
        InvolutionSpec(2, MatrixFF.from_rows(F5, [[3, 1], [4, 0]]))


def _random_symmetric_invertible(rng, field, n):
    while True:
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(field.order)
                entries[i][j] = v
                entries[j][i] = v
        M = MatrixFF.from_rows(field, entries)
        try:
            mat_inverse(M)
        except ValueError:
            continue
        return M


def _random_antisymmetric_invertible(rng, field, n):
    while True:
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randrange(field.order)
                entries[i][j] = v
                entries[j][i] = field.neg(v)
        M = MatrixFF.from_rows(field, entries)
        try:
            mat_inverse(M)
        except ValueError:
            continue
        return M


def test_twisted_eigenspace_dimensions_split_the_space():
    rng = random.Random(3)
    for field in (F5, F7):
        for n in (1, 2, 3, 4):
            J = _random_symmetric_invertible(rng, field, n)
            sigma = twisted_involution_action(InvolutionSpec(n, J)).sigma
            plus = eigenspace_dim(sigma, 1)
            minus = eigenspace_dim(sigma, field.neg(1))
            assert plus + minus == n * n
            assert minus == n * (n + 1) // 2
    for field in (F5, F7):
        for n in (2, 4):
            J = _random_antisymmetric_invertible(rng, field, n)
            sigma = twisted_involution_action(InvolutionSpec(n, J)).sigma
            assert eigenspace_dim(sigma, field.neg(1)) == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# every dimension from two ranks; the involution report from one call
# ---------------------------------------------------------------------------

F9 = mk_field(3, 2)
F49 = mk_field(7, 2)


def _count_eliminations(monkeypatch):
    """Patch the elimination kernel, where ff and cohomology call it; list the column counts."""
    columns = []
    real = ff._pivot_rows

    def counted(field, rows, ncols):
        columns.append(ncols)
        return real(field, rows, ncols)

    monkeypatch.setattr(ff, "_pivot_rows", counted)
    monkeypatch.setattr(coh, "_pivot_rows", counted)
    return columns


def _count_products(monkeypatch):
    products = []
    real_mul = MatrixFF.__mul__

    def counted_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(MatrixFF, "__mul__", counted_mul)
    return products


def _sample_actions():
    rng = random.Random(17)
    for n in (2, 3):
        for field in (F5, F7, F9):
            for _ in range(8):
                yield _random_order_n_action(rng, field, n, rng.randint(1, 5))
    # non-semisimple: order 3 in characteristic 3, where h1 and h2 need not vanish
    for d in (1, 2, 3):
        yield CyclicAction(3, MatrixFF.identity(F3, d))
        yield CyclicAction(3, MatrixFF.identity(F3, d) + MatrixFF(
            F3, d, d, [1 if j == i + 1 else 0 for i in range(d) for j in range(d)]))


def test_cohomology_dims_match_the_kernels_of_sigma_minus_one_and_the_norm():
    for action in _sample_actions():
        d = action.dimension
        s1 = action.sigma - MatrixFF.identity(action.field, d)
        norm = _norm_by_summing(action.sigma, action.order)
        want = CohomologyDims(
            h0=kernel_dim(s1),
            h1=kernel_dim(norm) - mat_rank(s1),
            h2=kernel_dim(s1) - mat_rank(norm),
            z1=kernel_dim(norm),
        )
        assert cohomology_dims(action) == want


def test_cohomology_dims_takes_two_eliminations(monkeypatch):
    actions = list(_sample_actions())
    columns = _count_eliminations(monkeypatch)
    for action in actions:
        columns.clear()
        cohomology_dims(action)
        assert columns == [action.dimension] * 2


def test_order2_dims_are_the_eigenspaces():
    rng = random.Random(19)
    for field in (F5, F7, F9, F49):
        for _ in range(10):
            sigma = _random_order_n_action(rng, field, 2, rng.randint(1, 5)).sigma
            dims = cohomology_dims(CyclicAction(2, sigma))
            assert dims.z1 == eigenspace_dim(sigma, field.neg(1))
            assert dims.h0 == eigenspace_dim(sigma, 1)
            assert arch_lift_dim(CyclicAction(2, sigma)) == dims.z1


def _involution_js():
    """(label, n, J) for antidiagonal, symmetric and antisymmetric J."""
    rng = random.Random(23)
    for field in (F5, F9, F49):
        for n in (1, 2, 3):
            yield "antidiag", n, antidiagonal_ones(n, field)
            yield "symmetric", n, _random_symmetric_invertible(rng, field, n)
        for n in (2, 4):
            yield "antisymmetric", n, _random_antisymmetric_invertible(rng, field, n)


def test_involution_report_reads_the_eigenspaces_from_one_cohomology_call():
    for label, n, J in _involution_js():
        f = J.field
        payload = {"mode": "cohomology", "op": "involution", "n": n}
        if label == "antidiag":
            payload.update(p=f.p, m=f.m)
        else:
            payload["J"] = {"p": f.p, "m": f.m, "rows": J.to_lists()}
        verdicts = run_scenario_obj(payload)["verdicts"]
        sigma = twisted_involution_action(InvolutionSpec(n, J)).sigma
        assert verdicts == {
            "minus_eigenspace_dim": eigenspace_dim(sigma, f.neg(1)),
            "plus_eigenspace_dim": eigenspace_dim(sigma, 1),
            "arch_lift_dim": eigenspace_dim(sigma, f.neg(1)),
        }, (label, n, f)
        if label != "antisymmetric":
            assert verdicts["minus_eigenspace_dim"] == n * (n + 1) // 2
        else:
            assert verdicts["minus_eigenspace_dim"] == n * (n - 1) // 2


@pytest.mark.parametrize("p, m", [(5, 1), (3, 2)])
def test_involution_report_inverts_once_ranks_twice_and_squares_once(monkeypatch, p, m):
    columns = _count_eliminations(monkeypatch)
    products = _count_products(monkeypatch)
    n = 3
    report = run_scenario_obj({"mode": "cohomology", "op": "involution", "n": n, "p": p, "m": m})
    assert report["verdicts"] == {
        "minus_eigenspace_dim": 6, "plus_eigenspace_dim": 3, "arch_lift_dim": 6,
    }
    # J^{-1} in InvolutionSpec, then the ranks of theta - 1 and of N = 1 + theta
    assert columns == [n, n * n, n * n]
    # theta^2, formed once by the walk that forms N
    assert len(products) == 1


@pytest.mark.parametrize("order, p, rows, dims, walk_products", [
    # unipotent over F_2: N = 2048 (1 + sigma) = 0
    (4096, 2, [[1, 1], [0, 1]], {"h0": 1, "h1": 1, "h2": 1, "z1": 2}, 23),
    # 3 and 5 have order 6 mod 7
    (6, 7, [[3, 0], [0, 5]], {"h0": 0, "h1": 0, "h2": 0, "z1": 2}, 4),
])
def test_cyclic_report_forms_sigma_to_the_order_once(monkeypatch, order, p, rows, dims,
                                                     walk_products):
    columns = _count_eliminations(monkeypatch)
    products = _count_products(monkeypatch)
    sigma = {"p": p, "m": 1, "rows": rows}
    report = run_scenario_obj({"mode": "cohomology", "op": "cyclic", "order": order,
                               "sigma": sigma})
    assert report["verdicts"] == dims
    assert columns == [2, 2]
    # one doubling walk serves the sigma^n = 1 check and N: for n = 2^12, 12
    # squarings and 11 products N_k sigma^k; for n = 6, 2 squarings, one
    # product by sigma and one N_3 sigma^3
    assert len(products) == walk_products


def test_a_twist_that_is_no_involution_is_an_internal_error():
    spec = InvolutionSpec(2, antidiagonal_ones(2, F5))
    J = MatrixFF.from_rows(F5, [[1, 1], [0, 1]])  # neither symmetric nor antisymmetric
    object.__setattr__(spec, "J", J)
    object.__setattr__(spec, "J_inv", mat_inverse(J))
    with pytest.raises(InternalCheckError, match="not an involution"):
        twisted_involution_action(spec)
