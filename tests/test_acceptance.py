"""Acceptance gate: every criterion at its stated tolerance (all exact).

Each test prints one PASS/FAIL line so a full run reads as a checklist;
stated per-criterion time budgets are asserted where the criterion
carries one, and the whole suite must finish well under a minute.
"""

import random
import re

import pytest

from defring_audit import acceptance, ledger
from defring_audit.ff import MatrixFF, mat_inverse, mk_field, nilpotent_block

_IDS = [c[0] for c in acceptance.CRITERIA]


@pytest.mark.parametrize("ident", _IDS)
def test_criterion(ident, capsys):
    result = acceptance.run_criterion(ident, max_n=10, seed=0)
    with capsys.disabled():
        print(result.line())
    assert result.ok, f"{result.ident} failed: {result.detail}"
    if result.budget_s is not None:
        assert result.elapsed_s < result.budget_s, (
            f"{result.ident} took {result.elapsed_s:.3f}s, budget {result.budget_s}s"
        )


def test_full_suite_under_sixty_seconds():
    results = acceptance.run_all(max_n=10, seed=0)
    assert all(r.ok for r in results)
    assert sum(r.elapsed_s for r in results) < 60.0


# verify-all's lines at max_n = 10, seed 0, without the timing; the benchmark's
# golden digests pin the same lines, so a change to one is a benchmark change
_PINNED_LINES = [
    "PASS c01 conjugation lemma (theta = conjugate, n <= 10, three fields): "
    "414 (partition, field) pairs agree",
    "PASS c02 kernel formula dim ker B_m^i = min(i, m): 264 kernel dimensions match min(i, m)",
    "PASS c03 archimedean cohomology of order-2 actions: "
    "200 random order-2 actions: h2 = 0 and z1 = (-1)-eigenspace dim",
    "PASS c04 twisted involution eigenspace dimension n(n+1)/2: "
    "(-1)-eigenspace dim = n(n+1)/2 for n <= 6 over F_5 and F_11",
    "PASS c05 framework gamma agreement and zero margin: "
    "500 randomized settings: gamma routes agree and margin = 0",
    "PASS c06 worked rank-2 audit (gamma 30, r0 24, gen 6): "
    "gamma=30 r0=24 gen_I=6 smooth unframed=6 dual-Selmer vanishes",
    "PASS c07 r0 identity (n^2+1)k - 1: r0 = (n^2+1)k - 1 for n <= 6, k <= 10",
    "PASS c08 density bound over the group zoo, every subgroup: "
    "123 problems: density >= 1 - 1/2^k with exact witness counts",
    "PASS c09 exact spot densities 3/4 and 7/8: "
    "spot densities 3/4 and 7/8 reproduced by enumeration",
    "PASS c10 threshold coprimality for primes above q^(n!): "
    "632 primes in the threshold windows are coprime to q^(n!)-1",
    "PASS c11 charpoly against the cofactor oracle: "
    "1081 matrices: division-free charpoly = cofactor expansion",
    "PASS c12 partition round trip through the block model: "
    "138 partitions: type partition of the block model is the input",
]


def test_verify_all_lines_are_pinned():
    lines = [re.sub(r" \(\d+\.\d+s\)", "", r.line(), count=1)
             for r in acceptance.run_all(max_n=10, seed=0)]
    assert lines == _PINNED_LINES


def _conjugated_involution(rng, field, d):
    """The former ``random_involution``: P D P^-1 by an inverse and two products."""
    signs = [rng.choice((1, field.neg(1))) for _ in range(d)]
    diag = MatrixFF(field, d, d, [signs[i] if i == j else 0 for i in range(d) for j in range(d)])
    while True:
        P = MatrixFF(field, d, d, [rng.randrange(field.order) for _ in range(d * d)])
        try:
            pinv = mat_inverse(P)
        except ValueError:
            continue
        return P * diag * pinv


@pytest.mark.parametrize("p", [3, 5, 7])
def test_random_involution_matches_the_conjugation_oracle(p):
    f = mk_field(p)
    for seed in range(20):
        for d in range(1, 7):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            sigma = acceptance.random_involution(got_rng, f, d)
            assert sigma == _conjugated_involution(want_rng, f, d)
            assert sigma * sigma == MatrixFF.identity(f, d)
            # the same draws, singular retries included
            assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("q", range(1, 9))
def test_below_draws_what_randrange_choice_and_randint_draw(q):
    # q = 1 is randint(0, 0): each draw retries until getrandbits(1) gives 0
    routes = {
        "randrange": lambda rng: rng.randrange(q),
        "choice": lambda rng: rng.choice(range(q)),
        "randint": lambda rng: rng.randint(0, q - 1),
    }
    for seed in range(20):
        for name, draw in routes.items():
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            assert acceptance._below(got_rng, q, 40) == [draw(want_rng) for _ in range(40)], name
            assert got_rng.random() == want_rng.random(), name


def _former_gn_setting(rng):
    """The former ``_random_gn_setting``, which drew through ``randint``."""
    n = rng.randint(1, 4)
    deg_f = rng.randint(1, 3)
    n_ell = rng.randint(1, deg_f)
    cuts = sorted(rng.sample(range(1, deg_f), n_ell - 1)) if n_ell > 1 else []
    degrees = [b - a for a, b in zip([0] + cuts, cuts + [deg_f])]
    n_s = rng.randint(0, max(0, 8 - deg_f - n_ell))
    places = (
        [ledger.min_place() for _ in range(n_s)]
        + [ledger.sm_place(d) for d in degrees]
        + [ledger.arch_place() for _ in range(deg_f)]
    )
    return ledger.DeformationSetting(ledger.gn_dims(n), deg_f, tuple(places))


def test_random_gn_setting_matches_the_randint_oracle():
    for seed in range(20):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(100):
            assert acceptance._random_gn_setting(got_rng) == _former_gn_setting(want_rng)
        assert got_rng.random() == want_rng.random()


def test_c11_checks_the_matrices_its_former_draw_loop_drew(monkeypatch):
    made, checked = [], []
    Random = random.Random  # the test's own rngs stay unrecorded

    class KeptRandom(Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    def record(M):
        checked.append(M)
        return 0

    monkeypatch.setattr(acceptance.random, "Random", KeptRandom)
    monkeypatch.setattr(acceptance, "charpoly", record)
    monkeypatch.setattr(acceptance, "cofactor_charpoly", lambda M: 0)
    fields = [mk_field(2), mk_field(3)]
    for seed in range(20):
        made.clear()
        checked.clear()
        assert acceptance.c11_charpoly_oracle(seed=seed)[0]
        want_rng = Random(seed)
        for M in checked[81:]:  # after the 81 fixed 2x2 matrices over F_3
            f = want_rng.choice(fields)
            n = want_rng.randint(3, 5)
            assert M == MatrixFF(f, n, n, [want_rng.randrange(f.order) for _ in range(n * n)])
        assert len(checked) == 81 + 1000
        [c11_rng] = made
        assert c11_rng.random() == want_rng.random()


def test_c02_walks_every_power_that_matpow_forms(monkeypatch):
    seen, products = [], []
    real_mul = MatrixFF.__mul__

    def counted_mul(a, b):
        products.append(1)
        return real_mul(a, b)

    def record(M):
        seen.append(M)
        return real_kernel_dim(M)

    real_kernel_dim = acceptance.kernel_dim
    monkeypatch.setattr(acceptance, "kernel_dim", record)
    monkeypatch.setattr(MatrixFF, "__mul__", counted_mul)
    assert acceptance.c02_kernel_formula()[0]
    assert len(products) == 3 * 8 * 10  # one product per power past the identity
    monkeypatch.undo()
    want = [nilpotent_block(f, m).matpow(i)
            for f in (mk_field(2), mk_field(5), mk_field(101)) for m in range(1, 9) for i in range(11)]
    assert seen == want
