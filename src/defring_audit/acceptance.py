"""The acceptance suite: twelve exact criteria, one function each.

Each criterion is a self-contained check with its own independent route
(hand-counted values, or an oracle below, which the tests also use: the
cofactor expansion of one integer matrix, by Kronecker substitution, for
the charpoly's coefficient tuple; enumeration of G for the splitting
density).  ``run_all`` executes them in order and reports exact pass/fail
verdicts with elapsed times; the CLI subcommand ``verify-all`` and the
pytest acceptance module both drive this registry.  Random draws go
through ``_below``, which takes the same Mersenne Twister words as
``randrange``, ``choice`` and ``randint``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import cohomology as coh
from . import density as dens
from . import ledger
from . import partitions as parts
from . import taylor
from .ff import (
    InternalCheckError,
    MatrixFF,
    _gauss_jordan,
    charpoly,
    is_prime,
    kernel_dim,
    mk_field,
    nilpotent_block,
)


class CriterionResult(NamedTuple):
    ident: str
    description: str
    ok: bool
    elapsed_s: float
    budget_s: float | None
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.ident} ({self.elapsed_s:.3f}s) {self.description}: {self.detail}"


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def cofactor_charpoly(M: MatrixFF) -> tuple[int, ...]:
    """Coefficients of det(T*I - M), lowest degree first, by cofactor
    expansion of one integer matrix.

    A route apart from the production charpoly: it calls no field
    arithmetic.  Each entry of T*I - M becomes one integer by Kronecker
    substitution (von zur Gathen & Gerhard, *Modern Computer Algebra*,
    8.4): an element's coefficient vector is read in base 2^k, and T
    becomes 2^(k*D), with D = n(m-1) + 1 above the degree in the generator
    of any minor.  Each coefficient of the integer determinant has
    |c| <= n!*(mp)^n < 2^(k-1), so it is one balanced base-2^k digit.  The
    expansion runs along the rows with minors filled bottom-up by column
    bitmask; the digits are reduced mod p, then mod the field's modulus.
    A nonzero leftover past the last digit raises InternalCheckError.
    """
    f = M.field
    n, p, m = M.rows, f.p, f.m
    k = (math.factorial(n) * (m * p) ** n).bit_length() + 1
    D = n * (m - 1) + 1
    if m == 1:
        entries = [-e for e in M.entries]
    else:
        entries = [-sum(c << k * i for i, c in enumerate(f.coeffs(e))) for e in M.entries]
    for i in range(n):
        entries[i * n + i] += 1 << k * D
    rows = [entries[i * n : (i + 1) * n] for i in range(n)]
    minors = [1] * (1 << n)
    for cols in range(1, 1 << n):
        row, acc, sign, rest = rows[n - cols.bit_count()], 0, 1, cols
        while rest:
            bit = rest & -rest
            rest ^= bit
            entry = row[bit.bit_length() - 1]
            if entry:
                acc += sign * entry * minors[cols ^ bit]
            sign = -sign
        minors[cols] = acc
    det, half = minors[-1], 1 << k - 1
    digits = []
    for _ in range((n + 1) * D):
        d = (det + half) % (1 << k) - half
        digits.append(d % p)
        det = (det - d) >> k
    if det:
        raise InternalCheckError(f"cofactor digits of width {k} overflow")
    coeffs = []
    for b in range(0, len(digits), D):
        c = digits[b : b + D]
        for top in range(D - 1, m - 1, -1):
            lead = c[top]
            if lead:
                for i, g in enumerate(f.modulus):
                    c[top - m + i] = (c[top - m + i] - lead * g) % p
        coeffs.append(f.encode(c[:m]))
    return tuple(coeffs)


def enumerated_xi(problem: dens.SplitDensityProblem) -> frozenset[tuple[int, int, int]]:
    """xi, by enumerating G = Gamma x Omega x Delta as triples (gamma, omega, delta).

    A triple splits when its least power in H x {1} x Delta lies in
    H x {1} x {1}; xi holds those whose every conjugate splits, and
    conjugation moves only gamma, as Omega and Delta are abelian.
    """
    gamma, h = problem.gamma, problem.subgroup

    def splits(g):
        power = g
        while not (power[0] in h and power[1] == 0):
            power = (gamma.mul(power[0], g[0]), power[1] ^ g[1], power[2] ^ g[2])
        return power[2] == 0

    triples = itertools.product(gamma.elements(), range(2**problem.k), range(2))
    star = {g for g in triples if splits(g)}
    classes = [{gamma.mul(gamma.mul(u, x), gamma.inv(u)) for u in gamma.elements()}
               for x in gamma.elements()]
    return frozenset(g for g in star if all((x, g[1], g[2]) in star for x in classes[g[0]]))


def enumerated_density(problem: dens.SplitDensityProblem) -> Fraction:
    """|xi| / |G| by enumeration, the oracle for ``density.density``."""
    return Fraction(len(enumerated_xi(problem)), problem.group_order)


def _below(rng: random.Random, q: int, count: int) -> list[int]:
    """``count`` values below q, each by rejection from getrandbits(q.bit_length()),
    as CPython's ``_randbelow_with_getrandbits`` draws them for ``randrange(q)``,
    ``choice`` of q items and ``randint(a, a+q-1)``: the same values and words."""
    bits, k, out = rng.getrandbits, q.bit_length(), []
    while len(out) < count:
        r = bits(k)
        if r < q:
            out.append(r)
    return out


def random_involution(rng: random.Random, field, d: int) -> MatrixFF:
    """A random order-2 matrix P D P^-1, D a random +-1 diagonal and P drawn
    again while singular; Gauss-Jordan on [P^t | D P^t] leaves [I | sigma^t]."""
    signs = [field.neg(1) if b else 1 for b in _below(rng, 2, d)]
    while True:
        P = _below(rng, field.order, d * d)
        cols = [P[j::d] for j in range(d)]  # the rows of P^t
        aug = [col + field.scale(s, col) for col, s in zip(cols, signs)]
        reduced = _gauss_jordan(field, aug, d)
        if reduced is not None:
            return MatrixFF(field, d, d, [row[d + i] for i in range(d) for row in reduced])


def _random_gn_setting(rng: random.Random) -> ledger.DeformationSetting:
    """A degrees-complete, delta = 0 setting with <= 8 places, n <= 4."""
    n = 1 + _below(rng, 4, 1)[0]
    deg_f = 1 + _below(rng, 3, 1)[0]
    n_ell = 1 + _below(rng, deg_f, 1)[0]
    # composition of deg_f into n_ell positive parts
    cuts = sorted(rng.sample(range(1, deg_f), n_ell - 1)) if n_ell > 1 else []
    degrees = [b - a for a, b in zip([0] + cuts, cuts + [deg_f])]
    n_s = _below(rng, 9 - deg_f - n_ell, 1)[0]  # at most 8 places
    places = (
        [ledger.min_place() for _ in range(n_s)]
        + [ledger.sm_place(d) for d in degrees]
        + [ledger.arch_place() for _ in range(deg_f)]
    )
    return ledger.DeformationSetting(ledger.gn_dims(n), deg_f, tuple(places))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def c01_conjugation_lemma(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    fields = [mk_field(2), mk_field(5), mk_field(101)]
    checked = 0
    for n in range(1, max_n + 1):
        for lam in parts.partitions_of(n):
            want = parts.conjugate(lam)
            for f in fields:
                if parts.theta(lam, f) != want:
                    return False, f"theta != conjugate at {lam} over {f}"
                checked += 1
    return True, f"{checked} (partition, field) pairs agree"


def c02_kernel_formula(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    checked = 0
    for f in (mk_field(2), mk_field(5), mk_field(101)):
        for m in range(1, 9):
            block = nilpotent_block(f, m)
            for i in range(0, 11):
                power = power * block if i else MatrixFF.identity(f, m)  # B_m^i
                if kernel_dim(power) != min(i, m):
                    return False, f"dim ker B_{m}^{i} != min(i,m) over {f}"
                checked += 1
    return True, f"{checked} kernel dimensions match min(i, m)"


def c03_arch_cohomology(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    rng = random.Random(seed)
    fields = [mk_field(5), mk_field(7)]
    for trial in range(200):
        f = fields[trial % 2]
        d = 1 + _below(rng, 6, 1)[0]
        sigma = random_involution(rng, f, d)
        action = coh.CyclicAction(order=2, sigma=sigma)
        dims = coh.cohomology_dims(action)
        minus_dim = coh.eigenspace_dim(sigma, f.neg(1))
        if dims.h2 != 0:
            return False, f"h2 != 0 for an order-2 action over {f} (d={d})"
        if dims.z1 != minus_dim:
            return False, f"z1 != dim of the (-1)-eigenspace over {f} (d={d})"
    return True, "200 random order-2 actions: h2 = 0 and z1 = (-1)-eigenspace dim"


def c04_twisted_involution(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    for f in (mk_field(5), mk_field(11)):
        for n in range(1, 7):
            spec = coh.InvolutionSpec(n, coh.antidiagonal_ones(n, f))
            action = coh.twisted_involution_action(spec)
            got = coh.eigenspace_dim(action.sigma, f.neg(1))
            if got != n * (n + 1) // 2:
                return False, f"(-1)-eigenspace dim {got} != n(n+1)/2 at n={n} over {f}"
    return True, "(-1)-eigenspace dim = n(n+1)/2 for n <= 6 over F_5 and F_11"


def c05_framework_random(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    rng = random.Random(seed)
    for _ in range(500):
        setting = _random_gn_setting(rng)
        verdict = ledger.framework_check(setting)  # raises if the gamma routes disagree
        if verdict.margin != 0 or not verdict.smooth:
            return False, f"margin {verdict.margin} != 0 for {setting}"
    return True, "500 randomized settings: gamma routes agree and margin = 0"


def c06_worked_gn_audit(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    # hand-substitution: #S_l = 5, gamma = 4*1 + 2*8 + 2*3 + 4 = 30,
    # r0 = 5*5 - 1 = 24, gen_I = 2*(8 - 5) = 6, unframed = 2*3 = 6,
    # GW difference = 8 - 2 = 6 = tangent, so the dual dimension is 0.
    v, _, _ = ledger.gn_audit(2, 2, 1, [1, 1])
    expected = {
        "gamma": 30,
        "r0": 24,
        "gen_I": 6,
        "smooth": True,
        "unframed_dim": 6,
    }
    for key, want in expected.items():
        if v[key] != want:
            return False, f"{key} = {v[key]}, expected {want}"
    if not v["dual_selmer"]["vanishes"] or v["dual_selmer"]["dual_dim"] != 0:
        return False, "dual-Selmer verdict did not vanish"
    return True, "gamma=30 r0=24 gen_I=6 smooth unframed=6 dual-Selmer vanishes"


def c07_r0_identity(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    for n in range(1, 7):
        lie = ledger.gn_dims(n)
        for k in range(1, 11):
            if ledger.r0(lie, k) != (n * n + 1) * k - 1:
                return False, f"r0 != (n^2+1)k - 1 at n={n}, k={k}"
    return True, "r0 = (n^2+1)k - 1 for n <= 6, k <= 10"


def _density_zoo() -> list[tuple[str, dens.FiniteGroup]]:
    return [
        ("trivial", dens.trivial_group()),
        ("Z2", dens.cyclic_group(2)),
        ("Z3", dens.cyclic_group(3)),
        ("S3", dens.symmetric_group(3)),
        ("S4", dens.symmetric_group(4)),
    ]


def c08_density_bound(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    problems = 0
    for name, gamma in _density_zoo():
        subgroups = dens.all_subgroups(gamma)
        for h in subgroups:
            for k in (1, 2, 3):
                problem = dens.SplitDensityProblem(gamma, h, k)
                cert = dens.bound_certificate(problem)
                expected_witnesses = (2**k - 1) * 2 * gamma.order
                if not cert.holds:
                    return False, f"bound fails for {name}, |H|={len(h)}, k={k}"
                if cert.witness_count != expected_witnesses:
                    return False, f"witness count off for {name}, |H|={len(h)}, k={k}"
                problems += 1
    return True, f"{problems} problems: density >= 1 - 1/2^k with exact witness counts"


def c09_density_spot_values(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    spots = (("trivial", dens.trivial_group(), Fraction(3, 4)),
             ("Z/2", dens.cyclic_group(2), Fraction(7, 8)))
    for name, gamma, expected in spots:
        problem = dens.SplitDensityProblem(gamma, frozenset({gamma.identity}), 1)
        closed = dens.density(problem)
        enumerated = enumerated_density(problem)
        for route, value in (("closed form", closed), ("enumeration", enumerated)):
            if value != expected:
                return False, f"{name} Gamma k=1 density {value} != {expected} by {route}"
    return True, "spot densities 3/4 and 7/8 reproduced by enumeration"


def c10_taylor_threshold(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    checked = 0
    for q in (2, 3):
        for n in (2, 3):
            lo = taylor.taylor_threshold(q, n)
            for ell in range(lo, lo + 1001):
                if not is_prime(ell):
                    continue
                if not taylor.threshold_coprime(ell, q, n):
                    return False, f"coprimality fails at ell={ell}, q={q}, n={n}"
                checked += 1
    return True, f"{checked} primes in the threshold windows are coprime to q^(n!)-1"


def c11_charpoly_oracle(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    f3 = mk_field(3)
    count = 0
    for entries in itertools.product(range(3), repeat=4):
        M = MatrixFF(f3, 2, 2, entries)
        if charpoly(M) != cofactor_charpoly(M):
            return False, f"2x2 mismatch at {M}"
        count += 1
    rng = random.Random(seed)
    fields = [mk_field(2), f3]
    for _ in range(1000):
        f = fields[_below(rng, 2, 1)[0]]
        n = 3 + _below(rng, 3, 1)[0]
        M = MatrixFF(f, n, n, _below(rng, f.order, n * n))
        if charpoly(M) != cofactor_charpoly(M):
            return False, f"{n}x{n} mismatch over {f}"
        count += 1
    # perfbench/golden.json pins this line until ROADMAP item 4 rewords it
    return True, f"{count} matrices: division-free charpoly = cofactor expansion"


def c12_round_trip(max_n: int = 10, seed: int = 0) -> tuple[bool, str]:
    f5 = mk_field(5)
    checked = 0
    for n in range(1, max_n + 1):
        for lam in parts.partitions_of(n):
            back = taylor.min_equals_type_partition(parts.nabla_matrix(lam, f5))
            if back != lam:
                return False, f"round trip broke at {lam}: got {back}"
            checked += 1
    return True, f"{checked} partitions: type partition of the block model is the input"


CRITERIA: list[tuple[str, str, float | None, Callable]] = [
    ("c01", "conjugation lemma (theta = conjugate, n <= 10, three fields)", 5.0, c01_conjugation_lemma),
    ("c02", "kernel formula dim ker B_m^i = min(i, m)", 1.0, c02_kernel_formula),
    ("c03", "archimedean cohomology of order-2 actions", 2.0, c03_arch_cohomology),
    ("c04", "twisted involution eigenspace dimension n(n+1)/2", 1.0, c04_twisted_involution),
    ("c05", "framework gamma agreement and zero margin", 2.0, c05_framework_random),
    ("c06", "worked rank-2 audit (gamma 30, r0 24, gen 6)", 1.0, c06_worked_gn_audit),
    ("c07", "r0 identity (n^2+1)k - 1", 1.0, c07_r0_identity),
    ("c08", "density bound over the group zoo, every subgroup", 30.0, c08_density_bound),
    ("c09", "exact spot densities 3/4 and 7/8", None, c09_density_spot_values),
    ("c10", "threshold coprimality for primes above q^(n!)", 2.0, c10_taylor_threshold),
    ("c11", "charpoly against the cofactor oracle", 5.0, c11_charpoly_oracle),
    ("c12", "partition round trip through the block model", 2.0, c12_round_trip),
]


def run_criterion(ident: str, max_n: int = 10, seed: int = 0) -> CriterionResult:
    for cid, desc, budget, fn in CRITERIA:
        if cid == ident:
            start = time.perf_counter()
            ok, detail = fn(max_n=max_n, seed=seed)
            elapsed = time.perf_counter() - start
            return CriterionResult(cid, desc, ok, elapsed, budget, detail)
    raise ValueError(f"unknown criterion {ident!r}")


def run_all(max_n: int = 10, seed: int = 0) -> list[CriterionResult]:
    return [run_criterion(cid, max_n=max_n, seed=seed) for cid, _, _, _ in CRITERIA]
