"""Seeded inputs for the benchmark workloads and the checks on their outputs.

Every generator draws from ``random.Random`` seeded with the workload name
and the seed, so the same seed gives the same bytes.  The mix of scenario
kinds, fields, sizes and groups, and their order, is fixed per workload;
only the random details (partitions, matrix entries, permutations,
subgroups, polynomials) change with the seed, which keeps the cost of a
workload close to the same from one seed to the next.

This module imports nothing from ``defring_audit``: the expected values it
checks against are computed here, independently of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

WORKLOADS = {
    "verify-all": "the twelve-criterion gate users run; prime fields only, "
    "so the time goes to matrix construction, small charpolys and partitions",
    "batch-extfield": "scenario batch over F_{p^m} (m >= 2): extension-field "
    "arithmetic and cold mk_field carry the time, density does no work",
    "batch-groups": "scenario batch of density, gn-audit and ledger items: "
    "group tables and density enumeration are the large items, CLI overhead the median",
    "library-scan": "one warm library process: splitting-field root scans, the "
    "S4/S5 subgroup lattices and S5 density certificates, never reached from the CLI",
}

VERIFY_CRITERIA = tuple(f"c{i:02d}" for i in range(1, 13))

# Fields of the extension-field batch: m >= 2 and p^m <= 2^12, each built
# cold in every process.  Odd characteristic is needed for the involution.
EXT_FIELDS = (
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 10), (2, 11),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (5, 2), (5, 3), (5, 4),
    (7, 2), (7, 3), (11, 2), (13, 3),
)
ODD_EXT_FIELDS = tuple(f for f in EXT_FIELDS if f[0] != 2)

# Cycle types drawn in turn for the permutation matrices of each size.
CYCLE_TYPES = {
    2: ([2], [1, 1]),
    3: ([3], [2, 1]),
    4: ([4], [2, 2], [3, 1], [2, 1, 1]),
    5: ([5], [3, 2], [4, 1], [2, 2, 1], [3, 1, 1]),
    6: ([6], [3, 3], [4, 2], [3, 2, 1], [2, 2, 2]),
}

# (group spec, k) pairs of the density part of the group batch.
Z2_S4 = {"type": "product", "factors": ["Z2", "S4"]}
DENSITY_MIX = (
    [("S3", k) for k in range(1, 7)] * 3
    + [("S4", k) for k in range(1, 7)] * 2
    + [("S5", k) for k in (1, 2, 3, 4, 1, 2, 3, 5, 1, 2, 1, 2)]
    + [(Z2_S4, k) for k in (1, 2, 3)]
    + [("S6", 1)]
)

# Irreducible-factor degrees of the library root scans, over F_2, F_3, F_4,
# F_5 and F_7 (F_4 = (2, 2) takes factors with F_2 coefficients).
ROOT_SCAN_MIX = tuple(
    [((2, 1), d) for d in ([1, 2], [3], [2, 3], [1, 1, 2], [4], [2, 2], [5], [3, 2, 1], [6], [1, 3])]
    + [((3, 1), d) for d in ([1, 2], [2], [3], [1, 1, 2], [4], [2, 1, 1], [1, 3])]
    + [((2, 2), d) for d in ([3], [2, 3], [1, 3], [4])]
    + [((5, 1), d) for d in ([1, 2], [2], [3], [1, 1])]
    + [((7, 1), d) for d in ([1, 2], [2], [3])]
)
ROOT_SCAN_LARGE = (((2, 1), [4, 3]), ((2, 2), [4, 3]), ((2, 1), [5, 2]), ((3, 1), [2, 3]))
QPOWER_MIX = ROOT_SCAN_MIX[:24]
SUBGROUP_COUNTS = {"S4": 30, "S5": 156}
# (lattice position, k) of the S5 certificates; the seed moves each
# position by up to two places along the sorted lattice.
CERTIFICATES = (
    (1, 1), (10, 2), (20, 3), (35, 4), (50, 1), (65, 2), (80, 5),
    (95, 1), (110, 2), (125, 3), (140, 4), (150, 1), (153, 2), (155, 3),
)


@dataclass
class Plan:
    """A generated workload: its input and what each output item must satisfy."""

    workload: str
    seed: int
    data: Any  # scenario list, library call list, or None for verify-all
    expect: list[dict] = field(default_factory=list)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def generate(workload: str, seed: int) -> Plan:
    if workload == "verify-all":
        return Plan(workload, seed, None, [{"kind": "criterion", "id": c} for c in VERIFY_CRITERIA])
    gen = {
        "batch-extfield": _gen_extfield,
        "batch-groups": _gen_groups,
        "library-scan": _gen_library,
    }[workload]
    plan = Plan(workload, seed, [])
    gen(_rng(workload, seed), plan)
    return plan


def input_bytes(plan: Plan) -> bytes:
    """The exact input file content of a plan (empty for verify-all)."""
    if plan.data is None:
        return b""
    return (json.dumps(plan.data, sort_keys=True, indent=1) + "\n").encode()


# ---------------------------------------------------------------------------
# polynomials, computed independently
# ---------------------------------------------------------------------------


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # coefficient lists lowest degree first, b monic
    a = a[:]
    while len(a) >= len(b):
        c = a[-1]
        if c:
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _monic_polys(p: int, d: int):
    for k in range(p**d):
        coeffs = []
        for _ in range(d):
            coeffs.append(k % p)
            k //= p
        yield coeffs + [1]


def is_irreducible(poly: list[int], p: int) -> bool:
    d = len(poly) - 1
    return all(
        _poly_rem(poly, q, p)
        for e in range(1, d // 2 + 1)
        for q in _monic_polys(p, e)
    )


def random_irreducible(rng: random.Random, p: int, d: int) -> list[int]:
    while True:
        poly = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible(poly, p):
            return poly


def block_companion(polys: list[list[int]], p: int) -> list[list[int]]:
    n = sum(len(f) - 1 for f in polys)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for f in polys:
        d = len(f) - 1
        for i in range(1, d):
            rows[off + i][off + i - 1] = 1
        for i in range(d):
            rows[off + i][off + d - 1] = (-f[i]) % p
        off += d
    return rows


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _field_payload(f):
    return {"p": f[0], "m": f[1]}


def random_permutation(rng: random.Random, cycle_type: list[int]) -> list[int]:
    """A uniformly labelled permutation of the given cycle type; perm[x] is x's image."""
    labels = list(range(sum(cycle_type)))
    rng.shuffle(labels)
    perm = [0] * len(labels)
    off = 0
    for length in cycle_type:
        cyc = labels[off:off + length]
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % length]
        off += length
    return perm


def cycle_notation(perm: list[int]) -> str:
    seen = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = perm[x]
        cycles.append("(" + "".join(cyc) + ")")
    return "".join(cycles) or "()"


def lex_rank(perm: list[int]) -> int:
    """Position of the image tuple among the lexicographic permutations."""
    rank = 0
    rest = sorted(perm)
    for i, x in enumerate(perm):
        pos = rest.index(x)
        rank += pos * math.factorial(len(perm) - 1 - i)
        rest.pop(pos)
    return rank


def conjugate(parts: list[int]) -> list[int]:
    return [sum(1 for x in parts if x > i) for i in range(parts[0])]


def _theta_partition(rng: random.Random, n: int, largest: int) -> list[int]:
    parts = [largest]
    rest = n - largest
    while rest:
        k = rng.randint(1, min(rest, largest))
        parts.append(k)
        rest -= k
    return sorted(parts, reverse=True)


def _gen_extfield(rng: random.Random, plan: Plan) -> None:
    thetas, checks, involutions, cyclics = [], [], [], []
    for i in range(45):
        f = EXT_FIELDS[i % len(EXT_FIELDS)]
        n = 1 + i % 10
        lam = _theta_partition(rng, n, 1 + (7 * i) % n)
        thetas.append((
            {"mode": "partition", "op": "theta", "partition": ",".join(map(str, lam)),
             **_field_payload(f)},
            {"kind": "theta", "want": ",".join(map(str, conjugate(lam)))},
        ))
    for i in range(30):
        f = EXT_FIELDS[(7 * i + 3) % len(EXT_FIELDS)]
        n = 2 + i % 7
        order = f[0] ** f[1]
        # a nonzero superdiagonal makes the type a single block (n)
        rows = [[1 if c == r else rng.randrange(1 if c == r + 1 else 0, order) if c > r else 0
                 for c in range(n)] for r in range(n)]
        checks.append((
            {"mode": "taylor", "op": "check-type", "matrix": {**_field_payload(f), "rows": rows}},
            {"kind": "check-type", "want": str(n)},
        ))
    for i in range(15):
        f = ODD_EXT_FIELDS[i % len(ODD_EXT_FIELDS)]
        n = 2 + i % 3  # n^2 x n^2 matrices: n = 5, 6 would dominate the batch
        involutions.append((
            {"mode": "cohomology", "op": "involution", "n": n, "J": "antidiag", **_field_payload(f)},
            {"kind": "involution", "n": n},
        ))
    for i in range(30):
        f = EXT_FIELDS[(3 * i + 1) % len(EXT_FIELDS)]
        d = 2 + i % 5
        cycle_type = CYCLE_TYPES[d][(i // 5) % len(CYCLE_TYPES[d])]
        perm = random_permutation(rng, cycle_type)
        order = math.lcm(*cycle_type) * (1 + i % 2)
        rows = [[1 if perm[c] == r else 0 for c in range(d)] for r in range(d)]
        cyclics.append((
            {"mode": "cohomology", "op": "cyclic", "order": order,
             "sigma": {**_field_payload(f), "rows": rows}},
            {"kind": "cyclic", "cycles": len(cycle_type)},
        ))
    _add_named(plan, _interleave(thetas, checks, involutions, cyclics), "x")


def _subgroup_spec(rng: random.Random, gamma, j: int):
    """Subgroup spec number j: its kind and generator cycle type are fixed by j."""
    kind = j % 5
    if kind == 0:
        return "trivial"
    if kind == 1:
        return "full"
    n = int(gamma[1:]) if isinstance(gamma, str) else 4
    types = [t for t in ([2], [3], [2, 2], [4], [5], [3, 2]) if sum(t) <= n]
    perm = random_permutation(rng, _pad(types[(j // 5) % len(types)], n))
    if not isinstance(gamma, str):  # Z2 x S4: element (1, perm) by its index
        return [24 + lex_rank(perm)]
    if kind == 2:
        return cycle_notation(perm)
    if kind == 3:
        return [lex_rank(perm)]
    if n >= 4:  # two disjoint transpositions as separate generators
        a, b, c, d = rng.sample(range(1, n + 1), 4)
        return f"({a}{b}),({c}{d})"
    return cycle_notation(perm)


def _pad(cycle_type: list[int], n: int) -> list[int]:
    return cycle_type + [1] * (n - sum(cycle_type))


def _gen_groups(rng: random.Random, plan: Plan) -> None:
    densities, audits, ledgers = [], [], []
    for j, (gamma, k) in enumerate(DENSITY_MIX):
        sub = _subgroup_spec(rng, gamma, j)
        densities.append((
            {"mode": "density", "gamma": gamma, "subgroup": sub, "k": k},
            {"kind": "density", "k": k, "full": sub == "full"},
        ))
    for i in range(36):
        deg_f = 1 + i % 3
        audits.append((
            {"mode": "gn-audit", "n": 1 + i % 6, "deg_F": deg_f, "s_count": (i // 3) % 4,
             "ell_degrees": _composition(rng, deg_f)},
            {"kind": "gn-audit"},
        ))
    for i in range(36):
        scenario = _ledger_scenario(rng, 1 + i % 6, 1 + (i // 2) % 3, (i // 6) % 4, i % 2 == 0)
        ledgers.append((scenario, {"kind": "ledger", "dual": i % 2 == 0}))
    _add_named(plan, _interleave(densities, audits, ledgers), "g")


def _composition(rng: random.Random, total: int) -> list[int]:
    parts = rng.randint(1, total)
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _ledger_scenario(rng: random.Random, n: int, deg_f: int, s_count: int, with_dual: bool):
    """A degrees-complete min/sm setting whose checks all pass."""
    ell = _composition(rng, deg_f)
    places = [{"kind": "S", "condition": "min"} for _ in range(s_count)]
    places += [{"kind": "ell", "condition": "sm", "local_degree": d,
                "delta": 0 if with_dual else rng.randint(0, 2)} for d in ell]
    places += [{"kind": "arch"} for _ in range(deg_f)]
    scenario = {"mode": "ledger", "lie": {"gn": n}, "deg_F": deg_f, "places": places}
    if with_dual:
        # the archimedean h^0 values must total deg_F (n^2 - n(n+1)/2)
        arch_total = deg_f * (n * n - n * (n + 1) // 2)
        cuts = sorted(rng.randint(0, arch_total) for _ in range(deg_f - 1))
        arch = [b - a for a, b in zip([0] + cuts, cuts + [arch_total])]
        finite = [rng.randint(0, 3) for _ in range(s_count + len(ell))]
        scenario.update({"h0_global": 0, "h0_global_dual": 0, "h0_locals": finite + arch})
    return scenario


def _interleave(*kinds):
    """Round-robin over the kinds: a fixed order, so the first scenario to
    use each field (and pay for building it) is the same for every seed."""
    out = []
    for i in range(max(len(k) for k in kinds)):
        out.extend(k[i] for k in kinds if i < len(k))
    return out


def _add_named(plan: Plan, items, prefix: str) -> None:
    for i, (scenario, expect) in enumerate(items):
        name = f"{prefix}{i:03d}"
        plan.data.append({"name": name, **scenario})
        plan.expect.append({**expect, "name": name, "mode": scenario["mode"]})


def _split_degree(base, degrees) -> int:
    """Extension degree over the base field at which every root appears."""
    m = base[1]
    return math.lcm(*(d // math.gcd(d, m) for d in degrees))


def _root_scan_call(rng: random.Random, base, degrees):
    p = base[0]
    polys = [random_irreducible(rng, p, d) for d in degrees]
    return {"p": p, "m": base[1], "rows": block_companion(polys, p)}


def _gen_library(rng: random.Random, plan: Plan) -> None:
    roots, qpowers = [], []
    for base, degrees in ROOT_SCAN_MIX * 7 + ROOT_SCAN_LARGE:
        call = {"call": "roots", **_root_scan_call(rng, base, degrees)}
        roots.append((call, {"kind": "roots", "n": sum(degrees), "p": base[0],
                             "m": base[1] * _split_degree(base, degrees)}))
    for base, degrees in QPOWER_MIX * 2:
        call = {"call": "qpower", **_root_scan_call(rng, base, degrees),
                "q": base[0] ** rng.randint(1, 3)}
        qpowers.append((call, {"kind": "qpower"}))
    # the lattices come first: the certificates sample from them
    head = [({"call": "all_subgroups", "group": g}, {"kind": "subgroups", "count": c})
            for g, c in SUBGROUP_COUNTS.items()]
    last = SUBGROUP_COUNTS["S5"] - 1
    tail = []
    for position, k in CERTIFICATES:
        index = min(last, position + rng.randrange(3))
        tail.append(({"call": "certificate", "group": "S5", "subgroup": index, "k": k},
                     {"kind": "certificate", "k": k, "full": index == last}))
    for call, expect in head + _interleave(roots, qpowers) + tail:
        plan.data.append(call)
        plan.expect.append(expect)


# ---------------------------------------------------------------------------
# outputs: parsing, digests and checks
# ---------------------------------------------------------------------------

_CRITERION_LINE = re.compile(r"^(PASS|FAIL) (c\d\d) \((\d+\.\d+)s\) (.*)$")


@dataclass
class Item:
    """One output item: its payload without timing, its latency, and the
    time of the reference loop run just before it, where the runner has one."""

    payload: Any
    elapsed_s: float
    reference_s: float | None = None


def parse_output(plan: Plan, stdout: str) -> list[Item]:
    """Items in output order; raises ValueError when the output is malformed."""
    if plan.workload == "verify-all":
        items = []
        for line in stdout.splitlines():
            m = _CRITERION_LINE.match(line)
            if m:
                items.append(Item(f"{m[1]} {m[2]} {m[4]}", float(m[3])))
        return items
    records = json.loads(stdout)
    if not isinstance(records, list):
        raise ValueError("expected a JSON list of reports")
    items = []
    for rec in records:
        rec = dict(rec)
        elapsed = float(rec.pop("elapsed_s"))
        reference = rec.pop("reference_s", None)
        items.append(Item(rec, elapsed, None if reference is None else float(reference)))
    return items


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_items(plan: Plan, items: list[Item], golden: list[str] | None = None) -> list[bool]:
    """One verdict per expected item; a missing or extra item fails."""
    verdicts = []
    for i, expect in enumerate(plan.expect):
        if i >= len(items):
            verdicts.append(False)
            continue
        ok = _check_one(expect, items[i].payload)
        if golden is not None:
            ok = ok and i < len(golden) and digest(items[i].payload) == golden[i]
        verdicts.append(ok)
    if len(items) > len(plan.expect) and verdicts:
        verdicts[-1] = False
    return verdicts


def _check_one(expect: dict, payload) -> bool:
    try:
        return _CHECKS[expect["kind"]](expect, payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


def _report_ok(expect: dict, rep) -> bool:
    return (
        isinstance(rep, dict)
        and rep.get("ok") is True
        and rep.get("scenario") == expect["name"]
        and rep.get("mode") == expect["mode"]
    )


def _check_criterion(expect, line) -> bool:
    return line.startswith(f"PASS {expect['id']} ")


def _check_theta(expect, rep) -> bool:
    return _report_ok(expect, rep) and rep["verdicts"]["theta"] == expect["want"]


def _check_check_type(expect, rep) -> bool:
    v = rep["verdicts"]
    return (_report_ok(expect, rep) and v["one_condition"] is True
            and v["type_partition"] == expect["want"])


def _check_involution(expect, rep) -> bool:
    n = expect["n"]
    v = rep["verdicts"]
    return (_report_ok(expect, rep) and v["minus_eigenspace_dim"] == n * (n + 1) // 2
            and v["plus_eigenspace_dim"] == n * (n - 1) // 2)


def _check_cyclic(expect, rep) -> bool:
    return _report_ok(expect, rep) and rep["verdicts"]["h0"] == expect["cycles"]


def _check_density(expect, rep) -> bool:
    v = rep["verdicts"]
    k = expect["k"]
    dens = Fraction(v["density"])
    ok = _report_ok(expect, rep) and v["holds"] is True and dens >= 1 - Fraction(1, 2**k)
    if expect["full"]:
        ok = ok and dens == 1 - Fraction(1, 2 ** (k + 1))
    return ok


def _check_gn_audit(expect, rep) -> bool:
    return _report_ok(expect, rep) and rep["verdicts"]["r0_identity"]["ok"] is True


def _check_ledger(expect, rep) -> bool:
    v = rep["verdicts"]
    ok = _report_ok(expect, rep) and v["smooth"] is True
    if expect["dual"]:
        ok = ok and v["dual_selmer"]["vanishes"] is True
    return ok


def _check_roots(expect, rec) -> bool:
    v = rec["value"]
    order = v["p"] ** v["m"]
    return (
        rec["call"] == "roots"
        and (v["p"], v["m"]) == (expect["p"], expect["m"])
        and len(v["roots"]) == expect["n"]
        and all(0 <= z < order for z in v["roots"])
        and v["roots"] == sorted(v["roots"])
    )


def _check_qpower(expect, rec) -> bool:
    # q is a power of p, so z -> z^q permutes the roots of an F_p polynomial
    return rec["call"] == "qpower" and rec["value"] is True


def _check_subgroups(expect, rec) -> bool:
    return rec["call"] == "all_subgroups" and len(rec["value"]) == expect["count"]


def _check_certificate(expect, rec) -> bool:
    k = expect["k"]
    v = rec["value"]
    dens = Fraction(v["density"])
    ok = (rec["call"] == "certificate" and v["holds"] is True
          and dens >= 1 - Fraction(1, 2**k)
          and v["witness_count"] == (2**k - 1) * 2 * 120)
    if expect["full"]:
        ok = ok and dens == 1 - Fraction(1, 2 ** (k + 1))
    return ok


_CHECKS = {
    "criterion": _check_criterion,
    "theta": _check_theta,
    "check-type": _check_check_type,
    "involution": _check_involution,
    "cyclic": _check_cyclic,
    "density": _check_density,
    "gn-audit": _check_gn_audit,
    "ledger": _check_ledger,
    "roots": _check_roots,
    "qpower": _check_qpower,
    "subgroups": _check_subgroups,
    "certificate": _check_certificate,
}
