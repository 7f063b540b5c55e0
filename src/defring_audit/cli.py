"""Batch front door: scenario ingestion, subcommand dispatch, reports.

Scenarios are JSON objects with a top-level ``mode`` discriminator
(``partition``, ``cohomology``, ``ledger``, ``density``, ``taylor`` or
``gn-audit``); a file may hold a single scenario or a list, run in
order.  Every size a payload controls is checked against a budget when it
is parsed; the budgets, and the one reader of payload integers, live in
``limits``.  Each mode handler maps a payload to ``(verdicts, diagnostics,
ok)`` built from JSON values only (dict, list, str, int, bool, None), which
the report holds as they are; gn-audit's is ``ledger.gn_audit``.  Exit
codes: 0 all checks pass, 1 a mathematical check failed, 2 invalid input.
A reader that closes stdout early (``| head``) gets no traceback and
leaves the exit code unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from . import acceptance
from . import cohomology as coh
from . import density as dens
from . import ledger, limits
from . import partitions as parts
from . import taylor
from .ff import MatrixFF, PrimeField, mk_field
from .ledger import gn_audit
from .limits import ScenarioError, read_int

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INVALID = 2


# ---------------------------------------------------------------------------
# payload parsing helpers
# ---------------------------------------------------------------------------


def _field_from_json(obj) -> PrimeField:
    p = read_int(obj.get("p"), "bad field spec: 'p'")
    m = read_int(obj.get("m", 1), "bad field spec: 'm'")
    try:
        return mk_field(p, m)
    except ValueError as exc:
        raise ScenarioError(f"bad field spec: {exc}") from exc


def _matrix_from_json(obj) -> MatrixFF:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ScenarioError('matrix payloads need {"p": ..., "m": ..., "rows": [[...]]}')
    f = _field_from_json(obj)
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ScenarioError("matrix rows must be nested integer arrays")
    limit = limits.MAX_MATRIX_DIM
    if len(rows) > limit or any(len(r) > limit for r in rows):
        raise ScenarioError(f"matrix has more than MAX_MATRIX_DIM = {limit} rows or columns")
    try:
        return MatrixFF.from_rows(f, rows)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad matrix: {exc}") from exc


def _partition_from_json(obj) -> parts.Partition:
    if isinstance(obj, str):
        lam = parts.Partition.parse(obj)
    elif isinstance(obj, list):
        lam = parts.Partition(tuple(read_int(x, "each partition part") for x in obj))
    else:
        raise ScenarioError("partition must be a string like '3,1' or an integer list")
    read_int(lam.n, "partition size", "MAX_PARTITION_N", past=f"partition of {lam.n} exceeds")
    return lam


# ---------------------------------------------------------------------------
# mode handlers: payload -> (verdicts, diagnostics, ok)
# ---------------------------------------------------------------------------


def _run_partition(payload):
    op = payload.get("op", "verify-lemma")
    if op == "verify-lemma":
        report = parts.verify_conjugation_lemma(read_int(payload.get("n"), "'n'"))
        verdicts = {"checked": report.checked, "failures": [list(f) for f in report.failures]}
        diag = {} if report.ok else {"violated": "theta = conjugate on Young diagrams"}
        return verdicts, diag, report.ok
    if op in ("conjugate", "theta"):
        lam = _partition_from_json(payload.get("partition"))
        if op == "conjugate":
            out = parts.conjugate(lam)
        else:
            out = parts.theta(lam, _field_from_json(payload) if "p" in payload else None)
        return {"input": str(lam), op: str(out)}, {}, True
    raise ScenarioError(f"unknown partition op {op!r}")


def _run_cohomology(payload):
    op = payload.get("op")
    if op == "cyclic":
        order = read_int(payload.get("order"), "'order'", "MAX_CYCLIC_ORDER", low=1)
        sigma = _matrix_from_json(payload.get("sigma"))
        action = coh.CyclicAction(order=order, sigma=sigma)
        dims = coh.cohomology_dims(action)
        return dims._asdict(), {"dimension": action.dimension}, True
    if op == "involution":
        n = read_int(payload.get("n"), "'n'", "MAX_INVOLUTION_N", low=1)
        jspec = payload.get("J", "antidiag")
        if jspec == "antidiag":
            f = _field_from_json(payload)
            J = coh.antidiagonal_ones(n, f)
        else:
            J = _matrix_from_json(jspec)
        spec = coh.InvolutionSpec(n, J)
        action = coh.twisted_involution_action(spec)
        # for order 2, N = 1 + sigma, so Z^1 is the (-1)-eigenspace; arch_lift_dim
        # checks h2 = h0 - rank N = 0, so h0, the (+1)-eigenspace, is dim - z1
        minus = coh.arch_lift_dim(action)
        verdicts = {
            "minus_eigenspace_dim": minus,
            "plus_eigenspace_dim": action.dimension - minus,
            "arch_lift_dim": minus,
        }
        return verdicts, {"space_dim": n * n}, True
    raise ScenarioError(f"unknown cohomology op {op!r}")


def _place_from_json(obj) -> ledger.PlaceSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError("each place needs at least a 'kind'")
    kind = obj["kind"]
    condition = obj.get("condition")
    if condition is None:
        if kind == ledger.KIND_ARCH:
            condition = ledger.COND_UNRESTRICTED
        else:
            raise ScenarioError(f"place of kind {kind!r} needs a 'condition'")
    local_degree = read_int(obj.get("local_degree", 0), "'local_degree'", "MAX_LEDGER_INT")
    delta = read_int(obj.get("delta", 0), "'delta'", "MAX_LEDGER_INT")
    h0_local = (read_int(obj["h0_local"], "'h0_local'", "MAX_LEDGER_INT")
                if "h0_local" in obj else None)
    try:
        return ledger.PlaceSpec(
            kind=kind,
            condition=condition,
            local_degree=local_degree,
            delta=delta,
            h0_local=h0_local,
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad place: {exc}") from exc


def _lie_from_json(obj) -> ledger.LieDims:
    if isinstance(obj, dict) and "gn" in obj:
        return ledger.gn_dims(read_int(obj["gn"], "'gn'", "MAX_LEDGER_INT"))
    if isinstance(obj, dict):
        try:
            # every field but the derived dim_z is required: a missing key is a KeyError
            return ledger.LieDims(**{
                key: read_int(obj[key], f"'{key}'", "MAX_LEDGER_INT")
                for key in ledger.LieDims._fields if key in obj or key != "dim_z"
            })
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad Lie dimensions: {exc}") from exc
    raise ScenarioError("'lie' must be {'gn': n} or explicit dimensions")


def _setting_from_json(payload) -> ledger.DeformationSetting:
    places = payload.get("places", [])
    if not isinstance(places, list):
        raise ScenarioError(f"'places' must be a list, got {places!r}")
    read_int(len(places), "places", "MAX_PLACES", past=f"{len(places)} places exceed")
    degrees_complete = payload.get("degrees_complete", True)
    if not isinstance(degrees_complete, bool):
        raise ScenarioError(f"'degrees_complete' must be true or false, got {degrees_complete!r}")
    return ledger.DeformationSetting(
        lie=_lie_from_json(payload.get("lie")),
        deg_F=read_int(payload.get("deg_F", 0), "'deg_F'", "MAX_LEDGER_INT"),
        places=tuple(_place_from_json(p) for p in places),
        degrees_complete=degrees_complete,
    )


def _run_ledger(payload):
    setting = _setting_from_json(payload)
    run_dual = "h0_global" in payload or "h0_locals" in payload
    h0_locals = payload.get("h0_locals")
    if h0_locals is not None:
        if not isinstance(h0_locals, list):
            raise ScenarioError(f"'h0_locals' must be a list, got {h0_locals!r}")
        h0_locals = [read_int(h, "each 'h0_locals' entry", "MAX_LEDGER_INT") for h in h0_locals]
    return ledger.audit(
        setting,
        read_int(payload.get("h0_global", 0), "'h0_global'", "MAX_LEDGER_INT"),
        read_int(payload.get("h0_global_dual", 0), "'h0_global_dual'", "MAX_LEDGER_INT"),
        h0_locals,
        run_dual,
    )


def _subgroup_from_json(gamma: dens.FiniteGroup, obj) -> frozenset[int]:
    if obj in (None, "trivial", ""):
        return frozenset({gamma.identity})
    if obj == "full":
        return frozenset(gamma.elements())
    if isinstance(obj, list):
        try:
            gens = [read_int(x, "each subgroup generator") for x in obj]
            return dens.subgroup_closure(gamma, gens)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad subgroup generators: {exc}") from exc
    if isinstance(obj, str):
        # only symmetric_group names a group S<n>, however gamma was given
        n = dens.numbered_name(gamma.name, "s")
        if n is not None:
            gens = [dens.perm_index_from_cycles(n, tok) for tok in obj.split(",")]
        else:
            try:
                gens = [parts.parse_int(tok) for tok in obj.split(",")]
            except ValueError as exc:
                raise ScenarioError(
                    "subgroup strings are cycle notation for S_n or integer generators"
                ) from exc
        return dens.subgroup_closure(gamma, gens)
    raise ScenarioError("subgroup must be 'trivial', 'full', generators or cycles")


def _run_density(payload):
    try:
        gamma = dens.build_group(payload.get("gamma", "trivial"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad gamma spec: {exc}") from exc
    k = payload.get("k")
    try:
        dens.check_density_k(k)
    except ValueError as exc:
        raise ScenarioError(f"density 'k': {exc}") from exc
    subgroup = _subgroup_from_json(gamma, payload.get("subgroup"))
    problem = dens.SplitDensityProblem(gamma, subgroup, k)
    cert = dens.bound_certificate(problem)
    verdicts = {
        "density": f"{cert.density.numerator}/{cert.density.denominator}",
        "bound": f"1-1/2^{k}",
        "bound_value": f"{cert.bound.numerator}/{cert.bound.denominator}",
        "witness_count": cert.witness_count,
        "holds": cert.holds,
    }
    diag = {
        "group_order": problem.group_order,
        "gamma_order": gamma.order,
        "subgroup_order": len(subgroup),
    }
    if not cert.holds:
        diag["violated"] = "density >= 1 - 1/2^k with omega != 1 witnesses"
    return verdicts, diag, cert.holds


def _run_taylor(payload):
    op = payload.get("op")
    if op in ("threshold", "coprime"):
        ell = read_int(payload.get("ell"), "'ell'") if op == "coprime" else None
        q = read_int(payload.get("q"), "'q'")
        n = read_int(payload.get("n"), "'n'")
        if op == "threshold":
            return {"q": q, "n": n, "threshold": taylor.taylor_threshold(q, n)}, {}, True
        result = taylor.threshold_coprime(ell, q, n)
        diag = {} if result else {"violated": "gcd(ell, q^(n!)-1) = 1"}
        return {"ell": ell, "q": q, "n": n, "coprime": result}, diag, result
    if op == "check-type":
        M = _matrix_from_json(payload.get("matrix"))
        lam = taylor.min_equals_type_partition(M)
        one_cond = taylor.satisfies_one_condition(M)
        return {"type_partition": str(lam), "one_condition": one_cond}, {}, True
    raise ScenarioError(f"unknown taylor op {op!r}")


def _run_gn_audit_payload(payload):
    n = read_int(payload.get("n"), "'n'", "MAX_LEDGER_INT")
    deg_f = read_int(payload.get("deg_F"), "'deg_F'", "MAX_LEDGER_INT")
    s_count = read_int(payload.get("s_count", 0), "'s_count'", "MAX_LEDGER_INT")
    return gn_audit(n, deg_f, s_count, payload.get("ell_degrees", []))


_HANDLERS = {
    "partition": _run_partition,
    "cohomology": _run_cohomology,
    "ledger": _run_ledger,
    "density": _run_density,
    "taylor": _run_taylor,
    "gn-audit": _run_gn_audit_payload,
}
MODES = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# reports and dispatch
# ---------------------------------------------------------------------------


def run_scenario_obj(obj) -> dict:
    """Evaluate one parsed scenario object; raises ScenarioError on bad input.

    The handlers' one error boundary: a ValueError or TypeError raised under
    one becomes a ScenarioError with its message.  InternalCheckError (a bug)
    is not caught.
    """
    if not isinstance(obj, dict):
        raise ScenarioError("a scenario must be a JSON object")
    mode = obj.get("mode")
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {MODES}, got {mode!r}")
    name = obj.get("name", mode)
    start = time.perf_counter()
    try:
        verdicts, diagnostics, ok = _HANDLERS[mode](obj)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc
    return {
        "scenario": name,
        "mode": mode,
        "verdicts": verdicts,
        "diagnostics": diagnostics,
        "ok": ok,
        "version": __version__,
        "elapsed_s": time.perf_counter() - start,
    }


def _print(text: str) -> None:
    """Print ``text``; once the reader has closed stdout, drop all further output.

    The recipe of the Python docs on SIGPIPE: stdout is pointed at devnull,
    so neither this print nor the flush at exit raises again.  The exit
    code stays the verdict's.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_report(payload, reports, out: str | None) -> int:
    """Print ``payload`` as indented, key-sorted JSON, first to ``out`` if given.

    Returns 2 if any of ``reports`` is invalid or ``out`` cannot be written (a
    one-line error is then all the output), else 1 if a check failed, else 0.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_INVALID
    _print(text)
    if any(r.get("invalid") for r in reports):
        return EXIT_INVALID
    return EXIT_OK if all(r["ok"] for r in reports) else EXIT_MATH_FAIL


def _decode_json(source: str | Path, what: str):
    """Parse JSON text, or the UTF-8 file at the path ``source``.

    An unreadable file, bytes that are not UTF-8, bad JSON, an integer past
    Python's 4300-digit limit or too deep a nesting is a ScenarioError line,
    ``what: reason``.
    """
    try:
        text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"{what}: {exc}") from exc


def run_scenario(path: str, out: str | None = None) -> int:
    """Run the scenario file (single object or list); emit the report JSON.

    Exit code 0 when every check passes, 1 on a failed mathematical
    check, 2 on parse/validation failure.
    """
    try:
        data = _decode_json(Path(path), "cannot read scenario")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    def run_one(obj):
        try:
            return run_scenario_obj(obj)
        except ScenarioError as exc:
            return {"error": str(exc), "ok": False, "invalid": True}

    reports = [run_one(o) for o in (data if isinstance(data, list) else [data])]
    return _write_report(reports if isinstance(data, list) else reports[0], reports, out)


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defring-audit",
        description="Exact-arithmetic audits: partitions, cyclic cohomology, "
        "dimension ledgers, splitting densities and threshold arithmetic.",
    )
    parser.add_argument("--seed", type=_int_arg, default=0,
                        help="seed for randomized property subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario JSON file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None)

    p_gn = sub.add_parser("gn-audit", help="preset rank-n framework audit")
    p_gn.add_argument("--n", type=_int_arg, required=True)
    p_gn.add_argument("--degF", type=_int_arg, required=True)
    p_gn.add_argument("--s", type=_int_arg, default=0)
    p_gn.add_argument("--ell", type=str, required=True,
                      help="comma-separated local degrees, e.g. 1,1")
    p_gn.add_argument("--out", default=None)

    p_all = sub.add_parser("verify-all", help="run the full acceptance suite")
    p_all.add_argument("--max-n", type=_int_arg, default=10)

    p_part = sub.add_parser("partition", help="Young diagram operations")
    part_sub = p_part.add_subparsers(dest="subop", required=True)
    pc = part_sub.add_parser("conjugate")
    pc.add_argument("partition")
    pt = part_sub.add_parser("theta")
    pt.add_argument("partition")
    pt.add_argument("--p", type=_int_arg, default=5)
    pt.add_argument("--m", type=_int_arg, default=1)
    pv = part_sub.add_parser("verify-lemma")
    pv.add_argument("--n", type=_int_arg, required=True)

    p_coh = sub.add_parser("cohom", help="cyclic cohomology dimensions")
    coh_sub = p_coh.add_subparsers(dest="subop", required=True)
    cc = coh_sub.add_parser("cyclic")
    cc.add_argument("--order", type=_int_arg, required=True)
    cc.add_argument("--sigma", type=str, required=True, help="matrix JSON")
    ci = coh_sub.add_parser("involution")
    ci.add_argument("--n", type=_int_arg, required=True)
    ci.add_argument("--J", type=str, default="antidiag")
    ci.add_argument("--p", type=_int_arg, default=5)
    ci.add_argument("--m", type=_int_arg, default=1)

    p_tay = sub.add_parser("taylor", help="threshold and type arithmetic")
    tay_sub = p_tay.add_subparsers(dest="subop", required=True)
    tt = tay_sub.add_parser("threshold")
    tt.add_argument("--q", type=_int_arg, required=True)
    tt.add_argument("--n", type=_int_arg, required=True)
    tc = tay_sub.add_parser("check-type")
    tc.add_argument("--matrix", type=str, required=True, help="matrix JSON")

    p_den = sub.add_parser("density", help="splitting density on Gamma x (Z/2)^k x Z/2")
    p_den.add_argument("--gamma", type=str, default="trivial")
    p_den.add_argument("--subgroup", type=str, default="trivial")
    p_den.add_argument("--k", type=_int_arg, required=True)

    return parser


def _int_arg(text: str) -> int:
    """argparse type of the integer flags: :func:`partitions.parse_int`.

    A refused value gets the words argparse uses when the builtin int refuses one.
    """
    try:
        return parts.parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _ell_degrees(text: str) -> list[int]:
    try:
        return [parts.parse_int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ScenarioError("--ell must be comma-separated integers") from None


# (command, subop) -> the scenario payload its parsed arguments stand for;
# subop is None for a command without subcommands.
_PAYLOADS = {
    ("partition", "conjugate"): lambda a: {
        "mode": "partition", "op": "conjugate", "partition": a.partition},
    ("partition", "theta"): lambda a: {
        "mode": "partition", "op": "theta", "partition": a.partition, "p": a.p, "m": a.m},
    ("partition", "verify-lemma"): lambda a: {
        "mode": "partition", "op": "verify-lemma", "n": a.n},
    ("cohom", "cyclic"): lambda a: {
        "mode": "cohomology", "op": "cyclic", "order": a.order,
        "sigma": _decode_json(a.sigma, "bad inline JSON")},
    ("cohom", "involution"): lambda a: {
        "mode": "cohomology", "op": "involution", "n": a.n, "p": a.p, "m": a.m,
        "J": a.J if a.J == "antidiag" else _decode_json(a.J, "bad inline JSON")},
    ("taylor", "threshold"): lambda a: {
        "mode": "taylor", "op": "threshold", "q": a.q, "n": a.n},
    ("taylor", "check-type"): lambda a: {
        "mode": "taylor", "op": "check-type", "matrix": _decode_json(a.matrix, "bad inline JSON")},
    ("density", None): lambda a: {
        "mode": "density", "gamma": a.gamma, "subgroup": a.subgroup, "k": a.k},
    ("gn-audit", None): lambda a: {
        "mode": "gn-audit", "n": a.n, "deg_F": a.degF, "s_count": a.s,
        "ell_degrees": _ell_degrees(a.ell)},
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return run_scenario(args.file, args.out)
    try:
        if args.command == "verify-all":
            max_n = read_int(args.max_n, "--max-n", "MAX_VERIFY_N", low=1)
        else:
            build = _PAYLOADS[args.command, getattr(args, "subop", None)]
            report = run_scenario_obj(build(args))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.command != "verify-all":
        return _write_report(report, [report], getattr(args, "out", None))
    results = acceptance.run_all(max_n=max_n, seed=args.seed)
    for res in results:
        _print(res.line())
    total = sum(r.elapsed_s for r in results)
    passed = sum(r.ok for r in results)
    _print(f"{passed}/{len(results)} criteria passed in {total:.2f}s")
    return EXIT_OK if passed == len(results) else EXIT_MATH_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
