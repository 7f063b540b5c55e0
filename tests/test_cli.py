import ast
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring_audit import acceptance
from defring_audit import cohomology as coh
from defring_audit import limits
from defring_audit.cli import (
    EXIT_INVALID,
    EXIT_MATH_FAIL,
    EXIT_OK,
    ScenarioError,
    gn_audit,
    main,
    run_scenario,
    run_scenario_obj,
)
from defring_audit.density import MAX_DENSITY_K
from defring_audit.ff import MAX_PRIMALITY_N


def _write(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# scenario dispatch and exit codes
# ---------------------------------------------------------------------------


def test_partition_lemma_scenario_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "partition", "op": "verify-lemma", "n": 8})
    assert run_scenario(path) == EXIT_OK
    report = _last_json(capsys)
    assert report["verdicts"]["failures"] == []
    assert report["verdicts"]["checked"] == 22  # p(8)


def test_ledger_scenario_with_inconsistent_degrees_exits_two(tmp_path, capsys):
    payload = {
        "mode": "ledger",
        "lie": {"gn": 2},
        "deg_F": 2,
        "places": [
            {"kind": "S", "condition": "min"},
            {"kind": "ell", "condition": "sm", "local_degree": 1},
            {"kind": "arch"},
            {"kind": "arch"},
        ],
    }
    path = _write(tmp_path, payload)
    assert run_scenario(path) == EXIT_INVALID


def test_density_scenario_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "density", "gamma": "S3", "subgroup": "trivial", "k": 1})
    assert run_scenario(path) == EXIT_OK
    report = _last_json(capsys)
    assert report["verdicts"]["holds"] is True


def test_failed_math_check_exits_one_and_names_the_identity(tmp_path, capsys):
    # one ell degree against two archimedean places starves the bound
    payload = {
        "mode": "ledger",
        "lie": {"gn": 2},
        "deg_F": 2,
        "degrees_complete": False,
        "places": [
            {"kind": "ell", "condition": "sm", "local_degree": 1},
            {"kind": "arch"},
            {"kind": "arch"},
        ],
    }
    path = _write(tmp_path, payload)
    assert run_scenario(path) == EXIT_MATH_FAIL
    report = _last_json(capsys)
    assert "violated" in report["diagnostics"]


def test_unparseable_file_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run_scenario(str(path)) == EXIT_INVALID


def test_unknown_mode_exits_two(tmp_path):
    path = _write(tmp_path, {"mode": "nonsense"})
    assert run_scenario(path) == EXIT_INVALID


def test_report_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    path = _write(tmp_path, {"mode": "taylor", "op": "threshold", "q": 2, "n": 3})
    assert run_scenario(path, out=str(out)) == EXIT_OK
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["verdicts"]["threshold"] == 64
    capsys.readouterr()


def test_reports_are_deterministic_modulo_elapsed():
    payload = {"mode": "partition", "op": "verify-lemma", "n": 6, "name": "repeat"}
    r1 = run_scenario_obj(payload)
    r2 = run_scenario_obj(payload)
    r1.pop("elapsed_s")
    r2.pop("elapsed_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_batch_scenarios_preserve_order(tmp_path, capsys):
    batch = [
        {"mode": "taylor", "op": "threshold", "q": 2, "n": 2, "name": "a"},
        {"mode": "partition", "op": "conjugate", "partition": "4,2,1", "name": "b"},
        {"mode": "density", "gamma": "Z2", "subgroup": "trivial", "k": 1, "name": "c"},
    ]
    path = _write(tmp_path, batch)
    assert run_scenario(path) == EXIT_OK
    reports = _last_json(capsys)
    assert [r["scenario"] for r in reports] == ["a", "b", "c"]
    assert reports[1]["verdicts"]["conjugate"] == "3,2,1,1"


def test_batch_with_one_invalid_scenario_exits_two(tmp_path, capsys):
    batch = [
        {"mode": "taylor", "op": "threshold", "q": 2, "n": 2},
        {"mode": "partition", "op": "verify-lemma"},  # missing n
    ]
    path = _write(tmp_path, batch)
    assert run_scenario(path) == EXIT_INVALID
    capsys.readouterr()


@pytest.mark.parametrize(
    "key, value", [("h0_global", "x"), ("h0_global_dual", "1.5"), ("h0_global_dual", [1])]
)
def test_batch_with_non_integer_h0_exits_two_and_keeps_both_reports(tmp_path, capsys, key, value):
    good = {"mode": "taylor", "op": "threshold", "q": 2, "n": 2}
    bad = {"mode": "ledger", "lie": {"gn": 1}, "deg_F": 1, "h0_global": 0, key: value,
           "places": [{"kind": "ell", "condition": "sm", "local_degree": 1}, {"kind": "arch"}]}
    path = _write(tmp_path, [good, bad])
    assert run_scenario(path) == EXIT_INVALID
    reports = _last_json(capsys)
    assert len(reports) == 2
    assert reports[0]["ok"] is True and reports[0]["verdicts"]["threshold"] > 0
    assert reports[1]["invalid"] is True and repr(key) in reports[1]["error"]


def test_batch_with_non_integer_ell_degree_exits_two_and_keeps_both_reports(tmp_path, capsys):
    good = {"mode": "taylor", "op": "threshold", "q": 2, "n": 2}
    bad = {"mode": "gn-audit", "n": 2, "deg_F": 1, "ell_degrees": ["x"]}
    path = _write(tmp_path, [good, bad])
    assert run_scenario(path) == EXIT_INVALID
    reports = _last_json(capsys)
    assert len(reports) == 2
    assert reports[0]["ok"] is True
    assert reports[1]["invalid"] is True and "'ell_degrees'" in reports[1]["error"]


@pytest.mark.parametrize("value", [2.9, True, "2"])
@pytest.mark.parametrize("key", ["n", "deg_F", "s_count"])
def test_gn_audit_non_integer_size_exits_two_and_names_the_key(tmp_path, capsys, key, value):
    good = {"mode": "gn-audit", "n": 2, "deg_F": 1, "s_count": 1, "ell_degrees": [1]}
    path = _write(tmp_path, [good, dict(good, **{key: value})])
    assert run_scenario(path) == EXIT_INVALID
    reports = _last_json(capsys)
    assert reports[0]["ok"] is True
    assert reports[1]["invalid"] is True
    assert reports[1]["error"] == f"{key!r} must be an integer, got {value!r}"


def _cyclic_over(p, m):
    return {"mode": "cohomology", "op": "cyclic", "order": 2,
            "sigma": {"p": p, "m": m, "rows": [[1]]}}


@pytest.mark.parametrize("p, m", [(3, True), (3, 2.5), (True, 2), ("3", 1)])
def test_non_integer_field_spec_exits_two(tmp_path, capsys, p, m):
    path = _write(tmp_path, _cyclic_over(p, m))
    assert run_scenario(path) == EXIT_INVALID
    report = _last_json(capsys)
    assert report["invalid"] is True and "must be an integer" in report["error"]


def test_field_over_the_order_cap_exits_two_before_any_search(tmp_path, capsys, monkeypatch):
    from defring_audit import ff

    def no_search(*args):
        raise AssertionError("a modulus candidate was tested")

    monkeypatch.setattr(ff, "_is_irreducible", no_search)
    path = _write(tmp_path, _cyclic_over(2, 30))
    assert run_scenario(path) == EXIT_INVALID
    report = _last_json(capsys)
    assert report["invalid"] is True and "MAX_FIELD_ORDER" in report["error"]


def test_cyclic_scenario_over_a_61_bit_prime_ends_in_a_report(tmp_path, capsys):
    path = _write(tmp_path, _cyclic_over(2**61 - 1, 1))
    assert run_scenario(path) == EXIT_OK
    report = _last_json(capsys)
    assert report["verdicts"]["h0"] == 1 and report["elapsed_s"] < 1.0


@pytest.mark.parametrize(
    "scenario",
    [_cyclic_over(MAX_PRIMALITY_N, 1),
     {"mode": "taylor", "op": "coprime", "ell": MAX_PRIMALITY_N + 2, "q": 2, "n": 2}],
    ids=["field", "coprime-ell"],
)
def test_number_past_the_primality_limit_exits_two(tmp_path, capsys, scenario):
    path = _write(tmp_path, scenario)
    assert run_scenario(path) == EXIT_INVALID
    report = _last_json(capsys)
    assert report["invalid"] is True and "MAX_PRIMALITY_N" in report["error"]


@pytest.mark.parametrize("k", [MAX_DENSITY_K + 1, True])
def test_density_k_outside_the_budget_exits_two(tmp_path, capsys, k):
    path = _write(tmp_path, {"mode": "density", "gamma": "S3", "subgroup": "trivial", "k": k})
    assert run_scenario(path) == EXIT_INVALID
    report = _last_json(capsys)
    assert report["invalid"] is True
    assert f"MAX_DENSITY_K = {MAX_DENSITY_K}" in report["error"]


@pytest.mark.parametrize("factors", [{"S3": 1, "Z2": "x"}, "S3"], ids=["object", "string"])
def test_product_factors_that_are_not_a_list_exit_two(tmp_path, capsys, factors):
    # the keys of an object, or the characters of a string, are no factor list
    gamma = {"type": "product", "factors": factors}
    path = _write(tmp_path, {"mode": "density", "gamma": gamma, "k": 1})
    assert run_scenario(path) == EXIT_INVALID
    report = _last_json(capsys)
    assert report["invalid"] is True
    assert report["error"] == f"bad gamma spec: product 'factors' must be a list, got {factors!r}"


def test_main_density_k_outside_the_budget_exits_two(capsys):
    assert main(["density", "--gamma", "S3", "--k", str(MAX_DENSITY_K + 1)]) == EXIT_INVALID
    assert "MAX_DENSITY_K" in capsys.readouterr().err


def _cyclic(order):
    return {"mode": "cohomology", "op": "cyclic", "order": order,
            "sigma": {"p": 5, "m": 1, "rows": [[1]]}}


def _involution(n):
    return {"mode": "cohomology", "op": "involution", "n": n, "p": 5}


def _refuse_the_job(monkeypatch):
    def no_job(*args, **kwargs):
        raise AssertionError("the job ran")

    for name in ("CyclicAction", "antidiagonal_ones", "InvolutionSpec"):
        monkeypatch.setattr(coh, name, no_job)


@pytest.mark.parametrize(
    "scenario, limit",
    [(_cyclic(limits.MAX_CYCLIC_ORDER + 1), "MAX_CYCLIC_ORDER"),
     (_cyclic(10**9), "MAX_CYCLIC_ORDER"),
     (_cyclic(0), "MAX_CYCLIC_ORDER"),
     (_involution(limits.MAX_INVOLUTION_N + 1), "MAX_INVOLUTION_N"),
     (_involution(60), "MAX_INVOLUTION_N")],
    ids=["order-past", "order-1e9", "order-0", "n-past", "n-60"],
)
def test_size_past_its_limit_exits_two_without_running_the_job(
    tmp_path, capsys, monkeypatch, scenario, limit
):
    _refuse_the_job(monkeypatch)
    path = _write(tmp_path, scenario)
    assert run_scenario(path) == EXIT_INVALID
    report = _last_json(capsys)
    assert report["invalid"] is True and f"{limit} = {getattr(limits, limit)}" in report["error"]


def test_sizes_at_their_limits_are_admitted(tmp_path, capsys, monkeypatch):
    # the benchmark inputs (cyclic order <= 12, involution n <= 4) and c04 (n <= 6) fit
    assert limits.MAX_CYCLIC_ORDER >= 12 and limits.MAX_INVOLUTION_N >= 6
    path = _write(tmp_path, _cyclic(limits.MAX_CYCLIC_ORDER))
    assert run_scenario(path) == EXIT_OK
    assert _last_json(capsys)["verdicts"]["h0"] == 1

    class Parsed(Exception):
        pass

    def parsed(spec):
        raise Parsed(spec.n)

    monkeypatch.setattr(coh, "twisted_involution_action", parsed)
    with pytest.raises(Parsed, match=str(limits.MAX_INVOLUTION_N)):
        run_scenario_obj(_involution(limits.MAX_INVOLUTION_N))


def _matrix_payloads(rows):
    """A cyclic sigma, an involution J and a check-type matrix, all with ``rows``."""
    matrix = {"p": 5, "m": 1, "rows": rows}
    return [
        {"mode": "cohomology", "op": "cyclic", "order": 2, "sigma": matrix},
        {"mode": "cohomology", "op": "involution", "n": 2, "J": matrix},
        {"mode": "taylor", "op": "check-type", "matrix": matrix},
    ]


@pytest.mark.parametrize(
    "rows",
    [[[1.9, 0], [0, "2"]], [[True, 0], [0, 1]], [[1, 0], [0, None]]],
    ids=["float-and-str", "bool", "none"],
)
def test_non_integer_matrix_entries_exit_two(tmp_path, capsys, rows):
    path = _write(tmp_path, _matrix_payloads(rows))
    assert run_scenario(path) == EXIT_INVALID
    for report in _last_json(capsys):
        assert report["invalid"] is True
        assert report["error"].startswith("bad matrix: each matrix entry must be an integer")


def test_integer_matrix_entries_are_still_reduced_mod_the_order(tmp_path, capsys):
    # -1 and 6 are 4 and 1 in F_5, so sigma = diag(4, 1) is an involution
    path = _write(tmp_path, _matrix_payloads([[-1, 0], [0, 6]])[0])
    assert run_scenario(path) == EXIT_OK
    assert _last_json(capsys)["verdicts"] == {"h0": 1, "h1": 0, "h2": 0, "z1": 1}


def test_matrix_past_the_dimension_limit_exits_two_before_it_is_built(
    tmp_path, capsys, monkeypatch
):
    from defring_audit.ff import MatrixFF

    def no_build(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(MatrixFF, "from_rows", no_build)
    limit = limits.MAX_MATRIX_DIM
    tall = [[0] for _ in range(limit + 1)]
    wide = [[0] * (limit + 1)]
    path = _write(tmp_path, _matrix_payloads(tall) + _matrix_payloads(wide))
    assert run_scenario(path) == EXIT_INVALID
    for report in _last_json(capsys):
        assert report["invalid"] is True
        assert f"MAX_MATRIX_DIM = {limit}" in report["error"]


def test_matrices_at_the_dimension_limit_are_admitted(tmp_path, capsys):
    # the benchmark and acceptance sizes: check-type <= 8, sigma <= 6, J <= 12
    limit = limits.MAX_MATRIX_DIM
    assert limit >= max(8, 6, 12)
    identity = [[int(i == j) for j in range(limit)] for i in range(limit)]
    path = _write(tmp_path, _matrix_payloads(identity)[::2])
    assert run_scenario(path) == EXIT_OK
    cyclic, check_type = _last_json(capsys)
    assert cyclic["verdicts"]["h0"] == limit
    assert check_type["verdicts"]["type_partition"] == ",".join(["1"] * limit)


def test_reader_closing_the_pipe_early_ends_quietly_with_the_verdict(tmp_path):
    batch = [{"mode": "taylor", "op": "threshold", "q": 2, "n": 2}] * 3000
    path = _write(tmp_path, batch)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    # a buffered stdout, so output left in the buffer is flushed at exit
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "defring_audit.cli", "run", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # like `| head -c 10`: the report is far larger than the pipe buffer
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""


@pytest.mark.parametrize(
    "case, expected",
    [
        pytest.param("Z2xZ2520", "63/64", id="Z2xZ2520"),
        pytest.param("S6xZ7", "59/64", id="S6xZ7"),
        pytest.param("(Z/2)^12", "16383/16384", id="E2^12"),
    ],
)
def test_a_group_at_the_order_budget_stays_within_150_mb(run_script, case, expected):
    # groups of order 4096 and 5040 = MAX_GROUP_ORDER: a table of theirs would
    # hold |Gamma|^2 entries, ~200 MB of references at 5040
    row = dict(zip(*run_script("limits_probe.py", f"--case={case}")))
    assert (row["result"], row["exit"]) == (expected, "0")
    assert float(row["maxrss_MB"]) <= 150


def test_a_near_cap_field_with_many_cosets_stays_within_130_mb(run_script):
    # F_{1013^2}: its modulus T^2 + T + 1 gives T order 3, so the tables are
    # walked as 342,056 cosets of <T>; its build peaked at ~119 MB when each
    # coset started from a schoolbook product, and 130 MB is that plus 10%
    row = dict(zip(*run_script("limits_probe.py", "--case=F1013^2")))
    assert (row["result"], row["exit"]) == ("2,1", "0")
    assert float(row["maxrss_MB"]) <= 130


_PLACES = [{"kind": "ell", "condition": "sm", "local_degree": 1}, {"kind": "arch"}]
_LEDGER = {"mode": "ledger", "lie": {"gn": 1}, "deg_F": 1, "places": _PLACES}
_DIMS = {"dim_g": 4, "dim_g_der": 3, "dim_g_ab": 1, "dim_b_der": 1}


@pytest.mark.parametrize(
    "scenario, named",
    [
        ({"mode": "partition", "op": "theta", "partition": [2.7, 1]}, "each partition part"),
        ({"mode": "partition", "op": "conjugate", "partition": [3, True]}, "each partition part"),
        ({"mode": "taylor", "op": "threshold", "q": "2", "n": 2}, "'q'"),
        ({"mode": "taylor", "op": "threshold", "q": 2, "n": 2.7}, "'n'"),
        ({"mode": "taylor", "op": "coprime", "ell": True, "q": 2, "n": 2}, "'ell'"),
        (dict(_LEDGER, deg_F=1.9), "'deg_F'"),
        (dict(_LEDGER, places=[dict(_PLACES[0], local_degree=True), _PLACES[1]]),
         "'local_degree'"),
        (dict(_LEDGER, places=[dict(_PLACES[0], delta=0.5), _PLACES[1]]), "'delta'"),
        (dict(_LEDGER, lie={"gn": 2.0}), "'gn'"),
        (dict(_LEDGER, lie=dict(_DIMS, dim_g="4")), "'dim_g'"),
        (dict(_LEDGER, lie=dict(_DIMS, dim_b_der=1.0)), "'dim_b_der'"),
        ({"mode": "density", "gamma": "S3", "subgroup": [1.0], "k": 1}, "each subgroup generator"),
        (_cyclic(2.0), "'order'"),
        (_involution(True), "'n'"),
        ({"mode": "density", "gamma": {"type": "cyclic", "n": 2.9}, "k": 1}, "'n'"),
        ({"mode": "density", "gamma": {"type": "elementary_abelian_2", "k": "2"}, "k": 1},
         "'k'"),
        ({"mode": "density", "gamma": {"type": "symmetric", "n": True}, "k": 1}, "'n'"),
    ],
)
def test_non_integer_payload_value_exits_two_and_names_the_key(
    tmp_path, capsys, scenario, named
):
    good = {"mode": "partition", "op": "conjugate", "partition": "3,1"}
    path = _write(tmp_path, [good, scenario])
    assert run_scenario(path) == EXIT_INVALID
    reports = _last_json(capsys)
    assert reports[0]["ok"] is True and reports[0]["verdicts"]["conjugate"] == "2,1,1"
    assert reports[1]["invalid"] is True
    assert f"{named} must be an integer" in reports[1]["error"]


_LEDGER_DUAL = dict(_LEDGER, h0_global=0, h0_global_dual=0, h0_locals=[0, 0])


@pytest.mark.parametrize(
    "scenario, named",
    [
        ({"mode": "partition", "op": "verify-lemma", "n": True}, "'n'"),
        (dict(_LEDGER_DUAL, h0_locals=["0", 0.9, 0, "1", 1.5]), "'h0_locals'"),
        (dict(_LEDGER_DUAL, h0_locals=5), "'h0_locals'"),
        (dict(_LEDGER_DUAL, h0_locals=[[1], 0]), "'h0_locals'"),
        (dict(_LEDGER, places=[_PLACES[0], dict(_PLACES[1], h0_local=1.5)]), "'h0_local'"),
        (dict(_LEDGER, degrees_complete="false"), "'degrees_complete'"),
        (dict(_LEDGER, degrees_complete=0), "'degrees_complete'"),
        (dict(_LEDGER, places={"kind": "arch"}), "'places'"),
        (dict(_LEDGER, lie=dict(_DIMS, dim_z=1.0)), "'dim_z'"),
    ],
)
def test_strict_ledger_and_partition_keys_exit_two_and_name_the_key(
    tmp_path, capsys, scenario, named
):
    # an integer h0_local and a boolean degrees_complete are still accepted
    places = [_PLACES[0], dict(_PLACES[1], h0_local=0)]
    good = dict(_LEDGER, places=places, degrees_complete=False, h0_global=0)
    path = _write(tmp_path, [good, scenario])
    assert run_scenario(path) == EXIT_INVALID
    good, bad = _last_json(capsys)
    assert good["ok"] is True and good["verdicts"]["dual_selmer"]["vanishes"] is True
    assert bad["invalid"] is True and named in bad["error"]


def test_place_count_past_the_budget_exits_two_before_any_place_is_built(
    tmp_path, capsys, monkeypatch
):
    from defring_audit import ledger

    def no_place(*args, **kwargs):
        raise AssertionError("a place was built")

    for name in ("PlaceSpec", "min_place", "sm_place", "arch_place"):
        monkeypatch.setattr(ledger, name, no_place)
    limit = limits.MAX_PLACES
    gn = {"mode": "gn-audit", "n": 2, "deg_F": 1, "s_count": limit - 1, "ell_degrees": [1]}
    many = dict(_LEDGER, places=[_PLACES[1]] * (limit + 1))
    path = _write(tmp_path, [gn, many])
    assert run_scenario(path) == EXIT_INVALID
    for report in _last_json(capsys):
        assert report["invalid"] is True
        assert f"{limit + 1} places exceed MAX_PLACES = {limit}" == report["error"]


def test_place_count_at_the_budget_is_admitted():
    # the benchmark, acceptance and the sweep script use at most 9 places
    limit = limits.MAX_PLACES
    assert limit >= 9
    _, diag, ok = gn_audit(1, 1, limit - 2, [1])
    assert ok and diag["s_ell_count"] == limit


def test_integer_partition_list_and_string_parse_alike():
    as_list = run_scenario_obj({"mode": "partition", "op": "theta", "partition": [2, 1]})
    as_text = run_scenario_obj({"mode": "partition", "op": "theta", "partition": "2,1"})
    assert as_list["verdicts"] == as_text["verdicts"] == {"input": "2,1", "theta": "2,1"}


# modules an import of the package must not load: thread machinery, and
# dataclasses with the source-inspection modules it pulls in (~8 ms cold)
_FORBIDDEN_AT_IMPORT = (
    "concurrent.futures", "logging", "threading",
    "dataclasses", "inspect", "ast", "dis", "tokenize",
)


def _modules_added_by(statement: str) -> list[str]:
    """The modules that ``statement`` adds to sys.modules in a fresh interpreter."""
    code = (
        f"import json, sys; before = set(sys.modules); {statement}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _forbidden_modules_loaded_by(statement: str) -> list[str]:
    return sorted(set(_FORBIDDEN_AT_IMPORT) & set(_modules_added_by(statement)))


def test_importing_the_cli_starts_no_thread_machinery():
    assert _forbidden_modules_loaded_by("import defring_audit.cli") == []


def test_importing_the_library_starts_no_thread_machinery():
    # the library-scan entry imports these layers without the CLI
    assert _forbidden_modules_loaded_by("from defring_audit import density, ff, taylor") == []


def test_importing_the_package_loads_no_layer():
    added = _modules_added_by("import defring_audit")
    assert "defring_audit" in added
    assert [name for name in added if name.startswith("defring_audit.")] == []


_LAYERS = sorted(
    p.stem for p in (Path(__file__).resolve().parent.parent / "src" / "defring_audit").glob("*.py")
    if p.stem != "__init__"
)


@pytest.mark.parametrize("layer", _LAYERS)
def test_each_layer_imports_alone_in_a_fresh_interpreter(layer):
    assert f"defring_audit.{layer}" in _modules_added_by(f"import defring_audit.{layer}")


def test_the_worked_gn_audit_criterion_runs_without_the_cli():
    # c06 takes the rank-n preset from ledger, not from the front door
    added = _modules_added_by(
        "from defring_audit import acceptance; assert acceptance.run_criterion('c06').ok"
    )
    assert "defring_audit.ledger" in added
    assert "defring_audit.cli" not in added


# ---------------------------------------------------------------------------
# gn-audit
# ---------------------------------------------------------------------------


def test_gn_audit_worked_example():
    v, _, ok = gn_audit(2, 2, 1, [1, 1])
    assert v["gamma"] == 30
    assert v["r0"] == 24
    assert v["gen_I"] == 6
    assert v["smooth"] is True
    assert v["unframed_dim"] == 6
    assert v["dual_selmer"]["vanishes"] is True
    assert v["r0_identity"] == {"expected": 24, "ok": True}
    assert ok


def test_gn_audit_minimal_instance():
    v, _, ok = gn_audit(1, 1, 0, [1])
    assert v["smooth"] is True
    assert ok


def test_gn_audit_larger_instance_margin_zero():
    v, _, _ = gn_audit(3, 2, 2, [2])
    assert v["margin"] == 0 and v["smooth"] and v["dual_selmer"]["vanishes"]
    # s_ell = 2 + 1 + 2 = 5
    assert v["r0"] == (9 + 1) * 5 - 1


def test_gn_audit_rejects_degree_mismatch():
    with pytest.raises(ScenarioError):
        gn_audit(2, 2, 1, [1, 2])


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def test_main_partition_conjugate(capsys):
    assert main(["partition", "conjugate", "3,1"]) == EXIT_OK
    report = _last_json(capsys)
    assert report["verdicts"]["conjugate"] == "2,1,1"


def test_main_partition_theta(capsys):
    assert main(["partition", "theta", "2,2"]) == EXIT_OK
    assert _last_json(capsys)["verdicts"]["theta"] == "2,2"


def test_main_gn_audit(capsys):
    rc = main(["gn-audit", "--n", "2", "--degF", "2", "--s", "1", "--ell", "1,1"])
    assert rc == EXIT_OK
    assert _last_json(capsys)["verdicts"]["gamma"] == 30


def test_main_cohom_cyclic(capsys):
    sigma = json.dumps({"p": 3, "m": 1, "rows": [[1, 0], [0, 2]]})
    assert main(["cohom", "cyclic", "--order", "2", "--sigma", sigma]) == EXIT_OK
    v = _last_json(capsys)["verdicts"]
    assert v == {"h0": 1, "h1": 0, "h2": 0, "z1": 1}


def test_main_cohom_involution(capsys):
    assert main(["cohom", "involution", "--n", "3", "--J", "antidiag", "--p", "7"]) == EXIT_OK
    assert _last_json(capsys)["verdicts"]["minus_eigenspace_dim"] == 6


def test_main_taylor_check_type(capsys):
    matrix = json.dumps({"p": 5, "m": 1, "rows": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]})
    assert main(["taylor", "check-type", "--matrix", matrix]) == EXIT_OK
    v = _last_json(capsys)["verdicts"]
    assert v["type_partition"] == "3,1" and v["one_condition"] is True


def test_main_taylor_check_type_non_unipotent_is_invalid(capsys):
    matrix = json.dumps({"p": 5, "m": 1, "rows": [[2, 0], [0, 1]]})
    assert main(["taylor", "check-type", "--matrix", matrix]) == EXIT_INVALID
    capsys.readouterr()


def test_main_density_with_cycle_subgroup(capsys):
    assert main(["density", "--gamma", "S3", "--subgroup", "(12)", "--k", "2"]) == EXIT_OK
    v = _last_json(capsys)["verdicts"]
    assert v["holds"] is True and v["witness_count"] == 36


def test_main_bad_matrix_json_is_invalid(capsys):
    assert main(["cohom", "cyclic", "--order", "2", "--sigma", "{oops"]) == EXIT_INVALID
    capsys.readouterr()


def test_main_verify_all_smoke(capsys):
    assert main(["verify-all", "--max-n", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 12


# one (argv, equivalent scenario) pair for every payload subcommand
_SIGMA = {"p": 3, "m": 1, "rows": [[1, 0], [0, 2]]}
_J = {"p": 5, "m": 1, "rows": [[0, 1], [4, 0]]}
_UNIPOTENT = {"p": 5, "m": 1, "rows": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}
_SUBCOMMAND_CASES = {
    ("partition", "conjugate"): (
        ["partition", "conjugate", "4,2,1"],
        {"mode": "partition", "op": "conjugate", "partition": "4,2,1"}),
    ("partition", "theta"): (
        ["partition", "theta", "3,1", "--p", "3", "--m", "2"],
        {"mode": "partition", "op": "theta", "partition": "3,1", "p": 3, "m": 2}),
    ("partition", "verify-lemma"): (
        ["partition", "verify-lemma", "--n", "6"],
        {"mode": "partition", "op": "verify-lemma", "n": 6}),
    ("cohom", "cyclic"): (
        ["cohom", "cyclic", "--order", "2", "--sigma", json.dumps(_SIGMA)],
        {"mode": "cohomology", "op": "cyclic", "order": 2, "sigma": _SIGMA}),
    ("cohom", "involution"): (
        ["cohom", "involution", "--n", "2", "--J", json.dumps(_J)],
        {"mode": "cohomology", "op": "involution", "n": 2, "J": _J}),
    ("taylor", "threshold"): (
        ["taylor", "threshold", "--q", "3", "--n", "2"],
        {"mode": "taylor", "op": "threshold", "q": 3, "n": 2}),
    ("taylor", "check-type"): (
        ["taylor", "check-type", "--matrix", json.dumps(_UNIPOTENT)],
        {"mode": "taylor", "op": "check-type", "matrix": _UNIPOTENT}),
    ("density", None): (
        ["density", "--gamma", "S3", "--subgroup", "(123)", "--k", "1"],
        {"mode": "density", "gamma": "S3", "subgroup": "(123)", "k": 1}),
    ("gn-audit", None): (
        ["gn-audit", "--n", "3", "--degF", "2", "--s", "2", "--ell", "2"],
        {"mode": "gn-audit", "n": 3, "deg_F": 2, "s_count": 2, "ell_degrees": [2]}),
}


def _argparse_commands() -> set:
    """(command, subop) for every argparse subcommand but run and verify-all."""
    import argparse

    from defring_audit.cli import _build_parser

    def choices(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        return None

    keys = set()
    for command, parser in choices(_build_parser()).items():
        subops = choices(parser)
        keys |= {(command, s) for s in subops} if subops else {(command, None)}
    return keys - {("run", None), ("verify-all", None)}


def test_subcommand_table_covers_every_argparse_subcommand():
    assert _argparse_commands() == set(_SUBCOMMAND_CASES)


# the flag defaults a subcommand adds to its case's scenario
_DEFAULTS_FILLED_IN = {("cohom", "involution"): {"p": 5, "m": 1}}


@pytest.mark.parametrize("key", list(_SUBCOMMAND_CASES), ids=str)
def test_parsed_flags_are_the_scenario_of_the_subcommand(key):
    from defring_audit.cli import _build_parser, _payload

    argv, scenario = _SUBCOMMAND_CASES[key]
    expected = {**scenario, **_DEFAULTS_FILLED_IN.get(key, {})}
    assert _payload(_build_parser().parse_args(argv)) == expected


def test_renamed_gn_audit_flags_keep_their_metavars_in_the_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gn-audit", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    for flag in ("--degF DEGF", "--s S", "--ell ELL"):
        assert flag in help_text


def test_every_readme_cli_line_exits_zero(capsys):
    import shlex

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("defring-audit ")]
    assert len(lines) >= 10
    for line in lines:
        assert main(shlex.split(line)[1:]) == EXIT_OK, line
    capsys.readouterr()


def _without_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed_s"}


@pytest.mark.parametrize("key", list(_SUBCOMMAND_CASES), ids=str)
def test_subcommand_prints_the_report_of_its_scenario(capsys, key):
    argv, scenario = _SUBCOMMAND_CASES[key]
    expected = run_scenario_obj(scenario)
    assert main(argv) == (EXIT_OK if expected["ok"] else EXIT_MATH_FAIL)
    printed = capsys.readouterr().out
    assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"
    assert _without_elapsed(json.loads(printed)) == _without_elapsed(expected)


def test_gn_audit_out_file_holds_the_printed_report_with_a_measured_time(tmp_path, capsys):
    argv, scenario = _SUBCOMMAND_CASES["gn-audit", None]
    out = tmp_path / "gn.json"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == printed
    report = json.loads(printed)
    assert _without_elapsed(report) == _without_elapsed(run_scenario_obj(scenario))
    assert report["elapsed_s"] > 0


def test_benchmark_tracer_hooks_resolve_once_the_cli_is_imported():
    # the traced launcher imports defring_audit.cli, takes each layer module
    # from sys.modules at that moment and wraps perfbench/tracer.py's WRAPPED
    # names on it; a layer loaded later would read 0 without an error
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    wrapped = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]
    )
    code = (
        "import json, sys\n"
        "import defring_audit.cli\n"
        f"wrapped = {wrapped!r}\n"
        "loaded = {layer: sys.modules.get('defring_audit.' + layer) for layer in wrapped}\n"
        "print(json.dumps({\n"
        "    'unloaded': sorted(layer for layer, mod in loaded.items() if mod is None),\n"
        "    'unresolved': [f'{layer}.{name}' for layer, names in wrapped.items()\n"
        "                   for name in names if loaded[layer] is not None\n"
        "                   and not callable(getattr(loaded[layer], name, None))],\n"
        "}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert "acceptance" in wrapped and "cli" in wrapped
    assert json.loads(proc.stdout) == {"unloaded": [], "unresolved": []}


# ---------------------------------------------------------------------------
# one error boundary: no input ends in a traceback
# ---------------------------------------------------------------------------

_OK_ITEM = {"mode": "taylor", "op": "threshold", "q": 2, "n": 2}


def _batch(bad):
    return json.dumps([_OK_ITEM, bad]).encode()


# (argv with {file} for the scenario file, file bytes or None, what the error names,
# how it ends: "line" a one-line error, "report" an exit-2 batch item, "usage" argparse)
_NO_TRACEBACK_CASES = {
    "non-utf8-file": (
        ["run", "{file}"], b'{"mode": "partition", "op": "conjugate", "partition": "3,1\xff"}',
        "cannot read scenario: 'utf-8' codec can't decode", "line"),
    "deeply-nested-file": (
        ["run", "{file}"], b"[" * 100_000,
        "cannot read scenario: maximum recursion depth", "line"),
    "deeply-nested-sigma": (
        ["cohom", "cyclic", "--order", "2", "--sigma", "[" * 5000], None,
        "bad inline JSON: maximum recursion depth", "line"),
    "5000-digit-integer": (
        ["run", "{file}"],
        b'{"mode": "taylor", "op": "threshold", "q": ' + b"7" * 5000 + b', "n": 1}',
        "cannot read scenario: Exceeds the limit (4300 digits)", "line"),
    "threshold-past-the-bit-budget": (
        ["taylor", "threshold", "--q", "2", "--n", "8"], None, "MAX_THRESHOLD_BITS", "line"),
    "coprime-with-a-huge-q": (
        ["run", "{file}"],
        _batch({"mode": "taylor", "op": "coprime", "ell": 5, "q": 10**4000, "n": 3}),
        "MAX_THRESHOLD_BITS", "report"),
    "gn-audit-3001-digit-n": (
        ["gn-audit", "--n", "1" * 3001, "--degF", "1", "--ell", "1"], None,
        "'n' must be at most MAX_LEDGER_INT", "line"),
    "unwritable-out": (
        ["gn-audit", "--n", "2", "--degF", "1", "--ell", "1", "--out", "{file}/report.json"],
        b"", "cannot write report", "line"),
    "generator-out-of-range": (
        ["density", "--gamma", "Z3", "--subgroup=-1", "--k", "1"], None,
        "generator -1 out of range", "line"),
    "involution-J-not-symmetric": (
        ["cohom", "involution", "--n", "2", "--J", '{"p": 5, "m": 1, "rows": [[3, 1], [4, 0]]}'],
        None, "J must be symmetric or antisymmetric", "line"),
    "theta-160": (
        ["run", "{file}"], _batch({"mode": "partition", "op": "theta", "partition": "160"}),
        "partition of 160 exceeds MAX_PARTITION_N", "report"),
    "conjugate-1e9": (
        ["partition", "conjugate", "1000000000"], None,
        "partition of 1000000000 exceeds MAX_PARTITION_N", "line"),
    "partition-with-underscore": (
        ["run", "{file}"], _batch({"mode": "partition", "op": "conjugate", "partition": "3_0,1"}),
        "cannot parse partition '3_0,1'", "report"),
    "subgroup-generator-with-underscore": (
        ["run", "{file}"], _batch({"mode": "density", "gamma": "Z3", "subgroup": "0_1", "k": 1}),
        "subgroup strings are cycle notation", "report"),
    "ell-with-plus-and-spaces": (
        ["gn-audit", "--n", "2", "--degF", "1", "--ell", " +1 "], None,
        "--ell must be comma-separated integers", "line"),
    "flag-with-underscore": (
        ["gn-audit", "--n", "1_0", "--degF", "1", "--ell", "1"], None,
        "argument --n: invalid int value: '1_0'", "usage"),
    "flag-with-plus-and-spaces": (
        ["density", "--gamma", "S3", "--k", " +3 "], None,
        "argument --k: invalid int value: ' +3 '", "usage"),
    "flag-with-non-ascii-digit": (
        ["partition", "verify-lemma", "--n", "٣"], None,
        "argument --n: invalid int value: '٣'", "usage"),
    "group-name-with-non-ascii-digit": (
        ["density", "--gamma", "S٣", "--subgroup", "(١٢)", "--k", "1"], None,
        "bad gamma spec: unknown group name 'S٣'", "line"),
    "cycle-with-non-ascii-digits": (
        ["density", "--gamma", "S3", "--subgroup", "(١٢)", "--k", "1"], None,
        "bad cycle '١٢' for S3", "line"),
    "batch-group-name-with-non-ascii-digit": (
        ["run", "{file}"], _batch({"mode": "density", "gamma": "S٣", "subgroup": "(١٢)", "k": 1}),
        "bad gamma spec: unknown group name 'S٣'", "report"),
    "batch-cyclic-name-with-non-ascii-digit": (
        ["run", "{file}"], _batch({"mode": "density", "gamma": "Z٢", "k": 1}),
        "bad gamma spec: unknown group name 'Z٢'", "report"),
    "batch-cycle-with-non-ascii-digits": (
        ["run", "{file}"], _batch({"mode": "density", "gamma": "S3", "subgroup": "(١٢)", "k": 1}),
        "bad cycle '١٢' for S3", "report"),
    "point-in-two-cycles": (
        ["density", "--gamma", "S4", "--subgroup", "(12)(12)", "--k", "1"], None,
        "bad cycle notation '(12)(12)': a point lies in two cycles", "line"),
    "batch-point-in-two-cycles": (
        ["run", "{file}"], _batch({"mode": "density", "gamma": "S3", "subgroup": "(123)(1)", "k": 1}),
        "bad cycle notation '(123)(1)': a point lies in two cycles", "report"),
    "verify-all-max-n-past-the-budget": (
        ["verify-all", "--max-n", "40"], None, "MAX_VERIFY_N = 12, got 40", "line"),
    "verify-all-max-n-zero": (
        ["verify-all", "--max-n", "0"], None, "MAX_VERIFY_N = 12, got 0", "line"),
}


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("case", list(_NO_TRACEBACK_CASES))
def test_input_ends_in_exit_two_without_a_traceback(tmp_path, case):
    argv, content, named, ending = _NO_TRACEBACK_CASES[case]
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    argv = [a.replace("{file}", str(path)) for a in argv]
    root = Path(__file__).resolve().parent.parent
    # a fresh process: a RecursionError or a memory blow-up stays in it
    proc = subprocess.run(
        [sys.executable, "-m", "defring_audit.cli", *argv], capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), preexec_fn=_limit_memory,
    )
    out = proc.stdout.decode()
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_INVALID, err[-500:]
    assert "Traceback" not in err
    if ending == "report":
        assert err == ""
        good, bad = json.loads(out)
        assert good["ok"] is True and bad["invalid"] is True and named in bad["error"]
        return
    assert out == ""
    if ending == "usage":
        assert err.splitlines()[-1].endswith(named)
    else:
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err


def test_a_handler_error_becomes_a_report_with_its_message(monkeypatch):
    from defring_audit import taylor

    for exc in (ValueError("bad q"), TypeError("bad q")):
        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(taylor, "taylor_threshold", fail)
        with pytest.raises(ScenarioError, match="^bad q$"):
            run_scenario_obj(_OK_ITEM)


def test_internal_check_errors_are_not_caught(monkeypatch):
    from defring_audit import taylor
    from defring_audit.ff import InternalCheckError

    def broken(*args):
        raise InternalCheckError("invariant broken")

    monkeypatch.setattr(taylor, "taylor_threshold", broken)
    with pytest.raises(InternalCheckError):
        run_scenario_obj(_OK_ITEM)


def test_partition_size_budget(monkeypatch):
    from defring_audit import partitions

    limit = limits.MAX_PARTITION_N
    assert limit >= 12  # the benchmark's theta items stop at n = 10
    at_limit = run_scenario_obj({"mode": "partition", "op": "conjugate", "partition": [limit]})
    assert at_limit["verdicts"]["conjugate"] == ",".join(["1"] * limit)

    def no_theta(*args):
        raise AssertionError("theta ran")

    monkeypatch.setattr(partitions, "theta", no_theta)
    for partition in ([limit, 1], f"{limit + 1}", [1] * (limit + 1)):
        with pytest.raises(ScenarioError, match=f"exceeds MAX_PARTITION_N = {limit}"):
            run_scenario_obj({"mode": "partition", "op": "theta", "partition": partition})


_PAST = limits.MAX_LEDGER_INT + 1
_GN = {"mode": "gn-audit", "n": 2, "deg_F": 1, "s_count": 1, "ell_degrees": [1]}


@pytest.mark.parametrize(
    "scenario, named",
    [
        (dict(_LEDGER, lie={"gn": _PAST}), "'gn'"),
        *((dict(_LEDGER, lie=dict(_DIMS, **{key: _PAST})), repr(key))
          for key in ("dim_g", "dim_g_der", "dim_g_ab", "dim_b_der", "dim_z")),
        (dict(_LEDGER, deg_F=_PAST), "'deg_F'"),
        (dict(_LEDGER, places=[dict(_PLACES[0], local_degree=_PAST), _PLACES[1]]),
         "'local_degree'"),
        (dict(_LEDGER, places=[dict(_PLACES[0], delta=_PAST), _PLACES[1]]), "'delta'"),
        (dict(_LEDGER, places=[_PLACES[0], dict(_PLACES[1], h0_local=_PAST)]), "'h0_local'"),
        (dict(_LEDGER_DUAL, h0_locals=[0, _PAST]), "each 'h0_locals' entry"),
        (dict(_LEDGER_DUAL, h0_global=_PAST), "'h0_global'"),
        (dict(_LEDGER_DUAL, h0_global_dual=_PAST), "'h0_global_dual'"),
        (dict(_GN, n=_PAST), "'n'"),
        (dict(_GN, deg_F=_PAST), "'deg_F'"),
        (dict(_GN, s_count=_PAST), "'s_count'"),
        (dict(_GN, ell_degrees=[_PAST]), "each 'ell_degrees' entry"),
    ],
)
def test_ledger_integer_past_its_budget_exits_two_and_names_the_key(
    tmp_path, capsys, scenario, named
):
    path = _write(tmp_path, [_GN, scenario])
    assert run_scenario(path) == EXIT_INVALID
    good, bad = _last_json(capsys)
    assert good["ok"] is True and bad["invalid"] is True
    assert f"{named} must be at most MAX_LEDGER_INT = {limits.MAX_LEDGER_INT}" in bad["error"]


def test_ledger_integers_at_their_budget_are_admitted():
    limit = limits.MAX_LEDGER_INT
    report = run_scenario_obj(dict(_GN, n=limit))
    assert report["verdicts"]["r0_identity"]["ok"] is True
    assert len(str(report["verdicts"]["gamma"])) < 100


@pytest.mark.parametrize("gamma, subgroup", [("S3", "(12)"), ("s3", "( 1 2 )"), ("Z2", "1")])
def test_ascii_group_names_and_cycles_are_read_as_before(capsys, gamma, subgroup):
    assert main(["density", "--gamma", gamma, "--subgroup", subgroup, "--k", "1"]) == EXIT_OK
    report = _last_json(capsys)
    assert report["diagnostics"]["subgroup_order"] == 2
    assert report["diagnostics"]["gamma_order"] == (6 if gamma.lower() == "s3" else 2)


def test_verify_all_max_n_is_checked_before_any_criterion(monkeypatch, capsys):
    limit = limits.MAX_VERIFY_N
    assert limit == 12  # the cap of verify_conjugation_lemma
    ran = []
    monkeypatch.setattr(acceptance, "run_all", lambda max_n, seed: ran.append(max_n) or [])
    for max_n in (0, -1, limit + 1, 10**6):
        assert main(["verify-all", "--max-n", str(max_n)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: --max-n must satisfy 1 <= max-n <= MAX_VERIFY_N = {limit}, got {max_n}\n"
        )
    assert ran == []
    for max_n in (1, limit):
        assert main(["verify-all", "--max-n", str(max_n)]) == EXIT_OK
    assert ran == [1, limit]
    capsys.readouterr()


def test_cycles_are_read_for_s_n_however_gamma_is_given(tmp_path, capsys):
    # S_n is recognised from the built group, so a dict spec reads cycles as
    # the name does; cyclic and product groups still refuse them
    refused = "subgroup strings are cycle notation for S_n or integer generators"
    batch = [
        {"mode": "density", "gamma": {"type": "symmetric", "n": 3}, "subgroup": "(12)", "k": 1},
        {"mode": "density", "gamma": "S3", "subgroup": "(12)", "k": 1},
        {"mode": "density", "gamma": {"type": "symmetric", "n": 4}, "subgroup": "(12),(34)",
         "k": 1},
        {"mode": "density", "gamma": {"type": "cyclic", "n": 3}, "subgroup": "(12)", "k": 1},
        {"mode": "density", "gamma": {"type": "product", "factors": ["S3", "Z2"]},
         "subgroup": "(12)", "k": 1},
    ]
    assert run_scenario(_write(tmp_path, batch)) == EXIT_INVALID
    dict_s3, named_s3, dict_s4, cyclic, product = _last_json(capsys)
    assert dict_s3["ok"] is True and dict_s3["verdicts"]["density"] == "3/4"
    assert dict_s3["verdicts"] == named_s3["verdicts"]
    assert dict_s3["diagnostics"] == named_s3["diagnostics"]
    assert dict_s4["ok"] is True and dict_s4["diagnostics"]["subgroup_order"] == 4
    assert cyclic == {"error": refused, "invalid": True, "ok": False}
    assert product == {"error": refused, "invalid": True, "ok": False}


def test_the_verify_cap_is_the_lemma_cap(capsys):
    from defring_audit import partitions

    assert limits.MAX_VERIFY_N == partitions.MAX_VERIFY_N == 12
    with pytest.raises(
        ValueError, match=r"^lemma verification supports 1 <= n <= 12 \(MAX_VERIFY_N = 12\)$"
    ):
        partitions.verify_conjugation_lemma(partitions.MAX_VERIFY_N + 1)
    assert main(["verify-all", "--max-n", "13"]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: --max-n must satisfy 1 <= max-n <= MAX_VERIFY_N = 12, got 13\n"
    )


# ---------------------------------------------------------------------------
# refusals and failed checks that scenarios reach: each exact line and exit code
# ---------------------------------------------------------------------------

_LEDGER_ARCH = {
    "mode": "ledger", "lie": {"gn": 2}, "deg_F": 1,
    "places": [{"kind": "S", "condition": "min"},
               {"kind": "ell", "condition": "sm", "local_degree": 1}, {"kind": "arch"}],
}


def _theta_over(**field):
    return {"mode": "partition", "op": "theta", "partition": "2,1", **field}


def _density_of(gamma, subgroup="trivial"):
    return {"mode": "density", "gamma": gamma, "subgroup": subgroup, "k": 1}


def _check_type(rows):
    return {"mode": "taylor", "op": "check-type", "matrix": {"p": 5, "rows": rows}}


def _coprime(ell):
    return {"mode": "taylor", "op": "coprime", "ell": ell, "q": 2, "n": 2}


# (scenario, exit code, path to the line in the report, the line)
_REPORTED_LINES = {
    "coprime-fails": (_coprime(3), EXIT_MATH_FAIL,
                      ("diagnostics", "violated"), "gcd(ell, q^(n!)-1) = 1"),
    "coprime-holds": (_coprime(5), EXIT_OK, ("verdicts", "coprime"), True),
    "dual-selmer-fails": (
        dict(_LEDGER_ARCH, h0_global_dual=1, h0_locals=[0, 0, 1]), EXIT_MATH_FAIL,
        ("diagnostics", "violated_dual"), "dual-Selmer dimension must vanish"),
    "h0-locals-misaligned": (
        dict(_LEDGER_ARCH, h0_locals=[0, 0]), EXIT_INVALID,
        ("error",), "h0_locals must align with the setting's places"),
    "gn-zero": (
        dict(_LEDGER_ARCH, lie={"gn": 0}), EXIT_INVALID, ("error",), "n must be >= 1"),
    "place-without-kind": (
        dict(_LEDGER_ARCH, places=[{"condition": "min"}]), EXIT_INVALID,
        ("error",), "each place needs at least a 'kind'"),
    "gn-audit-n-zero": (
        {"mode": "gn-audit", "n": 0, "deg_F": 1, "ell_degrees": [1]}, EXIT_INVALID,
        ("error",), "need n >= 1, deg_F >= 1, s_count >= 0"),
    "gn-audit-ell-degree-zero": (
        {"mode": "gn-audit", "n": 2, "deg_F": 2, "ell_degrees": [0, 2]}, EXIT_INVALID,
        ("error",), "each ell degree must be >= 1"),
    "gn-audit-ell-degrees-string": (
        {"mode": "gn-audit", "n": 2, "deg_F": 1, "ell_degrees": "1"}, EXIT_INVALID,
        ("error",), "'ell_degrees' must be a list, got '1'"),
    "gamma-trivial-spec": (
        _density_of({"type": "trivial"}), EXIT_OK, ("verdicts", "density"), "3/4"),
    "gamma-empty-product": (
        _density_of({"type": "product", "factors": []}), EXIT_INVALID,
        ("error",), "bad gamma spec: product needs at least one factor"),
    "gamma-unknown-constructor": (
        _density_of({"type": "bogus"}), EXIT_INVALID,
        ("error",), "bad gamma spec: unknown group constructor 'bogus'"),
    "subgroup-generator-out-of-range": (
        _density_of("S3", [99]), EXIT_INVALID,
        ("error",), "bad subgroup generators: generator 99 out of range"),
    "subgroup-cycles-without-parentheses": (
        _density_of("S3", "12"), EXIT_INVALID, ("error",), "bad cycle notation '12'"),
    "subgroup-integer": (
        _density_of("S3", 5), EXIT_INVALID,
        ("error",), "subgroup must be 'trivial', 'full', generators or cycles"),
    "field-degree-zero": (
        _theta_over(p=5, m=0), EXIT_INVALID,
        ("error",), "bad field spec: extension degree must be >= 1"),
    "field-composite-p": (
        _theta_over(p=4, m=2), EXIT_INVALID, ("error",), "bad field spec: 4 is not prime"),
    "matrix-ragged-rows": (
        {"mode": "cohomology", "op": "cyclic", "order": 2,
         "sigma": {"p": 5, "rows": [[1, 0], [0]]}}, EXIT_INVALID,
        ("error",), "bad matrix: ragged rows"),
    "check-type-non-square": (
        _check_type([[1, 0]]), EXIT_INVALID,
        ("error",), "kernel sequence needs a nonempty square matrix"),
    "check-type-empty": (
        _check_type([]), EXIT_INVALID,
        ("error",), "kernel sequence needs a nonempty square matrix"),
}


@pytest.mark.parametrize("case", list(_REPORTED_LINES))
def test_scenario_reports_its_exact_line_and_exit_code(tmp_path, capsys, case):
    scenario, code, path, line = _REPORTED_LINES[case]
    assert main(["run", _write(tmp_path, scenario)]) == code
    report = _last_json(capsys)
    for key in path:
        report = report[key]
    assert report == line


def test_a_batch_item_that_is_no_object_is_reported_invalid(tmp_path, capsys):
    assert main(["run", _write(tmp_path, [_OK_ITEM, 1])]) == EXIT_INVALID
    first, second = _last_json(capsys)
    assert first["ok"] is True
    assert second == {"error": "a scenario must be a JSON object", "ok": False, "invalid": True}


# ---------------------------------------------------------------------------
# scenario mutator: every mutation of a valid scenario ends in a report or a
# ScenarioError, never in another exception
# ---------------------------------------------------------------------------

_MUTATION_SEEDS = [scenario for _argv, scenario in _SUBCOMMAND_CASES.values()] + [
    _LEDGER,
    {"mode": "ledger", "lie": _DIMS, "deg_F": 1, "places": _PLACES},
    {"mode": "taylor", "op": "coprime", "ell": 5, "q": 2, "n": 2},
    {"mode": "density", "gamma": {"type": "product", "factors": ["S3", "Z2"]}, "k": 2},
]
_ODD_VALUES = [None, True, False, 2.5, "", "x", "3,1", -1, 0, 10**30, -(10**30), 2**64,
               [], {}, [[1]], [[[0]]], {"p": 2}, "Z2", {"type": "cyclic"}]


def _paths(obj, prefix=()):
    """The path of every value nested in ``obj``, ``obj`` itself first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(scenario, data) -> None:
    """Apply one drawn mutation to a value nested in ``scenario``, in place."""
    path = data.draw(st.sampled_from(list(_paths(scenario))[1:]))
    parent = scenario
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kind = data.draw(st.sampled_from(["odd", "drop", "wrap", "nest", "swap"]))
    if kind == "drop":
        del parent[key]
    elif kind == "odd":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES)))
    elif kind == "wrap":
        parent[key] = [value]
    elif kind == "nest":
        parent[key] = [[value, copy.deepcopy(value)]]
    elif isinstance(value, int) and not isinstance(value, bool):
        parent[key] = data.draw(st.sampled_from([str(value), float(value), -value, value * 10**25]))
    else:
        parent[key] = data.draw(st.sampled_from([len(str(value)), str(value), json.dumps(value)]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_scenarios_end_in_a_report_or_a_scenario_error(data):
    scenario = copy.deepcopy(data.draw(st.sampled_from(_MUTATION_SEEDS)))
    for _ in range(data.draw(st.integers(1, 3))):
        if len(list(_paths(scenario))) > 1:
            _mutate(scenario, data)
    try:
        report = run_scenario_obj(scenario)
    except ScenarioError:
        return
    assert isinstance(report["ok"], bool) and report["mode"] == scenario["mode"]
