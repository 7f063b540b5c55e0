import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring_audit import ledger
from defring_audit.ledger import (
    DeformationSetting,
    LieDims,
    PlaceSpec,
    arch_place,
    crys_place,
    dual_selmer_verdict,
    expected_local_dim,
    framework_check,
    gn_dims,
    min_place,
    r0,
    sm_place,
    taylor_wiles_sum,
    unrestricted_s_place,
)


def _gn_setting(n, deg_f, s_count, ell_degrees, deltas=None, arch_count=None):
    deltas = deltas or [0] * len(ell_degrees)
    arch_count = deg_f if arch_count is None else arch_count
    places = (
        [min_place() for _ in range(s_count)]
        + [sm_place(d, delta) for d, delta in zip(ell_degrees, deltas)]
        + [arch_place() for _ in range(arch_count)]
    )
    return DeformationSetting(gn_dims(n), deg_f, tuple(places))


# ---------------------------------------------------------------------------
# Lie dimensions
# ---------------------------------------------------------------------------


def test_gn_dims_values():
    assert gn_dims(2) == LieDims(5, 4, 1, 3, 1)
    assert gn_dims(1) == LieDims(2, 1, 1, 1, 1)
    assert gn_dims(3) == LieDims(10, 9, 1, 6, 1)


def test_lie_dims_validation():
    with pytest.raises(ValueError):
        LieDims(5, 4, 2, 3)  # g != g_der + g_ab
    with pytest.raises(ValueError):
        LieDims(5, 4, 1, 5)  # b_der > g_der
    with pytest.raises(ValueError):
        LieDims(5, 4, 1, 3, dim_z=2)  # conflicting center
    assert LieDims(5, 4, 1, 3).dim_z == 1


def test_place_spec_validation():
    with pytest.raises(ValueError):
        PlaceSpec("ell", "min", local_degree=1)
    with pytest.raises(ValueError):
        PlaceSpec("S", "sm")
    with pytest.raises(ValueError):
        PlaceSpec("arch", "crys")
    with pytest.raises(ValueError):
        PlaceSpec("ell", "sm", local_degree=0)
    with pytest.raises(ValueError):
        PlaceSpec("S", "min", local_degree=1)
    with pytest.raises(ValueError):
        PlaceSpec("ell", "crys", local_degree=1, delta=1)


@pytest.mark.parametrize("condition, line", [
    ("min", "condition 'min' only applies at S-places"),
    ("sm", "condition 'sm' only applies at ell-places"),
    ("crys", "condition 'crys' only applies at ell-places"),
])
def test_an_archimedean_place_is_unrestricted_by_the_checks_on_conditions(condition, line):
    with pytest.raises(ValueError) as exc:
        PlaceSpec("arch", condition)
    assert str(exc.value) == line
    assert PlaceSpec("arch").condition == "unrestricted"


def test_setting_requires_complete_degrees():
    with pytest.raises(ValueError):
        DeformationSetting(gn_dims(2), 2, (min_place(), sm_place(1), arch_place()))
    # opting out of the flag admits the same data
    s = DeformationSetting(
        gn_dims(2), 2, (min_place(), sm_place(1), arch_place()), degrees_complete=False
    )
    assert s.s_ell_count == 3


# ---------------------------------------------------------------------------
# local dimensions
# ---------------------------------------------------------------------------


def test_expected_local_dims_for_gn2():
    lie = gn_dims(2)
    assert expected_local_dim(lie, crys_place(1)) == 5  # 4 + (4-3)*1
    assert expected_local_dim(lie, min_place()) == 4
    assert expected_local_dim(lie, arch_place()) == 3
    assert expected_local_dim(lie, sm_place(1)) == 8
    assert expected_local_dim(lie, sm_place(1, delta=2)) == 6
    assert expected_local_dim(lie, unrestricted_s_place()) == 4


def test_expected_local_dim_rejects_unrestricted_ell():
    with pytest.raises(ValueError):
        expected_local_dim(gn_dims(2), PlaceSpec("ell", "unrestricted", local_degree=1))


def test_crys_minus_min_gap():
    # crys at degree d exceeds min by d * n(n-1)/2
    for n in range(1, 5):
        lie = gn_dims(n)
        for d in range(1, 4):
            gap = expected_local_dim(lie, crys_place(d)) - expected_local_dim(lie, min_place())
            assert gap == d * n * (n - 1) // 2


# ---------------------------------------------------------------------------
# r0, gamma, framework
# ---------------------------------------------------------------------------


def test_r0_examples():
    assert r0(gn_dims(2), 5) == 24
    assert r0(gn_dims(1), 1) == 1
    for n in range(1, 7):
        for k in range(1, 11):
            assert r0(gn_dims(n), k) == (n * n + 1) * k - 1


def test_gamma_worked_example():
    assert framework_check(_gn_setting(2, 2, 1, [1, 1])).gamma == 30


def test_gamma_with_deltas():
    assert framework_check(_gn_setting(2, 2, 1, [1, 1], deltas=[1, 0])).gamma == 29


def test_gamma_minimal_example():
    assert framework_check(_gn_setting(1, 1, 0, [1])).gamma == 4


def test_gamma_flags_inconsistent_arch_count():
    bad = DeformationSetting(
        gn_dims(2), 2, (min_place(), sm_place(1), sm_place(1), arch_place())
    )
    with pytest.raises(ValueError, match="mismatch"):
        framework_check(bad)


def test_gamma_requires_part1_conditions():
    s = DeformationSetting(
        gn_dims(2), 2,
        (unrestricted_s_place(), sm_place(1), sm_place(1), arch_place(), arch_place()),
    )
    with pytest.raises(ValueError):
        framework_check(s)
    s2 = DeformationSetting(
        gn_dims(2), 2,
        (min_place(), crys_place(1), sm_place(1), arch_place(), arch_place()),
    )
    with pytest.raises(ValueError):
        framework_check(s2)


def test_framework_check_computes_each_place_dimension_once(monkeypatch):
    calls = []
    expected = ledger.expected_local_dim

    def counted(lie, place):
        calls.append(place)
        return expected(lie, place)

    monkeypatch.setattr(ledger, "expected_local_dim", counted)
    setting = _gn_setting(2, 2, 1, [1, 1])
    assert framework_check(setting).gamma == 30
    assert calls == list(setting.places)


def test_framework_check_worked_example():
    v = framework_check(_gn_setting(2, 2, 1, [1, 1]))
    assert (v.gamma, v.r0, v.gen_I, v.gen_bound) == (30, 24, 6, 6)
    assert v.margin == 0 and v.smooth
    assert v.unframed_dim == 6
    assert len(v.diagnostics) == 5
    dims = [row.dim for row in v.diagnostics]
    assert sorted(dims) == [3, 3, 4, 8, 8]


def test_framework_check_with_delta_keeps_zero_margin():
    # delta lowers gamma and gen_I by the same amount
    v = framework_check(_gn_setting(2, 2, 1, [1, 1], deltas=[2, 0]))
    assert v.gamma == 28 and v.gen_I == 4 and v.gen_bound == 4
    assert v.margin == 0 and v.smooth
    assert v.unframed_dim == 4


def test_framework_check_minimal_gn1():
    v = framework_check(_gn_setting(1, 1, 0, [1]))
    assert (v.gamma, v.r0, v.gen_I, v.gen_bound) == (4, 3, 1, 1)
    assert v.smooth and v.margin == 0


def test_framework_check_detects_non_smooth_configuration():
    # one ell degree against two archimedean places starves the bound
    s = DeformationSetting(
        gn_dims(2), 2,
        (sm_place(1), arch_place(), arch_place()),
        degrees_complete=False,
    )
    v = framework_check(s)
    assert v.margin == -1 and not v.smooth


@settings(max_examples=150)
@given(st.data())
def test_random_degrees_complete_settings_have_zero_margin(data):
    n = data.draw(st.integers(1, 4))
    deg_f = data.draw(st.integers(1, 3))
    n_ell = data.draw(st.integers(1, deg_f))
    # composition of deg_f into n_ell positive parts
    if n_ell == 1:
        degrees = [deg_f]
    else:
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, deg_f - 1),
                    min_size=n_ell - 1,
                    max_size=n_ell - 1,
                    unique=True,
                )
            )
        )
        degrees = [b - a for a, b in zip([0] + cuts, cuts + [deg_f])]
    s_count = data.draw(st.integers(0, max(0, 8 - deg_f - n_ell)))
    deltas = [data.draw(st.integers(0, 2)) for _ in degrees]
    setting = _gn_setting(n, deg_f, s_count, degrees, deltas=deltas)
    v = framework_check(setting)
    assert v.margin == 0 and v.smooth
    assert v.gen_bound == deg_f * gn_dims(n).dim_b_der - sum(deltas)


# ---------------------------------------------------------------------------
# Taylor-Wiles sum and Greenberg-Wiles difference
# ---------------------------------------------------------------------------


def test_taylor_wiles_sum_examples():
    assert taylor_wiles_sum(gn_dims(2), 2) == 2
    assert taylor_wiles_sum(gn_dims(3), 1) == 3
    assert taylor_wiles_sum(LieDims(2, 1, 1, 1), 7) == 0


def test_greenberg_wiles_diff_examples():
    # dual_dim = [F:Q] dim b^der - (h0 - h0_dual + sum(dim L_v - h0_v)), where
    # dim L_v - h0_v is 0 at S, [F_v:Q_l] dim g^der at ell and -h0_v at infinity
    setting = DeformationSetting(
        gn_dims(2), 2, (min_place(), sm_place(2), arch_place(), arch_place())
    )
    h0s = [3, 2, 1, 1]  # the difference is h0 - h0_dual + 0 + 2 * 4 - 2
    assert dual_selmer_verdict(setting, 0, 0, h0s) == (True, 0, 6)
    assert dual_selmer_verdict(setting, 0, 2, h0s) == (False, 2, 6)
    assert dual_selmer_verdict(setting, 1, 1, h0s) == (False, 0, 6)
    with pytest.raises(ValueError, match="^negative dual-Selmer dimension"):
        dual_selmer_verdict(setting, 1, 0, h0s)
    # one ell degree against [F:Q] = 3: the difference is 0 + 1 * 2 - 3
    partial = DeformationSetting(
        LieDims(3, 2, 1, 1), 3, (min_place(), sm_place(1), arch_place()),
        degrees_complete=False,
    )
    assert dual_selmer_verdict(partial, 0, 0, [4, 0, 3]) == (False, 4, 3)


# ---------------------------------------------------------------------------
# dual Selmer verdict
# ---------------------------------------------------------------------------


def test_dual_selmer_worked_example():
    setting = _gn_setting(2, 2, 1, [1, 1])
    v = dual_selmer_verdict(setting, 0, 0, [0, 0, 0, 1, 1])
    assert v.vanishes and v.dual_dim == 0 and v.tangent_dim == 6


def test_dual_selmer_nonzero_global_dual():
    setting = _gn_setting(2, 2, 1, [1, 1])
    v = dual_selmer_verdict(setting, 0, 1, [0, 0, 0, 1, 1])
    assert v.dual_dim == 1 and not v.vanishes


def test_dual_selmer_rejects_nonzero_delta():
    setting = _gn_setting(2, 2, 1, [1, 1], deltas=[1, 0])
    with pytest.raises(ValueError, match="delta"):
        dual_selmer_verdict(setting, 0, 0, [0, 0, 0, 1, 1])


def test_dual_selmer_rejects_bad_arch_total():
    setting = _gn_setting(2, 2, 1, [1, 1])
    with pytest.raises(ValueError, match="archimedean"):
        dual_selmer_verdict(setting, 0, 0, [0, 0, 0, 2, 1])


def test_dual_selmer_rejects_negative_h0():
    setting = _gn_setting(2, 2, 1, [1, 1])
    for h0_global, h0_global_dual in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="^global h\\^0 values must be nonnegative$"):
            dual_selmer_verdict(setting, h0_global, h0_global_dual, [0, 0, 0, 1, 1])
    with pytest.raises(ValueError, match="^local h\\^0 values must be nonnegative$"):
        dual_selmer_verdict(setting, 0, 0, [0, -1, 0, 1, 1])


def test_dual_selmer_uses_place_h0_when_not_supplied():
    lie = gn_dims(2)
    places = (
        min_place(h0_local=0),
        sm_place(1, h0_local=0),
        sm_place(1, h0_local=0),
        arch_place(h0_local=1),
        arch_place(h0_local=1),
    )
    setting = DeformationSetting(lie, 2, places)
    v = dual_selmer_verdict(setting, 0, 0)
    assert v.vanishes


def test_dual_selmer_vanishes_for_any_consistent_local_h0():
    # S- and ell-place h^0 values cancel in the assembled difference
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 4)
        deg_f = rng.randint(1, 3)
        setting = _gn_setting(n, deg_f, rng.randint(0, 3), [1] * deg_f)
        lie = gn_dims(n)
        per_arch = lie.dim_g_der - lie.dim_b_der
        h0s = []
        for p in setting.places:
            if p.kind == "arch":
                h0s.append(per_arch)
            else:
                h0s.append(rng.randint(0, 5))
        v = dual_selmer_verdict(setting, 0, 0, h0s)
        assert v.vanishes and v.dual_dim == 0
