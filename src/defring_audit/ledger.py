"""Dimension bookkeeping for deformation-ring smoothness verdicts.

Everything here is exact integer arithmetic over immutable settings.  A
setting records Lie-algebra dimensions together with a list of typed
places (finite away from l, above l, archimedean), each carrying a local
condition.  ``framework_check`` walks the places once: it chains their
relative dimensions into gamma, compares that sum with gamma's closed
form, and bounds the generator count by gamma - r0.  On the dual side,
``dual_selmer_verdict`` sums the Greenberg-Wiles formula into a
dual-Selmer vanishing verdict.  Verdicts carry the full per-place table
so a failed audit can be replayed by hand.  ``audit`` and the rank-n
preset ``gn_audit`` give both checks as a report's
``(verdicts, diagnostics, ok)``, in JSON values only.
"""

from __future__ import annotations

from typing import NamedTuple

from .ff import Record
from .limits import ScenarioError, read_int

KIND_S = "S"
KIND_ELL = "ell"
KIND_ARCH = "arch"

COND_MIN = "min"
COND_SM = "sm"
COND_CRYS = "crys"
COND_UNRESTRICTED = "unrestricted"

_KINDS = (KIND_S, KIND_ELL, KIND_ARCH)
_CONDS = (COND_MIN, COND_SM, COND_CRYS, COND_UNRESTRICTED)


class LieDims(Record):
    """Dimensions of g, g^der, g^ab, b^der and the center z.

    dim_z is derived (dim_g - dim_g_der); supplying a conflicting value
    is a validation error.
    """

    __slots__ = _fields = ("dim_g", "dim_g_der", "dim_g_ab", "dim_b_der", "dim_z")

    def __init__(
        self, dim_g: int, dim_g_der: int, dim_g_ab: int, dim_b_der: int,
        dim_z: int | None = None,
    ):
        if any(v < 0 for v in (dim_g, dim_g_der, dim_g_ab, dim_b_der)):
            raise ValueError("dimensions must be nonnegative")
        if dim_g != dim_g_der + dim_g_ab:
            raise ValueError("dim_g must equal dim_g_der + dim_g_ab")
        if dim_b_der > dim_g_der:
            raise ValueError("dim_b_der cannot exceed dim_g_der")
        derived = dim_g - dim_g_der
        if dim_z is None:
            dim_z = derived
        elif dim_z != derived:
            raise ValueError("dim_z must equal dim_g - dim_g_der")
        self._store(dim_g=dim_g, dim_g_der=dim_g_der, dim_g_ab=dim_g_ab,
                    dim_b_der=dim_b_der, dim_z=dim_z)


def gn_dims(n: int) -> LieDims:
    """Lie dimensions of the rank-n unitary-type group: (n^2+1, n^2, 1, n(n+1)/2, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return LieDims(
        dim_g=n * n + 1,
        dim_g_der=n * n,
        dim_g_ab=1,
        dim_b_der=n * (n + 1) // 2,
    )


class PlaceSpec(Record):
    """A typed place with its local condition.

    kind "S" (finite, prime-to-l), "ell" (above l, with local degree) or
    "arch".  Conditions: min only at S, sm/crys only at ell, delta only
    with sm; archimedean places are always unrestricted.
    """

    __slots__ = _fields = ("kind", "condition", "local_degree", "delta", "h0_local")

    def __init__(
        self, kind: str, condition: str = COND_UNRESTRICTED, local_degree: int = 0,
        delta: int = 0, h0_local: int | None = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown place kind {kind!r}")
        if condition not in _CONDS:
            raise ValueError(f"unknown condition {condition!r}")
        if condition == COND_MIN and kind != KIND_S:
            raise ValueError("condition 'min' only applies at S-places")
        if condition in (COND_SM, COND_CRYS) and kind != KIND_ELL:
            raise ValueError(f"condition {condition!r} only applies at ell-places")
        if kind == KIND_ELL:
            if local_degree < 1:
                raise ValueError("ell-places need a local degree >= 1")
        elif local_degree != 0:
            raise ValueError("only ell-places carry a local degree")
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        if delta and condition != COND_SM:
            raise ValueError("delta is only meaningful for the sm condition")
        if h0_local is not None and h0_local < 0:
            raise ValueError("h0_local must be nonnegative")
        self._store(kind=kind, condition=condition, local_degree=local_degree,
                    delta=delta, h0_local=h0_local)


def min_place(h0_local: int | None = None) -> PlaceSpec:
    return PlaceSpec(KIND_S, COND_MIN, h0_local=h0_local)


def unrestricted_s_place(h0_local: int | None = None) -> PlaceSpec:
    return PlaceSpec(KIND_S, COND_UNRESTRICTED, h0_local=h0_local)


def sm_place(local_degree: int, delta: int = 0, h0_local: int | None = None) -> PlaceSpec:
    return PlaceSpec(KIND_ELL, COND_SM, local_degree, delta, h0_local)


def crys_place(local_degree: int, h0_local: int | None = None) -> PlaceSpec:
    return PlaceSpec(KIND_ELL, COND_CRYS, local_degree, h0_local=h0_local)


def arch_place(h0_local: int | None = None) -> PlaceSpec:
    return PlaceSpec(KIND_ARCH, COND_UNRESTRICTED, h0_local=h0_local)


class DeformationSetting(Record):
    """Lie dimensions + typed places; the input to all global checks."""

    __slots__ = _fields = ("lie", "deg_F", "places", "degrees_complete")

    def __init__(
        self, lie: LieDims, deg_F: int, places: tuple[PlaceSpec, ...],
        degrees_complete: bool = True,
    ):
        places = tuple(places)
        if deg_F < 1:
            raise ValueError("deg_F must be >= 1")
        if not places:
            raise ValueError("at least one place is required")
        if degrees_complete:
            total = sum(p.local_degree for p in places if p.kind == KIND_ELL)
            if total != deg_F:
                raise ValueError(
                    f"degrees-complete setting needs ell degrees summing to deg_F "
                    f"({total} != {deg_F})"
                )
        self._store(lie=lie, deg_F=deg_F, places=places, degrees_complete=degrees_complete)

    @property
    def s_ell_count(self) -> int:
        return len(self.places)

    def sum_delta(self) -> int:
        return sum(p.delta for p in self.places)


def expected_local_dim(lie: LieDims, place: PlaceSpec) -> int:
    """Relative dimension of the framed local ring for the place's condition.

    crys: dim g^der + (dim g^der - dim b^der) * [F_v : Q_l]
    sm:   dim g^der * ([F_v : Q_l] + 1) - delta
    min / unrestricted at S: dim g^der
    arch: dim b^der
    """
    if place.kind == KIND_ARCH:
        return lie.dim_b_der
    if place.kind == KIND_S:
        return lie.dim_g_der
    if place.condition == COND_CRYS:
        return _crys_dim(lie, place.local_degree)
    if place.condition == COND_SM:
        return lie.dim_g_der * (place.local_degree + 1) - place.delta
    raise ValueError("ell-places must carry the sm or crys condition")


def _crys_dim(lie: LieDims, local_degree: int) -> int:
    return lie.dim_g_der + (lie.dim_g_der - lie.dim_b_der) * local_degree


def r0(lie: LieDims, s_ell_count: int) -> int:
    """dim(g) * #S_l - dim(g^ab): the target smooth dimension."""
    if s_ell_count < 1:
        raise ValueError("s_ell_count must be >= 1")
    return lie.dim_g * s_ell_count - lie.dim_g_ab


def taylor_wiles_sum(lie: LieDims, deg_F: int) -> int:
    """[F:Q] * (dim g^der - dim b^der): the required archimedean h^0 total."""
    return deg_F * (lie.dim_g_der - lie.dim_b_der)


def _require_part1_configuration(setting: DeformationSetting) -> None:
    for p in setting.places:
        if p.kind == KIND_S and p.condition != COND_MIN:
            raise ValueError("part-1 configuration needs 'min' at every S-place")
        if p.kind == KIND_ELL and p.condition != COND_SM:
            raise ValueError("part-1 configuration needs 'sm' at every ell-place")


class PlaceDim(NamedTuple):
    index: int
    kind: str
    condition: str
    local_degree: int
    delta: int
    dim: int


class FrameworkVerdict(NamedTuple):
    gamma: int
    r0: int
    gen_bound: int
    gen_I: int
    margin: int
    smooth: bool
    unframed_dim: int
    diagnostics: tuple[PlaceDim, ...]


def framework_check(setting: DeformationSetting) -> FrameworkVerdict:
    """Smoothness verdict for the framed min/sm ring, in one pass over the places.

    gamma, the relative dimension of the framed global ring, is the
    per-place sum
    (#S_l - 1) dim g^ab + d_sm(l) + d_arch(inf) + d_min(S),
    checked against the closed form
    #S_l dim g + [F:Q] dim b^der - dim g^ab - sum(delta).
    When the setting is degrees-complete the two must agree; the closed
    form presumes one archimedean place per real embedding, so a
    disagreement signals inconsistent degree data.

    gen_I = sum over ell-places of (d_sm - d_crys) bounds the number of
    relations; the ring is formally smooth when gen_I <= gamma - r0, and
    in the degrees-complete case both sides equal
    [F:Q] dim b^der - sum(delta), so the margin is exactly zero.
    """
    _require_part1_configuration(setting)
    lie = setting.lie
    count = setting.s_ell_count
    g = (count - 1) * lie.dim_g_ab
    gen_i = 0
    diagnostics = []
    for idx, p in enumerate(setting.places):
        dim = expected_local_dim(lie, p)
        g += dim
        diagnostics.append(
            PlaceDim(idx, p.kind, p.condition, p.local_degree, p.delta, dim)
        )
        if p.kind == KIND_ELL:
            gen_i += dim - _crys_dim(lie, p.local_degree)
    sum_delta = setting.sum_delta()
    closed = count * lie.dim_g + setting.deg_F * lie.dim_b_der - lie.dim_g_ab - sum_delta
    if setting.degrees_complete and g != closed:
        raise ValueError(
            f"gamma mismatch: per-place sum {g} != closed form {closed} "
            f"(inconsistent degree or archimedean-place data)"
        )
    r = r0(lie, count)
    gen_bound = g - r
    margin = gen_bound - gen_i
    return FrameworkVerdict(
        gamma=g,
        r0=r,
        gen_bound=gen_bound,
        gen_I=gen_i,
        margin=margin,
        smooth=gen_i <= gen_bound,
        unframed_dim=setting.deg_F * lie.dim_b_der - sum_delta,
        diagnostics=tuple(diagnostics),
    )


class DualSelmerVerdict(NamedTuple):
    vanishes: bool
    dual_dim: int
    tangent_dim: int


def dual_selmer_verdict(
    setting: DeformationSetting,
    h0_global: int,
    h0_global_dual: int,
    h0_locals=None,
) -> DualSelmerVerdict:
    """Dual-Selmer vanishing verdict for the min/sm system.

    Local conditions are assembled per place: at S, dim L_v = h^0_v; at
    ell-places, dim L_v = h^0_v + [F_v:Q_l] dim g^der; at infinity,
    L_v = 0 with the archimedean h^0 total pinned by the identity
    sum = [F:Q] (dim g^der - dim b^der).  The Greenberg-Wiles difference
    dim H^1_L - dim H^1_{L-perp} = h^0 - h^0_dual + sum(dim L_v - h^0_v)
    then has the terms [F_v:Q_l] dim g^der at ell, -h^0_v at infinity and
    0 at S.  The tangent dimension is [F:Q] dim b^der, and the dual
    dimension is tangent minus that difference.  All delta must vanish.

    ``h0_locals`` is a sequence aligned with ``setting.places``; when
    omitted, each place's ``h0_local`` (default 0) is used.
    """
    _require_part1_configuration(setting)
    lie = setting.lie
    places = setting.places
    if h0_locals is None:
        h0_locals = [p.h0_local or 0 for p in places]
    h0_locals = list(h0_locals)
    if len(h0_locals) != len(places):
        raise ValueError("h0_locals must align with the setting's places")
    if any(h < 0 for h in h0_locals):
        raise ValueError("local h^0 values must be nonnegative")
    if h0_global < 0 or h0_global_dual < 0:
        raise ValueError("global h^0 values must be nonnegative")
    if setting.sum_delta() != 0:
        raise ValueError("dual-Selmer verdict requires every delta to vanish")
    arch_total = sum(h for p, h in zip(places, h0_locals) if p.kind == KIND_ARCH)
    required = taylor_wiles_sum(lie, setting.deg_F)
    if arch_total != required:
        raise ValueError(
            f"archimedean h^0 total {arch_total} violates the required identity "
            f"value {required}"
        )
    ell_degree = sum(p.local_degree for p in places if p.kind == KIND_ELL)
    diff = h0_global - h0_global_dual + ell_degree * lie.dim_g_der - arch_total
    tangent_dim = setting.deg_F * lie.dim_b_der
    dual_dim = tangent_dim - diff
    if dual_dim < 0:
        raise ValueError("negative dual-Selmer dimension: inconsistent inputs")
    return DualSelmerVerdict(
        vanishes=(dual_dim == 0 and h0_global == 0),
        dual_dim=dual_dim,
        tangent_dim=tangent_dim,
    )


def audit(setting: DeformationSetting, h0_global: int, h0_global_dual: int, h0_locals,
          run_dual: bool) -> tuple[dict, dict, bool]:
    """The framework check, and with ``run_dual`` the dual-Selmer verdict, of
    ``setting`` as ``(verdicts, diagnostics, ok)``."""
    verdict = framework_check(setting)
    verdicts = {key: getattr(verdict, key) for key in
                ("gamma", "r0", "gen_I", "gen_bound", "margin", "smooth", "unframed_dim")}
    ok = verdict.smooth
    diag = {"places": [d._asdict() for d in verdict.diagnostics]}
    if not verdict.smooth:
        diag["violated"] = "generator bound gen_I <= gamma - r0"
    if run_dual:
        dual = dual_selmer_verdict(setting, h0_global, h0_global_dual, h0_locals)
        verdicts["dual_selmer"] = dual._asdict()
        ok = ok and dual.vanishes
        if not dual.vanishes:
            diag["violated_dual"] = "dual-Selmer dimension must vanish"
    return verdicts, diag, ok


def gn_audit(n: int, deg_F: int, s_count: int, ell_degrees) -> tuple[dict, dict, bool]:
    """Build the rank-n preset setting and run both global checks.

    min at the ``s_count`` finite places, sm (delta = 0) at the given
    ell-degrees, one archimedean place per real embedding; local h^0
    values are zero except at infinity, where each place carries
    dim g^der - dim b^der so their total meets the required identity.
    Returns ``(verdicts, diagnostics, ok)``; a refused input is a
    ScenarioError.
    """
    if not isinstance(ell_degrees, (list, tuple)):
        raise ScenarioError(f"'ell_degrees' must be a list, got {ell_degrees!r}")
    ell_degrees = [read_int(d, "each 'ell_degrees' entry", "MAX_LEDGER_INT") for d in ell_degrees]
    if n < 1 or deg_F < 1 or s_count < 0:
        raise ScenarioError("need n >= 1, deg_F >= 1, s_count >= 0")
    count = s_count + len(ell_degrees) + deg_F
    read_int(count, "places", "MAX_PLACES", past=f"{count} places exceed")
    if sum(ell_degrees) != deg_F:
        raise ScenarioError(f"ell degrees {ell_degrees} must sum to deg_F = {deg_F}")
    if any(d < 1 for d in ell_degrees):
        raise ScenarioError("each ell degree must be >= 1")
    lie = gn_dims(n)
    arch_h0 = lie.dim_g_der - lie.dim_b_der
    places = (
        [min_place(h0_local=0) for _ in range(s_count)]
        + [sm_place(d, h0_local=0) for d in ell_degrees]
        + [arch_place(h0_local=arch_h0) for _ in range(deg_F)]
    )
    setting = DeformationSetting(lie, deg_F, tuple(places))
    verdicts, diag, ok = audit(setting, 0, 0, None, True)
    s_ell = setting.s_ell_count
    identity_value = (n * n + 1) * s_ell - 1
    identity_ok = verdicts["r0"] == identity_value
    verdicts["r0_identity"] = {"expected": identity_value, "ok": identity_ok}
    if not identity_ok:
        diag["violated_r0"] = "r0 = (n^2+1) #S_l - 1"
    diag.update({"n": n, "deg_F": deg_F, "s_count": s_count, "ell_degrees": ell_degrees,
                 "s_ell_count": s_ell})
    return verdicts, diag, ok and identity_ok
