"""The record contract of the layers' input and result types.

Seven validated inputs are ``ff.Record`` subclasses and seven results are
``typing.NamedTuple``s.  Each is built by keyword with its defaults, is
immutable, and (for the inputs) compares and hashes by its field values;
every validation error keeps its message.
"""

import copy
import re
from fractions import Fraction

import pytest

from defring_audit.acceptance import CriterionResult
from defring_audit.cohomology import CohomologyDims, CyclicAction, InvolutionSpec, antidiagonal_ones
from defring_audit.density import BoundCertificate, SplitDensityProblem, symmetric_group
from defring_audit.ff import MatrixFF, Record, mk_field
from defring_audit.ledger import (
    DeformationSetting,
    DualSelmerVerdict,
    FrameworkVerdict,
    LieDims,
    PlaceDim,
    PlaceSpec,
)
from defring_audit.partitions import LemmaReport, Partition

F2 = mk_field(2)
F5 = mk_field(5)
S3 = symmetric_group(3)
SWAP = MatrixFF.from_rows(F5, [[0, 1], [1, 0]])
J2 = antidiagonal_ones(2, F5)
LIE = LieDims(dim_g=5, dim_g_der=4, dim_g_ab=1, dim_b_der=3)
ARCH = PlaceSpec(kind="arch")
ELL = PlaceSpec(kind="ell", condition="sm", local_degree=1)

# class -> (keyword arguments, every attribute the record then holds,
#           the same arguments with one field changed)
VALIDATED = {
    Partition: ({"parts": [3, 1]}, {"parts": (3, 1), "n": 4}, {"parts": (2, 2)}),
    LieDims: (
        {"dim_g": 5, "dim_g_der": 4, "dim_g_ab": 1, "dim_b_der": 3},
        {"dim_g": 5, "dim_g_der": 4, "dim_g_ab": 1, "dim_b_der": 3, "dim_z": 1},
        {"dim_g": 5, "dim_g_der": 4, "dim_g_ab": 1, "dim_b_der": 2},
    ),
    PlaceSpec: (
        {"kind": "arch"},
        {"kind": "arch", "condition": "unrestricted", "local_degree": 0, "delta": 0,
         "h0_local": None},
        {"kind": "S"},
    ),
    DeformationSetting: (
        {"lie": LIE, "deg_F": 1, "places": [ELL, ARCH]},
        {"lie": LIE, "deg_F": 1, "places": (ELL, ARCH), "degrees_complete": True},
        {"lie": LIE, "deg_F": 1, "places": [ELL]},
    ),
    SplitDensityProblem: (
        {"gamma": S3, "subgroup": {S3.identity}, "k": 1},
        {"gamma": S3, "subgroup": frozenset({S3.identity}), "k": 1, "group_order": 24},
        {"gamma": S3, "subgroup": {S3.identity}, "k": 2},
    ),
    CyclicAction: (
        {"order": 2, "sigma": SWAP},
        {"order": 2, "sigma": SWAP, "norm": MatrixFF.from_rows(F5, [[1, 1], [1, 1]])},
        {"order": 4, "sigma": SWAP},
    ),
    InvolutionSpec: (
        {"n": 2, "J": J2},
        {"n": 2, "J": J2, "J_inv": J2},
        {"n": 2, "J": MatrixFF.from_rows(F5, [[1, 0], [0, 1]])},
    ),
}

RESULTS = {
    CohomologyDims: {"h0": 1, "h1": 0, "h2": 0, "z1": 1},
    PlaceDim: {"index": 0, "kind": "ell", "condition": "sm", "local_degree": 1, "delta": 0,
               "dim": 7},
    FrameworkVerdict: {"gamma": 30, "r0": 24, "gen_bound": 6, "gen_I": 6, "margin": 0,
                       "smooth": True, "unframed_dim": 6, "diagnostics": ()},
    DualSelmerVerdict: {"vanishes": True, "dual_dim": 0, "tangent_dim": 3},
    BoundCertificate: {"density": Fraction(3, 4), "bound": Fraction(1, 2), "witness_count": 2,
                       "holds": True},
    CriterionResult: {"ident": "c01", "description": "d", "ok": True, "elapsed_s": 0.5,
                      "budget_s": None, "detail": "x"},
    LemmaReport: {"checked": 2, "failures": ()},
}

ALL = list(VALIDATED) + list(RESULTS)


def _build(cls):
    kwargs = VALIDATED[cls][0] if cls in VALIDATED else RESULTS[cls]
    return cls(**kwargs)


def test_every_record_is_listed():
    assert len(ALL) == 14
    assert all(issubclass(cls, Record) for cls in VALIDATED)
    # a record that refuses nothing validates nothing
    assert set(VALIDATED) <= {cls for cls, _, _ in REFUSED}
    assert all(issubclass(cls, tuple) and hasattr(cls, "_asdict") for cls in RESULTS)


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_keyword_construction_keeps_the_defaults(cls):
    record = _build(cls)
    held = VALIDATED[cls][1] if cls in VALIDATED else RESULTS[cls]
    assert {name: getattr(record, name) for name in held} == held


@pytest.mark.parametrize("cls", list(VALIDATED), ids=lambda cls: cls.__name__)
def test_validated_inputs_compare_and_hash_by_field_values(cls):
    kwargs, _, changed = VALIDATED[cls]
    first, again = cls(**kwargs), cls(**kwargs)
    assert first is not again
    assert first == again and hash(first) == hash(again)
    assert first != cls(**changed)
    assert first != tuple(getattr(first, name) for name in cls._fields)  # nor a tuple
    assert copy.copy(first) == first  # rebuilt through __init__


def test_repr_lists_the_fields_and_not_the_derived_attributes():
    action = CyclicAction(order=2, sigma=SWAP)
    assert repr(action) == f"CyclicAction(order=2, sigma={SWAP!r})"
    assert repr(Partition((3, 1))) == "Partition(parts=(3, 1))"
    assert repr(LIE) == "LieDims(dim_g=5, dim_g_der=4, dim_g_ab=1, dim_b_der=3, dim_z=1)"


@pytest.mark.parametrize("cls", ALL, ids=lambda cls: cls.__name__)
def test_assigning_an_attribute_raises(cls):
    record = _build(cls)
    name = next(iter(VALIDATED[cls][1] if cls in VALIDATED else RESULTS[cls]))
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.unknown = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == value


# (class, keyword arguments it refuses, the message)
REFUSED = [
    (Partition, {"parts": ()}, "partition must be nonempty"),
    (Partition, {"parts": (2, 0)}, "parts must be positive"),
    (Partition, {"parts": (1, 2)}, "parts must be weakly decreasing"),
    (LieDims, {"dim_g": -1, "dim_g_der": 0, "dim_g_ab": -1, "dim_b_der": 0},
     "dimensions must be nonnegative"),
    (LieDims, {"dim_g": 5, "dim_g_der": 4, "dim_g_ab": 2, "dim_b_der": 3},
     "dim_g must equal dim_g_der + dim_g_ab"),
    (LieDims, {"dim_g": 5, "dim_g_der": 4, "dim_g_ab": 1, "dim_b_der": 5},
     "dim_b_der cannot exceed dim_g_der"),
    (LieDims, {"dim_g": 5, "dim_g_der": 4, "dim_g_ab": 1, "dim_b_der": 3, "dim_z": 2},
     "dim_z must equal dim_g - dim_g_der"),
    (PlaceSpec, {"kind": "x"}, "unknown place kind 'x'"),
    (PlaceSpec, {"kind": "S", "condition": "x"}, "unknown condition 'x'"),
    (PlaceSpec, {"kind": "ell", "condition": "min", "local_degree": 1},
     "condition 'min' only applies at S-places"),
    (PlaceSpec, {"kind": "S", "condition": "crys"}, "condition 'crys' only applies at ell-places"),
    (PlaceSpec, {"kind": "ell", "condition": "sm"}, "ell-places need a local degree >= 1"),
    (PlaceSpec, {"kind": "S", "local_degree": 1}, "only ell-places carry a local degree"),
    (PlaceSpec, {"kind": "ell", "condition": "sm", "local_degree": 1, "delta": -1},
     "delta must be nonnegative"),
    (PlaceSpec, {"kind": "ell", "condition": "crys", "local_degree": 1, "delta": 1},
     "delta is only meaningful for the sm condition"),
    (PlaceSpec, {"kind": "arch", "h0_local": -1}, "h0_local must be nonnegative"),
    (DeformationSetting, {"lie": LIE, "deg_F": 0, "places": [ARCH]}, "deg_F must be >= 1"),
    (DeformationSetting, {"lie": LIE, "deg_F": 1, "places": []},
     "at least one place is required"),
    (DeformationSetting, {"lie": LIE, "deg_F": 2, "places": [ELL]},
     "degrees-complete setting needs ell degrees summing to deg_F (1 != 2)"),
    (SplitDensityProblem, {"gamma": S3, "subgroup": {S3.identity}, "k": 65},
     "k must be an integer with 1 <= k <= MAX_DENSITY_K = 64, got 65"),
    (SplitDensityProblem, {"gamma": S3, "subgroup": {S3.identity}, "k": True},
     "k must be an integer with 1 <= k <= MAX_DENSITY_K = 64, got True"),
    (SplitDensityProblem, {"gamma": S3, "subgroup": {S3.identity}, "k": 0},
     "k must be an integer with 1 <= k <= MAX_DENSITY_K = 64, got 0"),
    (SplitDensityProblem, {"gamma": S3, "subgroup": {S3.identity, 1, 2}, "k": 1},
     "H must be a genuine subgroup of Gamma"),
    (CyclicAction, {"order": 0, "sigma": SWAP}, "group order must be >= 1"),
    (CyclicAction, {"order": 2, "sigma": MatrixFF(F5, 1, 2, (1, 0))},
     "generator matrix must be square"),
    (CyclicAction, {"order": 3, "sigma": SWAP}, "sigma^n must be the identity"),
    (InvolutionSpec, {"n": 2, "J": antidiagonal_ones(2, F2)},
     "the twisted involution needs odd characteristic"),
    (InvolutionSpec, {"n": 3, "J": J2}, "J must be n x n"),
    (InvolutionSpec, {"n": 2, "J": MatrixFF.from_rows(F5, [[1, 1], [0, 1]])},
     "J must be symmetric or antisymmetric, or the twist is no involution"),
]


@pytest.mark.parametrize("cls, kwargs, message", REFUSED)
def test_validation_messages_are_unchanged(cls, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)
