"""defring-audit: exact-arithmetic audits of dimension bookkeeping,
partition combinatorics, cyclic cohomology and splitting densities."""

__version__ = "0.1.0"

from .ff import (
    MatrixFF,
    PolyFF,
    PrimeField,
    ScanBudgetExceeded,
    block_diag,
    charpoly,
    eigenvalues_in_splitting_field,
    embed_field,
    is_unipotent,
    kernel_dim,
    mat_rank,
    mk_field,
    nilpotent_block,
)
from .partitions import (
    Partition,
    conjugate,
    kernel_sequence,
    nabla_matrix,
    partitions_of,
    theta,
    verify_conjugation_lemma,
)
from .cohomology import (
    CyclicAction,
    InvolutionSpec,
    arch_lift_dim,
    cohomology_dims,
    norm_matrix,
    twisted_involution_action,
)
from .ledger import (
    DeformationSetting,
    LieDims,
    PlaceSpec,
    SelmerInput,
    dual_selmer_verdict,
    framework_check,
    gamma,
    gn_dims,
    greenberg_wiles_diff,
    r0,
    taylor_wiles_sum,
)
# the splitting-density op itself stays at defring_audit.density.density so
# the submodule name is not shadowed at package level
from .density import (
    FiniteGroup,
    SplitDensityProblem,
    bound_certificate,
    build_group,
    subgroup_classes,
)
from .taylor import (
    eigenvalue_qpower_stable,
    min_equals_type_partition,
    qpower_conjugacy,
    satisfies_one_condition,
    taylor_threshold,
    threshold_coprime,
)
