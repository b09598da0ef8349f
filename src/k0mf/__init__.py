"""Exact-arithmetic certificates for K0 finiteness criteria of crossed
products of approximately finite-dimensional algebras by free groups.

The package decides, with machine-checkable exact certificates, whether
the coboundary subgroup of an induced K0 action meets the positive cone
(a witness refutes stable finiteness of the crossed product) and whether
locally invariant faithful integer states exist (the consistent
direction). Inputs are inductive systems of simplicial ordered groups,
Bratteli diagrams, or finite permutation systems, all carried as JSON
documents.
"""

from .bratteli import (
    BratteliDiagram,
    DocumentError,
    FiniteSystem,
    Metadata,
    SystemDocument,
    diagram_to_system,
    finite_system_to_k0,
    parse,
    permutation_matrix,
    serialize,
)
from .certify import (
    SearchParams,
    StateCertificate,
    Witness,
    WitnessSearch,
    exclusion_holds,
    exclusion_sets,
    find_invariant_state,
    find_positive_coboundary,
    positive_parts,
    verify_state_certificate,
    verify_witness,
)
from .dimgroup import (
    InductiveSystem,
    InjectivityReport,
    LimitElement,
    StageRangeError,
    Tristate,
    injectivity_report,
    is_positive,
    is_zero,
    push,
)
from .exactlinalg import (
    Feasible,
    Infeasible,
    IntMatrix,
    LinearProgram,
    WalkBudgetExceeded,
    hermite_normal_form,
    lp_feasible,
    smith_normal_form,
    solve_in_lattice,
)
from .kaction import (
    ActionReport,
    K0Action,
    StageMap,
    StationaryRule,
    Word,
    coboundary,
    coboundary_generators,
    coboundary_stage_lattice,
    verify_action,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
