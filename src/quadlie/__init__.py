"""quadlie: exact decision toolkit for ad-invariant metrics on nilpotent Lie algebras."""

from .config import RunConfig
from .forms import (
    FormSpace,
    SymForm,
    check_orthogonality_relations,
    decide_nondegenerate,
    invariant_form_space,
    radical,
    verify_form,
)
from .graphs import Graph, build_algebra, classify_graph, parse_graph
from .hall import HallBasis, free_nilpotent
from .liealg import (
    LieAlgebra,
    SeriesReport,
    centralizer,
    direct_sum,
    lower_central_series,
    relative_series,
    validate,
)
from .linalg import Matrix, Subspace, contains, nullspace, rref, span_intersect, span_sum
from .obstructions import (
    Decomposition,
    dim_series_obstruction,
    heisenberg_reiter_obstruction,
    theta_ideal,
    theta_search,
)
from .parabolic import (
    ParabolicNilradical,
    build_nilradical,
    classify_nilradical,
    decompose_root,
    verify_lcs_grading,
)
from .roots import CartanType, RootSystem, build as build_root_system
from .verdicts import build_report, decide, reverify_report

__version__ = "0.1.0"

__all__ = [
    "CartanType",
    "Decomposition",
    "FormSpace",
    "Graph",
    "HallBasis",
    "LieAlgebra",
    "Matrix",
    "ParabolicNilradical",
    "RootSystem",
    "RunConfig",
    "SeriesReport",
    "Subspace",
    "SymForm",
    "build_algebra",
    "build_nilradical",
    "build_report",
    "build_root_system",
    "centralizer",
    "check_orthogonality_relations",
    "classify_graph",
    "classify_nilradical",
    "contains",
    "decide",
    "decide_nondegenerate",
    "decompose_root",
    "dim_series_obstruction",
    "direct_sum",
    "free_nilpotent",
    "heisenberg_reiter_obstruction",
    "invariant_form_space",
    "lower_central_series",
    "nullspace",
    "parse_graph",
    "radical",
    "relative_series",
    "reverify_report",
    "rref",
    "span_intersect",
    "span_sum",
    "theta_ideal",
    "theta_search",
    "validate",
    "verify_form",
    "verify_lcs_grading",
]
