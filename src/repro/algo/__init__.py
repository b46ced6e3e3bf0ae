"""The paper's local approximation algorithm and its building blocks."""

from .ablations import ABLATION_VARIANTS, ablation_report, solve_ablation
from .alternating_tree import AlternatingTree, TreeNode, build_alternating_tree
from .certificates import Certificate, verify_certificate
from .general_solver import GeneralSolveResult, LocalMaxMinSolver, theorem1_ratio
from .kernels import (
    BatchedTrees,
    batched_upper_bounds,
    build_batched_trees,
    g_recursion_kernel,
    output_kernel,
    smooth_bounds_kernel,
)
from .layers import (
    Layering,
    LayeringError,
    assign_layers,
    averaged_shifted_solution,
    is_layerable,
    shifted_solution,
)
from .local_solver import (
    GRecursionValues,
    SpecialFormLocalSolver,
    SpecialFormSolveResult,
    compute_g_recursion,
    output_vector,
    reference_solve,
    special_form_ratio,
)
from .safe_algorithm import SafeAlgorithm, reference_safe_solution, safe_solution
from .tree_recursion import FRecursionValues, evaluate_recursion, recursion_feasible, recursion_margin
from .upper_bound import (
    compute_upper_bounds,
    smooth_upper_bounds,
    tree_optimum,
    tree_optimum_binary_search,
    tree_optimum_lp,
)

__all__ = [
    "ABLATION_VARIANTS",
    "solve_ablation",
    "ablation_report",
    "AlternatingTree",
    "TreeNode",
    "build_alternating_tree",
    "FRecursionValues",
    "evaluate_recursion",
    "recursion_feasible",
    "recursion_margin",
    "tree_optimum",
    "tree_optimum_binary_search",
    "tree_optimum_lp",
    "compute_upper_bounds",
    "smooth_upper_bounds",
    "BatchedTrees",
    "build_batched_trees",
    "batched_upper_bounds",
    "smooth_bounds_kernel",
    "g_recursion_kernel",
    "output_kernel",
    "GRecursionValues",
    "SpecialFormLocalSolver",
    "SpecialFormSolveResult",
    "compute_g_recursion",
    "output_vector",
    "reference_solve",
    "special_form_ratio",
    "LocalMaxMinSolver",
    "GeneralSolveResult",
    "theorem1_ratio",
    "SafeAlgorithm",
    "safe_solution",
    "reference_safe_solution",
    "Certificate",
    "verify_certificate",
    "Layering",
    "LayeringError",
    "assign_layers",
    "is_layerable",
    "shifted_solution",
    "averaged_shifted_solution",
]
