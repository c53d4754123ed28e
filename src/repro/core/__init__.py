"""The paper's primary contribution.

* :mod:`repro.core.hypertree` — hypertrees ⟨T, χ, λ⟩ and the condition
  checkers for hypertree decompositions (Def. 1), generalized HDs, and
  query-oriented HDs (Def. 2);
* :mod:`repro.core.detkdecomp` — width-≤k decomposition search;
* :mod:`repro.core.costmodel` / :mod:`repro.core.costkdecomp` — the
  statistics-weighted minimum-cost search (the paper's cost-k-decomp,
  built on the PODS'04 weighted-decomposition ideas);
* :mod:`repro.core.qhd` — Algorithm q-HypertreeDecomp (Fig. 4): root
  covering out(Q), atom assignment, Procedure Optimize with guards;
* :mod:`repro.core.evaluator` — Yannakakis' semijoin program (over join
  forests and decompositions, Boolean and full) plus the single-pass
  q-hypertree evaluator (P′/P″/P‴);
* :mod:`repro.core.views` — decomposition → rewritten SQL views
  (stand-alone mode);
* :mod:`repro.core.optimizer` — the HybridOptimizer facade (Fig. 5);
* :mod:`repro.core.integration` — the tight coupling with the simulated
  PostgreSQL engine (Fig. 6).
"""

from repro.core.hypertree import Hypertree, HypertreeNode
from repro.core.detkdecomp import det_k_decomp, hypertree_width
from repro.core.costmodel import DecompositionCostModel
from repro.core.costkdecomp import cost_k_decomp
from repro.core.qhd import q_hypertree_decomp, procedure_optimize, assign_atoms
from repro.core.evaluator import (
    QHDEvaluator,
    atom_relations,
    evaluate_qhd,
    yannakakis_acyclic,
    yannakakis_boolean,
)
from repro.core.normalform import is_normal_form, normal_form_violations
from repro.core.validate import ValidationReport, Violation, validate_decomposition
from repro.core.views import decomposition_to_sql_views
from repro.core.optimizer import HybridOptimizer, OptimizedPlan
from repro.core.integration import install_structural_optimizer

__all__ = [
    "Hypertree",
    "HypertreeNode",
    "det_k_decomp",
    "hypertree_width",
    "DecompositionCostModel",
    "cost_k_decomp",
    "q_hypertree_decomp",
    "procedure_optimize",
    "assign_atoms",
    "QHDEvaluator",
    "atom_relations",
    "evaluate_qhd",
    "yannakakis_acyclic",
    "yannakakis_boolean",
    "is_normal_form",
    "normal_form_violations",
    "ValidationReport",
    "Violation",
    "validate_decomposition",
    "decomposition_to_sql_views",
    "HybridOptimizer",
    "OptimizedPlan",
    "install_structural_optimizer",
]
