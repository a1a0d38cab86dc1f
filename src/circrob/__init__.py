"""circrob: circular Robinson dissimilarity spaces.

Construct a compatible circular order of an n-point dissimilarity space in
O(n log n), verify compatibility of a given order in O(n^2) for the strict
and non-strict quasi-circular and circular Robinson notions, enumerate all
compatible orders, and cross-check everything against brute-force oracles on
small instances.
"""

from .core import (
    CircularOrder,
    DissimilarityMatrix,
    MatrixFormatError,
    canonicalize,
    chain_holds,
    farthest_set,
    load_matrix,
)
from .generators import (
    GenerationError,
    GeneratorSpec,
    circle_instance,
    counterexample_fixture,
    perturb,
    two_cluster_instance,
)
from .oracle import (
    OracleClassification,
    circular_robinson_by_arcs,
    enumerate_circular_orders,
    is_linear_robinson,
    oracle_classify,
    pre_circular_by_quadruples,
    quasi_circular_by_quadruples,
)
from .predicates import Quadruple, cr, qcr, scr, sqcr
from .recognition import (
    OrderSet,
    TieWarning,
    bipartition_criterion,
    compatible_orders,
    find_compatible_order,
    orders_agree,
)
from .verification import (
    ClassificationReport,
    CrossingWitness,
    RowWitness,
    UnimodalityReport,
    crossing_violation,
    is_strictly_unimodal,
    is_unimodal,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CircularOrder",
    "ClassificationReport",
    "CrossingWitness",
    "DissimilarityMatrix",
    "GenerationError",
    "GeneratorSpec",
    "MatrixFormatError",
    "OracleClassification",
    "OrderSet",
    "Quadruple",
    "RowWitness",
    "TieWarning",
    "UnimodalityReport",
    "bipartition_criterion",
    "canonicalize",
    "chain_holds",
    "circle_instance",
    "circular_robinson_by_arcs",
    "compatible_orders",
    "counterexample_fixture",
    "cr",
    "crossing_violation",
    "enumerate_circular_orders",
    "farthest_set",
    "find_compatible_order",
    "is_linear_robinson",
    "is_strictly_unimodal",
    "is_unimodal",
    "load_matrix",
    "oracle_classify",
    "orders_agree",
    "perturb",
    "pre_circular_by_quadruples",
    "qcr",
    "quasi_circular_by_quadruples",
    "scr",
    "sqcr",
    "two_cluster_instance",
    "verify",
]
