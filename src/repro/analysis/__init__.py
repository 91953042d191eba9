"""Analytical cost model (Eq. 2) and reproduction of the worked examples."""

from repro.analysis.cost_model import (
    AttributeCost,
    TreeCost,
    attribute_response_time,
    expected_tree_cost,
    node_gap_probabilities,
)
from repro.analysis.paper_examples import (
    PAPER_EXAMPLE2,
    PAPER_EXAMPLE3,
    PAPER_EXAMPLE4,
    Example2Result,
    Example3Result,
    Example4Result,
    example2_results,
    example3_results,
    example4_results,
)

__all__ = [
    "AttributeCost",
    "Example2Result",
    "Example3Result",
    "Example4Result",
    "PAPER_EXAMPLE2",
    "PAPER_EXAMPLE3",
    "PAPER_EXAMPLE4",
    "TreeCost",
    "attribute_response_time",
    "expected_tree_cost",
    "example2_results",
    "example3_results",
    "example4_results",
    "node_gap_probabilities",
]
