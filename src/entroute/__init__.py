"""Entanglement distribution on quantum repeater networks.

Evaluates and optimizes purification plans on repeater chains, and selects
single- and multi-path routes that maximize distillable entanglement under
imperfect gates, measurements, and finite memory time.
"""

__version__ = "0.1.0"

from .chainopt import (Chain, PlanEvaluation, PurificationPlan, chain_from_path,
                       enumerate_segmentations, evaluate_plan,
                       no_purification_plan, optimize_chain)
from .netgraph import (Channel, Network, TopologySpec, default_extent,
                       endpoints_for_separation, generate_network, load_network,
                       network_from_json, network_to_json, repeater_egr,
                       save_network, scaled_egr_range)
from .purify import (CircuitOutcome, PurificationCircuit, circuit_for,
                     evaluate_circuit, oracle_simulate_step,
                     post_purification_rate, purify_pair)
from .routing import (LinkCost, RoutedPath, best_path_exhaustive, enumerate_paths,
                      multipath_greedy, shortest_weighted_path)
from .werner import (NoiseParams, PERFECT, distillable, distillable_per_pair,
                     fidelity_to_w, swap_fidelity, w_to_fidelity)

__all__ = [
    "Chain", "Channel", "CircuitOutcome", "LinkCost", "Network", "NoiseParams",
    "PERFECT", "PlanEvaluation", "PurificationCircuit", "PurificationPlan",
    "RoutedPath", "TopologySpec", "best_path_exhaustive", "chain_from_path",
    "circuit_for", "default_extent", "distillable", "distillable_per_pair",
    "endpoints_for_separation", "enumerate_paths", "enumerate_segmentations",
    "evaluate_circuit", "evaluate_plan", "fidelity_to_w", "generate_network",
    "load_network", "multipath_greedy", "network_from_json", "network_to_json",
    "no_purification_plan", "optimize_chain", "oracle_simulate_step",
    "post_purification_rate", "purify_pair", "repeater_egr", "save_network",
    "scaled_egr_range", "shortest_weighted_path", "swap_fidelity",
    "w_to_fidelity",
]
