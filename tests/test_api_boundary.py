"""The public API's boundary contract: every callable in ``entroute.__all__``
returns, or raises ValueError, when any one argument has the wrong type."""

import inspect
import math

import entroute
from entroute import (PERFECT, Chain, Channel, CircuitOutcome, LinkCost, Network,
                      PurificationPlan, TopologySpec, circuit_for, network_to_json,
                      save_network)

_NET = Network([Channel(0, 1, 8, 0.95), Channel(1, 2, 16, 0.95), Channel(0, 2, 4, 0.9)])
_CHAIN = Chain((8, 16), (0.95, 0.95))
_PLAN = PurificationPlan(((1, 1), (1, 2)))
_SPEC = TopologySpec("square", (2, 3), 8, 16, 0.95, 1)

# A small valid call of each public callable, every parameter by keyword.
# The file paths of save_network and load_network need the test's directory.
_CALLS = {
    "Chain": {"egrs": (8, 16), "fidelities": (0.95, 0.95), "noise": PERFECT},
    "Channel": {"u": 0, "v": 1, "egr": 8, "raw_fidelity": 0.95},
    "LinkCost": {"value": "hop"},
    "Network": {"channels": [Channel(0, 1, 8, 0.95)], "noise": PERFECT, "seed": 3},
    "NoiseParams": {"p2": 0.99, "eta": 0.99},
    "PurificationCircuit": {"k": 2, "tree": ("raw", "raw")},
    "PurificationPlan": {"segments": ((1, 2),)},
    "TopologySpec": {"kind": "square", "extent": (2, 3), "egr_min": 8, "egr_max": 16,
                     "raw_fidelity": 0.95, "seed": 1},
    "best_path_exhaustive": {"net": _NET, "s": 0, "d": 2, "cutoff": 2, "seeds": None},
    "chain_from_path": {"net": _NET, "path": [0, 1, 2]},
    "circuit_for": {"k": 2},
    "default_extent": {"hops": 2},
    "distillable": {"m": 2.0, "f": 0.95},
    "distillable_per_pair": {"f": 0.95},
    "endpoints_for_separation": {"extent": (3, 5), "hops": 2},
    "enumerate_paths": {"net": _NET, "s": 0, "d": 2, "cutoff": 2},
    "enumerate_segmentations": {"n_hops": 3},
    "evaluate_circuit": {"circuit": circuit_for(2), "f_in": 0.9, "noise": PERFECT},
    "evaluate_plan": {"chain": _CHAIN, "plan": _PLAN},
    "fidelity_to_w": {"f": 0.9},
    "generate_network": {"spec": _SPEC, "noise": PERFECT},
    "multipath_greedy": {"net": _NET, "s": 0, "d": 2, "max_paths": 2, "cost": "inv_egr"},
    "network_from_json": {"text": network_to_json(_NET)},
    "network_to_json": {"net": _NET},
    "no_purification_plan": {"n_hops": 2},
    "optimize_chain": {"chain": _CHAIN, "max_k": 4},
    "oracle_simulate_step": {"f1": 0.9, "f2": 0.85, "noise": PERFECT},
    "post_purification_rate": {"egr": 8, "circuit": circuit_for(2),
                               "outcome": CircuitOutcome(0.9, 0.8)},
    "purify_pair": {"f1": 0.9, "f2": 0.85, "noise": PERFECT},
    "repeater_egr": {"net": _NET, "node": 1},
    "scaled_egr_range": {"kind": "square", "repeater_lo": 16, "repeater_hi": 64},
    "shortest_weighted_path": {"net": _NET, "s": 0, "d": 2, "cost": "inv_egr"},
    "swap_fidelity": {"fids": [0.95, 0.9], "noise": PERFECT},
    "w_to_fidelity": {"w": 0.5},
}
# Plain result records check nothing; their readers check them.
_RECORDS = {"CircuitOutcome", "PlanEvaluation", "RoutedPath"}
# A file path follows open()'s rules, not this contract.
_FILE_PATHS = {("save_network", "path"), ("load_network", "path")}
# One of each kind of wrong value. Huge integers are left to the integer rule's
# own test.
_WRONG = (None, True, 1.5, math.nan, math.inf, "x", b"x", (), [], {}, object())


def test_every_public_callable_returns_or_raises_value_error(tmp_path):
    saved = tmp_path / "saved.json"
    save_network(_NET, saved)
    calls = dict(_CALLS, save_network={"net": _NET, "path": tmp_path / "out.json"},
                 load_network={"path": saved})
    public = {name for name in entroute.__all__ if callable(getattr(entroute, name))}
    assert public == set(calls) | _RECORDS
    escapes = []
    for name, valid in calls.items():
        call = getattr(entroute, name)
        # LinkCost's signature is Enum's, whose other parameters build new enums.
        if call is not LinkCost:
            assert list(inspect.signature(call).parameters) == list(valid), name
        call(**valid)
        for param in valid:
            if (name, param) in _FILE_PATHS:
                continue
            for wrong in _WRONG:
                try:
                    call(**dict(valid, **{param: wrong}))
                except ValueError:
                    pass
                except Exception as exc:  # every other escape is reported
                    escapes.append(f"{name}({param}={wrong!r}): {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)
