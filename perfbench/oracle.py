"""The oracle gate: the paper's counts and verdicts for every operation.

Every op of every round is checked; an op whose exit code or any listed
count differs from the oracle is a failure.  Failures are reported and
counted, never dropped or retried.  Counts an op reports beyond those
listed here are kept in the results file but not gated.
"""
from __future__ import annotations

from typing import Dict, List

_ORDER8 = ("C8", "C4xC2", "C2^3", "D8", "Q8")
_ORDER27 = ("C27", "C9xC3", "C3xC3xC3", "Heisenberg(3)", "C9:C3")

# op name -> (expected exit code, expected counts).  An empty
# failed_verdicts list means every verdict of the asq report passed.
ORACLE: Dict[str, tuple] = {
    # 211p under a relabelling: the plus8 catalogue and its isometry group
    "pseudoarcs": (0, {"planes": 2025, "group_order": 348364800, "seeds": 1402,
                       "arc_seeds_nodes": 2644, "extend_arcs_nodes": 1418, "arcs": 0,
                       "failed_verdicts": []}),
    # Lemma 5.3 for 210b holds for every choice of U1, U2
    "lemma53": (0, {"pool": 784, "distribution": [[0, 112], [48, 672]],
                    "size6_families": 0}),
    # the 212m centraliser obstruction, one totally singular plane
    "plane": (0, {"candidates": 8, "dropped": 0, "centralizer_is_perp_preimage": True}),
    "filters 212m": (0, {"failed_verdicts": []}),
    "classify 8": (0, {**{f"configs_{n}": 0 for n in _ORDER8}, "configs_C2^3": 28,
                       "failed_verdicts": []}),
    "classify 27": (0, {**{f"configs_{n}": 0 for n in _ORDER27}, "configs_Heisenberg(3)": 9,
                        "failed_verdicts": []}),
    "demo w3q-3": (0, {"configurations": 9, "points": 40, "lines": 40, "failed_verdicts": []}),
    "demo as35": (0, {"points": 64, "lines": 96, "failed_verdicts": []}),
    "demo field-reduction": (0, {"planes": 9, "failed_verdicts": []}),
    # q = 3: PDS (1, 5), GQ(2, 4) with SRG(27, 10, 1, 5), Kantor GQ(3, 3)
    "verify h3": (0, {"pds_lambda": 1, "pds_mu": 5, "as_gq_s": 2, "as_gq_t": 4,
                      "srg_v": 27, "srg_k": 10, "srg_lambda": 1, "srg_mu": 5,
                      "kantor_gq_s": 3, "kantor_gq_t": 3, "failed_verdicts": []}),
    # q = 4: PDS (2, 6), GQ(3, 5) with SRG(64, 18, 2, 6), Kantor GQ(4, 4)
    "verify hyperoval": (0, {"pds_lambda": 2, "pds_mu": 6, "as_gq_s": 3, "as_gq_t": 5,
                             "srg_v": 64, "srg_k": 18, "srg_lambda": 2, "srg_mu": 6,
                             "kantor_gq_s": 4, "kantor_gq_t": 4, "failed_verdicts": []}),
}


def mismatches(op: Dict[str, object]) -> List[str]:
    """Why one op result differs from the oracle; empty when it agrees."""
    name = op["name"]
    if name not in ORACLE:
        return [f"{name}: no oracle for this op"]
    want_exit, want = ORACLE[name]
    out = []
    if op["exit"] != want_exit:
        out.append(f"{name}: exit {op['exit']!r}, expected {want_exit}")
    counts = op.get("counts") or {}
    for key, value in want.items():
        if counts.get(key) != value:
            out.append(f"{name}: {key} = {counts.get(key)!r}, expected {value!r}")
    return out
