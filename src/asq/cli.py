"""Command-line entry points: the named rule-out computations, the
small-order classifications, filter reports, pseudo-arc searches and the
classical demonstration objects, all emitting machine-readable reports.

Exit codes: 0 when every verdict passes and every compiled-in expected
count matches, 1 on a verdict/count failure, 2 on bad input.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("asq")
except Exception:  # pragma: no cover - not installed
    VERSION = "0.0.0"

from . import gf2
from .asconfig import (
    ASConfiguration,
    _cube_root,
    _validate,
    check_as_axioms,
    check_pds,
    check_kantor,
    clique_size_qplus1,
    delta,
    enough_subgroups,
    good_subgroups,
    kantor_from_as,
    lemma41_invariants,
    parse_config,
    structural_filter,
)
from .geometry import (
    as_quadrangle,
    collinearity_srg,
    kantor_quadrangle,
    regular_point,
    verify_gq,
)
from .groups import (
    TABLE4_IDS,
    HeisenbergGroup,
    Subgroup,
    _prime_of,
    elementary_abelian,
    load_group,
    order8_catalogue,
    order27_catalogue,
    table4_group,
)
from .quadform import (
    PRESETS,
    field_reduction_arc,
    forms_equivalent,
    load_form,
    preset,
    gamma_forms,
    radicals,
)
from .search import (
    PlaneCatalogue,
    PseudoArc,
    SearchTrace,
    arc_seeds,
    as_backtrack,
    brute_force_as_configs,
    extend_arcs,
    is_partial_pseudo_arc,
    lemma53_counts,
    lift_arc,
    minus_type_obstruction,
)


class InputError(Exception):
    """Bad command-line input or unparseable file (exit code 2)."""


@dataclass
class RunReport:
    command: str
    inputs: Dict[str, object] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    verdicts: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    wall_time: float = 0.0
    version: str = VERSION

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> Dict[str, object]:
        # deterministic field order; counts/verdicts sorted by key
        return {
            "command": self.command,
            "inputs": self.inputs,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "verdicts": {k: bool(self.verdicts[k]) for k in sorted(self.verdicts)},
            "notes": self.notes,
            "wall_time": self.wall_time,
            "version": self.version,
        }


def _expect(report: RunReport, expected: Dict[str, int]) -> None:
    """Compiled-in count assertions: one verdict per expected count."""
    for name, want in expected.items():
        got = report.counts.get(name)
        report.verdicts[f"{name}_matches"] = got == want
        if got != want:
            report.notes[f"{name}_expected"] = want


# ----------------------------------------------------------------------
# commands


def cmd_verify(group_file: str, config_file: str) -> RunReport:
    rep = RunReport("verify", inputs={"group": group_file, "config": config_file})
    try:
        with open(group_file) as fh:
            G = load_group(fh.read())
        with open(config_file) as fh:
            cfg = parse_config(fh.read(), G, validate=False)
    except (OSError, ValueError) as e:
        raise InputError(str(e))
    try:
        _validate(G, cfg)
    except ValueError as e:
        rep.verdicts["config_valid"] = False
        rep.notes["config_witness"] = str(e)
        return rep
    rep.verdicts["config_valid"] = True
    ax = check_as_axioms(G, cfg)
    rep.verdicts["as_axioms"] = bool(ax["ok"])
    if not ax["ok"]:
        rep.notes["as_witness"] = ax["witness"]
        return rep
    inv = lemma41_invariants(G, cfg)
    rep.verdicts["structural_invariants"] = bool(inv["ok"])
    try:
        lam, mu = check_pds(G, delta(cfg))
        rep.verdicts["pds"] = (lam, mu) == (cfg.q - 2, cfg.q + 2)
        rep.counts["pds_lambda"], rep.counts["pds_mu"] = lam, mu
    except ValueError as e:
        rep.verdicts["pds"] = False
        rep.notes["pds_witness"] = str(e)
    fam = kantor_from_as(cfg)
    kv = check_kantor(G, fam, cfg.q, cfg.q)
    rep.verdicts["kantor_family"] = bool(kv["ok"])
    try:
        geom = as_quadrangle(cfg)
        s, t = verify_gq(geom)
        rep.counts["as_gq_s"], rep.counts["as_gq_t"] = s, t
        rep.verdicts["as_gq"] = (s, t) == (cfg.q - 1, cfg.q + 1)
        v, k, lam2, mu2 = collinearity_srg(geom)
        rep.counts["srg_v"], rep.counts["srg_k"] = v, k
        rep.counts["srg_lambda"], rep.counts["srg_mu"] = lam2, mu2
        rep.verdicts["as_srg"] = True
    except ValueError as e:
        rep.verdicts["as_gq"] = False
        rep.notes["as_gq_witness"] = str(e)
    try:
        kg = kantor_quadrangle(G, fam, cfg.q, cfg.q)
        s, t = verify_gq(kg)
        rep.counts["kantor_gq_s"], rep.counts["kantor_gq_t"] = s, t
        rep.verdicts["kantor_gq"] = (s, t) == (cfg.q, cfg.q)
        rep.verdicts["base_point_regular"] = regular_point(kg, 0)
    except ValueError as e:
        rep.verdicts["kantor_gq"] = False
        rep.notes["kantor_gq_witness"] = str(e)
    return rep


def _timed(stages: Dict[str, float], name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall seconds recorded as stages[name]."""
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    stages[name] = time.monotonic() - t0
    return out


def _arc_search(rep: RunReport, form, seed_size: int, target: int,
                threads: int) -> Tuple[PlaneCatalogue, List[PseudoArc]]:
    """The arc pipeline of every arc search: the plane catalogue of the
    form (which builds the chain of the group on the points, whose
    strong generators it maps onto the planes), the order of the plane
    group (sifted to quadform.plane_group_order), one canonical seed
    per orbit of seed_size planes, and every extension of the seeds to
    target planes, in at most threads blocks of seeds, each on its own
    thread of this process (block 0 on the calling thread).  The wall
    seconds of the four stages go to notes["stage_s"], and the number of
    canonical sets of each size 0..seed_size to notes["canonical_sets"]."""
    if not 1 <= seed_size <= target:
        raise InputError(f"--target must be at least 1, got {target}" if target < 1 else
                         f"--seed-size must be between 1 and the target {target}, got {seed_size}")
    if radicals(form)[2].tag == "mixed":
        raise InputError("cannot build a symmetry group for this form: "
                         "mixed-radical forms have no structural generator set here")
    stages: Dict[str, float] = {}
    cat = _timed(stages, "catalogue", PlaneCatalogue, form)
    rep.counts["planes"] = cat.n
    _timed(stages, "order", cat.group.order)
    seeding = SearchTrace(seed=None)
    seeds = _timed(stages, "arc_seeds", arc_seeds, cat, seed_size, trace=seeding)
    rep.counts["seeds"] = len(seeds)
    arcs = _timed(stages, "extend_arcs", extend_arcs, cat, seeds, target, threads=threads)
    rep.counts["arcs"] = len(arcs)
    rep.notes["stage_s"] = stages
    rep.notes["canonical_sets"] = seeding.sizes
    return cat, arcs


def _arc_families(rep: RunReport, G, cat: PlaneCatalogue,
                  arcs: Sequence[PseudoArc]) -> None:
    """Lift each arc to its candidate subgroups and search them for
    families of the arc's size; the search's nodes go to notes["nodes"]."""
    per_arc = set()
    dropped = families = 0
    trace = SearchTrace(seed=None)
    for arc in arcs:
        pool, lost = lift_arc(G, [cat.planes[i] for i in arc.members])
        per_arc.add(len(pool))
        dropped += len(lost)
        families += len(as_backtrack(G, pool, len(arc.members), trace=trace))
    rep.notes["nodes"] = trace.nodes
    if per_arc:
        rep.counts["candidates_per_arc"] = per_arc.pop() if len(per_arc) == 1 else -1
    rep.counts["dropped_planes"] = dropped
    rep.counts["families"] = families


def _ruleout_208a(rep: RunReport, seed_size: int, threads: int) -> None:
    cat, arcs = _arc_search(rep, preset("deg-hyp6"), seed_size, 9, threads)
    _timed(rep.notes["stage_s"], "families", _arc_families, rep, table4_group("208a"), cat, arcs)
    _expect(rep, {"arcs": 8, "candidates_per_arc": 72, "families": 0})


def _ruleout_210b(rep: RunReport) -> None:
    res = lemma53_counts(table4_group("210b"))
    rep.counts["pool"] = res["pool"]
    dist = res["distribution"]
    for v in sorted(dist):
        rep.counts[f"thirds_with_{v}_fourths"] = dist[v]
    rep.counts["size6_families"] = res["size6_families"]
    rep.counts["order8_subgroups"] = res["order8_subgroups"]
    rep.notes.update(stage_s=res["stage_s"], nodes=res["nodes"])
    rep.verdicts["distribution_matches"] = dist == {0: 112, 48: 672}
    _expect(rep, {"pool": 784, "size6_families": 0})


def _ruleout_211p(rep: RunReport, seed_size: int, threads: int) -> None:
    _arc_search(rep, preset("plus8"), seed_size, 9, threads)
    expected = {"arcs": 0}
    if seed_size == 6:
        expected["seeds"] = 1402
    _expect(rep, expected)


def _ruleout_212m(rep: RunReport, seed_size: int, threads: int) -> None:
    G = table4_group("212m")
    cat, arcs = _arc_search(rep, G.form, seed_size, 9, threads)
    _timed(rep.notes["stage_s"], "families", _arc_families, rep, G, cat, arcs)
    res = _timed(rep.notes["stage_s"], "obstruction", minus_type_obstruction, G, cat.planes)
    rep.counts["center_order"] = res["center_order"]
    rep.counts["candidates"] = res["n_candidates"]
    rep.verdicts["centralizer_is_perp_preimage"] = res["centralizer_is_perp_preimage"]
    _expect(rep, {"center_order": 2, "families": 0})


_ARC_RULEOUTS = {"208a": _ruleout_208a, "211p": _ruleout_211p, "212m": _ruleout_212m}


def cmd_ruleout(ident: str, seed_size: int = 6, threads: int = 1) -> RunReport:
    """210b searches no arcs and takes neither seed_size nor threads."""
    if ident == "210b":
        rep = RunReport("ruleout", inputs={"group": ident})
        _ruleout_210b(rep)
    elif ident in _ARC_RULEOUTS:
        rep = RunReport("ruleout", inputs={"group": ident, "seed_size": seed_size,
                                           "threads": threads})
        _ARC_RULEOUTS[ident](rep, seed_size, threads)
    else:
        raise InputError(f"unknown group id {ident!r}; have {TABLE4_IDS}")
    return rep


def cmd_classify(order: int) -> RunReport:
    rep = RunReport("classify", inputs={"order": order})
    if order == 8:
        groups = order8_catalogue()
        admitting = {"C2^3"}
    elif order == 27:
        groups = order27_catalogue()
        admitting = {"Heisenberg(3)"}
    else:
        raise InputError("classification supports orders 8 and 27")
    for G in groups:
        cfgs = brute_force_as_configs(G)
        rep.counts[f"configs_{G.name}"] = len(cfgs)
        rep.verdicts[f"{G.name}_as_expected"] = (len(cfgs) > 0) == (G.name in admitting)
    return rep


def _load_group_arg(arg: str):
    if arg in TABLE4_IDS:
        return table4_group(arg)
    if arg == "heisenberg3":
        return HeisenbergGroup(3)
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                return load_group(fh.read())
        except (OSError, ValueError) as e:
            raise InputError(str(e))
    raise InputError(f"no such group file or builtin id: {arg!r}")


def cmd_filters(group_arg: str) -> RunReport:
    rep = RunReport("filters", inputs={"group": group_arg})
    G = _load_group_arg(group_arg)
    try:  # the filters need |G| = q^3 with q a prime power
        q, p = _cube_root(G.n), _prime_of(G.n)
    except ValueError as e:
        raise InputError(str(e))
    stages = rep.notes["stage_s"] = {}
    fr = _timed(stages, "structural_filter", structural_filter, G)
    for name, ok in fr.conditions.items():
        rep.verdicts[name] = ok
    rep.notes.update(fr.notes)
    rep.counts.update(fr.counts)
    if p == 2:  # the subgroup-clique predicates are 2-group only
        if not G.is_abelian():  # both predicates hold at once on abelian G
            good = _timed(stages, "good_subgroups", good_subgroups, G, q)  # kept on G for both
            rep.counts["good_subgroups"] = len(good)
        rep.verdicts["enough_subgroups"] = _timed(stages, "enough_subgroups",
                                                  enough_subgroups, G, q)
        rep.verdicts["clique_of_size_q_plus_1"] = _timed(stages, "clique", clique_size_qplus1,
                                                         G, q, counts=rep.counts)
    return rep


def _load_form_arg(arg: str):
    if arg in PRESETS:
        return preset(arg)
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                return load_form(fh.read())
        except (OSError, ValueError) as e:
            raise InputError(str(e))
    raise InputError(f"no such form file or preset: {arg!r} (presets: {sorted(PRESETS)})")


def cmd_pseudoarcs(form_arg: str, seed_size: int, target: int,
                   threads: int = 1) -> RunReport:
    rep = RunReport(
        "pseudoarcs",
        inputs={"form": form_arg, "seed_size": seed_size, "target": target,
                "threads": threads},
    )
    form = _load_form_arg(form_arg)
    cat, arcs = _arc_search(rep, form, seed_size, target, threads)
    rep.verdicts["all_revalidate"] = all(
        is_partial_pseudo_arc(form, [cat.planes[i] for i in a.members]) for a in arcs
    )
    rep.notes["arcs"] = [list(a.members) for a in arcs]
    return rep


# -- demos -------------------------------------------------------------

_F4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def _hyperoval_config() -> ASConfiguration:
    """The pseudo-hyperoval of PG(5,2): field reduction of the regular
    hyperoval {(1, t, t^2)} + {(0,1,0), (0,0,1)} of PG(2,4)."""
    G = elementary_abelian(6)
    pts = [(1, t, _F4_MUL[t][t]) for t in range(4)] + [(0, 1, 0), (0, 0, 1)]
    subgroups = []
    for p in pts:
        elems = sorted(
            _F4_MUL[lam][p[0]] | (_F4_MUL[lam][p[1]] << 2) | (_F4_MUL[lam][p[2]] << 4)
            for lam in range(4)
        )
        subgroups.append(Subgroup(G, tuple(elems)))
    return ASConfiguration(G, 4, tuple(subgroups))


def _demo_w3q3(rep: RunReport) -> None:
    G = HeisenbergGroup(3)
    cfgs = brute_force_as_configs(G)
    rep.counts["configurations"] = len(cfgs)
    rep.verdicts["heisenberg_admits"] = len(cfgs) > 0
    cfg = cfgs[0]
    rep.verdicts["as_axioms"] = bool(check_as_axioms(G, cfg)["ok"])
    lam, mu = check_pds(G, delta(cfg))
    rep.verdicts["pds_1_5"] = (lam, mu) == (1, 5)
    geom = as_quadrangle(cfg)
    s, t = verify_gq(geom)
    rep.verdicts["gq_2_4"] = (s, t) == (2, 4)
    rep.verdicts["srg_27_10_1_5"] = collinearity_srg(geom) == (27, 10, 1, 5)
    fam = kantor_from_as(cfg)
    kg = kantor_quadrangle(G, fam, 3, 3)
    s, t = verify_gq(kg)
    rep.verdicts["gq_3_3"] = (s, t) == (3, 3)
    rep.verdicts["srg_40_12_2_4"] = collinearity_srg(kg) == (40, 12, 2, 4)
    rep.verdicts["all_points_regular"] = all(
        regular_point(kg, p) for p in range(kg.n_points)
    )
    rep.counts["points"], rep.counts["lines"] = kg.n_points, len(kg.lines)


def _demo_as35(rep: RunReport) -> None:
    cfg = _hyperoval_config()
    G = cfg.group
    rep.verdicts["as_axioms"] = bool(check_as_axioms(G, cfg)["ok"])
    geom = as_quadrangle(cfg)
    s, t = verify_gq(geom)
    rep.counts["points"] = geom.n_points
    rep.counts["lines"] = len(geom.lines)
    rep.verdicts["gq_3_5"] = (s, t) == (3, 5)
    _expect(rep, {"points": 64, "lines": 96})


def _demo_field_reduction(rep: RunReport) -> None:
    fra = field_reduction_arc()
    rep.counts["planes"] = len(fra.quotient_arc)
    rep.verdicts["pseudo_arc"] = is_partial_pseudo_arc(
        fra.quotient_form, list(fra.quotient_arc)
    )
    rep.verdicts["radical_meets_trivial"] = all(
        gf2.meet(p, fra.quotient_radical).rank == 0 for p in fra.quotient_arc
    )
    rep.verdicts["all_gamma_forms_equivalent"] = all(
        forms_equivalent(q, fra.form) is not None for q in gamma_forms().values()
    )
    _expect(rep, {"planes": 9})


def cmd_demo(name: str) -> RunReport:
    rep = RunReport("demo", inputs={"name": name})
    dispatch = {
        "w3q-3": _demo_w3q3,
        "as35": _demo_as35,
        "field-reduction": _demo_field_reduction,
    }
    if name not in dispatch:
        raise InputError(f"unknown demo {name!r}; have {sorted(dispatch)}")
    dispatch[name](rep)
    return rep


# ----------------------------------------------------------------------
# argument parsing and report output


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Usage errors exit 2 in one line, the subcommands' too."""
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    def shared(top: bool) -> argparse.ArgumentParser:
        # Shared flags work both before and after the subcommand.  Only
        # the top level has defaults: argparse copies every attribute the
        # subcommand's parser sets over the top-level namespace, so a
        # default there would erase a flag given before the subcommand.
        unset = None if top else argparse.SUPPRESS
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--threads", type=int, default=unset,
                            help="threads for the extension (default 1)")
        common.add_argument("--seed-size", type=int, default=unset,
                            help="partial pseudo-arc seed size (default 6)")
        common.add_argument("--json", metavar="PATH", default=unset,
                            help="write the JSON report here")
        common.add_argument("--quiet", action="store_true",
                            default=False if top else argparse.SUPPRESS,
                            help="suppress the summary")
        return common

    ap = _Parser(
        prog="asq",
        description="AS-configuration and pseudo-arc computations",
        parents=[shared(top=True)],
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub_common = shared(top=False)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[sub_common])

    p = add("verify", "check a configuration file end to end")
    p.add_argument("group_file")
    p.add_argument("config_file")

    p = add("ruleout", "run one of the order-512 rule-outs")
    p.add_argument("ident", choices=list(TABLE4_IDS))

    p = add("classify", "brute-force classification at small order")
    p.add_argument("order", type=int)

    p = add("filters", "structural filter report for a group")
    p.add_argument("group")

    p = add("pseudoarcs", "seed and extend singular pseudo-arcs")
    p.add_argument("form")
    p.add_argument("--target", type=int, default=9)

    p = add("demo", "build and verify a classical object")
    p.add_argument("name")
    return ap


# The commands that search pseudo-arcs, and so the only ones that take
# --seed-size and --threads.
ARC_SEARCHES = {"pseudoarcs"} | {f"ruleout {ident}" for ident in _ARC_RULEOUTS}


def _check_writable(path: str) -> None:
    """Refuse a report path that cannot be written, before the run."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK) \
            or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise InputError(f"cannot write the JSON report to {path!r}")


def run(argv: Optional[Sequence[str]] = None) -> Tuple[RunReport, int]:
    args = build_parser().parse_args(argv)
    name = f"ruleout {args.ident}" if args.cmd == "ruleout" else args.cmd
    arc_flags: Dict[str, int] = {}
    if name in ARC_SEARCHES:
        arc_flags["seed_size"] = 6 if args.seed_size is None else args.seed_size
        arc_flags["threads"] = 1 if args.threads is None else args.threads
        if arc_flags["threads"] < 1:
            raise InputError("--threads must be positive")
    elif args.seed_size is not None or args.threads is not None:
        raise InputError(f"{name} searches no arcs: it takes no --seed-size or --threads")
    if args.json:
        _check_writable(args.json)
    t0 = time.monotonic()
    if args.cmd == "verify":
        rep = cmd_verify(args.group_file, args.config_file)
    elif args.cmd == "ruleout":
        rep = cmd_ruleout(args.ident, **arc_flags)
    elif args.cmd == "classify":
        rep = cmd_classify(args.order)
    elif args.cmd == "filters":
        rep = cmd_filters(args.group)
    elif args.cmd == "pseudoarcs":
        rep = cmd_pseudoarcs(args.form, target=args.target, **arc_flags)
    else:
        rep = cmd_demo(args.name)
    rep.wall_time = time.monotonic() - t0
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2)
            fh.write("\n")
    if not args.quiet:
        _print_summary(rep)
    return rep, 0 if rep.passed else 1


def _print_summary(rep: RunReport) -> None:
    print(f"asq {rep.command} ({rep.wall_time:.1f}s)")
    for k in sorted(rep.counts):
        print(f"  {k}: {rep.counts[k]}")
    for k in sorted(rep.verdicts):
        print(f"  {k}: {'pass' if rep.verdicts[k] else 'FAIL'}")
    if not rep.passed and rep.notes:
        print(f"  notes: {rep.notes}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        _, code = run(argv)
        return code
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
