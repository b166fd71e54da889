"""One round of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json OUT.json

SPEC holds {"trace": bool, "ops": [...]}; an empty op list makes a
set-up probe.  The child imports asq (set-up ends there), runs the ops
in order and writes OUT: the set-up end on the system-wide monotonic
clock, the round's wall and CPU time (CPU includes forked workers, which
asq reaps before returning), its peak RSS, the backend, each op's exit
code and counts, and in a traced round the recorder's snapshot.  Set-up
and every untraced round run under the host-speed sampler of speed.py;
OUT also holds its samples and the time spent taking them.
"""
import sys
import time

import speed

_SETUP = speed.Sampler()
_SETUP.start()

import asq._kernels  # noqa: E402
import asq.cli  # noqa: E402

READY = time.monotonic()
_SETUP.stop()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from functools import cache  # noqa: E402
from random import Random  # noqa: E402

import spans  # noqa: E402
from asq import gf2, groups, search  # noqa: E402



def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_cli(argv, rec):
    """`asq ARGV` through asq.cli.run; counts are the report's counts,
    plus the node counts and group order the probes read."""
    n_seeds, n_ext = len(rec.arc_seeds), len(rec.extend_arcs)
    try:
        rep, code = asq.cli.run(list(argv) + ["--quiet"])
    except asq.cli.InputError as e:
        return 2, {"error": str(e)}
    counts = dict(rep.counts)
    counts["failed_verdicts"] = sorted(k for k, ok in rep.verdicts.items() if not ok)
    for r in rec.arc_seeds[n_seeds:]:
        counts["arc_seeds_nodes"] = r["nodes"]
        counts["group_order"] = r["group_order"]
    for r in rec.extend_arcs[n_ext:]:
        counts["extend_arcs_nodes"] = r["nodes"]
    return code, counts


def run_lemma53(rng_seed, rec):
    res = search.lemma53_counts(groups.table4_group("210b"), rng=Random(rng_seed))
    return 0, {"pool": res["pool"],
               "distribution": sorted([k, v] for k, v in res["distribution"].items()),
               "size6_families": res["size6_families"]}


@cache
def _group_212m():
    return groups.table4_group("212m")


def run_plane(basis, rec):
    """The per-plane step of the 212m rule-out: lift W to its candidate
    subgroups and check C_G(U) = preimage of W^perp for each.  asq is
    called through its modules, so the recorder's wrappers see the calls."""
    G = _group_212m()
    form = G.form
    plane = gf2.rref(basis, G.d)
    top = 1 << G.d
    rows = [form.bilinear_row(b) for b in plane.basis]
    perp = [v for v in range(top) if all(bin(r & v).count("1") % 2 == 0 for r in rows)]
    pre_perp = tuple(sorted(perp + [v | top for v in perp]))
    pool, dropped = search.lift_arc(G, [plane])
    ok = all(groups.centralizer(G, u.elements).elements == pre_perp for u in pool)
    return 0, {"candidates": len(pool), "dropped": len(dropped),
               "centralizer_is_perp_preimage": ok}


RUNNERS = {"cli": run_cli, "lemma53": run_lemma53, "plane": run_plane}


def _paused(sampler, fn):
    """fn with the sampler paused while it runs (for forking calls)."""
    def wrapper(*args, **kwargs):
        sampler.pause()
        try:
            return fn(*args, **kwargs)
        finally:
            sampler.resume()
    return wrapper


def main() -> None:
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    rec = spans.Recorder(spans=spec["trace"])
    rec.install()
    sampler = None if spec["trace"] else speed.Sampler()
    if sampler:
        forking = asq.cli.extend_arcs
        asq.cli.extend_arcs = _paused(sampler, forking)
    cpu0 = _cpu()
    t0 = time.perf_counter()
    if sampler:
        sampler.start()
    ops = []
    for op in spec["ops"]:
        ts = time.perf_counter()
        try:
            code, counts = RUNNERS[op["kind"]](op["arg"], rec)
        except Exception:  # one op's crash is a failed op, not a lost round
            traceback.print_exc()
            code, counts = "exception", {}
        ops.append({"name": op["name"], "exit": code, "counts": counts,
                    "wall_s": time.perf_counter() - ts})
    if sampler:
        sampler.stop()
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    if sampler:
        asq.cli.extend_arcs = forking
    rec.uninstall()
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {"ready": READY, "setup_samples": _SETUP.samples, "setup_sampler_s": _SETUP.spent,
           "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024,
           "backend": asq._kernels.BACKEND, "ops": ops}
    if sampler:
        out["speed_samples"] = sampler.samples
        out["sampler_s"] = sampler.spent
    if spec["trace"]:
        out["trace"] = rec.snapshot()
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
