#!/usr/bin/env python3
"""Pipeline benchmark for asq: seeded workloads, oracle-gated, with
end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 perfbench/run.py --workload {arcs,order512,small} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; asq is imported from ./src.
Inputs are generated from the seed before timing.  Each round runs in a
fresh interpreter (perfbench/child.py), one at a time; rounds repeat
while the next is expected to end within S seconds (at least one round).
With --trace 1 each round runs twice, untraced then traced, and the
per-layer metrics come from the traced copy.  End-to-end times are
scaled to a nominal host speed sampled inside each round (speed.py).
Results, spans and inputs go to
.perfbench_work/; the last line of stdout is the JSON summary.
See WORKLOADS.md for why each workload exists.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

THREADS = 2          # --threads for the arcs command; the machine has 2 cores
SETUP_PROBES = 5     # set-up-only interpreters before and again after the rounds
DEADLINE_S = 170     # a run must end within 180 s
# Relabelled forms per arcs round.  The basis change moves the cost of
# arc_seeds by up to ~15% (min_image works on the relabelled plane
# indices), so a round averages two of them.
ARCS_FORMS_PER_ROUND = 2

# The end-to-end metrics, in BENCHMARK.json order: (metric, unit).
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# ----------------------------------------------------------------------
# workloads: the ops of round r, from the seed


def arcs_ops(seed: int, r: int, work: str, cache: dict,
             forms: int = ARCS_FORMS_PER_ROUND) -> List[dict]:
    import gen_inputs

    ops = []
    for k in range(forms * r, forms * (r + 1)):
        path = os.path.join(work, f"plus8-rebased-{k}.form")
        with open(path, "w") as fh:
            fh.write(gen_inputs.arcs_form(seed, k))
        argv = ["pseudoarcs", path, "--seed-size", "6", "--target", "9",
                "--threads", str(THREADS)]
        ops.append({"name": "pseudoarcs", "kind": "cli", "arg": argv})
    return ops


def order512_ops(seed: int, r: int, work: str, cache: dict) -> List[dict]:
    import gen_inputs

    if "planes" not in cache:
        cache["planes"] = gen_inputs.minus8_planes()
    ops = [{"name": "lemma53", "kind": "lemma53", "arg": gen_inputs.lemma53_seed(seed, r)}]
    ops += [{"name": "plane", "kind": "plane", "arg": basis}
            for basis in gen_inputs.minus8_plane_sample(cache["planes"], seed, r)]
    ops.append({"name": "filters 212m", "kind": "cli", "arg": ["filters", "212m"]})
    return ops


def small_ops(seed: int, r: int, work: str, cache: dict) -> List[dict]:
    import gen_inputs

    if "verify" not in cache:
        cache["verify"] = {}
        for name, (group_text, config_text) in gen_inputs.verify_files(seed).items():
            paths = (os.path.join(work, f"{name}.group"), os.path.join(work, f"{name}.config"))
            for path, text in zip(paths, (group_text, config_text)):
                with open(path, "w") as fh:
                    fh.write(text)
            cache["verify"][name] = paths
    ops = [{"name": f"classify {n}", "kind": "cli", "arg": ["classify", str(n)]} for n in (8, 27)]
    ops += [{"name": f"demo {d}", "kind": "cli", "arg": ["demo", d]}
            for d in ("w3q-3", "as35", "field-reduction")]
    ops += [{"name": f"verify {name}", "kind": "cli", "arg": ["verify", *paths]}
            for name, paths in cache["verify"].items()]
    return ops


WORKLOADS = {"arcs": arcs_ops, "order512": order512_ops, "small": small_ops}


# ----------------------------------------------------------------------
# running one child interpreter


class Runner:
    """Spawns child rounds one at a time and keeps every set-up sample."""

    def __init__(self, work: str, t_start: float):
        self.work = work
        self.t_start = t_start
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.setup_samples: List[float] = []       # scaled, see speed.py
        self.raw_setup_samples: List[float] = []
        self.n = 0

    def round(self, ops: List[dict], trace: bool) -> Optional[dict]:
        """Run one child; None if it died, timed out or wrote nothing."""
        self.n += 1
        spec = os.path.join(self.work, f"round-{self.n}.spec.json")
        out = os.path.join(self.work, f"round-{self.n}.out.json")
        with open(spec, "w") as fh:
            json.dump({"trace": trace, "ops": ops}, fh)
        budget = DEADLINE_S - (time.monotonic() - self.t_start)
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec, out], cwd=ROOT, env=self.env,
                                stdout=sys.stderr.fileno(), start_new_session=True)
        try:
            code = proc.wait(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            print(f"round {self.n}: timed out, killing it", file=sys.stderr)
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None
        finally:
            _reap_group(proc.pid)
        if code != 0 or not os.path.exists(out):
            print(f"round {self.n}: child exited with {code}", file=sys.stderr)
            return None
        with open(out) as fh:
            res = json.load(fh)
        raw = res["ready"] - t_spawn
        self.raw_setup_samples.append(raw)
        self.setup_samples.append((raw - res["setup_sampler_s"])
                                  * speed.speed(res["setup_samples"]))
        return res

    def setup_probes(self) -> bool:
        for _ in range(SETUP_PROBES):
            if self.round([], False) is None:
                print("error: a set-up probe failed", file=sys.stderr)
                return False
        return True


def scaled(rounds: List[dict], key: str) -> List[float]:
    """Each round's `key` time rescaled to the nominal host (speed.py):
    the time spent sampling is taken out, and the rest multiplied by the
    host speed sampled during the round.  A round too short to hold a
    sample uses the samples of the whole run."""
    pooled = [s for x in rounds for s in x["speed_samples"]]
    return [(x[key] - x["sampler_s"]) * speed.speed(x["speed_samples"] or pooled)
            for x in rounds]


def _reap_group(pgid: int) -> None:
    """Make sure no process of a child's session outlives it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "asq", "__init__.py")):
        print(f"error: no asq source tree at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, t_start)

    # Warm-up: compiles bytecode once, as an installed package would have.
    warm = runner.round([], False)
    if warm is None:
        print("error: a fresh interpreter cannot import asq", file=sys.stderr)
        return 2
    runner.setup_samples.clear()
    runner.raw_setup_samples.clear()
    if not runner.setup_probes():
        return 2

    import oracle
    import spans

    make_ops = WORKLOADS[args.workload]
    if args.trace and args.workload == "arcs":
        # one form per round: per-layer counts are per command, and an
        # untraced-traced pair ends well inside the deadline
        make_ops = functools.partial(arcs_ops, forms=1)
    cache: dict = {}
    rounds: List[dict] = []     # untraced rounds (all rounds when --trace 0)
    traced: List[dict] = []
    attempted, failed, failures = 0, 0, []
    # Rounds (in a traced run, untraced-traced pairs) repeat while the
    # next one is expected to end within --seconds; there is at least one.
    t_measure = time.monotonic()
    r = 0
    while True:
        ops = make_ops(args.seed, r, work, cache)
        for is_traced in ((False, True) if args.trace else (False,)):
            res = runner.round(ops, is_traced)
            attempted += len(ops)
            if res is None:
                failed += len(ops)
                failures.append(f"round {runner.n}: no result for its {len(ops)} ops")
                continue
            for op in res["ops"]:
                bad = oracle.mismatches(op)
                failed += bool(bad)
                failures += [f"round {runner.n}: {m}" for m in bad]
            (traced if is_traced else rounds).append(res)
        r += 1
        now = time.monotonic()
        per_round = (now - t_measure) / r
        if now - t_measure + per_round > args.seconds or \
                now - t_start + 1.5 * per_round > DEADLINE_S:
            break
    if not runner.setup_probes():
        return 2

    metrics: Dict[str, dict] = {}
    if args.trace:
        # Times are medians over the traced rounds; counts and ratios come
        # from round 0 alone, so that they repeat exactly for a seed even
        # when the number of rounds (each with its own inputs) varies.
        per_round = [spans.layer_metrics(t["trace"]) for t in traced]
        for name, unit in spans.PER_LAYER:
            if name == "trace.overhead_ratio":
                # raw times on both sides; the untraced rounds' sampling
                # time is taken out, since traced rounds are not sampled
                value = (statistics.median(t["wall_s"] for t in traced)
                         / statistics.median(u["wall_s"] - u["sampler_s"] for u in rounds)
                         if traced and rounds else 0.0)
            elif not per_round:
                value = 0.0
            elif unit == "s":
                value = statistics.median(m[name] for m in per_round)
            else:
                value = per_round[0][name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        sample = {
            "wall_s": scaled(rounds, "wall_s"),
            "cpu_s": scaled(rounds, "cpu_s"),
            "setup_s": runner.setup_samples,
        }
        for name, unit in END_TO_END:
            if name == "peak_rss_mb":
                value = max((x["peak_rss_mb"] for x in rounds), default=0.0)
            elif not sample[name]:
                value = 0.0
            else:
                value = statistics.median(sample[name])
            metrics[name] = {"value": value, "unit": unit}

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": (rounds or traced or [warm])[0]["backend"],
        "threads": THREADS if args.workload == "arcs" else None,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {"correct": not failures and bool(rounds), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "env": env,
        "samples": {"rounds": len(rounds), "traced_rounds": len(traced),
                    "setup": len(runner.setup_samples)},
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": failures,
        "rounds": [{k: v for k, v in x.items() if k != "trace"} for x in rounds + traced],
        "setup_s": runner.setup_samples,
        "raw_setup_s": runner.raw_setup_samples,
        "scaled": {k: sample[k] for k in ("wall_s", "cpu_s")} if not args.trace else None,
        "result": result,
    }
    with open(os.path.join(work, "results.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"env: {json.dumps(env)}")
    print(f"samples: {len(rounds)} rounds, {len(traced)} traced, "
          f"{len(runner.setup_samples)} set-ups; fail_ratio {record['fail_ratio']:.4g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
