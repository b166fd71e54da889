"""Tests of the benchmark's own code: input generators, oracle gate,
span recorder, host-speed scaling and metric lists.  Run with `python3 -m pytest perfbench`."""
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import gen_inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from asq import cli  # noqa: E402
from asq.permgroup import PermGroup  # noqa: E402
from asq.quadform import apply_matrix, isometry_generators, load_form, preset  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_rebased_form_keeps_isometry_order(seed):
    form = load_form(gen_inputs.arcs_form(seed, 0))
    assert form != preset("plus8")
    gens = [[apply_matrix(g, v) for v in range(1 << form.dim)]
            for g in isometry_generators(form)]
    assert PermGroup(gens, 1 << form.dim).order() == 348364800


def test_pulled_back_form_matches_q_of_av():
    q = preset("plus8")
    a = gen_inputs.random_basis_change(8, random.Random(3))
    qa = gen_inputs.pulled_back_form(q, a)
    assert all(qa.evaluate(v) == q.evaluate(apply_matrix(a, v)) for v in range(256))


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_configs_pass_verify(seed, tmp_path):
    files = gen_inputs.verify_files(seed)
    assert set(files) == {"h3", "hyperoval"}
    for name, (group_text, config_text) in files.items():
        assert group_text.startswith("kind: table")
        g, c = tmp_path / f"{name}.group", tmp_path / f"{name}.config"
        g.write_text(group_text)
        c.write_text(config_text)
        rep, code = cli.run(["verify", str(g), str(c), "--quiet"])
        assert code == 0
        op = {"name": f"verify {name}", "exit": code,
              "counts": {**rep.counts, "failed_verdicts": []}}
        assert oracle.mismatches(op) == []


def test_generators_repeat_for_a_seed():
    assert gen_inputs.arcs_form(7, 1) == gen_inputs.arcs_form(7, 1)
    assert gen_inputs.arcs_form(7, 1) != gen_inputs.arcs_form(7, 2)
    planes = gen_inputs.minus8_planes()
    a = gen_inputs.minus8_plane_sample(planes, 7, 0)
    assert a == gen_inputs.minus8_plane_sample(planes, 7, 0)
    assert len({tuple(b) for b in a}) == gen_inputs.PLANES_PER_ROUND
    assert gen_inputs.verify_files(7) == gen_inputs.verify_files(7)


def _good_arcs_op():
    return {"name": "pseudoarcs", "exit": 0,
            "counts": dict(oracle.ORACLE["pseudoarcs"][1])}


def test_oracle_gate_accepts_the_oracle():
    assert oracle.mismatches(_good_arcs_op()) == []


@pytest.mark.parametrize("tamper", [
    lambda op: op["counts"].update(seeds=1401),
    lambda op: op["counts"].update(extend_arcs_nodes=1419),
    lambda op: op["counts"].pop("arcs"),
    lambda op: op["counts"].update(failed_verdicts=["all_revalidate"]),
    lambda op: op.update(exit=1),
])
def test_oracle_gate_fails_a_tampered_op(tamper):
    op = _good_arcs_op()
    tamper(op)
    assert oracle.mismatches(op)


def test_oracle_gate_fails_an_unknown_op():
    assert oracle.mismatches({"name": "ruleout 208a", "exit": 0, "counts": {}})


def test_self_time_subtracts_child_spans():
    # parent 1 spans [0, 10]; children 2 [1, 4] and 3 [5, 6]; 4 nested in 2
    s = [(4, 2, "c", 2.0, 3.0), (2, 1, "b", 1.0, 4.0), (3, 1, "b", 5.0, 6.0),
         (1, 0, "a", 0.0, 10.0)]
    own, calls = spans.self_times(s)
    assert own == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_recorder_wraps_every_binding_and_restores_them():
    import asq.groups
    import asq.search

    original = asq.groups.frattini
    assert asq.search.frattini is original
    rec = spans.Recorder(spans=True)
    rec.install()
    try:
        assert asq.search.frattini is asq.groups.frattini is not original
        G = asq.groups.elementary_abelian(3)
        asq.search.frattini(G)
    finally:
        rec.uninstall()
    assert asq.search.frattini is asq.groups.frattini is original
    _own, calls = spans.self_times(rec.spans)
    assert calls["groups.frattini"] == 1


def test_scaling_divides_out_host_speed_and_sampling_time():
    nominal = speed.NOMINAL_S
    rounds = [
        # half speed: the kernel took twice as long
        {"wall_s": 2.1, "cpu_s": 2.1, "sampler_s": 0.1, "speed_samples": [2 * nominal]},
        {"wall_s": 1.0, "cpu_s": 1.0, "sampler_s": 0.0, "speed_samples": [nominal]},
        # too short for a sample: the run's pooled samples apply
        {"wall_s": 0.5, "cpu_s": 0.5, "sampler_s": 0.0, "speed_samples": []},
    ]
    assert run.scaled(rounds, "wall_s") == pytest.approx([1.0, 1.0, 0.375])


def test_sampler_collects_samples_while_running_and_stops():
    import signal
    import time

    sampler = speed.Sampler()
    sampler.start()
    t_end = time.monotonic() + 5 * speed.INTERVAL_S
    while time.monotonic() < t_end:
        sum(range(1000))
    sampler.stop()
    taken = len(sampler.samples)
    assert taken >= 2 and sampler.spent >= sum(sampler.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(2 * speed.INTERVAL_S)
    assert len(sampler.samples) == taken


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    named = {n.rsplit(".", 1)[0] for n, _ in spans.PER_LAYER}
    wrapped = {spans.span_name(m, a) for m, a, _ in spans.TARGETS}
    assert named - wrapped == {"trace"}


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
