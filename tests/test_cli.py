"""Exit codes, report shape and JSON schema conformance."""
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from asq import asconfig, cli, search
from asq.asconfig import save_config
from asq.groups import HeisenbergGroup, cyclic, direct_product, elementary_abelian, save_group
from asq.permgroup import PermGroup
from asq.search import brute_force_as_configs

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs",
                           "report_schema.json")


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def h3_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("h3")
    G = HeisenbergGroup(3)
    cfg = brute_force_as_configs(G)[0]
    gf = tmp / "h3.group"
    cf = tmp / "h3.cfg"
    gf.write_text(save_group(G))
    cf.write_text(save_config(cfg))
    # corrupt copy: duplicate U2
    lines = save_config(cfg).splitlines()
    lines[3] = "U2:" + lines[2].partition(":")[2]
    bad = tmp / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    return str(gf), str(cf), str(bad)


def run_json(tmp_path, argv, schema):
    out = tmp_path / "report.json"
    code = cli.main(list(argv) + ["--json", str(out), "--quiet"])
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, schema)
    return code, rep


def test_verify_good_config(tmp_path, h3_files, schema):
    gf, cf, _ = h3_files
    code, rep = run_json(tmp_path, ["verify", gf, cf], schema)
    assert code == 0
    assert rep["verdicts"]["config_valid"]
    assert rep["verdicts"]["as_gq"] and rep["verdicts"]["kantor_gq"]
    assert rep["counts"]["srg_v"] == 27


def test_verify_corrupted_config(tmp_path, h3_files, schema):
    gf, _, bad = h3_files
    code, rep = run_json(tmp_path, ["verify", gf, bad], schema)
    assert code == 1
    assert rep["verdicts"]["config_valid"] is False
    assert "duplicate" in rep["notes"]["config_witness"]


def test_verify_missing_file_exit2(h3_files):
    gf, _, _ = h3_files
    assert cli.main(["--quiet", "verify", gf, "/nonexistent.cfg"]) == 2


def test_classify_8(tmp_path, schema):
    code, rep = run_json(tmp_path, ["classify", "8"], schema)
    assert code == 0
    assert rep["counts"]["configs_C2^3"] == 28
    assert sum(v for k, v in rep["counts"].items()) == 28


def test_classify_unsupported_order():
    assert cli.main(["--quiet", "classify", "5"]) == 2


def test_filters_heisenberg(tmp_path, schema):
    code, rep = run_json(tmp_path, ["filters", "heisenberg3"], schema)
    assert code == 0
    assert rep["verdicts"]["frattini_small"]


def test_filters_unknown_group():
    assert cli.main(["--quiet", "filters", "nope"]) == 2


def test_demo_field_reduction(tmp_path, schema):
    code, rep = run_json(tmp_path, ["demo", "field-reduction"], schema)
    assert code == 0


def test_demo_unknown():
    assert cli.main(["--quiet", "demo", "nope"]) == 2


def test_pseudoarcs_mixed_form_exit2():
    assert cli.main(["--quiet", "pseudoarcs", "deg-c4"]) == 2


def test_non_isometry_generator_is_a_defect(monkeypatch):
    # a plane image missing from the catalogue is a fault, not bad input:
    # swapping e2 and e3 moves Q, so it maps singular planes off the catalogue
    swap = (1, 4, 2) + tuple(1 << i for i in range(3, 8))
    monkeypatch.setattr(search, "isometry_generators", lambda form: [swap])
    with pytest.raises(AssertionError):
        cli.main(["--quiet", "pseudoarcs", "minus8", "--target", "5", "--seed-size", "4"])


def test_arc_search_reports_stage_times(tmp_path, schema):
    argv = ["pseudoarcs", "minus8", "--target", "5", "--seed-size", "4"]
    code, rep = run_json(tmp_path, argv, schema)
    assert code == 0
    stages = rep["notes"]["stage_s"]
    assert sorted(stages) == ["arc_seeds", "catalogue", "extend_arcs", "order"]
    assert all(t >= 0 for t in stages.values())
    assert rep["notes"]["canonical_sets"] == [1, 1, 1, 1, 5]


def test_group_level_commands_report_stage_times(tmp_path, schema):
    code, rep = run_json(tmp_path, ["ruleout", "210b"], schema)
    assert code == 0
    assert sorted(rep["notes"]["stage_s"]) == ["enumeration", "pools", "size6"]
    assert rep["notes"]["nodes"] == 33690
    code, rep = run_json(tmp_path, ["ruleout", "212m"], schema)
    assert code == 0
    assert sorted(rep["notes"]["stage_s"]) == ["arc_seeds", "catalogue", "extend_arcs",
                                               "families", "obstruction", "order"]
    assert rep["notes"]["nodes"] == 0  # no arcs, so no family search
    assert all(t >= 0 for t in rep["notes"]["stage_s"].values())
    code, rep = run_json(tmp_path, ["filters", "212m"], schema)
    assert code == 0
    assert sorted(rep["notes"]["stage_s"]) == ["clique", "enough_subgroups",
                                               "good_subgroups", "structural_filter"]
    assert all(t >= 0 for t in rep["notes"]["stage_s"].values())


def test_group_level_commands_report_search_counts(tmp_path, schema):
    # how much each filter searched on 212m: 6120 good subgroups, 765
    # distinct products Phi H, and the first U_0 candidate passes; lemma
    # 5.3 enumerates 8640 order-8 subgroups of 210b meeting Z(G) trivially
    code, rep = run_json(tmp_path, ["filters", "212m"], schema)
    assert code == 0
    assert {k: rep["counts"][k] for k in ("good_subgroups", "phi_products",
                                          "u0_candidates_tested")} == {
        "good_subgroups": 6120, "phi_products": 765, "u0_candidates_tested": 1}
    code, rep = run_json(tmp_path, ["ruleout", "210b"], schema)
    assert code == 0 and rep["counts"]["order8_subgroups"] == 8640
    code, rep = run_json(tmp_path, ["filters", "heisenberg3"], schema)
    assert rep["counts"] == {"u0_candidates_tested": 0}  # odd q: no U_0 search


def test_ruleout_208a_reports_family_nodes(tmp_path, schema, monkeypatch, deghyp_pipeline):
    # the arc search is the session's, so only the lifts and the family
    # backtrack run here: 105104 nodes over the 8 arcs, 0 families
    cat, seeds, arcs = deghyp_pipeline
    monkeypatch.setattr(cli, "PlaneCatalogue", lambda form: cat)
    monkeypatch.setattr(cli, "arc_seeds", lambda cat, seed_size, trace=None: seeds)
    monkeypatch.setattr(cli, "extend_arcs", lambda cat, seeds, target, threads=1: arcs)
    code, rep = run_json(tmp_path, ["ruleout", "208a"], schema)
    assert code == 0 and rep["counts"]["families"] == 0
    assert rep["notes"]["nodes"] == 105104


def test_filters_abelian_group_file_skips_subgroup_enumeration(tmp_path, schema, monkeypatch):
    # C2^9 (q = 8) has 788035 subgroups of order 8; both subgroup-clique
    # predicates hold at once on abelian groups and need none of them
    def refuse(*args):
        raise AssertionError("good_subgroups called on an abelian group")
    monkeypatch.setattr(cli, "good_subgroups", refuse)
    monkeypatch.setattr(asconfig, "good_subgroups", refuse)
    path = tmp_path / "c2-9.group"
    path.write_text(save_group(elementary_abelian(9)))
    code, rep = run_json(tmp_path, ["filters", str(path)], schema)
    assert code == 1 and not rep["verdicts"]["nonabelian"]
    assert rep["verdicts"]["enough_subgroups"] and rep["verdicts"]["clique_of_size_q_plus_1"]
    assert sorted(rep["notes"]["stage_s"]) == ["clique", "enough_subgroups", "structural_filter"]


def test_commands_leave_numpy_ma_unimported():
    # np.unique and np.isin import numpy.ma on their first call: 14-26 ms
    # and 1.6-2.4 MB of a fresh interpreter
    script = ("import random, sys\n"
              "from asq import cli, groups, search\n"
              "cli.main(['--quiet', 'pseudoarcs', 'plus8', '--threads', '1'])\n"
              "cli.main(['--quiet', 'filters', '212m'])\n"
              "cli.main(['--quiet', 'ruleout', '210b'])\n"
              "search.lemma53_counts(groups.table4_group('210b'), random.Random(1))\n"
              "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_flags_accepted_after_subcommand(tmp_path, schema):
    argv = ["pseudoarcs", "minus8", "--target", "5"]
    code, rep = run_json(tmp_path, argv + ["--seed-size", "4", "--threads", "2"], schema)
    assert code == 0
    assert rep["counts"]["seeds"] == 5 and rep["inputs"]["seed_size"] == 4
    assert cli.main(["--quiet", "--threads", "2"] + argv + ["--seed-size", "4"]) == 0


@pytest.mark.parametrize("argv", [["classify", "27"], ["filters", "heisenberg3"],
                                  ["verify", "g.group", "c.cfg"], ["demo", "w3q-3"]])
@pytest.mark.parametrize("flags", [["--threads", "2"], ["--seed-size", "99"],
                                   ["--threads", "1", "--seed-size", "6"]])
def test_unused_arc_flags_rejected(capsys, argv, flags):
    assert cli.main(["--quiet"] + argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]} ") and err.count("\n") == 1
    assert cli.main(flags + ["--quiet"] + argv) == 2  # flags before the subcommand


def test_flags_before_subcommand_are_kept():
    args = cli.build_parser().parse_args(
        ["--threads", "3", "--seed-size", "5", "--json", "r.json", "--quiet",
         "pseudoarcs", "minus8"])
    assert (args.threads, args.seed_size, args.json, args.quiet) == (3, 5, "r.json", True)
    args = cli.build_parser().parse_args(["pseudoarcs", "minus8", "--threads", "4"])
    assert (args.threads, args.seed_size, args.json, args.quiet) == (4, None, None, False)


def test_report_passed_property():
    rep = cli.RunReport("verify")
    assert rep.passed
    rep.verdicts["x"] = False
    assert not rep.passed


@pytest.mark.parametrize("text", [
    "kind: cocycle\n",
    "kind: heisenberg\np: 0\n",
    "kind: heisenberg\np: 4\n",
    "kind: heisenberg\n3\n",
    "kind: table\nn: 3\n0 1 2\n1 0 7\n2 0 1\n",
])
def test_bad_group_file_exit2(tmp_path, capsys, text):
    path = tmp_path / "bad.group"
    path.write_text(text)
    assert cli.main(["--quiet", "filters", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("G", [cyclic(2), cyclic(4),
                               direct_product(direct_product(cyclic(6), cyclic(6)), cyclic(6))])
def test_filters_order_not_prime_power_cube_exit2(tmp_path, capsys, G):
    # the filters need |G| = q^3 with q a prime power: 2, 4 and 216 fail
    path = tmp_path / "g.group"
    path.write_text(save_group(G))
    assert cli.main(["--quiet", "filters", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["missing", "directory"])
def test_unwritable_json_path_exit2_before_the_run(tmp_path, capsys, monkeypatch, where):
    # the path is checked before the command runs, which here would fail
    def run_nothing(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_classify", run_nothing)
    assert cli.main(["--quiet", "--json", str(tmp_path / where), "classify", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_group_path_is_directory_exit2(tmp_path):
    assert cli.main(["--quiet", "filters", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, names", [
    (["classify", "abc"], "order"),
    (["ruleout", "999"], "ident"),
    (["demo"], "name"),
    (["--threads", "x", "demo", "as35"], "--threads"),
    (["pseudoarcs", "plus8", "--target", "0"], "--target"),
])
def test_usage_errors_exit2_in_one_line(capsys, argv, names):
    # argparse's own errors as well as the range checks
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err


@pytest.mark.parametrize("size", ["0", "12"])
def test_pseudoarcs_impossible_seed_size_exit2(size):
    argv = ["--quiet", "pseudoarcs", "minus8", "--seed-size", size, "--target", "3"]
    assert cli.main(argv) == 2


@pytest.mark.parametrize("text, planes", [("dim 3\n000\n000\n000\n", 1),
                                         ("dim 4\n0100\n0000\n0000\n0000\n", 2)])
def test_pseudoarcs_non_faithful_plane_action(tmp_path, schema, text, planes):
    # the dim-3 zero form and x0x1 on F_2^4: the point group's order
    # (168, 192) only bounds the plane group's (1, 2)
    path = tmp_path / "nf.form"
    path.write_text(text)
    argv = ["pseudoarcs", str(path), "--seed-size", "1", "--target", "2"]
    code, rep = run_json(tmp_path, argv, schema)
    assert code == 0
    assert rep["counts"] == {"planes": planes, "seeds": 1, "arcs": 0}


@pytest.mark.parametrize("text", ["dim\n", "dim 0\n", "dim 10\n", "dim x\n"])
def test_bad_form_file_exit2(tmp_path, capsys, text):
    path = tmp_path / "bad.form"
    path.write_text(text)
    assert cli.main(["--quiet", "pseudoarcs", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--seed-size", "6"], ["--threads", "1"],
                                   ["--seed-size", "99", "--threads", "7"]])
def test_ruleout_210b_rejects_arc_flags(capsys, flags):
    assert cli.main(["--quiet", "ruleout", "210b"] + flags) == 2
    assert "210b" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["pseudoarcs", "plus8"], ["ruleout", "208a"],
                                  ["ruleout", "211p"], ["ruleout", "212m"]], ids=" ".join)
def test_arc_searches_honour_arc_flags(monkeypatch, argv):
    # every arc search hands its flags to the one arc pipeline; without
    # --threads it runs serially, and reads no environment variable
    seen = []

    class Catalogue:
        def __init__(self, form):
            self.n, self.planes, self.group = 0, [], PermGroup([], 0)

    def seeds(cat, seed_size, trace=None):
        seen.append(seed_size)
        return []

    def extend(cat, seeds, target, threads=1):
        seen.append((target, threads))
        return []

    monkeypatch.setattr(cli, "PlaneCatalogue", Catalogue)
    monkeypatch.setattr(cli, "arc_seeds", seeds)
    monkeypatch.setattr(cli, "extend_arcs", extend)
    assert cli.main(["--quiet"] + argv + ["--seed-size", "5", "--threads", "3"]) != 2
    assert cli.main(["--quiet"] + argv + ["--threads", "2"]) != 2
    assert seen == [5, (9, 3), 6, (9, 2)]
    monkeypatch.setenv("ASQ_THREADS", "many")
    # the fakes find no arcs, so 208a and 211p miss their expected counts
    # and exit 1 either way; pseudoarcs and 212m exit 0
    code = cli.main(["--quiet"] + argv)
    assert code == cli.main(["--quiet"] + argv + ["--threads", "1"])
    assert code == (1 if argv[-1] in ("208a", "211p") else 0)
    assert seen[4:] == [6, (9, 1), 6, (9, 1)]
    assert cli.main(["--quiet"] + argv + ["--seed-size", "99"]) == 2
    assert len(seen) == 8
