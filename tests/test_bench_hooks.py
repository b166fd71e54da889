"""The pipeline benchmark's hooks into asq: perfbench/spans.py wraps asq
functions by name and reads SearchTrace counters through its probes,
perfbench/gen_inputs.py builds its inputs from asq, and perfbench/child.py
calls asq by name, so a rename or a changed signature fails here before
it fails a benchmark run."""
import hashlib
import os

from asq import cli, gf2, groups, search

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_span_targets_resolve_and_probes_read_counts(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    rec = spans.Recorder(spans=True)
    try:
        rec.install()  # looks up every TARGETS name; a missing one raises
        rep, code = cli.run(["pseudoarcs", "minus8", "--seed-size", "4", "--threads", "1",
                             "--quiet"])
        _, code6 = cli.run(["pseudoarcs", "minus8", "--seed-size", "4", "--target", "6",
                            "--threads", "1", "--quiet"])
    finally:
        rec.uninstall()
    assert code == code6 == 0
    assert [r["nodes"] for r in rec.arc_seeds] == [9, 9]
    assert rep.notes["canonical_sets"] == [1, 1, 1, 1, 5]
    # what the benchmark's extension metrics read: the per-seed nodes of
    # the five seeds to size 6 are 14, 20, 25, 30 and 24
    assert len(rec.extend_arcs) == 2 and rec.extend_arcs[0]["nodes"] > 0
    assert rec.extend_arcs[1] == {"nodes": 113, "max_seed_nodes": 30}
    names = {name for _sid, _parent, name, _t0, _t1 in rec.spans}
    assert {"search.arc_seeds", "search.extend_arcs"} <= names


def test_benchmark_imports_resolve(monkeypatch):
    # the names perfbench/child.py calls, and gen_inputs' inputs: the
    # verify files draw a seeded choice from the brute-force list, so a
    # reordered list changes their md5
    monkeypatch.syspath_prepend(BENCH)
    import gen_inputs

    for module, name in ((cli, "extend_arcs"), (search, "lemma53_counts"),
                         (search, "lift_arc"), (groups, "centralizer"),
                         (groups, "table4_group"), (gf2, "rref")):
        assert callable(getattr(module, name)), name
    files = gen_inputs.verify_files(1)
    text = "".join(g + c for _, (g, c) in sorted(files.items()))
    assert hashlib.md5(text.encode()).hexdigest() == "9dd1a89ebb5cedf0b9b35e7698312885"
