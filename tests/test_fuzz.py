"""Fuzzed input files and flags: the parsers raise only ValueError, and
the command line exits 0, 1 or 2 with no exception escaping.

Fuzzed forms stay at dim <= 6 and fuzzed groups small, and the builtin
rule-outs are never run, so the whole file takes a few seconds."""
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asq import cli
from asq.asconfig import ASConfiguration, parse_config, save_config
from asq.groups import (
    FiniteGroup,
    HeisenbergGroup,
    cyclic,
    dihedral8,
    load_group,
    quaternion8,
    save_group,
)
from asq.quadform import QuadraticForm, load_form
from asq.search import brute_force_as_configs

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Each text is well formed, or one edit away from it, or fuzzed lines
# of tokens near the formats' own, so that most texts get past line 1.
token = st.one_of(st.integers(-3, 30).map(str), st.sampled_from(
    ["", "0", "1", "01", "10", "0101", "x", ":", "-", "1e3", "²", "0x1", " "]))
line = st.lists(token, max_size=6).map(" ".join)


@st.composite
def edited(draw, lines):
    """The lines, as they are or with one line dropped, replaced or
    added."""
    lines = list(lines)
    at = draw(st.integers(0, len(lines)))
    edit = draw(st.sampled_from(["none", "drop", "replace", "add"]))
    if edit == "drop" and at < len(lines):
        del lines[at]
    elif edit == "replace" and at < len(lines):
        lines[at] = draw(line)
    elif edit == "add":
        lines.insert(at, draw(line))
    return "\n".join(lines) + "\n"


def square(d):
    return st.lists(st.text("01", min_size=d, max_size=d), min_size=d, max_size=d)


form_text = st.integers(1, 6).flatmap(
    lambda d: square(d).flatmap(lambda rows: edited([f"dim {d}"] + rows)))
group_text = st.one_of(
    st.integers(1, 4).flatmap(lambda d: square(d).flatmap(
        lambda rows: edited(["kind: cocycle", f"dim: {d}"] + rows))),
    st.sampled_from([2, 3, 4, 11]).flatmap(
        lambda p: edited(["kind: heisenberg", f"p: {p}"])),
    st.sampled_from([cyclic(2), cyclic(4), dihedral8(), quaternion8()]).flatmap(
        lambda G: edited(save_group(G).splitlines())),
    st.lists(line, max_size=4).map(lambda rows: "\n".join(["kind: table"] + rows)),
)
config_text = st.one_of(
    st.sampled_from([2, 3, 4]).flatmap(lambda q: st.lists(
        st.lists(st.integers(0, 26), max_size=3), min_size=q + 2, max_size=q + 2).flatmap(
        lambda subs: edited([f"q: {q}"] + [f"U{i}: " + " ".join(map(str, gens))
                                           for i, gens in enumerate(subs)]))),
    edited(save_config(brute_force_as_configs(HeisenbergGroup(3))[0]).splitlines()),
)


@FUZZ
@given(group_text)
def test_load_group_fuzzed(text):
    try:
        assert isinstance(load_group(text), FiniteGroup)
    except ValueError:
        pass


@FUZZ
@given(form_text)
def test_load_form_fuzzed(text):
    try:
        assert isinstance(load_form(text), QuadraticForm)
    except ValueError:
        pass


@FUZZ
@given(config_text, st.booleans())
def test_parse_config_fuzzed(text, validate):
    try:
        assert isinstance(parse_config(text, HeisenbergGroup(3), validate), ASConfiguration)
    except ValueError:
        pass


arc_flags = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--seed-size", "--target"]), st.integers(-1, 10).map(str)),
    st.tuples(st.just("--threads"), st.integers(-1, 2).map(str)),
    st.tuples(st.sampled_from(["--threads", "--seed-size"]), st.sampled_from(["x", ""])),
    st.just(("--json", "report.json")), st.just(("--json", "missing/report.json")),
    st.just(("--json", ".")), st.just(("--quiet",)), st.just(("--bogus",)),
), max_size=3)


@settings(FUZZ, max_examples=150)
@given(st.sampled_from(["verify", "filters", "pseudoarcs"]), group_text, config_text,
       form_text, arc_flags)
def test_cli_fuzzed(command, group, config, form, flags):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("g", group), ("c", config), ("f", form)):
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        files = {"verify": ["g", "c"], "filters": ["g"], "pseudoarcs": ["f"]}[command]
        argv = [command] + [os.path.join(tmp, f) for f in files]
        for flag in flags:
            argv += [flag[0]] + [os.path.join(tmp, v) if flag[0] == "--json" else v
                                 for v in flag[1:]]
        code = cli.main(argv + ["--quiet"])
    assert code in (0, 1, 2)
