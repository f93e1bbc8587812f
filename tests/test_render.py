"""The report emitter against json.dumps, its reference.

``cli.render_report`` must write the bytes of
``json.dumps(report, sort_keys=True, indent=2) + "\\n"``: sorted keys, a
two-space indent, ASCII escapes.  It accepts only what reports hold (dicts
with str keys, lists, str, int, bool and None) and refuses anything else
with a TypeError, where json would write a float or a tuple silently.
"""

import copy
import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworksum import cli
from dworksum.errors import BudgetExceeded, LevelTooLarge, ValidationError

ROOT = Path(__file__).resolve().parent.parent

JOBS = sorted((ROOT / "jobs").glob("*.json")) + sorted(
    (ROOT / "bench" / "jobs").glob("*.json")
)

REPORT_TYPES = {dict, list, str, int, bool, type(None)}


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@cache
def report(command: str, path: Path):
    """The command's report on the job, or None when the job is refused."""
    try:
        return cli.run(command, json.loads(path.read_text()))
    except (BudgetExceeded, LevelTooLarge):
        return None


def report_types(value) -> set:
    """Every type in value, with its dict keys."""
    kinds = {type(value)}
    if isinstance(value, dict):
        kinds |= {type(k) for k in value}
        for v in value.values():
            kinds |= report_types(v)
    elif isinstance(value, list):
        for v in value:
            kinds |= report_types(v)
    return kinds


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.stem)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_render_matches_json_dumps_on_every_report(command, path):
    rep = report(command, path)
    if rep is None:
        pytest.skip("refused by budget")
    assert cli.render_report(rep) == reference(rep)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_reports_hold_only_json_types(command):
    reports = [r for r in (report(command, path) for path in JOBS) if r]
    assert reports
    for rep in reports:
        assert report_types(rep) <= REPORT_TYPES, command


# quotes, backslashes, control characters, separators and non-ASCII text
SPECIAL = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\ufeff\U0001f600 :,[]{}'
text = st.text(st.characters() | st.sampled_from(SPECIAL), max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-10**60, 10**60)
    | st.integers(-2**70, -2**62)
    | text
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(-10**40, 10**40), max_size=5)
    | st.dictionaries(text, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(value=values)
def test_render_matches_json_dumps_on_random_values(value):
    assert cli.render_report(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[], {}, [[]], {"": {}}],
        [True, 1, False, 0, None],
        [1, True],
        [-(2**200), 0, 2**200],
        {"b": 1, "a": [2, 3], "A": "x", "": None, "é": "é\n\"\\"},
    ],
    ids=["empty_list", "empty_dict", "nested_empty", "bools_and_ints",
         "int_then_bool", "big_ints", "keys_and_escapes"],
)
def test_render_matches_json_dumps_on_edge_values(value):
    assert cli.render_report(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        1.0,
        float("nan"),
        (1, 2),
        np.int64(3),
        Fraction(1, 2),
        {1: 2},
        {None: 1},
        {"a": [1, 2.0]},
        {"a": [np.int64(1)]},
        {"a": {"b": (0,)}},
        [{("k",): 1}],
    ],
    ids=["float", "nan", "tuple", "np_int64", "fraction", "int_key",
         "none_key", "float_in_int_list", "np_int64_in_list", "nested_tuple",
         "tuple_key"],
)
def test_render_refuses_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        cli.render_report(value)


# hyp entries are written from per-shape templates; an off-shape copy of the
# report must fall back to the emitter and still give json.dumps's bytes
HYP_JOB = ROOT / "bench" / "jobs" / "hyp_twist_p5f2.json"


def hyp_variant(mutate):
    rep = copy.deepcopy(report("hyp", HYP_JOB))
    mutate(rep["result"]["entries"])
    return rep


def first_with_triples(entries, k=1):
    return next(e for e in entries if len(e["value"]["triples"]) >= k)


def resize_triples(entries):
    # one triple short and one long in one entry: the int count is kept
    found = first_with_triples(entries, 2)["value"]["triples"]
    found[0].pop()
    found[1].append(7)


HYP_VARIANTS = {
    "extra_key": lambda es: es[3].update(y=1),
    "extra_value_key": lambda es: es[5]["value"].update(z=[]),
    "short_triple": lambda es: first_with_triples(es)["value"]["triples"][0].pop(),
    "long_triple": lambda es: first_with_triples(es)["value"]["triples"][0].append(2),
    "short_and_long_triple": resize_triples,
    "other_precision": lambda es: es[7]["value"].update(precision=[3, 1]),
    # the entries share one precision list, so give one entry its own
    "long_precision": lambda es: es[7]["value"].update(precision=[6, 1, 1]),
    "list_entry": lambda es: es.__setitem__(2, ["value", "x"]),
    "list_value": lambda es: es[2].update(value=["precision", "triples"]),
    "int_precision": lambda es: es[4]["value"].update(precision=6),
    "int_triples": lambda es: es[4]["value"].update(triples=0),
    "str_x": lambda es: es[4].update(x="ab"),
    "bool_in_triple": lambda es: first_with_triples(es)["value"]["triples"][0].__setitem__(2, True),
    "bool_in_x": lambda es: es[-1]["x"][0].__setitem__(0, True),
    "short_x": lambda es: es[9]["x"].pop(),
    "short_x_row": lambda es: es[9]["x"][1].pop(),
    "empty_entries": lambda es: es.clear(),
}


@pytest.mark.parametrize("name", HYP_VARIANTS)
def test_render_off_shape_hyp_entries(name):
    rep = hyp_variant(HYP_VARIANTS[name])
    assert cli.render_report(rep) == reference(rep)


def test_render_hyp_result_with_another_key():
    rep = hyp_variant(lambda es: None)
    rep["result"]["more"] = [1, True]
    assert cli.render_report(rep) == reference(rep)


@pytest.mark.parametrize("bad", [1.0, np.int64(1), (1,)], ids=["float", "np_int64", "tuple"])
def test_render_refuses_a_non_int_in_hyp_entries(bad):
    rep = hyp_variant(
        lambda es: first_with_triples(es)["value"]["triples"][0].__setitem__(2, bad)
    )
    with pytest.raises(TypeError):
        cli.render_report(rep)


def emit_calls(monkeypatch, value) -> int:
    calls = [0]
    emit = cli._emit

    def counted(*args):
        calls[0] += 1
        return emit(*args)

    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", counted)
        text = cli.render_report(value)
    assert text == reference(value)
    return calls[0]


def test_hyp_entries_take_the_template_path(monkeypatch):
    # the emitter writes only the job echo; walking the entries of
    # hyp_twist_p5f2 through it takes about 8,000 calls
    reports = [r for r in (report("hyp", path) for path in JOBS) if r]
    assert reports
    for rep in reports:
        assert emit_calls(monkeypatch, rep) < 100
    assert emit_calls(monkeypatch, hyp_variant(HYP_VARIANTS["short_x"])) > 1000


def seeded_hyp_job(seed, p, f, n, N) -> dict:
    """A random hyp job over F_{p^f} with N columns: entries in [-2, 2] for A
    and a twist in [1, q - 2], redrawn until the job validates."""
    rng = random.Random(seed)
    q = p**f
    while True:
        job = {
            "p": p, "f": f,
            "A": [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)],
            "gamma_k": [rng.randrange(1, q - 1) for _ in range(n)],
            "a": [[rng.randrange(p) for _ in range(f)] for _ in range(N)],
            "precision": {"M": rng.randint(2, 4)},
        }
        try:
            cli.JobConfig(job)
        except ValidationError:
            continue
        return job


# p = 2 is refused, so f = 3 is taken over F_27
@pytest.mark.parametrize(
    "p,f,n,N", [(3, 3, 1, 2), (3, 1, 2, 4)], ids=["f3_N2", "f1_N4"]
)
def test_render_hyp_shapes_beyond_the_sample_jobs(monkeypatch, p, f, n, N):
    rep = cli.run("hyp", seeded_hyp_job(20261020, p, f, n, N))
    entries = rep["result"]["entries"]
    assert len(entries) == p ** (f * N)
    assert {len(x) for e in entries for x in e["x"]} == {f}
    assert emit_calls(monkeypatch, rep) < 100
