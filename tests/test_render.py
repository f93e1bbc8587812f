"""The report emitter against json.dumps, its reference.

``cli.render_report`` must write the bytes of
``json.dumps(report, sort_keys=True, indent=2) + "\\n"``: sorted keys, a
two-space indent, ASCII escapes.  It accepts only what reports hold (dicts
with str keys, lists, str, int, bool and None) and refuses anything else
with a TypeError, where json would write a float or a tuple silently.
"""

import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworksum import cli
from dworksum.errors import BudgetExceeded, LevelTooLarge

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
