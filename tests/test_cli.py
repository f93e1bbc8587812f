import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dworksum import cli
from dworksum import lfunction as lf
from dworksum.errors import BudgetExceeded, ParseError, ValidationError

ROOT = Path(__file__).resolve().parent.parent

FLAGSHIP = {
    "p": 3,
    "f": 1,
    "A": [[1]],
    "gamma_k": [0],
    "a": [[1]],
    "precision": {"M": 6, "m_max": 2},
}

KLOOSTERMAN = {
    "p": 5,
    "f": 1,
    "A": [[1, -1]],
    "gamma_k": [0],
    "a": [1, 1],
    "precision": {"M": 6, "m_max": 2},
}


def test_job_parsing_and_validation():
    with pytest.raises(ParseError):
        cli.JobConfig({"p": 3, "A": [[1], [2, 3]], "gamma_k": [0], "a": [[1]]})
    with pytest.raises(ParseError):
        cli.JobConfig([1, 2, 3])
    with pytest.raises(ValidationError):
        cli.JobConfig({**FLAGSHIP, "p": 4})
    with pytest.raises(ValidationError):
        cli.JobConfig({**FLAGSHIP, "p": 2})
    with pytest.raises(ValidationError):
        cli.JobConfig({**FLAGSHIP, "gamma_k": [0, 0]})
    with pytest.raises(ValidationError):
        cli.JobConfig({**FLAGSHIP, "gamma_k": [1]})  # gamma = -1/2 outside cone
    with pytest.raises(ValidationError):
        cli.JobConfig({**FLAGSHIP, "a": [[1], [1]]})
    with pytest.raises(ValidationError):
        # rank-deficient matrix
        cli.JobConfig({**FLAGSHIP, "A": [[1, 2], [2, 4]], "gamma_k": [0, 0],
                       "a": [[1], [1]]})


def test_mprime_formula():
    job = cli.JobConfig(FLAGSHIP)
    assert job.comparison_precision() == 6 - 1 - 2
    job2 = cli.JobConfig({**KLOOSTERMAN, "precision": {"M": 8, "m_max": 3}})
    assert job2.comparison_precision() == 8 - 1 - 2


def test_polytope_command():
    rep = cli.run("polytope", KLOOSTERMAN)
    res = rep["result"]
    assert res["volume"] == 2
    assert res["denom"] == 1
    assert sorted(res["facets"]) == [[[-1, 1]], [[1, 1]]]
    assert rep["schema"] == 1


def test_gkz_command():
    rep = cli.run("gkz", KLOOSTERMAN)
    res = rep["result"]
    assert res["lattice_basis"] == [[1, 1]]
    assert len(res["euler"]) == 1 and len(res["box"]) == 1
    assert res["phi_kills_boxes"] is True
    assert res["euler"][0]["gamma"] == [0, 1]


def test_sums_and_trace_commands():
    rep = cli.run("sums", FLAGSHIP)
    levels = rep["result"]["levels"]
    assert len(levels) == 2
    assert all(l["agree"] for l in levels)
    # S_1 = -1 = 728 mod 3^6
    assert levels[0]["character_oracle"]["triples"] == [[0, 0, 728]]

    rep2 = cli.run("trace", FLAGSHIP)
    lv = rep2["result"]["levels"]
    assert all(l["routes_agree"] for l in lv)
    assert rep2["result"]["cap_formula"].startswith("ceil(")
    # (q - 1) Tr(G) = S_1 = -1
    assert lv[0]["scaled_trace"]["triples"] == [[0, 0, 728]]


def test_hyp_command():
    rep = cli.run("hyp", FLAGSHIP)
    entries = rep["result"]["entries"]
    assert len(entries) == 3
    values = {tuple(e["x"][0]): e["value"]["triples"] for e in entries}
    assert values[(0,)] == [[0, 0, 2]]
    assert values[(1,)] == [[0, 0, 728]]
    assert values[(2,)] == [[0, 0, 728]]


def test_hyp_entries_are_sorted_by_point():
    raw = json.loads((ROOT / "bench" / "jobs" / "hyp_twist_p5f2.json").read_text())
    entries = cli.run("hyp", raw)["result"]["entries"]
    points = [e["x"] for e in entries]
    assert len(points) == 25 ** len(raw["a"])
    assert points == sorted(points)


def test_charpoly_command():
    rep = cli.run("charpoly", FLAGSHIP)
    res = rep["result"]
    assert res["truncated_to"] is None
    assert res["coefficients"][0]["triples"] == [[0, 0, 1]]
    assert len(res["coefficients"]) == res["basis_size"] + 1


def test_charpoly_command_truncates_large_bases():
    square = {
        "p": 3,
        "f": 1,
        "A": [[1, 0, 1], [0, 1, 1]],
        "gamma_k": [0, 0],
        "a": [1, 1, 1],
        "precision": {"M": 6, "m_max": 2},
    }
    rep = cli.run("charpoly", square)
    res = rep["result"]
    assert res["basis_size"] > 128
    assert res["truncated_to"] == 8
    assert len(res["coefficients"]) == 9


def test_lfunction_command():
    rep = cli.run("lfunction", FLAGSHIP)
    res = rep["result"]
    assert res["routes_agree"] is True
    assert res["expected_degree"] == 1
    assert res["recognition"]["degree"] == 1
    # L = 1 - T
    assert res["recognition"]["coefficients"][1]["triples"] == [[0, 0, 728]]
    slopes = res["recognition"]["newton_polygon"]["slopes"]
    assert slopes == [[[0, 1], 1]]


def test_check_command_and_determinism():
    rep1 = cli.run("check", FLAGSHIP)
    rep2 = cli.run("check", FLAGSHIP)
    assert rep1["result"]["all_pass"] is True
    assert cli.render_report(rep1) == cli.render_report(rep2)


def test_nondegeneracy_command():
    rep = cli.run("nondegeneracy", KLOOSTERMAN)
    assert rep["result"]["verdict"] == "NondegenerateUpTo"
    degenerate = {**KLOOSTERMAN, "a": [0, 0]}
    rep2 = cli.run("nondegeneracy", degenerate)
    assert rep2["result"]["verdict"] == "DegenerateWitness"


def test_degenerate_check_passes_with_control():
    rep = cli.run("check", {**FLAGSHIP, "a": [[0]]})
    res = rep["result"]
    assert res["all_pass"] is True
    names = [c["name"] for c in res["checks"]]
    assert "degree_law_degenerate_control" in names


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "job.json"
    good.write_text(json.dumps(FLAGSHIP))
    out = tmp_path / "report.json"
    assert cli.main(["check", "--job", str(good), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["result"]["all_pass"] is True

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["polytope", "--job", str(bad)]) == 2
    capsys.readouterr()

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**FLAGSHIP, "p": 9}))
    assert cli.main(["check", "--job", str(invalid)]) == 2
    capsys.readouterr()

    budget = tmp_path / "budget.json"
    budget.write_text(
        json.dumps(
            {
                "p": 7,
                "f": 1,
                "A": [[1, 0, 1, 2, 1], [0, 1, 1, 1, 2]],
                "gamma_k": [0, 0],
                "a": [1, 1, 1, 1, 1],
                "precision": {"M": 4},
            }
        )
    )
    assert cli.main(["hyp", "--job", str(budget)]) == 4
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    assert cli.main(["polytope", "--job", str(missing)]) == 2
    capsys.readouterr()


KLOOSTERMAN_F2 = {
    "p": 3,
    "f": 2,
    "A": [[1, -1]],
    "gamma_k": [0],
    "a": [[1, 0], [0, 1]],
    "precision": {"M": 5, "m_max": 2},
}


@pytest.mark.parametrize(
    "raw, field",
    [
        ({**KLOOSTERMAN, "precision": {"M": "x", "m_max": 2}}, "precision.M"),
        ({**KLOOSTERMAN, "precision": {"M": 6, "m_max": "z"}}, "precision.m_max"),
        ({**KLOOSTERMAN, "precision": {"M": 6, "D": [1]}}, "precision.D"),
        ({**KLOOSTERMAN, "A": [["x", -1]]}, "A"),
        ({**KLOOSTERMAN_F2, "a": [[1, 0], [1, "y"]]}, "a"),
    ],
    ids=["M", "m_max", "D", "A", "a_f2"],
)
def test_malformed_numeric_field_exits_2(tmp_path, capsys, raw, field):
    # a field that is not an integer is a parse error, not a traceback
    job = tmp_path / "job.json"
    job.write_text(json.dumps(raw))
    assert cli.main(["polytope", "--job", str(job)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: not an integer")


@pytest.mark.parametrize(
    "raw, field",
    [
        ({**KLOOSTERMAN, "A": [[1.5, -1]]}, "A"),
        ({**KLOOSTERMAN, "p": 5.0}, "p"),
        ({**KLOOSTERMAN, "gamma_k": [0.7]}, "gamma_k"),
        ({**KLOOSTERMAN, "a": [True, 1]}, "a"),
        ({**KLOOSTERMAN, "precision": {"M": 6.9, "m_max": 2}}, "precision.M"),
        ({**KLOOSTERMAN_F2, "f": 2.0}, "f"),
    ],
    ids=["A_float", "p_integral_float", "gamma_k_float", "a_bool", "M_float",
         "f_integral_float"],
)
def test_non_integral_number_exits_2(tmp_path, capsys, raw, field):
    # a number that is not a JSON integer is refused, never truncated: an
    # integral float such as 5.0 and a boolean such as true included
    job = tmp_path / "job.json"
    job.write_text(json.dumps(raw))
    assert cli.main(["polytope", "--job", str(job)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: not an integer")


def test_huge_weight_cap_exits_4_fast(tmp_path, capsys):
    # D = 100000 on square_p3 would enumerate a 100005 x 100005 box; it is
    # refused before the box is allocated, and before the series is built
    import time

    raw = json.loads((ROOT / "jobs" / "square_p3.json").read_text())
    raw["precision"]["D"] = 100000
    job = tmp_path / "job.json"
    job.write_text(json.dumps(raw))
    for command in ("charpoly", "trace"):
        start = time.perf_counter()
        assert cli.main([command, "--job", str(job)]) == 4, command
        assert time.perf_counter() - start < 1.0, command
        err = capsys.readouterr().err
        assert "lattice enumeration box needs 10001000025 cells" in err, command


def test_one_sums_series_serves_identity_and_recognition(monkeypatch):
    # the sums-side series is built once to max(m_max, volume + 3): the L
    # identity reports its first m_max + 1 terms and recognition reads its
    # first volume + 4, whichever is longer
    real = lf.rational_recognition
    orders = []

    def recognition(series, expected_degree, n):
        orders.append(series.order())
        return real(series, expected_degree, n)

    monkeypatch.setattr(lf, "rational_recognition", recognition)
    for m_max in (2, 6):
        raw = {**FLAGSHIP, "precision": {"M": 6, "m_max": m_max}}
        result = cli.run("lfunction", raw)["result"]
        assert len(result["from_sums"]) == len(result["from_charseries"]) == m_max + 1
        assert result["recognition"]["series_order_used"] == 4
    assert orders == [4, 4]


def _never_run(*args, **kwargs):
    raise AssertionError("the job ran")


def test_out_into_missing_directory_exits_2(tmp_path, capsys, monkeypatch):
    # refused before the job runs: cli.run is never entered
    monkeypatch.setattr(cli, "run", _never_run)
    job = tmp_path / "job.json"
    job.write_text(json.dumps(FLAGSHIP))
    out = tmp_path / "no" / "such" / "report.json"
    assert cli.main(["polytope", "--job", str(job), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "report.json" in captured.err
    assert captured.out == ""
    assert not out.parent.exists()


def test_out_onto_directory_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", _never_run)
    job = tmp_path / "job.json"
    job.write_text(json.dumps(FLAGSHIP))
    out = tmp_path / "report"
    out.mkdir()
    assert cli.main(["polytope", "--job", str(job), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_refused_job_leaves_out_untouched(tmp_path, capsys):
    # the target is checked, not opened, before the run: a refused job
    # neither truncates an existing report nor creates a new one
    job = tmp_path / "job.json"
    job.write_text(json.dumps({**FLAGSHIP, "p": 4}))
    old = tmp_path / "old.json"
    old.write_text("kept")
    new = tmp_path / "new.json"
    for out in (old, new):
        assert cli.main(["polytope", "--job", str(job), "--out", str(out)]) == 2
    assert old.read_text() == "kept"
    assert not new.exists()


def test_python_m_dworksum_prints_the_report():
    path = ROOT / "jobs" / "kloosterman_p5.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "dworksum", "polytope", "--job", str(path)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = cli.render_report(cli.run("polytope", json.loads(path.read_text())))
    assert proc.stdout == want.encode("ascii")


def test_reports_byte_identical(tmp_path):
    texts = set()
    for _ in range(2):
        rep = cli.run("lfunction", KLOOSTERMAN)
        texts.add(cli.render_report(rep))
    assert len(texts) == 1


def _never(*args, **kwargs):
    raise AssertionError("work done before the budget refusal")


def test_trace_refuses_oversized_series_table(tmp_path, capsys, monkeypatch):
    # n = 3, p = 7, m_max = 3: the level-3 diagonal fold would need a table
    # of 342^3 cells of 6 coordinates, so trace stops before the operator
    from dworksum import dwork

    monkeypatch.setattr(dwork, "build_operator", _never)
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "p": 7,
                "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "gamma_k": [0, 0, 0],
                "a": [1, 1, 1],
                "precision": {"M": 3, "m_max": 3},
            }
        )
    )
    assert cli.main(["trace", "--job", str(job)]) == 4
    err = capsys.readouterr().err
    assert "level-3 series table" in err and str(342**3 * 6) in err


def test_sums_and_check_refuse_oversized_fold_before_any_work(
    tmp_path, capsys, monkeypatch
):
    # x over F_41 with m_max = 4: the character oracle's level 4 is within
    # budget, the fold's 41^4 - 1 cells of 40 coordinates are not
    from dworksum import dwork, lfunction as lf

    for module, name in [
        (lf, "sums_oracle_characters"),
        (dwork, "build_operator"),
        (lf, "nondegeneracy_check"),
    ]:
        monkeypatch.setattr(module, name, _never)
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "p": 41,
                "A": [[1]],
                "gamma_k": [0],
                "a": [1],
                "precision": {"M": 4, "m_max": 4},
            }
        )
    )
    for command in ("sums", "check"):
        assert cli.main([command, "--job", str(job)]) == 4, command
        err = capsys.readouterr().err
        assert f"needs {(41**4 - 1) * 40} coordinates" in err, command


def test_trace_refuses_a_long_two_column_half_fast(tmp_path, capsys):
    # p = 11, A = [[1, -1, 2]]: at level 4 the half {-1, 2} would move
    # 14,640^2 cells x classes x 10 coordinates, about 30 s; level 3 (1,330^2
    # x 10) runs, and its report is pinned in test_golden
    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"p": 11, "A": [[1, -1, 2]], "gamma_k": [0], "a": [1, 1, 1],
         "precision": {"M": 5, "m_max": 4}}
    ))
    start = time.perf_counter()
    assert cli.main(["trace", "--job", str(job)]) == 4
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    work = 14640 * 10 + 14640**2 * 10
    assert f"level-4 torus product of 2 columns moves {work}" in err


def test_trace_refuses_a_long_splitting_series_fast(tmp_path, capsys):
    # x over F_3 at M = 8: the level-11 splitting series has i_cut + 1 =
    # 2,125,765 terms, each a row of 2 coordinates and of the 13-column
    # factorial array, about 4 s and 0.55 GB to build; its fold table,
    # 3^11 - 1 cells of 2, is within budget.  Level 10 (a third) runs
    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"p": 3, "A": [[1]], "gamma_k": [0], "a": [1],
         "precision": {"M": 8, "m_max": 11}}
    ))
    start = time.perf_counter()
    assert cli.main(["trace", "--job", str(job)]) == 4
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert f"level-11 splitting series needs {2125765 * 15} coordinates" in err


def test_trace_beyond_desk_scale():
    # A = I_3, p = 7, M = 5: the level-2 box would need 287^3 cells of 6
    # coordinates; the diagonal fold needs 48^3 of them
    job = {"p": 7, "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "gamma_k": [0, 0, 0], "a": [1, 1, 1],
           "precision": {"M": 5, "m_max": 2}}
    levels = cli.run("trace", job)["result"]["levels"]
    assert [lv["routes_agree"] for lv in levels] == [True, True]


def test_check_encodes_the_operator_once(monkeypatch):
    # check takes det(I - T G) to T^5 (volume 2 + 3) and reads Tr(G^m),
    # m <= 3, off it.  Its passes after degree 2 run on the planned 23-point
    # block of degree 3 (the prefix B_3 of the 25-point live block of the
    # 31-point basis), encoded once from one representation per row of the
    # operator's cell table
    from dworksum import padic

    shapes = []
    encode = padic.encode_ring_matrix

    def counted(params, coords, cells=None):
        shapes.append((coords.shape, None if cells is None else cells.shape))
        return encode(params, coords, cells)

    monkeypatch.setattr(padic, "encode_ring_matrix", counted)
    job = json.loads((ROOT / "jobs" / "kloosterman_p5.json").read_text())
    assert job["precision"]["m_max"] == 3
    assert cli.run("check", job)["result"]["all_pass"]
    assert len(shapes) == 1
    (rows, blow), cells = shapes[0]
    assert (blow, cells) == (4, (23, 23)) and rows < 23 * 23


@pytest.mark.parametrize("name", ["kloosterman_p5", "square_p3"])
@pytest.mark.parametrize("command", ["trace", "check"])
def test_operator_route_is_one_characteristic_series(command, name):
    # trace and check read every Tr(G^m) (and check its L series) off one
    # run of the clow program; no power of the live block is formed
    from unittest import mock

    from dworksum import padic

    job = json.loads((ROOT / "jobs" / f"{name}.json").read_text())
    with mock.patch.object(padic, "char_series_prefix",
                           wraps=padic.char_series_prefix) as spy:
        cli.run(command, job)
    assert spy.call_count == 1


def test_lfunction_refuses_oversized_recognition_torus(tmp_path, capsys):
    # n = 3, p = 7: recognition needs level volume + 3 = 4, a torus of
    # (7^4 - 1)^3 points; the budget refuses it before any table is built
    import time

    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "p": 7,
                "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "gamma_k": [0, 0, 0],
                "a": [1, 1, 1],
                "precision": {"M": 3, "m_max": 1},
            }
        )
    )
    start = time.monotonic()
    assert cli.main(["lfunction", "--job", str(job)]) == 4
    assert time.monotonic() - start < 10
    err = capsys.readouterr().err
    assert "level 4" in err and str(2400**3) in err


def test_check_completes_where_lfunction_refuses_recognition(tmp_path, capsys):
    # A = I_3, p = 7: recognition reads T^0..T^(volume + 3) = T^4.  check
    # reads them off the operator's characteristic series and runs the
    # character sums at m_max = 1 alone; lfunction still recognizes on the
    # sums side, whose level 4 is a torus of (7^4 - 1)^3 points
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "p": 7,
                "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "gamma_k": [0, 0, 0],
                "a": [1, 1, 1],
                "precision": {"M": 5, "m_max": 1},
            }
        )
    )
    start = time.monotonic()
    assert cli.main(["check", "--job", str(job)]) == 0
    assert time.monotonic() - start < 5
    assert json.loads(capsys.readouterr().out)["result"]["all_pass"] is True
    assert cli.main(["lfunction", "--job", str(job)]) == 4
    assert "level 4" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["kloosterman_p5", "twist_p5"])
def test_check_runs_no_level_above_m_max_and_s_max(name, monkeypatch):
    # the character sums run at m <= m_max and the nondegeneracy walk reads
    # the tables of F_(q^s), s <= s_max; recognition needs no level of its own
    raw = json.loads((ROOT / "jobs" / f"{name}.json").read_text())
    job = cli.JobConfig(raw)
    top = max(job.m_max, job.s_max)
    assert job.volume + 3 > top
    levels = []
    sums, table = lf.sums_oracle_characters, lf.field_table

    def sums_spy(config, field, a_coeffs, twist, m, M):
        levels.append(m)
        return sums(config, field, a_coeffs, twist, m, M)

    def table_spy(p, s):
        assert s % job.f == 0
        levels.append(s // job.f)
        return table(p, s)

    monkeypatch.setattr(lf, "sums_oracle_characters", sums_spy)
    monkeypatch.setattr(lf, "field_table", table_spy)
    assert cli.run("check", raw)["result"]["all_pass"]
    assert levels and max(levels) <= top


def test_check_builds_one_table_per_field(monkeypatch):
    # the level table holds the cached table of F_q, so the character sums
    # and the nondegeneracy walk search each field's generator once
    from dworksum import finitefield as ff

    searched = []
    search = ff.multiplicative_generator

    def spy(field):
        searched.append((field.p, field.degree))
        return search(field)

    monkeypatch.setattr(ff, "multiplicative_generator", spy)
    lf.level_table.cache_clear()
    lf.field_table.cache_clear()
    try:
        job = json.loads((ROOT / "jobs" / "kloosterman_p5.json").read_text())
        assert cli.run("check", job)["result"]["all_pass"]
    finally:
        lf.level_table.cache_clear()
        lf.field_table.cache_clear()
    assert (5, 1) in searched and len(searched) == len(set(searched)), searched


def test_nondegeneracy_and_check_refuse_oversized_s_max(
    tmp_path, capsys, monkeypatch
):
    # A = I_3, p = 3: check's character sums stop at m_max = 1, within
    # budget, but s_max = 6 asks for a torus of (3^6 - 1)^3 points; both
    # commands refuse it before any field table, oracle or operator is built
    from dworksum import dwork, lfunction as lf

    def never(*args, **kwargs):
        raise AssertionError("work done before the budget refusal")

    for module, name in [
        (lf, "field_table"),
        (lf, "level_table"),
        (lf, "sums_oracle_characters"),
        (dwork, "build_operator"),
    ]:
        monkeypatch.setattr(module, name, never)
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "p": 3,
                "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "gamma_k": [0, 0, 0],
                "a": [1, 1, 1],
                "precision": {"M": 4, "m_max": 1, "s_max": 6},
            }
        )
    )
    for command in ("nondegeneracy", "check"):
        assert cli.main([command, "--job", str(job)]) == 4, command
        assert f"level 6 needs {728**3} torus points" in capsys.readouterr().err


def test_nondegeneracy_and_check_refuse_s_max_below_one(tmp_path, capsys):
    # x + x^3 over F_3 is degenerate, and s_max = 2 finds the witness; an
    # s_max below 1 would test no level and certify it all the same
    degenerate = {"p": 3, "A": [[1, 3]], "gamma_k": [0], "a": [1, 1],
                  "precision": {"M": 4}}
    verdict = cli.run("nondegeneracy", degenerate)["result"]["verdict"]
    assert verdict == "DegenerateWitness"
    job = tmp_path / "job.json"
    for raw in (degenerate, KLOOSTERMAN):
        for s_max in (0, -1):
            prec = {**raw["precision"], "s_max": s_max}
            job.write_text(json.dumps({**raw, "precision": prec}))
            for command in ("nondegeneracy", "check"):
                assert cli.main([command, "--job", str(job)]) == 2, command
                assert "precision.s_max" in capsys.readouterr().err


def test_negative_weight_cap_is_refused(tmp_path, capsys):
    job = tmp_path / "job.json"
    prec = KLOOSTERMAN["precision"]
    job.write_text(json.dumps({**KLOOSTERMAN, "precision": {**prec, "D": -1}}))
    for command in ("trace", "check", "charpoly", "lfunction"):
        assert cli.main([command, "--job", str(job)]) == 2, command
        assert "precision.D" in capsys.readouterr().err
    # D = 0 stays legal: a one-point basis whose tail bound is 0
    job.write_text(json.dumps({**KLOOSTERMAN, "precision": {**prec, "D": 0}}))
    assert cli.main(["trace", "--job", str(job)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["basis_size"] == 1 and result["tail_bound"] == [0, 1]


def test_nondegeneracy_beyond_desk_scale():
    # x + y + 1/(xy) over F_25 at s <= 2: 624^2 torus points on each of six
    # faces, every one with a monomial toric derivative
    job = {"p": 5, "f": 2, "A": [[1, 0, -1], [0, 1, -1]], "gamma_k": [0, 0],
           "a": [[1, 0], [1, 0], [1, 0]], "precision": {"M": 4}}
    result = cli.run("nondegeneracy", job)["result"]
    assert result == {"verdict": "NondegenerateUpTo", "s_max": 2}


def test_sums_refuses_oversized_level_table(tmp_path, capsys):
    # p = 1021, f = 2: level 1 has about 10^6 torus points, but its table
    # would hold L = 1021^2 - 1 rows of 2040 coordinates
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "p": 1021,
                "f": 2,
                "A": [[1]],
                "gamma_k": [0],
                "a": [[1, 0]],
                "precision": {"M": 2, "m_max": 1},
            }
        )
    )
    assert cli.main(["sums", "--job", str(job)]) == 4
    assert "level 1 needs a table of" in capsys.readouterr().err


def _counting(monkeypatch, cls):
    """Count the constructions of cls while the test runs."""
    calls = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_check_builds_the_newton_data_once(monkeypatch):
    # the job's NewtonData serves the operator, the folds and the
    # nondegeneracy walk alike
    from dworksum import polytope as pt

    calls = _counting(monkeypatch, pt.NewtonData)
    assert cli.run("check", KLOOSTERMAN)["result"]["all_pass"]
    assert len(calls) == 1


def test_polytope_builds_the_decomposition_once(monkeypatch):
    # the volume and the reported simplices come from one decomposition
    from dworksum import polytope as pt

    calls = _counting(monkeypatch, pt.SimplicialDecomposition)
    result = cli.run("polytope", KLOOSTERMAN)["result"]
    assert result["volume"] == 2 and len(result["simplices"]) == 2
    assert len(calls) == 1


SEGMENT_P257 = {"p": 257, "A": [[1]], "gamma_k": [0], "a": [1],
                "precision": {"M": 4, "m_max": 1, "s_max": 2}}


def test_nondegeneracy_budgets_only_the_field_tables(tmp_path, capsys):
    # x over F_257 at s <= 2: the walk builds the tables of F_257 and F_257^2
    # alone.  The character sums hold the Teichmueller powers and theta(1)
    # powers on their subrings' coordinates, so hyp's batch of 256 rows (a
    # histogram of 256 x 257 x 256 coordinates) stays within the limit and
    # its entries are the series route's values.  check runs the character
    # sums at m_max = 1 alone and recognizes on the operator's series, so it
    # completes where the sums side's level 4 would need 257^4 - 1 points
    result = cli.run("nondegeneracy", SEGMENT_P257)["result"]
    assert result == {"verdict": "NondegenerateUpTo", "s_max": 2}
    entries = cli.run("hyp", SEGMENT_P257)["result"]["entries"]
    assert len(entries) == 257
    for x in (0, 1, 2, 128, 256):
        levels = cli.run("sums", {**SEGMENT_P257, "a": [x]})["result"]["levels"]
        assert [lv["agree"] for lv in levels] == [True], x
        assert entries[x]["x"] == [[x]]
        assert entries[x]["value"] == levels[0]["series_oracle"], x
    job = tmp_path / "job.json"
    job.write_text(json.dumps(SEGMENT_P257))
    assert cli.main(["check", "--job", str(job)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["all_pass"] is True


def test_sums_routes_agree_over_f211_at_m4():
    # x over F_211 at M = 4: p^M is near 2^31, so the character sum's
    # products against the 210 Teichmueller powers and the 211 theta(1)
    # powers run in float64 limbs, and the two routes must still agree
    job = {"p": 211, "A": [[1]], "gamma_k": [0], "a": [1],
           "precision": {"M": 4, "m_max": 1}}
    levels = cli.run("sums", job)["result"]["levels"]
    assert [lv["agree"] for lv in levels] == [True]


def test_large_prime_rings_multiply_without_a_table(tmp_path):
    # x over F_263 at M = 2: blow = 262, so a dense multiplication table
    # would hold 262^3 coordinates; the toric commands never multiply in R
    job = {"p": 263, "A": [[1]], "gamma_k": [0], "a": [1],
           "precision": {"M": 2, "m_max": 1}}
    text = cli.render_report(cli.run("trace", job))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4013e0dd93d5339a105aed993aa0525410867f3399c6ec6320ecaa1b7a544ceb"
    )
    (level,) = json.loads(text)["result"]["levels"]
    assert level["routes_agree"]
    # the Dwork trace formula in closed form: (p - 1) Tr(alpha) = S_1 =
    # sum over x != 0 of psi(x) = -1 mod p^M
    pM = 263**2
    (tr,) = level["trace_level_series"]["triples"]
    (scaled,) = level["scaled_trace"]["triples"]
    assert tr[:2] == scaled[:2] == [0, 0]
    assert 262 * tr[2] % pM == scaled[2] == pM - 1
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**job, "p": 1021}))
    for command in ("polytope", "gkz"):
        assert cli.main([command, "--job", str(path)]) == 0, command
