import json

import pytest

from dworksum import cli
from dworksum.errors import BudgetExceeded, ParseError, ValidationError

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


def test_reports_byte_identical(tmp_path):
    texts = set()
    for _ in range(2):
        rep = cli.run("lfunction", KLOOSTERMAN)
        texts.add(cli.render_report(rep))
    assert len(texts) == 1


def test_trace_refuses_oversized_series_table(tmp_path, capsys):
    # n = 3, p = 7, M = 5: the level-2 series would need a box of 287^3
    # cells of 6 coordinates, so trace stops before allocating it
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps(
            {
                "p": 7,
                "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "gamma_k": [0, 0, 0],
                "a": [1, 1, 1],
                "precision": {"M": 5, "m_max": 2},
            }
        )
    )
    assert cli.main(["trace", "--job", str(job)]) == 4
    assert "level-2 series table" in capsys.readouterr().err


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


def test_check_refuses_oversized_recognition_before_any_work(
    tmp_path, capsys, monkeypatch
):
    # the top level volume + 3 = 4 is known when the job is read, so check
    # refuses before any oracle, operator or nondegeneracy work
    from dworksum import dwork, lfunction as lf, polytope as pt

    def never(*args, **kwargs):
        raise AssertionError("work done before the budget refusal")

    for module, name in [
        (lf, "sums_oracle_characters"),
        (dwork, "build_operator"),
        (pt, "nondegeneracy_check"),
    ]:
        monkeypatch.setattr(module, name, never)
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
    assert cli.main(["check", "--job", str(job)]) == 4
    assert "level 4" in capsys.readouterr().err


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
