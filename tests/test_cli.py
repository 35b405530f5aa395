import json
import time
from dataclasses import fields
from pathlib import Path

import pytest

from pimshort import cli
from pimshort.cli import (
    MAX_WINDOW,
    check_bound,
    check_window,
    exact_int,
    exact_int_list,
    main,
)
from pimshort.density import DEFAULT_BOUND
from pimshort.rules import ALPHA_MAX, build_rule, builtin_rules
from pimshort.sieve import IntervalReport, count_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_int_scientific_notation():
    assert exact_int("1e11") == 10**11
    assert exact_int("250") == 250
    assert exact_int_list("1e3,2e3") == [1000, 2000]
    assert exact_int_list("") == []
    with pytest.raises(Exception):
        exact_int("1.5")
    with pytest.raises(Exception):
        exact_int("abc")


def test_huge_magnitude_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "density", "--rule", "abelian", "--k", "1",
                             "--B", "1e1000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "2**63" in err
    for text in ("9223372036854775808", "-9.3e18", "inf"):
        with pytest.raises(OverflowError):
            exact_int(text)
    assert exact_int("9223372036854775807") == 2**63 - 1


def test_bound_beyond_the_term_budget_exits_2_at_once(capsys):
    for argv in (
        ("density", "--rule", "abelian", "--k", "1", "--B", "9223372036854775807"),
        ("interval", "--rule", "abelian", "--k", "1", "--x", "1e6", "--y", "1e3", "--B", "1e15"),
        ("table", "--rule", "powerdiv-r:3", "--k", "1", "--x", "1e6", "--y", "1e3", "--B", "9e18"),
        ("enumerate-rfull", "--r", "2", "--limit", "9e18"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "", argv
        assert "r-full terms" in err


def test_window_beyond_the_budget_exits_2_at_once(capsys):
    for argv in (
        ("interval", "--rule", "abelian", "--k", "1", "--x", "4.6e18", "--y", "4.5e18"),
        ("table", "--rule", "abelian", "--k", "1", "--x", "1e12", "--y", "1e3,100000001"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "", argv
        assert "window limit" in err
    check_window(MAX_WINDOW)
    with pytest.raises(ValueError):
        check_window(MAX_WINDOW + 1)


def test_default_and_moderate_bounds_accepted():
    for rule in builtin_rules() + (build_rule("powerdiv-r:3"), build_rule("powerdiv-r:7")):
        check_bound(rule, DEFAULT_BOUND)
    abelian = build_rule("abelian")
    check_bound(abelian, 10**11)
    with pytest.raises(ValueError):
        check_bound(abelian, 2 * 10**11)


def test_density_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "density", "--rule", "abelian", "--k", "1", "--B", "1e4")
    assert code == 0
    record = json.loads(out)
    assert json.loads(json.dumps(record)) == record
    assert list(record) == ["rule", "k", "r", "B", "partial_sum", "tail_estimate", "zeta_r", "density"]
    assert record["density"] == pytest.approx(0.6079271018, abs=1e-8)
    assert record["B"] == 10**4


def test_density_k_just_below_2_63(capsys):
    # No f of this rule equals either k, and k + 1 = 2^63 must not reach an int64 array.
    huge = str(Path(__file__).parent / "golden" / "huge-rule.json")
    for k in (2**63 - 1, 2**63 - 2):
        code, out, err = run_cli(capsys, "density", "--rule", huge, "--k", str(k), "--B", "1e6")
        assert code == 0, err
        assert json.loads(out)["density"] == 0.0


def test_density_csv_format(capsys):
    code, out, _ = run_cli(capsys, "density", "--rule", "plane", "--k", "2", "--B", "1e5",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "rule"
    assert row.split(",")[0] == "plane"
    assert float(row.split(",")[-1]) == 0.0


def test_interval_record_and_warning(capsys):
    code, out, err = run_cli(capsys, "interval", "--rule", "abelian", "--k", "1",
                             "--x", "100", "--y", "10", "--B", "1e4")
    assert code == 0
    assert err.count("\n") == 1 and "-1/126" in err
    record = json.loads(out)
    assert record["count"] == 8
    assert record["admissible"] is False
    assert record["x"] == 100 and record["y"] == 10


def test_interval_rejects_wide_window(capsys):
    for x, y in (("100", "100"), ("10", "20")):
        code, out, err = run_cli(capsys, "interval", "--rule", "abelian", "--k", "1",
                                 "--x", x, "--y", y, "--B", "1e4")
        assert code == 2 and out == "", (x, y)
        assert f"error: the window needs 0 < y < x, got x={x}, y={y}" in err
        assert "interval_report" not in err


def test_interval_no_warning_for_r3(capsys):
    code, out, err = run_cli(capsys, "interval", "--rule", "powerdiv-r:3", "--k", "1",
                             "--x", "1e6", "--y", "100", "--B", "1e4")
    assert code == 0
    assert err == ""


def test_unknown_rule_exits_2(capsys):
    for rule in ("bogus", "powerdiv-r:x"):
        code, _, err = run_cli(capsys, "density", "--rule", rule, "--k", "1", "--B", "1e3")
        assert code == 2
        assert f"unknown rule {rule!r}" in err
        assert "abelian" in err and "powerdiv-r:R" in err and ".json" in err
        assert "rfull_count_bound" not in err and "rfull_table" not in err
    code, _, err = run_cli(capsys, "density", "--rule", "powerdiv-r:65", "--k", "1", "--B", "1e3")
    assert code == 2
    assert f"'powerdiv-r:65': R must lie in [2, {ALPHA_MAX}], got 65" in err


def test_enumerate_rfull(capsys):
    code, out, _ = run_cli(capsys, "enumerate-rfull", "--r", "2", "--limit", "100")
    assert code == 0
    values = [int(line) for line in out.split()]
    assert values == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "enumerate-rfull", "--r", "9e18", "--limit", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == "1\n"


def test_enumerate_rfull_range_error(capsys):
    code, _, err = run_cli(capsys, "enumerate-rfull", "--r", "2", "--limit", "9.3e18")
    assert code == 2
    assert "2**63" in err
    for flag, r, limit in (("--r", "1", "10"), ("--limit", "2", "0")):
        code, out, err = run_cli(capsys, "enumerate-rfull", "--r", r, "--limit", limit)
        assert code == 2 and out == ""
        assert f"{flag} must be at least" in err
        assert "rfull_count_bound" not in err and "rfull_table" not in err


def test_table_empty_grid_header_only(capsys):
    code, out, err = run_cli(capsys, "table", "--rule", "abelian", "--k", "1")
    assert code == 0
    assert err == ""
    assert out.strip() == (
        "rule,k,r,x,y,count,density,main_term,abs_error,"
        "term_main,term_mid,term_tail,admissible"
    )


def test_table_grid_rows(capsys):
    code, out, err = run_cli(capsys, "table", "--rule", "abelian", "--k", "1",
                             "--x", "1e6,2e6", "--y", "10,20", "--B", "1e4")
    assert code == 0
    assert "-1/126" in err
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "abelian" and int(first[3]) == 10**6 and int(first[4]) == 10
    assert lines[1].split(",")[12] in ("true", "false")


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


def test_table_bad_pair_exits_2_before_any_output(monkeypatch, capsys):
    monkeypatch.setattr(cli, "local_density", _no_work)
    for xs, ys, message in (("1e8,10", "1e3", "0 < y < x"),
                            ("1e8", "1e3,0", "window length"),
                            ("1e8,-5", "1e3", "window base")):
        code, out, err = run_cli(capsys, "table", "--rule", "plane", "--k", "2",
                                 "--x", xs, "--y", ys, "--B", "1e3")
        assert code == 2 and out == "", (xs, ys)
        assert message in err


def test_table_k_below_one_exits_2_before_any_output(monkeypatch, capsys):
    monkeypatch.setattr(cli, "local_density", _no_work)
    for grid in ((), ("--x", "1e6", "--y", "10")):
        for k in ("0", "-1"):
            code, out, err = run_cli(capsys, "table", "--rule", "abelian", "--k", k, *grid)
            assert code == 2 and out == "", (k, grid)
            assert err == f"error: k must be a positive integer, got {k}\n", (k, grid)
        code, out, err = run_cli(capsys, "table", "--rule", "abelian", "--k", "1", "--B", "0",
                                 *grid)
        assert code == 2 and out == "", grid
        assert "truncation bound" in err and "-1/126" not in err, grid


def test_workers_flag_is_refused(monkeypatch, capsys):
    # The command line counts each window in one process; only the library takes workers=.
    monkeypatch.setattr(cli, "local_density", _no_work)
    monkeypatch.setattr(cli, "run_suite", _no_work)
    for argv in (
        ("verify", "--suite", "lemma3", "--workers", "2"),
        ("interval", "--rule", "abelian", "--k", "1", "--x", "1e6", "--y", "1e3",
         "--workers", "2"),
        ("table", "--rule", "abelian", "--k", "1", "--x", "1e6", "--y", "1e3",
         "--workers", "2"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_eps_outside_its_domain_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "local_density", _no_work)
    for eps in ("-3", "0", "nan", "inf"):
        for argv in (
            ("interval", "--rule", "abelian", "--k", "2", "--x", "1e11", "--y", "100"),
            ("table", "--rule", "abelian", "--k", "2", "--x", "1e9", "--y", "1e4"),
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--B", "1e6", f"--eps={eps}"])
            assert exc.value.code == 2, (argv, eps)
            assert capsys.readouterr().out == "", (argv, eps)


def test_interval_csv_is_the_one_row_table(capsys):
    window = ("--rule", "plane", "--k", "2", "--x", "1e9", "--y", "1e4", "--B", "1e6")
    code, interval_out, _ = run_cli(capsys, "interval", *window, "--format", "csv")
    assert code == 0
    code, table_out, _ = run_cli(capsys, "table", *window)
    assert code == 0
    assert interval_out == table_out
    header = table_out.splitlines()[0].split(",")
    assert header == [f.name for f in fields(IntervalReport)]


def test_custom_rule_from_file(tmp_path, capsys):
    doc = {"name": "flat", "r": 2, "values": [1, 1] + [2] * (ALPHA_MAX - 1)}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "density", "--rule", str(path), "--k", "1", "--B", "1e3")
    assert code == 0
    assert json.loads(out)["rule"] == "flat"


def test_builtin_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "abelian").write_text("not a rule")
    code, out, _ = run_cli(capsys, "density", "--rule", "abelian", "--k", "1", "--B", "1e3")
    assert code == 0
    assert json.loads(out)["rule"] == "abelian"


def test_custom_rule_invalid_exits_2(tmp_path, capsys):
    doc = {"name": "bad", "r": 2, "values": [1, 2] + [2] * (ALPHA_MAX - 1)}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "density", "--rule", str(path), "--k", "1", "--B", "1e3")
    assert code == 2
    assert "g(1)" in err


def test_custom_rule_fractional_value_exits_2(tmp_path, capsys):
    doc = {"name": "frac", "r": 2, "values": [1, 1, 2.9] + [2] * (ALPHA_MAX - 2)}
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "density", "--rule", str(path), "--k", "2", "--B", "1e6")
    assert code == 2 and out == ""
    assert "g(2)" in err


def test_verify_sequences_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sequences")
    assert code == 0
    assert "PASS plane-partition-sequence" in out
    assert out.strip().endswith("checks passed")


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sequences", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert all(rec["passed"] for rec in records)
    assert {"name", "passed", "observed", "expected", "note"} == set(records[0])


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_output_deterministic_across_workers(capsys):
    args = ["interval", "--rule", "abelian", "--k", "2", "--x", "1e7", "--y", "3e4", "--B", "1e5"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    pooled = count_value(build_rule("abelian"), 2, 10**7, 3 * 10**4, workers=3)
    assert json.loads(out1)["count"] == pooled
