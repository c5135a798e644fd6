import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lambdalab
from lambdalab.cli import (
    CSV_HEADER,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    SweepRow,
    fraction_to_decimal,
    main,
    resolve_term,
)
from lambdalab.terms import mk_Cn, mk_Mn, mk_Omega, parse


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# term resolution and rendering helpers


def test_resolve_named_terms():
    assert resolve_term("I")[1] == parse("\\x.x")
    assert resolve_term("Cn:3")[1] == mk_Cn(3)
    assert resolve_term("Mn:2")[1] == mk_Mn(2)
    assert resolve_term("Omega")[1] == mk_Omega()
    assert resolve_term("\\x.x y")[1] == parse("\\x.x y")


def test_fraction_to_decimal_significant_digits():
    assert fraction_to_decimal(Fraction(7, 2)) == "3.5"
    assert fraction_to_decimal(Fraction(1, 3)) == "0.333333333333"
    assert fraction_to_decimal(None) == "inf"


# ---------------------------------------------------------------------------
# reduce


def test_reduce_example1_lo(capsys):
    code, out = run_cli(capsys, "reduce", "example1", "--strategy", "lo")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "(\\x.y) ((\\x.x x) (\\x.x x))",
        "-> y",
        "normal form in 1 step",
    ]


def test_reduce_example2_ri_three_steps(capsys):
    code, out = run_cli(capsys, "reduce", "example2", "--strategy", "ri")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 5 and lines[-1] == "normal form in 3 steps"


def test_reduce_normal_form(capsys):
    code, out = run_cli(capsys, "reduce", "\\x.x")
    assert code == EXIT_OK
    assert out.splitlines() == ["\\x.x", "already in normal form"]


def test_reduce_fuel_exhaustion_is_inconclusive(capsys):
    code, out = run_cli(capsys, "reduce", "Omega", "--fuel", "25")
    assert code == EXIT_INCONCLUSIVE
    assert "fuel exhausted after 25 steps" in out


SELF_APPLICATION = "(\\x.x x)(\\y.y y)"


def test_reduce_lo_prints_actual_reducts(capsys):
    code, out = run_cli(capsys, "reduce", SELF_APPLICATION, "--fuel", "2", "--strategy", "lo")
    assert code == EXIT_INCONCLUSIVE
    assert out.splitlines() == [
        "(\\x.x x) (\\y.y y)",
        "-> (\\y.y y) (\\y.y y)",
        "-> (\\y.y y) (\\y.y y)",
        "fuel exhausted after 2 steps",
    ]


def test_reduce_peps_prints_class_representatives(capsys):
    code, out = run_cli(
        capsys, "reduce", SELF_APPLICATION, "--fuel", "2", "--strategy", "peps:1/1"
    )
    assert code == EXIT_INCONCLUSIVE
    assert out.splitlines() == [
        "(\\x.x x) (\\y.y y)",
        "-> (\\x.x x) (\\y.y y)",
        "-> (\\x.x x) (\\y.y y)",
        "fuel exhausted after 2 steps",
    ]


def test_reduce_peps_seeded_trace_deterministic(capsys):
    code, first = run_cli(capsys, "reduce", "example2", "--strategy", "peps:1/2", "--seed", "4")
    assert code == EXIT_OK
    code, second = run_cli(capsys, "reduce", "example2", "--strategy", "peps:1/2", "--seed", "4")
    assert first == second


# ---------------------------------------------------------------------------
# analyze


def test_analyze_example1_json(capsys):
    code, out = run_cli(capsys, "analyze", "example1", "--eps", "1/2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["expected_length"] == "2/1"
    assert payload["termination_prob"] == "1/1"
    assert payload["states"] == ["(\\x.y) ((\\x.x x) (\\x.x x))"]


def test_analyze_omega_infinite(capsys):
    code, out = run_cli(capsys, "analyze", "Omega", "--eps", "1/2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["expected_length"] == "inf"
    assert payload["termination_prob"] == "0/1"


def test_analyze_example2_text(capsys):
    code, out = run_cli(capsys, "analyze", "example2", "--eps", "1/2")
    assert code == EXIT_OK
    assert "expected_length: 7/2 (= 3.5)" in out


def test_analyze_eps_zero_notes_guarantee(capsys):
    code, out = run_cli(capsys, "analyze", "example2", "--eps", "0")
    assert code == EXIT_OK
    assert "eps=0" in out and "note" in out


def test_analyze_state_cap_inconclusive(capsys):
    code, out = run_cli(capsys, "analyze", "Mn:3", "--eps", "1/2", "--state-cap", "2")
    assert code == EXIT_INCONCLUSIVE
    assert "inconclusive" in out


def test_analyze_rejects_decimal_eps(capsys):
    code = main(["analyze", "example1", "--eps", "0.5"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_header_and_roundtrip(capsys):
    code, out = run_cli(capsys, "sweep", "Mn:4", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [SweepRow.from_csv(line) for line in lines[1:]]
    assert [r.to_csv() for r in rows] == lines[1:]
    by_eps = {r.epsilon: r for r in rows}
    assert by_eps[Fraction(1)].expected_length == 7  # n + 3 at eps = 1
    assert all(r.n_ri is None for r in rows)  # "div": RI never terminates
    assert by_eps[Fraction(0)].foster_bound is None  # bound undefined at eps=0
    assert by_eps[Fraction(0)].expected_length is None


def test_sweep_identity_all_zero(capsys):
    code, out = run_cli(capsys, "sweep", "I", "--format", "csv")
    assert code == EXIT_OK
    for line in out.strip().splitlines()[1:]:
        row = SweepRow.from_csv(line)
        assert row.expected_length == 0 and row.n_lo == 0 and row.n_ri == 0


def test_sweep_custom_grid_sorted(capsys):
    code, out = run_cli(capsys, "sweep", "example1", "--grid", "3/4,1/4", "--format", "csv")
    assert code == EXIT_OK
    rows = [SweepRow.from_csv(line) for line in out.strip().splitlines()[1:]]
    assert [r.epsilon for r in rows] == [Fraction(1, 4), Fraction(3, 4)]
    assert [r.expected_length for r in rows] == [4, Fraction(4, 3)]


def test_sweep_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, "sweep", "example2", "--format", "csv", "--out", str(target))
    assert code == EXIT_OK
    lines = target.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert SweepRow.from_csv(lines[-1]).term_id == "example2"


def test_sweep_byte_identical(capsys):
    _, first = run_cli(capsys, "sweep", "Mn:2", "--format", "csv")
    _, second = run_cli(capsys, "sweep", "Mn:2", "--format", "csv")
    assert first == second


# ---------------------------------------------------------------------------
# montecarlo


def test_montecarlo_text_deterministic(capsys):
    args = ("montecarlo", "example1", "--eps", "1/2", "--seed", "3", "--samples", "400")
    code, first = run_cli(capsys, *args)
    assert code == EXIT_OK
    _, second = run_cli(capsys, *args)
    assert first == second
    assert "mean:" in first and "cutoffs: 0" in first


def test_montecarlo_json(capsys):
    code, out = run_cli(
        capsys, "montecarlo", "I", "--eps", "1/2", "--samples", "5", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mean"] == "0.000000" and payload["cutoff_count"] == 0


# ---------------------------------------------------------------------------
# laws and repro plumbing


def test_laws_single_suite(capsys):
    code, out = run_cli(
        capsys, "laws", "--suite", "lo_monotone", "--count", "10", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0]["law"] == "lo_monotone"
    assert payload[0]["counterexamples"] == []


def test_laws_text_summary(capsys):
    code, out = run_cli(capsys, "laws", "--suite", "subcalculus_stability", "--count", "10")
    assert code == EXIT_OK
    assert "subcalculus_stability" in out


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command_exits_3(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


def test_bad_term_literal_exits_3(capsys):
    code = main(["reduce", "(\\x.x"])
    assert code == EXIT_USAGE


def test_bad_strategy_exits_3(capsys):
    code = main(["reduce", "I", "--strategy", "innermost-leftmost"])
    assert code == EXIT_USAGE


def test_bad_grid_exits_3(capsys):
    code = main(["sweep", "I", "--grid", "0.25,0.5"])
    assert code == EXIT_USAGE


def _assert_one_line_usage_error(code, capsys):
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("lambdalab: error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_reduce_negative_fuel_exits_3(capsys):
    _assert_one_line_usage_error(main(["reduce", "Omega", "--fuel", "-3"]), capsys)


def test_sweep_negative_fuel_exits_3(capsys):
    _assert_one_line_usage_error(main(["sweep", "Omega", "--fuel", "-1"]), capsys)


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_sweep_nonpositive_state_cap_exits_3(capsys, cap):
    _assert_one_line_usage_error(main(["sweep", "Mn:3", "--state-cap", cap]), capsys)


DEEP = 30_000


@pytest.mark.parametrize(
    "literal",
    ["(" * DEEP + "x" + ")" * DEEP, " ".join(["x"] * DEEP), "\\x." * DEEP + "x"],
    ids=["parentheses", "application-spine", "abstractions"],
)
def test_deeply_nested_term_exits_3(capsys, literal):
    for argv in (["reduce", literal], ["analyze", literal, "--eps", "1/2"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("lambdalab: error: term nested too deeply")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "example2"),
        ("reduce", "Omega", "--fuel", "3"),
        ("analyze", "example1", "--eps", "1/2", "--format", "json"),
        ("analyze", "Mn:3", "--eps", "1/2", "--state-cap", "2"),
        ("sweep", "example1", "--format", "csv"),
        ("montecarlo", "I", "--eps", "1/2", "--samples", "5"),
        ("laws", "--suite", "lo_monotone", "--count", "5", "--format", "json"),
    ],
    ids=["reduce", "reduce-inconclusive", "analyze-json", "analyze-inconclusive",
         "sweep-csv", "montecarlo-text", "laws-json"],
)
def test_unwritable_out_exits_3(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    _assert_one_line_usage_error(main([*argv, "--out", str(target)]), capsys)


# ---------------------------------------------------------------------------
# independence from Python's string hashing


HASH_SEED_COMMANDS = (
    ("analyze", "Mn:6", "--eps", "1/3", "--format", "json"),
    ("montecarlo", "Mn:6", "--eps", "3/7", "--seed", "5", "--samples", "200",
     "--format", "json"),
    ("laws", "--suite", "anf_equal_length", "--format", "json"),
    ("reduce", "example2", "--strategy", "peps:1/2", "--seed", "4"),
)


@pytest.mark.parametrize("argv", HASH_SEED_COMMANDS, ids=lambda argv: argv[0])
def test_output_independent_of_hash_seed(argv):
    src = str(Path(lambdalab.__file__).resolve().parents[1])
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "lambdalab.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        results.append((proc.returncode, proc.stdout))
    assert results[0][1]
    assert results[0] == results[1]
