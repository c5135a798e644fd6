import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import lambdalab
from lambdalab.cli import (
    CSV_HEADER,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _json,
    fraction_to_decimal,
    main,
    resolve_term,
    sweep_rows,
)
from lambdalab.laws import GRID_WITH_ZERO, anchor_corpus, random_corpus
from lambdalab.pars import analyze
from lambdalab.strategies import Strategy
from lambdalab.terms import (
    SubCalculus,
    mk_Cn,
    mk_Mn,
    mk_Omega,
    parse,
    random_term,
    redexes,
    reduce_at,
    render,
)

from conftest import reducible_terms


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


@pytest.mark.parametrize("strategy, n", [("lo", 4), ("ri", 3)])
def test_reduce_fuel_boundary(capsys, strategy, n):
    code, out = run_cli(capsys, "reduce", "example2", "--strategy", strategy, "--fuel", str(n))
    assert code == EXIT_OK
    assert len(out.splitlines()) == n + 2 and out.endswith(f"normal form in {n} steps\n")
    code, short = run_cli(
        capsys, "reduce", "example2", "--strategy", strategy, "--fuel", str(n - 1)
    )
    assert code == EXIT_INCONCLUSIVE
    assert short.splitlines()[:n] == out.splitlines()[:n]
    assert short.splitlines()[n:] == [f"fuel exhausted after {n - 1} steps"]


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


def test_reduce_peps_prints_actual_reducts(capsys):
    code, out = run_cli(
        capsys, "reduce", SELF_APPLICATION, "--fuel", "2", "--strategy", "peps:1/1"
    )
    assert code == EXIT_INCONCLUSIVE
    assert out.splitlines() == [
        "(\\x.x x) (\\y.y y)",
        "-> (\\y.y y) (\\y.y y)",
        "-> (\\y.y y) (\\y.y y)",
        "fuel exhausted after 2 steps",
    ]


def test_reduce_peps_seeded_trace_deterministic(capsys):
    code, first = run_cli(capsys, "reduce", "example2", "--strategy", "peps:1/2", "--seed", "4")
    assert code == EXIT_OK
    code, second = run_cli(capsys, "reduce", "example2", "--strategy", "peps:1/2", "--seed", "4")
    assert first == second


# a denominator above 2**64, so each draw joins two SplitMix64 outputs
WIDE = 99999999999999999999999


@pytest.mark.parametrize("argv", [
    ("montecarlo", "Mn:2", "--eps", f"1/{WIDE}", "--samples", "2"),
    ("reduce", "Mn:2", "--strategy", f"peps:1/{WIDE}", "--fuel", "5"),
], ids=["montecarlo", "reduce"])
def test_samplers_take_a_wide_eps_near_ri(capsys, argv):
    # near eps 0 a run takes RI at every draw but about one in 1e23, and RI
    # never normalises Mn:2: every run is cut off, which is inconclusive
    assert main(list(argv)) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, line", [
    (("montecarlo", "Mn:2", "--eps", f"{WIDE - 1}/{WIDE}", "--samples", "20"), "mean: 5.000000"),
    (("reduce", "Mn:2", "--strategy", f"peps:{WIDE - 1}/{WIDE}", "--fuel", "50"),
     "normal form in 5 steps"),
], ids=["montecarlo", "reduce"])
def test_samplers_take_a_wide_eps_near_lo(capsys, argv, line):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert line in out.splitlines()


# a cycle whose LO reduct renames a binder, so every line names the reduct
RENAMING_CYCLE = "a ((\\v0.v0 v0) (\\v1.v1 v1))"


def _reduce_lines(capsys, text, strategy, fuel):
    code, out = run_cli(capsys, "reduce", text, "--strategy", strategy, "--fuel", str(fuel))
    return code, out.splitlines()


def test_reduce_endpoints_agree_with_lo_and_ri_up_to_alpha(capsys):
    # the endpoints print the same bytes as lo and ri, not only the same classes
    texts = [RENAMING_CYCLE] + [e.term_id for e in anchor_corpus()]
    texts += [render(e.term) for e in random_corpus(SubCalculus.FULL, count=300)]
    for text in texts:
        for fuel in (0, 3, 40):
            for named, mixture in (("lo", "peps:1/1"), ("ri", "peps:0/1")):
                assert _reduce_lines(capsys, text, named, fuel) == _reduce_lines(
                    capsys, text, mixture, fuel
                ), (text, named, fuel)


REDUCE_ENDPOINT_DIGESTS = {  # SHA-256 of stdout; every run exits 2 (fuel exhausted)
    (RENAMING_CYCLE, "3"): "dd6e0adeaa70f01058dca08be321261b2f68d6cfbb7e7c100e3f7f369af20f05",
    (SELF_APPLICATION, "2"): "090a7b4b35041310da8b2d963b31c922160a00af2315c7933575414837f38b23",
}


@pytest.mark.parametrize(
    "text, fuel, strategy",
    [(RENAMING_CYCLE, "3", "lo"), (RENAMING_CYCLE, "3", "peps:1/1"),
     (SELF_APPLICATION, "2", "ri"), (SELF_APPLICATION, "2", "peps:0/1")],
    ids=["lo", "peps:1/1", "ri", "peps:0/1"],
)
def test_reduce_endpoint_matches_golden_digest(capsys, text, fuel, strategy):
    code, out = run_cli(capsys, "reduce", text, "--strategy", strategy, "--fuel", fuel)
    assert code == EXIT_INCONCLUSIVE
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REDUCE_ENDPOINT_DIGESTS[text, fuel]


@given(reducible_terms, st.sampled_from(["1/2", "2/5", "3/7", "1/3"]), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
@example(parse(RENAMING_CYCLE), "1/2", 0)
def test_reduce_mixture_lines_are_one_step_reducts(t, eps, seed):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["reduce", render(t), "--strategy", f"peps:{eps}", "--seed", str(seed),
                     "--fuel", "20"])
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    lines = [line.removeprefix("-> ") for line in buf.getvalue().splitlines()[:-1]]
    assert len(lines) > 1
    for before, after in zip(lines, lines[1:]):
        previous = parse(before)
        assert after in {render(reduce_at(previous, p)) for p in redexes(previous)}


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


# analyze and sweep share main's one handler for a chain past its state cap
CAPPED_CHAINS = [("analyze", "Mn:3", "--eps", "1/2", "--state-cap", "2"),
                 ("sweep", "Mn:3", "--state-cap", "2")]
CAPPED_LINE = "inconclusive: more than 2 states reachable (saw 3)\n"


def test_sweep_state_cap_inconclusive(capsys):
    assert run_cli(capsys, "sweep", "Mn:3", "--state-cap", "2") == (EXIT_INCONCLUSIVE, CAPPED_LINE)


@pytest.mark.parametrize("argv", CAPPED_CHAINS, ids=lambda argv: argv[0])
def test_capped_chain_line_goes_to_out(tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == CAPPED_LINE


@pytest.mark.parametrize("argv", CAPPED_CHAINS, ids=lambda argv: argv[0])
def test_capped_chain_with_unwritable_out_exits_3(tmp_path, capsys, argv):
    target = tmp_path / "nonexistent" / "dir" / "x"
    _assert_one_line_usage_error(main([*argv, "--out", str(target)]), capsys)


def test_analyze_rejects_decimal_eps(capsys):
    code = main(["analyze", "example1", "--eps", "0.5"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep


def _csv_rows(lines):
    """The data lines of sweep's CSV as dicts keyed by the header's columns."""
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines]


def test_sweep_csv_header_and_roundtrip(capsys):
    code, out = run_cli(capsys, "sweep", "Mn:4", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = sweep_rows("Mn:4", mk_Mn(4), GRID_WITH_ZERO, 10_000, 1000)  # the default grid
    assert [",".join(map(str, r.values())) for r in rows] == lines[1:]
    by_eps = {r["epsilon"]: r for r in _csv_rows(lines[1:])}
    assert by_eps["1/1"]["expected_length"] == "7/1"  # n + 3 at eps = 1
    assert all(r["n_ri"] == "div" for r in by_eps.values())  # RI never terminates
    assert by_eps["0/1"]["foster_bound"] == "-"  # bound undefined at eps=0
    assert by_eps["0/1"]["expected_length"] == "inf"


def test_sweep_identity_all_zero(capsys):
    code, out = run_cli(capsys, "sweep", "I", "--format", "csv")
    assert code == EXIT_OK
    for row in _csv_rows(out.strip().splitlines()[1:]):
        assert row["expected_length"] == "0/1" and row["n_lo"] == row["n_ri"] == "0"


def test_sweep_custom_grid_sorted(capsys):
    code, out = run_cli(capsys, "sweep", "example1", "--grid", "3/4,1/4", "--format", "csv")
    assert code == EXIT_OK
    rows = _csv_rows(out.strip().splitlines()[1:])
    assert [r["epsilon"] for r in rows] == ["1/4", "3/4"]
    assert [r["expected_length"] for r in rows] == ["4/1", "4/3"]


def test_sweep_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _ = run_cli(capsys, "sweep", "example2", "--format", "csv", "--out", str(target))
    assert code == EXIT_OK
    lines = target.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert _csv_rows(lines[-1:])[0]["term_id"] == "example2"


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_montecarlo_all_cutoffs_is_inconclusive(capsys, fmt):
    # with every run cut off there is no mean: exit 2; with some, exit 0
    base = ("montecarlo", "example1", "--samples", "3", "--format", fmt)
    for flags, cutoffs, want in ((("--eps", "0", "--max-steps", "5"), 3, EXIT_INCONCLUSIVE),
                                 (("--eps", "1/2", "--max-steps", "2"), 2, EXIT_OK)):
        code, out = run_cli(capsys, *base, *flags)
        assert code == want
        assert f"cutoffs: {cutoffs}\n" in out or f'"cutoff_count": {cutoffs},' in out


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


@pytest.mark.parametrize("argv", [("analyze", "Mn:3", "--eps", "1/2"), ("sweep", "Mn:3")],
                         ids=lambda argv: argv[0])
def test_nonpositive_state_cap_error_names_the_flag(capsys, argv):
    assert main([*argv, "--state-cap", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "lambdalab: error: --state-cap must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("montecarlo", "I", "--eps", "1/2", "--samples", "0"), "--samples must be >= 1, got 0"),
        (("montecarlo", "I", "--eps", "1/2", "--max-steps", "0"),
         "--max-steps must be >= 1, got 0"),
        (("laws", "--size-cap", "0"), "--size-cap must be >= 1, got 0"),
        (("laws", "--count", "-1"), "--count must be >= 0, got -1"),
        (("reduce", "Mn:abc"), "Mn:abc: index 'abc' is not an integer"),
        (("analyze", "Cn:x", "--eps", "1/2"), "Cn:x: index 'x' is not an integer"),
        (("reduce", "Mn:0"), "Mn:0: index must be >= 1, got 0"),
        (("reduce", "Mn:-1"), "Mn:-1: index must be >= 1, got -1"),
        (("reduce", "Cn:0"), "Cn:0: index must be >= 1, got 0"),
    ],
    ids=["samples", "max-steps", "size-cap", "count", "Mn-index", "Cn-index",
         "Mn-zero", "Mn-negative", "Cn-zero"],
)
def test_usage_error_names_what_was_typed(capsys, argv, message):
    assert main(list(argv)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"lambdalab: error: {message}\n"
    assert captured.out == ""


DEEP = 30_000


@pytest.mark.parametrize(
    "literal",
    [" ".join(["x"] * DEEP), "\\x." * DEEP + "x"],
    ids=["application-spine", "abstractions"],
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
    [("analyze", "Mn:99999999999", "--eps", "1/2", "--state-cap", "1"),
     ("reduce", "Cn:99999999999")],
    ids=["analyze-Mn", "reduce-Cn"],
)
def test_family_index_above_recursion_limit_is_refused_before_building(capsys, argv):
    started = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - started
    assert (code, capsys.readouterr()) == (
        EXIT_USAGE, ("", "lambdalab: error: term nested too deeply to traverse\n")
    )
    assert elapsed < 0.5


def test_family_index_below_recursion_limit_is_built(capsys):
    code, out = run_cli(capsys, "analyze", "Mn:19000", "--eps", "1/2", "--state-cap", "1")
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("inconclusive: ")


def test_deeply_parenthesised_variable_parses(capsys):
    literal = "(" * DEEP + "x" + ")" * DEEP
    assert main(["reduce", literal]) == EXIT_OK
    assert capsys.readouterr() == ("x\nalready in normal form\n", "")
    assert main(["analyze", literal, "--eps", "1/2"]) == EXIT_OK
    assert "transient states: 0 (+ trm)" in capsys.readouterr().out.splitlines()


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
# the JSON emitter and repeated calls of main in one process


json_values = st.recursive(
    st.none() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [{}], "": None})
@example(["λ", "\"quoted\"", "back\\slash", "\x00\x1f\n\t\x7f", "\u2028", "\U0001d706"])
@example({"λx.x": {"\\y": [-1, 0, 2**70, None]}})
def test_json_emitter_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, True, False, [0, 2.0], {"k": True}, (1,), {1: "v"}])
def test_json_emitter_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


def test_json_emitter_does_not_recurse():
    # dicts and lists in turn, 5 000 deep; json.dumps itself recurses, so
    # the expected text is written line by line
    depth = 5_000
    value = "leaf"
    for level in reversed(range(depth)):
        value = {"k": value} if level % 2 == 0 else [value]
    opening = ["{"] + [
        "  " * level + ('"k": [' if level % 2 == 1 else "{") for level in range(1, depth)
    ]
    closing = ["  " * level + ("}" if level % 2 == 0 else "]") for level in reversed(range(depth))]
    leaf = "  " * depth + ('"k": "leaf"' if depth % 2 == 1 else '"leaf"')
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = _json(value)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "\n".join(opening + [leaf] + closing)


EPS_ZERO_NOTE = (
    "eps=0 is deterministic innermost reduction; the finite-expectation "
    "guarantee assumes eps>0"
)
WRITER_EPS = ("0", "2/7", "1/2", "1")


def _assert_analyze_json_is_json_dumps(capsys, literal: str, eps: str) -> dict:
    """analyze --format json on literal prints json.dumps of the library's
    report with the CLI's keys added, in the CLI's order; returns the report."""
    chain = analyze(parse(literal), Strategy.peps(Fraction(eps)))
    payload = chain.to_report()
    payload["term_id"] = literal
    payload["expected_length_decimal"] = fraction_to_decimal(chain.expected_length)
    if eps == "0":
        payload["note"] = EPS_ZERO_NOTE
    code, out = run_cli(capsys, "analyze", literal, "--eps", eps, "--format", "json")
    assert code == EXIT_OK
    assert out == json.dumps(payload, indent=2) + "\n", (literal, eps)
    return payload


@pytest.mark.parametrize("tag", list(SubCalculus), ids=lambda tag: tag.value)
def test_analyze_json_is_json_dumps_of_the_report_on_random_terms(capsys, tag):
    reducible = 0
    for seed in range(150):
        literal = render(random_term(seed, 20, tag))
        for eps in WRITER_EPS:
            reducible += bool(_assert_analyze_json_is_json_dumps(capsys, literal, eps)["states"])
    assert reducible >= 150  # the corpus is not all normal forms


@pytest.mark.parametrize("eps", WRITER_EPS)
def test_analyze_json_is_json_dumps_of_the_report_on_special_terms(capsys, eps):
    normal = _assert_analyze_json_is_json_dumps(capsys, "x", eps)
    assert normal["states"] == normal["transitions"] == []
    omega = _assert_analyze_json_is_json_dumps(capsys, r"(\x.x x) (\x.x x)", eps)
    assert omega["transitions"] == [{"from": 0, "to": 0, "prob": "1/1"}]
    assert omega["expected_length"] == "inf"
    # a 2-state component under the origin where both sides step
    pinned = _assert_analyze_json_is_json_dumps(capsys, r"(\w.c) ((\x.x x) (\y.y (\z.y z)))", eps)
    assert len(pinned["states"]) == (1 if eps == "1" else 3)


REPEATED_MAIN_COMMANDS = (
    ("analyze", "example2"),  # --eps missing: argparse's usage error
    ("analyze", "example2", "--eps", "1/3", "--state-cap", "0"),
    ("analyze", "example2", "--eps", "1/3", "--format", "json"),
    ("analyze", "example2", "--eps", "1/3"),
)


def test_main_in_one_process_matches_fresh_processes(capsys):
    src = str(Path(lambdalab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in REPEATED_MAIN_COMMANDS:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "lambdalab.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv


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


# ---------------------------------------------------------------------------
# golden outputs


GOLDEN_DIGESTS = {  # SHA-256 of stdout
    ("laws", "--suite", "all", "--format", "json"):
        "56913488f2fe38821f73800862aa8b2b5afe555fba6f7d18493d06b7e4ce02f2",
    ("sweep", "example2", "--format", "csv"):
        "4b4cb005a2e307c923111a4e528664ba020786382778ea94d7aca86813269f94",
    ("analyze", "Mn:12", "--eps", "3/7", "--format", "json"):
        "34a9f46530f902c4afbaca35dd1a4bbcbf634c5f7356ac88e3f302819ee3def3",
    ("montecarlo", "Mn:20", "--eps", "2/7", "--seed", "9", "--format", "json"):
        "fabfeb68b66757638f0cc016b18b2574bcbeb2fe9ebd9d5aeb9ab9594594a0a7",
    ("reduce", "Mn:6", "--strategy", "peps:1/3", "--seed", "5"):
        "d1ac6b942f2d8cc299dfe1bdffab5912864f6c66d2b941c850376a749ce4874c",
}


@pytest.mark.parametrize("argv", GOLDEN_DIGESTS, ids=lambda argv: argv[0])
def test_output_matches_golden_digest(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[argv]


SWEEP_GOLDEN_DIGESTS = {  # SHA-256 of stdout, in the formats the csv digest leaves out
    ("sweep", "Mn:4", "--format", "json"):
        "e86d7577de93a6204715d6382c1c7d27683c8e44a38cc7352c1d9b22d0c3db70",
    ("sweep", "Omega", "--fuel", "3"):
        "a48084ddb85c791c8221902ef579a6872c5feee4d3ee0e6b0046ad493b9c0f55",
}


@pytest.mark.parametrize("argv", SWEEP_GOLDEN_DIGESTS, ids=["json", "text"])
def test_sweep_matches_golden_digest(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SWEEP_GOLDEN_DIGESTS[argv]


ANALYZE_GOLDEN_DIGESTS = {  # SHA-256 of stdout: text reports and a normal or divergent origin
    ("analyze", "example2", "--eps", "1/3"):
        "445b1c2e0f931fb4157a365c185c8f6c5f1cadc72818cadfdfa2beb4b8127cfd",
    ("analyze", "I", "--eps", "1/2"):
        "e377bd66f96756c4d352f474d564c06e65175505251350ca4a2855d34c3dcd44",
    ("analyze", "Omega", "--eps", "0", "--format", "json"):
        "46b8dcf895fb53195ef44051776246bbb4af02b5e36b8e717fe8aff2ecd9cdcb",
}


@pytest.mark.parametrize("argv", ANALYZE_GOLDEN_DIGESTS, ids=["text", "normal-origin", "json"])
def test_analyze_matches_golden_digest(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ANALYZE_GOLDEN_DIGESTS[argv]


MORE_ANALYZE_GOLDEN_DIGESTS = {  # SHA-256 of stdout: chain_mn and chain_dup jobs, and two more
    ("analyze", "Mn:9", "--eps", "3/7", "--format", "json"):
        "e91db9059a5a260a1070399153c8de0d668b95d8aa68cf93fbfc2e4f463e6c6d",
    ("analyze", "(\\x.x x x x x x x x) ((\\z.z) ((\\z.z) ((\\z.z) (y))))", "--eps", "4/7",
     "--format", "json"):
        "240bbb2945c0a02127bcfca86f09501f244a3d0fc98a041e0ffbab784ea925e1",
    # states whose binders substitution renames (y1), and the 2-state component
    ("analyze", "(\\f.\\y.f (f y)) (\\x.\\y.x y)", "--eps", "1/3", "--format", "json"):
        "39bf01a2ab291a339eaa691a990513fc4bc93ace320bed5d5436d2648a275688",
    ("analyze", "(\\w.c) ((\\x.x x) (\\y.y (\\z.y z)))", "--eps", "2/7", "--format", "json"):
        "cad918260adaf1ef85763eb9483fc335b492868204b397541aafc5a3788dccdb",
}


@pytest.mark.parametrize(
    "argv", MORE_ANALYZE_GOLDEN_DIGESTS, ids=["mn", "dup", "renaming", "multi-state"]
)
def test_more_analyze_matches_golden_digest(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MORE_ANALYZE_GOLDEN_DIGESTS[argv]


LAWS_GOLDEN_DIGESTS = {  # exit code and SHA-256 of stdout: laws runs that do not all pass
    # one counterexample (anf_equal_length) and two inconclusive cases
    ("laws", "--suite", "all", "--size-cap", "20", "--format", "json"): (
        EXIT_VIOLATION,
        "40cc4d81e278bad33da64e3ebc86664b241429fe4c6ae3a358cef50bfcc3f559",
    ),
    # one inconclusive case, at a size cap where graphs get large
    ("laws", "--suite", "core", "--size-cap", "30", "--count", "300", "--seed", "7",
     "--format", "json"): (
        EXIT_OK,
        "29b7851ca7d7e565c3397c2f09d06a7a34cbc9c7796cca3a172e82f0340002bd",
    ),
    # 915 entries per mixed-corpus law, one counterexample (anf_equal_length)
    ("laws", "--suite", "all", "--size-cap", "16", "--count", "300", "--seed", "11",
     "--format", "json"): (
        EXIT_VIOLATION,
        "387e18cba9ab6ea4fe9a4a1f8ff2fa067923aee260f94e6cba31f78e22ca9d69",
    ),
}


@pytest.mark.parametrize(
    "argv", LAWS_GOLDEN_DIGESTS, ids=["counterexample", "inconclusive", "all-seed-11"]
)
def test_laws_matches_golden_digest(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == LAWS_GOLDEN_DIGESTS[argv]
