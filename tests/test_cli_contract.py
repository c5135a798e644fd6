"""The CLI's contract under fuzzing, in process through cli.main.

Every subcommand is called with flags at their edge values: zero,
negative, empty, huge, num/0, eps outside [0,1] and eps with huge
numerators and denominators.  Caps, fuel, samples, counts and step
budgets stay small, so each call is fast; repro runs only with malformed
flags.  Each call must end with an exit code in {0, 1, 2, 3}, returned or
raised by the argument parser as SystemExit(3), with nothing else
escaping.  On exit 3 stdout is empty and stderr ends with exactly one
error line.  Every JSON output is the text json.dumps(indent=2) gives it.
"""

import contextlib
import io
import json
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lambdalab import cli

HUGE = "9" * 40


def _values(valid, edge):
    """One of valid or edge, a valid value three times as often."""
    return st.sampled_from((valid, valid, valid, edge)).flatmap(st.sampled_from)


TERMS = _values(
    ["I", "Omega", "example1", "example2", "Mn:2", "Cn:3", "x", r"\x.x", r"(\x.x x) (\x.x x)",
     r"(\x.x x) ((\y.y) z)", r"(\w.c) ((\x.x x) (\y.y (\z.y z)))", "λx.x", " Omega"],
    ["Mn:0", "Cn:-1", "Mn:x", "Mn:", "Mn:99999999999", "Cn:99999999999", "", " ", "(", ")",
     "\\", "x ."],
)
EPS = _values(
    ["0", "1", "1/2", "2/7", "0/3", " 1/3", f"1/{HUGE}", f"{HUGE}/1{HUGE}", f"{HUGE}/{HUGE}"],
    ["", " ", "-1/2", "3/2", "2", "1/0", "0/0", "0.5", "1/", "x", f"1{HUGE}/{HUGE}"],
)
SMALL = _values(["1", "2", "3", " 2"], ["0", "-1", "-7", "", "x", "1.5"])
SEEDS = _values(["0", "1", "-1", str(2**64 + 3), f"-{HUGE}"], ["", "x", "1.5"])
STRATEGIES = _values(["lo", "ri", "peps:1/2", "peps:0", "peps:1", f"peps:1/{HUGE}"],
                     ["peps:3/2", "peps:1/0", "peps:", "", "bogus"])
GRIDS = _values(["0,1/2,1", "1/3", "1/2,1/2", f"1/{HUGE},1"],
                ["", ",", " , ", "1/0", "2", "-1/2", "0.5"])
SUITES = _values(["core", "lo_monotone", "anf_equal_length", "all"], ["", "bogus"])


def _formats(*others):
    """json as often as the subcommand's other formats together."""
    return _values(["json"] * len(others) + list(others), ["", "xml", "JSON"])


def _flag(name, values):
    """The flag with one of values, always given."""
    return values.map(lambda value: [name, value])


def _maybe(name, values):
    """The flag with one of values, or left out."""
    return st.just([]) | _flag(name, values)


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [arg for part in ps for arg in part])


TERM = TERMS.map(lambda term: [term])
COMMANDS = st.one_of(
    _command("reduce", TERM, _flag("--fuel", SMALL), _maybe("--strategy", STRATEGIES),
             _maybe("--seed", SEEDS), _maybe("--out", st.just(""))),
    _command("analyze", TERM, _flag("--eps", EPS), _flag("--state-cap", SMALL),
             _maybe("--format", _formats("text"))),
    _command("sweep", TERM, _maybe("--grid", GRIDS), _flag("--fuel", SMALL),
             _flag("--state-cap", SMALL), _maybe("--format", _formats("text", "csv"))),
    _command("montecarlo", TERM, _flag("--eps", EPS), _flag("--samples", SMALL),
             _flag("--max-steps", SMALL), _maybe("--seed", SEEDS),
             _maybe("--format", _formats("text"))),
    _command("laws", _maybe("--suite", SUITES), _flag("--count", SMALL),
             _flag("--size-cap", SMALL), _maybe("--seed", SEEDS),
             _maybe("--format", _formats("text"))),
    _command("repro", st.sampled_from([["extra"], ["--out"], ["--bogus"], ["--format", "json"]])),
)


def contract_violation(argv: list) -> "str | None":
    """What cli.main on argv does against the contract, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # the argument parser's usage errors
                if exc.code != cli.EXIT_USAGE:
                    return f"SystemExit({exc.code!r})"
                code = exc.code
    except Exception as exc:  # anything escaping main breaks the contract
        return f"{type(exc).__name__} escaped: {exc}"
    out, err = out.getvalue(), err.getvalue()
    if code not in (cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_INCONCLUSIVE, cli.EXIT_USAGE):
        return f"exit code {code!r}"
    if code == cli.EXIT_USAGE:
        lines = err.splitlines()
        if out or not err.endswith("\n") or not lines or "error: " not in lines[-1]:
            return f"usage error with stdout {out!r} and stderr {err!r}"
        if sum("error:" in line for line in lines) != 1:
            return f"more than one error line: {err!r}"
        return None
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "json" and (code != cli.EXIT_INCONCLUSIVE or argv[0] == "montecarlo"):
        try:
            if out != json.dumps(json.loads(out), indent=2) + "\n":
                return "json output is not json.dumps(indent=2) of itself"
        except ValueError:
            return f"json output does not parse: {out[:80]!r}"
    return None


@settings(max_examples=500, deadline=None)
@given(COMMANDS)
def test_every_call_keeps_the_cli_contract(argv):
    assert contract_violation(argv) is None, argv


def _raise_key_error(*args, **kwargs):
    raise KeyError("planted")


def _second_error_line(text):
    sys.stderr.write("lambdalab: error: planted\n")
    raise ValueError("planted")


def _unindented_json(obj):
    return json.dumps(obj)


@pytest.mark.parametrize(
    "patch, argv",
    [
        (("estimate", _raise_key_error), ["montecarlo", "I", "--eps", "1/2", "--samples", "2"]),
        (("render", _raise_key_error), ["reduce", "I", "--fuel", "1"]),
        (("parse_probability", _second_error_line), ["analyze", "I", "--eps", "1/2"]),
        (("_analyze_json", _unindented_json),
         ["analyze", "example2", "--eps", "1/2", "--format", "json"]),
        (("_json", _unindented_json),
         ["montecarlo", "Omega", "--eps", "1/2", "--samples", "2", "--max-steps", "2",
          "--format", "json"]),
    ],
    ids=["exception-escapes-montecarlo", "exception-escapes-reduce", "second-error-line",
         "analyze-json-unindented", "montecarlo-json-unindented-at-exit-2"],
)
def test_planted_fault_breaks_the_contract(monkeypatch, patch, argv):
    assert contract_violation(argv) is None
    monkeypatch.setattr(cli, *patch)
    assert contract_violation(argv) is not None
