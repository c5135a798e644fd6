"""Command-line front end.

Subcommands: reduce (step traces), analyze (exact chain solve), sweep
(per-eps table, CSV-friendly), montecarlo (seeded estimation), laws (the
property suite) and repro (the full verification report).  Exit codes:
0 success, 1 counterexample or violation, 2 inconclusive (fuel or state
cap), 3 usage error.  Output for fixed flags and seeds is byte-identical
across runs and platforms.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from . import laws as laws_mod
from . import repro as repro_mod
from .montecarlo import SplitMix64, estimate
from .pars import DEFAULT_STATE_CAP, TRM, StateCapExceeded, analyze, grid_expected_lengths
from .strategies import DEFAULT_FUEL, Strategy, n_steps, parse_probability, walk
from .terms import (
    NAMED_TERMS,
    ParseError,
    Term,
    ensure_recursion_headroom,
    is_normal_canonical,
    mk_Cn,
    mk_Mn,
    parse,
    reduce_at,
    render,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with 3, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fraction_to_decimal(f: Optional[Fraction]) -> str:
    """f to 12 significant digits, or "inf" for None."""
    if f is None:
        return "inf"
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(f.numerator) / Decimal(f.denominator))


def resolve_term(text: str) -> tuple[str, Term]:
    """Named corpus terms by name, anything else as a term literal."""
    if text in NAMED_TERMS:
        return text, NAMED_TERMS[text]()
    for prefix, make in (("Cn:", mk_Cn), ("Mn:", mk_Mn)):
        if text.startswith(prefix):
            index = text[len(prefix):]
            try:
                n = int(index)
            except ValueError:
                raise ValueError(f"{text}: index {index!r} is not an integer") from None
            if n < 1:
                raise ValueError(f"{text}: index must be >= 1, got {n}")
            if n > sys.getrecursionlimit():  # refused before a term this deep is built
                raise RecursionError(f"{text}: index above the recursion limit")
            return text, make(n)
    return text, parse(text)


def parse_grid(text: str) -> list[Fraction]:
    grid = [parse_probability(part) for part in text.split(",") if part.strip()]
    if not grid:
        raise ValueError("empty eps grid")
    return sorted(set(grid))


# the text of each scalar type the CLI's payloads hold, by exact type (a bool is not an int here)
_SCALAR_TEXT = {str: _quote, int: repr, type(None): lambda _: "null"}


def _json(obj) -> str:
    """The text of json.dumps(obj, indent=2) for dicts with str keys, lists,
    str, int and None, the only types the CLI's payloads hold; any other
    type raises TypeError.

    One loop on an explicit stack, so the depth of nesting is not bounded
    by the recursion limit.  A scalar inside a dict or list is written in
    place."""
    parts = []
    todo = [(obj, "")]  # last first: text to write, or (value, indent of its line)
    while todo:
        entry = todo.pop()
        if type(entry) is not tuple:
            parts.append(entry)
            continue
        value, indent = entry
        kind = type(value)
        scalar = _SCALAR_TEXT.get(kind)
        if scalar is not None:
            parts.append(scalar(value))
            continue
        inner = indent + "  "
        separator = ",\n" + inner
        if kind is dict:
            for key in value:
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            items = zip([f"{_quote(key)}: " for key in value], value.values())
            opening, closing = "{", "}"
        elif kind is list:
            items = zip(repeat(""), value)
            opening, closing = "[", "]"
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        if not value:
            parts.append(opening + closing)
            continue
        pending, lead = [], f"{opening}\n{inner}"
        for head, item in items:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is None:
                pending += (lead + head, (item, inner))
            else:
                pending.append(lead + head + scalar(item))
            lead = separator
        pending.append(f"\n{indent}{closing}")
        todo += reversed(pending)
    return "".join(parts)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # reported as a usage error by main
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_reduce(args) -> int:
    _, t = resolve_term(args.term)
    strategy = Strategy.parse(args.strategy)
    # one seeded run, replaying each step's redex path on the named terms
    forms = list(islice(walk(t, strategy, SplitMix64(args.seed).below), args.fuel + 1))
    path = [t]
    for _, redex in forms[1:]:
        path.append(reduce_at(path[-1], redex))
    lines = [render(path[0])] + [f"-> {render(u)}" for u in path[1:]]
    steps = len(path) - 1
    if not is_normal_canonical(forms[-1][0]):
        lines.append(f"fuel exhausted after {steps} steps")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_INCONCLUSIVE
    if steps == 0:
        lines.append("already in normal form")
    else:
        lines.append(f"normal form in {steps} step" + ("s" if steps != 1 else ""))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_TRM_TEXT = _quote(TRM)  # the text of an edge's "to" when it is the absorbing class


def _analyze_json(report: dict) -> str:
    """The text of json.dumps(report, indent=2) for analyze's report, whose
    values are all str but two arrays: the states, written with one join,
    and the transitions, with one format per edge."""
    fields = []
    for key, value in report.items():
        if key == "states":
            items = [*map(_quote, value)]
        elif key == "transitions":
            items = [
                f'{{\n      "from": {tr["from"]},\n'
                f'      "to": {_TRM_TEXT if tr["to"] == TRM else tr["to"]},\n'
                f'      "prob": {_quote(tr["prob"])}\n    }}'
                for tr in value
            ]
        else:
            fields.append(f"{_quote(key)}: {_quote(value)}")
            continue
        array = ",\n    ".join(items)
        fields.append(f"{_quote(key)}: " + (f"[\n    {array}\n  ]" if items else "[]"))
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def cmd_analyze(args) -> int:
    term_id, t = resolve_term(args.term)
    eps = parse_probability(args.eps)
    chain = analyze(t, Strategy.peps(eps), args.state_cap)
    report = chain.to_report()
    report["term_id"] = term_id
    report["expected_length_decimal"] = fraction_to_decimal(chain.expected_length)
    if eps == 0:
        report["note"] = (
            "eps=0 is deterministic innermost reduction; the finite-expectation "
            "guarantee assumes eps>0"
        )
    if args.format == "json":
        _emit(_analyze_json(report) + "\n", args.out)
        return EXIT_OK
    lines = [
        f"term: {term_id} = {report['origin']}",
        f"strategy: {report['strategy']}",
        f"transient states: {len(report['states'])} (+ trm)",
        f"termination_prob: {report['termination_prob']}",
        f"expected_length: {report['expected_length']}"
        f" (= {report['expected_length_decimal']})",
    ]
    if "note" in report:
        lines.append(f"note: {report['note']}")
    lines.append("transitions:")
    for tr in report["transitions"]:
        to = tr["to"] if tr["to"] == "trm" else f"[{tr['to']}]"
        lines.append(f"  [{tr['from']}] -> {to} : {tr['prob']}")
    lines.append("states:")
    for i, s in enumerate(report["states"]):
        lines.append(f"  [{i}] {s}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# the columns of a sweep row, in CSV order
SWEEP_COLUMNS = (
    "term_id", "epsilon", "expected_length", "expected_length_decimal",
    "termination_prob", "n_lo", "n_ri", "foster_bound",
)
CSV_HEADER = ",".join(SWEEP_COLUMNS)
# (title, column, width) of the text table
_TEXT_COLUMNS = (
    ("epsilon", "epsilon", 10), ("expected", "expected_length", 14),
    ("decimal", "expected_length_decimal", 16), ("term.prob", "termination_prob", 10),
    ("n_lo", "n_lo", 6), ("n_ri", "n_ri", 6), ("bound", "foster_bound", 10),
)


def sweep_rows(term_id: str, t: Term, grid, fuel: int, state_cap: int) -> list[dict]:
    """One dict per grid point, keyed by SWEEP_COLUMNS in order, with the
    values that the csv, json and text formats all print: fractions as
    num/den, an infinite expected length as "inf", a step count as an int
    or "div" when the fuel runs out, an undefined bound as "-"."""
    solved = grid_expected_lengths(t, grid, state_cap)
    lo = n_steps(t, "lo", fuel)
    ri = n_steps(t, "ri", fuel)
    rows = []
    for eps in sorted(solved):
        termination, expected = solved[eps]
        rows.append({
            "term_id": term_id,
            "epsilon": frac_str(eps),
            "expected_length": "inf" if expected is None else frac_str(expected),
            "expected_length_decimal": fraction_to_decimal(expected),
            "termination_prob": frac_str(termination),
            "n_lo": lo.steps if lo.finite else "div",
            "n_ri": ri.steps if ri.finite else "div",
            "foster_bound": frac_str(lo.steps / eps) if lo.finite and eps > 0 else "-",
        })
    return rows


def cmd_sweep(args) -> int:
    term_id, t = resolve_term(args.term)
    grid = parse_grid(args.grid)
    rows = sweep_rows(term_id, t, grid, args.fuel, args.state_cap)
    if args.format == "csv":
        lines = [CSV_HEADER] + [",".join(map(str, r.values())) for r in rows]
    elif args.format == "json":
        lines = [_json(rows)]
    else:
        lines = [
            f"sweep of {term_id} = {render(t)}",
            " ".join(f"{title:<{width}}" for title, _, width in _TEXT_COLUMNS),
        ] + [" ".join(f"{r[key]:<{width}}" for _, key, width in _TEXT_COLUMNS) for r in rows]
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# the moments of an estimate that montecarlo prints, to six decimals, in order
_MOMENTS = ("mean", "sample_variance", "confidence_halfwidth_95")


def cmd_montecarlo(args) -> int:
    term_id, t = resolve_term(args.term)
    strategy = Strategy.peps(parse_probability(args.eps))
    est = estimate(t, strategy, args.seed, args.samples, args.max_steps)
    code = EXIT_INCONCLUSIVE if est.cutoff_count == est.sample_count else EXIT_OK
    payload = {
        "term_id": term_id,
        "strategy": strategy.name,
        "base_seed": args.seed,
        "sample_count": est.sample_count,
        "cutoff_count": est.cutoff_count,
        **{key: f"{getattr(est, key):.6f}" for key in _MOMENTS},
    }
    if args.format == "json":
        _emit(_json(payload) + "\n", args.out)
        return code
    lines = [
        f"term: {term_id} = {render(t)}",
        f"strategy: {strategy.name}",
        f"samples: {est.sample_count} (base seed {args.seed}, max {args.max_steps} steps)",
        f"cutoffs: {est.cutoff_count}",
    ] + [f"{key}: {payload[key]}" for key in _MOMENTS]
    _emit("\n".join(lines) + "\n", args.out)
    return code


def cmd_laws(args) -> int:
    reports = laws_mod.run_suite(
        args.suite,
        base_seed=args.seed,
        size_cap=args.size_cap,
        count=args.count,
    )
    if args.format == "json":
        _emit(_json([r.to_dict() for r in reports]) + "\n", args.out)
    else:
        lines = []
        for r in reports:
            lines.append(r.summary())
            if r.cases_run == 0:
                lines.append(f"  warning: empty corpus for {r.law_id}; vacuous pass")
            for ce in r.counterexamples:
                lines.append(f"  counterexample: {ce}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VIOLATION if any(not r.passed for r in reports) else EXIT_OK


def cmd_repro(args) -> int:
    results = repro_mod.run_all()
    lines = []
    for res in results:
        lines.append(res.line())
        for detail_line in res.detail.splitlines():
            lines.append(f"      {detail_line}")
    failed = [r for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + ("" if not failed else f"; FAILED: {[r.number for r in failed]}")
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VIOLATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state in it between calls."""
    parser = _Parser(prog="lambdalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="print a step trace")
    p.add_argument("term", help="term literal or corpus name (I, Omega, Cn:3, ...)")
    p.add_argument("--strategy", default="lo", help="lo, ri or peps:<num>/<den>")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--seed", type=int, default=0, help="seed for peps traces")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("analyze", help="exact chain analysis for one eps")
    p.add_argument("term")
    p.add_argument("--eps", required=True, help="num/den (decimals rejected)")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="exact expected lengths across an eps grid")
    p.add_argument("term")
    p.add_argument("--grid", default="0,1/10,1/4,1/2,3/4,9/10,1")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("montecarlo", help="seeded Monte Carlo estimate")
    p.add_argument("term")
    p.add_argument("--eps", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("laws", help="run the law suite")
    p.add_argument("--suite", default="all",
                   help="all, core, or one of " + ", ".join(laws_mod.LAW_IDS))
    p.add_argument("--seed", type=int, default=laws_mod.DEFAULT_CORPUS_SEED)
    p.add_argument("--size-cap", type=int, default=laws_mod.DEFAULT_CORPUS_SIZE_CAP)
    p.add_argument("--count", type=int, default=laws_mod.DEFAULT_CORPUS_COUNT)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("repro", help="run the full verification report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_repro)

    return parser


# the least value each integer flag accepts, checked before any subcommand runs
FLAG_MINIMUMS = (
    ("fuel", 0), ("state_cap", 1), ("samples", 1), ("max_steps", 1), ("size_cap", 1), ("count", 0)
)


def main(argv=None) -> int:
    ensure_recursion_headroom()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in FLAG_MINIMUMS:
            value = getattr(args, dest, least)
            if value < least:
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} must be >= {least}, got {value}")
        try:
            return args.func(args)
        except StateCapExceeded as exc:  # analyze and sweep explore the chain
            _emit(f"inconclusive: {exc}\n", args.out)
            return EXIT_INCONCLUSIVE
    except (ParseError, ValueError) as exc:
        sys.stderr.write(f"lambdalab: error: {exc}\n")
        return EXIT_USAGE
    except RecursionError:  # the term traversals recurse on nesting depth
        sys.stderr.write("lambdalab: error: term nested too deeply to traverse\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
