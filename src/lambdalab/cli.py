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
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from . import laws as laws_mod
from . import repro as repro_mod
from .montecarlo import estimate, sample_path
from .pars import (
    StateCapExceeded,
    analyze,
    grid_expected_lengths,
)
from .strategies import STEPPERS, Strategy, n_steps, parse_probability
from .terms import (
    NAMED_TERMS,
    ParseError,
    Term,
    ensure_recursion_headroom,
    mk_Cn,
    mk_Mn,
    parse,
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


def fraction_to_decimal(f: Optional[Fraction], sig: int = 12) -> str:
    if f is None:
        return "inf"
    with localcontext() as ctx:
        ctx.prec = sig
        return str(Decimal(f.numerator) / Decimal(f.denominator))


def resolve_term(text: str) -> tuple[str, Term]:
    """Named corpus terms by name, anything else as a term literal."""
    if text in NAMED_TERMS:
        return text, NAMED_TERMS[text]()
    if text.startswith("Cn:"):
        return text, mk_Cn(int(text[3:]))
    if text.startswith("Mn:"):
        return text, mk_Mn(int(text[3:]))
    return text, parse(text)


def parse_grid(text: str) -> list[Fraction]:
    grid = [parse_probability(part) for part in text.split(",") if part.strip()]
    if not grid:
        raise ValueError("empty eps grid")
    return sorted(set(grid))


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
    stepper = STEPPERS.get(strategy.name)
    if stepper is None:
        # a mixture is traced by sampling one seeded run over the alpha-classes
        path, finished = sample_path(t, strategy, args.seed, args.fuel)
    else:
        # lo and ri step the concrete terms
        path = [t]
        nxt = stepper(t)
        while nxt is not None and len(path) <= args.fuel:
            path.append(nxt)
            nxt = stepper(nxt)
        finished = nxt is None
    lines = [render(path[0])] + [f"-> {render(u)}" for u in path[1:]]
    steps = len(path) - 1
    if not finished:
        lines.append(f"fuel exhausted after {steps} steps")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_INCONCLUSIVE
    if steps == 0:
        lines.append("already in normal form")
    else:
        lines.append(f"normal form in {steps} step" + ("s" if steps != 1 else ""))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    term_id, t = resolve_term(args.term)
    eps = parse_probability(args.eps)
    try:
        chain = analyze(t, Strategy.peps(eps), args.state_cap)
    except StateCapExceeded as exc:
        _emit(f"inconclusive: {exc}\n", args.out)
        return EXIT_INCONCLUSIVE
    report = chain.to_report()
    report["term_id"] = term_id
    report["expected_length_decimal"] = fraction_to_decimal(chain.expected_length)
    if eps == 0:
        report["note"] = (
            "eps=0 is deterministic innermost reduction; the finite-expectation "
            "guarantee assumes eps>0"
        )
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
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


CSV_HEADER = (
    "term_id,epsilon,expected_length,expected_length_decimal,"
    "termination_prob,n_lo,n_ri,foster_bound"
)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of an eps sweep, exact plus a decimal rendering."""

    term_id: str
    epsilon: Fraction
    expected_length: Optional[Fraction]  # None = infinite
    termination_prob: Fraction
    n_lo: Optional[int]  # None = fuel exhausted ("div")
    n_ri: Optional[int]
    foster_bound: Optional[Fraction]  # None = undefined

    def to_csv(self) -> str:
        return ",".join(
            [
                self.term_id,
                frac_str(self.epsilon),
                "inf" if self.expected_length is None else frac_str(self.expected_length),
                fraction_to_decimal(self.expected_length),
                frac_str(self.termination_prob),
                "div" if self.n_lo is None else str(self.n_lo),
                "div" if self.n_ri is None else str(self.n_ri),
                "-" if self.foster_bound is None else frac_str(self.foster_bound),
            ]
        )

    @staticmethod
    def from_csv(line: str) -> "SweepRow":
        (term_id, eps, e, _dec, tp, lo, ri, bound) = line.split(",")
        return SweepRow(
            term_id,
            Fraction(eps),
            None if e == "inf" else Fraction(e),
            Fraction(tp),
            None if lo == "div" else int(lo),
            None if ri == "div" else int(ri),
            None if bound == "-" else Fraction(bound),
        )


def sweep_rows(term_id: str, t: Term, grid, fuel: int, state_cap: int) -> list[SweepRow]:
    solved = grid_expected_lengths(t, grid, state_cap)
    lo = n_steps(t, "lo", fuel)
    ri = n_steps(t, "ri", fuel)
    n_lo = lo.steps if lo.finite else None
    n_ri = ri.steps if ri.finite else None
    rows = []
    for eps in sorted(solved):
        termination, expected = solved[eps]
        bound = Fraction(n_lo) / eps if (n_lo is not None and eps > 0) else None
        rows.append(SweepRow(term_id, eps, expected, termination, n_lo, n_ri, bound))
    return rows


def cmd_sweep(args) -> int:
    term_id, t = resolve_term(args.term)
    grid = parse_grid(args.grid)
    try:
        rows = sweep_rows(term_id, t, grid, args.fuel, args.state_cap)
    except StateCapExceeded as exc:
        _emit(f"inconclusive: {exc}\n", args.out)
        return EXIT_INCONCLUSIVE
    if args.format == "csv":
        text = "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"
    elif args.format == "json":
        text = json.dumps(
            [
                {
                    "term_id": r.term_id,
                    "epsilon": frac_str(r.epsilon),
                    "expected_length": "inf" if r.expected_length is None
                    else frac_str(r.expected_length),
                    "expected_length_decimal": fraction_to_decimal(r.expected_length),
                    "termination_prob": frac_str(r.termination_prob),
                    "n_lo": "div" if r.n_lo is None else r.n_lo,
                    "n_ri": "div" if r.n_ri is None else r.n_ri,
                    "foster_bound": "-" if r.foster_bound is None else frac_str(r.foster_bound),
                }
                for r in rows
            ],
            indent=2,
        ) + "\n"
    else:
        header = f"{'epsilon':<10} {'expected':<14} {'decimal':<16} {'term.prob':<10} {'n_lo':<6} {'n_ri':<6} {'bound':<10}"
        body = [f"sweep of {term_id} = {render(t)}", header]
        for r in rows:
            body.append(
                f"{frac_str(r.epsilon):<10} "
                f"{'inf' if r.expected_length is None else frac_str(r.expected_length):<14} "
                f"{fraction_to_decimal(r.expected_length):<16} "
                f"{frac_str(r.termination_prob):<10} "
                f"{'div' if r.n_lo is None else r.n_lo:<6} "
                f"{'div' if r.n_ri is None else r.n_ri:<6} "
                f"{'-' if r.foster_bound is None else frac_str(r.foster_bound):<10}"
            )
        text = "\n".join(body) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    term_id, t = resolve_term(args.term)
    eps = parse_probability(args.eps)
    est = estimate(t, Strategy.peps(eps), args.seed, args.samples, args.max_steps)
    if args.format == "json":
        payload = {
            "term_id": term_id,
            "strategy": Strategy.peps(eps).name,
            "base_seed": args.seed,
            "sample_count": est.sample_count,
            "cutoff_count": est.cutoff_count,
            "mean": f"{est.mean:.6f}",
            "sample_variance": f"{est.sample_variance:.6f}",
            "confidence_halfwidth_95": f"{est.confidence_halfwidth_95:.6f}",
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    lines = [
        f"term: {term_id} = {render(t)}",
        f"strategy: {Strategy.peps(eps).name}",
        f"samples: {est.sample_count} (base seed {args.seed}, max {args.max_steps} steps)",
        f"cutoffs: {est.cutoff_count}",
        f"mean: {est.mean:.6f}",
        f"sample_variance: {est.sample_variance:.6f}",
        f"confidence_halfwidth_95: {est.confidence_halfwidth_95:.6f}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_laws(args) -> int:
    reports = laws_mod.run_suite(
        args.suite,
        base_seed=args.seed,
        size_cap=args.size_cap,
        count=args.count,
    )
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in reports], indent=2) + "\n", args.out)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="lambdalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="print a step trace")
    p.add_argument("term", help="term literal or corpus name (I, Omega, Cn:3, ...)")
    p.add_argument("--strategy", default="lo", help="lo, ri or peps:<num>/<den>")
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0, help="seed for peps traces")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("analyze", help="exact chain analysis for one eps")
    p.add_argument("term")
    p.add_argument("--eps", required=True, help="num/den (decimals rejected)")
    p.add_argument("--state-cap", type=int, default=100_000)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="exact expected lengths across an eps grid")
    p.add_argument("term")
    p.add_argument("--grid", default="0,1/10,1/4,1/2,3/4,9/10,1")
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--state-cap", type=int, default=100_000)
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


def main(argv=None) -> int:
    ensure_recursion_headroom()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "fuel", 0) < 0:
            raise ValueError(f"--fuel must be >= 0, got {args.fuel}")
        return args.func(args)
    except (ParseError, ValueError) as exc:
        sys.stderr.write(f"lambdalab: error: {exc}\n")
        return EXIT_USAGE
    except RecursionError:  # the term traversals recurse on nesting depth
        sys.stderr.write("lambdalab: error: term nested too deeply to traverse\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
