"""Reduction on named terms, kept as a test oracle for the canonical steps.

Every step here lists the redexes of a named term with terms.redexes and
contracts one with reduce_at, by capture-avoiding substitution.  No step
reads a canonical form's tags or de Bruijn indices, so the steps check
contract_canonical, reducts_canonical and StateGraph.beta/anf from
outside.  alpha_eq decides alpha-equivalence by pairing binders, without
canonical forms, and so checks canonicalize.  is_lambda_I, is_lambda_A and
classify count each binder's occurrences by name, rescanning every
abstraction body, and so check terms.classify_canonical.  explore_eagerly
names every state of a chain by contracting its parent's named term, so
it checks how pars.StateGraph and ChainAnalysis.to_report name states.
substitute is terms.substitute as it was before its one-walk rewrite: all
names and the replacement's free variables up front, a free-variable scan
at every abstraction and a second pass over a renamed body, so it checks
the one walk's results and fresh names.  parse is terms.parse as it was
before its one-loop rewrite, a character scanner and a recursive-descent
parser over a token cursor, so it checks the token pattern, the parse loop
and their ParseErrors.  canonicalize is terms.canonicalize as it was before
it counted depths: it carries the tuple of binder names above a node and
finds a bound variable's index with tuple.index, so it checks the indices
that canonicalize reads off its stacks of binding depths.
"""

from __future__ import annotations

from typing import Optional

from lambdalab.pars import TRM
from lambdalab.terms import (
    INTO_ARG,
    INTO_BODY,
    INTO_FN,
    Abs,
    App,
    CanonicalTerm,
    InvalidPath,
    ParseError,
    RedexPath,
    SubCalculus,
    Term,
    Var,
    _abs_c,
    _all_names,
    _app_c,
    _fresh_name,
    canonicalize,
    free_vars,
    is_normal_form,
    redexes,
    reduce_at,
    render,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "\\" or c == "λ":
            tokens.append(("lambda", c, i))
            i += 1
        elif c == ".":
            tokens.append(("dot", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        elif c.isascii() and c.isalpha():
            j = i + 1
            while j < n and (text[j].isascii() and (text[j].isalnum() or text[j] in "_'")):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Cursor:
    """The parser's place in the token list, and the input's length for
    errors at its end."""

    __slots__ = ("tokens", "pos", "end")

    def __init__(self, tokens: list[tuple[str, str, int]], end: int):
        self.tokens, self.pos, self.end = tokens, 0, end

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind}, found end of input", self.end)
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok


def parse(text: str) -> Term:
    """The concrete syntax as a Term, by recursive descent."""
    cur = _Cursor(_tokenize(text), len(text))
    t = _parse_term(cur)
    tok = cur.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return t


def _parse_term(cur: _Cursor) -> Term:
    tok = cur.peek()
    if tok is None:
        raise ParseError("expected a term, found end of input", cur.end)
    if tok[0] == "lambda":
        cur.expect("lambda")
        _, name, _ = cur.expect("ident")
        cur.expect("dot")
        return Abs(name, _parse_term(cur))
    return _parse_app(cur)


def _parse_app(cur: _Cursor) -> Term:
    t = _parse_atom(cur)
    while True:
        tok = cur.peek()
        if tok is None or tok[0] not in ("ident", "lparen"):
            return t
        t = App(t, _parse_atom(cur))


def _parse_atom(cur: _Cursor) -> Term:
    tok = cur.peek()
    if tok is None:
        raise ParseError("expected a term, found end of input", cur.end)
    if tok[0] == "ident":
        cur.expect("ident")
        return Var(tok[1])
    if tok[0] == "lparen":
        cur.expect("lparen")
        t = _parse_term(cur)
        cur.expect("rparen")
        return t
    raise ParseError(f"expected a variable or '(', found {tok[1]!r}", tok[2])


def alpha_eq(t: Term, u: Term) -> bool:
    """True iff t and u differ only in the names of bound variables."""

    def go(a: Term, b: Term, env_a: dict, env_b: dict, depth: int) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            da, db = env_a.get(a.name), env_b.get(b.name)
            if da is None and db is None:
                return a.name == b.name
            return da == db
        if isinstance(a, Abs) and isinstance(b, Abs):
            ea = dict(env_a)
            eb = dict(env_b)
            ea[a.binder] = depth
            eb[b.binder] = depth
            return go(a.body, b.body, ea, eb, depth + 1)
        if isinstance(a, App) and isinstance(b, App):
            return go(a.fn, b.fn, env_a, env_b, depth) and go(
                a.arg, b.arg, env_a, env_b, depth
            )
        return False

    return go(t, u, {}, {}, 0)


def canonical_form(t: Term) -> CanonicalTerm:
    """terms.canonicalize by the names bound above each node, innermost
    first, rebuilt as a tuple at every abstraction."""

    def go(node: Term, binders: tuple) -> CanonicalTerm:
        if isinstance(node, Var):
            try:
                return ("b", binders.index(node.name))
            except ValueError:
                return ("f", node.name)
        if isinstance(node, Abs):
            return _abs_c(go(node.body, (node.binder,) + binders))
        return _app_c(go(node.fn, binders), go(node.arg, binders))

    return go(t, ())


def substitute(body: Term, var: str, replacement: Term) -> Term:
    """body{replacement/var}, renaming each binder that would capture a
    free variable of the replacement with the deterministic counter of
    terms.substitute."""
    fv_rep = free_vars(replacement)
    taken = _all_names(body) | fv_rep | {var}
    return _substitute(body, var, replacement, fv_rep, taken)


def _substitute(t: Term, var: str, replacement: Term, fv_rep: set, taken: set) -> Term:
    if isinstance(t, Var):
        return replacement if t.name == var else t
    if isinstance(t, App):
        return App(
            _substitute(t.fn, var, replacement, fv_rep, taken),
            _substitute(t.arg, var, replacement, fv_rep, taken),
        )
    if t.binder == var or var not in free_vars(t.body):
        return t
    if t.binder in fv_rep:
        fresh = _fresh_name(t.binder, taken)
        taken.add(fresh)
        renamed = _rename_free(t.body, t.binder, fresh)
        return Abs(fresh, _substitute(renamed, var, replacement, fv_rep, taken))
    return Abs(t.binder, _substitute(t.body, var, replacement, fv_rep, taken))


def _rename_free(t: Term, old: str, new: str) -> Term:
    """t with its free occurrences of old renamed to new, which occurs
    nowhere in t."""
    if isinstance(t, Var):
        return Var(new) if t.name == old else t
    if isinstance(t, Abs):
        return t if t.binder == old else Abs(t.binder, _rename_free(t.body, old, new))
    return App(_rename_free(t.fn, old, new), _rename_free(t.arg, old, new))


def subterm_at(t: Term, path: RedexPath) -> Term:
    """The node of t that path addresses."""
    for step in path:
        if step == INTO_FN and isinstance(t, App):
            t = t.fn
        elif step == INTO_ARG and isinstance(t, App):
            t = t.arg
        elif step == INTO_BODY and isinstance(t, Abs):
            t = t.body
        else:
            raise InvalidPath(f"path step {step!r} does not match term shape")
    return t


def step_lo(t: Term) -> Optional[Term]:
    """One leftmost-outermost step, at the pre-order-first redex; None iff
    t is in normal form."""
    paths = redexes(t)
    return reduce_at(t, paths[0]) if paths else None


def step_ri(t: Term) -> Optional[Term]:
    """One rightmost-innermost step; None iff t is in normal form.

    The contracted redex is the pre-order-last one, so its argument can
    contain no redex: every RI step is an argument-normal step.
    """
    paths = redexes(t)
    return reduce_at(t, paths[-1]) if paths else None


def _alpha_distinct(reducts) -> list[Term]:
    """The first term of each alpha-class, in order."""
    seen: set = set()
    out: list[Term] = []
    for u in reducts:
        c = canonicalize(u)
        if c not in seen:
            seen.add(c)
            out.append(u)
    return out


def beta_successors(t: Term) -> list[Term]:
    """All one-step beta-reducts, deduplicated up to alpha, redex order."""
    return _alpha_distinct(reduce_at(t, p) for p in redexes(t))


def anf_successors(t: Term) -> list[Term]:
    """One-step reducts through redexes whose argument is in normal form."""
    return _alpha_distinct(
        reduce_at(t, p) for p in redexes(t) if is_normal_form(subterm_at(t, p).arg)
    )


def _free_occurrences(t: Term, name: str) -> int:
    if isinstance(t, Var):
        return 1 if t.name == name else 0
    if isinstance(t, Abs):
        return 0 if t.binder == name else _free_occurrences(t.body, name)
    return _free_occurrences(t.fn, name) + _free_occurrences(t.arg, name)


def is_lambda_I(t: Term) -> bool:
    """Every binder occurs in its body."""
    if isinstance(t, Var):
        return True
    if isinstance(t, Abs):
        return _free_occurrences(t.body, t.binder) >= 1 and is_lambda_I(t.body)
    return is_lambda_I(t.fn) and is_lambda_I(t.arg)


def is_lambda_A(t: Term) -> bool:
    """Every binder occurs at most once in its body."""
    if isinstance(t, Var):
        return True
    if isinstance(t, Abs):
        return _free_occurrences(t.body, t.binder) <= 1 and is_lambda_A(t.body)
    return is_lambda_A(t.fn) and is_lambda_A(t.arg)


def classify(t: Term) -> SubCalculus:
    """The most specific tag, from is_lambda_I and is_lambda_A."""
    i, a = is_lambda_I(t), is_lambda_A(t)
    if i and a:
        return SubCalculus.BOTH
    if i:
        return SubCalculus.LAMBDA_I
    if a:
        return SubCalculus.LAMBDA_A
    return SubCalculus.FULL


def explore_eagerly(t: Term, eps, state_cap: int):
    """pars.explore_states by named reducts, each canonicalised: (states,
    rendered representatives, rows), or None past the state cap.  The first
    term found for a class, LO-reduct before RI-reduct, represents it: its
    parent's representative contracted by reduce_at, rendered afresh."""
    origin = canonicalize(t)
    if is_normal_form(t):
        return (), [], {}
    reps = {origin: t}
    order, seen, rows = [origin], {origin}, {}
    for c in order:  # order grows while it is walked
        u = reps[c]
        paths = redexes(u)
        row = {}
        for v, p in ((reduce_at(u, paths[0]), eps), (reduce_at(u, paths[-1]), 1 - eps)):
            if p != 0:
                d = canonicalize(v)
                reps.setdefault(d, v)
                key = TRM if is_normal_form(v) else d
                row[key] = row.get(key, 0) + p
        rows[c] = tuple(row.items())
        for key in row:
            if key != TRM and key not in seen:
                if len(order) >= state_cap:
                    return None
                seen.add(key)
                order.append(key)
    return tuple(order), [render(reps[c]) for c in order], rows
