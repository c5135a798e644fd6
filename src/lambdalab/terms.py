"""Lambda-term core: syntax, substitution, redexes, contraction and sub-calculi.

Terms are immutable trees over three constructors (Var, Abs, App) with
named binders.  Alpha-classes are the working objects: state identity
goes through canonicalize(), which rewrites bound variables to binding
depths and keeps free variables by name, so two terms get the same
canonical form exactly when they are alpha-equivalent.

A canonical form is a de Bruijn term (de Bruijn 1972): ("b", k) is the
variable bound k binders up, ("f", name) a free variable, ("l", body) an
abstraction and ("a", fn, arg) an application.  An abstraction or
application that is a beta-redex or holds one is tagged "L" or "A"
instead, so is_normal_canonical() reads the root's tag and a contraction
walks down redex-tagged sub-tuples only; the tag is set wherever a node is
built.  A canonical form can be reduced as it stands, so a reduct never has
to be named and canonicalised again.  contract_canonical() is the one place
that picks the LO- or RI-redex, and reducts_canonical() lists the step at
every redex; both return the redex's path, and reduce_at() replays that
path on a named term of the class wherever a named reduct is wanted.

A recursive traversal is a module-level function that takes its state as
arguments, never a nested one: a nested function that calls itself is a
reference cycle through its closure cell, left for the cyclic collector.

Concrete syntax (UTF-8):

    term   ::= lambda | app
    lambda ::= ('\\' | 'λ') var '.' term
    app    ::= atom atom*            (left-associative)
    atom   ::= var | '(' term ')'
    var    ::= [A-Za-z][A-Za-z0-9_']*

render() emits '\\' with minimal parentheses and single spaces between
application operands; parse(render(t)) == t for every term t.
"""

from __future__ import annotations

import random
import re
import sys
from enum import Enum
from typing import Optional, Union


# ---------------------------------------------------------------------------
# term data


class _Node:
    """A term node with slots: immutable, equal and hashed by class and
    field values, and shown by repr as a frozen dataclass would be."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a term cannot be assigned or deleted")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)


class Abs(_Node):
    __slots__ = ("binder", "body")

    def __init__(self, binder: str, body: "Term"):
        _set_binder(self, binder)
        _set_body(self, body)


class App(_Node):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: "Term", arg: "Term"):
        _set_fn(self, fn)
        _set_arg(self, arg)


# the slots' own setters, which go past the __setattr__ that forbids assignment
_set_name = Var.name.__set__
_set_binder, _set_body = Abs.binder.__set__, Abs.body.__set__
_set_fn, _set_arg = App.fn.__set__, App.arg.__set__


Term = Union[Var, Abs, App]

# A redex path addresses a node root-to-node; resolving it must land on an
# application whose function part is an abstraction.
INTO_BODY = "body"
INTO_FN = "fn"
INTO_ARG = "arg"
RedexPath = tuple  # tuple of INTO_* steps

# Nested-tuple encoding of an alpha-class: bound variables by binding depth,
# free variables by name, redex flags in the tags.  Hashable, orderable
# within one chain, deterministic.
CanonicalTerm = tuple


class ParseError(ValueError):
    """Malformed concrete syntax; carries the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidPath(ValueError):
    """A redex path that does not address a redex of the given term."""


class InvalidArity(ValueError):
    """Family builders require n >= 1."""


class GenerationExhausted(RuntimeError):
    """random_term could not satisfy its filter within the retry budget."""


def ensure_recursion_headroom() -> None:
    """Raise (never lower) the interpreter recursion limit to 20 000.

    Term traversals recurse on term depth; left application spines produced
    by duplicating reductions can reach depths in the thousands.
    """
    if sys.getrecursionlimit() < 20_000:
        sys.setrecursionlimit(20_000)


# ---------------------------------------------------------------------------
# parsing / printing


# One alternative per token kind, each with the whitespace before it; the
# group that matched names the kind.  A character that starts no token is
# "bad".  \s is str.isspace, and names are ASCII.
_TOKEN = re.compile(
    r"\s*(?:(?P<lambda>[\\λ])|(?P<dot>\.)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_']*)|(?P<bad>\S))"
)


def parse(text: str) -> Term:
    """Parse the concrete syntax into a Term.

    Application is left-associative and an abstraction body extends as far
    right as possible.  Raises ParseError with a position on bad input.
    One loop reads the tokens: binders holds the innermost open term's
    leading binders and t its application so far, None before its first
    atom, and each '(' saves the enclosing term's pair until its ')'.
    """
    # The scan ends before the trailing whitespace, so each token starts
    # where the one before it ended.  Were the whitespace in range, a
    # search would start again at each of its characters and scan to its
    # end, quadratic in its length.
    tokens = list(_TOKEN.finditer(text, 0, len(text.rstrip())))
    enclosing: list[tuple[list[str], Optional[Term]]] = []
    binders: list[str] = []
    t: Optional[Term] = None
    rest = iter(tokens)
    for tok in rest:
        kind = tok.lastgroup
        if kind == "ident":
            atom = Var(tok["ident"])
        elif kind == "lparen":
            enclosing.append((binders, t))
            binders, t = [], None
            continue
        elif t is None:  # a term starts here
            if kind != "lambda":
                raise _parse_error(tokens, tok, "a variable or '('", text)
            name, dot = next(rest, None), next(rest, None)
            for got, wanted in ((name, "ident"), (dot, "dot")):
                if got is None or got.lastgroup != wanted:
                    raise _parse_error(tokens, got, wanted, text)
            binders.append(name["ident"])
            continue
        elif kind == "rparen" and enclosing:
            for binder in reversed(binders):
                t = Abs(binder, t)
            atom = t
            binders, t = enclosing.pop()
        else:
            raise _parse_error(tokens, tok, "rparen" if enclosing else None, text)
        t = atom if t is None else App(t, atom)
    if t is None:
        raise _parse_error(tokens, None, "a term", text)
    if enclosing:
        raise _parse_error(tokens, None, "rparen", text)
    for binder in reversed(binders):
        t = Abs(binder, t)
    return t


def _parse_error(
    tokens: list, tok: Optional[re.Match], expected: Optional[str], text: str
) -> ParseError:
    """The error for finding token tok, or the end of text when tok is None,
    where expected was wanted, or nothing more when expected is None.  A
    character that starts no token is reported first, wherever it is."""
    bad = next((m for m in tokens if m.lastgroup == "bad"), None)
    if bad is not None:
        return ParseError(f"unexpected character {bad['bad']!r}", bad.start("bad"))
    if tok is None:
        return ParseError(f"expected {expected}, found end of input", len(text))
    found, position = tok[tok.lastgroup], tok.start(tok.lastgroup)
    if expected is None:
        return ParseError(f"unexpected trailing input {found!r}", position)
    return ParseError(f"expected {expected}, found {found!r}", position)


def render(t: Term, memo: Optional[dict] = None) -> str:
    """Minimal-parentheses rendering; inverse of parse up to whitespace.

    memo, when given, maps id(node) to the text of each abstraction and
    application rendered with it, so a subterm that several terms share as
    one object is rendered once.  An id names its node only while the node
    is alive: a memo is valid only while every node rendered with it stays
    reachable, and must be dropped with them.
    """
    if isinstance(t, Var):
        return t.name
    if memo is not None:
        text = memo.get(id(t))
        if text is not None:
            return text
    if isinstance(t, Abs):
        text = _compose(t, render(t.body, memo))
    else:
        text = _compose(t, render(t.fn, memo), render(t.arg, memo))
    if memo is not None:
        memo[id(t)] = text
    return text


def _compose(t: Term, left: str, right: str = "") -> str:
    """The text of abstraction or application t from its children's: left
    is the body's or the function's, right the argument's.  This is the
    minimal-parentheses rule: a function that is an abstraction and an
    argument that is not a variable are parenthesised."""
    if isinstance(t, Abs):
        return f"\\{t.binder}.{left}"
    if isinstance(t.fn, Abs):
        left = f"({left})"
    return f"{left} {right}" if isinstance(t.arg, Var) else f"{left} ({right})"


def _nodes(t: Term) -> list:
    """Every node of a named term, each after its parent."""
    nodes = [t]
    for node in nodes:  # nodes grows while it is walked
        if isinstance(node, App):
            nodes += (node.fn, node.arg)
        elif isinstance(node, Abs):
            nodes.append(node.body)
    return nodes


def term_size(t: Term) -> int:
    """Node count."""
    return len(_nodes(t))


# ---------------------------------------------------------------------------
# variables and canonical forms


def free_vars(t: Term) -> set[str]:
    """The names that occur free in t, in one pass on an explicit stack that
    holds nodes and, where an abstraction's body ends, its binder."""
    free: set[str] = set()
    bound: dict[str, int] = {}  # how many binders of each name are above the node
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            bound[node] -= 1
        elif isinstance(node, Var):
            if not bound.get(node.name):
                free.add(node.name)
        elif isinstance(node, Abs):
            bound[node.binder] = bound.get(node.binder, 0) + 1
            stack += (node.binder, node.body)
        else:
            stack += (node.arg, node.fn)
    return free


def _all_names(t: Term) -> set[str]:
    """Every variable name occurring in t, free or bound (binders included)."""
    return {
        node.binder if isinstance(node, Abs) else node.name
        for node in _nodes(t)
        if not isinstance(node, App)
    }


def _abs_c(body: CanonicalTerm) -> CanonicalTerm:
    """The canonical abstraction over body, tagged "L" if body holds a redex."""
    return ("L" if body[0] in "AL" else "l", body)


def _app_c(fn: CanonicalTerm, arg: CanonicalTerm) -> CanonicalTerm:
    """The canonical application, tagged "A" if it is a redex or holds one."""
    return ("A" if fn[0] in "lLA" or arg[0] in "AL" else "a", fn, arg)


def canonicalize(t: Term) -> CanonicalTerm:
    """Binder-name-independent encoding; equal exactly on alpha-classes."""
    return _canonical(t, 0, {})


def _canonical(node: Term, depth: int, scope: dict) -> CanonicalTerm:
    """canonicalize at depth, the number of abstractions above node, where
    scope maps each name to the depths of the abstractions above node that
    bind it, innermost last: a bound variable's index is its depth below
    its innermost binder, so each node costs O(1) however deep it is."""
    if isinstance(node, Var):
        depths = scope.get(node.name)
        return ("b", depth - 1 - depths[-1]) if depths else ("f", node.name)
    if isinstance(node, Abs):
        depths = scope.setdefault(node.binder, [])
        depths.append(depth)
        body = _canonical(node.body, depth + 1, scope)
        depths.pop()
        return _abs_c(body)
    return _app_c(_canonical(node.fn, depth, scope), _canonical(node.arg, depth, scope))


# ---------------------------------------------------------------------------
# substitution


def _fresh_name(base: str, taken: set[str]) -> str:
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def substitute(body: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution body{replacement/var}.

    Binders that would capture a free variable of the replacement are
    renamed with a deterministic counter, so repeated calls on equal inputs
    give identical results.  Every subterm left unchanged is returned as the
    same object.
    """
    return _substitute(body, {var: replacement}, var, [body])


def _substitute(t: Term, subst: dict, var: str, scope: list) -> Term:
    """t with each free variable that subst maps replaced, in one walk:
    subst maps var to the replacement and each binder renamed above t to
    its fresh variable.  scope starts as [body], the whole body; the first
    abstraction entered under var appends the replacement's free variables,
    and the first rename appends every name in use, which grows by each
    fresh binder made."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if isinstance(t, App):
        fn = _substitute(t.fn, subst, var, scope)
        arg = _substitute(t.arg, subst, var, scope)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    binder = t.binder
    if binder in subst:  # shadowed below this binder
        subst = {k: v for k, v in subst.items() if k != binder}
    if var in subst:
        if len(scope) == 1:
            scope.append(free_vars(subst[var]))
        if binder in scope[1]:  # the binder would capture, if var occurs in its body
            if var in free_vars(t.body):
                if len(scope) == 2:
                    scope.append(_all_names(scope[0]) | scope[1] | {var})
                fresh = _fresh_name(binder, scope[2])
                scope[2].add(fresh)
                body = _substitute(t.body, {**subst, binder: Var(fresh)}, var, scope)
                return Abs(fresh, body)
            subst = {k: v for k, v in subst.items() if k != var}
    if not subst:
        return t
    body = _substitute(t.body, subst, var, scope)
    return t if body is t.body else Abs(binder, body)


# ---------------------------------------------------------------------------
# redexes


def redexes(t: Term) -> list[RedexPath]:
    """All beta-redex paths of t in pre-order (node, function, argument).

    Pre-order coincides with the left-to-right order of redex beginnings in
    render(t), because a redex begins no later than any redex properly
    inside it.  The first element is therefore the LO-redex and the last
    the RI-redex; the list is empty exactly when t is in normal form.
    """
    out: list[RedexPath] = []
    steps: list[str] = []  # the path to the node being visited
    # (node, length of its parent's path, step from the parent), pre-order
    stack: list = [(t, 0, None)]
    while stack:
        node, depth, step = stack.pop()
        del steps[depth:]
        if step is not None:
            steps.append(step)
        if isinstance(node, App):
            if isinstance(node.fn, Abs):
                out.append(tuple(steps))
            depth = len(steps)
            stack.append((node.arg, depth, INTO_ARG))
            stack.append((node.fn, depth, INTO_FN))
        elif isinstance(node, Abs):
            stack.append((node.body, len(steps), INTO_BODY))
    return out


def _descend(t: Term, path: RedexPath) -> list[Term]:
    """The nodes that path passes through, from t down to the one it
    addresses."""
    nodes = [t]
    for step in path:
        node = nodes[-1]
        if step == INTO_FN and isinstance(node, App):
            nodes.append(node.fn)
        elif step == INTO_ARG and isinstance(node, App):
            nodes.append(node.arg)
        elif step == INTO_BODY and isinstance(node, Abs):
            nodes.append(node.body)
        else:
            raise InvalidPath(f"path step {step!r} does not match term shape")
    return nodes


def reduce_at(t: Term, path: RedexPath, memo: Optional[dict] = None) -> Term:
    """Contract the redex addressed by path; everything else is untouched.

    The nodes above the redex are rebuilt bottom-up, without recursion on
    the length of the path.  memo, when given, is a render memo holding the
    text of every abstraction and application of t: the contracted redex's
    reduct is rendered with it, and each rebuilt node's text is composed
    from its children's as the node is built, so afterwards memo holds the
    text of every node of the result too.
    """
    nodes = _descend(t, path)
    redex = nodes.pop()
    if not (isinstance(redex, App) and isinstance(redex.fn, Abs)):
        raise InvalidPath("path does not address a beta-redex")
    new = substitute(redex.fn.body, redex.fn.binder, redex.arg)
    text = None if memo is None else render(new, memo)
    for node, step in zip(reversed(nodes), reversed(path)):
        if step == INTO_BODY:
            new = Abs(node.binder, new)
            if memo is not None:
                text = memo[id(new)] = _compose(new, text)
            continue
        into_fn = step == INTO_FN
        sibling = node.arg if into_fn else node.fn
        new = App(new, sibling) if into_fn else App(sibling, new)
        if memo is not None:  # the untouched sibling's text is in memo with all of t's
            known = sibling.name if isinstance(sibling, Var) else memo[id(sibling)]
            left, right = (text, known) if into_fn else (known, text)
            text = memo[id(new)] = _compose(new, left, right)
    return new


def is_normal_form(t: Term) -> bool:
    return not any(isinstance(node, App) and isinstance(node.fn, Abs) for node in _nodes(t))


# ---------------------------------------------------------------------------
# contraction of the LO- or RI-redex


def _beta_canonical(body: CanonicalTerm, arg: CanonicalTerm) -> CanonicalTerm:
    """body{arg/0} by de Bruijn beta: the abstraction's own index is
    replaced by arg, indices above it drop by one, and arg's outer indices
    are shifted by the number of binders it lands under.  A shift keeps
    tags; a rebuilt node's tag is set anew, as beta can create a redex."""
    return _beta(body, 0, {0: arg})


def _shift(node: CanonicalTerm, by: int, depth: int) -> CanonicalTerm:
    """node with its indices of depth or more raised by by."""
    tag = node[0]
    if tag == "b":
        return ("b", node[1] + by) if node[1] >= depth else node
    if tag in "lL":
        inner = _shift(node[1], by, depth + 1)
        return node if inner is node[1] else (tag, inner)
    if tag in "aA":
        fn, a = _shift(node[1], by, depth), _shift(node[2], by, depth)
        return node if fn is node[1] and a is node[2] else (tag, fn, a)
    return node


def _beta(node: CanonicalTerm, depth: int, shifted: dict) -> CanonicalTerm:
    """The beta of _beta_canonical on node, depth binders below the body's
    root.  shifted maps a depth to arg as it reads under that many extra
    binders, and holds arg itself at 0."""
    tag = node[0]
    if tag == "b":
        k = node[1]
        if k == depth:
            out = shifted.get(depth)
            if out is None:
                out = shifted[depth] = _shift(shifted[0], depth, 0)
            return out
        return ("b", k - 1) if k > depth else node
    if tag in "lL":
        inner = _beta(node[1], depth + 1, shifted)
        return node if inner is node[1] else _abs_c(inner)
    if tag in "aA":
        fn, a = _beta(node[1], depth, shifted), _beta(node[2], depth, shifted)
        return node if fn is node[1] and a is node[2] else _app_c(fn, a)
    return node


def contract_canonical(
    c: CanonicalTerm, rightmost: bool
) -> Optional[tuple[CanonicalTerm, RedexPath]]:
    """One beta-step on a canonical form, at the LO-redex or, when
    rightmost, at the RI-redex: the reduct's canonical form and the path to
    the contracted redex, or None iff c is normal.

    This is the one place that picks the LO- or RI-redex.  For every t with
    canonicalize(t) == c the path is redexes(t)[0], or redexes(t)[-1] when
    rightmost, and the reduct is canonicalize(reduce_at(t, path)).  The
    first redex in pre-order is the node itself if its function is an
    abstraction, else in the function if that holds one, else in the
    argument; the last is in the argument if that holds one, else in the
    function, else the node.  The descent reads the redex tags, so it never
    enters a normal sub-tuple, and sub-tuples the step does not touch are
    returned as they are.
    """
    if c[0] not in "AL":
        return None
    path: list = []  # the steps down to the redex, appended on the way
    return _contract(c, rightmost, path), tuple(path)


def _contract(node: CanonicalTerm, rightmost: bool, path: list) -> CanonicalTerm:
    """contract_canonical on node, which holds a redex, appending the steps
    to the redex to path."""
    if node[0] == "L":
        path.append(INTO_BODY)
        return _abs_c(_contract(node[1], rightmost, path))
    fn, arg = node[1], node[2]
    if rightmost:
        if arg[0] in "AL":
            path.append(INTO_ARG)
            return _app_c(fn, _contract(arg, rightmost, path))
        if fn[0] in "AL":
            path.append(INTO_FN)
            return _app_c(_contract(fn, rightmost, path), arg)
        return _beta_canonical(fn[1], arg)
    if fn[0] in "lL":
        return _beta_canonical(fn[1], arg)
    if fn[0] == "A":
        path.append(INTO_FN)
        return _app_c(_contract(fn, rightmost, path), arg)
    path.append(INTO_ARG)
    return _app_c(fn, _contract(arg, rightmost, path))


def reducts_canonical(
    c: CanonicalTerm, argument_normal: bool = False
) -> list[tuple[CanonicalTerm, RedexPath]]:
    """Every one-step reduct of a canonical form with the path to its
    redex, in pre-order of the redexes; with argument_normal, only through
    redexes whose argument is normal.

    For every t with canonicalize(t) == c the paths are redexes(t), or
    those whose argument is_normal_form, and each reduct is
    canonicalize(reduce_at(t, path)).  contract_canonical takes the first
    or last of these steps without listing the others.
    """
    return _reducts(c, argument_normal) if c[0] in "AL" else []


def _reducts(node: CanonicalTerm, argument_normal: bool) -> list:
    """reducts_canonical on node, which holds a redex."""
    if node[0] == "L":
        return [(_abs_c(r), (INTO_BODY,) + p) for r, p in _reducts(node[1], argument_normal)]
    fn, arg = node[1], node[2]
    out = []
    if fn[0] in "lL" and not (argument_normal and arg[0] in "AL"):
        out.append((_beta_canonical(fn[1], arg), ()))
    if fn[0] in "AL":
        out += [(_app_c(r, arg), (INTO_FN,) + p) for r, p in _reducts(fn, argument_normal)]
    if arg[0] in "AL":
        out += [(_app_c(fn, r), (INTO_ARG,) + p) for r, p in _reducts(arg, argument_normal)]
    return out


def is_normal_canonical(c: CanonicalTerm) -> bool:
    """is_normal_form on a canonical form: a test of its root's tag."""
    return c[0] not in "AL"


def _canonical_nodes(c: CanonicalTerm) -> list:
    """Every node of a canonical form, each after its parent."""
    nodes = [c]
    for node in nodes:  # nodes grows while it is walked
        if node[0] in "lLaA":
            nodes += node[1:]
    return nodes


def canonical_size(c: CanonicalTerm) -> int:
    """term_size on a canonical form: its node count."""
    return len(_canonical_nodes(c))


def canonical_free_vars(c: CanonicalTerm) -> set[str]:
    """free_vars on a canonical form: the names it keeps free."""
    return {node[1] for node in _canonical_nodes(c) if node[0] == "f"}


# ---------------------------------------------------------------------------
# sub-calculi


class SubCalculus(Enum):
    """Filter / classification tags for the binder-occurrence sub-calculi."""

    FULL = "full"
    LAMBDA_I = "lambda-I"  # no cancellation: every binder occurs in its body
    LAMBDA_A = "lambda-A"  # no copy: every binder occurs at most once
    BOTH = "both"  # linear: every binder occurs exactly once


def classify_canonical(c: CanonicalTerm) -> SubCalculus:
    """The most specific tag of a canonical form, in one pass on an explicit
    stack: lambda-I when every binder's index occurs at least once in its
    body, lambda-A when at most once."""
    counts: list[int] = []  # occurrences of each enclosing binder, innermost last
    fewest, most, stack = 1, 0, [c]
    while stack:
        node = stack.pop()
        if node is None:  # the end of an abstraction's body
            n = counts.pop()
            fewest, most = min(fewest, n), max(most, n)
        elif node[0] == "b":
            counts[-1 - node[1]] += 1
        elif node[0] in "lL":
            counts.append(0)
            stack += (None, node[1])
        elif node[0] in "aA":
            stack += node[1:]
    if fewest >= 1:
        return SubCalculus.BOTH if most <= 1 else SubCalculus.LAMBDA_I
    return SubCalculus.LAMBDA_A if most <= 1 else SubCalculus.FULL


def classify(t: Term) -> SubCalculus:
    """Most specific tag of t, decided on its canonical form."""
    return classify_canonical(canonicalize(t))


# ---------------------------------------------------------------------------
# named terms


def mk_I() -> Term:
    return Abs("x", Var("x"))


def mk_omega() -> Term:
    return Abs("x", App(Var("x"), Var("x")))


def mk_Omega() -> Term:
    return App(mk_omega(), mk_omega())


def mk_example1() -> Term:
    """The cancelling application of a constant function to a looping argument."""
    return App(Abs("x", Var("y")), mk_Omega())


def mk_example2() -> Term:
    """The duplicating application: a self-application binder fed a redex."""
    return App(Abs("x", App(Var("x"), Var("x"))), App(mk_I(), mk_I()))


def mk_Cn(n: int) -> Term:
    """n-fold self-application under one binder: \\x.x x ... x (n vars)."""
    if n < 1:
        raise InvalidArity("mk_Cn requires n >= 1")
    body: Term = Var("x")
    for _ in range(n - 1):
        body = App(body, Var("x"))
    return Abs("x", body)


def mk_Mn(n: int) -> Term:
    """Family whose randomized-strategy cost beats both deterministic ends.

    The function side erases a looping redex, the argument side duplicates
    a cheap one: \\x.((\\y.z) Omega) x applied to Cn ((\\x.x) y).
    """
    if n < 1:
        raise InvalidArity("mk_Mn requires n >= 1")
    b = Abs("x", App(App(Abs("y", Var("z")), mk_Omega()), Var("x")))
    t_n = App(mk_Cn(n), App(mk_I(), Var("y")))
    return App(b, t_n)


NAMED_TERMS = {
    "I": mk_I,
    "omega": mk_omega,
    "Omega": mk_Omega,
    "example1": mk_example1,
    "example2": mk_example2,
}


# ---------------------------------------------------------------------------
# random generation

_FREE_POOL = ("a", "b", "c")
_GEN_RETRIES = 400


def _gen(
    rng: random.Random,
    budget: int,
    must: set[str],
    avail: set[str],
    tag: SubCalculus,
    counter: list[int],
    shape: str = "any",
) -> Optional[Term]:
    # must: binders that still need at least one occurrence below here
    # avail: binders usable here (single-use sets are routed, not shared)
    if len(must) > (budget + 1) // 2:
        return None  # a tree with `budget` nodes has at most (budget+1)//2 leaves

    choices = []
    if budget >= 1 and len(must) <= 1 and shape != "abs":
        choices.append("var")
    if budget >= 2:
        choices.extend(["abs", "abs"])
    if budget >= 3 and shape != "abs":
        choices.extend(["app", "app", "app"])
    if not choices:
        return None
    kind = rng.choice(choices)

    if kind == "var":
        if must:
            return Var(next(iter(must)))
        pool = tuple(sorted(avail)) + _FREE_POOL
        return Var(rng.choice(pool))

    if kind == "abs":
        name = f"v{counter[0]}"
        counter[0] += 1
        must2 = must | {name} if tag in (SubCalculus.LAMBDA_I, SubCalculus.BOTH) else must
        avail2 = avail if tag is SubCalculus.BOTH else avail | {name}
        body = _gen(rng, budget - 1, must2, avail2, tag, counter)
        return None if body is None else Abs(name, body)

    left_budget = rng.randint(1, budget - 2)
    right_budget = budget - 1 - left_budget
    left_must, right_must = set(), set()
    for name in sorted(must):
        (left_must if rng.random() < 0.5 else right_must).add(name)
    if tag in (SubCalculus.LAMBDA_A, SubCalculus.BOTH):
        left_avail, right_avail = set(), set()
        for name in sorted(avail):
            (left_avail if rng.random() < 0.5 else right_avail).add(name)
    else:
        left_avail = right_avail = avail
    # bias function positions toward abstractions so that corpora are
    # redex-rich rather than mostly vacuous for the reduction laws
    fn_shape = "abs" if left_budget >= 2 and rng.random() < 0.55 else "any"
    fn = _gen(rng, left_budget, left_must, left_avail, tag, counter, fn_shape)
    if fn is None and fn_shape == "abs":
        fn = _gen(rng, left_budget, left_must, left_avail, tag, counter)
    if fn is None:
        return None
    arg = _gen(rng, right_budget, right_must, right_avail, tag, counter)
    if arg is None:
        return None
    return App(fn, arg)


def random_term(seed: int, max_size: int, tag: SubCalculus = SubCalculus.FULL) -> Term:
    """Seed-deterministic random term with at most max_size nodes.

    Sub-calculus filters are enforced by construction: binder occurrences
    are routed while building rather than rejection-sampled, which keeps
    lambda-I feasible at sizes where rejection would almost always fail.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    rng = random.Random(seed)
    for _ in range(_GEN_RETRIES):
        # two upward-biased draws: tiny terms exercise laws only vacuously
        budget = max(rng.randint(1, max_size), rng.randint(1, max_size))
        t = _gen(rng, budget, set(), set(), tag, [0])
        if t is not None and term_size(t) <= max_size and (
            tag is SubCalculus.FULL or classify(t) in (tag, SubCalculus.BOTH)
        ):
            return t
    raise GenerationExhausted(
        f"no {tag.value} term of size <= {max_size} found for seed {seed}"
    )
