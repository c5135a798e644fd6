import copy
import pickle
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from lambdalab import terms as terms_module
from lambdalab.laws import anchor_corpus
from lambdalab.terms import (
    Abs,
    App,
    InvalidArity,
    InvalidPath,
    ParseError,
    SubCalculus,
    Var,
    canonical_free_vars,
    canonical_size,
    canonicalize,
    classify,
    classify_canonical,
    contract_canonical,
    free_vars,
    is_normal_canonical,
    is_normal_form,
    mk_Cn,
    mk_I,
    mk_Mn,
    mk_Omega,
    mk_example1,
    mk_example2,
    mk_omega,
    parse,
    random_term,
    redexes,
    reduce_at,
    reducts_canonical,
    render,
    substitute,
    term_size,
)

from conftest import reducible_terms, terms
import named_oracle
from named_oracle import alpha_eq, is_lambda_A, is_lambda_I, subterm_at


I = mk_I()
OMEGA = mk_omega()
BIG_OMEGA = mk_Omega()
EX1 = mk_example1()
EX2 = mk_example2()


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_identity():
    assert parse("\\x.x") == Abs("x", Var("x"))


def test_parse_omega_squared():
    assert parse("(\\x.x x)(\\x.x x)") == BIG_OMEGA


def test_parse_application_left_associative():
    assert parse("x y z") == App(App(Var("x"), Var("y")), Var("z"))


def test_parse_lambda_body_extends_right():
    assert parse("\\x.x y") == Abs("x", App(Var("x"), Var("y")))
    assert parse("\\x.\\y.x") == Abs("x", Abs("y", Var("x")))


def test_parse_unicode_lambda():
    assert parse("λx.x") == I


def test_parse_primes_and_underscores():
    assert parse("\\x'.x_1'") == Abs("x'", Var("x_1'"))


@pytest.mark.parametrize(
    "text,pos",
    [("(\\x.x", 5), ("\\x", 2), ("x )", 2), ("", 0), ("\\1.x", 1), ("x ?", 2)],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos


def _parsed(parser, text):
    """The term parser makes of text, or its ParseError's message and position."""
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.position


# the token alphabet, with spaces, characters that start no token and names
# that only begin like one
_PIECES = ["\\", "λ", ".", "(", ")", "x", "y'", "ab1", "z_'", "x'1", "0", "7", " ", "\t",
           "\u00a0", "?", "é", "ж", "_", "'"]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
def test_parse_matches_recursive_descent_oracle(text):
    assert _parsed(parse, text) == _parsed(named_oracle.parse, text)


@pytest.mark.parametrize("tag", list(SubCalculus), ids=lambda tag: tag.value)
def test_parse_matches_oracle_on_rendered_random_terms(tag):
    for seed in range(100):
        t = random_term(seed, 30, tag)
        text = render(t)
        assert parse(text) == named_oracle.parse(text) == t


_DEEP = 100_000


@pytest.mark.parametrize(
    "literal,size,free,names,normal",
    [
        ("(" * _DEEP + "x" + ")" * _DEEP, 1, {"x"}, {"x"}, True),
        (
            "".join(f"\\v{i}." for i in range(_DEEP)) + "(\\y.y) z",
            _DEEP + 4,
            {"z"},
            {f"v{i}" for i in range(_DEEP)} | {"y", "z"},
            False,
        ),
        ("x " * (_DEEP - 1) + "y", 2 * _DEEP - 1, {"x", "y"}, {"x", "y"}, True),
        ("(\\x.x) " + "y " * (_DEEP - 1), 2 * _DEEP, {"y"}, {"x", "y"}, False),
    ],
    ids=["parentheses", "abstractions", "application-spine", "spine-over-a-redex"],
)
def test_parse_and_named_queries_do_not_recurse(literal, size, free, names, normal):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t = parse(literal)
        got = term_size(t), free_vars(t), terms_module._all_names(t), is_normal_form(t)
    finally:
        sys.setrecursionlimit(limit)
    assert got == (size, free, names, normal)


def test_parse_reads_long_whitespace_in_linear_time():
    text = " " * _DEEP + "x" + "\t" * _DEEP
    start = time.perf_counter()
    assert parse(text) == Var("x")
    # a scan that searched again from each trailing space would take minutes
    assert time.perf_counter() - start < 1.0


def test_render_minimal_parentheses():
    assert render(EX2) == "(\\x.x x) ((\\x.x) (\\x.x))"
    assert render(EX1) == "(\\x.y) ((\\x.x x) (\\x.x x))"
    assert render(App(App(Var("x"), Var("y")), Var("z"))) == "x y z"
    assert render(App(Var("x"), App(Var("y"), Var("z")))) == "x (y z)"
    assert render(Abs("x", App(Var("x"), Abs("y", Var("y"))))) == "\\x.x (\\y.y)"


@given(terms)
def test_round_trip(t):
    assert alpha_eq(parse(render(t)), t)


# ---------------------------------------------------------------------------
# free variables and alpha classes


def test_free_vars_binder_removed():
    assert free_vars(Abs("x", App(Var("x"), Var("y")))) == {"y"}


def test_free_vars_closed_term():
    assert free_vars(BIG_OMEGA) == set()


def test_free_vars_set_semantics():
    assert free_vars(App(Var("x"), Abs("y", Var("x")))) == {"x"}


def test_alpha_eq_renamed_binder():
    assert alpha_eq(Abs("x", Var("x")), Abs("y", Var("y")))


def test_alpha_eq_binding_structure_matters():
    assert not alpha_eq(Abs("x", Abs("y", Var("x"))), Abs("y", Abs("x", Var("x"))))


def test_alpha_eq_free_names_significant():
    assert not alpha_eq(Var("x"), Var("y"))


def test_canonicalize_identifies_alpha_classes():
    assert canonicalize(Abs("x", Var("x"))) == canonicalize(Abs("y", Var("y")))
    assert canonicalize(Abs("x", App(Var("x"), Var("y")))) != canonicalize(
        Abs("x", App(Var("x"), Var("z")))
    )


def test_canonicalize_deterministic():
    assert canonicalize(BIG_OMEGA) == canonicalize(mk_Omega())


@given(terms, terms)
def test_canonical_identity_iff_alpha_eq(t, u):
    assert (canonicalize(t) == canonicalize(u)) == alpha_eq(t, u)


@given(terms)
@example(Abs("x", Abs("y", Abs("x", App(Var("x"), Abs("z", App(Var("y"), Var("w"))))))))
def test_canonicalize_matches_binder_tuple_oracle(t):
    assert canonicalize(t) == named_oracle.canonical_form(t)


def test_canonicalize_matches_binder_tuple_oracle_on_corpora():
    corpus = [entry.term for entry in anchor_corpus()]
    corpus += [random_term(seed, 40, tag) for tag in SubCalculus for seed in range(25)]
    for t in corpus:
        assert canonicalize(t) == named_oracle.canonical_form(t)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_replaces_all_occurrences():
    assert substitute(App(Var("x"), Var("x")), "x", I) == App(I, I)


def test_substitute_avoids_capture():
    result = substitute(Abs("y", Var("x")), "x", Var("y"))
    # must be \z.y for some fresh z, never \y.y
    assert isinstance(result, Abs)
    assert result.binder != "y"
    assert result.body == Var("y")
    assert alpha_eq(result, Abs("z", Var("y")))


def test_substitute_bound_occurrence_shielded():
    assert substitute(I, "x", Var("n")) == I


def test_substitute_deterministic():
    a = substitute(Abs("y", Var("x")), "x", Var("y"))
    b = substitute(Abs("y", Var("x")), "x", Var("y"))
    assert a == b


# one pool for bodies, replacements and the variable, with the names that
# renaming makes fresh, so binders capture and fresh names collide
_substitution_names = st.sampled_from(["x", "y", "z", "y1", "z1"])
_substitution_terms = st.recursive(
    st.builds(Var, _substitution_names),
    lambda children: st.one_of(
        st.builds(Abs, _substitution_names, children),
        st.builds(App, children, children),
    ),
    max_leaves=12,
)


@given(_substitution_terms, _substitution_names, _substitution_terms)
@settings(max_examples=500)
def test_substitute_matches_the_two_walk_oracle(body, var, replacement):
    # == on named terms, so the fresh binder names must agree too
    assert substitute(body, var, replacement) == named_oracle.substitute(body, var, replacement)


# terms whose reducts rename binders, pinned in test_pars.py and test_cli.py
CAPTURE_RENAMING_TERMS = [
    "(\\x.\\y.x y) ((\\z.y z) y)",
    "(\\f.\\y.f (f y)) (\\x.(\\z.x y) x)",
    "(\\f.\\y.f (f y)) (\\x.\\y.x y)",
    "\\y.(\\x.\\y.x y) ((\\w.w) y) ((\\z.z) y)",
    "(\\x.x x) (\\y.\\z.(\\x.\\z.x z) z)",
    "(\\w.c) ((\\x.x x) (\\y.y (\\z.y z)))",
    "a ((\\v0.v0 v0) (\\v1.v1 v1))",
]


@pytest.mark.parametrize("literal", CAPTURE_RENAMING_TERMS)
def test_substitute_matches_the_two_walk_oracle_on_renaming_terms(literal):
    # every contraction of the first 40 classes reached by all beta-steps
    found = [parse(literal)]
    seen = {canonicalize(found[0])}
    for t in found[:40]:  # found grows while it is walked
        for path in redexes(t):
            redex = subterm_at(t, path)
            body, var, replacement = redex.fn.body, redex.fn.binder, redex.arg
            expected = named_oracle.substitute(body, var, replacement)
            assert substitute(body, var, replacement) == expected, (render(t), path)
            u = reduce_at(t, path)
            if canonicalize(u) not in seen:
                seen.add(canonicalize(u))
                found.append(u)


def _count_calls(monkeypatch, name: str) -> list:
    """A one-element list counting the calls of terms.<name> from now on."""
    calls, fn = [0], getattr(terms_module, name)

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(terms_module, name, counting)
    return calls


def test_substitute_scans_for_free_variables_only_where_a_binder_could_capture(monkeypatch):
    # each wrapper counts the recursive calls too, as they go through the module
    free_scans = _count_calls(monkeypatch, "free_vars")
    name_scans = _count_calls(monkeypatch, "_all_names")
    counts = []
    for depth in (4, 16, 64):
        body = Var("x")  # \w_k. ... \w_1.x x ... x, no binder named y
        for k in range(depth):
            body = Abs(f"w{k}", App(body, Var("x")))
        free_scans[0] = 0
        substitute(body, "x", Var("y"))
        counts.append(free_scans[0])
    assert counts[0] == counts[-1]  # the replacement's, not one per abstraction
    assert name_scans[0] == 0
    assert substitute(Abs("y", Var("x")), "x", Var("y")) == Abs("y1", Var("y"))
    assert name_scans[0] > 0  # the names in use are gathered at a rename


def test_substitute_returns_an_untouched_application_itself():
    t = App(Abs("x", Var("x")), App(Var("y"), Abs("z", Var("z"))))
    assert substitute(t, "x", Var("y")) is t
    assert substitute(t, "w", Var("y")) is t


@given(terms, terms, terms)
def test_substitution_lemma(t, n, l):
    # t{n/x}{l/y} == t{l/y}{n{l/y}/x} whenever x != y and x not free in l
    assume("x" not in free_vars(l))
    left = substitute(substitute(t, "x", n), "y", l)
    right = substitute(substitute(t, "y", l), "x", substitute(n, "y", l))
    assert alpha_eq(left, right)


# ---------------------------------------------------------------------------
# redexes


def test_redexes_example2():
    assert redexes(EX2) == [(), ("arg",)]


def test_redexes_normal_form():
    assert redexes(I) == []


def test_redexes_example1():
    assert redexes(EX1) == [(), ("arg",)]


def _redex_positions(t):
    """Offset in render(t) where each redex's own text begins."""
    positions = {}

    def walk(node, path, offset):
        if isinstance(node, Var):
            return offset + len(node.name)
        if isinstance(node, Abs):
            return walk(node.body, path + ("body",), offset + 2 + len(node.binder))
        if isinstance(node.fn, Abs):
            positions[path] = offset
            end_fn = walk(node.fn, path + ("fn",), offset + 1) + 1
        else:
            end_fn = walk(node.fn, path + ("fn",), offset)
        arg_offset = end_fn + 1
        if isinstance(node.arg, Var):
            return walk(node.arg, path + ("arg",), arg_offset)
        return walk(node.arg, path + ("arg",), arg_offset + 1) + 1

    end = walk(t, (), 0)
    assert end == len(render(t))
    return positions


@given(terms)
def test_redex_order_matches_textual_beginnings(t):
    positions = _redex_positions(t)
    paths = redexes(t)
    assert set(paths) == set(positions)
    offsets = [positions[p] for p in paths]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == len(offsets)  # beginnings never tie
    # the recorded offset really is where the redex's own rendering starts
    text = render(t)
    for p in paths:
        sub = render(subterm_at(t, p))
        assert text[positions[p] : positions[p] + len(sub)] == sub


def test_reduce_at_erases_argument():
    assert reduce_at(EX1, ()) == Var("y")


def test_reduce_at_duplicates_argument():
    ii = App(I, I)
    assert reduce_at(EX2, ()) == App(ii, ii)


def test_reduce_at_omega_self_loop():
    assert alpha_eq(reduce_at(BIG_OMEGA, ()), BIG_OMEGA)


def test_reduce_at_invalid_path():
    with pytest.raises(InvalidPath):
        reduce_at(I, ())
    with pytest.raises(InvalidPath):
        reduce_at(EX2, ("fn",))
    with pytest.raises(InvalidPath):
        reduce_at(EX2, ("body",))


def test_redexes_do_not_recurse_on_deep_terms():
    n = 30_000
    spine = App(I, Var("y"))  # the one redex, at the bottom of the spine
    nested = App(I, Var("x"))
    for _ in range(n):
        spine = App(spine, Var("y"))
        nested = Abs("x", nested)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        spine_paths = redexes(spine)
        nested_paths = redexes(nested)
    finally:
        sys.setrecursionlimit(limit)
    assert spine_paths == [("fn",) * n]
    assert nested_paths == [("body",) * n]


def test_reduce_at_does_not_recurse_on_deep_paths():
    n = 30_000
    spine = App(I, Var("y"))  # the one redex, at the bottom of the spine
    for _ in range(n):
        spine = App(spine, Var("y"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        reduct = reduce_at(spine, ("fn",) * n)
        assert redexes(reduct) == [] and subterm_at(reduct, ("fn",) * n) == Var("y")
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# contraction of the LO- and RI-redex

CONTRACTION_ANCHORS = [
    BIG_OMEGA,
    EX1,
    EX2,
    mk_Mn(1),
    mk_Mn(3),
    parse("(\\x.x x x) ((\\z.z) ((\\z.z) y))"),  # dup: 3 copies, 2 identities
    # capture-prone: the argument's free names are binders in the body
    parse("(\\x.\\y.x y) y"),
    parse("(\\x.\\y.\\y1.x y y1) (y y1)"),
    parse("\\y.(\\x.\\y.x y) y"),
    parse("(\\x.\\x.x) y"),
    parse("(\\f.\\y.f ((\\z.f z) y)) (\\x.y)"),
    parse("(\\x.(\\y.x y) (\\x.x y)) (\\z.y)"),
]


def _assert_contractions_agree(t):
    """The canonical step goes down the path of the pre-order-first redex
    (LO) or last redex (RI), and replaying that path on t gives the step's
    reduct."""
    paths = redexes(t)
    c = canonicalize(t)
    for rightmost in (False, True):
        step = contract_canonical(c, rightmost)
        if paths:
            reduct, path = step
            assert path == (paths[-1] if rightmost else paths[0])
            assert canonicalize(reduce_at(t, path)) == reduct
        else:
            assert step is None
    assert is_normal_canonical(c) == is_normal_form(t) == (not paths)


@pytest.mark.parametrize("t", CONTRACTION_ANCHORS, ids=render)
def test_contractions_agree_on_anchor_terms(t):
    _assert_contractions_agree(t)


@given(terms)
def test_contractions_agree_on_generated_terms(t):
    _assert_contractions_agree(t)


@given(st.integers(0, 10**9), st.sampled_from(list(SubCalculus)))
@settings(max_examples=200, deadline=None)
def test_contractions_agree_on_random_terms(seed, tag):
    _assert_contractions_agree(random_term(seed, 40, tag))


def _assert_reducts_agree(t):
    """reducts_canonical lists the redexes of t in pre-order, or with
    argument_normal those whose argument is normal, each with the canonical
    form of t contracted there, and its ends are the LO and RI steps."""
    c = canonicalize(t)
    paths = redexes(t)
    normal_arg = [p for p in paths if is_normal_form(subterm_at(t, p).arg)]
    for argument_normal, want in ((False, paths), (True, normal_arg)):
        steps = reducts_canonical(c, argument_normal)
        assert [path for _, path in steps] == want
        assert [reduct for reduct, _ in steps] == [canonicalize(reduce_at(t, p)) for p in want]
        if steps:  # the RI-redex's argument is normal, so it ends both lists
            assert steps[-1] == contract_canonical(c, True)
    steps = reducts_canonical(c)
    assert (steps[0] if steps else None) == contract_canonical(c, False)


REDUCT_ANCHORS = CONTRACTION_ANCHORS + [
    entry.term for entry in anchor_corpus() if entry.term not in CONTRACTION_ANCHORS
]


@pytest.mark.parametrize("t", REDUCT_ANCHORS, ids=render)
def test_reducts_agree_on_anchor_terms(t):
    _assert_reducts_agree(t)


@given(st.one_of(terms, reducible_terms))
def test_reducts_agree_on_generated_terms(t):
    _assert_reducts_agree(t)


@given(st.integers(0, 10**9), st.sampled_from(list(SubCalculus)))
@settings(max_examples=200, deadline=None)
def test_reducts_agree_on_random_terms(seed, tag):
    _assert_reducts_agree(random_term(seed, 40, tag))


def test_contract_canonical_shares_untouched_subterms():
    c = canonicalize(parse("\\w.(\\x.x) y (\\z.z w)"))
    lo, path = contract_canonical(c, False)
    assert lo == canonicalize(parse("\\w.y (\\z.z w)")) and path == ("body", "fn")
    assert lo[1][2] is c[1][2]


@given(terms)
def test_canonical_size_is_term_size(t):
    assert canonical_size(canonicalize(t)) == term_size(t)


@given(terms)
def test_canonical_free_vars_is_free_vars(t):
    assert canonical_free_vars(canonicalize(t)) == free_vars(t)


def test_is_normal_form():
    assert is_normal_form(I)
    assert is_normal_form(App(App(Var("x"), Abs("y", Var("y"))), Var("z")))
    assert not is_normal_form(App(I, I))


# ---------------------------------------------------------------------------
# sub-calculi


def test_subcalculus_examples():
    assert is_lambda_I(BIG_OMEGA) and not is_lambda_A(BIG_OMEGA)
    cancel = Abs("x", Var("y"))
    assert not is_lambda_I(cancel) and is_lambda_A(cancel)
    assert is_lambda_I(I) and is_lambda_A(I)


def test_classify_consistent():
    assert classify(BIG_OMEGA) is SubCalculus.LAMBDA_I
    assert classify(Abs("x", Var("y"))) is SubCalculus.LAMBDA_A
    assert classify(I) is SubCalculus.BOTH
    assert classify(App(BIG_OMEGA, Abs("x", Var("y")))) is SubCalculus.FULL


@given(terms)
def test_classify_matches_predicates(t):
    tag = classify(t)
    assert (tag in (SubCalculus.LAMBDA_I, SubCalculus.BOTH)) == is_lambda_I(t)
    assert (tag in (SubCalculus.LAMBDA_A, SubCalculus.BOTH)) == is_lambda_A(t)


@given(terms)
def test_classify_canonical_matches_named_oracle(t):
    assert classify_canonical(canonicalize(t)) == named_oracle.classify(t)


@pytest.mark.parametrize("tag", list(SubCalculus), ids=lambda tag: tag.value)
def test_classify_canonical_matches_named_oracle_on_random_terms(tag):
    for seed in range(150):
        t = random_term(seed, 40, tag)
        assert classify_canonical(canonicalize(t)) == named_oracle.classify(t)


def test_classify_canonical_matches_named_oracle_on_anchor_corpus():
    for entry in anchor_corpus():
        assert classify_canonical(canonicalize(entry.term)) == named_oracle.classify(entry.term)


def _nested_abstractions(n, body, per_level=lambda inner: inner):
    """n abstractions around body, built bottom-up as canonical tuples."""
    c = body
    for _ in range(n):
        c = ("l", per_level(c))
    return c


def test_classify_canonical_does_not_recurse():
    n = 100_000
    used_once = lambda inner: ("a", ("b", 0), inner)  # each binder applied to the rest
    linear = _nested_abstractions(n, ("f", "y"), used_once)
    twice = _nested_abstractions(n, ("b", 0), used_once)  # the innermost binder twice
    outermost_only = _nested_abstractions(n, ("b", n - 1))  # the others are unused
    unused_and_twice = _nested_abstractions(n, ("a", ("b", n - 1), ("b", n - 1)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tags = [classify_canonical(c) for c in (linear, twice, outermost_only, unused_and_twice)]
    finally:
        sys.setrecursionlimit(limit)
    assert tags == [SubCalculus.BOTH, SubCalculus.LAMBDA_I, SubCalculus.LAMBDA_A, SubCalculus.FULL]


# ---------------------------------------------------------------------------
# named terms


def test_builders_against_literals():
    assert mk_Cn(2) == parse("\\x.x x")
    assert mk_Cn(1) == I
    assert mk_Cn(3) == parse("\\x.x x x")
    assert mk_example1() == parse("(\\x.y)((\\x.x x)(\\x.x x))")
    assert mk_example2() == parse("(\\x.x x)((\\x.x)(\\x.x))")
    assert mk_Mn(2) == parse("(\\x.((\\y.z)((\\x.x x)(\\x.x x))) x)((\\x.x x)((\\x.x) y))")


def test_builders_reject_zero():
    with pytest.raises(InvalidArity):
        mk_Cn(0)
    with pytest.raises(InvalidArity):
        mk_Mn(0)


# ---------------------------------------------------------------------------
# random generation


def test_random_term_deterministic():
    for tag in SubCalculus:
        assert random_term(99, 12, tag) == random_term(99, 12, tag)


@pytest.mark.parametrize("tag", [SubCalculus.LAMBDA_I, SubCalculus.LAMBDA_A, SubCalculus.BOTH])
def test_random_term_respects_filter(tag):
    for seed in range(120):
        t = random_term(seed, 12, tag)
        assert term_size(t) <= 12
        if tag in (SubCalculus.LAMBDA_I, SubCalculus.BOTH):
            assert is_lambda_I(t)
        if tag in (SubCalculus.LAMBDA_A, SubCalculus.BOTH):
            assert is_lambda_A(t)


def test_random_term_rejects_bad_size():
    with pytest.raises(ValueError):
        random_term(1, 0)


# ---------------------------------------------------------------------------
# redex tags of canonical forms


def _assert_tags_match(t, c):
    """Each canonical sub-tuple's tag says whether the named subterm at the
    same place holds a redex: "A"/"L" if it does, "a"/"l" if not."""
    stack = [(t, c)]
    while stack:
        node, form = stack.pop()
        if isinstance(node, Var):
            assert form[0] in "bf"
        elif isinstance(node, Abs):
            assert form[0] == ("l" if is_normal_form(node) else "L")
            stack.append((node.body, form[1]))
        else:
            assert form[0] == ("a" if is_normal_form(node) else "A")
            stack += [(node.fn, form[1]), (node.arg, form[2])]


def _assert_tag_invariant(t):
    c = canonicalize(t)
    _assert_tags_match(t, c)
    assert is_normal_canonical(c) == is_normal_form(t)
    for rightmost in (False, True):
        step = contract_canonical(c, rightmost)
        if step is not None:
            reduct, path = step
            _assert_tags_match(reduce_at(t, path), reduct)


@given(terms)
def test_canonical_tags_match_redexes_on_generated_terms(t):
    _assert_tag_invariant(t)


@given(st.integers(0, 10**9), st.sampled_from(list(SubCalculus)))
@settings(max_examples=200, deadline=None)
def test_canonical_tags_match_redexes_on_random_terms(seed, tag):
    _assert_tag_invariant(random_term(seed, 40, tag))


def test_beta_step_that_creates_a_redex_tags_it():
    # (\x.x y) (\z.z) is one redex; its reduct (\z.z) y is a new one
    c = canonicalize(parse("(\\x.x y) (\\z.z)"))
    assert c == ("A", ("l", ("a", ("b", 0), ("f", "y"))), ("l", ("b", 0)))
    for rightmost in (False, True):
        reduct, path = contract_canonical(c, rightmost)
        assert reduct == ("A", ("l", ("b", 0)), ("f", "y")) and path == ()
        assert not is_normal_canonical(reduct)
        assert contract_canonical(reduct, rightmost) == (("f", "y"), ())


# ---------------------------------------------------------------------------
# term node classes


def test_term_nodes_compare_by_class_and_fields():
    t, u = parse("x (\\y.y)"), App(Var("x"), Abs("y", Var("y")))
    assert t == u and hash(t) == hash(u) and t is not u
    assert len({t, u, App(Var("x"), Abs("z", Var("z")))}) == 2
    assert Var("x") != Var("y")
    # equal field values, different classes
    assert Abs("x", Var("x")) != App("x", Var("x"))
    assert Var("x") != Abs("x", Var("x")) and Var("x") != "x"


def test_term_nodes_repr_like_dataclasses():
    t = App(Var("x"), Abs("y", Var("y")))
    assert repr(t) == "App(fn=Var(name='x'), arg=Abs(binder='y', body=Var(name='y')))"


@pytest.mark.parametrize(
    "node, field",
    [(Var("x"), "name"), (Abs("x", Var("x")), "binder"), (Abs("x", Var("x")), "body"),
     (App(Var("x"), Var("y")), "fn"), (App(Var("x"), Var("y")), "arg")],
)
def test_term_nodes_are_immutable(node, field):
    before = repr(node)
    with pytest.raises(AttributeError):
        setattr(node, field, Var("z"))
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert repr(node) == before


def test_term_nodes_copy_and_pickle():
    t = mk_Mn(3)
    assert copy.copy(t) == t and copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t
