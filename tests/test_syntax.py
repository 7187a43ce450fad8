import collections
import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import example, given, strategies as st

from grzproofs import syntax
from grzproofs.syntax import (
    Atom, Bottom, Box, Implies, Multiset, ParseError, Sequent,
    BOT, EMPTY, TOP, atom_polarities, conj, diamond, disj, format_formula,
    format_sequent, formula_key, formula_size, mset, neg, parse_formula,
    parse_sequent, polarity, seq, sequent_subformulas, sequent_to_formula,
    star_closure, subformulas,
)

P, Q, R = Atom('p'), Atom('q'), Atom('r')

formulas = st.recursive(
    st.sampled_from([BOT, P, Q, R]),
    lambda f: st.one_of(st.builds(Box, f), st.builds(Implies, f, f)),
    max_leaves=12)

formula_lists = st.lists(st.sampled_from([BOT, P, Q, Box(P), Implies(P, Q)]),
                         max_size=8)


class TestParsing:
    def test_atoms_and_false(self):
        assert parse_formula('p') == P
        assert parse_formula('false') == BOT

    def test_true_sugar(self):
        assert parse_formula('true') == TOP

    def test_implication_is_right_associative(self):
        assert parse_formula('p -> q -> p') == Implies(P, Implies(Q, P))

    def test_box_binds_tighter_than_implication(self):
        assert parse_formula('[]p -> p') == Implies(Box(P), P)

    def test_parentheses(self):
        assert parse_formula('(p -> q) -> p') == Implies(Implies(P, Q), P)

    def test_negation_sugar(self):
        assert parse_formula('~p') == Implies(P, BOT)

    def test_diamond_sugar(self):
        assert parse_formula('<>p') == neg(Box(neg(P)))

    def test_conjunction_sugar(self):
        assert parse_formula('p & q') == conj(P, Q)

    def test_disjunction_sugar(self):
        assert parse_formula('p | q') == disj(P, Q)

    def test_grz_axiom_parses(self):
        f = parse_formula('[]([](p -> []p) -> p) -> []p')
        assert f == Implies(Box(Implies(Box(Implies(P, Box(P))), P)), Box(P))

    @pytest.mark.parametrize('bad', ['', 'p ->', '(p', 'p q', '-> p',
                                     'p => q', '[p]', 'p &'])
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ParseError):
            parse_formula(bad)

    def test_sequent_with_both_sides(self):
        s = parse_sequent('p, []q => p -> q')
        assert s == Sequent(mset(P, Box(Q)), mset(Implies(P, Q)))

    def test_sequent_with_empty_sides(self):
        assert parse_sequent('=> p') == Sequent(EMPTY, mset(P))
        assert parse_sequent('p =>') == Sequent(mset(P), EMPTY)

    def test_sequent_needs_arrow(self):
        with pytest.raises(ParseError):
            parse_sequent('p, q')

    @given(formulas)
    def test_format_parse_round_trip(self, f):
        assert parse_formula(format_formula(f)) == f

    @given(st.tuples(formula_lists, formula_lists))
    def test_sequent_round_trip(self, sides):
        s = seq(sides[0], sides[1])
        assert parse_sequent(format_sequent(s)) == s


def reference_tokenize(text):
    """The tokenizer as it was before it used one regex: each symbol tried
    in turn at each character."""
    symbols = ('=>', '->', '[]', '<>', '~', '&', '|', '(', ')', ',')
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for sym in symbols:
            if text.startswith(sym, i):
                tokens.append(sym)
                i += len(sym)
                break
        else:
            if c.isalpha() and c.islower():
                j = i + 1
                while j < n and (text[j].islower() or text[j].isdigit()
                                 or text[j] == '_'):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise ParseError('unexpected character %r at position %d'
                                 % (c, i))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return 'ParseError: %s' % e


# Symbols, their halves, ASCII and Unicode spaces, and characters on each
# side of the atom-name tests: lowercase letters that are or are not
# alphabetic, digits that are not decimal, titlecase, uppercase.
TOKEN_PIECES = [
    '=>', '->', '[]', '<>', '~', '&', '|', '(', ')', ',', '=', '-', '[',
    ']', '<', '>', 'p', 'q1', 'x_y', '_', 'A', '9', 'false', ' ', '\t',
    '\n', '\x1c', '\x85', '\xa0', '\u3000', '\xe9', '\xc9', '\xaa',
    '\xdf', '\xb5', '\u24d0', '\xb2', '\u0663', '\u01c5', '\u0345',
    '\u2170', '\U0001d41a',
]

token_texts = st.lists(
    st.one_of(st.sampled_from(TOKEN_PIECES), st.characters()),
    max_size=16).map(''.join)


class TestTokenizer:
    @given(token_texts)
    @example('p -> P')
    @example('p\xe9 -> \xe9p')
    @example('p\u24d0 & q\xb2')
    @example('\u24d0')
    @example('p\xc9')
    @example('\xaap')
    def test_agrees_with_the_reference(self, text):
        assert (tokens_or_error(syntax._tokenize, text)
                == tokens_or_error(reference_tokenize, text))


class TestFormulaHelpers:
    def test_formula_size(self):
        assert formula_size(P) == 1
        assert formula_size(BOT) == 1
        assert formula_size(Box(P)) == 2
        assert formula_size(Implies(P, Box(Q))) == 4

    def test_top_is_a_theorem_shape(self):
        assert TOP == Implies(BOT, BOT)

    def test_subformulas(self):
        f = Box(Implies(P, Q))
        assert subformulas(f) == {f, Implies(P, Q), P, Q}

    def test_star_closure_adds_the_box_companions(self):
        cl = star_closure([Box(P)])
        assert cl == {P, Box(P), Implies(P, Box(P)),
                      Box(Implies(P, Box(P)))}

    @given(formulas)
    def test_star_closure_contains_subformulas(self, f):
        assert subformulas(f) <= star_closure([f])

    def test_polarity_of_implication(self):
        assert atom_polarities(Implies(P, Q)) == {'p': {'-'}, 'q': {'+'}}

    def test_polarity_under_negation_and_box(self):
        assert atom_polarities(neg(P)) == {'p': {'-'}}
        assert atom_polarities(Implies(Box(P), P)) == {'p': {'-', '+'}}

    @given(formulas)
    def test_polarity_agrees_with_atom_polarities(self, f):
        pos, neg_ = polarity(f)
        names = {a.name for a in pos if isinstance(a, Atom)}
        names |= {a.name for a in neg_ if isinstance(a, Atom)}
        assert names == set(atom_polarities(f))

    @given(st.lists(formulas, min_size=2, max_size=6))
    def test_formula_key_is_a_total_order(self, fs):
        ordered = sorted(fs, key=formula_key)
        assert sorted(ordered, key=formula_key) == ordered
        for a, b in zip(ordered, ordered[1:]):
            assert formula_key(a) <= formula_key(b)


class TestHashConsing:
    @pytest.mark.parametrize('text', ['p', 'false', '[]([](p -> []p) -> p)',
                                      '<>(p & ~q) | r'])
    def test_parsing_twice_gives_the_same_object(self, text):
        assert parse_formula(text) is parse_formula(text)

    def test_equal_constructions_are_one_object(self):
        assert Implies(P, Q) is Implies(P, Q)
        assert Box(Implies(P, Q)) is Box(Implies(P, Q))
        assert Atom('p') is P and Bottom() is BOT

    def test_hashes_are_those_of_the_field_tuples(self):
        # Frozen dataclasses hashed this way, so set and dict orders
        # (and every printed output) stay as they were.
        a, b = Box(P), Implies(Q, BOT)
        assert hash(Implies(a, b)) == hash((a, b))
        assert hash(Box(a)) == hash((a,))
        assert hash(Atom('p')) == hash(('p',))
        assert hash(BOT) == hash(())

    def test_formulas_are_immutable(self):
        f = Implies(P, Q)
        with pytest.raises(AttributeError):
            f.left = Q
        with pytest.raises(AttributeError):
            P.name = 'q'
        with pytest.raises(AttributeError):
            del f.right
        assert f.left is P

    def test_repr_names_the_fields(self):
        assert repr(Atom('p')) == "Atom(name='p')"
        assert repr(Box(BOT)) == 'Box(inner=Bottom())'
        assert repr(Implies(P, Q)) == \
            "Implies(left=Atom(name='p'), right=Atom(name='q'))"

    def test_copies_are_the_same_object(self):
        f = parse_formula('[](p -> q) -> false')
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_the_table_does_not_keep_dead_formulas(self):
        def build():
            f = Box(Implies(Atom('only_here'), Box(Atom('only_here'))))
            return weakref.ref(f)

        ref = build()
        gc.collect()
        assert ref() is None

    def test_there_is_no_global_key_cache(self):
        assert not hasattr(syntax, '_KEY_CACHE')


class TestMultiset:
    @given(formula_lists, formula_lists)
    def test_union_difference_match_counter_arithmetic(self, xs, ys):
        a, b = Multiset(xs), Multiset(ys)
        ca, cb = collections.Counter(xs), collections.Counter(ys)
        assert collections.Counter(a.union(b).items) == ca + cb
        assert collections.Counter(a.difference(b).items) == ca - cb

    @given(formula_lists, formula_lists)
    def test_subset_matches_counter_inclusion(self, xs, ys):
        a, b = Multiset(xs), Multiset(ys)
        ca, cb = collections.Counter(xs), collections.Counter(ys)
        assert a.is_subset(b) == (ca <= cb)

    @given(formula_lists)
    def test_order_insensitive_equality(self, xs):
        assert Multiset(xs) == Multiset(list(reversed(xs)))

    def test_add_remove_count(self):
        m = mset(P, P, Q)
        assert m.count(P) == 2
        assert m.add(P).count(P) == 3
        assert m.remove(P).count(P) == 1
        with pytest.raises(ValueError):
            mset(Q).remove(P)

    def test_dedupe_and_distinct(self):
        m = mset(P, P, Q)
        assert m.dedupe() == mset(P, Q)
        assert set(m.distinct()) == {P, Q}
        assert m.to_set() == {P, Q}


class TestSequent:
    def test_boxed_ant(self):
        s = parse_sequent('p, []q, []p => p')
        assert s.boxed_ant() == mset(Box(Q), Box(P))

    def test_is_initial(self):
        assert parse_sequent('p, q => p').is_initial()
        assert parse_sequent('false => q').is_initial()
        assert not parse_sequent('p => q').is_initial()
        assert not parse_sequent('[]p => []p').is_initial()

    def test_sequent_to_formula_is_valid_reading(self):
        s = parse_sequent('p, q => p')
        f = sequent_to_formula(s)
        assert isinstance(f, Implies)

    def test_sequent_subformulas(self):
        s = parse_sequent('[]p => q')
        assert sequent_subformulas(s) == {Box(P), P, Q}
