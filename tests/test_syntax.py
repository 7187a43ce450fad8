import collections
import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, strategies as st

from grzproofs import syntax
from grzproofs.syntax import (
    Atom, Bottom, Box, Implies, Multiset, ParseError, Sequent,
    BOT, EMPTY, TOP, atom_polarities, conj, diamond, disj, format_formula,
    format_sequent, mset, neg, parse_formula, parse_sequent,
    sequent_to_formula, subformulas,
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

    @pytest.mark.parametrize('text', ['', 'p ->', '[]', '~', '(p', 'p &'])
    def test_running_out_of_tokens_is_the_end_of_input(self, text):
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert str(e.value) == 'unexpected end of input'

    def test_a_missing_closing_parenthesis_names_the_token_found(self):
        with pytest.raises(ParseError) as e:
            parse_formula('(p q)')
        assert str(e.value) == "expected ')', found 'q'"

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

    @pytest.mark.parametrize('text, message', [
        ('p => q & $', "unexpected character '$' at position 4 in 'q & $'"),
        ('(p, q) => r', "unexpected end of input in '(p'"),
        ('p,, q => r', "unexpected end of input in ''"),
        ('p => q r', "trailing input: ['r'] in 'q r'"),
    ])
    def test_a_sequent_error_names_the_formula_it_failed_on(self, text,
                                                            message):
        with pytest.raises(ParseError) as e:
            parse_sequent(text)
        assert str(e.value) == message

    @given(formulas)
    def test_format_parse_round_trip(self, f):
        assert parse_formula(format_formula(f)) == f

    @given(st.tuples(formula_lists, formula_lists))
    def test_sequent_round_trip(self, sides):
        s = Sequent(Multiset(sides[0]), Multiset(sides[1]))
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


class ReferenceParser:
    """The recursive-descent parser the iterative one replaced, one method
    per precedence level."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError('unexpected end of input')
        if expected is not None and tok != expected:
            raise ParseError('expected %r, found %r' % (expected, tok))
        self.pos += 1
        return tok

    def formula(self):
        left = self.or_expr()
        if self.peek() == '->':
            self.take()
            return Implies(left, self.formula())
        return left

    def or_expr(self):
        f = self.and_expr()
        while self.peek() == '|':
            self.take()
            f = disj(f, self.and_expr())
        return f

    def and_expr(self):
        f = self.unary()
        while self.peek() == '&':
            self.take()
            f = conj(f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok == '~':
            self.take()
            return neg(self.unary())
        if tok == '[]':
            self.take()
            return Box(self.unary())
        if tok == '<>':
            self.take()
            return diamond(self.unary())
        if tok == '(':
            self.take()
            f = self.formula()
            self.take(')')
            return f
        if tok == 'false':
            self.take()
            return BOT
        if tok == 'true':
            self.take()
            return TOP
        if tok is not None and tok[0].isalpha():
            self.take()
            return Atom(tok)
        raise ParseError('unexpected token %r' % (tok,))

    def whole(self):
        f = self.formula()
        if self.peek() is not None:
            raise ParseError('trailing input: %r' % (self.tokens[self.pos:],))
        return f


def reference_parse(text, sequent=False):
    """A formula, or a sequent, parsed by ``ReferenceParser``: the token
    list split at '=>' and at commas outside parentheses."""
    tokens = syntax._tokenize(text)
    if not sequent:
        return ReferenceParser(tokens).whole()
    sides = [[]]
    for tok in tokens:
        if tok == '=>':
            sides.append([])
        else:
            sides[-1].append(tok)
    if len(sides) != 2:
        raise ParseError('a sequent needs exactly one =>')
    parsed = []
    for side in sides:
        items, depth = [[]] if side else [], 0
        for tok in side:
            depth += (tok == '(') - (tok == ')')
            if tok == ',' and depth == 0:
                items.append([])
            else:
                items[-1].append(tok)
        parsed.append(Multiset(ReferenceParser(i).whole() for i in items))
    return Sequent(*parsed)


def parsed_or_error(parse, text):
    try:
        return parse(text)
    except ParseError:
        return ParseError


MALFORMED = ['', 'p ->', '(p', 'p q', '-> p', 'p => q', '[p]', 'p &']

PARSE_PIECES = ['p', 'q', 'false', 'true', '->', '|', '&', '~', '[]', '<>',
                '(', '(', ')', ')', ',', ', ', '=>', ' => ', ' ', ' ', '']

parse_texts = st.one_of(
    st.lists(st.sampled_from(PARSE_PIECES), max_size=14).map(''.join),
    formulas.map(format_formula),
    st.tuples(formula_lists, formula_lists).map(
        lambda sides: format_sequent(Sequent(*map(Multiset, sides)))))


def with_examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text)(test)
        return test
    return decorate


def reference_format(f):
    """The recursive printer the iterative one replaced."""
    if isinstance(f, Bottom):
        return 'false'
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Box):
        inner = reference_format(f.inner)
        return '[](%s)' % inner if isinstance(f.inner, Implies) \
            else '[]' + inner
    left = reference_format(f.left)
    if isinstance(f.left, Implies):
        left = '(%s)' % left
    return '%s -> %s' % (left, reference_format(f.right))


def deep_formula(depth):
    """A formula ``depth`` constructors deep that mixes boxes, negations
    and implications on both sides."""
    f = P
    for i in range(depth):
        f = (Box(f), Implies(f, Q), Implies(P, f), neg(f))[i % 4]
    return f


class TestIterativeParser:
    @given(parse_texts)
    @with_examples(MALFORMED)
    def test_formulas_agree_with_the_reference(self, text):
        assert (parsed_or_error(parse_formula, text)
                is parsed_or_error(reference_parse, text))

    @given(parse_texts)
    @with_examples(MALFORMED + ['p,, => q', '(p, q) => r', ' => ',
                                'p ,q, r=>[](p, q)', 'p => q => r'])
    @example('p,q=>r')
    @example('p\u3000=> q')
    @example(' , p => q')
    @example('p => q,')
    def test_sequents_agree_with_the_reference(self, text):
        assert (parsed_or_error(parse_sequent, text)
                == parsed_or_error(lambda t: reference_parse(t, True), text))

    def test_a_deep_box_chain_parses(self):
        f = parse_formula('[]' * 5000 + 'p')
        for _ in range(5000):
            assert isinstance(f, Box)
            f = f.inner
        assert f is P

    def test_a_long_implication_chain_parses(self):
        names = ['p%d' % i for i in range(20000)]
        f = parse_formula(' -> '.join(names))
        for name in names[:-1]:
            assert f.left is Atom(name)
            f = f.right
        assert f is Atom(names[-1])

    def test_a_deep_formula_prints_and_parses_back(self):
        f = deep_formula(5000)
        assert parse_formula(format_formula(f)) is f

    @given(formulas)
    def test_printing_agrees_with_the_reference(self, f):
        assert format_formula(f) == reference_format(f)

    def test_print_memo_prints_each_formula_once(self, monkeypatch):
        printed = []

        def counting(f):
            printed.append(f)
            return format_formula(f)

        monkeypatch.setattr(syntax, 'format_formula', counting)
        memo = syntax.PrintMemo()
        s = Sequent(mset(P, Box(Q)), mset(P, Implies(Q, P)))
        texts = [format_sequent(s, memo) for _ in range(2)]
        assert texts == ['p, []q => p, q -> p'] * 2
        assert len(printed) == 3
        assert set(printed) == {P, Box(Q), Implies(Q, P)}


class TestFormulaHelpers:
    def test_top_is_a_theorem_shape(self):
        assert TOP == Implies(BOT, BOT)

    def test_subformulas(self):
        f = Box(Implies(P, Q))
        assert subformulas(f) == {f, Implies(P, Q), P, Q}

    def test_polarity_of_implication(self):
        assert atom_polarities(Implies(P, Q)) == {'p': {'-'}, 'q': {'+'}}

    def test_polarity_under_negation_and_box(self):
        assert atom_polarities(neg(P)) == {'p': {'-'}}
        assert atom_polarities(Implies(Box(P), P)) == {'p': {'-', '+'}}

    def test_polarities_are_read_in_order_of_first_occurrence(self):
        f = parse_formula('(q -> p) -> r')
        assert list(atom_polarities(f)) == ['q', 'p', 'r']

    def test_polarities_of_deep_formulas(self):
        # Read over an explicit stack: no RecursionError at any depth.
        chain = parse_formula(' -> '.join(['p'] * 20000))
        assert atom_polarities(chain) == {'p': {'+', '-'}}
        assert atom_polarities(parse_formula('[]' * 5000 + 'p')) == {
            'p': {'+'}}

    @given(st.lists(formulas, min_size=2, max_size=6))
    def test_formula_key_is_a_total_order(self, fs):
        # The structural order key that multisets sort their items by.
        ordered = sorted(fs, key=syntax._KEY)
        assert sorted(ordered, key=syntax._KEY) == ordered
        for a, b in zip(ordered, ordered[1:]):
            assert a._key <= b._key


class TestHashConsing:
    @pytest.mark.parametrize('text', ['p', 'false', '[]([](p -> []p) -> p)',
                                      '<>(p & ~q) | r'])
    def test_parsing_twice_gives_the_same_object(self, text):
        assert parse_formula(text) is parse_formula(text)

    def test_equal_constructions_are_one_object(self):
        assert Implies(P, Q) is Implies(P, Q)
        assert Box(Implies(P, Q)) is Box(Implies(P, Q))
        assert Atom('p') is P and Bottom() is BOT

    def test_formulas_hash_by_identity(self):
        # Equal constructions are one object, so the identity hash, which
        # runs in C, hashes them alike.
        for build in (lambda: Implies(Box(P), Implies(Q, BOT)),
                      lambda: Atom('p'), Bottom):
            f = build()
            assert hash(f) == object.__hash__(f) == hash(build())

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

    @pytest.mark.parametrize('cls, fields', [
        (Bottom, ('p',)), (Atom, ()), (Implies, (P,)), (Box, (P, Q))])
    def test_a_wrong_number_of_fields_is_a_type_error(self, cls, fields):
        with pytest.raises(TypeError):
            cls(*fields)

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

    def test_dead_formulas_leave_the_table(self):
        gc.collect()
        before = len(syntax._TABLE)
        f = parse_formula('[](only_here -> []also_only_here)')
        assert len(syntax._TABLE) == before + 5
        del f
        gc.collect()
        assert len(syntax._TABLE) == before

    def test_threads_building_one_formula_get_one_object(self):
        # Each thread builds one formula twice while the first copy is
        # alive; the copies die at once, so entries keep being removed and
        # added again while the other threads look them up.
        lost = []
        barrier = threading.Barrier(4)

        def build(k):
            a = Atom('t%d' % k)
            return Box(Implies(a, Box(a)))

        def work():
            barrier.wait(timeout=10)
            for i in range(3000):
                f = build(i % 7)
                if build(i % 7) is not f:
                    lost.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert lost == []

    def test_there_is_no_global_key_cache(self):
        assert not hasattr(syntax, '_KEY_CACHE')


class TestMultiset:
    @given(formula_lists, formula_lists)
    def test_union_difference_match_counter_arithmetic(self, xs, ys):
        a, b = Multiset(xs), Multiset(ys)
        ca, cb = collections.Counter(xs), collections.Counter(ys)
        assert collections.Counter(a.union(b)) == ca + cb
        assert collections.Counter(a.difference(b)) == ca - cb

    @given(formula_lists, formula_lists)
    def test_subset_matches_counter_inclusion(self, xs, ys):
        a, b = Multiset(xs), Multiset(ys)
        ca, cb = collections.Counter(xs), collections.Counter(ys)
        assert a.is_subset(b) == (ca <= cb)

    @given(formula_lists)
    def test_order_insensitive_equality(self, xs):
        assert Multiset(xs) == Multiset(list(reversed(xs)))

    @given(formula_lists)
    def test_a_multiset_is_the_sorted_tuple_of_its_formulas(self, xs):
        m = Multiset(xs)
        assert m == tuple(sorted(xs, key=syntax._KEY))
        assert hash(m) == hash(tuple(m))

    def test_a_multiset_has_no_slots_of_its_own(self):
        m = mset(P, Q)
        assert isinstance(m, tuple) and Multiset.__slots__ == ()
        with pytest.raises(AttributeError):
            m.other = 1

    def test_pickled_multisets_stay_multisets(self):
        m = mset(Box(Q), P, P)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            c = pickle.loads(pickle.dumps(m, protocol))
            assert type(c) is Multiset and c == m and hash(c) == hash(m)

    def test_add_remove_count(self):
        m = mset(P, P, Q)
        assert m.count(P) == 2
        assert m.add(P).count(P) == 3
        assert m.remove(P).count(P) == 1
        with pytest.raises(ValueError):
            mset(Q).remove(P)

    @given(formula_lists, formula_lists, formulas)
    def test_edits_give_the_items_of_a_fresh_sort(self, xs, ys, f):
        # Edits build their items from the sorted items of their operands
        # without sorting again.
        def canonical(items):
            return tuple(sorted(items, key=syntax._KEY))

        def minus(items, gone):
            rest = list(items)
            for g in gone:
                if g in rest:
                    rest.remove(g)
            return rest

        a, b = Multiset(xs), Multiset(ys)
        assert a.add(f) == canonical(xs + [f])
        assert a.union(b) == canonical(xs + ys)
        assert a.difference(b) == canonical(minus(xs, ys))
        assert a.dedupe() == canonical(set(xs))
        for g in set(xs):
            assert a.remove(g) == canonical(minus(xs, [g]))

    def test_dedupe_and_distinct(self):
        m = mset(P, P, Q)
        assert m.dedupe() == mset(P, Q)
        assert set(m.distinct()) == {P, Q}


class TestSequent:
    def test_boxed_ant(self):
        s = parse_sequent('p, []q, []p => p')
        assert s.boxed_ant() == mset(Box(Q), Box(P))

    def test_hash_is_that_of_the_pair(self):
        ant, suc = mset(P, Box(Q), P), mset(Implies(P, Q))
        assert hash(Sequent(ant, suc)) == hash((ant, suc))
        assert hash(Sequent(ant, suc)) == hash((tuple(ant), tuple(suc)))

    def test_repr_is_the_dataclass_text(self):
        assert repr(parse_sequent('p, []q => p -> q')) == (
            'Sequent(ant=Multiset([p, []q]), suc=Multiset([p -> q]))')

    def test_sequents_are_immutable(self):
        s = parse_sequent('p => q')
        with pytest.raises(AttributeError):
            s.ant = EMPTY
        with pytest.raises(AttributeError):
            s.other = 1
        with pytest.raises(AttributeError):
            del s.suc
        assert s == parse_sequent('p => q')

    @pytest.mark.parametrize('hashed', [False, True])
    def test_copies_are_equal(self, hashed):
        s = parse_sequent('[]p, p -> q => []q, false')
        if hashed:
            hash(s)
        copies = [copy.copy(s), copy.deepcopy(s)] + [
            pickle.loads(pickle.dumps(s, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert c == s and hash(c) == hash(s)
            assert c.ant == s.ant and c.suc == s.suc
            assert type(c.ant) is Multiset and type(c.suc) is Multiset

    def test_equal_sequents_built_apart(self):
        a = parse_sequent('p, []q => r')
        b = Sequent(mset(Box(Q), P), mset(R))
        other = parse_sequent('p, []q => q')
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and a != 'p, []q => r'
        assert len({a, b, other}) == 2

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
        assert subformulas(*s.formulas()) == {Box(P), P, Q}
