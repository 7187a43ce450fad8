"""Formulas, multisets, and sequents for modal logic, with a parser and printer.

The formula language is built from falsity, propositional atoms, implication
and box.  Negation, conjunction, disjunction, verum and diamond are sugar and
are expanded away at construction time; the AST only ever contains the four
core constructors.

Formulas are hash-consed: building a formula equal to a live one returns
that same object, so ``==`` is ``is``.  Each formula carries its hash and
its structural order key, computed once when it is built.  The table of
live formulas holds them weakly, so its size is bounded by the formulas
in use.

Sequents use multisets on both sides.  Multisets are kept in a canonical
sorted order so that structural equality and hashing behave like genuine
multiset equality.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass
from operator import attrgetter


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class for formulas.  Instances are immutable and hash-consed:
    building a formula equal to a live one returns that same object."""

    __slots__ = ('_hash', '_key', '__weakref__')
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError('formulas are immutable')

    def __delattr__(self, name):
        raise AttributeError('formulas are immutable')

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self):
        return '%s(%s)' % (type(self).__name__, ', '.join(
            '%s=%r' % (n, getattr(self, n)) for n in self._fields))

    def __str__(self):
        return format_formula(self)


# The live formulas, keyed by (class, *fields).  Values are weak, so a
# formula leaves the table when the last reference to it goes.  A miss
# builds under the lock, so two threads building one formula get one object.
_TABLE = weakref.WeakValueDictionary()
_TABLE_LOCK = threading.Lock()


def _intern(cls, fields):
    """The live formula ``cls(*fields)``, built if there is none."""
    ident = (cls,) + fields
    f = _TABLE.get(ident)
    if f is None:
        with _TABLE_LOCK:
            f = _TABLE.get(ident)
            if f is None:
                f = object.__new__(cls)
                for name, value in zip(cls._fields, fields):
                    object.__setattr__(f, name, value)
                # The hash a frozen dataclass of these fields would have,
                # so set and dict iteration orders follow the fields.
                object.__setattr__(f, '_hash', hash(fields))
                object.__setattr__(f, '_key', f._order_key())
                _TABLE[ident] = f
    return f


class Bottom(Formula):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ())

    def _order_key(self):
        return (0,)


class Atom(Formula):
    __slots__ = _fields = ('name',)

    def __new__(cls, name):
        return _intern(cls, (name,))

    def _order_key(self):
        return (1, self.name)


class Implies(Formula):
    __slots__ = _fields = ('left', 'right')

    def __new__(cls, left, right):
        return _intern(cls, (left, right))

    def _order_key(self):
        return (2, self.left._key, self.right._key)


class Box(Formula):
    __slots__ = _fields = ('inner',)

    def __new__(cls, inner):
        return _intern(cls, (inner,))

    def _order_key(self):
        return (3, self.inner._key)


BOT = Bottom()


def neg(a):
    """~A, sugar for A -> false."""
    return Implies(a, BOT)


TOP = neg(BOT)


def conj(a, b):
    """A & B, sugar for ~(A -> ~B)."""
    return neg(Implies(a, neg(b)))


def disj(a, b):
    """A | B, sugar for ~A -> B."""
    return Implies(neg(a), b)


def diamond(a):
    """<>A, sugar for ~[]~A."""
    return neg(Box(neg(a)))


def formula_size(f):
    """Number of AST nodes."""
    if isinstance(f, (Bottom, Atom)):
        return 1
    if isinstance(f, Box):
        return 1 + formula_size(f.inner)
    return 1 + formula_size(f.left) + formula_size(f.right)


def formula_key(f):
    """A total order key for formulas, used to canonicalize multisets:
    structural, so the order does not depend on when a formula was built."""
    return f._key


def subformulas(f):
    """The set of subformulas of a formula (including itself)."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, Implies):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Box):
            stack.append(g.inner)
    return frozenset(out)


def star_closure(formulas):
    """Close a set of formulas under subformulas and A |-> [](A -> []A).

    For each boxed member []A of the subformula closure, the formula
    [](A -> []A) and its subformulas are added as well.  The result is
    finite: the extra formulas are not themselves expanded again.
    """
    base = set()
    for f in formulas:
        base |= subformulas(f)
    out = set(base)
    for g in base:
        if isinstance(g, Box):
            out |= subformulas(Box(Implies(g.inner, g)))
    return frozenset(out)


def polarity(f, positive=True, pos=None, neg_=None):
    """Positive and negative subformula occurrences of a formula.

    Returns a pair of frozensets ``(pos, neg)``.  The formula itself is a
    positive occurrence; implication flips polarity on the left.
    """
    if pos is None:
        pos, neg_ = set(), set()
    (pos if positive else neg_).add(f)
    if isinstance(f, Implies):
        polarity(f.left, not positive, pos, neg_)
        polarity(f.right, positive, pos, neg_)
    elif isinstance(f, Box):
        polarity(f.inner, positive, pos, neg_)
    return frozenset(pos), frozenset(neg_)


def atom_polarities(f, positive=True, out=None):
    """Map each atom name occurring in ``f`` to the set of polarities
    ('+' / '-') with which it occurs."""
    if out is None:
        out = {}
    if isinstance(f, Atom):
        out.setdefault(f.name, set()).add('+' if positive else '-')
    elif isinstance(f, Implies):
        atom_polarities(f.left, not positive, out)
        atom_polarities(f.right, positive, out)
    elif isinstance(f, Box):
        atom_polarities(f.inner, positive, out)
    return out


# ---------------------------------------------------------------------------
# Multisets


_KEY = attrgetter('_key')


class Multiset:
    """An immutable multiset of formulas with canonical ordering.

    Two multisets are equal iff they contain the same formulas with the
    same multiplicities, regardless of construction order.
    """

    # ``_hash`` is filled in on the first ``hash()``.
    __slots__ = ('_items', '_hash')

    def __init__(self, items=()):
        object.__setattr__(self, '_items',
                           tuple(sorted(items, key=_KEY)))

    @property
    def items(self):
        return self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __contains__(self, f):
        return f in self._items

    def __eq__(self, other):
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(self._items)
            return h

    def __repr__(self):
        return 'Multiset([%s])' % ', '.join(str(f) for f in self._items)

    def count(self, f):
        return self._items.count(f)

    def add(self, *formulas):
        return Multiset(self._items + tuple(formulas))

    def remove(self, f):
        """Remove one occurrence of ``f``; raises if absent."""
        items = list(self._items)
        items.remove(f)
        return Multiset(items)

    def union(self, other):
        return Multiset(self._items + tuple(other))

    def difference(self, other):
        """Counted multiset difference."""
        items = list(self._items)
        for f in other:
            if f in items:
                items.remove(f)
        return Multiset(items)

    def is_subset(self, other):
        """Counted inclusion."""
        for f in set(self._items):
            if self._items.count(f) > other.count(f):
                return False
        return True

    def distinct(self):
        """Distinct elements, in canonical order."""
        seen = []
        for f in self._items:
            if not seen or seen[-1] != f:
                seen.append(f)
        return tuple(seen)

    def to_set(self):
        return frozenset(self._items)

    def dedupe(self):
        """The underlying set, as a multiset with multiplicity one each."""
        return Multiset(self.distinct())


EMPTY = Multiset()


def mset(*formulas):
    return Multiset(formulas)


# ---------------------------------------------------------------------------
# Sequents


@dataclass(frozen=True)
class Sequent:
    ant: Multiset
    suc: Multiset

    def __str__(self):
        return format_sequent(self)

    def is_initial(self):
        """Initial in the atomic sense: falsity on the left, or an atom
        shared between the two sides."""
        if BOT in self.ant:
            return True
        return any(isinstance(f, Atom) and f in self.suc for f in self.ant)

    def boxed_ant(self):
        """The sub-multiset of boxed antecedent formulas."""
        return Multiset(f for f in self.ant if isinstance(f, Box))

    def formulas(self):
        for f in self.ant:
            yield f
        for f in self.suc:
            yield f


def seq(ant, suc):
    if not isinstance(ant, Multiset):
        ant = Multiset(ant)
    if not isinstance(suc, Multiset):
        suc = Multiset(suc)
    return Sequent(ant, suc)


def sequent_subformulas(s):
    out = set()
    for f in s.formulas():
        out |= subformulas(f)
    return frozenset(out)


def sequent_to_formula(s):
    """The formula reading of a sequent: conjunction of the antecedent
    implies disjunction of the succedent."""
    ant = list(s.ant)
    suc = list(s.suc)
    if suc:
        d = suc[0]
        for f in suc[1:]:
            d = disj(d, f)
    else:
        d = BOT
    if ant:
        c = ant[0]
        for f in ant[1:]:
            c = conj(c, f)
        return Implies(c, d)
    return d


# ---------------------------------------------------------------------------
# Printing


def format_formula(f):
    if isinstance(f, Bottom):
        return 'false'
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Box):
        return '[]' + _format_unary(f.inner)
    left = _format_unary(f.left)
    return '%s -> %s' % (left, format_formula(f.right))


def _format_unary(f):
    if isinstance(f, Implies):
        return '(%s)' % format_formula(f)
    return format_formula(f)


def format_sequent(s):
    return '%s => %s' % (', '.join(str(f) for f in s.ant),
                         ', '.join(str(f) for f in s.suc))


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    pass


# One token per match: a symbol, or an atom name in group 1.  Any other
# character that is not whitespace matches the bare ``\S``, leaving group 1
# empty, and is an error.  Whitespace matches nothing and is skipped.
_TOKEN = re.compile(r'(=>|->|\[\]|<>|[~&|(),]|[a-z][a-z0-9_]*)|\S')


def _ascii_stand_ins(text):
    """A ``str.translate`` table giving each non-ASCII character of ``text``
    that may occur in an atom name an ASCII one of the same kind: 'a' if it
    may start a name (a lowercase letter), '0' if it may only continue one
    (lowercase, or a digit)."""
    table = {}
    for c in set(text):
        if c.isascii():
            continue
        if c.isalpha() and c.islower():
            table[ord(c)] = 'a'
        elif c.islower() or c.isdigit():
            table[ord(c)] = '0'
    return table


def _tokenize(text):
    if text.isascii():
        tokens = _TOKEN.findall(text)
        if '' not in tokens:
            return tokens
        scan = text
    else:
        scan = text.translate(_ascii_stand_ins(text))
    # A non-ASCII text, or an error: find the tokens by their positions.
    tokens = []
    for m in _TOKEN.finditer(scan):
        i, j = m.span()
        if m.lastindex is None:
            raise ParseError('unexpected character %r at position %d'
                             % (text[i], i))
        tokens.append(text[i:j])
    return tokens


class _Parser:
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


def parse_formula(text):
    p = _Parser(_tokenize(text))
    f = p.formula()
    if p.peek() is not None:
        raise ParseError('trailing input: %r' % (p.tokens[p.pos:],))
    return f


def parse_sequent(text):
    """Parse ``A, B => C, D``; either side may be empty."""
    parts = _split_toplevel(text)
    if len(parts) != 2:
        raise ParseError('a sequent needs exactly one =>')
    return Sequent(Multiset(_parse_list(parts[0])),
                   Multiset(_parse_list(parts[1])))


def _split_toplevel(text):
    tokens = _tokenize(text)
    parts, cur = [], []
    for tok in tokens:
        if tok == '=>':
            parts.append(cur)
            cur = []
        else:
            cur.append(tok)
    parts.append(cur)
    return parts


def _parse_list(tokens):
    if not tokens:
        return []
    groups, cur, depth = [], [], 0
    for tok in tokens:
        if tok == '(':
            depth += 1
        elif tok == ')':
            depth -= 1
        if tok == ',' and depth == 0:
            groups.append(cur)
            cur = []
        else:
            cur.append(tok)
    groups.append(cur)
    out = []
    for g in groups:
        p = _Parser(g)
        f = p.formula()
        if p.peek() is not None:
            raise ParseError('trailing input in list item: %r'
                             % (g[p.pos:],))
        out.append(f)
    return out
