"""Formulas, multisets, and sequents for modal logic, with a parser and printer.

The formula language is built from falsity, propositional atoms, implication
and box.  Negation, conjunction, disjunction, verum and diamond are sugar and
are expanded away at construction time; the AST only ever contains the four
core constructors.

Formulas are hash-consed: building a formula equal to a live one returns
that same object, so ``==`` is ``is``, and a formula hashes by identity.
Each formula carries its structural order key, computed once when it is
built.  The table of live formulas holds them weakly, so its size is
bounded by the formulas in use.

Sequents use multisets on both sides.  A multiset is the tuple of its formulas
in a canonical sorted order, so that tuple equality and hashing behave
like genuine multiset equality.  Multisets and sequents are not interned;
a sequent keeps its hash once it is worked out.

The parser is an iterative precedence parser over the tokens of one
regular expression, and the printer and ``atom_polarities`` are iterative
too, so formulas of any depth parse, print and have their polarities
read.  A sequent text splits at '=>' and ',', which no formula contains,
so spacing is free.  A caller parsing or printing many sequents can pass
each call one ``ParseMemo`` or ``PrintMemo``, which parses each distinct
formula text, or prints each distinct formula, once.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from bisect import bisect_right
from functools import reduce
from operator import attrgetter


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class for formulas.  Instances are immutable and hash-consed:
    building a formula equal to a live one returns that same object."""

    __slots__ = ('_key', '__weakref__')
    _fields = ()

    __hash__ = object.__hash__      # equal formulas are one object

    def __init_subclass__(cls, **kwargs):
        # Each kind's slot setters, bound once: a miss sets the fields
        # through them, faster than ``object.__setattr__`` by name.
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __new__(cls, *fields):
        """The live formula ``cls(*fields)``, built if there is none: the
        one constructor of every kind.  A wrong number of fields never
        names a live formula, so it is checked on a miss only."""
        ident = (cls,) + fields
        ref = _TABLE.get(ident)
        if ref is not None:
            f = ref()
            if f is not None:
                return f
        if len(fields) != len(cls._fields):
            raise TypeError('%s takes %d fields, not %d'
                            % (cls.__name__, len(cls._fields), len(fields)))
        with _TABLE_LOCK:
            ref = _TABLE.get(ident)
            f = ref() if ref is not None else None
            if f is None:
                f = object.__new__(cls)
                for setter, value in zip(cls._setters, fields):
                    setter(f, value)
                _set_key(f, f._order_key())
                _TABLE[ident] = weakref.ref(f, lambda _, key=ident:
                                            _remove_dead_weakref(_TABLE, key))
        return f

    def __setattr__(self, name, value):
        raise AttributeError('formulas are immutable')

    def __delattr__(self, name):
        raise AttributeError('formulas are immutable')

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self):
        return '%s(%s)' % (type(self).__name__, ', '.join(
            '%s=%r' % (n, getattr(self, n)) for n in self._fields))

    def __str__(self):
        return format_formula(self)


# The live formulas, keyed by (class, *fields): a plain dict, so a lookup
# runs at C speed.  Each value is a weak reference whose callback removes the
# entry when its formula dies.  ``_remove_dead_weakref``, the C helper of
# the standard library's weak dictionaries, removes it only if it still
# holds a dead reference, in one step, so it never drops a formula built
# since.  A miss builds under the lock, so two threads building one formula
# get one object.
_TABLE = {}
_TABLE_LOCK = threading.Lock()
_set_key = Formula._key.__set__


class Bottom(Formula):
    __slots__ = ()

    def _order_key(self):
        return (0,)


class Atom(Formula):
    __slots__ = _fields = ('name',)

    def _order_key(self):
        return (1, self.name)


class Implies(Formula):
    __slots__ = _fields = ('left', 'right')

    def _order_key(self):
        return (2, self.left._key, self.right._key)


class Box(Formula):
    __slots__ = _fields = ('inner',)

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


def subformulas(*roots):
    """The set of subformulas of the formulas ``roots`` (including
    themselves), in one walk over all of them."""
    out = set()
    stack = list(roots)
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


def atom_polarities(f):
    """Map each atom name occurring in ``f`` to the set of polarities
    ('+' / '-') with which it occurs, the names in order of first
    occurrence from the left.  One walk over an explicit stack of
    (occurrence, polarity) pairs, so formulas of any depth are read."""
    out = {}
    stack = [(f, True)]
    while stack:
        g, positive = stack.pop()
        if isinstance(g, Atom):
            out.setdefault(g.name, set()).add('+' if positive else '-')
        elif isinstance(g, Implies):
            stack.append((g.right, positive))
            stack.append((g.left, not positive))
        elif isinstance(g, Box):
            stack.append((g.inner, positive))
    return out


# ---------------------------------------------------------------------------
# Multisets


_KEY = attrgetter('_key')


class Multiset(tuple):
    """An immutable multiset of formulas: the tuple of its formulas in
    canonical order.

    Two multisets are equal iff they contain the same formulas with the
    same multiplicities, regardless of construction order, and a multiset
    hashes as the tuple of its formulas.  The canonical order sorts by
    kind first (falsity, atoms, implications, boxes), so the items of each
    kind are adjacent.  Edits keep that order without sorting again.
    """

    __slots__ = ()

    def __new__(cls, items=()):
        return tuple.__new__(cls, sorted(items, key=_KEY))

    def __repr__(self):
        return 'Multiset([%s])' % ', '.join(str(f) for f in self)

    def add(self, f):
        i = bisect_right(self, f._key, key=_KEY)
        return _canonical(self[:i] + (f,) + self[i:])

    def remove(self, f):
        """Remove one occurrence of ``f``; raises if absent."""
        i = self.index(f)
        return _canonical(self[:i] + self[i + 1:])

    def union(self, other):
        return Multiset(self + tuple(other))

    def difference(self, other):
        """Counted multiset difference."""
        items = list(self)
        for f in other:
            if f in items:
                items.remove(f)
        return _canonical(items)

    def is_subset(self, other):
        """Counted inclusion."""
        rest = list(other)
        try:
            for f in self:
                rest.remove(f)
        except ValueError:
            return False
        return True

    def distinct(self):
        """Distinct elements, in canonical order."""
        return tuple(dict.fromkeys(self))

    def dedupe(self):
        """The underlying set, as a multiset with multiplicity one each."""
        return _canonical(self.distinct())


def _canonical(items):
    """The multiset of ``items``, already in canonical order."""
    return tuple.__new__(Multiset, items)


EMPTY = Multiset()


def mset(*formulas):
    return Multiset(formulas)


# ---------------------------------------------------------------------------
# Sequents


class Sequent:
    """A sequent ``ant => suc`` of two multisets.  Immutable, and equal to
    any sequent of the same two multisets.  Its hash is that of the pair
    ``(ant, suc)``, worked out on first use and kept; sequents are not
    interned, so equal sequents may be distinct objects."""

    __slots__ = ('ant', 'suc', '_hash')

    def __init__(self, ant, suc):
        _set_ant(self, ant)
        _set_suc(self, suc)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError('sequents are immutable')

    def __delattr__(self, name):
        raise AttributeError('sequents are immutable')

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Sequent:
            return NotImplemented
        return (self.ant, self.suc) == (other.ant, other.suc)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ant, self.suc))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        return Sequent, (self.ant, self.suc)

    def __repr__(self):
        return 'Sequent(ant=%r, suc=%r)' % (self.ant, self.suc)

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
        return self.ant + self.suc


_set_ant = Sequent.ant.__set__
_set_suc = Sequent.suc.__set__
_set_hash = Sequent._hash.__set__


def sequent_to_formula(s):
    """The formula reading of a sequent: conjunction of the antecedent
    implies disjunction of the succedent."""
    d = reduce(disj, s.suc) if s.suc else BOT
    return Implies(reduce(conj, s.ant), d) if s.ant else d


# ---------------------------------------------------------------------------
# Printing


def format_formula(f):
    """The text of a formula.  An implication is parenthesised under a box
    and left of an arrow.  Iterative, so a formula of any depth prints."""
    out = []
    todo = [f]      # formulas still to print, and text to emit between them
    while todo:
        g = todo.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is Implies:
            todo.append(g.right)
            if type(g.left) is Implies:
                todo += (') -> ', g.left, '(')
            else:
                todo += (' -> ', g.left)
        elif t is Box:
            if type(g.inner) is Implies:
                todo += (')', g.inner, '[](')
            else:
                todo += (g.inner, '[]')
        elif t is Atom:
            out.append(g.name)
        else:
            out.append('false')
    return ''.join(out)


def format_sequent(s, texts=None):
    """The text ``A, B => C, D`` of a sequent.  ``texts``, a ``PrintMemo``
    that a caller printing many sequents passes to each call, prints each
    distinct formula once."""
    fmt = format_formula if texts is None else texts.__getitem__
    return '%s => %s' % (', '.join(map(fmt, s.ant)),
                         ', '.join(map(fmt, s.suc)))


class PrintMemo(dict):
    """A dict from formula to its text that prints a formula the first
    time it is looked up."""

    __slots__ = ()

    def __missing__(self, f):
        text = self[f] = format_formula(f)
        return text


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


# Binary operators: the constructor, the precedence (loosest first) and the
# precedence an operator already on the stack needs to be applied before
# this one is pushed.  ``->`` is right-associative, ``|`` and ``&`` are
# left-associative.  Prefix operators bind tighter than all of them.
_BINARY = {'->': (Implies, 1, 2), '|': (disj, 2, 2), '&': (conj, 3, 3)}
_PREFIX = {'~': neg, '[]': Box, '<>': diamond}


def _parse(tokens):
    """Parse a formula from the start of ``tokens``.  Returns it and the
    position of the first token after it.

    An iterative precedence parser: ``vals`` and ``ops`` hold the operands
    and binary operators still to be combined, ``prefixes`` the prefix
    operators read before the current operand, and ``enclosing`` the state
    of each enclosing parenthesis.  So nesting costs no Python stack."""
    enclosing = []
    prefixes, vals, ops = [], [], []
    i, n = 0, len(tokens)
    while True:
        # An operand: prefix operators, then an atom or a parenthesis.
        tok = tokens[i] if i < n else None
        i += 1
        if tok in _PREFIX:
            prefixes.append(_PREFIX[tok])
            continue
        if tok == '(':
            enclosing.append((prefixes, vals, ops))
            prefixes, vals, ops = [], [], []
            continue
        if tok == 'false':
            f = BOT
        elif tok == 'true':
            f = TOP
        elif tok is None:
            raise ParseError('unexpected end of input')
        elif tok[0].isalpha():
            f = Atom(tok)
        else:
            raise ParseError('unexpected token %r' % (tok,))
        # After an operand: a binary operator, a closing parenthesis or the
        # end of the formula.
        while True:
            for build in reversed(prefixes):
                f = build(f)
            tok = tokens[i] if i < n else None
            binary = _BINARY.get(tok)
            if binary is not None:
                while ops and ops[-1][1] >= binary[2]:
                    f = ops.pop()[0](vals.pop(), f)
                vals.append(f)
                ops.append(binary)
                prefixes = []
                i += 1
                break
            while ops:
                f = ops.pop()[0](vals.pop(), f)
            if not enclosing:
                return f, i
            if tok != ')':
                if tok is None:
                    raise ParseError('unexpected end of input')
                raise ParseError('expected %r, found %r' % (')', tok))
            i += 1
            prefixes, vals, ops = enclosing.pop()


def parse_formula(text):
    tokens = _tokenize(text)
    f, i = _parse(tokens)
    if i < len(tokens):
        raise ParseError('trailing input: %r' % (tokens[i:],))
    return f


class ParseMemo(dict):
    """A dict from formula text to formula that parses a text the first
    time it is looked up.  A ``ParseError`` names the text it failed on."""

    __slots__ = ()

    def __missing__(self, text):
        try:
            f = self[text] = parse_formula(text)
        except ParseError as e:
            raise ParseError('%s in %r' % (e, text)) from None
        return f


def parse_sequent(text, formulas=None):
    """Parse ``A, B => C, D``, split at '=>' and ',' (no formula contains
    them); either side may be empty, and spacing is free.  ``formulas``, a
    ``ParseMemo`` that a caller parsing many sequents passes to each call,
    parses each distinct formula text once."""
    if formulas is None:
        formulas = ParseMemo()
    sides = text.split('=>')
    if len(sides) != 2:
        raise ParseError('a sequent needs exactly one =>')
    return Sequent(*[
        Multiset(map(formulas.__getitem__, map(str.strip, side.split(',')))
                 if side.strip() else ())
        for side in sides])
