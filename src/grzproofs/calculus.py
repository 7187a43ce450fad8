"""Sequent calculus rules for Grz: rule instances and step validation.

Each rule is stated once, by its constructor, which builds the premises of
a step from its conclusion and principal formula and rejects a step that
does not fit the rule.  Rebuilding a step at another conclusion
(``reinstance``) and checking a recorded step (``step_violations``) both
go through that constructor.  ``crossing`` is the one statement of which
premise is the right premise of the two-premise box rule, the premise
that guarded branches cross.

Four systems are supported:

* ``GRZ_SEQ``      -- the finitary calculus with general axioms and the
                      box rule whose premise carries ``unfolding(A)``,
                      that is [](A -> []A), the one place it is built;
* ``GRZ_SEQ_CUT``  -- the same plus cut;
* ``GRZ_INF``      -- the non-well-founded calculus with atomic axioms and
                      the two-premise box rule;
* ``GRZ_INF_CUT``  -- the same plus cut.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .syntax import (
    Atom, Box, Implies, BOT, Sequent, Formula, mset,
)


class System(enum.Enum):
    GRZ_SEQ = 'grz_seq'
    GRZ_SEQ_CUT = 'grz_seq_cut'
    GRZ_INF = 'grz_inf'
    GRZ_INF_CUT = 'grz_inf_cut'

    @property
    def allows_cut(self):
        return self in (System.GRZ_SEQ_CUT, System.GRZ_INF_CUT)

    @property
    def is_finitary(self):
        return self in (System.GRZ_SEQ, System.GRZ_SEQ_CUT)

    @property
    def is_nwf(self):
        return not self.is_finitary


class Rule(enum.Enum):
    # Identity hashing, at C speed: ``Enum.__hash__`` hashes the member's
    # name in Python, and a rule is a key on every checked step.  No set
    # of rules is iterated into an output.
    __hash__ = object.__hash__

    AX_ATOM = 'ax_atom'
    AX_BOTTOM = 'ax_bottom'
    AX_GENERAL = 'ax_general'
    IMP_L = 'imp_l'
    IMP_R = 'imp_r'
    REFL = 'refl'
    BOX_INF = 'box_inf'
    BOX_GRZ = 'box_grz'
    CUT = 'cut'


# Bound once, for every module: ``Rule.X`` is an attribute lookup on the
# enum class, and search and the transformers build a step per node.
(_AX_ATOM, _AX_BOTTOM, _AX_GENERAL, _IMP_L, _IMP_R, _REFL, _BOX_INF,
 _BOX_GRZ, _CUT) = (
    Rule.AX_ATOM, Rule.AX_BOTTOM, Rule.AX_GENERAL, Rule.IMP_L, Rule.IMP_R,
    Rule.REFL, Rule.BOX_INF, Rule.BOX_GRZ, Rule.CUT)


@dataclass(frozen=True, slots=True)
class RuleInstance:
    """One rule application: conclusion, premises in left-to-right order,
    and the principal formula (the cut formula for cut)."""
    rule: Rule
    conclusion: Sequent
    premises: tuple = ()
    principal: Formula = None
    cut_formula: Formula = None

    def __init__(self, rule, conclusion, premises=(), principal=None,
                 cut_formula=None):
        # Search, loading and every transformer build a step per node.
        # The generated ``__init__`` of a frozen dataclass sets each field
        # through ``object.__setattr__`` and took about twice as long as
        # these setters.
        _set_rule(self, rule)
        _set_conclusion(self, conclusion)
        _set_premises(self, premises)
        _set_principal(self, principal)
        _set_cut_formula(self, cut_formula)

    @property
    def arity(self):
        return len(self.premises)


_set_rule = RuleInstance.rule.__set__
_set_conclusion = RuleInstance.conclusion.__set__
_set_premises = RuleInstance.premises.__set__
_set_principal = RuleInstance.principal.__set__
_set_cut_formula = RuleInstance.cut_formula.__set__


class CalculusError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Instance constructors.  Each builds the premises from the conclusion and
# principal formula, so the instance is correct by construction.


def ax_atom(concl, p):
    if not (isinstance(p, Atom) and p in concl.ant and p in concl.suc):
        raise CalculusError('ax_atom: principal atom must occur on both '
                            'sides of %s' % concl)
    return RuleInstance(_AX_ATOM, concl, (), p)


def ax_bottom(concl):
    if BOT not in concl.ant:
        raise CalculusError('ax_bottom: false must occur in the antecedent '
                            'of %s' % concl)
    return RuleInstance(_AX_BOTTOM, concl, (), BOT)


def ax_general(concl, a):
    if not (a in concl.ant and a in concl.suc):
        raise CalculusError('ax_general: principal formula must occur on '
                            'both sides of %s' % concl)
    return RuleInstance(_AX_GENERAL, concl, (), a)


def imp_r(concl, principal):
    if not (isinstance(principal, Implies) and principal in concl.suc):
        raise CalculusError('imp_r principal %s not in succedent of %s'
                            % (principal, concl))
    prem = Sequent(concl.ant.add(principal.left),
                   concl.suc.remove(principal).add(principal.right))
    return RuleInstance(_IMP_R, concl, (prem,), principal)


def imp_l(concl, principal):
    if not (isinstance(principal, Implies) and principal in concl.ant):
        raise CalculusError('imp_l principal %s not in antecedent of %s'
                            % (principal, concl))
    rest = concl.ant.remove(principal)
    left = Sequent(rest.add(principal.right), concl.suc)
    right = Sequent(rest, concl.suc.add(principal.left))
    return RuleInstance(_IMP_L, concl, (left, right), principal)


def refl(concl, principal):
    if not (isinstance(principal, Box) and principal in concl.ant):
        raise CalculusError('refl principal %s not in antecedent of %s'
                            % (principal, concl))
    prem = Sequent(concl.ant.add(principal.inner), concl.suc)
    return RuleInstance(_REFL, concl, (prem,), principal)


def _box_principal(concl, principal):
    if not (isinstance(principal, Box) and principal in concl.suc):
        raise CalculusError('box principal %s is not a box in the succedent '
                            'of %s' % (principal, concl))


def box_context(concl, pi):
    """The boxed context ``pi`` of a box rule at ``concl``, checked."""
    if not all(isinstance(f, Box) for f in pi):
        raise CalculusError('box context must be boxed: %s' % (pi,))
    if not pi.is_subset(concl.ant):
        raise CalculusError('box context %s not contained in %s' % (pi, concl))
    return pi


def box_inf(concl, principal, pi):
    """The two-premise box rule.  ``pi`` is the multiset of boxed
    antecedent formulas retained in the right premise."""
    pi = box_context(concl, pi)
    _box_principal(concl, principal)
    return _box_inf_at(concl, principal, Sequent(pi, mset(principal.inner)))


def _box_inf_at(concl, principal, right):
    left = Sequent(concl.ant, concl.suc.remove(principal).add(principal.inner))
    return RuleInstance(_BOX_INF, concl, (left, right), principal)


def unfolding(a):
    """[](A -> []A): what the finitary box rule on []A adds to the
    antecedent of its premise."""
    return Box(Implies(a, Box(a)))


def box_grz(concl, principal, pi):
    """The finitary box rule with premise []Pi, [](A -> []A) => A."""
    pi = box_context(concl, pi)
    _box_principal(concl, principal)
    a = principal.inner
    prem = Sequent(pi.add(unfolding(a)), mset(a))
    return RuleInstance(_BOX_GRZ, concl, (prem,), principal)


def cut(concl, cut_formula):
    if cut_formula is None:
        raise CalculusError('cut: needs a cut formula')
    left = Sequent(concl.ant, concl.suc.add(cut_formula))
    right = Sequent(concl.ant.add(cut_formula), concl.suc)
    return RuleInstance(_CUT, concl, (left, right), None, cut_formula)


def _premises(inst, n):
    """The ``n`` recorded premises of ``inst``, which a box step reads its
    boxed context back from."""
    if len(inst.premises) != n:
        raise CalculusError('%s: has %d premises, not %d'
                            % (inst.rule.value, len(inst.premises), n))
    return inst.premises


def _rebuild_box_inf(inst, concl):
    """The box step ``inst`` at ``concl``, keeping its recorded right
    premise  []Pi => A  itself when its succedent is exactly A and
    ``box_context`` accepts []Pi at ``concl``; any other right premise is
    built anew, as ``box_inf`` builds it, so that ``step_violations``
    reports it."""
    right = _premises(inst, 2)[1]
    p = inst.principal
    if not (isinstance(p, Box) and right.suc == (p.inner,)):
        return box_inf(concl, p, right.ant)
    box_context(concl, right.ant)
    _box_principal(concl, p)
    return _box_inf_at(concl, p, right)


def _rebuild_box_grz(inst, concl):
    p = inst.principal
    _box_principal(concl, p)
    trace = mset(unfolding(p.inner))
    return box_grz(concl, p, _premises(inst, 1)[0].ant.difference(trace))


_ALL = tuple(System)
_NWF = tuple(s for s in System if s.is_nwf)
_FINITARY = tuple(s for s in System if s.is_finitary)

# Each rule: the systems that have it, and its step ``inst`` rebuilt at a
# conclusion ``c`` through its constructor.
_RULES = {
    Rule.AX_ATOM: (_NWF, lambda inst, c: ax_atom(c, inst.principal)),
    Rule.AX_BOTTOM: (_ALL, lambda inst, c: ax_bottom(c)),
    Rule.AX_GENERAL: (_FINITARY,
                      lambda inst, c: ax_general(c, inst.principal)),
    Rule.IMP_L: (_ALL, lambda inst, c: imp_l(c, inst.principal)),
    Rule.IMP_R: (_ALL, lambda inst, c: imp_r(c, inst.principal)),
    Rule.REFL: (_ALL, lambda inst, c: refl(c, inst.principal)),
    Rule.BOX_INF: (_NWF, _rebuild_box_inf),
    Rule.BOX_GRZ: (_FINITARY, _rebuild_box_grz),
    Rule.CUT: (tuple(s for s in System if s.allows_cut),
               lambda inst, c: cut(c, inst.cut_formula)),
}

# The rules of both calculi with cut (ax_bottom, imp_l, imp_r, refl, cut):
# the translations carry each such step over, rebuilt by ``reinstance``.
SHARED_RULES = frozenset(r for r, (systems, _) in _RULES.items()
                         if System.GRZ_SEQ_CUT in systems
                         and System.GRZ_INF_CUT in systems)


def reinstance(inst, concl):
    """The step ``inst`` at conclusion ``concl``: the same rule, principal
    formula, cut formula and boxed context, with the premises rebuilt from
    ``concl`` by the rule's constructor.  A step that does not fit its
    rule at ``concl``, or records too few premises to read its context
    from, raises ``CalculusError``."""
    entry = _RULES.get(inst.rule)
    if entry is None:
        raise CalculusError('unknown rule %r' % (inst.rule,))
    return entry[1](inst, concl)


def crossing(rule, k):
    """Is premise ``k`` of a ``rule`` step the right premise of the
    two-premise box rule?  A branch that passes through it infinitely
    often is guarded."""
    return rule is _BOX_INF and k == 1


def fixed_premise(rule, k):
    """Is premise ``k`` of a ``rule`` step independent of the side formulas
    of the conclusion?  So are the right premise of the two-premise box
    rule and the premise of the finitary box rule: both hold only the boxed
    context."""
    return rule is _BOX_GRZ or crossing(rule, k)


# ---------------------------------------------------------------------------
# Validation


def step_violations(inst, system):
    """Reasons why ``inst`` is not a valid step of ``system`` (empty list
    means valid): its rule is not one of ``system``, its constructor
    rejects it at its own conclusion, or its premises, principal formula
    or cut formula are not the ones the constructor builds."""
    entry = _RULES.get(inst.rule)
    if entry is None:
        return ['unknown rule %r' % (inst.rule,)]
    out = []
    if system not in entry[0]:
        out.append('%s: not available in %s'
                   % (inst.rule.value, system.value))
    try:
        canonical = reinstance(inst, inst.conclusion)
    except CalculusError as e:
        out.append(str(e))
        return out
    if canonical.premises != inst.premises:
        out.append('%s: premises %s do not match the rule schema (expected '
                   '%s)' % (inst.rule.value, [str(s) for s in inst.premises],
                            [str(s) for s in canonical.premises]))
    for field, got, expected in (
            ('principal', inst.principal, canonical.principal),
            ('cut_formula', inst.cut_formula, canonical.cut_formula)):
        if got != expected:
            out.append('%s: %s %s does not match the rule schema (expected '
                       '%s)' % (inst.rule.value, field, got, expected))
    return out
