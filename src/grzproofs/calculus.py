"""Sequent calculus rules for Grz: rule instances and step validation.

Four systems are supported:

* ``GRZ_SEQ``      -- the finitary calculus with general axioms and the
                      box rule whose premise carries [](A -> []A);
* ``GRZ_SEQ_CUT``  -- the same plus cut;
* ``GRZ_INF``      -- the non-well-founded calculus with atomic axioms and
                      the two-premise box rule;
* ``GRZ_INF_CUT``  -- the same plus cut.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .syntax import (
    Atom, Box, Implies, BOT, Multiset, Sequent, Formula, mset,
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
    AX_ATOM = 'ax_atom'
    AX_BOTTOM = 'ax_bottom'
    AX_GENERAL = 'ax_general'
    IMP_L = 'imp_l'
    IMP_R = 'imp_r'
    REFL = 'refl'
    BOX_INF = 'box_inf'
    BOX_GRZ = 'box_grz'
    CUT = 'cut'


AXIOM_RULES = (Rule.AX_ATOM, Rule.AX_BOTTOM, Rule.AX_GENERAL)


@dataclass(frozen=True, slots=True)
class RuleInstance:
    """One rule application: conclusion, premises in left-to-right order,
    and the principal formula (the cut formula for cut)."""
    rule: Rule
    conclusion: Sequent
    premises: tuple = ()
    principal: Formula = None
    cut_formula: Formula = None

    @property
    def arity(self):
        return len(self.premises)


class CalculusError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Instance constructors.  Each builds the premises from the conclusion and
# principal formula, so the instance is correct by construction.


def ax_atom(concl, p):
    if not (isinstance(p, Atom) and p in concl.ant and p in concl.suc):
        raise CalculusError('ax_atom needs a shared atom: %s' % concl)
    return RuleInstance(Rule.AX_ATOM, concl, (), p)


def ax_bottom(concl):
    if BOT not in concl.ant:
        raise CalculusError('ax_bottom needs false on the left: %s' % concl)
    return RuleInstance(Rule.AX_BOTTOM, concl, (), BOT)


def ax_general(concl, a):
    if not (a in concl.ant and a in concl.suc):
        raise CalculusError('ax_general needs a shared formula: %s' % concl)
    return RuleInstance(Rule.AX_GENERAL, concl, (), a)


def imp_r(concl, principal):
    if not (isinstance(principal, Implies) and principal in concl.suc):
        raise CalculusError('imp_r principal %s not in succedent of %s'
                            % (principal, concl))
    prem = Sequent(concl.ant.add(principal.left),
                   concl.suc.remove(principal).add(principal.right))
    return RuleInstance(Rule.IMP_R, concl, (prem,), principal)


def imp_l(concl, principal):
    if not (isinstance(principal, Implies) and principal in concl.ant):
        raise CalculusError('imp_l principal %s not in antecedent of %s'
                            % (principal, concl))
    rest = concl.ant.remove(principal)
    left = Sequent(rest.add(principal.right), concl.suc)
    right = Sequent(rest, concl.suc.add(principal.left))
    return RuleInstance(Rule.IMP_L, concl, (left, right), principal)


def refl(concl, principal):
    if not (isinstance(principal, Box) and principal in concl.ant):
        raise CalculusError('refl principal %s not in antecedent of %s'
                            % (principal, concl))
    prem = Sequent(concl.ant.add(principal.inner), concl.suc)
    return RuleInstance(Rule.REFL, concl, (prem,), principal)


def _box_principal(concl, principal):
    if not (isinstance(principal, Box) and principal in concl.suc):
        raise CalculusError('box principal %s not in succedent of %s'
                            % (principal, concl))


def box_context(concl, pi):
    """The boxed context ``pi`` of a box rule at ``concl``, checked.  The
    box steps at one conclusion with one context can share the check."""
    if not isinstance(pi, Multiset):
        pi = Multiset(pi)
    if not all(isinstance(f, Box) for f in pi):
        raise CalculusError('box context must be boxed: %s' % pi)
    if not pi.is_subset(concl.ant):
        raise CalculusError('box context %s not contained in %s' % (pi, concl))
    return pi


def box_inf(concl, principal, pi):
    """The two-premise box rule.  ``pi`` is the multiset of boxed
    antecedent formulas retained in the right premise."""
    return box_inf_step(concl, principal, box_context(concl, pi))


def box_inf_step(concl, principal, pi):
    """``box_inf`` with a context ``pi`` that ``box_context`` returned."""
    _box_principal(concl, principal)
    a = principal.inner
    left = Sequent(concl.ant, concl.suc.remove(principal).add(a))
    right = Sequent(pi, mset(a))
    return RuleInstance(Rule.BOX_INF, concl, (left, right), principal)


def box_grz(concl, principal, pi):
    """The finitary box rule with premise []Pi, [](A -> []A) => A."""
    pi = box_context(concl, pi)
    _box_principal(concl, principal)
    a = principal.inner
    prem = Sequent(pi.add(Box(Implies(a, principal))), mset(a))
    return RuleInstance(Rule.BOX_GRZ, concl, (prem,), principal)


def cut(concl, cut_formula):
    left = Sequent(concl.ant, concl.suc.add(cut_formula))
    right = Sequent(concl.ant.add(cut_formula), concl.suc)
    return RuleInstance(Rule.CUT, concl, (left, right), None, cut_formula)


# Rules whose step is fixed by its conclusion and principal formula.
_BY_PRINCIPAL = {Rule.IMP_R: imp_r, Rule.IMP_L: imp_l, Rule.REFL: refl}


def reinstance(inst, concl):
    """The step ``inst`` at conclusion ``concl``: the same rule, principal
    formula, cut formula and boxed context, with the premises rebuilt from
    ``concl``.  Axioms are rebuilt unchecked."""
    r = inst.rule
    p = inst.principal
    if r in AXIOM_RULES:
        return RuleInstance(r, concl, (), p)
    if r == Rule.CUT:
        return cut(concl, inst.cut_formula)
    if r == Rule.BOX_INF:
        return box_inf(concl, p, inst.premises[1].ant)
    if r == Rule.BOX_GRZ:
        return box_grz(concl, p, inst.premises[0].ant.difference(
            mset(Box(Implies(p.inner, p)))))
    return _BY_PRINCIPAL[r](concl, p)


def fixed_premise(rule, k):
    """Is premise ``k`` of a ``rule`` step independent of the side formulas
    of the conclusion?  So are the right premise of the two-premise box
    rule and the premise of the finitary box rule: both hold only the boxed
    context."""
    return rule == Rule.BOX_GRZ or (rule == Rule.BOX_INF and k == 1)


# ---------------------------------------------------------------------------
# Validation


def step_violations(inst, system):
    """Reasons why ``inst`` is not a valid step of ``system`` (empty list
    means valid)."""
    out = []
    c = inst.conclusion
    r = inst.rule
    p = inst.principal

    def bad(msg):
        out.append('%s: %s' % (r.value, msg))

    if r == Rule.AX_ATOM:
        if not system.is_nwf:
            bad('atomic axiom not available in a finitary system')
        if inst.premises:
            bad('axiom must have no premises')
        if not (isinstance(p, Atom) and p in c.ant and p in c.suc):
            bad('principal atom must occur on both sides')
        return out
    if r == Rule.AX_BOTTOM:
        if inst.premises:
            bad('axiom must have no premises')
        if BOT not in c.ant:
            bad('false must occur in the antecedent')
        return out
    if r == Rule.AX_GENERAL:
        if not system.is_finitary:
            bad('general axiom not available in a non-well-founded system')
        if inst.premises:
            bad('axiom must have no premises')
        if p is None or p not in c.ant or p not in c.suc:
            bad('principal formula must occur on both sides')
        return out
    if r == Rule.BOX_INF:
        if not system.is_nwf:
            bad('two-premise box rule not available in a finitary system')
        if len(inst.premises) != 2:
            bad('box needs two premises')
            return out
    elif r == Rule.BOX_GRZ:
        if not system.is_finitary:
            bad('one-premise box rule not available here')
        if len(inst.premises) != 1:
            bad('box needs one premise')
            return out
        if not isinstance(p, Box):
            bad('principal must be boxed')
            return out
    elif r == Rule.CUT:
        if not system.allows_cut:
            bad('cut not available in %s' % system.value)
        if inst.cut_formula is None:
            bad('cut needs a cut formula')
            return out
    elif r not in _BY_PRINCIPAL:
        bad('unknown rule')
        return out
    try:
        canonical = reinstance(inst, c)
    except CalculusError as e:
        out.append(str(e))
        return out
    if canonical.premises != inst.premises:
        out.append('%s: premises %s do not match the rule schema (expected '
                   '%s)' % (r.value, [str(s) for s in inst.premises],
                            [str(s) for s in canonical.premises]))
    return out


def check_step(inst, system):
    return not step_violations(inst, system)


def applicable_instances(goal, system):
    """All backward-applicable rule instances with conclusion ``goal``, up
    to the choice of principal occurrence.  Box rules are enumerated with
    the maximal boxed context.  Cut is not enumerated (its cut formula is
    unconstrained)."""
    out = []
    if system.is_nwf:
        for a in goal.ant.distinct():
            if isinstance(a, Atom) and a in goal.suc:
                out.append(ax_atom(goal, a))
    else:
        for a in goal.ant.distinct():
            if a in goal.suc:
                out.append(ax_general(goal, a))
    if BOT in goal.ant:
        out.append(ax_bottom(goal))
    for a in goal.suc.distinct():
        if isinstance(a, Implies):
            out.append(imp_r(goal, a))
    for a in goal.ant.distinct():
        if isinstance(a, Implies):
            out.append(imp_l(goal, a))
        elif isinstance(a, Box):
            out.append(refl(goal, a))
    boxed = goal.boxed_ant()
    for a in goal.suc.distinct():
        if isinstance(a, Box):
            if system.is_nwf:
                out.append(box_inf(goal, a, boxed))
            else:
                out.append(box_grz(goal, a, boxed))
    return out
