"""Lyndon interpolant extraction from cut-free cyclic proofs.

The root sequent is split into two parts Gamma1, Gamma2 => Delta1, Delta2
and the extraction walks the (unraveled) proof, maintaining the split and
two sets Lambda1 / Lambda2 of box contents already crossed on each side.
A box crossing on a fresh content A descends into the right premise with
A added to the owning side's Lambda and prefixes the sub-interpolant with
[] (when []A sits in Delta2) or <> (when it sits in Delta1); a crossing on
a recorded content stays in the left premise, which keeps the recursion
finite on cyclic proofs.

The result satisfies the signed variable condition: atoms positive in the
interpolant occur negatively in Gamma1 => Delta1 and positively in
Gamma2 => Delta2, and dually for negative atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Box, Implies, BOT, TOP, Multiset, Sequent, EMPTY, mset,
    neg, diamond, atom_polarities,
)
from .calculus import Rule
from .proofs import unravel, check_cyclic
from .transforms import _trace_context


class InterpolationError(ValueError):
    pass


class NotATheoremError(InterpolationError):
    def __init__(self, message, countermodel=None):
        super().__init__(message)
        self.countermodel = countermodel


@dataclass(frozen=True)
class SplitSequent:
    """A sequent partitioned into two parts; merging the parts must
    reproduce the proof's root sequent as multisets."""
    gamma1: Multiset
    delta1: Multiset
    gamma2: Multiset
    delta2: Multiset

    def merged(self):
        return Sequent(self.gamma1.union(self.gamma2),
                       self.delta1.union(self.delta2))


@dataclass(frozen=True)
class InterpolationResult:
    interpolant: 'Formula'
    left_obligation: Sequent   # Lam1*, Gamma1 => Delta1, I
    right_obligation: Sequent  # Lam2*, I, Gamma2 => Delta2


def sequent_polarity(gamma, delta):
    """Atoms occurring positively / negatively in the formula reading of
    gamma => delta (antecedent occurrences flip)."""
    pos, negs = set(), set()
    for f in gamma:
        for name, pols in atom_polarities(f).items():
            if '+' in pols:
                negs.add(name)
            if '-' in pols:
                pos.add(name)
    for f in delta:
        for name, pols in atom_polarities(f).items():
            if '+' in pols:
                pos.add(name)
            if '-' in pols:
                negs.add(name)
    return pos, negs


def interpolate(proof, split, lambda1=frozenset(), lambda2=frozenset()):
    """Extract an interpolant from a cut-free cyclic proof whose root is
    the merge of ``split``."""
    report = check_cyclic(proof)
    if not report.ok:
        raise InterpolationError('invalid proof: %s' % report.violations[:3])
    for n in proof.nodes.values():
        if n.inst is not None and n.inst.rule == Rule.CUT:
            raise InterpolationError('proof contains cut')
    root = unravel(proof)
    if split.merged() != root.root:
        raise InterpolationError('split %s does not cover the root %s'
                                 % (split.merged(), root.root))
    lambda1, lambda2 = frozenset(lambda1), frozenset(lambda2)
    i = _interp(root, split.gamma1, split.delta1, split.gamma2, split.delta2,
                lambda1, lambda2, {})
    return InterpolationResult(
        interpolant=i,
        left_obligation=Sequent(
            _trace_context(lambda1).union(split.gamma1),
            split.delta1.add(i)),
        right_obligation=Sequent(
            _trace_context(lambda2).union(split.gamma2).add(i),
            split.delta2))


def _interp(q, g1, d1, g2, d2, lam1, lam2, memo):
    key = (id(q), g1, d1, g2, d2, lam1, lam2)
    out = memo.get(key)
    if out is not None:
        return out
    inst = q.inst
    r = inst.rule
    pr = inst.principal
    if r == Rule.AX_BOTTOM:
        out = BOT if BOT in g1 else TOP
    elif r == Rule.AX_ATOM:
        if pr in g1 and pr in d1:
            out = BOT
        elif pr in g2 and pr in d2:
            out = TOP
        elif pr in g1:
            out = pr
        else:
            out = neg(pr)
    elif r == Rule.IMP_R:
        if pr in d1:
            out = _interp(q.child(0), g1.add(pr.left),
                          d1.remove(pr).add(pr.right), g2, d2,
                          lam1, lam2, memo)
        else:
            out = _interp(q.child(0), g1, d1, g2.add(pr.left),
                          d2.remove(pr).add(pr.right), lam1, lam2, memo)
    elif r == Rule.IMP_L:
        if pr in g1:
            i0 = _interp(q.child(0), g1.remove(pr).add(pr.right), d1,
                         g2, d2, lam1, lam2, memo)
            i1 = _interp(q.child(1), g1.remove(pr), d1.add(pr.left),
                         g2, d2, lam1, lam2, memo)
            out = Implies(neg(i0), i1)          # i0 | i1
        else:
            i0 = _interp(q.child(0), g1, d1,
                         g2.remove(pr).add(pr.right), d2, lam1, lam2, memo)
            i1 = _interp(q.child(1), g1, d1,
                         g2.remove(pr), d2.add(pr.left), lam1, lam2, memo)
            out = neg(Implies(i0, neg(i1)))     # i0 & i1
    elif r == Rule.REFL:
        if pr in g1:
            out = _interp(q.child(0), g1.add(pr.inner), d1, g2, d2,
                          lam1, lam2, memo)
        else:
            out = _interp(q.child(0), g1, d1, g2.add(pr.inner), d2,
                          lam1, lam2, memo)
    elif r == Rule.BOX_INF:
        a = pr.inner
        side1 = pr in d1
        lam = lam1 if side1 else lam2
        if a in lam:
            # Crossed on this content before: stay in the main fragment.
            if side1:
                out = _interp(q.child(0), g1, d1.remove(pr).add(a),
                              g2, d2, lam1, lam2, memo)
            else:
                out = _interp(q.child(0), g1, d1,
                              g2, d2.remove(pr).add(a), lam1, lam2, memo)
        else:
            pi = inst.premises[1].ant
            pi1_items = []
            pi2_items = []
            avail = {f: g1.count(f) for f in pi.distinct()}
            for f in pi:
                if avail.get(f, 0) > 0:
                    avail[f] -= 1
                    pi1_items.append(f)
                else:
                    pi2_items.append(f)
            pi1, pi2 = Multiset(pi1_items), Multiset(pi2_items)
            if side1:
                sub = _interp(q.child(1), pi1, mset(a), pi2, EMPTY,
                              frozenset(lam1 | {a}), lam2, memo)
                out = diamond(sub)
            else:
                sub = _interp(q.child(1), pi1, EMPTY, pi2, mset(a),
                              lam1, frozenset(lam2 | {a}), memo)
                out = Box(sub)
    else:
        raise InterpolationError('unexpected %s step' % r.value)
    memo[key] = out
    return out


def lyndon(a, b, max_crossings=64, max_model_size=4):
    """Interpolate a provable implication A -> B: prove A => B, extract,
    and verify both the signed variable inclusions and the obligations
    A => I and I => B with the prover."""
    from .prover import decide

    goal = Sequent(mset(a), mset(b))
    verdict = decide(goal, max_crossings, max_model_size)
    if not verdict.is_proof:
        raise NotATheoremError('%s is not provable' % goal,
                               countermodel=verdict.countermodel)
    split = SplitSequent(mset(a), EMPTY, EMPTY, mset(b))
    result = interpolate(verdict.proof, split)
    i = result.interpolant

    ipol = atom_polarities(i)
    apol, bpol = atom_polarities(a), atom_polarities(b)
    for name, pols in ipol.items():
        for s in pols:
            if s not in apol.get(name, set()) or s not in bpol.get(name, set()):
                raise InterpolationError(
                    'polarity violation: %s occurs %s in interpolant %s but '
                    'not in both %s and %s' % (name, s, i, a, b))
    for obligation in (Sequent(mset(a), mset(i)), Sequent(mset(i), mset(b))):
        v = decide(obligation, max_crossings, max_model_size)
        if not v.is_proof:
            raise InterpolationError('obligation %s is not provable'
                                     % obligation)
    return result
