"""Lyndon interpolant extraction from cut-free cyclic proofs.

The root sequent is split into two parts Gamma1, Gamma2 => Delta1, Delta2
and the extraction walks the cyclic proof by node id, reading each
back-link leaf as its target.  It maintains the split and two sets
Lambda1 / Lambda2 of box contents already crossed on each side, both empty
at the root.  Each rule has one case: the part that holds the
principal formula is edited, into the premises that ``calculus.reinstance``
builds at that part, and where the two sides differ, the side's index
picks the constructor (| or & at an ImpL step).  A box crossing on
a fresh content A descends into the right premise with A added to the
owning side's Lambda and prefixes the sub-interpolant with <> (when []A
sits in Delta1) or [] (when it sits in Delta2); a crossing on a recorded
content stays in the left premise, which keeps the recursion finite on
cyclic proofs.

The result satisfies the signed variable condition: atoms positive in the
interpolant occur negatively in Gamma1 => Delta1 and positively in
Gamma2 => Delta2, and dually for negative atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Box, BOT, TOP, Multiset, Sequent, EMPTY, mset,
    neg, conj, disj, diamond, atom_polarities,
)
from .calculus import (
    reinstance, box_inf,
    _AX_ATOM, _AX_BOTTOM, _IMP_L, _IMP_R, _REFL, _BOX_INF, _CUT,
)
from .proofs import check_cyclic
from .prover import decide, provable


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
    """An interpolant I of a split root sequent and the two sequents it
    must satisfy, each provable when I is right."""
    interpolant: 'Formula'
    left_obligation: Sequent   # Gamma1 => Delta1, I
    right_obligation: Sequent  # I, Gamma2 => Delta2


def interpolate(proof, split):
    """Extract an interpolant I from a cut-free cyclic proof whose root is
    the merge of ``split``: the obligations are  Gamma1 => Delta1, I  and
    I, Gamma2 => Delta2."""
    report = check_cyclic(proof)
    if not report.ok:
        raise InterpolationError('invalid proof: %s' % report.violations[:3])
    for n in proof.nodes.values():
        if n.inst is not None and n.inst.rule is _CUT:
            raise InterpolationError('proof contains cut')
    root = proof.nodes[proof.root].sequent
    if split.merged() != root:
        raise InterpolationError('split %s does not cover the root %s'
                                 % (split.merged(), root))
    none = frozenset()
    i = _interp(proof, proof.root, (Sequent(split.gamma1, split.delta1),
                                    Sequent(split.gamma2, split.delta2)),
                (none, none), {})
    return InterpolationResult(
        interpolant=i,
        left_obligation=Sequent(split.gamma1, split.delta1.add(i)),
        right_obligation=Sequent(split.gamma2.add(i), split.delta2))


# The rules with premises, and those of them whose principal formula is
# in the succedent.
_INNER_RULES = (_IMP_R, _IMP_L, _REFL, _BOX_INF)
_SUCCEDENT_RULES = (_IMP_R, _BOX_INF)


def _interp(proof, i, sides, lams, memo):
    """The interpolant of node ``i`` of ``proof`` under the split
    ``sides``, the pair of sequents Gamma1 => Delta1 and Gamma2 => Delta2,
    and the crossed box contents ``lams``, the pair (Lambda1, Lambda2).  A
    back-link leaf is read as its target, which ``check_cyclic`` has found
    to be a rule node with the same sequent, so a node id reached again
    under the same split and contents is answered from ``memo``.  The walk
    builds no proof node, so nothing it makes outlives the call."""
    i = proof.backlinks.get(i, i)
    key = (i, sides, lams)
    out = memo.get(key)
    if out is not None:
        return out
    g1, d1 = sides[0].ant, sides[0].suc
    node = proof.nodes[i]
    inst = node.inst
    r = inst.rule
    pr = inst.principal
    if r is _AX_BOTTOM:
        out = BOT if BOT in g1 else TOP
    elif r is _AX_ATOM:
        if pr in g1 and pr in d1:
            out = BOT
        elif pr in sides[1].ant and pr in sides[1].suc:
            out = TOP
        elif pr in g1:
            out = pr
        else:
            out = neg(pr)
    elif r not in _INNER_RULES:
        raise InterpolationError('unexpected %s step' % r.value)
    else:
        # The part that holds the principal formula: sides[False] is
        # Gamma1 => Delta1, sides[True] is Gamma2 => Delta2.
        side = pr not in (d1 if r in _SUCCEDENT_RULES else g1)
        part = sides[side]
        if r is _BOX_INF and pr.inner not in lams[side]:
            # A fresh crossing: the boxed context goes to the left part as
            # far as Gamma1 holds it, the rest to the right part, and A is
            # the succedent of its side and joins that side's Lambda.
            a = pr.inner
            pi = inst.premises[1].ant
            right = pi.difference(g1)
            above = [Sequent(pi.difference(right), EMPTY),
                     Sequent(right, EMPTY)]
            above[side] = Sequent(above[side].ant, mset(a))
            crossed = list(lams)
            crossed[side] = lams[side] | {a}
            out = (diamond, Box)[side](_interp(
                proof, node.children[1], tuple(above), tuple(crossed),
                memo))
        else:
            if r is _BOX_INF:
                # Crossed on this content before: stay in the main fragment.
                parts = box_inf(part, pr, EMPTY).premises[:1]
            else:
                parts = reinstance(inst, part).premises
            other = sides[not side]
            subs = []
            for k, above in enumerate(parts):
                subs.append(_interp(
                    proof, node.children[k],
                    (other, above) if side else (above, other), lams, memo))
            out = subs[0] if len(subs) == 1 else (disj, conj)[side](*subs)
    memo[key] = out
    return out


def lyndon(a, b, max_crossings=64, max_model_size=4):
    """Interpolate a provable implication A -> B: prove A => B, extract,
    and verify both the signed variable inclusions and the obligations
    A => I and I => B by proof search, which builds no proof of them."""
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
        if not provable(obligation, max_crossings):
            raise InterpolationError('obligation %s is not provable'
                                     % obligation)
    return result
