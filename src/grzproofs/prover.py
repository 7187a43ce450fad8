"""Decision procedure for Grz: backward proof search producing cut-free
cyclic proofs, cross-checked by a finite Kripke-model oracle.

The search applies invertible rules eagerly (ImpR, then ImpL), unfolds each
boxed antecedent formula once per branch segment via Refl (tracked by
saturation flags), and then tries the box rule for each boxed succedent
formula with the maximal set-like boxed context.  Box right premises are
recorded in a per-branch history; when one repeats an ancestor entry with
another crossing strictly in between, the branch closes with a back-link.

Countermodels come from exhaustive enumeration of finite reflexive partial
orders (Grz frames: finiteness rules out infinite ascending chains), not
from failed search branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .syntax import (
    Atom, Bottom, Box, Implies, BOT, Multiset, Sequent, EMPTY, mset,
    sequent_to_formula,
)
from .calculus import (
    System, ax_atom, ax_bottom, imp_r, imp_l, refl, box_inf,
)
from .proofs import CyclicProof, CyclicNode, _crossing_child


class ProverError(Exception):
    pass


class SearchLimitError(ProverError):
    """Raised when search exceeds its configured crossing bound."""


# ---------------------------------------------------------------------------
# Kripke models


@dataclass(frozen=True)
class KripkeModel:
    """A finite reflexive poset with a valuation.  ``order[w]`` is the
    bitmask of worlds v with w <= v; ``valuation[name]`` is the bitmask of
    worlds where the atom holds."""
    size: int
    order: tuple
    valuation: tuple  # sorted tuple of (name, bitmask)

    def __post_init__(self):
        n = self.size
        for w in range(n):
            if not self.order[w] & (1 << w):
                raise ValueError('order not reflexive at world %d' % w)
            for v in range(n):
                if self.order[w] & (1 << v):
                    if v != w and self.order[v] & (1 << w):
                        raise ValueError('order not antisymmetric')
                    if self.order[v] & ~self.order[w]:
                        raise ValueError('order not transitive')

    def val(self, name):
        for k, mask in self.valuation:
            if k == name:
                return mask
        return 0

    def describe(self):
        return {
            'worlds': self.size,
            'order': [[v for v in range(self.size)
                       if self.order[w] & (1 << v)]
                      for w in range(self.size)],
            'valuation': {k: [w for w in range(self.size)
                              if mask & (1 << w)]
                          for k, mask in self.valuation},
        }


def truth_mask(model, f):
    """Bitmask of worlds satisfying ``f``."""
    full = (1 << model.size) - 1
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Atom):
        return model.val(f.name)
    if isinstance(f, Implies):
        return (full & ~truth_mask(model, f.left)) | truth_mask(model, f.right)
    inner = truth_mask(model, f.inner)
    mask = 0
    for w in range(model.size):
        if model.order[w] & ~inner == 0:
            mask |= 1 << w
    return mask


def eval_formula(model, world, f):
    return bool(truth_mask(model, f) & (1 << world))


@lru_cache(maxsize=None)
def enumerate_orders(n):
    """All reflexive partial orders on n worlds, up to isomorphism.
    Each order is a tuple of successor bitmasks."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        order = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits & (1 << k):
                order[i] |= 1 << j
        ok = True
        for i in range(n):
            for j in range(n):
                if order[i] & (1 << j):
                    if i != j and order[j] & (1 << i):
                        ok = False
                        break
                    if order[j] & ~order[i]:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            continue
        canon = min(
            tuple(sorted(_relabel(order, perm)))
            for perm in itertools.permutations(range(n)))
        if canon in seen:
            continue
        seen.add(canon)
        out.append(tuple(order))
    return tuple(out)


def _relabel(order, perm):
    n = len(order)
    new = [0] * n
    for i in range(n):
        m = 0
        for j in range(n):
            if order[i] & (1 << j):
                m |= 1 << perm[j]
        new[perm[i]] = m
    return new


def _goal_atoms(goal):
    names = set()
    stack = list(goal.formulas())
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            names.add(f.name)
        elif isinstance(f, Implies):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, Box):
            stack.append(f.inner)
    return sorted(names)


def find_countermodel(goal, max_size=4):
    """Search finite reflexive posets of up to ``max_size`` worlds for a
    world falsifying the formula reading of ``goal``.  Frames are
    enumerated up to isomorphism (exhaustive for validity checking, since
    satisfaction is isomorphism-invariant)."""
    if not isinstance(goal, Sequent):
        goal = Sequent(EMPTY, mset(goal))
    f = sequent_to_formula(goal)
    atoms = _goal_atoms(goal)
    for n in range(1, max_size + 1):
        full = (1 << n) - 1
        for order in enumerate_orders(n):
            for vals in itertools.product(range(1 << n), repeat=len(atoms)):
                model = KripkeModel(n, order,
                                    tuple(zip(atoms, vals)))
                mask = truth_mask(model, f)
                if mask != full:
                    for w in range(n):
                        if not mask & (1 << w):
                            return model, w
    return None


# ---------------------------------------------------------------------------
# Proof search


@dataclass
class _SNode:
    sequent: Sequent
    inst: object = None       # RuleInstance, or None for a back-link leaf
    children: tuple = ()
    backlink: int = None      # index into the branch history


@dataclass(frozen=True)
class Verdict:
    proof: CyclicProof = None
    countermodel: tuple = None  # (KripkeModel, world)

    @property
    def is_proof(self):
        return self.proof is not None


def _search(s, refl_done, history, max_crossings):
    if BOT in s.ant:
        return _SNode(s, ax_bottom(s))
    for f in s.ant.distinct():
        if isinstance(f, Atom) and f in s.suc:
            return _SNode(s, ax_atom(s, f))
    for f in s.suc.distinct():
        if isinstance(f, Implies):
            inst = imp_r(s, f)
            sub = _search(inst.premises[0], refl_done, history, max_crossings)
            return sub and _SNode(s, inst, (sub,))
    for f in s.ant.distinct():
        if isinstance(f, Implies):
            inst = imp_l(s, f)
            left = _search(inst.premises[0], refl_done, history,
                           max_crossings)
            if left is None:
                return None
            right = _search(inst.premises[1], refl_done, history,
                            max_crossings)
            return right and _SNode(s, inst, (left, right))
    for f in s.ant.distinct():
        if isinstance(f, Box) and f not in refl_done and f.inner not in s.ant:
            inst = refl(s, f)
            sub = _search(inst.premises[0], refl_done | {f}, history,
                          max_crossings)
            return sub and _SNode(s, inst, (sub,))
    boxed = s.boxed_ant().dedupe()
    for f in s.suc.distinct():
        if not isinstance(f, Box):
            continue
        inst = box_inf(s, f, boxed)
        left = _search(inst.premises[0], refl_done, history, max_crossings)
        if left is None:
            continue
        target_seq = inst.premises[1]
        target = None
        for j in range(len(history) - 2, -1, -1):
            if history[j] == target_seq:
                target = j
                break
        if target is not None:
            right = _SNode(target_seq, None, (), target)
        else:
            if len(history) + 1 > max_crossings:
                raise SearchLimitError(
                    'exceeded %d box crossings at %s' % (max_crossings, s))
            right = _search(target_seq, frozenset(),
                            history + (target_seq,), max_crossings)
            if right is None:
                continue
        return _SNode(s, inst, (left, right))
    return None


def _to_cyclic(snode):
    nodes = {}
    backlinks = {}
    counter = [0]

    def build(sn, crossing_ids):
        i = counter[0]
        counter[0] += 1
        if sn.inst is None:
            nodes[i] = CyclicNode(i, sn.sequent, None, ())
            backlinks[i] = crossing_ids[sn.backlink]
            return i
        kids = []
        for k, ch in enumerate(sn.children):
            if _crossing_child(sn.inst.rule, k) and ch.inst is not None:
                # A fresh crossing: its id joins the branch history.
                ci = counter[0]
                kids.append(build(ch, crossing_ids + (ci,)))
            else:
                kids.append(build(ch, crossing_ids))
        nodes[i] = CyclicNode(i, sn.sequent, sn.inst, tuple(kids))
        return i

    root = build(snode, ())
    return CyclicProof(nodes, root, backlinks, System.GRZ_INF)


def decide(goal, max_crossings=64, max_model_size=4):
    """Decide a sequent: a cut-free cyclic proof, or a countermodel.

    Raises ``ProverError`` if neither is found (which would indicate a
    completeness failure at the configured model size).
    """
    if not isinstance(goal, Sequent):
        goal = Sequent(EMPTY, mset(goal))
    sn = _search(goal, frozenset(), (), max_crossings)
    if sn is not None:
        return Verdict(proof=_to_cyclic(sn))
    cm = find_countermodel(goal, max_model_size)
    if cm is None:
        raise ProverError('search failed on %s but the oracle found no '
                          'countermodel up to size %d'
                          % (goal, max_model_size))
    return Verdict(countermodel=cm)
