"""Decision procedure for Grz: backward proof search producing cut-free
cyclic proofs, cross-checked by a finite Kripke-model oracle.

The search applies invertible rules eagerly (ImpR, then ImpL), unfolds each
boxed antecedent formula once per branch segment via Refl (tracked by
saturation flags), and then tries the box rule for each boxed succedent
formula with the maximal set-like boxed context.  Box right premises are
recorded in a per-branch history; when one repeats an ancestor entry with
another crossing strictly in between, the branch closes with a back-link.

The box rule is the only choice point, so only the box stage can meet a
search state twice.  Its results, proofs and failures alike, are tabled
for the length of one ``decide`` call, keyed by (sequent, set of
``refl``-saturated formulas, branch history): a result depends on nothing
else.  So on ``=> []q1, ..., []qn`` search visits each subset of the box
choices once, and its cost grows exponentially in n, not factorially.

Each search step classifies its sequent in one pass over each side, as
multisets list their formulas grouped by kind.  The table key is hashed
once: a sequent keeps its hash once worked out, and the branch history
carries the hashes of its entries and its own.

Countermodels come from exhaustive enumeration of finite reflexive partial
orders (Grz frames: finiteness rules out infinite ascending chains), not
from failed search branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .syntax import (
    Atom, Bottom, Box, Implies, Sequent, EMPTY, mset, sequent_to_formula,
    _canonical,
)
from .calculus import (
    System, ax_atom, ax_bottom, imp_r, imp_l, refl, box_inf,
)
from .proofs import CyclicProof, _crossing_child, _cyclic_node


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


@dataclass(slots=True)
class _SNode:
    sequent: Sequent
    inst: object = None       # RuleInstance, or None for a back-link leaf
    children: tuple = ()
    backlink: int = None      # index into the branch history


class _History:
    """The box right premises on a branch, oldest first, and their hashes.
    Its own hash, part of every box-stage table key, is that of the hashes:
    worked out once as the branch grows, without a call per sequent."""

    __slots__ = ('sequents', 'hashes', '_hash')

    def __init__(self, sequents=(), hashes=()):
        self.sequents = sequents
        self.hashes = hashes
        self._hash = hash(hashes)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.sequents == other.sequents

    def __len__(self):
        return len(self.sequents)

    def extend(self, s):
        return _History(self.sequents + (s,), self.hashes + (hash(s),))

    def backlink(self, s):
        """The position of the newest entry equal to ``s``, leaving out the
        newest entry of all, or None."""
        h = hash(s)
        if h in self.hashes:
            seqs, hashes = self.sequents, self.hashes
            for i in range(len(seqs) - 2, -1, -1):
                if hashes[i] == h and seqs[i] == s:
                    return i
        return None


@dataclass(frozen=True)
class Verdict:
    proof: CyclicProof = None
    countermodel: tuple = None  # (KripkeModel, world)

    @property
    def is_proof(self):
        return self.proof is not None


def _search(s, refl_done, history, max_crossings, table):
    # A multiset lists falsity first, then atoms, then implications, then
    # boxes.  So one pass over each side, stopping at the first formula of
    # a later kind, finds what the rules need, in the order they are tried.
    ant, suc = s.ant.items, s.suc.items
    k = 0       # the number of antecedent atoms
    for f in ant:
        t = type(f)
        if t is Atom:
            if f in suc:
                return _SNode(s, ax_atom(s, f))
        elif t is Bottom:
            return _SNode(s, ax_bottom(s))
        else:
            break
        k += 1
    j = 0       # the number of succedent formulas before the boxes
    for f in suc:
        t = type(f)
        if t is Implies:
            inst = imp_r(s, f)
            sub = _search(inst.premises[0], refl_done, history,
                          max_crossings, table)
            return sub and _SNode(s, inst, (sub,))
        if t is Box:
            break
        j += 1
    if k < len(ant) and type(ant[k]) is Implies:
        inst = imp_l(s, ant[k])
        left = _search(inst.premises[0], refl_done, history,
                       max_crossings, table)
        if left is None:
            return None
        right = _search(inst.premises[1], refl_done, history,
                        max_crossings, table)
        return right and _SNode(s, inst, (left, right))
    # What follows on either side is its boxes.
    boxes = ant[k:]
    for f in boxes:
        if f not in refl_done and f.inner not in ant:
            inst = refl(s, f)
            sub = _search(inst.premises[0], refl_done | {f}, history,
                          max_crossings, table)
            return sub and _SNode(s, inst, (sub,))
    # The box stage.  Only box choices reach a state twice, and the result
    # is a function of the key alone, so it is looked up and stored here,
    # in a cell, so that the key is hashed once.
    cell = table.setdefault((s, refl_done, history), [])
    if cell:
        return cell[0]
    found = None
    boxed = _canonical(tuple(dict.fromkeys(boxes)))
    for f in dict.fromkeys(suc[j:]):
        inst = box_inf(s, f, boxed)
        left = _search(inst.premises[0], refl_done, history, max_crossings,
                       table)
        if left is None:
            continue
        target_seq = inst.premises[1]
        target = history.backlink(target_seq)
        if target is not None:
            right = _SNode(target_seq, None, (), target)
        else:
            if len(history) + 1 > max_crossings:
                raise SearchLimitError(
                    'exceeded %d box crossings at %s' % (max_crossings, s))
            right = _search(target_seq, frozenset(),
                            history.extend(target_seq), max_crossings, table)
            if right is None:
                continue
        found = _SNode(s, inst, (left, right))
        break
    cell.append(found)
    return found


def _to_cyclic(snode):
    """The cyclic proof of a search result, its nodes numbered in preorder.
    Search shares a tabled result between the places it is found; each
    place gets nodes of its own here.  Unlike the other builders of
    cyclic proofs it numbers them itself, recursively: ``_search`` already
    recurses as deep, and an iterative walk through
    ``proofs._from_preorder`` ran about twice as slow on the 12,287-node
    proof of  []p => []^12 p."""
    nodes = {}
    backlinks = {}

    def build(sn, crossing_ids):
        i = len(nodes)
        if sn.inst is None:
            nodes[i] = _cyclic_node(i, sn.sequent, None, ())
            backlinks[i] = crossing_ids[sn.backlink]
            return i
        nodes[i] = None       # holds id i until the node is built
        kids = []
        for k, ch in enumerate(sn.children):
            if _crossing_child(sn.inst.rule, k) and ch.inst is not None:
                # A fresh crossing: its id joins the branch history.
                kids.append(build(ch, crossing_ids + (len(nodes),)))
            else:
                kids.append(build(ch, crossing_ids))
        nodes[i] = _cyclic_node(i, sn.sequent, sn.inst, tuple(kids))
        return i

    build(snode, ())
    return CyclicProof(nodes, 0, backlinks, System.GRZ_INF)


def decide(goal, max_crossings=64, max_model_size=4):
    """Decide a sequent: a cut-free cyclic proof, or a countermodel.

    Raises ``ProverError`` if neither is found (which would indicate a
    completeness failure at the configured model size).
    """
    if not isinstance(goal, Sequent):
        goal = Sequent(EMPTY, mset(goal))
    # The box-stage table lives for this call only.
    sn = _search(goal, frozenset(), _History(), max_crossings, {})
    if sn is not None:
        return Verdict(proof=_to_cyclic(sn))
    cm = find_countermodel(goal, max_model_size)
    if cm is None:
        raise ProverError('search failed on %s but the oracle found no '
                          'countermodel up to size %d'
                          % (goal, max_model_size))
    return Verdict(countermodel=cm)
