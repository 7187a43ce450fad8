"""Decision procedure for Grz: backward proof search producing cut-free
cyclic proofs, cross-checked by a finite Kripke-model oracle.

The search applies invertible rules eagerly (ImpR, then ImpL), unfolds each
boxed antecedent formula once per branch segment via Refl (tracked by
saturation flags), and then tries the box rule for each boxed succedent
formula with the maximal set-like boxed context.  Box right premises are
recorded in a per-branch history; when one repeats an ancestor entry with
another crossing strictly in between, the branch closes with a back-link.

The box rule is the only choice point, and a failed left premise ends
it: box inversion (``transforms.invert_box_right``) is admissible, so if
Gamma => A, Delta  has no proof, neither has  Gamma => []A, Delta, whichever
box is chosen; the inversion edits only the main fragment, below the box
right premises, so it keeps the branch history that back-links reach.
Only a failed right premise goes on to the next box.  On
``=> []q1, ..., []qn`` search so makes n + 1 calls: the goal, then the
left premise of its first box, which fails.

Only the box stage can meet a search state twice.  Its results, proofs
and failures alike, are tabled for the length of one ``decide`` call,
keyed by the sequent, the set of ``refl``-saturated formulas, and the
part of the branch history that a back-link further on could reach: the
entries  Pi => A  with []A a subformula of the sequent, the newest kept
apart from the set of the others, as no box step before the next
crossing can link to it.  No other entry can ever equal a box right
premise further on, so a result depends on nothing else, apart from the
crossing bound: each entry also records how many crossings deep its
search went, and is searched again where reusing it would pass the bound.
So on ``[]p => []^n p``, where both premises of each box step reach one
box-stage sequent, search grows linearly in n.
Back-link leaves name no target: ``_to_cyclic`` finds it on each leaf's
own branch.  So it builds a shared result that holds a back-link leaf
again at each place, and copies one that holds none, with its node ids
shifted: the proof of ``[]p => []^n p``, 3 * 2^n - 1 nodes, builds each
of its distinct steps once and copies the rest.

Each search step classifies its sequent in one pass over each side, as
multisets list their formulas grouped by kind.  The table key is hashed
once, and a sequent keeps its hash once worked out.

Countermodels come from exhaustive enumeration of finite reflexive partial
orders (Grz frames: finiteness rules out infinite ascending chains), not
from failed search branches.  The oracle compiles the formula reading of
the goal once, into the post-order list of its distinct subformulas, and
evaluates each candidate frame and valuation in one flat loop over that
list, which ``truth_mask`` runs too; so no formula's depth makes it
recurse.  The frames of each size are built once per process: each
labelled poset extends a smaller one by one world, and the first of each
isomorphism class is kept.  A frame's box masks come from ``_BoxMasks``
alone, each worked out on first use, so a frame of n worlds holds only
the masks asked for, not all 2^n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .syntax import (
    Atom, Bottom, Box, Implies, Sequent, EMPTY, mset, subformulas,
    sequent_to_formula, _canonical,
)
from .calculus import (
    System, crossing, ax_atom, ax_bottom, imp_r, imp_l, refl, box_inf,
    _BOX_INF,
)
from .proofs import CyclicNode, CyclicProof, ResourceLimitError


class ProverError(Exception):
    pass


class SearchLimitError(ProverError, ResourceLimitError):
    """Raised when search exceeds its configured crossing bound."""


# ---------------------------------------------------------------------------
# Kripke models


def _order_fault(order, n):
    """Why the successor bitmasks ``order`` of worlds 0..n-1 are not a
    reflexive partial order (the frames of Grz), or None if they are."""
    if len(order) != n or any(mask >> n for mask in order):
        return 'order is not %d masks of worlds 0..%d' % (n, n - 1)
    for w in range(n):
        if not order[w] & (1 << w):
            return 'order not reflexive at world %d' % w
        for v in range(n):
            if order[w] & (1 << v):
                if v != w and order[v] & (1 << w):
                    return 'order not antisymmetric'
                if order[v] & ~order[w]:
                    return 'order not transitive'
    return None


@dataclass(frozen=True)
class KripkeModel:
    """A finite reflexive poset with a valuation.  ``order[w]`` is the
    bitmask of worlds v with w <= v; ``valuation`` pairs atom names, in
    strictly increasing order, with the bitmask of worlds where each holds.
    A malformed model raises ``ValueError``."""
    size: int
    order: tuple
    valuation: tuple  # sorted tuple of (name, bitmask)

    def __post_init__(self):
        fault = _order_fault(self.order, self.size)
        names = [name for name, _ in self.valuation]
        if not fault and any(mask >> self.size for _, mask in self.valuation):
            fault = 'valuation names a world outside 0..%d' % (self.size - 1)
        if not fault and not (all(isinstance(k, str) for k in names) and
                              all(a < b for a, b in zip(names, names[1:]))):
            fault = 'valuation names are not strings in increasing order'
        if fault:
            raise ValueError(fault)

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
    """Bitmask of worlds of ``model`` satisfying ``f``: ``f`` compiled, and
    run by the evaluator of ``find_countermodel``, so formulas of any depth
    evaluate without recursion."""
    steps, atoms = _compile(f)
    return _evaluate(steps, (1 << model.size) - 1, _BoxMasks(model.order),
                     tuple(model.val(name) for name in atoms))


# The kinds of a compiled step.
_BOTTOM, _ATOM, _IMPLIES, _BOX = range(4)


def _compile(f):
    """``f`` as a program: its distinct subformulas in post-order, each a
    step ``(kind, a, b)``, and the sorted names of its atoms.  An
    implication's ``a`` and ``b`` and a box's ``a`` are the indices of the
    steps of its parts; an atom's ``a`` is the index of its name.  One walk
    with an explicit stack, so a formula of any depth compiles.  Formulas
    are hash-consed, so the steps are keyed by identity, hashed in C."""
    index = {}          # id of a compiled formula -> its step's index
    steps = []
    atoms = []          # (step index, name) of each atom
    # Each formula on the stack is a part of the one below it, not yet
    # compiled; the top one is compiled once its parts are.
    stack = [f]
    while stack:
        g = stack[-1]
        t = type(g)
        if t is Implies:
            a = index.get(id(g.left))
            if a is None:
                stack.append(g.left)
                continue
            b = index.get(id(g.right))
            if b is None:
                stack.append(g.right)
                continue
            step = (_IMPLIES, a, b)
        elif t is Box:
            a = index.get(id(g.inner))
            if a is None:
                stack.append(g.inner)
                continue
            step = (_BOX, a, 0)
        elif t is Atom:
            atoms.append((len(steps), g.name))
            step = None
        else:
            step = (_BOTTOM, 0, 0)
        stack.pop()
        index[id(g)] = len(steps)
        steps.append(step)
    names = sorted(name for _, name in atoms)
    for k, name in atoms:
        steps[k] = (_ATOM, names.index(name), 0)
    return steps, names


def _evaluate(steps, full, boxes, vals):
    """The truth mask of the last of the compiled ``steps`` on a frame of
    the worlds in ``full``, where ``boxes[m]`` is the mask of the worlds
    all of whose successors are in ``m``, and ``vals[i]`` is the mask of
    atom i."""
    masks = []
    push = masks.append
    for kind, a, b in steps:
        if kind == _IMPLIES:
            push(full & ~masks[a] | masks[b])
        elif kind == _BOX:
            push(boxes[masks[a]])
        elif kind == _ATOM:
            push(vals[a])
        else:
            push(0)
    return masks[-1]


class _BoxMasks(dict):
    """``boxes`` for ``_evaluate`` on the frame ``order``: the mask of the
    worlds all of whose successors are in ``inner``, worked out when first
    asked for, as a table of every mask would take 2^n entries."""

    def __init__(self, order):
        super().__init__()
        self.order = order

    def __missing__(self, inner):
        mask = 0
        for w, succ in enumerate(self.order):
            if not succ & ~inner:
                mask |= 1 << w
        self[inner] = mask
        return mask


def _labelled_orders(n):
    """Every reflexive partial order on the worlds 0..n-1.  Each extends
    one on 0..n-2 by world n-1, placed above a down-closed set D and below
    an up-closed set U, disjoint, with every world of D below every world
    of U; so each arises once."""
    if n == 0:
        return ((),)
    x = n - 1
    bit = 1 << x
    out = []
    for order in _labelled_orders(x):
        # D holds every world below one of its own; U holds every world
        # above one of its own.
        downs = [d for d in range(bit)
                 if all(not succ & d or d >> w & 1
                        for w, succ in enumerate(order))]
        ups = [u for u in range(bit)
               if all(not u >> w & 1 or not succ & ~u
                      for w, succ in enumerate(order))]
        for d in downs:
            below = bit - 1     # the worlds above every world of D
            for w, succ in enumerate(order):
                if d >> w & 1:
                    below &= succ
            for u in ups:
                if not u & d and not u & ~below:
                    out.append(tuple(succ | bit if d >> w & 1 else succ
                                     for w, succ in enumerate(order))
                               + (bit | u,))
    return tuple(out)


def _pair_bits(order):
    """The bitmask over the pairs (i, j), i != j, in order, of the pairs
    with i <= j in ``order``: the order in which ``enumerate_orders``
    meets its frames."""
    n = len(order)
    bits = 0
    k = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                if order[i] >> j & 1:
                    bits |= 1 << k
                k += 1
    return bits


def enumerate_orders(n):
    """All reflexive partial orders on n worlds, up to isomorphism: of
    each class, the labelled order first by ``_pair_bits``.  Each order is
    a tuple of successor bitmasks."""
    seen = set()
    out = []
    for order in sorted(_labelled_orders(n), key=_pair_bits):
        if order in seen:
            continue
        out.append(order)
        seen.update(tuple(_relabel(order, perm))
                    for perm in itertools.permutations(range(n)))
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


@lru_cache(maxsize=None)
def _frames(n):
    """The frames of ``enumerate_orders(n)``, each checked once, with its
    ``_BoxMasks``."""
    out = []
    for order in enumerate_orders(n):
        fault = _order_fault(order, n)
        if fault:
            raise ProverError('frame table: %s in %s' % (fault, order))
        out.append((order, _BoxMasks(order)))
    return tuple(out)


def find_countermodel(goal, max_size=4):
    """Search finite reflexive posets of up to ``max_size`` worlds for a
    world falsifying the formula reading of ``goal``.  Frames are
    enumerated up to isomorphism (exhaustive for validity checking, since
    satisfaction is isomorphism-invariant), smallest first; on each,
    every valuation of the goal's atoms, in sorted name order.  The
    formula is compiled once, and each candidate is one run of
    ``_evaluate``; only the model returned is built as a ``KripkeModel``,
    with the first world that falsifies the formula."""
    if not isinstance(goal, Sequent):
        goal = Sequent(EMPTY, mset(goal))
    steps, atoms = _compile(sequent_to_formula(goal))
    for n in range(1, max_size + 1):
        full = (1 << n) - 1
        for order, boxes in _frames(n):
            for vals in itertools.product(range(1 << n), repeat=len(atoms)):
                mask = _evaluate(steps, full, boxes, vals)
                if mask != full:
                    world = (~mask & (mask + 1)).bit_length() - 1
                    return KripkeModel(n, order, tuple(zip(atoms, vals))), world
    return None


# ---------------------------------------------------------------------------
# Proof search


class _Search:
    """What one ``decide`` call's search keeps: its crossing bound, the
    box-stage table, the boxed subformulas of each box-stage sequent, and
    the deepest branch history length reached so far."""

    __slots__ = ('max_crossings', 'table', 'boxes', 'reach')

    def __init__(self, max_crossings):
        self.max_crossings = max_crossings
        self.table = {}
        self.boxes = {}
        self.reach = 0


@dataclass(frozen=True)
class Verdict:
    proof: CyclicProof = None
    countermodel: tuple = None  # (KripkeModel, world)

    @property
    def is_proof(self):
        return self.proof is not None


def _search(s, refl_done, history, st):
    """A proof of ``s`` as a ``(sequent, inst, children)`` triple, its
    children triples too, or None.  ``refl_done`` holds the boxed
    antecedent formulas already unfolded by ``refl`` on this branch
    segment; ``history`` holds the box right premises on the branch,
    oldest first, as ``(principal, premise)`` pairs.  A back-link leaf has
    ``inst`` None and no children: ``_to_cyclic`` finds its target."""
    # A multiset lists falsity first, then atoms, then implications, then
    # boxes.  So one pass over each side, stopping at the first formula of
    # a later kind, finds what the rules need, in the order they are tried.
    ant, suc = s.ant, s.suc
    k = 0       # the number of antecedent atoms
    for f in ant:
        t = type(f)
        if t is Atom:
            if f in suc:
                return s, ax_atom(s, f), ()
        elif t is Bottom:
            return s, ax_bottom(s), ()
        else:
            break
        k += 1
    j = 0       # the number of succedent formulas before the boxes
    for f in suc:
        t = type(f)
        if t is Implies:
            inst = imp_r(s, f)
            sub = _search(inst.premises[0], refl_done, history, st)
            return sub and (s, inst, (sub,))
        if t is Box:
            break
        j += 1
    if k < len(ant) and type(ant[k]) is Implies:
        inst = imp_l(s, ant[k])
        left = _search(inst.premises[0], refl_done, history, st)
        if left is None:
            return None
        right = _search(inst.premises[1], refl_done, history, st)
        return right and (s, inst, (left, right))
    # What follows on either side is its boxes.
    boxes = ant[k:]
    for f in boxes:
        if f not in refl_done and f.inner not in ant:
            inst = refl(s, f)
            sub = _search(inst.premises[0], refl_done | {f}, history, st)
            return sub and (s, inst, (sub,))
    # The box stage, the only choice point.  Searching on from s, a
    # back-link can only reach a history entry  Pi => A  with []A a
    # subformula of s.  So the result depends on the history only through
    # those entries: the older ones as a set, and the newest apart, as a
    # back-link skips it here but not past the next crossing.  The table
    # is keyed by that part of the history, in a cell, so that the key is
    # hashed once.
    n = len(history)
    if n:
        subs = st.boxes.get(s)
        if subs is None:
            subs = st.boxes[s] = frozenset(
                f for f in subformulas(*s.formulas()) if type(f) is Box)
        older = frozenset(p for f, p in history[:-1] if f in subs)
        box, newest = history[-1]
        visible = (older, newest if box in subs else None)
    else:
        older = visible = None
    cell = st.table.setdefault((s, refl_done, visible), [])
    # A cell also holds how many crossings deeper than its start its search
    # went, failed branches included.  A reuse that would pass the bound
    # searches again, so that it fails where a search without the table
    # fails, with the same error.
    if cell and n + cell[1] <= st.max_crossings:
        st.reach = max(st.reach, n + cell[1])
        return cell[0]
    # st.reach now follows this search; the caller's is merged back below.
    outer, st.reach = st.reach, n
    found = None
    boxed = _canonical(dict.fromkeys(boxes))
    for f in dict.fromkeys(suc[j:]):
        inst = box_inf(s, f, boxed)
        left = _search(inst.premises[0], refl_done, history, st)
        if left is None:
            # Box inversion is admissible: s has no proof, by any box.
            break
        target = inst.premises[1]
        if older is not None and target in older:
            right = target, None, ()
        else:
            if n + 1 > st.max_crossings:
                raise SearchLimitError(
                    'exceeded %d box crossings at %s' % (st.max_crossings, s))
            st.reach = max(st.reach, n + 1)
            right = _search(target, frozenset(), history + ((f, target),),
                            st)
            if right is None:
                continue
        found = s, inst, (left, right)
        break
    cell[:] = found, st.reach - n
    st.reach = max(st.reach, outer)
    return found


def _to_cyclic(snode):
    """The cyclic proof of a search result, its nodes numbered in preorder.
    Search shares a tabled result between the places it is found; each
    place gets nodes of its own here.  A back-link leaf links to the newest
    fresh crossing above it with its sequent, leaving out the newest of
    all, as search's history did: so a shared subtree links within its own
    branch wherever it is placed.

    Search shares only box steps, its tabled results.  A box step's
    subtree with no back-link leaf is built once: without back-links its
    numbering depends only on its first id, so each later place copies
    the span of ids of the first, every inner node with its child ids
    shifted and every leaf as the same object.  A subtree with back-link
    leaves is built again at each place, as their targets depend on the
    branch.  It recurses, as ``_search`` already does as deep: a walk over
    an explicit stack ran about 13 % slower on the ``search`` benchmark.
    The result holds no reference cycle, so it is freed by reference
    counting, not left to the cyclic garbage collector."""
    nodes = {}
    backlinks = {}
    # id of a box step's triple -> (start, end) of the ids it was built at
    spans = {}

    def build(sn, crossings):
        # ``crossings``: the fresh crossings on the path, oldest first, as
        # (sequent, id) pairs.
        i = len(nodes)
        sequent, inst, children = sn
        if inst is None:
            nodes[i] = CyclicNode(sequent)
            backlinks[i] = next(d for s, d in reversed(crossings[:-1])
                                if s == sequent)
            return i
        box = inst.rule is _BOX_INF
        if box:
            span = spans.get(id(sn))
            if span is not None:
                start, end = span
                shift = i - start
                for j in range(start, end):
                    node = nodes[j]
                    ch = node.children
                    if ch:
                        # No rule has more than two premises.
                        node = CyclicNode(node.sequent, node.inst, (
                            (ch[0] + shift,) if len(ch) == 1
                            else (ch[0] + shift, ch[1] + shift)))
                    nodes[j + shift] = node
                return i
            links = len(backlinks)
        nodes[i] = None       # holds id i until the node is built
        kids = []
        for k, ch in enumerate(children):
            # A fresh crossing joins the branch history.
            fresh = crossing(inst.rule, k) and ch[1] is not None
            kids.append(build(ch, crossings + ((ch[0], len(nodes)),)
                              if fresh else crossings))
        nodes[i] = CyclicNode(sequent, inst, tuple(kids))
        if box and len(backlinks) == links:
            spans[id(sn)] = i, len(nodes)
        return i

    build(snode, ())
    # ``build`` calls itself through its own closure cell, a reference
    # cycle that also holds ``nodes``.  Emptying the cell breaks it, so the
    # proof is freed by reference counting once its last user drops it.
    del build
    return CyclicProof(nodes, 0, backlinks, System.GRZ_INF)


def provable(goal, max_crossings=64):
    """Does ``decide`` prove the sequent ``goal``?  The verdict of proof
    search alone: no proof is built and no countermodel sought."""
    return _search(goal, frozenset(), (), _Search(max_crossings)) is not None


def decide(goal, max_crossings=64, max_model_size=4):
    """Decide a sequent: a cut-free cyclic proof, or a countermodel.

    Raises ``ProverError`` if neither is found (which would indicate a
    completeness failure at the configured model size).
    """
    if not isinstance(goal, Sequent):
        goal = Sequent(EMPTY, mset(goal))
    # The table and the rest of the search state live for this call only.
    sn = _search(goal, frozenset(), (), _Search(max_crossings))
    if sn is not None:
        return Verdict(proof=_to_cyclic(sn))
    cm = find_countermodel(goal, max_model_size)
    if cm is None:
        raise ProverError('search failed on %s but the oracle found no '
                          'countermodel up to size %d'
                          % (goal, max_model_size))
    return Verdict(countermodel=cm)
