"""Proof transformations on non-well-founded proofs.

The transformers in this module are *strongly admissible*: they are
non-expansive for the fragment metric (output nodes up to crossing depth n
depend only on input nodes up to depth n), they produce proofs of the
expected sequent, and the structural ones do not increase local height.

Weakening (``wk``), the five inversions (``invert_*``, each docstring
giving the paper's name for it) and contraction (``contract_left``,
``contract_right``) serve the centerpiece, cut elimination by productive
corecursion: ``reduce_cut`` (or ``re(A)``) removes one cut at the root,
``eliminate_cuts`` removes all of them, ``slim`` contracts box right
premises to set-like form, and ``regularize`` folds a regular lazy proof
back into a finite cyclic proof.  Conversions between the finitary and the
non-well-founded calculus round out the set.
"""

from __future__ import annotations

from .syntax import (
    Atom, Bottom, Box, Implies, BOT, Multiset, Sequent, EMPTY, mset,
)
from .calculus import (
    System, SHARED_RULES, crossing, reinstance, fixed_premise, unfolding,
    ax_atom, ax_bottom, ax_general, imp_r, imp_l, refl, box_inf, box_grz, cut,
    _AX_ATOM, _AX_GENERAL, _IMP_L, _IMP_R, _REFL, _BOX_INF,
    _BOX_GRZ, _CUT,
)
from .proofs import (
    CyclicNode, CyclicProof, LazyProof, ResourceLimitError, leaf, eager,
)


class TransformError(ValueError):
    pass


class RegularizeError(TransformError, ResourceLimitError):
    """``regularize`` passed its node cap or its crossing cap."""


# ---------------------------------------------------------------------------
# Weakening, the five inversions and the atomic contractions: each checks
# its precondition once, at the root, edits the root sequent and rebuilds
# the main fragment from it through the one recursion ``_edit``.  An
# inversion takes its edited sequent from the rule's constructor.


def _homomorphic(p, concl, rec):
    """The root step of ``p`` rebuilt at ``concl``.  Premise ``k`` gets the
    proof ``rec(k, s)``, built on demand at the new step's premise ``s``
    itself, so a child never works out its conclusion again; a fixed
    premise keeps its proof."""
    inst = reinstance(p.inst, concl)
    premises = inst.premises

    def make(k):
        return rec(k, premises[k])
    return LazyProof(inst, [p.child if fixed_premise(inst.rule, k) else make
                            for k in range(inst.arity)])


def _edit(p, concl, stop=None):
    """``p`` with its root sequent replaced by ``concl``, an edit of it
    that every rule of the main fragment carries up as a side formula:
    each step is rebuilt at the premise its rebuilt parent holds.  An
    inversion stops at the step ``stop = (rule, principal, k)`` on its
    target: there premise ``k`` itself takes the step's place.  At the
    root of an inversion ``_invert`` makes this test instead, before it
    builds the sequent that the step on the target never needs."""
    if (stop is not None and p.rule is stop[0]
            and p.inst.principal == stop[1]):
        return p.child(stop[2])
    return _homomorphic(p, concl, lambda k, s: _edit(p.child(k), s, stop))


def _invert(p, t, rule, k, step):
    """``p`` inverted to premise ``k`` of the ``rule`` step on ``t``: that
    premise's proof when the root of ``p`` is such a step, and otherwise
    ``p`` edited to premise ``k`` of ``step()``, that step at its root."""
    if p.rule is rule and p.inst.principal == t:
        return p.child(k)
    return _edit(p, step().premises[k], (rule, t, k))


def wk(p, extra_ant=EMPTY, extra_suc=EMPTY):
    """Add ``extra_ant`` / ``extra_suc`` to every sequent of the main part
    of ``p``; box right premises are untouched."""
    if not extra_ant and not extra_suc:
        return p
    s = p.root
    return _edit(p, Sequent(s.ant.union(extra_ant), s.suc.union(extra_suc)))


def invert_imp_right(p, t):
    """From Gamma => A -> B, Delta derive Gamma, A => B, Delta: the
    inversion ``i_imp``."""
    s = p.root
    if not isinstance(t, Implies) or t not in s.suc:
        raise TransformError('%s is not a succedent implication of %s'
                             % (t, s))
    return _invert(p, t, _IMP_R, 0, lambda: imp_r(s, t))


def invert_imp_left(p, t):
    """From Gamma, A -> B => Delta derive Gamma, B => Delta: the
    inversion ``li_imp``."""
    s = p.root
    if not isinstance(t, Implies) or t not in s.ant:
        raise TransformError('%s is not an antecedent implication of %s'
                             % (t, s))
    return _invert(p, t, _IMP_L, 0, lambda: imp_l(s, t))


def invert_imp_antecedent(p, t):
    """From Gamma, A -> B => Delta derive Gamma => A, Delta: the
    inversion ``ri_imp``."""
    s = p.root
    if not isinstance(t, Implies) or t not in s.ant:
        raise TransformError('%s is not an antecedent implication of %s'
                             % (t, s))
    return _invert(p, t, _IMP_L, 1, lambda: imp_l(s, t))


def invert_bottom(p):
    """From Gamma => false, Delta derive Gamma => Delta: the inversion
    ``i_bot``."""
    s = p.root
    if BOT not in s.suc:
        raise TransformError('no false in the succedent of %s' % s)
    return _edit(p, Sequent(s.ant, s.suc.remove(BOT)))


def invert_box_right(p, t):
    """From Gamma => []A, Delta derive Gamma => A, Delta: the inversion
    ``li_box``."""
    s = p.root
    if not isinstance(t, Box) or t not in s.suc:
        raise TransformError('%s is not a boxed succedent formula of %s'
                             % (t, s))
    return _invert(p, t, _BOX_INF, 0, lambda: box_inf(s, t, EMPTY))


def contract_atom_left(p, q):
    """From Gamma, q, q => Delta derive Gamma, q => Delta (q an atom)."""
    s = p.root
    if not isinstance(q, Atom) or s.ant.count(q) < 2:
        raise TransformError('need two antecedent copies of %s in %s'
                             % (q, s))
    return _edit(p, Sequent(s.ant.remove(q), s.suc))


def contract_atom_right(p, q):
    """From Gamma => q, q, Delta derive Gamma => q, Delta (q an atom)."""
    s = p.root
    if not isinstance(q, Atom) or s.suc.count(q) < 2:
        raise TransformError('need two succedent copies of %s in %s'
                             % (q, s))
    return _edit(p, Sequent(s.ant, s.suc.remove(q)))


# ---------------------------------------------------------------------------
# Canonical proofs of Gamma, A => A, Delta


def ax_proof(gamma, a, delta):
    """A cut-free finite proof of ``gamma, a => a, delta`` in the
    non-well-founded calculus, by structural recursion on ``a``.  For
    ``a = []B`` both premises of the box step prove  []B, B => B  (the
    left one weakened), so they share one proof, and building the proof
    takes time linear in the box depth of ``a``."""
    concl = Sequent(gamma.add(a), delta.add(a))
    if isinstance(a, Bottom):
        return leaf(ax_bottom(concl))
    if isinstance(a, Atom):
        return leaf(ax_atom(concl, a))
    if isinstance(a, Implies):
        b, c = a.left, a.right
        step_r = imp_r(concl, a)
        step_l = imp_l(step_r.premises[0], a)
        left = ax_proof(gamma.add(b), c, delta)
        right = ax_proof(gamma, b, delta.add(c))
        return eager(step_r, eager(step_l, left, right))
    # a = Box(b)
    b = a.inner
    step_refl = refl(concl, a)
    after = step_refl.premises[0]
    step_box = box_inf(after, a, mset(a))
    inner_refl = refl(step_box.premises[1], a)
    inner = ax_proof(mset(a), b, EMPTY)
    return eager(step_refl, eager(step_box, wk(inner, gamma, delta),
                                  eager(inner_refl, inner)))


# ---------------------------------------------------------------------------
# Cut reduction by productive corecursion


def _is_cut_pair(a, p, t):
    sp, st = p.root, t.root
    return (a in sp.suc and a in st.ant
            and st.ant.remove(a) == sp.ant
            and sp.suc.remove(a) == st.suc)


def reduce_cut(a, p, t):
    """Given proofs of Gamma => Delta, A and A, Gamma => Delta, produce a
    proof of Gamma => Delta without introducing a cut on A.

    When the two roots do not form a cut pair on ``a``, ``p`` is returned
    unchanged.
    """
    if not _is_cut_pair(a, p, t):
        return p
    return _reduce(a, p, t, _cut_result(a, p))


def _reduce(a, p, t, concl):
    """``reduce_cut`` of a cut pair, its root built at ``concl``."""
    if isinstance(a, Bottom):
        return _edit(p, concl)          # invert_bottom(p), at concl
    if isinstance(a, Atom):
        return _re_atom(a, p, t, concl)
    if isinstance(a, Implies):
        b, c = a.left, a.right
        left = reduce_cut(
            b,
            wk(invert_imp_antecedent(t, a), EMPTY, mset(c)),
            invert_imp_right(p, a))
        return _reduce(c, left, invert_imp_left(t, a), concl)
    return _re_box(a, p, t, concl)


def re(a):
    """The binary A-removing transformer for a fixed cut formula."""
    def apply(p, t):
        return reduce_cut(a, p, t)
    apply.__name__ = 're_%s' % a
    return apply


def _cut_result(a, p):
    return Sequent(p.root.ant, p.root.suc.remove(a))


def _axiom_leaf(s):
    """Close an initial sequent with the appropriate atomic axiom."""
    if BOT in s.ant:
        return leaf(ax_bottom(s))
    for f in s.ant.distinct():
        if isinstance(f, Atom) and f in s.suc:
            return leaf(ax_atom(s, f))
    raise TransformError('sequent %s is not initial' % s)


def _side(inst, k, q):
    """Carry a proof ``q`` of the conclusion of ``inst`` plus a cut formula
    to a proof of premise ``k`` plus that formula: by the inversion on the
    principal formula of ``inst``, or at ``refl`` and ``cut`` by weakening,
    to premise ``k`` of ``inst`` at the root of ``q``."""
    if inst.rule in (_IMP_R, _IMP_L, _BOX_INF):
        return _invert(q, inst.principal, inst.rule, k,
                       lambda: reinstance(inst, q.root))
    return _edit(q, reinstance(inst, q.root).premises[k])


def _re_step(a, p, t, rec, concl):
    """The homomorphic-on-``p`` cases of cut reduction: rebuild the root
    rule of ``p`` at ``concl`` and push the cut into its premises,
    adapting ``t`` with an inversion or weakening."""
    return _homomorphic(p, concl, lambda k, s: rec(
        a, p.child(k), _side(p.inst, k, t), s))


def _re_atom(a, p, t, concl):
    if p.inst.arity == 0:
        if concl.is_initial():
            return _axiom_leaf(concl)
        # The axiom of p must have used the cut occurrence of a, so a is
        # also in the antecedent and t carries a duplicate of it: this is
        # contract_atom_left(t, a), at concl.
        return _edit(t, concl)
    return _re_step(a, p, t, _re_atom, concl)


def _re_box(a, p, t, concl):
    if p.inst.arity == 0 or t.inst.arity == 0:
        return _axiom_leaf(concl)
    if p.rule is _BOX_INF and p.inst.principal == a:
        return _re_box_tau(a, p, t, concl)
    return _re_step(a, p, t, _re_box, concl)


def _re_box_tau(a, p, t, concl):
    """Cut on []B where ``p`` ends in the box rule on the cut occurrence:
    descend into ``t`` until its own box rule on []B is met."""
    inst = t.inst
    pr = inst.principal
    if inst.rule is _REFL and pr == a:
        wp = wk(p, mset(a.inner), EMPTY)
        inner = _re_box(a, wp, t.child(0), _cut_result(a, wp))
        return _reduce(a.inner, p.child(0), inner, concl)
    if inst.rule is _BOX_INF and a in inst.premises[1].ant:
        # Both box rules keep the cut formula: merge the boxed contexts.
        pi_p = p.inst.premises[1].ant
        pi_t = inst.premises[1].ant.remove(a)
        merged = pi_t.difference(pi_p).union(pi_p)
        c = pr.inner
        p_side = eager(
            box_inf(Sequent(merged, mset(a, c)), a, pi_p),
            wk(p.child(1), pi_t.difference(pi_p), mset(c)),
            p.child(1))
        step = box_inf(concl, pr, merged)
        return LazyProof(step, make=lambda k: (
            _re_box(a, invert_box_right(p, pr), t.child(0),
                    step.premises[0]) if k == 0
            else _re_box(a, p_side,
                         wk(t.child(1), pi_p.difference(pi_t), EMPTY),
                         step.premises[1])))
    return _homomorphic(t, concl, lambda k, s: _re_box(
        a, _side(inst, k, p), t.child(k), s))


# ---------------------------------------------------------------------------
# Contraction (arbitrary formulas), via cut reduction


def contract_left(p, a):
    """From Gamma, A, A => Delta derive Gamma, A => Delta."""
    if p.root.ant.count(a) < 2:
        raise TransformError('need two antecedent copies of %s in %s'
                             % (a, p.root))
    g = p.root.ant.remove(a).remove(a)
    return reduce_cut(a, ax_proof(g, a, p.root.suc), p)


def contract_right(p, a):
    """From Gamma => A, A, Delta derive Gamma => A, Delta."""
    if p.root.suc.count(a) < 2:
        raise TransformError('need two succedent copies of %s in %s'
                             % (a, p.root))
    d = p.root.suc.remove(a).remove(a)
    return reduce_cut(a, p, ax_proof(p.root.ant, a, d))


# ---------------------------------------------------------------------------
# Cut elimination, slimming, regularization


def eliminate_cuts(p):
    """Remove every cut from a (possibly infinite) proof.  Node sharing in
    the input is preserved, so regular inputs stay finitely presented:
    each distinct input node is reduced once and gives one output node.
    On the translation of a loaded finite proof, whose equal subtrees
    ``wf_from_cyclic`` and ``seq_to_inf`` make one node each, equal
    subproofs are reduced once.  That is exact, because the output at a
    node depends only on the proof rooted at it."""
    memo = {}       # keyed by node: lazy proofs compare by identity

    def go(q):
        hit = memo.get(q)
        if hit is not None:
            return hit
        if q.rule is _CUT:
            out = reduce_cut(q.inst.cut_formula, go(q.child(0)),
                             go(q.child(1)))
        elif q.is_leaf:
            out = q
        else:
            out = LazyProof(q.inst, make=lambda k: go(q.child(k)))
        memo[q] = out
        return out

    return go(p)


def slim(p):
    """Contract every box right premise to have a set-like boxed context."""
    memo = {}

    def go(q):
        hit = memo.get(q)
        if hit is not None:
            return hit
        if q.is_leaf:
            out = q
        else:
            inst, extra = q.inst, ()
            if q.rule is _BOX_INF:
                pi = inst.premises[1].ant
                slim_pi = pi.dedupe()
                extra = pi.difference(slim_pi)
                inst = box_inf(inst.conclusion, inst.principal, slim_pi)

            def make(k):
                r = q.child(k)
                if crossing(q.rule, k):
                    for f in extra:
                        r = contract_left(r, f)
                return go(r)

            out = LazyProof(inst, make=make)
        memo[q] = out
        return out

    return go(p)


def regularize(p, max_crossings=64, max_nodes=1000000):
    """Fold a lazy proof into a cyclic proof by back-linking each box
    right premise to the nearest ancestor with the same sequent that has
    another box right premise strictly in between.

    The input must be slim-enough for crossings to repeat (crossing
    sequents drawn from a finite set); otherwise the crossing cap trips
    and a ``RegularizeError`` is raised, as it is past ``max_nodes``
    nodes; both are ``ResourceLimitError``s.  The walk is a preorder over
    an explicit stack, so proofs of any depth fold; each child is forced
    only when its turn comes, and node ids are preorder positions.  The
    result is a proof of the non-well-founded calculus, in
    ``GRZ_INF_CUT`` if it keeps a cut step and in ``GRZ_INF`` otherwise.
    """
    order, backlinks = [], {}
    parent, kids, crossings = [], [], []    # of each node id
    stack = []                      # (lazy node, child index, node id)

    def add(sequent, inst, up, ncross):
        i = len(order)
        if i >= max_nodes:
            raise RegularizeError('regularization exceeded %d nodes'
                                  % max_nodes)
        order.append((sequent, inst))
        parent.append(up)
        kids.append([])
        crossings.append(ncross)
        if up is not None:
            kids[up].append(i)
        return i

    def visit(lp, up, ncross):
        i = add(lp.root, lp.inst, up, ncross)
        stack.extend((lp, k, i) for k in reversed(range(lp.inst.arity)))

    visit(p, None, 0)
    while stack:
        lp, k, i = stack.pop()
        child = lp.child(k)
        ncross = crossings[i]
        if crossing(lp.rule, k):
            s = child.root
            j = i
            while j is not None and (crossings[j] >= ncross
                                     or order[j][0] != s):
                j = parent[j]
            if j is not None:
                backlinks[add(s, None, i, ncross + 1)] = j
                continue
            if ncross + 1 > max_crossings:
                raise RegularizeError(
                    'no repeating crossing within %d crossings; the '
                    'input does not look regular' % max_crossings)
            ncross += 1
        visit(child, i, ncross)
    has_cut = any(inst is not None and inst.rule is _CUT
                  for _, inst in order)
    nodes = {i: CyclicNode(s, inst, tuple(kids[i]))
             for i, (s, inst) in enumerate(order)}
    return CyclicProof(nodes, 0, backlinks,
                       System.GRZ_INF_CUT if has_cut else System.GRZ_INF)


# ---------------------------------------------------------------------------
# The provability schema for box, as a lazy knot and as a cyclic proof


def _grz_knot(a):
    """A lazy cut-free proof of  [](([](A -> []A) -> A)) => A, tied as a
    knot: the right premise of its second box step is the root again."""
    trace = unfolding(a)
    step = trace.inner
    g = Implies(trace, a)
    f = Box(g)
    r0 = refl(Sequent(mset(f), mset(a)), f)
    r1 = imp_l(r0.premises[0], g)
    r3 = box_inf(r1.premises[1], trace, mset(f))
    r4 = imp_r(r3.premises[0], step)
    r7 = imp_r(r3.premises[1], step)
    r8 = box_inf(r7.premises[0], Box(a), mset(f))
    ax = ax_proof(mset(f), a, EMPTY)
    root = eager(r0, eager(r1, ax, eager(
        r3, eager(r4, ax_proof(mset(f), a, mset(Box(a)))),
        eager(r7, LazyProof(r8, (ax, lambda k: root))))))
    return root


def grz_schema_proof(a):
    """A cyclic cut-free proof of  [](([](A -> []A) -> A)) => A: the knot
    folded by ``regularize``.  Its one back-link goes to its own root, so
    it unravels to the same lazy tree as the knot."""
    return regularize(_grz_knot(a))


# ---------------------------------------------------------------------------
# Cut composition


def build_cut(p1, p2, a):
    """Combine finite proofs of Gamma1 => Delta1, A and A, Gamma2 => Delta2
    into a cut on A over the merged context."""
    if a not in p1.root.suc or a not in p2.root.ant:
        raise TransformError('%s is not a cut formula for %s / %s'
                             % (a, p1.root, p2.root))
    g1, d1 = p1.root.ant, p1.root.suc.remove(a)
    g2, d2 = p2.root.ant.remove(a), p2.root.suc
    concl = Sequent(g1.union(g2), d1.union(d2))
    inst = cut(concl, a)
    return eager(inst, wk(p1, g2, d2), wk(p2, g1, d1))


# ---------------------------------------------------------------------------
# Translation: finitary proofs into the non-well-founded calculus


def seq_to_inf(p):
    """Compile a finite proof in the finitary calculus (with or without
    cut) into a lazy proof in the non-well-founded calculus with cut,
    cutting against the lazy knot of the schema at each box step.  Each
    distinct input node is translated once: a node that the input shares,
    as ``wf_from_cyclic`` shares equal subtrees, gives one output node,
    and a shared box step one knot.  That is exact, because the
    translation of a node depends only on the proof rooted at it."""
    memo = {}       # keyed by node: lazy proofs compare by identity

    def go(q):
        hit = memo.get(q)
        if hit is not None:
            return hit
        inst = q.inst
        r = inst.rule
        c = inst.conclusion
        pr = inst.principal
        if r is _AX_GENERAL:
            out = ax_proof(c.ant.remove(pr), pr, c.suc.remove(pr))
        elif r in SHARED_RULES:
            out = LazyProof(reinstance(inst, c),
                            make=lambda k: go(q.child(k)))
        elif r is _BOX_GRZ:
            a = pr.inner
            trace = unfolding(a)
            g = Implies(trace, a)
            f = Box(g)
            pi = inst.premises[0].ant.difference(mset(trace))
            step = box_inf(c, pr, pi)
            step_cut = cut(step.premises[1], f)             # []Pi => A
            step_box = box_inf(step_cut.premises[0], f, pi)
            left, right = (imp_r(s, g) for s in step_box.premises)
            xi = go(q.child(0))                 # []Pi, [](A -> []A) => A
            nu = eager(step_box, eager(left, wk(xi, EMPTY, mset(a))),
                       eager(right, xi))
            lam = eager(step_cut, nu, wk(_grz_knot(a), pi, EMPTY))
            side = wk(lam, c.ant.difference(pi), c.suc.remove(pr))
            out = eager(step, side, lam)
        else:
            raise TransformError('cannot translate a %s step' % r.value)
        memo[q] = out
        return out

    return go(p)


# ---------------------------------------------------------------------------
# Translation: non-well-founded proofs back into the finitary calculus


def inf_to_seq(p):
    """Translate a (regular, guarded) lazy proof into a finite proof of
    the finitary calculus with the same root sequent.  Below the root,
    each node is translated under the set Lam of box contents A crossed
    on its branch, whose unfolding obligations [](A -> []A) are carried
    in the antecedent: a node proving  Gamma => Delta  becomes a proof of
    Lam*, Gamma => Delta.

    The translation is a post-order over an explicit stack, so proofs of
    any depth translate, and each (node, Lam) pair is translated once.
    Meeting a pair again inside its own translation means a loop that
    never crosses a box right premise: an unguarded input, reported as a
    ``TransformError``.  Each output node is built once per distinct
    (step object, Lam, child outputs): the equal steps that a loaded proof
    shares give one output node, so a subproof that the finite proof
    repeats is one object.
    """
    memo = {}                       # (id of node, lam) -> proof; None: open
    built = {}                      # (id of step, lam, ids of the kids)
                                    # -> (proof, step)
    contexts = {}                   # lam -> its obligations, built once
    root = (id(p), frozenset())
    stack = [(p, root[1], None)]    # (node, lam, its subproblems once open)
    while stack:
        q, lam, subs = stack.pop()
        key = (id(q), lam)
        inst = q.inst
        r = inst.rule
        pr = inst.principal
        if subs is None:
            if key in memo:
                if memo[key] is None:
                    raise TransformError('the proof loops at %s without '
                                         'crossing a box right premise'
                                         % q.root)
                continue
            memo[key] = None
            if r is _BOX_INF:
                a = pr.inner
                subs = (((q.child(0), lam),) if a in lam
                        else ((q.child(1), frozenset(lam | {a})),))
            elif r in SHARED_RULES:
                subs = tuple((q.child(k), lam) for k in range(inst.arity))
            else:
                subs = ()
            stack.append((q, lam, subs))
            stack.extend((c, m, None) for c, m in reversed(subs))
            continue
        kids = [memo[id(c), m] for c, m in subs]
        step = (id(inst), lam, *map(id, kids))
        hit = built.get(step)
        if hit is not None:
            memo[key] = hit[0]
            continue
        extra = contexts.get(lam)
        if extra is None:
            extra = contexts[lam] = Multiset(unfolding(a) for a in lam)
        c = q.root
        target = Sequent(extra.union(c.ant), c.suc)
        if r is _AX_ATOM:
            out = leaf(ax_general(target, pr))
        elif r in SHARED_RULES:
            out = eager(reinstance(inst, target), *kids)
        elif r is _BOX_INF:
            a = pr.inner
            if a in lam:
                # Unfold the stored obligation instead of crossing again.
                trace = unfolding(a)
                step_refl = refl(target, trace)
                step_impl = imp_l(step_refl.premises[0], trace.inner)
                ax = leaf(ax_general(step_impl.premises[0], pr))
                sub = wk(kids[0], EMPTY, mset(pr))
                out = eager(step_refl, eager(step_impl, ax, sub))
            else:
                pi = inst.premises[1].ant
                out = eager(box_grz(target, pr, extra.union(pi)), kids[0])
        else:
            raise TransformError('cannot translate a %s step' % r.value)
        built[step] = (out, inst)
        memo[key] = out
    return memo[root]
