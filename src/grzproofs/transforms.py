"""Proof transformations on non-well-founded proofs.

The transformers in this module are *strongly admissible*: they are
non-expansive for the fragment metric (output nodes up to crossing depth n
depend only on input nodes up to depth n), they produce proofs of the
expected sequent, and the structural ones do not increase local height.

The centerpiece is cut elimination by productive corecursion: ``reduce_cut``
removes one cut at the root, ``eliminate_cuts`` removes all of them,
``slim`` contracts box right premises to set-like form, and ``regularize``
folds a regular lazy proof back into a finite cyclic proof.  Conversions
between the finitary and the non-well-founded calculus round out the set.
"""

from __future__ import annotations

from .syntax import (
    Atom, Bottom, Box, Implies, BOT, Multiset, Sequent, EMPTY, mset,
)
from .calculus import (
    Rule, System, reinstance, fixed_premise,
    ax_atom, ax_bottom, ax_general, imp_r, imp_l, refl, box_inf, box_grz, cut,
)
from .proofs import (
    LazyProof, leaf, node, eager, WfProof, CyclicProof, CyclicNode,
    _crossing_child,
)


class TransformError(ValueError):
    pass


class RegularizeError(TransformError):
    pass


# ---------------------------------------------------------------------------
# Weakening


def wk(p, extra_ant=EMPTY, extra_suc=EMPTY):
    """Add ``extra_ant`` / ``extra_suc`` to every sequent of the main part
    of ``p``; box right premises are untouched."""
    if not isinstance(extra_ant, Multiset):
        extra_ant = Multiset(extra_ant)
    if not isinstance(extra_suc, Multiset):
        extra_suc = Multiset(extra_suc)
    if not extra_ant and not extra_suc:
        return p
    c = p.root
    return _homomorphic(
        p, Sequent(c.ant.union(extra_ant), c.suc.union(extra_suc)),
        lambda k: wk(p.child(k), extra_ant, extra_suc))


# ---------------------------------------------------------------------------
# Inversions.  Each tracks one occurrence of the target formula; the
# recursion stays within the main fragment, so it terminates.


def _homomorphic(p, concl, rec):
    """The root step of ``p`` rebuilt at ``concl``.  Premise ``k`` gets the
    proof ``rec(k)``, built on demand; a fixed premise keeps its proof."""
    inst = reinstance(p.inst, concl)
    return LazyProof(inst, tuple(
        (lambda k=k: p.child(k)) if fixed_premise(inst.rule, k)
        else (lambda k=k: rec(k))
        for k in range(inst.arity)))


def invert_imp_right(p, t):
    """From Gamma => A -> B, Delta derive Gamma, A => B, Delta."""
    if not isinstance(t, Implies) or t not in p.root.suc:
        raise TransformError('%s is not a succedent implication of %s'
                             % (t, p.root))
    if p.rule == Rule.IMP_R and p.inst.principal == t:
        return p.child(0)
    s = p.root
    return _homomorphic(p, Sequent(s.ant.add(t.left),
                                   s.suc.remove(t).add(t.right)),
                        lambda k: invert_imp_right(p.child(k), t))


def invert_imp_left(p, t):
    """From Gamma, A -> B => Delta derive Gamma, B => Delta."""
    if not isinstance(t, Implies) or t not in p.root.ant:
        raise TransformError('%s is not an antecedent implication of %s'
                             % (t, p.root))
    if p.rule == Rule.IMP_L and p.inst.principal == t:
        return p.child(0)
    s = p.root
    return _homomorphic(p, Sequent(s.ant.remove(t).add(t.right), s.suc),
                        lambda k: invert_imp_left(p.child(k), t))


def invert_imp_antecedent(p, t):
    """From Gamma, A -> B => Delta derive Gamma => A, Delta."""
    if not isinstance(t, Implies) or t not in p.root.ant:
        raise TransformError('%s is not an antecedent implication of %s'
                             % (t, p.root))
    if p.rule == Rule.IMP_L and p.inst.principal == t:
        return p.child(1)
    s = p.root
    return _homomorphic(p, Sequent(s.ant.remove(t), s.suc.add(t.left)),
                        lambda k: invert_imp_antecedent(p.child(k), t))


def invert_bottom(p):
    """From Gamma => false, Delta derive Gamma => Delta."""
    if BOT not in p.root.suc:
        raise TransformError('no false in the succedent of %s' % p.root)
    s = p.root
    return _homomorphic(p, Sequent(s.ant, s.suc.remove(BOT)),
                        lambda k: invert_bottom(p.child(k)))


def invert_box_right(p, t):
    """From Gamma => []A, Delta derive Gamma => A, Delta."""
    if not isinstance(t, Box) or t not in p.root.suc:
        raise TransformError('%s is not a boxed succedent formula of %s'
                             % (t, p.root))
    if p.rule == Rule.BOX_INF and p.inst.principal == t:
        return p.child(0)
    s = p.root
    return _homomorphic(p, Sequent(s.ant, s.suc.remove(t).add(t.inner)),
                        lambda k: invert_box_right(p.child(k), t))


def contract_atom_left(p, q):
    """From Gamma, q, q => Delta derive Gamma, q => Delta (q an atom)."""
    if not isinstance(q, Atom) or p.root.ant.count(q) < 2:
        raise TransformError('need two antecedent copies of %s in %s'
                             % (q, p.root))
    s = p.root
    return _homomorphic(p, Sequent(s.ant.remove(q), s.suc),
                        lambda k: contract_atom_left(p.child(k), q))


def contract_atom_right(p, q):
    """From Gamma => q, q, Delta derive Gamma => q, Delta (q an atom)."""
    if not isinstance(q, Atom) or p.root.suc.count(q) < 2:
        raise TransformError('need two succedent copies of %s in %s'
                             % (q, p.root))
    s = p.root
    return _homomorphic(p, Sequent(s.ant, s.suc.remove(q)),
                        lambda k: contract_atom_right(p.child(k), q))


# ---------------------------------------------------------------------------
# Canonical proofs of Gamma, A => A, Delta


def ax_proof(gamma, a, delta):
    """A cut-free finite proof of ``gamma, a => a, delta`` in the
    non-well-founded calculus, by structural recursion on ``a``."""
    if not isinstance(gamma, Multiset):
        gamma = Multiset(gamma)
    if not isinstance(delta, Multiset):
        delta = Multiset(delta)
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
    left = ax_proof(gamma.add(a), b, delta)
    inner_refl = refl(step_box.premises[1], a)
    inner = ax_proof(mset(a), b, EMPTY)
    return eager(step_refl,
                 eager(step_box, left, eager(inner_refl, inner)))


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
    if isinstance(a, Bottom):
        return invert_bottom(p)
    if isinstance(a, Atom):
        return _re_atom(a, p, t)
    if isinstance(a, Implies):
        b, c = a.left, a.right
        left = reduce_cut(
            b,
            wk(invert_imp_antecedent(t, a), EMPTY, mset(c)),
            invert_imp_right(p, a))
        return reduce_cut(c, left, invert_imp_left(t, a))
    return _re_box(a, p, t)


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
    to a proof of premise ``k`` plus that formula, by the inversion or
    weakening that matches the rule of ``inst``."""
    r = inst.rule
    pr = inst.principal
    if r == Rule.IMP_R:
        return invert_imp_right(q, pr)
    if r == Rule.IMP_L:
        return (invert_imp_left, invert_imp_antecedent)[k](q, pr)
    if r == Rule.REFL:
        return wk(q, mset(pr.inner), EMPTY)
    if r == Rule.BOX_INF:
        return invert_box_right(q, pr)
    c = mset(inst.cut_formula)
    return wk(q, EMPTY, c) if k == 0 else wk(q, c, EMPTY)


def _re_step(a, p, t, rec):
    """The homomorphic-on-``p`` cases of cut reduction: rebuild the root
    rule of ``p`` and push the cut into its premises, adapting ``t`` with
    an inversion or weakening."""
    return _homomorphic(p, _cut_result(a, p),
                        lambda k: rec(a, p.child(k), _side(p.inst, k, t)))


def _re_atom(a, p, t):
    if p.inst.arity == 0:
        res = _cut_result(a, p)
        if BOT in res.ant or any(isinstance(f, Atom) and f in res.suc
                                 for f in res.ant.distinct()):
            return _axiom_leaf(res)
        # The axiom of p must have used the cut occurrence of a, so a is
        # also in the antecedent and t carries a duplicate of it.
        return contract_atom_left(t, a)
    return _re_step(a, p, t, _re_atom)


def _re_box(a, p, t):
    if p.inst.arity == 0 or t.inst.arity == 0:
        return _axiom_leaf(_cut_result(a, p))
    if p.rule == Rule.BOX_INF and p.inst.principal == a:
        return _re_box_tau(a, p, t)
    return _re_step(a, p, t, _re_box)


def _re_box_tau(a, p, t):
    """Cut on []B where ``p`` ends in the box rule on the cut occurrence:
    descend into ``t`` until its own box rule on []B is met."""
    inst = t.inst
    pr = inst.principal
    if inst.rule == Rule.REFL and pr == a:
        inner = _re_box(a, wk(p, mset(a.inner), EMPTY), t.child(0))
        return reduce_cut(a.inner, p.child(0), inner)
    res = _cut_result(a, p)
    if inst.rule == Rule.BOX_INF and a in inst.premises[1].ant:
        # Both box rules keep the cut formula: merge the boxed contexts.
        pi_p = p.inst.premises[1].ant
        pi_t = inst.premises[1].ant.remove(a)
        merged = pi_t.difference(pi_p).union(pi_p)
        c = pr.inner
        p_side = eager(
            box_inf(Sequent(merged, mset(a, c)), a, pi_p),
            wk(p.child(1), pi_t.difference(pi_p), mset(c)),
            p.child(1))
        return node(
            box_inf(res, pr, merged),
            lambda: _re_box(a, invert_box_right(p, pr), t.child(0)),
            lambda: _re_box(a, p_side,
                            wk(t.child(1), pi_p.difference(pi_t), EMPTY)))
    return _homomorphic(t, res,
                        lambda k: _re_box(a, _side(inst, k, p), t.child(k)))


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
    the input is preserved, so regular inputs stay finitely presented."""
    memo = {}

    def go(q):
        # The entry keeps q itself alive: a reduced cut node is otherwise
        # unreferenced, and a recycled id must not hit its stale result.
        hit = memo.get(id(q))
        if hit is not None:
            return hit[1]
        if q.rule == Rule.CUT:
            out = reduce_cut(q.inst.cut_formula, go(q.child(0)),
                             go(q.child(1)))
        elif q.is_leaf:
            out = q
        else:
            out = LazyProof(q.inst,
                            tuple((lambda i=i: go(q.child(i)))
                                  for i in range(q.inst.arity)))
        memo[id(q)] = (q, out)
        return out

    return go(p)


def slim(p):
    """Contract every box right premise to have a set-like boxed context."""
    memo = {}

    def go(q):
        hit = memo.get(id(q))
        if hit is not None:
            return hit[1]
        if q.is_leaf:
            out = q
        elif q.rule == Rule.BOX_INF:
            inst = q.inst
            pi = inst.premises[1].ant
            slim_pi = pi.dedupe()

            def right():
                r = q.child(1)
                for f in pi.difference(slim_pi):
                    r = contract_left(r, f)
                return go(r)

            out = node(box_inf(inst.conclusion, inst.principal, slim_pi),
                       lambda: go(q.child(0)), right)
        else:
            out = LazyProof(q.inst,
                            tuple((lambda i=i: go(q.child(i)))
                                  for i in range(q.inst.arity)))
        memo[id(q)] = (q, out)
        return out

    return go(p)


def regularize(p, root_sequent=None, system=System.GRZ_INF,
               max_crossings=64, max_nodes=1000000):
    """Fold a lazy proof into a cyclic proof by back-linking each box
    right premise to the nearest ancestor with the same sequent that has
    another box right premise strictly in between.

    The input must be slim-enough for crossings to repeat (crossing
    sequents drawn from a finite set); otherwise the crossing cap trips
    and a ``RegularizeError`` is raised.
    """
    if root_sequent is not None and p.root != root_sequent:
        raise RegularizeError('proof roots %s, expected %s'
                              % (p.root, root_sequent))
    nodes = {}
    backlinks = {}
    counter = [0]

    def alloc():
        i = counter[0]
        counter[0] += 1
        if i >= max_nodes:
            raise RegularizeError('regularization exceeded %d nodes'
                                  % max_nodes)
        return i

    def build(lp, ancestors, ncross):
        # ancestors: tuple of (sequent, id, crossings-above-count)
        i = alloc()
        here = ancestors + ((lp.root, i, ncross),)
        kids = []
        for k in range(lp.inst.arity):
            child = lp.child(k)
            if _crossing_child(lp.rule, k):
                s = child.root
                target = None
                for cs, ci, cc in reversed(here):
                    if cs == s and cc <= ncross - 1:
                        target = ci
                        break
                if target is not None:
                    li = alloc()
                    nodes[li] = CyclicNode(li, s, None, ())
                    backlinks[li] = target
                    kids.append(li)
                    continue
                if ncross + 1 > max_crossings:
                    raise RegularizeError(
                        'no repeating crossing within %d crossings; the '
                        'input does not look regular' % max_crossings)
                kids.append(build(child, here, ncross + 1))
            else:
                kids.append(build(child, here, ncross))
        nodes[i] = CyclicNode(i, lp.root, lp.inst, tuple(kids))
        return i

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 100000))
    try:
        root = build(p, (), 0)
    finally:
        sys.setrecursionlimit(old)
    return CyclicProof(nodes, root, backlinks, system)


# ---------------------------------------------------------------------------
# The provability schema for box, as a cyclic proof


def grz_schema_proof(a):
    """A cyclic cut-free proof of  [](([](A -> []A) -> A)) => A."""
    box_a = Box(a)
    g = Implies(Box(Implies(a, box_a)), a)
    f = Box(g)
    n0 = Sequent(mset(f), mset(a))

    nodes = {}
    counter = [0]

    def alloc():
        i = counter[0]
        counter[0] += 1
        return i

    def append_lazy(lp):
        """Copy a finite lazy proof into the node table."""
        i = alloc()
        kids = tuple(append_lazy(c) for c in lp.children)
        nodes[i] = CyclicNode(i, lp.root, lp.inst, kids)
        return i

    i0 = alloc()
    r0 = refl(n0, f)
    i1 = alloc()
    r1 = imp_l(r0.premises[0], g)
    i2 = append_lazy(ax_proof(mset(f), a, EMPTY))
    i3 = alloc()
    r3 = box_inf(r1.premises[1], Box(Implies(a, box_a)), mset(f))
    i4 = alloc()
    r4 = imp_r(r3.premises[0], Implies(a, box_a))
    i5 = append_lazy(ax_proof(mset(f), a, mset(box_a)))
    nodes[i4] = CyclicNode(i4, r4.conclusion, r4, (i5,))
    i7 = alloc()
    r7 = imp_r(r3.premises[1], Implies(a, box_a))
    i8 = alloc()
    r8 = box_inf(r7.premises[0], box_a, mset(f))
    i9 = append_lazy(ax_proof(mset(f), a, EMPTY))
    i10 = alloc()
    nodes[i10] = CyclicNode(i10, n0, None, ())
    nodes[i8] = CyclicNode(i8, r8.conclusion, r8, (i9, i10))
    nodes[i7] = CyclicNode(i7, r7.conclusion, r7, (i8,))
    nodes[i3] = CyclicNode(i3, r3.conclusion, r3, (i4, i7))
    nodes[i1] = CyclicNode(i1, r1.conclusion, r1, (i2, i3))
    nodes[i0] = CyclicNode(i0, n0, r0, (i1,))
    return CyclicProof(nodes, i0, {i10: i0}, System.GRZ_INF)


# ---------------------------------------------------------------------------
# Finite-proof weakening and cut composition


def wk_wf(p, extra_ant=EMPTY, extra_suc=EMPTY):
    """Weakening for finite proofs; like ``wk``, fixed premises keep
    their proofs."""
    if not isinstance(extra_ant, Multiset):
        extra_ant = Multiset(extra_ant)
    if not isinstance(extra_suc, Multiset):
        extra_suc = Multiset(extra_suc)
    if not extra_ant and not extra_suc:
        return p
    c = p.root
    inst = reinstance(p.inst, Sequent(c.ant.union(extra_ant),
                                      c.suc.union(extra_suc)))
    return WfProof(inst, tuple(
        p.children[k] if fixed_premise(inst.rule, k)
        else wk_wf(p.children[k], extra_ant, extra_suc)
        for k in range(inst.arity)))


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
    return WfProof(inst, (wk_wf(p1, g2, d2), wk_wf(p2, g1, d1)))


# ---------------------------------------------------------------------------
# Translation: finitary proofs into the non-well-founded calculus


# The rules both calculi share, step for step.
_HOMOMORPHIC_RULES = (Rule.IMP_R, Rule.IMP_L, Rule.REFL, Rule.CUT)


def seq_to_inf(p):
    """Compile a finite proof in the finitary calculus (with or without
    cut) into a lazy proof in the non-well-founded calculus with cut,
    using the cyclic schema proof at each finitary box step."""
    from .proofs import unravel

    inst = p.inst
    r = inst.rule
    c = inst.conclusion
    pr = inst.principal
    if r == Rule.AX_GENERAL:
        return ax_proof(c.ant.remove(pr), pr, c.suc.remove(pr))
    if r == Rule.AX_BOTTOM:
        return leaf(ax_bottom(c))
    if r in _HOMOMORPHIC_RULES:
        return LazyProof(reinstance(inst, c), tuple(
            (lambda k=k: seq_to_inf(p.children[k]))
            for k in range(inst.arity)))
    if r == Rule.BOX_GRZ:
        a = pr.inner
        trace = Box(Implies(a, pr))
        g = Implies(trace, a)
        f = Box(g)
        pi = inst.premises[0].ant.difference(mset(trace))
        xi = seq_to_inf(p.children[0])          # []Pi, [](A -> []A) => A
        xi2 = wk(xi, EMPTY, mset(a))
        mu = eager(imp_r(Sequent(pi, mset(g)), g), xi)
        mu2 = eager(imp_r(Sequent(pi, mset(g, a)), g), xi2)
        nu = eager(box_inf(Sequent(pi, mset(f, a)), f, pi), mu2, mu)
        theta = wk(unravel(grz_schema_proof(a)), pi, EMPTY)
        lam = eager(cut(Sequent(pi, mset(a)), f), nu, theta)
        side = wk(lam, c.ant.difference(pi), c.suc.remove(pr))
        return eager(box_inf(c, pr, pi), side, lam)
    raise TransformError('cannot translate a %s step' % r.value)


# ---------------------------------------------------------------------------
# Translation: non-well-founded proofs back into the finitary calculus


def _trace_context(lam):
    return Multiset(Box(Implies(a, Box(a))) for a in lam)


def inf_to_seq(p, lam=frozenset()):
    """Translate a (regular, guarded) lazy proof into a finite proof of
    the finitary calculus.  ``lam`` is the set of box contents whose
    unfolding obligations [](A -> []A) are carried in the antecedent; the
    result proves  Lam*, Gamma => Delta  for input root Gamma => Delta.
    """
    memo = {}

    def go(q, lam):
        key = (id(q), lam)
        out = memo.get(key)
        if out is not None:
            return out
        extra = _trace_context(lam)
        c = q.root
        target = Sequent(extra.union(c.ant), c.suc)
        inst = q.inst
        r = inst.rule
        pr = inst.principal
        if r == Rule.AX_ATOM:
            out = WfProof(ax_general(target, pr))
        elif r == Rule.AX_BOTTOM:
            out = WfProof(ax_bottom(target))
        elif r in _HOMOMORPHIC_RULES:
            out = WfProof(reinstance(inst, target),
                          tuple(go(q.child(k), lam)
                                for k in range(inst.arity)))
        elif r == Rule.BOX_INF:
            a = pr.inner
            trace = Box(Implies(a, pr))
            if a in lam:
                # Unfold the stored obligation instead of crossing again.
                step_refl = refl(target, trace)
                step_impl = imp_l(step_refl.premises[0], Implies(a, pr))
                ax = WfProof(ax_general(step_impl.premises[0], pr))
                sub = wk_wf(go(q.child(0), lam), EMPTY, mset(pr))
                out = WfProof(step_refl,
                              (WfProof(step_impl, (ax, sub)),))
            else:
                pi = inst.premises[1].ant
                chi = go(q.child(1), frozenset(lam | {a}))
                out = WfProof(box_grz(target, pr, extra.union(pi)), (chi,))
        else:
            raise TransformError('cannot translate a %s step' % r.value)
        memo[key] = out
        return out

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 100000))
    try:
        return go(p, frozenset(lam))
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Named dispatchers matching the transformer taxonomy


def invert(p, kind, target=None):
    """Apply one of the five inversions by name: ``li_imp`` / ``ri_imp`` /
    ``i_imp`` on an implication, ``i_bot`` on a succedent falsity, and
    ``li_box`` on a boxed succedent formula."""
    if kind == 'li_imp':
        return invert_imp_left(p, target)
    if kind == 'ri_imp':
        return invert_imp_antecedent(p, target)
    if kind == 'i_imp':
        return invert_imp_right(p, target)
    if kind == 'i_bot':
        return invert_bottom(p)
    if kind == 'li_box':
        return invert_box_right(p, target)
    raise TransformError('unknown inversion kind %r' % (kind,))


def contract(p, side, a):
    if side == 'left':
        return contract_left(p, a)
    if side == 'right':
        return contract_right(p, a)
    raise TransformError('side must be left or right, not %r' % (side,))


def re(a):
    """The binary A-removing transformer for a fixed cut formula."""
    def apply(p, t):
        return reduce_cut(a, p, t)
    apply.__name__ = 're_%s' % a
    return apply


ce = eliminate_cuts
