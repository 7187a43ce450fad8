"""Builders shared by the test modules: exhaustive formula enumeration,
the backward-applicable rule instances of a goal, exhaustive small-proof
search, grafting of lazy proofs, deep finite proofs, a loaded cut
composition, a reference proof-to-JSON encoder, truth at one world of a
Kripke model, the frames of the oracle by brute force, and a reference
conversion of search results to cyclic proofs."""

import itertools
from functools import lru_cache

from grzproofs.calculus import (
    Rule, System, ax_atom, ax_bottom, ax_general, box_grz, box_inf, crossing,
    imp_l, imp_r, refl,
)
from grzproofs.proofs import (
    CyclicNode, CyclicProof, LazyProof, cyclic_from_wf, dump_proof, eager,
    leaf, load_proof, unravel,
)
from grzproofs.prover import _order_fault, _relabel, decide
from grzproofs.syntax import (
    Atom, Bottom, Box, Implies, BOT, PrintMemo, Sequent, format_sequent,
    mset, parse_formula, parse_sequent,
)
from grzproofs.transforms import build_cut, inf_to_seq

P = Atom('p')
Q = Atom('q')


@lru_cache(maxsize=None)
def formulas_of_size(n, atoms=(P, Q)):
    """All formulas with exactly ``n`` AST nodes over ``atoms``."""
    if n < 1:
        return ()
    if n == 1:
        return (BOT,) + tuple(atoms)
    out = [Box(f) for f in formulas_of_size(n - 1, atoms)]
    for i in range(1, n - 1):
        for a in formulas_of_size(i, atoms):
            for b in formulas_of_size(n - 1 - i, atoms):
                out.append(Implies(a, b))
    return tuple(out)


def formulas_up_to(n, atoms=(P, Q)):
    out = []
    for k in range(1, n + 1):
        out.extend(formulas_of_size(k, atoms))
    return out


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


def complete_proofs(goal, budget, system=System.GRZ_INF):
    """Every finite proof of ``goal`` with at most ``budget`` rule nodes,
    found by exhaustive backwards application of the cut-free rules."""
    if budget < 1:
        return
    for inst in applicable_instances(goal, system):
        if inst.arity == 0:
            yield leaf(inst)
        elif inst.arity == 1 and budget >= 2:
            for sub in complete_proofs(inst.premises[0], budget - 1, system):
                yield eager(inst, sub)
        elif inst.arity == 2 and budget >= 3:
            for lhs in complete_proofs(inst.premises[0], budget - 2, system):
                rest = budget - 1 - lhs.size()
                for rhs in complete_proofs(inst.premises[1], rest, system):
                    yield eager(inst, lhs, rhs)


def graft(p, depth, repl):
    """A copy of lazy proof ``p`` in which, on every branch, the subtree
    hanging below the ``depth``-th box right premise is replaced by
    ``repl(sequent)``.  The replacement must prove the same sequent, so
    the original and the graft agree up to fragment depth ``depth``."""
    if depth <= 0:
        return repl(p.root)

    def make(i):
        d = depth - 1 if (p.rule == Rule.BOX_INF and i == 1) else depth
        return graft(p.child(i), d, repl)

    return LazyProof(p.inst, make=make)


def refl_chain(n):
    """A finitary cyclic proof of  []p => q, p  that applies ``refl`` on
    []p ``n`` times and closes with ``ax_general`` on p; node ``i`` sits
    at depth ``i``."""
    s = parse_sequent('[]p => q, p')
    nodes = {}
    for i in range(n):
        inst = refl(s, Box(P))
        nodes[i] = CyclicNode(s, inst, (i + 1,))
        s = inst.premises[0]
    nodes[n] = CyclicNode(s, ax_general(s, P))
    return CyclicProof(nodes, 0, {}, System.GRZ_SEQ)


def loaded_cut_composition(a, b, c):
    """The finitary proof with cut of  a => c, loaded from its JSON: the
    cut on b of proofs of  a => b  and  b => c  found by ``decide`` and
    translated by ``inf_to_seq``.  Equal steps recur in it, and so do
    equal subproofs."""
    a, b, c = map(parse_formula, (a, b, c))
    halves = [inf_to_seq(unravel(decide(Sequent(mset(x), mset(y))).proof))
              for x, y in ((a, b), (b, c))]
    return load_proof(dump_proof(cyclic_from_wf(
        build_cut(halves[0], halves[1], b), System.GRZ_SEQ_CUT)))


def proof_to_json(proof):
    """The JSON object of a cyclic proof, built field by field: the
    reference that ``dump_proof``'s hand-written text must equal under
    ``json.dumps(..., indent=2)``."""
    texts = PrintMemo()

    def node_json(i, n):
        d = {
            'id': i,
            'sequent': format_sequent(n.sequent, texts),
            'rule': n.inst.rule.value if n.inst else None,
            'principal': None,
            'children': list(n.children),
        }
        if n.inst is not None:
            if n.inst.principal is not None:
                d['principal'] = texts[n.inst.principal]
            if n.inst.cut_formula is not None:
                d['cut_formula'] = texts[n.inst.cut_formula]
        return d

    return {
        'system': proof.system.value,
        'nodes': [node_json(i, proof.nodes[i]) for i in sorted(proof.nodes)],
        'backlinks': {str(a): d for a, d in sorted(proof.backlinks.items())},
    }


def reference_mask(model, f):
    """Bitmask of worlds of ``model`` satisfying ``f``, by recursion on
    ``f``: a check on ``truth_mask``, which runs the oracle's compiled
    evaluator."""
    full = (1 << model.size) - 1
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Atom):
        return model.val(f.name)
    if isinstance(f, Implies):
        return (full & ~reference_mask(model, f.left)
                | reference_mask(model, f.right))
    inner = reference_mask(model, f.inner)
    mask = 0
    for w in range(model.size):
        if model.order[w] & ~inner == 0:
            mask |= 1 << w
    return mask


def eval_formula(model, world, f):
    """Does ``f`` hold at ``world`` of ``model``?  Independent of the
    program's evaluator."""
    return bool(reference_mask(model, f) & (1 << world))


def brute_force_orders(n):
    """All reflexive partial orders on n worlds, up to isomorphism: every
    relation on n worlds, as a bitmask over the pairs (i, j), i != j, in
    order, is filtered by ``_order_fault`` and canonicalized under every
    relabelling, and the first of each class is kept.  The reference for
    ``prover.enumerate_orders``."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        order = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits & (1 << k):
                order[i] |= 1 << j
        if _order_fault(order, n):
            continue
        canon = min(
            tuple(sorted(_relabel(order, perm)))
            for perm in itertools.permutations(range(n)))
        if canon in seen:
            continue
        seen.add(canon)
        out.append(tuple(order))
    return tuple(out)


def reference_to_cyclic(snode):
    """The cyclic proof of a search result, every place of a shared result
    built node by node: the reference for ``prover._to_cyclic``, which
    copies a shared subtree without back-links.  Its nodes are numbered in
    preorder.  A back-link leaf links to the newest fresh crossing above it
    with its sequent, leaving out the newest of all, as search's history
    did."""
    nodes = {}
    backlinks = {}

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
        nodes[i] = None       # holds id i until the node is built
        kids = []
        for k, ch in enumerate(children):
            # A fresh crossing joins the branch history.
            fresh = crossing(inst.rule, k) and ch[1] is not None
            kids.append(build(ch, crossings + ((ch[0], len(nodes)),)
                              if fresh else crossings))
        nodes[i] = CyclicNode(sequent, inst, tuple(kids))
        return i

    build(snode, ())
    return CyclicProof(nodes, 0, backlinks, System.GRZ_INF)
