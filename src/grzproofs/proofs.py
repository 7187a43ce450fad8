"""Proof objects: finite trees, cyclic graphs, and lazy infinite trees.

Three representations, with conversions:

* ``WfProof``     -- a finite (well-founded) proof tree;
* ``CyclicProof`` -- a finite tree plus back-links from leaves to inner
                     ancestors, denoting a regular infinite tree;
* ``LazyProof``   -- a demand-driven, possibly infinite proof tree.  Each
                     node stores its rule instance eagerly and its children
                     as memoized thunks, so transformations can inspect a
                     finite part of an input and still produce every node
                     of an infinite output on demand.

A branch of an infinite proof is *guarded* when it passes through the right
premise of the two-premise box rule infinitely often.  Checking guardedness
on a lazy tree is impossible in general; it is checked on the finite
``CyclicProof`` presentation (where it amounts to a condition on back-link
cycles) and preserved by construction everywhere else.

The *n-fragment* of a lazy proof is the finite tree obtained by cutting
every branch at its n-th crossing of a box right premise; the cut points
become open leaves.  The 0-fragment is a single open leaf.  Local height,
fragment equivalence and the proof metric are all defined from fragments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .syntax import (
    Sequent, Multiset, format_sequent, parse_sequent, parse_formula,
)
from .calculus import (
    Rule, RuleInstance, System, AXIOM_RULES, step_violations,
)


# ---------------------------------------------------------------------------
# Lazy proofs


class LazyProof:
    """A node of a (possibly infinite) proof, identified with the proof
    rooted at it.  ``thunks`` are nullary callables producing the child
    nodes; they run at most once and are dropped once they have run, so
    a forced node does not keep the transformer state they close over."""

    __slots__ = ('inst', '_thunks', '_children')

    def __init__(self, inst, thunks=()):
        if len(thunks) != len(inst.premises):
            raise ValueError('arity mismatch: %d thunks for %d premises'
                             % (len(thunks), len(inst.premises)))
        self.inst = inst
        self._thunks = list(thunks)
        self._children = [None] * len(thunks)

    @property
    def root(self):
        return self.inst.conclusion

    @property
    def rule(self):
        return self.inst.rule

    def child(self, i):
        c = self._children[i]
        if c is None:
            c = self._thunks[i]()
            if c.root != self.inst.premises[i]:
                raise ValueError(
                    'child %d proves %s, expected premise %s (rule %s at %s)'
                    % (i, c.root, self.inst.premises[i],
                       self.inst.rule.value, self.root))
            self._children[i] = c
            self._thunks[i] = None
        return c

    @property
    def children(self):
        return tuple(self.child(i) for i in range(len(self._thunks)))

    @property
    def is_leaf(self):
        return not self._thunks

    def __repr__(self):
        return 'LazyProof(%s @ %s)' % (self.inst.rule.value, self.root)


def leaf(inst):
    return LazyProof(inst, ())


def node(inst, *thunks):
    return LazyProof(inst, thunks)


def eager(inst, *children):
    """A node whose children are already built."""
    return LazyProof(inst, tuple((lambda c=c: c) for c in children))


# ---------------------------------------------------------------------------
# Fragments


@dataclass(frozen=True)
class Fragment:
    """A finite initial part of a proof.  ``inst`` is None for an open
    leaf, in which case only ``sequent`` is meaningful."""
    sequent: Sequent
    inst: RuleInstance = None
    children: tuple = ()

    @property
    def is_open(self):
        return self.inst is None


def _crossing_child(rule, i):
    """Does the edge to child ``i`` of a ``rule`` node cross into a box
    right premise?"""
    return rule == Rule.BOX_INF and i == 1


def fragment(proof, n):
    """The n-fragment of a lazy proof.  Iterative to cope with deep trees."""
    if n <= 0:
        return Fragment(proof.root)

    # Post-order construction with an explicit stack.
    out = {}
    stack = [(proof, 0, False)]
    while stack:
        p, count, expanded = stack.pop()
        key = (id(p), count)
        if not expanded:
            if count >= n:
                out[key] = Fragment(p.root)
                continue
            stack.append((p, count, True))
            for i in range(p.inst.arity):
                cc = count + 1 if _crossing_child(p.rule, i) else count
                stack.append((p.child(i), cc, False))
        else:
            kids = []
            for i in range(p.inst.arity):
                cc = count + 1 if _crossing_child(p.rule, i) else count
                kids.append(out[(id(p.child(i)), cc)])
            out[key] = Fragment(p.root, p.inst, tuple(kids))
    return out[(id(proof), 0)]


def fragment_height(frag):
    """Longest branch length, in edges.  Open leaves count as nodes."""
    best = 0
    stack = [(frag, 0)]
    while stack:
        f, d = stack.pop()
        best = max(best, d)
        for c in f.children:
            stack.append((c, d + 1))
    return best


def local_height(proof):
    """Height of the 1-fragment: the length of the longest branch up to
    the first crossing of a box right premise."""
    return fragment_height(fragment(proof, 1))


def frag_eq(a, b, n):
    """Fragment equivalence: do ``a`` and ``b`` agree up to depth ``n``?

    Nodes are compared by rule name, conclusion, premises and cut formula;
    the recorded principal-formula annotation is not part of proof identity.
    At ``n = 0`` every pair of proofs is equivalent.  An open leaf cut at a
    deeper crossing needs no comparison of its own: its sequent is a premise
    of the box step already compared one level up.
    """
    stack = [(a, b, n)]
    while stack:
        p, q, m = stack.pop()
        if m <= 0:
            continue
        ip, iq = p.inst, q.inst
        if (ip.rule != iq.rule or ip.conclusion != iq.conclusion
                or ip.premises != iq.premises
                or ip.cut_formula != iq.cut_formula):
            return False
        for i in range(ip.arity):
            mm = m - 1 if _crossing_child(ip.rule, i) else m
            stack.append((p.child(i), q.child(i), mm))
    return True


@dataclass(frozen=True)
class Distance:
    """A proof-metric value.  When ``exact`` is false the true distance is
    merely bounded above by ``value`` (the proofs agree up to the depth
    limit used)."""
    value: Fraction
    exact: bool

    def __str__(self):
        return ('%s' if self.exact else '<= %s') % (self.value,)


def distance(a, b, max_n):
    """2^(-m) where m is the largest fragment depth at which ``a`` and
    ``b`` agree, computed up to ``max_n``."""
    m = 0
    while m < max_n and frag_eq(a, b, m + 1):
        m += 1
    return Distance(Fraction(1, 2 ** m), exact=m < max_n)


def cutfree_to_depth(proof, n):
    """Is the n-fragment free of cut?"""
    return not any(p.rule == Rule.CUT for p, _ in walk_to_depth(proof, n))


def validate_to_depth(proof, system, n):
    """Check every rule step in the n-fragment against ``system``.  Child
    sequents are checked against premises when thunks are forced."""
    violations = []
    for p, _ in walk_to_depth(proof, n):
        violations.extend(step_violations(p.inst, system))
    return Report(not violations, violations)


def walk_to_depth(proof, n):
    """Iterate over (node, crossing_count) pairs of the n-fragment's rule
    nodes, skipping open leaves.  Shared nodes are visited per position."""
    stack = [(proof, 0)]
    while stack:
        p, count = stack.pop()
        if count >= n:
            continue
        yield p, count
        for i in range(p.inst.arity):
            cc = count + 1 if _crossing_child(p.rule, i) else count
            stack.append((p.child(i), cc))


# ---------------------------------------------------------------------------
# Finite proofs


@dataclass(frozen=True)
class WfProof:
    """A finite proof tree."""
    inst: RuleInstance
    children: tuple = ()

    @property
    def root(self):
        return self.inst.conclusion

    @property
    def rule(self):
        return self.inst.rule

    def size(self):
        return 1 + sum(c.size() for c in self.children)


@dataclass
class Report:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def check_wf(proof, system=System.GRZ_SEQ):
    """Validate every step of a finite proof against ``system``."""
    violations = []
    stack = [proof]
    while stack:
        p = stack.pop()
        violations.extend(step_violations(p.inst, system))
        if len(p.children) != p.inst.arity:
            violations.append('node %s has %d children for %d premises'
                              % (p.root, len(p.children), p.inst.arity))
            continue
        for i, c in enumerate(p.children):
            if c.root != p.inst.premises[i]:
                violations.append('premise %d of %s is %s but child proves %s'
                                  % (i, p.root, p.inst.premises[i], c.root))
            stack.append(c)
    return Report(not violations, violations)


def wf_to_lazy(proof):
    return eager(proof.inst, *[wf_to_lazy(c) for c in proof.children])


# ---------------------------------------------------------------------------
# Cyclic proofs


@dataclass(frozen=True)
class CyclicNode:
    """A node of a cyclic proof.  ``inst`` is None for a back-link leaf,
    in which case ``sequent`` carries the conclusion."""
    id: int
    sequent: Sequent
    inst: RuleInstance = None
    children: tuple = ()


@dataclass
class CyclicProof:
    """A finite proof tree with back-links, read as a regular infinite
    proof by unraveling."""
    nodes: dict
    root: int
    backlinks: dict
    system: System = System.GRZ_INF

    def node(self, i):
        return self.nodes[i]

    def size(self):
        return len(self.nodes)


def check_cyclic(proof):
    """Validate a cyclic proof: tree shape, every rule step, and the
    back-link condition (target is a proper ancestor with an equal sequent
    and a box right premise strictly in between, which makes every
    unraveled branch guarded)."""
    v = []
    nodes = proof.nodes
    if proof.root not in nodes:
        return Report(False, ['root id %s missing' % proof.root])

    parent = {}
    order = []
    stack = [proof.root]
    while stack:
        i = stack.pop()
        order.append(i)
        n = nodes.get(i)
        if n is None:
            v.append('node id %s missing' % i)
            continue
        for c in n.children:
            if c in parent or c == proof.root:
                v.append('node %s has two parents or is the root' % c)
                continue
            parent[c] = i
            stack.append(c)
    if len(order) != len(nodes):
        v.append('unreachable nodes present: %s'
                 % sorted(set(nodes) - set(order)))

    for i in order:
        n = nodes.get(i)
        if n is None:
            continue
        if n.inst is None:
            if i not in proof.backlinks:
                v.append('node %s has no rule and no back-link' % i)
            continue
        if i in proof.backlinks:
            v.append('node %s has both a rule and a back-link' % i)
        if n.inst.conclusion != n.sequent:
            v.append('node %s sequent disagrees with its rule conclusion' % i)
        v.extend(step_violations(n.inst, proof.system))
        if len(n.children) != n.inst.arity:
            v.append('node %s has %d children for %d premises'
                     % (i, len(n.children), n.inst.arity))
            continue
        for k, c in enumerate(n.children):
            cn = nodes.get(c)
            if cn is not None and cn.sequent != n.inst.premises[k]:
                v.append('premise %d of node %s is %s but child %s proves %s'
                         % (k, i, n.inst.premises[k], c, cn.sequent))

    for a, d in proof.backlinks.items():
        if a not in nodes or d not in nodes:
            v.append('back-link %s -> %s references a missing node' % (a, d))
            continue
        # Path from a up to d.
        path = []
        cur = a
        while cur != d:
            if cur not in parent:
                path = None
                break
            cur = parent[cur]
            path.append(cur)
        if path is None:
            v.append('back-link target %s is not an ancestor of %s' % (d, a))
            continue
        if nodes[a].sequent != nodes[d].sequent:
            v.append('back-link %s -> %s connects unequal sequents' % (a, d))
        between = path[:-1]  # proper ancestors of a below d
        ok = False
        for b in between:
            p = parent.get(b)
            if p is not None and nodes[p].inst is not None \
                    and nodes[p].inst.rule == Rule.BOX_INF \
                    and len(nodes[p].children) == 2 \
                    and nodes[p].children[1] == b:
                ok = True
                break
        if not ok:
            v.append('back-link %s -> %s has no box right premise strictly '
                     'in between' % (a, d))

    return Report(not v, v)


def unravel(proof):
    """The lazy infinite proof denoted by a cyclic proof.  Nodes reached
    through back-links are shared, so the result is a regular tree."""
    cache = {}

    def build(i):
        if i in cache:
            return cache[i]
        n = proof.nodes[i]
        if n.inst is None:
            return build(proof.backlinks[i])
        thunks = tuple((lambda c=c: build(c)) for c in n.children)
        p = LazyProof(n.inst, thunks)
        cache[i] = p
        return p

    return build(proof.root)


def cyclic_from_wf(proof, system=System.GRZ_SEQ):
    nodes = {}
    counter = [0]

    # Assign ids in preorder: allocate before children.
    def build_pre(p):
        i = counter[0]
        counter[0] += 1
        nodes[i] = None
        kids = tuple(build_pre(c) for c in p.children)
        nodes[i] = CyclicNode(i, p.root, p.inst, kids)
        return i

    root = build_pre(proof)
    return CyclicProof(nodes, root, {}, system)


def wf_from_cyclic(proof):
    if proof.backlinks:
        raise ValueError('proof has back-links; not well-founded')

    def build(i):
        n = proof.nodes[i]
        return WfProof(n.inst, tuple(build(c) for c in n.children))

    return build(proof.root)


# ---------------------------------------------------------------------------
# Serialization


def _inst_to_json(n):
    d = {
        'id': n.id,
        'sequent': format_sequent(n.sequent),
        'rule': n.inst.rule.value if n.inst else None,
        'principal': None,
        'children': list(n.children),
    }
    if n.inst is not None:
        if n.inst.principal is not None:
            d['principal'] = str(n.inst.principal)
        if n.inst.cut_formula is not None:
            d['cut_formula'] = str(n.inst.cut_formula)
    return d


def proof_to_json(proof):
    """Serialize a cyclic (or back-link-free finite) proof to the JSON
    proof format."""
    order = sorted(proof.nodes)
    return {
        'system': proof.system.value,
        'nodes': [_inst_to_json(proof.nodes[i]) for i in order],
        'backlinks': {str(a): d for a, d in sorted(proof.backlinks.items())},
    }


def proof_from_json(data):
    system = System(data['system'])
    raw = {d['id']: d for d in data['nodes']}
    backlinks = {int(a): d for a, d in data.get('backlinks', {}).items()}
    nodes = {}
    for i, d in raw.items():
        s = parse_sequent(d['sequent'])
        children = tuple(d['children'])
        if d.get('rule') is None:
            nodes[i] = CyclicNode(i, s, None, children)
            continue
        rule = Rule(d['rule'])
        principal = (parse_formula(d['principal'])
                     if d.get('principal') else None)
        cutf = (parse_formula(d['cut_formula'])
                if d.get('cut_formula') else None)
        premises = tuple(parse_sequent(raw[c]['sequent']) for c in children)
        inst = RuleInstance(rule, s, premises, principal, cutf)
        nodes[i] = CyclicNode(i, s, inst, children)
    roots = set(nodes) - {c for d in raw.values() for c in d['children']}
    if len(roots) != 1:
        raise ValueError('proof must have exactly one root, found %s'
                         % sorted(roots))
    return CyclicProof(nodes, roots.pop(), backlinks, system)


def dump_proof(proof, fp=None):
    if fp is None:
        return json.dumps(proof_to_json(proof), indent=2)
    json.dump(proof_to_json(proof), fp, indent=2)
    fp.write('\n')


def load_proof(fp_or_text):
    if isinstance(fp_or_text, str):
        return proof_from_json(json.loads(fp_or_text))
    return proof_from_json(json.load(fp_or_text))


def proof_to_dot(proof):
    """Graphviz rendering; back-links are dashed."""
    lines = ['digraph proof {', '  node [shape=box, fontname="monospace"];']
    for i in sorted(proof.nodes):
        n = proof.nodes[i]
        label = format_sequent(n.sequent).replace('"', r'\"')
        if n.inst is not None:
            label = '%s\\n[%s]' % (label, n.inst.rule.value)
        lines.append('  n%d [label="%s"];' % (i, label))
    for i in sorted(proof.nodes):
        for c in proof.nodes[i].children:
            lines.append('  n%d -> n%d;' % (i, c))
    for a, d in sorted(proof.backlinks.items()):
        lines.append('  n%d -> n%d [style=dashed, constraint=false];' % (a, d))
    lines.append('}')
    return '\n'.join(lines) + '\n'
