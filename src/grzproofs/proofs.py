"""Proof objects: lazy proof trees and cyclic graphs.

Two representations, with conversions:

* ``LazyProof``   -- a demand-driven, possibly infinite proof tree.  Each
                     node stores its rule instance and one list of its
                     children or callables that build them once, so
                     transformations can inspect a finite part of an input
                     and still produce every node of an infinite output on
                     demand.  A finite proof has its children in place
                     (``leaf``, ``eager``); a callable is given the
                     premise index;
* ``CyclicProof`` -- a finite tree plus back-links from leaves to inner
                     ancestors, denoting a regular infinite tree.  A
                     node's id is its key in ``nodes``.  Every builder
                     (``cyclic_from_wf``, ``regularize`` and proof search)
                     numbers a node in preorder as it adds it, and appends
                     that id to its parent's children; a loaded proof
                     keeps the ids of its file.

A branch of an infinite proof is *guarded* when it passes through the right
premise of the two-premise box rule (``calculus.crossing``) infinitely
often.  Checking guardedness on a lazy tree is impossible in general; it
is checked on the finite ``CyclicProof`` presentation (where it amounts
to a condition on back-link cycles) and preserved by construction
everywhere else.

The *n-fragment* of a lazy proof is the finite tree obtained by cutting
every branch at its n-th crossing of a box right premise; the cut points
become open leaves.  The 0-fragment is a single open leaf.  Local height,
fragment equivalence and the proof metric are all defined from fragments;
each walks the n-fragment of the lazy proof in place, without building it.

Proofs serialize to JSON.  Loading parses each distinct sequent text and
each distinct formula text once, and builds one ``RuleInstance`` per
distinct step, shared by every node that records it; dumping prints each
distinct formula once.  ``check_cyclic``, ``check_wf`` and ``inf_to_seq``
key their work by step object, so each distinct step of a loaded proof is
checked once and translated once per context.  ``wf_from_cyclic`` builds
one lazy node per distinct subtree of a finite proof, so the transformers
work each one once.  Every memo lives for one call.  Dumping writes the
indented layout of ``json.dumps(..., indent=2)`` itself, byte for byte.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
    Sequent, ParseMemo, PrintMemo, format_sequent, parse_sequent,
)
from .calculus import (
    Rule, RuleInstance, System, crossing, step_violations, _CUT,
)


class ResourceLimitError(Exception):
    """A search or a fold ran past one of its caps: the input may be
    fine, and a larger cap may succeed."""


# ---------------------------------------------------------------------------
# Lazy proofs


class LazyProof:
    """A node of a (possibly infinite) proof, identified with the proof
    rooted at it.  Each entry of ``kids`` is a child or a callable that
    builds it from the premise index, and ``make`` is one such callable
    for all premises; a forced entry holds the child, so a fully forced
    node keeps no transformer state.  A child is checked against its
    premise when first asked for, until which bit i of ``_open`` is set.
    The transformers build each child at its parent's premise object
    itself, where the check ends at the identity test of
    ``Sequent.__eq__``; a child made elsewhere, such as the input node an
    inversion puts in place of the step on its target, is compared by
    value."""

    __slots__ = ('inst', '_kids', '_open')

    def __init__(self, inst, kids=(), make=None):
        kids = [make] * inst.arity if make is not None else list(kids)
        if len(kids) != len(inst.premises):
            raise ValueError('arity mismatch: %d thunks for %d premises'
                             % (len(kids), len(inst.premises)))
        self.inst = inst
        self._kids = kids
        self._open = (1 << len(kids)) - 1

    @property
    def root(self):
        return self.inst.conclusion

    @property
    def rule(self):
        return self.inst.rule

    def child(self, i):
        c = self._kids[i]
        if self._open >> i & 1:
            if c.__class__ is not LazyProof:
                c = c(i)
            if c.root != self.inst.premises[i]:
                raise ValueError(
                    'child %d proves %s, expected premise %s (rule %s at %s)'
                    % (i, c.root, self.inst.premises[i],
                       self.inst.rule.value, self.root))
            self._kids[i] = c
            self._open &= ~(1 << i)
        return c

    @property
    def children(self):
        return tuple(map(self.child, range(len(self._kids))))

    @property
    def is_leaf(self):
        return not self._kids

    def size(self):
        """Number of nodes of a finite proof, counting a shared node once
        per position."""
        return sum(1 for _ in walk_to_depth(self, math.inf))

    def __repr__(self):
        return 'LazyProof(%s @ %s)' % (self.inst.rule.value, self.root)


def leaf(inst):
    return LazyProof(inst, ())


def eager(inst, *children):
    """A node whose children are already built."""
    return LazyProof(inst, children)


# ---------------------------------------------------------------------------
# Fragments


def local_height(proof):
    """Height of the 1-fragment: the length of the longest branch up to
    the first crossing of a box right premise.  The crossing child is
    forced and counts as an open leaf one edge below its parent."""
    best = 0
    stack = [(proof, 0)]
    while stack:
        p, d = stack.pop()
        best = max(best, d)
        for i in range(p.inst.arity):
            c = p.child(i)
            if crossing(p.rule, i):
                best = max(best, d + 1)
            else:
                stack.append((c, d + 1))
    return best


def frag_eq(a, b, n):
    """Fragment equivalence: do ``a`` and ``b`` agree up to depth ``n``?

    Nodes are compared by rule name, conclusion, premises and cut formula;
    the recorded principal-formula annotation is not part of proof identity.
    At ``n = 0`` every pair of proofs is equivalent.  An open leaf cut at a
    deeper crossing needs no comparison of its own: its sequent is a premise
    of the box step already compared one level up.

    The n-fragments are walked side by side: nodes that agree have equal
    premises, so the walks stay in step, and if all agree ``strict`` runs
    both to the end, so each forces the same children.
    """
    for (p, _), (q, _) in zip(walk_to_depth(a, n), walk_to_depth(b, n),
                              strict=True):
        ip, iq = p.inst, q.inst
        if (ip.rule != iq.rule or ip.conclusion != iq.conclusion
                or ip.premises != iq.premises
                or ip.cut_formula != iq.cut_formula):
            return False
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
    return not any(p.rule is _CUT for p, _ in walk_to_depth(proof, n))


def validate_to_depth(proof, system, n):
    """Check every rule step in the n-fragment against ``system``, and
    report each child of one of its steps that cannot be built or proves
    another sequent.  Every node position is reported, but
    ``step_violations`` runs once per distinct step object: a translated
    proof shares its equal steps."""
    violations = []
    check = _step_checker(system)
    stack = [(proof, 0)]
    while stack:
        p, count = stack.pop()
        if count >= n:
            continue
        violations.extend(check(p.inst))
        for i in range(p.inst.arity):
            try:
                stack.append((p.child(i), count + crossing(p.rule, i)))
            except ValueError as e:
                violations.append(str(e))
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
            stack.append((p.child(i), count + crossing(p.rule, i)))


# ---------------------------------------------------------------------------
# Finite proofs


@dataclass
class Report:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


def _step_checker(system):
    """``step_violations`` against ``system`` for one check: each distinct
    step object is checked once, and its list is reused at every node
    that holds it.  Keyed by identity, since a ``RuleInstance`` hashes by
    value, sequents and all; each entry keeps its step, so no id is reused
    while the memo lives."""
    memo = {}

    def check(inst):
        hit = memo.get(id(inst))
        if hit is None:
            hit = memo[id(inst)] = (inst, step_violations(inst, system))
        return hit[1]
    return check


def check_wf(proof, system=System.GRZ_SEQ):
    """Validate a finite proof against ``system``: ``validate_to_depth``
    with no depth bound."""
    return validate_to_depth(proof, system, math.inf)


# ---------------------------------------------------------------------------
# Cyclic proofs


@dataclass(frozen=True, slots=True)
class CyclicNode:
    """A node of a cyclic proof.  ``inst`` is None for a back-link leaf,
    in which case ``sequent`` carries the conclusion.  A node has no id of
    its own: its id is its key in ``CyclicProof.nodes``, and ``children``
    lists keys of that dict."""
    sequent: Sequent
    inst: RuleInstance = None
    children: tuple = ()

    def __init__(self, sequent, inst=None, children=()):
        # Proof search and loading build a node per step.  The generated
        # ``__init__`` of a frozen dataclass sets each field through
        # ``object.__setattr__`` and took twice as long as these setters.
        _set_sequent(self, sequent)
        _set_inst(self, inst)
        _set_children(self, children)


_set_sequent = CyclicNode.sequent.__set__
_set_inst = CyclicNode.inst.__set__
_set_children = CyclicNode.children.__set__


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
    unraveled branch guarded).  One preorder walk checks the tree shape
    and each node's step, in the order it meets them, then names the nodes
    it did not reach; then each back-link's path is walked once, and an
    edge on it crosses into a box right premise where ``regularize``
    counts one.  ``step_violations`` runs once per distinct step object,
    which a loaded proof shares among its equal steps."""
    v = []
    check = _step_checker(proof.system)
    nodes = proof.nodes
    if proof.root not in nodes:
        return Report(False, ['root id %s missing' % proof.root])

    parent = {proof.root: None}     # also holds each missing id it meets
    missing = 0
    stack = [proof.root]
    while stack:
        i = stack.pop()
        n = nodes.get(i)
        if n is None:
            v.append('node id %s missing' % i)
            missing += 1
            continue
        for c in n.children:
            if c in parent:
                v.append('node %s has two parents or is the root' % c)
                continue
            parent[c] = i
            stack.append(c)
        if n.inst is None:
            if i not in proof.backlinks:
                v.append('node %s has no rule and no back-link' % i)
            elif n.children:
                v.append('back-link leaf %s lists children %s'
                         % (i, list(n.children)))
            continue
        if i in proof.backlinks:
            v.append('node %s has both a rule and a back-link' % i)
        if n.inst.conclusion != n.sequent:
            v.append('node %s sequent disagrees with its rule conclusion' % i)
        v.extend(check(n.inst))
        if len(n.children) != n.inst.arity:
            v.append('node %s has %d children for %d premises'
                     % (i, len(n.children), n.inst.arity))
            continue
        for k, c in enumerate(n.children):
            cn = nodes.get(c)
            if cn is not None and cn.sequent != n.inst.premises[k]:
                v.append('premise %d of node %s is %s but child %s proves %s'
                         % (k, i, n.inst.premises[k], c, cn.sequent))
    if len(parent) - missing != len(nodes):
        v.append('unreachable nodes present: %s'
                 % sorted(set(nodes) - set(parent)))

    for a, d in proof.backlinks.items():
        if a not in nodes or d not in nodes:
            v.append('back-link %s -> %s references a missing node' % (a, d))
            continue
        # One walk from a's parent up to d, noting whether it takes an edge
        # into a box right premise.  A leaf is not its own proper ancestor,
        # and the edge into a is not strictly in between.
        cur, crossed = parent.get(a), False
        while cur is not None and cur != d:
            up = parent.get(cur)
            if not crossed and up is not None and nodes[up].inst is not None:
                crossed = crossing(nodes[up].inst.rule,
                                   nodes[up].children.index(cur))
            cur = up
        if cur is None:
            v.append('back-link target %s is not an ancestor of %s' % (d, a))
            continue
        if nodes[a].sequent != nodes[d].sequent:
            v.append('back-link %s -> %s connects unequal sequents' % (a, d))
        if not crossed:
            v.append('back-link %s -> %s has no box right premise strictly '
                     'in between' % (a, d))

    return Report(not v, v)


def unravel(proof):
    """The lazy infinite proof denoted by a cyclic proof.  Nodes reached
    through back-links are shared, so the result is a regular tree.  A
    rule-less node without a back-link, and a back-link to a missing or
    rule-less node, are input errors (``ValueError``)."""
    return _unravel(proof, {})


def _unravel(proof, same):
    """The lazy proof of ``proof``, one ``LazyProof`` per node id, where
    a node id that ``same`` maps to another node id is built as that
    node."""
    cache = {}

    def build(i):
        i = same.get(i, i)
        if i in cache:
            return cache[i]
        n = proof.nodes[i]
        if n.inst is None:
            if i not in proof.backlinks:
                raise ValueError('node %s has no rule and no back-link' % i)
            d = proof.backlinks[i]
            if d not in proof.nodes:
                raise ValueError('back-link %s -> %s references a missing '
                                 'node' % (i, d))
            if proof.nodes[d].inst is None:
                raise ValueError('back-link %s -> %s targets a node without '
                                 'a rule' % (i, d))
            return build(d)
        p = LazyProof(n.inst, make=lambda k: build(n.children[k]))
        cache[i] = p
        return p

    return build(proof.root)


def cyclic_from_wf(proof, system=System.GRZ_SEQ):
    """The cyclic proof, without back-links, of a finite proof, its node
    ids the preorder positions.  Iterative, so proofs of any depth
    convert."""
    order, kids = [], []
    stack = [(proof, None)]
    while stack:
        p, up = stack.pop()
        i = len(order)
        order.append(p)
        kids.append([])
        if up is not None:
            kids[up].append(i)
        stack.extend((c, i) for c in reversed(p.children))
    nodes = {i: CyclicNode(p.root, p.inst, tuple(kids[i]))
             for i, p in enumerate(order)}
    return CyclicProof(nodes, 0, {}, system)


def wf_from_cyclic(proof):
    """The finite proof denoted by a cyclic proof without back-links, one
    ``LazyProof`` per distinct subtree: two nodes with the same step
    object and equal subtrees at their children are built as one.  That
    is exact, because the subtrees denote the same finite tree and a lazy
    node is the proof rooted at it; a loaded proof holds one step object
    per distinct step, so its equal subproofs become one node.  A node
    without a rule is equal to no other node, so the error raised on
    forcing it names its own id."""
    if proof.backlinks:
        raise ValueError('proof has back-links; not well-founded')
    order = []
    seen = {proof.root}
    stack = [proof.root]
    while stack:
        i = stack.pop()
        order.append(i)
        for c in proof.nodes[i].children:
            if c in seen:
                raise ValueError('node %s is reached twice from the root' % c)
            seen.add(c)
            stack.append(c)
    # Bottom-up, each node maps to the first node with its key; a key
    # holds the mapped ids of the children, so equal keys mean equal
    # subtrees.
    same, first = {}, {}
    for i in reversed(order):
        n = proof.nodes[i]
        key = i if n.inst is None else (id(n.inst),
                                        *map(same.__getitem__, n.children))
        same[i] = first.setdefault(key, i)
    return _unravel(proof, same)


# ---------------------------------------------------------------------------
# Serialization


def _field(d, name, where):
    """Field ``name`` of the JSON object ``d``; a missing field is an
    input error naming ``where`` it is missing."""
    if not isinstance(d, dict):
        raise ValueError('%s is not a JSON object' % where)
    if name not in d:
        raise ValueError('%s has no %r field' % (where, name))
    return d[name]


def _typed(value, types, kind, name, where):
    """``value``, the ``name`` field of ``where``, if its type is one of
    ``types`` (``kind`` in words; a JSON ``true`` is no integer): anything
    else is an input error naming node and field."""
    if type(value) not in types:
        raise ValueError('%s has a %r field that is not %s'
                         % (where, name, kind))
    return value


def _link_key(a):
    """The node id written as the ``backlinks`` key ``a``, which must be
    the decimal text of an integer."""
    try:
        i = int(a)
    except ValueError:
        i = None
    if i is None or str(i) != a:
        raise ValueError("the 'backlinks' object has a key %r that is not "
                         "an integer" % a)
    return i


# Each rule by its JSON text: a dict lookup, where ``Rule(text)`` takes
# about 0.4 us.
_RULE_OF_TEXT = {r.value: r for r in Rule}


def proof_from_json(data):
    """The proof of a JSON object in the proof format.  Node ids are
    non-negative JSON integers, child ids and back-link targets JSON
    integers, back-link keys their decimal texts, no two nodes share an
    id, and each child id names a node, checked as it is read (back-links
    are left to ``check_cyclic``).  Each distinct sequent text and each
    distinct formula text is parsed once, and each distinct step -- rule,
    sequent, premises, principal and cut formula -- is one
    ``RuleInstance``, shared by every node that records it, so later
    stages can check and translate it once."""
    system = System(_field(data, 'system', 'the proof'))
    raw = {}
    for k, d in enumerate(_typed(_field(data, 'nodes', 'the proof'), (list,),
                                 'a list', 'nodes', 'the proof')):
        where = 'entry %d of nodes' % k
        i = _typed(_field(d, 'id', where), (int,), 'an integer', 'id', where)
        if i < 0:
            raise ValueError('%s has the negative id %d' % (where, i))
        if i in raw:
            raise ValueError('%s repeats the id %d' % (where, i))
        raw[i] = d
    links = _typed(data.get('backlinks', {}), (dict,), 'an object',
                   'backlinks', 'the proof')
    backlinks = {_link_key(a): _typed(d, (int,), 'an integer', a,
                                      "the 'backlinks' object")
                 for a, d in links.items()}
    # A node's sequent is also its parent's premise, and a formula occurs
    # in many sequents: parse each text once.
    parsed, formulas = {}, ParseMemo()

    def sequent(i):
        where = 'node %s' % i
        text = _typed(_field(raw[i], 'sequent', where), (str,), 'a string',
                      'sequent', where)
        s = parsed.get(text)
        if s is None:
            s = parsed[text] = parse_sequent(text, formulas)
        return s

    def formula(d, name, where):
        text = _typed(d.get(name), (str, type(None)), 'a string', name, where)
        return formulas[text] if text is not None else None

    nodes = {}
    steps = {}      # (rule text, ids of the sequents and formulas) -> step
    for i, d in raw.items():
        where = 'node %s' % i
        s = sequent(i)
        children = tuple(_typed(_field(d, 'children', where), (list,),
                                'a list', 'children', where))
        for c in children:
            _typed(c, (int,), 'a list of integers', 'children', where)
            if c not in raw:
                raise ValueError('node %s lists child %s, which has no node'
                                 % (i, c))
        if d.get('rule') is None:
            nodes[i] = CyclicNode(s, None, children)
            continue
        text = _typed(d['rule'], (str,), 'a string', 'rule', where)
        rule = _RULE_OF_TEXT.get(text) or Rule(text)    # raises if unknown
        principal = formula(d, 'principal', where)
        cutf = formula(d, 'cut_formula', where)
        premises = tuple(sequent(c) for c in children)
        # Sequents and formulas are one object per text for the whole
        # call, so ids key them; the step holds every keyed object.
        key = (text, id(s), id(principal), id(cutf), *map(id, premises))
        inst = steps.get(key)
        if inst is None:
            inst = steps[key] = RuleInstance(rule, s, premises, principal,
                                             cutf)
        nodes[i] = CyclicNode(s, inst, children)
    roots = set(nodes) - {c for n in nodes.values() for c in n.children}
    if len(roots) != 1:
        raise ValueError('proof must have exactly one root, found %s'
                         % sorted(roots))
    return CyclicProof(nodes, roots.pop(), backlinks, system)


_NODE = ('    {\n      "id": %d,\n      "sequent": %s,\n      "rule": %s,\n'
         '      "principal": %s,\n      "children": %s%s\n    }')


def _json_text(proof):
    """The JSON text of ``proof`` in the layout of ``json.dumps(...,
    indent=2)``, written directly.  With ``indent`` set, ``json`` runs its
    pure-Python encoder; writing this one fixed layout by hand gives the
    same text in half the time."""
    texts = PrintMemo()
    quote = encode_basestring_ascii
    nodes = []
    for i in sorted(proof.nodes):
        n = proof.nodes[i]
        inst = n.inst
        rule = principal = 'null'
        cut = ''
        if inst is not None:
            rule = quote(inst.rule.value)
            if inst.principal is not None:
                principal = quote(texts[inst.principal])
            if inst.cut_formula is not None:
                cut = (',\n      "cut_formula": '
                       + quote(texts[inst.cut_formula]))
        kids = ('[\n        %s\n      ]'
                % ',\n        '.join(map(str, n.children))
                if n.children else '[]')
        nodes.append(_NODE % (i,
                              quote(format_sequent(n.sequent, texts)),
                              rule, principal, kids, cut))
    links = ['"%d": %d' % link for link in sorted(proof.backlinks.items())]
    return ('{\n  "system": %s,\n  "nodes": %s,\n  "backlinks": %s\n}'
            % (quote(proof.system.value),
               '[\n%s\n  ]' % ',\n'.join(nodes) if nodes else '[]',
               '{\n    %s\n  }' % ',\n    '.join(links) if links else '{}'))


def dump_proof(proof, fp=None):
    if fp is None:
        return _json_text(proof)
    fp.write(_json_text(proof) + '\n')


def load_proof(fp_or_text):
    if isinstance(fp_or_text, str):
        return proof_from_json(json.loads(fp_or_text))
    return proof_from_json(json.load(fp_or_text))


def proof_to_dot(proof):
    """Graphviz rendering; back-links are dashed.  A back-link from or to
    an id that names no node is an input error (``ValueError``)."""
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
        if a not in proof.nodes or d not in proof.nodes:
            raise ValueError('back-link %s -> %s references a missing node'
                             % (a, d))
        lines.append('  n%d -> n%d [style=dashed, constraint=false];' % (a, d))
    lines.append('}')
    return '\n'.join(lines) + '\n'
