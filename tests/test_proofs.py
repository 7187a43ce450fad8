import gc
import io
import json
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

from grzproofs.calculus import (
    Rule, System, ax_atom, ax_general, imp_l, imp_r, refl,
)
from grzproofs import proofs, syntax
from grzproofs.cli import random_wf_proof
from grzproofs.examples import grz_axiom_cyclic_proof
from grzproofs.proofs import (
    CyclicNode, CyclicProof, Distance, LazyProof, check_cyclic, check_wf,
    cutfree_to_depth, cyclic_from_wf, distance, dump_proof, eager, frag_eq,
    leaf, load_proof, local_height, proof_from_json, proof_to_dot,
    unravel, validate_to_depth, wf_from_cyclic,
)
from grzproofs.prover import decide
from grzproofs.syntax import (
    Atom, Box, Implies, Sequent, mset, parse_formula, parse_sequent,
)
from grzproofs.transforms import (
    build_cut, eliminate_cuts, grz_schema_proof, inf_to_seq, regularize,
    seq_to_inf, slim,
)

from helpers import loaded_cut_composition, proof_to_json, refl_chain

P, Q = Atom('p'), Atom('q')


@pytest.fixture(scope='module')
def example():
    return grz_axiom_cyclic_proof()


def small_wf_proof():
    """p => p -> p in the finitary calculus."""
    c = parse_sequent('p => p -> p')
    inst = imp_r(c, Implies(P, P))
    ax = ax_general(inst.premises[0], P)
    return eager(inst, leaf(ax))


def preorder(p):
    """The rule instances of a finite proof, in preorder."""
    out, stack = [], [p]
    while stack:
        q = stack.pop()
        out.append(q.inst)
        stack.extend(reversed(q.children))
    return out


class TestBundledExample:
    def test_is_a_valid_cyclic_proof(self, example):
        assert check_cyclic(example).ok

    def test_proves_the_grz_axiom_sequent(self, example):
        root = example.node(example.root)
        assert root.sequent == parse_sequent('[]([](p -> []p) -> p) => p')

    def test_has_nine_rules_and_one_backlink(self, example):
        assert example.size() == 10
        assert len(example.backlinks) == 1

    def test_local_height_is_four(self, example):
        assert local_height(unravel(example)) == 4

    def test_unraveling_shares_the_backlink_target(self, example):
        r = unravel(example)
        loop = r.child(0).child(1).child(1).child(0).child(1)
        assert loop is r

    def test_unraveling_validates_deeply(self, example):
        assert validate_to_depth(unravel(example), System.GRZ_INF, 12).ok

    def test_a_report_is_true_when_the_proof_is_valid(self, example):
        assert bool(check_cyclic(example)) is True
        nodes = dict(example.nodes)
        last = max(nodes)
        nodes[last] = replace(nodes[last], sequent=parse_sequent('=> p'))
        assert bool(check_cyclic(CyclicProof(
            nodes, example.root, example.backlinks, example.system))) is False


class TestlazyProofs:
    def test_child_validates_the_premise(self):
        c = parse_sequent('p => p -> p')
        inst = imp_r(c, Implies(P, P))
        wrong = leaf(ax_general(parse_sequent('q => q'), Q))
        p = eager(inst, wrong)
        with pytest.raises(Exception):
            p.child(0)

    def test_eager_and_node_agree(self, example):
        r = unravel(example)
        assert r.rule == Rule.REFL
        assert not r.is_leaf
        assert len(r.children) == 1

    def test_a_made_child_of_another_sequent_is_rejected_alike(self):
        inst = imp_r(parse_sequent('p => p -> p'), Implies(P, P))
        wrong = leaf(ax_general(parse_sequent('q => q'), Q))
        texts = []
        for p in (eager(inst, wrong), LazyProof(inst, make=lambda k: wrong)):
            with pytest.raises(ValueError) as e:
                p.child(0)
            texts.append(str(e.value))
        assert texts == ['child 0 proves q => q, expected premise '
                         'p, p => p (rule imp_r at p => p -> p)'] * 2

    def test_repr_names_the_rule_and_the_root(self):
        p = leaf(ax_atom(parse_sequent('p => p'), P))
        assert repr(p) == 'LazyProof(ax_atom @ p => p)'

    def test_a_wrong_number_of_children_is_rejected(self):
        inst = imp_r(parse_sequent('p => p -> p'), Implies(P, P))
        with pytest.raises(ValueError,
                           match='^arity mismatch: 0 thunks for 1 premises$'):
            LazyProof(inst, [])
        with pytest.raises(ValueError,
                           match='^arity mismatch: 2 thunks for 1 premises$'):
            LazyProof(inst, [small_wf_proof().child(0)] * 2)

    def test_a_node_forced_in_full_holds_no_closure(self):
        inst = imp_l(parse_sequent('p, p -> p => p'), Implies(P, P))

        class State:
            pass

        state = State()
        alive = weakref.ref(state)

        def make(k, state=state):
            return leaf(ax_general(inst.premises[k], P))

        p = LazyProof(inst, make=make)
        del state, make
        p.child(1)
        gc.collect()
        assert alive() is not None      # premise 0 may still need it
        p.child(0)
        gc.collect()
        assert alive() is None
        assert [c.root for c in p.children] == list(inst.premises)


class TestFragments:
    def test_zero_fragment_equivalence_is_total(self, example):
        a = unravel(example)
        b = unravel(grz_schema_proof(Q))
        assert frag_eq(a, b, 0)
        assert frag_eq(b, a, 0)

    def test_frag_eq_is_reflexive_at_every_depth(self, example):
        a = unravel(example)
        for n in range(6):
            assert frag_eq(a, a, n)

    def test_distance_of_a_proof_to_itself_is_a_bound(self, example):
        a = unravel(example)
        d = distance(a, a, 10)
        assert not d.exact
        assert d.value == Distance(d.value, False).value
        assert float(d.value) == 2 ** -10

    def test_a_distance_prints_as_a_value_or_a_bound(self):
        assert str(Distance(Fraction(1, 4), True)) == '1/4'
        assert str(Distance(Fraction(1, 1024), False)) == '<= 1/1024'

    def test_distance_of_distinct_proofs_is_exact(self, example):
        a = unravel(example)
        b = unravel(grz_schema_proof(Q))
        d = distance(a, b, 10)
        assert d.exact and float(d.value) == 1.0

    def test_distance_is_symmetric(self, example):
        a = unravel(example)
        b = unravel(grz_schema_proof(P))
        assert distance(a, b, 8) == distance(b, a, 8)


class TestCutDepth:
    def test_cutfree_on_the_example(self, example):
        assert cutfree_to_depth(unravel(example), 10)

    def test_detects_a_cut(self):
        from grzproofs.transforms import wk
        from grzproofs.syntax import mset, EMPTY
        lft = wk(small_wf_proof(), EMPTY, mset(Q))
        rgt = wk(small_wf_proof(), mset(Q), EMPTY)
        both = build_cut(lft, rgt, Q)
        assert both.inst.rule == Rule.CUT
        assert not cutfree_to_depth(both, 1)


class TestWfProofs:
    def test_check_wf_accepts_a_valid_proof(self):
        assert check_wf(small_wf_proof(), System.GRZ_SEQ).ok

    def test_check_wf_rejects_wrong_child(self):
        c = parse_sequent('p => p -> p')
        inst = imp_r(c, Implies(P, P))
        bad = eager(inst, leaf(ax_general(parse_sequent('q => q'), Q)))
        assert not check_wf(bad, System.GRZ_SEQ).ok

    def test_validate_to_depth_reports_a_child_it_cannot_use(self):
        # A child built on demand that proves another sequent, and one
        # whose step its rule rejects: each is reported, not raised.
        inst = imp_r(parse_sequent('p => p -> p'), Implies(P, P))
        q = parse_sequent('q => q')
        for principal, violation in (
                (Q, 'child 0 proves q => q, expected premise p, p => p '
                    '(rule imp_r at p => p -> p)'),
                (P, 'ax_general: principal formula must occur on both '
                    'sides of q => q')):
            lazy = LazyProof(
                inst, make=lambda i, a=principal: leaf(ax_general(q, a)))
            report = validate_to_depth(lazy, System.GRZ_SEQ, 1)
            assert report.violations == [violation]

    def test_wf_cyclic_round_trip(self):
        wf = small_wf_proof()
        cyc = cyclic_from_wf(wf, System.GRZ_SEQ)
        assert not cyc.backlinks
        assert preorder(wf_from_cyclic(cyc)) == preorder(wf)

    def test_wf_from_cyclic_rejects_back_links(self, example):
        with pytest.raises(ValueError,
                           match='^proof has back-links; not well-founded$'):
            wf_from_cyclic(example)

    def test_wf_from_cyclic_rejects_a_child_cycle(self):
        c = refl_chain(3)
        nodes = dict(c.nodes)
        nodes[2] = CyclicNode(nodes[2].sequent, nodes[2].inst, (1,))
        del nodes[3]
        with pytest.raises(ValueError, match='node 1 is reached twice'):
            wf_from_cyclic(CyclicProof(nodes, 0, {}, c.system))

    def test_deep_proofs_round_trip(self):
        c = refl_chain(1200)
        assert check_wf(wf_from_cyclic(c)).ok
        again = cyclic_from_wf(wf_from_cyclic(c), System.GRZ_SEQ)
        assert dump_proof(again) == dump_proof(c)


class TestSerialization:
    def test_json_round_trip(self, example):
        data = json.loads(dump_proof(example))
        back = proof_from_json(data)
        assert json.loads(dump_proof(back)) == data
        assert check_cyclic(back).ok

    def test_json_is_actual_json(self, example):
        text = dump_proof(example)
        json.loads(text)
        again = load_proof(text)
        assert json.loads(dump_proof(again)) == json.loads(text)

    def test_file_round_trip(self, example, tmp_path):
        path = tmp_path / 'proof.json'
        path.write_text(dump_proof(example))
        with open(path) as fp:
            again = load_proof(fp)
        assert json.loads(dump_proof(again)) == \
            json.loads(dump_proof(example))

    def test_dot_export_marks_backlinks(self, example):
        dot = proof_to_dot(example)
        assert dot.startswith('digraph')
        assert 'dashed' in dot
        assert 'refl' in dot

    def test_dump_writes_what_json_dumps_writes(self, example,
                                                cutfree_chain_json):
        rng = random.Random(0)
        corpus = [cyclic_from_wf(random_wf_proof(rng), System.GRZ_SEQ_CUT)
                  for _ in range(30)]
        proofs = [example, load_proof(cutfree_chain_json)] + corpus
        insts = [n.inst for p in proofs for n in p.nodes.values() if n.inst]
        assert any(p.backlinks for p in proofs)
        assert any(not p.backlinks for p in proofs)
        assert any(i.cut_formula is not None for i in insts)
        assert any(i.arity == 0 for i in insts)
        for p in proofs:
            text = json.dumps(proof_to_json(p), indent=2)
            assert dump_proof(p) == text
            fp = io.StringIO()
            dump_proof(p, fp)
            assert fp.getvalue() == text + '\n'

    def test_a_node_id_is_its_key(self):
        s = parse_sequent('[]p => p')
        inst = refl(s, Box(P))
        premise = inst.premises[0]
        proof = CyclicProof({0: CyclicNode(s, inst, (5,)),
                             5: CyclicNode(premise, ax_atom(premise, P))},
                            0, {}, System.GRZ_INF)
        assert check_cyclic(proof).ok
        text = dump_proof(proof)
        again = load_proof(text)
        assert again.root == 0
        assert {i: n.children for i, n in again.nodes.items()} == \
            {0: (5,), 5: ()}
        assert dump_proof(again) == text

    def test_finitary_proof_serializes(self):
        cyc = cyclic_from_wf(small_wf_proof(), System.GRZ_SEQ)
        again = load_proof(dump_proof(cyc))
        assert again.system == System.GRZ_SEQ
        assert json.loads(dump_proof(again)) == json.loads(dump_proof(cyc))


@pytest.fixture(scope='module')
def cutfree_chain_json():
    """The cut-free JSON of the  []([](p -> []p) -> p) | [][]p | []p  cut
    composition: many nodes share their sequent with a parent's premise."""
    a, b, c = map(parse_formula, ('[]([](p -> []p) -> p)', '[][]p', '[]p'))
    halves = [inf_to_seq(unravel(decide(Sequent(mset(x), mset(y))).proof))
              for x, y in ((a, b), (b, c))]
    wf = build_cut(halves[0], halves[1], b)
    return dump_proof(regularize(slim(eliminate_cuts(seq_to_inf(wf)))))


class TestLoad:
    def test_each_distinct_sequent_is_parsed_once(self, cutfree_chain_json,
                                                  monkeypatch):
        texts = []

        def counting(text, formulas=None):
            texts.append(text)
            return parse_sequent(text)

        monkeypatch.setattr(proofs, 'parse_sequent', counting)
        proof = load_proof(cutfree_chain_json)
        distinct = {n['sequent']
                    for n in json.loads(cutfree_chain_json)['nodes']}
        assert len(proof.nodes) > len(distinct)
        assert sorted(texts) == sorted(distinct)

    def test_each_distinct_formula_text_is_parsed_once(self,
                                                       cutfree_chain_json,
                                                       monkeypatch):
        texts = []

        def counting(text):
            texts.append(text)
            return parse_formula(text)

        monkeypatch.setattr(syntax, 'parse_formula', counting)
        load_proof(cutfree_chain_json)
        items, distinct = 0, set()
        for n in json.loads(cutfree_chain_json)['nodes']:
            for side in n['sequent'].split(' => '):
                for text in filter(None, side.split(', ')):
                    items += 1
                    distinct.add(text)
            distinct.update(n[k] for k in ('principal', 'cut_formula')
                            if n.get(k))
        assert items > len(distinct)
        assert sorted(texts) == sorted(distinct)

    @pytest.mark.parametrize('sequent, principal, message', [
        ('p => q & $', 'p', "unexpected character '$' at position 4 in "
                            "'q & $'"),
        ('(p, q) => p', 'p', "unexpected end of input in '(p'"),
        ('p => p', 'p &', "unexpected end of input in 'p &'"),
    ])
    def test_a_parse_error_names_the_formula_it_failed_on(self, sequent,
                                                          principal,
                                                          message):
        text = json.dumps({'system': 'grz_inf', 'nodes': [
            {'id': 0, 'sequent': sequent, 'rule': 'ax_atom',
             'principal': principal, 'children': []}]})
        with pytest.raises(ValueError) as e:
            load_proof(text)
        assert str(e.value) == message

    def test_dump_load_dump_is_byte_identical(self, cutfree_chain_json):
        bundled = (resources.files('grzproofs') / 'data'
                   / 'grz_axiom_cyclic.json').read_text()
        for text in (cutfree_chain_json, bundled):
            once = dump_proof(load_proof(text))
            assert dump_proof(load_proof(once)) == once
        assert once + '\n' == bundled


def _node(i, rule, principal, children, **extra):
    return dict(id=i, sequent='p => q', rule=rule, principal=principal,
                children=children, **extra)


# A grz_inf_cut proof whose two leaves record one and the same wrong step:
# ax_atom on p, which is not in the succedent of p => q.  The cut above
# them records both premises as p => q, so they prove its premises.
REPEATED_WRONG_STEP = json.dumps({
    'system': 'grz_inf_cut',
    'nodes': [_node(0, 'cut', None, [1, 2], cut_formula='r'),
              _node(1, 'ax_atom', 'p', []),
              _node(2, 'ax_atom', 'p', [])],
    'backlinks': {}})

_CUT_PREMISES = ("cut: premises ['p => q', 'p => q'] do not match the rule "
                 "schema (expected ['p => q, r', 'p, r => q'])")
_AX_ATOM = 'ax_atom: principal atom must occur on both sides of p => q'


def _rule_nodes(proof_json):
    """The node entries of a proof's JSON that record a rule, grouped by
    the step they record: rule, sequent, premises, principal and cut
    formula."""
    nodes = json.loads(proof_json)['nodes']
    sequent = {n['id']: n['sequent'] for n in nodes}
    groups = {}
    for n in nodes:
        if n['rule'] is not None:
            key = (n['rule'], n['sequent'], n['principal'],
                   n.get('cut_formula'),
                   tuple(sequent[c] for c in n['children']))
            groups.setdefault(key, []).append(n['id'])
    return list(groups.values())


class TestSharedSteps:
    """A loaded proof holds one step object per distinct step; the checks
    and the translation do their work once per step object."""

    def test_two_equal_steps_are_one_object(self):
        nodes = load_proof(REPEATED_WRONG_STEP).nodes
        assert nodes[1].inst is nodes[2].inst

    def test_every_group_of_equal_steps_is_one_object(self,
                                                      cutfree_chain_json):
        nodes = load_proof(cutfree_chain_json).nodes
        groups = _rule_nodes(cutfree_chain_json)
        assert sum(map(len, groups)) > 2 * len(groups)
        for ids in groups:
            assert all(nodes[i].inst is nodes[ids[0]].inst for i in ids)
        assert len({id(nodes[ids[0]].inst) for ids in groups}) == len(groups)

    def test_a_repeated_wrong_step_is_reported_at_each_node(self):
        # The lists the checks gave before steps were shared: one entry per
        # node, in node order.
        proof = load_proof(REPEATED_WRONG_STEP)
        assert check_cyclic(proof).violations == [
            _CUT_PREMISES, _AX_ATOM, _AX_ATOM]
        wf = wf_from_cyclic(proof)
        assert check_wf(wf).violations == [
            'cut: not available in grz_seq', _CUT_PREMISES,
            'ax_atom: not available in grz_seq', _AX_ATOM,
            'ax_atom: not available in grz_seq', _AX_ATOM]
        assert check_wf(wf, System.GRZ_INF_CUT).violations == [
            _CUT_PREMISES, _AX_ATOM, _AX_ATOM]
        assert validate_to_depth(unravel(proof), System.GRZ_INF_CUT,
                                 1).violations == [
            _CUT_PREMISES, _AX_ATOM, _AX_ATOM]

    def test_inf_to_seq_shares_the_translation_of_equal_steps(
            self, cutfree_chain_json):
        wf = inf_to_seq(unravel(load_proof(cutfree_chain_json)))
        positions, objects, stack = 0, set(), [wf]
        while stack:
            p = stack.pop()
            positions += 1
            objects.add(id(p))
            stack.extend(p.children)
        assert check_wf(wf).ok
        assert 2 * len(objects) < positions


def _refl_pair(leaf_rule):
    """A grz_inf_cut proof whose cut has two equal ``refl`` steps over
    the leaves 3 and 4, each a ``leaf_rule`` step on p, or a node
    without a rule when ``leaf_rule`` is None."""
    principal = None if leaf_rule is None else 'p'
    return json.dumps({
        'system': 'grz_inf_cut',
        'nodes': [_node(0, 'cut', None, [1, 2], cut_formula='r'),
                  _node(1, 'refl', '[]p', [3]), _node(2, 'refl', '[]p', [4]),
                  _node(3, leaf_rule, principal, []),
                  _node(4, leaf_rule, principal, [])],
        'backlinks': {}})


_REFL = 'refl principal []p not in antecedent of p => q'


def _subtree_keys(proof):
    """Each node id of a finite cyclic proof with a value that two ids
    share exactly when their subtrees record equal steps, node by node:
    rule, sequent, principal and cut formula."""
    order, stack = [], [proof.root]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(proof.nodes[i].children)
    key = {}
    for i in reversed(order):
        n, inst = proof.nodes[i], proof.nodes[i].inst
        step = (None if inst is None
                else (inst.rule, inst.principal, inst.cut_formula))
        key[i] = (n.sequent, step, tuple(key[c] for c in n.children))
    return key


class TestSharedSubproofs:
    """``wf_from_cyclic`` builds one lazy node per distinct subtree."""

    def test_equal_subtrees_are_one_node(self):
        # The input of the  G(p) | []p | [][][]p  cut composition: 43
        # nodes, 28 distinct subtrees.
        proof = loaded_cut_composition('[]([](p -> []p) -> p)', '[]p',
                                       '[][][]p')
        key = _subtree_keys(proof)
        positions, stack = [], [(proof.root, wf_from_cyclic(proof))]
        while stack:
            i, p = stack.pop()
            positions.append((i, p))
            stack.extend(zip(proof.nodes[i].children, p.children))
        assert len(positions) == len(proof.nodes) == 43
        node_of = {}
        for i, p in positions:
            assert node_of.setdefault(key[i], p) is p
        assert len({id(p) for _, p in positions}) == len(node_of) == 28

    def test_a_shared_invalid_subtree_is_reported_at_each_position(self):
        proof = load_proof(_refl_pair('ax_atom'))
        wf = wf_from_cyclic(proof)
        assert wf.child(0) is wf.child(1)
        expected = [_CUT_PREMISES, _REFL, _AX_ATOM, _REFL, _AX_ATOM]
        assert check_cyclic(proof).violations == expected
        assert check_wf(wf, System.GRZ_INF_CUT).violations == expected

    def test_a_node_without_a_rule_is_not_shared(self):
        # Nodes 1 and 2 record one step, but over two different nodes
        # without a rule: each keeps its own node and its own message.
        wf = wf_from_cyclic(load_proof(_refl_pair(None)))
        left, right = wf.children
        assert left is not right
        for i, p in ((3, left), (4, right)):
            with pytest.raises(ValueError, match=(
                    '^node %d has no rule and no back-link$' % i)):
                p.child(0)


class TestCheckCyclicRejections:
    def test_missing_root(self, example):
        broken = CyclicProof(dict(example.nodes), 99, dict(example.backlinks),
                             example.system)
        assert not check_cyclic(broken).ok

    def test_unreachable_node(self, example):
        nodes = dict(example.nodes)
        nodes[42] = CyclicNode(parse_sequent('p => p'), None)
        broken = CyclicProof(nodes, example.root, dict(example.backlinks),
                             example.system)
        report = check_cyclic(broken)
        assert not report.ok
        assert any('unreachable' in v for v in report.violations)

    @pytest.mark.parametrize('i, children, unreached', [
        # Node 9, a back-link leaf, lists a missing child: every node is
        # still reached.
        (9, (77,), None),
        # Node 1 lists a missing child in place of node 2, which no walk
        # reaches now.
        (1, (77, 3), 'unreachable nodes present: [2]'),
    ], ids=['leaf', 'inner'])
    def test_a_missing_child_and_unreached_nodes(self, example, i, children,
                                                 unreached):
        nodes = dict(example.nodes)
        nodes[i] = replace(nodes[i], children=children)
        report = check_cyclic(CyclicProof(nodes, example.root,
                                          example.backlinks, example.system))
        assert 'node id 77 missing' in report.violations
        assert [v for v in report.violations
                if v.startswith('unreachable')] == (
                    [unreached] if unreached else [])

    def test_malformed_nodes(self, example):
        nodes = example.nodes
        for i, change, violation in (
                (6, {'children': (77,)}, 'node id 77 missing'),
                (9, {'inst': nodes[0].inst},
                 'node 9 has both a rule and a back-link'),
                (2, {'sequent': parse_sequent('p => p')},
                 'node 2 sequent disagrees with its rule conclusion'),
                (2, {'children': (8,)},
                 'node 2 has 1 children for 0 premises'),
                (9, {'children': (8,)},
                 'back-link leaf 9 lists children [8]')):
            broken = dict(nodes)
            broken[i] = replace(nodes[i], **change)
            report = check_cyclic(CyclicProof(broken, example.root,
                                              example.backlinks,
                                              example.system))
            assert violation in report.violations

    def test_backlink_to_itself(self, example):
        # A leaf is not its own proper ancestor.
        broken = CyclicProof(example.nodes, example.root, {9: 9},
                             example.system)
        assert check_cyclic(broken).violations == [
            'back-link target 9 is not an ancestor of 9']
