import argparse
import json
import random
import time
from functools import reduce
from importlib import resources
from operator import getitem

import pytest

from grzproofs import cli
from grzproofs.calculus import RuleInstance, System, ax_atom
from grzproofs.cli import build_parser, main, random_wf_proof
from grzproofs.proofs import (
    CyclicNode, LazyProof, check_cyclic, check_wf, cyclic_from_wf,
    dump_proof, leaf, load_proof,
)
from grzproofs.prover import Verdict, decide
from grzproofs.syntax import parse_sequent
from grzproofs.transforms import build_cut, grz_schema_proof, inf_to_seq

from helpers import P, Q, proof_to_json, refl_chain

EXAMPLE = str(resources.files('grzproofs') / 'data' / 'grz_axiom_cyclic.json')


def run(*argv):
    return main(list(argv))


def node(i, sequent='p => p', children=()):
    """The proof-file entry of a node with id ``i``: an axiom on p, or a
    refl step on []p over ``children``."""
    if not children:
        return {'id': i, 'sequent': sequent, 'rule': 'ax_atom',
                'principal': 'p', 'children': []}
    return {'id': i, 'sequent': sequent, 'rule': 'refl', 'principal': '[]p',
            'children': list(children)}


class TestProve:
    def test_theorem_writes_a_proof(self, tmp_path, capsys):
        out = tmp_path / 'proof.json'
        assert run('prove', '[]p -> p', '-o', str(out)) == 0
        proof = load_proof(out.read_text())
        assert check_cyclic(proof).ok

    def test_non_theorem_writes_a_countermodel(self, capsys):
        assert run('prove', 'p -> []p') == 1
        payload = json.loads(capsys.readouterr().out)
        assert 'countermodel' in payload and 'world' in payload

    def test_sequent_goals(self, tmp_path):
        out = tmp_path / 'proof.json'
        assert run('prove', '[]p, [](p -> q) => []q', '-o', str(out)) == 0

    def test_parse_errors_exit_2(self, capsys):
        assert run('prove', 'p ->') == 2
        assert 'error' in capsys.readouterr().err

    def test_a_sequent_parse_error_names_the_formula(self, capsys):
        assert run('prove', 'p => q & $') == 2
        assert capsys.readouterr().err == (
            "error: unexpected character '$' at position 4 in 'q & $'\n")
        assert run('prove', 'p,q=>q') == 0

    def test_exhausted_search_exits_3(self, capsys):
        assert run('prove', '[]p => [][][]p', '--max-crossings', '1') == 3
        err = capsys.readouterr().err
        assert err.startswith('error: exceeded 1 box crossings at ')

    @pytest.mark.parametrize('argv, goal', [
        (('prove', 'p -> []p'), ' => p -> []p'),
        (('interpolate', 'p', '[]p'), 'p => []p'),
    ], ids=['prove', 'interpolate'])
    def test_an_exhausted_model_size_exits_3(self, capsys, argv, goal):
        # p -> []p needs a countermodel of two worlds.
        assert run(*argv, '--max-model-size', '1') == 3
        assert capsys.readouterr().err == (
            'error: search failed on %s but the oracle found no '
            'countermodel up to size 1\n' % goal)

    def test_too_deeply_nested_a_formula_exits_3(self, capsys):
        assert run('prove', '[]' * 1000 + 'p -> p') == 3
        err = capsys.readouterr().err
        assert err.startswith('error: ')
        assert err.endswith(' (input nested too deeply)\n')

    def test_running_out_of_memory_exits_3(self, monkeypatch, capsys):
        def exhausted(goal, **kwargs):
            raise MemoryError
        monkeypatch.setattr('grzproofs.cli.decide', exhausted)
        assert run('prove', 'p -> p') == 3
        assert capsys.readouterr().err == 'error: out of memory\n'

    def test_an_interpreter_failure_exits_3(self, monkeypatch, capsys):
        # Deep recursion that runs out of memory can surface as a
        # SystemError, not a MemoryError: it is no negative result.
        def failed(goal, **kwargs):
            raise SystemError('error return without exception set')
        monkeypatch.setattr('grzproofs.cli.decide', failed)
        assert run('prove', 'p -> p') == 3
        assert capsys.readouterr().err == (
            'error: error return without exception set (interpreter '
            'failure, most likely out of memory)\n')


class TestCheck:
    def test_valid_proof(self, tmp_path, capsys):
        out = tmp_path / 'proof.json'
        run('prove', 'p -> p', '-o', str(out))
        assert run('check', str(out)) == 0
        assert 'valid' in capsys.readouterr().out

    def test_corrupted_proof(self, tmp_path, capsys):
        # A wrong sequent, an axiom that records no principal formula, and
        # a box step that records a cut formula.
        out = tmp_path / 'proof.json'
        for goal, i, field, value, violation in (
                ('[]p -> p', 0, 'sequent', 'q => q', None),
                ('false -> p', 1, 'principal', None,
                 'ax_bottom: principal None does not match the rule schema '
                 '(expected false)'),
                ('[]p => []p', 1, 'cut_formula', 'q',
                 'box_inf: cut_formula q does not match the rule schema '
                 '(expected None)')):
            run('prove', goal, '-o', str(out))
            data = json.loads(out.read_text())
            data['nodes'][i][field] = value
            out.write_text(json.dumps(data))
            capsys.readouterr()
            assert run('check', str(out)) == 1
            text = capsys.readouterr().out
            assert 'invalid' in text
            if violation is not None:
                assert text == 'invalid:\n  - %s\n' % violation

    def test_an_unboxed_box_context_is_named(self, tmp_path, capsys):
        # The right premise of the box step keeps p and q, which are not
        # boxed; the message prints that multiset whole.
        axiom = {'sequent': 'p, q => p', 'rule': 'ax_atom', 'principal': 'p',
                 'children': []}
        out = tmp_path / 'proof.json'
        out.write_text(json.dumps({'system': 'grz_inf', 'nodes': [
            {'id': 0, 'sequent': 'p, q => []p', 'rule': 'box_inf',
             'principal': '[]p', 'children': [1, 2]},
            dict(axiom, id=1), dict(axiom, id=2)]}))
        assert run('check', str(out)) == 1
        assert capsys.readouterr().out == (
            'invalid:\n  - box context must be boxed: Multiset([p, q])\n')

    def test_missing_file_exits_2(self):
        assert run('check', '/no/such/file.json') == 2

    def test_the_bundled_example_is_the_schema_proof(self):
        with open(EXAMPLE) as fh:
            assert fh.read() == dump_proof(grz_schema_proof(P)) + '\n'

    def test_a_backlink_leaf_that_lists_children(self, tmp_path, capsys):
        # unravel follows the back-link and ignores the children, so
        # only check_cyclic can see them.
        with open(EXAMPLE) as fh:
            data = json.load(fh)
        data['nodes'][9]['children'] = [10]
        data['nodes'].append(node(10))
        out = tmp_path / 'proof.json'
        out.write_text(json.dumps(data))
        assert run('check', str(out)) == 1
        assert capsys.readouterr().out == (
            'invalid:\n  - back-link leaf 9 lists children [10]\n')


class TestMalformedProofJson:
    """Malformed proof files are input errors (exit 2), not tracebacks."""

    def proof_data(self, tmp_path):
        path = tmp_path / 'proof.json'
        run('prove', '[]p -> p', '-o', str(path))
        return json.loads(path.read_text())

    def assert_input_error(self, tmp_path, capsys, data, message):
        path = tmp_path / 'bad.json'
        path.write_text(json.dumps(data))
        for verb in ('check', 'cutfree', 'export-dot'):
            assert run(verb, str(path)) == 2
            assert ('error: %s' % message) in capsys.readouterr().err

    def test_child_without_a_node(self, tmp_path, capsys):
        data = self.proof_data(tmp_path)
        data['nodes'][0]['children'] = [7]
        self.assert_input_error(tmp_path, capsys, data,
                                'node 0 lists child 7, which has no node')

    def test_rule_less_node_with_a_child_without_a_node(self, tmp_path,
                                                          capsys):
        # Every child id is checked at load, on a node with a rule or
        # without one, so no verb reaches a dangling child.
        data = {'system': 'grz_seq', 'nodes': [
            {'id': 0, 'sequent': 'p => p', 'rule': None, 'children': [5]}]}
        message = 'node 0 lists child 5, which has no node'
        self.assert_input_error(tmp_path, capsys, data, message)
        path = str(tmp_path / 'bad.json')
        for argv in (['slim', path], ['regularize', path],
                     ['translate', path, '--to', 'inf']):
            assert run(*argv) == 2
            assert ('error: %s' % message) in capsys.readouterr().err

    def test_not_exactly_one_root(self, tmp_path, capsys):
        # Node 0 drops its child, so nodes 0 and 1 have no parent; or the
        # last node lists node 0, so every node has one.
        for i, children, roots in ((0, [], '[0, 1]'), (2, [0], '[]')):
            data = self.proof_data(tmp_path)
            data['nodes'][i]['children'] = children
            self.assert_input_error(
                tmp_path, capsys, data,
                'proof must have exactly one root, found %s' % roots)

    def test_document_is_not_an_object(self, tmp_path, capsys):
        self.assert_input_error(tmp_path, capsys, [1, 2],
                                'the proof is not a JSON object')

    @pytest.mark.parametrize('name', ['sequent', 'id', 'children'])
    def test_missing_node_field(self, tmp_path, capsys, name):
        data = self.proof_data(tmp_path)
        del data['nodes'][1][name]
        where = 'entry 1 of nodes' if name == 'id' else 'node 1'
        self.assert_input_error(tmp_path, capsys, data,
                                "%s has no '%s' field" % (where, name))

    @pytest.mark.parametrize('name', ['sequent', 'rule', 'principal',
                                      'cut_formula'])
    @pytest.mark.parametrize('value', [5, ['[]p']])
    def test_text_field_that_is_not_a_string(self, tmp_path, capsys, name,
                                             value):
        data = self.proof_data(tmp_path)
        data['nodes'][1][name] = value
        self.assert_input_error(
            tmp_path, capsys, data,
            "node 1 has a '%s' field that is not a string" % name)

    @pytest.mark.parametrize('data', [
        {'system': 'grz_inf', 'nodes': [
            {'id': 0, 'sequent': '=> p -> p', 'rule': 'imp_r',
             'principal': '', 'children': [1]}, node(1)]},
        {'system': 'grz_seq_cut', 'nodes': [
            {'id': 0, 'sequent': 'p => p', 'rule': 'cut',
             'cut_formula': '', 'children': [1, 2]},
            node(1, 'p => p, p'), node(2, 'p, p => p')]},
    ])
    def test_an_empty_formula_text(self, tmp_path, capsys, data):
        # An empty text is a formula text that does not parse, not a
        # missing formula.
        self.assert_input_error(tmp_path, capsys, data,
                                "unexpected end of input in ''")

    @pytest.mark.parametrize('keys, value, message', [
        (('nodes',), 5, "the proof has a 'nodes' field that is not a list"),
        (('nodes', 1, 'children'), 5,
         "node 1 has a 'children' field that is not a list"),
        (('nodes', 0, 'id'), [0],
         "entry 0 of nodes has a 'id' field that is not an integer"),
        (('nodes', 0, 'children'), [[1]],
         "node 0 has a 'children' field that is not a list of integers"),
        (('backlinks',), [1],
         "the proof has a 'backlinks' field that is not an object"),
        (('backlinks',), {'2': [1]},
         "the 'backlinks' object has a '2' field that is not an integer"),
        (('backlinks',), {'2': {'a': 1}},
         "the 'backlinks' object has a '2' field that is not an integer"),
    ])
    def test_field_of_the_wrong_json_type(self, tmp_path, capsys, keys,
                                          value, message):
        data = self.proof_data(tmp_path)
        *path, last = keys
        reduce(getitem, path, data)[last] = value
        self.assert_input_error(tmp_path, capsys, data, message)

    @pytest.mark.parametrize('nodes, backlinks, message', [
        # export-dot crashed on a string id in its %d format.
        ([node('a')], {},
         "entry 0 of nodes has a 'id' field that is not an integer"),
        # Both ids printed as n1, a self-loop in the drawing.
        ([node(1.5, '[]p => p', [1.25]), node(1.25, '[]p, p => p')], {},
         "entry 0 of nodes has a 'id' field that is not an integer"),
        # check crashed sorting an int with a string.
        ([node(0, '[]p => p', ['x']), node('x', '[]p, p => p')], {},
         "entry 1 of nodes has a 'id' field that is not an integer"),
        # The key went through int() and the error named no field.
        ([{'id': 0, 'sequent': 'p => p', 'rule': None, 'children': []}],
         {'a': 0},
         "the 'backlinks' object has a key 'a' that is not an integer"),
        # The second entry replaced the first, and check said valid.
        ([node(0), node(0)], {}, 'entry 1 of nodes repeats the id 0'),
        # check said valid, and export-dot named the node n-1, which is
        # not a Graphviz identifier.
        ([node(-1)], {}, 'entry 0 of nodes has the negative id -1'),
    ])
    def test_node_ids_are_unique_integers(self, tmp_path, capsys, nodes,
                                          backlinks, message):
        self.assert_input_error(tmp_path, capsys, {
            'system': 'grz_inf', 'nodes': nodes, 'backlinks': backlinks},
            message)

    @pytest.mark.parametrize('backlinks, message', [
        ({'0': 9}, 'back-link 0 -> 9 references a missing node'),
        ({}, 'node 0 has no rule and no back-link'),
    ])
    def test_backlink_leaf_without_its_target(self, tmp_path, capsys,
                                              backlinks, message):
        # ``check`` reports the fault as a violation; ``cutfree`` follows
        # the back-link and stops with an input error.
        path = tmp_path / 'bad.json'
        path.write_text(json.dumps({
            'system': 'grz_inf',
            'nodes': [{'id': 0, 'sequent': '[]p => p', 'rule': None,
                       'children': []}],
            'backlinks': backlinks}))
        assert run('check', str(path)) == 1
        assert message in capsys.readouterr().out
        assert run('cutfree', str(path)) == 2
        assert ('error: %s' % message) in capsys.readouterr().err

    @pytest.mark.parametrize('backlinks, message', [
        ({'9': 42}, 'back-link 9 -> 42 references a missing node'),
        ({'9': 0, '55': 0}, 'back-link 55 -> 0 references a missing node'),
    ])
    def test_a_backlink_end_without_a_node(self, tmp_path, capsys,
                                           backlinks, message):
        # export-dot drew the dashed edge to or from the missing node and
        # exited 0.
        with open(EXAMPLE) as fh:
            data = json.load(fh)
        data['backlinks'] = backlinks
        path = tmp_path / 'bad.json'
        path.write_text(json.dumps(data))
        assert run('check', str(path)) == 1
        assert message in capsys.readouterr().out
        for verb in ('export-dot', 'cutfree'):
            assert run(verb, str(path)) == 2
            assert capsys.readouterr().err == 'error: %s\n' % message

    @pytest.mark.parametrize('argv', [['cutfree'], ['slim'], ['regularize'],
                                      ['translate', '--to', 'seq']])
    def test_backlink_to_a_node_without_a_rule(self, tmp_path, capsys,
                                               argv):
        # The rule-less root links to itself: unraveling it used to follow
        # the link until the recursion ran out.
        path = tmp_path / 'bad.json'
        path.write_text(json.dumps({
            'system': 'grz_inf',
            'nodes': [{'id': 0, 'sequent': '[]p => p', 'rule': None,
                       'children': []}],
            'backlinks': {'0': 0}}))
        assert run('check', str(path)) == 1
        assert ('back-link target 0 is not an ancestor of 0'
                in capsys.readouterr().out)
        assert run(*argv, str(path)) == 2
        assert capsys.readouterr().err == (
            'error: back-link 0 -> 0 targets a node without a rule\n')

    def refl_steps(self, children_of_last):
        """A finitary proof file of  []p => p  made of three ``refl``
        steps; the last one lists ``children_of_last``."""
        nodes = [{'id': i, 'sequent': '[]p%s => p' % (', p' * i),
                  'rule': 'refl', 'principal': '[]p', 'children': [i + 1]}
                 for i in range(3)]
        nodes[2]['children'] = children_of_last
        return {'system': 'grz_seq', 'nodes': nodes, 'backlinks': {}}

    def assert_rejected(self, tmp_path, capsys, data, violation, error):
        # ``check`` lists the fault; the verbs that read the file as a
        # finite proof stop with an input error.
        path = tmp_path / 'bad.json'
        path.write_text(json.dumps(data))
        assert run('check', str(path)) == 1
        assert violation in capsys.readouterr().out
        for argv in (['cutfree'], ['translate', '--to', 'inf']):
            assert run(*argv, str(path)) == 2
            assert ('error: %s' % error) in capsys.readouterr().err

    def test_finitary_child_cycle(self, tmp_path, capsys):
        self.assert_rejected(tmp_path, capsys, self.refl_steps([1]),
                             'node 1 has two parents or is the root',
                             'node 1 is reached twice from the root')

    def test_finitary_leaf_without_a_rule(self, tmp_path, capsys):
        data = self.refl_steps([])
        data['nodes'][1].update(rule=None, principal=None, children=[])
        del data['nodes'][2]
        message = 'node 1 has no rule and no back-link'
        self.assert_rejected(tmp_path, capsys, data, message, message)

    @pytest.mark.parametrize('argv', [['regularize'], ['slim'], ['cutfree'],
                                      ['translate', '--to', 'seq']])
    def test_transforming_verbs_check_their_input(self, tmp_path, capsys,
                                                  argv):
        # The box step's premises both link back to it, so unfolding the
        # proof never crosses into a right premise: without a check first,
        # regularization runs to its node cap.
        path = tmp_path / 'loop.json'
        path.write_text(json.dumps({
            'system': 'grz_inf',
            'nodes': [{'id': 0, 'sequent': '=> []p', 'rule': 'box_inf',
                       'principal': '[]p', 'children': [1, 2]},
                      {'id': 1, 'sequent': '=> []p', 'rule': None,
                       'children': []},
                      {'id': 2, 'sequent': '=> []p', 'rule': None,
                       'children': []}],
            'backlinks': {'1': 0, '2': 0}}))
        start = time.perf_counter()
        assert run(*argv, str(path)) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error: box_inf: premises [' => []p', ' => []p']"
            " do not match the rule schema (expected [' => p', ' => p'])\n")


class TestDeepFiniteProofs:
    def test_check_a_1200_step_chain(self, tmp_path, capsys):
        path = tmp_path / 'chain.json'
        path.write_text(dump_proof(refl_chain(1200)))
        assert run('check', str(path)) == 0
        assert 'valid (1201 nodes, system grz_seq)' in capsys.readouterr().out


class TestCorpusAndPipeline:
    def test_corpus_is_reproducible(self, tmp_path):
        a = tmp_path / 'a.json'
        b = tmp_path / 'b.json'
        run('corpus', '--count', '3', '--seed', '7', '-o', str(a))
        run('corpus', '--count', '3', '--seed', '7', '-o', str(b))
        assert a.read_text() == b.read_text()
        entries = json.loads(a.read_text())
        assert len(entries) == 3
        for entry in entries:
            proof = load_proof(json.dumps(entry))
            assert proof.system == System.GRZ_SEQ_CUT

    def test_corpus_entries_check(self, tmp_path):
        out = tmp_path / 'corpus.json'
        run('corpus', '--count', '2', '--seed', '3', '-o', str(out))
        for entry in json.loads(out.read_text()):
            single = tmp_path / 'one.json'
            single.write_text(json.dumps(entry))
            assert run('check', str(single)) == 0

    def test_cutfree_verb(self, tmp_path):
        corpus = tmp_path / 'corpus.json'
        run('corpus', '--count', '1', '--seed', '5', '-o', str(corpus))
        entry = json.loads(corpus.read_text())[0]
        one = tmp_path / 'one.json'
        one.write_text(json.dumps(entry))
        out = tmp_path / 'cutfree.json'
        assert run('cutfree', str(one), '-o', str(out)) == 0
        proof = load_proof(out.read_text())
        assert check_cyclic(proof).ok
        assert proof.node(proof.root).sequent == \
            parse_sequent(entry['nodes'][0]['sequent'])

    def test_translate_round_trip(self, tmp_path):
        inf = tmp_path / 'inf.json'
        run('prove', '[]p -> [][]p', '-o', str(inf))
        seqp = tmp_path / 'seq.json'
        assert run('translate', str(inf), '--to', 'seq', '-o', str(seqp)) == 0
        finitary = load_proof(seqp.read_text())
        assert finitary.system in (System.GRZ_SEQ, System.GRZ_SEQ_CUT)
        assert run('check', str(seqp)) == 0
        back = tmp_path / 'back.json'
        assert run('translate', str(seqp), '--to', 'inf', '-o', str(back)) == 0
        assert run('check', str(back)) == 0

    def test_translate_rejects_a_proof_of_the_other_calculus(self, tmp_path,
                                                             capsys):
        # The bundled example has back-links; a 3-node prover output has
        # none; a finitary proof ends in ax_general.  Each is rejected by
        # its system before any translation runs.
        inf = tmp_path / 'inf.json'
        assert run('prove', '[]p -> p', '-o', str(inf)) == 0
        assert len(load_proof(inf.read_text()).nodes) == 3
        seqp = tmp_path / 'seq.json'
        assert run('translate', str(inf), '--to', 'seq', '-o', str(seqp)) == 0
        assert load_proof(seqp.read_text()).system == System.GRZ_SEQ
        capsys.readouterr()
        for path, to, message in (
                (EXAMPLE, 'inf', 'translate --to inf takes a proof in grz_seq '
                 'or grz_seq_cut, not grz_inf'),
                (inf, 'inf', 'translate --to inf takes a proof in grz_seq or '
                 'grz_seq_cut, not grz_inf'),
                (seqp, 'seq', 'translate --to seq takes a proof in grz_inf '
                 'or grz_inf_cut, not grz_seq')):
            assert run('translate', str(path), '--to', to) == 2
            assert capsys.readouterr().err == 'error: %s\n' % message

    def test_slim_and_regularize_verbs(self, tmp_path):
        inf = tmp_path / 'inf.json'
        run('prove', '[](p -> q) -> ([]p -> []q)', '-o', str(inf))
        for verb in ['slim', 'regularize']:
            out = tmp_path / (verb + '.json')
            assert run(verb, str(inf), '-o', str(out)) == 0
            assert check_cyclic(load_proof(out.read_text())).ok

    def write_proof_in(self, system, path):
        """Write a proof in ``system`` to ``path``: a prover output, its
        finitary translation, a corpus entry, or a cut of two axioms."""
        if system in ('grz_inf', 'grz_seq'):
            inf = path.with_name('inf.json')
            run('prove', '[]p -> [][]p', '-o', str(inf))
            if system == 'grz_seq':
                run('translate', str(inf), '--to', 'seq', '-o', str(path))
            else:
                path.write_text(inf.read_text())
        elif system == 'grz_seq_cut':
            corpus = path.with_name('corpus.json')
            run('corpus', '--count', '1', '--seed', '3', '-o', str(corpus))
            path.write_text(json.dumps(json.loads(corpus.read_text())[0]))
        else:
            path.write_text(dump_proof(cyclic_from_wf(build_cut(
                leaf(ax_atom(parse_sequent('p => p, q'), P)),
                leaf(ax_atom(parse_sequent('q, p => p'), P)), Q),
                System.GRZ_INF_CUT)))
        assert load_proof(path.read_text()).system.value == system

    @pytest.mark.parametrize('system', ['grz_seq', 'grz_seq_cut', 'grz_inf',
                                        'grz_inf_cut'])
    @pytest.mark.parametrize('verb', ['cutfree', 'slim', 'regularize'])
    def test_folding_verbs_write_a_valid_proof_from_every_system(
            self, tmp_path, verb, system):
        given = tmp_path / 'given.json'
        self.write_proof_in(system, given)
        out = tmp_path / 'out.json'
        assert run(verb, str(given), '-o', str(out)) == 0
        assert run('check', str(out)) == 0
        a, b = load_proof(given.read_text()), load_proof(out.read_text())
        assert b.node(b.root).sequent == a.node(a.root).sequent

    @staticmethod
    def wrong_root(p):
        """``p`` with a cut formula recorded on its root step, which is no
        cut: a wrong step."""
        i = p.inst
        return LazyProof(RuleInstance(i.rule, i.conclusion, i.premises,
                                      i.principal, Q), make=p.child)

    @pytest.mark.parametrize('argv', [['cutfree'], ['slim'], ['regularize'],
                                      ['translate', '--to', 'inf'],
                                      ['translate', '--to', 'seq']])
    def test_a_wrong_output_is_not_written(self, tmp_path, capsys,
                                           monkeypatch, argv):
        given = tmp_path / 'given.json'
        if argv[-1] == 'seq':
            run('prove', '[]p -> [][]p', '-o', str(given))
            monkeypatch.setattr(cli, 'inf_to_seq',
                                lambda p: self.wrong_root(inf_to_seq(p)))
        else:
            self.write_proof_in('grz_seq', given)
            monkeypatch.setitem(cli._STAGES, argv[0],
                                cli._STAGES[argv[0]] + (self.wrong_root,))
        capsys.readouterr()
        out = tmp_path / 'out.json'
        assert run(*argv, str(given), '-o', str(out)) == 4
        assert not out.exists()
        assert capsys.readouterr().err == (
            'error: the proof to write fails its check: imp_r: cut_formula q '
            'does not match the rule schema (expected None)\n')

    def test_prove_does_not_write_a_wrong_proof(self, tmp_path, capsys,
                                                monkeypatch):
        def wrong(goal, **kwargs):
            proof = decide(goal, **kwargs).proof
            root = proof.nodes[proof.root]
            i = root.inst
            proof.nodes[proof.root] = CyclicNode(
                root.sequent, RuleInstance(i.rule, i.conclusion, i.premises,
                                           i.principal, Q), root.children)
            return Verdict(proof=proof)
        monkeypatch.setattr(cli, 'decide', wrong)
        out = tmp_path / 'out.json'
        assert run('prove', '[]p -> [][]p', '-o', str(out)) == 4
        assert not out.exists()
        assert capsys.readouterr().err == (
            'error: the proof to write fails its check: imp_r: cut_formula q '
            'does not match the rule schema (expected None)\n')


class TestOtherVerbs:
    def test_countermodel_verb(self, capsys):
        assert run('countermodel', 'p -> []p') == 0
        payload = json.loads(capsys.readouterr().out)
        assert 'countermodel' in payload
        assert run('countermodel', 'p -> p') == 1

    def test_a_countermodel_of_an_empty_succedent(self, capsys):
        assert run('countermodel', 'p =>') == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload['countermodel']['worlds'] == 1

    def test_interpolate_verb(self, capsys):
        assert run('interpolate', '[]p & [](p -> q)', '[]q') == 0
        assert 'interpolant' in capsys.readouterr().out
        assert run('interpolate', 'p', '[]p') == 1

    def test_export_dot(self, tmp_path):
        proof = tmp_path / 'proof.json'
        run('prove', 'p -> p', '-o', str(proof))
        dot = tmp_path / 'proof.dot'
        assert run('export-dot', str(proof), '-o', str(dot)) == 0
        assert dot.read_text().startswith('digraph')

    def test_missing_verb_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            run()


# The options of each verb: exactly the ones that the verb reads.
VERB_OPTIONS = {
    'prove': {'--max-crossings', '--max-model-size', '-o', '--output'},
    'check': set(),
    'cutfree': {'--max-crossings', '-o', '--output'},
    'slim': {'--max-crossings', '-o', '--output'},
    'regularize': {'--max-crossings', '-o', '--output'},
    'translate': {'--to', '--max-crossings', '-o', '--output'},
    'interpolate': {'--max-crossings', '--max-model-size'},
    'countermodel': {'--max-model-size'},
    'corpus': {'--count', '--seed', '--steps', '-o', '--output'},
    'export-dot': {'-o', '--output'},
}

# ``p -> []p`` is refuted at world 0 of this model by all three verbs.
COUNTERMODEL = (
    '{\n  "countermodel": {\n    "worlds": 2,\n    "order": [\n      [\n'
    '        0,\n        1\n      ],\n      [\n        1\n      ]\n'
    '    ],\n    "valuation": {\n      "p": [\n        0\n      ]\n'
    '    }\n  },\n  "world": 0\n}\n')


class TestOptions:
    def test_each_verb_declares_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {s for a in p._actions for s in a.option_strings} -
            {'-h', '--help'} for name, p in sub.choices.items()}
        assert declared == VERB_OPTIONS

    @pytest.mark.parametrize('argv, flag', [
        (['check', EXAMPLE], '--max-crossings'),
        (['check', EXAMPLE], '--max-model-size'),
        (['cutfree', EXAMPLE], '--max-model-size'),
        (['slim', EXAMPLE], '--max-model-size'),
        (['regularize', EXAMPLE], '--max-model-size'),
        (['translate', EXAMPLE, '--to', 'seq'], '--max-model-size'),
        (['countermodel', 'p -> []p'], '--max-crossings'),
    ])
    def test_an_option_the_verb_does_not_read_is_a_usage_error(
            self, capsys, argv, flag):
        with pytest.raises(SystemExit) as e:
            run(*argv, flag, '3')
        assert e.value.code == 2
        assert 'unrecognized arguments: %s 3' % flag in capsys.readouterr().err

    @pytest.mark.parametrize('argv, flag, least, code', [
        (['countermodel', 'p -> q'], '--max-model-size', 1, 0),
        (['prove', 'p -> q'], '--max-model-size', 1, 1),
        (['interpolate', 'p', 'q'], '--max-model-size', 1, 1),
        (['prove', 'p -> p'], '--max-crossings', 0, 0),
        (['cutfree', EXAMPLE], '--max-crossings', 0, 3),
        (['corpus'], '--count', 0, 0),
        (['corpus', '--count', '1'], '--steps', 0, 0),
    ])
    def test_a_bound_below_its_least_value_is_a_usage_error(
            self, capsys, argv, flag, least, code):
        assert run(*argv, flag, str(least)) == code
        with pytest.raises(SystemExit) as e:
            run(*argv, flag, str(least - 1))
        assert e.value.code == 2
        assert ('argument %s: %d is less than %d' % (flag, least - 1, least)
                in capsys.readouterr().err)

    # The oracle would enumerate 6,129,859 labelled orders at 7 worlds, so
    # argparse stops 7 before any verb runs.
    @pytest.mark.parametrize('argv, code', [
        (['countermodel', 'p -> q'], 0),
        (['prove', 'p -> q'], 1),
        (['interpolate', 'p', 'q'], 1),
    ])
    def test_a_model_size_above_6_is_a_usage_error(self, capsys, argv, code):
        assert run(*argv, '--max-model-size', '6') == code
        with pytest.raises(SystemExit) as e:
            run(*argv, '--max-model-size', '7')
        assert e.value.code == 2
        assert ('argument --max-model-size: 7 is more than 6'
                in capsys.readouterr().err)

    def test_interpolate_honours_the_crossing_bound(self, capsys):
        assert run('interpolate', '[]p', '[][][]p') == 0
        capsys.readouterr()
        assert run('interpolate', '[]p', '[][][]p',
                   '--max-crossings', '1') == 3
        assert capsys.readouterr().err.startswith(
            'error: exceeded 1 box crossings at ')

    @pytest.mark.parametrize('verb', ['regularize', 'slim', 'cutfree'])
    def test_the_regularize_crossing_cap_exits_3(self, capsys, verb):
        assert run(verb, EXAMPLE, '--max-crossings', '0') == 3
        assert capsys.readouterr().err == (
            'error: no repeating crossing within 0 crossings; the input '
            'does not look regular\n')

    def test_the_countermodel_json_of_three_verbs(self, capsys):
        assert run('prove', 'p -> []p') == 1
        assert capsys.readouterr().out == COUNTERMODEL
        assert run('countermodel', 'p -> []p') == 0
        assert capsys.readouterr().out == COUNTERMODEL
        assert run('interpolate', 'p', '[]p') == 1
        assert capsys.readouterr().out == (
            'not a theorem; countermodel:\n' + COUNTERMODEL)

    @pytest.mark.parametrize('count', [0, 1, 4])
    def test_corpus_writes_the_layout_of_json_dumps(self, tmp_path, count):
        out = tmp_path / 'corpus.json'
        assert run('corpus', '--count', str(count), '--seed', '2',
                   '-o', str(out)) == 0
        rng = random.Random(2)
        proofs = [cyclic_from_wf(random_wf_proof(rng), System.GRZ_SEQ_CUT)
                  for _ in range(count)]
        assert out.read_text() == json.dumps(
            [proof_to_json(p) for p in proofs], indent=2) + '\n'


class TestRandomProofs:
    def test_generator_yields_checkable_proofs(self):
        import random
        rng = random.Random(11)
        for _ in range(5):
            wf = random_wf_proof(rng)
            report = check_wf(wf, System.GRZ_SEQ_CUT)
            assert report.ok, report.violations
