import hashlib
import json

import pytest

from grzproofs import prover
from grzproofs.proofs import CyclicNode, check_cyclic, dump_proof, unravel
from grzproofs.prover import (
    KripkeModel, decide, eval_formula, find_countermodel, truth_mask,
)
from grzproofs.syntax import (
    Atom, Box, EMPTY, Sequent, mset, parse_formula, parse_sequent,
)

from helpers import formulas_up_to

P = Atom('p')

THEOREMS = [
    'p -> p',
    '[]p -> p',                           # reflexivity
    '[]p -> [][]p',                       # transitivity
    '[](p -> q) -> ([]p -> []q)',         # distribution
    '[]([](p -> []p) -> p) -> []p',       # the Grz axiom
    '[](p -> q) -> (<>p -> <>q)',
    '[]p | ~[]p',
    '((p -> q) -> p) -> p',
    '[]p -> p | q',
]

NON_THEOREMS = [
    'p -> []p',
    'p -> q',
    '<>p -> p',
    '[](p | q) -> ([]p | []q)',
    '<>p -> []<>p',                       # fails in Grz (no symmetry)
    '<>[]p -> []<>p' ,
]


def goal(text):
    return goal_of(parse_formula(text))


def goal_of(f):
    return Sequent(EMPTY, mset(f))


class TestDecide:
    @pytest.mark.parametrize('text', THEOREMS)
    def test_theorems_get_checkable_proofs(self, text):
        verdict = decide(goal(text))
        assert verdict.is_proof
        report = check_cyclic(verdict.proof)
        assert report.ok, report.violations
        root = verdict.proof.node(verdict.proof.root)
        assert root.sequent == goal(text)

    def test_proof_nodes_hold_what_init_would_set(self):
        # Search builds its nodes without CyclicNode.__init__; a field it
        # left unset would raise here.
        proof = decide(goal('[]([](p -> []p) -> p) -> []p')).proof
        for i, node in proof.nodes.items():
            assert node == CyclicNode(i, node.sequent, node.inst,
                                      node.children)

    @pytest.mark.parametrize('text', NON_THEOREMS)
    def test_non_theorems_get_countermodels(self, text):
        verdict = decide(goal(text))
        assert not verdict.is_proof
        model, world = verdict.countermodel
        assert model.size <= 4
        assert not eval_formula(model, world, parse_formula(text))

    def test_sequent_goals(self):
        verdict = decide(parse_sequent('[]p, [](p -> q) => []q'))
        assert verdict.is_proof
        verdict = decide(parse_sequent('[]p => []q'))
        assert not verdict.is_proof

    def test_proof_and_countermodel_are_exclusive(self):
        v = decide(goal('p -> p'))
        assert v.proof is not None and v.countermodel is None
        v = decide(goal('p'))
        assert v.proof is None and v.countermodel is not None

    def test_box_choices_grow_exponentially_not_factorially(self,
                                                            search_calls):
        # => []q1, ..., []qn: each order of box choices reaches the same
        # states, which are searched once per decide call.
        counts = []
        for n in range(5, 10):
            search_calls[0] = 0
            text = ' => ' + ', '.join('[]q%d' % i for i in range(1, n + 1))
            assert not decide(parse_sequent(text)).is_proof
            counts.append(search_calls[0])
        for a, b in zip(counts, counts[1:]):
            assert b <= 3 * a, counts

    @pytest.mark.parametrize('text, theorem, calls', [
        (' => ' + ', '.join('[]q%d' % i for i in range(1, 9)), False, 1025),
        ('[]p => %sp' % ('[]' * 8), True, 767),
    ])
    def test_search_visits_the_same_states(self, search_calls, text,
                                           theorem, calls):
        # The number of search calls, recursive ones included, as search
        # made them before it classified each sequent in one pass.
        assert decide(parse_sequent(text)).is_proof == theorem
        assert search_calls[0] == calls


@pytest.fixture
def search_calls(monkeypatch):
    """A one-element list counting the calls of ``prover._search``."""
    calls = [0]
    search = prover._search

    def counting(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(prover, '_search', counting)
    return calls


class TestCountermodels:
    def test_none_for_theorems(self):
        assert find_countermodel(goal('[]p -> p')) is None

    def test_found_models_really_refute(self):
        for text in NON_THEOREMS:
            model, world = find_countermodel(goal(text))
            assert not eval_formula(model, world, parse_formula(text))

    def test_respects_the_size_bound(self):
        # []([]...) needs two worlds; cap the search below that.
        found = find_countermodel(goal('p -> []p'), max_size=4)
        assert found is not None
        assert found[0].size <= 4


class TestKripkeModel:
    def two_chain(self):
        # world 0 below world 1, p true only at world 0
        return KripkeModel(2, (0b11, 0b10), (('p', 0b01),))

    def test_rejects_non_reflexive_orders(self):
        with pytest.raises(ValueError):
            KripkeModel(2, (0b10, 0b10), ())

    def test_rejects_non_antisymmetric_orders(self):
        with pytest.raises(ValueError):
            KripkeModel(2, (0b11, 0b11), ())

    def test_eval_box_quantifies_over_successors(self):
        m = self.two_chain()
        assert eval_formula(m, 0, P)
        assert not eval_formula(m, 0, Box(P))
        assert eval_formula(m, 1, Box(parse_formula('~p')))

    def test_truth_mask_agrees_with_eval(self):
        m = self.two_chain()
        for text in ['p', '[]p', 'p -> []p', '<>p', 'false']:
            f = parse_formula(text)
            mask = truth_mask(m, f)
            for w in range(m.size):
                assert bool(mask >> w & 1) == eval_formula(m, w, f)

    def test_describe_is_serializable(self):
        import json
        json.dumps(self.two_chain().describe())


# The hard goals with known answers that ``decide`` settles: wide box
# choices, deep boxes, and the Grz axiom for conjunctions, whose proofs
# have back-links.
HARD_GOALS = [
    ' => ' + ', '.join('[]q%d' % i for i in range(1, n + 1))
    for n in range(3, 9)
] + [
    '[]p => %sp' % ('[]' * n) for n in range(6, 13)
] + [
    '[]([](p -> []p) -> p) => []p',
    '[]([]((p & q) -> [](p & q)) -> (p & q)) => [](p & q)',
    '[]([]((p & q & r) -> [](p & q & r)) -> (p & q & r)) => [](p & q & r)',
    '[]([]((p & q & r & s) -> [](p & q & r & s)) -> (p & q & r & s))'
    ' => [](p & q & r & s)',
    '[]([](p -> []p) -> p) & []([](q -> []q) -> q) => []p & []q',
    'p, <>~p => false',
    'p, <>(~p & <>p) => false',
    'p, <>(~p & <>(p & <>~p)) => false',
]

# sha256 of the verdicts below, as ``decide`` gave them before search
# results were tabled.
GOLDEN_DECIDE = ('cc4fdeaffd8bf6e7010e9e3d9f8c8cd1'
                 '318d50ba29aaf97c742e5a3528c1b27b')


def test_decide_output_bytes_are_unchanged():
    goals = [parse_sequent(text) for text in HARD_GOALS]
    goals += [goal_of(f) for f in formulas_up_to(7)]
    h = hashlib.sha256()
    for g in goals:
        v = decide(g)
        if v.is_proof:
            h.update(dump_proof(v.proof).encode())
        else:
            model, world = v.countermodel
            h.update(json.dumps([model.describe(), world],
                                sort_keys=True).encode())
    assert h.hexdigest() == GOLDEN_DECIDE
