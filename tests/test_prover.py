import gc
import hashlib
import itertools
import json
import random

import pytest

from grzproofs import prover
from grzproofs.calculus import Rule
from grzproofs.examples import grz_axiom_cyclic_proof
from grzproofs.interpolation import SplitSequent, interpolate, lyndon
from grzproofs.proofs import CyclicNode, check_cyclic, dump_proof, unravel
from grzproofs.prover import (
    KripkeModel, ProverError, SearchLimitError, decide, find_countermodel,
    provable, truth_mask,
)
from grzproofs.syntax import (
    Atom, BOT, Box, EMPTY, Implies, Multiset, Sequent, mset, parse_formula,
    parse_sequent, sequent_to_formula, subformulas,
)
from grzproofs.transforms import regularize

from helpers import (
    brute_force_orders, eval_formula, formulas_up_to, reference_mask,
    reference_to_cyclic,
)

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
            assert node == CyclicNode(node.sequent, node.inst, node.children)

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

    def test_a_bare_formula_is_the_goal_with_an_empty_antecedent(self):
        for text in THEOREMS[:3] + NON_THEOREMS[:3]:
            f = parse_formula(text)
            assert decide(f) == decide(goal_of(f))

    def test_proof_and_countermodel_are_exclusive(self):
        v = decide(goal('p -> p'))
        assert v.proof is not None and v.countermodel is None
        v = decide(goal('p'))
        assert v.proof is None and v.countermodel is not None

    def test_box_choices_take_one_call_each(self, search_calls):
        # => []q1, ..., []qn: the left premise of the first box step fails,
        # and box inversion is admissible, so no other box is tried: one
        # call for the goal and one for that left premise.  ``provable``
        # runs search alone; ``decide`` refutes the goal on one world, the
        # valuation with every atom false, without searching.
        for n in range(5, 41):
            g = parse_sequent(
                ' => ' + ', '.join('[]q%d' % i for i in range(1, n + 1)))
            search_calls[0] = 0
            assert not provable(g)
            assert search_calls[0] == n + 1, n
            search_calls[0] = 0
            assert decide(g).countermodel == find_countermodel(g)
            assert search_calls[0] == 0, n

    def test_a_failed_right_premise_tries_the_next_box(self):
        # After refl, the first box, []p, proves its left premise
        # p, q, []q => p, []q  but not its right one  []q => p; the
        # second box, []q, succeeds.
        verdict = decide(parse_sequent('p, []q => []p, []q'))
        assert verdict.is_proof
        assert check_cyclic(verdict.proof).ok
        boxes = [n.inst.principal for n in verdict.proof.nodes.values()
                 if n.inst is not None and n.inst.rule is Rule.BOX_INF]
        assert boxes == [Box(Atom('q'))]

    @pytest.mark.parametrize('text, theorem, calls', [
        (' => ' + ', '.join('[]q%d' % i for i in range(1, 9)), False, 9),
        ('[]p => %sp' % ('[]' * 8), True, 47),
    ])
    def test_search_visits_the_same_states(self, search_calls, text,
                                           theorem, calls):
        # The number of search calls, recursive ones included.  A failed
        # left premise of a box step ends the box stage.  One world
        # refutes the non-theorem, so ``decide`` does not search it.
        g = parse_sequent(text)
        assert provable(g) == theorem
        assert search_calls[0] == calls
        if not theorem:
            search_calls[0] = 0
            assert decide(g).countermodel == find_countermodel(g)
            assert search_calls[0] == 0

    def test_deep_boxes_search_grows_linearly(self, search_calls):
        # []p => []^n p: both premises of each box step reach one box-stage
        # sequent, the right one after refl, and the right one's extra
        # history entry can be no back-link's target further on.  So they
        # share one table entry.  The proof still spells out every branch.
        counts = []
        for n in range(6, 17):
            search_calls[0] = 0
            proof = decide(parse_sequent('[]p => %sp' % ('[]' * n))).proof
            assert proof.size() == 3 * 2 ** n - 1
            counts.append(search_calls[0])
        steps = {b - a for a, b in zip(counts, counts[1:])}
        assert len(steps) == 1, counts


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


@pytest.fixture
def compile_calls(monkeypatch):
    """A one-element list counting the calls of ``prover._compile``."""
    calls = [0]
    compile_ = prover._compile

    def counting(*args):
        calls[0] += 1
        return compile_(*args)

    monkeypatch.setattr(prover, '_compile', counting)
    return calls


class TestCountermodels:
    def test_none_for_theorems(self):
        assert find_countermodel(goal('[]p -> p')) is None

    def test_a_bare_formula_is_read_as_its_sequent(self):
        f = parse_formula('p -> []p')
        found = find_countermodel(f)
        assert found is not None
        assert found == find_countermodel(goal_of(f))

    def test_decide_below_the_size_of_the_countermodel_is_an_error(self):
        # p -> []p is refuted on two worlds and on no fewer.
        g = goal('p -> []p')
        with pytest.raises(ProverError) as e:
            decide(g, max_model_size=1)
        assert str(e.value) == ('search failed on %s but the oracle found '
                                'no countermodel up to size 1' % g)

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

    def test_rejects_non_transitive_orders(self):
        # 0 <= 1 and 1 <= 2, but not 0 <= 2.
        with pytest.raises(ValueError, match='order not transitive'):
            KripkeModel(3, (0b011, 0b110, 0b100), ())

    @pytest.mark.parametrize('size, order', [
        (3, (0b1,)), (1, (0b1, 0b10)), (2, (0b11, 0b110)), (1, (-1,))])
    def test_rejects_orders_of_other_worlds(self, size, order):
        with pytest.raises(ValueError, match=(
                '^order is not %d masks of worlds 0..%d$' % (size, size - 1))):
            KripkeModel(size, order, ())

    @pytest.mark.parametrize('mask', [0b100, -1])
    def test_rejects_valuations_of_other_worlds(self, mask):
        with pytest.raises(ValueError, match=(
                '^valuation names a world outside 0..1$')):
            KripkeModel(2, (0b11, 0b10), (('p', mask),))

    @pytest.mark.parametrize('valuation', [
        (('p', 1), ('p', 0)), (('q', 1), ('p', 0)), ((1, 1),)])
    def test_rejects_repeated_unsorted_or_unnamed_atoms(self, valuation):
        # Repeated or unsorted names would let truth_mask, which reads the
        # first entry of a name, and describe(), which keeps the last,
        # disagree.
        with pytest.raises(ValueError, match=(
                '^valuation names are not strings in increasing order$')):
            KripkeModel(1, (1,), valuation)

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

    def test_an_atom_outside_the_valuation_is_false_everywhere(self):
        assert truth_mask(self.two_chain(), Atom('q')) == 0

    def test_describe_is_serializable(self):
        import json
        json.dumps(self.two_chain().describe())

    def test_truth_mask_agrees_with_reference_on_small_frames(self):
        # Every formula of AST size <= 5 over p, q on every frame of up to
        # three worlds under every valuation.
        formulas = formulas_up_to(5)
        for n in range(1, 4):
            for order in prover.enumerate_orders(n):
                for p, q in itertools.product(range(1 << n), repeat=2):
                    m = KripkeModel(n, order, (('p', p), ('q', q)))
                    for f in formulas:
                        assert truth_mask(m, f) == reference_mask(m, f), \
                            (m, f)

    def test_truth_mask_of_deep_formulas_does_not_recurse(self):
        # p holds at the top world 1 only, so each []^k p, k >= 1, holds
        # there only.
        m = KripkeModel(2, (0b11, 0b10), (('p', 0b10),))
        f = P
        for _ in range(5000):
            f = Box(f)
        assert truth_mask(m, f) == 0b10
        assert truth_mask(m, Implies(f, BOT)) == 0b01


class TestFrames:
    @pytest.mark.parametrize('n', range(1, 5))
    def test_frames_match_brute_force(self, n):
        assert prover.enumerate_orders(n) == brute_force_orders(n)

    def test_a_frame_that_is_no_partial_order_is_rejected(self,
                                                            monkeypatch):
        monkeypatch.setattr(prover, 'enumerate_orders',
                            lambda n: ((0b11, 0b11),))
        prover._frames.cache_clear()
        try:
            with pytest.raises(prover.ProverError) as e:
                prover._frames(2)
        finally:
            prover._frames.cache_clear()
        assert str(e.value) == ('frame table: order not antisymmetric in '
                                '(3, 3)')

    def test_frame_counts(self):
        # Labelled posets and posets up to isomorphism on 1..4 worlds.
        assert [len(prover._labelled_orders(n)) for n in range(1, 5)] == [
            1, 3, 19, 219]
        assert [len(prover.enumerate_orders(n)) for n in range(1, 5)] == [
            1, 2, 5, 16]


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


@pytest.mark.golden
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


def test_decide_places_back_links_where_regularize_would():
    # On these goals, folding the unraveled proof gives back the same
    # bytes.  The search's rule for a back-link and the fold's rule are not
    # one rule, though: ``regularize`` also links to a non-crossing
    # ancestor in an earlier segment, so on the goals of
    # GOLDEN_NEWEST_ENTRY it folds the 121-node proofs into 109 nodes.
    goals = [parse_sequent(text) for text in HARD_GOALS]
    goals += [goal_of(f) for f in formulas_up_to(7)]
    for g in goals:
        v = decide(g)
        if v.is_proof:
            assert (dump_proof(regularize(unravel(v.proof)))
                    == dump_proof(v.proof))


# sha256 of the outcomes below, as ``decide`` gave them when the table was
# keyed by the whole branch history.
GOLDEN_DECIDE_BOUNDED = ('35e80187046aaedc41a0114d73772830'
                         '8d6006447a9fc1d81dd6b0de446c598d')


@pytest.mark.golden
def test_bounded_decide_outcomes_are_unchanged():
    # Under a small crossing bound, reused table entries must not hide or
    # move a SearchLimitError: each outcome is a proof, a countermodel, or
    # the error, with its text.
    goals = [parse_sequent(text) for text in HARD_GOALS]
    goals += [goal_of(f) for f in formulas_up_to(6)]
    h = hashlib.sha256()
    for max_crossings in (1, 2, 3):
        for g in goals:
            try:
                v = decide(g, max_crossings=max_crossings)
            except prover.ProverError as e:
                out = '%s: %s' % (type(e).__name__, e)
            else:
                if v.is_proof:
                    out = dump_proof(v.proof)
                else:
                    model, world = v.countermodel
                    out = json.dumps([model.describe(), world],
                                     sort_keys=True)
            h.update(out.encode())
    assert h.hexdigest() == GOLDEN_DECIDE_BOUNDED


@pytest.mark.parametrize('text, max_crossings', [
    ('[]p, [][][](q -> p) => [][](([][]p -> false) -> []([](q -> []r)'
     ' -> [][]r))', 4),
    ('[]p, []([]q -> q -> p) => [][](([]([][]([](r -> p) -> q) -> r)'
     ' -> false) -> [][][]p)', 5),
    ('[]p, [][][]q, []((q -> []p) -> []r) => [][](([][][][]q -> false)'
     ' -> [](p -> [][][][][]r))', 6),
])
def test_a_reuse_counts_the_deepest_crossing(text, max_crossings):
    # Each goal meets one table entry at two history lengths, and the
    # entry's search made its deepest crossing before some shallower
    # steps.  At the second length that crossing passes the bound, so the
    # entry is searched again and stops there, as search without the
    # table did.
    with pytest.raises(prover.SearchLimitError,
                       match='exceeded %d box crossings at ' % max_crossings):
        decide(parse_sequent(text), max_crossings=max_crossings)


# sha256 of the proofs of the goals below, as ``decide`` gave them when the
# table was keyed by the whole branch history.
GOLDEN_NEWEST_ENTRY = ('d0c5158c4ca779a13747abef340b0128'
                       'c5c6c8af06717ce0d381015a8e2d1aee')


@pytest.mark.golden
def test_the_newest_history_entry_is_part_of_the_key():
    # With G the Grz axiom's antecedent, both conjuncts search  G => p
    # just after a crossing: into  G => p  itself, which a back-link
    # further on can reach, or into  => G -> p, which none can.  So the
    # two searches may not share a table entry.
    g = '[]([](p -> []p) -> p)'
    h = hashlib.sha256()
    for text in [' => [](%s -> p) & (%s -> []p)' % (g, g),
                 ' => (%s -> []p) & [](%s -> p)' % (g, g)]:
        proof = decide(parse_sequent(text)).proof
        assert check_cyclic(proof).ok
        h.update(dump_proof(proof).encode())
    assert h.hexdigest() == GOLDEN_NEWEST_ENTRY


def random_formula(rng, atoms, size):
    """A formula of ``size`` AST nodes over ``atoms`` and falsity."""
    if size == 1:
        return rng.choice(atoms + [BOT])
    if size == 2 or rng.random() < 0.3:
        return Box(random_formula(rng, atoms, size - 1))
    k = rng.randint(1, size - 2)
    return Implies(random_formula(rng, atoms, k),
                   random_formula(rng, atoms, size - 1 - k))


def random_sequent(rng):
    """Up to four formulas a side, of 1 to 10 nodes, over up to 10
    atoms."""
    atoms = [Atom('q%d' % i) for i in range(rng.randint(1, 10))]
    return Sequent(*[
        Multiset(random_formula(rng, atoms, rng.randint(1, 10))
                 for _ in range(rng.randint(0, 4)))
        for _ in 'ab'])


def outcome(found):
    model, world = found
    return model.describe(), world


class TestOneWorld:
    """``decide`` checks the first 256 valuations of the one-world frame
    before it searches; what it returns is what search and the oracle
    alone give."""

    def test_decide_agrees_with_search_and_the_oracle(self):
        rng = random.Random(31)
        goals = [parse_sequent(text) for text in HARD_GOALS]
        goals += [goal_of(f) for f in formulas_up_to(7)]
        goals += [random_sequent(rng) for _ in range(400)]
        wide = 0
        for g in goals:
            v = decide(g)
            assert v.is_proof == provable(g), g
            if not v.is_proof:
                assert outcome(v.countermodel) == outcome(
                    find_countermodel(g, 4)), g
            wide += len({f.name for f in subformulas(*g.formulas())
                         if type(f) is Atom}) > 8
        assert wide > 0

    def test_a_valuation_past_the_first_block_is_found_after_search(
            self, search_calls):
        # Only q1 true falsifies the goal: valuation 256 of q1, ..., q9,
        # the first of the second block.
        g = parse_sequent(' => ~q1, ' + ', '.join(
            'q%d' % i for i in range(2, 10)))
        model, world = decide(g).countermodel
        assert search_calls[0] > 0
        assert (model, world) == find_countermodel(g)
        assert (model.size, world) == (1, 0)
        assert model.valuation == (('q1', 1),) + tuple(
            ('q%d' % i, 0) for i in range(2, 10))

    def test_without_worlds_a_refutable_goal_is_an_error(self,
                                                          search_calls):
        g = goal('p')
        with pytest.raises(ProverError, match='up to size 0$'):
            decide(g, max_model_size=0)
        assert search_calls[0] > 0

    def test_a_deep_refutable_goal_is_refuted_without_search(
            self, search_calls):
        # Search would recurse once per box.
        f = P
        for _ in range(5000):
            f = Box(f)
        found = decide(goal_of(f)).countermodel
        assert found == (KripkeModel(1, (1,), (('p', 0),)), 0)
        assert search_calls[0] == 0

    def test_the_crossing_bound_does_not_hide_a_one_world_refutation(self):
        # With q false, the antecedent is true on one world, whatever p.
        g = parse_sequent('q -> ~([]p -> [][][]p) =>')
        found = decide(g, max_crossings=1).countermodel
        assert found == decide(g, max_crossings=3).countermodel
        assert found == find_countermodel(g)
        assert outcome(found) == ({'worlds': 1, 'order': [[0]],
                                   'valuation': {'p': [], 'q': []}}, 0)
        # One world satisfies this goal, so search still meets the bound.
        with pytest.raises(SearchLimitError,
                           match='exceeded 1 box crossings'):
            decide(parse_sequent('[]p => [][][]p'), max_crossings=1)

    def test_the_one_world_frame_is_scanned_in_the_oracles_order(self):
        # The first valuation in ``itertools.product`` order under which
        # the reading is false on one world, by the reference evaluator;
        # the blocks of 256 valuations of goals over 9 and 10 atoms too.
        # Over 11 and 12 atoms, the first falsifier of each goal written
        # out lies in block 5, 10, 12 or 14, with two or three of the
        # atoms that are constant on a block true.
        rng = random.Random(7)
        goals = [parse_sequent(text) for text in [
            '=>', 'p =>', '=> p', 'p, p => q, q', 'p, []q => q, p, []p',
            'p -> q, q => []p, p, q -> false']]
        goals += [parse_sequent(' => ' + ', '.join(
            ('~q%02d' if i in true else 'q%02d') % i
            for i in range(1, k + 1)))
            for k, true in [(11, {1, 3}), (12, {1, 2}), (12, {1, 2, 3, 12})]]
        goals.append(parse_sequent('q01, []q03 => ' + ', '.join(
            'q%02d' % i for i in [2] + list(range(4, 13)))))
        goals += [random_sequent(rng) for _ in range(300)]
        for g in goals:
            reading = sequent_to_formula(g)
            names = sorted({f.name for f in subformulas(reading)
                            if type(f) is Atom})
            first = None
            for vals in itertools.product(range(2), repeat=len(names)):
                m = KripkeModel(1, (1,), tuple(zip(names, vals)))
                if not reference_mask(m, reading):
                    first = m, 0
                    break
            assert find_countermodel(g, 1) == first, g
            if first is not None:
                assert decide(g, max_model_size=1).countermodel == first, g

    def test_a_one_world_refutation_builds_no_frame_table(self):
        prover._frames.cache_clear()
        assert decide(goal('p -> q')).countermodel[0].size == 1
        assert prover._frames.cache_info().currsize == 0

    def test_decide_compiles_a_goal_only_after_search_fails(self,
                                                             compile_calls):
        # One world refutes p -> q before search, and search proves the
        # wide theorem after one block of 256 valuations; neither compiles
        # the goal.  The 5-world goal fails search and the oracle.
        assert decide(goal('p -> q')).countermodel[0].size == 1
        assert compile_calls[0] == 0
        wide = ', '.join('q%d' % i for i in range(1, 41))
        assert decide(parse_sequent(wide + ' => q1')).is_proof
        assert compile_calls[0] == 0
        with pytest.raises(ProverError, match='up to size 4$'):
            decide(parse_sequent(
                'p, <>(~p & <>(p & <>(~p & <>p))) => false'))
        assert compile_calls[0] == 1


def search_result(g):
    """The search result that ``decide`` turns into its proof of ``g``."""
    return prover._search(g, frozenset(), (), prover._Search(64))


def box_places(sn):
    """The ids, in preorder, at which each box step's triple of the search
    result ``sn`` is placed in its cyclic proof, keyed by the triple's
    ``id``."""
    places = {}
    stack = [sn]
    i = 0
    while stack:
        triple = stack.pop()
        inst, children = triple[1:]
        if inst is not None and inst.rule is Rule.BOX_INF:
            places.setdefault(id(triple), []).append(i)
        stack.extend(reversed(children))
        i += 1
    return places


def span_end(proof, i):
    """One past the last id of the subtree at node ``i``, as ids are in
    preorder."""
    while proof.nodes[i].children:
        i = proof.nodes[i].children[-1]
    return i + 1


def test_to_cyclic_matches_the_reference():
    # Copying a shared subtree gives the proof that building each place
    # node by node gives, down to the key order of both dicts.
    goals = [parse_sequent(text) for text in HARD_GOALS]
    goals += [parse_sequent('[]p => %sp' % ('[]' * n)) for n in range(1, 13)]
    goals += [goal_of(f) for f in formulas_up_to(7)]
    proved = 0
    for g in goals:
        sn = search_result(g)
        if sn is None:
            continue
        proved += 1
        got, ref = prover._to_cyclic(sn), reference_to_cyclic(sn)
        assert list(got.nodes.items()) == list(ref.nodes.items())
        assert list(got.backlinks.items()) == list(ref.backlinks.items())
        assert (got.root, got.system) == (ref.root, ref.system)
    assert proved > len(HARD_GOALS)


def test_a_repeated_subtree_without_back_links_is_copied():
    sn = search_result(parse_sequent('[]p => %sp' % ('[]' * 8)))
    proof = prover._to_cyclic(sn)
    assert len(proof.nodes) == 767 and not proof.backlinks
    # Copies share their leaves with the first place.
    assert len({id(n) for n in proof.nodes.values()}) < len(proof.nodes)
    copies = 0
    for first, *later in box_places(sn).values():
        end = span_end(proof, first)
        for at in later:
            shift = at - first
            assert span_end(proof, at) == end + shift
            for j in range(first, end):
                old, new = proof.nodes[j], proof.nodes[j + shift]
                assert new.sequent is old.sequent and new.inst is old.inst
                assert new.children == tuple(c + shift for c in old.children)
                if not old.children:
                    assert new is old
            copies += 1
    assert copies > 0


def test_a_repeated_subtree_with_back_links_is_built_at_each_place():
    # The back-link targets of a shared subtree depend on its branch, so
    # it may not be copied: each target is the one that building every
    # place node by node finds.
    sn = search_result(parse_sequent(
        '[]([](p -> []p) -> p) & []([](q -> []q) -> q) => []p & []q'))
    proof, ref = prover._to_cyclic(sn), reference_to_cyclic(sn)
    assert len(proof.backlinks) == 212
    assert proof.backlinks == ref.backlinks
    # Some box step whose subtree holds a back-link is placed twice.
    assert any(
        any(j in proof.backlinks for j in range(first, span_end(proof, first)))
        for first, *later in box_places(sn).values() if later)


def test_a_call_leaves_no_cyclic_garbage():
    # A proof, an interpolant and everything built for them are freed by
    # reference counting when the last reference goes: with the cyclic
    # collector off, a collection afterwards finds nothing unreachable.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        results = [decide(parse_sequent(text)) for text in (
            '[]p => [][][][][][][][]p',
            '[]([](p -> []p) -> p) & []([](q -> []q) -> q) => []p & []q',
            '=> []q1, []q2, []q3',
            'p, <>(~p & <>p) => false',
        )]
        results += [lyndon(parse_formula(a), parse_formula(b)) for a, b in (
            ('[]([](p -> []p) -> p)', '[]p'),
            ('[]p & [](p -> q)', '[]q'),
        )]
        example = grz_axiom_cyclic_proof()
        root = example.nodes[example.root].sequent
        results.append(interpolate(
            example, SplitSequent(root.ant, EMPTY, EMPTY, root.suc)))
        del results, example, root
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
