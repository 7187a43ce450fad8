import random
import sys
import time

import pytest

from grzproofs.calculus import (
    Rule, System, ax_atom, ax_general, box_inf, fixed_premise, imp_l, imp_r,
    refl,
)
from grzproofs import calculus, transforms
from grzproofs.examples import grz_axiom_cyclic_proof
from grzproofs.proofs import (
    ResourceLimitError, check_cyclic, check_wf, cutfree_to_depth, frag_eq,
    eager, leaf, load_proof, local_height, unravel, validate_to_depth,
    walk_to_depth, wf_from_cyclic,
)
from grzproofs.prover import decide
from grzproofs.syntax import (
    Atom, Box, Implies, Sequent, BOT, EMPTY, mset, parse_formula,
    parse_sequent,
)
from grzproofs.transforms import (
    RegularizeError, TransformError, ax_proof, build_cut,
    contract_atom_left, contract_atom_right, contract_left, contract_right,
    eliminate_cuts, grz_schema_proof, inf_to_seq, invert_bottom,
    invert_box_right, invert_imp_antecedent, invert_imp_left,
    invert_imp_right, re, reduce_cut, regularize, seq_to_inf, slim, wk,
    _grz_knot,
)

import helpers
from helpers import complete_proofs, refl_chain

P, Q = Atom('p'), Atom('q')


def one_proof(text, budget=6):
    return next(complete_proofs(parse_sequent(text), budget))


def assert_valid(p, depth=8):
    report = validate_to_depth(p, System.GRZ_INF, depth)
    assert report.ok, report.violations


class TestWeakening:
    def test_extends_the_root_sequent(self):
        p = one_proof('p => p')
        out = wk(p, mset(Q), mset(Box(Q)))
        assert out.root == parse_sequent('q, p => p, []q')
        assert_valid(out)

    def test_box_right_premises_are_untouched(self):
        base = unravel(grz_schema_proof(P))
        out = wk(base, mset(Q), EMPTY)
        # The right premise of the first box step is a fresh branch of the
        # infinite proof and must not inherit the weakening.
        box = out.child(0).child(1)
        assert box.rule == Rule.BOX_INF
        assert Q not in box.child(1).root.ant
        assert_valid(out)

    def test_preserves_local_height(self):
        base = unravel(grz_schema_proof(P))
        assert local_height(wk(base, mset(Q), mset(Q))) == local_height(base)


class TestInversions:
    def test_invert_imp_right(self):
        p = one_proof('=> p -> p')
        out = invert_imp_right(p, Implies(P, P))
        assert out.root == parse_sequent('p => p')
        assert_valid(out)

    def test_invert_imp_left_and_antecedent(self):
        p = one_proof('p -> q, q => q', 7)
        lft = invert_imp_left(p, Implies(P, Q))
        assert lft.root == parse_sequent('q, q => q')
        assert_valid(lft)
        rgt = invert_imp_antecedent(p, Implies(P, Q))
        assert rgt.root == parse_sequent('q => q, p')
        assert_valid(rgt)

    def test_invert_bottom(self):
        p = one_proof('p => false, p')
        out = invert_bottom(p)
        assert out.root == parse_sequent('p => p')
        assert_valid(out)

    def test_invert_box_right(self):
        p = one_proof('[]p => []p', 7)
        out = invert_box_right(p, Box(P))
        assert out.root == parse_sequent('[]p => p')
        assert_valid(out)

    def test_inversions_fail_without_the_target(self):
        p = one_proof('p => p')
        with pytest.raises(TransformError):
            invert_imp_right(p, Implies(P, P))
        with pytest.raises(TransformError):
            invert_bottom(p)
        with pytest.raises(TransformError):
            invert_box_right(p, Box(P))

    @pytest.mark.parametrize('invert, target, message', [
        (invert_imp_right, 'p -> p',
         'p -> p is not a succedent implication of p => p'),
        (invert_imp_left, 'p -> p',
         'p -> p is not an antecedent implication of p => p'),
        (invert_imp_left, 'p', 'p is not an antecedent implication of p => p'),
        (invert_imp_antecedent, 'p -> p',
         'p -> p is not an antecedent implication of p => p'),
        (invert_imp_antecedent, 'p',
         'p is not an antecedent implication of p => p'),
        (invert_box_right, 'p', 'p is not a boxed succedent formula of p => p'),
    ])
    def test_a_rejection_names_the_target_and_the_sequent(
            self, invert, target, message):
        with pytest.raises(TransformError) as e:
            invert(one_proof('p => p'), parse_formula(target))
        assert str(e.value) == message

    ON_TARGET = pytest.mark.parametrize('invert, step, k, text, target', [
        (invert_imp_right, imp_r, 0, '[]q, q => p -> q', 'p -> q'),
        (invert_imp_left, imp_l, 0, '[]q, q, p -> q => q', 'p -> q'),
        (invert_imp_antecedent, imp_l, 1, '[]q, q, p -> q => q', 'p -> q'),
        (invert_box_right, lambda s, t: box_inf(s, t, s.boxed_ant()), 0,
         '[]q, q => []q', '[]q'),
    ])

    @ON_TARGET
    def test_the_step_on_the_target_at_the_root_builds_no_sequent(
            self, invert, step, k, text, target, monkeypatch):
        s, t = parse_sequent(text), parse_formula(target)
        inst = step(s, t)
        below = eager(inst, *(next(complete_proofs(prem, 7))
                              for prem in inst.premises))

        def no_sequent(*args):
            raise AssertionError('the edited root sequent was built')

        # Neither the inversion nor the rule's constructor may build it.
        monkeypatch.setattr(transforms, 'Sequent', no_sequent)
        monkeypatch.setattr(calculus, 'Sequent', no_sequent)
        assert invert(below, t) is below.child(k)

    @ON_TARGET
    def test_the_step_on_the_target_gives_its_premise_itself(
            self, invert, step, k, text, target):
        # A refl step on []q sits above the step on the target; inverting
        # rebuilds the refl step, and its child is the target step's
        # premise k, the same object.
        s, t = parse_sequent(text), parse_formula(target)
        inst = step(s, t)
        below = eager(inst, *(next(complete_proofs(prem, 7))
                              for prem in inst.premises))
        top = eager(refl(Sequent(s.ant.remove(Q), s.suc), Box(Q)), below)
        out = invert(top, t)
        assert out.rule == Rule.REFL
        assert out.child(0) is below.child(k)
        assert_valid(out)


class TestContractions:
    def test_atomic_contraction_left(self):
        p = one_proof('p, p => p')
        out = contract_atom_left(p, P)
        assert out.root == parse_sequent('p => p')
        assert_valid(out)

    def test_atomic_contraction_right(self):
        p = one_proof('p => p, p')
        out = contract_atom_right(p, P)
        assert out.root == parse_sequent('p => p')
        assert_valid(out)

    def test_atomic_contraction_needs_two_copies(self):
        p = one_proof('p => p')
        with pytest.raises(TransformError):
            contract_atom_left(p, P)
        with pytest.raises(TransformError):
            contract_atom_right(p, P)

    def test_general_contraction_left(self):
        for text, a, result in (('[]p, []p => []p', Box(P), '[]p => []p'),
                                ('p, p => p', P, 'p => p')):
            out = contract_left(one_proof(text, 7), a)
            assert out.root == parse_sequent(result)
            assert_valid(out)

    @pytest.mark.parametrize('contract, message', [
        (contract_left, 'need two antecedent copies of []p in []p => []p'),
        (contract_right, 'need two succedent copies of []p in []p => []p'),
    ])
    def test_general_contraction_needs_two_copies(self, contract, message):
        with pytest.raises(TransformError) as e:
            contract(one_proof('[]p => []p', 7), Box(P))
        assert str(e.value) == message

    def test_general_contraction_right(self):
        p = one_proof('[]p => []p, []p', 7)
        out = contract_right(p, Box(P))
        assert out.root == parse_sequent('[]p => []p')
        assert_valid(out)

    def test_general_contraction_through_a_cut(self):
        # Cut reduction pushes the contraction's cut past the cut step at
        # the root, weakening its other premise by the cut formula.
        p = build_cut(leaf(ax_atom(parse_sequent('p => p, q'), P)),
                      leaf(ax_atom(parse_sequent('q, p => p, q'), P)), Q)
        out = contract_right(p, P)
        assert out.root == parse_sequent('p, p => p, q')
        assert out.rule == Rule.CUT
        report = validate_to_depth(out, System.GRZ_INF_CUT, 6)
        assert report.ok, report.violations


def edits(p):
    """(inputs, output) pairs of ``wk``, the five inversions,
    ``contract_atom_left`` and ``reduce_cut`` on ``p`` and on ``p``
    weakened by a formula of each kind they act on."""
    imp = Implies(Q, P)
    w = wk(p, mset(P, P, imp), mset(imp, Box(Q), BOT))
    out = [((p,), w)]
    for q in (p, w):
        s = q.root
        for f in s.suc.distinct():
            if isinstance(f, Implies):
                out.append(((q,), invert_imp_right(q, f)))
            elif isinstance(f, Box):
                out.append(((q,), invert_box_right(q, f)))
            elif f == BOT:
                out.append(((q,), invert_bottom(q)))
            # Cut q, weakened by f, against an axiom proof of f.
            d = wk(q, EMPTY, mset(f))
            r = reduce_cut(f, d, ax_proof(s.ant, f, s.suc.remove(f)))
            assert r.root == s
            out.append(((d,), r))
        for f in s.ant.distinct():
            if isinstance(f, Implies):
                out.append(((q,), invert_imp_left(q, f)))
                out.append(((q,), invert_imp_antecedent(q, f)))
            elif isinstance(f, Atom) and s.ant.count(f) > 1:
                out.append(((q,), contract_atom_left(q, f)))
            d = wk(q, mset(f), EMPTY)
            r = reduce_cut(f, ax_proof(s.ant.remove(f), f, s.suc), d)
            assert r.root == s
            out.append(((d,), r))
    return out


class TestChildrenAtTheirPremise:
    """A transformer builds each lazy child at the premise object that its
    parent's rebuilt step holds, so no child works its conclusion out
    again; only the root computes its own."""

    def checked_children(self, inputs, out, depth=6):
        """Assert that every forced non-fixed child of the nodes of
        ``out`` up to crossing depth ``depth`` proves its parent's premise
        object, and count them.  A child that is a node of an input, as
        where an inversion meets the step on its target, keeps the
        input's own conclusion and is skipped."""
        given = {id(q) for p in inputs
                 for q, _ in walk_to_depth(p, depth + 1)}
        n = 0
        for q, _ in walk_to_depth(out, depth):
            if id(q) in given:
                continue
            for k in range(q.inst.arity):
                c = q.child(k)
                if fixed_premise(q.rule, k) or id(c) in given:
                    continue
                assert c.root is q.inst.premises[k], (q, k)
                n += 1
        return n

    def test_on_the_bundled_example(self):
        counts = [self.checked_children(*case)
                  for case in edits(unravel(grz_axiom_cyclic_proof()))]
        assert len(counts) == 16 and sum(counts) > 100

    @pytest.mark.parametrize('f', helpers.formulas_up_to(4), ids=str)
    def test_on_axiom_proofs(self, f):
        p = ax_proof(EMPTY, f, EMPTY)
        counts = [self.checked_children(*case) for case in edits(p)]
        assert sum(counts) > 0 or p.is_leaf


class TestAxiomExpansion:
    @pytest.mark.parametrize('text', ['p', 'false', 'p -> q', '[]p',
                                      '[](p -> q)', '[]p -> []q', '[][][]p',
                                      '[]([]p -> q)'])
    def test_proves_the_general_axiom(self, text):
        a = parse_formula(text)
        p = ax_proof(mset(Q), a, mset(Box(Q)))
        assert p.root == Sequent(mset(Q, a), mset(a, Box(Q)))
        assert_valid(p, 10)
        assert cutfree_to_depth(p, 10)

    def test_box_depth_costs_linear_time(self):
        # The two premises of each box step share one proof, so the proof
        # of  []^n p => []^n p  is built once per box, not 2^n times.
        a = P
        for n in range(1, 61):
            a = Box(a)
            if n <= 18:
                assert local_height(ax_proof(EMPTY, a, EMPTY)) == 2 * n
        start = time.perf_counter()
        p = ax_proof(EMPTY, a, EMPTY)
        assert time.perf_counter() - start < 1
        assert p.root == Sequent(mset(a), mset(a))


class TestCutReduction:
    def cut_pair(self, left_text, right_text, budget=7):
        lft = next(complete_proofs(parse_sequent(left_text), budget))
        rgt = next(complete_proofs(parse_sequent(right_text), budget))
        return lft, rgt

    @pytest.mark.parametrize('a_text,left,right,result', [
        ('p', 'p => p, p', 'p, p => p', 'p => p'),
        ('false', 'p => p, false', 'false, p => p', 'p => p'),
        ('p -> q', 'q => q, p -> q', 'p -> q, q => q', 'q => q'),
        ('[]p', '[]p => p, []p', '[]p, []p => p', '[]p => p'),
    ])
    def test_removes_the_cut_formula(self, a_text, left, right, result):
        a = parse_formula(a_text)
        lft, rgt = self.cut_pair(left, right)
        out = reduce_cut(a, lft, rgt)
        assert out.root == parse_sequent(result)
        assert_valid(out)
        assert cutfree_to_depth(out, 8)

    def test_roots_that_are_not_a_cut_pair_are_returned_unchanged(self):
        lft, rgt = self.cut_pair('p => p, p', 'p, p => p')
        assert reduce_cut(Q, lft, rgt) is lft
        assert reduce_cut(P, lft, lft) is lft

    def test_a_box_cut_on_a_false_axiom_is_not_initial(self):
        # The right step is no valid axiom: []p is not in its succedent.
        # Reducing the cut comes to close  []p =>  by an axiom, and no
        # axiom closes it.
        a = Box(P)
        lft = leaf(ax_general(parse_sequent('[]p => []p'), a))
        rgt = leaf(calculus.RuleInstance(
            Rule.AX_GENERAL, parse_sequent('[]p, []p =>'), (), a))
        with pytest.raises(TransformError) as e:
            reduce_cut(a, lft, rgt)
        assert str(e.value) == 'sequent []p =>  is not initial'

    def test_build_cut_needs_a_cut_formula(self):
        p = one_proof('p => p')
        with pytest.raises(TransformError) as e:
            build_cut(p, p, Q)
        assert str(e.value) == 'q is not a cut formula for p => p / p => p'

    def test_re_factory_matches_reduce_cut(self):
        lft, rgt = self.cut_pair('p => p, p', 'p, p => p')
        assert frag_eq(re(P)(lft, rgt), reduce_cut(P, lft, rgt), 8)

    def test_works_on_infinite_inputs(self):
        base = unravel(grz_schema_proof(P))
        lft = wk(base, EMPTY, mset(Box(P)))
        rgt = next(complete_proofs(
            parse_sequent('[]p, []([](p -> []p) -> p) => p'), 6))
        out = reduce_cut(Box(P), lft, rgt)
        assert out.root == base.root
        assert_valid(out, 6)
        assert cutfree_to_depth(out, 6)


class TestCutElimination:
    def build_proof_with_cut(self):
        lft = wk(one_wf('p => p'), EMPTY, mset(Q))
        rgt = wk(one_wf('p => p'), mset(Q), EMPTY)
        return build_cut(lft, rgt, Q)

    def test_removes_all_cuts(self):
        wf = self.build_proof_with_cut()
        assert wf.inst.rule == Rule.CUT
        out = eliminate_cuts(wf)
        assert out.root == wf.inst.conclusion
        assert cutfree_to_depth(out, 12)
        assert_valid(out, 12)

    def test_identity_on_cutfree_input(self):
        base = unravel(grz_schema_proof(P))
        out = eliminate_cuts(base)
        assert frag_eq(out, base, 6)


def one_wf(text):
    """A finitary proof via the decision procedure."""
    verdict = decide(parse_sequent(text))
    return inf_to_seq(unravel(verdict.proof))


class TestSlim:
    def test_right_premises_become_sets(self):
        # A proof whose box step carries a duplicated boxed context.
        goal = parse_sequent('[]p, []p => []p')
        p = next(complete_proofs(goal, 7))
        out = slim(p)
        for node, _ in walk_to_depth(out, 3):
            if node.rule == Rule.BOX_INF:
                ant = node.inst.premises[1].ant
                assert ant == ant.dedupe()
        assert_valid(out)

    def test_preserves_the_root(self):
        base = unravel(grz_schema_proof(P))
        assert slim(base).root == base.root


class TestRegularize:
    def test_folds_the_schema_unraveling_back(self):
        base = unravel(grz_schema_proof(P))
        cyc = regularize(base)
        assert check_cyclic(cyc).ok
        assert cyc.node(cyc.root).sequent == base.root

    def test_reports_when_no_fold_is_found(self):
        base = unravel(grz_schema_proof(P))
        with pytest.raises(RegularizeError):
            regularize(base, max_crossings=0)

    @pytest.mark.parametrize('cap', [{'max_crossings': 0}, {'max_nodes': 5}])
    def test_both_caps_are_resource_limits(self, cap):
        base = unravel(grz_schema_proof(P))
        with pytest.raises(ResourceLimitError) as e:
            regularize(base, **cap)
        assert isinstance(e.value, TransformError)

    def test_unravel_of_the_fold_matches_the_input(self):
        base = unravel(grz_schema_proof(P))
        cyc = regularize(base)
        assert frag_eq(unravel(cyc), base, 6)

    def test_reports_when_the_node_cap_is_exceeded(self):
        base = unravel(grz_schema_proof(P))
        with pytest.raises(RegularizeError, match='exceeded 5 nodes'):
            regularize(base, max_nodes=5)

    def test_a_proof_that_keeps_a_cut_folds_into_the_calculus_with_cut(
            self):
        # The translation of a box step cuts against the schema's knot,
        # whose fold has a back-link.
        wf = inf_to_seq(unravel(decide(parse_sequent('[]p => [][]p')).proof))
        cyc = regularize(seq_to_inf(wf))
        assert cyc.system == System.GRZ_INF_CUT and cyc.backlinks
        assert check_cyclic(cyc).ok
        assert regularize(unravel(grz_schema_proof(P))).system == \
            System.GRZ_INF


class TestDeepProofs:
    def test_a_1200_step_chain_runs_the_pipeline_at_the_default_limit(
            self, monkeypatch):
        def refuse(limit):
            raise AssertionError('the recursion limit was changed')

        limit = sys.getrecursionlimit()
        monkeypatch.setattr(sys, 'setrecursionlimit', refuse)
        lazy = seq_to_inf(wf_from_cyclic(refl_chain(1200)))
        out = regularize(slim(eliminate_cuts(lazy)))
        report = check_cyclic(out)
        assert report.ok, report.violations
        wf = inf_to_seq(unravel(out))
        report = check_wf(wf, System.GRZ_SEQ)
        assert report.ok, report.violations
        assert sys.getrecursionlimit() == limit

    def test_inf_to_seq_reports_a_loop_without_a_crossing(self):
        # Both premises of the box step link back to it, so its left
        # premise loops once the right one has been crossed.
        proof = load_proof("""{"system": "grz_inf", "nodes": [
          {"id": 0, "sequent": "=> []p", "rule": "box_inf",
           "principal": "[]p", "children": [1, 2]},
          {"id": 1, "sequent": "=> []p", "rule": null, "children": []},
          {"id": 2, "sequent": "=> []p", "rule": null, "children": []}],
          "backlinks": {"1": 0, "2": 0}}""")
        with pytest.raises(TransformError, match='without crossing'):
            inf_to_seq(unravel(proof))


def _grz(x):
    """The Grz axiom []([](x -> []x) -> x)."""
    return Box(Implies(Box(Implies(x, Box(x))), x))


class TestCutfreeCompositions:
    def test_seeded_compositions_with_backlinks_stay_valid(self):
        # Random inputs rarely give a cut-free proof with a back-link; a
        # Grz axiom as the left cut premise does, through the schema knot.
        rng = random.Random(0)
        small = helpers.formulas_up_to(2)
        outs = []
        while len(outs) < 30:
            x = rng.choice(small)
            a = rng.choice((_grz(x), Box(x), x, rng.choice(small)))
            b = rng.choice((Box(x), x, rng.choice(small),
                            Box(rng.choice(small))))
            c = rng.choice((x, rng.choice(small), Box(rng.choice(small))))
            verdicts = [decide(Sequent(mset(lhs), mset(rhs)))
                        for lhs, rhs in ((a, b), (b, c))]
            if any(v.proof is None for v in verdicts):
                continue
            halves = [inf_to_seq(unravel(v.proof)) for v in verdicts]
            wf = build_cut(halves[0], halves[1], b)
            out = regularize(slim(eliminate_cuts(seq_to_inf(wf))))
            report = check_cyclic(out)
            assert report.ok, (a, b, c, report.violations)
            report = check_wf(inf_to_seq(unravel(out)), System.GRZ_SEQ)
            assert report.ok, (a, b, c, report.violations)
            outs.append(out)
        assert sum(bool(out.backlinks) for out in outs) >= 3


class TestTranslations:
    THEOREMS = ['p -> p', '[]p -> p', '[]p -> [][]p',
                '[](p -> q) -> ([]p -> []q)']

    @pytest.mark.parametrize('text', THEOREMS)
    def test_inf_to_seq_yields_finitary_proofs(self, text):
        verdict = decide(parse_sequent('=> ' + text))
        wf = inf_to_seq(unravel(verdict.proof))
        report = check_wf(wf, System.GRZ_SEQ)
        assert report.ok, report.violations
        assert wf.inst.conclusion == parse_sequent('=> ' + text)

    @pytest.mark.parametrize('text', THEOREMS)
    def test_seq_to_inf_round_trip(self, text):
        wf = one_wf('=> ' + text)
        lazy = seq_to_inf(wf)
        assert lazy.root == wf.inst.conclusion
        out = eliminate_cuts(lazy)
        assert cutfree_to_depth(out, 10)
        assert_valid(out, 10)

    @pytest.mark.parametrize('translate, step', [
        (seq_to_inf, ax_atom), (inf_to_seq, ax_general)],
        ids=['seq_to_inf', 'inf_to_seq'])
    def test_a_step_of_the_other_calculus_is_rejected(self, translate, step):
        # The atomic axiom is a step of the non-well-founded calculus only,
        # the general axiom of the finitary one only.
        with pytest.raises(TransformError, match=(
                '^cannot translate a %s step$' % step.__name__)):
            translate(leaf(step(parse_sequent('p => p'), P)))

    def test_a_shared_input_node_is_translated_once(self, monkeypatch):
        # wf_from_cyclic makes the 43 positions of this input 28 nodes.
        proof = helpers.loaded_cut_composition('[]([](p -> []p) -> p)',
                                               '[]p', '[][][]p')
        wf = wf_from_cyclic(proof)
        knots = []
        monkeypatch.setattr(transforms, '_grz_knot',
                            lambda a: knots.append(a) or _grz_knot(a))
        out_of, stack = {}, [(wf, seq_to_inf(wf))]
        while stack:
            p, q = stack.pop()
            out_of.setdefault(p, set()).add(q)
            if p.rule is Rule.BOX_GRZ:
                # The premise's translation sits above the right premise
                # of the box step under the cut that the step becomes.
                stack.append((p.child(0),
                              q.child(1).child(0).child(1).child(0)))
            else:
                stack.extend(zip(p.children, q.children))
        assert sum(map(len, out_of.values())) == len(out_of) == 28
        box_steps = [p for p in out_of if p.rule is Rule.BOX_GRZ]
        assert len(knots) == len(box_steps) == 6

    def test_box_grz_compilation_introduces_cuts(self):
        wf = one_wf('=> []p -> []p')
        lazy = seq_to_inf(wf)
        report = validate_to_depth(lazy, System.GRZ_INF_CUT, 6)
        assert report.ok, report.violations
        assert not cutfree_to_depth(lazy, 6)


class TestSchemaProof:
    @pytest.mark.parametrize('text', ['p', 'q', 'p -> q', '[]p'])
    def test_valid_for_arbitrary_formulas(self, text):
        cyc = grz_schema_proof(parse_formula(text))
        report = check_cyclic(cyc)
        assert report.ok, report.violations

    @pytest.mark.parametrize('text', ['p', 'p -> q', '[]p'])
    def test_the_one_backlink_ties_the_knot_at_the_root(self, text):
        # So the fold unravels to the knot that seq_to_inf uses directly.
        a = parse_formula(text)
        cyc = grz_schema_proof(a)
        assert list(cyc.backlinks.values()) == [cyc.root]
        assert frag_eq(unravel(cyc), _grz_knot(a), 8)

    def test_concludes_the_axiom_sequent(self):
        a = parse_formula('p -> q')
        cyc = grz_schema_proof(a)
        root = cyc.node(cyc.root).sequent
        assert root == Sequent(mset(Box(Implies(Box(Implies(a, Box(a))), a))),
                               mset(a))
