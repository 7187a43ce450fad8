import pytest

from grzproofs.calculus import (
    CalculusError, Rule, RuleInstance, System, ax_atom, ax_bottom,
    ax_general, box_grz, box_inf, crossing, cut, fixed_premise, imp_l, imp_r,
    refl, reinstance, step_violations,
)
from grzproofs.syntax import (
    Atom, Box, Implies, Sequent, BOT, mset, parse_sequent,
)

from helpers import applicable_instances

P, Q = Atom('p'), Atom('q')


class TestSystems:
    def test_cut_availability(self):
        assert System.GRZ_SEQ_CUT.allows_cut
        assert System.GRZ_INF_CUT.allows_cut
        assert not System.GRZ_SEQ.allows_cut
        assert not System.GRZ_INF.allows_cut

    def test_finitary_versus_nwf(self):
        assert System.GRZ_SEQ.is_finitary and not System.GRZ_SEQ.is_nwf
        assert System.GRZ_INF.is_nwf and not System.GRZ_INF.is_finitary


class TestPremiseKinds:
    @pytest.mark.parametrize('rule', list(Rule))
    @pytest.mark.parametrize('k', [0, 1])
    def test_crossing_and_fixed_premises(self, rule, k):
        # The right premise of the two-premise box rule is the one
        # crossing; it and the finitary box rule's premise hold only the
        # boxed context.
        crossings = {(Rule.BOX_INF, 1)}
        fixed = crossings | {(Rule.BOX_GRZ, 0), (Rule.BOX_GRZ, 1)}
        assert crossing(rule, k) == ((rule, k) in crossings)
        assert fixed_premise(rule, k) == ((rule, k) in fixed)


class TestConstructors:
    def test_imp_r_premise(self):
        c = parse_sequent('q => p -> q')
        inst = imp_r(c, Implies(P, Q))
        assert inst.premises == (parse_sequent('p, q => q'),)

    def test_imp_l_premises_in_order(self):
        c = parse_sequent('p -> q, p => q')
        inst = imp_l(c, Implies(P, Q))
        assert inst.premises == (parse_sequent('q, p => q'),
                                 parse_sequent('p => q, p'))

    def test_refl_keeps_the_box(self):
        c = parse_sequent('[]p => q')
        inst = refl(c, Box(P))
        assert inst.premises == (parse_sequent('p, []p => q'),)

    def test_box_inf_premises(self):
        c = parse_sequent('[]p, q => []q, p')
        inst = box_inf(c, Box(Q), mset(Box(P)))
        assert inst.premises == (parse_sequent('[]p, q => q, p'),
                                 parse_sequent('[]p => q'))

    def test_box_grz_premise_carries_the_trace(self):
        c = parse_sequent('[]p, q => []q, p')
        inst = box_grz(c, Box(Q), mset(Box(P)))
        assert inst.premises == (
            Sequent(mset(Box(P), Box(Implies(Q, Box(Q)))), mset(Q)),)

    @pytest.mark.parametrize('build, text, message', [
        (ax_bottom, 'p => p',
         'ax_bottom: false must occur in the antecedent of p => p'),
        (lambda c: imp_l(c, Implies(P, Q)), '=> p -> q',
         'imp_l principal p -> q not in antecedent of  => p -> q'),
    ], ids=['ax_bottom', 'imp_l'])
    def test_a_step_that_does_not_fit_is_rejected(self, build, text,
                                                  message):
        with pytest.raises(CalculusError) as info:
            build(parse_sequent(text))
        assert str(info.value) == message

    def test_cut_premises(self):
        c = parse_sequent('p => q')
        inst = cut(c, Box(P))
        assert inst.premises == (parse_sequent('p => q, []p'),
                                 parse_sequent('[]p, p => q'))

    def test_axioms_have_no_premises(self):
        assert ax_atom(parse_sequent('p => p'), P).premises == ()
        assert ax_bottom(parse_sequent('false => q')).premises == ()
        assert ax_general(parse_sequent('[]p => []p'), Box(P)).premises == ()

    def test_instances_hold_what_init_would_set(self):
        # RuleInstance sets its slots itself, not through the generated
        # __init__ of its frozen dataclass; a field left unset would raise
        # here, and equality, hash, repr and immutability stay the
        # dataclass's.
        c = parse_sequent('p -> q, p => q')
        steps = [imp_l(c, Implies(P, Q)), cut(c, Q),
                 ax_atom(parse_sequent('p => p'), P)]
        for inst in steps:
            fields = (inst.rule, inst.conclusion, inst.premises,
                      inst.principal, inst.cut_formula)
            again = RuleInstance(*fields)
            assert again == inst and hash(again) == hash(inst)
            assert again == RuleInstance(
                rule=inst.rule, conclusion=inst.conclusion,
                premises=inst.premises, principal=inst.principal,
                cut_formula=inst.cut_formula)
            assert repr(again) == (
                'RuleInstance(rule=%r, conclusion=%r, premises=%r, '
                'principal=%r, cut_formula=%r)' % fields)
        bare = RuleInstance(Rule.AX_BOTTOM, parse_sequent('false =>'))
        assert (bare.premises, bare.principal, bare.cut_formula) == (
            (), None, None)
        with pytest.raises(AttributeError):
            bare.principal = BOT

    def test_rules_hash_by_identity(self):
        # Rule keys the step table; an identity hash runs in C.
        assert all(hash(r) == object.__hash__(r) for r in Rule)
        assert len({r: r.value for r in Rule}) == len(Rule)

    def test_constructors_reject_missing_principal(self):
        with pytest.raises(CalculusError):
            imp_r(parse_sequent('p => q'), Implies(P, Q))
        with pytest.raises(CalculusError):
            refl(parse_sequent('p => q'), Box(P))
        with pytest.raises(CalculusError):
            ax_atom(parse_sequent('p => q'), P)
        with pytest.raises(CalculusError):
            box_inf(parse_sequent('q => []q'), Box(Q), mset(Box(P)))


class TestStepChecking:
    def test_valid_steps_have_no_violations(self):
        inst = imp_r(parse_sequent('=> p -> p'), Implies(P, P))
        assert step_violations(inst, System.GRZ_SEQ) == []
        assert step_violations(inst, System.GRZ_INF) == []

    def test_atomic_axiom_only_in_nwf_systems(self):
        inst = ax_atom(parse_sequent('p => p'), P)
        assert not step_violations(inst, System.GRZ_INF)
        assert step_violations(inst, System.GRZ_SEQ)

    def test_general_axiom_only_in_finitary_systems(self):
        inst = ax_general(parse_sequent('[]p => []p'), Box(P))
        assert not step_violations(inst, System.GRZ_SEQ)
        assert step_violations(inst, System.GRZ_INF)

    def test_an_unknown_rule_is_reported(self):
        inst = RuleInstance('bogus', parse_sequent('p => p'))
        assert step_violations(inst, System.GRZ_SEQ) == [
            "unknown rule 'bogus'"]
        with pytest.raises(CalculusError, match="^unknown rule 'bogus'$"):
            reinstance(inst, inst.conclusion)

    def test_cut_needs_a_cut_system(self):
        inst = cut(parse_sequent('p => p'), Q)
        assert not step_violations(inst, System.GRZ_SEQ_CUT)
        assert step_violations(inst, System.GRZ_SEQ)

    def test_tampered_premises_are_flagged(self):
        good = imp_r(parse_sequent('=> p -> q'), Implies(P, Q))
        bad = RuleInstance(Rule.IMP_R, good.conclusion,
                           (parse_sequent('q => p'),), good.principal, None)
        out = step_violations(bad, System.GRZ_INF)
        assert any('do not match the rule schema' in v for v in out)

    def test_stray_principal_and_cut_formulas_are_flagged(self):
        # The recorded principal and cut formula are compared with the
        # rebuilt step's, as the premises are; a proof file that records
        # an axiom's principal as null fails the same way.
        box = box_inf(parse_sequent('[]p => []p'), Box(P), mset(Box(P)))
        steps = [
            (RuleInstance(Rule.AX_BOTTOM, parse_sequent('false => q'), (),
                          principal=Q), 'principal q', 'false'),
            (RuleInstance(Rule.AX_BOTTOM, parse_sequent('false => q'), ()),
             'principal None', 'false'),
            (RuleInstance(Rule.BOX_INF, box.conclusion, box.premises,
                          box.principal, cut_formula=Q),
             'cut_formula q', 'None'),
        ]
        for inst, field, expected in steps:
            assert step_violations(inst, System.GRZ_INF) == [
                '%s: %s does not match the rule schema (expected %s)'
                % (inst.rule.value, field, expected)]

    @pytest.mark.parametrize('right, message', [
        ('[]p => q', "box_inf: premises ['p, []p, []q => p', '[]p => q'] "
         "do not match the rule schema (expected ['p, []p, []q => p', "
         "'[]p => p'])"),
        ('[]p => p, p', "box_inf: premises ['p, []p, []q => p', "
         "'[]p => p, p'] do not match the rule schema (expected "
         "['p, []p, []q => p', '[]p => p'])"),
        ('p, []p => p', 'box context must be boxed: Multiset([p, []p])'),
        ('[]r => p', 'box context Multiset([[]r]) not contained in '
         'p, []p, []q => []p'),
        ('[]p, []p => p', 'box context Multiset([[]p, []p]) not contained '
         'in p, []p, []q => []p'),
    ])
    def test_a_wrong_box_right_premise_is_flagged(self, right, message):
        # A rebuilt box step keeps its recorded right premise only when
        # the rule would build that premise; these are flagged as before.
        good = box_inf(parse_sequent('[]q, []p, p => []p'), Box(P),
                       mset(Box(P)))
        assert step_violations(good, System.GRZ_INF) == []
        inst = RuleInstance(Rule.BOX_INF, good.conclusion,
                            (good.premises[0], parse_sequent(right)), Box(P))
        assert step_violations(inst, System.GRZ_INF) == [message]

    def test_compound_principal_fails_the_atomic_axiom(self):
        inst = RuleInstance(Rule.AX_ATOM, parse_sequent('[]p => []p'), (),
                            Box(P), None)
        out = step_violations(inst, System.GRZ_INF)
        assert any('principal atom must occur on both sides' in v
                   for v in out)

    def test_malformed_steps_are_calculus_errors(self):
        # Each is rebuilt through its rule's constructor, axioms included,
        # so a step too malformed to rebuild is a CalculusError, which
        # the check reports, never an IndexError or AttributeError.
        c = parse_sequent('[]p => []p')
        steps = {
            System.GRZ_INF: [
                RuleInstance(Rule.BOX_INF, c, (parse_sequent('[]p => p'),),
                             Box(P)),
                RuleInstance(Rule.AX_ATOM, parse_sequent('p => q'), (), P)],
            System.GRZ_SEQ: [
                RuleInstance(Rule.BOX_GRZ, parse_sequent('=> p'),
                             (parse_sequent('=> p'),), P),
                RuleInstance(Rule.AX_GENERAL, c, (), None)],
            System.GRZ_SEQ_CUT: [RuleInstance(Rule.CUT, c, (c, c))],
        }
        for system, insts in steps.items():
            for inst in insts:
                with pytest.raises(CalculusError) as info:
                    reinstance(inst, inst.conclusion)
                assert step_violations(inst, system) == [str(info.value)]


class TestApplicableInstances:
    SEQUENTS = ['p => p', '[]p => []p', 'p -> q, p => q', '=> p -> p',
                'false, []q => p', '[]p, []q => []q, p', 'p, []p => p']

    @pytest.mark.parametrize('text', SEQUENTS)
    @pytest.mark.parametrize('system', [System.GRZ_SEQ, System.GRZ_INF])
    def test_every_instance_is_a_valid_step(self, text, system):
        goal = parse_sequent(text)
        for inst in applicable_instances(goal, system):
            assert inst.conclusion == goal
            assert step_violations(inst, system) == []

    def test_cut_is_never_enumerated(self):
        for text in self.SEQUENTS:
            for system in System:
                insts = applicable_instances(parse_sequent(text), system)
                assert all(i.rule != Rule.CUT for i in insts)

    def test_axiom_found_on_initial_sequents(self):
        insts = applicable_instances(parse_sequent('p => p'), System.GRZ_INF)
        assert any(i.rule == Rule.AX_ATOM for i in insts)
        insts = applicable_instances(parse_sequent('false => q'),
                                     System.GRZ_INF)
        assert any(i.rule == Rule.AX_BOTTOM for i in insts)

    def test_box_rule_offered_for_boxed_succedents(self):
        insts = applicable_instances(parse_sequent('[]p => []p'),
                                     System.GRZ_INF)
        boxes = [i for i in insts if i.rule == Rule.BOX_INF]
        assert boxes and all(i.principal == Box(P) for i in boxes)
