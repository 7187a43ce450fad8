"""The shared rule-rebuild dispatch, and a golden digest of the cut-free
pipeline's output bytes."""

import hashlib
import random

import pytest

from grzproofs.calculus import (
    Rule, RuleInstance, System, applicable_instances, ax_general, cut,
    fixed_premise, reinstance,
)
from grzproofs.cli import random_wf_proof
from grzproofs.proofs import WfProof, dump_proof, unravel
from grzproofs.prover import decide
from grzproofs.syntax import EMPTY, Sequent, mset, parse_formula, parse_sequent
from grzproofs.transforms import (
    build_cut, eliminate_cuts, inf_to_seq, regularize, seq_to_inf, slim,
)

from helpers import P, Q, formulas_up_to


def small_instances(system):
    for f in formulas_up_to(4):
        for goal in (Sequent(EMPTY, mset(f)), Sequent(mset(f), mset(f))):
            yield from applicable_instances(goal, system)


@pytest.mark.parametrize('system', [System.GRZ_INF, System.GRZ_SEQ])
def test_reinstance_at_own_conclusion_is_identity(system):
    seen = set()
    for inst in small_instances(system):
        assert reinstance(inst, inst.conclusion) == inst
        seen.add(inst.rule)
    box = Rule.BOX_INF if system.is_nwf else Rule.BOX_GRZ
    assert {Rule.IMP_R, Rule.IMP_L, Rule.REFL, box} <= seen
    c = cut(parse_sequent('[]p => p'), parse_formula('p -> q'))
    assert reinstance(c, c.conclusion) == c


@pytest.mark.parametrize('system', [System.GRZ_INF, System.GRZ_SEQ])
def test_reinstance_keeps_fixed_premises(system):
    for inst in small_instances(system):
        c = inst.conclusion
        out = reinstance(inst, Sequent(c.ant.add(Q), c.suc.add(Q)))
        assert out.rule == inst.rule and out.principal == inst.principal
        for k in range(inst.arity):
            if fixed_premise(inst.rule, k):
                assert out.premises[k] == inst.premises[k]
            else:
                s = inst.premises[k]
                assert out.premises[k] == Sequent(s.ant.add(Q), s.suc.add(Q))


def test_seq_to_inf_rederives_the_premises_of_its_input():
    # The recorded premise of the imp_r step lacks the q that the rule
    # moves to the antecedent; its child proves that wrong premise.
    wrong = parse_sequent('p => p, r')
    step = RuleInstance(Rule.IMP_R, parse_sequent('p => p, q -> r'),
                        (wrong,), parse_formula('q -> r'))
    lazy = seq_to_inf(WfProof(step, (WfProof(ax_general(wrong, P)),)))
    assert lazy.inst.premises == (parse_sequent('p, q => p, r'),)
    with pytest.raises(ValueError):
        lazy.child(0)


def _cutfree_json(wf):
    return dump_proof(regularize(slim(eliminate_cuts(seq_to_inf(wf)))))


def _chain(at, bt, ct):
    a, b, c = map(parse_formula, (at, bt, ct))
    halves = [inf_to_seq(unravel(decide(Sequent(mset(x), mset(y))).proof))
              for x, y in ((a, b), (b, c))]
    return build_cut(halves[0], halves[1], b)


# sha256 of the cut-free JSON below, as the code produced it before the
# transformers shared one rule-rebuild dispatch.
GOLDEN = 'b749cebc1a0d23f345b4d5c2d78ae2289954befd97e127aa0b5924aa88906fca'


def test_cutfree_output_bytes_are_unchanged():
    h = hashlib.sha256()
    rng = random.Random(0)
    for _ in range(50):
        h.update(_cutfree_json(random_wf_proof(rng)).encode())
    h.update(_cutfree_json(
        _chain('[]([](p -> []p) -> p)', '[][]p', '[]p')).encode())
    assert h.hexdigest() == GOLDEN
