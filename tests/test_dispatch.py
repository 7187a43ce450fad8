"""The shared rule-rebuild dispatch, and golden digests of the cut-free
pipeline's output bytes and of the finitary proofs built from them."""

import hashlib
import random

import pytest

from grzproofs.calculus import (
    Rule, RuleInstance, System, ax_general, cut, fixed_premise, reinstance,
)
from grzproofs.cli import main, random_wf_proof
from grzproofs.proofs import (
    check_cyclic, check_wf, cyclic_from_wf, dump_proof, eager, leaf,
    load_proof, unravel,
)
from grzproofs.prover import decide
from grzproofs.syntax import EMPTY, Sequent, mset, parse_formula, parse_sequent
from grzproofs.transforms import (
    build_cut, eliminate_cuts, inf_to_seq, regularize, seq_to_inf, slim,
)

from helpers import P, Q, applicable_instances, formulas_up_to


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
                if inst.rule == Rule.BOX_INF:
                    assert out.premises[k] is inst.premises[k]
            else:
                s = inst.premises[k]
                assert out.premises[k] == Sequent(s.ant.add(Q), s.suc.add(Q))


def test_seq_to_inf_rederives_the_premises_of_its_input():
    # The recorded premise of the imp_r step lacks the q that the rule
    # moves to the antecedent; its child proves that wrong premise.
    wrong = parse_sequent('p => p, r')
    step = RuleInstance(Rule.IMP_R, parse_sequent('p => p, q -> r'),
                        (wrong,), parse_formula('q -> r'))
    lazy = seq_to_inf(eager(step, leaf(ax_general(wrong, P))))
    assert lazy.inst.premises == (parse_sequent('p, q => p, r'),)
    with pytest.raises(ValueError):
        lazy.child(0)


def _cutfree(wf):
    return regularize(slim(eliminate_cuts(seq_to_inf(wf))))


def _chain(at, bt, ct):
    a, b, c = map(parse_formula, (at, bt, ct))
    halves = [inf_to_seq(unravel(decide(Sequent(mset(x), mset(y))).proof))
              for x, y in ((a, b), (b, c))]
    return build_cut(halves[0], halves[1], b)


@pytest.fixture(scope='module')
def golden_outputs():
    """The cut-free proofs of 50 ``random_wf_proof(random.Random(0))``
    proofs and of one cut composition."""
    rng = random.Random(0)
    inputs = [random_wf_proof(rng) for _ in range(50)]
    inputs.append(_chain('[]([](p -> []p) -> p)', '[][]p', '[]p'))
    return [_cutfree(wf) for wf in inputs]


# sha256 of the cut-free JSON below, as the code produced it before the
# transformers shared one rule-rebuild dispatch.
GOLDEN = 'b749cebc1a0d23f345b4d5c2d78ae2289954befd97e127aa0b5924aa88906fca'


@pytest.mark.golden
def test_cutfree_output_bytes_are_unchanged(golden_outputs):
    h = hashlib.sha256()
    for out in golden_outputs:
        h.update(dump_proof(out).encode())
    assert h.hexdigest() == GOLDEN


# sha256 of the bytes of ``grzproofs corpus --count 50 --seed 0`` and of
# the finitary translations of the cut-free proofs above, as the code
# produced them while finite proofs had a node type of their own.
GOLDEN_FINITARY = ('d48194e69ae54c666308a1615f3a833b'
                   'f11a9373981211914611b2a30f3fcecb')


@pytest.mark.golden
def test_finitary_output_bytes_are_unchanged(golden_outputs, tmp_path):
    corpus = tmp_path / 'corpus.json'
    assert main(['corpus', '--count', '50', '--seed', '0',
                 '-o', str(corpus)]) == 0
    h = hashlib.sha256(corpus.read_bytes())
    for out in golden_outputs:
        wf = inf_to_seq(unravel(out))
        h.update(dump_proof(cyclic_from_wf(wf, System.GRZ_SEQ)).encode())
    assert h.hexdigest() == GOLDEN_FINITARY


# sha256 of the bytes of ``grzproofs corpus --count 50 --seed 0`` alone.
GOLDEN_CORPUS = ('45579af6cabf29b0c129d8aab58e1884'
                 '2b90f88a6146e74be1c1827d8db40416')


@pytest.mark.golden
def test_corpus_bytes_are_unchanged(tmp_path):
    corpus = tmp_path / 'corpus.json'
    assert main(['corpus', '--count', '50', '--seed', '0',
                 '-o', str(corpus)]) == 0
    assert hashlib.sha256(corpus.read_bytes()).hexdigest() == GOLDEN_CORPUS


# sha256 of the cut-free proofs of four of the cut compositions that the
# benchmark's ``cutchain`` workload runs, as the code produced them before
# ``regularize`` named its output's system from the steps it emits.  Their
# 4,842, 1,132, 309 and 444 nodes hold 640, 108, 12 and 32 back-links, so
# the digest pins where ``regularize`` places back-links on lazy inputs.
GOLDEN_CHAINS = ('86092dffa4645071b3fafcdcd5224f51'
                 '6992f78a2229df492e63666f01b9ddb1')

_GP = '[]([](p -> []p) -> p)'
_GQ = '[]([](q -> []q) -> q)'


_CHAINS = (('%s & %s' % (_GP, _GQ), '[]p', '[][]p'),
           (_GP, '[]p', '[][][]p'),
           ('%s & []q' % _GP, '[]p & []q', '[](p & q)'),
           ('%s & []q' % _GP, '[](p & q)', '[]p & []q'))


@pytest.fixture(scope='module')
def chain_outputs():
    return [_cutfree(_chain(*chain)) for chain in _CHAINS]


@pytest.mark.golden
def test_back_links_of_folded_cut_compositions_are_unchanged(chain_outputs):
    h = hashlib.sha256()
    for out in chain_outputs:
        h.update(dump_proof(out).encode())
    assert h.hexdigest() == GOLDEN_CHAINS


# sha256 of the finitary translations of the four proofs above after a
# dump and a load, each followed by the ``repr`` of the loaded proof's
# ``check_cyclic`` report and of the translation's ``check_wf`` report, as
# the code produced them before loading shared equal steps.  A loaded
# proof's repeated steps are what the translation and the checks share.
GOLDEN_LOADED_FINITARY = ('4b7d0ae439579baaa94ffe1fb4cbc7c4'
                          'b7396b538e6cfa60e522d6c2182a599e')


@pytest.mark.golden
def test_finitary_translations_of_loaded_outputs_are_unchanged(
        chain_outputs):
    h = hashlib.sha256()
    for out in chain_outputs:
        loaded = load_proof(dump_proof(out))
        wf = inf_to_seq(unravel(loaded))
        h.update(dump_proof(cyclic_from_wf(wf)).encode())
        h.update(repr(check_cyclic(loaded)).encode())
        h.update(repr(check_wf(wf)).encode())
    assert h.hexdigest() == GOLDEN_LOADED_FINITARY
