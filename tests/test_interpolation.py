import hashlib
from dataclasses import replace

import pytest

from grzproofs import interpolation
from grzproofs.interpolation import (
    InterpolationError, NotATheoremError, SplitSequent, interpolate, lyndon,
)
from grzproofs import prover
from grzproofs.prover import decide, provable
from grzproofs.calculus import System, ax_atom, ax_general
from grzproofs.examples import grz_axiom_cyclic_proof
from grzproofs.proofs import CyclicProof, check_cyclic, cyclic_from_wf, leaf
from grzproofs.transforms import build_cut
from grzproofs.syntax import (
    Atom, Box, EMPTY, Implies, Sequent, atom_polarities, conj, diamond,
    format_formula, mset, neg, parse_formula, parse_sequent,
    sequent_to_formula,
)

from helpers import eval_formula, formulas_up_to

P, Q = Atom('p'), Atom('q')


def signed_atoms(f):
    return {(name, sign) for name, signs in atom_polarities(f).items()
            for sign in signs}


def assert_lyndon(a, b, result):
    i = result.interpolant
    # Signed variable sharing: every signed atom of the interpolant occurs
    # with the same sign in both endpoints.
    assert signed_atoms(i) <= signed_atoms(a)
    assert signed_atoms(i) <= signed_atoms(b)
    assert decide(result.left_obligation).is_proof
    assert decide(result.right_obligation).is_proof


class TestLyndon:
    @pytest.mark.parametrize('a_text,b_text', [
        ('p', 'p'),
        ('[]p', '[]p'),
        ('[]p', 'p'),
        ('p & q', 'q'),
        ('[]p & [](p -> q)', '[]q'),
        ('[]p', '[](p | q)'),
        ('p & ~p', 'q'),
        ('p', 'q | ~q' ),
        ('[](p & q)', '[]p & []q'),
    ])
    def test_interpolates_valid_implications(self, a_text, b_text):
        a, b = parse_formula(a_text), parse_formula(b_text)
        assert_lyndon(a, b, lyndon(a, b))

    def test_shared_atoms_only(self):
        result = lyndon(parse_formula('p & q'), parse_formula('q | r'))
        assert set(atom_polarities(result.interpolant)) <= {'q'}

    def test_obligations_are_checked_by_search_alone(self, monkeypatch):
        # Only A => B is given a proof; the two obligations need a verdict.
        # On this goal a proof of the obligation I => B has a million nodes.
        built = []
        to_cyclic = prover._to_cyclic
        monkeypatch.setattr(prover, '_to_cyclic',
                            lambda sn: built.append(sn) or to_cyclic(sn))
        a = parse_formula('[]([]((p & q) -> [](p & q)) -> (p & q))')
        b = parse_formula('[](p & q)')
        result = lyndon(a, b)
        assert len(built) == 1
        i = result.interpolant
        assert signed_atoms(i) <= signed_atoms(a) & signed_atoms(b)
        assert provable(result.left_obligation)
        assert provable(result.right_obligation)

    @pytest.mark.parametrize('text, message', [
        ('r', 'polarity violation: r occurs + in interpolant r but not in '
              'both p and p'),
        ('false', 'obligation p => false is not provable'),
    ], ids=['foreign_atom', 'too_strong'])
    def test_a_wrong_interpolant_is_rejected(self, monkeypatch, text,
                                             message):
        # lyndon checks the interpolant it is given: an atom of neither
        # side, or one that A does not imply.
        extract = interpolation.interpolate
        monkeypatch.setattr(interpolation, 'interpolate', lambda proof, split:
                            replace(extract(proof, split),
                                    interpolant=parse_formula(text)))
        with pytest.raises(InterpolationError) as info:
            lyndon(P, P)
        assert str(info.value) == message

    def test_non_theorem_raises_with_countermodel(self):
        with pytest.raises(NotATheoremError) as info:
            lyndon(P, Box(P))
        model, world = info.value.countermodel
        assert not eval_formula(model, world,
                                parse_formula('p -> []p'))


# sha256 of the interpolants that ``lyndon`` returns for the provable
# implications among ``formulas_up_to(7)``, in order, one printed
# interpolant and a newline each, as the code produced them while
# ``_interp`` had two mirrored branches per rule.
GOLDEN_INTERPOLANTS = ('53697a3724a2162df353f89198b4cb7d'
                       '239acf1b3e05124f09127c9dc79c44d0')


@pytest.mark.golden
def test_interpolant_bytes_are_unchanged():
    h = hashlib.sha256()
    count = 0
    for f in formulas_up_to(7):
        if isinstance(f, Implies) and decide(Sequent(EMPTY, mset(f))).is_proof:
            text = format_formula(lyndon(f.left, f.right).interpolant)
            h.update((text + '\n').encode())
            count += 1
    assert count == 560
    assert h.hexdigest() == GOLDEN_INTERPOLANTS


class TestInterpolate:
    def test_a_box_on_the_left_of_the_split_gives_a_diamond(self):
        s = parse_sequent('[]p => []p')
        split = SplitSequent(EMPTY, s.suc, s.ant, EMPTY)
        result = interpolate(decide(s).proof, split)
        i = result.interpolant
        assert i == diamond(neg(P))
        assert result.left_obligation == Sequent(EMPTY, mset(Box(P), i))
        assert result.right_obligation == Sequent(mset(Box(P), i), EMPTY)
        assert decide(result.left_obligation).is_proof
        assert decide(result.right_obligation).is_proof

    def test_box_example_from_a_decided_proof(self):
        s = parse_sequent('[]p, [](p -> q) => []q')
        verdict = decide(s)
        split = SplitSequent(s.ant, EMPTY, EMPTY, s.suc)
        result = interpolate(verdict.proof, split)
        a = conj(Box(P), parse_formula('[](p -> q)'))
        b = parse_formula('[]q')
        assert_lyndon(a, b, result)

    def test_everything_on_one_side_gives_a_trivial_interpolant(self):
        s = parse_sequent('p => p')
        verdict = decide(s)
        split = SplitSequent(s.ant, s.suc, EMPTY, EMPTY)
        result = interpolate(verdict.proof, split)
        # With B empty the interpolant must be atom-free.
        assert atom_polarities(result.interpolant) == {}

    def test_rejects_an_invalid_proof_and_a_proof_with_cut(self):
        s = parse_sequent('p => p')
        split = SplitSequent(s.ant, EMPTY, EMPTY, s.suc)
        proof = decide(s).proof
        # An atomic axiom is not a step of the finitary calculus.
        finitary = CyclicProof(proof.nodes, proof.root, proof.backlinks,
                               System.GRZ_SEQ)
        with_cut = cyclic_from_wf(build_cut(
            leaf(ax_atom(parse_sequent('p => p, q'), P)),
            leaf(ax_atom(parse_sequent('q, p => p'), P)), Q),
            System.GRZ_INF_CUT)
        assert check_cyclic(with_cut).ok
        for bad, message in ((finitary, 'invalid proof'),
                             (with_cut, 'proof contains cut')):
            with pytest.raises(InterpolationError, match=message):
                interpolate(bad, split)

    def test_rejects_a_finitary_axiom(self):
        s = parse_sequent('p => p')
        proof = cyclic_from_wf(leaf(ax_general(s, P)), System.GRZ_SEQ)
        assert check_cyclic(proof).ok
        with pytest.raises(InterpolationError,
                           match='^unexpected ax_general step$'):
            interpolate(proof, SplitSequent(s.ant, EMPTY, EMPTY, s.suc))

    def test_the_walk_reads_a_back_link_as_its_target(self):
        # The bundled example's one back-link, 9 -> 0, returns to the root.
        example = grz_axiom_cyclic_proof()
        assert example.backlinks == {9: 0}
        root = example.nodes[example.root].sequent
        split = SplitSequent(root.ant, EMPTY, EMPTY, root.suc)
        assert format_formula(interpolate(example, split).interpolant) == (
            '(p -> false) -> [](([](((false -> false) -> false) -> false) '
            '-> false) -> false) -> false')
        # A back-link to a missing node is an invalid proof, caught before
        # the walk could look the node up.
        dangling = CyclicProof(example.nodes, example.root, {9: 42},
                               example.system)
        with pytest.raises(InterpolationError, match='^invalid proof: '):
            interpolate(dangling, split)

    def test_rejects_splits_that_do_not_cover_the_root(self):
        s = parse_sequent('p => p')
        verdict = decide(s)
        bad = SplitSequent(mset(Q), s.suc, EMPTY, EMPTY)
        with pytest.raises(InterpolationError):
            interpolate(verdict.proof, bad)


class TestSequentPolarity:
    """The signs of the atoms of a sequent are those of its formula
    reading."""

    def test_antecedent_flips_signs(self):
        s = Sequent(mset(parse_formula('p -> q')), mset(P))
        assert atom_polarities(sequent_to_formula(s)) == {'p': {'+'},
                                                          'q': {'-'}}

    def test_succedent_keeps_signs(self):
        s = Sequent(EMPTY, mset(parse_formula('p -> q')))
        assert atom_polarities(sequent_to_formula(s)) == {'p': {'-'},
                                                          'q': {'+'}}
