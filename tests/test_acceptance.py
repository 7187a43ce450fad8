"""Top-level acceptance checks, one test per criterion.

Each test appends a single pass/fail line to the terminal summary (see
``conftest.ACCEPTANCE_LINES``) and then asserts, so a failing criterion
both breaks the run and is called out by name.
"""

import random
import time

import pytest

import conftest
import helpers

from grzproofs.calculus import Rule, RuleInstance, System, box_inf
from grzproofs.cli import random_wf_proof
from grzproofs.examples import grz_axiom_cyclic_proof
from grzproofs.interpolation import lyndon
from grzproofs.proofs import (
    CyclicNode, CyclicProof, check_cyclic, check_wf, cutfree_to_depth,
    distance, frag_eq, local_height, unravel, validate_to_depth,
)
from grzproofs.prover import decide, find_countermodel
from grzproofs.syntax import (
    Atom, Box, Implies, Sequent, BOT, EMPTY, atom_polarities, conj, diamond,
    disj, mset, neg, parse_formula, parse_sequent,
)
from grzproofs.transforms import (
    contract_atom_left, contract_atom_right, eliminate_cuts, grz_schema_proof,
    inf_to_seq, invert_bottom, invert_box_right, invert_imp_antecedent,
    invert_imp_left, invert_imp_right, re, regularize, seq_to_inf, slim, wk,
)

P, Q = Atom('p'), Atom('q')


def record(num, ok, detail, seconds=None):
    stamp = '' if seconds is None else '  [%.1fs]' % seconds
    line = '%s  criterion %d: %s%s' % ('PASS' if ok else 'FAIL',
                                       num, detail, stamp)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 2/6 share one exhaustive sweep over small formulas.


@pytest.fixture(scope='module')
def sweep():
    """decide and find_countermodel on every formula of AST size <= 7 over
    {p, q}, with the disagreements and invalid proofs collected."""
    t0 = time.perf_counter()
    formulas = helpers.formulas_up_to(7)
    proofs = {}
    disagreements = []
    bad_proofs = []
    for f in formulas:
        goal = Sequent(EMPTY, mset(f))
        verdict = decide(goal)
        refutation = find_countermodel(goal, max_size=4)
        if verdict.is_proof != (refutation is None):
            disagreements.append(f)
        if verdict.is_proof:
            if not check_cyclic(verdict.proof).ok:
                bad_proofs.append(f)
            proofs[f] = verdict.proof
    return {'formulas': formulas, 'proofs': proofs,
            'disagreements': disagreements, 'bad_proofs': bad_proofs,
            'seconds': time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# 1. Fidelity of the shipped cyclic proof and its scripted mutations.


def _mutate(example, nodes=None, backlinks=None):
    table = dict(example.nodes)
    table.update(nodes or {})
    links = dict(example.backlinks)
    links.update(backlinks or {})
    return CyclicProof(table, example.root, links, example.system)


def test_criterion_1_shipped_proof_fidelity():
    t0 = time.perf_counter()
    example = grz_axiom_cyclic_proof()
    checks = []

    checks.append(check_cyclic(example).ok)
    checks.append(local_height(unravel(example)) == 4)

    def rejected(broken, needle):
        report = check_cyclic(broken)
        return (not report.ok
                and any(needle in v for v in report.violations))

    # Back-link retargeted to a non-ancestor.
    checks.append(rejected(_mutate(example, backlinks={9: 2}),
                           'not an ancestor'))

    # The box right premise between leaf and target removed: a second
    # back-link whose own box step is the leaf's parent, so no crossing
    # lies strictly in between.
    f = parse_formula('[]([](p -> []p) -> p)')
    s5 = parse_sequent('p, []([](p -> []p) -> p) => p, []p')
    inst = box_inf(s5, Box(P), mset(f))
    crossingless = _mutate(
        example,
        nodes={5: CyclicNode(s5, inst, (10, 11)),
               10: CyclicNode(inst.premises[0],
                              _ax_atom(inst.premises[0]), ()),
               11: CyclicNode(inst.premises[1], None, ())},
        backlinks={11: 0})
    checks.append(rejected(crossingless,
                           'no box right premise strictly in between'))

    # Back-link leaf with an altered sequent.
    altered = _mutate(example, nodes={
        9: CyclicNode(parse_sequent('[]([](p -> []p) -> p) => q'), None,
                      ())})
    checks.append(rejected(altered, 'unequal sequents'))

    # Refl step with a premise that does not match the rule schema.
    root = example.node(0)
    broken_inst = RuleInstance(Rule.REFL, root.sequent, (root.sequent,),
                               root.inst.principal, None)
    checks.append(rejected(
        _mutate(example, nodes={0: CyclicNode(root.sequent, broken_inst,
                                              (1,))}),
        'do not match the rule schema'))

    # Atomic axiom with a compound principal formula.
    leaf2 = example.node(2)
    compound = RuleInstance(Rule.AX_ATOM, leaf2.sequent, (), f, None)
    checks.append(rejected(
        _mutate(example, nodes={2: CyclicNode(leaf2.sequent, compound,
                                              ())}),
        'principal atom must occur on both sides'))

    seconds = time.perf_counter() - t0
    ok = all(checks) and seconds < 1.0
    record(1, ok, 'shipped cyclic proof valid, local height 4, '
                  '5 scripted mutations rejected by name', seconds)


def _ax_atom(sequent):
    from grzproofs.calculus import ax_atom
    return ax_atom(sequent, P)


# ---------------------------------------------------------------------------
# 2. Soundness / relative completeness of the decision procedure.


def test_criterion_2_prover_agrees_with_countermodel_search(sweep):
    ok = (len(sweep['formulas']) == 1875
          and not sweep['disagreements'] and not sweep['bad_proofs'])
    record(2, ok,
           'decide and exhaustive countermodel search agree on all %d '
           'formulas of size <= 7 (%d theorems, every proof checks)'
           % (len(sweep['formulas']), len(sweep['proofs'])),
           sweep['seconds'])


# ---------------------------------------------------------------------------
# 3. Hilbert axioms proved, standard non-theorems refuted.


def test_criterion_3_axiom_coverage():
    t0 = time.perf_counter()
    instances = {parse_formula('p'), parse_formula('q'),
                 Box(P), Implies(P, Q)}
    goals = set()
    for a in instances:
        for b in instances:
            goals.add(Implies(a, a))                          # tautologies
            goals.add(Implies(a, Implies(b, a)))
            goals.add(Implies(Implies(Implies(a, b), a), a))
            goals.add(Implies(neg(neg(a)), a))
            goals.add(Implies(Box(Implies(a, b)),
                              Implies(Box(a), Box(b))))       # distribution
            goals.add(Implies(Box(a), Box(Box(a))))           # transitivity
            goals.add(Implies(Box(a), a))                     # reflexivity
            goals.add(Implies(Box(Implies(Box(Implies(a, Box(a))), a)),
                              Box(a)))                        # Grz
    failed = [g for g in goals
              if not decide(Sequent(EMPTY, mset(g))).is_proof]

    refuted = 0
    non_theorems = [Implies(P, Box(P)),
                    Implies(Box(disj(P, Q)), disj(Box(P), Box(Q))),
                    Implies(diamond(P), Box(diamond(P)))]
    for g in non_theorems:
        verdict = decide(Sequent(EMPTY, mset(g)))
        if verdict.is_proof:
            continue
        model, world = verdict.countermodel
        if model.size <= 4 and not helpers.eval_formula(model, world, g):
            refuted += 1

    ok = not failed and refuted == len(non_theorems)
    record(3, ok,
           '%d Hilbert axiom instances proved, %d non-theorems refuted '
           'by models of <= 4 worlds' % (len(goals), refuted),
           time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 4. Cut elimination end to end on a random corpus.


def test_criterion_4_cut_elimination_pipeline():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    count, ok = 50, True
    for _ in range(count):
        wf = random_wf_proof(rng, steps=6)
        root = wf.inst.conclusion
        ok = ok and check_wf(wf, System.GRZ_SEQ_CUT).ok
        lazy = eliminate_cuts(seq_to_inf(wf))
        ok = ok and lazy.root == root
        ok = ok and cutfree_to_depth(lazy, 20)
        cyc = regularize(slim(lazy))
        ok = ok and check_cyclic(cyc).ok
        ok = ok and cyc.node(cyc.root).sequent == root
        back = inf_to_seq(unravel(cyc))
        ok = ok and check_wf(back, System.GRZ_SEQ).ok
        ok = ok and back.inst.conclusion == root
        if not ok:
            break
    seconds = time.perf_counter() - t0
    record(4, ok and seconds < 300,
           '%d seeded proofs with cut survive translation, cut '
           'elimination, slimming, regularization and translation back'
           % count, seconds)


# ---------------------------------------------------------------------------
# 5. Transformer contracts over an exhaustive small-proof corpus.


SEEDS = ['p => p', 'p, p => p', 'p => p, p', '[]p => p', 'false => q',
         '=> p -> p', '[]p => []p', '[]p => p, []p', '[]p, []q => []p',
         'q => q, p -> q', 'p -> q, p => q', 'p => false, p',
         '[]p, p => p, []q, p']


def _applicable(proof):
    """The height-contracting transformers applicable to a proof."""
    root = proof.root
    out = [('wk', lambda p: wk(p, mset(Q), EMPTY)),
           ('wk2', lambda p: wk(p, EMPTY, mset(Box(Q))))]
    for t in root.suc.distinct():
        if isinstance(t, Implies):
            out.append(('i_imp', lambda p, t=t: invert_imp_right(p, t)))
        if isinstance(t, Box):
            out.append(('li_box', lambda p, t=t: invert_box_right(p, t)))
    for t in root.ant.distinct():
        if isinstance(t, Implies):
            out.append(('li_imp', lambda p, t=t: invert_imp_left(p, t)))
            out.append(('ri_imp', lambda p, t=t: invert_imp_antecedent(p, t)))
    if BOT in root.suc:
        out.append(('i_bot', invert_bottom))
    for t in root.ant.distinct():
        if isinstance(t, Atom) and root.ant.count(t) >= 2:
            out.append(('acl', lambda p, t=t: contract_atom_left(p, t)))
    for t in root.suc.distinct():
        if isinstance(t, Atom) and root.suc.count(t) >= 2:
            out.append(('acr', lambda p, t=t: contract_atom_right(p, t)))
    return out


def test_criterion_5_transformer_contracts():
    t0 = time.perf_counter()
    ok, checks = True, 0

    corpus = {s: list(helpers.complete_proofs(parse_sequent(s), 6))
              for s in SEEDS}

    # Validity, adequacy and the height contract on every corpus proof.
    for proofs in corpus.values():
        for p in proofs:
            for _, fn in _applicable(p):
                out = fn(p)
                ok = ok and validate_to_depth(out, System.GRZ_INF, 10).ok
                ok = ok and cutfree_to_depth(out, 8)
                ok = ok and local_height(out) <= local_height(p)
                checks += 1

    # Non-expansiveness over same-sequent pairs of the corpus.
    for proofs in corpus.values():
        pack = proofs[:20]
        for i, a in enumerate(pack):
            for b in pack[i + 1:]:
                for n in range(0, 9):
                    if not frag_eq(a, b, n):
                        break
                    for _, fn in _applicable(a):
                        ok = ok and frag_eq(fn(a), fn(b), n)
                        checks += 1

    # Deep non-expansiveness: mutate the schema unraveling strictly beyond
    # fragment depth n and compare transformed outputs at depth n.
    base = unravel(grz_schema_proof(P))
    cache = {}

    def repl(s):
        if s not in cache:
            cache[s] = unravel(decide(s).proof)
        return cache[s]

    f_text = '[]([](p -> []p) -> p)'
    cut_pieces = {
        P: next(helpers.complete_proofs(
            parse_sequent('p, %s => p' % f_text), 3)),
        BOT: next(helpers.complete_proofs(
            parse_sequent('false, %s => p' % f_text), 3)),
        Implies(P, Q): wk(base, mset(Implies(P, Q)), EMPTY),
        Box(P): next(helpers.complete_proofs(
            parse_sequent('[]p, %s => p' % f_text), 6)),
    }
    for n in range(1, 9):
        graft = helpers.graft(base, n, repl)
        ok = ok and frag_eq(base, graft, n)
        ok = ok and frag_eq(wk(base, mset(Q), EMPTY),
                            wk(graft, mset(Q), EMPTY), n)
        checks += 2
        for a, tau in cut_pieces.items():
            lft = wk(base, EMPTY, mset(a))
            lftg = wk(graft, EMPTY, mset(a))
            out, outg = re(a)(lft, tau), re(a)(lftg, tau)
            ok = ok and frag_eq(out, outg, n)
            ok = ok and out.root == base.root
            checks += 2
            if n == 1:     # validity and adequacy of the cut reductions
                ok = ok and validate_to_depth(out, System.GRZ_INF, 6).ok
                ok = ok and cutfree_to_depth(out, 6)
                checks += 2

    record(5, ok,
           'weakening, inversions, contractions and cut reduction meet '
           'their contracts (%d checks over the exhaustive <= 6 node '
           'corpus and deep grafts)' % checks,
           time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 6. Lyndon interpolation for every provable small implication.


def test_criterion_6_lyndon_interpolation(sweep):
    t0 = time.perf_counter()
    ok, done = True, 0
    for f in sweep['proofs']:
        if not isinstance(f, Implies):
            continue
        result = lyndon(f.left, f.right)
        signed = lambda g: {(n, s)
                            for n, ss in atom_polarities(g).items()
                            for s in ss}
        i = signed(result.interpolant)
        ok = ok and i <= signed(f.left) and i <= signed(f.right)
        ok = ok and decide(result.left_obligation).is_proof
        ok = ok and decide(result.right_obligation).is_proof
        done += 1
        if not ok:
            break
    record(6, ok and done > 0,
           'Lyndon interpolants with verified polarity inclusions and '
           're-proved obligations for all %d provable implications of the '
           'sweep' % done, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# 7. The fragment metric is an ultrametric.


def test_criterion_7_metric_sanity(sweep):
    t0 = time.perf_counter()
    base = unravel(grz_schema_proof(P))
    cache = {}

    def repl(s):
        if s not in cache:
            cache[s] = unravel(decide(s).proof)
        return cache[s]

    pool = [base, unravel(grz_schema_proof(Q)),
            unravel(grz_schema_proof(Implies(P, Q))),
            unravel(grz_schema_proof(Box(P)))]
    pool += [helpers.graft(base, n, repl) for n in range(1, 6)]
    pool += [unravel(p) for p in list(sweep['proofs'].values())[::97]]
    pool += list(helpers.complete_proofs(parse_sequent('[]p => []p'), 7))

    rng = random.Random(31)
    memo = {}

    def d(a, b):
        key = (id(a), id(b))
        if key not in memo:
            memo[key] = distance(a, b, 10).value
        return memo[key]

    ok = True
    for _ in range(1000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ok = ok and d(a, c) <= max(d(a, b), d(b, c))
        ok = ok and frag_eq(a, b, 0)
    record(7, ok,
           'strong triangle inequality on 1000 seeded proof triples; '
           'depth-0 fragment equivalence is total',
           time.perf_counter() - t0)
