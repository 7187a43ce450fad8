"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

It runs set-up, one untraced and one traced round of every workload on a
tiny input and requires every check to pass and every metric named in
``BENCHMARK.json`` to be printed in its unit.  Then it shows that the
checks reject corrupted outputs: a proof with a corrupted node, a proof
of another goal, a cut-free result with a cut put back, bogus
countermodels, an interpolant with a stray atom, a wrong verdict, and a
failure where none is expected or none where one is.
Exits 0 when all of this holds.
"""

import json
import os
import sys
from dataclasses import replace

import checks as C
import run
import spans
import speed
import workloads
from checks import atom, box, imp
from program import load_program

P, Q = atom('p'), atom('q')
failures = []


def expect(ok, what):
    print('%s  %s' % ('PASS' if ok else 'FAIL', what))
    if not ok:
        failures.append(what)


def declared_metrics():
    """(end-to-end, per-layer) metric names and units in BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), 'BENCHMARK.json')
    with open(path) as fp:
        spec = json.load(fp)
    expect(sorted(w['name'] for w in spec['workloads'])
           == sorted(workloads.WORKLOADS),
           'BENCHMARK.json names every workload')
    return ({m['name']: m['unit'] for m in spec['end_to_end']},
            {m['name']: m['unit'] for m in spec['per_layer']})


def tiny_workloads():
    end_to_end, per_layer = declared_metrics()
    for name, w in sorted(workloads.WORKLOADS.items()):
        with speed.sampling():
            inputs, intervals, setup_tr, errors = run.set_up(w, 7, True,
                                                             tiny=True)
            rounds, round_errors = run.measure(w, inputs, 0, True)
        peak = run.peak_rss_mb()
        times, setup_scale = run.finish(rounds, intervals)
        expect(not errors, '%s: set-up and warm-up pass their checks %s'
               % (name, errors[:2]))
        errors = round_errors
        expect(not errors, '%s: two tiny rounds pass their checks %s'
               % (name, errors[:2]))
        failed = [f for r, _ in rounds for f in r.failures]
        expected = 2 if name == 'search' else 0
        expect(len(failed) == expected,
               '%s: %d failed ops, expected %d' % (name, len(failed),
                                                   expected))
        layers, _ = run.per_layer(rounds, (setup_tr, setup_scale))
        totals = run.end_to_end(rounds, times, peak)
        expect({k: u for k, (_, u) in layers.items()} == per_layer
               and {k: u for k, (_, u) in totals.items()} == end_to_end,
               '%s: prints the metrics of BENCHMARK.json, in its units'
               % name)
        metrics = dict(layers, **totals)
        zero = [k for k, (v, unit) in metrics.items()
                if v == 0 and unit in ('s', 'ms', 'op/s', 'MB')]
        expect(not zero, '%s: no time reads 0 %s' % (name, zero))


class FakeModel:
    def __init__(self, worlds, order, valuation):
        self.d = {'worlds': worlds, 'order': order, 'valuation': valuation}

    def describe(self):
        return self.d


class FakeInterpolation:
    def __init__(self, interpolant, left, right):
        self.interpolant = interpolant
        self.left_obligation = left
        self.right_obligation = right


def corrupted_outputs():
    prog = load_program()
    goal = imp(box(P), P)
    proof = prog.decide(prog.parse_formula('[]p -> p')).proof
    expect(not C.cyclic_proof_errors(prog, proof, [], [goal]),
           'a prover proof of []p -> p passes')

    leaf = max(proof.nodes)
    node = proof.nodes[leaf]
    other = prog.parse_sequent('p => q')
    bad = dict(proof.nodes)
    bad[leaf] = replace(node, sequent=other)
    bad_proof = prog.CyclicProof(bad, proof.root, proof.backlinks,
                                 proof.system)
    expect(C.cyclic_proof_errors(prog, bad_proof, [], [goal]) != [],
           'a proof with a corrupted node is rejected')
    expect(C.cyclic_proof_errors(prog, proof, [], [imp(box(Q), Q)]) != [],
           'a proof of another goal is rejected')

    # A cut-free pipeline result whose proof has a cut step put back.
    warm = workloads.warm_up(prog, spans.NullTracer())
    text, root_key, out = warm[-1]
    expect(not C.cutfree_errors(prog, out, root_key),
           'a cut-free pipeline result passes')
    cut_inst = prog.load_proof(text)
    cut_node = next(n for n in cut_inst.nodes.values()
                    if n.inst is not None and n.inst.rule.value == 'cut')
    nodes = dict(out.proof.nodes)
    nodes[out.proof.root] = replace(nodes[out.proof.root],
                                    inst=cut_node.inst)
    out.proof = prog.CyclicProof(nodes, out.proof.root, out.proof.backlinks,
                                 out.proof.system)
    expect(C.cutfree_errors(prog, out, root_key) != [],
           'a cut-free result with a cut node is rejected')

    # p -> []p fails at world 0 of  0 <= 1  with p true at 0 only.
    goal = imp(P, box(P))
    good = FakeModel(2, [[0, 1], [1]], {'p': [0]})
    expect(not C.countermodel_errors(good, 0, [], [goal]),
           'a true countermodel passes')
    expect(C.countermodel_errors(good, 1, [], [goal]) != [],
           'a countermodel at a world where the goal holds is rejected')
    expect(C.countermodel_errors(FakeModel(2, [[0, 1], [1]], {'p': [0, 1]}),
                                 0, [], [goal]) != [],
           'a countermodel whose valuation makes the goal true is rejected')
    expect(C.countermodel_errors(FakeModel(2, [[1], [1]], {'p': [0]}),
                                 0, [], [goal]) != [],
           'a countermodel on a non-reflexive frame is rejected')
    expect(C.countermodel_errors(FakeModel(2, [[0, 1], [0, 1]], {'p': [0]}),
                                 0, [], [goal]) != [],
           'a countermodel on a symmetric frame is rejected')

    a, b = prog.parse_formula('p'), prog.parse_formula('p | q')
    stray = prog.parse_formula('q')
    fake = FakeInterpolation(stray, prog.parse_sequent('p => q'),
                             prog.parse_sequent('q => p | q'))
    expect(C.interpolant_errors(prog, fake, P, C.from_program(b)) != [],
           'an interpolant with an atom outside A is rejected')
    real = prog.lyndon(a, b)
    expect(not C.interpolant_errors(prog, real, P, C.from_program(b)),
           'the interpolant lyndon returns for p -> p | q passes')

    goals = workloads.search_goals(tiny=True)
    flipped = [(t, ant, suc, not theorem, fails)
               for t, ant, suc, theorem, fails in goals]
    r = workloads.Search().run(flipped, spans.NullTracer())
    expect(len(r.errors) == r.attempted - r.failed,
           'every verdict that disagrees with its known answer is rejected')
    # Marking the failing goal as passing, and every other as failing.
    unmarked = [(t, ant, suc, theorem, not fails)
                for t, ant, suc, theorem, fails in goals]
    r = workloads.Search().run(unmarked, spans.NullTracer())
    expect(r.failed == 1 and len(r.errors) == r.attempted,
           'an unexpected failure, and a missing expected one, are rejected')


def main():
    tiny_workloads()
    corrupted_outputs()
    print('%d failures' % len(failures))
    return 1 if failures else 0


if __name__ == '__main__':
    sys.exit(main())
