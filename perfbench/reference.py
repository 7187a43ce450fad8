"""Reference figures measured once, outside the timed benchmark because a
single run of each takes tens of seconds to minutes.  Run from the root of
a checkout:

    python3 perfbench/reference.py

It measures three things in turn:

* ``chain``  -- the cut composition of the prover proofs for
  ``Grz(p) & Grz(q) => []p & []q`` and ``[]p & []q => [](p & q)``, through
  the cutchain op's stages, each timed once;
* ``boxes``  -- ``decide`` on  => []q1, ..., []q9;
* ``oracle`` -- ``find_countermodel`` re-confirming every theorem of the
  sweep (no countermodel up to 4 worlds), next to ``decide`` on the same
  goals.

Every output is checked as in the benchmark.
"""

import sys
from time import perf_counter

import checks as C
import spans
import workloads
from program import load_program

P, Q = C.atom('p'), C.atom('q')


def stage(name, fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    print('  %-44s %9.2f s' % (name, perf_counter() - t0), flush=True)
    return out


def chain(prog):
    g = '%s & %s' % (workloads.grz_text('p'), workloads.grz_text('q'))
    a, b, c = map(prog.parse_formula, (g, '[]p & []q', '[](p & q)'))
    print('chain  %s | []p & []q | [](p & q)' % g)
    halves = [stage('decide %s' % half, prog.decide,
                    prog.Sequent(prog.mset(lhs), prog.mset(rhs))).proof
              for half, (lhs, rhs) in (('A => B', (a, b)), ('B => C', (b, c)))]
    wfs = [stage('inf_to_seq half', lambda p: prog.inf_to_seq(
        prog.unravel(p)), h) for h in halves]
    joined = stage('build_cut', prog.build_cut, wfs[0], wfs[1], b)
    text = stage('dump input', lambda: prog.dump_proof(prog.cyclic_from_wf(
        joined, prog.System.GRZ_SEQ_CUT)))
    given = stage('load input (%d bytes)' % len(text), prog.load_proof, text)
    out = stage('seq_to_inf, eliminate_cuts, slim, regularize',
                lambda: prog.regularize(prog.slim(prog.eliminate_cuts(
                    prog.seq_to_inf(prog.wf_from_cyclic(given))))))
    dumped = stage('dump output', prog.dump_proof, out)
    loaded = stage('load output (%d bytes)' % len(dumped), prog.load_proof,
                   dumped)
    report = stage('check_cyclic', prog.check_cyclic, loaded)
    finitary = stage('unravel, inf_to_seq',
                     lambda: prog.inf_to_seq(prog.unravel(loaded)))
    wf_report = stage('check_wf', prog.check_wf, finitary)
    print('  nodes: %d in, %d out, %d back-links, %d finitary'
          % (len(given.nodes), len(out.nodes), len(out.backlinks),
             workloads.tree_size(finitary)))
    result = workloads.CutfreeResult(dumped, loaded, report, finitary,
                                     wf_report)
    root_key = C.sequent_key([C.conj(workloads.grz(P), workloads.grz(Q))],
                             [C.box(C.conj(P, Q))])
    return C.cutfree_errors(prog, result, root_key)


def boxes(prog):
    goal = ' => ' + ', '.join('[]q%d' % i for i in range(1, 10))
    print('boxes  %s' % goal)
    verdict = stage('decide', prog.decide, prog.parse_sequent(goal))
    suc = [C.box(C.atom('q%d' % i)) for i in range(1, 10)]
    errors = workloads.verdict_errors(prog, verdict, [], suc)
    if verdict.proof is not None:
        errors.append('=> []q1, ..., []q9 was proved')
    return errors


def oracle(prog):
    goals = workloads.Sweep().setup(prog, 0, spans.NullTracer())
    print('oracle  the %d sweep goals' % len(goals))
    formulas = [prog.parse_formula(text) for text, _ in goals]
    verdicts = stage('decide on every goal',
                     lambda: [prog.decide(f) for f in formulas])
    theorems = [f for f, v in zip(formulas, verdicts) if v.proof is not None]
    found = stage('find_countermodel on the %d theorems' % len(theorems),
                  lambda: [prog.find_countermodel(f, 4) for f in theorems])
    return ['oracle refutes theorem %s' % f
            for f, cm in zip(theorems, found) if cm is not None]


def main():
    prog = load_program()
    errors = chain(prog) + boxes(prog) + oracle(prog)
    for e in errors:
        print('check failed: %s' % e)
    return 1 if errors else 0


if __name__ == '__main__':
    sys.exit(main())
