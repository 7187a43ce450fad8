"""Command-line interface: proving, checking, transforming, translating,
interpolating, countermodel search, corpus generation, and DOT export.

``cutfree``, ``slim`` and ``regularize`` take a proof of either calculus;
``translate`` only one of the calculus that ``--to`` does not name.

Each verb takes only the options it reads.  Exit codes: 0 success /
valid / proved; 1 checked-and-negative (invalid proof, countermodel
verdict, no countermodel found); 2 usage or input errors; 3 a resource
limit was hit (the search passed ``--max-crossings``, the oracle passed
``--max-model-size`` after search failed, ``regularize`` passed its crossing
or node cap), the input is nested too deeply, or the program ran out of
memory; 4 a proof to write (proved, folded or translated) failed
``check_cyclic`` and was not written, which is a fault of the program.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from operator import itemgetter

from .syntax import (
    Atom, Box, Implies, BOT, Multiset, Sequent, EMPTY, mset,
    parse_formula, parse_sequent,
)
from .calculus import System, ax_general, ax_bottom, imp_r, imp_l, refl, \
    box_grz, unfolding
from .proofs import (
    ResourceLimitError, leaf, eager, check_cyclic, unravel, cyclic_from_wf,
    wf_from_cyclic, dump_proof, load_proof, proof_to_dot, cutfree_to_depth,
)
from .transforms import (
    wk, build_cut, seq_to_inf, inf_to_seq, eliminate_cuts, slim, regularize,
)
from .prover import decide, find_countermodel, ProverError
from .interpolation import lyndon, NotATheoremError


# ---------------------------------------------------------------------------
# Random proof corpus (finitary calculus with cut)


def _random_formula(rng, size):
    if size <= 1:
        return rng.choice([Atom('p'), Atom('q'), BOT])
    if rng.random() < 0.4:
        return Box(_random_formula(rng, size - 1))
    k = rng.randint(1, size - 1)
    return Implies(_random_formula(rng, k),
                   _random_formula(rng, size - k))


_THEOREM_POOL = ['p -> p', '[]p -> p', 'false -> q', 'q -> (p -> q)',
                 'p -> (q -> p)', '[]q -> q']


@functools.cache
def _theorem_proofs():
    out = []
    for text in _THEOREM_POOL:
        f = parse_formula(text)
        v = decide(f)
        proof = inf_to_seq(unravel(v.proof))
        out.append((f, proof, proof.size()))
    return tuple(out)


def random_wf_proof(rng, steps=6):
    """Generate a random finite proof in the finitary calculus with cut,
    by forward construction from axioms.  The largest proof built wins;
    each carries its size, since weakening keeps the size and forcing a
    weakened proof to count it would build it."""
    def rand_ms():
        return Multiset(_random_formula(rng, rng.randint(1, 2))
                        for _ in range(rng.randint(0, 2)))

    def rand_axiom():
        if rng.random() < 0.25:
            concl = Sequent(rand_ms().add(BOT), rand_ms())
            return leaf(ax_bottom(concl))
        a = _random_formula(rng, rng.randint(1, 3))
        concl = Sequent(rand_ms().add(a), rand_ms().add(a))
        return leaf(ax_general(concl, a))

    pool = [(rand_axiom(), 1), (rand_axiom(), 1)]
    ops = ['imp_r', 'refl', 'imp_l', 'cut', 'box', 'axiom']
    weights = [2, 2, 2, 3, 3, 1]
    for _ in range(steps):
        op = rng.choices(ops, weights)[0]
        if op == 'axiom':
            pool.append((rand_axiom(), 1))
        elif op == 'imp_r':
            p, n = rng.choice(pool)
            a = _random_formula(rng, rng.randint(1, 2))
            p = wk(p, mset(a), EMPTY)
            suc = p.root.suc
            if not suc:
                continue
            b = rng.choice(list(suc))
            concl = Sequent(p.root.ant.remove(a),
                            suc.remove(b).add(Implies(a, b)))
            pool.append((eager(imp_r(concl, Implies(a, b)), p), 1 + n))
        elif op == 'refl':
            p, n = rng.choice(pool)
            b = _random_formula(rng, rng.randint(1, 2))
            p = wk(p, mset(b, Box(b)), EMPTY)
            concl = Sequent(p.root.ant.remove(b), p.root.suc)
            pool.append((eager(refl(concl, Box(b)), p), 1 + n))
        elif op == 'imp_l':
            (p1, n1), (p2, n2) = rng.choice(pool), rng.choice(pool)
            a = _random_formula(rng, rng.randint(1, 2))
            b = _random_formula(rng, rng.randint(1, 2))
            g = p1.root.ant.union(p2.root.ant)
            d = p1.root.suc.union(p2.root.suc)
            left = wk(p1, g.difference(p1.root.ant).add(b),
                      d.difference(p1.root.suc))
            right = wk(p2, g.difference(p2.root.ant),
                       d.difference(p2.root.suc).add(a))
            concl = Sequent(g.add(Implies(a, b)), d)
            pool.append((eager(imp_l(concl, Implies(a, b)), left, right),
                         1 + n1 + n2))
        elif op == 'cut':
            (p1, n1), (p2, n2) = rng.choice(pool), rng.choice(pool)
            a = _random_formula(rng, rng.randint(1, 2))
            pool.append((build_cut(wk(p1, EMPTY, mset(a)),
                                   wk(p2, mset(a), EMPTY), a),
                         1 + n1 + n2))
        elif op == 'box':
            a, proof, n = rng.choice(_theorem_proofs())
            pi = Multiset(Box(_random_formula(rng, rng.randint(1, 2)))
                          for _ in range(rng.randint(0, 2)))
            prem = wk(proof, pi.add(unfolding(a)), EMPTY)
            concl = Sequent(pi.union(rand_ms()), rand_ms().add(Box(a)))
            inst = box_grz(concl, Box(a), pi)
            pool.append((eager(inst, prem), 1 + n))
    return max(pool, key=itemgetter(1))[0]


# ---------------------------------------------------------------------------
# Verbs


def _read_proof(path):
    with open(path) as fp:
        return load_proof(fp)


def _write(text, output):
    if output:
        with open(output, 'w') as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _write_checked(proof, args):
    """Write ``proof`` once ``check_cyclic`` accepts it; else write
    nothing, print the first violation and return 4."""
    report = check_cyclic(proof)
    if not report.ok:
        print('error: the proof to write fails its check: %s'
              % report.violations[0], file=sys.stderr)
        return 4
    _write(dump_proof(proof) + '\n', args.output)
    return 0


def _countermodel_text(found):
    """The JSON text of a countermodel and the world that refutes the
    goal in it."""
    model, world = found
    return json.dumps({'countermodel': model.describe(), 'world': world},
                      indent=2)


def _parse_goal(text):
    if '=>' in text:
        return parse_sequent(text)
    return parse_formula(text)


def _cmd_prove(args):
    verdict = decide(_parse_goal(args.goal), max_crossings=args.max_crossings,
                     max_model_size=args.max_model_size)
    if verdict.is_proof:
        return _write_checked(verdict.proof, args)
    _write(_countermodel_text(verdict.countermodel) + '\n', args.output)
    return 1


def _cmd_check(args):
    proof = _read_proof(args.proof)
    report = check_cyclic(proof)
    if report.ok:
        print('valid (%d nodes, system %s)'
              % (len(proof.nodes), proof.system.value))
        return 0
    print('invalid:')
    for v in report.violations:
        print('  - %s' % v)
    return 1


def _checked(proof, unraveled):
    """``unraveled``, the lazy proof of ``proof``, once ``check_cyclic``
    accepts ``proof``: a transformer need not end on an invalid proof.
    Called after ``unravel`` or ``wf_from_cyclic``, so the faults that
    they stop on keep their messages."""
    report = check_cyclic(proof)
    if not report.ok:
        raise ValueError(report.violations[0])
    return unraveled


# The lazy stages each folding verb applies before ``regularize``.
_STAGES = {'cutfree': (eliminate_cuts, slim),
           'translate': (eliminate_cuts, slim),
           'slim': (slim,),
           'regularize': ()}


def _cmd_fold(args):
    return _fold(_read_proof(args.proof), args)


def _fold(proof, args):
    """``proof`` in the non-well-founded calculus, through the stages of
    ``args.verb``, folded, checked and written."""
    if proof.system.is_finitary:
        lazy = seq_to_inf(_checked(proof, wf_from_cyclic(proof)))
    else:
        lazy = _checked(proof, unravel(proof))
    for stage in _STAGES[args.verb]:
        lazy = stage(lazy)
    return _write_checked(regularize(lazy, max_crossings=args.max_crossings),
                          args)


def _cmd_translate(args):
    """A proof of one calculus into the other, and not into its own."""
    proof = _read_proof(args.proof)
    to_inf = args.to == 'inf'
    if proof.system.is_finitary != to_inf:
        raise ValueError('translate --to %s takes a proof in %s, not %s' % (
            args.to, ' or '.join(s.value for s in System
                                 if s.is_finitary == to_inf),
            proof.system.value))
    if to_inf:
        return _fold(proof, args)
    wf = inf_to_seq(_checked(proof, unravel(proof)))
    return _write_checked(cyclic_from_wf(
        wf, System.GRZ_SEQ if cutfree_to_depth(wf, 1)
        else System.GRZ_SEQ_CUT), args)


def _cmd_interpolate(args):
    try:
        result = lyndon(parse_formula(args.a), parse_formula(args.b),
                        max_crossings=args.max_crossings,
                        max_model_size=args.max_model_size)
    except NotATheoremError as e:
        print('not a theorem; countermodel:')
        print(_countermodel_text(e.countermodel))
        return 1
    print('interpolant: %s' % result.interpolant)
    print('left obligation:  %s   (proved)' % result.left_obligation)
    print('right obligation: %s   (proved)' % result.right_obligation)
    print('polarity inclusions: verified')
    return 0


def _cmd_countermodel(args):
    found = find_countermodel(_parse_goal(args.goal), args.max_model_size)
    if found is None:
        print('no countermodel up to %d worlds' % args.max_model_size)
        return 1
    print(_countermodel_text(found))
    return 0


def _cmd_corpus(args):
    rng = random.Random(args.seed)
    texts = [dump_proof(cyclic_from_wf(random_wf_proof(rng, steps=args.steps),
                                      System.GRZ_SEQ_CUT))
             for _ in range(args.count)]
    # The layout of json.dumps(..., indent=2) on the list of proofs.
    body = ',\n'.join('  ' + t.replace('\n', '\n  ') for t in texts)
    _write('[\n%s\n]\n' % body if texts else '[]\n', args.output)
    return 0


def _cmd_export_dot(args):
    proof = _read_proof(args.proof)
    _write(proof_to_dot(proof), args.output)
    return 0


def _at_least(least, most=None):
    """An argparse type: an integer no less than ``least`` and, if
    ``most`` is given, no more than it."""
    def parse(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError('%d is less than %d' % (n, least))
        if most is not None and n > most:
            raise argparse.ArgumentTypeError('%d is more than %d' % (n, most))
        return n
    parse.__name__ = 'int'    # argparse names it in 'invalid int value'
    return parse


def build_parser():
    ap = argparse.ArgumentParser(
        prog='grzproofs',
        description='Cyclic proofs, cut elimination and interpolation '
                    'for the modal logic Grz.')
    sub = ap.add_subparsers(dest='verb', required=True)

    def verb(name, fn, help, *operands, crossings=False, models=False,
             output=True):
        """A verb with its operands and the options that ``fn`` reads."""
        p = sub.add_parser(name, help=help)
        for operand in operands:
            p.add_argument(operand)
        if crossings:
            p.add_argument('--max-crossings', type=_at_least(0), default=64)
        if models:
            # The oracle enumerates every labelled order of each size up
            # to the bound: 130,023 at 6 worlds, 6,129,859 at 7.
            p.add_argument('--max-model-size', type=_at_least(1, 6),
                           default=4)
        if output:
            p.add_argument('-o', '--output')
        p.set_defaults(fn=fn)
        return p

    verb('prove', _cmd_prove, 'decide a formula or sequent', 'goal',
         crossings=True, models=True)
    verb('check', _cmd_check, 'validate a proof JSON file', 'proof',
         output=False)
    verb('cutfree', _cmd_fold, 'eliminate cuts from a proof', 'proof',
         crossings=True)
    verb('slim', _cmd_fold, 'slim and regularize a cyclic proof', 'proof',
         crossings=True)
    verb('regularize', _cmd_fold, 'fold a cyclic proof minimally',
         'proof', crossings=True)
    verb('translate', _cmd_translate, 'translate between the finitary and '
         'non-well-founded calculi', 'proof', crossings=True).add_argument(
        '--to', choices=['seq', 'inf'], required=True)
    verb('interpolate', _cmd_interpolate, 'Lyndon interpolant of A -> B',
         'a', 'b', crossings=True, models=True, output=False)
    verb('countermodel', _cmd_countermodel,
         'search for a finite countermodel', 'goal', models=True,
         output=False)
    p = verb('corpus', _cmd_corpus, 'generate random proofs with cut')
    p.add_argument('--count', type=_at_least(0), default=10)
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--steps', type=_at_least(0), default=6)
    verb('export-dot', _cmd_export_dot, 'render a proof as Graphviz DOT',
         'proof')
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ResourceLimitError, ProverError) as e:
        # An exhausted search or fold, or the oracle's model-size bound (a
        # plain ``ProverError``), is not an input error: the input may be fine.
        print('error: %s' % e, file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print('error: %s' % e, file=sys.stderr)
        return 2
    except RecursionError as e:
        # Neither is a formula too deep for a recursive step of the program.
        print('error: %s (input nested too deeply)' % e, file=sys.stderr)
        return 3
    except MemoryError:
        # Nor a proof too large to build in the memory at hand.
        print('error: out of memory', file=sys.stderr)
        return 3
    except SystemError as e:
        # Nor the interpreter failing inside a deep recursion that ran out
        # of memory, which it reports as an error of its own.
        print('error: %s (interpreter failure, most likely out of memory)'
              % e, file=sys.stderr)
        return 3


if __name__ == '__main__':
    sys.exit(main())
