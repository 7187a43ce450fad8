"""The four workloads.  Each is closed loop with one client: an operation
starts when the previous one has returned.

* ``sweep``    -- an op is one goal: every formula of AST size <= 9 over
                  p, q, as text, parsed and decided; a provable
                  implication A -> B then goes through ``lyndon(A, B)``.
* ``search``   -- an op is one hard goal with an answer known by
                  construction, parsed and decided.
* ``cutchain`` -- an op is one cut composition A => B, B => C, taken from
                  its JSON through the cut-free pipeline and both checkers.
* ``corpus``   -- an op is one seeded random finitary proof with cut,
                  taken through the same pipeline.

A workload provides ``setup(prog, seed, tr, tiny)`` returning its inputs,
``check_inputs(prog, inputs)`` returning a list of error strings, and
``run(inputs, tr)`` returning a ``Round``, whose times ``Round.close``
scales once the run has measured.  ``run`` imports the program
afresh (``fresh_program``) for each round of ``sweep`` and ``corpus`` and
for each op of ``search`` and ``cutchain``, whose ops are few and long: an
op there sees the program state of one command-line call, whatever ran
before it.  ``run`` checks each op's outputs as soon as the op's timer
stops, outside any span, and then drops them before the next op starts:
holding an output would grow the heap, and with it the interpreter's
garbage-collection pauses inside later ops.  (Kept until the next op
replaced it, the first chain's output made the next two chains of
``cutchain`` take 1.7 and 1.8 times as long.)
"""

import gc
import math
import random
from array import array

import checks as C
import speed
from program import load_program
from speed import clock
from checks import atom, box, conj, diamond, imp, neg

P, Q = atom('p'), atom('q')


class SetupError(Exception):
    pass


class Round:
    """Results of one pass over a workload's inputs.  Ops are timed with
    ``speed.clock`` and scaled by ``close``.  A failed op is also a check
    error unless its input is marked as failing on every run.  Times are
    kept in arrays of doubles: as lists of floats, the times of one
    ``sweep`` round took 4 MB, so the peak memory grew with the number
    of rounds that fit in a run."""

    def __init__(self):
        self.op_time = array('d')   # scaled seconds, per attempted op
        self.latency = array('d')   # scaled seconds from input to
                                    # verdict, per completed op
        self.failures = []   # (input label, error) per failed op
        self.errors = []     # failed output checks
        self.output_nodes = 0
        self.scale = 1.0     # scaled over raw op time, for span times
        self._clock = array('d')    # start, end, verdict (NaN for a
                                    # failed op), per op

    @property
    def attempted(self):
        return len(self._clock) // 3

    @property
    def failed(self):
        return len(self.failures)

    def record(self, start, end, verdict=math.nan):
        """Record one op's clock readings; no ``verdict`` for a failed
        op."""
        self._clock.extend((start, end, verdict))

    def close(self):
        """Scale every op by the probe ticks around it (``speed.scale``).
        Called once the run has stopped measuring, so that the ticks
        after the last op are in."""
        raw = 0.0
        c = self._clock
        for i in range(0, len(c), 3):
            start, end, verdict = c[i], c[i + 1], c[i + 2]
            factor = speed.scale(start, end)
            raw += end - start
            self.op_time.append((end - start) * factor)
            if not math.isnan(verdict):
                self.latency.append((verdict - start) * factor)
        if raw > 0:
            self.scale = sum(self.op_time) / raw

    def fail(self, t0, label, err, expected=False):
        self.record(t0, clock())
        what = '%s: %s' % (type(err).__name__, str(err)[:120])
        self.failures.append((label, what))
        if not expected:
            self.errors.append('%s: unexpected failure %s' % (label, what))


def fresh_program():
    """The program freshly imported, with the garbage of earlier ops
    collected and the countermodel oracle's frame tables built (a lazy
    cost paid once per process, which ``setup_s`` shows through the
    warm-up)."""
    prog = load_program()
    gc.collect()
    prog.decide(prog.parse_sequent(ALT3[0]))
    return prog


def parse_traced(parse, tr, text, op=None):
    with tr.span('syntax.parse', op):
        return parse(text)


def decide_traced(prog, tr, goal, op=None):
    with tr.span('prover.decide_refuted', op) as sp:
        verdict = prog.decide(goal)
    if verdict.proof is not None:
        sp[0] = 'prover.decide_proved'
    if tr.enabled:
        if verdict.proof is not None:
            tr.add('prover.proof_nodes', len(verdict.proof.nodes))
            tr.add('prover.backlinks', len(verdict.proof.backlinks))
        else:
            tr.add('prover.countermodel_worlds', verdict.countermodel[0].size)
    return verdict


def lyndon_traced(prog, tr, a, b, op=None):
    with tr.span('interpolation.lyndon', op):
        result = prog.lyndon(a, b)
    if tr.enabled:
        tr.add('interpolation.lyndon_calls', 1)
        tr.add('interpolation.interpolant_size',
               C.size(C.from_program(result.interpolant)))
    return result


def verdict_errors(prog, verdict, ant, suc):
    if verdict.proof is not None:
        return C.cyclic_proof_errors(prog, verdict.proof, ant, suc)
    model, world = verdict.countermodel
    return C.countermodel_errors(model, world, ant, suc)


def tree_size(wf):
    n, stack = 0, [wf]
    while stack:
        p = stack.pop()
        n += 1
        stack.extend(p.children)
    return n


# ---------------------------------------------------------------------------
# The cut-free pipeline shared by cutchain, corpus and the warm-up


class CutfreeResult:
    __slots__ = ('json', 'proof', 'cyclic_report', 'finitary', 'wf_report')

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)


def cutfree_op(prog, text, tr, op=None):
    """What ``grzproofs cutfree`` followed by ``grzproofs check`` does,
    then the translation back to the finitary calculus and its check."""
    with tr.span('proofs.load', op):
        given = prog.load_proof(text)
    with tr.span('transforms.cutfree', op):
        out = prog.regularize(prog.slim(prog.eliminate_cuts(
            prog.seq_to_inf(prog.wf_from_cyclic(given)))))
    with tr.span('proofs.dump', op):
        dumped = prog.dump_proof(out)
    with tr.span('proofs.load', op):
        loaded = prog.load_proof(dumped)
    with tr.span('proofs.check_cyclic', op):
        cyclic_report = prog.check_cyclic(loaded)
    with tr.span('transforms.inf_to_seq', op):
        finitary = prog.inf_to_seq(prog.unravel(loaded))
    with tr.span('proofs.check_wf', op):
        wf_report = prog.check_wf(finitary)
    if tr.enabled:
        wf_nodes = tree_size(finitary)
        tr.add('proofs.load_bytes', len(text) + len(dumped))
        tr.add('proofs.checked_nodes', len(loaded.nodes) + wf_nodes)
        tr.add('transforms.cutfree_in_nodes', len(given.nodes))
        tr.add('transforms.cutfree_out_nodes', len(out.nodes))
        tr.add('transforms.cutfree_backlinks', len(out.backlinks))
        tr.add('transforms.inf_to_seq_nodes', wf_nodes)
    return CutfreeResult(dumped, loaded, cyclic_report, finitary, wf_report)


def input_proof_errors(prog, text, root_key):
    """An input of the cut-free pipeline: a valid finitary proof with cut
    of the recorded root sequent."""
    proof = prog.load_proof(text)
    report = prog.check_wf(prog.wf_from_cyclic(proof),
                           prog.System.GRZ_SEQ_CUT)
    errors = [] if report.ok else ['input proof invalid: %s'
                                   % report.violations[:2]]
    if C.program_sequent_key(proof.nodes[proof.root].sequent) != root_key:
        errors.append('input proof has another root sequent')
    return errors


def run_cutfree(inputs, tr, fresh_per_op):
    r = Round()
    prog = fresh_program()
    for op, (text, root_key, label) in enumerate(inputs):
        if fresh_per_op and op:
            prog = fresh_program()
        t0 = clock()
        try:
            with tr.span('op', op):
                out = cutfree_op(prog, text, tr, op)
        except (ValueError, prog.ProverError, RecursionError) as e:
            r.fail(t0, label, e)
            continue
        t1 = clock()
        r.record(t0, t1, t1)
        r.output_nodes += len(out.proof.nodes)
        r.errors.extend('%s: %s' % (label, e)
                        for e in C.cutfree_errors(prog, out, root_key))
        del out
    return r


def check_cutfree_inputs(prog, inputs):
    errors = []
    for text, root_key, label in inputs:
        errors.extend('%s: %s' % (label, e)
                      for e in input_proof_errors(prog, text, root_key))
    return errors


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    name = 'sweep'

    def setup(self, prog, seed, tr, tiny=False):
        goals = [(C.to_text(f), f) for f in C.formulas_up_to(4 if tiny else 9)]
        random.Random(seed).shuffle(goals)
        return goals

    def check_inputs(self, prog, goals):
        return []

    def run(self, goals, tr):
        r = Round()
        prog = fresh_program()
        parse = prog.parse_formula
        failures = (prog.ProverError, prog.InterpolationError, RecursionError)
        for op, (text, ast) in enumerate(goals):
            t0 = clock()
            interp = None
            try:
                with tr.span('op', op):
                    f = parse_traced(parse, tr, text, op)
                    verdict = decide_traced(prog, tr, f, op)
                    t1 = clock()
                    if verdict.proof is not None and ast[0] == 'imp':
                        interp = lyndon_traced(prog, tr, f.left, f.right, op)
            except failures as e:
                r.fail(t0, text, e)
                continue
            t2 = clock()
            r.record(t0, t2, t1)
            errs = verdict_errors(prog, verdict, [], [ast])
            if verdict.proof is not None:
                r.output_nodes += len(verdict.proof.nodes)
                if ast[0] == 'imp':
                    errs += C.interpolant_errors(prog, interp, ast[1], ast[2])
            if tr.enabled and interp is not None:
                extracted = self._extract(prog, tr, op, f, verdict)
                if (C.from_program(extracted.interpolant)
                        != C.from_program(interp.interpolant)):
                    errs.append('interpolate and lyndon disagree')
            r.errors.extend('%s: %s' % (text, e) for e in errs)
            del verdict
        return r

    @staticmethod
    def _extract(prog, tr, op, f, verdict):
        """Interpolant extraction alone, on the proof ``decide`` returned.
        Runs in traced rounds only, outside the op's timer."""
        # The root of a proof of  => A -> B  is an ImpR step whose one
        # premise is  A => B, and no back-link can target the root.
        proof = verdict.proof
        premise = proof.nodes[proof.root].children[0]
        sub = prog.CyclicProof(
            {i: n for i, n in proof.nodes.items() if i != proof.root},
            premise, proof.backlinks, proof.system)
        split = prog.SplitSequent(prog.mset(f.left), prog.EMPTY, prog.EMPTY,
                                  prog.mset(f.right))
        with tr.span('interpolation.interpolate', op):
            return prog.interpolate(sub, split)



# ---------------------------------------------------------------------------
# search


def grz(x):
    """[]([](x -> []x) -> x), the formula under the Grzegorczyk box."""
    return box(imp(box(imp(x, box(x))), x))


def grz_text(x):
    return '[]([](%s -> []%s) -> %s)' % (x, x, x)


def search_goals(tiny=False):
    """(text, antecedent, succedent, is_theorem, fails) per goal, where
    ``fails`` marks the goal on which ``decide`` raises ``ProverError`` on
    every run today."""
    goals = []
    for n in range(3, 5 if tiny else 9):
        goals.append((' => ' + ', '.join('[]q%d' % i for i in range(1, n + 1)),
                      [], [box(atom('q%d' % i)) for i in range(1, n + 1)],
                      False, False))
    for n in range(2, 4) if tiny else range(6, 13):
        deep = P
        for _ in range(n):
            deep = box(deep)
        goals.append(('[]p => %sp' % ('[]' * n), [box(P)], [deep], True,
                      False))
    names = 'pqrs'
    for k in range(1, 3 if tiny else 5):
        a = atom(names[0])
        for name in names[1:k]:
            a = conj(a, atom(name))
        text = ' & '.join(names[:k])
        text = '(%s)' % text if k > 1 else text
        goals.append(('%s => []%s' % (grz_text(text), text), [grz(a)],
                      [box(a)], True, False))
    if not tiny:
        goals.append(('%s & %s => []p & []q' % (grz_text('p'), grz_text('q')),
                      [conj(grz(P), grz(Q))], [conj(box(P), box(Q))], True,
                      False))
    # p, <>(~p & <>(p & ...)) => false: the countermodel needs n + 1
    # worlds.  At n = 4 that exceeds the 4-world oracle, the only source
    # of countermodels, so decide raises ProverError on it.
    for n in range(1, 5):
        lits = [(neg(P), '~p') if i % 2 == 0 else (P, 'p') for i in range(n)]
        f, text = diamond(lits[-1][0]), '<>' + lits[-1][1]
        for lit, lit_text in reversed(lits[:-1]):
            f, text = diamond(conj(lit, f)), '<>(%s & %s)' % (lit_text, text)
        goals.append(('p, %s => false' % text, [P, f], [C.BOT], False,
                      n == 4))
    return goals


class Search:
    name = 'search'

    def setup(self, prog, seed, tr, tiny=False):
        """The goals are fixed by construction, in a fixed order, whatever
        the seed: with a few large ops the order moves the peak memory."""
        return search_goals(tiny)

    def check_inputs(self, prog, goals):
        return []

    def run(self, goals, tr):
        r = Round()
        for op, (text, ant, suc, theorem, fails) in enumerate(goals):
            prog = fresh_program()
            t0 = clock()
            try:
                with tr.span('op', op):
                    s = parse_traced(prog.parse_sequent, tr, text, op)
                    verdict = decide_traced(prog, tr, s, op)
            except (prog.ProverError, RecursionError) as e:
                r.fail(t0, text, e,
                       expected=fails and type(e) is prog.ProverError)
                continue
            t1 = clock()
            r.record(t0, t1, t1)
            if verdict.proof is not None:
                r.output_nodes += len(verdict.proof.nodes)
            errs = verdict_errors(prog, verdict, ant, suc)
            if fails:
                errs.append('the expected ProverError did not happen; if '
                            'the fault is mended, unmark this goal')
            if (verdict.proof is not None) != theorem:
                errs.append('verdict %s, known answer %s'
                            % (verdict.proof is not None, theorem))
            r.errors.extend('%s: %s' % (text, e) for e in errs)
            del verdict
        return r


# ---------------------------------------------------------------------------
# cutchain


def _chains():
    gp, gq = grz_text('p'), grz_text('q')
    bp, bq = box(P), box(Q)
    bpbq = (conj(bp, bq), '[]p & []q')
    gpgq = (conj(grz(P), grz(Q)), '%s & %s' % (gp, gq))
    gpbq = (conj(grz(P), bq), '%s & []q' % gp)
    b_pq = (box(conj(P, Q)), '[](p & q)')
    b1, b2, b3 = (bp, '[]p'), (box(bp), '[][]p'), (box(box(bp)), '[][][]p')
    return [(gpgq, bpbq, b1), (gpgq, b1, b2), ((grz(P), gp), b1, b3),
            ((grz(P), gp), b2, b1), (gpbq, bpbq, b_pq), (gpbq, b_pq, bpbq)]


CHAINS = _chains()


def compose(prog, tr, chain):
    """(JSON, root sequent, label) of the cut composition of a chain."""
    (a, at), (b, bt), (c, ct) = chain
    fa, fb, fc = (parse_traced(prog.parse_formula, tr, t)
                  for t in (at, bt, ct))
    halves = []
    for lhs, rhs in ((fa, fb), (fb, fc)):
        verdict = decide_traced(
            prog, tr, prog.Sequent(prog.mset(lhs), prog.mset(rhs)))
        if verdict.proof is None:
            raise SetupError('%s => %s is not provable' % (lhs, rhs))
        with tr.span('transforms.inf_to_seq'):
            halves.append(prog.inf_to_seq(prog.unravel(verdict.proof)))
    joined = prog.build_cut(halves[0], halves[1], fb)
    with tr.span('proofs.dump'):
        text = prog.dump_proof(prog.cyclic_from_wf(
            joined, prog.System.GRZ_SEQ_CUT))
    return text, C.sequent_key([a], [c]), '%s | %s | %s' % (at, bt, ct)


class Cutchain:
    name = 'cutchain'

    def setup(self, prog, seed, tr, tiny=False):
        """Prove A => B and B => C, translate both halves to the finitary
        calculus and join them by a cut on B; the input is its JSON.  The
        chains are fixed, in a fixed order, whatever the seed: with a few
        large ops the order moves the peak memory."""
        return [compose(prog, tr, chain)
                for chain in (CHAINS[2:4] if tiny else CHAINS)]

    check_inputs = staticmethod(check_cutfree_inputs)

    def run(self, inputs, tr):
        return run_cutfree(inputs, tr, fresh_per_op=True)


# ---------------------------------------------------------------------------
# corpus

CORPUS_SIZE = 1600


class Corpus:
    name = 'corpus'

    def setup(self, prog, seed, tr, tiny=False):
        """Seeded random finitary proofs with cut, as the ``corpus`` verb
        makes them, each serialized to JSON."""
        rng = random.Random(seed)
        inputs = []
        for i in range(8 if tiny else CORPUS_SIZE):
            with tr.span('cli.corpus_gen'):
                wf = prog.random_wf_proof(rng)
            with tr.span('proofs.dump'):
                text = prog.dump_proof(prog.cyclic_from_wf(
                    wf, prog.System.GRZ_SEQ_CUT))
            inputs.append((text, C.program_sequent_key(wf.root),
                           'corpus proof %d' % i))
        return inputs

    check_inputs = staticmethod(check_cutfree_inputs)

    def run(self, inputs, tr):
        return run_cutfree(inputs, tr, fresh_per_op=False)


WORKLOADS = {w.name: w for w in (Sweep(), Search(), Cutchain(), Corpus())}


# ---------------------------------------------------------------------------
# Warm-up


ALT3 = search_goals()[-2]
WARM_LYNDON = ('[]p & [](p -> q)', '[]q')
# A chain whose cut-free proof has back-links: 37 -> 32 nodes, 4 back-links.
WARM_CHAIN = ((grz(P), grz_text('p')), (box(P), '[]p'), (P, 'p'))


def warm_up(prog, tr):
    """Run every pipeline once on a fixed tiny input: a proved and a
    refuted goal (the refutation fills the 4-world oracle's frame tables),
    an interpolant, one corpus proof, and one small cut composition
    through the cut-free pipeline.  It shows the imported program works
    end to end before anything is timed, and gives every layer a span in
    every workload's set-up."""
    theorem = parse_traced(prog.parse_formula, tr, '[]p -> p')
    refutable = parse_traced(prog.parse_sequent, tr, ALT3[0])
    a, b = (parse_traced(prog.parse_formula, tr, t) for t in WARM_LYNDON)
    proved = decide_traced(prog, tr, theorem)
    refuted = decide_traced(prog, tr, refutable)
    interp = lyndon_traced(prog, tr, a, b)
    split_goal = decide_traced(prog, tr,
                               prog.Sequent(prog.mset(a), prog.mset(b)))
    with tr.span('interpolation.interpolate'):
        extracted = prog.interpolate(split_goal.proof, prog.SplitSequent(
            prog.mset(a), prog.EMPTY, prog.EMPTY, prog.mset(b)))
    with tr.span('cli.corpus_gen'):
        wf = prog.random_wf_proof(random.Random(0))
    with tr.span('proofs.dump'):
        corpus_text = prog.dump_proof(prog.cyclic_from_wf(
            wf, prog.System.GRZ_SEQ_CUT))
    text, root_key, _ = compose(prog, tr, WARM_CHAIN)
    out = cutfree_op(prog, text, tr)
    return (proved, refuted, interp, extracted,
            (corpus_text, C.program_sequent_key(wf.root)),
            (text, root_key, out))


def check_warm_up(prog, warm):
    proved, refuted, interp, extracted, corpus, (text, root_key, out) = warm
    a = conj(box(P), box(imp(P, Q)))
    errors = verdict_errors(prog, proved, [], [imp(box(P), P)])
    if proved.proof is None:
        errors.append('[]p -> p was refuted')
    errors += verdict_errors(prog, refuted, ALT3[1], ALT3[2])
    if refuted.proof is not None:
        errors.append('%s was proved' % ALT3[0])
    errors += C.interpolant_errors(prog, interp, a, box(Q))
    if C.from_program(extracted.interpolant) != C.from_program(
            interp.interpolant):
        errors.append('interpolate and lyndon disagree')
    errors += input_proof_errors(prog, *corpus)
    errors += input_proof_errors(prog, text, root_key)
    errors += C.cutfree_errors(prog, out, root_key)
    if not out.proof.backlinks:
        errors.append('the cut-free proof of %s has no back-links'
                      % ' | '.join(t for _, t in WARM_CHAIN))
    return ['warm-up: %s' % e for e in errors]
