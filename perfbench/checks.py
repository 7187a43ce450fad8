"""Output checks made apart from the code under test.

Formulas are modelled here as tuples: ``('false',)``, ``('atom', name)``,
``('imp', a, b)`` and ``('box', a)``.  The benchmark builds its goals in
this form, prints them as text for the program, and converts the
program's results back to tuples to compare them.  Countermodels are
evaluated by the Kripke semantics below, not by the program's
``truth_mask``.  Each check returns a list of error strings; an empty
list means the output passed.
"""

BOT = ('false',)


def atom(name):
    return ('atom', name)


def imp(a, b):
    return ('imp', a, b)


def box(a):
    return ('box', a)


# The sugar of the program's documented syntax, over the same core.

def neg(a):
    return imp(a, BOT)


def conj(a, b):
    return neg(imp(a, neg(b)))


def diamond(a):
    return neg(box(neg(a)))


def size(f):
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        n += 1
        stack.extend(g[1:] if g[0] in ('imp', 'box') else ())
    return n


def formulas_up_to(n, atoms=(atom('p'), atom('q'))):
    """Every formula of at most ``n`` AST nodes over ``atoms``."""
    by_size = {1: [BOT] + list(atoms)}
    for k in range(2, n + 1):
        out = [box(f) for f in by_size[k - 1]]
        for i in range(1, k - 1):
            for a in by_size[i]:
                for b in by_size[k - 1 - i]:
                    out.append(imp(a, b))
        by_size[k] = out
    return [f for k in range(1, n + 1) for f in by_size[k]]


def to_text(f):
    """Core-syntax text: ``->`` is right associative and binds loosest."""
    tag = f[0]
    if tag == 'false':
        return 'false'
    if tag == 'atom':
        return f[1]
    if tag == 'box':
        inner = to_text(f[1])
        return '[]' + ('(%s)' % inner if f[1][0] == 'imp' else inner)
    left = to_text(f[1])
    if f[1][0] == 'imp':
        left = '(%s)' % left
    return '%s -> %s' % (left, to_text(f[2]))


def sequent_key(ant, suc):
    """Order-free form of a sequent given as two lists of tuples."""
    return tuple(sorted(ant)), tuple(sorted(suc))


# ---------------------------------------------------------------------------
# Reading the program's objects


def from_program(f):
    kind = type(f).__name__
    if kind == 'Bottom':
        return BOT
    if kind == 'Atom':
        return atom(f.name)
    if kind == 'Implies':
        return imp(from_program(f.left), from_program(f.right))
    if kind == 'Box':
        return box(from_program(f.inner))
    raise TypeError('not a formula: %r' % (f,))


def program_sequent_key(s):
    return sequent_key([from_program(f) for f in s.ant],
                       [from_program(f) for f in s.suc])


# ---------------------------------------------------------------------------
# Kripke semantics


def holds(f, world, succ, val):
    tag = f[0]
    if tag == 'false':
        return False
    if tag == 'atom':
        return world in val.get(f[1], ())
    if tag == 'imp':
        return (not holds(f[1], world, succ, val)
                or holds(f[2], world, succ, val))
    return all(holds(f[1], v, succ, val) for v in succ[world])


def countermodel_errors(model, world, ant, suc):
    """The model, read from its printed description, must be a reflexive
    partial order on which ``ant => suc`` fails at ``world``."""
    d = model.describe()
    n = d['worlds']
    succ = [set(vs) for vs in d['order']]
    val = {k: set(ws) for k, ws in d['valuation'].items()}
    if n < 1 or len(succ) != n:
        return ['countermodel has %r worlds and %d order rows'
                % (n, len(succ))]
    if not 0 <= world < n:
        return ['countermodel world %r outside 0..%d' % (world, n - 1)]
    errors = []
    for w in range(n):
        if not succ[w] <= set(range(n)):
            errors.append('order row %d names unknown worlds' % w)
        if w not in succ[w]:
            errors.append('order is not reflexive at world %d' % w)
        for v in succ[w]:
            if v != w and w in succ[v]:
                errors.append('order is not antisymmetric: %d, %d' % (w, v))
            if not succ[v] <= succ[w]:
                errors.append('order is not transitive at %d <= %d' % (w, v))
    if errors:
        return errors
    if not all(holds(f, world, succ, val) for f in ant) \
            or any(holds(f, world, succ, val) for f in suc):
        errors.append('goal is not false at world %d of the countermodel'
                      % world)
    return errors


# ---------------------------------------------------------------------------
# Proofs


def _has_cut(nodes):
    return any(n.inst is not None and n.inst.rule.value == 'cut'
               for n in nodes)


def cyclic_proof_errors(prog, proof, ant, suc):
    """A proof returned by the prover: valid for ``check_cyclic``, free
    of cut, concluding exactly ``ant => suc``."""
    errors = []
    report = prog.check_cyclic(proof)
    if not report.ok:
        errors.append('check_cyclic rejects the proof: %s'
                      % report.violations[:2])
    if _has_cut(proof.nodes.values()):
        errors.append('prover proof contains a cut')
    root = proof.nodes.get(proof.root)
    if root is None or (program_sequent_key(root.sequent)
                        != sequent_key(ant, suc)):
        errors.append('proof does not conclude the goal %s => %s'
                      % (', '.join(map(to_text, ant)),
                         ', '.join(map(to_text, suc))))
    return errors


def signed_atoms(f, positive=True, out=None):
    out = set() if out is None else out
    stack = [(f, positive)]
    while stack:
        g, sign = stack.pop()
        if g[0] == 'atom':
            out.add((g[1], sign))
        elif g[0] == 'imp':
            stack.append((g[1], not sign))
            stack.append((g[2], sign))
        elif g[0] == 'box':
            stack.append((g[1], sign))
    return out


def interpolant_errors(prog, result, a, b):
    """A Lyndon interpolant I of A -> B: every signed atom of I is signed
    alike in A and in B, and A => I and I => B are proved by proofs that
    pass ``check_cyclic``."""
    i = from_program(result.interpolant)
    errors = []
    extra = signed_atoms(i) - (signed_atoms(a) & signed_atoms(b))
    if extra:
        errors.append('interpolant %s has signed atoms %s outside both '
                      'sides' % (to_text(i), sorted(extra)))
    for given, ant, suc in ((result.left_obligation, a, i),
                            (result.right_obligation, i, b)):
        if program_sequent_key(given) != sequent_key([ant], [suc]):
            errors.append('obligation %s is not %s => %s'
                          % (given, to_text(ant), to_text(suc)))
            continue
        verdict = prog.decide(given)
        if verdict.proof is None:
            errors.append('obligation %s is not provable' % given)
        else:
            errors.extend(cyclic_proof_errors(prog, verdict.proof,
                                              [ant], [suc]))
    return errors


def cutfree_errors(prog, out, root_key):
    """The result of the cut-free pipeline (see ``workloads.cutfree_op``):
    both checker reports valid, no cut anywhere, the root sequent kept,
    and dump -> load -> dump byte-identical."""
    errors = []
    if not out.cyclic_report.ok:
        errors.append('check_cyclic rejects the cut-free proof: %s'
                      % out.cyclic_report.violations[:2])
    if not out.wf_report.ok:
        errors.append('check_wf rejects the finitary translation: %s'
                      % out.wf_report.violations[:2])
    proof = out.proof
    if proof.system.value != 'grz_inf':
        errors.append('cut-free proof is in system %s' % proof.system.value)
    if _has_cut(proof.nodes.values()):
        errors.append('cut-free proof contains a cut')
    root = proof.nodes.get(proof.root)
    if root is None or program_sequent_key(root.sequent) != root_key:
        errors.append('cut-free proof changed the root sequent')
    if program_sequent_key(out.finitary.root) != root_key:
        errors.append('finitary translation changed the root sequent')
    stack = [out.finitary]
    while stack:
        p = stack.pop()
        if p.inst.rule.value == 'cut':
            errors.append('finitary translation contains a cut')
            break
        stack.extend(p.children)
    if prog.dump_proof(proof) != out.json:
        errors.append('dump -> load -> dump is not byte-identical')
    return errors
