"""Import the program under test from the checkout's ``src`` directory.

Every call imports the package afresh, so each set-up and each round
starts from the module state of a new process (empty caches, no lazy
tables filled), as a command-line user would see it.
"""

import importlib
import os
import sys
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), 'src')


class ProgramMissing(Exception):
    pass


def load_program():
    if not os.path.isfile(os.path.join(SRC, 'grzproofs', '__init__.py')):
        raise ProgramMissing('no package at %s' % os.path.join(SRC,
                                                               'grzproofs'))
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == 'grzproofs' or n.startswith('grzproofs.')]:
        del sys.modules[name]
    mod = {m: importlib.import_module('grzproofs.' + m)
           for m in ('syntax', 'calculus', 'proofs', 'transforms', 'prover',
                     'interpolation', 'cli')}
    origin = os.path.dirname(os.path.abspath(mod['syntax'].__file__))
    if origin != os.path.join(SRC, 'grzproofs'):
        raise ProgramMissing('grzproofs imported from %s, not from %s'
                             % (origin, SRC))
    syntax, proofs, transforms = mod['syntax'], mod['proofs'], \
        mod['transforms']
    interpolation, prover = mod['interpolation'], mod['prover']
    return types.SimpleNamespace(
        parse_formula=syntax.parse_formula,
        parse_sequent=syntax.parse_sequent,
        Sequent=syntax.Sequent, mset=syntax.mset, EMPTY=syntax.EMPTY,
        System=mod['calculus'].System,
        decide=prover.decide, ProverError=prover.ProverError,
        find_countermodel=prover.find_countermodel,
        lyndon=interpolation.lyndon, interpolate=interpolation.interpolate,
        SplitSequent=interpolation.SplitSequent,
        InterpolationError=interpolation.InterpolationError,
        CyclicProof=proofs.CyclicProof, check_cyclic=proofs.check_cyclic,
        check_wf=proofs.check_wf, unravel=proofs.unravel,
        cyclic_from_wf=proofs.cyclic_from_wf,
        wf_from_cyclic=proofs.wf_from_cyclic,
        dump_proof=proofs.dump_proof, load_proof=proofs.load_proof,
        seq_to_inf=transforms.seq_to_inf,
        eliminate_cuts=transforms.eliminate_cuts, slim=transforms.slim,
        regularize=transforms.regularize, inf_to_seq=transforms.inf_to_seq,
        build_cut=transforms.build_cut,
        random_wf_proof=mod['cli'].random_wf_proof,
    )
