"""Benchmark of the grzproofs package, run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout.  One process, one
thread.  Set-up (import, input generation, warm-up) runs three times and
its median is ``setup_s``.  Then whole rounds over the workload's inputs
run until ``--seconds`` have passed, each from a fresh import of the
package (see ``workloads``); every output of every op is checked, outside
the op's timer.  Every time is scaled by the machine's speed around it
(see ``speed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics of the traced
ones plus the tracing overhead, and writes the spans to
``perfbench/out/``.  The last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import resource
import statistics
import sys

import spans
import speed
import workloads
from program import ProgramMissing, load_program

SETUP_REPEATS = 3
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), 'out')

# Spans whose self time is a per-layer metric, named by the layer's module.
LAYERS = ('syntax.parse', 'prover.decide_proved', 'prover.decide_refuted',
          'proofs.load', 'proofs.dump', 'proofs.check_cyclic',
          'proofs.check_wf', 'transforms.cutfree', 'transforms.inf_to_seq',
          'interpolation.lyndon', 'interpolation.interpolate',
          'cli.corpus_gen')
COUNTERS = (('syntax.parse_calls', 'count'),
            ('prover.proof_nodes', 'nodes'), ('prover.backlinks', 'count'),
            ('prover.countermodel_worlds', 'worlds'),
            ('proofs.load_bytes', 'bytes'), ('proofs.checked_nodes', 'nodes'),
            ('transforms.cutfree_in_nodes', 'nodes'),
            ('transforms.cutfree_out_nodes', 'nodes'),
            ('transforms.cutfree_backlinks', 'count'),
            ('transforms.inf_to_seq_nodes', 'nodes'),
            ('interpolation.lyndon_calls', 'count'),
            ('interpolation.interpolant_size', 'nodes'))


def set_up(workload, seed, trace, tiny=False):
    """Set up ``SETUP_REPEATS`` times.  Returns the last set-up's inputs,
    the clock interval of every set-up, the last set-up's tracer, and the
    errors of the checks on its inputs and warm-up.  The tracer holds the
    spans of input generation and warm-up."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        tr = spans.Tracer() if trace else spans.NullTracer()
        t0 = speed.clock()
        prog = load_program()
        with tr.span('setup'):
            inputs = workload.setup(prog, seed, tr, tiny)
            warm = workloads.warm_up(prog, tr)
        intervals.append((t0, speed.clock()))
    errors = workload.check_inputs(prog, inputs)
    errors += workloads.check_warm_up(prog, warm)
    return inputs, intervals, tr, errors


def measure(workload, inputs, seconds, trace):
    """Whole rounds until ``seconds`` have passed.  Traced runs alternate
    untraced and traced rounds, and end after a traced one."""
    rounds, errors = [], []
    start = speed.clock()
    while True:
        traced = trace and len(rounds) % 2 == 1
        tr = spans.Tracer() if traced else spans.NullTracer()
        r = workload.run(inputs, tr)
        errors += r.errors
        rounds.append((r, tr if traced else None))
        if speed.clock() - start >= seconds and (
                not trace or len(rounds) % 2 == 0):
            return rounds, errors


def finish(rounds, intervals):
    """Scale the rounds' ops and the set-ups, once sampling has ended.
    Returns the scaled set-up times and the last set-up's scale."""
    for r, _ in rounds:
        r.close()
    scales = [speed.scale(t0, t1) for t0, t1 in intervals]
    return ([(t1 - t0) * f for (t0, t1), f in zip(intervals, scales)],
            scales[-1])


def peak_rss_mb():
    """Peak resident memory so far.  Read when the rounds end, before
    the figures are worked out, which is not the workload's work."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(rounds, setup_times, peak_rss_mb):
    completed = sum(r.attempted - r.failed for r, _ in rounds)
    busy = sum(sum(r.op_time) for r, _ in rounds)
    latency = [x for r, _ in rounds for x in r.latency]
    p99 = (statistics.quantiles(latency, n=100, method='inclusive')[98]
           if len(latency) > 1 else latency[0])
    return {
        'setup_s': (statistics.median(setup_times), 's'),
        'ops_per_s': (completed / busy, 'op/s'),
        'verdict_p50_ms': (1000 * statistics.median(latency), 'ms'),
        'verdict_p99_ms': (1000 * p99, 'ms'),
        'output_nodes': (statistics.median(r.output_nodes
                                           for r, _ in rounds), 'nodes'),
        'peak_rss_mb': (peak_rss_mb, 'MB'),
    }


def layer_figures(tr, scale):
    """Scaled self time per layer and counts, of the spans in ``tr``."""
    times, calls = tr.self_times()
    out = {name + '_s': times[name] * scale for name in LAYERS
           if name in times}
    if 'syntax.parse' in calls:
        out['syntax.parse_calls'] = calls['syntax.parse']
    out.update(tr.counts)
    return out


def per_layer(rounds, setup):
    """Each layer's figure is its mean per traced round.  A layer that no
    round of the workload calls is reported from the last set-up (input
    generation and warm-up) instead, so that it does not read 0; set-up
    and round figures are never added.  Returns the metrics and, per
    metric, which of the two it comes from."""
    per_round = [layer_figures(tr, r.scale) for r, tr in rounds
                 if tr is not None]
    at_setup = layer_figures(*setup)
    out, source = {}, {}
    names = [(name + '_s', 's') for name in LAYERS] + list(COUNTERS)
    for name, unit in names:
        if any(name in f for f in per_round):
            value = sum(f.get(name, 0) for f in per_round) / len(per_round)
            source[name] = 'rounds'
        else:
            value = at_setup.get(name, 0)
            source[name] = 'set-up'
        out[name] = (value, unit)
    out['transforms.blowup'] = (out['transforms.cutfree_out_nodes'][0]
                                / out['transforms.cutfree_in_nodes'][0],
                                'ratio')
    source['transforms.blowup'] = source['transforms.cutfree_out_nodes']
    plain = sum(sum(r.op_time) for r, tr in rounds if tr is None)
    with_spans = sum(sum(r.op_time) for r, tr in rounds if tr is not None)
    out['trace.overhead_pct'] = (100 * (with_spans / plain - 1), '%')
    source['trace.overhead_pct'] = 'rounds'
    return out, source


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)

    try:
        with speed.sampling():
            inputs, intervals, setup_tr, errors = set_up(
                workload, args.seed, trace)
            rounds, round_errors = measure(workload, inputs, args.seconds,
                                           trace)
    except (ProgramMissing, workloads.SetupError) as e:
        print('error: %s' % e, file=sys.stderr)
        return 2
    errors += round_errors
    peak = peak_rss_mb()
    setup_times, setup_scale = finish(rounds, intervals)
    setup = (setup_tr, setup_scale)

    if trace:
        metrics, source = per_layer(rounds, setup)
    else:
        metrics, source = end_to_end(rounds, setup_times, peak), {}
    attempted = sum(r.attempted for r, _ in rounds)
    failed = sum(r.failed for r, _ in rounds)
    print('workload %s  seed %d  trace %d  rounds %d  ops per round %d'
          % (args.workload, args.seed, args.trace, len(rounds),
             rounds[0][0].attempted))
    print('attempted %d  failed %d' % (attempted, failed))
    for label, err in sorted(set(f for r, _ in rounds for f in r.failures)):
        print('failed op: %s  (%s)' % (label, err))
    for name, (value, unit) in metrics.items():
        print('%-34s %16.6f %-6s %s' % (name, value, unit,
                                        source.get(name, '')))
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, 'trace-%s-seed%d.json'
                            % (args.workload, args.seed))
        phases = {'setup': setup[0]}
        phases.update(('round%d' % (i + 1), tr)
                      for i, (_, tr) in enumerate(rounds) if tr is not None)
        spans.dump(path, phases)
        print('spans written to %s' % os.path.relpath(path))
    for e in errors[:20]:
        print('check failed: %s' % e, file=sys.stderr)
    if errors:
        print('%d check failures' % len(errors), file=sys.stderr)
    print(json.dumps({
        'correct': not errors, 'attempted': attempted, 'failed': failed,
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
