"""One workload run, in its own process (started by ``run.py``).

Prints ``READY`` on standard output once set-up is complete (the
parent times set-up from process start to that line), then runs the
workload, checks its outputs and prints one JSON line of raw figures.
With ``--setup-only`` it stops after ``READY``.

Only a traced run (``--trace 1``) imports the span wrappers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-limit-s", type=float, required=True)
    parser.add_argument("--work", required=True,
                        help="where to make this run's scratch directory")
    parser.add_argument("--out", required=True,
                        help="directory for the span dump of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def ready() -> None:
    print("READY", flush=True)


def run_in_process(args: argparse.Namespace, work: str) -> Dict:
    import inproc
    import metrics

    workload = inproc.IN_PROCESS[args.workload](work, args.seed)
    workload.setup()
    ready()
    if args.setup_only:
        return {}
    inproc.reset_peak_rss()  # peak_rss_mb covers the timed pass only
    # A traced run measures a quarter of the time untraced, then
    # repeats exactly those requests traced, traced, untraced (ABBA),
    # so warm-up and drift do not bias the overhead either way.
    seconds = args.seconds / 4 if args.trace else args.seconds
    workload.start_pass(traced=False)
    cycles = inproc.closed_loop(workload.cycles, workload.call, seconds,
                                before=workload.before)
    done = [item for cycle in cycles for item in cycle]
    result: Dict = {}
    if not args.trace:
        result["figures"] = inproc.e2e_figures(cycles, args.latency_limit_s)
    else:
        import layers
        import spans

        repeat = [[item.request for item in cycle] for cycle in cycles]

        def again(tracer=None) -> List:
            workload.start_pass(traced=tracer is not None)
            passes = inproc.closed_loop(iter(repeat), workload.call,
                                        float("inf"), tracer=tracer,
                                        before=workload.before)
            return [item for cycle in passes for item in cycle]

        tracer = spans.Tracer()
        workload.tally = inproc.StoreTally()
        installed, probes = layers.install(tracer)
        try:
            traced_done = again(tracer) + again(tracer)
        finally:
            installed.restore()
        tally, workload.tally = workload.tally, inproc.StoreTally()
        done += again()
        figures, missing = layers.span_figures(
            tracer, probes.arena_bytes, layers.absent_spans(installed))
        gap, wall = spans.uncovered(tracer.spans, layers.CONTAINERS)
        figures.update({
            "artifacts.bytes_written": tally.bytes_written,
            "artifacts.bytes_read": tally.bytes_read,
            "artifacts.hit_ratio": metrics.ratio(
                tally.hits, tally.hits + tally.misses),
            "faults.retries": tally.retries,
            "faults.worker_failures": tally.worker_failures,
            "uncovered_frac": metrics.ratio(gap, wall),
            "trace_overhead_frac": metrics.ratio(
                sum(d.latency for d in traced_done),
                sum(d.latency for d in done)) - 1.0,
            "layers.absent": len(installed.absent),
        })
        result.update(figures=figures, absent=installed.absent,
                      not_measured=missing)
        tracer.dump(os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}.json"))
        done = done + traced_done
    workload.verify(done)
    errors = [item.error for item in done if item.error]
    result.update(attempted=len(done), failed=len(errors),
                  errors=sorted(set(errors))[:5],
                  mismatches=workload.mismatches,
                  screened_out=workload.screen.runaways)
    return result


def run_serve(args: argparse.Namespace, work: str) -> Dict:
    import servemix
    import stats

    root = os.getcwd()
    workload = servemix.ServeMix(root, work, args.seed)
    try:
        workload.setup()
        ready()
        if args.setup_only:
            return {}
        cycles, before, after = workload.run(args.seconds)
        outcomes = [o for cycle, _ in cycles for o in cycle]
        figures = servemix.e2e_figures(cycles, args.latency_limit_s)
        figures["peak_rss_mb"] = workload.peak_rss_mb
        result: Dict = {}
        if args.trace:
            import layers
            import metrics
            import spans

            tracer = spans.Tracer()
            figures = servemix.layer_figures(outcomes, before, after)
            servemix.add_spans(tracer, outcomes)
            gap, wall = spans.uncovered(tracer.spans)
            figures["uncovered_frac"] = metrics.ratio(gap, wall)
            tracer.dump(os.path.join(
                args.out, f"spans-{args.workload}-seed{args.seed}.json"))
            # Spans come from recorded stamps, with no live wrappers, so
            # tracing costs this workload nothing by construction.
            result["not_measured"] = list(layers.SPAN_FIGURES) + [
                "artifacts.bytes_written", "artifacts.bytes_read",
                "artifacts.hit_ratio", "faults.retries",
                "faults.worker_failures", "layers.absent",
                "trace_overhead_frac"]
        result["figures"] = figures
        workload.verify(outcomes, before, after)
        n_ok = sum(1 for o in outcomes if o.ok)
        if stats.beyond(n_ok, 95) < stats.MIN_BEYOND:
            workload.mismatches.append(
                f"{args.workload}: {n_ok} completed requests leave fewer "
                f"than {stats.MIN_BEYOND} samples beyond p95")
        errors = [o.error for o in outcomes if o.error]
        result.update(attempted=len(outcomes), failed=len(errors),
                      errors=sorted(set(errors))[:5], samples=n_ok,
                      mismatches=workload.mismatches,
                      screened_out=workload.screen.runaways)
        return result
    finally:
        workload.close()


def main(argv: List[str]) -> int:
    args = parse(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work)
    try:
        if args.workload == "serve-mix":
            result = run_serve(args, work)
        else:
            try:
                result = run_in_process(args, work)
            finally:
                import inproc

                inproc.shutdown_pool()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
