"""The repository benchmark: ``repro exp`` sweeps, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fullsim_register --seed 2017 \\
        --seconds 15 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), runs the timed phase with tracing off, checks the outputs and
prints the end-to-end metrics.  ``--trace 1`` does the same, then sets
up once more with every layer wrapper installed, runs a traced timed
phase, asserts its averages are byte-identical to the untraced ones,
restores the wrappers, and prints the per-layer metrics; the traced
versus untraced end-to-end figures are its overhead.  Every run writes
its envelope (``env``, ``end_to_end``, ``layers``) to
``perfbench/out/``, and a traced run also writes its spans there as a
Chrome trace that Perfetto opens.  The last line of standard output is
the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

DEFAULT_SEED = 2017


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so worker pools and daemons are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from perfbench.harness import (END_TO_END, SETUPS, end_to_end, measure,
                                   model_stats, pass_digests)
    from perfbench.stats import environment
    from perfbench.tracing import Tracer, write_chrome_trace
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    env = environment(ROOT)
    untraced = measure(workload_cls, args.seed, args.seconds, SETUPS)
    e2e = end_to_end(untraced)
    errors = list(untraced.errors)
    attempted, failed = untraced.attempted, untraced.failed
    envelope = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "env": env,
                "end_to_end": e2e, "layers": {},
                "digest": (pass_digests(untraced.passes[0])
                           if untraced.passes else None),
                "model": model_stats(untraced)}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = args.workload  # the latest run of a workload replaces the last
    if args.trace:
        with Tracer() as tracer:
            layers.install(tracer)
            traced = measure(workload_cls, args.seed, args.seconds, 1,
                             tracer=tracer)
        errors += [f"traced: {e}" for e in traced.errors]
        if not traced.passes:
            errors.append("the traced phase completed no pass")
        attempted += traced.attempted
        failed += traced.failed
        shared = min(len(untraced.passes), len(traced.passes))
        if any(pass_digests(untraced.passes[i])
               != pass_digests(traced.passes[i]) for i in range(shared)):
            errors.append("traced averages differ from untraced ones")
        traced_e2e = end_to_end(traced)
        envelope["overhead"] = {
            name: {"untraced": e2e[name]["value"],
                   "traced": traced_e2e[name]["value"],
                   "ratio": (traced_e2e[name]["value"] / e2e[name]["value"]
                             if e2e[name]["value"] else None)}
            for name in e2e}
        envelope["layers"] = (layers.layer_metrics(tracer, traced)
                              if traced.passes else {})
        envelope["trace_file"] = str(OUT / f"{stem}.trace.json")
        write_chrome_trace(envelope["trace_file"], tracer.recorded())
    envelope["errors"] = errors
    correct = not errors and failed == 0 and bool(untraced.passes)
    envelope["correct"] = correct
    with open(OUT / f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(envelope, f, indent=1, default=str)
        f.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"env={env['env_id']} cpus={env['cpu_count']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"sha={env['git_sha']}")
    for name, row in e2e.items():
        print(f"  {name:<20} {row['value']:.6g} {row['unit']} (n={row['n']})")
    print(f"  averages digest      {envelope['digest']}")
    for name, value in envelope["model"].items():
        print(f"  model.{name:<14} {value:.6g}")
    for name, row in envelope.get("overhead", {}).items():
        print(f"  overhead {name:<20} untraced {row['untraced']:.6g} "
              f"traced {row['traced']:.6g}")
    for name, value in envelope["layers"].items():
        print(f"  layer {name:<34} {value:.6g}")
    for error in errors:
        print(f"  FAILED: {error}")

    if args.trace:
        metrics = {name: {"value": envelope["layers"].get(name, 0.0),
                          "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                   for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
