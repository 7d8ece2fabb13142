"""Wall-clock benchmark of the repro stack: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_longtail --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` sets the substrate up several times (median = ``setup_s``),
runs rounds of the workload for ``--seconds`` with no instrumentation,
checks every output and prints every end-to-end metric.  ``--trace 1``
runs the same rounds untraced and then traced (recording wrappers on
the layer boundaries of ``layers.py``), checks the two runs' outputs
are byte-identical and prints the per-layer metrics plus
``trace.overhead_frac``; the spans are written to ``perfbench/out/`` as
JSON lines and as Chrome trace events.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
prints ``correct: false`` and exits with status 1.  The library is
imported from ``src/`` next to this directory; without it the runner
exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

#: Single-threaded numerics: the shared machine has two cores, and
#: BLAS thread pools would make every timing depend on its neighbours.
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rounds always measured, whatever ``--seconds`` says.
MIN_ROUNDS = 2


def _import_library():
    """Put ``src/`` on the path; None when the checkout has no library."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _measure(workload, substrate, seed, seconds=None, rounds=None):
    """Run rounds until ``seconds`` have passed (or exactly ``rounds``)."""
    results = []
    started = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return len(results) < rounds
        return (
            len(results) < MIN_ROUNDS
            or time.perf_counter() - started < seconds
        )

    while more():
        inputs = workload.inputs(seed, len(results))
        results.append(_run_round(workload, substrate, inputs))
    return results


def _run_round(workload, substrate, inputs):
    """One round with the cyclic garbage collector paused.

    Garbage is collected before the round instead: a full collection
    landing inside a tick would stall every request due during it, and
    where it lands depends on allocation history, not on the code
    under test.
    """
    gc.collect()
    gc.disable()
    try:
        return workload.run_round(substrate, inputs)
    finally:
        gc.enable()


def _pooled(results, attribute):
    return [v for r in results for v in getattr(r, attribute)]


def end_to_end(results, setup_times, stats):
    """End-to-end metrics of the untraced rounds: name -> (value, unit, note)."""
    wall = sum(r.wall_s for r in results)
    requests = sum(r.requests for r in results)
    counters = sum((r.counters for r in results), Counter())
    out = {
        "setup_s": (
            stats.median(setup_times), "s",
            f"median of {len(setup_times)} set-ups",
        )
    }
    out["tokens_per_s"] = (
        stats.median([r.tokens / r.wall_s for r in results]), "tok/s",
        f"median of {len(results)} rounds, {sum(r.tokens for r in results)} "
        f"tokens in {wall:.3f} s",
    )
    for name, attribute, scale in (
        ("tick_ms", "tick_s", 1e3),
        ("latency_ms", "latency_ms", 1.0),
        ("ttft_ms", "ttft_ms", 1.0),
    ):
        values = [v * scale for v in _pooled(results, attribute)]
        out[f"{name}_p50"] = (
            stats.median(values), "ms", f"n={len(values)}",
        )
        tail = stats.tail_percentile(values, 99.0)
        out[f"{name}_p99"] = (
            tail.value, "ms",
            f"p{tail.percentile:g} of n={tail.samples}, "
            f"{tail.beyond} beyond",
        )
    out["slo_attainment"] = (
        sum(r.slo_met for r in results) / requests, "share",
        f"of {requests} requests",
    )
    out["accept_length"] = (
        counters["sd_committed"] / counters["sd_seq_cycles"], "tokens",
        f"over {counters['sd_seq_cycles']} sequence-cycles",
    )
    steps = _pooled(results, "step_s")
    out["step_s_p50"] = (stats.median(steps), "s", f"n={len(steps)}")
    out["worker_cycles"] = (
        sum(r.worker_cycles for r in results) / requests, "cycles/req",
        f"{sum(r.worker_cycles for r in results)} over {requests} requests",
    )
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (peak, "MB", "ru_maxrss")
    return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(results, totals, overhead, stats, layers):
    """Per-layer metrics of the traced rounds: name -> (value, unit)."""
    units = layers.per_layer_metrics()
    out = {}
    for boundary in layers.BOUNDARIES:
        calls, own = totals.get(boundary.name, (0, 0.0))
        out[f"{boundary.name}.calls"] = float(calls)
        out[f"{boundary.name}.self_ms"] = own * 1e3
    c = sum((r.counters for r in results), Counter())
    waits = _pooled(results, "queue_wait")
    rewards = _pooled(results, "rewards")
    engine_cycles = c["sd_cycles"] + c["vanilla_cycles"]
    out.update(
        {
            "specdec.accepted_per_drafted": _ratio(
                c["sd_accepted"], c["sd_drafted"]
            ),
            "specdec.verify_rows_per_token": _ratio(
                c["sd_verify_rows"], c["sd_committed"]
            ),
            "specdec.sd_cycle_share": _ratio(c["sd_cycles"], engine_cycles),
            "drafter.launches": float(c["draft_launches"]),
            "cache.hit_rate": _ratio(
                c["cache_hits"], c["cache_hits"] + c["cache_misses"]
            ),
            "cache.prefill_tokens_saved_frac": _ratio(
                c["prefill_tokens_saved"],
                c["prefill_tokens_saved"] + c["prefill_tokens"],
            ),
            "cache.evictions": float(c["cache_evictions"]),
            "serving.queue_wait_ticks_p50": (
                stats.median(waits) if waits else 0.0
            ),
            "serving.queue_wait_ticks_p99": (
                stats.tail_percentile(waits, 99.0).value if waits else 0.0
            ),
            "serving.preemptions": float(c["preemptions"]),
            "serving.stolen": float(c["stolen"]),
            "fleet.spills": float(c["spills"]),
            "fleet.migrations": float(c["migrations"]),
            "fleet.ring_moves": float(c["ring_moves"]),
            "autoscale.scale_events": float(c["scale_events"]),
            "autoscale.drains": float(c["drains"]),
            "rollout.sd_cycles": float(c["sd_cycles"]),
            "rollout.vanilla_cycles": float(c["vanilla_cycles"]),
            "longtail.predictor_hit_rate": _ratio(
                c["predictor_within"], c["predictor_observations"]
            ),
            "spot.updates": float(c["spot_updates"]),
            "rl.reward_mean": (
                sum(rewards) / len(rewards) if rewards else 0.0
            ),
            "trace.overhead_frac": overhead,
        }
    )
    return {name: (value, units[name][0]) for name, value in out.items()}


def _replay_failures(workload, substrate, seed, results):
    """The workload's replay check on round 0 (none for some workloads)."""
    if workload.replay is None:
        return []
    return workload.replay(
        substrate, workload.inputs(seed, 0), results[0].responses, seed
    )


def _set_up(workloads, workload, seed, repeats):
    """Build the substrate ``repeats`` times; (substrate, times, failures)."""
    times = []
    digests = set()
    for _ in range(repeats):
        began = time.perf_counter()
        substrate = workloads.build_substrate()
        workload.inputs(seed, 0)
        times.append(time.perf_counter() - began)
        digests.add(substrate.digest())
    failures = []
    if len(digests) != 1:
        failures.append("repeated set-ups built different weights")
    return substrate, times, failures


def _traced_rerun(workload, substrate, seed, results, base, layers, stats):
    """Rerun the untraced rounds under instrumentation.

    Returns (per-layer metrics, failures, span count, absent boundaries).
    """
    from spans import Instrumentation, SpanRecorder

    recorder = SpanRecorder()
    instrumentation = Instrumentation(layers.BOUNDARIES, recorder)
    with instrumentation:
        traced = _measure(workload, substrate, seed, rounds=len(results))
    failures = [f for r in traced for f in r.failures]
    if not instrumentation.restored():
        failures.append("a recording wrapper was left installed")
    for index, (plain, spanned) in enumerate(zip(results, traced)):
        if plain.digest != spanned.digest:
            failures.append(
                f"round {index}: traced outputs differ from untraced"
            )
    overhead = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in results) - 1.0
    )
    recorder.write_jsonl(str(base) + ".spans.jsonl")
    recorder.write_chrome(str(base) + ".trace.json")
    metrics = per_layer(traced, recorder.totals(), overhead, stats, layers)
    return metrics, failures, len(recorder), instrumentation.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_library()
    if workloads is None:
        print(f"no library under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import envstamp
    import layers
    import stats

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    name = args.workload

    substrate, setup_times, failures = _set_up(
        workloads, workload, args.seed, 1 if args.trace else SETUP_REPEATS
    )
    _run_round(
        workload, substrate, workload.inputs(args.seed, 0, warmup=True)
    )
    # A traced run splits its time between the untraced rounds and the
    # traced rerun of the same rounds.
    seconds = args.seconds / 2 if args.trace else args.seconds
    results = _measure(workload, substrate, args.seed, seconds=seconds)
    failures += _replay_failures(workload, substrate, args.seed, results)

    OUT_DIR.mkdir(exist_ok=True)
    base = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": name,
        "trace": args.trace,
        "stamp": envstamp.stamp(ROOT, args.seed, THREAD_PINS),
        "rounds": len(results),
        "round_wall_s": [r.wall_s for r in results],
        "digests": [r.digest for r in results],
    }
    if args.trace:
        metrics, traced_failures, spans, absent = _traced_rerun(
            workload, substrate, args.seed, results, base, layers, stats
        )
        failures += traced_failures
        record.update({"spans": spans, "absent": absent})
        for metric, (value, unit) in metrics.items():
            print(f"{name:>15} {metric:<52} {value:>14.4f} {unit}")
    else:
        metrics = end_to_end(results, setup_times, stats)
        for metric, (value, unit, note) in metrics.items():
            print(f"{name:>15} {metric:<16} {value:>12.4f} {unit:<10} {note}")
        record["notes"] = {metric: m[2] for metric, m in metrics.items()}

    round_failures = [f for r in results for f in r.failures]
    attempted = sum(r.attempted for r in results)
    failed = min(
        attempted, sum(r.failed for r in results) + len(failures)
    )
    failures = round_failures + failures
    for failure in failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": m[0], "unit": m[1]}
            for metric, m in metrics.items()
        },
    }
    record.update(result)
    record.update({"error_rate": failed / attempted, "failures": failures})
    with open(str(base) + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{name:>15} output digest    {envstamp.combine(record['digests'])}")
    print(f"{name:>15} error_rate       {failed / attempted:.4f}")
    print(f"{name:>15} stamp            "
          f"{json.dumps(record['stamp'], sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
