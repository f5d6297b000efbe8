"""arrlcs benchmark: seconds to a checked verdict, per workload.

Run from the root of an arrlcs checkout (the program is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload c13-direct --seed 1 --seconds 20 --trace 0

Workloads are ``cli-suite``, ``c13-direct`` and ``kappa-stream`` (see
``workloads.py`` for what each runs and why it was chosen).  Every sample's
verdict is checked; a wrong verdict or an exception counts as failed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with times read at a reference machine speed (see
``speed.py``; the wall seconds are in the report line).  With ``--trace 1`` the run alternates blocks of traced and
untraced samples and reports per-layer figures averaged over the traced
samples, plus the tracing overhead (traced minus untraced median).  The line
before it is a JSON report: environment, exact counts, the tail's percentile
and sample count, the caches cleared before each cold sample, and problems.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import speed
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MODULES = ("config", "words", "exactlin", "lcs", "geom", "cli")

# setups per run; setup_s is their median.  The cli-suite and c13-direct
# setups take about 50 ms, so many of them steady the median.  kappa-stream's
# setup is a cold C13 build of about ten seconds, so it is repeated fewer
# times, and its
# measurement is split into one block after each setup: machine speed here
# drifts over tens of seconds, and spreading the samples over the whole run
# averages more of that drift than one block at the end would.
SETUP_REPEATS = {"cli-suite": 15, "c13-direct": 15, "kappa-stream": 3}
INTERLEAVED = {"kappa-stream"}

END_TO_END = {
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

EXACTLIN = ("hnf", "hnf_with_transform", "kernel_basis", "quotient_presentation", "member")
LCS = (
    "build", "r3", "p3", "r3perp", "tau_matrix", "im_delta", "u_lattice", "b_lattice",
    "tau_kernel", "tau_preimage", "kernel_is_u", "preimage_is_u_plus_b", "tau_tilde", "kappa",
    "tau_star_identities",
)
TIMED = [f"lcs.{s}" for s in LCS] + [
    "words.lie_basis", "words.generator_lists", "words.abelianize",
    "config.load", "config.validate", "config.automorphisms",
    "geom.glued_realization", "geom.check_realization",
    "cli.maclane_report", "cli.c13_report", "cli.kappa",
]
LAYERS = ("exactlin", "lcs", "words", "config", "geom", "cli", "sample")


def per_layer_units() -> dict:
    units = {}
    for f in EXACTLIN:
        units.update({f"exactlin.{f}.calls": "count", f"exactlin.{f}.self_s": "s",
                      f"exactlin.{f}.max_rows": "count", f"exactlin.{f}.max_cols": "count"})
    units.update({f"{name}_s": "s" for name in TIMED})
    units["geom.glued.attempts"] = "count"
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.verdict_s.p50": "s", "trace.overhead_s": "s", "trace.lcs_share": "frac"})
    return units


def load_arrlcs() -> SimpleNamespace:
    """Import arrlcs afresh from this checkout's ``src``; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "arrlcs" / "__init__.py").is_file():
        raise SystemExit(f"error: no arrlcs sources in {src}; run from the root of an arrlcs checkout")
    for name in [n for n in sys.modules if n == "arrlcs" or n.startswith("arrlcs.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = SimpleNamespace(**{m: importlib.import_module(f"arrlcs.{m}") for m in MODULES})
    if Path(mods.cli.__file__).resolve().parent != src / "arrlcs":
        raise SystemExit(f"error: imported arrlcs from {mods.cli.__file__}, not from {src}")
    return mods


def find_caches(mods) -> list:
    """Every memoized function on the arrlcs modules, as (name, function)."""
    found = {}
    for m in MODULES:
        module = getattr(mods, m)
        for key, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                found.setdefault(id(value), (f"{value.__module__}.{key}", value))
    return sorted(found.values(), key=lambda item: item[0])


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it.

    With twenty samples or fewer no percentile above the median has ten
    samples beyond it, and the maximum is reported as percentile 100.
    """
    n = len(times)
    ordered = sorted(times)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others (all CPUs), from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"inputs-{workload.name}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    # the untraced run reads its timings at the reference speed; the traced
    # run keeps wall seconds, so that spans and samples share one clock
    track = None if tracer else speed.SpeedTrack()
    setups = 1 if tracer else SETUP_REPEATS[workload.name]
    blocks = setups if workload.name in INTERLEAVED else 1
    setup_spans, spans, problems, counts, steal = [], [], [], {}, 0.0
    try:
        with track or contextlib.nullcontext():
            for k in range(setups):
                state = None  # let the previous setup's objects go first
                t0 = time.perf_counter()
                mods = load_arrlcs()
                caches = find_caches(mods)  # before tracing hides the lru wrappers
                if tracer:
                    tracer.install(mods)
                    tracer.enabled, tracer.sample = True, "setup"
                state = workload.setup(mods, args.seed, workdir)
                setup_spans.append((t0, time.perf_counter()))
                if tracer:
                    tracer.enabled = False
                if blocks > 1 or k == setups - 1:
                    steal_before = steal_seconds() or 0.0
                    measure(workload, state, caches, args.seconds / blocks, tracer, spans, problems, counts)
                    steal += (steal_seconds() or 0.0) - steal_before
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    seconds = track.reference_seconds if track else (lambda t0, t1: t1 - t0)
    setup_times = [seconds(t0, t1) for t0, t1 in setup_spans]
    samples = [(seconds(t0, t1), traced) for t0, t1, traced in spans]
    failed = sum(1 for p in problems if p)
    report = {
        "environment": environment(args),
        "why": workload.why,
        "cleared_caches": [name for name, _ in caches] if workload.cold else [],
        "counts": counts,
        "setup_s_each": setup_times,
        "failed_frac": failed / len(samples),
        "problems": [p for p in problems if p][:5],
        "first_samples_s": [dt for dt, _ in samples[:10]],
        "steal_s": steal,
    }
    if track:
        report["speed_probe_ms"] = track.summary()
        report["reference_probe_ms"] = 1000 * speed.REFERENCE_S
        report["wall_s"] = {
            "setup_each": [t1 - t0 for t0, t1 in setup_spans],
            "verdict_p50": statistics.median(t1 - t0 for t0, t1, _ in spans),
            "first_samples": [t1 - t0 for t0, t1, _ in spans[:10]],
        }
    untraced = [dt for dt, traced in samples if not traced]
    if tracer:
        traced_ids = [i for i, (_, traced) in enumerate(samples) if traced]
        trace_path = OUT / f"trace-{workload.name}-{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics, layer_counts = per_layer_metrics(tracer.spans, traced_ids, samples, untraced)
        report["counts"].update(layer_counts)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["samples"] = {"traced": len(traced_ids), "untraced": len(untraced)}
    else:
        value, pct = tail(untraced)
        metrics = {
            "verdict_s.p50": statistics.median(untraced),
            "verdict_s.tail": value,
            "verdicts_per_s": len(untraced) / sum(untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["tail"] = {"percentile": pct, "samples": len(untraced)}
    units = per_layer_units() if tracer else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def measure(workload, state, caches, seconds, tracer, spans, problems, counts) -> None:
    """Closed loop: run samples until ``seconds`` have passed.

    Stops at the end of a period of the workload's input pattern (and, when
    tracing, after a traced and an untraced block of equal length), so that
    every run sees the same mix of inputs.  Appends each sample's
    ``(start, end, traced)`` to ``spans`` and its problem text ('' when
    correct) to ``problems``; fills ``counts`` from the first correct sample.
    Sample numbers, which pick the inputs, continue from earlier calls.
    """
    block = 2 * workload.period if tracer else workload.period
    start = time.perf_counter()
    i = first = len(spans)
    while time.perf_counter() - start < seconds or (i - first) % block:
        inp = workload.prepare(state, i)
        if workload.cold:
            for _, fn in caches:
                fn.cache_clear()
        traced = tracer is not None and (i // workload.period) % 2 == 0
        if tracer:
            tracer.enabled, tracer.sample = traced, i
        out = err = None
        t0 = time.perf_counter()
        try:
            out = tracer.span("sample", workload.sample, state, inp) if tracer else workload.sample(state, inp)
        except Exception:  # a failed sample is counted, and the loop goes on
            err = traceback.format_exc(limit=-3)
        t1 = time.perf_counter()
        if tracer:
            tracer.enabled = False
        found = [err] if err else workload.check(state, inp, out)
        if not found and not counts:
            counts.update(workload.counts(state, out))
        spans.append((t0, t1, traced))
        problems.append("; ".join(found))
        out = None
        i += 1


def per_layer_metrics(spans, traced_ids, samples, untraced):
    summary = tracing.summarize(spans, traced_ids)
    per_name = summary["per_name"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_rows": 0, "max_cols": 0}
    metrics = {}
    for f in EXACTLIN:
        rec = per_name.get(f"exactlin.{f}", empty)
        for key in ("calls", "self_s", "max_rows", "max_cols"):
            metrics[f"exactlin.{f}.{key}"] = rec[key]
    for name in TIMED:
        metrics[f"{name}_s"] = per_name.get(name, empty)["total_s"]
    wanted = set(traced_ids)
    attempts = sum(
        1 for s in spans
        if s[4] in wanted and s[0] == "geom.check_realization" and s[3] is not None
        and spans[s[3]][0] == "geom.glued_realization"
    )
    metrics["geom.glued.attempts"] = attempts / max(len(traced_ids), 1)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    traced_times = [samples[i][0] for i in traced_ids]
    metrics["trace.verdict_s.p50"] = statistics.median(traced_times)
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced)
    metrics["trace.lcs_share"] = tracing.covered_share(spans, traced_ids, "lcs.")
    counts = {
        f"calls.{name}": rec["calls"] for name, rec in sorted(per_name.items()) if name != "sample"
    }
    counts.update({
        f"max_shape.{name}": [rec["max_rows"], rec["max_cols"]]
        for name, rec in sorted(per_name.items()) if rec["max_rows"]
    })
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report, result = run(args)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
