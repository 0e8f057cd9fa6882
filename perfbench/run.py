"""Benchmark of spinorminimal: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload {mesh-sphere,mesh-torus,solve} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  Each operation is timed on its own and divided by the mean time
of a fixed reference computation run just before and just after it, so
that the machine's drifting speed cancels.  The run makes whole rounds
of the seed's operation list, checks every output outside the timed
region, and prints one JSON object as its last line.  With --trace 1,
rounds alternate untraced and traced, and the per-layer metrics come
from the traced ones (spans go to perfbench/out/).  See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("SPINOR_MINIMAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
from reference import NOMINAL_REF_S, ReferenceClock  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import spinorminimal.cli, spinorminimal.acceptance")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import the package from the checkout's src/, or fail."""
    sys.path.insert(0, str(SRC))
    import spinorminimal.cli  # noqa: F401  (loads every layer module)
    mods = {name: sys.modules[f"spinorminimal.{name}"]
            for name in ("cli", "elliptic", "spinor", "moduli", "surface", "numkit", "reportio")}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"spinorminimal imported from {origin}, not from {SRC}")
    return mods


def import_in_fresh_interpreter():
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)


def quiet(fn):
    """Run fn with the program's prints captured (they are part of its cost)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn()


def run_checked(op, out):
    """None when the output passes its checks, else a one-line reason."""
    try:
        op.check(out)
        return None
    except Exception as exc:  # any failure of an operation or its check counts
        return f"{type(exc).__name__}: {exc}"


def attempt(op, runner):
    """Call the operation; an exception is its output, to fail its check."""
    try:
        return quiet(lambda: runner(op.run))
    except Exception as exc:  # the program raised: record, count as failed
        return exc


def main(argv=None):
    args = parse_args(argv)
    try:
        mods = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # fixed width, so that report paths and their byte counts repeat
    run_dir = OUT / f"run-{os.getpid():010d}"
    try:
        return benchmark(args, mods, ReferenceClock(), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def benchmark(args, mods, clock, run_dir):
    # set-up, made SETUP_REPEATS times: a fresh interpreter's import, then
    # input generation and the untimed warm-up operations
    setup_ref, setup_raw, sample_cache = [], [], {}
    for rep in range(SETUP_REPEATS):
        import_s, import_units, _ = clock.measure(import_in_fresh_interpreter,
                                                  sample_inside=False)

        def prepare():
            env = workloads.Env(out=run_dir / f"setup{rep}", seed=args.seed, modules=mods,
                                sample_cache=sample_cache)
            warm, ops = workloads.build(args.workload, env)
            return ops, [(op, attempt(op, lambda f: f())) for op in warm]
        prep_s, prep_units, (ops, warmed) = clock.measure(prepare)
        for op, out in warmed:
            reason = run_checked(op, out)
            if reason:
                raise RuntimeError(f"warm-up {op.name} failed: {reason}")
        gc.collect()
        setup_ref.append(import_units + prep_units)
        setup_raw.append(import_s + prep_s)
        if rep == 0:
            first_setup = time.perf_counter() - T_START
    setup_s = statistics.median(setup_ref) * NOMINAL_REF_S

    tracer = Tracer() if args.trace else None
    rounds = max(1, round(args.seconds / workloads.NOMINAL_ROUND_S[args.workload]))
    if tracer:
        rounds = max(2, rounds + rounds % 2)
    deadline = 3.0 * args.seconds

    norm = {op.name: [] for op in ops}
    raw = {op.name: [] for op in ops}
    traced_norm = {op.name: [] for op in ops}
    failures = {}
    attempted = failed = 0
    layer_rounds = []
    refs_before = len(clock.samples)
    loop_start = time.perf_counter()
    for r in range(rounds):
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
            clock.on_sample = tracer.exclude
            before = tracer.snapshot()
            traced_s = 0.0
        outputs = []
        for k, op in enumerate(ops):
            if traced:
                runner = lambda f, k=k: tracer.operation(r * len(ops) + k, f)
            else:
                runner = lambda f: f()
            dt, units, out = clock.measure(lambda: attempt(op, runner))
            if traced:
                traced_norm[op.name].append(units)
                traced_s += dt
            else:
                norm[op.name].append(units)
                raw[op.name].append(dt)
            outputs.append(out)
            gc.collect()
        if r == 0:
            # later passes also hold the checker's heap, so the peak is taken here
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            clock.on_sample = None
            tracer.uninstall()
            counts, self_s = tracer.snapshot()
            layer_rounds.append(({k: v - before[0][k] for k, v in counts.items()},
                                 {k: v - before[1].get(k, 0.0) for k, v in self_s.items()},
                                 traced_s))
        for op, out in zip(ops, outputs):
            attempted += 1
            reason = run_checked(op, out)
            if reason:
                failed += 1
                failures.setdefault(op.name, (reason, op.known_fault))
        if time.perf_counter() - loop_start > deadline and (tracer is None or r % 2 == 1):
            break

    unexpected = {n: v for n, v in failures.items() if not v[1]}
    for name, (reason, fault) in failures.items():
        print(f"failed {name}: {reason}" + (f" [known fault: {fault}]" if fault else ""))
    pass_ref = sum(statistics.median(v) for v in norm.values())
    refs = clock.sample_seconds(refs_before)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations x {r + 1} rounds")
    print(f"reference computation: {statistics.median(refs) * 1e3:.4f} ms "
          f"(median of {len(refs)} samples)")
    print(f"raw pass: {sum(statistics.median(v) for v in raw.values()):.4f} s; "
          f"raw set-up {statistics.median(setup_raw):.4f} s "
          f"(the first took {first_setup:.4f} s from process start)")
    for name in norm:
        print(f"  {name:28s} {statistics.median(norm[name]):12.1f} ref "
              f"{statistics.median(raw[name]):9.4f} s")

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "pass_ref": (pass_ref, "ref"),
                   "peak_rss_mb": (peak_mb, "MB")}
    else:
        traced_pass = sum(statistics.median(v) for v in traced_norm.values())
        metrics = layer_metrics(layer_rounds)
        metrics["trace.overhead"] = (traced_pass / pass_ref, "ratio")
        spans = tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv")
        print(f"spans written to {spans}")
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


COUNT_UNITS = {"surface.export_obj.bytes": "bytes", "cli.report.bytes": "bytes"}


def layer_metrics(layer_rounds):
    """Per-pass layer metrics: the median over traced rounds."""
    def med(fn):
        return statistics.median(fn(r) for r in layer_rounds)

    metrics = {}
    for name in layer_rounds[0][0]:
        # the program is deterministic: every traced pass makes the same counts
        metrics[name] = (statistics.median_low(r[0][name] for r in layer_rounds),
                         COUNT_UNITS.get(name, "count"))
    for group in LAYERS:
        if group != "cli.report":  # write_report's time counts as the cli layer's
            own = (group, "cli.report") if group == "cli" else (group,)
            metrics[f"{group}.self_s"] = (med(lambda r: sum(r[1].get(g, 0.0) for g in own)), "s")
    eval_s = metrics["elliptic.eval.self_s"][0]
    metrics["elliptic.eval.points_per_s"] = (
        metrics["elliptic.eval.points"][0] / eval_s if eval_s > 0 else 0.0, "1/s")
    metrics["trace.layer_share"] = (
        med(lambda r: sum(v for g, v in r[1].items() if g != "op") / r[2]), "fraction")
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
