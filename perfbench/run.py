"""Benchmark for gepflow: four single-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # all workloads, one process each

A run builds the workload's inputs from --seed, then runs a fixed number of
whole passes of the workload (closed loop, one thread, BLAS pinned to one
thread) and checks every pass's outputs. The pass count is --seconds over
the workload's nominal pass time, so the timed work depends only on --seed
and --seconds, never on how fast the machine is. A fixed reference kernel
is timed before each pass and after the last; the bounded time metric is
pass time over reference time, which cancels drift in the machine's speed.

--trace 0 reports the end-to-end metrics. --trace 1 runs half the passes
untraced and then replays the same passes with every layer hooked, reports
per-layer metrics per pass, checks that the replayed outputs equal the
untraced ones and that the traced spans cover the passes, and writes the
spans to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when an output
check fails or the package cannot be imported from this checkout's src/.
"""

import os

# Before numpy loads: one BLAS thread in this process and in its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("rate_sweep", "ordering_sweep", "lemma_suite", "range_prior")
SETUP_PROBES = 12
#: a traced pass must spend at least this share of its wall time in root spans
MIN_ROOT_COVERAGE = 0.9


def import_package():
    """Import gepflow from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import gepflow
    except ImportError as exc:
        sys.exit(f"cannot import gepflow from {SRC}: {exc}")
    if not os.path.abspath(gepflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"gepflow was imported from {gepflow.__file__}, not from {SRC}")
    return gepflow


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """sha256 over src/'s Python files, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def make_stamp(args) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
            "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def setup_seconds(args, probes: int) -> list[float]:
    """Time `probes` fresh processes from start to inputs built.

    Each child reads the system-wide monotonic clock when its setup is done.
    """
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]) - start)
    return samples


def reference_seconds() -> float:
    """Wall time of a fixed kernel that uses numpy but not gepflow.

    Its mix follows the workloads': small LAPACK calls driven from Python,
    Gram products and normal draws. It is timed next to every pass, so that
    `wall_vs_ref` cancels drift in the machine's speed, which reaches +-25 %
    over minutes on a shared VM for byte-identical work.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    sym = rng.standard_normal((8, 8))
    sym = sym + sym.T
    x = rng.standard_normal((2000, 64))
    start = time.perf_counter()
    for _ in range(30_000):
        np.linalg.eigvalsh(sym)
    for _ in range(200):
        x.T @ x
    for _ in range(40):  # in small blocks, to leave peak_rss_mb alone
        rng.standard_normal(100_000)
    return time.perf_counter() - start


def pass_count(workload, seconds: float) -> int:
    """Passes in a run of `seconds`: a function of the arguments alone."""
    return max(1, round(seconds / workload.pass_s))


def run_passes(workload, inputs, passes: int, probe=None):
    """Run passes 0 .. passes-1 with the reference kernel timed before each
    pass and after the last; returns (results, walls, refs, setup samples).

    `probe(k)` times k set-ups; its SETUP_PROBES calls are spread before,
    between and after the passes, so they see the same machine as the run.
    """
    results, walls, setups = [], [], []
    per_gap = -(-SETUP_PROBES // (passes + 1))
    if probe is not None:
        setups += probe(per_gap)
    refs = [reference_seconds()]
    for index in range(passes):
        start = time.perf_counter()
        results.append(workload.run_pass(inputs, index))
        walls.append(time.perf_counter() - start)
        refs.append(reference_seconds())
        if probe is not None:
            setups += probe(per_gap)
    return results, walls, refs, setups


def relative_walls(walls, refs) -> list[float]:
    """Each pass's wall time over the mean of the reference runs just
    before and after it."""
    return [2 * w / (a + b) for w, a, b in zip(walls, refs, refs[1:])]


def metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(workload, results, walls, refs, setups) -> dict:
    """Every end-to-end metric of the run, with its unit and sample count."""
    from percentiles import latency_summary

    items = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    out = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "wall_s": metric(sum(walls) / len(walls), "s", len(walls)),
        "ref_s": metric(statistics.median(refs), "s", len(refs)),
        "wall_vs_ref": metric(statistics.fmean(relative_walls(walls, refs)), "ratio", len(walls)),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
        f"{workload.unit}_per_s": metric(items / sum(walls), "1/s", items),
        "failed_frac": metric(failed / items, "ratio", items),
    }
    latencies = [x for r in results for x in r.latencies_ms]
    for p, value in latency_summary(latencies).items():
        out[f"solve_{p}_ms"] = metric(value, "ms", len(latencies))
    if all(r.converged is not None for r in results):
        out["converged_frac"] = metric(sum(r.converged for r in results) / items, "ratio", items)
    if workload.unit == "solves":
        cos = [c for r in results for c in r.abs_cos]
        if cos:
            out["mean_abs_cos"] = metric(statistics.fmean(cos), "1", len(cos))
    return out


def print_passes(label: str, results, walls) -> None:
    for i, (r, wall) in enumerate(zip(results, walls)):
        gates = " ".join(f"{k}={'PASS' if v else 'FAIL'}" for k, v in r.gates.items())
        notes = " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in r.notes.items()
        )
        print(f"# {label} pass {i}: {wall:.4f} s, {r.items} items, {r.failed} failed "
              f"{gates} {notes}".rstrip())


def run_one(args) -> int:
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    stamp = make_stamp(args)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    passes = pass_count(workload, args.seconds / 2 if args.trace else args.seconds)
    probe = None if args.trace else (lambda k: setup_seconds(args, k))
    results, walls, refs, setups = run_passes(workload, inputs, passes, probe)
    print_passes("untraced", results, walls)
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)

    if not args.trace:
        e2e = end_to_end(workload, results, walls, refs, setups)
        for name, m in e2e.items():
            print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            reported = [m["name"] for m in json.load(fh)["end_to_end"]]
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in reported}
    else:
        import tracing

        tracer = tracing.Tracer()
        hooks = tracing.install(tracer)
        try:
            traced, traced_walls, traced_refs, _ = run_passes(workload, inputs, passes)
        finally:
            hooks.restore()
        print_passes("traced", traced, traced_walls)
        layers, absent, layer_self = tracing.layer_metrics(tracer, hooks.present, passes)
        mean_wall = sum(traced_walls) / passes
        coverage = tracing.root_seconds(tracer, workload.roots) / sum(traced_walls)
        checks = {
            "outputs_match_untraced": all(
                t.fingerprint == r.fingerprint for t, r in zip(traced, results)
            ),
            "layer_self_within_wall": sum(layer_self.values()) <= mean_wall,
        }
        # A call the wrappers miss leaves its time outside the root spans. A
        # root whose hook target is gone is reported absent instead.
        if set(workload.roots) <= hooks.present:
            checks["root_spans_cover_wall"] = coverage >= MIN_ROOT_COVERAGE
        layers["trace.overhead_frac"] = (
            statistics.fmean(relative_walls(traced_walls, traced_refs))
            / statistics.fmean(relative_walls(walls, refs)) - 1.0,
            "ratio",
        )
        layers["trace.hooks_absent"] = (len(hooks.absent), "count")
        for name, (value, unit) in layers.items():
            print(f"{name} = {value:.6g} {unit} (per pass, n={passes})")
        for name in absent:
            print(f"{name} = absent (hook target missing)")
        for target in hooks.absent:
            print(f"# hook target missing: {target}")
        selfs = " ".join(f"{k}={v:.4g}" for k, v in sorted(layer_self.items()))
        print(f"# layer self s per pass: {selfs}; traced wall_s per pass {mean_wall:.4g}; "
              f"root spans {'+'.join(workload.roots)} cover {coverage:.4f} of it")
        for name, ok in checks.items():
            print(f"# trace check {name}={'PASS' if ok else 'FAIL'}")
        attempted += sum(r.items for r in traced)
        failed += sum(r.items if not all(checks.values()) else r.failed for r in traced)
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"), stamp)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = out.stdout.rstrip("\n").splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        code = code or out.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return out.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
