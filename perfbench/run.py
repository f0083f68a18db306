"""Paper-workload benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``paper``, ``wide-rounds``, ``service``, ``sweep``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric of a traced run (0 for a layer the workload does not
exercise).  Every operation passes the correctness gate (``gate.py``); the
``attempted``/``failed`` counts of the result line are its totals.  See
README.md for what each workload measures and why.
"""

import time

STARTED = time.perf_counter()  # before any import of the program: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS/OpenMP pools would otherwise size themselves to every core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

WORKLOADS = ("paper", "wide-rounds", "service", "sweep")

#: Set-up is measured this many times per run (this process plus probes).
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and exit (used for the set-up samples)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_load_discipline(nproc: int) -> None:
    """Every pool, connection and BLAS thread count stays within ``nproc``."""
    import service_load
    import workloads

    limits = {
        "queue/pool workers": workloads.WORKERS,
        "service max_workers": service_load.SERVER_WORKERS,
        "client connections": service_load.CLIENTS,
    }
    limits.update({var: int(os.environ[var]) for var in THREAD_VARS})
    over = {name: value for name, value in limits.items() if value > nproc}
    if over:
        raise SystemExit(f"load discipline: {over} exceed nproc={nproc}")


def setup_samples(args, own: float) -> list:
    """This run's set-up time plus ``SETUP_SAMPLES - 1`` fresh-process probes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def manifest_metrics(manifest: dict, metrics: dict, trace: bool):
    """The result line's metrics: exactly the manifest's set for this mode.

    Returns (metrics by name -> (value, unit), names filled with 0).  An
    end-to-end metric must be measured by every workload; a per-layer metric
    a workload does not measure is reported as 0 in its unit.
    """
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    unknown = sorted(set(metrics) - set(wanted))
    wrong_unit = sorted(n for n, (_, unit) in metrics.items() if n in wanted and unit != wanted[n])
    missing = sorted(set(wanted) - set(metrics))
    if unknown or wrong_unit or (missing and not trace):
        raise SystemExit(f"metrics disagree with BENCHMARK.json: unknown={unknown} "
                         f"wrong unit={wrong_unit} missing={missing}")
    out = dict(metrics)
    out.update({name: (0.0, wanted[name]) for name in missing})
    return out, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    nproc = os.cpu_count() or 1
    check_load_discipline(nproc)

    import service_load
    import workloads

    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        work=root / ".perfbench_work" / str(os.getpid()), started=STARTED,
    )
    if args.setup_only:
        run = service_load.setup_probe if args.workload == "service" else workloads.setup_probe
    else:
        run = {
            "paper": workloads.paper,
            "wide-rounds": workloads.wide_rounds,
            "service": service_load.service,
            "sweep": workloads.sweep,
        }[args.workload]
    try:
        outcome = run(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    if args.setup_only:
        print(json.dumps({"setup_s": outcome}))
        return 0
    metrics = dict(outcome.metrics)
    if not ctx.trace:
        samples = setup_samples(args, outcome.setup_s)
        metrics["setup_s"] = (sorted(samples)[len(samples) // 2], "s")
        outcome.notes.append(f"setup_s samples: {[round(s, 4) for s in samples]}")
    metrics, unmeasured = manifest_metrics(manifest, metrics, ctx.trace)
    if unmeasured:
        outcome.notes.append(f"not measured on {args.workload} (reported as 0): "
                             + ", ".join(unmeasured))
    gate = outcome.gate
    for note in outcome.notes:
        print(note)
    print(f"error_rate: {gate.failed}/{gate.attempted} = {gate.error_rate:.6f}")
    for problem in gate.problems:
        print(f"gate: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
