"""stlmc benchmark: run one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; bench/DESIGN.md explains them. The workload runs in a
child process (bench/workload.py) with the BLAS and OpenMP thread
counts pinned so that threads never outnumber CPUs. With --trace 0 the
result holds the end-to-end metrics, among them setup_s, the median
over several fresh processes of the time from process start until the
first timed call. With --trace 1 it holds the per-module metrics of a
separate traced run. Run facts (CPUs, versions, thread count, source
revision, seed) go to stderr and, with the metrics, to
.stlmcbench/<workload>-s<seed>-trace<0|1>.json.

Only the standard library is imported here, so that thread variables
are set before numpy loads. Exit status is 0 when a result was printed,
even one that reports failed operations, and 2 when the benchmark could
not run at all.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
# one BLAS/OpenMP thread per process: perturbed-2w's two pool workers then
# fill the two CPUs, the other workloads use one, and none oversubscribes
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def source_revision():
    """The git commit when there is one, and always a digest of src/."""
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return rev, digest.hexdigest()


def run_child(argv, env, deadline):
    """Run the workload process in its own session; return its last JSON line."""
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("workload process ran out of time") from None
    finally:
        # pool workers share the session; none may outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main():
    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="stlmc benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "stlmc" / "__init__.py").is_file():
        raise BenchError("no stlmc sources under src/stlmc")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

    work = ROOT / ".stlmcbench"
    work.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=work))
    deadline = start + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        for probe in range(0 if args.trace else SETUP_PROBES):
            t0 = time.monotonic()
            ready = run_child(common + ["--workdir", str(rundir / f"setup{probe}"),
                                        "--setup-only"], env, deadline)
            setups.append(ready["ready"] - t0)
        t0 = time.monotonic()
        res = run_child(common + ["--workdir", str(rundir / "run")], env, deadline)
        setups.append(res["ready"] - t0)
        spans = rundir / "run" / "spans.json"
        if spans.exists():
            shutil.copy(spans, work / f"{args.workload}-s{args.seed}-spans.json")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    measured = dict(res["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    if set(measured) != {m["name"] for m in wanted}:
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(measured) ^ {m['name'] for m in wanted})}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    rev, digest = source_revision()
    facts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "nproc": nproc, "blas_threads": BLAS_THREADS,
             "python": res["python"], "numpy": res["numpy"], "scipy": res["scipy"],
             "git_rev": rev, "src_sha256": digest, "checks": res.get("checks"),
             "untraced": res.get("untraced"),
             "op_wall_s": res.get("wall_s"), "op_tv": res.get("tv")}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    (work / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(facts, **result), indent=2) + "\n")
    sys.stderr.write(json.dumps(facts) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(2)
