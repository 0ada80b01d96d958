"""The benchmark command.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m perf.run [--workload W] [--seed 7] [--runs N] [--out FILE]
    python -m perf.run --smoke
    python -m perf.run --compare A.json B.json

With ``--workload`` it runs that workload in this process and ends its
standard output with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``). Without (or with ``--runs N``), it runs every
workload (or that one, N times), each run in a process of its own so that
peak memory and child CPU belong to one run. See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to an installed copy: the benchmark measures the
    # checkout it sits in, or nothing.
    sys.exit(f"perf: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import spec  # noqa: E402 - needs the path set above
from perf.compare import compare_files, summarize  # noqa: E402
from perf.procs import no_stragglers  # noqa: E402
from perf.stats import request_order  # noqa: E402

SCHEMA = "kamel-perf/1"


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
    }


@contextlib.contextmanager
def _scratch(prefix: str):
    """A directory inside the checkout (the benchmark writes nowhere
    else), removed on the way out."""
    parent = ROOT / ".perf_work"
    parent.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may be using it
            parent.rmdir()


# -- one workload, in this process ------------------------------------------------


def run_workload(args: argparse.Namespace) -> dict:
    from perf import bulk, serve
    from perf.calibrate import Calibrator
    from perf.workloads import WORKLOADS, smoke, timed_setup

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    with _scratch(workload.name) as workdir, \
            Calibrator(workload.kind == "serve", workload.array_share) as calibrator:
        world, setup = timed_setup(workload, args.world_seed, workdir, calibrator)
        order = request_order(workload.feed, args.seed)
        common = dict(
            calibrator=calibrator, trace=bool(args.trace),
            seconds=0.0 if args.smoke else args.seconds,  # smoke: the three passes only
            strict=not args.smoke,
        )
        if workload.kind == "bulk":
            outcome = bulk.run(workload, world, setup, order, args.world_seed, **common)
        else:
            outcome = serve.run(
                workload, world, setup, order, args.world_seed, workdir=workdir, **common
            )
        machine = calibrator.summary()

    violations = outcome["violations"]
    attempted = outcome["attempted"]
    end_to_end = dict(outcome["end_to_end"])
    end_to_end["ops_failed_share"] = violations.count / attempted
    passes = outcome["info"]["passes"]

    layers = dict.fromkeys(spec.PER_LAYER, 0.0)
    if args.trace:
        measured = dict(outcome["layers"])
        for part in ("dataset_s", "fit_s", "feed_s", "save_s"):
            measured[f"setup.{part}"] = setup[part]
        measured["e2e.within_limit_share"] = end_to_end.get("within_limit_share", 0.0)
        measured["e2e.ops_failed_share"] = end_to_end["ops_failed_share"]
        measured["e2e.passes"] = float(len(passes))
        measured["e2e.latency_samples"] = min(p["latency_samples"] for p in passes)
        measured.update(machine)
        measured["machine.calibration"] = statistics.median([p["calibration"] for p in passes])
        measured["raw.traj_per_s"] = statistics.median(
            [workload.feed / p["raw_wall_s"] for p in passes]
        )
        unknown = sorted(set(measured) - set(layers))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        layers.update(measured)

    def entry(name: str, value: float, table: dict) -> dict:
        out = {"value": value, "unit": table[name]["unit"]}
        if passes and name in passes[0]:
            out["per_pass"] = [p[name] for p in passes]
        return out

    known = {**spec.END_TO_END, **spec.HARNESS_ONLY}
    record = {
        "schema": SCHEMA,
        "workload": workload.name,
        "why": spec.WHY[workload.name],
        "seed": args.seed,
        "world_seed": args.world_seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": bool(args.smoke),
        "sizes": dataclasses.asdict(workload),
        "environment": _environment(),
        "correct": violations.count == 0,
        "attempted": attempted,
        "failed": violations.count,
        "violations": violations.examples,
        "end_to_end": {
            name: entry(name, end_to_end[name], known)
            for name in known if name in end_to_end
        },
        "per_layer": (
            {name: entry(name, layers[name], spec.PER_LAYER) for name in layers}
            if args.trace else {}
        ),
        "setup": setup,
        "info": outcome["info"],
    }
    missing = sorted(set(spec.END_TO_END) - set(record["end_to_end"]))
    if missing:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    if args.out:
        _write_json(args.out, record)
        if outcome["spans"] is not None:
            _write_json(f"{args.out}.spans.json", {
                "columns": ["layer", "start_s", "end_s", "parent", "trajectory"],
                "rows": outcome["spans"].to_rows(),
            })
    return record


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, default=float)
        handle.write("\n")


def print_record(record: dict) -> None:
    passes = record["info"]["passes"]
    print(
        f"== {record['workload']}  seed {record['seed']}  world {record['world_seed']}  "
        f"{len(passes)} passes x {record['info']['latency_samples_per_pass']} requests"
        f"{'  [smoke]' if record['smoke'] else ''} =="
    )
    print(f"   {record['why']}")
    print(f"end-to-end (median of {len(passes)} untraced passes)")
    for name, item in record["end_to_end"].items():
        per_pass = item.get("per_pass")
        tail = "  passes " + " ".join(f"{v:.6g}" for v in per_pass) if per_pass else ""
        print(f"  {name:<22} {item['value']:>14.6g} {item['unit']:<7}{tail}")
    if record["per_layer"]:
        print("per-layer (traced pass)")
        for name, item in record["per_layer"].items():
            print(f"  {name:<36} {item['value']:>14.6g} {item['unit']}")
    anchor = record["info"].get("anchor")
    if anchor:
        found = anchor["found"]
        print(
            f"anchor (first {found['trajectories']} pool trajectories): "
            f"{found['segments']} segments, {found['linear']} linear, "
            f"{found['model_calls']} model calls"
            f" — {'matches' if found == anchor['expected'] else 'DRIFTED from'} the seed commit"
        )
    print(f"output digest {record['info']['digest']}")
    for line in record["violations"]:
        print(f"VIOLATION {line}")
    print(
        f"checks: {'ok' if record['correct'] else 'FAILED'} "
        f"({record['failed']} of {record['attempted']} operations failed)"
    )


def contract_line(record: dict) -> str:
    """The driver's result: end-to-end metrics untraced, per-layer traced."""
    chosen = record["per_layer"] if record["trace"] else {
        name: record["end_to_end"][name] for name in spec.END_TO_END
    }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": item["value"], "unit": item["unit"]}
            for name, item in chosen.items()
        },
    })


# -- every workload, each in its own process --------------------------------------


def run_all(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(spec.WHY)
    records: list[dict] = []
    status = 0
    with _scratch("records") as holder:
        for run in range(args.runs):
            for name in names:
                out = str(holder / f"{name}-{run}.json")
                command = [
                    sys.executable, str(pathlib.Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed + run),
                    "--world-seed", str(args.world_seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", out,
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, cwd=ROOT, check=False)
                status = status or done.returncode
                if os.path.exists(out):
                    with open(out) as handle:
                        records.append(json.load(handle))
                spans = f"{out}.spans.json"
                if args.out and os.path.exists(spans):
                    shutil.move(spans, f"{args.out}.{name}-{run}.spans.json")
    if args.runs > 1:
        summarize(records)
    if args.out:
        _write_json(args.out, {"schema": SCHEMA, "runs": records})
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WHY))
    parser.add_argument("--seed", type=int, default=7,
                        help="the order in which the feed pool is sent (default 7)")
    parser.add_argument("--world-seed", type=int, default=7,
                        help="city, training data, model, feed pool, arrival schedule (default 7)")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="how long to measure: 3 passes, more while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced pass and the per-layer metrics")
    parser.add_argument("--out", help="write the run record (and spans) here")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the whole set, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every check and the traced pass")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(*args.compare)
    with no_stragglers():
        if args.workload is None or args.runs > 1:
            return run_all(args)
        record = run_workload(args)
    print_record(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
