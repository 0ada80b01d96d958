"""Command-line interface: run comparisons and regenerate paper figures.

Examples::

    kamel compare --dataset porto --sparseness 800
    kamel figure fig9
    kamel figure fig12-ablation --full
    kamel list-figures
    kamel impute --train train.csv --input sparse.csv --output dense.csv

Observability flags (global, before the subcommand)::

    kamel --log-level DEBUG --metrics-out run.json compare --dataset porto
    kamel stats run.json          # summarize a saved metrics snapshot

Telemetry export::

    kamel trace --export chrome -o trace.json -- compare --dataset porto
    kamel trace --export jsonl -- figure fig9  # one span tree per line

Comparing two runs (timings are compared by ``perf/run.py``, see
perf/README.md)::

    kamel stats before.json after.json         # delta of two --metrics-out snapshots

Sharded serving (see docs/serving.md; the pool is measured by
``perf/run.py --workload serve_flood|serve_paced``)::

    kamel serve --demo --workers 4 --metrics-port 9101
    kamel serve --model-dir saved/ --input sparse.jsonl --output dense.jsonl
    kamel serve --demo --max-queue-depth 16 --request-deadline-ms 2000

Tail-latency attribution (see docs/observability.md)::

    kamel tail http://127.0.0.1:9101/slow  # p50/p99 stage table of a live pool
    kamel tail flight.json                 # same, from a saved /slow payload
    kamel trace --from flight.json --trace-id 4f2a... --export text
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.errors import ConfigError, KamelError
from repro.eval.figures import ALL_FIGURES, Scale, jakarta_workload, porto_workload
from repro.eval.harness import ExperimentRunner
from repro.eval.report import render_table
from repro.obs import configure_logging, get_registry


def _cmd_list_figures(_: argparse.Namespace) -> int:
    for name, fn in ALL_FIGURES.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name:24s} {doc}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in ALL_FIGURES:
        print(f"unknown figure {args.name!r}; try `kamel list-figures`", file=sys.stderr)
        return 2
    scale = Scale.full() if args.full else Scale.small()
    result = ALL_FIGURES[args.name](scale)
    print(json.dumps(result, indent=2, default=float))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scale = Scale.full() if args.full else Scale.small()
    if args.dataset == "porto":
        workload = porto_workload(scale)
    else:
        workload = jakarta_workload(scale)
    workload = workload.with_sparseness(args.sparseness)
    if args.delta is not None:
        workload = workload.with_delta(args.delta)
    runner = ExperimentRunner(workload)
    rows = []
    for method in args.methods:
        scores = runner.run_default(method)
        rows.append(
            [
                method,
                f"{scores.scores.recall:.3f}",
                f"{scores.scores.precision:.3f}",
                f"{scores.scores.failure_rate:.3f}",
                f"{scores.train_time_s:.2f}",
                f"{scores.impute_time_s:.2f}",
            ]
        )
    print(
        render_table(
            ["method", "recall", "precision", "failure", "train_s", "impute_s"], rows
        )
    )
    return 0


def _cmd_impute(args: argparse.Namespace) -> int:
    from repro.core.config import KamelConfig
    from repro.core.kamel import Kamel
    from repro.geo.adapter import projection_for, trajectory_from_latlon
    from repro.io.csvio import imputed_point_flags, read_latlon_csv, write_latlon_csv

    config = KamelConfig(cell_edge_m=args.cell_size, maxgap_m=args.maxgap)
    logs = []
    for path in (args.train, args.input):
        try:
            logs.append(read_latlon_csv(path))
        except (OSError, KamelError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    train_logs, sparse_logs = logs
    all_records = [r for _, records in train_logs for r in records]
    projection = projection_for(all_records)

    train = [
        trajectory_from_latlon(tid, records, projection) for tid, records in train_logs
    ]
    sparse = [
        trajectory_from_latlon(tid, records, projection) for tid, records in sparse_logs
    ]

    system = Kamel(config).fit(train)
    results = system.impute_batch(sparse)

    dense = [r.trajectory for r in results]
    flags = [imputed_point_flags(s, d) for s, d in zip(sparse, dense)]
    write_latlon_csv(args.output, dense, projection, flags)

    segments = sum(r.num_segments for r in results)
    failed = sum(r.num_failed for r in results)
    inserted = sum(sum(f) for f in flags)
    print(
        f"imputed {len(sparse)} trajectories: inserted {inserted} points, "
        f"{failed}/{segments} segments fell back to a straight line"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import figure_to_markdown

    scale = Scale.full() if args.full else Scale.small()
    names = args.figures or list(ALL_FIGURES)
    # Every name is checked before any figure runs: a typo must not cost
    # the figures ahead of it.
    unknown = [name for name in names if name not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure {unknown[0]!r}; try `kamel list-figures`", file=sys.stderr)
        return 2
    sections = ["# Reproduction report", ""]
    for name in names:
        result = ALL_FIGURES[name](scale)
        sections.append(figure_to_markdown(name, result))
    report = "\n".join(sections)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def _histogram_row(name: str, data: dict) -> list[str]:
    quantiles = data.get("quantiles") or {}

    def fmt(value) -> str:
        return f"{value:.6g}" if isinstance(value, (int, float)) else "-"

    return [
        name,
        str(data.get("count", 0)),
        fmt(data.get("mean")),
        fmt(quantiles.get("p50")),
        fmt(quantiles.get("p90")),
        fmt(quantiles.get("p99")),
        fmt(data.get("max")),
    ]


def render_stats(snapshot: dict) -> str:
    """A two-part summary table for a metrics snapshot (see ``kamel stats``)."""
    sections: list[str] = []
    scalars = [
        [name, f"{data['value']:.6g}", data["type"]]
        for name, data in sorted(snapshot.items())
        if data.get("type") in ("counter", "gauge")
    ]
    if scalars:
        sections.append(render_table(["metric", "value", "type"], scalars))
    histograms = [
        _histogram_row(name, data)
        for name, data in sorted(snapshot.items())
        if data.get("type") == "histogram" and data.get("count")
    ]
    if histograms:
        sections.append(
            render_table(
                ["histogram", "count", "mean", "p50", "p90", "p99", "max"], histograms
            )
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def _is_metric(entry) -> bool:
    if not isinstance(entry, dict):
        return False
    if entry.get("type") in ("counter", "gauge"):
        return isinstance(entry.get("value"), (int, float))
    return entry.get("type") == "histogram"


def _load_snapshot_or_fail(path: str):
    """Read a ``--metrics-out`` snapshot, or print why it can't be used and
    return None.

    ``kamel stats`` funnels every user-supplied file through here, so a
    missing file, malformed JSON, or JSON of some other shape (a perf run
    record, ``BENCHMARK.json``) is a one-line error and a non-zero exit,
    not a traceback.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read snapshot {path!r}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:  # includes json.JSONDecodeError
        print(f"error: {path!r} is not a valid snapshot: {exc}", file=sys.stderr)
        return None
    if not (isinstance(doc, dict) and all(map(_is_metric, doc.values()))):
        print(
            f"error: {path!r} is not a valid snapshot: expected the "
            "--metrics-out document, {name: {\"type\": counter|gauge|histogram, ...}}",
            file=sys.stderr,
        )
        return None
    return doc


def _flat_values(snapshot: dict) -> dict[str, float]:
    """Counters and gauges by name; a histogram that observed anything as
    dotted ``.count`` / ``.mean`` / ``.p50`` / ``.p90`` / ``.p99`` leaves."""
    flat: dict[str, float] = {}
    for name, data in snapshot.items():
        if data["type"] != "histogram":
            flat[name] = data["value"]
        elif data.get("count"):
            leaves = {"count": data["count"], "mean": data.get("mean")}
            leaves.update(data.get("quantiles") or {})
            for leaf, value in leaves.items():
                if isinstance(value, (int, float)):
                    flat[f"{name}.{leaf}"] = value
    return flat


def render_delta(a: dict, b: dict) -> str:
    """Every metric of two snapshots side by side (see ``kamel stats A B``);
    a name only one side recorded reads ``added`` / ``removed``."""
    left, right = _flat_values(a), _flat_values(b)
    rows = []
    for name in sorted(left.keys() | right.keys()):
        if name not in left:
            rows.append([name, "-", f"{right[name]:.6g}", "added", "-"])
        elif name not in right:
            rows.append([name, f"{left[name]:.6g}", "-", "removed", "-"])
        else:
            delta = right[name] - left[name]
            pct = f"{delta / abs(left[name]) * 100.0:+.1f}%" if left[name] else "-"
            rows.append(
                [name, f"{left[name]:.6g}", f"{right[name]:.6g}", f"{delta:+.6g}", pct]
            )
    if not rows:
        return "(no metrics recorded)"
    return render_table(["metric", "a", "b", "delta", "delta %"], rows)


def _cmd_stats(args: argparse.Namespace) -> int:
    files = args.metrics_json or []
    if len(files) > 2:
        print("kamel stats takes at most two snapshot files", file=sys.stderr)
        return 2
    docs = []
    for path in files:
        doc = _load_snapshot_or_fail(path)
        if doc is None:
            return 2
        docs.append(doc)
    if docs:
        print(render_delta(*docs) if len(docs) == 2 else render_stats(docs[0]))
        return 0
    if args.catalog:
        from repro.obs import METRIC_CATALOG

        print(
            render_table(
                ["metric", "meaning"],
                [[name, desc] for name, desc in sorted(METRIC_CATALOG.items())],
            )
        )
        return 0
    # No file: summarize whatever this process recorded (useful when
    # embedding the CLI; a fresh process has nothing yet).
    print(render_stats(get_registry().snapshot()))
    return 0


def _load_trace_roots(path: str) -> list:
    """Span trees from a file: a flight payload (a saved ``/slow``), a
    single span-tree JSON object, or span JSONL."""
    from repro.obs import Span

    with open(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None  # more than one document: span JSONL, parsed below
    if isinstance(doc, dict):
        if "slowest" in doc:
            return [
                Span.from_dict(span_dict)
                for record in doc["slowest"]
                for span_dict in record.get("spans") or []
            ]
        if "traceEvents" in doc:
            raise ValueError(
                "chrome trace-event files flatten the span trees; "
                "use a flight payload (a saved /slow) or a jsonl export"
            )
        return [Span.from_dict(doc)]
    return [
        Span.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a subcommand with tracing on (or load an existing export),
    filter by trace id if asked, then export the span trees."""
    from repro.obs import clear_spans, enable_tracing, finished_spans
    from repro.obs.export import chrome_trace_json, spans_to_jsonl

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    rc = 0
    if args.from_file:
        try:
            roots = _load_trace_roots(args.from_file)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load spans from {args.from_file}: {exc}", file=sys.stderr)
            return 2
    else:
        if not rest:
            print(
                "usage: kamel trace [--export chrome|jsonl|text] [-o PATH] "
                "[--trace-id ID] -- <command ...>\n"
                "       kamel trace --from flight.json [--trace-id ID]",
                file=sys.stderr,
            )
            return 2
        nested = build_parser().parse_args(rest)
        enable_tracing()
        clear_spans()
        rc = nested.func(nested)
        roots = finished_spans()
    if args.trace_id:
        roots = [
            root
            for root in roots
            if any(s.trace_id == args.trace_id for s in root.walk())
        ]
        if not roots:
            print(
                f"no span trees carry trace id {args.trace_id}", file=sys.stderr
            )
            return rc or 1
    if args.export == "chrome":
        rendered = chrome_trace_json(roots) + "\n"
    elif args.export == "jsonl":
        rendered = spans_to_jsonl(roots)
    else:
        rendered = "\n".join(root.render() for root in roots) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print(
            f"wrote {len(roots)} span tree(s) to {args.output} "
            f"({args.export} format)",
            file=sys.stderr,
        )
    else:
        print(rendered, end="")
    return rc


def _load_flight_payload(source: str) -> dict:
    """A flight-recorder payload from a file or a live ``/slow`` route."""
    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        url = source
        if not url.rstrip("/").endswith("/slow"):
            url = url.rstrip("/") + "/slow"
        with urlopen(url) as response:
            return json.loads(response.read().decode("utf-8"))
    with open(source) as handle:
        return json.load(handle)


def _format_stage_ms(value) -> str:
    return f"{float(value) * 1000.0:.1f}" if value is not None else "-"


def _cmd_tail(args: argparse.Namespace) -> int:
    """Render a flight-recorder payload: the p50/p99 stage-attribution
    table plus the slowest retained requests."""
    from repro.obs.flight import STAGES

    if args.slowest < 0:
        raise ConfigError(f"--slowest must be >= 0, got {args.slowest}")
    try:
        payload = _load_flight_payload(args.source)
    except (OSError, ValueError) as exc:
        print(
            f"error: cannot read flight payload from {args.source}: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, default=float))
        return 0
    stages = payload.get("stages") or {}
    slowest = payload.get("slowest") or []
    print(
        f"flight recorder: {payload.get('recorded_total', 0)} requests recorded, "
        f"{len(slowest)} retained (capacity {payload.get('capacity', '?')})"
    )
    ordered = [s for s in STAGES if s in stages]
    ordered += sorted(s for s in stages if s not in STAGES)
    rows = []
    for stage in ordered:
        row = stages[stage] or {}
        rows.append(
            [
                stage,
                str(row.get("count", 0)),
                _format_stage_ms(row.get("mean")),
                _format_stage_ms(row.get("p50")),
                _format_stage_ms(row.get("p99")),
                _format_stage_ms(row.get("max")),
                str(row.get("exemplar_trace_id", "-")),
            ]
        )
    if rows:
        print(
            render_table(
                ["stage", "count", "mean ms", "p50 ms", "p99 ms", "max ms", "worst trace"],
                rows,
            )
        )
    if slowest:
        print()
        srows = [
            [
                str(record.get("trace_id", "?")),
                str(record.get("traj_id", "?")),
                f"{float(record.get('latency_s') or 0.0) * 1000.0:.1f}",
                str(record.get("dominant_stage", "?")),
                str(record.get("shard", "-")),
                str(record.get("error") or ""),
            ]
            for record in slowest[: args.slowest]
        ]
        print(
            render_table(
                ["trace", "trajectory", "latency ms", "dominant stage", "shard", "error"],
                srows,
            )
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.io import load_kamel

    system = load_kamel(args.model_dir)
    repo = system.repository
    rows = [
        ["backend", system.config.model_backend],
        ["grid", f"{system.config.grid_type} ({system.tokenizer.grid.edge_length_m:.0f} m)"],
        ["vocabulary", str(len(system.tokenizer.vocabulary))],
        ["stored trajectories", str(len(system.store))],
        ["stored tokens", str(system.store.total_tokens)],
        ["max speed (m/s)", f"{system.max_speed_mps:.1f}" if system.max_speed_mps else "-"],
        ["gap threshold (m)", f"{system.gap_threshold_m:.0f}" if system.gap_threshold_m else "-"],
        ["detokenizer cells", str(system.detokenizer.num_cells)],
    ]
    if system._global_model is not None:
        rows.append(["global model tokens", str(system._global_model.num_training_tokens)])
    num_models = repo.num_models if repo is not None else 0
    if num_models:
        stats = repo.stats()
        rows.append(["models", str(num_models)])
        rows.append(["single-cell models", str(stats.single_models)])
        rows.append(["neighbor-cell models", str(stats.neighbor_models)])
        rows.append(["distinct models", str(stats.distinct_models)])
        rows.append(
            ["models per level", ", ".join(f"L{k}: {v}" for k, v in sorted(stats.models_per_level.items()))]
        )
        rows.append(["model rebuilds", str(stats.rebuilds)])
    elif system.config.use_partitioning:
        rows.append(
            ["models", "0 — every lookup will miss and fall to the fallback rung"]
        )
    else:
        rows.append(["models", "0 (use_partitioning off: the global model answers)"])
    print(render_table(["property", "value"], rows))
    return 0


def _is_point(value) -> bool:
    """An ``[x, y, t]`` triple of numbers (``t`` may be null)."""
    return (
        isinstance(value, list)
        and len(value) == 3
        and all(isinstance(v, (int, float)) for v in value[:2])
        and (value[2] is None or isinstance(value[2], (int, float)))
    )


def _serve_feed(args: argparse.Namespace) -> list:
    """The trajectories ``kamel serve`` will drive through the pool.

    ``--input`` JSONL wins (one journal-style payload per line:
    ``{"traj_id": ..., "points": [[x, y, t], ...]}``); a line that is not
    such a payload is a :class:`ConfigError` naming the file and line.
    Otherwise a demo feed is simulated over the training city.
    """
    from repro.resilience.journal import trajectory_from_payload

    if args.input:
        feed, first_line = [], {}
        with open(args.input) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{args.input}:{number}"
                try:
                    payload = json.loads(line)
                except ValueError:
                    raise ConfigError(f"{where}: not JSON") from None
                if not isinstance(payload, dict) or not {"traj_id", "points"} <= payload.keys():
                    raise ConfigError(f"{where}: a payload needs traj_id and points")
                points = payload["points"]
                if not isinstance(points, list) or not all(map(_is_point, points)):
                    raise ConfigError(f"{where}: points must be [x, y, t] triples")
                trajectory = trajectory_from_payload(payload)
                # The pool answers one result per id: a repeat would be
                # refused in flight, or replace the first one's result.
                seen = first_line.setdefault(trajectory.traj_id, number)
                if seen != number:
                    raise ConfigError(
                        f"{where}: traj_id {trajectory.traj_id!r} repeats line {seen}"
                    )
                feed.append(trajectory)
        return feed
    from repro.roadnet import SimulatorConfig, TrajectorySimulator
    from repro.roadnet.datasets import make_porto_like

    dataset = make_porto_like(
        n_trajectories=args.train_trajectories, seed=args.seed
    )
    simulator = TrajectorySimulator(
        dataset.network,
        SimulatorConfig(sample_interval_s=15.0, seed=args.seed + 101),
    )
    dense = simulator.simulate(args.trajectories, id_prefix="demo")
    return [t.sparsify(args.sparseness) for t in dense]


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a batch through the sharded multi-process serving pool."""
    import pathlib
    import signal
    import tempfile

    from repro.serve import ServeConfig, ServingPool

    def _on_sigterm(signum, frame):
        # Fold SIGTERM into the KeyboardInterrupt path so `kill <pid>`
        # gets the same orderly teardown as Ctrl-C: poison pills, join,
        # escalate — no orphan workers, no stale journal locks.
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)

    if not args.demo and not args.model_dir:
        print("kamel serve needs --model-dir or --demo", file=sys.stderr)
        return 2
    if not args.demo and not args.input:
        print(
            "kamel serve needs --input JSONL (or --demo for synthetic traffic)",
            file=sys.stderr,
        )
        return 2
    cleanup: Optional[tempfile.TemporaryDirectory] = None
    try:
        # Bad flags and a bad --input fail here, before a demo system is
        # trained.
        config = ServeConfig(
            workers=args.workers,
            lru_capacity=args.lru_capacity,
            journal_dir=args.journal_dir,
            metrics_port=args.metrics_port,
            max_queue_depth=args.max_queue_depth,
            request_deadline_s=(
                args.request_deadline_ms / 1000.0
                if args.request_deadline_ms is not None
                else None
            ),
        )
        feed = _serve_feed(args)
        if not feed:
            print("error: nothing to serve (empty input)", file=sys.stderr)
            return 2
        model_dir = args.model_dir
        if model_dir is None:
            from repro.core.config import KamelConfig
            from repro.core.kamel import Kamel
            from repro.io.serialize import save_kamel
            from repro.roadnet.datasets import make_porto_like

            print("training the demo serving system ...", file=sys.stderr)
            cleanup = tempfile.TemporaryDirectory(prefix="kamel-serve-")
            dataset = make_porto_like(
                n_trajectories=args.train_trajectories, seed=args.seed
            )
            train, _ = dataset.split(seed=1)
            system = Kamel(KamelConfig(max_model_calls=600)).fit(train)
            model_dir = str(pathlib.Path(cleanup.name) / "model")
            save_kamel(system, model_dir)
            del system  # workers load their own lazy copies

        pool = ServingPool(model_dir, config)
        print(
            f"serving {len(feed)} trajectories across {args.workers} "
            "worker(s) ...",
            file=sys.stderr,
        )
        try:
            pool.start()
            if pool.metrics_server is not None:
                print(
                    f"pool telemetry on {pool.metrics_server.url} "
                    f"({', '.join(pool.metrics_server.routes)})",
                    file=sys.stderr,
                )
            results = pool.process_all(feed, timeout=args.timeout)
        except KeyboardInterrupt:
            print(
                "\ninterrupted: draining and shutting the pool down ...",
                file=sys.stderr,
            )
            return 130
        finally:
            pool.stop()
        if args.output:
            with open(args.output, "w") as handle:
                for traj_id in sorted(results):
                    message = results[traj_id]
                    handle.write(
                        json.dumps(
                            {
                                "traj_id": traj_id,
                                "shard": message["shard"],
                                "trips": message["trips"],
                                "segments": message["segments"],
                                "failed": message["failed"],
                                "degraded": message["degraded"],
                                "error": message["error"],
                            },
                            default=float,
                        )
                        + "\n"
                    )
            print(f"wrote {len(results)} results to {args.output}", file=sys.stderr)
        stats = pool.stats
        rows = [
            ["trajectories submitted", str(stats.submitted)],
            ["trajectories completed", str(stats.completed)],
            ["trajectories shed", str(stats.shed)],
            ["trajectories expired", str(stats.expired)],
            ["trajectories lost", str(stats.lost)],
            ["duplicate results", str(stats.duplicates)],
            ["segments imputed", str(stats.segments)],
            ["segments failed", str(stats.failed_segments)],
            ["worker deaths", str(stats.worker_deaths)],
            ["journal replayed", str(stats.journal_replayed)],
            *[
                [f"rung: {name}", str(count)]
                for name, count in sorted(stats.rungs.items())
            ],
        ]
        print(render_table(["property", "value"], rows))
        if stats.lost:
            print(f"ERROR: {stats.lost} trajectories lost", file=sys.stderr)
            return 1
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        if cleanup is not None:
            cleanup.cleanup()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kamel",
        description="KAMEL reproduction: trajectory imputation experiments",
    )
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        default=None,
        help="enable structured logging at this level",
    )
    parser.add_argument(
        "--log-format",
        choices=("kv", "json"),
        default="kv",
        help="structured log line format (default: key=value)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics-registry JSON snapshot here on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-figures", help="list reproducible paper figures")
    p_list.set_defaults(func=_cmd_list_figures)

    p_fig = sub.add_parser("figure", help="run one paper figure, print JSON series")
    p_fig.add_argument("name", help="figure id, e.g. fig9 (see list-figures)")
    p_fig.add_argument("--full", action="store_true", help="full-scale run (slow)")
    p_fig.set_defaults(func=_cmd_figure)

    p_cmp = sub.add_parser("compare", help="compare methods on one workload")
    p_cmp.add_argument("--dataset", choices=("porto", "jakarta"), default="porto")
    p_cmp.add_argument("--sparseness", type=float, default=800.0, help="imposed gap (m)")
    p_cmp.add_argument("--delta", type=float, default=None, help="accuracy threshold (m)")
    p_cmp.add_argument(
        "--methods",
        nargs="+",
        default=["KAMEL", "TrImpute", "Linear", "MapMatch"],
        choices=["KAMEL", "TrImpute", "Linear", "MapMatch"],
    )
    p_cmp.add_argument("--full", action="store_true")
    p_cmp.set_defaults(func=_cmd_compare)

    p_imp = sub.add_parser(
        "impute", help="train on a CSV of GPS fixes and impute another"
    )
    p_imp.add_argument("--train", required=True, help="training CSV (traj_id,lat,lon,t)")
    p_imp.add_argument("--input", required=True, help="sparse CSV to impute")
    p_imp.add_argument("--output", required=True, help="dense CSV to write")
    p_imp.add_argument("--cell-size", type=float, default=75.0, help="hexagon edge (m)")
    p_imp.add_argument("--maxgap", type=float, default=100.0, help="maxgap (m)")
    p_imp.set_defaults(func=_cmd_impute)

    p_rep = sub.add_parser("report", help="regenerate figures as a markdown report")
    p_rep.add_argument("--figures", nargs="*", help="figure ids (default: all)")
    p_rep.add_argument("--output", help="write to a file instead of stdout")
    p_rep.add_argument("--full", action="store_true")
    p_rep.set_defaults(func=_cmd_report)

    p_ins = sub.add_parser("inspect", help="summarize a saved model directory")
    p_ins.add_argument("model_dir", help="directory written by Kamel.save()")
    p_ins.set_defaults(func=_cmd_inspect)

    p_serve = sub.add_parser(
        "serve",
        help="run a batch through the sharded multi-worker serving pool",
    )
    p_serve.add_argument(
        "--model-dir", default=None, help="directory written by Kamel.save()"
    )
    p_serve.add_argument(
        "--demo",
        action="store_true",
        help="train a synthetic system and feed instead of --model-dir/--input",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="worker processes (default 2)"
    )
    p_serve.add_argument(
        "--lru-capacity", type=int, default=64,
        help="resident models per worker (default 64)",
    )
    p_serve.add_argument(
        "--input", default=None,
        help="JSONL of trajectory payloads to impute "
        '({"traj_id": ..., "points": [[x, y, t], ...]})',
    )
    p_serve.add_argument(
        "--output", default=None, help="write result JSONL here"
    )
    p_serve.add_argument(
        "--journal-dir", default=None,
        help="per-shard write-ahead journals (enables crash recovery)",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve aggregated /metrics + /healthz + /slow here (0 = ephemeral)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="overall drain deadline in seconds (default: pool config)",
    )
    p_serve.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="bound each shard's outstanding work; a full shard sheds new "
        "work (default: unbounded)",
    )
    p_serve.add_argument(
        "--request-deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline; expired-in-queue tasks are dropped",
    )
    p_serve.add_argument(
        "--trajectories", type=int, default=40,
        help="demo feed size (with --demo; default 40)",
    )
    p_serve.add_argument(
        "--train-trajectories", type=int, default=120,
        help="demo training set size (with --demo; default 120)",
    )
    p_serve.add_argument(
        "--sparseness", type=float, default=800.0, help="demo imposed gap (m)"
    )
    p_serve.add_argument("--seed", type=int, default=7, help="demo RNG seed")
    p_serve.set_defaults(func=_cmd_serve)

    p_trc = sub.add_parser(
        "trace",
        help="run a subcommand with tracing on, export spans (Perfetto/JSONL)",
    )
    p_trc.add_argument(
        "--export",
        choices=("chrome", "jsonl", "text"),
        default="chrome",
        help="chrome = trace-event JSON loadable in Perfetto (default)",
    )
    p_trc.add_argument("--output", "-o", default=None, help="write here instead of stdout")
    p_trc.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="export only span trees carrying this request id "
        "(e.g. an exemplar from 'kamel tail')",
    )
    p_trc.add_argument(
        "--from", dest="from_file", default=None, metavar="PATH",
        help="load span trees from a file (flight payload JSON or span "
        "JSONL) instead of running a command",
    )
    p_trc.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        metavar="command ...",
        help="the kamel subcommand to run traced, e.g. -- compare --dataset porto",
    )
    p_trc.set_defaults(func=_cmd_trace)

    p_tail = sub.add_parser(
        "tail",
        help="p50/p99 stage-attribution table from a flight recorder "
        "(file or live /slow route)",
    )
    p_tail.add_argument(
        "source",
        help="flight payload: a JSON file (a saved /slow response) or a "
        "pool URL, e.g. http://127.0.0.1:9101/slow",
    )
    p_tail.add_argument(
        "--slowest", type=int, default=10, metavar="N",
        help="slow-request rows to print (default 10)",
    )
    p_tail.add_argument("--json", action="store_true", help="print the raw payload")
    p_tail.set_defaults(func=_cmd_tail)

    p_sts = sub.add_parser(
        "stats", help="summarize a metrics snapshot (from --metrics-out)"
    )
    p_sts.add_argument(
        "metrics_json",
        nargs="*",
        help="snapshot file; two files print a side-by-side delta table; "
        "omit for this process's registry",
    )
    p_sts.add_argument(
        "--catalog", action="store_true", help="list every known metric and its meaning"
    )
    p_sts.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        configure_logging(level=args.log_level, fmt=args.log_format)
    epilogue_rc = 0
    try:
        rc = args.func(args)
    except KamelError as exc:
        # A bad flag value, unusable input or an unloadable model
        # directory, from any verb: one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        rc = 2
    finally:
        # Snapshots are written even when the subcommand raised, but
        # an unwritable --metrics-out path must be a clean non-zero exit,
        # not a traceback out of a finally block.
        if args.metrics_out:
            try:
                get_registry().write_json(args.metrics_out)
                print(
                    f"wrote metrics snapshot to {args.metrics_out}", file=sys.stderr
                )
            except OSError as exc:
                print(
                    f"error: cannot write metrics snapshot to "
                    f"{args.metrics_out!r}: {exc}",
                    file=sys.stderr,
                )
                epilogue_rc = 2
    return epilogue_rc or rc


if __name__ == "__main__":
    raise SystemExit(main())
