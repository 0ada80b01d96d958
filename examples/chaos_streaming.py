"""Fault tolerance end-to-end: chaos, degradation, a crash, and replay.

KAMEL is pitched as an *online* system, so this example stresses it the
way production would, in two halves:

1. **The single-process service under chaos.** A seeded ``ChaosMonkey``
   injects model failures and latency spikes while trajectories stream
   through a ``StreamingImputationService`` with a per-trajectory
   deadline and a dead-letter quarantine. The pipeline degrades down an
   explicit ladder (full beam -> reduced beam -> counting model ->
   linear) instead of hanging or dropping work, and a poisoned input is
   quarantined, not fatal.
2. **A worker crash on the serving pool.** The same stream goes through
   a 2-worker ``ServingPool`` with write-ahead journals, and
   ``ChaosConfig(crash_after=...)`` kills shard 0's first worker mid-task.
   The pool revives the shard, the new worker replays its journal, and
   every pooled result equals an undisturbed service's.

Run with::

    python examples/chaos_streaming.py

See docs/resilience.md for the full design.
"""

import tempfile
from collections import Counter
from pathlib import Path

from repro import Kamel, make_porto_like
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.geo import Point, Trajectory
from repro.io import load_kamel, save_kamel
from repro.resilience import ChaosConfig, ChaosMonkey, Deadline, chaos_scope
from repro.resilience.journal import trajectory_to_payload
from repro.serve import ServeConfig, ServingPool

STREAM_LENGTH = 12
DEADLINE_S = 2.0
"""SLA: no trajectory is imputed past this budget."""
CRASH_AFTER = 2
"""Shard 0's first worker dies on its Nth task."""


def chaos_on_the_service(system, feed, workdir: Path) -> None:
    service = StreamingImputationService(
        system, StreamingConfig(quarantine_path=str(workdir / "dead.jsonl"))
    )
    # One poisoned input: a NaN coordinate no ladder rung can process.
    poisoned = [*feed[:3], Trajectory(
        "poisoned", [Point(float("nan"), 0.0, t=0.0), Point(700.0, 100.0, t=60.0)]
    ), *feed[3:]]

    # Seeded chaos: 25% of model invocations fail, each a rung error that
    # sends its segment one rung down, and 5% get a latency spike.
    monkey = ChaosMonkey(ChaosConfig(
        seed=42, failure_rate=0.25, latency_rate=0.05, latency_s=0.02
    ))
    rungs: Counter = Counter()
    print("--- the service under chaos ---")
    with chaos_scope(monkey, system=system):
        for trajectory in poisoned:
            for result in service.process(trajectory, Deadline.after(DEADLINE_S)):
                rungs.update(result.rung_counts)
                flag = " DEGRADED" if result.num_degraded else ""
                print(
                    f"{result.trajectory.traj_id:>10s}: "
                    f"{len(result.trajectory):3d} points, "
                    f"{result.num_segments} gaps{flag}"
                )

    stats = service.stats
    print(f"\nchaos report: {monkey.report.to_dict()}")
    print(f"quarantined:  {[e.traj_id for e in service.quarantine.entries()]}")
    print(
        f"processed:    {stats.trajectories_in} trajectories, "
        f"failure rate {stats.failure_rate:.1%}, "
        f"degraded rate {stats.degraded_rate:.1%}"
    )
    # trajectories_in counts every accepted submission, the quarantined
    # one included: nothing was dropped.
    assert stats.trajectories_in == len(poisoned), "no trajectory may be lost"
    assert stats.quarantined == 1
    assert monkey.report.total_faults > 0, "the chaos must actually happen"

    print("\nrung distribution (how hard the ladder worked):")
    for rung in ("full", "reduced_beam", "counting", "linear"):
        if rungs.get(rung):
            print(f"  {rung:>12s}: {rungs[rung]:3d} segments")


def crash_on_the_pool(model_dir: Path, feed, workdir: Path) -> None:
    # Reference: the same inputs through an undisturbed service, on the
    # same saved system the workers load.
    reference = StreamingImputationService(load_kamel(model_dir), StreamingConfig())
    expected = {
        t.traj_id: [trajectory_to_payload(r.trajectory) for r in reference.process(t)]
        for t in feed
    }

    print(f"\n--- the pool, shard 0's first worker dies on task #{CRASH_AFTER} ---")
    config = ServeConfig(
        workers=2,
        journal_dir=str(workdir / "journals"),
        worker_chaos=ChaosConfig(crash_after=CRASH_AFTER),
    )
    with ServingPool(str(model_dir), config) as pool:
        results = pool.process_all(feed, timeout=240)
    stats = pool.stats
    for traj_id in sorted(results):
        tag = "replayed from the journal" if results[traj_id]["replayed"] else "served"
        print(f"{traj_id:>10s}: shard {results[traj_id]['shard']}, {tag}")
    print(
        f"\naccounting: submitted={stats.submitted} completed={stats.completed} "
        f"worker deaths={stats.worker_deaths} replayed={stats.journal_replayed} "
        f"lost={stats.lost}"
    )
    assert stats.worker_deaths == 1, "the injected crash must fire"
    assert any(message["replayed"] for message in results.values())
    assert stats.lost == 0 and set(results) == set(expected), "nothing lost"
    assert {t: m["trips"] for t, m in results.items()} == expected, (
        "pooled results must equal the undisturbed service's"
    )
    print("pooled results == undisturbed service: yes")


def main() -> None:
    dataset = make_porto_like(n_trajectories=200)
    train, test = dataset.split()
    system = Kamel().fit(train)
    print(f"offline training done: {system.repository}\n")
    feed = [t.sparsify(800.0) for t in test[:STREAM_LENGTH]]

    with tempfile.TemporaryDirectory(prefix="kamel-chaos-") as tmp:
        workdir = Path(tmp)
        chaos_on_the_service(system, feed, workdir)
        save_kamel(system, workdir / "model")
        crash_on_the_pool(workdir / "model", feed, workdir)


if __name__ == "__main__":
    main()
