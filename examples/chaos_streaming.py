"""Fault tolerance end-to-end: chaos, degradation, crash, and recovery.

KAMEL is pitched as an *online* system, so this example stresses the
deployable wrapper the way production would: a seeded ``ChaosMonkey``
injects model failures and latency spikes while trajectories stream
through a service with a per-trajectory deadline, a write-ahead journal,
and a dead-letter quarantine. The pipeline degrades down an explicit
ladder (full beam -> reduced beam -> counting model -> linear) instead of
hanging or dropping work — then the process "crashes" mid-stream and a
second incarnation resumes from the journal without reprocessing or
losing anything.

Run with::

    python examples/chaos_streaming.py

See docs/resilience.md for the full design.
"""

import tempfile
from collections import Counter
from pathlib import Path

from repro import Kamel, KamelConfig, make_porto_like
from repro.core.streaming import StreamingConfig, StreamingImputationService
from repro.geo import Point, Trajectory
from repro.resilience import (
    ChaosConfig,
    ChaosMonkey,
    InjectedCrash,
    chaos_scope,
)

STREAM_LENGTH = 12


def main() -> None:
    dataset = make_porto_like(n_trajectories=200)
    train, test = dataset.split()
    # SLA: no impute call past 2 s.
    system = Kamel(KamelConfig(trajectory_deadline_s=2.0)).fit(train)
    print(f"offline training done: {system.repository}\n")

    workdir = Path(tempfile.mkdtemp(prefix="kamel-chaos-"))
    config = StreamingConfig(
        journal_path=str(workdir / "wal.jsonl"),
        quarantine_path=str(workdir / "dead.jsonl"),
    )
    service = StreamingImputationService(system, config)

    feed = [t.sparsify(800.0) for t in test[:STREAM_LENGTH]]
    # One poisoned input: a NaN coordinate no ladder rung can process.
    feed.insert(3, Trajectory(
        "poisoned", [Point(float("nan"), 0.0, t=0.0), Point(700.0, 100.0, t=60.0)]
    ))

    # Seeded chaos: 25% of model invocations fail, each a rung error that
    # sends its segments one rung down (to the counting rung, usually), 5%
    # get a latency spike, and the process dies on the 9th trajectory.
    monkey = ChaosMonkey(ChaosConfig(
        seed=42, failure_rate=0.25, latency_rate=0.05, latency_s=0.02, crash_after=9
    ))
    rungs: Counter = Counter()
    print("--- first incarnation (under chaos) ---")
    crashed_after = len(feed)
    with chaos_scope(monkey, system=system, service=service):
        for i, trajectory in enumerate(feed):
            try:
                for result in service.process(trajectory):
                    rungs.update(result.rung_counts)
                    flag = " DEGRADED" if result.num_degraded else ""
                    print(
                        f"{result.trajectory.traj_id:>10s}: "
                        f"{len(result.trajectory):3d} points, "
                        f"{result.num_segments} gaps{flag}"
                    )
            except InjectedCrash:
                crashed_after = i
                print(f"\n*** process killed mid-trajectory #{i} ***")
                break
    service.journal.close()

    print(f"\nchaos report: {monkey.report.to_dict()}")
    print(f"quarantined:  {[e.traj_id for e in service.quarantine.entries()]}")
    stats = service.stats
    print(
        f"survived:     {stats.trajectories_in} trajectories, "
        f"failure rate {stats.failure_rate:.1%}, "
        f"degraded rate {stats.degraded_rate:.1%}"
    )

    # --- second incarnation: same journal, no chaos, nothing lost. ---
    print("\n--- second incarnation (recovery) ---")
    service2 = StreamingImputationService(system, config)
    for result in service2.recover():
        rungs.update(result.rung_counts)
        print(f"{result.trajectory.traj_id:>10s}: replayed from journal")
    for trajectory in feed[crashed_after + 1:]:
        for result in service2.process(trajectory):
            rungs.update(result.rung_counts)
            print(f"{result.trajectory.traj_id:>10s}: processed normally")
    assert service2.journal.pending() == [], "journal must drain"

    # trajectories_in counts every accepted submission, quarantined ones
    # included — only the one killed mid-flight is missing from the first
    # incarnation, and the journal replay restores exactly it.
    submitted = len(feed)
    accounted = stats.trajectories_in + service2.stats.trajectories_in
    print(
        f"\naccounting: submitted={submitted} "
        f"processed+quarantined across both incarnations={accounted}"
    )
    assert accounted == submitted, "no trajectory may be lost"

    print("\nrung distribution (how hard the ladder worked):")
    for rung in ("full", "reduced_beam", "counting", "linear"):
        if rungs.get(rung):
            print(f"  {rung:>12s}: {rungs[rung]:3d} segments")


if __name__ == "__main__":
    main()
