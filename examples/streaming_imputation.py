"""Online mode: impute an incoming stream of sparse trajectories.

KAMEL "receives data either in bulk offline mode or as a stream of
incoming trajectories" (paper Section 2). This example simulates a live
feed: trips arrive one at a time, each is imputed on arrival using the
models trained offline, and running statistics are reported — no
retraining happens on the hot path, which is what makes the imputation
side scale.

Beside the service runs a live telemetry endpoint (Prometheus
``/metrics``, JSON ``/healthz``, Chrome-trace ``/spans``) over the
process's metrics registry; at the end of the stream this script scrapes
it once and checks that the failure rate read off the exported counters
is the one the service counted, so running it doubles as an endpoint
smoke test.

Run with::

    python examples/streaming_imputation.py
"""

import itertools
import time
import urllib.request

from repro import Kamel, KamelConfig, make_porto_like
from repro.core.streaming import StreamingImputationService
from repro.obs.server import ObservabilityServer
from repro.roadnet import TrajectorySimulator, SimulatorConfig

STREAM_LENGTH = 15


def main() -> None:
    dataset = make_porto_like(n_trajectories=300)
    train, _ = dataset.split()
    system = Kamel(KamelConfig()).fit(train)
    print(f"offline training done: {system.repository}\n")

    # The deployable wrapper: cleaning chain + per-trip imputation; and
    # the telemetry endpoint, on an ephemeral localhost port.
    service = StreamingImputationService(system)
    server = ObservabilityServer(port=0).start()
    print(f"telemetry endpoint: {server.url}/metrics\n")

    # A live feed of new trips over the same (hidden) road network,
    # sparsified the way a low-power tracker would report them.
    feed_sim = TrajectorySimulator(
        dataset.network,
        SimulatorConfig(sample_interval_s=15.0, min_trip_length_m=900.0, seed=999),
    )
    feed = (t.sparsify(800.0) for t in feed_sim.stream(id_prefix="live"))

    t0 = time.perf_counter()
    for trajectory in itertools.islice(feed, STREAM_LENGTH):
        for result in service.process(trajectory):
            print(
                f"{result.trajectory.traj_id:>8s}: -> {len(result.trajectory):3d} points, "
                f"{result.num_segments} gaps, {result.num_failed} fallbacks"
            )
    elapsed = time.perf_counter() - t0

    stats = service.stats
    print(
        f"\nstream summary: {stats.trajectories_in} trajectories in {elapsed:.2f}s "
        f"({elapsed / max(1, stats.trajectories_in) * 1000:.0f} ms each)"
    )
    print(
        f"points {stats.points_in} -> {stats.points_out}; "
        f"failure rate {stats.failure_rate:.1%}; degraded rate {stats.degraded_rate:.1%}"
    )

    # Scrape our own endpoint once — exactly what a Prometheus job would do.
    with urllib.request.urlopen(f"{server.url}/metrics") as response:
        exposition = response.read().decode("utf-8")
    interesting = (
        "repro_kamel_segments_imputed_total",
        "repro_kamel_segments_failed_total",
        "repro_streaming_trips_out_total",
        "repro_streaming_process_seconds_count",
        "repro_streaming_process_seconds_sum",
    )
    print("\nscraped /metrics (excerpt):")
    samples = {}
    for line in exposition.splitlines():
        if line.startswith(interesting):
            print(f"  {line}")
            name, value = line.split()
            samples[name] = float(value)
    server.stop()

    # A failure rate is a ratio of two exported counters; over a window it
    # is the same ratio of their rate() in PromQL.
    scraped = (
        samples["repro_kamel_segments_failed_total"]
        / samples["repro_kamel_segments_imputed_total"]
    )
    print(f"failure rate from the counters: {scraped:.1%}")
    assert scraped == stats.failure_rate, (scraped, stats.failure_rate)


if __name__ == "__main__":
    main()
