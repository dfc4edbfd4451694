"""Serving-simulation bench: event-driven validation of the pipeline claims.

Cross-checks the paper's "retrieval hides under inference" pipelining story
by *executing* the serving system: at the recommended cluster sizing the GPU
saturates and retrieval nodes idle; with monolithic-scale retrieval the GPU
starves. Also reports latency percentiles the closed-form model cannot see.
"""


from repro.experiments.common import build_fleet
from repro.llm.generation import GenerationConfig
from repro.perfmodel.aggregate import expected_deep_loads
from repro.metrics.reporting import format_table
from repro.serving import PipelineSimulator, plan_from_models

CONFIG = GenerationConfig(batch=128, output_tokens=128, stride=16)


def simulate(total_tokens: float, *, n_clusters=10, n_batches=10):
    fleet = build_fleet(total_tokens, n_clusters=n_clusters, size_skew_exponent=0.0)
    loads = expected_deep_loads(CONFIG.batch, fleet.access_frequency, 3)
    plan = plan_from_models(CONFIG, fleet.model.hermes(CONFIG.batch, loads))
    sim = PipelineSimulator(plan, batch_size=CONFIG.batch)
    return sim.run(n_batches)


def run_regimes():
    return {
        "hidden (10B total)": simulate(10e9),
        "balanced (100B total)": simulate(100e9),
        "retrieval-bound (1T total)": simulate(1e12),
    }


def test_serving_simulation(run_once):
    reports = run_once(run_regimes)
    rows = []
    for name, report in reports.items():
        rows.append(
            (
                name,
                report.throughput_qps,
                report.mean_latency_s,
                report.latency_percentile(99),
                f"{report.gpu_utilization:.0%}",
                f"{report.node_utilization.max():.0%}",
            )
        )
    print("\n" + format_table(
        ["regime", "QPS", "mean lat (s)", "p99 lat (s)", "GPU util", "hot node util"],
        rows,
        title="Event-driven serving simulation across regimes",
    ))

    hidden = reports["hidden (10B total)"]
    bound = reports["retrieval-bound (1T total)"]
    # At the recommended sizing the GPU is the bottleneck (retrieval hidden).
    assert hidden.gpu_utilization > 0.9
    assert hidden.node_utilization.max() < 0.5
    # At monolithic scales the roles flip: nodes saturate, GPU starves.
    assert bound.gpu_utilization < 0.5
    assert bound.node_utilization.max() > 0.8
    # And throughput degrades accordingly.
    assert hidden.throughput_qps > 3 * bound.throughput_qps
