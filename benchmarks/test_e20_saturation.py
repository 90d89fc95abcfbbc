"""E20 — saturation sweep: knee point and goodput under an SLO.

The management policies so far were compared at a fixed workload; this
experiment asks the capacity question a multi-tenant deployment needs
answered first: *at what offered load does each policy fall over, and
where does the latency go when it does?*

An open-loop arrival stream (one single-operation task every
``1/rate`` seconds, configurations round-robin over three circuits
whose widths deliberately exceed the device, so reconfiguration
traffic is part of the service path) is swept across arrival rates for
three policies.  Every point runs with the full PR 8 observability
stack attached through the harness ``subscribe`` hook — an
:class:`~repro.telemetry.SloEngine` holding a p99 latency objective
and a :class:`~repro.telemetry.QueueingDecomposition` splitting every
operation into queue / reconfig / service stage time.

Per policy, the sweep reduces to the ``saturation`` summary block that
``repro bench-diff`` gates against the committed baseline: the knee of
the p99-vs-rate curve (:func:`repro.analysis.knee_point`), the
saturated throughput, the maximum goodput achieved while still
honoring the SLO, the stage shares at the saturated point, and the
number of SLO breaches over the whole sweep.  The shape assertions are
the queueing-theory sanity checks: tails rise with offered load,
throughput saturates, and the queue stage — not the service stage —
is what grows past the knee.
"""

from _harness import emit, record_run, run_system

from repro.analysis import format_table, knee_point, max_goodput_under_slo
from repro.core import ConfigRegistry
from repro.device import get_family
from repro.osim import FpgaOp, Task
from repro.telemetry import (
    QueueingDecomposition,
    SloEngine,
    SloObjective,
)

CYCLES = 40_000
CP = 25e-9                      # synthetic circuit clock period
OP_SECONDS = CYCLES * CP        # 1 ms of useful fabric time per op
SERIAL_RATE = 4e6               # the knee of the E1 feasibility sweep
SLO_P99 = 10e-3                 # the objective every point is held to
N_TASKS = 48
RATES = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]   # offered ops/sec

POLICIES = [
    ("dynamic", {}),
    ("fixed", {"n_partitions": 2}),
    ("variable", {"gc": "merge"}),
]


def build_registry() -> ConfigRegistry:
    arch = get_family("VF12").scaled(
        serial_rate=SERIAL_RATE, readback_rate=SERIAL_RATE
    )
    registry = ConfigRegistry(arch)
    # Three width-5 circuits on a 12-column device: any two fit, all
    # three do not — steady-state faults keep the reconfig stage live.
    for i in range(3):
        registry.register_synthetic(f"f{i}", 5, arch.height,
                                    critical_path=CP)
    return registry


def open_loop_tasks(rate: float, n_tasks: int = N_TASKS):
    """One single-op task every ``1/rate`` seconds, configs round-robin."""
    return [
        Task(f"t{i}", [FpgaOp(f"f{i % 3}", CYCLES)], arrival=i / rate)
        for i in range(n_tasks)
    ]


def run_point(policy: str, policy_kw: dict, rate: float):
    """One operating point: offered rate -> latency/throughput/stages."""
    engine = SloEngine([SloObjective(name="p99-slo", latency=SLO_P99,
                                     percentile=0.99, min_samples=4)])
    decomp = QueueingDecomposition()

    def subscribe(bus):
        bus.subscribe_all(engine)
        bus.subscribe_all(decomp)
        engine.bus = bus            # republish breaches onto this run's bus

    stats, _service = run_system(
        build_registry(), open_loop_tasks(rate), policy,
        subscribe=subscribe, **policy_kw,
    )
    engine.finish()

    spans = decomp.spans.spans
    assert len(spans) == N_TASKS, "every operation must complete"
    durations = sorted(s.duration for s in spans)
    p99 = durations[max(0, -(-99 * len(durations) // 100) - 1)]
    throughput = len(spans) / stats.makespan
    good_ops = sum(1 for d in durations if d <= SLO_P99)
    return {
        "rate": rate,
        "throughput": throughput,
        "goodput": good_ops / stats.makespan,
        "p99": p99,
        "shares": decomp.stage_shares(),
        "n_breaches": len(engine.breaches),
    }


def sweep_policy(policy: str, policy_kw: dict):
    points = [run_point(policy, policy_kw, rate) for rate in RATES]
    rates = [p["rate"] for p in points]
    p99s = [p["p99"] for p in points]
    knee = knee_point(rates, p99s)
    saturated = points[-1]
    summary = {
        "knee_rate": knee.x if knee else 0.0,
        "knee_p99": knee.y if knee else 0.0,
        "saturated_throughput": saturated["throughput"],
        "max_goodput_under_slo": max_goodput_under_slo(
            rates, [p["goodput"] for p in points], p99s, SLO_P99
        ),
        "stage_share": saturated["shares"],
        "n_breaches": sum(p["n_breaches"] for p in points),
    }
    record_run({
        "policy": f"saturation:{policy}",
        "policy_kw": {k: v for k, v in sorted(policy_kw.items())},
        "saturation": summary,
    })
    return points, summary


def test_e20_saturation(benchmark):
    results = benchmark.pedantic(
        lambda: {name: sweep_policy(name, kw) for name, kw in POLICIES},
        rounds=1, iterations=1,
    )

    rows = []
    for name, (points, summary) in results.items():
        for p in points:
            rows.append({
                "policy": name,
                "rate": f"{p['rate']:g}",
                "throughput": f"{p['throughput']:.1f}",
                "goodput": f"{p['goodput']:.1f}",
                "p99_ms": f"{p['p99'] * 1e3:.2f}",
                "queue%": f"{p['shares']['queue'] * 100:.1f}",
                "reconfig%": f"{p['shares']['reconfig'] * 100:.1f}",
                "service%": f"{p['shares']['service'] * 100:.1f}",
                "breaches": p["n_breaches"],
            })
    knee_rows = [
        {
            "policy": name,
            "knee_rate": f"{summary['knee_rate']:g}",
            "knee_p99_ms": f"{summary['knee_p99'] * 1e3:.2f}",
            "sat_throughput": f"{summary['saturated_throughput']:.1f}",
            "max_goodput@SLO": f"{summary['max_goodput_under_slo']:.1f}",
        }
        for name, (_points, summary) in results.items()
    ]
    emit("e20_saturation", format_table(
        rows,
        title=f"E20: open-loop saturation sweep ({N_TASKS} ops/point, "
              f"SLO p99 <= {SLO_P99 * 1e3:g} ms)",
    ) + "\n\n" + format_table(
        knee_rows, title="E20: knee points and goodput ceilings",
    ))

    for name, (points, summary) in results.items():
        p99s = [p["p99"] for p in points]
        throughputs = [p["throughput"] for p in points]
        # Tails rise with offered load: the heaviest point is far above
        # the lightest.
        assert p99s[-1] > p99s[0] * 2, name
        # Throughput saturates: at the heaviest point the completion
        # rate falls well short of the offered rate.
        assert throughputs[-1] < RATES[-1] * 0.8, name
        # The curve has a knee and the sweep brackets it.
        assert summary["knee_rate"] > 0.0, name
        assert RATES[0] < summary["knee_rate"] < RATES[-1], name
        # Past the knee the growth is queueing, not service: the queue
        # stage share at saturation dominates its unloaded share.
        assert points[-1]["shares"]["queue"] > points[0]["shares"]["queue"], \
            name
        # Overload breaches the objective; the breach rode the bus.
        assert summary["n_breaches"] > 0, name
