#!/usr/bin/env python
"""Fig. 3 — TRACER in a distributed environment.

Spins up two workload-generator *nodes* (TCP servers, each owning a
device under test and a trace repository), connects an evaluation host
to each, dispatches load sweeps over the wire, and separately runs a
multichannel parallel evaluation where two arrays replay concurrently
on one simulation clock — the multi-channel power analyzer of Fig. 3.

Everything runs on loopback sockets with ephemeral ports.

Run:  python examples/distributed_evaluation.py
"""

import tempfile
from pathlib import Path

from repro import (
    RunLedger,
    TraceRepository,
    WorkloadMode,
    build_hdd_raid5,
    build_ssd_raid5,
)
from repro.distributed import (
    ArrayRun,
    GeneratorNode,
    MultiArrayEvaluation,
    RemoteEvaluationHost,
)
from repro.workload.matrix import build_matrix

MODE = WorkloadMode(request_size=16384, random_ratio=0.5, read_ratio=0.5)

with tempfile.TemporaryDirectory() as tmp:
    # -- Stand up two generator nodes ------------------------------------
    nodes = []
    for label, factory in (
        ("hdd-raid5", lambda: build_hdd_raid5(6)),
        ("ssd-raid5", lambda: build_ssd_raid5(4)),
    ):
        repo = TraceRepository(Path(tmp) / label)
        build_matrix(factory, repo, label, duration=1.5, modes=[MODE])
        node = GeneratorNode(
            factory, label, repo, node_id=f"node-{label}"
        ).start()
        nodes.append(node)
        print(f"generator {node.node_id} listening on port {node.port}")

    # -- Evaluation host drives each node over TCP -----------------------
    ledger = RunLedger()
    try:
        for node in nodes:
            with RemoteEvaluationHost(
                "127.0.0.1", node.port, ledger=ledger
            ) as host:
                print(f"\nconnected to {host.node_id} "
                      f"(device {host.device_label})")
                print(f"  traces available: {host.list_traces()}")
                records = host.run_load_sweep(MODE, levels=(0.5, 1.0))
                for rec in records:
                    print(
                        f"  load {rec.mode.load_proportion * 100:>3.0f}%: "
                        f"{rec.iops:>7.1f} IOPS  {rec.mean_watts:>7.2f} W  "
                        f"{rec.iops_per_watt:.2f} IOPS/W"
                    )
    finally:
        for node in nodes:
            node.stop()

    print(f"\nhost ledger now holds {ledger.count()} records from "
          f"{len(ledger.devices())} devices")

# -- Multichannel parallel evaluation (one clock, N power channels) ------

from repro.workload.webserver import generate_webserver_trace

trace = generate_webserver_trace(duration=120.0, seed=5)
evaluation = MultiArrayEvaluation(sampling_cycle=10.0)
results = evaluation.run(
    [
        ArrayRun(build_hdd_raid5(6, name="ch0-hdd"), trace, 1.0),
        ArrayRun(build_hdd_raid5(6, name="ch1-hdd-half"), trace, 0.5),
    ]
)
print("\nmultichannel run (same web trace, two arrays, one clock):")
for res in results:
    print(
        f"  {res.metadata['array']:<14} ch{res.metadata['channel']} "
        f"load {res.load_proportion * 100:>3.0f}%: {res.iops:>6.1f} IOPS "
        f"{res.mean_watts:>7.2f} W  {res.energy_joules:>9.1f} J"
    )
