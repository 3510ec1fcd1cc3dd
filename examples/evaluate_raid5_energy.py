#!/usr/bin/env python
"""Full evaluation-host pipeline: HDD vs SSD RAID-5 energy efficiency.

Drives the §III-B procedure end-to-end through
:class:`repro.host.EvaluationHost`: build a (small) trace repository per
array, run load sweeps, record every test in one run ledger, then query
the ledger to compare the two arrays — the §VI-G comparison.

Run:  python examples/evaluate_raid5_energy.py
"""

import tempfile
from pathlib import Path

from repro import (
    EvaluationHost,
    RunLedger,
    TraceRepository,
    WorkloadMode,
    build_hdd_raid5,
    build_ssd_raid5,
)

MODES = [
    WorkloadMode(request_size=16384, random_ratio=rnd, read_ratio=rd)
    for rnd in (0.0, 1.0)
    for rd in (0.0, 1.0)
]
LEVELS = (0.2, 0.6, 1.0)

with tempfile.TemporaryDirectory() as tmp:
    ledger = RunLedger()  # shared in-memory ledger for both arrays

    for label, factory in (
        ("hdd-raid5", lambda: build_hdd_raid5(6)),
        ("ssd-raid5", lambda: build_ssd_raid5(4)),
    ):
        host = EvaluationHost(
            device_factory=factory,
            device_label=label,
            repository=TraceRepository(Path(tmp) / label),
            ledger=ledger,
        )
        print(f"building repository for {label} ...")
        host.build_repository(modes=MODES, duration=1.5)
        for mode in MODES:
            host.run_load_sweep(mode, levels=LEVELS, label="compare")

    # -- Query the ledger and print the comparison ----------------------

    print(f"\n{ledger.count()} records stored; devices: "
          f"{', '.join(ledger.devices())}\n")
    print(f"{'device':<10} {'rnd%':>5} {'rd%':>4} {'load%':>6} "
          f"{'MBPS':>8} {'Watts':>8} {'MBPS/kW':>8}")
    for device in ledger.devices():
        for mode in MODES:
            rows = ledger.tests(
                device_label=device,
                request_size=mode.request_size,
                random_ratio=mode.random_ratio,
                read_ratio=mode.read_ratio,
                order_by="load_proportion",
            )
            for rec in rows:
                print(
                    f"{device:<10} {mode.random_ratio * 100:>5.0f} "
                    f"{mode.read_ratio * 100:>4.0f} "
                    f"{rec.mode.load_proportion * 100:>5.0f}% "
                    f"{rec.mbps:>8.2f} {rec.mean_watts:>8.2f} "
                    f"{rec.mbps_per_kilowatt:>8.1f}"
                )

    # Headline: who wins at full load on the random-read workload?
    def full_load_eff(device, rnd, rd):
        rows = ledger.tests(
            device_label=device, random_ratio=rnd, read_ratio=rd,
            load_proportion=1.0,
        )
        return rows[0].mbps_per_kilowatt

    ssd = full_load_eff("ssd-raid5", 1.0, 1.0)
    hdd = full_load_eff("hdd-raid5", 1.0, 1.0)
    print(f"\nrandom reads at full load: SSD {ssd:.1f} vs HDD {hdd:.1f} "
          f"MBPS/kW  ->  {'SSD' if ssd > hdd else 'HDD'} wins "
          f"({max(ssd, hdd) / min(ssd, hdd):.1f}x)")
