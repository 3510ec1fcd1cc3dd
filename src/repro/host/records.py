"""Test records (paper §III-A1).

"Each record in the database contains information on energy efficiency
and performance (e.g., time of the test, workload modes, energy
dissipation data (or power data), performance result, and
energy-efficiency result).  Each workload mode is a vector that consists
of request size, random rate, read rate, and load proportion value."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import WorkloadMode
from ..errors import DatabaseError


@dataclass(frozen=True)
class TestRecord:
    """One completed test: the paper's view of a run-ledger row.

    The evaluation hosts write a test with
    :func:`~repro.host.ledger.record_test`; ``record_id`` is its run id.
    """

    #: Tell pytest not to collect this class despite the Test* name.
    __test__ = False

    test_time: float
    """Wall-clock epoch seconds when the test was recorded."""
    device_label: str
    mode: WorkloadMode
    # Energy dissipation data.
    mean_amperes: float
    mean_volts: float
    mean_watts: float
    energy_joules: float
    # Performance results.
    iops: float
    mbps: float
    mean_response: float
    duration: float
    # Energy-efficiency results.
    iops_per_watt: float
    mbps_per_kilowatt: float
    label: str = ""
    record_id: Optional[str] = None

    @classmethod
    def from_run(cls, run) -> "TestRecord":
        """View a :class:`~repro.host.ledger.RunRecord` test row."""
        s = run.summary
        try:
            return cls(
                test_time=run.created,
                device_label=str(s["device_label"]),
                mode=WorkloadMode.from_dict(run.mode),
                mean_amperes=s["mean_amperes"],
                mean_volts=s["mean_volts"],
                mean_watts=s["mean_watts"],
                energy_joules=s["energy_joules"],
                iops=s["iops"],
                mbps=s["mbps"],
                mean_response=s["mean_response"],
                duration=s["duration"],
                iops_per_watt=s["iops_per_watt"],
                mbps_per_kilowatt=s["mbps_per_kilowatt"],
                label=str(s.get("label", "")),
                record_id=run.run_id,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatabaseError(
                f"run {run.run_id!r} is not a test record: {exc!r}"
            ) from exc
