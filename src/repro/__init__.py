"""TRACER — a load-controllable trace replay framework for evaluating the
energy efficiency of mass storage systems.

Reproduction of Liu et al., *TRACER: A Trace Replay Tool to Evaluate
Energy-Efficiency of Mass Storage Systems*, IEEE CLUSTER 2010.

Quickstart::

    from repro import (
        WorkloadMode, build_hdd_raid5, IometerGenerator, TraceCollector,
        Simulator, replay_trace,
    )

    mode = WorkloadMode(request_size=4096, random_ratio=0.5, read_ratio=0.0)
    sim = Simulator()
    array = build_hdd_raid5(6)
    array.attach(sim)
    collector = TraceCollector(label="demo")
    IometerGenerator(mode, seed=1).run(sim, array, 2.0, collector=collector)
    trace = collector.finish()

    result = replay_trace(trace, build_hdd_raid5(6), load_proportion=0.4)
    print(result.iops_per_watt, result.mbps_per_kilowatt)

See ``DESIGN.md`` for the subsystem inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record of every table and figure.
"""

from .config import (
    LOAD_LEVELS,
    MATRIX_RANDOM_RATIOS,
    MATRIX_READ_RATIOS,
    MATRIX_REQUEST_SIZES,
    ReplayConfig,
    TestRequest,
    WorkloadMode,
)
from .errors import TracerError
from .sim import Simulator
from .trace import (
    Bunch,
    IOPackage,
    READ,
    Trace,
    TraceRepository,
    TraceName,
    WRITE,
    compute_stats,
    read_trace,
    write_trace,
)
from .core import (
    LoadController,
    ProportionalFilter,
    TimeScaler,
    control_accuracy,
    filter_trace,
    load_proportion,
    scale_trace,
)
from .storage import (
    DiskArray,
    HardDiskDrive,
    RaidLevel,
    SolidStateDrive,
    build_hdd_raid5,
    build_ssd_raid5,
)
from .power import HallSensor, MultiChannelMeter, PowerAnalyzer, SensorSpec
from .workload import (
    IometerGenerator,
    TraceCollector,
    build_matrix,
    generate_cello_trace,
    generate_webserver_trace,
    matrix_modes,
)
from .faults import (
    DiskFailFault,
    FaultInjector,
    FaultSchedule,
    SectorErrorFault,
    SlowdownFault,
    StuckFault,
)
from .replay import ReplayResult, ReplaySession, replay_trace
from .metrics import iops_per_watt, mbps_per_kilowatt
from .host import EvaluationHost, RunLedger, TestRecord

__version__ = "1.0.0"

__all__ = [
    "LOAD_LEVELS",
    "MATRIX_RANDOM_RATIOS",
    "MATRIX_READ_RATIOS",
    "MATRIX_REQUEST_SIZES",
    "ReplayConfig",
    "TestRequest",
    "WorkloadMode",
    "TracerError",
    "Simulator",
    "Bunch",
    "IOPackage",
    "READ",
    "WRITE",
    "Trace",
    "TraceRepository",
    "TraceName",
    "compute_stats",
    "read_trace",
    "write_trace",
    "LoadController",
    "ProportionalFilter",
    "TimeScaler",
    "control_accuracy",
    "filter_trace",
    "load_proportion",
    "scale_trace",
    "DiskArray",
    "HardDiskDrive",
    "RaidLevel",
    "SolidStateDrive",
    "build_hdd_raid5",
    "build_ssd_raid5",
    "HallSensor",
    "MultiChannelMeter",
    "PowerAnalyzer",
    "SensorSpec",
    "IometerGenerator",
    "TraceCollector",
    "build_matrix",
    "generate_cello_trace",
    "generate_webserver_trace",
    "matrix_modes",
    "DiskFailFault",
    "FaultInjector",
    "FaultSchedule",
    "SectorErrorFault",
    "SlowdownFault",
    "StuckFault",
    "ReplayResult",
    "ReplaySession",
    "replay_trace",
    "iops_per_watt",
    "mbps_per_kilowatt",
    "EvaluationHost",
    "RunLedger",
    "TestRecord",
    "__version__",
]
