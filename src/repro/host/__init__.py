"""Evaluation host: the control plane of TRACER (paper §III-A1).

The paper's evaluation host is a Windows GUI application with five
modules — GUI, communicator, database, parser, messenger.  Everything
but the GUI exists here, headless:

* :mod:`~repro.host.records` / :mod:`~repro.host.ledger` — per-test
  result records and the sqlite run ledger users query after runs
  (one row per test);
* :mod:`~repro.host.protocol` — JSON wire frames;
* :mod:`~repro.host.communicator` — TCP socket channel between the
  evaluation host and workload-generator nodes;
* :mod:`~repro.host.parser` — the protocol bridge between the user-facing
  command surface and the messenger (the paper's GUI↔messenger layer);
* :mod:`~repro.host.messenger` — power-analyzer control;
* :mod:`~repro.host.evaluation` — the full §III-B test procedure.
"""

from .records import TestRecord
from .ledger import RunLedger
from .protocol import Frame, encode_frame, decode_frame, FrameReader
from .communicator import Communicator, CommunicatorServer
from .parser import CommandParser
from .messenger import Messenger
from .evaluation import EvaluationHost

__all__ = [
    "TestRecord",
    "RunLedger",
    "Frame",
    "encode_frame",
    "decode_frame",
    "FrameReader",
    "Communicator",
    "CommunicatorServer",
    "CommandParser",
    "Messenger",
    "EvaluationHost",
]
