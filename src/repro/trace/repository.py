"""The trace repository.

Section III-A2: "Collected trace files are stored in the trace
repository.  The name of each trace file implies important information
such as storage device type, request size, random rate, and read rate."

:class:`TraceName` encodes/decodes that naming convention;
:class:`TraceRepository` is a directory of ``.replay`` files addressed by
workload mode, with store/load/lookup/list operations used by the
evaluation host and the 125-trace matrix builder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from ..config import WorkloadMode
from ..errors import RepositoryError
from ..units import KiB
from .blktrace import read_trace, read_trace_packed, write_trace_packed
from .packed import PACKED_PACKAGE_DTYPE, PackedTrace, TraceLike, pack
from .record import Trace

PathLike = Union[str, Path]

_NAME_RE = re.compile(
    r"^(?P<device>[a-z0-9-]+)_rs(?P<rs>\d+)_rnd(?P<rnd>\d{1,3})_rd(?P<rd>\d{1,3})"
    r"(?:_(?P<tag>[A-Za-z0-9-]+))?\.replay$"
)


@dataclass(frozen=True)
class TraceName:
    """Encoded trace file name: device type + workload mode (+ tag).

    Example: ``hdd-raid5_rs4096_rnd050_rd000.replay`` is the 4 KiB,
    50 % random, 0 % read trace collected on an HDD RAID-5 array.
    """

    device: str
    request_size: int
    random_ratio: float
    read_ratio: float
    tag: str = ""

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[a-z0-9-]+", self.device):
            raise RepositoryError(
                f"device type must be lowercase alphanumeric/hyphen, got {self.device!r}"
            )
        if self.tag and not re.fullmatch(r"[A-Za-z0-9-]+", self.tag):
            raise RepositoryError(f"invalid tag {self.tag!r}")

    @property
    def filename(self) -> str:
        base = (
            f"{self.device}_rs{self.request_size}"
            f"_rnd{round(self.random_ratio * 100):03d}"
            f"_rd{round(self.read_ratio * 100):03d}"
        )
        if self.tag:
            base += f"_{self.tag}"
        return base + ".replay"

    @classmethod
    def parse(cls, filename: str) -> "TraceName":
        """Decode a repository file name; raises on foreign files."""
        m = _NAME_RE.match(Path(filename).name)
        if m is None:
            raise RepositoryError(f"not a repository trace name: {filename!r}")
        return cls(
            device=m.group("device"),
            request_size=int(m.group("rs")),
            random_ratio=int(m.group("rnd")) / 100.0,
            read_ratio=int(m.group("rd")) / 100.0,
            tag=m.group("tag") or "",
        )

    def matches(self, mode: WorkloadMode) -> bool:
        """True when this name's workload parameters equal ``mode``'s."""
        return (
            self.request_size == mode.request_size
            and abs(self.random_ratio - mode.random_ratio) < 0.005
            and abs(self.read_ratio - mode.read_ratio) < 0.005
        )


#: Members every packed sidecar must carry (checked against the zip
#: directory before handing out a lazy trace — reading the directory
#: touches no column data).
_SIDECAR_KEYS = frozenset({"timestamps", "offsets", "sector", "nbytes", "op"})


class _LazyPackedTrace(PackedTrace):
    """A :class:`PackedTrace` whose columns load on first access.

    ``load_packed`` returns this over an open ``.npz`` sidecar handle:
    the zip directory has been read (cheap), the column payloads have
    not.  Because :class:`PackedTrace` uses ``__slots__``, leaving the
    column slots unset makes the first ``timestamps`` / ``offsets`` /
    ``packages`` read raise into :meth:`__getattr__`, which materialises
    all three and closes the handle — every later access is a plain slot
    load, indistinguishable from an eager trace.  A sweep that looks up
    many repository traces but replays few never parses the unused ones.

    A sidecar that turns out to be truncated or corrupt mid-read falls
    back to re-parsing the authoritative ``.replay`` file.
    """

    __slots__ = ("_npz", "_source")

    def __init__(self, npz, source: Path, label: str) -> None:
        # Deliberately no super().__init__: the column slots stay unset.
        self._npz = npz
        self._source = source
        self.label = label

    def _materialize(self) -> None:
        npz, self._npz = self._npz, None
        try:
            try:
                sector = npz["sector"]
                packages = np.empty(len(sector), dtype=PACKED_PACKAGE_DTYPE)
                packages["sector"] = sector
                packages["nbytes"] = npz["nbytes"]
                packages["op"] = npz["op"]
                timestamps = np.asarray(npz["timestamps"], dtype=np.float64)
                offsets = np.asarray(npz["offsets"], dtype=np.int64)
            except (OSError, ValueError, KeyError):
                rebuilt = read_trace_packed(self._source)
                timestamps = rebuilt.timestamps
                offsets = rebuilt.offsets
                packages = rebuilt.packages
        finally:
            try:
                npz.close()
            except Exception:
                pass
        self.timestamps = timestamps
        self.offsets = offsets
        self.packages = packages

    @property
    def materialized(self) -> bool:
        """Whether the columns have been read from disk yet."""
        return self._npz is None

    def __getattr__(self, name: str):
        if name in ("timestamps", "offsets", "packages"):
            if self._npz is not None:
                self._materialize()
                return getattr(self, name)
        raise AttributeError(name)


class TraceRepository:
    """A directory of named ``.replay`` traces.

    The repository is the hand-off point between the trace collector
    (which stores peak-workload traces) and the replay tool (which loads
    the trace matching a requested workload mode).
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, name: TraceName) -> Path:
        return self.root / name.filename

    def packed_cache_path(self, name: TraceName) -> Path:
        """Sidecar holding the columnar arrays of a stored trace."""
        return self.root / (name.filename + ".npz")

    def store(
        self, name: TraceName, trace: TraceLike, overwrite: bool = False
    ) -> Path:
        """Write ``trace`` under ``name``; refuses to clobber by default.

        Accepts either representation; it is written packed.  Any stale
        packed sidecar for the name is dropped so :meth:`load_packed`
        never serves old data.
        """
        path = self.path_for(name)
        if path.exists() and not overwrite:
            raise RepositoryError(f"trace already in repository: {path.name}")
        write_trace_packed(pack(trace), path)
        cache = self.packed_cache_path(name)
        if cache.exists():
            cache.unlink()
        return path

    def load(self, name: TraceName) -> Trace:
        """Load the trace stored under ``name``."""
        path = self.path_for(name)
        if not path.exists():
            raise RepositoryError(f"trace not in repository: {path.name}")
        return read_trace(path)

    def load_packed(self, name: TraceName) -> PackedTrace:
        """Load the trace under ``name`` as a :class:`PackedTrace`.

        The columnar arrays are cached on disk in an ``.npz`` sidecar
        next to the ``.replay`` file, so repeated sweeps over the same
        repository skip even the (already cheap) binary parse.  The
        sidecar is rebuilt whenever it is missing or older than its
        trace file.

        A cache hit is *lazy*: the sidecar is opened (``mmap_mode="r"``,
        which on an ``.npz`` archive means only the zip directory is
        read) and the returned trace defers column materialisation to
        the first ``timestamps`` / ``offsets`` / ``packages`` access —
        loading a repository of traces to pick one costs a stat and a
        directory read per trace, not a full parse.
        """
        path = self.path_for(name)
        if not path.exists():
            raise RepositoryError(f"trace not in repository: {path.name}")
        cache = self.packed_cache_path(name)
        if cache.exists() and cache.stat().st_mtime >= path.stat().st_mtime:
            try:
                data = np.load(cache, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError):
                # Corrupt or foreign sidecar: fall through and rebuild.
                pass
            else:
                if _SIDECAR_KEYS.issubset(data.files):
                    return _LazyPackedTrace(data, path, label=path.stem)
                data.close()
        packed = read_trace_packed(path)
        tmp = cache.with_suffix(".tmp.npz")
        np.savez(
            tmp,
            timestamps=packed.timestamps,
            offsets=packed.offsets,
            sector=packed.packages["sector"],
            nbytes=packed.packages["nbytes"],
            op=packed.packages["op"],
        )
        tmp.replace(cache)
        return packed

    def __contains__(self, name: TraceName) -> bool:
        return self.path_for(name).exists()

    def names(self) -> Iterator[TraceName]:
        """Iterate all decodable trace names in the repository."""
        for path in sorted(self.root.glob("*.replay")):
            try:
                yield TraceName.parse(path.name)
            except RepositoryError:
                continue

    def find(
        self,
        device: Optional[str] = None,
        mode: Optional[WorkloadMode] = None,
    ) -> List[TraceName]:
        """Find names by device type and/or workload mode."""
        out = []
        for name in self.names():
            if device is not None and name.device != device:
                continue
            if mode is not None and not name.matches(mode):
                continue
            out.append(name)
        return out

    def lookup(self, device: str, mode: WorkloadMode) -> TraceName:
        """Return the unique trace for (device, mode); raise otherwise."""
        matches = self.find(device=device, mode=mode)
        if not matches:
            raise RepositoryError(
                f"no trace for device={device!r} "
                f"rs={mode.request_size} rnd={mode.random_ratio} rd={mode.read_ratio}"
            )
        if len(matches) > 1:
            raise RepositoryError(
                f"ambiguous: {len(matches)} traces match device={device!r} mode"
            )
        return matches[0]

    def __len__(self) -> int:
        return sum(1 for _ in self.names())
