"""Live console tests: the interval-frame renderer behind ``--live``."""

import io

import pytest

from repro.config import ReplayConfig
from repro.metrics.efficiency import iops_per_watt, mbps_per_kilowatt
from repro.replay.console import LiveFrameRenderer
from repro.replay.session import ReplaySession
from repro.storage.array import build_hdd_raid5
from repro.telemetry.stream import IntervalFrame
from repro.trace.packed import pack


def live_run(trace, cycle, renderer, load=1.0):
    """One replay watched at the sampling cycle, as ``--live`` does."""
    session = ReplaySession(
        build_hdd_raid5(6),
        config=ReplayConfig(sampling_cycle=cycle),
        stream_interval=cycle,
        on_frame=renderer.on_frame,
    )
    return session.run(trace, load)


def frame(index, **overrides):
    fields = dict(
        index=index, start=index * 0.5, end=(index + 1) * 0.5,
        completed=50, total_bytes=200_000, response_sum=0.25,
        energy_joules=50.0, queue_depth=3,
    )
    fields.update(overrides)
    return IntervalFrame(**fields)


def rows(stream):
    return [l.split() for l in stream.getvalue().splitlines() if l.strip()]


class TestLiveFrameRenderer:
    def test_streams_one_line_per_cycle(self, collected_trace):
        outputs = {}
        for trace in (collected_trace, pack(collected_trace)):
            stream = io.StringIO()
            renderer = LiveFrameRenderer(stream=stream)
            result = live_run(trace, 0.1, renderer)
            lines = [l for l in stream.getvalue().splitlines() if l.strip()]
            # Header + one line per completed performance cycle.
            assert "IOPS" in lines[0] and "Watts" in lines[0]
            assert renderer.frames_rendered == len(result.perf_samples)
            assert len(lines) == 1 + renderer.frames_rendered
            outputs[result.metadata["engine"]] = stream.getvalue()
        # Object traces replay on the event engine, packed ones on the
        # kernel; the live rows are the same either way.
        assert outputs["event"] == outputs["kernel"]

    def test_live_watts_plausible(self, collected_trace):
        stream = io.StringIO()
        live_run(pack(collected_trace), 0.2, LiveFrameRenderer(stream=stream))
        watts = [float(row[5]) for row in rows(stream)[1:]]
        assert watts and all(95.0 < w < 120.0 for w in watts)

    def test_renderer_reusable_across_runs(self, collected_trace):
        stream = io.StringIO()
        renderer = LiveFrameRenderer(stream=stream)
        for _ in range(2):
            live_run(pack(collected_trace), 0.5, renderer, load=0.5)
        # Each run's frame 0 re-prints the header.
        assert stream.getvalue().count("IOPS/W") == 2

    def test_cli_live_flag(self, tmp_path, collected_trace, capsys):
        from repro.cli import main
        from repro.trace.blktrace import write_trace

        path = tmp_path / "t.replay"
        write_trace(collected_trace, path)
        assert main(["replay", str(path), "--load", "100",
                     "--cycle", "0.2", "--live"]) == 0
        out = capsys.readouterr().out
        # Live lines precede the summary table.
        assert out.index("IOPS/W") < out.index("replay of")
        # Watching does not pick the engine: the packed run stays fused.
        assert "engine: kernel\n" in out

    def test_frame_objects_render_without_lag(self):
        stream = io.StringIO()
        renderer = LiveFrameRenderer(stream=stream)
        renderer.on_frame(frame(0))
        renderer.on_frame(frame(1))
        header, *data = rows(stream)
        # "resp ms" is two words, so the header has 12.
        assert "lag" not in header and len(header) == 12
        assert [len(r) for r in data] == [11, 11]
        assert renderer.frames_rendered == 2
        assert renderer.last_lag_seconds is None

    def test_wire_frames_show_lag(self):
        stream = io.StringIO()
        renderer = LiveFrameRenderer(stream=stream, clock=lambda: 100.25)
        wire = frame(0).to_dict()
        wire["wall_emitted"] = 100.0
        renderer.on_frame(wire)
        header, data = rows(stream)
        assert header[-2:] == ["lag", "ms"]
        assert renderer.last_lag_seconds == pytest.approx(0.25)
        assert float(data[-1]) == pytest.approx(250.0)

    def test_efficiency_columns(self):
        stream = io.StringIO()
        renderer = LiveFrameRenderer(stream=stream)
        f = frame(0)
        renderer.on_frame(f)
        header, data = rows(stream)
        assert header[7:9] == ["IOPS/W", "MBPS/kW"]
        assert float(data[6]) == pytest.approx(
            iops_per_watt(f.iops, f.watts), abs=0.005
        )
        assert float(data[7]) == pytest.approx(
            mbps_per_kilowatt(f.mbps, f.watts), abs=0.05
        )

    def test_frame_zero_restarts_header(self):
        stream = io.StringIO()
        renderer = LiveFrameRenderer(stream=stream)
        for run in range(2):
            for i in range(3):
                renderer.on_frame(frame(i))
        lines = stream.getvalue().splitlines()
        assert [i for i, l in enumerate(lines) if "IOPS/W" in l] == [0, 4]
        assert renderer.frames_rendered == 6
