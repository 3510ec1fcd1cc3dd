"""Mechanical HDD model tests."""

import pytest

from repro.errors import StorageIOError
from repro.power.states import PowerState
from repro.sim.engine import Simulator
from repro.storage.hdd import HardDiskDrive
from repro.storage.specs import SEAGATE_7200_12
from repro.trace.record import READ, WRITE, IOPackage


@pytest.fixture
def disk(sim):
    d = HardDiskDrive("d0")
    d.attach(sim)
    return d


def serve(sim, disk, packages):
    """Submit sequentially-timed requests; return completions."""
    done = []
    for pkg in packages:
        disk.submit(pkg, done.append)
    sim.run()
    return done


class TestServiceTimes:
    def test_sequential_stream_fast(self, sim, disk):
        pkgs = [IOPackage(i * 8, 4096, READ) for i in range(10)]
        done = serve(sim, disk, pkgs)
        # After the first positioning, streaming costs ~transfer only.
        stream = [c.service_time for c in done[1:]]
        expected = 4096 / SEAGATE_7200_12.outer_rate
        for st in stream:
            assert st == pytest.approx(
                expected + SEAGATE_7200_12.command_overhead, rel=0.01
            )

    def test_random_read_pays_seek_and_rotation(self, sim, disk):
        far = disk.capacity_sectors // 2
        done = serve(sim, disk, [IOPackage(far, 4096, READ)])
        st = done[0].service_time
        assert st > SEAGATE_7200_12.mean_rotational_latency
        assert st > 0.005  # several ms, not microseconds

    def test_longer_seeks_cost_more(self, sim, disk):
        near = serve(sim, disk, [IOPackage(1000, 4096, READ)])[0].service_time
        sim2 = Simulator()
        disk2 = HardDiskDrive("d1")
        disk2.attach(sim2)
        far = serve(
            sim2, disk2, [IOPackage(disk2.capacity_sectors - 8, 4096, READ)]
        )[0].service_time
        assert far > near

    def test_zoned_transfer_rate(self):
        spec = SEAGATE_7200_12
        assert spec.transfer_rate_at(0) == spec.outer_rate
        assert spec.transfer_rate_at(spec.capacity_sectors) == spec.inner_rate
        mid = spec.transfer_rate_at(spec.capacity_sectors // 2)
        assert spec.inner_rate < mid < spec.outer_rate

    def test_op_switch_pays_turnaround(self, sim, disk):
        # Prime with a read, then sequential write (address-contiguous).
        done = serve(
            sim, disk,
            [IOPackage(0, 4096, READ), IOPackage(8, 4096, WRITE),
             IOPackage(16, 4096, WRITE)],
        )
        switch = done[1].service_time
        stream = done[2].service_time
        assert switch == pytest.approx(
            stream + SEAGATE_7200_12.read_to_write_turnaround, rel=0.01
        )

    def test_write_to_read_costs_more_than_read_to_write(self, sim, disk):
        spec = SEAGATE_7200_12
        assert spec.write_to_read_turnaround > spec.read_to_write_turnaround

    def test_cached_write_seeks_derated(self, sim, disk):
        far = disk.capacity_sectors // 2
        done = serve(
            sim, disk,
            [IOPackage(0, 4096, READ), IOPackage(far, 4096, READ)],
        )
        read_seek_time = done[1].service_time
        sim2 = Simulator()
        disk2 = HardDiskDrive("d1")
        disk2.attach(sim2)
        done2 = serve(
            sim2, disk2,
            [IOPackage(0, 4096, WRITE), IOPackage(far, 4096, WRITE)],
        )
        write_seek_time = done2[1].service_time
        assert write_seek_time < read_seek_time

    def test_seek_counter(self, sim, disk):
        serve(sim, disk, [IOPackage(1000, 4096, READ),
                          IOPackage(1008, 4096, READ),
                          IOPackage(10**6, 4096, READ)])
        assert disk.seek_count == 2  # initial positioning + the far jump


class TestQueueing:
    def test_fifo_order(self, sim, disk):
        done = []
        for i in range(5):
            disk.submit(IOPackage(i * 1000, 4096, READ), done.append)
        sim.run()
        finish_order = [c.package.sector for c in done]
        assert finish_order == [0, 1000, 2000, 3000, 4000]

    def test_response_includes_wait(self, sim, disk):
        done = []
        disk.submit(IOPackage(10**6, 4096, READ), done.append)
        disk.submit(IOPackage(0, 4096, READ), done.append)
        sim.run()
        assert done[1].wait_time > 0
        assert done[1].response_time == pytest.approx(
            done[1].wait_time + done[1].service_time
        )

    def test_bounds_check(self, sim, disk):
        with pytest.raises(StorageIOError):
            disk.submit(IOPackage(disk.capacity_sectors, 4096, READ), lambda c: None)

    def test_requires_attach(self):
        d = HardDiskDrive("detached")
        with pytest.raises(StorageIOError):
            d.submit(IOPackage(0, 512, READ), lambda c: None)


class TestPowerAccounting:
    def test_idle_draws_idle_power(self, sim, disk):
        sim.advance_to(10.0)
        energy = disk.energy_between(0.0, 10.0)
        assert energy == pytest.approx(SEAGATE_7200_12.idle_watts * 10.0)

    def test_active_draws_more_than_idle(self, sim, disk):
        serve(sim, disk, [IOPackage(i * 10**5, 4096, READ) for i in range(50)])
        end = sim.now
        mean = disk.energy_between(0.0, end) / end
        assert mean > SEAGATE_7200_12.idle_watts

    def test_utilisation_bounds(self, sim, disk):
        serve(sim, disk, [IOPackage(0, 4096, READ)])
        sim.advance_to(sim.now + 1.0)
        u = disk.utilisation(0.0, sim.now)
        assert 0.0 < u < 1.0


class TestSpinDown:
    def test_spin_down_reduces_baseline(self, sim, disk):
        disk.spin_down()
        assert disk.state == PowerState.STANDBY
        t0 = sim.now + SEAGATE_7200_12.spindown_time
        sim.advance_to(t0 + 10.0)
        energy = disk.energy_between(t0, t0 + 10.0)
        assert energy == pytest.approx(SEAGATE_7200_12.standby_watts * 10.0)

    def test_io_while_standby_rejected(self, sim, disk):
        disk.spin_down()
        with pytest.raises(StorageIOError):
            disk.submit(IOPackage(0, 4096, READ), lambda c: None)

    def test_spin_up_restores_service(self, sim, disk):
        down = disk.spin_down()
        sim.advance_to(sim.now + down)
        delay = disk.spin_up()
        assert delay == pytest.approx(SEAGATE_7200_12.spinup_time)
        sim.advance_to(sim.now + delay + 0.001)
        assert disk.state.ready
        done = serve(sim, disk, [IOPackage(0, 4096, READ)])
        assert len(done) == 1

    def test_spin_down_while_busy_rejected(self, sim, disk):
        disk.submit(IOPackage(0, 4096, READ), lambda c: None)
        with pytest.raises(StorageIOError):
            disk.spin_down()
        sim.run()

    def test_spinup_energy_burst_recorded(self, sim, disk):
        disk.spin_down()
        sim.advance_to(sim.now + 5.0)
        t0 = sim.now
        disk.spin_up()
        sim.advance_to(t0 + SEAGATE_7200_12.spinup_time)
        energy = disk.energy_between(t0, sim.now)
        assert energy == pytest.approx(
            SEAGATE_7200_12.spinup_watts * SEAGATE_7200_12.spinup_time
        )


class TestJitterMode:
    def test_jitter_reproducible_with_seed(self):
        def run(seed):
            sim = Simulator()
            d = HardDiskDrive("dj", rotational_jitter=True, seed=seed)
            d.attach(sim)
            return [c.service_time for c in serve(
                sim, d, [IOPackage(i * 10**5, 4096, READ) for i in range(10)]
            )]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_jitter_stream_is_the_seeded_generator(self):
        """The generator is built on the first jittered draw, and it is
        the stream ``make_rng(seed)`` builds: the drive replays exactly
        as one whose generator was built up front."""
        from repro.rng import make_rng

        def run(eager):
            sim = Simulator()
            d = HardDiskDrive("dj", rotational_jitter=True, seed=5)
            if eager:
                d._rng = make_rng(5)
            d.attach(sim)
            serve(sim, d, [IOPackage(i * 10**5, 4096, READ) for i in range(10)])
            return [col.tolist() for col in d.timeline.segments()]

        assert run(eager=False) == run(eager=True)

    def test_plain_drive_builds_no_generator(self, monkeypatch):
        import repro.storage.hdd as hdd

        built = []

        def counting(seed=None):
            built.append(seed)
            return make_rng(seed)

        make_rng = hdd.make_rng
        monkeypatch.setattr(hdd, "make_rng", counting)
        sim = Simulator()
        d = HardDiskDrive("d", seed=5)
        d.attach(sim)
        serve(sim, d, [IOPackage(i * 10**5, 4096, READ) for i in range(10)])
        assert built == [] and d._rng is None
        jittered = HardDiskDrive("dj", rotational_jitter=True, seed=5)
        jittered.attach(sim)
        serve(sim, jittered, [IOPackage(0, 4096, READ)] * 2)
        assert built == [5]
