"""Observability layer: spans, Perfetto export, metrics, watchdog, CLI."""

import json
import os

import numpy as np
import pytest

from repro.bench.harness import Measurement, measure
from repro.bench.workloads import SMALL_WORKLOADS, lid_cavity
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE
from repro.core.simulation import Simulation
from repro.gpu.costmodel import cost_trace
from repro.gpu.device import A100_40GB
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.analysis.certificate import write_certificate
from repro.neon.runtime import KernelRecord, Runtime
from repro.obs import (EventLog, HealthWatchdog, SimulationDiverged,
                       SpanRecorder, chrome_trace, run_metrics, validate_trace,
                       write_bench_json)
from repro.obs.cli import main as report_main
from repro.obs.roofline import DriftReport
from repro.obs.spans import StepSpan
from repro.obs.watchdog import CS_LATTICE, LAST_N_SPANS, RHO_BOUNDS


def small_sim(config=FUSED_FULL, runtime=None, dtype="float32"):
    wl = lid_cavity(base=(20, 20), num_levels=2, lattice="D2Q9")
    return Simulation.from_config(wl.spec, lattice=wl.lattice,
                                  collision=wl.collision,
                                  viscosity=wl.viscosity, fusion=config,
                                  runtime=runtime, dtype=dtype)


def golden_sim(config):
    """The Fig. 2 golden setup (29 baseline / 10 fused kernels per step)."""
    base = (24, 24)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
    spec = RefinementSpec(base, wall_refinement(base, 3, [7.0, 2.0]), bc=bc)
    return Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                  viscosity=0.05, fusion=config)


class TestMetricsRegistry:
    def test_write_bench_json(self, tmp_path):
        write_bench_json("unit", {"speedup": 1.0}, out_dir=str(tmp_path))
        path = write_bench_json("unit", {"speedup": 2.0}, out_dir=str(tmp_path))
        data = json.loads((tmp_path / "BENCH_unit.json").read_text())
        assert path.endswith("BENCH_unit.json")
        assert data == {"bench": "unit", "speedup": 2.0}
        # The snapshot is all a figure benchmark writes: no history line.
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_unit.json"]


class TestSpanRecorder:
    def test_spans_default_off(self):
        sim = small_sim()
        sim.run(1)
        assert sim.runtime.spans is None  # opt-in: hot path untouched

    def test_one_span_per_launch(self):
        sim = small_sim()
        rec = sim.enable_tracing()
        sim.run(2)
        assert len(rec.kernel_spans) == len(sim.runtime.records)
        assert len(rec.step_spans) == 2
        assert all(s.dur_us >= 0 for s in rec.kernel_spans)
        assert rec.total_us() > 0
        for span in rec.kernel_spans:
            assert span.record is sim.runtime.records[span.index]

    def test_step_spans_partition_records(self):
        sim = small_sim()
        rec = sim.enable_tracing()
        sim.run(3)
        bounds = [(s.start_record, s.end_record) for s in rec.step_spans]
        assert bounds[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1][1] == len(sim.runtime.records)

    def test_level_runs_cover_all_kernels(self):
        sim = golden_sim(FUSED_FULL)
        rec = sim.enable_tracing()
        sim.run(2)
        runs = rec.level_runs()
        covered = sum(r.end_record - r.start_record for r in runs)
        assert covered == len(sim.runtime.records)
        # runs are single-level and nest inside their step's record range
        for r in runs:
            step = rec.step_spans[r.step]
            assert step.start_record <= r.start_record < r.end_record \
                <= step.end_record
            levels = {sim.runtime.records[i].level
                      for i in range(r.start_record, r.end_record)}
            assert levels == {r.level}

    def test_disable_and_reset(self):
        sim = small_sim()
        rec = sim.enable_tracing()
        sim.run(1)
        sim.runtime.reset()
        assert rec.kernel_spans == [] and rec.step_spans == []
        sim.disable_tracing()
        sim.run(1)
        assert rec.kernel_spans == []

    def test_spans_do_not_perturb_capture_or_results(self):
        """Span hooks change neither the captured stream nor the results."""
        from repro.backend.compiler import bind_stream

        rt = Runtime()
        SpanRecorder().install(rt)
        sim = small_sim(runtime=rt)
        sim.run(2)
        # the kernels that ran under spans are the captured stream, twice
        step = bind_stream(sim.stepper)[0]
        assert rt.records == step + step
        assert len(rt.spans.kernel_spans) == len(rt.records)

        # and the functional result is bit-identical with spans on
        plain = small_sim()
        plain.run(2)
        for lv in range(sim.num_levels):
            np.testing.assert_array_equal(
                sim.engine.levels[lv].f, plain.engine.levels[lv].f)

    def test_step_queries_do_not_rescan_the_trace(self):
        """A step span is built from the spans since the previous marker.

        The hook protocol is driven directly, about 2 000 steps of mostly
        one kernel (every 7th step two, on two levels; every 11th none).
        The step spans, ``spans_for_step`` and ``level_runs`` equal their
        definition over record ranges, and a late ``on_step`` reads no
        more of the kernel spans than an early one.
        """
        class CountingList(list):
            reads = 0

            def __iter__(self):
                for item in super().__iter__():
                    self.reads += 1
                    yield item

            def __getitem__(self, i):
                got = super().__getitem__(i)
                self.reads += len(got) if isinstance(i, slice) else 1
                return got

        def record(level):
            return KernelRecord(name="C", level=level, n_cells=1,
                                bytes_read=8, bytes_written=8,
                                reads=(), writes=())

        rec = SpanRecorder()
        rec.kernel_spans = spans = CountingList()
        index, t, bounds, reads = 0, 0.0, [], []
        for step in range(2000):
            start = index
            n = 0 if step % 11 == 0 else 2 if step % 7 == 0 else 1
            for k in range(n):
                rec.on_launch(index, record(k), t, 1e-6)
                index, t = index + 1, t + 2e-6
            before = spans.reads
            rec.on_step(step, start, index)
            reads.append(spans.reads - before)
            bounds.append((start, index))
        assert sum(reads[-100:]) <= 2 * sum(reads[:100])

        t1 = 0.0
        for k, (start, end) in enumerate(bounds):
            inside = [s for s in list.__iter__(spans) if start <= s.index < end]
            if inside:
                t0, t1 = inside[0].start_us, max(s.end_us for s in inside)
            else:
                t0 = t1
            assert rec.step_spans[k] == StepSpan(
                step=k, start_record=start, end_record=end,
                start_us=t0, end_us=t1)
            assert rec.spans_for_step(k) == inside
        assert sum(r.end_record - r.start_record
                   for r in rec.level_runs()) == index

class TestChromeTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        out = {}
        for name, cfg in (("base", MODIFIED_BASELINE), ("ours", FUSED_FULL)):
            sim = golden_sim(cfg)
            rec = sim.enable_tracing()
            sim.run(2)
            out[name] = (sim, rec)
        return out

    def test_round_trip_and_slice_per_record(self, traced):
        for sim, rec in traced.values():
            trace = json.loads(json.dumps(chrome_trace(rec)))
            assert validate_trace(trace, len(sim.runtime.records)) == []
            slices = [e for e in trace["traceEvents"]
                      if e.get("cat") == "kernel"]
            assert len(slices) == len(sim.runtime.records)
            by_index = {e["args"]["index"] for e in slices}
            assert by_index == set(range(len(sim.runtime.records)))

    def test_fig2_golden_slices_per_step(self, traced):
        def per_step(rec):
            trace = chrome_trace(rec)
            counts = {}
            for e in trace["traceEvents"]:
                if e.get("cat") == "kernel":
                    counts[e["args"]["step"]] = counts.get(e["args"]["step"], 0) + 1
            return counts
        assert per_step(traced["base"][1]) == {0: 29, 1: 29}
        assert per_step(traced["ours"][1]) == {0: 10, 1: 10}

    def test_slice_names_match_records(self, traced):
        sim, rec = traced["ours"]
        trace = chrome_trace(rec)
        for e in trace["traceEvents"]:
            if e.get("cat") == "kernel":
                r = sim.runtime.records[e["args"]["index"]]
                assert e["name"] == f"{r.name}{r.level}"

    def test_predicted_track_present(self, traced):
        _, rec = traced["ours"]
        trace = chrome_trace(rec)
        predicted = [e for e in trace["traceEvents"]
                     if e.get("cat") == "kernel-predicted"]
        observed = [e for e in trace["traceEvents"] if e.get("cat") == "kernel"]
        assert len(predicted) == len(observed)
        assert all(e["pid"] != observed[0]["pid"] for e in predicted)
        assert all(e["dur"] > 0 for e in predicted)
        # observed slices carry the skew vs the model
        assert all("predicted_us" in e["args"] for e in observed)

    def test_step_and_level_tracks(self, traced):
        _, rec = traced["ours"]
        trace = chrome_trace(rec)
        steps = [e for e in trace["traceEvents"] if e.get("cat") == "step"]
        levels = [e for e in trace["traceEvents"] if e.get("cat") == "level"]
        assert len(steps) == 2
        assert {e["args"]["level"] for e in levels} == {0, 1, 2}

    def test_streams_follow_wave_schedule(self, traced):
        _, rec = traced["base"]
        trace = chrome_trace(rec)
        slices = [e for e in trace["traceEvents"] if e.get("cat") == "kernel"]
        # the baseline schedule has real concurrency: >1 stream in use
        assert len({e["args"]["stream"] for e in slices}) >= 2
        # kernels sharing (step, wave) never share a stream
        seen = set()
        for e in slices:
            key = (e["args"]["step"], e["args"]["wave"], e["args"]["stream"])
            assert key not in seen
            seen.add(key)


class TestRunMetrics:
    def test_standard_metrics_published(self):
        sim = golden_sim(FUSED_FULL)
        rec = sim.enable_tracing()
        sim.run(2)
        m = run_metrics(sim, recorder=rec)
        assert all(type(v) in (int, float) for v in m.values())
        assert list(m) == sorted(m)
        assert m["kernels_per_step"] == pytest.approx(10.0)
        assert m["steps_total"] == 2
        assert m["bytes_per_step"] > 0
        assert m["atomic_bytes_total"] > 0
        assert "active_cells.L2" in m
        assert m["wave_depth"] > 0
        durs = [s.dur_us for s in rec.kernel_spans]
        assert len(durs) == len(sim.runtime.records)
        assert m["kernel_wall_us"] == pytest.approx(sum(durs) / len(durs))

    def test_steps_from_trace_not_steps_done(self):
        """After a warmup + reset, per-step metrics divide by traced steps."""
        sim = golden_sim(FUSED_FULL)
        sim.run(3)       # warmup
        sim.runtime.reset()
        sim.run(2)
        m = run_metrics(sim)
        assert m["steps_total"] == 2
        assert m["kernels_per_step"] == pytest.approx(10.0)


class TestMeasurementGuards:
    def make(self, steps):
        sim = small_sim()
        sim.run(steps)
        trace = list(sim.runtime.records)
        return Measurement(workload="w", config="c", steps=steps,
                           active_per_level=sim.mgrid.active_per_level(),
                           trace=trace, cost=cost_trace(trace, A100_40GB),
                           metrics=run_metrics(sim))

    def test_zero_steps_is_not_an_error(self):
        m = self.make(0)
        assert m.metrics["kernels_per_step"] == 0.0
        assert m.metrics["bytes_per_step"] == 0.0
        assert "wall_mlups" not in m.metrics  # no time, no rate
        json.dumps(m.summary())  # serializable digest
        # an empty trace has no device time either: no rate, no error
        wl = lid_cavity(**SMALL_WORKLOADS["cavity2d-2lvl"])
        empty = measure(wl, FUSED_FULL, steps=0, warmup=0)
        assert empty.steps == 0 and empty.metrics["sim_mlups"] == 0.0

    def test_nonzero_steps_unchanged(self):
        m = self.make(2)
        assert m.metrics["kernels_per_step"] == pytest.approx(
            m.cost.kernels / 2)
        assert m.metrics["bytes_per_step"] == pytest.approx(
            m.cost.bytes_total / 2)


class TestWatchdog:
    def test_healthy_run_reports_ok(self):
        sim = small_sim()
        wd = HealthWatchdog(sim)
        sim.run(4, callback=wd.callback)
        assert wd.checks_run == 4  # one check per coarse step
        assert wd.last_report["status"] == "ok"
        assert wd.last_report["levels"][0]["rho_max"] >= 1.0

    @staticmethod
    def _run_sabotaged(field, lv=1):
        """Four watched steps with a NaN put into level ``lv``'s ``field``
        after step 2 (``"scratch"``: the scratch its stream runs through)."""
        sim = small_sim()
        sim.enable_tracing()
        wd = HealthWatchdog(sim)

        def sabotage_then_check(stepper):
            if field is not None and stepper.steps_done == 2:
                arr = (next(a for key, a in sim.engine.scratch[lv].items()
                            if key != "accumulate")
                       if field == "scratch" else getattr(sim.engine.levels[lv], field))
                arr.flat[5] = np.nan            # f: q 0, cell 5
            wd.callback(stepper)

        sim.run(4, callback=sabotage_then_check)
        return sim, wd

    def test_nan_in_fstar_at_step_boundary_does_not_trip(self):
        # the post-collision values f* live in f during a step; the stream
        # runs through a scratch that is dead between coarse steps
        # (tests/test_live_state.py): a value nothing will read is not a
        # divergence
        from repro.serve.state import state_digest
        clean, _ = self._run_sabotaged(None)
        for lv in range(clean.num_levels):
            poisoned, wd = self._run_sabotaged("scratch", lv=lv)
            assert wd.checks_run == 4 and wd.last_report["status"] == "ok"
            assert state_digest(poisoned) == state_digest(clean)

    def test_nan_in_f_mid_run_fires_with_level_and_step(self):
        with pytest.raises(SimulationDiverged) as exc:
            self._run_sabotaged("f")
        p = exc.value.payload
        assert exc.value.level == 1 and p["level"] == 1
        assert exc.value.step == 2 and p["step"] == 2
        assert p["field"] == "f" and p["reason"] == "non-finite"
        assert p["cells"] == [5] and p["values"] == [None]
        # dump of the last spans: both steps' 4 kernels, under the cap
        assert len(p["spans"]) == 8 < LAST_N_SPANS
        assert p["positions"]                # offending cell coordinates

    def test_inf_in_f_propagates_and_fires(self):
        sim = small_sim()
        wd = HealthWatchdog(sim)
        sim.run(1, callback=wd.callback)
        sim.engine.levels[0].f[3, 7] = np.inf
        with pytest.raises(SimulationDiverged) as exc:
            with np.errstate(invalid="ignore", over="ignore"):
                sim.run(3, callback=wd.callback)
        assert exc.value.reason == "non-finite"

    def test_density_bounds(self):
        sim = small_sim()
        sim.run(1)
        wd = HealthWatchdog(sim)
        buf = sim.engine.levels[0]
        buf.f[:, :buf.n_owned] *= 10.0       # rho ~ 10 everywhere
        with pytest.raises(SimulationDiverged) as exc:
            wd.check()
        assert exc.value.reason == "density-bounds"
        assert exc.value.payload["field"] == "rho"
        assert RHO_BOUNDS[1] < 10.0
        assert all(v == pytest.approx(10.0, rel=0.1)
                   for v in exc.value.payload["values"])

    def test_velocity_bound(self):
        sim = small_sim()
        sim.run(1)
        wd = HealthWatchdog(sim)
        # Three extra units of rest density moving along +x on one cell:
        # rho ~ 4 stays in bounds, |u| ~ 0.75 exceeds c_s.
        lat = sim.engine.lat
        qx = next(q for q, e in enumerate(lat.e) if tuple(e) == (1, 0))
        sim.engine.levels[0].f[qx, 3] += 3.0
        with pytest.raises(SimulationDiverged) as exc:
            wd.check()
        assert exc.value.reason == "velocity-bound"
        p = exc.value.payload
        assert p["field"] == "u" and p["level"] == 0 and p["cells"] == [3]
        assert p["values"][0] > CS_LATTICE

    #: level-1 faults put in after step 2: a NaN, rho ~ 10, |u| ~ 0.75
    FAULTS = {
        "non-finite": lambda f, qx: f.__setitem__((0, 5), np.nan),
        "density-bounds": lambda f, qx: f.__imul__(10.0),
        "velocity-bound": lambda f, qx: f.__setitem__((qx, 3), f[qx, 3] + 3.0),
    }

    @pytest.mark.parametrize("reason", FAULTS)
    def test_float32_scan_catches_what_float64_does(self, reason):
        # the scan runs in the populations' dtype, no float64 copy of a
        # float32 level; each fault still trips at the same step and cells
        caught = {}
        for dtype in ("float64", "float32"):
            sim = small_sim(dtype=dtype)
            wd = HealthWatchdog(sim)
            qx = next(q for q, e in enumerate(sim.lattice.e) if tuple(e) == (1, 0))
            scans = list(sim.engine.health_scan())
            assert all(s["rho"].dtype == np.dtype(dtype) for s in scans)

            def inject_then_check(stepper, sim=sim, wd=wd, qx=qx):
                if stepper.steps_done == 2:
                    self.FAULTS[reason](sim.engine.levels[1].f, qx)
                wd.callback(stepper)
            with pytest.raises(SimulationDiverged) as exc:
                sim.run(4, callback=inject_then_check)
            p = exc.value.payload
            caught[dtype] = (exc.value.step, exc.value.level, exc.value.reason,
                             p["field"], p["cells"])
        assert caught["float32"] == caught["float64"]
        assert caught["float32"][:3] == (2, 1, reason)

    def test_registry_integration(self):
        """A check's readings are its report: kept in ``last_report`` and
        logged as one ``watchdog`` line per check."""
        sim = small_sim()
        wd = HealthWatchdog(sim)
        log = EventLog(run_id="wd")
        sim.run(2, callback=lambda _: log.ingest_watchdog(report=wd.check()))
        rep = wd.last_report
        assert rep["checks_run"] == 2 and rep["step"] == 2
        assert [s["level"] for s in rep["levels"]] == [0, 1]
        for s in rep["levels"]:
            assert RHO_BOUNDS[0] < s["rho_min"] <= s["rho_max"] < RHO_BOUNDS[1]
            assert 0 <= s["u_max"] < CS_LATTICE
        lines = [ln["data"] for ln in log.lines]
        assert [ln["checks_run"] for ln in lines] == [1, 2]
        assert lines[-1]["levels"] == rep["levels"]


class TestObsCli:
    """``python -m repro report``: one telemetry command, all artifacts."""

    def test_smoke_cavity2d_2lvl(self, tmp_path, capsys):
        rc = report_main(["--workload", "cavity2d-2lvl", "--config",
                          "ours-4f", "--steps", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        trace = json.loads(
            (tmp_path / "trace_cavity2d-2lvl_ours-4f.json").read_text())
        report = json.loads(
            (tmp_path / "report_cavity2d-2lvl_ours-4f.json").read_text())
        assert validate_trace(trace, report["n_records"]) == []
        assert report["status"]["status"] == "ok"
        assert "wall_mlups" in report["metrics"]
        assert (tmp_path / "events_cavity2d-2lvl_ours-4f.jsonl").exists()
        assert not list(tmp_path.glob("metrics_*.json"))
        assert "trace OK" in capsys.readouterr().out

    def test_golden_kernel_counts_by_config(self, tmp_path, capsys):
        for config, expect in (("ours-4f", 10), ("baseline-4b", 29)):
            rc = report_main(["--workload", "cavity2d", "--config", config,
                              "--steps", "2", "--out-dir", str(tmp_path)])
            assert rc == 0
            assert f"({expect} kernels/step)" in capsys.readouterr().out
            report = json.loads(
                (tmp_path / f"report_cavity2d_{config}.json").read_text())
            assert report["kernels_per_step"] == [expect, expect]

    def test_unknown_config_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            report_main(["--config", "nope", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_obs_is_not_a_subcommand(self, capsys):
        from repro.cli import SUBCOMMANDS, main
        assert main(["obs"]) == 2
        assert "unknown subcommand 'obs'" in capsys.readouterr().err
        assert sorted(SUBCOMMANDS) == ["analysis", "history", "report",
                                       "resilience", "serve"]


def _report_cli(out_dir, monkeypatch):
    """``repro report`` on an empty trace, with a stub drift sweep."""
    monkeypatch.setattr("repro.obs.cli.drift_report", lambda **kw: DriftReport(
        device="A100-40GB", factor=3.0, entries=(), findings=()))
    report_main(["--workload", "cavity2d-2lvl", "--steps", "0", "--drift",
                 "--out-dir", str(out_dir)])


WHOLE_FILE_WRITERS = {
    "cert.json": lambda d, mp: write_certificate({"a": 1}, d / "cert.json"),
    "BENCH_x.json": lambda d, mp: write_bench_json("x", {"a": 1},
                                                   out_dir=str(d)),
    "trace_cavity2d-2lvl_ours-4f.json": _report_cli,
    "report_cavity2d-2lvl_ours-4f.json": _report_cli,
    "report_cavity2d-2lvl_ours-4f.html": _report_cli,
    "events_cavity2d-2lvl_ours-4f.jsonl": _report_cli,
    "drift_report.json": _report_cli,
}


@pytest.mark.parametrize("name", sorted(WHOLE_FILE_WRITERS))
def test_whole_file_writers_are_atomic(name, tmp_path, monkeypatch):
    # A write that fails before it lands leaves the previous file
    # byte-identical and no partial file behind.
    path = tmp_path / name
    path.write_bytes(b"previous\n")
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        WHOLE_FILE_WRITERS[name](tmp_path, monkeypatch)
    assert path.read_bytes() == b"previous\n"
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
