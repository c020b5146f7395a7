"""Observability layer: spans, Perfetto export, metrics, watchdog, CLI."""

import json

import numpy as np
import pytest

from repro.bench.harness import Measurement
from repro.bench.workloads import lid_cavity
from repro.core.fusion import FUSED_FULL, MODIFIED_BASELINE
from repro.core.simulation import Simulation
from repro.gpu.costmodel import TraceCost
from repro.gpu.device import A100_40GB
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec
from repro.neon.runtime import Runtime
from repro.obs import (HealthWatchdog, MetricsRegistry, SimulationDiverged,
                       SpanRecorder, chrome_trace, run_metrics, validate_trace,
                       write_bench_json)
from repro.obs.cli import main as obs_main


def small_sim(config=FUSED_FULL, runtime=None):
    wl = lid_cavity(base=(20, 20), num_levels=2, lattice="D2Q9")
    return Simulation.from_config(wl.spec, lattice=wl.lattice,
                                  collision=wl.collision,
                                  viscosity=wl.viscosity, fusion=config,
                                  runtime=runtime)


def golden_sim(config):
    """The Fig. 2 golden setup (29 baseline / 10 fused kernels per step)."""
    base = (24, 24)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.05, 0.0))})
    spec = RefinementSpec(base, wall_refinement(base, 3, [7.0, 2.0]), bc=bc)
    return Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                  viscosity=0.05, fusion=config)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("launches").inc()
        reg.counter("launches").inc(4)
        reg.gauge("mlups").set(123.5)
        h = reg.histogram("dur")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert reg["launches"].value == 5
        assert reg["mlups"].value == 123.5
        assert h.count == 3 and h.min == 1.0 and h.max == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_counter_never_decreases(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_series(self):
        reg = MetricsRegistry()
        g = reg.gauge("cells")
        for step in range(3):
            g.set(step * 10)
            reg.snapshot(step=step)
        assert len(reg.snapshots) == 3
        assert reg.snapshots[2]["labels"] == {"step": 2}
        assert reg.snapshots[2]["metrics"]["cells"]["value"] == 20
        json.loads(reg.to_json())  # serializable

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
        """Analysis gate stays green with span hooks installed."""
        from repro.analysis.races import detect_races
        from repro.analysis.verify import verify_trace
        from repro.neon.graph import build_dependency_graph, schedule_waves

        rt = Runtime()
        SpanRecorder().install(rt)
        rt.capture_start()
        sim = small_sim(runtime=rt)
        sim.run(2)
        captured = rt.capture_stop()
        findings = verify_trace(rt.records, captured)
        waves = schedule_waves(build_dependency_graph(rt.records, reduce=False))
        races = detect_races(rt.records, captured, waves)
        assert findings == [] and races == []
        assert len(rt.spans.kernel_spans) == len(rt.records)

        # and the functional result is bit-identical with spans on
        plain = small_sim()
        plain.run(2)
        for lv in range(sim.num_levels):
            np.testing.assert_array_equal(
                sim.engine.levels[lv].f, plain.engine.levels[lv].f)


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
        reg = run_metrics(sim, recorder=rec)
        assert reg["kernels_per_step"].value == pytest.approx(10.0)
        assert reg["steps_total"].value == 2
        assert reg["bytes_per_step"].value > 0
        assert reg["atomic_bytes_total"].value > 0
        assert "active_cells.L2" in reg
        assert reg["wave_depth"].value > 0
        assert reg["kernel_wall_us"].count == len(sim.runtime.records)

    def test_steps_from_trace_not_steps_done(self):
        """After a warmup + reset, per-step metrics divide by traced steps."""
        sim = golden_sim(FUSED_FULL)
        sim.run(3)       # warmup
        sim.runtime.reset()
        sim.run(2)
        reg = run_metrics(sim)
        assert reg["steps_total"].value == 2
        assert reg["kernels_per_step"].value == pytest.approx(10.0)


class TestMeasurementGuards:
    def make(self, steps):
        cost = TraceCost(total_us=10.0, launch_us=1.0, mem_us=9.0, kernels=7,
                         bytes_total=1000, device=A100_40GB)
        return Measurement(workload="w", config="c", steps=steps,
                           active_per_level=[10], wall_seconds=0.0,
                           wall_mlups=0.0, trace=[], cost=cost, sim_mlups=0.0)

    def test_zero_steps_is_not_an_error(self):
        m = self.make(0)
        assert m.kernels_per_step == 0.0
        assert m.bytes_per_step == 0.0
        json.dumps(m.summary())  # serializable digest

    def test_nonzero_steps_unchanged(self):
        m = self.make(2)
        assert m.kernels_per_step == pytest.approx(3.5)
        assert m.bytes_per_step == pytest.approx(500.0)


class TestWatchdog:
    def test_healthy_run_reports_ok(self):
        sim = small_sim()
        wd = HealthWatchdog(sim, every=2)
        sim.run(4, callback=wd.callback)
        assert wd.checks_run == 2  # cadence honoured
        assert wd.last_report["status"] == "ok"
        assert wd.last_report["levels"][0]["rho_max"] >= 1.0

    @staticmethod
    def _run_sabotaged(field):
        """Four watched steps with a NaN put into ``field`` after step 2."""
        sim = small_sim()
        sim.enable_tracing()
        wd = HealthWatchdog(sim, every=1, last_n_spans=4)

        def sabotage_then_check(stepper):
            if field is not None and stepper.steps_done == 2:
                getattr(sim.engine.levels[1], field)[0, 5] = np.nan
            wd.callback(stepper)

        sim.run(4, callback=sabotage_then_check)
        return sim, wd

    def test_nan_in_fstar_at_step_boundary_does_not_trip(self):
        # fstar is dead between coarse steps (tests/test_live_state.py):
        # a value nothing will read is not a divergence.
        from repro.serve.state import state_digest
        clean, _ = self._run_sabotaged(None)
        poisoned, wd = self._run_sabotaged("fstar")
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
        assert len(p["spans"]) == 4          # diagnostic dump of last spans
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
        wd = HealthWatchdog(sim, rho_bounds=(0.9, 1.1))
        buf = sim.engine.levels[0]
        buf.f[:, :buf.n_owned] *= 2.0        # rho ~ 2 everywhere
        with pytest.raises(SimulationDiverged) as exc:
            wd.check()
        assert exc.value.reason == "density-bounds"
        assert exc.value.payload["field"] == "rho"
        assert all(v == pytest.approx(2.0, rel=0.1)
                   for v in exc.value.payload["values"])

    def test_velocity_bound(self):
        sim = small_sim()
        sim.run(1)
        wd = HealthWatchdog(sim, max_velocity=1e-9)
        with pytest.raises(SimulationDiverged) as exc:
            wd.check()
        assert exc.value.reason == "velocity-bound"

    def test_registry_integration(self):
        reg = MetricsRegistry()
        sim = small_sim()
        wd = HealthWatchdog(sim, registry=reg)
        sim.run(2, callback=wd.callback)
        assert reg["watchdog_checks"].value == 2
        assert "rho_max.L0" in reg and "u_max.L1" in reg

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            HealthWatchdog(small_sim(), every=0)


class TestObsCli:
    def test_smoke_cavity2d_2lvl(self, tmp_path, capsys):
        rc = obs_main(["--workload", "cavity2d-2lvl", "--config", "case",
                       "--steps", "2", "--out", str(tmp_path)])
        assert rc == 0
        trace = json.loads(
            (tmp_path / "trace_cavity2d-2lvl_ours-4f.json").read_text())
        metrics = json.loads(
            (tmp_path / "metrics_cavity2d-2lvl_ours-4f.json").read_text())
        assert validate_trace(trace, metrics["n_records"]) == []
        assert metrics["watchdog"]["status"] == "ok"
        assert "wall_mlups" in metrics["metrics"]["metrics"]
        assert "trace OK" in capsys.readouterr().out

    def test_golden_kernel_counts_by_config(self, tmp_path, capsys):
        for alias, expect in (("case", 10), ("baseline", 29)):
            rc = obs_main(["--workload", "cavity2d", "--config", alias,
                           "--steps", "2", "--out", str(tmp_path)])
            assert rc == 0
            out = capsys.readouterr().out
            assert f"kernels/step : {expect:.1f}" in out

    def test_unknown_config_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            obs_main(["--config", "nope", "--out", str(tmp_path)])
        assert exc.value.code == 2
