"""Performance observatory: roofline join, drift sweep, the record of
ledger comparisons, unified event log and the ``obs report`` CLI.

Covers:

* the roofline/drift report runs on **all 7 fusion configs**, 2D and 3D;
* ``BENCH_HISTORY.jsonl`` appends stay whole lines under concurrent
  writers, and ``python -m repro history`` prints every recorded ledger
  comparison as a parent → change pair (old and new record shapes alike);
* the report CLI degrades gracefully on an empty trace, a trace
  truncated mid-step by a failed kernel, and a restored-from-checkpoint
  run (no double-counting of pre-restore steps).
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench.history import append_record, build_record, load_history
from repro.bench.history import main as history_main
from repro.bench.workloads import lid_cavity
from repro.core.fusion import ABLATION_CONFIGS, FUSED_FULL, ORIGINAL_BASELINE
from repro.core.simulation import Simulation
from repro.gpu.device import A100_40GB
from repro.gpu.memory import memory_ledger
from repro.io.checkpoint import restore_checkpoint, save_checkpoint
from repro.obs.cli import main as report_main
from repro.obs.log import EventLog, read_log, split_runs, validate_log
from repro.obs.report import (collect_report, render_html, render_text,
                              write_report)
from repro.obs.roofline import (DRIFT_WORKLOADS, drift_findings, drift_report,
                                kernel_rooflines, roofline_summary)
from repro.resilience import Fault, FaultInjector, InjectedKernelError

ALL_CONFIGS = (ORIGINAL_BASELINE,) + ABLATION_CONFIGS


def read_json(path):
    return json.loads(Path(path).read_text())


def small_sim(config=FUSED_FULL):
    wl = lid_cavity(base=(16, 16), num_levels=2, lattice="D2Q9")
    return Simulation.from_config(wl.spec, wl.sim_config(fusion=config))


def traced_run(config=FUSED_FULL, steps=2):
    sim = small_sim(config)
    recorder = sim.enable_tracing()
    with sim:
        sim.run(steps)
    return sim, recorder


# -- roofline accounting -------------------------------------------------------

class TestRoofline:
    def test_join_covers_every_span(self):
        sim, rec = traced_run()
        joined = kernel_rooflines(rec)
        assert len(joined) == len(rec.kernel_spans) == len(sim.runtime.records)
        for k in joined:
            assert k.bytes_total > 0
            assert k.observed_us > 0
            assert k.predicted_us > 0
            assert k.achieved_bw == pytest.approx(
                k.bytes_total / k.observed_us)

    def test_summary_totals_and_fraction(self):
        _, rec = traced_run()
        s = roofline_summary(rec)
        assert s.kernels == len(rec.kernel_spans)
        assert s.bytes_total == sum(sp.record.bytes_total
                                    for sp in rec.kernel_spans)
        assert s.median_skew > 0
        # NumPy host is far below A100 sustained bandwidth.
        assert 0 < s.achieved_fraction < 1
        assert s.achieved_bw == pytest.approx(s.bytes_total / s.observed_us)
        # Family norm-skews are centred on the run median: some <= 1 <= some.
        norms = [f.norm_skew for f in s.families]
        assert min(norms) <= 1.0 <= max(norms)

    def test_per_step_bandwidth_partitions_the_trace(self):
        _, rec = traced_run(steps=3)
        s = roofline_summary(rec)
        assert len(s.steps) == 3
        assert sum(st.bytes_total for st in s.steps) == s.bytes_total

    def test_drift_findings_factor_validation(self):
        _, rec = traced_run()
        s = roofline_summary(rec)
        with pytest.raises(ValueError):
            drift_findings(s, factor=1.0)

    def test_drift_findings_flag_outliers_both_ways(self):
        _, rec = traced_run()
        s = roofline_summary(rec)
        # A tight factor with no noise floor must flag the extremes...
        tight = drift_findings(s, factor=1.01, min_observed_us=0.0)
        norms = [f.norm_skew for f in s.families]
        if any(n > 1.01 or n < 1 / 1.01 for n in norms):
            assert tight
        # ...and an absurdly loose factor must flag nothing.
        assert drift_findings(s, factor=1e9, min_observed_us=0.0) == []

    def test_min_observed_us_suppresses_timer_noise(self):
        _, rec = traced_run()
        s = roofline_summary(rec)
        assert drift_findings(s, factor=1.01, min_observed_us=1e12) == []


class TestDriftSweep:
    """Acceptance: roofline/drift runs on all 7 configs, 2D and 3D."""

    def test_sweep_covers_all_configs_2d_and_3d(self):
        dr = drift_report(steps=2)
        seen = {(e["workload"], e["config"]) for e in dr.entries}
        expected = {(wl, cfg.name) for wl in DRIFT_WORKLOADS
                    for cfg in ALL_CONFIGS}
        assert seen == expected
        assert len(dr.entries) == 2 * 7
        for e in dr.entries:
            s = e["summary"]
            assert s.kernels > 0 and s.bytes_total > 0
            assert s.observed_us > 0 and s.median_skew > 0
        # Findings (if any) refer to swept entries and serialize cleanly.
        for f in dr.findings:
            assert (f.workload, f.config) in seen
            assert f.norm_skew > f.factor or f.norm_skew < 1 / f.factor
        json.dumps(dr.as_dict())


# -- bench history: the record of ledger comparisons ----------------------------

class TestHistoryRecords:
    def test_build_record_provenance(self):
        rec = build_record("b", {"wall_seconds": 1.0}, sha="abc")
        assert rec["v"] == 1
        assert rec["git_sha"] == "abc"
        assert rec["host"]["id"]

    def test_append_and_load_roundtrip_skips_torn_lines(self, tmp_path):
        p = str(tmp_path / "BENCH_HISTORY.jsonl")
        append_record(build_record("b", {"wall_seconds": 1.0}), p)
        with open(p, "a") as fh:
            fh.write('{"torn": \n')   # interrupted writer
        append_record(build_record("b", {"wall_seconds": 1.1}), p)
        recs = load_history(p)
        assert len(recs) == 2
        assert [r["metrics"]["wall_seconds"] for r in recs] == [1.0, 1.1]

    def test_append_after_a_torn_tail_keeps_the_record(self, tmp_path):
        # A writer killed mid-line leaves no newline; the next record must
        # not run on from the fragment (load_history would drop both).
        p = tmp_path / "BENCH_HISTORY.jsonl"
        append_record(build_record("a", {"wall_seconds": 1.0}), str(p))
        with open(p, "a") as fh:
            fh.write('{"v": 1, "bench": "torn')
        append_record(build_record("b", {"wall_seconds": 2.0}), str(p))
        assert [r["bench"] for r in load_history(str(p))] == ["a", "b"]
        assert p.read_text().splitlines()[1] == '{"v": 1, "bench": "torn'

    def test_append_is_one_unbuffered_o_append_write(self, tmp_path,
                                                     monkeypatch):
        # PR-9 regression: buffered text-mode appends left record
        # atomicity to the io stack's flushing whims; the contract is a
        # single os.write of the whole line on an O_APPEND fd.
        rec = build_record("b", {"wall_seconds": 1.0}, sha="abc")
        real_open, real_write = os.open, os.write
        opened_flags, writes = {}, []

        def spy_open(path, flags, *a, **k):
            fd = real_open(path, flags, *a, **k)
            opened_flags[fd] = flags
            return fd

        def spy_write(fd, data):
            writes.append((fd, bytes(data)))
            return real_write(fd, data)

        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "write", spy_write)
        p = append_record(rec, str(tmp_path / "h.jsonl"))
        assert len(writes) == 1
        fd, data = writes[0]
        assert opened_flags[fd] & os.O_APPEND
        assert data.endswith(b"\n")
        assert json.loads(data)["bench"] == "b"
        assert load_history(p)[0]["git_sha"] == "abc"

    def test_append_locks_lines_beyond_pipe_buf(self, tmp_path, monkeypatch):
        import repro.obs.log as log
        # append_record takes the lock in obs.log.append_lines
        if log.fcntl is None:
            pytest.skip("no fcntl on this platform")
        locked = []
        real_flock = log.fcntl.flock
        monkeypatch.setattr(
            log.fcntl, "flock",
            lambda fd, op: (locked.append(op), real_flock(fd, op))[1])
        p = str(tmp_path / "h.jsonl")
        append_record(build_record("b", {"wall_seconds": 1.0}, sha="a"), p)
        assert locked == []  # short line: O_APPEND alone is atomic
        big = build_record("b", {"wall_seconds": 1.0}, sha="a",
                           labels={"blob": "x" * (2 * log._PIPE_BUF)})
        append_record(big, p)
        assert locked == [log.fcntl.LOCK_EX]
        assert len(load_history(p)) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork()")
    def test_concurrent_appends_keep_records_whole(self, tmp_path):
        # Parallel CI legs and mp workers append to one trajectory; the
        # reader must only ever see whole records, even for lines far
        # beyond any stdio buffer size.
        p = str(tmp_path / "h.jsonl")
        n_proc, n_rec = 4, 12
        blob = "x" * 32768
        pids = []
        for w in range(n_proc):
            pid = os.fork()
            if pid == 0:
                try:
                    for i in range(n_rec):
                        append_record(build_record(
                            f"w{w}", {"wall_seconds": float(i + 1)},
                            labels={"blob": blob}, sha="f" * 8), p)
                    os._exit(0)
                except BaseException:
                    os._exit(1)
            pids.append(pid)
        assert all(os.waitpid(pid, 0)[1] == 0 for pid in pids)
        lines = Path(p).read_text().splitlines()
        assert len(lines) == n_proc * n_rec
        for line in lines:
            assert json.loads(line)["labels"]["blob"] == blob
        assert len(load_history(p)) == n_proc * n_rec

    def test_bench_out_dir_defaults_to_repo_root(self, monkeypatch):
        from repro.bench.history import repo_root
        from repro.obs.metrics import bench_out_dir
        monkeypatch.delenv("BENCH_OUT_DIR", raising=False)
        assert bench_out_dir() == repo_root()
        assert os.path.exists(os.path.join(bench_out_dir(),
                                           "pyproject.toml"))
        monkeypatch.setenv("BENCH_OUT_DIR", "/tmp/elsewhere")
        assert bench_out_dir() == "/tmp/elsewhere"


LEDGER_WORKLOADS = ("cavity3d-steady", "sphere-kbc-unfused",
                    "coldstart-mix", "serve-flood")


def pair_lines(out: str, pr: str) -> dict[str, str]:
    """bench -> the printed ``PR <pr> <bench> @ sha: ...`` line."""
    lines = {}
    for line in out.splitlines():
        head = line.strip().split(" @ ")[0].split(" ")
        if head[:2] == ["PR", pr] and len(head) == 3:
            lines[head[2]] = line
    return lines


class TestHistoryPairs:
    def test_committed_history_prints_every_ledger_pair(self, capsys):
        assert history_main([]) == 0
        out = capsys.readouterr().out
        # Every `pr` label from 21 to 31 (no record carries 23) holds one
        # comparison per ledger workload.
        for pr in [21, 22] + list(range(24, 32)):
            lines = pair_lines(out, str(pr))
            for w in LEDGER_WORKLOADS:
                assert "→" in lines[f"ledger-{w}"], (pr, w)

    def test_old_and_new_shapes_pair_and_unlabelled_is_counted(
            self, tmp_path, capsys):
        p = str(tmp_path / "h.jsonl")

        def old_shape(side, mlups, rss):
            # As appended before the record carried BENCHMARK.json names.
            return {"v": 1, "bench": "ledger-w", "git_sha": "a" * 40,
                    "backend": "compiled", "bandwidth": {},
                    "labels": {"pr": "31", "side": side, "peak_rss_mb": rss},
                    "metrics": {"end_to_end.mlups": mlups,
                                "end_to_end.wall_seconds": 1.0 / mlups}}

        append_record(old_shape("parent", 10.0, "117.6"), p)
        append_record(old_shape("change", 11.0, "109.5"), p)
        for side, rss in (("parent", 110.0), ("change", 99.0)):
            append_record(build_record(
                "ledger-w", {"setup_s": 0.2, "mlups": 10.0,
                             "op_p50_s": 0.05, "peak_rss_mb": rss},
                labels={"pr": "32", "side": side, "backend": "compiled"},
                sha="b" * 40), p)
        # What a figure benchmark used to append: no pr / side labels.
        append_record(build_record("fig2_kernel_graph", {}, sha="c" * 40), p)

        assert history_main(["--path", p]) == 0
        out = capsys.readouterr().out
        assert "5 record(s), 2 pair(s) over 2 PR(s), 1 unpaired" in out
        old = pair_lines(out, "31")["ledger-w"]
        assert "end_to_end.mlups 10 → 11 (×1.100)" in old
        assert "peak_rss_mb" not in old     # a string label, not a metric
        new = pair_lines(out, "32")["ledger-w"]
        assert "peak_rss_mb 110 → 99 (×0.900)" in new
        assert "mlups 10 → 10 (×1.000)" in new

        assert history_main(["--path", p, "--tail", "1"]) == 0
        out = capsys.readouterr().out
        assert pair_lines(out, "31") == {} and pair_lines(out, "32")


# -- unified event log ---------------------------------------------------------

class TestEventLog:
    def test_roundtrip_and_validate(self, tmp_path):
        sim, rec = traced_run()
        log = EventLog(run_id="r1", tenant="t0", workload="cavity")
        log.emit("meta", purpose="test")
        log.ingest_spans(rec)
        from repro.obs.metrics import run_metrics
        log.ingest_metrics(run_metrics(sim, recorder=rec))
        p = str(tmp_path / "events.jsonl")
        log.write(p)
        lines = read_log(p)
        assert len(lines) == len(log)
        assert validate_log(lines) == []
        kinds = {ln["kind"] for ln in lines}
        assert {"meta", "kernel", "step", "metric"} <= kinds
        for ln in lines:
            assert ln["run"]["id"] == "r1"
            assert ln["run"]["tenant"] == "t0"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog(run_id="x").emit("bogus")

    def test_seq_strictly_increasing_per_run(self, tmp_path):
        log = EventLog(run_id="a")
        for _ in range(5):
            log.note("tick")
        lines = log.lines
        assert [ln["seq"] for ln in lines] == sorted(
            {ln["seq"] for ln in lines})
        assert validate_log(lines) == []

    def test_split_runs_on_shared_sink(self, tmp_path):
        p = str(tmp_path / "events.jsonl")
        a, b = EventLog(run_id="a"), EventLog(run_id="b", tenant="t1")
        a.note("from a")
        b.note("from b")
        b.note("again")
        a.write(p)
        b.write(p)                      # append: multi-tenant shared sink
        lines = read_log(p)
        runs = split_runs(lines)
        assert set(runs) == {"a", "b"}
        assert len(runs["a"]) == 1 and len(runs["b"]) == 2
        assert validate_log(lines) == []

    def test_append_terminates_a_torn_tail(self, tmp_path, monkeypatch):
        # a writer killed mid-line: the next append ends that line first,
        # in its one write, so only the fragment is lost
        p = tmp_path / "events.jsonl"
        p.write_text('{"v": 1, "ru')
        log = EventLog(run_id="a")
        log.note("one")
        log.note("two")
        writes = []
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: (
            writes.append(bytes(data)), real_write(fd, data))[1])
        log.write(str(p))
        assert writes == [b"\n" + log.dump().encode()]
        lines = read_log(str(p))
        assert [ln["data"]["message"] for ln in lines] == ["one", "two"]
        log.write(str(p))                   # a whole tail is left alone
        assert len(p.read_text().splitlines()) == 5

    def test_validate_flags_corruption(self):
        log = EventLog(run_id="a")
        log.note("fine")
        lines = log.lines
        bad = [dict(lines[0], v=99)]
        assert validate_log(bad)
        bad = [dict(lines[0], kind="nonsense")]
        assert validate_log(bad)


# -- report CLI edge cases -----------------------------------------------------

class TestReportEdgeCases:
    def test_empty_trace_renders(self):
        sim = small_sim()
        rec = sim.enable_tracing()       # zero steps: nothing recorded
        rep = collect_report(sim, rec, workload="empty")
        assert rep.steps == 0
        assert rep.n_records == 0
        assert rep.roofline is None
        assert not rep.partial_step
        text = render_text(rep)
        assert "empty trace" in text
        html = render_html(rep)
        assert "Run report" in html
        json.dumps(rep.as_dict(), default=str)

    def test_empty_trace_via_cli(self, tmp_path, capsys):
        out = str(tmp_path)
        code = report_main(["--workload", "cavity2d-2lvl", "--steps", "0",
                            "--out-dir", out])
        assert code == 0
        assert "empty trace" in capsys.readouterr().out
        assert os.path.exists(
            os.path.join(out, "report_cavity2d-2lvl_ours-4f.json"))

    def test_truncated_mid_step_by_failed_kernel(self):
        # Target the *last* kernel of a step: the failing launch's own
        # record is rolled back, so earlier launches of the same step
        # are what makes the trace end mid-step.
        probe = small_sim()
        with probe:
            probe.run(1)
        last = probe.runtime.last_step()[-1]
        assert len(probe.runtime.last_step()) > 1

        sim = small_sim()
        rec = sim.enable_tracing()
        inj = FaultInjector([Fault("kernel", step=2, kernel=last.name,
                                   level=last.level)])
        inj.install(sim)
        with sim:
            sim.run(1)
            with pytest.raises(InjectedKernelError):
                sim.run(1)
        # Stepper.step closed the aborted partial step with a marker but
        # did not count it as done: one more marker than completed steps,
        # and the partial step is shorter than a full one.
        assert sim.steps_done == 1
        assert len(sim.runtime.markers) == 2
        per = [b - a for a, b in zip([0] + sim.runtime.markers,
                                     sim.runtime.markers)]
        assert per[1] < per[0]
        rep = collect_report(sim, rec, workload="truncated",
                             status={"status": "failed",
                                     "payload": {"reason": "injected"}})
        assert rep.partial_step
        assert rep.steps == 1            # only the complete step counts
        text = render_text(rep)
        assert "trace truncated mid-step" in text
        assert "truncated mid-step" in render_html(rep)
        # Roofline still joins whatever spans exist.
        assert rep.roofline is not None
        assert rep.roofline.kernels == len(rec.kernel_spans)

    def test_restored_run_does_not_double_count(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        pre = small_sim()
        with pre:
            pre.run(2)
            save_checkpoint(pre, ck)

        sim = small_sim()
        rec = sim.enable_tracing()
        restore_checkpoint(sim, ck)      # rebases: steps_base = 2
        assert sim.steps_done == 2
        assert sim.runtime.steps_base == 2
        with sim:
            sim.run(2)
        rep = collect_report(sim, rec, workload="restored")
        # Only the 2 post-restore steps are traced; per-step metrics must
        # average over them, not over steps_done = 4.
        assert rep.steps == 2
        assert sim.steps_done == 4
        per_step = rep.metrics["kernels_per_step"]
        assert per_step == pytest.approx(rep.n_records / 2)
        assert not rep.partial_step
        render_text(rep)

    def test_report_cli_writes_artifacts_and_event_log(self, tmp_path,
                                                       capsys):
        out = str(tmp_path)
        code = report_main(["--workload", "cavity2d-2lvl", "--steps", "2",
                            "--out-dir", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "roofline" in stdout
        assert "stream digest" in stdout
        rep = read_json(os.path.join(out, "report_cavity2d-2lvl_ours-4f.json"))
        assert rep["steps"] == 2
        assert rep["certificate"]["stream_digest"]
        assert (rep["metrics"]["arena_peak_bytes"]
                == rep["lint"]["touched_bytes"] > 0)
        html = Path(out, "report_cavity2d-2lvl_ours-4f.html").read_text()
        assert "Roofline" in html
        lines = read_log(os.path.join(out,
                                      "events_cavity2d-2lvl_ours-4f.jsonl"))
        assert validate_log(lines) == []
        assert len({ln["run"]["id"] for ln in lines}) == 1
        assert all(ln["run"]["workload"] == "cavity2d-2lvl"
                   and ln["run"]["config"] == "ours-4f" for ln in lines)
        # One watchdog line per check, the last of them in the report; one
        # metric line, closing the log, equal to the report's metrics.
        checks = [ln["data"] for ln in lines if ln["kind"] == "watchdog"]
        assert [c["checks_run"] for c in checks] == [1, 2]
        assert rep["watchdog"]["levels"] == checks[-1]["levels"]
        assert rep["watchdog"]["checks_run"] == 2
        assert [ln["kind"] for ln in lines].count("metric") == 1
        assert lines[-1]["kind"] == "metric"
        assert lines[-1]["data"]["values"] == rep["metrics"]

    def test_report_written_files_roundtrip(self, tmp_path):
        sim, rec = traced_run()
        rep = collect_report(sim, rec, workload="w")
        paths = write_report(rep, "w_case", str(tmp_path))
        loaded = read_json(paths["json"])
        assert loaded["workload"] == "w"
        assert loaded["roofline"]["kernels"] == rep.roofline.kernels
        assert loaded["memory"]["total"] == sum(memory_ledger(sim.engine).values())
        assert Path(paths["html"]).read_text().startswith("<!doctype html>")
