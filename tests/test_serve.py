"""The job server: admission, fairness, durability, chaos, bit-identity.

The acceptance bar this suite enforces (DESIGN.md §16):

* a flood of >= 20 concurrent mixed-size jobs across >= 3 tenants
  completes with **zero lost jobs** while workers are being killed and
  kernel faults injected, and every survivor's final state is
  bit-identical to an unfaulted serial run of the same job;
* dispatch order matches the weighted-fair virtual-time schedule
  replayed from the cost oracle's predictions;
* jobs survive a full server shutdown: a second server on the same root
  resumes them from their checkpoints, bit-identically;
* per-tenant telemetry is visible in the unified event log and the
  fleet summary.
"""

import asyncio
import dataclasses
import json
import os
import time

import pytest

from repro.core.config import SimConfig
from repro.core.results import RunResult
from repro.core.simulation import Simulation
from repro.bench.workloads import cylinder_channel, lid_cavity, sphere_tunnel
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec, spec_digest
from repro.obs.log import read_log, split_runs, validate_log
from repro.resilience.faults import Fault, FaultInjector
from repro.serve import (AdmissionError, JobServer, JobSpec, UnknownJobError,
                         WorkerKilled, predict_cost, state_digest)
from repro.serve.cli import build_flood, main as serve_main, summary_from_disk
from repro.serve.oracle import active_cells_estimate
from repro.serve.spec import TERMINAL_STATES
from repro.serve.state import (STATE_FILE, job_dir, read_job_state, scan_jobs,
                               write_job_state)


def cavity_job(base=10, levels=1, steps=4, tenant="default", priority=0,
               checkpoint_every=2, job_id="", labels=()):
    wl = lid_cavity(base=(base, base), num_levels=levels,
                    lattice="D2Q9", collision="bgk")
    cfg = SimConfig(lattice="D2Q9", collision="bgk",
                    viscosity=wl.viscosity, threaded=False)
    return JobSpec(spec=wl.spec, config=cfg, steps=steps, tenant=tenant,
                   priority=priority, checkpoint_every=checkpoint_every,
                   job_id=job_id, labels=labels)


def serial_digest(spec: JobSpec) -> str:
    """The unfaulted serial reference digest of a job."""
    sim = Simulation.from_config(spec.spec, spec.config)
    try:
        sim.run(spec.steps)
        return state_digest(sim)
    finally:
        sim.close()


class TestOracle:
    def test_active_cells_match_built_grid(self):
        # Obstacle-free domains: the mask arithmetic must be exact.
        for base, levels in [((12, 12), 2), ((10, 10), 1)]:
            wl = lid_cavity(base=base, num_levels=levels, lattice="D2Q9")
            sim = Simulation.from_config(
                wl.spec, SimConfig(lattice="D2Q9", viscosity=0.01,
                                   threaded=False))
            try:
                assert (active_cells_estimate(wl.spec)
                        == list(sim.mgrid.active_per_level()))
            finally:
                sim.close()

    def test_cost_linear_in_steps(self):
        job = cavity_job(steps=4)
        c1 = predict_cost(job.spec, job.config, 4)
        c2 = predict_cost(job.spec, job.config, 8)
        assert c2.total_us == pytest.approx(2 * c1.total_us)
        assert c2.per_step_us == pytest.approx(c1.per_step_us)

    def test_cost_monotone_in_domain(self):
        small, big = cavity_job(base=10), cavity_job(base=16, levels=2)
        assert (predict_cost(big.spec, big.config, 4).total_us
                > predict_cost(small.spec, small.config, 4).total_us)

    def test_unfused_baseline_costs_more(self):
        job = cavity_job(base=12, levels=2)
        fused = predict_cost(job.spec, job.config, 4)
        unfused = predict_cost(job.spec,
                               job.config.replace(fusion="baseline-4a"), 4)
        assert unfused.total_us > fused.total_us
        assert unfused.kernels_per_step > fused.kernels_per_step

    @pytest.mark.parametrize("base,levels,lattice,widths", [
        ((10, 10), 1, "D2Q9", None),
        ((12, 12), 2, "D2Q9", None),
        ((24, 24), 3, "D2Q9", [7.0, 2.0]),        # the Fig. 2 golden cavity
        ((8, 8, 8), 2, "D3Q19", None),
    ])
    def test_synthetic_stream_matches_captured_step(self, base, levels,
                                                    lattice, widths):
        # The oracle prices the kernels a step launches: the multiset of
        # (name, level) must be the one the stepper declares, config by
        # config, on every grid depth.
        from collections import Counter
        from repro.backend.compiler import bind_stream
        from repro.core.fusion import ABLATION_CONFIGS, ORIGINAL_BASELINE
        from repro.serve.oracle import synthetic_step_records
        wl = lid_cavity(base=base, num_levels=levels, lattice=lattice,
                        widths=widths)
        for fusion in (ORIGINAL_BASELINE,) + ABLATION_CONFIGS:
            config = wl.sim_config(fusion=fusion, backend="interpreted")
            with Simulation.from_config(wl.spec, config) as sim:
                captured = bind_stream(sim.stepper)[0]
            synthetic = synthetic_step_records(wl.spec, config)
            assert (Counter((r.name, r.level) for r in synthetic)
                    == Counter((r.name, r.level) for r in captured)), fusion.name

    def test_served_geometries_price_as_before(self):
        # serve-flood's geometries (ours-4f, 2-3 levels) and their
        # baseline-4b counterparts: the oracle's per-step price is pinned.
        pinned = {
            ((48, 48), 3, "D2Q9"): (1249.6087459807075, 3628.9841800643085),
            ((64, 64), 3, "D2Q9"): (1256.7455948553054, 3653.4210932475885),
            ((96, 96), 2, "D2Q9"): (503.6393569131833, 1390.136077170418),
            ((12, 12, 12), 2, "D3Q19"): (502.2211932833155,
                                         1386.208617363344),
        }
        for (base, levels, lattice), prices in pinned.items():
            wl = lid_cavity(base=base, num_levels=levels, lattice=lattice)
            for fusion, price in zip(("ours-4f", "baseline-4b"), prices):
                cost = predict_cost(wl.spec, wl.sim_config(fusion=fusion), 10)
                assert cost.per_step_us == pytest.approx(price, rel=1e-12)


class TestAdmission:
    def test_per_tenant_queue_cap(self, tmp_path):
        async def run():
            async with JobServer(str(tmp_path), workers=1,
                                 max_queued_per_tenant=2) as srv:
                await srv.submit(cavity_job(tenant="t0", job_id="a"))
                await srv.submit(cavity_job(tenant="t0", job_id="b"))
                with pytest.raises(AdmissionError):
                    await srv.submit(cavity_job(tenant="t0", job_id="c"))
                # other tenants are unaffected by t0's backlog
                await srv.submit(cavity_job(tenant="t1", job_id="d"))
                await srv.drain()
        asyncio.run(run())

    def test_fleet_cost_budget(self, tmp_path):
        async def run():
            probe = cavity_job(job_id="probe")
            async with JobServer(str(tmp_path), workers=1) as srv:
                cap = srv.predict(probe).total_us * 1.5
            async with JobServer(str(tmp_path) + "-b", workers=1,
                                 max_outstanding_cost_us=cap) as srv:
                await srv.submit(cavity_job(tenant="t0", job_id="a"))
                with pytest.raises(AdmissionError):
                    await srv.submit(cavity_job(tenant="t1", job_id="b"))
                await srv.drain()
        asyncio.run(run())

    def test_unknown_job(self, tmp_path):
        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                with pytest.raises(UnknownJobError):
                    srv.status("nope")
        asyncio.run(run())


class TestLifecycle:
    def test_single_job_done_bit_identical(self, tmp_path):
        spec = cavity_job(base=12, levels=2, steps=5, tenant="t0",
                          job_id="solo")

        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                jid = await srv.submit(spec)
                res = await srv.result(jid)
                st = srv.status(jid)
            return res, st

        res, st = asyncio.run(run())
        assert st.state == "done" and st.terminal
        assert res.state == "done"
        assert res.steps_done == 5
        assert res.checkpoints >= 3  # step-0 anchor + every cadence
        assert type(res.run) is RunResult and res.run.steps == 5
        assert res.run.checkpoints == res.checkpoints
        assert res.as_dict()["run"]["events"] == []
        # $REPRO_BACKEND is an ambient override on SimConfig, so the
        # tiered CI legs legitimately report a different backend here.
        ambient = os.environ.get("REPRO_BACKEND", "interpreted")
        assert res.run.backend == ambient and res.run.mode == "serial"
        assert res.predicted_cost_us > 0
        assert res.state_digest == serial_digest(spec)

    def test_cancel_queued_job(self, tmp_path):
        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                first = await srv.submit(cavity_job(steps=6, job_id="first"))
                queued = await srv.submit(cavity_job(steps=6, job_id="second"))
                assert srv.cancel(queued)
                res = await srv.result(queued)
                assert res.state == "cancelled" and res.steps_done == 0
                done = await srv.result(first)
                assert done.state == "done"
                assert not srv.cancel(queued)  # already terminal
        asyncio.run(run())

    def test_cancel_running_job(self, tmp_path):
        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                jid = await srv.submit(cavity_job(steps=50, job_id="long",
                                                  checkpoint_every=1))
                while srv.status(jid).steps_done < 1:
                    await asyncio.sleep(0.005)
                assert srv.cancel(jid)
                res = await srv.result(jid)
                assert res.state == "cancelled"
                assert 1 <= res.steps_done < 50
        asyncio.run(run())

    def test_failed_job_reports_error(self, tmp_path):
        # A persistent kernel fault under an exhausted ladder: serial
        # mode with a never-disarming fault burns the retry budget and
        # the job must land in `failed` with the error recorded — not
        # lost, not hung.
        def faults(spec):
            return FaultInjector([Fault("kernel", step=1, times=-1)])

        async def run():
            async with JobServer(str(tmp_path), workers=1, faults=faults,
                                 max_restarts=0) as srv:
                jid = await srv.submit(cavity_job(steps=4, job_id="doomed"))
                res = await srv.result(jid)
                assert res.state == "failed"
                assert res.error and "injected" in res.error
        asyncio.run(run())

    def test_served_recoveries_reach_the_event_log(self, tmp_path):
        # A transient kernel fault: the runner's retry and rollback are
        # the job's ``resilience`` lines, once each, in order.
        def faults(spec):
            return FaultInjector([Fault("kernel", step=3)])

        spec = cavity_job(steps=4, job_id="healed")

        async def run():
            async with JobServer(str(tmp_path), workers=1,
                                 faults=faults) as srv:
                return await srv.result(await srv.submit(spec))

        res = asyncio.run(run())
        assert res.state == "done" and res.retries == 1
        assert res.state_digest == serial_digest(spec)
        lines = read_log(os.path.join(str(tmp_path), "events.jsonl"))
        assert validate_log(lines) == []
        events = [l["data"] for l in split_runs(lines)["healed"]
                  if l["kind"] == "resilience"]
        assert [e["event"] for e in events] == ["retry", "rollback"]
        assert events[0]["kind"] == "kernel" and events[0]["step"] == 2
        assert events[1] == {"event": "rollback", "from_step": 2,
                             "to_step": 2, "lost_steps": 0}


class TestFairness:
    """Dispatch order must equal the virtual-time replay of the oracle."""

    @staticmethod
    def replay_schedule(server, specs):
        """The weighted-fair order the scheduler must produce."""
        jobs = {s.job_id: s for s in specs}
        seq = {s.job_id: i for i, s in enumerate(specs)}
        cost = {s.job_id: server.predict(s).total_us for s in specs}
        queue = [s.job_id for s in specs]
        vtime: dict[str, float] = {}
        order = []
        while queue:
            tenants = {}
            for jid in queue:
                tenants.setdefault(jobs[jid].tenant, []).append(jid)
            live = [vtime[t] for t in tenants if t in vtime]
            floor = min(live) if live else 0.0
            for t in tenants:
                vtime.setdefault(t, floor)
            t = min(tenants, key=lambda t: (vtime[t], t))
            jid = min(tenants[t],
                      key=lambda j: (-jobs[j].priority, seq[j]))
            queue.remove(jid)
            vtime[t] += cost[jid] / float(
                server.tenant_weights.get(t, 1.0))
            order.append(jid)
        return order

    def test_started_order_matches_virtual_time_replay(self, tmp_path):
        # Mixed sizes and priorities across 3 tenants; tenant-a dumps
        # its whole (expensive) backlog first.  workers=1 makes the
        # dispatch order observable and deterministic.
        specs = (
            [cavity_job(base=16, levels=2, steps=8, tenant="a",
                        job_id=f"a{i}") for i in range(4)]
            + [cavity_job(base=10, steps=3, tenant="b", job_id=f"b{i}",
                          priority=(1 if i == 2 else 0)) for i in range(4)]
            + [cavity_job(base=12, levels=2, steps=4, tenant="c",
                          job_id=f"c{i}") for i in range(4)]
        )

        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                expected = self.replay_schedule(srv, specs)
                # submit() never suspends, so the dispatcher cannot
                # start picking before the whole flood is queued
                for s in specs:
                    await srv.submit(s)
                await srv.drain()
                return expected, list(srv.started_order)

        expected, actual = asyncio.run(run())
        assert actual == expected
        # Non-vacuous: fair share interleaves tenants instead of
        # serving tenant a's head-of-line backlog first.
        assert actual != [s.job_id for s in specs]
        assert {a[0] for a in actual[:3]} == {"a", "b", "c"}
        # b's priority-1 job overtakes its earlier same-tenant siblings.
        assert actual.index("b2") < actual.index("b1")


class TestChaosFlood:
    """>= 20 mixed jobs, >= 3 tenants, worker deaths + kernel faults."""

    def test_flood_survives_chaos_bit_identically(self, tmp_path):
        specs = build_flood(jobs=20, tenants=3, seed=7,
                            steps_min=3, steps_max=6)
        killed: set[str] = set()

        def chaos(job_id: str, step: int) -> None:
            # Deterministic: every job loses its worker exactly once,
            # at its first checkpoint boundary.
            if step > 0 and job_id not in killed:
                killed.add(job_id)
                raise WorkerKilled(f"chaos: {job_id} at step {step}")

        def faults(spec: JobSpec):
            # tenant-0 additionally takes a transient kernel fault.
            if spec.tenant == "tenant-0":
                return FaultInjector([Fault("kernel", step=1)])
            return None

        async def run():
            async with JobServer(str(tmp_path), workers=3, chaos=chaos,
                                 faults=faults, max_restarts=2) as srv:
                for s in specs:
                    await srv.submit(s)
                await srv.drain()
                results = {s.job_id: await srv.result(s.job_id)
                           for s in specs}
                return results, srv.fleet_summary()

        results, summary = asyncio.run(run())

        # Zero lost jobs: every submission reached `done`.
        assert len(results) == 20
        assert all(r.state == "done" for r in results.values())
        assert all(r.steps_done == s.steps for s, r in
                   zip(specs, [results[s.job_id] for s in specs]))
        # Every job lost a worker once and was requeued + resumed.
        assert len(killed) == 20
        assert all(r.restarts >= 1 for r in results.values())
        # Recovery is bit-identical to unfaulted serial runs.
        for s in specs:
            assert results[s.job_id].state_digest == serial_digest(s), s.job_id
        # The injected kernel faults were actually exercised and healed.
        t0_retries = sum(r.retries for r in results.values()
                         if r.tenant == "tenant-0")
        assert t0_retries > 0

        # Fleet summary: per-tenant accounting adds up.
        tenants = summary["tenants"]
        assert set(tenants) == {"tenant-0", "tenant-1", "tenant-2"}
        assert sum(t["done"] for t in tenants.values()) == 20
        assert sum(t["restarts"] for t in tenants.values()) >= 20
        assert summary["states"] == {"done": 20}

    def test_event_log_narrates_every_tenant(self, tmp_path):
        specs = build_flood(jobs=6, tenants=3, seed=2,
                            steps_min=2, steps_max=3)

        async def run():
            async with JobServer(str(tmp_path), workers=2) as srv:
                for s in specs:
                    await srv.submit(s)
                await srv.drain()

        asyncio.run(run())
        lines = read_log(os.path.join(str(tmp_path), "events.jsonl"))
        assert validate_log(lines) == []
        runs = split_runs(lines)
        assert set(runs) == {s.job_id for s in specs}
        for s in specs:
            job_lines = runs[s.job_id]
            assert all(l["run"]["tenant"] == s.tenant for l in job_lines)
            kinds = [l["kind"] for l in job_lines]
            assert kinds[0] == "meta"
            assert "metric" in kinds  # final per-job metrics line
            notes = [l["data"].get("message") for l in job_lines
                     if l["kind"] == "note"]
            assert "done" in notes


class TestRestartResume:
    def test_jobs_survive_server_restart(self, tmp_path):
        spec = cavity_job(base=12, levels=2, steps=8, tenant="t0",
                          job_id="survivor", checkpoint_every=2)

        async def phase1():
            # stop at a deterministic point, not when a poll happens to
            # see progress: the chaos hook runs at each boundary the job
            # goes on from, while the worker waits for the reply; the stop
            # it wakes starts before the worker's next boundary is read,
            # so the job is interrupted there (step 4 of 8)
            reached = asyncio.Event()
            srv = JobServer(str(tmp_path), workers=1,
                            chaos=lambda job_id, step: step >= 2 and reached.set())
            await srv.start()
            jid = await srv.submit(spec)
            await reached.wait()
            await srv.stop()  # interrupts at a segment boundary
            return srv.status(jid)

        st = asyncio.run(phase1())
        assert not st.terminal and st.steps_done == 4
        # the record holds the spec, and with it the dtype the job steps in
        record = read_job_state(job_dir(str(tmp_path), "survivor"))
        assert record["spec"]["config"]["dtype"] == "float32"

        async def phase2():
            srv = JobServer(str(tmp_path), workers=1)
            await srv.start()  # resumes persisted non-terminal jobs
            await srv.drain()
            res = await srv.result("survivor")
            await srv.stop()
            return res, list(srv.started_order)

        res, started = asyncio.run(phase2())
        assert res.state == "done" and res.steps_done == 8
        assert "survivor" in started
        assert res.state_digest == serial_digest(spec)

    def test_a_payload_pickled_before_dtype_resumes_in_float64(self, tmp_path):
        # A float64 job parked by one server is resumed by the next from
        # its job.json alone, the one file beside its checkpoints, and
        # finishes in float64: the digest hashes each level's dtype.
        root = str(tmp_path)
        spec = cavity_job(base=12, levels=2, steps=8, job_id="parked")
        spec = dataclasses.replace(spec, config=spec.config.replace(dtype="float64"))

        async def phase1():
            reached = asyncio.Event()
            srv = JobServer(root, workers=1,
                            chaos=lambda job_id, step: step >= 2 and reached.set())
            await srv.start()
            await srv.submit(spec)
            await reached.wait()
            await srv.stop()

        asyncio.run(phase1())
        directory = job_dir(root, "parked")
        assert sorted(os.listdir(directory)) == ["ckpt", STATE_FILE]
        record = read_job_state(directory)
        assert record["state"] == "queued" and record["steps_done"] == 4
        assert JobSpec.from_dict(record["spec"]).config == spec.config

        async def phase2():
            async with JobServer(root, workers=1) as srv:
                await srv.drain()
                return await srv.result("parked")

        res = asyncio.run(phase2())
        assert res.state == "done" and res.steps_done == 8
        assert res.state_digest == serial_digest(spec)
        assert res.state_digest != serial_digest(dataclasses.replace(
            spec, config=spec.config.replace(dtype="float32")))

    def test_restart_skips_a_torn_payload(self, tmp_path):
        # one parked job's job.json holds a spec whose mask lost half its
        # bits: the restarted server starts, leaves that job's directory
        # alone, resumes the other
        root = str(tmp_path)
        # 40 steps: the server stops `kept` at a boundary after it is seen
        # at step 2, which 8 steps could outrun within one 5 ms poll
        kept, torn = (cavity_job(base=12, levels=2, steps=40, job_id=name)
                      for name in ("kept", "torn"))

        async def phase1():
            async with JobServer(root, workers=1) as srv:
                for job in (kept, torn):
                    await srv.submit(job)
                while srv.status("kept").steps_done < 2:
                    await asyncio.sleep(0.005)

        asyncio.run(phase1())
        directory = job_dir(root, "torn")
        record = read_job_state(directory)
        assert record["state"] != "done"
        mask = record["spec"]["spec"]["refine_regions"][0]
        mask["bits"] = mask["bits"][:len(mask["bits"]) // 8 * 4]
        with pytest.raises(ValueError, match="needs"):
            JobSpec.from_dict(record["spec"])
        write_job_state(directory, record)
        with open(os.path.join(directory, STATE_FILE)) as fh:
            before = fh.read()

        async def phase2():
            async with JobServer(root, workers=1) as srv:
                await srv.drain()
                with pytest.raises(UnknownJobError):
                    srv.status("torn")
                return await srv.result("kept")

        res = asyncio.run(phase2())
        assert res.state == "done" and res.state_digest == serial_digest(kept)
        with open(os.path.join(directory, STATE_FILE)) as fh:
            assert fh.read() == before

    @pytest.mark.parametrize("make", [
        lambda: lid_cavity(base=(16, 16), num_levels=3, lattice="D2Q9"),
        lambda: lid_cavity(base=(8, 8, 8), num_levels=2),
        lambda: sphere_tunnel((64, 32, 32), num_levels=2),
        lambda: cylinder_channel(20.0, 0.25, 3),
        lambda: dataclasses.replace(
            lid_cavity(base=(12, 12), num_levels=2, lattice="D2Q9"),
            spec=RefinementSpec((12, 12), bc=DomainBC(
                {f: FaceBC("periodic") for f in ("x-", "x+", "y-", "y+")}))),
    ], ids=["cavity2d", "cavity3d", "sphere", "cylinder", "periodic"])
    def test_job_spec_round_trips_through_json(self, make):
        # job.json's spec form reads back to the same grid, physics and
        # service fields
        wl = make()
        job = JobSpec(spec=wl.spec, steps=7, tenant="t1", priority=2,
                      checkpoint_every=3, max_retries=4, job_id="rt",
                      labels=(("sweep", "a"),),
                      config=wl.sim_config(fusion="fuse-SE", dtype="float64",
                                           force=(1e-6,) + (0.0,) * (wl.spec.d - 1)))
        back = JobSpec.from_dict(json.loads(json.dumps(job.as_dict())))
        assert (spec_digest(back.spec, back.config.lattice)
                == spec_digest(job.spec, job.config.lattice))
        assert back.config == job.config
        scalars = ("steps", "tenant", "priority", "checkpoint_every",
                   "max_retries", "job_id", "labels")
        assert ([getattr(back, k) for k in scalars]
                == [getattr(job, k) for k in scalars])
        assert back.as_dict() == job.as_dict()

    def test_restart_terminates_a_torn_log_tail(self, tmp_path):
        # A server killed mid-append leaves a line without its newline;
        # the next server's first line must not run on from it.
        async def serve(job):
            async with JobServer(str(tmp_path), workers=1) as srv:
                await srv.submit(job)
                await srv.drain()

        asyncio.run(serve(cavity_job(steps=2, job_id="before")))
        sink = tmp_path / "events.jsonl"
        with open(sink, "a") as fh:
            fh.write('{"v": 1, "run": {"id": "bef')         # torn
        asyncio.run(serve(cavity_job(steps=2, job_id="after")))
        raw = sink.read_text().splitlines()
        torn = next(i for i, line in enumerate(raw) if line.endswith('"bef'))
        first_new = json.loads(raw[torn + 1])
        assert first_new["run"]["id"] == "after"
        assert first_new["kind"] == "meta"
        lines = read_log(str(sink))
        assert len(lines) == len(raw) - 1 and not validate_log(lines)

    def test_fleet_summary_written_and_readable(self, tmp_path):
        async def run():
            async with JobServer(str(tmp_path), workers=2) as srv:
                for s in build_flood(jobs=4, tenants=2, seed=5,
                                     steps_min=2, steps_max=3):
                    await srv.submit(s)
                await srv.drain()

        asyncio.run(run())
        path = os.path.join(str(tmp_path), "fleet_summary.json")
        assert os.path.exists(path)
        summary = summary_from_disk(str(tmp_path))
        assert summary["jobs_total"] == 4
        assert summary["states"] == {"done": 4}
        assert set(summary["tenants"]) == {"tenant-0", "tenant-1"}

    def test_summary_from_disk_equals_the_servers(self, tmp_path, capsys):
        # Worker deaths and a kernel fault make the counters non-zero;
        # `repro serve --summary`, with no fleet_summary.json to read,
        # derives the server's own per-state and per-tenant tables from
        # the job records.
        specs = build_flood(jobs=6, tenants=3, seed=3, steps_min=4,
                            steps_max=5)
        killed: set[str] = set()

        def chaos(job_id: str, step: int) -> None:
            if step > 0 and job_id not in killed:
                killed.add(job_id)
                raise WorkerKilled(f"chaos: {job_id} at step {step}")

        def faults(spec: JobSpec):
            if spec.tenant == "tenant-0":
                return FaultInjector([Fault("kernel", step=4)])
            return None

        async def run():
            async with JobServer(str(tmp_path), workers=2, chaos=chaos,
                                 faults=faults) as srv:
                for s in specs:
                    await srv.submit(s)
                await srv.drain()
                return srv.fleet_summary()

        live = asyncio.run(run())
        os.unlink(os.path.join(str(tmp_path), "fleet_summary.json"))
        assert serve_main(["--summary", "--json",
                           "--out-dir", str(tmp_path)]) == 0
        disk = json.loads(capsys.readouterr().out)
        assert disk["states"] == live["states"] == {"done": 6}
        assert disk["tenants"] == live["tenants"]
        t0 = live["tenants"]["tenant-0"]
        assert t0["rollback_steps"] > 0 and t0["retries"] > 0
        assert all(t["restarts"] > 0 and t["wall_seconds"] > 0
                   and t["served_cost_us"] == t["predicted_cost_us"]
                   for t in live["tenants"].values())

    def test_fleet_summary_write_is_atomic(self, tmp_path, monkeypatch):
        # A writer that raises mid-dump leaves the previous summary
        # byte-identical and no temp file behind.
        srv = JobServer(str(tmp_path), workers=1)
        path = srv.write_fleet_summary()
        with open(path, "rb") as fh:
            before = fh.read()

        class Unprintable:
            def __str__(self):
                raise OSError("disk full")

        monkeypatch.setattr(srv, "fleet_summary",
                            lambda: {"a_first": 1, "z_last": Unprintable()})
        with pytest.raises(OSError, match="disk full"):
            srv.write_fleet_summary()
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert sorted(os.listdir(str(tmp_path))) == ["fleet_summary.json"]


class TestCrashPoints:
    """``os.replace`` or ``os.fsync`` fails once, at its k-th call in the
    server process, for every k across submit -> run -> ``stop()`` of two
    jobs on one worker.  A fresh server on the same root loses no job and
    admits no spec but the submitted one; every job ends ``done`` with the
    serial run's digest, or ``failed`` by the injected write of its final
    record."""

    JOBS = (cavity_job(base=10, levels=1, steps=4, job_id="a"),
            cavity_job(base=12, levels=2, steps=8, job_id="b"))

    @staticmethod
    async def submit_run_stop(root):
        """Submit both jobs, stop once ``b`` went on from step 2 (or no
        admitted job is live); the ids whose submit returned, and the
        results of the jobs that ended."""
        reached = asyncio.Event()
        srv = JobServer(root, workers=1, chaos=lambda job_id, step: (
            job_id == "b" and step >= 2 and reached.set()))
        await srv.start()
        submitted = []
        for job in TestCrashPoints.JOBS:
            try:
                submitted.append(await srv.submit(job))
            except OSError:
                pass  # the injected failure hit the job's first record
        deadline = time.monotonic() + 20
        while not reached.is_set() and any(not srv.status(j).terminal
                                           for j in submitted):
            assert time.monotonic() < deadline, "a job stopped moving"
            await asyncio.sleep(0.005)
        try:
            await srv.stop()
        except OSError:
            pass  # the injected failure hit fleet_summary.json
        return submitted, {j: srv.status(j).terminal and await srv.result(j)
                           for j in submitted}

    @staticmethod
    async def resume(root):
        async with JobServer(root, workers=1) as srv:
            admitted = {j.job_id: srv._jobs[j.job_id].spec for j in srv.jobs()}
            await srv.drain()
            return admitted, {j: await srv.result(j) for j in admitted}

    def crash_sweep(self, tmp_path, monkeypatch, name):
        """Fail ``os.<name>`` at its k-th server-side call, k = 1, 2, ...
        until a run makes fewer calls; returns the last k."""
        serial = {job.job_id: serial_digest(job) for job in self.JOBS}
        by_id = {job.job_id: job for job in self.JOBS}
        real, server = getattr(os, name), os.getpid()
        t0, k = time.monotonic(), 0
        while True:
            k += 1
            calls = 0

            def failing(*args, **kwargs):
                nonlocal calls
                if os.getpid() == server:      # forked workers write freely
                    calls += 1
                    if calls == k:
                        raise OSError(f"injected: {name} #{k}")
                return real(*args, **kwargs)

            root = str(tmp_path / f"k{k}")
            monkeypatch.setattr(os, name, failing)
            submitted, ended = asyncio.run(self.submit_run_stop(root))
            monkeypatch.setattr(os, name, real)
            admitted, resumed = asyncio.run(self.resume(root))

            on_disk = {jid for jid, _ in scan_jobs(root)}
            assert on_disk <= set(submitted), (k, on_disk)
            for jid, spec in admitted.items():
                want = by_id[jid]
                assert (spec_digest(spec.spec, spec.config.lattice)
                        == spec_digest(want.spec, want.config.lattice)), k
                assert spec.config == want.config, k
            for jid in submitted:
                res = resumed.get(jid) or ended[jid]
                assert res, (k, jid, "neither resumed nor terminal")
                assert res.state in TERMINAL_STATES, (k, jid)
                assert read_job_state(job_dir(root, jid))["state"] == res.state
                if res.state == "done":
                    assert res.state_digest == serial[jid], (k, jid)
                else:   # the failed write was the record of a finished run
                    assert res.state == "failed", (k, jid, res.state)
                    assert f"injected: {name} #{k}" in res.error, (k, jid)
            if calls < k:
                break                          # this run wrote without a fault
        assert time.monotonic() - t0 < 30
        return k

    def test_a_failed_replace_loses_no_job(self, tmp_path, monkeypatch):
        # every record write was hit
        assert self.crash_sweep(tmp_path, monkeypatch, "replace") > 8

    def test_a_failed_fsync_loses_no_job(self, tmp_path, monkeypatch):
        # each write fsyncs the file before its replace and the directory
        # after it: a failure after the replace leaves the record on disk
        assert self.crash_sweep(tmp_path, monkeypatch, "fsync") > 16


def job_lines(root, job_id):
    """The job's lines of the server's shared ``events.jsonl``, in order."""
    return split_runs(read_log(os.path.join(str(root), "events.jsonl")))[job_id]


def note_index(lines, message):
    """Position of the last ``message`` note among ``lines``."""
    return max(i for i, l in enumerate(lines)
               if l["kind"] == "note" and l["data"].get("message") == message)


class TestWorkerProcesses:
    """Jobs run in forked worker processes, one job per process at a time."""

    def test_two_jobs_run_in_two_processes_at_once(self, tmp_path):
        specs = [cavity_job(base=12, levels=2, steps=6, job_id=jid)
                 for jid in ("left", "right")]

        async def run():
            async with JobServer(str(tmp_path), workers=2) as srv:
                for s in specs:
                    await srv.submit(s)
                await srv.drain()
                return [await srv.result(s.job_id) for s in specs]

        results = asyncio.run(asyncio.wait_for(run(), 120))
        assert [r.state for r in results] == ["done", "done"]
        lines = read_log(os.path.join(str(tmp_path), "events.jsonl"))
        assert validate_log(lines) == []
        pids, spans = [], []
        for s in specs:
            mine = [(i, l) for i, l in enumerate(lines)
                    if l["run"]["id"] == s.job_id and l["kind"] == "note"]
            running = [(i, l) for i, l in mine
                       if l["data"]["message"] == "running"]
            done = [i for i, l in mine if l["data"]["message"] == "done"]
            assert len(running) == 1 and len(done) == 1
            pids.append(running[0][1]["data"]["pid"])
            spans.append((running[0][0], done[0]))
        # Two distinct worker processes, neither of them the server.
        assert len(set(pids)) == 2 and os.getpid() not in pids
        # Each job started running before the other one finished.
        (run_a, done_a), (run_b, done_b) = spans
        assert run_a < done_b and run_b < done_a

    def test_sigkilled_worker_resumes_bit_identically(self, tmp_path):
        import signal
        spec = cavity_job(base=12, levels=2, steps=120, checkpoint_every=1,
                          job_id="victim")

        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                jid = await srv.submit(spec)
                while srv.status(jid).steps_done < 2:
                    assert not srv.status(jid).terminal
                    await asyncio.sleep(0.005)
                lines = job_lines(tmp_path, jid)
                pid = lines[note_index(lines, "running")]["data"]["pid"]
                os.kill(pid, signal.SIGKILL)
                return pid, await srv.result(jid)

        pid, res = asyncio.run(asyncio.wait_for(run(), 120))
        assert res.state == "done" and res.steps_done == 120
        assert res.restarts >= 1
        assert res.state_digest == serial_digest(spec)
        lines = job_lines(tmp_path, "victim")
        deaths = [l["data"] for l in lines if l["kind"] == "resilience"
                  and l["data"]["event"] == "worker-death"]
        assert deaths and f"worker {pid} exited" in deaths[0]["error"]
        # The job was resumed by a fresh worker process.
        assert lines[note_index(lines, "running")]["data"]["pid"] != pid

    def test_stop_leaves_no_children(self, tmp_path):
        import multiprocessing
        killed: set[str] = set()

        def chaos(job_id: str, step: int) -> None:
            if step > 0 and job_id not in killed:
                killed.add(job_id)
                raise WorkerKilled(f"chaos: {job_id} at step {step}")

        specs = build_flood(jobs=4, tenants=2, seed=4, steps_min=3,
                            steps_max=4)

        async def run():
            async with JobServer(str(tmp_path), workers=2,
                                 chaos=chaos) as srv:
                for s in specs:
                    await srv.submit(s)
                await srv.drain()
            return srv.fleet_summary()

        summary = asyncio.run(asyncio.wait_for(run(), 120))
        assert summary["states"] == {"done": 4} and len(killed) == 4
        assert multiprocessing.active_children() == []
        pids = {l["data"]["pid"]
                for l in read_log(os.path.join(str(tmp_path), "events.jsonl"))
                if l["kind"] == "note" and l["data"].get("message") == "running"}
        # Killed workers were replaced, and no worker survives the server.
        assert len(pids) > 2 and os.getpid() not in pids
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_unwritable_final_record_fails_the_job(self, tmp_path):
        # The event sink raises on a finished job's final line: the job
        # must still end — as ``failed``, with the error recorded — and
        # not leave ``result()`` waiting forever.
        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                flush = srv._flush_log

                def sink(job):
                    last = job.log.lines[-1]
                    if (len(job.log.lines) > job.flushed_lines
                            and last["kind"] == "note"
                            and last["data"].get("message") == "done"):
                        raise OSError("event sink full")
                    flush(job)

                srv._flush_log = sink
                jid = await srv.submit(cavity_job(steps=3, job_id="unsung"))
                return await asyncio.wait_for(srv.result(jid), timeout=30)

        res = asyncio.run(run())
        assert res.state == "failed"
        assert res.error == "OSError: event sink full"
        disk = summary_from_disk(str(tmp_path))
        assert disk["states"] == {"failed": 1}
        assert disk["jobs"][0]["error"] == "OSError: event sink full"
        # The log says failed, and only failed.
        lines = read_log(os.path.join(str(tmp_path), "events.jsonl"))
        assert validate_log(lines) == []
        ends = [l["data"]["message"] for l in job_lines(tmp_path, "unsung")
                if l["kind"] == "note"
                and l["data"]["message"] in ("done", "failed")]
        assert ends == ["failed"]

    def test_unrecordable_boundary_kills_and_requeues(self, tmp_path):
        # The event sink raises once, on a mid-job ``checkpointed`` note
        # the server writes after it has told the worker to go on.  The
        # worker must die with the exchange: left alive and idle, it
        # would read the next dispatch as its reply.
        first = cavity_job(base=12, levels=2, steps=8, checkpoint_every=1,
                           job_id="first")
        second = cavity_job(base=12, levels=2, steps=6, checkpoint_every=1,
                            job_id="second")
        raised: list[str] = []

        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                flush = srv._flush_log

                def sink(job):
                    if not raised and any(
                            l["kind"] == "note"
                            and l["data"].get("message") == "checkpointed"
                            and l["data"].get("step") == 2
                            for l in job.log.lines[job.flushed_lines:]):
                        raised.append(job.spec.job_id)
                        raise OSError("event sink full")
                    flush(job)

                srv._flush_log = sink
                for s in (first, second):
                    await srv.submit(s)
                await srv.drain()
                return [await srv.result(s.job_id) for s in (first, second)]

        a, b = asyncio.run(asyncio.wait_for(run(), 120))
        assert raised == ["first"]
        assert a.state == "done" and a.steps_done == 8 and a.restarts == 1
        assert a.state_digest == serial_digest(first)
        assert b.state == "done" and b.steps_done == 6 and b.restarts == 0
        assert b.state_digest == serial_digest(second)
        lines = read_log(os.path.join(str(tmp_path), "events.jsonl"))
        assert validate_log(lines) == []
        mine = job_lines(tmp_path, "first")
        deaths = [l["data"] for l in mine if l["kind"] == "resilience"
                  and l["data"]["event"] == "worker-death"]
        assert [d["error"] for d in deaths] == ["OSError: event sink full"]
        # The requeued job ran on a fresh process, not the one it left.
        pids = [l["data"]["pid"] for l in mine if l["kind"] == "note"
                and l["data"]["message"] == "running"]
        assert len(pids) == 2 and pids[0] != pids[1]
        steps = [l["data"]["step"] for l in job_lines(tmp_path, "second")
                 if l["kind"] == "note"
                 and l["data"]["message"] == "checkpointed"]
        assert steps == sorted(steps) and steps[-1] == 6

    def test_idle_worker_death_costs_no_restart(self, tmp_path):
        # A worker that dies between jobs is replaced before the next
        # dispatch; the job it would have got never sees it.
        import signal

        async def run():
            async with JobServer(str(tmp_path), workers=1,
                                 max_restarts=0) as srv:
                (worker,) = srv._workers
                os.kill(worker.pid, signal.SIGKILL)
                while worker.process.exitcode is None:
                    await asyncio.sleep(0.005)
                jid = await srv.submit(cavity_job(steps=3, job_id="late"))
                return worker.pid, await srv.result(jid)

        dead, res = asyncio.run(asyncio.wait_for(run(), 60))
        assert res.state == "done" and res.restarts == 0
        lines = job_lines(tmp_path, "late")
        assert not [l for l in lines if l["kind"] == "resilience"]
        assert lines[note_index(lines, "running")]["data"]["pid"] != dead

    def test_queue_wait_is_in_the_job_record(self, tmp_path):
        specs = [cavity_job(steps=6, tenant="t0", job_id="first"),
                 cavity_job(steps=6, tenant="t0", job_id="second")]

        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                for s in specs:
                    await srv.submit(s)
                await srv.drain()
                return ([await srv.result(s.job_id) for s in specs],
                        srv.fleet_summary())

        (first, second), live = asyncio.run(asyncio.wait_for(run(), 120))
        # The second job queued through the whole of the first's service.
        assert second.queue_wait_s > first.seconds > 0
        assert first.queue_wait_s < second.queue_wait_s
        disk = summary_from_disk(str(tmp_path))
        assert ([j["queue_wait_s"] for j in disk["jobs"]]
                == [first.queue_wait_s, second.queue_wait_s])
        assert (disk["tenants"]["t0"]["queue_wait_s"]
                == live["tenants"]["t0"]["queue_wait_s"]
                == first.queue_wait_s + second.queue_wait_s)
        # Records written before the field existed read 0.0.
        record = dict(disk["jobs"][0])
        del record["queue_wait_s"]
        from repro.serve.spec import JobStatus
        assert JobStatus.from_dict(record).queue_wait_s == 0.0

    def test_unstopped_server_does_not_hang_exit(self, tmp_path):
        # Interpreter exit joins every child process; a server that was
        # started and never stopped must still let its workers go.
        import subprocess
        import sys
        script = (
            "import asyncio\n"
            "from repro.serve import JobServer\n"
            "async def main():\n"
            f"    await JobServer({str(tmp_path)!r}, workers=2).start()\n"
            "asyncio.run(main())\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"),
             os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              timeout=60, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


#: The served geometries of the ledger's ``serve-flood`` (base, levels,
#: lattice), each served at two Reynolds numbers.
SERVED_GEOMETRIES = [((48, 48), 3, "D2Q9"), ((64, 64), 3, "D2Q9"),
                     ((96, 96), 2, "D2Q9"), ((12, 12, 12), 2, "D3Q19")]


def served_job(base, levels, lattice, reynolds, job_id="", steps=3):
    wl = lid_cavity(base=base, num_levels=levels, lattice=lattice,
                    reynolds=reynolds)
    return JobSpec(spec=wl.spec, steps=steps, checkpoint_every=2,
                   config=wl.sim_config(fusion="ours-4f", backend="compiled"),
                   job_id=job_id)


class TestGridCache:
    """A worker builds each geometry once: grid, index maps and admission
    verdict outlive the job; the answer does not change."""

    def test_hit_gives_the_direct_run_digest(self, tmp_path):
        jobs = [served_job(*g, reynolds=re, job_id=f"g{k}-re{re:.0f}")
                for k, g in enumerate(SERVED_GEOMETRIES) for re in (90.0, 115.0)]

        async def run():
            async with JobServer(str(tmp_path), workers=1) as srv:
                for job in jobs:
                    await srv.submit(job)
                await srv.drain()
                return [await srv.result(j.job_id) for j in jobs], srv.fleet_summary()

        results, live = asyncio.run(asyncio.wait_for(run(), 300))
        runs = split_runs(read_log(str(tmp_path / "events.jsonl")))
        for job, res in zip(jobs, results):
            assert res.state == "done"
            assert res.state_digest == serial_digest(job), job.job_id
            grid = [l["data"]["cached"] for l in runs[job.job_id]
                    if l["kind"] == "note" and l["data"]["message"] == "grid"]
            assert grid == [job.job_id.endswith("re115")], job.job_id
            assert 0 < res.first_step_s < res.seconds
        # time to first step is in job.json and summed per tenant
        disk = summary_from_disk(str(tmp_path))
        assert ([j["first_step_s"] for j in disk["jobs"]]
                == [r.first_step_s for r in results])
        assert (disk["tenants"]["default"]["first_step_s"]
                == live["tenants"]["default"]["first_step_s"]
                == pytest.approx(sum(r.first_step_s for r in results)))

    def test_poisoned_entry_is_rebuilt(self):
        from repro.serve.cache import GridCache
        job = served_job((24, 24), 2, "D2Q9", 100.0)
        cache = GridCache(1 << 30)
        grid, cached = cache.get(job.spec, "D2Q9")
        again, hit = cache.get(job.spec, "D2Q9")
        assert not cached and hit and again is grid
        grid.levels[0].coal_dst[0] += 1                    # poisoned
        fresh, cached = cache.get(job.spec, "D2Q9")
        assert not cached and fresh is not grid and len(cache) == 1
        again, hit = cache.get(job.spec, "D2Q9")
        assert hit and again is fresh
        with Simulation.from_config(job.spec, job.config, grid=fresh) as sim:
            sim.run(job.steps)
            assert state_digest(sim) == serial_digest(job)

    def test_eviction_under_the_budget(self):
        from repro.gpu.memory import memory_ledger
        from repro.serve.cache import GridCache
        specs = [served_job((n, n), 2, "D2Q9", 100.0).spec for n in (16, 20, 24)]
        probe = GridCache(0)
        sizes = [sum(memory_ledger(probe.get(s, "D2Q9")[0]).values()) for s in specs]
        assert len(probe) == 1                              # newest stays
        cache = GridCache(sizes[1] + sizes[2])
        for s in specs:
            cache.get(s, "D2Q9")
        assert len(cache) == 2
        assert cache.nbytes() == sizes[1] + sizes[2] <= cache.budget_bytes
        assert cache.get(specs[0], "D2Q9")[1] is False     # the LRU one left
        assert cache.get(specs[2], "D2Q9")[1] is True

    def test_verdict_reused_across_viscosities_not_fusion_configs(
            self, monkeypatch):
        import repro.backend.compiler as compiler
        from repro.grid.multigrid import build_multigrid
        job = served_job((24, 24), 2, "D2Q9", 100.0)
        proofs = []
        prove = compiler.prove_plan_legality
        monkeypatch.setattr(compiler, "prove_plan_legality",
                            lambda *a, **kw: proofs.append(1) or prove(*a, **kw))
        grid = build_multigrid(job.spec, Simulation.from_config(
            job.spec, job.config).lattice)

        def digest(grid, **overrides):
            config = job.config.replace(**overrides)
            with Simulation.from_config(job.spec, config, grid=grid) as sim:
                sim.run(2)
                return state_digest(sim)

        for viscosity in (0.05, 0.02, 0.01):
            assert digest(grid, viscosity=viscosity) == digest(
                None, viscosity=viscosity)
        # one proof for the cached grid's three jobs, one per direct run
        assert len(proofs) == 1 + 3 and len(grid.verdicts) == 1
        digest(grid, fusion="baseline-4b")
        assert len(proofs) == 5 and len(grid.verdicts) == 2

    def test_a_stale_verdict_runs_full_admission(self):
        from repro.analysis.certificate import stream_digest
        from repro.backend.compiler import admit_stream
        from repro.grid.multigrid import build_multigrid
        job = served_job((24, 24), 2, "D2Q9", 100.0)
        sim = Simulation.from_config(job.spec, job.config)
        plan, lint = admit_stream(sim.stepper)
        (key, (cert, _)), = sim.mgrid.verdicts.items()
        sim.mgrid.verdicts[key] = ({**cert, "stream_digest": "0" * 64}, lint)
        again, _ = admit_stream(sim.stepper)
        assert again.digest == stream_digest(again.records) == plan.digest
        assert sim.mgrid.verdicts[key][0]["stream_digest"] == plan.digest
        assert build_multigrid(job.spec, sim.lattice).verdicts == {}

    def test_grid_of_another_spec_or_lattice_is_refused(self):
        a = served_job((24, 24), 2, "D2Q9", 100.0)
        b = served_job((20, 20), 2, "D2Q9", 100.0)
        with Simulation.from_config(a.spec, a.config) as sim:
            with pytest.raises(ValueError, match="another spec or lattice"):
                Simulation.from_config(b.spec, b.config, grid=sim.mgrid)
            # equal content in another object is the same grid
            twin = served_job((24, 24), 2, "D2Q9", 60.0)
            with Simulation.from_config(twin.spec, twin.config,
                                        grid=sim.mgrid) as other:
                assert other.mgrid is sim.mgrid
        cube = served_job((8, 8, 8), 2, "D3Q19", 100.0)
        with Simulation.from_config(cube.spec, cube.config) as sim:
            with pytest.raises(ValueError, match="another spec or lattice"):
                Simulation.from_config(cube.spec, cube.config.replace(
                    lattice="D3Q27"), grid=sim.mgrid)
