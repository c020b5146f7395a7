"""Roofline accounting: observed wall time joined with predicted traffic.

The paper argues in bandwidth, not wall clock: fusion exists to cut
kernels/step and DRAM traffic (Fig. 2), and the sparse-LBM literature
reports results as *achieved fraction of device bandwidth*.  This module
joins the two telemetry sources the repo already has —

* the span tracer (:mod:`repro.obs.spans`), which observes the wall-clock
  duration of every kernel launch, and
* the cost model (:mod:`repro.gpu.costmodel`), which predicts each
  kernel's bytes and roofline time on a target device —

into per-kernel and per-step *achieved bandwidth* (payload bytes moved
per observed microsecond), the achieved fraction of the device's
sustained bandwidth, and the **skew** between observed and predicted
time.

Functional runs execute on a NumPy host, so absolute skew against an
A100 prediction is large and host-dependent; what is diagnostic is the
*normalized* skew — each kernel family's skew divided by the run's
median skew.  A family whose normalized skew exceeds a configurable
factor moves bytes disproportionately slowly compared to the rest of the
same run (an interpretation bug, a pathological access pattern, or a
cost-model error), and that signal is host-independent because the
host-vs-device constant cancels.  :func:`drift_report` sweeps all seven
fusion configurations (2D and 3D) and flags exactly those families.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..gpu.costmodel import kernel_time_us
from ..gpu.device import A100_40GB, DeviceSpec
from .spans import SpanRecorder

__all__ = [
    "KernelRoofline", "FamilyRoofline", "StepBandwidth", "RooflineSummary",
    "DriftFinding", "DriftReport",
    "kernel_rooflines", "roofline_summary", "drift_findings", "drift_report",
    "DRIFT_WORKLOADS",
]


@dataclass(frozen=True)
class KernelRoofline:
    """One kernel launch joined with its cost-model prediction."""

    index: int                 # position in Runtime.records
    name: str                  # kernel family ("C", "SEO", "CASE", ...)
    level: int
    bytes_total: int           # payload DRAM traffic the kernel declared
    observed_us: float         # wall-clock duration of the span
    predicted_us: float        # roofline time on the target device
    mem_us: float              # memory term of the prediction

    @property
    def family(self) -> str:
        """Aggregation key: kernel name at its level (``"SEO@1"``)."""
        return f"{self.name}@{self.level}"

    @property
    def achieved_bw(self) -> float:
        """Payload bytes per observed microsecond (B/us)."""
        return self.bytes_total / self.observed_us if self.observed_us > 0 \
            else 0.0

    @property
    def skew(self) -> float:
        """Observed over predicted time (dimensionless, > 0)."""
        return self.observed_us / self.predicted_us if self.predicted_us > 0 \
            else float("inf")

    def as_dict(self) -> dict:
        return {
            "index": self.index, "name": self.name, "level": self.level,
            "bytes": self.bytes_total,
            "observed_us": round(self.observed_us, 3),
            "predicted_us": round(self.predicted_us, 4),
            "achieved_bw": round(self.achieved_bw, 4),
            "skew": round(self.skew, 4),
        }


@dataclass(frozen=True)
class FamilyRoofline:
    """All launches of one kernel family, aggregated."""

    family: str
    kernels: int
    bytes_total: int
    observed_us: float
    predicted_us: float
    skew: float                # total observed / total predicted
    norm_skew: float           # skew / run median skew

    def as_dict(self) -> dict:
        return {
            "family": self.family, "kernels": self.kernels,
            "bytes": self.bytes_total,
            "observed_us": round(self.observed_us, 3),
            "predicted_us": round(self.predicted_us, 4),
            "achieved_bw": round(self.bytes_total / self.observed_us, 4)
                           if self.observed_us > 0 else 0.0,
            "skew": round(self.skew, 4),
            "norm_skew": round(self.norm_skew, 4),
        }


@dataclass(frozen=True)
class StepBandwidth:
    """Achieved bandwidth of one coarse step."""

    step: int
    bytes_total: int
    observed_us: float

    @property
    def achieved_bw(self) -> float:
        return self.bytes_total / self.observed_us if self.observed_us > 0 \
            else 0.0

    def as_dict(self) -> dict:
        return {"step": self.step, "bytes": self.bytes_total,
                "observed_us": round(self.observed_us, 3),
                "achieved_bw": round(self.achieved_bw, 4)}


@dataclass(frozen=True)
class RooflineSummary:
    """Whole-run roofline report: totals, per-family and per-step views."""

    device: str
    kernels: int
    bytes_total: int
    observed_us: float         # sum of span durations (busy time)
    predicted_us: float
    median_skew: float
    families: tuple[FamilyRoofline, ...]
    steps: tuple[StepBandwidth, ...]
    #: Achieved fraction of the device's *sustained* bandwidth.  On the
    #: NumPy host this is tiny; on a real device backend it becomes the
    #: paper's headline number.
    achieved_fraction: float

    @property
    def achieved_bw(self) -> float:
        """Run-wide payload bytes per busy microsecond."""
        return self.bytes_total / self.observed_us if self.observed_us > 0 \
            else 0.0

    def as_dict(self) -> dict:
        return {
            "device": self.device, "kernels": self.kernels,
            "bytes_total": self.bytes_total,
            "observed_us": round(self.observed_us, 3),
            "predicted_us": round(self.predicted_us, 4),
            "achieved_bw": round(self.achieved_bw, 4),
            "achieved_fraction": self.achieved_fraction,
            "median_skew": round(self.median_skew, 4),
            "families": [f.as_dict() for f in self.families],
            "steps": [s.as_dict() for s in self.steps],
        }


def kernel_rooflines(recorder: SpanRecorder, *,
                     device: DeviceSpec = A100_40GB,
                     kbc: bool = False) -> list[KernelRoofline]:
    """Join every recorded kernel span with its roofline prediction."""
    out: list[KernelRoofline] = []
    for s in recorder.kernel_spans:
        cost = kernel_time_us(s.record, device, kbc=kbc)
        out.append(KernelRoofline(
            index=s.index, name=s.record.name, level=s.record.level,
            bytes_total=s.record.bytes_total,
            observed_us=s.dur_us, predicted_us=cost.time_us,
            mem_us=cost.mem_us))
    return out


def roofline_summary(recorder: SpanRecorder, *,
                     device: DeviceSpec = A100_40GB,
                     kbc: bool = False) -> RooflineSummary:
    """Aggregate the joined spans into the run-level roofline report."""
    joined = kernel_rooflines(recorder, device=device, kbc=kbc)
    by_family: dict[str, list[KernelRoofline]] = {}
    for k in joined:
        by_family.setdefault(k.family, []).append(k)
    skews = [k.skew for k in joined if k.predicted_us > 0]
    median = statistics.median(skews) if skews else 0.0

    families = []
    for fam, ks in sorted(by_family.items()):
        obs = sum(k.observed_us for k in ks)
        pred = sum(k.predicted_us for k in ks)
        skew = obs / pred if pred > 0 else float("inf")
        families.append(FamilyRoofline(
            family=fam, kernels=len(ks),
            bytes_total=sum(k.bytes_total for k in ks),
            observed_us=obs, predicted_us=pred, skew=skew,
            norm_skew=skew / median if median > 0 else float("inf")))

    steps = []
    for ss in recorder.step_spans:
        inside = [k for k in joined if ss.start_record <= k.index < ss.end_record]
        steps.append(StepBandwidth(
            step=ss.step,
            bytes_total=sum(k.bytes_total for k in inside),
            observed_us=sum(k.observed_us for k in inside)))

    total_bytes = sum(k.bytes_total for k in joined)
    total_obs = sum(k.observed_us for k in joined)
    bw = total_bytes / total_obs if total_obs > 0 else 0.0
    return RooflineSummary(
        device=device.name, kernels=len(joined), bytes_total=total_bytes,
        observed_us=total_obs,
        predicted_us=sum(k.predicted_us for k in joined),
        median_skew=median, families=tuple(families), steps=tuple(steps),
        achieved_fraction=bw / device.effective_bandwidth)


@dataclass(frozen=True)
class DriftFinding:
    """One kernel family whose skew is out of line with its run."""

    workload: str
    config: str
    family: str
    skew: float
    norm_skew: float
    factor: float
    detail: str

    def __str__(self) -> str:
        return (f"{self.workload}/{self.config}: {self.family} "
                f"norm-skew {self.norm_skew:.2f} exceeds factor "
                f"{self.factor:g} ({self.detail})")

    def as_dict(self) -> dict:
        return {"workload": self.workload, "config": self.config,
                "family": self.family, "skew": round(self.skew, 4),
                "norm_skew": round(self.norm_skew, 4),
                "factor": self.factor, "detail": self.detail}


#: Normalized skew beyond which a family is flagged (either way).
DRIFT_FACTOR = 3.0


def drift_findings(summary: RooflineSummary, *, factor: float = DRIFT_FACTOR,
                   workload: str = "", config: str = "",
                   min_observed_us: float = 50.0) -> list[DriftFinding]:
    """Families whose normalized skew exceeds ``factor`` (either way).

    ``min_observed_us`` suppresses families whose total wall time is too
    small for the host clock to resolve meaningfully — a 2 µs family
    reading 5× the median is timer noise, not drift.
    """
    if factor <= 1.0:
        raise ValueError("drift factor must be > 1")
    out: list[DriftFinding] = []
    for fam in summary.families:
        if fam.observed_us < min_observed_us:
            continue
        if fam.norm_skew > factor:
            detail = (f"{fam.observed_us:.0f} us observed vs "
                      f"{fam.predicted_us:.2f} us predicted; run median "
                      f"skew {summary.median_skew:.1f}")
            out.append(DriftFinding(workload=workload, config=config,
                                    family=fam.family, skew=fam.skew,
                                    norm_skew=fam.norm_skew, factor=factor,
                                    detail="slower than peers: " + detail))
        elif fam.norm_skew < 1.0 / factor:
            detail = (f"{fam.observed_us:.0f} us observed vs "
                      f"{fam.predicted_us:.2f} us predicted; run median "
                      f"skew {summary.median_skew:.1f}")
            out.append(DriftFinding(workload=workload, config=config,
                                    family=fam.family, skew=fam.skew,
                                    norm_skew=fam.norm_skew, factor=factor,
                                    detail="faster than peers (cost model "
                                           "overprices it): " + detail))
    return out


@dataclass(frozen=True)
class DriftReport:
    """Roofline summaries and drift findings for a config sweep."""

    device: str
    factor: float
    entries: tuple[dict, ...]          # {workload, config, summary}
    findings: tuple[DriftFinding, ...]

    @property
    def flagged(self) -> bool:
        return bool(self.findings)

    def as_dict(self) -> dict:
        return {
            "device": self.device, "factor": self.factor,
            "entries": [{"workload": e["workload"], "config": e["config"],
                         "summary": e["summary"].as_dict()}
                        for e in self.entries],
            "findings": [f.as_dict() for f in self.findings],
        }


#: The small 2D and 3D cavities (names in
#: :data:`~repro.bench.workloads.SMALL_WORKLOADS`) the drift sweep runs
#: every config on.
DRIFT_WORKLOADS = ("cavity2d-2lvl", "cavity3d-2lvl")


def drift_report(*, steps: int = 2,
                 device: DeviceSpec = A100_40GB) -> DriftReport:
    """Run all 7 fusion configs on 2D and 3D cavities; join and flag.

    This is the observatory's cross-config oracle: every config's span
    trace is joined with the cost model and families whose normalized
    skew exceeds :data:`DRIFT_FACTOR` are reported.  An empty ``findings`` tuple
    means observed time tracks predicted traffic uniformly across the
    whole fusion design space.
    """
    from ..bench.workloads import ALL_CONFIGS, SMALL_WORKLOADS, lid_cavity
    from ..core.simulation import Simulation

    entries: list[dict] = []
    findings: list[DriftFinding] = []
    for wl_name in DRIFT_WORKLOADS:
        wl = lid_cavity(**SMALL_WORKLOADS[wl_name])
        for cfg in ALL_CONFIGS:
            sim = Simulation.from_config(wl.spec, wl.sim_config(fusion=cfg))
            recorder = sim.enable_tracing()
            with sim:
                sim.run(steps)
            summary = roofline_summary(recorder, device=device,
                                       kbc=wl.collision.lower() == "kbc")
            entries.append({"workload": wl_name, "config": cfg.name,
                            "summary": summary})
            findings.extend(drift_findings(summary, workload=wl_name,
                                           config=cfg.name))
    return DriftReport(device=device.name, factor=DRIFT_FACTOR,
                       entries=tuple(entries), findings=tuple(findings))
