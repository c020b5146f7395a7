"""Resilience: fault injection, checkpoint-rollback retry, degradation.

The subsystem has three parts (DESIGN.md Section 11):

* :mod:`repro.resilience.faults` — deterministic fault injection
  (field corruption, kernel failures, simulated device OOM) via the
  runtime's duck-typed ``faults`` hook;
* :mod:`repro.resilience.runner` — :class:`ResilientRunner`, which wraps
  ``Simulation.run`` with periodic checkpoints, rollback-and-retry under
  a :class:`RetryPolicy`, and a degradation ladder (threaded -> serial,
  divergence -> reduced-omega safety profile);
* :mod:`repro.resilience.cli` — ``python -m repro resilience``, the
  fault matrix verifying bit-identical recovery for every fusion config.
"""

from .faults import Fault, FaultInjector, InjectedKernelError
from .runner import ResilientRunner, RetryExhausted, RetryPolicy

__all__ = [
    "Fault", "FaultInjector", "InjectedKernelError",
    "ResilientRunner", "RetryExhausted", "RetryPolicy",
]
