"""Discrete-event simulation kernel.

A self-contained, generator-based discrete-event simulation engine in the
style of SimPy, built from scratch because the reproduction must not depend
on packages that are unavailable offline.  The kernel provides:

* :class:`~repro.sim.engine.Environment` -- the event loop and simulation
  clock.
* :class:`~repro.sim.events.Event` and friends -- one-shot triggerable
  events, timeouts, and condition events (``all_of`` / ``any_of``).
* :class:`~repro.sim.process.Process` -- cooperative processes written as
  Python generators that ``yield`` events.

The semantics intentionally mirror SimPy's core so that the broadcast-cycle
simulation reads like textbook simulation code:

>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         yield env.timeout(tick)
...         log.append((name, env.now))
>>> _ = env.process(clock(env, 'fast', 1))
>>> env.run(until=3)
>>> log
[('fast', 1), ('fast', 2)]
"""

from repro.sim.engine import Environment, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    EventPriority,
    Interrupt,
    Timeout,
)
from repro.sim.process import Process, ProcessGenerator

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "EventPriority",
    "Interrupt",
    "Process",
    "ProcessGenerator",
    "StopSimulation",
    "Timeout",
]
