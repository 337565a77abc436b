"""Ablation lowerings for tests: the planner forced on, forced off, or
off together with diagonal batching.

The flush lowering (:func:`repro.sim.schedule.lower_flush`) is a
function of the register size alone, so a test selects another one by
patching :mod:`repro.sim.schedule` for the duration of a ``with`` block.

One condition: **enter the context before building the backend.** The
schedule cache keys a flush on its shape and register size, not on the
lowering, so a backend that already flushed a shape under one lowering
replays that lowering under another.

A test *mode* is a lowering plus the stream's ``fusion=``
(:func:`fusion_of`): ``"off"`` patches nothing and dispatches gate by
gate.
"""

import contextlib

import pytest

from repro.sim import schedule

#: ``"auto"`` is the default lowering and ``"off"`` per-gate dispatch;
#: the three between are the ablations.
MODES = ("auto", "planned", "noplan", "nodiag", "off")


@contextlib.contextmanager
def lowering(name):
    """Lower every flush inside the block as ``name`` (one of :data:`MODES`).

    ``"planned"`` plans at every register size (``PLAN_MIN_QUBITS = 0``);
    ``"noplan"`` never plans; ``"nodiag"`` never plans and leaves
    diagonal runs uncoalesced; ``"auto"`` and ``"off"`` patch nothing.
    """
    if name not in MODES:
        raise ValueError(f"lowering must be one of {MODES}, got {name!r}")
    with pytest.MonkeyPatch.context() as mp:
        if name == "planned":
            mp.setattr(schedule, "PLAN_MIN_QUBITS", 0)
        elif name in ("noplan", "nodiag"):
            mp.setattr(schedule, "PLAN_MIN_QUBITS", float("inf"))
        if name == "nodiag":
            mp.setattr(schedule, "coalesce_diagonals", list)
        yield


def fusion_of(mode):
    """The ``fusion=`` a mode runs under: ``"off"`` for ``"off"``, else ``"auto"``."""
    return "off" if mode == "off" else "auto"


def compiled_records(backend):
    """Spy on ``backend``'s engine: returns the list that every lowered
    record it compiles (on a cache miss or a one-shot ``apply_ops``) is
    appended to."""
    seen = []
    engine = backend.raw()
    compile_batch = engine.compile_batch

    def spy(ops):
        seen.extend(ops)
        return compile_batch(ops)

    engine.compile_batch = spy
    return seen
