"""Kernel arms for tests: native at every size, or never.

Whether a kernel runs natively is a function of its size alone
(:meth:`repro.sim.kernels.KernelDispatch.native`), so a test selects an
arm by patching :data:`repro.sim.kernels.JIT_MIN_AMPS_DEFAULT` for the
duration of a ``with`` block.

One condition: **enter the context before building the backend.** Each
:class:`~repro.sim.kernels.KernelDispatch` copies the default into its
``jit_min_amps`` when it is built, so an engine built outside the block
keeps the break-even it was built with.
"""

import contextlib

import pytest

from repro.sim import kernels

#: ``"auto"`` patches nothing; ``"native"`` goes native at every size
#: (when a provider resolves); ``"numpy"`` never goes native.
ARMS = ("auto", "native", "numpy")


@contextlib.contextmanager
def dispatch(name):
    """Build every kernel dispatch inside the block as ``name`` (one of :data:`ARMS`)."""
    if name not in ARMS:
        raise ValueError(f"dispatch must be one of {ARMS}, got {name!r}")
    with pytest.MonkeyPatch.context() as mp:
        if name == "native":
            mp.setattr(kernels, "JIT_MIN_AMPS_DEFAULT", 0)
        elif name == "numpy":
            mp.setattr(kernels, "JIT_MIN_AMPS_DEFAULT", float("inf"))
        yield
