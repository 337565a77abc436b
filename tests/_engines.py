"""The three engine configurations the register-layer suites run on.

Both engines inherit their qubit entries (pending factors, Bell halves,
copy entries) from :class:`repro.sim.register.Register`; the suites pin
them on the shared store and on the sharded store with one and with
four chunks.  Each entry is a :func:`functools.partial` taking
``StateVector``'s arguments (``.func`` is the engine class).
"""

from functools import partial

from repro.sim import ShardedStateVector, StateVector

ENGINES = {
    "shared": partial(StateVector),
    "sharded:1": partial(ShardedStateVector, n_shards=1),
    "sharded:4": partial(ShardedStateVector, n_shards=4),
}


def store(sv):
    """The engine's amplitude arrays, for identity checks (no copy)."""
    return tuple(sv._arrays())


def same_store(sv, before) -> bool:
    """Whether ``sv`` still holds exactly the arrays ``before`` named."""
    now = store(sv)
    return len(now) == len(before) and all(a is b for a, b in zip(now, before))
