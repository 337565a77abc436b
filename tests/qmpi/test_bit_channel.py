"""The ledgered classical channel (``qc.bits``) and its one cost model.

Every protocol bit travels on :class:`~repro.qmpi.resource.BitChannel`,
which counts at the senders in the collective's flat form: ``bcast`` and
``scatter`` charge the root ``nbits`` per other rank, ``reduce`` and
``gather`` charge each non-root ``nbits``, ``exscan`` charges every rank
but the last. The source scan keeps it the only place bits are counted.
"""

import re
from pathlib import Path

import pytest

from repro.qmpi import qmpi_run

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
NBITS = 3


def _ops(qc):
    n, rank = qc.size, qc.rank
    root = n - 1
    return {
        "bcast": lambda: qc.bits.bcast(5 if rank == root else None, NBITS, root=root),
        "scatter": lambda: qc.bits.scatter(
            list(range(n)) if rank == root else None, NBITS, root=root
        ),
        "reduce": lambda: qc.bits.reduce(1 << rank, NBITS, root=root),
        "gather": lambda: qc.bits.gather(rank, NBITS, root=root),
        "exscan": lambda: qc.bits.exscan(1 << rank, NBITS),
    }


def _expected(op, n):
    root = n - 1
    values = {
        "bcast": [5] * n,
        "scatter": list(range(n)),
        "reduce": [None] * root + [(1 << n) - 1],
        "gather": [None] * root + [list(range(n))],
        "exscan": [None] + [(1 << r) - 1 for r in range(1, n)],
    }[op]
    return values, n - 1  # every flat form has n - 1 senders or receivers


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("op", ["bcast", "scatter", "reduce", "gather", "exscan"])
def test_channel_counts_the_flat_form_at_the_senders(op, n):
    world = qmpi_run(n, lambda qc: _ops(qc)[op](), seed=0)
    values, messages = _expected(op, n)
    assert list(world) == values
    snap = world.ledger.snapshot()
    assert (snap.classical_bits, snap.classical_messages) == (NBITS * messages, messages)


def test_record_classical_is_called_only_in_the_ledger_module():
    callers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"\brecord_classical\w*\(", path.read_text())
    ]
    assert callers == ["qmpi/resource.py"]


@pytest.mark.parametrize("module", ["qmpi/cat.py", "qmpi/collectives.py", "apps/parity.py"])
def test_protocols_send_no_bits_on_the_user_communicator(module):
    assert "qc.comm." not in (SRC / module).read_text()
