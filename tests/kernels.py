"""The one way tests reach the GR-tree's scalar reference path.

Every GR-tree runs its numpy kernels whenever numpy is importable.  The
per-entry loops they replace are the reference the kernels are held
against, so a test that wants them hides numpy from
:mod:`repro.grtree.specialize` -- the same module global a host without
numpy leaves ``None``.  The patch reaches every tree, live or built
later, including handles a blade rebuilds after recovery.

A scalar leg that forgot the patch would compare kernels with kernels
and pass, so each leg also asserts what its bundle did: no kernel work
on the scalar path, some on the kernel path whenever numpy is present.
"""

from contextlib import contextmanager
from unittest import mock

from repro.grtree import specialize

#: The counters that move only when numpy is there to run a kernel.
KERNEL_COUNTERS = (
    "scans_compiled",
    "nodes_batched",
    "choices_vectorized",
    "bounds_vectorized",
)


@contextmanager
def scalar_path():
    """Run the body on the per-entry reference path."""
    with mock.patch.object(specialize, "_np", None):
        yield


def kernel_work(stats) -> dict:
    """The kernel counters of a :class:`SpecStats` or its ``to_dict()``."""
    if not isinstance(stats, dict):
        stats = stats.to_dict()
    return {name: stats[name] for name in KERNEL_COUNTERS}


def assert_scalar(stats) -> None:
    """No kernel did any work."""
    assert kernel_work(stats) == dict.fromkeys(KERNEL_COUNTERS, 0)


def assert_kernels(stats, counters=KERNEL_COUNTERS) -> None:
    """Each of *counters* moved, when numpy is present."""
    if specialize.numpy_available():
        work = kernel_work(stats)
        assert all(work[name] > 0 for name in counters), work
