"""A usable-core count for the tests: ``EscrowServer.search`` and
``EscrowServer.open`` shard over ``os.sched_getaffinity``, so patching it
sets how many shards (one forked child per shard but the first) they deal."""

import os
from contextlib import contextmanager
from unittest import mock


@contextmanager
def cores(n):
    """Report ``n`` usable cores inside the block.  The patch is process-wide:
    never enter it from two threads at once, since one thread's exit would undo
    the other's patch (a search beside other threads runs serially anyway)."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True):
        yield
