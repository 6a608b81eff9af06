"""Registry of flat exchange kernels usable inside the hierarchical algorithms.

Algorithms 3–5 of the paper each contain one or more ``MPI_Alltoall`` calls
on sub-communicators; the paper evaluates every algorithm with both a
pairwise-exchange and a non-blocking implementation of those inner calls
(solid vs. dashed lines in its figures).  This module maps the exchange
names to the generator functions so the hierarchical algorithms can be
configured with a string.  The pairwise and non-blocking kernels also take
per-peer counts (``alltoallv``), so they alone can carry a count matrix.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.core.alltoall.batched import exchange_batched
from repro.core.alltoall.bruck import exchange_bruck
from repro.core.alltoall.nonblocking import exchange_nonblocking
from repro.core.alltoall.pairwise import exchange_pairwise
from repro.errors import ConfigurationError

__all__ = ["INNER_EXCHANGES", "COUNT_EXCHANGES", "get_inner_exchange"]

#: name -> generator function ``f(comm, sendbuf, recvbuf)``.
INNER_EXCHANGES: dict[str, Callable] = {
    "pairwise": exchange_pairwise,
    "nonblocking": exchange_nonblocking,
    "bruck": exchange_bruck,
    "batched": exchange_batched,
}

#: Inner exchanges that also take ``sendcounts, recvcounts`` (packed blocks).
COUNT_EXCHANGES: tuple[str, ...] = ("pairwise", "nonblocking")


def get_inner_exchange(name: str, **options) -> Callable:
    """Resolve an inner exchange by name, optionally binding options (e.g. ``batch_size``)."""
    if name not in INNER_EXCHANGES:
        raise ConfigurationError(
            f"unknown inner exchange {name!r}; available: {', '.join(sorted(INNER_EXCHANGES))}"
        )
    fn = INNER_EXCHANGES[name]
    if options:
        return partial(fn, **options)
    return fn
