"""Simulated MPI: an mpi4py-like API running on a discrete-event machine model.

The package provides everything the paper's algorithms need from MPI:

* :class:`~repro.simmpi.comm.Communicator` — ranks, groups, point-to-point
  (blocking and non-blocking), collectives and communicator splitting;
* :class:`~repro.simmpi.engine.SpmdEngine` — runs one generator ("rank
  program") per simulated process over a :class:`repro.machine.ProcessMap`,
  charging communication costs from the machine's
  :class:`~repro.machine.params.MachineParameters`;
* :mod:`repro.simmpi.collectives` — reference gather / scatter / bcast /
  allgather / allreduce / barrier implementations built on point-to-point.

Rank programs are ordinary Python generator functions: every communication
call is made with ``yield from``, e.g.::

    def program(ctx):
        comm = ctx.world
        data = np.full(4, ctx.rank, dtype=np.int64)
        recv = np.empty(4 * comm.size, dtype=np.int64)
        yield from comm.allgather(data, recv)
        ctx.result = recv

    result = run_spmd(process_map, program)

The returned :class:`~repro.simmpi.engine.JobResult` carries per-rank
results, the simulated elapsed time, per-level traffic and metrics; pass a
:class:`repro.obs.sink.RecordingSink` as ``sink=`` to record every message.
"""

from repro.simmpi.datatypes import ANY_SOURCE, ANY_TAG, PROC_NULL, nbytes_of
from repro.simmpi.status import Status
from repro.simmpi.request import Request
from repro.simmpi.group import Group
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import JobResult, RankContext, SpmdEngine, run_spmd
from repro.simmpi.split import CommLayout, build_comm_layout

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "nbytes_of",
    "Status",
    "Request",
    "Group",
    "Communicator",
    "JobResult",
    "RankContext",
    "SpmdEngine",
    "run_spmd",
    "CommLayout",
    "build_comm_layout",
]
