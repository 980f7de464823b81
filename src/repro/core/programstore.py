"""Replaying compiled :class:`~repro.core.compile.SoAProgram` s.

A program from :func:`~repro.core.compile.compile_kernel` replays on
the array interpreter (:func:`~repro.core.soa.run_program`) against the
very kernel it was compiled from, which has never run.  The replay is
bit-identical to that kernel's own :meth:`~repro.core.kernel.
HybridKernel.run`.  :meth:`~repro.engine.session.ExecutionSession.
prepass` is the one caller: it compiles each cold cell and replays it
through :func:`replay_batch`.
"""

from __future__ import annotations

from .compile import SoAProgram


def replay_program(kernel, program: SoAProgram):
    """Replay one compiled program on the kernel it was compiled from.

    Marks the kernel consumed and runs the array interpreter;
    ``engine_used`` on the kernel and on the result reads ``"soa"``.
    """
    from .soa import run_program

    kernel._ran = True
    kernel.engine_used = "soa"
    return run_program(kernel, program)


def replay_batch(cells):
    """Replay ``(kernel, program)`` cells one after another.

    Returns results index-aligned with ``cells``; the first failing
    cell raises its canonical diagnostic.
    """
    return [replay_program(kernel, program) for kernel, program in cells]
