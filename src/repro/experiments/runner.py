"""Generic session/sweep execution for the experiment modules.

Everything funnels through :class:`~repro.streaming.spec.SessionSpec`:
``run_session`` builds one spec and runs it in-process; ``sweep`` derives
one spec per (config, replication) cell — seeds via
:func:`dataclasses.replace`, never ``__dict__`` surgery, so config
subclasses with derived or non-init fields survive — and hands the flat
spec list to an executor (:class:`~repro.experiments.parallel.\
SerialExecutor` by default, or a :class:`~repro.experiments.parallel.\
ParallelExecutor` to fan replications out across cores).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

from repro.core.base import CoordinationProtocol, ProtocolConfig
from repro.experiments.parallel import (
    ProgressCallback,
    run_specs,
)
from repro.metrics.stats import mean
from repro.streaming.session import SessionResult
from repro.streaming.spec import SessionSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ParallelExecutor, SerialExecutor

ProtocolFactory = Callable[[], CoordinationProtocol]

#: seed stride between successive replications of one config
REPLICATION_SEED_STRIDE = 7919


def run_session(
    protocol_factory: ProtocolFactory,
    config: ProtocolConfig,
    **session_kw,
) -> SessionResult:
    """Build and run one session to quiescence (in-process).

    ``session_kw`` takes the spec fields (``loss=LossSpec(...)``, plans,
    policies, …).  Unlike sweep executors, the result keeps its live
    trace/timeseries handles — call
    :meth:`~repro.streaming.session.SessionResult.detach` to export them.
    """
    spec = SessionSpec(config=config, protocol=protocol_factory, **session_kw)
    return spec.run()


def replication_specs(
    protocol_factory: ProtocolFactory,
    configs: Iterable[ProtocolConfig],
    repetitions: int = 1,
    **session_kw,
) -> List[SessionSpec]:
    """One spec per (config, replication), flat, in sweep order.

    Replication ``rep`` of a config runs with seed
    ``config.seed + REPLICATION_SEED_STRIDE * rep``, derived through
    :func:`dataclasses.replace` so the config's concrete type (and any
    non-init/derived fields a subclass adds) is preserved.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    specs: List[SessionSpec] = []
    for config in configs:
        for rep in range(repetitions):
            cfg = replace(
                config, seed=config.seed + REPLICATION_SEED_STRIDE * rep
            )
            specs.append(
                SessionSpec(config=cfg, protocol=protocol_factory, **session_kw)
            )
    return specs


def sweep(
    protocol_factory: ProtocolFactory,
    configs: Iterable[ProtocolConfig],
    repetitions: int = 1,
    executor: Optional["SerialExecutor | ParallelExecutor"] = None,
    progress: Optional[ProgressCallback] = None,
    **session_kw,
) -> List[List[SessionResult]]:
    """Run every config ``repetitions`` times with derived seeds.

    Returns one list of results per config, in order, independent of the
    executor: pass ``executor=ParallelExecutor(jobs=N)`` to fan the runs
    out across processes with identical results (every result is
    detached — see :meth:`SessionResult.detach` — under serial and
    parallel executors alike).  For parallel execution the session knobs
    must be picklable: declarative specs
    (:class:`~repro.streaming.spec.ProtocolSpec` /
    :class:`~repro.streaming.spec.LossSpec` / plain policy dataclasses)
    always are; lambdas and closures are not.
    """
    configs = list(configs)
    specs = replication_specs(
        protocol_factory, configs, repetitions, **session_kw
    )
    flat = run_specs(specs, executor=executor, progress=progress)
    return [
        flat[i * repetitions : (i + 1) * repetitions]
        for i in range(len(configs))
    ]


def mean_metric(results: Sequence[SessionResult], field: str) -> float:
    """Average one SessionResult attribute over replications.

    ``None`` values (e.g. ``rounds`` of an unsynchronized run) are skipped;
    all-None yields ``float('nan')``.
    """
    values = [getattr(r, field) for r in results]
    values = [v for v in values if v is not None]
    if not values:
        return float("nan")
    return mean([float(v) for v in values])


def default_h_values(n: int = 100) -> list[int]:
    """The H grid used for Figures 10-12 (2 ≤ H ≤ n, as in §4)."""
    grid = [2, 3, 5, 8, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    return [h for h in grid if h <= n]
