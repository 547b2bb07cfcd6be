"""Per-layer tracing by wrapping the public functions of each layer.

The benchmark measures its end-to-end metrics with nothing installed.  A
traced pass installs a :class:`LayerTracer`, which replaces chosen class
attributes and module functions of the program with timing wrappers and
restores the originals on :meth:`LayerTracer.uninstall`.  Nothing under
``src/`` knows about it.

Every wrapped operation gets three numbers:

* ``calls`` -- completed calls;
* ``busy_s`` -- wall seconds inside the operation (outermost call only,
  so a method that calls its ``super()`` version is not counted twice);
* ``self_s`` -- busy seconds minus the busy seconds of wrapped operations
  called inside it.

Each operation belongs to one layer; a layer's self time is the sum of its
operations' self times.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "TRACED_OPS", "TRACED_COUNTS", "OpStats", "LayerTracer",
           "install_program_probes", "per_layer_units", "traced"]

#: Layer names, in report order.
LAYERS = ("simulator", "core.reputation_system", "core.pipeline",
          "core.matrix_backend", "core.durability", "dht")


#: Wrapped operations; each reports ``.calls``, ``.busy_s`` and ``.self_s``.
TRACED_OPS = (
    "simulation.run", "engine", "behaviors",
    "query.effective_reputation", "query.judge_file", "query.service_level",
    "ingest",
    "pipeline.refresh", "file_trust.refresh", "volume_trust.refresh",
    "user_trust.refresh", "matrix.copy_with_rows",
    "matrix_backend.power",
    "wal.append", "wal.sync",
    "dht.publish", "dht.retrieve", "dht.lookup", "dht.republish",
    "dht.repair",
)

#: Counts read off the program during the traced passes: name -> unit.
TRACED_COUNTS = {
    "engine.events": "count",
    "pipeline.rows_rebuilt": "count",
    "pipeline.rebuild_ratio": "ratio",
    "matrix_backend.csr_share": "ratio",
    "tm.nnz": "count",
    "rm.nnz": "count",
    "wal.bytes": "bytes",
    "dht.messages": "count",
    "dht.retries": "count",
    "dht.retrieve_complete_ratio": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name (``--trace 1``) with its unit."""
    units: Dict[str, str] = {}
    for op in TRACED_OPS:
        units[f"{op}.calls"] = "count"
        units[f"{op}.busy_s"] = "s"
        units[f"{op}.self_s"] = "s"
    units.update(TRACED_COUNTS)
    for layer in (*LAYERS, "unattributed"):
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.self_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class OpStats:
    """Accumulated timings of one wrapped operation."""

    layer: str
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Stack-based busy/self timer over wrapped callables."""

    def __init__(self) -> None:
        self.ops: Dict[str, OpStats] = {}
        #: Child busy time accumulated by each open frame.
        self._children: List[float] = []
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Hooks called with the result of an operation (for counts).
        self._after: Dict[str, Callable[[Any, Any], None]] = {}

    # ------------------------------------------------------------------ #
    # Installation                                                       #
    # ------------------------------------------------------------------ #

    def wrap(self, owner: Any, attribute: str, op: str, layer: str,
             after: Optional[Callable[[Any, Any], None]] = None) -> None:
        """Replace ``owner.attribute`` with a timing wrapper named ``op``.

        ``owner`` is a class or a module.  Only attributes defined on the
        owner itself are wrapped, so an inherited method is timed once, at
        the class that defines it.  ``after(self_or_none, result)`` runs
        after each call, outside the timed region.
        """
        original = vars(owner)[attribute]
        if isinstance(original, staticmethod):
            raise TypeError(f"cannot wrap staticmethod {owner}.{attribute}")
        self.ops.setdefault(op, OpStats(layer))
        if after is not None:
            self._after[op] = after
        wrapped = self._make_wrapper(original, op)
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _make_wrapper(self, original: Callable[..., Any],
                      op: str) -> Callable[..., Any]:
        stats = self.ops[op]
        children = self._children
        depth = self._depth
        after = self._after
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outermost = depth.get(op, 0) == 0
            depth[op] = depth.get(op, 0) + 1
            children.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                child = children.pop()
                depth[op] -= 1
                stats.calls += 1
                stats.self_s += elapsed - child
                if outermost:
                    stats.busy_s += elapsed
                if children:
                    children[-1] += elapsed
            hook = after.get(op)
            if hook is not None:
                hook(args[0] if args else None, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Reading                                                            #
    # ------------------------------------------------------------------ #

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (every layer present, zeros included)."""
        totals = {layer: 0.0 for layer in LAYERS}
        for stats in self.ops.values():
            totals[stats.layer] += stats.self_s
        return totals


def install_program_probes(tracer: LayerTracer,
                           counters: Dict[str, float]) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    ``counters`` receives per-refresh counts read from the pipeline's own
    :class:`~repro.core.pipeline.RefreshStats` after each refresh.
    """
    from repro.core import pipeline as pipeline_module
    from repro.core import reputation_system
    from repro.core.durability import wal
    from repro.core.file_trust import FileTrustAccumulator
    from repro.core.matrix import TrustMatrix
    from repro.core.matrix_backend import (CsrBackend, DenseNumpyBackend,
                                           SparseDictBackend)
    from repro.core.user_trust import UserTrustAccumulator
    from repro.core.volume_trust import VolumeTrustAccumulator
    from repro.dht import overlay_service
    from repro.simulator import behaviors, engine, simulation

    # simulator: the engine loop, peer behaviours and the run wrapper.
    tracer.wrap(simulation.FileSharingSimulation, "run", "simulation.run",
                "simulator")
    tracer.wrap(engine.EventEngine, "run", "engine", "simulator")
    for cls in vars(behaviors).values():
        if isinstance(cls, type) and issubclass(cls, behaviors.PeerBehavior):
            for hook in ("on_download_complete", "on_periodic"):
                if hook in vars(cls):
                    tracer.wrap(cls, hook, "behaviors", "simulator")

    # core.reputation_system: queries and ingestion on the facade.
    facade = reputation_system.MultiDimensionalReputationSystem
    for query in ("effective_reputation", "judge_file", "service_level"):
        tracer.wrap(facade, query, f"query.{query}",
                    "core.reputation_system")
    for ingest in ("record_download", "record_retention", "record_vote",
                   "record_rank", "add_to_blacklist", "record_fake_deletion"):
        tracer.wrap(facade, ingest, "ingest", "core.reputation_system")

    # core.pipeline: the refresh, its per-dimension accumulators, row patch.
    def after_refresh(pipeline: Any, _view: Any) -> None:
        stats = pipeline.last_stats
        if stats is None or stats.mode != "incremental":
            return
        counters["pipeline.incremental_refreshes"] += 1
        counters["pipeline.rows_rebuilt"] += stats.rows_rebuilt
        counters["pipeline.total_rows"] += stats.total_rows
        if stats.backend == "csr":
            counters["matrix_backend.csr_refreshes"] += 1

    tracer.wrap(pipeline_module.TrustPipeline, "refresh", "pipeline.refresh",
                "core.pipeline", after=after_refresh)
    for accumulator, prefix in ((FileTrustAccumulator, "file_trust"),
                                (VolumeTrustAccumulator, "volume_trust"),
                                (UserTrustAccumulator, "user_trust")):
        for method in ("refresh", "rebuild"):
            tracer.wrap(accumulator, method, f"{prefix}.refresh",
                        "core.pipeline")
    tracer.wrap(TrustMatrix, "copy_with_rows", "matrix.copy_with_rows",
                "core.pipeline")

    # core.matrix_backend: the products behind RM = TM^n.
    for backend in (SparseDictBackend, DenseNumpyBackend, CsrBackend):
        for method in ("power", "matmul"):
            tracer.wrap(backend, method, "matrix_backend.power",
                        "core.matrix_backend")

    # core.durability: WAL appends and syncs.
    tracer.wrap(wal.WalWriter, "append", "wal.append", "core.durability")
    tracer.wrap(wal.WalWriter, "sync", "wal.sync", "core.durability")

    # dht: publication, retrieval, routing and republication.
    overlay = overlay_service.EvaluationOverlay
    for method in ("publish", "publish_index_only"):
        tracer.wrap(overlay, method, "dht.publish", "dht")
    tracer.wrap(overlay, "retrieve", "dht.retrieve", "dht")
    tracer.wrap(overlay, "republish_all", "dht.republish", "dht")
    tracer.wrap(overlay, "repair_replicas", "dht.repair", "dht")
    # The overlay calls the routing function through its own module
    # global, so that is the name to wrap.
    tracer.wrap(overlay_service, "lookup", "dht.lookup", "dht")


@contextlib.contextmanager
def traced(tracer: LayerTracer, counters: Dict[str, float]) -> Iterator[None]:
    """Install the program probes for the duration of the block."""
    install_program_probes(tracer, counters)
    try:
        yield
    finally:
        tracer.uninstall()
