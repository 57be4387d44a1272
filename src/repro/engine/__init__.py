"""repro.engine — streaming stage pipeline + batched execution engine.

The request path is five composable protocol-typed stages
(:mod:`repro.engine.stages`): Source → Prefilter → Batcher → Executor →
Reducer.  Shape-bucketed batching, per-(scheme, backend, dtype) plan
caching layered on the staged kernel cache, and the thread-pooled executor
are stages of that pipeline; :class:`ExecutionEngine` wires them for batch
(``submit_batch`` / ``run``) and streaming (``stream``, custom
``pipeline``) serving.  :mod:`repro.search` builds the
query-vs-database scenario on the same stages.
"""

from repro.engine.batching import (
    ShapeBatcher,
    ShapeBucket,
    encode_pairs,
    group_by_shape,
)
from repro.engine.engine import EngineConfig, EngineStats, ExecutionEngine
from repro.engine.executor import BatchExecutor, PlanExecutorStage
from repro.engine.plans import ExecutionPlan, PlanCache, global_plan_cache
from repro.engine.stages import (
    Batch,
    PipelineStats,
    Request,
    ScoreCollector,
    StageStats,
    StreamPipeline,
)

__all__ = [
    "ShapeBucket",
    "ShapeBatcher",
    "encode_pairs",
    "group_by_shape",
    "EngineConfig",
    "EngineStats",
    "ExecutionEngine",
    "BatchExecutor",
    "PlanExecutorStage",
    "ExecutionPlan",
    "PlanCache",
    "global_plan_cache",
    "Batch",
    "PipelineStats",
    "Request",
    "ScoreCollector",
    "StageStats",
    "StreamPipeline",
]
