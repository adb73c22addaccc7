"""Runtime system: evaluator, operators, async/failover/cache (section 5)."""

from .asyncexec import AsyncExecutor
from .cache import CacheStats, FunctionCache
from .context import DynamicContext, RuntimeStats
from .evaluate import Evaluator
from .kernels import construct_element_content
from .observed import CostEstimate, ObservedStatistics

__all__ = [
    "AsyncExecutor",
    "CacheStats",
    "FunctionCache",
    "DynamicContext",
    "RuntimeStats",
    "Evaluator",
    "CostEstimate",
    "ObservedStatistics",
    "construct_element_content",
]
