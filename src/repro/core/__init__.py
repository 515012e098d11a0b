"""ThreadFuser analyzer core: DCFG, IPDOM, warp formation, SIMT-stack replay."""

from .analyzer import (
    AnalyzerConfig,
    ThreadFuserAnalyzer,
    analyze_traces,
    sweep_warp_sizes,
)
from .dcfg import DCFGSet, FunctionDCFG, VEXIT, build_dcfgs
from .ipdom import IpdomError, compute_all_ipdoms, compute_ipdoms, compute_postdominators
from .metrics import (
    TRANSACTION_BYTES,
    AggregateMetrics,
    FunctionStats,
    LockStats,
    SegmentStats,
    WarpMetrics,
    transactions_for,
)
from .replay import ReplayError, WarpReplayer
from .report import AnalysisReport, FunctionReport
from .warp import POLICIES, form_warps

__all__ = [
    "AnalyzerConfig",
    "ThreadFuserAnalyzer",
    "analyze_traces",
    "sweep_warp_sizes",
    "DCFGSet",
    "FunctionDCFG",
    "VEXIT",
    "build_dcfgs",
    "IpdomError",
    "compute_all_ipdoms",
    "compute_ipdoms",
    "compute_postdominators",
    "TRANSACTION_BYTES",
    "AggregateMetrics",
    "FunctionStats",
    "LockStats",
    "SegmentStats",
    "WarpMetrics",
    "transactions_for",
    "ReplayError",
    "WarpReplayer",
    "AnalysisReport",
    "FunctionReport",
    "POLICIES",
    "form_warps",
]
