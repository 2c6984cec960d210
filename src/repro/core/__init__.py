"""COLARM core: MIP-index, query model, operators, plans, optimizer, engine."""

from repro.core.calibration import CalibrationReport, calibrate, default_probe_queries
from repro.core.costs import CostModel, CostWeights, QueryProfile
from repro.core.engine import Colarm, QueryOutcome
from repro.core.maintenance import MaintainedIndex
from repro.core.multiquery import BatchReport, execute_batch
from repro.core.persistence import load_index, save_index
from repro.core.mipindex import MIP, MIPIndex, build_mip_index
from repro.core.operators import ExecutionTrace, OperatorTrace, make_context
from repro.core.optimizer import ColarmOptimizer, PlanChoice
from repro.core.parser import ParsedQuery, parse_query
from repro.core.plans import PlanKind, PlanResult, execute_plan, plan_from_name
from repro.core.query import FocalRange, LocalizedQuery
from repro.core.stats import IndexStatistics

__all__ = [
    "MIP",
    "MIPIndex",
    "build_mip_index",
    "IndexStatistics",
    "LocalizedQuery",
    "FocalRange",
    "ParsedQuery",
    "parse_query",
    "ExecutionTrace",
    "OperatorTrace",
    "make_context",
    "PlanKind",
    "PlanResult",
    "execute_plan",
    "plan_from_name",
    "CostModel",
    "CostWeights",
    "QueryProfile",
    "ColarmOptimizer",
    "PlanChoice",
    "CalibrationReport",
    "calibrate",
    "default_probe_queries",
    "Colarm",
    "QueryOutcome",
    "MaintainedIndex",
    "BatchReport",
    "execute_batch",
    "save_index",
    "load_index",
]
