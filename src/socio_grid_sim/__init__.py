"""Deterministic agent-based simulation of end-user dissatisfaction under
load shedding, with media-gated emotion contagion and a fairness-aware
shedding planner."""

from ._version import __version__
from .core_types import (
    AgentId,
    ContagionNetwork,
    ModelParams,
    PiecewiseSchedule,
    Scenario,
    SimulationResult,
    ValidationError,
)
from .dynamics import ContagionSnapshot, compute_target, contagion_snapshot, simulate, step
from .metrics import aggregate_trajectory
from .planner import PlanInfeasibleError, PlanObjective, evaluate_plan, plan_shedding
from .plans import SheddingPlan, SheddingSlot, apply_plan, plan_from_dict, plan_to_dict
from .scenario_io import (
    ScenarioParseError,
    builtin_case_study,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_results,
    write_scenario,
)

__all__ = [
    "__version__",
    "AgentId",
    "ContagionNetwork",
    "ContagionSnapshot",
    "ModelParams",
    "PiecewiseSchedule",
    "PlanInfeasibleError",
    "PlanObjective",
    "Scenario",
    "ScenarioParseError",
    "SheddingPlan",
    "SheddingSlot",
    "SimulationResult",
    "ValidationError",
    "aggregate_trajectory",
    "apply_plan",
    "builtin_case_study",
    "compute_target",
    "contagion_snapshot",
    "evaluate_plan",
    "load_scenario",
    "plan_from_dict",
    "plan_shedding",
    "plan_to_dict",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate",
    "step",
    "write_results",
    "write_scenario",
]
