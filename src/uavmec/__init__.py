"""uavmec: 3D multi-UAV edge-computing deployment optimization.

Computes UAV horizontal positions, altitudes, and UE-to-UAV associations
that minimize the slowest UAV's total task-completion time, by block
coordinate descent over an association LP and successive convex
approximation placement steps (one call per step solves every UAV's
subproblem), with baseline methods and brute-force oracles.
"""

from .channel import ChannelParams
from .optimizer import (Deployment, OptimizerConfig, SolveReport,
                        completion_time, solve, solve_clbo, solve_hpo,
                        solve_proposed, solve_vpo)
from .scenario import Box, FleetConfig, Scenario, TaskSpec, Ue, generate, load, save

__all__ = [
    "Box", "ChannelParams", "Deployment", "FleetConfig", "OptimizerConfig",
    "Scenario", "SolveReport", "TaskSpec", "Ue", "completion_time",
    "generate", "load", "save", "solve", "solve_clbo", "solve_hpo",
    "solve_proposed", "solve_vpo",
]
