"""Serialization of SLADE artefacts.

Bin menus are calibrated on one machine, decomposition plans are reviewed and
priced offline, and executions happen against a live platform — so the
artefacts need to move between processes.  This package serialises the three
core objects (task bin sets, crowdsourcing tasks/problems, decomposition
plans) to and from plain JSON-compatible dictionaries and files.
"""

from repro.io.serialization import (
    load_bin_set,
    load_plan,
    load_problem,
    plan_from_dict,
    plan_to_dict,
    problem_from_dict,
    problem_to_dict,
    save_bin_set,
    save_plan,
    save_problem,
    bin_set_from_dict,
    bin_set_to_dict,
    solve_request_from_dict,
    solve_request_to_dict,
    solve_response_from_dict,
    solve_response_to_dict,
)

__all__ = [
    "bin_set_to_dict",
    "bin_set_from_dict",
    "save_bin_set",
    "load_bin_set",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "plan_to_dict",
    "plan_from_dict",
    "save_plan",
    "load_plan",
    "solve_request_to_dict",
    "solve_request_from_dict",
    "solve_response_to_dict",
    "solve_response_from_dict",
]
