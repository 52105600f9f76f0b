"""Property-guided reduction and falsification of hybrid cyber-physical systems.

The pipeline: model a system as a hybrid automaton with declared signal
dependencies (:mod:`hdsf.hybrid`), condense its physical model onto the
property-relevant interface (:mod:`hdsf.condensation`), prune the control
logic to the property-relevant modes (:mod:`hdsf.reduction`), then search
the reduced parameter space for safety violations judged by a temporal
logic oracle (:mod:`hdsf.falsify`, :mod:`hdsf.stl`).  The drone parachute
scenario in :mod:`hdsf.drone` exercises the whole pipeline end to end.
"""

from .config import Configuration, ConfigSpace
from .condensation import (CondensedSystem, LinearSystem, Partition, condense,
                           reassemble, reconstruct_internal, solve_condensed)
from .drone import (ControllerVariant, DroneParams, build_full_system,
                    build_surrogate_system, conformance_check,
                    condensed_drone_descent, emergency_deploy_decision,
                    timing_comparison)
from .errors import HdsfError
from .falsify import (CampaignSummary, ViolationRecord, campaign, generate, mutate,
                      run_trial)
from .hybrid import (Guard, HybridSystem, RateForm, StateExpr, Trace, project_trace,
                     simulate)
from .margins import MarginPoint, compute_margins
from .reduction import (ReducedSystem, RelevanceReport, build_surrogate,
                        relevant_modes, relevant_signals)
from .stl import (Atom, Eventually, Globally, Implies, Not, Or, And, Until,
                  Outcome, StlFormula, Verdict, evaluate)

__all__ = [name for name in dir() if not name.startswith("_")]
