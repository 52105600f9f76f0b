"""Drone parachute-deployment case study.

A five-mode flight controller (IDLE, TAKE_OFF, GOTO, LAND, PARACHUTE)
over an eight-signal state, with an emergency controller that must
deploy the parachute when the battery goes critical in flight.  The
buggy controller variant refuses to deploy outside a configured altitude
band, which is exactly the flaw the safety property catches; the patched
variant deploys unconditionally on critical battery.

The full model commands positions through saturated proportional
guidance toward the mission waypoint and carries first-order actuator
lag states for the velocity channels.  The lag poles (0.1 s) are why the
full model has its own, much finer fidelity step ``full_model_dt``, while
the surrogate, whose condensed dynamics are piecewise constant rates, is
exact at the coarse trace step ``dt``.  The timing comparison runs the
full model at ``full_model_dt``; the conformance check runs both systems
at the trace step it is given.

Analysis starts mid-mission: reduction and conformance enter the system
in GOTO, which is also why IDLE and TAKE_OFF fall out of the reduced
mode set.  The safety property and the block model condensed into the
surrogate's rates live here too, so the generic layers know no drone;
:mod:`hdsf.margins` holds its margins and the boundary rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import condensation
from .config import Configuration, ConfigSpace
from .errors import ConfigurationError, SpecificationError, TrialFault
from .hybrid import Guard, HybridSystem, StateExpr
from .margins import AIRBORNE_MIN_ALTITUDE
from .falsify import map_trials, run_trial
from .reduction import ReducedSystem, build_surrogate
from .stl import (BOOL_THRESHOLD, And, Atom, Eventually, Globally, Implies, Outcome,
                  StlFormula)

FULL_SIGNALS = ("x", "y", "altitude", "vx", "vy", "vz", "battery", "deployed_flag")

# Controller-internal constants (not part of the searched configuration).
MAX_SPEED = 5.0           # m/s, saturation of commanded velocities
ACTUATOR_TAU = 0.1        # s, first-order lag of the velocity channels
WAYPOINT_RADIUS = 2.0     # m, horizontal arrival tolerance
CLIMB_FRACTION = 0.98     # fraction of cruise altitude ending TAKE_OFF


class ControllerVariant(Enum):
    BUGGY = "buggy"
    PATCHED = "patched"


@dataclass(frozen=True)
class DroneParams:
    """The model and the run settings; defaults reproduce the reference run.
    The values a trial varies live in a Configuration (default_configuration)."""

    cruise_drain: float = 0.8        # percent/s while navigating
    hover_drain: float = 0.4         # percent/s while landing
    descent_rate: float = 3.0        # m/s under parachute
    waypoint: tuple[float, float, float] = (1000.0, 0.0, 70.0)
    pid_gains: tuple[tuple[float, float, float], ...] = (
        (0.5, 0.0, 0.0), (0.5, 0.0, 0.0), (0.8, 0.0, 0.0))
    dt: float = 0.05                 # s, surrogate / trace step
    horizon: float = 120.0           # s
    full_model_dt: float = 0.005     # s, fidelity step for the full model

    def __post_init__(self):
        if self.cruise_drain < 0 or self.hover_drain < 0:
            raise ConfigurationError("battery drains must be nonnegative")
        if self.descent_rate <= 0:
            raise ConfigurationError("descent_rate must be positive")
        if len(self.waypoint) != 3:
            raise ConfigurationError("waypoint must be a 3-vector")
        if len(self.pid_gains) != 3:
            raise ConfigurationError("pid_gains must give (kp, ki, kd) per axis")


def emergency_deploy_decision(variant: ControllerVariant, battery: float,
                              altitude: float, config: Configuration) -> bool:
    """Deployment decision of the emergency controller.

    Buggy: deploy only when the battery is critical AND the altitude lies
    inside the configured deployment band.  Patched: deploy whenever the
    battery is critical.
    """
    if battery > config["low_batt_threshold"]:
        return False
    if variant is ControllerVariant.PATCHED:
        return True
    return config["min_deploy_alt"] <= altitude <= config["max_deploy_alt"]


# ---------------------------------------------------------------------------
# Full five-mode model
# ---------------------------------------------------------------------------

def _saturated(command: float) -> float:
    return -MAX_SPEED if command < -MAX_SPEED else MAX_SPEED if command > MAX_SPEED else command


def _emergency_guard(variant: ControllerVariant, params: DroneParams) -> Guard:
    def predicate(s, cfg):
        return emergency_deploy_decision(variant, s["battery"], s["altitude"], cfg)

    return Guard("battery_critical", predicate, "PARACHUTE", _parachute_reset(params),
                 reads=frozenset({"battery", "altitude"}))


def _parachute_reset(params: DroneParams) -> dict[str, StateExpr]:
    rate = params.descent_rate
    return {
        "deployed_flag": StateExpr(lambda s, p: 1.0),
        "vx": StateExpr(lambda s, p: 0.0),
        "vy": StateExpr(lambda s, p: 0.0),
        "vz": StateExpr(lambda s, p, r=rate: -r),
    }


def build_full_system(params: DroneParams,
                      variant: ControllerVariant = ControllerVariant.BUGGY) -> HybridSystem:
    """The full mission controller with guidance, actuator lags, and the
    emergency override."""
    wx, wy, wz = params.waypoint
    kp_x, kp_y, kp_z = (g[0] for g in params.pid_gains)
    cruise, hover = params.cruise_drain, params.hover_drain
    tau = ACTUATOR_TAU

    def vx_cmd(s):
        return _saturated(kp_x * (wx - s["x"]))

    def vy_cmd(s):
        return _saturated(kp_y * (wy - s["y"]))

    def climb_cmd(s):
        return _saturated(kp_z * (wz - s["altitude"]))

    def land_cmd(s):
        return _saturated(kp_z * (0.0 - s["altitude"]))

    cruise_battery = StateExpr(lambda s, p: clamped_rate(s["battery"], -cruise),
                               reads=frozenset({"battery"}))
    hover_battery = StateExpr(lambda s, p: clamped_rate(s["battery"], -hover),
                              reads=frozenset({"battery"}))

    def lag(cmd, vname, extra_reads=()):
        return StateExpr(lambda s, p: (cmd(s) - s[vname]) / tau,
                         reads=frozenset({vname, *extra_reads}))

    zero_cmd = lambda s: 0.0

    take_off = {
        "altitude": StateExpr(lambda s, p: climb_cmd(s), reads=frozenset({"altitude"})),
        "vx": lag(zero_cmd, "vx"),
        "vy": lag(zero_cmd, "vy"),
        "vz": lag(climb_cmd, "vz", extra_reads=("altitude",)),
        "battery": cruise_battery,
    }
    goto = {
        "x": StateExpr(lambda s, p: vx_cmd(s), reads=frozenset({"x"})),
        "y": StateExpr(lambda s, p: vy_cmd(s), reads=frozenset({"y"})),
        "vx": lag(vx_cmd, "vx", extra_reads=("x",)),
        "vy": lag(vy_cmd, "vy", extra_reads=("y",)),
        "vz": lag(zero_cmd, "vz"),
        "battery": cruise_battery,
    }
    land = {
        "altitude": StateExpr(lambda s, p: clamped_rate(s["altitude"], land_cmd(s)),
                              reads=frozenset({"altitude"})),
        "vx": lag(zero_cmd, "vx"),
        "vy": lag(zero_cmd, "vy"),
        "vz": lag(land_cmd, "vz", extra_reads=("altitude",)),
        "battery": hover_battery,
    }
    parachute = {
        "altitude": StateExpr(
            lambda s, p, r=params.descent_rate: clamped_rate(s["altitude"], -r),
            reads=frozenset({"altitude"})),
    }

    emergency = _emergency_guard(variant, params)
    mission_start = Guard(
        "mission_start",
        lambda s, cfg: cfg.get("mission_start", 0.0) >= 0.5, "TAKE_OFF")
    cruise_reached = Guard(
        "cruise_altitude_reached",
        lambda s, cfg: s["altitude"] >= CLIMB_FRACTION * wz, "GOTO",
        reads=frozenset({"altitude"}))
    waypoint_reached = Guard(
        "waypoint_reached",
        lambda s, cfg: (s["x"] - wx) ** 2 + (s["y"] - wy) ** 2 <= WAYPOINT_RADIUS ** 2,
        "LAND", reads=frozenset({"x", "y"}))

    return HybridSystem(
        signal_names=FULL_SIGNALS,
        dynamics={"IDLE": {}, "TAKE_OFF": take_off, "GOTO": goto,
                  "LAND": land, "PARACHUTE": parachute},
        guards={
            "IDLE": (mission_start,),
            "TAKE_OFF": (cruise_reached,),
            "GOTO": (emergency, waypoint_reached),
            "LAND": (emergency,),
        },
        initial_mode="IDLE",
        initials={"x": 0.0, "y": 0.0, "altitude": "altitude_init",
                  "vx": 0.0, "vy": 0.0, "vz": 0.0,
                  "battery": "battery_init", "deployed_flag": 0.0},
    )


# ---------------------------------------------------------------------------
# Condensed descent dynamics
# ---------------------------------------------------------------------------

# Steady-state block model coupling the (battery rate, altitude rate)
# interface to two internal states (motor thermal deviation, ESC load
# deviation).  Couplings and internal stiffness are powers of two so the
# Schur path introduces no avoidable rounding.
_COUPLING = 0.25
_INTERNAL_STIFFNESS = 2.0


def drone_block_system(mode: str, params: DroneParams) -> condensation.LinearSystem:
    """Per-mode linear block model whose interface solution is the
    (battery rate, altitude rate) pair for that mode."""
    if mode == "GOTO":
        target = np.array([-params.cruise_drain, 0.0, 0.0, 0.0])
    elif mode == "PARACHUTE":
        target = np.array([0.0, -params.descent_rate, 0.0, 0.0])
    else:
        raise ConfigurationError(f"no block model for mode {mode!r}")
    c, d = _COUPLING, _INTERNAL_STIFFNESS
    K = np.array([
        [1.0, 0.0, c, 0.0],
        [0.0, 1.0, 0.0, c],
        [c, 0.0, d, 0.0],
        [0.0, c, 0.0, d],
    ])
    return condensation.LinearSystem(K, K @ target)


DRONE_INTERFACE_PARTITION = condensation.Partition(interface_indices=(0, 1),
                                                   internal_indices=(2, 3))


def clamped_rate(level: float, rate: float) -> float:
    """Cut a draining rate to zero once its level is exhausted.

    Shared by the condensed surrogate dynamics and the full model so both
    sides integrate identically.
    """
    return rate if level > 0.0 else (rate if rate > 0.0 else 0.0)


def condensed_drone_descent(params: DroneParams,
                            mode: str = "PARACHUTE") -> dict[str, StateExpr]:
    """Two-variable (battery, altitude) rates for one surrogate mode,
    obtained by condensing the block physical model onto the interface.

    Battery stops draining at empty; altitude stops falling at ground.
    """
    cs = condensation.condense(drone_block_system(mode, params), DRONE_INTERFACE_PARTITION)
    battery_rate, altitude_rate = (float(v) for v in condensation.solve_condensed(cs))
    return {
        "battery": StateExpr(
            lambda s, p, r=battery_rate: clamped_rate(s["battery"], r),
            reads=frozenset({"battery"})),
        "altitude": StateExpr(
            lambda s, p, r=altitude_rate: clamped_rate(s["altitude"], r),
            reads=frozenset({"altitude"})),
    }


# ---------------------------------------------------------------------------
# Surrogate and its parameter space
# ---------------------------------------------------------------------------

def default_config_space(params: DroneParams, rng_seed: int = 0) -> ConfigSpace:
    """Search bounds for the property-scoped parameters."""
    return ConfigSpace(
        bounds={
            "battery_init": (0.0, 100.0),
            "altitude_init": (0.0, 150.0),
            "min_deploy_alt": (20.0, 90.0),
            "max_deploy_alt": (40.0, 120.0),
            "low_batt_threshold": (5.0, 30.0),
            "delta": (0.5, 5.0),
        },
        orderings=(("min_deploy_alt", "max_deploy_alt"),),
        rng_seed=rng_seed,
    )


def builtin_phi(delta: float, battery_threshold: float = 10.0) -> StlFormula:
    """Low battery while airborne must be followed by deployment within ``delta`` seconds.

    G( (battery <= battery_threshold and altitude > AIRBORNE_MIN_ALTITUDE)
       -> F[0, delta] deployed_flag >= 0.5 )
    """
    if delta <= 0:
        raise SpecificationError(f"delta must be positive, got {delta}")
    antecedent = And(
        Atom("battery", "<=", float(battery_threshold)),
        Atom("altitude", ">", AIRBORNE_MIN_ALTITUDE),
    )
    consequent = Eventually(Atom("deployed_flag", ">=", BOOL_THRESHOLD),
                            interval=(0.0, float(delta)))
    return Globally(Implies(antecedent, consequent))


def phi_for(config: Configuration) -> StlFormula:
    """The safety property instantiated with a configuration's thresholds."""
    return builtin_phi(config["delta"], config["low_batt_threshold"])


def check_band(min_deploy_alt: float, max_deploy_alt: float) -> None:
    """The band rule: the minimum deployment altitude lies below the maximum."""
    if not min_deploy_alt < max_deploy_alt:
        raise ConfigurationError(f"min_deploy_alt {min_deploy_alt} must be below "
                                 f"max_deploy_alt {max_deploy_alt}")


def check_space_band(space: ConfigSpace) -> None:
    """The band rule for all of ``space``: unless its orderings chain the band,
    the highest min_deploy_alt it allows must lie below the lowest maximum."""
    bounds = space.feasible_bounds
    above = {"min_deploy_alt"}
    for _ in space.orderings:
        above |= {b for a, b in space.orderings if a in above}
    if "max_deploy_alt" not in above and {"min_deploy_alt", "max_deploy_alt"} <= bounds.keys():
        check_band(bounds["min_deploy_alt"][1], bounds["max_deploy_alt"][0])


def default_configuration(battery_init: float, altitude_init: float,
                          min_deploy_alt: float = 60.0, max_deploy_alt: float = 80.0,
                          low_batt_threshold: float = 10.0,
                          delta: float = 2.0) -> Configuration:
    """One trial's configuration; the defaults are the reference example's
    band, threshold and delay.  ``phi_for`` checks the delay."""
    check_band(min_deploy_alt, max_deploy_alt)
    return Configuration({
        "battery_init": battery_init,
        "altitude_init": altitude_init,
        "min_deploy_alt": min_deploy_alt,
        "max_deploy_alt": max_deploy_alt,
        "low_batt_threshold": low_batt_threshold,
        "delta": delta,
    })


def build_surrogate_system(params: DroneParams,
                           variant: ControllerVariant = ControllerVariant.BUGGY,
                           rng_seed: int = 0) -> ReducedSystem:
    """Two-mode surrogate over (altitude, battery, deployed_flag), with the
    condensed per-mode physical dynamics and the six-parameter search space."""
    full = build_full_system(params, variant)
    phi = phi_for(default_configuration(10.0, 20.0))  # reduction reads its signals only
    condensed = {
        "GOTO": condensed_drone_descent(params, "GOTO"),
        "PARACHUTE": condensed_drone_descent(params, "PARACHUTE"),
    }
    reduced = build_surrogate(full, phi, condensed_dynamics=condensed, entry_mode="GOTO")
    # the property's delay bound is a searched parameter even though the
    # formula carries it as a literal and no part of the reduced system
    # reads it, so the space is the whole default space
    reduced.parameter_space = default_config_space(params, rng_seed=rng_seed)
    return reduced


# ---------------------------------------------------------------------------
# Conformance and timing
# ---------------------------------------------------------------------------

@dataclass
class ConformancePair:
    config: Configuration
    full: Outcome
    surrogate: Outcome

    @property
    def agree(self) -> bool:
        return self.full is self.surrogate


@dataclass
class ConformanceReport:
    pairs: list[ConformancePair]
    faults: list[tuple[Configuration, str]]

    @property
    def agreement(self) -> float:
        if not self.pairs:
            return 1.0
        return sum(p.agree for p in self.pairs) / len(self.pairs)


def conformance_check(params: DroneParams, variant: ControllerVariant,
                      configs: Sequence[Configuration], dt: float,
                      horizon: float) -> ConformanceReport:
    """Per-configuration verdict agreement between the full model (entered
    in GOTO) and the surrogate, both simulated at the step ``dt``; the
    property reads only signals both systems have.

    Configurations that fault in either system are excluded from the
    agreement denominator and reported separately.  The configurations are
    checked by ``map_trials``, one forked worker per usable CPU.
    """
    full = build_full_system(params, variant).with_entry("GOTO")
    surrogate = build_surrogate_system(params, variant)

    def check(config: Configuration):
        try:
            full_verdict, _ = run_trial(full, config, phi_for, dt, horizon)
            surr_verdict, _ = run_trial(surrogate, config, phi_for, dt, horizon)
        except TrialFault as exc:
            return str(exc)
        return full_verdict.outcome, surr_verdict.outcome

    pairs = []
    faults = []
    for config, checked in zip(configs, map_trials(check, configs)):
        if isinstance(checked, str):
            faults.append((config, checked))
        else:
            pairs.append(ConformancePair(config, *checked))
    return ConformanceReport(pairs=pairs, faults=faults)


@dataclass
class TimingReport:
    mean_full_seconds: float
    mean_surrogate_seconds: float

    @property
    def speedup(self) -> float:
        return self.mean_full_seconds / self.mean_surrogate_seconds


def mean_trial_seconds(system_like, configs: Sequence[Configuration], dt: float,
                       horizon: float) -> float:
    """Mean wall-clock time of one simulate-and-evaluate trial."""
    started = time.perf_counter()
    for config in configs:
        run_trial(system_like, config, phi_for, dt, horizon)
    return (time.perf_counter() - started) / len(configs)


def timing_comparison(params: DroneParams, configs: Sequence[Configuration],
                      dt: float, horizon: float,
                      variant: ControllerVariant = ControllerVariant.BUGGY) -> TimingReport:
    """Wall-clock comparison over identical configurations.

    The full model runs at its fidelity step (params.full_model_dt); the
    surrogate runs at the given trace step.
    """
    if len(configs) < 10:
        raise ConfigurationError("timing comparison needs at least 10 configurations")
    full = build_full_system(params, variant).with_entry("GOTO")
    surrogate = build_surrogate_system(params, variant)
    mean_full = mean_trial_seconds(full, configs, params.full_model_dt, horizon)
    mean_surr = mean_trial_seconds(surrogate, configs, dt, horizon)
    return TimingReport(mean_full_seconds=mean_full, mean_surrogate_seconds=mean_surr)
