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

import statistics
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import condensation
from .config import Configuration, ConfigSpace
from .errors import ConfigurationError, TrialFault
from .hybrid import Guard, HybridSystem, RateForm, StateExpr
from .margins import AIRBORNE_MIN_ALTITUDE
from .falsify import run_trial
from .reduction import ReducedSystem, build_surrogate, reach
from .stl import (BOOL_THRESHOLD, And, Atom, Eventually, Globally, Implies, Outcome,
                  StlFormula, state_predicate)

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
    kp: tuple[float, float, float] = (0.5, 0.5, 0.8)  # guidance gain per x, y, z axis
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
        if len(self.kp) != 3:
            raise ConfigurationError("kp must give one gain per axis")


def _deploy_condition(variant: ControllerVariant) -> StlFormula:
    """The condition of the emergency guard: the battery is critical and,
    in the buggy variant, the altitude lies inside the deployment band."""
    critical = Atom("battery", "<=", "low_batt_threshold")
    if variant is ControllerVariant.PATCHED:
        return critical
    return And(critical, And(Atom("altitude", ">=", "min_deploy_alt"),
                             Atom("altitude", "<=", "max_deploy_alt")))


def emergency_deploy_decision(variant: ControllerVariant, battery: float,
                              altitude: float, config: Configuration) -> bool:
    """Deployment decision of the emergency controller: the condition of
    its guard on one state.

    Buggy: deploy only when the battery is critical AND the altitude lies
    inside the configured deployment band.  Patched: deploy whenever the
    battery is critical.
    """
    return state_predicate(_deploy_condition(variant))(
        {"battery": battery, "altitude": altitude}, config)


# ---------------------------------------------------------------------------
# Full five-mode model
# ---------------------------------------------------------------------------

def _emergency_guard(variant: ControllerVariant, params: DroneParams) -> Guard:
    return Guard("battery_critical", None, "PARACHUTE", _parachute_reset(params),
                 condition=_deploy_condition(variant))


def _parachute_reset(params: DroneParams) -> dict[str, StateExpr]:
    rate = params.descent_rate
    return {
        "deployed_flag": StateExpr(lambda s, p: 1.0),
        "vx": StateExpr(lambda s, p: 0.0),
        "vy": StateExpr(lambda s, p: 0.0),
        "vz": StateExpr(lambda s, p, r=rate: -r),
    }


def _guidance(signal: str, gain: float, target: float) -> StateExpr:
    """The rate of ``signal`` under proportional guidance toward ``target``,
    saturated at MAX_SPEED."""
    top = MAX_SPEED

    def rate(s, p):
        command = gain * (target - s[signal])
        return -top if command < -top else top if command > top else command

    return StateExpr(rate, reads=frozenset({signal}))


def _lag(velocity: str, signal: str, gain: float, target: float) -> StateExpr:
    """The first-order lag of ``velocity`` toward the command that
    ``_guidance(signal, gain, target)`` gives."""
    top, tau = MAX_SPEED, ACTUATOR_TAU

    def rate(s, p):
        command = gain * (target - s[signal])
        command = -top if command < -top else top if command > top else command
        return (command - s[velocity]) / tau

    return StateExpr(rate, reads=frozenset({velocity, signal}))


def _lag_to_rest(velocity: str) -> StateExpr:
    """The first-order lag of ``velocity`` toward a zero command."""
    tau = ACTUATOR_TAU
    return StateExpr(lambda s, p: (0.0 - s[velocity]) / tau, reads=frozenset({velocity}))


def build_full_system(params: DroneParams,
                      variant: ControllerVariant = ControllerVariant.BUGGY) -> HybridSystem:
    """The full mission controller with guidance, actuator lags, and the
    emergency override."""
    wx, wy, wz = params.waypoint
    kp_x, kp_y, kp_z = params.kp
    top = MAX_SPEED

    def land_altitude(s, p):
        # _guidance toward the ground, cut to zero there as clamped_rate cuts it
        altitude = s["altitude"]
        command = kp_z * (0.0 - altitude)
        command = -top if command < -top else top if command > top else command
        return command if altitude > 0.0 or command > 0.0 else 0.0

    take_off = {
        "altitude": _guidance("altitude", kp_z, wz),
        "vx": _lag_to_rest("vx"),
        "vy": _lag_to_rest("vy"),
        "vz": _lag("vz", "altitude", kp_z, wz),
        "battery": _clamped("battery", -params.cruise_drain),
    }
    goto = {
        "x": _guidance("x", kp_x, wx),
        "y": _guidance("y", kp_y, wy),
        "vx": _lag("vx", "x", kp_x, wx),
        "vy": _lag("vy", "y", kp_y, wy),
        "vz": _lag_to_rest("vz"),
        "battery": _clamped("battery", -params.cruise_drain),
    }
    land = {
        "altitude": StateExpr(land_altitude, reads=frozenset({"altitude"})),
        "vx": _lag_to_rest("vx"),
        "vy": _lag_to_rest("vy"),
        "vz": _lag("vz", "altitude", kp_z, 0.0),
        "battery": _clamped("battery", -params.hover_drain),
    }
    parachute = {"altitude": _clamped("altitude", -params.descent_rate)}

    emergency = _emergency_guard(variant, params)
    mission_start = Guard(
        "mission_start",
        lambda s, cfg: cfg.get("mission_start", 0.0) >= 0.5, "TAKE_OFF")
    cruise = CLIMB_FRACTION * wz
    cruise_reached = Guard(
        "cruise_altitude_reached", lambda s, cfg: s["altitude"] >= cruise, "GOTO",
        reads=frozenset({"altitude"}))
    radius = WAYPOINT_RADIUS ** 2

    def near_waypoint(s, cfg):
        # products overflow to inf where ** raises, so a far waypoint is never reached
        dx, dy = s["x"] - wx, s["y"] - wy
        return dx * dx + dy * dy <= radius

    waypoint_reached = Guard("waypoint_reached", near_waypoint, "LAND",
                             reads=frozenset({"x", "y"}))

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
    """Cut a draining rate to zero once its level is exhausted."""
    return rate if level > 0.0 else (rate if rate > 0.0 else 0.0)


def _clamped(signal: str, rate: float) -> StateExpr:
    """The constant ``rate`` of ``signal``, cut by ``clamped_rate`` at the
    signal's level.

    Shared by the condensed surrogate dynamics and the full model so both
    sides integrate identically.
    """
    return StateExpr(form=RateForm(rate, signal, clamped_rate(0.0, rate)))


def condensed_drone_descent(params: DroneParams, mode: str) -> dict[str, StateExpr]:
    """Two-variable (battery, altitude) rates for one surrogate mode,
    obtained by condensing the block physical model onto the interface.

    Battery stops draining at empty; altitude stops falling at ground.
    """
    cs = condensation.condense(drone_block_system(mode, params), DRONE_INTERFACE_PARTITION)
    battery_rate, altitude_rate = (float(v) for v in condensation.solve_condensed(cs))
    return {"battery": _clamped("battery", battery_rate),
            "altitude": _clamped("altitude", altitude_rate)}


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


# The safety property, one parametric formula: low battery while airborne
# must be followed by deployment within delta seconds, with the threshold
# and delta read from each trial's configuration.
#   G( (battery <= low_batt_threshold and altitude > AIRBORNE_MIN_ALTITUDE)
#      -> F[0, delta] deployed_flag >= 0.5 )
phi_for: StlFormula = Globally(Implies(
    And(Atom("battery", "<=", "low_batt_threshold"),
        Atom("altitude", ">", AIRBORNE_MIN_ALTITUDE)),
    Eventually(Atom("deployed_flag", ">=", BOOL_THRESHOLD), interval=(0.0, "delta"))))


def check_band(min_deploy_alt: float, max_deploy_alt: float) -> None:
    """The band rule: the minimum deployment altitude lies below the maximum."""
    if not min_deploy_alt < max_deploy_alt:
        raise ConfigurationError(f"min_deploy_alt {min_deploy_alt} must be below "
                                 f"max_deploy_alt {max_deploy_alt}")


def check_delta(delta: float, given: str = "got") -> None:
    """The delay rule: the deployment window of ``phi_for`` is positive.
    An STL window [0, 0] is legal, but it would ask for deployment at the
    sample where the battery goes critical, which records the state
    before the emergency guard fires."""
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, {given} {delta}")


def check_space(space: ConfigSpace, params: DroneParams) -> None:
    """Reject, before any trial runs, a searched space that some trial of
    it would fail.

    The space bounds exactly the surrogate's parameters: a name it never
    reads would be a dead search dimension, and a missing one would fail
    the first trial.  Unless its orderings chain the band, the highest
    min_deploy_alt it allows must lie below the lowest maximum.  Its
    feasible lower bound of delta must be positive, since a mutation
    clipped to that bound gives exactly it.
    """
    known = default_config_space(params).bounds.keys()
    unknown, missing = sorted(space.bounds.keys() - known), sorted(known - space.bounds.keys())
    if unknown or missing:
        raise ConfigurationError(
            f"space must bound exactly the parameters {sorted(known)}; "
            f"unknown: {unknown}, missing: {missing}")
    bounds = space.feasible_bounds
    later = {name: [] for name in bounds}
    for a, b in space.orderings:
        later[a].append(b)
    if "max_deploy_alt" not in reach(["min_deploy_alt"], later):
        check_band(bounds["min_deploy_alt"][1], bounds["max_deploy_alt"][0])
    check_delta(bounds["delta"][0], "but the space allows delta =")


def default_configuration(battery_init: float, altitude_init: float,
                          min_deploy_alt: float = 60.0, max_deploy_alt: float = 80.0,
                          low_batt_threshold: float = 10.0,
                          delta: float = 2.0) -> Configuration:
    """One trial's configuration; the defaults are the reference example's
    band, threshold and delay, which must keep the band and delay rules."""
    check_band(min_deploy_alt, max_deploy_alt)
    check_delta(delta)
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
    condensed = {mode: condensed_drone_descent(params, mode) for mode in ("GOTO", "PARACHUTE")}
    reduced = build_surrogate(full, phi_for, condensed_dynamics=condensed, entry_mode="GOTO")
    # the property's delay is a searched parameter that only the formula
    # reads, not the reduced system, so the space is the whole default space
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
    agreement denominator and reported separately.  All run in this
    process, in order, on one full model, so a GOTO run from the same
    inputs as an earlier one replays it.
    """
    full = build_full_system(params, variant).with_entry("GOTO")
    surrogate = build_surrogate_system(params, variant)
    pairs, faults = [], []
    for config in configs:
        try:
            full_verdict, _ = run_trial(full, config, phi_for, dt, horizon)
            surr_verdict, _ = run_trial(surrogate, config, phi_for, dt, horizon)
        except TrialFault as exc:
            faults.append((config, str(exc)))
        else:
            pairs.append(ConformancePair(config, full_verdict.outcome, surr_verdict.outcome))
    return ConformanceReport(pairs=pairs, faults=faults)


@dataclass
class TimingReport:
    """Wall-clock seconds of one trial on each model, per configuration:
    ``full_times[i]`` and ``surrogate_times[i]`` were timed back to back."""

    full_times: list[float]
    surrogate_times: list[float]

    @property
    def full_seconds(self) -> float:
        return statistics.median(self.full_times)

    @property
    def surrogate_seconds(self) -> float:
        return statistics.median(self.surrogate_times)

    @property
    def speedup(self) -> float:
        """Median over configurations of the full trial's time over the
        surrogate trial's timed next to it: a slow stretch of the host
        slows both trials of a pair alike, so it moves their ratio less
        than it moves either median."""
        return statistics.median(f / s for f, s in zip(self.full_times, self.surrogate_times))


def paired_trial_times(first: tuple, second: tuple, configs: Sequence[Configuration],
                       horizon: float) -> tuple[list[float], list[float]]:
    """Wall-clock time of one simulate-and-evaluate trial on each of two
    ``(build, dt)`` models, per configuration.

    Each trial is cold and times no build: it runs on a model that
    ``build()`` made for it before the first trial ran.  Each model warms
    up with one untimed trial on the first configuration.  Then,
    configuration by configuration, the first model's trial and the
    second's are timed back to back, so a slow stretch slows both alike.
    """
    models = (first, second)
    systems = [build() for _ in range(len(configs) + 1) for build, _ in models]
    systems.reverse()  # popped in trial order, so a run system is freed
    for _, dt in models:
        run_trial(systems.pop(), configs[0], phi_for, dt, horizon)
    seconds = ([], [])
    for config in configs:
        for (_, dt), timed in zip(models, seconds):
            system = systems.pop()
            started = time.perf_counter()
            run_trial(system, config, phi_for, dt, horizon)
            timed.append(time.perf_counter() - started)
    return seconds


def timing_comparison(params: DroneParams, configs: Sequence[Configuration],
                      dt: float, horizon: float,
                      variant: ControllerVariant = ControllerVariant.BUGGY) -> TimingReport:
    """Wall-clock comparison over identical configurations.

    The full model runs at its fidelity step (params.full_model_dt); the
    surrogate runs at the given trace step, each trial on its own model.
    """
    if len(configs) < 10:
        raise ConfigurationError("timing comparison needs at least 10 configurations")
    full = (lambda: build_full_system(params, variant).with_entry("GOTO"), params.full_model_dt)
    surrogate = (lambda: build_surrogate_system(params, variant), dt)
    return TimingReport(*paired_trial_times(full, surrogate, configs, horizon))
