"""Margin-space coordinates for runs: distance to the controller's own
decision boundaries.

The battery margin is the battery level relative to the configured
low-battery trigger, measured at the decision point: the first sample
where the battery is at or below the threshold while the vehicle is
airborne (or the final sample if the battery never crosses).  The
altitude margin is the signed distance to the nearest allowed deployment
altitude limit at that same sample: positive above the maximum, negative
below the minimum, and zero (with ``in_band`` set) anywhere inside the
band, including contact with a limit.

A point also carries the falsifier's boundary rule, so the search loop
knows no drone parameter: ``near_boundary`` (pool membership),
``steering`` (mutation targets) and ``failure_class`` (dedup key).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import Configuration, ConfigSpace
from .errors import EvaluationError
from .stl import Outcome

AIRBORNE_MIN_ALTITUDE = 0.5

# A configuration is worth mutating when its run decided this close to a
# boundary (battery in percent points, altitude in meters); a steered
# parameter is drawn around its target with these spreads.
BATTERY_SEEK_WINDOW = 5.0
ALTITUDE_SEEK_WINDOW = 10.0
BATTERY_SEEK_SIGMA = 0.25
ALTITUDE_SEEK_SIGMA = 1.0
# Violations on one side of the band whose altitude margins floor to the same
# multiple of this many meters, the seek window, are one failure class.
ALTITUDE_CLASS_WIDTH = 10.0


def quadrant_for(battery_margin: float, altitude_margin: float) -> str:
    """Quadrant from margin signs.

    Ties resolve toward the triggered side: battery margin <= 0 counts as
    the low-battery half (the controller fires at the threshold), and
    altitude margin >= 0 counts as the high side.
    """
    low_battery = battery_margin <= 0.0
    high_side = altitude_margin >= 0.0
    if low_battery:
        return "Q2" if high_side else "Q3"
    return "Q1" if high_side else "Q4"


@dataclass(frozen=True)
class MarginPoint:
    battery_margin: float
    altitude_margin: float
    in_band: bool
    verdict: Outcome
    quadrant: str

    @property
    def near_boundary(self) -> bool:
        """Whether the run decided within a seek window of a boundary."""
        return (abs(self.battery_margin) <= BATTERY_SEEK_WINDOW
                or (not self.in_band and abs(self.altitude_margin) <= ALTITUDE_SEEK_WINDOW))

    @property
    def failure_class(self) -> str:
        """``side|bucket``: where the decision altitude lies (in_band, above or
        below the band) and its margin floored to ``ALTITUDE_CLASS_WIDTH``."""
        side = "in_band" if self.in_band else "above" if self.altitude_margin > 0 else "below"
        return f"{side}|{math.floor(self.altitude_margin / ALTITUDE_CLASS_WIDTH)}"

    def steering(self, values: Mapping[str, float]) -> dict[str, tuple[float, float]]:
        """``{parameter: (target, sigma)}`` toward the boundaries the run of
        ``values`` decided near: the initial battery by its margin onto the
        threshold, the initial altitude by its margin onto the band, or from
        inside it to the nearer band edge (the lower on a tie)."""
        steer = {}
        if "battery_init" in values and abs(self.battery_margin) < BATTERY_SEEK_WINDOW:
            steer["battery_init"] = (values["battery_init"] - self.battery_margin,
                                     BATTERY_SEEK_SIGMA)
        if "altitude_init" in values and abs(self.altitude_margin) < ALTITUDE_SEEK_WINDOW:
            alt = values["altitude_init"]
            target = alt - self.altitude_margin
            if self.in_band and {"min_deploy_alt", "max_deploy_alt"} <= values.keys():
                lo, hi = values["min_deploy_alt"], values["max_deploy_alt"]
                target = lo if alt - lo <= hi - alt else hi
            steer["altitude_init"] = (target, ALTITUDE_SEEK_SIGMA)
        return steer


def decision_index(trace, threshold: float) -> int:
    """Index of the first sample with battery at or below the threshold while
    airborne; the final sample if the battery never crosses in flight."""
    for name in ("battery", "altitude"):
        if name not in trace.signals:
            raise EvaluationError(
                f"margin computation needs signal {name!r}; "
                f"trace has {sorted(trace.signals)}")
    battery = trace.signals["battery"]
    altitude = trace.signals["altitude"]
    hits = np.flatnonzero((battery <= threshold) & (altitude > AIRBORNE_MIN_ALTITUDE))
    return int(hits[0]) if hits.size else len(battery) - 1


def compute_margins(trace, config, verdict: Outcome) -> MarginPoint:
    """Margin-space coordinates of one run at its decision point."""
    threshold = config["low_batt_threshold"]
    lo = config["min_deploy_alt"]
    hi = config["max_deploy_alt"]
    decision = decision_index(trace, threshold)
    battery = trace.signals["battery"]
    altitude = trace.signals["altitude"]

    battery_margin = float(battery[decision]) - threshold
    alt = float(altitude[decision])
    if alt > hi:
        altitude_margin = alt - hi
        in_band = False
    elif alt < lo:
        altitude_margin = alt - lo
        in_band = False
    else:
        altitude_margin = 0.0
        in_band = True
    return MarginPoint(
        battery_margin=battery_margin,
        altitude_margin=altitude_margin,
        in_band=in_band,
        verdict=verdict,
        quadrant=quadrant_for(battery_margin, altitude_margin),
    )


def write_margins_csv(path, rows: list[tuple[int, Configuration, MarginPoint]],
                      space: ConfigSpace) -> None:
    """One line per ``(trial, config, point)`` row; ``point`` carries the verdict."""
    config_fields = sorted(space.bounds)
    header = ["trial", "battery_margin", "altitude_margin", "in_band",
              "verdict", "quadrant"] + config_fields
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for trial, config, point in rows:
            writer.writerow(
                [trial, point.battery_margin, point.altitude_margin,
                 point.in_band, point.verdict.value, point.quadrant]
                + [config[name] for name in config_fields])
