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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EvaluationError
from .stl import Outcome

AIRBORNE_MIN_ALTITUDE = 0.5


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
    verdict: Optional[Outcome]
    quadrant: str


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


def compute_margins(trace, config, verdict: Optional[Outcome] = None) -> MarginPoint:
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
