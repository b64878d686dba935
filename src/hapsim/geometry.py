"""Positions and link geometry in a local flat-earth frame.

All coordinates are metres in an east/north/up frame whose origin sits on
the ground below the centre of the platform's flight circle.  Earth
curvature is ignored; at the scales involved (tens of km horizontally,
20 km up) the error stays far below the channel-model granularity.

``link_geometry`` gives the pair ``(elevation_deg, slant_range_m)`` of
each ray, the two quantities the channel model reads; no bearing is
computed.  It takes each endpoint as a :class:`Point3` or as an array of
``(x, y, z)`` rows with shape ``(..., 3)``; the two broadcast against
each other, so one call covers every terminal-platform pair of a
campaign.  Two points give floats, arrays give arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, ConfigError, DegenerateGeometryError, check_range, checked_record,
                     scalar_or_array)

__all__ = [
    "Point3",
    "FlightPattern",
    "haps_position",
    "link_geometry",
]


class Point3(checked_record("Point3", "x y z")):
    """A point ``(x, y, z)`` in the local frame.  z is height above ground, never negative."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_range(self.z, *NON_NEGATIVE, ConfigError, "point below ground: z={}")
        return self


class FlightPattern(checked_record("FlightPattern", "center diameter_m position_count angular_step_deg",
                                   (Point3(0.0, 0.0, 20_000.0), 6_000.0, 12, 30.0))):
    """Circular station-keeping pattern sampled at fixed azimuth steps.

    Each position is a frozen snapshot, so the pattern has no speed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_range(self.diameter_m, *POSITIVE, ConfigError, "flight circle diameter must be positive")
        check_range(self.position_count, *POSITIVE, ConfigError, "position_count must be positive")
        if not math.isclose(self.position_count * self.angular_step_deg, 360.0):
            raise ConfigError(
                "position_count * angular_step_deg must cover exactly one revolution, "
                f"got {self.position_count} * {self.angular_step_deg}"
            )
        return self

    @property
    def radius_m(self) -> float:
        return self.diameter_m / 2.0


def haps_position(pattern: FlightPattern, run_index) -> Point3 | np.ndarray:
    """Platform position of one simulation run, or the ``(P, 3)`` rows of an index array.

    Run ``k`` sits at azimuth ``k * angular_step_deg`` measured from the
    +x axis, on the circle of ``pattern``.
    """
    # the float just below the count closes the open end [0, count)
    check_range(run_index, 0, math.nextafter(pattern.position_count, -math.inf), ConfigError,
                f"run_index {{}} outside [0, {pattern.position_count})")
    runs = np.asarray(run_index)
    c, r = pattern.center, pattern.radius_m
    # math's cos and sin, which numpy's may miss by an ulp: each row is its run's Point3
    rows = [Point3(c.x + r * math.cos(a), c.y + r * math.sin(a), c.z)
            for a in map(math.radians, (runs * pattern.angular_step_deg).ravel().tolist())]
    return rows[0] if runs.ndim == 0 else np.array(rows, dtype=float)


def link_geometry(a, b):
    """``(elevation_deg, slant_range_m)`` of the ray a -> b.

    Elevation is measured from a's local horizontal plane (positive when b
    is above it).  Every pair is one ray; a coincident or non-finite pair is rejected.
    """
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    if not np.isfinite(d).all():
        raise DegenerateGeometryError("link endpoints must be finite")
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    horizontal = np.hypot(dx, dy)
    slant = np.sqrt(horizontal * horizontal + dz * dz)
    if not (slant > 0.0).all():
        raise DegenerateGeometryError("link endpoints coincide")
    elevation = np.arctan2(dz, horizontal) * (180.0 / np.pi)
    return scalar_or_array(elevation), scalar_or_array(slant)
