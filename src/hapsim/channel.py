"""Propagation: free-space loss and the non-terrestrial rural channel.

The large-scale model is elevation-binned: per bin it gives a LOS
probability, lognormal shadow-fading standard deviations for LOS/NLOS,
and a clutter loss applied to NLOS links only.  The table ships as a CSV
(see ``data/ntn_rural_s_band.csv`` for the schema) so other environments
can be swapped in without touching code.
"""

from __future__ import annotations

import functools
import logging
import math
from importlib import resources

import numpy as np

from .errors import (POSITIVE, ConfigError, DomainError, check_range, checked_record,
                     read_only, read_utf8, scalar_or_array)
from .geometry import link_geometry

__all__ = [
    "C_LIGHT",
    "fspl",
    "NtnTables",
    "feeder_loss",
]

log = logging.getLogger(__name__)

C_LIGHT = 299_792_458.0  # m/s

DEFAULT_TABLE_RESOURCE = "ntn_rural_s_band.csv"

# each column's ends: the elevations' keep the edge bins' spacing finite; the sigmas and the clutter
# loss enter the link budget's exp, which ends far beyond any real channel keep finite, as the dB keys' do
_ENDS = {
    "elevation_deg": (-90.0, 90.0, "must lie in [-90, 90] degrees"),
    "los_probability": (0.0, 1.0, "must lie in [0, 1]"),
    "shadow_std_los_db": (0.0, 100.0, "must lie in [0, 100] dB"),
    "shadow_std_nlos_db": (0.0, 100.0, "must lie in [0, 100] dB"),
    "clutter_loss_nlos_db": (-300.0, 300.0, "must lie in [-300, 300] dB"),
}


def fspl(frequency_hz, distance_m):
    """Free-space path loss in dB: 20*log10(4*pi*d*f/c).

    Accepts scalars or arrays; rejects non-positive inputs, for which the
    formula has no physical meaning.
    """
    f = np.asarray(frequency_hz, dtype=float)
    d = np.asarray(distance_m, dtype=float)
    for value in (f, d):
        check_range(value, *POSITIVE, DomainError, "fspl requires positive frequency and distance")
    loss = 20.0 * np.log10(4.0 * np.pi * d * f / C_LIGHT)
    return scalar_or_array(loss)


class NtnTables(checked_record("NtnTables", "elevation_deg los_probability shadow_std_los_db "
                                            "shadow_std_nlos_db clutter_loss_nlos_db")):
    """Elevation-binned large-scale channel statistics: per column a read-only copy of a float array."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a copy, with -0.0 as 0.0: numpy's normal takes no scale with its sign bit set
        self = super().__new__(cls, *(read_only(np.asarray(column, dtype=float) + 0.0) for column in self))
        n = len(self.elevation_deg)
        if n == 0:
            raise ConfigError("channel table has no rows")
        for name, (lo, hi, reason) in _ENDS.items():  # NaN and +-inf fail the ends too
            if len(getattr(self, name)) != n:
                raise ConfigError(f"channel table column {name} has wrong length")
            check_range(getattr(self, name), lo, hi, ConfigError, f"channel table column {name} {reason}; got {{}}")
        check_range(np.diff(self.elevation_deg), *POSITIVE, ConfigError, "elevation bins must be strictly increasing")
        return self

    @classmethod
    def from_file(cls, path) -> "NtnTables":
        """Parse a table file: comments, an optional header line, then CSV rows.

        At most one header line is allowed, before the first data row, and
        none of its fields may be a number, so a typo in a data row is
        never taken for a header: it fails like any bad row.  Every value
        must be a finite number, the elevations strictly increasing within
        [-90, 90] degrees, the LOS probabilities in [0, 1], the shadow sigmas
        in [0, 100] dB and the clutter losses in [-300, 300] dB; an error names
        the file, the line and the column.
        """
        columns = cls._fields
        rows, header_seen = [], False
        for line_no, raw in enumerate(read_utf8(path).splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if not rows and not header_seen and not any(map(_is_number, parts)):
                header_seen = True
                continue  # column-name header
            if len(parts) != len(columns):
                raise ConfigError(f"expected {len(columns)} fields, got {len(parts)}",
                                  line_no, path)
            row = []
            for name, token in zip(columns, parts):
                value = float(token) if _is_number(token) else math.nan
                if not math.isfinite(value):
                    raise ConfigError(f"{name}: must be a finite number; got {token!r}",
                                      line_no, path)
                lo, hi, reason = _ENDS[name]
                if not lo <= value <= hi:
                    raise ConfigError(f"{name}: {reason}; got {token}", line_no, path)
                row.append(value)
            if rows and row[0] <= rows[-1][0]:
                raise ConfigError(f"elevation_deg: must be strictly increasing; got {parts[0]} "
                                  f"after {rows[-1][0]:.15g}", line_no, path)
            rows.append(row)
        if not rows:
            raise ConfigError(f"{path}: no data rows found")
        data = np.array(rows, dtype=float)
        return cls(*data.T)

    @classmethod
    @functools.cache
    def default(cls) -> "NtnTables":
        """The bundled rural S-band table, parsed once per process and shared."""
        # relative to this package, so a copy of it under another name reads its own table
        ref = resources.files(__package__) / "data" / DEFAULT_TABLE_RESOURCE
        with resources.as_file(ref) as path:
            return cls.from_file(path)

    def bin_indices(self, elevation_deg) -> np.ndarray:
        """Nearest-bin lookup for an array of elevations (ties go to the lower bin).

        Elevations below the first bin or above the last by more than half
        the spacing of that edge are clamped to the edge bin; one warning
        gives how many were clamped.
        """
        elev = np.asarray(elevation_deg, dtype=float)
        bins = self.elevation_deg
        low, high = (bins[1] - bins[0], bins[-1] - bins[-2]) if len(bins) > 1 else (math.inf,) * 2
        idx = np.argmin(np.abs(elev[..., None] - bins), axis=-1)
        clamped = (elev < bins[0] - low / 2 - 1e-9) | (elev > bins[-1] + high / 2 + 1e-9)
        if clamped.any():
            log.warning(
                "%d elevation(s) outside channel table range [%g, %g] deg, "
                "clamped to the nearest bin", int(clamped.sum()), bins[0], bins[-1],
            )
        return idx

    def bin_index(self, elevation_deg: float) -> int:
        """Nearest bin of one elevation; see :meth:`bin_indices`."""
        return int(self.bin_indices(elevation_deg))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def feeder_loss(gateway, haps, carrier_hz: float):
    """Gateway-to-platform loss (dB): pure free-space over the slant range.

    Either end may be an array of positions (see :func:`link_geometry`).
    """
    return fspl(carrier_hz, link_geometry(gateway, haps)[1])
