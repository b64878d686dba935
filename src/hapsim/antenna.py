"""Antenna patterns, panel arrays and beam steering.

Element patterns follow the quadratic-in-angle (parabolic in dB) shape
used in system simulations: attenuation 12*(offset/hpbw)^2 per principal
plane, summed over both planes and floored at the front-to-back ratio.

A panel is one co-polarized planar grid of elements, spaced in
wavelengths of the operating carrier (half a wavelength by default); a
link sees one subarray, so no second-polarization grid is modelled.
Beams use conjugate-phase weights with uniform amplitude and unit total
power, so a steered beam combines coherently to exactly 10*log10(n) of
array factor at the target.  ``array_gain`` evaluates the array factor in
closed form; the explicit ``steering_weights`` serve as its reference.
"""

from __future__ import annotations

import numpy as np

from .errors import POSITIVE, ConfigError, OutOfCoverageError, check_range, checked_record, scalar_or_array

__all__ = [
    "ElementPattern",
    "Panel",
    "element_gain",
    "planar_panel",
    "single_element_panel",
    "hex_array",
    "steering_weights",
    "broadside_weights",
    "array_gain",
]


class ElementPattern(checked_record("ElementPattern", "peak_gain_dbi hpbw_deg front_to_back_db", (30.0,))):
    """Quadratic-rolloff radiating element (or standalone antenna).

    The pattern is rotationally symmetric: one half-power beamwidth
    applies in both principal planes.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_range(self.hpbw_deg, *POSITIVE, ConfigError, "half-power beamwidth must be positive")
        check_range(self.front_to_back_db, *POSITIVE, ConfigError, "front-to-back ratio must be positive")
        return self


def element_gain(pattern: ElementPattern, az_off_deg, el_off_deg):
    """Gain (dBi) at the given offsets from boresight.

    Accepts scalars or arrays; offsets are principal-plane angles in
    degrees, meaningful over [-180, 180] az and [-90, 90] el.
    """
    az = np.asarray(az_off_deg, dtype=float)
    el = np.asarray(el_off_deg, dtype=float)
    att = 12.0 * (az / pattern.hpbw_deg) ** 2 + 12.0 * (el / pattern.hpbw_deg) ** 2
    gain = pattern.peak_gain_dbi - np.minimum(att, pattern.front_to_back_db)
    return scalar_or_array(gain)


class Panel:
    """One planar antenna panel with a fixed mounting frame.

    ``col_axis``/``row_axis``/``boresight`` form the panel frame in global
    coordinates, each scaled to a unit vector; the panel is one
    co-polarized subarray, a ``rows`` x ``cols`` grid centred on the panel,
    ``spacing_wl`` wavelengths apart.  Its gains are those of that subarray
    alone.  Panels compare by identity.
    """

    def __init__(self, element: ElementPattern, rows: int, cols: int,
                 boresight, col_axis, row_axis, spacing_wl: float = 0.5):
        check_range(rows, *POSITIVE, ConfigError, "panel dimensions must be positive")
        check_range(cols, *POSITIVE, ConfigError, "panel dimensions must be positive")
        check_range(spacing_wl, *POSITIVE, ConfigError, "element spacing must be positive")
        self.element, self.rows, self.cols, self.spacing_wl = element, rows, cols, spacing_wl
        for name, vec in (("boresight", boresight), ("col_axis", col_axis), ("row_axis", row_axis)):
            vec = np.asarray(vec, dtype=float)
            norm = np.linalg.norm(vec)
            if norm == 0:
                raise ConfigError(f"panel {name} must be a nonzero vector")
            vec = vec / norm
            vec.flags.writeable = False  # panels are shared: build_beams hands one set to many campaigns
            setattr(self, name, vec)

    @property
    def n_elements(self) -> int:
        """Elements of the subarray."""
        return self.rows * self.cols

    def local_angles(self, directions):
        """Panel-frame (az, el) offsets in degrees for global directions.

        ``directions`` is an (..., 3) array pointing from the panel towards
        the field point; it need not be normalized.
        """
        d = np.asarray(directions, dtype=float)
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        u = d @ self.col_axis
        v = d @ self.row_axis
        w = d @ self.boresight
        az = np.degrees(np.arctan2(u, w))
        el = np.degrees(np.arctan2(v, np.hypot(u, w)))
        return az, el, u, v


def planar_panel(element: ElementPattern, rows: int, cols: int,
                 boresight_azimuth_deg: float, boresight_elevation_deg: float,
                 spacing_wl: float = 0.5) -> Panel:
    """Build a panel whose boresight points at the given compass direction.

    Columns run horizontally (constant height), rows stack along the
    remaining in-plane axis, which reduces to vertical for an untilted
    panel and to straight down for a nadir-facing one.
    """
    az = np.radians(boresight_azimuth_deg)
    el = np.radians(boresight_elevation_deg)
    b0, b1, b2 = boresight = (np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el))
    c0, c1, c2 = col_axis = (-np.sin(az), np.cos(az), 0.0)
    # col_axis x boresight, term for term as np.cross forms it, which costs more than the rest
    row_axis = (c1 * b2 - c2 * b1, c2 * b0 - c0 * b2, c0 * b1 - c1 * b0)
    return Panel(
        element=element,
        rows=rows,
        cols=cols,
        boresight=boresight,
        col_axis=col_axis,
        row_axis=row_axis,
        spacing_wl=spacing_wl,
    )


def single_element_panel(element: ElementPattern,
                         boresight_azimuth_deg: float = 0.0,
                         boresight_elevation_deg: float = -90.0) -> Panel:
    """A lone antenna modelled as a 1x1 panel (array factor unity)."""
    return planar_panel(element, 1, 1, boresight_azimuth_deg, boresight_elevation_deg)


def hex_array(element: ElementPattern, *, bottom_rows: int = 2, bottom_cols: int = 2,
              side_rows: int = 4, side_cols: int = 2, spacing_wl: float = 0.5,
              side_tilt_deg: float = 23.0, azimuth_offset_deg: float = 0.0) -> list[Panel]:
    """Hexagonal-prism payload: one nadir panel plus six tilted side panels.

    Panel 0 faces straight down; panels 1..6 sit at azimuths 60 degrees
    apart (plus the configured offset), tilted ``side_tilt_deg`` below the
    horizon.  The compass orientation is fixed: it does not rotate as the
    platform moves around its flight circle.
    """
    panels = [planar_panel(element, bottom_rows, bottom_cols, 0.0, -90.0, spacing_wl)]
    for k in range(6):
        az = azimuth_offset_deg + 60.0 * k
        panels.append(
            planar_panel(element, side_rows, side_cols, az, -side_tilt_deg, spacing_wl)
        )
    return panels


def _target_cosines(panel: Panel, target) -> tuple[np.ndarray, np.ndarray]:
    """Panel-frame (col, row) cosines of ``(..., 3)`` steering targets, checked."""
    t = np.asarray(target, dtype=float)
    norm = np.linalg.norm(t, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise OutOfCoverageError("steering target direction is the zero vector")
    t = t / norm
    # elementwise: unlike matmul, rounding then cannot depend on the stack's shape
    check_range((t * panel.boresight).sum(axis=-1), *POSITIVE, OutOfCoverageError,
                "steering target lies behind the panel")
    return (t * panel.col_axis).sum(axis=-1), (t * panel.row_axis).sum(axis=-1)


def steering_weights(panel: Panel, target_direction) -> np.ndarray:
    """Conjugate-phase weights focusing one subarray on a global direction.

    Weights have uniform amplitude ``1/sqrt(n)`` (unit total power) and
    back out the per-element propagation phase towards the target, so the
    array factor there is exactly ``sqrt(n)``.  Element ``r * cols + c``
    sits in row ``r`` and column ``c``.
    """
    u, v = _target_cosines(panel, target_direction)
    col = (np.arange(panel.cols) - (panel.cols - 1) / 2.0) * panel.spacing_wl
    row = (np.arange(panel.rows) - (panel.rows - 1) / 2.0) * panel.spacing_wl
    phase = 2.0 * np.pi * np.add.outer(row * v, col * u).ravel()
    return np.exp(-1j * phase) / np.sqrt(panel.n_elements)


def broadside_weights(panel: Panel) -> np.ndarray:
    """Uniform in-phase weights: the beam stays on the panel boresight."""
    return steering_weights(panel, panel.boresight)


def array_gain(panel: Panel, directions, target=None) -> np.ndarray | float:
    """Realized gain (dBi) of one subarray steered to ``target``, in global directions.

    Element gain plus ``20*log10|AF|`` for the :func:`steering_weights` of
    ``target`` (``None``: the boresight).  ``|AF|`` is the product over both
    panel axes of ``|sin(N pi d x) / sin(pi d x)|``, ``x`` the direction
    cosine minus the target's, over ``sqrt(n)``: ``sqrt(n)`` on target.
    ``directions`` is ``(..., m, 3)``; a ``(..., 3)`` stack of targets
    broadcasts against its leading axes, each row exactly as its own call
    would give.  A zero or behind-panel target raises ``OutOfCoverageError``.
    """
    az, el, u, v = panel.local_angles(directions)
    t = np.asarray(panel.boresight if target is None else target, dtype=float)
    ut, vt = _target_cosines(panel, t if t.ndim == 1 else t[..., None, :])
    # shaped like the targets, so a stack of them broadcasts even with both axes skipped
    af = np.full(np.shape(ut), 1.0 / np.sqrt(panel.n_elements))
    for count, cosine, target_cosine in ((panel.cols, u, ut), (panel.rows, v, vt)):
        # The kernel has period one in d x.  Reduced to r in [-1/2, 1/2] it is
        # N |sinc(N r) / sinc(r)|, whose divisor is at least 2/pi, and grating
        # lobes land exactly on r = 0, where it takes its limit N.  With N = 1
        # that is exactly 1.0, so an axis of one element is skipped.
        if count == 1:
            continue
        s = panel.spacing_wl * (cosine - target_cosine)
        r = s - np.round(s)
        af = af * count * np.abs(np.sinc(count * r) / np.sinc(r))
    gain = element_gain(panel.element, az, el) + 20.0 * np.log10(np.maximum(af, 1e-12))
    return scalar_or_array(gain)
