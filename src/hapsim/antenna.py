"""Antenna patterns, panel arrays and beam steering.

Element patterns follow the quadratic-in-angle (parabolic in dB) shape
used in system simulations: attenuation 12*(offset/hpbw)^2 per principal
plane, summed over both planes and floored at the front-to-back ratio.

Array panels hold one planar grid of elements per polarization; element
positions are stored in wavelengths of the operating carrier, so the same
normalized grid serves every band (half-wavelength spacing by default).
Steering uses conjugate-phase weights with uniform amplitude, normalized
to unit total power, so a steered beam combines coherently to exactly
10*log10(n_elements) of array factor at the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OutOfCoverageError

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


@dataclass(frozen=True)
class ElementPattern:
    """Quadratic-rolloff radiating element (or standalone antenna)."""

    peak_gain_dbi: float
    hpbw_az_deg: float
    hpbw_el_deg: float
    front_to_back_db: float = 30.0

    def __post_init__(self):
        if self.hpbw_az_deg <= 0 or self.hpbw_el_deg <= 0:
            raise ConfigError("half-power beamwidths must be positive")
        if self.front_to_back_db <= 0:
            raise ConfigError("front-to-back ratio must be positive")


def element_gain(pattern: ElementPattern, az_off_deg, el_off_deg):
    """Gain (dBi) at the given offsets from boresight.

    Accepts scalars or arrays; offsets are principal-plane angles in
    degrees, meaningful over [-180, 180] az and [-90, 90] el.
    """
    az = np.asarray(az_off_deg, dtype=float)
    el = np.asarray(el_off_deg, dtype=float)
    att = 12.0 * (az / pattern.hpbw_az_deg) ** 2 + 12.0 * (el / pattern.hpbw_el_deg) ** 2
    gain = pattern.peak_gain_dbi - np.minimum(att, pattern.front_to_back_db)
    if gain.ndim == 0:
        return float(gain)
    return gain


@dataclass(eq=False)
class Panel:
    """One planar antenna panel with a fixed mounting frame.

    ``col_axis``/``row_axis``/``boresight`` form the panel frame in global
    coordinates; ``element_offsets_wl`` holds the (col, row) position of
    each element of one co-polarized subarray, in wavelengths.  The second
    polarization is an identical co-located grid and is never combined
    with the first for link gain.
    """

    element: ElementPattern
    rows: int
    cols: int
    boresight: np.ndarray
    col_axis: np.ndarray
    row_axis: np.ndarray
    polarizations: int = 2
    spacing_wl: float = 0.5
    element_offsets_wl: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigError("panel dimensions must be positive")
        if self.spacing_wl <= 0:
            raise ConfigError("element spacing must be positive")
        for name in ("boresight", "col_axis", "row_axis"):
            vec = np.asarray(getattr(self, name), dtype=float)
            norm = np.linalg.norm(vec)
            if norm == 0:
                raise ConfigError(f"panel {name} must be a nonzero vector")
            object.__setattr__(self, name, vec / norm)
        ci = (np.arange(self.cols) - (self.cols - 1) / 2.0) * self.spacing_wl
        ri = (np.arange(self.rows) - (self.rows - 1) / 2.0) * self.spacing_wl
        cc, rr = np.meshgrid(ci, ri)
        object.__setattr__(
            self, "element_offsets_wl", np.column_stack([cc.ravel(), rr.ravel()])
        )

    @property
    def n_elements(self) -> int:
        """Elements of one co-polarized subarray."""
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
                 polarizations: int = 2, spacing_wl: float = 0.5) -> Panel:
    """Build a panel whose boresight points at the given compass direction.

    Columns run horizontally (constant height), rows stack along the
    remaining in-plane axis, which reduces to vertical for an untilted
    panel and to straight down for a nadir-facing one.
    """
    az = np.radians(boresight_azimuth_deg)
    el = np.radians(boresight_elevation_deg)
    boresight = np.array(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
    )
    col_axis = np.array([-np.sin(az), np.cos(az), 0.0])
    row_axis = np.cross(col_axis, boresight)
    return Panel(
        element=element,
        rows=rows,
        cols=cols,
        boresight=boresight,
        col_axis=col_axis,
        row_axis=row_axis,
        polarizations=polarizations,
        spacing_wl=spacing_wl,
    )


def single_element_panel(element: ElementPattern,
                         boresight_azimuth_deg: float = 0.0,
                         boresight_elevation_deg: float = -90.0) -> Panel:
    """A lone antenna modelled as a 1x1 panel (array factor unity)."""
    return planar_panel(element, 1, 1, boresight_azimuth_deg,
                        boresight_elevation_deg, polarizations=1)


def hex_array(element: ElementPattern, *, bottom_rows: int = 2, bottom_cols: int = 2,
              side_rows: int = 4, side_cols: int = 2, polarizations: int = 2,
              spacing_wl: float = 0.5, side_tilt_deg: float = 23.0,
              azimuth_offset_deg: float = 0.0) -> list[Panel]:
    """Hexagonal-prism payload: one nadir panel plus six tilted side panels.

    Panel 0 faces straight down; panels 1..6 sit at azimuths 60 degrees
    apart (plus the configured offset), tilted ``side_tilt_deg`` below the
    horizon.  The compass orientation is fixed: it does not rotate as the
    platform moves around its flight circle.
    """
    panels = [
        planar_panel(element, bottom_rows, bottom_cols, 0.0, -90.0,
                     polarizations, spacing_wl)
    ]
    for k in range(6):
        az = azimuth_offset_deg + 60.0 * k
        panels.append(
            planar_panel(element, side_rows, side_cols, az, -side_tilt_deg,
                         polarizations, spacing_wl)
        )
    return panels


def steering_weights(panel: Panel, target_direction) -> np.ndarray:
    """Conjugate-phase weights focusing one subarray on a global direction.

    Weights have uniform amplitude ``1/sqrt(n)`` (unit total power) and
    back out the per-element propagation phase towards the target, so the
    array factor there is exactly ``sqrt(n)``.
    """
    t = np.asarray(target_direction, dtype=float)
    norm = np.linalg.norm(t)
    if norm == 0:
        raise OutOfCoverageError("steering target direction is the zero vector")
    t = t / norm
    if t @ panel.boresight <= 0:
        raise OutOfCoverageError("steering target lies behind the panel")
    u = t @ panel.col_axis
    v = t @ panel.row_axis
    phase = 2.0 * np.pi * (panel.element_offsets_wl @ np.array([u, v]))
    n = panel.n_elements
    return np.exp(-1j * phase) / np.sqrt(n)


def broadside_weights(panel: Panel) -> np.ndarray:
    """Uniform in-phase weights: the beam stays on the panel boresight."""
    return steering_weights(panel, panel.boresight)


def array_gain(panel: Panel, weights: np.ndarray, directions) -> np.ndarray | float:
    """Realized gain (dBi) of one weighted subarray in global directions.

    Element gain plus ``20*log10|AF|`` where the array factor sums the
    weighted per-element phases; with steering weights the target sees the
    element gain plus ``10*log10(n_elements)``.

    ``weights`` is one set ``(n_elements,)`` applied to directions of any
    shape ``(..., 3)``, or a stack ``(..., n_elements)`` whose leading axes
    broadcast against those of ``directions`` ``(..., m, 3)``: a
    ``(P, n_elements)`` stack with ``(P, m, 3)`` directions gives row ``p``
    the gains of weight set ``p``, exactly as ``P`` separate calls would.
    """
    weights = np.asarray(weights)
    if weights.shape[-1:] != (panel.n_elements,):
        raise ConfigError(
            f"expected {panel.n_elements} weights, got shape {weights.shape}"
        )
    az, el, u, v = panel.local_angles(directions)
    elem = element_gain(panel.element, az, el)
    phase = 2.0 * np.pi * (
        np.multiply.outer(u, panel.element_offsets_wl[:, 0])
        + np.multiply.outer(v, panel.element_offsets_wl[:, 1])
    )
    af = np.abs((np.exp(1j * phase) @ weights[..., None])[..., 0])
    gain = elem + 20.0 * np.log10(np.maximum(af, 1e-12))
    if np.ndim(gain) == 0:
        return float(gain)
    return gain
