"""Antenna patterns, panel arrays and the gains of a stacked beam set.

Element patterns follow the quadratic-in-angle (parabolic in dB) shape
used in system simulations: attenuation 12*(offset/hpbw)^2 per principal
plane, summed over both planes and floored at the front-to-back ratio.

A panel is one co-polarized planar grid of elements, spaced in
wavelengths of the operating carrier (the ``element_spacing_wl`` key); a
link sees one subarray, so no second-polarization grid is modelled.
Beams use conjugate-phase weights with uniform amplitude and unit total
power, so a steered beam combines coherently to exactly 10*log10(n) of
array factor at the target.  One ``array_gain`` call evaluates every beam of
a :class:`BeamSet`, the array factor in closed form: ``|U_{N-1}(cos pi x)|`` per
panel axis of ``N`` elements, by the Chebyshev recurrence, checked against the
explicit ``steering_weights``.  Frame products are summed in a fixed order,
never by BLAS, and the elevation offset's horizontal leg is a correctly rounded
``sqrt``, not libm's ``hypot``, so their bits do not depend on the host; the
``arctan2``, ``cos`` and ``log10`` passes still take numpy's SIMD kernels,
whose last bit can differ between CPUs.
"""

from __future__ import annotations

import numpy as np

from .errors import POSITIVE, ConfigError, OutOfCoverageError, check_range, checked_record, read_only, scalar_or_array

__all__ = ["ElementPattern", "Panel", "BeamSet", "element_gain", "planar_panel", "single_element_panel",
           "hex_array", "steering_weights", "broadside_weights", "array_gain"]


class ElementPattern(checked_record("ElementPattern", "peak_gain_dbi hpbw_deg front_to_back_db")):
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


def _dot(a, b):
    """``a . b`` over a last axis of length 3, summed in a fixed order: no BLAS kernel picks the rounding."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _angles(d, col_axis, row_axis, boresight):
    """Frame (az, el) offsets in degrees and (col, row) cosines of the unit directions ``d``."""
    u, v, w = _dot(d, col_axis), _dot(d, row_axis), _dot(d, boresight)
    horizontal = np.sqrt(u * u + w * w)  # correctly rounded on every IEEE host, as libm's hypot is not
    return np.arctan2(u, w) * (180.0 / np.pi), np.arctan2(v, horizontal) * (180.0 / np.pi), u, v


class Panel:
    """One planar antenna panel with a fixed mounting frame.

    ``col_axis``/``row_axis``/``boresight`` form the panel frame in global
    coordinates, each scaled to a unit vector; the panel is one
    co-polarized subarray, a ``rows`` x ``cols`` grid centred on the panel,
    ``spacing_wl`` wavelengths apart.  Its gains are those of that subarray
    alone.  Panels compare by identity.
    """

    def __init__(self, element: ElementPattern, rows: int, cols: int,
                 boresight, col_axis, row_axis, spacing_wl: float):
        check_range(rows, *POSITIVE, ConfigError, "panel dimensions must be positive")
        check_range(cols, *POSITIVE, ConfigError, "panel dimensions must be positive")
        check_range(spacing_wl, *POSITIVE, ConfigError, "element spacing must be positive")
        self.element, self.rows, self.cols, self.spacing_wl = element, rows, cols, spacing_wl
        for name, vec in (("boresight", boresight), ("col_axis", col_axis), ("row_axis", row_axis)):
            vec = np.asarray(vec, dtype=float)
            if not np.isfinite(vec).all():
                raise ConfigError(f"panel {name} must be a finite vector")
            norm = np.sqrt(_dot(vec, vec))
            if norm == 0:
                raise ConfigError(f"panel {name} must be a nonzero vector")
            setattr(self, name, read_only(vec / norm))  # panels are shared, as build_beams shares them

    @property
    def n_elements(self) -> int:
        """Elements of the subarray."""
        return self.rows * self.cols

    def local_angles(self, directions):
        """Panel-frame (az, el) offsets in degrees and (col, row) cosines of ``(..., 3)`` global directions."""
        d = np.asarray(directions, dtype=float)
        return _angles(d / np.sqrt(_dot(d, d))[..., None], self.col_axis, self.row_axis, self.boresight)


def planar_panel(element: ElementPattern, rows: int, cols: int,
                 boresight_azimuth_deg: float, boresight_elevation_deg: float, spacing_wl: float) -> Panel:
    """Build a panel whose boresight points at the given compass direction.

    Columns run horizontally (constant height), rows stack along the
    remaining in-plane axis, which reduces to vertical for an untilted
    panel and to straight down for a nadir-facing one.
    """
    az = np.radians(boresight_azimuth_deg)
    el = np.radians(boresight_elevation_deg)
    boresight = (np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el))
    col_axis = (-np.sin(az), np.cos(az), 0.0)
    return Panel(element, rows, cols, boresight, col_axis, np.cross(col_axis, boresight), spacing_wl)


def single_element_panel(element: ElementPattern) -> Panel:
    """A lone antenna facing nadir, modelled as a 1x1 panel (array factor unity, whatever the spacing)."""
    return planar_panel(element, 1, 1, 0.0, -90.0, 0.5)


def hex_array(element: ElementPattern, *, bottom_rows: int, bottom_cols: int, side_rows: int, side_cols: int,
              spacing_wl: float, side_tilt_deg: float, azimuth_offset_deg: float) -> list[Panel]:
    """Hexagonal-prism payload: one nadir panel plus six tilted side panels, elements ``spacing_wl`` apart.

    Panel 0 faces straight down; panels 1..6 sit at azimuths 60 degrees
    apart from ``azimuth_offset_deg``, tilted ``side_tilt_deg`` below the
    horizon.  The compass orientation is fixed: it does not rotate as the
    platform moves around its flight circle.
    """
    return [planar_panel(element, bottom_rows, bottom_cols, 0.0, -90.0, spacing_wl)] + [
        planar_panel(element, side_rows, side_cols, azimuth_offset_deg + 60.0 * k, -side_tilt_deg, spacing_wl)
        for k in range(6)]


class BeamSet:
    """A payload's panels stacked on one beam axis, with the ground cell each beam serves.

    ``col_axis``, ``row_axis`` and ``boresight`` hold one unit frame row per beam, ``(B, 3)``;
    ``rows``, ``cols`` and ``spacing_wl`` are ``(B,)``, and ``centers`` holds the ``(B, 2)``
    cell centres.  Every beam has the one ``element`` pattern.  The arrays are read-only.
    """

    __slots__ = ("element", "rows", "cols", "spacing_wl", "col_axis", "row_axis", "boresight", "centers")

    def __init__(self, panels, centers):
        if any(p.element != panels[0].element for p in panels):
            raise ConfigError("the panels of a beam set must share one element pattern")
        self.element, self.centers = panels[0].element, read_only(np.array(centers, dtype=float))
        for name in self.__slots__[1:7]:
            setattr(self, name, read_only(np.array([getattr(p, name) for p in panels])))


def _unit_targets(frame, targets) -> np.ndarray:
    """``(..., B, 3)`` steering targets (a panel's: ``(3,)``) scaled to unit vectors, checked beam by beam."""
    t = np.asarray(targets, dtype=float)
    norm = np.sqrt(_dot(t, t))[..., None]
    t = np.divide(t, norm, out=np.zeros_like(t), where=norm != 0.0)  # a zero target stays zero and fails
    ok = _dot(t, frame.boresight) > 0.0  # NaN fails too
    if not ok.all():
        beam = int(np.flatnonzero(~ok.reshape(-1, *ok.shape[-1:]).all(axis=0))[0])
        raise OutOfCoverageError(f"steering target of beam {beam} is zero or lies behind its panel", beam)
    return t


def steering_weights(panel: Panel, target_direction) -> np.ndarray:
    """Conjugate-phase weights focusing one subarray on a global direction.

    Weights have uniform amplitude ``1/sqrt(n)`` (unit total power) and back out the per-element
    propagation phase towards the target, so the array factor there is exactly ``sqrt(n)``.
    Element ``r * cols + c`` sits in row ``r`` and column ``c``.
    """
    t = _unit_targets(panel, target_direction)
    u, v = _dot(t, panel.col_axis), _dot(t, panel.row_axis)
    col = (np.arange(panel.cols) - (panel.cols - 1) / 2.0) * panel.spacing_wl
    row = (np.arange(panel.rows) - (panel.rows - 1) / 2.0) * panel.spacing_wl
    phase = 2.0 * np.pi * np.add.outer(row * v, col * u).ravel()
    return np.exp(-1j * phase) / np.sqrt(panel.n_elements)


def broadside_weights(panel: Panel) -> np.ndarray:
    """Uniform in-phase weights: the beam stays on the panel boresight."""
    return steering_weights(panel, panel.boresight)


def array_gain(beams: BeamSet, directions, targets=None) -> np.ndarray:
    """Realized gain (dBi) of every beam, ``(..., B, n)``, towards ``(..., n, 3)`` global directions.

    Element gain plus ``20*log10|AF|`` for the :func:`steering_weights` of each beam's target:
    ``targets`` is ``(..., B, 3)``, broadcast against the leading axes (``None``: the boresights).
    ``|AF|`` is the product over both panel axes of ``|U_{N-1}(cos pi d x)|``, ``x`` the direction
    cosine minus the target's, over ``sqrt(n)``: ``sqrt(n)`` on target.  A beam's gains are the
    bits of its own one-beam call.  A zero or behind-panel target raises ``OutOfCoverageError``
    with its ``beam``.
    """
    d = np.asarray(directions, dtype=float)
    d = (d / np.sqrt(_dot(d, d))[..., None])[..., None, :, :]  # normalised once, for every beam
    az, el, u, v = _angles(d, *(a[:, None, :] for a in (beams.col_axis, beams.row_axis, beams.boresight)))
    t = _unit_targets(beams, beams.boresight if targets is None else targets)
    af = np.broadcast_to(1.0 / np.sqrt(beams.rows * beams.cols), t.shape[:-1])[..., None]  # the targets' shape
    for counts, cosine, axis in ((beams.cols, u, beams.col_axis), (beams.rows, v, beams.row_axis)):
        # |sin(N pi s) / sin(pi s)| = |U_{N-1}(cos pi s)| has period one, is N on grating lobes and exactly
        # 1.0 for N = 1: an axis of one-element beams is skipped, and one of two-element beams is U_1 itself
        if (counts == 1).all():
            continue
        two_c = 2.0 * np.cos((np.pi * beams.spacing_wl)[:, None] * (cosine - _dot(t, axis)[..., None]))
        kernel = two_c if (counts == 2).all() else np.where((counts == 1)[:, None], 1.0, two_c)
        u_prev, u_k = 1.0, two_c  # U_0, U_1
        for n in range(3, int(counts.max()) + 1):
            u_prev, u_k = u_k, two_c * u_k - u_prev  # U_{n-1}
            np.copyto(kernel, u_k, where=(counts == n)[:, None])
        af = af * np.abs(kernel)
    return element_gain(beams.element, az, el) + 20.0 * np.log10(np.maximum(af, 1e-12))
