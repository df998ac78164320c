"""Uniform planar array steering, DFT scan codebook, and per-slot angular windows.

Conventions: azimuth theta in [-pi/2, pi/2], elevation phi in (0, pi], both in
radians. The array lies in the yz-plane with ``w_count`` elements along y and
``l_count`` along z; half-wavelength spacing is folded into the pi phase factor.
The flat element index is z-major: ``l * w_count + w``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UpaGeometry:
    """Planar array dimensions: w_count elements on y, l_count on z."""

    w_count: int
    l_count: int

    def __post_init__(self):
        if self.w_count < 1 or self.l_count < 1:
            raise ValueError(f"array dimensions must be >= 1, got {self.w_count}x{self.l_count}")

    @property
    def n_elements(self) -> int:
        return self.w_count * self.l_count


@dataclass(frozen=True)
class AngularWindow:
    """Azimuth interval [lo, hi] in radians scanned during one time slot."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty angular window [{self.lo}, {self.hi}]")

    def mirrored(self) -> "AngularWindow":
        """Window negated about broadside (the set -[lo, hi])."""
        return AngularWindow(-self.hi, -self.lo)


@dataclass(frozen=True)
class SensingCodebook:
    """Orthogonal scan directions, one codebook column per time slot.

    ``columns`` is (n_elements, w_count) with unit-norm columns; column q-1
    is the steering vector toward ``direction_angles[q-1]``.
    """

    columns: np.ndarray
    direction_angles: np.ndarray
    elevation: float


def steering_factors(thetas, phi: float, geom: UpaGeometry) -> tuple:
    """Kronecker factors (a_z, a_y) of the UPA response over a grid of azimuths.

    a_z is (l_count,) and depends on phi alone; a_y is (w_count, len(thetas)).
    The unit-norm steering vector toward thetas[k] is kron(a_z, a_y[:, k]).
    """
    thetas = np.asarray(thetas, dtype=float)
    w = np.arange(geom.w_count)
    l = np.arange(geom.l_count)
    # in place: the same operations in the same order as
    # exp(1j*pi*outer) / sqrt(W), without two full-size complex temporaries
    a_y = np.multiply(1j * np.pi, np.outer(w, np.sin(thetas) * np.sin(phi)))
    np.exp(a_y, out=a_y)
    a_y /= np.sqrt(geom.w_count)
    a_z = np.exp(1j * np.pi * l * np.cos(phi)) / np.sqrt(geom.l_count)
    return a_z, a_y


def steering_upa(theta: float, phi: float, geom: UpaGeometry) -> np.ndarray:
    """Unit-norm UPA array response a_z(phi) kron a_y(theta, phi).

    Entry (l*W + w) is exp(j*pi*(w*sin(theta)*sin(phi) + l*cos(phi))) / sqrt(W*L).
    """
    a_z, a_y = steering_factors([theta], phi, geom)
    return (a_z[:, None] * a_y[:, 0]).reshape(-1)


def steering_many(thetas: np.ndarray, phi: float, geom: UpaGeometry) -> np.ndarray:
    """Steering vectors for a grid of azimuths, stacked as columns (n_elements, len(thetas))."""
    a_z, a_y = steering_factors(thetas, phi, geom)
    # column-wise Kronecker (z-major layout)
    return (a_z[:, None, None] * a_y[None, :, :]).reshape(geom.n_elements, a_y.shape[1])


def codebook_direction(q: int, w_count: int) -> float:
    """Scan azimuth omega_q with sin(omega_q) = -1 + 1/W + (q-1)*2/W, q in 1..W."""
    if not 1 <= q <= w_count:
        raise ValueError(f"slot index q={q} outside 1..{w_count}")
    return float(np.arcsin(-1.0 + 1.0 / w_count + (q - 1) * 2.0 / w_count))


def dft_codebook(geom: UpaGeometry, phi: float = np.pi / 2) -> SensingCodebook:
    """DFT codebook with Q = W orthogonal scan columns at elevation phi."""
    angles = np.array([codebook_direction(q, geom.w_count) for q in range(1, geom.w_count + 1)])
    return SensingCodebook(columns=steering_many(angles, phi, geom),
                           direction_angles=angles, elevation=float(phi))


def sensing_window(q: int, geom: UpaGeometry) -> AngularWindow:
    """Angular window [arcsin(-1+(q-1)*2/W), arcsin(-1+q*2/W)] for slot q in 1..W."""
    w_count = geom.w_count
    if not 1 <= q <= w_count:
        raise ValueError(f"slot index q={q} outside 1..{w_count}")
    lo = float(np.arcsin(-1.0 + (q - 1) * 2.0 / w_count))
    hi = float(np.arcsin(-1.0 + q * 2.0 / w_count))
    return AngularWindow(lo=lo, hi=hi)


def slot_for_angle(theta: float, geom: UpaGeometry, mirror: bool = True) -> int:
    """Slot whose scan illuminates azimuth theta.

    With the transpose coupling of the backscatter channel, the codebook column
    of slot q illuminates angles in the negated window -Omega_q; ``mirror=True``
    (the default) accounts for that.
    """
    s = -np.sin(theta) if mirror else np.sin(theta)
    q = int(np.floor((s + 1.0) * geom.w_count / 2.0)) + 1
    return min(max(q, 1), geom.w_count)
