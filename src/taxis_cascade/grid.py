"""Cell-centered rectangular grid and its discrete operators.

Fields are plain 2D numpy arrays of shape (ny, nx), one value per cell
center, row-major with x varying fastest.  All operators close the domain
with mirror ghost cells, i.e. zero normal flux through the boundary, and the
diffusion/taxis operators are written in conservative face-flux form so the
global sum of any divergence vanishes up to rounding.

In a C-ordered field the x-neighbours of all rows are adjacent in memory
except across row ends, so ``laplacian``, ``taxis_divergence`` and
``max_face_gradient`` take their x-jumps as one flat run (``_face_jumps``)
and zero its row-end entries, which lie on no face.  ``face_gradients``
keeps (ny, nx-1) x-faces, because its readers sum over them and the order
of a sum fixes its bits.  The monitors take their derivatives from it: the
log-gradient energy and the D_xx and D_yy of ``seminorm_w2p``.

``laplacian`` and ``taxis_divergence`` divide no field, since a division
pass costs about 2.6 times a multiplication pass (50 against 18 us at
256^2): their fluxes are carrier times undivided jump, and
``_flux_divergence`` multiplies each axis's divergence once by 1/h^2.  Where
the cell widths are powers of two the values are those of dividing the jump
and the flux by h; elsewhere they differ by rounding.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from taxis_cascade.errors import DomainError, StructuralError

# How far below zero an admitted field may dip: ``solver`` zeroes the dust in
# [DUST_FLOOR, 0) of each new field, and a taxis carrier may hold it.
DUST_FLOOR = -1e-12
# The most cells a grid may have: 4096^2, 256 times the largest grid in use
# (256^2); a run there already holds tens of float64 fields of 128 MiB each.
# It is checked before any array exists, so a mistyped size is refused at
# once instead of first filling gigabytes with cell-centre coordinates and
# only then failing to allocate a field.
MAX_CELLS = 4096 * 4096


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular mesh of nx-by-ny cells on [0, Lx] x [0, Ly].

    The derived sizes are computed once per instance; equality and hashing
    use the four fields alone.
    """

    nx: int
    ny: int
    Lx: float = 1.0
    Ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise StructuralError(f"need at least 4x4 cells, got {self.nx}x{self.ny}")
        if self.nx * self.ny > MAX_CELLS:
            raise StructuralError(f"a {self.nx}x{self.ny} grid exceeds the "
                                  f"ceiling of {MAX_CELLS} cells")
        if not (self.Lx > 0 and self.Ly > 0):
            raise StructuralError("domain side lengths must be positive")

    @cached_property
    def hx(self) -> float:
        return self.Lx / self.nx

    @cached_property
    def hy(self) -> float:
        return self.Ly / self.ny

    @cached_property
    def h_min(self) -> float:
        return min(self.hx, self.hy)

    @cached_property
    def cell_volume(self) -> float:
        return self.hx * self.hy

    @cached_property
    def volume(self) -> float:
        """Total domain measure |Omega|."""
        return self.Lx * self.Ly

    @cached_property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids (X, Y) of cell-center coordinates, shape (ny, nx), new
        on every call.  Nothing keeps them: the readers that need samples for
        the life of a run (the resupply profile, the manufactured cosine
        mode) cache what they derive from them, not the coordinates."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y)

    def check_conforms(self, *fields: np.ndarray) -> None:
        for phi in fields:
            if np.shape(phi) != self.shape:
                raise StructuralError(
                    f"field shape {np.shape(phi)} does not conform to grid {self.shape}"
                )


def gaussian(g: Grid, cx: float, cy: float, width: float) -> np.ndarray:
    """exp(-|x - (cx, cy)|^2 / (2 width^2)) at the cell centres of g."""
    X, Y = g.cell_centers()
    return np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * width**2))


def face_gradients(phi: np.ndarray, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Interior face-normal differences: x-faces (ny, nx-1), y-faces (ny-1, nx)."""
    gx = np.subtract(phi[:, 1:], phi[:, :-1])
    gy = np.subtract(phi[1:, :], phi[:-1, :])
    gx /= g.hx
    gy /= g.hy
    return gx, gy


def _face_jumps(phi: np.ndarray):
    """Undivided face jumps a[1:] - a[:-1]: the x-jumps as one flat run
    (a = phi.ravel()), then the y-jumps (a = phi), from a generator, so
    that a caller can drop the x-jumps before the y-jumps exist.

    Flat cells k and k+1 of a C-ordered field are x-neighbours except across
    a row end, so entry k of the x-run, flat[k+1] - flat[k], is the jump
    across an interior x-face, except at the ny-1 row ends k = j*nx - 1
    (the slice [nx-1::nx]), where it straddles two rows and lies on no face.
    One subtraction of length N-1 replaces ny short row loops over the
    (ny, nx-1) views.  A field that is not C-ordered is copied in C order
    first.  The y-jumps are (ny-1, nx), one block already.
    """
    return (np.subtract(a[1:], a[:-1]) for a in (phi.ravel(), phi))


def _flux_divergence(fx: np.ndarray, fy: np.ndarray, g: Grid) -> np.ndarray:
    """Divergence from undivided interior face fluxes (+x / +y through each face).

    ``fx`` is a flat x-run as from ``_face_jumps`` and ``fy`` the (ny-1, nx)
    y-fluxes, both carrier times undivided jump.  Cell i gains its right-face
    flux and loses its left-face flux; boundary faces carry zero flux, so the
    row-end entries of ``fx`` are set to +0.0 first, whatever they hold.  The
    x-divergence is one subtraction over the flat run, fx[k] - fx[k-1], and
    then one product by 1/hx^2; the y-fluxes are multiplied by 1/hy^2 in
    place, then added to the row below each face and subtracted from the row
    above.  So the caller must pass arrays it owns.  A row's first cell gets
    fx[k] - 0.0, which is fx[k] itself, and its last cell 0.0 - fx[k-1];
    the first cell of the field copies its flux and the last takes
    0.0 - fx[-1], the same two rules.
    """
    d = np.empty(g.nx * g.ny)
    fx[g.nx - 1::g.nx] = 0.0
    d[0] = fx[0]
    np.subtract(fx[1:], fx[:-1], out=d[1:-1])
    d[-1] = 0.0 - fx[-1]
    d *= 1.0 / g.hx**2
    div = d.reshape(g.shape)
    fy *= 1.0 / g.hy**2
    div[:-1, :] += fy
    div[1:, :] -= fy
    return div


def laplacian(phi: np.ndarray, g: Grid) -> np.ndarray:
    """Five-point Neumann Laplacian in conservative face-flux form.

    Mirror ghost cells make every boundary-normal flux identically zero, so
    constants are discretely harmonic and the cell-volume-weighted sum of the
    result telescopes to zero.  The undivided jumps are the fluxes, and
    ``_flux_divergence`` scales each axis once by 1/h^2.
    """
    g.check_conforms(phi)
    return _flux_divergence(*_face_jumps(phi), g)


def taxis_divergence(carrier: np.ndarray, potential: np.ndarray, g: Grid) -> np.ndarray:
    """Conservative upwind discretization of div(carrier * grad potential).

    Each interior face carries flux carrier_up * (potential jump)/h where the
    carrier is taken from the upstream cell relative to the face gradient
    (transport runs up the potential gradient).  Boundary faces carry zero
    flux.  With a unit carrier this reduces bitwise to ``laplacian``.  The
    inputs are left unchanged and the result is a new array.

    No field is divided, since a division pass over a field costs about 2.6
    times a multiplication pass (50 against 18 us at 256^2): the undivided
    jumps are multiplied by the carrier that ``np.where(jump > 0, left,
    right)`` selects, and ``_flux_divergence`` scales each axis's
    divergence once by 1/h^2.  Where hx and hy are powers of two, one
    product by 1/h^2 rounds as two divisions by h do, so those grids get
    the values of dividing the jump and the flux by h; elsewhere the two
    differ by rounding.  The x-faces are one flat run (``_face_jumps``); its
    row-end entries take whatever the carrier gives and are then zeroed by
    ``_flux_divergence``.  Each axis's jumps are freed once its flux holds
    them, before the next axis's jumps exist, so the call holds at most
    three field-sizes: the x-flux with the y-jumps and y-flux, then the two
    fluxes with the divergence.
    """
    g.check_conforms(carrier, potential)
    cmin = float(carrier.min())
    if cmin < DUST_FLOOR:
        raise DomainError(f"carrier has negative entries (min {cmin:.3e})")
    flat = carrier.ravel()
    fluxes = []
    for jump, lo, hi in zip(_face_jumps(potential), (flat[:-1], carrier[:-1, :]),
                            (flat[1:], carrier[1:, :])):
        fluxes.append(np.where(jump > 0.0, lo, hi))
        fluxes[-1] *= jump
        del jump  # freed before the next axis's jumps exist
    return _flux_divergence(*fluxes, g)


def max_face_gradient(phi: np.ndarray, g: Grid) -> float:
    """Largest face-normal difference magnitude over all interior faces.

    The x-jumps are one flat run (``_face_jumps``) whose row-end entries are
    set to zero, which cannot raise the largest magnitude.  Division by
    h > 0 is monotone and rounds symmetrically, so dividing the largest
    undivided jump gives the bits of the largest divided one.
    """
    dx, dy = _face_jumps(phi)
    dx[g.nx - 1::g.nx] = 0.0
    mx = float(np.abs(dx, out=dx).max()) / g.hx
    my = float(np.abs(dy, out=dy).max()) / g.hy
    return max(mx, my)


def integrate(phi: np.ndarray, g: Grid) -> float:
    """Midpoint-rule integral over the domain (exact for linears)."""
    g.check_conforms(phi)
    return float(phi.sum()) * g.cell_volume


def norm_lp(phi: np.ndarray, g: Grid, p: float) -> float:
    if p < 1:
        raise DomainError(f"Lp norm needs p >= 1, got {p}")
    return integrate(np.abs(phi) ** p, g) ** (1.0 / p)


def norm_linf(phi: np.ndarray) -> float:
    """max |phi|, the bits of ``np.abs(phi).max()`` without its temporary field.

    ``+ 0.0`` turns the -0.0 of an all-zero field into +0.0; NaN propagates.
    """
    return max(-float(phi.min()), float(phi.max())) + 0.0


def seminorm_w2p(phi: np.ndarray, g: Grid, p: float) -> float:
    """Discrete second-derivative seminorm (all of D_xx, D_yy, D_xy in Lp).

    D_xx and D_yy are the differences of adjacent ``face_gradients``, each
    boundary cell copying its neighbour's, which is the one-sided three-point
    stencil; the mixed derivative is centered four-point in the interior and
    degrades to one-sided at the edges.  Monitor-grade accuracy.

    |D_xx|^p, |D_yy|^p and |D_xy|^p are added in that order into one
    array, and each face-gradient array is freed once its derivative is in:
    at 256^2 the call's transient peak is 4 field-sizes beside phi.
    """
    if p < 1:
        raise DomainError(f"seminorm needs p >= 1, got {p}")
    g.check_conforms(phi)
    gx, gy = face_gradients(phi, g)
    total = _abs_power(np.pad(np.diff(gx, axis=1) / g.hx, ((0, 0), (1, 1)), mode="edge"), p)
    del gx
    total += _abs_power(np.pad(np.diff(gy, axis=0) / g.hy, ((1, 1), (0, 0)), mode="edge"), p)
    del gy
    total += _abs_power(np.gradient(np.gradient(phi, g.hx, axis=1), g.hy, axis=0), p)
    return integrate(total, g) ** (1.0 / p)


def _abs_power(d: np.ndarray, p: float) -> np.ndarray:
    """|d|^p, computed in d's own storage."""
    np.abs(d, out=d)
    d **= p
    return d


# --- FLD1 snapshot files ------------------------------------------------
#
# One ASCII header line "FLD1 nx ny Lx Ly t\n", then nx*ny little-endian
# float64 values, row-major (x fastest).  A run's snapshot file names are
# the field and the 8-digit step index.

SNAPSHOT_NAME = re.compile(r"^([uvw])_(\d{8})\.fld$", re.ASCII)


def snapshot_paths(run_dir, index: int) -> tuple[Path, Path, Path]:
    """The u, v and w snapshot files of step ``index`` in ``run_dir``."""
    return tuple(Path(run_dir) / f"{name}_{index:08d}.fld" for name in "uvw")


def write_field(path, phi: np.ndarray, g: Grid, t: float) -> None:
    g.check_conforms(phi)
    header = f"FLD1 {g.nx} {g.ny} {g.Lx!r} {g.Ly!r} {float(t)!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(phi, dtype="<f8").tobytes())


def read_header(fh) -> tuple[Grid, float]:
    """The grid and time of the FLD1 file open in ``fh``; leaves it at the payload."""
    header = fh.readline()
    parts = header.split()
    if len(parts) != 6 or parts[0] != b"FLD1":
        raise StructuralError(f"{fh.name}: not an FLD1 file (header {header!r})")
    try:  # int and float parse bytes as ASCII and reject anything else
        nx, ny = int(parts[1]), int(parts[2])
        Lx, Ly, t = (float(x) for x in parts[3:])
    except ValueError:
        raise StructuralError(f"{fh.name}: malformed FLD1 header {header!r}") from None
    if not np.isfinite(t):
        raise StructuralError(f"{fh.name}: non-finite time in FLD1 header {header!r}")
    try:
        return Grid(nx, ny, Lx, Ly), t
    except StructuralError as exc:  # too small, too large or a bad side length
        raise StructuralError(f"{fh.name}: {exc}") from None


def read_field(path) -> tuple[np.ndarray, Grid, float]:
    with open(path, "rb") as fh:
        g, t = read_header(fh)
        size = 8 * g.nx * g.ny
        # a corrupt size is held against the file before read() sizes a buffer by it
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held < size:
            raise StructuralError(f"{path}: truncated payload ({held} of {size} bytes)")
        phi = np.frombuffer(fh.read(size), dtype="<f8").reshape(g.shape).copy()
    # admission refuses non-finite fields, so no run writes one; a NaN here
    # would pass every min-based check downstream and print NaN budgets
    if not np.isfinite(phi).all():
        raise StructuralError(f"{path}: non-finite value in the payload")
    return phi, g, t
