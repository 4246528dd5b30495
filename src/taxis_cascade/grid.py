"""Cell-centered rectangular grid and its discrete operators.

Fields are plain 2D numpy arrays of shape (ny, nx), one value per cell
center, row-major with x varying fastest.  All operators close the domain
with mirror ghost cells, i.e. zero normal flux through the boundary, and the
diffusion/taxis operators are written in conservative face-flux form so the
global sum of any divergence vanishes up to rounding.

In a C-ordered field the x-neighbours of all rows are adjacent in memory
except across row ends, so ``laplacian``, ``taxis_divergence`` and
``max_face_gradient`` take their x-jumps as one flat run (``_face_jumps``)
and zero its row-end entries, which lie on no face.  ``face_differences`` and
``face_gradients`` keep (ny, nx-1) x-faces, because their readers sum over
them and the order of a sum fixes its bits.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from taxis_cascade.errors import DomainError, StructuralError

CARRIER_FLOOR = -1e-12


@lru_cache(maxsize=32)
def _cached_centers(nx, ny, hx, hy):
    x = (np.arange(nx) + 0.5) * hx
    y = (np.arange(ny) + 0.5) * hy
    X, Y = np.meshgrid(x, y)
    X.setflags(write=False)
    Y.setflags(write=False)
    return X, Y


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
        """Meshgrids (X, Y) of cell-center coordinates, shape (ny, nx); read-only."""
        return _cached_centers(self.nx, self.ny, self.hx, self.hy)

    def check_conforms(self, *fields: np.ndarray) -> None:
        for phi in fields:
            if np.shape(phi) != self.shape:
                raise StructuralError(
                    f"field shape {np.shape(phi)} does not conform to grid {self.shape}"
                )


def face_differences(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undivided jumps across interior faces: x-faces (ny, nx-1), y-faces (ny-1, nx)."""
    return np.subtract(phi[:, 1:], phi[:, :-1]), np.subtract(phi[1:, :], phi[:-1, :])


def face_gradients(phi: np.ndarray, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Interior face-normal differences: x-faces (ny, nx-1), y-faces (ny-1, nx)."""
    gx, gy = face_differences(phi)
    gx /= g.hx
    gy /= g.hy
    return gx, gy


def _face_jumps(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undivided jumps as in ``face_differences``, the x-jumps as one flat run.

    Flat cells k and k+1 of a C-ordered field are x-neighbours except across
    a row end, so entry k of the x-run, flat[k+1] - flat[k], is the jump
    across an interior x-face, except at the ny-1 row ends k = j*nx - 1
    (the slice [nx-1::nx]), where it straddles two rows and lies on no face.
    One subtraction of length N-1 replaces ny short row loops over the
    (ny, nx-1) views.  A field that is not C-ordered is copied in C order
    first.  The y-jumps are (ny-1, nx), one block already.
    """
    flat = phi.ravel()
    return np.subtract(flat[1:], flat[:-1]), np.subtract(phi[1:, :], phi[:-1, :])


def _flux_divergence(fx: np.ndarray, fy: np.ndarray, g: Grid) -> np.ndarray:
    """Divergence from interior face fluxes (+x / +y through each face).

    ``fx`` is a flat x-run as from ``_face_jumps`` and ``fy`` the (ny-1, nx)
    y-fluxes.  Cell i gains its right-face flux and loses its left-face flux,
    divided by the cell width; boundary faces carry zero flux, so the
    row-end entries of ``fx`` are set to +0.0 first, whatever they hold.  The
    fluxes are divided by the cell width once, in place, so the caller must
    pass arrays it owns.  The sums are those of adding into zeros: 0.0 + fx
    turns a -0.0 flux into +0.0, so the first x-flux is written as that sum,
    not copied, and subtracting a +0.0 row-end flux from it leaves it as it
    is; the result has the bits of the (ny, nx) assembly.
    """
    d = np.empty(g.nx * g.ny)
    fx[g.nx - 1::g.nx] = 0.0
    fx /= g.hx
    np.add(fx, 0.0, out=d[:-1])
    d[-1] = 0.0
    d[1:] -= fx
    div = d.reshape(g.shape)
    fy /= g.hy
    div[:-1, :] += fy
    div[1:, :] -= fy
    return div


def laplacian(phi: np.ndarray, g: Grid) -> np.ndarray:
    """Five-point Neumann Laplacian in conservative face-flux form.

    Mirror ghost cells make every boundary-normal flux identically zero, so
    constants are discretely harmonic and the cell-volume-weighted sum of the
    result telescopes to zero.
    """
    g.check_conforms(phi)
    gx, gy = _face_jumps(phi)
    gx /= g.hx
    gy /= g.hy
    return _flux_divergence(gx, gy, g)


def taxis_divergence(carrier: np.ndarray, potential: np.ndarray, g: Grid) -> np.ndarray:
    """Conservative upwind discretization of div(carrier * grad potential).

    Each interior face carries flux carrier_up * (potential jump)/h where the
    carrier is taken from the upstream cell relative to the face gradient
    (transport runs up the potential gradient).  Boundary faces carry zero
    flux.  With a unit carrier this reduces bitwise to ``laplacian``.  The
    inputs are left unchanged and the result is a new array.  The x-faces
    are one flat run (``_face_jumps``); its row-end entries take whatever
    the carrier gives and are then zeroed by ``_flux_divergence``.
    """
    g.check_conforms(carrier, potential)
    cmin = float(carrier.min())
    if cmin < CARRIER_FLOOR:
        raise DomainError(f"carrier has negative entries (min {cmin:.3e})")
    gx, gy = _face_jumps(potential)
    gx /= g.hx
    gy /= g.hy
    # the upwind flux: the right/upper carrier times the gradient, rewritten
    # with the left/lower one where the gradient is positive (the products
    # of np.where(g > 0, left, right) * g)
    flat = carrier.ravel()
    fx = np.multiply(flat[1:], gx)
    np.multiply(flat[:-1], gx, out=fx, where=gx > 0.0)
    fy = np.multiply(carrier[1:, :], gy)
    np.multiply(carrier[:-1, :], gy, out=fy, where=gy > 0.0)
    return _flux_divergence(fx, fy, g)


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
    g.check_conforms(phi)
    return float(np.sum(np.abs(phi) ** p) * g.cell_volume) ** (1.0 / p)


def norm_linf(phi: np.ndarray) -> float:
    """max |phi|, the bits of ``np.abs(phi).max()`` without its temporary field.

    ``+ 0.0`` turns the -0.0 of an all-zero field into +0.0; NaN propagates.
    """
    return max(-float(phi.min()), float(phi.max())) + 0.0


def _second_difference(phi: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second difference along one axis, stencil shifted one-sided at the boundary."""
    d = np.empty_like(phi)
    p = np.moveaxis(phi, axis, 0)
    out = np.moveaxis(d, axis, 0)
    out[1:-1] = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / h**2
    out[0] = (p[0] - 2.0 * p[1] + p[2]) / h**2
    out[-1] = (p[-1] - 2.0 * p[-2] + p[-3]) / h**2
    return d


def seminorm_w2p(phi: np.ndarray, g: Grid, p: float) -> float:
    """Discrete second-derivative seminorm (all of D_xx, D_yy, D_xy in Lp).

    Straight second differences per axis with one-sided closure at the
    boundary; the mixed derivative is centered four-point in the interior and
    degrades to one-sided at the edges.  Monitor-grade accuracy.
    """
    if p < 1:
        raise DomainError(f"seminorm needs p >= 1, got {p}")
    g.check_conforms(phi)
    dxx = _second_difference(phi, g.hx, axis=1)
    dyy = _second_difference(phi, g.hy, axis=0)
    dxy = np.gradient(np.gradient(phi, g.hx, axis=1), g.hy, axis=0)
    total = np.abs(dxx) ** p + np.abs(dyy) ** p + np.abs(dxy) ** p
    return float(np.sum(total) * g.cell_volume) ** (1.0 / p)


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


def read_field(path) -> tuple[np.ndarray, Grid, float]:
    with open(path, "rb") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 6 or parts[0] != b"FLD1":
            raise StructuralError(f"{path}: not an FLD1 file (header {header!r})")
        try:  # int and float parse bytes as ASCII and reject anything else
            nx, ny = int(parts[1]), int(parts[2])
            Lx, Ly, t = (float(x) for x in parts[3:])
        except ValueError:
            raise StructuralError(f"{path}: malformed FLD1 header {header!r}") from None
        if not np.isfinite(t):
            raise StructuralError(f"{path}: non-finite time in FLD1 header {header!r}")
        g = Grid(nx, ny, Lx, Ly)
        # a corrupt size is held against the file before read() sizes a buffer by it
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held < 8 * nx * ny:
            raise StructuralError(f"{path}: truncated payload ({held} of {8 * nx * ny} bytes)")
        phi = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8").reshape(ny, nx).copy()
    return phi, g, t
