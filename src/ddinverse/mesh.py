"""Structured P1 triangulations of the rectangle (0,1)x(0,2) and overlapping
subdomain decompositions.

The mesh is a uniform grid of nx-by-ny cells, each cell split along its
lower-left to upper-right diagonal.  Subdomains are axis-aligned boxes with
rational corner coordinates; all containment tests are carried out in exact
integer grid coordinates so that masks, interfaces and multiplicities are
reproducible across refinements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WIDTH = Fraction(1)
HEIGHT = Fraction(2)


@dataclass(frozen=True)
class Box:
    """Axis-aligned open box (x0,x1) x (y0,y1) with rational corners."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def grid_bounds(self, nx: int, ny: int) -> tuple[int, int, int, int]:
        """Corner positions in grid units (column i in 0..nx, row j in 0..ny).

        Raises ValueError when a corner does not lie on a grid line.
        """
        ix0 = self.x0 * nx / WIDTH
        ix1 = self.x1 * nx / WIDTH
        jy0 = self.y0 * ny / HEIGHT
        jy1 = self.y1 * ny / HEIGHT
        for frac, name in ((ix0, "x0"), (ix1, "x1"), (jy0, "y0"), (jy1, "y1")):
            if frac.denominator != 1:
                raise ValueError(
                    f"subdomain corner {name} does not lie on a grid line of "
                    f"the {nx}x{ny} mesh; refusing to snap"
                )
        return int(ix0), int(ix1), int(jy0), int(jy1)


# The four-subdomain layout with one cross point: two columns overlapping in
# x over (3/7,4/7) and two rows overlapping in y over (6/7,8/7).
DEFAULT_BOXES = (
    Box(Fraction(0), Fraction(4, 7), Fraction(6, 7), Fraction(2)),
    Box(Fraction(3, 7), Fraction(1), Fraction(6, 7), Fraction(2)),
    Box(Fraction(0), Fraction(4, 7), Fraction(0), Fraction(8, 7)),
    Box(Fraction(3, 7), Fraction(1), Fraction(0), Fraction(8, 7)),
)


class TriMesh:
    """Uniform triangulation of (0,1)x(0,2).

    Attributes
    ----------
    nx, ny : int
        Cell counts along x and y.
    nodes : (n_nodes, 2) float array
        Node coordinates, row-major by y: node (i, j) has index j*(nx+1)+i.
    elements : (n_elements, 3) int array
        Node index triples, counterclockwise.
    boundary_mask : (n_nodes,) bool array
        Node lies on the boundary of the rectangle.
    """

    def __init__(self, nx: int, ny: int):
        if nx < 1 or ny < 1:
            raise ValueError(f"cell counts must be positive, got nx={nx}, ny={ny}")
        self.nx = nx
        self.ny = ny
        self.hx = float(WIDTH) / nx
        self.hy = float(HEIGHT) / ny

        cols = np.arange(nx + 1)
        rows = np.arange(ny + 1)
        ii, jj = np.meshgrid(cols, rows)  # shape (ny+1, nx+1), row-major by y
        self.grid_i = ii.ravel()
        self.grid_j = jj.ravel()
        self.nodes = np.column_stack(
            [self.grid_i * self.hx, self.grid_j * self.hy]
        )

        # Two triangles per cell, split along the lower-left/upper-right
        # diagonal: (A,B,C) and (A,C,D) for A=(i,j), B=(i+1,j), C=(i+1,j+1),
        # D=(i,j+1).
        ci, cj = np.meshgrid(np.arange(nx), np.arange(ny))
        ci = ci.ravel()
        cj = cj.ravel()
        a = cj * (nx + 1) + ci
        b = a + 1
        c = b + (nx + 1)
        d = a + (nx + 1)
        lower = np.column_stack([a, b, c])
        upper = np.column_stack([a, c, d])
        self.elements = np.empty((2 * nx * ny, 3), dtype=np.int64)
        self.elements[0::2] = lower
        self.elements[1::2] = upper

        self._side_masks = {
            "right": self.grid_i == nx,
            "left": self.grid_i == 0,
            "bottom": self.grid_j == 0,
            "top": self.grid_j == ny,
        }
        self.boundary_mask = np.logical_or.reduce(
            list(self._side_masks.values()))

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_elements(self) -> int:
        return 2 * self.nx * self.ny

    def side_nodes(self, side: str) -> np.ndarray:
        """Node indices on one side of the rectangle, corners included."""
        return np.flatnonzero(self._side_masks[side])

    def side_edges(self, side: str) -> np.ndarray:
        """Consecutive node pairs forming the edges of one side, from corner
        to corner in the node order, which increases along every side."""
        nodes = self.side_nodes(side)
        return np.column_stack([nodes[:-1], nodes[1:]])

    @functools.cached_property
    def _areas(self) -> np.ndarray:
        p = self.nodes[self.elements]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def element_areas(self) -> np.ndarray:
        """Areas of the elements, computed once per mesh (signed: negative
        for a clockwise element)."""
        return self._areas


def build_mesh(nx: int, ny: int) -> TriMesh:
    """Build the uniform triangulation with nx*ny cells (2*nx*ny triangles)."""
    return TriMesh(nx, ny)


class SubdomainDecomposition:
    """Overlapping subdomain data on a TriMesh.

    Attributes
    ----------
    masks : (n_sub, n_nodes) bool
        Node lies in the closed box.
    interior_masks : (n_sub, n_nodes) bool
        Node lies in the open box.
    interfaces : list of int arrays
        Per subdomain, the nodes of its inner boundary (box boundary strictly
        inside the domain), sorted by node index.
    interface_closures : list of int arrays
        The inner-boundary nodes plus the junction nodes where the inner
        boundary meets the outer boundary.  These are the Dirichlet sets used
        by local solvers that keep natural conditions on the outer boundary.
    multiplicity : (n_nodes,) int
        Number of open boxes containing the node (0 on the outer boundary).
    closure_count : (n_nodes,) int
        Number of closed boxes containing the node.
    chi : (n_sub, n_nodes) float
        Partition of unity: 1/multiplicity on the open box, 0 on the rest of
        the closure interior to the domain; on outer-boundary nodes the
        closure count is used instead so the weights still sum to one at
        every node.
    """

    def __init__(self, mesh: TriMesh, boxes: tuple[Box, ...]):
        self.mesh = mesh
        self.boxes = tuple(boxes)
        n_sub = len(boxes)
        n = mesh.n_nodes
        gi, gj = mesh.grid_i, mesh.grid_j

        self.masks = np.zeros((n_sub, n), dtype=bool)
        self.interior_masks = np.zeros((n_sub, n), dtype=bool)
        self.interfaces: list[np.ndarray] = []
        self.interface_closures: list[np.ndarray] = []

        bounds = [box.grid_bounds(mesh.nx, mesh.ny) for box in boxes]
        for k, (ix0, ix1, jy0, jy1) in enumerate(bounds):
            in_closed = (gi >= ix0) & (gi <= ix1) & (gj >= jy0) & (gj <= jy1)
            in_open = (gi > ix0) & (gi < ix1) & (gj > jy0) & (gj < jy1)
            self.masks[k] = in_closed
            self.interior_masks[k] = in_open

            on_box_boundary = in_closed & ~in_open
            interface = on_box_boundary & ~mesh.boundary_mask
            self.interfaces.append(np.flatnonzero(interface))

            # Junctions: outer-boundary nodes lying on a box side that is a
            # cut line (not part of the outer boundary itself).
            cut = np.zeros(n, dtype=bool)
            if ix0 > 0:
                cut |= in_closed & (gi == ix0)
            if ix1 < mesh.nx:
                cut |= in_closed & (gi == ix1)
            if jy0 > 0:
                cut |= in_closed & (gj == jy0)
            if jy1 < mesh.ny:
                cut |= in_closed & (gj == jy1)
            closure = interface | (cut & mesh.boundary_mask)
            self.interface_closures.append(np.flatnonzero(closure))

        self.multiplicity = self.interior_masks.sum(axis=0).astype(np.int64)
        self.closure_count = self.masks.sum(axis=0).astype(np.int64)

        interior = ~mesh.boundary_mask
        if np.any(interior & (self.multiplicity == 0)):
            raise ValueError("subdomain boxes do not cover the domain interior")

        self.chi = np.zeros((n_sub, n))
        for k in range(n_sub):
            inside = self.interior_masks[k]
            self.chi[k, inside] = 1.0 / self.multiplicity[inside]
            rim = self.masks[k] & mesh.boundary_mask
            self.chi[k, rim] = 1.0 / self.closure_count[rim]

    @property
    def n_subdomains(self) -> int:
        return len(self.boxes)


def build_subdomains(mesh: TriMesh,
                     boxes: tuple[Box, ...] = DEFAULT_BOXES) -> SubdomainDecomposition:
    """Build the overlapping decomposition (default: the 4-box cross layout).

    The box corners must coincide with mesh grid lines; for the default
    layout this means nx and ny both divisible by 7.
    """
    return SubdomainDecomposition(mesh, boxes)


def dump_mesh(mesh: TriMesh) -> str:
    """Plain-text listing: 'nodes <count>' then one 'id x y' line per node,
    'elements <count>' then one 'id n0 n1 n2' line per element."""
    lines = [f"nodes {mesh.n_nodes}"]
    for k, (x, y) in enumerate(mesh.nodes):
        lines.append(f"{k} {x:.17g} {y:.17g}")
    lines.append(f"elements {mesh.n_elements}")
    for k, (a, b, c) in enumerate(mesh.elements):
        lines.append(f"{k} {a} {b} {c}")
    return "\n".join(lines) + "\n"
