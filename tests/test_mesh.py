import numpy as np
import pytest

from ddinverse import mesh
from conftest import node_at


def test_single_cell_counts_and_areas():
    m = mesh.build_mesh(1, 1)
    assert m.n_nodes == 4
    assert m.n_elements == 2
    assert np.allclose(m.element_areas(), 1.0)


@pytest.mark.parametrize("nx,ny,nodes,elems", [
    (7, 14, 120, 196),
    (14, 28, 435, 784),
])
def test_counting_formulas(nx, ny, nodes, elems):
    m = mesh.build_mesh(nx, ny)
    assert m.n_nodes == nodes
    assert m.n_elements == elems


def test_rejects_zero_cells():
    with pytest.raises(ValueError):
        mesh.build_mesh(0, 14)
    with pytest.raises(ValueError):
        mesh.build_mesh(7, 0)


def test_tiling_and_bounds(mesh7):
    areas = mesh7.element_areas()
    assert np.all(areas > 0)
    assert np.allclose(areas, 0.5 * (1 / 7) * (2 / 14))
    assert abs(areas.sum() - 2.0) < 1e-12
    assert mesh7.nodes[:, 0].min() >= 0 and mesh7.nodes[:, 0].max() <= 1
    assert mesh7.nodes[:, 1].min() >= 0 and mesh7.nodes[:, 1].max() <= 2


def test_boundary_sides(mesh7):
    # the right side (the flux identification boundary) keeps its corners
    right = mesh7.side_nodes("right")
    assert node_at(mesh7, 1.0, 0.0) in right
    assert node_at(mesh7, 1.0, 2.0) in right
    assert not mesh7.boundary_mask[node_at(mesh7, 0.5 - 1 / 14, 1.0)]
    n_boundary = mesh7.boundary_mask.sum()
    assert n_boundary == 2 * 7 + 2 * 14  # perimeter nodes of an 8x15 grid


def test_cross_point_multiplicity(decomp14, mesh14):
    # the point (1/2, 1) lies in all four open boxes
    k = node_at(mesh14, 0.5, 1.0)
    assert decomp14.multiplicity[k] == 4


def test_single_cover_multiplicity(decomp7, mesh7):
    k = node_at(mesh7, 1 / 7, 1 / 7)
    assert decomp7.multiplicity[k] == 1
    assert decomp7.interior_masks[2, k]  # bottom-left box only


def test_partition_of_unity_everywhere(decomp7, mesh7):
    sums = decomp7.chi.sum(axis=0)
    assert np.allclose(sums, 1.0, atol=1e-15)
    assert decomp7.chi.min() >= 0.0 and decomp7.chi.max() <= 1.0
    # zero outside the closure
    for i in range(4):
        assert np.all(decomp7.chi[i][~decomp7.masks[i]] == 0.0)
    # 1/multiplicity on the open subdomain
    for i in range(4):
        inside = decomp7.interior_masks[i]
        assert np.allclose(decomp7.chi[i][inside],
                           1.0 / decomp7.multiplicity[inside])


def test_interface_nodes_interior_and_covered(decomp7, mesh7):
    for i in range(4):
        nodes = decomp7.interfaces[i]
        assert not mesh7.boundary_mask[nodes].any()
        on_box = decomp7.masks[i, nodes] & ~decomp7.interior_masks[i, nodes]
        assert on_box.all()
        # every interface node is inside at least one other open subdomain
        others = np.zeros(nodes.size, dtype=int)
        for j in range(4):
            if j != i:
                others += decomp7.interior_masks[j, nodes]
        assert (others >= 1).all()


def test_interface_closure_adds_wall_junctions(decomp7, mesh7):
    for i in range(4):
        extra = np.setdiff1d(decomp7.interface_closures[i],
                             decomp7.interfaces[i])
        assert extra.size == 2
        assert mesh7.boundary_mask[extra].all()


def test_rejects_nonconforming_mesh():
    m = mesh.build_mesh(10, 20)
    with pytest.raises(ValueError):
        mesh.build_subdomains(m)


def test_refinement_nesting(mesh7, decomp7, mesh14, decomp14):
    # shared coordinates keep their mask values under uniform refinement
    for i in range(4):
        for k in range(mesh7.n_nodes):
            gi, gj = mesh7.grid_i[k], mesh7.grid_j[k]
            kf = 2 * gj * (mesh14.nx + 1) + 2 * gi
            assert decomp7.masks[i, k] == decomp14.masks[i, kf]
            assert decomp7.interior_masks[i, k] == decomp14.interior_masks[i, kf]


def test_flux_support_sets(mesh7, decomp7):
    sets = mesh.flux_support(mesh7, decomp7)
    assert sets[0].size == 0 and sets[2].size == 0
    ys = mesh7.nodes[sets[1], 1]
    assert np.all(mesh7.nodes[sets[1], 0] == 1.0)
    assert ys.min() >= 6 / 7 - 1e-12 and ys.max() == 2.0
    union = np.union1d(sets[1], sets[3])
    assert union.size == 15
    assert np.array_equal(union, mesh7.side_nodes("right"))


def test_mesh_dump_roundtrip(mesh7):
    text = mesh.dump_mesh(mesh7)
    lines = text.strip().split("\n")
    assert lines[0] == f"nodes {mesh7.n_nodes}"
    assert lines[mesh7.n_nodes + 1] == f"elements {mesh7.n_elements}"
    first = lines[1].split()
    assert int(first[0]) == 0
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0
    assert len(lines) == 2 + mesh7.n_nodes + mesh7.n_elements
