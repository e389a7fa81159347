import numpy as np
import pytest

from osclab.lattice import (
    BoxGeometry,
    boundary,
    box_boundary,
    degrees,
    dirichlet_laplacian,
    l1_distance,
    l1_distances_from,
    neighborhood,
    neumann_laplacian,
)


def brute_force_boundary(box, X):
    """Adjacency enumeration oracle for the boundary operation."""
    coords = box.coords()
    inside = set(int(i) for i in X)
    out = []
    for i in inside:
        for j in range(box.n_sites):
            if j not in inside and np.abs(coords[i] - coords[j]).sum() == 1:
                out.append(i)
                break
    return sorted(out)


class TestGeometry:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            BoxGeometry(((3, 1),))

    def test_site_count(self):
        box = BoxGeometry(((0, 4), (-1, 2)))
        assert box.n_sites == 5 * 4
        assert box.shape == (5, 4)

    def test_index_coord_roundtrip(self):
        box = BoxGeometry(((-2, 1), (0, 2), (5, 6)))
        for i in range(box.n_sites):
            assert box.index_of(box.coord_of(i)) == i

    def test_row_major_order(self):
        box = BoxGeometry(((0, 1), (0, 2)))
        assert [box.coord_of(i) for i in range(3)] == [(0, 0), (0, 1), (0, 2)]

    def test_distance_identity_and_definition(self):
        box = BoxGeometry(((0, 3), (0, 3)))
        x = box.index_of((0, 0))
        assert l1_distance(box, x, x) == 0
        assert l1_distance(box, x, box.index_of((1, 2))) == 3

    def test_distance_symmetry(self):
        box = BoxGeometry(((0, 5), (0, 4)))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.integers(0, box.n_sites, size=2)
            assert l1_distance(box, x, y) == l1_distance(box, y, x)

    def test_invalid_site(self):
        box = BoxGeometry(((0, 3),))
        with pytest.raises(ValueError):
            l1_distance(box, 0, 4)


class TestNeighborhood:
    def test_zero_radius_is_the_set(self):
        box = BoxGeometry(((0, 9),))
        X = [2, 7]
        assert neighborhood(box, X, 0).tolist() == X

    def test_chain_example(self):
        box = BoxGeometry(((0, 9),))
        assert neighborhood(box, [4], 2).tolist() == [2, 3, 4, 5, 6]

    def test_saturation(self):
        box = BoxGeometry(((0, 4), (0, 4)))
        assert neighborhood(box, [0], box.diameter()).size == box.n_sites

    def test_monotone_and_composition(self):
        box = BoxGeometry(((0, 6), (0, 5)))
        X = [box.index_of((3, 2))]
        for m, n in [(0, 1), (1, 2), (2, 3)]:
            a = neighborhood(box, X, m)
            b = neighborhood(box, X, m + n)
            assert set(a) <= set(b)
            composed = neighborhood(box, a, n)
            assert composed.tolist() == b.tolist()

    def test_empty_set_rejected(self):
        box = BoxGeometry(((0, 3),))
        with pytest.raises(ValueError):
            neighborhood(box, [], 1)


class TestBoundary:
    def test_full_box_has_no_boundary(self):
        box = BoxGeometry(((0, 9),))
        assert boundary(box, range(10)).size == 0

    def test_chain_prefix(self):
        box = BoxGeometry(((0, 9),))
        assert boundary(box, range(5)).tolist() == [4]

    def test_2d_block_perimeter(self):
        box = BoxGeometry(((0, 4), (0, 4)))
        X = [box.index_of((i, j)) for i in (1, 2, 3) for j in (1, 2, 3)]
        got = boundary(box, X).tolist()
        assert got == brute_force_boundary(box, X)
        assert len(got) == 8
        assert box.index_of((2, 2)) not in got


class TestLaplacians:
    def test_neumann_three_site_matrix(self):
        box = BoxGeometry(((0, 2),))
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(neumann_laplacian(box), expected)

    def test_constant_in_kernel_and_psd(self):
        box = BoxGeometry(((0, 4), (0, 3)))
        h = neumann_laplacian(box)
        assert np.allclose(h @ np.ones(box.n_sites), 0.0)
        evals = np.linalg.eigvalsh(h)
        assert evals[0] > -1e-12
        assert abs(evals[0]) < 1e-12

    def test_three_site_spectrum(self):
        # characteristic polynomial by hand: (1-l)*l*(l-3) -> roots {0, 1, 3}
        box = BoxGeometry(((0, 2),))
        evals = np.sort(np.linalg.eigvalsh(neumann_laplacian(box)))
        assert np.allclose(evals, [0.0, 1.0, 3.0], atol=1e-12)

    def test_dirichlet_correction(self):
        box = BoxGeometry(((0, 9),))
        diff = dirichlet_laplacian(box) - neumann_laplacian(box)
        assert np.allclose(diff, np.diag(np.diag(diff)))
        d = np.diag(diff)
        assert d[0] == 2.0 and d[-1] == 2.0  # endpoints, degree 1
        assert np.all(d[1:-1] == 0.0)  # interior, degree 2*nu

    def test_dirichlet_rank_bounded_by_boundary(self):
        box = BoxGeometry(((0, 5), (0, 4)))
        diff = dirichlet_laplacian(box) - neumann_laplacian(box)
        rank = np.linalg.matrix_rank(diff)
        assert rank <= box_boundary(box).size
        assert np.all(np.diag(diff) >= 0.0)
        assert set(np.flatnonzero(np.diag(diff))) <= set(box_boundary(box))

    def test_matches_definition_and_survives_caller_edits(self):
        # brute force over l1 neighbors on a 3D box away from the origin;
        # the edge data behind the Laplacians is built once per box, so
        # editing returned arrays must not leak into later calls
        box = BoxGeometry(((1, 3), (-2, 0), (4, 5)))
        c = box.coords()
        adjacent = (np.abs(c[:, None, :] - c[None, :, :]).sum(axis=2) == 1).astype(float)
        deg = adjacent.sum(axis=1)
        expected = np.diag(deg) - adjacent
        for _ in range(2):
            h = neumann_laplacian(box)
            assert np.array_equal(h, expected)
            assert np.array_equal(dirichlet_laplacian(box), expected + np.diag(2.0 * (6 - deg)))
            assert np.array_equal(degrees(box), deg)
            h[:] = 0.0
            degrees(box)[:] = 0

    def test_degrees_2d(self):
        box = BoxGeometry(((0, 2), (0, 2)))
        deg = degrees(box)
        assert deg[box.index_of((1, 1))] == 4
        assert deg[box.index_of((0, 0))] == 2


def test_distances_from_matches_scalar():
    box = BoxGeometry(((0, 4), (0, 3)))
    x = box.index_of((2, 1))
    vec = l1_distances_from(box, x)
    for y in range(box.n_sites):
        assert vec[y] == l1_distance(box, x, y)
