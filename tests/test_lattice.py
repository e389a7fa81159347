import numpy as np
import pytest

from osclab.anderson import Stencil
from osclab.fock_oracle import neighborhood
from osclab.lattice import BoxGeometry, _graph, box_boundary, l1_distances_from, laplacian_diagonal


def laplacian(box, bc):
    """The dense Laplacian of the box with the boundary condition bc."""
    return np.asarray(Stencil(box, laplacian_diagonal(box, bc)))


class TestGeometry:
    def test_invalid_lengths(self):
        for lengths in ((), [0], [3, 0], [4, -1]):
            with pytest.raises(ValueError):
                BoxGeometry(lengths)

    def test_site_count(self):
        box = BoxGeometry([5, 4])
        assert box.n_sites == 5 * 4
        assert box.shape == (5, 4) and box.nu == 2
        assert box.diameter() == 4 + 3

    def test_lengths_are_a_tuple_of_ints(self):
        box = BoxGeometry(np.array([3, 2]))
        assert box.shape == (3, 2) and all(type(l) is int for l in box.shape)
        assert box == BoxGeometry((3, 2)) and hash(box) == hash(BoxGeometry([3, 2]))

    def test_index_coord_roundtrip(self):
        box = BoxGeometry([4, 3, 2])
        for i, coord in enumerate(box.coords()):
            assert box.index_of(coord) == i

    def test_row_major_order(self):
        box = BoxGeometry([2, 3])
        assert box.coords()[:3].tolist() == [[0, 0], [0, 1], [0, 2]]
        assert box.coords().tolist() == [[a, b] for a in range(2) for b in range(3)]

    @pytest.mark.parametrize("coord", [(-1, 0), (0, 3), (2, 0), (0, 0, 0), (1,)])
    def test_index_of_rejects(self, coord):
        with pytest.raises(ValueError):
            BoxGeometry([2, 3]).index_of(coord)

    def test_distance_identity_and_definition(self):
        box = BoxGeometry([4, 4])
        x = box.index_of((0, 0))
        assert l1_distances_from(box, x)[x] == 0
        assert l1_distances_from(box, x)[box.index_of((1, 2))] == 3

    def test_distance_symmetry(self):
        box = BoxGeometry([6, 5])
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.integers(0, box.n_sites, size=2)
            assert l1_distances_from(box, x)[y] == l1_distances_from(box, y)[x]

    def test_invalid_site(self):
        box = BoxGeometry([4])
        for x in (-1, 4):
            with pytest.raises(ValueError):
                l1_distances_from(box, x)


class TestNeighborhood:
    def test_zero_radius_is_the_set(self):
        box = BoxGeometry([10])
        X = [2, 7]
        assert neighborhood(box, X, 0).tolist() == X

    def test_chain_example(self):
        box = BoxGeometry([10])
        assert neighborhood(box, [4], 2).tolist() == [2, 3, 4, 5, 6]

    def test_saturation(self):
        box = BoxGeometry([5, 5])
        assert neighborhood(box, [0], box.diameter()).size == box.n_sites

    def test_monotone_and_composition(self):
        box = BoxGeometry([7, 6])
        X = [box.index_of((3, 2))]
        for m, n in [(0, 1), (1, 2), (2, 3)]:
            a = neighborhood(box, X, m)
            b = neighborhood(box, X, m + n)
            assert set(a) <= set(b)
            composed = neighborhood(box, a, n)
            assert composed.tolist() == b.tolist()

    def test_empty_set_rejected(self):
        box = BoxGeometry([4])
        with pytest.raises(ValueError):
            neighborhood(box, [], 1)


class TestLaplacians:
    def test_neumann_three_site_matrix(self):
        box = BoxGeometry([3])
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(laplacian(box, "neumann"), expected)

    def test_constant_in_kernel_and_psd(self):
        box = BoxGeometry([5, 4])
        h = laplacian(box, "neumann")
        assert np.allclose(h @ np.ones(box.n_sites), 0.0)
        evals = np.linalg.eigvalsh(h)
        assert evals[0] > -1e-12
        assert abs(evals[0]) < 1e-12

    def test_three_site_spectrum(self):
        # characteristic polynomial by hand: (1-l)*l*(l-3) -> roots {0, 1, 3}
        box = BoxGeometry([3])
        evals = np.sort(np.linalg.eigvalsh(laplacian(box, "neumann")))
        assert np.allclose(evals, [0.0, 1.0, 3.0], atol=1e-12)

    def test_dirichlet_correction(self):
        box = BoxGeometry([10])
        neumann, dirichlet = (laplacian(box, bc) for bc in ("neumann", "dirichlet"))
        diff = dirichlet - neumann
        assert np.allclose(diff, np.diag(np.diag(diff)))
        d = np.diag(diff)
        assert d[0] == 2.0 and d[-1] == 2.0  # endpoints, degree 1
        assert np.all(d[1:-1] == 0.0)  # interior, degree 2*nu

    def test_dirichlet_rank_bounded_by_boundary(self):
        box = BoxGeometry([6, 5])
        neumann, dirichlet = (laplacian(box, bc) for bc in ("neumann", "dirichlet"))
        diff = dirichlet - neumann
        rank = np.linalg.matrix_rank(diff)
        assert rank <= box_boundary(box).size
        assert np.all(np.diag(diff) >= 0.0)
        assert set(np.flatnonzero(np.diag(diff))) <= set(box_boundary(box))

    def test_matches_definition_and_survives_caller_edits(self):
        # brute force over l1 neighbors, boxes with a length-1 axis included;
        # the edge data behind the Laplacians is built once per box, so
        # editing a returned Laplacian must not leak into later calls
        for box in map(BoxGeometry, ([3, 3, 2], [4, 1, 3], [1, 7], [1])):
            c = box.coords()
            adjacent = (np.abs(c[:, None, :] - c[None, :, :]).sum(axis=2) == 1).astype(float)
            deg = adjacent.sum(axis=1)
            expected = np.diag(deg) - adjacent
            for _ in range(2):
                h = laplacian(box, "neumann")
                assert np.array_equal(h, expected)
                dirichlet = laplacian(box, "dirichlet")
                assert np.array_equal(dirichlet, expected + np.diag(2.0 * (2 * box.nu - deg)))
                assert np.array_equal(box_boundary(box), np.flatnonzero(deg < 2 * box.nu))
                h[:] = 0.0

    def test_graph_is_read_only(self):
        """The cached edges and degrees are shared by every caller, so none can write them."""
        box = BoxGeometry([3, 4])
        i, j, deg = _graph(box)
        assert _graph(BoxGeometry([3, 4]))[0] is i
        for arr in (i, j, deg):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_graph_edges_axis_after_axis(self):
        """Edges come axis after axis, each axis in site order, j the neighbour at +1 of i."""
        i, j, deg = _graph(BoxGeometry([2, 3]))
        assert i.tolist() == [0, 1, 2, 0, 1, 3, 4]
        assert j.tolist() == [3, 4, 5, 1, 2, 4, 5]
        assert deg.tolist() == [2, 3, 2, 2, 3, 2]

    def test_degrees_2d(self):
        box = BoxGeometry([3, 3])
        deg = _graph(box)[2]
        assert deg[box.index_of((1, 1))] == 4
        assert deg[box.index_of((0, 0))] == 2
        assert box_boundary(box).tolist() == [s for s in range(9) if s != box.index_of((1, 1))]


def test_distances_from_matches_scalar():
    box = BoxGeometry([5, 4])
    x = box.index_of((2, 1))
    vec = l1_distances_from(box, x)
    c = box.coords()
    for y in range(box.n_sites):
        assert vec[y] == abs(c[x] - c[y]).sum()
