import numpy as np
import pytest

from tilq import InvalidInputError, TimeGrid
from tilq.grids import node_index


def test_uniform_nodes():
    g = TimeGrid.uniform(2.0, 8)
    assert g.num_intervals == 8
    assert g.nodes.size == 9
    np.testing.assert_allclose(g.nodes, np.linspace(0.0, 2.0, 9))
    np.testing.assert_allclose(g.h, 0.25)
    assert g.T == 2.0


def test_refine():
    g = TimeGrid.uniform(1.0, 10)
    r = g.refine(4)
    assert r.num_intervals == 40
    # refined grid contains the original nodes
    assert np.all(np.isin(np.round(g.nodes, 12), np.round(r.nodes, 12)))


def test_index_of():
    g = TimeGrid.uniform(1.0, 10)
    assert g.index_of(0.0) == 0
    assert g.index_of(0.3) == 3
    assert g.index_of(1.0) == 10
    with pytest.raises(InvalidInputError):
        g.index_of(0.35)


def test_bad_construction():
    with pytest.raises(InvalidInputError):
        TimeGrid.uniform(0.0, 10)
    with pytest.raises(InvalidInputError):
        TimeGrid.uniform(1.0, 0)


def test_nodes_read_only():
    g = TimeGrid.uniform(1.0, 4)
    with pytest.raises(ValueError):
        g.nodes[0] = 5.0


def test_node_index_one_rule_for_every_time():
    g = TimeGrid.uniform(1.0, 400)
    nodes = g.nodes
    # 0.5025 is one ulp below node 201; 1e-9 (1 + T) is the reach of a node
    ts = np.array([0.5025, nodes[7] + 1e-12, nodes[9] - 1.9e-9, nodes[9] - 2.1e-9,
                   0.0, 1.0, nodes[399] + 0.5 / 400])
    np.testing.assert_array_equal(node_index(nodes, ts), [201, 7, 9, -1, 0, 400, -1])
    assert node_index(nodes, 0.5025).ndim == 0
    assert g.index_of(0.5025) == 201
    assert g.index_of(nodes[9] - 1.9e-9) == 9
    with pytest.raises(InvalidInputError):
        g.index_of(nodes[9] - 2.1e-9)
