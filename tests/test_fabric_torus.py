"""Tests for torus geometry, DOR routing, cables and wiring plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.cables import WiringPlan
from repro.fabric.torus import TorusTopology, dor_routes
from repro.shell.router import Port

TOPO = TorusTopology()  # the production 6x8


def test_dimensions_and_counts():
    assert TOPO.width == 6
    assert TOPO.height == 8
    assert TOPO.node_count == 48
    assert len(TOPO.nodes()) == 48
    assert len(TOPO.links()) == 96  # 2 per node in a 2-D torus


def test_invalid_torus_rejected():
    with pytest.raises(ValueError):
        TorusTopology(width=1, height=8)


def test_neighbor_wraparound():
    assert TOPO.neighbor((5, 0), Port.EAST) == (0, 0)
    assert TOPO.neighbor((0, 0), Port.WEST) == (5, 0)
    assert TOPO.neighbor((0, 7), Port.SOUTH) == (0, 0)
    assert TOPO.neighbor((0, 0), Port.NORTH) == (0, 7)


def test_neighbor_validation():
    with pytest.raises(ValueError):
        TOPO.neighbor((9, 9), Port.EAST)
    with pytest.raises(ValueError):
        TOPO.neighbor((0, 0), Port.ROLE)


def test_ring_is_full_column():
    ring = TOPO.ring(2)
    assert ring == [(2, y) for y in range(8)]
    with pytest.raises(ValueError):
        TOPO.ring(6)


def test_hop_distance_wraps():
    assert TOPO.hop_distance((0, 0), (5, 0)) == 1  # wraparound
    assert TOPO.hop_distance((0, 0), (3, 0)) == 3
    assert TOPO.hop_distance((0, 0), (0, 4)) == 4
    assert TOPO.hop_distance((1, 1), (1, 1)) == 0


def test_dor_routes_first_dimension_x():
    routes = dor_routes(TOPO, (0, 0))
    assert routes[(3, 0)] is Port.EAST
    assert routes[(4, 0)] is Port.WEST  # shorter the other way
    assert routes[(3, 5)] is Port.EAST  # X resolved before Y
    assert routes[(0, 4)] is Port.SOUTH
    assert routes[(0, 5)] is Port.NORTH
    assert (0, 0) not in routes


@settings(max_examples=100, deadline=None)
@given(
    sx=st.integers(0, 5), sy=st.integers(0, 7),
    dx=st.integers(0, 5), dy=st.integers(0, 7),
)
def test_dor_walk_reaches_destination_in_shortest_hops(sx, sy, dx, dy):
    """Property: following per-node DOR tables realizes shortest paths."""
    src, dst = (sx, sy), (dx, dy)
    if src == dst:
        return
    node = src
    hops = 0
    while node != dst:
        port = dor_routes(TOPO, node)[dst]
        node = TOPO.neighbor(node, port)
        hops += 1
        assert hops <= 16, "routing loop detected"
    assert hops == TOPO.hop_distance(src, dst)


# --- wiring plans / assemblies --------------------------------------------------


def test_assemblies_are_shells_of_eight_and_six():
    plan = WiringPlan(TOPO)
    groups = plan.assemblies()
    columns = [g for name, g in groups.items() if name.startswith("col")]
    rows = [g for name, g in groups.items() if name.startswith("row")]
    assert len(columns) == 6 and all(len(g) == 8 for g in columns)
    assert len(rows) == 8 and all(len(g) == 6 for g in rows)


def test_wiring_swap_cross_connects():
    plan = WiringPlan(TOPO)
    before_a = plan.wires[0]
    before_b = plan.wires[1]
    plan.swap(0, 1)
    assert plan.wires[0][:2] == before_a[:2]  # near end unchanged
    assert plan.wires[0][2:] == before_b[2:]  # far end swapped
    assert plan.wires[1][2:] == before_a[2:]


def test_wiring_swap_self_rejected():
    plan = WiringPlan(TOPO)
    with pytest.raises(ValueError):
        plan.swap(3, 3)
