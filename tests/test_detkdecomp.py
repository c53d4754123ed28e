"""Tests for det-k-decomp and hypertree width."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecompositionError
from repro.hypergraph import (
    Hypergraph,
    clique_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    line_hypergraph,
    random_hypergraph,
)
from repro.core.detkdecomp import _SearchSpace, det_k_decomp, hypertree_width
from repro.core.validate import validate_decomposition

from .test_costkdecomp import ReferenceSearch
from .test_hypergraph_algorithms import union_find_components


class TestKnownWidths:
    def test_acyclic_line_width_1(self):
        assert hypertree_width(line_hypergraph(6)) == 1

    def test_single_edge_width_1(self):
        assert hypertree_width(Hypergraph.from_dict({"a": ["X", "Y"]})) == 1

    def test_cycle_width_2(self):
        for n in (3, 4, 6, 8):
            assert hypertree_width(cycle_hypergraph(n)) == 2

    def test_clique_widths(self):
        # hw(K_n) = ⌈n/2⌉ for binary-edge cliques.
        assert hypertree_width(clique_hypergraph(4)) == 2
        assert hypertree_width(clique_hypergraph(5)) == 3

    def test_grid_2xn_width_2(self):
        assert hypertree_width(grid_hypergraph(2, 4)) == 2

    def test_paper_example_2_width_2(self):
        # Q0 from Example 2 of the paper has hypertree width exactly 2.
        q0 = Hypergraph.from_dict(
            {
                "a": ["S", "X", "Xp", "C", "F"],
                "b": ["S", "Y", "Yp", "Cp", "Fp"],
                "c": ["C", "Cp", "Z"],
                "d": ["X", "Z"],
                "e": ["Y", "Z"],
                "f": ["F", "Fp", "Zp"],
                "g": ["Xp", "Zp"],
                "h": ["Yp", "Zp"],
                "j": ["J", "X", "Y", "Xp", "Yp"],
            }
        )
        assert hypertree_width(q0) == 2

    def test_empty_hypergraph_width_0(self):
        assert hypertree_width(Hypergraph()) == 0

    def test_width_bound_exceeded(self):
        with pytest.raises(DecompositionError):
            hypertree_width(clique_hypergraph(7), max_k=2)


class TestDecomposition:
    def test_failure_below_width(self):
        assert det_k_decomp(cycle_hypergraph(5), 1) is None

    def test_produces_valid_hd(self):
        tree = det_k_decomp(cycle_hypergraph(6), 2)
        assert tree is not None
        assert tree.width <= 2
        assert tree.is_hypertree_decomposition()

    def test_invalid_k(self):
        with pytest.raises(DecompositionError):
            det_k_decomp(line_hypergraph(3), 0)

    def test_root_cover_satisfied(self):
        hg = cycle_hypergraph(6)
        cover = set(hg.edge("p0").vertices)
        tree = det_k_decomp(hg, 2, required_root_cover=cover)
        assert tree is not None
        assert cover <= tree.root.chi
        assert tree.is_hypertree_decomposition()

    def test_root_cover_can_force_failure(self):
        # Covering all variables of a long line needs many edges at once.
        hg = line_hypergraph(8)
        tree = det_k_decomp(hg, 2, required_root_cover=hg.vertices)
        assert tree is None

    def test_root_cover_unknown_variable(self):
        with pytest.raises(DecompositionError):
            det_k_decomp(line_hypergraph(3), 2, required_root_cover={"ZZZ"})

    def test_root_cover_spanning_distant_atoms(self):
        hg = line_hypergraph(6)
        cover = {"S0_0", "S4_0"}  # endpoints-ish variables
        tree = det_k_decomp(hg, 2, required_root_cover=cover)
        assert tree is not None
        assert cover <= tree.root.chi

    def test_empty_hypergraph_with_cover(self):
        tree = det_k_decomp(Hypergraph(), 2)
        assert tree is not None
        assert len(tree) == 1

    def test_more_edges_than_a_machine_word(self):
        # Components are Python ints, not a fixed-width type: 70 edge bits.
        hg = line_hypergraph(70)
        assert hypertree_width(hg) == 1
        tree = det_k_decomp(hg, 1)
        report = validate_decomposition(tree, require_hd_conditions=True)
        assert report.ok, report.render()


@settings(max_examples=25, deadline=None)
@given(
    n_vertices=st.integers(min_value=2, max_value=8),
    n_edges=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_random_hypergraphs_decompose_validly(n_vertices, n_edges, seed):
    """Any width-≤4 decomposition found must satisfy all HD conditions."""
    hg = random_hypergraph(n_vertices, n_edges, max_arity=3, seed=seed)
    tree = det_k_decomp(hg, 4)
    if tree is not None:
        assert tree.width <= 4
        assert tree.is_hypertree_decomposition()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=3, max_value=9))
def test_cycles_decompose_at_2_not_1(n):
    assert det_k_decomp(cycle_hypergraph(n), 1) is None
    tree = det_k_decomp(cycle_hypergraph(n), 2)
    assert tree is not None and tree.is_hypertree_decomposition()


# ---------------------------------------------------------------------------
# The bitset search space against its name-set oracles
# ---------------------------------------------------------------------------


@st.composite
def hypergraph_and_separator(draw):
    """1–9 edges over 8 vertices, plus a subset of the vertices in use."""
    vertices = [f"V{i}" for i in range(8)]
    edges = {
        f"e{i}": draw(
            st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True)
        )
        for i in range(draw(st.integers(1, 9)))
    }
    hg = Hypergraph.from_dict(edges)
    separator = draw(st.lists(st.sampled_from(sorted(hg.vertices)), unique=True))
    return hg, frozenset(separator)


def edge_names(space, component):
    return frozenset(
        name for number, (name, _) in enumerate(space._edges) if component >> number & 1
    )


def named_pieces(space, pieces):
    return [(edge_names(space, sub), space.names_of(conn)) for sub, conn in pieces]


@settings(max_examples=200, deadline=None)
@given(drawn=hypergraph_and_separator(), data=st.data())
def test_split_matches_connected_components(drawn, data):
    """Same partition, same piece order, same connectors."""
    hg, chi = drawn
    space = _SearchSpace(hg, 2)
    subset = data.draw(st.lists(st.sampled_from(sorted(hg.edge_names)), unique=True))
    component = sum(
        1 << number for number, (name, _) in enumerate(space._edges) if name in subset
    )
    assert named_pieces(space, space.split(component, space.vertex_mask(chi))) == [
        (sub, hg.variables_of(sub) & chi)
        for sub in union_find_components(hg, subset, chi)
    ]


@settings(max_examples=100, deadline=None)
@given(drawn=hypergraph_and_separator(), k=st.integers(1, 3))
def test_separators_match_combinations_oracle(drawn, k):
    """The λ sequence of ``itertools.combinations``, χ = var(λ) ∩ scope —
    at the root and on every piece of one split of it."""
    hg, chi = drawn
    space = _SearchSpace(hg, k)
    reference = ReferenceSearch(hg, k, model=None)
    root = (space.all_edges, space.vertex_mask(chi))
    for component, connector in (root,) + space.split(*root):
        names, connector_names = named_pieces(space, [(component, connector)])[0]
        scope = connector_names | hg.variables_of(names)
        assert [
            (lam, space.names_of(lam_chi))
            for lam, lam_chi in space.separators(component, connector)
        ] == [
            (lam, hg.variables_of(lam) & scope)
            for lam in reference.separators(names, connector_names)
        ]
