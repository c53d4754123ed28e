"""Tests for the cost model and cost-k-decomp."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.cost import Estimate, join
from repro.errors import DecompositionError
from repro.hypergraph import Hypergraph, cycle_hypergraph, line_hypergraph
from repro.metering import WorkMeter
from repro.obs.tracing import tracing
from repro.query.builder import ConjunctiveQueryBuilder
from repro.core import costmodel
from repro.core.costmodel import DecompositionCostModel
from repro.core.costkdecomp import CostKDecomp, cost_k_decomp
from repro.core.detkdecomp import _SearchSpace, det_k_decomp
from repro.core.hypertree import HypertreeNode
from repro.core.optimizer import HybridOptimizer, cost_model_from_database
from repro.core.validate import validate_decomposition
from repro.workloads.synthetic import (
    StarConfig,
    generate_star_database,
    star_query_sql,
)
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import query_q5, query_q8

from .test_hypergraph_algorithms import union_find_components


def chain_query(n):
    builder = ConjunctiveQueryBuilder("chain")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{(i + 1) % n}")
    return builder.output("V0").build()


class TestCostModel:
    def test_uniform_model(self):
        q = chain_query(3)
        model = DecompositionCostModel.uniform(q, cardinality=500, distinct=100)
        est = model.atom_estimates["p0"]
        assert est.rows == 500
        assert est.distinct["V0"] == 100

    def test_missing_atom_rejected(self):
        q = chain_query(3)
        model = DecompositionCostModel.uniform(q)
        with pytest.raises(DecompositionError, match="zzz"):
            model.join_atoms(("zzz",), {"zzz": frozenset()})

    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_negative_or_nan_cardinality_rejected(self, value):
        with pytest.raises(DecompositionError, match="rows"):
            DecompositionCostModel({"p0": Estimate(value, {"V0": 10.0})})

    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_negative_or_nan_distinct_rejected(self, value):
        with pytest.raises(DecompositionError, match=r"distinct\(V1\)"):
            DecompositionCostModel(
                {"p0": Estimate(10.0, {"V0": 10.0, "V1": value})}
            )

    def test_join_estimate_formula(self):
        left = Estimate(1000, {"X": 100, "Y": 50})
        right = Estimate(2000, {"X": 200, "Z": 10})
        joined = join(left, right, ["X"])
        # |L|·|R| / max(V(L,X), V(R,X)) = 1000·2000/200
        assert joined.rows == pytest.approx(10_000)
        assert joined.distinct["X"] == 100  # min of the two
        assert joined.distinct["Y"] == 50
        assert joined.distinct["Z"] == 10

    def test_cross_join_estimate(self):
        left = Estimate(10, {"X": 5})
        right = Estimate(20, {"Y": 4})
        joined = join(left, right, [])
        assert joined.rows == 200

    def test_projection_bounded_by_distincts(self):
        est = Estimate(1_000_000, {"X": 10, "Y": 5})
        model = DecompositionCostModel({})
        projected = model.project(est, ["X", "Y"])
        assert projected.rows <= 50

    def test_join_sequence_smallest_first(self):
        model = DecompositionCostModel({})
        estimates = [Estimate(1000, {"X": 10}), Estimate(10, {"X": 10})]
        variables = [frozenset({"X"}), frozenset({"X"})]
        final, cost = model.join_sequence(estimates, variables)
        assert final.rows == pytest.approx(1000.0)
        assert cost > 0

    def test_empty_join_sequence(self):
        model = DecompositionCostModel({})
        final, cost = model.join_sequence([], [])
        assert final.rows == 1.0
        assert cost == 0.0

    def test_stitch_cost_positive(self):
        parent = Estimate(100, {"X": 10})
        child = Estimate(50, {"X": 10})
        cost, _ = DecompositionCostModel.stitch(parent, child, frozenset({"X"}))
        assert cost > 0


class TestCostKDecomp:
    def test_finds_same_width_as_det(self):
        q = chain_query(6)
        hg = q.hypergraph()
        model = DecompositionCostModel.uniform(q)
        result = cost_k_decomp(hg, 2, model)
        assert result is not None
        tree, cost = result
        assert tree.width <= 2
        assert tree.is_hypertree_decomposition()
        assert cost > 0

    def test_failure_matches_det(self):
        q = chain_query(5)
        hg = q.hypergraph()
        model = DecompositionCostModel.uniform(q)
        assert cost_k_decomp(hg, 1, model) is None
        assert det_k_decomp(hg, 1) is None

    def test_deterministic(self):
        q = chain_query(6)
        hg = q.hypergraph()
        model = DecompositionCostModel.uniform(q)
        tree1, cost1 = cost_k_decomp(hg, 2, model)
        tree2, cost2 = cost_k_decomp(hg, 2, model)
        assert cost1 == cost2
        assert shape(tree1.root) == shape(tree2.root)

    def test_root_cover(self):
        q = chain_query(6)
        hg = q.hypergraph()
        model = DecompositionCostModel.uniform(q)
        tree, _ = cost_k_decomp(hg, 2, model, required_root_cover={"V0", "V1"})
        assert {"V0", "V1"} <= tree.root.chi

    def test_statistics_steer_the_choice(self):
        # Two ways to cover the triangle; make one atom enormous and check
        # the search avoids joining it twice.
        q = (
            ConjunctiveQueryBuilder("t")
            .atom("big", "rbig", "A", "B")
            .atom("s1", "r1", "B", "C")
            .atom("s2", "r2", "C", "A")
            .output("A")
            .build()
        )
        hg = q.hypergraph()
        expensive = DecompositionCostModel(
            {
                "big": Estimate(10_000, {"A": 100, "B": 100}),
                "s1": Estimate(10, {"B": 10, "C": 10}),
                "s2": Estimate(10, {"C": 10, "A": 10}),
            }
        )
        tree, cost = cost_k_decomp(hg, 2, expensive, required_root_cover={"A"})
        # The big atom is joined at most once — the search may even cover
        # its edge purely through χ and leave the join to atom assignment.
        occurrences = sum(node.lam.count("big") for node in tree.root.walk())
        assert occurrences <= 1

    def test_invalid_k(self):
        q = chain_query(3)
        model = DecompositionCostModel.uniform(q)
        with pytest.raises(DecompositionError):
            cost_k_decomp(q.hypergraph(), 0, model)

    def test_unknown_cover_variable(self):
        q = chain_query(3)
        model = DecompositionCostModel.uniform(q)
        with pytest.raises(DecompositionError):
            cost_k_decomp(q.hypergraph(), 2, model, required_root_cover={"ZZ"})

    def test_cheaper_model_gives_lower_or_equal_cost(self):
        q = chain_query(5)
        hg = q.hypergraph()
        small = DecompositionCostModel.uniform(q, cardinality=10, distinct=5)
        large = DecompositionCostModel.uniform(q, cardinality=1000, distinct=5)
        _, cost_small = cost_k_decomp(hg, 2, small)
        _, cost_large = cost_k_decomp(hg, 2, large)
        assert cost_small < cost_large


# ---------------------------------------------------------------------------
# Reference search: the straightforward DP that recomputes everything
# ---------------------------------------------------------------------------


class ReferenceSearch:
    """cost-k-decomp with no memo beyond the DP table: the oracle.

    It re-unions every λ, re-splits every (component, χ), re-joins λ from
    scratch per candidate, joins twice per stitched child, clones every
    candidate's children and walks subtrees for the width.  The production
    search must agree with it bit for bit — cost, tree, counters.  It also
    records what a search *has* to compute at least once (``lambdas``,
    ``stitched``, ``splits``), the yardstick of the work guard below.
    """

    def __init__(self, hypergraph, k, model, output_weight=0.0, output_variables=()):
        self.hypergraph = hypergraph
        self.k = k
        self.model = model
        self.output_weight = output_weight
        self.output_variables = frozenset(output_variables)
        self.atom_variables = {edge.name: edge.vertices for edge in hypergraph}
        self.memo = {}
        self.candidates = 0
        self.pruned = 0
        self.lambdas = set()
        self.stitched = 0
        self.splits = set()

    def decompose(self, required_root_cover=()):
        self.root_key = (
            frozenset(edge.name for edge in self.hypergraph),
            frozenset(required_root_cover),
        )
        best = self.solve(*self.root_key)
        return None if best is None else (best[3], best[0])

    def separators(self, component, connector):
        component_vars = self.hypergraph.variables_of(component)
        relevant = connector | component_vars
        names = sorted(e.name for e in self.hypergraph if e.vertices & relevant)
        for size in range(1, self.k + 1):
            for combo in itertools.combinations(names, size):
                lam_vars = self.hypergraph.variables_of(combo)
                if connector <= lam_vars and lam_vars & component_vars:
                    yield combo

    def split(self, component, chi):
        self.splits.add((component, chi))
        return [
            (sub, frozenset(self.hypergraph.variables_of(sub) & chi))
            for sub in union_find_components(self.hypergraph, component, chi)
        ]

    def solve(self, component, connector):
        key = (component, connector)
        if key not in self.memo:
            self.memo[key] = None
            self.memo[key] = self.search(component, connector)
        return self.memo[key]

    def search(self, component, connector):
        model = self.model
        component_vars = self.hypergraph.variables_of(component)
        best = best_key = None
        for lam in self.separators(component, connector):
            self.candidates += 1
            chi = self.hypergraph.variables_of(lam) & (connector | component_vars)
            pieces = self.split(component, chi)
            if any(len(sub) >= len(component) for sub, _ in pieces):
                self.pruned += 1
                continue
            self.lambdas.add(lam)
            joined, total = model.join_sequence(
                [model.atom_estimates[name] for name in lam],
                [self.atom_variables[name] for name in lam],
            )
            current = model.project(joined, chi)
            children = []
            for sub, sub_connector in pieces:
                child = self.solve(sub, sub_connector)
                if child is None:
                    break
                self.stitched += 1
                child_cost, _width, child_estimate, child_node = child
                children.append(child_node)
                total += child_cost
                shared = [v for v in current.distinct if v in child_estimate.distinct]
                out = join(current, child_estimate, shared)
                total += (
                    current.rows + child_estimate.rows + out.rows
                )
                shared = [v for v in current.distinct if v in child_estimate.distinct]
                out = join(current, child_estimate, shared)
                keep = set(out.distinct) & chi
                current = Estimate(
                    out.rows,
                    {v: d for v, d in out.distinct.items() if v in keep},
                )
            if len(children) < len(pieces):
                self.pruned += 1
                continue
            if self.output_weight > 0.0 and self.root_key == (component, connector):
                answer = model.project(current, self.output_variables & chi)
                total += self.output_weight * answer.rows
            width = max(
                [len(lam)]
                + [max(len(n.lam) for n in child.walk()) for child in children]
            )
            node = HypertreeNode(chi, lam, [child.clone() for child in children])
            candidate_key = (total, width, lam)
            if best_key is None or candidate_key < best_key:
                best_key = candidate_key
                best = (total, width, model.project(current, chi), node)
        return best


def shape(node):
    return (
        tuple(sorted(node.chi)),
        node.lam,
        tuple(shape(child) for child in node.children),
    )


def assert_same_search(hypergraph, k, model, cover=(), output_weight=0.0):
    """Run production and reference; compare everything observable.

    Returns the production search (for its counters) and its result.
    """
    meter = WorkMeter()
    search = CostKDecomp(
        hypergraph,
        k,
        model,
        output_weight=output_weight,
        output_variables=cover,
        meter=meter,
    )
    found = search.decompose(cover)
    reference = ReferenceSearch(hypergraph, k, model, output_weight, cover)
    expected = reference.decompose(cover)
    assert (search.candidates, search.pruned) == (
        reference.candidates,
        reference.pruned,
    )
    assert meter.by_category.get("plan", 0) == reference.candidates
    assert (found is None) == (expected is None)
    if found is not None:
        tree, cost = found
        node, expected_cost = expected
        assert float(cost).hex() == float(expected_cost).hex()
        assert shape(tree.root) == shape(node)
        # ROADMAP: the correctness machinery pointed at the paper — every
        # tree the search returns is a hypertree decomposition (Def. 1, all
        # four conditions) whose root covers out(Q) (Def. 2, condition 2).
        report = validate_decomposition(tree, require_hd_conditions=True)
        assert report.ok, report.render()
        assert frozenset(cover) <= tree.root.chi
        assert tree.width <= k
    return search, reference, found


def path_query(n, cyclic):
    """Line (acyclic) or chain (cyclic) query over n binary atoms."""
    builder = ConjunctiveQueryBuilder("chain" if cyclic else "line")
    for i in range(n):
        last = (i + 1) % n if cyclic else i + 1
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{last}")
    return builder.output("V0", "V1").build()


def skewed_model(query):
    """Statistics with a different, non-round size and skew per atom."""
    estimates = {}
    for i, atom in enumerate(query.atoms):
        rows = 37.0 * (i % 5 + 2) ** 1.7
        estimates[atom.name] = Estimate(
            rows,
            {
                v: max(rows / (1.3 + j + (i * 7) % 4), 1.0)
                for j, v in enumerate(sorted(atom.variables))
            },
        )
    return DecompositionCostModel(estimates)


PATH_CASES = [
    pytest.param(n, cyclic, id=f"{'chain' if cyclic else 'line'}{n}")
    for cyclic in (False, True)
    for n in range(3, 10)
]

#: (output weight, require out(Q) at the root)
ROOT_MODES = [(0.0, False), (0.0, True), (2.5, True)]


@pytest.fixture(scope="module")
def sql_corpus():
    """(hypergraph, out(Q), statistics model, uniform model) per SQL query."""
    tpch = generate_tpch_database(size_mb=5, seed=1, analyze=True)
    star_config = StarConfig(n_dimensions=6, fact_rows=400, seed=3)
    star = generate_star_database(star_config)
    star.analyze()
    corpus = {}
    for label, database, sql in (
        ("q5", tpch, query_q5()),
        ("q8", tpch, query_q8()),
        ("star6", star, star_query_sql(star_config)),
    ):
        translation = HybridOptimizer(database, max_width=4).translate(sql)
        corpus[label] = (
            translation.query.hypergraph(),
            translation.query.output_variables,
            cost_model_from_database(translation, database, True),
            DecompositionCostModel.uniform(translation.query),
        )
    return corpus


#: Cardinalities and distinct counts for random statistics: zero and values
#: below one exercise the clamps in ``join``/``project``, where the search's
#: lower bound rests on every estimated size being ≥ 0.
SIZES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1e5),
)


class TestMatchesReferenceSearch:
    """The production search against the recompute-everything oracle:
    bit-identical cost, same tree, same counters, same plan units."""

    @pytest.mark.parametrize("n, cyclic", PATH_CASES)
    @pytest.mark.parametrize("statistics", [False, True], ids=["uniform", "stats"])
    def test_lines_and_chains(self, n, cyclic, statistics):
        query = path_query(n, cyclic)
        hypergraph = query.hypergraph()
        model = (
            skewed_model(query)
            if statistics
            else DecompositionCostModel.uniform(query)
        )
        for k in range(1, 5):
            for weight, covered in ROOT_MODES:
                cover = query.output_variables if covered else ()
                assert_same_search(hypergraph, k, model, cover, weight)

    @pytest.mark.parametrize("label", ["q5", "q8", "star6"])
    @pytest.mark.parametrize("statistics", [False, True], ids=["uniform", "stats"])
    def test_sql_queries(self, sql_corpus, label, statistics):
        hypergraph, out, stats_model, uniform_model = sql_corpus[label]
        model = stats_model if statistics else uniform_model
        found_some = False
        for k in range(1, 5):
            for weight, covered in ROOT_MODES:
                cover = out if covered else ()
                _, _, found = assert_same_search(hypergraph, k, model, cover, weight)
                found_some = found_some or found is not None
        assert found_some

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_hypergraphs(self, data):
        vertices = [f"X{i}" for i in range(6)]
        edge_count = data.draw(st.integers(1, 6))
        edges = {}
        estimates = {}
        for i in range(edge_count):
            members = data.draw(
                st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True)
            )
            rows = data.draw(SIZES)
            edges[f"e{i}"] = members
            estimates[f"e{i}"] = Estimate(
                rows, {v: data.draw(SIZES) for v in members}
            )
        hypergraph = Hypergraph.from_dict(edges)
        used = sorted(hypergraph.vertices)
        cover = data.draw(st.lists(st.sampled_from(used), max_size=2, unique=True))
        k = data.draw(st.integers(1, 3))
        weight = data.draw(st.sampled_from([0.0, 1.5]))
        assert_same_search(
            hypergraph, k, DecompositionCostModel(estimates), cover, weight
        )


class TestSearchWorkGuard:
    """No clock: counts that fail when per-candidate re-joining,
    per-candidate cloning or per-candidate splitting comes back."""

    def test_chain9_k4_joins_and_nodes(self, monkeypatch):
        query = path_query(9, cyclic=True)
        hypergraph = query.hypergraph()
        model = skewed_model(query)
        # What a search has to compute at least once, from the oracle.
        reference = ReferenceSearch(hypergraph, 4, model)
        reference.decompose(query.output_variables)
        solved = sum(1 for best in reference.memo.values() if best is not None)
        lambda_joins = sum(len(lam) - 1 for lam in reference.lambdas)

        joins = []
        monkeypatch.setattr(
            costmodel, "join", lambda *args: joins.append(1) or join(*args)
        )
        weighed = []
        real_names_of = _SearchSpace.names_of
        monkeypatch.setattr(
            _SearchSpace,
            "names_of",
            lambda *args: weighed.append(1) or real_names_of(*args),
        )
        nodes = []
        real_init = HypertreeNode.__init__

        def counting_init(self, *args, **kwargs):
            nodes.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(HypertreeNode, "__init__", counting_init)
        with tracing() as tracer:
            search = CostKDecomp(hypergraph, 4, model)
            tree, _cost = search.decompose(query.output_variables)

        # Strictly fewer: the lower bound skips the stitches of candidates
        # that are beaten before they are weighed.
        assert len(joins) < reference.stitched + lambda_joins
        assert len(nodes) <= 2 * solved + len(tree)
        # The span's weighting tags are these same counts.
        (span,) = tracer.spans("decompose.search")
        assert span.tags["estimate_joins"] == len(joins)
        assert span.tags["distinct_lambdas"] == len(reference.lambdas)
        # Every candidate is pruned, bounded or weighed; only a weighed one
        # names its χ.
        assert span.tags["bounded"] > 0
        assert span.tags["candidates"] == (
            span.tags["pruned"] + span.tags["bounded"] + len(weighed)
        )

    def test_chain9_k4_floods_once_per_distinct_split(self, monkeypatch):
        query = path_query(9, cyclic=True)
        hypergraph = query.hypergraph()
        model = skewed_model(query)
        reference = ReferenceSearch(hypergraph, 4, model)
        reference.decompose(query.output_variables)

        floods = []
        real_flood = _SearchSpace._flood
        monkeypatch.setattr(
            _SearchSpace,
            "_flood",
            lambda *args: floods.append(1) or real_flood(*args),
        )
        search = CostKDecomp(hypergraph, 4, model)
        search.decompose(query.output_variables)

        assert search.candidates == reference.candidates
        assert 0 < len(floods) <= len(reference.splits)
        assert 2 * len(floods) <= reference.candidates
