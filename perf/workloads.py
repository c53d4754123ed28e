"""The five workloads: seeded tables plus an ordered list of SQL operations.

The program under test receives only the SQL strings and a ``Database``
loaded from the tables.  ``perf/README.md`` says why each workload exists
and which layer it is meant to load.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perf import datagen
from perf.datagen import Table
from perf.reference import PathQuery

#: ``--scale smoke`` divides data sizes and operation counts by this.
SMOKE_SHRINK = 50


@dataclass(frozen=True)
class Op:
    """One operation: a SQL text and the key of its reference answer.

    ``path`` describes line/chain queries to ``reference.path_answer``;
    operations without it take their reference from the built-in planner.
    """

    template: str
    sql: str
    key: str
    path: Optional[PathQuery] = None


@dataclass
class Workload:
    name: str
    tables: Dict[str, Table]
    warmup: List[Op]
    #: Operations of the timed run, cycled until the clock runs out.
    ops: List[Op]
    #: The first ``sample`` operations are the fixed subsample of the
    #: count pass and of every round of the traced replay.
    sample: int
    clients: int
    #: Through ``QueryService.submit(...).result()`` instead of ``execute``.
    through_pool: bool
    max_width: int
    cache_capacity: int
    #: The tail percentile: 0.99 where a run times ≥ 1,000 operations,
    #: else 0.90 (≥ 100 operations, so ≥ 10 samples lie beyond either).
    tail: float
    #: ``database.analyze()`` after every this many operations.
    analyze_every: Optional[int] = None

    def digest(self) -> str:
        """sha256 of the ordered SQL list and the table row counts."""
        hasher = hashlib.sha256()
        for name in sorted(self.tables):
            hasher.update(f"{name}:{len(self.tables[name][1])};".encode())
        for op in self.warmup + self.ops:
            hasher.update(op.sql.encode())
            hasher.update(b"\x00")
        return hasher.hexdigest()


# ---------------------------------------------------------------------------
# SQL texts
# ---------------------------------------------------------------------------


def path_op(
    relations: Sequence[int], cyclic: bool, floor: Optional[Tuple[int, int]] = None
) -> Op:
    """A line (or chain) query over binary relations ``r{i}``.

    ``floor=(position, bound)`` adds ``r.x >= bound`` on one relation; the
    bound is a constant the template fingerprint masks, so operations that
    differ only in it share a cached plan.
    """
    n = len(relations)
    names = [f"r{i}" for i in relations]
    joins = [
        f"r{relations[j]}.y{relations[j]} = r{relations[j + 1]}.x{relations[j + 1]}"
        for j in range(n - 1)
    ]
    if cyclic:
        joins.append(f"r{relations[-1]}.y{relations[-1]} = r{relations[0]}.x{relations[0]}")
    if floor is not None:
        position, bound = floor
        joins.append(f"r{relations[position]}.x{relations[position]} >= {bound}")
    first = relations[0]
    sql = (
        f"SELECT r{first}.x{first}, r{first}.y{first} FROM {', '.join(names)} "
        f"WHERE {' AND '.join(joins)}"
    )
    kind = "chain" if cyclic else "line"
    template = f"{kind}{n}@r{first}"
    constant = "" if floor is None else str(floor[1])
    return Op(template, sql, f"{template}|{constant}", PathQuery(tuple(names), cyclic, floor))


def star_op(dimensions: int) -> Op:
    tables = ["fact"] + [f"dim{i}" for i in range(dimensions)]
    joins = [f"fact.k{i} = dim{i}.k{i}" for i in range(dimensions)]
    sql = (
        "SELECT dim0.payload0, sum(fact.measure) AS total FROM "
        + ", ".join(tables) + " WHERE " + " AND ".join(joins)
        + " GROUP BY dim0.payload0"
    )
    return Op(f"star{dimensions}", sql, f"star{dimensions}|")


_REVENUE = "sum(l_extendedprice * (1 - l_discount))"

TPCH_SQL: Dict[str, str] = {
    "q3": f"""SELECT l_orderkey, {_REVENUE} AS revenue, o_orderdate
        FROM customer, orders, lineitem
        WHERE c_mktsegment = '{{0}}' AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < date '{{1}}' AND l_shipdate > date '{{1}}'
        GROUP BY l_orderkey, o_orderdate ORDER BY revenue DESC LIMIT 10""",
    "q5": f"""SELECT n_name, {_REVENUE} AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = '{{0}}' AND o_orderdate >= date '{{1}}'
          AND o_orderdate < date '{{1}}' + interval '1' year
        GROUP BY n_name ORDER BY revenue DESC""",
    "q7": f"""SELECT n1.n_name, n2.n_name, {_REVENUE} AS revenue
        FROM supplier, lineitem, orders, customer, nation n1, nation n2
        WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
          AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
          AND c_nationkey = n2.n_nationkey
          AND n1.n_name = '{{0}}' AND n2.n_name = '{{1}}'
          AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31'
        GROUP BY n1.n_name, n2.n_name ORDER BY revenue DESC""",
    "q8": f"""SELECT n2.n_name, {_REVENUE} AS volume
        FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
        WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
          AND l_orderkey = o_orderkey AND o_custkey = c_custkey
          AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
          AND r_name = '{{0}}' AND s_nationkey = n2.n_nationkey
          AND o_orderdate BETWEEN date '1995-01-01' AND date '1996-12-31'
          AND p_type = '{{1}}'
        GROUP BY n2.n_name ORDER BY volume DESC""",
    "q9": f"""SELECT n_name, {_REVENUE} AS profit
        FROM part, supplier, lineitem, partsupp, orders, nation
        WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
          AND ps_partkey = l_partkey AND p_partkey = l_partkey
          AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
          AND p_name LIKE '%{{0}}%'
        GROUP BY n_name ORDER BY profit DESC""",
    "q10": f"""SELECT c_custkey, c_name, {_REVENUE} AS revenue, n_name
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate >= date '{{0}}'
          AND o_orderdate < date '{{0}}' + interval '3' month
          AND l_returnflag = 'R' AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, n_name ORDER BY revenue DESC LIMIT 20""",
    # Small slices for the serving workload: two to four tiny relations.
    "nations_of": """SELECT n_name FROM nation, region
        WHERE n_regionkey = r_regionkey AND r_name = '{0}'""",
    "suppliers_in": """SELECT s_name, n_name FROM supplier, nation, region
        WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = '{0}'""",
    "customers_of": """SELECT c_name, n_name FROM customer, nation
        WHERE c_nationkey = n_nationkey AND c_mktsegment = '{0}'""",
    "balance_by_nation": """SELECT n_name, sum(s_acctbal) AS balance
        FROM supplier, nation, region
        WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = '{0}'
        GROUP BY n_name ORDER BY n_name""",
}


# The constants a template is run with: the same set for every seed, handed
# out in a seeded order.  Which constants a seed happens to draw would
# otherwise move a workload's cost by several per cent.
_REGIONS_4 = [(region,) for region in datagen.REGIONS[:4]]
_TPCH_CONSTANTS: Dict[str, List[Tuple[str, ...]]] = {
    "q3": [(segment, "1995-03-15") for segment in datagen.SEGMENTS[:4]],
    "q5": list(zip(datagen.REGIONS, ("1993-01-01", "1994-01-01", "1995-01-01", "1996-01-01"))),
    "q7": [("FRANCE", "GERMANY"), ("CHINA", "JAPAN"), ("BRAZIL", "CANADA"), ("INDIA", "EGYPT")],
    "q8": [
        ("AMERICA", "ECONOMY ANODIZED STEEL"), ("ASIA", "STANDARD PLATED TIN"),
        ("EUROPE", "PROMO BRUSHED COPPER"), ("AFRICA", "SMALL POLISHED BRASS"),
    ],
    "q9": [("green",), ("blue",), ("pink",), ("olive",)],
    "q10": [("1993-10-01",), ("1994-04-01",), ("1995-01-01",), ("1996-07-01",)],
    "nations_of": _REGIONS_4,
    "suppliers_in": _REGIONS_4,
    "customers_of": [(segment,) for segment in datagen.SEGMENTS[:4]],
    "balance_by_nation": _REGIONS_4,
}


def tpch_op(template: str, constants: Tuple[str, ...]) -> Op:
    sql = " ".join(TPCH_SQL[template].format(*constants).split())
    return Op(template, sql, f"{template}|{','.join(constants)}")


def _tpch_variants(rng: random.Random, template: str) -> List[Op]:
    constants = list(_TPCH_CONSTANTS[template])
    rng.shuffle(constants)
    return [tpch_op(template, c) for c in constants]


class _Variants:
    """Per template, a seeded finite list of operations handed out in turn.

    Consecutive operations of a template bind different constants, yet the
    set of reference answers stays bounded.
    """

    def __init__(self) -> None:
        self._ops: Dict[str, List[Op]] = {}
        self._next: Dict[str, int] = {}

    def add(self, variants: List[Op]) -> str:
        template = variants[0].template
        self._ops[template] = variants
        self._next[template] = 0
        return template

    def take(self, template: str) -> Op:
        index = self._next[template]
        self._next[template] = index + 1
        variants = self._ops[template]
        return variants[index % len(variants)]


def _blocks(
    rng: random.Random, variants: _Variants, weights: Dict[str, int], blocks: int
) -> List[Op]:
    """``blocks`` shuffled blocks, each holding every template ``weight`` times.

    Any prefix of the list then has nearly the class mix of the whole, so a
    timed run that stops mid-list still measures the intended mix.
    """
    ops: List[Op] = []
    for _ in range(blocks):
        block = [t for t, weight in weights.items() for _ in range(weight)]
        rng.shuffle(block)
        ops.extend(variants.take(template) for template in block)
    return ops


def _floors(rng: random.Random, position: int, bounds: range, count: int):
    """``count`` evenly spaced bounds (the same for every seed), in seeded order."""
    count = min(count, len(bounds))
    chosen = [bounds[i * len(bounds) // count] for i in range(count)]
    rng.shuffle(chosen)
    return [(position, bound) for bound in chosen]


def _tail(ops: List[Op], count: int) -> List[Op]:
    """The ``count`` operations that precede ``ops[0]`` in the cycled list."""
    return [ops[i % len(ops)] for i in range(-count, 0)]


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


def _add_paths(
    rng: random.Random,
    variants: _Variants,
    weights: Dict[str, int],
    sizes: Dict[int, Tuple[int, int]],
    floors: Optional[Tuple[int, range, int]] = None,
) -> None:
    """Line and chain templates over ``r0 … r{n-1}`` per ``n: (line, chain)`` weight.

    A line and a chain of one length cost about the same, so a length is
    one latency class.  ``floors=(position, bounds, count)`` gives every
    template ``count`` seeded variants of its filter constant.
    """
    for n, pair in sizes.items():
        for cyclic, weight in zip((False, True), pair):
            chosen = [None] if floors is None else _floors(rng, *floors)
            template = variants.add([path_op(range(n), cyclic, f) for f in chosen])
            weights[template] = weight


def serve_warm(rng: random.Random, shrink: int) -> Workload:
    tables = datagen.tpch_tables(rng, 0.002)
    tables.update(datagen.binary_pool(rng, 6, 30, 60))
    variants = _Variants()
    weights: Dict[str, int] = {}
    for template in ("nations_of", "suppliers_in", "customers_of", "balance_by_nation"):
        weights[variants.add(_tpch_variants(rng, template))] = 1
    # 16 per block; by latency: slices 25 %, n=3 to 37.5 %, n=4 to 62.5 %,
    # n=5 to 81 %, n=6 to 100 %: p50 in the middle of n=4, p99 inside n=6.
    _add_paths(
        rng, variants, weights,
        {3: (1, 1), 4: (2, 2), 5: (2, 1), 6: (1, 2)}, floors=(1, range(0, 4), 4),
    )
    ops = _blocks(rng, variants, weights, 25)
    return Workload(
        "serve_warm", tables,
        warmup=_tail(ops, max(len(weights), 600 // shrink)), ops=ops,
        sample=max(40, 2000 // shrink), clients=2, through_pool=True,
        max_width=3, cache_capacity=128, tail=0.99,
    )


def serve_churn(rng: random.Random, shrink: int) -> Workload:
    tables = datagen.binary_pool(rng, 10, 120, 60)
    variants = _Variants()
    # Popularity rank → shape is the same for every seed (small and large
    # shapes alternate, eight times over); the seed picks which relations a
    # template joins, its constants and the order of operations.  The hot
    # set then costs the same whatever the seed.
    shapes = [
        (5, False), (4, True), (7, False), (3, True), (8, False), (6, True),
        (3, False), (8, True), (4, False), (5, True), (6, False), (7, True),
    ]
    starts = {shape: rng.sample(range(10), 8) for shape in shapes}
    templates: List[str] = []
    for cycle in range(8):
        for n, cyclic in shapes:
            relations = [(starts[n, cyclic][cycle] + j) % 10 for j in range(n)]
            floors = _floors(rng, 1, range(0, 8), 3)
            templates.append(
                variants.add([path_op(relations, cyclic, f) for f in floors])
            )
    # Zipf(1.0) over the ranks, as exact frequencies rather than draws.
    length = 1200
    harmonic = sum(1.0 / rank for rank in range(1, len(templates) + 1))
    sequence = [
        template
        for rank, template in enumerate(templates, start=1)
        for _ in range(max(1, round(length / (harmonic * rank))))
    ]
    rng.shuffle(sequence)
    ops = [variants.take(template) for template in sequence]
    return Workload(
        "serve_churn", tables,
        warmup=_tail(ops, max(40, 300 // shrink)), ops=ops,
        sample=max(60, 600 // shrink), clients=1, through_pool=False,
        max_width=3, cache_capacity=32, tail=0.99,
        analyze_every=max(25, 500 // shrink),
    )


def plan_cold(rng: random.Random, shrink: int) -> Workload:
    largest = 11 if shrink == 1 else 7
    tables = datagen.tpch_tables(rng, 0.005)
    tables.update(datagen.binary_pool(rng, largest, 30, 60))
    tables.update(datagen.star_tables(rng, 6, 200, 20))
    variants = _Variants()
    weights: Dict[str, int] = {variants.add([star_op(6)]): 1}
    for template in ("q5", "q8"):
        weights[variants.add(_tpch_variants(rng, template))] = 1
    # 25 per block; by planning time: star/Q5/Q8 12 %, then the lengths to
    # 36 %, 64 %, 72 %, 80 %, 100 %: p50 in the middle of the second
    # length, p90 in the middle of the largest.
    lengths = range(largest - 4, largest + 1)
    _add_paths(
        rng, variants, weights,
        dict(zip(lengths, ((3, 3), (4, 3), (1, 1), (1, 1), (3, 2)))),
    )
    ops = _blocks(rng, variants, weights, 8)
    return Workload(
        "plan_cold", tables,
        warmup=_blocks(rng, variants, dict.fromkeys(weights, 1), 1), ops=ops,
        sample=len(weights) if shrink > 1 else 25,
        clients=1, through_pool=False, max_width=4, cache_capacity=0, tail=0.90,
    )


def chain_exec(rng: random.Random, shrink: int) -> Workload:
    rows = max(60, 1000 // shrink)
    tables = datagen.binary_pool(rng, 10, rows, 30)
    distinct = round(rows * 0.3)
    bounds = range(0, max(2, distinct // 10))  # x >= bound keeps ≥ 90 %
    variants = _Variants()
    line = variants.add(
        [path_op(range(10), False, f) for f in _floors(rng, 4, bounds, 6)]
    )
    chain = variants.add(
        [path_op(range(8), True, f) for f in _floors(rng, 4, bounds, 6)]
    )
    # 80 % lines, 20 % chains (about twice as slow): p50 in the middle of
    # the line class, p90 in the middle of the chain class.
    ops = _blocks(rng, variants, {line: 4, chain: 1}, 30)
    return Workload(
        "chain_exec", tables,
        warmup=_tail(ops, 5), ops=ops, sample=20 if shrink == 1 else 10,
        clients=1, through_pool=False, max_width=2, cache_capacity=128, tail=0.90,
    )


def tpch_mixed(rng: random.Random, shrink: int) -> Workload:
    tables = datagen.tpch_tables(rng, 1.0 / shrink)
    variants = _Variants()
    # 18 per block; by measured latency q10 < q8 ≈ q3 < q5 < q9 < q7, so
    # the classes end at 17, 33, 67, 78, 83 and 100 %: p50 in the middle
    # of q3, p90 in the middle of q7.
    weights = {"q3": 6, "q5": 2, "q7": 3, "q8": 3, "q9": 1, "q10": 3}
    for template in weights:
        variants.add(_tpch_variants(rng, template))
    ops = _blocks(rng, variants, weights, 10)
    return Workload(
        "tpch_mixed", tables,
        warmup=_tail(ops, 18), ops=ops, sample=18 if shrink == 1 else 9,
        clients=1, through_pool=False, max_width=4, cache_capacity=128, tail=0.90,
    )


#: In the order the single command runs them: smallest footprint first, so
#: that each ``ru_maxrss`` reading is its own workload's high-water mark.
WORKLOADS: Dict[str, Callable[[random.Random, int], Workload]] = {
    "plan_cold": plan_cold,
    "serve_warm": serve_warm,
    "serve_churn": serve_churn,
    "chain_exec": chain_exec,
    "tpch_mixed": tpch_mixed,
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload ``name`` for ``seed``: same seed, same inputs."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, 1 if scale == "full" else SMOKE_SHRINK)
