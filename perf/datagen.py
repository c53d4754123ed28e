"""Seeded input data, as plain Python tables.

Nothing here imports the program: a table is ``(columns, rows)`` with
``columns`` a list of ``(name, type)`` pairs (``"int"``, ``"float"``,
``"string"``, ``"date"``) and ``rows`` a list of tuples.  ``harness.load``
turns tables into a ``Database``; ``reference.py`` evaluates over the same
tables without the program.

The generators are *balanced*: every column of a binary relation holds each
value of its domain the same number of times, and only the pairing (a seeded
shuffle) changes with the seed.  Join fan-outs are then equal across seeds,
so a run's work depends on the seed far less than with independent draws,
and latencies of different seeds can be compared.
"""

from __future__ import annotations

import datetime
import random
from typing import Dict, List, Sequence, Tuple

Columns = List[Tuple[str, str]]
Table = Tuple[Columns, List[tuple]]


def _balanced(rng: random.Random, rows: int, distinct: int) -> List[int]:
    values = [i % distinct for i in range(rows)]
    rng.shuffle(values)
    return values


def binary_pool(
    rng: random.Random, count: int, rows: int, selectivity: int
) -> Dict[str, Table]:
    """``r0 … r{count-1}``, each ``(x{i}, y{i})`` over ``rows·selectivity %`` values.

    The paper's synthetic relations (§6): two integer attributes, a fixed
    cardinality, and ``selectivity`` percent distinct values per attribute.
    """
    distinct = max(1, round(rows * selectivity / 100))
    pool: Dict[str, Table] = {}
    for i in range(count):
        xs = _balanced(rng, rows, distinct)
        ys = _balanced(rng, rows, distinct)
        pool[f"r{i}"] = ([(f"x{i}", "int"), (f"y{i}", "int")], list(zip(xs, ys)))
    return pool


def star_tables(
    rng: random.Random, dimensions: int, fact_rows: int, dimension_rows: int
) -> Dict[str, Table]:
    """``fact(measure, k0..)`` keyed to ``dim{i}(k{i}, payload{i})``."""
    keys = [_balanced(rng, fact_rows, dimension_rows) for _ in range(dimensions)]
    measures = _balanced(rng, fact_rows, 1000)
    tables: Dict[str, Table] = {
        "fact": (
            [("measure", "int")] + [(f"k{i}", "int") for i in range(dimensions)],
            [
                (measures[row],) + tuple(keys[d][row] for d in range(dimensions))
                for row in range(fact_rows)
            ],
        )
    }
    payload_values = max(1, dimension_rows // 2)
    for i in range(dimensions):
        payloads = _balanced(rng, dimension_rows, payload_values)
        tables[f"dim{i}"] = (
            [(f"k{i}", "int"), (f"payload{i}", "int")],
            list(zip(range(dimension_rows), payloads)),
        )
    return tables


# ---------------------------------------------------------------------------
# TPC-H: the schema and value domains the benchmark's queries touch
# ---------------------------------------------------------------------------

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
NATIONS: Sequence[Tuple[str, int]] = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
TYPE_WORDS = (
    ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"),
    ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"),
    ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER"),
)
COLOURS = (
    "almond", "azure", "beige", "black", "blue", "brown", "coral", "cream",
    "cyan", "forest", "green", "grey", "ivory", "khaki", "lemon", "lime",
    "linen", "maroon", "navy", "olive", "orange", "peach", "pink", "plum",
    "purple", "red", "rose", "salmon", "sienna", "snow", "tan", "violet",
)
DISCOUNTS = (0.0, 0.01, 0.02, 0.04, 0.05, 0.06, 0.08, 0.1)

_FIRST_DAY = datetime.date(1992, 1, 1).toordinal()
DATES = [
    datetime.date.fromordinal(_FIRST_DAY + offset).isoformat()
    for offset in range((datetime.date(1998, 8, 2).toordinal() - _FIRST_DAY) + 1)
]

# Rows at scale 1.0: dbgen's scale-factor-1 counts shrunk 100-fold, the
# size the repository calls "1000 MB".
_ROWS_AT_SCALE_1 = {
    "supplier": 100,
    "customer": 1_500,
    "part": 2_000,
    "partsupp": 8_000,
    "orders": 15_000,
    "lineitem": 60_000,
}


def tpch_tables(rng: random.Random, scale: float) -> Dict[str, Table]:
    """All eight TPC-H tables, ``scale`` × the row counts above (min 10)."""
    rows = {name: max(10, round(n * scale)) for name, n in _ROWS_AT_SCALE_1.items()}
    n_supplier, n_customer = rows["supplier"], rows["customer"]
    n_part, n_orders = rows["part"], rows["orders"]
    randrange, choice, uniform = rng.randrange, rng.choice, rng.uniform
    n_nations, n_dates = len(NATIONS), len(DATES)

    tables: Dict[str, Table] = {
        "region": (
            [("r_regionkey", "int"), ("r_name", "string")],
            list(enumerate(REGIONS)),
        ),
        "nation": (
            [("n_nationkey", "int"), ("n_name", "string"), ("n_regionkey", "int")],
            [(i, name, region) for i, (name, region) in enumerate(NATIONS)],
        ),
    }
    tables["supplier"] = (
        [("s_suppkey", "int"), ("s_name", "string"), ("s_nationkey", "int"),
         ("s_acctbal", "float")],
        [
            (k, f"Supplier#{k:09d}", randrange(n_nations),
             round(uniform(-999.99, 9999.99), 2))
            for k in range(1, n_supplier + 1)
        ],
    )
    tables["customer"] = (
        [("c_custkey", "int"), ("c_name", "string"), ("c_nationkey", "int"),
         ("c_acctbal", "float"), ("c_mktsegment", "string")],
        [
            (k, f"Customer#{k:09d}", randrange(n_nations),
             round(uniform(-999.99, 9999.99), 2), choice(SEGMENTS))
            for k in range(1, n_customer + 1)
        ],
    )
    tables["part"] = (
        [("p_partkey", "int"), ("p_name", "string"), ("p_mfgr", "string"),
         ("p_brand", "string"), ("p_type", "string"), ("p_size", "int"),
         ("p_retailprice", "float")],
        [
            (
                k,
                " ".join(rng.sample(COLOURS, 4)),
                f"Manufacturer#{randrange(1, 6)}",
                f"Brand#{randrange(1, 6)}{randrange(1, 6)}",
                " ".join(choice(words) for words in TYPE_WORDS),
                randrange(1, 51),
                round(900 + k % 1000 + uniform(0, 100), 2),
            )
            for k in range(1, n_part + 1)
        ],
    )
    pairs = set()
    while len(pairs) < min(rows["partsupp"], n_part * n_supplier):
        pairs.add((randrange(1, n_part + 1), randrange(1, n_supplier + 1)))
    tables["partsupp"] = (
        [("ps_partkey", "int"), ("ps_suppkey", "int"), ("ps_availqty", "int"),
         ("ps_supplycost", "float")],
        [
            (pk, sk, randrange(1, 10_000), round(uniform(1.0, 1000.0), 2))
            for pk, sk in sorted(pairs)
        ],
    )
    tables["orders"] = (
        [("o_orderkey", "int"), ("o_custkey", "int"), ("o_orderstatus", "string"),
         ("o_totalprice", "float"), ("o_orderdate", "date"),
         ("o_orderpriority", "string")],
        [
            (k, randrange(1, n_customer + 1), choice("OFP"),
             round(uniform(1000.0, 500_000.0), 2), DATES[randrange(n_dates)],
             choice(PRIORITIES))
            for k in range(1, n_orders + 1)
        ],
    )
    line_number: Dict[int, int] = {}
    lineitem = []
    for _ in range(rows["lineitem"]):
        order = randrange(1, n_orders + 1)
        line_number[order] = number = line_number.get(order, 0) + 1
        quantity = float(randrange(1, 51))
        lineitem.append(
            (order, randrange(1, n_part + 1), randrange(1, n_supplier + 1), number,
             quantity, round(quantity * uniform(900.0, 2000.0), 2),
             choice(DISCOUNTS), choice("ARN"), DATES[randrange(n_dates)])
        )
    tables["lineitem"] = (
        [("l_orderkey", "int"), ("l_partkey", "int"), ("l_suppkey", "int"),
         ("l_linenumber", "int"), ("l_quantity", "float"),
         ("l_extendedprice", "float"), ("l_discount", "float"),
         ("l_returnflag", "string"), ("l_shipdate", "date")],
        lineitem,
    )
    return tables
