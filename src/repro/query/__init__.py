"""Query substrate: conjunctive queries and the SQL subset of the paper.

The paper works with SQL queries without nested statements and with equality
join conditions (§2).  This subpackage provides:

* :mod:`repro.query.conjunctive` — conjunctive queries ``ans(u) ← r1(u1) ∧ …``
  with output variables ``out(Q)`` and the associated hypergraph ``H(Q)``;
* :mod:`repro.query.lexer` / :mod:`repro.query.parser` — a hand-written
  tokenizer and recursive-descent parser for the SQL subset (SELECT with
  aggregates, FROM with aliases, WHERE conjunctions, GROUP BY, ORDER BY);
* :mod:`repro.query.translate` — the SQL → CQ(Q) construction of §2:
  equality conditions induce equivalence classes of attributes, each class
  becomes one variable;
* :mod:`repro.query.builder` — a small fluent API to build a conjunctive
  query in code.
"""

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.lexer import Token, TokenKind, tokenize
from repro.query.parser import parse_sql
from repro.query.translate import TranslationResult, sql_to_conjunctive
from repro.query.builder import ConjunctiveQueryBuilder
from repro.query import ast

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Token",
    "TokenKind",
    "tokenize",
    "parse_sql",
    "TranslationResult",
    "sql_to_conjunctive",
    "ConjunctiveQueryBuilder",
    "ast",
]
