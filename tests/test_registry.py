"""The query registry's naming rule, and the registry counts the docs
state (README.md, OPERATORS.md, COVERAGE.md)."""

from __future__ import annotations

import os
import re

import pytest

from tests.conftest import REPO_ROOT

# (pattern, the count each group states) per document; each pattern must
# match exactly once
DOC_COUNTS = {
    "README.md": [
        (r"\((\d+) of (\d+) registry queries are oracle-gated\)",
         ("oracles", "queries")),
        (r"`queries\(\)` \((\d+)\s+pipelines\), `oracle_sql\(\)` \((\d+) DuckDB oracles\)",
         ("queries", "oracles")),
        (r"list all (\d+) with", ("queries",)),
    ],
    "OPERATORS.md": [
        (r"Counts: \*\*(\d+) queries, (\d+) oracle-gated,\s+(\d+) rows-only\*\*",
         ("queries", "oracles", "rows")),
    ],
    "COVERAGE.md": [
        (r"Total registry: (\d+) queries — (\d+) oracle-gated, (\d+) rows-only",
         ("queries", "oracles", "rows")),
    ],
}


@pytest.fixture(scope="module")
def registry():
    import __ray_entry__ as entry

    return entry.queries(), entry.oracle_sql()


def _q_names(module) -> set[str]:
    return {
        n for n, f in vars(module).items()
        if n.startswith("q_") and callable(f) and f.__module__ == module.__name__
    }


def test_oracles_are_queries(registry):
    qs, oracles = registry
    assert set(oracles) <= set(qs)
    assert all(isinstance(s, str) and "SELECT" in s.upper() for s in oracles.values())


def test_no_query_in_both_modules(registry):
    import __ray_entry__ as entry
    from plateau_gis_converter_ray.pipelines import queries as module

    qs, _ = registry
    here, there = _q_names(entry), _q_names(module)
    assert not here & there
    assert {f"q_{n}" for n in qs} == here | there


def test_name_defined_twice_raises(monkeypatch):
    import __ray_entry__ as entry

    def q_pricing_summary(sf_dir):
        return sf_dir

    q_pricing_summary.__module__ = entry.__name__
    monkeypatch.setattr(entry, "q_pricing_summary", q_pricing_summary, raising=False)
    with pytest.raises(ValueError, match="pricing_summary"):
        entry.queries()


@pytest.mark.parametrize("doc", sorted(DOC_COUNTS))
def test_doc_counts(registry, doc):
    qs, oracles = registry
    want = {"queries": len(qs), "oracles": len(oracles),
            "rows": len(qs) - len(oracles)}
    with open(os.path.join(REPO_ROOT, doc), encoding="utf-8") as f:
        text = f.read()
    for pattern, kinds in DOC_COUNTS[doc]:
        found = re.findall(pattern, text)
        assert len(found) == 1, f"{doc}: {pattern!r} matched {len(found)} times"
        stated = found[0] if isinstance(found[0], tuple) else (found[0],)
        assert dict(zip(kinds, map(int, stated))) == {k: want[k] for k in kinds}


def test_operators_rows(registry):
    """OPERATORS.md has one row per query, naming its function and gate."""
    qs, oracles = registry
    with open(os.path.join(REPO_ROOT, "OPERATORS.md"), encoding="utf-8") as f:
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` — \S+ \| (oracle|rows-only) \|", f.read(), re.M)
    assert sorted(r[0] for r in rows) == sorted(qs)
    for name, fn, gate in rows:
        assert fn == f"q_{name}"
        assert gate == ("oracle" if name in oracles else "rows-only")
