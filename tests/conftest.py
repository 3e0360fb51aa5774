"""Shared fixtures: a small federated deployment used across tests."""

import os

import pytest

try:
    from hypothesis import HealthCheck, settings as _hypothesis_settings

    _hypothesis_settings.register_profile("default", max_examples=100)
    # CI's fault-matrix job runs the property suites with a tighter
    # example budget and no deadline (virtual-clock tests do a lot of
    # work per example); select with HYPOTHESIS_PROFILE=ci
    _hypothesis_settings.register_profile(
        "ci",
        max_examples=25,
        deadline=None,
        suppress_health_check=(HealthCheck.too_slow,),
    )
    _hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "default")
    )
except ImportError:  # hypothesis is optional; property tests skip themselves
    pass

from repro.algebra import CallbackScan, Operator
from repro.mediator.catalog import Catalog
from repro.simtime import SimClock
from repro.sources.base import NetworkModel
from repro.sources.registry import SourceRegistry
from repro.sources.relational import RelationalSource
from repro.sources.webservice import WebServiceSource
from repro.sources.xmlfile import XMLSource
from repro.sql.database import Database
from repro.xmldm.schema import RecordType

BOOKS_XML = (
    '<bib>'
    '<book year="1994"><title>TCP Illustrated</title><author>Stevens</author>'
    "<price>65.95</price></book>"
    '<book year="2000"><title>Data on the Web</title><author>Abiteboul</author>'
    "<author>Buneman</author><price>39.95</price></book>"
    '<book year="1999"><title>XML Handbook</title><author>Goldfarb</author>'
    "<price>49.99</price></book>"
    "</bib>"
)


class Rows(Operator):
    """Replays fixed binding tuples: the row input of operator tests."""

    def __init__(self, rows):
        super().__init__()
        self.rows = list(rows)

    def _produce(self):
        yield from self.rows


def scan(var, items):
    """Bind each of ``items`` to ``$var``, the way a wrapper fetch does."""
    return CallbackScan(var, lambda: items)


def build_crm_database() -> Database:
    db = Database("crm")
    db.execute_script(
        """
        CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, city TEXT,
                                tier INTEGER);
        CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust_id INTEGER,
                             total REAL, status TEXT);
        CREATE INDEX idx_city ON customers (city);
        INSERT INTO customers VALUES
          (1,'Ann','Seattle',1),(2,'Bob','Portland',2),
          (3,'Cam','Seattle',1),(4,'Dee','Boise',3);
        INSERT INTO orders VALUES
          (10,1,99.5,'open'),(11,1,15.0,'closed'),(12,2,42.0,'open'),
          (13,3,7.25,'open');
        """
    )
    return db


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def registry(clock):
    registry = SourceRegistry(clock)
    registry.register(
        RelationalSource(
            "crm",
            build_crm_database(),
            network=NetworkModel(latency_ms=40.0, per_row_ms=0.5),
        )
    )
    registry.register(
        XMLSource(
            "library",
            {"books": BOOKS_XML},
            network=NetworkModel(latency_ms=25.0, per_row_ms=0.2),
        )
    )
    scores = WebServiceSource(
        "scores", network=NetworkModel(latency_ms=60.0, per_row_ms=0.1)
    )
    scores.add_endpoint(
        "credit",
        ["name"],
        RecordType.of("credit", name="string", score="number"),
        lambda inputs: [{"score": 500 + len(str(inputs["name"])) * 10}],
        estimated_rows=1,
    )
    registry.register(scores)
    return registry


@pytest.fixture
def catalog(registry):
    catalog = Catalog(registry)
    catalog.map_relation("customers", "crm", "customers")
    catalog.map_relation("orders", "crm", "orders")
    catalog.map_relation("credit_scores", "scores", "credit")
    return catalog
