"""Seeded inputs, operation streams and expected answers for the benchmark.

Nothing here imports the program under test.  Every workload keeps its
rows as plain lists and dicts and computes each expected answer with
comprehensions, ``sorted`` and arithmetic, so the oracle shares no code
with the engine it checks.  ``surface.py`` turns a :class:`Dataset` into
live sources and runs the :class:`Step` stream against them.

The seed decides which SKU gets which price, quantity, warehouse and
name, which keys the Zipf draws and the churn batches hit, and nothing
else: value *multisets* and query templates are fixed, so the number of
result elements per operation is the same for every seed and run-to-run
spread measures the machine, not the data.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Iterator

ADJECTIVES = ("compact", "rugged", "wireless", "ergonomic", "modular",
              "solar", "portable", "industrial")
NOUNS = ("router", "sensor", "keyboard", "camera", "scanner", "charger",
         "drone", "speaker")
CATEGORIES = ("networking", "peripherals", "imaging", "power")
WAREHOUSES = ("SEA", "PDX", "BOI")
GROUPS = 24

#: every timed phase runs at least this many operations, so that at
#: least ten samples lie beyond the 90th percentile
MIN_OPS = 110


# -- plain descriptions handed to surface.py ---------------------------------


@dataclass(frozen=True)
class Request:
    """One query a client sends, with the answer the oracle expects.

    ``lens`` is ``(lens name, parameters)`` for a lens
    invocation, else ``text`` goes to the engine directly.  ``expected``
    is a list of ``(tag, {attribute: value}, [(child tag, value)])``.
    """

    text: str
    device: str
    row_tag: str
    expected: list
    lens: tuple | None = None


@dataclass(frozen=True)
class Step:
    """One unit of the closed loop: a read, a write batch or a sync."""

    kind: str  # "read" | "write" | "sync"
    requests: tuple[Request, ...] = ()
    changes: tuple = ()  # write: (op, key, values); sync: count expected


@dataclass
class Dataset:
    """Everything ``surface.build`` needs, as plain Python values."""

    catalog_xml: str | None = None
    stock: list[tuple] | None = None  # (sku, price, quantity, warehouse)
    reviews: dict[str, tuple] | None = None  # sku -> (rating, count)
    orders: list[tuple] | None = None  # (id, region, amount)
    items: list[tuple] | None = None  # (k, grp, v), CDC on
    views: dict[str, str] = field(default_factory=dict)
    maintained: tuple[str, ...] = ()
    lenses: dict[str, tuple] = field(default_factory=dict)
    all_features: bool = False
    incremental: bool = False
    fragment_cache_bytes: int = 0

    def digest(self) -> str:
        """A fingerprint of the generated inputs (same seed, same digest)."""
        payload = repr((self.catalog_xml, self.stock, self.orders, self.items,
                        sorted((self.reviews or {}).items())))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- query templates (never seeded) ------------------------------------------

PRODUCT_PAGE_VIEW = """
WHERE <product sku=$sku category=$cat>
        <name>$name</name><description>$desc</description>
      </product> IN "content.products",
      <s><sku>$sku</sku><price>$price</price><quantity>$qty</quantity></s>
        IN "stock"
CONSTRUCT <page sku=$sku><name>$name</name><category>$cat</category>
            <description>$desc</description><price>$price</price>
            <in_stock>$qty</in_stock></page>
"""

VIEW_SCAN_QUERY = (
    "WHERE <page sku=$s><name>$n</name><price>$p</price></page> "
    'IN "product_page", $p < 250 '
    "CONSTRUCT <row sku=$s><name>$n</name><price>$p</price></row> "
    "ORDER BY $p"
)

JOIN_SORT_QUERY = (
    "WHERE <product sku=$s category=$c><name>$n</name></product> "
    'IN "content.products", '
    "<st><sku>$s</sku><price>$price</price><quantity>$q</quantity></st> "
    'IN "stock", $q > 100 '
    "CONSTRUCT <item sku=$s><name>$n</name><category>$c</category>"
    "<price>$price</price><qty>$q</qty></item> "
    "ORDER BY $price DESC"
)

GROUP_AGG_QUERY = (
    "WHERE <o><region>$g</region><amount>$v</amount></o> "
    'IN "orders" '
    "CONSTRUCT <region id=$g><n>count($v)</n><total>sum($v)</total>"
    "<mean>avg($v)</mean><top>max($v)</top></region>"
)

LOOKUP_LENS_QUERY = (
    "WHERE <st><sku>$s</sku><price>$p</price><quantity>$q</quantity>"
    '<warehouse>$w</warehouse></st> IN "stock", $s = {sku} '
    "CONSTRUCT <stock sku=$s><price>$p</price><qty>$q</qty>"
    "<warehouse>$w</warehouse></stock>"
)

CHEAPEST_LENS_QUERY = (
    "WHERE <st><sku>$s</sku><price>$p</price><warehouse>$w</warehouse></st> "
    'IN "stock", $w = {warehouse}, $p < {price} '
    "CONSTRUCT <offer sku=$s><price>$p</price></offer> "
    "ORDER BY $p LIMIT 10"
)

REVIEWS_QUERY = (
    "WHERE <st><sku>$s</sku><price>$p</price></st> "
    'IN "stock", $p < 30, '
    "<r><sku>$s</sku><rating>$rt</rating><review_count>$rc</review_count></r> "
    'IN "review_summary" '
    "CONSTRUCT <rev sku=$s><rating>$rt</rating><count>$rc</count></rev> "
    "ORDER BY $s"
)

#: lens name -> (query text with {holes}, declared parameters)
LENSES = {
    "sku_lookup": (LOOKUP_LENS_QUERY, ("sku",)),
    "cheapest": (CHEAPEST_LENS_QUERY, ("warehouse", "price")),
}


# -- the product site shared by five workloads -------------------------------


class Site:
    """Products in an XML catalog and a relational stock table."""

    def __init__(self, rng: random.Random, n: int, with_reviews: bool = False):
        self.n = n
        skus = [f"SKU-{10000 + i}" for i in range(n)]
        names = [
            f"{ADJECTIVES[j % 8]} {NOUNS[(j // 8) % 8]}"
            for j in rng.sample(range(n), n)
        ]
        self.products = [
            (sku, CATEGORIES[i % 4], names[i]) for i, sku in enumerate(skus)
        ]
        # fixed grids handed out in seeded order: prices are distinct
        # (no ORDER BY ties) and the share under any threshold is fixed
        prices = [(900 + 49000 * j // n) / 100 for j in rng.sample(range(n), n)]
        quantities = [500 * j // n for j in rng.sample(range(n), n)]
        houses = [WAREHOUSES[j % 3] for j in rng.sample(range(n), n)]
        self.stock = list(zip(skus, prices, quantities, houses))
        self.by_sku = {row[0]: row for row in self.stock}
        self.name_of = {sku: name for sku, _cat, name in self.products}
        self.category_of = {sku: cat for sku, cat, _name in self.products}
        self.reviews = None
        if with_reviews:
            ratings = [20 + 30 * j // n for j in rng.sample(range(n), n)]
            counts = [900 * j // n for j in rng.sample(range(n), n)]
            self.reviews = {
                sku: (ratings[i] / 10, counts[i]) for i, sku in enumerate(skus)
            }

    def catalog_xml(self) -> str:
        return "<catalog>" + "".join(
            f'<product sku="{sku}" category="{cat}"><name>{name}</name>'
            f"<description>The {name} for {cat} workloads.</description>"
            "</product>"
            for sku, cat, name in self.products
        ) + "</catalog>"

    def dataset(self, **options: Any) -> Dataset:
        return Dataset(
            catalog_xml=self.catalog_xml(), stock=self.stock,
            reviews=self.reviews, views={"product_page": PRODUCT_PAGE_VIEW},
            lenses=LENSES, **options,
        )

    # -- requests with their expected answers ----------------------------

    def view_scan(self) -> Request:
        rows = sorted((r for r in self.stock if r[1] < 250), key=lambda r: r[1])
        expected = [
            ("row", {"sku": sku}, [("name", self.name_of[sku]), ("price", price)])
            for sku, price, _q, _w in rows
        ]
        return Request(VIEW_SCAN_QUERY, "web", "row", expected)

    def join_sort(self) -> Request:
        rows = sorted((r for r in self.stock if r[2] > 100),
                      key=lambda r: r[1], reverse=True)
        expected = [
            ("item", {"sku": sku},
             [("name", self.name_of[sku]), ("category", self.category_of[sku]),
              ("price", price), ("qty", qty)])
            for sku, price, qty, _w in rows
        ]
        return Request(JOIN_SORT_QUERY, "web", "item", expected)

    def lookup(self, sku: str) -> Request:
        _sku, price, qty, house = self.by_sku[sku]
        expected = [("stock", {"sku": sku},
                     [("price", price), ("qty", qty), ("warehouse", house)])]
        return Request("", "web", "stock", expected,
                       lens=("sku_lookup", {"sku": sku}))

    def cheapest(self, house: str, price: int) -> Request:
        rows = sorted((r for r in self.stock if r[3] == house and r[1] < price),
                      key=lambda r: r[1])[:10]
        expected = [("offer", {"sku": r[0]}, [("price", r[1])]) for r in rows]
        return Request("", "web", "offer", expected,
                       lens=("cheapest", {"warehouse": house, "price": price}))

    def cheap_reviews(self) -> Request:
        rows = sorted(r[0] for r in self.stock if r[1] < 30)
        expected = [
            ("rev", {"sku": sku},
             [("rating", self.reviews[sku][0]), ("count", self.reviews[sku][1])])
            for sku in rows
        ]
        return Request(REVIEWS_QUERY, "web", "rev", expected)


def make_orders(rng: random.Random, n: int) -> list[tuple]:
    regions = [j % GROUPS for j in rng.sample(range(n), n)]
    amounts = [10 + 4990 * j // n for j in rng.sample(range(n), n)]
    return [(i, regions[i], amounts[i]) for i in range(n)]


def group_agg_request(orders: list[tuple]) -> Request:
    groups: dict[int, list[int]] = {}
    for _id, region, amount in orders:  # first appearance fixes the order
        groups.setdefault(region, []).append(amount)
    expected = [
        ("region", {"id": region},
         [("n", len(values)), ("total", sum(values)),
          ("mean", sum(values) / len(values)), ("top", max(values))])
        for region, values in groups.items()
    ]
    return Request(GROUP_AGG_QUERY, "web", "region", expected)


def zipf_sampler(rng: random.Random, population: list, exponent: float = 1.1):
    """Draws from ``population`` (in seeded rank order) with Zipf weights."""
    ranked = rng.sample(population, len(population))
    cumulative, total = [], 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank ** exponent
        cumulative.append(total)
    return lambda: ranked[bisect.bisect_left(cumulative, rng.random() * total)]


# -- workloads ----------------------------------------------------------------


class Workload:
    """A dataset plus an endless, deterministic stream of steps."""

    name = ""
    #: step kind whose wall time is an operation
    timed_kind = "read"
    #: operations in the traced pass (fixed, so exact counters repeat)
    trace_ops = 30
    #: span names that must record at least one call in the traced pass
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float = 1.0):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.scale = scale
        self.dataset = self.generate()

    def sized(self, n: int, floor: int = 40) -> int:
        return max(floor, int(n * self.scale))

    def generate(self) -> Dataset:
        raise NotImplementedError

    def steps(self) -> Iterator[Step]:
        raise NotImplementedError


class ViewScan(Workload):
    """Lens query over the mediated view product_page: the view sub-query
    builds element trees the outer pattern takes apart again, so core,
    construct and pattern match dominate."""

    name = "view_scan"
    trace_ops = 25
    layers = ("core.engine", "core.fetch_view", "core.format",
              "algebra.operators", "algebra.construct", "sources.execute",
              "sql.execute", "optimizer.plan_build")

    def generate(self) -> Dataset:
        self.site = Site(self.rng, self.sized(1000))
        return self.site.dataset()

    def steps(self) -> Iterator[Step]:
        request = self.site.view_scan()
        while True:
            yield Step("read", (request,))


class JoinSort(Workload):
    """XML x relational join with ORDER BY DESC and no view: the bypass for
    view work, home of the Sort comparator, wrapper pattern match, hash
    join and web formatting."""

    name = "join_sort"
    trace_ops = 40
    layers = ("core.engine", "core.format", "core.fetch_fragment",
              "algebra.operators", "algebra.construct", "sources.execute",
              "sql.execute")

    def generate(self) -> Dataset:
        self.site = Site(self.rng, self.sized(1000))
        return self.site.dataset()

    def steps(self) -> Iterator[Step]:
        request = self.site.join_sort()
        while True:
            yield Step("read", (request,))


class GroupAgg(Workload):
    """Grouped aggregate of one relational table into 24 elements: output
    is tiny, so sql, sources and grouping do the work and construct and
    format do none."""

    name = "group_agg"
    trace_ops = 30
    layers = ("core.engine", "core.fetch_fragment", "algebra.operators",
              "sources.execute", "sql.execute")

    def generate(self) -> Dataset:
        self.orders = make_orders(self.rng, self.sized(8000))
        return Dataset(orders=self.orders)

    def steps(self) -> Iterator[Step]:
        request = group_agg_request(self.orders)
        while True:
            yield Step("read", (request,))


class PointLens(Workload):
    """LensServer.invoke, 3 in 4 a Zipf-keyed SKU lookup and 1 in 4 a ten-
    cheapest range lens: data work is negligible, so lens, parse, bind,
    decompose, plan and the plan cache dominate."""

    name = "point_lens"
    trace_ops = 800
    layers = ("core.lens", "core.engine", "core.format", "query.parse",
              "query.bind", "optimizer.decompose", "optimizer.plan_build",
              "sources.execute", "sql.execute")

    def generate(self) -> Dataset:
        self.site = Site(self.rng, self.sized(1000))
        return self.site.dataset()

    def steps(self) -> Iterator[Step]:
        draw_sku = zipf_sampler(self.rng, [row[0] for row in self.site.stock])
        index = 0
        while True:
            index += 1
            if index % 4 == 0:
                request = self.site.cheapest(
                    self.rng.choice(WAREHOUSES),
                    self.rng.choice((150, 250, 350, 450)),
                )
            else:
                request = self.site.lookup(draw_sku())
            yield Step("read", (request,))


class FeaturesOn(Workload):
    """Five-query page with every accelerator the constructor offers
    switched on and a working set that fits the fragment cache: what the
    batch executor, pushdown and cache buy or cost."""

    name = "features_on"
    trace_ops = 30
    layers = ("core.engine", "core.format", "core.fetch_view",
              "core.fetch_fragment", "algebra.operators", "algebra.construct",
              "cache.lookup", "core.lens")

    def generate(self) -> Dataset:
        self.site = Site(self.rng, self.sized(500), with_reviews=True)
        self.orders = make_orders(self.rng, self.sized(2000))
        dataset = self.site.dataset(all_features=True)
        dataset.orders = self.orders
        return dataset

    def steps(self) -> Iterator[Step]:
        fixed = (self.site.view_scan(), self.site.join_sort(),
                 group_agg_request(self.orders), self.site.cheap_reviews())
        draw_sku = zipf_sampler(self.rng, [row[0] for row in self.site.stock])
        while True:
            yield Step("read", fixed + (self.site.lookup(draw_sku()),))


class CdcCycle(Workload):
    """Write batch, sync, a three-read page: two workloads time one half each.

    The table keeps its size (each batch re-inserts the keys the batch
    before deleted), so the cycle is stationary however long it runs.
    The first batch has nothing to re-insert and is one change short.
    """

    BATCH = (8, 1, 1)  # updates, inserts, deletes per batch
    BUCKETS = 20

    def generate(self) -> Dataset:
        n = self.n = self.sized(2000, floor=200)
        groups = [j % GROUPS for j in self.rng.sample(range(n), n)]
        half = n // 2  # the view lower_half holds a fixed share of each band
        values = [1000 * j // half for j in self.rng.sample(range(half), half)]
        values += [1000 * j // (n - half)
                   for j in self.rng.sample(range(n - half), n - half)]
        self.rows = {k: (groups[k], values[k]) for k in range(n)}
        self.views = {
            "lower_half": (
                "WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN \"items\", "
                f"$k < {n // 2} CONSTRUCT <r><k>$k</k><v>$v</v></r>"
            ),
            "by_group": (
                "WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN \"items\" "
                "CONSTRUCT <g id=$g><n>count($v)</n><total>sum($v)</total>"
                "<mean>avg($v)</mean></g>"
            ),
        }
        return Dataset(
            items=[(k, g, v) for k, (g, v) in self.rows.items()],
            views=self.views, maintained=tuple(self.views),
            incremental=True, fragment_cache_bytes=2_000_000,
        )

    def churn(self, live: list[int], parked: list[tuple]):
        """One batch over distinct keys, applied to the mirror as it goes.

        A new value stays in its old value's band of a hundred and an
        insert brings back the key the batch before deleted, so the
        reads return the same number of elements (give or take the one
        key now missing) for every seed and however long the run is.
        """
        updates, inserts, deletes = self.BATCH
        picked = self.rng.sample(range(len(live)), updates + deletes)
        changes = []
        for position in picked[:updates]:
            key = live[position]
            band = self.rows[key][1] // 100 * 100
            values = (self.rng.randrange(GROUPS),
                      band + self.rng.randrange(100))
            self.rows[key] = values
            changes.append(("update", key, values))
        for key, band in parked[:inserts]:
            values = (self.rng.randrange(GROUPS),
                      band + self.rng.randrange(100))
            self.rows[key] = values
            live.append(key)
            changes.append(("insert", key, values))
        del parked[:inserts]
        for position in sorted(picked[updates:], reverse=True):
            key = live[position]
            live[position] = live[-1]
            live.pop()
            parked.append((key, self.rows.pop(key)[1] // 100 * 100))
            changes.append(("delete", key, None))
        return tuple(changes)

    def reads(self, bucket: int) -> tuple[Request, ...]:
        rows, half = self.rows, self.n // 2
        hot = sorted(k for k, (_g, v) in rows.items() if k < half and v >= 900)
        rows_read = Request(
            "WHERE <r><k>$k</k><v>$v</v></r> IN \"lower_half\", $v >= 900 "
            "CONSTRUCT <hit><k>$k</k><v>$v</v></hit> ORDER BY $k",
            "xml", "hit",
            [("hit", {}, [("k", k), ("v", rows[k][1])]) for k in hot],
        )
        totals: dict[int, list[int]] = {}
        for group, value in rows.values():
            totals.setdefault(group, []).append(value)
        groups_read = Request(
            "WHERE <g id=$g><n>$n</n><total>$t</total></g> IN \"by_group\", "
            "$n > 0 CONSTRUCT <grp id=$g><n>$n</n><total>$t</total></grp> "
            "ORDER BY $g",
            "xml", "grp",
            [("grp", {"id": g}, [("n", len(vs)), ("total", sum(vs))])
             for g, vs in sorted(totals.items())],
        )
        width = self.n // self.BUCKETS
        low = bucket * width
        in_range = sorted(k for k in rows if low <= k < low + width)
        base_read = Request(
            "WHERE <i><k>$k</k><grp>$g</grp><v>$v</v></i> IN \"items\", "
            f"$k >= {low}, $k < {low + width} "
            "CONSTRUCT <r><k>$k</k><v>$v</v></r> ORDER BY $k",
            "xml", "r",
            [("r", {}, [("k", k), ("v", rows[k][1])]) for k in in_range],
        )
        return rows_read, groups_read, base_read

    def steps(self) -> Iterator[Step]:
        live, parked, buckets = list(self.rows), [], []
        while True:
            changes = self.churn(live, parked)
            yield Step("write", changes=changes)
            yield Step("sync", changes=changes)
            if not buckets:
                # every key range once per round, in seeded order: a read's
                # cost depends on its range, and a round covers them evenly
                buckets = self.rng.sample(range(self.BUCKETS), self.BUCKETS)
            yield Step("read", self.reads(buckets.pop()))


class CdcRefresh(CdcCycle):
    """A page reading two incrementally maintained views and a cached key
    range, with a 10-change batch synced in before each page: a read-
    path gain paid for in maintenance shows against cdc_sync."""

    name = "cdc_refresh"
    trace_ops = 25
    layers = ("core.engine", "core.format", "core.fetch_view", "core.sync",
              "materialize.serve_view", "materialize.refresh",
              "materialize.store_apply", "cache.lookup", "cache.apply_change",
              "cdc.write", "cdc.since", "xmldm.serialize")


class CdcSync(CdcCycle):
    """The same cycle timed on the other half: one sync_changes() draining
    a 10-change batch into cache, store and both maintained views per
    op; elements are change records applied."""

    name = "cdc_sync"
    timed_kind = "sync"
    trace_ops = 25
    layers = CdcRefresh.layers


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ViewScan, JoinSort, GroupAgg, PointLens, CdcRefresh, CdcSync,
                FeaturesOn)
}


# -- checking an answer -------------------------------------------------------


def same_value(expected: Any, text: str) -> bool:
    """Does rendered ``text`` carry ``expected``?  Numbers compare as
    numbers, so ``10`` and ``10.0`` agree; floats allow rounding noise
    from a different summation order."""
    if isinstance(expected, str):
        return text == expected
    try:
        got = float(text)
    except ValueError:
        return False
    if isinstance(expected, int):
        return got == expected
    return abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


def mismatch(request: Request, elements: list, rendered: str,
             complete: bool) -> str | None:
    """Why an answer is wrong, or None when it matches the oracle.

    ``elements`` come from ``surface.plain``: ``(tag, attributes,
    [(child tag, text)])`` in answer order.
    """
    if not complete:
        return "answer flagged incomplete"
    expected = request.expected
    if len(elements) != len(expected):
        return f"{len(elements)} elements, expected {len(expected)}"
    for position, (got, want) in enumerate(zip(elements, expected)):
        tag, attributes, children = got
        want_tag, want_attributes, want_children = want
        if tag != want_tag or set(attributes) != set(want_attributes):
            return f"element {position}: <{tag} {sorted(attributes)}>"
        for name, value in want_attributes.items():
            if not same_value(value, attributes[name]):
                return f"element {position}: @{name}={attributes[name]!r}"
        if [name for name, _ in children] != [name for name, _ in want_children]:
            return f"element {position}: children {[n for n, _ in children]}"
        for (name, text), (_, value) in zip(children, want_children):
            if not same_value(value, text):
                return f"element {position}: <{name}> {text!r} != {value!r}"
    rows = rendered.count(f"<dt>{request.row_tag}") if request.device == "web" \
        else rendered.count(f"<{request.row_tag}>") \
        + rendered.count(f"<{request.row_tag} ")
    if rows != len(expected):
        return f"rendered {rows} rows, expected {len(expected)}"
    return None
