"""The content-key schema: golden digests, type separation, and a differential.

Every cache and request key is a SHA-256 over :mod:`repro.cache`'s tagged
binary encoding.  Three kinds of pins hold it in place:

* golden hex digests for a fixed set of values -- any change to the byte
  layout (and so to every key) fails here first;
* type separation: values of different types never share bytes, while the
  intended equivalences (list == tuple, NumPy scalars == Python scalars, one
  NaN, mapping and set order ignored) still hold;
* a hypothesis differential against ``_reference_canonical``, a copy of the
  ``repr``-based canonical form the encoding replaced: on values where that
  form was collision-free, two values share a reference form exactly when
  they share a digest.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from collections.abc import Mapping
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import random_chain, random_platform
from repro.cache import _U64, _encode, fingerprint, table_key
from repro.devices import Platform, edge_cluster_platform, lte, wifi_ac
from repro.devices.tables import build_tables
from repro.faults import RetryPolicy
from repro.scenarios import (
    DeviceLoadFactor,
    LinkBandwidthScale,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
    link_degradation_grid,
)
from repro.search import MaxOffloadedConstraint
from repro.service import PlacementRequest, PlacementService
from repro.tasks import GemmLoopTask, RegularizedLeastSquaresTask, TaskChain, TaskGraph


def _chain() -> TaskChain:
    return TaskChain(
        [RegularizedLeastSquaresTask(size=60 + 40 * i, iterations=8, name=f"L{i + 1}") for i in range(3)],
        name="golden",
    )


def _graph(reverse: bool = False) -> TaskGraph:
    tasks = [GemmLoopTask(16 + 8 * i, name=f"L{i + 1}") for i in range(4)]
    edges = [("L1", "L3"), ("L2", "L3"), ("L3", "L4")]
    return TaskGraph(tasks[::-1] if reverse else tasks, edges=edges, name="g")


def _scenario(weight: float = 0.25) -> Scenario:
    return Scenario(
        "s",
        settings=((LinkBandwidthScale(), 0.5), (DeviceLoadFactor(devices=("D",)), 2.0)),
        weight=weight,
    )


def _grid() -> ScenarioGrid:
    return ScenarioGrid.cartesian(
        [(LinkBandwidthScale(), [0.5, 1.0]), (LinkLatencyScale(), [1.0, 3.0])]
    )


def _request() -> PlacementRequest:
    return PlacementRequest(
        workload=_chain(),
        platform="edge-cluster",
        scenario_grid=link_degradation_grid((("D", "E"),), start=wifi_ac(), end=lte(), n_points=3),
        objective="energy",
        constraints=(MaxOffloadedConstraint(max_offloaded=2),),
    )


def _request_key(request: PlacementRequest) -> str | None:
    service = PlacementService()
    return service._request_key(request, service.resolve_platform(request.platform))


class TestGoldenDigests:
    """The byte layout is the schema: these digests move only with it."""

    CASES = {
        "none": lambda: None,
        "true": lambda: True,
        "int": lambda: 1,
        "wide-int": lambda: -(2**70),
        "float": lambda: 0.1,
        "negative-zero": lambda: -0.0,
        "nan": lambda: float("nan"),
        "str": lambda: "x",
        "tuple": lambda: (1, "a", None),
        "mapping": lambda: {"b": 2, "a": 1.5},
        "set": lambda: frozenset({1, "a"}),
        "platform": edge_cluster_platform,
        "chain": _chain,
        "graph": _graph,
        "scenario": _scenario,
        "grid-table-key": lambda: table_key(
            _chain(), edge_cluster_platform(), devices=("D", "E"), scenarios=_grid()
        ),
        "request-key": lambda: _request_key(_request()),
    }

    EXPECTED = {
        "none": "8ce86a6ae65d3692e7305e2c58ac62eebd97d3d943e093f577da25c36988246b",
        "true": "e632b7095b0bf32c260fa4c539e9fd7b852d0de454e9be26f24d0d6f91d069d3",
        "int": "d219cc776a7dc926c6d6f5e5c12c3df8b3c85a66164cc6e9e5f5244faf42d2b9",
        "wide-int": "cb22de736ea3e79e253b692be1ac1825161d0b46e0155405b68396be7ef5396d",
        "float": "e4e1d9b6208a3452d02ebff6f274cd18eb80b8109233073e96311e755292abae",
        "negative-zero": "cc456bd05fe76b51e4fdefc2d6abd88943c4a5fab066b754967abe30b5fd753c",
        "nan": "db71ad533db972bb63d0922d0c07867c4952e7c185dc1765598f8f5eda47e1a4",
        "str": "9e38faa7ccd5a6459fcca1a9d73a078ddeaf4e22dcadcefbbc105b39572934da",
        "tuple": "66715ceab77ac22fbfa9c74eb7797e011090e551a8761db8373cf3a2a10a0604",
        "mapping": "46ca47c9139e0521c7532fd324ccdcffdd0d81b9f0abf4f9e5c13f572c1370e3",
        "set": "8fe90c9c93f18d72e2b041ccf842b807f7830f2f87d8cdcd24cbac81f84f327d",
        "platform": "5ecf6d08512c43dabaa537ca522d4f36a6e0bf7bd22c7c42535cf44f42e36742",
        "chain": "d6b9aa320f7be5ea868ac3de65ebf80a09b11a6d255301f922046208d118ede0",
        "graph": "1f7a80add005ac211f3e0240fbcd6d369560522380b18fb09b3ce196fd8ec9c4",
        "scenario": "780077339a954a05ad55b56998ed774d062932dd4495a60eae97aef50a117da9",
        "grid-table-key": "2c7e95a13a396556ff14565c6d4e7ffeb6cfedbe0dab2ad6213a28a95bf4bf86",
        "request-key": "b6f6d97a8a4a48ac7e02b6c302f673b15c9cd8c9231ec091078fe4ec612cc5e4",
    }

    def test_golden_digests(self):
        actual = {}
        for name, make in self.CASES.items():
            value = make()
            # Keys are digests already; every other case digests its value.
            actual[name] = value if name.endswith("key") else fingerprint(value)
        assert actual == self.EXPECTED


class TestTypeSeparation:
    def test_mixed_type_keys_fingerprint(self):
        # Entries are ordered by their encoded bytes, never by comparing keys.
        assert fingerprint({1: "a", "x": "b"}) == fingerprint({"x": "b", 1: "a"})
        assert fingerprint(frozenset({1, "a"})) == fingerprint({"a", 1})
        assert fingerprint({1: "a", "x": "b"}) != fingerprint({1: "a", "x": "c"})

    def test_former_collisions_are_separated(self):
        assert fingerprint(1.0) != fingerprint("float:" + (1.0).hex())
        assert fingerprint({}) != fingerprint(("mapping", ()))
        assert fingerprint(frozenset()) != fingerprint(("set", ()))
        policy = RetryPolicy(max_attempts=3)
        assert fingerprint(policy) != fingerprint(_reference_canonical(policy))
        # A str never shares bytes with a number of the same payload.
        assert fingerprint(0.0) != fingerprint("\0" * 8)
        assert fingerprint(0) != fingerprint("\0" * 8)

    def test_intended_equalities_hold(self):
        assert fingerprint([1, "a", (2.5,)]) == fingerprint((1, "a", [2.5]))
        assert fingerprint(np.float64(0.25)) == fingerprint(0.25)
        assert fingerprint(np.float32(0.5)) == fingerprint(0.5)
        assert fingerprint(np.int64(7)) == fingerprint(7)
        assert fingerprint(np.int8(-3)) == fingerprint(-3)
        negative_nan = struct.unpack("<d", bytes.fromhex("010000000000f8ff"))[0]
        assert math.isnan(negative_nan)
        assert fingerprint(float("nan")) == fingerprint(negative_nan) == fingerprint(np.nan)
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint(_graph()) == fingerprint(_graph(reverse=True))

    def test_intended_differences_hold(self):
        assert fingerprint(-0.0) != fingerprint(0.0)
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(False) != fingerprint(0)
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(2**63) != fingerprint(2**63 - 1)
        assert fingerprint(((1, 2), 3)) != fingerprint(((1,), 2, 3))  # nesting is content
        assert fingerprint(Qt(1)) != fingerprint(Rt(1))  # so is the dataclass type
        base = random_platform(np.random.default_rng(3), n_devices=3)
        reordered = Platform(
            devices=dict(reversed(list(base.devices.items()))),
            links=dict(base.links),
            host=base.host,
            name=base.name,
        )
        assert fingerprint(base) != fingerprint(reordered)

    def test_mixed_type_request_is_keyed_and_served_from_cache(self):
        @dataclasses.dataclass(frozen=True)
        class TaggedTime:
            tags: Any
            name: str = "tagged-time"

            def __call__(self, batch):
                return batch.total_time_s

        def request() -> PlacementRequest:
            chain = random_chain(np.random.default_rng(1), n_tasks=3)
            objective = TaggedTime(tags={1: "a", "x": frozenset({2, "b"})})
            return PlacementRequest(workload=chain, platform="edge-cluster", objective=objective)

        assert _request_key(request()) is not None
        assert _request_key(request()) == _request_key(request())
        service = PlacementService()
        first = service.submit(request())
        second = service.submit(request())
        assert not first.cache_info.response_hit
        assert second.cache_info.response_hit
        assert (second.plan, second.value) == (first.plan, first.value)

    def test_bare_callable_objective_stays_unkeyable(self):
        def objective(batch):
            return batch.total_time_s

        objective.name = "bare"
        chain = random_chain(np.random.default_rng(2), n_tasks=2)
        request = PlacementRequest(workload=chain, platform="edge-cluster", objective=objective)
        assert _request_key(request) is None


class TestScenarioRowLayout:
    def test_scenario_bytes_are_emitted_from_columns(self):
        """A columnar grid can write each row's bytes from its columns."""
        axes = (LinkBandwidthScale(), LinkLatencyScale())
        grid = ScenarioGrid.cartesian(
            [(axes[0], [0.5, 1.0]), (axes[1], [1.0, float("nan"), 3.0])], weights=[1, 2, 3, 4, 5, 6]
        )
        # The columns a columnar grid stores: per setting position an axis
        # code and a value, per row a weight.
        codes = np.array([[0] * 6, [1] * 6])
        values = np.array([[v for _, v in s.settings] for s in grid.scenarios]).T
        values[np.isnan(values)] = np.nan  # one canonical NaN in the column
        weights = np.array([s.weight for s in grid.scenarios], dtype=np.float64)
        axis_table = []
        for axis in axes:
            buffer = bytearray()
            _encode(axis, buffer)
            axis_table.append(bytes(buffer))
        for i, scenario in enumerate(grid.scenarios):
            name = scenario.name.encode("utf-8")
            row = b"X" + _U64(len(name)) + name + weights[i : i + 1].tobytes() + _U64(2)
            for j in range(2):
                row += axis_table[codes[j, i]] + values[j, i : i + 1].tobytes()
            encoded = bytearray()
            _encode(scenario, encoded)
            assert bytes(encoded) == row


# ---------------------------------------------------------------------------
# differential against the repr-based canonical form the encoding replaced
# ---------------------------------------------------------------------------


def _reference_canonical(obj: Any) -> Any:
    """The former ``repro.cache.canonical``: nested tuples with a stable repr."""
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return "float:nan" if math.isnan(value) else f"float:{value.hex()}"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Platform):
        devices = tuple((alias, _reference_canonical(spec)) for alias, spec in obj.devices.items())
        links = tuple(sorted((pair, _reference_canonical(spec)) for pair, spec in obj.links.items()))
        return ("Platform", obj.name, obj.host, devices, links, _reference_canonical(obj.faults))
    if isinstance(obj, TaskChain):
        return ("TaskChain", obj.name, tuple(_reference_canonical(t) for t in obj.tasks))
    if isinstance(obj, TaskGraph):
        tasks = tuple(_reference_canonical(t) for t in obj.tasks)
        return ("TaskGraph", obj.name, tasks, tuple(obj.edges))
    if isinstance(obj, (GemmLoopTask, RegularizedLeastSquaresTask)):
        return ("MathTask", type(obj).__name__, obj.name, _reference_canonical(obj.cost()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        pairs = tuple(
            (field.name, _reference_canonical(getattr(obj, field.name)))
            for field in dataclasses.fields(obj)
        )
        return (type(obj).__name__, pairs)
    if isinstance(obj, Mapping):
        items = obj.items()
        return ("mapping", tuple(sorted((_reference_canonical(k), _reference_canonical(v)) for k, v in items)))
    if isinstance(obj, (frozenset, set)):
        return ("set", tuple(sorted(_reference_canonical(item) for item in obj)))
    if isinstance(obj, (tuple, list)):
        return tuple(_reference_canonical(item) for item in obj)
    raise TypeError(type(obj).__name__)


@dataclasses.dataclass(frozen=True)
class Pt:
    x: Any
    y: Any = 0


@dataclasses.dataclass(frozen=True)
class Qt:
    x: Any


@dataclasses.dataclass(frozen=True)
class Rt:
    x: Any


def _domain_pool() -> list:
    platform = random_platform(np.random.default_rng(3), n_devices=3)
    reordered = Platform(
        devices=dict(reversed(list(platform.devices.items()))),
        links=dict(reversed(list(platform.links.items()))),
        host=platform.host,
        name=platform.name,
    )
    a, b = Scenario("a"), Scenario("b")
    return [
        platform,
        random_platform(np.random.default_rng(3), n_devices=3),
        reordered,
        random_chain(np.random.default_rng(5), n_tasks=3),
        random_chain(np.random.default_rng(5), n_tasks=3),
        random_chain(np.random.default_rng(6), n_tasks=3),
        _graph(),
        _graph(reverse=True),
        _scenario(),
        _scenario(),
        _scenario(weight=0.5),
        ScenarioGrid((a, b)),
        ScenarioGrid((b, a)),
        ScenarioGrid((Scenario("a"), Scenario("b"))),
        LinkBandwidthScale(),
        LinkBandwidthScale(links=(("D", "A"),)),
        RetryPolicy(max_attempts=3),
        RetryPolicy(max_attempts=2),
    ]


DOMAIN = _domain_pool()

# No ':' (the reference's float strings), no lowercase m/s/t (its "mapping"
# and "set" tags) and no uppercase (dataclass and domain type names): the
# reference form collides on exactly those shapes, the encoding does not.
TEXT = st.text(alphabet=st.sampled_from("abcé0 _\ud800"), max_size=2)
FLOATS = st.sampled_from([0.0, -0.0, 0.1, 0.3, 0.1 + 0.2, 1.0, math.inf, -math.inf, math.nan])
INTS = st.integers(-2, 2) | st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**70])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT

VALUES = st.recursive(
    SCALARS | st.sampled_from(DOMAIN),
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=3)
        | st.dictionaries(INTS, inner, max_size=3)
        | st.frozensets(INTS, max_size=3)
        | st.frozensets(TEXT, max_size=3)
        | st.frozensets(FLOATS, max_size=3)
        | st.builds(Pt, inner, inner)
        | st.builds(Qt, inner)
        | st.builds(Rt, inner)
    ),
    max_leaves=8,
)


def _twin(value: Any, draw) -> Any:
    """A structurally equal copy: list/tuple swapped, NumPy scalars, new NaNs,
    reversed mapping insertion order."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return struct.unpack("<d", bytes.fromhex(draw(st.sampled_from(["000000000000f87f", "010000000000f8ff"]))))[0]
        return np.float64(value) if draw(st.booleans()) else value
    if isinstance(value, int):
        small = -(2**63) <= value < 2**63
        return np.int64(value) if small and draw(st.booleans()) else value
    if isinstance(value, (list, tuple)):
        items = [_twin(item, draw) for item in value]
        return items if draw(st.booleans()) else tuple(items)
    if isinstance(value, dict):
        return {k: _twin(v, draw) for k, v in reversed(list(value.items()))}
    if isinstance(value, (Pt, Qt, Rt)):
        return dataclasses.replace(
            value, **{f.name: _twin(getattr(value, f.name), draw) for f in dataclasses.fields(value)}
        )
    return value


@st.composite
def value_pairs(draw):
    first = draw(VALUES)
    second = _twin(first, draw) if draw(st.booleans()) else draw(VALUES)
    return first, second


@settings(max_examples=300, deadline=None)
@given(value_pairs())
def test_digest_equality_matches_the_reference_canonical_form(pair):
    first, second = pair
    same_reference = repr(_reference_canonical(first)) == repr(_reference_canonical(second))
    assert same_reference == (fingerprint(first) == fingerprint(second))


def test_grid_table_keys_agree_with_a_full_build():
    grid = _grid()
    platform = edge_cluster_platform()
    tables = build_tables(_chain(), platform, scenarios=grid)
    assert tables.fingerprint == table_key(_chain(), platform, scenarios=_grid())
