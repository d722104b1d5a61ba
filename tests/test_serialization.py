"""Serialization: golden bytes, round trips, malformed-input diagnostics."""

import json
import random

import pytest

from trisat import FormatError, GraphBuilder, deserialize, new_host, serialize
from conftest import random_graph, random_sizes


def test_edges_format_golden():
    empty = GraphBuilder((1, 1, 1)).build()
    assert serialize(empty, "edges") == b"tripartite 1 1 1\n"
    host = new_host(1, 1, 1)
    assert serialize(host, "edges") == (
        b"tripartite 1 1 1\n"
        b"1 1 2 1\n"
        b"1 1 3 1\n"
        b"2 1 3 1\n")


def test_json_format_shape():
    host = new_host(1, 1, 1)
    obj = json.loads(serialize(host, "json"))
    assert obj == {"parts": [1, 1, 1], "edges": [[1, 1, 2, 1], [1, 1, 3, 1], [2, 1, 3, 1]]}


def test_round_trip_on_random_graphs():
    rnd = random.Random(17)
    for _ in range(100):
        g = random_graph(rnd, random_sizes(rnd, max_size=5), density=rnd.random())
        for fmt in ("json", "edges"):
            assert deserialize(serialize(g, fmt)) == g


def test_serialization_deterministic():
    rnd = random.Random(23)
    g = random_graph(rnd, (4, 3, 2))
    assert serialize(g, "json") == serialize(g, "json")
    assert serialize(g, "edges") == serialize(g, "edges")


@pytest.mark.parametrize("data,fragment", [
    (b"", "unrecognized"),
    (b"tripartite 1 1\n", "line 1"),
    (b"tripartite 1 1 x\n", "line 1"),
    (b"tripartite 1_0 2 2\n", "line 1"),                 # int() would read 10
    (b"tripartite +1 1 1\n", "line 1"),
    (b"tripartite 1 1 1\n+1 1 2 0_1\n", "line 2"),
    (b"tripartite 1 1 1\n1 1 2\n", "line 2"),
    (b"tripartite 1 1 1\n1 1 1 1\n", "line 2"),          # same-part pair
    (b"tripartite 1 1 1\n1 1 2 1\n1 1 2 1\n", "line 3"),  # duplicate edge
    (b"tripartite 1 1 1\n1 2 2 1\n", "line 2"),           # index out of range
    (b'{"parts": [1, 1]}', "parts"),
    (b'{"parts": [1, 1, 1], "edges": [[1, 1, 2]]}', "edges[0]"),
    (b'{"parts": [1, 1, 1], "edges": [[1, 1, 2, 1]], "foo": 1}', "unknown"),
    (b'{"parts": [1, 1, 1], "edges": ', "line 1"),         # truncated JSON
    (b'{"parts":[true,true,true],"edges":[[1,true,2,1]]}', "parts"),  # JSON booleans
    (b'{"parts":[1,1,1],"edges":[[1,true,2,1]]}', "edges[0]"),
])
def test_malformed_inputs_carry_position(data, fragment):
    with pytest.raises(FormatError) as err:
        deserialize(data)
    assert fragment in str(err.value)


def test_unknown_format_rejected():
    with pytest.raises(FormatError):
        serialize(new_host(1, 1, 1), "graph6")
