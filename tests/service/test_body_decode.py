"""Decoding request bodies: the native matrix reader against the stdlib.

:func:`repro.service.router.decode_body` hands every JSON array of a
body to the compiled reader first; a rectangular array of numbers comes
back as a float64 ndarray.  Each value must be bit-identical to
``np.asarray(json.loads(body)..., dtype=np.float64)`` whatever way the
number was written, and every array the reader declines must decode (or
fail) exactly as :func:`json.loads` makes it, so a body's digest, job id
and response status never depend on which path read it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bench.runner import paper_mining_parameters
from repro.core import _runs
from repro.datasets.synthetic import make_synthetic_dataset
from repro.matrix.summary import matrix_digest
from repro.service import router as routing
from repro.service.jobs import parameters_to_dict
from repro.service.service import MiningService

PARAMETERS = {
    "min_genes": 3, "min_conditions": 2, "gamma": 0.1, "epsilon": 0.1,
}


def rows(values, number):
    """A 2-D array as JSON text, each value written by ``number``."""
    return "[" + ", ".join(
        "[" + ",".join(number(value) for value in row) + "]"
        for row in values
    ) + "]"


#: The ways a client may write a float64: Python's shortest repr (what
#: ``json.dumps`` sends), 17 significant digits (round-trips), 15 (does
#: not: the reader must round the decimal itself), ``%e``, and the
#: integer part as an integer literal.
WRITERS = {
    "json.dumps": lambda values: json.dumps(values.tolist()),
    "%.17g": lambda values: rows(values, lambda v: "%.17g" % v),
    "%.15g": lambda values: rows(values, lambda v: "%.15g" % v),
    "%e": lambda values: rows(values, lambda v: "%e" % v),
    "integers": lambda values: rows(values, lambda v: str(int(v))),
}


def body_of(values_text, gene_names=None):
    """A ``POST /jobs`` body whose matrix ``values`` are ``values_text``."""
    names = "" if gene_names is None else (
        ', "gene_names": ' + json.dumps(gene_names, ensure_ascii=False)
    )
    return (
        '{"matrix": {"values": ' + values_text + names + '}, '
        '"parameters": ' + json.dumps(PARAMETERS) + "}"
    ).encode("utf-8")


def stdlib(text):
    return np.asarray(json.loads(text), dtype=np.float64)


def decoded(text):
    """The ``values`` the router decodes from a body holding ``text``."""
    return routing.decode_body(body_of(text))["matrix"]["values"]


def assert_bits_equal(got, expected):
    got = np.asarray(got, dtype=np.float64)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@st.composite
def finite_matrices(draw):
    """Float64 matrices over the whole finite bit-pattern range:
    subnormals, zeros of both signs, the largest finite values."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    values = draw(arrays(np.uint64, shape)).view(np.float64).copy()
    values[~np.isfinite(values)] = 0.0
    return values


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(values=finite_matrices(), writer=st.sampled_from(sorted(WRITERS)))
    def test_values_match_the_stdlib_bit_for_bit(self, values, writer):
        text = WRITERS[writer](values)
        assert_bits_equal(decoded(text), stdlib(text))

    @settings(max_examples=100, deadline=None)
    @given(values=finite_matrices())
    def test_full_precision_reprs_are_read_natively(self, values):
        # strtod flags results below the normal range, which the reader
        # leaves to the stdlib; everything else it reads itself.
        values[np.abs(values) < 1e-300] = 0.0
        text = json.dumps(values.tolist())
        got = decoded(text)
        assert isinstance(got, np.ndarray)
        assert_bits_equal(got, stdlib(text))

    @settings(max_examples=100, deadline=None)
    @given(
        values=arrays(
            np.int64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.integers(-(10**15) + 1, 10**15 - 1),
        ),
    )
    def test_integer_literals_are_read_natively(self, values):
        text = json.dumps(values.tolist())
        got = decoded(text)
        assert isinstance(got, np.ndarray)
        assert_bits_equal(got, stdlib(text))

    @pytest.mark.parametrize(
        "number",
        [
            # the one multiply or divide: significands up to 2^53 and
            # powers of ten within +-22; strtod past either (where one
            # operation would round twice: 2.95...e-2, 1e23, 5e-23)
            "9007199254740992.0", "9007199254740993.0",
            "9007199254740992e-22", "9007199254740993e22",
            "29514929935856118e-18", "1e22", "1e23", "1e-22", "1e-23",
            "5e-23", "123456789012345.6", "0.1", "-0.0", "-0e5",
            "0e999999999", "1e-999999999999", "1.7976931348623157e308",
            "2.2250738585072014e-308", "12345678901234567890e-30",
            "0.00000000000000000000000000000001",
        ],
    )
    def test_literals_around_the_fast_case(self, number):
        text = f"[[{number}, 1.5]]"
        assert_bits_equal(decoded(text), stdlib(text))

    def test_json_whitespace_between_tokens(self):
        text = json.dumps([[1.5, -2], [3e-7, 4.25]], indent="\t ")
        got = decoded(text.replace("\n", "\r\n"))
        assert isinstance(got, np.ndarray)
        assert_bits_equal(got, stdlib(text))


#: Bodies whose arrays the reader declines or that are no JSON.
CORPUS = {
    **{
        name: body_of(text)
        for name, text in {
            "ragged": "[[1,2],[3]]",
            "leading zero": "[[01]]",
            "bare point": "[[1.]]",
            "no integer part": "[[.5]]",
            "plus sign": "[[+1]]",
            "trailing comma": "[[1,]]",
            "empty row": "[[]]",
            "empty array": "[]",
            "third level": "[[[1]]]",
            "NaN": "[[NaN]]",
            "overflow": "[[1e400]]",
            "subnormal": "[[5e-324]]",
            "16-digit integer": "[[9007199254740993]]",
            "minus zero integer": "[[-0]]",
            "strings": '[["1", "2"]]',
            "1-D": "[1, 2]",
        }.items()
    },
    "non-ASCII gene name": body_of("[[1.5, 2.5]]", ["géne"]),
    "not JSON": b'{"matrix": [[1, 2]',
}


def comparable(value):
    """``value`` with every 2-D numeric array, list or ndarray, as its
    float64 bit patterns, and NaN as a string."""
    if isinstance(value, dict):
        return {key: comparable(item) for key, item in value.items()}
    if isinstance(value, (list, np.ndarray)):
        try:
            array = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            array = None
        if array is not None and array.ndim == 2 and array.size:
            return array.view(np.uint64).tolist()
        return [comparable(item) for item in value]
    return "NaN" if value != value else value


def outcome(decode, body):
    """What ``decode`` makes of ``body``: a comparable value, or the
    type of the exception it raised."""
    try:
        return comparable(decode(body))
    except ValueError as error:  # JSONDecodeError and UnicodeDecodeError
        return type(error)


def json_loads(body):
    return json.loads(body.decode("utf-8"))


def post(store, body):
    """``POST /jobs`` on a fresh service: the status, and the error or
    the job's id and matrix digest."""
    router = routing.ServiceRouter(MiningService(store))
    response = router.handle(routing.Request("POST", "/jobs", body=body))
    payload = json.loads(response.body)
    if "job" in payload:
        return response.status, payload["job"]["job_id"], (
            payload["job"]["matrix_digest"]
        )
    return response.status, payload["error"]


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_same_value_or_error_as_the_stdlib(self, name):
        body = CORPUS[name]
        assert outcome(routing.decode_body, body) == outcome(json_loads, body)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_same_response_with_and_without_the_reader(
        self, name, tmp_path, monkeypatch
    ):
        body = CORPUS[name]
        native = post(tmp_path / "native", body)
        monkeypatch.setattr(routing, "json_matrix_reader", lambda: None)
        assert post(tmp_path / "stdlib", body) == native

    def test_rectangular_rows_arrive_as_float64(self):
        payload = routing.decode_body(body_of("[[1, 2.5], [-0, 4e1]]"))
        values = payload["matrix"]["values"]
        assert isinstance(values, np.ndarray)
        assert_bits_equal(values, np.array([[1.0, 2.5], [0.0, 40.0]]))
        assert payload["parameters"] == PARAMETERS

    def test_non_ascii_body_takes_the_stdlib(self):
        body = CORPUS["non-ASCII gene name"]
        payload = routing.decode_body(body)
        assert payload == json_loads(body)
        assert isinstance(payload["matrix"]["values"], list)

    def test_without_a_compiler_json_loads_decodes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            _runs, "_cache_dirs", lambda: (tmp_path / "cache",)
        )
        monkeypatch.setattr(_runs, "_COMPILER", ("false",))
        monkeypatch.setattr(_runs, "_loader", _runs._Loader())
        with pytest.warns(RuntimeWarning, match="decoded with json.loads"):
            assert _runs.json_matrix_reader() is None
        for name, body in CORPUS.items():
            assert outcome(routing.decode_body, body) == outcome(
                json_loads, body
            ), name
        body = body_of("[[1, 2.5], [3, 4]]")
        assert routing.decode_body(body) == json_loads(body)


def test_posted_fig7_body_records_the_clients_digest(tmp_path):
    # Fig. 7 generator values are full-precision reprs of up to 17
    # digits: many take strtod rather than the one-operation case.
    matrix = make_synthetic_dataset(
        n_genes=300, n_conditions=12, n_clusters=30, seed=9
    ).matrix
    body = json.dumps({
        "matrix": {"values": matrix.values.tolist()},
        "parameters": parameters_to_dict(paper_mining_parameters(300)),
    }).encode("ascii")
    values = routing.decode_body(body)["matrix"]["values"]
    assert isinstance(values, np.ndarray)
    assert_bits_equal(values, matrix.values)
    status, __, digest = post(tmp_path, body)
    assert status == 202
    assert digest == matrix_digest(matrix)
