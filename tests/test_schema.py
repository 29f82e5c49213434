"""The declarative checker in ``simfarm.schema``: what each rule takes and how a failure reads."""

import math

import numpy as np
import pytest

from simfarm.errors import ConfigurationError
from simfarm.models.state import array
from simfarm.schema import (
    BOOL,
    NULL,
    TEXT,
    check,
    either,
    integer,
    list_of,
    obj,
    one_of,
    real,
    tagged,
)

DOC = obj({"n": integer(ge=1), "rows": array(np.float64, 2)},
          {"mode": tagged("kind", {"a": obj({"kind": TEXT, "x": real()}),
                                   "b": obj({"kind": TEXT})}),
           "sizes": either(integer(ge=1), list_of(integer(ge=1), 1, 2)),
           "flag": BOOL, "maybe": either(NULL, TEXT), "pick": one_of("u", "v")})


def message(doc):
    with pytest.raises(ConfigurationError) as exc:
        check(doc, DOC, ConfigurationError, "test doc")
    return str(exc.value)


def test_a_sound_document_comes_back_converted():
    got = check({"n": 2, "rows": [[1, 2.5], [3, math.nan]], "sizes": (4, 5), "flag": False,
                 "mode": {"kind": "a", "x": 1}, "maybe": None, "pick": "v"},
                DOC, ConfigurationError, "test doc")
    assert got["rows"].dtype == np.float64 and got["rows"].shape == (2, 2)
    assert got["sizes"] == [4, 5] and got["mode"] == {"kind": "a", "x": 1.0}


@pytest.mark.parametrize("doc, text", [
    ([1], "test doc must be an object, got [1]"),
    ({"rows": [[1.0]]}, "test doc missing key 'n'"),
    ({"n": 1, "rows": [[1.0]], "extra": 0}, "test doc unknown key 'extra'"),
    ({"n": True, "rows": [[1.0]]}, "test doc 'n' must be an integer, got True"),
    ({"n": 0, "rows": [[1.0]]}, "test doc 'n' must be >= 1, got 0"),
    ({"n": 1, "rows": [[1.0, 2.0], [3.0, "x"]]}, "'rows[1][1]' must be a number, got 'x'"),
    ({"n": 1, "rows": [[1.0, 2.0], [3.0]]}, "'rows[1]' must be a list of 2 items like the other"),
    ({"n": 1, "rows": [[], [1.0, 2.0], [3.0, 4.0]]}, "'rows[0]' must be a list of 2 items like"),
    ({"n": 1, "rows": [1.0, 2.0]}, "'rows[0]' must be a list, got 1.0"),
    ({"n": 1, "rows": [[10**400]]}, "'rows[0][0]' is too large for a float"),
    ({"n": 1, "rows": [[1.0]], "mode": {"kind": "c"}}, "'mode.kind' must be one of 'a', 'b'"),
    ({"n": 1, "rows": [[1.0]], "mode": {"kind": "a", "x": math.inf}},
     "'mode.x' must be a finite real number, got inf"),
    ({"n": 1, "rows": [[1.0]], "sizes": "x"},
     "'sizes' must be an integer or a list, got 'x'"),
    ({"n": 1, "rows": [[1.0]], "sizes": [1, 0]}, "'sizes[1]' must be >= 1, got 0"),
    ({"n": 1, "rows": [[1.0]], "sizes": [1, 2, 3]}, "'sizes' must be a list of 1 to 2 items"),
    ({"n": 1, "rows": [[1.0]], "flag": 1}, "'flag' must be a bool, got 1"),
    ({"n": 1, "rows": [[1.0]], "maybe": 3}, "'maybe' must be None or a string, got 3"),
    ({"n": 1, "rows": [[1.0]], "pick": "w"}, "'pick' must be 'u' or 'v', got 'w'"),
])
def test_a_failure_names_the_document_and_the_path(doc, text):
    assert text in message(doc)


def test_real_refuses_an_int_past_the_float_range_as_not_finite():
    with pytest.raises(ConfigurationError, match="must be a finite real number, got 1000"):
        check(10**400, real(), ConfigurationError, "x")
    assert check(4.0, real(whole=True), ConfigurationError, "x") == 4
