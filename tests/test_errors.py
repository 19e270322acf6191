"""Package errors survive pickling, so worker processes can send them back,
and one helper owns the positive-parameter rule."""

import math
import pickle
import re
from pathlib import Path

import pytest

from redlab import errors
from redlab.errors import RedlabError

INSTANCES = [
    errors.RedlabError("base"),
    errors.ShapeError("shapes (2, 2) and (3, 3) differ"),
    errors.DomainError("variance must be >= 0"),
    errors.ConfigError("[solver] l: must be > 0, got -1.0"),
    errors.PgmParseError("truncated payload", offset=17),
    errors.UnsupportedFormatError("16-bit PGM"),
    errors.DegenerateInputError("Jacobian estimate is identically zero"),
    errors.DivergenceError(iteration=3, norm=2.5e9, bound=1e7),
    errors.NonConvergenceError(residual=0.5, maxiter=10),
]


def test_every_error_class_is_covered():
    assert {type(e) for e in INSTANCES} == {RedlabError, *RedlabError.__subclasses__()}


@pytest.mark.parametrize("error", INSTANCES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(error):
    restored = pickle.loads(pickle.dumps(error))
    assert type(restored) is type(error)
    assert str(restored) == str(error)
    assert restored.args == error.args
    assert vars(restored) == vars(error)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf], ids=str)
def test_positive_rejects_a_value_that_is_not_finite_and_positive(value):
    with pytest.raises(errors.ConfigError,
                       match=re.escape(f"weight must be finite and > 0, got {value}")):
        errors._positive("weight", value)


def test_positive_returns_the_value_as_a_float():
    assert type(errors._positive("weight", 2)) is float
    assert errors._positive("weight", 2) == 2.0


def test_only_the_errors_module_states_the_positive_parameter_rule():
    """Every other library guard calls errors._positive, so the rule and its
    message have one owner."""
    package = Path(errors.__file__).parent
    stating = [path.name for path in sorted(package.glob("*.py"))
               if "must be finite and > 0" in path.read_text()]
    assert stating == ["errors.py"]
