"""Package errors survive pickling, so worker processes can send them back."""

import pickle

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
