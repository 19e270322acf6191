"""Package errors survive pickling, so worker processes can send them back,
and one helper each owns the positive, count and extent rules."""

import ast
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from redlab import errors
from redlab.denoisers import LinearSymmetricDenoiser, MedianFilterDenoiser, NlmDenoiser, TdtDenoiser
from redlab.equilibrium import g_red_inverse
from redlab.errors import RedlabError
from redlab.image import Image, awgn, extract_center_patch
from redlab.losses import make_uniform_blur
from redlab.scenes import diagnostic_patches, synthetic_scene
from redlab.solvers import SolverConfig, nonexpansiveness_probe

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


_SCENE = Image(np.arange(64.0).reshape(8, 8))

# (name in the message, minimum, a valid value, the call under test)
COUNT_CALLERS = [
    ("iterations", 1, 3, lambda n: SolverConfig(iterations=n)),
    ("inner_iterations", 1, 2, lambda n: SolverConfig(inner_iterations=n)),
    ("trials", 1, 3, lambda n: nonexpansiveness_probe(TdtDenoiser(25.0), n, seed=7)),
    ("maxiter", 0, 50,
     lambda n: g_red_inverse(MedianFilterDenoiser(3), 0.5, _SCENE, tol=1e-6, maxiter=n).pixels),
    ("window", 1, 3, lambda n: MedianFilterDenoiser(n).apply(_SCENE).pixels),
    ("patch radius", 0, 1,
     lambda n: NlmDenoiser(patch_radius=n, search_radius=2, bandwidth=30.0).apply(_SCENE).pixels),
    ("search radius", 0, 2,
     lambda n: NlmDenoiser(patch_radius=1, search_radius=n, bandwidth=30.0).apply(_SCENE).pixels),
    ("blur width", 1, 3, lambda n: make_uniform_blur(n).kernel),
    ("scene size", 4, 8, lambda n: synthetic_scene(0, size=n).pixels),
    ("scene index", 0, 2, lambda n: synthetic_scene(n, size=8).pixels),
    ("count", 1, 2, lambda n: [p.pixels for p in diagnostic_patches(count=n, size=4)]),
    ("seed", 0, 3, lambda n: awgn(_SCENE, 25.0, n).pixels),
    ("seed", 0, 3, lambda n: nonexpansiveness_probe(TdtDenoiser(25.0), 2, seed=n)),
]


@pytest.mark.parametrize("bad", [lambda m: 2.5, lambda m: math.nan, lambda m: True,
                                 lambda m: "5", lambda m: m - 1],
                         ids=["2.5", "nan", "True", "'5'", "minimum-1"])
@pytest.mark.parametrize("name, minimum, good, call", COUNT_CALLERS,
                         ids=[row[0] for row in COUNT_CALLERS])
def test_every_count_rejects_what_is_not_an_integer_at_least_its_minimum(
        name, minimum, good, call, bad):
    value = bad(minimum)
    message = f"{name} must be an integer >= {minimum}, got {value}"
    with pytest.raises(errors.ConfigError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("name, minimum, good, call", COUNT_CALLERS,
                         ids=[row[0] for row in COUNT_CALLERS])
def test_every_count_takes_a_numpy_integer_bitwise_as_the_python_int(name, minimum, good, call):
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


@pytest.mark.parametrize("value, message", [
    (2.5, "patch size must be an integer, got 2.5"),
    (True, "patch size must be an integer, got True"),
    (0, "patch size must be positive, got 0"),
], ids=repr)
def test_a_patch_size_that_is_not_an_extent_is_rejected(value, message):
    with pytest.raises(errors.ShapeError, match=f"^{re.escape(message)}$"):
        extract_center_patch(_SCENE, value)


@pytest.mark.parametrize("height, width, message", [
    (2.5, 2, "height must be an integer, got 2.5"),
    (5, "1", "width must be an integer, got 1"),
    (-5, -1, "height must be positive, got -5"),
], ids=repr)
def test_from_flat_rejects_a_height_or_width_that_is_not_an_extent(height, width, message):
    with pytest.raises(errors.ShapeError, match=f"^{re.escape(message)}$"):
        Image.from_flat(np.ones(5), height, width)


@pytest.mark.parametrize("shape", [(8.5, 8), (8, 0), (8,), (True, 8)], ids=str)
def test_a_linear_denoiser_shape_that_is_not_two_extents_is_rejected(shape):
    message = f"shape must be two positive integers, got {shape}"
    with pytest.raises(errors.ShapeError, match=f"^{re.escape(message)}$"):
        LinearSymmetricDenoiser(np.ones((3, 3)) / 9.0, shape)


def test_extents_take_numpy_integers():
    np.testing.assert_array_equal(extract_center_patch(_SCENE, np.int64(4)).pixels,
                                  extract_center_patch(_SCENE, 4).pixels)
    assert Image.from_flat(np.ones(6), np.int64(2), np.int64(3)).pixels.shape == (2, 3)


def test_only_the_errors_module_states_the_integer_rule():
    """Outside errors._count and errors._extent no library module tests for
    an integer type or states the rule, so it has one owner."""
    owners = set()
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                tests_integer = (getattr(func, "id", None) == "isinstance"
                                 and re.search(r"\bint\b|integer", ast.unparse(node.args[1])))
                states_rule = (isinstance(node, ast.Constant) and isinstance(node.value, str)
                               and "must be an integer" in node.value)
                if tests_integer or states_rule:
                    owners.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert owners == {"errors._count", "errors._extent"}
