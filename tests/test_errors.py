"""Package errors survive pickling, so worker processes can send them back,
and one helper each owns the positive, non-negative, count, odd, extent and
finite rules and the probes' relative error."""

import ast
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from redlab import errors
from redlab.denoisers import (Denoiser, GmmMmseDenoiser, LinearSymmetricDenoiser,
                              MedianFilterDenoiser, NlmDenoiser, TdtDenoiser)
from redlab.diagnostics import (grad_error, grad_red_romano, lh_error_1, lh_error_2,
                                nonexpansiveness_probe, numerical_jacobian)
from redlab.equilibrium import g_red_inverse
from redlab.errors import RedlabError
from redlab.image import Image, awgn, extract_center_patch
from redlab.losses import make_uniform_blur
from redlab.operators import CircularConvolution
from redlab.scenes import diagnostic_patches, evaluation_points, synthetic_scene
from redlab.solvers import SolverConfig

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


@pytest.mark.parametrize("make", [diagnostic_patches, evaluation_points],
                         ids=lambda make: make.__name__)
@pytest.mark.parametrize("value, message", [
    (2.5, "patch size must be an integer, got 2.5"),
    (0, "patch size must be positive, got 0"),
    (True, "patch size must be an integer, got True"),
], ids=repr)
def test_a_patch_size_is_checked_before_the_scene_size_is_formed(make, value, message):
    """The error names the patch size the caller gave, not the 4 x size
    scene built from it."""
    with pytest.raises(errors.ShapeError, match=f"^{re.escape(message)}$"):
        make(count=1, size=value)


def _owners(matches) -> set[str]:
    """The top-level definitions of the package, as module.name, that hold
    an AST node for which `matches` is true."""
    owners = set()
    for path in sorted(Path(errors.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(matches(node) for node in ast.walk(top)):
                owners.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return owners


def _names(node) -> set[str]:
    """The name that a Name, an attribute or an imported alias node refers to."""
    for kind, field in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name")):
        if isinstance(node, kind):
            return {getattr(node, field)}
    return set()


def _states(words: str):
    return lambda node: (isinstance(node, ast.Constant) and isinstance(node.value, str)
                         and words in node.value)


# (rule, the AST nodes that state it, the only definitions allowed to)
RULE_OWNERS = [
    ("np.isfinite",
     lambda node: isinstance(node, ast.Attribute) and ast.unparse(node) == "np.isfinite",
     {"errors._finite"}),
    ("a bound at math.inf",
     lambda node: isinstance(node, ast.Compare)
     and any(ast.unparse(c) == "math.inf" for c in node.comparators),
     {"errors._positive", "errors._nonnegative"}),
    ("must be finite and >= 0", _states("must be finite and >= 0"), {"errors._nonnegative"}),
    ("must be odd and positive", _states("must be odd and positive"), {"errors._odd"}),
    # A squared norm v @ v: the relative error's two, and the trajectory
    # log's mean squares.
    ("v @ v",
     lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
     and ast.unparse(node.left) == ast.unparse(node.right),
     {"diagnostics._relative_error", "solvers._log_entry"}),
    # The Haar transform's power-of-two sides: the library's guard and the CLI's side rule.
    ("_is_power_of_two", lambda node: isinstance(node, ast.Name) and node.id == "_is_power_of_two",
     {"denoisers._check_haar_shape", "cli._check_side"}),
    # The probes' stacks: their budget, their chunks and the assembly of
    # the chunks' results, named (or imported) only where diagnostics uses them.
    ("the probe stacks", lambda node: _names(node) & {"_STACK_BYTES", "_chunk_tasks", "_assemble"},
     {"diagnostics.<module>", "diagnostics._chunk_tasks", "diagnostics.central_differences",
      "diagnostics._jacobian_estimates", "diagnostics.nonexpansiveness_probe"}),
]


@pytest.mark.parametrize("rule, matches, owners", RULE_OWNERS, ids=[r[0] for r in RULE_OWNERS])
def test_each_rule_is_stated_only_by_its_owner(rule, matches, owners):
    assert _owners(matches) == owners


class _Constant(Denoiser):
    """f(x) = fill everywhere, to feed a probe a non-finite output."""

    def __init__(self, fill: float):
        self.fill = fill

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        return np.full_like(xs, self.fill)


def _with(fill: float, shape: tuple[int, ...]) -> np.ndarray:
    a = np.ones(shape)
    a.flat[-1] = fill
    return a


# (class, message, the call under test): each takes the bad value.
NONNEGATIVE_CALLERS = [
    (errors.ConfigError, "threshold must be finite and >= 0, got {}", TdtDenoiser),
    (errors.DomainError, "noise variance must be finite and >= 0, got {}",
     lambda v: awgn(_SCENE, v, 0)),
    (errors.ConfigError, "scale must be finite and >= 0, got {}",
     lambda v: nonexpansiveness_probe(TdtDenoiser(25.0), 2, seed=0, scale=v)),
]
ODD_CALLERS = [
    (errors.ConfigError, "window must be odd and positive, got {}", MedianFilterDenoiser),
    (errors.ConfigError, "blur width must be odd and positive, got {}", make_uniform_blur),
]
FINITE_CALLERS = [
    (errors.DomainError, "image pixels must be finite", lambda v: Image(_with(v, (4, 4)))),
    (errors.DomainError, "image pixels must be finite",
     lambda v: TdtDenoiser(25.0).apply_stack(_with(v, (2, 4, 4)))),
    (errors.ConfigError, "centers must be finite", lambda v: GmmMmseDenoiser(_with(v, (2, 16)), 25.0)),
    (errors.ConfigError, "kernel must be finite", lambda v: CircularConvolution(_with(v, (3, 3)))),
    (errors.DomainError, "denoiser output must be finite",
     lambda v: nonexpansiveness_probe(_Constant(v), 2, seed=0)),
]
HELPER_CALLERS = (
    [(cls, message.format(value), call, value) for cls, message, call in NONNEGATIVE_CALLERS
     for value in (math.nan, math.inf, -math.inf, -1.0)]
    + [(cls, message.format(value), call, value) for cls, message, call in ODD_CALLERS
       for value in (2, 4, np.int64(2))]
    + [(cls, message, call, value) for cls, message, call in FINITE_CALLERS
       for value in (math.nan, math.inf, -math.inf)]
)


@pytest.mark.parametrize("cls, message, call, value", HELPER_CALLERS,
                         ids=[f"{row[1].split(' must')[0]}-{row[3]}" for row in HELPER_CALLERS])
def test_every_caller_of_the_nonnegative_odd_and_finite_rules_keeps_its_class_and_message(
        cls, message, call, value):
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as raised:
        call(value)
    assert type(raised.value) is cls


@pytest.mark.parametrize("cls, message, call", NONNEGATIVE_CALLERS,
                         ids=[row[1].split(" must")[0] for row in NONNEGATIVE_CALLERS])
def test_a_nonnegative_parameter_is_named_as_a_float(cls, message, call):
    with pytest.raises(cls, match=f"^{re.escape(message.format(-1.0))}$"):
        call(-1)


def test_the_helpers_return_the_converted_value():
    assert type(errors._nonnegative("scale", 0)) is float
    assert errors._nonnegative("scale", 0) == 0.0
    assert type(errors._odd("window", np.int64(3))) is int


def _reference_relative_error(estimate, reference):
    """The probes' former inline formula, operation for operation."""
    denom = float(reference @ reference)
    diff = estimate - reference
    return float(diff @ diff) / denom


@pytest.fixture(scope="module")
def probe_cases():
    """(f, x, J, f(x)) on the frozen evaluation points for TDT, median and NLM."""
    studied = [TdtDenoiser(25.0), MedianFilterDenoiser(3), NlmDenoiser(1, 5, noise_variance=625.0)]
    return [(f, x, numerical_jacobian(f, x), f.apply(x))
            for f in studied for x in evaluation_points()]


def test_the_relative_errors_equal_the_former_inline_formulas_bitwise(probe_cases):
    eps = 1e-3
    for f, x, est, fx in probe_cases:
        scaled = f.apply(Image((1.0 + eps) * x.pixels)).flat
        pairs = [
            (grad_error(grad_red_romano(f, x, fx), est.rho_gradient),
             _reference_relative_error(x.flat - fx.flat, est.rho_gradient)),
            (lh_error_1(f, x, eps, fx=fx),
             _reference_relative_error(scaled, (1.0 + eps) * fx.flat)),
            (lh_error_2(f, x, jacobian=est, fx=fx),
             _reference_relative_error(est.matrix @ x.flat, fx.flat)),
        ]
        for got, want in pairs:
            assert got.hex() == want.hex(), (type(f).__name__, got, want)


@pytest.mark.parametrize("probe, message", [
    (lambda x: grad_error(x.flat, np.zeros(x.size)), "numeric gradient is identically zero"),
    (lambda x: lh_error_1(_Constant(0.0), x), "denoiser output is identically zero"),
    (lambda x: lh_error_2(_Constant(0.0), x), "denoiser output is identically zero"),
], ids=["grad_error", "lh_error_1", "lh_error_2"])
def test_a_zero_reference_names_what_is_zero(probe, message):
    with pytest.raises(errors.DegenerateInputError, match=f"^{re.escape(message)}$"):
        probe(_SCENE)
