"""Run `redlab run <config>` in this process with spans around each layer.

Usage: python3 bench/traced.py <src-dir> <config> <spans-out.json>

Each wrapped name is replaced where its caller looks it up (a class
attribute, a module global or a registry entry), so the program itself is
unchanged.  The root span `cli` covers the whole `main()` call; its self
time is everything no wrapped function accounts for.
"""

from __future__ import annotations

import sys

from spans import SpanRecorder

# Denoiser classes by the label used in metric names.
DENOISERS = {
    "tdt": "TdtDenoiser",
    "median": "MedianFilterDenoiser",
    "nlm": "NlmDenoiser",
    "linear": "LinearSymmetricDenoiser",
}


def install(rec: SpanRecorder) -> None:
    from redlab import cli, denoisers, image, losses, operators, solvers

    image.Image.__init__ = rec.wrap("image.Image", image.Image.__init__)

    circ = operators.CircularConvolution
    circ.apply = rec.wrap("operators.circular.apply", circ.apply)
    circ.adjoint = rec.wrap("operators.circular.adjoint", circ.adjoint)
    cli.operator_matrix = rec.wrap("operators.operator_matrix", cli.operator_matrix)

    losses.QuadraticLoss.prox = rec.wrap("losses.prox", losses.QuadraticLoss.prox)

    for label, cls_name in DENOISERS.items():
        cls = getattr(denoisers, cls_name)
        cls.apply = rec.wrap(f"denoisers.{label}.apply", cls.apply)
    denoisers.haar_forward = rec.wrap("denoisers.haar_forward", denoisers.haar_forward)
    denoisers.haar_inverse = rec.wrap("denoisers.haar_inverse", denoisers.haar_inverse)

    linear = denoisers.LinearSymmetricDenoiser
    linear.local_average = classmethod(
        rec.wrap("denoisers.linear.build", linear.__dict__["local_average"].__func__)
    )
    linear_apply = linear.apply

    def counted_linear_apply(self, x):
        # Computed bytes: the dense matrix plus the input and output vectors.
        rec.add("denoisers.linear.apply.bytes", self.matrix.nbytes + 2 * x.pixels.nbytes)
        return linear_apply(self, x)

    linear.apply = counted_linear_apply

    for name in ("numerical_jacobian", "numerical_gradient_rho"):
        setattr(cli, name, rec.wrap(f"diagnostics.{name}", getattr(cli, name)))
    for name in ("fp_residual", "cost_red"):
        setattr(solvers, name, rec.wrap(f"diagnostics.{name}", getattr(solvers, name)))

    solvers._Run.record = rec.wrap("solvers.record", solvers._Run.record)
    for name, fn in list(solvers.SOLVERS.items()):
        solvers.SOLVERS[name] = rec.wrap(f"solvers.{name}", fn)


def main(argv: list[str]) -> int:
    src, config, spans_out = argv
    sys.path.insert(0, src)
    from redlab import cli

    rec = SpanRecorder()
    install(rec)
    code = rec.wrap("cli", cli.main)(["run", config])
    rec.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
