"""Tape operations that only the tests use: an elementwise product, for
weighting a loss by a fixed upstream gradient, and the logistic function,
for reference compositions of the fused GRU gates.  Each emits one tape
entry through `autodiff._emit` with its backward rule, as the package's
own operations do."""

from seqtag import autodiff as ad
from seqtag.autodiff import Tensor
from seqtag.errors import DimensionError


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise DimensionError(f"mul: incompatible shapes {a.values.shape} and {b.values.shape}")
    av, bv = a.values, b.values
    return ad._emit(av * bv, (a, b), lambda g, want: (g * bv if want[0] else None,
                                                      g * av if want[1] else None))


def sigmoid(a: Tensor) -> Tensor:
    out = ad._sigmoid(a.values)
    return ad._emit(out, (a,), lambda g, want: (g * out * (1.0 - out),))
