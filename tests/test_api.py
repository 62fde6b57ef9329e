"""The public API: what `critpoint` exports, and how its entry points reject
a malformed argument with ParameterError (which the CLI maps to exit 2),
never a TypeError or a value."""

import math

import numpy as np
import pytest

import critpoint
from critpoint import (Circle, MobiusTransform, ParameterError, apply, circle_sup_norm,
                       critical_points, eval_S, log_minus, log_plus, sliced_w1, sliced_w1_many)
from critpoint.logderiv import as_roots, circle_abs_S
from critpoint.sampler import SeedSpec


def test_every_export_resolves_once():
    assert len(set(critpoint.__all__)) == len(critpoint.__all__)
    for name in critpoint.__all__:
        assert hasattr(critpoint, name), name


ROOTS = [0.5, -0.5j]
UNIT = Circle(0j, 1.0)
BOOL, STRING, NAN, INF = True, "8", math.nan, math.inf
SEED = SeedSpec(4, 4)
#: not integers in [0, 2**64), the range of a stream id's words
WORDS = (BOOL, STRING, NAN, INF, 1.5, -1, 2**64)

# (entry point and argument, the call with that argument set, its invalid inputs);
# inf is a valid magnitude for log^+ and log^-
ENTRY_POINTS = [
    ("as_roots", as_roots, ([True, False], "x", ["1", "2j"], [None, 1.0], [[1, 2], [3]])),
    ("critical_points roots", critical_points, ([True, False, True], ["1", "-1", "1j"])),
    ("sliced_w1 points", lambda v: sliced_w1(v, ROOTS), ([True, False], "x")),
    ("sliced_w1 directions", lambda v: sliced_w1(ROOTS, [1.0], v), (BOOL, STRING, NAN, INF)),
    ("sliced_w1_many directions", lambda v: sliced_w1_many([ROOTS], [1.0], v),
     (BOOL, STRING, NAN, INF)),
    ("circle_abs_S m", lambda v: circle_abs_S(ROOTS, UNIT, v), (BOOL, STRING, NAN, INF)),
    ("circle_sup_norm m", lambda v: circle_sup_norm(ROOTS, UNIT, v), (BOOL, STRING, NAN, INF)),
    ("Circle center", lambda v: Circle(v, 1.0), (BOOL, STRING, NAN, INF)),
    ("Circle radius", lambda v: Circle(0j, v), (BOOL, STRING, NAN, INF)),
    ("eval_S z", lambda v: eval_S(ROOTS, v), (BOOL, STRING, NAN, INF)),
    ("log_plus", log_plus, (BOOL, STRING, NAN)),
    ("log_minus", log_minus, (BOOL, STRING, NAN)),
    ("apply", lambda v: apply(MobiusTransform(1, 0, 0, 1), v), (BOOL, STRING, NAN, INF)),
    ("SeedSpec.substream purpose", lambda v: SEED.substream(v), WORDS),
    ("SeedSpec.substream index", lambda v: SEED.substream(4, v), WORDS),
    ("SeedSpec.substreams indexes", lambda v: SEED.substreams(4, v),
     (np.array([-1]), np.array([0, -1]), [2**64], np.array([1.5]), np.array([True]), ["8"],
      [NAN])),
]


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}-{bad!r}")
    for name, call, bads in ENTRY_POINTS for bad in bads])
def test_bad_argument_raises_parameter_error(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


@pytest.mark.parametrize("call", [log_plus, log_minus])
def test_log_plus_minus_reject_nan_entries(call):
    with pytest.raises(ParameterError):
        call([math.nan, 0.5])
