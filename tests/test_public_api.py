"""Every public knob has a caller.

The exported callables' defaulted parameters are pinned to the ones that
the library, its command line or its benchmark set, or that choose input
data. A new default fails here, so a new public knob is a deliberate edit
of ``DEFAULTED``. No exception constructor takes an optional parameter.
"""

import enum
import inspect

import numpy as np

import dnahm
from dnahm import errors

DEFAULTED = {
    "hermitian_eig": {"tol"},  # seed_from_triple (through positive_sqrt) sets 1e-9
    "positive_sqrt": {"tol"},  # the evolution step sets 0.0, seed_from_triple 1e-9
    "residual_scaling": {"rk_steps"},  # `continuum --steps` and the benchmark's smoke mode
    "random_skew_triple": {"scale"},  # input data
    "euler_top_triple": {"f"},  # input data
    "evolve": {"backward"},  # `evolve --backward`
    "BAChain": {"origin"},
    "DNChain": {"origin"},
    "StepOutcome": {"produced"},  # None exactly at a breakdown
}


def _defaulted(obj) -> set[str]:
    params = inspect.signature(obj).parameters.values()
    return {p.name for p in params if p.default is not inspect.Parameter.empty}


def _exported_callables():
    """dnahm's own exported functions and classes: not numpy's ndarray
    (the CMatrix alias), an Enum's functional API or an exception."""
    for name, obj in sorted(vars(dnahm).items()):
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if obj is np.ndarray or (inspect.isclass(obj) and issubclass(obj, (enum.Enum, Exception))):
            continue
        yield name, obj


def test_defaulted_parameters_are_the_allowed_ones():
    found = {name: d for name, obj in _exported_callables() if (d := _defaulted(obj))}
    assert found == DEFAULTED


def test_exception_constructors_take_no_optional_parameter():
    classes = [
        obj for obj in vars(errors).values()
        if inspect.isclass(obj) and issubclass(obj, errors.DnahmError)
    ]
    # the classes that carry a diagnostic attribute define their own __init__;
    # the rest take Exception's message
    inits = {cls.__name__: cls.__init__ for cls in classes if inspect.isfunction(cls.__init__)}
    assert set(inits) >= {"NotHermitian", "NotPositiveDefinite", "Singular", "SingularGamma",
                          "NotRealityCompatible", "FlowBlowUp"}
    assert {name: d for name, init in inits.items() if (d := _defaulted(init))} == {}


def test_inverse_is_not_exported():
    # require_invertible followed by np.linalg.inv is written at each caller
    assert not hasattr(dnahm, "inverse") and not hasattr(dnahm.linalg, "inverse")


def test_chains_have_no_per_index_accessors():
    # the library indexes the stacks; lax checks the link index itself
    assert not hasattr(dnahm.DNChain, "site") and not hasattr(dnahm.DNChain, "link")


def test_chain_sized_results_are_arrays():
    # a trajectory is its nodes array; a stack of site triples gives one grid array
    assert not hasattr(dnahm.NahmTrajectory, "states")
    z = np.zeros((3, 2, 2))
    c = dnahm.char_surface(z, z, z)
    assert type(c) is np.ndarray and c.shape == (3, 3, 3)
