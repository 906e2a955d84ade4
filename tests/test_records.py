"""The package's records: immutable named tuples with a fixed field order,
fixed defaults, keyword construction, and exact pickle and deepcopy
round trips."""

import copy
import pickle

import numpy as np
import pytest

from mibounds.bounds import BoundReport, EstimationModel, PriorDensity, StateFamily
from mibounds.channels import NoisyQpeModel
from mibounds.checks import CheckResult
from mibounds.errors import ValidationError
from mibounds.figures import FigureData
from mibounds.numerics import PeriodicGridFunction
from mibounds.protocols import EntangledState, SeedPair, TwoSeedResult

PRIOR = PriorDensity.uniform(1.0, 8)
STATE = EntangledState(np.array([0.6, 0.8]))

# record, its fields in order, its defaults, and keyword arguments for
# every field it takes
RECORDS = [
    (PeriodicGridFunction, ("period", "values"), {},
     dict(period=1.0, values=np.cos(np.arange(8.0)) + 2j)),
    (PriorDensity, ("period", "values", "entropy_bits"), {},
     dict(period=2.0, values=np.linspace(0.25, 0.75, 8))),
    (StateFamily, ("period", "states"), {},
     dict(period=1.0, states=np.exp(2j * np.pi * np.arange(8.0)[:, None] / 8))),
    (EstimationModel, ("prior", "conditional"), {},
     dict(prior=PRIOR, conditional=np.full((8, 2), 0.5))),
    (BoundReport, ("method", "bound_bits", "prior_entropy_bits", "sigma2",
                   "tail_mass_bound", "flags", "history"),
     {"sigma2": None, "tail_mass_bound": None, "flags": (), "history": ()},
     dict(method="fourier", bound_bits=1.5, prior_entropy_bits=0.0, sigma2=0.1,
          tail_mass_bound=0.0, flags=("truncated_spectrum",),
          history=((1, 2.0),))),
    (NoisyQpeModel, ("kind", "n_qubits", "eta"), {},
     dict(kind="erasure", n_qubits=3, eta=0.5)),
    (EntangledState, ("coefficients",), {},
     dict(coefficients=np.array([0.6, 0.8]))),
    (SeedPair, ("state", "a", "b"), {},
     dict(state=STATE, a=np.array([1.0, 0.6]), b=np.array([0.0, 0.8j]))),
    (TwoSeedResult, ("lambda_1", "lambda_2", "mi_single", "mi_split",
                     "mi_merged", "always_ok", "fromconv_ok",
                     "wonder_violated"), {},
     dict(lambda_1=0.5, lambda_2=0.5, mi_single=1.0, mi_split=0.9,
          mi_merged=0.8, always_ok=True, fromconv_ok=True,
          wonder_violated=False)),
    (CheckResult, ("suite", "name", "passed", "detail"), {},
     dict(suite="channels", name="x", passed=True, detail="ok")),
    (FigureData, ("name", "columns", "rows", "series", "title", "x_label",
                  "y_label", "log_x"),
     {"series": (), "title": "", "x_label": "", "y_label": "", "log_x": False},
     dict(name="f", columns=("x", "y"), rows=((0.0, 1.0),),
          series=(("a", (0.0,), (1.0,)),), title="t", x_label="x",
          y_label="y", log_x=True)),
]


def same(a, b):
    """Equal values of equal types; arrays compared by dtype and bytes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("cls,fields,defaults,kwargs", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults, kwargs):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    rec = cls(**kwargs)
    assert repr(rec).startswith(f"{cls.__name__}({fields[0]}=")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict to hold it
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(twin) is cls
        assert all(same(getattr(twin, name), getattr(rec, name))
                   for name in fields)


def test_prior_density_keeps_its_computed_entropy_and_grid_helpers():
    values = np.linspace(0.25, 0.75, 8)
    prior = PriorDensity(2.0, values)
    assert prior.entropy_bits == PriorDensity(period=2.0, values=values).entropy_bits
    assert prior.n_grid == 8
    assert np.array_equal(prior.grid, np.arange(8) * 0.25)
    built = PriorDensity.from_callable(lambda phis: 0.5 + 0.0 * phis, 2.0, 8)
    assert type(built) is PriorDensity and built.entropy_bits == 1.0
    with pytest.raises(TypeError):
        PriorDensity(2.0, values, 1.0)  # entropy_bits is computed, not passed


def test_replace_validates_the_copy():
    """_replace builds through the record's checks, as dataclasses.replace
    did: a bad field is refused, and a prior recomputes its entropy."""
    model = NoisyQpeModel("erasure", 3, 0.5)
    with pytest.raises(ValidationError, match=r"eta must lie in \[0, 1\]"):
        model._replace(eta=1.5)
    with pytest.raises(ValidationError, match="n_qubits must be an integer"):
        model._replace(n_qubits=2.7)
    assert model._replace(n_qubits=np.int64(4)) == ("erasure", 4, 0.5)
    with pytest.raises(ValidationError, match="coefficients must be real"):
        STATE._replace(coefficients=np.array([0.6j, 0.8]))
    prior = PriorDensity.uniform(1.0, 8)
    assert prior._replace(period=2.0, values=np.full(8, 0.5)).entropy_bits == 1.0
    with pytest.raises(TypeError):
        prior._replace(entropy_bits=0.5)  # computed, not passed
