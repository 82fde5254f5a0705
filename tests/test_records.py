"""The value types' contract: constructors, validation messages, immutability,
equality and hashing, and 2J stored as an int."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import qnd_povm
from qnd_povm.analysis import (DensityMatrix, ParityCase, ParityPattern, SqueezingReport,
                               WignerGrid, density_from_state)
from qnd_povm.approx import GaussianModel, ProjectiveParams
from qnd_povm.config import ExperimentConfig
from qnd_povm.errors import DomainError
from qnd_povm.povm import OutcomeDistribution, PhotonOutcome, QndParams
from qnd_povm.spin_state import CollectiveState, SpinMoments

# each type, its constructor's parameters in order, and a valid argument list
TYPES = [
    (QndParams, ("gamma", "chi", "gt"), (5.1, 5.0 + 1j, 0.25)),
    (PhotonOutcome, ("n_c", "n_d"), (3, 4)),
    (OutcomeDistribution, ("n_c", "n_d", "p", "cutoff_total", "captured_mass"),
     ([0, 1], [1, 0], [0.5, 0.5], 1, 0.9)),
    (CollectiveState, ("two_j", "amps"), (2, [1.0, 0.0, 0.0])),
    (SpinMoments, ("mean_jx", "mean_jz", "var_jz", "normalized_var"), (0.5, 0.0, 0.25, 0.0625)),
    (ExperimentConfig, ("command", "raw"), ("validate", {"seed": 3})),
    (DensityMatrix, ("two_j", "rho"), (1, np.eye(2) / 2.0)),
    (WignerGrid, ("thetas", "phis", "values"), (np.zeros(2), np.zeros(3), np.zeros((2, 3)))),
    (SqueezingReport, ("var_prior", "var_post", "ratio"), (2.0, 1.0, 0.5)),
    (ParityPattern, ("case", "support", "log_on_support", "max_off_support_ratio", "strict"),
     (ParityCase.BOTH_PORTS, (0, 2), -1.5, 0.0, True)),
    (GaussianModel, ("m0", "sigma2", "log_prefactor"), (0.5, 2.0, -3.0)),
    (ProjectiveParams, ("u", "v", "m0", "xi_plus", "xi_minus", "xi_c", "xi_d"),
     (25.0, 0.5, 0.1, 0.0, 0.0, 0.5, 0.5)),
]
IDS = [t[0].__name__ for t in TYPES]


@pytest.mark.parametrize("cls, names, args", TYPES, ids=IDS)
def test_constructs_positionally_and_by_keyword(cls, names, args):
    assert tuple(inspect.signature(cls).parameters) == names
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert repr(by_position) == repr(by_keyword)
    assert repr(by_position).startswith(f"{cls.__name__}({names[0]}=")
    for name in names:
        assert np.array_equal(getattr(by_position, name), getattr(by_keyword, name))


def test_experiment_config_raw_defaults_to_an_empty_dict():
    assert ExperimentConfig("validate").raw == {}


@pytest.mark.parametrize("cls, names, args", TYPES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(cls, names, args):
    value = cls(*args)
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)
        getattr(value, name)


def test_cached_views_still_cache():
    dist = OutcomeDistribution([0, 1], [1, 0], [0.25, 0.75], 1, 1.0)
    assert dist.entries is dist.entries
    assert dist.entries == ((PhotonOutcome(0, 1), 0.25), (PhotonOutcome(1, 0), 0.75))
    dm = DensityMatrix(1, np.eye(2) / 2.0)
    assert dm.multipoles is dm.multipoles


def test_outcomes_and_params_compare_and_hash_by_value():
    a, b, c = PhotonOutcome(2, 3), PhotonOutcome(2.0, np.int64(3)), PhotonOutcome(3, 2)
    assert a == b and hash(a) == hash(b)
    assert a != c and len({a, b, c}) == 2
    assert a != (2, 3)
    p, q = QndParams(5, 5.0, 0.25), QndParams(5.0 + 0j, 5, np.float64(0.25))
    assert p == q and hash(p) == hash(q)
    assert p != QndParams(5, 5, 0.5) and len({p, q, QndParams(5, 5, 0.5)}) == 2
    assert {p: 1}[q] == 1


def _messages(cls, cases):
    out = []
    for args in cases:
        with pytest.raises(DomainError) as exc:
            cls(*args)
        out.append(str(exc.value))
    return out


def test_validation_messages_are_unchanged():
    assert _messages(QndParams, [(math.nan, 1.0, 0.1), (1.0, 1.0, math.inf), (0.0, 1.0, 0.1),
                                 (1e200, 1e200, 0.1), (1e-160, 1e-160, 0.1)]) == [
        "non-finite measurement parameters", "non-finite measurement parameters",
        "both light amplitudes must be nonzero", "|gamma|^2 + |chi|^2 overflows a double",
        "|gamma|^2 + |chi|^2 underflows a double"]
    assert _messages(PhotonOutcome, [(-1, 0), (2.0**53, 0), (1.5, 0), (math.nan, 0)]) == [
        "photon counts must be non-negative", "photon counts must be below 2^53",
        "photon counts must be integers", "photon counts must be integers"]
    assert _messages(CollectiveState, [(-2, []), (2, [1, 0]), (1, [1, math.nan])]) == [
        "negative total spin", "a state of 2J=2 needs 3 amplitudes",
        "state has non-finite amplitudes"]
    assert _messages(DensityMatrix, [(1, np.eye(3)), (1, [[math.nan, 0], [0, 1]]),
                                     (1, [[0.5, 0.1], [0.2, 0.5]]), (1, np.eye(2))]) == [
        "density matrix for 2J=1 must be 2x2", "density matrix has non-finite entries",
        "density matrix is not Hermitian", "density matrix trace must be 1"]
    assert _messages(OutcomeDistribution, [([0, 1], [1], [0.5, 0.5], 1, 1.0),
                                           ([[0]], [[0]], [[1.0]], 0, 1.0)]) == [
        "n_c, n_d and p must be 1-d arrays of one length"] * 2


def test_light_whose_bases_would_overflow_is_refused():
    # the envelope bases square |gamma| + |chi| sin(beta): past
    # |gamma| + |chi| = 1.34e154 that square overflows while s stays finite
    assert _messages(QndParams, [(6.71e153, 6.71e153, 0.1), (1e154, 3.5e153, 0.1)]) == [
        "(|gamma| + |chi|)^2 overflows a double"] * 2
    assert QndParams(6.7e153, 6.7e153, 0.1).photon_mean < math.inf


def test_no_class_of_the_package_is_a_dataclass():
    # a dataclass compiles its generated methods at every import
    names = [m.name for m in pkgutil.iter_modules(qnd_povm.__path__)]
    classes = [obj for name in names
               for obj in vars(importlib.import_module(f"qnd_povm.{name}")).values()
               if inspect.isclass(obj) and obj.__module__.startswith("qnd_povm")]
    assert len(classes) >= 12
    assert [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


# ------------------------------------------------------------------ 2J as an int

@pytest.mark.parametrize("two_j", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_integral_two_j_is_stored_as_int(two_j):
    state = CollectiveState(two_j, [1, 0, 0])
    assert type(state.two_j) is int and state.two_j == 2
    assert type(state.index_of(1)) is int and state.index_of(1) == 2
    dm = density_from_state(state)
    assert type(dm.two_j) is int
    assert dm.multipoles.shape == (3, 3)
    direct = DensityMatrix(two_j=two_j, rho=np.diag([1.0, 0.0, 0.0]))
    assert type(direct.two_j) is int
    assert np.array_equal(direct.multipoles, dm.multipoles)


def test_two_j_four_as_numpy_float():
    assert CollectiveState(np.float64(4.0), np.ones(5)).two_j == 4


@pytest.mark.parametrize("two_j, message", [
    (2.5, "2J=2.5 is not an integer"),
    (math.nan, "2J=nan is not an integer"),
    (math.inf, "2J=inf is not an integer"),
    (np.float64(2.5), "2J=2.5 is not an integer"),
    (-1, "negative total spin"),
    (-2.0, "negative total spin"),
    (-math.inf, "negative total spin"),
])
def test_non_integral_or_negative_two_j_is_a_domain_error(two_j, message):
    for build in (lambda: CollectiveState(two_j, [1, 0, 0]),
                  lambda: DensityMatrix(two_j, np.diag([1.0, 0.0, 0.0]))):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message
