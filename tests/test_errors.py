import importlib
import inspect
import pickle
import pkgutil

import stretchgrid
from stretchgrid import _threads, bench, fdm, gridgen, instruments, placement


# One instance of every exception class the package defines.
ERRORS = [
    fdm.SingularSystemError(19, "fdm: cannot eliminate the 3-point ghost row 20"),
    fdm.SingularSystemError(7),
    fdm.NonFiniteValueError(7, 0.25),
    _threads.LostPartError("fdm-march", 1, -9),
    bench.ConfigError("sweep.space_steps: expected integers"),
    bench.PricingError("plain, I = 32: failed"),
    gridgen.GridConstructionError("need at least two nodes"),
    instruments.ContractError("strike must be positive"),
    placement.PlacementError("target outside the grid"),
]


def test_every_error_class_of_the_package_is_listed():
    defined = set()
    for info in pkgutil.iter_modules(stretchgrid.__path__):
        module = importlib.import_module(f"stretchgrid.{info.name}")
        defined |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert defined == {type(exc) for exc in ERRORS}


def test_every_error_survives_pickling():
    # A forked part of ``fdm.march`` sends its blocks' errors back pickled.
    for exc in ERRORS:
        got = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        assert type(got) is type(exc)
        assert str(got) == str(exc)
        assert got.args == exc.args
        assert vars(got) == vars(exc)
