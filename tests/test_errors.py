import inspect
import pickle

from svosim import errors

# constructor arguments, with every field set, for each exception class
EXAMPLES = {
    errors.InvalidParameterError: (("bad value",), {}),
    errors.CollisionError: (("gap closed",), {"step": 3, "vehicle": "hv0"}),
    errors.SimulationError: (("non-finite state",), {"step": 7}),
    errors.FitDivergenceError: (("diverged",),
                                {"iteration": 1, "weights": [1.0, 0.5],
                                 "mismatch": [2.0, -0.25]}),
    errors.TraceParseError: (("bad row",), {"line": 12}),
    errors.QpInfeasibleError: (("incompatible rows",),
                               {"u": [0.5, -1.0], "iterations": 4}),
}


def test_every_error_survives_pickle():
    # sweep workers hand exceptions back to their parent by pickling
    defined = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception)
               and cls.__module__ == errors.__name__}
    assert defined == set(EXAMPLES)
    for cls, (args, kwargs) in EXAMPLES.items():
        exc = cls(*args, **kwargs)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert back.args == exc.args
        assert vars(back) == vars(exc) == kwargs
