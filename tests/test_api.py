import inspect

import hytet


def _public_functions():
    return [
        (name, obj) for name in hytet.__all__
        if inspect.isfunction(obj := getattr(hytet, name))
    ]


def test_no_public_function_takes_a_tolerance_override():
    # every module reads the one set of constants in hytet.config, so no
    # parameter names a tolerance: neither tol nor quad_tol nor any other
    functions = _public_functions()
    assert functions
    takes_tol = [(name, param) for name, fn in functions
                 for param in inspect.signature(fn).parameters if "tol" in param]
    assert takes_tol == []


def test_lobachevsky_takes_only_its_argument():
    assert list(inspect.signature(hytet.lobachevsky).parameters) == ["x"]
