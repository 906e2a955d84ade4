"""numpy, loaded when a command first touches it.

Every module of the package binds `np` from here, and none uses numpy at
import time, so `--version`, the channel Fourier bound (scalar binary
entropies) and inputs refused before any array exists run without it.
The binding must be this one object: on Python 3.11 a second `import
numpy` statement reads the module's `__spec__` and so forces the load.
"""

import importlib.util
import sys


def _lazy_module(name):
    """The module `name` when it is already imported, else one that runs
    on its first attribute access (the stdlib LazyLoader recipe). Raises
    ModuleNotFoundError, as `import name` does, when it is not installed."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")
