"""The traced pass leaves the program exactly as it found it.

Run: ``python -m pytest perfbench``
"""

import sys

import perfbench.run  # noqa: F401  (puts the checkout's src on sys.path)
from perfbench.trace import Tracer


def _bindings() -> dict:
    """Every module- and class-level name of the program, by owner."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for class_attr, class_value in vars(value).items():
                    out[(value.__qualname__, class_attr)] = class_value
    return out


def test_uninstall_restores_every_patched_name():
    warm = Tracer()
    warm.install()                  # imports every module it patches
    warm.uninstall()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    patched = [key for key, value in _bindings().items()
               if before.get(key) is not value]
    tracer.uninstall()
    after = _bindings()
    assert len(patched) >= 20
    assert [key for key, value in before.items()
            if after.get(key) is not value] == []
