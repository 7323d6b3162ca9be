import importlib
import pkgutil

import scfde

REMOVED = (
    "DftOperator",
    "TimeEstimate",
    "centroids_adjust",
    "qq_correct",
    "pilot_derotate",
    "to_time_domain",
    "ofdm_time_signal",
    "apply_channel",
)


def submodules():
    return [
        importlib.import_module(f"scfde.{info.name}")
        for info in pkgutil.iter_modules(scfde.__path__)
    ]


def test_public_names_unique_and_resolvable():
    assert len(scfde.__all__) == len(set(scfde.__all__))
    for name in scfde.__all__:
        assert getattr(scfde, name) is not None, name


def test_removed_names_are_gone():
    for module in [scfde, *submodules()]:
        leftover = [name for name in REMOVED if hasattr(module, name)]
        assert not leftover, f"{module.__name__} still defines {leftover}"
