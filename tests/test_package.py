import importlib
import pkgutil
import re
from pathlib import Path

import scfde
from scfde.harness import CSV_HEADER, DUMP_HEADER, TRACE_HEADER

REMOVED = (
    "DftOperator",
    "TimeEstimate",
    "centroids_adjust",
    "qq_correct",
    "pilot_derotate",
    "to_time_domain",
    "ofdm_time_signal",
    "apply_channel",
    "CORRECTION_MODES",
    "_FLAG_FIELDS",
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


def test_readme_headers_match_the_csv_schemas():
    # every README line or `span` that starts like a schema header is one
    text = (Path(__file__).parents[1] / "README.md").read_text()
    candidates = set(text.splitlines()) | set(re.findall(r"`([^`\n]+)`", text))
    for header in (CSV_HEADER, DUMP_HEADER, TRACE_HEADER):
        prefix = ",".join(header.split(",")[:3]) + ","
        documented = {c for c in candidates if c.startswith(prefix)}
        assert documented == {header}, documented
