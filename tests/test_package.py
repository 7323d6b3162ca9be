import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scfde
from conftest import THREAD_VARS
from scfde.constellation import Constellation
from scfde.harness import CSV_HEADER, DUMP_HEADER, TRACE_HEADER, SimulationConfig

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
    "Frame",
    "ChannelRealization",
    "TrialRecord",
    "_mode_alpha",
    "_trial_task",
    "_trace_task",
    "_CACHE",
    "_decide",
    "__all__",
    "dft_row_energies",
    "_toeplitz_tables",
    "PowerDelayProfile",
    "_mode_scale",
    "_BLIND_MODE",
    "top_left_singular_vector",
    "check_ber_monotonicity",
    "MONOTONICITY_STEP_DB",
    "corner",
    "quadrant_centroid",
    "parse_int_list",
    "parse_receivers",
    "_gray_decode",
    "_pilot_qq_alpha",
    "_bracketing_indices",
    "_SWEEP_ONLY",
    "blind_config",
    "ofdm_config",
    "_PDP_RATIO",
    "_plans",
    "_TRACED",
)


def submodules():
    return [
        importlib.import_module(f"scfde.{info.name}")
        for info in pkgutil.iter_modules(scfde.__path__)
    ]


def test_leaf_modules_import_alone():
    # the package root holds only __version__, so a leaf module pulls in
    # neither the harness nor the process-pool machinery
    code = (
        "import sys, scfde.constellation, scfde.matrixkit; "
        "print(*sorted(m for m in ('scfde.harness', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    path = [str(Path(scfde.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == []


def test_removed_names_are_gone():
    for owner in [scfde, *submodules(), Constellation, SimulationConfig]:
        leftover = [name for name in REMOVED if hasattr(owner, name)]
        assert not leftover, f"{owner.__name__} still defines {leftover}"


def test_perfbench_span_targets_resolve():
    # a target the library no longer defines reads 0 in its per-layer metric
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spans: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    targets = spans["FRAME_TARGETS"] + spans["LAYER_TARGETS"]
    known_missing = {
        ("matrixkit", "DftOperator.forward"),
        ("matrixkit", "top_left_singular_vector"),
        ("harness", "check_ber_monotonicity"),
    }
    for module_name, attr, _, _ in targets:
        if (module_name, attr) in known_missing:
            continue
        owner = importlib.import_module(f"scfde.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"scfde.{module_name}.{attr}"


def test_perfbench_roster_is_the_default_selection(monkeypatch):
    # a workload whose roster equals ALL_RECEIVERS passes no --receivers, so it
    # runs the default selection: a grown default must fail here, not silently
    # change what that workload times
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.ALL_RECEIVERS == SimulationConfig().receivers


def test_readme_headers_match_the_csv_schemas():
    # every README line or `span` that starts like a schema header is one
    text = (Path(__file__).parents[1] / "README.md").read_text()
    candidates = set(text.splitlines()) | set(re.findall(r"`([^`\n]+)`", text))
    for header in (CSV_HEADER, DUMP_HEADER, TRACE_HEADER):
        prefix = ",".join(header.split(",")[:3]) + ","
        documented = {c for c in candidates if c.startswith(prefix)}
        assert documented == {header}, documented


def test_ci_workflow_scripts_parse_and_pin_the_test_threads():
    # the workflow cannot run offline, so check what can be checked without a
    # runner: every step's script parses, and the job pins the same BLAS/OpenMP
    # thread variables as conftest.py
    import yaml  # PyYAML is in the test extra: a missing module fails, not skips

    path = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    (job,) = yaml.safe_load(path.read_text())["jobs"].values()
    scripts = [step["run"] for step in job["steps"] if "run" in step]
    assert scripts
    for script in scripts:
        out = subprocess.run(
            ["bash", "-n", "-e", "-o", "pipefail", "-c", script],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
    assert job["env"] == {var: "1" for var in THREAD_VARS}
