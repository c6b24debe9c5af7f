import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path.stem for path in (ROOT / "src" / "starsmm").glob("*.py") if path.stem != "__init__")


def _fresh_stdout(code: str, **env_vars: str) -> str:
    """What a fresh interpreter prints for ``code`` (OPENBLAS_NUM_THREADS unset unless given)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _blas_threads(code: str, **env_vars: str) -> str:
    """OPENBLAS_NUM_THREADS as a fresh interpreter sees it after running ``code``."""
    code += "; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    return _fresh_stdout(code, **env_vars)


@pytest.mark.parametrize(
    "code,env_vars,expected",
    [
        ("import starsmm.cli", {}, "1"),
        ("import starsmm", {"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ("import numpy, starsmm", {}, "None"),
    ],
    ids=["default", "user-set", "numpy-first"],
)
def test_import_limits_the_blas_pool_unless_numpy_came_first(code, env_vars, expected):
    assert _blas_threads(code, **env_vars) == expected


def test_readme_layout_lists_exactly_the_modules():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `starsmm\.(\w+)` \|", layout, flags=re.MULTILINE)
    assert sorted(listed) == MODULES


def _resolves(namespace, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(namespace, part):
            return False
        namespace = getattr(namespace, part)
    return True


def test_library_names_cited_in_the_docs_exist():
    # README's `mod.name` spans (`cli.py` is a file), and the :func:/:class:/:mod:
    # targets in the sources, read in their own module or from the package
    package = importlib.import_module("starsmm")
    modules = {name: importlib.import_module(f"starsmm.{name}") for name in MODULES}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = re.findall(rf"`(?:starsmm\.)?({'|'.join(MODULES)})\.(?!py`)(\w+)", readme)
    assert cited
    missing = [f"README.md: {mod}.{name}" for mod, name in cited if not hasattr(modules[mod], name)]
    for name, module in modules.items():
        source = (ROOT / "src" / "starsmm" / f"{name}.py").read_text(encoding="utf-8")
        for target in re.findall(r":(?:func|class|mod):`([\w.]+)`", source):
            dotted = target.removeprefix("starsmm.")
            if not any(_resolves(namespace, dotted) for namespace in (module, package)):
                missing.append(f"{name}.py: {target}")
    assert missing == []


def test_cli_import_leaves_out_the_oracle_checks():
    # only the verify command imports starsmm.verify, so the other commands never compile it
    code = "import sys, starsmm.cli; print('starsmm.verify' in sys.modules)"
    assert _fresh_stdout(code) == "False"
