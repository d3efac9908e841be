"""The public surface: what `lrmimo` exports, that the library never reaches
into the tests for its test oracles, and the README's library example."""

import ast
import re
from pathlib import Path

import lrmimo

ROOT = Path(__file__).resolve().parent.parent

# names the library no longer defines: merged into lr_detect, ml_detect,
# sic_detect or klr_select, deleted, or moved into tests/oracles.py (README,
# "Public surface")
GONE = {
    "lr_detect_batch", "ml_detect_batch", "sic_detect_batch", "DetectionOutput",
    "zf_filter", "zf_error_covariance", "extend_system", "mmse_filter_direct",
    "hard_slice", "_slice_index", "shift_scale_quantize", "unmap_symbols",
    "_levels_to_bits", "round_gaussian", "singular_values", "condition_number",
    "demodulate", "as_vector", "_bit_distance", "_gray_encode",
    "klr_select_with", "klr_select_extended", "identity_result",
}


def test_public_surface():
    # `from lrmimo import *` binds every exported name, and none that left
    bound = {}
    exec("from lrmimo import *", bound)
    assert [n for n in lrmimo.__all__ if n not in bound] == []
    assert GONE.isdisjoint(lrmimo.__all__)

    # no module under src/ defines a name that left, or imports from tests
    test_modules = {"tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in GONE, f"{path.name} defines {node.name}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in test_modules, (
                    f"{path.name} imports {module}"
                )

    # the README's library example runs
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library example\s*```python\n(.*?)```", readme, re.S)
    assert example is not None
    exec(compile(example.group(1), "README.md", "exec"), {})
