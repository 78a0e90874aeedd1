"""The README's Python blocks run as written, and the package exports what it lists."""

import importlib
import pkgutil
import re
from pathlib import Path

import admmgmres

ROOT = Path(__file__).resolve().parents[1]
REMOVED = ("Iterate", "affine_offset", "convergence_threshold", "KktSystem",
           "SchurPieces", "schur_pieces", "two_interval_polynomial", "disk_interval_polynomial",
           "KernelSweep", "kernel_sweep")


def modules():
    return [admmgmres] + [
        importlib.import_module(f"admmgmres.{info.name}")
        for info in pkgutil.iter_modules(admmgmres.__path__)
    ]


def test_python_blocks_run_in_order():
    # one namespace, so the second block sees the tour's names
    assert Path(admmgmres.__file__).resolve().parent == ROOT / "src" / "admmgmres"
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    star, p = namespace["star"], namespace["p"]
    assert star.shape == (p.dim,)
    assert namespace["warm"].iterations == 0


def test_exports_resolve_and_removed_names_are_gone():
    for module in modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls, name in ((admmgmres.SaddleProblem, "split_vector"),
                      (admmgmres.SaddleProblem, "zero_iterate"),
                      (admmgmres.LinearOperator, "from_matrix"),
                      # sizes are attributes set once, not properties recomputed per read
                      *((admmgmres.SaddleProblem, name) for name in ("nx", "ny", "nz", "dim"))):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    # the engine is defined in precond; admm and the package hand out the same objects
    for name in ("AdmmEngine", "make_engine"):
        assert getattr(admmgmres.admm, name) is getattr(admmgmres, name) \
            is getattr(admmgmres.precond, name), name
