"""The benchmark's tracing targets and the package's exports still name its code,
no module imports a name it never uses, no core module imports the
reference definitions and `import cmclab` does not load them, the frame
modules form 2x2 products only through the entrywise kernel, 2x2 stacks
and 4-vector grids are allocated and indexed entries first, tolerance
gates refuse NaN, the hyperboloid bound is written once, grid tables are
spelled only by the whole-array text kernel, each check name is spelled
once, in its row, and every committed benchmark record says when, how and
where it was measured."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from cmclab.report import registry_names
from cmclab.surfaces import SIDES

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# the modules of the program, the package root included; reference.py
# restates them for the tests
CORE = sorted(
    path for path in (ROOT / "src" / "cmclab").rglob("*.py") if path.name != "reference.py"
)


def test_perfbench_span_targets_resolve(monkeypatch):
    # a deleted or renamed target would break `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for _, module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert spans.TARGETS
    assert missing == []


def test_package_exports_resolve_once():
    # a name left in __all__ after its function is deleted breaks `import *`
    cmclab = importlib.import_module("cmclab")
    assert len(cmclab.__all__) == len(set(cmclab.__all__))
    assert [name for name in cmclab.__all__ if not hasattr(cmclab, name)] == []


def test_import_loads_no_reference_definitions():
    # a fresh interpreter, since this one has imported the oracles for
    # other tests: `import cmclab` loads the program only, neither the
    # reference definitions nor the `fractions` module they use, and every
    # name the root exports resolves without them
    code = (
        "import json, sys, cmclab\n"
        "print(json.dumps({\n"
        "    'loaded': [m for m in ('cmclab.reference', 'fractions') if m in sys.modules],\n"
        "    'missing': [n for n in cmclab.__all__ if not hasattr(cmclab, n)],\n"
        "}))\n"
    )
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "missing": []}


def _unused_imports(path):
    """Names `path` imports but never mentions, `__all__` entries counting."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_imports():
    files = sorted(
        path for top in ("src/cmclab", "tests", "demos") for path in (ROOT / top).rglob("*.py")
    )
    assert files
    assert [entry for path in files for entry in _unused_imports(path)] == []


def _called(path, names):
    """'file:line name' for each call in `path` of a function or method
    whose name is in `names`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in names:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_core_forms_no_shifted_frame_phase_or_distance():
    # the shifted side is the primary side turned through q, and the Hopf
    # and mean matches compare signed values: the route through FD, phases
    # and distances are reference definitions
    names = ("shift_frame", "angle", "arccosh")
    assert [entry for path in CORE for entry in _called(path, names)] == []
    assert _called(ROOT / "src" / "cmclab" / "reference.py", names) != []


def _reference_imports(path):
    """Each import in `path` of the `reference` module or of a name from it,
    in any spelling: `from .reference import x`, `from . import reference`,
    `import cmclab.reference` and the like."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("reference" in module.split(".") for module in modules):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_core_never_imports_reference():
    # the reference definitions are what the program is tested against; a
    # core module that used one would test itself by itself
    assert CORE
    assert [entry for path in CORE for entry in _reference_imports(path)] == []


def test_reference_import_lint_sees_each_form(tmp_path):
    path = tmp_path / "surfaces.py"
    path.write_text(
        "from .reference import to_hermitian\n"
        "from . import reference\n"
        "import cmclab.reference\n"
        "from cmclab.reference import from_hermitian as fh\n"
        "from . import minkowski, reference as ref\n"
        "from .minkowski import mink_dot\n"
        "import cmclab.minkowski\n"
        "from perfbench import spans\n"
    )
    assert _reference_imports(path) == [f"surfaces.py:{line}" for line in (1, 2, 3, 4, 5)]


def _products_outside_mul2(path):
    """`@` operators and `matmul`, `linalg.det`, `np.multiply` and `np.add`
    references in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.name}:{node.lineno} @")
        elif isinstance(node, ast.Attribute) and (
            node.attr == "matmul"
            or (
                node.attr == "det"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
            )
            or (
                node.attr in ("multiply", "add")
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
            )
        ):
            found.append(f"{path.name}:{node.lineno} {node.attr}")
    return found


def test_frame_products_use_the_entrywise_kernel():
    # np.matmul and np.linalg.det make one BLAS/LAPACK call per 2x2 matrix of
    # a stack; minkowski.mul2_into and det2 form every entry in whole-array
    # steps.  An entry formed by hand with np.multiply and np.add is a second
    # kernel whose operand order, and so whose bits, mul2_into no longer fixes
    files = [ROOT / "src" / "cmclab" / name for name in ("frames.py", "surfaces.py")]
    assert [entry for path in files for entry in _products_outside_mul2(path)] == []


def test_frame_product_lint_sees_each_form(tmp_path):
    path = tmp_path / "surfaces.py"
    path.write_text(
        "import numpy as np\n"
        "def f(F, G, n):\n"
        "    A = np.matmul(F, G) @ G\n"
        "    d = np.linalg.det(F)\n"
        "    e = np.add(np.multiply(F[..., 0, 0], G[..., 0, 0]), F[..., 0, 1])\n"
        "    F @= G\n"
        "    return A * d, e, mul2(F, G), det2(G), np.negative(F), n + 1\n"
    )
    assert sorted(_products_outside_mul2(path)) == [
        "surfaces.py:3 @",
        "surfaces.py:3 matmul",
        "surfaces.py:4 det",
        "surfaces.py:5 add",
        "surfaces.py:5 multiply",
        "surfaces.py:6 @",
    ]


_ALLOCATORS = {"empty", "zeros", "ones", "full"}


def _entry_count(elts):
    """How many trailing items of a tuple literal spell entry dims: 2 for
    (..., 2, 2), 1 for (..., 4), else 0."""
    tail = [e.value if isinstance(e, ast.Constant) else None for e in elts]
    return 2 if tail[-2:] == [2, 2] else 1 if tail[-1:] == [4] else 0


def _entries_last(node):
    """Whether `node` spells a shape whose entry dims come after grid dims:
    a tuple literal such as (n, n, 2, 2) or (n, n, 4), or a sum such as
    shape + (2, 2) or shape + (4,)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Tuple) and 0 < _entry_count(sub.elts) < len(sub.elts):
            return True
        if (
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, ast.Add)
            and isinstance(sub.right, ast.Tuple)
            and _entry_count(sub.right.elts)
        ):
            return True
    return False


def _is_index(node):
    """Whether `node` is an integer literal, negative ones included."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _entries_last_layouts(path, core=True):
    """The places in `path` that lay a 2x2 stack or 4-vector grid out with
    its entry axes last: an empty, zeros, ones or full call whose shape puts
    (2, 2) or (4,) after the grid dims, and, in a `core` module, a subscript
    [..., k] with a constant k, which reads an entry off the last axis."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in _ALLOCATORS
            and any(_entries_last(a) for a in [*node.args, *(k.value for k in node.keywords)])
        ):
            found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
        elif (
            core
            and isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Tuple)
            and isinstance(node.slice.elts[0], ast.Constant)
            and node.slice.elts[0].value is Ellipsis
            and any(_is_index(e) for e in node.slice.elts[1:])
        ):
            found.append(f"{path.name}:{node.lineno} [..., k]")
    return found


def test_stacks_are_allocated_entry_major():
    # each entry of a stack is one contiguous plane only while the entry
    # axes come first; with them last every entrywise kernel gathers each
    # fourth number instead
    files = sorted((ROOT / "src" / "cmclab").rglob("*.py"))
    found = [entry for path in files for entry in _entries_last_layouts(path, path in CORE)]
    assert found == []


def test_stack_allocation_lint_sees_each_form(tmp_path):
    path = tmp_path / "frames.py"
    path.write_text(
        "import numpy as np\n"
        "def f(n, u, F, shape):\n"
        "    G = np.empty((n, n, 2, 2), dtype=complex)\n"
        "    p = np.zeros(shape=F.shape[:-2] + (4,))\n"
        "    q = np.ones(shape + (2, 2))\n"
        "    plane = np.empty((n, n))\n"
        "    H = np.empty((2, 2) + shape, complex)\n"
        "    v = np.full((4,), 1.0) + np.zeros((2, 2)) + np.empty((4, n, n))\n"
        "    return F[..., 0, 1], p[..., -1], u[..., :3], H[0, 1], F[..., n], G, q, plane, v\n"
    )
    assert _entries_last_layouts(path) == [
        "frames.py:3 np.empty",
        "frames.py:4 np.zeros",
        "frames.py:5 np.ones",
        "frames.py:9 [..., k]",
        "frames.py:9 [..., k]",
    ]
    assert _entries_last_layouts(path, core=False) == [
        "frames.py:3 np.empty",
        "frames.py:4 np.zeros",
        "frames.py:5 np.ones",
    ]


def _nan_blind_gates(path):
    """Each `if a > b:` (or `>=`) and each `if np.any(a < b):` (or `<=`) in
    `path` whose b names a tolerance: a NaN makes the comparison false, so a
    NaN value would pass that gate."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        test = node.test if isinstance(node, ast.If) else None
        ops = (ast.Gt, ast.GtE)
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Attribute)
            and test.func.attr == "any"
            and len(test.args) == 1
        ):
            test, ops = test.args[0], (ast.Lt, ast.LtE)
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ops)
            and any(
                "tol" in (sub.id if isinstance(sub, ast.Name) else sub.attr).lower()
                for sub in ast.walk(test.comparators[0])
                if isinstance(sub, (ast.Name, ast.Attribute))
            )
        ):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_tolerance_gates_are_nan_safe():
    # `if not value <= tol:` refuses a NaN value; `if value > tol:` lets it
    # by, and so does `if np.any(values < 1 - tol):`
    files = sorted((ROOT / "src" / "cmclab").rglob("*.py"))
    assert [entry for path in files for entry in _nan_blind_gates(path)] == []


def test_nan_gate_lint_sees_each_form(tmp_path):
    path = tmp_path / "frames.py"
    path.write_text(
        "def f(worst, defect, scale, tol, n):\n"
        "    if worst > DET_DRIFT_TOL:\n"
        "        raise ValueError\n"
        "    if defect >= HERMITIAN_RTOL * scale:\n"
        "        raise ValueError\n"
        "    elif defect > tol:\n"
        "        raise ValueError\n"
        "    if not worst <= DET_DRIFT_TOL or n > 3:\n"
        "        raise ValueError\n"
        "    if np.any(defect < 1.0 - DET_DRIFT_TOL):\n"
        "        raise ValueError\n"
        "    if np.any(defect <= tol):\n"
        "        raise ValueError\n"
        "    if not np.all(defect >= 1.0 - tol) or np.any(worst <= 0.0):\n"
        "        raise ValueError\n"
        "    return n > tol\n"
    )
    assert _nan_blind_gates(path) == [
        "frames.py:2", "frames.py:4", "frames.py:6", "frames.py:10", "frames.py:12"
    ]


# the modules that hold the integrator's determinant bound and derive the
# hyperboloid bound from it
_FRAME_BOUND_MODULES = ("minkowski.py", "frames.py")


def _names_tolerance(node):
    """Whether the expression `node` is a number or names a tolerance."""
    return any(
        (isinstance(sub, ast.Constant) and isinstance(sub.value, (int, float)))
        or "tol" in (getattr(sub, "id", None) or getattr(sub, "attr", "")).lower()
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Constant, ast.Name, ast.Attribute))
    )


def _hyperboloid_bound_leaks(path):
    """Each call in `path` that passes require_h3 a tolerance (anything but
    its points and `what`), and, outside _FRAME_BOUND_MODULES, each name of
    DET_DRIFT_TOL: require_h3 holds every point to H3_TOL, which minkowski
    derives from DET_DRIFT_TOL once."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if (getattr(func, "id", None) or getattr(func, "attr", None)) == "require_h3" and (
            len(node.args) > 2
            or any(k.arg != "what" for k in node.keywords)
            or any(_names_tolerance(a) for a in node.args[1:])
        ):
            found.append((node.lineno, "require_h3"))
        named = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
            node, "name", None
        )
        if named == "DET_DRIFT_TOL" and path.name not in _FRAME_BOUND_MODULES:
            found.append((node.lineno, "DET_DRIFT_TOL"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


def test_hyperboloid_bound_is_written_once():
    files = sorted((ROOT / "src" / "cmclab").rglob("*.py"))
    assert [entry for path in files for entry in _hyperboloid_bound_leaks(path)] == []


def test_hyperboloid_bound_lint_sees_each_form(tmp_path):
    source = (
        "from .minkowski import DET_DRIFT_TOL, require_h3\n"
        "def f(p, tol, label):\n"
        "    require_h3(p, tol=DET_DRIFT_TOL, what='x')\n"
        "    require_h3(p, tol)\n"
        "    minkowski.require_h3(p, 1e-8)\n"
        "    require_h3(p, 'x', H3_TOL)\n"
        "    require_h3(p, what=f'{label} surface')\n"
        "    require_h3(p, label)\n"
        "    return minkowski.DET_DRIFT_TOL\n"
    )
    path = tmp_path / "surfaces.py"
    path.write_text(source)
    assert _hyperboloid_bound_leaks(path) == [
        "surfaces.py:1 DET_DRIFT_TOL",
        "surfaces.py:3 DET_DRIFT_TOL",
        "surfaces.py:3 require_h3",
        "surfaces.py:4 require_h3",
        "surfaces.py:5 require_h3",
        "surfaces.py:6 require_h3",
        "surfaces.py:9 DET_DRIFT_TOL",
    ]
    # the modules that hold the frame bound may name it, not pass it on
    path = tmp_path / "frames.py"
    path.write_text(source)
    assert _hyperboloid_bound_leaks(path) == [
        f"frames.py:{line} require_h3" for line in (3, 4, 5, 6)
    ]


def _string_constants(tree):
    """Each str or bytes constant in `tree` that is not a docstring."""
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (str, bytes))
            and id(node) not in docstrings
        ):
            yield node


def _seventeen_digit_spellings(path):
    """The top-level definition holding each string constant in `path`,
    docstrings aside, that spells '.17g': one entry per constant."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for stmt in tree.body:
        names = [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)]
        owner = getattr(stmt, "name", None) or ",".join(names)
        found += [owner for node in _string_constants(stmt) if ".17g" in str(node.value)]
    return found


def test_seventeen_digit_spelling_only_in_the_kernel_fallback_and_scalar_fields():
    # grid tables are spelled by the whole-array kernel in surface_data; a
    # writer that formats numbers one by one would be a second, slower path
    found = {
        path.name: _seventeen_digit_spellings(path)
        for path in sorted((ROOT / "src" / "cmclab").rglob("*.py"))
    }
    assert found.pop("surface_data.py") == ["_FALLBACK"]
    assert set(found.pop("report.py")) == {"render_machine"}
    assert set(found.pop("verify.py")) == {"_report"}
    assert {name: owners for name, owners in found.items() if owners} == {}


def _check_spellings(path, spelled):
    """'file:line check' for each string constant in `path`, docstrings
    aside, that `spelled` maps to a check: one entry per constant, in line
    order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        (node.lineno, node.col_offset, spelled[node.value])
        for node in _string_constants(tree)
        if node.value in spelled
    ]
    return [f"{path.name}:{line} {check}" for line, _, check in sorted(found)]


def _check_names():
    """Each spelling of a check name, mapped to its check: a whole-run name
    to itself; a per-side stem, and the stem with each side, to the stem."""
    spelled = {}
    for name in registry_names():
        stem = next((name[: -len(s) - 1] for s in SIDES if name.endswith(f"_{s}")), name)
        spelled[name] = spelled[stem] = stem
    return spelled


def test_each_check_name_is_spelled_once():
    # a check is one row of the table in `report`: its name, default bound
    # and value; a second spelling elsewhere would have to be kept in step
    # with the row by hand
    spelled = _check_names()
    found = [
        entry
        for path in sorted((ROOT / "src" / "cmclab").rglob("*.py"))
        for entry in _check_spellings(path, spelled)
    ]
    checks = [entry.split()[1] for entry in found]
    assert set(checks) == set(spelled.values())
    assert [
        entry
        for entry, check in zip(found, checks)
        if checks.count(check) > 1 or not entry.startswith("report.py:")
    ] == []


def test_check_name_lint_sees_each_form(tmp_path):
    path = tmp_path / "verify.py"
    path.write_text(
        '"""metric_match_primary: a docstring is no spelling."""\n'
        'ROWS = (("metric_match", 5e-3), ("gauss_residual_max", 1e-3))\n'
        "def f(values, side):\n"
        '    """hopf_match"""\n'
        '    values["hopf_match_shifted"] = 1.0  # metric_match\n'
        '    values[b"isothermic"] = values[f"conformality_{side}"]\n'
        '    return values.get("det_drift_max"), "metric_match_primary_x"\n'
    )
    assert _check_spellings(path, _check_names()) == [
        "verify.py:2 metric_match",
        "verify.py:2 gauss_residual_max",
        "verify.py:5 hopf_match",
        "verify.py:7 det_drift_max",
    ]


# what a benchmark record must carry to be rerun and compared: its date, the
# command behind its numbers, the host they were measured on, and the order
# of the paired runs
BENCH_KEYS = ("date", "command", "machine", "order")


def _bench_record_faults(path):
    """What the benchmark record `path`, named BENCH_<date>_<what>.json,
    lacks: JSON that parses to an object, a non-empty string under each of
    BENCH_KEYS, and a date that is the one its name carries."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"{path.name}: {exc}"]
    if not isinstance(record, dict):
        return [f"{path.name}: not a JSON object"]
    faults = [
        f"{path.name}: no {key}"
        for key in BENCH_KEYS
        if not (isinstance(record.get(key), str) and record[key])
    ]
    named = re.fullmatch(r"BENCH_(\d{4}-\d{2}-\d{2})_.+\.json", path.name)
    if named is None or record.get("date") != named[1]:
        faults.append(f"{path.name}: date {record.get('date')!r} is not the one its name carries")
    return faults


def test_benchmark_records_say_when_how_and_where():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    assert [fault for path in paths for fault in _bench_record_faults(path)] == []


def test_benchmark_record_lint_sees_each_form(tmp_path):
    whole = {"date": "2026-10-20", "command": "run", "machine": "2 cores", "order": "alternating"}
    records = {
        "BENCH_2026-10-20_whole.json": json.dumps(whole),
        "BENCH_2026-10-20_cut.json": json.dumps(whole)[:-1],
        "BENCH_2026-10-20_list.json": json.dumps([whole]),
        "BENCH_2026-10-20_bare.json": json.dumps({**whole, "machine": "", "order": None}),
        "BENCH_2026-10-21_late.json": json.dumps(whole),
        "BENCH_undated.json": json.dumps(whole),
    }
    faults = {}
    for name, text in records.items():
        (tmp_path / name).write_text(text)
        faults[name] = _bench_record_faults(tmp_path / name)
    assert faults["BENCH_2026-10-20_whole.json"] == []
    assert len(faults["BENCH_2026-10-20_cut.json"]) == 1
    assert faults["BENCH_2026-10-20_list.json"] == ["BENCH_2026-10-20_list.json: not a JSON object"]
    assert faults["BENCH_2026-10-20_bare.json"] == [
        "BENCH_2026-10-20_bare.json: no machine", "BENCH_2026-10-20_bare.json: no order",
    ]
    for name in ("BENCH_2026-10-21_late.json", "BENCH_undated.json"):
        assert faults[name] == [f"{name}: date '2026-10-20' is not the one its name carries"]
