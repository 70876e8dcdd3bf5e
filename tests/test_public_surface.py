"""Every public module-level function and class of `pursuit_lab` has a
caller, and every defaulted parameter of a public function or method is
passed by some call.

The sources of `src/pursuit_lab` are scanned with `ast`. A public name (no
leading underscore) defined at module level counts as used when code in
`src/pursuit_lab` refers to it: by a `Name` in its own module or in a module
that imports it with `from .module import name`, or by an `Attribute`
`module.name` on a module imported with `from . import module`. A public name
that only the tests use belongs in `tests/`.

A defaulted parameter that no call in `src` passes is a setting that no run
varies; it belongs in a constant. Calls are matched by name: `f(...)` and
`module.f(...)` to the function (or the `__init__` of the class) that the
name resolves to, and `obj.m(...)` to every method named `m`. A call passes
a parameter by keyword, by position, or through `*args` / `**kwargs`.

Likewise, a defaulted field of a public dataclass that no code in `src` sets
belongs in a constant. A field is set by a constructor argument (by keyword,
by position, or through the forwarded `**kwargs` of a `cls(...)` call), by a
`dataclasses.replace` keyword, or by an attribute assignment to its name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "pursuit_lab"

PER_VIEW_ORACLE = "per-view oracle that `bench/tracer.py` targets; moves to `tests/` once no tracer target names it (ROADMAP item 1)"

#: Public names kept without a caller in `src`, each with its reason.
ALLOWED = {
    "sim.TrajectoryLog": "the per-step episode log that `render` reads; the CLI does not write one yet",
    "evalkit.play_episode": "the one-episode loop that the benchmark tracer traces and the golden trajectory log "
    "plays through; `eval --log-episodes` will call it",
    "scripted.evader_action": PER_VIEW_ORACLE,
    "sim.pursuer_view": PER_VIEW_ORACLE,
    "sim.evader_view": PER_VIEW_ORACLE,
}

#: Defaulted parameters that no call in `src` passes, each with its reason.
ALLOWED_DEFAULTS = {
    "population.hola_train.episodes_per_edge": "the golden and unit tests run HOLA with fewer edge episodes",
    "rl.pbt_train.exploit_interval": "the golden and unit tests exploit after fewer steps",
    "rl.init_actor_critic.dtype": "float64 models for the finite-difference gradient checks",
    "teammate.init_encoder.hidden": "small float64 encoders for the finite-difference gradient checks",
    "teammate.init_encoder.embed_dim": "small float64 encoders for the finite-difference gradient checks",
    "teammate.init_encoder.dtype": "float64 encoders for the finite-difference gradient checks",
    "teammate.init_decoder.hidden": "small float64 decoders for the finite-difference gradient checks",
    "teammate.init_decoder.dtype": "float64 decoders for the finite-difference gradient checks",
    "evalkit.play_episode.log": "the trajectory log that the CLI does not write yet",
    "config.with_control_split.unseen_drones": "the tests' arenas with uncontrolled slots",
    "cli.main.argv": "the tests call the CLI in process; the console script reads sys.argv",
}


def public_definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def package_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """(local name -> "module.name", local name -> module) of the module's
    `from .module import name` and `from . import module` imports."""
    imported_names, imported_modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    imported_modules[local] = alias.name
                else:
                    imported_names[local] = f"{node.module}.{alias.name}"
    return imported_names, imported_modules


def references(module: str, tree: ast.Module) -> set[str]:
    """Qualified `module.name` of every package name this module refers to."""
    imported_names, imported_modules = package_imports(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(imported_names.get(node.id, f"{module}.{node.id}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in imported_modules:
                found.add(f"{imported_modules[node.value.id]}.{node.attr}")
    return found


def scan() -> tuple[set[str], set[str]]:
    """(public definitions, references), both as `module.name`."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {f"{path.stem}.{name}" for name in public_definitions(tree)}
        used |= references(path.stem, tree)
    return defined, used


def test_every_public_name_has_a_caller():
    defined, used = scan()
    assert sorted(defined - used - set(ALLOWED)) == []


def test_allowed_names_exist_and_have_no_caller():
    # an entry whose name gained a caller or was deleted leaves the allowlist
    defined, used = scan()
    assert set(ALLOWED) <= defined - used


def defaulted_parameters(module: str, tree: ast.Module) -> dict[str, tuple[str, list[str], set[str]]]:
    """`module.function` or `module.Class.method` -> (call key, positional
    parameters a call fills in order, defaulted parameters), over public
    functions and the public methods and `__init__` of public classes."""
    found = {}

    def add(qualname: str, key: str, fn: ast.FunctionDef, bound: bool) -> None:
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][1 if bound else 0 :]
        defaulted = {a.arg for a in args.args[len(args.args) - len(args.defaults) :]}
        defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
        if defaulted:
            found[qualname] = (key, positional, defaulted)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(f"{module}.{node.name}", f"{module}.{node.name}", node, bound=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                    # the class call reaches __init__; any obj.method(...) call may reach a method
                    key = f"{module}.{node.name}" if fn.name == "__init__" else f".{fn.name}"
                    add(f"{module}.{node.name}.{fn.name}", key, fn, bound=not static)
    return found


def passed_arguments(module: str, tree: ast.Module) -> dict[str, set]:
    """Call key -> the positional counts and keyword names of its calls in
    this module; `*args` counts as every position, `**kwargs` as every name."""
    imported_names, imported_modules = package_imports(tree)
    passed: dict[str, set] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            key = imported_names.get(func.id, f"{module}.{func.id}")
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in imported_modules:
            key = f"{imported_modules[func.value.id]}.{func.attr}"
        elif isinstance(func, ast.Attribute):
            key = f".{func.attr}"
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        args = passed.setdefault(key, set())
        args.add(float("inf") if starred else len(node.args))
        args |= {"**" if kw.arg is None else kw.arg for kw in node.keywords}
    return passed


def unpassed_defaults() -> set[str]:
    """Every `qualified.name.param` with a default that no call in `src` passes."""
    defined, passed = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(defaulted_parameters(path.stem, tree))
        for key, args in passed_arguments(path.stem, tree).items():
            passed.setdefault(key, set()).update(args)
    unpassed = set()
    for qualname, (key, positional, defaulted) in defined.items():
        args = passed.get(key, set())
        n_positional = max((a for a in args if not isinstance(a, str)), default=0)
        for name in defaulted:
            by_position = name in positional and positional.index(name) < n_positional
            if not (by_position or name in args or "**" in args):
                unpassed.add(f"{qualname}.{name}")
    return unpassed


def test_every_default_is_passed_by_some_call():
    assert sorted(unpassed_defaults() - set(ALLOWED_DEFAULTS)) == []


def test_allowed_defaults_are_still_unpassed():
    # an entry whose parameter gained a caller or was deleted leaves the allowlist
    assert set(ALLOWED_DEFAULTS) <= unpassed_defaults()


#: Defaulted fields of public dataclasses that no code in `src` sets, each with its reason.
ALLOWED_FIELDS = {
    "rl.PpoConfig.hidden": "the tests train small networks",
    "rl.PpoConfig.epochs": "the golden and unit tests train one or two epochs per update",
}


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def dataclass_fields(module: str, tree: ast.Module) -> dict[str, tuple[list[str], set[str]]]:
    """`module.Class` -> (fields in order, defaulted fields) of each public dataclass."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and is_dataclass(node):
            annotated = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            found[f"{module}.{node.name}"] = (
                [s.target.id for s in annotated],
                {s.target.id for s in annotated if s.value is not None},
            )
    return found


def field_settings(module: str, tree: ast.Module, forwarded: dict[str, set]) -> tuple[dict[str, set], set[str]]:
    """(class key -> the positional counts and keyword names of its
    constructor calls, field names set by `replace` keywords or by attribute
    assignments) in this module.

    A constructor call is `Class(...)`, `module.Class(...)` or `cls(...)` in a
    method of the class. Its `**name` forwards the `**name` parameter of the
    enclosing function, so it passes the keywords of that function's calls in
    `forwarded` (by `.function`); any other `**` passes every field.
    """
    imported_names, imported_modules = package_imports(tree)
    constructed: dict[str, set] = {}
    assigned: set[str] = set()

    def visit(node, cls_key=None, fn=None):
        if isinstance(node, ast.ClassDef):
            cls_key = f"{module}.{node.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "replace":
                assigned.update(kw.arg for kw in node.keywords if kw.arg)
            key = None
            if isinstance(func, ast.Name):
                key = cls_key if func.id == "cls" else imported_names.get(func.id, f"{module}.{func.id}")
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in imported_modules:
                key = f"{imported_modules[func.value.id]}.{func.attr}"
            if key is not None:
                args = constructed.setdefault(key, set())
                args.add(len(node.args))
                for kw in node.keywords:
                    if kw.arg is not None:
                        args.add(kw.arg)
                    elif fn is not None and fn.args.kwarg and isinstance(kw.value, ast.Name) and kw.value.id == fn.args.kwarg.arg:
                        args |= forwarded.get(f".{fn.name}", set())
                    else:
                        args.add("**")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                assigned.update(t.attr for t in ast.walk(target) if isinstance(t, ast.Attribute))
        for child in ast.iter_child_nodes(node):
            visit(child, cls_key, fn)

    visit(tree)
    return constructed, assigned


def unset_fields() -> set[str]:
    """Every `module.Class.field` with a default that no code in `src` sets."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    forwarded: dict[str, set] = {}
    for module, tree in trees.items():
        for key, args in passed_arguments(module, tree).items():
            forwarded.setdefault(key, set()).update(a for a in args if isinstance(a, str))
    fields, constructed, assigned = {}, {}, set()
    for module, tree in trees.items():
        fields.update(dataclass_fields(module, tree))
        calls, names = field_settings(module, tree, forwarded)
        for key, args in calls.items():
            constructed.setdefault(key, set()).update(args)
        assigned |= names
    unset = set()
    for cls, (ordered, defaulted) in fields.items():
        args = constructed.get(cls, set())
        n_positional = max((a for a in args if not isinstance(a, str)), default=0)
        for name in defaulted:
            if not (ordered.index(name) < n_positional or name in args or "**" in args or name in assigned):
                unset.add(f"{cls}.{name}")
    return unset


def test_every_dataclass_default_is_set_by_some_code():
    assert sorted(unset_fields() - set(ALLOWED_FIELDS)) == []


def test_allowed_fields_are_still_unset():
    # an entry whose field gained a setter or was deleted leaves the allowlist
    assert set(ALLOWED_FIELDS) <= unset_fields()
