"""Every function and class in `src/ddinverse` is reached from the library
itself, every defaulted parameter of a function is passed by some call in
the library, every attribute and dataclass field the library stores is
read by the library, and every function is entered by some catalog CLI
run: a definition, a parameter or an attribute that only tests use is test
code kept in the wrong place.  Each allow-list holds only entries its check reports, so an
entry that becomes reached has to leave the list."""

import ast
import math
from pathlib import Path

from ddinverse import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "ddinverse"

# Kept although only tests call them.
ALLOWED = {
    "adjoint_global": "criterion 5 checks the local maps against it",
    "adjoint_volume": "criterion 5 checks the local maps against it",
}

# Functions and methods kept although no catalog CLI run enters them.
ALLOWED_UNENTERED = {
    "SolverError.__init__": "raised only when a solve fails",
    "FluxOperators.adjoint_global":
        "criterion 5 checks the local maps against it",
    "FluxOperators.adjoint_volume":
        "criterion 5 checks the local maps against it",
    "HeatOperators.adjoint_global":
        "criterion 5 checks the local maps against it",
    "HeatOperators.adjoint_local":
        "criterion 5 checks the local maps against it",
}

# Defaulted parameters kept although no call in the library passes them.
ALLOWED_PARAMETERS = {
    "main(argv=)": "the benchmark and the tests call the CLI in-process",
    "pcg(max_iter=)": "the stall test caps the iterations",
    "build_subdomains(boxes=)": "tests build other box layouts",
    "SourceOperators.adjoint_local(trace=)":
        "the local-adjoint-with-trace consistency checks",
    "HeatOperators.adjoint_local(trace=)":
        "the local-adjoint-with-trace consistency checks",
}

# Attributes and dataclass fields the library stores although it never
# reads them.
ALLOWED_UNREAD = {
    "SolverError.iterations":
        "fault data for the caller that catches a SolverError",
    "SolverError.residual":
        "fault data for the caller that catches a SolverError",
    "DDState.components":
        "test_support_preservation checks the final per-box components",
    "ExperimentSpec.mesh_sizes": "the catalog meshes that the tests sweep",
}


def _referenced(node, skip) -> set:
    """Names and attribute names used under `node`, not descending into the
    definitions in `skip`."""
    out = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current in skip:
            continue
        if isinstance(current, ast.Name):
            out.add(current.id)
        elif isinstance(current, ast.Attribute):
            out.add(current.attr)
        elif isinstance(current, ast.alias):
            out.add(current.name)
        stack.extend(ast.iter_child_nodes(current))
    return out


def unreached_definitions(src=SRC) -> list:
    """The names of the functions and classes of the modules under `src`
    that no code outside the bodies of such definitions refers to, found
    by dropping the bodies of unreached definitions until none is left."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    dead = set()
    while True:
        skip = {node for node in defs if node.name in dead}
        used = set().union(*(_referenced(tree, skip) for tree in trees))
        now = {node.name for node in defs} - used
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_definition_is_reached_from_the_library():
    unreached = unreached_definitions()
    assert [name for name in unreached if name not in ALLOWED] == []
    assert [name for name in ALLOWED if name not in unreached] == []


def _is_dataclass(cls) -> bool:
    """Whether the class definition `cls` is decorated by `dataclass` or
    `dataclasses.dataclass`, called or not."""
    for decorator in cls.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _is_copy_of_self(node) -> bool:
    """Whether the expression `node` is `copy.copy(self)` or `copy(self)`."""
    return (isinstance(node, ast.Call) and len(node.args) == 1
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "copy" and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self")


def _self_attributes(cls) -> list:
    """The attribute nodes on `self` in the methods of the class definition
    `cls`, and on the names that a method binds to `copy.copy(self)`: a
    view of the instance stores and loads the class's own attributes."""
    out = []
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = {"self"} | {target.id for node in ast.walk(method)
                            if isinstance(node, ast.Assign)
                            and _is_copy_of_self(node.value)
                            for target in node.targets
                            if isinstance(target, ast.Name)}
        out += [node for node in ast.walk(method)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in names]
    return out


def _relatives(bases, name) -> set:
    """The class `name`, its ancestors and its descendants among the
    classes of `bases` (class name -> names of its base classes)."""
    def closure(step):
        out, todo = set(), [name]
        while todo:
            new = step(todo.pop()) - out
            out |= new
            todo.extend(new)
        return out

    return ({name} | closure(lambda c: bases.get(c, set()))
            | closure(lambda c: {d for d, b in bases.items() if c in b}))


def unread_attributes(src=SRC) -> list:
    """The attributes that the modules under `src` store and never load.
    An attribute that class C stores on `self`, or on a view of it that a
    method of C binds to `copy.copy(self)`, is read when it is loaded on
    `self` or on such a view in C, in an ancestor or in a descendant of C,
    or on any other object anywhere; unread, it is reported as "C.name".
    An attribute stored on another object is read when its name is loaded
    on any object, and is reported as "name".  The fields of their
    dataclasses that they never load, on any object, are reported as
    "Class.field"."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    bases = {cls.name: {getattr(base, "id", getattr(base, "attr", None))
                        for base in cls.bases} for cls in classes}
    # per class, the names it stores and loads on `self` and its views
    self_stores = {cls.name: set() for cls in classes}
    self_loads = {cls.name: set() for cls in classes}
    on_self = set()
    for cls in classes:
        for node in _self_attributes(cls):
            on_self.add(node)
            if isinstance(node.ctx, ast.Store):
                self_stores[cls.name].add(node.attr)
            elif isinstance(node.ctx, ast.Load):
                self_loads[cls.name].add(node.attr)
    stored, fields, loaded, loaded_anywhere = set(), set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    loaded_anywhere.add(node.attr)
                if node in on_self:
                    continue
                if isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
                elif isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields |= {(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)}
    unread = {f"{cls}.{name}" for cls, name in fields
              if name not in loaded_anywhere}
    for cls, stores in self_stores.items():
        read = loaded.union(*(self_loads.get(relative, set())
                              for relative in _relatives(bases, cls)))
        unread |= {f"{cls}.{name}" for name in stores - read}
    return sorted(stored - loaded_anywhere) + sorted(unread)


def test_every_stored_attribute_is_read_in_the_library():
    unread = unread_attributes()
    assert [name for name in unread if name not in ALLOWED_UNREAD] == []
    assert [name for name in ALLOWED_UNREAD if name not in unread] == []


def test_unread_attributes_of_a_sample_module(tmp_path):
    (tmp_path / "sample.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass\nclass P:\n    a: int\n    b: int = 0\n"
        "@dataclasses.dataclass(frozen=True)\nclass Q:\n    c: int\n"
        "class R:\n    d: int\n"
        "def f(p, q, r):\n    p.kept = p.b\n    r.e = 1\n"
        "    return p.kept + r.d + r.w\n"
        # siblings A and B: B's read of `u` does not read A's store, while
        # a base or a subclass reading `self.t` or `self.v` does
        "class S:\n    def __init__(self):\n        self.s = self.v = 1\n"
        "class A(S):\n    def __init__(self):\n"
        "        self.t = self.u = self.w = 2\n"
        "class B(S):\n    def f(self):\n        return self.u\n"
        "class C(A):\n    def f(self):\n        return self.t\n"
        "class D(C):\n    def g(self):\n        return self.v\n"
        # a view bound to copy.copy(self) stores and loads V's own
        # attributes: `y` and `z` are read in V, while `x` is read only on
        # the `self` of the unrelated class W, which does not read V's store
        "import copy\n"
        "class V:\n    def __init__(self):\n        self.z = 0\n"
        "    def view(self):\n        out = copy.copy(self)\n"
        "        out.x = out.y = out.z + 1\n        return out\n"
        "    def f(self):\n        return self.y\n"
        "class W:\n    def g(self):\n        return self.x\n")
    assert unread_attributes(tmp_path) == ["e", "A.u", "P.a", "Q.c", "S.s",
                                           "V.x"]


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _passed(call):
    """The positional count and keyword names of a call: a starred argument
    fills every position, and ** every keyword (name None)."""
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return (math.inf if starred else len(call.args),
            {keyword.arg for keyword in call.keywords})


def _defaulted(fn, offset):
    """(name, index) of the defaulted parameters of `fn`: index counts the
    positions a call fills (past `offset` bound ones), None for a
    keyword-only parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(arg.arg, i - offset) for i, arg in enumerate(positional)
             if i >= first]
            + [(arg.arg, None) for arg, default in
               zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if default is not None])


def unpassed_parameters(src=SRC) -> list:
    """The defaulted parameters, as "qualname(name=)", of the functions of
    the modules under `src` that no call there passes, by keyword or by
    position.  Calls match a function by its name, and an `__init__` by
    its class name or by `super().__init__` in a subclass.  Functions that
    are also used as values (passed or bound to a name) may be called
    indirectly and are skipped."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
    # per callee name, `_passed` of each call; callees and base classes are
    # names that are not used as values
    calls, not_values = {}, {base for cls in classes for base in cls.bases}
    for node in nodes:
        if isinstance(node, ast.Call):
            not_values.add(node.func)
            calls.setdefault(_callee(node), []).append(_passed(node))
    for cls in classes:
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call) and _callee(node) == "__init__"
                    and isinstance(node.func.value, ast.Call)
                    and _callee(node.func.value) == "super"):
                for base in cls.bases:
                    if isinstance(base, ast.Name):
                        calls.setdefault(base.id, []).append(_passed(node))
    values = {node.id if isinstance(node, ast.Name) else node.attr
              for node in nodes
              if isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load) and node not in not_values}

    owned = [(None, node) for tree in trees for node in tree.body]
    owned += [(cls, node) for cls in classes for node in cls.body]
    out = []
    for cls, fn in owned:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name == "__init__":
            key = label = cls.name
        elif fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        else:
            key = fn.name
            label = fn.name if cls is None else f"{cls.name}.{fn.name}"
        if key in values:
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        offset = 0 if cls is None or static else 1
        for name, index in _defaulted(fn, offset):
            if not any(None in keywords or name in keywords
                       or (index is not None and count > index)
                       for count, keywords in calls.get(key, [])):
                out.append(f"{label}({name}=)")
    return sorted(out)


def test_every_defaulted_parameter_is_passed_from_the_library():
    unpassed = unpassed_parameters()
    assert [entry for entry in unpassed
            if entry not in ALLOWED_PARAMETERS] == []
    assert [entry for entry in ALLOWED_PARAMETERS
            if entry not in unpassed] == []


def test_unpassed_parameters_of_a_sample_module(tmp_path):
    (tmp_path / "sample.py").write_text(
        "def f(a, b=1, *, c=2):\n    return a\n"
        "class Base:\n    def __init__(self, x=0, y=0):\n        pass\n"
        "class Child(Base):\n    def __init__(self):\n"
        "        super().__init__(1)\n"
        "def g(d=3):\n    return d\n"
        "f(0, c=1)\nhook = g\n")
    assert unpassed_parameters(tmp_path) == ["Base(y=)", "f(b=)"]


def _functions(src=SRC) -> dict:
    """The qualified name of every function of the modules under `src`,
    keyed by (file, first line), the first line being that of the first
    decorator as in a code object's co_firstlineno."""
    out = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[(str(path), first)] = name
                visit(path, child, name + ".")

    for path in sorted(src.glob("*.py")):
        visit(path.resolve(), ast.parse(path.read_text()), "")
    return out


def unentered_functions(entered) -> list:
    """The functions of the ddinverse package whose code objects are not in
    `entered`, the (file, first line) of those the catalog runs enter, as
    traced by `sys.setprofile` (conftest's `catalog_runs`).  Unlike the
    static check this tells apart methods of one name in different
    classes."""
    functions = _functions(Path(cli.__file__).resolve().parent)
    files = {file: str(Path(file).resolve()) for file, _ in entered}
    entered = {(files[file], line) for file, line in entered}
    return sorted(name for key, name in functions.items()
                  if key not in entered)


def test_every_function_is_entered_by_a_catalog_run(catalog_runs):
    unentered = unentered_functions(catalog_runs.entered)
    assert [name for name in unentered if name not in ALLOWED_UNENTERED] == []
    assert [name for name in ALLOWED_UNENTERED if name not in unentered] == []
