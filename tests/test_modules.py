"""Module boundaries inside the qspeedlim package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qspeedlim"


def private_imports(path: Path) -> list:
    """'module: name' for each underscore name the file imports from another
    qspeedlim module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "qspeedlim"):
            found += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in private_imports(path)] == []


def attribute_reads(path: Path, names: set) -> list:
    """'module:line .name' for each attribute access `x.name` in the file."""
    return [f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_only_schedules_reads_a_schedules_parameters():
    # each kind's envelopes and integrals are computed from power and knots
    # in schedules.py alone, so the two cannot disagree
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "schedules.py"]
    assert len(modules) > 1
    assert [hit for path in modules for hit in attribute_reads(path, {"power", "knots"})] == []


def hbar_reads(node) -> list:
    """'line name' for each parameter, keyword, name or attribute called hbar
    inside the definition node."""
    return [f"{sub.lineno} {name}" for sub in ast.walk(node)
            for name in (getattr(sub, "arg", None), getattr(sub, "id", None),
                         getattr(sub, "attr", None)) if name == "hbar"]


def test_step_kernel_and_closed_form_never_see_hbar():
    # evolve converts to s = t/hbar once, so the numerics between work in s alone
    path = PACKAGE / "propagate.py"
    defs = [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if getattr(node, "name", None) in {"_TaylorKernel", "_closed_form"}]
    assert len(defs) == 2
    assert [hit for node in defs for hit in hbar_reads(node)] == []


def fork_sites(path: Path) -> list:
    """'module:definition' for each reference to os.fork (or a bare fork) in
    the file, by the top-level definition that holds it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{getattr(top, 'name', '<module>')}"
            for top in tree.body for sub in ast.walk(top)
            if getattr(sub, "attr", None) == "fork" or getattr(sub, "id", None) == "fork"]


def test_only_the_csv_writer_forks():
    # one place starts, reaps and checks a child process
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in fork_sites(path)] == [
        "propagate.py:write_csv_columns"]


def test_cli_reaches_the_campaign_runners_only_through_run_campaign():
    # campaign files and a verb's flags share run_campaign's checks; decay's
    # single run is run_time_independent
    campaigns = ast.parse((PACKAGE / "campaigns.py").read_text())
    runners = {node.name for node in campaigns.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("run_")} - {"run_campaign", "run_time_independent"}
    assert len(runners) == 4
    path = PACKAGE / "cli.py"
    imported = [f"{path.name}: {alias.name}"
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if alias.name in runners]
    assert imported + attribute_reads(path, runners) == []


def identity_sites(path: Path) -> list:
    """'module:definition what' for each use of hashlib and each "config_hash"
    key that a dict literal or an item assignment writes in the file, by the
    top-level definition that holds it."""
    def what(node):
        if getattr(node, "id", None) == "hashlib" or getattr(node, "module", None) == "hashlib":
            return "hash"
        keys = (node.keys if isinstance(node, ast.Dict) else [node.slice]
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) else [])
        if any(isinstance(key, ast.Constant) and key.value == "config_hash" for key in keys):
            return "config_hash key"
        return None

    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(f"{path.name}:{getattr(top, 'name', '<module>')} {what(sub)}"
                  for top in tree.body for sub in ast.walk(top) if what(sub))


def test_only_the_identity_helper_hashes_a_campaign_or_stamps_its_provenance():
    # one function digests kind, parameters and integrator and writes the hash
    # into each member's provenance; _collect copies it into the summary
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in identity_sites(path)] == [
        "campaigns.py:_collect config_hash key", "campaigns.py:_identity config_hash key",
        "campaigns.py:_identity hash"]


def inspect_sites(path: Path) -> list:
    """'module:definition' for each reference to the inspect module in the
    file, by the top-level definition that holds it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{getattr(top, 'name', '<module>')}"
            for top in tree.body for sub in ast.walk(top)
            if "inspect" in (getattr(sub, "id", None), getattr(sub, "module", None))
            or isinstance(sub, ast.alias) and sub.name == "inspect"]


def from_dict_shapes(path: Path) -> list:
    """'module:Class shape' for each from_dict method in the file: 'from_json'
    for a classmethod whose whole body is `return from_json(cls, ...)`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    shapes = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "from_dict"):
                continue
            call = getattr(fn.body[0], "value", None) if len(fn.body) == 1 else None
            single = (isinstance(fn.body[0], ast.Return) and isinstance(call, ast.Call)
                      and [getattr(d, "id", None) for d in fn.decorator_list] == ["classmethod"]
                      and getattr(call.func, "id", None) == "from_json"
                      and [getattr(a, "id", None) for a in call.args[:1]] == ["cls"])
            shapes.append(f"{path.name}:{cls.name} {'from_json' if single else 'hand-written'}")
    return shapes


def test_every_json_object_is_read_through_from_json():
    # one field rule: only from_json asks a reader which fields it takes, and
    # every from_dict hands its object to it whole
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in inspect_sites(path)] == [
        "algebra.py:<module>", "algebra.py:from_json"]
    assert [hit for path in modules for hit in from_dict_shapes(path)] == [
        "campaigns.py:Campaign from_json", "hamiltonians.py:IsingInstance from_json",
        "schedules.py:Schedule from_json"]


def isinstance_sites(path: Path) -> list:
    """'Class.function type' for each isinstance call in the file, by the
    innermost definitions that hold it and the type expression it tests."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
                yield f"{scope} {ast.unparse(child.args[1])}"
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            yield from visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    return list(visit(ast.parse(path.read_text(), filename=str(path)), ""))


def test_only_the_proportional_policy_asks_which_hamiltonian_kind_it_holds():
    # a fixed H and an H(t) speak one term protocol (terms, step_terms,
    # in_s), so the step kernel reads only that; a beta proportional to
    # g(t/T) is the one thing a fixed H cannot give
    sites = isinstance_sites(PACKAGE / "propagate.py")
    assert [site for site in sites if "InterpolatedHamiltonian" in site] == [
        "BetaPolicy.values InterpolatedHamiltonian"]
    assert [site for site in sites if site.startswith("_TaylorKernel")] == []
