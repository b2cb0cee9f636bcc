"""Every public top-level function and class in the package has a caller in
the package, and every defaulted parameter of a public function is set by
some call in the package. A name or a setting that only tests use backs no
claim of the pipeline, so it should go; the few that exist to support tests
are listed below, each with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latgauss"

TEST_SUPPORT = {
    "ZeroStream": "switches the diffusion off, so a chain can be checked as gradient descent",
    "random_smooth_net": "random nets with square and tanh layers for the derivative checks",
    "generator_network": "the sign generator as a network, to check it is not smooth",
}

# (function, parameter): why tests need a value no call in the package passes
DEFAULT_SEAMS = {
    ("main", "argv"): "the CLI tests pass an argument list in place of the process's own",
    ("estimate_constants", "tensor_points"): "stretch checks skip the derivative tensors with 0",
    ("make_gd_plan", "delta"): "the descent tests plan for a chosen accuracy instead of rad/4",
    ("chi2_initialization", "grid_points"): "the chi2 = 0 test needs a power-of-two grid",
    ("compiled_vs_direct_experiment", "draws"): "the experiment tests run fewer draws",
    ("linear_net", "b"): "tests build affine generators with a nonzero shift",
}


def parse_src():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def references(tree, name, skip):
    """Name loads and attribute accesses of `name` outside the node `skip`.
    An import alone is no reference."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        stack.extend(ast.iter_child_nodes(node))
    return count


def test_every_public_definition_has_a_caller_in_src():
    trees = parse_src()
    uncalled, stale, defined = [], [], set()
    for module, tree in trees.items():
        for node in public_definitions(tree):
            defined.add(node.name)
            called = any(references(other, node.name, node) for other in trees.values())
            if node.name in TEST_SUPPORT:
                if called:  # the allowlist entry is no longer needed
                    stale.append(node.name)
            elif not called:
                uncalled.append(f"{module}:{node.lineno} {node.name}")
    assert not uncalled, f"no caller in src/: {uncalled}"
    assert not stale, f"allowlisted names that now have a caller: {stale}"
    assert set(TEST_SUPPORT) <= defined, set(TEST_SUPPORT) - defined


def public_functions(tree):
    """(node, leading positional arguments a call does not pass) for public
    functions and the public methods of public classes."""
    for node in public_definitions(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, 0
        else:
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield sub, 1  # self


def defaulted_parameters(node, skip):
    """(position in a call's positional arguments or None, name) per
    parameter with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def sets(call, position, name):
    """Whether the call passes the parameter; a * or ** argument may pass any."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_set_in_src():
    trees = parse_src()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset, stale, seen = [], [], set()
    for module, tree in trees.items():
        for node, skip in public_functions(tree):
            if node.name in TEST_SUPPORT:
                continue
            for position, name in defaulted_parameters(node, skip):
                passed = any(sets(call, position, name) for call in calls.get(node.name, ()))
                if (node.name, name) in DEFAULT_SEAMS:
                    seen.add((node.name, name))
                    if passed:  # the allowlist entry is no longer needed
                        stale.append((node.name, name))
                elif not passed:
                    unset.append(f"{module}:{node.lineno} {node.name}({name})")
    assert not unset, f"defaulted parameters no call in src/ sets: {unset}"
    assert not stale, f"allowlisted parameters that a call in src/ now sets: {stale}"
    assert set(DEFAULT_SEAMS) == seen, set(DEFAULT_SEAMS) - seen
