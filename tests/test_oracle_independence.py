"""The independent oracles share no code with the fast paths they check.

A static call graph of `src/` is built with `ast`.  Its nodes are the
module-level functions and classes, keyed by name, and the methods,
keyed `Class.method`.  A definition points at every node named by an
identifier in its body, whether called, passed or read as an
attribute, so `x.run()` points at every method named `run`, and a class
body, methods included, belongs to the class node.  Joining by name
over-approximates reach, which errs on the side of reporting a share.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "looptorsion"

#: Names both sides of a pair may reach, with the reason each is no shared logic.
SHARED_ALLOWED = {
    "is_prime": "primality of an input or a field characteristic; decides no verdict",
    "_require_prime": "refuses a composite input before any walk or test",
    "_strong_probable_prime": "Miller-Rabin step of is_prime",
    "_strong_lucas_probable_prime": "Lucas step of is_prime",
    "_jacobi": "Jacobi symbol of the Lucas step and of the residue report",
    "Params": "the record of the six integers",
    "RelationSet": "the record of a relation set",
    "Element.degree": "`degree` is also the Relation field both sides read; the graph joins by name",
}


def call_graph(sources) -> dict[str, set[str]]:
    """{node: the nodes its body names} over the definitions in `sources`."""
    bodies: dict[str, list[ast.AST]] = {}
    by_name: dict[str, set[str]] = {}
    for text in sources:
        for top in ast.parse(text).body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            bodies.setdefault(top.name, []).append(top)
            by_name.setdefault(top.name, set()).add(top.name)
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = f"{top.name}.{item.name}"
                        bodies.setdefault(key, []).append(item)
                        by_name.setdefault(item.name, set()).add(key)
    graph = {}
    for node, defs in bodies.items():
        named = set()
        for definition in defs:
            for sub in ast.walk(definition):
                if isinstance(sub, ast.Name):
                    named |= by_name.get(sub.id, set())
                elif isinstance(sub, ast.Attribute):
                    named |= by_name.get(sub.attr, set())
        graph[node] = named - {node}
    return graph


def reach(graph, roots) -> set[str]:
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(graph[node])
    return seen


def shared(graph, left, right, allowed=SHARED_ALLOWED) -> set[str]:
    """Nodes both root sets reach, apart from the allowed names (a class name allows its methods)."""
    both = reach(graph, left) & reach(graph, right)
    return {n for n in both if n not in allowed and n.split(".")[0] not in allowed}


def public_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
    ]


COUNT = public_names(SRC / "count.py")
PAIRS = {
    "power-walk/order-test": (["power_witness"], ["_minus2_in_powers_of_3", "theorem1_verdicts"]),
    "recurrence-walk/orbit-walk": (["divides_some_am"], ["_orbit_meets_zero"]),
    "smith-form/count": (["smith_normal_form"], COUNT),
    "rank-mod-p/count": (["rank_mod_p"], COUNT),
    "dense-smith-form/count": (["invariant_factors_dense"], COUNT),
    "naive-order/count": (["naive_order_in_quotient"], COUNT),
    "dense-smith-form/smith-form": (["invariant_factors_dense"], ["smith_normal_form"]),
    "rank-mod-p/smith-form": (["rank_mod_p"], ["smith_normal_form"]),
    "element-builders/shape-formula": (["tau", "rho", "sigma", "bracket", "relation_shapes"], ["generated_shapes"]),
}
#: Names the two sides of one pair may also reach, with the reason; the other pairs stay strict.
PAIR_ALLOWED = {
    "element-builders/shape-formula": {
        "coeff_sequence": "both sides read a_m from the recurrence that defines it; the pair checks the shapes "
        "built from a_m, and verify checks the recurrence in closed form",
    },
}


def test_count_roots_hold_what_production_calls():
    # `torsion-primes` reads `counted_torsion`, `hilbert` reads `counted_dimensions`
    assert {"counted_torsion", "counted_pieces", "counted_dimensions"} <= set(COUNT)


@pytest.fixture(scope="module")
def graph():
    return call_graph(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_oracle_and_fast_path_reach_no_common_code(graph, pair):
    left, right = PAIRS[pair]
    assert left and right and set(left + right) <= set(graph), "a root is not defined in src/"
    assert shared(graph, left, right, SHARED_ALLOWED | PAIR_ALLOWED.get(pair, {})) == set()


SEEDED = '''
def helper(x):
    return x


def fast(x):
    return helper(x) + 1


class Oracle:
    def run(self, x):
        return list(map(helper, [x]))


def oracle(x):
    return Oracle().run(x)


def Params():
    return None


def other(x):
    return Params() or x
'''


def test_checker_reports_a_helper_two_roots_share():
    seeded = call_graph([SEEDED])
    assert seeded["oracle"] == {"Oracle", "Oracle.run"}
    assert shared(seeded, ["fast"], ["oracle"]) == {"helper"}
    # an allowed name is not reported, and roots that share nothing report nothing
    assert shared(seeded, ["fast", "Params"], ["other"]) == set()
    assert shared(seeded, ["other"], ["oracle"]) == set()
    # a name allowed for one call is not reported there only
    assert shared(seeded, ["fast"], ["oracle"], {"helper": "seeded"}) == set()
