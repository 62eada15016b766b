"""No ``RequestStatus.X`` or ``DropReason.X`` load inside a hot function.

On CPython 3.10 and 3.11, ``EnumType`` (``EnumMeta``) defines
``__getattr__``, so the interpreter cannot specialize an attribute load
on an enum class: every ``RequestStatus.IN_FLIGHT`` inside a function
takes the generic path, about 150-200 ns, where a module global costs
17-31 ns (CPython 3.11.7 and 3.10.13).  CPython 3.12 dropped the hook,
and the load costs about 42 ns there.  The request path tests a status
or returns a drop reason up to about a million times per workload, so
the modules below bind the members they use to module constants once
(``_IN_FLIGHT = RequestStatus.IN_FLIGHT``) and read those instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

GUARDED = (
    "simulation/request.py",
    "simulation/worker.py",
    "simulation/llm.py",
    "simulation/module.py",
    "simulation/cluster.py",
    "simulation/tenancy.py",
    "core/policy.py",
    "metrics/collector.py",
)

ENUMS = {"RequestStatus", "DropReason"}


def member_loads_in_functions(source: str) -> list[str]:
    """``Enum.MEMBER`` loads inside any function body, as ``line: text``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.ctx, ast.Load)
                and isinstance(inner.value, ast.Name)
                and inner.value.id in ENUMS
            ):
                found.append(f"{inner.lineno}: {ast.unparse(inner)}")
    return sorted(set(found))


@pytest.mark.parametrize("module", GUARDED)
def test_no_enum_member_loads_in_function_bodies(module):
    loads = member_loads_in_functions((SRC / module).read_text())
    assert not loads, (
        f"{module} loads enum members inside functions; bind them to "
        f"module constants instead: {loads}"
    )


def test_the_guard_sees_a_load():
    source = (
        "X = RequestStatus.DROPPED\n"  # module level: allowed
        "def f(r):\n"
        "    return r.status is RequestStatus.IN_FLIGHT or DropReason.TIMEOUT\n"
    )
    assert member_loads_in_functions(source) == [
        "3: DropReason.TIMEOUT",
        "3: RequestStatus.IN_FLIGHT",
    ]
