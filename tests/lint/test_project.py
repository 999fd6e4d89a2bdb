"""ProjectIndex tests: symbol tables, call graph, reachability."""

import textwrap

import pytest

from repro.lint.engine import load_module
from repro.lint.project import ProjectIndex


def build_project(tmp_path, files):
    contexts = []
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        loaded = load_module(path, tmp_path)
        assert not hasattr(loaded, "rule"), f"parse failure in {relpath}"
        contexts.append(loaded)
    return ProjectIndex(contexts)


@pytest.fixture
def project(tmp_path):
    return build_project(
        tmp_path,
        {
            "pkg/codec.py": """
                from pkg.util import helper as aliased

                MAGIC = b"PRIF"
                VERSION = 2
                LABEL = "fmt"

                def encode(data):
                    return aliased(data) + MAGIC

                class Writer:
                    def flush(self):
                        return self.render()

                    def render(self):
                        return encode(b"")
                """,
            "pkg/util.py": """
                def helper(data):
                    return bytes(data)

                def render():
                    return "other render"
                """,
        },
    )


def test_functions_keyed_by_qualname(project):
    assert set(project.functions) == {
        "pkg/codec.py::encode",
        "pkg/codec.py::Writer.flush",
        "pkg/codec.py::Writer.render",
        "pkg/util.py::helper",
        "pkg/util.py::render",
    }
    flush = project.functions["pkg/codec.py::Writer.flush"]
    assert flush.name == "flush"
    assert flush.class_name == "Writer"


def test_module_constants_and_imports(project):
    info = project.module("pkg/codec.py")
    assert info.constants == {"MAGIC": b"PRIF", "VERSION": 2, "LABEL": "fmt"}
    assert info.constant_bytes_len("MAGIC") == 4
    assert info.constant_bytes_len("LABEL") == 3
    assert info.constant_bytes_len("VERSION") is None
    assert info.constant_bytes_len("MISSING") is None
    assert info.imports["aliased"] == "pkg.util.helper"


def test_callees_are_bare_names(project):
    encode = project.functions["pkg/codec.py::encode"]
    assert encode.callees == {"aliased"}
    flush = project.functions["pkg/codec.py::Writer.flush"]
    assert flush.callees == {"render"}


def test_self_call_prefers_own_class_method(project):
    flush = project.functions["pkg/codec.py::Writer.flush"]
    resolved = project.resolve_callees(flush)
    # render exists both as a Writer method and a free function in
    # util.py; the self-call resolves to the method only.
    assert [fn.qualname for fn in resolved] == [
        "pkg/codec.py::Writer.render"
    ]


def test_functions_named_fans_out(project):
    names = {fn.qualname for fn in project.functions_named("render")}
    assert names == {
        "pkg/codec.py::Writer.render",
        "pkg/util.py::render",
    }
    assert project.functions_named("nope") == []


def test_reachable_from_transitive_closure(project):
    flush = project.functions["pkg/codec.py::Writer.flush"]
    reached = {fn.qualname for fn in project.reachable_from([flush])}
    # flush -> Writer.render -> encode -> helper (via the alias the
    # index cannot see through -- "aliased" matches no definition, so
    # helper is only reached if the name resolves; it does not).
    assert "pkg/codec.py::Writer.flush" in reached
    assert "pkg/codec.py::Writer.render" in reached
    assert "pkg/codec.py::encode" in reached


def test_reachable_from_handles_cycles(tmp_path):
    project = build_project(
        tmp_path,
        {
            "a.py": """
                def ping():
                    return pong()

                def pong():
                    return ping()
                """,
        },
    )
    entry = project.functions["a.py::ping"]
    reached = {fn.name for fn in project.reachable_from([entry])}
    assert reached == {"ping", "pong"}

