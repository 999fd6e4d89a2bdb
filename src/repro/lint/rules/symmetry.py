"""PL103 -- encode/decode symmetry over the wire format.

Every byte an encoder emits must be consumed by its decoder at the
same position, in the same shape.  This rule pairs ``encode_X`` with
``decode_X`` / ``parse_X`` (and ``serialize_X`` with ``deserialize_X``)
across the whole project, runs a small symbolic interpreter over each
side, and compares the resulting *token sequences*:

========  ==========================================================
token     produced by / consumed by
========  ==========================================================
BYTE      ``out.append(x)``           /  ``data[i]``, ``data[pos]``
VARINT    ``out += encode_uvarint(v)`` / ``v, pos = decode_uvarint(...)``
FIXED(n)  ``out += x.to_bytes(n, ..)``, ``struct.pack(fmt, ..)``,
          bytes constants             /  ``data[a:b]`` with known width
BYTES     variable-length payloads    /  ``data[pos:pos+length]``,
          (names, tails, records)        ``data[pos:]``
========  ==========================================================

The interpreter is deliberately *prefix-honest*: guard ``if``\\ s whose
body only raises are skipped (their tests still count -- that is where
decoders read magic bytes), helper parsers (``checked_uvarint``,
``parse_planned_header``) are **spliced in** by recursing into the
callee, and the first structural branch or loop stops extraction with
a truncation mark.  A truncated side only constrains the common
prefix; two complete sides must also agree on length, except that an
encoder may emit trailing BYTES payloads a header parser leaves to its
caller (``parse_planned_header`` returns the inner record's offset
instead of consuming it).

Literal-offset reads (``data[:4]``, ``data[4]``, ``trailer[12:]``)
are ordered by offset, not source position -- ``decode_trailer``
checks the end marker before the length field and is still symmetric.
``FIXED(1)`` and BYTE are interchangeable.
"""

from __future__ import annotations

import ast
import struct
from typing import Iterable

from repro.lint.engine import Finding, Rule
from repro.lint.project import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = ["EncodeDecodeSymmetryRule"]

BYTE = ("BYTE",)
VARINT = ("VARINT",)
BYTES = ("BYTES",)


def FIXED(n: int) -> tuple:
    return ("FIXED", n)


#: Calls treated as primitives, never spliced.
_VARINT_DECODERS = {"decode_uvarint"}
_VARINT_ENCODERS = {"encode_uvarint"}

#: encoder prefix -> decoder prefixes tried for the same stem.
_PAIR_PREFIXES = {
    "encode": ("decode", "parse"),
    "serialize": ("deserialize", "parse"),
}

#: Stems that *are* the primitives; pairing them against themselves
#: would just re-derive the intrinsic table.
_SKIP_STEMS = {"uvarint", "uvarint_array"}

_MAX_SPLICE_DEPTH = 4


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted_module_index(project: ProjectIndex) -> dict[str, ModuleInfo]:
    """``repro.storage.format`` -> its ModuleInfo, for import resolution."""
    out: dict[str, ModuleInfo] = {}
    for relpath, info in project.modules.items():
        parts = relpath[:-3].split("/") if relpath.endswith(".py") else []
        while parts and parts[0] in ("src", "lib"):
            parts = parts[1:]
        if parts:
            out[".".join(parts)] = info
    return out


def _resolve_bytes_len(
    name: str, info: ModuleInfo, dotted: dict[str, ModuleInfo]
) -> int | None:
    """Length of a bytes/str constant visible as ``name`` in ``info``."""
    length = info.constant_bytes_len(name)
    if length is not None:
        return length
    source = info.imports.get(name)
    if source and "." in source:
        module_name, _, attr = source.rpartition(".")
        other = dotted.get(module_name)
        if other is not None:
            return other.constant_bytes_len(attr)
    return None


def _is_guard_if(stmt: ast.If) -> bool:
    """``if cond: raise ...`` with no else -- a validation guard."""
    return (
        not stmt.orelse
        and all(isinstance(s, ast.Raise) for s in stmt.body)
    )


def _handlers_reraise(stmt: ast.Try) -> bool:
    """Every except handler ends by raising (error-normalizing try)."""
    if not stmt.handlers:
        return False
    for handler in stmt.handlers:
        if not handler.body or not isinstance(handler.body[-1], ast.Raise):
            return False
    return True


class _Extraction:
    """Token stream for one side, plus how extraction ended."""

    def __init__(self) -> None:
        self.tokens: list[tuple] = []
        #: Hit a structural branch or loop: only a prefix is known.
        self.truncated = False
        #: Extraction never found the shape it looks for at all.
        self.applicable = False


def _mentions(stmt: ast.stmt, name: str) -> bool:
    """Whether ``name`` occurs anywhere inside ``stmt``."""
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(stmt)
    )


class _EmitExtractor:
    """Symbolic pass over an encoder: the bytes it appends, in order."""

    def __init__(self, project: "EncodeDecodeSymmetryRule", fn: FunctionInfo):
        self.rule = project
        self.fn = fn

    def run(self, depth: int = 0) -> _Extraction:
        ext = _Extraction()
        acc: str | None = None
        for stmt in self.fn.node.body:
            if (
                acc is None
                and isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and _call_name(stmt.value) == "bytearray"
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                acc = stmt.targets[0].id
                ext.applicable = True
                continue
            if acc is None:
                continue
            if not self._step(stmt, acc, ext, depth):
                break
        return ext

    def _step(
        self, stmt: ast.stmt, acc: str, ext: _Extraction, depth: int
    ) -> bool:
        """Process one statement; ``False`` ends extraction."""
        if isinstance(stmt, ast.Return):
            return False
        if isinstance(stmt, ast.If):
            if _is_guard_if(stmt):
                return True
            if not _mentions(stmt, acc):
                return True  # layout-neutral branch (flag computation)
            ext.truncated = True
            return False
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if not _mentions(stmt, acc):
                return True
            ext.truncated = True
            return False
        if isinstance(stmt, ast.Try):
            if not _handlers_reraise(stmt):
                ext.truncated = True
                return False
            for sub in stmt.body:
                if not self._step(sub, acc, ext, depth):
                    return False
            return True
        if isinstance(stmt, ast.AugAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == acc
                and isinstance(stmt.op, ast.Add)
            ):
                self._classify(stmt.value, ext, depth)
            return True
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == acc
            ):
                if func.attr == "append":
                    ext.tokens.append(BYTE)
                elif func.attr == "extend" and call.args:
                    self._classify(call.args[0], ext, depth)
            return True
        return True

    def _classify(self, value: ast.expr, ext: _Extraction, depth: int) -> None:
        """Append the token(s) one ``out += value`` contributes."""
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name in _VARINT_ENCODERS:
                ext.tokens.append(VARINT)
                return
            if name == "to_bytes" and value.args:
                width = value.args[0]
                if isinstance(width, ast.Constant) and isinstance(
                    width.value, int
                ):
                    ext.tokens.append(FIXED(width.value))
                    return
            if name == "pack" and value.args:
                fmt = value.args[0]
                if isinstance(fmt, ast.Constant) and isinstance(
                    fmt.value, str
                ):
                    try:
                        ext.tokens.append(FIXED(struct.calcsize(fmt.value)))
                        return
                    except struct.error:
                        pass
            spliced = self.rule.emit_tokens_for_name(
                name, self.fn, depth + 1
            )
            if spliced is not None:
                ext.tokens.extend(spliced.tokens)
                if spliced.truncated:
                    ext.truncated = True
                return
            ext.tokens.append(BYTES)
            return
        if isinstance(value, ast.Constant) and isinstance(
            value.value, (bytes, str)
        ):
            ext.tokens.append(FIXED(len(value.value)))
            return
        if isinstance(value, ast.Name):
            length = _resolve_bytes_len(
                value.id, self.fn.module, self.rule.dotted
            )
            if length is not None:
                ext.tokens.append(FIXED(length))
                return
        ext.tokens.append(BYTES)


class _ConsumeExtractor:
    """Symbolic pass over a decoder: the fields it reads from its buffer."""

    def __init__(self, rule: "EncodeDecodeSymmetryRule", fn: FunctionInfo):
        self.rule = rule
        self.fn = fn
        self.data_name = self._buffer_param()

    def _buffer_param(self) -> str | None:
        """The parameter the function subscripts / parses the most."""
        args = self.fn.node.args
        params = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        params = [p for p in params if p != "self"]
        counts = dict.fromkeys(params, 0)
        for node in ast.walk(self.fn.node):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in counts
            ):
                counts[node.value.id] += 1
            elif isinstance(node, ast.Call) and _call_name(node) in (
                _VARINT_DECODERS | set(self.rule.consumer_names)
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in counts:
                        counts[arg.id] += 1
        best = max(counts, key=lambda p: counts[p], default=None)
        if best is not None and counts[best] > 0:
            return best
        return None

    def run(self, depth: int = 0) -> _Extraction:
        ext = _Extraction()
        if self.data_name is None:
            return ext
        ext.applicable = True
        literal: list[tuple[int, tuple]] = []
        cursor: list[tuple] = []
        self._suite(self.fn.node.body, literal, cursor, ext, depth)
        seen: set[tuple] = set()
        ordered: list[tuple] = []
        for offset, token in sorted(literal, key=lambda item: item[0]):
            if (offset, token) in seen:
                continue
            seen.add((offset, token))
            ordered.append(token)
        ext.tokens = ordered + cursor
        return ext

    def _suite(
        self,
        body: list[ast.stmt],
        literal: list[tuple[int, tuple]],
        cursor: list[tuple],
        ext: _Extraction,
        depth: int,
    ) -> bool:
        for stmt in body:
            if not self._step(stmt, literal, cursor, ext, depth):
                return False
        return True

    def _step(
        self,
        stmt: ast.stmt,
        literal: list[tuple[int, tuple]],
        cursor: list[tuple],
        ext: _Extraction,
        depth: int,
    ) -> bool:
        if isinstance(stmt, ast.Return):
            self._scan(stmt, literal, cursor, depth)
            return False
        if isinstance(stmt, ast.If):
            if _is_guard_if(stmt):
                # The test is where magic bytes get read; the raise-only
                # body often re-reads them for the error message -- skip it.
                self._scan_expr(stmt.test, literal, cursor, depth)
                return True
            if not _mentions(stmt, self.data_name):
                return True  # layout-neutral branch
            ext.truncated = True
            return False
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if not _mentions(stmt, self.data_name):
                return True
            ext.truncated = True
            return False
        if isinstance(stmt, ast.Try):
            if not _handlers_reraise(stmt):
                ext.truncated = True
                return False
            return self._suite(stmt.body, literal, cursor, ext, depth)
        self._scan(stmt, literal, cursor, depth)
        return True

    def _scan(
        self,
        stmt: ast.stmt,
        literal: list[tuple[int, tuple]],
        cursor: list[tuple],
        depth: int,
    ) -> None:
        for expr in ast.iter_child_nodes(stmt):
            if isinstance(expr, ast.expr):
                self._scan_expr(expr, literal, cursor, depth)

    def _scan_expr(
        self,
        expr: ast.expr,
        literal: list[tuple[int, tuple]],
        cursor: list[tuple],
        depth: int,
    ) -> None:
        # Source order within the statement keeps multi-event
        # statements (rare) deterministic.
        events = sorted(
            (
                node
                for node in ast.walk(expr)
                if self._is_event(node)
            ),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in events:
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in _VARINT_DECODERS:
                    cursor.append(VARINT)
                    continue
                spliced = self.rule.consume_tokens_for_name(
                    name, self.fn, depth + 1
                )
                if spliced is not None:
                    cursor.extend(spliced.tokens)
                continue
            self._subscript(node, expr, literal, cursor)

    def _is_event(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == self.data_name
                and isinstance(getattr(node, "ctx", None), ast.Load)
            )
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _VARINT_DECODERS or name in self.rule.consumer_names:
                return any(
                    isinstance(arg, ast.Name) and arg.id == self.data_name
                    for arg in node.args
                )
        return False

    def _subscript(
        self,
        node: ast.Subscript,
        context: ast.expr,
        literal: list[tuple[int, tuple]],
        cursor: list[tuple],
    ) -> None:
        index = node.slice
        if not isinstance(index, ast.Slice):
            if isinstance(index, ast.Constant) and isinstance(
                index.value, int
            ):
                literal.append((index.value, BYTE))
            else:
                cursor.append(BYTE)
            return
        lower, upper = index.lower, index.upper
        lower_lit = (
            lower.value
            if isinstance(lower, ast.Constant)
            and isinstance(lower.value, int)
            else 0
            if lower is None
            else None
        )
        upper_lit = (
            upper.value
            if isinstance(upper, ast.Constant)
            and isinstance(upper.value, int)
            else None
        )
        if lower_lit is not None and upper_lit is not None:
            literal.append((lower_lit, FIXED(upper_lit - lower_lit)))
            return
        if lower_lit is not None and upper is None:
            # data[12:] -- open tail at a known offset.  Compared
            # against a bytes constant it has that constant's width.
            width = self._compare_partner_len(node, context)
            token = FIXED(width) if width is not None else BYTES
            literal.append((lower_lit, token))
            return
        # Cursor-relative: data[pos], data[pos:pos+N], data[pos:pos+n].
        if upper is not None and isinstance(upper, ast.BinOp) and isinstance(
            upper.op, ast.Add
        ):
            step = upper.right
            if isinstance(step, ast.Constant) and isinstance(step.value, int):
                cursor.append(
                    BYTE if step.value == 1 else FIXED(step.value)
                )
                return
        cursor.append(BYTES)

    def _compare_partner_len(
        self, node: ast.Subscript, context: ast.expr
    ) -> int | None:
        for cmp in ast.walk(context):
            if not isinstance(cmp, ast.Compare):
                continue
            sides = [cmp.left] + list(cmp.comparators)
            if not any(side is node for side in sides):
                continue
            for side in sides:
                if isinstance(side, ast.Name):
                    length = _resolve_bytes_len(
                        side.id, self.fn.module, self.rule.dotted
                    )
                    if length is not None:
                        return length
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, bytes
                ):
                    return len(side.value)
        return None


def _token_text(token: tuple) -> str:
    if token == BYTE:
        return "a single byte"
    if token == VARINT:
        return "a uvarint"
    if token == BYTES:
        return "a variable-length payload"
    return f"a fixed {token[1]}-byte field"


def _compatible(a: tuple, b: tuple) -> bool:
    if a == b:
        return True
    pair = {a, b}
    return pair == {BYTE, FIXED(1)}


class EncodeDecodeSymmetryRule(Rule):
    """Paired encoders and decoders agree field-by-field on the layout."""

    code = "PL103"
    title = "encode/decode symmetry"
    rationale = (
        "A decoder that reads field 4 one byte wide while the encoder "
        "wrote a uvarint decodes garbage exactly when values grow past "
        "127 -- long after the tests that used small values went green; "
        "comparing the two token sequences catches the drift at lint "
        "time."
    )
    analysis_version = 2
    requires_project = True
    example_bad = (
        "def encode_rec(name: bytes) -> bytes:\n"
        "    out = bytearray()\n"
        "    out += encode_uvarint(len(name))   # length as uvarint\n"
        "    out += name\n"
        "    return bytes(out)\n"
        "\n"
        "def decode_rec(data):\n"
        "    n = data[0]                        # length as one byte!\n"
        "    return bytes(data[1 : 1 + n])\n"
    )
    example_good = (
        "def decode_rec(data):\n"
        "    n, pos = decode_uvarint(data, 0)   # matches the encoder\n"
        "    return bytes(data[pos : pos + n])\n"
    )

    def __init__(self) -> None:
        self.project: ProjectIndex | None = None
        self.dotted: dict[str, ModuleInfo] = {}
        self._emit_cache: dict[str, _Extraction | None] = {}
        self._consume_cache: dict[str, _Extraction | None] = {}
        #: Bare names of known consumer helpers (anything def'd with a
        #: buffer-parsing shape); used when scoring buffer params.
        self.consumer_names: set[str] = set()

    # -- splice helpers (shared caches) ---------------------------------

    def _resolve_callee(
        self, name: str, caller: FunctionInfo
    ) -> FunctionInfo | None:
        """Resolve a bare callee name: caller's module, then its imports,
        then a project-wide unique match.  Ambiguity means no splice."""
        assert self.project is not None
        local = [
            f
            for f in caller.module.functions.values()
            if f.name == name and f.class_name is None
        ]
        if len(local) == 1:
            return local[0]
        source = caller.module.imports.get(name)
        if source and "." in source:
            module_name, _, attr = source.rpartition(".")
            other = self.dotted.get(module_name)
            if other is not None:
                imported = [
                    f
                    for f in other.functions.values()
                    if f.name == attr and f.class_name is None
                ]
                if len(imported) == 1:
                    return imported[0]
        candidates = self.project.functions_named(name)
        if len(candidates) == 1:
            return candidates[0]
        return None

    def emit_tokens_for_name(
        self, name: str | None, caller: FunctionInfo, depth: int
    ) -> _Extraction | None:
        if (
            name is None
            or depth > _MAX_SPLICE_DEPTH
            or self.project is None
        ):
            return None
        callee = self._resolve_callee(name, caller)
        if callee is None:
            return None
        if callee.qualname in self._emit_cache:
            return self._emit_cache[callee.qualname]
        self._emit_cache[callee.qualname] = None  # cycle guard
        ext = _EmitExtractor(self, callee).run(depth)
        result = ext if ext.applicable and ext.tokens else None
        self._emit_cache[callee.qualname] = result
        return result

    def consume_tokens_for_name(
        self, name: str | None, caller: FunctionInfo, depth: int
    ) -> _Extraction | None:
        if (
            name is None
            or name in _VARINT_DECODERS
            or depth > _MAX_SPLICE_DEPTH
            or self.project is None
        ):
            return None
        callee = self._resolve_callee(name, caller)
        if callee is None:
            return None
        if callee.qualname in self._consume_cache:
            return self._consume_cache[callee.qualname]
        self._consume_cache[callee.qualname] = None  # cycle guard
        ext = _ConsumeExtractor(self, callee).run(depth)
        result = (
            ext
            if ext.applicable and ext.tokens and not ext.truncated
            else None
        )
        self._consume_cache[callee.qualname] = result
        return result

    # -- the check ------------------------------------------------------

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        self.project = project
        self.dotted = _dotted_module_index(project)
        self._emit_cache = {}
        self._consume_cache = {}
        self.consumer_names = {
            name
            for name in project.by_name
            if name.startswith(("decode_", "parse_", "checked_"))
            or name in ("_decode_preamble", "_sized_field")
        }
        for encoder, decoder in self._pairs(project):
            yield from self._compare(encoder, decoder)

    def _pairs(
        self, project: ProjectIndex
    ) -> Iterable[tuple[FunctionInfo, FunctionInfo]]:
        for name in sorted(project.by_name):
            for prefix, partners in _PAIR_PREFIXES.items():
                if not name.startswith(prefix + "_"):
                    continue
                stem = name[len(prefix) + 1 :]
                if stem in _SKIP_STEMS:
                    continue
                encoders = project.functions_named(name)
                if len(encoders) != 1:
                    continue
                for partner_prefix in partners:
                    decoders = project.functions_named(
                        f"{partner_prefix}_{stem}"
                    )
                    if len(decoders) == 1:
                        yield encoders[0], decoders[0]
                        break

    def _compare(
        self, encoder: FunctionInfo, decoder: FunctionInfo
    ) -> Iterable[Finding]:
        emit = _EmitExtractor(self, encoder).run()
        consume = _ConsumeExtractor(self, decoder).run()
        if not emit.applicable or not consume.applicable:
            return
        if not emit.tokens or not consume.tokens:
            return
        common = min(len(emit.tokens), len(consume.tokens))
        for i in range(common):
            if not _compatible(emit.tokens[i], consume.tokens[i]):
                yield self._finding(
                    decoder,
                    f"'{decoder.name}' reads field {i + 1} as "
                    f"{_token_text(consume.tokens[i])} where "
                    f"'{encoder.name}' writes {_token_text(emit.tokens[i])}; "
                    "the layouts diverge from this field on",
                )
                return
        if emit.truncated or consume.truncated:
            return  # only the common prefix is provable
        if len(consume.tokens) > len(emit.tokens):
            extra = consume.tokens[len(emit.tokens)]
            yield self._finding(
                decoder,
                f"'{decoder.name}' reads {len(consume.tokens)} fields but "
                f"'{encoder.name}' writes only {len(emit.tokens)}; field "
                f"{len(emit.tokens) + 1} ({_token_text(extra)}) has no "
                "encoded counterpart",
            )
        elif len(emit.tokens) > len(consume.tokens):
            surplus = emit.tokens[len(consume.tokens) :]
            # A header parser may leave trailing payloads to its caller.
            if all(token == BYTES for token in surplus):
                return
            first_bad = next(t for t in surplus if t != BYTES)
            yield self._finding(
                decoder,
                f"'{encoder.name}' writes {len(emit.tokens)} fields but "
                f"'{decoder.name}' stops after {len(consume.tokens)}; "
                f"{_token_text(first_bad)} is never consumed",
            )

    def _finding(self, decoder: FunctionInfo, message: str) -> Finding:
        return Finding(
            rule=self.code,
            message=message,
            path=decoder.relpath,
            line=decoder.node.lineno,
            col=decoder.node.col_offset,
            severity=self.severity,
            analysis_version=self.analysis_version,
        )
