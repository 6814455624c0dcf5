"""Graph files and profile writing: the readers and writers that check
runs only with --graph-out and gen runs, kept out of profiles so that a
plain check never loads them.

parse_graph reads an edge list ('u v' lines) or the DOT text that
export_dot writes; write_native writes a profile that parse_native reads
back unchanged. Every reader accepts bytes or str, raises only package
errors, and gives every failure a line number.
"""

import re
from itertools import chain
from typing import Sequence

from .errors import ProfileSyntaxError, UnrepresentableName
from .graph import ConnectivityGraph
from .model import Election, default_names
from .profiles import MAX_VERTICES, _decode

_DOT_NAME = r'"((?:[^"\\]|\\["\\])*)"'  # export_dot escapes exactly '"' and '\'
_DOT_LINE_RE = re.compile(rf"{_DOT_NAME}(?:\s*--\s*{_DOT_NAME})?\s*;?")


def write_native(election: Election) -> str:
    """Serialize an Election to the native format; parse_native inverts this exactly."""
    for name in election.names:
        # the parser splits lines with str.splitlines, at more breaks than '\n'
        if "," in name or ">" in name or (name and name.splitlines() != [name]):
            raise UnrepresentableName(
                f"candidate name {name!r} contains a reserved character (',', '>', line break)"
            )
        if not name or name != name.strip():
            raise UnrepresentableName(
                f"candidate name {name!r} is empty or has surrounding whitespace, "
                "which parse_native would not read back"
            )
    lines = ["candidates: " + ", ".join(election.names)]
    names = election.names
    for ranking, mult in election.votes:
        lines.append(f"{mult}: " + " > ".join(names[c] for c in ranking))
    return "\n".join(lines) + "\n"


def parse_graph(data: str | bytes) -> tuple[ConnectivityGraph, tuple[str, ...]]:
    """A graph and its vertex names from an edge list ('u v' lines, 0-based
    ids below MAX_VERTICES, named by default_names) or, when the first line
    starts with 'graph', from DOT. Blank and '#' lines are skipped. Every
    failure is a ProfileSyntaxError with its line (the last for a file with
    no edge or vertex), raised before any per-vertex storage is allocated."""
    lines = _decode(data).splitlines()
    body = [(no, line) for no, line in enumerate(map(str.strip, lines), start=1) if line and line[0] != "#"]
    eof = max(1, len(lines))
    if body and body[0][1].startswith("graph"):
        return _parse_dot(body, eof)

    edges = []
    for line_no, line in body:
        parts = line.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ProfileSyntaxError(f"expected a 'u v' edge line, got {line!r}", line=line_no)
        ids = []
        for part in parts:
            digits = part.lstrip("0") or "0"
            # the length test keeps int() off ids too long to convert
            if len(digits) > len(str(MAX_VERTICES)) or int(digits) >= MAX_VERTICES:
                raise ProfileSyntaxError(
                    f"vertex id {part} is beyond the supported {MAX_VERTICES} vertices", line=line_no
                )
            ids.append(int(digits))
        u, v = ids
        if u == v:
            raise ProfileSyntaxError(f"self-loop at vertex {u}", line=line_no)
        edges.append((u, v))
    if not edges:
        raise ProfileSyntaxError("no edges; cannot infer the vertex count", line=eof)
    m = max(map(max, edges)) + 1
    return ConnectivityGraph(m, edges), default_names(m)


def _parse_dot(body: list[tuple[int, str]], eof: int) -> tuple[ConnectivityGraph, tuple[str, ...]]:
    """The inverse of export_dot. After the header 'graph {' each line is
    '"name";' or '"a" -- "b";' (the ';' optional) up to a final '}'. Names
    come declared vertices first, then edge endpoints as they appear."""
    if body[0][1] != "graph {":
        raise ProfileSyntaxError("expected the header 'graph {'", line=body[0][0])
    if body[-1][1] != "}":
        raise ProfileSyntaxError("expected '}' as the last line", line=body[-1][0])
    declared: list[str] = []
    pairs: list[tuple[str, str]] = []
    for line_no, line in body[1:-1]:
        match = _DOT_LINE_RE.fullmatch(line)
        if match is None:
            raise ProfileSyntaxError(f"expected '\"name\";' or '\"a\" -- \"b\";', got {line!r}", line=line_no)
        left, right = (re.sub(r'\\(["\\])', r"\1", name) if name else name for name in match.groups())
        if right is None:
            declared.append(left)
        elif left == right:
            raise ProfileSyntaxError(f"self-loop at vertex {_dot_quote(left)}", line=line_no)
        else:
            pairs.append((left, right))
    ids = {name: i for i, name in enumerate(dict.fromkeys(chain(declared, chain.from_iterable(pairs))))}
    if not ids:
        raise ProfileSyntaxError("DOT graph declares no vertices", line=eof)
    return ConnectivityGraph(len(ids), [(ids[a], ids[b]) for a, b in pairs]), tuple(ids)


def export_dot(graph: ConnectivityGraph, names: Sequence[str]) -> str:
    """Graphviz text for the graph: isolated vertices first, then edges
    ascending. parse_graph reads it back to the same names and named edges."""
    if len(names) != graph.m:
        raise ValueError(f"expected {graph.m} names, got {len(names)}")
    lines = ["graph {"]
    for v in range(graph.m):
        if graph.degree(v) == 0:
            lines.append(f"  {_dot_quote(names[v])};")
    for u, v in graph.edges:
        lines.append(f"  {_dot_quote(names[u])} -- {_dot_quote(names[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'
