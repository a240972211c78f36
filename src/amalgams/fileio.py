"""Text file formats: groups, amalgams, group graphs, witness certificates,
and the search budget config (its keys are the SearchBudget fields).

All serializations are canonical: serializing a parsed value reproduces the
input byte-for-byte, so files round-trip exactly.  Hence a group file's
identity must be element 0, no element name may read as another index, and
a key given twice in ``key value`` lines is rejected.
"""

from __future__ import annotations

import os
from dataclasses import fields
from pathlib import Path
from typing import Optional

from . import amalgam as am
from . import fingroup
from . import graphgroups as gg
from . import separability as sep
from .amalgam import TAG_H, TAG_K, AmalgamSpec, Word
from .errors import ParseError
from .fingroup import FiniteGroup, GroupHom


# -- group files --------------------------------------------------------

def serialize_group(G: FiniteGroup) -> str:
    lines = [f"order {G.order}", "table"]
    lines.extend(" ".join(str(x) for x in row) for row in G.table)
    if G.names:
        lines.append("names " + " ".join(G.names))
    return "\n".join(lines) + "\n"


def _ints(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise ParseError(f"{what}: expected integers, got "
                         f"{' '.join(tokens)!r}") from None


def parse_group(text: str) -> FiniteGroup:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    order = None
    table = []
    names = None
    i = 0
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("order "):
            order, *extra = _ints(ln.split()[1:], "order")
            if extra:
                raise ParseError(f"order line {ln!r} gives more than one value")
        elif ln == "table":
            if order is None:
                raise ParseError("order must precede table")
            for j in range(order):
                i += 1
                if i >= len(lines):
                    raise ParseError("truncated table")
                table.append(_ints(lines[i].split(), "table row"))
        elif ln.startswith("names "):
            names = ln.split()[1:]
        elif ln.startswith("presentation "):
            pass  # documentation only
        else:
            raise ParseError(f"unrecognized line: {ln!r}")
        i += 1
    if order is None or len(table) != order:
        raise ParseError("missing or incomplete table")
    if names is not None and len(names) != order:
        raise ParseError(f"names line has {len(names)} names for order {order}")
    if names is not None and len(set(names)) != order:
        raise ParseError("names line repeats a name")
    G = fingroup.from_table(order, table, names)
    for i, name in enumerate(G.names or ()):
        if fingroup.names_other_index(name, i):
            raise ParseError(
                f"element {i} is named {name!r}, a different index")
    return G


def _keyed(lines: list[str], where: str,
           required: tuple[str, ...] = ()) -> dict[str, str]:
    """``key value`` lines as key -> value, the rest of the line.  Raises
    ParseError naming a key given twice or a required key that is missing
    or has no value."""
    values: dict[str, str] = {}
    for ln in lines:
        key, *rest = ln.split()
        if key in values:
            raise ParseError(f"{where} key {key!r} given twice")
        values[key] = " ".join(rest)
    for key in required:
        if not values.get(key):
            raise ParseError(f"{where}: missing or empty {key!r} line")
    return values


def load_group(path: str | Path) -> FiniteGroup:
    return parse_group(Path(path).read_text())


# -- amalgam files ------------------------------------------------------

def serialize_amalgam(spec: AmalgamSpec) -> str:
    parts = ["[H]", serialize_group(spec.H).rstrip("\n"),
             "[K]", serialize_group(spec.K).rstrip("\n"),
             "[A]", "elements " + " ".join(str(a) for a in spec.A.elements),
             "[B]", "elements " + " ".join(str(b) for b in spec.B.elements),
             "[phi]"]
    parts.extend(f"{a} {b}" for a, b in spec.phi)
    return "\n".join(parts) + "\n"


def _split_sections(text: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            sections.setdefault(current, [])
        elif current is None:
            raise ParseError(f"content before first section: {ln!r}")
        else:
            sections[current].append(ln)
    return sections


def parse_amalgam(text: str) -> AmalgamSpec:
    sections = _split_sections(text)
    for name in ("H", "K", "A", "B", "phi"):
        if name not in sections:
            raise ParseError(f"missing section [{name}]")
    H = parse_group("\n".join(sections["H"]))
    K = parse_group("\n".join(sections["K"]))

    def elements(name: str) -> list[int]:
        lines = sections[name]
        words = lines[0].split() if len(lines) == 1 else []
        if words[:1] != ["elements"]:
            raise ParseError("subgroup section must be a single 'elements' line")
        elts = _ints(words[1:], "elements")
        for i, e in enumerate(elts):
            if e in elts[:i]:
                raise ParseError(f"[{name}] lists element {e} twice")
        return elts

    phi = {}
    for ln in sections["phi"]:
        pair = _ints(ln.split(), "phi")
        if len(pair) != 2:
            raise ParseError(f"phi line {ln!r} is not a pair 'a b'")
        if pair[0] in phi:
            raise ParseError(f"[phi] maps element {pair[0]} twice")
        phi[pair[0]] = pair[1]
    return am.make_amalgam(H, K, elements("A"), elements("B"), phi)


def load_amalgam(path: str | Path) -> AmalgamSpec:
    return parse_amalgam(Path(path).read_text())


# -- word literals ------------------------------------------------------

def parse_word(spec: AmalgamSpec, literal: str) -> Word:
    """`H:3 K:1 H:2`; tokens are element indices or names; '' is identity."""
    syllables = []
    for token in literal.split():
        if ":" not in token:
            raise ParseError(f"bad syllable {token!r}, expected TAG:element")
        tag, _, elt = token.partition(":")
        if tag not in (TAG_H, TAG_K):
            raise ParseError(f"bad factor tag {tag!r}")
        syllables.append((tag, spec.factor(tag).index_of_name(elt)))
    return am.word(syllables)


def render_word(spec: AmalgamSpec, w: Word) -> str:
    return " ".join(f"{tag}:{e}" for tag, e in w)


# -- group-graph files --------------------------------------------------

def parse_group_graph(text: str, base_dir: str | Path = ".") -> gg.GroupGraph:
    """Vertex lines reference group files; each edge line gives one geometric
    edge.

    Sections: ``[vertex NAME]`` with a ``group PATH`` line, and
    ``[edge NAME ORIG TERM]`` with ``group PATH``, ``rho i0 i1 ...`` and
    ``tau i0 i1 ...`` lines (images of edge-group elements in order).
    """
    base = Path(base_dir)
    sections = _split_sections(text)
    vertex_group: dict[str, FiniteGroup] = {}
    edges: dict[str, tuple[str, str, FiniteGroup, list[int], list[int]]] = {}
    for header, lines in sections.items():
        words = header.split()
        if words[:1] == ["vertex"] and len(words) == 2:
            name = words[1]
            if name in vertex_group:
                raise ParseError(f"[{header}]: vertex {name} declared twice")
            values = _keyed(lines, f"[{header}]", ("group",))
            vertex_group[name] = load_group(base / _path(values, header))
        elif words[:1] == ["edge"] and len(words) == 4:
            name, orig, term = words[1:]
            if name in edges:
                raise ParseError(f"[{header}]: edge {name} declared twice")
            values = _keyed(lines, f"[{header}]", ("group", "rho", "tau"))
            egrp = load_group(base / _path(values, header))
            rho = _ints(values["rho"].split(), "rho")
            tau = _ints(values["tau"].split(), "tau")
            edges[name] = (orig, term, egrp, rho, tau)
        else:
            raise ParseError(f"bad section header [{header}], expected "
                             f"[vertex NAME] or [edge NAME ORIG TERM]")
    if not vertex_group:
        raise ParseError("no [vertex] section")
    edge_list = []
    for name, (o, t, egrp, rho, tau) in sorted(edges.items()):
        for v in (o, t):
            if v not in vertex_group:
                raise ParseError(f"edge {name}: unknown vertex {v!r}")
        rho_hom = GroupHom(egrp, vertex_group[o], tuple(rho))
        tau_hom = GroupHom(egrp, vertex_group[t], tuple(tau))
        if not (rho_hom.is_valid() and tau_hom.is_valid()):
            raise ParseError(f"edge {name}: rho/tau are not homomorphisms")
        edge_list.append(gg.Edge(name, o, t, egrp, rho_hom, tau_hom))
    return gg.make_group_graph(vertex_group, edge_list)


def _path(values: dict[str, str], header: str) -> str:
    """The one path of a section's ``group`` line."""
    path, *extra = values["group"].split()
    if extra:
        raise ParseError(f"[{header}]: group line names more than one "
                         f"path: {values['group']!r}")
    return path


def load_group_graph(path: str | Path) -> gg.GroupGraph:
    p = Path(path)
    return parse_group_graph(p.read_text(), p.parent)


# -- witness certificates ------------------------------------------------

def certificate_images(w: sep.Witness, f: Word, g: Word) -> dict[str, int]:
    """The [images] section: the images of f and g in the target and the
    first element of each image's conjugacy class."""
    fi, gi = sep.word_image(w, f), sep.word_image(w, g)
    return {"f_image": fi, "g_image": gi,
            "f_class_rep": fingroup.class_of(w.target, fi)[0],
            "g_class_rep": fingroup.class_of(w.target, gi)[0]}


def serialize_certificate(spec: AmalgamSpec, w: sep.Witness,
                          f: Word, g: Word) -> str:
    """Self-contained certificate for third-party re-verification."""
    lines = ["[witness]",
             f"strategy {w.strategy_tag}",
             f"f {render_word(spec, f) or '-'}",
             f"g {render_word(spec, g) or '-'}",
             "[target]",
             serialize_group(w.target).rstrip("\n"),
             "[psi_H]",
             " ".join(str(x) for x in w.psi_H.images),
             "[psi_K]",
             " ".join(str(x) for x in w.psi_K.images),
             "[images]"]
    lines += [f"{key} {value}" for key, value in certificate_images(w, f, g).items()]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> dict:
    """Inverse of serialize_certificate; ParseError on a missing section,
    key or value, a key given twice, or a [psi_H] or [psi_K] section that
    is not exactly one line."""
    sections = _split_sections(text)

    def section(name: str) -> list[str]:
        if not sections.get(name):
            raise ParseError(f"missing or empty section [{name}]")
        return sections[name]

    def images_line(name: str) -> list[int]:
        lines = section(name)
        if len(lines) != 1:
            raise ParseError(f"section [{name}] must be a single line, "
                             f"has {len(lines)}")
        return _ints(lines[0].split(), name)

    meta = _keyed(section("witness"), "[witness]", ("strategy", "f", "g"))
    target = parse_group("\n".join(section("target")))
    psi_h = images_line("psi_H")
    psi_k = images_line("psi_K")
    image_keys = ("f_image", "g_image", "f_class_rep", "g_class_rep")
    found = _keyed(section("images"), "[images]", image_keys)
    images = {key: _ints([found[key]], key)[0] for key in image_keys}
    return {"strategy": meta["strategy"],
            "f": "" if meta["f"] == "-" else meta["f"],
            "g": "" if meta["g"] == "-" else meta["g"],
            "target": target,
            "psi_H": tuple(psi_h),
            "psi_K": tuple(psi_k),
            "images": images}


# -- search budget config ------------------------------------------------

ENV_PREFIX = "AMALGAMS_"


def load_config(path: Optional[str | Path] = None,
                env: Optional[dict[str, str]] = None) -> sep.SearchBudget:
    """The search budget: `key value` lines, one integer per SearchBudget
    field, with the field's default for a key not given; environment
    variables AMALGAMS_<KEY> override.  An unknown key in the file raises
    ParseError naming the accepted keys; a key given twice in the file, or
    a value (from the file or the environment) that is not an integer,
    raises ParseError naming the key; SearchBudget raises for a p that is
    not prime or a cap below 1."""
    keys = [fld.name for fld in fields(sep.SearchBudget)]
    values: dict[str, str] = {}
    if path is not None:
        lines = [ln for ln in Path(path).read_text().splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        values = _keyed(lines, "config")
        for key in values:
            if key not in keys:
                raise ParseError(f"unknown config key {key!r}; accepted "
                                 f"keys: {', '.join(keys)}")
    env = os.environ if env is None else env
    for key in keys:
        ev = env.get(ENV_PREFIX + key.upper())
        if ev is not None:
            values[key] = ev
    ints = {}
    for key, val in values.items():
        try:
            ints[key] = int(val)
        except ValueError:
            raise ParseError(f"config key {key!r} needs an integer value, "
                             f"got {val!r}") from None
    return sep.SearchBudget(**ints)
