"""Text file formats: groups, amalgams, group graphs, witness certificates,
and the search budget config (its keys are the SearchBudget fields).

Section headers ``[name]`` are read by ``_split_sections`` and ``key value``
lines by ``_keyed``; those two alone decide which sections and keys a format
accepts, and they reject a section or key that is given twice or that the
format does not define.  Every text that a ``serialize_*`` function writes
parses back and re-serializes byte for byte.  Other accepted texts, such as
ones with blank lines, a ``presentation`` line or ``names`` before
``table``, parse to the same value as their canonical text.  A group file's
identity must be element 0 and no element name may read as another index,
so the indices in a file name the elements as written.
"""

from __future__ import annotations

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


GROUP_KEYS = ("order", "names", "presentation")


def parse_group(text: str) -> FiniteGroup:
    """``order N`` before a ``table`` line and its N rows; an optional
    ``names`` line and an optional ``presentation`` line (documentation,
    not read) before or after the table."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if "table" not in lines:
        raise ParseError("missing table line")
    t = lines.index("table")
    head = _keyed(lines[:t], "group", GROUP_KEYS, ("order",))
    order, *extra = _ints(head["order"].split(), "order")
    if extra:
        raise ParseError(f"order line {head['order']!r} gives more than one value")
    table = [_ints(row.split(), "table row") for row in lines[t + 1:t + 1 + order]]
    if len(table) != order:
        raise ParseError("missing or incomplete table")
    values = _keyed(lines[:t] + lines[t + 1 + order:], "group", GROUP_KEYS)
    names = values["names"].split() if "names" in values else None
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


def _keyed(lines: list[str], where: str, keys: tuple[str, ...],
           required: tuple[str, ...] = ()) -> dict[str, str]:
    """``key value`` lines as key -> value, the rest of the line.  Raises
    ParseError naming a key outside ``keys``, a key given twice, or a
    required key that is missing or has no value."""
    values: dict[str, str] = {}
    for ln in lines:
        key, *rest = ln.split()
        if key not in keys:
            raise ParseError(f"unknown {where} key {key!r}; accepted keys: "
                             f"{', '.join(keys)}")
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


def _split_sections(text: str,
                    names: tuple[str, ...] = ()) -> dict[str, list[str]]:
    """``[header]`` sections as header -> non-blank lines, with the runs of
    whitespace inside a header read as one space.  Raises ParseError for
    content before the first header or a header given twice; when ``names``
    is given, also for a header outside it or a name whose section is
    missing or empty."""
    sections: dict[str, list[str]] = {}
    current = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("[") and ln.endswith("]"):
            current = " ".join(ln[1:-1].split())
            if current in sections:
                raise ParseError(f"section [{current}] given twice")
            if names and current not in names:
                raise ParseError(f"unknown section [{current}]; accepted "
                                 f"sections: {' '.join(f'[{n}]' for n in names)}")
            sections[current] = []
        elif current is None:
            raise ParseError(f"content before first section: {ln!r}")
        else:
            sections[current].append(ln)
    for name in names:
        if not sections.get(name):
            raise ParseError(f"missing or empty section [{name}]")
    return sections


def parse_amalgam(text: str) -> AmalgamSpec:
    sections = _split_sections(text, ("H", "K", "A", "B", "phi"))
    H = parse_group("\n".join(sections["H"]))
    K = parse_group("\n".join(sections["K"]))

    def elements(name: str) -> list[int]:
        values = _keyed(sections[name], f"[{name}]", ("elements",),
                        ("elements",))
        elts = _ints(values["elements"].split(), "elements")
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
    vertex_group: dict[str, FiniteGroup] = {}
    edges = []
    for header, lines in _split_sections(text).items():
        words = header.split()
        if words[:1] == ["vertex"] and len(words) == 2:
            values = _keyed(lines, f"[{header}]", ("group",), ("group",))
            vertex_group[words[1]] = load_group(base / _path(values, header))
        elif words[:1] == ["edge"] and len(words) == 4:
            keys = ("group", "rho", "tau")
            values = _keyed(lines, f"[{header}]", keys, keys)
            egrp = load_group(base / _path(values, header))
            rho = _ints(values["rho"].split(), "rho")
            tau = _ints(values["tau"].split(), "tau")
            edges.append((*words[1:], egrp, rho, tau))
        else:
            raise ParseError(f"bad section header [{header}], expected "
                             f"[vertex NAME] or [edge NAME ORIG TERM]")
    if not vertex_group:
        raise ParseError("no [vertex] section")
    edge_list = []
    for name, o, t, egrp, rho, tau in edges:
        for v in (o, t):
            if v not in vertex_group:
                raise ParseError(f"edge {name}: unknown vertex {v!r}")
        edge_list.append(gg.Edge(name, o, t, egrp,
                                 GroupHom(egrp, vertex_group[o], tuple(rho)),
                                 GroupHom(egrp, vertex_group[t], tuple(tau))))
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
    least element of each image's conjugacy class."""
    X = w.target
    fi, gi = sep.word_image(w, f), sep.word_image(w, g)
    return {"f_image": fi, "g_image": gi,
            "f_class_rep": min(X.conj(fi, z) for z in X.elements()),
            "g_class_rep": min(X.conj(gi, z) for z in X.elements())}


def serialize_certificate(spec: AmalgamSpec, w: sep.Witness,
                          f: Word, g: Word) -> str:
    """Self-contained certificate for third-party re-verification."""
    lines = ["[witness]",
             "strategy direct",
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
    """Inverse of serialize_certificate; ParseError on a missing, empty,
    repeated or unknown section or key, a key without a value, or a
    [psi_H] or [psi_K] section that is not exactly one line."""
    sections = _split_sections(
        text, ("witness", "target", "psi_H", "psi_K", "images"))

    def images_line(name: str) -> list[int]:
        lines = sections[name]
        if len(lines) != 1:
            raise ParseError(f"section [{name}] must be a single line, "
                             f"has {len(lines)}")
        return _ints(lines[0].split(), name)

    meta_keys = ("strategy", "f", "g")
    meta = _keyed(sections["witness"], "[witness]", meta_keys, meta_keys)
    target = parse_group("\n".join(sections["target"]))
    psi_h = images_line("psi_H")
    psi_k = images_line("psi_K")
    image_keys = ("f_image", "g_image", "f_class_rep", "g_class_rep")
    found = _keyed(sections["images"], "[images]", image_keys, image_keys)
    images = {key: _ints([found[key]], key)[0] for key in image_keys}
    return {"strategy": meta["strategy"],
            "f": "" if meta["f"] == "-" else meta["f"],
            "g": "" if meta["g"] == "-" else meta["g"],
            "target": target,
            "psi_H": tuple(psi_h),
            "psi_K": tuple(psi_k),
            "images": images}


# -- search budget config ------------------------------------------------

def load_config(path: Optional[str | Path] = None) -> sep.SearchBudget:
    """The search budget: `key value` lines, one integer per SearchBudget
    field, with the field's default for a key not given (all defaults with
    no file).  The file is the budget's only source; ``separate -p``
    replaces p after loading.  An unknown key raises ParseError naming the
    accepted keys; a key given twice, or a value that is not an integer,
    raises ParseError naming the key; SearchBudget raises for a p that is
    not prime, a cap below 1 or a max_target_order below p."""
    keys = tuple(fld.name for fld in fields(sep.SearchBudget))
    values: dict[str, str] = {}
    if path is not None:
        lines = [ln for ln in Path(path).read_text().splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        values = _keyed(lines, "config", keys)
    ints = {}
    for key, val in values.items():
        try:
            ints[key] = int(val)
        except ValueError:
            raise ParseError(f"config key {key!r} needs an integer value, "
                             f"got {val!r}") from None
    return sep.SearchBudget(**ints)
