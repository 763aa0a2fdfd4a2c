"""The .gog file format: a YAML document describing a graph of groups.

Schema (see README for the full reference):

    base: v                  # optional; defaults to the least vertex
    tree: [e1]               # optional; orbit names forming a spanning tree
    provenance: [...]        # optional; carried through transformations
    vertices:
      v: {free_abelian: [a]}
    edges:
      e1:
        origin: v
        terminus: w
        group: {free_abelian: [c]}
        fwd:  {matrix: [[2]]}    # hom edge group -> origin vertex group
        back: {matrix: [[3]]}    # hom edge group -> terminus vertex group

Each edge record declares one orbit: the half-edge named ``e1`` runs
origin -> terminus and its reverse is named ``e1^-1``.  Group descriptors:
``{free_abelian: rank-or-letter-list}``, ``{free: rank-or-letter-list}``,
``{cyclic: n}`` (optional ``letter``), or ``{table: {elements, mul, id}}``
(``id`` optional, default 0); any other key is refused.
Hom descriptors: ``identity``, ``{matrix: rows}``, ``{map: [labels-or-
indices]}``, ``{images: [...]}`` with entries matching the target class
(vector, label/index, or space-separated word such as ``"a b^-1"``).

Parsing is strict and reports the offending key path; serialization is
canonical (sorted keys, shorthands expanded), so parse -> serialize ->
parse is the identity on canonical form.

YAML is read and written through libyaml when PyYAML was built with it,
and through PyYAML's pure-Python classes otherwise; this module is the
only one that knows which.
"""

from __future__ import annotations

import reprlib
from collections import Counter

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .errors import GogParseError, InvalidStructure
from .gog import GraphOfGroups
from .graph import AbstractGraph, orbits
from .groups import (
    INVERSE_SUFFIX,
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    Hom,
    cyclic_table,
    format_element,
    parse_element,
)

if yaml.__with_libyaml__:
    YAML_LOADER, YAML_DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    YAML_LOADER, YAML_DUMPER = yaml.SafeLoader, yaml.SafeDumper

# libyaml composes nested collections by C recursion, about 300 bytes of
# stack a level: on an 8 MB main-thread stack 20,000 nested flow lists
# loaded and 25,000 crashed the interpreter; on a 2 MB thread stack
# 6,000 loaded and 9,000 crashed (1 MB: 2,500 and 3,500).
_LIBYAML_MAX_DEPTH = 5000


def _nesting_bound(text):
    """An upper bound on how deeply the YAML in ``text`` nests.

    Each flow collection opens with ``[`` or ``{``, and each mapping has a
    ``:`` or ``?`` of its own.  A block sequence needs a ``-``, and one
    nested in another starts in a later column, so there are no more of
    them in a chain than the longest line has characters.  The ``-`` of
    ``^-1`` words and of block rows thus cost nothing past that length.
    """
    longest = max(map(len, text.split("\n")))
    return sum(map(text.count, "[{:?")) + min(text.count("-"), longest)


_TAG = "tag:yaml.org,2002:"
_STR, _MAP, _SEQ = _TAG + "str", _TAG + "map", _TAG + "seq"
# the other standard scalar tags: their values come from the loader's constructors
_SCALARS = frozenset(_TAG + t for t in ("null", "bool", "int", "float", "binary", "timestamp"))


class _NotPlain(Exception):
    """A node that ``_plain_value`` leaves to the loader's own constructor."""


def _plain_value(loader, root):
    """The value of the composed node ``root``, built the way the safe
    constructor builds it, for a node graph of plain mappings, sequences
    and scalars of the seven standard scalar tags.  Raises _NotPlain on
    anything else: an alias (a node met twice), a key that is not such a
    scalar (so also ``<<`` and ``=``), another tag, or a scalar its
    constructor refuses.

    Containers are filled from a work list, not by recursion: libyaml
    composes up to ``_LIBYAML_MAX_DEPTH`` levels, Python recursion stops
    near 1,000.  A container is linked into its parent before it is
    filled, so the order of the work list does not matter.
    """
    constructors = loader.yaml_constructors
    seen = set()
    work = []

    def value(node):
        if node in seen:
            raise _NotPlain
        seen.add(node)
        tag, kind = node.tag, type(node)
        if kind is ScalarNode:
            if tag == _STR:
                return node.value
            if tag in _SCALARS:
                try:
                    return constructors[tag](loader, node)
                except Exception:  # the loader reports it, in its own construction order
                    raise _NotPlain from None
        elif kind is MappingNode and tag == _MAP or kind is SequenceNode and tag == _SEQ:
            container = {} if kind is MappingNode else []
            work.append((container, node.value))
            return container
        raise _NotPlain

    top = value(root)
    while work:
        container, items = work.pop()
        if type(container) is list:
            container.extend(map(value, items))
            continue
        for key, item in items:
            if type(key) is not ScalarNode:
                raise _NotPlain
            key = value(key)
            container[key] = value(item)
    return top


def _read(loader_class, text):
    """The one YAML document in ``text``, read by ``loader_class``.

    The loader composes the node graph once.  ``_plain_value`` builds the
    values of a plain one; any other graph is built from the same nodes by
    the loader's own constructor, so each value and error is the loader's.
    """
    loader = loader_class(text)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        try:
            return _plain_value(loader, node)
        except _NotPlain:
            return loader.construct_document(node)
    finally:
        loader.dispose()


def _load_yaml(text):
    """The one YAML document in ``text``.

    libyaml reads it when it can.  PyYAML's own parser reads what libyaml
    refuses, so no text stops parsing and a syntax error keeps PyYAML's
    message and line; it also reads text that may nest too deeply for
    libyaml.  Both go through ``_read``.
    """
    if YAML_LOADER is not yaml.SafeLoader and _nesting_bound(text) <= _LIBYAML_MAX_DEPTH:
        try:
            return _read(YAML_LOADER, text)
        except (yaml.YAMLError, UnicodeEncodeError):  # a lone surrogate has no UTF-8 for libyaml
            pass
    return _read(yaml.SafeLoader, text)


def dump_yaml(data, **style) -> str:
    """``data`` as YAML text, written by the bound dumper."""
    return yaml.dump(data, Dumper=YAML_DUMPER, **style)


def _fail(path, message):
    raise GogParseError(message, path=path)


def _sorted_keys(keys) -> list:
    """Mapping keys in the order an error text lists them: by their text,
    so that keys of mixed types (1 and "b") still sort."""
    return sorted(keys, key=lambda k: (str(k), type(k).__name__))


def _require_mapping(value, path):
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _name(value, path):
    if isinstance(value, bool) or value is None:
        _fail(path, "names must be strings")
    if isinstance(value, (dict, list)):
        _fail(path, "names must be scalar")
    return str(value)


def _distinct_labels(labels, path):
    """Refuse a repeated element label: maps are written by label."""
    repeated = [x for x, n in Counter(labels).items() if n > 1]
    if repeated:
        _fail(path, f"duplicate element label {repeated[0]!r}")


def _int_list(value, path, what):
    """``value`` as a list of ints; bools and floats are not integers."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        _fail(path, f"{what} must be a list of integers, got {reprlib.repr(value)}")
    return value


# ---------------------------------------------------------------------------
# group descriptors


def parse_group(desc, path):
    desc = _require_mapping(desc, path)
    kinds = [k for k in ("free_abelian", "free", "cyclic", "table") if k in desc]
    if len(kinds) != 1:
        _fail(path, "group descriptor needs exactly one of free_abelian/free/cyclic/table")
    kind = kinds[0]
    value = desc[kind]
    extras = set(desc) - ({kind, "letter"} if kind == "cyclic" else {kind})
    if extras:
        _fail(path, f"unknown group keys {_sorted_keys(extras)}")
    if kind in ("free_abelian", "free"):
        if isinstance(value, int) and not isinstance(value, bool):
            rank, names = value, None
        elif isinstance(value, list):
            names = tuple(_name(x, path) for x in value)
            rank = len(names)
        else:
            _fail(path, f"{kind} takes a rank or a list of letter names")
        if rank < 0:
            _fail(path, "rank must be nonnegative")
        cls = FreeAbelian if kind == "free_abelian" else FreeGroup
        return cls(rank, names)
    if kind == "cyclic":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            _fail(path, "cyclic takes a positive order")
        letter = _name(desc.get("letter", "a"), path)
        try:
            group = cyclic_table(value, letter)
        except ValueError as exc:
            _fail(path, str(exc))
        _distinct_labels(group.labels, path)
        return group
    body = _require_mapping(value, path)
    missing = {"elements", "mul"} - set(body)
    if missing:
        _fail(path, f"table needs keys {sorted(missing)}")
    extras = set(body) - {"elements", "mul", "id"}
    if extras:
        _fail(path, f"unknown table keys {_sorted_keys(extras)}")
    if not isinstance(body["elements"], list):
        _fail(f"{path}.elements", "elements must be a list of labels")
    labels = [_name(x, f"{path}.elements") for x in body["elements"]]
    _distinct_labels(labels, f"{path}.elements")
    if not isinstance(body["mul"], list):
        _fail(f"{path}.mul", "mul must be a list of rows")
    mul = [_int_list(r, f"{path}.mul", "mul rows") for r in body["mul"]]
    id_index = body.get("id", 0)
    if type(id_index) is not int:
        _fail(f"{path}.id", f"id must be an integer, got {reprlib.repr(id_index)}")
    try:
        return FiniteTable(labels, mul, id_index)
    except (ValueError, TypeError) as exc:
        _fail(path, f"invalid multiplication table: {exc}")


def group_descriptor(group):
    if isinstance(group, FreeAbelian):
        return {"free_abelian": list(group.names)}
    if isinstance(group, FreeGroup):
        return {"free": list(group.names)}
    return {
        "table": {
            "elements": list(group.labels),
            "mul": [list(r) for r in group.mul_table],
            "id": group.id_index,
        }
    }


# ---------------------------------------------------------------------------
# hom descriptors


def _parse_image(dst, entry, path):
    if isinstance(entry, list):
        if not isinstance(dst, FreeAbelian):
            _fail(path, "vector images only target free abelian groups")
        vec = tuple(_int_list(entry, path, "vector images"))
        dst.check(vec)
        return vec
    if isinstance(entry, (bool, dict, set)):
        _fail(path, "invalid image entry")
    if isinstance(entry, int):
        dst.check(entry)
        return entry
    try:
        return parse_element(dst, str(entry))
    except Exception as exc:
        _fail(path, f"bad image {reprlib.repr(entry)}: {exc}")


def parse_hom(desc, src, dst, path):
    try:
        if desc == "identity":
            if type(src) is not type(dst):
                _fail(path, "identity needs source and target in the same class")
            if isinstance(src, (FreeAbelian, FreeGroup)):
                if src.rank != dst.rank:
                    _fail(path, "identity needs equal ranks")
            elif src.mul_table != dst.mul_table:
                _fail(path, "identity needs identical multiplication tables")
            return Hom.of(src, dst, lambda x: x)  # dst keeps its own letter names
        desc = _require_mapping(desc, path)
        kinds = [k for k in ("matrix", "map", "images") if k in desc]
        if len(kinds) != 1 or len(desc) != 1:
            _fail(path, "hom descriptor needs exactly one of matrix/map/images (or the string identity)")
        kind = kinds[0]
        value = desc[kind]
        if kind == "matrix":
            if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
                _fail(path, "matrix must be a list of rows")
            return Hom.matrix(src, dst, [_int_list(row, path, "matrix rows") for row in value])
        if kind == "map":
            if not isinstance(value, list):
                _fail(path, "map must be a list")
            if not isinstance(dst, FiniteTable):
                _fail(path, "map homs target finite tables")
            mapping = []
            for x in value:
                if isinstance(x, int) and not isinstance(x, bool):
                    mapping.append(x)
                else:
                    label = _name(x, path)
                    if label not in dst.labels:
                        _fail(path, f"unknown target label {label!r}")
                    mapping.append(dst.labels.index(label))
            return Hom.table(src, dst, mapping)
        if not isinstance(value, list):
            _fail(path, "images must be a list")
        return Hom.images(src, dst, [_parse_image(dst, x, path) for x in value])
    except GogParseError:
        raise
    except Exception as exc:
        _fail(path, str(exc))


def hom_descriptor(h):
    if isinstance(h.src, FreeAbelian) and isinstance(h.dst, FreeAbelian):
        return {"matrix": [[y[i] for y in h.data] for i in range(h.dst.rank)]}
    if isinstance(h.src, FiniteTable):
        return {"map": [h.dst.labels[i] for i in h.data]}
    entries = []
    for img in h.data:
        if isinstance(h.dst, FreeAbelian):
            entries.append(list(img))
        elif isinstance(h.dst, FiniteTable):
            entries.append(h.dst.labels[img])
        else:
            entries.append(format_element(h.dst, img, sep=" "))
    return {"images": entries}


# ---------------------------------------------------------------------------
# whole documents


def parse_gog_text(text, path="<gog>") -> GraphOfGroups:
    try:
        doc = _load_yaml(text)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise GogParseError(f"not valid YAML: {exc}", path=path, line=line) from exc
    except RecursionError:  # PyYAML's parser recurses once per nesting level
        raise GogParseError("not valid YAML: nested too deeply", path=path) from None
    except (ValueError, LookupError, AttributeError) as exc:
        # PyYAML's scalar constructors raise these on a malformed scalar:
        # int() on 0b_, date() on 2020-13-45, a bool table on !!bool x,
        # value[0] on !!int '', a failed match's groupdict on !!timestamp x
        raise GogParseError(f"not valid YAML: malformed scalar: {exc}", path=path) from exc
    doc = _require_mapping(doc if doc is not None else {}, path)
    unknown = set(doc) - {"vertices", "edges", "base", "tree", "provenance"}
    if unknown:
        _fail(path, f"unknown top-level keys {_sorted_keys(unknown)}")
    if "vertices" not in doc:
        _fail(path, "missing top-level key vertices")

    vgroup = {}
    for raw_name, desc in _require_mapping(doc["vertices"], f"{path}.vertices").items():
        v = _name(raw_name, f"{path}.vertices")
        if v in vgroup:
            _fail(f"{path}.vertices.{v}", "duplicate vertex")
        vgroup[v] = parse_group(desc, f"{path}.vertices.{v}")

    bar, d0 = {}, {}
    egroup, emap = {}, {}
    edges_doc = _require_mapping(doc.get("edges", {}) or {}, f"{path}.edges")
    for raw_name, record in edges_doc.items():
        name = _name(raw_name, f"{path}.edges")
        where = f"{path}.edges.{name}"
        if name.endswith(INVERSE_SUFFIX):
            _fail(where, f"edge names must not end with {INVERSE_SUFFIX}")
        if name in bar:
            _fail(where, "duplicate edge")
        record = _require_mapping(record, where)
        missing = {"origin", "terminus", "group", "fwd", "back"} - set(record)
        if missing:
            _fail(where, f"missing keys {sorted(missing)}")
        extra = set(record) - {"origin", "terminus", "group", "fwd", "back"}
        if extra:
            _fail(where, f"unknown keys {_sorted_keys(extra)}")
        origin = _name(record["origin"], f"{where}.origin")
        terminus = _name(record["terminus"], f"{where}.terminus")
        for v, key in ((origin, "origin"), (terminus, "terminus")):
            if v not in vgroup:
                _fail(f"{where}.{key}", f"unknown vertex {v}")
        shared = parse_group(record["group"], f"{where}.group")
        back_name = name + INVERSE_SUFFIX
        bar[name], bar[back_name] = back_name, name
        d0[name], d0[back_name] = origin, terminus
        egroup[name] = shared
        emap[name] = parse_hom(record["fwd"], shared, vgroup[origin], f"{where}.fwd")
        emap[back_name] = parse_hom(record["back"], shared, vgroup[terminus], f"{where}.back")

    graph = AbstractGraph.make(vgroup.keys(), bar, d0)

    tree = None
    if "tree" in doc and doc["tree"] is not None:
        entries = doc["tree"]
        if not isinstance(entries, list):
            _fail(f"{path}.tree", "tree must be a list of edge names")
        tree = frozenset(_name(x, f"{path}.tree") for x in entries)
        for t in sorted(tree):
            if t not in egroup:
                _fail(f"{path}.tree", f"unknown tree edge {t}")

    base = None
    if "base" in doc and doc["base"] is not None:
        base = _name(doc["base"], f"{path}.base")
        if base not in vgroup:
            _fail(f"{path}.base", f"unknown vertex {base}")

    provenance = ()
    if "provenance" in doc and doc["provenance"] is not None:
        entries = doc["provenance"]
        if not isinstance(entries, list) or any(isinstance(x, (list, dict, set)) for x in entries):
            _fail(f"{path}.provenance", "provenance must be a list of strings")
        provenance = tuple(str(x) for x in entries)

    if not vgroup:
        _fail(f"{path}.vertices", "at least one vertex required")
    return GraphOfGroups.make(graph, vgroup, egroup, emap, base=base, tree=tree, provenance=provenance)


def parse_gog(path) -> GraphOfGroups:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GogParseError(f"cannot read file: {exc}", path=str(path)) from exc
    return parse_gog_text(text, path=str(path))


def serialize_gog(g: GraphOfGroups) -> str:
    """Canonical YAML serialization.

    Orbits are keyed by their plus half-edge; reverse half-edge ids are
    regenerated as ``name^-1`` on parse, so documents round-trip on
    canonical form.  A plus id ending in ``^-1`` has no such name, and is
    refused with InvalidStructure.
    """
    edges = {}
    for o in orbits(g.graph):
        name = o.plus
        if name.endswith(INVERSE_SUFFIX):
            raise InvalidStructure(
                f"cannot serialize edge {name}: edge names must not end with {INVERSE_SUFFIX}"
            )
        edges[name] = {
            "origin": g.graph.d0[o.plus],
            "terminus": g.graph.d0[o.minus],
            "group": group_descriptor(g.egroup[o.plus]),
            "fwd": hom_descriptor(g.emap[o.plus]),
            "back": hom_descriptor(g.emap[o.minus]),
        }
    doc = {
        "base": g.base,
        "vertices": {v: group_descriptor(g.vgroup[v]) for v in sorted(g.graph.vertices)},
        "edges": edges,
    }
    if g.tree is not None:
        doc["tree"] = sorted(g.tree)
    if g.provenance:
        doc["provenance"] = list(g.provenance)
    return dump_yaml(doc, sort_keys=True, default_flow_style=None, width=100)
