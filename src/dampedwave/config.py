"""Run configuration: dataclasses, named profiles, YAML loading.

A run is described by one YAML document with sections ``space``,
``graph``, ``time``, ``init``, ``newton`` plus the optional top-level
keys ``forcing``, ``lambda``, ``regularize_u0``, ``label``.  ``_KEYS``
is the document's one definition: one row per key, with the
``SimConfig`` field it sets (whose default is the key's default), the
parser of its value and its own bound.  ``from_dict``, ``to_dict`` and
``SimConfig.validate`` read it.  Any other key is rejected, and a value
of the wrong type is a ConfigError naming its key, whether it comes
from a document or from a ``SimConfig`` built in code.

A run keeps every state, so ``time.T / time.dt`` and ``space.n_nodes``
set its memory: ``simulate`` refuses, naming ``time.dt``, a run larger
than physical memory.  Initial data are named profiles ("zero",
"constant:c", "sine:k[:amp]", "cosine:k[:amp]") or sampled values
(``{array: [...]}``, one per node).  The forcing is one field g,
constant in time: "zero", a number c (the profile "constant:c") or a
"constant", "sine" or "cosine" profile.  A profile or forcing with a
value that is not finite is a ConfigError naming ``init`` or
``forcing``.  ``SimConfig.reaction`` builds the solver's reaction with
``graphs.make_reaction``; every reaction formula lives in ``graphs``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .errors import ConfigError
from .graphs import GraphKind, MonotoneGraph, Reaction, make_reaction
from .grid import DIRICHLET, NEUMANN, Grid, regularize_initial


# ---------------------------------------------------------------------------
# profiles


def _finite(values: np.ndarray, key: str, spec) -> np.ndarray:
    """``values``, built from ``spec``, if every entry is finite; else a ConfigError naming ``key``."""
    if not np.all(np.isfinite(values)):
        shown = "the array" if isinstance(spec, np.ndarray) else repr(spec)
        raise ConfigError(key, f"{shown} gives a value that is not finite")
    return values


def profile_field(grid: Grid, spec, key: str = "init") -> np.ndarray:
    """Materialize a named profile on the grid nodes; errors name ``key``.

    A profile with a value that is not finite is an error too.
    """
    return _finite(_profile(grid, spec, key), key, spec)


def _profile(grid: Grid, spec, key: str) -> np.ndarray:
    if isinstance(spec, np.ndarray):
        grid.check_field(spec, "profile")
        return np.array(spec, dtype=float)
    if not isinstance(spec, str):
        raise ConfigError(key, f"profile must be a string or array, got {spec!r}")
    parts = spec.split(":")
    name = parts[0]
    try:
        if name == "zero":
            return np.zeros(grid.n_nodes)
        if name == "constant":
            return float(parts[1]) * np.ones(grid.n_nodes)
        if name in ("sine", "cosine"):
            k = int(parts[1])
            amp = float(parts[2]) if len(parts) > 2 else 1.0
            return amp * (np.sin if name == "sine" else np.cos)(k * math.pi * grid.x / grid.length)
    except (IndexError, ValueError) as exc:
        raise ConfigError(key, f"bad profile spec {spec!r}: {exc}") from exc
    raise ConfigError(key, f"unknown profile {name!r}")


def forcing_field(grid: Grid, spec) -> np.ndarray | None:
    """The forcing field g, constant in time, or None for zero forcing.  A
    number c is the profile ``constant:c``; the other forcings are the
    ``constant``, ``sine`` and ``cosine`` profiles."""
    if spec is None or spec == "zero":
        return None
    if isinstance(spec, (int, float)):
        spec = f"constant:{spec!r}"
    if not isinstance(spec, str) or spec.split(":")[0] not in ("constant", "sine", "cosine"):
        raise ConfigError("forcing", f"unknown forcing {spec!r}")
    return profile_field(grid, spec, "forcing")


# ---------------------------------------------------------------------------
# the run document: one row per key


def _real(value, key: str) -> float:
    """A finite float from a YAML scalar, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(key, f"must be a number, got {value!r}")
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(key, f"must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(key, f"must be finite, got {value!r}")
    return x


def _integer(value, key: str) -> int:
    x = _real(value, key)
    if x != int(x):
        raise ConfigError(key, f"must be an integer, got {value!r}")
    return int(x)


def _optional_real(value, key: str):
    return None if value is None else _real(value, key)


def _instance(kind: type, name: str):
    """The parser of a value that must be a ``kind``, said as ``name``."""
    def parse(value, key: str):
        if not isinstance(value, kind):
            raise ConfigError(key, f"must be {name}, got {value!r}")
        return value
    return parse


_string = _instance(str, "a string")


def _init(spec, key: str):
    """An ``init`` profile: a string, or ``{array: [...]}``, which gives an
    array of finite numbers (one per node, checked by ``validate``), or
    such an array; any other value is a ConfigError naming ``init``."""
    if isinstance(spec, str):
        return spec
    if isinstance(spec, np.ndarray):
        spec = {"array": spec.tolist()}
    if not (isinstance(spec, dict) and "array" in spec):
        raise ConfigError("init", f"profile must be a string or array, got {spec!r}")
    values = spec["array"]
    if not isinstance(values, list):
        raise ConfigError("init", f"array must be a list of numbers, one per node, got {values!r}")
    return np.array([_real(v, "init") for v in values])


def _forcing(spec, key: str):
    """A forcing as written: a finite number, a string or null (zero)."""
    if spec is not None and not isinstance(spec, str):
        _real(spec, key)
    return spec


def _positive(x) -> bool:
    return x is not None and x > 0


def _family_slope(x) -> bool:
    """Whether the family's slope 1/x**2 is a finite positive float, as
    ``graphs.family_beta`` computes it: x*x neither underflows to 0 nor
    overflows, and its reciprocal does not overflow."""
    return _positive(x) and x * x > 0.0 and 0.0 < 1.0 / (x * x) < math.inf


class _Key(NamedTuple):
    """A key of the run document: the ``SimConfig`` field it sets, the
    parser of its YAML value (``parse(value, key)``), and the bound of that
    value alone (``ok``) with its message (``rule``, which may show the
    value as ``{!r}`` and the graph kind as ``{kind}``).  A key with
    ``kinds`` belongs to those graph kinds only: it is checked and written
    for them alone.  The other rules over two keys are in
    ``SimConfig.validate``."""

    key: str
    field: str
    parse: Callable
    ok: Callable | None = None
    rule: str = ""
    required: bool = False
    kinds: tuple = ()


_KEYS = (
    _Key("space.length", "length", _real, _positive, "must be positive"),
    _Key("space.n_nodes", "n_nodes", _integer),
    _Key("space.bc", "bc", _string, lambda s: s in (DIRICHLET, NEUMANN),
         "must be dirichlet or neumann, got {!r}"),
    _Key("graph.kind", "graph_kind", _string, lambda s: s in [k.value for k in GraphKind],
         "unknown kind {!r}", required=True),
    _Key("graph.epsilon", "epsilon", _optional_real, _positive,
         "must be a positive real for graph.kind {kind}", kinds=("indicator", "logarithmic")),
    _Key("graph.r_threshold", "r_threshold", _optional_real, lambda x: x is not None and 0 < x <= 1,
         "must lie in (0, 1] for graph.kind family", kinds=("family",)),
    _Key("graph.eps_param", "eps_param", _optional_real, _family_slope,
         "must be positive, with a finite positive slope 1/eps_param**2, for graph.kind family, got {!r}",
         kinds=("family",)),
    _Key("time.T", "T", _real, _positive, "must be positive", required=True),
    _Key("time.dt", "dt", _real, _positive, "must be positive", required=True),
    _Key("time.theta", "theta", _real, lambda x: 0.5 <= x <= 1.0, "must lie in [1/2, 1]"),
    _Key("init.u0", "u0", _init),
    _Key("init.u1", "u1", _init),
    _Key("forcing", "forcing", _forcing),
    _Key("newton.tol", "newton_tol", _real, _positive, "must be positive"),
    _Key("newton.max_iter", "newton_max_iter", _integer, lambda n: n >= 1, "must be >= 1"),
    _Key("lambda", "lam", _real, lambda x: x >= 0, "must be nonnegative"),
    _Key("regularize_u0", "regularize_u0", _instance(bool, "true or false")),
    _Key("label", "label", _string),
)
# each key as its path, ("section", "name") or ("name",)
_ROWS = {tuple(row.key.split(".")): row for row in _KEYS}
_SECTIONS = {path[0] for path in _ROWS if len(path) == 2}


@dataclass(frozen=True)
class SimConfig:
    length: float = 1.0
    n_nodes: int = 1
    bc: str = NEUMANN
    graph_kind: str = "indicator"
    epsilon: float | None = None
    r_threshold: float | None = None
    eps_param: float | None = None
    T: float = 1.0
    dt: float = 1e-3
    theta: float = 1.0
    u0: object = "zero"
    u1: object = "zero"
    forcing: object = "zero"
    lam: float = 0.0
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    regularize_u0: bool = True
    label: str = ""

    def _rows(self):
        """The rows of ``_KEYS`` that this config's graph kind uses."""
        return [row for row in _KEYS if not row.kinds or self.graph_kind in row.kinds]

    def validate(self) -> "SimConfig":
        """This config, if each field passes its ``_KEYS`` parser and keeps
        its bound and the rules over two keys hold; else a ConfigError naming
        the key.  A rule over two keys names one and says the other in its
        message.  A field keeps the value it was given: a number spelt as
        text, which only a document may hold, is refused here."""
        for row in self._rows():
            given = getattr(self, row.field)
            value = row.parse(given, row.key)
            if isinstance(value, str) != isinstance(given, str):
                raise ConfigError(row.key, f"must be a number, got {given!r}")
            if row.ok is not None and not row.ok(value):
                raise ConfigError(row.key, row.rule.format(value, kind=self.graph_kind))
        if self.n_nodes < 3 and not (self.n_nodes == 1 and self.bc == NEUMANN):
            raise ConfigError("space.n_nodes", "must be >= 3 (or 1 with space.bc neumann)")
        if self.dt > self.T:
            raise ConfigError("time.dt", "must not exceed time.T")
        for spec in (self.u0, self.u1):
            if isinstance(spec, np.ndarray) and len(spec) != self.n_nodes:
                raise ConfigError("init", f"array has {len(spec)} entries, the grid has {self.n_nodes} nodes")
        return self

    # -- derived objects ----------------------------------------------------

    def grid(self) -> Grid:
        return Grid(self.length, self.n_nodes, self.bc)

    def graph(self) -> MonotoneGraph:
        kind = GraphKind(self.graph_kind)
        if kind == GraphKind.FAMILY:
            return MonotoneGraph(kind, self.r_threshold, self.eps_param)
        return MonotoneGraph(kind)

    def reaction(self) -> Reaction:
        return make_reaction(self.graph(), self.epsilon)

    def initial_fields(self, grid: Grid):
        u0 = profile_field(grid, self.u0)
        u1 = profile_field(grid, self.u1)
        if self.regularize_u0:
            u0 = regularize_initial(grid, u0, self.reaction().epsilon)
        return u0, u1

    def forcing_field(self, grid: Grid | None = None):
        return forcing_field(grid or self.grid(), self.forcing)

    def with_epsilon(self, epsilon: float, dt: float) -> "SimConfig":
        """Sweep helper: moves the regularization index and the step."""
        index = "eps_param" if self.graph_kind == "family" else "epsilon"
        return replace(self, dt=dt, **{index: epsilon})

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The run document of this config, in ``_KEYS`` order, with the
        keys of its graph kind only (``_Key.kinds``): the family kind
        leaves out ``graph.epsilon``, the Yosida kinds ``graph.r_threshold``
        and ``graph.eps_param``.  An array profile is written as
        ``{array: [...]}``."""
        d = {}
        for row in self._rows():
            path = row.key.split(".")
            value = getattr(self, row.field)
            if isinstance(value, np.ndarray):
                value = {"array": [float(v) for v in value]}
            (d.setdefault(path[0], {}) if len(path) == 2 else d)[path[-1]] = value
        return d

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _entries(doc):
    """The (path, value) pairs of a run document; a section must be a mapping."""
    if not isinstance(doc, dict):
        raise ConfigError("document", "config must be a mapping")
    for name, value in doc.items():
        if name not in _SECTIONS:
            yield (name,), value
        elif value is None or isinstance(value, dict):
            yield from (((name, key), v) for key, v in (value or {}).items())
        else:
            raise ConfigError(name, f"must be a mapping, got {value!r}")


def from_dict(doc: dict) -> SimConfig:
    """Build and validate a SimConfig from a parsed YAML document.  Each
    value goes through its ``_KEYS`` row's parser; a key the table lacks,
    so that a misspelt option cannot be dropped silently, or a required
    key that is missing is a ConfigError naming it."""
    fields = {}
    for path, value in _entries(doc):
        key = ".".join(map(str, path))
        if path not in _ROWS:
            raise ConfigError(key, "unknown key")
        row = _ROWS[path]
        fields[row.field] = row.parse(value, key)
    for row in _KEYS:
        if row.required and row.field not in fields:
            raise ConfigError(row.key, "missing required key")
    return SimConfig(**fields).validate()


def load_config(path) -> SimConfig:
    """The validated config of the YAML file ``path``; ConfigError naming the
    file unless it can be read and parsed.  The file is read as bytes and
    YAML decodes it (UTF-8 unless a byte-order mark says UTF-16), so text
    that does not decode is a parse error.  A parse error is one line
    (``_yaml_error_line``)."""
    try:
        with open(path, "rb") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("file", f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a scalar YAML cannot build
        raise ConfigError("file", f"cannot parse config {path}: {_yaml_error_line(exc)}") from exc
    return from_dict(doc)


def _yaml_error_line(exc: yaml.YAMLError) -> str:
    """A YAML error in one line.  Bytes that do not decode are named with
    their byte offset in the file; a character YAML forbids, with its
    offset in the decoded text; a syntax error, with its line and column."""
    if isinstance(exc, yaml.reader.ReaderError):
        if exc.encoding == "unicode":
            return f"character U+{exc.character:04X} at character {exc.position} ({exc.reason})"
        enc = exc.encoding.upper()
        return f"not {enc} text: byte 0x{exc.character:02x} at offset {exc.position} ({exc.reason})"
    if isinstance(exc, yaml.MarkedYAMLError):
        parts = []
        for text, mark in ((exc.context, exc.context_mark), (exc.problem, exc.problem_mark)):
            if text:
                where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
                parts.append(text + where)
        return "; ".join(parts)
    return " ".join(str(exc).split())
