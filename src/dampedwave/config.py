"""Run configuration: dataclasses, named profiles, YAML loading.

A run is described by one YAML document with sections ``space``,
``graph``, ``time``, ``init``, ``newton`` plus the optional top-level
keys ``forcing``, ``lambda``, ``regularize_u0``, ``label``; any other
key is rejected.  A run keeps every state, so ``time.T / time.dt`` and
``space.n_nodes`` set its memory: ``simulate`` refuses, naming
``time.dt``, a run larger than physical memory.  Initial data
are named profiles ("zero", "constant:c", "sine:k[:amp]",
"cosine:k[:amp]", "ramp") or a CSV column ("csv:path:col"); forcing is
"zero", "constant:c", or a sampled time-by-node CSV table
("table:path").  ``SimConfig.reaction`` builds the solver's reaction with
``graphs.make_reaction``; every reaction formula lives in ``graphs``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import yaml

from .errors import ConfigError
from .graphs import GraphKind, MonotoneGraph, Reaction, make_reaction
from .grid import DIRICHLET, NEUMANN, Grid, regularize_initial


# ---------------------------------------------------------------------------
# profiles


def profile_field(grid: Grid, spec, key: str = "init") -> np.ndarray:
    """Materialize a named profile on the grid nodes; errors name ``key``."""
    if isinstance(spec, np.ndarray):
        grid.check_field(spec, "profile")
        return np.array(spec, dtype=float)
    if not isinstance(spec, str):
        raise ConfigError(key, f"profile must be a string or array, got {spec!r}")
    parts = spec.split(":")
    name = parts[0]
    x = grid.x
    L = grid.length
    try:
        if name == "zero":
            return np.zeros(grid.n_nodes)
        if name == "constant":
            return float(parts[1]) * np.ones(grid.n_nodes)
        if name == "sine":
            k = int(parts[1])
            amp = float(parts[2]) if len(parts) > 2 else 1.0
            return amp * np.sin(k * math.pi * x / L)
        if name == "cosine":
            k = int(parts[1])
            amp = float(parts[2]) if len(parts) > 2 else 1.0
            return amp * np.cos(k * math.pi * x / L)
        if name == "ramp":
            return x / L
        if name == "csv":
            path, col = parts[1], int(parts[2])
            vals = _read_csv_column(path, col)
            if len(vals) != grid.n_nodes:
                raise ConfigError(
                    key, f"csv column has {len(vals)} rows, grid needs {grid.n_nodes}"
                )
            return np.asarray(vals, dtype=float)
    except (IndexError, ValueError) as exc:
        raise ConfigError(key, f"bad profile spec {spec!r}: {exc}") from exc
    raise ConfigError(key, f"unknown profile {name!r}")


def _read_csv_rows(path: str, key: str) -> list[list[str]]:
    """The non-empty rows of a data file that a config names under ``key``."""
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ConfigError(key, f"cannot read {path!r}: {exc}") from exc


def _read_csv_column(path: str, col: int) -> list[float]:
    out = []
    for row in _read_csv_rows(path, "init"):
        try:
            out.append(float(row[col]))
        except ValueError:
            continue  # header line
    return out


def forcing_function(grid: Grid, spec) -> Callable[[float], np.ndarray] | None:
    """Build g(t) -> field, or None for zero forcing."""
    if spec is None or spec == "zero":
        return None
    if isinstance(spec, (int, float)):
        g = float(spec) * np.ones(grid.n_nodes)
        return lambda t: g
    if isinstance(spec, str):
        parts = spec.split(":")
        if parts[0] == "constant":
            try:
                g = float(parts[1]) * np.ones(grid.n_nodes)
            except (IndexError, ValueError) as exc:
                raise ConfigError("forcing", f"bad spec {spec!r}") from exc
            return lambda t: g
        if parts[0] == "table":
            return _table_forcing(grid, spec[len("table:"):])
        if parts[0] in ("sine", "cosine", "ramp"):
            # time-constant spatial profile
            g = profile_field(grid, spec, "forcing")
            return lambda t: g
        raise ConfigError("forcing", f"unknown forcing {spec!r}")
    raise ConfigError("forcing", f"unknown forcing {spec!r}")


def _table_forcing(grid: Grid, path: str):
    """Sampled forcing: column 0 is time, remaining columns are node values."""
    rows = []
    for row in _read_csv_rows(path, "forcing"):
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            continue
    table = np.asarray(rows)
    if table.ndim != 2 or table.shape[1] != grid.n_nodes + 1:
        raise ConfigError(
            "forcing", f"table needs {grid.n_nodes + 1} columns (t + nodes)"
        )
    times = table[:, 0]
    values = table[:, 1:]

    def g(t: float) -> np.ndarray:
        i = np.searchsorted(times, t)
        if i == 0:
            return values[0]
        if i >= len(times):
            return values[-1]
        w = (t - times[i - 1]) / (times[i] - times[i - 1])
        return (1.0 - w) * values[i - 1] + w * values[i]

    return g


# ---------------------------------------------------------------------------
# the run configuration


@dataclass(frozen=True)
class SimConfig:
    length: float = 1.0
    n_nodes: int = 1
    bc: str = NEUMANN
    graph_kind: str = "indicator"
    epsilon: float | None = 1e-3
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

    def validate(self) -> "SimConfig":
        if self.length <= 0:
            raise ConfigError("space.length", "must be positive")
        if self.bc not in (DIRICHLET, NEUMANN):
            raise ConfigError("space.bc", f"must be dirichlet or neumann, got {self.bc!r}")
        if self.n_nodes < 3 and not (self.n_nodes == 1 and self.bc == NEUMANN):
            raise ConfigError("space.n_nodes", "must be >= 3 (or 1 with Neumann bc)")
        if self.graph_kind not in ("indicator", "logarithmic", "family"):
            raise ConfigError("graph.kind", f"unknown kind {self.graph_kind!r}")
        if self.graph_kind == "family":
            if self.r_threshold is None or not 0.0 < self.r_threshold <= 1.0:
                raise ConfigError("graph.r_threshold", "must lie in (0, 1]")
            if self.eps_param is None or self.eps_param <= 0.0:
                raise ConfigError("graph.eps_param", "must be positive")
        elif self.epsilon is None or self.epsilon <= 0.0:
            raise ConfigError("graph.epsilon", "must be a positive real")
        if self.T <= 0:
            raise ConfigError("time.T", "must be positive")
        if self.dt <= 0:
            raise ConfigError("time.dt", "must be positive")
        if self.dt > self.T:
            raise ConfigError("time.dt", "must not exceed time.T")
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigError("time.theta", "must lie in [1/2, 1]")
        if self.lam < 0:
            raise ConfigError("lambda", "must be nonnegative")
        if self.newton_tol <= 0:
            raise ConfigError("newton.tol", "must be positive")
        if self.newton_max_iter < 1:
            raise ConfigError("newton.max_iter", "must be >= 1")
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

    def initial_fields(self, grid: Grid | None = None):
        grid = grid or self.grid()
        u0 = profile_field(grid, self.u0)
        u1 = profile_field(grid, self.u1)
        if self.regularize_u0:
            u0 = regularize_initial(grid, u0, self.reaction().epsilon)
        return u0, u1

    def forcing_fn(self, grid: Grid | None = None):
        return forcing_function(grid or self.grid(), self.forcing)

    def with_epsilon(self, epsilon: float, dt: float | None = None) -> "SimConfig":
        """Sweep helper: moves the regularization index, optionally the step."""
        kw = {"dt": dt if dt is not None else self.dt}
        if self.graph_kind == "family":
            kw["eps_param"] = epsilon
        else:
            kw["epsilon"] = epsilon
        return replace(self, **kw)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "space": {"length": self.length, "n_nodes": self.n_nodes, "bc": self.bc},
            "graph": {"kind": self.graph_kind},
            "time": {"T": self.T, "dt": self.dt, "theta": self.theta},
            "init": {"u0": _spec_repr(self.u0), "u1": _spec_repr(self.u1)},
            "forcing": _spec_repr(self.forcing),
            "newton": {"tol": self.newton_tol, "max_iter": self.newton_max_iter},
            "lambda": self.lam,
            "regularize_u0": self.regularize_u0,
            "label": self.label,
        }
        if self.graph_kind == "family":
            d["graph"]["r_threshold"] = self.r_threshold
            d["graph"]["eps_param"] = self.eps_param
        else:
            d["graph"]["epsilon"] = self.epsilon
        return d

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _spec_repr(spec):
    if isinstance(spec, np.ndarray):
        return {"array": [float(v) for v in spec]}
    return spec


# the keys a run document may hold; any other key is rejected, so that a
# misspelt option cannot be dropped silently
_SECTION_KEYS = {
    "space": ("length", "n_nodes", "bc"),
    "graph": ("kind", "epsilon", "r_threshold", "eps_param"),
    "time": ("T", "dt", "theta"),
    "init": ("u0", "u1"),
    "newton": ("tol", "max_iter"),
}
_TOP_KEYS = ("forcing", "lambda", "regularize_u0", "label")
_REQUIRED = object()


def _flatten(doc) -> dict:
    """The document as {"section.key" or "key": value}, checking its layout."""
    if not isinstance(doc, dict):
        raise ConfigError("document", "config must be a mapping")
    flat = {}
    for name, value in doc.items():
        if name in _SECTION_KEYS:
            if value is None:
                value = {}
            if not isinstance(value, dict):
                raise ConfigError(name, f"must be a mapping, got {value!r}")
            for key, v in value.items():
                if key not in _SECTION_KEYS[name]:
                    raise ConfigError(f"{name}.{key}", "unknown key")
                flat[f"{name}.{key}"] = v
        elif name in _TOP_KEYS:
            flat[name] = value
        else:
            raise ConfigError(str(name), "unknown key")
    return flat


def _number(value, key: str, cast=float):
    """A finite float (or integer, for cast=int) from a YAML scalar, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(key, f"must be a number, got {value!r}")
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(key, f"must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(key, f"must be finite, got {value!r}")
    if cast is int:
        if x != int(x):
            raise ConfigError(key, f"must be an integer, got {value!r}")
        return int(x)
    return x


def _init_spec(spec):
    if isinstance(spec, dict) and "array" in spec:
        return np.asarray(spec["array"], dtype=float)
    return spec


def from_dict(doc: dict) -> SimConfig:
    """Build and validate a SimConfig from a parsed YAML document."""
    flat = _flatten(doc)

    def num(key, default=_REQUIRED, cast=float):
        if key not in flat or (flat[key] is None and default is None):
            if default is _REQUIRED:
                raise ConfigError(key, "missing required key")
            return default
        return _number(flat[key], key, cast)

    if "graph.kind" not in flat:
        raise ConfigError("graph.kind", "missing required key")
    forcing = flat.get("forcing", "zero")
    if forcing is not None and not isinstance(forcing, str):
        _number(forcing, "forcing")
    regularize = flat.get("regularize_u0", True)
    if not isinstance(regularize, bool):
        raise ConfigError("regularize_u0", f"must be true or false, got {regularize!r}")
    cfg = SimConfig(
        length=num("space.length", 1.0),
        n_nodes=num("space.n_nodes", 1, int),
        bc=str(flat.get("space.bc", NEUMANN)),
        graph_kind=str(flat["graph.kind"]),
        epsilon=num("graph.epsilon", None),
        r_threshold=num("graph.r_threshold", None),
        eps_param=num("graph.eps_param", None),
        T=num("time.T"),
        dt=num("time.dt"),
        theta=num("time.theta", 1.0),
        u0=_init_spec(flat.get("init.u0", "zero")),
        u1=_init_spec(flat.get("init.u1", "zero")),
        forcing=forcing,
        lam=num("lambda", 0.0),
        newton_tol=num("newton.tol", 1e-10),
        newton_max_iter=num("newton.max_iter", 50, int),
        regularize_u0=regularize,
        label=str(flat.get("label", "")),
    )
    return cfg.validate()


def load_config(path) -> SimConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("file", f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError("file", f"cannot parse config {path}: {exc}") from exc
    return from_dict(doc)
