"""Run one ``dampedwave`` CLI command with every layer's entry points timed.

Usage: python3 perfbench/tracer.py <out-prefix> <cli arguments...>

The wrappers are installed from outside the package, on the names callers
look up: a function imported by name into several modules (``edge_inner``,
``simulate``, ...) is replaced in each of them, and the ``Reaction``
methods are replaced on the class.  Every call records a span (name,
start, end, parent span) in memory.  When the command returns, the spans
go to ``<out-prefix>.npz`` and the side records (simulated trajectories,
bytes each writer produced, the exit code) to ``<out-prefix>.json``.
The exit code is the command's own.
"""

import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

import dampedwave.cli
import dampedwave.config

# (span name, module that defines the entry point, attribute, where to patch)
# "all": every dampedwave module that bound the object; "own": only the
# defining module, because other modules' bindings belong to other layers
# (grid's solve_banded smooths the initial data and is set-up).
TARGETS = [
    ("config.load_config", "config", "load_config", "all"),
    ("integrator.simulate", "integrator", "simulate", "all"),
    ("integrator.solve_banded", "integrator", "solve_banded", "own"),
    ("graphs.resolvent", "graphs", "resolvent", "all"),
    ("grid.edge_inner", "grid", "edge_inner", "all"),
    ("grid.apply_A", "grid", "apply_A", "all"),
    ("energy.energy_series", "energy", "energy_series", "all"),
    ("energy.energy_inequality_verdict", "energy", "energy_inequality_verdict", "all"),
    ("weaklimit.accumulate_xi", "weaklimit", "accumulate_xi", "all"),
    ("weaklimit.weak_residual", "weaklimit", "weak_residual", "all"),
    ("weaklimit.subdifferential_check", "weaklimit", "subdifferential_check", "all"),
    ("weaklimit.singular_support_check", "weaklimit", "singular_support_check", "all"),
    ("weaklimit.solution_identity_residual", "weaklimit", "solution_identity_residual", "all"),
    ("weaklimit.detect_jumps", "weaklimit", "detect_jumps", "all"),
    ("sweep.summarize_run", "sweep", "summarize_run", "all"),
    ("sweep.limsup_identity_audit", "sweep", "limsup_identity_audit", "all"),
    ("sweep.epsilon_sweep", "sweep", "epsilon_sweep", "all"),
    ("toy.yosida_layer_toy", "toy", "yosida_layer_toy", "all"),
    ("toy.phase_level_set", "toy", "phase_level_set", "all"),
    ("cli.write_trajectory_csv", "cli", "write_trajectory_csv", "all"),
    ("cli.write_energy_csv", "cli", "write_energy_csv", "all"),
    ("cli.write_xi_csv", "cli", "write_xi_csv", "all"),
    ("cli.read_trajectory_csv", "cli", "read_trajectory_csv", "all"),
    ("cli._standard_checks", "cli", "_standard_checks", "all"),
]
REACTION_METHODS = ("beta", "dbeta", "pot")
WRITERS = ("cli.write_trajectory_csv", "cli.write_energy_csv", "cli.write_xi_csv")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self.trajectories = []
        self.written_bytes = {name: 0 for name in WRITERS}

    def wrap(self, name, fn, post=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if post is not None:
                post(result, args)
            return result

        return traced

    def _record_trajectory(self, traj, args):
        uv = np.ascontiguousarray(traj.U).tobytes() + np.ascontiguousarray(traj.V).tobytes()
        self.trajectories.append({
            "steps": int(traj.n_steps),
            "nodes": int(traj.U.shape[1]),
            "newton_iters": int(np.sum(traj.newton_iters)),
            "contact_node_steps": int(np.count_nonzero(traj.beta_theta)),
            "digest": hashlib.sha256(uv).hexdigest(),
        })

    def _record_written(self, name):
        def post(result, args):
            self.written_bytes[name] += os.path.getsize(args[0])
        return post

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "dampedwave" or key.startswith("dampedwave."))]
        for span, mod_name, attr, scope in TARGETS:
            home = sys.modules[f"dampedwave.{mod_name}"]
            orig = getattr(home, attr)
            post = None
            if span == "integrator.simulate":
                post = self._record_trajectory
            elif span in WRITERS:
                post = self._record_written(span)
            traced = self.wrap(span, orig, post)
            for mod in (modules if scope == "all" else [home]):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        reaction = dampedwave.config.Reaction
        for meth in REACTION_METHODS:
            setattr(reaction, meth, self.wrap(f"graphs.{meth}", getattr(reaction, meth)))

    def dump(self, prefix, exit_code):
        np.savez(
            f"{prefix}.npz",
            name=np.asarray(self.name_of, dtype=np.int32),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            parent=np.asarray(self.parent, dtype=np.int64),
        )
        with open(f"{prefix}.json", "w") as fh:
            json.dump({
                "names": self.names,
                "exit_code": exit_code,
                "trajectories": self.trajectories,
                "written_bytes": self.written_bytes,
            }, fh)


def main():
    prefix, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    exit_code = 2
    try:
        exit_code = tracer.wrap("cli.main", dampedwave.cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(prefix, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
