"""Child processes started and timed by `run.py`.

    child.py [--trace DIR] setup CONFIG...
        import curvspec.cli, then load (and Gauss-Bonnet audit) each config
    child.py [--trace DIR] mesh --out DIR --refinements N CONFIG...
        per config: load, triangulate, refine N times, assemble the finest
        level, save the mesh and load it back; writes <stem>.json with the
        finest vertex and triangle counts and whether the round trip was
        bit-identical
    child.py --trace DIR cli ARG...
        run `curvspec ARG...` under the tracer (untraced runs use
        `python -m curvspec.cli` directly)

With --trace, spans are recorded around every call into the curvspec
modules (see tracer.py) and written to DIR, one file per process.
The package is found through PYTHONPATH, which run.py points at src/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np


def setup(configs) -> int:
    from curvspec import cli, configio  # noqa: F401  (import cost is part of set-up)

    for path in configs:
        configio.load_domain_config(path)
    return 0


def _identical(a, b) -> bool:
    arrays = ("vertices", "triangles", "boundary_edges")
    if a.level != b.level or len(a.arcs) != len(b.arcs):
        return False
    for name in arrays:
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    for arc_a, arc_b in zip(a.arcs, b.arcs):
        if type(arc_a) is not type(arc_b):
            return False
        fields_a, fields_b = dataclasses.astuple(arc_a), dataclasses.astuple(arc_b)
        if not all(np.array_equal(u, v) for u, v in zip(fields_a, fields_b)):
            return False
    return True


def mesh_roundtrip(out_dir: str, refinements: int, configs) -> int:
    from curvspec import configio, fem, meshing

    os.makedirs(out_dir, exist_ok=True)
    failed = 0
    for path in configs:
        stem = os.path.splitext(os.path.basename(path))[0]
        mesh_path = os.path.join(out_dir, stem + ".mesh")
        try:
            cfg = configio.load_domain_config(path)
            mesh = meshing.triangulate(cfg.domain, cfg.target_h)
            for _ in range(refinements):
                mesh = meshing.refine(mesh)
            fem.assemble(mesh, fem.ConformalWeight(cfg.domain.space))
            meshing.save_mesh(mesh, mesh_path)
            loaded = meshing.load_mesh(mesh_path)
        except ValueError as exc:  # ConfigError, GeometryError/MeshError, AssemblyError
            print(f"{stem}: {exc}", file=sys.stderr)
            failed += 1
            continue
        summary = {
            "vertices": mesh.num_vertices,
            "triangles": mesh.num_triangles,
            "identical": _identical(mesh, loaded),
        }
        with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return 3 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace", metavar="DIR", help="record spans into DIR")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("configs", nargs="+")
    p = sub.add_parser("mesh")
    p.add_argument("--out", required=True)
    p.add_argument("--refinements", type=int, required=True)
    p.add_argument("configs", nargs="+")
    p = sub.add_parser("cli")
    p.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.trace:
        import tracer

        tracer.install(args.trace)
    if args.mode == "setup":
        return setup(args.configs)
    if args.mode == "mesh":
        return mesh_roundtrip(args.out, args.refinements, args.configs)
    from curvspec import cli

    return cli.main(args.args)


if __name__ == "__main__":
    sys.exit(main())
