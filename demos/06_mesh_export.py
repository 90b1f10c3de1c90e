"""End-to-end run from a config dict, and a look at the files it writes.

The same pipeline is reachable from the shell:

    cmclab generate --config run.json
    cmclab verify   --in out/
    cmclab export   --in out/
    cmclab report   --in out/ --machine
"""

import pathlib
import tempfile

import numpy as np

from cmclab.config import config_from_mapping
from cmclab.pipeline import run

out = pathlib.Path(tempfile.mkdtemp(prefix="cmclab_demo_"))

cfg = config_from_mapping(
    {
        "family": "delaunay",
        "H": 0.5,
        "u0": 0.3,
        "du0": 0.0,
        "lambda": 0.5,
        "nx": 81,
        "ny": 81,
        "out_dir": str(out),
    }
)

report = run(cfg)
print("overall:", "PASS" if report.overall_pass() else "FAIL")
print("files written:")
for p in sorted(out.iterdir()):
    print("  ", p.name, p.stat().st_size, "bytes")

# The meshes are plain text: v-lines with ball coordinates, f-lines with
# 1-based quad indices.  Any standard viewer opens them.
verts = []
for ln in (out / "mesh_primary.obj").read_text().splitlines():
    if ln.startswith("v "):
        verts.append([float(v) for v in ln.split()[1:]])
verts = np.array(verts)
print("vertex count:", len(verts))
print("largest vertex norm:", np.linalg.norm(verts, axis=1).max(), "(must stay below 1)")

# The diagnostics table carries one row per grid node with the measured
# quantities; 17 significant digits make reruns bitwise equal.
head = (out / "diagnostics.dat").read_text().splitlines()[:3]
for ln in head:
    print(ln[:100])
