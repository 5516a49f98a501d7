"""The benchmark's tracer wraps tesopt functions by name from the outside.

A rename of a traced function, or a move of the path argument that the
``io.write_lead_field`` span reads, would break only the benchmark; these
checks catch it in the test suite.
"""

import sys
from pathlib import Path

import numpy as np

from tesopt import io
from tesopt.fem import LeadField
from tesopt.optimizers import StimulusProblem

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracer import Tracer, install_cells, install_parent  # noqa: E402


def test_tracer_hooks_resolve_and_restore(tmp_path, rng):
    tracer = Tracer("hooks")
    patches = []
    try:
        install_parent(tracer)
        install_cells(tracer)
        patches = list(tracer._patches)
        assert patches
        for module, name, orig in patches:
            assert getattr(module, name).__wrapped__ is orig, f"{module.__name__}.{name}"

        lf = LeadField(matrix=rng.normal(size=(30, 4)), electrode_ids=(1, 2, 3, 4),
                       target_point=1)
        L1, L2 = lf.split_rows()
        problem = StimulusProblem.from_parts(L1, L2, np.array([0.2, 0.0, 0.0]), 4e-3,
                                             electrode_ids=lf.electrode_ids)
        path = tmp_path / "leadfield.bin"
        io.write_lead_field(lf, problem, path)
        spans = [r for r in tracer.records() if r["name"] == "io.write_lead_field"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["bytes"] == \
            path.stat().st_size + path.with_suffix(".json").stat().st_size
    finally:
        tracer.restore()
    for module, name, orig in patches:
        assert getattr(module, name) is orig, f"{module.__name__}.{name}"
