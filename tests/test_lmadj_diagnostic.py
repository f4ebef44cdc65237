"""Smoke test of ``scripts/lmadj_diagnostic.py``, which reads the LM_adj
pair-moment tiles directly, run in-process on a couple of replications."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from panelcd.cd_stats import lm_adj_stat
from panelcd.correlation import correlation_matrix
from panelcd.dgp import DgpConfig, generate_panel
from panelcd.mc import derive_stream
from panelcd.panel import fit

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lmadj_diagnostic.py"


@pytest.fixture(scope="module")
def diagnostic():
    spec = importlib.util.spec_from_file_location("lmadj_diagnostic", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [[], ["--overlap-free"]], ids=["exact", "overlap-free"])
def test_main_prints_one_finite_summary(diagnostic, capsys, flags):
    diagnostic.main(["--dgp", "1", "--reps", "2", *flags])
    (line,) = capsys.readouterr().out.splitlines()
    label, values = line.split(": ")
    assert label.endswith("overlap-free" if flags else "exact")
    out = dict(item.split("=") for item in values.split(", "))
    assert list(out) == ["T*bias", "T*bias_se", "LM_adj_mean", "LM_adj_var", "LM_adj_freq_pct"]
    assert all(np.isfinite(float(v)) for v in out.values())


def test_exact_moments_give_the_packaged_statistic(diagnostic):
    # the script's LM_adj, from the full mirrored grids, is the package's
    # tile-by-tile sum on the same fits, to rounding
    out = diagnostic.run(2, 2, overlap_free=False)
    cfg = DgpConfig(dgp=2, t=diagnostic.T, n=diagnostic.N, k=diagnostic.K)
    packaged = []
    for rep in range(2):
        gen = generate_panel(cfg, derive_stream(diagnostic.ROOT_SEED, 0, rep))
        resid = fit(gen.panel, gen.model_spec)
        packaged.append(lm_adj_stat(correlation_matrix(resid), resid).statistic)
    assert out["LM_adj_mean"] == pytest.approx(np.mean(packaged), rel=1e-10, abs=1e-12)
