"""The zoom identity checks as they were first written, looping over
(beta, gamma) tuples of the coefficient dicts in Python: the battery's
array forms must report the same values, bit for bit."""

from ptfprg.battery import _poly_batch
from ptfprg.gaussops import binom_pmf_row, zoom_coefficient_polys
from ptfprg.hermite import total_degree
from ptfprg.seeding import substream


def reference_zoom_weight_identity(cfg):
    rng = substream(cfg.seed, "zoom-weight")
    worst = 0.0
    for g in _poly_batch(cfg):
        lam = float(rng.uniform(0.05, 0.95))
        cpolys = zoom_coefficient_polys(g, lam)
        for beta, cpoly in cpolys.items():
            lhs = cpoly.sq2norm()
            rhs = 0.0
            for gamma, c in g.coeffs.items():
                if all(gg >= bb for gg, bb in zip(gamma, beta)):
                    pr = 1.0
                    for gg, bb in zip(gamma, beta):
                        pr *= binom_pmf_row(gg, lam)[bb]
                    rhs += pr * c * c
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return {"pass": worst <= 1e-9, "max_rel_err": worst}


def reference_zoom_level_identity(cfg):
    rng = substream(cfg.seed, "zoom-level")
    worst = 0.0
    for g in _poly_batch(cfg):
        lam = float(rng.uniform(0.05, 0.95))
        cpolys = zoom_coefficient_polys(g, lam)
        dmax = g.degree()
        for mlev in range(dmax + 1):
            lhs = sum(cp.sq2norm() for b, cp in cpolys.items()
                      if total_degree(b) == mlev)
            rhs = sum(binom_pmf_row(M, lam)[mlev] * g.weight_at_level(M)
                      for M in range(mlev, dmax + 1))
            denom = max(abs(rhs), 1e-12 * g.sq2norm(), 1e-300)
            worst = max(worst, abs(lhs - rhs) / denom)
    return {"pass": worst <= 1e-9, "max_rel_err": worst}
