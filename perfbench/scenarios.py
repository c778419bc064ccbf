"""Seeded scenario generator for the frame-scale and query-lift workloads.

Rule, for rank P (p = m = P), frame index a = 0..P-1, coordinates
x1..xP, and a seed:

* anchor: rho_0 = d/dx1 and rho_a = exp(c_a*x1) d/dx_{a+1} for a >= 1, so
  the frame closes under the constant antisymmetric bracket
  [rho_0, rho_a] = c_a rho_a (L[a][0][a] = c_a = -L[a][a][0], all else 0);
* fiber-dependent connection:
  Gamma_a = k_a*x_{(a+1 mod P)+1}*y0 + q_a*sin(x_{a+1})*y0^2;
* positive diagonal metric: g_aa = 1 + s_a*x_{a+1}^2 + t_a*y0^2 and
  g00 = exp(u*x1)*(1 + v*y0^2), over the berwald baseline.

Every constant is drawn from ``random.Random(f"{seed}:{P}")`` in a fixed
range and printed with three decimals, so the same seed always gives the
same JSON text.
"""

from __future__ import annotations

import json
import random


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def generate(P: int, seed: int) -> dict:
    """Scenario document (ready for ``json.dump``) of rank ``P``."""
    rng = random.Random(f"{seed}:{P}")
    zero = "0"
    c = [None] + [_draw(rng, 0.2, 0.6) for _ in range(1, P)]
    rho = [["1" if i == 0 else zero for i in range(P)]]
    for a in range(1, P):
        rho.append([f"exp({c[a]}*x1)" if i == a else zero for i in range(P)])
    L = [[[zero] * P for _ in range(P)] for _ in range(P)]
    for a in range(1, P):
        L[a][0][a] = c[a]
        L[a][a][0] = f"-{c[a]}"
    gamma = []
    for a in range(P):
        j, i = (a + 1) % P + 1, a % P + 1
        gamma.append(f"{_draw(rng, 0.2, 0.8)}*x{j}*y0 + "
                     f"{_draw(rng, 0.1, 0.4)}*sin(x{i})*y0^2")
    g = [[zero] * P for _ in range(P)]
    for a in range(P):
        g[a][a] = (f"1 + {_draw(rng, 0.2, 1.0)}*x{a + 1}^2 + "
                   f"{_draw(rng, 0.1, 0.5)}*y0^2")
    g00 = f"exp({_draw(rng, 0.5, 1.5)}*x1)*(1 + {_draw(rng, 0.1, 0.4)}*y0^2)"
    return {
        "m": P,
        "p": P,
        "algebroid": {"rho": rho, "L": L},
        "connection": {"Gamma": gamma},
        "metric": {"g": g, "g00": g00, "baseline": "berwald"},
        "kappa": 1.0,
    }


def write(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
