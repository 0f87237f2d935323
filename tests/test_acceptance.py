"""Acceptance suite.

Each test prints one pass/fail line for its criterion; tolerances are pinned
here, not configurable.  The benchmark values and their published error
metrics live in the tables below.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tarnpricer import (
    ConstantVol,
    FdConfig,
    KnockoutType,
    MarketModel,
    McConfig,
    RateCurve,
    TarnContract,
    convergence_order,
    estimate_error,
    fd_price,
    mc_price,
    natural_cubic_spline,
    vanilla_price,
)
from tarnpricer import fd
from tarnpricer.cli import emit, parse_config, run

from conftest import benchmark_contract, flat_model

# Published 12-case benchmark: (knockout, target) -> FD price, MC price,
# MC stderr as a percentage of the MC price.
BENCHMARK = {
    ("no_gain", 0.3): (0.1955, 0.1955, 0.10),
    ("no_gain", 0.5): (0.3286, 0.3288, 0.10),
    ("no_gain", 0.7): (0.4505, 0.4507, 0.10),
    ("no_gain", 0.9): (0.5633, 0.5633, 0.10),
    ("part_gain", 0.3): (0.2445, 0.2446, 0.08),
    ("part_gain", 0.5): (0.3818, 0.3819, 0.09),
    ("part_gain", 0.7): (0.5061, 0.5063, 0.10),
    ("part_gain", 0.9): (0.6200, 0.6203, 0.10),
    ("full_gain", 0.3): (0.2978, 0.2979, 0.08),
    ("full_gain", 0.5): (0.4386, 0.4389, 0.09),
    ("full_gain", 0.7): (0.5644, 0.5646, 0.10),
    ("full_gain", 0.9): (0.6790, 0.6792, 0.10),
}

MODEL = flat_model()
FD_BENCH = FdConfig()  # 500 x 100 x 500
MC_BENCH = McConfig()  # 200,000 paths, control variate on


def report(number, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({name}) failed{tail}"


@pytest.fixture(scope="module")
def table1_fd():
    out = {}
    for (ko, target) in BENCHMARK:
        contract = benchmark_contract(KnockoutType(ko), target)
        out[(ko, target)] = fd_price(contract, MODEL, FD_BENCH, 1.05)
    return out


@pytest.fixture(scope="module")
def table1_mc():
    out = {}
    for (ko, target) in BENCHMARK:
        contract = benchmark_contract(KnockoutType(ko), target)
        out[(ko, target)] = mc_price(contract, MODEL, MC_BENCH, 1.05)
    return out


def test_criterion_1_fd_benchmark_reproduction(table1_fd):
    worst = 0.0
    for key, (fd_ref, _, _) in BENCHMARK.items():
        rel = abs(table1_fd[key].price - fd_ref) / fd_ref
        worst = max(worst, rel)
    report(1, "FD benchmark reproduction", worst <= 0.002,
           f"worst relative deviation {worst:.2%} vs 0.2% allowed")


def test_criterion_2_mc_benchmark_reproduction(table1_mc):
    worst_z = 0.0
    se_fracs = []
    for key, (_, mc_ref, se_pct) in BENCHMARK.items():
        res = table1_mc[key]
        z = abs(res.price - mc_ref) / (mc_ref * se_pct / 100.0)
        worst_z = max(worst_z, z)
        se_fracs.append(res.stderr / res.price)
    in_band = all(0.0004 <= f <= 0.0020 for f in se_fracs)
    report(2, "MC benchmark reproduction", worst_z <= 3.0 and in_band,
           f"worst z {worst_z:.2f} vs 3; stderr/price in "
           f"[{min(se_fracs):.4%}, {max(se_fracs):.4%}] vs [0.04%, 0.20%]")


def test_criterion_3_cross_engine_agreement(table1_fd, table1_mc):
    worst = 0.0
    for key in BENCHMARK:
        fd = table1_fd[key].price
        mc = table1_mc[key]
        ratio = abs(fd - mc.price) / (3.0 * mc.stderr)
        worst = max(worst, ratio)
    report(3, "cross-engine agreement", worst <= 1.0,
           f"worst |FD-MC| at {worst:.2f} of its 3-stderr band")


def test_criterion_4_refinement_error_estimate():
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    est = estimate_error(contract, MODEL, FD_BENCH, 1.05)
    quad_cfg = replace(FD_BENCH, spot_nodes=2000, accumulation_nodes=400,
                       time_steps=2000)
    v_quad = fd_price(contract, MODEL, quad_cfg, 1.05).price
    d_coarse = est.coarse.price - v_quad
    d_refined = est.refined.price - v_quad
    ratio = abs(d_refined) / abs(d_coarse)
    ok = est.relative_error <= 0.001 and ratio <= 0.5
    report(4, "refinement error estimate", ok,
           f"eps~ {est.relative_error:.4%} vs 0.1%; |delta*|/|delta| "
           f"{ratio:.2f} vs 0.5")


def test_criterion_5_vanilla_limit_and_order():
    contract = TarnContract(strike=1.0, target=1e6, beta=1,
                            fixing_times=(600 / 365,),
                            knockout=KnockoutType.FULL_GAIN)
    closed = vanilla_price(1.05, 1.0, 1, 600 / 365, MODEL.domestic,
                           MODEL.foreign, MODEL.vol)
    got = fd_price(contract, MODEL, FD_BENCH, 1.05).price
    rel = abs(got - closed) / closed
    base = FdConfig(spot_nodes=125, accumulation_nodes=25, time_steps=125)
    study = convergence_order(contract, MODEL, base, 1.05)
    ok = rel <= 0.0005 and 1.7 <= study.order <= 2.3
    report(5, "vanilla limit oracle", ok,
           f"rel err {rel:.4%} vs 0.05%; order {study.order:.2f} vs 2.0+-0.3")


def test_criterion_6_spline_fourth_order():
    def ratio(fn):
        def interior_error(j_nodes):
            nodes = np.linspace(0.0, 1.0, j_nodes)
            q = np.linspace(0.25, 0.75, 2001)
            return np.max(np.abs(natural_cubic_spline(nodes, fn(nodes), q)
                                 - fn(q)))
        return interior_error(21) / interior_error(41)

    r1 = ratio(lambda a: np.sin(3.0 * a))
    r2 = ratio(lambda a: np.sin(5.0 * a))
    ok = 10.0 < r1 < 24.0 and 10.0 < r2 < 24.0
    report(6, "spline fourth order", ok,
           f"error ratios {r1:.1f}, {r2:.1f} vs [10, 24]")


def test_criterion_7_dominance_and_monotonicity():
    rng = np.random.default_rng(123)
    cfg_fd = FdConfig(spot_nodes=200, accumulation_nodes=50, time_steps=200)
    order = (KnockoutType.NO_GAIN, KnockoutType.PART_GAIN,
             KnockoutType.FULL_GAIN)
    violations = 0
    for i in range(100):
        beta = int(rng.choice([1, -1]))
        strike = float(rng.uniform(0.85, 1.15))
        spot = float(rng.uniform(0.9, 1.1))
        sigma = float(rng.uniform(0.1, 0.35))
        r_d = float(rng.uniform(0.0, 0.04))
        r_f = float(rng.uniform(0.0, 0.04))
        k = int(rng.integers(4, 11))
        spacing = float(rng.uniform(0.04, 0.12))
        times = tuple(spacing * (j + 1) for j in range(k))
        model = MarketModel(RateCurve.flat(r_d), RateCurve.flat(r_f),
                            ConstantVol(sigma))
        strip = sum(vanilla_price(spot, strike, beta, t, model.domestic,
                                  model.foreign, model.vol) for t in times)
        u1 = max(float(rng.uniform(0.3, 0.8)) * strip, 0.005)
        u2 = u1 * (1.0 + float(rng.uniform(0.2, 0.6)))
        mc_cfg = McConfig(n_paths=8192, seed=1000 + i, control_variate=False)
        prices = {"fd": {}, "mc": {}}
        # the contract's six cases priced as a run, as cli.run prices them
        cases = tuple(TarnContract(strike=strike, target=u, beta=beta,
                                   fixing_times=times, knockout=ko)
                      for ko in order for u in (u1, u2))
        cache = {}
        for contract in cases:
            key = (contract.knockout, contract.target)
            prices["fd"][key] = fd_price(contract, model, cfg_fd, spot, cache=cache,
                                         cases=cases).price
            prices["mc"][key] = mc_price(contract, model, mc_cfg, spot, cache=cache,
                                         cases=cases).price
        for engine in ("fd", "mc"):
            p = prices[engine]
            for u in (u1, u2):
                tol = 1e-10 * u
                if p[(order[0], u)] > p[(order[1], u)] + tol:
                    violations += 1
                if p[(order[1], u)] > p[(order[2], u)] + tol:
                    violations += 1
            for ko in order:
                if p[(ko, u1)] > p[(ko, u2)] + 1e-10 * u2:
                    violations += 1
    report(7, "dominance and target monotonicity", violations == 0,
           f"{violations} violations beyond 1e-10*U over 100 contracts, "
           "both engines")


def apply_jump_backward(values, extra, contract, grid, accum_nodes):
    """Fixing-date update of ``contract`` on ``grid``'s spots and the
    accrued amounts ``accum_nodes``, with the shift applied backward.
    Known wrong.

    The backward relation moves a grid amount down by the payment, and the
    payment itself depends on the (unknown) shifted amount.  Solving that
    relation self-consistently, the shifted amount plus the gross flow
    lands back on the grid amount, which is at most the target, so the
    breach indicator can never fire: the knockout is unreachable from this
    direction and every fixing pays its gross amount in full.  The shifted
    amounts can also go negative, and reading the node values back requires
    extrapolating above them.
    """
    gross = contract.gross(grid.spots)[None, :]
    shifted = accum_nodes[:, None] - gross
    jumped = values + gross + extra
    out = np.empty_like(values)
    for m in range(values.shape[1]):
        interp = CubicSpline(shifted[:, m], jumped[:, m], bc_type="natural",
                             extrapolate=True)
        out[:, m] = interp(accum_nodes)
    return out


def test_criterion_8_backward_jump_is_wrong(monkeypatch):
    contract = benchmark_contract(KnockoutType.NO_GAIN, 0.3)
    cfg = FdConfig(spot_nodes=160, accumulation_nodes=40, time_steps=160)
    forward = fd_price(contract, MODEL, cfg, 1.05).price
    # each pricing's spot grid, as it builds it, and its lattice's
    # accumulation axis, uniform from zero to the target
    grids = []
    build_grid = fd.build_grid
    monkeypatch.setattr(fd, "build_grid",
                        lambda *args: grids.append(build_grid(*args)) or grids[-1])
    monkeypatch.setattr(fd, "apply_jump", lambda values, plan, extra: apply_jump_backward(
        values, extra, contract, grids[-1],
        np.linspace(0.0, contract.target, values.shape[0])))
    est_b = estimate_error(contract, MODEL, cfg, 1.05)
    deviation = abs(est_b.coarse.price - forward) / abs(forward)
    ok = deviation > est_b.relative_error
    report(8, "backward jump negative test", ok,
           f"deviates {deviation:.2%} from the forward price, far beyond its "
           f"own refinement estimate {est_b.relative_error:.4%}")


DETERMINISM_CONFIG = """
[contract]
strike = 1.0
target = 0.3, 0.5
knockout = part_gain
fixing_times = 0.1, 0.2, 0.3, 0.4

[model]
volatility = 0.2

[run]
spot = 1.05
engines = fd, mc

[fd]
spot_nodes = 80
accumulation_nodes = 12
time_steps = 20

[mc]
paths = 6000
seed = 31415
"""


def test_criterion_9_deterministic_machine_output():
    cfg = parse_config(DETERMINISM_CONFIG)

    def machine_text():
        lines = []
        for line in emit(run(cfg), "records").splitlines():
            record = json.loads(line)
            record.pop("wall_time_s")  # timing is explicitly excluded
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines)

    first = machine_text()
    second = machine_text()
    ok = first == second
    report(9, "deterministic machine output", ok,
           f"{len(first.splitlines())} records byte-identical "
           "excluding timing fields")
